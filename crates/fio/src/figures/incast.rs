//! Incast (`fig_incast`): 1 to 256 host clients fanning into one 4-engine
//! RF 2 cluster behind a 64-session connection pool — aggregate throughput,
//! per-client fairness and pool hit rate — and a 64-client engine kill
//! whose new map reaches every client as one pushed `MapPush` fan-out.
//! DESIGN.md §14 describes the world; `crates/fio/tests/incast.rs` asserts
//! the cells.

use ros2_core::FaultPlan;
use ros2_daos::{ConnPoolStats, RetryStats};
use ros2_nvme::DataMode;
use ros2_sim::SimDuration;

use crate::{run_fio, Clients, IncastFioWorld, JobSpec, RwMode, WorldSpec};

/// Clients axis of the sweep.
pub const CLIENT_COUNTS: [usize; 4] = [1, 16, 64, 256];
/// Engines in the cluster.
pub const ENGINES: usize = 4;
/// Replication factor.
pub const RF: usize = 2;
/// FIO jobs per client.
pub const JOBS_PER_CLIENT: usize = 1;
/// Preconditioned bytes per job file.
const REGION: u64 = 2 << 20;
/// Engine-side resident-session bound: the 256-client cell oversubscribes
/// it 4× on purpose.
pub const POOL_CAPACITY: usize = 64;
/// Clients of the kill cell.
pub const KILL_CLIENTS: usize = 64;
/// Client ops (over all clients) between arming the kill and its firing.
const KILL_AFTER_OPS: u64 = 140;
/// How late the push fan-out starts.
const RAS_DELAY: SimDuration = SimDuration::from_millis(5);

fn spec(rw: RwMode, jobs: usize, region: u64, seed: u64) -> JobSpec {
    JobSpec::new(rw, 1 << 20, jobs)
        .iodepth(2)
        .region(region)
        .windows(SimDuration::from_millis(2), SimDuration::from_millis(20))
        .seed(seed)
}

/// 1 MiB random reads at QD 2 over `region` per job, 2 ms ramp and 20 ms
/// measured.
pub fn read_spec(jobs: usize, region: u64) -> JobSpec {
    spec(RwMode::RandRead, jobs, region, 9)
}

/// [`read_spec`]'s shape as random writes.
pub fn write_spec(jobs: usize, region: u64) -> JobSpec {
    spec(RwMode::RandWrite, jobs, region, 13)
}

fn world(clients: usize, mode: DataMode) -> IncastFioWorld {
    WorldSpec::cluster(ENGINES)
        .clients(Clients::host(clients))
        .replication(RF)
        .jobs(JOBS_PER_CLIENT)
        .region(REGION)
        .mode(mode)
        .pool_capacity(POOL_CAPACITY)
        .build_incast()
}

/// One sweep point.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Aggregate throughput.
    pub gib_s: f64,
    /// Ops that failed.
    pub failed: u64,
    /// Data-plane ops per client, in node order.
    pub per_client_ops: Vec<u64>,
    /// The engines' connection-pool counters.
    pub pool: ConnPoolStats,
}

/// `clients` host clients of [`read_spec`] behind a [`POOL_CAPACITY`]
/// pool.
pub fn sweep_cell(clients: usize) -> SweepCell {
    let mut w = world(clients, DataMode::Null);
    let spec = read_spec(w.total_jobs(), REGION);
    let report = run_fio(&mut w, &spec);
    SweepCell {
        gib_s: report.gib_per_sec(),
        failed: report.io.errors.get(),
        per_client_ops: w.per_client_ops(),
        pool: w.cluster.conn_pool_stats(),
    }
}

/// What a kill under incast reports.
#[derive(Copy, Clone, Debug)]
pub struct KillCell {
    /// Aggregate throughput through the kill.
    pub gib_s: f64,
    /// Ops that failed.
    pub failed: u64,
    /// `ErrStaleMap` fences the engines raised.
    pub fences: u64,
    /// Ladder counters merged over the clients.
    pub retry: RetryStats,
    /// The engines' connection-pool hit rate.
    pub pool_hit_rate: f64,
}

/// Runs `spec` on `w` through the op ring (the retry ladder needs it),
/// engine 1 dying `after_ops` client ops in and the push fan-out leaving
/// `ras_delay` later.
pub fn run_kill(
    mut w: IncastFioWorld,
    spec: &JobSpec,
    after_ops: u64,
    ras_delay: SimDuration,
) -> KillCell {
    w.set_pipelined(true);
    let after = w.total_ops() + after_ops;
    w.set_fault_plan(FaultPlan::kill_after(1, after, ras_delay));
    let report = run_fio(&mut w, spec);
    KillCell {
        gib_s: report.gib_per_sec(),
        failed: report.io.errors.get(),
        fences: w.cluster.fences(),
        retry: w.retry_stats(),
        pool_hit_rate: w.cluster.conn_pool_stats().hit_rate(),
    }
}

/// The figure's kill cell: [`KILL_CLIENTS`] clients, stored contents,
/// [`write_spec`].
pub fn kill_cell() -> KillCell {
    let w = world(KILL_CLIENTS, DataMode::Stored);
    let spec = write_spec(w.total_jobs(), REGION);
    run_kill(w, &spec, KILL_AFTER_OPS, RAS_DELAY)
}
