//! Chaos (`fig_chaos`): the pipelined client's recovery ladder when engine
//! 1 dies under QD 32 reads (4 jobs × iodepth 8, each 4 MiB op a 4-deep
//! chunk ring) and the RAS event reaches the client a millisecond late,
//! on the host and the offloaded client, beside the empty-plan baseline.
//! The spec, worlds and kill plan are the recovery figure's too.
//! DESIGN.md §12 describes the ladder; `crates/fio/tests/fault_plan.rs`
//! asserts the cells.

use ros2_core::FaultPlan;
use ros2_daos::RetryStats;
use ros2_dpu::DpuTenantSpec;
use ros2_sim::{SimDuration, SimTime};

use crate::{run_fio, DfsFioWorld, FioOp, JobSpec, RwMode, Workload, WorldSpec};

/// Engines in the cluster.
pub const ENGINES: usize = 4;
/// Replication factor.
pub const RF: usize = 2;
/// FIO jobs.
pub(crate) const JOBS: usize = 4;
/// Preconditioned bytes per job file.
pub(crate) const REGION: u64 = 8 << 20;
/// The slot the figure's kill plan takes down.
pub const VICTIM: usize = 1;
/// Client ops between arming a kill and its firing.
pub const KILL_AFTER_OPS: u64 = 64;
/// How late the RAS event reaches the client: dozens of op latencies, so
/// a real stale window opens.
pub const RAS_DELAY: SimDuration = SimDuration::from_millis(1);

/// 4 MiB ops over 1 MiB DFS chunks: 4 jobs × iodepth 8 × 4-deep chunk
/// rings ≈ 32 data-plane legs in flight when a kill lands.
pub fn spec(rw: RwMode) -> JobSpec {
    JobSpec::new(rw, 4 << 20, JOBS)
        .iodepth(8)
        .region(REGION)
        .windows(SimDuration::from_millis(2), SimDuration::from_millis(30))
        .seed(7)
}

fn pipelined(spec: WorldSpec) -> DfsFioWorld {
    let mut w = spec.replication(RF).jobs(JOBS).region(REGION).build_dfs();
    w.set_pipelined(true);
    w
}

/// The cluster with a host client, op ring on.
pub fn host_world() -> DfsFioWorld {
    pipelined(WorldSpec::cluster(ENGINES))
}

/// The cluster with the DPU-offloaded client, op ring on.
pub fn dpu_world() -> DfsFioWorld {
    pipelined(WorldSpec::cluster(ENGINES).offload(vec![DpuTenantSpec::unlimited("fio")]))
}

/// Engine `slot` dies [`KILL_AFTER_OPS`] client ops from now and the RAS
/// event reaches the client [`RAS_DELAY`] late.
pub(crate) fn kill_plan(w: &DfsFioWorld, slot: usize) -> FaultPlan {
    FaultPlan::kill_after(slot, w.client.ops() + KILL_AFTER_OPS, RAS_DELAY)
}

/// What one chaos run reports.
#[derive(Clone, Debug)]
pub struct ChaosCell {
    /// The completion comb's payload rate inside the measured window.
    pub gib_s: f64,
    /// Ops that failed.
    pub failed: u64,
    /// `ErrStaleMap` fences the engines raised.
    pub fences: u64,
    /// The client's ladder counters.
    pub retry: RetryStats,
    /// The same counters as `DpuStats` reports them (zero on the host).
    pub dpu_retry: RetryStats,
    /// When the first retry succeeded.
    pub first_retry: Option<SimTime>,
}

/// Runs `spec` against `w` with engine `kill` dying mid-run, or under the
/// empty plan when `kill` is `None`. The rate is read off the completion
/// comb — `(n − 1) × bs / (t_last − t_first)` inside the measured window —
/// not off an op count: these wire-bound cells complete on a fixed pitch,
/// and a latency change that moves the comb's phase moves the count by
/// one, never the pitch.
pub fn run(mut w: DfsFioWorld, spec: &JobSpec, kill: Option<usize>) -> ChaosCell {
    let plan = kill.map_or_else(FaultPlan::none, |slot| kill_plan(&w, slot));
    w.set_fault_plan(plan);
    let mut tapped = Tapped {
        world: &mut w,
        completions: Vec::new(),
    };
    let report = run_fio(&mut tapped, spec);
    let from = SimTime::ZERO + spec.ramp;
    let mut inside: Vec<SimTime> = tapped
        .completions
        .into_iter()
        .filter(|&t| t >= from && t < from + spec.runtime)
        .collect();
    inside.sort_unstable();
    let span = inside[inside.len() - 1].saturating_since(inside[0]);
    let bytes = (inside.len() as u64 - 1) * spec.bs;
    ChaosCell {
        gib_s: bytes as f64 / span.as_secs_f64() / (1u64 << 30) as f64,
        failed: report.io.errors.get(),
        fences: w.cluster.fences(),
        retry: w.client.retry_stats(),
        dpu_retry: w.client.dpu_stats().retry,
        first_retry: w.client.first_successful_retry(),
    }
}

/// The figure's cell: the read spec on `w`, engine [`VICTIM`] killed if
/// `kill`.
pub fn cell(w: DfsFioWorld, kill: bool) -> ChaosCell {
    run(w, &spec(RwMode::RandRead), kill.then_some(VICTIM))
}

/// The world behind a tap that notes when each successful op completes.
struct Tapped<'a> {
    world: &'a mut DfsFioWorld,
    completions: Vec<SimTime>,
}

impl Workload for Tapped<'_> {
    fn issue(&mut self, now: SimTime, job: usize, op: &FioOp) -> Result<SimTime, String> {
        let done = self.world.issue(now, job, op);
        self.completions.extend(done.iter().copied());
        done
    }
}
