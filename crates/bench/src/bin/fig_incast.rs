//! Incast figure (PR 9): N clients fanning into one 4-engine cluster
//! through the shared switch.
//!
//! The clients axis sweeps 1 → 256. Each cell measures what the incast
//! deployment shape actually does to the storage side (asserted by
//! `crates/fio/tests/incast.rs`):
//!
//! * **aggregate throughput** — grows with the client count until the
//!   storage ports saturate, then flattens (never exceeds them): the
//!   incast collapse is a fairness story, not a loss story, on a lossless
//!   fabric;
//! * **fairness** — symmetric clients must share the ports evenly; the
//!   per-client op spread (max/min) is reported;
//! * **connection pool** — the engines hold at most `POOL_CAPACITY`
//!   resident sessions regardless of the client count. At ≤ capacity the
//!   steady state is all hits; at 256 clients the pool thrashes by
//!   design and the recorded hit rate quantifies the reconnect tax;
//! * **kill cell** — 64 clients, RF 2, engine 1 dies mid-run and the new
//!   map reaches every client as **one** pushed `MapPush` fan-out
//!   (delayed RAS, per-client serialization gap), not 64 `MapQuery`
//!   pulls.

use ros2_core::FaultPlan;
use ros2_fio::{run_fio, Clients, IncastFioWorld, JobSpec, RwMode, WorldSpec};
use ros2_nvme::DataMode;
use ros2_sim::SimDuration;

/// Clients axis of the sweep.
const CLIENT_COUNTS: [usize; 4] = [1, 16, 64, 256];
const ENGINES: usize = 4;
const RF: usize = 2;
const JOBS_PER_CLIENT: usize = 1;
const REGION: u64 = 2 << 20;
/// Engine-side resident-session bound: the 256-client cell oversubscribes
/// it 4× on purpose.
const POOL_CAPACITY: usize = 64;
const KILL_CLIENTS: usize = 64;
const KILL_AFTER_OPS: u64 = 140;
const RAS_DELAY: SimDuration = SimDuration::from_millis(5);

fn incast_world(clients: usize, mode: DataMode) -> IncastFioWorld {
    WorldSpec::cluster(ENGINES)
        .clients(Clients::host(clients))
        .replication(RF)
        .jobs(JOBS_PER_CLIENT)
        .region(REGION)
        .mode(mode)
        .pool_capacity(POOL_CAPACITY)
        .build_incast()
}

fn main() {
    println!(
        "incast sweep: {CLIENT_COUNTS:?} clients x {JOBS_PER_CLIENT} job, {ENGINES} engines \
         RF {RF}, pool capacity {POOL_CAPACITY}"
    );
    for &clients in &CLIENT_COUNTS {
        let mut w = incast_world(clients, DataMode::Null);
        let spec = JobSpec::new(RwMode::RandRead, 1 << 20, w.total_jobs())
            .iodepth(2)
            .region(REGION)
            .windows(SimDuration::from_millis(2), SimDuration::from_millis(20))
            .seed(9);
        let report = run_fio(&mut w, &spec);
        let ops = w.per_client_ops();
        let min = *ops.iter().min().unwrap() as f64;
        let max = *ops.iter().max().unwrap() as f64;
        let stats = w.cluster.conn_pool_stats();
        println!(
            "  {clients:>3} clients: {:6.2} GiB/s aggregate, fairness {:.2}x, pool hit rate {:.3}, \
             resident peak {}, {} evictions",
            report.gib_per_sec(),
            max / min.max(1.0),
            stats.hit_rate(),
            stats.resident_peak,
            stats.evictions,
        );
    }

    // 64 clients, stored contents, engine 1 killed mid-run; the revision is
    // distributed by the RAS push fan-out (pipelined path: the retry ladder
    // needs the op ring).
    let mut w = incast_world(KILL_CLIENTS, DataMode::Stored);
    w.set_pipelined(true);
    let after = w.total_ops() + KILL_AFTER_OPS;
    w.set_fault_plan(FaultPlan::kill_after(1, after, RAS_DELAY));
    let spec = JobSpec::new(RwMode::RandWrite, 1 << 20, w.total_jobs())
        .iodepth(2)
        .region(REGION)
        .windows(SimDuration::from_millis(2), SimDuration::from_millis(20))
        .seed(13);
    let report = run_fio(&mut w, &spec);
    println!(
        "kill cell ({KILL_CLIENTS} clients, RAS push): {:.2} GiB/s, {} failed, {} fences, \
         {} retries, hit rate {:.3}",
        report.gib_per_sec(),
        report.io.errors.get(),
        w.cluster.fences(),
        w.retry_stats().retries,
        w.cluster.conn_pool_stats().hit_rate(),
    );
}
