//! Scale-out (`fig_scaleout`): 16 jobs of 1 MiB sequential reads on 1 to
//! 8 RF 1 engines behind the client's shared 100 Gbps port, and a 4-engine
//! RF 2 world that loses a leader mid-workload and rebuilds. DESIGN.md §10
//! describes the shape; `worlds_tests` asserts it.

use ros2_daos::RebuildStats;
use ros2_nvme::DataMode;
use ros2_sim::{SimDuration, SimTime, Timed};

use crate::{run_fio, JobSpec, RwMode, WorldSpec};

/// Engine-count axis of the sweep.
pub const ENGINES: [usize; 4] = [1, 2, 4, 8];
/// Jobs per sweep point.
pub const JOBS: usize = 16;
/// Preconditioned bytes per job file.
const REGION: u64 = 8 << 20;

/// One sweep point.
#[derive(Copy, Clone, Debug)]
pub struct ScaleCell {
    /// Aggregate throughput.
    pub gib_s: f64,
    /// Ops that failed.
    pub failed: u64,
    /// Engines that served at least one RPC.
    pub engaged: usize,
}

/// `engines` storage nodes, RF 1: 16 jobs of 1 MiB sequential reads at
/// QD 4.
pub fn scale_cell(engines: usize) -> ScaleCell {
    let mut w = WorldSpec::cluster(engines)
        .jobs(JOBS)
        .region(REGION)
        .mode(DataMode::Null)
        .build_dfs();
    let spec = JobSpec::new(RwMode::Read, 1 << 20, JOBS)
        .iodepth(4)
        .region(REGION)
        .windows(SimDuration::from_millis(20), SimDuration::from_millis(80));
    let r = run_fio(&mut w, &spec);
    ScaleCell {
        gib_s: r.gib_per_sec(),
        failed: r.io.errors.get(),
        engaged: (0..w.cluster.len())
            .filter(|&s| w.cluster.engine(s).rpcs() > 0)
            .count(),
    }
}

/// The resilience cell's passes and the rebuild between them.
#[derive(Copy, Clone, Debug)]
pub struct ResilienceCell {
    /// Throughput with the leader dead.
    pub degraded_gib_s: f64,
    /// Throughput once the rebuild restored RF.
    pub post_rebuild_gib_s: f64,
    /// Ops that failed, over all three passes.
    pub failed: u64,
    /// Degraded fetches and what the rebuild moved.
    pub rebuild: RebuildStats,
}

/// 4 engines, RF 2, stored contents, 8 jobs of 1 MiB reads: a healthy
/// pass, then file 0's replica leader dies; a degraded pass, an online
/// rebuild, and a post-rebuild pass.
pub fn resilience_cell() -> ResilienceCell {
    let mut w = WorldSpec::cluster(4)
        .replication(2)
        .jobs(8)
        .region(REGION)
        .build_dfs();
    let spec = JobSpec::new(RwMode::Read, 1 << 20, 8)
        .iodepth(2)
        .region(REGION)
        .windows(SimDuration::from_millis(10), SimDuration::from_millis(40));
    let mut failed = run_fio(&mut w, &spec).io.errors.get();
    let victim = w.cluster.map().route(&w.file(0).oid).set.leader();
    w.kill_engine(SimTime::ZERO, victim.expect("healthy leader"))
        .expect("kill");
    w.reset_timing();
    let degraded = run_fio(&mut w, &spec);
    w.reset_timing();
    w.rebuild(SimTime::ZERO).expect("rebuild");
    w.reset_timing();
    let recovered = run_fio(&mut w, &spec);
    failed += degraded.io.errors.get() + recovered.io.errors.get();
    ResilienceCell {
        degraded_gib_s: degraded.gib_per_sec(),
        post_rebuild_gib_s: recovered.gib_per_sec(),
        failed,
        rebuild: w.cluster.rebuild_stats(),
    }
}
