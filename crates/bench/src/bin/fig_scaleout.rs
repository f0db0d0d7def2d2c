//! Scale-out sweep (PR 5): aggregate DFS throughput as the cluster grows
//! from 1 to 8 engines behind the shared 100 Gbps switch port — RDMA,
//! large sequential blocks, one 5.8 GiB/s NVMe drive per engine.
//!
//! The expected shape (asserted by
//! `worlds_tests::cluster_world_engages_multiple_engines_and_outruns_one`
//! and `worlds_tests::cluster_world_rf2_kill_serves_degraded_then_rebuilds`):
//!
//! * **growth** — one engine is drive-bound (~5.8 GiB/s), so doubling the
//!   engine count must grow aggregate throughput substantially;
//! * **saturation** — the client's single switch port (100 Gbps ≈ 11.64
//!   GiB/s) is the shared bottleneck, so the curve flattens beneath it
//!   instead of scaling forever — the §3.1 cluster shape made measurable;
//! * **resilience** — an RF=2, 4-engine world survives an engine kill
//!   mid-workload with zero failed ops (degraded reads), and the online
//!   rebuild restores RF with every CRC intact.

use ros2_fio::{run_fio, JobSpec, RwMode, WorldSpec};
use ros2_hw::gbps;
use ros2_nvme::DataMode;
use ros2_sim::{SimDuration, SimTime};

/// Engine-count axis of the sweep.
const ENGINES: [usize; 4] = [1, 2, 4, 8];
const JOBS: usize = 16;
const REGION: u64 = 8 << 20;

fn scale_spec(rw: RwMode, bs: u64) -> JobSpec {
    JobSpec::new(rw, bs, JOBS)
        .iodepth(4)
        .region(REGION)
        .windows(SimDuration::from_millis(20), SimDuration::from_millis(80))
}

/// One scale-sweep cell: `engines` storage nodes, RF 1, large sequential
/// reads. Returns GiB/s.
fn scale_cell(engines: usize) -> f64 {
    let mut world = WorldSpec::cluster(engines)
        .jobs(JOBS)
        .region(REGION)
        .mode(DataMode::Null)
        .build_dfs();
    run_fio(&mut world, &scale_spec(RwMode::Read, 1 << 20)).gib_per_sec()
}

/// The resilience cell: 4 engines, RF 2, stored contents. Runs a write
/// pass, kills the first file's replica leader, runs a full read pass
/// degraded, rebuilds, and reads again. Returns the recorded fields.
struct ResilienceCell {
    degraded_gib_s: f64,
    post_rebuild_gib_s: f64,
    failed_ops: u64,
    degraded_fetches: u64,
    rebuild_objects: u64,
    rebuild_bytes: u64,
}

fn resilience_cell() -> ResilienceCell {
    let mut world = WorldSpec::cluster(4)
        .replication(2)
        .jobs(8)
        .region(REGION)
        .build_dfs();
    let spec = JobSpec::new(RwMode::Read, 1 << 20, 8)
        .iodepth(2)
        .region(REGION)
        .windows(SimDuration::from_millis(10), SimDuration::from_millis(40));
    let mut failed = 0u64;

    // Baseline pass, then kill the leader of file 0's object.
    let baseline = run_fio(&mut world, &spec);
    failed += baseline.io.errors.get();
    let victim = world
        .cluster
        .route_update(&world.file(0).oid)
        .leader()
        .expect("healthy leader");
    world.kill_engine(victim).expect("kill");

    // Degraded pass.
    world.reset_timing();
    let degraded = run_fio(&mut world, &spec);
    failed += degraded.io.errors.get();

    // Online rebuild, then a post-rebuild pass.
    world.reset_timing();
    world.rebuild(SimTime::ZERO).expect("rebuild");
    world.reset_timing();
    let recovered = run_fio(&mut world, &spec);
    failed += recovered.io.errors.get();

    let stats = world.cluster.rebuild_stats();
    ResilienceCell {
        degraded_gib_s: degraded.gib_per_sec(),
        post_rebuild_gib_s: recovered.gib_per_sec(),
        failed_ops: failed,
        degraded_fetches: stats.degraded_fetches,
        rebuild_objects: stats.objects_moved,
        rebuild_bytes: stats.bytes_moved,
    }
}

fn main() {
    let port_gib_s = gbps(100) as f64 / (1u64 << 30) as f64;

    println!("scale-out sweep: {ENGINES:?} engines, RDMA, 1 MiB sequential reads, {JOBS} jobs");
    let mut tputs = Vec::new();
    for &n in &ENGINES {
        let gib_s = scale_cell(n);
        println!("  {n:>2} engines: {gib_s:6.2} GiB/s");
        tputs.push(gib_s);
    }
    let growth_2x = tputs[1] / tputs[0].max(1e-9);
    let peak = tputs.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "  growth 1->2 engines: {growth_2x:.2}x; peak {peak:.2} GiB/s vs \
         {port_gib_s:.2} GiB/s port"
    );

    let res = resilience_cell();
    println!(
        "resilience (4 engines, RF 2): degraded {0:.2} GiB/s, post-rebuild {1:.2} GiB/s, \
         {2} failed ops, {3} degraded fetches, {4} objects / {5} B rebuilt",
        res.degraded_gib_s,
        res.post_rebuild_gib_s,
        res.failed_ops,
        res.degraded_fetches,
        res.rebuild_objects,
        res.rebuild_bytes,
    );
}
