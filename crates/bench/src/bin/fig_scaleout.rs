//! Scale-out sweep (PR 5): aggregate DFS throughput as the cluster grows
//! from 1 to 8 engines behind the shared 100 Gbps switch port — RDMA,
//! large sequential blocks, one 5.8 GiB/s NVMe drive per engine.
//!
//! The expected shape, asserted as gates and recorded in
//! `BENCH_PR5.json`:
//!
//! * **growth** — one engine is drive-bound (~5.8 GiB/s), so doubling the
//!   engine count must grow aggregate throughput substantially;
//! * **saturation** — the client's single switch port (100 Gbps ≈ 11.64
//!   GiB/s) is the shared bottleneck, so the curve flattens beneath it
//!   instead of scaling forever — the §3.1 cluster shape made measurable;
//! * **no regression of the control arm** — the legacy single-engine
//!   sweep re-played through the cluster-of-1 path must still simulate
//!   exactly `OPS_SIMULATED_PIN` ops (595716, pinned since PR 3);
//! * **resilience** — an RF=2, 4-engine world survives an engine kill
//!   mid-workload with zero failed ops (degraded reads), and the online
//!   rebuild restores RF with every CRC intact.

use ros2_bench::{legacy_sweep_ops, OPS_SIMULATED_PIN};
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
/// reads. Returns (GiB/s, failed ops).
fn scale_cell(engines: usize) -> (f64, u64) {
    let mut world = WorldSpec::cluster(engines)
        .jobs(JOBS)
        .region(REGION)
        .mode(DataMode::Null)
        .build_dfs();
    let report = run_fio(&mut world, &scale_spec(RwMode::Read, 1 << 20));
    (report.gib_per_sec(), report.io.errors.get())
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

    // Degraded pass: every read must still succeed.
    world.reset_timing();
    let degraded = run_fio(&mut world, &spec);
    failed += degraded.io.errors.get();

    // Online rebuild, then a verified post-rebuild pass.
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
    let mut scale_failed = 0u64;
    for &n in &ENGINES {
        let (gib_s, failed) = scale_cell(n);
        println!("  {n:>2} engines: {gib_s:6.2} GiB/s");
        tputs.push(gib_s);
        scale_failed += failed;
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

    println!("re-playing the legacy single-engine sweep for the ops pin...");
    let legacy_ops = legacy_sweep_ops();
    println!("  legacy sweep ops: {legacy_ops} (pin {OPS_SIMULATED_PIN})");

    // ---- gates (all virtual-time, deterministic) ----
    assert_eq!(scale_failed, 0, "scale sweep must complete without errors");
    assert!(
        growth_2x > 1.3,
        "2 engines must clearly outrun 1 (drive-bound -> {growth_2x:.2}x)"
    );
    for w in tputs.windows(2) {
        assert!(
            w[1] > w[0] * 0.92,
            "aggregate throughput must not collapse as engines are added: {tputs:?}"
        );
    }
    assert!(
        peak <= port_gib_s * 1.02,
        "aggregate throughput cannot exceed the shared switch port \
         ({peak:.2} vs {port_gib_s:.2} GiB/s)"
    );
    assert!(
        peak > port_gib_s * 0.80,
        "8 drive-bound engines must saturate the shared port \
         ({peak:.2} vs {port_gib_s:.2} GiB/s)"
    );
    assert_eq!(
        res.failed_ops, 0,
        "an RF=2 world must survive an engine kill with zero failed ops"
    );
    assert!(
        res.degraded_fetches > 0,
        "the killed leader's objects must be served degraded"
    );
    assert!(
        res.rebuild_objects > 0 && res.rebuild_bytes > 0,
        "rebuild must move the dead engine's objects"
    );
    assert_eq!(
        legacy_ops, OPS_SIMULATED_PIN,
        "the legacy single-engine sweep must stay bit-identical through \
         the cluster refactor"
    );

    let mut cells_json = String::from("[");
    for (i, (&n, &gib_s)) in ENGINES.iter().zip(&tputs).enumerate() {
        if i > 0 {
            cells_json.push_str(", ");
        }
        cells_json.push_str(&format!("{{\"engines\": {n}, \"gib_s\": {gib_s:.4}}}"));
    }
    cells_json.push(']');

    let json = format!(
        "{{\n  \"scaleout\": {cells_json},\n  \
         \"scaleout_growth_2x\": {growth_2x:.4},\n  \
         \"scaleout_peak_gib_s\": {peak:.4},\n  \
         \"port_gib_s\": {port_gib_s:.4},\n  \
         \"scaleout_failed_ops\": {scale_failed},\n  \
         \"rf2_degraded_gib_s\": {:.4},\n  \
         \"rf2_post_rebuild_gib_s\": {:.4},\n  \
         \"rf2_failed_ops\": {},\n  \
         \"rf2_degraded_fetches\": {},\n  \
         \"rf2_rebuild_objects\": {},\n  \
         \"rf2_rebuild_bytes\": {},\n  \
         \"ops_simulated\": {legacy_ops}\n}}\n",
        res.degraded_gib_s,
        res.post_rebuild_gib_s,
        res.failed_ops,
        res.degraded_fetches,
        res.rebuild_objects,
        res.rebuild_bytes,
    );
    std::fs::write("BENCH_PR5.json", &json).expect("write BENCH_PR5.json");
    println!("wrote BENCH_PR5.json");
}
