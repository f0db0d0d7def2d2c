//! Scale-out sweep: prints the `ros2_fio::figures::scaleout` cells.

use ros2_fio::figures::scaleout::{resilience_cell, scale_cell, ENGINES, JOBS};
use ros2_hw::gbps;

fn main() {
    let port_gib_s = gbps(100) as f64 / (1u64 << 30) as f64;

    println!("scale-out sweep: {ENGINES:?} engines, RDMA, 1 MiB sequential reads, {JOBS} jobs");
    let tputs = ENGINES.map(|n| {
        let gib_s = scale_cell(n).gib_s;
        println!("  {n:>2} engines: {gib_s:6.2} GiB/s");
        gib_s
    });
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
        res.failed,
        res.rebuild.degraded_fetches,
        res.rebuild.objects_moved,
        res.rebuild.bytes_moved,
    );
}
