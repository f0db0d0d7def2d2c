//! Queue-depth sweep: prints the `ros2_fio::figures::qd` cells.

use ros2_fio::figures::qd::{cell, BLOCKS, DEPTHS, JOBS};

fn main() {
    println!("queue-depth sweep: QD {DEPTHS:?}, bs {BLOCKS:?}, RandRead, {JOBS} job, ring on");
    // (host, dpu) GiB/s per [bs][qd], in axis order.
    let sweep = BLOCKS.map(|bs| {
        DEPTHS.map(|qd| {
            let c = cell(bs, qd, true);
            let (h, d) = (c.host.gib_s, c.dpu.gib_s);
            println!(
                "  bs={bs:>7} qd={qd:>2}  host {:>8.1} MiB/s  dpu {:>8.1} MiB/s  ratio {:.3}",
                h * 1024.0,
                d * 1024.0,
                d / h.max(1e-12)
            );
            (h, d)
        })
    });

    let small = &sweep[0];
    let qd_scaling = small[3].0 / small[0].0.max(1e-12); // 4 KiB QD8 / QD1
    let ratio_at = |qd_idx: usize| small[qd_idx].1 / small[qd_idx].0.max(1e-12);
    let (r_qd1, r_qd8, r_qd32) = (ratio_at(0), ratio_at(3), ratio_at(5));
    println!("  host 4 KiB QD8/QD1: {qd_scaling:.2}x");
    println!("  dpu small-I/O ratio: qd1 {r_qd1:.3}, qd8 {r_qd8:.3}, qd32 {r_qd32:.3}");
}
