//! DPU read-cache figure: prints the `ros2_fio::figures::cache`
//! cells.

use ros2_fio::figures::cache::{
    ab_cell, sweep_cell, AB_POINTS, BS, CARVE, REGION, SWEEP_CARVES, SWEEP_CLIENTS,
};

fn main() {
    println!("DPU read-cache A/B: {BS} B RandRead, region {REGION} B, carve {CARVE} B");

    for (qd, pipelined) in AB_POINTS {
        let label = if pipelined {
            format!("qd{qd}")
        } else {
            "serial".into()
        };
        let ab = ab_cell(qd, pipelined);
        let (host, cold, warm) = (ab.host.gib_s, ab.cold.gib_s, ab.warm.gib_s);
        let (cold_ratio, warm_ratio) = (cold / host.max(1e-12), warm / host.max(1e-12));
        let warm_hr = ab.warm.cache.hit_rate();
        println!(
            "  {label:>6}: host {:>8.1} MiB/s  cold {:>8.1} ({cold_ratio:.3}x)  \
             warm {:>8.1} ({warm_ratio:.3}x, hit rate {warm_hr:.3})",
            host * 1024.0,
            cold * 1024.0,
            warm * 1024.0,
        );
    }

    println!("incast sweep: clients {SWEEP_CLIENTS:?} x carve {SWEEP_CARVES:?} B");
    for &clients in &SWEEP_CLIENTS {
        for &carve in &SWEEP_CARVES {
            let c = sweep_cell(clients, carve);
            println!(
                "  clients={clients} carve={carve:>9}  {:>8.1} MiB/s  \
                 hit rate {:.3}  hits {:>6}  evictions {:>5}",
                c.gib_s * 1024.0,
                c.cache.hit_rate(),
                c.cache.hits,
                c.cache.evictions
            );
        }
    }
}
