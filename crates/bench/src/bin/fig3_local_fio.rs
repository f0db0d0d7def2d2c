//! **Figure 3**: prints the `ros2_fio::figures::fig3` cells and claims.

use ros2_bench::{print_claims, print_table, rate, sweep};
use ros2_fio::figures::fig3::{cell, claims, JOBS};
use ros2_fio::RwMode;

const TABLES: [(&str, usize, u64); 4] = [
    (
        "3a: local throughput, bs=1 MiB, 1 NVMe SSD (GiB/s)",
        1,
        1 << 20,
    ),
    ("3b: local IOPS, bs=4 KiB, 1 NVMe SSD (K IOPS)", 1, 4096),
    (
        "3c: local throughput, bs=1 MiB, 4 NVMe SSDs (GiB/s)",
        4,
        1 << 20,
    ),
    ("3d: local IOPS, bs=4 KiB, 4 NVMe SSDs (K IOPS)", 4, 4096),
];

fn main() {
    let points = TABLES.iter().flat_map(|&(_, ssds, bs)| {
        RwMode::ALL
            .into_iter()
            .flat_map(move |rw| JOBS.map(|jobs| (ssds, rw, bs, jobs)))
    });
    let at = sweep(points.collect(), cell);
    let header: Vec<String> = std::iter::once("workload".to_string())
        .chain(JOBS.iter().map(|j| format!("{j} jobs")))
        .collect();
    for (title, ssds, bs) in TABLES {
        let rows: Vec<Vec<String>> = RwMode::ALL
            .iter()
            .map(|&rw| {
                std::iter::once(rw.label().to_string())
                    .chain(JOBS.iter().map(|&jobs| rate(at((ssds, rw, bs, jobs)), bs)))
                    .collect()
            })
            .collect();
        print_table(&format!("Fig. {title}"), &header, &rows);
    }
    print_claims("Fig. 3 claims", &claims(&at));
}
