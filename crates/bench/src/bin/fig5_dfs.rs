//! **Figure 5**: prints the `ros2_fio::figures::fig5` cells and claims.
//! Row labels follow the paper: R = read, W = write, RR = random read,
//! RW = random write.

use ros2_bench::{print_claims, print_table, rate, sweep};
use ros2_fio::figures::fig5::{cell, claims, SSDS};
use ros2_fio::RwMode;
use ros2_hw::{ClientPlacement, Transport};

const TABLES: [(&str, Transport, u64); 4] = [
    (
        "5a: DFS TCP 1M — throughput (GiB/s)",
        Transport::Tcp,
        1 << 20,
    ),
    (
        "5b: DFS RDMA 1M — throughput (GiB/s)",
        Transport::Rdma,
        1 << 20,
    ),
    ("5c: DFS TCP 4K — IOPS (K)", Transport::Tcp, 4096),
    ("5d: DFS RDMA 4K — IOPS (K)", Transport::Rdma, 4096),
];
const PLACEMENTS: [(&str, ClientPlacement); 2] = [
    ("CPU", ClientPlacement::Host),
    ("DPU", ClientPlacement::Dpu),
];

fn main() {
    let points = TABLES.iter().flat_map(|&(_, t, bs)| {
        PLACEMENTS.into_iter().flat_map(move |(_, p)| {
            RwMode::ALL
                .into_iter()
                .flat_map(move |rw| SSDS.map(|ssds| (t, p, ssds, rw, bs)))
        })
    });
    let at = sweep(points.collect(), cell);
    let header = ["client / workload", "1 SSD", "4 SSDs"].map(String::from);
    for (title, t, bs) in TABLES {
        let rows: Vec<Vec<String>> = PLACEMENTS
            .iter()
            .flat_map(|&(label, p)| {
                RwMode::ALL.map(|rw| {
                    std::iter::once(format!("{label} {}", rw.short()))
                        .chain(SSDS.iter().map(|&ssds| rate(at((t, p, ssds, rw, bs)), bs)))
                        .collect()
                })
            })
            .collect();
        print_table(&format!("Fig. {title}"), &header, &rows);
    }
    print_claims("Fig. 5 claims", &claims(&at));
}
