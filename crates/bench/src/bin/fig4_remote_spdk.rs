//! **Figure 4**: prints the `ros2_fio::figures::fig4` cells — one heatmap
//! per transport, block size and access pattern, rows client cores,
//! columns server cores — and claims.

use ros2_bench::{print_claims, print_table, rate, sweep};
use ros2_fio::figures::fig4::{cell, claims, CORES};
use ros2_fio::RwMode;
use ros2_hw::Transport;

const MAPS: [(&str, Transport, u64, &str); 4] = [
    (
        "4a: throughput (1 MiB), TCP",
        Transport::Tcp,
        1 << 20,
        "GiB/s",
    ),
    (
        "4b: throughput (1 MiB), RDMA",
        Transport::Rdma,
        1 << 20,
        "GiB/s",
    ),
    ("4c: IOPS (4 KiB), TCP", Transport::Tcp, 4096, "K IOPS"),
    ("4d: IOPS (4 KiB), RDMA", Transport::Rdma, 4096, "K IOPS"),
];

fn main() {
    let points = MAPS.iter().flat_map(|&(_, t, bs, _)| {
        RwMode::ALL.into_iter().flat_map(move |rw| {
            CORES
                .into_iter()
                .flat_map(move |c| CORES.map(|s| (t, rw, bs, c, s)))
        })
    });
    let at = sweep(points.collect(), cell);
    let header: Vec<String> = std::iter::once(String::new())
        .chain(CORES.iter().map(|s| format!("{s} srv cores")))
        .collect();
    for (fig, t, bs, unit) in MAPS {
        for rw in RwMode::ALL {
            let rows: Vec<Vec<String>> = CORES
                .iter()
                .map(|&c| {
                    std::iter::once(format!("{c} client cores"))
                        .chain(CORES.iter().map(|&s| rate(at((t, rw, bs, c, s)), bs)))
                        .collect()
                })
                .collect();
            print_table(
                &format!("Fig. {fig} — {} ({unit})", rw.label()),
                &header,
                &rows,
            );
        }
    }
    print_claims("Fig. 4 claims", &claims(&at));
}
