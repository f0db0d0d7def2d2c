//! A compact version of the paper's headline comparison: the same FIO
//! workload over every (transport × placement) cell, printing one table.
//! This is Fig. 5 condensed to its takeaways, on the 4-SSD cells of
//! `ros2_fio::figures::fig5`.
//!
//! Run with: `cargo run --release --example transport_comparison`

use rayon::prelude::*;
use ros2::fio::figures::fig5::cell;
use ros2::fio::RwMode;
use ros2::hw::{ClientPlacement, Transport};

fn main() {
    let cells: Vec<(Transport, ClientPlacement)> = [
        (Transport::Tcp, ClientPlacement::Host),
        (Transport::Tcp, ClientPlacement::Dpu),
        (Transport::Rdma, ClientPlacement::Host),
        (Transport::Rdma, ClientPlacement::Dpu),
    ]
    .into();

    let results: Vec<(String, f64, f64, f64)> = cells
        .par_iter()
        .map(|&(transport, placement)| {
            let run = |rw, bs| cell((transport, placement, 4, rw, bs));
            (
                format!("{:>4} / {:?}", transport.label(), placement),
                run(RwMode::Read, 1 << 20),
                run(RwMode::Write, 1 << 20),
                run(RwMode::RandRead, 4096),
            )
        })
        .collect();

    println!("ROS2 end-to-end (DFS, 4 SSDs, 16 jobs): who wins where?\n");
    println!(
        "{:<14} {:>14} {:>14} {:>16}",
        "config", "read 1M GiB/s", "write 1M GiB/s", "randread 4K kIOPS"
    );
    for (label, r, w, k) in &results {
        println!("{label:<14} {r:>14.2} {w:>14.2} {k:>16.0}");
    }

    let tcp_dpu_read = results[1].1;
    let rdma_dpu_read = results[3].1;
    println!(
        "\ntakeaways: offloading with TCP collapses reads ({tcp_dpu_read:.1} GiB/s — the DPU \
         receive-path bottleneck); offloading with RDMA is free ({rdma_dpu_read:.1} GiB/s, \
         host parity). RDMA-first is the practical foundation for SmartNIC-offloaded \
         object storage."
    );
}
