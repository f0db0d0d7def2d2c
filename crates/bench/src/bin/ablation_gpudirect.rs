//! **Ablation X1**: prints the `ros2_fio::figures::ablation` GPUDirect
//! arms — DPU-DRAM staging vs RDMA straight into GPU HBM — and their
//! claims.

use ros2_bench::{print_claims, print_table};
use ros2_fio::figures::ablation::{gpudirect, gpudirect_claims, GPUDIRECT_ARMS};

fn main() {
    let arms = GPUDIRECT_ARMS.map(|(_, domain)| gpudirect(domain));
    let header = [
        "data sink",
        "batch-read BW (GiB/s)",
        "mean read latency (us)",
    ]
    .map(String::from);
    let rows: Vec<Vec<String>> = GPUDIRECT_ARMS
        .iter()
        .zip(&arms)
        .map(|((label, _), arm)| {
            vec![
                label.to_string(),
                format!("{:6.2}", arm.gib_s),
                format!("{:8.1}", arm.mean_latency_us),
            ]
        })
        .collect();
    print_table(
        "Ablation: GPUDirect placement vs DPU-DRAM staging (1 MiB reads, RDMA, 4 SSDs)",
        &header,
        &rows,
    );
    print_claims("Ablation X1 claims", &gpudirect_claims(&arms));
}
