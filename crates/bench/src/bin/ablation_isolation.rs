//! **Ablation X2**: prints the `ros2_fio::figures::ablation` isolation
//! arms — the data-path price of QoS and inline crypto on the DPU — and
//! their claims.

use ros2_bench::{print_claims, print_table};
use ros2_fio::figures::ablation::{isolation, isolation_claims, ISOLATION_ARMS};

fn main() {
    let arms = ISOLATION_ARMS.map(|(_, service, cap)| isolation(service, cap));
    let base = arms[0].mean_latency_us;
    let header = [
        "configuration",
        "mean write latency (us)",
        "effective BW (GiB/s)",
    ]
    .map(String::from);
    let rows: Vec<Vec<String>> = ISOLATION_ARMS
        .iter()
        .zip(&arms)
        .map(|((label, _, _), arm)| {
            let lat = arm.mean_latency_us;
            vec![
                label.to_string(),
                format!(
                    "{lat:8.1}  ({:+.2}% vs baseline)",
                    (lat / base - 1.0) * 100.0
                ),
                format!("{:6.2}", arm.gib_s),
            ]
        })
        .collect();
    print_table(
        "Ablation: DPU isolation & inline-service overhead (sequential writes, DPU client, RDMA, 4 SSDs)",
        &header,
        &rows,
    );
    print_claims("Ablation X2 claims", &isolation_claims(&arms));
}
