//! **Ablation X3**: prints the `ros2_fio::figures::ablation` eager/
//! rendezvous sweep — one-way latency per message size and threshold — and
//! its claims.

use ros2_bench::{print_claims, print_table};
use ros2_fio::figures::ablation::{one_way_us, rendezvous_claims, SIZES, THRESHOLDS};

fn main() {
    let header: Vec<String> = std::iter::once("message size".to_string())
        .chain(THRESHOLDS.iter().map(|&t| match t {
            0 => "rndv always".into(),
            u64::MAX => "eager always".into(),
            t => format!("thresh {}K", t >> 10),
        }))
        .collect();
    let rows: Vec<Vec<String>> = SIZES
        .iter()
        .map(|&msg| {
            let size = if msg >= 1 << 20 {
                format!("{} MiB", msg >> 20)
            } else if msg >= 1 << 10 {
                format!("{} KiB", msg >> 10)
            } else {
                format!("{msg} B")
            };
            std::iter::once(size)
                .chain(
                    THRESHOLDS
                        .iter()
                        .map(|&t| format!("{:8.2}", one_way_us(t, msg))),
                )
                .collect()
        })
        .collect();
    print_table(
        "Ablation: eager/rendezvous threshold — one-way message latency (us)",
        &header,
        &rows,
    );
    print_claims("Ablation X3 claims", &rendezvous_claims(one_way_us));
}
