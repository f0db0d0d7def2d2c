//! # ros2-bench — harnesses that regenerate every table and figure
//!
//! One binary per paper artifact (see `DESIGN.md` §3 for the index):
//!
//! | binary | artifact | cells and claims |
//! |---|---|---|
//! | `table1_gpu` | Table 1 + the §2.1 ingest model | `ros2_hw::{TABLE1, IngestModel}` |
//! | `fig3_local_fio` | Fig. 3 local io_uring baselines | `ros2_fio::figures::fig3` |
//! | `fig4_remote_spdk` | Fig. 4 remote SPDK heatmaps | `ros2_fio::figures::fig4` |
//! | `fig5_dfs` | Fig. 5 end-to-end DFS, host vs DPU | `ros2_fio::figures::fig5` |
//! | `ablation_rendezvous` | §3.2 eager/rendezvous threshold | `ros2_fio::figures::ablation` |
//! | `ablation_isolation` | §2.3/§5 tenancy & inline-crypto overhead | `ros2_fio::figures::ablation` |
//! | `ablation_gpudirect` | §3.5 DPU-DRAM staging vs GPUDirect | `ros2_fio::figures::ablation` |
//! | `fig_scaleout` | §3.1 1→8-engine scale-out + RF=2 kill/rebuild | `ros2_fio::figures::scaleout` |
//! | `fig_qd` | op-ring queue-depth sweep, host vs offloaded | `ros2_fio::figures::qd` |
//! | `fig_chaos` | engine kill under QD32 with delayed RAS | `ros2_fio::figures::chaos` |
//! | `fig_recovery` | paced rebuild, scrub repair, kill + bit-rot | `ros2_fio::figures::recovery` |
//! | `fig_incast` | 1→256 clients on one cluster, pool and RAS push | `ros2_fio::figures::incast` |
//! | `fig_cache` | DPU read cache: A/B ratios and the carve sweep | `ros2_fio::figures::cache` |
//!
//! The binaries only print: every cell they show is a function in
//! `ros2_fio::figures`, and the tier-1 test DESIGN.md §3 names asserts the
//! same cell. The paper's own figures and the ablations also print their
//! claims (`model | band | in band?`), the bands their tests assert. Sweep
//! points are independent deterministic simulations; `fig3`–`fig5` run
//! theirs in parallel with rayon, the rest run serially.

#![warn(missing_docs)]

use rayon::prelude::*;
use ros2_fio::figures::{show, Check};

/// Runs `cell` on every point in parallel and returns a lookup into the
/// results.
pub fn sweep<P>(points: Vec<P>, cell: fn(P) -> f64) -> impl Fn(P) -> f64
where
    P: Copy + PartialEq + Send + Sync,
{
    let values: Vec<f64> = points.par_iter().map(|&p| cell(p)).collect();
    move |p| values[points.iter().position(|&q| q == p).expect("a swept point")]
}

/// Formats a Fig. 3–5 cell: GiB/s at 1 MiB blocks, K IOPS at 4 KiB.
pub fn rate(value: f64, bs: u64) -> String {
    if bs >= 1 << 20 {
        format!("{value:6.2}")
    } else {
        format!("{value:6.0}")
    }
}

/// Prints a Markdown-ish table: header row, then rows of cells.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    println!("\n### {title}");
    println!("| {} |", header.join(" | "));
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Prints valued claims as `claim | model | band | in band?`, then how
/// many lie in their band and how many outside the paper's own numbers
/// (the known deviations of DESIGN.md §8).
pub fn print_claims(title: &str, checks: &[Check]) {
    let header = ["claim", "model", "band", "in band?"].map(String::from);
    let (mut held, mut deviations) = (0, 0);
    let rows: Vec<Vec<String>> = checks
        .iter()
        .map(|&(claim, model)| {
            let in_band = claim.band.contains(&model);
            held += usize::from(in_band);
            let mut verdict = if in_band { "yes" } else { "NO" }.to_string();
            if let Some(paper) = claim.paper.as_ref().filter(|p| !p.contains(&model)) {
                deviations += 1;
                verdict += &format!(", out of paper band {}", show(paper));
            }
            let what = claim.what.to_string();
            vec![what, format!("{model:.3}"), show(&claim.band), verdict]
        })
        .collect();
    print_table(title, &header, &rows);
    print!("\n{held}/{} claims in band", checks.len());
    if deviations > 0 {
        print!("; {deviations} outside the paper's own numbers (DESIGN.md §8)");
    }
    println!();
}
