//! # ros2-bench — harnesses that regenerate every table and figure
//!
//! One binary per paper artifact (see `DESIGN.md` §3 for the index):
//!
//! | binary | artifact |
//! |---|---|
//! | `table1_gpu` | Table 1 + the §2.1 ingest model |
//! | `fig3_local_fio` | Fig. 3 local io_uring baselines |
//! | `fig4_remote_spdk` | Fig. 4 remote SPDK heatmaps |
//! | `fig5_dfs` | Fig. 5 end-to-end DFS, host vs DPU |
//! | `ablation_rendezvous` | §3.2 eager/rendezvous threshold |
//! | `ablation_isolation` | §2.3/§5 tenancy & inline-crypto overhead |
//! | `ablation_gpudirect` | §3.5 DPU-DRAM staging vs GPUDirect |
//! | `fig_scaleout` | §3.1 1→8-engine scale-out + RF=2 kill/rebuild |
//! | `fig_qd` | op-ring queue-depth sweep, host vs offloaded |
//! | `fig_chaos` | engine kill under QD32 with delayed RAS |
//! | `fig_recovery` | paced rebuild, scrub repair, kill + bit-rot |
//! | `fig_incast` | 1→256 clients on one cluster, pool and RAS push |
//! | `fig_cache` | DPU read cache: A/B ratios and the carve sweep |
//!
//! The binaries print tables; the shapes they show are asserted by the
//! tier-1 tests DESIGN.md §3 names. The six `fig_*` extension binaries
//! only format cells that `ros2_fio::figures` defines, and their tests
//! assert the same cells. Sweep points are independent deterministic
//! simulations; `fig3`–`fig5` run theirs in parallel with rayon (each
//! point builds its own world), the rest run serially.

#![warn(missing_docs)]

use ros2_fio::{FioReport, JobSpec, RwMode};
use ros2_sim::SimDuration;

/// Standard measurement windows used by all harnesses (ramp, runtime).
pub fn windows() -> (SimDuration, SimDuration) {
    (SimDuration::from_millis(100), SimDuration::from_millis(300))
}

/// The job-count axis of Fig. 3 and the core axis of Fig. 4.
pub const SWEEP: [usize; 5] = [1, 2, 4, 8, 16];

/// Builds a figure-standard spec.
pub fn spec(rw: RwMode, bs: u64, jobs: usize, region: u64) -> JobSpec {
    let (ramp, runtime) = windows();
    JobSpec::new(rw, bs, jobs)
        .region(region)
        .windows(ramp, runtime)
}

/// Formats a bandwidth cell.
pub fn gib(r: &FioReport) -> String {
    format!("{:6.2}", r.gib_per_sec())
}

/// Formats a kIOPS cell.
pub fn kiops(r: &FioReport) -> String {
    format!("{:6.0}", r.kiops())
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_matches_paper_axes() {
        assert_eq!(SWEEP, [1, 2, 4, 8, 16]);
    }

    #[test]
    fn spec_builder_applies_windows() {
        let s = spec(RwMode::Read, 4096, 4, 1 << 30);
        assert_eq!(s.ramp, windows().0);
        assert_eq!(s.runtime, windows().1);
        assert_eq!(s.numjobs, 4);
    }
}
