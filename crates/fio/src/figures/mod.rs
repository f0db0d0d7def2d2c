//! The extension figures' cells, each defined once.
//!
//! One submodule per `fig_*` binary of `ros2_bench`, holding that figure's
//! constants, specs, worlds and cell functions. A cell runs its worlds and
//! returns a plain struct carrying every number the binary prints and the
//! tier-1 test DESIGN.md §3 names for it asserts; nothing here prints or
//! asserts. `chaos` and `recovery` share one read spec, world pair and
//! kill plan (in [`chaos`]); `qd` and `cache` share one one-job cell.

pub mod cache;
pub mod chaos;
pub mod incast;
pub mod qd;
pub mod recovery;
pub mod scaleout;

use ros2_dpu::{DpuCacheStats, DpuTenantSpec};
use ros2_hw::ClientPlacement;

use crate::{FioReport, WorldSpec};

/// One FIO run's headline numbers.
#[derive(Clone, Debug)]
pub struct JobCell {
    /// Measured throughput.
    pub gib_s: f64,
    /// Ops that failed.
    pub failed: u64,
    /// Read-cache counters over the world's clients (all zero with the
    /// cache off).
    pub cache: DpuCacheStats,
}

impl JobCell {
    fn new(report: &FioReport, cache: DpuCacheStats) -> Self {
        JobCell {
            gib_s: report.gib_per_sec(),
            failed: report.io.errors.get(),
            cache,
        }
    }
}

/// The two-node world with its client on the host CPU.
pub(crate) fn host() -> WorldSpec {
    WorldSpec::single(ClientPlacement::Host)
}

/// The two-node world with the real offloaded client, one unlimited
/// tenant.
pub(crate) fn offloaded() -> WorldSpec {
    WorldSpec::single(ClientPlacement::Dpu).offload(vec![DpuTenantSpec::unlimited("fio")])
}
