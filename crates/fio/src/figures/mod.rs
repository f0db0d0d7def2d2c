//! Every figure's cells, each defined once.
//!
//! One submodule per figure binary of `ros2_bench`, holding that figure's
//! constants, specs, worlds and cell functions. A cell runs its world and
//! returns a plain value or struct carrying every number the binary prints
//! and the tier-1 test DESIGN.md §3 names for it asserts; nothing here
//! prints or asserts. `chaos` and `recovery` share one read spec, world
//! pair and kill plan (in [`chaos`]); `qd` and `cache` share one one-job
//! cell.
//!
//! The paper's own artifacts — [`fig3`], [`fig4`], [`fig5`] and the three
//! [`ablation`]s — also state what they claim: each claim is a [`Claim`]
//! constant beside its cell, quoting the paper (or marked a model claim),
//! and a claim function values it on the figure's cells. The binary prints
//! the valued claims; `tests/figure_shapes.rs` asserts them. Fig. 3–5 run
//! under one window pair: a 100 ms ramp and a 300 ms measured window.

pub mod ablation;
pub mod cache;
pub mod chaos;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod incast;
pub mod qd;
pub mod recovery;
pub mod scaleout;

use std::ops::RangeInclusive;

use ros2_dpu::DpuCacheStats;
use ros2_hw::ClientPlacement;
use ros2_sim::SimDuration;

use crate::{FioReport, JobSpec, RwMode, WorldSpec};

/// Unmeasured warm-up of every Fig. 3–5 cell.
const RAMP: SimDuration = SimDuration::from_millis(100);
/// Measured window of every Fig. 3–5 cell.
const RUNTIME: SimDuration = SimDuration::from_millis(300);

/// A Fig. 3–5 job: `jobs` jobs of `rw` at `bs`, each over `region` bytes,
/// under [`RAMP`] and [`RUNTIME`].
fn paper_spec(rw: RwMode, bs: u64, jobs: usize, region: u64) -> JobSpec {
    JobSpec::new(rw, bs, jobs)
        .region(region)
        .windows(RAMP, RUNTIME)
}

/// A run's rate in the unit the paper's tables use: GiB/s for 1 MiB
/// blocks, K IOPS for 4 KiB.
fn paper_rate(report: &FioReport, bs: u64) -> f64 {
    if bs >= 1 << 20 {
        report.gib_per_sec()
    } else {
        report.kiops()
    }
}

/// What a paper figure or ablation claims about its cells: the band its
/// tier-1 test asserts the model's value in. The constant's doc comment
/// quotes the paper, or says "model claim" where the paper measured
/// nothing.
#[derive(Clone, Debug)]
pub struct Claim {
    /// The cell, ratio or difference claimed, with its unit.
    pub what: &'static str,
    /// The asserted band.
    pub band: RangeInclusive<f64>,
    /// The paper's own numbers where `band` is wider than them; a value
    /// outside them is a DESIGN.md §8 known deviation.
    pub paper: Option<RangeInclusive<f64>>,
}

impl Claim {
    /// `what` lies in `lo..=hi`.
    pub(crate) const fn new(what: &'static str, lo: f64, hi: f64) -> Self {
        Claim {
            what,
            band: lo..=hi,
            paper: None,
        }
    }

    /// `what` is at least `lo`.
    pub(crate) const fn at_least(what: &'static str, lo: f64) -> Self {
        Claim::new(what, lo, f64::INFINITY)
    }

    /// `what` is at most `hi`.
    pub(crate) const fn at_most(what: &'static str, hi: f64) -> Self {
        Claim::new(what, f64::NEG_INFINITY, hi)
    }

    /// The paper's own, narrower numbers: `lo..=hi`.
    pub(crate) const fn paper(self, lo: f64, hi: f64) -> Self {
        Claim {
            paper: Some(lo..=hi),
            ..self
        }
    }
}

/// A band as `lo–hi`, `≥ lo` or `≤ hi`.
pub fn show(band: &RangeInclusive<f64>) -> String {
    match (band.start().is_finite(), band.end().is_finite()) {
        (true, true) => format!("{}–{}", band.start(), band.end()),
        (true, false) => format!("≥ {}", band.start()),
        _ => format!("≤ {}", band.end()),
    }
}

/// A claim valued on the model.
pub type Check = (&'static Claim, f64);

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

/// The two-node world with the offloaded client, one unlimited tenant.
pub(crate) fn offloaded() -> WorldSpec {
    WorldSpec::single(ClientPlacement::Dpu)
}
