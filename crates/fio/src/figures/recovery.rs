//! Recovery (`fig_recovery`): the self-healing services on the chaos
//! figure's cluster — a rebuild after a kill under QD 32 reads, unpaced and
//! through an 8 MiB/s lane; scrub repair of three scheduled rots under QD 8
//! writes, aggregation, and a clean pass that scans no payload byte
//! (recorded chunk checksums compared with the media stores' cached chunk
//! CRCs); and kill plus rot healed in order, scrub before rebuild, run
//! pipelined or as serial calls. DESIGN.md §13 describes the services;
//! `crates/fio/tests/fault_plan.rs` asserts the cells.

use ros2_core::{FaultPlan, ScheduledCorruption};
use ros2_daos::{BgService, RebuildStats, ScrubOutcome};
use ros2_sim::{QosLimits, SimDuration, SimTime};

use super::chaos::{self, host_world, kill_plan, JOBS, REGION, VICTIM};
use super::JobCell;
use crate::{run_fio, DfsFioWorld, JobSpec, RwMode};

/// The paced rebuild lane: 8 MiB/s with a one-second burst — far below
/// the fabric rate, so the lane (not the wire) sets the restore time.
pub const REBUILD_BUDGET: u64 = 8 << 20;

/// QD8 random writes for the scrub cells: writes never fetch-verify, so
/// scheduled rot stays silent until the scrub service looks for it.
fn write_spec() -> JobSpec {
    JobSpec::new(RwMode::RandWrite, 1 << 20, JOBS)
        .iodepth(2)
        .region(REGION)
        .windows(SimDuration::from_millis(2), SimDuration::from_millis(30))
        .seed(11)
}

/// The chaos host world with three silent corruptions scheduled across
/// the next run — all on slot 0, which stays up in every cell, and three
/// different stored objects — and engine [`VICTIM`]'s kill if `kill`.
fn rotting_world(kill: bool) -> DfsFioWorld {
    let mut w = host_world();
    let base = w.client.ops();
    let mut plan = if kill {
        kill_plan(&w, VICTIM)
    } else {
        FaultPlan::none()
    };
    plan.bitrot = (0..3)
        .map(|i| ScheduledCorruption {
            after_client_ops: base + 16 + 16 * i,
            slot: 0,
            object_index: i as usize,
        })
        .collect();
    w.set_fault_plan(plan);
    w
}

/// One scrub pass from `at`.
fn scrub(w: &mut DfsFioWorld, at: SimTime) -> (ScrubOutcome, SimTime) {
    w.cluster.scrub(&mut w.fabric, at).expect("scrub pass runs")
}

fn pace_rebuild(w: &mut DfsFioWorld) {
    w.cluster
        .set_service_budget(BgService::Rebuild, QosLimits::bytes_per_sec(REBUILD_BUDGET));
}

/// The chaos read spec with no fault plan.
pub fn baseline() -> JobCell {
    let mut w = host_world();
    let r = run_fio(&mut w, &chaos::spec(RwMode::RandRead));
    JobCell::new(&r, w.client.cache_stats())
}

/// The recovery-under-load cell.
#[derive(Copy, Clone, Debug)]
pub struct RecoveryCell {
    /// Foreground throughput through the kill.
    pub gib_s: f64,
    /// Foreground ops that failed.
    pub failed: u64,
    /// How long the rebuild, started at t = 0, took to restore RF.
    pub restore: SimDuration,
    /// Delay the rebuild lane imposed.
    pub throttled: SimDuration,
    /// What the rebuild moved.
    pub rebuild: RebuildStats,
}

/// The chaos read spec with engine [`VICTIM`] killed mid-run, then the
/// rebuild — through the [`REBUILD_BUDGET`] lane if `paced`.
pub fn recovery_cell(paced: bool) -> RecoveryCell {
    let mut w = host_world();
    w.set_fault_plan(kill_plan(&w, VICTIM));
    if paced {
        pace_rebuild(&mut w);
    }
    let report = run_fio(&mut w, &chaos::spec(RwMode::RandRead));
    let restored_at = w.rebuild(SimTime::ZERO).expect("rebuild completes");
    RecoveryCell {
        gib_s: report.gib_per_sec(),
        failed: report.io.errors.get(),
        restore: restored_at.saturating_since(SimTime::ZERO),
        throttled: w.cluster.scrub_stats().rebuild_throttle_wait,
        rebuild: w.cluster.rebuild_stats(),
    }
}

/// The scrub-repair cell.
#[derive(Copy, Clone, Debug)]
pub struct ScrubCell {
    /// Foreground write throughput.
    pub gib_s: f64,
    /// Foreground ops that failed.
    pub failed: u64,
    /// The repairing pass.
    pub first: ScrubOutcome,
    /// The epoch boundary aggregation ran at.
    pub boundary: u64,
    /// The pass over the healed cluster.
    pub clean: ScrubOutcome,
    /// Payload bytes the repairs restreamed.
    pub repair_bytes: u64,
    /// Chunks the clean pass compared.
    pub clean_chunks: u64,
    /// Payload bytes the clean pass scanned.
    pub clean_scanned: u64,
}

/// Three rots under QD8 writes; a repairing scrub pass, aggregation at the
/// cluster-safe boundary, and a scrub pass over the healed cluster.
pub fn scrub_cell() -> ScrubCell {
    let mut w = rotting_world(false);
    let report = run_fio(&mut w, &write_spec());
    let (first, t) = scrub(&mut w, SimTime::ZERO);
    let (boundary, t) = w
        .cluster
        .aggregate_cluster(t, "posix", None)
        .expect("aggregation runs");
    let before = w.cluster.scrub_stats();
    let (clean, _) = scrub(&mut w, t);
    let after = w.cluster.scrub_stats();
    ScrubCell {
        gib_s: report.gib_per_sec(),
        failed: report.io.errors.get(),
        first,
        boundary: boundary.0,
        clean,
        repair_bytes: after.repair_bytes,
        clean_chunks: after.chunks_compared - before.chunks_compared,
        clean_scanned: after.scanned_bytes - before.scanned_bytes,
    }
}

/// The acceptance cell.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct AcceptCell {
    /// Foreground write throughput.
    pub gib_s: f64,
    /// Foreground ops that failed.
    pub failed: u64,
    /// The first scrub pass, over the survivors.
    pub first: ScrubOutcome,
    /// When that pass finished and the rebuild started.
    pub scrubbed_at: SimTime,
    /// How long the paced rebuild took to restore RF.
    pub restore: SimDuration,
    /// The final scrub pass.
    pub clean: ScrubOutcome,
}

/// Kill + bit-rot under QD8 writes, healed in self-healing order: scrub
/// the survivors, then the paced rebuild, then a verifying scrub pass.
/// Runs pipelined or as serial calls.
pub fn accept_cell(pipelined: bool) -> AcceptCell {
    let mut w = rotting_world(true);
    w.set_pipelined(pipelined);
    pace_rebuild(&mut w);
    let report = run_fio(&mut w, &write_spec());
    let (first, scrubbed_at) = scrub(&mut w, SimTime::ZERO);
    let restored_at = w.rebuild(scrubbed_at).expect("rebuild completes");
    let (clean, _) = scrub(&mut w, restored_at);
    AcceptCell {
        gib_s: report.gib_per_sec(),
        failed: report.io.errors.get(),
        first,
        scrubbed_at,
        restore: restored_at.saturating_since(scrubbed_at),
        clean,
    }
}
