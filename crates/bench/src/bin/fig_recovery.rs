//! Recovery figure (PR 8): the self-healing background services —
//! QoS-paced rebuild, epoch aggregation, and replica scrub with bit-rot
//! repair — measured through the closed-loop FIO driver.
//!
//! Cells, all virtual-time deterministic (asserted by
//! `crates/fio/tests/fault_plan.rs`):
//!
//! * **recovery-under-load** — 4 engines RF 2, QD32 random reads; engine
//!   1 dies mid-run with the RAS event a millisecond late: zero failed
//!   foreground ops, foreground throughput at least half the no-fault
//!   baseline, and RF restored by the rebuild both unpaced and through an
//!   8 MiB/s rebuild lane — the paced pass finishes later and banks
//!   throttle wait, never changes what moves;
//! * **scrub-repair** — QD8 random writes with three bit-rot corruptions
//!   scheduled mid-workload by the fault plan. An epoch aggregation at
//!   the cluster-safe boundary, then a scrub pass: every mismatch found
//!   is repaired from a healthy replica, and the follow-up pass over the
//!   healed cluster is clean **without scanning a single payload byte**
//!   (recorded checksums folded against cached chunk CRCs);
//! * **acceptance** — kill *and* scheduled bit-rot under QD8 writes:
//!   scrub repairs every mismatch among the survivors first (so the
//!   rebuild never streams from a rotten source), the paced rebuild
//!   restores RF, a final scrub pass is clean, zero foreground ops fail,
//!   and the whole cell replays bit-identically — pipelined and as
//!   serial calls.

use ros2_core::{FaultPlan, ScheduledCorruption};
use ros2_daos::BgService;
use ros2_fio::{run_fio, DfsFioWorld, FioReport, JobSpec, RwMode, WorldSpec};
use ros2_sim::{QosLimits, SimDuration, SimTime};

const ENGINES: usize = 4;
const RF: usize = 2;
const JOBS: usize = 4;
const REGION: u64 = 8 << 20;
const VICTIM: usize = 1;
const KILL_AFTER_OPS: u64 = 64;
const RAS_DELAY: SimDuration = SimDuration::from_millis(1);
/// The paced rebuild lane: 8 MiB/s with a one-second burst — far below
/// the fabric rate, so the lane (not the wire) sets the restore time.
const REBUILD_BUDGET: u64 = 8 << 20;

/// QD32 random reads (the PR 7 chaos shape) for the recovery cell.
fn read_spec() -> JobSpec {
    JobSpec::new(RwMode::RandRead, 4 << 20, JOBS)
        .iodepth(8)
        .region(REGION)
        .windows(SimDuration::from_millis(2), SimDuration::from_millis(30))
        .seed(7)
}

/// QD8 random writes for the scrub cells: writes never fetch-verify, so
/// scheduled rot stays silent until the scrub service looks for it.
fn write_spec() -> JobSpec {
    JobSpec::new(RwMode::RandWrite, 1 << 20, JOBS)
        .iodepth(2)
        .region(REGION)
        .windows(SimDuration::from_millis(2), SimDuration::from_millis(30))
        .seed(11)
}

fn world() -> DfsFioWorld {
    let mut w = WorldSpec::cluster(ENGINES)
        .replication(RF)
        .jobs(JOBS)
        .region(REGION)
        .build_dfs();
    w.set_pipelined(true);
    w
}

fn kill_plan(w: &DfsFioWorld) -> FaultPlan {
    FaultPlan::kill_after(VICTIM, w.client.ops() + KILL_AFTER_OPS, RAS_DELAY)
}

/// Three silent corruptions across the run, all on slot 0 (which stays
/// up in every cell), hitting three different stored objects.
fn rot_entries(base_ops: u64) -> Vec<ScheduledCorruption> {
    (0..3)
        .map(|i| ScheduledCorruption {
            after_client_ops: base_ops + 16 + 16 * i,
            slot: 0,
            object_index: i as usize,
        })
        .collect()
}

// ------------------------------------------------------ recovery cell --

struct RecoveryCell {
    gib_s: f64,
    restore_ms: u64,
    throttle_ms: u64,
    objects_moved: u64,
    bytes_moved: u64,
}

fn run_recovery(paced: bool) -> RecoveryCell {
    let mut w = world();
    w.set_fault_plan(kill_plan(&w));
    if paced {
        w.cluster
            .set_service_budget(BgService::Rebuild, QosLimits::bytes_per_sec(REBUILD_BUDGET));
    }
    let report: FioReport = run_fio(&mut w, &read_spec());
    let done = w.rebuild(SimTime::ZERO).expect("rebuild completes");
    let stats = w.cluster.rebuild_stats();
    RecoveryCell {
        gib_s: report.gib_per_sec(),
        restore_ms: done.as_nanos() / 1_000_000,
        throttle_ms: w.cluster.scrub_stats().rebuild_throttle_wait.as_nanos() / 1_000_000,
        objects_moved: stats.objects_moved,
        bytes_moved: stats.bytes_moved,
    }
}

// --------------------------------------------------------- scrub cell --

struct ScrubCell {
    agg_boundary: u64,
    found: u64,
    repaired: u64,
    repair_bytes: u64,
    clean_scanned: u64,
    clean_chunks: u64,
}

fn run_scrub() -> ScrubCell {
    let mut w = world();
    let mut plan = FaultPlan::none();
    plan.bitrot = rot_entries(w.client.ops());
    w.set_fault_plan(plan);
    run_fio(&mut w, &write_spec());

    let (first, t) = w
        .cluster
        .scrub(&mut w.fabric, SimTime::ZERO)
        .expect("scrub pass runs");
    let (boundary, t) = w
        .cluster
        .aggregate_cluster(t, "posix", None)
        .expect("aggregation runs");
    let before = w.cluster.scrub_stats();
    w.cluster.scrub(&mut w.fabric, t).expect("clean pass runs");
    let after = w.cluster.scrub_stats();
    ScrubCell {
        agg_boundary: boundary.0,
        found: first.mismatches_found,
        repaired: first.mismatches_repaired,
        repair_bytes: after.repair_bytes,
        clean_scanned: after.scanned_bytes - before.scanned_bytes,
        clean_chunks: after.chunks_compared - before.chunks_compared,
    }
}

// ---------------------------------------------------- acceptance cell --

struct AcceptCell {
    gib_s: f64,
    found: u64,
    repaired: u64,
    restore_ms: u64,
}

/// Kill + bit-rot under QD8 writes, healed in self-healing order:
/// scrub the survivors, then the paced rebuild, then a verifying pass.
fn run_accept() -> AcceptCell {
    let mut w = world();
    let base = w.client.ops();
    let mut plan = FaultPlan::kill_after(VICTIM, base + KILL_AFTER_OPS, RAS_DELAY);
    plan.bitrot = rot_entries(base);
    w.set_fault_plan(plan);
    w.cluster
        .set_service_budget(BgService::Rebuild, QosLimits::bytes_per_sec(REBUILD_BUDGET));
    let report: FioReport = run_fio(&mut w, &write_spec());

    let (first, t) = w
        .cluster
        .scrub(&mut w.fabric, SimTime::ZERO)
        .expect("scrub pass runs");
    let done = w.rebuild(t).expect("rebuild completes");
    AcceptCell {
        gib_s: report.gib_per_sec(),
        found: first.mismatches_found,
        repaired: first.mismatches_repaired,
        restore_ms: done.saturating_since(t).as_nanos() / 1_000_000,
    }
}

fn main() {
    println!(
        "recovery cells: {ENGINES} engines RF {RF}, kill slot {VICTIM} after \
         {KILL_AFTER_OPS} ops, rebuild lane {} MiB/s",
        REBUILD_BUDGET >> 20
    );

    // The read spec with no faults.
    let baseline = run_fio(&mut world(), &read_spec()).gib_per_sec();
    println!("  baseline: {baseline:.2} GiB/s");

    let unpaced = run_recovery(false);
    let paced = run_recovery(true);
    println!(
        "  recovery: {:.2} GiB/s foreground, {} objects / {} bytes moved, \
         RF restored in {} ms unpaced / {} ms paced ({} ms throttled)",
        paced.gib_s,
        paced.objects_moved,
        paced.bytes_moved,
        unpaced.restore_ms,
        paced.restore_ms,
        paced.throttle_ms
    );

    let scrub = run_scrub();
    println!(
        "  scrub: boundary {} aggregated, {} mismatches found, {} repaired \
         ({} bytes restreamed); clean pass compared {} chunks, scanned {} \
         payload bytes",
        scrub.agg_boundary,
        scrub.found,
        scrub.repaired,
        scrub.repair_bytes,
        scrub.clean_chunks,
        scrub.clean_scanned
    );

    let accept = run_accept();
    println!(
        "  acceptance: {:.2} GiB/s foreground, {} found = {} repaired, RF \
         restored in {} ms, replays bit-identical (pipelined + serial)",
        accept.gib_s, accept.found, accept.repaired, accept.restore_ms
    );
}
