//! Recovery figure (PR 8): the self-healing background services —
//! QoS-paced rebuild, epoch aggregation, and replica scrub with bit-rot
//! repair — measured through the closed-loop FIO driver and recorded in
//! `BENCH_PR8.json`.
//!
//! Cells, all virtual-time deterministic:
//!
//! * **recovery-under-load** — 4 engines RF 2, QD32 random reads; engine
//!   1 dies mid-run with the RAS event a millisecond late. Gates: zero
//!   failed foreground ops, foreground throughput at or above the floor
//!   (half the no-fault baseline), and RF restored by the rebuild both
//!   unpaced and through an 8 MiB/s rebuild lane — the paced pass must
//!   finish later and bank throttle wait, never change what moves;
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
    failed: u64,
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
        failed: report.io.errors.get(),
        restore_ms: done.as_nanos() / 1_000_000,
        throttle_ms: w.cluster.scrub_stats().rebuild_throttle_wait.as_nanos() / 1_000_000,
        objects_moved: stats.objects_moved,
        bytes_moved: stats.bytes_moved,
    }
}

// --------------------------------------------------------- scrub cell --

struct ScrubCell {
    gib_s: f64,
    failed: u64,
    agg_boundary: u64,
    found: u64,
    repaired: u64,
    repair_bytes: u64,
    combine_bytes: u64,
    clean_scanned: u64,
    clean_chunks: u64,
}

fn run_scrub() -> ScrubCell {
    let mut w = world();
    let mut plan = FaultPlan::none();
    plan.bitrot = rot_entries(w.client.ops());
    w.set_fault_plan(plan);
    let report: FioReport = run_fio(&mut w, &write_spec());

    let (first, t) = w
        .cluster
        .scrub(&mut w.fabric, SimTime::ZERO)
        .expect("scrub pass runs");
    let (boundary, t) = w
        .cluster
        .aggregate_cluster(t, "posix", None)
        .expect("aggregation runs");
    let before = w.cluster.scrub_stats();
    let (second, _) = w.cluster.scrub(&mut w.fabric, t).expect("clean pass runs");
    let after = w.cluster.scrub_stats();
    assert_eq!(
        second.mismatches_found, 0,
        "the post-repair scrub pass must be clean"
    );
    ScrubCell {
        gib_s: report.gib_per_sec(),
        failed: report.io.errors.get(),
        agg_boundary: boundary.0,
        found: first.mismatches_found,
        repaired: first.mismatches_repaired,
        repair_bytes: after.repair_bytes,
        combine_bytes: after.combine_bytes,
        clean_scanned: after.scanned_bytes - before.scanned_bytes,
        clean_chunks: after.chunks_compared - before.chunks_compared,
    }
}

// ---------------------------------------------------- acceptance cell --

struct AcceptCell {
    gib_s: f64,
    failed: u64,
    found: u64,
    repaired: u64,
    second_found: u64,
    restore_ms: u64,
}

/// Kill + bit-rot under QD8 writes, healed in self-healing order:
/// scrub the survivors, then the paced rebuild, then a verifying pass.
fn run_accept(pipelined: bool) -> AcceptCell {
    let mut w = world();
    // QD 8 writes are single-chunk, so a non-pipelined world issues each
    // one as the serial call — the replay reference.
    w.set_pipelined(pipelined);
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
    let (second, _) = w
        .cluster
        .scrub(&mut w.fabric, done)
        .expect("verifying pass runs");
    AcceptCell {
        gib_s: report.gib_per_sec(),
        failed: report.io.errors.get(),
        found: first.mismatches_found,
        repaired: first.mismatches_repaired,
        second_found: second.mismatches_found,
        restore_ms: done.saturating_since(t).as_nanos() / 1_000_000,
    }
}

fn main() {
    println!(
        "recovery cells: {ENGINES} engines RF {RF}, kill slot {VICTIM} after \
         {KILL_AFTER_OPS} ops, rebuild lane {} MiB/s",
        REBUILD_BUDGET >> 20
    );

    // Baseline for the foreground floor: the read spec with no faults.
    let baseline = {
        let mut w = world();
        let report = run_fio(&mut w, &read_spec());
        assert_eq!(report.io.errors.get(), 0);
        report.gib_per_sec()
    };
    println!("  baseline: {baseline:.2} GiB/s");

    let unpaced = run_recovery(false);
    let paced = run_recovery(true);
    assert_eq!(
        paced.failed, 0,
        "recovery: a kill under QD32 must complete with zero failed ops"
    );
    assert!(
        paced.gib_s >= baseline * 0.5,
        "recovery: foreground throughput {:.2} fell below the floor (half \
         of {baseline:.2})",
        paced.gib_s
    );
    assert_eq!(
        (paced.objects_moved, paced.bytes_moved),
        (unpaced.objects_moved, unpaced.bytes_moved),
        "the rebuild lane must change timing, never what moves"
    );
    assert!(
        paced.restore_ms > unpaced.restore_ms && paced.throttle_ms > 0,
        "the {} MiB/s lane must stretch the restore ({} ms paced vs {} ms \
         unpaced, {} ms throttled)",
        REBUILD_BUDGET >> 20,
        paced.restore_ms,
        unpaced.restore_ms,
        paced.throttle_ms
    );
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
    assert_eq!(scrub.failed, 0, "scrub cell: writes must not fail");
    assert!(
        scrub.found >= 2,
        "scrub cell: scheduled rot went undetected ({} found)",
        scrub.found
    );
    assert_eq!(
        scrub.found, scrub.repaired,
        "scrub cell: every mismatch must be repaired"
    );
    assert_eq!(
        scrub.clean_scanned, 0,
        "scrub cell: the clean pass must verify without scanning payload"
    );
    assert!(scrub.clean_chunks > 0);
    println!(
        "  scrub: boundary {} aggregated, {} mismatches found, {} repaired \
         ({} bytes restreamed); clean pass compared {} chunks, scanned 0 \
         payload bytes",
        scrub.agg_boundary, scrub.found, scrub.repaired, scrub.repair_bytes, scrub.clean_chunks
    );

    let accept = run_accept(true);
    assert_eq!(accept.failed, 0, "acceptance: zero failed foreground ops");
    assert!(accept.found >= 1, "acceptance: rot must be detected");
    assert_eq!(
        accept.found, accept.repaired,
        "acceptance: every mismatch must be repaired before the rebuild"
    );
    assert_eq!(
        accept.second_found, 0,
        "acceptance: the healed cluster must scrub clean"
    );
    // Bit-identical replay, pipelined and as serial calls.
    let replay = run_accept(true);
    assert_eq!(
        (
            accept.gib_s.to_bits(),
            accept.found,
            accept.repaired,
            accept.restore_ms
        ),
        (
            replay.gib_s.to_bits(),
            replay.found,
            replay.repaired,
            replay.restore_ms
        ),
        "acceptance: pipelined replay diverged"
    );
    let s1 = run_accept(false);
    let s2 = run_accept(false);
    assert_eq!(
        (s1.gib_s.to_bits(), s1.found, s1.repaired, s1.restore_ms),
        (s2.gib_s.to_bits(), s2.found, s2.repaired, s2.restore_ms),
        "acceptance: serial-call replay diverged"
    );
    assert_eq!((s1.failed, s1.second_found), (0, 0));
    println!(
        "  acceptance: {:.2} GiB/s foreground, {} found = {} repaired, RF \
         restored in {} ms, replays bit-identical (pipelined + serial)",
        accept.gib_s, accept.found, accept.repaired, accept.restore_ms
    );

    let json = format!(
        "{{\n  \"recovery_baseline_gib_s\": {:.4},\n  \
         \"recovery_gib_s\": {:.4},\n  \
         \"recovery_failed_ops\": {},\n  \
         \"recovery_objects_moved\": {},\n  \
         \"recovery_bytes_moved\": {},\n  \
         \"recovery_restore_ms_unpaced\": {},\n  \
         \"recovery_restore_ms_paced\": {},\n  \
         \"recovery_throttle_ms\": {},\n  \
         \"scrub_gib_s\": {:.4},\n  \
         \"scrub_agg_boundary\": {},\n  \
         \"scrub_mismatches_found\": {},\n  \
         \"scrub_mismatches_repaired\": {},\n  \
         \"scrub_unrepaired\": {},\n  \
         \"scrub_repair_bytes\": {},\n  \
         \"scrub_combine_bytes\": {},\n  \
         \"scrub_clean_scanned_bytes\": {},\n  \
         \"accept_gib_s\": {:.4},\n  \
         \"accept_failed_ops\": {},\n  \
         \"accept_mismatches_found\": {},\n  \
         \"accept_mismatches_repaired\": {},\n  \
         \"accept_second_pass_found\": {},\n  \
         \"accept_restore_ms\": {}\n}}\n",
        baseline,
        paced.gib_s,
        paced.failed,
        paced.objects_moved,
        paced.bytes_moved,
        unpaced.restore_ms,
        paced.restore_ms,
        paced.throttle_ms,
        scrub.gib_s,
        scrub.agg_boundary,
        scrub.found,
        scrub.repaired,
        scrub.found - scrub.repaired,
        scrub.repair_bytes,
        scrub.combine_bytes,
        scrub.clean_scanned,
        accept.gib_s,
        accept.failed,
        accept.found,
        accept.repaired,
        accept.second_found,
        accept.restore_ms,
    );
    std::fs::write("BENCH_PR8.json", &json).expect("write BENCH_PR8.json");
    println!("wrote BENCH_PR8.json");
}
