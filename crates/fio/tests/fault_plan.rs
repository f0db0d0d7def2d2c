//! Fault plans through the cluster FIO worlds, over the
//! `ros2_fio::figures::{chaos, recovery}` cells that `fig_chaos` and
//! `fig_recovery` print. A scheduled mid-flight engine kill with delayed
//! RAS delivery must ride the client's recovery ladder — stale-map fences,
//! map refreshes, bounded retries — and still finish the closed-loop run
//! with **zero failed ops**. The empty plan is pinned bit-identical to a
//! world that never heard of fault plans, and the same chaos schedule runs
//! A/B on the host client and the DPU-offloaded client (`RetryStats`
//! rides `DpuStats` so both arms report comparably). The background
//! services heal what the plan breaks: a paced rebuild, scrub repair of
//! scheduled bit-rot, and both together. Floors and pins are the values
//! the retired chaos and recovery JSON gates held (floors less the gates'
//! 1e-3 tolerance).

use ros2_core::FaultPlan;
use ros2_daos::RetryStats;
use ros2_fio::figures::chaos::{self, dpu_world, host_world, ChaosCell};
use ros2_fio::figures::recovery;
use ros2_fio::{run_fio, RwMode};
use ros2_sim::SimDuration;

fn assert_ladder_recovered(tag: &str, cell: &ChaosCell) {
    let retry = cell.retry;
    assert_eq!(
        cell.failed, 0,
        "{tag}: kill under load must not fail ops ({retry:?})"
    );
    assert!(
        cell.fences >= 1,
        "{tag}: the stale window must fence at least once"
    );
    assert!(
        retry.retries >= 1,
        "{tag}: recovery must go through the ladder ({retry:?})"
    );
    assert!(
        retry.map_refreshes >= 1,
        "{tag}: the ladder must refresh the map ({retry:?})"
    );
    assert!(
        retry.retries <= retry.timeouts + retry.fenced,
        "{tag}: every re-stage must be provoked by a classified timeout or fence ({retry:?})"
    );
    assert_eq!(retry.exhausted, 0, "{tag}: no op may exhaust its budget");
    assert!(
        cell.first_retry.is_some(),
        "{tag}: time-to-first-successful-retry must be recorded"
    );
}

#[test]
fn scheduled_kill_under_fio_load_recovers_with_zero_failures() {
    let cell = chaos::cell(host_world(), true);
    assert_ladder_recovered("host/randread", &cell);
    assert!(cell.gib_s > 0.0, "measured window must still make progress");
}

#[test]
fn scheduled_kill_during_writes_recovers_with_zero_failures() {
    let cell = chaos::run(host_world(), &chaos::spec(RwMode::RandWrite), Some(2));
    assert_ladder_recovered("host/randwrite", &cell);
}

#[test]
fn empty_plan_is_bit_identical_to_a_fault_oblivious_world() {
    let spec = chaos::spec(RwMode::RandRead);

    let base = run_fio(&mut host_world(), &spec);

    let mut planned = host_world();
    planned.set_fault_plan(FaultPlan::none());
    let under_plan = run_fio(&mut planned, &spec);

    assert_eq!(
        base.io.summary(),
        under_plan.io.summary(),
        "FaultPlan::none() must not perturb the run"
    );
    assert_eq!(
        base.gib_per_sec().to_bits(),
        under_plan.gib_per_sec().to_bits()
    );
    assert_eq!(planned.client.retry_stats(), RetryStats::default());
    assert_eq!(planned.cluster.fences(), 0);
    assert_eq!(planned.client.first_successful_retry(), None);
}

#[test]
fn host_and_dpu_ride_the_same_chaos_schedule() {
    let baseline = chaos::cell(host_world(), false).gib_s;
    let host = chaos::cell(host_world(), true);
    assert_ladder_recovered("host", &host);
    let dpu = chaos::cell(dpu_world(), true);
    assert_ladder_recovered("dpu", &dpu);

    // The kill costs the wire-bound comb nothing, on either arm.
    let (host_rate, dpu_rate) = (host.gib_s, dpu.gib_s);
    assert!(
        baseline >= 10.8977 && host_rate >= 10.8977 && dpu_rate >= 10.9387,
        "baseline {baseline:.4}, host {host_rate:.4}, dpu {dpu_rate:.4} GiB/s"
    );
    // Each arm took four retries when the gate retired, which allowed 4x
    // that; more means the ladder spins instead of recovering.
    for cell in [&host, &dpu] {
        let retry = cell.retry;
        assert!(retry.retries <= 16, "{retry:?}");
    }

    // The offloaded stack folds its lanes' ladder counters into DpuStats,
    // so A/B reports read from one place on both arms.
    assert_eq!(
        dpu.dpu_retry, dpu.retry,
        "DpuStats.retry must mirror the lane ladder counters"
    );
}

/// An engine dies under QD 32 reads and the rebuild restores RF, once
/// unpaced and once through an 8 MiB/s rebuild lane: the lane stretches
/// the restore and banks throttle wait, and moves exactly the same set.
#[test]
fn paced_rebuild_stretches_the_restore_and_moves_the_same_set() {
    let baseline = recovery::baseline();
    assert_eq!(baseline.failed, 0);
    let baseline = baseline.gib_s;
    let unpaced = recovery::recovery_cell(false);
    let paced = recovery::recovery_cell(true);

    assert_eq!(paced.failed, 0, "a kill under QD 32 fails no op");
    let foreground = paced.gib_s;
    assert!(
        foreground >= baseline * 0.5 && baseline >= 10.8063 && foreground >= 10.8063,
        "foreground {foreground:.4} vs no-fault baseline {baseline:.4} GiB/s"
    );
    let moved = (paced.rebuild.objects_moved, paced.rebuild.bytes_moved);
    assert_eq!(
        moved,
        (unpaced.rebuild.objects_moved, unpaced.rebuild.bytes_moved),
        "the lane changes timing, never what moves"
    );
    assert_eq!(moved, (2, 16 << 20));
    let (paced, unpaced, throttled) = (paced.restore, unpaced.restore, paced.throttled);
    assert!(
        paced > unpaced && throttled > SimDuration::ZERO,
        "paced restore took {paced} vs unpaced {unpaced}, {throttled} throttled"
    );
}

/// Three rots scheduled under QD 8 writes; a scrub pass repairs every
/// mismatch, aggregation runs at the cluster-safe boundary, and the pass
/// over the healed cluster is clean without scanning a payload byte.
#[test]
fn scheduled_bitrot_under_writes_is_repaired_and_rescrubs_clean() {
    let cell = recovery::scrub_cell();
    assert_eq!(cell.failed, 0);
    assert!(cell.gib_s >= 2.3428, "{:.4} GiB/s", cell.gib_s);
    let first = cell.first;
    assert_eq!(
        (
            first.mismatches_found,
            first.mismatches_repaired,
            cell.boundary
        ),
        (2, 2, 149)
    );
    assert_eq!(
        cell.clean.mismatches_found, 0,
        "the healed cluster scrubs clean"
    );
    assert_eq!(
        cell.clean_scanned, 0,
        "the clean pass compares cached chunk CRCs and scans nothing"
    );
    assert!(cell.clean_chunks > 0);
}

/// Kill *and* rot under QD 8 writes, healed in self-healing order — scrub
/// the survivors, then the paced rebuild, then a verifying scrub — replays
/// bit-identically both pipelined and as serial calls.
#[test]
fn kill_and_bitrot_heal_in_order_and_replay_bit_identically() {
    let run = |pipelined: bool| {
        let cell = recovery::accept_cell(pipelined);
        assert_eq!(cell.failed, 0, "pipelined {pipelined}");
        let first = cell.first;
        assert!(first.mismatches_found >= 1, "the rot must be found");
        assert_eq!(first.mismatches_found, first.mismatches_repaired);
        assert_eq!(
            cell.clean.mismatches_found, 0,
            "the healed cluster scrubs clean"
        );
        cell
    };
    let pipelined = run(true);
    assert!(pipelined.gib_s >= 2.3428);
    assert_eq!(pipelined, run(true), "pipelined replay diverged");
    assert_eq!(run(false), run(false), "serial-call replay diverged");
}
