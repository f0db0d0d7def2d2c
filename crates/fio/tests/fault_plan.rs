//! FaultPlan threading through the cluster FIO worlds: a scheduled
//! mid-flight engine kill with delayed RAS delivery must ride the
//! client's recovery ladder — stale-map fences, map refreshes, bounded
//! retries — and still finish the closed-loop run with **zero failed
//! ops**. The empty plan is pinned bit-identical to a world that never
//! heard of fault plans, and the same chaos schedule runs A/B on the
//! host client and the DPU-offloaded client (satellite: `RetryStats`
//! rides `DpuStats` so both arms report comparably). The background
//! services heal what the plan breaks: a paced rebuild, scrub repair of
//! scheduled bit-rot, and both together. These are the `fig_chaos` and
//! `fig_recovery` cells; their floors and pins are the values the
//! retired `BENCH_PR7`/`BENCH_PR8` gates held (floors less the gates'
//! 1e-3 tolerance).

use ros2_core::{FaultPlan, ScheduledCorruption};
use ros2_daos::{BgService, RetryStats};
use ros2_dpu::DpuTenantSpec;
use ros2_fio::{run_fio, DfsFioWorld, FioOp, FioReport, JobSpec, RwMode, Workload, WorldSpec};
use ros2_sim::{QosLimits, SimDuration, SimTime};

const ENGINES: usize = 4;
const RF: usize = 2;
const JOBS: usize = 4;
const REGION: u64 = 8 << 20;

/// 4 MiB ops over 1 MiB DFS chunks: every op is a 4-deep pipelined ring,
/// so kills land while legs are genuinely in flight.
fn chaos_spec(rw: RwMode) -> JobSpec {
    JobSpec::new(rw, 4 << 20, JOBS)
        .iodepth(8)
        .region(REGION)
        .windows(SimDuration::from_millis(2), SimDuration::from_millis(30))
        .seed(7)
}

fn host_world() -> DfsFioWorld {
    let mut w = WorldSpec::cluster(ENGINES)
        .replication(RF)
        .jobs(JOBS)
        .region(REGION)
        .build_dfs();
    w.set_pipelined(true);
    w
}

fn dpu_world() -> DfsFioWorld {
    let mut w = WorldSpec::cluster(ENGINES)
        .replication(RF)
        .jobs(JOBS)
        .region(REGION)
        .offload(vec![DpuTenantSpec::unlimited("fio")])
        .build_dfs();
    w.set_pipelined(true);
    w
}

/// Arms one kill of `slot` after 64 more client ops (mid-run for any of
/// these specs), with RAS delivery lagging a millisecond — dozens of
/// op-latencies, so a real stale window opens.
fn kill_plan(w: &DfsFioWorld, slot: usize) -> FaultPlan {
    FaultPlan::kill_after(slot, w.client.ops() + 64, SimDuration::from_millis(1))
}

fn arm_kill(w: &mut DfsFioWorld, slot: usize) {
    w.set_fault_plan(kill_plan(w, slot));
}

/// Three silent corruptions across a run, all on slot 0 (never the kill
/// victim), hitting three different stored objects.
fn rot_after(w: &DfsFioWorld) -> Vec<ScheduledCorruption> {
    (0..3)
        .map(|i| ScheduledCorruption {
            after_client_ops: w.client.ops() + 16 + 16 * i,
            slot: 0,
            object_index: i as usize,
        })
        .collect()
}

/// QD 8 random writes: writes never fetch-verify, so scheduled rot stays
/// silent until the scrub service looks for it.
fn write_spec() -> JobSpec {
    JobSpec::new(RwMode::RandWrite, 1 << 20, JOBS)
        .iodepth(2)
        .region(REGION)
        .windows(SimDuration::from_millis(2), SimDuration::from_millis(30))
        .seed(11)
}

/// The world behind a tap that notes when each successful op completes.
struct Tapped<'a> {
    world: &'a mut DfsFioWorld,
    completions: Vec<SimTime>,
}

impl Workload for Tapped<'_> {
    fn issue(&mut self, now: SimTime, job: usize, op: &FioOp) -> Result<SimTime, String> {
        let done = self.world.issue(now, job, op);
        self.completions.extend(done.iter().copied());
        done
    }
}

/// Runs `spec` and returns the report with the payload rate between the
/// first and last completion inside the measured window (GiB/s): on these
/// wire-bound cells the completions form a comb, and its pitch does not
/// move when a latency change shifts one op across the window's edge.
fn run_pitched(world: &mut DfsFioWorld, spec: &JobSpec) -> (FioReport, f64) {
    let mut tapped = Tapped {
        world,
        completions: Vec::new(),
    };
    let report = run_fio(&mut tapped, spec);
    let from = SimTime::ZERO + spec.ramp;
    let mut inside: Vec<SimTime> = tapped
        .completions
        .into_iter()
        .filter(|&t| t >= from && t < from + spec.runtime)
        .collect();
    inside.sort_unstable();
    let span = inside[inside.len() - 1].saturating_since(inside[0]);
    let bytes = (inside.len() as u64 - 1) * spec.bs;
    let rate = bytes as f64 / span.as_secs_f64() / (1u64 << 30) as f64;
    (report, rate)
}

fn assert_ladder_recovered(tag: &str, report: &FioReport, w: &DfsFioWorld) {
    let retry = w.client.retry_stats();
    assert_eq!(
        report.io.errors.get(),
        0,
        "{tag}: kill under load must not fail ops ({retry:?})"
    );
    assert!(
        w.cluster.fences() >= 1,
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
        w.client.first_successful_retry().is_some(),
        "{tag}: time-to-first-successful-retry must be recorded"
    );
}

#[test]
fn scheduled_kill_under_fio_load_recovers_with_zero_failures() {
    let mut w = host_world();
    arm_kill(&mut w, 1);
    let report = run_fio(&mut w, &chaos_spec(RwMode::RandRead));
    assert_ladder_recovered("host/randread", &report, &w);
    assert!(
        report.gib_per_sec() > 0.0,
        "measured window must still make progress"
    );
}

#[test]
fn scheduled_kill_during_writes_recovers_with_zero_failures() {
    let mut w = host_world();
    arm_kill(&mut w, 2);
    let report = run_fio(&mut w, &chaos_spec(RwMode::RandWrite));
    assert_ladder_recovered("host/randwrite", &report, &w);
}

#[test]
fn empty_plan_is_bit_identical_to_a_fault_oblivious_world() {
    let spec = chaos_spec(RwMode::RandRead);

    let mut oblivious = host_world();
    let base = run_fio(&mut oblivious, &spec);

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
    let spec = chaos_spec(RwMode::RandRead);
    let (_, baseline) = run_pitched(&mut host_world(), &spec);

    let mut host = host_world();
    arm_kill(&mut host, 1);
    let (host_report, host_rate) = run_pitched(&mut host, &spec);
    assert_ladder_recovered("host", &host_report, &host);

    let mut dpu = dpu_world();
    arm_kill(&mut dpu, 1);
    let (dpu_report, dpu_rate) = run_pitched(&mut dpu, &spec);
    assert_ladder_recovered("dpu", &dpu_report, &dpu);

    // The kill costs the wire-bound comb nothing, on either arm.
    assert!(
        baseline >= 10.8977 && host_rate >= 10.8977 && dpu_rate >= 10.9387,
        "baseline {baseline:.4}, host {host_rate:.4}, dpu {dpu_rate:.4} GiB/s"
    );
    // Each arm took four retries when the gate retired, which allowed 4x
    // that; more means the ladder spins instead of recovering.
    for w in [&host, &dpu] {
        let retry = w.client.retry_stats();
        assert!(retry.retries <= 16, "{retry:?}");
    }

    // Satellite: the offloaded stack folds its lanes' ladder counters
    // into DpuStats, so A/B reports read from one place on both arms.
    assert_eq!(
        dpu.client.dpu_stats().retry,
        dpu.client.retry_stats(),
        "DpuStats.retry must mirror the lane ladder counters"
    );
}

/// An engine dies under QD 32 reads and the rebuild restores RF, once
/// unpaced and once through an 8 MiB/s rebuild lane: the lane stretches
/// the restore and banks throttle wait, and moves exactly the same set.
#[test]
fn paced_rebuild_stretches_the_restore_and_moves_the_same_set() {
    let spec = chaos_spec(RwMode::RandRead);
    let baseline = run_fio(&mut host_world(), &spec);
    assert_eq!(baseline.io.errors.get(), 0);
    let baseline = baseline.gib_per_sec();
    let run = |paced: bool| {
        let mut w = host_world();
        arm_kill(&mut w, 1);
        if paced {
            w.cluster
                .set_service_budget(BgService::Rebuild, QosLimits::bytes_per_sec(8 << 20));
        }
        let report = run_fio(&mut w, &spec);
        let done = w.rebuild(SimTime::ZERO).expect("rebuild completes");
        let moved = w.cluster.rebuild_stats();
        let throttled = w.cluster.scrub_stats().rebuild_throttle_wait;
        (
            report,
            done,
            (moved.objects_moved, moved.bytes_moved),
            throttled,
        )
    };
    let (_, unpaced_done, unpaced_moved, _) = run(false);
    let (report, paced_done, moved, throttled) = run(true);

    assert_eq!(report.io.errors.get(), 0, "a kill under QD 32 fails no op");
    let foreground = report.gib_per_sec();
    assert!(
        foreground >= baseline * 0.5 && baseline >= 10.8063 && foreground >= 10.8063,
        "foreground {foreground:.4} vs no-fault baseline {baseline:.4} GiB/s"
    );
    assert_eq!(
        moved, unpaced_moved,
        "the lane changes timing, never what moves"
    );
    assert_eq!(moved, (2, 16 << 20));
    assert!(
        paced_done > unpaced_done && throttled > SimDuration::ZERO,
        "paced restore at {paced_done} vs unpaced {unpaced_done}, {throttled} throttled"
    );
}

/// Three rots scheduled under QD 8 writes; a scrub pass repairs every
/// mismatch, aggregation runs at the cluster-safe boundary, and the pass
/// over the healed cluster is clean without scanning a payload byte.
#[test]
fn scheduled_bitrot_under_writes_is_repaired_and_rescrubs_clean() {
    let mut w = host_world();
    w.set_fault_plan(FaultPlan {
        bitrot: rot_after(&w),
        ..FaultPlan::none()
    });
    let report = run_fio(&mut w, &write_spec());
    assert_eq!(report.io.errors.get(), 0);
    assert!(
        report.gib_per_sec() >= 2.3428,
        "{:.4} GiB/s",
        report.gib_per_sec()
    );

    let (first, t) = w.cluster.scrub(&mut w.fabric, SimTime::ZERO).unwrap();
    let (boundary, t) = w.cluster.aggregate_cluster(t, "posix", None).unwrap();
    let before = w.cluster.scrub_stats();
    let (second, _) = w.cluster.scrub(&mut w.fabric, t).unwrap();
    let after = w.cluster.scrub_stats();
    assert_eq!(
        (
            first.mismatches_found,
            first.mismatches_repaired,
            boundary.0
        ),
        (2, 2, 149)
    );
    assert_eq!(
        second.mismatches_found, 0,
        "the healed cluster scrubs clean"
    );
    assert_eq!(
        after.scanned_bytes, before.scanned_bytes,
        "the clean pass only folds"
    );
    assert!(after.chunks_compared > before.chunks_compared);
}

/// Kill *and* rot under QD 8 writes, healed in self-healing order — scrub
/// the survivors, then the paced rebuild, then a verifying scrub — replays
/// bit-identically both pipelined and as serial calls.
#[test]
fn kill_and_bitrot_heal_in_order_and_replay_bit_identically() {
    let run = |pipelined: bool| {
        let mut w = host_world();
        w.set_pipelined(pipelined);
        w.set_fault_plan(FaultPlan {
            bitrot: rot_after(&w),
            ..kill_plan(&w, 1)
        });
        w.cluster
            .set_service_budget(BgService::Rebuild, QosLimits::bytes_per_sec(8 << 20));
        let report = run_fio(&mut w, &write_spec());
        assert_eq!(report.io.errors.get(), 0, "pipelined {pipelined}");
        let (first, t) = w.cluster.scrub(&mut w.fabric, SimTime::ZERO).unwrap();
        assert!(first.mismatches_found >= 1, "the rot must be found");
        assert_eq!(first.mismatches_found, first.mismatches_repaired);
        let done = w.rebuild(t).expect("rebuild completes");
        let (second, _) = w.cluster.scrub(&mut w.fabric, done).unwrap();
        assert_eq!(
            second.mismatches_found, 0,
            "the healed cluster scrubs clean"
        );
        (report.gib_per_sec().to_bits(), first, done)
    };
    let pipelined = run(true);
    assert!(f64::from_bits(pipelined.0) >= 2.3428);
    assert_eq!(pipelined, run(true), "pipelined replay diverged");
    assert_eq!(run(false), run(false), "serial-call replay diverged");
}
