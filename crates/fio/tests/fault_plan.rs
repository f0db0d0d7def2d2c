//! FaultPlan threading through the cluster FIO worlds: a scheduled
//! mid-flight engine kill with delayed RAS delivery must ride the
//! client's recovery ladder — stale-map fences, map refreshes, bounded
//! retries — and still finish the closed-loop run with **zero failed
//! ops**. The empty plan is pinned bit-identical to a world that never
//! heard of fault plans, and the same chaos schedule runs A/B on the
//! host client and the DPU-offloaded client (satellite: `RetryStats`
//! rides `DpuStats` so both arms report comparably).

use ros2_core::FaultPlan;
use ros2_daos::RetryStats;
use ros2_dpu::DpuTenantSpec;
use ros2_fio::{run_fio, DfsFioWorld, FioReport, JobSpec, RwMode, WorldSpec};
use ros2_sim::SimDuration;

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
/// these specs), with RAS delivery lagging half a millisecond — dozens
/// of op-latencies, so a real stale window opens.
fn arm_kill(w: &mut DfsFioWorld, slot: usize) {
    let after = w.client.ops() + 64;
    w.set_fault_plan(FaultPlan::kill_after(
        slot,
        after,
        SimDuration::from_micros(500),
    ));
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

    let mut host = host_world();
    arm_kill(&mut host, 1);
    let host_report = run_fio(&mut host, &spec);
    assert_ladder_recovered("host", &host_report, &host);

    let mut dpu = dpu_world();
    arm_kill(&mut dpu, 1);
    let dpu_report = run_fio(&mut dpu, &spec);
    assert_ladder_recovered("dpu", &dpu_report, &dpu);

    // Satellite: the offloaded stack folds its lanes' ladder counters
    // into DpuStats, so A/B reports read from one place on both arms.
    assert_eq!(
        dpu.client.dpu_stats().retry,
        dpu.client.retry_stats(),
        "DpuStats.retry must mirror the lane ladder counters"
    );
}
