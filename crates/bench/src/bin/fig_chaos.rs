//! Chaos figure (PR 7): the pipelined client's recovery ladder under a
//! mid-flight engine kill with delayed RAS delivery, measured through the
//! closed-loop FIO driver and recorded in `BENCH_PR7.json`.
//!
//! Cells, all virtual-time deterministic:
//!
//! * **baseline** — the chaos spec under `FaultPlan::none()`: no fence,
//!   no retry, bit-identical to the fault-oblivious world (the empty-plan
//!   pin, asserted by running the oblivious world too);
//! * **kill-under-QD32** — 4 engines, RF 2, 32 ops in flight (4 jobs ×
//!   iodepth 8, each op a 4-deep chunk ring); engine 1 dies after 64
//!   client ops and the RAS event reaches the client a full millisecond
//!   late. Gates: **zero failed ops**, at least one `ErrStaleMap` fence,
//!   bounded retries (every re-stage is provoked by a classified timeout
//!   or fence), `exhausted == 0`, and the time of the first successful
//!   retry recorded;
//! * **host-vs-DPU A/B** — the same schedule against the DPU-offloaded
//!   client: the ladder runs on the BlueField-3 and its counters surface
//!   through `DpuStats`, so both arms report the same way.
//!
//! The three `*_gib_s` rates are read off inter-completion times inside the
//! measured window — `(n − 1) × bytes / (t_last − t_first)` — not off the
//! count of ops that happened to complete in it. The cells are wire-bound,
//! so their 4 MiB completions are a comb with a fixed pitch, and a 30 ms
//! window holds 83.75 pitches: an op count reads 83 or 84 depending on
//! where the comb's phase puts the first tooth, which any change to
//! per-op latency moves. The pitch itself does not move.

use ros2_core::FaultPlan;
use ros2_daos::RetryStats;
use ros2_dpu::DpuTenantSpec;
use ros2_fio::{run_fio, DfsFioWorld, FioOp, JobSpec, RwMode, Workload, WorldSpec};
use ros2_sim::{SimDuration, SimTime};

const ENGINES: usize = 4;
const RF: usize = 2;
const JOBS: usize = 4;
const REGION: u64 = 8 << 20;
const VICTIM: usize = 1;
const KILL_AFTER_OPS: u64 = 64;
const RAS_DELAY: SimDuration = SimDuration::from_millis(1);

/// 4 MiB random reads over 1 MiB chunks: 4 jobs × iodepth 8 × 4-deep
/// chunk rings ≈ 32 data-plane legs in flight when the kill lands.
fn chaos_spec() -> JobSpec {
    JobSpec::new(RwMode::RandRead, 4 << 20, JOBS)
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

fn arm_kill(w: &mut DfsFioWorld) {
    let after = w.client.ops() + KILL_AFTER_OPS;
    w.set_fault_plan(FaultPlan::kill_after(VICTIM, after, RAS_DELAY));
}

/// The world behind a tap that notes when each successful op completes.
struct Tapped<W> {
    world: W,
    completions: Vec<SimTime>,
}

impl<W: Workload> Workload for Tapped<W> {
    fn issue(&mut self, now: SimTime, job: usize, op: &FioOp) -> Result<SimTime, String> {
        let done = self.world.issue(now, job, op);
        self.completions.extend(done.iter().copied());
        done
    }
}

/// Runs the chaos spec against `world`; returns the payload rate between
/// the first and the last completion inside the measured window (GiB/s),
/// the failed-op count, and the world back.
fn run_tapped<W: Workload>(world: W) -> (f64, u64, W) {
    let spec = chaos_spec();
    let mut tapped = Tapped {
        world,
        completions: Vec::new(),
    };
    let report = run_fio(&mut tapped, &spec);
    let (from, to) = (
        SimTime::ZERO + spec.ramp,
        SimTime::ZERO + spec.ramp + spec.runtime,
    );
    let mut inside: Vec<SimTime> = tapped
        .completions
        .into_iter()
        .filter(|&t| t >= from && t < to)
        .collect();
    inside.sort_unstable();
    let (first, last) = (inside[0], inside[inside.len() - 1]);
    let bytes = (inside.len() as u64 - 1) * spec.bs;
    let gib_s = bytes as f64 / last.saturating_since(first).as_secs_f64() / (1u64 << 30) as f64;
    (gib_s, report.io.errors.get(), tapped.world)
}

struct ChaosCell {
    gib_s: f64,
    failed: u64,
    fences: u64,
    retry: RetryStats,
    first_retry_us: Option<u64>,
}

fn run_cell(mut w: DfsFioWorld, kill: bool) -> ChaosCell {
    if kill {
        arm_kill(&mut w);
    } else {
        w.set_fault_plan(FaultPlan::none());
    }
    let (gib_s, failed, w) = run_tapped(w);
    ChaosCell {
        gib_s,
        failed,
        fences: w.cluster.fences(),
        retry: w.client.retry_stats(),
        first_retry_us: w
            .client
            .first_successful_retry()
            .map(|t| t.as_nanos() / 1_000),
    }
}

/// Gates shared by the host and DPU kill cells.
fn gate_kill_cell(tag: &str, cell: &ChaosCell) {
    assert_eq!(
        cell.failed, 0,
        "{tag}: a kill under QD32 must complete with zero failed ops"
    );
    assert!(
        cell.fences >= 1,
        "{tag}: the delayed-RAS stale window must fence at least once"
    );
    assert!(
        cell.retry.retries >= 1 && cell.retry.map_refreshes >= 1,
        "{tag}: recovery must ride the ladder ({:?})",
        cell.retry
    );
    assert!(
        cell.retry.retries <= cell.retry.timeouts + cell.retry.fenced,
        "{tag}: every re-stage must be provoked by a classified timeout or \
         fence ({:?})",
        cell.retry
    );
    assert_eq!(
        cell.retry.exhausted, 0,
        "{tag}: no op may exhaust its retry budget"
    );
    assert!(
        cell.first_retry_us.is_some(),
        "{tag}: time-to-first-successful-retry must be recorded"
    );
}

fn main() {
    println!(
        "chaos cell: {ENGINES} engines RF {RF}, kill slot {VICTIM} after \
         {KILL_AFTER_OPS} ops, RAS delayed {RAS_DELAY}"
    );

    // Empty-plan pin: a FaultPlan::none() world and a fault-oblivious
    // world must produce bit-identical runs with silent ladder counters.
    let oblivious = {
        let (gib_s, failed, _) = run_tapped(host_world());
        (gib_s, failed)
    };
    let baseline = run_cell(host_world(), false);
    assert_eq!(
        baseline.gib_s.to_bits(),
        oblivious.0.to_bits(),
        "FaultPlan::none() must be bit-identical to the fault-oblivious world"
    );
    assert_eq!(baseline.failed + oblivious.1, 0);
    assert_eq!(baseline.retry, RetryStats::default());
    assert_eq!(baseline.fences, 0);
    println!(
        "  baseline (empty plan): {:.2} GiB/s, 0 fences",
        baseline.gib_s
    );

    let host = run_cell(host_world(), true);
    gate_kill_cell("host", &host);
    println!(
        "  host kill cell: {:.2} GiB/s, {} failed, {} fences, {:?}, first \
         successful retry at {} us",
        host.gib_s,
        host.failed,
        host.fences,
        host.retry,
        host.first_retry_us.unwrap(),
    );

    let dpu = run_cell(dpu_world(), true);
    gate_kill_cell("dpu", &dpu);
    println!(
        "  dpu  kill cell: {:.2} GiB/s, {} failed, {} fences, {:?}, first \
         successful retry at {} us",
        dpu.gib_s,
        dpu.failed,
        dpu.fences,
        dpu.retry,
        dpu.first_retry_us.unwrap(),
    );

    let json = format!(
        "{{\n  \"chaos_baseline_gib_s\": {:.4},\n  \
         \"chaos_kill_gib_s\": {:.4},\n  \
         \"chaos_failed_ops\": {},\n  \
         \"chaos_fences\": {},\n  \
         \"chaos_timeouts\": {},\n  \
         \"chaos_retries\": {},\n  \
         \"chaos_backoff_waits\": {},\n  \
         \"chaos_map_refreshes\": {},\n  \
         \"chaos_exhausted\": {},\n  \
         \"chaos_first_retry_us\": {},\n  \
         \"dpu_chaos_kill_gib_s\": {:.4},\n  \
         \"dpu_chaos_failed_ops\": {},\n  \
         \"dpu_chaos_fences\": {},\n  \
         \"dpu_chaos_retries\": {},\n  \
         \"dpu_chaos_exhausted\": {}\n}}\n",
        baseline.gib_s,
        host.gib_s,
        host.failed,
        host.fences,
        host.retry.timeouts,
        host.retry.retries,
        host.retry.backoff_waits,
        host.retry.map_refreshes,
        host.retry.exhausted,
        host.first_retry_us.unwrap(),
        dpu.gib_s,
        dpu.failed,
        dpu.fences,
        dpu.retry.retries,
        dpu.retry.exhausted,
    );
    std::fs::write("BENCH_PR7.json", &json).expect("write BENCH_PR7.json");
    println!("wrote BENCH_PR7.json");
}
