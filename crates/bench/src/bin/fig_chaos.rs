//! Chaos figure (PR 7): the pipelined client's recovery ladder under a
//! mid-flight engine kill with delayed RAS delivery, measured through the
//! closed-loop FIO driver.
//!
//! Cells, all virtual-time deterministic (the ladder's invariants are
//! asserted by `crates/fio/tests/fault_plan.rs`):
//!
//! * **baseline** — the chaos spec under `FaultPlan::none()`: no fence,
//!   no retry;
//! * **kill-under-QD32** — 4 engines, RF 2, 32 ops in flight (4 jobs ×
//!   iodepth 8, each op a 4-deep chunk ring); engine 1 dies after 64
//!   client ops and the RAS event reaches the client a full millisecond
//!   late: zero failed ops, `ErrStaleMap` fences, retries each provoked by
//!   a classified timeout or fence, and the time of the first successful
//!   retry;
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

struct ChaosCell {
    gib_s: f64,
    failed: u64,
    fences: u64,
    retry: RetryStats,
    first_retry_us: Option<u64>,
}

/// Runs the chaos spec against `w` (engine [`VICTIM`] killed mid-run if
/// `kill`); the rate is the payload rate between the first and the last
/// completion inside the measured window.
fn run_cell(mut w: DfsFioWorld, kill: bool) -> ChaosCell {
    let plan = if kill {
        FaultPlan::kill_after(VICTIM, w.client.ops() + KILL_AFTER_OPS, RAS_DELAY)
    } else {
        FaultPlan::none()
    };
    w.set_fault_plan(plan);
    let spec = chaos_spec();
    let mut tapped = Tapped {
        world: w,
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
    let w = tapped.world;
    ChaosCell {
        gib_s: bytes as f64 / last.saturating_since(first).as_secs_f64() / (1u64 << 30) as f64,
        failed: report.io.errors.get(),
        fences: w.cluster.fences(),
        retry: w.client.retry_stats(),
        first_retry_us: w
            .client
            .first_successful_retry()
            .map(|t| t.as_nanos() / 1_000),
    }
}

fn main() {
    println!(
        "chaos cell: {ENGINES} engines RF {RF}, kill slot {VICTIM} after \
         {KILL_AFTER_OPS} ops, RAS delayed {RAS_DELAY}"
    );

    let baseline = run_cell(host_world(), false);
    println!(
        "  baseline (empty plan): {:.2} GiB/s, {} fences",
        baseline.gib_s, baseline.fences
    );

    for (tag, world) in [
        ("host", host_world as fn() -> DfsFioWorld),
        ("dpu ", dpu_world),
    ] {
        let cell = run_cell(world(), true);
        println!(
            "  {tag} kill cell: {:.2} GiB/s, {} failed, {} fences, {:?}, first \
             successful retry at {} us",
            cell.gib_s,
            cell.failed,
            cell.fences,
            cell.retry,
            cell.first_retry_us.map_or("-".into(), |us| us.to_string()),
        );
    }
}
