//! Simulator-throughput regression gate: times a fixed Fig. 5-style DFS
//! sweep on **wall clock** (not virtual time) and emits `BENCH_PR4.json` so
//! successive PRs accumulate a perf trajectory for the booking core, the
//! zero-copy data plane, the allocation-free sharded metadata path (PR 3),
//! and (PR 4) the DPU-offloaded client.
//!
//! PR 4 adds a **host-vs-DPU A/B sweep** over *simulated* throughput: each
//! cell runs the classic host-placement world against the offloaded world
//! (`DpuClient`: the host's posted doorbell legs, tenant QoS admission, scoped
//! rkeys, DPU-side CRC) on the same plan, plus one contended multi-tenant
//! cell where a 64 MiB/s tenant shares the DPU with an unthrottled one.
//! These are virtual-time results — deterministic, so the recorded ratios
//! and the QoS shaping are gated exactly, and `ops_simulated` of the
//! legacy sweep is pinned at 595716 (the offload path must not perturb the
//! host-placement control arm by a single grant).
//!
//! Measurement discipline (PR 3): the PR 2 harness recorded the batched
//! pass 22 % *slower* than the per-segment pass. Two real causes and one
//! artifact:
//! the first-measured sweep paid the process's allocator/page-fault warmup
//! (on a one-core container the back-to-back passes kept speeding up), and
//! single-segment traversals — descriptors, completions, 4 KiB payloads,
//! i.e. most of the sweep — paid the closed-form bookkeeping for a window
//! that degenerates to one booking. The harness now runs an untimed warmup
//! pass and A/Bs the sweep **per cell with alternating order** (drift
//! cancels instead of biasing one side), and the fabric books
//! single-segment transfers directly. The gated `wire_batched_speedup`
//! comes from a dedicated `traverse_wire` A/B microbench where the closed
//! form's win is far above host noise; the whole-sweep ratio is recorded
//! alongside as `sweep_batched_speedup` (a ±2 % tie — wire booking is a
//! tiny share of a full simulated op after PRs 1-3).
//!
//! Measured passes:
//!
//! * **batched** — the shipping configuration: single-segment direct
//!   bookings + closed-form pipelined windows + the `IntervalBook`
//!   tail-append fast path, over the contended multi-job sweep;
//! * **per-segment** — the identical sweep with the wire fast path forced
//!   off (`Fabric::set_force_per_segment`), the pre-optimization booking
//!   pattern, kept runnable so the speedup stays measurable;
//! * **uncontended** — single-job closed-loop streams; its booking hit
//!   rate is the headline `fastpath_hit_rate` and must clear 90 %;
//! * **metadata micro** — warm single-value update/fetch round trips
//!   through the sharded engine, reported as ns per op (the per-op
//!   metadata path PR 3 stripped of allocations).
//!
//! Batched and per-segment must produce identical simulated results
//! (asserted on every sweep cell); the fast path is a pure wall-clock
//! optimization. `ops_simulated` is pinned against drift: the PR 3
//! refactor (inline keys, shared descriptors, seeded CRC caches,
//! sharding) must not move a single virtual-time result.

use std::time::Instant;

use bytes::Bytes;
use ros2_buf::DataPlaneStats;
use ros2_daos::{AKey, DKey, DaosCostModel, DaosEngine, Epoch, ObjClass, ObjectId, ValueKind};
use ros2_dpu::{DpuTenantSpec, QosLimits};
use ros2_fio::{run_fio, JobSpec, RwMode, WorldSpec};
use ros2_hw::{ClientPlacement, CoreClass, NvmeModel, Transport};
use ros2_nvme::{DataMode, NvmeArray};
use ros2_sim::{BandwidthServer, ResourceStats, SimDuration, SimTime};
use ros2_spdk::BdevLayer;

use ros2_bench::{legacy_cells, legacy_spec, LEGACY_JOBS as JOBS, OPS_SIMULATED_PIN};

const REGION: u64 = 16 << 20;

/// `sweep_wall_ms` recorded by this harness at the PR 2 head (same cell
/// plan, same container class) — the baseline the sharded metadata-path
/// rework is gated against.
const PR2_SWEEP_WALL_MS: f64 = 3_460.2;
/// And the PR 1 figure, kept for the long trajectory.
const PR1_SWEEP_WALL_MS: f64 = 20_568.5;
/// The PR 3 head, for the running trajectory.
const PR3_SWEEP_WALL_MS: f64 = 1_986.9;

fn spec(rw: RwMode, bs: u64, jobs: usize, qd: usize) -> JobSpec {
    legacy_spec(rw, bs, jobs, qd)
}

/// Everything one simulated sweep cell produces.
struct CellResult {
    wall_ms: f64,
    ops: u64,
    stats: ResourceStats,
    batched: u64,
    per_segment: u64,
    gib_per_sec: f64,
    dp: DataPlaneStats,
}

/// Runs one cell; wall time covers world construction + the closed loop
/// (identical work in both wire modes).
fn cell(
    transport: Transport,
    placement: ClientPlacement,
    rw: RwMode,
    bs: u64,
    jobs: usize,
    qd: usize,
    force_per_segment: bool,
) -> CellResult {
    let t0 = Instant::now();
    let mut world = WorldSpec::single(placement)
        .transport(transport)
        .jobs(jobs)
        .region(REGION)
        .mode(DataMode::Null)
        .wire_per_segment(force_per_segment)
        .build_dfs();
    let report = run_fio(&mut world, &spec(rw, bs, jobs, qd));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let wire = world.fabric.wire_traversal_stats();
    let mut stats = world.fabric.resource_stats();
    stats.merge(world.cluster.resource_stats());
    stats.merge(world.client.resource_stats());
    let mut dp = world.fabric.data_plane_stats();
    dp.merge(world.cluster.data_plane_stats());
    CellResult {
        wall_ms,
        ops: report.io.meter.ops(),
        stats,
        batched: wire.batched,
        per_segment: wire.per_segment,
        gib_per_sec: report.gib_per_sec(),
        dp,
    }
}

fn cells(jobs: usize, qd: usize) -> Vec<(Transport, ClientPlacement, RwMode, u64, usize, usize)> {
    legacy_cells(jobs, qd)
}

#[derive(Default)]
struct SweepTotals {
    wall_ms: f64,
    ops: u64,
    stats: ResourceStats,
    batched: u64,
    per_segment: u64,
    dp: DataPlaneStats,
}

impl SweepTotals {
    fn add(&mut self, c: &CellResult) {
        self.wall_ms += c.wall_ms;
        self.ops += c.ops;
        self.stats.merge(c.stats);
        self.batched += c.batched;
        self.per_segment += c.per_segment;
        self.dp.merge(c.dp);
    }
}

/// The contended sweep, A/B'd per cell: each cell runs in both wire modes
/// back to back, order alternating by cell index so clock/allocator drift
/// cancels across the plan. Asserts bit-identical simulated results per
/// cell and returns (batched totals, per-segment totals).
fn ab_sweep(jobs: usize, qd: usize) -> (SweepTotals, SweepTotals) {
    let mut fast = SweepTotals::default();
    let mut slow = SweepTotals::default();
    for (i, &(t, p, rw, bs, j, q)) in cells(jobs, qd).iter().enumerate() {
        let (f, s) = if i % 2 == 0 {
            let f = cell(t, p, rw, bs, j, q, false);
            let s = cell(t, p, rw, bs, j, q, true);
            (f, s)
        } else {
            let s = cell(t, p, rw, bs, j, q, true);
            let f = cell(t, p, rw, bs, j, q, false);
            (f, s)
        };
        assert_eq!(f.ops, s.ops, "cell {i}: op counts diverged between paths");
        assert_eq!(
            f.gib_per_sec, s.gib_per_sec,
            "cell {i}: batched {} GiB/s != per-segment {} GiB/s",
            f.gib_per_sec, s.gib_per_sec
        );
        fast.add(&f);
        slow.add(&s);
    }
    (fast, slow)
}

/// The uncontended pass: one job, queue depth 1 — strictly sequential
/// ops, the regime the tail fast path must own.
fn uncontended_sweep() -> SweepTotals {
    let mut out = SweepTotals::default();
    for &(t, p, rw, bs, j, q) in &cells(1, 1) {
        out.add(&cell(t, p, rw, bs, j, q, false));
    }
    out
}

/// The seed's `Vec`-backed booking core, verbatim (gap scan from
/// `partition_point`, drain-based prune), used as the baseline for the
/// booking-core microcomparison. A second verbatim copy is the grant
/// oracle in `crates/sim/tests/fastpath_equivalence.rs` (`RefBook`); if
/// either copy is ever touched, update both. On the steady-state pattern the drain
/// memmoves the entire span tail on every booking — the O(n²) behaviour
/// the ring-buffer rewrite removes.
mod seed_reference {
    const PRUNE_SLACK_NS: u64 = 500_000_000;

    #[derive(Default)]
    pub struct SeedPipe {
        bytes_per_sec: u64,
        spans: Vec<(u64, u64)>,
        high_water: u64,
    }

    impl SeedPipe {
        pub fn new(bytes_per_sec: u64) -> Self {
            SeedPipe {
                bytes_per_sec,
                ..SeedPipe::default()
            }
        }

        fn earliest(&self, from: u64, dur: u64) -> (u64, usize) {
            let mut idx = self.spans.partition_point(|&(_, end)| end <= from);
            let mut candidate = from;
            while idx < self.spans.len() {
                let (start, end) = self.spans[idx];
                if candidate + dur <= start {
                    return (candidate, idx);
                }
                candidate = candidate.max(end);
                idx += 1;
            }
            (candidate, idx)
        }

        pub fn transmit(&mut self, now: u64, bytes: u64) -> (u64, u64) {
            let dur = (bytes as u128 * 1_000_000_000).div_ceil(self.bytes_per_sec as u128) as u64;
            let (start, idx) = self.earliest(now, dur);
            let end = start + dur;
            let prev = idx > 0 && self.spans[idx - 1].1 == start;
            let next = idx < self.spans.len() && self.spans[idx].0 == end;
            match (prev, next) {
                (true, true) => {
                    self.spans[idx - 1].1 = self.spans[idx].1;
                    self.spans.remove(idx);
                }
                (true, false) => self.spans[idx - 1].1 = end,
                (false, true) => self.spans[idx].0 = start,
                (false, false) => self.spans.insert(idx, (start, end)),
            }
            self.high_water = self.high_water.max(now);
            let cutoff = self.high_water.saturating_sub(PRUNE_SLACK_NS);
            if self.spans.len() >= 64 {
                let keep_from = self.spans.partition_point(|&(_, end)| end < cutoff);
                if keep_from > 0 {
                    self.spans.drain(0..keep_from);
                }
            }
            (start, end)
        }
    }
}

/// Times `bookings` spaced transmissions (each books its own non-merging
/// span, so the live window holds ~25 k spans) on both booking cores and
/// cross-checks every grant via an accumulated checksum (so a mid-stream
/// divergence cannot hide behind a matching final grant). Returns
/// (seed_ms, new_ms).
fn booking_core_microbench(bookings: u64) -> (f64, f64) {
    const RATE: u64 = 1_000_000_000;
    const STEP_NS: u64 = 20_000; // 20 us apart, 1 us busy: spans never merge
    const BYTES: u64 = 1_000;

    let t0 = Instant::now();
    let mut seed = seed_reference::SeedPipe::new(RATE);
    let mut seed_sum = (0u64, 0u64);
    for i in 0..bookings {
        let (start, end) = seed.transmit(i * STEP_NS, BYTES);
        seed_sum = (
            seed_sum.0.wrapping_add(start.rotate_left((i % 63) as u32)),
            seed_sum.1.wrapping_add(end.rotate_left((i % 63) as u32)),
        );
    }
    let seed_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let mut pipe = BandwidthServer::new(RATE);
    let mut sum = (0u64, 0u64);
    for i in 0..bookings {
        let g = pipe.transmit(SimTime::from_nanos(i * STEP_NS), BYTES);
        sum = (
            sum.0
                .wrapping_add(g.start.as_nanos().rotate_left((i % 63) as u32)),
            sum.1
                .wrapping_add(g.finish.as_nanos().rotate_left((i % 63) as u32)),
        );
    }
    let new_ms = t1.elapsed().as_secs_f64() * 1e3;

    assert_eq!(sum, seed_sum, "booking cores diverged");
    (seed_ms, new_ms)
}

/// Direct A/B of `Fabric::traverse_wire`: a fixed mixed stream — spaced
/// multi-segment transfers (the closed form's design regime: one window
/// instead of ~17 bookings per 1 MiB), spaced single-segment descriptors
/// (the direct path), and contended bursts (the fallback) — through one
/// fabric per wire mode. This is the gated `wire_batched_speedup`: it
/// measures the traversal code itself, so the ~2-4x closed-form win is far
/// above scheduler noise, where the whole-sweep ratio is a ±2 % tie (wire
/// booking is a tiny share of a full simulated op after PR 1-3). Returns
/// (batched_ms, per_segment_ms), best of 3 alternating repetitions.
fn wire_traversal_microbench() -> (f64, f64) {
    use ros2_fabric::{Dir, Fabric, NodeSpec};
    use ros2_hw::{gbps, CpuComplement, NicModel};
    use ros2_verbs::{NodeId, PdId};
    let node = |name: &str| NodeSpec {
        name: name.into(),
        cpu: CpuComplement {
            class: CoreClass::HostX86,
            cores: 48,
        },
        nic: NicModel::connectx6(),
        port_rate: gbps(100),
        mem_budget: 1 << 30,
        dpu_tcp_rx: None,
    };
    let run = |force: bool| -> f64 {
        let mut f = Fabric::new(Transport::Tcp, vec![node("a"), node("b")], 7);
        f.set_force_per_segment(force);
        let conn = f.connect(NodeId(0), NodeId(1), PdId(0), PdId(0)).unwrap();
        let big = ros2_buf::zero_bytes(1 << 20);
        let small = ros2_buf::zero_bytes(4 << 10);
        let t0 = Instant::now();
        // Spaced multi-segment stream (idle pipes: closed form applies).
        for i in 0..20_000u64 {
            f.send(
                SimTime::from_nanos(i * 200_000),
                conn,
                Dir::AtoB,
                big.clone(),
            )
            .unwrap();
        }
        f.reset_timing();
        // Spaced single-segment descriptors (direct path).
        for i in 0..40_000u64 {
            f.send(
                SimTime::from_nanos(i * 50_000),
                conn,
                Dir::AtoB,
                small.clone(),
            )
            .unwrap();
        }
        f.reset_timing();
        // Contended bursts (fallback loop behind the hoisted tail check).
        for i in 0..10_000u64 {
            f.send(
                SimTime::from_nanos(i / 8 * 90_000),
                conn,
                Dir::AtoB,
                big.clone(),
            )
            .unwrap();
        }
        t0.elapsed().as_secs_f64() * 1e3
    };
    run(false);
    run(true);
    let (mut fast, mut slow) = (f64::MAX, f64::MAX);
    for rep in 0..3 {
        if rep % 2 == 0 {
            fast = fast.min(run(false));
            slow = slow.min(run(true));
        } else {
            slow = slow.min(run(true));
            fast = fast.min(run(false));
        }
    }
    (fast, slow)
}

/// One host-vs-DPU A/B cell: the same plan through the classic
/// host-placement world and the offloaded world. Simulated (virtual-time)
/// throughput on both sides, so the ratio is deterministic.
struct DpuAbCell {
    transport: Transport,
    rw: RwMode,
    bs: u64,
    host_gib_s: f64,
    dpu_gib_s: f64,
    handoff_us_per_op: f64,
}

const AB_JOBS: usize = 2;
const AB_REGION: u64 = 8 << 20;

fn ab_spec(rw: RwMode, bs: u64) -> JobSpec {
    JobSpec::new(rw, bs, AB_JOBS)
        .iodepth(4)
        .region(AB_REGION)
        .windows(SimDuration::from_millis(20), SimDuration::from_millis(80))
}

/// Runs the single-tenant host-vs-DPU sweep: {rdma, tcp} × {read, write} ×
/// {1 MiB, 4 KiB}. Returns the per-cell results plus the offload counters
/// merged across every DPU arm.
fn host_vs_dpu_sweep() -> (Vec<DpuAbCell>, ros2_dpu::DpuStats) {
    let mut cells = Vec::new();
    let mut offload_totals = ros2_dpu::DpuStats::default();
    for &transport in &[Transport::Rdma, Transport::Tcp] {
        for &rw in &[RwMode::Read, RwMode::Write] {
            for &bs in &[1u64 << 20, 4 << 10] {
                let mut host_world = WorldSpec::single(ClientPlacement::Host)
                    .transport(transport)
                    .jobs(AB_JOBS)
                    .region(AB_REGION)
                    .mode(DataMode::Null)
                    .build_dfs();
                let host = run_fio(&mut host_world, &ab_spec(rw, bs));
                let mut dpu_world = WorldSpec::single(ClientPlacement::Dpu)
                    .transport(transport)
                    .jobs(AB_JOBS)
                    .region(AB_REGION)
                    .mode(DataMode::Null)
                    .offload(vec![DpuTenantSpec::unlimited("fio")])
                    .build_dfs();
                let dpu = run_fio(&mut dpu_world, &ab_spec(rw, bs));
                let s = dpu_world.client.dpu_stats();
                offload_totals.merge(s);
                // Per offloaded op (a serial op pays a submit AND a poll).
                let handoff_us_per_op =
                    s.handoff_wait.as_secs_f64() * 1e6 / s.ops_offloaded.max(1) as f64;
                cells.push(DpuAbCell {
                    transport,
                    rw,
                    bs,
                    host_gib_s: host.gib_per_sec(),
                    dpu_gib_s: dpu.gib_per_sec(),
                    handoff_us_per_op,
                });
            }
        }
    }
    (cells, offload_totals)
}

/// The contended multi-tenant cell: a 64 MiB/s tenant and an unthrottled
/// one share the offloaded client (two jobs each). Returns
/// (capped admitted bytes, greedy admitted bytes, capped throttled ops,
/// capped cumulative throttle wait in ms) over the 0.1 s virtual run.
fn qos_contended_cell() -> (u64, u64, u64, f64) {
    let capped = DpuTenantSpec {
        name: "capped".into(),
        qos: QosLimits {
            ops_per_sec: 1_000_000,
            bytes_per_sec: 64 << 20,
            burst: (1 << 20, 1 << 20),
        },
        rkey_scope: SimDuration::from_secs(30),
    };
    let mut w = WorldSpec::single(ClientPlacement::Dpu)
        .jobs(4)
        .region(AB_REGION)
        .mode(DataMode::Null)
        .offload(vec![capped, DpuTenantSpec::unlimited("greedy")])
        .build_dfs();
    run_fio(
        &mut w,
        &JobSpec::new(RwMode::Write, 1 << 20, 4)
            .iodepth(4)
            .region(AB_REGION)
            .windows(SimDuration::from_millis(20), SimDuration::from_millis(80)),
    );
    let client = w.client.offloaded().expect("offloaded world");
    let capped_ctx = client.tenants().tenant("capped").unwrap();
    let greedy_ctx = client.tenants().tenant("greedy").unwrap();
    (
        capped_ctx.qos.admitted.1,
        greedy_ctx.qos.admitted.1,
        capped_ctx.qos.throttled,
        capped_ctx.qos.throttle_wait.as_secs_f64() * 1e3,
    )
}

fn metadata_engine() -> DaosEngine {
    let bdevs = BdevLayer::new(NvmeArray::new(
        NvmeModel::enterprise_1600(),
        4,
        DataMode::Stored,
    ));
    let mut e = DaosEngine::new(
        "pool0",
        bdevs,
        256 << 20,
        DaosCostModel::default_model(),
        CoreClass::HostX86,
    );
    e.cont_create("c").unwrap();
    e
}

/// Warm per-op wall cost of the engine metadata path: SCM-resident single
/// values through the full update/fetch pipeline (placement hash, inline
/// keys, index probe, media write/read, CRC seed/verify, xstream grant).
/// Returns (update_ns, fetch_ns).
fn metadata_path_microbench(ops: u64) -> (f64, f64) {
    let mut e = metadata_engine();
    let oid = ObjectId::new(ObjClass::Sx, 5);
    let payload = Bytes::from_static(&[0x5Au8; 256]);
    // Warm: touch every dkey once.
    for i in 0..ops {
        let epoch = e.next_epoch("c").unwrap();
        e.update(
            SimTime::ZERO,
            "c",
            oid,
            DKey::from_u64(i % 1024),
            AKey::from_str("v"),
            ValueKind::Single,
            epoch,
            payload.clone(),
        )
        .unwrap();
    }
    let t0 = Instant::now();
    for i in 0..ops {
        let epoch = e.next_epoch("c").unwrap();
        e.update(
            SimTime::ZERO,
            "c",
            oid,
            DKey::from_u64(i % 1024),
            AKey::from_str("v"),
            ValueKind::Single,
            epoch,
            payload.clone(),
        )
        .unwrap();
    }
    let update_ns = t0.elapsed().as_nanos() as f64 / ops as f64;
    let t1 = Instant::now();
    for i in 0..ops {
        e.fetch(
            SimTime::ZERO,
            "c",
            oid,
            &DKey::from_u64(i % 1024),
            &AKey::from_str("v"),
            ValueKind::Single,
            Epoch::LATEST,
            256,
        )
        .unwrap();
    }
    let fetch_ns = t1.elapsed().as_nanos() as f64 / ops as f64;
    (update_ns, fetch_ns)
}

fn main() {
    // Untimed warmup: one full batched pass so the measured passes start
    // with a hot allocator and faulted-in heap (the PR 2 harness measured
    // its first pass cold and booked the warmup cost to the fast path).
    for &(t, p, rw, bs, j, q) in &cells(JOBS, 8) {
        cell(t, p, rw, bs, j, q, false);
    }

    // Contended sweep, per-cell alternating A/B.
    let (fast, slow) = ab_sweep(JOBS, 8);
    let uncontended = uncontended_sweep();

    // PR 4: host-vs-DPU A/B over simulated throughput + the contended
    // multi-tenant QoS cell (both deterministic virtual-time results).
    let (dpu_cells, dpu_totals) = host_vs_dpu_sweep();
    let (qos_capped_bytes, qos_greedy_bytes, qos_throttled, qos_wait_ms) = qos_contended_cell();

    let (seed_ms, new_ms) = booking_core_microbench(150_000);
    let core_speedup = seed_ms / new_ms.max(1e-9);
    let (wire_fast_ms, wire_slow_ms) = wire_traversal_microbench();
    let wire_speedup = wire_slow_ms / wire_fast_ms.max(1e-9);
    let (meta_update_ns, meta_fetch_ns) = metadata_path_microbench(200_000);

    let hit_rate = uncontended.stats.hit_rate();
    let contended_hit_rate = fast.stats.hit_rate();
    let traversal_rate = fast.batched as f64 / (fast.batched + fast.per_segment).max(1) as f64;
    let sweep_batched_speedup = slow.wall_ms / fast.wall_ms.max(1e-9);
    let total_ops = fast.ops + uncontended.ops;

    // Data-plane counters: uncontended (sequential-regime) pass is the
    // headline zero-copy gate; the contended pass is reported alongside.
    let zero_copy_rate = uncontended.dp.zero_copy_rate();
    let zero_copy_rate_contended = fast.dp.zero_copy_rate();
    let mut dp_total = fast.dp;
    dp_total.merge(uncontended.dp);
    let speedup_vs_pr3 = PR3_SWEEP_WALL_MS / fast.wall_ms.max(1e-9);
    let speedup_vs_pr2 = PR2_SWEEP_WALL_MS / fast.wall_ms.max(1e-9);
    let speedup_vs_pr1 = PR1_SWEEP_WALL_MS / fast.wall_ms.max(1e-9);

    // Aggregate host-vs-DPU ratios for the gate: RDMA large-block parity
    // and the RDMA small-I/O gap (the paper's Fig. 5d shape).
    let ratio = |t: Transport, rw: RwMode, bs: u64| {
        let c = dpu_cells
            .iter()
            .find(|c| c.transport == t && c.rw == rw && c.bs == bs)
            .expect("cell exists");
        c.dpu_gib_s / c.host_gib_s.max(1e-12)
    };
    let dpu_rdma_large_ratio = (ratio(Transport::Rdma, RwMode::Read, 1 << 20)
        + ratio(Transport::Rdma, RwMode::Write, 1 << 20))
        / 2.0;
    let dpu_rdma_small_ratio = (ratio(Transport::Rdma, RwMode::Read, 4 << 10)
        + ratio(Transport::Rdma, RwMode::Write, 4 << 10))
        / 2.0;
    let dpu_tcp_read_ratio = ratio(Transport::Tcp, RwMode::Read, 1 << 20);

    println!(
        "fig5-style sweep, {} A/B cells x {JOBS} jobs + {} uncontended cells",
        cells(JOBS, 8).len(),
        cells(1, 1).len()
    );
    println!(
        "  batched pass:     {:9.1} ms wall  ({speedup_vs_pr2:.2}x vs PR2 baseline {PR2_SWEEP_WALL_MS:.1} ms, {speedup_vs_pr1:.2}x vs PR1)",
        fast.wall_ms
    );
    println!(
        "  per-segment pass: {:9.1} ms wall  (sweep-level batched speedup {sweep_batched_speedup:.3}x)",
        slow.wall_ms
    );
    println!(
        "  traverse_wire A/B: batched {wire_fast_ms:.1} ms vs per-segment {wire_slow_ms:.1} ms \
         ({wire_speedup:.2}x, gated >= 1.0)"
    );
    println!("  uncontended pass: {:9.1} ms wall", uncontended.wall_ms);
    println!("  ops simulated:    {total_ops}");
    println!(
        "  booking fast-path hit rate: {:.4} uncontended ({}/{}), {:.4} contended",
        hit_rate, uncontended.stats.fastpath_hits, uncontended.stats.bookings, contended_hit_rate
    );
    println!(
        "  wire traversals batched:    {traversal_rate:.4} ({}/{})",
        fast.batched,
        fast.batched + fast.per_segment
    );
    println!(
        "  zero-copy byte rate:        {zero_copy_rate:.4} sequential ({}/{} bytes), \
         {zero_copy_rate_contended:.4} contended",
        uncontended.dp.bytes_zero_copy,
        uncontended.dp.bytes_zero_copy + uncontended.dp.bytes_copied
    );
    println!(
        "  crc: {} bytes scanned, {} combines, {} cache seeds, hw acceleration {}",
        dp_total.crc_bytes_scanned,
        dp_total.crc_combines,
        dp_total.crc_cache_seeded,
        ros2_buf::hw_acceleration()
    );
    println!(
        "  metadata path: {meta_update_ns:.0} ns/update, {meta_fetch_ns:.0} ns/fetch (warm, SCM single values)"
    );
    println!(
        "  booking core (150k steady-state bookings): seed {seed_ms:.1} ms -> {new_ms:.1} ms \
         ({core_speedup:.0}x)"
    );
    assert!(
        hit_rate > 0.9,
        "uncontended fast-path hit rate {hit_rate:.4} must exceed 0.9"
    );
    assert!(
        zero_copy_rate > 0.9,
        "sequential zero-copy rate {zero_copy_rate:.4} must exceed 0.9"
    );
    assert!(
        wire_speedup >= 1.0,
        "batched wire traversal must not be slower than per-segment \
         (speedup {wire_speedup:.3}; the PR2 harness recorded 0.82 by \
         measuring its first full pass cold — see the header)"
    );
    println!("host-vs-DPU A/B (simulated GiB/s, host | offloaded):");
    for c in &dpu_cells {
        println!(
            "  {:>4} {:>5} {:>7}: {:>7.3} | {:<7.3} ({:.2}x, handoff {:.1} us/op)",
            c.transport.label(),
            c.rw.label(),
            if c.bs >= 1 << 20 { "1m" } else { "4k" },
            c.host_gib_s,
            c.dpu_gib_s,
            c.dpu_gib_s / c.host_gib_s.max(1e-12),
            c.handoff_us_per_op,
        );
    }
    println!(
        "  rdma ratios: large {dpu_rdma_large_ratio:.3}, small {dpu_rdma_small_ratio:.3}; \
         tcp 1m read ratio {dpu_tcp_read_ratio:.3}"
    );
    println!(
        "  offload totals: {} ops, {} B admitted, {} rkey refreshes, {} B checksummed on-DPU",
        dpu_totals.ops_offloaded,
        dpu_totals.bytes_admitted,
        dpu_totals.rkey_refreshes,
        dpu_totals.crc_bytes,
    );
    println!(
        "  qos contended cell: capped {:.1} MiB admitted ({} throttles, {:.0} ms queued), \
         greedy {:.1} MiB",
        qos_capped_bytes as f64 / (1 << 20) as f64,
        qos_throttled,
        qos_wait_ms,
        qos_greedy_bytes as f64 / (1 << 20) as f64,
    );
    assert_eq!(
        total_ops, OPS_SIMULATED_PIN,
        "the legacy sweep's simulated ops are pinned: the host-placement \
         control arm must stay bit-identical across the offload work"
    );
    // Offload gates (virtual-time, deterministic). RDMA large blocks stay
    // near host parity; serial small I/O trails the host by the handoff
    // and the slower ARM path but no longer queues on one ARM core per job
    // (0.62 before the lane pool, 0.82 with it); QoS admission measurably
    // shapes the capped tenant while the greedy one runs at data-plane
    // speed.
    assert!(
        dpu_rdma_large_ratio > 0.80,
        "offloaded RDMA large-block throughput must stay near host parity \
         (ratio {dpu_rdma_large_ratio:.3})"
    );
    assert!(
        (0.70..1.0).contains(&dpu_rdma_small_ratio),
        "serial offloaded RDMA small-I/O must trail the host (ARM path + \
         handoff) without re-serializing on a per-job core \
         (ratio {dpu_rdma_small_ratio:.3})"
    );
    assert!(
        qos_throttled > 0 && qos_capped_bytes < qos_greedy_bytes / 5,
        "QoS admission must shape the capped tenant: capped {qos_capped_bytes} B \
         ({qos_throttled} throttles) vs greedy {qos_greedy_bytes} B"
    );
    let qos_bound = (64u64 << 20) / 10 + (1 << 20) + 8 * (1 << 20);
    assert!(
        qos_capped_bytes <= qos_bound,
        "capped tenant admitted {qos_capped_bytes} B > cap+burst+inflight bound {qos_bound} B"
    );

    let mut ab_json = String::from("[");
    for (i, c) in dpu_cells.iter().enumerate() {
        if i > 0 {
            ab_json.push_str(", ");
        }
        ab_json.push_str(&format!(
            "{{\"transport\": \"{}\", \"rw\": \"{}\", \"bs\": {}, \
             \"host_gib_s\": {:.4}, \"dpu_gib_s\": {:.4}, \"handoff_us_per_op\": {:.2}}}",
            c.transport.label(),
            c.rw.label(),
            c.bs,
            c.host_gib_s,
            c.dpu_gib_s,
            c.handoff_us_per_op,
        ));
    }
    ab_json.push(']');

    let json = format!(
        "{{\n  \"sweep_wall_ms\": {:.1},\n  \"per_segment_wall_ms\": {:.1},\n  \
         \"uncontended_wall_ms\": {:.1},\n  \"baseline_pr3_sweep_wall_ms\": {PR3_SWEEP_WALL_MS:.1},\n  \
         \"baseline_pr2_sweep_wall_ms\": {PR2_SWEEP_WALL_MS:.1},\n  \
         \"baseline_pr1_sweep_wall_ms\": {PR1_SWEEP_WALL_MS:.1},\n  \
         \"speedup_vs_pr3\": {speedup_vs_pr3:.2},\n  \
         \"speedup_vs_pr2\": {speedup_vs_pr2:.2},\n  \"speedup_vs_pr1\": {speedup_vs_pr1:.2},\n  \
         \"wire_batched_speedup\": {wire_speedup:.3},\n  \
         \"sweep_batched_speedup\": {sweep_batched_speedup:.3},\n  \
         \"wire_microbench_batched_ms\": {wire_fast_ms:.1},\n  \
         \"wire_microbench_per_segment_ms\": {wire_slow_ms:.1},\n  \
         \"booking_core_seed_ms\": {seed_ms:.1},\n  \"booking_core_ms\": {new_ms:.1},\n  \
         \"booking_core_speedup\": {core_speedup:.1},\n  \
         \"metadata_update_ns\": {meta_update_ns:.0},\n  \"metadata_fetch_ns\": {meta_fetch_ns:.0},\n  \
         \"ops_simulated\": {total_ops},\n  \"fastpath_hit_rate\": {hit_rate:.4},\n  \
         \"fastpath_hit_rate_contended\": {contended_hit_rate:.4},\n  \
         \"wire_batched_rate\": {traversal_rate:.4},\n  \
         \"zero_copy_read_rate\": {zero_copy_rate:.4},\n  \
         \"zero_copy_rate_contended\": {zero_copy_rate_contended:.4},\n  \
         \"bytes_zero_copy\": {},\n  \"bytes_copied\": {},\n  \
         \"crc_bytes_scanned\": {},\n  \"crc_combines\": {},\n  \
         \"crc_cache_seeded\": {},\n  \
         \"crc_hw_acceleration\": {},\n  \
         \"dpu_rdma_large_ratio\": {dpu_rdma_large_ratio:.4},\n  \
         \"dpu_rdma_small_ratio\": {dpu_rdma_small_ratio:.4},\n  \
         \"dpu_tcp_read_ratio\": {dpu_tcp_read_ratio:.4},\n  \
         \"dpu_ops_offloaded\": {},\n  \
         \"dpu_bytes_admitted\": {},\n  \
         \"dpu_rkey_refreshes\": {},\n  \
         \"dpu_crc_bytes\": {},\n  \
         \"qos_capped_admitted_bytes\": {qos_capped_bytes},\n  \
         \"qos_greedy_admitted_bytes\": {qos_greedy_bytes},\n  \
         \"qos_capped_throttled_ops\": {qos_throttled},\n  \
         \"qos_capped_throttle_wait_ms\": {qos_wait_ms:.1},\n  \
         \"host_vs_dpu\": {ab_json}\n}}\n",
        fast.wall_ms,
        slow.wall_ms,
        uncontended.wall_ms,
        dp_total.bytes_zero_copy,
        dp_total.bytes_copied,
        dp_total.crc_bytes_scanned,
        dp_total.crc_combines,
        dp_total.crc_cache_seeded,
        ros2_buf::hw_acceleration(),
        dpu_totals.ops_offloaded,
        dpu_totals.bytes_admitted,
        dpu_totals.rkey_refreshes,
        dpu_totals.crc_bytes,
    );
    std::fs::write("BENCH_PR4.json", &json).expect("write BENCH_PR4.json");
    println!("wrote BENCH_PR4.json");
}
