//! The three ablations (`ablation_rendezvous`, `ablation_isolation`,
//! `ablation_gpudirect`): design choices the paper states but never
//! measured — X3 the §3.2 eager/rendezvous split, X2 the §2.3/§5 tenant
//! isolation services, X1 the §3.5 GPUDirect extension. Every claim here
//! is a model claim.

use bytes::Bytes;
use ros2_core::{Ros2Config, Ros2System};
use ros2_dpu::{InlineService, QosLimits};
use ros2_fabric::{Dir, Fabric, NodeSpec};
use ros2_hw::{per_byte, Transport};
use ros2_nvme::DataMode;
use ros2_sim::{SimDuration, SimTime};
use ros2_verbs::MemoryDomain::{self, DpuDram, GpuHbm};
use ros2_verbs::NodeId;

use super::{Check, Claim};

const MIB: u64 = 1 << 20;

// ------------------------------------------------------ X3 rendezvous --

/// Message sizes of the threshold sweep, spanning the crossover.
pub const SIZES: [u64; 7] = [256, 4 << 10, 16 << 10, 64 << 10, 256 << 10, MIB, 4 * MIB];
/// Eager thresholds of the sweep: 0 sends every message by rendezvous,
/// `u64::MAX` every message eagerly.
pub const THRESHOLDS: [u64; 5] = [0, 4 << 10, 16 << 10, 64 << 10, u64::MAX];

/// One-way latency (µs) of one `msg`-byte SEND over an idle two-node RDMA
/// fabric whose eager threshold is `threshold`.
pub fn one_way_us(threshold: u64, msg: u64) -> f64 {
    let nodes = vec![NodeSpec::host_client(), NodeSpec::storage_server()];
    let mut fabric = Fabric::new(Transport::Rdma, nodes, 1);
    fabric.set_eager_threshold(threshold);
    let pd_a = fabric.rdma_mut(NodeId(0)).alloc_pd("a");
    let pd_b = fabric.rdma_mut(NodeId(1)).alloc_pd("b");
    let conn = fabric.connect(NodeId(0), NodeId(1), pd_a, pd_b).unwrap();
    let d = fabric
        .send(
            SimTime::ZERO,
            conn,
            Dir::AtoB,
            Bytes::from(vec![0u8; msg as usize]),
        )
        .unwrap();
    d.at.as_secs_f64() * 1e6
}

/// Model claim: eager skips the handshake round trip, so it beats
/// rendezvous for every swept message of 4 KiB or less.
const EAGER_WINS_SMALL: Claim =
    Claim::at_least("X3 ≤ 4 KiB: rendezvous / eager latency (least)", 1.0);
/// Model claim: rendezvous skips the receiver copy, so it beats eager for
/// every swept message of 256 KiB or more.
const RENDEZVOUS_WINS_LARGE: Claim =
    Claim::at_least("X3 ≥ 256 KiB: eager / rendezvous latency (least)", 1.0);
/// Model claim: the crossover lies inside the swept sizes — the first
/// swept size at which rendezvous wins is neither the smallest nor past
/// the largest. (It lies between 64 and 256 KiB, far above the fabric's
/// 8 KiB default threshold: DESIGN.md §8.)
const CROSSOVER: Claim = Claim::new(
    "X3 first swept size where rendezvous wins (KiB)",
    4.0,
    4096.0,
);

/// The threshold claims, valued on `latency` ([`one_way_us`] or a lookup
/// into a finished sweep).
pub fn rendezvous_claims(latency: impl Fn(u64, u64) -> f64) -> Vec<Check> {
    // Rendezvous over eager latency: above 1, eager wins.
    let ratio = |msg| latency(0, msg) / latency(u64::MAX, msg);
    let small = SIZES.iter().filter(|&&m| m <= 4 << 10).map(|&m| ratio(m));
    let large = SIZES
        .iter()
        .filter(|&&m| m >= 256 << 10)
        .map(|&m| 1.0 / ratio(m));
    let crossover = SIZES
        .iter()
        .find(|&&m| ratio(m) < 1.0)
        .map_or(f64::INFINITY, |&m| m as f64 / 1024.0);
    vec![
        (&EAGER_WINS_SMALL, small.fold(f64::INFINITY, f64::min)),
        (&RENDEZVOUS_WINS_LARGE, large.fold(f64::INFINITY, f64::min)),
        (&CROSSOVER, crossover),
    ]
}

// ------------------------------------------------------- X2 isolation --

/// Sequential 1 MiB writes per arm; the synchronous API runs them at
/// queue depth 1, so latency is the primary signal.
const WRITES: u64 = 64;
/// The QoS cap, chosen below the QD-1 write rate so enforcement shows:
/// 100 MiB/s with an 8 MiB burst.
const CAP: QosLimits = QosLimits {
    ops_per_sec: 2_000,
    bytes_per_sec: 100 << 20,
    burst: (16, 8 << 20),
};
/// The arms: label, inline service, and QoS cap (`None`: unlimited). The
/// first is the baseline the others are compared with.
pub const ISOLATION_ARMS: [(&str, InlineService, Option<QosLimits>); 4] = [
    (
        "baseline (no isolation services)",
        InlineService::None,
        None,
    ),
    ("inline crypto", InlineService::Crypto, None),
    ("QoS 100 MiB/s cap", InlineService::None, Some(CAP)),
    ("crypto + QoS cap", InlineService::Crypto, Some(CAP)),
];

/// One isolation arm's pass.
#[derive(Copy, Clone, Debug)]
pub struct IsolationArm {
    /// Mean write latency (µs).
    pub mean_latency_us: f64,
    /// Effective bandwidth over the pass.
    pub gib_s: f64,
    /// Simulated time the pass took.
    pub elapsed: SimDuration,
}

/// 64 sequential 1 MiB writes from the offloaded client over RDMA
/// to 4 SSDs, with `service` inline and `cap` enforced on the DPU.
pub fn isolation(service: InlineService, cap: Option<QosLimits>) -> IsolationArm {
    let mut sys = Ros2System::launch(Ros2Config {
        inline_service: service,
        qos: cap.unwrap_or_else(QosLimits::unlimited),
        ssds: 4,
        jobs: 8,
        data_mode: DataMode::Null,
        ..Ros2Config::default()
    })
    .unwrap();
    let mut f = sys.create("/ablate.bin").unwrap().value;
    let t0 = sys.now();
    let mut lat_sum = 0.0;
    for i in 0..WRITES {
        let w = sys
            .write(&mut f, i * MIB, Bytes::from(vec![0u8; MIB as usize]))
            .unwrap();
        lat_sum += w.latency.as_secs_f64();
    }
    let elapsed = sys.now().saturating_since(t0);
    IsolationArm {
        mean_latency_us: lat_sum * 1e6 / WRITES as f64,
        gib_s: (WRITES * MIB) as f64 / elapsed.as_secs_f64() / (1u64 << 30) as f64,
        elapsed,
    }
}

/// Model claim: inline crypto adds under 1 % to a 1 MiB write (the
/// fixed-function engine runs at ~50 GB/s).
const CRYPTO_OVERHEAD: Claim = Claim::new(
    "X2 inline crypto vs baseline, mean write latency (%)",
    0.0,
    1.0,
);
/// Model claim: the cap paces the pass. The burst passes free, the rest
/// at the cap, so the pass takes at least `(64 MiB − 8 MiB) / 100 MiB/s`
/// = 0.56 s; 1 % tolerance below, and at most 5 % above (the last writes'
/// own latency). At QD 1 each write's wait for tokens is part of its
/// latency.
const CAP_PACES: Claim = Claim::new("X2 capped pass / ((64 − 8) MiB at 100 MiB/s)", 0.99, 1.05);
/// Model claim: crypto and the cap compose — crypto on a capped lane
/// changes its mean write latency by under 0.1 %.
const CRYPTO_UNDER_CAP: Claim = Claim::new(
    "X2 crypto + cap vs cap alone, mean write latency (%)",
    -0.1,
    0.1,
);

/// The isolation claims, valued on the [`ISOLATION_ARMS`] passes in
/// order.
pub fn isolation_claims(arms: &[IsolationArm; 4]) -> Vec<Check> {
    let [base, crypto, capped, both] = arms;
    let pct =
        |a: &IsolationArm, b: &IsolationArm| (a.mean_latency_us / b.mean_latency_us - 1.0) * 100.0;
    let floor = (WRITES * MIB - CAP.burst.1) as f64 / CAP.bytes_per_sec as f64;
    vec![
        (&CRYPTO_OVERHEAD, pct(crypto, base)),
        (&CAP_PACES, capped.elapsed.as_secs_f64() / floor),
        (&CRYPTO_UNDER_CAP, pct(both, capped)),
    ]
}

// ------------------------------------------------------ X1 GPUDirect --

/// 1 MiB reads per arm.
pub const READS: u64 = 64;
/// The arms: label and the memory domain reads land in.
pub const GPUDIRECT_ARMS: [(&str, MemoryDomain); 2] = [
    ("DPU DRAM + host staging copy (prototype)", DpuDram),
    ("GPU HBM via GPUDirect RDMA (extension)", GpuHbm),
];

/// Host-mediated staging cost of moving `bytes` from DPU DRAM to GPU HBM:
/// PCIe Gen4 x16 effective (44 ps/B ≈ 21 GiB/s) plus a fixed 6 µs
/// host-wakeup/launch cost per transfer. This is the leg GPUDirect
/// removes.
pub fn staging_cost(bytes: u64) -> SimDuration {
    SimDuration::from_micros(6) + per_byte(bytes, 44)
}

/// One GPUDirect arm's pass.
#[derive(Copy, Clone, Debug)]
pub struct GpuDirectArm {
    /// Batch-read bandwidth, staging included.
    pub gib_s: f64,
    /// Mean read latency (µs), staging included.
    pub mean_latency_us: f64,
    /// Summed read latency, staging included.
    pub latency_sum: SimDuration,
}

/// [`READS`] sequential 1 MiB reads by the offloaded client over RDMA from
/// 4 SSDs into `domain`; a DPU-DRAM read then pays [`staging_cost`] to
/// reach the GPU.
pub fn gpudirect(domain: MemoryDomain) -> GpuDirectArm {
    let mut sys = Ros2System::launch(Ros2Config {
        buffer_domain: domain,
        ssds: 4,
        jobs: 8,
        data_mode: DataMode::Null,
        ..Ros2Config::default()
    })
    .unwrap();
    let mut f = sys.create("/batch.bin").unwrap().value;
    sys.write(&mut f, 0, Bytes::from(vec![0u8; (READS * MIB) as usize]))
        .unwrap();
    let staging = if domain == GpuHbm {
        SimDuration::ZERO // data already in GPU HBM
    } else {
        staging_cost(MIB) // extra DPU->host->GPU leg
    };
    let t0 = sys.now();
    let mut latency_sum = SimDuration::ZERO;
    for i in 0..READS {
        latency_sum += sys.read(&f, i * MIB, MIB).unwrap().latency + staging;
    }
    let elapsed = sys.now().saturating_since(t0) + staging.saturating_mul(READS);
    GpuDirectArm {
        gib_s: (READS * MIB) as f64 / elapsed.as_secs_f64() / (1u64 << 30) as f64,
        mean_latency_us: latency_sum.as_secs_f64() * 1e6 / READS as f64,
        latency_sum,
    }
}

/// Model claim: GPUDirect saves exactly the staging copy on every read,
/// `staging_cost(1 MiB)` = 6 µs + 44 ps/B × 1 MiB = 52.137 µs.
const STAGING_SAVED: Claim = Claim::new(
    "X1 mean read latency, staged − GPUDirect (µs)",
    52.13,
    52.14,
);
/// Model claim: at queue depth 1 the batch bandwidth is not lower
/// without the copy.
const BANDWIDTH_KEPT: Claim = Claim::at_least("X1 batch-read bandwidth, GPUDirect / staged", 1.0);

/// The GPUDirect claims, valued on the [`GPUDIRECT_ARMS`] passes in order.
pub fn gpudirect_claims([staged, direct]: &[GpuDirectArm; 2]) -> Vec<Check> {
    vec![
        (
            &STAGING_SAVED,
            staged.mean_latency_us - direct.mean_latency_us,
        ),
        (&BANDWIDTH_KEPT, direct.gib_s / staged.gib_s),
    ]
}
