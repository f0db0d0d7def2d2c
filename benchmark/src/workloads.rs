//! The six workloads as plain data: what is built, what is driven, for how
//! long in virtual time, and why the workload exists.

use crate::tape::Mix;

/// Where the object client runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ClientSide {
    /// In-process on host x86 cores.
    Host,
    /// The real offload: the whole client on the BlueField-3.
    Offloaded,
}

/// Data-plane transport.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Wire {
    /// RDMA verbs.
    Rdma,
    /// Kernel TCP.
    Tcp,
}

/// One scheduled engine kill.
#[derive(Copy, Clone, Debug)]
pub struct Kill {
    /// Engine slot that dies.
    pub slot: usize,
    /// Client ops into the run at which it dies.
    pub after_ops: u64,
    /// Delay before the new pool map reaches the clients (µs).
    pub ras_delay_us: u64,
}

/// One workload: the world it needs and the closed loop driven against it.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line).
    pub why: &'static str,
    /// Client placement.
    pub client: ClientSide,
    /// Transport.
    pub wire: Wire,
    /// Storage engines (1 = the two-node world, more = a cluster).
    pub engines: usize,
    /// Replication factor.
    pub replication: usize,
    /// Client nodes.
    pub clients: usize,
    /// Engine-side connection-pool slots (cluster worlds).
    pub pool_capacity: usize,
    /// Whether the drives keep payload bytes (`Stored`) or drop them (`Null`).
    pub stored: bool,
    /// Jobs per client.
    pub jobs: usize,
    /// Outstanding ops per job.
    pub iodepth: usize,
    /// Block size.
    pub bs: u64,
    /// Preconditioned bytes per job file.
    pub region: u64,
    /// Random offsets (else sequential).
    pub random: bool,
    /// DPU read-cache carve, if any.
    pub cache_bytes: Option<u64>,
    /// Phases, each on a fresh world: two pure phases (reads, then writes)
    /// or one mixed phase.
    pub phases: &'static [Mix],
    /// Virtual ramp before the measured window (µs).
    pub ramp_us: u64,
    /// Virtual measured window (µs).
    pub window_us: u64,
    /// Engine kill during the run, if any.
    pub kill: Option<Kill>,
}

impl Shape {
    /// Total jobs across all clients.
    pub fn total_jobs(&self) -> usize {
        self.clients * self.jobs
    }
}

const PURE: &[Mix] = &[Mix::Reads, Mix::Writes];

/// Most SCM records one world may gain in a run. 4 KiB records fill the
/// 2 GiB SCM pool after 524 288 writes and nothing reclaims it, so the
/// small-write windows are sized to stay well under this.
pub const SCM_RECORD_CAP: u64 = 300_000;

/// The six workloads. `quick` shortens every window to a smoke-test length
/// whose numbers are not for reporting.
pub fn all(quick: bool) -> Vec<Shape> {
    let base = Shape {
        name: "",
        why: "",
        client: ClientSide::Offloaded,
        wire: Wire::Rdma,
        engines: 1,
        replication: 1,
        clients: 1,
        pool_capacity: 0,
        stored: false,
        jobs: 4,
        iodepth: 8,
        bs: 1 << 20,
        region: 64 << 20,
        random: false,
        cache_bytes: None,
        phases: PURE,
        ramp_us: 20_000,
        window_us: 800_000,
        kill: None,
    };
    let small = Shape {
        iodepth: 16,
        bs: 4 << 10,
        region: 16 << 20,
        random: true,
        ramp_us: 10_000,
        window_us: 190_000,
        ..base.clone()
    };
    let mut out = vec![
        Shape {
            name: "large_seq_dpu_rdma",
            why: "1 MiB sequential, offloaded client, RDMA: bandwidth-bound, per-op DPU costs amortised, so a per-op optimisation must show no change here",
            ..base.clone()
        },
        Shape {
            name: "small_rand_dpu_rdma",
            why: "4 KiB random, offloaded client, cache off: per-op doorbell, ARM CRC, descriptor channel, xstream and VOS index dominate (the offload gap)",
            ..small.clone()
        },
        Shape {
            name: "small_rand_host_rdma",
            why: "same tape on a host client: shared daos/fabric/engine code with no dpu layer on the path, the reference arm for DPU-only changes",
            client: ClientSide::Host,
            ..small
        },
        Shape {
            name: "large_seq_dpu_tcp",
            why: "large_seq_dpu_rdma over TCP: the paper's contrast cell, where segment booking and the DPU TCP receive cap do most of the work",
            wire: Wire::Tcp,
            ..base.clone()
        },
        Shape {
            name: "cluster_incast_kill",
            why: "16 host clients on a 4-engine RF2 cluster, 8 pool slots, 75/25 mix, one engine killed mid-run: placement, fan-out, pool thrash, fence/retry ladder, degraded reads",
            client: ClientSide::Host,
            engines: 4,
            replication: 2,
            clients: 16,
            pool_capacity: 8,
            stored: true,
            jobs: 1,
            iodepth: 2,
            region: 32 << 20,
            random: true,
            phases: &[Mix::ReadPercent(75)],
            ramp_us: 20_000,
            window_us: 1_200_000,
            kill: Some(Kill {
                slot: 1,
                after_ops: 2000,
                ras_delay_us: 5000,
            }),
            ..base.clone()
        },
        Shape {
            name: "cache_mixed_dpu",
            why: "16 KiB random 90/10 mix over a working set that fits the DPU read cache: writers beside readers, so misses come only from invalidation",
            stored: true,
            bs: 16 << 10,
            region: 2 << 20,
            random: true,
            cache_bytes: Some(16 << 20),
            phases: &[Mix::ReadPercent(90)],
            ramp_us: 10_000,
            window_us: 290_000,
            ..base
        },
    ];
    if quick {
        for w in &mut out {
            w.ramp_us /= 10;
            w.window_us /= 10;
            if let Some(k) = &mut w.kill {
                k.after_ops /= 10;
            }
        }
    }
    out
}
