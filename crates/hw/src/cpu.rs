//! CPU and software-path cost models: host x86 cores, BlueField-3 ARM cores,
//! per-transport per-operation costs, and the shared kernel block-layer
//! stage that produces the paper's local "software/host-path limit".
//!
//! Costs are expressed for a *host-grade* core (EPYC 7443 class) and scaled
//! by [`CoreClass::speed_factor`] when they run on DPU ARM cores. The DPU
//! TCP **receive** path carries an additional per-byte multiplier and a
//! limited receive-queue spread — together these reproduce the paper's
//! central DPU finding: "good TX, weak RX".

use ros2_sim::SimDuration;

/// Which silicon a cost executes on.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum CoreClass {
    /// Server-grade x86 core (AMD EPYC 7443, §4.1).
    HostX86,
    /// BlueField-3 Arm Cortex-A78AE core.
    DpuArm,
}

impl CoreClass {
    /// Throughput of one core relative to a host core.
    ///
    /// The A78AE runs at lower clocks with a smaller memory subsystem; 0.55×
    /// is consistent with published BlueField-3 per-core comparisons and
    /// yields the paper's 20–40 % DPU small-I/O gap once the rest of the
    /// stack is accounted for.
    fn speed_factor(self) -> f64 {
        match self {
            CoreClass::HostX86 => 1.0,
            CoreClass::DpuArm => 0.55,
        }
    }

    /// Scales a host-calibrated cost to this core class.
    pub fn scale(self, host_cost: SimDuration) -> SimDuration {
        match self {
            CoreClass::HostX86 => host_cost,
            CoreClass::DpuArm => host_cost.mul_f64(1.0 / self.speed_factor()),
        }
    }
}

/// Picoseconds-per-byte helper: `bytes * ps_per_byte` as a duration.
pub fn per_byte(bytes: u64, ps_per_byte: u64) -> SimDuration {
    SimDuration::from_nanos((bytes as u128 * ps_per_byte as u128 / 1000) as u64)
}

/// CPU cost table for one transport direction, calibrated for a host core.
#[derive(Copy, Clone, Debug)]
pub struct TransportCost {
    /// Fixed per-operation cost on the sending core.
    pub send_per_op: SimDuration,
    /// Per-byte sending cost (picoseconds per byte) — copies, segmentation.
    pub send_ps_per_byte: u64,
    /// Fixed per-operation cost on the receiving core.
    pub recv_per_op: SimDuration,
    /// Per-byte receive cost (ps/B) — copies, reassembly, checksums.
    pub recv_ps_per_byte: u64,
    /// Per-message time on a *serialized* per-connection stage (per-socket
    /// ordered protocol processing).
    pub serialized_per_op: SimDuration,
    /// Per-message time on the node-wide serialized kernel stage (softirq
    /// bottom half; zero for kernel-bypass transports). This is what keeps
    /// TCP small-I/O from scaling with cores in Fig. 4c: a 4 KiB I/O is two
    /// messages, so the host TCP node cap lands near
    /// `1 / (2 × 1.1 µs) ≈ 455 K` IOPS — matching both the Fig. 4c plateau
    /// and the Fig. 5c host-TCP band.
    pub kernel_per_msg: SimDuration,
}

impl TransportCost {
    /// Kernel TCP over the ConnectX NIC (host calibration).
    ///
    /// ~4 µs of socket work per message on each end plus copy costs; the
    /// serialized kernel stage caps a node near 455 K 4 KiB IOPS no matter
    /// how many cores poll — the "limited benefit from additional
    /// client/server cores" of Fig. 4c.
    pub fn tcp() -> Self {
        TransportCost {
            send_per_op: SimDuration::from_nanos(4_000),
            send_ps_per_byte: 120,
            recv_per_op: SimDuration::from_nanos(4_000),
            recv_ps_per_byte: 180,
            serialized_per_op: SimDuration::from_nanos(2_000),
            kernel_per_msg: SimDuration::from_nanos(1_100),
        }
    }

    /// RDMA (UCX `rc`/`dc_x` or libfabric verbs) — kernel bypass, zero copy.
    ///
    /// The initiator spends ~1.2 µs posting and reaping; one-sided data
    /// placement costs the responder CPU nothing (the NIC DMAs directly),
    /// and there is no kernel stage at all.
    pub fn rdma() -> Self {
        TransportCost {
            send_per_op: SimDuration::from_nanos(1_200),
            send_ps_per_byte: 0,
            recv_per_op: SimDuration::from_nanos(300),
            recv_ps_per_byte: 0,
            serialized_per_op: SimDuration::from_nanos(450),
            kernel_per_msg: SimDuration::ZERO,
        }
    }
}

/// The DPU's asymmetric TCP penalty (§4.4, §5: "a DPU TCP receive-path
/// bottleneck ... good TX, weak RX").
#[derive(Copy, Clone, Debug)]
pub struct DpuTcpRxModel {
    /// Extra multiplier on per-byte receive cost, on top of the ARM core
    /// slowdown (memory-copy bound on the A78AE's narrower mesh).
    pub rx_byte_multiplier: f64,
    /// How many cores RX flow steering can spread across (RSS queues the
    /// OVS/kernel datapath actually uses on the DPU).
    pub rx_queue_spread: usize,
    /// Per-flow contention: effective per-byte cost grows by this fraction
    /// for every concurrent flow beyond `contention_free_flows` (cache and
    /// mesh thrash). Produces the Fig. 5a four-SSD degradation.
    pub contention_per_flow: f64,
    /// Number of flows served without contention penalty.
    pub contention_free_flows: usize,
}

impl DpuTcpRxModel {
    /// Default BlueField-3 calibration.
    pub fn bluefield3() -> Self {
        DpuTcpRxModel {
            rx_byte_multiplier: 3.4,
            rx_queue_spread: 4,
            contention_per_flow: 0.10,
            contention_free_flows: 8,
        }
    }

    /// Effective RX per-byte cost (ps/B) on the DPU for `flows` concurrent
    /// streams, given the host-calibrated base cost.
    pub fn effective_rx_ps_per_byte(&self, base_ps: u64, flows: usize) -> u64 {
        let arm = CoreClass::DpuArm.speed_factor();
        let contended = 1.0
            + self.contention_per_flow * flows.saturating_sub(self.contention_free_flows) as f64;
        (base_ps as f64 * self.rx_byte_multiplier * contended / arm) as u64
    }
}

/// The host software path for *local* I/O (io_uring through the kernel
/// block layer). The shared stage serializes ~1.6 µs per request across all
/// jobs, capping local 4 KiB IOPS near 600 K regardless of drive count —
/// exactly the Fig. 3b/3d observation that the limit is "software/host-path,
/// not media".
#[derive(Copy, Clone, Debug)]
pub struct HostPathModel {
    /// Per-request submission cost on the submitting job's core (syscall
    /// batch amortized, iovec setup).
    pub per_op_job: SimDuration,
    /// Per-completion reap cost on the job's core (CQE processing).
    pub per_op_reap: SimDuration,
    /// Per-request cost on the shared, serialized block-layer stage.
    pub per_op_shared: SimDuration,
    /// Per-byte kernel DMA-mapping cost on the submitting core (ps/B).
    pub ps_per_byte: u64,
}

impl HostPathModel {
    /// Default Linux io_uring calibration (O_DIRECT, registered buffers).
    pub fn iouring() -> Self {
        HostPathModel {
            per_op_job: SimDuration::from_nanos(1_400),
            per_op_reap: SimDuration::from_nanos(600),
            per_op_shared: SimDuration::from_nanos(1_600),
            ps_per_byte: 12,
        }
    }
}

/// Cost of one CRC32C checksum pass over `bytes` (hardware-assisted, ~12
/// GB/s per host core). DAOS end-to-end checksums pay this on the server.
pub fn checksum_cost(bytes: u64) -> SimDuration {
    per_byte(bytes, 80)
}

/// Cost of one AES-GCM pass over `bytes` on the DPU's inline crypto engine
/// (~50 GB/s fixed-function; effectively free for the data rates here but
/// modelled for the ablation bench).
pub fn inline_crypto_cost(bytes: u64) -> SimDuration {
    per_byte(bytes, 18)
}

/// Cost of one CRC32C pass over `bytes` on the NIC's fixed-function
/// signature engine, the block a work-request chain's verify step runs on.
/// Anchored to the ConnectX-7 signature offload (CRC32C / T10-DIF), which
/// checks payloads as they stream through the port at its 400 Gb/s line
/// rate: 50 GB/s, 20 ps per byte. No core of either class is involved.
pub fn nic_crc_cost(bytes: u64) -> SimDuration {
    per_byte(bytes, 20)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dpu_core_is_slower() {
        let host = SimDuration::from_micros(10);
        let dpu = CoreClass::DpuArm.scale(host);
        assert!(dpu > host);
        let ratio = dpu.as_nanos() as f64 / host.as_nanos() as f64;
        assert!((1.7..2.0).contains(&ratio), "ratio {ratio}");
        assert_eq!(CoreClass::HostX86.scale(host), host);
    }

    #[test]
    fn per_byte_math() {
        // 1 MiB at 120 ps/B = 125.8 us.
        let d = per_byte(1 << 20, 120);
        assert_eq!(d.as_nanos(), (1u64 << 20) * 120 / 1000);
    }

    #[test]
    fn tcp_kernel_stage_caps_small_io() {
        let tcp = TransportCost::tcp();
        // A 4 KiB I/O is a request + a response: two kernel-stage passes
        // per node. The cap lands in the 400-500K band (Fig. 4c plateau,
        // Fig. 5c host band).
        let cap = 1.0 / (2.0 * tcp.kernel_per_msg.as_secs_f64());
        assert!((4.0e5..5.0e5).contains(&cap), "tcp kernel cap {cap}");
        // On DPU silicon the same stage caps near 250K, and with the DPU
        // recv-path costs the end-to-end lands in the paper's 0.18-0.23M.
        let dpu_cap = 1.0 / (2.0 * CoreClass::DpuArm.scale(tcp.kernel_per_msg).as_secs_f64());
        assert!(
            (2.2e5..2.8e5).contains(&dpu_cap),
            "dpu tcp kernel cap {dpu_cap}"
        );
    }

    #[test]
    fn rdma_is_cheaper_than_tcp_everywhere() {
        let tcp = TransportCost::tcp();
        let rdma = TransportCost::rdma();
        assert!(rdma.send_per_op < tcp.send_per_op);
        assert!(rdma.recv_per_op < tcp.recv_per_op);
        assert!(rdma.send_ps_per_byte < tcp.send_ps_per_byte);
        assert!(rdma.serialized_per_op < tcp.serialized_per_op);
        assert_eq!(rdma.kernel_per_msg, SimDuration::ZERO);
    }

    #[test]
    fn dpu_rx_contention_grows_with_flows() {
        let m = DpuTcpRxModel::bluefield3();
        let base = TransportCost::tcp().recv_ps_per_byte;
        let few = m.effective_rx_ps_per_byte(base, 4);
        let many = m.effective_rx_ps_per_byte(base, 32);
        assert!(many > few, "contention must raise cost: {few} -> {many}");
        // Sanity: 4-flow RX throughput across the spread lands in the
        // 1.5-3.5 GiB/s band the paper reports for DPU TCP reads.
        let per_core_bps = 1e12 / few as f64;
        let agg = per_core_bps * m.rx_queue_spread as f64 / (1u64 << 30) as f64;
        assert!((1.5..4.5).contains(&agg), "DPU RX ceiling {agg} GiB/s");
    }

    #[test]
    fn host_path_cap_near_600k() {
        // The shared stage's IOPS ceiling.
        let cap = 1.0 / HostPathModel::iouring().per_op_shared.as_secs_f64();
        assert!((5.5e5..7.0e5).contains(&cap), "host path cap {cap}");
    }

    #[test]
    fn crypto_cheaper_than_checksum_per_byte() {
        assert!(inline_crypto_cost(1 << 20) < checksum_cost(1 << 20));
    }

    #[test]
    fn nic_crc_runs_at_the_connectx7_line_rate() {
        // 400 Gb/s = 50 GB/s: one second of port traffic costs one second.
        let line = crate::link::NicModel::connectx7().line_rate;
        assert_eq!(nic_crc_cost(line), SimDuration::from_secs(1));
        assert!(nic_crc_cost(4096) < CoreClass::DpuArm.scale(checksum_cost(4096)));
    }
}
