//! Network fabric models: NIC ports, the 100 Gbps switch port and the
//! path latency across the switch, and wire-protocol efficiency factors.
//!
//! The paper's testbed (§4.1) connects a ConnectX-6 host (200 Gbps), a
//! BlueField-3 (integrated ConnectX-7, 400 Gbps) and the storage server's
//! ConnectX-6 through a **100 Gbps switch**, which the paper itself calls
//! out as the binding constraint for multi-SSD throughput. The switch is
//! two constants, not a model of its own: every node's port runs at
//! [`SWITCH_PORT_RATE`], and every message crosses the fixed
//! [`PATH_LATENCY`]. Wire efficiency differs per protocol: RoCE/InfiniBand
//! framing is leaner than TCP/IP + NVMe-oF/DAOS encapsulation.

use ros2_sim::SimDuration;

/// Gigabits-per-second to bytes-per-second.
pub const fn gbps(g: u64) -> u64 {
    g * 1_000_000_000 / 8
}

/// The §4.1 switch's per-port rate, bytes/second (100 Gbps). Every node's
/// NIC is faster (ConnectX-6 200 Gbps, ConnectX-7 400 Gbps), so this port
/// binds each node's wire rate: it is the multi-SSD bottleneck behind the
/// Fig. 5 four-SSD plateaus.
pub const SWITCH_PORT_RATE: u64 = gbps(100);

/// One-way propagation between two fabric nodes, serialization excluded:
/// ConnectX-6 port 600 ns + switch cut-through hop 800 ns + ConnectX-6 port
/// 600 ns. One value for every pair of nodes; the rendezvous handshake of
/// the eager/rendezvous crossover (ablation X3) pays it twice.
pub const PATH_LATENCY: SimDuration = SimDuration::from_nanos(2_000);

/// A network endpoint's port model.
#[derive(Copy, Clone, Debug)]
pub struct NicModel {
    /// Port line rate, bytes/second.
    pub line_rate: u64,
    /// Fixed DMA/doorbell latency added per message by the NIC.
    pub port_latency: SimDuration,
}

impl NicModel {
    /// ConnectX-6 (host and storage server NICs, 200 Gbps per port).
    pub fn connectx6() -> Self {
        NicModel {
            line_rate: gbps(200),
            port_latency: SimDuration::from_nanos(600),
        }
    }
    /// ConnectX-7 integrated in BlueField-3 (400 Gbps).
    pub fn connectx7() -> Self {
        NicModel {
            line_rate: gbps(400),
            port_latency: SimDuration::from_nanos(500),
        }
    }

    /// Latency of one hop of a work-request chain: the completion of one
    /// verb releasing the next (a WAIT/ENABLE edge) with no core in
    /// between. Anchored to [`Self::port_latency`], the NIC's own
    /// per-message DMA/doorbell turnaround (0.5 µs on ConnectX-7): a chain
    /// hop is the NIC fetching and starting one more pre-posted work
    /// request, the same internal step it takes for any message.
    pub fn chain_hop(&self) -> SimDuration {
        self.port_latency
    }
}

/// Per-protocol wire overhead model: how payload bytes expand into on-wire
/// bytes, plus fixed per-message framing.
#[derive(Copy, Clone, Debug)]
pub struct WireProtocol {
    /// Numerator/denominator of payload efficiency (e.g. 94/100 for TCP).
    pub efficiency_num: u64,
    /// See `efficiency_num`.
    pub efficiency_den: u64,
    /// Fixed framing bytes per message (headers, CRCs, acks amortized).
    pub per_msg_overhead: u64,
    /// Maximum segment the fabric puts on the wire at once; larger payloads
    /// are segmented so concurrent flows interleave at this granularity.
    pub segment: u64,
}

impl WireProtocol {
    /// TCP/IP with jumbo frames carrying NVMe-oF or DAOS RPC payloads.
    pub fn tcp() -> Self {
        WireProtocol {
            efficiency_num: 100,
            efficiency_den: 113, // ≈0.885 payload efficiency end-to-end
            per_msg_overhead: 160,
            segment: 64 * 1024,
        }
    }

    /// RoCEv2 / InfiniBand RC with 4 KiB MTU.
    pub fn rdma() -> Self {
        WireProtocol {
            efficiency_num: 100,
            efficiency_den: 103, // ≈0.97
            per_msg_overhead: 64,
            segment: 128 * 1024,
        }
    }

    /// On-wire bytes for a `payload`-byte message.
    pub fn wire_bytes(&self, payload: u64) -> u64 {
        payload * self.efficiency_den / self.efficiency_num + self.per_msg_overhead
    }

    /// The achievable payload throughput through a pipe of `raw` B/s.
    pub fn effective_bw(&self, raw: u64) -> u64 {
        raw * self.efficiency_num / self.efficiency_den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversion() {
        assert_eq!(gbps(100), 12_500_000_000);
        assert_eq!(gbps(8), 1_000_000_000);
    }

    #[test]
    fn rdma_wire_efficiency_beats_tcp() {
        let tcp = WireProtocol::tcp();
        let rdma = WireProtocol::rdma();
        assert!(rdma.wire_bytes(1 << 20) < tcp.wire_bytes(1 << 20));
        let raw = gbps(100);
        let tcp_eff = tcp.effective_bw(raw) as f64 / (1u64 << 30) as f64;
        let rdma_eff = rdma.effective_bw(raw) as f64 / (1u64 << 30) as f64;
        // TCP lands near 10.3 GiB/s, RDMA near 11.3 GiB/s payload ceiling —
        // the Fig. 5a/5b four-SSD plateaus.
        assert!((10.0..10.6).contains(&tcp_eff), "tcp {tcp_eff}");
        assert!((11.0..11.6).contains(&rdma_eff), "rdma {rdma_eff}");
    }

    #[test]
    fn wire_bytes_include_fixed_overhead() {
        let p = WireProtocol::rdma();
        assert_eq!(p.wire_bytes(0), p.per_msg_overhead);
        assert!(p.wire_bytes(4096) > 4096);
    }
}
