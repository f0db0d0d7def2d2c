//! Network fabric models: NIC ports, the 100 Gbps switch, and wire-protocol
//! efficiency factors.
//!
//! The paper's testbed (§4.1) connects a ConnectX-6 host (200 Gbps), a
//! BlueField-3 (integrated ConnectX-7, 400 Gbps) and the storage server's
//! ConnectX-6 through a **100 Gbps switch**, which the paper itself calls
//! out as the binding constraint for multi-SSD throughput. Wire efficiency
//! differs per protocol: RoCE/InfiniBand framing is leaner than
//! TCP/IP + NVMe-oF/DAOS encapsulation.

use ros2_sim::SimDuration;

/// Gigabits-per-second to bytes-per-second.
pub const fn gbps(g: u64) -> u64 {
    g * 1_000_000_000 / 8
}

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

/// The top-of-rack switch between client and storage server.
#[derive(Copy, Clone, Debug)]
pub struct SwitchModel {
    /// Per-direction forwarding capacity, bytes/second.
    pub capacity: u64,
    /// Cut-through forwarding latency.
    pub hop_latency: SimDuration,
}

impl SwitchModel {
    /// The paper's 100 Gbps switch.
    pub fn gbps100() -> Self {
        SwitchModel {
            capacity: gbps(100),
            hop_latency: SimDuration::from_nanos(800),
        }
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

/// End-to-end path latency budget between two endpoints through the switch
/// (propagation + NIC port latencies), excluding serialization.
pub fn path_latency(src: NicModel, switch: SwitchModel, dst: NicModel) -> SimDuration {
    src.port_latency + switch.hop_latency + dst.port_latency
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
    fn switch_is_the_bottleneck() {
        // §4.1: 100 Gbps switch constrains multi-SSD throughput even though
        // both NICs are faster.
        let sw = SwitchModel::gbps100();
        assert!(sw.capacity < NicModel::connectx6().line_rate);
        assert!(sw.capacity < NicModel::connectx7().line_rate);
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

    #[test]
    fn path_latency_sums_hops() {
        let lat = path_latency(
            NicModel::connectx6(),
            SwitchModel::gbps100(),
            NicModel::connectx6(),
        );
        assert_eq!(lat, SimDuration::from_nanos(600 + 800 + 600));
    }
}
