//! Per-node fabric state: NIC pipes, processing core pools, the kernel
//! softirq stage, and the node's RDMA device context.

use ros2_hw::{
    CoreClass, CpuComplement, DpuTcpRxModel, NicModel, BLUEFIELD3_DRAM, SWITCH_PORT_RATE,
};
use ros2_sim::{BandwidthServer, ServerPool, SimRng};
use ros2_verbs::{NodeId, RdmaDevice};

/// Static description of a fabric node.
#[derive(Clone, Debug)]
pub struct NodeSpec {
    /// Human-readable name ("host", "dpu", "storage").
    pub name: String,
    /// Processor complement available for network processing.
    pub cpu: CpuComplement,
    /// The node's NIC.
    pub nic: NicModel,
    /// The node's switch-port rate in bytes/second (the 100 Gbps port).
    pub port_rate: u64,
    /// Registered-memory budget for the RDMA device.
    pub mem_budget: u64,
    /// DPU TCP receive-path model, present only on SmartNIC nodes.
    pub dpu_tcp_rx: Option<DpuTcpRxModel>,
}

impl NodeSpec {
    /// Effective wire rate: the slower of NIC and switch port.
    fn wire_rate(&self) -> u64 {
        self.nic.line_rate.min(self.port_rate)
    }

    /// The paper's BlueField-3 client node (§4.1): 16 Cortex-A78AE cores,
    /// integrated ConnectX-7, 30 GiB DRAM, the TCP receive-path penalty
    /// armed. The single source of this spec — every DPU world (fio,
    /// core, dpu tests, the host-vs-DPU A/B) must model the same silicon.
    pub fn bluefield3() -> Self {
        NodeSpec {
            name: "bluefield3".into(),
            cpu: CpuComplement {
                class: CoreClass::DpuArm,
                cores: 16,
            },
            nic: NicModel::connectx7(),
            port_rate: SWITCH_PORT_RATE,
            mem_budget: BLUEFIELD3_DRAM,
            dpu_tcp_rx: Some(DpuTcpRxModel::bluefield3()),
        }
    }

    /// The paper's server-grade client host (§4.1): dual EPYC 7443, 48
    /// cores, ConnectX-6. The single source of the host-client spec —
    /// assemblies take it via `Fabric::for_topology` instead of cloning
    /// their own literals.
    pub fn host_client() -> Self {
        NodeSpec {
            name: "host-client".into(),
            cpu: CpuComplement {
                class: CoreClass::HostX86,
                cores: 48,
            },
            nic: NicModel::connectx6(),
            port_rate: SWITCH_PORT_RATE,
            mem_budget: 64 << 30,
            dpu_tcp_rx: None,
        }
    }

    /// The paper's storage server (§4.1): 64 NUMA-0 cores, ConnectX-6.
    pub fn storage_server() -> Self {
        NodeSpec {
            name: "storage".into(),
            cpu: CpuComplement {
                class: CoreClass::HostX86,
                cores: 64,
            },
            nic: NicModel::connectx6(),
            port_rate: SWITCH_PORT_RATE,
            mem_budget: 64 << 30,
            dpu_tcp_rx: None,
        }
    }
}

/// Live state for one node.
#[derive(Debug)]
pub struct FabricNode {
    /// The static spec.
    pub spec: NodeSpec,
    /// Outbound serialization pipe (NIC TX through the switch port).
    pub tx_pipe: BandwidthServer,
    /// Inbound serialization pipe.
    pub rx_pipe: BandwidthServer,
    /// General network-processing cores (TX side, RPC handling).
    pub tx_pool: ServerPool,
    /// Receive-processing cores. On DPU-TCP nodes this pool is limited to
    /// the RX-queue spread — the receive-path bottleneck of §4.4.
    pub rx_pool: ServerPool,
    /// The node-wide serialized kernel stage (TCP only).
    pub kernel: ServerPool,
    /// The verbs device (registrations, QPs, one-sided execution).
    pub rdma: RdmaDevice,
    /// Concurrent-flow hint for the DPU RX contention model.
    pub flow_hint: usize,
    /// Bytes sent / received (payload).
    pub bytes_tx: u64,
    /// See `bytes_tx`.
    pub bytes_rx: u64,
}

impl FabricNode {
    /// Builds the live node from a spec, deriving its RNG from `rng`.
    pub fn new(id: NodeId, spec: NodeSpec, rng: &SimRng) -> Self {
        let rx_cores = match &spec.dpu_tcp_rx {
            Some(m) => m.rx_queue_spread.min(spec.cpu.cores),
            None => spec.cpu.cores,
        };
        FabricNode {
            tx_pipe: BandwidthServer::new(spec.wire_rate()),
            rx_pipe: BandwidthServer::new(spec.wire_rate()),
            tx_pool: ServerPool::new(spec.cpu.cores),
            rx_pool: ServerPool::new(rx_cores),
            kernel: ServerPool::new(1),
            rdma: RdmaDevice::new(id, spec.mem_budget, rng.fork(0x6e0de + id.0 as u64)),
            flow_hint: 1,
            bytes_tx: 0,
            bytes_rx: 0,
            spec,
        }
    }

    /// The node's core class (host x86 or DPU ARM).
    pub fn class(&self) -> CoreClass {
        self.spec.cpu.class
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros2_hw::gbps;

    /// The §4.1 nodes: the 100 Gbps switch port binds under the 200 G
    /// ConnectX-6 and the 400 G ConnectX-7 alike.
    #[test]
    fn wire_rate_is_min_of_nic_and_port() {
        let (dpu, host, storage) = (
            NodeSpec::bluefield3(),
            NodeSpec::host_client(),
            NodeSpec::storage_server(),
        );
        assert_eq!(host.nic.line_rate, gbps(200));
        assert_eq!(dpu.nic.line_rate, gbps(400));
        for spec in [&dpu, &host, &storage] {
            assert_eq!(spec.port_rate, gbps(100));
            assert_eq!(spec.wire_rate(), gbps(100), "{}", spec.name);
        }
        assert_eq!((dpu.cpu.class, dpu.cpu.cores), (CoreClass::DpuArm, 16));
        assert_eq!(dpu.mem_budget, 30 << 30);
        assert_eq!((host.cpu.class, host.cpu.cores), (CoreClass::HostX86, 48));
        assert_eq!(
            (storage.cpu.class, storage.cpu.cores),
            (CoreClass::HostX86, 64)
        );
    }

    #[test]
    fn dpu_rx_pool_is_limited_to_queue_spread() {
        let node = FabricNode::new(NodeId(1), NodeSpec::bluefield3(), &SimRng::new(1));
        assert_eq!(node.rx_pool.servers(), 4);
        assert_eq!(node.tx_pool.servers(), 16);
    }

    #[test]
    fn host_rx_pool_uses_all_cores() {
        let node = FabricNode::new(NodeId(0), NodeSpec::host_client(), &SimRng::new(1));
        assert_eq!(node.rx_pool.servers(), 48);
        assert_eq!(node.class(), CoreClass::HostX86);
    }
}
