//! The paper's §4.1 hardware platform, expressed as configuration structs
//! that deployment worlds instantiate.

use crate::cpu::CoreClass;
use crate::link::{NicModel, SwitchModel};
use crate::nvme::NvmeModel;

/// A compute or storage node's processor complement.
#[derive(Copy, Clone, Debug)]
pub struct CpuComplement {
    /// Core silicon class.
    pub class: CoreClass,
    /// Number of physical cores available to the experiment.
    pub cores: usize,
}

/// The storage server (§4.1): 2 NUMA nodes, 128 cores, 251 GiB; experiments
/// pin to NUMA node 0 with 4 NVMe SSDs and a ConnectX-6.
#[derive(Clone, Debug)]
pub struct StorageServerConfig {
    /// Cores available after NUMA-0 pinning.
    pub cpu: CpuComplement,
    /// DRAM in bytes.
    pub dram: u64,
    /// Storage-class-memory (PMEM) capacity for the DAOS SCM tier.
    pub scm: u64,
    /// The NVMe devices attached to NUMA 0.
    pub nvme: Vec<NvmeModel>,
    /// Network port.
    pub nic: NicModel,
}

impl StorageServerConfig {
    /// The paper's storage server with `ssds` drives enabled (1 or 4).
    pub fn paper(ssds: usize) -> Self {
        assert!((1..=4).contains(&ssds), "paper uses 1 or 4 SSDs");
        StorageServerConfig {
            cpu: CpuComplement {
                class: CoreClass::HostX86,
                cores: 64, // NUMA node 0 of the 128-core box
            },
            dram: 251 * (1 << 30) / 2,
            scm: 128 * (1 << 30),
            nvme: (0..ssds).map(|_| NvmeModel::enterprise_1600()).collect(),
            nic: NicModel::connectx6(),
        }
    }
}

/// The server-grade CPU client (§4.1): dual AMD EPYC 7443, 48 physical
/// cores, 251 GiB DRAM, ConnectX-6.
#[derive(Copy, Clone, Debug)]
pub struct HostClientConfig {
    /// Processor complement.
    pub cpu: CpuComplement,
    /// DRAM in bytes.
    pub dram: u64,
    /// Network port.
    pub nic: NicModel,
}

impl HostClientConfig {
    /// The paper's host client.
    pub fn paper() -> Self {
        HostClientConfig {
            cpu: CpuComplement {
                class: CoreClass::HostX86,
                cores: 48,
            },
            dram: 251 * (1 << 30),
            nic: NicModel::connectx6(),
        }
    }
}

/// The BlueField-3 DPU (§4.1): 16 Arm Cortex-A78AE cores, 30 GiB DRAM,
/// integrated ConnectX-7.
#[derive(Copy, Clone, Debug)]
pub struct DpuConfig {
    /// Processor complement (ARM cores).
    pub cpu: CpuComplement,
    /// Onboard DRAM in bytes — also the data-plane buffer pool, since all
    /// payloads terminate in DPU DRAM in the prototype (§3.2).
    pub dram: u64,
    /// Integrated network controller.
    pub nic: NicModel,
}

impl DpuConfig {
    /// The paper's BlueField-3.
    pub fn bluefield3() -> Self {
        DpuConfig {
            cpu: CpuComplement {
                class: CoreClass::DpuArm,
                cores: 16,
            },
            dram: 30 * (1 << 30),
            nic: NicModel::connectx7(),
        }
    }
}

/// Where the DAOS client (DFS data plane) runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ClientPlacement {
    /// On the server-grade host CPU (baseline).
    Host,
    /// Offloaded to the BlueField-3 (the ROS2 design).
    Dpu,
}

/// The deployment's node layout: N clients (host CPU or BlueField-3, one
/// placement each) plus M storage servers behind the shared 100 Gbps
/// switch. This is the single source of cluster shape —
/// `ros2_fabric::Fabric::for_topology` maps it onto canonical node specs,
/// so assemblies never hand-build (or clone) per-node spec literals.
///
/// Node-id convention: client `c` is node `c`; storage server `i` (0-based
/// engine slot) is node `clients.len() + i`. With one client this reduces
/// to the historical layout (client at node 0, storage `i` at `i + 1`), so
/// single-client worlds stay bit-identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterTopology {
    /// Where each DAOS client runs, one entry per client node.
    pub clients: Vec<ClientPlacement>,
    /// Number of storage servers (one DAOS engine each).
    pub storage_nodes: usize,
}

impl ClusterTopology {
    /// One client of `placement` in front of `storage_nodes` servers —
    /// the single-client worlds' shape (the historical two-node world at
    /// `storage_nodes == 1`).
    pub fn one_client(placement: ClientPlacement, storage_nodes: usize) -> Self {
        ClusterTopology {
            clients: vec![placement],
            storage_nodes,
        }
    }

    /// `clients` client nodes of uniform `placement` in front of
    /// `storage_nodes` servers — the incast shape.
    pub fn incast(placement: ClientPlacement, clients: usize, storage_nodes: usize) -> Self {
        assert!(clients > 0, "a topology needs at least one client");
        ClusterTopology {
            clients: vec![placement; clients],
            storage_nodes,
        }
    }

    /// Number of client nodes.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// The fabric node index of client `c` (identity, by convention).
    pub fn client_node(&self, c: usize) -> usize {
        assert!(c < self.clients.len(), "client {c} out of range");
        c
    }

    /// Total fabric nodes (clients + storage servers).
    pub fn node_count(&self) -> usize {
        self.clients.len() + self.storage_nodes
    }

    /// The fabric node index of storage server `slot`.
    pub fn storage_node(&self, slot: usize) -> usize {
        assert!(slot < self.storage_nodes, "slot {slot} out of range");
        self.clients.len() + slot
    }
}

/// Transport selection for the data plane (§3.4 protocol choices).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Transport {
    /// `ofi+tcp` / `ucx+tcp`.
    Tcp,
    /// `ucx+rc` / `ucx+dc_x` / `ofi+verbs`.
    Rdma,
}

impl Transport {
    /// Short label used in reports ("tcp" / "rdma").
    pub fn label(self) -> &'static str {
        match self {
            Transport::Tcp => "tcp",
            Transport::Rdma => "rdma",
        }
    }
}

/// The whole §4.1 testbed: client (host or DPU), switch, storage server.
#[derive(Clone, Debug)]
pub struct Testbed {
    /// Client host.
    pub host: HostClientConfig,
    /// The SmartNIC on the client host.
    pub dpu: DpuConfig,
    /// The network between client and storage.
    pub switch: SwitchModel,
    /// The storage server.
    pub storage: StorageServerConfig,
}

impl Testbed {
    /// The paper's testbed with `ssds` drives enabled.
    pub fn paper(ssds: usize) -> Self {
        Testbed {
            host: HostClientConfig::paper(),
            dpu: DpuConfig::bluefield3(),
            switch: SwitchModel::gbps100(),
            storage: StorageServerConfig::paper(ssds),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_storage_server_shape() {
        let s = StorageServerConfig::paper(4);
        assert_eq!(s.nvme.len(), 4);
        assert_eq!(s.cpu.cores, 64);
        assert_eq!(s.cpu.class, CoreClass::HostX86);
    }

    #[test]
    #[should_panic(expected = "paper uses 1 or 4")]
    fn storage_server_rejects_zero_ssds() {
        StorageServerConfig::paper(0);
    }

    #[test]
    fn dpu_has_16_arm_cores() {
        let d = DpuConfig::bluefield3();
        assert_eq!(d.cpu.cores, 16);
        assert_eq!(d.cpu.class, CoreClass::DpuArm);
        assert_eq!(d.dram, 30 * (1 << 30));
    }

    #[test]
    fn host_client_is_epyc_7443_class() {
        let h = HostClientConfig::paper();
        assert_eq!(h.cpu.cores, 48);
        assert_eq!(h.cpu.class, CoreClass::HostX86);
    }

    #[test]
    fn testbed_wires_the_whole_lab() {
        let tb = Testbed::paper(1);
        assert_eq!(tb.storage.nvme.len(), 1);
        // DPU NIC is faster than host NIC, but the switch binds both.
        assert!(tb.dpu.nic.line_rate > tb.host.nic.line_rate);
        assert!(tb.switch.capacity < tb.host.nic.line_rate);
    }

    #[test]
    fn single_client_topology_keeps_historical_node_ids() {
        let t = ClusterTopology::one_client(ClientPlacement::Host, 4);
        assert_eq!(t.client_count(), 1);
        assert_eq!(t.client_node(0), 0);
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.storage_node(0), 1);
        assert_eq!(t.storage_node(3), 4);
        assert_eq!(
            t,
            ClusterTopology {
                clients: vec![ClientPlacement::Host],
                storage_nodes: 4,
            }
        );
    }

    #[test]
    fn incast_topology_packs_clients_before_storage() {
        let t = ClusterTopology::incast(ClientPlacement::Host, 16, 4);
        assert_eq!(t.client_count(), 16);
        assert_eq!(t.client_node(15), 15);
        assert_eq!(t.storage_node(0), 16);
        assert_eq!(t.node_count(), 20);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn incast_topology_rejects_zero_clients() {
        ClusterTopology::incast(ClientPlacement::Host, 0, 1);
    }

    #[test]
    fn transport_labels() {
        assert_eq!(Transport::Tcp.label(), "tcp");
        assert_eq!(Transport::Rdma.label(), "rdma");
    }
}
