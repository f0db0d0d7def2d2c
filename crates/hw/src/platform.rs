//! The deployment's shape: a node's cores, where the DAOS client runs, the
//! cluster's node layout and the data-plane transport. The §4.1 nodes
//! themselves are `ros2_fabric::NodeSpec::{host_client, bluefield3,
//! storage_server}`, built from the models in this crate.

use crate::cpu::CoreClass;

/// The BlueField-3's onboard DRAM (§4.1: 30 GiB): the DPU node's
/// registered-memory budget and the DPU agent's staging-DRAM budget, since
/// every payload terminates in DPU DRAM in the prototype (§3.2).
pub const BLUEFIELD3_DRAM: u64 = 30 << 30;

/// A compute or storage node's processor complement.
#[derive(Copy, Clone, Debug)]
pub struct CpuComplement {
    /// Core silicon class.
    pub class: CoreClass,
    /// Number of physical cores available to the experiment.
    pub cores: usize,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_client_topology_keeps_historical_node_ids() {
        let t = ClusterTopology::one_client(ClientPlacement::Host, 4);
        assert_eq!(t.client_count(), 1);
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
