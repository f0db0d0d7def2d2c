//! The parts every deployment is assembled from, and the two functions
//! that assemble them: [`fabric_and_cluster`] builds the fabric and the
//! engine pool, [`connect_client`] puts one [`ClientStack`] on a client
//! node. [`crate::Ros2System::launch`] and the FIO worlds
//! (`ros2_fio::WorldSpec::build_dfs`, `IncastFioWorld::build`) all build
//! through them, so a world differs from the full system only in the
//! arguments it passes.
//!
//! [`ClientStack`] is where the paper's one architectural fork (§3.2)
//! lives: the DAOS client runs in-process, or offloaded whole to the
//! BlueField-3, in front of the same unchanged engines.

use ros2_daos::{
    DaosClient, DaosCostModel, DaosError, EngineCluster, ObjectClient, PoolMap, RetryStats,
};
use ros2_dpu::{default_control, DpuAgent, DpuCacheStats, DpuClient, DpuStats, DpuTenantSpec};
use ros2_fabric::Fabric;
use ros2_hw::{ClientPlacement, ClusterTopology, CoreClass, Transport, BLUEFIELD3_DRAM};
use ros2_nvme::DataMode;
use ros2_sim::{ResourceStats, SimTime};
use ros2_verbs::{Expiry, MemoryDomain, NodeId, PdId};

use crate::system::Ros2Error;

/// One client node's DAOS client stack.
// One stack per client node, never stored in bulk — the variant size gap
// (`DpuClient` embeds agent + tenant manager) costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum ClientStack {
    /// In-process `libdaos` on the client node (host placement): the
    /// SmartNIC is still the NIC, but every data-plane phase executes on
    /// host cores.
    InProcess(DaosClient),
    /// The ROS2 design: the whole client, its agent and its tenant manager
    /// run on the BlueField-3; the host only rings doorbells.
    Offloaded(DpuClient),
}

/// Evaluates `$e` with `$c` bound to whichever client the stack holds.
macro_rules! either {
    ($stack:expr, $c:ident => $e:expr) => {
        match $stack {
            ClientStack::InProcess($c) => $e,
            ClientStack::Offloaded($c) => $e,
        }
    };
}

impl ClientStack {
    /// The client as the object-I/O interface DFS drives.
    pub fn as_object(&mut self) -> &mut dyn ObjectClient {
        either!(self, c => c)
    }

    /// The node the data-plane client runs on.
    pub fn node(&self) -> NodeId {
        either!(self, c => c.node())
    }

    /// Every storage node, slot-aligned with the cluster's pool map.
    pub fn servers(&self) -> &[NodeId] {
        either!(self, c => c.servers())
    }

    /// The client's (first tenant's) protection domain.
    pub fn pd(&self) -> PdId {
        either!(self, c => c.pd())
    }

    /// Data-plane operations issued.
    pub fn ops(&self) -> u64 {
        either!(self, c => ObjectClient::ops(c))
    }

    /// Aggregate booking / fast-path counters over the client cores.
    pub fn resource_stats(&self) -> ResourceStats {
        either!(self, c => c.resource_stats())
    }

    /// Resets per-job core timing (and, offloaded, QoS buckets) to t=0.
    pub fn reset_timing(&mut self) {
        either!(self, c => c.reset_timing())
    }

    /// The offloaded client, when this stack runs one.
    pub fn offloaded(&self) -> Option<&DpuClient> {
        match self {
            ClientStack::InProcess(_) => None,
            ClientStack::Offloaded(c) => Some(c),
        }
    }

    /// Mutable access to the offloaded client (cache enable/disable
    /// between sweep cells, the agent under DPU placement).
    pub fn offloaded_mut(&mut self) -> Option<&mut DpuClient> {
        match self {
            ClientStack::InProcess(_) => None,
            ClientStack::Offloaded(c) => Some(c),
        }
    }

    /// Offload-path counters (zero for an in-process client).
    pub fn dpu_stats(&self) -> DpuStats {
        self.offloaded()
            .map_or_else(DpuStats::default, DpuClient::dpu_stats)
    }

    /// DPU read-cache counters (all zeros for an in-process client or with
    /// the cache disabled).
    pub fn cache_stats(&self) -> DpuCacheStats {
        self.offloaded()
            .map_or_else(DpuCacheStats::default, DpuClient::cache_stats)
    }

    /// Delivers a RAS map push to the client's cached map at `at` (every
    /// tenant lane, when offloaded).
    pub fn deliver_map(&mut self, at: SimTime, map: PoolMap) {
        either!(self, c => c.deliver_map(at, map))
    }

    /// Installs `map` immediately (the authoritative `MapQuery` reply).
    pub fn sync_map(&mut self, map: PoolMap) {
        either!(self, c => c.sync_map(map))
    }

    /// Recovery-ladder counters (all DPU lanes merged, when offloaded).
    pub fn retry_stats(&self) -> RetryStats {
        either!(self, c => c.retry_stats())
    }

    /// Earliest instant an op completed on a retry attempt.
    pub fn first_successful_retry(&self) -> Option<SimTime> {
        either!(self, c => c.first_successful_retry())
    }
}

/// Builds the storage side of a deployment: the fabric over `topology`
/// (seeded `seed`, every node's flow hint `jobs`), one engine of `ssds`
/// drives per storage node in a pool of replication factor `rf`, its
/// `posix` container created before any client connects, and the storage
/// node ids in slot order.
pub fn fabric_and_cluster(
    transport: Transport,
    topology: &ClusterTopology,
    seed: u64,
    jobs: usize,
    rf: usize,
    ssds: usize,
    mode: DataMode,
) -> Result<(Fabric, EngineCluster, Vec<NodeId>), DaosError> {
    let mut fabric = Fabric::for_topology(transport, topology, seed);
    for node in 0..topology.node_count() {
        fabric.set_flow_hint(NodeId(node as u32), jobs);
    }
    let storage_nodes: Vec<NodeId> = (0..topology.storage_nodes)
        .map(|i| NodeId(topology.storage_node(i) as u32))
        .collect();
    let mut cluster = EngineCluster::assemble(
        storage_nodes.clone(),
        rf,
        ssds,
        mode,
        2 << 30,
        DaosCostModel::default_model(),
        CoreClass::HostX86,
    );
    cluster.cont_create("posix")?;
    Ok((fabric, cluster, storage_nodes))
}

/// How [`connect_client`] sets up one client's lanes.
pub struct ClientSetup {
    /// Client jobs (one staging buffer and connection set each).
    pub jobs: usize,
    /// Per-job staging-buffer size.
    pub buffer_len: u64,
    /// Stage in GPU HBM through peermem (the §3.5 GPUDirect extension,
    /// RDMA only) instead of the client node's own DRAM.
    pub gpu_hbm: bool,
    /// The offloaded client's tenant lanes; an in-process client connects
    /// as the first tenant.
    pub tenants: Vec<DpuTenantSpec>,
    /// Read-cache carve of an offloaded client (`None` = off).
    pub dpu_cache: Option<u64>,
    /// Seeds the offloaded client (and a default agent's control plane).
    pub seed: u64,
    /// The offloaded client's agent; `None` builds one over
    /// `default_control(seed)` with 30 GiB of DRAM.
    pub agent: Option<DpuAgent>,
}

/// Connects a client of `placement` on `node` to every storage node: under
/// `Host` an in-process [`DaosClient`] staging in host DRAM, under `Dpu` a
/// [`DpuClient`] staging in DPU DRAM behind its agent, with the read-cache
/// carve if one is set. Rejects a cache carve on an in-process client and
/// GPU staging off RDMA.
pub fn connect_client(
    fabric: &mut Fabric,
    node: NodeId,
    storage_nodes: &[NodeId],
    placement: ClientPlacement,
    setup: ClientSetup,
) -> Result<ClientStack, Ros2Error> {
    let offloaded = placement == ClientPlacement::Dpu;
    if setup.gpu_hbm && fabric.transport() != Transport::Rdma {
        return Err(Ros2Error::Config(
            "GPUDirect placement requires the RDMA transport".into(),
        ));
    }
    if setup.dpu_cache.is_some() && !offloaded {
        return Err(Ros2Error::Config(
            "a DPU read cache requires an offloaded client".into(),
        ));
    }
    let domain = if setup.gpu_hbm {
        fabric.rdma_mut(node).enable_peermem();
        MemoryDomain::GpuHbm
    } else if offloaded {
        MemoryDomain::DpuDram
    } else {
        MemoryDomain::HostDram
    };
    if !offloaded {
        return Ok(ClientStack::InProcess(DaosClient::connect_scoped_multi(
            fabric,
            node,
            storage_nodes,
            &setup.tenants[0].name,
            "posix",
            setup.jobs,
            setup.buffer_len,
            domain,
            DaosCostModel::default_model(),
            Expiry::Never,
        )?));
    }
    let agent = setup
        .agent
        .unwrap_or_else(|| DpuAgent::new(node, BLUEFIELD3_DRAM, default_control(setup.seed)));
    let mut dpu = DpuClient::connect_cluster(
        fabric,
        node,
        storage_nodes,
        "posix",
        setup.jobs,
        setup.buffer_len,
        domain,
        DaosCostModel::default_model(),
        agent,
        setup.tenants,
        setup.seed,
    )?;
    if let Some(bytes) = setup.dpu_cache {
        dpu.enable_read_cache(bytes)?;
    }
    Ok(ClientStack::Offloaded(dpu))
}
