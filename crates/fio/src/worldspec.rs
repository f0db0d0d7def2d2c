//! The typed world builder: every DFS-family testbed is described by one
//! [`WorldSpec`] and assembled by one of two terminals — `build_dfs` for
//! one client in front of one or more engines, `build_incast` for the
//! clients axis. Both build through `ros2_core`'s
//! [`fabric_and_cluster`](ros2_core::fabric_and_cluster) and
//! [`connect_client`](ros2_core::connect_client), the functions
//! `Ros2System::launch` uses too, and share one preconditioning loop.
//!
//! The spec is the single description of a world — transport, storage
//! shape, client placement(s), fabric seed — with defaults matching the
//! historical constructors exactly, so a spec that only names what a sweep
//! varies replays bit-identically to the constructor call it replaced:
//!
//! ```
//! use ros2_fio::{Clients, WorldSpec};
//! use ros2_hw::ClientPlacement;
//!
//! // The classic two-node world (client on host cores):
//! let world = WorldSpec::single(ClientPlacement::Host)
//!     .ssds(2)
//!     .jobs(2)
//!     .region(8 << 20)
//!     .build_dfs();
//! drop(world);
//!
//! // The same client in front of a 3-engine RF 2 cluster:
//! let cluster = WorldSpec::cluster(3).replication(2).build_dfs();
//! drop(cluster);
//!
//! // A 4-engine replicated cluster with 16 host clients incasting on it:
//! let incast = WorldSpec::cluster(4)
//!     .replication(2)
//!     .jobs(2)
//!     .clients(Clients::host(16))
//!     .pool_capacity(8)
//!     .build_incast();
//! drop(incast);
//! ```

use ros2_core::{ClientSetup, ClientStack, FaultCursor};
use ros2_daos::EngineCluster;
use ros2_dpu::DpuTenantSpec;
use ros2_fabric::Fabric;
use ros2_hw::{ClientPlacement, ClusterTopology, Transport};
use ros2_nvme::DataMode;
use ros2_verbs::NodeId;

use crate::incast::IncastFioWorld;
use crate::worlds::{precondition, DfsFioWorld};

/// The clients axis of a [`WorldSpec`]: one [`ClientPlacement`] per client
/// node, in fabric-node order (client `c` is fabric node `c`). A `Host`
/// entry runs an in-process client, a `Dpu` entry the offloaded one.
#[derive(Clone, Debug)]
pub struct Clients(Vec<ClientPlacement>);

impl Clients {
    /// `n` host-resident clients.
    pub fn host(n: usize) -> Self {
        Clients(vec![ClientPlacement::Host; n])
    }

    /// `n` real offloaded clients — one [`ros2_dpu::DpuClient`] per
    /// BlueField node, each with its own agent, QoS admission, and
    /// (optionally) read cache. The incast axis for DPU-side experiments.
    pub fn offloaded(n: usize) -> Self {
        Clients(vec![ClientPlacement::Dpu; n])
    }

    /// A host/DPU mix: `hosts` host clients first, then `dpus`
    /// offloaded clients.
    pub fn mixed(hosts: usize, dpus: usize) -> Self {
        let mut placements = vec![ClientPlacement::Host; hosts];
        placements.extend(vec![ClientPlacement::Dpu; dpus]);
        Clients(placements)
    }

    /// The per-client placements, in node order.
    pub fn placements(&self) -> &[ClientPlacement] {
        &self.0
    }

    /// Number of client nodes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the axis is empty (rejected at build time).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// The typed builder describing one DFS-family world. See the module
/// docs; construct with [`WorldSpec::single`] or [`WorldSpec::cluster`],
/// refine with the chainable setters, assemble with a `build_*` terminal.
#[derive(Clone, Debug)]
pub struct WorldSpec {
    transport: Transport,
    engines: usize,
    replication: usize,
    ssds: usize,
    jobs: usize,
    region: u64,
    mode: DataMode,
    seed: u64,
    clients: Clients,
    tenants: Vec<DpuTenantSpec>,
    pool_capacity: Option<usize>,
    dpu_cache: Option<u64>,
}

impl WorldSpec {
    /// The fabric seed every historical world hardcoded. Still the
    /// default — override with [`Self::seed`].
    pub const DEFAULT_SEED: u64 = 0xd0e5;

    fn base(engines: usize, clients: Clients) -> Self {
        WorldSpec {
            transport: Transport::Rdma,
            engines,
            replication: 1,
            ssds: 1,
            jobs: 1,
            region: 4 << 20,
            mode: DataMode::Stored,
            seed: Self::DEFAULT_SEED,
            clients,
            tenants: vec![DpuTenantSpec::unlimited("fio")],
            pool_capacity: None,
            dpu_cache: None,
        }
    }

    /// The classic two-node world: one client of `placement`, one storage
    /// server. `ClientPlacement::Dpu` runs the offloaded client with one
    /// unlimited `"fio"` tenant; [`Self::offload`] sets other tenants.
    /// Terminal: [`Self::build_dfs`].
    pub fn single(placement: ClientPlacement) -> Self {
        Self::base(1, Clients(vec![placement]))
    }

    /// An N-engine replicated cluster (one storage server per engine)
    /// with, by default, one host client. Terminals: [`Self::build_dfs`]
    /// (single client) or [`Self::build_incast`] (the clients axis).
    pub fn cluster(engines: usize) -> Self {
        Self::base(engines, Clients::host(1))
    }

    /// Data-plane transport (default RDMA).
    pub fn transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Replication factor across engines (default 1).
    pub fn replication(mut self, rf: usize) -> Self {
        self.replication = rf;
        self
    }

    /// NVMe drives per storage server (default 1).
    pub fn ssds(mut self, ssds: usize) -> Self {
        self.ssds = ssds;
        self
    }

    /// FIO jobs **per client** (default 1).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Preconditioned bytes per job file (default 4 MiB).
    pub fn region(mut self, region: u64) -> Self {
        self.region = region;
        self
    }

    /// Drive payload mode (default [`DataMode::Stored`]).
    pub fn mode(mut self, mode: DataMode) -> Self {
        self.mode = mode;
        self
    }

    /// Fabric seed (default [`Self::DEFAULT_SEED`], the historical
    /// hardcoded value). Offloaded clients derive their control-plane and
    /// agent seeds from the same value.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The clients axis for incast worlds (default one host client).
    pub fn clients(mut self, clients: Clients) -> Self {
        self.clients = clients;
        self
    }

    /// Runs the single client as the DPU offload (a
    /// [`ros2_dpu::DpuClient`] on a BlueField node) with `tenants` sharing
    /// its QoS admission. Moves a [`Self::cluster`] spec's host client onto
    /// the DPU; on `single(ClientPlacement::Dpu)` it only sets the tenants.
    pub fn offload(mut self, tenants: Vec<DpuTenantSpec>) -> Self {
        self.clients = Clients::offloaded(1);
        self.tenants = tenants;
        self
    }

    /// Enables the DPU read cache on the offloaded client: `bytes` of the
    /// agent's DRAM pool are carved away from staging and split across the
    /// tenant lanes (default: disabled — every pinned baseline runs
    /// cache-off). The build terminals reject it on in-process clients.
    pub fn dpu_cache(mut self, bytes: u64) -> Self {
        self.dpu_cache = Some(bytes);
        self
    }

    /// Engine-side connection-pool capacity for incast worlds (default:
    /// 64, clamped to the client count when smaller).
    pub fn pool_capacity(mut self, capacity: usize) -> Self {
        self.pool_capacity = Some(capacity);
        self
    }

    // ------------------------------------------------------ accessors --

    /// Jobs per client.
    pub fn jobs_per_client(&self) -> usize {
        self.jobs
    }

    /// The clients axis.
    pub fn client_axis(&self) -> &Clients {
        &self.clients
    }

    pub(crate) fn engines_value(&self) -> usize {
        self.engines
    }

    pub(crate) fn region_value(&self) -> u64 {
        self.region
    }

    /// The pool capacity an incast build installs: the explicit setting,
    /// else 64 clamped to the client count.
    pub(crate) fn effective_pool_capacity(&self) -> usize {
        self.pool_capacity
            .unwrap_or_else(|| 64.min(self.clients.len().max(1)))
    }

    // ------------------------------------------------------ terminals --

    /// Assembles the single-client [`DfsFioWorld`] in front of this spec's
    /// engines: the classic two-node world for [`Self::single`], the
    /// N-engine replicated one for [`Self::cluster`]. Panics if the spec
    /// carries a clients axis — multi-client specs build with
    /// [`Self::build_incast`] — or a cache carve on an in-process client.
    pub fn build_dfs(self) -> DfsFioWorld {
        assert_eq!(
            self.clients.len(),
            1,
            "a multi-client spec builds with build_incast()"
        );
        let topology = ClusterTopology::one_client(self.clients.0[0], self.engines);
        let (mut fabric, mut cluster, storage_nodes) = self.fabric_and_cluster(&topology);
        let mut client = self.connect_client(&mut fabric, 0, &storage_nodes);
        let (dfs, files) = precondition(
            &mut fabric,
            &mut cluster,
            std::slice::from_mut(&mut client),
            self.jobs,
            self.region,
            |_, j| format!("job{j}"),
        );
        DfsFioWorld {
            fabric,
            cluster,
            client,
            dfs,
            files,
            faults: FaultCursor::default(),
        }
    }

    /// Assembles the multi-client incast world: one client stack per
    /// entry of the clients axis fanning into the shared cluster, served
    /// through the engine-side connection pool. `Host` entries run
    /// in-process clients; `Dpu` entries run an offloaded client per
    /// BlueField node (with its own agent and, if
    /// [`Self::dpu_cache`] is set, its own read-cache carve). Panics if
    /// the axis is empty or a cache carve is requested of an in-process
    /// client.
    pub fn build_incast(self) -> IncastFioWorld {
        assert!(!self.clients.is_empty(), "incast needs at least one client");
        IncastFioWorld::build(self)
    }

    /// [`ros2_core::fabric_and_cluster`] with this spec's storage shape.
    pub(crate) fn fabric_and_cluster(
        &self,
        topology: &ClusterTopology,
    ) -> (Fabric, EngineCluster, Vec<NodeId>) {
        ros2_core::fabric_and_cluster(
            self.transport,
            topology,
            self.seed,
            self.jobs,
            self.replication,
            self.ssds,
            self.mode,
        )
        .expect("cluster assembles")
    }

    /// Connects client `c` (fabric node `c`) of the clients axis to every
    /// storage node through [`ros2_core::connect_client`], with 4 MiB of
    /// staging per job. An offloaded client gets its own default agent,
    /// seeded `seed ^ c` so control-plane jitter is not lockstepped across
    /// clients, and the [`Self::dpu_cache`] carve if one is set.
    pub(crate) fn connect_client(
        &self,
        fabric: &mut Fabric,
        c: usize,
        storage_nodes: &[NodeId],
    ) -> ClientStack {
        let setup = ClientSetup {
            jobs: self.jobs,
            buffer_len: 4 << 20,
            gpu_hbm: false,
            tenants: self.tenants.clone(),
            dpu_cache: self.dpu_cache,
            seed: self.seed ^ c as u64,
            agent: None,
        };
        ros2_core::connect_client(
            fabric,
            NodeId(c as u32),
            storage_nodes,
            self.clients.0[c],
            setup,
        )
        .expect("client connects")
    }
}
