//! The assembled ROS2 system: testbed construction, control-plane
//! handshake, and a POSIX-flavoured file API over the offloaded data plane.
//!
//! [`Ros2System::launch`] builds the paper's architecture end to end:
//!
//! 1. the fabric (client host *or* BlueField-3 ↔ 100 Gbps switch ↔ storage
//!    server) on the selected transport;
//! 2. the unmodified DAOS engine on the storage server;
//! 3. the DPU agent with the tenant's PD, QoS and rkey-scope policy;
//! 4. the gRPC control handshake — Hello, PoolConnect, ContOpen, DfsMount,
//!    GetCapability — over the control channel (no payload bytes here);
//! 5. the DAOS client and DFS mount on the chosen placement.
//!
//! Every file operation advances the system's virtual clock and reports its
//! latency, so applications (the examples) can reason about delivered
//! performance without running the FIO harness.

use bytes::Bytes;
use ros2_ctl::{ControlError, ControlRequest, ControlResponse};
use ros2_daos::{
    AKey, BgService, ClientOp, ClientOpResult, DKey, DaosClient, DaosCostModel, DaosEngine,
    DaosError, EngineCluster, Epoch, MapSnapshot, ObjectClient, ObjectId, RebuildStats,
    RetryPolicy, RetryStats, ScrubOutcome, ScrubStats, ValueKind,
};
use ros2_dfs::{Dfs, DfsError, DfsObj, DfsSession, FileStat};
use ros2_dpu::{
    default_control, DpuAgent, DpuCacheStats, DpuClient, DpuStats, DpuTenantSpec, InlineService,
    QosLimits, TenantManager,
};
use ros2_fabric::Fabric;
use ros2_hw::{ClientPlacement, ClusterTopology, CoreClass, Transport};
use ros2_nvme::DataMode;
use ros2_sim::{ResourceStats, SimDuration, SimTime};
use ros2_verbs::{MemoryDomain, NodeId, PdId};

use crate::fault::{FaultCursor, FaultPlan};

/// The deployment's scale-out shape: how many DAOS engines (one per
/// storage node behind the shared switch) and how many replicas each
/// object keeps. The default — one engine, RF 1 — is the paper's two-node
/// testbed and stays bit-identical to the pre-cluster assembly.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of DAOS engines (each a distinct fabric node).
    pub engines: usize,
    /// Replicas per object (1 ..= `ros2_daos::MAX_RF`).
    pub replication_factor: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            engines: 1,
            replication_factor: 1,
        }
    }
}

/// Deployment configuration (the knobs the paper sweeps, plus extensions).
#[derive(Clone, Debug)]
pub struct Ros2Config {
    /// Data-plane transport (§3.4).
    pub transport: Transport,
    /// Where the DAOS client runs.
    pub placement: ClientPlacement,
    /// Scale-out shape: engine count and replication factor.
    pub cluster: ClusterConfig,
    /// NVMe drives on each storage server (the paper uses 1 or 4).
    pub ssds: usize,
    /// Client jobs (connections/EQs).
    pub jobs: usize,
    /// DFS chunk size.
    pub chunk_size: u64,
    /// Device backing mode (Stored for correctness, Null for sweeps).
    pub data_mode: DataMode,
    /// Tenant identity.
    pub tenant: String,
    /// Inline service on the DPU byte path.
    pub inline_service: InlineService,
    /// Where client staging buffers live. `DpuDram` is the prototype
    /// (§3.2: "all payloads currently terminate in DPU DRAM");
    /// `GpuHbm` enables the §3.5 GPUDirect extension.
    pub buffer_domain: MemoryDomain,
    /// Per-job staging-buffer size.
    pub buffer_len: u64,
    /// Tenant QoS.
    pub qos: QosLimits,
    /// DPU read-cache carve in bytes (`None` = disabled, the default —
    /// every pinned baseline runs cache-off). Requires
    /// `ClientPlacement::Dpu`; the carve comes out of the agent's staging
    /// DRAM pool.
    pub dpu_cache: Option<u64>,
    /// Scenario seed.
    pub seed: u64,
}

impl Default for Ros2Config {
    fn default() -> Self {
        Ros2Config {
            transport: Transport::Rdma,
            placement: ClientPlacement::Dpu,
            cluster: ClusterConfig::default(),
            ssds: 1,
            jobs: 4,
            chunk_size: 1 << 20,
            data_mode: DataMode::Stored,
            tenant: "default".into(),
            inline_service: InlineService::None,
            buffer_domain: MemoryDomain::DpuDram,
            buffer_len: 4 << 20,
            qos: QosLimits::unlimited(),
            dpu_cache: None,
            seed: 0x40552,
        }
    }
}

/// Launch/runtime failures.
#[derive(Debug)]
pub enum Ros2Error {
    /// Control-plane failure during handshake.
    Control(ControlError),
    /// Data-plane / storage failure.
    Dfs(DfsError),
    /// Configuration rejected (e.g. GPU buffers without peermem support).
    Config(String),
}

impl From<DfsError> for Ros2Error {
    fn from(e: DfsError) -> Self {
        Ros2Error::Dfs(e)
    }
}

/// The node ids used by every ROS2 deployment.
pub const CLIENT_NODE: NodeId = NodeId(0);
/// See [`CLIENT_NODE`].
pub const STORAGE_NODE: NodeId = NodeId(1);

/// The deployment's client stack — where `ClientPlacement` becomes a real
/// architectural fork, not a node-spec tweak.
// One stack per deployment — the variant size gap is irrelevant.
#[allow(clippy::large_enum_variant)]
pub enum ClientStack {
    /// Baseline: the DAOS client runs in-process on the host CPU. The
    /// SmartNIC is still the NIC — its agent terminates the management
    /// control channel and the tenant manager polices QoS at the NIC — but
    /// every data-plane phase executes on host cores.
    Host {
        /// The in-process client.
        client: DaosClient,
        /// The agent on the (pass-through) SmartNIC.
        agent: DpuAgent,
        /// Tenant QoS/PD policy at the NIC.
        tenants: TenantManager,
    },
    /// The ROS2 design: the whole client is offloaded to the BlueField-3;
    /// the host only rings doorbells. The agent and tenant manager live
    /// inside the offloaded client.
    Dpu(DpuClient),
}

impl ClientStack {
    /// The node the data-plane client runs on.
    pub fn node(&self) -> NodeId {
        match self {
            ClientStack::Host { client, .. } => client.node(),
            ClientStack::Dpu(c) => c.node(),
        }
    }

    /// The client's (first tenant's) protection domain.
    pub fn pd(&self) -> PdId {
        match self {
            ClientStack::Host { client, .. } => client.pd(),
            ClientStack::Dpu(c) => c.pd(),
        }
    }

    /// Data-plane operations issued.
    pub fn ops(&self) -> u64 {
        match self {
            ClientStack::Host { client, .. } => client.ops(),
            ClientStack::Dpu(c) => ObjectClient::ops(c),
        }
    }

    /// Aggregate booking counters over the client cores.
    pub fn resource_stats(&self) -> ResourceStats {
        match self {
            ClientStack::Host { client, .. } => client.resource_stats(),
            ClientStack::Dpu(c) => c.resource_stats(),
        }
    }

    /// Offload-path counters (zero under host placement).
    pub fn dpu_stats(&self) -> DpuStats {
        match self {
            ClientStack::Host { .. } => DpuStats::default(),
            ClientStack::Dpu(c) => c.dpu_stats(),
        }
    }

    /// DPU read-cache counters (all zeros under host placement or with
    /// the cache disabled).
    pub fn cache_stats(&self) -> DpuCacheStats {
        match self {
            ClientStack::Host { .. } => DpuCacheStats::default(),
            ClientStack::Dpu(c) => c.cache_stats(),
        }
    }

    /// Copy-discipline accounting for cache hits served out of DPU DRAM.
    pub fn cache_data_plane_stats(&self) -> ros2_buf::DataPlaneStats {
        match self {
            ClientStack::Host { .. } => ros2_buf::DataPlaneStats::default(),
            ClientStack::Dpu(c) => c.cache_data_plane_stats(),
        }
    }

    /// Delivers a RAS map snapshot to the stack's cached map(s) at `at` —
    /// under DPU placement the offloaded lanes all hear the delivery.
    pub fn deliver_map(&mut self, at: SimTime, snap: MapSnapshot) {
        match self {
            ClientStack::Host { client, .. } => client.deliver_map(at, snap),
            ClientStack::Dpu(c) => c.deliver_map(at, snap),
        }
    }

    /// Installs `snap` immediately (the authoritative `MapQuery` reply).
    pub fn sync_map(&mut self, snap: MapSnapshot) {
        match self {
            ClientStack::Host { client, .. } => client.sync_map(snap),
            ClientStack::Dpu(c) => c.sync_map(snap),
        }
    }

    /// Recovery-ladder counters across the stack (all DPU lanes merged).
    pub fn retry_stats(&self) -> RetryStats {
        match self {
            ClientStack::Host { client, .. } => client.retry_stats(),
            ClientStack::Dpu(c) => c.retry_stats(),
        }
    }

    /// Sets the recovery-ladder policy on every client in the stack.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        match self {
            ClientStack::Host { client, .. } => client.set_retry_policy(policy),
            ClientStack::Dpu(c) => c.set_retry_policy(policy),
        }
    }

    /// Earliest instant an op completed on a retry attempt.
    pub fn first_successful_retry(&self) -> Option<SimTime> {
        match self {
            ClientStack::Host { client, .. } => client.first_successful_retry(),
            ClientStack::Dpu(c) => c.first_successful_retry(),
        }
    }

    /// The DPU agent (control termination, DRAM pool, inline services).
    pub fn agent(&self) -> &DpuAgent {
        match self {
            ClientStack::Host { agent, .. } => agent,
            ClientStack::Dpu(c) => c.agent(),
        }
    }

    /// Mutable agent access.
    pub fn agent_mut(&mut self) -> &mut DpuAgent {
        match self {
            ClientStack::Host { agent, .. } => agent,
            ClientStack::Dpu(c) => c.agent_mut(),
        }
    }

    /// The tenant manager.
    pub fn tenants(&self) -> &TenantManager {
        match self {
            ClientStack::Host { tenants, .. } => tenants,
            ClientStack::Dpu(c) => c.tenants(),
        }
    }

    /// Mutable tenant-manager access.
    pub fn tenants_mut(&mut self) -> &mut TenantManager {
        match self {
            ClientStack::Host { tenants, .. } => tenants,
            ClientStack::Dpu(c) => c.tenants_mut(),
        }
    }
}

impl ObjectClient for ClientStack {
    fn update(
        &mut self,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
        now: SimTime,
        job: usize,
        oid: ObjectId,
        dkey: DKey,
        akey: AKey,
        kind: ValueKind,
        data: Bytes,
    ) -> Result<SimTime, DaosError> {
        match self {
            ClientStack::Host { client, .. } => {
                client.update(fabric, cluster, now, job, oid, dkey, akey, kind, data)
            }
            ClientStack::Dpu(c) => {
                ObjectClient::update(c, fabric, cluster, now, job, oid, dkey, akey, kind, data)
            }
        }
    }

    fn fetch(
        &mut self,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
        now: SimTime,
        job: usize,
        oid: ObjectId,
        dkey: DKey,
        akey: AKey,
        kind: ValueKind,
        epoch: Epoch,
        len: u64,
    ) -> Result<(Bytes, SimTime), DaosError> {
        match self {
            ClientStack::Host { client, .. } => {
                client.fetch(fabric, cluster, now, job, oid, dkey, akey, kind, epoch, len)
            }
            ClientStack::Dpu(c) => ObjectClient::fetch(
                c, fabric, cluster, now, job, oid, dkey, akey, kind, epoch, len,
            ),
        }
    }

    fn execute_pipelined(
        &mut self,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
        now: SimTime,
        job: usize,
        ops: Vec<ClientOp>,
    ) -> Vec<ClientOpResult> {
        match self {
            ClientStack::Host { client, .. } => {
                client.execute_pipelined(fabric, cluster, now, job, ops)
            }
            ClientStack::Dpu(c) => {
                ObjectClient::execute_pipelined(c, fabric, cluster, now, job, ops)
            }
        }
    }

    fn ops(&self) -> u64 {
        ClientStack::ops(self)
    }
}

/// A running ROS2 deployment.
pub struct Ros2System {
    /// The configuration it was launched with.
    pub config: Ros2Config,
    /// The data-plane fabric.
    pub fabric: Fabric,
    /// The storage cluster: N unmodified engines behind the versioned pool
    /// map (a single engine in the default config).
    pub cluster: EngineCluster,
    /// The client stack (host in-process or DPU-offloaded, per
    /// `config.placement`).
    pub client: ClientStack,
    /// The mounted POSIX namespace.
    pub dfs: Dfs,
    session: u64,
    clock: SimTime,
    faults: FaultCursor,
}

impl Ros2System {
    /// Builds and boots the full deployment.
    pub fn launch(config: Ros2Config) -> Result<Self, Ros2Error> {
        let n_engines = config.cluster.engines;
        if n_engines == 0 {
            return Err(Ros2Error::Config("at least one engine".into()));
        }
        if !(1..=ros2_daos::MAX_RF.min(n_engines)).contains(&config.cluster.replication_factor) {
            return Err(Ros2Error::Config(format!(
                "replication factor must be in 1..={} and <= engine count",
                ros2_daos::MAX_RF
            )));
        }
        let topology = ClusterTopology::one_client(config.placement, n_engines);
        let mut fabric = Fabric::for_topology(config.transport, &topology, config.seed);
        for node in 0..topology.node_count() {
            fabric.set_flow_hint(NodeId(node as u32), config.jobs);
        }

        // The GPUDirect extension needs peermem on the client NIC (§3.5).
        if config.buffer_domain == MemoryDomain::GpuHbm {
            fabric.rdma_mut(CLIENT_NODE).enable_peermem();
            if config.transport != Transport::Rdma {
                return Err(Ros2Error::Config(
                    "GPUDirect placement requires the RDMA transport".into(),
                ));
            }
        }

        // Storage servers: bdevs + engine per node, behind the pool map
        // (the canonical assembly shared with the DFS FIO worlds).
        let storage_nodes: Vec<NodeId> = (0..n_engines)
            .map(|i| NodeId(topology.storage_node(i) as u32))
            .collect();
        let mut cluster = EngineCluster::assemble(
            storage_nodes.clone(),
            config.cluster.replication_factor,
            config.ssds,
            config.data_mode,
            2 << 30,
            DaosCostModel::default_model(),
            CoreClass::HostX86,
        );
        cluster
            .cont_create("posix")
            .map_err(|e| Ros2Error::Config(format!("{e:?}")))?;

        // DPU agent: management control-channel termination.
        let mut control = default_control(config.seed ^ 0xc71);
        let digest = Bytes::from(config.tenant.as_bytes().to_vec());
        control.add_tenant(config.tenant.clone(), digest.clone());
        let mut agent = DpuAgent::new(CLIENT_NODE, 30 << 30, control);
        agent.set_inline_service(config.inline_service);

        // Control handshake: Hello -> PoolConnect -> ContOpen -> DfsMount.
        let mut clock = SimTime::ZERO;
        let hello = ControlRequest::Hello {
            tenant: config.tenant.clone(),
            auth: digest,
        };
        let (t, res) = agent.host_call(clock, None, hello, |_, _| ControlResponse::Ok);
        let (session, _) = res.map_err(Ros2Error::Control)?;
        clock = t;
        for req in [
            ControlRequest::PoolConnect {
                pool: "pool0".into(),
            },
            ControlRequest::ContOpen {
                container: "posix".into(),
            },
            ControlRequest::DfsMount,
        ] {
            let (t, res) = agent.host_call(clock, Some(session), req, |_, r| match r {
                ControlRequest::PoolConnect { .. } | ControlRequest::ContOpen { .. } => {
                    ControlResponse::Handle { handle: 1 }
                }
                _ => ControlResponse::Ok,
            });
            res.map_err(Ros2Error::Control)?;
            clock = t;
        }

        let buffer_domain = match (config.placement, config.buffer_domain) {
            (_, MemoryDomain::GpuHbm) => MemoryDomain::GpuHbm,
            (ClientPlacement::Host, _) => MemoryDomain::HostDram,
            (ClientPlacement::Dpu, _) => MemoryDomain::DpuDram,
        };

        // Data plane: the placement fork. Host keeps the in-process client
        // (capability exchange happens inside — the staging MRs registered
        // here are what GetCapability conveys); Dpu builds the offloaded
        // client around the agent, with QoS admission and scoped rkeys
        // enforced on every byte.
        let mut client = match config.placement {
            ClientPlacement::Host => {
                if config.dpu_cache.is_some() {
                    return Err(Ros2Error::Config(
                        "dpu_cache requires ClientPlacement::Dpu".into(),
                    ));
                }
                let mut tenants = TenantManager::new(CLIENT_NODE);
                tenants.register(
                    &mut fabric,
                    config.tenant.clone(),
                    config.qos,
                    SimDuration::from_secs(30),
                );
                let client = DaosClient::connect_multi(
                    &mut fabric,
                    CLIENT_NODE,
                    &storage_nodes,
                    &config.tenant,
                    "posix",
                    config.jobs,
                    config.buffer_len,
                    buffer_domain,
                    DaosCostModel::default_model(),
                )
                .map_err(|e| Ros2Error::Config(format!("{e:?}")))?;
                agent
                    .reserve_dram(config.jobs as u64 * config.buffer_len)
                    .map_err(|e| Ros2Error::Config(e.to_string()))?;
                ClientStack::Host {
                    client,
                    agent,
                    tenants,
                }
            }
            ClientPlacement::Dpu => {
                let mut dpu = DpuClient::connect_cluster(
                    &mut fabric,
                    CLIENT_NODE,
                    &storage_nodes,
                    "posix",
                    config.jobs,
                    config.buffer_len,
                    buffer_domain,
                    DaosCostModel::default_model(),
                    agent,
                    vec![DpuTenantSpec {
                        name: config.tenant.clone(),
                        qos: config.qos,
                        rkey_scope: SimDuration::from_secs(30),
                    }],
                    config.seed,
                )
                .map_err(|e| Ros2Error::Config(e.to_string()))?;
                if let Some(bytes) = config.dpu_cache {
                    dpu.enable_read_cache(bytes)
                        .map_err(|e| Ros2Error::Config(e.to_string()))?;
                }
                ClientStack::Dpu(dpu)
            }
        };

        // Mount DFS.
        let (dfs, t) = {
            let mut s = DfsSession {
                fabric: &mut fabric,
                cluster: &mut cluster,
                client: &mut client,
            };
            Dfs::format(&mut s, clock, config.chunk_size)?
        };
        clock = t;

        Ok(Ros2System {
            config,
            fabric,
            cluster,
            client,
            dfs,
            session,
            clock,
            faults: FaultCursor::default(),
        })
    }

    /// The first engine — the whole pool in the default single-engine
    /// config (tests and reports).
    pub fn engine(&self) -> &DaosEngine {
        self.cluster.engine(0)
    }

    /// Mutable access to the first engine (tests, fault injection).
    pub fn engine_mut(&mut self) -> &mut DaosEngine {
        self.cluster.engine_mut(0)
    }

    /// Marks engine `slot` dead: the pool map bumps its revision, a
    /// RAS-style event is raised on the control plane (the agent terminates
    /// it, exactly like the management calls), and every subsequent op
    /// routes around the dead engine — fetches of affected objects are
    /// served degraded from surviving replicas. Redundancy is restored by
    /// [`Self::rebuild`]. Returns the new map revision.
    ///
    /// The kill is committed *before* the event is delivered, and stays
    /// committed even if the control call errors — the engine is dead
    /// whether or not anyone was notified, exactly like a real RAS event.
    /// On `Err` the map is already at the new revision with a rebuild
    /// pending.
    pub fn kill_engine(&mut self, slot: usize) -> Result<u64, Ros2Error> {
        let version = self
            .cluster
            .kill_engine(slot)
            .map_err(|e| Ros2Error::Config(format!("{e:?}")))?;
        let now = self.clock;
        let session = self.session;
        let (t, res) = self.client.agent_mut().host_call(
            now,
            Some(session),
            ControlRequest::RasEvent {
                engine: slot as u32,
                map_version: version,
            },
            |_, _| ControlResponse::Ok,
        );
        // The new map is *delivered* to the client stack's cache after the
        // plan's RAS delay — until the delivery lands (and is polled), the
        // pipelined client keeps routing by the stale revision and relies
        // on engine fencing plus the retry ladder to recover.
        let snap = self.cluster.snapshot_map();
        self.client
            .deliver_map(t + self.faults.plan().ras_delay, snap);
        res.map_err(Ros2Error::Control)?;
        self.tick(t);
        Ok(version)
    }

    /// Installs a fault plan: black holes and stalls apply immediately;
    /// kills arm against the client-op counter and fire from inside
    /// [`Self::write`]/[`Self::read`] once the threshold is crossed, so a
    /// scheduled kill lands mid-workload without the caller orchestrating
    /// it. RAS deliveries triggered by those kills (and by explicit
    /// [`Self::kill_engine`] calls) reach the client stack `ras_delay`
    /// late.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultCursor::install(plan, &mut self.cluster);
    }

    /// The installed fault plan (empty by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        self.faults.plan()
    }

    /// Fires any armed kills (each a [`Self::kill_engine`], RAS event
    /// included) and bit-rot injections whose client-op threshold has
    /// been crossed.
    fn fire_due_faults(&mut self) -> Result<(), Ros2Error> {
        let ops = self.client.ops();
        while let Some(slot) = self.faults.due_kill(ops) {
            self.kill_engine(slot)?;
        }
        self.faults.apply_due_bitrot(&mut self.cluster, ops);
        Ok(())
    }

    /// An explicit `MapQuery` control round-trip: the client stack asks
    /// the control plane for the current pool map and installs the reply
    /// authoritatively (no delivery delay — the caller is blocked on the
    /// answer). Returns the fetched revision.
    pub fn map_query(&mut self) -> Result<u64, Ros2Error> {
        let snap = self.cluster.snapshot_map();
        let version = snap.version();
        let healths: Vec<u8> = snap
            .map()
            .members()
            .iter()
            .map(|m| u8::from(m.health == ros2_daos::EngineHealth::Up))
            .collect();
        let pending = snap.pending_dead().map(|s| s as u32).unwrap_or(u32::MAX);
        let now = self.clock;
        let session = self.session;
        let (t, res) = self.client.agent_mut().host_call(
            now,
            Some(session),
            ControlRequest::MapQuery,
            move |_, _| ControlResponse::MapUpdate {
                version,
                healths: Bytes::from(healths.clone()),
                pending_dead: pending,
            },
        );
        res.map_err(Ros2Error::Control)?;
        self.client.sync_map(snap);
        self.tick(t);
        Ok(version)
    }

    /// Recovery-ladder counters across the whole client stack.
    pub fn retry_stats(&self) -> RetryStats {
        self.client.retry_stats()
    }

    /// Total stale-map fences observed across the cluster's engines.
    pub fn fences(&self) -> u64 {
        self.cluster.fences()
    }

    /// Online rebuild of the pending engine failure: surviving replicas
    /// stream the dead engine's records to the deterministic backfill
    /// members at data-plane rates (fabric-booked), restoring the
    /// replication factor. Returns the virtual duration of the rebuild.
    pub fn rebuild(&mut self) -> Result<Timed<RebuildStats>, Ros2Error> {
        let now = self.clock;
        let t = self
            .cluster
            .rebuild(&mut self.fabric, now)
            .map_err(|e| Ros2Error::Config(format!("{e:?}")))?;
        self.tick(t);
        Ok(Timed {
            value: self.cluster.rebuild_stats(),
            latency: t.saturating_since(now),
        })
    }

    /// Redundancy counters: degraded reads served, rebuild movement.
    pub fn rebuild_stats(&self) -> RebuildStats {
        self.cluster.rebuild_stats()
    }

    /// Sets a background service's pacing budget (rebuild, aggregation,
    /// or scrub). Unlimited by default — bit-identical to unpaced.
    pub fn set_service_budget(&mut self, service: BgService, limits: QosLimits) {
        self.cluster.set_service_budget(service, limits);
    }

    /// Scrub/aggregation counters, throttle waits included.
    pub fn scrub_stats(&self) -> ScrubStats {
        self.cluster.scrub_stats()
    }

    /// Coordinated epoch aggregation of the mounted container: every up
    /// replica aggregates at the same cluster-safe boundary (see
    /// `EngineCluster::aggregate_cluster`), then the boundary is reported
    /// on the control plane. Call with the pipeline drained — the serial
    /// file API never leaves epochs in flight. Returns the boundary used.
    pub fn aggregate(&mut self) -> Result<Timed<Epoch>, Ros2Error> {
        let now = self.clock;
        let (boundary, t) = self
            .cluster
            .aggregate_cluster(now, "posix", None)
            .map_err(|e| Ros2Error::Config(format!("{e:?}")))?;
        let session = self.session;
        let (t2, res) = self.client.agent_mut().host_call(
            t,
            Some(session),
            ControlRequest::AggregationReport {
                container: "posix".into(),
                boundary: boundary.0,
            },
            |_, _| ControlResponse::Ok,
        );
        res.map_err(Ros2Error::Control)?;
        self.tick(t2);
        Ok(Timed {
            value: boundary,
            latency: t2.saturating_since(now),
        })
    }

    /// One replica-scrub pass: cross-checks every object's replicas
    /// against their recorded checksums (combine-only when clean),
    /// repairs rotten replicas from a healthy copy over the rebuild
    /// fabric path, and raises a RAS-style `ScrubReport` control event
    /// with the pass's findings.
    pub fn scrub(&mut self) -> Result<Timed<ScrubOutcome>, Ros2Error> {
        let now = self.clock;
        let (outcome, t) = self
            .cluster
            .scrub(&mut self.fabric, now)
            .map_err(|e| Ros2Error::Config(format!("{e:?}")))?;
        let session = self.session;
        let (t2, res) = self.client.agent_mut().host_call(
            t,
            Some(session),
            ControlRequest::ScrubReport {
                found: outcome.mismatches_found,
                repaired: outcome.mismatches_repaired,
            },
            |_, _| ControlResponse::Ok,
        );
        res.map_err(Ros2Error::Control)?;
        self.tick(t2);
        Ok(Timed {
            value: outcome,
            latency: t2.saturating_since(now),
        })
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The control-plane session token.
    pub fn session(&self) -> u64 {
        self.session
    }

    fn tick(&mut self, t: SimTime) {
        self.clock = self.clock.max(t);
    }

    /// Creates a directory at absolute `path` (parent must exist).
    pub fn mkdir(&mut self, path: &str) -> Result<Timed<DfsObj>, Ros2Error> {
        let now = self.clock;
        let (parent_path, name) = split_path(path)?;
        let mut s = DfsSession {
            fabric: &mut self.fabric,
            cluster: &mut self.cluster,
            client: &mut self.client,
        };
        let (parent, t1) = self.dfs.lookup(&mut s, now, parent_path)?;
        let (obj, t2) = self.dfs.mkdir(&mut s, t1, &parent, name, 0o755)?;
        self.tick(t2);
        Ok(Timed {
            value: obj,
            latency: t2.saturating_since(now),
        })
    }

    /// Creates a regular file at absolute `path`.
    pub fn create(&mut self, path: &str) -> Result<Timed<DfsObj>, Ros2Error> {
        let now = self.clock;
        let (parent_path, name) = split_path(path)?;
        let mut s = DfsSession {
            fabric: &mut self.fabric,
            cluster: &mut self.cluster,
            client: &mut self.client,
        };
        let (parent, t1) = self.dfs.lookup(&mut s, now, parent_path)?;
        let (obj, t2) = self.dfs.create(&mut s, t1, &parent, name, 0o644)?;
        self.tick(t2);
        Ok(Timed {
            value: obj,
            latency: t2.saturating_since(now),
        })
    }

    /// Opens an existing file or directory at absolute `path`.
    pub fn open(&mut self, path: &str) -> Result<Timed<DfsObj>, Ros2Error> {
        let now = self.clock;
        let mut s = DfsSession {
            fabric: &mut self.fabric,
            cluster: &mut self.cluster,
            client: &mut self.client,
        };
        let (obj, t) = self.dfs.lookup(&mut s, now, path)?;
        self.tick(t);
        Ok(Timed {
            value: obj,
            latency: t.saturating_since(now),
        })
    }

    /// Writes `data` at `offset` in an open file, through the tenant's QoS
    /// admission and the DPU's inline service.
    ///
    /// Under host placement admission and the inline service apply once at
    /// the NIC, here; under DPU placement the offloaded client admits and
    /// services every constituent object op itself.
    pub fn write(
        &mut self,
        file: &mut DfsObj,
        offset: u64,
        data: Bytes,
    ) -> Result<Timed<()>, Ros2Error> {
        let now = self.clock;
        let bytes = data.len() as u64;
        let start = match &mut self.client {
            ClientStack::Host { agent, tenants, .. } => {
                let tenant = &self.config.tenant;
                let admitted = tenants
                    .admit(now, tenant, bytes)
                    .ok_or_else(|| Ros2Error::Config(format!("unknown tenant {tenant}")))?;
                admitted + agent.inline_cost(bytes)
            }
            ClientStack::Dpu(_) => now,
        };
        let job = (file.oid.lo % self.config.jobs as u64) as usize;
        let mut s = DfsSession {
            fabric: &mut self.fabric,
            cluster: &mut self.cluster,
            client: &mut self.client,
        };
        let t = self.dfs.write(&mut s, start, job, file, offset, data)?;
        self.tick(t);
        self.fire_due_faults()?;
        Ok(Timed {
            value: (),
            latency: t.saturating_since(now),
        })
    }

    /// Reads `len` bytes at `offset` from an open file (QoS-admitted,
    /// decrypted inline when the crypto service is active). See
    /// [`Self::write`] for where admission applies per placement.
    pub fn read(
        &mut self,
        file: &DfsObj,
        offset: u64,
        len: u64,
    ) -> Result<Timed<Bytes>, Ros2Error> {
        let now = self.clock;
        let start = match &mut self.client {
            ClientStack::Host { tenants, .. } => {
                let tenant = &self.config.tenant;
                tenants
                    .admit(now, tenant, len)
                    .ok_or_else(|| Ros2Error::Config(format!("unknown tenant {tenant}")))?
            }
            ClientStack::Dpu(_) => now,
        };
        let job = (file.oid.lo % self.config.jobs as u64) as usize;
        let mut s = DfsSession {
            fabric: &mut self.fabric,
            cluster: &mut self.cluster,
            client: &mut self.client,
        };
        let (data, t) = self.dfs.read(&mut s, start, job, file, offset, len)?;
        let t = match &mut self.client {
            ClientStack::Host { agent, .. } => t + agent.inline_cost(data.len() as u64),
            ClientStack::Dpu(_) => t,
        };
        self.tick(t);
        self.fire_due_faults()?;
        Ok(Timed {
            value: data,
            latency: t.saturating_since(now),
        })
    }

    /// Lists names in the directory at `path`.
    pub fn readdir(&mut self, path: &str) -> Result<Timed<Vec<String>>, Ros2Error> {
        let now = self.clock;
        let mut s = DfsSession {
            fabric: &mut self.fabric,
            cluster: &mut self.cluster,
            client: &mut self.client,
        };
        let (dir, t) = self.dfs.lookup(&mut s, now, path)?;
        let names = self.dfs.readdir(&mut s, t, &dir)?;
        self.tick(t);
        Ok(Timed {
            value: names,
            latency: t.saturating_since(now),
        })
    }

    /// Stats the entry at absolute `path`.
    pub fn stat(&mut self, path: &str) -> Result<Timed<FileStat>, Ros2Error> {
        let now = self.clock;
        let (parent_path, name) = split_path(path)?;
        let mut s = DfsSession {
            fabric: &mut self.fabric,
            cluster: &mut self.cluster,
            client: &mut self.client,
        };
        let (parent, t1) = self.dfs.lookup(&mut s, now, parent_path)?;
        let (st, t2) = self.dfs.stat(&mut s, t1, &parent, name)?;
        self.tick(t2);
        Ok(Timed {
            value: st,
            latency: t2.saturating_since(now),
        })
    }

    /// Removes the file or empty directory at absolute `path`.
    pub fn unlink(&mut self, path: &str) -> Result<Timed<()>, Ros2Error> {
        let now = self.clock;
        let (parent_path, name) = split_path(path)?;
        let mut s = DfsSession {
            fabric: &mut self.fabric,
            cluster: &mut self.cluster,
            client: &mut self.client,
        };
        let (parent, t1) = self.dfs.lookup(&mut s, now, parent_path)?;
        let t2 = self.dfs.unlink(&mut s, t1, &parent, name)?;
        self.tick(t2);
        Ok(Timed {
            value: (),
            latency: t2.saturating_since(now),
        })
    }

    /// Aggregate data-plane (copy vs zero-copy, CRC scan vs combine)
    /// counters over the whole deployment: every NIC's registered memory,
    /// every VOS target's SCM pool, and every NVMe backing store.
    pub fn data_plane_stats(&self) -> ros2_buf::DataPlaneStats {
        let mut total = self.fabric.data_plane_stats();
        total.merge(self.cluster.data_plane_stats());
        total.merge(self.client.cache_data_plane_stats());
        total
    }

    /// Registers a further tenant's *NIC policy* — protection domain, QoS
    /// buckets, rkey scope — on whichever side owns the tenant manager.
    ///
    /// This provisions isolation state only. Data-plane lanes are fixed at
    /// launch: under DPU placement a tenant registered here cannot carry
    /// offloaded I/O (that requires a `DpuTenantSpec` at launch), which is
    /// exactly what the isolation tests need — a PD to probe against — and
    /// nothing more.
    pub fn register_tenant(
        &mut self,
        tenant: impl Into<String>,
        qos: QosLimits,
        rkey_scope: SimDuration,
    ) -> PdId {
        let tenants = match &mut self.client {
            ClientStack::Host { tenants, .. } => tenants,
            ClientStack::Dpu(c) => c.tenants_mut(),
        };
        tenants.register(&mut self.fabric, tenant, qos, rkey_scope)
    }

    /// The tenant manager (QoS/PD state and admission counters).
    pub fn tenants(&self) -> &TenantManager {
        self.client.tenants()
    }

    /// The DPU agent.
    pub fn agent(&self) -> &DpuAgent {
        self.client.agent()
    }

    /// Mutable agent access (management control calls).
    pub fn agent_mut(&mut self) -> &mut DpuAgent {
        self.client.agent_mut()
    }

    /// Offload-path counters (zero under host placement).
    pub fn dpu_stats(&self) -> DpuStats {
        self.client.dpu_stats()
    }

    /// DPU read-cache counters (zero while the cache is disabled).
    pub fn cache_stats(&self) -> DpuCacheStats {
        self.client.cache_stats()
    }

    /// Gathers activity counters from every layer.
    pub fn metrics(&self) -> SystemMetrics {
        SystemMetrics {
            client_ops: self.client.ops(),
            engine_rpcs: self.cluster.rpcs(),
            dfs_ops: (self.dfs.meta_ops, self.dfs.data_ops),
            control_calls: self.client.agent().control_calls.get(),
            inline_bytes: self.client.agent().serviced_bytes.get(),
            violations: self.fabric.node(CLIENT_NODE).rdma.violations().total(),
            retry: self.client.retry_stats(),
            scrub: self.cluster.scrub_stats(),
            cache: self.client.cache_stats(),
        }
    }
}

/// Splits "/a/b/c" into ("/a/b", "c").
fn split_path(path: &str) -> Result<(&str, &str), Ros2Error> {
    let trimmed = path.trim_end_matches('/');
    let idx = trimmed
        .rfind('/')
        .ok_or_else(|| Ros2Error::Config(format!("bad path {path}")))?;
    let (dir, name) = trimmed.split_at(idx);
    Ok((if dir.is_empty() { "/" } else { dir }, &name[1..]))
}

/// A file-operation result with its virtual latency.
#[derive(Debug)]
pub struct Timed<T> {
    /// The operation result.
    pub value: T,
    /// Virtual latency of the operation.
    pub latency: SimDuration,
}

/// Summary of a deployment's activity.
#[derive(Clone, Debug)]
pub struct SystemMetrics {
    /// Data-plane operations issued by the client.
    pub client_ops: u64,
    /// RPCs processed by the engine.
    pub engine_rpcs: u64,
    /// DFS namespace / data operation counts.
    pub dfs_ops: (u64, u64),
    /// Control calls carried host↔DPU.
    pub control_calls: u64,
    /// Bytes passed through the inline service.
    pub inline_bytes: u64,
    /// Security violations observed at the client NIC.
    pub violations: u64,
    /// Recovery-ladder counters across the client stack.
    pub retry: RetryStats,
    /// Background-service counters (scrub passes, repair volume,
    /// per-service throttle waits).
    pub scrub: ScrubStats,
    /// DPU read-cache counters (all zeros unless the cache is enabled
    /// under DPU placement).
    pub cache: DpuCacheStats,
}
