//! The assembled ROS2 system: testbed construction, control-plane
//! handshake, and a POSIX-flavoured file API over the offloaded data plane.
//!
//! [`Ros2System::launch`] builds the paper's architecture end to end:
//!
//! 1. the fabric (client host *or* BlueField-3 ↔ 100 Gbps switch ↔ storage
//!    servers) on the selected transport, and the unmodified DAOS engines
//!    behind it ([`crate::fabric_and_cluster`]);
//! 2. the DPU agent with the tenant's control-plane identity and the
//!    selected inline service;
//! 3. the gRPC control handshake — Hello, PoolConnect, ContOpen, DfsMount
//!    — over the control channel (no payload bytes here);
//! 4. the client stack on the chosen placement ([`crate::connect_client`]):
//!    under host placement an in-process client behind the NIC's agent and
//!    tenant manager, which the system keeps; under DPU placement the
//!    offloaded client, which takes the agent and polices the tenant
//!    itself;
//! 5. the DFS mount.
//!
//! Steps 1 and 4 are the functions the FIO worlds build through; the
//! system passes its own agent, tenant, staging size and buffer domain.
//! Every file operation advances the system's virtual clock and reports its
//! latency, so applications (the examples) can reason about delivered
//! performance without running the FIO harness.

use bytes::Bytes;
use ros2_ctl::{ControlError, ControlRequest, ControlResponse};
use ros2_daos::{
    DaosError, EngineCluster, Epoch, RebuildStats, RetryStats, ScrubOutcome, ScrubStats,
};
use ros2_dfs::{Dfs, DfsError, DfsObj, DfsSession, FileStat};
use ros2_dpu::{
    default_control, DpuAgent, DpuCacheStats, DpuError, DpuTenantSpec, InlineService, QosLimits,
    TenantManager,
};
use ros2_fabric::Fabric;
use ros2_hw::{ClientPlacement, ClusterTopology, Transport, BLUEFIELD3_DRAM};
use ros2_nvme::DataMode;
use ros2_sim::{SimDuration, SimTime};
use ros2_verbs::{MemoryDomain, NodeId, PdId};

use crate::assembly::{connect_client, fabric_and_cluster, ClientSetup, ClientStack};
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
    /// Pool or client failure outside a file operation (assembly, kill,
    /// rebuild, aggregation, scrub).
    Daos(DaosError),
    /// The DPU runtime refused the deployment (e.g. its DRAM cannot hold
    /// the staging buffers).
    Dpu(DpuError),
    /// Configuration rejected (e.g. GPU buffers without peermem support).
    Config(String),
}

impl From<DfsError> for Ros2Error {
    fn from(e: DfsError) -> Self {
        Ros2Error::Dfs(e)
    }
}

impl From<DaosError> for Ros2Error {
    fn from(e: DaosError) -> Self {
        Ros2Error::Daos(e)
    }
}

impl From<DpuError> for Ros2Error {
    fn from(e: DpuError) -> Self {
        Ros2Error::Dpu(e)
    }
}

/// The node ids used by every ROS2 deployment.
pub const CLIENT_NODE: NodeId = NodeId(0);
/// See [`CLIENT_NODE`].
pub const STORAGE_NODE: NodeId = NodeId(1);

/// Under host placement the SmartNIC passes data through, but its agent
/// still terminates the management control channel and its tenant
/// manager polices QoS. (Under DPU placement both live inside the
/// offloaded client.)
struct HostNic {
    agent: DpuAgent,
    tenants: TenantManager,
}

impl HostNic {
    /// Admits `bytes` of `tenant`'s I/O at the NIC.
    fn admit(&mut self, now: SimTime, tenant: &str, bytes: u64) -> Result<SimTime, Ros2Error> {
        self.tenants
            .admit(now, tenant, bytes)
            .ok_or_else(|| Ros2Error::Config(format!("unknown tenant {tenant}")))
    }
}

/// `launch` keeps a [`HostNic`] exactly when the client is in-process.
const OFFLOADED: &str = "without a host NIC the stack is offloaded";

/// A running ROS2 deployment.
pub struct Ros2System {
    /// The configuration it was launched with.
    pub config: Ros2Config,
    /// The data-plane fabric.
    pub fabric: Fabric,
    /// The storage cluster: N unmodified engines behind the versioned pool
    /// map (a single engine in the default config).
    pub cluster: EngineCluster,
    /// The client stack (in-process under host placement, offloaded under
    /// DPU placement).
    pub client: ClientStack,
    /// The mounted POSIX namespace.
    pub dfs: Dfs,
    /// Host placement only.
    nic: Option<HostNic>,
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
        let (mut fabric, mut cluster, storage_nodes) = fabric_and_cluster(
            config.transport,
            &ClusterTopology::one_client(config.placement, n_engines),
            config.seed,
            config.jobs,
            config.cluster.replication_factor,
            config.ssds,
            config.data_mode,
        )?;

        // DPU agent: management control-channel termination.
        let mut control = default_control(config.seed ^ 0xc71);
        let digest = Bytes::from(config.tenant.as_bytes().to_vec());
        control.add_tenant(config.tenant.clone(), digest.clone());
        let mut agent = DpuAgent::new(CLIENT_NODE, BLUEFIELD3_DRAM, control);
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

        // Data plane: the placement fork. Host keeps the agent and polices
        // the tenant at the NIC in front of the in-process client; Dpu
        // hands the agent to the offloaded client, which enforces QoS
        // admission and scoped rkeys on every byte.
        let tenant = DpuTenantSpec {
            name: config.tenant.clone(),
            qos: config.qos,
            rkey_scope: SimDuration::from_secs(30),
        };
        let (agent, mut nic) = match config.placement {
            ClientPlacement::Host => {
                let mut tenants = TenantManager::new(CLIENT_NODE);
                tenants.register(
                    &mut fabric,
                    tenant.name.clone(),
                    tenant.qos,
                    tenant.rkey_scope,
                );
                (None, Some(HostNic { agent, tenants }))
            }
            ClientPlacement::Dpu => (Some(agent), None),
        };
        let mut client = connect_client(
            &mut fabric,
            CLIENT_NODE,
            &storage_nodes,
            config.placement,
            ClientSetup {
                jobs: config.jobs,
                buffer_len: config.buffer_len,
                gpu_hbm: config.buffer_domain == MemoryDomain::GpuHbm,
                tenants: vec![tenant],
                dpu_cache: config.dpu_cache,
                seed: config.seed,
                agent,
            },
        )?;
        if let Some(nic) = &mut nic {
            nic.agent
                .reserve_dram(config.jobs as u64 * config.buffer_len)?;
        }

        // Mount DFS.
        let (dfs, t) = {
            let mut s = DfsSession {
                fabric: &mut fabric,
                cluster: &mut cluster,
                client: client.as_object(),
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
            nic,
            session,
            clock,
            faults: FaultCursor::default(),
        })
    }

    /// Marks engine `slot` dead: the pool map bumps its revision, a
    /// RAS-style event is raised on the control plane (the agent terminates
    /// it, exactly like the management calls), and the new map is pushed
    /// to the client stack ([`FaultCursor::push_map`]) `ras_delay` after
    /// that call; until it lands the client routes by the stale revision
    /// and recovers through fencing and the retry ladder. Redundancy is
    /// restored by [`Self::rebuild`]. Returns the new map revision.
    ///
    /// The kill is committed *before* the event is raised, and stays
    /// committed (its map pushed) even if the control call errors. On
    /// `Err` the map is already at the new revision with a rebuild pending.
    pub fn kill_engine(&mut self, slot: usize) -> Result<u64, Ros2Error> {
        let version = self.cluster.kill_engine(slot)?;
        let (t, res) = self.notify(
            self.clock,
            ControlRequest::RasEvent {
                engine: slot as u32,
                map_version: version,
            },
        );
        self.faults
            .push_map(&self.cluster, t, std::slice::from_mut(&mut self.client));
        res?;
        self.tick(t);
        Ok(version)
    }

    /// Installs a fault plan: black holes and stalls apply immediately;
    /// kills arm against the client-op counter and fire from inside
    /// [`Self::write`]/[`Self::read`] once the threshold is crossed, so a
    /// scheduled kill lands mid-workload without the caller orchestrating
    /// it. The map pushes those kills trigger (and explicit
    /// [`Self::kill_engine`] and [`Self::rebuild`] calls) reach the
    /// client stack `ras_delay` late.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultCursor::install(plan, &mut self.cluster);
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
        let map = self.cluster.map().clone();
        let ControlRequest::MapPush {
            version,
            healths,
            pending_dead,
        } = map.to_push()
        else {
            unreachable!("to_push encodes a MapPush");
        };
        let now = self.clock;
        let session = self.session;
        let (t, res) = self.agent_mut().host_call(
            now,
            Some(session),
            ControlRequest::MapQuery,
            move |_, _| ControlResponse::MapUpdate {
                version,
                healths: healths.clone(),
                pending_dead,
            },
        );
        res.map_err(Ros2Error::Control)?;
        self.client.sync_map(map);
        self.tick(t);
        Ok(version)
    }

    /// Online rebuild of the pending engine failure: surviving replicas
    /// stream the dead engine's records to the deterministic backfill
    /// members at data-plane rates (fabric-booked), restoring the
    /// replication factor. Its completion is a map event too, pushed like
    /// a kill's. Returns the virtual duration of the rebuild.
    pub fn rebuild(&mut self) -> Result<Timed<RebuildStats>, Ros2Error> {
        let now = self.clock;
        let t = self.cluster.rebuild(&mut self.fabric, now)?;
        self.faults
            .push_map(&self.cluster, t, std::slice::from_mut(&mut self.client));
        let stats = self.cluster.rebuild_stats();
        Ok(self.timed(now, t, stats))
    }

    /// Coordinated epoch aggregation of the mounted container: every up
    /// replica aggregates at the same cluster-safe boundary (see
    /// `EngineCluster::aggregate_cluster`), then the boundary is reported
    /// on the control plane. Call with the pipeline drained — the serial
    /// file API never leaves epochs in flight. Returns the boundary used.
    pub fn aggregate(&mut self) -> Result<Timed<Epoch>, Ros2Error> {
        let now = self.clock;
        let (boundary, t) = self.cluster.aggregate_cluster(now, "posix", None)?;
        let (t, res) = self.notify(
            t,
            ControlRequest::AggregationReport {
                container: "posix".into(),
                boundary: boundary.0,
            },
        );
        res?;
        Ok(self.timed(now, t, boundary))
    }

    /// One replica-scrub pass: cross-checks every object's replicas
    /// against their recorded checksums (chunk by chunk against the media
    /// stores' cached CRCs, scanning nothing when clean),
    /// repairs rotten replicas from a healthy copy over the rebuild
    /// fabric path, and raises a RAS-style `ScrubReport` control event
    /// with the pass's findings.
    pub fn scrub(&mut self) -> Result<Timed<ScrubOutcome>, Ros2Error> {
        let now = self.clock;
        let (outcome, t) = self.cluster.scrub(&mut self.fabric, now)?;
        let (t, res) = self.notify(
            t,
            ControlRequest::ScrubReport {
                found: outcome.mismatches_found,
                repaired: outcome.mismatches_repaired,
            },
        );
        res?;
        Ok(self.timed(now, t, outcome))
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The control-plane session token.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Raises `event` on the control session at `at`; the agent
    /// terminates it like the launch handshake. Returns when it completed
    /// (even if it failed).
    fn notify(&mut self, at: SimTime, event: ControlRequest) -> (SimTime, Result<(), Ros2Error>) {
        let session = self.session;
        let (t, res) = self
            .agent_mut()
            .host_call(at, Some(session), event, |_, _| ControlResponse::Ok);
        (t, res.map(drop).map_err(Ros2Error::Control))
    }

    fn tick(&mut self, t: SimTime) {
        self.clock = self.clock.max(t);
    }

    /// Advances the clock to `t` and reports `value` with its latency
    /// from `start`.
    fn timed<T>(&mut self, start: SimTime, t: SimTime, value: T) -> Timed<T> {
        self.tick(t);
        Timed {
            value,
            latency: t.saturating_since(start),
        }
    }

    /// The namespace and a session over the data plane to drive it with.
    fn dfs_session(&mut self) -> (&mut Dfs, DfsSession<'_>) {
        let s = DfsSession {
            fabric: &mut self.fabric,
            cluster: &mut self.cluster,
            client: self.client.as_object(),
        };
        (&mut self.dfs, s)
    }

    /// Looks up the parent directory of absolute `path` and runs `op` on
    /// it and the final name.
    fn at_parent<T>(
        &mut self,
        path: &str,
        op: impl FnOnce(
            &mut Dfs,
            &mut DfsSession<'_>,
            SimTime,
            &DfsObj,
            &str,
        ) -> Result<(T, SimTime), DfsError>,
    ) -> Result<Timed<T>, Ros2Error> {
        let now = self.clock;
        let (parent_path, name) = split_path(path)?;
        let (dfs, mut s) = self.dfs_session();
        let (parent, t) = dfs.lookup(&mut s, now, parent_path)?;
        let (value, t) = op(dfs, &mut s, t, &parent, name)?;
        Ok(self.timed(now, t, value))
    }

    /// Creates a directory at absolute `path` (parent must exist).
    pub fn mkdir(&mut self, path: &str) -> Result<Timed<DfsObj>, Ros2Error> {
        self.at_parent(path, |dfs, s, t, parent, name| {
            dfs.mkdir(s, t, parent, name, 0o755)
        })
    }

    /// Creates a regular file at absolute `path`.
    pub fn create(&mut self, path: &str) -> Result<Timed<DfsObj>, Ros2Error> {
        self.at_parent(path, |dfs, s, t, parent, name| {
            dfs.create(s, t, parent, name, 0o644)
        })
    }

    /// Opens an existing file or directory at absolute `path`.
    pub fn open(&mut self, path: &str) -> Result<Timed<DfsObj>, Ros2Error> {
        let now = self.clock;
        let (dfs, mut s) = self.dfs_session();
        let (obj, t) = dfs.lookup(&mut s, now, path)?;
        Ok(self.timed(now, t, obj))
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
        let start = match &mut self.nic {
            Some(nic) => nic.admit(now, &self.config.tenant, bytes)? + nic.agent.inline_cost(bytes),
            None => now,
        };
        let job = (file.oid.lo % self.config.jobs as u64) as usize;
        let (dfs, mut s) = self.dfs_session();
        let t = dfs.write(&mut s, start, job, file, offset, data)?;
        let done = self.timed(now, t, ());
        self.fire_due_faults()?;
        Ok(done)
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
        let start = match &mut self.nic {
            Some(nic) => nic.admit(now, &self.config.tenant, len)?,
            None => now,
        };
        let job = (file.oid.lo % self.config.jobs as u64) as usize;
        let (dfs, mut s) = self.dfs_session();
        let (data, t) = dfs.read(&mut s, start, job, file, offset, len)?;
        let t = match &mut self.nic {
            Some(nic) => t + nic.agent.inline_cost(data.len() as u64),
            None => t,
        };
        let done = self.timed(now, t, data);
        self.fire_due_faults()?;
        Ok(done)
    }

    /// Lists names in the directory at `path`.
    pub fn readdir(&mut self, path: &str) -> Result<Timed<Vec<String>>, Ros2Error> {
        let now = self.clock;
        let (dfs, mut s) = self.dfs_session();
        let (dir, t) = dfs.lookup(&mut s, now, path)?;
        let names = dfs.readdir(&mut s, t, &dir)?;
        Ok(self.timed(now, t, names))
    }

    /// Stats the entry at absolute `path`.
    pub fn stat(&mut self, path: &str) -> Result<Timed<FileStat>, Ros2Error> {
        self.at_parent(path, |dfs, s, t, parent, name| dfs.stat(s, t, parent, name))
    }

    /// Removes the file or empty directory at absolute `path`.
    pub fn unlink(&mut self, path: &str) -> Result<Timed<()>, Ros2Error> {
        self.at_parent(path, |dfs, s, t, parent, name| {
            Ok(((), dfs.unlink(s, t, parent, name)?))
        })
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
        let tenants = match &mut self.nic {
            Some(nic) => &mut nic.tenants,
            None => self.client.offloaded_mut().expect(OFFLOADED).tenants_mut(),
        };
        tenants.register(&mut self.fabric, tenant, qos, rkey_scope)
    }

    /// The tenant manager (QoS/PD state and admission counters).
    pub fn tenants(&self) -> &TenantManager {
        match &self.nic {
            Some(nic) => &nic.tenants,
            None => self.client.offloaded().expect(OFFLOADED).tenants(),
        }
    }

    /// The DPU agent.
    pub fn agent(&self) -> &DpuAgent {
        match &self.nic {
            Some(nic) => &nic.agent,
            None => self.client.offloaded().expect(OFFLOADED).agent(),
        }
    }

    /// Mutable agent access (management control calls).
    pub fn agent_mut(&mut self) -> &mut DpuAgent {
        match &mut self.nic {
            Some(nic) => &mut nic.agent,
            None => self.client.offloaded_mut().expect(OFFLOADED).agent_mut(),
        }
    }

    /// Gathers activity counters from every layer.
    pub fn metrics(&self) -> SystemMetrics {
        SystemMetrics {
            client_ops: self.client.ops(),
            engine_rpcs: self.cluster.rpcs(),
            dfs_ops: (self.dfs.meta_ops, self.dfs.data_ops),
            control_calls: self.agent().control_calls.get(),
            inline_bytes: self.agent().serviced_bytes.get(),
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
