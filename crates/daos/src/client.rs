//! The DAOS client (libdaos analogue) — the component ROS2 relocates from
//! the host CPU to the BlueField-3 (§3.2).
//!
//! The client is placement-agnostic: it runs on whichever fabric node it is
//! constructed for, and every CPU cost it pays is scaled to that node's
//! core class. Each job (FIO thread) owns one channel *per cluster engine*
//! — a sub-channel of the node's pooled per-engine connection, so QP state
//! stays O(engines) — plus a registered staging buffer, and its CPU work
//! runs on the job's own core (in-process) or on a pool shared by all
//! jobs (offloaded, [`DaosClient::share_cores`]):
//!
//! * **RDMA**: updates announce staged data and the *server* pulls with
//!   RDMA READ; fetches are *pushed* by the server with RDMA WRITE into the
//!   job's buffer. The client CPU never touches payload bytes.
//! * **TCP**: payloads travel inline in the RPC messages, paying per-byte
//!   CPU on both ends (and the DPU receive-path penalty when the client is
//!   the SmartNIC). Those are modelled costs: the simulator itself passes
//!   the payload handle behind a framing length and never copies it.
//!
//! Routing lives here (client-side, so the DPU-offloaded client inherits
//! it without host involvement): each op asks a [`PoolMap`] for its
//! [`Routing`] — updates fan out to every member of the set (commit = the
//! last replica's ack), fetches go to the leader and fail over to a
//! surviving replica while an engine is down. With one engine and RF = 1
//! the route is always slot 0 and every phase runs the exact pre-cluster
//! sequence — the pinned host-placement path.
//!
//! An op runs one of two ways, both through [`ObjectClient`]: the serial
//! call ([`ObjectClient::update`] / [`ObjectClient::fetch`], routed on the
//! live map, the whole `client_per_op` on the job core) or a submission to
//! the [`crate::pipeline::OpRing`] (routed on the client's cached copy of
//! the map, split CPU cost — or none at all where the NIC runs the ring's
//! clean path, [`DaosClient::chain_ring`] — and the recovery ladder).
//! Either way every engine RPC carries the stamp of the route it took: the
//! live revision for the serial call, the cached one for the ring. The
//! caller picks — `Dfs::data_pipeline` for single-chunk file I/O;
//! multi-chunk I/O always takes the ring.
//!
//! A ring op names its record by one [`RecordKey`]: [`ClientOp`] is an
//! [`UpdateOp`] or a [`FetchOp`], each carrying its key, and
//! [`DaosClient::fetch_with_meta`] takes a `&FetchOp`. Only the serial
//! call's two trait methods still spell the address as three arguments,
//! because the benchmark's interposer implements them that way. A client
//! is connected from one [`ConnectSpec`].

use bytes::Bytes;
use ros2_buf::zero_bytes;
use ros2_ctl::IoPatch;
use ros2_fabric::{ConnId, Delivery, Dir, Fabric, SendCores};
use ros2_hw::{CoreClass, NicModel, Transport};
use ros2_sim::{ResourceStats, ServerPool, SimDuration, SimTime, Timed, Visit};
use ros2_verbs::{AccessFlags, Expiry, MemAddr, MemoryDomain, MrId, NodeId, PdId, RKey};

use crate::cluster::{EngineCluster, PoolMap, Routing};
use crate::descriptor::{TemplateTable, REGION_LEN, TEMPLATE_LEN};
use crate::engine::{Arrival, ValueKind};
use crate::pipeline::{OpRing, RetryPolicy, RetryStats, RingStore};
use crate::types::{
    AKey, DKey, DaosCostModel, DaosError, Epoch, ObjectId, RecordKey, RecordVersion,
};

/// RPC descriptor size on the wire (OBJ_UPDATE/OBJ_FETCH header).
const RPC_DESC: usize = 128;
/// Completion message size.
const RPC_DONE: usize = 16;

/// The zeroed OBJ_UPDATE/OBJ_FETCH descriptor: a refcounted slice of the
/// process-wide zero pool, so issuing an RPC never heap-allocates the
/// header (the seed built a fresh `Vec` per RPC on every path).
fn rpc_desc() -> Bytes {
    zero_bytes(RPC_DESC)
}

/// The zeroed completion message (same shared pool).
fn rpc_done() -> Bytes {
    zero_bytes(RPC_DONE)
}

struct ClientJob {
    /// One connection per cluster engine slot (index-aligned with the pool
    /// map).
    conns: Vec<ConnId>,
    buf: MemAddr,
    buf_len: u64,
    rkey: Option<RKey>,
    /// The MR handle behind `rkey` (RDMA only), kept so the registration
    /// can be replaced when a scoped rkey nears expiry.
    mr: Option<MrId>,
}

/// The cores that execute the client's per-op CPU work.
enum ClientCores {
    /// In-process client: the submitting thread *is* the application
    /// thread, so each job's work serializes on its own core.
    PerJob(Vec<ServerPool>),
    /// Offloaded client: the host job only rings doorbells, so nothing
    /// ties a job to one core — every job's work lands on one
    /// work-conserving pool (see [`DaosClient::share_cores`]).
    Shared(ServerPool),
}

impl ClientCores {
    fn pools(&self) -> &[ServerPool] {
        match self {
            ClientCores::PerJob(cores) => cores,
            ClientCores::Shared(pool) => std::slice::from_ref(pool),
        }
    }
}

/// Who runs the clean path of a ring op — posts its descriptor, and
/// forwards its completion to whoever waits on it.
#[derive(Copy, Clone)]
enum RingPath {
    /// Client cores: the submission fraction of `client_per_op` booked on
    /// a core before the descriptor goes out, the completion fraction
    /// (plus, on DPU ARM cores, the synchronous-poll surcharge) charged
    /// when the completion queue is reaped.
    Cores,
    /// NIC work-request chains, one hop of this latency at each end: the
    /// doorbell fires the descriptor SEND, the engine's completion SEND
    /// fires the forwarding. See [`DaosClient::chain_ring`].
    NicChains { hop: SimDuration },
}

/// The descriptor template a doorbell fires for one op: where it sits in
/// the client's template region, what it says, and which engines' legs it
/// sends on. Only [`DaosClient::fired_template`] hands one out, and
/// [`OpRing::submit_fired`] takes the op's route and stamp from it.
#[derive(Clone, Debug)]
pub struct FiredTemplate {
    /// Address of the [`TEMPLATE_LEN`]-byte template.
    pub at: MemAddr,
    /// The template's bytes, as the NIC gathers them.
    pub(crate) bytes: Bytes,
    /// The routing those bytes spell out.
    pub(crate) routing: Routing,
    legs: usize,
}

impl FiredTemplate {
    /// Engine slots the op's descriptor goes to: the leader for a fetch,
    /// the whole replica set for an update.
    pub fn legs(&self) -> impl Iterator<Item = usize> + '_ {
        self.routing.set.iter().take(self.legs)
    }
}

/// Provenance of one completed fetch, surfaced by
/// [`DaosClient::fetch_with_meta`]: the route it was served under (its
/// leader served the read) and the record's arrival version at that
/// engine. A read cache fills only from non-degraded completions and
/// stamps the record's entries with `{routing.stamp, record_version}`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FetchMeta {
    /// The route the fetch was served under.
    pub routing: Routing,
    /// The fetched record's arrival version at the serving engine when it
    /// was read.
    pub record_version: RecordVersion,
}

/// Where and how a client connects: what [`DaosClient::connect_scoped_multi`]
/// and the offloaded client's `connect_cluster` both take.
#[derive(Debug)]
pub struct ConnectSpec {
    /// The fabric node the client runs on.
    pub node: NodeId,
    /// Every storage node of the cluster, slot-aligned with the pool map.
    pub servers: Vec<NodeId>,
    /// The container the client is bound to.
    pub cont: String,
    /// Client jobs (FIO threads).
    pub jobs: usize,
    /// Bytes of each job's staging buffer.
    pub buf_len: u64,
    /// The memory the staging buffers live in.
    pub domain: MemoryDomain,
    /// The client's per-op CPU costs.
    pub model: DaosCostModel,
}

/// A connected DAOS client bound to one container.
pub struct DaosClient {
    node: NodeId,
    servers: Vec<NodeId>,
    cont: String,
    pd: PdId,
    jobs: Vec<ClientJob>,
    cores: ClientCores,
    ring_path: RingPath,
    /// Descriptor templates, where the NIC runs the ring's clean path
    /// (empty otherwise, and until the first submission).
    templates: TemplateTable,
    /// Ring scaffolding kept per job between queues (grown on first use).
    rings: Vec<RingStore>,
    model: DaosCostModel,
    class: CoreClass,
    transport: Transport,
    ops: u64,
    /// The client's cached copy of the pool map — the *only* routing
    /// source for the pipelined ring, so membership changes genuinely race
    /// in-flight ops. `None` until first use (bootstrapped from the
    /// cluster, modeling the `PoolConnect` handshake's map download).
    map_cache: Option<PoolMap>,
    /// An asynchronously *delivered* RAS map push that has not arrived
    /// yet: `(delivery instant, map)`. Applied by [`Self::poll_map`] once
    /// the clock passes the instant — the delivery delay is a
    /// fault-injectable parameter, not zero.
    pending_map: Option<(SimTime, PoolMap)>,
    /// Recovery-ladder counters for the pipelined ring.
    pub(crate) retry: RetryStats,
    /// Deadlines / backoff / budget for the ring's recovery ladder.
    retry_policy: RetryPolicy,
    /// The instant the first re-staged leg completed successfully —
    /// time-to-first-successful-retry, the headline chaos metric.
    first_retry_ok: Option<SimTime>,
}

impl DaosClient {
    /// Connects `spec.jobs` client jobs from `spec.node` to every engine of
    /// a cluster, as `tenant`, staging through `spec.buf_len`-byte buffers
    /// in `spec.domain` (DPU DRAM for the prototype;
    /// [`MemoryDomain::GpuHbm`] for the GPUDirect extension): each job
    /// opens one connection per storage node
    /// (slot-aligned with the pool map) so the client can route per-object
    /// without reconnecting. Every staging MR is registered under `expiry`
    /// from the outset — no window where an unscoped rkey exists
    /// ([`Expiry::Never`] but for the DPU tenant manager's scoped rkeys).
    ///
    /// Connection state is pooled per `(client, engine)`: one real
    /// connection (QP pair) is opened per storage node and every job gets
    /// its own *sub-channel* of it ([`Fabric::open_subchannel`]), so RC
    /// connection state on the NIC stays O(engines) per client node
    /// instead of O(jobs × engines). Job 0 uses the root connections
    /// directly, which keeps single-job configs on the exact historical
    /// fabric-call sequence; later jobs' sub-channels carry their own
    /// serialized per-socket stages, so their timing is identical to the
    /// dedicated connections they replace.
    pub fn connect_scoped_multi(
        fabric: &mut Fabric,
        spec: &ConnectSpec,
        tenant: &str,
        expiry: Expiry,
    ) -> Result<Self, DaosError> {
        let ConnectSpec {
            node,
            ref servers,
            jobs,
            buf_len,
            domain,
            model,
            ..
        } = *spec;
        if servers.is_empty() {
            return Err(DaosError::NotConnected {
                conns: 0,
                engines: 0,
            });
        }
        let class = fabric.node(node).class();
        let transport = fabric.transport();
        let pd = fabric.rdma_mut(node).alloc_pd(tenant);
        let server_pds: Vec<PdId> = servers
            .iter()
            .map(|&s| fabric.rdma_mut(s).alloc_pd(format!("daos-engine:{tenant}")))
            .collect();
        let mut out_jobs = Vec::with_capacity(jobs);
        let mut root_conns: Vec<ConnId> = Vec::new();
        for j in 0..jobs {
            let conns = if j == 0 {
                root_conns = servers
                    .iter()
                    .zip(&server_pds)
                    .map(|(&server, &server_pd)| Ok(fabric.connect(node, server, pd, server_pd)?))
                    .collect::<Result<Vec<ConnId>, DaosError>>()?;
                root_conns.clone()
            } else {
                root_conns
                    .iter()
                    .map(|&root| Ok(fabric.open_subchannel(root)?))
                    .collect::<Result<Vec<ConnId>, DaosError>>()?
            };
            let buf = fabric.rdma_mut(node).alloc_buffer(buf_len, domain)?;
            let (mr, rkey) = match transport {
                Transport::Rdma => {
                    let (mr, rkey, _) = fabric.rdma_mut(node).reg_mr(
                        pd,
                        buf,
                        buf_len,
                        AccessFlags::remote_rw(),
                        expiry,
                    )?;
                    (Some(mr), Some(rkey))
                }
                Transport::Tcp => (None, None),
            };
            out_jobs.push(ClientJob {
                conns,
                buf,
                buf_len,
                rkey,
                mr,
            });
        }
        Ok(DaosClient {
            node,
            servers: servers.clone(),
            cont: spec.cont.clone(),
            pd,
            jobs: out_jobs,
            cores: ClientCores::PerJob(vec![ServerPool::new(1); jobs]),
            ring_path: RingPath::Cores,
            templates: TemplateTable::default(),
            rings: Vec::new(),
            model,
            class,
            transport,
            ops: 0,
            map_cache: None,
            pending_map: None,
            retry: RetryStats::default(),
            retry_policy: RetryPolicy::default(),
            first_retry_ok: None,
        })
    }

    /// Installs `map` into the cache if it is newer than what the client
    /// holds (out-of-order deliveries are ignored). A pending delayed
    /// delivery superseded by `map` is dropped.
    pub fn sync_map(&mut self, map: PoolMap) {
        let newer = self
            .map_cache
            .as_ref()
            .is_none_or(|c| map.version() > c.version());
        if newer {
            if let Some((_, p)) = &self.pending_map {
                if p.version() <= map.version() {
                    self.pending_map = None;
                }
            }
            self.map_cache = Some(map);
        }
    }

    /// Schedules an asynchronous RAS map delivery: `map` becomes visible
    /// to the client only once the clock reaches `at` (see
    /// [`Self::poll_map`]). If a delivery is already pending the newer
    /// map wins — RAS streams are cumulative, the last revision subsumes
    /// the rest.
    pub fn deliver_map(&mut self, at: SimTime, map: PoolMap) {
        match &self.pending_map {
            Some((_, p)) if p.version() >= map.version() => {}
            _ => self.pending_map = Some((at, map)),
        }
    }

    /// Applies any due delayed delivery and bootstraps the cache on first
    /// use (the `PoolConnect` handshake downloads the then-current map).
    /// Called by the ring at every submission instant.
    pub(crate) fn poll_map(&mut self, now: SimTime, cluster: &EngineCluster) {
        if let Some((at, _)) = &self.pending_map {
            if now >= *at {
                let (_, map) = self.pending_map.take().expect("pending delivery");
                self.sync_map(map);
            }
        }
        if self.map_cache.is_none() {
            self.map_cache = Some(cluster.map().clone());
        }
    }

    /// The cached map. Panics if [`Self::poll_map`] has never run — the
    /// ring always polls before routing.
    pub(crate) fn cached_map(&self) -> &PoolMap {
        self.map_cache.as_ref().expect("map cache bootstrapped")
    }

    /// The submission-instant route a read-cache probe needs: applies any
    /// due delayed RAS delivery (bootstrapping the cached map on first use,
    /// exactly as a ring submission would), then resolves `oid` against
    /// the **cached** map. Pure with respect to cluster accounting — no
    /// degraded-fetch counter moves until an actual fetch routes.
    pub fn probe_route(
        &mut self,
        now: SimTime,
        cluster: &EngineCluster,
        oid: &ObjectId,
    ) -> Routing {
        self.poll_map(now, cluster);
        self.cached_map().route(oid)
    }

    /// The cached map revision, if a map has been installed.
    pub fn cache_version(&self) -> Option<u64> {
        self.map_cache.as_ref().map(|c| c.version())
    }

    /// The recovery ladder's reactive refresh — the `MapQuery` control
    /// round-trip. Always returns the authoritative current state and
    /// cancels any pending delayed delivery (it can only be older).
    pub(crate) fn refresh_map(&mut self, cluster: &EngineCluster) {
        self.retry.map_refreshes += 1;
        self.pending_map = None;
        self.map_cache = Some(cluster.map().clone());
    }

    /// Recovery-ladder counters accumulated by the pipelined ring.
    pub fn retry_stats(&self) -> RetryStats {
        self.retry
    }

    /// Replaces the ring's recovery-ladder policy (deadline, backoff
    /// bounds, retry budget, refresh RTT).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry_policy = policy;
    }

    /// The active recovery-ladder policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry_policy
    }

    /// The instant the first re-staged leg completed successfully, if any
    /// retry has succeeded — time-to-first-successful-retry.
    pub fn first_successful_retry(&self) -> Option<SimTime> {
        self.first_retry_ok
    }

    /// Records a successful retry completion (the ring reports the
    /// earliest one).
    pub(crate) fn note_retry_success(&mut self, at: SimTime) {
        self.first_retry_ok = Some(match self.first_retry_ok {
            Some(t) => t.min(at),
            None => at,
        });
    }

    /// The node this client runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Every storage node, slot-aligned with the cluster's pool map.
    pub fn servers(&self) -> &[NodeId] {
        &self.servers
    }

    /// The client's protection domain (its tenant boundary).
    pub fn pd(&self) -> PdId {
        self.pd
    }

    /// Number of jobs.
    pub fn jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Operations issued.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The container this client is bound to.
    pub fn container(&self) -> &str {
        &self.cont
    }

    /// Moves the client's CPU work from one core per job onto a shared
    /// work-conserving pool of `cores` (at least one). The DPU-offloaded
    /// client calls this once per tenant lane, before any op: its host
    /// jobs only ring doorbells, so the lane's ARM cores serve whichever
    /// job has work. Per-job ordering is unaffected — epochs are allocated
    /// at submit and each job's channel still orders its descriptors.
    pub fn share_cores(&mut self, cores: usize) {
        self.cores = ClientCores::Shared(ServerPool::new(cores.max(1)));
    }

    /// Has `nic` run the ring's clean path instead of client cores, both
    /// halves of it. *Submission:* an op whose object has a current
    /// descriptor template ([`crate::descriptor`]) leaves one
    /// [`NicModel::chain_hop`] after it starts, on every leg at once, its
    /// route and stamp read out of the template, with no core booked; an op
    /// without one is submitted by a core exactly as before, and that core
    /// writes the template. *Completion:* such an op, if every leg then goes
    /// right first time, retires one hop after the engine's completion
    /// SEND, again with no core; anything the recovery ladder touched
    /// completes on a core. The DPU-offloaded client calls this once per
    /// RDMA tenant lane, before any op, beside [`Self::share_cores`] — it
    /// owns the chains: it arms one per slot, rings its doorbell
    /// ([`Self::fired_template`]) and submits what the doorbell fired
    /// through [`OpRing::submit_fired`], sends whatever it cannot or may not
    /// chain through [`OpRing::submit`] like any other client, fires the
    /// chains the ring reports forwarding
    /// ([`crate::pipeline::SlotTrail::forwarded`]), and prices what they do
    /// with the payload. Meaningless without queue pairs to park a chain
    /// on: TCP lanes and in-process clients never call it.
    pub fn chain_ring(&mut self, nic: NicModel) {
        self.ring_path = RingPath::NicChains {
            hop: nic.chain_hop(),
        };
    }

    /// One hop of a chain, if the NIC runs the ring's clean path at all.
    pub(crate) fn chain_hop(&self) -> Option<SimDuration> {
        match self.ring_path {
            RingPath::Cores => None,
            RingPath::NicChains { hop } => Some(hop),
        }
    }

    /// The registered region the client's descriptor templates live in —
    /// what a slot's chain gathers its SEND from — allocated in the
    /// client's protection domain the first time it is asked for.
    pub fn template_region(&mut self, fabric: &mut Fabric) -> Result<MrId, DaosError> {
        if let Some((mr, _)) = self.templates.region {
            return Ok(mr);
        }
        let dev = fabric.rdma_mut(self.node);
        let at = dev.alloc_buffer(REGION_LEN, MemoryDomain::DpuDram)?;
        let access = AccessFlags::local_only();
        match dev.reg_mr(self.pd, at, REGION_LEN, access, Expiry::Never) {
            Ok((mr, _, _)) => {
                self.templates.region = Some((mr, at));
                Ok(mr)
            }
            Err(e) => {
                let _ = dev.free_buffer(at);
                Err(e.into())
            }
        }
    }

    /// Gives the template region up — deregistered, freed, its templates
    /// forgotten — after a chain faulted on it. The next
    /// [`Self::template_region`] registers a fresh one and cores write the
    /// templates again, one submission each.
    pub fn retire_template_region(&mut self, fabric: &mut Fabric) {
        if let Some((mr, at)) = std::mem::take(&mut self.templates).region {
            let dev = fabric.rdma_mut(self.node);
            // Best effort: whatever cannot be released is already gone.
            let _ = dev.dereg_mr(mr);
            let _ = dev.free_buffer(at);
        }
    }

    /// The template a doorbell landing at `now` fires for `op`, if the NIC
    /// may submit it: the op's object has a template, in memory by `now`
    /// and stamped with the revision the client's cached map holds then
    /// (any due delivery applied first, as a ring submission does). This
    /// is the one place that is decided; [`OpRing::submit_fired`] sends what
    /// it is handed. (Whether the doorbell carried a patch for the op —
    /// [`ClientOp::patch`] — is the ringer's to know.)
    pub fn fired_template(
        &mut self,
        now: SimTime,
        cluster: &EngineCluster,
        op: &ClientOp,
    ) -> Option<FiredTemplate> {
        self.chain_hop()?;
        self.poll_map(now, cluster);
        let key = op.key();
        let legs = match op {
            ClientOp::Fetch(_) => 1,
            ClientOp::Update(_) => usize::MAX,
        };
        let (at, bytes) = self.templates.find(&key.oid, &key.akey, now)?;
        let routing = Routing::of(bytes);
        (routing.stamp == self.cached_map().version()).then(|| FiredTemplate {
            at,
            bytes: bytes.clone(),
            routing,
            legs,
        })
    }

    /// A core that resolved `routing` for `(oid, akey)`, and is done with
    /// its submission work at `since`, leaves it behind as the object's
    /// template, where the NIC runs the clean path and the template region
    /// exists (the chains' owner asks for it when it builds the first
    /// chain). An op that can have no template, or a region write that
    /// fails, leaves none: the next op is a core's again.
    pub(crate) fn write_template(
        &mut self,
        fabric: &mut Fabric,
        oid: &ObjectId,
        akey: &AKey,
        routing: Routing,
        since: SimTime,
    ) {
        if self.chain_hop().is_none() {
            return;
        }
        let written = self.templates.write(&self.cont, oid, akey, routing, since);
        if let Some((at, bytes)) = written {
            // The region is sized for every slot the table can name.
            let _ = fabric.rdma_mut(self.node).write_local_bytes(at, &bytes);
        }
    }

    /// `job`'s ring scaffolding, left empty-handed until it comes back.
    pub(crate) fn take_ring_store(&mut self, job: usize) -> RingStore {
        self.rings
            .get_mut(job)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Hands `job`'s ring scaffolding back for its next queue.
    pub(crate) fn put_ring_store(&mut self, job: usize, store: RingStore) {
        if self.rings.len() <= job {
            self.rings.resize_with(job + 1, RingStore::default);
        }
        self.rings[job] = store;
    }

    /// The connections `job` holds, one per cluster engine slot.
    pub fn job_conns(&self, job: usize) -> &[ConnId] {
        &self.jobs[job].conns
    }

    /// `job`'s staging buffer and, on RDMA, the region registered over it.
    pub fn staging(&self, job: usize) -> (MemAddr, Option<MrId>) {
        (self.jobs[job].buf, self.jobs[job].mr)
    }

    /// Cores executing the client's CPU work (one per job unless
    /// [`Self::share_cores`] pooled them).
    pub fn cores(&self) -> usize {
        self.cores.pools().iter().map(ServerPool::servers).sum()
    }

    /// Aggregate busy time across the client cores since the last
    /// [`Timed::reset_timing`].
    pub fn core_busy_time(&self) -> SimDuration {
        self.cores
            .pools()
            .iter()
            .fold(SimDuration::ZERO, |t, p| t + p.busy_time())
    }

    /// [`Timed::resource_stats`] read through `&self`: the client cores.
    // frozen by benchmark/src/sut.rs:243
    pub fn resource_stats(&self) -> ResourceStats {
        let mut total = ResourceStats::default();
        for pool in self.cores.pools() {
            total.merge(pool.stats());
        }
        total
    }

    /// Replaces `job`'s staging registration with one that expires at
    /// `expiry` — the scoped-rkey discipline the DPU tenant manager issues.
    /// A no-op on TCP transports (no registered memory on the wire path).
    ///
    /// The old MR is deregistered first, so a stolen copy of the previous
    /// rkey dies with the swap; in-flight one-sided ops that land after the
    /// swap fail with `InvalidRkey`/`ExpiredRkey` at the NIC, exactly like
    /// hardware.
    pub fn set_mr_expiry(
        &mut self,
        fabric: &mut Fabric,
        job: usize,
        expiry: Expiry,
    ) -> Result<(), DaosError> {
        if self.transport != Transport::Rdma {
            return Ok(());
        }
        let (buf, buf_len) = (self.jobs[job].buf, self.jobs[job].buf_len);
        if let Some(mr) = self.jobs[job].mr.take() {
            fabric.rdma_mut(self.node).dereg_mr(mr)?;
        }
        let (mr, rkey, _) = fabric.rdma_mut(self.node).reg_mr(
            self.pd,
            buf,
            buf_len,
            AccessFlags::remote_rw(),
            expiry,
        )?;
        self.jobs[job].mr = Some(mr);
        self.jobs[job].rkey = Some(rkey);
        Ok(())
    }

    /// A client must hold one connection per cluster slot to route; a
    /// mismatch (client connected to a subset of the pool) is a
    /// misconfiguration surfaced as a typed error, not an index panic.
    pub(crate) fn check_cluster(&self, cluster: &EngineCluster) -> Result<(), DaosError> {
        let conns = self.jobs.first().map_or(0, |j| j.conns.len());
        if conns < cluster.len() {
            return Err(DaosError::NotConnected {
                conns,
                engines: cluster.len(),
            });
        }
        Ok(())
    }

    /// The one client-CPU booking site: `job`'s own core in-process, the
    /// shared pool when offloaded. Returns the instant the work finishes.
    fn book_cpu(&mut self, now: SimTime, job: usize, cost: SimDuration) -> SimTime {
        let pool = match &mut self.cores {
            ClientCores::PerJob(cores) => &mut cores[job],
            ClientCores::Shared(pool) => pool,
        };
        pool.submit(now, cost).finish
    }

    fn client_cpu(&mut self, now: SimTime, job: usize) -> SimTime {
        let mut cost = self.class.scale(self.model.client_per_op);
        if self.class == CoreClass::DpuArm {
            cost = cost.mul_f64(self.model.dpu_client_overhead);
        }
        self.book_cpu(now, job, cost)
    }

    /// The pipelined client-CPU booking: only the submission fraction of
    /// `client_per_op` occupies the job core (returned instant); the
    /// completion fraction — EQ poll / CQ reap, amortized across in-flight
    /// ops by batched reaping — is returned as a duration the ring charges
    /// as latency at retire. On DPU ARM cores the `dpu_client_overhead`
    /// penalty models exactly that synchronous poll path, so it rides on
    /// the completion portion and stops binding throughput once the ring
    /// overlaps it.
    pub(crate) fn client_cpu_split(&mut self, now: SimTime, job: usize) -> (SimTime, SimDuration) {
        let (submit, completion) = self.ring_cpu_costs();
        (self.book_cpu(now, job, submit), completion)
    }

    /// The two fractions [`Self::client_cpu_split`] splits `client_per_op`
    /// into, `(submission, completion)`, with nothing booked — a chained
    /// submission spends neither unless it turns into an exception, and
    /// then only the second.
    pub(crate) fn ring_cpu_costs(&self) -> (SimDuration, SimDuration) {
        let base = self.class.scale(self.model.client_per_op);
        let frac = self.model.client_completion_frac;
        let mut completion = base.mul_f64(frac);
        if self.class == CoreClass::DpuArm {
            completion += base.mul_f64(self.model.dpu_client_overhead - 1.0);
        }
        (base.mul_f64(1.0 - frac), completion)
    }

    /// Whether an op moving `len` bytes fits `job`'s staging buffer.
    pub(crate) fn check_staging(&self, job: usize, len: u64) -> Result<(), DaosError> {
        let cap = self.jobs[job].buf_len;
        match len > cap {
            true => Err(DaosError::StagingOverflow { len, cap }),
            false => Ok(()),
        }
    }

    /// Counts `n` data-plane ops (the ring submits account here so
    /// [`Self::ops`] agrees with the serial drain).
    pub(crate) fn bump_ops(&mut self, n: u64) {
        self.ops += n;
    }

    /// The descriptor SEND of one leg on `conn` at `t`: posted by a core,
    /// or — `template` given — by the NIC, its body that template followed
    /// by the doorbell's patch (the same [`RPC_DESC`] bytes on the wire
    /// either way).
    fn send_descriptor(
        &mut self,
        fabric: &mut Fabric,
        t: SimTime,
        conn: ConnId,
        template: Option<&Bytes>,
    ) -> Result<Delivery, DaosError> {
        let sent = match template {
            None => fabric.send(t, conn, Dir::AtoB, rpc_desc()),
            Some(template) => {
                let patch = RPC_DESC as u64 - TEMPLATE_LEN;
                fabric.send_framed(
                    t,
                    conn,
                    Dir::AtoB,
                    patch,
                    template.clone(),
                    SendCores::NicPosted,
                )
            }
        };
        Ok(sent?)
    }

    /// Phase A of an update, from the instant `t_cpu` at which the
    /// descriptor is ready to post — the client-CPU grant already booked,
    /// or none needed because the NIC posts `template`: stages the payload
    /// and runs the descriptor/pull exchange with the engine in cluster
    /// slot `eng`. Returns the instant the data is resident server-side
    /// plus the server's payload handle. Shared by the serial call and the
    /// pipelined ring.
    pub(crate) fn stage_update_from(
        &mut self,
        fabric: &mut Fabric,
        t_cpu: SimTime,
        job: usize,
        eng: usize,
        data: Bytes,
        template: Option<&Bytes>,
    ) -> Result<(SimTime, Bytes), DaosError> {
        let len = data.len() as u64;
        let conn = self.jobs[job].conns[eng];
        match self.transport {
            Transport::Rdma => {
                // Stage locally (zero-copy: the registered buffer adopts
                // the caller's handle); descriptor announces it; server
                // pulls.
                fabric
                    .rdma_mut(self.node)
                    .write_local_bytes(self.jobs[job].buf, &data)?;
                let desc = self.send_descriptor(fabric, t_cpu, conn, template)?;
                let pull = fabric.rdma_read(
                    desc.at,
                    conn,
                    Dir::BtoA,
                    self.jobs[job].rkey.expect("rdma job has rkey"),
                    self.jobs[job].buf,
                    len,
                )?;
                Ok((pull.at, pull.data.expect("pull returns data")))
            }
            Transport::Tcp => {
                // Descriptor + inline payload in one stream write: the
                // descriptor is framing, the payload travels as the
                // caller's handle (the kernel copy is a modelled cost).
                let d = fabric.send_framed(
                    t_cpu,
                    conn,
                    Dir::AtoB,
                    RPC_DESC as u64,
                    data,
                    SendCores::Both,
                )?;
                Ok((d.at, d.data.expect("tcp carries data")))
            }
        }
    }

    /// Phase C of an update: engine `eng`'s completion SEND at
    /// `persisted`, reaped by a core or consumed by a parked chain
    /// (`cores`).
    pub(crate) fn finish_update(
        &mut self,
        fabric: &mut Fabric,
        job: usize,
        eng: usize,
        persisted: SimTime,
        cores: SendCores,
    ) -> Result<SimTime, DaosError> {
        let conn = self.jobs[job].conns[eng];
        let done = fabric.send_framed(persisted, conn, Dir::BtoA, 0, rpc_done(), cores)?;
        Ok(done.at)
    }

    /// Phase A of a fetch: the descriptor send to engine `eng` from the
    /// instant it is ready to post (see [`Self::stage_update_from`]).
    /// Returns the instant the request reaches the server.
    pub(crate) fn stage_fetch_from(
        &mut self,
        fabric: &mut Fabric,
        t_cpu: SimTime,
        job: usize,
        eng: usize,
        template: Option<&Bytes>,
    ) -> Result<SimTime, DaosError> {
        let conn = self.jobs[job].conns[eng];
        Ok(self.send_descriptor(fabric, t_cpu, conn, template)?.at)
    }

    /// Phase C of a fetch: (RDMA) engine `eng`'s push of `data` into the
    /// job's registered buffer plus the completion SEND — reaped by a core
    /// or consumed by a parked chain (`cores`) — or (TCP) the inline
    /// response. Either way the client gets back exactly the bytes the
    /// engine sent: a single value shorter than the fetch asked for is
    /// not padded with what the staging buffer held before.
    pub(crate) fn finish_fetch(
        &mut self,
        fabric: &mut Fabric,
        job: usize,
        eng: usize,
        data: Bytes,
        ready: SimTime,
        cores: SendCores,
    ) -> Result<(Bytes, SimTime), DaosError> {
        let conn = self.jobs[job].conns[eng];
        match self.transport {
            Transport::Rdma => {
                let len = data.len();
                let push = fabric.rdma_write(
                    ready,
                    conn,
                    Dir::BtoA,
                    self.jobs[job].rkey.expect("rdma job has rkey"),
                    self.jobs[job].buf,
                    data,
                )?;
                let done = fabric.send_framed(push.at, conn, Dir::BtoA, 0, rpc_done(), cores)?;
                let landed = fabric
                    .rdma_mut(self.node)
                    .read_local(self.jobs[job].buf, len)?;
                Ok((landed, done.at))
            }
            Transport::Tcp => {
                let d = fabric.send(ready, conn, Dir::BtoA, data)?;
                Ok((d.data.expect("tcp carries data"), d.at))
            }
        }
    }

    /// The serial OBJ_FETCH ([`ObjectClient::fetch`]) plus the
    /// completion's provenance ([`FetchMeta`]): which engine served it,
    /// whether the route was degraded, and the map revision / record
    /// version stamped on the reply. Callers that maintain a read cache
    /// (the DPU lane) need exactly this to decide whether the completion
    /// is safe to fill from. Runs `op`, routed on the live map to its
    /// object's replica leader — or, while the leader's engine is down, to
    /// the first surviving replica (a degraded read).
    pub fn fetch_with_meta(
        &mut self,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
        now: SimTime,
        job: usize,
        op: &FetchOp,
    ) -> Result<(Bytes, SimTime, FetchMeta), DaosError> {
        let FetchOp {
            ref key,
            kind,
            epoch,
            len,
        } = *op;
        self.ops += 1;
        self.check_cluster(cluster)?;
        self.check_staging(job, len)?;
        let routing = cluster.map().route(&key.oid);
        if routing.degraded {
            cluster.note_degraded_fetch();
        }
        let eng = routing.set.leader().ok_or(DaosError::NoReplica)?;
        let t_cpu = self.client_cpu(now, job);
        let req_at = self.stage_fetch_from(fabric, t_cpu, job, eng, None)?;
        let (data, ready) = cluster.engine_mut(eng).fetch(
            Arrival {
                stamp: routing.stamp,
                at: req_at,
            },
            &self.cont,
            key.oid,
            &key.dkey,
            &key.akey,
            kind,
            epoch,
            len,
        )?;
        let meta = FetchMeta {
            routing,
            record_version: cluster.engine(eng).record_version(key),
        };
        self.finish_fetch(fabric, job, eng, data, ready, SendCores::Both)
            .map(|(data, at)| (data, at, meta))
    }
}

/// Maps a whole-queue precondition failure onto every op in the queue (the
/// DPU-offloaded client's doorbell/admission preamble).
pub fn whole_batch_error(ops: &[ClientOp], e: DaosError) -> Vec<ClientOpResult> {
    ops.iter()
        .map(|op| match op {
            ClientOp::Update(_) => ClientOpResult::Update(Err(e)),
            ClientOp::Fetch(_) => ClientOpResult::Fetch(Err(e)),
        })
        .collect()
}

/// The object-I/O interface the DFS layer drives, leaving the namespace
/// code placement-agnostic: implemented directly by [`DaosClient`] (the
/// host-resident baseline) and by the DPU-offloaded client in `ros2-dpu`
/// (which wraps the same data-plane core with the host handoff, tenant QoS
/// admission, scoped-rkey refresh, and DPU-side checksumming).
///
/// It is the one way into either client: `update` and `fetch` are the
/// serial call (live-map routing, the whole per-op CPU on a core), the
/// `execute_*` methods the ring.
pub trait ObjectClient {
    /// Issues an OBJ_UPDATE from `job`; returns the client-visible commit
    /// instant. The address is three arguments, not a [`RecordKey`],
    /// because the benchmark's interposer implements this signature.
    // frozen by benchmark/src/sut.rs:534
    #[allow(clippy::too_many_arguments)]
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
    ) -> Result<SimTime, DaosError>;

    /// Issues an OBJ_FETCH from `job` reading `len` bytes at `epoch`
    /// (positional like [`Self::update`]).
    // frozen by benchmark/src/sut.rs:554
    #[allow(clippy::too_many_arguments)]
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
    ) -> Result<(Bytes, SimTime), DaosError>;

    /// The retired batch fan-out's name, kept only because the benchmark's
    /// interposer spells it: forwards to [`Self::execute_pipelined`]. No
    /// client implements it and no library code calls it.
    fn execute_batch(
        &mut self,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
        now: SimTime,
        job: usize,
        ops: Vec<ClientOp>,
    ) -> Vec<ClientOpResult> {
        self.execute_pipelined(fabric, cluster, now, job, ops)
    }

    /// [`Self::execute_into`] over owned vectors: the frozen benchmark's
    /// interposer implements this signature, so it stays. Every client
    /// implements it as a shim over its `execute_into`; library code calls
    /// `execute_into`.
    fn execute_pipelined(
        &mut self,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
        now: SimTime,
        job: usize,
        ops: Vec<ClientOp>,
    ) -> Vec<ClientOpResult>;

    /// Submits every op of `ops` through the submission/completion
    /// pipeline (all in flight at once, completions retired in completion
    /// order), leaving `ops` empty, and appends one result per op to `out`
    /// in submission order. The op path's entry: a caller that keeps both
    /// vectors across calls allocates nothing for them. The default — for
    /// an interposer that implements only [`Self::execute_pipelined`] —
    /// forwards to it.
    fn execute_into(
        &mut self,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
        now: SimTime,
        job: usize,
        ops: &mut Vec<ClientOp>,
        out: &mut Vec<ClientOpResult>,
    ) {
        let batch = std::mem::take(ops);
        out.extend(self.execute_pipelined(fabric, cluster, now, job, batch));
    }

    /// Total data-plane operations issued.
    fn ops(&self) -> u64;
}

impl Timed for DaosClient {
    /// The client cores and the descriptor templates' clock.
    fn visit(&mut self, v: &mut dyn Visit) {
        match &mut self.cores {
            ClientCores::PerJob(cores) => cores.iter_mut().for_each(|p| v.pool(p)),
            ClientCores::Shared(pool) => v.pool(pool),
        }
        self.templates.visit(v);
    }
}

impl ObjectClient for DaosClient {
    /// Fans the OBJ_UPDATE out to every healthy replica of `oid` on the
    /// live map (the commit instant is the last replica's ack, so a
    /// committed update is readable from any replica), each leg stamped
    /// with the live map revision.
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
        self.ops += 1;
        self.check_cluster(cluster)?;
        self.check_staging(job, data.len() as u64)?;
        let Routing { set, stamp, .. } = cluster.map().route(&oid);
        if set.is_empty() {
            return Err(DaosError::NoReplica);
        }
        let epoch = cluster.next_epoch(&self.cont)?;
        let mut done: Option<SimTime> = None;
        for eng in set.iter() {
            let t_cpu = self.client_cpu(now, job);
            let (data_at_server, payload) =
                self.stage_update_from(fabric, t_cpu, job, eng, data.clone(), None)?;
            let persisted = cluster.engine_mut(eng).update(
                Arrival {
                    stamp,
                    at: data_at_server,
                },
                &self.cont,
                oid,
                dkey.clone(),
                akey.clone(),
                kind,
                epoch,
                payload,
            )?;
            let acked = self.finish_update(fabric, job, eng, persisted, SendCores::Both)?;
            done = Some(done.map_or(acked, |d| d.max(acked)));
        }
        Ok(done.expect("non-empty replica set"))
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
        let op = FetchOp {
            key: RecordKey { oid, dkey, akey },
            kind,
            epoch,
            len,
        };
        self.fetch_with_meta(fabric, cluster, now, job, &op)
            .map(|(data, at, _)| (data, at))
    }

    fn execute_pipelined(
        &mut self,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
        now: SimTime,
        job: usize,
        mut ops: Vec<ClientOp>,
    ) -> Vec<ClientOpResult> {
        let mut out = Vec::with_capacity(ops.len());
        self.execute_into(fabric, cluster, now, job, &mut ops, &mut out);
        out
    }

    /// Every op is submitted into an [`OpRing`] (epoch allocated, route
    /// resolved, staging legs booked) before any completion is reaped,
    /// engine legs execute as the ring drains, and completions retire in
    /// completion order — results still come back in submission order for
    /// callers that stitch stripes.
    fn execute_into(
        &mut self,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
        now: SimTime,
        job: usize,
        ops: &mut Vec<ClientOp>,
        out: &mut Vec<ClientOpResult>,
    ) {
        let mut ring = OpRing::reuse(self, job, ops.len());
        for op in ops.drain(..) {
            ring.submit(self, fabric, cluster, now, op);
        }
        ring.drain_into(self, fabric, cluster, out);
        ring.recycle(self);
    }

    fn ops(&self) -> u64 {
        DaosClient::ops(self)
    }
}

/// One client-side I/O submitted to an [`OpRing`](crate::pipeline::OpRing).
#[derive(Clone, Debug)]
pub enum ClientOp {
    /// An object update carrying its payload.
    Update(UpdateOp),
    /// An object fetch.
    Fetch(FetchOp),
}

/// An update of the record at `key`.
#[derive(Clone, Debug)]
pub struct UpdateOp {
    /// The record written.
    pub key: RecordKey,
    /// Single value or array extent.
    pub kind: ValueKind,
    /// Payload.
    pub data: Bytes,
}

/// A fetch of `len` bytes of the record at `key` as of `epoch`.
#[derive(Clone, Debug)]
pub struct FetchOp {
    /// The record read.
    pub key: RecordKey,
    /// Single value or array extent.
    pub kind: ValueKind,
    /// Read epoch.
    pub epoch: Epoch,
    /// Bytes to read.
    pub len: u64,
}

impl ClientOp {
    /// The record the op addresses (its object and attribute key are what
    /// its descriptor template is kept under).
    pub fn key(&self) -> &RecordKey {
        match self {
            ClientOp::Update(op) => &op.key,
            ClientOp::Fetch(op) => &op.key,
        }
    }

    /// The op as a doorbell patch: what of it the host's posted write
    /// carries, the rest being in the object's descriptor template. `None`
    /// for an op a patch cannot name — anything but an array extent under
    /// an 8-byte chunk-index dkey, which is what file I/O issues.
    pub fn patch(&self) -> Option<IoPatch> {
        let (write, kind, len) = match self {
            ClientOp::Update(op) => (true, op.kind, op.data.len() as u64),
            ClientOp::Fetch(op) => (false, op.kind, op.len),
        };
        let ValueKind::Array { offset } = kind else {
            return None;
        };
        let key = self.key();
        Some(IoPatch {
            write,
            object: key.oid.lo,
            chunk: u64::from_le_bytes(key.dkey.as_bytes().try_into().ok()?),
            offset,
            len,
        })
    }
}

/// The per-op outcome of a drained ring, in submission order. The instants
/// are client-visible completions (after the response push/SEND), not
/// engine-side ones.
#[derive(Clone, Debug)]
pub enum ClientOpResult {
    /// Outcome of a [`ClientOp::Update`]: the client-visible commit
    /// instant.
    Update(Result<SimTime, DaosError>),
    /// Outcome of a [`ClientOp::Fetch`]: the data and the client-visible
    /// completion instant.
    Fetch(Result<(Bytes, SimTime), DaosError>),
}

impl ClientOpResult {
    /// Unwraps an update result (panics on a fetch result).
    pub fn into_update(self) -> Result<SimTime, DaosError> {
        match self {
            ClientOpResult::Update(r) => r,
            ClientOpResult::Fetch(_) => panic!("expected update result"),
        }
    }
    /// Unwraps a fetch result (panics on an update result).
    pub fn into_fetch(self) -> Result<(Bytes, SimTime), DaosError> {
        match self {
            ClientOpResult::Fetch(r) => r,
            ClientOpResult::Update(_) => panic!("expected fetch result"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DaosEngine;
    use crate::types::ObjClass;
    use ros2_fabric::NodeSpec;
    use ros2_hw::{gbps, CpuComplement, DpuTcpRxModel, NicModel, NvmeModel};
    use ros2_nvme::{DataMode, NvmeArray};
    use ros2_spdk::BdevLayer;

    fn world(transport: Transport, client_is_dpu: bool) -> (Fabric, EngineCluster, DaosClient) {
        let client_spec = if client_is_dpu {
            NodeSpec {
                name: "dpu".into(),
                cpu: CpuComplement {
                    class: CoreClass::DpuArm,
                    cores: 16,
                },
                nic: NicModel::connectx7(),
                port_rate: gbps(100),
                mem_budget: 30 << 30,
                dpu_tcp_rx: Some(DpuTcpRxModel::bluefield3()),
            }
        } else {
            NodeSpec {
                name: "host".into(),
                cpu: CpuComplement {
                    class: CoreClass::HostX86,
                    cores: 48,
                },
                nic: NicModel::connectx6(),
                port_rate: gbps(100),
                mem_budget: 64 << 30,
                dpu_tcp_rx: None,
            }
        };
        let server_spec = NodeSpec {
            name: "storage".into(),
            cpu: CpuComplement {
                class: CoreClass::HostX86,
                cores: 64,
            },
            nic: NicModel::connectx6(),
            port_rate: gbps(100),
            mem_budget: 64 << 30,
            dpu_tcp_rx: None,
        };
        let mut fabric = Fabric::new(transport, vec![client_spec, server_spec], 5);
        let bdevs = BdevLayer::new(NvmeArray::new(
            NvmeModel::enterprise_1600(),
            1,
            DataMode::Stored,
        ));
        let mut engine = DaosEngine::new(
            "pool0",
            bdevs,
            256 << 20,
            DaosCostModel::default_model(),
            CoreClass::HostX86,
        );
        engine.cont_create("cont0").unwrap();
        let client = DaosClient::connect_scoped_multi(
            &mut fabric,
            &ConnectSpec {
                node: NodeId(0),
                servers: vec![NodeId(1)],
                cont: "cont0".into(),
                jobs: 2,
                buf_len: 4 << 20,
                domain: MemoryDomain::HostDram,
                model: DaosCostModel::default_model(),
            },
            "tenant",
            Expiry::Never,
        )
        .unwrap();
        (fabric, EngineCluster::single(engine), client)
    }

    fn do_round_trip(transport: Transport) {
        let (mut fabric, mut cluster, mut client) = world(transport, false);
        let oid = ObjectId::new(ObjClass::Sx, 1);
        let data = Bytes::from(vec![0x3C; 1 << 20]);
        let done = client
            .update(
                &mut fabric,
                &mut cluster,
                SimTime::ZERO,
                0,
                oid,
                DKey::from_u64(0),
                AKey::from_str("data"),
                ValueKind::Array { offset: 0 },
                data.clone(),
            )
            .unwrap();
        let (back, _) = client
            .fetch(
                &mut fabric,
                &mut cluster,
                done,
                1,
                oid,
                DKey::from_u64(0),
                AKey::from_str("data"),
                ValueKind::Array { offset: 0 },
                Epoch::LATEST,
                1 << 20,
            )
            .unwrap();
        assert_eq!(back, data);
        assert_eq!(client.ops(), 2);
    }

    #[test]
    fn tcp_round_trip() {
        do_round_trip(Transport::Tcp);
    }

    #[test]
    fn rdma_round_trip() {
        do_round_trip(Transport::Rdma);
    }

    #[test]
    fn a_short_single_value_comes_back_as_written_on_every_path() {
        // Job 0's staging buffer holds a longer payload first; a 21-byte
        // value fetched with room for 32 comes back as its 21 bytes, not
        // padded with what the buffer held, on either transport and
        // through the serial call and the ring alike.
        for transport in [Transport::Rdma, Transport::Tcp] {
            for ring in [false, true] {
                let (mut fabric, mut cluster, mut client) = world(transport, false);
                let oid = ObjectId::new(ObjClass::S1, 7);
                let dkey = DKey::from_u64(0);
                let value = Bytes::from((1..=21u8).collect::<Vec<u8>>());
                let writes = [
                    ("data", ValueKind::Array { offset: 0 }, vec![0xEE; 4096]),
                    ("entry", ValueKind::Single, value.to_vec()),
                ];
                let mut t = SimTime::ZERO;
                for (akey, kind, data) in writes {
                    let (akey, data) = (AKey::from_str(akey), Bytes::from(data));
                    let (f, c) = (&mut fabric, &mut cluster);
                    t = client
                        .update(f, c, t, 0, oid, dkey.clone(), akey, kind, data)
                        .unwrap();
                }
                let (akey, kind) = (AKey::from_str("entry"), ValueKind::Single);
                let back = match ring {
                    false => {
                        let (f, c) = (&mut fabric, &mut cluster);
                        let fetched =
                            client.fetch(f, c, t, 0, oid, dkey, akey, kind, Epoch::LATEST, 32);
                        fetched.unwrap().0
                    }
                    true => {
                        let mut ops = vec![ClientOp::Fetch(FetchOp {
                            key: RecordKey { oid, dkey, akey },
                            kind,
                            epoch: Epoch::LATEST,
                            len: 32,
                        })];
                        let mut out = Vec::new();
                        client.execute_into(&mut fabric, &mut cluster, t, 0, &mut ops, &mut out);
                        match out.pop() {
                            Some(ClientOpResult::Fetch(Ok((bytes, _)))) => bytes,
                            other => panic!("{transport:?}: {other:?}"),
                        }
                    }
                };
                assert_eq!(back, value, "{transport:?}, ring {ring}");
            }
        }
    }

    #[test]
    fn rdma_fetch_is_faster_from_dpu_than_tcp_fetch() {
        // The headline §4.4 comparison at the op level.
        let run = |transport| {
            let (mut fabric, mut cluster, mut client) = world(transport, true);
            let oid = ObjectId::new(ObjClass::Sx, 1);
            let data = Bytes::from(vec![1u8; 1 << 20]);
            let done = client
                .update(
                    &mut fabric,
                    &mut cluster,
                    SimTime::ZERO,
                    0,
                    oid,
                    DKey::from_u64(0),
                    AKey::from_str("data"),
                    ValueKind::Array { offset: 0 },
                    data,
                )
                .unwrap();
            let start = done;
            let (_, at) = client
                .fetch(
                    &mut fabric,
                    &mut cluster,
                    start,
                    0,
                    oid,
                    DKey::from_u64(0),
                    AKey::from_str("data"),
                    ValueKind::Array { offset: 0 },
                    Epoch::LATEST,
                    1 << 20,
                )
                .unwrap();
            at.saturating_since(start)
        };
        let tcp = run(Transport::Tcp);
        let rdma = run(Transport::Rdma);
        assert!(rdma < tcp, "DPU rdma {rdma} !< DPU tcp {tcp}");
    }

    #[test]
    fn dpu_client_cpu_is_slower_but_functional() {
        let (mut fabric, mut cluster, mut client) = world(Transport::Rdma, true);
        assert_eq!(client.jobs(), 2);
        let oid = ObjectId::new(ObjClass::S1, 3);
        let done = client
            .update(
                &mut fabric,
                &mut cluster,
                SimTime::ZERO,
                0,
                oid,
                DKey::from_str("k"),
                AKey::from_str("v"),
                ValueKind::Single,
                Bytes::from_static(b"metadata"),
            )
            .unwrap();
        let (back, _) = client
            .fetch(
                &mut fabric,
                &mut cluster,
                done,
                0,
                oid,
                DKey::from_str("k"),
                AKey::from_str("v"),
                ValueKind::Single,
                Epoch::LATEST,
                8,
            )
            .unwrap();
        assert_eq!(&back[..], b"metadata");
    }

    #[test]
    fn oversized_io_rejected_before_wire() {
        let (mut fabric, mut cluster, mut client) = world(Transport::Rdma, false);
        let oid = ObjectId::new(ObjClass::S1, 3);
        let err = client
            .update(
                &mut fabric,
                &mut cluster,
                SimTime::ZERO,
                0,
                oid,
                DKey::from_str("k"),
                AKey::from_str("v"),
                ValueKind::Single,
                Bytes::from(vec![0u8; 8 << 20]),
            )
            .unwrap_err();
        assert!(matches!(err, DaosError::StagingOverflow { .. }));
    }

    #[test]
    fn checksum_error_propagates_to_client() {
        let (mut fabric, mut cluster, mut client) = world(Transport::Rdma, false);
        let oid = ObjectId::new(ObjClass::Sx, 1);
        let d = DKey::from_u64(0);
        let a = AKey::from_str("data");
        let done = client
            .update(
                &mut fabric,
                &mut cluster,
                SimTime::ZERO,
                0,
                oid,
                d.clone(),
                a.clone(),
                ValueKind::Array { offset: 0 },
                Bytes::from(vec![5u8; 64 << 10]),
            )
            .unwrap();
        assert!(cluster.engine_mut(0).corrupt_newest_extent(&RecordKey {
            oid,
            dkey: d.clone(),
            akey: a.clone()
        }));
        let err = client
            .fetch(
                &mut fabric,
                &mut cluster,
                done,
                0,
                oid,
                d,
                a,
                ValueKind::Array { offset: 0 },
                Epoch::LATEST,
                64 << 10,
            )
            .unwrap_err();
        assert_eq!(err, DaosError::ChecksumMismatch);
    }

    /// The TCP update hands the engine the caller's handle behind a
    /// modelled descriptor; virtual time is a function of byte counts
    /// only, so these completion instants (nanoseconds, recorded with the
    /// concatenating path the gather send replaced) must never move: a
    /// 4 KiB and a 1 MiB update + fetch, on a host and on a DPU-class
    /// client, serially and through a depth-4 ring.
    #[test]
    fn tcp_completion_instants_are_pinned() {
        let oid = ObjectId::new(ObjClass::Sx, 1);
        let akey = || AKey::from_str("data");
        let kind = ValueKind::Array { offset: 0 };
        let sizes = [4096usize, 1 << 20];
        for (client_is_dpu, serial_want, ring_want) in [
            (
                false,
                [49_314, 96_978, 3_602_887, 5_573_166],
                [49_314, 3_513_059, 61_964, 1_991_729],
            ),
            (
                true,
                [75_725, 153_200, 3_788_069, 6_761_615],
                [75_725, 3_647_869, 103_475, 3_012_546],
            ),
        ] {
            // Serial: each op starts when the previous one completed.
            let (mut fabric, mut cluster, mut client) = world(Transport::Tcp, client_is_dpu);
            let mut now = SimTime::ZERO;
            let mut serial = Vec::new();
            for (i, len) in sizes.into_iter().enumerate() {
                let dkey = DKey::from_u64(i as u64);
                now = client
                    .update(
                        &mut fabric,
                        &mut cluster,
                        now,
                        0,
                        oid,
                        dkey.clone(),
                        akey(),
                        kind,
                        Bytes::from(vec![0x5A; len]),
                    )
                    .unwrap();
                serial.push(now.as_nanos());
                let (back, at) = client
                    .fetch(
                        &mut fabric,
                        &mut cluster,
                        now,
                        0,
                        oid,
                        dkey,
                        akey(),
                        kind,
                        Epoch::LATEST,
                        len as u64,
                    )
                    .unwrap();
                assert_eq!(back.len(), len);
                now = at;
                serial.push(now.as_nanos());
            }
            assert_eq!(serial, serial_want, "serial, dpu client: {client_is_dpu}");

            // Ring: both updates, then both fetches, all submitted at t=0.
            let (mut fabric, mut cluster, mut client) = world(Transport::Tcp, client_is_dpu);
            let mut ring = crate::pipeline::OpRing::new(0, 4);
            for (i, len) in sizes.into_iter().enumerate() {
                let op = ClientOp::Update(UpdateOp {
                    key: RecordKey {
                        oid,
                        dkey: DKey::from_u64(i as u64),
                        akey: akey(),
                    },
                    kind,
                    data: Bytes::from(vec![0x5A; len]),
                });
                ring.submit(&mut client, &mut fabric, &mut cluster, SimTime::ZERO, op);
            }
            for (i, len) in sizes.into_iter().enumerate() {
                let op = ClientOp::Fetch(FetchOp {
                    key: RecordKey {
                        oid,
                        dkey: DKey::from_u64(i as u64),
                        akey: akey(),
                    },
                    kind,
                    epoch: Epoch::LATEST,
                    len: len as u64,
                });
                ring.submit(&mut client, &mut fabric, &mut cluster, SimTime::ZERO, op);
            }
            let ringed: Vec<u64> = ring
                .drain(&mut client, &mut fabric, &mut cluster)
                .into_iter()
                .map(|r| match r {
                    ClientOpResult::Update(at) => at.unwrap().as_nanos(),
                    ClientOpResult::Fetch(r) => r.unwrap().1.as_nanos(),
                })
                .collect();
            assert_eq!(ringed, ring_want, "ring, dpu client: {client_is_dpu}");
        }
    }
}
