//! The DPU-offloaded DAOS client — the paper's headline architecture made
//! load-bearing (§3.2).
//!
//! With [`DpuClient`] the host application no longer runs libdaos at all.
//! Per data-plane I/O the host pays exactly **two posted PCIe writes**, one
//! each way, over the [`ControlChannel`]'s doorbell model; everything else
//! runs on the BlueField-3:
//!
//! 1. **Submit** — the host posts an I/O descriptor and rings the doorbell
//!    (`ControlRequest::IoSubmit`, [`ControlChannel::post`]); it waits for
//!    no answer, and no payload bytes cross the host kernel. A queue for an
//!    RDMA lane's ring is rung with `ControlRequest::IoDoorbell`, the same
//!    write with one patch per op (chunk, offset, length, kind) trailing
//!    it, so that frame plus the object's descriptor template on the DPU is
//!    a whole descriptor. The DPU admits and probes its read cache when the
//!    frame's head has landed — what an `IoSubmit` would have told it, when
//!    it would have — and submits nothing before the last patch has.
//! 2. **QoS admission** — every byte the DPU touches passes
//!    [`TenantManager::admit`]: per-tenant ops/bytes token buckets delay
//!    the op until its grant instant, and the delay is accounted.
//! 3. **Scoped rkeys** — the staging MR carries the tenant's rkey expiry;
//!    when a registration nears its deadline the client re-registers and
//!    counts the refresh, so a leaked rkey dies on schedule without ever
//!    failing a legitimate in-flight pull.
//! 4. **Inline services + checksums** — the agent's inline service (e.g.
//!    AES-GCM) and the client-side CRC32C (computed on update, verified on
//!    fetch): on the NIC's signature engine for an op the NIC runs, at
//!    `CoreClass::DpuArm` rates for everything else.
//! 5. **Data plane** — staging into DPU DRAM, descriptor send, the
//!    server's RDMA pull (or push on fetch), and completion handling run
//!    on a per-tenant [`DaosClient`] constructed on the DPU node: its own
//!    protection domain, QPs, and staging buffers — the paper's "dedicated
//!    QPs/PDs, per-tenant queues and rate limits". The host job thread
//!    only rings doorbells, so the client's per-op CPU runs on a
//!    work-conserving pool of the lane's share of the DPU's ARM cores
//!    (node cores / tenant lanes), not on one core per host job — and on
//!    an RDMA lane a *clean* ring op books none of it: the doorbell write
//!    itself fires the slot's NIC work-request chain, which sends the
//!    descriptor on every leg one chain hop later. Clean means the object
//!    has a descriptor template stamped with the lane's cached map
//!    revision, no bucket of the tenant's was short of tokens for it, the
//!    staging rkey needed no refresh, and the slot's chain stands armed
//!    (`DpuClient::run_queue` decides, once); anything else is submitted
//!    and completed by ARM cores as before, and the core that submits it
//!    (re)writes the template.
//! 6. **Completion** — the same chain, parked on the engine's completion
//!    SEND, forwards every op it submitted that went right first time: it
//!    checks the landed bytes' CRC32C on the NIC's signature
//!    engine, runs the inline service, and posts the op's completion
//!    record into host-visible memory — no ARM core on the path. Anything
//!    the recovery ladder touched, a checksum the NIC rejects, a chain
//!    that faults, and every op of a TCP lane complete on an ARM core as
//!    before (CQ reap, ARM CRC verify), which then posts the record
//!    itself. Either way the host finds the record by polling its own
//!    memory ([`ControlChannel::post_reply`]); the instant the application
//!    sees includes both posted legs. A lane that never writes a record is
//!    wedged, and the host's poll gives up at the doorbell deadline.
//!
//! All of it is observable through [`DpuStats`], which travels alongside
//! `ResourceStats` and `DataPlaneStats` in the benchmark reports and which
//! a [`Timed::reset_timing`] zeroes with the lanes' clocks.

use bytes::Bytes;
use ros2_ctl::{ControlChannel, ControlModel, ControlRequest, ControlResponse};
use ros2_daos::{
    whole_batch_error, ClientOp, ClientOpResult, ConnectSpec, DaosClient, DaosCostModel, DaosError,
    EngineCluster, Epoch, FetchOp, ObjectClient, ObjectId, OpRing, PoolMap, RecordKey, RetryPolicy,
    RetryStats, SlotTrail,
};
use ros2_daos::{AKey, DKey, ValueKind};
use ros2_fabric::Fabric;
use ros2_hw::{nic_crc_cost, per_byte, CoreClass, Transport};
use ros2_sim::{ResourceStats, SimDuration, SimRng, SimTime, Timed, Visit};
use ros2_verbs::{Expiry, NodeId, PdId};

use crate::agent::DpuAgent;
use crate::cache::{CacheKey, DpuCacheStats, ReadCache};
use crate::error::DpuError;
use crate::lane::{Admitted, ChainTable, Probe, TenantLane};
use crate::tenant::{QosLimits, TenantManager};

/// One tenant to provision on the DPU client.
#[derive(Clone, Debug)]
pub struct DpuTenantSpec {
    /// Tenant identity (control-channel credential and PD label).
    pub name: String,
    /// QoS allocation enforced at admission.
    pub qos: QosLimits,
    /// Validity window stamped on the tenant's staging rkeys.
    pub rkey_scope: SimDuration,
}

impl DpuTenantSpec {
    /// An unthrottled tenant with the default 30 s rkey scope.
    pub fn unlimited(name: impl Into<String>) -> Self {
        DpuTenantSpec {
            name: name.into(),
            qos: QosLimits::unlimited(),
            rkey_scope: SimDuration::from_secs(30),
        }
    }
}

/// Offload-path counters, reported alongside `ResourceStats` (booking core)
/// and `DataPlaneStats` (copy/CRC accounting).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DpuStats {
    /// Data-plane I/Os that ran fully on the DPU.
    pub ops_offloaded: u64,
    /// Host→DPU doorbell submits (a queue counts once).
    pub host_submits: u64,
    /// Completion records posted to the host (the leg it polls for).
    pub host_polls: u64,
    /// Cumulative host↔DPU handoff latency (the two posted legs).
    pub handoff_wait: SimDuration,
    /// Cumulative time between a ring op's data-plane start and its last
    /// descriptor being ready to post: one chain hop when the doorbell
    /// fired it, the wait for an ARM core plus that core's submission work
    /// otherwise. (The serial call's submission is part of its one
    /// synchronous CPU booking and does not count here.)
    pub submission_path: SimDuration,
    /// Cumulative time between an op's last completion SEND landing on the
    /// DPU and its completion record being ready to post: chain hop + NIC
    /// verify + inline service when a chain forwarded it, ARM completion
    /// work + ARM verify + inline service otherwise. (The serial call's
    /// completion work is part of its one synchronous CPU booking and is
    /// not separable; only its verify and inline service count here.)
    pub completion_path: SimDuration,
    /// Payload bytes admitted through the tenant QoS buckets.
    pub bytes_admitted: u64,
    /// Admissions delayed by a token bucket.
    pub ops_throttled: u64,
    /// Cumulative admission delay.
    pub throttle_wait: SimDuration,
    /// Staging-MR re-registrations forced by rkey expiry.
    pub rkey_refreshes: u64,
    /// Bytes checksummed on the DPU's ARM cores (the update CRCs of ops an
    /// ARM core submitted + the fetch verifies of ops one completed).
    pub crc_bytes: u64,
    /// Fetched bytes a forwarding chain verified on the NIC's CRC engine.
    pub nic_verified_bytes: u64,
    /// Update payload bytes the NIC's CRC engine checksummed on their way
    /// out, for ops a doorbell submitted.
    pub nic_checksummed_bytes: u64,
    /// Recovery-ladder counters accumulated by the lanes' pipelined
    /// clients — the DPU retries *on the DPU*; the host only sees the
    /// totals ride back on `IoDone`.
    pub retry: RetryStats,
    /// Read-cache counters accumulated by the lanes' caches (all zeros
    /// while the cache is disabled — the default).
    pub cache: DpuCacheStats,
}

impl DpuStats {
    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: DpuStats) {
        self.ops_offloaded += other.ops_offloaded;
        self.host_submits += other.host_submits;
        self.host_polls += other.host_polls;
        self.handoff_wait += other.handoff_wait;
        self.submission_path += other.submission_path;
        self.completion_path += other.completion_path;
        self.bytes_admitted += other.bytes_admitted;
        self.ops_throttled += other.ops_throttled;
        self.throttle_wait += other.throttle_wait;
        self.rkey_refreshes += other.rkey_refreshes;
        self.crc_bytes += other.crc_bytes;
        self.nic_verified_bytes += other.nic_verified_bytes;
        self.nic_checksummed_bytes += other.nic_checksummed_bytes;
        self.retry.merge(other.retry);
        self.cache.merge(other.cache);
    }
}

/// Refresh a registration when it has less than this long left to live at
/// op-start: long enough that a pull issued now cannot outlive the rkey,
/// short enough that a leaked rkey still dies promptly.
const RKEY_REFRESH_MARGIN: SimDuration = SimDuration::from_millis(50);

/// The offloaded client (see the module docs for the op pipeline).
pub struct DpuClient {
    node: NodeId,
    /// The DPU agent: control-channel termination, staging-DRAM pool,
    /// inline services.
    agent: DpuAgent,
    tenants: TenantManager,
    /// The host↔DPU I/O doorbell (two posted legs per op).
    io: ControlChannel,
    lanes: Vec<TenantLane>,
    /// Global job index → (lane, lane-local job).
    job_map: Vec<(usize, usize)>,
    model: DaosCostModel,
    class: CoreClass,
    transport: Transport,
    stats: DpuStats,
}

impl DpuClient {
    /// Connects an offloaded client on the DPU at `spec.node` to every
    /// engine of a cluster: one data-plane lane per tenant (the
    /// `spec.jobs` jobs are dealt round-robin across tenants), QoS buckets
    /// installed, staging DRAM reserved from `agent`'s pool, and scoped
    /// rkeys armed. Each lane's
    /// inner client opens one connection per storage node, and the lane
    /// routes every op by the cluster's pool map — replication, degraded
    /// reads and failover all run on the DPU, the host only rings
    /// doorbells.
    pub fn connect_cluster(
        fabric: &mut Fabric,
        mut spec: ConnectSpec,
        mut agent: DpuAgent,
        tenant_specs: Vec<DpuTenantSpec>,
        seed: u64,
    ) -> Result<Self, DpuError> {
        let ConnectSpec {
            node,
            jobs,
            buf_len,
            model,
            ..
        } = spec;
        // Each tenant needs at least one job or its lane could never carry
        // I/O — a silent misconfiguration; reject the shape instead.
        if jobs == 0 || tenant_specs.is_empty() || jobs < tenant_specs.len() {
            return Err(DpuError::NoJobs);
        }
        let class = fabric.node(node).class();
        let transport = fabric.transport();
        agent.reserve_dram(jobs as u64 * buf_len)?;

        let mut tenants = TenantManager::new(node);
        let mut io = ControlChannel::new(ControlModel::host_doorbell(), SimRng::new(seed ^ 0x10f0));
        for tenant in &tenant_specs {
            tenants.register(fabric, tenant.name.clone(), tenant.qos, tenant.rkey_scope);
            io.add_tenant(
                tenant.name.clone(),
                Bytes::from(tenant.name.as_bytes().to_vec()),
            );
        }

        let n_tenants = tenant_specs.len();
        // The DPU's ARM cores are split evenly across the tenant lanes, so
        // a lane never borrows another tenant's cores.
        let lane_cores = fabric.node(node).spec.cpu.cores / n_tenants;
        let mut lanes = Vec::with_capacity(n_tenants);
        for (k, tenant) in tenant_specs.into_iter().enumerate() {
            // Jobs j with j % n_tenants == k belong to this lane.
            let lane_jobs = (jobs + n_tenants - 1 - k) / n_tenants;
            // Staging MRs carry the tenant's rkey scope from the outset —
            // there is never a window where an unscoped key exists.
            let deadline = match tenants.rkey_expiry(SimTime::ZERO, &tenant.name) {
                Some(Expiry::At(t)) if transport == Transport::Rdma => t,
                _ => SimTime::MAX,
            };
            let expiry = if deadline == SimTime::MAX {
                Expiry::Never
            } else {
                Expiry::At(deadline)
            };
            // The lane's own share of the jobs, otherwise the client's spec.
            spec.jobs = lane_jobs;
            let mut daos = DaosClient::connect_scoped_multi(fabric, &spec, &tenant.name, expiry)?;
            // Host jobs only ring doorbells; the lane's cores serve
            // whichever job has submission work.
            daos.share_cores(lane_cores);
            // With queue pairs to park chains on, the NIC runs the ring's
            // clean path end to end and the cores handle only exceptions.
            if transport == Transport::Rdma {
                daos.chain_ring(fabric.node(node).spec.nic);
            }
            let rkey_deadline = vec![deadline; lane_jobs];
            let hello = ControlRequest::Hello {
                tenant: tenant.name.clone(),
                auth: Bytes::from(tenant.name.as_bytes().to_vec()),
            };
            let (_, res) = io.call(SimTime::ZERO, None, hello, |_, _| ControlResponse::Ok);
            let (session, _) = res?;
            lanes.push(TenantLane {
                name: tenant.name,
                daos,
                rkey_scope: tenant.rkey_scope,
                rkey_deadline,
                session,
                cache: None,
                granted_up_to: SimTime::ZERO,
                admitted: Vec::new(),
                patches: Vec::new(),
                probes: Vec::new(),
                drained: Vec::new(),
                chains: ChainTable::default(),
            });
        }
        let job_map = (0..jobs).map(|j| (j % n_tenants, j / n_tenants)).collect();
        Ok(DpuClient {
            node,
            agent,
            tenants,
            io,
            lanes,
            job_map,
            model,
            class,
            transport,
            stats: DpuStats::default(),
        })
    }

    /// The DPU node this client runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Every storage node, slot-aligned with the cluster's pool map.
    pub fn servers(&self) -> &[NodeId] {
        self.lanes[0].daos.servers()
    }

    /// The first tenant's data-plane protection domain.
    pub fn pd(&self) -> PdId {
        self.lanes[0].daos.pd()
    }

    /// Total jobs across all tenant lanes.
    pub fn jobs(&self) -> usize {
        self.job_map.len()
    }

    /// The tenant a job is bound to.
    #[cfg(test)]
    fn tenant_of(&self, job: usize) -> &str {
        &self.lanes[self.job_map[job].0].name
    }

    /// The agent (inline services, DRAM pool, management channel).
    pub fn agent(&self) -> &DpuAgent {
        &self.agent
    }

    /// Mutable agent access (management control calls).
    pub fn agent_mut(&mut self) -> &mut DpuAgent {
        &mut self.agent
    }

    /// The tenant manager (QoS state, PDs, admission counters).
    pub fn tenants(&self) -> &TenantManager {
        &self.tenants
    }

    /// Mutable tenant-manager access (registering further tenants).
    pub fn tenants_mut(&mut self) -> &mut TenantManager {
        &mut self.tenants
    }

    /// Offload-path counters, with the lanes' recovery-ladder counters
    /// folded in (retries run on the DPU, inside each lane's inner
    /// client; the host-visible stats carry the totals).
    pub fn dpu_stats(&self) -> DpuStats {
        let mut s = self.stats;
        s.retry = self.retry_stats();
        s.cache = self.cache_stats();
        s
    }

    /// Enables the DPU read cache: carves `total_bytes` out of the agent's
    /// DRAM pool (shrinking staging headroom one-for-one) and splits it
    /// evenly across the tenant lanes. Re-enabling with a new size
    /// releases the old carve first; entries never survive a resize.
    pub fn enable_read_cache(&mut self, total_bytes: u64) -> Result<(), DpuError> {
        self.disable_read_cache();
        let per_lane = total_bytes / self.lanes.len() as u64;
        if per_lane == 0 {
            return Err(DpuError::DramExhausted {
                requested: total_bytes,
                free: 0,
            });
        }
        self.agent
            .reserve_cache(per_lane * self.lanes.len() as u64)?;
        for lane in &mut self.lanes {
            lane.cache = Some(ReadCache::new(per_lane));
        }
        Ok(())
    }

    /// Disables the read cache and returns its DRAM carve to the staging
    /// pool. Counters the dropped caches accumulated are folded into the
    /// client's stats so [`Self::dpu_stats`] stays monotonic across an
    /// enable/disable cycle.
    pub fn disable_read_cache(&mut self) {
        let was_on = self.lanes.iter().any(|l| l.cache.is_some());
        for lane in &mut self.lanes {
            if let Some(cache) = lane.cache.take() {
                self.stats.cache.merge(cache.stats());
            }
        }
        if was_on {
            self.agent.release_cache();
        }
    }

    /// Whether the read cache is enabled.
    #[cfg(test)]
    fn read_cache_enabled(&self) -> bool {
        self.lanes.iter().any(|l| l.cache.is_some())
    }

    /// Aggregate read-cache counters across the lanes (plus counters
    /// carried over from previously disabled caches).
    pub fn cache_stats(&self) -> DpuCacheStats {
        let mut total = self.stats.cache;
        for lane in &self.lanes {
            if let Some(cache) = &lane.cache {
                total.merge(cache.stats());
            }
        }
        total
    }

    /// Live cache occupancy: `(resident_bytes, capacity)` summed across
    /// the lane slices. Resident never exceeds capacity — the invariant
    /// the coherence property suite checks after every queue.
    pub fn cache_usage(&self) -> (u64, u64) {
        self.lanes
            .iter()
            .filter_map(|l| l.cache.as_ref())
            .fold((0, 0), |(r, c), cache| {
                (r + cache.resident_bytes(), c + cache.capacity())
            })
    }

    /// The read caches' share of [`Timed::data_plane_stats`] (zero-copy
    /// hits out of DPU DRAM), read through `&self`.
    // frozen by benchmark/src/sut.rs:245
    pub fn cache_data_plane_stats(&self) -> ros2_buf::DataPlaneStats {
        let mut total = ros2_buf::DataPlaneStats::default();
        for cache in self.lanes.iter().filter_map(|l| l.cache.as_ref()) {
            total.merge(cache.data_plane_stats());
        }
        total
    }

    /// Aggregate recovery-ladder counters across every tenant lane.
    pub fn retry_stats(&self) -> RetryStats {
        let mut total = RetryStats::default();
        for lane in &self.lanes {
            total.merge(lane.daos.retry_stats());
        }
        total
    }

    /// Fault injection: wedges (or revives) `lane`'s doorbell servicing —
    /// a host submit or poll against a wedged lane burns the doorbell
    /// deadline and returns a typed timeout instead of spinning forever.
    #[cfg(test)]
    fn wedge_lane(&mut self, lane: usize, on: bool) {
        let session = self.lanes[lane].session;
        self.io.set_stalled(session, on);
    }

    /// Delivers a RAS map push to every tenant lane's cached map at `at`
    /// — the DPU terminates the RAS stream, so all lanes hear the same
    /// delivery at the same (possibly fault-delayed) instant.
    pub fn deliver_map(&mut self, at: SimTime, map: PoolMap) {
        for lane in &mut self.lanes {
            lane.daos.deliver_map(at, map.clone());
            if let Some(cache) = lane.cache.as_mut() {
                // Conservative: sweep as soon as the push is *scheduled*,
                // not when it lands — the cache may only ever under-serve,
                // never serve across a revision it has heard about.
                cache.note_map(map.version());
            }
        }
    }

    /// Installs `map` in every lane's cache immediately (the `MapQuery`
    /// reply path — authoritative, no delivery delay).
    pub fn sync_map(&mut self, map: PoolMap) {
        for lane in &mut self.lanes {
            lane.daos.sync_map(map.clone());
            if let Some(cache) = lane.cache.as_mut() {
                cache.note_map(map.version());
            }
        }
    }

    /// Sets the recovery-ladder policy on every tenant lane.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        for lane in &mut self.lanes {
            lane.daos.set_retry_policy(policy);
        }
    }

    /// Earliest instant any lane completed an op on a retry attempt
    /// (time-to-first-successful-retry across the whole offloaded client).
    pub fn first_successful_retry(&self) -> Option<SimTime> {
        self.lanes
            .iter()
            .filter_map(|l| l.daos.first_successful_retry())
            .min()
    }

    /// ARM cores executing client submission work, summed over the lanes
    /// (the node's cores split evenly per tenant, at least one each).
    pub fn submission_cores(&self) -> usize {
        self.lanes.iter().map(|l| l.daos.cores()).sum()
    }

    /// Aggregate busy time of the lanes' submission cores since the last
    /// [`Timed::reset_timing`].
    pub fn submission_busy_time(&self) -> SimDuration {
        self.lanes
            .iter()
            .fold(SimDuration::ZERO, |t, l| t + l.daos.core_busy_time())
    }

    /// [`Timed::resource_stats`] read through `&self`: the lanes' cores.
    // frozen by benchmark/src/sut.rs:243
    pub fn resource_stats(&self) -> ResourceStats {
        let mut total = ResourceStats::default();
        for lane in &self.lanes {
            total.merge(lane.daos.resource_stats());
        }
        total
    }

    /// The host submit leg: one posted descriptor-plus-doorbell write,
    /// `frame`. Returns the instant the descriptor is live on the DPU. The
    /// host waits for no answer; a wedged lane shows as a completion record
    /// that never appears, and the host's poll for it gives up at the
    /// doorbell deadline.
    fn host_submit(
        &mut self,
        now: SimTime,
        lane: usize,
        frame: &ControlRequest,
    ) -> Result<SimTime, DaosError> {
        self.stats.host_submits += 1;
        let session = self.lanes[lane].session;
        let (at, res) = self.io.post(now, session, frame);
        res?;
        self.stats.handoff_wait += at.saturating_since(now);
        Ok(at)
    }

    /// The host completion leg: the record of `ops` completions, ready on
    /// the DPU at `done`, is posted into host-visible memory where the
    /// host's poll finds it. Returns the instant the host observes it.
    fn host_poll(&mut self, done: SimTime, lane: usize, ops: u32) -> Result<SimTime, DaosError> {
        self.stats.host_polls += 1;
        let session = self.lanes[lane].session;
        // The record carries the lane's cumulative retry count back to
        // the host — retry behavior stays observable without the host
        // owning any data-plane state.
        let retries = self.lanes[lane]
            .daos
            .retry_stats()
            .retries
            .min(u32::MAX as u64) as u32;
        let (at, res) =
            self.io
                .post_reply(done, session, &ControlResponse::IoDone { ops, retries });
        res?;
        self.stats.handoff_wait += at.saturating_since(done);
        Ok(at)
    }

    /// QoS admission for one I/O of `bytes` arriving on the DPU at `now`.
    /// Returns the grant instant and whether the buckets held the op back,
    /// that is, whether a bucket was short of tokens: such a grant is later
    /// than the op's arrival *and* than the instant the buckets had been
    /// granted up to (`TokenBucket::acquire` queues an earlier arrival from
    /// there, whatever its level — the lane keeps that instant beside the
    /// buckets rather than look the tenant up twice per op). A grant that is
    /// late only because it queued is not a rate limit at work. Host jobs
    /// submit independently and the simulator can meet a doorbell that
    /// landed later first; hardware would have met them in order and granted
    /// both on arrival. The op keeps the instant the buckets gave it, as at
    /// the parent of this rule, at most one think time late.
    fn admit(
        &mut self,
        now: SimTime,
        lane: usize,
        bytes: u64,
    ) -> Result<(SimTime, bool), DaosError> {
        let l = &mut self.lanes[lane];
        let grant = self
            .tenants
            .admit(now, &l.name, bytes)
            .ok_or(DaosError::NoSuchEntity)?;
        let held_back = grant > now.max(l.granted_up_to);
        l.granted_up_to = l.granted_up_to.max(grant);
        self.stats.bytes_admitted += bytes;
        if grant > now {
            self.stats.ops_throttled += 1;
            self.stats.throttle_wait += grant.saturating_since(now);
        }
        Ok((grant, held_back))
    }

    /// The DPU-side CRC32C cost for `bytes` (computed on update, verified
    /// on fetch), at this node's core-class rate.
    ///
    /// Deliberately charged on the offload path only: the host-placement
    /// control arm is pinned bit-identical to its pre-offload behaviour
    /// (its CRC work is the engine-side scan/verify both arms already
    /// pay), so modelling the *client-side* checksum here is conservative
    /// — it can only understate the DPU's advantage in the A/B sweep.
    fn crc_cost(&mut self, bytes: u64) -> SimDuration {
        self.stats.crc_bytes += bytes;
        self.arm_crc_cost(bytes)
    }

    /// What [`Self::crc_cost`] charges, with nothing counted.
    fn arm_crc_cost(&self, bytes: u64) -> SimDuration {
        self.class
            .scale(per_byte(bytes, self.model.crc_ps_per_byte))
    }

    /// Re-registers `(lane, local)`'s staging MR when its rkey would be
    /// within [`RKEY_REFRESH_MARGIN`] plus `horizon` of expiry at `start`
    /// — in-flight pulls never outlive their rkey, and leaked rkeys still
    /// die. `horizon` is zero for serial ops; queues pass a conservative
    /// upper bound on their own span, since the whole queue runs on the
    /// registration checked here. Returns whether it re-registered.
    fn ensure_rkey(
        &mut self,
        fabric: &mut Fabric,
        lane: usize,
        local: usize,
        start: SimTime,
        horizon: SimDuration,
    ) -> Result<bool, DaosError> {
        if self.transport != Transport::Rdma {
            return Ok(false);
        }
        let deadline = self.lanes[lane].rkey_deadline[local];
        if deadline == SimTime::MAX || start + RKEY_REFRESH_MARGIN + horizon < deadline {
            return Ok(false);
        }
        let fresh = start + self.lanes[lane].rkey_scope;
        self.lanes[lane]
            .daos
            .set_mr_expiry(fabric, local, Expiry::At(fresh))?;
        self.lanes[lane].rkey_deadline[local] = fresh;
        self.stats.rkey_refreshes += 1;
        Ok(true)
    }

    /// Conservative upper bound on how long `ops` data-plane phases
    /// totalling `bytes` can keep a registration busy past their start: the
    /// payload at a 1 GiB/s floor plus 100 µs per op dominates any real
    /// schedule (the wire alone moves >2 GiB/s, per-op overheads are
    /// ~20 µs). Fed to [`Self::ensure_rkey`] so refreshes always cover the
    /// op's own span.
    fn span_bound(ops: u64, bytes: u64) -> SimDuration {
        SimDuration::for_bytes(bytes, 1 << 30) + SimDuration::from_micros(100).saturating_mul(ops)
    }

    /// Stages the offload preamble shared by every op: submit → admit →
    /// inline service → (update-path CRC) → rkey freshness (covering the
    /// op's own span). Returns the lane/local indices and the instant the
    /// data-plane phases may start. The op is counted as offloaded here —
    /// once the preamble clears, the DPU runs it, successful or not (the
    /// same attempt semantics as the queue path and the inner client's
    /// `ops()` counter).
    fn offload_start(
        &mut self,
        fabric: &mut Fabric,
        now: SimTime,
        job: usize,
        bytes: u64,
        is_update: bool,
    ) -> Result<(usize, usize, SimTime), DaosError> {
        let (lane, local) = self.job_map[job];
        let frame = ControlRequest::IoSubmit { ops: 1, bytes };
        let submitted = self.host_submit(now, lane, &frame)?;
        let (granted, _) = self.admit(submitted, lane, bytes)?;
        let mut start = granted + self.agent.inline_cost(bytes);
        if is_update {
            start += self.crc_cost(bytes);
        }
        self.ensure_rkey(fabric, lane, local, start, Self::span_bound(1, bytes))?;
        self.stats.ops_offloaded += 1;
        Ok((lane, local, start))
    }

    /// The queue preamble of the pipelined path: one doorbell ring
    /// announces the whole queue (the host-side cost grows with depth only
    /// by the patch an RDMA lane's frame carries per op), then every op is
    /// admitted individually — tenant buckets see each byte — and pays its
    /// inline service, which yields its [`Admitted`] entry in the lane. The
    /// whole queue runs against the registration checked here, at the
    /// latest instant any op can start (most conservative: every update's
    /// checksum at the ARM rate) with the full-queue span; scopes must
    /// exceed that bound for a queue to be safe at all, and every shipped
    /// world's scope (≥ 100 ms vs queues of a few tens of MiB) does.
    ///
    /// Returns two instants. At the first the frame's head has landed — the
    /// op count and payload bytes an `IoSubmit` carries, all admission needs
    /// and all the lane had when it probed its cache before there was a
    /// doorbell frame — so admission and the probes run from there, and a
    /// hit, which submits nothing, is served from there. At the second the
    /// whole frame has, patches included: no op of the queue is submitted
    /// sooner. They are one instant for an `IoSubmit`.
    fn queue_start(
        &mut self,
        fabric: &mut Fabric,
        now: SimTime,
        (lane, local): (usize, usize),
        ops: &[ClientOp],
    ) -> Result<(SimTime, SimTime), DaosError> {
        let total_bytes: u64 = ops.iter().map(|op| op_bytes(op).0).sum();
        // Where the NIC can submit, the frame says all a descriptor needs
        // beyond its template — if a patch can name every op of the queue.
        let mut patches = std::mem::take(&mut self.lanes[lane].patches);
        patches.clear();
        if self.transport == Transport::Rdma {
            patches.extend(ops.iter().map_while(ClientOp::patch));
        }
        let patched = !patches.is_empty() && patches.len() == ops.len();
        let frame = match patched {
            true => ControlRequest::IoDoorbell {
                bytes: total_bytes,
                patches,
            },
            false => ControlRequest::IoSubmit {
                ops: ops.len() as u32,
                bytes: total_bytes,
            },
        };
        let landed = self.host_submit(now, lane, &frame);
        let heard = self.io.head_landed_at(now, &frame);
        if let ControlRequest::IoDoorbell { patches, .. } = frame {
            self.lanes[lane].patches = patches;
        }
        let landed = landed?;
        self.lanes[lane].admitted.clear();
        let mut latest = landed;
        for op in ops {
            let (bytes, is_update) = op_bytes(op);
            let (granted, held_back) = self.admit(heard, lane, bytes)?;
            let at = granted + self.agent.inline_cost(bytes);
            latest = latest.max(match is_update {
                true => at + self.arm_crc_cost(bytes),
                false => at,
            });
            self.lanes[lane].admitted.push(Admitted {
                at,
                clean: patched && !held_back,
            });
        }
        let span = Self::span_bound(ops.len() as u64, total_bytes);
        if self.ensure_rkey(fabric, lane, local, latest, span)? {
            // The refresh is a core's work, and so is what waited for it.
            for a in &mut self.lanes[lane].admitted {
                a.clean = false;
            }
        }
        self.stats.ops_offloaded += ops.len() as u64;
        Ok((heard, landed))
    }

    /// The data-plane half of a queue whose doorbell frame's head landed at
    /// `heard` and whose last byte landed at `landed`: cache probes, then
    /// the misses through the lane's [`OpRing`] — each from its own start
    /// instant, its chain armed first and, if the submission is clean, its
    /// doorbell rung — then the chains' second firing and the completion
    /// records, then cache completions. Hits are never issued at all — no
    /// staging legs, no fabric bookings.
    ///
    /// This is where an op turns out clean or not, once: admission found
    /// nothing against it ([`Admitted::clean`]), the slot's chain stands
    /// armed, and the doorbell finds a current template to fire
    /// (`DaosClient::fired_template`). The ring is handed what fired and
    /// decides nothing again.
    fn run_queue(
        &mut self,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
        (heard, landed): (SimTime, SimTime),
        (lane, local): (usize, usize),
        ops: &mut Vec<ClientOp>,
        out: &mut Vec<ClientOpResult>,
    ) {
        let l = &mut self.lanes[lane];
        // Empty without a cache.
        let mut probes = std::mem::take(&mut l.probes);
        l.probe_queue(heard, cluster, ops, &mut probes);
        let n_ops = ops.len();
        let misses = n_ops - probes.iter().filter(|p| p.is_hit()).count();
        // Results come back in op order with the hits left out.
        let mut ring = OpRing::reuse(&mut l.daos, local, misses);
        let mut slot = 0;
        for (i, op) in ops.drain(..).enumerate() {
            if probes.get(i).is_some_and(Probe::is_hit) {
                continue;
            }
            let l = &mut self.lanes[lane];
            let Admitted { at, clean } = l.admitted[i];
            // What submits needs its patch.
            let at = at.max(landed);
            // Payload bytes to checksum on the way out: an update's.
            let outbound = match op_bytes(&op) {
                (bytes, true) => bytes,
                _ => 0,
            };
            // The chain cannot arm without memory for its record, or a QP;
            // the template must be current at the instant the
            // doorbell-fired SEND would start.
            let armed = clean && matches!(l.arm_chain(fabric, local, slot), Ok(true));
            let start = at + nic_crc_cost(outbound);
            let fired = match armed {
                true => l.daos.fired_template(start, cluster, &op),
                false => None,
            };
            match fired {
                Some(fired) => match l.ring_doorbell(fabric, start, local, slot, &fired) {
                    Ok(()) => {
                        self.stats.nic_checksummed_bytes += outbound;
                        ring.submit_fired(&mut l.daos, fabric, cluster, start, op, fired);
                    }
                    // No descriptor left the node: a core reports why.
                    Err(e) => ring.refuse(&mut l.daos, &op, e),
                },
                // An exception is an ARM core's as a whole, the update
                // checksum included.
                None => {
                    let start = at + self.crc_cost(outbound);
                    let l = &mut self.lanes[lane];
                    ring.submit(&mut l.daos, fabric, cluster, start, op);
                }
            }
            slot += 1;
        }
        let l = &mut self.lanes[lane];
        let mut drained = std::mem::take(&mut l.drained);
        ring.drain_into(&mut l.daos, fabric, cluster, &mut drained);
        let at = (lane, local);
        let base = out.len();
        for (slot, r) in drained.drain(..).enumerate() {
            out.push(self.finish_issued(fabric, at, slot, ring.trail()[slot], r));
        }
        let l = &mut self.lanes[lane];
        l.drained = drained;
        // The cache learns only from what was verified and published: a
        // payload the completion path rejected is an error by now.
        let missed = probes.iter_mut().filter(|p| !p.is_hit());
        for (slot, (probe, r)) in missed.zip(&out[base..]).enumerate() {
            let (ok, fetched) = match r {
                ClientOpResult::Fetch(Ok((data, _))) => (true, Some(data)),
                ClientOpResult::Update(Ok(_)) => (true, None),
                _ => (false, None),
            };
            // The ring reports each slot's leader-path provenance.
            let clean = ok && ring.trail()[slot].fill_ok;
            l.complete(heard, cluster, std::mem::take(probe), clean, fetched);
        }
        ring.recycle(&mut l.daos);
        // Each hit goes back at its op index, in op order: everything
        // before it is in place by then.
        for (i, probe) in probes.drain(..).enumerate() {
            if let Probe::Hit(data) = probe {
                let ready =
                    self.lanes[lane].admitted[i].at + ReadCache::service_cost(data.len() as u64);
                let r = self.host_poll(ready, lane, 1).map(|at| (data, at));
                out.insert(base + i, ClientOpResult::Fetch(r));
            }
        }
        self.lanes[lane].probes = probes;
    }

    /// [`Self::finish_op`] over one drained ring result; errors pass
    /// through (they never reached a completion).
    fn finish_issued(
        &mut self,
        fabric: &mut Fabric,
        (lane, local): (usize, usize),
        slot: usize,
        trail: SlotTrail,
        r: ClientOpResult,
    ) -> ClientOpResult {
        let at = (lane, local, slot);
        match r {
            ClientOpResult::Update(Ok(acked)) => {
                ClientOpResult::Update(self.finish_op(fabric, acked, at, trail, None))
            }
            ClientOpResult::Fetch(Ok((data, ready))) => ClientOpResult::Fetch(
                self.finish_op(fabric, ready, at, trail, Some(&data))
                    .map(|seen| (data, seen)),
            ),
            err => err,
        }
    }

    /// The epilogue of a ring op the data plane completed and whose
    /// completion was forwarded by `ready` (`fetched` is a fetch's payload).
    ///
    /// A slot the ring reports as chain-forwarded fires its chain here: the
    /// NIC checks the landed bytes and writes the record, and no ARM cycle
    /// is spent. If the chain stops — the checksum does not match, or a
    /// region it names was revoked or expired under it — nothing was
    /// published, and the ARM core that picks the exception up reports the
    /// error in place of the bytes. Every other slot is the ARM core's from
    /// the start. Either way [`Self::publish`] prices the rest.
    fn finish_op(
        &mut self,
        fabric: &mut Fabric,
        ready: SimTime,
        (lane, local, slot): (usize, usize, usize),
        trail: SlotTrail,
        fetched: Option<&Bytes>,
    ) -> Result<SimTime, DaosError> {
        let verifier = match trail.forwarded {
            Some(by) => {
                self.lanes[lane].fire_chain(fabric, ready, local, slot, by, fetched)?;
                Verifier::Nic
            }
            None => Verifier::Arm,
        };
        let bytes = fetched.map(|d| d.len() as u64);
        self.stats.submission_path += trail.submission;
        self.publish(ready, lane, bytes, verifier, trail.completion)
    }

    /// The epilogue of every op the data plane completed, serial call and
    /// ring alike, from the instant `ready` at which its completion had
    /// been forwarded (at a cost of `forwarding`, accounted here and
    /// charged by whoever did it): `verifier` checks a fetch's `fetched`
    /// bytes at its own rate, the inline service runs over them, and the
    /// completion record is posted to the host. Returns the host-visible
    /// completion instant. The one place a completion-side verify is
    /// priced, whichever hardware does it.
    fn publish(
        &mut self,
        ready: SimTime,
        lane: usize,
        fetched: Option<u64>,
        verifier: Verifier,
        forwarding: SimDuration,
    ) -> Result<SimTime, DaosError> {
        let mut tail = SimDuration::ZERO;
        if let Some(bytes) = fetched {
            tail += match verifier {
                Verifier::Arm => self.crc_cost(bytes),
                Verifier::Nic => {
                    self.stats.nic_verified_bytes += bytes;
                    nic_crc_cost(bytes)
                }
            };
            tail += self.agent.inline_cost(bytes);
        }
        self.stats.completion_path += forwarding + tail;
        self.host_poll(ready + tail, lane, 1)
    }
}

/// Who checks a fetched payload's CRC32C before its completion is
/// published.
#[derive(Copy, Clone)]
enum Verifier {
    /// An ARM core, at the `crc_ps_per_byte` rate of its class — the serial
    /// call, TCP lanes and every exception.
    Arm,
    /// The NIC's signature engine, as a step of the forwarding chain.
    Nic,
}

/// An op's payload size and whether it is an update.
fn op_bytes(op: &ClientOp) -> (u64, bool) {
    match op {
        ClientOp::Update(op) => (op.data.len() as u64, true),
        ClientOp::Fetch(op) => (op.len, false),
    }
}

impl ObjectClient for DpuClient {
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
        let bytes = data.len() as u64;
        let (lane, local, start) = self.offload_start(fabric, now, job, bytes, true)?;
        let l = &mut self.lanes[lane];
        let at = CacheKey::new(oid, dkey.clone(), akey.clone(), kind, bytes);
        let probe = l.probe_update(start, cluster, at, &data);
        let done = l
            .daos
            .update(fabric, cluster, start, local, oid, dkey, akey, kind, data);
        l.complete(start, cluster, probe, done.is_ok(), None);
        self.publish(done?, lane, None, Verifier::Arm, SimDuration::ZERO)
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
        let (lane, local, start) = self.offload_start(fabric, now, job, len, false)?;
        let l = &mut self.lanes[lane];
        // Only latest-epoch reads participate — snapshot reads address
        // history the cache does not version. A hit serves from DPU DRAM:
        // no fabric bookings, no ARM CRC verify, no inline service — just
        // the DRAM stream and the host poll.
        let op = FetchOp {
            key: RecordKey { oid, dkey, akey },
            kind,
            epoch,
            len,
        };
        let probe = match epoch == Epoch::LATEST {
            true => l.probe_fetch(start, cluster, CacheKey::at(op.key.clone(), kind, len)),
            false => Probe::Skip,
        };
        if let Probe::Hit(data) = probe {
            let ready = start + ReadCache::service_cost(data.len() as u64);
            let at = self.host_poll(ready, lane, 1)?;
            return Ok((data, at));
        }
        let (data, ready, meta) = l.daos.fetch_with_meta(fabric, cluster, start, local, &op)?;
        // The serial call's completion work is inside its one CPU booking.
        let bytes = Some(data.len() as u64);
        let at = self.publish(ready, lane, bytes, Verifier::Arm, SimDuration::ZERO)?;
        // This path routes by the live map: fill only when the completion
        // itself reports the leader route and the reading the probe was
        // validated against.
        let clean = matches!(&probe, Probe::Miss(_, stamp)
            if !meta.routing.degraded && *stamp == (meta.routing.stamp, meta.record_version));
        self.lanes[lane].complete(start, cluster, probe, clean, Some(&data));
        Ok((data, at))
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

    fn execute_into(
        &mut self,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
        now: SimTime,
        job: usize,
        ops: &mut Vec<ClientOp>,
        out: &mut Vec<ClientOpResult>,
    ) {
        let (lane, local) = self.job_map[job];
        if ops.is_empty() {
            return;
        }
        // Per-op admission with NO barrier: each op enters the ring at its
        // own grant-plus-preamble instant, so an op throttled by the token
        // bucket delays only itself while earlier grants are already in
        // flight on the lane's data plane.
        match self.queue_start(fabric, now, (lane, local), ops) {
            Ok(landings) => self.run_queue(fabric, cluster, landings, (lane, local), ops, out),
            Err(e) => {
                out.extend(whole_batch_error(ops, e));
                ops.clear();
            }
        }
    }

    fn ops(&self) -> u64 {
        // Hits never reach the inner clients, but they are completed I/Os
        // the application issued — count them alongside.
        self.lanes.iter().map(|l| l.daos.ops()).sum::<u64>() + self.cache_stats().hits
    }
}

impl Timed for DpuClient {
    /// Each lane's client cores, read cache and grant clock, the tenants'
    /// admission lanes, and the offload counters ([`DpuStats`]).
    fn visit(&mut self, v: &mut dyn Visit) {
        for lane in &mut self.lanes {
            lane.daos.visit(v);
            if let Some(cache) = &lane.cache {
                v.data_plane(cache.data_plane_stats());
            }
            v.rewind(&mut || lane.granted_up_to = SimTime::ZERO);
        }
        self.tenants.visit(v);
        v.rewind(&mut || self.stats = DpuStats::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::default_control;
    use ros2_ctl::ControlError;
    use ros2_daos::{DaosEngine, ObjClass};
    use ros2_fabric::NodeSpec;
    use ros2_hw::NvmeModel;
    use ros2_nvme::{DataMode, NvmeArray};
    use ros2_spdk::BdevLayer;
    use ros2_verbs::MemoryDomain;

    fn world(transport: Transport) -> (Fabric, EngineCluster) {
        let fabric = Fabric::new(
            transport,
            vec![NodeSpec::bluefield3(), NodeSpec::storage_server()],
            11,
        );
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
        (fabric, EngineCluster::single(engine))
    }

    fn connect(
        fabric: &mut Fabric,
        specs: Vec<DpuTenantSpec>,
        jobs: usize,
    ) -> Result<DpuClient, DpuError> {
        let agent = DpuAgent::new(NodeId(0), 30 << 30, default_control(5));
        DpuClient::connect_cluster(
            fabric,
            ConnectSpec {
                node: NodeId(0),
                servers: vec![NodeId(1)],
                cont: "cont0".into(),
                jobs,
                buf_len: 4 << 20,
                domain: MemoryDomain::DpuDram,
                model: DaosCostModel::default_model(),
            },
            agent,
            specs,
            99,
        )
    }

    #[test]
    fn offloaded_round_trip_pays_the_handoff() {
        let (mut fabric, mut cluster) = world(Transport::Rdma);
        let mut c = connect(&mut fabric, vec![DpuTenantSpec::unlimited("llm")], 2).unwrap();
        let oid = ObjectId::new(ObjClass::Sx, 1);
        let data = Bytes::from(vec![0x7Bu8; 1 << 20]);
        let done = c
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
        let (back, at) = c
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
        assert!(at > done);
        let s = c.dpu_stats();
        assert_eq!(s.ops_offloaded, 2);
        assert_eq!(s.host_submits, 2);
        assert_eq!(s.host_polls, 2);
        assert!(
            s.handoff_wait >= SimDuration::from_micros(4),
            "two ops, each a posted submit and a posted completion record: \
             four one-way crossings of the 2 us doorbell link (they were \
             charged as four round trips, 8 us, while submit and poll were \
             synchronous calls); got {:?}",
            s.handoff_wait
        );
        assert!(s.handoff_wait < SimDuration::from_micros(5));
        assert_eq!(s.bytes_admitted, 2 << 20);
        assert_eq!(s.crc_bytes, 2 << 20, "update CRC + fetch verify");
        assert_eq!(c.ops(), 2);
    }

    #[test]
    fn every_byte_is_admitted_and_throttling_shapes_grants() {
        let (mut fabric, mut cluster) = world(Transport::Rdma);
        let limited = DpuTenantSpec {
            name: "capped".into(),
            qos: QosLimits {
                ops_per_sec: 1_000_000,
                bytes_per_sec: 8 << 20, // 8 MiB/s
                burst: (1 << 10, 1 << 20),
            },
            rkey_scope: SimDuration::from_secs(30),
        };
        let mut c = connect(&mut fabric, vec![limited], 1).unwrap();
        let oid = ObjectId::new(ObjClass::Sx, 2);
        let mut t = SimTime::ZERO;
        for i in 0..4u64 {
            t = c
                .update(
                    &mut fabric,
                    &mut cluster,
                    t,
                    0,
                    oid,
                    DKey::from_u64(i),
                    AKey::from_str("data"),
                    ValueKind::Array { offset: 0 },
                    Bytes::from(vec![1u8; 1 << 20]),
                )
                .unwrap();
        }
        // 4 MiB through an 8 MiB/s bucket with a 1 MiB burst: >= ~0.375 s.
        assert!(
            t >= SimTime::from_millis(350),
            "QoS must pace the stream; finished at {t}"
        );
        let s = c.dpu_stats();
        assert_eq!(s.bytes_admitted, 4 << 20);
        assert!(s.ops_throttled >= 3, "throttled {}", s.ops_throttled);
        assert!(s.throttle_wait > SimDuration::from_millis(300));
        let ctx = c.tenants().tenant("capped").unwrap();
        assert_eq!(ctx.qos.admitted.1, 4 << 20);
    }

    #[test]
    fn scoped_rkeys_refresh_instead_of_expiring_mid_pull() {
        let (mut fabric, mut cluster) = world(Transport::Rdma);
        let short = DpuTenantSpec {
            name: "short".into(),
            qos: QosLimits::unlimited(),
            rkey_scope: SimDuration::from_millis(100),
        };
        let mut c = connect(&mut fabric, vec![short], 1).unwrap();
        let oid = ObjectId::new(ObjClass::Sx, 3);
        // Ops spaced past the 100 ms scope force refreshes; none may fail
        // and the NIC must see zero expired-rkey violations.
        let mut t = SimTime::ZERO;
        for i in 0..5u64 {
            t = c
                .update(
                    &mut fabric,
                    &mut cluster,
                    t.max(SimTime::from_millis(i * 120)),
                    0,
                    oid,
                    DKey::from_u64(i),
                    AKey::from_str("data"),
                    ValueKind::Array { offset: 0 },
                    Bytes::from(vec![2u8; 64 << 10]),
                )
                .unwrap();
        }
        assert!(
            c.dpu_stats().rkey_refreshes >= 4,
            "refreshes {}",
            c.dpu_stats().rkey_refreshes
        );
        assert_eq!(fabric.node(NodeId(0)).rdma.violations().total(), 0);
    }

    #[test]
    fn tenants_get_dedicated_lanes_and_pds() {
        let (mut fabric, mut cluster) = world(Transport::Rdma);
        let mut c = connect(
            &mut fabric,
            vec![DpuTenantSpec::unlimited("a"), DpuTenantSpec::unlimited("b")],
            4,
        )
        .unwrap();
        assert_eq!(c.jobs(), 4);
        assert_eq!(c.tenant_of(0), "a");
        assert_eq!(c.tenant_of(1), "b");
        assert_eq!(c.tenant_of(2), "a");
        // Distinct PDs per tenant lane.
        assert_ne!(c.lanes[0].daos.pd(), c.lanes[1].daos.pd());
        // Both lanes actually move data.
        let oid = ObjectId::new(ObjClass::Sx, 9);
        for job in 0..4 {
            c.update(
                &mut fabric,
                &mut cluster,
                SimTime::ZERO,
                job,
                oid,
                DKey::from_u64(job as u64),
                AKey::from_str("data"),
                ValueKind::Array { offset: 0 },
                Bytes::from(vec![3u8; 4 << 10]),
            )
            .unwrap();
        }
        assert_eq!(c.tenants().tenant("a").unwrap().qos.admitted.0, 2);
        assert_eq!(c.tenants().tenant("b").unwrap().qos.admitted.0, 2);
    }

    #[test]
    fn dpu_tcp_fallback_path_works_without_rkeys() {
        let (mut fabric, mut cluster) = world(Transport::Tcp);
        let mut c = connect(&mut fabric, vec![DpuTenantSpec::unlimited("t")], 1).unwrap();
        let oid = ObjectId::new(ObjClass::S1, 5);
        let done = c
            .update(
                &mut fabric,
                &mut cluster,
                SimTime::ZERO,
                0,
                oid,
                DKey::from_str("k"),
                AKey::from_str("v"),
                ValueKind::Single,
                Bytes::from_static(b"meta"),
            )
            .unwrap();
        let (back, _) = c
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
                4,
            )
            .unwrap();
        assert_eq!(&back[..], b"meta");
        assert_eq!(c.dpu_stats().rkey_refreshes, 0, "no MRs on TCP");
    }

    #[test]
    fn wedged_lane_times_out_instead_of_spinning() {
        let (mut fabric, mut cluster) = world(Transport::Rdma);
        let mut c = connect(&mut fabric, vec![DpuTenantSpec::unlimited("t")], 1).unwrap();
        c.wedge_lane(0, true);
        let oid = ObjectId::new(ObjClass::Sx, 6);
        let err = c
            .update(
                &mut fabric,
                &mut cluster,
                SimTime::ZERO,
                0,
                oid,
                DKey::from_u64(0),
                AKey::from_str("data"),
                ValueKind::Array { offset: 0 },
                Bytes::from(vec![5u8; 4 << 10]),
            )
            .unwrap_err();
        assert_eq!(
            err,
            DaosError::Control(ControlError::Timeout),
            "a wedged lane must fail with a typed timeout"
        );
        // Posted doorbells wait for no answer, so it is the missing
        // completion record that gives a wedged lane away — on the ring
        // as on the serial call: every op of the queue times out.
        let queue = vec![ClientOp::Fetch(FetchOp {
            key: RecordKey {
                oid,
                dkey: DKey::from_u64(0),
                akey: AKey::from_str("data"),
            },
            kind: ValueKind::Array { offset: 0 },
            epoch: Epoch::LATEST,
            len: 4 << 10,
        })];
        let r = c.execute_pipelined(&mut fabric, &mut cluster, SimTime::ZERO, 0, queue);
        assert!(matches!(
            r[..],
            [ClientOpResult::Fetch(Err(DaosError::Control(
                ControlError::Timeout
            )))]
        ));
        assert_eq!(c.dpu_stats().ops_offloaded, 0, "a wedged lane runs nothing");
        // The bounded wait is the doorbell deadline, not forever: reviving
        // the lane restores service and the op completes.
        c.wedge_lane(0, false);
        c.update(
            &mut fabric,
            &mut cluster,
            SimTime::ZERO,
            0,
            oid,
            DKey::from_u64(0),
            AKey::from_str("data"),
            ValueKind::Array { offset: 0 },
            Bytes::from(vec![5u8; 4 << 10]),
        )
        .unwrap();
    }

    #[test]
    fn read_cache_turns_repeat_reads_into_dram_hits() {
        let (mut fabric, mut cluster) = world(Transport::Rdma);
        let mut c = connect(&mut fabric, vec![DpuTenantSpec::unlimited("llm")], 1).unwrap();
        c.enable_read_cache(64 << 20).unwrap();
        assert_eq!(c.agent().cache_reserved(), 64 << 20);
        let oid = ObjectId::new(ObjClass::Sx, 20);
        let data = Bytes::from(vec![0x5au8; 16 << 10]);
        let done = c
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
        let fetch = |c: &mut DpuClient, fabric: &mut Fabric, cluster: &mut EngineCluster, at| {
            c.fetch(
                fabric,
                cluster,
                at,
                0,
                oid,
                DKey::from_u64(0),
                AKey::from_str("data"),
                ValueKind::Array { offset: 0 },
                Epoch::LATEST,
                16 << 10,
            )
            .unwrap()
        };
        let (cold, t1) = fetch(&mut c, &mut fabric, &mut cluster, done);
        let crc_after_miss = c.dpu_stats().crc_bytes;
        let (warm, t2) = fetch(&mut c, &mut fabric, &mut cluster, t1);
        assert_eq!(cold, data);
        assert_eq!(warm, data);
        let s = c.cache_stats();
        assert_eq!((s.hits, s.misses, s.fills), (1, 1, 1));
        assert_eq!(s.bytes_served, 16 << 10);
        assert_eq!(
            c.dpu_stats().crc_bytes,
            crc_after_miss,
            "a hit books zero ARM CRC"
        );
        assert!(
            t2.saturating_since(t1) < t1.saturating_since(done),
            "warm read must beat the cold read: warm {:?} cold {:?}",
            t2.saturating_since(t1),
            t1.saturating_since(done)
        );
        assert_eq!(c.cache_data_plane_stats().bytes_zero_copy, 16 << 10);
        assert_eq!(c.ops(), 3, "the hit still counts as a completed op");
    }

    #[test]
    fn local_write_updates_the_cached_chunk() {
        let (mut fabric, mut cluster) = world(Transport::Rdma);
        let mut c = connect(&mut fabric, vec![DpuTenantSpec::unlimited("llm")], 1).unwrap();
        c.enable_read_cache(8 << 20).unwrap();
        let oid = ObjectId::new(ObjClass::Sx, 21);
        let dk = DKey::from_u64(0);
        let ak = AKey::from_str("data");
        let kind = ValueKind::Array { offset: 0 };
        let write = |c: &mut DpuClient, fabric: &mut Fabric, cluster: &mut EngineCluster, t, b| {
            let data = Bytes::from(vec![b; 4 << 10]);
            c.update(
                fabric,
                cluster,
                t,
                0,
                oid,
                dk.clone(),
                ak.clone(),
                kind,
                data,
            )
        };
        let read = |c: &mut DpuClient, fabric: &mut Fabric, cluster: &mut EngineCluster, t| {
            let (dk, ak) = (dk.clone(), ak.clone());
            c.fetch(
                fabric,
                cluster,
                t,
                0,
                oid,
                dk,
                ak,
                kind,
                Epoch::LATEST,
                4 << 10,
            )
            .unwrap()
        };
        // A write with nothing resident allocates nothing.
        let t = write(&mut c, &mut fabric, &mut cluster, SimTime::ZERO, 1).unwrap();
        assert_eq!(c.cache_usage().0, 0, "no write-allocate");
        let (first, t) = read(&mut c, &mut fabric, &mut cluster, t);
        assert_eq!(first[0], 1);
        // Overwrite: the resident chunk takes the new payload, so the cache
        // never shadows a local write — and the re-read is a hit.
        let t = write(&mut c, &mut fabric, &mut cluster, t, 2).unwrap();
        let (second, t) = read(&mut c, &mut fabric, &mut cluster, t);
        assert_eq!(second[0], 2, "cache must never shadow a local write");
        let s = c.cache_stats();
        assert_eq!(
            (s.fills, s.hits, s.write_updates, s.invalidations),
            (1, 1, 1, 0)
        );
        // A failed update installs nothing and leaves no entry in its
        // range: this one is refused as larger than the staging buffer.
        let big = Bytes::from(vec![3u8; 8 << 20]);
        let (d, a) = (dk.clone(), ak.clone());
        assert!(c
            .update(&mut fabric, &mut cluster, t, 0, oid, d, a, kind, big)
            .is_err());
        assert_eq!(c.cache_usage().0, 0, "the failed write's range is punched");
        let (third, _) = read(&mut c, &mut fabric, &mut cluster, t);
        assert_eq!(third[0], 2, "the authority still holds the last good write");
        assert_eq!(c.cache_stats().fills, 2);
    }

    #[test]
    fn cache_enable_disable_balances_the_dram_carve() {
        let (mut fabric, _) = world(Transport::Rdma);
        let mut c = connect(&mut fabric, vec![DpuTenantSpec::unlimited("llm")], 2).unwrap();
        let staging = c.agent().dram_used();
        c.enable_read_cache(1 << 30).unwrap();
        assert_eq!(c.agent().dram_used(), staging + (1 << 30));
        assert!(c.read_cache_enabled());
        // Resizing releases the old carve before taking the new one.
        c.enable_read_cache(2 << 30).unwrap();
        assert_eq!(c.agent().dram_used(), staging + (2 << 30));
        c.disable_read_cache();
        assert!(!c.read_cache_enabled());
        assert_eq!(c.agent().dram_used(), staging, "carve fully returned");
        assert_eq!(c.agent().over_releases.get(), 0);
        // A carve bigger than the pool is refused and leaves no residue.
        assert!(c.enable_read_cache(64 << 30).is_err());
        assert_eq!(c.agent().dram_used(), staging);
    }

    #[test]
    fn connect_rejects_empty_shapes() {
        let (mut fabric, _) = world(Transport::Rdma);
        assert_eq!(
            connect(&mut fabric, vec![DpuTenantSpec::unlimited("t")], 0)
                .err()
                .unwrap(),
            DpuError::NoJobs
        );
        assert_eq!(
            connect(&mut fabric, vec![], 4).err().unwrap(),
            DpuError::NoJobs
        );
        // More tenants than jobs would leave a lane that can never carry
        // I/O — rejected rather than silently provisioned.
        assert_eq!(
            connect(
                &mut fabric,
                vec![DpuTenantSpec::unlimited("a"), DpuTenantSpec::unlimited("b")],
                1,
            )
            .err()
            .unwrap(),
            DpuError::NoJobs
        );
    }
}
