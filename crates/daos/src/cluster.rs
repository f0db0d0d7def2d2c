//! The replicated multi-engine cluster: versioned pool map, object
//! placement, degraded routing, and online rebuild.
//!
//! The paper's deployment (§3.1) is a *cluster* of DAOS engines behind one
//! switch. This module is the piece that turns the one-client/one-engine
//! reproduction into that shape:
//!
//! * [`PoolMap`] — the one routing state: engine membership + health, the
//!   pool's replication factor and the kill awaiting rebuild, stamped with
//!   a monotonically increasing **map revision**. Every health transition
//!   (engine kill, engine add, rebuild completion) bumps the revision; the
//!   control plane carries the bump as a RAS-style event
//!   (`ros2_ctl::ControlRequest::RasEvent`). The cluster holds the live
//!   map, every client a copy of it, every engine the copy it was last
//!   pushed.
//! * **Placement** — [`PoolMap::replica_set`] ranks engines per object by
//!   highest-random-weight (rendezvous) hashing and takes the top
//!   `replication factor` healthy members, leader first. HRW gives the two
//!   invariants the property suite pins: placement is a pure function of
//!   `(map, oid, rf)`, and a membership change moves **only** the objects
//!   whose replica set actually changed (survivors never reshuffle among
//!   themselves).
//! * **Routing** — [`PoolMap::route`] is the one rule, answered as one
//!   [`Routing`] value (set, degraded flag, stamp) from whichever copy of
//!   the map asks: updates fan out to every member of the set, fetches go
//!   to the leader, and while an engine is down an affected object routes
//!   to its surviving replicas (**degraded read**, counted in
//!   [`RebuildStats::degraded_fetches`]). With one engine and RF = 1 every
//!   route degenerates to slot 0 and the data path is bit-identical to the
//!   pre-cluster pinned behaviour.
//! * [`EngineCluster`] — owns the engines and the live map.
//! * **Online rebuild** — after a kill, surviving replicas export the dead
//!   engine's records and stream them over the fabric (at data-plane
//!   rates, booked on the storage nodes' ports) to the deterministic HRW
//!   backfill engine — the "designated spare" — restoring RF.
//!
//! Epochs stay cluster-consistent without a consensus round: the first
//! healthy engine allocates ([`DaosEngine::next_epoch`]) and every other
//! healthy engine observes ([`DaosEngine::observe_epoch`]), so a failover
//! leader continues the same monotonic sequence.
//!
//! **Background services** (PR 8) ride behind a [`ServiceScheduler`]: three
//! per-service [`QosLane`]s — the same bucket-pair admission mechanism the
//! DPU tenant manager shapes foreground tenants with — pace rebuild
//! streaming, coordinated epoch aggregation, and replica scrub so recovery
//! traffic cannot starve foreground I/O. Lanes default to unlimited, whose
//! grants land exactly at `now`, so unbudgeted behaviour stays
//! bit-identical to the unpaced code; a [`Timed::reset_timing`] rebuilds
//! them full at t=0. See `DESIGN.md` §13 for the safe
//! aggregation-boundary rule and the scrub/repair epoch discipline.

use std::collections::HashMap;

use bytes::Bytes;
use ros2_ctl::ControlRequest;
use ros2_fabric::{ConnId, Dir, Fabric};
use ros2_sim::{QosLane, QosLimits, ResourceStats, SimDuration, SimTime, Timed, Visit};
use ros2_verbs::{NodeId, PdId};

use crate::conn_pool::{ConnPool, ConnPoolStats};
use crate::engine::DaosEngine;
use crate::types::{DKey, DaosError, Epoch, ObjectId, RecordKey, RecordVersion};
use crate::vos::{RecordDump, ScrubCheck, VosStats};

/// Largest supported replication factor (fits the inline
/// [`ReplicaSet`]; the paper's deployments use 2–3).
pub const MAX_RF: usize = 4;

/// Health of one pool-map member.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EngineHealth {
    /// Serving I/O.
    Up,
    /// Killed / unreachable; excluded from placement.
    Down,
}

/// One engine's entry in the pool map.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PoolMember {
    /// The fabric node this engine serves on.
    pub node: NodeId,
    /// Current health.
    pub health: EngineHealth,
}

/// The versioned pool map: membership, the replication factor and the
/// unrebuilt kill — everything a route is resolved from. Pure placement
/// state — the live engines themselves live in [`EngineCluster`] — so the
/// property suite can drive maps through arbitrary transitions without
/// building storage.
///
/// Every client stack caches a copy and resolves routes from it — *not*
/// from the live map — so a membership change genuinely races in-flight
/// I/O. The copy is refreshed only by an explicit `MapQuery` control
/// round-trip or an asynchronously *delivered* RAS push (delivery delay is
/// a fault-injectable parameter, not zero); engines fence requests stamped
/// with an older revision ([`DaosError::StaleMap`]) so a stale client can
/// never act on a misroute silently.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolMap {
    version: u64,
    members: Vec<PoolMember>,
    rf: usize,
    /// A kill whose re-replication has not run yet: affected objects route
    /// to the pre-kill survivors until [`EngineCluster::rebuild`]
    /// completes.
    pending_dead: Option<usize>,
}

/// One routing answer: where an object's op goes under one pool map, and
/// under which revision. Also what a descriptor template spells out
/// ([`crate::descriptor`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Routing {
    /// The object's replica set, leader first.
    pub set: ReplicaSet,
    /// Whether the set has lost a member to an unrebuilt kill.
    pub degraded: bool,
    /// The pool-map revision the set was resolved under.
    pub stamp: u64,
}

/// An ordered replica set (leader first), held inline so routing never
/// allocates on the data path.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ReplicaSet {
    len: u8,
    slots: [u16; MAX_RF],
}

impl ReplicaSet {
    const EMPTY: ReplicaSet = ReplicaSet {
        len: 0,
        slots: [0; MAX_RF],
    };

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the set is empty (no healthy replica exists).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The leader slot, if any replica exists.
    pub fn leader(&self) -> Option<usize> {
        (self.len > 0).then_some(self.slots[0] as usize)
    }

    /// Iterates member slots, leader first.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots[..self.len as usize].iter().map(|&s| s as usize)
    }

    /// Whether `slot` is a member.
    pub fn contains(&self, slot: usize) -> bool {
        self.iter().any(|s| s == slot)
    }

    fn push(&mut self, slot: usize) {
        self.slots[self.len as usize] = slot as u16;
        self.len += 1;
    }

    /// The set holding `slots` in order (at most [`MAX_RF`]): how a
    /// descriptor template's route comes back out of its bytes.
    pub(crate) fn from_slots(slots: &[u16]) -> ReplicaSet {
        let mut out = ReplicaSet::EMPTY;
        for &s in slots.iter().take(MAX_RF) {
            out.push(s as usize);
        }
        out
    }

    /// This set with `slot` removed (order preserved).
    pub fn without(&self, slot: usize) -> ReplicaSet {
        let mut out = ReplicaSet::EMPTY;
        for s in self.iter().filter(|&s| s != slot) {
            out.push(s);
        }
        out
    }
}

/// The per-engine rendezvous weight of an object: an FNV-1a-style fold
/// over the object id and the member slot. Note the multiplier is the
/// workspace's historical `placement_hash` constant (`0x1000_0000_01b3`),
/// *not* the canonical FNV-64 prime (`0x100_0000_01b3`) — kept identical
/// to [`crate::types::placement_hash`] on purpose, since both constants
/// are load-bearing for pinned placement results. The real system
/// jump-hashes over the pool map.
fn hrw_score(oid: &ObjectId, slot: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for b in oid.hi.to_le_bytes() {
        eat(b);
    }
    for b in oid.lo.to_le_bytes() {
        eat(b);
    }
    for b in slot.to_le_bytes() {
        eat(b);
    }
    h
}

impl PoolMap {
    /// A fresh map (revision 1) with every engine healthy, replicating
    /// each object across `rf` members.
    pub fn new(nodes: Vec<NodeId>, rf: usize) -> Self {
        PoolMap {
            version: 1,
            members: nodes
                .into_iter()
                .map(|node| PoolMember {
                    node,
                    health: EngineHealth::Up,
                })
                .collect(),
            rf,
            pending_dead: None,
        }
    }

    /// The map revision (bumped on every membership/health change).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The members, by slot.
    pub fn members(&self) -> &[PoolMember] {
        &self.members
    }

    /// The pool's replication factor.
    pub fn replication_factor(&self) -> usize {
        self.rf
    }

    /// Encodes this map as the control-plane RAS push message: one health
    /// byte per slot (1 = up), the map revision, and the pending unrebuilt
    /// kill (`u32::MAX` = none). The control plane encodes this **once**
    /// per membership change and fans the same frame out to every
    /// subscribed client — the push analogue of a per-client `MapQuery`.
    pub fn to_push(&self) -> ControlRequest {
        ControlRequest::MapPush {
            version: self.version,
            healths: Bytes::from(
                self.members
                    .iter()
                    .map(|m| u8::from(m.health == EngineHealth::Up))
                    .collect::<Vec<u8>>(),
            ),
            pending_dead: self.pending_dead.map_or(u32::MAX, |s| s as u32),
        }
    }

    /// Reconstructs a map from the [`ControlRequest::MapPush`] wire fields
    /// — the inverse of [`Self::to_push`]. The receiver supplies the
    /// slot-aligned node ids and the pool RF (both fixed at pool-connect
    /// time and never pushed).
    pub fn from_wire(
        nodes: &[NodeId],
        rf: usize,
        version: u64,
        healths: &[u8],
        pending_dead: u32,
    ) -> Self {
        assert_eq!(nodes.len(), healths.len(), "one health byte per slot");
        PoolMap {
            version,
            members: nodes
                .iter()
                .zip(healths)
                .map(|(&node, &h)| PoolMember {
                    node,
                    health: if h == 1 {
                        EngineHealth::Up
                    } else {
                        EngineHealth::Down
                    },
                })
                .collect(),
            rf,
            pending_dead: (pending_dead != u32::MAX).then_some(pending_dead as usize),
        }
    }

    /// Total member count (including down engines).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the map has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Healthy member count.
    pub fn up_count(&self) -> usize {
        self.members
            .iter()
            .filter(|m| m.health == EngineHealth::Up)
            .count()
    }

    /// Adds a healthy engine; returns its slot. Bumps the revision.
    pub fn add_engine(&mut self, node: NodeId) -> usize {
        self.members.push(PoolMember {
            node,
            health: EngineHealth::Up,
        });
        self.version += 1;
        self.members.len() - 1
    }

    /// Ends the pending kill's degraded window and bumps the revision
    /// without a membership change — the rebuild-complete transition.
    /// Routing changes at that instant (the pre-kill-survivor override ends
    /// and the HRW backfill member joins the set), so clients holding the
    /// pre-rebuild revision must be fenced into a refresh like any other
    /// map race.
    fn note_rebuilt(&mut self) {
        self.pending_dead = None;
        self.version += 1;
    }

    /// Marks `slot` down. Returns the new revision; `Err` if the slot is
    /// unknown or already down.
    pub fn kill(&mut self, slot: usize) -> Result<u64, DaosError> {
        let m = self.members.get_mut(slot).ok_or(DaosError::NoSuchEntity)?;
        if m.health == EngineHealth::Down {
            return Err(DaosError::NoSuchEntity);
        }
        m.health = EngineHealth::Down;
        self.version += 1;
        Ok(self.version)
    }

    /// The one routing rule, answered by whichever copy of the map asks:
    /// while a kill awaits rebuild, affected objects route to the pre-kill
    /// *survivors* (the members guaranteed to hold the data) and the route
    /// is degraded; otherwise placement is the plain HRW replica set. The
    /// HRW backfill member joins an affected set only once
    /// [`EngineCluster::rebuild`] has re-replicated onto it. Stamped with
    /// this map's revision.
    pub fn route(&self, oid: &ObjectId) -> Routing {
        let survivors = self.pending_dead.and_then(|dead| {
            let pre = self.replica_set_with(oid, self.rf, Some(dead));
            pre.contains(dead).then(|| pre.without(dead))
        });
        Routing {
            set: survivors.unwrap_or_else(|| self.replica_set(oid, self.rf)),
            degraded: survivors.is_some(),
            stamp: self.version,
        }
    }

    /// The object's replica set under this map: the `rf` highest-weight
    /// healthy members, leader first. Deterministic in `(map, oid, rf)`;
    /// returns fewer than `rf` slots only when fewer engines are healthy.
    pub fn replica_set(&self, oid: &ObjectId, rf: usize) -> ReplicaSet {
        self.replica_set_with(oid, rf, None)
    }

    /// [`Self::replica_set`] with `treat_up` counted as healthy regardless
    /// of its recorded health — the pre-failure set, used to find the
    /// surviving copies of an object while its rebuild is pending.
    fn replica_set_with(&self, oid: &ObjectId, rf: usize, treat_up: Option<usize>) -> ReplicaSet {
        let rf = rf.min(MAX_RF);
        // Insertion sort into a fixed top-rf array: highest score first,
        // ties broken toward the lower slot.
        let mut top: [(u64, usize); MAX_RF] = [(0, usize::MAX); MAX_RF];
        let mut filled = 0usize;
        for (slot, m) in self.members.iter().enumerate() {
            let up = m.health == EngineHealth::Up || treat_up == Some(slot);
            if !up {
                continue;
            }
            let score = hrw_score(oid, slot as u64);
            let mut i = filled.min(rf);
            while i > 0 && (top[i - 1].0 < score || (top[i - 1].0 == score && top[i - 1].1 > slot))
            {
                if i < rf {
                    top[i] = top[i - 1];
                }
                i -= 1;
            }
            if i < rf {
                top[i] = (score, slot);
                if filled < rf {
                    filled += 1;
                }
            }
        }
        let mut out = ReplicaSet::EMPTY;
        for &(_, slot) in top.iter().take(filled) {
            out.push(slot);
        }
        out
    }
}

/// Counters for the redundancy machinery, reported alongside the
/// `ResourceStats` / `DataPlaneStats` / `DpuStats` families.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RebuildStats {
    /// Rebuild passes completed.
    pub rebuilds: u64,
    /// Objects whose replica set lost a member and was restored.
    pub objects_moved: u64,
    /// Records re-replicated to backfill engines.
    pub records_moved: u64,
    /// Payload bytes streamed between storage nodes.
    pub bytes_moved: u64,
    /// Fetches of objects whose replica set was short a member (an
    /// unrebuilt kill) — degraded-mode reads. Counted whenever the object
    /// had lost redundancy at fetch time, whether or not the dead member
    /// was its leader.
    pub degraded_fetches: u64,
}

impl RebuildStats {
    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: RebuildStats) {
        self.rebuilds += other.rebuilds;
        self.objects_moved += other.objects_moved;
        self.records_moved += other.records_moved;
        self.bytes_moved += other.bytes_moved;
        self.degraded_fetches += other.degraded_fetches;
    }
}

/// The three background services the cluster paces independently.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BgService {
    /// Post-kill re-replication streaming.
    Rebuild,
    /// Coordinated epoch-boundary aggregation.
    Aggregation,
    /// Replica scrub (CRC cross-check + bit-rot repair).
    Scrub,
}

/// Per-service paced admission: one [`QosLane`] per background service,
/// sharing the token-bucket mechanism with the DPU tenant manager. All
/// lanes start unlimited — an unlimited lane's grants land exactly at
/// `now`, pinning unbudgeted services bit-identical to the unpaced code.
#[derive(Debug)]
pub struct ServiceScheduler {
    rebuild: QosLane,
    aggregation: QosLane,
    scrub: QosLane,
}

impl ServiceScheduler {
    fn new() -> Self {
        ServiceScheduler {
            rebuild: QosLane::new(QosLimits::unlimited()),
            aggregation: QosLane::new(QosLimits::unlimited()),
            scrub: QosLane::new(QosLimits::unlimited()),
        }
    }

    fn lane_mut(&mut self, service: BgService) -> &mut QosLane {
        match service {
            BgService::Rebuild => &mut self.rebuild,
            BgService::Aggregation => &mut self.aggregation,
            BgService::Scrub => &mut self.scrub,
        }
    }

    /// Replaces a service's budget with fresh buckets (full at t=0).
    fn set_budget(&mut self, service: BgService, limits: QosLimits) {
        *self.lane_mut(service) = QosLane::new(limits);
    }
}

/// Counters for the scrub/aggregation services, reported alongside
/// [`RebuildStats`]. Throttle waits are read out of the service lanes when
/// the stats are sampled.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubStats {
    /// Cluster scrub passes completed.
    pub scrub_passes: u64,
    /// Coordinated aggregation passes completed.
    pub aggregation_passes: u64,
    /// Objects cross-checked across their replica sets.
    pub objects_checked: u64,
    /// Per-replica object checks performed.
    pub replicas_checked: u64,
    /// Checksum chunks compared (cache compares on the clean path).
    pub chunks_compared: u64,
    /// Stored bytes verified against cached chunk CRCs.
    pub verified_bytes: u64,
    /// Payload bytes actually rescanned (CRC-cache misses; ~0 when clean
    /// caches are warm).
    pub scanned_bytes: u64,
    /// Replica-object mismatches detected (bit-rot or divergent record
    /// sets).
    pub mismatches_found: u64,
    /// Mismatches repaired from a healthy replica.
    pub mismatches_repaired: u64,
    /// Records streamed by scrub repair.
    pub repair_records: u64,
    /// Payload bytes streamed by scrub repair.
    pub repair_bytes: u64,
    /// Cumulative delay the rebuild lane imposed.
    pub rebuild_throttle_wait: SimDuration,
    /// Cumulative delay the aggregation lane imposed.
    pub aggregation_throttle_wait: SimDuration,
    /// Cumulative delay the scrub lane imposed.
    pub scrub_throttle_wait: SimDuration,
}

impl ScrubStats {
    /// Folds another counter set into this one (exhaustive by
    /// destructuring, so a new field cannot be silently dropped).
    pub fn merge(&mut self, other: ScrubStats) {
        let ScrubStats {
            scrub_passes,
            aggregation_passes,
            objects_checked,
            replicas_checked,
            chunks_compared,
            verified_bytes,
            scanned_bytes,
            mismatches_found,
            mismatches_repaired,
            repair_records,
            repair_bytes,
            rebuild_throttle_wait,
            aggregation_throttle_wait,
            scrub_throttle_wait,
        } = other;
        self.scrub_passes += scrub_passes;
        self.aggregation_passes += aggregation_passes;
        self.objects_checked += objects_checked;
        self.replicas_checked += replicas_checked;
        self.chunks_compared += chunks_compared;
        self.verified_bytes += verified_bytes;
        self.scanned_bytes += scanned_bytes;
        self.mismatches_found += mismatches_found;
        self.mismatches_repaired += mismatches_repaired;
        self.repair_records += repair_records;
        self.repair_bytes += repair_bytes;
        self.rebuild_throttle_wait += rebuild_throttle_wait;
        self.aggregation_throttle_wait += aggregation_throttle_wait;
        self.scrub_throttle_wait += scrub_throttle_wait;
    }
}

/// Result of one cluster scrub pass.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubOutcome {
    /// Objects whose replica sets were cross-checked.
    pub objects_checked: u64,
    /// Replica-object mismatches detected this pass.
    pub mismatches_found: u64,
    /// Mismatches repaired from a healthy replica this pass.
    pub mismatches_repaired: u64,
}

/// The N engines of a deployment behind one routing layer. See the module
/// docs for the placement/degraded/rebuild semantics.
pub struct EngineCluster {
    engines: Vec<DaosEngine>,
    /// The live map, the one every client copy and engine push is taken
    /// from.
    map: PoolMap,
    stats: RebuildStats,
    /// Lazily-opened storage-node-to-storage-node rebuild connections.
    rebuild_conns: HashMap<(usize, usize), ConnId>,
    rebuild_pds: HashMap<u32, PdId>,
    /// Fault injection: a black-holed slot is alive in the map but its
    /// connection silently eats traffic — clients only discover it by
    /// deadline expiry, never by an error reply.
    blackholed: Vec<bool>,
    /// Fault injection: per-slot added service latency (a slow engine).
    /// Unlike a blackhole the op still completes — just late.
    stalls: Vec<SimDuration>,
    /// Paced lanes for the background services (rebuild, aggregation,
    /// scrub).
    services: ServiceScheduler,
    /// Scrub/aggregation counters (throttle waits sampled from the lanes).
    sstats: ScrubStats,
    /// Engine-side per-client connection pool for multi-client (incast)
    /// worlds. `None` — the default — bypasses admission entirely, keeping
    /// every single-client world bit-identical to the pre-pool code.
    conn_pool: Option<ConnPool>,
}

impl EngineCluster {
    /// Assembles a cluster of `engines` (parallel to `nodes`) replicating
    /// each object across `replication_factor` members.
    pub fn new(engines: Vec<DaosEngine>, nodes: Vec<NodeId>, replication_factor: usize) -> Self {
        assert_eq!(engines.len(), nodes.len(), "one node per engine");
        assert!(!engines.is_empty(), "a cluster needs at least one engine");
        assert!(
            (1..=MAX_RF).contains(&replication_factor),
            "replication factor must be in 1..={MAX_RF}"
        );
        let n = engines.len();
        let mut cluster = EngineCluster {
            engines,
            map: PoolMap::new(nodes, replication_factor),
            stats: RebuildStats::default(),
            rebuild_conns: HashMap::new(),
            rebuild_pds: HashMap::new(),
            blackholed: vec![false; n],
            stalls: vec![SimDuration::ZERO; n],
            services: ServiceScheduler::new(),
            sstats: ScrubStats::default(),
            conn_pool: None,
        };
        cluster.push_map_to_engines();
        cluster
    }

    /// Hands every engine the authoritative map (plus its own slot) so it
    /// can fence stale-stamped and misrouted requests. Engines learn map
    /// revisions only through this push — exactly at membership-change
    /// instants, never lazily.
    fn push_map_to_engines(&mut self) {
        for (slot, e) in self.engines.iter_mut().enumerate() {
            e.observe_map(&self.map, slot);
        }
    }

    /// The degenerate single-engine cluster (RF = 1, storage on
    /// `NodeId(1)`) — the shape every pre-cluster world assembles. Routing
    /// through it is bit-identical to driving the engine directly.
    pub fn single(engine: DaosEngine) -> Self {
        EngineCluster::new(vec![engine], vec![NodeId(1)], 1)
    }

    /// Builds the canonical N-engine pool: one engine per storage node,
    /// each over `ssds` drives with `scm_bytes_per_target` of SCM,
    /// labelled `pool0-eng{slot}`. The single source of engine assembly —
    /// `Ros2System::launch` and the DFS FIO worlds all build through
    /// here, so the bench worlds cannot drift from the assembled system.
    pub fn assemble(
        nodes: Vec<NodeId>,
        replication_factor: usize,
        ssds: usize,
        mode: ros2_nvme::DataMode,
        scm_bytes_per_target: u64,
        model: crate::types::DaosCostModel,
        class: ros2_hw::CoreClass,
    ) -> Self {
        let engines: Vec<DaosEngine> = (0..nodes.len())
            .map(|i| {
                let bdevs = ros2_spdk::BdevLayer::new(ros2_nvme::NvmeArray::new(
                    ros2_hw::NvmeModel::enterprise_1600(),
                    ssds,
                    mode,
                ));
                DaosEngine::new(
                    format!("pool0-eng{i}"),
                    bdevs,
                    scm_bytes_per_target,
                    model,
                    class,
                )
            })
            .collect();
        EngineCluster::new(engines, nodes, replication_factor)
    }

    /// Number of engines (including down ones).
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// Whether the cluster has no engines (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// The live pool map. Routing asks it ([`PoolMap::route`]); a clone is
    /// the payload of a `MapQuery` reply and of a RAS delivery — once handed
    /// out it never changes, so a client holding it genuinely races later
    /// membership changes.
    pub fn map(&self) -> &PoolMap {
        &self.map
    }

    /// Redundancy counters (degraded reads served, rebuild movement).
    pub fn rebuild_stats(&self) -> RebuildStats {
        self.stats
    }

    /// Scrub/aggregation counters, with per-service throttle waits
    /// sampled from the lanes at call time.
    pub fn scrub_stats(&self) -> ScrubStats {
        let mut out = self.sstats;
        out.rebuild_throttle_wait = self.services.rebuild.throttle_wait;
        out.aggregation_throttle_wait = self.services.aggregation.throttle_wait;
        out.scrub_throttle_wait = self.services.scrub.throttle_wait;
        out
    }

    /// Sets a background service's pacing budget (fresh buckets, full at
    /// t=0). Services default to unlimited — bit-identical to unpaced.
    pub fn set_service_budget(&mut self, service: BgService, limits: QosLimits) {
        self.services.set_budget(service, limits);
    }

    /// Immutable engine access by slot.
    pub fn engine(&self, slot: usize) -> &DaosEngine {
        &self.engines[slot]
    }

    /// Mutable engine access by slot.
    pub fn engine_mut(&mut self, slot: usize) -> &mut DaosEngine {
        &mut self.engines[slot]
    }

    /// Iterates all engines.
    pub fn engines(&self) -> impl Iterator<Item = &DaosEngine> {
        self.engines.iter()
    }

    /// Whether the engine in `slot` is currently healthy. The op pipeline
    /// checks this at leg-execution time: a leg staged before a kill and
    /// executed after it must re-arm (fetch) or drop (update replica)
    /// rather than talk to a dead engine.
    pub fn is_up(&self, slot: usize) -> bool {
        self.map.members()[slot].health == EngineHealth::Up
    }

    fn first_up(&self) -> Option<usize> {
        (0..self.engines.len()).find(|&s| self.is_up(s))
    }

    /// Creates a container on every engine.
    pub fn cont_create(&mut self, label: impl Into<String>) -> Result<(), DaosError> {
        let label = label.into();
        for e in &mut self.engines {
            e.cont_create(label.clone())?;
        }
        Ok(())
    }

    /// Whether a container exists on the routing leader.
    pub fn cont_exists(&self, label: &str) -> bool {
        self.first_up()
            .map(|s| self.engines[s].cont_exists(label))
            .unwrap_or(false)
    }

    /// Allocates the next cluster-wide commit epoch for `cont`: the first
    /// healthy engine allocates, every other healthy engine observes — so
    /// all healthy counters agree and a failover leader continues the same
    /// monotonic sequence.
    pub fn next_epoch(&mut self, cont: &str) -> Result<Epoch, DaosError> {
        let first = self.first_up().ok_or(DaosError::NoSuchEntity)?;
        let epoch = self.engines[first].next_epoch(cont)?;
        for s in 0..self.engines.len() {
            if s != first && self.is_up(s) {
                self.engines[s].observe_epoch(cont, epoch);
            }
        }
        Ok(epoch)
    }

    /// Records a snapshot on the epoch-allocating engine.
    pub fn snapshot(&mut self, cont: &str) -> Result<Epoch, DaosError> {
        let first = self.first_up().ok_or(DaosError::NoSuchEntity)?;
        self.engines[first].snapshot(cont)
    }

    /// What a one-descriptor version query stamped with map revision
    /// `stamp` would bring back from engine `eng`: the record's arrival
    /// version (see [`RecordVersion`]), or `None` when no usable answer
    /// comes — the engine is down or black-holed, or it fences the stamp
    /// as stale. This is the authority a read cache checks a record's
    /// entries against; it sees every arrival at that engine, whoever
    /// sent it. Read-only: no RPC or fence is counted, nothing is booked.
    pub fn record_version(&self, eng: usize, stamp: u64, key: &RecordKey) -> Option<RecordVersion> {
        let engine = &self.engines[eng];
        (self.is_reachable(eng) && !engine.is_stale(stamp)).then(|| engine.record_version(key))
    }

    /// Turns on the engine-side connection pool: resident per-client
    /// session state is bounded at `capacity` with LRU eviction and
    /// `handshake` charged per (re)connect. Worlds that never call this
    /// (every single-client world) stay bit-identical to the pre-pool
    /// cluster.
    pub fn enable_conn_pool(&mut self, capacity: usize, handshake: SimDuration) {
        self.conn_pool = Some(ConnPool::new(capacity, handshake));
    }

    /// Admits one request from `client` through the connection pool:
    /// returns the instant the request may proceed (`now` on a hit or when
    /// no pool is configured, `now + handshake` when the client had to
    /// (re)connect).
    pub fn pool_admit(&mut self, client: NodeId, now: SimTime) -> SimTime {
        match &mut self.conn_pool {
            Some(pool) => pool.admit(client, now),
            None => now,
        }
    }

    /// The connection pool, if enabled.
    pub fn conn_pool(&self) -> Option<&ConnPool> {
        self.conn_pool.as_ref()
    }

    /// Connection-pool counters (all-zero when no pool is configured).
    pub fn conn_pool_stats(&self) -> ConnPoolStats {
        self.conn_pool
            .as_ref()
            .map(ConnPool::stats)
            .unwrap_or_default()
    }

    /// Drops `client`'s resident session (fault injection). Returns
    /// whether a session was actually dropped.
    pub fn pool_kill_session(&mut self, client: NodeId) -> bool {
        self.conn_pool
            .as_mut()
            .is_some_and(|p| p.kill_session(client))
    }

    /// Counts one degraded-mode read: a fetch of an object that has lost a
    /// replica to an unrebuilt kill (redundancy is short, whichever member
    /// died; if it was the leader, the read also fails over). Every fetch
    /// route counts here, be it from the live map, a client's cached copy
    /// or a descriptor template.
    pub(crate) fn note_degraded_fetch(&mut self) {
        self.stats.degraded_fetches += 1;
    }

    /// Marks `slot` down and bumps the map revision (the RAS event the
    /// control plane broadcasts). Affected objects immediately route
    /// around the dead engine; redundancy is restored by
    /// [`Self::rebuild`]. Only one unrebuilt failure is supported at a
    /// time — a second kill before rebuild is rejected.
    pub fn kill_engine(&mut self, slot: usize) -> Result<u64, DaosError> {
        if self.map.pending_dead.is_some() {
            return Err(DaosError::RebuildPending);
        }
        let version = self.map.kill(slot)?;
        self.map.pending_dead = Some(slot);
        self.push_map_to_engines();
        Ok(version)
    }

    /// Fault injection: black-holes (or restores) the connection to
    /// `slot`. The engine stays Up in the map — requests to it just
    /// vanish, which clients can only detect by deadline expiry.
    pub fn set_blackhole(&mut self, slot: usize, on: bool) {
        self.blackholed[slot] = on;
    }

    /// Whether the connection to `slot` is black-holed.
    pub fn blackholed(&self, slot: usize) -> bool {
        self.blackholed[slot]
    }

    /// Whether a request sent to `slot` would get any reply at all:
    /// the engine is up *and* its connection is not black-holed.
    pub fn is_reachable(&self, slot: usize) -> bool {
        self.is_up(slot) && !self.blackholed[slot]
    }

    /// Fault injection: adds `extra` service latency to every op `slot`
    /// completes (a slow engine — completes late rather than never).
    pub fn set_stall(&mut self, slot: usize, extra: SimDuration) {
        self.stalls[slot] = extra;
    }

    /// The injected slow-engine stall for `slot` (zero when healthy).
    pub fn stall(&self, slot: usize) -> SimDuration {
        self.stalls[slot]
    }

    /// Total stale-map fences across engines (requests rejected with
    /// [`DaosError::StaleMap`] rather than served).
    pub fn fences(&self) -> u64 {
        self.engines.iter().map(|e| e.fences()).sum()
    }

    fn rebuild_conn(
        &mut self,
        fabric: &mut Fabric,
        src: usize,
        dst: usize,
    ) -> Result<ConnId, DaosError> {
        if let Some(&c) = self.rebuild_conns.get(&(src, dst)) {
            return Ok(c);
        }
        let (a, b) = (self.map.members()[src].node, self.map.members()[dst].node);
        let pa = *self
            .rebuild_pds
            .entry(a.0)
            .or_insert_with(|| fabric.rdma_mut(a).alloc_pd("rebuild"));
        let pb = *self
            .rebuild_pds
            .entry(b.0)
            .or_insert_with(|| fabric.rdma_mut(b).alloc_pd("rebuild"));
        let conn = fabric.connect(a, b, pa, pb)?;
        self.rebuild_conns.insert((src, dst), conn);
        Ok(conn)
    }

    /// Online rebuild of the pending kill: for every object that lost a
    /// replica, the first surviving replica exports the records **once**,
    /// streams the payload bytes over the fabric to the deterministic HRW
    /// backfill engine (wire time booked on both storage nodes' ports —
    /// data-plane rates), and the backfill imports them through the normal
    /// VOS update path (fresh media placement, fresh checksums). Each
    /// record's send is admitted through the rebuild [`QosLane`], so a
    /// GiB/s budget throttles recovery below foreground rates; the default
    /// unlimited lane grants at `now` and changes nothing. Returns the
    /// instant the last import persisted. A no-op when nothing is pending.
    pub fn rebuild(&mut self, fabric: &mut Fabric, now: SimTime) -> Result<SimTime, DaosError> {
        // `pending_dead` is cleared only after the whole pass succeeds: a
        // mid-rebuild error leaves degraded routing in place and the next
        // rebuild() retries (re-imported records are byte-identical at the
        // same epochs, so a partial first pass is harmless).
        let Some(dead) = self.map.pending_dead else {
            return Ok(now);
        };
        self.stats.rebuilds += 1;
        let mut t_done = now;
        for oid in self.up_objects() {
            let pre = self.map.replica_set_with(&oid, self.map.rf, Some(dead));
            if !pre.contains(dead) {
                continue;
            }
            let post = self.map.replica_set(&oid, self.map.rf);
            let Some(src) = pre.iter().find(|&s| s != dead) else {
                // RF = 1 and the only copy died: nothing to restore from.
                continue;
            };
            let dsts: Vec<usize> = post.iter().filter(|&s| !pre.contains(s)).collect();
            if dsts.is_empty() {
                continue;
            }
            // One export per oid regardless of backfill fan-out — the seed
            // re-read (and re-charged media time for) the source object
            // once per destination.
            let export = self.engines[src].export_object(now, oid)?;
            for dst in dsts {
                let (t_imported, bytes) =
                    self.stream_records(fabric, BgService::Rebuild, (src, dst), oid, &export)?;
                t_done = t_done.max(t_imported);
                self.stats.records_moved += export.0.len() as u64;
                self.stats.bytes_moved += bytes;
            }
            self.stats.objects_moved += 1;
        }
        // Rebuild completion changes routing (the pre-kill-survivor
        // override ends; the HRW backfill member joins the set) without a
        // membership edit, so it gets its own revision bump and push —
        // clients still holding the degraded-window map must be fenced
        // into a refresh.
        self.map.note_rebuilt();
        self.push_map_to_engines();
        Ok(t_done)
    }

    /// The objects any up engine holds records for, sorted and
    /// deduplicated: what rebuild and scrub walk.
    fn up_objects(&self) -> Vec<ObjectId> {
        let mut oids: Vec<ObjectId> = (0..self.engines.len())
            .filter(|&s| self.is_up(s))
            .flat_map(|s| self.engines[s].list_objects())
            .collect();
        oids.sort();
        oids.dedup();
        oids
    }

    /// The record stream rebuild and scrub repair share: one object's
    /// export from engine `src`, each record admitted on `service`'s lane
    /// and sent over the rebuild connection to `dst`, then imported through
    /// `dst`'s update path at the original epochs. Returns the instant the
    /// last import persisted and the payload bytes streamed.
    fn stream_records(
        &mut self,
        fabric: &mut Fabric,
        service: BgService,
        (src, dst): (usize, usize),
        oid: ObjectId,
        (records, t_read): &(Vec<RecordDump>, SimTime),
    ) -> Result<(SimTime, u64), DaosError> {
        let conn = self.rebuild_conn(fabric, src, dst)?;
        let mut t = *t_read;
        let mut bytes = 0u64;
        let lane = self.services.lane_mut(service);
        for rec in records {
            t = lane.admit(t, rec.data.len() as u64);
            if !rec.data.is_empty() {
                let d = fabric.send(t, conn, Dir::AtoB, rec.data.clone())?;
                t = d.at;
            }
            bytes += rec.data.len() as u64;
        }
        Ok((self.engines[dst].import_records(t, oid, records)?, bytes))
    }

    /// Whether a kill is awaiting rebuild.
    pub fn rebuild_pending(&self) -> bool {
        self.map.pending_dead.is_some()
    }

    /// Coordinated epoch aggregation for `cont`: picks the highest
    /// boundary that is safe on **every** up engine and runs
    /// [`DaosEngine::aggregate`] on all of them at that same boundary, so
    /// replicas reclaim exactly the same shadowed records and their
    /// stores stay byte-comparable — the precondition replica scrub
    /// cross-checks.
    ///
    /// The safe-boundary rule: the minimum over up engines of the
    /// container's epoch counter (nothing above an engine's view is
    /// aggregated before it has observed the epoch), capped by the oldest
    /// retained snapshot (snapshot reads resolve "newest ≤ snapshot",
    /// which aggregation at the snapshot boundary preserves), capped by
    /// `inflight_floor - 1` when the caller has epochs still in flight
    /// (a pipelined ring that has not drained). Engines that have never
    /// seen the container are skipped; if none has, there is nothing to
    /// aggregate.
    ///
    /// Each engine's pass is admitted through the aggregation lane (one
    /// op per engine); returns the boundary used and the grant instant of
    /// the last pass.
    pub fn aggregate_cluster(
        &mut self,
        now: SimTime,
        cont: &str,
        inflight_floor: Option<Epoch>,
    ) -> Result<(Epoch, SimTime), DaosError> {
        let mut boundary = u64::MAX;
        let mut seen = false;
        for s in 0..self.engines.len() {
            if !self.is_up(s) {
                continue;
            }
            if let Some(meta) = self.engines[s].container_meta(cont) {
                seen = true;
                boundary = boundary.min(meta.epoch_counter);
                if let Some(&snap) = meta.snapshots.iter().min() {
                    boundary = boundary.min(snap);
                }
            }
        }
        if !seen {
            return Err(DaosError::NoSuchEntity);
        }
        if let Some(floor) = inflight_floor {
            boundary = boundary.min(floor.0.saturating_sub(1));
        }
        let mut t = now;
        for s in 0..self.engines.len() {
            if !self.is_up(s) {
                continue;
            }
            t = self.services.aggregation.admit(t, 1);
            self.engines[s].aggregate(Epoch(boundary));
        }
        self.sstats.aggregation_passes += 1;
        Ok((Epoch(boundary), t))
    }

    /// One replica-scrub pass: every object's replica set is
    /// self-verified (each replica's recorded checksums compared with its
    /// media stores' cached chunk CRCs — bit-rot rewrites media bytes
    /// behind the index and invalidates those caches, so it cannot hide)
    /// and cross-checked by record-set fingerprint. A replica that fails
    /// either check is repaired from the first self-clean replica in
    /// route order: punch the bad copy, stream the reference's records
    /// over the rebuild fabric path, and re-import them **at their
    /// original epochs** through the normal update path (fresh placement,
    /// fresh checksums) — so the repaired replica resolves the same
    /// version overlay, byte-for-byte. Verification and repair streaming
    /// are admitted through the scrub lane. With no healthy reference
    /// (RF = 1, or every replica rotten) the mismatch is detected but
    /// left unrepaired for the caller's RAS event.
    pub fn scrub(
        &mut self,
        fabric: &mut Fabric,
        now: SimTime,
    ) -> Result<(ScrubOutcome, SimTime), DaosError> {
        let scanned_before = self.data_plane_stats().crc_bytes_scanned;
        let mut outcome = ScrubOutcome::default();
        let mut t_done = now;
        for oid in self.up_objects() {
            let set = self.map.route(&oid).set;
            if set.is_empty() {
                continue;
            }
            outcome.objects_checked += 1;
            self.sstats.objects_checked += 1;
            // Per-replica self-verify, paced by verified volume.
            let mut checks: Vec<(usize, ScrubCheck, u64)> = Vec::new();
            let mut t = now;
            for s in set.iter() {
                let check = self.engines[s].scrub_object(oid);
                t = self.services.scrub.admit(t, check.bytes);
                self.sstats.replicas_checked += 1;
                self.sstats.chunks_compared += check.chunks;
                self.sstats.verified_bytes += check.bytes;
                let fp = self.engines[s].object_fingerprint(oid);
                checks.push((s, check, fp));
            }
            t_done = t_done.max(t);
            // The reference replica: first self-clean copy in route order.
            let reference = checks
                .iter()
                .find(|(_, c, _)| c.bad == 0)
                .map(|&(s, _, fp)| (s, fp));
            for &(slot, check, fp) in &checks {
                let healthy = check.bad == 0 && reference.is_some_and(|(_, rfp)| fp == rfp);
                if healthy {
                    continue;
                }
                outcome.mismatches_found += 1;
                self.sstats.mismatches_found += 1;
                let Some((src, _)) = reference.filter(|&(src, _)| src != slot) else {
                    continue;
                };
                // Repair: punch the rotten copy and re-stream the
                // reference's record history at original epochs.
                let export = self.engines[src].export_object(t_done, oid)?;
                self.engines[slot].punch_object(oid);
                let (t_imported, bytes) =
                    self.stream_records(fabric, BgService::Scrub, (src, slot), oid, &export)?;
                t_done = t_done.max(t_imported);
                self.sstats.repair_records += export.0.len() as u64;
                self.sstats.repair_bytes += bytes;
                outcome.mismatches_repaired += 1;
                self.sstats.mismatches_repaired += 1;
            }
        }
        self.sstats.scrub_passes += 1;
        self.sstats.scanned_bytes += self
            .data_plane_stats()
            .crc_bytes_scanned
            .saturating_sub(scanned_before);
        Ok((outcome, t_done))
    }

    /// Lists an object's dkeys from its routing leader.
    pub fn list_dkeys(&mut self, oid: ObjectId) -> Vec<DKey> {
        match self.map.route(&oid).set.leader() {
            Some(s) => self.engines[s].list_dkeys(oid),
            None => Vec::new(),
        }
    }

    /// Punches the record at `key` on every routed replica; the leader's
    /// result is authoritative.
    pub fn punch(&mut self, key: &RecordKey) -> Result<(), DaosError> {
        let set = self.map.route(&key.oid).set;
        let mut first: Option<Result<(), DaosError>> = None;
        for s in set.iter() {
            let r = self.engines[s].punch(key);
            if first.is_none() {
                first = Some(r);
            }
        }
        first.unwrap_or(Err(DaosError::NoSuchEntity))
    }

    /// Punches an entire object on every routed replica.
    pub fn punch_object(&mut self, oid: ObjectId) {
        let set = self.map.route(&oid).set;
        for s in set.iter() {
            self.engines[s].punch_object(oid);
        }
    }

    /// Total RPCs processed across engines.
    pub fn rpcs(&self) -> u64 {
        self.engines.iter().map(|e| e.rpcs()).sum()
    }

    /// Merged VOS stats across engines.
    pub fn vos_stats(&self) -> VosStats {
        let mut out = VosStats::default();
        for e in &self.engines {
            out.merge(&e.vos_stats());
        }
        out
    }

    /// [`Timed::resource_stats`], callable without the trait in scope.
    // frozen by benchmark/src/sut.rs:248
    pub fn resource_stats(&mut self) -> ResourceStats {
        Timed::resource_stats(self)
    }

    /// [`Timed::data_plane_stats`], callable without the trait in scope.
    // frozen by benchmark/src/sut.rs:249
    pub fn data_plane_stats(&mut self) -> ros2_buf::DataPlaneStats {
        Timed::data_plane_stats(self)
    }
}

impl Timed for EngineCluster {
    /// Every engine, and the background services' lanes (a reset rebuilds
    /// each full at t=0 with its counters zeroed).
    fn visit(&mut self, v: &mut dyn Visit) {
        self.engines.visit(v);
        v.lane(&mut self.services.rebuild);
        v.lane(&mut self.services.aggregation);
        v.lane(&mut self.services.scrub);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ObjClass;

    /// An `n`-engine map; these tests pass placement its RF explicitly.
    fn map(n: usize) -> PoolMap {
        PoolMap::new((0..n).map(|i| NodeId(i as u32 + 1)).collect(), 1)
    }

    #[test]
    fn replica_sets_are_deterministic_and_distinct() {
        let m = map(6);
        for lo in 0..200u64 {
            let oid = ObjectId::new(ObjClass::Sx, lo);
            let a = m.replica_set(&oid, 3);
            let b = m.replica_set(&oid, 3);
            assert_eq!(a, b);
            assert_eq!(a.len(), 3);
            let slots: Vec<usize> = a.iter().collect();
            let mut dedup = slots.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "replicas must be distinct: {slots:?}");
        }
    }

    #[test]
    fn kill_moves_only_affected_objects() {
        let mut m = map(5);
        let oids: Vec<ObjectId> = (0..500).map(|i| ObjectId::new(ObjClass::Sx, i)).collect();
        let before: Vec<ReplicaSet> = oids.iter().map(|o| m.replica_set(o, 2)).collect();
        m.kill(2).unwrap();
        for (oid, pre) in oids.iter().zip(&before) {
            let post = m.replica_set(oid, 2);
            if !pre.contains(2) {
                assert_eq!(&post, pre, "unaffected object moved");
            } else {
                // Survivors keep their copies; exactly one backfill joins.
                for s in pre.iter().filter(|&s| s != 2) {
                    assert!(post.contains(s), "survivor evicted");
                }
                assert!(!post.contains(2));
            }
        }
    }

    #[test]
    fn replica_set_shrinks_to_up_count() {
        let mut m = map(2);
        let oid = ObjectId::new(ObjClass::S1, 9);
        assert_eq!(m.replica_set(&oid, 3).len(), 2);
        m.kill(0).unwrap();
        let set = m.replica_set(&oid, 3);
        assert_eq!(set.len(), 1);
        assert_eq!(set.leader(), Some(1));
        assert!(m.kill(0).is_err(), "double kill rejected");
    }

    #[test]
    fn map_versions_bump_on_transitions() {
        let mut m = map(3);
        assert_eq!(m.version(), 1);
        m.kill(1).unwrap();
        assert_eq!(m.version(), 2);
        let slot = m.add_engine(NodeId(9));
        assert_eq!(slot, 3);
        assert_eq!(m.version(), 3);
        assert_eq!(m.up_count(), 3);
    }

    #[test]
    fn map_push_roundtrips_through_the_wire() {
        let mut m = map(4);
        m.kill(2).unwrap();
        let snap = PoolMap {
            rf: 3,
            pending_dead: Some(2),
            ..m
        };
        let nodes: Vec<NodeId> = snap.members().iter().map(|mem| mem.node).collect();
        let frame = snap.to_push().encode();
        match ControlRequest::decode(frame).unwrap() {
            ControlRequest::MapPush {
                version,
                healths,
                pending_dead,
            } => {
                let rebuilt = PoolMap::from_wire(&nodes, 3, version, &healths, pending_dead);
                assert_eq!(rebuilt, snap);
            }
            other => panic!("wrong decode: {other:?}"),
        }
        // No pending kill encodes as the u32::MAX sentinel and survives.
        let clean = PoolMap { rf: 2, ..map(4) };
        match clean.to_push() {
            ControlRequest::MapPush {
                version,
                healths,
                pending_dead,
            } => {
                assert_eq!(pending_dead, u32::MAX);
                let rebuilt = PoolMap::from_wire(&nodes, 2, version, &healths, pending_dead);
                assert_eq!(rebuilt, clean);
            }
            other => panic!("wrong encode: {other:?}"),
        }
    }

    #[test]
    fn spread_is_reasonably_balanced() {
        let m = map(4);
        let mut counts = [0u32; 4];
        for lo in 0..4000u64 {
            let oid = ObjectId::new(ObjClass::Sx, lo);
            counts[m.replica_set(&oid, 1).leader().unwrap()] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "imbalanced {counts:?}");
        }
    }
}
