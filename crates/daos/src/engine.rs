//! The DAOS I/O engine — the server-side process the paper leaves
//! *unmodified* on the storage node (§3.1) while the client moves to the
//! DPU.
//!
//! One engine serves a pool of targets (one per NVMe SSD, as DAOS binds
//! targets to devices). Each target forms a self-contained **shard**: its
//! VOS index, its xstream pool and its slice of the bdev layer — no mutable
//! state is shared between shards, and every op is addressed to the one
//! shard that owns its `(oid, dkey)`. RPC handling, VOS indexing and
//! checksum computation all charge CPU on the owning target's xstreams;
//! media time comes from the bdev/pmem models. The engine's [`Timed`] walk
//! reaches every xstream pool, target and drive.

use bytes::Bytes;
use ros2_hw::{checksum_cost, CoreClass, LBA_SIZE};
use ros2_sim::{FastMap, ServerPool, SimTime, Timed, Visit};
use ros2_spdk::{BdevLayer, ShardBdev};

use crate::cluster::PoolMap;
use crate::types::{
    placement_hash, AKey, DKey, DaosCostModel, DaosError, Epoch, ObjClass, ObjectId, RecordKey,
    RecordVersion,
};
use crate::vos::{VosStats, VosTarget};

/// Update/fetch value kind.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ValueKind {
    /// Whole-value single record.
    Single,
    /// Array extent at a byte offset.
    Array {
        /// Byte offset within the array value.
        offset: u64,
    },
}

/// An object RPC as it reaches the engine: the pool-map revision its
/// sender stamped on it and the instant it arrives. Every update and fetch
/// carries one. A bare [`SimTime`] is an arrival stamped with revision 0,
/// what a sender holding no map sends: an engine no map has reached serves
/// it, and any engine that has observed a map fences it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// The map revision the request carries.
    pub stamp: u64,
    /// The instant the request reaches the engine.
    pub at: SimTime,
}

impl From<SimTime> for Arrival {
    fn from(at: SimTime) -> Self {
        Arrival { stamp: 0, at }
    }
}

/// A container's server-side state.
#[derive(Clone, Debug, Default)]
pub struct ContainerMeta {
    /// Monotonic epoch counter (committed epochs).
    pub epoch_counter: u64,
    /// Snapshots taken (epoch values).
    pub snapshots: Vec<u64>,
}

/// The storage-server engine.
pub struct DaosEngine {
    model: DaosCostModel,
    class: CoreClass,
    /// The pool label.
    pub pool_label: String,
    bdevs: BdevLayer,
    targets: Vec<VosTarget>,
    xstreams: Vec<ServerPool>,
    containers: FastMap<String, ContainerMeta>,
    rpcs: u64,
    /// The newest map revision the control plane has pushed to this
    /// engine (0 = never observed: every stamp passes the revision fence,
    /// as on a bare engine no control plane pushes maps to).
    map_version: u64,
    /// The pushed map itself plus this engine's slot — what the placement
    /// fence re-resolves routes against.
    map_view: Option<(PoolMap, usize)>,
    /// Requests rejected with [`DaosError::StaleMap`] (stale stamp or
    /// misrouted update). Fenced requests are *not* counted in
    /// [`Self::rpcs`] — they never reach a target.
    fences: u64,
}

impl DaosEngine {
    /// Creates an engine over `bdevs`, one target per device, with
    /// `scm_bytes_per_target` of SCM each.
    pub fn new(
        pool_label: impl Into<String>,
        bdevs: BdevLayer,
        scm_bytes_per_target: u64,
        model: DaosCostModel,
        class: CoreClass,
    ) -> Self {
        let n = bdevs.count();
        let lba_span = bdevs.array().lba_count_per_device();
        let targets = (0..n)
            .map(|dev| VosTarget::new(dev, 0, lba_span, scm_bytes_per_target, model.scm_threshold))
            .collect();
        let xstreams = (0..n)
            .map(|_| ServerPool::new(model.xstreams_per_target))
            .collect();
        DaosEngine {
            model,
            class,
            pool_label: pool_label.into(),
            bdevs,
            targets,
            xstreams,
            containers: FastMap::default(),
            rpcs: 0,
            map_version: 0,
            map_view: None,
            fences: 0,
        }
    }

    /// Creates a container.
    pub fn cont_create(&mut self, label: impl Into<String>) -> Result<(), DaosError> {
        self.containers
            .insert(label.into(), ContainerMeta::default());
        Ok(())
    }

    /// Whether a container exists (open handle check).
    pub fn cont_exists(&self, label: &str) -> bool {
        self.containers.contains_key(label)
    }

    /// Allocates the next commit epoch for a container.
    pub fn next_epoch(&mut self, cont: &str) -> Result<Epoch, DaosError> {
        let meta = self
            .containers
            .get_mut(cont)
            .ok_or(DaosError::NoSuchEntity)?;
        meta.epoch_counter += 1;
        Ok(Epoch(meta.epoch_counter))
    }

    /// Advances a container's epoch counter to at least `epoch` without
    /// allocating — how replica engines track the cluster's epoch sequence
    /// so any of them can take over allocation after a failover. Creates
    /// the container if the engine has never seen it (a backfill member
    /// observing its first epoch).
    pub fn observe_epoch(&mut self, cont: &str, epoch: Epoch) {
        if let Some(meta) = self.containers.get_mut(cont) {
            meta.epoch_counter = meta.epoch_counter.max(epoch.0);
        } else {
            self.containers.insert(
                cont.to_string(),
                ContainerMeta {
                    epoch_counter: epoch.0,
                    snapshots: Vec::new(),
                },
            );
        }
    }

    /// Records a snapshot at the container's current epoch and returns it.
    pub fn snapshot(&mut self, cont: &str) -> Result<Epoch, DaosError> {
        let meta = self
            .containers
            .get_mut(cont)
            .ok_or(DaosError::NoSuchEntity)?;
        meta.snapshots.push(meta.epoch_counter);
        Ok(Epoch(meta.epoch_counter))
    }

    /// The shard index serving `(oid, dkey)` under the object's class.
    fn target_of(&self, oid: ObjectId, dkey: Option<&DKey>) -> usize {
        let n = self.targets.len() as u64;
        let h = match oid.class() {
            ObjClass::S1 => placement_hash(&oid, None),
            ObjClass::Sx => placement_hash(&oid, dkey),
        };
        (h % n) as usize
    }

    /// Total RPCs processed.
    pub fn rpcs(&self) -> u64 {
        self.rpcs
    }

    /// Control-plane map push: the engine learns the authoritative map
    /// and its own slot in it. Monotonic — an older push (out-of-order
    /// delivery) is ignored.
    pub fn observe_map(&mut self, map: &PoolMap, slot: usize) {
        if map.version() > self.map_version {
            self.map_version = map.version();
            self.map_view = Some((map.clone(), slot));
        }
    }

    /// The newest map revision this engine has been pushed (0 = never).
    pub fn map_version(&self) -> u64 {
        self.map_version
    }

    /// Requests this engine fenced with [`DaosError::StaleMap`].
    pub fn fences(&self) -> u64 {
        self.fences
    }

    /// Whether `stamp` is older than the newest map revision this engine
    /// has been pushed — the one rule of the revision fence (an engine
    /// that was never pushed a map, revision 0, fences nothing).
    pub fn is_stale(&self, stamp: u64) -> bool {
        stamp < self.map_version
    }

    /// The revision fence: a request stamped with an older map revision
    /// than the engine has observed is rejected before it touches any
    /// target — the client must refresh and re-resolve its route. A stamp
    /// *newer* than the engine's view passes (the client can only have
    /// gotten it from the control plane, so the route is at least as
    /// fresh as the engine's own knowledge).
    fn fence_version(&mut self, stamp: u64) -> Result<(), DaosError> {
        if self.is_stale(stamp) {
            self.fences += 1;
            return Err(DaosError::StaleMap {
                current: self.map_version,
            });
        }
        Ok(())
    }

    /// The arrival version of the record at `key` on this engine (see
    /// [`RecordVersion`]). Read-only: no RPC is counted, nothing is booked.
    pub fn record_version(&self, key: &RecordKey) -> RecordVersion {
        self.targets[self.target_of(key.oid, Some(&key.dkey))].record_version(key)
    }

    /// Merged VOS stats across targets.
    pub fn vos_stats(&self) -> VosStats {
        let mut out = VosStats::default();
        for t in &self.targets {
            out.merge(t.stats());
        }
        out
    }

    /// Accepts one RPC for the shard that owns `(oid, dkey)`: counts it and
    /// charges its handling, VOS-index and `bytes`-checksum CPU on that
    /// shard's xstreams. Returns the shard's VOS target and bdev slice plus
    /// the instant an xstream has finished the CPU work.
    fn serve_on_shard(
        &mut self,
        now: SimTime,
        oid: ObjectId,
        dkey: &DKey,
        bytes: u64,
    ) -> (&mut VosTarget, ShardBdev<'_>, SimTime) {
        self.rpcs += 1;
        let target = self.target_of(oid, Some(dkey));
        let cpu = self.model.server_per_rpc + self.model.vos_per_op + checksum_cost(bytes);
        let picked = self.xstreams[target]
            .submit(now, self.class.scale(cpu))
            .finish;
        (&mut self.targets[target], self.bdevs.shard(target), picked)
    }

    /// Services an OBJ_UPDATE RPC (data already present server-side) behind
    /// the map fence. Returns the persisted-at instant. The engine rejects
    /// the request when its stamp is stale — *and also* when the current
    /// map no longer places this object on this engine (so no write ever
    /// lands on an evicted replica, even if the client's stamp happens to
    /// be current). Fenced requests don't count as RPCs and touch no target
    /// state. The address stays three arguments here, packed into a
    /// [`RecordKey`] at entry, because the benchmark's engine probe calls
    /// this door positionally.
    // frozen by benchmark/src/sut.rs:835
    #[allow(clippy::too_many_arguments)]
    pub fn update(
        &mut self,
        rpc: impl Into<Arrival>,
        cont: &str,
        oid: ObjectId,
        dkey: DKey,
        akey: AKey,
        kind: ValueKind,
        epoch: Epoch,
        data: Bytes,
    ) -> Result<SimTime, DaosError> {
        let Arrival { stamp, at } = rpc.into();
        self.fence_version(stamp)?;
        if let Some((map, slot)) = &self.map_view {
            let placed = map.replica_set(&oid, map.replication_factor());
            if !placed.contains(*slot) {
                self.fences += 1;
                return Err(DaosError::StaleMap {
                    current: self.map_version,
                });
            }
        }
        if !self.containers.contains_key(cont) {
            return Err(DaosError::NoSuchEntity);
        }
        let (vos, mut media, picked) = self.serve_on_shard(at, oid, &dkey, data.len() as u64);
        let key = RecordKey { oid, dkey, akey };
        vos.update(picked, &mut media, key, kind, epoch, data)
    }

    /// Services an OBJ_FETCH RPC behind the revision fence. Returns the
    /// data and the instant it is ready to leave the server. Reads are not
    /// placement-fenced: during a degraded window the pre-kill survivors
    /// legitimately serve objects the post-rebuild map will move off them,
    /// so only the revision check applies. Positional, and packed into a
    /// [`RecordKey`] at entry, like [`Self::update`].
    // frozen by benchmark/src/sut.rs:866
    #[allow(clippy::too_many_arguments)]
    pub fn fetch(
        &mut self,
        rpc: impl Into<Arrival>,
        cont: &str,
        oid: ObjectId,
        dkey: &DKey,
        akey: &AKey,
        kind: ValueKind,
        epoch: Epoch,
        len: u64,
    ) -> Result<(Bytes, SimTime), DaosError> {
        let Arrival { stamp, at } = rpc.into();
        self.fence_version(stamp)?;
        if !self.containers.contains_key(cont) {
            return Err(DaosError::NoSuchEntity);
        }
        let (vos, mut media, picked) = self.serve_on_shard(at, oid, dkey, len);
        let key = RecordKey {
            oid,
            dkey: dkey.clone(),
            akey: akey.clone(),
        };
        match kind {
            ValueKind::Single => vos.fetch_single(picked, &mut media, &key, epoch),
            ValueKind::Array { offset } => {
                vos.fetch_array(picked, &mut media, &key, epoch, offset, len)
            }
        }
    }

    /// Lists dkeys of an object (enumerations go to the object's S1 target
    /// or all targets for striped objects).
    pub fn list_dkeys(&mut self, oid: ObjectId) -> Vec<DKey> {
        self.rpcs += 1;
        let mut keys = Vec::new();
        for t in &self.targets {
            keys.extend(t.list_dkeys(oid));
        }
        keys.sort();
        keys.dedup();
        keys
    }

    /// Punches the record at `key`.
    pub fn punch(&mut self, key: &RecordKey) -> Result<(), DaosError> {
        self.rpcs += 1;
        let target = self.target_of(key.oid, Some(&key.dkey));
        self.targets[target].punch(key)
    }

    /// Punches an entire object across targets.
    pub fn punch_object(&mut self, oid: ObjectId) {
        self.rpcs += 1;
        for t in &mut self.targets {
            t.punch_object(oid);
        }
    }

    /// Runs epoch aggregation on every target.
    pub fn aggregate(&mut self, boundary: Epoch) {
        for t in &mut self.targets {
            t.aggregate(boundary);
        }
    }

    /// Every object id with records on any target (rebuild enumeration),
    /// sorted and deduplicated.
    pub fn list_objects(&self) -> Vec<ObjectId> {
        let mut oids: Vec<ObjectId> = self.targets.iter().flat_map(|t| t.list_objects()).collect();
        oids.sort();
        oids.dedup();
        oids
    }

    /// Reads back every record of `oid` across this engine's shards (a
    /// rebuild source streaming an object's version history). Media read
    /// time is charged; returns the records plus the instant the last
    /// shard finished reading.
    pub fn export_object(
        &mut self,
        now: SimTime,
        oid: ObjectId,
    ) -> Result<(Vec<crate::vos::RecordDump>, SimTime), DaosError> {
        let mut out = Vec::new();
        let mut t_done = now;
        for target in 0..self.targets.len() {
            let mut media = self.bdevs.shard(target);
            let (records, t) = self.targets[target].export_records(now, &mut media, oid)?;
            out.extend(records);
            t_done = t_done.max(t);
        }
        Ok((out, t_done))
    }

    /// Writes re-replicated records of `oid` through the normal per-shard
    /// update path (fresh media placement, fresh checksums) at their
    /// original epochs, charging the usual RPC/VOS/media costs — the
    /// rebuild destination side. Returns the instant the last record
    /// persisted.
    pub fn import_records(
        &mut self,
        now: SimTime,
        oid: ObjectId,
        records: &[crate::vos::RecordDump],
    ) -> Result<SimTime, DaosError> {
        let mut t_done = now;
        for rec in records {
            let (vos, mut media, picked) =
                self.serve_on_shard(now, oid, &rec.key.dkey, rec.data.len() as u64);
            let (key, data) = (rec.key.clone(), rec.data.clone());
            let t = vos.update(picked, &mut media, key, rec.kind, rec.epoch, data)?;
            t_done = t_done.max(t);
        }
        Ok(t_done)
    }

    /// Direct bdev access (tests, corruption injection).
    pub fn bdevs_mut(&mut self) -> &mut BdevLayer {
        &mut self.bdevs
    }

    /// Test hook: corrupts the newest extent of the record at `key` on its
    /// owning shard so the next fetch surfaces a checksum mismatch.
    pub fn corrupt_newest_extent(&mut self, key: &RecordKey) -> bool {
        let target = self.target_of(key.oid, Some(&key.dkey));
        let mut media = self.bdevs.shard(target);
        self.targets[target].corrupt_newest_extent(&mut media, key)
    }

    /// Fault-plan bit-rot: corrupts the engine's globally newest extent of
    /// `oid` (max epoch across targets; target order breaks ties), without
    /// the caller needing to know any keys. Returns false if the engine
    /// holds no extents for the object.
    fn corrupt_object(&mut self, oid: ObjectId) -> bool {
        let mut best: Option<(usize, RecordKey, Epoch)> = None;
        for (i, t) in self.targets.iter().enumerate() {
            if let Some((key, e)) = t.newest_extent_key(oid) {
                if best.as_ref().is_none_or(|(_, _, b)| e > *b) {
                    best = Some((i, key, e));
                }
            }
        }
        let Some((target, key, _)) = best else {
            return false;
        };
        let mut media = self.bdevs.shard(target);
        self.targets[target].corrupt_newest_extent(&mut media, &key)
    }

    /// Fault-plan bit-rot without naming an object: walks this engine's
    /// sorted object list forward from `index` (mod its length) to the
    /// first object with array payload — metadata objects have nothing to
    /// rot — and corrupts it via [`Self::corrupt_object`]. Returns false if
    /// the engine holds no extents at all.
    pub fn corrupt_object_from(&mut self, index: usize) -> bool {
        let oids = self.list_objects();
        (0..oids.len()).any(|k| self.corrupt_object(oids[(index + k) % oids.len()]))
    }

    /// Scrub-verifies every record of `oid` across this engine's shards:
    /// recorded checksums compared with the media stores' cached chunk
    /// CRCs — near-zero payload scanning when the replica is clean.
    pub fn scrub_object(&mut self, oid: ObjectId) -> crate::vos::ScrubCheck {
        let mut check = crate::vos::ScrubCheck::default();
        for target in 0..self.targets.len() {
            let mut media = self.bdevs.shard(target);
            check.merge(self.targets[target].scrub_object(&mut media, oid));
        }
        check
    }

    /// An order-insensitive fingerprint of `oid`'s logical record set on
    /// this engine: per-target fingerprints folded in shard order. The
    /// `(oid, dkey) -> shard` mapping is the same pure hash on every
    /// engine, so replicas holding the same version history fingerprint
    /// identically — without reading any payload bytes.
    pub fn object_fingerprint(&self, oid: ObjectId) -> u64 {
        self.targets.iter().fold(0xcbf2_9ce4_8422_2325, |h, t| {
            (h ^ t.object_fingerprint(oid)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// A container's epoch/snapshot metadata (aggregation coordination).
    pub fn container_meta(&self, cont: &str) -> Option<&ContainerMeta> {
        self.containers.get(cont)
    }

    /// Total bytes of NVMe capacity in the pool.
    pub fn pool_capacity(&self) -> u64 {
        self.bdevs.array().capacity() / LBA_SIZE * LBA_SIZE
    }
}

impl Timed for DaosEngine {
    /// The xstream pools, every target's VOS and SCM counters, and the
    /// bdev layer's drives; a reset keeps contents.
    fn visit(&mut self, v: &mut dyn Visit) {
        self.xstreams.iter_mut().for_each(|x| v.pool(x));
        self.targets.visit(v);
        self.bdevs.visit(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros2_hw::NvmeModel;
    use ros2_nvme::{DataMode, NvmeArray};

    fn engine(ssds: usize) -> DaosEngine {
        let bdevs = BdevLayer::new(NvmeArray::new(
            NvmeModel::enterprise_1600(),
            ssds,
            DataMode::Stored,
        ));
        let mut e = DaosEngine::new(
            "pool0",
            bdevs,
            256 << 20,
            DaosCostModel::default_model(),
            CoreClass::HostX86,
        );
        e.cont_create("cont0").unwrap();
        e
    }

    #[test]
    fn update_fetch_round_trip() {
        let mut e = engine(1);
        let oid = ObjectId::new(ObjClass::S1, 1);
        let epoch = e.next_epoch("cont0").unwrap();
        let data = Bytes::from(vec![0xAA; 128 << 10]);
        let done = e
            .update(
                SimTime::ZERO,
                "cont0",
                oid,
                DKey::from_u64(0),
                AKey::from_str("data"),
                ValueKind::Array { offset: 0 },
                epoch,
                data.clone(),
            )
            .unwrap();
        let (back, at) = e
            .fetch(
                done,
                "cont0",
                oid,
                &DKey::from_u64(0),
                &AKey::from_str("data"),
                ValueKind::Array { offset: 0 },
                Epoch::LATEST,
                128 << 10,
            )
            .unwrap();
        assert_eq!(back, data);
        assert!(at > done);
        assert_eq!(e.rpcs(), 2);
    }

    #[test]
    fn striped_objects_engage_all_targets() {
        let e = engine(4);
        let oid = ObjectId::new(ObjClass::Sx, 9);
        let mut hit = [false; 4];
        for chunk in 0..64u64 {
            hit[e.target_of(oid, Some(&DKey::from_u64(chunk)))] = true;
        }
        assert!(hit.iter().all(|&h| h), "chunks must stripe: {hit:?}");
        // Single-target objects stay on one target regardless of dkey.
        let s1 = ObjectId::new(ObjClass::S1, 9);
        let t0 = e.target_of(s1, Some(&DKey::from_u64(0)));
        assert!((0..64u64).all(|c| e.target_of(s1, Some(&DKey::from_u64(c))) == t0));
    }

    #[test]
    fn unknown_container_rejected() {
        let mut e = engine(1);
        let oid = ObjectId::new(ObjClass::S1, 1);
        let err = e
            .update(
                SimTime::ZERO,
                "nope",
                oid,
                DKey::from_u64(0),
                AKey::from_str("a"),
                ValueKind::Single,
                Epoch(1),
                Bytes::new(),
            )
            .unwrap_err();
        assert_eq!(err, DaosError::NoSuchEntity);
    }

    #[test]
    fn epochs_are_monotonic_per_container() {
        let mut e = engine(1);
        e.cont_create("other").unwrap();
        let a = e.next_epoch("cont0").unwrap();
        let b = e.next_epoch("cont0").unwrap();
        let c = e.next_epoch("other").unwrap();
        assert!(b > a);
        assert_eq!(c, Epoch(1), "containers have independent epochs");
    }

    #[test]
    fn snapshot_records_current_epoch() {
        let mut e = engine(1);
        e.next_epoch("cont0").unwrap();
        e.next_epoch("cont0").unwrap();
        let snap = e.snapshot("cont0").unwrap();
        assert_eq!(snap, Epoch(2));
    }

    #[test]
    fn xstreams_serialize_per_target() {
        let mut e = engine(1);
        let oid = ObjectId::new(ObjClass::S1, 1);
        let epoch = e.next_epoch("cont0").unwrap();
        // Submit more concurrent updates than xstreams; completions spread.
        let mut times: Vec<SimTime> = (0..8u64)
            .map(|i| {
                e.update(
                    SimTime::ZERO,
                    "cont0",
                    oid,
                    DKey::from_u64(i),
                    AKey::from_str("a"),
                    ValueKind::Single,
                    epoch,
                    Bytes::from_static(b"tiny"),
                )
                .unwrap()
            })
            .collect();
        times.sort();
        assert!(times.last().unwrap() > times.first().unwrap());
    }

    #[test]
    fn corruption_detected_through_engine() {
        let mut e = engine(1);
        let oid = ObjectId::new(ObjClass::S1, 7);
        let d = DKey::from_u64(0);
        let a = AKey::from_str("data");
        let epoch = e.next_epoch("cont0").unwrap();
        e.update(
            SimTime::ZERO,
            "cont0",
            oid,
            d.clone(),
            a.clone(),
            ValueKind::Array { offset: 0 },
            epoch,
            Bytes::from(vec![1u8; 64 << 10]),
        )
        .unwrap();
        assert!(e.corrupt_newest_extent(&RecordKey {
            oid,
            dkey: d.clone(),
            akey: a.clone()
        }));
        let err = e
            .fetch(
                SimTime::from_secs(1),
                "cont0",
                oid,
                &d,
                &a,
                ValueKind::Array { offset: 0 },
                Epoch::LATEST,
                64 << 10,
            )
            .unwrap_err();
        assert_eq!(err, DaosError::ChecksumMismatch);
    }

    /// A 4-node map for the fencing tests, plus an oid placed on the
    /// given slot under RF=1 and one placed elsewhere.
    fn fence_fixture(slot: usize) -> (PoolMap, ObjectId, ObjectId) {
        let map = PoolMap::new((1..=4).map(ros2_verbs::NodeId).collect(), 1);
        let placed = (0..256u64)
            .map(|i| ObjectId::new(ObjClass::S1, i))
            .find(|o| map.replica_set(o, 1).leader() == Some(slot))
            .expect("some oid lands on the slot");
        let elsewhere = (0..256u64)
            .map(|i| ObjectId::new(ObjClass::S1, i))
            .find(|o| map.replica_set(o, 1).leader() != Some(slot))
            .expect("some oid lands elsewhere");
        (map, placed, elsewhere)
    }

    #[test]
    fn stale_stamp_is_fenced_before_any_work() {
        let mut e = engine(1);
        let (mut map, placed, _) = fence_fixture(0);
        e.observe_map(&map, 0);
        assert_eq!(e.map_version(), 1);
        map.kill(3).unwrap();
        e.observe_map(&map, 0);
        assert_eq!(e.map_version(), 2);

        let epoch = e.next_epoch("cont0").unwrap();
        let err = e
            .update(
                Arrival {
                    stamp: 1,
                    at: SimTime::ZERO,
                }, // the pre-kill revision
                "cont0",
                placed,
                DKey::from_u64(0),
                AKey::from_str("a"),
                ValueKind::Single,
                epoch,
                Bytes::from_static(b"x"),
            )
            .unwrap_err();
        assert_eq!(err, DaosError::StaleMap { current: 2 });
        let err = e
            .fetch(
                Arrival {
                    stamp: 1,
                    at: SimTime::ZERO,
                },
                "cont0",
                placed,
                &DKey::from_u64(0),
                &AKey::from_str("a"),
                ValueKind::Single,
                Epoch::LATEST,
                1,
            )
            .unwrap_err();
        assert_eq!(err, DaosError::StaleMap { current: 2 });
        // Fenced requests never reach a target: they are not RPCs and the
        // VOS saw nothing.
        assert_eq!(e.rpcs(), 0);
        assert_eq!(e.fences(), 2);
        assert_eq!(e.vos_stats().sv_updates, 0);

        // The current stamp passes the fence and does the work.
        e.update(
            Arrival {
                stamp: 2,
                at: SimTime::ZERO,
            },
            "cont0",
            placed,
            DKey::from_u64(0),
            AKey::from_str("a"),
            ValueKind::Single,
            epoch,
            Bytes::from_static(b"x"),
        )
        .unwrap();
        assert_eq!(e.rpcs(), 1);
    }

    #[test]
    fn update_to_evicted_replica_is_fenced_even_with_current_stamp() {
        let mut e = engine(1);
        let (map, placed, elsewhere) = fence_fixture(0);
        e.observe_map(&map, 0);
        let epoch = e.next_epoch("cont0").unwrap();
        // The current map places `elsewhere` on a different slot: even a
        // perfectly fresh stamp must not let the write land here.
        let err = e
            .update(
                Arrival {
                    stamp: map.version(),
                    at: SimTime::ZERO,
                },
                "cont0",
                elsewhere,
                DKey::from_u64(0),
                AKey::from_str("a"),
                ValueKind::Single,
                epoch,
                Bytes::from_static(b"x"),
            )
            .unwrap_err();
        assert_eq!(
            err,
            DaosError::StaleMap {
                current: map.version()
            }
        );
        assert_eq!(e.fences(), 1);
        assert_eq!(e.rpcs(), 0);
        // …while a correctly placed object writes fine, and reads of a
        // misplaced object are NOT placement-fenced (degraded windows
        // legitimately read from members the next map will rotate out).
        e.update(
            Arrival {
                stamp: map.version(),
                at: SimTime::ZERO,
            },
            "cont0",
            placed,
            DKey::from_u64(0),
            AKey::from_str("a"),
            ValueKind::Single,
            epoch,
            Bytes::from_static(b"x"),
        )
        .unwrap();
        assert_eq!(e.rpcs(), 1);
    }

    #[test]
    fn stamps_newer_than_the_engine_view_pass() {
        let mut e = engine(1);
        let (map, placed, _) = fence_fixture(0);
        e.observe_map(&map, 0);
        let epoch = e.next_epoch("cont0").unwrap();
        // A client can only have gotten a newer stamp from the control
        // plane; the engine's own push just hasn't arrived yet.
        e.update(
            Arrival {
                stamp: map.version() + 5,
                at: SimTime::ZERO,
            },
            "cont0",
            placed,
            DKey::from_u64(0),
            AKey::from_str("a"),
            ValueKind::Single,
            epoch,
            Bytes::from_static(b"x"),
        )
        .unwrap();
        // And an out-of-order (older) push does not regress the view.
        let old = PoolMap::new((1..=4).map(ros2_verbs::NodeId).collect(), 1);
        let v = e.map_version();
        let mut newer = old.clone();
        newer.kill(1).unwrap();
        e.observe_map(&newer, 0);
        assert!(e.map_version() > v);
        e.observe_map(&old, 0);
        assert_eq!(e.map_version(), newer.version(), "older push ignored");
    }

    #[test]
    fn unobserved_engines_never_fence() {
        // No map was ever pushed: a bare instant, stamped revision 0,
        // passes. Once a map is observed, the same bare instant is stale.
        let mut e = engine(1);
        let (map, placed, _) = fence_fixture(0);
        let epoch = e.next_epoch("cont0").unwrap();
        let write = |e: &mut DaosEngine| {
            e.update(
                SimTime::ZERO,
                "cont0",
                placed,
                DKey::from_u64(0),
                AKey::from_str("a"),
                ValueKind::Single,
                epoch,
                Bytes::from_static(b"x"),
            )
        };
        write(&mut e).unwrap();
        assert_eq!(e.fences(), 0);
        assert_eq!(e.rpcs(), 1);
        e.observe_map(&map, 0);
        assert_eq!(
            write(&mut e).unwrap_err(),
            DaosError::StaleMap { current: 1 }
        );
        assert_eq!(e.fences(), 1);
        assert_eq!(e.rpcs(), 1);
    }
}
