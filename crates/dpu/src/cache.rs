//! The pool-map-aware DPU read cache: closing the small-I/O offload gap.
//!
//! The offload A/B sweeps show the DPU arm trailing the host arm on small
//! reads — every 4–64 KiB fetch pays the full fabric round trip plus the
//! ARM-core CRC verify, and at those sizes the fixed costs dominate. The
//! BlueField-3 carries 30 GiB of DRAM next to the ARM complex; this module
//! carves a slice of it into a chunk-granular read cache so a repeated
//! small read is served at DPU-DRAM rates with **zero fabric bookings and
//! zero ARM checksum work**.
//!
//! Correctness before speed — a cache in a storage path must never serve
//! stale bytes. Entries are grouped by record — a [`RecordKey`], the
//! address `ros2_daos` names every record by — and a group carries one
//! validity stamp for all of its entries:
//!
//! * **Record stamping.** The stamp holds the record's *arrival version*
//!   at the engine the lane's cached map names as its leader
//!   ([`RecordVersion`]): VOS moves it on every update or import of that
//!   record, whoever sent it, and on nothing else. A probe or fill brings
//!   the authority's current reading; a group stamped otherwise is dropped
//!   whole — that group only, so a write to one file never touches another
//!   file's entries. It is an arrival version and not the record's newest
//!   epoch because a lower-epoch extent that arrives late changes the
//!   visible bytes while the newest epoch stays put.
//! * **Map stamping.** The stamp also holds the pool-map revision the
//!   group was learned under, and the authority is only asked under the
//!   prober's own revision (an engine fences an older one), so the cache
//!   never answers for a placement it learned under another map.
//!   [`ReadCache::note_map`] applies the same rule eagerly to every group
//!   when a `MapPush`/`MapQuery` snapshot lands; that and
//!   [`ReadCache::clear`] are the only sweeps of the whole cache.
//! * **Write-update, no write-allocate.** A local update touches only the
//!   byte range it writes. When it completes cleanly
//!   ([`ReadCache::write_update`]), every *resident* entry it fully covers
//!   is replaced by the matching zero-copy slice of its own payload and
//!   the group is re-stamped with the version the write produced —
//!   provided the group was current just before the write; entries it
//!   covers in part are dropped; ranges that were not resident are not
//!   allocated, so write-only traffic leaves the cache empty. An update
//!   that fails, retries or routes degraded installs nothing: its range is
//!   punched ([`ReadCache::punch`]). The writer therefore reads its own
//!   write from the call that submitted it on, exactly like a page cache
//!   in write-through mode — which is also what the engine would return,
//!   since it applies calls in submission order.
//!
//! Fills come only from **leader-path** fetch completions: a fetch that
//! was retried, rerouted, or served degraded does not populate the cache
//! (its bytes are correct, but its provenance is the recovery ladder — the
//! cache only learns from the boring case).
//!
//! A hit is priced as latency only ([`ReadCache::service_cost`]): nothing
//! is booked, so hits never queue behind one another and a hit-bound
//! workload's throughput is its depth in flight over the mean op latency,
//! not the rate of any modelled pipe. Asking the authority is not priced
//! at all (ROADMAP).
//!
//! Entries are indexed by `(group, offset, length)` in the shared
//! deterministic tick-LRU ([`ros2_sim::DetLru`], the same tracker as the
//! engine-side connection pool): lookup, insert and eviction are
//! O(log n), a record's entries are contiguous in key order, and a write
//! walks only the offsets it can overlap. The bound is resident **bytes**,
//! not entry count. Replay is bit-identical because the tick is the only
//! ordering input.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;

use bytes::Bytes;
use ros2_buf::DataPlaneStats;
use ros2_daos::{AKey, ClientOp, DKey, ObjectId, RecordKey, RecordVersion, ValueKind};
use ros2_hw::per_byte;
use ros2_sim::{DetLru, SimDuration};

/// DPU DRAM streaming-read cost: ~62 GB/s effective (DDR5 next to the ARM
/// complex, shared with the data-plane staging traffic). A 16 KiB hit
/// costs ~0.26 µs here versus tens of µs for the fabric round trip.
const DRAM_READ_PS_PER_BYTE: u64 = 16;

/// Fixed per-hit lookup cost on the ARM complex (index walk + descriptor
/// fixup) — keeps a 1-byte hit from being modelled as free.
const LOOKUP_COST: SimDuration = SimDuration::from_nanos(300);

/// Sentinel offset stamped on [`ValueKind::Single`] records, which have no
/// byte offset. Array extents at this offset cannot exist (no extent ends
/// past `u64::MAX`), so the sentinel can never collide.
const SINGLE_OFFSET: u64 = u64::MAX;

/// One cached chunk's identity: its record — the unit of validity — plus
/// the byte range. Reads at a
/// different offset or length are different entries — the cache is
/// chunk-granular, not extent-merging, because the DFS layer above already
/// issues aligned chunk reads. A local update's position is written the
/// same way (`len` its payload length).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheKey {
    /// The record the chunk belongs to.
    pub record: RecordKey,
    /// Byte offset ([`SINGLE_OFFSET`] for single-value records).
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

impl CacheKey {
    /// The key for an access of `len` bytes at `kind`'s position in
    /// `record`.
    pub fn at(record: RecordKey, kind: ValueKind, len: u64) -> Self {
        let offset = match kind {
            ValueKind::Single => SINGLE_OFFSET,
            ValueKind::Array { offset } => offset,
        };
        CacheKey {
            record,
            offset,
            len,
        }
    }

    /// [`Self::at`] with the record spelled out. Positional because the
    /// benchmark's cache probe calls it so.
    pub fn new(oid: ObjectId, dkey: DKey, akey: AKey, kind: ValueKind, len: u64) -> Self {
        Self::at(RecordKey { oid, dkey, akey }, kind, len)
    }

    /// The key for `op`'s position: the range a fetch reads or an
    /// update's payload covers.
    pub fn of(op: &ClientOp) -> Self {
        let (kind, len) = match op {
            ClientOp::Update(op) => (op.kind, op.data.len() as u64),
            ClientOp::Fetch(op) => (op.kind, op.len),
        };
        Self::at(op.key().clone(), kind, len)
    }
}

/// A resident chunk's place in the entry index: its group's id, then its
/// offset and length. Integers only, so index comparisons never touch key
/// bytes, and a group's chunks are one contiguous, offset-sorted run.
type Slot = (u64, u64, u64);

/// One past a slot's last byte (`u64::MAX` for a single value).
fn end((_, offset, len): Slot) -> u64 {
    offset.saturating_add(len)
}

/// One resident chunk: the payload, a refcounted handle — serving a hit is
/// zero-copy.
#[derive(Clone, Debug)]
struct CacheEntry {
    data: Bytes,
    /// CRC32C recorded when the payload was installed and re-checked on
    /// hit: a corruption tripwire for debug builds, not a modelled cost
    /// (the fetch path already verified these bytes end-to-end).
    #[cfg(debug_assertions)]
    crc: u32,
}

impl CacheEntry {
    fn new(data: Bytes) -> Self {
        CacheEntry {
            #[cfg(debug_assertions)]
            crc: ros2_daos::crc32c(&data),
            data,
        }
    }
}

/// What a record's resident entries share.
#[derive(Debug)]
struct Group {
    record: RecordKey,
    /// Pool-map revision the entries were learned under.
    map_version: u64,
    /// The record's arrival version their bytes are current at.
    version: RecordVersion,
    /// Resident entries; the group goes with its last one.
    entries: usize,
    /// Longest entry the group has held, which bounds how far below a
    /// write's offset an entry that overlaps it can start.
    max_len: u64,
}

/// Counters the cache accumulates; reported through `DpuStats` and the
/// benchmark JSON.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DpuCacheStats {
    /// Probes answered from DPU DRAM (no fabric, no ARM CRC).
    pub hits: u64,
    /// Probes that fell through to the fabric path.
    pub misses: u64,
    /// Leader-path completions admitted into the cache.
    pub fills: u64,
    /// Entries dropped by a validity check (stale record version or map
    /// revision) or by a local write that did not replace them.
    pub invalidations: u64,
    /// Entries displaced by the byte-budget LRU.
    pub evictions: u64,
    /// Resident entries a local write replaced with its own payload.
    pub write_updates: u64,
    /// Payload bytes served from cache.
    pub bytes_served: u64,
    /// Payload bytes admitted by fills.
    pub bytes_filled: u64,
}

impl DpuCacheStats {
    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: DpuCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.fills += other.fills;
        self.invalidations += other.invalidations;
        self.evictions += other.evictions;
        self.write_updates += other.write_updates;
        self.bytes_served += other.bytes_served;
        self.bytes_filled += other.bytes_filled;
    }

    /// Fraction of probes served from cache.
    pub fn hit_rate(&self) -> f64 {
        let probes = self.hits + self.misses;
        if probes == 0 {
            return 0.0;
        }
        self.hits as f64 / probes as f64
    }
}

/// The read cache itself. One instance per tenant lane — tenants never
/// share cached bytes, mirroring the dedicated-PD isolation of the data
/// plane. See the module docs for the validity rules.
#[derive(Debug)]
pub struct ReadCache {
    /// Resident-byte budget (carved from the agent's DRAM pool).
    capacity: u64,
    /// Bytes currently resident (≤ capacity always).
    resident: u64,
    entries: DetLru<Slot, CacheEntry>,
    /// The id of every record with resident entries (ids are never
    /// reused, so they are a function of the fill history alone).
    ids: BTreeMap<RecordKey, u64>,
    /// One stamp per record with resident entries, by id.
    groups: BTreeMap<u64, Group>,
    next_id: u64,
    stats: DpuCacheStats,
    /// Hit traffic is zero-copy by construction (refcounted handles out of
    /// DPU DRAM); accounted here so system-level copy-discipline reports
    /// see cache traffic alongside the fabric's.
    dp: DataPlaneStats,
}

impl ReadCache {
    /// A cache bounded at `capacity` resident bytes.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "a cache needs a byte budget");
        ReadCache {
            capacity,
            resident: 0,
            entries: DetLru::new(),
            ids: BTreeMap::new(),
            groups: BTreeMap::new(),
            next_id: 0,
            stats: DpuCacheStats::default(),
            dp: DataPlaneStats::default(),
        }
    }

    /// The configured byte budget.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Accumulated counters.
    pub fn stats(&self) -> DpuCacheStats {
        self.stats
    }

    /// Copy-discipline accounting for served hits.
    pub fn data_plane_stats(&self) -> DataPlaneStats {
        self.dp
    }

    /// The DPU-DRAM service latency for a hit of `bytes`.
    pub fn service_cost(bytes: u64) -> SimDuration {
        LOOKUP_COST + per_byte(bytes, DRAM_READ_PS_PER_BYTE)
    }

    /// Whether any entry of `record` is resident — when none is, a writer
    /// has nothing here to keep current and need not ask the authority.
    pub fn holds(&self, record: &RecordKey) -> bool {
        self.ids.contains_key(record)
    }

    /// Checks `record`'s group against the authority's reading — the
    /// caller's pool-map revision and the record's arrival version under
    /// it. A group stamped otherwise is dropped whole. Returns whether a
    /// current group remains.
    pub fn revalidate(
        &mut self,
        record: &RecordKey,
        map_version: u64,
        version: impl Into<RecordVersion>,
    ) -> bool {
        self.current_id(record, map_version, version.into())
            .is_some()
    }

    /// [`Self::revalidate`], returning the current group's id.
    fn current_id(
        &mut self,
        record: &RecordKey,
        map_version: u64,
        version: RecordVersion,
    ) -> Option<u64> {
        let id = *self.ids.get(record)?;
        let group = &self.groups[&id];
        if group.map_version == map_version && group.version == version {
            return Some(id);
        }
        self.ids.remove(record);
        self.groups.remove(&id);
        let resident = &mut self.resident;
        let dropped = (self.entries).retain_range((id, 0, 0)..=(id, u64::MAX, u64::MAX), |_, e| {
            *resident -= e.data.len() as u64;
            false
        });
        self.stats.invalidations += dropped as u64;
        None
    }

    /// Notes that `n` entries of group `id` left the cache.
    fn forget(&mut self, id: u64, n: usize) {
        let group = self.groups.get_mut(&id).expect("entries have a group");
        group.entries -= n;
        if group.entries == 0 {
            let group = self.groups.remove(&id).expect("just found");
            self.ids.remove(&group.record);
        }
    }

    /// Probes for `key` under the authority's reading (see
    /// [`Self::revalidate`]). A valid entry is served (zero-copy handle);
    /// a stale group is dropped and the probe misses.
    pub fn probe(
        &mut self,
        key: &CacheKey,
        map_version: u64,
        version: impl Into<RecordVersion>,
    ) -> Option<Bytes> {
        self.entries.advance();
        let hit = match self.current_id(&key.record, map_version, version.into()) {
            Some(id) => self.entries.touch(&(id, key.offset, key.len)),
            None => None,
        };
        let Some(e) = hit else {
            self.stats.misses += 1;
            return None;
        };
        #[cfg(debug_assertions)]
        assert_eq!(
            ros2_daos::crc32c(&e.data),
            e.crc,
            "resident chunk corrupted"
        );
        let data = e.data.clone();
        self.stats.hits += 1;
        self.stats.bytes_served += data.len() as u64;
        self.dp.bytes_zero_copy += data.len() as u64;
        Some(data)
    }

    /// A probe that could not be asked: the caller found no authority to
    /// validate against (no reachable leader under its map revision, or a
    /// degraded route). Counted as a miss; nothing is looked up.
    pub fn bypass(&mut self) {
        self.stats.misses += 1;
    }

    /// Admits a leader-path fetch completion read under the authority's
    /// reading (see [`Self::revalidate`]; a group stamped otherwise goes
    /// first). A chunk larger than the whole budget is refused; otherwise
    /// the LRU evicts until the chunk fits. Refilling a resident key
    /// replaces it.
    pub fn fill(
        &mut self,
        key: CacheKey,
        data: Bytes,
        map_version: u64,
        version: impl Into<RecordVersion>,
    ) {
        let len = data.len() as u64;
        if len > self.capacity {
            return;
        }
        let version = version.into();
        self.entries.advance();
        // The entry joins its record's current group, or founds one —
        // counted in before the evictions below, which may otherwise take
        // the group's last entry and the group with it.
        let id = match self.current_id(&key.record, map_version, version) {
            Some(id) => id,
            None => {
                self.next_id += 1;
                self.ids.insert(key.record.clone(), self.next_id);
                let group = Group {
                    record: key.record,
                    map_version,
                    version,
                    entries: 0,
                    max_len: 0,
                };
                self.groups.insert(self.next_id, group);
                self.next_id
            }
        };
        let group = self.groups.get_mut(&id).expect("current or just founded");
        group.entries += 1;
        group.max_len = group.max_len.max(key.len);
        let slot = (id, key.offset, key.len);
        if let Some(old) = self.entries.remove(&slot) {
            self.resident -= old.data.len() as u64;
            self.forget(id, 1);
        }
        while self.resident + len > self.capacity {
            let (victim, e) = self
                .entries
                .evict_lru()
                .expect("over-budget cache is non-empty");
            self.resident -= e.data.len() as u64;
            self.stats.evictions += 1;
            self.forget(victim.0, 1);
        }
        self.resident += len;
        self.stats.fills += 1;
        self.stats.bytes_filled += len;
        self.entries.insert(slot, CacheEntry::new(data));
    }

    /// The first and last slot an entry of group `id` overlapping the
    /// write at `at` can have: every single of the record for a
    /// single-value write, else the offsets from one longest-entry below
    /// the write's start to its last byte. `None` when the write is empty.
    /// Entries inside the bounds may still end before the write starts;
    /// the walk checks each one.
    fn overlap_bounds(&self, id: u64, at: &CacheKey) -> Option<RangeInclusive<Slot>> {
        let (first, last) = if at.offset == SINGLE_OFFSET {
            (SINGLE_OFFSET, SINGLE_OFFSET)
        } else if at.len == 0 {
            return None;
        } else {
            let reach = self.groups[&id].max_len.saturating_sub(1);
            (
                at.offset.saturating_sub(reach),
                end((id, at.offset, at.len)) - 1,
            )
        };
        Some((id, first, 0)..=(id, last, u64::MAX))
    }

    /// Drops every resident entry the write at `at` (its record, offset
    /// and payload length) overlaps, and returns how many. This is all a
    /// local update leaves behind when it cannot be trusted to have landed
    /// as submitted — it failed, retried, routed degraded, or the record's
    /// group was not current when it was issued.
    pub fn punch(&mut self, at: &CacheKey) -> usize {
        let Some(&id) = self.ids.get(&at.record) else {
            return 0;
        };
        let Some(bounds) = self.overlap_bounds(id, at) else {
            return 0;
        };
        let resident = &mut self.resident;
        let dropped = self.entries.retain_range(bounds, |&k, e| {
            let clear = end(k) <= at.offset && k.1 != SINGLE_OFFSET;
            if !clear {
                *resident -= e.data.len() as u64;
            }
            clear
        });
        self.stats.invalidations += dropped as u64;
        self.forget(id, dropped);
        dropped
    }

    /// A local update at `at` carrying `data` completed cleanly, the
    /// record's group was current just before it was issued (the caller
    /// checked with [`Self::revalidate`]), and the authority now reads
    /// `version`: re-stamps the group and brings its entries up to date.
    /// A resident entry the write fully covers now holds the matching
    /// slice of `data` (a single value: all of it); one it covers in part
    /// is dropped. Nothing is allocated — without a resident entry in its
    /// range the write changes the stamp only, and without a group it
    /// changes nothing.
    pub fn write_update(
        &mut self,
        at: &CacheKey,
        data: &Bytes,
        map_version: u64,
        version: impl Into<RecordVersion>,
    ) {
        let Some(&id) = self.ids.get(&at.record) else {
            return;
        };
        let group = self.groups.get_mut(&id).expect("ids name live groups");
        group.map_version = map_version;
        group.version = version.into();
        let Some(bounds) = self.overlap_bounds(id, at) else {
            return;
        };
        let (resident, capacity) = (&mut self.resident, self.capacity);
        let stats = &mut self.stats;
        let write_end = at.offset.saturating_add(at.len);
        let dropped = self.entries.retain_range(bounds, |&k, e| {
            let fresh = if k.1 == SINGLE_OFFSET {
                Some(data.clone())
            } else if end(k) <= at.offset {
                return true;
            } else if k.1 >= at.offset && end(k) <= write_end {
                let from = (k.1 - at.offset) as usize;
                Some(data.slice(from..from + k.2 as usize))
            } else {
                None
            };
            let rest = *resident - e.data.len() as u64;
            // A longer single value may not fit where the old one did.
            match fresh.filter(|d| rest + d.len() as u64 <= capacity) {
                Some(d) => {
                    *resident = rest + d.len() as u64;
                    *e = CacheEntry::new(d);
                    stats.write_updates += 1;
                    true
                }
                None => {
                    *resident = rest;
                    stats.invalidations += 1;
                    false
                }
            }
        });
        self.forget(id, dropped);
    }

    /// A pool-map snapshot at `version` just landed: eagerly drops every
    /// group stamped with a different revision (the probe-time check would
    /// refuse them anyway; dropping now keeps the byte budget honest).
    pub fn note_map(&mut self, version: u64) {
        let (groups, resident) = (&self.groups, &mut self.resident);
        let dropped = self.entries.retain(|k, e| {
            let stale = groups[&k.0].map_version != version;
            if stale {
                *resident -= e.data.len() as u64;
            }
            !stale
        });
        self.groups.retain(|_, g| g.map_version == version);
        let groups = &self.groups;
        self.ids.retain(|_, id| groups.contains_key(id));
        self.stats.invalidations += dropped as u64;
    }

    /// Drops every entry (the byte budget stays reserved).
    pub fn clear(&mut self) {
        self.stats.invalidations += self.entries.len() as u64;
        self.entries.clear();
        self.ids.clear();
        self.groups.clear();
        self.resident = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros2_daos::Epoch;

    const OID: ObjectId = ObjectId { hi: 2 << 56, lo: 1 };

    /// The key of `len` bytes at `offset` of dkey `dkey`.
    fn at(dkey: u64, offset: u64, len: u64) -> CacheKey {
        let kind = ValueKind::Array { offset };
        CacheKey::new(OID, DKey::from_u64(dkey), AKey::from_str("data"), kind, len)
    }

    fn key(i: u64, len: u64) -> CacheKey {
        at(i, 0, len)
    }

    fn chunk(b: u8, len: usize) -> Bytes {
        Bytes::from(vec![b; len])
    }

    /// A 1 MiB dkey fully resident as 64 extents of 16 KiB (extent `i`
    /// holds byte `i`), plus one extent of another dkey, all at version 1.
    fn resident_dkey() -> ReadCache {
        let mut c = ReadCache::new(16 << 20);
        for i in 0..64u64 {
            c.fill(
                at(0, i << 14, 1 << 14),
                chunk(i as u8, 1 << 14),
                1,
                Epoch(1),
            );
        }
        c.fill(at(9, 0, 1 << 14), chunk(99, 1 << 14), 1, Epoch(1));
        c
    }

    #[test]
    fn fill_then_probe_serves_the_same_handle() {
        let mut c = ReadCache::new(1 << 20);
        let data = chunk(7, 4096);
        c.fill(key(0, 4096), data.clone(), 3, Epoch(5));
        let hit = c.probe(&key(0, 4096), 3, Epoch(5)).unwrap();
        assert_eq!(hit, data);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.fills), (1, 0, 1));
        assert_eq!(s.bytes_served, 4096);
        assert_eq!(c.data_plane_stats().bytes_zero_copy, 4096);
    }

    #[test]
    fn stale_epoch_and_stale_map_both_invalidate() {
        let mut c = ReadCache::new(1 << 20);
        c.fill(key(0, 64), chunk(1, 64), 3, Epoch(5));
        assert!(c.probe(&key(0, 64), 3, Epoch(6)).is_none(), "version moved");
        c.fill(key(1, 64), chunk(2, 64), 3, Epoch(6));
        assert!(c.probe(&key(1, 64), 4, Epoch(6)).is_none(), "map moved");
        assert_eq!(c.stats().invalidations, 2);
        assert_eq!(c.resident_bytes(), 0, "stale entries are dropped");
        assert!(!c.holds(&key(0, 64).record) && !c.holds(&key(1, 64).record));
    }

    #[test]
    fn a_stale_record_drops_its_own_group_only() {
        let mut c = resident_dkey();
        // Someone wrote dkey 0: all 64 of its extents go on the next
        // probe, and the other record is not touched.
        assert!(c.probe(&at(0, 0, 1 << 14), 1, Epoch(2)).is_none());
        assert_eq!((c.len(), c.stats().invalidations), (1, 64));
        assert_eq!(c.probe(&at(9, 0, 1 << 14), 1, Epoch(1)).unwrap()[0], 99);
    }

    #[test]
    fn punch_drops_only_the_range_it_overlaps() {
        let mut c = resident_dkey();
        // One 16 KiB write: exactly one of the 64 extents (parent: all).
        assert_eq!(c.punch(&at(0, 5 << 14, 1 << 14)), 1);
        // A write straddling two extents overlaps both; an empty write and
        // a write to a record with nothing resident overlap nothing.
        assert_eq!(c.punch(&at(0, (8 << 14) + 100, 1 << 14)), 2);
        assert_eq!(c.punch(&at(0, 20 << 14, 0)), 0);
        assert_eq!(c.punch(&at(3, 0, 1 << 20)), 0);
        assert_eq!((c.len(), c.stats().invalidations), (62, 3));
        assert_eq!(c.resident_bytes(), 62 << 14);
        for i in [4u64, 6, 7, 10, 63] {
            let hit = c.probe(&at(0, i << 14, 1 << 14), 1, Epoch(1));
            assert_eq!(hit.unwrap()[0], i as u8, "extent {i} survives");
        }
        // The walk starts one longest-entry below the write, so a long
        // entry reaching into it from far below is found too.
        c.fill(at(9, 1 << 20, 1 << 20), chunk(1, 1 << 20), 1, Epoch(1));
        assert_eq!(c.punch(&at(9, (2 << 20) - 1, 1)), 1);
        assert_eq!(c.punch(&at(9, 0, 1)), 1, "the group's last entry");
        assert!(!c.holds(&at(9, 0, 0).record), "an empty group is forgotten");
    }

    #[test]
    fn a_covering_write_updates_exactly_the_entry_it_covers() {
        let mut c = resident_dkey();
        // A 16 KiB write over extent 5: that entry takes the payload, the
        // group moves to the version the write produced, nothing drops.
        let payload = chunk(200, 1 << 14);
        c.write_update(&at(0, 5 << 14, 1 << 14), &payload, 1, Epoch(2));
        let s = c.stats();
        assert_eq!((c.len(), s.write_updates, s.invalidations), (65, 1, 0));
        let hit = c.probe(&at(0, 5 << 14, 1 << 14), 1, Epoch(2)).unwrap();
        assert_eq!(hit, payload, "the next probe serves the new bytes");
        for i in [0u64, 4, 6, 63] {
            let hit = c.probe(&at(0, i << 14, 1 << 14), 1, Epoch(2));
            assert_eq!(hit.unwrap()[0], i as u8, "sibling {i} survives the write");
        }
        // A larger write covering 10 and 11 whole and 12 in part: two take
        // their slice of the payload, the third is dropped.
        let mut big = vec![10u8; 1 << 14];
        big.extend(vec![11u8; 1 << 14]);
        big.extend(vec![12u8; 100]);
        c.write_update(
            &at(0, 10 << 14, big.len() as u64),
            &Bytes::from(big),
            1,
            Epoch(3),
        );
        let s = c.stats();
        assert_eq!((c.len(), s.write_updates, s.invalidations), (64, 3, 1));
        assert!(c.probe(&at(0, 12 << 14, 1 << 14), 1, Epoch(3)).is_none());
        assert_eq!(
            c.probe(&at(0, 11 << 14, 1 << 14), 1, Epoch(3)).unwrap()[0],
            11
        );
        assert_eq!(c.resident_bytes(), 64 << 14);
    }

    #[test]
    fn a_write_to_a_non_resident_range_allocates_nothing() {
        let mut c = ReadCache::new(1 << 20);
        // No group at all: nothing happens, not even a stamp.
        c.write_update(&at(0, 0, 4096), &chunk(1, 4096), 1, Epoch(2));
        assert!(c.is_empty() && !c.holds(&at(0, 0, 0).record));
        // A group, but nothing resident in the written range: `len()` is
        // unchanged and only the stamp moves.
        c.fill(at(0, 0, 4096), chunk(7, 4096), 1, Epoch(1));
        c.write_update(&at(0, 8192, 4096), &chunk(2, 4096), 1, Epoch(2));
        assert_eq!((c.len(), c.resident_bytes()), (1, 4096));
        assert_eq!(c.stats().write_updates, 0);
        assert!(c.probe(&at(0, 8192, 4096), 1, Epoch(2)).is_none());
        assert_eq!(c.probe(&at(0, 0, 4096), 1, Epoch(2)).unwrap()[0], 7);
    }

    #[test]
    fn byte_budget_evicts_lru_first() {
        let mut c = ReadCache::new(256);
        c.fill(key(0, 128), chunk(0, 128), 1, Epoch(1));
        c.fill(key(1, 128), chunk(1, 128), 1, Epoch(1));
        // Touch 0 so 1 is the LRU, then overflow.
        assert!(c.probe(&key(0, 128), 1, Epoch(1)).is_some());
        c.fill(key(2, 128), chunk(2, 128), 1, Epoch(1));
        assert!(c.probe(&key(1, 128), 1, Epoch(1)).is_none(), "LRU evicted");
        assert!(!c.holds(&key(1, 128).record), "its group went with it");
        assert!(c.probe(&key(0, 128), 1, Epoch(1)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert!(c.resident_bytes() <= c.capacity());
    }

    #[test]
    fn oversized_chunk_is_refused_and_note_map_sweeps() {
        let mut c = ReadCache::new(256);
        c.fill(key(0, 512), chunk(0, 512), 1, Epoch(1));
        assert_eq!(c.len(), 0, "chunk larger than the budget is refused");
        c.fill(key(1, 64), chunk(1, 64), 1, Epoch(1));
        c.fill(key(2, 64), chunk(2, 64), 2, Epoch(1));
        c.note_map(2);
        assert_eq!(c.len(), 1, "old-revision entries swept");
        assert_eq!(c.resident_bytes(), 64);
        assert!(c.probe(&key(2, 64), 2, Epoch(1)).is_some());
    }

    #[test]
    fn single_values_use_the_sentinel_offset() {
        let (dkey, akey) = (DKey::from_str("k"), AKey::from_str("v"));
        let single = |len| CacheKey::new(OID, dkey.clone(), akey.clone(), ValueKind::Single, len);
        let k = single(4);
        assert_eq!(k.offset, SINGLE_OFFSET);
        let kind = ValueKind::Array { offset: 0 };
        let arr = CacheKey::new(OID, dkey.clone(), akey.clone(), kind, 4);
        assert_ne!(k, arr);
        // A single-value write replaces the whole value under every
        // resident single key of the record and leaves its arrays alone;
        // a value that no longer fits the budget is dropped instead.
        let mut c = ReadCache::new(64);
        c.fill(k.clone(), chunk(1, 4), 1, Epoch(1));
        c.fill(arr.clone(), chunk(2, 4), 1, Epoch(1));
        c.write_update(&single(8), &chunk(3, 8), 1, Epoch(2));
        assert_eq!(c.probe(&k, 1, Epoch(2)).unwrap(), chunk(3, 8));
        assert_eq!(c.probe(&arr, 1, Epoch(2)).unwrap(), chunk(2, 4));
        assert_eq!(c.resident_bytes(), 12);
        c.write_update(&single(61), &chunk(4, 61), 1, Epoch(3));
        assert_eq!((c.len(), c.resident_bytes()), (1, 4));
        assert_eq!(c.punch(&single(0)), 0, "no single left to punch");
    }
}
