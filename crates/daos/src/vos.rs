//! VOS — the Versioned Object Store of one DAOS target.
//!
//! Each target owns a slice of one NVMe device plus an SCM (pmem) pool and
//! keeps a DRAM index of epoch-tagged records:
//!
//! * **single values** (DFS inode entries, superblocks) — whole-value
//!   updates, latest-wins at a given epoch;
//! * **array values** (DFS file chunks) — extent records resolved by
//!   overlaying later epochs over earlier ones, with sparse gaps reading
//!   as zero (POSIX holes). Visibility is resolved on the index *before*
//!   media is touched: a fetch loads each returned byte from the one
//!   record that serves it, however often the range was overwritten.
//!
//! The index is keyed by the record's address, [`RecordKey`] — per object,
//! its value stores by their whole key — so every entry point takes that
//! one key and a lookup borrows it without building one of its own.
//!
//! Both kinds are one record type. Media selection follows DAOS policy:
//! records at or below the SCM threshold persist in pmem; larger records
//! land on NVMe extents. Every record carries one CRC32C per
//! [`CSUM_CHUNK`] of its stored bytes, computed at update and handed down
//! to the media store — the end-to-end checksum path of §2.4. Fetch and
//! scrub share one rule for either kind: the recorded CRCs of the covered
//! chunks are compared one for one with the media store's cached chunk
//! CRCs ([`ShardBdev::verify_chunks`],
//! [`ros2_pmem::PmemPool::verify_chunks`]), so clean payload bytes are
//! neither rescanned nor folded. A single value fetch is the window
//! `[0, len)` of its record. Reads contained in one record return the
//! store's zero-copy slice.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

use bytes::{Bytes, BytesMut};
use ros2_buf::{zero_bytes, DataPlaneStats, ZERO_POOL};
use ros2_hw::LBA_SIZE;
use ros2_sim::{SimTime, Timed, Visit};
use ros2_spdk::ShardBdev;

use crate::checksum::{crc32c_zeros, Checksum};
use crate::engine::ValueKind;
use crate::types::{AKey, DKey, DaosError, Epoch, ObjectId, RecordKey, RecordVersion};

/// Where a record's bytes live.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Location {
    /// In the target's SCM pool.
    Scm(ros2_pmem::PmemOid),
    /// On the target's NVMe slice.
    Nvme {
        /// Starting LBA (absolute on the device).
        slba: u64,
        /// Blocks.
        nlb: u32,
    },
}

/// Checksum granularity of every record (DAOS `cs_chunksize` analogue).
/// Per-chunk checksums let a 4 KiB read verify one chunk instead of
/// re-reading a whole 1 MiB extent — essential for the paper's small-I/O
/// numbers. A single value of at most one chunk has one entry: its
/// whole-value CRC.
pub const CSUM_CHUNK: u64 = 4096;

/// One stored record: a single value or an array extent.
#[derive(Clone, Debug)]
struct Record {
    epoch: Epoch,
    /// Array offset of the first byte (0 for a single value).
    offset: u64,
    len: u64,
    /// Stored (possibly LBA-padded) length on media.
    stored_len: u64,
    location: Location,
    /// One CRC32C per CSUM_CHUNK of the *stored* representation.
    checksums: ChunkTable,
}

/// A record's chunk table. A one-chunk table (a 4 KiB record) is held
/// inline, and the table of a zero-pool payload of whole chunks is a prefix
/// of one process-wide static table ([`zero_chunk_table`]), so writing
/// either allocates nothing for it; any other longer one is `Arc`-shared —
/// state that outlives the update. Record clones on the fetch path are
/// O(1) every way, never a deep copy.
#[derive(Clone, Debug)]
enum ChunkTable {
    One(Checksum),
    Zeros(&'static [Checksum]),
    Many(Arc<[Checksum]>),
}

impl std::ops::Deref for ChunkTable {
    type Target = [Checksum];

    fn deref(&self) -> &[Checksum] {
        match self {
            ChunkTable::One(c) => std::slice::from_ref(c),
            ChunkTable::Zeros(t) => t,
            ChunkTable::Many(t) => t,
        }
    }
}

/// A one-chunk iterator (exactly so by its size hint) collects inline,
/// anything else into one `Arc` allocation.
impl FromIterator<Checksum> for ChunkTable {
    fn from_iter<I: IntoIterator<Item = Checksum>>(iter: I) -> Self {
        let mut it = iter.into_iter();
        match it.size_hint() {
            (1, Some(1)) => ChunkTable::One(it.next().expect("one chunk")),
            _ => ChunkTable::Many(it.collect()),
        }
    }
}

/// The chunk table of the whole shared zero pool: `crc32c_zeros(CSUM_CHUNK)`
/// once per chunk (1 024 entries for the 4 MiB pool), built once per
/// process.
fn zero_chunk_table() -> &'static [Checksum] {
    static TABLE: OnceLock<Box<[Checksum]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let chunks = ZERO_POOL / CSUM_CHUNK as usize;
        vec![Checksum(crc32c_zeros(CSUM_CHUNK)); chunks].into_boxed_slice()
    })
}

/// Per-chunk CRC32C table of a stored payload. Payloads that are slices of
/// the shared zero pool (hole materialization, zero-fill staging, the
/// throughput sweeps' synthetic writes) are known all-zero without reading
/// them: their chunk CRCs are closed-form zero-run CRCs, so nothing is
/// scanned and `crc_bytes_scanned` counts only real hashing work. One of
/// whole chunks borrows its table from [`zero_chunk_table`] (a pool slice
/// is at most the pool long), so nothing is allocated either.
fn chunk_checksums(stored: &Bytes, dp: &mut DataPlaneStats) -> ChunkTable {
    if ros2_buf::is_shared_zeros(stored) {
        let len = stored.len() as u64;
        if len.is_multiple_of(CSUM_CHUNK) {
            return ChunkTable::Zeros(&zero_chunk_table()[..(len / CSUM_CHUNK) as usize]);
        }
        let full = Checksum(crc32c_zeros(CSUM_CHUNK));
        let tail = len % CSUM_CHUNK;
        // An exact-length iterator: collected in at most one allocation.
        return std::iter::repeat_n(full, (len / CSUM_CHUNK) as usize)
            .chain((tail > 0).then(|| Checksum(crc32c_zeros(tail))))
            .collect();
    }
    dp.crc_bytes_scanned += stored.len() as u64;
    stored
        .chunks(CSUM_CHUNK as usize)
        .map(Checksum::of)
        .collect()
}

#[derive(Clone, Debug, Default)]
struct ValueStore {
    /// The target's arrival clock at this store's last update.
    version: RecordVersion,
    /// Both lists are kept in `(epoch, arrival)` order — the order later
    /// records shadow earlier ones in — so a single-value fetch takes the
    /// last visible one and the overlay resolver walks the extents
    /// backwards, stopping at the first record that completes the window.
    singles: Vec<Record>,
    extents: Vec<Record>,
}

impl ValueStore {
    /// Every record with its kind, single values first.
    fn records(&self) -> impl Iterator<Item = (ValueKind, &Record)> {
        let singles = self.singles.iter().map(|r| (ValueKind::Single, r));
        let array = |r: &Record| ValueKind::Array { offset: r.offset };
        singles.chain(self.extents.iter().map(move |r| (array(r), r)))
    }
}

/// How many of `records` — in `(epoch, arrival)` order — are at or below
/// `epoch`: where an update tagged `epoch` is inserted, and where a fetch
/// at `epoch` starts walking back from. The tail is checked first: appends
/// and `LATEST` fetches are the common case, and a binary search over a
/// long history costs a cache miss per step.
fn visible_len(records: &[Record], epoch: Epoch) -> usize {
    match records.last() {
        Some(newest) if newest.epoch > epoch => records.partition_point(|e| e.epoch <= epoch),
        _ => records.len(),
    }
}

/// The aggregation rule of either kind: records at or below `boundary`
/// that a newer record at or below it shadows (`covers(newer, older)`)
/// leave `records`, their locations going to `dead`.
fn drop_shadowed(
    records: &mut Vec<Record>,
    boundary: Epoch,
    covers: impl Fn(&Record, &Record) -> bool,
    dead: &mut Vec<Location>,
) {
    let visible = visible_len(records, boundary);
    let shadowed: Vec<bool> = (0..records.len())
        .map(|i| {
            let r = &records[i];
            i < visible
                && records[i + 1..visible]
                    .iter()
                    .any(|newer| newer.epoch > r.epoch && covers(newer, r))
        })
        .collect();
    let mut idx = 0usize;
    records.retain(|r| {
        let gone = shadowed[idx];
        idx += 1;
        if gone {
            dead.push(r.location.clone());
        }
        !gone
    });
}

/// One piece of a fetch window's tiling: array bytes `[from, to)` are
/// served by `rec` — or, while `rec` is `None`, by no record visited so
/// far (a hole once resolution ends).
#[derive(Debug)]
struct Piece {
    from: u64,
    to: u64,
    rec: Option<Record>,
}

/// The overlay resolver: tiles `[offset, offset+len)` into `pieces` —
/// sorted, contiguous, at least one — naming the record that serves each
/// byte at `epoch`. `extents` is in `(epoch, arrival)` order; records
/// newer than `epoch` are skipped and the rest visited newest first, each
/// claiming whatever of the window is still unclaimed, until nothing is —
/// older records cannot show through. Index work only: no media access,
/// and no allocation once `pieces` has grown to the window's fragmentation.
fn resolve_overlay(
    pieces: &mut Vec<Piece>,
    extents: &[Record],
    epoch: Epoch,
    offset: u64,
    len: u64,
) {
    let gap = |from, to| Piece {
        from,
        to,
        rec: None,
    };
    pieces.clear();
    pieces.push(gap(offset, offset + len));
    for rec in extents[..visible_len(extents, epoch)].iter().rev() {
        if pieces.iter().all(|p| p.rec.is_some()) {
            break;
        }
        let (rec_lo, rec_hi) = (rec.offset, rec.offset + rec.len);
        let mut i = 0;
        while i < pieces.len() && pieces[i].from < rec_hi {
            let (lo, hi) = (pieces[i].from, pieces[i].to);
            let (from, to) = (lo.max(rec_lo), hi.min(rec_hi));
            if pieces[i].rec.is_some() || from >= to {
                i += 1;
                continue;
            }
            // Split the unclaimed piece: the part `rec` covers becomes its
            // segment, what sticks out on either side stays unclaimed.
            pieces[i] = Piece {
                from,
                to,
                rec: Some(rec.clone()),
            };
            if lo < from {
                pieces.insert(i, gap(lo, from));
                i += 1;
            }
            if to < hi {
                pieces.insert(i + 1, gap(to, hi));
            }
            i += 1;
        }
    }
}

/// One record read back by [`VosTarget::export_records`] for
/// re-replication: everything the destination's update path needs to
/// reconstruct the version history bit-for-bit.
#[derive(Clone, Debug)]
pub struct RecordDump {
    /// The record's address.
    pub key: RecordKey,
    /// The record's commit epoch (preserved, so replicas resolve the same
    /// version overlay).
    pub epoch: Epoch,
    /// A single value, or an array extent at its offset.
    pub kind: ValueKind,
    /// The record's payload bytes.
    pub data: Bytes,
}

/// Outcome of one object's scrub pass on one target: every record's
/// media-side CRC cross-checked against its recorded checksums.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubCheck {
    /// Records cross-checked (single values + array extents).
    pub records: u64,
    /// Checksum chunks compared (cache compares on the clean path).
    pub chunks: u64,
    /// Stored bytes those chunks cover — the volume verified without
    /// being rescanned when the caches are warm.
    pub bytes: u64,
    /// Records whose media CRC disagreed with the recorded checksums —
    /// bit-rot on this replica.
    pub bad: u64,
}

impl ScrubCheck {
    /// Folds another check into this one.
    pub fn merge(&mut self, other: ScrubCheck) {
        self.records += other.records;
        self.chunks += other.chunks;
        self.bytes += other.bytes;
        self.bad += other.bad;
    }
}

/// Aggregate VOS statistics for one target.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VosStats {
    /// Single-value updates.
    pub sv_updates: u64,
    /// Array-extent updates.
    pub array_updates: u64,
    /// Fetches of either kind.
    pub fetches: u64,
    /// Records placed in SCM.
    pub scm_records: u64,
    /// Records placed on NVMe.
    pub nvme_records: u64,
    /// Checksum verification failures detected.
    pub checksum_failures: u64,
    /// Extents reclaimed by aggregation.
    pub aggregated_extents: u64,
}

impl VosStats {
    /// Folds another counter set into this one (exhaustive by
    /// destructuring, so a new field cannot be silently dropped).
    pub fn merge(&mut self, other: &VosStats) {
        let VosStats {
            sv_updates,
            array_updates,
            fetches,
            scm_records,
            nvme_records,
            checksum_failures,
            aggregated_extents,
        } = other;
        self.sv_updates += sv_updates;
        self.array_updates += array_updates;
        self.fetches += fetches;
        self.scm_records += scm_records;
        self.nvme_records += nvme_records;
        self.checksum_failures += checksum_failures;
        self.aggregated_extents += aggregated_extents;
    }
}

/// One target's versioned object store.
#[derive(Debug)]
pub struct VosTarget {
    /// Which bdev this target owns a slice of.
    pub dev: usize,
    scm: ros2_pmem::PmemPool,
    scm_threshold: u64,
    nvme_next: u64,
    nvme_limit: u64,
    free_extents: Vec<(u64, u32)>,
    /// The index: per object, its value stores by address. An object's
    /// stores are keyed by the whole [`RecordKey`] (the `oid` repeats the
    /// outer key), so a probe borrows the caller's address and builds no
    /// index key of its own.
    objects: HashMap<ObjectId, BTreeMap<RecordKey, ValueStore>>,
    /// Updates this target has taken, ever: the arrival clock every value
    /// store's [`RecordVersion`] is read from. Never rewinds, so punching
    /// a record and writing it again cannot repeat a version.
    arrivals: u64,
    stats: VosStats,
    /// VOS-level data-plane counters (payload checksum scans, overlay
    /// stitch copies). Media-store counters live in the SCM pool, which
    /// [`Timed::visit`] hands over beside these, and in the bdev backing,
    /// which the engine's walk reaches.
    dp: DataPlaneStats,
    /// Reused buffer for the resolved tiling of an array fetch, so the
    /// steady-state fetch path performs no heap allocation (the record
    /// clones in it are O(1) — a chunk table is inline, static or
    /// Arc-shared).
    overlay_scratch: Vec<Piece>,
}

impl VosTarget {
    /// Creates a target over `[lba_base, lba_base+lba_span)` of device
    /// `dev`, with an SCM pool of `scm_bytes`.
    pub fn new(
        dev: usize,
        lba_base: u64,
        lba_span: u64,
        scm_bytes: u64,
        scm_threshold: u64,
    ) -> Self {
        VosTarget {
            dev,
            scm: ros2_pmem::PmemPool::new(scm_bytes, ros2_pmem::ScmModel::optane_class()),
            scm_threshold,
            nvme_next: lba_base,
            nvme_limit: lba_base + lba_span,
            free_extents: Vec::new(),
            objects: HashMap::new(),
            arrivals: 0,
            stats: VosStats::default(),
            dp: DataPlaneStats::default(),
            overlay_scratch: Vec::new(),
        }
    }

    /// Target statistics.
    pub fn stats(&self) -> &VosStats {
        &self.stats
    }

    fn alloc_nvme(&mut self, nlb: u32) -> Result<u64, DaosError> {
        if let Some(pos) = self.free_extents.iter().position(|&(_, n)| n >= nlb) {
            let (slba, n) = self.free_extents.swap_remove(pos);
            if n > nlb {
                self.free_extents.push((slba + nlb as u64, n - nlb));
            }
            return Ok(slba);
        }
        if self.nvme_next + nlb as u64 > self.nvme_limit {
            return Err(DaosError::NvmeFull);
        }
        let slba = self.nvme_next;
        self.nvme_next += nlb as u64;
        Ok(slba)
    }

    /// Persists `data`, choosing media by size. Returns the location, the
    /// stored (possibly padded) bytes, and the media completion time.
    fn place(
        &mut self,
        now: SimTime,
        media: &mut ShardBdev<'_>,
        data: &Bytes,
    ) -> Result<(Location, Bytes, SimTime), DaosError> {
        if data.len() as u64 <= self.scm_threshold {
            let oid = self.scm.alloc(data.len().max(1) as u64)?;
            self.scm.write_bytes(oid, 0, data)?;
            let done = self.scm.timed_write(now, data.len() as u64);
            self.stats.scm_records += 1;
            Ok((Location::Scm(oid), data.clone(), done))
        } else {
            let nlb = (data.len() as u64).div_ceil(LBA_SIZE) as u32;
            let slba = self.alloc_nvme(nlb)?;
            // Pad the tail block so the device write is LBA-aligned.
            let padded = if (data.len() as u64).is_multiple_of(LBA_SIZE) {
                data.clone()
            } else {
                let mut b = BytesMut::with_capacity((nlb as usize) * LBA_SIZE as usize);
                b.extend_from_slice(data);
                b.resize((nlb as usize) * LBA_SIZE as usize, 0);
                b.freeze()
            };
            let done = media.write(now, slba, padded.clone())?;
            self.stats.nvme_records += 1;
            Ok((Location::Nvme { slba, nlb }, padded, done.at))
        }
    }

    /// Hands update-time chunk CRCs down to the media store that just
    /// persisted the record, so the store's own chunk-CRC cache starts
    /// seeded and the first fetch-verify compares instead of rescanning.
    /// The record's chunk grid is extent-relative on both media, so the
    /// tables line up exactly.
    fn seed_media_crcs(&mut self, media: &mut ShardBdev<'_>, loc: &Location, crcs: &[Checksum]) {
        let it = crcs.iter().map(|c| c.0);
        match loc {
            Location::Scm(oid) => self.scm.seed_crcs(*oid, 0, it),
            Location::Nvme { slba, .. } => media.seed_crc_cache(slba * LBA_SIZE, it),
        }
    }

    /// The one verify rule, shared by fetch and scrub and by both record
    /// kinds: whether a record's stored chunks `[c0, c1)` still hold the
    /// recorded checksums, compared one for one with the media store's
    /// cached chunk CRCs — clean payloads are neither rescanned nor folded.
    /// A table that does not cover the window is a mismatch.
    fn verify_chunks(
        &mut self,
        media: &mut ShardBdev<'_>,
        rec: &Record,
        c0: u64,
        c1: u64,
    ) -> Result<bool, DaosError> {
        let Some(recorded) = rec.checksums.get(c0 as usize..c1 as usize) else {
            return Ok(false);
        };
        let at = c0 * CSUM_CHUNK;
        let len = (c1 * CSUM_CHUNK).min(rec.stored_len) - at;
        let expected = recorded.iter().map(|c| c.0);
        match &rec.location {
            Location::Scm(oid) => Ok(self.scm.verify_chunks(*oid, at, len, expected)?),
            Location::Nvme { slba, .. } => {
                Ok(media.verify_chunks(slba * LBA_SIZE + at, len, expected))
            }
        }
    }

    /// Reads `[at, at+len)` of a record's *stored* bytes, loading only the
    /// checksum chunks that cover the range and verifying exactly those
    /// (see [`Self::verify_chunks`]); the returned bytes are a zero-copy
    /// slice of the store's extent.
    fn load_range(
        &mut self,
        now: SimTime,
        media: &mut ShardBdev<'_>,
        rec: &Record,
        at: u64,
        len: u64,
    ) -> Result<(Bytes, SimTime), DaosError> {
        // Chunk-align the window.
        let c0 = at / CSUM_CHUNK;
        let c1 = (at + len).div_ceil(CSUM_CHUNK);
        let win_lo = c0 * CSUM_CHUNK;
        let win_hi = (c1 * CSUM_CHUNK).min(rec.stored_len);
        let (stored, done) = match &rec.location {
            Location::Scm(oid) => {
                let data = self.scm.read(*oid, win_lo, (win_hi - win_lo) as usize)?;
                (data, self.scm.timed_read(now, win_hi - win_lo))
            }
            Location::Nvme { slba, .. } => {
                // CSUM_CHUNK == LBA_SIZE, so chunk windows are LBA-aligned.
                let lba0 = slba + win_lo / LBA_SIZE;
                let nlb = ((win_hi - win_lo).div_ceil(LBA_SIZE)) as u32;
                let c = media.read(now, lba0, nlb)?;
                let data = c.data.expect("bdev read returns data");
                (data.slice(0..(win_hi - win_lo) as usize), c.at)
            }
        };
        if !self.verify_chunks(media, rec, c0, c1)? {
            self.stats.checksum_failures += 1;
            return Err(DaosError::ChecksumMismatch);
        }
        let rel_lo = (at - win_lo) as usize;
        Ok((stored.slice(rel_lo..rel_lo + len as usize), done))
    }

    /// Reads a record's bytes back whole, unverified (the rebuild export:
    /// the importer checksums them afresh).
    fn load(
        &mut self,
        now: SimTime,
        media: &mut ShardBdev<'_>,
        rec: &Record,
    ) -> Result<(Bytes, SimTime), DaosError> {
        let len = rec.len;
        match rec.location {
            Location::Scm(oid) => {
                let data = self.scm.read(oid, 0, len as usize)?;
                Ok((data, self.scm.timed_read(now, len)))
            }
            Location::Nvme { slba, nlb } => {
                let c = media.read(now, slba, nlb)?;
                let data = c.data.expect("bdev read returns data");
                Ok((data.slice(0..len as usize), c.at))
            }
        }
    }

    /// The value store an update lands in (created on first use), stamped
    /// with the next reading of the arrival clock. Every path that adds a
    /// record — client updates, rebuild and scrub-repair imports — comes
    /// through here, so each one moves the record's version.
    fn store_for_update(&mut self, key: RecordKey) -> &mut ValueStore {
        self.arrivals += 1;
        let store = self
            .objects
            .entry(key.oid)
            .or_default()
            .entry(key)
            .or_default();
        store.version = RecordVersion(self.arrivals);
        store
    }

    /// The value store at `key`, if the target holds one.
    fn store(&self, key: &RecordKey) -> Option<&ValueStore> {
        self.objects.get(&key.oid)?.get(key)
    }

    /// The arrival version of the record at `key`:
    /// [`RecordVersion::ABSENT`] when the target holds nothing for it
    /// (never written, or punched). Read-only — no stats, no bookings.
    pub fn record_version(&self, key: &RecordKey) -> RecordVersion {
        self.store(key)
            .map_or(RecordVersion::ABSENT, |store| store.version)
    }

    /// Fetches the latest single value at or below `epoch`, whole.
    pub fn fetch_single(
        &mut self,
        now: SimTime,
        media: &mut ShardBdev<'_>,
        key: &RecordKey,
        epoch: Epoch,
    ) -> Result<(Bytes, SimTime), DaosError> {
        self.stats.fetches += 1;
        let rec = self
            .store(key)
            .and_then(|store| store.singles[..visible_len(&store.singles, epoch)].last())
            .ok_or(DaosError::NotFound)?
            .clone();
        self.load_range(now, media, &rec, 0, rec.len)
    }

    /// Writes a single value, or an array extent at its offset, with the
    /// chunk table of its stored bytes — which seeds the media store's CRC
    /// cache, so fetch-verify never rescans.
    pub fn update(
        &mut self,
        now: SimTime,
        media: &mut ShardBdev<'_>,
        key: RecordKey,
        kind: ValueKind,
        epoch: Epoch,
        data: Bytes,
    ) -> Result<SimTime, DaosError> {
        let len = data.len() as u64;
        let (location, stored, done) = self.place(now, media, &data)?;
        let checksums = chunk_checksums(&stored, &mut self.dp);
        if !checksums.is_empty() {
            self.seed_media_crcs(media, &location, &checksums);
        }
        let (records, offset) = match kind {
            ValueKind::Single => {
                self.stats.sv_updates += 1;
                (&mut self.store_for_update(key).singles, 0)
            }
            ValueKind::Array { offset } => {
                self.stats.array_updates += 1;
                (&mut self.store_for_update(key).extents, offset)
            }
        };
        // After every record of the same or an older epoch: `(epoch,
        // arrival)` order (an append unless epochs arrive out of order).
        let at = visible_len(records, epoch);
        records.insert(
            at,
            Record {
                epoch,
                offset,
                len,
                stored_len: stored.len() as u64,
                location,
                checksums,
            },
        );
        Ok(done)
    }

    /// Reads `[offset, offset+len)` of an array value at `epoch`. Each byte
    /// comes from the newest record at or below `epoch` that covers it —
    /// newest by `(epoch, arrival)`: a higher epoch wins wherever it sits
    /// in arrival order, and among records of one epoch the later arrival
    /// wins — and unwritten gaps read as zero. Only the records that serve
    /// at least one byte are loaded, and only over the bytes they serve.
    pub fn fetch_array(
        &mut self,
        now: SimTime,
        media: &mut ShardBdev<'_>,
        key: &RecordKey,
        epoch: Epoch,
        offset: u64,
        len: u64,
    ) -> Result<(Bytes, SimTime), DaosError> {
        self.stats.fetches += 1;
        let mut pieces = std::mem::take(&mut self.overlay_scratch);
        let extents = self.store(key).map_or(&[][..], |store| &store.extents);
        resolve_overlay(&mut pieces, extents, epoch, offset, len);
        let result = self.load_pieces(now, media, &pieces, offset, len);
        pieces.clear(); // release the record clones, keep the capacity
        self.overlay_scratch = pieces;
        result
    }

    /// Loads a resolved window (see [`resolve_overlay`]): a lone piece is
    /// shared zeros or the store's own slice, anything else is stitched.
    fn load_pieces(
        &mut self,
        now: SimTime,
        media: &mut ShardBdev<'_>,
        pieces: &[Piece],
        offset: u64,
        len: u64,
    ) -> Result<(Bytes, SimTime), DaosError> {
        match pieces {
            // Never-written range: a hole (refcounted shared zeros).
            [Piece { rec: None, .. }] => {
                self.dp.bytes_zero_copy += len;
                Ok((zero_bytes(len as usize), now))
            }
            // Zero-copy fast path: one record serves the whole window —
            // hand back the store's slice without materializing a buffer.
            [Piece { rec: Some(rec), .. }] => {
                self.load_range(now, media, rec, offset - rec.offset, len)
            }
            // Genuinely fragmented: stitch the segments into a fresh
            // buffer; the bytes no segment fills are the holes.
            _ => {
                let mut out = BytesMut::zeroed(len as usize);
                let mut latest = now;
                for p in pieces {
                    let Some(rec) = &p.rec else { continue };
                    let (data, done) =
                        self.load_range(now, media, rec, p.from - rec.offset, p.to - p.from)?;
                    latest = latest.max(done);
                    out[(p.from - offset) as usize..(p.to - offset) as usize]
                        .copy_from_slice(&data);
                }
                self.dp.bytes_copied += len;
                Ok((out.freeze(), latest))
            }
        }
    }

    /// Lists the dkeys of an object (directory enumeration path).
    pub fn list_dkeys(&self, oid: ObjectId) -> Vec<DKey> {
        let mut keys: Vec<DKey> = self
            .objects
            .get(&oid)
            .map(|o| o.keys().map(|k| k.dkey.clone()).collect())
            .unwrap_or_default();
        keys.dedup();
        keys
    }

    /// Removes the record at `key` (punch), freeing NVMe extents.
    pub fn punch(&mut self, key: &RecordKey) -> Result<(), DaosError> {
        let obj = self.objects.get_mut(&key.oid).ok_or(DaosError::NotFound)?;
        let store = obj.remove(key).ok_or(DaosError::NotFound)?;
        let records = store.extents.into_iter().chain(store.singles);
        self.reclaim(records.map(|r| r.location));
        Ok(())
    }

    /// Removes an entire object.
    pub fn punch_object(&mut self, oid: ObjectId) {
        if let Some(obj) = self.objects.remove(&oid) {
            let stores = obj.into_values();
            self.reclaim(
                stores
                    .flat_map(|s| s.extents.into_iter().chain(s.singles))
                    .map(|r| r.location),
            );
        }
    }

    /// Returns dropped records' media: NVMe extents to the free list for
    /// reuse, SCM objects to the pool.
    fn reclaim(&mut self, locations: impl IntoIterator<Item = Location>) {
        for location in locations {
            match location {
                Location::Nvme { slba, nlb } => self.free_extents.push((slba, nlb)),
                Location::Scm(o) => self.scm.free(o),
            }
        }
    }

    /// Epoch aggregation: reclaims records superseded at or below
    /// `boundary`. Single values keep only the newest visible record;
    /// extents fully covered by one newer extent (≤ boundary) are dropped.
    pub fn aggregate(&mut self, boundary: Epoch) {
        let mut dead = Vec::new();
        for store in self.objects.values_mut().flat_map(|o| o.values_mut()) {
            drop_shadowed(&mut store.singles, boundary, |_, _| true, &mut dead);
            drop_shadowed(
                &mut store.extents,
                boundary,
                |newer, r| newer.offset <= r.offset && newer.offset + newer.len >= r.offset + r.len,
                &mut dead,
            );
        }
        self.stats.aggregated_extents += dead.len() as u64;
        self.reclaim(dead);
    }

    /// The object ids this target holds records for (rebuild enumeration).
    pub fn list_objects(&self) -> Vec<ObjectId> {
        self.objects.keys().copied().collect()
    }

    /// Reads back every record of `oid` — single values and array extents,
    /// with their epochs — for re-replication. Media read time is charged
    /// (the rebuild source really streams its extents); checksums are
    /// *not* verified here — the importer recomputes them through the
    /// normal update path, and post-rebuild fetch-verify is the
    /// end-to-end check.
    pub fn export_records(
        &mut self,
        now: SimTime,
        media: &mut ShardBdev<'_>,
        oid: ObjectId,
    ) -> Result<(Vec<RecordDump>, SimTime), DaosError> {
        let Some(obj) = self.objects.get(&oid) else {
            return Ok((Vec::new(), now));
        };
        // Snapshot the index slice first (record clones are O(1): a chunk
        // table is inline, static or Arc-shared) so the media loads below can
        // borrow `self` mutably.
        let recs: Vec<(RecordKey, ValueKind, Record)> = obj
            .iter()
            .flat_map(|(key, s)| s.records().map(|(kind, r)| (key.clone(), kind, r.clone())))
            .collect();
        let mut out = Vec::new();
        let mut t_done = now;
        for (key, kind, r) in recs {
            let (data, t) = self.load(now, media, &r)?;
            t_done = t_done.max(t);
            out.push(RecordDump {
                key,
                epoch: r.epoch,
                kind,
                data,
            });
        }
        Ok((out, t_done))
    }

    /// Scrub-verifies every record of `oid`, of either kind, over its whole
    /// stored range by the fetch path's own rule ([`Self::verify_chunks`]).
    /// Bit-rot rewrites media bytes behind the index's back, invalidating
    /// the store's chunk-CRC cache for the touched chunks, so the
    /// comparison catches it — while a fully clean pass answers from
    /// caches and scans ~zero payload bytes.
    pub fn scrub_object(&mut self, media: &mut ShardBdev<'_>, oid: ObjectId) -> ScrubCheck {
        let Some(obj) = self.objects.get(&oid) else {
            return ScrubCheck::default();
        };
        // Record clones are O(1) (a chunk table is inline, static or
        // Arc-shared), so the checks below can borrow `self` mutably.
        let recs: Vec<Record> = obj
            .values()
            .flat_map(|s| s.records().map(|(_, r)| r.clone()))
            .collect();
        let mut check = ScrubCheck::default();
        for rec in recs {
            let chunks = rec.stored_len.div_ceil(CSUM_CHUNK);
            let clean = self.verify_chunks(media, &rec, 0, chunks).unwrap_or(false);
            check.records += 1;
            check.chunks += chunks;
            check.bytes += rec.stored_len;
            if !clean {
                check.bad += 1;
                self.stats.checksum_failures += 1;
            }
        }
        check
    }

    /// An order-insensitive fingerprint of `oid`'s logical record set:
    /// an FNV fold over the sorted `(dkey, akey, epoch, kind, len,
    /// recorded CRCs)` descriptors. Replicas holding the same version
    /// history — the state coordinated aggregation converges them to —
    /// fingerprint identically without touching any payload bytes;
    /// divergent record sets (a missed import, an unaggregated replica)
    /// do not.
    pub fn object_fingerprint(&self, oid: ObjectId) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        // (dkey, akey, epoch, extent offset or None for an SV, len,
        // folded recorded CRCs) — one row per record.
        type Desc<'a> = (&'a DKey, &'a AKey, Epoch, Option<u64>, u64, u64);
        let Some(obj) = self.objects.get(&oid) else {
            return OFFSET;
        };
        let mut descs: Vec<Desc<'_>> = Vec::new();
        for (key, store) in obj {
            for (kind, r) in store.records() {
                let offset = matches!(kind, ValueKind::Array { .. }).then_some(r.offset);
                let crc_fold = r
                    .checksums
                    .iter()
                    .fold(OFFSET, |h, c| (h ^ c.0 as u64).wrapping_mul(PRIME));
                descs.push((&key.dkey, &key.akey, r.epoch, offset, r.len, crc_fold));
            }
        }
        descs.sort();
        let mut h = OFFSET;
        let fold_bytes = |h: &mut u64, bytes: &[u8]| {
            for &b in bytes {
                *h = (*h ^ b as u64).wrapping_mul(PRIME);
            }
        };
        for (dkey, akey, epoch, offset, len, crc) in descs {
            fold_bytes(&mut h, dkey.as_bytes());
            fold_bytes(&mut h, akey.as_bytes());
            fold_bytes(&mut h, &epoch.0.to_le_bytes());
            fold_bytes(&mut h, &offset.map_or(u64::MAX, |o| o).to_le_bytes());
            fold_bytes(&mut h, &[u8::from(offset.is_some())]);
            fold_bytes(&mut h, &len.to_le_bytes());
            fold_bytes(&mut h, &crc.to_le_bytes());
        }
        h
    }

    /// The record owning this target's newest extent of `oid`, if any,
    /// with that extent's epoch — the deterministic victim for scheduled
    /// bit-rot injection (max epoch; key order breaks ties).
    pub fn newest_extent_key(&self, oid: ObjectId) -> Option<(RecordKey, Epoch)> {
        let obj = self.objects.get(&oid)?;
        let mut best: Option<(RecordKey, Epoch)> = None;
        for (key, store) in obj {
            if let Some(e) = store.extents.iter().map(|r| r.epoch).max() {
                if best.as_ref().is_none_or(|(_, b)| e > *b) {
                    best = Some((key.clone(), e));
                }
            }
        }
        best
    }

    /// Test hook: corrupts the newest extent's stored bytes so the next
    /// fetch detects a checksum mismatch.
    pub fn corrupt_newest_extent(&mut self, media: &mut ShardBdev<'_>, key: &RecordKey) -> bool {
        let Some(location) = self
            .store(key)
            .and_then(|s| s.extents.last())
            .map(|rec| rec.location.clone())
        else {
            return false;
        };
        match location {
            Location::Nvme { slba, .. } => {
                let backing = media.device_mut().backing_mut();
                let mut byte = backing.read(slba * LBA_SIZE, 1).to_vec();
                byte[0] ^= 0xFF;
                backing.write(slba * LBA_SIZE, &byte);
                true
            }
            Location::Scm(o) => {
                let cur = self.scm.read(o, 0, 1).unwrap();
                self.scm.write(o, 0, &[cur[0] ^ 0xFF]).unwrap();
                true
            }
        }
    }
}

impl Timed for VosTarget {
    /// Data-plane counters only: the target's own (checksum scans, stitch
    /// copies) and its SCM pool's store counters.
    fn visit(&mut self, v: &mut dyn Visit) {
        v.data_plane(self.dp);
        v.data_plane(self.scm.data_plane_stats());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ObjClass;
    use ros2_hw::NvmeModel;
    use ros2_nvme::{DataMode, NvmeArray};
    use ros2_spdk::BdevLayer;

    fn fixture() -> (VosTarget, BdevLayer) {
        let bdevs = BdevLayer::new(NvmeArray::new(
            NvmeModel::enterprise_1600(),
            1,
            DataMode::Stored,
        ));
        let vos = VosTarget::new(0, 0, 1 << 20, 64 << 20, 4096);
        (vos, bdevs)
    }

    fn oid() -> ObjectId {
        ObjectId::new(ObjClass::S1, 1)
    }

    /// The record at `(dkey, akey)` of [`oid`].
    fn key(dkey: DKey, akey: AKey) -> RecordKey {
        RecordKey {
            oid: oid(),
            dkey,
            akey,
        }
    }

    #[test]
    fn single_value_round_trip_scm() {
        let (mut vos, mut bd) = fixture();
        let data = Bytes::from_static(b"inode-entry");
        vos.update(
            SimTime::ZERO,
            &mut bd.shard(0),
            key(DKey::from_str("d"), AKey::from_str("a")),
            ValueKind::Single,
            Epoch(1),
            data.clone(),
        )
        .unwrap();
        let (back, _) = vos
            .fetch_single(
                SimTime::ZERO,
                &mut bd.shard(0),
                &key(DKey::from_str("d"), AKey::from_str("a")),
                Epoch::LATEST,
            )
            .unwrap();
        assert_eq!(back, data);
        assert_eq!(vos.stats().scm_records, 1); // 11 B <= threshold
    }

    #[test]
    fn large_values_go_to_nvme() {
        let (mut vos, mut bd) = fixture();
        let data = Bytes::from(vec![7u8; 1 << 20]);
        vos.update(
            SimTime::ZERO,
            &mut bd.shard(0),
            key(DKey::from_u64(0), AKey::from_str("data")),
            ValueKind::Array { offset: 0 },
            Epoch(1),
            data.clone(),
        )
        .unwrap();
        assert_eq!(vos.stats().nvme_records, 1);
        let (back, _) = vos
            .fetch_array(
                SimTime::from_secs(1),
                &mut bd.shard(0),
                &key(DKey::from_u64(0), AKey::from_str("data")),
                Epoch::LATEST,
                0,
                1 << 20,
            )
            .unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn epoch_versioning_reads_the_past() {
        let (mut vos, mut bd) = fixture();
        let d = DKey::from_str("d");
        let a = AKey::from_str("a");
        vos.update(
            SimTime::ZERO,
            &mut bd.shard(0),
            key(d.clone(), a.clone()),
            ValueKind::Single,
            Epoch(10),
            Bytes::from_static(b"v1"),
        )
        .unwrap();
        vos.update(
            SimTime::ZERO,
            &mut bd.shard(0),
            key(d.clone(), a.clone()),
            ValueKind::Single,
            Epoch(20),
            Bytes::from_static(b"v2"),
        )
        .unwrap();
        let (at15, _) = vos
            .fetch_single(
                SimTime::ZERO,
                &mut bd.shard(0),
                &key(d.clone(), a.clone()),
                Epoch(15),
            )
            .unwrap();
        assert_eq!(&at15[..], b"v1");
        let (latest, _) = vos
            .fetch_single(
                SimTime::ZERO,
                &mut bd.shard(0),
                &key(d.clone(), a.clone()),
                Epoch::LATEST,
            )
            .unwrap();
        assert_eq!(&latest[..], b"v2");
        // Before the first write: NotFound.
        assert_eq!(
            vos.fetch_single(
                SimTime::ZERO,
                &mut bd.shard(0),
                &key(d.clone(), a.clone()),
                Epoch(5)
            )
            .unwrap_err(),
            DaosError::NotFound
        );
    }

    #[test]
    fn extent_overlay_resolves_latest() {
        let (mut vos, mut bd) = fixture();
        let d = DKey::from_u64(0);
        let a = AKey::from_str("data");
        vos.update(
            SimTime::ZERO,
            &mut bd.shard(0),
            key(d.clone(), a.clone()),
            ValueKind::Array { offset: 0 },
            Epoch(1),
            Bytes::from(vec![1u8; 100]),
        )
        .unwrap();
        vos.update(
            SimTime::ZERO,
            &mut bd.shard(0),
            key(d.clone(), a.clone()),
            ValueKind::Array { offset: 50 },
            Epoch(2),
            Bytes::from(vec![2u8; 100]),
        )
        .unwrap();
        let (out, _) = vos
            .fetch_array(
                SimTime::ZERO,
                &mut bd.shard(0),
                &key(d.clone(), a.clone()),
                Epoch::LATEST,
                0,
                200,
            )
            .unwrap();
        assert!(out[..50].iter().all(|&b| b == 1));
        assert!(out[50..150].iter().all(|&b| b == 2));
        assert!(out[150..].iter().all(|&b| b == 0), "hole reads zero");
        // At epoch 1 the second write is invisible.
        let (old, _) = vos
            .fetch_array(
                SimTime::ZERO,
                &mut bd.shard(0),
                &key(d.clone(), a.clone()),
                Epoch(1),
                0,
                200,
            )
            .unwrap();
        assert!(old[..100].iter().all(|&b| b == 1));
        assert!(old[100..].iter().all(|&b| b == 0));
    }

    #[test]
    fn higher_epoch_wins_whatever_the_arrival_order() {
        let (mut vos, mut bd) = fixture();
        let (d, a) = (DKey::from_u64(0), AKey::from_str("data"));
        for (epoch, data) in [(Epoch(5), "new"), (Epoch(3), "old")] {
            let data = Bytes::from_static(data.as_bytes());
            vos.update(
                SimTime::ZERO,
                &mut bd.shard(0),
                key(d.clone(), a.clone()),
                ValueKind::Array { offset: 0 },
                epoch,
                data,
            )
            .unwrap();
        }
        let mut fetch = |epoch| {
            vos.fetch_array(
                SimTime::ZERO,
                &mut bd.shard(0),
                &key(d.clone(), a.clone()),
                epoch,
                0,
                3,
            )
            .unwrap()
            .0
        };
        assert_eq!(&fetch(Epoch::LATEST)[..], b"new");
        assert_eq!(&fetch(Epoch(4))[..], b"old");
    }

    #[test]
    fn arrival_version_moves_on_every_arrival_and_never_repeats() {
        let (mut vos, mut bd) = fixture();
        let (d, a) = (DKey::from_u64(0), AKey::from_str("data"));
        let other = DKey::from_u64(1);
        assert_eq!(
            vos.record_version(&key(d.clone(), a.clone())),
            RecordVersion::ABSENT
        );
        let mut seen = vec![RecordVersion::ABSENT];
        // A newer extent, a lower-epoch one arriving late (the newest
        // epoch stays 5), a single value under the same keys, and a write
        // to another record in between.
        let array = ValueKind::Array { offset: 0 };
        for (epoch, dkey, kind) in [
            (Epoch(5), &d, array),
            (Epoch(3), &d, array),
            (Epoch(9), &other, array),
            (Epoch(6), &d, ValueKind::Single),
        ] {
            let before = vos.record_version(&key(d.clone(), a.clone()));
            let (data, at) = (Bytes::from_static(b"abc"), SimTime::ZERO);
            let media = &mut bd.shard(0);
            vos.update(at, media, key(dkey.clone(), a.clone()), kind, epoch, data)
                .unwrap();
            let after = vos.record_version(&key(d.clone(), a.clone()));
            assert_eq!(after != before, dkey == &d, "only its own record moves");
            if dkey == &d {
                assert!(!seen.contains(&after), "a version never repeats");
                seen.push(after);
            }
        }
        // Punched, the record reads as absent; written again it draws a
        // number it never had — not the count of its arrivals over again.
        vos.punch(&key(d.clone(), a.clone())).unwrap();
        assert_eq!(
            vos.record_version(&key(d.clone(), a.clone())),
            RecordVersion::ABSENT
        );
        for _ in 0..3 {
            let data = Bytes::from_static(b"abc");
            vos.update(
                SimTime::ZERO,
                &mut bd.shard(0),
                key(d.clone(), a.clone()),
                ValueKind::Array { offset: 0 },
                Epoch(7),
                data,
            )
            .unwrap();
            let again = vos.record_version(&key(d.clone(), a.clone()));
            assert!(!seen.contains(&again), "a version never repeats");
            seen.push(again);
        }
    }

    #[test]
    fn corruption_is_detected() {
        let (mut vos, mut bd) = fixture();
        let d = DKey::from_u64(0);
        let a = AKey::from_str("data");
        vos.update(
            SimTime::ZERO,
            &mut bd.shard(0),
            key(d.clone(), a.clone()),
            ValueKind::Array { offset: 0 },
            Epoch(1),
            Bytes::from(vec![9u8; 8192]),
        )
        .unwrap();
        assert!(vos.corrupt_newest_extent(&mut bd.shard(0), &key(d.clone(), a.clone())));
        let err = vos
            .fetch_array(
                SimTime::ZERO,
                &mut bd.shard(0),
                &key(d.clone(), a.clone()),
                Epoch::LATEST,
                0,
                8192,
            )
            .unwrap_err();
        assert_eq!(err, DaosError::ChecksumMismatch);
        assert_eq!(vos.stats().checksum_failures, 1);
    }

    /// [`corruption_is_detected`] on a multi-chunk zero-pool record, whose
    /// media extent keeps no chunk-CRC cache and verifies in closed form:
    /// the corrupting write makes an extent of its own, so the fetch and
    /// the scrub both see the mismatch — with the record on NVMe and on SCM.
    #[test]
    fn corruption_of_a_zero_pool_record_is_detected() {
        const LEN: usize = 4 * CSUM_CHUNK as usize;
        // (SCM threshold, NVMe records, SCM records)
        for (scm_threshold, nvme, scm) in [(4096, 1, 0), (LEN as u64, 0, 1)] {
            let mut bd = BdevLayer::new(NvmeArray::new(
                NvmeModel::enterprise_1600(),
                1,
                DataMode::Stored,
            ));
            let mut vos = VosTarget::new(0, 0, 1 << 20, 64 << 20, scm_threshold);
            let (d, a) = (DKey::from_u64(0), AKey::from_str("data"));
            let data = zero_bytes(LEN);
            assert!(ros2_buf::is_shared_zeros(&data));
            vos.update(
                SimTime::ZERO,
                &mut bd.shard(0),
                key(d.clone(), a.clone()),
                ValueKind::Array { offset: 0 },
                Epoch(1),
                data,
            )
            .unwrap();
            let stats = vos.stats();
            assert_eq!((stats.nvme_records, stats.scm_records), (nvme, scm));
            let fetch = |vos: &mut VosTarget, bd: &mut BdevLayer| {
                let (at, epoch) = (SimTime::ZERO, Epoch::LATEST);
                vos.fetch_array(
                    at,
                    &mut bd.shard(0),
                    &key(d.clone(), a.clone()),
                    epoch,
                    0,
                    LEN as u64,
                )
                .map(|(data, _)| data)
            };
            assert!(fetch(&mut vos, &mut bd).unwrap().iter().all(|&b| b == 0));
            assert!(vos.corrupt_newest_extent(&mut bd.shard(0), &key(d.clone(), a.clone())));
            let err = fetch(&mut vos, &mut bd).unwrap_err();
            assert_eq!(err, DaosError::ChecksumMismatch);
            assert_eq!(vos.scrub_object(&mut bd.shard(0), oid()).bad, 1);
            assert_eq!(vos.stats().checksum_failures, 2, "scm {scm}");
        }
    }

    #[test]
    fn punch_frees_extents_for_reuse() {
        let (mut vos, mut bd) = fixture();
        let d = DKey::from_u64(0);
        let a = AKey::from_str("data");
        vos.update(
            SimTime::ZERO,
            &mut bd.shard(0),
            key(d.clone(), a.clone()),
            ValueKind::Array { offset: 0 },
            Epoch(1),
            Bytes::from(vec![1u8; 64 << 10]),
        )
        .unwrap();
        let frontier_before = vos.nvme_next;
        vos.punch(&key(d.clone(), a.clone())).unwrap();
        // A same-size rewrite reuses the freed extent.
        vos.update(
            SimTime::ZERO,
            &mut bd.shard(0),
            key(d.clone(), a.clone()),
            ValueKind::Array { offset: 0 },
            Epoch(2),
            Bytes::from(vec![2u8; 64 << 10]),
        )
        .unwrap();
        assert_eq!(vos.nvme_next, frontier_before, "extent was recycled");
    }

    #[test]
    fn aggregation_reclaims_shadowed_records() {
        let (mut vos, mut bd) = fixture();
        let d = DKey::from_u64(0);
        let a = AKey::from_str("data");
        for e in 1..=5u64 {
            vos.update(
                SimTime::ZERO,
                &mut bd.shard(0),
                key(d.clone(), a.clone()),
                ValueKind::Array { offset: 0 },
                Epoch(e),
                Bytes::from(vec![e as u8; 32 << 10]),
            )
            .unwrap();
        }
        vos.aggregate(Epoch(5));
        assert_eq!(vos.stats().aggregated_extents, 4);
        // Content unchanged after aggregation.
        let (out, _) = vos
            .fetch_array(
                SimTime::ZERO,
                &mut bd.shard(0),
                &key(d.clone(), a.clone()),
                Epoch::LATEST,
                0,
                32 << 10,
            )
            .unwrap();
        assert!(out.iter().all(|&b| b == 5));
    }

    #[test]
    fn nvme_exhaustion_reported() {
        let bdevs = BdevLayer::new(NvmeArray::new(
            NvmeModel::enterprise_1600(),
            1,
            DataMode::Stored,
        ));
        let mut bd = bdevs;
        // A tiny 8-block slice.
        let mut vos = VosTarget::new(0, 0, 8, 64 << 20, 4096);
        let d = DKey::from_u64(0);
        let a = AKey::from_str("x");
        vos.update(
            SimTime::ZERO,
            &mut bd.shard(0),
            key(d.clone(), a.clone()),
            ValueKind::Array { offset: 0 },
            Epoch(1),
            Bytes::from(vec![0u8; 8 * 4096]),
        )
        .unwrap();
        let err = vos
            .update(
                SimTime::ZERO,
                &mut bd.shard(0),
                key(d, a),
                ValueKind::Array { offset: 0 },
                Epoch(2),
                Bytes::from(vec![0u8; 8192]),
            )
            .unwrap_err();
        assert_eq!(err, DaosError::NvmeFull);
    }

    #[test]
    fn repeat_fetches_never_rescan_clean_payloads() {
        let (mut vos, mut bd) = fixture();
        let d = DKey::from_u64(0);
        let a = AKey::from_str("data");
        let data = Bytes::from(vec![0x42u8; 256 << 10]);
        vos.update(
            SimTime::ZERO,
            &mut bd.shard(0),
            key(d.clone(), a.clone()),
            ValueKind::Array { offset: 0 },
            Epoch(1),
            data.clone(),
        )
        .unwrap();
        // A single value beside it verifies by the same compare.
        let (sd, inode) = (DKey::from_str("meta"), Bytes::from_static(b"inode-entry"));
        vos.update(
            SimTime::ZERO,
            &mut bd.shard(0),
            key(sd.clone(), a.clone()),
            ValueKind::Single,
            Epoch(1),
            inode.clone(),
        )
        .unwrap();
        let fetch = |vos: &mut VosTarget, bd: &mut BdevLayer| {
            let (out, _) = vos
                .fetch_array(
                    SimTime::ZERO,
                    &mut bd.shard(0),
                    &key(d.clone(), a.clone()),
                    Epoch::LATEST,
                    0,
                    256 << 10,
                )
                .unwrap();
            assert_eq!(out, data);
            let (value, _) = vos
                .fetch_single(
                    SimTime::ZERO,
                    &mut bd.shard(0),
                    &key(sd.clone(), a.clone()),
                    Epoch::LATEST,
                )
                .unwrap();
            assert_eq!(value, inode);
        };
        let merged = |vos: &mut VosTarget, bd: &mut BdevLayer| {
            let mut s = vos.data_plane_stats();
            s.merge(bd.data_plane_stats());
            s
        };
        let after_update = merged(&mut vos, &mut bd);
        for _ in 0..5 {
            fetch(&mut vos, &mut bd);
        }
        let after_fetches = merged(&mut vos, &mut bd);
        assert_eq!(
            after_fetches.crc_bytes_scanned, after_update.crc_bytes_scanned,
            "verify must compare cached CRCs, not rescan"
        );
        assert_eq!(
            after_fetches.crc_combines, after_update.crc_combines,
            "verify must compare chunk CRCs, not fold them"
        );
        assert_eq!(
            after_fetches.bytes_copied, after_update.bytes_copied,
            "single-record fetches must stay zero-copy"
        );
    }

    #[test]
    fn update_seeds_media_crc_caches() {
        // The very first fetch-verify must run off the CRCs handed down at
        // update time — zero additional payload bytes scanned, on both the
        // NVMe and the SCM tier, and no combine for the chunked record.
        let (mut vos, mut bd) = fixture();
        let d = DKey::from_u64(0);
        let a = AKey::from_str("data");
        vos.update(
            SimTime::ZERO,
            &mut bd.shard(0),
            key(d.clone(), a.clone()),
            ValueKind::Array { offset: 0 },
            Epoch(1),
            Bytes::from(vec![0x42u8; 256 << 10]), // NVMe-bound
        )
        .unwrap();
        vos.update(
            SimTime::ZERO,
            &mut bd.shard(0),
            key(DKey::from_str("meta"), AKey::from_str("v")),
            ValueKind::Single,
            Epoch(1),
            Bytes::from_static(b"inode"), // SCM-bound
        )
        .unwrap();
        let merged = |vos: &mut VosTarget, bd: &mut BdevLayer| {
            let mut s = vos.data_plane_stats();
            s.merge(bd.data_plane_stats());
            s
        };
        let after_update = merged(&mut vos, &mut bd);
        assert!(
            after_update.crc_cache_seeded > 64,
            "update must seed media chunk CRCs (seeded {})",
            after_update.crc_cache_seeded
        );
        vos.fetch_array(
            SimTime::ZERO,
            &mut bd.shard(0),
            &key(d.clone(), a.clone()),
            Epoch::LATEST,
            0,
            256 << 10,
        )
        .unwrap();
        let after_array = merged(&mut vos, &mut bd);
        assert_eq!(after_array.crc_combines, after_update.crc_combines);
        vos.fetch_single(
            SimTime::ZERO,
            &mut bd.shard(0),
            &key(DKey::from_str("meta"), AKey::from_str("v")),
            Epoch::LATEST,
        )
        .unwrap();
        let after_fetch = merged(&mut vos, &mut bd);
        assert_eq!(
            after_fetch.crc_bytes_scanned, after_update.crc_bytes_scanned,
            "first fetch-verify must run entirely off seeded CRC caches"
        );
    }

    /// Flips one stored byte of the newest record of `(d, a)` — its newest
    /// extent, or its newest single value when it holds no extent — at
    /// `at` (record-relative), behind the index's back.
    fn rot_byte(vos: &mut VosTarget, bd: &mut BdevLayer, d: &DKey, a: &AKey, at: u64) {
        let key = key(d.clone(), a.clone());
        let store = vos.store(&key).unwrap();
        let loc = store.records().last().unwrap().1.location.clone();
        match loc {
            Location::Nvme { slba, .. } => {
                let mut shard = bd.shard(0);
                let backing = shard.device_mut().backing_mut();
                let byte = backing.read(slba * LBA_SIZE + at, 1)[0];
                backing.write(slba * LBA_SIZE + at, &[byte ^ 0x10]);
            }
            Location::Scm(o) => {
                let byte = vos.scm.read(o, at, 1).unwrap()[0];
                vos.scm.write(o, at, &[byte ^ 0x10]).unwrap();
            }
        }
    }

    /// Rot in a middle chunk and in the tail chunk, of a 1 MiB NVMe record
    /// and of a ~10 KiB SCM record: a window over the rotten chunk fails
    /// the verify, one of the same record that excludes it still passes,
    /// and a scrub reports the record bad.
    #[test]
    fn rot_fails_exactly_the_windows_that_cover_it() {
        for (len, nvme) in [(1u64 << 20, true), (10_000, false)] {
            let tail = (len - 1) / CSUM_CHUNK;
            for rotten in [tail / 2, tail] {
                // SCM threshold 16 KiB: the 10 000-byte record stays in pmem.
                let (_, mut bd) = fixture();
                let mut vos = VosTarget::new(0, 0, 1 << 20, 64 << 20, 16 << 10);
                let (d, a) = (DKey::from_u64(rotten), AKey::from_str("data"));
                let data: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
                let media = &mut bd.shard(0);
                let (t, e) = (SimTime::ZERO, Epoch(1));
                vos.update(
                    t,
                    media,
                    key(d.clone(), a.clone()),
                    ValueKind::Array { offset: 0 },
                    e,
                    data.clone().into(),
                )
                .unwrap();
                assert_eq!(vos.stats().nvme_records == 1, nvme);
                let lo = rotten * CSUM_CHUNK;
                rot_byte(&mut vos, &mut bd, &d, &a, lo + 1234);
                let mut fetch = |vos: &mut VosTarget, at: u64, n: u64| {
                    let media = &mut bd.shard(0);
                    let r =
                        vos.fetch_array(t, media, &key(d.clone(), a.clone()), Epoch::LATEST, at, n);
                    r.map(|(b, _)| b)
                };
                let case = format!("len {len}, rotten chunk {rotten}");
                // Over the rotten chunk: the whole record, and a window
                // that starts in the chunk before it.
                for (at, n) in [(0, len), (lo - 100, 200)] {
                    let failures = vos.stats().checksum_failures;
                    let err = fetch(&mut vos, at, n).unwrap_err();
                    assert_eq!(err, DaosError::ChecksumMismatch, "{case}: ({at}, {n})");
                    assert_eq!(vos.stats().checksum_failures, failures + 1, "{case}");
                }
                // Every chunk before it, and every chunk after it.
                let after = (lo + CSUM_CHUNK).min(len);
                for (at, n) in [(0, lo), (after, len - after)] {
                    if n > 0 {
                        let got = fetch(&mut vos, at, n).unwrap();
                        assert_eq!(&got[..], &data[at as usize..(at + n) as usize], "{case}");
                    }
                }
                let check = vos.scrub_object(&mut bd.shard(0), oid());
                assert_eq!((check.records, check.bad), (1, 1), "{case}");
            }
        }
        // A 3 000-byte single value in SCM, and one bound for NVMe (SCM
        // threshold 1 KiB, below the chunk): rot fails its fetch and its
        // scrub, and a sibling value written beside it still passes both.
        for (threshold, nvme) in [(16u64 << 10, false), (1 << 10, true)] {
            let (_, mut bd) = fixture();
            let mut vos = VosTarget::new(0, 0, 1 << 20, 64 << 20, threshold);
            let (a, t, sv) = (AKey::from_str("v"), SimTime::ZERO, ValueKind::Single);
            let [rotten, sibling] = ["r", "s"].map(DKey::from_str);
            let data = Bytes::from((0..3000u32).map(|i| (i % 253) as u8).collect::<Vec<_>>());
            for d in [&rotten, &sibling] {
                let media = &mut bd.shard(0);
                vos.update(
                    t,
                    media,
                    key(d.clone(), a.clone()),
                    sv,
                    Epoch(1),
                    data.clone(),
                )
                .unwrap();
            }
            assert_eq!(vos.stats().nvme_records, if nvme { 2 } else { 0 });
            rot_byte(&mut vos, &mut bd, &rotten, &a, 1234);
            let mut fetch = |vos: &mut VosTarget, d: &DKey| {
                let media = &mut bd.shard(0);
                vos.fetch_single(t, media, &key(d.clone(), a.clone()), Epoch::LATEST)
                    .map(|(b, _)| b)
            };
            let case = format!("scm threshold {threshold}");
            let err = fetch(&mut vos, &rotten).unwrap_err();
            assert_eq!(err, DaosError::ChecksumMismatch, "{case}");
            assert_eq!(vos.stats().checksum_failures, 1, "{case}");
            assert_eq!(fetch(&mut vos, &sibling).unwrap(), data, "{case}");
            let c = vos.scrub_object(&mut bd.shard(0), oid());
            assert_eq!((c.records, c.chunks, c.bad), (2, 2, 1), "{case}");
        }
    }

    #[test]
    fn nvme_bound_single_values_seed_their_padded_table_and_verify_by_compare() {
        // With scm_threshold below the checksum chunk, a small single value
        // lands on NVMe and gets LBA-padded. Its chunk table describes the
        // padded stored block (debug builds check every seeded CRC against
        // the bytes), so it seeds the media cache like an array extent and
        // the fetch compares — scanning and folding nothing.
        let bdevs = BdevLayer::new(NvmeArray::new(
            NvmeModel::enterprise_1600(),
            1,
            DataMode::Stored,
        ));
        let mut bd = bdevs;
        let mut vos = VosTarget::new(0, 0, 1 << 20, 64 << 20, 1024);
        let d = DKey::from_str("k");
        let a = AKey::from_str("v");
        let data = Bytes::from(vec![0x3Cu8; 2000]); // > threshold, < chunk
        vos.update(
            SimTime::ZERO,
            &mut bd.shard(0),
            key(d.clone(), a.clone()),
            ValueKind::Single,
            Epoch(1),
            data.clone(),
        )
        .unwrap();
        assert_eq!(vos.stats().nvme_records, 1);
        let merged = |vos: &mut VosTarget, bd: &mut BdevLayer| {
            let mut s = vos.data_plane_stats();
            s.merge(bd.data_plane_stats());
            s
        };
        let after_update = merged(&mut vos, &mut bd);
        assert_eq!(after_update.crc_cache_seeded, 1, "one padded 4 KiB chunk");
        let (back, _) = vos
            .fetch_single(
                SimTime::ZERO,
                &mut bd.shard(0),
                &key(d.clone(), a.clone()),
                Epoch::LATEST,
            )
            .unwrap();
        assert_eq!(back, data);
        let after_fetch = merged(&mut vos, &mut bd);
        assert_eq!(
            (after_fetch.crc_bytes_scanned, after_fetch.crc_combines),
            (after_update.crc_bytes_scanned, after_update.crc_combines)
        );
        assert_eq!(vos.scrub_object(&mut bd.shard(0), oid()).bad, 0);
    }

    #[test]
    fn whole_range_fetch_is_zero_copy() {
        let (mut vos, mut bd) = fixture();
        let d = DKey::from_u64(0);
        let a = AKey::from_str("data");
        vos.update(
            SimTime::ZERO,
            &mut bd.shard(0),
            key(d.clone(), a.clone()),
            ValueKind::Array { offset: 0 },
            Epoch(1),
            Bytes::from(vec![7u8; 1 << 20]),
        )
        .unwrap();
        let copied_before =
            vos.data_plane_stats().bytes_copied + bd.data_plane_stats().bytes_copied;
        vos.fetch_array(
            SimTime::ZERO,
            &mut bd.shard(0),
            &key(d.clone(), a.clone()),
            Epoch::LATEST,
            0,
            1 << 20,
        )
        .unwrap();
        // Interior sub-range too: still one covering record.
        vos.fetch_array(
            SimTime::ZERO,
            &mut bd.shard(0),
            &key(d.clone(), a.clone()),
            Epoch::LATEST,
            8192,
            64 << 10,
        )
        .unwrap();
        let copied_after = vos.data_plane_stats().bytes_copied + bd.data_plane_stats().bytes_copied;
        assert_eq!(copied_before, copied_after, "no memcpy on covered reads");
    }

    #[test]
    fn list_dkeys_enumerates() {
        let (mut vos, mut bd) = fixture();
        for i in 0..4u64 {
            vos.update(
                SimTime::ZERO,
                &mut bd.shard(0),
                key(DKey::from_u64(i), AKey::from_str("e")),
                ValueKind::Single,
                Epoch(1),
                Bytes::from_static(b"x"),
            )
            .unwrap();
        }
        assert_eq!(vos.list_dkeys(oid()).len(), 4);
        assert!(vos.list_dkeys(ObjectId::new(ObjClass::S1, 99)).is_empty());
    }
}
