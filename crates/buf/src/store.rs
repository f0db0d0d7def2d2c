//! The zero-copy extent store: written data kept as `Bytes` handles in one
//! vector of `(addr, extent)` pairs sorted by address, with lazy per-chunk
//! CRC32C caching.
//!
//! Every writer in the workspace places new data at rising addresses (the
//! SCM heap's frontier, the NVMe bump allocator, a NIC buffer overwritten
//! in place), so nearly every insert lands at the vector's tail. Lookups
//! answer from the last entry first and binary-search (`partition_point`)
//! only when the address lies before it; an insert or a removal in the
//! middle is one memmove of the entries after it — O(n) at worst, counted
//! in [`DataPlaneStats::extents_shifted`].
//!
//! Invariants (checked by the model tests in `tests/extent_model.rs`):
//!
//! * extents are sorted by start address and never overlap;
//! * a read returns exactly overlay-of-writes semantics, with unwritten
//!   gaps reading as zero;
//! * [`ExtentStore::crc_of_range`] equals `crc32c` of the bytes
//!   [`ExtentStore::read`] would return for the same range, always;
//! * [`ExtentStore::verify_chunks`] is true iff every [`CRC_CHUNK`] of the
//!   window, counted from its start, has the `crc32c` its expected entry
//!   names — of the same bytes `read` would return;
//! * a chunk CRC cache entry is dropped whenever its extent is trimmed or
//!   overwritten, so cached CRCs can never describe stale bytes;
//! * an extent whose handle is a slice of the shared zero pool
//!   ([`is_shared_zeros`]) keeps no chunk CRCs at all: its whole chunks
//!   answer with the closed-form [`crc32c_zeros`]. Bytes written over it
//!   make a new extent of their own, which caches as any other does.

use std::ops::Range;
use std::sync::OnceLock;

use bytes::{Bytes, BytesMut};

use crate::crc::{crc32c, crc32c_combine, crc32c_zeros};

/// CRC cache granularity within an extent (matches the VOS checksum chunk
/// and the NVMe LBA, so record-relative chunk windows line up with the
/// extent-relative cache grid).
pub const CRC_CHUNK: u64 = 4096;

/// Size of the shared all-zero buffer hole reads slice from: the longest
/// payload [`is_shared_zeros`] can recognize.
pub const ZERO_POOL: usize = 4 << 20;

fn shared_zeros() -> &'static Bytes {
    static ZEROS: OnceLock<Bytes> = OnceLock::new();
    ZEROS.get_or_init(|| Bytes::from(vec![0u8; ZERO_POOL]))
}

/// A refcounted all-zero buffer of `len` bytes; zero-copy (a slice of one
/// shared pool) for lengths up to 4 MiB.
pub fn zero_bytes(len: usize) -> Bytes {
    let pool = shared_zeros();
    if len <= pool.len() {
        pool.slice(0..len)
    } else {
        Bytes::from(vec![0u8; len])
    }
}

/// Whether `b` is a slice of the shared zero pool — i.e. known all-zero
/// without reading it. Checksum paths use this to answer zero-run CRCs in
/// closed form instead of scanning megabytes of zeros (hole
/// materialization, zero-fill staging, synthetic throughput payloads).
pub fn is_shared_zeros(b: &Bytes) -> bool {
    let pool = shared_zeros();
    let lo = pool.as_ptr() as usize;
    let hi = lo + pool.len();
    let p = b.as_ptr() as usize;
    p >= lo && p + b.len() <= hi
}

/// The CRC32C of a payload handle: closed-form for slices of the shared
/// zero pool (see [`is_shared_zeros`]), one scan otherwise.
pub fn bytes_crc32c(b: &Bytes) -> u32 {
    if is_shared_zeros(b) {
        crc32c_zeros(b.len() as u64)
    } else {
        crc32c(b)
    }
}

/// Data-plane counters, threaded alongside the booking-core
/// `ResourceStats`: how many payload bytes moved by handle vs by memcpy,
/// and how much CRC work was real scanning vs cache-and-combine.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DataPlaneStats {
    /// Payload bytes that crossed a store boundary via memcpy (stitched
    /// fragmented reads, slice-only writes, synthetic pattern reads).
    pub bytes_copied: u64,
    /// Payload bytes that crossed as refcounted `Bytes` handles/slices.
    pub bytes_zero_copy: u64,
    /// Bytes actually scanned to compute a CRC (cache misses and payload
    /// checksumming at update time).
    pub crc_bytes_scanned: u64,
    /// CRC32C combine operations that replaced a scan.
    pub crc_combines: u64,
    /// Chunk-CRC cache entries seeded by a writer that had already computed
    /// them (update-path checksums handed down), sparing the store its own
    /// first-fill scan of the same bytes.
    pub crc_cache_seeded: u64,
    /// Extent-index entries moved by an insert or a removal short of the
    /// index's tail (appends move none).
    pub extents_shifted: u64,
}

impl DataPlaneStats {
    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: DataPlaneStats) {
        self.bytes_copied += other.bytes_copied;
        self.bytes_zero_copy += other.bytes_zero_copy;
        self.crc_bytes_scanned += other.crc_bytes_scanned;
        self.crc_combines += other.crc_combines;
        self.crc_cache_seeded += other.crc_cache_seeded;
        self.extents_shifted += other.extents_shifted;
    }
}

/// One written extent: the adopted buffer plus its lazily filled per-chunk
/// CRC cache (chunk `i` covers extent-relative `[i*CRC_CHUNK,
/// min((i+1)*CRC_CHUNK, len))`).
#[derive(Debug)]
struct Extent {
    data: Bytes,
    crcs: ChunkCrcs,
}

/// An extent's chunk-CRC cache. A one-chunk extent (a 4 KiB record) holds
/// its one entry inline, so writing, seeding and verifying it allocate
/// nothing; a longer extent's table is boxed on first use — state that
/// lives as long as the extent does. An extent whose handle is a slice of
/// the shared zero pool never fills its cache (its chunks answer with
/// [`crc32c_zeros`]), so writing, seeding and verifying zero payloads of
/// any length allocate nothing for it.
#[derive(Debug)]
enum ChunkCrcs {
    Inline(Option<u32>),
    Boxed(Option<Box<[Option<u32>]>>),
}

impl ChunkCrcs {
    /// The cache's entries for an extent of `len` bytes, one per chunk.
    fn slots(&mut self, len: usize) -> &mut [Option<u32>] {
        match self {
            ChunkCrcs::Inline(c) => std::slice::from_mut(c),
            ChunkCrcs::Boxed(t) => t.get_or_insert_with(|| empty_cache(len)),
        }
    }
}

impl Extent {
    fn new(data: Bytes) -> Self {
        let crcs = match data.len() as u64 <= CRC_CHUNK {
            true => ChunkCrcs::Inline(None),
            false => ChunkCrcs::Boxed(None),
        };
        Extent { data, crcs }
    }
    fn end(&self, start: u64) -> u64 {
        start + self.data.len() as u64
    }
}

/// The extents, sorted by start address: one vector that VOS's rising
/// placement fills at the tail. Bounds answer in O(1) from the last entry
/// when the address lies beyond its start, by binary search otherwise; an
/// insert or a removal before the tail counts the entries it moves.
#[derive(Debug, Default)]
struct ExtentIndex {
    entries: Vec<(u64, Extent)>,
    shifted: u64,
}

impl ExtentIndex {
    /// The position of the first extent starting at or after `at`.
    fn lower_bound(&self, at: u64) -> usize {
        match self.entries.last() {
            Some(&(s, _)) if s >= at => self.entries.partition_point(|&(s, _)| s < at),
            _ => self.entries.len(),
        }
    }

    /// The position of the first extent starting after `at`.
    fn upper_bound(&self, at: u64) -> usize {
        match self.entries.last() {
            Some(&(s, _)) if s > at => self.entries.partition_point(|&(s, _)| s <= at),
            _ => self.entries.len(),
        }
    }

    /// The extent that starts exactly at `at`.
    fn get_mut(&mut self, at: u64) -> Option<&mut Extent> {
        let i = self.upper_bound(at).checked_sub(1)?;
        let (s, ext) = &mut self.entries[i];
        (*s == at).then_some(ext)
    }

    /// The nearest extent starting at or before `at`, with its start.
    fn at_or_before_mut(&mut self, at: u64) -> Option<(u64, &mut Extent)> {
        let i = self.upper_bound(at).checked_sub(1)?;
        let (s, ext) = &mut self.entries[i];
        Some((*s, ext))
    }

    /// The extents that may overlap `[at, end)`: from the nearest one
    /// starting at or before `at` up to the last one starting before `end`.
    fn overlapping(&mut self, at: u64, end: u64) -> impl Iterator<Item = &mut (u64, Extent)> {
        let from = self.upper_bound(at).saturating_sub(1);
        self.entries[from..]
            .iter_mut()
            .take_while(move |&&mut (s, _)| s < end)
    }

    /// Inserts the extent starting at `at` at position `i`, which keeps
    /// the entries sorted.
    fn insert(&mut self, i: usize, at: u64, ext: Extent) {
        debug_assert!(i == 0 || self.entries[i - 1].0 < at);
        debug_assert!(i == self.entries.len() || at < self.entries[i].0);
        self.shifted += (self.entries.len() - i) as u64;
        self.entries.insert(i, (at, ext));
    }

    /// Removes the entries at positions `run`.
    fn remove(&mut self, run: Range<usize>) {
        self.shifted += (self.entries.len() - run.end) as u64;
        self.entries.drain(run);
    }
}

/// A sparse byte store of non-overlapping zero-copy extents.
#[derive(Debug, Default)]
pub struct ExtentStore {
    extents: ExtentIndex,
    stats: DataPlaneStats,
}

impl ExtentStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ExtentStore::default()
    }

    /// Snapshot of the data-plane counters.
    pub fn stats(&self) -> DataPlaneStats {
        DataPlaneStats {
            extents_shifted: self.extents.shifted,
            ..self.stats
        }
    }

    /// Number of live extents.
    #[cfg(test)]
    fn extent_count(&self) -> usize {
        self.extents.entries.len()
    }

    /// Number of distinct `page`-sized pages the live extents touch (the
    /// compatibility metric for the former paged stores' `resident_pages`).
    pub fn covered_pages(&self, page: u64) -> usize {
        let mut pages = 0u64;
        let mut next = 0u64;
        for (s, e) in &self.extents.entries {
            let first = (s / page).max(next);
            let last = e.end(*s).div_ceil(page);
            if last > first {
                pages += last - first;
                next = last;
            }
        }
        pages as usize
    }

    /// Removes everything stored in `[at, at+len)`; trimmed neighbours are
    /// split zero-copy. The range reads as zero afterwards.
    pub fn discard(&mut self, at: u64, len: u64) {
        if len > 0 {
            self.carve(at, at + len);
        }
    }

    /// Stores `data` at `at`, adopting the caller's buffer zero-copy.
    /// Overlapped older extents are trimmed/split lazily (`Bytes::slice`).
    pub fn write(&mut self, at: u64, data: Bytes) {
        let len = data.len() as u64;
        if len == 0 {
            return;
        }
        self.stats.bytes_zero_copy += len;
        // Exact overwrite (a completion record, a staging buffer's steady
        // state): extents never overlap, so one that starts here with this
        // length is the only one in the range — swap its handle in place.
        if let Some(old) = self.extents.get_mut(at) {
            if old.data.len() as u64 == len {
                *old = Extent::new(data);
                return;
            }
        }
        let i = self.carve(at, at + len);
        self.extents.insert(i, at, Extent::new(data));
    }

    /// Stores a borrowed slice (one copy into a fresh buffer — for callers
    /// that do not own a `Bytes` handle).
    pub fn write_slice(&mut self, at: u64, data: &[u8]) {
        let len = data.len() as u64;
        if len == 0 {
            return;
        }
        let i = self.carve(at, at + len);
        self.stats.bytes_copied += len;
        let ext = Extent::new(Bytes::copy_from_slice(data));
        self.extents.insert(i, at, ext);
    }

    /// Seeds the per-chunk CRC cache of the extent that starts exactly at
    /// `at` — for writers (the VOS update path) that computed chunk CRCs of
    /// the written bytes anyway. `crcs` must yield one CRC32C per
    /// [`CRC_CHUNK`] of the extent's data, in order, covering the whole
    /// extent (chunk `i` over `[i*CRC_CHUNK, min((i+1)*CRC_CHUNK, len))`);
    /// a length mismatch or a missing extent leaves the lazy cache in
    /// place, and a zero-pool extent, which keeps no cache, stores nothing.
    /// Debug builds verify every seeded CRC against the bytes.
    pub fn seed_crcs<I>(&mut self, at: u64, crcs: I)
    where
        I: ExactSizeIterator<Item = u32>,
    {
        let Some(ext) = self.extents.get_mut(at) else {
            return;
        };
        let nchunks = (ext.data.len() as u64).div_ceil(CRC_CHUNK) as usize;
        if crcs.len() != nchunks {
            return;
        }
        let Extent { data, crcs: cache } = ext;
        if is_shared_zeros(data) {
            // Known zeros: verifies answer in closed form, nothing is kept.
            #[cfg(debug_assertions)]
            for (i, c) in crcs.enumerate() {
                let want = zero_chunk_crc(data.len(), i, crc32c_zeros(CRC_CHUNK));
                debug_assert_eq!(c, want, "seeded CRC for zero chunk {i}");
            }
            return;
        }
        let slots = cache.slots(data.len());
        for (slot, c) in slots.iter_mut().zip(crcs) {
            *slot = Some(c);
        }
        #[cfg(debug_assertions)]
        for (i, c) in slots.iter().enumerate() {
            let lo = i * CRC_CHUNK as usize;
            let hi = (lo + CRC_CHUNK as usize).min(data.len());
            debug_assert_eq!(
                c.unwrap(),
                crc32c(&data[lo..hi]),
                "seeded CRC for chunk {i} does not match the written bytes"
            );
        }
        self.stats.crc_cache_seeded += nchunks as u64;
    }

    /// Clears `[at, end)` of existing extents, splitting partially
    /// overlapped neighbours with zero-copy slices. Returns the position
    /// an extent starting at `at` takes in the index.
    fn carve(&mut self, at: u64, end: u64) -> usize {
        let i = self.extents.lower_bound(at);
        let entries = &mut self.extents.entries;
        // A neighbour starting before `at` may reach into the range: its
        // head stays in place, and a tail past the range, if any, means it
        // covered the whole range alone.
        if let Some((s, e)) = i.checked_sub(1).map(|h| &mut entries[h]) {
            let (s, e_end) = (*s, e.end(*s));
            if e_end > at {
                let tail = (e_end > end).then(|| e.data.slice((end - s) as usize..));
                *e = Extent::new(e.data.slice(0..(at - s) as usize));
                if let Some(tail) = tail {
                    self.extents.insert(i, end, Extent::new(tail));
                    return i;
                }
            }
        }
        // The extents starting inside the range go as one run; the last
        // may spill past the end and keeps its tail.
        let j = i + entries[i..].partition_point(|&(s, _)| s < end);
        if j == i {
            return i;
        }
        let last = j - 1;
        let (s, e) = &mut entries[last];
        let mut run = i..j;
        if e.end(*s) > end {
            let tail = e.data.slice((end - *s) as usize..);
            (*s, *e) = (end, Extent::new(tail));
            run.end = last;
        }
        self.extents.remove(run);
        i
    }

    /// Reads `[at, at+len)`. A read fully contained in one extent returns a
    /// zero-copy slice; a read of a hole returns a shared zero buffer; only
    /// genuinely fragmented reads stitch into a fresh buffer.
    pub fn read(&mut self, at: u64, len: usize) -> Bytes {
        if len == 0 {
            return Bytes::new();
        }
        let end = at + len as u64;
        // Fast path: one extent covers the whole range.
        if let Some((s, e)) = self.extents.at_or_before_mut(at) {
            if e.end(s) >= end {
                self.stats.bytes_zero_copy += len as u64;
                let off = (at - s) as usize;
                return e.data.slice(off..off + len);
            }
        }
        let any = self
            .extents
            .overlapping(at, end)
            .any(|(s, e)| e.end(*s) > at);
        if !any {
            // Pure hole: refcounted zeros.
            let out = zero_bytes(len);
            if len <= ZERO_POOL {
                self.stats.bytes_zero_copy += len as u64;
            } else {
                self.stats.bytes_copied += len as u64;
            }
            return out;
        }
        // Fragmented: stitch.
        let mut out = BytesMut::zeroed(len);
        for (s, e) in self.extents.overlapping(at, end) {
            let (s, e_end) = (*s, e.end(*s));
            if e_end <= at {
                continue;
            }
            let lo = at.max(s);
            let hi = end.min(e_end);
            out[(lo - at) as usize..(hi - at) as usize]
                .copy_from_slice(&e.data[(lo - s) as usize..(hi - s) as usize]);
        }
        self.stats.bytes_copied += len as u64;
        out.freeze()
    }

    /// The CRC32C of the bytes [`Self::read`]`(at, len)` would return,
    /// derived from cached per-chunk CRCs and hole combines wherever
    /// possible; only uncached chunk bytes are scanned (then cached).
    pub fn crc_of_range(&mut self, at: u64, len: u64) -> u32 {
        if len == 0 {
            return 0;
        }
        let end = at + len;
        // One allocation-free pass: each overlapping extent is handed out
        // mutably (cache fills) alongside the separate stats field.
        let Self { extents, stats } = self;
        let mut acc = 0u32;
        let mut pos = at;
        for (s, ext) in extents.overlapping(at, end) {
            let (s, e_end) = (*s, ext.end(*s));
            if e_end <= at {
                continue;
            }
            let (lo, hi) = (at.max(s), end.min(e_end));
            if lo > pos {
                acc = crc32c_combine(acc, crc32c_zeros(lo - pos), lo - pos);
                stats.crc_combines += 1;
            }
            let piece = extent_range_crc(ext, lo - s, hi - s, stats);
            acc = crc32c_combine(acc, piece, hi - lo);
            stats.crc_combines += 1;
            pos = hi;
        }
        if pos < end {
            acc = crc32c_combine(acc, crc32c_zeros(end - pos), end - pos);
            stats.crc_combines += 1;
        }
        acc
    }

    /// Whether `[at, at+len)` holds the chunk CRCs `expected` names: true
    /// iff there is one entry per [`CRC_CHUNK`] of the window (counted from
    /// `at`, the last one possibly partial) and each equals the CRC32C of
    /// the bytes [`Self::read`] would return for its chunk. A chunk on the
    /// grid of the one extent holding it answers from (or fills) that
    /// extent's chunk cache — an integer compare, no combine; only a chunk
    /// that straddles extents or holes, or ends inside a grid chunk, falls
    /// back to [`Self::crc_of_range`] over that chunk alone. Stops at the
    /// first mismatch.
    pub fn verify_chunks<I>(&mut self, at: u64, len: u64, mut expected: I) -> bool
    where
        I: ExactSizeIterator<Item = u32>,
    {
        if expected.len() as u64 != len.div_ceil(CRC_CHUNK) {
            return false;
        }
        let end = at + len;
        let mut lo = at;
        while lo < end {
            let run_end = match self.extents.at_or_before_mut(lo) {
                Some((s, ext)) => grid_run(ext, s, lo, end, &mut expected, &mut self.stats),
                None => Some(lo),
            };
            let Some(mut next) = run_end else {
                return false;
            };
            if next == lo {
                // Off every extent's grid: this one chunk, combined.
                next = (lo + CRC_CHUNK).min(end);
                if expected.next() != Some(self.crc_of_range(lo, next - lo)) {
                    return false;
                }
            }
            lo = next;
        }
        true
    }
}

/// Checks the window chunks from `lo` (absolute; `s <= lo` is where `ext`
/// starts) against `expected` for as long as each one is exactly a grid
/// chunk of `ext`, from its cache. Returns where the run stopped — `lo`
/// itself when the first chunk is off the grid — or `None` on a mismatch.
fn grid_run(
    ext: &mut Extent,
    s: u64,
    lo: u64,
    end: u64,
    expected: &mut impl Iterator<Item = u32>,
    stats: &mut DataPlaneStats,
) -> Option<u64> {
    let e_end = ext.end(s);
    if lo >= e_end || !(lo - s).is_multiple_of(CRC_CHUNK) {
        return Some(lo);
    }
    // The whole chunks inside both the window and the extent, plus a
    // partial one where the window and the extent end together.
    let stop = end.min(e_end);
    let mut run = ((stop - lo) / CRC_CHUNK) as usize;
    if end == e_end && !(stop - lo).is_multiple_of(CRC_CHUNK) {
        run += 1;
    }
    let first = ((lo - s) / CRC_CHUNK) as usize;
    let Extent { data, crcs } = ext;
    if is_shared_zeros(data) {
        let full = crc32c_zeros(CRC_CHUNK);
        for ci in first..first + run {
            if expected.next() != Some(zero_chunk_crc(data.len(), ci, full)) {
                return None;
            }
        }
    } else {
        let cache = crcs.slots(data.len());
        for (ci, slot) in (first..).zip(&mut cache[first..first + run]) {
            let crc = *slot.get_or_insert_with(|| scan_chunk(data, ci, stats));
            if expected.next() != Some(crc) {
                return None;
            }
        }
    }
    Some((lo + run as u64 * CRC_CHUNK).min(end))
}

/// An unfilled chunk-CRC cache for an extent of `len` bytes.
fn empty_cache(len: usize) -> Box<[Option<u32>]> {
    vec![None; len.div_ceil(CRC_CHUNK as usize)].into_boxed_slice()
}

/// The CRC of grid chunk `ci` of a zero-pool extent of `len` bytes, in
/// closed form: `full` (the caller's `crc32c_zeros(CRC_CHUNK)`) for a whole
/// chunk, the zero-run CRC of the rest for the extent's partial last one.
fn zero_chunk_crc(len: usize, ci: usize, full: u32) -> u32 {
    match (len as u64 - ci as u64 * CRC_CHUNK).min(CRC_CHUNK) {
        CRC_CHUNK => full,
        tail => crc32c_zeros(tail),
    }
}

/// The CRC of grid chunk `ci` of an extent's `data`, scanned.
fn scan_chunk(data: &Bytes, ci: usize, stats: &mut DataPlaneStats) -> u32 {
    let c_lo = ci * CRC_CHUNK as usize;
    let chunk = &data[c_lo..(c_lo + CRC_CHUNK as usize).min(data.len())];
    stats.crc_bytes_scanned += chunk.len() as u64;
    crc32c(chunk)
}

/// CRC of extent-relative `[rs, re)`, using the chunk cache (or, for a
/// zero-pool extent, the closed form) for every grid-aligned chunk in the
/// range and scanning only misses and unaligned head/tail fragments.
fn extent_range_crc(ext: &mut Extent, rs: u64, re: u64, stats: &mut DataPlaneStats) -> u32 {
    let elen = ext.data.len() as u64;
    debug_assert!(rs < re && re <= elen);
    let mut acc = 0u32;
    let mut pos = rs;
    let mut first = true;
    let zeros = is_shared_zeros(&ext.data).then(|| crc32c_zeros(CRC_CHUNK));
    while pos < re {
        let ci = (pos / CRC_CHUNK) as usize;
        let c_lo = ci as u64 * CRC_CHUNK;
        let c_hi = (c_lo + CRC_CHUNK).min(elen);
        let (crc, hi) = if pos == c_lo && re >= c_hi {
            // Whole grid chunk: closed form for zeros, else served from
            // (or filled into) the cache.
            let Extent { data, crcs } = &mut *ext;
            let crc = match zeros {
                Some(full) => zero_chunk_crc(data.len(), ci, full),
                None => {
                    *crcs.slots(data.len())[ci].get_or_insert_with(|| scan_chunk(data, ci, stats))
                }
            };
            (crc, c_hi)
        } else {
            // Unaligned fragment: scan just those bytes.
            let hi = re.min(c_hi);
            stats.crc_bytes_scanned += hi - pos;
            (crc32c(&ext.data[pos as usize..hi as usize]), hi)
        };
        if first {
            acc = crc;
            first = false;
        } else {
            acc = crc32c_combine(acc, crc, hi - pos);
            stats.crc_combines += 1;
        }
        pos = hi;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_round_trip_zero_copy() {
        let mut s = ExtentStore::new();
        let payload = Bytes::from(vec![7u8; 1 << 20]);
        s.write(4096, payload.clone());
        let back = s.read(4096, 1 << 20);
        assert_eq!(back, payload);
        assert_eq!(s.stats().bytes_copied, 0);
        assert_eq!(s.stats().bytes_zero_copy, 2 << 20); // write + read
                                                        // Interior read is still zero-copy.
        let mid = s.read(4096 + 1000, 4096);
        assert_eq!(&mid[..], &payload[1000..1000 + 4096]);
        assert_eq!(s.stats().bytes_copied, 0);
    }

    #[test]
    fn holes_read_zero_and_overlays_resolve() {
        let mut s = ExtentStore::new();
        s.write(100, Bytes::from(vec![1u8; 100]));
        s.write(150, Bytes::from(vec![2u8; 100]));
        let r = s.read(50, 250);
        assert!(r[..50].iter().all(|&b| b == 0));
        assert!(r[50..100].iter().all(|&b| b == 1));
        assert!(r[100..200].iter().all(|&b| b == 2));
        assert!(r[200..].iter().all(|&b| b == 0));
        assert_eq!(s.extent_count(), 2);
    }

    #[test]
    fn discard_trims_and_splits() {
        let mut s = ExtentStore::new();
        s.write(0, Bytes::from(vec![9u8; 300]));
        s.discard(100, 100);
        assert_eq!(s.extent_count(), 2);
        let r = s.read(0, 300);
        assert!(r[..100].iter().all(|&b| b == 9));
        assert!(r[100..200].iter().all(|&b| b == 0));
        assert!(r[200..].iter().all(|&b| b == 9));
    }

    #[test]
    fn crc_of_range_matches_read() {
        let mut s = ExtentStore::new();
        s.write(
            10,
            Bytes::from((0..200u32).map(|i| i as u8).collect::<Vec<_>>()),
        );
        s.write(4096, Bytes::from(vec![5u8; 10_000]));
        for (at, len) in [
            (0u64, 64usize),
            (10, 200),
            (0, 20_000),
            (4096, 4096),
            (5000, 8192),
        ] {
            let data = s.read(at, len);
            assert_eq!(
                s.crc_of_range(at, len as u64),
                crc32c(&data),
                "({at},{len})"
            );
        }
        // Second pass is served from cache and combines: no new scanning
        // for the chunk-aligned query.
        let before = s.stats().crc_bytes_scanned;
        s.crc_of_range(4096, 4096);
        assert_eq!(s.stats().crc_bytes_scanned, before);
    }

    #[test]
    fn overwrite_invalidates_cached_crcs() {
        let mut s = ExtentStore::new();
        s.write(0, Bytes::from(vec![1u8; 8192]));
        let crc1 = s.crc_of_range(0, 8192);
        s.write(4096, Bytes::from(vec![2u8; 100]));
        let crc2 = s.crc_of_range(0, 8192);
        assert_ne!(crc1, crc2);
        assert_eq!(crc2, crc32c(&s.read(0, 8192)));
    }

    /// An exact overwrite swaps the extent's handle in place; a shorter,
    /// longer or shifted write still carves. Either way the store reads as
    /// the overlay of its writes, drops the overwritten extent's cached
    /// CRCs, and counts exactly what a twin store counts whose every write
    /// lands in a range discarded first (so none can be an overwrite) —
    /// except for index work: the swap moves no entries, the twin's
    /// discard-then-insert may.
    #[test]
    fn exact_overwrite_swaps_the_handle_and_anything_else_carves() {
        let mut s = ExtentStore::new();
        let mut twin = ExtentStore::new();
        let mut image = vec![0u8; 16384];
        // (offset, length, extents afterwards)
        let script = [
            (4096u64, 4096usize, 1usize), // first write
            (4096, 4096, 1),              // exact: in place
            (4096, 4096, 1),              // exact again
            (4096, 1000, 2),              // same start, shorter: head + old tail
            (4096, 1000, 2),              // exact on the new head
            (4096, 6000, 1),              // same start, longer: swallows both
            (5000, 6000, 2),              // shifted: trims the neighbour
            (0, 16384, 1),                // covers everything
        ];
        for (i, &(at, len, extents)) in script.iter().enumerate() {
            let fill = i as u8 + 1;
            let data = Bytes::from(vec![fill; len]);
            twin.discard(at, len as u64);
            image[at as usize..at as usize + len].fill(fill);
            for store in [&mut s, &mut twin] {
                store.write(at, data.clone());
                assert_eq!(store.extent_count(), extents, "step {i}");
                assert_eq!(&store.read(0, image.len())[..], &image[..], "step {i}");
                assert_eq!(store.read(at, len).as_ptr(), data.as_ptr(), "step {i}");
                // Also warms the CRC cache the next step overwrites.
                assert_eq!(store.crc_of_range(0, image.len() as u64), crc32c(&image));
            }
            let (ours, theirs) = (s.stats(), twin.stats());
            assert!(ours.extents_shifted <= theirs.extents_shifted, "step {i}");
            let data_plane = |d| DataPlaneStats {
                extents_shifted: 0,
                ..d
            };
            assert_eq!(data_plane(ours), data_plane(theirs), "step {i}");
        }
    }

    #[test]
    fn seeded_crcs_replace_first_fill_scan() {
        let mut s = ExtentStore::new();
        let data = Bytes::from(vec![0x5Au8; 10_000]); // 3 chunks, last partial
        let chunk_crcs: Vec<u32> = data.chunks(CRC_CHUNK as usize).map(crc32c).collect();
        s.write(8192, data.clone());
        s.seed_crcs(8192, chunk_crcs.iter().copied());
        assert_eq!(s.stats().crc_cache_seeded, 3);
        let before = s.stats().crc_bytes_scanned;
        assert_eq!(s.crc_of_range(8192, 10_000), crc32c(&data));
        assert_eq!(
            s.stats().crc_bytes_scanned,
            before,
            "seeded chunks must not be rescanned on first verify"
        );
        // Overwrite drops the seeded cache like any other cached CRC.
        s.write(8192 + 4096, Bytes::from(vec![9u8; 100]));
        assert_eq!(s.crc_of_range(8192, 10_000), crc32c(&s.read(8192, 10_000)));
    }

    #[test]
    fn on_grid_verify_compares_cached_crcs_without_combining() {
        let mut s = ExtentStore::new();
        let data = Bytes::from(
            (0..(1u32 << 20))
                .map(|i| (i % 251) as u8)
                .collect::<Vec<_>>(),
        );
        let table: Vec<u32> = data.chunks(CRC_CHUNK as usize).map(crc32c).collect();
        s.write(1 << 20, data.clone());
        s.seed_crcs(1 << 20, table.iter().copied());
        let before = s.stats();
        assert!(s.verify_chunks(1 << 20, 1 << 20, table.iter().copied()));
        assert!(s.verify_chunks(
            (1 << 20) + 8192,
            10 * CRC_CHUNK,
            table[2..12].iter().copied()
        ));
        assert_eq!(
            s.stats(),
            before,
            "an on-grid verify neither scans nor combines"
        );
        // One wrong entry, a short table, a long one: all mismatches.
        let mut bad = table.clone();
        bad[200] ^= 1;
        assert!(!s.verify_chunks(1 << 20, 1 << 20, bad.iter().copied()));
        assert!(!s.verify_chunks(1 << 20, 1 << 20, table[1..].iter().copied()));
        assert!(!s.verify_chunks(1 << 20, 4096, table[..2].iter().copied()));
        // A window off the grid verifies chunk by chunk through the fallback.
        let (at, len) = ((1 << 20) + 100, 10_000u64);
        let want: Vec<u32> = data[100..100 + len as usize]
            .chunks(CRC_CHUNK as usize)
            .map(crc32c)
            .collect();
        assert!(s.verify_chunks(at, len, want.iter().copied()));
        assert!(s.verify_chunks(0, 0, std::iter::empty()));
    }

    /// A zero-pool extent answers its chunks in closed form: seeding keeps
    /// nothing, verifying scans nothing, and bytes written over it make an
    /// extent of their own that the verify still checks.
    #[test]
    fn zero_pool_extents_keep_no_cache() {
        let mut s = ExtentStore::new();
        let len = 10_000u64; // 3 chunks, last partial
        let zeros = vec![0u8; len as usize];
        let table: Vec<u32> = zeros.chunks(CRC_CHUNK as usize).map(crc32c).collect();
        s.write(CRC_CHUNK, zero_bytes(len as usize));
        s.seed_crcs(CRC_CHUNK, table.iter().copied());
        assert_eq!(s.stats().crc_cache_seeded, 0);
        assert!(s.verify_chunks(CRC_CHUNK, len, table.iter().copied()));
        assert_eq!(s.crc_of_range(CRC_CHUNK, len), crc32c(&zeros));
        assert_eq!(s.stats().crc_bytes_scanned, 0);
        let mut bad = table.clone();
        bad[2] ^= 1;
        assert!(!s.verify_chunks(CRC_CHUNK, len, bad.iter().copied()));
        // One byte flipped inside the second chunk: the verify falls back
        // for that chunk only and sees it.
        s.write_slice(2 * CRC_CHUNK + 5, &[1]);
        assert_eq!(s.extent_count(), 3);
        assert!(!s.verify_chunks(CRC_CHUNK, len, table.iter().copied()));
        let want: Vec<u32> = s
            .read(CRC_CHUNK, len as usize)
            .chunks(4096)
            .map(crc32c)
            .collect();
        assert!(s.verify_chunks(CRC_CHUNK, len, want.iter().copied()));
    }

    /// Rising writes append at the index's tail and move nothing; a write
    /// or a discard before the tail moves exactly the entries after it.
    #[test]
    fn appends_shift_nothing_and_a_mid_insert_counts_its_move() {
        let mut s = ExtentStore::new();
        for i in 0..100u64 {
            s.write(i * 8192, Bytes::from(vec![1u8; 4096]));
        }
        assert_eq!((s.extent_count(), s.stats().extents_shifted), (100, 0));
        s.write(4096, Bytes::from(vec![2u8; 4096])); // into the first gap
        assert_eq!((s.extent_count(), s.stats().extents_shifted), (101, 99));
        s.discard(0, 3 * 8192); // three written extents and the new one
        assert_eq!((s.extent_count(), s.stats().extents_shifted), (97, 99 + 97));
        s.write(8192 * 50 + 1024, Bytes::from(vec![3u8; 1024])); // splits one
        assert_eq!(s.extent_count(), 99);
        assert_eq!(s.stats().extents_shifted, 99 + 97 + 49 + 50); // tail, then head
        let r = s.read(8192 * 50, 4096);
        assert!(r[..1024].iter().all(|&b| b == 1));
        assert!(r[1024..2048].iter().all(|&b| b == 3));
        assert!(r[2048..].iter().all(|&b| b == 1));
    }

    #[test]
    fn seed_mismatch_is_ignored() {
        let mut s = ExtentStore::new();
        s.write(0, Bytes::from(vec![1u8; 8192]));
        // Wrong chunk count: must leave the lazy cache untouched.
        s.seed_crcs(0, [0u32; 1].iter().copied());
        assert_eq!(s.stats().crc_cache_seeded, 0);
        // No extent at the address: no-op.
        s.seed_crcs(4096, [0u32; 1].iter().copied());
        assert_eq!(s.stats().crc_cache_seeded, 0);
        assert_eq!(s.crc_of_range(0, 8192), crc32c(&s.read(0, 8192)));
    }

    #[test]
    fn covered_pages_merges_ranges() {
        let mut s = ExtentStore::new();
        s.write(4096 - 123, Bytes::from(vec![1u8; 10_000]));
        assert_eq!(s.covered_pages(4096), 4);
        s.write(4096 - 123, Bytes::from(vec![2u8; 10_000])); // same span
        assert_eq!(s.covered_pages(4096), 4);
    }
}
