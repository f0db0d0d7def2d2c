//! Functional data store behind a simulated NVMe namespace.
//!
//! Three modes trade fidelity for memory:
//!
//! * [`Backing::stored`] — a zero-copy extent store holding every byte ever
//!   written (as refcounted `Bytes` handles, not page copies). Reads return
//!   exactly what was written (zeroes for never-written regions). Used by
//!   all correctness tests and the examples.
//! * [`Backing::pattern`] — contents are a pure function of the address, so
//!   multi-terabyte working sets cost no memory. Writes are validated and
//!   counted but not retained. Used by the large benchmark sweeps.
//! * [`Backing::null`] — all-zero contents; reads are refcounted slices of
//!   a shared zero buffer, writes are dropped. The mode the throughput
//!   sweeps use, where timing matters and content does not.
//!
//! Every mode can answer [`Backing::verify_chunks`] — whether a range
//! holds a given per-chunk CRC table, chunk for chunk, of the bytes a read
//! would return — without rescanning resident data: stored extents compare
//! their cached per-chunk CRCs one for one, null ranges compare with the
//! closed-form zero-chunk CRC, and only pattern mode (synthetic bytes)
//! must generate.

use bytes::{Bytes, BytesMut};
use ros2_buf::{crc32c_append, crc32c_zeros, zero_bytes, DataPlaneStats, ExtentStore, CRC_CHUNK};

/// Page granularity of the sparse store (one LBA).
pub const PAGE: usize = 4096;

/// The functional contents of a namespace.
#[derive(Debug)]
pub enum Backing {
    /// Zero-copy extent store: full read-your-writes fidelity.
    Stored {
        /// Extents indexed by byte address; holes read as zero.
        store: ExtentStore,
    },
    /// Address-derived contents; writes are not retained.
    Pattern {
        /// Seed mixed into the generated bytes so distinct devices differ.
        seed: u64,
        /// Copy/CRC counters (pattern reads always materialize).
        stats: DataPlaneStats,
    },
    /// All-zero contents: reads are nearly free (a refcounted slice),
    /// writes are dropped.
    Null {
        /// Copy/CRC counters.
        stats: DataPlaneStats,
    },
}

impl Backing {
    /// Creates an empty zero-copy store.
    pub fn stored() -> Self {
        Backing::Stored {
            store: ExtentStore::new(),
        }
    }

    /// Creates a pattern store with the given seed.
    pub fn pattern(seed: u64) -> Self {
        Backing::Pattern {
            seed,
            stats: DataPlaneStats::default(),
        }
    }

    /// Creates a null store (zeros, nothing retained, near-free reads).
    pub fn null() -> Self {
        Backing::Null {
            stats: DataPlaneStats::default(),
        }
    }

    /// Whether writes are retained.
    pub fn retains_writes(&self) -> bool {
        matches!(self, Backing::Stored { .. })
    }

    /// Reads `len` bytes starting at absolute byte `offset`.
    pub fn read(&mut self, offset: u64, len: usize) -> Bytes {
        match self {
            Backing::Stored { store } => store.read(offset, len),
            Backing::Null { stats } => {
                stats.bytes_zero_copy += len as u64;
                zero_bytes(len)
            }
            Backing::Pattern { seed, stats } => {
                stats.bytes_copied += len as u64;
                let mut out = BytesMut::with_capacity(len);
                let mut abs = offset;
                let mut remaining = len;
                while remaining > 0 {
                    let word = pattern_word(*seed, abs / 8);
                    let bytes = word.to_le_bytes();
                    let in_word = (abs % 8) as usize;
                    let take = (8 - in_word).min(remaining);
                    out.extend_from_slice(&bytes[in_word..in_word + take]);
                    abs += take as u64;
                    remaining -= take;
                }
                out.freeze()
            }
        }
    }

    /// Writes `data` at absolute byte `offset`, adopting the handle
    /// zero-copy in stored mode.
    pub fn write_bytes(&mut self, offset: u64, data: &Bytes) {
        if let Backing::Stored { store } = self {
            store.write(offset, data.clone());
        }
        // Pattern / Null: contents are synthetic; nothing retained.
    }

    /// Writes a borrowed slice at `offset` (one copy in stored mode).
    pub fn write(&mut self, offset: u64, data: &[u8]) {
        if let Backing::Stored { store } = self {
            store.write_slice(offset, data);
        }
    }

    /// Discards (TRIM) `len` bytes at `offset`; the range reads as zero.
    pub fn discard(&mut self, offset: u64, len: u64) {
        if let Backing::Stored { store } = self {
            store.discard(offset, len);
        }
    }

    /// Seeds the CRC cache of the extent written at `offset` with chunk
    /// CRCs the writer already computed (see [`ExtentStore::seed_crcs`]).
    /// Synthetic modes answer CRCs closed-form and ignore the seed.
    pub fn seed_crc_cache<I>(&mut self, offset: u64, crcs: I)
    where
        I: ExactSizeIterator<Item = u32>,
    {
        if let Backing::Stored { store } = self {
            store.seed_crcs(offset, crcs);
        }
    }

    /// Whether `[offset, offset+len)` holds the per-[`CRC_CHUNK`] CRCs
    /// `expected` names (see [`ExtentStore::verify_chunks`]). Stored mode
    /// compares the store's cached chunk CRCs; null mode compares each
    /// entry with the closed-form zero-chunk CRC; pattern mode generates
    /// each chunk.
    pub fn verify_chunks<I>(&mut self, offset: u64, len: u64, expected: I) -> bool
    where
        I: ExactSizeIterator<Item = u32>,
    {
        let chunk_len = |k: usize| CRC_CHUNK.min(len - k as u64 * CRC_CHUNK);
        match self {
            Backing::Stored { store } => store.verify_chunks(offset, len, expected),
            _ if expected.len() as u64 != len.div_ceil(CRC_CHUNK) => false,
            Backing::Null { .. } => {
                let full = crc32c_zeros(CRC_CHUNK);
                expected.enumerate().all(|(k, e)| {
                    e == match chunk_len(k) {
                        CRC_CHUNK => full,
                        tail => crc32c_zeros(tail),
                    }
                })
            }
            Backing::Pattern { seed, stats } => expected.enumerate().all(|(k, e)| {
                let at = offset + k as u64 * CRC_CHUNK;
                e == pattern_crc(*seed, stats, at, chunk_len(k))
            }),
        }
    }

    /// Number of resident 4 KiB pages touched by live data (0 for the
    /// synthetic modes).
    pub fn resident_pages(&self) -> usize {
        match self {
            Backing::Stored { store } => store.covered_pages(PAGE as u64),
            Backing::Pattern { .. } | Backing::Null { .. } => 0,
        }
    }

    /// Data-plane (copy vs zero-copy, CRC scan vs combine) counters.
    pub fn data_plane_stats(&self) -> DataPlaneStats {
        match self {
            Backing::Stored { store } => store.stats(),
            Backing::Pattern { stats, .. } | Backing::Null { stats } => *stats,
        }
    }
}

/// The CRC32C of pattern-mode bytes `[offset, offset+len)`, generated and
/// scanned.
fn pattern_crc(seed: u64, stats: &mut DataPlaneStats, offset: u64, len: u64) -> u32 {
    stats.crc_bytes_scanned += len;
    let mut crc = 0u32;
    let mut abs = offset;
    let mut remaining = len as usize;
    while remaining > 0 {
        let word = pattern_word(seed, abs / 8);
        let bytes = word.to_le_bytes();
        let in_word = (abs % 8) as usize;
        let take = (8 - in_word).min(remaining);
        crc = crc32c_append(crc, &bytes[in_word..in_word + take]);
        abs += take as u64;
        remaining -= take;
    }
    crc
}

/// The deterministic word generator behind pattern mode (SplitMix64 of the
/// word index mixed with the seed).
fn pattern_word(seed: u64, word_idx: u64) -> u64 {
    let mut z = seed ^ word_idx.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros2_buf::crc32c;

    #[test]
    fn stored_round_trips() {
        let mut b = Backing::stored();
        b.write(100, b"hello world");
        assert_eq!(&b.read(100, 11)[..], b"hello world");
        // Unwritten space reads as zero.
        assert_eq!(&b.read(0, 4)[..], &[0, 0, 0, 0]);
        assert!(b.retains_writes());
    }

    #[test]
    fn stored_spans_page_boundaries() {
        let mut b = Backing::stored();
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        b.write(PAGE as u64 - 123, &data);
        let back = b.read(PAGE as u64 - 123, data.len());
        assert_eq!(&back[..], &data[..]);
        assert_eq!(b.resident_pages(), 4);
    }

    #[test]
    fn stored_overwrite_wins() {
        let mut b = Backing::stored();
        b.write(0, &[1u8; 64]);
        b.write(16, &[2u8; 16]);
        let r = b.read(0, 64);
        assert!(r[..16].iter().all(|&x| x == 1));
        assert!(r[16..32].iter().all(|&x| x == 2));
        assert!(r[32..].iter().all(|&x| x == 1));
    }

    #[test]
    fn handle_writes_read_back_zero_copy() {
        let mut b = Backing::stored();
        let payload = Bytes::from(vec![0x5A; 1 << 20]);
        b.write_bytes(0, &payload);
        assert_eq!(b.read(0, 1 << 20), payload);
        let s = b.data_plane_stats();
        assert_eq!(s.bytes_copied, 0);
        assert_eq!(s.bytes_zero_copy, 2 << 20);
    }

    #[test]
    fn discard_zeroes_full_pages() {
        let mut b = Backing::stored();
        b.write(0, &vec![7u8; 3 * PAGE]);
        b.discard(PAGE as u64, PAGE as u64);
        assert!(b.read(PAGE as u64, PAGE).iter().all(|&x| x == 0));
        assert!(b.read(0, PAGE).iter().all(|&x| x == 7));
        assert_eq!(b.resident_pages(), 2);
    }

    #[test]
    fn discard_partial_pages_zero_fill() {
        let mut b = Backing::stored();
        b.write(0, &vec![9u8; 2 * PAGE]);
        b.discard(100, 200);
        let r = b.read(0, PAGE);
        assert!(r[..100].iter().all(|&x| x == 9));
        assert!(r[100..300].iter().all(|&x| x == 0));
        assert!(r[300..].iter().all(|&x| x == 9));
    }

    /// Every mode verifies the chunk table of what its own read returns,
    /// and fails it with one entry flipped.
    #[test]
    fn crc_matches_contents_in_every_mode() {
        let mut stored = Backing::stored();
        stored.write(123, &vec![0xA7u8; 10_000]);
        let modes = [
            (stored, 100, 12_000),
            (Backing::null(), 0, 5000),
            (Backing::pattern(9), 777, 5000),
        ];
        for (mut b, at, len) in modes {
            let bytes = b.read(at, len as usize);
            let mut table: Vec<u32> = bytes.chunks(CRC_CHUNK as usize).map(crc32c).collect();
            assert!(
                b.verify_chunks(at, len, table.iter().copied()),
                "({at}, {len})"
            );
            table[1] ^= 1;
            assert!(
                !b.verify_chunks(at, len, table.iter().copied()),
                "({at}, {len})"
            );
        }
    }

    /// Null and pattern modes verify a chunk table exactly as a stored
    /// backing holding the same bytes does: right tables pass, any one
    /// flipped entry or a wrong-length table fails.
    #[test]
    fn synthetic_modes_verify_like_a_stored_copy() {
        const SPAN: u64 = 5 * CRC_CHUNK + 1000;
        for mut synthetic in [Backing::null(), Backing::pattern(9)] {
            let mut stored = Backing::stored();
            stored.write_bytes(0, &synthetic.read(0, SPAN as usize));
            for (at, len) in [(0, SPAN), (4096, 8192), (100, 9000), (777, 3000), (0, 0)] {
                let bytes = synthetic.read(at, len as usize);
                let table: Vec<u32> = bytes.chunks(CRC_CHUNK as usize).map(crc32c).collect();
                let mut tables = vec![
                    table.clone(),
                    table[..table.len().saturating_sub(1)].to_vec(),
                ];
                for k in 0..table.len() {
                    let mut bad = table.clone();
                    bad[k] ^= 0x8000_0000;
                    tables.push(bad);
                }
                for t in &tables {
                    let want = stored.verify_chunks(at, len, t.iter().copied());
                    assert_eq!(want, t == &table, "({at}, {len})");
                    assert_eq!(synthetic.verify_chunks(at, len, t.iter().copied()), want);
                }
            }
        }
    }

    #[test]
    fn stored_crc_is_cached_after_first_scan() {
        let mut b = Backing::stored();
        b.write(0, &vec![3u8; 64 << 10]);
        let table = [crc32c(&[3u8; CRC_CHUNK as usize]); 16];
        assert!(b.verify_chunks(0, 64 << 10, table.iter().copied()));
        let first = b.data_plane_stats();
        assert_eq!(first.crc_bytes_scanned, 64 << 10);
        assert!(b.verify_chunks(0, 64 << 10, table.iter().copied()));
        assert!(b.verify_chunks(4096, 8192, table[..2].iter().copied()));
        assert_eq!(b.data_plane_stats(), first, "no rescans, no folds");
    }

    #[test]
    fn pattern_is_deterministic_and_offset_consistent() {
        let mut b = Backing::pattern(42);
        let whole = b.read(1000, 64);
        let part = b.read(1013, 17);
        assert_eq!(&whole[13..30], &part[..]);
        // Same address, same bytes, every time.
        assert_eq!(b.read(1000, 64), whole);
        // Different seed, different bytes.
        let mut other = Backing::pattern(43);
        assert_ne!(other.read(1000, 64), whole);
    }

    #[test]
    fn pattern_ignores_writes() {
        let mut b = Backing::pattern(7);
        let before = b.read(0, 32);
        b.write(0, &[0xFF; 32]);
        assert_eq!(b.read(0, 32), before);
        assert!(!b.retains_writes());
        assert_eq!(b.resident_pages(), 0);
    }
}
