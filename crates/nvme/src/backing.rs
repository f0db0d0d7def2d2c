//! Functional data store behind a simulated NVMe namespace.
//!
//! Two modes trade fidelity for memory:
//!
//! * [`Backing::stored`] — a zero-copy extent store holding every byte ever
//!   written (as refcounted `Bytes` handles, not page copies). Reads return
//!   exactly what was written (zeroes for never-written regions). Used by
//!   all correctness tests and the examples.
//! * [`Backing::null`] — all-zero contents; reads are refcounted slices of
//!   a shared zero buffer, writes are dropped. The mode the throughput
//!   sweeps use, where timing matters and content does not.
//!
//! Both modes answer [`Backing::verify_chunks`] — whether a range holds a
//! given per-chunk CRC table, chunk for chunk, of the bytes a read would
//! return — without rescanning resident data: stored extents compare their
//! cached per-chunk CRCs one for one, null ranges compare with the
//! closed-form zero-chunk CRC.

use bytes::Bytes;
use ros2_buf::{crc32c_zeros, zero_bytes, DataPlaneStats, ExtentStore, CRC_CHUNK};

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

    /// Creates a null store (zeros, nothing retained, near-free reads).
    pub fn null() -> Self {
        Backing::Null {
            stats: DataPlaneStats::default(),
        }
    }

    /// Reads `len` bytes starting at absolute byte `offset`.
    pub fn read(&mut self, offset: u64, len: usize) -> Bytes {
        match self {
            Backing::Stored { store } => store.read(offset, len),
            Backing::Null { stats } => {
                stats.bytes_zero_copy += len as u64;
                zero_bytes(len)
            }
        }
    }

    /// Writes `data` at absolute byte `offset`, adopting the handle
    /// zero-copy in stored mode.
    pub fn write_bytes(&mut self, offset: u64, data: &Bytes) {
        if let Backing::Stored { store } = self {
            store.write(offset, data.clone());
        }
        // Null: contents are synthetic; nothing retained.
    }

    /// Writes a borrowed slice at `offset` (one copy in stored mode).
    pub fn write(&mut self, offset: u64, data: &[u8]) {
        if let Backing::Stored { store } = self {
            store.write_slice(offset, data);
        }
    }

    /// Seeds the CRC cache of the extent written at `offset` with chunk
    /// CRCs the writer already computed (see [`ExtentStore::seed_crcs`]).
    /// Null mode answers CRCs closed-form and ignores the seed.
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
    /// entry with the closed-form zero-chunk CRC.
    pub fn verify_chunks<I>(&mut self, offset: u64, len: u64, expected: I) -> bool
    where
        I: ExactSizeIterator<Item = u32>,
    {
        match self {
            Backing::Stored { store } => store.verify_chunks(offset, len, expected),
            Backing::Null { .. } => {
                if expected.len() as u64 != len.div_ceil(CRC_CHUNK) {
                    return false;
                }
                let full = crc32c_zeros(CRC_CHUNK);
                expected.enumerate().all(|(k, e)| {
                    e == match CRC_CHUNK.min(len - k as u64 * CRC_CHUNK) {
                        CRC_CHUNK => full,
                        tail => crc32c_zeros(tail),
                    }
                })
            }
        }
    }

    /// Number of resident 4 KiB pages touched by live data (0 in null
    /// mode).
    #[cfg(test)]
    fn resident_pages(&self) -> usize {
        match self {
            Backing::Stored { store } => store.covered_pages(PAGE as u64),
            Backing::Null { .. } => 0,
        }
    }

    /// Data-plane (copy vs zero-copy, CRC scan vs combine) counters.
    pub fn data_plane_stats(&self) -> DataPlaneStats {
        match self {
            Backing::Stored { store } => store.stats(),
            Backing::Null { stats } => *stats,
        }
    }
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

    /// Every mode verifies the chunk table of what its own read returns,
    /// and fails it with one entry flipped.
    #[test]
    fn crc_matches_contents_in_every_mode() {
        let mut stored = Backing::stored();
        stored.write(123, &vec![0xA7u8; 10_000]);
        let modes = [(stored, 100, 12_000), (Backing::null(), 0, 5000)];
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

    /// Null mode verifies a chunk table exactly as a stored backing
    /// holding the same bytes does: right tables pass, any one flipped
    /// entry or a wrong-length table fails.
    #[test]
    fn synthetic_modes_verify_like_a_stored_copy() {
        const SPAN: u64 = 5 * CRC_CHUNK + 1000;
        let mut synthetic = Backing::null();
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
}
