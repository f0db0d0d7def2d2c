//! The persistent heap: sparse byte store + size-class allocator.
//!
//! Mirrors the shape of PMDK's `pmemobj` pool: objects are allocated from a
//! persistent heap and addressed by stable offsets (OIDs). Contents live in
//! a zero-copy extent store so a 128 GiB SCM tier costs only what is
//! actually resident — and whole-record writes adopt the caller's `Bytes`
//! handle instead of copying page by page.

use bytes::Bytes;
use ros2_buf::{DataPlaneStats, ExtentStore};

/// Page granularity for residency accounting.
const PAGE: usize = 4096;
/// Smallest allocation size class (bytes).
const MIN_CLASS: u64 = 64;
/// Number of power-of-two size classes (64 B .. 2 GiB).
const CLASSES: usize = 26;

/// A stable reference to an allocated object in the pool (PMDK `PMEMoid`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct PmemOid {
    /// Byte offset of the object within the pool.
    pub offset: u64,
    /// Usable size of the object in bytes.
    pub size: u64,
}

/// Errors from heap operations.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PmemError {
    /// The pool cannot satisfy the allocation.
    OutOfSpace,
    /// An access fell outside the pool or outside a live object.
    BadAddress,
    /// Transaction misuse (commit/abort without begin, nested begin).
    TxState,
}

/// The persistent byte store with a size-class allocator.
#[derive(Debug)]
pub struct Heap {
    capacity: u64,
    store: ExtentStore,
    /// Bump frontier for fresh allocations.
    frontier: u64,
    /// Per-class free lists of previously freed offsets.
    free_lists: Vec<Vec<u64>>,
    live_bytes: u64,
    allocs: u64,
    frees: u64,
}

fn class_of(size: u64) -> usize {
    let rounded = size.max(MIN_CLASS).next_power_of_two();
    (rounded.trailing_zeros() - MIN_CLASS.trailing_zeros()) as usize
}

fn class_size(class: usize) -> u64 {
    MIN_CLASS << class
}

impl Heap {
    /// Creates a pool of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Heap {
            capacity,
            store: ExtentStore::new(),
            frontier: PAGE as u64, // offset 0 is reserved (null OID)
            free_lists: vec![Vec::new(); CLASSES],
            live_bytes: 0,
            allocs: 0,
            frees: 0,
        }
    }

    /// Allocates `size` bytes, zero-initialized.
    pub fn alloc(&mut self, size: u64) -> Result<PmemOid, PmemError> {
        if size == 0 || size > self.capacity {
            return Err(PmemError::OutOfSpace);
        }
        let class = class_of(size);
        if class >= CLASSES {
            return Err(PmemError::OutOfSpace);
        }
        let block = class_size(class);
        let offset = if let Some(off) = self.free_lists[class].pop() {
            // Recycled block: must read as zero again.
            self.zero(off, block);
            off
        } else {
            let off = self.frontier;
            if off + block > self.capacity {
                return Err(PmemError::OutOfSpace);
            }
            self.frontier += block;
            off
        };
        self.live_bytes += block;
        self.allocs += 1;
        Ok(PmemOid { offset, size })
    }

    /// Frees an object, returning its block to the free list.
    pub fn free(&mut self, oid: PmemOid) {
        let class = class_of(oid.size);
        self.free_lists[class].push(oid.offset);
        self.live_bytes = self.live_bytes.saturating_sub(class_size(class));
        self.frees += 1;
    }

    /// Reads `len` bytes at absolute `offset` (zero-copy when the range
    /// lies inside one prior write).
    pub fn read(&mut self, offset: u64, len: usize) -> Result<Bytes, PmemError> {
        if offset + len as u64 > self.capacity {
            return Err(PmemError::BadAddress);
        }
        Ok(self.store.read(offset, len))
    }

    /// Writes a borrowed slice at absolute `offset` (one copy).
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<(), PmemError> {
        if offset + data.len() as u64 > self.capacity {
            return Err(PmemError::BadAddress);
        }
        self.store.write_slice(offset, data);
        Ok(())
    }

    /// Zero-copy write: adopts the caller's `Bytes` handle.
    pub fn write_bytes(&mut self, offset: u64, data: &Bytes) -> Result<(), PmemError> {
        if offset + data.len() as u64 > self.capacity {
            return Err(PmemError::BadAddress);
        }
        self.store.write(offset, data.clone());
        Ok(())
    }

    /// Whether stored range `[offset, offset+len)` holds the per-chunk CRCs
    /// `expected` names (see [`ros2_buf::ExtentStore::verify_chunks`]).
    pub fn verify_chunks<I>(
        &mut self,
        offset: u64,
        len: u64,
        expected: I,
    ) -> Result<bool, PmemError>
    where
        I: ExactSizeIterator<Item = u32>,
    {
        if offset + len > self.capacity {
            return Err(PmemError::BadAddress);
        }
        Ok(self.store.verify_chunks(offset, len, expected))
    }

    /// Seeds the chunk-CRC cache of the extent written at `offset` with
    /// CRCs the writer already computed (see
    /// [`ros2_buf::ExtentStore::seed_crcs`]).
    pub fn seed_crcs<I>(&mut self, offset: u64, crcs: I)
    where
        I: ExactSizeIterator<Item = u32>,
    {
        self.store.seed_crcs(offset, crcs);
    }

    /// Data-plane (copy vs zero-copy, CRC scan vs combine) counters.
    pub fn data_plane_stats(&self) -> DataPlaneStats {
        self.store.stats()
    }

    fn zero(&mut self, offset: u64, len: u64) {
        self.store.discard(offset, len);
    }

    /// Pool capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }
    /// Bytes currently allocated (by block size).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }
    /// Lifetime allocation count.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }
    /// Lifetime free count.
    pub fn frees(&self) -> u64 {
        self.frees
    }
    /// Resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.store.covered_pages(PAGE as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_round_up() {
        assert_eq!(class_of(1), 0);
        assert_eq!(class_size(class_of(1)), 64);
        assert_eq!(class_size(class_of(65)), 128);
        assert_eq!(class_size(class_of(4096)), 4096);
        assert_eq!(class_size(class_of(4097)), 8192);
    }

    #[test]
    fn alloc_write_read_round_trip() {
        let mut h = Heap::new(1 << 20);
        let oid = h.alloc(100).unwrap();
        h.write(oid.offset, b"persistent!").unwrap();
        assert_eq!(&h.read(oid.offset, 11).unwrap()[..], b"persistent!");
    }

    #[test]
    fn fresh_allocations_are_zeroed() {
        let mut h = Heap::new(1 << 20);
        let a = h.alloc(128).unwrap();
        h.write(a.offset, &[0xFF; 128]).unwrap();
        h.free(a);
        let b = h.alloc(128).unwrap();
        assert_eq!(b.offset, a.offset, "block recycled");
        assert!(h.read(b.offset, 128).unwrap().iter().all(|&x| x == 0));
    }

    #[test]
    fn allocations_never_overlap() {
        let mut h = Heap::new(1 << 20);
        let oids: Vec<_> = (0..64).map(|_| h.alloc(100).unwrap()).collect();
        for (i, a) in oids.iter().enumerate() {
            for b in &oids[i + 1..] {
                let a_end = a.offset + class_size(class_of(a.size));
                let b_end = b.offset + class_size(class_of(b.size));
                assert!(
                    a_end <= b.offset || b_end <= a.offset,
                    "{a:?} overlaps {b:?}"
                );
            }
        }
    }

    #[test]
    fn out_of_space_is_reported() {
        let mut h = Heap::new(64 * 1024);
        let mut got = 0;
        while h.alloc(4096).is_ok() {
            got += 1;
        }
        assert!(got > 0 && got <= 16);
        assert_eq!(h.alloc(4096).unwrap_err(), PmemError::OutOfSpace);
        assert_eq!(h.alloc(0).unwrap_err(), PmemError::OutOfSpace);
    }

    #[test]
    fn bad_address_rejected() {
        let mut h = Heap::new(4096 * 4);
        assert_eq!(h.read(4096 * 4, 1).unwrap_err(), PmemError::BadAddress);
        assert_eq!(
            h.write(4096 * 3, &[0; 4097]).unwrap_err(),
            PmemError::BadAddress
        );
    }

    #[test]
    fn live_bytes_track_alloc_free() {
        let mut h = Heap::new(1 << 20);
        let oid = h.alloc(1000).unwrap();
        assert_eq!(h.live_bytes(), 1024);
        h.free(oid);
        assert_eq!(h.live_bytes(), 0);
        assert_eq!(h.allocs(), 1);
        assert_eq!(h.frees(), 1);
    }
}
