//! The persistent pool: PMDK `pmemobj`-style objects with stable
//! identifiers, a size-class allocator over a zero-copy extent store, and
//! the SCM timing model.
//!
//! Objects are allocated from the pool and addressed by stable offsets
//! (OIDs). Contents live in a zero-copy extent store, so an SCM tier costs
//! only what is actually resident, and whole-record writes adopt the
//! caller's `Bytes` handle instead of copying.
//!
//! DAOS stores VOS metadata and small I/O in SCM. VOS places every update
//! at a fresh address and publishes it by inserting the record, so no
//! write here overwrites live data and the pool keeps no undo log.

use bytes::Bytes;
use ros2_buf::{DataPlaneStats, ExtentStore};
use ros2_sim::{SimDuration, SimTime};

/// Smallest allocation size class (bytes).
const MIN_CLASS: u64 = 64;
/// Number of power-of-two size classes (64 B .. 2 GiB).
const CLASSES: usize = 26;
/// Offset of the first allocation; offset 0 is reserved (the null OID).
const FIRST_OFFSET: u64 = 4096;

/// A stable reference to an allocated object in the pool (PMDK `PMEMoid`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct PmemOid {
    /// Byte offset of the object within the pool.
    pub offset: u64,
    /// Usable size of the object in bytes.
    pub size: u64,
}

/// Errors from pool operations.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PmemError {
    /// The pool cannot satisfy the allocation.
    OutOfSpace,
    /// An access fell outside a live object.
    BadAddress,
}

fn class_of(size: u64) -> usize {
    let rounded = size.max(MIN_CLASS).next_power_of_two();
    (rounded.trailing_zeros() - MIN_CLASS.trailing_zeros()) as usize
}

fn class_size(class: usize) -> u64 {
    MIN_CLASS << class
}

/// Timing model for the SCM tier (Optane-PMem-class DIMMs).
#[derive(Copy, Clone, Debug)]
pub struct ScmModel {
    /// Load latency for a cacheline-sized access.
    pub read_latency: SimDuration,
    /// Persist (store + flush) latency.
    pub write_latency: SimDuration,
    /// Sequential read bandwidth, B/s.
    pub read_bw: u64,
    /// Sequential write bandwidth, B/s.
    pub write_bw: u64,
}

impl ScmModel {
    /// Default calibration: ~170 ns loads, ~450 ns persists, 6/2 GB/s.
    pub fn optane_class() -> Self {
        ScmModel {
            read_latency: SimDuration::from_nanos(170),
            write_latency: SimDuration::from_nanos(450),
            read_bw: 6_000_000_000,
            write_bw: 2_000_000_000,
        }
    }

    /// Time to read `bytes` from SCM.
    fn read_cost(&self, bytes: u64) -> SimDuration {
        self.read_latency + SimDuration::for_bytes(bytes, self.read_bw)
    }

    /// Time to persist `bytes` to SCM.
    fn write_cost(&self, bytes: u64) -> SimDuration {
        self.write_latency + SimDuration::for_bytes(bytes, self.write_bw)
    }
}

/// A persistent memory pool (PMDK `pmemobj` analogue).
#[derive(Debug)]
pub struct PmemPool {
    capacity: u64,
    store: ExtentStore,
    /// Bump frontier for fresh allocations.
    frontier: u64,
    /// Per-class free lists of previously freed offsets.
    free_lists: Vec<Vec<u64>>,
    live_bytes: u64,
    model: ScmModel,
}

impl PmemPool {
    /// Creates a pool of `capacity` bytes with the given timing model.
    pub fn new(capacity: u64, model: ScmModel) -> Self {
        PmemPool {
            capacity,
            store: ExtentStore::new(),
            frontier: FIRST_OFFSET,
            free_lists: vec![Vec::new(); CLASSES],
            live_bytes: 0,
            model,
        }
    }

    /// The timing model.
    pub fn model(&self) -> &ScmModel {
        &self.model
    }

    /// Allocates `size` zeroed bytes.
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
            self.store.discard(off, block);
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
        Ok(PmemOid { offset, size })
    }

    /// Frees an object, returning its block to its class's free list; the
    /// block reads as zero when it is allocated again.
    pub fn free(&mut self, oid: PmemOid) {
        let class = class_of(oid.size);
        self.free_lists[class].push(oid.offset);
        self.live_bytes = self.live_bytes.saturating_sub(class_size(class));
    }

    /// Reads `len` bytes from an object at byte `at` within it (zero-copy
    /// when the range lies inside one prior write).
    pub fn read(&mut self, oid: PmemOid, at: u64, len: usize) -> Result<Bytes, PmemError> {
        if at + len as u64 > oid.size {
            return Err(PmemError::BadAddress);
        }
        Ok(self.store.read(oid.offset + at, len))
    }

    /// Writes `data` into an object at byte `at`.
    pub fn write(&mut self, oid: PmemOid, at: u64, data: &[u8]) -> Result<(), PmemError> {
        if at + data.len() as u64 > oid.size {
            return Err(PmemError::BadAddress);
        }
        self.store.write_slice(oid.offset + at, data);
        Ok(())
    }

    /// Zero-copy write into an object: the store adopts the `Bytes` handle.
    pub fn write_bytes(&mut self, oid: PmemOid, at: u64, data: &Bytes) -> Result<(), PmemError> {
        if at + data.len() as u64 > oid.size {
            return Err(PmemError::BadAddress);
        }
        self.store.write(oid.offset + at, data.clone());
        Ok(())
    }

    /// Whether object range `[at, at+len)` holds the per-chunk CRCs
    /// `expected` names — compared with the cached chunk CRCs one for one
    /// (the VOS fetch-verify path).
    pub fn verify_chunks<I>(
        &mut self,
        oid: PmemOid,
        at: u64,
        len: u64,
        expected: I,
    ) -> Result<bool, PmemError>
    where
        I: ExactSizeIterator<Item = u32>,
    {
        if at + len > oid.size {
            return Err(PmemError::BadAddress);
        }
        Ok(self.store.verify_chunks(oid.offset + at, len, expected))
    }

    /// Seeds the chunk-CRC cache of a freshly written object range with
    /// CRCs the writer computed anyway — the object's grid is
    /// extent-relative, so chunk `i` covers object bytes
    /// `[at + i*CRC_CHUNK, ...)` of the write that placed them.
    pub fn seed_crcs<I>(&mut self, oid: PmemOid, at: u64, crcs: I)
    where
        I: ExactSizeIterator<Item = u32>,
    {
        self.store.seed_crcs(oid.offset + at, crcs);
    }

    /// Data-plane (copy vs zero-copy, CRC scan vs combine) counters.
    pub fn data_plane_stats(&self) -> DataPlaneStats {
        self.store.stats()
    }

    /// Bytes currently allocated (by block size).
    #[cfg(test)]
    fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Pool capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The completion time of a timed read of `bytes` starting at `now`.
    pub fn timed_read(&self, now: SimTime, bytes: u64) -> SimTime {
        now + self.model.read_cost(bytes)
    }

    /// The completion time of a timed persist of `bytes` starting at `now`.
    pub fn timed_write(&self, now: SimTime, bytes: u64) -> SimTime {
        now + self.model.write_cost(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> PmemPool {
        PmemPool::new(1 << 24, ScmModel::optane_class())
    }

    #[test]
    fn object_bounds_enforced() {
        let mut p = pool();
        let oid = p.alloc(10).unwrap();
        assert_eq!(p.write(oid, 8, &[0; 4]).unwrap_err(), PmemError::BadAddress);
        assert_eq!(p.read(oid, 8, 4).unwrap_err(), PmemError::BadAddress);
    }

    #[test]
    fn persist_cost_scales_with_bytes() {
        let m = ScmModel::optane_class();
        assert!(m.write_cost(1 << 20) > m.write_cost(64));
        assert!(m.read_cost(64) < m.write_cost(64));
        let p = pool();
        let t = p.timed_write(SimTime::ZERO, 4096);
        assert!(t > p.timed_read(SimTime::ZERO, 4096));
    }

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
        let mut p = pool();
        let oid = p.alloc(100).unwrap();
        p.write(oid, 0, b"persistent!").unwrap();
        assert_eq!(&p.read(oid, 0, 11).unwrap()[..], b"persistent!");
    }

    #[test]
    fn fresh_allocations_are_zeroed() {
        let mut p = pool();
        let a = p.alloc(128).unwrap();
        p.write(a, 0, &[0xFF; 128]).unwrap();
        p.free(a);
        let b = p.alloc(128).unwrap();
        assert_eq!(b.offset, a.offset, "block recycled");
        assert!(p.read(b, 0, 128).unwrap().iter().all(|&x| x == 0));
    }

    #[test]
    fn allocations_never_overlap() {
        let mut p = pool();
        let oids: Vec<_> = (0..64).map(|_| p.alloc(100).unwrap()).collect();
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
        let mut p = PmemPool::new(64 * 1024, ScmModel::optane_class());
        let mut got = 0;
        while p.alloc(4096).is_ok() {
            got += 1;
        }
        assert!(got > 0 && got <= 16);
        assert_eq!(p.alloc(4096).unwrap_err(), PmemError::OutOfSpace);
        assert_eq!(p.alloc(0).unwrap_err(), PmemError::OutOfSpace);
    }

    /// An access past the end of an object that ends at the end of the
    /// pool is refused.
    #[test]
    fn bad_address_rejected() {
        let mut p = PmemPool::new(4096 * 2, ScmModel::optane_class());
        let oid = p.alloc(4096).unwrap();
        assert_eq!(oid.offset + oid.size, p.capacity());
        assert_eq!(p.read(oid, 4096, 1).unwrap_err(), PmemError::BadAddress);
        assert_eq!(
            p.write(oid, 0, &[0; 4097]).unwrap_err(),
            PmemError::BadAddress
        );
    }

    #[test]
    fn live_bytes_track_alloc_free() {
        let mut p = pool();
        let oid = p.alloc(1000).unwrap();
        assert_eq!(p.live_bytes(), 1024);
        p.free(oid);
        assert_eq!(p.live_bytes(), 0);
    }
}
