//! The transactional persistent pool: PMDK `pmemobj`-style undo-log
//! transactions over the heap, plus the SCM timing model.
//!
//! DAOS stores VOS metadata and small I/O in SCM; crash-consistent updates
//! there rely on transactions. The undo log here is functional: aborting a
//! transaction really restores the snapshotted ranges, and a property test
//! drives random interleavings against a model.

use bytes::Bytes;
use ros2_sim::{SimDuration, SimTime};

use crate::heap::{Heap, PmemError, PmemOid};

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
    pub fn read_cost(&self, bytes: u64) -> SimDuration {
        self.read_latency + SimDuration::for_bytes(bytes, self.read_bw)
    }

    /// Time to persist `bytes` to SCM.
    pub fn write_cost(&self, bytes: u64) -> SimDuration {
        self.write_latency + SimDuration::for_bytes(bytes, self.write_bw)
    }
}

/// One undo-log record: the original contents of a snapshotted range.
#[derive(Debug)]
struct UndoRecord {
    offset: u64,
    original: Bytes,
}

/// A persistent memory pool with transactions (PMDK `pmemobj` analogue).
#[derive(Debug)]
pub struct PmemPool {
    heap: Heap,
    model: ScmModel,
    undo: Option<Vec<UndoRecord>>,
    /// OIDs allocated inside the open transaction (freed on abort).
    tx_allocs: Vec<PmemOid>,
    tx_commits: u64,
    tx_aborts: u64,
}

impl PmemPool {
    /// Creates a pool of `capacity` bytes with the given timing model.
    pub fn new(capacity: u64, model: ScmModel) -> Self {
        PmemPool {
            heap: Heap::new(capacity),
            model,
            undo: None,
            tx_allocs: Vec::new(),
            tx_commits: 0,
            tx_aborts: 0,
        }
    }

    /// The timing model.
    pub fn model(&self) -> &ScmModel {
        &self.model
    }

    /// Allocates `size` zeroed bytes. Inside a transaction the allocation
    /// is rolled back on abort.
    pub fn alloc(&mut self, size: u64) -> Result<PmemOid, PmemError> {
        let oid = self.heap.alloc(size)?;
        if self.undo.is_some() {
            self.tx_allocs.push(oid);
        }
        Ok(oid)
    }

    /// Frees an object. (Frees inside a transaction are applied eagerly;
    /// real PMDK defers them to commit — callers in this codebase free only
    /// after commit points, which tests assert.)
    pub fn free(&mut self, oid: PmemOid) {
        self.heap.free(oid);
    }

    /// Reads `len` bytes from an object at byte `at` within it (zero-copy
    /// when the range lies inside one prior write).
    pub fn read(&mut self, oid: PmemOid, at: u64, len: usize) -> Result<Bytes, PmemError> {
        if at + len as u64 > oid.size {
            return Err(PmemError::BadAddress);
        }
        self.heap.read(oid.offset + at, len)
    }

    /// Writes `data` into an object at byte `at`. If a transaction is open
    /// the range must have been snapshotted with [`PmemPool::tx_add_range`]
    /// first (enforced in debug builds by convention, not trapped).
    pub fn write(&mut self, oid: PmemOid, at: u64, data: &[u8]) -> Result<(), PmemError> {
        if at + data.len() as u64 > oid.size {
            return Err(PmemError::BadAddress);
        }
        self.heap.write(oid.offset + at, data)
    }

    /// Zero-copy write into an object: the heap adopts the `Bytes` handle.
    pub fn write_bytes(&mut self, oid: PmemOid, at: u64, data: &Bytes) -> Result<(), PmemError> {
        if at + data.len() as u64 > oid.size {
            return Err(PmemError::BadAddress);
        }
        self.heap.write_bytes(oid.offset + at, data)
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
        self.heap.verify_chunks(oid.offset + at, len, expected)
    }

    /// Seeds the chunk-CRC cache of a freshly written object range with
    /// CRCs the writer computed anyway — the object's grid is
    /// extent-relative, so chunk `i` covers object bytes
    /// `[at + i*CRC_CHUNK, ...)` of the write that placed them.
    pub fn seed_crcs<I>(&mut self, oid: PmemOid, at: u64, crcs: I)
    where
        I: ExactSizeIterator<Item = u32>,
    {
        self.heap.seed_crcs(oid.offset + at, crcs);
    }

    /// Data-plane (copy vs zero-copy, CRC scan vs combine) counters.
    pub fn data_plane_stats(&self) -> ros2_buf::DataPlaneStats {
        self.heap.data_plane_stats()
    }

    /// Opens a transaction. Nesting is not supported.
    pub fn tx_begin(&mut self) -> Result<(), PmemError> {
        if self.undo.is_some() {
            return Err(PmemError::TxState);
        }
        self.undo = Some(Vec::new());
        self.tx_allocs.clear();
        Ok(())
    }

    /// Snapshots `[at, at+len)` of `oid` into the undo log.
    pub fn tx_add_range(&mut self, oid: PmemOid, at: u64, len: usize) -> Result<(), PmemError> {
        if at + len as u64 > oid.size {
            return Err(PmemError::BadAddress);
        }
        let original = self.heap.read(oid.offset + at, len)?;
        match &mut self.undo {
            Some(log) => {
                log.push(UndoRecord {
                    offset: oid.offset + at,
                    original,
                });
                Ok(())
            }
            None => Err(PmemError::TxState),
        }
    }

    /// Commits: discards the undo log, keeping all writes.
    /// Returns the persist cost of the committed log (drain + flushes).
    pub fn tx_commit(&mut self) -> Result<SimDuration, PmemError> {
        let log = self.undo.take().ok_or(PmemError::TxState)?;
        let logged: u64 = log.iter().map(|r| r.original.len() as u64).sum();
        self.tx_allocs.clear();
        self.tx_commits += 1;
        // Undo-log records are persisted before the data writes; charge one
        // persist pass over the logged bytes.
        Ok(self.model.write_cost(logged.max(64)))
    }

    /// Aborts: restores every snapshotted range (in reverse order) and
    /// frees transaction-local allocations.
    pub fn tx_abort(&mut self) -> Result<(), PmemError> {
        let log = self.undo.take().ok_or(PmemError::TxState)?;
        for rec in log.into_iter().rev() {
            self.heap
                .write(rec.offset, &rec.original)
                .expect("undo target must remain valid");
        }
        for oid in std::mem::take(&mut self.tx_allocs) {
            self.heap.free(oid);
        }
        self.tx_aborts += 1;
        Ok(())
    }

    /// Whether a transaction is currently open.
    pub fn in_tx(&self) -> bool {
        self.undo.is_some()
    }

    /// Completed transaction counts `(commits, aborts)`.
    pub fn tx_counts(&self) -> (u64, u64) {
        (self.tx_commits, self.tx_aborts)
    }

    /// Bytes currently allocated.
    pub fn live_bytes(&self) -> u64 {
        self.heap.live_bytes()
    }

    /// Pool capacity.
    pub fn capacity(&self) -> u64 {
        self.heap.capacity()
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
    fn commit_keeps_writes() {
        let mut p = pool();
        let oid = p.alloc(64).unwrap();
        p.write(oid, 0, b"before").unwrap();
        p.tx_begin().unwrap();
        p.tx_add_range(oid, 0, 6).unwrap();
        p.write(oid, 0, b"after!").unwrap();
        p.tx_commit().unwrap();
        assert_eq!(&p.read(oid, 0, 6).unwrap()[..], b"after!");
        assert_eq!(p.tx_counts(), (1, 0));
    }

    #[test]
    fn abort_restores_snapshots() {
        let mut p = pool();
        let oid = p.alloc(64).unwrap();
        p.write(oid, 0, b"before").unwrap();
        p.tx_begin().unwrap();
        p.tx_add_range(oid, 0, 6).unwrap();
        p.write(oid, 0, b"after!").unwrap();
        p.tx_abort().unwrap();
        assert_eq!(&p.read(oid, 0, 6).unwrap()[..], b"before");
        assert_eq!(p.tx_counts(), (0, 1));
    }

    #[test]
    fn abort_frees_tx_allocations() {
        let mut p = pool();
        p.tx_begin().unwrap();
        let oid = p.alloc(128).unwrap();
        assert_eq!(p.live_bytes(), 128);
        p.tx_abort().unwrap();
        assert_eq!(p.live_bytes(), 0);
        // The freed block is recyclable.
        let again = p.alloc(128).unwrap();
        assert_eq!(again.offset, oid.offset);
    }

    #[test]
    fn overlapping_snapshots_restore_in_reverse() {
        let mut p = pool();
        let oid = p.alloc(16).unwrap();
        p.write(oid, 0, &[1u8; 16]).unwrap();
        p.tx_begin().unwrap();
        p.tx_add_range(oid, 0, 8).unwrap();
        p.write(oid, 0, &[2u8; 8]).unwrap();
        p.tx_add_range(oid, 4, 8).unwrap(); // snapshots [2,2,2,2,1,1,1,1]
        p.write(oid, 4, &[3u8; 8]).unwrap();
        p.tx_abort().unwrap();
        assert_eq!(&p.read(oid, 0, 16).unwrap()[..], &[1u8; 16]);
    }

    #[test]
    fn tx_state_errors() {
        let mut p = pool();
        assert_eq!(p.tx_commit().unwrap_err(), PmemError::TxState);
        assert_eq!(p.tx_abort().unwrap_err(), PmemError::TxState);
        p.tx_begin().unwrap();
        assert_eq!(p.tx_begin().unwrap_err(), PmemError::TxState);
        assert!(p.in_tx());
        p.tx_commit().unwrap();
        assert!(!p.in_tx());
    }

    #[test]
    fn object_bounds_enforced() {
        let mut p = pool();
        let oid = p.alloc(10).unwrap();
        assert_eq!(p.write(oid, 8, &[0; 4]).unwrap_err(), PmemError::BadAddress);
        assert_eq!(p.read(oid, 8, 4).unwrap_err(), PmemError::BadAddress);
        p.tx_begin().unwrap();
        assert_eq!(
            p.tx_add_range(oid, 8, 4).unwrap_err(),
            PmemError::BadAddress
        );
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
}
