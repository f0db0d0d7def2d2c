//! Registered-memory space of one node: a bump-allocated sparse byte store
//! that the NIC (and only the NIC, for remote peers) reads and writes.
//!
//! Contents live in a shared [`ros2_buf::ExtentStore`]: an RDMA WRITE
//! landing here *adopts* the sender's `Bytes` handle instead of copying
//! page by page, and an RDMA READ of a contiguously written range returns
//! a zero-copy slice — the functional model of the paper's zero-copy
//! rendezvous placement.

use std::collections::BTreeMap;

use bytes::Bytes;
use ros2_buf::{DataPlaneStats, ExtentStore};

use crate::types::{MemAddr, MemoryDomain, VerbsError};

const PAGE: usize = 4096;

/// One allocated buffer's bookkeeping.
#[derive(Clone, Debug)]
struct Buffer {
    len: u64,
    domain: MemoryDomain,
}

/// A node's DMA-able memory: buffers carved from a budget, with sparse
/// zero-copy extent contents.
#[derive(Debug)]
pub struct NodeMemory {
    budget: u64,
    used: u64,
    frontier: MemAddr,
    /// Sorted by base address; buffers never overlap (bump allocation), so
    /// containment queries are one `range` lookup.
    buffers: BTreeMap<MemAddr, Buffer>,
    store: ExtentStore,
}

impl NodeMemory {
    /// Creates a memory space of `budget` bytes (e.g. 30 GiB of DPU DRAM).
    pub fn new(budget: u64) -> Self {
        NodeMemory {
            budget,
            used: 0,
            frontier: PAGE as u64,
            buffers: BTreeMap::new(),
            store: ExtentStore::new(),
        }
    }

    /// Allocates a buffer of `len` bytes in `domain`.
    pub fn alloc(&mut self, len: u64, domain: MemoryDomain) -> Result<MemAddr, VerbsError> {
        if len == 0 || self.used + len > self.budget {
            return Err(VerbsError::OutOfMemory);
        }
        let addr = self.frontier;
        // Page-align the next buffer so buffers never share pages.
        self.frontier += len.div_ceil(PAGE as u64) * PAGE as u64;
        self.used += len;
        self.buffers.insert(addr, Buffer { len, domain });
        Ok(addr)
    }

    /// Frees the buffer at `addr`, dropping its contents (no data leaks to
    /// a future tenant of the range).
    pub fn free(&mut self, addr: MemAddr) -> Result<(), VerbsError> {
        let buf = self.buffers.remove(&addr).ok_or(VerbsError::BadHandle)?;
        self.used -= buf.len;
        self.store.discard(addr, buf.len);
        Ok(())
    }

    /// The buffer entry containing `addr`, if any: one ordered-map range
    /// lookup (buffers are disjoint by construction).
    fn containing(&self, addr: MemAddr) -> Option<(MemAddr, &Buffer)> {
        self.buffers
            .range(..=addr)
            .next_back()
            .filter(|(&base, b)| addr < base + b.len)
            .map(|(&base, b)| (base, b))
    }

    /// The domain of the buffer *containing* `addr` (not just starting at
    /// it).
    pub fn domain_of_containing(&self, addr: MemAddr) -> Option<MemoryDomain> {
        self.containing(addr).map(|(_, b)| b.domain)
    }

    /// Whether `[at, at+len)` lies inside a single allocated buffer.
    pub fn in_bounds(&self, at: MemAddr, len: u64) -> bool {
        self.containing(at)
            .is_some_and(|(base, b)| at + len <= base + b.len)
    }

    /// Raw read (no permission semantics — callers enforce those). Reads
    /// covered by one prior write return a zero-copy slice of it.
    pub fn read(&mut self, at: MemAddr, len: usize) -> Bytes {
        self.store.read(at, len)
    }

    /// Raw zero-copy write: adopts the caller's buffer handle.
    pub fn write(&mut self, at: MemAddr, data: &Bytes) {
        self.store.write(at, data.clone());
    }

    /// Raw write of a borrowed slice (application-side fills; one copy).
    pub fn write_slice(&mut self, at: MemAddr, data: &[u8]) {
        self.store.write_slice(at, data);
    }

    /// Bytes currently allocated.
    #[cfg(test)]
    fn used(&self) -> u64 {
        self.used
    }

    /// The allocation budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Data-plane (copy vs zero-copy) counters for this memory space.
    pub fn data_plane_stats(&self) -> DataPlaneStats {
        self.store.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_write_read() {
        let mut m = NodeMemory::new(1 << 20);
        let a = m.alloc(100, MemoryDomain::HostDram).unwrap();
        m.write(a, &Bytes::from_static(b"dma contents"));
        assert_eq!(&m.read(a, 12)[..], b"dma contents");
    }

    #[test]
    fn handle_writes_are_zero_copy() {
        let mut m = NodeMemory::new(1 << 20);
        let a = m.alloc(1 << 20, MemoryDomain::DpuDram).unwrap();
        let payload = Bytes::from(vec![0xCD; 1 << 20]);
        m.write(a, &payload);
        let back = m.read(a, 1 << 20);
        assert_eq!(back, payload);
        let s = m.data_plane_stats();
        assert_eq!(s.bytes_copied, 0, "staging path must not memcpy");
        assert_eq!(s.bytes_zero_copy, 2 << 20);
    }

    #[test]
    fn buffers_never_share_pages() {
        let mut m = NodeMemory::new(1 << 20);
        let a = m.alloc(10, MemoryDomain::HostDram).unwrap();
        let b = m.alloc(10, MemoryDomain::DpuDram).unwrap();
        assert_ne!(a / PAGE as u64, b / PAGE as u64);
    }

    #[test]
    fn budget_is_enforced_and_freed() {
        let mut m = NodeMemory::new(8192);
        let a = m.alloc(8000, MemoryDomain::HostDram).unwrap();
        assert_eq!(
            m.alloc(8000, MemoryDomain::HostDram).unwrap_err(),
            VerbsError::OutOfMemory
        );
        m.free(a).unwrap();
        assert!(m.alloc(8000, MemoryDomain::HostDram).is_ok());
        assert_eq!(
            m.alloc(0, MemoryDomain::HostDram).unwrap_err(),
            VerbsError::OutOfMemory
        );
    }

    #[test]
    fn free_clears_contents() {
        let mut m = NodeMemory::new(1 << 20);
        let a = m.alloc(64, MemoryDomain::HostDram).unwrap();
        m.write_slice(a, &[0xAA; 64]);
        m.free(a).unwrap();
        // The old extents are dropped: even reading the stale address gives
        // zeroes, so no data leaks to a future tenant of that range.
        assert!(m.read(a, 64).iter().all(|&x| x == 0));
        assert_eq!(m.used(), 0);
        assert!(m.budget() >= 1 << 20);
    }

    #[test]
    fn bounds_checking() {
        let mut m = NodeMemory::new(1 << 20);
        let a = m.alloc(100, MemoryDomain::HostDram).unwrap();
        assert!(m.in_bounds(a, 100));
        assert!(m.in_bounds(a + 50, 50));
        assert!(!m.in_bounds(a + 50, 51));
        assert!(!m.in_bounds(a + 200, 1));
        assert_eq!(m.free(a + 1).unwrap_err(), VerbsError::BadHandle);
    }

    #[test]
    fn containment_uses_ordered_lookup() {
        let mut m = NodeMemory::new(1 << 24);
        let addrs: Vec<_> = (0..64)
            .map(|_| m.alloc(100, MemoryDomain::HostDram).unwrap())
            .collect();
        for &a in &addrs {
            assert_eq!(m.domain_of_containing(a + 99), Some(MemoryDomain::HostDram));
            assert_eq!(m.domain_of_containing(a + 100), None); // page gap
        }
        assert_eq!(m.domain_of_containing(0), None);
    }
}
