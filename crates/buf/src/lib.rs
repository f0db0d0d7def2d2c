//! The shared functional data plane: one zero-copy extent store backing
//! every byte-addressed memory in the workspace (registered NIC memory,
//! NVMe namespaces, the SCM heap), plus a hardware-rate CRC32C with a
//! GF(2) combinator so checksums over stored data can be *derived* from
//! cached per-chunk CRCs instead of rescanned.
//!
//! Before this crate existed the workspace carried three near-identical
//! 4 KiB-paged copy stores; every write memcpy'd payload bytes into pages
//! and every read memcpy'd them back out. The extent store keeps written
//! data as refcounted [`bytes::Bytes`] handles instead — a write *adopts*
//! the caller's buffer, and a read contained in one extent returns a
//! zero-copy slice — which is exactly the rendezvous discipline the source
//! paper's RDMA data path is built around.

#![warn(missing_docs)]

pub mod alloc_count;
pub mod crc;
pub mod store;

pub use alloc_count::{allocated_bytes, allocation_count, CountingAlloc};
pub use crc::{
    crc32c, crc32c_append, crc32c_append_sw, crc32c_combine, crc32c_zeros, hw_acceleration,
};
pub use store::{
    bytes_crc32c, is_shared_zeros, zero_bytes, DataPlaneStats, ExtentStore, CRC_CHUNK, ZERO_POOL,
};
