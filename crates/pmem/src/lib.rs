//! # ros2-pmem — PMDK-style storage-class-memory tier
//!
//! The DAOS I/O engine accesses SCM through PMDK (§3.3). This crate supplies
//! the analogue: one type, [`PmemPool`], holding objects with stable
//! identifiers ([`PmemOid`]) in a zero-copy extent store behind a
//! size-class allocator, and an Optane-class timing model ([`ScmModel`])
//! for persists.
//!
//! VOS (in `ros2-daos`) keeps object metadata and small records here, and
//! NVMe extents hold bulk data — the same split DAOS uses.
//!
//! ## Example
//!
//! ```
//! use ros2_pmem::{PmemPool, ScmModel};
//!
//! let mut pool = PmemPool::new(1 << 20, ScmModel::optane_class());
//! let oid = pool.alloc(64).unwrap();
//! assert_eq!(&pool.read(oid, 0, 5).unwrap()[..], &[0; 5]); // fresh: zeroed
//! pool.write(oid, 0, b"hello").unwrap();
//! assert_eq!(&pool.read(oid, 0, 5).unwrap()[..], b"hello");
//! ```

#![warn(missing_docs)]

pub mod pool;

pub use pool::{PmemError, PmemOid, PmemPool, ScmModel};
