//! # ros2-fio — the FIO-style benchmark harness
//!
//! The paper evaluates everything "with standard POSIX operations (read,
//! write, randread, randwrite) generated by FIO" (§3.1). This crate is that
//! methodology: job specs with block size / numjobs / iodepth, a
//! deterministic closed-loop driver with ramp-then-measure windows, and the
//! three assembled systems under test — local io_uring (Fig. 3), remote
//! SPDK NVMe-oF (Fig. 4), and end-to-end DFS with host- or DPU-resident
//! clients (Fig. 5). [`figures`] defines every figure's cells (and the
//! paper figures' claims) once, for their printers and their tests.
//!
//! ## Example
//!
//! ```
//! use ros2_fio::{run_fio, JobSpec, LocalFioWorld, RwMode};
//! use ros2_nvme::DataMode;
//! use ros2_sim::SimDuration;
//!
//! // One job of 1 MiB sequential reads against a single local SSD.
//! let mut world = LocalFioWorld::new(1, 1, 1 << 30, DataMode::Null);
//! let spec = JobSpec::new(RwMode::Read, 1 << 20, 1)
//!     .windows(SimDuration::from_millis(50), SimDuration::from_millis(200));
//! let report = run_fio(&mut world, &spec);
//! // A single job saturates the drive's large-block ceiling (Fig. 3a).
//! assert!(report.gib_per_sec() > 5.0, "{}", report.summary());
//! ```

#![warn(missing_docs)]

pub mod driver;
pub mod figures;
pub mod incast;
#[cfg(test)]
mod ledger_tests;
pub mod spec;
pub mod worlds;
#[cfg(test)]
mod worlds_tests;
pub mod worldspec;
#[cfg(test)]
mod worldspec_tests;

pub use driver::{run_fio, FioOp, Workload};
pub use incast::IncastFioWorld;
/// The FIO worlds' name for a client node's stack.
pub use ros2_core::ClientStack as FioClient;
pub use spec::{FioReport, JobSpec, RwMode};
pub use worlds::{DfsFioWorld, LocalFioWorld, SpdkFioWorld};
pub use worldspec::{Clients, WorldSpec};
