//! # ros2-daos — the DAOS-like object storage engine and client
//!
//! A functional reproduction of the DAOS stack the paper builds on (§2.4,
//! §3.3): a transactional, epoch-versioned object model with a dkey/akey
//! key–array layout, end-to-end CRC32C checksums, SCM + NVMe media tiering
//! (PMDK- and SPDK-style, both in user space), per-target xstreams, and a
//! placement layer that stripes file-data objects across all targets.
//!
//! The [`DaosClient`] is the piece ROS2 offloads to the BlueField-3: it is
//! placement-agnostic and pays its CPU costs on whichever fabric node hosts
//! it, while the [`DaosEngine`] stays unmodified on the storage server —
//! exactly the paper's architecture.

#![warn(missing_docs)]

pub mod checksum;
pub mod client;
pub mod cluster;
pub mod conn_pool;
pub mod descriptor;
pub mod engine;
pub mod pipeline;
pub mod types;
pub mod vos;

pub use checksum::{crc32c, crc32c_append, Checksum};
pub use client::{
    whole_batch_error, ClientOp, ClientOpResult, ConnectSpec, DaosClient, FetchMeta, FetchOp,
    FiredTemplate, ObjectClient, UpdateOp,
};
pub use cluster::{
    BgService, EngineCluster, EngineHealth, PoolMap, PoolMember, RebuildStats, ReplicaSet, Routing,
    ScrubOutcome, ScrubStats, ServiceScheduler, MAX_RF,
};
pub use conn_pool::{ConnPool, ConnPoolStats};
pub use descriptor::TEMPLATE_LEN;
pub use engine::{Arrival, ContainerMeta, DaosEngine, ValueKind};
pub use pipeline::{Forwarded, OpRing, RetryPolicy, RetryStats, SlotTrail};
pub use types::{
    placement_hash, AKey, DKey, DaosCostModel, DaosError, Epoch, KeyBytes, ObjClass, ObjectId,
    RecordKey, RecordVersion, INLINE_KEY,
};
pub use vos::{Location, RecordDump, ScrubCheck, VosStats, VosTarget};
