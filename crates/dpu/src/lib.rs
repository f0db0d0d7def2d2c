//! # ros2-dpu — the BlueField-3 offload runtime
//!
//! What distinguishes ROS2 from a plain DAOS deployment: the client stack
//! runs *on the SmartNIC*. This crate supplies the DPU-resident pieces —
//! the agent that terminates the host's gRPC control channel and manages
//! the 30 GiB staging-DRAM pool, per-tenant isolation (dedicated protection
//! domains, scoped rkeys, token-bucket QoS), and the inline crypto service
//! that operates on payloads without touching the host (§2.3, §5).
//!
//! The data-plane client is [`DpuClient`]: per-tenant
//! `ros2_daos::DaosClient` lanes constructed on the DPU node, wrapped with
//! the host's posted doorbell legs, QoS admission, scoped-rkey refresh, and
//! DPU-side checksumming. It implements `ros2_daos::ObjectClient`, so the
//! DFS layer drives it exactly like the host-resident client.

#![warn(missing_docs)]

pub mod agent;
pub mod cache;
pub mod client;
pub mod error;
mod lane;
pub mod tenant;

pub use agent::{default_control, DpuAgent, InlineService};
pub use cache::{CacheKey, DpuCacheStats, ReadCache, RecordKey};
pub use client::{DpuClient, DpuStats, DpuTenantSpec};
pub use error::DpuError;
pub use tenant::{QosLimits, TenantCtx, TenantManager};
