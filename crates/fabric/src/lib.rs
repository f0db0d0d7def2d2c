//! # ros2-fabric — UCX/libfabric-style data-plane transports
//!
//! The paper's data plane runs "UCX or libfabric over either TCP or RDMA"
//! (§3.2). This crate is that layer: typed connections between nodes that
//! carry two-sided messages on both transports and one-sided RDMA
//! READ/WRITE on the RDMA transport, with every CPU, kernel, socket, NIC,
//! switch and enforcement cost accounted against the right resource.
//!
//! The cost structure is what makes the paper's findings reproducible:
//!
//! * TCP pays per-message CPU on both ends, a serialized per-socket stage,
//!   and a node-wide serialized kernel stage — so small-I/O throughput
//!   plateaus regardless of core count (Fig. 4c);
//! * RDMA pays a small initiator cost and nothing on the target for
//!   one-sided ops — so it scales with cores (Fig. 4d) and survives DPU
//!   offload at host parity (Fig. 5b);
//! * a DPU running TCP pays the §4.4 receive-path penalty, reproducing the
//!   good-TX / weak-RX asymmetry (Fig. 5a).

#![warn(missing_docs)]

#[allow(clippy::module_inception)]
pub mod fabric;
pub mod node;

pub use fabric::{ConnId, Delivery, Dir, Fabric, FabricError, SendCores, WireTraversalStats};
pub use node::{FabricNode, NodeSpec};
