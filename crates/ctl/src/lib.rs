//! # ros2-ctl — the lightweight control plane
//!
//! ROS2 separates "a lightweight control plane (gRPC for namespace and
//! capability exchange) from a high-throughput data plane" (abstract).
//! This crate is the control side: a compact binary wire format (the role
//! protobuf plays under gRPC), the session/auth state machine, the message
//! schema for session setup, submission doorbells and pool-map and
//! background-service events, and a gRPC-class timing model. No payload
//! bytes ever travel here — bulk data belongs to `ros2-fabric`.

#![warn(missing_docs)]

pub mod channel;
pub mod messages;
pub mod wire;

pub use channel::{ControlChannel, ControlError, ControlModel, Session};
pub use messages::{ControlRequest, ControlResponse, IoPatch};
pub use wire::{WireError, WireReader, WireWriter};
