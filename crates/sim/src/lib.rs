//! # ros2-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the ROS2 reproduction: virtual time, a deterministic
//! event queue, queueing-resource primitives, seeded randomness, and the
//! measurement instruments shared by every benchmark harness.
//!
//! ## Design
//!
//! ROS2 worlds are *compositions of pure state machines*. Engine crates
//! (NVMe, fabric, DAOS, …) never schedule events themselves; they take the
//! current [`SimTime`] plus an input and return timed outputs, computing
//! service windows with the resource primitives in [`resources`]. A
//! deployment "world" owns one [`EventQueue`] and routes outputs between
//! engines. Two properties fall out of this structure:
//!
//! * **Determinism** — ties in the queue break by insertion order, all
//!   randomness flows from one scenario seed through [`SimRng::fork`], and
//!   timing math is integer-only. Identical seeds replay bit-identically.
//! * **Speed** — nothing ticks. Queueing, backpressure, and saturation
//!   emerge from closed-loop workloads meeting finite-rate resources, so a
//!   multi-gigabyte-per-second sweep point simulates in milliseconds.
//!
//! ## Example
//!
//! ```
//! use ros2_sim::{EventQueue, SimTime, SimDuration, BandwidthServer};
//!
//! // A 1 GB/s link carrying two back-to-back 1 MB messages.
//! let mut link = BandwidthServer::new(1_000_000_000);
//! let mut queue: EventQueue<&str> = EventQueue::new();
//! let g1 = link.transmit(SimTime::ZERO, 1_000_000);
//! let g2 = link.transmit(SimTime::ZERO, 1_000_000);
//! queue.push(g1.finish, "first delivered");
//! queue.push(g2.finish, "second delivered");
//! let (t, what) = queue.pop().unwrap();
//! assert_eq!(what, "first delivered");
//! assert_eq!(t, SimTime::ZERO + SimDuration::from_millis(1));
//! ```

#![warn(missing_docs)]

pub mod lru;
pub mod queue;
pub mod resources;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timed;

pub use lru::DetLru;
pub use queue::EventQueue;
pub use resources::{
    BandwidthServer, Grant, QosLane, QosLimits, ResourceStats, ServerPool, TokenBucket,
};
pub use rng::{SimRng, Zipf};
pub use stats::{Counter, IoReport, LatencyHistogram, ThroughputMeter};
pub use time::{SimDuration, SimTime};
pub use timed::{Timed, Visit};
