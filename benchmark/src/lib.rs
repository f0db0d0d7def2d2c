//! The ROS2 reproduction's benchmark: six named workloads, each reporting
//! the same end-to-end metrics on two clocks — *sim*, the virtual time of
//! the modelled storage system, and *host*, the wall clock the simulator
//! itself costs — plus per-layer numbers from a traced run.
//!
//! Only [`sut`] names types of the program under test. See `README.md`.

#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod report;
pub mod run;
pub mod stats;
pub mod sut;
pub mod tape;
pub mod trace;
pub mod workloads;
