//! # ros2-hw — calibrated hardware models for the ROS2 testbed
//!
//! Every physical component of the paper's §4.1 platform, as an explicit,
//! documented timing model:
//!
//! * [`nvme`] — enterprise NVMe SSD (bandwidth ceilings, channel occupancy,
//!   access latencies);
//! * [`cpu`] — host x86 vs. BlueField-3 ARM cores, per-transport CPU costs,
//!   the kernel block-layer stage, the DPU TCP receive-path penalty;
//! * [`link`] — ConnectX NICs, the 100 Gbps switch port and the path
//!   latency across the switch, wire-protocol efficiencies;
//! * [`gpu`] — Table 1's GPU generations and the §2.1 ingest model;
//! * [`platform`] — the BlueField-3's DRAM, node core complements, client
//!   placement, cluster topology and transport selection.
//!
//! Calibration constants carry doc comments explaining which figure shape
//! they anchor; `DESIGN.md` §8 summarizes the rationale. Higher layers never
//! hardcode timing — they ask these models.

#![warn(missing_docs)]

pub mod cpu;
pub mod gpu;
pub mod link;
pub mod nvme;
pub mod platform;

pub use cpu::{
    checksum_cost, inline_crypto_cost, nic_crc_cost, per_byte, CoreClass, DpuTcpRxModel,
    HostPathModel, TransportCost,
};
pub use gpu::{gpu_by_name, GpuSpec, IngestModel, LlmPhase, TABLE1};
pub use link::{gbps, NicModel, WireProtocol, PATH_LATENCY, SWITCH_PORT_RATE};
pub use nvme::{NvmeModel, LBA_SIZE};
pub use platform::{ClientPlacement, ClusterTopology, CpuComplement, Transport, BLUEFIELD3_DRAM};
