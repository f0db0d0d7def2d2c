//! # ros2-nvme — simulated NVMe SSDs with functional contents
//!
//! Each device pairs the calibrated timing model from `ros2-hw` (channel
//! occupancy, bandwidth ceilings, access latencies, queue-depth limits) with
//! a *functional* backing store: writes are retained and reads return real
//! bytes, so every layer above — SPDK, DAOS, DFS — moves genuine data. For
//! throughput sweeps a null backing reads zeroes and retains nothing.
//!
//! ## Example
//!
//! ```
//! use bytes::Bytes;
//! use ros2_hw::{NvmeModel, LBA_SIZE};
//! use ros2_nvme::{Backing, NvmeCmd, NvmeDevice};
//! use ros2_sim::SimTime;
//!
//! let mut ssd = NvmeDevice::new(NvmeModel::enterprise_1600(), Backing::stored());
//! let payload = Bytes::from(vec![7u8; LBA_SIZE as usize]);
//! let write = ssd.submit(SimTime::ZERO, NvmeCmd::write(0, payload.clone())).unwrap();
//! let read = ssd.submit(write.at, NvmeCmd::read(0, 1)).unwrap();
//! assert_eq!(read.data.unwrap(), payload);
//! ```

#![warn(missing_docs)]

pub mod array;
pub mod backing;
pub mod device;

pub use array::{DataMode, NvmeArray};
pub use backing::{Backing, PAGE};
pub use device::{NvmeCmd, NvmeCompletion, NvmeDevice, NvmeError, NvmeOpcode, NvmeStats};
