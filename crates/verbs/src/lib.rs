//! # ros2-verbs — RDMA verbs semantics with tenant isolation
//!
//! The semantic core of RDMA in ROS2: protection domains, registered memory
//! regions with scoped/expiring rkeys, the QP state ladder, and NIC-side
//! enforcement of one-sided READ/WRITE. This layer is *functional* — bytes
//! really move between node memories and every §2.3 security property is
//! enforced and counted:
//!
//! * **cross-tenant access** is stopped by the PD check (an rkey stolen by
//!   tenant B fails through tenant B's QP, and kills that QP);
//! * **rkey leakage** is mitigated by revocation and expiring scoped rkeys;
//! * **bounds and direction rights** are checked before any byte moves;
//! * **work-request chains** ([`chain`]) — verbs that release one another
//!   with no core in between — are built inside one PD and pass the same
//!   checks again when they fire.
//!
//! Timing lives in `ros2-fabric`; GPU-domain buffers (GPUDirect, §3.5) are
//! gated on peermem registration.
//!
//! ## Example
//!
//! ```
//! use bytes::Bytes;
//! use ros2_sim::{SimRng, SimTime};
//! use ros2_verbs::{AccessFlags, Expiry, MemoryDomain, NodeId, QpType, RdmaDevice};
//!
//! let mut nic = RdmaDevice::new(NodeId(0), 1 << 20, SimRng::new(1));
//! let pd = nic.alloc_pd("tenant-a");
//! let buf = nic.alloc_buffer(4096, MemoryDomain::HostDram).unwrap();
//! let (_mr, rkey, _lkey) =
//!     nic.reg_mr(pd, buf, 4096, AccessFlags::remote_rw(), Expiry::Never).unwrap();
//! let qp = nic.create_qp(pd, QpType::Rc).unwrap();
//! nic.connect_qp(qp, NodeId(1), ros2_verbs::QpId(1)).unwrap();
//! // A peer's RDMA WRITE lands with zero target-CPU involvement:
//! nic.execute_remote_write(SimTime::ZERO, qp, rkey, buf, &Bytes::from_static(b"hi")).unwrap();
//! assert_eq!(&nic.read_local(buf, 2).unwrap()[..], b"hi");
//! ```

#![warn(missing_docs)]

pub mod chain;
pub mod device;
pub mod memory;
pub mod types;

pub use chain::{ChainId, ChainStats, Landing, WorkChainBuilder};
pub use device::{MemoryRegion, ProtectionDomain, QueuePair, RdmaDevice};
pub use memory::NodeMemory;
pub use types::{
    AccessFlags, Expiry, LKey, MemAddr, MemoryDomain, MrId, NodeId, PdId, QpId, QpState, QpType,
    RKey, VerbsError, ViolationStats,
};
