//! Identifiers, access rights and error taxonomy for the verbs layer.

use std::fmt;

use ros2_sim::SimTime;

/// A node identifier within a deployment (client host, DPU, storage server).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Protection-domain handle. PDs are the tenant-isolation boundary: queue
/// pairs and memory regions both belong to exactly one PD, and remote access
/// through a QP can only reach MRs of the *same* PD.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct PdId(pub u32);

/// Memory-region handle.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct MrId(pub u32);

/// Queue-pair handle.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct QpId(pub u32);

/// A remote key: the capability a peer must present for one-sided access.
/// Values are drawn from the device RNG, so they are not guessable from
/// registration order (cf. Pythia-style rkey probing, §2.3).
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct RKey(pub u64);

impl fmt::Debug for RKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rkey:{:016x}", self.0)
    }
}

/// A local key, validated when the initiating NIC reads/writes local memory.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct LKey(pub u64);

impl fmt::Debug for LKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lkey:{:016x}", self.0)
    }
}

/// A virtual address within a node's registered-memory space.
pub type MemAddr = u64;

/// Access rights on a memory region (verbs `IBV_ACCESS_*`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct AccessFlags {
    /// The local NIC may write into the region (receives, read responses).
    pub local_write: bool,
    /// Remote peers may RDMA READ the region.
    pub remote_read: bool,
    /// Remote peers may RDMA WRITE the region.
    pub remote_write: bool,
}

impl AccessFlags {
    /// Local-only access (no remote rights at all).
    pub fn local_only() -> Self {
        AccessFlags {
            local_write: true,
            remote_read: false,
            remote_write: false,
        }
    }
    /// Remote read plus local write.
    pub fn remote_read() -> Self {
        AccessFlags {
            local_write: true,
            remote_read: true,
            remote_write: false,
        }
    }
    /// Remote write plus local write.
    pub fn remote_write() -> Self {
        AccessFlags {
            local_write: true,
            remote_read: false,
            remote_write: true,
        }
    }
    /// Full remote access.
    pub fn remote_rw() -> Self {
        AccessFlags {
            local_write: true,
            remote_read: true,
            remote_write: true,
        }
    }
}

/// Where a buffer physically lives (§3.5: the GPUDirect extension swaps
/// the DPU-DRAM sink for GPU HBM without touching the rest of the design).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum MemoryDomain {
    /// Host DRAM.
    HostDram,
    /// BlueField-3 onboard DRAM (the prototype's data sink).
    DpuDram,
    /// GPU HBM, reachable only when peermem registration is enabled.
    GpuHbm,
}

/// Queue-pair transport service.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum QpType {
    /// Reliable Connected (`ucx+rc` / `ofi+verbs`).
    Rc,
    /// Dynamically Connected (`ucx+dc_x`), sharing initiator state.
    DcX,
}

/// Queue-pair state machine (the verbs RESET→INIT→RTR→RTS ladder, plus the
/// ERROR absorbing state entered on protection violations).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum QpState {
    /// Freshly created.
    Reset,
    /// Initialized with a PD.
    Init,
    /// Ready to receive.
    ReadyToReceive,
    /// Ready to send (fully connected).
    ReadyToSend,
    /// Fatal: all further work requests fail until the QP is reset.
    Error,
}

/// Everything that can go wrong in the verbs layer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum VerbsError {
    /// The presented rkey matches no live region.
    InvalidRkey,
    /// The rkey was explicitly revoked.
    RkeyRevoked,
    /// The rkey's validity window elapsed (scoped/short-lived rkeys, §2.3).
    RkeyExpired,
    /// The region forbids the requested direction.
    AccessDenied,
    /// The access falls outside the registered range.
    OutOfBounds,
    /// The region belongs to a different protection domain than the QP —
    /// the cross-tenant case.
    PdMismatch,
    /// The QP is not in a state that can carry the request.
    QpNotReady,
    /// The handle does not exist.
    BadHandle,
    /// Buffer allocation exhausted the node's registered-memory budget.
    OutOfMemory,
    /// GPU-domain registration attempted without peermem enabled.
    NoPeermem,
    /// Local-key validation failed on the initiator.
    InvalidLkey,
    /// A work-request chain with no WAIT, or one fired while disarmed or by
    /// a completion on a QP it does not wait on.
    BadChain,
    /// A chain's CRC32C check rejected the bytes that landed.
    CrcMismatch,
}

/// Security/violation accounting, surfaced by the isolation example and the
/// multi-tenant tests.
#[derive(Clone, Debug, Default)]
pub struct ViolationStats {
    /// Unknown rkey presentations.
    pub invalid_rkey: u64,
    /// Uses of revoked rkeys.
    pub revoked_rkey: u64,
    /// Uses of expired rkeys.
    pub expired_rkey: u64,
    /// Direction violations (e.g. write to a read-only MR).
    pub access_denied: u64,
    /// Out-of-range accesses against valid regions.
    pub out_of_bounds: u64,
    /// Cross-PD (cross-tenant) attempts.
    pub pd_mismatch: u64,
}

impl ViolationStats {
    /// Total violations of any kind.
    pub fn total(&self) -> u64 {
        self.invalid_rkey
            + self.revoked_rkey
            + self.expired_rkey
            + self.access_denied
            + self.out_of_bounds
            + self.pd_mismatch
    }

    /// Records one violation of the matching kind. Non-violation errors
    /// (bad handles, QP state) are not security events and are ignored.
    pub fn record(&mut self, err: VerbsError) {
        match err {
            VerbsError::InvalidRkey => self.invalid_rkey += 1,
            VerbsError::RkeyRevoked => self.revoked_rkey += 1,
            VerbsError::RkeyExpired => self.expired_rkey += 1,
            VerbsError::AccessDenied => self.access_denied += 1,
            VerbsError::OutOfBounds => self.out_of_bounds += 1,
            VerbsError::PdMismatch => self.pd_mismatch += 1,
            _ => {}
        }
    }
}

/// An expiry policy for registered memory (scoped rkeys).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Expiry {
    /// Valid until deregistration.
    Never,
    /// Valid until the given instant.
    At(SimTime),
}

impl Expiry {
    /// Whether the key is expired at `now`.
    pub fn expired(self, now: SimTime) -> bool {
        match self {
            Expiry::Never => false,
            Expiry::At(t) => now > t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_flag_presets() {
        assert!(!AccessFlags::local_only().remote_read);
        assert!(AccessFlags::remote_read().remote_read);
        assert!(!AccessFlags::remote_read().remote_write);
        assert!(AccessFlags::remote_rw().remote_write);
    }

    #[test]
    fn expiry_semantics() {
        assert!(!Expiry::Never.expired(SimTime::MAX));
        let e = Expiry::At(SimTime::from_secs(1));
        assert!(!e.expired(SimTime::from_secs(1)));
        assert!(e.expired(SimTime::from_secs(1) + ros2_sim::SimDuration::from_nanos(1)));
    }

    #[test]
    fn violations_accumulate_by_kind() {
        let mut v = ViolationStats::default();
        v.record(VerbsError::PdMismatch);
        v.record(VerbsError::PdMismatch);
        v.record(VerbsError::RkeyExpired);
        v.record(VerbsError::BadHandle); // not a security event
        assert_eq!(v.pd_mismatch, 2);
        assert_eq!(v.expired_rkey, 1);
        assert_eq!(v.total(), 3);
    }

    #[test]
    fn keys_do_not_leak_value_in_debug() {
        let k = RKey(0xDEADBEEF);
        assert!(format!("{k:?}").starts_with("rkey:"));
    }
}
