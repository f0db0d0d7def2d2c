//! The per-node RDMA device context: protection domains, memory regions,
//! queue pairs, and the NIC-side enforcement of one-sided operations.
//!
//! This is where the paper's §2.3 security model lives. Every remote access
//! is checked — rkey liveness, expiry, revocation, PD match against the
//! *target-side* QP, direction rights, and bounds — before a single byte
//! moves. A violation increments the device's [`ViolationStats`] and throws
//! the target QP into the ERROR state, exactly as an RC NIC would.

use std::collections::HashMap;

use bytes::Bytes;
use ros2_sim::{SimRng, SimTime, Timed, Visit};

use crate::chain::{ChainStats, WorkChain};
use crate::memory::NodeMemory;
use crate::types::{
    AccessFlags, Expiry, LKey, MemAddr, MemoryDomain, MrId, NodeId, PdId, QpId, QpState, QpType,
    RKey, VerbsError, ViolationStats,
};

/// A protection domain: the tenant boundary.
#[derive(Clone, Debug)]
pub struct ProtectionDomain {
    /// Owning tenant label (for reports; enforcement is by PdId).
    pub tenant: String,
}

/// A registered memory region.
#[derive(Clone, Debug)]
pub struct MemoryRegion {
    /// Owning protection domain.
    pub pd: PdId,
    /// Base address within the node's memory.
    pub addr: MemAddr,
    /// Registered length.
    pub len: u64,
    /// Access rights.
    pub access: AccessFlags,
    /// Remote key.
    pub rkey: RKey,
    /// Local key.
    pub lkey: LKey,
    /// Scoped-rkey expiry (§2.3 mitigation: short-lived scoped rkeys).
    pub expiry: Expiry,
    /// Which silicon the pages live on.
    pub domain: MemoryDomain,
    /// Whether the rkey was administratively revoked.
    pub revoked: bool,
}

/// A queue pair.
#[derive(Clone, Debug)]
pub struct QueuePair {
    /// Owning protection domain.
    pub pd: PdId,
    /// Service type.
    pub qp_type: QpType,
    /// Connection state.
    pub state: QpState,
    /// The connected peer, once RTR/RTS.
    pub peer: Option<(NodeId, QpId)>,
}

/// The right an access needs on the region it names.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Right {
    /// A peer's RDMA READ.
    RemoteRead,
    /// A peer's RDMA WRITE.
    RemoteWrite,
    /// The local NIC writing on its own account (a chained work request).
    LocalWrite,
    /// The local NIC reading on its own account (a chained SEND's gather).
    /// Registration itself grants it.
    LocalRead,
}

/// The device context for one node.
#[derive(Debug)]
pub struct RdmaDevice {
    node: NodeId,
    pub(crate) memory: NodeMemory,
    pds: HashMap<PdId, ProtectionDomain>,
    mrs: HashMap<MrId, MemoryRegion>,
    qps: HashMap<QpId, QueuePair>,
    rkey_index: HashMap<RKey, MrId>,
    lkey_index: HashMap<LKey, MrId>,
    next_pd: u32,
    next_mr: u32,
    next_qp: u32,
    rng: SimRng,
    peermem: bool,
    violations: ViolationStats,
    /// Completed one-sided operations (ops, bytes) for reporting.
    pub remote_ops: (u64, u64),
    /// Work-request chains, indexed by [`crate::ChainId`] (destroyed
    /// chains leave a hole; handles are never reused).
    pub(crate) chains: Vec<Option<WorkChain>>,
    pub(crate) chain_stats: ChainStats,
    /// Fault injection: the next RDMA WRITE to land is stored with its
    /// first byte flipped.
    corrupt_next_landing: bool,
}

impl RdmaDevice {
    /// Creates a device for `node` with a registered-memory budget.
    pub fn new(node: NodeId, mem_budget: u64, rng: SimRng) -> Self {
        RdmaDevice {
            node,
            memory: NodeMemory::new(mem_budget),
            pds: HashMap::new(),
            mrs: HashMap::new(),
            qps: HashMap::new(),
            rkey_index: HashMap::new(),
            lkey_index: HashMap::new(),
            next_pd: 1,
            next_mr: 1,
            next_qp: 1,
            rng,
            peermem: false,
            violations: ViolationStats::default(),
            remote_ops: (0, 0),
            chains: Vec::new(),
            chain_stats: ChainStats::default(),
            corrupt_next_landing: false,
        }
    }

    /// This device's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Enables GPU-domain registrations (loading `nvidia-peermem`, §3.5).
    pub fn enable_peermem(&mut self) {
        self.peermem = true;
    }

    /// Security violation counters.
    pub fn violations(&self) -> &ViolationStats {
        &self.violations
    }

    // ---- protection domains -------------------------------------------

    /// Allocates a protection domain for `tenant`.
    pub fn alloc_pd(&mut self, tenant: impl Into<String>) -> PdId {
        let id = PdId(self.next_pd);
        self.next_pd += 1;
        self.pds.insert(
            id,
            ProtectionDomain {
                tenant: tenant.into(),
            },
        );
        id
    }

    /// The tenant label of a PD.
    pub fn pd_tenant(&self, pd: PdId) -> Option<&str> {
        self.pds.get(&pd).map(|p| p.tenant.as_str())
    }

    // ---- buffers --------------------------------------------------------

    /// Allocates a DMA-able buffer. GPU-domain buffers require peermem.
    pub fn alloc_buffer(&mut self, len: u64, domain: MemoryDomain) -> Result<MemAddr, VerbsError> {
        if domain == MemoryDomain::GpuHbm && !self.peermem {
            return Err(VerbsError::NoPeermem);
        }
        self.memory.alloc(len, domain)
    }

    /// Application-side write into its own buffer (not a remote op; one
    /// copy — the caller only holds a borrowed slice).
    pub fn write_local(&mut self, addr: MemAddr, data: &[u8]) -> Result<(), VerbsError> {
        if !self.memory.in_bounds(addr, data.len() as u64) {
            return Err(VerbsError::OutOfBounds);
        }
        self.memory.write_slice(addr, data);
        Ok(())
    }

    /// Application-side zero-copy write: the buffer adopts the caller's
    /// `Bytes` handle (the staging pattern the DAOS client hot path uses).
    pub fn write_local_bytes(&mut self, addr: MemAddr, data: &Bytes) -> Result<(), VerbsError> {
        if !self.memory.in_bounds(addr, data.len() as u64) {
            return Err(VerbsError::OutOfBounds);
        }
        self.memory.write(addr, data);
        Ok(())
    }

    /// Application-side read of its own buffer (zero-copy when the range
    /// was written contiguously).
    pub fn read_local(&mut self, addr: MemAddr, len: usize) -> Result<Bytes, VerbsError> {
        if !self.memory.in_bounds(addr, len as u64) {
            return Err(VerbsError::OutOfBounds);
        }
        Ok(self.memory.read(addr, len))
    }

    /// Frees a buffer.
    pub fn free_buffer(&mut self, addr: MemAddr) -> Result<(), VerbsError> {
        self.memory.free(addr)
    }

    // ---- memory regions -------------------------------------------------

    /// Registers `[addr, addr+len)` in `pd` with `access` rights and an
    /// optional expiry. Returns the MR handle plus its keys.
    pub fn reg_mr(
        &mut self,
        pd: PdId,
        addr: MemAddr,
        len: u64,
        access: AccessFlags,
        expiry: Expiry,
    ) -> Result<(MrId, RKey, LKey), VerbsError> {
        if !self.pds.contains_key(&pd) {
            return Err(VerbsError::BadHandle);
        }
        if !self.memory.in_bounds(addr, len) {
            return Err(VerbsError::OutOfBounds);
        }
        let domain = self
            .memory
            .domain_of_containing(addr)
            .ok_or(VerbsError::OutOfBounds)?;
        if domain == MemoryDomain::GpuHbm && !self.peermem {
            return Err(VerbsError::NoPeermem);
        }
        let id = MrId(self.next_mr);
        self.next_mr += 1;
        let rkey = RKey(self.rng.next_u64());
        let lkey = LKey(self.rng.next_u64());
        self.mrs.insert(
            id,
            MemoryRegion {
                pd,
                addr,
                len,
                access,
                rkey,
                lkey,
                expiry,
                domain,
                revoked: false,
            },
        );
        self.rkey_index.insert(rkey, id);
        self.lkey_index.insert(lkey, id);
        Ok((id, rkey, lkey))
    }

    /// Revokes the MR's rkey without deregistering (fast-path kill switch).
    pub fn revoke_rkey(&mut self, mr: MrId) -> Result<(), VerbsError> {
        let region = self.mrs.get_mut(&mr).ok_or(VerbsError::BadHandle)?;
        region.revoked = true;
        Ok(())
    }

    /// Deregisters a region entirely.
    pub fn dereg_mr(&mut self, mr: MrId) -> Result<(), VerbsError> {
        let region = self.mrs.remove(&mr).ok_or(VerbsError::BadHandle)?;
        self.rkey_index.remove(&region.rkey);
        self.lkey_index.remove(&region.lkey);
        Ok(())
    }

    /// The region behind an MR handle.
    pub fn mr(&self, mr: MrId) -> Option<&MemoryRegion> {
        self.mrs.get(&mr)
    }

    // ---- queue pairs ------------------------------------------------------

    /// Creates a QP in `pd` (state INIT).
    pub fn create_qp(&mut self, pd: PdId, qp_type: QpType) -> Result<QpId, VerbsError> {
        if !self.pds.contains_key(&pd) {
            return Err(VerbsError::BadHandle);
        }
        let id = QpId(self.next_qp);
        self.next_qp += 1;
        self.qps.insert(
            id,
            QueuePair {
                pd,
                qp_type,
                state: QpState::Init,
                peer: None,
            },
        );
        Ok(id)
    }

    /// Connects a QP to a remote peer (INIT → RTR → RTS collapsed, as UCX
    /// does during wireup).
    pub fn connect_qp(
        &mut self,
        qp: QpId,
        peer_node: NodeId,
        peer_qp: QpId,
    ) -> Result<(), VerbsError> {
        let q = self.qps.get_mut(&qp).ok_or(VerbsError::BadHandle)?;
        if q.state != QpState::Init {
            return Err(VerbsError::QpNotReady);
        }
        q.peer = Some((peer_node, peer_qp));
        q.state = QpState::ReadyToSend;
        Ok(())
    }

    /// The QP's current state.
    pub fn qp_state(&self, qp: QpId) -> Option<QpState> {
        self.qps.get(&qp).map(|q| q.state)
    }

    /// Number of QPs currently allocated on this device. RC connection
    /// state is the scarce on-NIC resource (ICM cache), so clients are
    /// expected to keep this O(peers), not O(jobs × peers).
    pub fn qp_count(&self) -> usize {
        self.qps.len()
    }

    /// The QP's protection domain.
    pub fn qp_pd(&self, qp: QpId) -> Option<PdId> {
        self.qps.get(&qp).map(|q| q.pd)
    }

    /// Resets an errored QP back to INIT (administrative recovery).
    pub fn reset_qp(&mut self, qp: QpId) -> Result<(), VerbsError> {
        let q = self.qps.get_mut(&qp).ok_or(VerbsError::BadHandle)?;
        q.state = QpState::Init;
        q.peer = None;
        Ok(())
    }

    /// Validates that the initiator may use `lkey` over `[addr, addr+len)`.
    #[cfg(test)]
    fn check_local_access(&self, lkey: LKey, addr: MemAddr, len: u64) -> Result<(), VerbsError> {
        let mr_id = self.lkey_index.get(&lkey).ok_or(VerbsError::InvalidLkey)?;
        let mr = &self.mrs[mr_id];
        if addr < mr.addr || addr + len > mr.addr + mr.len {
            return Err(VerbsError::OutOfBounds);
        }
        Ok(())
    }

    // ---- one-sided execution (target side) ------------------------------

    /// The §2.3 check every NIC access passes at the instant it happens:
    /// `rkey` must name a live, unrevoked, unexpired region of `pd` that
    /// grants `right` over `[addr, addr+len)`.
    pub(crate) fn authorize(
        &self,
        now: SimTime,
        pd: PdId,
        rkey: RKey,
        addr: MemAddr,
        len: u64,
        right: Right,
    ) -> Result<MrId, VerbsError> {
        let mr_id = *self.rkey_index.get(&rkey).ok_or(VerbsError::InvalidRkey)?;
        let mr = &self.mrs[&mr_id];
        if mr.revoked {
            return Err(VerbsError::RkeyRevoked);
        }
        if mr.expiry.expired(now) {
            return Err(VerbsError::RkeyExpired);
        }
        // The tenant boundary: the MR must live in the same PD as the
        // QP the request arrived on (or the chain was built on).
        if mr.pd != pd {
            return Err(VerbsError::PdMismatch);
        }
        let granted = match right {
            Right::RemoteRead => mr.access.remote_read,
            Right::RemoteWrite => mr.access.remote_write,
            Right::LocalWrite => mr.access.local_write,
            Right::LocalRead => true,
        };
        if !granted {
            return Err(VerbsError::AccessDenied);
        }
        if addr < mr.addr || addr + len > mr.addr + mr.len {
            return Err(VerbsError::OutOfBounds);
        }
        Ok(mr_id)
    }

    /// Counts a failed [`Self::authorize`] and kills the QP it happened on,
    /// as real RC hardware does on a protection fault.
    pub(crate) fn protection_fault(&mut self, qp: QpId, e: VerbsError) {
        self.violations.record(e);
        if let Some(q) = self.qps.get_mut(&qp) {
            q.state = QpState::Error;
        }
    }

    /// Full §2.3 admission check for a remote access arriving on `target_qp`
    /// presenting `rkey` over `[addr, addr+len)`.
    fn check_remote(
        &mut self,
        now: SimTime,
        target_qp: QpId,
        rkey: RKey,
        addr: MemAddr,
        len: u64,
        write: bool,
    ) -> Result<MrId, VerbsError> {
        let qp = self.qps.get(&target_qp).ok_or(VerbsError::BadHandle)?;
        if qp.state != QpState::ReadyToSend && qp.state != QpState::ReadyToReceive {
            return Err(VerbsError::QpNotReady);
        }
        let right = match write {
            true => Right::RemoteWrite,
            false => Right::RemoteRead,
        };
        let check = self.authorize(now, qp.pd, rkey, addr, len, right);
        if let Err(e) = check {
            self.protection_fault(target_qp, e);
        }
        check
    }

    /// Executes an RDMA WRITE landing on this device: places `data` at
    /// `addr` with zero target-CPU involvement.
    pub fn execute_remote_write(
        &mut self,
        now: SimTime,
        target_qp: QpId,
        rkey: RKey,
        addr: MemAddr,
        data: &Bytes,
    ) -> Result<(), VerbsError> {
        self.check_remote(now, target_qp, rkey, addr, data.len() as u64, true)?;
        if std::mem::take(&mut self.corrupt_next_landing) && !data.is_empty() {
            let mut rotten = data.to_vec();
            rotten[0] ^= 0xFF;
            self.memory.write(addr, &Bytes::from(rotten));
        } else {
            self.memory.write(addr, data);
        }
        self.remote_ops.0 += 1;
        self.remote_ops.1 += data.len() as u64;
        Ok(())
    }

    /// Test hook: the next RDMA WRITE to land on this device is stored with
    /// its first byte flipped — corruption on the wire or in the staging
    /// DRAM, past every check the sender could make.
    pub fn corrupt_next_landing(&mut self) {
        self.corrupt_next_landing = true;
    }

    /// Executes an RDMA READ served by this device.
    pub fn execute_remote_read(
        &mut self,
        now: SimTime,
        target_qp: QpId,
        rkey: RKey,
        addr: MemAddr,
        len: u64,
    ) -> Result<Bytes, VerbsError> {
        self.check_remote(now, target_qp, rkey, addr, len, false)?;
        self.remote_ops.0 += 1;
        self.remote_ops.1 += len;
        Ok(self.memory.read(addr, len as usize))
    }
}

impl Timed for RdmaDevice {
    /// The registered memory's data-plane counters.
    fn visit(&mut self, v: &mut dyn Visit) {
        v.data_plane(self.memory.data_plane_stats());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros2_sim::SimDuration;

    fn dev() -> RdmaDevice {
        RdmaDevice::new(NodeId(0), 1 << 30, SimRng::new(7))
    }

    /// Standard two-tenant fixture: tenant A with a remote-writable MR and a
    /// connected QP; tenant B with its own QP.
    fn two_tenants(d: &mut RdmaDevice) -> (QpId, RKey, MemAddr, QpId) {
        let pd_a = d.alloc_pd("tenant-a");
        let pd_b = d.alloc_pd("tenant-b");
        let buf = d.alloc_buffer(4096, MemoryDomain::HostDram).unwrap();
        let (_, rkey, _) = d
            .reg_mr(pd_a, buf, 4096, AccessFlags::remote_rw(), Expiry::Never)
            .unwrap();
        let qp_a = d.create_qp(pd_a, QpType::Rc).unwrap();
        d.connect_qp(qp_a, NodeId(1), QpId(99)).unwrap();
        let qp_b = d.create_qp(pd_b, QpType::Rc).unwrap();
        d.connect_qp(qp_b, NodeId(2), QpId(98)).unwrap();
        (qp_a, rkey, buf, qp_b)
    }

    #[test]
    fn one_sided_write_and_read_round_trip() {
        let mut d = dev();
        let (qp, rkey, addr, _) = two_tenants(&mut d);
        let payload = Bytes::from_static(b"zero copy");
        d.execute_remote_write(SimTime::ZERO, qp, rkey, addr, &payload)
            .unwrap();
        let back = d
            .execute_remote_read(SimTime::ZERO, qp, rkey, addr, 9)
            .unwrap();
        assert_eq!(back, payload);
        assert_eq!(d.remote_ops, (2, 18));
    }

    #[test]
    fn cross_tenant_access_is_denied_and_counted() {
        let mut d = dev();
        let (_, rkey_a, addr, qp_b) = two_tenants(&mut d);
        // Tenant B stole tenant A's rkey; the PD check stops the access.
        let err = d
            .execute_remote_read(SimTime::ZERO, qp_b, rkey_a, addr, 16)
            .unwrap_err();
        assert_eq!(err, VerbsError::PdMismatch);
        assert_eq!(d.violations().pd_mismatch, 1);
        // And the offending QP is dead.
        assert_eq!(d.qp_state(qp_b), Some(QpState::Error));
    }

    #[test]
    fn errored_qp_rejects_even_valid_requests() {
        let mut d = dev();
        let (qp_a, rkey, addr, qp_b) = two_tenants(&mut d);
        let _ = d.execute_remote_read(SimTime::ZERO, qp_b, rkey, addr, 1);
        assert_eq!(
            d.execute_remote_read(SimTime::ZERO, qp_b, rkey, addr, 1)
                .unwrap_err(),
            VerbsError::QpNotReady
        );
        // The victim tenant's own QP still works.
        assert!(d
            .execute_remote_read(SimTime::ZERO, qp_a, rkey, addr, 1)
            .is_ok());
        // Reset recovers the QP to INIT.
        d.reset_qp(qp_b).unwrap();
        assert_eq!(d.qp_state(qp_b), Some(QpState::Init));
    }

    #[test]
    fn expired_rkey_is_rejected() {
        let mut d = dev();
        let pd = d.alloc_pd("t");
        let buf = d.alloc_buffer(1024, MemoryDomain::HostDram).unwrap();
        let expiry = Expiry::At(SimTime::from_secs(1));
        let (_, rkey, _) = d
            .reg_mr(pd, buf, 1024, AccessFlags::remote_rw(), expiry)
            .unwrap();
        let qp = d.create_qp(pd, QpType::Rc).unwrap();
        d.connect_qp(qp, NodeId(1), QpId(1)).unwrap();
        assert!(d
            .execute_remote_read(SimTime::from_millis(999), qp, rkey, buf, 8)
            .is_ok());
        let late = SimTime::from_secs(1) + SimDuration::from_nanos(1);
        assert_eq!(
            d.execute_remote_read(late, qp, rkey, buf, 8).unwrap_err(),
            VerbsError::RkeyExpired
        );
        assert_eq!(d.violations().expired_rkey, 1);
    }

    #[test]
    fn revoked_rkey_is_rejected() {
        let mut d = dev();
        let pd = d.alloc_pd("t");
        let buf = d.alloc_buffer(1024, MemoryDomain::HostDram).unwrap();
        let (mr, rkey, _) = d
            .reg_mr(pd, buf, 1024, AccessFlags::remote_rw(), Expiry::Never)
            .unwrap();
        let qp = d.create_qp(pd, QpType::Rc).unwrap();
        d.connect_qp(qp, NodeId(1), QpId(1)).unwrap();
        d.revoke_rkey(mr).unwrap();
        assert_eq!(
            d.execute_remote_read(SimTime::ZERO, qp, rkey, buf, 8)
                .unwrap_err(),
            VerbsError::RkeyRevoked
        );
    }

    #[test]
    fn direction_rights_enforced() {
        let mut d = dev();
        let pd = d.alloc_pd("t");
        let buf = d.alloc_buffer(1024, MemoryDomain::HostDram).unwrap();
        let (_, rkey, _) = d
            .reg_mr(pd, buf, 1024, AccessFlags::remote_read(), Expiry::Never)
            .unwrap();
        let qp = d.create_qp(pd, QpType::Rc).unwrap();
        d.connect_qp(qp, NodeId(1), QpId(1)).unwrap();
        assert!(d
            .execute_remote_read(SimTime::ZERO, qp, rkey, buf, 8)
            .is_ok());
        d.reset_qp(qp).unwrap();
        d.connect_qp(qp, NodeId(1), QpId(1)).unwrap();
        let err = d
            .execute_remote_write(SimTime::ZERO, qp, rkey, buf, &Bytes::from_static(b"x"))
            .unwrap_err();
        assert_eq!(err, VerbsError::AccessDenied);
    }

    #[test]
    fn bounds_enforced_within_region() {
        let mut d = dev();
        let pd = d.alloc_pd("t");
        let buf = d.alloc_buffer(4096, MemoryDomain::HostDram).unwrap();
        // Register only the middle 1 KiB.
        let (_, rkey, _) = d
            .reg_mr(
                pd,
                buf + 1024,
                1024,
                AccessFlags::remote_rw(),
                Expiry::Never,
            )
            .unwrap();
        let qp = d.create_qp(pd, QpType::Rc).unwrap();
        d.connect_qp(qp, NodeId(1), QpId(1)).unwrap();
        assert!(d
            .execute_remote_read(SimTime::ZERO, qp, rkey, buf + 1024, 1024)
            .is_ok());
        assert_eq!(
            d.execute_remote_read(SimTime::ZERO, qp, rkey, buf, 8)
                .unwrap_err(),
            VerbsError::OutOfBounds
        );
    }

    #[test]
    fn unknown_rkey_rejected() {
        let mut d = dev();
        let (qp, _, addr, _) = two_tenants(&mut d);
        assert_eq!(
            d.execute_remote_read(SimTime::ZERO, qp, RKey(0x1234), addr, 1)
                .unwrap_err(),
            VerbsError::InvalidRkey
        );
        assert_eq!(d.violations().invalid_rkey, 1);
    }

    #[test]
    fn gpu_registration_requires_peermem() {
        let mut d = dev();
        assert_eq!(
            d.alloc_buffer(4096, MemoryDomain::GpuHbm).unwrap_err(),
            VerbsError::NoPeermem
        );
        d.enable_peermem();
        let buf = d.alloc_buffer(4096, MemoryDomain::GpuHbm).unwrap();
        let pd = d.alloc_pd("gpu-tenant");
        let (mr, _, _) = d
            .reg_mr(pd, buf, 4096, AccessFlags::remote_rw(), Expiry::Never)
            .unwrap();
        assert_eq!(d.mr(mr).unwrap().domain, MemoryDomain::GpuHbm);
    }

    #[test]
    fn dereg_invalidates_keys() {
        let mut d = dev();
        let (qp, rkey, addr, _) = two_tenants(&mut d);
        let mr = MrId(1);
        d.dereg_mr(mr).unwrap();
        assert_eq!(
            d.execute_remote_read(SimTime::ZERO, qp, rkey, addr, 1)
                .unwrap_err(),
            VerbsError::InvalidRkey
        );
        assert_eq!(d.dereg_mr(mr).unwrap_err(), VerbsError::BadHandle);
    }

    #[test]
    fn local_key_validation() {
        let mut d = dev();
        let pd = d.alloc_pd("t");
        let buf = d.alloc_buffer(1024, MemoryDomain::HostDram).unwrap();
        let (_, _, lkey) = d
            .reg_mr(pd, buf, 1024, AccessFlags::local_only(), Expiry::Never)
            .unwrap();
        assert!(d.check_local_access(lkey, buf, 1024).is_ok());
        assert_eq!(
            d.check_local_access(lkey, buf, 2048).unwrap_err(),
            VerbsError::OutOfBounds
        );
        assert_eq!(
            d.check_local_access(LKey(42), buf, 8).unwrap_err(),
            VerbsError::InvalidLkey
        );
    }

    #[test]
    fn qp_lifecycle() {
        let mut d = dev();
        let pd = d.alloc_pd("t");
        let qp = d.create_qp(pd, QpType::DcX).unwrap();
        assert_eq!(d.qp_state(qp), Some(QpState::Init));
        d.connect_qp(qp, NodeId(5), QpId(7)).unwrap();
        assert_eq!(d.qp_state(qp), Some(QpState::ReadyToSend));
        // Double-connect is a state error.
        assert_eq!(
            d.connect_qp(qp, NodeId(5), QpId(7)).unwrap_err(),
            VerbsError::QpNotReady
        );
        assert_eq!(d.qp_pd(qp), Some(pd));
    }
}
