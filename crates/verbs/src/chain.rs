//! Work-request chains: pre-posted verbs in which the completion of one
//! releases the next, with no core in between (RedN's construction — a
//! WAIT work request parks the chain on a completion, and every later
//! request is ENABLEd by the one before it).
//!
//! A chain belongs to one queue pair, its *owner*, and lives entirely in
//! that QP's protection domain: the builder the device hands out rejects a
//! QP or a memory region of any other domain. Like every NIC access a
//! chain is checked again when it *fires* — each region it names must still
//! be registered, unrevoked, unexpired and large enough at that instant. A
//! region that went away between post and fire is a protection fault: it
//! is counted in [`ViolationStats`](crate::ViolationStats), the chain stops
//! where it stands, and the owner QP enters ERROR, exactly as for a
//! one-sided access.
//!
//! Two verbs exist, the two a completion-forwarding chain needs: a
//! fixed-function CRC32C check of bytes that just landed in a region, and a
//! posted write of a pre-built completion record into another region. A
//! fired chain is spent; [`RdmaDevice::arm_chain`] re-arms it in place.
//! Neither arming nor firing allocates. Timing is the caller's
//! (`ros2_hw::NicModel::chain_hop`, `ros2_hw::nic_crc_cost`).

use bytes::Bytes;
use ros2_buf::bytes_crc32c;
use ros2_sim::SimTime;

use crate::device::{RdmaDevice, Right};
use crate::types::{MemAddr, MrId, PdId, QpId, QpState, RKey, VerbsError};

/// Work-request-chain handle.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct ChainId(pub u32);

/// Chain accounting, beside the device's violation counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ChainStats {
    /// Chains that ran to their last work request.
    pub completed: u64,
    /// Bytes the CRC engine checked and accepted.
    pub verified_bytes: u64,
    /// Chains stopped by a checksum that did not match.
    pub crc_rejects: u64,
    /// Completion records written.
    pub records_written: u64,
}

/// The bytes a chain's CRC check covers: what one RDMA WRITE just placed
/// at `addr`, and the checksum the sender's completion carried for them.
///
/// The firing names the range and hands over the bytes as it read them
/// from the region when the write completed; the device authorizes the
/// range but does not read it again. It could not: a client with several
/// ops in flight lands them all in one staging buffer, so by the time a
/// drained queue's chains are fired the region holds the last op's bytes.
#[derive(Copy, Clone, Debug)]
pub struct Landing<'a> {
    /// Where the bytes landed.
    pub addr: MemAddr,
    /// The landed bytes, as read from the region when the write completed.
    pub bytes: &'a Bytes,
    /// CRC32C of the payload as the sender computed it.
    pub wire_crc: u32,
}

/// One chained work request. Each is ENABLEd by the completion of the one
/// before it; the first by the chain's WAIT.
#[derive(Clone, Debug)]
enum ChainWr {
    /// CRC32C over the landed bytes, compared with the carried checksum.
    VerifyCrc32c { rkey: RKey },
    /// Posted write of `record` at `addr`.
    WriteRecord {
        rkey: RKey,
        addr: MemAddr,
        record: Bytes,
    },
}

/// A built chain.
#[derive(Debug)]
pub(crate) struct WorkChain {
    pd: PdId,
    owner: QpId,
    /// The WAIT: a receive completion on any of these QPs fires the chain.
    waits: Vec<QpId>,
    wrs: Vec<ChainWr>,
    armed: bool,
}

/// Builds one chain on its owner QP. Obtained from
/// [`RdmaDevice::chain_builder`]; the first reference to a handle of
/// another protection domain (or to no handle at all) is remembered and
/// reported by [`Self::build`], which then builds nothing.
#[derive(Debug)]
pub struct WorkChainBuilder<'d> {
    dev: &'d mut RdmaDevice,
    chain: WorkChain,
    err: Option<VerbsError>,
}

impl WorkChainBuilder<'_> {
    fn fail(&mut self, e: VerbsError) {
        self.err.get_or_insert(e);
    }

    /// The `(rkey, base, len)` of `mr` if it belongs to the chain's domain.
    fn region(&mut self, mr: MrId) -> Option<(RKey, MemAddr, u64)> {
        match self.dev.mr(mr) {
            None => self.fail(VerbsError::BadHandle),
            Some(r) if r.pd != self.chain.pd => self.fail(VerbsError::PdMismatch),
            Some(r) => return Some((r.rkey, r.addr, r.len)),
        }
        None
    }

    /// Adds `qp` to the chain's WAIT: a receive completion on it fires the
    /// chain.
    pub fn wait(mut self, qp: QpId) -> Self {
        match self.dev.qp_pd(qp) {
            None => self.fail(VerbsError::BadHandle),
            Some(pd) if pd != self.chain.pd => self.fail(VerbsError::PdMismatch),
            Some(_) => self.chain.waits.push(qp),
        }
        self
    }

    /// Chains a CRC32C check of whatever lands in `mr`.
    pub fn verify_crc32c(mut self, mr: MrId) -> Self {
        if let Some((rkey, _, _)) = self.region(mr) {
            self.chain.wrs.push(ChainWr::VerifyCrc32c { rkey });
        }
        self
    }

    /// Chains a posted write of `record` at `addr` inside `mr`.
    pub fn write_record(mut self, mr: MrId, addr: MemAddr, record: Bytes) -> Self {
        if let Some((rkey, base, len)) = self.region(mr) {
            if addr < base || addr + record.len() as u64 > base + len {
                self.fail(VerbsError::OutOfBounds);
            } else {
                self.chain
                    .wrs
                    .push(ChainWr::WriteRecord { rkey, addr, record });
            }
        }
        self
    }

    /// Posts the chain, disarmed. A chain with no WAIT could never fire and
    /// is refused.
    pub fn build(self) -> Result<ChainId, VerbsError> {
        if let Some(e) = self.err {
            return Err(e);
        }
        if self.chain.waits.is_empty() {
            return Err(VerbsError::BadChain);
        }
        let id = ChainId(self.dev.chains.len() as u32);
        self.dev.chains.push(Some(self.chain));
        Ok(id)
    }
}

impl RdmaDevice {
    /// Hands out a builder for a chain owned by `owner`, in `owner`'s
    /// protection domain.
    pub fn chain_builder(&mut self, owner: QpId) -> Result<WorkChainBuilder<'_>, VerbsError> {
        let pd = self.qp_pd(owner).ok_or(VerbsError::BadHandle)?;
        Ok(WorkChainBuilder {
            dev: self,
            chain: WorkChain {
                pd,
                owner,
                waits: Vec::new(),
                wrs: Vec::new(),
                armed: false,
            },
            err: None,
        })
    }

    /// Arms (or re-arms, in place) a chain for one firing.
    pub fn arm_chain(&mut self, chain: ChainId) -> Result<(), VerbsError> {
        let c = self.chain_mut(chain)?;
        c.armed = true;
        Ok(())
    }

    /// Removes a chain; its handle is never reused.
    pub fn destroy_chain(&mut self, chain: ChainId) -> Result<(), VerbsError> {
        self.chain_mut(chain)?;
        self.chains[chain.0 as usize] = None;
        Ok(())
    }

    /// Chain accounting.
    pub fn chain_stats(&self) -> ChainStats {
        self.chain_stats
    }

    fn chain_mut(&mut self, chain: ChainId) -> Result<&mut WorkChain, VerbsError> {
        self.chains
            .get_mut(chain.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(VerbsError::BadHandle)
    }

    /// A receive completion arrived on `on` at `now`; `landed` describes
    /// the bytes the sender wrote just before it (none for a bare
    /// acknowledgement). Runs the armed chain's work requests in order.
    /// `Ok` means every one completed — in particular the completion record
    /// is in memory. Any error means the chain stopped *before* the request
    /// that failed: a rejected checksum writes no record.
    pub fn fire_chain(
        &mut self,
        now: SimTime,
        chain: ChainId,
        on: QpId,
        landed: Option<Landing<'_>>,
    ) -> Result<(), VerbsError> {
        let ready = |s| matches!(s, Some(QpState::ReadyToSend | QpState::ReadyToReceive));
        let (owner, pd, n) = {
            let c = self.chain_mut(chain)?;
            if !c.armed || !c.waits.contains(&on) {
                return Err(VerbsError::BadChain);
            }
            (c.owner, c.pd, c.wrs.len())
        };
        if !ready(self.qp_state(owner)) || !ready(self.qp_state(on)) {
            return Err(VerbsError::QpNotReady);
        }
        // The WAIT is consumed whether or not the chain runs to its end.
        self.chain_mut(chain)?.armed = false;
        for i in 0..n {
            // A refcount bump, not a copy: the record is a `Bytes` handle.
            let wr = self.chain_mut(chain)?.wrs[i].clone();
            // Every region a request touches is authorized at this
            // instant, like any other NIC access.
            let touched = match (&wr, &landed) {
                (ChainWr::VerifyCrc32c { .. }, None) => None,
                (ChainWr::VerifyCrc32c { rkey }, Some(l)) => {
                    Some((*rkey, l.addr, l.bytes.len() as u64))
                }
                (ChainWr::WriteRecord { rkey, addr, record }, _) => {
                    Some((*rkey, *addr, record.len() as u64))
                }
            };
            if let Some((rkey, addr, len)) = touched {
                if let Err(e) = self.authorize(now, pd, rkey, addr, len, Right::LocalWrite) {
                    self.protection_fault(owner, e);
                    return Err(e);
                }
            }
            match (wr, &landed) {
                (ChainWr::VerifyCrc32c { .. }, Some(l)) => {
                    if bytes_crc32c(l.bytes) != l.wire_crc {
                        self.chain_stats.crc_rejects += 1;
                        return Err(VerbsError::CrcMismatch);
                    }
                    self.chain_stats.verified_bytes += l.bytes.len() as u64;
                }
                (ChainWr::VerifyCrc32c { .. }, None) => {}
                (ChainWr::WriteRecord { addr, record, .. }, _) => {
                    self.memory.write(addr, &record);
                    self.chain_stats.records_written += 1;
                }
            }
        }
        self.chain_stats.completed += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{AccessFlags, Expiry, MemoryDomain, NodeId, QpType};
    use ros2_sim::SimRng;

    struct Fixture {
        dev: RdmaDevice,
        owner: QpId,
        data_qp: QpId,
        staging: (MrId, MemAddr),
        ring: (MrId, MemAddr),
    }

    fn fixture() -> Fixture {
        let mut dev = RdmaDevice::new(NodeId(0), 1 << 22, SimRng::new(5));
        let pd = dev.alloc_pd("lane");
        let owner = dev.create_qp(pd, QpType::Rc).unwrap();
        dev.connect_qp(owner, NodeId(0), owner).unwrap();
        let data_qp = dev.create_qp(pd, QpType::Rc).unwrap();
        dev.connect_qp(data_qp, NodeId(1), QpId(1)).unwrap();
        let sbuf = dev.alloc_buffer(8192, MemoryDomain::DpuDram).unwrap();
        let (smr, _, _) = dev
            .reg_mr(pd, sbuf, 8192, AccessFlags::remote_rw(), Expiry::Never)
            .unwrap();
        let rbuf = dev.alloc_buffer(16, MemoryDomain::HostDram).unwrap();
        let (rmr, _, _) = dev
            .reg_mr(pd, rbuf, 16, AccessFlags::local_only(), Expiry::Never)
            .unwrap();
        Fixture {
            dev,
            owner,
            data_qp,
            staging: (smr, sbuf),
            ring: (rmr, rbuf),
        }
    }

    fn build(f: &mut Fixture) -> ChainId {
        f.dev
            .chain_builder(f.owner)
            .unwrap()
            .wait(f.data_qp)
            .verify_crc32c(f.staging.0)
            .write_record(f.ring.0, f.ring.1, Bytes::from_static(b"slot-0000-done!!"))
            .build()
            .unwrap()
    }

    #[test]
    fn a_fired_chain_verifies_then_publishes_and_is_spent() {
        let mut f = fixture();
        let chain = build(&mut f);
        let payload = Bytes::from(vec![0xA5u8; 4096]);
        let landing = Landing {
            addr: f.staging.1,
            bytes: &payload,
            wire_crc: bytes_crc32c(&payload),
        };
        // Built disarmed: nothing fires until the owner arms it.
        assert_eq!(
            f.dev
                .fire_chain(SimTime::ZERO, chain, f.data_qp, Some(landing)),
            Err(VerbsError::BadChain)
        );
        f.dev.arm_chain(chain).unwrap();
        f.dev
            .fire_chain(SimTime::ZERO, chain, f.data_qp, Some(landing))
            .unwrap();
        assert_eq!(
            &f.dev.read_local(f.ring.1, 16).unwrap()[..],
            b"slot-0000-done!!"
        );
        let s = f.dev.chain_stats();
        assert_eq!(
            (s.completed, s.verified_bytes, s.records_written),
            (1, 4096, 1)
        );
        // Spent until re-armed, then good for exactly one more firing.
        assert_eq!(
            f.dev.fire_chain(SimTime::ZERO, chain, f.data_qp, None),
            Err(VerbsError::BadChain)
        );
        f.dev.arm_chain(chain).unwrap();
        f.dev
            .fire_chain(SimTime::ZERO, chain, f.data_qp, None)
            .unwrap();
        assert_eq!(f.dev.chain_stats().completed, 2);
        assert_eq!(f.dev.violations().total(), 0);
    }

    #[test]
    fn a_rejected_checksum_stops_the_chain_before_the_record() {
        let mut f = fixture();
        let chain = build(&mut f);
        f.dev.arm_chain(chain).unwrap();
        let payload = Bytes::from(vec![0xA5u8; 4096]);
        let landing = Landing {
            addr: f.staging.1,
            bytes: &payload,
            wire_crc: bytes_crc32c(&payload) ^ 1,
        };
        assert_eq!(
            f.dev
                .fire_chain(SimTime::ZERO, chain, f.data_qp, Some(landing)),
            Err(VerbsError::CrcMismatch)
        );
        assert_eq!(&f.dev.read_local(f.ring.1, 16).unwrap()[..], &[0u8; 16]);
        let s = f.dev.chain_stats();
        assert_eq!((s.completed, s.crc_rejects, s.records_written), (0, 1, 0));
        // A bad payload is not a protection fault: the owner QP lives.
        assert_eq!(f.dev.violations().total(), 0);
        assert_eq!(f.dev.qp_state(f.owner), Some(QpState::ReadyToSend));
    }

    #[test]
    fn a_completion_on_a_qp_the_chain_does_not_wait_on_leaves_it_armed() {
        let mut f = fixture();
        let chain = build(&mut f);
        f.dev.arm_chain(chain).unwrap();
        assert_eq!(
            f.dev.fire_chain(SimTime::ZERO, chain, f.owner, None),
            Err(VerbsError::BadChain)
        );
        f.dev
            .fire_chain(SimTime::ZERO, chain, f.data_qp, None)
            .unwrap();
    }

    #[test]
    fn malformed_chains_are_refused_at_build() {
        let mut f = fixture();
        let no_wait = f.dev.chain_builder(f.owner).unwrap().build();
        assert_eq!(no_wait.unwrap_err(), VerbsError::BadChain);
        let past_the_end = f
            .dev
            .chain_builder(f.owner)
            .unwrap()
            .wait(f.data_qp)
            .write_record(f.ring.0, f.ring.1 + 8, Bytes::from_static(&[0u8; 16]))
            .build();
        assert_eq!(past_the_end.unwrap_err(), VerbsError::OutOfBounds);
        assert!(f.dev.chain_builder(QpId(999)).is_err());
        let destroyed = build(&mut f);
        f.dev.destroy_chain(destroyed).unwrap();
        assert_eq!(f.dev.arm_chain(destroyed), Err(VerbsError::BadHandle));
    }
}
