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
//! A chain has up to two segments, fired in order. The optional
//! *submission* segment parks on a host-facing queue's posted doorbell
//! write ([`WorkChainBuilder::wait_doorbell`]) and, when it lands, posts one
//! SEND per leg whose body is gathered from a descriptor template in
//! registered memory followed by the patch the doorbell carried
//! ([`WorkChainBuilder::send_gather`]). The *completion* segment parks on
//! the reply to that SEND and has the two verbs forwarding a completion
//! needs: a fixed-function CRC32C check of bytes that just landed in a
//! region, and a posted write of a pre-built completion record into another
//! region. A chain with a submission segment WAITs for a completion only
//! once its SEND is out. A fired chain is spent;
//! [`RdmaDevice::arm_chain`] re-arms both segments in place. Neither arming
//! nor firing allocates. Timing is the caller's
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
    /// Descriptor SENDs a doorbell fired, one per leg.
    pub descriptors_sent: u64,
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

/// Where an armed chain stands.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Phase {
    /// Fired, faulted or never armed: nothing fires it.
    Spent,
    /// Parked on its first WAIT: the doorbell if it has a submission
    /// segment, a completion otherwise.
    Armed,
    /// The doorbell fired and the SEND is out: parked on the completion.
    Sent,
}

/// A built chain.
#[derive(Debug)]
pub(crate) struct WorkChain {
    pd: PdId,
    owner: QpId,
    /// The submission segment, if any: the host-facing QP whose posted
    /// write fires it and the region its SEND gathers the template from.
    submission: Option<(QpId, RKey)>,
    /// The data QPs: the submission segment SENDs on them, and a receive
    /// completion on any of them fires the completion segment.
    waits: Vec<QpId>,
    wrs: Vec<ChainWr>,
    phase: Phase,
}

/// Builds one chain on its owner QP. Obtained from
/// [`RdmaDevice::chain_builder`]; the first reference to a handle of
/// another protection domain (or to no handle at all) is remembered and
/// reported by [`Self::build`], which then builds nothing.
#[derive(Debug)]
pub struct WorkChainBuilder<'d> {
    dev: &'d mut RdmaDevice,
    chain: WorkChain,
    doorbell: Option<QpId>,
    gather: Option<RKey>,
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

    /// Whether `qp` belongs to the chain's domain.
    fn queue_pair(&mut self, qp: QpId) -> bool {
        match self.dev.qp_pd(qp) {
            None => self.fail(VerbsError::BadHandle),
            Some(pd) if pd != self.chain.pd => self.fail(VerbsError::PdMismatch),
            Some(_) => return true,
        }
        false
    }

    /// Parks the chain's first segment on `qp`, the host-facing queue: a
    /// posted doorbell write landing on it fires the segment's
    /// [`Self::send_gather`].
    pub fn wait_doorbell(mut self, qp: QpId) -> Self {
        if self.queue_pair(qp) {
            self.doorbell = Some(qp);
        }
        self
    }

    /// Chains, behind the doorbell, one SEND per leg on the data QPs the
    /// chain goes on to [`Self::wait`] on. Its body is a descriptor
    /// template gathered from `template_mr` followed by the patch the
    /// doorbell write carried; which template of the region, and which legs,
    /// the doorbell says when it fires.
    pub fn send_gather(mut self, template_mr: MrId) -> Self {
        if let Some((rkey, _, _)) = self.region(template_mr) {
            self.gather = Some(rkey);
        }
        self
    }

    /// Adds `qp` to the chain's WAIT: a receive completion on it fires the
    /// completion segment.
    pub fn wait(mut self, qp: QpId) -> Self {
        if self.queue_pair(qp) {
            self.chain.waits.push(qp);
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

    /// Posts the chain, disarmed. A chain with no WAIT could never fire, and
    /// a doorbell with nothing to send (or a SEND with no doorbell) is half
    /// a segment: both are refused.
    pub fn build(mut self) -> Result<ChainId, VerbsError> {
        if let Some(e) = self.err {
            return Err(e);
        }
        self.chain.submission = match (self.doorbell, self.gather) {
            (Some(qp), Some(rkey)) => Some((qp, rkey)),
            (None, None) => None,
            _ => return Err(VerbsError::BadChain),
        };
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
                submission: None,
                waits: Vec::new(),
                wrs: Vec::new(),
                phase: Phase::Spent,
            },
            doorbell: None,
            gather: None,
            err: None,
        })
    }

    /// Arms (or re-arms, in place) a chain for one firing of each segment.
    pub fn arm_chain(&mut self, chain: ChainId) -> Result<(), VerbsError> {
        let c = self.chain_mut(chain)?;
        c.phase = Phase::Armed;
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

    /// A posted doorbell write landed on `on` at `now`, naming the
    /// `len`-byte descriptor template at `template` and the data QPs of the
    /// op's `legs`: fires the armed chain's submission segment. `Ok` means
    /// one SEND per leg is posted, its body the template as it stands in
    /// memory plus the doorbell's patch, and the chain now WAITs for the
    /// completion. Any error means *no* SEND was posted: the template range
    /// is authorized at this instant like any other NIC access — a region
    /// revoked, expired or re-registered since the chain was armed is a
    /// counted protection fault that kills the owner QP — and every leg must
    /// be a live QP the chain was built on.
    pub fn ring_doorbell(
        &mut self,
        now: SimTime,
        chain: ChainId,
        on: QpId,
        template: MemAddr,
        len: u64,
        legs: impl Iterator<Item = QpId>,
    ) -> Result<(), VerbsError> {
        let (owner, pd, rkey) = {
            let c = self.chain_mut(chain)?;
            match c.submission {
                Some((qp, rkey)) if qp == on && c.phase == Phase::Armed => (c.owner, c.pd, rkey),
                _ => return Err(VerbsError::BadChain),
            }
        };
        if !self.qp_ready(owner) || !self.qp_ready(on) {
            return Err(VerbsError::QpNotReady);
        }
        // The WAIT is consumed whether or not the SEND goes out.
        self.chain_mut(chain)?.phase = Phase::Spent;
        if let Err(e) = self.authorize(now, pd, rkey, template, len, Right::LocalRead) {
            self.protection_fault(owner, e);
            return Err(e);
        }
        let mut sent = 0;
        for qp in legs {
            if !self.chain_mut(chain)?.waits.contains(&qp) {
                return Err(VerbsError::BadChain);
            }
            if !self.qp_ready(qp) {
                return Err(VerbsError::QpNotReady);
            }
            sent += 1;
        }
        self.chain_stats.descriptors_sent += sent;
        self.chain_mut(chain)?.phase = Phase::Sent;
        Ok(())
    }

    fn qp_ready(&self, qp: QpId) -> bool {
        matches!(
            self.qp_state(qp),
            Some(QpState::ReadyToSend | QpState::ReadyToReceive)
        )
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
        let (owner, pd, n) = {
            let c = self.chain_mut(chain)?;
            // A chain that sends its own descriptor WAITs for the reply
            // only once the SEND is out.
            let parked = match c.submission {
                Some(_) => Phase::Sent,
                None => Phase::Armed,
            };
            if c.phase != parked || !c.waits.contains(&on) {
                return Err(VerbsError::BadChain);
            }
            (c.owner, c.pd, c.wrs.len())
        };
        if !self.qp_ready(owner) || !self.qp_ready(on) {
            return Err(VerbsError::QpNotReady);
        }
        // The WAIT is consumed whether or not the chain runs to its end.
        self.chain_mut(chain)?.phase = Phase::Spent;
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
        host_qp: QpId,
        data_qp: QpId,
        staging: (MrId, MemAddr),
        ring: (MrId, MemAddr),
        templates: (MrId, MemAddr),
    }

    fn fixture() -> Fixture {
        let mut dev = RdmaDevice::new(NodeId(0), 1 << 22, SimRng::new(5));
        let pd = dev.alloc_pd("lane");
        let owner = dev.create_qp(pd, QpType::Rc).unwrap();
        dev.connect_qp(owner, NodeId(0), owner).unwrap();
        let host_qp = dev.create_qp(pd, QpType::Rc).unwrap();
        dev.connect_qp(host_qp, NodeId(0), host_qp).unwrap();
        let data_qp = dev.create_qp(pd, QpType::Rc).unwrap();
        dev.connect_qp(data_qp, NodeId(1), QpId(1)).unwrap();
        let tbuf = dev.alloc_buffer(256, MemoryDomain::DpuDram).unwrap();
        let (tmr, _, _) = dev
            .reg_mr(pd, tbuf, 256, AccessFlags::local_only(), Expiry::Never)
            .unwrap();
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
            host_qp,
            data_qp,
            staging: (smr, sbuf),
            ring: (rmr, rbuf),
            templates: (tmr, tbuf),
        }
    }

    /// The two-segment chain of an offloaded ring slot.
    fn build_both(f: &mut Fixture) -> ChainId {
        f.dev
            .chain_builder(f.owner)
            .unwrap()
            .wait_doorbell(f.host_qp)
            .send_gather(f.templates.0)
            .wait(f.data_qp)
            .verify_crc32c(f.staging.0)
            .write_record(f.ring.0, f.ring.1, Bytes::from_static(b"slot-0000-done!!"))
            .build()
            .unwrap()
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
    fn the_doorbell_sends_the_descriptor_and_only_then_is_a_completion_awaited() {
        let mut f = fixture();
        let chain = build_both(&mut f);
        let (at, legs) = (f.templates.1 + 64, [f.data_qp]);
        let (host_qp, data_qp) = (f.host_qp, f.data_qp);
        let ring = |f: &mut Fixture, on| {
            f.dev
                .ring_doorbell(SimTime::ZERO, chain, on, at, 64, legs.into_iter())
        };
        // Built disarmed; and once armed, no completion can fire a chain
        // whose own SEND has not gone out.
        assert_eq!(ring(&mut f, host_qp), Err(VerbsError::BadChain));
        f.dev.arm_chain(chain).unwrap();
        assert_eq!(
            f.dev.fire_chain(SimTime::ZERO, chain, f.data_qp, None),
            Err(VerbsError::BadChain)
        );
        // A write on a queue the chain is not parked on rings nothing.
        assert_eq!(ring(&mut f, data_qp), Err(VerbsError::BadChain));
        ring(&mut f, host_qp).unwrap();
        assert_eq!(f.dev.chain_stats().descriptors_sent, 1);
        // One doorbell, one SEND: the segment is spent.
        assert_eq!(ring(&mut f, host_qp), Err(VerbsError::BadChain));
        f.dev
            .fire_chain(SimTime::ZERO, chain, f.data_qp, None)
            .unwrap();
        let s = f.dev.chain_stats();
        assert_eq!((s.completed, s.records_written), (1, 1));
        // Re-armed in place, both segments.
        f.dev.arm_chain(chain).unwrap();
        ring(&mut f, host_qp).unwrap();
        f.dev
            .fire_chain(SimTime::ZERO, chain, f.data_qp, None)
            .unwrap();
        assert_eq!(f.dev.chain_stats().descriptors_sent, 2);
        // A leg the chain was not built on, or a template outside the
        // region: nothing is sent.
        f.dev.arm_chain(chain).unwrap();
        let stray = f.dev.ring_doorbell(
            SimTime::ZERO,
            chain,
            f.host_qp,
            at,
            64,
            [f.owner].into_iter(),
        );
        assert_eq!(stray, Err(VerbsError::BadChain));
        f.dev.arm_chain(chain).unwrap();
        let past = f.templates.1 + 250;
        let outside =
            f.dev
                .ring_doorbell(SimTime::ZERO, chain, f.host_qp, past, 64, legs.into_iter());
        assert_eq!(outside, Err(VerbsError::OutOfBounds));
        assert_eq!(f.dev.chain_stats().descriptors_sent, 2);
        assert_eq!(f.dev.violations().out_of_bounds, 1);
    }

    #[test]
    fn malformed_chains_are_refused_at_build() {
        let mut f = fixture();
        let half = |f: &mut Fixture, doorbell: bool| {
            let b = f.dev.chain_builder(f.owner).unwrap();
            let b = match doorbell {
                true => b.wait_doorbell(f.host_qp),
                false => b.send_gather(f.templates.0),
            };
            b.wait(f.data_qp).build().unwrap_err()
        };
        assert_eq!(half(&mut f, true), VerbsError::BadChain);
        assert_eq!(half(&mut f, false), VerbsError::BadChain);
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
