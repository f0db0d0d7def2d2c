//! One tenant's lane of the offloaded client: the one place its read cache
//! is consulted, and the owner of its ring's work-request chains.
//!
//! Every client path (serial, op ring) probes before it issues and
//! completes after, through the helpers here, and always on the lane's
//! *cached* pool-map revision — the revision the ring routes by, and the
//! only one a client can know before a push lands.
//!
//! **The clean path, both halves.** On RDMA the lane keeps one NIC
//! work-request chain per in-flight ring slot ([`ros2_verbs::chain`]):
//! WAIT on the host's posted doorbell write → SEND of the object's
//! descriptor template plus the doorbell's patch, on every leg → WAIT on
//! the engine's completion SEND → CRC32C check of the bytes that landed in
//! the job's staging buffer → posted write of the slot's completion record
//! into host-visible memory. The lane arms the chain when the slot is
//! submitted and rings its doorbell if the submission is clean
//! ([`TenantLane::ring_doorbell`]; the templates themselves are the inner
//! client's, written by the core that submits an object's first op); the
//! ring says which slots the chain then forwarded (`SlotTrail::forwarded`)
//! and charges both hops; the lane fires the second segment when the slot
//! completes. The chains, the two loopback QPs they are posted on and
//! parked on, and the record regions are all created on first use and then
//! re-armed in place.

use bytes::Bytes;
use ros2_ctl::IoPatch;
use ros2_daos::{
    ClientOp, ClientOpResult, DaosClient, DaosError, EngineCluster, Epoch, FiredTemplate,
    Forwarded, RecordKey, RecordVersion, TEMPLATE_LEN,
};
use ros2_fabric::{Dir, Fabric};
use ros2_sim::{SimDuration, SimTime};
use ros2_verbs::{
    AccessFlags, ChainId, Expiry, Landing, MemAddr, MemoryDomain, MrId, QpId, QpState, QpType,
    RdmaDevice, VerbsError,
};

use crate::cache::{CacheKey, ReadCache};

/// One tenant's slice of the offloaded client: a dedicated data-plane
/// [`DaosClient`] (own PD, QPs, staging buffers) plus its control session
/// and rkey deadlines.
pub(crate) struct TenantLane {
    pub(crate) name: String,
    pub(crate) daos: DaosClient,
    pub(crate) rkey_scope: SimDuration,
    /// Per-local-job rkey deadline (RDMA transports; `SimTime::MAX` on
    /// TCP, where no memory is registered).
    pub(crate) rkey_deadline: Vec<SimTime>,
    /// Doorbell-channel session for this tenant.
    pub(crate) session: u64,
    /// This tenant's slice of the DPU read cache ([`ReadCache`]), when
    /// enabled. Per-lane, never shared — cached bytes stay inside the
    /// tenant's isolation boundary like its PD and staging buffers.
    pub(crate) cache: Option<ReadCache>,
    /// The instant the tenant's buckets have been granted up to: the latest
    /// grant they have handed this lane, which is where they queue an
    /// earlier arrival from (see `DpuClient::admit`).
    pub(crate) granted_up_to: SimTime,
    /// What admission decided for each op of the queue being submitted,
    /// written by `DpuClient::queue_start`. Kept in the lane so the
    /// one-op queues fio submits allocate nothing for it.
    pub(crate) admitted: Vec<Admitted>,
    /// The patches of that queue's doorbell frame, kept likewise.
    pub(crate) patches: Vec<IoPatch>,
    /// That queue's cache probes, one per op (none with the cache off),
    /// and the ring's results before their epilogues, kept likewise.
    pub(crate) probes: Vec<Probe>,
    pub(crate) drained: Vec<ClientOpResult>,
    /// The lane's work-request chains (RDMA; empty on TCP, which has no
    /// queue pair to park a chain on).
    pub(crate) chains: ChainTable,
}

/// One op of a queue, as `DpuClient::queue_start` admitted it.
#[derive(Copy, Clone)]
pub(crate) struct Admitted {
    /// The tenant's grant plus the inline service: when a hit is served
    /// from, and an op that submits starts — once the doorbell's patches
    /// have landed too, and but for an update's checksum.
    pub(crate) at: SimTime,
    /// Nothing up to here needs a core: the doorbell frame carried a patch
    /// for the op, the buckets did not hold it back, and the queue's
    /// registration needed no refresh.
    pub(crate) clean: bool,
}

/// Size of one completion record: a tag, the job, the slot, and the op
/// count it completes.
const RECORD_LEN: u64 = 16;

/// One in-flight slot's chain and the host-visible record it publishes.
struct SlotChain {
    chain: ChainId,
    /// The registrations the chain names — the staging buffer it checks,
    /// the template region it gathers from. A refreshed rkey or a replaced
    /// region is a new registration, so a stale chain is rebuilt rather
    /// than fired.
    staging: MrId,
    templates: MrId,
    record: (MrId, MemAddr),
}

/// A lane's chains, `[local job][ring slot]`. Grows on demand; in steady
/// state arming and firing touch nothing else.
#[derive(Default)]
pub(crate) struct ChainTable {
    /// The loopback QP every chain of the lane is posted on, so a chain's
    /// protection fault never takes a data connection down with it; and
    /// the host-facing one the host's doorbell writes land on.
    owner: Option<(QpId, QpId)>,
    /// The lane's DPU-side data QPs, one per engine: a chain SENDs its
    /// descriptor on them and WAITs on them for the completion.
    waits: Vec<QpId>,
    slots: Vec<Vec<Option<SlotChain>>>,
}

/// Tears a stopped chain down with its record region. Best effort: whatever
/// cannot be released is already gone.
fn release(dev: &mut RdmaDevice, c: &SlotChain) {
    let _ = dev.destroy_chain(c.chain);
    let _ = dev.dereg_mr(c.record.0);
    let _ = dev.free_buffer(c.record.1);
}

/// What the authority says about a record right now: the lane's cached
/// pool-map revision and the record's arrival version at the leader that
/// map names — the pair a cache group is stamped with.
type Stamp = (u64, RecordVersion);

/// The authority's reading for `record` as `daos` sees it at `now` (any
/// due map delivery applied first, as a ring submission would). `None`
/// when there is nothing safe to validate against: the cached route is
/// degraded, its leader is unreachable, or the leader fences the cached
/// revision as stale.
fn authority(
    daos: &mut DaosClient,
    now: SimTime,
    cluster: &EngineCluster,
    record: &RecordKey,
) -> Option<Stamp> {
    let routing = daos.probe_route(now, cluster, &record.oid);
    if routing.degraded {
        return None;
    }
    let (leader, stamp) = (routing.set.leader()?, routing.stamp);
    let version = cluster.record_version(leader, stamp, record)?;
    Some((stamp, version))
}

/// What the read cache decided about one op before it was issued, and
/// what it needs back once the op completes.
#[derive(Default)]
pub(crate) enum Probe {
    /// Nothing to do at completion: the cache is off, or the op is a
    /// snapshot read, a fetch of a record the same call writes, a fetch
    /// with no authority to validate against, or an update of a record
    /// with no current group.
    #[default]
    Skip,
    /// Served from DPU DRAM; the op is never issued.
    Hit(Bytes),
    /// Missed under this reading; fill from a leader-path completion.
    Miss(CacheKey, Stamp),
    /// An update of a record whose group was current, under this map
    /// revision, just before it was issued: its position and payload.
    Write(CacheKey, Bytes, u64),
}

impl Probe {
    pub(crate) fn is_hit(&self) -> bool {
        matches!(self, Probe::Hit(_))
    }
}

impl TenantLane {
    /// Posts the WAITs for ring slot `slot` of `local`: arms the slot's
    /// chain, building it first if it does not exist yet, was built on a
    /// registration since replaced, or lost its QP to a fault. `Ok(false)`
    /// on a lane that cannot chain — TCP.
    pub(crate) fn arm_chain(
        &mut self,
        fabric: &mut Fabric,
        local: usize,
        slot: usize,
    ) -> Result<bool, DaosError> {
        let (_, Some(staging)) = self.daos.staging(local) else {
            return Ok(false);
        };
        let templates = self.daos.template_region(fabric)?;
        let node = self.daos.node();
        let t = &self.chains;
        // Only the owner QP can have been killed: a chain's faults land on it.
        let owner_up = t.owner.is_some_and(|(owner, _)| {
            fabric.node(node).rdma.qp_state(owner) == Some(QpState::ReadyToSend)
        });
        let current = t
            .slots
            .get(local)
            .and_then(|s| s.get(slot)?.as_ref())
            .filter(|c| owner_up && c.staging == staging && c.templates == templates);
        let chain = match current {
            Some(c) => c.chain,
            None => self.build_chain(fabric, local, slot, staging, templates)?,
        };
        fabric.rdma_mut(node).arm_chain(chain)?;
        Ok(true)
    }

    /// Builds (or rebuilds) the chain of ring slot `slot` of `local` over
    /// the registrations `staging` and `templates`, with everything it
    /// stands on: the lane's two loopback QPs, brought up or recovered; the
    /// list of data QPs to SEND and WAIT on; the slot's host-visible record
    /// region, kept across rebuilds.
    fn build_chain(
        &mut self,
        fabric: &mut Fabric,
        local: usize,
        slot: usize,
        staging: MrId,
        templates: MrId,
    ) -> Result<ChainId, DaosError> {
        let (node, pd) = (self.daos.node(), self.daos.pd());
        let t = &mut self.chains;
        if t.waits.is_empty() {
            for &conn in self.daos.job_conns(local) {
                let (_, qp) = fabric.qps(conn, Dir::BtoA)?;
                t.waits.push(qp);
            }
        }
        let dev = fabric.rdma_mut(node);
        let (owner, host) = match t.owner {
            Some(qps) => qps,
            None => {
                let mut qp = || dev.create_qp(pd, QpType::Rc);
                *t.owner.insert((qp()?, qp()?))
            }
        };
        // Fresh, or killed by an earlier chain's protection fault:
        // (re)connect each to itself.
        for qp in [owner, host] {
            if dev.qp_state(qp) != Some(QpState::ReadyToSend) {
                dev.reset_qp(qp)?;
                dev.connect_qp(qp, node, qp)?;
            }
        }
        if t.slots.len() <= local {
            t.slots.resize_with(local + 1, Vec::new);
        }
        let slots = &mut t.slots[local];
        if slots.len() <= slot {
            slots.resize_with(slot + 1, || None);
        }
        let record = match slots[slot].take() {
            Some(old) => {
                dev.destroy_chain(old.chain)?;
                old.record
            }
            None => {
                let at = dev.alloc_buffer(RECORD_LEN, MemoryDomain::HostDram)?;
                let access = AccessFlags::local_only();
                match dev.reg_mr(pd, at, RECORD_LEN, access, Expiry::Never) {
                    Ok((mr, _, _)) => (mr, at),
                    Err(e) => {
                        let _ = dev.free_buffer(at);
                        return Err(e.into());
                    }
                }
            }
        };
        let mut body = Vec::with_capacity(RECORD_LEN as usize);
        body.extend_from_slice(b"done");
        for word in [local as u32, slot as u32, 1] {
            body.extend_from_slice(&word.to_le_bytes());
        }
        let mut b = dev
            .chain_builder(owner)?
            .wait_doorbell(host)
            .send_gather(templates);
        for &qp in &t.waits {
            b = b.wait(qp);
        }
        let chain = b
            .verify_crc32c(staging)
            .write_record(record.0, record.1, Bytes::from(body))
            .build()?;
        slots[slot] = Some(SlotChain {
            chain,
            staging,
            templates,
            record,
        });
        Ok(chain)
    }

    /// The host's doorbell write for ring slot `slot` of `local` landed at
    /// `at` and the submission is clean: fires the first segment of the
    /// slot's armed chain, which sends the descriptor `fired` names on each
    /// of its legs. An error means the NIC sent nothing — the template
    /// region was revoked, expired or replaced under the armed chain, or a
    /// leg's QP is down — and the op is an ARM core's to fail. The chain is
    /// then torn down with its record and the template region, so the next
    /// op builds sound ones (and a core writes the templates afresh).
    pub(crate) fn ring_doorbell(
        &mut self,
        fabric: &mut Fabric,
        at: SimTime,
        local: usize,
        slot: usize,
        fired: &FiredTemplate,
    ) -> Result<(), DaosError> {
        let t = &mut self.chains;
        let armed = t.slots.get_mut(local).and_then(|s| s.get_mut(slot));
        let (Some(entry), Some((_, host))) = (armed, t.owner) else {
            return Err(VerbsError::BadChain.into());
        };
        let Some(c) = entry.as_ref() else {
            return Err(VerbsError::BadChain.into());
        };
        let waits = &t.waits;
        if fired.legs().any(|eng| eng >= waits.len()) {
            return Err(VerbsError::BadChain.into());
        }
        let legs = fired.legs().map(|eng| waits[eng]);
        let dev = fabric.rdma_mut(self.daos.node());
        let rung = dev.ring_doorbell(at, c.chain, host, fired.at, TEMPLATE_LEN, legs);
        if rung.is_err() {
            release(dev, c);
            *entry = None;
            self.daos.retire_template_region(fabric);
        }
        Ok(rung?)
    }

    /// The completion SEND `by` names arrived at `at` for ring slot `slot`
    /// of `local`: fires the slot's chain over `landed`, the fetched bytes
    /// as they sit in the staging buffer (none for an update). `Ok` means
    /// the NIC checked them and the slot's completion record is in
    /// host-visible memory; an error means it is not, and the op is the
    /// ARM core's to fail. A chain that faulted (rather than rejected a
    /// payload) is torn down with its record region, so the slot's next
    /// op builds a sound one.
    pub(crate) fn fire_chain(
        &mut self,
        fabric: &mut Fabric,
        at: SimTime,
        local: usize,
        slot: usize,
        by: Forwarded,
        landed: Option<&Bytes>,
    ) -> Result<(), DaosError> {
        let t = &mut self.chains;
        let armed = t.slots.get_mut(local).and_then(|s| s.get_mut(slot));
        let (Some(entry), Some(&on)) = (armed, t.waits.get(by.eng)) else {
            return Err(VerbsError::BadChain.into());
        };
        let Some(c) = entry.as_ref() else {
            return Err(VerbsError::BadChain.into());
        };
        let landing = landed.map(|bytes| Landing {
            addr: self.daos.staging(local).0,
            bytes,
            wire_crc: by.wire_crc,
        });
        let dev = fabric.rdma_mut(self.daos.node());
        let fired = dev.fire_chain(at, c.chain, on, landing);
        if !matches!(fired, Ok(()) | Err(VerbsError::CrcMismatch)) {
            release(dev, c);
            *entry = None;
        }
        Ok(fired?)
    }

    /// A latest-epoch fetch at `key` is about to be issued at `now`.
    pub(crate) fn probe_fetch(
        &mut self,
        now: SimTime,
        cluster: &EngineCluster,
        key: CacheKey,
    ) -> Probe {
        let Some(cache) = self.cache.as_mut() else {
            return Probe::Skip;
        };
        let Some((map_version, version)) = authority(&mut self.daos, now, cluster, &key.record)
        else {
            cache.bypass();
            return Probe::Skip;
        };
        match cache.probe(&key, map_version, version) {
            Some(data) => Probe::Hit(data),
            None => Probe::Miss(key, (map_version, version)),
        }
    }

    /// An update carrying `data` at `at` is about to be issued at `now`.
    /// A record with nothing resident costs one index lookup — no
    /// authority is asked, nothing is remembered (no write-allocate). A
    /// group nobody can vouch for loses the write's range here, before the
    /// write is issued, and lives or dies by its next probe.
    pub(crate) fn probe_update(
        &mut self,
        now: SimTime,
        cluster: &EngineCluster,
        at: CacheKey,
        data: &Bytes,
    ) -> Probe {
        let Some(cache) = self.cache.as_mut().filter(|c| c.holds(&at.record)) else {
            return Probe::Skip;
        };
        let current = authority(&mut self.daos, now, cluster, &at.record)
            .filter(|&(map_version, version)| cache.revalidate(&at.record, map_version, version));
        match current {
            Some((map_version, _)) => Probe::Write(at, data.clone(), map_version),
            None => {
                cache.punch(&at);
                Probe::Skip
            }
        }
    }

    /// The op behind `probe` completed. `clean` says it succeeded on its
    /// first attempt over the non-degraded route the probe saw; `fetched`
    /// is a fetch's payload. A clean miss fills. A clean update, under a
    /// map revision that has not moved since it was probed, write-updates
    /// its group to the version the authority reads now — nothing else ran
    /// in between, so that is the version the update produced. Any other
    /// update punches its range.
    pub(crate) fn complete(
        &mut self,
        now: SimTime,
        cluster: &EngineCluster,
        probe: Probe,
        clean: bool,
        fetched: Option<&Bytes>,
    ) {
        let Some(cache) = self.cache.as_mut() else {
            return;
        };
        match probe {
            Probe::Miss(key, (map_version, version)) => {
                if let (true, Some(data)) = (clean, fetched) {
                    cache.fill(key, data.clone(), map_version, version);
                }
            }
            Probe::Write(at, data, probed_under) => {
                let after = (clean.then(|| authority(&mut self.daos, now, cluster, &at.record)))
                    .flatten()
                    .filter(|&(map_version, _)| map_version == probed_under);
                match after {
                    Some((map_version, version)) => {
                        cache.write_update(&at, &data, map_version, version)
                    }
                    None => {
                        cache.punch(&at);
                    }
                }
            }
            Probe::Skip | Probe::Hit(_) => {}
        }
    }

    /// [`Self::probe_fetch`] / [`Self::probe_update`] over a queue, one
    /// probe per op appended to `probes` (none at all with the cache off).
    /// A fetch of a record the same queue writes neither probes nor fills:
    /// the queue's own execution order — not the cache — decides its bytes.
    /// Snapshot reads address history the cache does not version, so they
    /// bypass it too.
    pub(crate) fn probe_queue(
        &mut self,
        now: SimTime,
        cluster: &EngineCluster,
        ops: &[ClientOp],
        probes: &mut Vec<Probe>,
    ) {
        if self.cache.is_none() {
            return;
        }
        let written = |r: &RecordKey| {
            ops.iter()
                .any(|op| matches!(op, ClientOp::Update(u) if u.key == *r))
        };
        let probe = |op| {
            let key = CacheKey::of(op);
            match op {
                ClientOp::Update(u) => self.probe_update(now, cluster, key, &u.data),
                ClientOp::Fetch(f) if f.epoch == Epoch::LATEST && !written(&key.record) => {
                    self.probe_fetch(now, cluster, key)
                }
                ClientOp::Fetch(_) => Probe::Skip,
            }
        };
        probes.extend(ops.iter().map(probe));
    }
}
