//! The ring's work-request chains under faults, through the lane: a payload
//! the NIC's verify rejects is never published, an error the engine reports
//! never reaches a chain, a chain whose record or template region is
//! revoked under it dies at fire time and leaves the op to the ARM core —
//! and in the second case no descriptor leaves the node — and whatever
//! admission holds back, no chain can be armed for, or the template table
//! has no room to remember, is a core's from the start.

use bytes::Bytes;
use ros2_daos::{
    ClientOp, ClientOpResult, DaosError, EngineCluster, Epoch, FetchOp, ObjClass, ObjectClient,
    ObjectId, UpdateOp, ValueKind,
};
use ros2_dpu::{DpuClient, DpuTenantSpec, QosLimits, TenantManager};
use ros2_fabric::Fabric;
use ros2_sim::{SimDuration, SimTime};
use ros2_testkit::{array_key, world, World as Kit};
use ros2_verbs::{ChainStats, MemoryDomain, MrId, NodeId, VerbsError};

const DPU: NodeId = NodeId(0);
const LEN: usize = 64 << 10;

type World = (Fabric, EngineCluster, DpuClient);

fn one_lane() -> World {
    lane(DpuTenantSpec::unlimited("t"), 1)
}

/// One tenant lane serving `jobs` host jobs, in front of one engine.
fn lane(tenant: DpuTenantSpec, jobs: usize) -> World {
    Kit {
        jobs,
        ssds: 1,
        seed: 21,
        ..world(1, 1)
    }
    .build_offloaded(vec![tenant])
}

fn oid() -> ObjectId {
    ObjectId::new(ObjClass::Sx, 1)
}

fn payload() -> Bytes {
    Bytes::from((0..LEN).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
}

fn op(write: bool) -> ClientOp {
    op_on(oid(), write)
}

fn op_on(oid: ObjectId, write: bool) -> ClientOp {
    let (key, kind) = (array_key(oid, 0), ValueKind::Array { offset: 0 });
    match write {
        true => ClientOp::Update(UpdateOp {
            key,
            kind,
            data: payload(),
        }),
        false => ClientOp::Fetch(FetchOp {
            key,
            kind,
            epoch: Epoch::LATEST,
            len: LEN as u64,
        }),
    }
}

/// One op through the ring, as the pipelined DFS path submits it.
fn ring_op(w: &mut World, now: SimTime, write: bool) -> ClientOpResult {
    let (fabric, cluster, client) = w;
    client
        .execute_pipelined(fabric, cluster, now, 0, vec![op(write)])
        .remove(0)
}

fn chains(w: &World) -> ChainStats {
    w.0.node(DPU).rdma.chain_stats()
}

/// The one region of the DPU's NIC with this length in this memory.
fn region(w: &World, len: u64, domain: MemoryDomain) -> MrId {
    let nic = &w.0.node(DPU).rdma;
    (1..64)
        .map(MrId)
        .find(|&mr| {
            nic.mr(mr)
                .is_some_and(|r| r.len == len && r.domain == domain)
        })
        .expect("the region")
}

/// A written record and one clean read of it: the state every case starts
/// from. The write is the object's first op, so ARM cores submit and
/// complete it and leave the descriptor template behind; the read is the
/// NIC's at both ends. Returns the instant the read completed.
fn written_and_read_once(w: &mut World) -> SimTime {
    let done = ring_op(w, SimTime::ZERO, true).into_update().unwrap();
    assert_eq!(chains(w), ChainStats::default(), "the first op is a core's");
    let one_submission = w.2.submission_busy_time();
    assert!(one_submission > SimDuration::ZERO);
    let (back, at) = ring_op(w, done, false).into_fetch().unwrap();
    assert_eq!(back, payload());
    let c = chains(w);
    assert_eq!(
        (c.descriptors_sent, c.completed, c.records_written),
        (1, 1, 1),
        "the doorbell sent the read's descriptor and the chain forwarded its completion"
    );
    assert_eq!(c.verified_bytes, LEN as u64);
    assert_eq!(w.2.submission_busy_time(), one_submission, "no core on it");
    at
}

#[test]
fn bytes_the_nic_verify_rejects_are_never_published() {
    let mut w = one_lane();
    let t = written_and_read_once(&mut w);
    // The engine's copy is sound and its own verify passes; the payload
    // rots after that, on its way into the DPU's staging DRAM.
    w.0.rdma_mut(DPU).corrupt_next_landing();
    let before = w.2.dpu_stats();
    let err = ring_op(&mut w, t, false).into_fetch().unwrap_err();
    assert_eq!(err, DaosError::ChecksumMismatch);
    let c = chains(&w);
    assert_eq!(c.crc_rejects, 1, "the NIC's check caught it");
    assert_eq!(
        (c.completed, c.records_written),
        (1, 1),
        "no completion record for bytes the verify rejected"
    );
    let s = w.2.dpu_stats();
    assert_eq!(s.nic_verified_bytes, before.nic_verified_bytes);
    assert_eq!(s.host_polls, before.host_polls, "nothing was posted");
    assert_eq!(
        w.0.node(DPU).rdma.violations().total(),
        0,
        "not a protection fault"
    );
    // The slot's chain survives a bad payload: the next read is forwarded.
    let (back, _) = ring_op(&mut w, t, false).into_fetch().unwrap();
    assert_eq!(back, payload());
    assert_eq!(chains(&w).completed, 2);
}

#[test]
fn the_read_cache_never_learns_bytes_the_nic_rejected() {
    let mut w = one_lane();
    w.2.enable_read_cache(8 << 20).unwrap();
    let t = ring_op(&mut w, SimTime::ZERO, true).into_update().unwrap();
    // The first read of the record is the one that rots in flight: it
    // would have been the cache's fill.
    w.0.rdma_mut(DPU).corrupt_next_landing();
    let err = ring_op(&mut w, t, false).into_fetch().unwrap_err();
    assert_eq!(err, DaosError::ChecksumMismatch);
    assert_eq!(w.2.cache_stats().fills, 0, "rejected bytes are not cached");
    // So the next read goes to the engine again and fills with good bytes,
    // and the one after is a hit on them.
    for hits in [0, 1] {
        let (back, _) = ring_op(&mut w, t, false).into_fetch().unwrap();
        assert_eq!(back, payload());
        let s = w.2.cache_stats();
        assert_eq!((s.fills, s.hits), (1, hits));
    }
}

#[test]
fn checksum_error_propagates_to_client_through_the_lane() {
    let mut w = one_lane();
    let t = written_and_read_once(&mut w);
    assert!(w
        .1
        .engine_mut(0)
        .corrupt_newest_extent(&array_key(oid(), 0)));
    let err = ring_op(&mut w, t, false).into_fetch().unwrap_err();
    assert_eq!(err, DaosError::ChecksumMismatch);
    // The engine refused to push: there was no completion to forward, so
    // no chain fired and no record was written.
    let c = chains(&w);
    assert_eq!((c.completed, c.records_written, c.crc_rejects), (1, 1, 0));
    assert_eq!(w.1.vos_stats().checksum_failures, 1);
}

#[test]
fn a_chain_that_loses_its_record_region_fails_the_op_on_the_arm_core() {
    let mut w = one_lane();
    let t = written_and_read_once(&mut w);
    // Slot 0's completion record: the one 16-byte host-visible region.
    let record = region(&w, 16, MemoryDomain::HostDram);
    w.0.rdma_mut(DPU).revoke_rkey(record).unwrap();
    let before = w.2.dpu_stats();
    let err = ring_op(&mut w, t, false).into_fetch().unwrap_err();
    assert!(
        err == DaosError::Verbs(VerbsError::RkeyRevoked),
        "the chain died of the revocation, got {err:?}"
    );
    assert_eq!(
        w.0.node(DPU).rdma.violations().revoked_rkey,
        1,
        "counted at the NIC"
    );
    let c = chains(&w);
    assert_eq!(
        (c.completed, c.records_written),
        (1, 1),
        "the write into host memory never happened"
    );
    assert_eq!(w.2.dpu_stats().host_polls, before.host_polls);
    // The ARM core that took the exception also replaced the chain: the
    // next read is forwarded again, through a new record region.
    let (back, _) = ring_op(&mut w, t, false).into_fetch().unwrap();
    assert_eq!(back, payload());
    assert_eq!(chains(&w).completed, 2);
    assert_eq!(w.0.node(DPU).rdma.violations().total(), 1);
}

#[test]
fn a_template_region_revoked_between_arm_and_doorbell_sends_no_descriptor() {
    let mut w = one_lane();
    let t = written_and_read_once(&mut w);
    let templates = region(&w, 64 * ros2_daos::TEMPLATE_LEN, MemoryDomain::DpuDram);
    w.0.rdma_mut(DPU).revoke_rkey(templates).unwrap();
    let (before, rpcs, sent) = (w.2.dpu_stats(), w.1.rpcs(), chains(&w).descriptors_sent);
    let err = ring_op(&mut w, t, false).into_fetch().unwrap_err();
    assert!(
        err == DaosError::Verbs(VerbsError::RkeyRevoked),
        "the doorbell found the template region gone, got {err:?}"
    );
    let nic = &w.0.node(DPU).rdma;
    assert_eq!(nic.violations().revoked_rkey, 1, "counted at the NIC");
    assert_eq!(chains(&w).descriptors_sent, sent, "nothing was sent");
    assert_eq!(w.1.rpcs(), rpcs, "and nothing reached the engine");
    let s = w.2.dpu_stats();
    assert_eq!(s.host_polls, before.host_polls, "nothing was posted");
    assert_eq!(s.submission_path, before.submission_path);
    // The core that reported the error retired the region with the chain.
    // The next read registers a new one and, finding no template in it, is
    // a core's, which writes one; the read after that is the NIC's again.
    let busy = w.2.submission_busy_time();
    let (back, t) = ring_op(&mut w, t, false).into_fetch().unwrap();
    assert_eq!(back, payload());
    assert!(w.2.submission_busy_time() > busy);
    assert_eq!(chains(&w).descriptors_sent, sent);
    let busy = w.2.submission_busy_time();
    let (back, _) = ring_op(&mut w, t, false).into_fetch().unwrap();
    assert_eq!(back, payload());
    assert_eq!(w.2.submission_busy_time(), busy);
    assert_eq!(chains(&w).descriptors_sent, sent + 1);
    assert_eq!(w.0.node(DPU).rdma.violations().total(), 1);
}

#[test]
fn a_slot_whose_chain_cannot_be_armed_completes_on_the_arm_core() {
    let mut w = one_lane();
    // Eat every byte the DPU has left, so neither the template region nor
    // the slot's 16-byte completion record has anywhere to live and the
    // slot's chain cannot be built.
    let mut hog = Vec::new();
    for shift in (0..40).rev() {
        while let Ok(at) =
            w.0.rdma_mut(DPU)
                .alloc_buffer(1 << shift, MemoryDomain::DpuDram)
        {
            hog.push(at);
        }
    }
    // The data plane is none the worse: both ops succeed, each submitted,
    // forwarded and verified by an ARM core, with its completion record
    // posted.
    let done = ring_op(&mut w, SimTime::ZERO, true).into_update().unwrap();
    let (back, starved) = ring_op(&mut w, done, false).into_fetch().unwrap();
    assert_eq!(back, payload());
    assert_eq!(chains(&w), ChainStats::default(), "no chain ever fired");
    let s = w.2.dpu_stats();
    assert_eq!((s.nic_verified_bytes, s.nic_checksummed_bytes), (0, 0));
    assert_eq!(s.crc_bytes, 2 * LEN as u64, "update CRC + ARM fetch verify");
    assert_eq!(s.host_polls, 2);
    assert_eq!(w.0.node(DPU).rdma.violations().total(), 0);
    // With room again the slot gets its chain on its next op. That op still
    // finds no template — there was nowhere to write one — so a core
    // submits it and leaves one; the op after it is the NIC's, and quicker
    // than either a core had to run.
    for at in hog {
        w.0.rdma_mut(DPU).free_buffer(at).unwrap();
    }
    let (back, armed) = ring_op(&mut w, starved, false).into_fetch().unwrap();
    assert_eq!(back, payload());
    assert_eq!(chains(&w), ChainStats::default());
    let (back, chained) = ring_op(&mut w, armed, false).into_fetch().unwrap();
    assert_eq!(back, payload());
    let c = chains(&w);
    assert_eq!((c.descriptors_sent, c.completed), (1, 1));
    assert_eq!(w.2.dpu_stats().nic_verified_bytes, LEN as u64);
    assert!(chained.saturating_since(armed) < armed.saturating_since(starved));
    assert!(chained.saturating_since(armed) < starved.saturating_since(done));
}

/// A tenant the buckets hold back: the ops granted as they arrive are the
/// NIC's, the ones that wait for tokens are a core's — a NIC cannot sit on
/// a doorbell while tokens accrue — and admission itself is none the
/// wiser: every byte is admitted, at the instants the buckets alone decide.
#[test]
fn grants_the_buckets_delay_are_submitted_by_a_core() {
    let qos = QosLimits {
        ops_per_sec: 1_000,
        bytes_per_sec: u64::MAX / 2,
        burst: (3, 1 << 40),
    };
    let mut w = lane(
        DpuTenantSpec {
            name: "t".into(),
            qos,
            rkey_scope: SimDuration::from_secs(30),
        },
        1,
    );
    // The first op spends one token and leaves the template; a second of
    // virtual time later the bucket is full again.
    ring_op(&mut w, SimTime::ZERO, true).into_update().unwrap();
    let one_submission = w.2.submission_busy_time();
    let t = SimTime::from_secs(1);
    let (fabric, cluster, client) = &mut w;
    let queue = vec![op(false); 5];
    let results = client.execute_pipelined(fabric, cluster, t, 0, queue);
    let done: Vec<SimTime> = results
        .into_iter()
        .map(|r| r.into_fetch().unwrap().1)
        .collect();
    // Three tokens, five ops: two wait one and two refill quanta.
    let c = chains(&w);
    assert_eq!((c.descriptors_sent, c.completed), (3, 3));
    assert_eq!(w.2.submission_busy_time(), one_submission.saturating_mul(3));
    let s = w.2.dpu_stats();
    assert_eq!(s.bytes_admitted, 6 * LEN as u64);
    assert_eq!(s.ops_throttled, 2);
    assert_eq!(s.nic_verified_bytes, 3 * LEN as u64);
    // The grant instants are the buckets' own: a bare tenant manager fed
    // the same arrivals hands out the same waits.
    let mut bare = TenantManager::new(DPU);
    bare.register(&mut w.0, "t", qos, SimDuration::from_secs(30));
    bare.admit(SimTime::ZERO, "t", LEN as u64).unwrap();
    let waits: SimDuration = (0..5)
        .map(|_| bare.admit(t, "t", LEN as u64).unwrap().saturating_since(t))
        .fold(SimDuration::ZERO, |a, b| a + b);
    assert_eq!(waits, SimDuration::from_millis(1 + 2));
    // (Both sides see the doorbell land a leg after `t`; the waits are
    // relative to the arrival either way.)
    assert_eq!(s.throttle_wait, waits);
    assert!(done[3] > done[2] + SimDuration::from_micros(900));
    assert!(done[4] > done[3] + SimDuration::from_micros(900));
}

/// Host jobs ring their doorbells independently, so the simulator can meet
/// a doorbell that landed later first. Under a real rate limit the op the
/// buckets then make wait for a token is a core's, whichever of the two it
/// is; an op that merely queues behind the other's grant instant, with
/// tokens to spare, stays the NIC's.
#[test]
fn a_later_doorbell_met_first_sends_the_one_that_waits_for_tokens_to_a_core() {
    let refill = SimDuration::from_micros(100);
    for (burst, on_nic) in [(1u64, 1u64), (2, 2)] {
        let qos = QosLimits {
            ops_per_sec: 10_000,
            bytes_per_sec: u64::MAX / 2,
            burst: (burst, 1 << 40),
        };
        let tenant = DpuTenantSpec {
            name: "t".into(),
            qos,
            rkey_scope: SimDuration::from_secs(30),
        };
        let mut w = lane(tenant, 2);
        // The object's first op leaves its template; a second later the
        // bucket is full again.
        ring_op(&mut w, SimTime::ZERO, true).into_update().unwrap();
        let one_submission = w.2.submission_busy_time();
        let before = w.2.dpu_stats();
        let early = SimTime::from_secs(1);
        let late = early + SimDuration::from_nanos(500);
        let (fabric, cluster, client) = &mut w;
        // Job 1 rang 500 ns after job 0 did, and is met first.
        let mut fetch = |at, job| {
            client
                .execute_pipelined(fabric, cluster, at, job, vec![op(false)])
                .remove(0)
                .into_fetch()
                .unwrap()
        };
        let (_, met_first) = fetch(late, 1);
        let (back, met_second) = fetch(early, 0);
        assert_eq!(back, payload());
        let (c, s) = (chains(&w), w.2.dpu_stats());
        assert_eq!(c.descriptors_sent, on_nic, "burst {burst}");
        let on_cores = 2 - on_nic;
        assert_eq!(
            w.2.submission_busy_time(),
            one_submission.saturating_mul(1 + on_cores),
            "burst {burst}"
        );
        // Either way the buckets granted job 0 later than it arrived, and
        // say so; only with one token was that a wait for the next.
        assert_eq!(s.ops_throttled - before.ops_throttled, 1);
        let waited = s.throttle_wait - before.throttle_wait;
        let queued = late.saturating_since(early);
        match on_cores {
            0 => {
                assert_eq!(waited, queued);
                assert!(met_second < met_first + refill);
            }
            _ => {
                assert_eq!(waited, queued + refill);
                assert!(met_second > met_first + refill);
            }
        }
    }
}

/// A lane cycling through more objects than its template table holds finds
/// no template for any of them: every op is a core's, none the worse for
/// it. Back inside the table's reach the NIC runs them again.
#[test]
fn a_lane_with_more_hot_objects_than_templates_runs_them_on_cores() {
    let mut w = one_lane();
    let object = |i: u64| ObjectId::new(ObjClass::Sx, 100 + i);
    let mut t = SimTime::ZERO;
    for i in 0..65 {
        let (fabric, cluster, client) = &mut w;
        let ops = vec![op_on(object(i), true)];
        let done = client.execute_pipelined(fabric, cluster, t, 0, ops);
        t = done.into_iter().next().unwrap().into_update().unwrap();
    }
    let pass = |w: &mut World, t: &mut SimTime, objects: std::ops::Range<u64>| {
        for i in objects {
            let (fabric, cluster, client) = &mut *w;
            let ops = vec![op_on(object(i), false)];
            let done = client.execute_pipelined(fabric, cluster, *t, 0, ops);
            let (back, at) = done.into_iter().next().unwrap().into_fetch().unwrap();
            assert_eq!(back, payload());
            *t = at;
        }
    };
    // Sixty-five objects, oldest first, through sixty-four slots: each op
    // finds its template just overwritten and overwrites the next one's.
    assert_eq!(chains(&w), ChainStats::default());
    let busy = w.2.submission_busy_time();
    pass(&mut w, &mut t, 0..65);
    assert_eq!(
        chains(&w),
        ChainStats::default(),
        "no doorbell fired a SEND"
    );
    assert_eq!(w.2.submission_busy_time(), busy.saturating_mul(2));
    assert_eq!(w.2.dpu_stats().crc_bytes, 2 * 65 * LEN as u64);
    // Sixty-four of them: one pass rewrites what the cycle evicted, and
    // from then on no core is booked.
    pass(&mut w, &mut t, 1..65);
    let (busy, sent) = (w.2.submission_busy_time(), chains(&w).descriptors_sent);
    pass(&mut w, &mut t, 1..65);
    assert_eq!(w.2.submission_busy_time(), busy);
    let c = chains(&w);
    assert_eq!((c.descriptors_sent - sent, c.completed - sent), (64, 64));
    assert_eq!(w.0.node(DPU).rdma.violations().total(), 0);
}
