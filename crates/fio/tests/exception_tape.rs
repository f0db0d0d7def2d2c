//! Exceptions are submitted and completed by ARM cores.
//!
//! One fixed tape on an offloaded RF 2 cluster, every queue submitted at a
//! fixed instant so nothing about it depends on how fast earlier ops
//! completed: first-touch and then clean traffic, an engine killed with
//! queues in flight and its `MapPush` delayed (legs to the dead engine time
//! out, legs to the live ones are fenced as stale), degraded traffic once
//! the push lands, a black-holed leader, and a bit-rotted extent.
//!
//! A NIC chain runs the ops that are clean — it sends their descriptors
//! from the objects' templates when the doorbell lands, and forwards their
//! completions if they went right first time. Everything else is the ARM
//! cores': an object's first ops (no template yet), the first ops after a
//! map push has landed (the templates are stamped with the old revision; a
//! core resolves the route again and rewrites them), and the completion of
//! anything the recovery ladder touched — including ops the NIC sent with
//! a stamp nobody yet knew to be stale, which the engines fence. So
//! everything but *when* clean ops run must be what it was before chains
//! existed: payloads, Ok/Err, epochs, `RetryStats` and the engines'
//! counters are pinned below to the values the same tape produced before
//! the first chain (PR 22's parent; same file, run there — and the same
//! again at this PR's parent). And the split itself is pinned: which ops
//! the doorbell submitted, whose bytes the NIC checksummed and verified,
//! whose the ARM cores.

use bytes::Bytes;
use ros2_daos::{
    AKey, ClientOp, ClientOpResult, DKey, DaosError, Epoch, FetchOp, ObjClass, ObjectId, RecordKey,
    RetryStats, UpdateOp, ValueKind,
};
use ros2_dpu::DpuTenantSpec;
use ros2_fio::{DfsFioWorld, FioClient, WorldSpec};
use ros2_sim::{SimDuration, SimTime};
use ros2_verbs::NodeId;

const BS: usize = 4 << 10;
const OBJECTS: u64 = 6;

fn world() -> DfsFioWorld {
    let mut w = WorldSpec::cluster(4)
        .replication(2)
        .jobs(2)
        .region(1 << 20)
        .offload(vec![DpuTenantSpec::unlimited("fio")])
        .build_dfs();
    w.set_pipelined(true);
    w
}

fn oid(i: u64) -> ObjectId {
    ObjectId::new(ObjClass::Sx, 0x7a9e_0000 + i % OBJECTS)
}

fn payload(i: u64, generation: u8) -> Bytes {
    Bytes::from(vec![(i as u8).wrapping_mul(31) ^ generation; BS])
}

fn update(i: u64, generation: u8) -> ClientOp {
    ClientOp::Update(UpdateOp {
        key: RecordKey {
            oid: oid(i),
            dkey: DKey::from_u64(i),
            akey: AKey::from_str("data"),
        },
        kind: ValueKind::Array { offset: 0 },
        data: payload(i, generation),
    })
}

fn fetch(i: u64) -> ClientOp {
    ClientOp::Fetch(FetchOp {
        key: RecordKey {
            oid: oid(i),
            dkey: DKey::from_u64(i),
            akey: AKey::from_str("data"),
        },
        kind: ValueKind::Array { offset: 0 },
        epoch: Epoch::LATEST,
        len: BS as u64,
    })
}

/// What the tape observed, minus every instant.
#[derive(Debug, Default, PartialEq, Eq)]
struct Digest {
    /// Per op, in tape order: `Ok(crc of the fetched payload)` (0 for an
    /// update) or the error's variant name.
    outcomes: Vec<Result<u32, &'static str>>,
    /// The container's next epoch once the tape has run.
    next_epoch: u64,
    retry: RetryStats,
    fences: u64,
    rpcs: u64,
    degraded_fetches: u64,
    /// `(array_updates, fetches, checksum_failures)` summed over engines.
    vos: (u64, u64, u64),
}

fn submit(w: &mut DfsFioWorld, d: &mut Digest, at_us: u64, job: usize, ops: Vec<ClientOp>) {
    let results = w.client.as_object().execute_pipelined(
        &mut w.fabric,
        &mut w.cluster,
        SimTime::from_micros(at_us),
        job,
        ops,
    );
    d.outcomes.extend(results.into_iter().map(|r| match r {
        ClientOpResult::Update(Ok(_)) => Ok(0),
        ClientOpResult::Fetch(Ok((data, _))) => Ok(ros2_buf::crc32c(&data)),
        ClientOpResult::Update(Err(e)) | ClientOpResult::Fetch(Err(e)) => Err(match e {
            DaosError::ChecksumMismatch => "ChecksumMismatch",
            DaosError::StaleMap { .. } => "StaleMap",
            DaosError::NotFound => "NotFound",
            _ => "Other",
        }),
    }));
}

/// Who ran what: op counts per phase of the tape, for the ops whose path
/// was not the NIC's from doorbell to completion record.
#[derive(Debug, Default)]
struct Split {
    /// Updates a core submitted: no template yet.
    first_touch_updates: u64,
    /// Fetches / updates the NIC sent under the stale stamp; the ladder
    /// completed them.
    stale_fetches: u64,
    stale_updates: u64,
    /// Descriptor legs of those stale updates (the pre-kill replica sets).
    stale_update_legs: u64,
    /// Fetches a core submitted after the push: templates one revision old.
    restamped_fetches: u64,
    /// Descriptor legs of the clean degraded updates that followed.
    degraded_update_legs: u64,
    /// Fetches the NIC sent into the black hole; the ladder completed them.
    hole_fetches: u64,
}

/// Runs the tape; returns its digest and the split.
fn run(w: &mut DfsFioWorld) -> (Digest, Split) {
    let mut d = Digest::default();
    let n = 12u64;
    // 1. First writes — the whole queue lands at one instant, before any
    // core has finished writing a template, so every one is a core's — then
    // clean reads of them from the other job.
    submit(w, &mut d, 0, 0, (0..n).map(|i| update(i, 1)).collect());
    submit(w, &mut d, 2_000, 1, (0..n).map(fetch).collect());

    // 2. A kill with queues in flight. Job 0's reads are submitted, the
    // leader of object 1 dies, and its MapPush is held back half a
    // millisecond: job 1's queue, submitted 20 us later, is still sent by
    // the NIC from templates stamped with the old map. Its legs to the
    // dead engine find out by deadline; its legs to live engines are
    // fenced, because those heard of the kill.
    submit(w, &mut d, 4_000, 0, (0..6).map(fetch).collect());
    let legs = |w: &DfsFioWorld, i: u64| w.cluster.map().route(&oid(i)).set.len() as u64;
    let stale_update_legs = (0..n).filter(|i| i % 2 == 1).map(|i| legs(w, i)).sum();
    let victim = w.cluster.map().route(&oid(1)).set.leader().unwrap();
    w.cluster.kill_engine(victim).unwrap();
    let snap = w.cluster.map().clone();
    w.client.deliver_map(SimTime::from_micros(4_500), snap);
    let stale: Vec<ClientOp> = (0..n)
        .map(|i| if i % 2 == 0 { fetch(i) } else { update(i, 2) })
        .collect();
    submit(w, &mut d, 4_020, 1, stale);

    // 3. The push has landed: degraded but first-attempt traffic. The
    // reads find every template a revision old, so cores submit them and
    // restamp; the writes after them are the NIC's again.
    submit(w, &mut d, 10_000, 0, (0..n).map(fetch).collect());
    let degraded_update_legs = (0..n).map(|i| legs(w, i)).sum();
    submit(w, &mut d, 12_000, 1, (0..n).map(|i| update(i, 3)).collect());

    // 4. A black-holed leader: up in the map, eats every request. (One
    // whose objects all kept their second replica through the kill, so
    // every read it swallows has somewhere else to go.)
    let c = &w.cluster;
    let led_by = |e: usize| (0..n).filter(move |&i| c.map().route(&oid(i)).set.leader() == Some(e));
    let hole = (0..c.len())
        .find(|&e| {
            led_by(e).count() > 0 && led_by(e).all(|i| c.map().route(&oid(i)).set.len() == 2)
        })
        .expect("an engine leading only fully replicated objects");
    let hole_fetches = led_by(hole).count() as u64;
    w.cluster.set_blackhole(hole, true);
    submit(w, &mut d, 14_000, 0, (0..n).map(fetch).collect());
    w.cluster.set_blackhole(hole, false);

    // 5. Bit rot under the leader's newest extent of one record: the
    // engine's own verify refuses it and the error reaches the host.
    let rotten = 3u64;
    let leader = w.cluster.map().route(&oid(rotten)).set.leader().unwrap();
    assert!(w
        .cluster
        .engine_mut(leader)
        .corrupt_newest_extent(&RecordKey {
            oid: oid(rotten),
            dkey: DKey::from_u64(rotten),
            akey: AKey::from_str("data")
        }));
    submit(w, &mut d, 20_000, 1, (0..6).map(fetch).collect());

    let c = &mut w.cluster;
    d.next_epoch = c.next_epoch("posix").unwrap().0;
    d.retry = w.client.retry_stats();
    d.fences = c.fences();
    d.rpcs = c.rpcs();
    d.degraded_fetches = c.rebuild_stats().degraded_fetches;
    let vos = c.vos_stats();
    d.vos = (vos.array_updates, vos.fetches, vos.checksum_failures);

    let split = Split {
        first_touch_updates: n,
        stale_fetches: n / 2,
        stale_updates: n / 2,
        stale_update_legs,
        restamped_fetches: n,
        degraded_update_legs,
        hole_fetches,
    };
    (d, split)
}

#[test]
fn the_tape_is_what_it_was_before_chains_and_exceptions_stay_on_the_arm_core() {
    let mut w = world();
    let (d, split) = run(&mut w);

    // Every fetch returned the newest acked write of its record, except
    // the rotten one, which failed with the checksum error.
    let crc = |i: u64, generation: u8| Ok(ros2_buf::crc32c(&payload(i, generation)));
    let mut want: Vec<Result<u32, &'static str>> = Vec::new();
    want.extend((0..12).map(|_| Ok(0)));
    want.extend((0..12).map(|i| crc(i, 1)));
    want.extend((0..6).map(|i| crc(i, 1)));
    want.extend((0..12).map(|i| if i % 2 == 0 { crc(i, 1) } else { Ok(0) }));
    want.extend((0..12).map(|i| crc(i, if i % 2 == 0 { 1 } else { 2 })));
    want.extend((0..12).map(|_| Ok(0)));
    want.extend((0..12).map(|i| crc(i, 3)));
    want.extend((0..6).map(|i| {
        if i == 3 {
            Err("ChecksumMismatch")
        } else {
            crc(i, 3)
        }
    }));
    assert_eq!(d.outcomes, want);

    // The parent commit's values for this tape.
    assert_eq!(d.next_epoch, PARENT.next_epoch);
    assert_eq!(d.retry, PARENT.retry);
    assert_eq!(d.fences, PARENT.fences);
    assert_eq!(d.rpcs, PARENT.rpcs);
    assert_eq!(d.degraded_fetches, PARENT.degraded_fetches);
    assert_eq!(d.vos, PARENT.vos);
    assert!(d.retry.timeouts > 0 && d.retry.fenced > 0 && d.retry.exhausted == 0);

    // Who ran what. Updates: the first-touch queue was the cores', checksum
    // included; every later one was sent by the doorbell, checksummed by
    // the NIC on the way out — the stale ones too, whose completions the
    // ladder then took. Fetches: the NIC verified what it submitted and
    // forwarded; the ladder's fetches (the stale window, the black hole)
    // and the restamped queue were verified on ARM cores.
    let s = w.client.dpu_stats();
    let count =
        |f: fn(&Result<u32, &str>) -> bool| d.outcomes.iter().filter(|o| f(o)).count() as u64;
    let updates = count(|o| *o == Ok(0));
    let fetches = count(|o| matches!(o, Ok(crc) if *crc != 0));
    let rotten = count(|o| o.is_err());
    assert!(split.hole_fetches > 0 && rotten == 1);
    let arm_fetches = split.stale_fetches + split.hole_fetches + split.restamped_fetches;
    let nic_fetches = fetches - arm_fetches;
    let nic_updates = updates - split.first_touch_updates;
    let bs = BS as u64;
    assert_eq!(s.nic_verified_bytes, nic_fetches * bs);
    assert_eq!(s.nic_checksummed_bytes, nic_updates * bs);
    assert_eq!(s.crc_bytes, (split.first_touch_updates + arm_fetches) * bs);
    let nic = &w.fabric.node(NodeId(0)).rdma;
    let chains = nic.chain_stats();
    assert_eq!(chains.verified_bytes, s.nic_verified_bytes);
    // One descriptor per fetch the doorbell submitted (the rotten one and
    // the ladder's first attempts included), one per replica of an update.
    assert_eq!(
        chains.descriptors_sent,
        (nic_fetches + rotten + split.stale_fetches + split.hole_fetches)
            + split.stale_update_legs
            + split.degraded_update_legs
    );
    assert_eq!(
        chains.completed,
        nic_fetches + nic_updates - split.stale_updates
    );
    assert_eq!(chains.records_written, chains.completed);
    assert_eq!(chains.crc_rejects, 0);
    assert_eq!(nic.violations().total(), 0);
}

struct Parent {
    next_epoch: u64,
    retry: RetryStats,
    fences: u64,
    rpcs: u64,
    degraded_fetches: u64,
    vos: (u64, u64, u64),
}

/// Recorded by running [`run`] at PR 22's parent commit, before any chain.
const PARENT: Parent = Parent {
    next_epoch: 38,
    retry: RetryStats {
        timeouts: 8,
        fenced: 12,
        retries: 20,
        backoff_waits: 20,
        map_refreshes: 20,
        exhausted: 0,
    },
    fences: 12,
    rpcs: 122,
    degraded_fetches: 19,
    vos: (56, 56, 1),
};

/// The tape replays bit-identically, instants included.
#[test]
fn the_tape_replays_bit_identically() {
    let instants = |w: &mut DfsFioWorld| {
        let (d, _) = run(w);
        (d, w.client.dpu_stats())
    };
    assert_eq!(instants(&mut world()), instants(&mut world()));
}

/// ARM submission time booked so far, and descriptors doorbells have sent.
fn cores_and_doorbells(w: &DfsFioWorld) -> (SimDuration, u64) {
    let FioClient::Offloaded(client) = &w.client else {
        panic!("offloaded world")
    };
    let nic = &w.fabric.node(NodeId(0)).rdma;
    (
        client.submission_busy_time(),
        nic.chain_stats().descriptors_sent,
    )
}

/// One file, one map push, both ways it can arrive. *Delivered* between two
/// ops, the lane knows its templates are a revision old: the next op is a
/// core's, which restamps, and the one after is the NIC's again — nothing
/// fenced, nothing retried. *Delayed* past the next op, nobody on the DPU
/// knows: the NIC sends the stale-stamped descriptor as it stands, the
/// engine fences it, and the ladder — a core — refreshes and re-stages.
#[test]
fn a_map_push_restamps_on_a_core_and_a_late_one_gets_the_nics_descriptor_fenced() {
    for delayed in [false, true] {
        let mut w = world();
        let mut d = Digest::default();
        submit(&mut w, &mut d, 0, 0, vec![update(0, 1)]);
        submit(&mut w, &mut d, 1_000, 0, vec![fetch(0)]);
        // Cores so far: the first touch, one submission per replica leg.
        let (first_touch, sent) = cores_and_doorbells(&w);
        assert_eq!(sent, 1, "the file's second op was the doorbell's");
        // A bystander dies: object 0's route is what it was, the map
        // revision is not.
        let route = w.cluster.map().route(&oid(0)).set;
        let bystander = (0..4).find(|&e| !route.contains(e)).unwrap();
        w.cluster.kill_engine(bystander).unwrap();
        let snap = w.cluster.map().clone();
        let lands_us = if delayed { 2_500 } else { 1_500 };
        w.client.deliver_map(SimTime::from_micros(lands_us), snap);

        submit(&mut w, &mut d, 2_000, 0, vec![fetch(0)]);
        let (busy, sent) = cores_and_doorbells(&w);
        let retry = w.client.retry_stats();
        // Either way exactly one more core submission: the op itself, or
        // the ladder's re-stage of it.
        assert_eq!(busy, first_touch + first_touch / 2);
        match delayed {
            false => {
                assert_eq!(sent, 1, "a core submitted it");
                assert_eq!((retry, w.cluster.fences()), (RetryStats::default(), 0));
            }
            true => {
                assert_eq!(sent, 2, "the NIC sent it, stale stamp and all");
                assert_eq!((retry.fenced, retry.retries), (1, 1));
                assert_eq!((retry.map_refreshes, retry.timeouts), (1, 0));
                assert_eq!(w.cluster.fences(), 1);
            }
        }
        // The op after the restamp — by the core that submitted, or by the
        // next one once the ladder's refresh showed the stamp up as old —
        // is clean.
        let clean_from = if delayed { 4_000 } else { 3_000 };
        if delayed {
            submit(&mut w, &mut d, 3_000, 0, vec![fetch(0)]);
            assert_eq!(cores_and_doorbells(&w).1, 2, "restamped by a core");
        }
        let (busy, sent) = cores_and_doorbells(&w);
        submit(&mut w, &mut d, clean_from, 0, vec![fetch(0)]);
        assert_eq!(cores_and_doorbells(&w), (busy, sent + 1));
        assert_eq!(w.client.retry_stats(), retry, "no further recovery");
        let crc = Ok(ros2_buf::crc32c(&payload(0, 1)));
        assert!(
            d.outcomes[1..].iter().all(|o| *o == crc),
            "{:?}",
            d.outcomes
        );
        assert_eq!(w.fabric.node(NodeId(0)).rdma.violations().total(), 0);
    }
}
