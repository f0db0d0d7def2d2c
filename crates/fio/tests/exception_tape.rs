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
//! existed: Ok/Err, epochs, `RetryStats` and the engines' counters are
//! pinned below to the values the same tape produced before the first
//! chain, and every payload is held to the kit's history oracle, which
//! knows which extent the tape rotted. And the split itself is pinned:
//! which ops the doorbell submitted, whose bytes the NIC checksummed and
//! verified, whose the ARM cores.

use ros2_daos::{ClientOp, ClientOpResult, DaosError, ObjClass, ObjectId, RetryPolicy, RetryStats};
use ros2_dpu::DpuTenantSpec;
use ros2_fio::{DfsFioWorld, FioClient, WorldSpec};
use ros2_sim::{SimDuration, SimTime};
use ros2_testkit::{array_key, read, write, Oracle};
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

/// Write `generation` of record `i`: `BS` stamped bytes.
fn update(i: u64, generation: u8) -> ClientOp {
    write(oid(i), i, BS, u64::from(generation) << 8 | i)
}

fn fetch(i: u64) -> ClientOp {
    read(oid(i), i, BS as u64)
}

/// What the tape observed, minus every instant.
#[derive(Debug, Default, PartialEq, Eq)]
struct Digest {
    /// Per op, in tape order: `Ok(bytes fetched)` (0 for an update) or
    /// the error.
    outcomes: Vec<Result<u64, DaosError>>,
    /// The container's next epoch once the tape has run.
    next_epoch: u64,
    retry: RetryStats,
    fences: u64,
    rpcs: u64,
    degraded_fetches: u64,
    /// `(array_updates, fetches, checksum_failures)` summed over engines.
    vos: (u64, u64, u64),
}

/// A tape as it runs: the oracle that settles every result, and the
/// digest.
struct Tape(Oracle, Digest);

impl Tape {
    fn new(oracle: Oracle) -> Self {
        Tape(oracle, Digest::default())
    }

    /// Submits `ops` as one queue of `job` at `at_us`, and settles their
    /// results.
    fn submit(&mut self, w: &mut DfsFioWorld, at_us: u64, job: usize, ops: Vec<ClientOp>) {
        let at = SimTime::from_micros(at_us);
        let client = w.client.as_object();
        let results = client.execute_pipelined(&mut w.fabric, &mut w.cluster, at, job, ops.clone());
        self.0.settle_all(&ops, &results);
        self.1.outcomes.extend(results.into_iter().map(|r| match r {
            ClientOpResult::Update(Ok(_)) => Ok(0),
            ClientOpResult::Fetch(Ok((data, _))) => Ok(data.len() as u64),
            ClientOpResult::Update(Err(e)) | ClientOpResult::Fetch(Err(e)) => Err(e),
        }));
    }
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
    // Lossy: the black hole may spend a retry budget.
    let mut t = Tape::new(Oracle::lossy(RetryPolicy::default().budget));
    let n = 12u64;
    // 1. First writes — the whole queue lands at one instant, before any
    // core has finished writing a template, so every one is a core's — then
    // clean reads of them from the other job.
    t.submit(w, 0, 0, (0..n).map(|i| update(i, 1)).collect());
    t.submit(w, 2_000, 1, (0..n).map(fetch).collect());

    // 2. A kill with queues in flight. Job 0's reads are submitted, the
    // leader of object 1 dies, and its MapPush is held back half a
    // millisecond: job 1's queue, submitted 20 us later, is still sent by
    // the NIC from templates stamped with the old map. Its legs to the
    // dead engine find out by deadline; its legs to live engines are
    // fenced, because those heard of the kill.
    t.submit(w, 4_000, 0, (0..6).map(fetch).collect());
    let legs = |w: &DfsFioWorld, i: u64| w.cluster.map().route(&oid(i)).set.len() as u64;
    let stale_update_legs = (0..n).filter(|i| i % 2 == 1).map(|i| legs(w, i)).sum();
    let victim = w.cluster.map().route(&oid(1)).set.leader().unwrap();
    w.cluster.kill_engine(victim).unwrap();
    let snap = w.cluster.map().clone();
    w.client.deliver_map(SimTime::from_micros(4_500), snap);
    let stale: Vec<ClientOp> = (0..n)
        .map(|i| if i % 2 == 0 { fetch(i) } else { update(i, 2) })
        .collect();
    t.submit(w, 4_020, 1, stale);

    // 3. The push has landed: degraded but first-attempt traffic. The
    // reads find every template a revision old, so cores submit them and
    // restamp; the writes after them are the NIC's again.
    t.submit(w, 10_000, 0, (0..n).map(fetch).collect());
    let degraded_update_legs = (0..n).map(|i| legs(w, i)).sum();
    t.submit(w, 12_000, 1, (0..n).map(|i| update(i, 3)).collect());

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
    t.submit(w, 14_000, 0, (0..n).map(fetch).collect());
    w.cluster.set_blackhole(hole, false);

    // 5. Bit rot under the leader's newest extent of one record: the
    // engine's own verify refuses it and the error reaches the host.
    let (rotten, key) = (3u64, array_key(oid(3), 3));
    let leader = w.cluster.map().route(&oid(rotten)).set.leader().unwrap();
    assert!(w.cluster.engine_mut(leader).corrupt_newest_extent(&key));
    t.0.rot(key);
    t.submit(w, 20_000, 1, (0..6).map(fetch).collect());

    let (Tape(_, mut d), c) = (t, &mut w.cluster);
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

    // Every op succeeded but the fetch of the rotten record, third from
    // the end, which failed with the checksum error; the oracle held every
    // payload to the newest acked write of its record.
    let failed: Vec<_> = (d.outcomes.iter().enumerate())
        .filter_map(|(i, o)| Some((i, o.err()?)))
        .collect();
    assert_eq!(
        (d.outcomes.len(), failed),
        (84, vec![(81, DaosError::ChecksumMismatch)])
    );

    // The values this tape produced before the first chain existed: next
    // epoch, ladder, fences, RPCs, degraded fetches and the engines'
    // `(array_updates, fetches, checksum_failures)`.
    let retry = RetryStats {
        timeouts: 8,
        fenced: 12,
        retries: 20,
        backoff_waits: 20,
        map_refreshes: 20,
        exhausted: 0,
    };
    assert_eq!(
        (d.next_epoch, d.retry, d.fences, d.rpcs),
        (38, retry, 12, 122)
    );
    assert_eq!((d.degraded_fetches, d.vos), (19, (56, 56, 1)));

    // Who ran what. Updates: the first-touch queue was the cores', checksum
    // included; every later one was sent by the doorbell, checksummed by
    // the NIC on the way out — the stale ones too, whose completions the
    // ladder then took. Fetches: the NIC verified what it submitted and
    // forwarded; the ladder's fetches (the stale window, the black hole)
    // and the restamped queue were verified on ARM cores.
    let s = w.client.dpu_stats();
    let count =
        |f: fn(&Result<u64, DaosError>) -> bool| d.outcomes.iter().filter(|o| f(o)).count() as u64;
    let updates = count(|o| *o == Ok(0));
    let fetches = count(|o| matches!(o, Ok(len) if *len != 0));
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
        let mut t = Tape::new(Oracle::new(RetryPolicy::default().budget));
        t.submit(&mut w, 0, 0, vec![update(0, 1)]);
        t.submit(&mut w, 1_000, 0, vec![fetch(0)]);
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

        t.submit(&mut w, 2_000, 0, vec![fetch(0)]);
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
            t.submit(&mut w, 3_000, 0, vec![fetch(0)]);
            assert_eq!(cores_and_doorbells(&w).1, 2, "restamped by a core");
        }
        let (busy, sent) = cores_and_doorbells(&w);
        t.submit(&mut w, clean_from, 0, vec![fetch(0)]);
        assert_eq!(cores_and_doorbells(&w), (busy, sent + 1));
        assert_eq!(w.client.retry_stats(), retry, "no further recovery");
        assert!(
            t.1.outcomes[1..].iter().all(|o| *o == Ok(BS as u64)),
            "{:?}",
            t.1.outcomes
        );
        assert_eq!(w.fabric.node(NodeId(0)).rdma.violations().total(), 0);
    }
}
