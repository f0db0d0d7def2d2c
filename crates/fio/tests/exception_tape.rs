//! Exceptions complete on the ARM core.
//!
//! One fixed tape on an offloaded RF 2 cluster, every queue submitted at a
//! fixed instant so nothing about it depends on how fast earlier ops
//! completed: clean traffic, an engine killed with queues in flight and
//! its `MapPush` delayed (legs to the dead engine time out, legs to the
//! live ones are fenced as stale), degraded traffic once the push lands, a
//! black-holed leader, and a bit-rotted extent.
//!
//! A NIC chain forwards the completions of ops that went right first time;
//! the recovery ladder's ops still complete on an ARM core. So everything
//! but *when* clean ops complete must be what it was before chains
//! existed: payloads, Ok/Err, epochs, `RetryStats` and the engines'
//! counters are pinned below to the values the same tape produced at the
//! parent commit (same file, run there). And the split itself is pinned:
//! the NIC verified exactly the clean fetches' bytes, the ARM cores
//! exactly the exceptions'.

use bytes::Bytes;
use ros2_daos::{
    AKey, ClientOp, ClientOpResult, DKey, DaosError, Epoch, ObjClass, ObjectId, RetryStats,
    ValueKind,
};
use ros2_dpu::DpuTenantSpec;
use ros2_fio::{ClusterFioWorld, WorldSpec};
use ros2_sim::SimTime;
use ros2_verbs::NodeId;

const BS: usize = 4 << 10;
const OBJECTS: u64 = 6;

fn world() -> ClusterFioWorld {
    let mut w = WorldSpec::cluster(4)
        .replication(2)
        .jobs(2)
        .region(1 << 20)
        .offload(vec![DpuTenantSpec::unlimited("fio")])
        .build();
    w.world.set_pipelined(true);
    w
}

fn oid(i: u64) -> ObjectId {
    ObjectId::new(ObjClass::Sx, 0x7a9e_0000 + i % OBJECTS)
}

fn payload(i: u64, generation: u8) -> Bytes {
    Bytes::from(vec![(i as u8).wrapping_mul(31) ^ generation; BS])
}

fn update(i: u64, generation: u8) -> ClientOp {
    ClientOp::Update {
        oid: oid(i),
        dkey: DKey::from_u64(i),
        akey: AKey::from_str("data"),
        kind: ValueKind::Array { offset: 0 },
        data: payload(i, generation),
    }
}

fn fetch(i: u64) -> ClientOp {
    ClientOp::Fetch {
        oid: oid(i),
        dkey: DKey::from_u64(i),
        akey: AKey::from_str("data"),
        kind: ValueKind::Array { offset: 0 },
        epoch: Epoch::LATEST,
        len: BS as u64,
    }
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

fn submit(w: &mut ClusterFioWorld, d: &mut Digest, at_us: u64, job: usize, ops: Vec<ClientOp>) {
    let w = &mut w.world;
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

/// Runs the tape; returns its digest and how many of its successful
/// fetches and updates the recovery ladder touched.
fn run(w: &mut ClusterFioWorld) -> (Digest, u64, u64) {
    let mut d = Digest::default();
    let n = 12u64;
    // 1. Clean writes, then clean reads of them from the other job.
    submit(w, &mut d, 0, 0, (0..n).map(|i| update(i, 1)).collect());
    submit(w, &mut d, 2_000, 1, (0..n).map(fetch).collect());

    // 2. A kill with queues in flight. Job 0's reads are submitted, the
    // leader of object 1 dies, and its MapPush is held back half a
    // millisecond: job 1's queue, submitted 20 us later, still routes by
    // the old map. Its legs to the dead engine find out by deadline; its
    // legs to live engines are fenced, because those heard of the kill.
    submit(w, &mut d, 4_000, 0, (0..6).map(fetch).collect());
    let victim = w.world.cluster.route_update(&oid(1)).leader().unwrap();
    w.world.cluster.kill_engine(victim).unwrap();
    let snap = w.world.cluster.snapshot_map();
    w.world
        .client
        .deliver_map(SimTime::from_micros(4_500), snap);
    let stale: Vec<ClientOp> = (0..n)
        .map(|i| if i % 2 == 0 { fetch(i) } else { update(i, 2) })
        .collect();
    submit(w, &mut d, 4_020, 1, stale);
    let (stale_fetches, stale_updates) = (n / 2, n / 2);

    // 3. The push has landed: degraded but first-attempt traffic.
    submit(w, &mut d, 10_000, 0, (0..n).map(fetch).collect());
    submit(w, &mut d, 12_000, 1, (0..n).map(|i| update(i, 3)).collect());

    // 4. A black-holed leader: up in the map, eats every request. (One
    // whose objects all kept their second replica through the kill, so
    // every read it swallows has somewhere else to go.)
    let c = &w.world.cluster;
    let led_by = |e: usize| (0..n).filter(move |&i| c.route_update(&oid(i)).leader() == Some(e));
    let hole = (0..c.len())
        .find(|&e| led_by(e).count() > 0 && led_by(e).all(|i| c.route_update(&oid(i)).len() == 2))
        .expect("an engine leading only fully replicated objects");
    let into_the_hole = led_by(hole).count() as u64;
    w.world.cluster.set_blackhole(hole, true);
    submit(w, &mut d, 14_000, 0, (0..n).map(fetch).collect());
    w.world.cluster.set_blackhole(hole, false);

    // 5. Bit rot under the leader's newest extent of one record: the
    // engine's own verify refuses it and the error reaches the host.
    let rotten = 3u64;
    let leader = w.world.cluster.route_update(&oid(rotten)).leader().unwrap();
    assert!(w.world.cluster.engine_mut(leader).corrupt_newest_extent(
        oid(rotten),
        &DKey::from_u64(rotten),
        &AKey::from_str("data")
    ));
    submit(w, &mut d, 20_000, 1, (0..6).map(fetch).collect());

    let c = &mut w.world.cluster;
    d.next_epoch = c.next_epoch("posix").unwrap().0;
    d.retry = w.world.client.retry_stats();
    d.fences = c.fences();
    d.rpcs = c.rpcs();
    d.degraded_fetches = c.rebuild_stats().degraded_fetches;
    let vos = c.vos_stats();
    d.vos = (vos.array_updates, vos.fetches, vos.checksum_failures);

    (d, stale_fetches + into_the_hole, stale_updates)
}

#[test]
fn the_tape_is_what_it_was_before_chains_and_exceptions_stay_on_the_arm_core() {
    let mut w = world();
    let (d, exception_fetches, exception_updates) = run(&mut w);

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

    // Who completed what. The ladder's fetches — everything job 1
    // submitted inside the stale window, everything that went into the
    // black hole — were verified on ARM cores, as were the update CRCs;
    // every other successful fetch was verified by the NIC, and no chain
    // forwarded anything else.
    let s = w.world.client.dpu_stats();
    let count =
        |f: fn(&Result<u32, &str>) -> bool| d.outcomes.iter().filter(|o| f(o)).count() as u64;
    let updates = count(|o| *o == Ok(0));
    let fetches = count(|o| matches!(o, Ok(crc) if *crc != 0));
    assert!(exception_fetches > 0 && exception_updates > 0);
    let clean_fetches = fetches - exception_fetches;
    assert_eq!(s.nic_verified_bytes, clean_fetches * BS as u64);
    assert_eq!(s.crc_bytes, (updates + exception_fetches) * BS as u64);
    let nic = &w.world.fabric.node(NodeId(0)).rdma;
    let chains = nic.chain_stats();
    assert_eq!(chains.verified_bytes, s.nic_verified_bytes);
    assert_eq!(
        chains.completed,
        clean_fetches + updates - exception_updates
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

/// Recorded by running [`run`] at the parent commit.
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
    let instants = |w: &mut ClusterFioWorld| {
        let (d, _, _) = run(w);
        (d, w.world.client.dpu_stats())
    };
    assert_eq!(instants(&mut world()), instants(&mut world()));
}
