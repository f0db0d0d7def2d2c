//! The pool-map-aware DPU read cache's rules, each pinned in isolation:
//! write-update of a resident chunk (including same-call suppression),
//! map-revision change, a write to another record leaving an entry alone,
//! a writer the lane never sees invalidating it, the degraded-read fill
//! bypass, ladder completions never filling, and the DRAM carve balancing
//! across enable/disable cycles.
//!
//! The theorem the cache exists under (a cached fetch never returns
//! different bytes than the history of writes says it must, under any
//! interleaving of writes from both lanes, kills, delayed map pushes,
//! queue depths and capacity pressure) is the history tape's
//! (`ros2_testkit::Tape`): `cached_fetches_never_diverge_from_authority`
//! checks tapes with a cache carve, and `history_tape.rs` sweeps every arm.

use bytes::Bytes;
use ros2_daos::{
    AKey, ClientOp, DKey, EngineCluster, Epoch, FetchOp, ObjClass, ObjectClient, ObjectId,
    RetryPolicy, UpdateOp, ValueKind,
};
use ros2_dpu::{DpuClient, DpuTenantSpec};
use ros2_fabric::Fabric;
use ros2_sim::{SimDuration, SimTime};
use ros2_testkit::{array_key, instant, serial_op, sweep, world, Arm, Tape, World};

const ENGINES: usize = 4;
const KEYS: u64 = 6;
const LEN: usize = 8 << 10;
const HOT: u64 = 11;
/// The retry budget: the ladder must always outlast a delayed map push.
const BUDGET: u32 = 10;

/// A 4-engine RF=2 cluster fronted by one offloaded client on a
/// BlueField-3 with two tenant lanes (job 0 on one, job 1 on the other);
/// `cache` carves that many bytes for the read cache, split across them.
fn offloaded(cache: Option<u64>) -> (Fabric, EngineCluster, DpuClient) {
    let lanes = vec![DpuTenantSpec::unlimited("t"), DpuTenantSpec::unlimited("u")];
    let (fabric, cluster, mut client) = World {
        jobs: 2,
        ssds: 2,
        storage_cores: 48,
        seed: 29,
        ..world(ENGINES, 2)
    }
    .build_offloaded(lanes);
    client.set_retry_policy(RetryPolicy {
        budget: BUDGET,
        ..RetryPolicy::default()
    });
    if let Some(bytes) = cache {
        client.enable_read_cache(bytes).unwrap();
    }
    (fabric, cluster, client)
}

fn oid() -> ObjectId {
    ObjectId::new(ObjClass::Sx, HOT)
}

fn akey() -> AKey {
    AKey::from_str("data")
}

fn kind() -> ValueKind {
    ValueKind::Array { offset: 0 }
}

/// Seeds every key with a distinct payload; returns the instant after the
/// last ack.
fn seed(f: &mut Fabric, cl: &mut EngineCluster, c: &mut DpuClient) -> SimTime {
    (0..KEYS).fold(SimTime::ZERO, |t, k| {
        write_serial(f, cl, c, t, (0, k), k as u8 + 1)
    })
}

/// Writes `byte` over all of dkey `k` from `job`, on the serial path;
/// returns the ack.
fn write_serial(
    f: &mut Fabric,
    cl: &mut EngineCluster,
    c: &mut DpuClient,
    t: SimTime,
    (job, k): (usize, u64),
    byte: u8,
) -> SimTime {
    let (dkey, data) = (DKey::from_u64(k), Bytes::from(vec![byte; LEN]));
    c.update(f, cl, t, job, oid(), dkey, akey(), kind(), data)
        .unwrap()
}

/// A write of `byte` over all of dkey `k`.
fn fill(k: u64, byte: u8) -> ClientOp {
    let data = Bytes::from(vec![byte; LEN]);
    ClientOp::Update(UpdateOp {
        key: array_key(oid(), k),
        kind: kind(),
        data,
    })
}

/// A `LATEST` fetch of all of dkey `k`.
fn whole(k: u64) -> ClientOp {
    ClientOp::Fetch(FetchOp {
        key: array_key(oid(), k),
        kind: kind(),
        epoch: Epoch::LATEST,
        len: LEN as u64,
    })
}

/// Fetches all of dkey `k` from job 0, on the serial path.
fn fetch_serial(
    f: &mut Fabric,
    cl: &mut EngineCluster,
    c: &mut DpuClient,
    t: SimTime,
    k: u64,
) -> (Bytes, SimTime) {
    serial_op(c, f, cl, t, whole(k)).into_fetch().unwrap()
}

// ------------------------------------------------------- unit triggers ---

/// Rule 1 — write-update and same-call suppression: a local update that
/// covers a resident chunk replaces its bytes, and a fetch inside the
/// *same* pipelined call neither probes nor fills for a record that call
/// writes.
#[test]
fn same_call_writes_suppress_probe_and_fill() {
    let (mut f, mut cl, mut c) = offloaded(Some(1 << 20));
    let t = seed(&mut f, &mut cl, &mut c);
    // Warm key 0 so the write has something to update.
    let (_, t) = fetch_serial(&mut f, &mut cl, &mut c, t, 0);
    assert_eq!(c.cache_stats().fills, 1);

    // One call that writes key 0 and fetches it back: the write updates
    // the warm entry, and the fetch is excluded from both probe and fill.
    let ops = vec![fill(0, 99), whole(0)];
    let t = t + SimDuration::from_millis(1);
    let results = c.execute_pipelined(&mut f, &mut cl, t, 0, ops);
    let now = results
        .iter()
        .map(|r| instant(r).expect("mixed call failed"))
        .fold(t, SimTime::max);
    let s = c.cache_stats();
    assert_eq!(
        s.fills, 1,
        "a fetch of a same-call-written record must not fill"
    );
    assert_eq!((s.hits, s.misses), (0, 1), "…nor probe");
    assert_eq!(
        (s.write_updates, s.invalidations),
        (1, 0),
        "the write must bring the warm entry up to date, not drop it"
    );

    // The next fetch is a hit on the new bytes, and the authority agrees.
    let (warm, t2) = fetch_serial(&mut f, &mut cl, &mut c, now, 0);
    assert!(warm.iter().all(|&b| b == 99));
    assert_eq!((c.cache_stats().hits, c.cache_stats().fills), (1, 1));
    c.disable_read_cache();
    let (authority, _) = fetch_serial(&mut f, &mut cl, &mut c, t2, 0);
    assert_eq!(warm, authority);
}

/// Rule 2 — map-revision change: a kill anywhere in the pool bumps the
/// map version; the RAS push sweeps the cache even when the object's own
/// route never moved.
#[test]
fn map_push_invalidates_resident_chunks() {
    let (mut f, mut cl, mut c) = offloaded(Some(1 << 20));
    let t = seed(&mut f, &mut cl, &mut c);
    let (_, t) = fetch_serial(&mut f, &mut cl, &mut c, t, 0);
    let (_, t) = fetch_serial(&mut f, &mut cl, &mut c, t, 0);
    assert_eq!((c.cache_stats().fills, c.cache_stats().hits), (1, 1));

    // Kill an engine *outside* the hot object's replica set: the route is
    // untouched and not degraded, but the map revision moved.
    let members: Vec<usize> = cl.map().route(&oid()).set.iter().collect();
    let outsider = (0..ENGINES).find(|s| !members.contains(s)).unwrap();
    cl.kill_engine(outsider).unwrap();
    c.sync_map(cl.map().clone());
    let s = c.cache_stats();
    assert!(
        s.invalidations >= 1,
        "the push must sweep stale-map entries"
    );

    // The next fetch misses, refills under the new revision, then hits.
    let (_, t) = fetch_serial(&mut f, &mut cl, &mut c, t, 0);
    let (_, _) = fetch_serial(&mut f, &mut cl, &mut c, t, 0);
    let s = c.cache_stats();
    assert_eq!(s.fills, 2, "a clean route refills under the new map");
    assert_eq!(s.hits, 2);
}

/// Rule 3a — validity is per record: a write to a *different* record
/// leaves key 0's entry serving (the parent dropped it: every write moved
/// the container-wide stamp).
#[test]
fn write_to_another_record_leaves_the_entry_serving() {
    let (mut f, mut cl, mut c) = offloaded(Some(1 << 20));
    let t = seed(&mut f, &mut cl, &mut c);
    let (_, t) = fetch_serial(&mut f, &mut cl, &mut c, t, 0);
    let t = write_serial(&mut f, &mut cl, &mut c, t, (0, 1), 42);
    let (b, t) = fetch_serial(&mut f, &mut cl, &mut c, t, 0);
    let (_, _) = fetch_serial(&mut f, &mut cl, &mut c, t, 0);
    assert!(b.iter().all(|&x| x == 1), "key 0's bytes are unchanged");
    let s = c.cache_stats();
    assert_eq!((s.hits, s.fills, s.invalidations), (2, 1, 0));
}

/// Rule 3b — a write to the *same* record by a writer the lane never sees
/// (the other tenant lane, with its own cache) moves the record's arrival
/// version at the leader, which invalidates the entry without a touch.
#[test]
fn unseen_writer_invalidates_without_a_touch() {
    let (mut f, mut cl, mut c) = offloaded(Some(1 << 20));
    let t = seed(&mut f, &mut cl, &mut c);
    let (_, t) = fetch_serial(&mut f, &mut cl, &mut c, t, 0);
    let (_, t) = fetch_serial(&mut f, &mut cl, &mut c, t, 0);
    assert_eq!((c.cache_stats().fills, c.cache_stats().hits), (1, 1));

    // Job 1 runs on the other lane: lane 0's cache is never told.
    let t = write_serial(&mut f, &mut cl, &mut c, t, (1, 0), 42);
    assert_eq!(c.cache_stats().invalidations, 0, "nothing touched yet");
    let (b, t) = fetch_serial(&mut f, &mut cl, &mut c, t, 0);
    assert!(b.iter().all(|&x| x == 42), "the other lane's write is read");
    let s = c.cache_stats();
    assert_eq!(s.hits, 1, "the stale-version probe must not hit");
    assert_eq!(s.invalidations, 1, "…and must drop the stale entry");
    assert_eq!(s.fills, 2, "the miss refills at the new version");
    let (_, _) = fetch_serial(&mut f, &mut cl, &mut c, t, 0);
    assert_eq!(c.cache_stats().hits, 2, "the refilled entry serves again");
}

/// Degraded reads bypass the fill path entirely: while the hot object's
/// set is short a member, fetches serve from survivors but never populate
/// the cache; fills resume once the rebuild restores redundancy.
#[test]
fn degraded_reads_never_fill() {
    let (mut f, mut cl, mut c) = offloaded(Some(1 << 20));
    let t = seed(&mut f, &mut cl, &mut c);
    let leader = cl.map().route(&oid()).set.leader().unwrap();
    cl.kill_engine(leader).unwrap();
    c.sync_map(cl.map().clone());

    let t = t + SimDuration::from_millis(1);
    let (b1, t) = fetch_serial(&mut f, &mut cl, &mut c, t, 0);
    let (b2, t) = fetch_serial(&mut f, &mut cl, &mut c, t, 0);
    assert_eq!(b1, b2);
    assert!(b1.iter().all(|&x| x == 1));
    let s = c.cache_stats();
    assert_eq!(s.fills, 0, "a degraded route must never fill");
    assert_eq!(s.hits, 0);
    assert_eq!(s.misses, 2);
    assert!(cl.rebuild_stats().degraded_fetches >= 1);

    // Rebuild restores redundancy; the next push re-arms the fill path.
    let t = cl.rebuild(&mut f, t).unwrap();
    c.sync_map(cl.map().clone());
    let (_, t) = fetch_serial(&mut f, &mut cl, &mut c, t, 0);
    let (_, _) = fetch_serial(&mut f, &mut cl, &mut c, t, 0);
    let s = c.cache_stats();
    assert_eq!(s.fills, 1, "a healthy route fills again after rebuild");
    assert_eq!(s.hits, 1);
}

/// Completions that went through the recovery ladder never teach the
/// cache: a ring fetch that had to retry does not fill, and a ring update
/// that failed on a replica punches its range instead of installing its
/// payload — whatever the leader took, the next read asks the authority.
#[test]
fn ladder_completions_never_teach_the_cache() {
    let (mut f, mut cl, mut c) = offloaded(Some(1 << 20));
    let t = seed(&mut f, &mut cl, &mut c);
    let (_, t) = fetch_serial(&mut f, &mut cl, &mut c, t, 0);
    let set = cl.map().route(&oid()).set;
    let (leader, follower) = (set.leader().unwrap(), set.iter().nth(1).unwrap());

    // The leader's connection eats the request: the fetch times out and is
    // served by the other replica — correct bytes, no fill.
    cl.set_blackhole(leader, true);
    let r = c.execute_pipelined(&mut f, &mut cl, t, 0, vec![whole(1)]);
    let (b, t) = r.into_iter().next().unwrap().into_fetch().unwrap();
    assert!(b.iter().all(|&x| x == 2));
    cl.set_blackhole(leader, false);
    let s = c.cache_stats();
    assert_eq!((s.fills, c.retry_stats().timeouts), (1, 1), "{s:?}");

    // The follower's connection eats the update's second leg: the leader
    // applies it, the op fails, and the warm entry is punched.
    cl.set_blackhole(follower, true);
    let r = c.execute_pipelined(&mut f, &mut cl, t, 0, vec![fill(0, 77)]);
    assert!(r.into_iter().next().unwrap().into_update().is_err());
    cl.set_blackhole(follower, false);
    let s = c.cache_stats();
    assert_eq!((s.write_updates, s.invalidations), (0, 1), "{s:?}");
    assert_eq!(c.cache_usage().0, 0, "a failed update leaves no entry");
    let (warm, t) = fetch_serial(&mut f, &mut cl, &mut c, t + SimDuration::from_millis(50), 0);
    c.disable_read_cache();
    let (authority, _) = fetch_serial(&mut f, &mut cl, &mut c, t, 0);
    assert_eq!(warm, authority);
}

/// The DRAM carve balances across arbitrarily many enable/resize/disable
/// cycles: staging headroom returns to baseline, the agent never
/// over-releases, and no carve residue accumulates.
#[test]
fn cache_carve_balances_across_cycles() {
    let (mut f, mut cl, mut c) = offloaded(None);
    let _ = seed(&mut f, &mut cl, &mut c);
    let baseline = c.agent().dram_used();
    assert_eq!(c.agent().cache_reserved(), 0);
    for i in 1..=6u64 {
        c.enable_read_cache(i * (64 << 20)).unwrap();
        assert_eq!(c.agent().cache_reserved(), i * (64 << 20));
        assert_eq!(c.agent().staging_used(), baseline);
        c.disable_read_cache();
        assert_eq!(c.agent().dram_used(), baseline, "cycle {i} leaked carve");
        assert_eq!(c.agent().cache_reserved(), 0);
    }
    assert_eq!(c.agent().over_releases.get(), 0);
    // A carve that cannot fit fails cleanly with no residue.
    assert!(c.enable_read_cache(64 << 30).is_err());
    assert_eq!(c.agent().dram_used(), baseline);
    assert_eq!(c.agent().cache_reserved(), 0);
}

/// The seeds the cache property draws from: past the full sweep's
/// `0..1000`.
const FROM: u64 = 30_000;
const CASES: usize = 40;

/// Offloaded tapes with a read-cache carve: every fetch is held to the
/// oracle, each tape replays bit-identically with resident bytes within
/// the carve after every queue, and its contrast run (often the cache
/// off) is held to the oracle too.
#[test]
fn cached_fetches_never_diverge_from_authority() {
    let seeds = (FROM..)
        .filter(|&s| matches!(Tape::draw(s).arm, Arm::Offloaded(1..)))
        .take(CASES);
    let c = sweep(seeds);
    assert!(c.cache.hits > 0, "{c:?}");
}
