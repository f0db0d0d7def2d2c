//! Coherence properties for the pool-map-aware DPU read cache.
//!
//! The cache is only allowed to exist because of one theorem: **a cached
//! fetch never returns different bytes than the history of writes says
//! it must**, under any interleaving of local writes, engine kills,
//! delayed map pushes, queue depths, and capacity pressure. This suite
//! drives random schedules at that theorem with the history oracle
//! (`ros2_testkit::Oracle`), the same one the host client's suites use:
//!
//! 1. **Every op settles** — each seed write, tape op and fetch, in a
//!    cached world and in an uncached one, settles with a strict oracle:
//!    no op fails, and every fetch returns the shadow's bytes (rule 2).
//! 2. **The world reads back** — after the schedule every record reads
//!    back as the shadow holds it, through the client and from every live
//!    replica (rules 2 and 3): once through the warm cache, and once more
//!    after `disable_read_cache` tears it down.
//! 3. **Bit-identical replay** — the cached run repeated from scratch
//!    reproduces the same instants and cache counters.
//!
//! The schedules address a `(dkey, offset)` grid with reads and writes of
//! mixed sizes that overlap in part and repeat, from two tenant lanes —
//! each one a cached reader and, to the other, a writer it never sees —
//! with one foreign extent that arrives out of epoch order, an engine kill
//! and a delayed map push. Payloads are `stamped` by (byte offset, write),
//! so a misplaced or stale slice cannot pass, and a wrong one is blamed on
//! the write it came from.
//!
//! Alongside the property, the unit suite pins each rule in isolation:
//! write-update of a resident chunk (including same-call suppression),
//! map-revision change, a write to another record leaving an entry alone,
//! a writer the lane never sees invalidating it, the degraded-read fill
//! bypass, and the DRAM carve balancing across enable/disable cycles.

use bytes::Bytes;
use proptest::prelude::*;
use ros2_daos::{
    AKey, Arrival, ClientOp, DKey, EngineCluster, Epoch, FetchOp, ObjClass, ObjectClient, ObjectId,
    RetryPolicy, UpdateOp, ValueKind,
};
use ros2_dpu::{DpuCacheStats, DpuClient, DpuTenantSpec};
use ros2_fabric::Fabric;
use ros2_sim::{SimDuration, SimTime};
use ros2_testkit::{array_key, instant, serial_op, stamped, world, Oracle, World, CONT};

const ENGINES: usize = 4;
const KEYS: u64 = 6;
const LEN: usize = 8 << 10;
const HOT: u64 = 11;
/// Offsets and lengths on the property's grid are multiples of this.
const CELL: u64 = 2 << 10;
/// Cells per dkey on the grid (so a dkey spans [`LEN`] bytes).
const CELLS: u64 = LEN as u64 / CELL;
/// Dkeys the property's tape addresses: few, so ranges are re-read.
const GRID_KEYS: u64 = 3;
/// The retry budget: the ladder must always outlast a delayed map push,
/// or an op would fail and break the oracle's rule 1.
const BUDGET: u32 = 10;
/// The write sequence number the foreign extent's bytes are stamped with.
const FOREIGN: u64 = u64::MAX;

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

// ----------------------------------------------------------- property ----

/// One op on the `(dkey, offset)` grid: `cells` cells starting at cell
/// `cell` of dkey `key` (clipped to the dkey's end).
#[derive(Copy, Clone, Debug)]
struct GridOp {
    write: bool,
    key: u64,
    cell: u64,
    cells: u64,
}

impl GridOp {
    fn offset(&self) -> u64 {
        self.cell * CELL
    }
    fn len(&self) -> u64 {
        self.cells.min(CELLS - self.cell) * CELL
    }

    /// This op as the client submits it; a write carries write `seq`'s
    /// stamped bytes.
    fn client_op(&self, seq: u64) -> ClientOp {
        let (key, offset, len) = (array_key(oid(), self.key), self.offset(), self.len());
        let kind = ValueKind::Array { offset };
        match self.write {
            true => ClientOp::Update(UpdateOp {
                key,
                kind,
                data: stamped(oid(), offset, seq, len as usize),
            }),
            false => ClientOp::Fetch(FetchOp {
                key,
                kind,
                epoch: Epoch::LATEST,
                len,
            }),
        }
    }
}

/// One randomly drawn coherence schedule: a flat op tape chunked into
/// pipelined queues of depth `qd`, each submitted by the job `lanes` names
/// for it, with at most one mid-tape kill — rebuilt `rebuild_after` chunks
/// later — whose map pushes arrive `map_delay` late, and one foreign
/// extent injected before `foreign`'s chunk.
#[derive(Clone, Debug)]
struct Schedule {
    qd: usize,
    capacity: u64,
    tape: Vec<GridOp>,
    /// Bit `i % 32`: which job (tenant lane) submits chunk `i`.
    lanes: u32,
    kill_chunk: Option<usize>,
    kill_leader: bool,
    rebuild_after: usize,
    map_delay: SimDuration,
    /// `(chunk, dkey)`: before that chunk, an extent covering the whole
    /// dkey arrives at every replica straight through `engine_mut`, tagged
    /// with an epoch *below* everything the tape has written.
    foreign: (usize, u64),
}

fn schedules() -> impl Strategy<Value = Schedule> {
    (
        (1usize..9, any::<u32>()),
        // Per lane: small enough that eviction pressure is real (entries
        // are 2–8 KiB), large enough that hits happen.
        prop_oneof![Just(32u64 << 10), Just(128 << 10), Just(2 << 20)],
        // (type, dkey, first cell, cells): 0–2 writes of one to four
        // cells, 3 repeats the previous op (a duplicated write, or a
        // re-read), the rest read one or two cells.
        prop::collection::vec(
            (0u8..10, 0u64..GRID_KEYS, 0u64..CELLS, 1u64..CELLS + 1),
            24..96,
        ),
        // 0..8 = kill before that chunk, rebuilt up to three chunks
        // later; 8.. = no kill on this schedule.
        (0usize..14, any::<bool>(), 0usize..4, 0u64..2_000),
        (0usize..8, 0u64..GRID_KEYS),
    )
        .prop_map(|((qd, lanes), capacity, codes, kill, foreign)| {
            let mut tape: Vec<GridOp> = Vec::new();
            for (code, key, cell, cells) in codes {
                let write = code < 3;
                let op = match (code, tape.last()) {
                    (3, Some(&prev)) => prev,
                    _ => GridOp {
                        write,
                        key,
                        cell,
                        cells: if write { cells } else { 1 + cells % 2 },
                    },
                };
                tape.push(op);
            }
            let (kill_chunk, kill_leader, rebuild_after, delay_us) = kill;
            Schedule {
                qd,
                capacity,
                tape,
                lanes,
                kill_chunk: (kill_chunk < 8).then_some(kill_chunk),
                kill_leader,
                rebuild_after,
                map_delay: SimDuration::from_micros(delay_us),
                foreign,
            }
        })
}

/// Everything one run produces that the replay assertion compares: the
/// bytes are the oracle's to check, inside the run.
#[derive(Clone, Debug, PartialEq)]
struct RunOut {
    /// Completion instants of every tape op (compared only for replay,
    /// not across worlds — hits legitimately complete earlier than misses).
    times: Vec<SimTime>,
    stats: DpuCacheStats,
    ops: u64,
}

/// Runs `s` in a fresh world, cached or not, settling every op with the
/// oracle and checking the world against it after the tape.
fn run(s: &Schedule, cached: bool) -> RunOut {
    let (mut f, mut cl, mut c) = offloaded(cached.then_some(2 * s.capacity));
    let mut o = Oracle::new(BUDGET);
    // Only the first half of every dkey is seeded, write `k` to dkey `k`:
    // the rest reads as holes until the tape (or the foreign extent)
    // writes it.
    let mut t = SimTime::ZERO;
    for k in 0..GRID_KEYS {
        let half = GridOp {
            write: true,
            key: k,
            cell: 0,
            cells: CELLS / 2,
        };
        t = instant(&o.serial(&mut c, &mut f, &mut cl, t, half.client_op(k))).unwrap();
    }
    let set = cl.map().route(&oid()).set;
    let victim = if s.kill_leader {
        set.leader().unwrap()
    } else {
        set.iter().nth(1).unwrap()
    };

    let mut now = t + SimDuration::from_millis(1);
    let mut seq = GRID_KEYS;
    let mut times = Vec::new();
    for (ci, chunk) in s.tape.chunks(s.qd.max(1)).enumerate() {
        if s.kill_chunk == Some(ci) {
            cl.kill_engine(victim).unwrap();
            c.deliver_map(now + s.map_delay, cl.map().clone());
        }
        if s.kill_chunk.map(|k| k + s.rebuild_after) == Some(ci) {
            now = cl.rebuild(&mut f, now).unwrap();
            c.deliver_map(now + s.map_delay, cl.map().clone());
        }
        if s.foreign.0 == ci {
            // Epoch 1 is the first seed write's: this extent shadows seed
            // bytes and holes of its dkey only where no tape write landed,
            // so the record's newest epoch does not move — its arrival
            // version does.
            let data = stamped(oid(), 0, FOREIGN, LEN);
            let stamp = cl.map().version();
            for eng in cl.map().route(&oid()).set.iter() {
                let dkey = DKey::from_u64(s.foreign.1);
                cl.engine_mut(eng)
                    .update(
                        Arrival { stamp, at: now },
                        CONT,
                        oid(),
                        dkey,
                        akey(),
                        kind(),
                        Epoch(1),
                        data.clone(),
                    )
                    .unwrap();
            }
            o.foreign(array_key(oid(), s.foreign.1), Epoch(1), 0, data);
        }
        let ops: Vec<ClientOp> = chunk
            .iter()
            .map(|op| {
                seq += op.write as u64;
                op.client_op(seq)
            })
            .collect();
        let job = (s.lanes >> (ci % 32)) as usize & 1;
        let results = c.execute_pipelined(&mut f, &mut cl, now, job, ops.clone());
        o.settle_all(&ops, &results);
        for at in results.iter().filter_map(instant) {
            now = now.max(at);
            times.push(at);
        }
        // Capacity invariant: the byte budget binds after every queue.
        let (resident, capacity) = c.cache_usage();
        assert!(
            resident <= capacity,
            "resident {resident} B exceeds the {capacity} B carve after chunk {ci}"
        );
        now += SimDuration::from_micros(10);
    }

    // The warm cache, then the engines alone once it is torn down: both
    // read back as the history holds.
    o.check_world(&mut c, &mut f, &mut cl, now);
    let stats = c.cache_stats();
    let ops = c.ops();
    c.disable_read_cache();
    o.check_world(&mut c, &mut f, &mut cl, now);
    RunOut { times, stats, ops }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The theorem, on random schedules: in the cached world and in the
    /// uncached one every fetch, and every read-back after the schedule,
    /// returns what the history of writes holds; the uncached world books
    /// no cache counter; and the cached run replays bit-identically.
    #[test]
    fn cached_fetches_never_diverge_from_authority(sched in schedules()) {
        let cached = run(&sched, true);
        let plain = run(&sched, false);

        // The uncached world's cache counters must be all-zero — the off
        // path books nothing.
        prop_assert_eq!(plain.stats, DpuCacheStats::default());

        // Bit-identical replay, counters and instants included.
        let again = run(&sched, true);
        prop_assert_eq!(&cached, &again, "cached replay diverged");
    }
}

/// The generator must actually reach what the property is about: across
/// its schedules the cache hits, write-updates resident chunks, drops
/// partly covered ones and evicts.
#[test]
fn schedules_exercise_every_cache_rule() {
    let mut rng = proptest::TestRng::from_seed(5);
    let mut total = DpuCacheStats::default();
    for _ in 0..24 {
        total.merge(run(&schedules().new_value(&mut rng), true).stats);
    }
    assert!(total.hits > 100, "{total:?}");
    assert!(total.write_updates > 20, "{total:?}");
    assert!(total.invalidations > 20, "{total:?}");
    assert!(total.evictions > 0, "{total:?}");
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
