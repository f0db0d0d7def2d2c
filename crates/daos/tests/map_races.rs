//! Map races end to end: the pipelined client keeps its own cached pool
//! map (refreshed only by an explicit query or an asynchronously
//! *delivered* RAS event), engines fence requests stamped with a stale
//! revision, and the `OpRing` recovery ladder — deadline, classify,
//! refresh, re-resolve, backoff — turns every race into a bounded retry
//! instead of a wrong answer or a hang.
//!
//! The headline scenario (the PR's acceptance gate): a mid-flight engine
//! kill under QD ≥ 16 with RAS delivery delayed past ten op-latencies
//! completes with zero failed ops, at least one observed `StaleMap`
//! fence, and bit-identical replay.

use bytes::Bytes;
use ros2_daos::{ClientOp, DaosClient, EngineCluster, ObjClass, ObjectId, OpRing, RetryStats};
use ros2_fabric::Fabric;
use ros2_sim::{SimDuration, SimTime};
use ros2_testkit::{instant, read, serial_op, world, write, Oracle};

/// The acceptance scenario. A fetch ring at QD 32 over an RF=2 object;
/// the *non-leader* replica dies between submissions, and the RAS event
/// reaches the client only 20 op-latencies later — far beyond the run.
/// Every fetch the stale cache routes at the (live) leader carries the
/// old revision stamp, so the engine fences it and the ladder recovers
/// via an authoritative refresh. Returns everything observable for the
/// replay-identity assertion.
#[allow(clippy::type_complexity)]
fn kill_under_qd32(
    serial_calls: bool,
) -> (
    Vec<(Option<Bytes>, SimTime)>,
    u64,
    RetryStats,
    Option<SimTime>,
) {
    let (mut f, mut cl, mut c) = world(4, 2).build();
    let mut o = Oracle::new(c.retry_policy().budget);
    let oid = ObjectId::new(ObjClass::Sx, 5);
    let n = 32u64;
    // The "op latency" the RAS delay is measured in.
    let op_latency =
        SimDuration::from_nanos(o.preamble(&mut c, &mut f, &mut cl, oid, n).as_nanos() / n);

    // The victim is the non-leader replica: stale-routed fetches then hit
    // the surviving leader, which holds the *new* map and fences them.
    let set = cl.map().route(&oid).set;
    let victim = set.iter().nth(1).expect("RF=2 yields a second replica");

    let t0 = SimTime::from_millis(10);
    let tape: Vec<ClientOp> = (0..32u64).map(|i| read(oid, i % n, 16 << 10)).collect();
    let mut ring = OpRing::new(0, 32);
    let mut serial_results = Vec::new();
    // The same tape either way: the ring, or one serial call per op.
    let mut issue = |c: &mut DaosClient, f: &mut Fabric, cl: &mut EngineCluster, op: &ClientOp| {
        match serial_calls {
            true => serial_results.push(serial_op(c, f, cl, t0, op.clone())),
            false => ring.submit(c, f, cl, t0, op.clone()),
        }
    };
    for op in &tape[..16] {
        issue(&mut c, &mut f, &mut cl, op);
    }
    cl.kill_engine(victim).unwrap();
    // RAS delivery lands 20 op-latencies after the kill — the whole ring
    // drains against the stale cached revision.
    let ras_at = t0 + op_latency.saturating_mul(20);
    c.deliver_map(ras_at, cl.map().clone());
    for op in &tape[16..] {
        issue(&mut c, &mut f, &mut cl, op);
    }
    let results = match serial_calls {
        true => serial_results,
        false => ring.drain(&mut c, &mut f, &mut cl),
    };
    o.settle_all(&tape, &results);

    let out: Vec<(Option<Bytes>, SimTime)> = results
        .into_iter()
        .map(|r| r.into_fetch().map(|(b, at)| (Some(b), at)).unwrap())
        .collect();
    // "No op hangs": every completion clears the deadline ladder's worst
    // case (budget × (deadline + refresh + backoff cap)) with slack,
    // rather than drifting unboundedly.
    for (i, &(_, at)) in out.iter().enumerate() {
        assert!(
            at < t0 + SimDuration::from_millis(100),
            "op {i} overran the ladder bound: {at}"
        );
    }
    let (fences, retry, first) = (cl.fences(), c.retry_stats(), c.first_successful_retry());
    o.check_world(&mut c, &mut f, &mut cl, SimTime::from_secs(1));
    (out, fences, retry, first)
}

#[test]
fn kill_under_qd32_fences_recovers_and_replays_identically() {
    let (results, fences, retry, first_retry) = kill_under_qd32(false);
    assert_eq!(results.len(), 32, "no op may hang or vanish");
    assert!(fences >= 1, "a stale-stamped fetch must be fenced");
    assert!(retry.fenced >= 1, "the client must classify the fence");
    assert!(retry.retries >= 1, "fenced legs must re-stage");
    assert!(retry.map_refreshes >= 1, "the ladder must refresh the map");
    assert_eq!(retry.exhausted, 0, "no op may burn its whole budget");
    assert!(
        retry.retries <= 32 * 3,
        "retries stay within budget x depth: {retry:?}"
    );
    let t = first_retry.expect("a retry must eventually succeed");
    assert!(t > SimTime::ZERO, "time-to-first-successful-retry recorded");

    // Bit-identical replay: instants, payloads, fences, and every ladder
    // counter — twice more.
    let again = kill_under_qd32(false);
    assert_eq!(
        (results, fences, retry, first_retry),
        again,
        "chaos schedule must replay bit-identically"
    );
}

#[test]
fn forced_serial_replay_of_the_chaos_schedule_is_deterministic() {
    // The same schedule as serial calls: still zero failures, still
    // bit-identical run-to-run (the serial call routes by the live map,
    // so it sees no fences — determinism is the claim).
    let a = kill_under_qd32(true);
    assert_eq!(a.0.len(), 32);
    let b = kill_under_qd32(true);
    assert_eq!(a, b, "serial-call chaos replay must be bit-identical");
}

#[test]
fn dead_leader_times_out_and_fails_over_to_the_survivor() {
    // Killing the *leader* exercises the other classifier arm: the stale
    // cache routes fetches at a dead engine, which answers nothing — only
    // the per-leg deadline detects it, then the refreshed route lands on
    // the survivor.
    let (mut f, mut cl, mut c) = world(4, 2).build();
    let mut o = Oracle::new(c.retry_policy().budget);
    let oid = ObjectId::new(ObjClass::Sx, 5);
    let n = 16u64;
    o.preamble(&mut c, &mut f, &mut cl, oid, n);
    let victim = cl.map().route(&oid).set.leader().expect("healthy leader");

    let t0 = SimTime::from_millis(10);
    let tape: Vec<ClientOp> = (0..n).map(|i| read(oid, i, 16 << 10)).collect();
    let mut ring = OpRing::new(0, 16);
    for op in &tape[..8] {
        ring.submit(&mut c, &mut f, &mut cl, t0, op.clone());
    }
    cl.kill_engine(victim).unwrap();
    // RAS delivery never lands during the run: recovery is ladder-only.
    c.deliver_map(SimTime::from_secs(60), cl.map().clone());
    for op in &tape[8..] {
        ring.submit(&mut c, &mut f, &mut cl, t0, op.clone());
    }
    o.settle_all(&tape, &ring.drain(&mut c, &mut f, &mut cl));
    let retry = c.retry_stats();
    assert!(retry.timeouts >= 1, "dead-leader legs must time out");
    assert!(retry.retries >= 1);
    assert_eq!(retry.exhausted, 0);
    assert!(
        c.first_successful_retry().is_some(),
        "failover must complete a retried op"
    );
}

#[test]
fn blackholed_engine_exhausts_the_budget_and_fails_cleanly() {
    // RF=1 with the only replica black-holed: the map never changes, so
    // every refresh re-resolves to the same dead-air connection. The
    // ladder must burn its bounded budget and surface a typed error —
    // never hang, never succeed by accident.
    let (mut f, mut cl, mut c) = world(2, 1).build();
    let budget = c.retry_policy().budget;
    let mut o = Oracle::lossy(budget);
    let oid = ObjectId::new(ObjClass::Sx, 7);
    o.preamble(&mut c, &mut f, &mut cl, oid, 4);
    let target = cl.map().route(&oid).set.leader().unwrap();

    let tape: Vec<ClientOp> = (0..4u64).map(|i| read(oid, i, 16 << 10)).collect();
    let mut ring = OpRing::new(0, 4);
    let t0 = SimTime::from_millis(10);
    // Bootstrap the cache before the hole opens (connection loss is not
    // a map event — no RAS, no new revision).
    ring.submit(&mut c, &mut f, &mut cl, t0, tape[0].clone());
    cl.set_blackhole(target, true);
    for op in &tape[1..] {
        ring.submit(&mut c, &mut f, &mut cl, t0, op.clone());
    }
    // Every failure must be a spent budget: the first try and every rung.
    o.settle_all(&tape, &ring.drain(&mut c, &mut f, &mut cl));
    let failed = o.failed;
    assert!(failed >= 1, "black-holed fetches must fail");
    let retry = c.retry_stats();
    assert_eq!(retry.exhausted, failed, "every failure is a spent budget");
    assert!(
        retry.timeouts >= failed * (budget as u64 + 1),
        "each attempt burned a deadline: {retry:?}"
    );
    // The hole heals: the same fetch now succeeds (the client object is
    // still fully usable after clean failures).
    cl.set_blackhole(target, false);
    let mut ring = OpRing::new(0, 1);
    let t = SimTime::from_millis(50);
    ring.submit(&mut c, &mut f, &mut cl, t, tape[1].clone());
    o.settle_all(&tape[1..2], &ring.drain(&mut c, &mut f, &mut cl));
    assert_eq!(o.failed, failed, "healed path must serve");
}

#[test]
fn stale_updates_fence_then_commit_on_the_current_map() {
    // Updates racing the map: kill the non-leader mid-ring. Stale-stamped
    // update legs at survivors are fenced, refresh, and re-stage wherever
    // the *current* map still places them; the leg at the dead engine is
    // dropped and the survivors carry the commit. Every ack must then be
    // durable under a serial read-back.
    let (mut f, mut cl, mut c) = world(4, 2).build();
    let mut o = Oracle::new(c.retry_policy().budget);
    let oid = ObjectId::new(ObjClass::Sx, 5);
    o.preamble(&mut c, &mut f, &mut cl, oid, 4);
    let victim = cl.map().route(&oid).set.iter().nth(1).unwrap();

    let t0 = SimTime::from_millis(10);
    let tape: Vec<ClientOp> = (0..16u64)
        .map(|i| write(oid, 100 + i, 8 << 10, 100 + i))
        .collect();
    let mut ring = OpRing::new(0, 16);
    for op in &tape[..6] {
        ring.submit(&mut c, &mut f, &mut cl, t0, op.clone());
    }
    cl.kill_engine(victim).unwrap();
    c.deliver_map(SimTime::from_secs(60), cl.map().clone());
    for op in &tape[6..] {
        ring.submit(&mut c, &mut f, &mut cl, t0, op.clone());
    }
    let results = ring.drain(&mut c, &mut f, &mut cl);
    o.settle_all(&tape, &results);
    assert!(cl.fences() >= 1, "stale update legs must be fenced");
    assert_eq!(c.retry_stats().exhausted, 0);
    // Acked-means-durable: every update reads back from the new map.
    let done = results.iter().filter_map(instant).max().unwrap();
    o.check_world(&mut c, &mut f, &mut cl, done);
}

#[test]
fn updates_a_stale_client_retries_reach_the_member_rebuild_added() {
    // A replica dies and is rebuilt before the client hears of either:
    // the ring stages each update to the pre-kill set, the leg at the
    // dead engine drops, the survivor fences its leg, and the refreshed
    // route holds the member the rebuild backfilled. Every ack must land
    // there as well as on the survivor (rule 3), not on the survivor
    // alone.
    let (mut f, mut cl, mut c) = world(4, 2).build();
    let mut o = Oracle::new(c.retry_policy().budget);
    let oid = ObjectId::new(ObjClass::Sx, 5);
    let t = o.preamble(&mut c, &mut f, &mut cl, oid, 4);
    // Bootstrap the client's cached map before the kill.
    let mut ring = OpRing::new(0, 1);
    ring.submit(&mut c, &mut f, &mut cl, t, read(oid, 0, 16 << 10));
    o.settle_all(
        &[read(oid, 0, 16 << 10)],
        &ring.drain(&mut c, &mut f, &mut cl),
    );
    let pre = cl.map().route(&oid).set;
    cl.kill_engine(pre.iter().nth(1).unwrap()).unwrap();
    let t0 = cl.rebuild(&mut f, t).unwrap();
    c.deliver_map(SimTime::from_secs(60), cl.map().clone());
    let joined = cl.map().route(&oid).set;
    assert!(
        joined.iter().any(|eng| !pre.contains(eng)),
        "rebuild backfilled"
    );

    let tape: Vec<ClientOp> = (100..104).map(|i| write(oid, i, 8 << 10, i)).collect();
    let mut ring = OpRing::new(0, 4);
    for op in &tape {
        ring.submit(&mut c, &mut f, &mut cl, t0, op.clone());
    }
    let results = ring.drain(&mut c, &mut f, &mut cl);
    o.settle_all(&tape, &results);
    assert!(c.retry_stats().fenced >= 1, "the stale legs were fenced");
    let done = results.iter().filter_map(instant).max().unwrap();
    o.check_world(&mut c, &mut f, &mut cl, done);
}

#[test]
fn delayed_ras_delivery_applies_only_when_due_and_query_beats_it() {
    let (mut f, mut cl, mut c) = world(3, 2).build();
    let oid = ObjectId::new(ObjClass::Sx, 1);
    Oracle::new(0).preamble(&mut c, &mut f, &mut cl, oid, 2);

    // Bootstrap the cache via a pipelined op.
    let mut ring = OpRing::new(0, 1);
    ring.submit(
        &mut c,
        &mut f,
        &mut cl,
        SimTime::ZERO,
        read(oid, 0, 16 << 10),
    );
    ring.drain(&mut c, &mut f, &mut cl);
    assert_eq!(c.cache_version(), Some(1));

    let victim = cl.map().route(&oid).set.iter().nth(1).unwrap();
    cl.kill_engine(victim).unwrap();
    c.deliver_map(SimTime::from_millis(5), cl.map().clone());

    // An op *before* the delivery is due goes out stamped with the old
    // revision — proof the pending delivery did not apply early — gets
    // fenced, and it is the recovery ladder (not the delivery) that
    // refreshes the cache.
    let mut ring = OpRing::new(0, 1);
    let t1 = SimTime::from_millis(1);
    ring.submit(&mut c, &mut f, &mut cl, t1, read(oid, 0, 16 << 10));
    ring.drain(&mut c, &mut f, &mut cl);
    assert_eq!(cl.fences(), 1, "stale stamp proves the cache lagged");
    assert_eq!(c.retry_stats().map_refreshes, 1, "the ladder refreshed");
    assert_eq!(c.cache_version(), Some(2));

    // Rebuild bumps the revision again; a delivery that IS due by the
    // next op applies at the poll, so the op goes out current — no new
    // fence, no ladder refresh.
    cl.rebuild(&mut f, SimTime::from_millis(6)).unwrap();
    c.deliver_map(SimTime::from_millis(8), cl.map().clone());
    let mut ring = OpRing::new(0, 1);
    ring.submit(
        &mut c,
        &mut f,
        &mut cl,
        SimTime::from_millis(10),
        read(oid, 0, 16 << 10),
    );
    ring.drain(&mut c, &mut f, &mut cl);
    assert_eq!(cl.fences(), 1, "a due delivery pre-empts the fence");
    assert_eq!(c.retry_stats().map_refreshes, 1);
    assert_eq!(c.cache_version(), Some(cl.map().version()));

    // A MapQuery-style sync is authoritative immediately and cancels any
    // pending (older-or-equal) delivery.
    c.deliver_map(SimTime::from_secs(60), cl.map().clone());
    c.sync_map(cl.map().clone());
    assert_eq!(c.cache_version(), Some(cl.map().version()));
}
