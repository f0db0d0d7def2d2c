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
use ros2_daos::{
    AKey, ClientOp, ClientOpResult, ConnectSpec, DKey, DaosClient, DaosCostModel, DaosEngine,
    DaosError, EngineCluster, Epoch, FetchOp, ObjClass, ObjectClient, ObjectId, OpRing, RecordKey,
    RetryStats, UpdateOp, ValueKind,
};
use ros2_fabric::{Fabric, NodeSpec};
use ros2_hw::{gbps, CoreClass, CpuComplement, NicModel, NvmeModel, Transport};
use ros2_nvme::{DataMode, NvmeArray};
use ros2_sim::{SimDuration, SimTime};
use ros2_spdk::BdevLayer;
use ros2_verbs::{Expiry, MemoryDomain, NodeId};

mod common;
use common::serial_op;

fn engine(ssds: usize) -> DaosEngine {
    let bdevs = BdevLayer::new(NvmeArray::new(
        NvmeModel::enterprise_1600(),
        ssds,
        DataMode::Stored,
    ));
    let mut e = DaosEngine::new(
        "pool0",
        bdevs,
        256 << 20,
        DaosCostModel::default_model(),
        CoreClass::HostX86,
    );
    e.cont_create("cont0").unwrap();
    e
}

fn node(name: &str, cores: usize) -> NodeSpec {
    NodeSpec {
        name: name.into(),
        cpu: CpuComplement {
            class: CoreClass::HostX86,
            cores,
        },
        nic: NicModel::connectx6(),
        port_rate: gbps(100),
        mem_budget: 8 << 30,
        dpu_tcp_rx: None,
    }
}

fn world(engines: usize, rf: usize) -> (Fabric, EngineCluster, DaosClient) {
    let mut specs = vec![node("client", 48)];
    let mut servers = Vec::new();
    for i in 0..engines {
        specs.push(node(&format!("storage{i}"), 64));
        servers.push(NodeId(1 + i as u32));
    }
    let mut fabric = Fabric::new(Transport::Rdma, specs, 23);
    let cluster = EngineCluster::new(
        (0..engines).map(|_| engine(4)).collect(),
        servers.clone(),
        rf,
    );
    let client = DaosClient::connect_scoped_multi(
        &mut fabric,
        &ConnectSpec {
            node: NodeId(0),
            servers: servers.to_vec(),
            cont: "cont0".into(),
            jobs: 1,
            buf_len: 4 << 20,
            domain: MemoryDomain::HostDram,
            model: DaosCostModel::default_model(),
        },
        "tenant",
        Expiry::Never,
    )
    .unwrap();
    (fabric, cluster, client)
}

fn fetch_op(oid: ObjectId, i: u64) -> ClientOp {
    ClientOp::Fetch(FetchOp {
        key: RecordKey {
            oid,
            dkey: DKey::from_u64(i),
            akey: AKey::from_str("data"),
        },
        kind: ValueKind::Array { offset: 0 },
        epoch: Epoch::LATEST,
        len: 16 << 10,
    })
}

/// Writes `n` distinct extents of `oid` serially and returns the average
/// per-op latency of the preamble (the "op latency" the RAS-delay gate is
/// measured in).
fn preamble(
    f: &mut Fabric,
    cl: &mut EngineCluster,
    c: &mut DaosClient,
    oid: ObjectId,
    n: u64,
) -> SimDuration {
    let mut t = SimTime::ZERO;
    for i in 0..n {
        t = c
            .update(
                f,
                cl,
                t,
                0,
                oid,
                DKey::from_u64(i),
                AKey::from_str("data"),
                ValueKind::Array { offset: 0 },
                Bytes::from(vec![i as u8 + 1; 16 << 10]),
            )
            .unwrap();
    }
    SimDuration::from_nanos(t.as_nanos() / n)
}

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
    let (mut f, mut cl, mut c) = world(4, 2);
    let oid = ObjectId::new(ObjClass::Sx, 5);
    let n = 32u64;
    let op_latency = preamble(&mut f, &mut cl, &mut c, oid, n);

    // The victim is the non-leader replica: stale-routed fetches then hit
    // the surviving leader, which holds the *new* map and fences them.
    let set = cl.map().route(&oid).set;
    let victim = set.iter().nth(1).expect("RF=2 yields a second replica");

    let t0 = SimTime::from_millis(10);
    let mut ring = OpRing::new(0, 32);
    let mut serial_results = Vec::new();
    // The same tape either way: the ring, or one serial call per op.
    let mut issue = |c: &mut DaosClient, f: &mut Fabric, cl: &mut EngineCluster, i: u64| {
        let op = fetch_op(oid, i % n);
        match serial_calls {
            true => serial_results.push(serial_op(c, f, cl, t0, op)),
            false => ring.submit(c, f, cl, t0, op),
        }
    };
    for i in 0..16u64 {
        issue(&mut c, &mut f, &mut cl, i);
    }
    cl.kill_engine(victim).unwrap();
    // RAS delivery lands 20 op-latencies after the kill — the whole ring
    // drains against the stale cached revision.
    let ras_at = t0 + op_latency.saturating_mul(20);
    c.deliver_map(ras_at, cl.map().clone());
    for i in 16..32u64 {
        issue(&mut c, &mut f, &mut cl, i);
    }
    let results = match serial_calls {
        true => serial_results,
        false => ring.drain(&mut c, &mut f, &mut cl),
    };

    let mut out = Vec::new();
    for (i, r) in results.into_iter().enumerate() {
        let (b, at) = match r {
            ClientOpResult::Fetch(Ok(ok)) => ok,
            other => panic!("op {i} failed under the kill: {other:?}"),
        };
        assert!(
            b.iter().all(|&x| x == (i as u64 % n) as u8 + 1),
            "fetch {i} returned wrong bytes"
        );
        // "No op hangs": every completion clears the deadline ladder's
        // worst case (budget × (deadline + refresh + backoff cap)) with
        // slack, rather than drifting unboundedly.
        assert!(
            at < t0 + SimDuration::from_millis(100),
            "op {i} overran the ladder bound: {at}"
        );
        out.push((Some(b), at));
    }
    (
        out,
        cl.fences(),
        c.retry_stats(),
        c.first_successful_retry(),
    )
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
    let (mut f, mut cl, mut c) = world(4, 2);
    let oid = ObjectId::new(ObjClass::Sx, 5);
    let n = 16u64;
    preamble(&mut f, &mut cl, &mut c, oid, n);
    let victim = cl.map().route(&oid).set.leader().expect("healthy leader");

    let t0 = SimTime::from_millis(10);
    let mut ring = OpRing::new(0, 16);
    for i in 0..8u64 {
        ring.submit(&mut c, &mut f, &mut cl, t0, fetch_op(oid, i));
    }
    cl.kill_engine(victim).unwrap();
    // RAS delivery never lands during the run: recovery is ladder-only.
    c.deliver_map(SimTime::from_secs(60), cl.map().clone());
    for i in 8..n {
        ring.submit(&mut c, &mut f, &mut cl, t0, fetch_op(oid, i));
    }
    for (i, r) in ring.drain(&mut c, &mut f, &mut cl).into_iter().enumerate() {
        let (b, _) = r
            .into_fetch()
            .unwrap_or_else(|e| panic!("fetch {i} failed: {e:?}"));
        assert!(b.iter().all(|&x| x == i as u8 + 1));
    }
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
    let (mut f, mut cl, mut c) = world(2, 1);
    let oid = ObjectId::new(ObjClass::Sx, 7);
    preamble(&mut f, &mut cl, &mut c, oid, 4);
    let target = cl.map().route(&oid).set.leader().unwrap();

    let mut ring = OpRing::new(0, 4);
    let t0 = SimTime::from_millis(10);
    // Bootstrap the cache before the hole opens (connection loss is not
    // a map event — no RAS, no new revision).
    ring.submit(&mut c, &mut f, &mut cl, t0, fetch_op(oid, 0));
    cl.set_blackhole(target, true);
    for i in 1..4u64 {
        ring.submit(&mut c, &mut f, &mut cl, t0, fetch_op(oid, i));
    }
    let results = ring.drain(&mut c, &mut f, &mut cl);
    let budget = c.retry_policy().budget;
    let mut failed = 0u64;
    for r in results {
        match r {
            ClientOpResult::Fetch(Ok(_)) => {}
            ClientOpResult::Fetch(Err(DaosError::RetryExhausted { attempts })) => {
                assert_eq!(attempts, budget + 1, "the first try and every rung");
                failed += 1;
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
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
    ring.submit(
        &mut c,
        &mut f,
        &mut cl,
        SimTime::from_millis(50),
        fetch_op(oid, 1),
    );
    for r in ring.drain(&mut c, &mut f, &mut cl) {
        r.into_fetch().expect("healed path must serve");
    }
}

#[test]
fn stale_updates_fence_then_commit_on_the_current_map() {
    // Updates racing the map: kill the non-leader mid-ring. Stale-stamped
    // update legs at survivors are fenced, refresh, and re-stage wherever
    // the *current* map still places them; the leg at the dead engine is
    // dropped and the survivors carry the commit. Every ack must then be
    // durable under a serial read-back.
    let (mut f, mut cl, mut c) = world(4, 2);
    let oid = ObjectId::new(ObjClass::Sx, 5);
    preamble(&mut f, &mut cl, &mut c, oid, 4);
    let victim = cl.map().route(&oid).set.iter().nth(1).unwrap();

    let t0 = SimTime::from_millis(10);
    let n = 16u64;
    let upd = |i: u64| {
        ClientOp::Update(UpdateOp {
            key: RecordKey {
                oid,
                dkey: DKey::from_u64(100 + i),
                akey: AKey::from_str("data"),
            },
            kind: ValueKind::Array { offset: 0 },
            data: Bytes::from(vec![i as u8 + 1; 8 << 10]),
        })
    };
    let mut ring = OpRing::new(0, 16);
    for i in 0..6u64 {
        ring.submit(&mut c, &mut f, &mut cl, t0, upd(i));
    }
    cl.kill_engine(victim).unwrap();
    c.deliver_map(SimTime::from_secs(60), cl.map().clone());
    for i in 6..n {
        ring.submit(&mut c, &mut f, &mut cl, t0, upd(i));
    }
    let mut done = SimTime::ZERO;
    for (i, r) in ring.drain(&mut c, &mut f, &mut cl).into_iter().enumerate() {
        let at = r
            .into_update()
            .unwrap_or_else(|e| panic!("update {i} failed: {e:?}"));
        done = done.max(at);
    }
    assert!(cl.fences() >= 1, "stale update legs must be fenced");
    assert_eq!(c.retry_stats().exhausted, 0);
    // Acked-means-durable: every update reads back from the new map.
    for i in 0..n {
        let (b, _) = c
            .fetch(
                &mut f,
                &mut cl,
                done,
                0,
                oid,
                DKey::from_u64(100 + i),
                AKey::from_str("data"),
                ValueKind::Array { offset: 0 },
                Epoch::LATEST,
                8 << 10,
            )
            .unwrap_or_else(|e| panic!("acked update {i} lost: {e:?}"));
        assert!(b.iter().all(|&x| x == i as u8 + 1));
    }
}

#[test]
fn delayed_ras_delivery_applies_only_when_due_and_query_beats_it() {
    let (mut f, mut cl, mut c) = world(3, 2);
    let oid = ObjectId::new(ObjClass::Sx, 1);
    preamble(&mut f, &mut cl, &mut c, oid, 2);

    // Bootstrap the cache via a pipelined op.
    let mut ring = OpRing::new(0, 1);
    ring.submit(&mut c, &mut f, &mut cl, SimTime::ZERO, fetch_op(oid, 0));
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
    ring.submit(&mut c, &mut f, &mut cl, t1, fetch_op(oid, 0));
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
        fetch_op(oid, 0),
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
