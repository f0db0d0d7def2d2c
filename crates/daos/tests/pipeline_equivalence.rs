//! Ring-vs-serial client equivalence, held to the history oracle:
//! driving randomized op streams through [`OpRing`] at QD > 1 and issuing
//! the same tape one serial call at a time must each give the oracle's
//! answer to every op (every payload, every Ok/Err, every epoch) and leave
//! a world whose every record reads back, through the client and from
//! each replica, as the oracle holds it. Two arms that agreed on a wrong
//! answer would pass an arm-against-arm check; they fail here. Every
//! engine-side counter must still match between the arms, since the
//! serial call is the reference path. Epochs are allocated at submission
//! (not execution), so reordering completions can never change what a
//! fetch observes; these tests are the teeth behind that argument. Timing
//! is exactly what the two paths are *allowed* to disagree on — the ring
//! overlaps the completion share of the client CPU — so instants are
//! compared only for determinism (same world run twice), never across
//! arms.

use bytes::Bytes;
use ros2_daos::{
    AKey, ClientOp, ClientOpResult, DKey, DaosClient, DaosError, EngineCluster, Epoch, FetchOp,
    ObjClass, ObjectId, OpRing, RecordKey, UpdateOp, ValueKind,
};
use ros2_fabric::Fabric;
use ros2_sim::{SimDuration, SimRng, SimTime, Timed};
use ros2_testkit::{instant, read, serial_op, stamped, world, write, Oracle, World};
use ros2_verbs::NodeId;

/// A randomized client-level op stream: striped and single-target
/// objects, single values and array extents, SCM- and NVMe-sized
/// payloads, LATEST and past-epoch reads. Epoch numbers for past reads
/// lean on the epoch-at-submission contract itself: an arm that allocates
/// another epoch sequence reads what the oracle does not hold.
fn plan_ops(seed: u64, steps: usize) -> Vec<(SimTime, ClientOp)> {
    let mut rng = SimRng::new(seed);
    let mut now = SimTime::ZERO;
    let mut updates_so_far = 0u64;
    (0..steps as u64)
        .map(|seq| {
            if rng.chance(0.5) {
                now += SimDuration::from_nanos(rng.below(2_000_000));
            }
            let oid = if rng.chance(0.7) {
                ObjectId::new(ObjClass::Sx, rng.below(4))
            } else {
                ObjectId::new(ObjClass::S1, 100 + rng.below(3))
            };
            let dkey = DKey::from_u64(rng.below(16));
            let single = rng.chance(0.3);
            let (akey, kind, at) = if single {
                (AKey::from_str("v"), ValueKind::Single, 0)
            } else {
                let offset = rng.below(8) * 4096;
                (AKey::from_str("data"), ValueKind::Array { offset }, offset)
            };
            let key = RecordKey { oid, dkey, akey };
            let op = if rng.chance(0.6) {
                updates_so_far += 1;
                let len = if rng.chance(0.5) {
                    1 + rng.below(4096)
                } else {
                    4097 + rng.below(96 << 10)
                };
                let data = stamped(oid, at, seq, len as usize);
                ClientOp::Update(UpdateOp { key, kind, data })
            } else {
                let epoch = if rng.chance(0.8) || updates_so_far == 0 {
                    Epoch::LATEST
                } else {
                    Epoch(1 + rng.below(updates_so_far))
                };
                let len = 1 + rng.below(64 << 10);
                ClientOp::Fetch(FetchOp {
                    key,
                    kind,
                    epoch,
                    len,
                })
            };
            (now, op)
        })
        .collect()
}

/// What a rerun must reproduce of an op: its bytes or error, and its
/// instant.
fn timed(r: &ClientOpResult) -> (Result<Option<&Bytes>, DaosError>, Option<SimTime>) {
    let outcome = match r {
        ClientOpResult::Update(r) => r.map(|_| None),
        ClientOpResult::Fetch(r) => r.as_ref().map(|(b, _)| Some(b)).map_err(|e| *e),
    };
    (outcome, instant(r))
}

/// Drives the whole plan through one ring of depth `qd` and returns the
/// per-op results in submission order.
fn run_ring(
    fabric: &mut Fabric,
    cluster: &mut EngineCluster,
    client: &mut DaosClient,
    plan: &[(SimTime, ClientOp)],
    qd: usize,
) -> Vec<ClientOpResult> {
    let mut ring = OpRing::new(0, qd);
    for (now, op) in plan {
        ring.submit(client, fabric, cluster, *now, op.clone());
    }
    ring.drain(client, fabric, cluster)
}

/// The reference: the same plan, one serial call per op.
fn run_serial(
    fabric: &mut Fabric,
    cluster: &mut EngineCluster,
    client: &mut DaosClient,
    plan: &[(SimTime, ClientOp)],
) -> Vec<ClientOpResult> {
    plan.iter()
        .map(|(now, op)| serial_op(client, fabric, cluster, *now, op.clone()))
        .collect()
}

/// Holds one arm's results to the oracle, every op of the fault-free plan
/// answered, then reads its world back (rules 1-3).
fn check_arm(
    f: &mut Fabric,
    cl: &mut EngineCluster,
    c: &mut DaosClient,
    plan: &[(SimTime, ClientOp)],
    out: &[ClientOpResult],
) {
    let mut o = Oracle::new(c.retry_policy().budget);
    o.settle_all(plan.iter().map(|(_, op)| op), out);
    o.check_world(c, f, cl, SimTime::from_secs(60));
}

/// The serial call is the reference path: both arms leave every engine
/// and the client with the same counters.
fn assert_worlds_agree(
    a: (&mut EngineCluster, &DaosClient),
    b: (&mut EngineCluster, &DaosClient),
    what: &str,
) {
    assert_eq!(a.0.len(), b.0.len());
    for slot in 0..a.0.len() {
        let (ea, eb) = (a.0.engine_mut(slot), b.0.engine_mut(slot));
        let counters = (ea.vos_stats(), ea.data_plane_stats(), ea.rpcs());
        let reference = (eb.vos_stats(), eb.data_plane_stats(), eb.rpcs());
        assert_eq!(
            counters, reference,
            "{what}: engine {slot}'s VOS, data-plane or RPC counters diverged"
        );
    }
    assert_eq!(a.1.ops(), b.1.ops(), "{what}: client op counters diverged");
}

#[test]
fn ring_equals_forced_serial_single_engine() {
    // `pooled` is the offloaded client's arrangement: both paths book
    // their CPU on one shared pool instead of the job's own core.
    for pooled in [None, Some(4)] {
        for seed in [3u64, 17, 92, 1105] {
            for qd in [1usize, 2, 4, 8] {
                let plan = plan_ops(seed, 120);

                let (mut f1, mut cl1, mut c1) = world(1, 1).build();
                let (mut f2, mut cl2, mut c2) = world(1, 1).build();
                if let Some(cores) = pooled {
                    c1.share_cores(cores);
                    c2.share_cores(cores);
                }
                let ring_out = run_ring(&mut f1, &mut cl1, &mut c1, &plan, qd);
                let serial_out = run_serial(&mut f2, &mut cl2, &mut c2, &plan);

                assert_worlds_agree(
                    (&mut cl1, &c1),
                    (&mut cl2, &c2),
                    &format!("pool {pooled:?} seed {seed} qd {qd} ring/serial"),
                );
                check_arm(&mut f1, &mut cl1, &mut c1, &plan, &ring_out);
                check_arm(&mut f2, &mut cl2, &mut c2, &plan, &serial_out);
            }
        }
    }
}

#[test]
fn ring_equals_forced_serial_rf2_fanout() {
    for seed in [3u64, 17, 92, 1105] {
        let plan = plan_ops(seed, 100);

        let (mut f1, mut cl1, mut c1) = world(3, 2).build();
        let ring_out = run_ring(&mut f1, &mut cl1, &mut c1, &plan, 6);

        let (mut f2, mut cl2, mut c2) = world(3, 2).build();
        let serial_out = run_serial(&mut f2, &mut cl2, &mut c2, &plan);

        assert_worlds_agree(
            (&mut cl1, &c1),
            (&mut cl2, &c2),
            &format!("seed {seed} RF=2"),
        );
        check_arm(&mut f1, &mut cl1, &mut c1, &plan, &ring_out);
        check_arm(&mut f2, &mut cl2, &mut c2, &plan, &serial_out);
    }
}

#[test]
fn ring_runs_are_deterministic_to_the_instant() {
    for seed in [17u64, 92] {
        let plan = plan_ops(seed, 100);
        let (mut f1, mut cl1, mut c1) = world(3, 2).build();
        let out1 = run_ring(&mut f1, &mut cl1, &mut c1, &plan, 8);
        let (mut f2, mut cl2, mut c2) = world(3, 2).build();
        let out2 = run_ring(&mut f2, &mut cl2, &mut c2, &plan, 8);
        for (i, (a, b)) in out1.iter().zip(&out2).enumerate() {
            assert_eq!(timed(a), timed(b), "seed {seed} op {i}: run-twice drift");
        }
        assert_worlds_agree(
            (&mut cl1, &c1),
            (&mut cl2, &c2),
            &format!("seed {seed} run-twice"),
        );
    }
}

#[test]
fn ring_retires_out_of_order_but_returns_in_submission_order() {
    // A big op submitted first, small ops behind it: the small ops
    // complete (and retire) before the elephant, yet the result vector
    // stays in submission order.
    let (mut f, mut cl, mut c) = world(1, 1).build();
    let oid = ObjectId::new(ObjClass::Sx, 1);
    let tape: Vec<ClientOp> = (0..6u64)
        .map(|i| write(oid, i, if i == 0 { 2 << 20 } else { 4 << 10 }, i))
        .collect();
    let mut ring = OpRing::new(0, 8);
    for op in &tape {
        ring.submit(&mut c, &mut f, &mut cl, SimTime::ZERO, op.clone());
    }
    let results = ring.drain(&mut c, &mut f, &mut cl);
    assert_eq!(results.len(), 6);
    let done: Vec<SimTime> = results.iter().map(|r| instant(r).unwrap()).collect();
    // Submission order preserved in the result vector...
    assert!(
        done[1..].iter().all(|&t| t < done[0]),
        "4 KiB ops must complete before the 2 MiB elephant: {done:?}"
    );
    // ...while the retire log shows completion order: slot 0 last.
    let log = ring.retire_log();
    assert_eq!(log.len(), 6);
    assert_eq!(*log.last().unwrap(), 0, "elephant retires last: {log:?}");
    // Read-back: every op actually landed.
    let mut o = Oracle::new(c.retry_policy().budget);
    o.settle_all(&tape, &results);
    o.check_world(&mut c, &mut f, &mut cl, *done.iter().max().unwrap());
}

#[test]
fn ring_gates_admission_at_depth() {
    // At depth 2, submitting a third op must first retire one: the ring
    // never holds more than QD ops in flight.
    let (mut f, mut cl, mut c) = world(1, 1).build();
    let oid = ObjectId::new(ObjClass::Sx, 2);
    let mut ring = OpRing::new(0, 2);
    for i in 0..5u64 {
        ring.submit(
            &mut c,
            &mut f,
            &mut cl,
            SimTime::ZERO,
            write(oid, i, 8 << 10, i),
        );
        assert!(ring.in_flight() <= 2, "depth violated at op {i}");
    }
    let results = ring.drain(&mut c, &mut f, &mut cl);
    assert_eq!(results.len(), 5);
    for r in results {
        r.into_update().unwrap();
    }
}

#[test]
fn mid_flight_engine_kill_rearms_fetch_legs() {
    // Preamble: RF=2 writes so every extent lives on two engines. Then a
    // fetch-only ring; the leader of the hot object dies *between
    // submissions*, with staged-but-unexecuted legs pointing at it. Those
    // legs must re-arm onto the survivor — zero failed ops, correct
    // bytes, the re-arms counted — and the whole run must replay
    // deterministically.
    let run = || {
        let (mut f, mut cl, mut c) = world(3, 2).build();
        let mut o = Oracle::new(c.retry_policy().budget);
        let oid = ObjectId::new(ObjClass::Sx, 5);
        let n_writes = 8u64;
        o.preamble(&mut c, &mut f, &mut cl, oid, n_writes);
        let victim = cl.map().route(&oid).set.leader().expect("healthy leader");

        let mut ring = OpRing::new(0, 16);
        let t0 = SimTime::from_millis(1);
        let tape: Vec<ClientOp> = (0..n_writes).map(|i| read(oid, i, 16 << 10)).collect();
        // First half staged against the pre-kill map (some legs point at
        // the doomed leader)...
        for op in &tape[..4] {
            ring.submit(&mut c, &mut f, &mut cl, t0, op.clone());
        }
        cl.kill_engine(victim).unwrap();
        // ...second half routes degraded from the start.
        for op in &tape[4..] {
            ring.submit(&mut c, &mut f, &mut cl, t0, op.clone());
        }
        let results = ring.drain(&mut c, &mut f, &mut cl);
        o.settle_all(&tape, &results);
        let rearms = ring.leg_rearms();
        assert!(rearms >= 1, "staged legs at the dead leader must re-arm");
        // Conservation: every write cost 2 RPCs (RF=2), every fetch
        // exactly one — re-arming moves a leg, it never duplicates it.
        let total_rpcs: u64 = (0..cl.len()).map(|s| cl.engine(s).rpcs()).sum();
        assert_eq!(total_rpcs, n_writes * 2 + n_writes);
        o.check_world(&mut c, &mut f, &mut cl, SimTime::from_secs(1));
        let payloads: Vec<Bytes> = results
            .into_iter()
            .map(|r| r.into_fetch().unwrap().0)
            .collect();
        (payloads, rearms, total_rpcs)
    };
    assert_eq!(run(), run(), "kill scenario must replay bit-identically");
}

#[test]
fn qp_state_is_o_engines_not_o_jobs() {
    // The pooled connection state: J jobs against E engines must hold E
    // QPs on the client NIC (one per root connection), not J x E — the RC
    // state the paper's §2.3 scaling argument worries about.
    let (f, _cl, _c) = World {
        jobs: 6,
        ..world(3, 1)
    }
    .build();
    assert_eq!(
        f.node(NodeId(0)).rdma.qp_count(),
        3,
        "client-side RC state must stay one QP per engine"
    );
    // Each storage node likewise sees one QP from this client.
    for s in 1..=3u32 {
        assert_eq!(f.node(NodeId(s)).rdma.qp_count(), 1);
    }
}
