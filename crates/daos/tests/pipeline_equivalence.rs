//! Ring-vs-serial client equivalence: driving randomized op streams
//! through [`OpRing`] at QD > 1 must be *functionally* bit-identical to
//! the same tape issued one serial call at a time — every payload, every
//! Ok/Err, every epoch, every engine-side counter. Epochs are
//! allocated at submission (not execution), so reordering completions can
//! never change what a fetch observes; these tests are the teeth behind
//! that argument. Timing is exactly what the two paths are *allowed* to
//! disagree on — the ring overlaps the completion share of the client CPU
//! — so instants are compared only for determinism (same world run twice),
//! never across arms.

use bytes::Bytes;
use ros2_daos::{
    AKey, ClientOp, ClientOpResult, DKey, DaosClient, DaosCostModel, DaosEngine, EngineCluster,
    Epoch, ObjClass, ObjectClient, ObjectId, OpRing, ValueKind,
};
use ros2_fabric::{Fabric, NodeSpec};
use ros2_hw::{gbps, CoreClass, CpuComplement, NicModel, NvmeModel, Transport};
use ros2_nvme::{DataMode, NvmeArray};
use ros2_sim::{SimDuration, SimRng, SimTime};
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

/// A world with `engines` storage nodes at replication factor `rf`.
fn world(engines: usize, rf: usize, jobs: usize) -> (Fabric, EngineCluster, DaosClient) {
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
        NodeId(0),
        &servers,
        "tenant",
        "cont0",
        jobs,
        4 << 20,
        MemoryDomain::HostDram,
        DaosCostModel::default_model(),
        Expiry::Never,
    )
    .unwrap();
    (fabric, cluster, client)
}

/// A randomized client-level op stream: striped and single-target
/// objects, single values and array extents, SCM- and NVMe-sized
/// payloads, LATEST and past-epoch reads. Epoch numbers for past reads
/// lean on the determinism invariant itself: both arms must allocate the
/// same epoch sequence or the reads diverge.
fn plan_ops(seed: u64, steps: usize) -> Vec<(SimTime, ClientOp)> {
    let mut rng = SimRng::new(seed);
    let mut now = SimTime::ZERO;
    let mut updates_so_far = 0u64;
    (0..steps)
        .map(|_| {
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
            let akey = if single {
                AKey::from_str("v")
            } else {
                AKey::from_str("data")
            };
            let kind = if single {
                ValueKind::Single
            } else {
                ValueKind::Array {
                    offset: rng.below(8) * 4096,
                }
            };
            let op = if rng.chance(0.6) {
                updates_so_far += 1;
                let len = if rng.chance(0.5) {
                    1 + rng.below(4096)
                } else {
                    4097 + rng.below(96 << 10)
                };
                let fill = (rng.below(255) + 1) as u8;
                ClientOp::Update {
                    oid,
                    dkey,
                    akey,
                    kind,
                    data: Bytes::from(vec![fill; len as usize]),
                }
            } else {
                let epoch = if rng.chance(0.8) || updates_so_far == 0 {
                    Epoch::LATEST
                } else {
                    Epoch(1 + rng.below(updates_so_far))
                };
                ClientOp::Fetch {
                    oid,
                    dkey,
                    akey,
                    kind,
                    epoch,
                    len: 1 + rng.below(64 << 10),
                }
            };
            (now, op)
        })
        .collect()
}

/// Functional outcome, instants stripped (the arms are free to disagree
/// on time, never on data).
type Outcome = Result<Option<Bytes>, ros2_daos::DaosError>;

fn functional(r: &ClientOpResult) -> Outcome {
    match r {
        ClientOpResult::Update(Ok(_)) => Ok(None),
        ClientOpResult::Update(Err(e)) => Err(*e),
        ClientOpResult::Fetch(Ok((b, _))) => Ok(Some(b.clone())),
        ClientOpResult::Fetch(Err(e)) => Err(*e),
    }
}

/// Full outcome, instants kept (run-twice determinism only).
fn timed(r: &ClientOpResult) -> (Outcome, Option<SimTime>) {
    let t = match r {
        ClientOpResult::Update(Ok(at)) => Some(*at),
        ClientOpResult::Fetch(Ok((_, at))) => Some(*at),
        _ => None,
    };
    (functional(r), t)
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

fn assert_worlds_agree(
    a: (&EngineCluster, &DaosClient),
    b: (&EngineCluster, &DaosClient),
    what: &str,
) {
    assert_eq!(a.0.len(), b.0.len());
    for slot in 0..a.0.len() {
        let (ea, eb) = (a.0.engine(slot), b.0.engine(slot));
        assert_eq!(
            ea.vos_stats(),
            eb.vos_stats(),
            "{what}: engine {slot} VOS stats diverged"
        );
        assert_eq!(
            ea.data_plane_stats(),
            eb.data_plane_stats(),
            "{what}: engine {slot} data-plane counters diverged"
        );
        assert_eq!(
            ea.rpcs(),
            eb.rpcs(),
            "{what}: engine {slot} rpc counters diverged"
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

                let (mut f1, mut cl1, mut c1) = world(1, 1, 1);
                let (mut f2, mut cl2, mut c2) = world(1, 1, 1);
                if let Some(cores) = pooled {
                    c1.share_cores(cores);
                    c2.share_cores(cores);
                }
                let ring_out = run_ring(&mut f1, &mut cl1, &mut c1, &plan, qd);
                let serial_out = run_serial(&mut f2, &mut cl2, &mut c2, &plan);

                assert_eq!(ring_out.len(), plan.len());
                for (i, (r, s)) in ring_out.iter().zip(&serial_out).enumerate() {
                    assert_eq!(
                        functional(r),
                        functional(s),
                        "pool {pooled:?} seed {seed} qd {qd} op {i}: ring != serial calls"
                    );
                }
                assert_worlds_agree(
                    (&cl1, &c1),
                    (&cl2, &c2),
                    &format!("pool {pooled:?} seed {seed} qd {qd} ring/serial"),
                );
            }
        }
    }
}

#[test]
fn ring_equals_forced_serial_rf2_fanout() {
    for seed in [3u64, 17, 92, 1105] {
        let plan = plan_ops(seed, 100);

        let (mut f1, mut cl1, mut c1) = world(3, 2, 1);
        let ring_out = run_ring(&mut f1, &mut cl1, &mut c1, &plan, 6);

        let (mut f2, mut cl2, mut c2) = world(3, 2, 1);
        let serial_out = run_serial(&mut f2, &mut cl2, &mut c2, &plan);

        for (i, (r, s)) in ring_out.iter().zip(&serial_out).enumerate() {
            assert_eq!(
                functional(r),
                functional(s),
                "seed {seed} op {i}: RF=2 ring != serial calls"
            );
        }
        assert_worlds_agree((&cl1, &c1), (&cl2, &c2), &format!("seed {seed} RF=2"));
    }
}

#[test]
fn ring_runs_are_deterministic_to_the_instant() {
    for seed in [17u64, 92] {
        let plan = plan_ops(seed, 100);
        let (mut f1, mut cl1, mut c1) = world(3, 2, 1);
        let out1 = run_ring(&mut f1, &mut cl1, &mut c1, &plan, 8);
        let (mut f2, mut cl2, mut c2) = world(3, 2, 1);
        let out2 = run_ring(&mut f2, &mut cl2, &mut c2, &plan, 8);
        for (i, (a, b)) in out1.iter().zip(&out2).enumerate() {
            assert_eq!(timed(a), timed(b), "seed {seed} op {i}: run-twice drift");
        }
        assert_worlds_agree((&cl1, &c1), (&cl2, &c2), &format!("seed {seed} run-twice"));
    }
}

#[test]
fn ring_retires_out_of_order_but_returns_in_submission_order() {
    // A big op submitted first, small ops behind it: the small ops
    // complete (and retire) before the elephant, yet the result vector
    // stays in submission order.
    let (mut f, mut cl, mut c) = world(1, 1, 1);
    let oid = ObjectId::new(ObjClass::Sx, 1);
    let mk = |i: u64, len: usize| ClientOp::Update {
        oid,
        dkey: DKey::from_u64(i),
        akey: AKey::from_str("data"),
        kind: ValueKind::Array { offset: 0 },
        data: Bytes::from(vec![i as u8 + 1; len]),
    };
    let mut ring = OpRing::new(0, 8);
    ring.submit(&mut c, &mut f, &mut cl, SimTime::ZERO, mk(0, 2 << 20));
    for i in 1..6u64 {
        ring.submit(&mut c, &mut f, &mut cl, SimTime::ZERO, mk(i, 4 << 10));
    }
    let results = ring.drain(&mut c, &mut f, &mut cl);
    assert_eq!(results.len(), 6);
    let done: Vec<SimTime> = results
        .iter()
        .map(|r| r.clone().into_update().unwrap())
        .collect();
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
    for i in 0..6u64 {
        let (b, _) = c
            .fetch(
                &mut f,
                &mut cl,
                *done.iter().max().unwrap(),
                0,
                oid,
                DKey::from_u64(i),
                AKey::from_str("data"),
                ValueKind::Array { offset: 0 },
                Epoch::LATEST,
                64,
            )
            .unwrap();
        assert!(b.iter().all(|&x| x == i as u8 + 1));
    }
}

#[test]
fn ring_gates_admission_at_depth() {
    // At depth 2, submitting a third op must first retire one: the ring
    // never holds more than QD ops in flight.
    let (mut f, mut cl, mut c) = world(1, 1, 1);
    let oid = ObjectId::new(ObjClass::Sx, 2);
    let mut ring = OpRing::new(0, 2);
    for i in 0..5u64 {
        ring.submit(
            &mut c,
            &mut f,
            &mut cl,
            SimTime::ZERO,
            ClientOp::Update {
                oid,
                dkey: DKey::from_u64(i),
                akey: AKey::from_str("data"),
                kind: ValueKind::Array { offset: 0 },
                data: Bytes::from(vec![7u8; 8 << 10]),
            },
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
        let (mut f, mut cl, mut c) = world(3, 2, 1);
        let oid = ObjectId::new(ObjClass::Sx, 5);
        let n_writes = 8u64;
        for i in 0..n_writes {
            c.update(
                &mut f,
                &mut cl,
                SimTime::ZERO,
                0,
                oid,
                DKey::from_u64(i),
                AKey::from_str("data"),
                ValueKind::Array { offset: 0 },
                Bytes::from(vec![i as u8 + 1; 16 << 10]),
            )
            .unwrap();
        }
        let victim = cl.map().route(&oid).set.leader().expect("healthy leader");

        let mut ring = OpRing::new(0, 16);
        let t0 = SimTime::from_millis(1);
        let fetch = |i: u64| ClientOp::Fetch {
            oid,
            dkey: DKey::from_u64(i),
            akey: AKey::from_str("data"),
            kind: ValueKind::Array { offset: 0 },
            epoch: Epoch::LATEST,
            len: 16 << 10,
        };
        // First half staged against the pre-kill map (some legs point at
        // the doomed leader)...
        for i in 0..4u64 {
            ring.submit(&mut c, &mut f, &mut cl, t0, fetch(i));
        }
        cl.kill_engine(victim).unwrap();
        // ...second half routes degraded from the start.
        for i in 4..n_writes {
            ring.submit(&mut c, &mut f, &mut cl, t0, fetch(i));
        }
        let results = ring.drain(&mut c, &mut f, &mut cl);

        let mut payloads = Vec::new();
        for (i, r) in results.into_iter().enumerate() {
            let (b, _) = r
                .into_fetch()
                .unwrap_or_else(|e| panic!("fetch {i} failed after kill: {e:?}"));
            assert!(
                b.iter().all(|&x| x == i as u8 + 1),
                "fetch {i} returned wrong bytes"
            );
            payloads.push(b);
        }
        let rearms = ring.leg_rearms();
        assert!(rearms >= 1, "staged legs at the dead leader must re-arm");
        // Conservation: every write cost 2 RPCs (RF=2), every fetch
        // exactly one — re-arming moves a leg, it never duplicates it.
        let total_rpcs: u64 = (0..cl.len()).map(|s| cl.engine(s).rpcs()).sum();
        assert_eq!(total_rpcs, n_writes * 2 + n_writes);
        (payloads, rearms, total_rpcs)
    };
    assert_eq!(run(), run(), "kill scenario must replay bit-identically");
}

#[test]
fn qp_state_is_o_engines_not_o_jobs() {
    // The pooled connection state: J jobs against E engines must hold E
    // QPs on the client NIC (one per root connection), not J x E — the RC
    // state the paper's §2.3 scaling argument worries about.
    let (f, _cl, _c) = world(3, 1, 6);
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
