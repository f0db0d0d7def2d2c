//! Scrub properties: random histories of {overlapping writes, silent
//! bit-rot, epoch aggregation, an engine kill} against a replicated
//! cluster, then a scrub-and-repair pass. Four invariants must hold on
//! every history:
//!
//! 1. **No acked write is ever lost** — the last write to every
//!    `(object, dkey)` reads back byte-correct after scrub + repair,
//!    even when the replica it landed on rotted underneath it.
//! 2. **Scrub converges** — one repairing pass leaves every replica set
//!    byte-comparable (equal record-set fingerprints) and a second pass
//!    finds zero mismatches.
//! 3. **The clean path scans nothing** — a scrub pass over a healthy
//!    cluster verifies every chunk without scanning a single payload
//!    byte (each recorded chunk checksum is compared with the media
//!    stores' cached chunk CRC).
//! 4. **Replay is bit-identical** — the same history produces the same
//!    repair counts, fingerprints, and completion instants run-to-run,
//!    and a paced scrub lane changes only the timing, never the repairs.
//!
//! Histories stay inside the repairable regime RF = 2 guarantees: at
//! most one fault per object between scrubs, so bit-rot targets the
//! replica the scheduled kill will take anyway (a rot on one replica
//! plus the death of the other is an unrecoverable double fault — out
//! of scope here, surfaced as an unrepaired RAS event in production).

use bytes::Bytes;
use proptest::prelude::*;
use ros2_daos::{
    AKey, BgService, ConnectSpec, DKey, DaosClient, DaosCostModel, DaosEngine, EngineCluster,
    Epoch, ObjClass, ObjectClient, ObjectId, ScrubStats, ValueKind,
};
use ros2_fabric::{Fabric, NodeSpec};
use ros2_hw::{gbps, CoreClass, CpuComplement, NicModel, NvmeModel, Transport};
use ros2_nvme::{DataMode, NvmeArray};
use ros2_sim::{QosLimits, SimDuration, SimTime};
use ros2_spdk::BdevLayer;
use ros2_verbs::{Expiry, MemoryDomain, NodeId};

const ENGINES: usize = 4;
const RF: usize = 2;

fn engine() -> DaosEngine {
    let bdevs = BdevLayer::new(NvmeArray::new(
        NvmeModel::enterprise_1600(),
        2,
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

fn node(name: &str) -> NodeSpec {
    NodeSpec {
        name: name.into(),
        cpu: CpuComplement {
            class: CoreClass::HostX86,
            cores: 48,
        },
        nic: NicModel::connectx6(),
        port_rate: gbps(100),
        mem_budget: 8 << 30,
        dpu_tcp_rx: None,
    }
}

fn world() -> (Fabric, EngineCluster, DaosClient) {
    let mut specs = vec![node("client")];
    let mut servers = Vec::new();
    for i in 0..ENGINES {
        specs.push(node(&format!("storage{i}")));
        servers.push(NodeId(1 + i as u32));
    }
    let mut fabric = Fabric::new(Transport::Rdma, specs, 29);
    let cluster = EngineCluster::new(
        (0..ENGINES).map(|_| engine()).collect(),
        servers.clone(),
        RF,
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

/// Fired between writes of the history.
#[derive(Clone, Debug)]
enum Event {
    /// Silently flip a media byte under one replica of this object.
    Corrupt { obj: u64 },
    /// Cluster-wide epoch aggregation at the safe boundary.
    Aggregate,
    /// Kill this engine, scrub the survivors, then rebuild.
    Kill { slot: usize },
}

/// One randomly drawn history.
#[derive(Clone, Debug)]
struct History {
    /// `(object, dkey, fill byte)` per write; the extent length is a
    /// pure function of the dkey so last-writer-wins is byte-exact.
    writes: Vec<(u64, u64, u8)>,
    /// `(fire after this many writes, event)`, sorted by index.
    events: Vec<(usize, Event)>,
    /// The slot the (at most one) kill targets, if any — bit-rot aims
    /// at this replica so the history stays single-fault per object.
    kill_slot: Option<usize>,
}

fn histories() -> impl Strategy<Value = History> {
    let writes = prop::collection::vec((0u64..3, 0u64..5, 1u8..250), 4..16);
    let corrupts = prop::collection::vec((0usize..16, 0u64..3), 0..4);
    let aggregates = prop::collection::vec(0usize..16, 0..3);
    let kill =
        (any::<bool>(), (0usize..16, 0usize..ENGINES)).prop_map(|(some, v)| some.then_some(v));
    (writes, corrupts, aggregates, kill).prop_map(|(writes, corrupts, aggregates, kill)| {
        let mut events: Vec<(usize, Event)> = Vec::new();
        for (at, obj) in corrupts {
            events.push((at, Event::Corrupt { obj }));
        }
        for at in aggregates {
            events.push((at, Event::Aggregate));
        }
        if let Some((at, slot)) = kill {
            events.push((at, Event::Kill { slot }));
        }
        events.sort_by_key(|&(at, _)| at);
        History {
            writes,
            events,
            kill_slot: kill.map(|(_, slot)| slot),
        }
    })
}

/// Deterministic per-dkey extent length: multiple chunks plus a ragged
/// tail, so the verify compares a partial last chunk's recorded checksum.
fn len_for(dkey: u64) -> usize {
    (8 << 10) + (dkey as usize) * (5 << 10) + 734
}

fn oid_for(obj: u64) -> ObjectId {
    ObjectId::new(ObjClass::Sx, 40 + obj)
}

/// Everything the replay assertion compares: timing-independent repair
/// outcomes plus the completion instants of both scrub passes.
type Outcome = (u64, u64, Vec<u64>, SimTime, SimTime);

fn run(h: &History, paced: bool) -> Outcome {
    let (mut f, mut cl, mut c) = world();
    if paced {
        cl.set_service_budget(BgService::Scrub, QosLimits::bytes_per_sec(48 << 10));
        cl.set_service_budget(BgService::Rebuild, QosLimits::bytes_per_sec(256 << 10));
    }
    let mut t = SimTime::ZERO;
    let mut next_event = 0usize;
    let mut killed = false;
    // Last acked fill byte per (object, dkey).
    let mut expect: Vec<((u64, u64), u8)> = Vec::new();

    for (i, &(obj, dkey, fill)) in h.writes.iter().enumerate() {
        while next_event < h.events.len() && h.events[next_event].0 <= i {
            let (_, ev) = h.events[next_event].clone();
            next_event += 1;
            match ev {
                Event::Corrupt { obj } => {
                    let oid = oid_for(obj);
                    let set = cl.map().route(&oid).set;
                    // Rot the replica the scheduled kill will take (it
                    // dies anyway); otherwise the first in route order.
                    let victim = match h.kill_slot.filter(|_| !killed) {
                        Some(ks) if set.contains(ks) => ks,
                        _ => match set.iter().next() {
                            Some(s) => s,
                            None => continue,
                        },
                    };
                    cl.engine_mut(victim).corrupt_object(oid);
                }
                Event::Aggregate => {
                    let (_, at) = cl.aggregate_cluster(t, "cont0", None).unwrap();
                    t = t.max(at);
                }
                Event::Kill { slot } if !killed => {
                    killed = true;
                    cl.kill_engine(slot).unwrap();
                    c.deliver_map(t, cl.map().clone());
                    // Self-healing order: repair rot among the survivors
                    // first, so the rebuild never streams from a rotten
                    // source, then restore RF.
                    let (_, at) = cl.scrub(&mut f, t).unwrap();
                    let at = cl.rebuild(&mut f, at).unwrap();
                    c.deliver_map(at, cl.map().clone());
                    t = t.max(at);
                }
                Event::Kill { .. } => {}
            }
        }
        t = c
            .update(
                &mut f,
                &mut cl,
                t,
                0,
                oid_for(obj),
                DKey::from_u64(dkey),
                AKey::from_str("data"),
                ValueKind::Array { offset: 0 },
                Bytes::from(vec![fill; len_for(dkey)]),
            )
            .unwrap();
        expect.retain(|&(k, _)| k != (obj, dkey));
        expect.push(((obj, dkey), fill));
    }

    // The repairing pass, then a verifying pass over the healed cluster.
    let (first, t_first) = cl.scrub(&mut f, t + SimDuration::from_millis(1)).unwrap();
    let before: ScrubStats = cl.scrub_stats();
    let (second, t_second) = cl.scrub(&mut f, t_first).unwrap();
    let after: ScrubStats = cl.scrub_stats();

    // Invariant 2: converged — the second pass is clean everywhere.
    assert_eq!(
        second.mismatches_found, 0,
        "scrub failed to converge: {second:?}"
    );
    // Invariant 3: the clean pass verified real volume without touching
    // a single payload byte.
    assert!(after.chunks_compared > before.chunks_compared);
    assert_eq!(
        after.scanned_bytes - before.scanned_bytes,
        0,
        "clean scrub pass scanned payload bytes"
    );

    // Invariant 2, byte-comparable: every replica of every object
    // resolves to the same record-set fingerprint.
    let mut fps = Vec::new();
    for obj in 0..3u64 {
        let oid = oid_for(obj);
        let set = cl.map().route(&oid).set;
        let mut per: Vec<u64> = set
            .iter()
            .map(|s| cl.engine(s).object_fingerprint(oid))
            .collect();
        if let Some(&fp) = per.first() {
            assert!(
                per.iter().all(|&x| x == fp),
                "object {obj} replicas diverge after scrub: {per:?}"
            );
            fps.append(&mut per);
        }
    }

    // Invariant 1: every acked write's final value reads back intact.
    let read_at = t_second + SimDuration::from_secs(1);
    for &((obj, dkey), fill) in &expect {
        let (b, _) = c
            .fetch(
                &mut f,
                &mut cl,
                read_at,
                0,
                oid_for(obj),
                DKey::from_u64(dkey),
                AKey::from_str("data"),
                ValueKind::Array { offset: 0 },
                Epoch::LATEST,
                len_for(dkey) as u64,
            )
            .unwrap_or_else(|e| panic!("acked write ({obj},{dkey}) lost: {e:?}"));
        assert!(
            b.len() == len_for(dkey) && b.iter().all(|&x| x == fill),
            "acked write ({obj},{dkey}) read back corrupt"
        );
    }

    (
        first.mismatches_found,
        first.mismatches_repaired,
        fps,
        t_first,
        t_second,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Invariant 4 (and 1–3 inside `run`): bit-identical replay, and the
    // paced lanes change timing only — never what gets repaired.
    #[test]
    fn scrub_histories_replay_bit_identically(h in histories()) {
        let a = run(&h, false);
        let b = run(&h, false);
        prop_assert_eq!(&a, &b, "unpaced replay diverged");

        let p1 = run(&h, true);
        let p2 = run(&h, true);
        prop_assert_eq!(&p1, &p2, "paced replay diverged");

        // Functional outcomes match across pacing budgets.
        prop_assert_eq!((p1.0, p1.1, &p1.2), (a.0, a.1, &a.2));
        // Whatever the first pass found, it repaired (histories stay in
        // the single-fault regime).
        prop_assert_eq!(a.0, a.1, "unrepaired mismatch survived");
    }
}

/// A byte budget on the scrub lane actually throttles: same repairs,
/// later completion, and the lane's wait counter shows the stall.
#[test]
fn scrub_budget_paces_the_pass() {
    let h = History {
        writes: (0..10).map(|i| (i % 3, i % 5, (i + 1) as u8)).collect(),
        events: vec![
            (4, Event::Corrupt { obj: 1 }),
            (7, Event::Corrupt { obj: 2 }),
        ],
        kill_slot: None,
    };
    let unpaced = run(&h, false);
    let paced = run(&h, true);
    assert!(unpaced.0 >= 2, "scheduled rot went undetected: {unpaced:?}");
    assert_eq!(
        (paced.0, paced.1, &paced.2),
        (unpaced.0, unpaced.1, &unpaced.2)
    );
    assert!(
        paced.3 > unpaced.3,
        "paced scrub did not finish later: {:?} vs {:?}",
        paced.3,
        unpaced.3
    );
}
