//! Scrub properties: random histories of {overlapping writes, silent
//! bit-rot, epoch aggregation, an engine kill} against a replicated
//! cluster, then a scrub-and-repair pass. Four invariants must hold on
//! every history:
//!
//! 1. **No acked write is ever lost** — the last write to every
//!    `(object, dkey)` reads back byte-correct after scrub + repair,
//!    through the client and from every replica (the history oracle,
//!    `ros2_testkit::Oracle`), even when the replica it landed on rotted
//!    underneath it.
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

use proptest::prelude::*;
use ros2_daos::{BgService, ObjClass, ObjectId, ScrubStats};
use ros2_sim::{QosLimits, SimDuration, SimTime};
use ros2_testkit::{world, write, Oracle, World};

const ENGINES: usize = 4;
const RF: usize = 2;

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
    /// `(object, dkey)` per write; the extent length is a pure function
    /// of the dkey, so the last write covers every earlier one.
    writes: Vec<(u64, u64)>,
    /// `(fire after this many writes, event)`, sorted by index.
    events: Vec<(usize, Event)>,
    /// The slot the (at most one) kill targets, if any — bit-rot aims
    /// at this replica so the history stays single-fault per object.
    kill_slot: Option<usize>,
}

fn histories() -> impl Strategy<Value = History> {
    let writes = prop::collection::vec((0u64..3, 0u64..5), 4..16);
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
    let (mut f, mut cl, mut c) = World {
        ssds: 2,
        storage_cores: 48,
        seed: 29,
        ..world(ENGINES, RF)
    }
    .build();
    let mut o = Oracle::new(c.retry_policy().budget);
    if paced {
        cl.set_service_budget(BgService::Scrub, QosLimits::bytes_per_sec(48 << 10));
        cl.set_service_budget(BgService::Rebuild, QosLimits::bytes_per_sec(256 << 10));
    }
    let mut t = SimTime::ZERO;
    let mut next_event = 0usize;
    let mut killed = false;

    for (i, &(obj, dkey)) in h.writes.iter().enumerate() {
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
        let op = write(oid_for(obj), dkey, len_for(dkey), i as u64);
        t = o
            .serial(&mut c, &mut f, &mut cl, t, op)
            .into_update()
            .unwrap();
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
    o.check_world(
        &mut c,
        &mut f,
        &mut cl,
        t_second + SimDuration::from_secs(1),
    );

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
        writes: (0..10).map(|i| (i % 3, i % 5)).collect(),
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
