//! The history tape (`ros2_testkit::Tape`) swept over seeds: each seed's
//! tape runs twice, bit-identically, and once on its contrast arm, every
//! run held to the oracle, the ladder bound, the cache carve and scrub
//! convergence; a failing seed panics with its tape, shrunk. Fixed tapes
//! pin what a sweep reaches only by chance.

use std::sync::OnceLock;

use ros2_sim::SimDuration;
use ros2_testkit::{sweep, Arm, Coverage, Event, Op, Tape};

/// The sweep checks seeds `0..SEEDS`.
const SEEDS: u64 = 1000;

/// The sweep, run once for every test that reads it.
fn swept() -> &'static Coverage {
    static SWEPT: OnceLock<Coverage> = OnceLock::new();
    SWEPT.get_or_init(|| sweep(0..SEEDS))
}

#[test]
fn every_seed_holds_every_invariant() {
    swept();
}

/// The sweep reaches what its invariants are about: the cache hits,
/// write-updates resident chunks, drops partly covered ones and evicts; a
/// budget is spent, a rot found and repaired, a stale leg fenced; and
/// every arm runs at RF 2 and 3.
#[test]
fn schedules_exercise_every_cache_rule() {
    let c = swept();
    assert!(c.cache.hits > 100, "{c:?}");
    assert!(c.cache.write_updates > 20, "{c:?}");
    assert!(c.cache.invalidations > 20, "{c:?}");
    assert!(c.cache.evictions > 0, "{c:?}");
    assert!(
        c.failed >= 1 && c.rot_repairs >= 1 && c.fences >= 1,
        "{c:?}"
    );
    for arm in [Arm::Ring, Arm::Serial, Arm::Offloaded(0), Arm::Offloaded(1)] {
        for rf in [2, 3] {
            assert!(
                c.arms.contains(&(arm, rf)),
                "{arm:?} at RF {rf} never drawn"
            );
        }
    }
}

/// A host-serial tape at RF 2 of whole ragged writes, `(object, dkey)`.
fn ragged(writes: &[(u64, u64)], events: Vec<(usize, Event)>) -> Tape {
    let ops = writes
        .iter()
        .map(|&(obj, dkey)| Op::Ragged(true, obj, dkey))
        .collect();
    Tape {
        arm: Arm::Serial,
        rf: 2,
        budget: 3,
        ops,
        events,
        ..Tape::default()
    }
}

/// With the leader swallowing every request, ring updates spend their
/// budget at its leg and settle as spent budgets, and the records they
/// touched are the oracle's refused reads from then on.
#[test]
fn a_black_holed_replica_spends_update_budgets() {
    let tape = Tape {
        rf: 2,
        qd: 8,
        budget: 2,
        delay: SimDuration::from_millis(1),
        ops: (0..24)
            .map(|i| Op::Grid(i % 3 != 2, i % 3, i % 4, 2))
            .collect(),
        events: vec![(4, Event::BlackHole(true))],
        ..Tape::default()
    };
    let run = tape.check();
    assert!(run.failed >= 1, "no op failed: {:?}", run.ops);
    assert_eq!(
        run.retry.exhausted, run.failed,
        "every failure is a spent budget"
    );
}

/// A byte budget on the scrub lane throttles: the same repairs, a later
/// end.
#[test]
fn scrub_budget_paces_the_pass() {
    let writes: Vec<_> = (0..10).map(|i| (i % 3, i % 5)).collect();
    let tape = ragged(&writes, vec![(4, Event::Rot(1)), (7, Event::Rot(2))]);
    let (unpaced, paced) = (tape.run(), tape.contrasted().run());
    assert!(
        unpaced.scrub.mismatches_found >= 2,
        "rot went undetected: {unpaced:?}"
    );
    assert_eq!(
        (paced.scrub, paced.repaired, &paced.fingerprints),
        (unpaced.scrub, unpaced.repaired, &unpaced.fingerprints)
    );
    assert!(
        paced.scrubbed > unpaced.scrubbed,
        "the paced scrub did not end later"
    );
}

/// A second rot of an extent no write has replaced since the first leaves
/// it rotted: the scrub finds and repairs it, and the clean pass after
/// scans nothing. (When the second flip restored the byte, the chunk fell
/// off its CRC cache and the clean pass scanned 20 480 payload bytes.)
#[test]
fn a_second_rot_of_one_extent_stays_rotted() {
    let writes = [
        (2, 4),
        (1, 1),
        (1, 1),
        (1, 2),
        (2, 4),
        (0, 3),
        (0, 0),
        (0, 3),
        (0, 3),
    ];
    let writes = [
        &writes[..],
        &[(1, 0), (1, 0), (1, 0), (0, 0), (2, 0), (2, 2)],
    ]
    .concat();
    let rots = vec![(5, Event::Rot(2)), (9, Event::Rot(0)), (12, Event::Rot(0))];
    let run = ragged(&writes, [rots, vec![(12, Event::Aggregate)]].concat()).check();
    assert_eq!(
        run.rots, 2,
        "the second rot of obj 0's extent flipped it back"
    );
    assert!(run.scrub.mismatches_repaired >= 1, "{run:?}");
}
