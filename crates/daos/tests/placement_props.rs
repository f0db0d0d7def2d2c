//! Placement properties over random pool-map transitions.
//!
//! The cluster's availability story rests on three invariants of
//! `PoolMap::replica_set` (HRW placement):
//!
//! 1. **Determinism** — the set is a pure function of `(map, oid, rf)`.
//! 2. **Distinctness** — `min(rf, up_count)` *distinct* healthy engines
//!    are always chosen, leader first.
//! 3. **Minimal disruption** — a membership transition moves only the
//!    objects whose replica set actually changed: killing an engine
//!    leaves every set that did not contain it untouched (and never
//!    evicts a survivor from an affected set); adding an engine inserts
//!    at most that engine into any set (evicting at most one member),
//!    and never reshuffles the survivors among themselves.
//!
//! Driven over random transition sequences so compound histories (kill
//! then add then kill …) are covered, not just single steps.

use proptest::prelude::*;
use ros2_daos::{ObjClass, ObjectId, PoolMap, ReplicaSet};
use ros2_verbs::NodeId;

#[derive(Copy, Clone, Debug)]
enum Transition {
    /// Add a fresh engine.
    Add,
    /// Kill the `i % up_count`-th currently-healthy engine.
    Kill(usize),
}

fn transitions() -> impl Strategy<Value = Vec<Transition>> {
    prop::collection::vec(
        prop_oneof![
            Just(Transition::Add),
            (0usize..64).prop_map(Transition::Kill),
        ],
        1..8,
    )
}

/// Applies one transition, keeping at least one engine healthy. Returns
/// the slot killed, if any.
fn apply(map: &mut PoolMap, t: Transition, next_node: &mut u32) -> Option<usize> {
    match t {
        Transition::Add => {
            let node = NodeId(*next_node);
            *next_node += 1;
            map.add_engine(node);
            None
        }
        Transition::Kill(i) => {
            if map.up_count() <= 1 {
                return None; // keep the pool alive
            }
            let up_slots: Vec<usize> = (0..map.len())
                .filter(|&s| map.members()[s].health == ros2_daos::EngineHealth::Up)
                .collect();
            let slot = up_slots[i % up_slots.len()];
            map.kill(slot).expect("killing a healthy slot succeeds");
            Some(slot)
        }
    }
}

fn sample_oids(n: u64) -> Vec<ObjectId> {
    (0..n)
        .map(|i| {
            let class = if i % 3 == 0 {
                ObjClass::S1
            } else {
                ObjClass::Sx
            };
            ObjectId::new(class, i * 7919 + 13)
        })
        .collect()
}

fn as_vec(set: &ReplicaSet) -> Vec<usize> {
    set.iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn placement_is_deterministic_distinct_and_minimally_disruptive(
        engines in 1usize..9,
        rf in 1usize..4,
        ts in transitions(),
    ) {
        let mut map = PoolMap::new((0..engines).map(|i| NodeId(i as u32 + 1)).collect(), rf);
        let mut next_node = engines as u32 + 1;
        let oids = sample_oids(160);

        for t in ts {
            let before: Vec<ReplicaSet> =
                oids.iter().map(|o| map.replica_set(o, rf)).collect();
            let pre_len = map.len();
            let version_before = map.version();
            let killed = apply(&mut map, t, &mut next_node);
            let grew = map.len() > pre_len;
            if killed.is_some() || grew {
                prop_assert!(map.version() > version_before, "transitions bump the revision");
            }

            for (oid, pre) in oids.iter().zip(&before) {
                let post = map.replica_set(oid, rf);

                // (1) Determinism: recomputation agrees.
                prop_assert_eq!(post, map.replica_set(oid, rf));

                // (2) Distinctness and health.
                let slots = as_vec(&post);
                let mut dedup = slots.clone();
                dedup.sort_unstable();
                dedup.dedup();
                prop_assert_eq!(dedup.len(), slots.len(), "duplicate replica: {:?}", slots);
                prop_assert_eq!(
                    slots.len(),
                    rf.min(map.up_count()),
                    "set size must be min(rf, up)"
                );
                for &s in &slots {
                    prop_assert_eq!(
                        map.members()[s].health,
                        ros2_daos::EngineHealth::Up,
                        "down engine routed"
                    );
                }

                // (3) Minimal disruption.
                let pre_slots = as_vec(pre);
                if let Some(dead) = killed {
                    if !pre_slots.contains(&dead) {
                        prop_assert_eq!(
                            &slots, &pre_slots,
                            "kill of a non-member moved the object"
                        );
                    } else {
                        for s in pre_slots.iter().filter(|&&s| s != dead) {
                            prop_assert!(
                                slots.contains(s),
                                "survivor {} evicted by kill: {:?} -> {:?}",
                                s, pre_slots, slots
                            );
                        }
                    }
                } else if grew {
                    let added = map.len() - 1;
                    let new_members: Vec<usize> = slots
                        .iter()
                        .copied()
                        .filter(|s| !pre_slots.contains(s))
                        .collect();
                    prop_assert!(
                        new_members.is_empty() || new_members == vec![added],
                        "add may insert only the added engine: {:?} -> {:?}",
                        pre_slots, slots
                    );
                    let evicted = pre_slots
                        .iter()
                        .filter(|s| !slots.contains(s))
                        .count();
                    prop_assert!(
                        evicted <= 1,
                        "add evicted more than one member: {:?} -> {:?}",
                        pre_slots, slots
                    );
                }
            }
        }
    }
}
