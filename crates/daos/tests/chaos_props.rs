//! Chaos on the host client: the history tapes (`ros2_testkit::Tape`)
//! that run on the op ring or as serial calls and kill or black-hole a
//! replica mid-tape. Each replays bit-identically (instants, payloads,
//! ladder counters), settles every op with the history oracle and lands
//! within its retry ladder's bound; `history_tape.rs` sweeps every arm.

use ros2_testkit::{sweep, Arm, Event, Tape};

/// The seeds this suite draws from: past the full sweep's `0..1000`.
const FROM: u64 = 10_000;
const CASES: usize = 40;

/// A host-client tape that kills or black-holes a replica.
fn chaotic(tape: &Tape) -> bool {
    matches!(tape.arm, Arm::Ring | Arm::Serial)
        && tape
            .events
            .iter()
            .any(|(_, e)| matches!(e, Event::Kill(_) | Event::BlackHole(_)))
}

#[test]
fn chaos_schedules_replay_bit_identically() {
    let seeds = (FROM..).filter(|&s| chaotic(&Tape::draw(s))).take(CASES);
    let c = sweep(seeds);
    assert!(c.failed >= 1 && c.fences >= 1, "{c:?}");
}
