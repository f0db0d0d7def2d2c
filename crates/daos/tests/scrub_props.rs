//! Scrub on rotted histories: the history tapes (`ros2_testkit::Tape`)
//! that flip a media byte and contrast an unpaced scrub with one paced
//! on a byte budget. Each replays bit-identically, converges (every pass
//! repairs what it finds; the clean pass after finds nothing and scans no
//! payload byte; replicas agree), and the paced run repairs the same;
//! `history_tape.rs` sweeps every arm.

use ros2_testkit::{sweep, Contrast, Event, Tape};

/// The seeds this suite draws from: past the full sweep's `0..1000`.
const FROM: u64 = 20_000;
const CASES: usize = 40;

/// A strict tape with a rot, checked against its paced contrast.
fn rotted(tape: &Tape) -> bool {
    tape.contrast == Contrast::Paced
        && tape.strict()
        && tape.events.iter().any(|(_, e)| matches!(e, Event::Rot(_)))
}

#[test]
fn scrub_histories_replay_bit_identically() {
    let seeds = (FROM..).filter(|&s| rotted(&Tape::draw(s))).take(CASES);
    let c = sweep(seeds);
    assert!(c.rot_repairs >= 1, "{c:?}");
}
