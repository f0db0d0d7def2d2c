//! Chaos properties: random interleavings of {kill instant, RAS delay,
//! retry budget, queue depth, black hole} against the pipelined client.
//! Three invariants must hold on every schedule:
//!
//! 1. **No acked update is ever lost, no answer is wrong** — every op
//!    settles with the history oracle (`ros2_testkit::Oracle`): a failure only
//!    as a spent retry budget, a fetch only with the bytes the oracle
//!    holds, and afterwards every record reads back, through the client
//!    and from each live replica, as the oracle holds it.
//! 2. **No op hangs past its deadline ladder** — every completion lands
//!    within the bounded worst case (budget × (deadline + refresh +
//!    backoff cap)) plus data-plane slack; exhausted budgets surface as
//!    typed errors, never as silence.
//! 3. **Replay is bit-identical** — the same schedule produces the same
//!    instants, payloads, and ladder counters run-to-run, on both the
//!    pipelined ring and the same tape issued as serial calls. The suite
//!    runs with the rest of tier 1 (`cargo test -q --locked`).

use bytes::Bytes;
use proptest::prelude::*;
use ros2_daos::{
    ClientOp, ClientOpResult, DaosClient, DaosError, EngineCluster, ObjClass, ObjectId, OpRing,
    RetryPolicy, RetryStats,
};
use ros2_sim::{SimDuration, SimTime};
use ros2_testkit::{instant, read, serial_op, world, write, Oracle, World};

/// One randomly drawn chaos schedule.
#[derive(Clone, Debug)]
struct Schedule {
    /// Ring depth.
    qd: usize,
    /// The kill (or black hole) fires after this many ring submissions
    /// (mid-flight).
    kill_at: usize,
    /// Kill the hot object's leader (true) or its second replica (false)
    /// — the two classifier arms (deadline timeout vs fence).
    kill_leader: bool,
    /// RAS delivery lag after the kill instant.
    ras_delay: SimDuration,
    /// Retry budget of the ladder.
    budget: u32,
    /// Black-hole the victim instead of killing it: it stays up in the map,
    /// so no RAS push routes around it, and swallows every request, so
    /// ring updates with a leg there spend their budget and fail.
    blackhole: bool,
}

fn schedules() -> impl Strategy<Value = Schedule> {
    (
        (2usize..33, 0usize..24, any::<bool>()),
        (0u64..5_000, 1u32..6, any::<bool>()),
    )
        .prop_map(
            |((qd, kill_at, kill_leader), (delay_us, budget, blackhole))| Schedule {
                qd,
                kill_at,
                kill_leader,
                ras_delay: SimDuration::from_micros(delay_us),
                budget,
                blackhole,
            },
        )
}

const N_OPS: usize = 24;
const HOT: u64 = 5;

/// Op `i` of the tape: every third fetches, alternately a preamble extent
/// and the one the tape wrote two ops before; the rest update a fresh one.
fn op_for(i: usize) -> ClientOp {
    let oid = ObjectId::new(ObjClass::Sx, HOT);
    match (i % 3, i % 2) {
        (2, 0) => read(oid, 100 + i as u64 - 2, 16 << 10),
        (2, _) => read(oid, (i % 8) as u64, 16 << 10),
        _ => write(oid, 100 + i as u64, 12 << 10, 100 + i as u64),
    }
}

type Timed = (usize, Option<Bytes>, Option<SimTime>, Option<DaosError>);

/// Runs `sched` once. Returns the per-op functional+timed outcomes, the
/// ladder counters, the total engine fences and the ops the oracle
/// settled as spent budgets — everything the replay assertion compares —
/// after checking the first two invariants inline.
fn run(sched: &Schedule, serial_calls: bool) -> (Vec<Timed>, RetryStats, u64, u64) {
    let (mut f, mut cl, mut c) = World {
        ssds: 2,
        storage_cores: 48,
        ..world(4, 2)
    }
    .build();
    c.set_retry_policy(RetryPolicy {
        budget: sched.budget,
        ..RetryPolicy::default()
    });
    let mut o = Oracle::lossy(sched.budget);
    let oid = ObjectId::new(ObjClass::Sx, HOT);
    let t = o.preamble(&mut c, &mut f, &mut cl, oid, 8);
    let set = cl.map().route(&oid).set;
    let victim = if sched.kill_leader {
        set.leader().unwrap()
    } else {
        set.iter().nth(1).unwrap()
    };

    let t0 = t + SimDuration::from_millis(1);
    let strike = |cl: &mut EngineCluster, c: &mut DaosClient| match sched.blackhole {
        // Only the ring sees a black hole: the serial call reaches the
        // engine whatever its connection does.
        true => cl.set_blackhole(victim, true),
        false => {
            cl.kill_engine(victim).unwrap();
            c.deliver_map(t0 + sched.ras_delay, cl.map().clone());
        }
    };
    let tape: Vec<ClientOp> = (0..N_OPS).map(op_for).collect();
    let mut ring = OpRing::new(0, sched.qd);
    let mut serial_results = Vec::new();
    for (i, op) in tape.iter().enumerate() {
        if i == sched.kill_at {
            strike(&mut cl, &mut c);
        }
        if serial_calls {
            serial_results.push(serial_op(&mut c, &mut f, &mut cl, t0, op.clone()));
        } else {
            ring.submit(&mut c, &mut f, &mut cl, t0, op.clone());
        }
    }
    let results = match serial_calls {
        true => serial_results,
        false => ring.drain(&mut c, &mut f, &mut cl),
    };
    o.settle_all(&tape, &results);

    // Invariant 2: bounded completion. The ladder's worst case per leg is
    // (budget + 1) deadlines plus a refresh and capped backoff per rung;
    // everything else is ordinary data-plane time.
    let p = c.retry_policy();
    let ladder_worst = (p.leg_deadline + p.refresh_rtt + p.backoff_cap)
        .saturating_mul(p.budget as u64 + 1)
        + SimDuration::from_millis(50);
    let mut out = Vec::new();
    for (i, r) in results.into_iter().enumerate() {
        let at = instant(&r);
        assert!(
            at.is_none_or(|at| at < t0 + ladder_worst),
            "op {i} overran the ladder: {at:?}"
        );
        out.push(match r {
            ClientOpResult::Fetch(Ok((b, _))) => (i, Some(b), at, None),
            ClientOpResult::Update(Err(e)) | ClientOpResult::Fetch(Err(e)) => {
                (i, None, at, Some(e))
            }
            ClientOpResult::Update(Ok(_)) => (i, None, at, None),
        });
    }

    // Invariant 1: acked-means-durable, read back from whatever the
    // cluster looks like now.
    o.check_world(&mut c, &mut f, &mut cl, t0 + SimDuration::from_secs(1));
    (out, c.retry_stats(), cl.fences(), o.failed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    // Invariant 3 (and 1 and 2 inside `run`): the pipelined ring and the
    // serial-call tape each replay their schedule bit-identically.
    #[test]
    fn chaos_schedules_replay_bit_identically(sched in schedules()) {
        let a = run(&sched, false);
        let b = run(&sched, false);
        prop_assert_eq!(&a, &b, "pipelined replay diverged");

        let s1 = run(&sched, true);
        let s2 = run(&sched, true);
        prop_assert_eq!(&s1, &s2, "serial-call replay diverged");
    }
}

/// The black-hole axis reaches a failure: with the leader swallowing every
/// request, ring updates spend their budget at its leg and settle as
/// spent budgets, and the records they touched are the oracle's refused
/// reads from then on.
#[test]
fn a_black_holed_replica_spends_update_budgets() {
    let sched = Schedule {
        qd: 8,
        kill_at: 4,
        kill_leader: true,
        ras_delay: SimDuration::from_millis(1),
        budget: 2,
        blackhole: true,
    };
    let (out, retry, _, failed) = run(&sched, false);
    assert!(failed >= 1, "no op failed: {out:?}");
    assert_eq!(retry.exhausted, failed, "every failure is a spent budget");
}
