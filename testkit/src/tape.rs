//! The history tape: one seeded schedule of client ops and faults, the
//! runner that plays it against a kit world and holds every answer to the
//! [`Oracle`], and the sweep that checks seeds and shrinks a failing tape
//! by halve-and-retry.
//!
//! A [`Tape`] draws the client arm (the host client's op ring or serial
//! calls, or the offloaded client on two tenant lanes with its read cache
//! on or off), RF 2 or 3, queue depth, retry budget and map-push delay.
//! Its ops are cells of a `(dkey, offset)` grid on one hot object, which
//! overlap in part and repeat, mixed with whole ragged records of three
//! more objects, which span several checksum chunks. Its events are a
//! kill (with an optional rebuild) or a black hole, bit rot, aggregation,
//! a scrub and an extent that reaches the replicas around the client. On
//! the host ring an event lands between two submissions, on the offloaded
//! client at its next `execute_into` queue, on a serial arm between calls.
//!
//! Every run holds:
//! 1. the oracle's four rules, strict unless the tape arms a black hole
//!    or a map delay its retry ladder does not outlast;
//! 2. the ladder bound: every op completes within its budget's worst case
//!    of deadlines, refreshes and backoffs, plus data-plane slack;
//! 3. resident cache bytes never exceed the carve, after every queue,
//!    and a client with no cache books no cache counter;
//! 4. scrub convergence: every pass repairs what it finds, and after the
//!    closing repairing pass a second finds nothing and scans no payload
//!    byte, and every replica of an object has the same fingerprint.
//!
//! [`Tape::check`] runs a tape twice, holds the runs bit-identical, and
//! runs it once more on its [`Contrast`] arm.

use std::collections::BTreeSet;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

use bytes::Bytes;
use ros2_daos::{
    AKey, Arrival, BgService, ClientOp, ClientOpResult, DKey, DaosClient, DaosError, EngineCluster,
    Epoch, FetchOp, ObjClass, ObjectClient, ObjectId, OpRing, RecordKey, RetryPolicy, RetryStats,
    ScrubOutcome, UpdateOp, ValueKind,
};
use ros2_dpu::{DpuCacheStats, DpuClient, DpuTenantSpec};
use ros2_fabric::Fabric;
use ros2_sim::{QosLimits, SimDuration, SimRng, SimTime};

use crate::{array_key, instant, serial_op, stamped, world, Oracle, World, CONT};

/// Grid cells are this many bytes; a grid dkey holds [`CELLS`] of them.
const CELL: u64 = 2 << 10;
const CELLS: u64 = 4;
const GRID_KEYS: u64 = 3;
/// Objects `0..GRID` hold ragged records; object `GRID` is the grid.
const GRID: u64 = 3;
/// The write sequence number the foreign extent's bytes are stamped with.
const FOREIGN: u64 = u64::MAX;

/// Which client runs a tape, and how.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Arm {
    /// The host client's op ring, one submission at a time.
    #[default]
    Ring,
    /// The host client's serial calls.
    Serial,
    /// The offloaded client, a queue of `qd` ops per `execute_into` on the
    /// lane [`Tape::lanes`] names; its read cache carves this many bytes a
    /// lane (0: no cache).
    Offloaded(u64),
    /// The offloaded client's serial calls (a contrast arm).
    OffloadedSerial,
}

/// The arm a seed runs its tape on once more.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Contrast {
    /// The same client's serial calls.
    Serial,
    /// Scrub and rebuild paced at 48 KiB/s and 256 KiB/s: on a strict
    /// tape only timing may change, never what the scrubs repair.
    #[default]
    Paced,
    /// No read cache: no cache counter moves.
    CacheOff,
}

/// One tape op: a read, or a write of stamped bytes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `Grid(write, dkey, cell, cells)`: `cells` cells from `cell` of the
    /// grid's `dkey`, clipped to its end.
    Grid(bool, u64, u64, u64),
    /// `Ragged(write, obj, dkey)`: ragged object `obj`'s whole record
    /// `dkey`, several checksum chunks and a partial tail long.
    Ragged(bool, u64, u64),
}

/// What lands between ops.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// Kills the grid's leader (`true`) or second replica; the map reaches
    /// the client [`Tape::delay`] late.
    Kill(bool),
    /// Rebuilds the killed engine's replicas; its map push is as late.
    Rebuild,
    /// The grid's leader (`true`) or second replica swallows every request
    /// a ring leg sends it, staying up in the map.
    BlackHole(bool),
    /// Flips a media byte of object `obj`'s last-written record.
    Rot(u64),
    Aggregate,
    Scrub,
    /// An extent over the whole grid dkey reaches every replica straight
    /// through the engines, tagged epoch 1: below every tape write.
    Foreign(u64),
}

/// One schedule.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tape {
    pub arm: Arm,
    pub rf: usize,
    pub qd: usize,
    pub budget: u32,
    /// How late every map push reaches the client.
    pub delay: SimDuration,
    /// Bit `q % 32`: the lane (job) offloaded queue `q` runs on.
    pub lanes: u32,
    /// Whether scrub and rebuild are paced.
    pub paced: bool,
    pub ops: Vec<Op>,
    /// `(i, event)`, by `i`: the event lands before op `i` is issued.
    pub events: Vec<(usize, Event)>,
    pub contrast: Contrast,
}

/// What a run yields: everything replay compares.
#[derive(Clone, Debug, PartialEq)]
pub struct Run {
    /// Per op: its completion instant, its error, a fetch's bytes.
    pub ops: Vec<(Option<SimTime>, Option<DaosError>, Option<Bytes>)>,
    pub retry: RetryStats,
    pub fences: u64,
    /// Ops the oracle settled as spent budgets.
    pub failed: u64,
    pub cache: DpuCacheStats,
    /// Rots that flipped a byte, and mismatches every scrub repaired.
    pub rots: u64,
    pub repaired: u64,
    /// The closing repairing pass and the instant it ended.
    pub scrub: ScrubOutcome,
    pub scrubbed: SimTime,
    /// Every replica's fingerprint of every object, after the scrubs.
    pub fingerprints: Vec<u64>,
}

/// What a sweep reached, summed over its seeds' first runs.
#[derive(Clone, Debug, Default)]
pub struct Coverage {
    pub cache: DpuCacheStats,
    pub failed: u64,
    /// Repairs on runs that rotted a byte.
    pub rot_repairs: u64,
    pub fences: u64,
    /// `(arm, rf)` drawn, a cache carve counted as `Offloaded(1)`.
    pub arms: BTreeSet<(Arm, usize)>,
}

/// A ragged record's length: several checksum chunks and a partial tail,
/// so a verify compares a partial last chunk's recorded checksum.
fn ragged_len(dkey: u64) -> u64 {
    (8 << 10) + dkey * (5 << 10) + 734
}

fn oid(obj: u64) -> ObjectId {
    ObjectId::new(ObjClass::Sx, if obj == GRID { 11 } else { 40 + obj })
}

impl Op {
    /// Whether it writes, its object and dkey, and this op as a client
    /// submits it, a write carrying write `seq`'s bytes.
    fn client_op(&self, seq: u64) -> (bool, u64, u64, ClientOp) {
        let (write, obj, dkey, offset, len) = match *self {
            Op::Grid(w, dkey, cell, cells) => {
                (w, GRID, dkey, cell * CELL, cells.min(CELLS - cell) * CELL)
            }
            Op::Ragged(w, obj, dkey) => (w, obj, dkey, 0, ragged_len(dkey)),
        };
        let (key, kind) = (array_key(oid(obj), dkey), ValueKind::Array { offset });
        let op = match write {
            true => ClientOp::Update(UpdateOp {
                key,
                kind,
                data: stamped(oid(obj), offset, seq, len as usize),
            }),
            false => ClientOp::Fetch(FetchOp {
                key,
                kind,
                epoch: Epoch::LATEST,
                len,
            }),
        };
        (write, obj, dkey, op)
    }
}

impl Tape {
    /// The tape seed `seed` draws.
    pub fn draw(seed: u64) -> Tape {
        let mut r = SimRng::new(seed);
        let arm = match r.below(4) {
            0 => Arm::Ring,
            1 => Arm::Serial,
            2 => Arm::Offloaded(0),
            // Per lane: small enough that eviction pressure is real
            // (entries are 2-8 KiB), large enough that hits happen.
            _ => Arm::Offloaded([32 << 10, 128 << 10, 2 << 20][r.index(3)]),
        };
        let n = 16 + r.index(48);
        let mut ops: Vec<Op> = Vec::with_capacity(n);
        while ops.len() < n {
            // 0-2 write one to four grid cells, 3 repeats the previous op
            // (a duplicated write, or a re-read), 4-9 read one or two
            // cells, 10-11 write or read a ragged record.
            let (code, key, cell, cells) = (
                r.below(12),
                r.below(GRID_KEYS),
                r.below(CELLS),
                1 + r.below(CELLS),
            );
            ops.push(match (code, ops.last()) {
                (3, Some(&prev)) => prev,
                (0..3, _) => Op::Grid(true, key, cell, cells),
                (10 | 11, _) => Op::Ragged(code == 10, r.below(GRID), r.below(5)),
                _ => Op::Grid(false, key, cell, 1 + cells % 2),
            });
        }
        let mut events = Vec::new();
        let leader = r.chance(0.5);
        // At most one kill or black hole: the cluster takes one unrebuilt
        // failure at a time, and a black hole beside a dead replica leaves
        // an RF 2 object no reachable route.
        match r.below(4) {
            0 => {}
            3 => events.push((r.index(n + 1), Event::BlackHole(leader))),
            _ => {
                let at = r.index(n + 1);
                events.push((at, Event::Kill(leader)));
                if r.chance(0.5) {
                    events.push((at + 1 + r.index(n + 1 - at), Event::Rebuild));
                }
            }
        }
        for (most, event) in [
            (3, Event::Rot(0)),
            (2, Event::Aggregate),
            (2, Event::Scrub),
            (1, Event::Foreign(0)),
        ] {
            for _ in 0..r.below(most + 1) {
                let event = match event {
                    Event::Rot(_) => Event::Rot(r.below(GRID + 1)),
                    Event::Foreign(_) => Event::Foreign(r.below(GRID_KEYS)),
                    event => event,
                };
                events.push((r.index(n + 1), event));
            }
        }
        events.sort_by_key(|&(at, _)| at);
        let contrast = match (arm, r.below(3)) {
            (Arm::Offloaded(1..), 2) => Contrast::CacheOff,
            (Arm::Serial, _) | (_, 1) => Contrast::Paced,
            _ => Contrast::Serial,
        };
        let mut tape = Tape {
            arm,
            rf: 2 + r.index(2),
            qd: 1 << r.index(6),
            budget: 1 + r.below(10) as u32,
            delay: SimDuration::from_micros(r.below(5_000)),
            lanes: r.next_u64() as u32,
            paced: false,
            ops,
            events,
            contrast,
        };
        tape.single_fault();
        tape
    }

    /// Drops every rot between the kill and its rebuild. There it would
    /// hit a survivor of an object that already lost a replica: on RF 2 a
    /// double fault no scrub can repair (production raises it as an
    /// unrepaired RAS event), and a rebuild would stream the rotted bytes
    /// under fresh checksums. Before the kill a rot aims at the replica
    /// the kill will take, where the object has one (`Bed::rot`).
    fn single_fault(&mut self) {
        let at = |want: fn(&Event) -> bool| self.events.iter().find(|(_, e)| want(e)).map(|e| e.0);
        let kill = at(|e| matches!(e, Event::Kill(_)));
        let rebuild = at(|e| *e == Event::Rebuild).filter(|&b| kill.is_some_and(|k| b >= k));
        let outside = |i| kill.is_none_or(|k| i < k || rebuild.is_some_and(|b| i > b));
        self.events
            .retain(|&(i, e)| !matches!(e, Event::Rot(_)) || outside(i));
    }

    /// The tape on its contrast arm.
    pub fn contrasted(&self) -> Tape {
        let mut t = self.clone();
        match (self.contrast, self.arm) {
            (Contrast::Serial, Arm::Ring) => t.arm = Arm::Serial,
            (Contrast::Serial, _) => t.arm = Arm::OffloadedSerial,
            (Contrast::Paced, _) => t.paced = true,
            (Contrast::CacheOff, _) => t.arm = Arm::Offloaded(0),
        }
        t
    }

    fn policy(&self) -> RetryPolicy {
        RetryPolicy {
            budget: self.budget,
            ..RetryPolicy::default()
        }
    }

    /// Whether every op must succeed: no black hole, and a retry ladder
    /// whose deadlines outlast the map push's delay.
    pub fn strict(&self) -> bool {
        let ladder = self
            .policy()
            .leg_deadline
            .saturating_mul(self.budget as u64);
        let black_hole = self
            .events
            .iter()
            .any(|(_, e)| matches!(e, Event::BlackHole(_)));
        !black_hole && ladder > self.delay
    }

    /// Runs the tape twice, holds the runs bit-identical, runs its
    /// contrast arm, and returns the first run.
    pub fn check(&self) -> Run {
        let a = self.run();
        assert!(a == self.run(), "the tape's replay diverged");
        let b = self.contrasted().run();
        if self.contrast == Contrast::Paced && self.strict() {
            assert_eq!(
                (b.scrub, b.repaired, &b.fingerprints),
                (a.scrub, a.repaired, &a.fingerprints),
                "pacing changed what the scrubs repaired"
            );
        }
        a
    }

    /// Runs the tape once in a fresh world, holding every invariant of the
    /// module doc.
    pub fn run(&self) -> Run {
        let mut bed = Bed::new(self);
        let queue = match self.arm {
            Arm::Offloaded(_) => self.qd,
            _ => 1,
        };
        let mut events = self.events.iter().peekable();
        for (q, start) in (0..self.ops.len()).step_by(queue).enumerate() {
            while let Some(&(_, e)) = events.next_if(|(at, _)| *at <= start) {
                bed.fire(e);
            }
            bed.issue(q, start..(start + queue).min(self.ops.len()));
        }
        events.for_each(|&(_, e)| bed.fire(e));
        bed.drain();
        bed.finish()
    }
}

/// The client a tape runs on.
enum Client {
    Host(DaosClient),
    Dpu(DpuClient),
}

/// `$e` with `$c` bound to the client, whichever it is.
macro_rules! either {
    ($client:expr, $c:ident => $e:expr) => {
        match $client {
            Client::Host($c) => $e,
            Client::Dpu($c) => $e,
        }
    };
}

impl Client {
    fn obj(&mut self) -> &mut dyn ObjectClient {
        either!(self, c => c)
    }
}

/// A tape's world while it runs.
struct Bed<'t> {
    tape: &'t Tape,
    f: Fabric,
    cl: EngineCluster,
    c: Client,
    o: Oracle,
    now: SimTime,
    /// The replica the tape's kill or black hole takes, and whether its
    /// kill is still to come.
    victim: usize,
    kill_ahead: bool,
    /// Per object, the dkey last written.
    last: [Option<u64>; GRID as usize + 1],
    /// Records rotted that the oracle has not yet seen repaired.
    rotted: Vec<RecordKey>,
    rots: u64,
    repaired: u64,
    /// The host ring, the ops in it not yet settled, and the first epoch
    /// they take: aggregation stays below it.
    ring: OpRing,
    in_ring: Vec<ClientOp>,
    floor: Epoch,
    /// Every op's issue instant, and its result once settled.
    issued: Vec<SimTime>,
    results: Vec<ClientOpResult>,
}

impl<'t> Bed<'t> {
    /// The tape's world with the first half of every grid dkey written,
    /// write `k` to dkey `k`, as serial calls.
    fn new(tape: &'t Tape) -> Self {
        let w = World {
            jobs: 2,
            ssds: 2,
            storage_cores: 48,
            seed: 29,
            ..world(4, tape.rf)
        };
        let (mut f, mut cl, mut c) = match tape.arm {
            Arm::Ring | Arm::Serial => {
                let (f, cl, c) = w.build();
                (f, cl, Client::Host(c))
            }
            _ => {
                let lanes = vec![DpuTenantSpec::unlimited("t"), DpuTenantSpec::unlimited("u")];
                let (f, cl, mut c) = w.build_offloaded(lanes);
                if let Arm::Offloaded(cache @ 1..) = tape.arm {
                    c.enable_read_cache(2 * cache).unwrap();
                }
                (f, cl, Client::Dpu(c))
            }
        };
        either!(&mut c, c => c.set_retry_policy(tape.policy()));
        if tape.paced {
            cl.set_service_budget(BgService::Scrub, QosLimits::bytes_per_sec(48 << 10));
            cl.set_service_budget(BgService::Rebuild, QosLimits::bytes_per_sec(256 << 10));
        }
        let mut o = match tape.strict() {
            true => Oracle::new(tape.budget),
            false => Oracle::lossy(tape.budget),
        };
        let mut t = SimTime::ZERO;
        for k in 0..GRID_KEYS {
            let (.., op) = Op::Grid(true, k, 0, CELLS / 2).client_op(k);
            t = instant(&o.serial(c.obj(), &mut f, &mut cl, t, op)).unwrap();
        }
        let fault = tape.events.iter().find_map(|&(_, e)| match e {
            Event::Kill(leader) => Some((leader, true)),
            Event::BlackHole(leader) => Some((leader, false)),
            _ => None,
        });
        let set = cl.map().route(&oid(GRID)).set;
        let victim = match fault {
            Some((false, _)) => set.iter().nth(1),
            _ => set.leader(),
        };
        Bed {
            tape,
            f,
            cl,
            c,
            o,
            now: t + SimDuration::from_millis(1),
            victim: victim.unwrap(),
            kill_ahead: fault.is_some_and(|(_, kill)| kill),
            last: [None, None, None, Some(GRID_KEYS - 1)],
            rotted: Vec::new(),
            rots: 0,
            repaired: 0,
            ring: OpRing::new(0, tape.qd),
            in_ring: Vec::new(),
            floor: Epoch(0),
            issued: Vec::new(),
            results: Vec::new(),
        }
    }

    /// Issues the tape's ops `ops`, queue `q`: to the host ring, as serial
    /// calls, or as one offloaded `execute_into`.
    fn issue(&mut self, q: usize, ops: Range<usize>) {
        let mut batch = Vec::with_capacity(ops.len());
        for i in ops {
            let (write, obj, dkey, op) = self.tape.ops[i].client_op(GRID_KEYS + i as u64);
            if write {
                self.last[obj as usize] = Some(dkey);
            }
            batch.push(op);
            self.issued.push(self.now);
        }
        let (f, cl, o, now) = (&mut self.f, &mut self.cl, &mut self.o, self.now);
        match (self.tape.arm, &mut self.c) {
            (Arm::Ring, Client::Host(c)) => {
                if self.in_ring.is_empty() {
                    self.floor = Epoch(o.epoch() + 1);
                }
                for op in batch {
                    self.ring.submit(c, f, cl, now, op.clone());
                    self.in_ring.push(op);
                }
            }
            (Arm::Serial | Arm::OffloadedSerial, c) => {
                for op in batch {
                    let r = serial_op(c.obj(), f, cl, now, op.clone());
                    o.settle(&op, &r);
                    self.results.push(r);
                }
            }
            (_, c) => {
                let (settle, mut out) = (batch.clone(), Vec::new());
                let job = (self.tape.lanes >> (q % 32)) as usize & 1;
                c.obj().execute_into(f, cl, now, job, &mut batch, &mut out);
                o.settle_all(&settle, &out);
                let done = out.iter().filter_map(instant).fold(now, SimTime::max);
                self.now = done + SimDuration::from_micros(10);
                self.results.append(&mut out);
                if let Client::Dpu(c) = c {
                    let (resident, carve) = c.cache_usage();
                    assert!(
                        resident <= carve,
                        "resident {resident} B over the {carve} B carve after queue {q}"
                    );
                }
            }
        }
    }

    /// Drains the host ring and settles what was in it.
    fn drain(&mut self) {
        if let (false, Client::Host(c)) = (self.in_ring.is_empty(), &mut self.c) {
            let from = self.results.len();
            self.ring
                .drain_into(c, &mut self.f, &mut self.cl, &mut self.results);
            self.o.settle_all(&self.in_ring, &self.results[from..]);
            self.in_ring.clear();
        }
    }

    /// Fires `event`. The host ring's ops settle when it drains: until
    /// then a rot stays declared to the oracle, and aggregation stays
    /// below the ring's first epoch. A foreign extent lands once the ring
    /// drains: a fetch in flight races it, and the epoch-at-submission
    /// contract gives a fetch it races no one right answer.
    fn fire(&mut self, event: Event) {
        let (f, cl, now, delay) = (&mut self.f, &mut self.cl, self.now, self.tape.delay);
        match event {
            Event::Kill(_) => {
                cl.kill_engine(self.victim).unwrap();
                self.kill_ahead = false;
                either!(&mut self.c, c => c.deliver_map(now + delay, cl.map().clone()));
            }
            Event::Rebuild => {
                self.now = cl.rebuild(f, now).unwrap();
                either!(&mut self.c, c => c.deliver_map(self.now + delay, cl.map().clone()));
            }
            Event::BlackHole(_) => cl.set_blackhole(self.victim, true),
            Event::Rot(obj) => self.rot(obj),
            Event::Aggregate => {
                let floor = (!self.in_ring.is_empty()).then_some(self.floor);
                self.now = now.max(cl.aggregate_cluster(now, CONT, floor).unwrap().1);
            }
            Event::Scrub => {
                let (out, at) = cl.scrub(f, now).unwrap();
                self.now = now.max(at);
                self.scrubbed(out);
            }
            Event::Foreign(key) => {
                self.drain();
                let (grid, cl) = (oid(GRID), &mut self.cl);
                let (stamp, data) = (
                    cl.map().version(),
                    stamped(grid, 0, FOREIGN, (CELLS * CELL) as usize),
                );
                for eng in cl.map().route(&grid).set.iter() {
                    let (dkey, akey, kind) = (
                        DKey::from_u64(key),
                        AKey::from_str("data"),
                        ValueKind::Array { offset: 0 },
                    );
                    let arrival = Arrival { stamp, at: now };
                    let e = cl.engine_mut(eng);
                    e.update(
                        arrival,
                        CONT,
                        grid,
                        dkey,
                        akey,
                        kind,
                        Epoch(1),
                        data.clone(),
                    )
                    .unwrap();
                }
                self.o.foreign(array_key(grid, key), Epoch(1), 0, data);
            }
        }
    }

    /// Rots object `obj`'s last-written record on the replica the tape's
    /// kill will take, if it holds one (it dies anyway), or else on the
    /// first in route order: one fault per object between scrubs.
    fn rot(&mut self, obj: u64) {
        let Some(dkey) = self.last[obj as usize] else {
            return;
        };
        let key = array_key(oid(obj), dkey);
        let set = self.cl.map().route(&key.oid).set;
        let on = match self.kill_ahead && set.contains(self.victim) {
            true => self.victim,
            false => set.leader().unwrap(),
        };
        if self.cl.engine_mut(on).corrupt_newest_extent(&key) {
            self.o.rot(key.clone());
            self.rotted.push(key);
            self.rots += 1;
        }
    }

    /// Books a scrub pass, which repairs all it finds; with the ring
    /// drained, the oracle learns the rotted records are whole again.
    fn scrubbed(&mut self, out: ScrubOutcome) {
        assert_eq!(
            out.mismatches_found, out.mismatches_repaired,
            "a scrub left a mismatch"
        );
        self.repaired += out.mismatches_repaired;
        if self.in_ring.is_empty() {
            self.rotted.drain(..).for_each(|k| self.o.repair(&k));
        }
    }

    /// The ladder bound over every op, the closing scrub passes, and the
    /// read-backs: through the client, and on the offloaded client once
    /// more with its cache torn down.
    fn finish(mut self) -> Run {
        // (budget + 1) deadlines plus a refresh and a capped backoff per
        // rung, and ordinary data-plane time.
        let p = self.tape.policy();
        let rung = p.leg_deadline + p.refresh_rtt + p.backoff_cap;
        let worst = rung.saturating_mul(p.budget as u64 + 1) + SimDuration::from_millis(50);
        let mut ops = Vec::new();
        for (i, (r, &at)) in self.results.drain(..).zip(&self.issued).enumerate() {
            let done = instant(&r);
            assert!(
                done.is_none_or(|d| d < at + worst),
                "op {i} overran the ladder: {done:?}"
            );
            self.now = self.now.max(done.unwrap_or(at));
            ops.push(match r {
                ClientOpResult::Fetch(Ok((b, _))) => (done, None, Some(b)),
                ClientOpResult::Update(Err(e)) | ClientOpResult::Fetch(Err(e)) => {
                    (done, Some(e), None)
                }
                ClientOpResult::Update(Ok(_)) => (done, None, None),
            });
        }
        let (f, cl) = (&mut self.f, &mut self.cl);
        let (scrub, scrubbed) = cl.scrub(f, self.now + SimDuration::from_millis(1)).unwrap();
        let before = cl.scrub_stats();
        let (second, end) = cl.scrub(f, scrubbed).unwrap();
        let after = cl.scrub_stats();
        assert_eq!(
            second.mismatches_found, 0,
            "scrub failed to converge: {second:?}"
        );
        assert!(after.chunks_compared > before.chunks_compared);
        assert_eq!(
            after.scanned_bytes, before.scanned_bytes,
            "a clean pass scanned payload bytes"
        );
        let mut fingerprints = Vec::new();
        for obj in 0..=GRID {
            let set = cl.map().route(&oid(obj)).set;
            let fps: Vec<u64> = set
                .iter()
                .map(|s| cl.engine(s).object_fingerprint(oid(obj)))
                .collect();
            assert!(
                fps.windows(2).all(|w| w[0] == w[1]),
                "object {obj}'s replicas diverge: {fps:?}"
            );
            fingerprints.extend(fps);
        }
        self.scrubbed(scrub);
        let (mut f, mut cl, at) = (self.f, self.cl, end + SimDuration::from_secs(1));
        self.o.check_world(self.c.obj(), &mut f, &mut cl, at);
        let retry = either!(&self.c, c => c.retry_stats());
        let cache = match &mut self.c {
            Client::Host(_) => DpuCacheStats::default(),
            Client::Dpu(c) => {
                let stats = c.cache_stats();
                if !matches!(self.tape.arm, Arm::Offloaded(1..)) {
                    assert_eq!(
                        stats,
                        DpuCacheStats::default(),
                        "no cache, yet cache counters"
                    );
                }
                c.disable_read_cache();
                self.o.check_world(c, &mut f, &mut cl, at);
                stats
            }
        };
        let (failed, fences, rots, repaired) =
            (self.o.failed, cl.fences(), self.rots, self.repaired);
        Run {
            ops,
            retry,
            fences,
            failed,
            cache,
            rots,
            repaired,
            scrub,
            scrubbed,
            fingerprints,
        }
    }
}

/// Checks the tapes of `seeds` in order and sums what they reached. The
/// first failing seed panics with its tape, shrunk.
pub fn sweep(seeds: impl IntoIterator<Item = u64>) -> Coverage {
    let mut cov = Coverage::default();
    for seed in seeds {
        let tape = Tape::draw(seed);
        let run = panic::catch_unwind(AssertUnwindSafe(|| tape.check())).unwrap_or_else(|e| {
            let why = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()));
            panic!(
                "seed {seed} fails ({}); shrunk: {:#?}",
                why.unwrap_or_default(),
                shrink(tape.clone())
            )
        });
        cov.cache.merge(run.cache);
        cov.failed += run.failed;
        cov.rot_repairs += if run.rots > 0 { run.repaired } else { 0 };
        cov.fences += run.fences;
        let arm = match tape.arm {
            Arm::Offloaded(1..) => Arm::Offloaded(1),
            arm => arm,
        };
        cov.arms.insert((arm, tape.rf));
    }
    cov
}

/// Halve and retry: cuts runs of ops, half the tape first, keeping each
/// cut the tape still fails under, then single events the same way.
fn shrink(mut tape: Tape) -> Tape {
    // The panic hook is process-wide: while a failing tape shrinks, no
    // panic prints, so only the sweep's own report names the failure.
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let fails = |t: &mut Tape| {
        t.single_fault();
        panic::catch_unwind(AssertUnwindSafe(|| t.check())).is_err()
    };
    let mut size = tape.ops.len() / 2;
    while size > 0 {
        let (mut i, mut cut) = (0, false);
        while i < tape.ops.len() {
            let (mut t, gone) = (tape.clone(), i..(i + size).min(tape.ops.len()));
            t.ops.drain(gone.clone());
            for (at, _) in &mut t.events {
                *at = if *at >= gone.end {
                    *at - gone.len()
                } else {
                    (*at).min(gone.start)
                };
            }
            match fails(&mut t) {
                true => (tape, cut) = (t, true),
                false => i += size,
            }
        }
        size /= if cut { 1 } else { 2 };
    }
    let mut i = 0;
    while i < tape.events.len() {
        let mut t = tape.clone();
        t.events.remove(i);
        match fails(&mut t) {
            true => tape = t,
            false => i += 1,
        }
    }
    panic::set_hook(hook);
    tape
}
