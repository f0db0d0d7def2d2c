//! Equivalence proof for the booking-core fast path: the ring-buffer
//! `IntervalBook` with its O(1) tail-append shortcut must produce grants
//! bit-identical to the original linear implementation for *every* booking
//! pattern — steady-state appends, same-instant bursts, out-of-order
//! backfills and long idle jumps that cross the prune horizon.
//!
//! The reference below is a faithful copy of the seed's `Vec`-based
//! algorithm (gap scan from `partition_point`, drain-based prune behind the
//! same 64-span gate). Randomized patterns come from `SimRng` so failures
//! replay deterministically from the printed seed.

use proptest::prelude::*;
use ros2_sim::{BandwidthServer, ServerPool, SimDuration, SimRng, SimTime};

/// Prune slack mirrored from `resources.rs`.
const PRUNE_SLACK_NS: u64 = 500_000_000;

/// The seed implementation of the booking discipline, kept verbatim as the
/// oracle.
#[derive(Clone, Default)]
struct RefBook {
    spans: Vec<(u64, u64)>,
}

impl RefBook {
    fn earliest(&self, from: u64, dur: u64) -> (u64, usize) {
        let mut idx = self.spans.partition_point(|&(_, end)| end <= from);
        let mut candidate = from;
        while idx < self.spans.len() {
            let (start, end) = self.spans[idx];
            if candidate + dur <= start {
                return (candidate, idx);
            }
            candidate = candidate.max(end);
            idx += 1;
        }
        (candidate, idx)
    }

    fn book(&mut self, start: u64, dur: u64, idx: usize) {
        let end = start + dur;
        let prev = idx > 0 && self.spans[idx - 1].1 == start;
        let next = idx < self.spans.len() && self.spans[idx].0 == end;
        match (prev, next) {
            (true, true) => {
                self.spans[idx - 1].1 = self.spans[idx].1;
                self.spans.remove(idx);
            }
            (true, false) => self.spans[idx - 1].1 = end,
            (false, true) => self.spans[idx].0 = start,
            (false, false) => self.spans.insert(idx, (start, end)),
        }
    }

    fn prune(&mut self, cutoff: u64) {
        if self.spans.len() < 64 {
            return;
        }
        let keep_from = self.spans.partition_point(|&(_, end)| end < cutoff);
        if keep_from > 0 {
            self.spans.drain(0..keep_from);
        }
    }
}

/// Reference bandwidth pipe re-implementing the seed `transmit` exactly.
struct RefPipe {
    rate: u64,
    book: RefBook,
    high_water: u64,
}

impl RefPipe {
    fn new(rate: u64) -> Self {
        RefPipe {
            rate,
            book: RefBook::default(),
            high_water: 0,
        }
    }

    fn transmit(&mut self, now: u64, bytes: u64) -> (u64, u64) {
        let dur = SimDuration::for_bytes(bytes, self.rate).as_nanos();
        let (start, idx) = self.book.earliest(now, dur);
        self.book.book(start, dur, idx);
        self.high_water = self.high_water.max(now);
        self.book
            .prune(self.high_water.saturating_sub(PRUNE_SLACK_NS));
        (start, start + dur)
    }
}

/// Reference k-server pool re-implementing the seed `submit` exactly.
struct RefPool {
    books: Vec<RefBook>,
    high_water: u64,
}

impl RefPool {
    fn new(servers: usize) -> Self {
        RefPool {
            books: vec![RefBook::default(); servers],
            high_water: 0,
        }
    }

    fn submit(&mut self, now: u64, dur: u64) -> (u64, u64) {
        let mut best: Option<(u64, usize, usize)> = None;
        for (s, book) in self.books.iter().enumerate() {
            let (start, idx) = book.earliest(now, dur);
            if best.is_none_or(|(b, _, _)| start < b) {
                best = Some((start, s, idx));
                if start == now {
                    break;
                }
            }
        }
        let (start, server, idx) = best.expect("non-empty pool");
        self.books[server].book(start, dur, idx);
        self.high_water = self.high_water.max(now);
        self.books[server].prune(self.high_water.saturating_sub(PRUNE_SLACK_NS));
        (start, start + dur)
    }
}

/// Draws the next submission instant: mostly forward progress (the fast
/// path), with same-instant bursts, bounded out-of-order backfills and
/// occasional long idle jumps that force pruning.
fn next_instant(rng: &mut SimRng, now: u64) -> u64 {
    match rng.below(100) {
        0..=59 => now + rng.below(200_000), // advance ≤200 us
        60..=74 => now,                     // burst at same instant
        75..=89 => now.saturating_sub(rng.below(100_000)), // backfill ≤100 us
        90..=97 => now + 1_000_000 + rng.below(5_000_000), // 1-6 ms gap
        _ => now + 600_000_000 + rng.below(200_000_000), // cross the prune horizon
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `BandwidthServer` grants match the seed algorithm over thousands of
    /// randomized bookings, contended and not.
    #[test]
    fn bandwidth_server_matches_reference(seed in any::<u64>(), rate_mb in 1u64..20_000) {
        let rate = rate_mb * 1_000_000;
        let mut rng = SimRng::new(seed);
        let mut fast = BandwidthServer::new(rate);
        let mut oracle = RefPipe::new(rate);
        let mut now = 0u64;
        for step in 0..3_000u64 {
            now = next_instant(&mut rng, now);
            let bytes = 1 + rng.below(2 << 20);
            let g = fast.transmit(SimTime::from_nanos(now), bytes);
            let (ref_start, ref_finish) = oracle.transmit(now, bytes);
            prop_assert_eq!(
                (g.start.as_nanos(), g.finish.as_nanos()),
                (ref_start, ref_finish),
                "seed {seed} step {step}: grant diverged at t={now}"
            );
        }
        // Steady-state patterns must actually exercise the shortcut.
        prop_assert!(fast.stats().bookings == 3_000);
        prop_assert!(fast.stats().fastpath_hits > 0, "fast path never taken");
    }

    /// `ServerPool` grants match the seed algorithm for every pool size and
    /// booking pattern.
    #[test]
    fn server_pool_matches_reference(seed in any::<u64>(), servers in 1usize..12) {
        let mut rng = SimRng::new(seed);
        let mut fast = ServerPool::new(servers);
        let mut oracle = RefPool::new(servers);
        let mut now = 0u64;
        for step in 0..3_000u64 {
            now = next_instant(&mut rng, now);
            let dur = 1 + rng.below(500_000);
            let g = fast.submit(SimTime::from_nanos(now), SimDuration::from_nanos(dur));
            let (ref_start, ref_finish) = oracle.submit(now, dur);
            prop_assert_eq!(
                (g.start.as_nanos(), g.finish.as_nanos()),
                (ref_start, ref_finish),
                "seed {seed} step {step}: grant diverged at t={now} ({servers} servers)"
            );
        }
        prop_assert!(fast.stats().bookings == 3_000);
    }

    /// Batched tail booking (`book_batch`) equals the per-segment loop it
    /// replaces whenever its precondition (pipe idle at/after start) holds.
    #[test]
    fn book_batch_matches_segment_loop(seed in any::<u64>(), segs in 1u64..24) {
        let rate = 12_500_000_000; // the 100 Gbps port
        let mut rng = SimRng::new(seed);
        let seg_bytes = 128 * 1024;
        let rem_bytes = 1 + rng.below(seg_bytes);
        let start = rng.below(1_000_000_000);

        // Per-segment loop on one pipe.
        let mut loop_pipe = BandwidthServer::new(rate);
        let mut finish = 0u64;
        let total = (segs - 1) * seg_bytes + rem_bytes;
        let mut remaining = total;
        while remaining > 0 {
            let chunk = remaining.min(seg_bytes);
            let g = loop_pipe.transmit(SimTime::from_nanos(start), chunk);
            finish = finish.max(g.finish.as_nanos());
            remaining -= chunk;
        }

        // One closed-form booking on another.
        let mut batch_pipe = BandwidthServer::new(rate);
        let dur = batch_pipe.service_time(seg_bytes) * (segs - 1)
            + batch_pipe.service_time(rem_bytes);
        let g = batch_pipe.book_batch(
            SimTime::from_nanos(start),
            SimTime::from_nanos(start),
            dur,
            total,
            segs,
        );
        prop_assert_eq!(g.finish.as_nanos(), finish, "seed {seed}: {segs} segments");
        prop_assert_eq!(batch_pipe.bytes_served(), loop_pipe.bytes_served());
        prop_assert_eq!(batch_pipe.busy_time(), loop_pipe.busy_time());
        prop_assert_eq!(batch_pipe.backlog(SimTime::ZERO), loop_pipe.backlog(SimTime::ZERO));
    }
}

/// Long steady-state run: the ring buffer must keep pruning (bounded span
/// count) while grants stay exact; ~100 % of bookings take the fast path.
#[test]
fn steady_state_is_fastpath_and_bounded() {
    let mut pipe = BandwidthServer::new(1_000_000_000);
    let mut oracle = RefPipe::new(1_000_000_000);
    let mut now = 0u64;
    for _ in 0..200_000u64 {
        // Spaced-out bookings: each arrives after the pipe drained.
        now += 20_000;
        let g = pipe.transmit(SimTime::from_nanos(now), 1000);
        let (rs, rf) = oracle.transmit(now, 1000);
        assert_eq!((g.start.as_nanos(), g.finish.as_nanos()), (rs, rf));
    }
    let stats = pipe.stats();
    assert_eq!(stats.bookings, 200_000);
    assert_eq!(
        stats.fastpath_hits, 200_000,
        "every spaced booking must take the tail-append shortcut"
    );
    assert!(stats.hit_rate() > 0.99);
}
