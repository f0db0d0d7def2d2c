//! Queueing-resource primitives.
//!
//! Every contended piece of hardware in ROS2 — links, NIC pipes, CPU core
//! pools, NVMe channels, tenant rate limits — is modelled by one of these
//! primitives. They are *time calculators*: callers hand them the current
//! instant plus a demand and get back `(start, finish)` times; the resource
//! updates its own occupancy so queueing delay emerges naturally. None of
//! them schedule events themselves, which keeps engine state machines pure
//! and unit-testable.

use std::collections::VecDeque;

use crate::time::{SimDuration, SimTime};

/// A grant issued by a resource: when service began and when it completes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Grant {
    /// When the demand actually started being served (≥ request time).
    pub start: SimTime,
    /// When service completes.
    pub finish: SimTime,
}

impl Grant {
    /// Time spent waiting before service began.
    #[cfg(test)]
    fn queue_delay(&self, requested: SimTime) -> SimDuration {
        self.start.saturating_since(requested)
    }
    /// Total latency from request to completion.
    pub fn latency(&self, requested: SimTime) -> SimDuration {
        self.finish.saturating_since(requested)
    }
}

/// How far behind the maximum observed submission time a resource keeps
/// booking history. Submissions may arrive out of order by up to one
/// end-to-end operation span; 500 ms of slack is orders of magnitude beyond
/// any path in the models.
const PRUNE_SLACK: SimDuration = SimDuration::from_millis(500);

/// Booking and fast-path counters kept by every gap-scheduled resource.
///
/// A *booking* is one interval placement; a *fast-path hit* is a booking
/// that resolved in O(1) at the tail of the book — either an idle-tail
/// append (the resource was idle at/after the requested instant) or a
/// queue-at-tail placement (the request fell inside the last interval, so
/// no earlier gap could exist) — with no search or gap scan. The
/// steady-state hit rate is the headline number for simulator throughput:
/// 100 % on strictly sequential streams, >90 % required on the uncontended
/// sweeps, which is what makes each simulated I/O amortized O(1).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ResourceStats {
    /// Total interval placements.
    pub bookings: u64,
    /// Placements that took the O(1) tail-append shortcut.
    pub fastpath_hits: u64,
}

impl ResourceStats {
    /// Records one booking.
    pub fn record(&mut self, fast: bool) {
        self.bookings += 1;
        if fast {
            self.fastpath_hits += 1;
        }
    }

    /// Records `n` bookings at once (a batched placement).
    fn record_batch(&mut self, n: u64, fast: bool) {
        self.bookings += n;
        if fast {
            self.fastpath_hits += n;
        }
    }

    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: ResourceStats) {
        self.bookings += other.bookings;
        self.fastpath_hits += other.fastpath_hits;
    }

    /// Fraction of bookings that took the fast path (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.bookings == 0 {
            0.0
        } else {
            self.fastpath_hits as f64 / self.bookings as f64
        }
    }
}

/// A sorted list of non-overlapping busy intervals with gap placement —
/// the work-conserving booking discipline shared by every resource here.
///
/// Engine state machines compute an operation's whole timeline in one call,
/// so a resource can receive a reservation for a *future* instant (e.g. a
/// response sent when media completes) before a request for an *earlier*
/// instant arrives from the next operation. Plain FIFO occupancy would make
/// the early request wait behind the future reservation even though the
/// resource is idle in between, serializing entire pipelines. Interval
/// booking places each demand in the earliest feasible gap instead.
///
/// Storage is a ring buffer (`VecDeque`): steady-state bookings append at
/// the tail in O(1) (detected without scanning — see [`Self::tail_free`]),
/// and pruning drained history pops from the front in O(1), so the
/// common-path cost per booking is constant. The search and gap scan only
/// run when a demand arrives while later intervals are already booked
/// (contention or out-of-order reservations); the search starts from the
/// tail, where such demands land (see [`Self::first_ending_after`]), and
/// placements are bit-identical to the original linear implementation.
#[derive(Clone, Debug, Default)]
struct IntervalBook {
    /// Sorted, non-overlapping `(start, end)` busy intervals in ns.
    spans: VecDeque<(u64, u64)>,
}

impl IntervalBook {
    /// End of the last booked interval (0 when empty). The book is idle at
    /// and after every instant ≥ this, so a demand with `from >=
    /// tail_free()` takes the O(1) tail-append fast path.
    fn tail_free(&self) -> u64 {
        self.spans.back().map_or(0, |&(_, end)| end)
    }

    /// Start of the last booked interval (0 when empty). A nonzero demand
    /// with `from >= last_start()` takes one of the O(1) tail fast paths
    /// of [`Self::earliest`] and starts at `max(from, tail_free())`.
    fn last_start(&self) -> u64 {
        self.spans.back().map_or(0, |&(start, _)| start)
    }

    /// Earliest feasible start ≥ `from` for `dur`, plus the insertion
    /// index, plus whether the placement resolved via an O(1) tail
    /// shortcut (the fast-path flag resources feed into [`ResourceStats`]).
    fn earliest(&self, from: u64, dur: u64) -> (u64, usize, bool) {
        // Fast paths, both equivalent to the scan below but O(1):
        //
        // * idle tail — every interval ends at or before `from`, so the
        //   demand starts at `from`;
        // * queue at tail — `from` falls at or inside the *last* interval
        //   (`from >= last.start`). Earlier intervals all end before
        //   `last.start <= from`, so the scan would start at the last
        //   interval, find no gap (a nonzero demand at `candidate >=
        //   last.start` cannot fit before it), and append at its end.
        //   (`dur == 0` is excluded: a zero-length demand at exactly
        //   `last.start` *does* fit in front, which the scan honours.)
        if let Some(&(last_start, last_end)) = self.spans.back() {
            if last_end <= from {
                return (from, self.spans.len(), true);
            }
            if from >= last_start && dur > 0 {
                return (last_end, self.spans.len(), true);
            }
        } else {
            return (from, 0, true);
        }
        let mut idx = self.first_ending_after(from);
        let mut candidate = from;
        while idx < self.spans.len() {
            let (start, end) = self.spans[idx];
            if candidate + dur <= start {
                return (candidate, idx, false);
            }
            candidate = candidate.max(end);
            idx += 1;
        }
        (candidate, idx, false)
    }

    /// Index of the first interval ending after `from`, searched from the
    /// tail: gallop back 1, 2, 4, … intervals until one ends at or before
    /// `from`, then bisect that bracket. `end <= from` is monotone over the
    /// sorted, non-overlapping book, so this is the index a binary search
    /// of the whole book returns, found in O(log d) probes for a demand d
    /// intervals behind the tail. Out-of-order demands land a few intervals
    /// from the tail of books that hold up to `PRUNE_SLACK` of history.
    ///
    /// The caller guarantees the last interval ends after `from`.
    ///
    /// Kept out of line: inlined, it makes [`Self::earliest`] too large to
    /// inline into the booking calls, and every fast-path booking then pays
    /// a call (about 1.6× the benchmark's `sim.book.host_ns`).
    #[inline(never)]
    fn first_ending_after(&self, from: u64) -> usize {
        let ends_by = |i: usize| self.spans[i].1 <= from;
        // Invariant: the answer lies in `lo..=hi`, and interval `hi` ends
        // after `from`.
        let mut hi = self.spans.len() - 1;
        let mut step = 1;
        let mut lo = loop {
            match hi.checked_sub(step) {
                Some(probe) if ends_by(probe) => break probe + 1,
                Some(probe) => {
                    hi = probe;
                    step *= 2;
                }
                None => break 0,
            }
        };
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if ends_by(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Books `[start, start+dur)` at insertion point `idx`, merging with
    /// touching neighbours to keep the list short.
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

    /// Drops intervals that ended before `cutoff` by popping from the ring
    /// buffer's front — O(1) per dropped interval, no memmove.
    fn prune(&mut self, cutoff: u64) {
        if self.spans.len() < 64 {
            return;
        }
        while let Some(&(_, end)) = self.spans.front() {
            if end < cutoff {
                self.spans.pop_front();
            } else {
                break;
            }
        }
    }

    fn clear(&mut self) {
        self.spans.clear();
    }
}

/// A gap-scheduled store-and-forward bandwidth pipe (link, NIC port).
///
/// Transfers serialize at `bytes_per_sec`, each occupying the pipe for
/// exactly `bytes / rate`, placed in the earliest feasible idle window at
/// or after arrival (see [`IntervalBook`] for why). Callers that need flows
/// to interleave segment large transfers first (the fabric layer does).
#[derive(Clone, Debug)]
pub struct BandwidthServer {
    bytes_per_sec: u64,
    book: IntervalBook,
    bytes_served: u64,
    busy_time: SimDuration,
    high_water: SimTime,
    stats: ResourceStats,
}

impl BandwidthServer {
    /// Creates a pipe with the given capacity in bytes per second.
    pub fn new(bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "zero-rate pipe");
        BandwidthServer {
            bytes_per_sec,
            book: IntervalBook::default(),
            bytes_served: 0,
            busy_time: SimDuration::ZERO,
            high_water: SimTime::ZERO,
            stats: ResourceStats::default(),
        }
    }

    /// Enqueues a transfer of `bytes`, returning its service window.
    pub fn transmit(&mut self, now: SimTime, bytes: u64) -> Grant {
        let dur = SimDuration::for_bytes(bytes, self.bytes_per_sec);
        let (start, idx, fast) = self.book.earliest(now.as_nanos(), dur.as_nanos());
        self.book.book(start, dur.as_nanos(), idx);
        self.stats.record(fast);
        self.bytes_served += bytes;
        self.busy_time += dur;
        self.high_water = self.high_water.max(now);
        let cutoff = self
            .high_water
            .as_nanos()
            .saturating_sub(PRUNE_SLACK.as_nanos());
        self.book.prune(cutoff);
        Grant {
            start: SimTime::from_nanos(start),
            finish: SimTime::from_nanos(start + dur.as_nanos()),
        }
    }

    /// The serialization time of `bytes` through this pipe (no booking).
    pub fn service_time(&self, bytes: u64) -> SimDuration {
        SimDuration::for_bytes(bytes, self.bytes_per_sec)
    }

    /// End of the last booked interval; the pipe is idle at and after every
    /// instant ≥ this. A demand submitted at or after `tail_free()` is
    /// guaranteed the tail-append fast path.
    pub fn tail_free(&self) -> SimTime {
        SimTime::from_nanos(self.book.tail_free())
    }

    /// Start of the last booked interval. A nonempty transfer submitted at
    /// or after it lands at the tail, at `max(now, tail_free())`, through
    /// the O(1) fast path — however much of the last interval is still to
    /// drain.
    pub fn last_start(&self) -> SimTime {
        SimTime::from_nanos(self.book.last_start())
    }

    /// Tail-append fast path for batched callers (the fabric's pipelined
    /// wire traversal): books one contiguous window `[start, start + dur)`
    /// standing for `segments` back-to-back per-segment bookings totalling
    /// `bytes` on-wire bytes, submitted at `submitted`.
    ///
    /// The caller must guarantee `start >= tail_free()` and that `dur` is
    /// the exact sum of the per-segment service times it replaces; both are
    /// what make the aggregate booking bit-identical to the per-segment
    /// loop (asserted in the fabric's equivalence tests).
    pub fn book_batch(
        &mut self,
        submitted: SimTime,
        start: SimTime,
        dur: SimDuration,
        bytes: u64,
        segments: u64,
    ) -> Grant {
        debug_assert!(
            start >= self.tail_free(),
            "book_batch caller must place the window at or after the tail"
        );
        self.book
            .book(start.as_nanos(), dur.as_nanos(), self.book.spans.len());
        self.stats.record_batch(segments, true);
        self.bytes_served += bytes;
        self.busy_time += dur;
        self.high_water = self.high_water.max(submitted);
        let cutoff = self
            .high_water
            .as_nanos()
            .saturating_sub(PRUNE_SLACK.as_nanos());
        self.book.prune(cutoff);
        Grant {
            start,
            finish: start + dur,
        }
    }

    /// Booking / fast-path counters.
    pub fn stats(&self) -> ResourceStats {
        self.stats
    }

    /// The earliest idle instant at or after `now`.
    pub fn next_free(&self, now: SimTime) -> SimTime {
        SimTime::from_nanos(self.book.earliest(now.as_nanos(), 0).0)
    }

    /// Time from `now` until the last current booking drains.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.tail_free().saturating_since(now)
    }

    /// Total bytes pushed through the pipe.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served
    }

    /// Cumulative busy time (for utilization reporting).
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// The configured rate in bytes per second.
    pub fn rate(&self) -> u64 {
        self.bytes_per_sec
    }

    /// Resets occupancy and counters to a fresh t=0 state (used between a
    /// preconditioning phase and a measured run).
    pub fn reset_timing(&mut self) {
        self.book.clear();
        self.bytes_served = 0;
        self.busy_time = SimDuration::ZERO;
        self.high_water = SimTime::ZERO;
        self.stats = ResourceStats::default();
    }
}

/// A pool of `k` identical servers with **gap-scheduled** (backfilling)
/// assignment.
///
/// Models CPU core pools (host, DPU ARM, storage xstreams) and NVMe channel
/// parallelism. Because engine state machines compute an operation's whole
/// timeline in one call, a pool can receive a reservation for a *future*
/// instant (e.g. a response sent when media completes) before it receives a
/// request for an *earlier* instant from the next operation. Plain
/// earliest-free-server assignment would make the early request queue
/// behind the future reservation even though the server sits idle in
/// between — serializing the entire pipeline. This pool instead books
/// per-server busy intervals and places each job in the earliest feasible
/// gap at or after its arrival, which is exactly how a work-conserving
/// scheduler would behave.
#[derive(Clone, Debug)]
pub struct ServerPool {
    /// Per-server booking lists.
    bookings: Vec<IntervalBook>,
    servers: usize,
    jobs_served: u64,
    busy_time: SimDuration,
    latest_free: SimTime,
    /// High-water mark of observed submission times (for pruning).
    high_water: SimTime,
    stats: ResourceStats,
}

impl ServerPool {
    /// Creates a pool of `servers` identical servers, all free at t=0.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "empty server pool");
        ServerPool {
            bookings: vec![IntervalBook::default(); servers],
            servers,
            jobs_served: 0,
            busy_time: SimDuration::ZERO,
            latest_free: SimTime::ZERO,
            high_water: SimTime::ZERO,
            stats: ResourceStats::default(),
        }
    }

    /// Submits a job needing `service` time; it runs in the earliest
    /// feasible gap at or after `now` across all servers.
    ///
    /// Each per-server probe is O(1) in steady state (the tail-append check
    /// in [`IntervalBook::earliest`]), and the scan stops at the first
    /// server that can start immediately, so an idle pool books in O(1).
    pub fn submit(&mut self, now: SimTime, service: SimDuration) -> Grant {
        let from = now.as_nanos();
        let dur = service.as_nanos();
        // (start, server, idx, fast)
        let mut best: Option<(u64, usize, usize, bool)> = None;
        for (s, book) in self.bookings.iter().enumerate() {
            let (start, idx, fast) = book.earliest(from, dur);
            if best.is_none_or(|(b, _, _, _)| start < b) {
                best = Some((start, s, idx, fast));
                if start == from {
                    break; // cannot do better than starting immediately
                }
            }
        }
        let (start_ns, server, idx, fast) = best.expect("pool is never empty");
        self.bookings[server].book(start_ns, dur, idx);
        self.stats.record(fast);

        self.jobs_served += 1;
        self.busy_time += service;
        let finish = SimTime::from_nanos(start_ns + dur);
        self.latest_free = self.latest_free.max(finish);
        self.high_water = self.high_water.max(now);
        let cutoff = self
            .high_water
            .as_nanos()
            .saturating_sub(PRUNE_SLACK.as_nanos());
        self.bookings[server].prune(cutoff);
        Grant {
            start: SimTime::from_nanos(start_ns),
            finish,
        }
    }

    /// The instant a zero-length job submitted at `now` could start (the
    /// earliest idle instant at or after `now`).
    pub fn next_free(&self, now: SimTime) -> SimTime {
        let from = now.as_nanos();
        let earliest = self
            .bookings
            .iter()
            .map(|book| book.earliest(from, 0).0)
            .min()
            .expect("pool is never empty");
        SimTime::from_nanos(earliest)
    }

    /// The instant *every* booking (including future ones) has drained.
    pub fn drain_time(&self, now: SimTime) -> SimTime {
        now.max(self.latest_free)
    }

    /// The number of servers in the pool.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Total jobs served.
    pub fn jobs_served(&self) -> u64 {
        self.jobs_served
    }

    /// Aggregate busy time across all servers.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Booking / fast-path counters.
    pub fn stats(&self) -> ResourceStats {
        self.stats
    }

    /// Resets all servers to free-at-zero and clears counters. The books
    /// keep their buffers, as a [`BandwidthServer`]'s does, so a run no
    /// longer than the one before it books without allocating.
    pub fn reset_timing(&mut self) {
        for book in &mut self.bookings {
            book.clear();
        }
        self.jobs_served = 0;
        self.busy_time = SimDuration::ZERO;
        self.latest_free = SimTime::ZERO;
        self.high_water = SimTime::ZERO;
        self.stats = ResourceStats::default();
    }
}

/// A token bucket for tenant rate limiting and QoS.
///
/// Tokens accrue at `rate_per_sec` up to `burst`; a request for `n` tokens is
/// granted at the earliest instant the bucket can cover it. Integer
/// nanosecond·token arithmetic keeps grants exact and monotone.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate_per_sec: u64,
    burst: u64,
    /// Token level ×1e9 (token-nanos) as of `updated`.
    level_tn: u128,
    updated: SimTime,
    granted: u64,
}

impl TokenBucket {
    /// Creates a bucket that refills at `rate_per_sec` with capacity `burst`,
    /// starting full.
    pub fn new(rate_per_sec: u64, burst: u64) -> Self {
        assert!(rate_per_sec > 0, "zero-rate bucket");
        assert!(burst > 0, "zero-burst bucket");
        TokenBucket {
            rate_per_sec,
            burst,
            level_tn: burst as u128 * 1_000_000_000,
            updated: SimTime::ZERO,
            granted: 0,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.updated).as_nanos() as u128;
        let cap = self.burst as u128 * 1_000_000_000;
        self.level_tn = (self.level_tn + dt * self.rate_per_sec as u128).min(cap);
        self.updated = self.updated.max(now);
    }

    /// Requests `tokens`, returning the earliest instant the grant holds.
    /// Requests larger than the burst are granted at the burst boundary
    /// (the bucket goes momentarily negative), preserving work conservation.
    ///
    /// Backlogged grants queue: a request that arrives while the bucket is
    /// still paying off an earlier grant waits from that grant's instant
    /// (`updated`), not from its own arrival — otherwise N concurrent
    /// requesters would each be charged one refill quantum from their own
    /// `now` and the bucket would admit N× its configured rate. (The PR 4
    /// QoS sweep caught exactly that: a 64 MiB/s tenant moving ~500 MiB/s
    /// under queue depth 8.)
    pub fn acquire(&mut self, now: SimTime, tokens: u64) -> SimTime {
        let from = now.max(self.updated);
        self.refill(from);
        let need = tokens as u128 * 1_000_000_000;
        let grant_at = if self.level_tn >= need {
            from
        } else {
            let deficit = need - self.level_tn;
            let wait_ns = deficit.div_ceil(self.rate_per_sec as u128) as u64;
            from + SimDuration::from_nanos(wait_ns)
        };
        self.refill(grant_at);
        self.level_tn = self.level_tn.saturating_sub(need);
        self.granted += tokens;
        grant_at
    }

    /// Current whole tokens available at `now` (read-only estimate).
    #[cfg(test)]
    fn available(&self, now: SimTime) -> u64 {
        let dt = now.saturating_since(self.updated).as_nanos() as u128;
        let cap = self.burst as u128 * 1_000_000_000;
        let level = (self.level_tn + dt * self.rate_per_sec as u128).min(cap);
        (level / 1_000_000_000) as u64
    }

    /// Total tokens granted.
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// The refill rate in tokens per second.
    pub fn rate(&self) -> u64 {
        self.rate_per_sec
    }
}

/// A QoS allocation: the rate/burst envelope a [`QosLane`] enforces.
///
/// Lifted from the DPU tenant manager (PR 4) into the simulation kernel so
/// foreground tenants and background services (rebuild, aggregation, scrub)
/// share one proven admission mechanism.
#[derive(Copy, Clone, Debug)]
pub struct QosLimits {
    /// Operations per second.
    pub ops_per_sec: u64,
    /// Bytes per second.
    pub bytes_per_sec: u64,
    /// Burst sizes (ops, bytes).
    pub burst: (u64, u64),
}

impl QosLimits {
    /// An effectively unlimited allocation. An unlimited lane never waits
    /// for tokens, so in-order arrivals are granted exactly at `now`. An
    /// arrival earlier than the lane's last grant is granted at that grant
    /// (buckets grant from `max(now, updated)`, see
    /// [`TokenBucket::acquire`]) and counts as throttled: an unlimited lane
    /// is a no-op in time only on a monotone arrival stream.
    pub fn unlimited() -> Self {
        QosLimits {
            ops_per_sec: u64::MAX / 2,
            bytes_per_sec: u64::MAX / 2,
            burst: (1 << 20, 1 << 40),
        }
    }

    /// A bytes-per-second budget with a one-second burst window and an
    /// effectively unbounded op rate — the natural shape for streaming
    /// background services paced by volume, not op count.
    pub fn bytes_per_sec(bytes_per_sec: u64) -> Self {
        QosLimits {
            ops_per_sec: u64::MAX / 2,
            bytes_per_sec,
            burst: (1 << 20, bytes_per_sec.max(1)),
        }
    }
}

/// A paced admission lane: paired op/byte token buckets plus the
/// accounting every caller previously duplicated. One I/O of `bytes` is
/// admitted at the later of the two buckets' grants.
#[derive(Clone, Debug)]
pub struct QosLane {
    /// The allocation the buckets were built from (kept for resets and
    /// observability).
    pub limits: QosLimits,
    ops_bucket: TokenBucket,
    bytes_bucket: TokenBucket,
    /// Admitted (ops, bytes).
    pub admitted: (u64, u64),
    /// Operations delayed by rate limiting.
    pub throttled: u64,
    /// Cumulative delay imposed by rate limiting.
    pub throttle_wait: SimDuration,
}

impl QosLane {
    /// Creates a lane with full buckets at t=0.
    pub fn new(limits: QosLimits) -> Self {
        QosLane {
            limits,
            ops_bucket: TokenBucket::new(limits.ops_per_sec, limits.burst.0),
            bytes_bucket: TokenBucket::new(limits.bytes_per_sec, limits.burst.1),
            admitted: (0, 0),
            throttled: 0,
            throttle_wait: SimDuration::ZERO,
        }
    }

    /// Admits one I/O of `bytes`, returning the instant it may proceed
    /// (later than `now` when rate-limited). Zero-byte ops are charged one
    /// byte so the byte bucket's backlog ordering still applies.
    pub fn admit(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let t_ops = self.ops_bucket.acquire(now, 1);
        let t_bytes = self.bytes_bucket.acquire(now, bytes.max(1));
        let grant = t_ops.max(t_bytes);
        self.admitted.0 += 1;
        self.admitted.1 += bytes;
        if grant > now {
            self.throttled += 1;
            self.throttle_wait += grant.saturating_since(now);
        }
        grant
    }

    /// Rebuilds the buckets full at t=0 and zeroes the counters (between a
    /// preconditioning phase and a measured run).
    pub fn reset_timing(&mut self) {
        *self = QosLane::new(self.limits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KIB: u64 = 1024;

    #[test]
    fn bandwidth_serializes_fifo() {
        let mut link = BandwidthServer::new(1_000_000_000); // 1 GB/s
        let t0 = SimTime::ZERO;
        let g1 = link.transmit(t0, 1_000_000); // 1 ms
        let g2 = link.transmit(t0, 1_000_000);
        assert_eq!(g1.start, t0);
        assert_eq!(g1.finish, SimTime::from_millis(1));
        assert_eq!(g2.start, SimTime::from_millis(1));
        assert_eq!(g2.finish, SimTime::from_millis(2));
        assert_eq!(g2.queue_delay(t0), SimDuration::from_millis(1));
    }

    #[test]
    fn bandwidth_idles_then_resumes() {
        let mut link = BandwidthServer::new(1_000_000_000);
        link.transmit(SimTime::ZERO, 1_000_000);
        // Arrives long after the pipe drained: no queueing.
        let g = link.transmit(SimTime::from_secs(1), 500_000);
        assert_eq!(g.start, SimTime::from_secs(1));
        assert_eq!(g.queue_delay(SimTime::from_secs(1)), SimDuration::ZERO);
        assert_eq!(link.bytes_served(), 1_500_000);
    }

    #[test]
    fn bandwidth_utilization_accumulates() {
        let mut link = BandwidthServer::new(KIB * KIB); // 1 MiB/s
        link.transmit(SimTime::ZERO, 512 * KIB);
        link.transmit(SimTime::from_secs(1), 256 * KIB);
        assert_eq!(link.busy_time(), SimDuration::from_millis(750));
    }

    #[test]
    fn pool_runs_k_jobs_in_parallel() {
        let mut pool = ServerPool::new(4);
        let svc = SimDuration::from_micros(10);
        let grants: Vec<_> = (0..8).map(|_| pool.submit(SimTime::ZERO, svc)).collect();
        // First four start immediately, next four queue behind them.
        for g in &grants[..4] {
            assert_eq!(g.start, SimTime::ZERO);
        }
        for g in &grants[4..] {
            assert_eq!(g.start, SimTime::ZERO + svc);
        }
        assert_eq!(pool.jobs_served(), 8);
    }

    #[test]
    fn pool_picks_earliest_free_server() {
        let mut pool = ServerPool::new(2);
        pool.submit(SimTime::ZERO, SimDuration::from_micros(100));
        pool.submit(SimTime::ZERO, SimDuration::from_micros(10));
        // Third job should land on the server free at 10 us, not 100 us.
        let g = pool.submit(SimTime::ZERO, SimDuration::from_micros(1));
        assert_eq!(g.start, SimTime::from_micros(10));
    }

    #[test]
    fn pool_backfills_idle_gaps_before_future_reservations() {
        let mut pool = ServerPool::new(1);
        // A future reservation arrives first (e.g. a response send booked
        // at media-completion time).
        let future = pool.submit(SimTime::from_millis(10), SimDuration::from_micros(100));
        assert_eq!(future.start, SimTime::from_millis(10));
        // An earlier request must be served in the idle gap, not after it.
        let early = pool.submit(SimTime::from_micros(1), SimDuration::from_micros(50));
        assert_eq!(early.start, SimTime::from_micros(1));
        assert!(early.finish < future.start);
        // A job too large for the gap goes after the reservation.
        let big = pool.submit(SimTime::from_micros(9_999), SimDuration::from_micros(500));
        assert_eq!(big.start, future.finish);
    }

    #[test]
    fn pool_merges_adjacent_bookings() {
        let mut pool = ServerPool::new(1);
        for i in 0..1000u64 {
            pool.submit(SimTime::from_micros(i), SimDuration::from_micros(1));
        }
        // Back-to-back jobs merge into one interval: throughput unaffected,
        // memory bounded.
        assert_eq!(pool.jobs_served(), 1000);
        assert_eq!(pool.drain_time(SimTime::ZERO), SimTime::from_micros(1000));
    }

    #[test]
    fn token_bucket_grants_burst_then_paces() {
        let mut tb = TokenBucket::new(1000, 100); // 1000 tok/s, burst 100
        let t0 = SimTime::ZERO;
        assert_eq!(tb.acquire(t0, 100), t0); // burst drains instantly
                                             // Next 10 tokens need 10 ms of refill.
        let grant = tb.acquire(t0, 10);
        assert_eq!(grant, SimTime::from_millis(10));
    }

    #[test]
    fn token_bucket_refills_to_capacity_only() {
        let mut tb = TokenBucket::new(1000, 50);
        tb.acquire(SimTime::ZERO, 50);
        // After 10 seconds the bucket holds at most `burst` tokens.
        assert_eq!(tb.available(SimTime::from_secs(10)), 50);
    }

    #[test]
    fn token_bucket_backlogged_grants_serialize_at_the_rate() {
        // 8 concurrent 10-token requests against a 1000 tok/s, burst-10
        // bucket: the first drains the burst; the rest must space out by a
        // full 10 ms refill each, not all land one quantum after t=0.
        let mut tb = TokenBucket::new(1000, 10);
        let grants: Vec<_> = (0..8).map(|_| tb.acquire(SimTime::ZERO, 10)).collect();
        assert_eq!(grants[0], SimTime::ZERO);
        for (i, g) in grants.iter().enumerate().skip(1) {
            assert_eq!(
                *g,
                SimTime::from_millis(10 * i as u64),
                "grant {i} must queue behind the backlog"
            );
        }
    }

    #[test]
    fn token_bucket_grants_are_monotone() {
        let mut tb = TokenBucket::new(500, 10);
        let mut last = SimTime::ZERO;
        for i in 0..100 {
            let g = tb.acquire(SimTime::from_micros(i), 5);
            assert!(g >= last, "grants must not reorder");
            last = g;
        }
    }

    #[test]
    fn unlimited_lane_grants_exactly_at_now() {
        // The bit-identity pin for unpaced services: an unlimited lane must
        // never move an in-order grant, so wrapping a path whose arrivals
        // are monotone in one is a no-op in time.
        let mut lane = QosLane::new(QosLimits::unlimited());
        for i in 0..1000u64 {
            let now = SimTime::from_micros(i);
            assert_eq!(lane.admit(now, 1 << 20), now);
        }
        assert_eq!(lane.throttled, 0);
        assert_eq!(lane.throttle_wait, SimDuration::ZERO);
        assert_eq!(lane.admitted, (1000, 1000 << 20));
    }

    #[test]
    fn unlimited_lane_holds_an_out_of_order_arrival_at_its_last_grant() {
        // Buckets grant from `max(now, updated)`, so an arrival earlier
        // than the last grant waits for it even with tokens to spare.
        let mut lane = QosLane::new(QosLimits::unlimited());
        let (t10, t5) = (SimTime::from_micros(10), SimTime::from_micros(5));
        assert_eq!(lane.admit(t10, 4096), t10);
        assert_eq!(lane.admit(t5, 4096), t10);
        assert_eq!(lane.throttled, 1);
        assert_eq!(lane.throttle_wait, SimDuration::from_micros(5));
    }

    #[test]
    fn lane_byte_budget_paces_a_stream() {
        // 1 MiB/s with a 1 MiB burst: the first MiB is free, each further
        // MiB queues a full second behind the backlog.
        let mut lane = QosLane::new(QosLimits::bytes_per_sec(1 << 20));
        assert_eq!(lane.admit(SimTime::ZERO, 1 << 20), SimTime::ZERO);
        let g1 = lane.admit(SimTime::ZERO, 1 << 20);
        let g2 = lane.admit(SimTime::ZERO, 1 << 20);
        assert_eq!(g1, SimTime::from_secs(1));
        assert_eq!(g2, SimTime::from_secs(2));
        assert_eq!(lane.throttled, 2);
        assert_eq!(lane.throttle_wait, SimDuration::from_secs(3));
        lane.reset_timing();
        assert_eq!(lane.admit(SimTime::ZERO, 1 << 20), SimTime::ZERO);
        assert_eq!(lane.admitted, (1, 1 << 20));
    }
}
