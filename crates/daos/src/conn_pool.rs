//! The engine-side connection pool: bounded resident connection state for
//! multi-client (incast) deployments.
//!
//! One engine node serving hundreds of clients cannot hold an RC queue
//! pair and staging window resident per client forever — that is
//! O(clients × engines) memory pinned on the storage side, exactly the
//! scaling wall the r2pc `connection_pool`/`msg_waiter` structure exists
//! to avoid. This pool keeps the engine's resident per-client session
//! state bounded at **O(capacity)**:
//!
//! * a client's first request **handshakes** (connection setup charged at
//!   the configured control-plane cost) and becomes resident;
//! * a request from a resident client is a **hit** — no extra latency,
//!   the common case the hit-rate gate watches;
//! * admitting a non-resident client when the pool is full **evicts** the
//!   least-recently-used resident session. Eviction destroys only
//!   *session* state (QP, staging registration) — never acked data, which
//!   lives in the engines' VOS — so it is transparent to the client;
//! * an evicted client's next request **reconnects**: the same handshake
//!   cost again, counted separately so sweeps can tell cold connects from
//!   thrash.
//!
//! Determinism: LRU order is tracked by the shared
//! [`ros2_sim::DetLru`] — a monotonic use-tick where ties cannot occur
//! (ticks are unique), so eviction choice is a pure function of the
//! admission history. The resident set is a plain vector scanned
//! linearly — capacities are small by design, and iteration order is
//! deterministic, unlike a hash map's. The DPU read cache
//! (`ros2_dpu::ReadCache`) reuses the same tracker.

use ros2_sim::{DetLru, SimDuration, SimTime};
use ros2_verbs::NodeId;

/// Counters the pool accumulates; sampled by benches and property tests.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ConnPoolStats {
    /// Total admissions (hits + misses).
    pub admits: u64,
    /// Admissions that found the client resident.
    pub hits: u64,
    /// Admissions that had to (re)handshake.
    pub misses: u64,
    /// Residents displaced to make room (LRU choice).
    pub evictions: u64,
    /// Misses by clients that had been resident before — re-handshakes
    /// caused by eviction (or an explicit session kill), not first
    /// contact.
    pub reconnects: u64,
    /// High-water mark of resident sessions (≤ capacity always).
    pub resident_peak: u64,
}

impl ConnPoolStats {
    /// Fraction of admissions served from resident state.
    pub fn hit_rate(&self) -> f64 {
        if self.admits == 0 {
            return 1.0;
        }
        self.hits as f64 / self.admits as f64
    }
}

/// The LRU pool itself. See the module docs for semantics.
#[derive(Debug)]
pub struct ConnPool {
    capacity: usize,
    handshake: SimDuration,
    resident: DetLru<NodeId, ()>,
    /// Clients that have ever held a session — distinguishes first
    /// connects from reconnects after eviction.
    ever_connected: Vec<NodeId>,
    stats: ConnPoolStats,
}

impl ConnPool {
    /// Default connection-establishment cost: one control-plane
    /// request/response exchange plus QP transition work.
    pub const DEFAULT_HANDSHAKE: SimDuration = SimDuration::from_micros(20);

    /// A pool bounding resident sessions at `capacity`, charging
    /// `handshake` per (re)connect.
    pub fn new(capacity: usize, handshake: SimDuration) -> Self {
        assert!(capacity > 0, "a pool needs at least one slot");
        ConnPool {
            capacity,
            handshake,
            resident: DetLru::new(),
            ever_connected: Vec::new(),
            stats: ConnPoolStats::default(),
        }
    }

    /// The configured capacity (resident sessions never exceed it).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently resident sessions.
    pub fn resident(&self) -> usize {
        self.resident.len()
    }

    /// Whether `client` currently holds a resident session.
    #[cfg(test)]
    fn is_resident(&self, client: NodeId) -> bool {
        self.resident.contains(&client)
    }

    /// Accumulated counters.
    pub fn stats(&self) -> ConnPoolStats {
        self.stats
    }

    /// Admits one request from `client` at `now`: returns the instant the
    /// request may proceed — `now` on a hit, `now + handshake` when the
    /// client had to (re)connect. LRU-evicts a resident session if the
    /// pool is full.
    pub fn admit(&mut self, client: NodeId, now: SimTime) -> SimTime {
        self.resident.advance();
        self.stats.admits += 1;
        if self.resident.touch(&client).is_some() {
            self.stats.hits += 1;
            return now;
        }
        self.stats.misses += 1;
        if self.ever_connected.contains(&client) {
            self.stats.reconnects += 1;
        } else {
            self.ever_connected.push(client);
        }
        if self.resident.len() == self.capacity {
            self.resident.evict_lru().expect("full pool has a resident");
            self.stats.evictions += 1;
        }
        self.resident.insert(client, ());
        self.stats.resident_peak = self.stats.resident_peak.max(self.resident.len() as u64);
        now + self.handshake
    }

    /// Drops `client`'s resident session if it has one (a session kill —
    /// fault injection for the property suite). The client's next admit
    /// re-handshakes; acked data is untouched.
    pub fn kill_session(&mut self, client: NodeId) -> bool {
        self.resident.remove(&client).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HS: SimDuration = SimDuration::from_micros(20);

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn first_contact_pays_handshake_then_hits() {
        let mut p = ConnPool::new(2, HS);
        let t0 = SimTime::ZERO;
        assert_eq!(p.admit(n(0), t0), t0 + HS);
        assert_eq!(p.admit(n(0), t0 + HS), t0 + HS);
        let s = p.stats();
        assert_eq!((s.admits, s.hits, s.misses, s.reconnects), (2, 1, 1, 0));
    }

    #[test]
    fn lru_eviction_bounds_residency_and_reconnect_counts() {
        let mut p = ConnPool::new(2, HS);
        let t = SimTime::ZERO;
        p.admit(n(0), t);
        p.admit(n(1), t);
        // 2 is admitted by evicting the LRU (client 0).
        p.admit(n(2), t);
        assert_eq!(p.resident(), 2);
        assert!(!p.is_resident(n(0)));
        assert!(p.is_resident(n(1)) && p.is_resident(n(2)));
        // 0 returns: a reconnect, evicting the new LRU (client 1).
        assert_eq!(p.admit(n(0), t), t + HS);
        let s = p.stats();
        assert_eq!(s.evictions, 2);
        assert_eq!(s.reconnects, 1);
        assert_eq!(s.resident_peak, 2);
    }

    #[test]
    fn touch_order_drives_the_lru_choice() {
        let mut p = ConnPool::new(2, HS);
        let t = SimTime::ZERO;
        p.admit(n(0), t);
        p.admit(n(1), t);
        // Touch 0 so 1 becomes the LRU.
        p.admit(n(0), t);
        p.admit(n(2), t);
        assert!(p.is_resident(n(0)));
        assert!(!p.is_resident(n(1)));
    }

    #[test]
    fn killed_session_reconnects_without_eviction() {
        let mut p = ConnPool::new(4, HS);
        let t = SimTime::ZERO;
        p.admit(n(3), t);
        assert!(p.kill_session(n(3)));
        assert!(!p.kill_session(n(3)), "second kill finds nothing");
        assert_eq!(p.admit(n(3), t), t + HS);
        let s = p.stats();
        assert_eq!((s.reconnects, s.evictions), (1, 0));
    }

    #[test]
    fn hit_rate_is_total_over_admits() {
        let mut p = ConnPool::new(1, HS);
        let t = SimTime::ZERO;
        p.admit(n(0), t);
        p.admit(n(0), t);
        p.admit(n(0), t);
        p.admit(n(1), t);
        assert!((p.stats().hit_rate() - 0.5).abs() < 1e-12);
    }
}
