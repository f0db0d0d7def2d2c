//! One walk over a world's timed state. Each type that holds timed state
//! lists its timed children once, in [`Timed::visit`]; the reset between
//! preconditioning and a measured run and the booking and data-plane
//! readings are visitors of that walk, applied at any node of the tree.
//!
//! The leaves are the booking primitives ([`BandwidthServer`],
//! [`ServerPool`]), the paced admission lanes ([`QosLane`]) and the
//! data-plane counter holders, which hand over their [`DataPlaneStats`]. A
//! node's own timed state that is no leaf (a byte counter, a clock stamp,
//! an in-flight heap) goes to [`Visit::rewind`] as one hook, in the same
//! `visit`.

use ros2_buf::DataPlaneStats;

use crate::resources::{BandwidthServer, QosLane, ResourceStats, ServerPool};

/// What a walk does at each leaf; every method defaults to nothing.
pub trait Visit {
    /// A bandwidth pipe.
    fn pipe(&mut self, _pipe: &mut BandwidthServer) {}
    /// A server pool.
    fn pool(&mut self, _pool: &mut ServerPool) {}
    /// A paced admission lane.
    fn lane(&mut self, _lane: &mut QosLane) {}
    /// A holder's data-plane counters (a reset keeps them).
    fn data_plane(&mut self, _stats: DataPlaneStats) {}
    /// A node's own timed state, as a hook that rewinds it to t = 0.
    fn rewind(&mut self, _hook: &mut dyn FnMut()) {}
}

/// A type that holds timed state.
pub trait Timed {
    /// Hands every timed child to `v`, each once.
    fn visit(&mut self, v: &mut dyn Visit);

    /// Rewinds every pipe, pool, lane and hook below to t = 0 (between a
    /// preconditioning phase and a measured run). Contents, registrations
    /// and data-plane counters are kept.
    fn reset_timing(&mut self) {
        self.visit(&mut Reset);
    }

    /// Booking / fast-path counters summed over every pipe and pool below.
    fn resource_stats(&mut self) -> ResourceStats {
        let mut sum = Sum::default();
        self.visit(&mut sum);
        sum.bookings
    }

    /// Data-plane (copy / zero-copy / CRC) counters summed over every
    /// holder below.
    fn data_plane_stats(&mut self) -> DataPlaneStats {
        let mut sum = Sum::default();
        self.visit(&mut sum);
        sum.data_plane
    }
}

impl<T: Timed> Timed for [T] {
    fn visit(&mut self, v: &mut dyn Visit) {
        self.iter_mut().for_each(|t| t.visit(v));
    }
}

struct Reset;

impl Visit for Reset {
    fn pipe(&mut self, pipe: &mut BandwidthServer) {
        pipe.reset_timing();
    }
    fn pool(&mut self, pool: &mut ServerPool) {
        pool.reset_timing();
    }
    fn lane(&mut self, lane: &mut QosLane) {
        lane.reset_timing();
    }
    fn rewind(&mut self, hook: &mut dyn FnMut()) {
        hook();
    }
}

#[derive(Default)]
struct Sum {
    bookings: ResourceStats,
    data_plane: DataPlaneStats,
}

impl Visit for Sum {
    fn pipe(&mut self, pipe: &mut BandwidthServer) {
        self.bookings.merge(pipe.stats());
    }
    fn pool(&mut self, pool: &mut ServerPool) {
        self.bookings.merge(pool.stats());
    }
    fn data_plane(&mut self, stats: DataPlaneStats) {
        self.data_plane.merge(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QosLimits, SimDuration, SimTime};

    /// A node with one of each leaf plus a hooked counter.
    struct Node {
        pipe: BandwidthServer,
        pools: Vec<ServerPool>,
        lane: QosLane,
        copied: u64,
        sent: u64,
    }

    impl Timed for Node {
        fn visit(&mut self, v: &mut dyn Visit) {
            v.pipe(&mut self.pipe);
            self.pools.iter_mut().for_each(|p| v.pool(p));
            v.lane(&mut self.lane);
            v.data_plane(DataPlaneStats {
                bytes_copied: self.copied,
                ..DataPlaneStats::default()
            });
            v.rewind(&mut || self.sent = 0);
        }
    }

    fn busy() -> Node {
        let mut n = Node {
            pipe: BandwidthServer::new(1_000_000_000),
            pools: vec![ServerPool::new(2), ServerPool::new(1)],
            lane: QosLane::new(QosLimits::bytes_per_sec(1_000)),
            copied: 7,
            sent: 0,
        };
        let t = SimTime::from_micros(3);
        n.pipe.transmit(t, 1_000);
        for p in &mut n.pools {
            p.submit(t, SimDuration::from_micros(5));
        }
        n.lane.admit(t, 5_000);
        n.sent = 1_000;
        n
    }

    #[test]
    fn readings_sum_every_leaf() {
        let mut nodes = [busy(), busy()];
        let stats = nodes.resource_stats();
        assert_eq!(stats.bookings, 6);
        assert_eq!(stats.fastpath_hits, 6);
        assert_eq!(nodes.data_plane_stats().bytes_copied, 14);
    }

    #[test]
    fn reset_rewinds_leaves_and_hooks_and_keeps_data_plane() {
        let mut n = busy();
        n.reset_timing();
        assert_eq!(n.pipe.busy_time(), SimDuration::ZERO);
        assert_eq!(n.pipe.tail_free(), SimTime::ZERO);
        for p in &n.pools {
            assert_eq!(p.busy_time(), SimDuration::ZERO);
            assert_eq!(p.drain_time(SimTime::ZERO), SimTime::ZERO);
        }
        assert_eq!(n.lane.admitted, (0, 0));
        assert_eq!(n.sent, 0);
        assert_eq!(n.resource_stats(), ResourceStats::default());
        assert_eq!(n.data_plane_stats().bytes_copied, 7);
    }
}
