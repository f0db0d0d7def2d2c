//! The deterministic event queue at the heart of every ROS2 world.
//!
//! Events are ordered by `(time, sequence)`: two events scheduled for the same
//! instant fire in the order they were pushed, so a simulation replay with the
//! same inputs is bit-identical regardless of platform or allocator behaviour.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    // Reversed so that the std max-heap yields the *earliest* entry first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue with a monotonically advancing clock.
///
/// `EventQueue` is the only scheduler in a ROS2 world: engines return
/// `(SimTime, Event)` pairs and the world pushes them here, then drains in
/// order. Scheduling an event in the past is a model bug; the queue clamps
/// it to `now` and counts the violation so tests can assert none occurred.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
    past_schedules: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            past_schedules: 0,
        }
    }

    /// The current simulated instant (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at `at`. Events in the past are clamped to
    /// `now` (and recorded — see [`EventQueue::past_schedules`]).
    pub fn push(&mut self, at: SimTime, event: E) {
        let at = if at < self.now {
            self.past_schedules += 1;
            self.now
        } else {
            at
        };
        self.heap.push(Entry {
            at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "event queue time went backwards");
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// How many events were scheduled in the past and clamped. A correct
    /// model keeps this at zero.
    pub fn past_schedules(&self) -> u64 {
        self.past_schedules
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), "c");
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(7));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), "later");
        q.pop();
        q.push(SimTime::from_micros(3), "past");
        assert_eq!(q.past_schedules(), 1);
        let (at, ev) = q.pop().unwrap();
        assert_eq!(ev, "past");
        assert_eq!(at, SimTime::from_micros(10));
    }

    #[test]
    fn counters_track_lifecycle() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.push(SimTime::from_nanos(i), i);
        }
        assert_eq!(q.len(), 5);
        while q.pop().is_some() {}
        assert!(q.is_empty());
    }
}
