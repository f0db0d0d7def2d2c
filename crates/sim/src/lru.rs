//! A deterministic least-recently-used tracker.
//!
//! Recency is a monotonic **use tick**, advanced explicitly by the owner
//! once per admission, so eviction choice is a pure function of the
//! operation history — never of wall clock, hash order, or allocation
//! addresses. Entries live in a slab (a `Vec` of nodes plus a free list)
//! threaded by an intrusive doubly-linked recency list, and an ordered map
//! from key to slab index serves lookups and the key-range walk for owners
//! whose keys are intervals of a larger record. Ticks are monotone and
//! each one stamps at most one entry, so a stamp is a move to the list's
//! back and the list runs in tick order: a touch is an unlink and a
//! push-back, the eviction victim (the minimum-tick entry) is the head,
//! and neither allocates. Iteration order is the key order.
//!
//! Two structures share this idiom: the engine-side connection pool
//! (`ros2_daos::ConnPool`) and the DPU read cache
//! (`ros2_dpu::ReadCache`). Both replay bit-identically because the tick
//! is the only ordering input, and ticks are unique so LRU ties cannot
//! occur.

use std::collections::BTreeMap;
use std::ops::RangeBounds;

/// The end of a recency list, or of the free list.
const NIL: u32 = u32::MAX;

/// One slab node: a tracked entry (`None` while the node is on the free
/// list), the tick of its last use, and its recency-list links (`next`
/// doubles as the free-list link).
#[derive(Debug, Clone)]
struct Node<K, V> {
    entry: Option<(K, V)>,
    last_used: u64,
    prev: u32,
    next: u32,
}

/// A deterministic tick-LRU over a slab-backed recency list. See the
/// module docs.
///
/// The owner drives the clock: call [`DetLru::advance`] exactly once per
/// admission, then stamp **at most one** entry with the current tick
/// through [`DetLru::touch`] or [`DetLru::insert`] — that is what keeps
/// ticks unique, the list in tick order, and the eviction victim
/// ([`DetLru::evict_lru`], the minimum-tick entry) unambiguous.
#[derive(Debug, Clone)]
pub struct DetLru<K, V> {
    /// Key → slab index.
    by_key: BTreeMap<K, u32>,
    nodes: Vec<Node<K, V>>,
    /// Least-recently used node (the eviction victim) and most recent.
    head: u32,
    tail: u32,
    /// First node on the free list.
    free: u32,
    tick: u64,
}

impl<K, V> Default for DetLru<K, V> {
    fn default() -> Self {
        DetLru {
            by_key: BTreeMap::new(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
            tick: 0,
        }
    }
}

impl<K: Ord + Clone, V> DetLru<K, V> {
    /// An empty tracker at tick zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked entries.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Whether no entries are tracked.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// The current use tick.
    #[cfg(test)]
    fn tick(&self) -> u64 {
        self.tick
    }

    /// Advances the use tick by one and returns it. Call once per
    /// admission, before [`Self::touch`] or [`Self::insert`].
    pub fn advance(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Marks `key` used at the current tick; returns its value on a hit.
    pub fn touch(&mut self, key: &K) -> Option<&mut V> {
        let i = *self.by_key.get(key)?;
        if self.nodes[i as usize].last_used != self.tick {
            self.unlink(i);
            self.push_back(i);
        }
        self.nodes[i as usize].entry.as_mut().map(|(_, v)| v)
    }

    /// Read-only lookup without a recency update.
    #[cfg(test)]
    fn get(&self, key: &K) -> Option<&V> {
        let i = *self.by_key.get(key)?;
        self.nodes[i as usize].entry.as_ref().map(|(_, v)| v)
    }

    /// Whether `key` is tracked.
    pub fn contains(&self, key: &K) -> bool {
        self.by_key.contains_key(key)
    }

    /// Inserts `key` stamped with the current tick. The caller evicts
    /// first if a capacity bound applies; inserting a key that is already
    /// tracked is a logic error (checked in debug builds).
    pub fn insert(&mut self, key: K, value: V) {
        debug_assert!(!self.contains(&key), "insert of an already-tracked key");
        let node = Node {
            entry: Some((key.clone(), value)),
            last_used: 0,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free {
            NIL => {
                assert!(self.nodes.len() < NIL as usize, "slab index fits u32");
                self.nodes.push(node);
                self.nodes.len() as u32 - 1
            }
            i => {
                self.free = self.nodes[i as usize].next;
                self.nodes[i as usize] = node;
                i
            }
        };
        self.push_back(i);
        self.by_key.insert(key, i);
    }

    /// Removes and returns the least-recently-used entry, if any. The
    /// minimum-tick choice is unique (ticks never tie).
    pub fn evict_lru(&mut self) -> Option<(K, V)> {
        if self.head == NIL {
            return None;
        }
        let (key, value) = self.release(self.head);
        self.by_key.remove(&key).expect("key index in step");
        Some((key, value))
    }

    /// Removes `key` and returns its value, if tracked.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.by_key.remove(key)?;
        Some(self.release(i).1)
    }

    /// Keeps only entries for which `f` returns true; returns how many
    /// were dropped. Visits entries in key order.
    pub fn retain<F: FnMut(&K, &V) -> bool>(&mut self, mut f: F) -> usize {
        let before = self.by_key.len();
        let mut by_key = std::mem::take(&mut self.by_key);
        by_key.retain(|k, &mut i| {
            let (_, v) = self.nodes[i as usize].entry.as_ref().expect("live node");
            let keep = f(k, v);
            if !keep {
                self.release(i);
            }
            keep
        });
        self.by_key = by_key;
        before - self.by_key.len()
    }

    /// Iterates `(key, value)` pairs in key order.
    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.by_key.values().map(|&i| {
            let (k, v) = self.nodes[i as usize].entry.as_ref().expect("live node");
            (k, v)
        })
    }

    /// [`Self::retain`] over the entries whose keys fall in `range` only:
    /// visits them in key order, lets `f` rewrite the value in place (not
    /// a use — recency is untouched), drops those it returns false for,
    /// and returns how many were dropped. O(log n) to find the first entry
    /// plus one step per entry visited; nothing is allocated unless
    /// something is dropped.
    pub fn retain_range<R, F>(&mut self, range: R, mut f: F) -> usize
    where
        R: RangeBounds<K>,
        F: FnMut(&K, &mut V) -> bool,
    {
        let nodes = &mut self.nodes;
        let doomed: Vec<K> = self
            .by_key
            .range(range)
            .filter_map(|(k, &i)| {
                let (_, v) = nodes[i as usize].entry.as_mut().expect("live node");
                (!f(k, v)).then(|| k.clone())
            })
            .collect();
        for key in &doomed {
            self.remove(key);
        }
        doomed.len()
    }

    /// Drops every entry; the tick keeps counting.
    pub fn clear(&mut self) {
        self.by_key.clear();
        self.nodes.clear();
        self.head = NIL;
        self.tail = NIL;
        self.free = NIL;
    }

    /// Stamps node `i` (unlinked) with the current tick at the list's back.
    /// The back is the newest stamp, so a second entry stamped in one tick
    /// would find the back already holding this tick — and would tie the
    /// eviction order — so the one-stamp-per-tick contract is checked in
    /// every build.
    fn push_back(&mut self, i: u32) {
        if self.tail != NIL {
            assert!(
                self.nodes[self.tail as usize].last_used != self.tick,
                "two entries stamped in one tick"
            );
            self.nodes[self.tail as usize].next = i;
        } else {
            self.head = i;
        }
        let node = &mut self.nodes[i as usize];
        node.last_used = self.tick;
        node.prev = self.tail;
        node.next = NIL;
        self.tail = i;
    }

    /// Takes node `i` out of the recency list.
    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.nodes[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Unlinks node `i`, moves it to the free list, and returns its entry.
    fn release(&mut self, i: u32) -> (K, V) {
        self.unlink(i);
        let node = &mut self.nodes[i as usize];
        node.next = self.free;
        self.free = i;
        node.entry.take().expect("live node")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn touch_order_drives_eviction() {
        let mut l: DetLru<u32, &str> = DetLru::new();
        l.advance();
        l.insert(1, "a");
        l.advance();
        l.insert(2, "b");
        // Touch 1 so 2 becomes the LRU.
        l.advance();
        assert!(l.touch(&1).is_some());
        assert_eq!(l.evict_lru(), Some((2, "b")));
        assert_eq!(l.evict_lru(), Some((1, "a")));
        assert_eq!(l.evict_lru(), None);
    }

    /// A second stamp in one tick would tie the eviction order: a touch
    /// of another entry after an insert in the same tick panics.
    #[test]
    #[should_panic(expected = "two entries stamped in one tick")]
    fn two_stamps_in_one_tick_panic() {
        let mut l: DetLru<u32, ()> = DetLru::new();
        l.advance();
        l.insert(1, ());
        l.advance();
        l.insert(2, ());
        l.touch(&1);
    }

    #[test]
    fn remove_and_retain_are_order_preserving() {
        let mut l: DetLru<u32, u32> = DetLru::new();
        for k in 0..4 {
            l.advance();
            l.insert(k, k * 10);
        }
        assert_eq!(l.remove(&1), Some(10));
        assert_eq!(l.remove(&1), None);
        let dropped = l.retain(|&k, _| k != 3);
        assert_eq!(dropped, 1);
        let keys: Vec<u32> = l.iter().map(|(&k, _)| k).collect();
        assert_eq!(keys, [0, 2]);
    }

    #[test]
    fn ticks_are_unique_and_monotonic() {
        let mut l: DetLru<u8, ()> = DetLru::new();
        assert_eq!(l.advance(), 1);
        assert_eq!(l.advance(), 2);
        l.insert(7, ());
        assert_eq!(l.tick(), 2);
        l.clear();
        assert_eq!(l.advance(), 3, "clear never rewinds the tick");
    }

    #[test]
    fn range_walk_visits_only_the_range_in_key_order() {
        let mut l: DetLru<(u8, u32), u32> = DetLru::new();
        for (i, k) in [(1, 30), (0, 7), (1, 10), (2, 0), (1, 20)]
            .into_iter()
            .enumerate()
        {
            l.advance();
            l.insert(k, i as u32);
        }
        let mut walked = Vec::new();
        let dropped = l.retain_range((1, 0)..(1, 30), |&k, _| {
            walked.push(k);
            true
        });
        assert_eq!((walked, dropped), (vec![(1, 10), (1, 20)], 0));
        // Values are writable in place, only the refused entry goes, and
        // the walk is not a use: the oldest insert is still the victim.
        let dropped = l.retain_range((1, 0)..=(1, u32::MAX), |&k, v| {
            *v += 100;
            k != (1, 20)
        });
        assert_eq!(dropped, 1);
        assert_eq!(l.len(), 4);
        assert_eq!(l.get(&(1, 10)), Some(&102));
        assert_eq!(l.evict_lru(), Some(((1, 30), 100)));
    }

    /// The flat-vector tracker this structure replaced, kept as the
    /// oracle: linear scans, minimum-tick victim.
    #[derive(Default)]
    struct FlatLru {
        entries: Vec<(u32, u64, u64)>, // (key, value, last_used)
        tick: u64,
    }

    impl FlatLru {
        fn touch(&mut self, key: u32) -> Option<u64> {
            let tick = self.tick;
            self.entries.iter_mut().find(|e| e.0 == key).map(|e| {
                e.2 = tick;
                e.1
            })
        }
        fn evict_lru(&mut self) -> Option<(u32, u64)> {
            let lru = (0..self.entries.len()).min_by_key(|&i| self.entries[i].2)?;
            let e = self.entries.swap_remove(lru);
            Some((e.0, e.1))
        }
        fn remove(&mut self, key: u32) -> Option<u64> {
            let i = self.entries.iter().position(|e| e.0 == key)?;
            Some(self.entries.remove(i).1)
        }
        fn sorted(&self) -> Vec<(u32, u64)> {
            let mut all: Vec<(u32, u64)> = self.entries.iter().map(|e| (e.0, e.1)).collect();
            all.sort_unstable();
            all
        }
    }

    #[test]
    fn random_tapes_match_the_flat_vector_oracle() {
        for seed in 0..32u64 {
            let mut rng = SimRng::new(seed);
            let mut l: DetLru<u32, u64> = DetLru::new();
            let mut o = FlatLru::default();
            for step in 0..600u64 {
                let key = rng.below(24) as u32;
                match rng.below(10) {
                    // Admission: a hit touches, a miss evicts past a bound
                    // and inserts — the one stamp this tick allows.
                    0..=5 => {
                        l.advance();
                        o.tick += 1;
                        let hit = l.touch(&key).map(|v| *v);
                        assert_eq!(hit, o.touch(key), "seed {seed} step {step}: touch");
                        if hit.is_none() {
                            if l.len() >= 12 {
                                assert_eq!(l.evict_lru(), o.evict_lru(), "seed {seed}: victim");
                            }
                            l.insert(key, step);
                            o.entries.push((key, step, o.tick));
                        }
                    }
                    6 => assert_eq!(l.remove(&key), o.remove(key), "seed {seed}: remove"),
                    7 => assert_eq!(l.evict_lru(), o.evict_lru(), "seed {seed}: victim"),
                    8 => {
                        let before = o.entries.len();
                        o.entries.retain(|e| e.0 % 5 != key % 5);
                        let dropped = l.retain(|&k, _| k % 5 != key % 5);
                        assert_eq!(dropped, before - o.entries.len(), "seed {seed}: retain");
                    }
                    _ => {
                        // Range walk: every third value in range goes.
                        let hi = key + rng.below(8) as u32;
                        let mut walked = Vec::new();
                        let dropped = l.retain_range(key..hi, |&k, v| {
                            walked.push((k, *v));
                            *v % 3 != 0
                        });
                        let mut expect = o.sorted();
                        expect.retain(|&(k, _)| (key..hi).contains(&k));
                        assert_eq!(walked, expect, "seed {seed} step {step}: range walk");
                        let before = o.entries.len();
                        o.entries
                            .retain(|e| !(key..hi).contains(&e.0) || e.1 % 3 != 0);
                        assert_eq!(dropped, before - o.entries.len(), "seed {seed}: range drop");
                    }
                }
                let all: Vec<(u32, u64)> = l.iter().map(|(&k, &v)| (k, v)).collect();
                assert_eq!(all, o.sorted(), "seed {seed} step {step}: contents");
            }
            // Drain: the whole eviction order agrees.
            while let Some(victim) = o.evict_lru() {
                assert_eq!(l.evict_lru(), Some(victim), "seed {seed}: drain order");
            }
            assert!(l.is_empty());
        }
    }
}
