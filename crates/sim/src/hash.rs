//! The one hasher for every hash-keyed table in the simulator.
//!
//! `std`'s default SipHash-1-3 resists hash flooding, which nothing here
//! needs: every key is a handle, a small label or an id the simulator
//! made itself, and SipHash cost several per cent of host time on the op
//! path. [`FastHasher`] is an FxHash-style multiply-rotate hasher with a
//! fixed seed, so a table's hash values — and with them its iteration
//! order for one insertion sequence — are the same in every build and run.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` keyed through [`FastHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// FxHash's multiplier (the golden-ratio constant of rustc's hasher).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// One word folded per write: `h = (h.rotl(5) ^ word) * K`.
#[derive(Copy, Clone, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The high bits pick a table's control byte and the low bits its
    /// bucket; the product's entropy sits high, so rotate some of it low.
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(value: T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(value)
    }

    /// The hash values are pinned: a table fed one insertion sequence
    /// iterates in one order in every build and run.
    #[test]
    fn hash_values_are_pinned() {
        assert_eq!(hash(1u64), 15_896_730_500_111_659_782);
        assert_eq!(hash(7u32), 596_649_058_390_091_056);
        assert_eq!(hash((3usize, 5usize)), 10_774_955_070_313_031_650);
        assert_eq!(hash("tenant-a"), 8_458_167_574_068_061_406);
        assert_eq!(hash(String::from("tenant-a")), hash("tenant-a"));
    }

    #[test]
    fn iteration_order_is_a_function_of_the_insertions() {
        let build = || {
            let mut m: FastMap<u64, u64> = FastMap::default();
            for k in [9u64, 1 << 40, 3, 77, u64::MAX, 12] {
                m.insert(k, k);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
        let mut s: FastSet<&str> = FastSet::default();
        assert!(s.insert("a") && !s.insert("a"));
    }
}
