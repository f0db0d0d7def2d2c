//! Deterministic pseudo-random numbers for workloads and models.
//!
//! ROS2 uses its own xoshiro256** implementation rather than an external
//! generator so that simulation replays stay bit-identical across dependency
//! upgrades. Every component derives its stream from the scenario seed via
//! [`SimRng::fork`], so adding a component never perturbs the draws seen by
//! existing ones.

/// A deterministic xoshiro256** PRNG with workload-oriented helpers.
#[derive(Clone, Debug)]
pub struct SimRng {
    state: [u64; 4],
}

fn splitmix64(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        SimRng {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
        }
    }

    /// Derives an independent child stream labelled by `stream`.
    ///
    /// Forking is stable: `(seed, stream)` fully determines the child.
    pub fn fork(&self, stream: u64) -> SimRng {
        // Mix the label through SplitMix64 so adjacent labels diverge.
        let mut s = self.state[0] ^ stream.wrapping_mul(0xA24BAED4963EE407);
        SimRng::new(splitmix64(&mut s))
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// A uniform draw in `[0, bound)`. `bound` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased results.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform draw in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// A uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// An exponentially distributed duration with the given mean, in
    /// nanoseconds (for open-loop arrival processes).
    pub fn exp_ns(&mut self, mean_ns: f64) -> u64 {
        let u = self.f64().max(1e-12);
        (-mean_ns * u.ln()).round().max(0.0) as u64
    }

    /// Picks a uniformly random element index for a slice of length `len`.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Fills a buffer with pseudo-random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

/// A Zipf-distributed sampler over `{0, .., n-1}` with skew `theta`.
///
/// Used by workload generators for hot-spot access patterns (e.g. dataloader
/// shard popularity). Precomputes the harmonic normalizer; sampling is O(1)
/// via the rejection-inversion bound of Gray et al.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// Creates a sampler over `n` items with skew `theta` in `[0, 1)`.
    /// `theta = 0` is uniform; `theta -> 1` is heavily skewed.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "Zipf over empty domain");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum for small n; integral approximation beyond 10^6 keeps
        // construction O(1) for the billion-key domains used in tests.
        if n <= 1_000_000 {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=1_000_000u64)
                .map(|i| 1.0 / (i as f64).powf(theta))
                .sum();
            let tail =
                ((n as f64).powf(1.0 - theta) - 1_000_000f64.powf(1.0 - theta)) / (1.0 - theta);
            head + tail
        }
    }

    /// Draws the next item (0-based rank; 0 is the hottest).
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let spread = (self.eta * u - self.eta + 1.0).powf(self.alpha);
        ((self.n as f64 * spread) as u64).min(self.n - 1)
    }

    /// The number of items in the domain.
    pub fn domain(&self) -> u64 {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_stable_and_independent() {
        let root = SimRng::new(7);
        let mut c1 = root.fork(1);
        let mut c1_again = root.fork(1);
        let mut c2 = root.fork(2);
        assert_eq!(c1.next_u64(), c1_again.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn below_is_in_bounds_and_covers() {
        let mut rng = SimRng::new(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_is_unit_interval() {
        let mut rng = SimRng::new(4);
        for _ in 0..1000 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn exp_mean_is_roughly_right() {
        let mut rng = SimRng::new(5);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| rng.exp_ns(1000.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((900.0..1100.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut rng = SimRng::new(8);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn zipf_skews_toward_zero() {
        let mut rng = SimRng::new(9);
        let z = Zipf::new(1000, 0.9);
        let mut hot = 0u32;
        let n = 10_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 10 {
                hot += 1;
            }
        }
        // With theta=0.9 the top-10 of 1000 should get far more than 1 %.
        assert!(hot > n / 10, "hot draws: {hot}");
    }

    #[test]
    fn zipf_uniformish_at_zero_theta() {
        let mut rng = SimRng::new(10);
        let z = Zipf::new(10, 0.0);
        let mut counts = [0u32; 10];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min < 1.6, "counts {counts:?}");
    }
}
