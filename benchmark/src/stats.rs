//! Order statistics over the per-op log and over repetitions.

/// Completion value of a failed op.
pub const FAILED: u64 = u64::MAX;

/// One issued op as the wrapper logged it (virtual nanoseconds).
#[derive(Copy, Clone, Debug)]
pub struct OpRecord {
    /// Write or read.
    pub write: bool,
    /// Submission instant.
    pub submit: u64,
    /// Completion instant, or [`FAILED`].
    pub done: u64,
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)`.
/// Zero for fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let quartile = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)).abs() / med.abs()
    }
}

/// 1-based rank of the `num/den` quantile in a sample of `n`: the smallest
/// rank with at least that share of the sample at or below it. Integer
/// arithmetic, so the rank never hangs on how a decimal rounds.
fn rank(n: usize, num: usize, den: usize) -> usize {
    (n * num).div_ceil(den).clamp(1, n)
}

/// The exact median of an ascending sample (the lower of the middle pair),
/// not an estimate from histogram buckets.
pub fn exact_median(sorted: &[u64]) -> u64 {
    assert!(!sorted.is_empty(), "median of nothing");
    sorted[rank(sorted.len(), 1, 2) - 1]
}

/// A tail latency and how it was chosen.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Tail {
    /// The quantile reported (0.999, 0.99, 0.9 or 0.5).
    pub quantile: f64,
    /// Its value.
    pub value: u64,
    /// Samples strictly beyond the quantile's rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Samples a quantile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The highest of p99.9 / p99 (then p90 / p50 for short samples) that
/// still has [`MIN_BEYOND`] samples beyond it.
pub fn tail(sorted: &[u64]) -> Tail {
    assert!(!sorted.is_empty(), "tail of nothing");
    let n = sorted.len();
    for (num, den) in [(999, 1000), (99, 100), (9, 10), (1, 2)] {
        let rank = rank(n, num, den);
        let beyond = n - rank;
        if beyond >= MIN_BEYOND || den == 2 {
            return Tail {
                quantile: num as f64 / den as f64,
                value: sorted[rank - 1],
                beyond,
                samples: n,
            };
        }
    }
    unreachable!("the p50 arm always returns")
}

/// Virtual-time results of one measured window.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Window {
    /// Read bytes completed inside the window.
    pub read_bytes: u64,
    /// Write bytes completed inside the window.
    pub write_bytes: u64,
    /// Ascending latencies of reads completed inside the window.
    pub read_lat: Vec<u64>,
    /// Ascending latencies of writes completed inside the window.
    pub write_lat: Vec<u64>,
    /// Ops issued, ramp and drain included.
    pub attempted: u64,
    /// Ops whose `issue` call failed.
    pub failed: u64,
    /// Writes issued, ramp and drain included.
    pub writes_issued: u64,
    /// Latest completion instant.
    pub end: u64,
}

/// Folds a per-op log into the window `[from, to]` (edges included, as the
/// program's own throughput meter counts them).
pub fn window(log: &[OpRecord], bs: u64, from: u64, to: u64) -> Window {
    let mut w = Window {
        attempted: log.len() as u64,
        ..Window::default()
    };
    for op in log {
        w.writes_issued += u64::from(op.write);
        if op.done == FAILED {
            w.failed += 1;
            continue;
        }
        w.end = w.end.max(op.done);
        if op.done < from || op.done > to {
            continue;
        }
        let lat = op.done - op.submit;
        if op.write {
            w.write_bytes += bs;
            w.write_lat.push(lat);
        } else {
            w.read_bytes += bs;
            w.read_lat.push(lat);
        }
    }
    w.read_lat.sort_unstable();
    w.write_lat.sort_unstable();
    w
}

/// Bytes over a window of `nanos`, in GiB/s.
pub fn gib_per_sec(bytes: u64, nanos: u64) -> f64 {
    bytes as f64 / (nanos as f64 / 1e9) / (1u64 << 30) as f64
}
