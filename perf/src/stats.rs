//! Order statistics and digests shared by the runner and `perf compare`.

/// A timing summary: the median plus the highest percentile (at most the
/// asked-for one) that still has at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, in `50..=asked`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
}

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The median; 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartiles by Python's `statistics.quantiles(data, n=4)`
/// (the default "exclusive" method), so spreads computed here match the
/// ones an external checker computes from the same values.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n < 2 {
        let x = sorted.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let mid = median(samples);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

/// The `asked` percentile (nearest rank) if at least [`TAIL_BEYOND`]
/// samples lie beyond it; otherwise the highest percentile that has that
/// many, never below the median. Fewer than `2 * TAIL_BEYOND` samples
/// therefore report the median.
pub fn tail(samples: &[f64], asked: f64) -> Tail {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n < 2 * TAIL_BEYOND {
        return Tail {
            percentile: 50.0,
            value: median(samples),
        };
    }
    let highest = 100.0 * (n - TAIL_BEYOND) as f64 / n as f64;
    let percentile = asked.min(highest);
    let rank = ((percentile / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Tail {
        percentile,
        value: sorted[rank - 1],
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 64-bit FNV-1a of `bytes`, rendered as 16 hex digits — the digest the
/// benchmark prints for every simulated result so two runs (or two
/// commits) can be compared without storing the documents.
pub fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), (4.5, 7.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&data) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0; 5]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 200 samples: p95 has exactly 10 beyond it.
        let data: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&data, 95.0);
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.value, 190.0);
        assert_eq!(data.iter().filter(|x| **x > t.value).count(), 10);

        // 40 samples: p95 would leave 2 beyond, so p75 is the highest
        // percentile with 10 beyond.
        let data: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&data, 95.0);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(data.iter().filter(|x| **x > t.value).count(), 10);

        // Too few samples for any tail: the median stands in.
        let t = tail(&[1.0, 2.0, 3.0], 95.0);
        assert_eq!((t.percentile, t.value), (50.0, 2.0));
    }

    #[test]
    fn fnv_digest_is_stable() {
        assert_eq!(fnv1a(b""), "cbf29ce484222325");
        assert_eq!(fnv1a(b"a"), "af63dc4c8601ec8c");
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }
}
