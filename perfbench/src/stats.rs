//! Order statistics for the benchmark's timings.
//!
//! A latency is reported as its median and the highest percentile the
//! sample supports: the highest of p99, p95, p90 and p75 that leaves at
//! least ten samples beyond it. A throughput is reported as the 90th
//! percentile of its per-call rates ([`fast_phase_rate`]).

/// Samples that must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

/// Percentiles tried from the highest down.
const LADDER: &[f64] = &[99.0, 95.0, 90.0, 75.0];

/// The `p`-th percentile (nearest rank) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank `p`-th percentile position.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1))
}

/// The highest percentile of [`LADDER`] with at least [`BEYOND`] samples
/// beyond it, or `None` when even p75 is unsupported.
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .find(|&p| n > 0 && beyond(n, p) >= BEYOND)
}

/// The median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// A latency sample summarised as the benchmark reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The `tail_p`-th percentile.
    pub tail: f64,
    /// Which percentile `tail` is (see [`supported_percentile`]).
    pub tail_p: f64,
}

/// Summarises a sample; infinite values (failed requests) sort last and
/// push the tail past any finite limit. An unsupported tail falls back to
/// the maximum.
pub fn summarise(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let (tail_p, tail) = match supported_percentile(n) {
        Some(p) => (p, percentile(&v, p)),
        None => (100.0, v[n - 1]),
    };
    Summary {
        n,
        p50: percentile(&v, 50.0),
        tail,
        tail_p,
    }
}

/// The 90th percentile of an unsorted sample of rates.
///
/// The shared host the benchmark was defined on alternates, every one to
/// seven seconds, between a fast and a slow phase whose call rates differ
/// by up to 1.8×; which phase dominates a run is up to the host. The
/// median call lands on that phase, while the 90th percentile measures the
/// fast phase, which every run reaches for more than a tenth of its calls.
pub fn fast_phase_rate(rates: &[f64]) -> f64 {
    let mut v = rates.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 90.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, ten beyond — p99 is supported.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(supported_percentile(1000), Some(99.0));
        // 999 samples: rank 990, nine beyond — fall back to p95.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(supported_percentile(999), Some(95.0));
        // 200 samples: p95 leaves ten beyond.
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(199), Some(90.0));
        assert_eq!(supported_percentile(40), Some(75.0));
        assert_eq!(supported_percentile(39), None);
        assert_eq!(supported_percentile(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn fast_phase_rate_ignores_a_slow_majority() {
        // 60 calls in a slow phase, 40 in a fast one: the median is slow,
        // the 90th percentile is fast.
        let mut v: Vec<f64> = (0..60).map(|i| 300.0 + i as f64).collect();
        v.extend((0..40).map(|i| 600.0 + i as f64));
        assert!(median(&v) < 400.0);
        assert_eq!(fast_phase_rate(&v), 629.0);
    }

    #[test]
    fn failures_dominate_the_tail() {
        let mut v: Vec<f64> = vec![1.0; 990];
        v.extend(std::iter::repeat_n(f64::INFINITY, 10));
        let s = summarise(&v);
        assert_eq!((s.n, s.p50, s.tail_p), (1000, 1.0, 99.0));
        assert_eq!(s.tail, 1.0, "ten failures sit beyond p99");
        v.push(f64::INFINITY);
        assert!(summarise(&v).tail.is_infinite(), "an eleventh reaches p99");
    }
}
