//! Percentiles and the "enough samples beyond it" rule.

/// A percentile is *resolved* only when at least this many samples lie
/// strictly beyond it; below that the order statistic is set by a handful
/// of outliers and says little about the distribution.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest-rank index of percentile `p` (0 < p ≤ 100) among `n`
/// sorted samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether percentile `p` of `n` samples has [`MIN_BEYOND`] samples beyond it.
pub fn resolved(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Median (mean of the two middle samples for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One latency distribution, sorted once.
pub struct Latencies {
    sorted: Vec<f64>,
}

impl Latencies {
    pub fn new(mut samples: Vec<f64>) -> Latencies {
        samples.sort_by(f64::total_cmp);
        Latencies { sorted: samples }
    }

    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile, whether or not it is resolved; 0 when
    /// there are no samples.
    pub fn at(&self, p: f64) -> f64 {
        percentile(&self.sorted, p).unwrap_or(0.0)
    }

    /// The percentile only when [`resolved`].
    pub fn resolved(&self, p: f64) -> Option<f64> {
        resolved(self.sorted.len(), p).then(|| self.at(p))
    }

    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p50: rank ceil(n/2), so n - rank >= 10 first holds at n = 20.
        assert!(!resolved(19, 50.0));
        assert!(resolved(20, 50.0));
        // p95 needs 200 samples, p99 needs 1000.
        assert!(!resolved(199, 95.0));
        assert!(resolved(200, 95.0));
        assert!(!resolved(999, 99.0));
        assert!(resolved(1000, 99.0));
        assert!(!resolved(0, 50.0));
    }

    #[test]
    fn latencies_report_only_resolved_percentiles() {
        let l = Latencies::new((1..=90).rev().map(f64::from).collect());
        assert_eq!(l.n(), 90);
        assert_eq!(l.resolved(50.0), Some(45.0));
        assert_eq!(l.resolved(95.0), None);
        assert_eq!(l.at(95.0), 86.0);
        assert_eq!(l.max(), 90.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
