//! Order statistics for the benchmark's timings.
//!
//! Every timing is reported as its median plus the *tail*: the highest
//! percentile of a fixed ladder that still has at least ten samples
//! beyond it, so the tail figure never rests on a handful of outliers.
//! Work that never produced a sample (a job that never completed, an
//! activation whose body never started) is kept as a *missing* sample
//! that ranks above every measured one: it counts against every
//! latency limit instead of silently vanishing from the distribution.

/// Percentiles the tail selector may pick, highest first.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest rank (1-based) of percentile `p` among `n` samples. The
/// nudge keeps products such as 99.9 % × 10 000 from rounding up past
/// the exact rank.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64) - 1e-9).ceil().max(1.0) as usize
}

/// The highest ladder percentile with at least ten of `n` samples
/// beyond it, or `None` when even the median has fewer than ten.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= TAIL_MIN_BEYOND)
}

/// A latency distribution: measured values plus missing samples.
#[derive(Clone, Debug, Default)]
pub struct Dist {
    values: Vec<f64>,
    missing: usize,
    sorted: bool,
}

impl Dist {
    pub fn new() -> Self {
        Dist::default()
    }

    /// A distribution with room for `n` values, so filling it never
    /// reallocates (the peak resident set counts the benchmark's own
    /// bookkeeping too, and a doubling copy would make it jump).
    pub fn with_capacity(n: usize) -> Self {
        Dist {
            values: Vec::with_capacity(n),
            ..Dist::default()
        }
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Records work that never produced a value (ranks as +∞).
    pub fn push_missing(&mut self) {
        self.missing += 1;
    }

    /// Measured plus missing samples.
    pub fn count(&self) -> usize {
        self.values.len() + self.missing
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile over measured and missing samples;
    /// `+∞` when the rank falls on a missing sample, `None` when empty.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        self.sort();
        Some(
            self.values
                .get(rank(p, n) - 1)
                .copied()
                .unwrap_or(f64::INFINITY),
        )
    }

    pub fn median(&mut self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// `(percentile, value)` of the tail selected by [`tail_percentile`].
    pub fn tail(&mut self) -> Option<(f64, f64)> {
        let p = tail_percentile(self.count())?;
        self.percentile(p).map(|v| (p, v))
    }

    /// Mean of the measured values; `None` when empty or when any
    /// sample is missing.
    pub fn mean(&self) -> Option<f64> {
        if self.missing > 0 || self.values.is_empty() {
            return None;
        }
        Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
    }
}

/// Median of plain values (`0` for an empty slice).
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nanoseconds as microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_selector_keeps_ten_samples_beyond() {
        // Fewer than 20 samples: not even the median has ten beyond it.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(10_000_000), Some(99.99));
        // The selected percentile really leaves >= 10 samples above it.
        for n in [20, 57, 100, 1_234, 10_000, 54_321] {
            let p = tail_percentile(n).unwrap();
            let r = rank(p, n);
            assert!(n - r >= 10, "n={n} p={p} rank={r}");
        }
    }

    #[test]
    fn never_completed_counts_against_the_limit() {
        let mut d = Dist::new();
        for v in 1..=10 {
            d.push(f64::from(v));
        }
        assert_eq!(d.median(), Some(5.0));
        // Eleven jobs that never completed: the median is now a miss.
        for _ in 0..11 {
            d.push_missing();
        }
        assert_eq!(d.count(), 21);
        assert_eq!(d.median(), Some(f64::INFINITY));
        assert_eq!(d.mean(), None);
        // The tail (p50 at n = 21) is a miss too, never a measured value.
        assert_eq!(d.tail(), Some((50.0, f64::INFINITY)));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut d = Dist::new();
        for v in (1..=100).rev() {
            d.push(f64::from(v));
        }
        assert_eq!(d.percentile(50.0), Some(50.0));
        assert_eq!(d.percentile(99.0), Some(99.0));
        assert_eq!(d.percentile(100.0), Some(100.0));
        assert_eq!(d.tail(), Some((90.0, 90.0)));
        assert_eq!(median_of(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
