//! Lightweight statistics for experiment harnesses: counters, online
//! summaries, and the streaming trial aggregates
//! ([`Aggregate`], [`Reservoir`]) used by the multi-trial experiment
//! engine in `amac-bench`.

use crate::rng::SimRng;
use std::collections::BTreeMap;
use std::fmt;

/// A monotone event counter keyed by a static label.
///
/// # Examples
///
/// ```
/// use amac_sim::stats::Counters;
///
/// let mut c = Counters::new();
/// c.add("rcv", 3);
/// c.incr("rcv");
/// assert_eq!(c.get("rcv"), 4);
/// assert_eq!(c.get("never"), 0);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    map: BTreeMap<&'static str, u64>,
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Adds `n` to the counter `key`.
    pub fn add(&mut self, key: &'static str, n: u64) {
        *self.map.entry(key).or_insert(0) += n;
    }

    /// Adds 1 to the counter `key`.
    pub fn incr(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Current value of `key` (0 if never touched).
    pub fn get(&self, key: &'static str) -> u64 {
        self.map.get(key).copied().unwrap_or(0)
    }

    /// Iterates over `(label, value)` pairs in label order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.map.iter().map(|(k, v)| (*k, *v))
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (k, v)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        Ok(())
    }
}

/// Online summary of a stream of `f64` samples: count, min, max, mean, and
/// variance (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use amac_sim::stats::Summary;
///
/// let mut s = Summary::new();
/// for x in [2.0, 4.0, 6.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 3);
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.min(), Some(2.0));
/// assert_eq!(s.max(), Some(6.0));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Unbiased sample variance, `m2 / (n - 1)` (0 for fewer than 2
    /// samples). This is the estimator confidence intervals are built on.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Half-width of a Student-t 95% confidence interval for the mean:
    /// `t(0.975, n−1) · s / √n` with `s` the sample standard deviation.
    /// The t critical value matters at the small trial counts experiments
    /// actually run (at `n = 3` it is 4.30, not 1.96 — a z-based interval
    /// there would have only ~72% real coverage). 0 for fewer than 2
    /// samples (a single measurement carries no spread information).
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            t975(self.count - 1) * (self.sample_variance() / self.count as f64).sqrt()
        }
    }

    /// The CI half-width as a fraction of the mean's magnitude — the
    /// quantity the adaptive trial engine drives below its `--target-ci`
    /// threshold. Batches of trials keep recording into the same summary,
    /// and this ratio shrinks as `t(n−1)/√n` once the spread stabilizes.
    ///
    /// Degenerate cases are chosen so thresholds behave sensibly: a spread
    /// around a zero mean reports `f64::INFINITY` (never "converged"), and
    /// a zero-spread stream reports `0.0` (converged at any threshold).
    ///
    /// # Examples
    ///
    /// ```
    /// use amac_sim::stats::Summary;
    ///
    /// let mut s = Summary::new();
    /// for x in [99.0, 100.0, 101.0] {
    ///     s.record(x);
    /// }
    /// // Tight spread around 100: well under a 5% target.
    /// assert!(s.relative_ci95() < 0.05);
    ///
    /// let mut zero = Summary::new();
    /// zero.record(-1.0);
    /// zero.record(1.0);
    /// assert_eq!(zero.relative_ci95(), f64::INFINITY);
    /// ```
    pub fn relative_ci95(&self) -> f64 {
        let half = self.ci95_half_width();
        if half == 0.0 {
            0.0
        } else if self.mean() == 0.0 {
            f64::INFINITY
        } else {
            half / self.mean().abs()
        }
    }

    /// Minimum sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "n=0");
        }
        write!(
            f,
            "n={} mean={:.2} sd={:.2} min={:.2} max={:.2}",
            self.count,
            self.mean(),
            self.stddev(),
            self.min,
            self.max
        )
    }
}

/// Two-sided Student-t critical values at confidence 0.95 (upper 0.975
/// quantile) by degrees of freedom; conservative step table, converging
/// to the normal 1.96 for large samples.
fn t975(df: u64) -> f64 {
    match df {
        0 => 0.0,
        1 => 12.706,
        2 => 4.303,
        3 => 3.182,
        4 => 2.776,
        5 => 2.571,
        6 => 2.447,
        7 => 2.365,
        8 => 2.306,
        9 => 2.262,
        10 => 2.228,
        11..=12 => 2.179,
        13..=15 => 2.131,
        16..=20 => 2.086,
        21..=30 => 2.042,
        31..=60 => 2.0,
        _ => 1.96,
    }
}

/// A fixed-capacity uniform sample of a stream (Vitter's algorithm R),
/// used for streaming quantiles (min/median/p95) where storing every
/// sample would be wasteful.
///
/// Fully deterministic: the replacement choices come from a [`SimRng`]
/// owned by the reservoir, so the same insertion sequence always yields
/// the same sample. While `seen() <= capacity` the reservoir holds every
/// sample and its quantiles are exact.
///
/// # Examples
///
/// ```
/// use amac_sim::stats::Reservoir;
///
/// let mut r = Reservoir::new(64);
/// for x in 1..=5 {
///     r.record(x as f64);
/// }
/// assert_eq!(r.min(), Some(1.0));
/// assert_eq!(r.quantile(0.5), Some(3.0));
/// assert!(r.is_exact());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Reservoir {
    capacity: usize,
    seen: u64,
    samples: Vec<f64>,
    rng: SimRng,
}

impl Reservoir {
    /// Creates a reservoir holding at most `capacity` samples, with a
    /// fixed seed for the replacement stream.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Reservoir {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Reservoir {
            capacity,
            seen: 0,
            samples: Vec::new(),
            rng: SimRng::seed(RESERVOIR_SEED),
        }
    }

    /// Records one sample (algorithm R: the `i`-th sample replaces a
    /// random slot with probability `capacity / i`).
    pub fn record(&mut self, x: f64) {
        self.seen += 1;
        if self.samples.len() < self.capacity {
            self.samples.push(x);
        } else {
            let j = self.rng.below(self.seen) as usize;
            if j < self.capacity {
                self.samples[j] = x;
            }
        }
    }

    /// Total number of samples offered to the reservoir.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no sample was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// `true` while the reservoir still holds *every* offered sample, i.e.
    /// its quantiles are exact rather than estimates.
    pub fn is_exact(&self) -> bool {
        self.seen <= self.capacity as u64
    }

    /// The `q`-quantile (nearest-rank over the held sample), `q` clamped
    /// to `[0, 1]`. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.max(1) - 1])
    }

    /// Smallest held sample.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().min_by(f64::total_cmp)
    }

    /// Median (0.5-quantile, nearest rank).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// 95th percentile (nearest rank).
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// The held samples, in insertion/replacement order (all offered
    /// samples while [`is_exact`](Reservoir::is_exact); a uniform
    /// subsample afterwards). Deterministic for a fixed feed order — the
    /// distribution plots in `amac-bench` render from this.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

const RESERVOIR_SEED: u64 = 0x5EED_4E5E_4901_4001;

/// Streaming aggregate of one measured quantity over many trials: a
/// Welford [`Summary`] (count/mean/variance/min/max) plus a [`Reservoir`]
/// for order statistics (median, p95).
///
/// Feed samples in a fixed order (the experiment engine folds trials in
/// trial-index order) and the aggregate is bit-reproducible regardless of
/// how the trials themselves were scheduled.
///
/// # Examples
///
/// ```
/// use amac_sim::stats::Aggregate;
///
/// let mut a = Aggregate::new();
/// for x in [10.0, 20.0, 30.0] {
///     a.record(x);
/// }
/// assert_eq!(a.count(), 3);
/// assert_eq!(a.mean(), 20.0);
/// assert_eq!(a.median(), Some(20.0));
/// assert!(a.ci95_half_width() > 0.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Aggregate {
    summary: Summary,
    reservoir: Reservoir,
}

/// Default reservoir capacity: plenty for exact quantiles at typical
/// trial counts, still O(1) memory for huge ones.
pub const AGGREGATE_RESERVOIR_CAPACITY: usize = 256;

impl Aggregate {
    /// Creates an empty aggregate with the default reservoir capacity.
    pub fn new() -> Aggregate {
        Aggregate {
            summary: Summary::new(),
            reservoir: Reservoir::new(AGGREGATE_RESERVOIR_CAPACITY),
        }
    }

    /// Records one per-trial measurement.
    pub fn record(&mut self, x: f64) {
        self.summary.record(x);
        self.reservoir.record(x);
    }

    /// The underlying Welford summary.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// Number of trials recorded.
    pub fn count(&self) -> u64 {
        self.summary.count()
    }

    /// Mean over trials (0 when empty).
    pub fn mean(&self) -> f64 {
        self.summary.mean()
    }

    /// 95% confidence-interval half-width for the mean.
    pub fn ci95_half_width(&self) -> f64 {
        self.summary.ci95_half_width()
    }

    /// CI half-width relative to the mean's magnitude (see
    /// [`Summary::relative_ci95`]); the adaptive trial engine's
    /// convergence criterion.
    ///
    /// # Examples
    ///
    /// ```
    /// use amac_sim::stats::Aggregate;
    ///
    /// let mut a = Aggregate::new();
    /// for _ in 0..8 {
    ///     a.record(250.0); // zero spread: converged at any threshold
    /// }
    /// assert_eq!(a.relative_ci95(), 0.0);
    /// ```
    pub fn relative_ci95(&self) -> f64 {
        self.summary.relative_ci95()
    }

    /// Smallest trial value.
    pub fn min(&self) -> Option<f64> {
        self.summary.min()
    }

    /// Largest trial value.
    pub fn max(&self) -> Option<f64> {
        self.summary.max()
    }

    /// Median trial value (exact while trials fit the reservoir).
    pub fn median(&self) -> Option<f64> {
        self.reservoir.median()
    }

    /// 95th-percentile trial value (exact while trials fit the reservoir).
    pub fn p95(&self) -> Option<f64> {
        self.reservoir.p95()
    }

    /// The retained per-trial samples (see [`Reservoir::samples`]): the
    /// raw material for histogram/CDF rendering.
    pub fn samples(&self) -> &[f64] {
        self.reservoir.samples()
    }
}

impl Default for Aggregate {
    fn default() -> Self {
        Aggregate::new()
    }
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count() == 0 {
            return write!(f, "n=0");
        }
        write!(
            f,
            "n={} mean={:.2} ±{:.2} med={:.2} p95={:.2}",
            self.count(),
            self.mean(),
            self.ci95_half_width(),
            self.median().unwrap_or(0.0),
            self.p95().unwrap_or(0.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut c = Counters::new();
        c.incr("a");
        c.add("a", 2);
        c.incr("b");
        assert_eq!(c.get("a"), 3);
        assert_eq!(c.get("b"), 1);
        assert_eq!(c.get("zzz"), 0);
        assert_eq!(c.iter().count(), 2);
        assert_eq!(c.to_string(), "a=3, b=1");
    }

    #[test]
    fn summary_statistics() {
        let mut s = Summary::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
    }

    #[test]
    fn summary_empty_behaviour() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.to_string(), "n=0");
    }

    /// Welford (streaming) statistics must match a naive two-pass
    /// reference over awkward data (large offset, small spread).
    #[test]
    fn welford_matches_two_pass_reference() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| 1.0e9 + (i as f64 * 0.73).sin() * 5.0)
            .collect();
        let mut s = Summary::new();
        for &x in &xs {
            s.record(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let ss: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum();
        let pop_var = ss / n;
        let samp_var = ss / (n - 1.0);
        assert!((s.mean() - mean).abs() / mean < 1e-12);
        assert!((s.variance() - pop_var).abs() / pop_var < 1e-9);
        assert!((s.sample_variance() - samp_var).abs() / samp_var < 1e-9);
        // n = 1000: the t critical value has converged to the normal 1.96.
        let ci = 1.96 * (samp_var / n).sqrt();
        assert!((s.ci95_half_width() - ci).abs() / ci < 1e-9);
    }

    #[test]
    fn relative_ci_handles_degenerate_means() {
        let mut s = Summary::new();
        for x in [90.0, 100.0, 110.0] {
            s.record(x);
        }
        assert!((s.relative_ci95() - s.ci95_half_width() / 100.0).abs() < 1e-12);
        // Zero spread: converged regardless of the mean (even a zero mean).
        let mut flat = Summary::new();
        flat.record(0.0);
        flat.record(0.0);
        assert_eq!(flat.relative_ci95(), 0.0);
        // Spread around zero: never converged.
        let mut sym = Summary::new();
        sym.record(-5.0);
        sym.record(5.0);
        assert_eq!(sym.relative_ci95(), f64::INFINITY);
        // Negative mean uses the magnitude.
        let mut neg = Summary::new();
        for x in [-90.0, -100.0, -110.0] {
            neg.record(x);
        }
        assert!(neg.relative_ci95() > 0.0);
        assert!(neg.relative_ci95() < 1.0);
    }

    #[test]
    fn ci_is_zero_below_two_samples() {
        let mut s = Summary::new();
        assert_eq!(s.ci95_half_width(), 0.0);
        s.record(42.0);
        assert_eq!(s.ci95_half_width(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        s.record(44.0);
        assert!(s.ci95_half_width() > 0.0);
    }

    #[test]
    fn small_sample_ci_uses_student_t() {
        // n = 3 (df = 2): the factor must be t = 4.303, not z = 1.96 —
        // a z interval at this size has only ~72% real coverage.
        let mut s = Summary::new();
        for x in [1.0, 2.0, 3.0] {
            s.record(x);
        }
        let expected = 4.303 * (s.sample_variance() / 3.0).sqrt();
        assert!((s.ci95_half_width() - expected).abs() < 1e-9);
        // Monotone sanity along the table: growing n shrinks the factor.
        assert!(t975(2) > t975(5));
        assert!(t975(5) > t975(30));
        assert!((t975(1000) - 1.96).abs() < 1e-12);
        assert_eq!(t975(0), 0.0);
    }

    #[test]
    fn reservoir_exact_below_capacity() {
        let mut r = Reservoir::new(8);
        for x in [5.0, 1.0, 3.0, 2.0, 4.0] {
            r.record(x);
        }
        assert!(r.is_exact());
        assert_eq!(r.len(), 5);
        assert_eq!(r.seen(), 5);
        assert_eq!(r.min(), Some(1.0));
        assert_eq!(r.median(), Some(3.0));
        assert_eq!(r.quantile(1.0), Some(5.0));
        assert_eq!(r.p95(), Some(5.0));
    }

    #[test]
    fn reservoir_overflow_stays_plausible_and_deterministic() {
        let run = || {
            let mut r = Reservoir::new(16);
            for i in 0..1000u64 {
                r.record(i as f64);
            }
            r
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same insertion order, same reservoir");
        assert!(!a.is_exact());
        assert_eq!(a.len(), 16);
        assert_eq!(a.seen(), 1000);
        // A uniform sample of 0..1000 has a median nowhere near the edges.
        let med = a.median().unwrap();
        assert!((100.0..900.0).contains(&med), "median {med}");
    }

    #[test]
    fn reservoir_empty_and_zero_capacity() {
        let r = Reservoir::new(4);
        assert!(r.is_empty());
        assert_eq!(r.quantile(0.5), None);
        assert_eq!(r.min(), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn reservoir_zero_capacity_panics() {
        Reservoir::new(0);
    }

    #[test]
    fn aggregate_combines_summary_and_quantiles() {
        let mut a = Aggregate::new();
        for x in 1..=20 {
            a.record(x as f64);
        }
        assert_eq!(a.count(), 20);
        assert_eq!(a.mean(), 10.5);
        assert_eq!(a.min(), Some(1.0));
        assert_eq!(a.max(), Some(20.0));
        assert_eq!(a.median(), Some(10.0));
        assert_eq!(a.p95(), Some(19.0));
        assert!(a.ci95_half_width() > 0.0);
        let shown = a.to_string();
        assert!(shown.contains("n=20"), "{shown}");
        assert_eq!(Aggregate::new().to_string(), "n=0");
    }
}
