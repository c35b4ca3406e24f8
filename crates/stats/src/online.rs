//! Streaming (single-pass) statistics.
//!
//! The simulation engine accumulates per-cluster cost, utilization and
//! client–server distance over hundreds of thousands of 5-minute steps;
//! [`OnlineStats`] (Welford's algorithm) lets it do so without storing every
//! sample, tracking minima and maxima alongside, and [`SampleReservoir`]
//! keeps a bounded uniform sample when the full distribution is needed.

use serde::{Deserialize, Serialize};

/// Welford online mean / variance accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl OnlineStats {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY, sum: 0.0 }
    }

    /// Add one observation. Non-finite observations are ignored.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Add a weighted observation by pushing it `weight` times' worth of mass.
    ///
    /// Weights must be positive and finite; other weights are ignored.
    /// This supports population-weighted distance statistics where each
    /// client state contributes according to its request volume.
    pub fn push_weighted(&mut self, x: f64, weight: f64) {
        if !x.is_finite() || !weight.is_finite() || weight <= 0.0 {
            return;
        }
        // Weighted Welford update (West 1979). We fold the weight into the
        // count as fractional mass; `count` keeps integral observations, so
        // we track weighted aggregates through mean/m2/sum only.
        // For simplicity and robustness we treat the weight as a repeat
        // count scaled to preserve the mean exactly.
        let w_count = self.count as f64 + weight;
        let delta = x - self.mean;
        self.mean += delta * (weight / w_count);
        self.m2 += weight * delta * (x - self.mean);
        self.sum += x * weight;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        // Round the stored count up by the integer part of the weight,
        // minimum 1, so `count()` still reflects "observations seen".
        self.count += weight.max(1.0) as u64;
    }

    /// Rebuild an accumulator from its raw parts — the inverse of reading
    /// [`Self::count`]/[`Self::mean`]/[`Self::m2`]/[`Self::min`]/
    /// [`Self::max`]/[`Self::sum`]. Callers that persist an accumulator
    /// (e.g. an engine snapshot) round-trip through this; a zero `count`
    /// yields an accumulator equal to [`Self::new`] regardless of the other
    /// arguments.
    pub fn from_parts(count: u64, mean: f64, m2: f64, min: f64, max: f64, sum: f64) -> Self {
        if count == 0 {
            return Self::new();
        }
        Self { count, mean, m2, min, max, sum }
    }

    /// Number of (finite) observations pushed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The raw second-moment accumulator (Σ·(x−mean)² mass), exposed so the
    /// accumulator can be persisted losslessly via [`Self::from_parts`].
    pub fn m2(&self) -> f64 {
        self.m2
    }

    /// Sum of observations (weighted where applicable).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Current mean; `None` before any observation.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Population variance; `None` before any observation.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 0).then(|| self.m2 / self.count as f64)
    }

    /// Population standard deviation; `None` before any observation.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Minimum observation; `None` before any observation.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation; `None` before any observation.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean = (n1 * self.mean + n2 * other.mean) / total;
        self.m2 = self.m2 + other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A small reservoir that keeps *all* samples up to a cap, after which it
/// keeps a uniformly-spaced subsample. Exact percentiles for bounded runs,
/// bounded memory for very long runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleReservoir {
    cap: usize,
    stride: usize,
    seen: u64,
    samples: Vec<f64>,
}

impl SampleReservoir {
    /// Create a reservoir that holds at most `cap` samples (`cap >= 2`).
    pub fn new(cap: usize) -> Self {
        Self { cap: cap.max(2), stride: 1, seen: 0, samples: Vec::new() }
    }

    /// Rebuild a reservoir from the parts its accessors expose (for
    /// lossless serialization). Returns `None` for parts no sequence of
    /// pushes can produce: a capacity below 2, a stride that is not a
    /// power of two, more samples than the capacity, or a sample count
    /// other than one per `stride` offers.
    pub fn from_parts(cap: usize, stride: usize, seen: u64, samples: Vec<f64>) -> Option<Self> {
        let valid = cap >= 2
            && stride.is_power_of_two()
            && samples.len() <= cap
            && samples.len() as u64 == seen.div_ceil(stride as u64);
        valid.then_some(Self { cap, stride, seen, samples })
    }

    /// The most samples the reservoir retains.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Change the capacity (minimum 2). Retained samples are kept; the new
    /// capacity applies from the next push, which decimates if the
    /// reservoir is already at or over it.
    pub fn set_capacity(&mut self, cap: usize) {
        self.cap = cap.max(2);
    }

    /// The current sampling stride: 1 until the first decimation, then
    /// doubling with each one.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Whether the reservoir has dropped samples (its percentiles are then
    /// approximate).
    pub fn is_decimated(&self) -> bool {
        self.stride > 1
    }

    /// Offer a sample to the reservoir.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        // The stride starts at 1 and only ever doubles, so it is always a
        // power of two and the stride test is a mask, not a division —
        // this is the hottest branch in long replays.
        debug_assert!(self.stride.is_power_of_two());
        if self.seen & (self.stride as u64 - 1) == 0 {
            if self.samples.len() >= self.cap {
                // Decimate: keep every other retained sample and double the stride.
                let mut kept = Vec::with_capacity(self.cap / 2 + 1);
                for (i, &s) in self.samples.iter().enumerate() {
                    if i % 2 == 0 {
                        kept.push(s);
                    }
                }
                self.samples = kept;
                self.stride *= 2;
                if self.seen & (self.stride as u64 - 1) == 0 {
                    self.samples.push(x);
                }
            } else {
                self.samples.push(x);
            }
        }
        self.seen += 1;
    }

    /// Number of samples offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The retained samples (unsorted).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Consume the reservoir, yielding the retained samples.
    pub fn into_samples(self) -> Vec<f64> {
        self.samples
    }

    /// Approximate percentile (exact while under the cap).
    pub fn percentile(&self, p: f64) -> Option<f64> {
        crate::quantiles::percentile(&self.samples, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() < eps, "{a} vs {b}");
    }

    #[test]
    fn online_matches_batch() {
        let xs: Vec<f64> = (0..500).map(|i| ((i * 37) % 113) as f64 - 50.0).collect();
        let mut o = OnlineStats::new();
        for &x in &xs {
            o.push(x);
        }
        assert_close(o.mean().unwrap(), descriptive::mean(&xs).unwrap(), 1e-9);
        assert_close(o.variance().unwrap(), descriptive::variance(&xs).unwrap(), 1e-9);
        assert_eq!(o.count(), xs.len() as u64);
        assert_eq!(o.min().unwrap(), descriptive::min(&xs).unwrap());
        assert_eq!(o.max().unwrap(), descriptive::max(&xs).unwrap());
    }

    #[test]
    fn online_empty_is_none() {
        let o = OnlineStats::new();
        assert_eq!(o.mean(), None);
        assert_eq!(o.variance(), None);
        assert_eq!(o.std_dev(), None);
        assert_eq!(o.min(), None);
        assert_eq!(o.max(), None);
    }

    #[test]
    fn online_ignores_nan() {
        let mut o = OnlineStats::new();
        o.push(1.0);
        o.push(f64::NAN);
        o.push(3.0);
        assert_eq!(o.count(), 2);
        assert_close(o.mean().unwrap(), 2.0, 1e-12);
    }

    #[test]
    fn weighted_mean_matches_expanded() {
        let mut w = OnlineStats::new();
        w.push_weighted(10.0, 3.0);
        w.push_weighted(20.0, 1.0);
        // Equivalent expanded sample: [10, 10, 10, 20]
        assert_close(w.mean().unwrap(), 12.5, 1e-9);
        assert_close(w.sum(), 50.0, 1e-9);
    }

    #[test]
    fn merge_matches_single_pass() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let (a, b) = xs.split_at(37);
        let mut oa = OnlineStats::new();
        let mut ob = OnlineStats::new();
        for &x in a {
            oa.push(x);
        }
        for &x in b {
            ob.push(x);
        }
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        oa.merge(&ob);
        assert_close(oa.mean().unwrap(), all.mean().unwrap(), 1e-9);
        assert_close(oa.variance().unwrap(), all.variance().unwrap(), 1e-9);
        assert_eq!(oa.count(), all.count());
    }

    #[test]
    fn merge_with_empty() {
        let mut a = OnlineStats::new();
        a.push(5.0);
        let empty = OnlineStats::new();
        let mut b = a;
        b.merge(&empty);
        assert_eq!(b, a);
        let mut c = OnlineStats::new();
        c.merge(&a);
        assert_eq!(c.mean(), a.mean());
    }

    #[test]
    fn reservoir_exact_under_cap() {
        let mut r = SampleReservoir::new(1000);
        for i in 0..500 {
            r.push(i as f64);
        }
        assert_eq!(r.samples().len(), 500);
        assert_close(r.percentile(95.0).unwrap(), 474.05, 0.5);
    }

    #[test]
    fn reservoir_bounded_over_cap() {
        let mut r = SampleReservoir::new(100);
        for i in 0..100_000 {
            r.push(i as f64);
        }
        assert!(r.samples().len() <= 101);
        assert_eq!(r.seen(), 100_000);
        // Median of 0..100k should still be roughly 50k.
        let med = r.percentile(50.0).unwrap();
        assert!((med - 50_000.0).abs() < 5_000.0, "median drifted: {med}");
    }

    #[test]
    fn reservoir_parts_round_trip() {
        let mut r = SampleReservoir::new(8);
        for i in 0..37 {
            r.push(i as f64);
        }
        assert!(r.is_decimated());
        let rebuilt =
            SampleReservoir::from_parts(r.capacity(), r.stride(), r.seen(), r.samples().to_vec())
                .expect("parts of a real reservoir are valid");
        assert_eq!(rebuilt, r);
        assert!(SampleReservoir::from_parts(1, 1, 0, Vec::new()).is_none());
        assert!(SampleReservoir::from_parts(8, 3, 9, vec![0.0; 3]).is_none());
        assert!(SampleReservoir::from_parts(8, 1, 2, vec![0.0; 3]).is_none());
        assert!(SampleReservoir::from_parts(2, 1, 3, vec![0.0; 3]).is_none());
    }

    #[test]
    fn reservoir_ignores_nan() {
        let mut r = SampleReservoir::new(10);
        r.push(f64::NAN);
        assert_eq!(r.seen(), 0);
        assert!(r.samples().is_empty());
    }
}
