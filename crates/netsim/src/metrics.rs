//! Lightweight counters and histograms for ground-truth accounting.
//!
//! The simulator records what *actually* happened (every loss, every cause)
//! so the evaluation can score REFILL's reconstruction against truth — the
//! one luxury a simulation substrate has over the real CitySee deployment.

use std::collections::BTreeMap;

/// A named bag of integer counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSet {
    counters: BTreeMap<String, u64>,
}

impl CounterSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to counter `name`, creating it at zero if absent. Only the
    /// first use of a name allocates: the simulator counts on every
    /// transmission.
    pub fn add(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(value) => *value += by,
            None => {
                self.counters.insert(name.to_owned(), by);
            }
        }
    }

    /// Increment counter `name` by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Iterate over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Merge another set into this one (summing shared names).
    pub fn merge(&mut self, other: &CounterSet) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }
}

/// A fixed-bucket histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Upper bounds of each bucket (exclusive); a final overflow bucket is
    /// implicit.
    bounds: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// Create with the given ascending bucket upper bounds.
    pub fn new(bounds: Vec<u64>) -> Self {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        let n = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; n],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v < b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += u128::from(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of all samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest sample seen.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Approximate quantile `q ∈ [0,1]` as the upper bound of the bucket
    /// containing it (or `max` for the overflow bucket).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return self.bounds.get(i).copied().unwrap_or(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut c = CounterSet::new();
        c.incr("a");
        c.incr("a");
        c.add("b", 5);
        assert_eq!(c.get("a"), 2);
        assert_eq!(c.get("b"), 5);
        assert_eq!(c.get("missing"), 0);
    }

    #[test]
    fn counters_merge() {
        let mut a = CounterSet::new();
        a.add("x", 1);
        let mut b = CounterSet::new();
        b.add("x", 2);
        b.add("y", 3);
        a.merge(&b);
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.get("y"), 3);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new(vec![10, 100, 1000]);
        for v in [1, 5, 50, 500, 5000] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[2, 1, 1, 1]);
        assert_eq!(h.total(), 5);
        assert_eq!(h.max(), 5000);
        assert!((h.mean() - 1111.2).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_monotone() {
        let mut h = Histogram::new(vec![10, 20, 30, 40]);
        for v in 0..40 {
            h.record(v);
        }
        assert!(h.quantile(0.25) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(0.99));
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn bad_bounds_panic() {
        let _ = Histogram::new(vec![10, 10]);
    }
}
