//! Lightweight counters for ground-truth accounting.
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
}
