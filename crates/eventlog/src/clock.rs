//! Per-node clock skew.
//!
//! Nodes in a distributed network are not synchronized: each node's clock
//! has an initial offset and a frequency drift (sensor-node crystals are
//! typically within ±50 ppm). Local log timestamps, when present at all,
//! are in this skewed local time. REFILL never consumes them; baselines
//! that *do* (time-correlation diagnosis) inherit their error, which is part
//! of the point of Section V-D.2.

use netsim::{NodeId, RngFactory, SimTime};

/// Clock parameters for one node.
#[derive(Debug, Clone, Copy)]
pub struct NodeClock {
    /// Offset added to true time, in microseconds (may be "negative" via
    /// wrapping semantics: stored as signed).
    pub offset_us: i64,
    /// Frequency error in parts-per-million.
    pub drift_ppm: f64,
}

impl NodeClock {
    /// A perfectly synchronized clock.
    pub const PERFECT: NodeClock = NodeClock {
        offset_us: 0,
        drift_ppm: 0.0,
    };

    /// Local reading for a true instant, clamped at zero.
    pub fn local_time(&self, truth: SimTime) -> u64 {
        let t = truth.as_micros() as f64;
        let skewed = t * (1.0 + self.drift_ppm * 1e-6) + self.offset_us as f64;
        if skewed <= 0.0 {
            0
        } else {
            skewed as u64
        }
    }
}

/// Configuration of the population's clock error.
#[derive(Debug, Clone, Copy)]
pub struct ClockConfig {
    /// Maximum absolute initial offset, in microseconds.
    pub max_offset_us: u64,
    /// Maximum absolute drift, in ppm.
    pub max_drift_ppm: f64,
}

impl Default for ClockConfig {
    fn default() -> Self {
        // Nodes booted minutes apart with no time sync and ±50 ppm crystals.
        ClockConfig {
            max_offset_us: 300 * 1_000_000,
            max_drift_ppm: 50.0,
        }
    }
}

/// Clocks for a whole deployment.
#[derive(Debug, Clone)]
pub struct ClockModel {
    clocks: Vec<NodeClock>,
}

impl ClockModel {
    /// Sample a clock per node from `config`.
    pub fn generate(n_nodes: usize, config: &ClockConfig, rng_factory: &RngFactory) -> Self {
        let mut clocks = Vec::with_capacity(n_nodes);
        for i in 0..n_nodes {
            let mut rng = rng_factory.stream("clock", i as u64);
            let max = config.max_offset_us as i64;
            clocks.push(NodeClock {
                offset_us: if max == 0 { 0 } else { rng.gen_range(-max..=max) },
                drift_ppm: rng.gen_range(-config.max_drift_ppm..=config.max_drift_ppm),
            });
        }
        ClockModel { clocks }
    }

    /// A model where every node is perfectly synchronized.
    pub fn perfect(n_nodes: usize) -> Self {
        ClockModel {
            clocks: vec![NodeClock::PERFECT; n_nodes],
        }
    }

    /// The clock of `node` (out-of-range nodes — e.g. the base-station pseudo
    /// id — read perfect time, matching its NTP-synced PC).
    pub fn clock(&self, node: NodeId) -> NodeClock {
        self.clocks
            .get(node.index())
            .copied()
            .unwrap_or(NodeClock::PERFECT)
    }

    /// Local reading on `node` for true instant `truth`.
    pub fn local_time(&self, node: NodeId, truth: SimTime) -> u64 {
        self.clock(node).local_time(truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clock_is_identity() {
        let c = NodeClock::PERFECT;
        assert_eq!(c.local_time(SimTime::from_secs(100)), 100_000_000);
    }

    #[test]
    fn offset_shifts_reading() {
        let c = NodeClock {
            offset_us: 5_000_000,
            drift_ppm: 0.0,
        };
        assert_eq!(c.local_time(SimTime::from_secs(1)), 6_000_000);
    }

    #[test]
    fn negative_readings_clamp_to_zero() {
        let c = NodeClock {
            offset_us: -10_000_000,
            drift_ppm: 0.0,
        };
        assert_eq!(c.local_time(SimTime::from_secs(1)), 0);
    }

    #[test]
    fn drift_accumulates() {
        let c = NodeClock {
            offset_us: 0,
            drift_ppm: 50.0,
        };
        // After 10^6 seconds, 50 ppm is 50 seconds fast.
        let local = c.local_time(SimTime::from_secs(1_000_000));
        let expect = 1_000_000_000_000u64 + 50_000_000;
        assert!((local as i64 - expect as i64).abs() < 1000);
    }

    #[test]
    fn generated_clocks_respect_bounds() {
        let cfg = ClockConfig {
            max_offset_us: 1000,
            max_drift_ppm: 10.0,
        };
        let m = ClockModel::generate(100, &cfg, &RngFactory::new(5));
        for i in 0..100u16 {
            let c = m.clock(NodeId(i));
            assert!(c.offset_us.abs() <= 1000);
            assert!(c.drift_ppm.abs() <= 10.0);
        }
    }

    #[test]
    fn clocks_differ_between_nodes() {
        let m = ClockModel::generate(10, &ClockConfig::default(), &RngFactory::new(5));
        let offsets: Vec<i64> = (0..10u16).map(|i| m.clock(NodeId(i)).offset_us).collect();
        let distinct: std::collections::HashSet<_> = offsets.iter().collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn out_of_range_node_reads_perfect_time() {
        let m = ClockModel::generate(3, &ClockConfig::default(), &RngFactory::new(5));
        assert_eq!(
            m.local_time(crate::event::BASE_STATION, SimTime::from_secs(2)),
            2_000_000
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = ClockModel::generate(20, &ClockConfig::default(), &RngFactory::new(9));
        let b = ClockModel::generate(20, &ClockConfig::default(), &RngFactory::new(9));
        for i in 0..20u16 {
            assert_eq!(a.clock(NodeId(i)).offset_us, b.clock(NodeId(i)).offset_us);
        }
    }
}
