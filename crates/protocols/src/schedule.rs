//! Time-varying fault processes.
//!
//! Everything that made CitySee's losses non-stationary is expressed as a
//! piecewise-constant [`Schedule`] over simulation time, bundled into a
//! [`FaultSchedule`]:
//!
//! * base-station **server outages** (22.6 % of the paper's losses),
//! * the sink's **pre-log stack drop** probability — the unstable RS232
//!   wiring kept the MCU busy, dropping hardware-acked packets before the
//!   network layer logged them (the paper's dominant *acked* losses),
//! * the sink's **serial transmission loss** probability (received losses
//!   on the sink), both repaired on day 23,
//! * a global **weather factor** on link quality (snow on days 9–10), and
//! * localized **interference bursts** degrading a region's links for a
//!   window (the bursty timeout/duplicate ellipses of Figure 5).

use netsim::link::QualityModulator;
use netsim::{NodeId, Position, SimTime, Topology};

/// A piecewise-constant function of simulation time.
#[derive(Debug, Clone)]
pub struct Schedule<T> {
    /// `(start, value)` pairs sorted by start; the value holds until the
    /// next start.
    steps: Vec<(SimTime, T)>,
    default: T,
}

impl<T: Copy> Schedule<T> {
    /// A schedule that is `value` forever.
    pub fn constant(value: T) -> Self {
        Schedule {
            steps: Vec::new(),
            default: value,
        }
    }

    /// Build from `(start, value)` steps (sorted by start) and a default
    /// for times before the first step.
    pub fn from_steps(default: T, mut steps: Vec<(SimTime, T)>) -> Self {
        steps.sort_by_key(|(t, _)| *t);
        Schedule { steps, default }
    }

    /// The value at time `t`.
    pub fn at(&self, t: SimTime) -> T {
        let mut v = self.default;
        for &(start, val) in &self.steps {
            if start <= t {
                v = val;
            } else {
                break;
            }
        }
        v
    }
}

/// A localized interference burst: links touching the region are degraded
/// by `factor` during the window.
#[derive(Debug, Clone)]
pub struct InterferenceBurst {
    /// Region centre.
    pub center: Position,
    /// Region radius in metres.
    pub radius_m: f64,
    /// Window start.
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// Multiplier applied to affected links' PRR (0 = jammed).
    pub factor: f64,
}

impl InterferenceBurst {
    /// Whether the burst affects a link endpoint at `p` at time `t`.
    pub fn affects(&self, p: &Position, t: SimTime) -> bool {
        t >= self.start && t < self.end && self.center.distance(p) <= self.radius_m
    }
}

/// The full fault configuration of a run.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    /// Base-station downtime windows `[start, end)`.
    pub outages: Vec<(SimTime, SimTime)>,
    /// Sink pre-log stack-drop probability over time.
    pub sink_prelog_drop: Schedule<f64>,
    /// Sink post-recv, pre-serial drop probability over time.
    pub sink_predrop: Schedule<f64>,
    /// Serial (RS232) per-packet loss probability over time.
    pub serial_loss: Schedule<f64>,
    /// Global link-quality multiplier over time (weather).
    pub weather: Schedule<f64>,
    /// Localized interference bursts.
    pub bursts: Vec<InterferenceBurst>,
}

impl Default for FaultSchedule {
    fn default() -> Self {
        FaultSchedule {
            outages: Vec::new(),
            sink_prelog_drop: Schedule::constant(0.0),
            sink_predrop: Schedule::constant(0.0),
            serial_loss: Schedule::constant(0.0),
            weather: Schedule::constant(1.0),
            bursts: Vec::new(),
        }
    }
}

impl FaultSchedule {
    /// Is the base station down at `t`?
    pub fn in_outage(&self, t: SimTime) -> bool {
        self.outages.iter().any(|&(s, e)| t >= s && t < e)
    }
}

/// A [`QualityModulator`] combining weather and interference bursts against
/// a topology's node positions.
pub struct FaultModulator {
    positions: Vec<Position>,
    weather: Schedule<f64>,
    bursts: Vec<InterferenceBurst>,
}

impl FaultModulator {
    /// Build from a topology and schedule.
    pub fn new(topology: &Topology, faults: &FaultSchedule) -> Self {
        FaultModulator {
            positions: topology.nodes().map(|n| topology.position(n)).collect(),
            weather: faults.weather.clone(),
            bursts: faults.bursts.clone(),
        }
    }
}

impl QualityModulator for FaultModulator {
    fn factor(&self, from: NodeId, to: NodeId, at: SimTime) -> f64 {
        let mut f = self.weather.at(at);
        for b in &self.bursts {
            let hits = b.affects(&self.positions[from.index()], at)
                || b.affects(&self.positions[to.index()], at);
            if hits {
                f *= b.factor;
            }
        }
        f.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::topology::Layout;
    use netsim::RngFactory;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn constant_schedule() {
        let s = Schedule::constant(0.25);
        assert_eq!(s.at(SimTime::ZERO), 0.25);
        assert_eq!(s.at(t(1_000_000)), 0.25);
    }

    #[test]
    fn stepped_schedule() {
        let s = Schedule::from_steps(0.5, vec![(t(10), 0.9), (t(20), 0.1)]);
        assert_eq!(s.at(t(0)), 0.5);
        assert_eq!(s.at(t(10)), 0.9);
        assert_eq!(s.at(t(15)), 0.9);
        assert_eq!(s.at(t(20)), 0.1);
        assert_eq!(s.at(t(99)), 0.1);
    }

    #[test]
    fn steps_sort_on_build() {
        let s = Schedule::from_steps(0, vec![(t(20), 2), (t(10), 1)]);
        assert_eq!(s.at(t(12)), 1);
        assert_eq!(s.at(t(25)), 2);
    }

    #[test]
    fn outage_windows() {
        let f = FaultSchedule {
            outages: vec![(t(5), t(10)), (t(20), t(21))],
            ..FaultSchedule::default()
        };
        assert!(!f.in_outage(t(4)));
        assert!(f.in_outage(t(5)));
        assert!(f.in_outage(t(9)));
        assert!(!f.in_outage(t(10)));
        assert!(f.in_outage(t(20)));
    }

    #[test]
    fn burst_affects_region_and_window() {
        let b = InterferenceBurst {
            center: Position { x: 0.0, y: 0.0 },
            radius_m: 50.0,
            start: t(10),
            end: t(20),
            factor: 0.2,
        };
        let inside = Position { x: 30.0, y: 0.0 };
        let outside = Position { x: 100.0, y: 0.0 };
        assert!(b.affects(&inside, t(15)));
        assert!(!b.affects(&inside, t(5)));
        assert!(!b.affects(&inside, t(20)));
        assert!(!b.affects(&outside, t(15)));
    }

    #[test]
    fn modulator_combines_weather_and_bursts() {
        let factory = RngFactory::new(1);
        let topo = Topology::generate(4, 100.0, Layout::Chain, &factory);
        let faults = FaultSchedule {
            weather: Schedule::from_steps(1.0, vec![(t(10), 0.5)]),
            bursts: vec![InterferenceBurst {
                center: topo.position(NodeId(0)),
                radius_m: 10.0,
                start: t(10),
                end: t(20),
                factor: 0.4,
            }],
            ..FaultSchedule::default()
        };
        let m = FaultModulator::new(&topo, &faults);
        // Before anything: clean.
        assert_eq!(m.factor(NodeId(0), NodeId(1), t(0)), 1.0);
        // Weather only (link far from burst).
        assert!((m.factor(NodeId(2), NodeId(3), t(15)) - 0.5).abs() < 1e-12);
        // Weather × burst at node 0.
        assert!((m.factor(NodeId(0), NodeId(1), t(15)) - 0.2).abs() < 1e-12);
    }
}
