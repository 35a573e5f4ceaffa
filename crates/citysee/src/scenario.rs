//! Scenario definition and construction of simulator inputs.
//!
//! Time is scaled: a simulated "day" is `day_secs` of simulation time (the
//! paper's network sent a packet every few minutes for 30 wall-clock days;
//! we keep the *structure* — packets per node per day, per-day fault
//! schedule — while compressing wall time so a month fits in seconds of
//! compute). All fault intensities are per-packet probabilities, so the
//! compression does not change loss composition.

use eventlog::collect::CollectionConfig;
use eventlog::logger::LoggerConfig;
use netsim::link::{LinkModel, LinkModelConfig, LinkQualityTable};
use netsim::topology::Layout;
use netsim::{Position, RngFactory, SimDuration, SimTime, Topology};
use protocols::schedule::{FaultSchedule, InterferenceBurst, Schedule};
use protocols::SimConfig;

/// A CitySee-like campaign description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (used in reports).
    pub name: String,
    /// Number of sensor nodes (the paper: 1,200).
    pub nodes: usize,
    /// Deployment square side in metres.
    pub side_m: f64,
    /// Number of simulated days.
    pub days: u32,
    /// Seconds of simulation time per day (time compression).
    pub day_secs: u64,
    /// Application packets per node per day.
    pub packets_per_node_per_day: u32,
    /// Master seed.
    pub seed: u64,
    /// Day the sink wiring is replaced (`None` = never), 0-indexed: the
    /// paper's "after the 23th day".
    pub sink_fix_day: Option<u32>,
    /// Days with snow (link-quality drop), 0-indexed (paper: days 9–10,
    /// 1-indexed, i.e. indices 8 and 9).
    pub snow_days: Vec<u32>,
    /// Snow link-quality multiplier.
    pub snow_factor: f64,
    /// Number of base-station outages across the campaign (randomly placed
    /// unless [`Scenario::outage_days`] pins them).
    pub outage_count: u32,
    /// Explicit outage days (0-indexed), overriding random placement.
    pub outage_days: Option<Vec<u32>>,
    /// Outage length as a fraction of a day.
    pub outage_day_frac: f64,
    /// Number of localized interference bursts.
    pub burst_count: u32,
    /// Sink pre-log (acked-loss) drop probability before the fix.
    pub sink_prelog_before: f64,
    /// Sink post-recv drop probability before the fix.
    pub sink_predrop_before: f64,
    /// Serial loss probability before the fix.
    pub serial_loss_before: f64,
    /// The same three probabilities after the fix.
    pub sink_prelog_after: f64,
    /// Post-recv drop after the fix.
    pub sink_predrop_after: f64,
    /// Serial loss after the fix.
    pub serial_loss_after: f64,
    /// Ordinary-node stack-drop probability (acked losses off-sink).
    pub p_prelog_drop: f64,
    /// Ordinary-node internal-drop probability (received losses off-sink).
    pub p_internal_drop: f64,
    /// Log-collection loss parameters.
    pub collection: CollectionConfig,
    /// Local logger behaviour.
    pub logger: LoggerConfig,
}

netsim::json_struct!(Scenario {
    name,
    nodes,
    side_m,
    days,
    day_secs,
    packets_per_node_per_day,
    seed,
    sink_fix_day,
    snow_days,
    snow_factor,
    outage_count,
    outage_days,
    outage_day_frac,
    burst_count,
    sink_prelog_before,
    sink_predrop_before,
    serial_loss_before,
    sink_prelog_after,
    sink_predrop_after,
    serial_loss_after,
    p_prelog_drop,
    p_internal_drop,
    collection,
    logger
});

impl Scenario {
    /// The paper-scale campaign: 1,200 nodes, 30 days.
    pub fn paper() -> Self {
        Scenario {
            name: "citysee-paper".into(),
            nodes: 1200,
            side_m: 1560.0,
            ..Scenario::standard()
        }
    }

    /// The default evaluation scale: 300 nodes, 30 days — same structure as
    /// the paper run at a fraction of the compute.
    pub fn standard() -> Self {
        Scenario {
            name: "citysee-standard".into(),
            nodes: 300,
            side_m: 780.0,
            days: 30,
            day_secs: 240,
            packets_per_node_per_day: 8,
            seed: 2015,
            sink_fix_day: Some(23),
            snow_days: vec![8, 9],
            snow_factor: 0.45,
            outage_count: 5,
            outage_days: None,
            outage_day_frac: 0.22,
            burst_count: 6,
            sink_prelog_before: 0.075,
            sink_predrop_before: 0.016,
            serial_loss_before: 0.028,
            sink_prelog_after: 0.001,
            sink_predrop_after: 0.0003,
            serial_loss_after: 0.0005,
            p_prelog_drop: 0.0001,
            p_internal_drop: 0.0012,
            collection: CollectionConfig::default(),
            logger: LoggerConfig::default(),
        }
    }

    /// A small, fast scenario for tests: 60 nodes, 6 days.
    pub fn small() -> Self {
        Scenario {
            name: "citysee-small".into(),
            nodes: 60,
            side_m: 350.0,
            days: 6,
            day_secs: 120,
            packets_per_node_per_day: 6,
            sink_fix_day: Some(4),
            snow_days: vec![2],
            outage_count: 2,
            outage_days: Some(vec![1, 3]),
            burst_count: 2,
            ..Scenario::standard()
        }
    }

    /// One day as a duration.
    pub fn day_len(&self) -> SimDuration {
        SimDuration::from_secs(self.day_secs)
    }

    /// Total campaign duration.
    pub fn duration(&self) -> SimTime {
        SimTime::from_secs(self.day_secs * u64::from(self.days))
    }

    /// The (0-indexed) day an instant falls in.
    pub fn day_of(&self, t: SimTime) -> u32 {
        (t.as_secs() / self.day_secs).min(u64::from(self.days.saturating_sub(1))) as u32
    }

    /// Start of a (0-indexed) day.
    pub fn day_start(&self, day: u32) -> SimTime {
        SimTime::from_secs(self.day_secs * u64::from(day))
    }

    /// The application sending period.
    pub fn packet_interval(&self) -> SimDuration {
        SimDuration::from_secs(
            (self.day_secs / u64::from(self.packets_per_node_per_day)).max(1),
        )
    }

    /// Build the fault schedule from the scenario's narrative.
    pub fn faults(&self) -> FaultSchedule {
        let factory = RngFactory::new(self.seed);
        let mut rng = factory.stream("faults", 0);

        // Sink wiring: bad until the fix day, clean after.
        let fix = self
            .sink_fix_day
            .map(|d| self.day_start(d))
            .unwrap_or(SimTime::MAX);
        let step = |before: f64, after: f64| {
            if fix == SimTime::MAX {
                Schedule::constant(before)
            } else {
                Schedule::from_steps(before, vec![(fix, after)])
            }
        };
        let sink_prelog_drop = step(self.sink_prelog_before, self.sink_prelog_after);
        let sink_predrop = step(self.sink_predrop_before, self.sink_predrop_after);
        let serial_loss = step(self.serial_loss_before, self.serial_loss_after);

        // Snow: per-day weather steps.
        let mut weather_steps = Vec::new();
        for day in 0..self.days {
            let f = if self.snow_days.contains(&day) {
                self.snow_factor
            } else {
                1.0
            };
            weather_steps.push((self.day_start(day), f));
        }
        let weather = Schedule::from_steps(1.0, weather_steps);

        // Server outages: uniform starts, fixed length, avoid overlapping
        // by sampling starts in distinct day slots.
        let outage_len = self.day_len().mul_f64(self.outage_day_frac);
        let mut outages = Vec::new();
        let outage_days: Vec<u32> = match &self.outage_days {
            Some(days) => days.clone(),
            None => (0..self.outage_count)
                .map(|_| rng.gen_range(0..self.days))
                .collect(),
        };
        for day in outage_days {
            let frac: f64 = rng.gen_range(0.0..(1.0 - self.outage_day_frac).max(0.01));
            let start = self.day_start(day) + self.day_len().mul_f64(frac);
            outages.push((start, start + outage_len));
        }
        outages.sort();

        // Interference bursts: random region, random window of ~0.3 day.
        let mut bursts = Vec::new();
        for _ in 0..self.burst_count {
            let day = rng.gen_range(0..self.days);
            let frac: f64 = rng.gen_range(0.0..0.7);
            let start = self.day_start(day) + self.day_len().mul_f64(frac);
            let end = start + self.day_len().mul_f64(0.3);
            bursts.push(InterferenceBurst {
                center: Position {
                    x: rng.gen_range(0.0..self.side_m),
                    y: rng.gen_range(0.0..self.side_m),
                },
                radius_m: self.side_m * rng.gen_range(0.08..0.18),
                start,
                end,
                factor: rng.gen_range(0.05..0.30),
            });
        }

        FaultSchedule {
            outages,
            sink_prelog_drop,
            sink_predrop,
            serial_loss,
            weather,
            bursts,
        }
    }

    /// `Ok` when the scenario is a campaign the simulator can run, else an
    /// error naming the first field that is not: a scenario read from a
    /// file or the environment is checked here before anything is built
    /// from it.
    pub fn validate(&self) -> Result<(), String> {
        for (name, value) in [
            ("nodes", self.nodes as u64),
            ("days", u64::from(self.days)),
            ("day_secs", self.day_secs),
            ("packets_per_node_per_day", u64::from(self.packets_per_node_per_day)),
        ] {
            if value == 0 {
                return Err(format!("{name} must be at least 1"));
            }
        }
        if self.nodes > usize::from(u16::MAX) {
            return Err(format!("nodes ({}) must be at most {}", self.nodes, u16::MAX));
        }
        let secs = self.day_secs.checked_mul(u64::from(self.days));
        if secs.is_none_or(|secs| secs > SimTime::MAX.as_secs()) {
            return Err(format!(
                "day_secs × days ({} × {}) must fit the simulation clock",
                self.day_secs, self.days
            ));
        }
        if !(self.side_m > 0.0 && self.side_m.is_finite()) {
            return Err(format!("side_m must be a positive length, got {}", self.side_m));
        }
        for (name, p) in [
            ("outage_day_frac", self.outage_day_frac),
            ("sink_prelog_before", self.sink_prelog_before),
            ("sink_predrop_before", self.sink_predrop_before),
            ("serial_loss_before", self.serial_loss_before),
            ("sink_prelog_after", self.sink_prelog_after),
            ("sink_predrop_after", self.sink_predrop_after),
            ("serial_loss_after", self.serial_loss_after),
            ("collection.whole_log_loss_prob", self.collection.whole_log_loss_prob),
            ("collection.chunk_loss_prob", self.collection.chunk_loss_prob),
            ("logger.write_failure_prob", self.logger.write_failure_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be a probability, got {p}"));
            }
        }
        self.sim_config().validate()
    }

    /// Build all simulator inputs.
    pub fn build(&self) -> (Topology, LinkQualityTable, FaultSchedule, SimConfig) {
        let topology = self.topology();
        let factory = RngFactory::new(self.seed);
        let table = LinkModel::build_table(&topology, &LinkModelConfig::default(), &factory);
        (topology, table, self.faults(), self.sim_config())
    }

    /// The deployment [`Scenario::build`] lays out, without the all-pairs
    /// link table and the fault schedule: each draws its own named
    /// streams, so the layout is the same either way.
    pub fn topology(&self) -> Topology {
        let factory = RngFactory::new(self.seed);
        Topology::generate(self.nodes, self.side_m, Layout::JitteredGrid, &factory)
    }

    /// The simulator's configuration for this campaign.
    fn sim_config(&self) -> SimConfig {
        SimConfig {
            seed: self.seed,
            duration: self.duration(),
            packet_interval: self.packet_interval(),
            p_prelog_drop: self.p_prelog_drop,
            p_internal_drop: self.p_internal_drop,
            logger: self.logger,
            route_update_interval: SimDuration::from_secs((self.day_secs / 16).max(5)),
            route_update_prob: 0.97,
            queue_capacity: 16,
            ..SimConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_arithmetic() {
        let s = Scenario::small();
        assert_eq!(s.day_of(SimTime::ZERO), 0);
        assert_eq!(s.day_of(s.day_start(3)), 3);
        assert_eq!(
            s.day_of(s.day_start(3) + SimDuration::from_secs(1)),
            3
        );
        assert_eq!(s.duration().as_secs(), s.day_secs * u64::from(s.days));
        // Clamped at the last day.
        assert_eq!(s.day_of(s.duration() + SimDuration::from_secs(999)), s.days - 1);
    }

    #[test]
    fn the_topology_alone_is_the_one_build_lays_out() {
        for s in [Scenario::small(), Scenario::standard()] {
            let (built, alone) = (s.build().0, s.topology());
            assert_eq!((built.len(), built.sink()), (alone.len(), alone.sink()));
            assert!(built.nodes().all(|n| built.position(n) == alone.position(n)));
        }
    }

    #[test]
    fn sink_schedules_step_at_fix_day() {
        let s = Scenario::standard();
        let factory = RngFactory::new(s.seed);
        let _topo = Topology::generate(30, 300.0, Layout::JitteredGrid, &factory);
        let f = s.faults();
        let before = s.day_start(22);
        let after = s.day_start(24);
        assert!(f.sink_prelog_drop.at(before) > f.sink_prelog_drop.at(after) * 10.0);
        assert!(f.serial_loss.at(before) > f.serial_loss.at(after) * 10.0);
    }

    #[test]
    fn snow_days_degrade_weather() {
        let s = Scenario::standard();
        let factory = RngFactory::new(s.seed);
        let _topo = Topology::generate(30, 300.0, Layout::JitteredGrid, &factory);
        let f = s.faults();
        assert!((f.weather.at(s.day_start(8)) - s.snow_factor).abs() < 1e-12);
        assert!((f.weather.at(s.day_start(9)) - s.snow_factor).abs() < 1e-12);
        assert!((f.weather.at(s.day_start(11)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn outages_within_campaign() {
        let s = Scenario::standard();
        let factory = RngFactory::new(s.seed);
        let _topo = Topology::generate(30, 300.0, Layout::JitteredGrid, &factory);
        let f = s.faults();
        assert_eq!(f.outages.len() as u32, s.outage_count);
        for &(start, end) in &f.outages {
            assert!(start < end);
            assert!(end <= s.duration() + s.day_len());
        }
    }

    #[test]
    fn faults_are_deterministic() {
        let s = Scenario::standard();
        let factory = RngFactory::new(s.seed);
        let _topo = Topology::generate(30, 300.0, Layout::JitteredGrid, &factory);
        let a = s.faults();
        let b = s.faults();
        assert_eq!(a.outages, b.outages);
        assert_eq!(a.bursts.len(), b.bursts.len());
    }

    #[test]
    fn the_presets_are_valid() {
        for s in [Scenario::small(), Scenario::standard(), Scenario::paper()] {
            assert_eq!(s.validate(), Ok(()), "{}", s.name);
        }
    }

    #[test]
    fn validate_names_the_field_a_run_would_panic_or_wrap_on() {
        let small = Scenario::small();
        let collection = CollectionConfig {
            chunk_loss_prob: 1.5,
            ..small.collection
        };
        for (field, s) in [
            ("nodes", Scenario { nodes: 0, ..small.clone() }),
            ("nodes", Scenario { nodes: 70_000, ..small.clone() }),
            ("days", Scenario { days: 0, ..small.clone() }),
            ("day_secs", Scenario { day_secs: 0, ..small.clone() }),
            ("packets_per_node_per_day", Scenario { packets_per_node_per_day: 0, ..small.clone() }),
            ("day_secs × days", Scenario { day_secs: u64::MAX / 1_000_000, ..small.clone() }),
            ("side_m", Scenario { side_m: 0.0, ..small.clone() }),
            ("collection.chunk_loss_prob", Scenario { collection, ..small.clone() }),
            // Checked by `SimConfig::validate`.
            ("p_internal_drop", Scenario { p_internal_drop: -0.1, ..small.clone() }),
        ] {
            let error = s.validate().expect_err(field);
            assert!(error.starts_with(field), "{field}: {error}");
        }
    }

    #[test]
    fn build_produces_valid_config() {
        let s = Scenario::small();
        let (topo, _, _, config) = s.build();
        assert_eq!(topo.len(), s.nodes);
        assert_eq!(config.validate(), Ok(()));
        assert_eq!(config.duration, s.duration());
    }
}
