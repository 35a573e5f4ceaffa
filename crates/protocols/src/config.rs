//! Simulation configuration.

use crate::energy::EnergyConfig;
use eventlog::logger::LoggerConfig;
use netsim::{SimDuration, SimTime};

/// All knobs of one simulation run (faults live in
/// [`crate::schedule::FaultSchedule`], the deployment in
/// [`netsim::Topology`]).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed for every random stream.
    pub seed: u64,
    /// Packet generation stops at this time; the run then drains.
    pub duration: SimTime,
    /// Application sending period per node.
    pub packet_interval: SimDuration,
    /// Uniform jitter fraction applied to each interval (0.1 = ±10 %).
    pub packet_jitter: f64,
    /// MAC retransmission budget (CitySee: up to 30).
    pub max_retries: u32,
    /// Backoff between attempts (must exceed the ack round trip).
    pub retry_backoff: SimDuration,
    /// One-hop frame latency (includes LPL wakeup on average).
    pub hop_delay: SimDuration,
    /// Forwarding-queue capacity.
    pub queue_capacity: usize,
    /// Link-layer duplicate-cache entries.
    pub dup_cache_size: usize,
    /// THL bound: packets exceeding it are dropped (loop backstop).
    pub max_thl: u8,
    /// ACK delivery probability is the reverse-link PRR raised toward 1 by
    /// this factor (hardware ACKs are short and robust): `p_ack = 1 - (1 -
    /// prr) * ack_fragility`.
    pub ack_fragility: f64,
    /// Probability an ordinary node's stack drops a hardware-acked packet
    /// before the network layer logs it (acked loss).
    pub p_prelog_drop: f64,
    /// Probability a queued packet dies inside the node before service
    /// (received loss).
    pub p_internal_drop: f64,
    /// Serial transfer latency sink → base station.
    pub serial_delay: SimDuration,
    /// Routing-update round period.
    pub route_update_interval: SimDuration,
    /// Per-node probability of refreshing routes in a round (staleness).
    pub route_update_prob: f64,
    /// Local logger behaviour.
    pub logger: LoggerConfig,
    /// Logger flush period.
    pub log_flush_interval: SimDuration,
    /// Mean time between node reboots (`None` disables them). A reboot
    /// loses the node's unflushed log entries and every packet it holds.
    pub reboot_mean_interval: Option<SimDuration>,
    /// LPL radio energy model parameters.
    pub energy: EnergyConfig,
    /// Acknowledge at the software layer instead of the PHY (the §V-D.5
    /// alternative): the ACK is sent only after the upper layer accepted
    /// the packet, so stack drops are retried instead of silently lost —
    /// at the cost of extra retransmissions when the stack is busy.
    pub software_ack: bool,
    /// Whether the application logs `origin` events.
    pub log_origin: bool,
    /// Whether forwarders log `enqueue` events.
    pub log_enqueue: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            duration: SimTime::from_secs(600),
            packet_interval: SimDuration::from_secs(30),
            packet_jitter: 0.2,
            max_retries: 30,
            retry_backoff: SimDuration::from_millis(60),
            hop_delay: SimDuration::from_millis(15),
            queue_capacity: 12,
            dup_cache_size: 4,
            max_thl: 32,
            ack_fragility: 0.08,
            p_prelog_drop: 0.002,
            p_internal_drop: 0.004,
            serial_delay: SimDuration::from_millis(30),
            route_update_interval: SimDuration::from_secs(20),
            route_update_prob: 0.7,
            logger: LoggerConfig::default(),
            log_flush_interval: SimDuration::from_secs(5),
            reboot_mean_interval: None,
            energy: EnergyConfig::default(),
            software_ack: false,
            log_origin: true,
            log_enqueue: false,
        }
    }
}

impl SimConfig {
    /// Sanity-check invariants the simulator relies on.
    pub fn validate(&self) -> Result<(), String> {
        if self.retry_backoff.as_micros() <= 2 * self.hop_delay.as_micros() {
            return Err(format!(
                "retry_backoff ({}) must exceed the ack round trip (2 × {})",
                self.retry_backoff, self.hop_delay
            ));
        }
        for (name, p) in [
            ("packet_jitter", self.packet_jitter),
            ("ack_fragility", self.ack_fragility),
            ("p_prelog_drop", self.p_prelog_drop),
            ("p_internal_drop", self.p_internal_drop),
            ("route_update_prob", self.route_update_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be a probability, got {p}"));
            }
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(SimConfig::default().validate(), Ok(()));
    }

    #[test]
    fn backoff_must_exceed_rtt() {
        let cfg = SimConfig {
            retry_backoff: SimDuration::from_millis(10),
            hop_delay: SimDuration::from_millis(15),
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn probabilities_validated() {
        let cfg = SimConfig {
            p_prelog_drop: 1.5,
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_queue_rejected() {
        let cfg = SimConfig {
            queue_capacity: 0,
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}
