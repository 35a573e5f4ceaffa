//! LPL duty-cycling energy accounting.
//!
//! Section V-A.2: CitySee ran Low Power Listening — each node periodically
//! wakes to sample the channel, sleeps when idle, and senders pay for long
//! preambles (retransmitting the packet until the receiver's next wakeup).
//! This module gives the substrate the standard LPL energy model so that
//! protocol decisions the paper discusses (retransmission budgets, ACK at
//! PHY vs software) have measurable energy consequences:
//!
//! * **baseline**: one channel sample per wakeup interval, for the whole
//!   run — the cost of merely being duty-cycled;
//! * **transmit**: each attempt pays TX power for half a wakeup interval on
//!   average (the preamble until the receiver wakes) plus the frame time;
//! * **receive**: each arriving frame pays RX power for the frame time plus
//!   the post-receive listen window.

use netsim::{NodeId, SimDuration};

/// Radio and LPL timing/power parameters (defaults ≈ CC2420 at 3 V).
#[derive(Debug, Clone, Copy)]
pub struct EnergyConfig {
    /// LPL wakeup period.
    pub wakeup_interval: SimDuration,
    /// Channel-sample duration per wakeup.
    pub sample_time: SimDuration,
    /// On-air time of one data frame.
    pub frame_time: SimDuration,
    /// Post-receive listen window (for consecutive packets).
    pub after_recv_window: SimDuration,
    /// TX draw in milliwatts.
    pub tx_mw: f64,
    /// RX/listen draw in milliwatts.
    pub rx_mw: f64,
}

impl Default for EnergyConfig {
    fn default() -> Self {
        EnergyConfig {
            wakeup_interval: SimDuration::from_millis(512),
            sample_time: SimDuration::from_millis(5),
            frame_time: SimDuration::from_millis(4),
            after_recv_window: SimDuration::from_millis(50),
            tx_mw: 52.2, // CC2420 TX @ 0 dBm, 3 V
            rx_mw: 56.4, // CC2420 RX, 3 V
        }
    }
}

impl EnergyConfig {
    /// Energy of one transmission attempt, in millijoules.
    pub fn tx_attempt_mj(&self) -> f64 {
        // mW × s = mJ.
        let preamble_s = self.wakeup_interval.as_secs_f64() / 2.0;
        (preamble_s + self.frame_time.as_secs_f64()) * self.tx_mw
    }

    /// Energy of one frame reception, in millijoules.
    pub fn rx_frame_mj(&self) -> f64 {
        (self.frame_time.as_secs_f64() + self.after_recv_window.as_secs_f64()) * self.rx_mw
    }

    /// Baseline duty-cycle energy over a span, in millijoules.
    pub fn baseline_mj(&self, span: SimDuration) -> f64 {
        let wakeups = span.as_secs_f64() / self.wakeup_interval.as_secs_f64();
        wakeups * self.sample_time.as_secs_f64() * self.rx_mw
    }

    /// The idle duty cycle (radio-on fraction with no traffic).
    pub fn idle_duty_cycle(&self) -> f64 {
        self.sample_time.as_secs_f64() / self.wakeup_interval.as_secs_f64()
    }
}

/// Per-node energy ledger, filled by the simulator.
#[derive(Debug, Clone, Default)]
pub struct EnergyLedger {
    /// Transmit energy per node (mJ).
    pub tx_mj: Vec<f64>,
    /// Receive energy per node (mJ).
    pub rx_mj: Vec<f64>,
    /// Baseline duty-cycle energy per node (mJ).
    pub baseline_mj: Vec<f64>,
}

impl EnergyLedger {
    /// A ledger for `n` nodes.
    pub fn new(n: usize) -> Self {
        EnergyLedger {
            tx_mj: vec![0.0; n],
            rx_mj: vec![0.0; n],
            baseline_mj: vec![0.0; n],
        }
    }

    /// Charge one transmission attempt to `node`.
    pub fn charge_tx(&mut self, node: NodeId, config: &EnergyConfig) {
        self.tx_mj[node.index()] += config.tx_attempt_mj();
    }

    /// Charge one frame reception to `node`.
    pub fn charge_rx(&mut self, node: NodeId, config: &EnergyConfig) {
        self.rx_mj[node.index()] += config.rx_frame_mj();
    }

    /// Charge the whole-run baseline to every node.
    pub fn charge_baseline(&mut self, span: SimDuration, config: &EnergyConfig) {
        let mj = config.baseline_mj(span);
        for b in &mut self.baseline_mj {
            *b += mj;
        }
    }

    /// Total energy of `node` (mJ).
    pub fn total_mj(&self, node: NodeId) -> f64 {
        self.tx_mj[node.index()] + self.rx_mj[node.index()] + self.baseline_mj[node.index()]
    }

    /// Network-wide total (mJ).
    pub fn network_total_mj(&self) -> f64 {
        (0..self.tx_mj.len())
            .map(|i| self.total_mj(NodeId(i as u16)))
            .sum()
    }

    /// Nodes ranked by total energy, descending — the hotspots whose
    /// batteries die first.
    pub fn hotspots(&self) -> Vec<(NodeId, f64)> {
        let mut v: Vec<(NodeId, f64)> = (0..self.tx_mj.len())
            .map(|i| {
                let n = NodeId(i as u16);
                (n, self.total_mj(n))
            })
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> EnergyConfig {
        EnergyConfig::default()
    }

    #[test]
    fn idle_duty_cycle_is_about_one_percent() {
        let d = cfg().idle_duty_cycle();
        assert!(d > 0.005 && d < 0.02, "duty cycle {d}");
    }

    #[test]
    fn tx_attempt_dominated_by_preamble() {
        let c = cfg();
        // Half a wakeup interval at 52.2 mW ≈ 13.4 mJ.
        let mj = c.tx_attempt_mj();
        assert!(mj > 10.0 && mj < 20.0, "tx attempt {mj} mJ");
    }

    #[test]
    fn rx_frame_is_much_cheaper_than_tx() {
        let c = cfg();
        assert!(c.rx_frame_mj() < c.tx_attempt_mj() / 2.0);
        assert!(c.rx_frame_mj() > 0.0);
    }

    #[test]
    fn baseline_scales_linearly() {
        let c = cfg();
        let one = c.baseline_mj(SimDuration::from_secs(100));
        let two = c.baseline_mj(SimDuration::from_secs(200));
        assert!((two - 2.0 * one).abs() < 1e-9);
    }

    #[test]
    fn ledger_accumulates_and_ranks() {
        let c = cfg();
        let mut l = EnergyLedger::new(3);
        l.charge_tx(NodeId(1), &c);
        l.charge_tx(NodeId(1), &c);
        l.charge_rx(NodeId(2), &c);
        l.charge_baseline(SimDuration::from_secs(60), &c);
        assert!(l.total_mj(NodeId(1)) > l.total_mj(NodeId(2)));
        assert!(l.total_mj(NodeId(2)) > l.total_mj(NodeId(0)));
        let hot = l.hotspots();
        assert_eq!(hot[0].0, NodeId(1));
        assert!((l.network_total_mj()
            - (l.total_mj(NodeId(0)) + l.total_mj(NodeId(1)) + l.total_mj(NodeId(2))))
        .abs()
            < 1e-9);
    }
}
