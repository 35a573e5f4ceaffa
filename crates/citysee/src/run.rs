//! Campaign execution: simulate, then collect lossily.

use crate::scenario::Scenario;
use eventlog::collect::LossyCollector;
use eventlog::event::BASE_STATION;
use eventlog::frame::NodeRecord;
use eventlog::logger::{LocalLog, LocalTs};
use eventlog::merge::MergedLog;
use netsim::{RngFactory, Topology};
use protocols::sim::{SimOutput, Simulator};

/// A completed campaign: the simulation output plus the (lossily) collected
/// logs the analysis side actually gets to see.
pub struct Campaign {
    /// The scenario that produced this campaign.
    pub scenario: Scenario,
    /// The deployment.
    pub topology: Topology,
    /// Simulation output (includes ground truth — the analysis must not
    /// peek except for scoring).
    pub sim: SimOutput,
    /// Logs after in-network collection loss (base station log last,
    /// always intact — it lives on the server).
    pub collected: Vec<LocalLog>,
    /// Empty. Only the benchmark's report operation fills it, merging the
    /// collected logs in its timed region; nothing in the workspace reads
    /// it, and it goes with ROADMAP item 5.
    pub merged: MergedLog,
}

impl Campaign {
    /// The collected logs as one upload-arrival-ordered record stream —
    /// what the base station's serial port would see if every node
    /// uploaded its log live. See [`upload_order`].
    pub fn upload_records(&self) -> Vec<NodeRecord> {
        upload_order(&self.collected)
    }
}

/// Interleave per-node logs into a plausible upload arrival order.
///
/// Each record's arrival key is its node's *running-max* local timestamp
/// (monotone per node even when individual readings regress, and zero for
/// untimestamped prefixes), and the sort is stable — so every node's own
/// recording order is preserved exactly, which is the only ordering
/// guarantee the reconstruction contract needs. Cross-node interleaving
/// follows the nodes' skewed clocks, which is realistic, not meaningful.
pub fn upload_order(logs: &[LocalLog]) -> Vec<NodeRecord> {
    let mut keyed: Vec<(u64, NodeRecord)> = Vec::new();
    for log in logs {
        let mut running = 0u64;
        for entry in &log.entries {
            if let Some(ts) = entry.local_ts.map(LocalTs::get) {
                running = running.max(ts);
            }
            keyed.push((running, NodeRecord::new(log.node, *entry)));
        }
    }
    keyed.sort_by_key(|(at, _)| *at);
    keyed.into_iter().map(|(_, rec)| rec).collect()
}

/// Run a scenario end to end.
pub fn run_scenario(scenario: &Scenario) -> Campaign {
    let (topology, table, faults, config) = scenario.build();
    let sim = Simulator::new(topology.clone(), table, faults, config).run();

    // Collection: node logs suffer loss; the base station's log is local to
    // the server and survives intact.
    let collector = LossyCollector::new(scenario.collection);
    let factory = RngFactory::new(scenario.seed ^ 0xC0111EC7);
    let (bs_log, node_logs) = sim
        .logs
        .split_last()
        .expect("the simulator's logs end with the base station's");
    debug_assert_eq!(bs_log.node, BASE_STATION);
    let mut collected = collector.collect_all(node_logs, &factory);
    collected.push(bs_log.clone());

    Campaign {
        scenario: scenario.clone(),
        topology,
        sim,
        collected,
        merged: MergedLog::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventlog::{EventKind, PacketIndex};

    fn campaign() -> Campaign {
        run_scenario(&Scenario::small())
    }

    #[test]
    fn campaign_produces_traffic_and_logs() {
        let c = campaign();
        assert!(c.sim.counters.get("generated") > 100);
        let logged = |l: &LocalLog| l.node != BASE_STATION && !l.is_empty();
        assert!(c.collected.iter().any(logged));
        // The base station log survived collection.
        assert!(c
            .collected
            .iter()
            .any(|l| l.node == BASE_STATION && !l.is_empty()));
    }

    #[test]
    fn collection_loses_some_events() {
        let c = campaign();
        let truth_loggable = c.sim.truth.events.len();
        let collected: usize = c.collected.iter().map(|l| l.len()).sum();
        assert!(
            collected < truth_loggable,
            "collection should be lossy: {collected} vs {truth_loggable}"
        );
        assert!(
            collected > truth_loggable / 4,
            "but most events should survive: {collected} vs {truth_loggable}"
        );
    }

    #[test]
    fn losses_have_multiple_causes() {
        let c = campaign();
        let by_cause = c.sim.truth.losses_by_cause();
        assert!(
            by_cause.len() >= 2,
            "scenario should produce a mix of causes: {by_cause:?}"
        );
    }

    #[test]
    fn most_packets_delivered() {
        let c = campaign();
        let ratio = c.sim.truth.delivery_ratio();
        assert!(
            ratio > 0.6 && ratio < 1.0,
            "expected substantial-but-imperfect delivery, got {ratio}"
        );
    }

    #[test]
    fn collected_logs_cover_most_packets() {
        let c = campaign();
        let seen = PacketIndex::group_logs(&c.collected).len();
        let generated = c.sim.truth.packet_count();
        assert!(
            seen * 10 >= generated * 8,
            "the collected logs should mention most packets: {seen}/{generated}"
        );
    }

    #[test]
    fn bs_entries_match_delivered_count() {
        let c = campaign();
        let bs_events = c
            .collected
            .iter()
            .flat_map(LocalLog::events)
            .filter(|e| matches!(e.kind, EventKind::BsRecv))
            .count();
        assert_eq!(bs_events as u64, c.sim.counters.get("delivered"));
    }

    #[test]
    fn upload_records_preserve_per_node_order() {
        let c = campaign();
        let records = c.upload_records();
        assert_eq!(
            records.len(),
            c.collected.iter().map(|l| l.len()).sum::<usize>(),
            "every collected entry appears exactly once"
        );
        for log in &c.collected {
            let lane: Vec<_> = records
                .iter()
                .filter(|r| r.node == log.node)
                .map(|r| r.entry)
                .collect();
            assert_eq!(lane, log.entries, "node {} order mangled", log.node);
        }
    }

    #[test]
    fn upload_records_interleave_nodes() {
        // The whole point: the stream is NOT one log after another.
        let c = campaign();
        let records = c.upload_records();
        let switches = records
            .windows(2)
            .filter(|w| w[0].node != w[1].node)
            .count();
        assert!(
            switches + 1 > c.collected.len(),
            "expected genuine interleaving, got {switches} lane switches"
        );
    }

    #[test]
    fn campaigns_are_deterministic() {
        let a = campaign();
        let b = campaign();
        assert_eq!(a.collected, b.collected);
        assert_eq!(a.sim.counters, b.sim.counters);
    }
}
