//! Deterministic synthetic scenarios: multi-hop traffic with seeded
//! clock skew, missing timestamps, dropped events, duplicate entries and
//! late uploads.
//!
//! The generator is deliberately lighter than the `citysee` campaign
//! simulator — a conformance case must be cheap enough to run hundreds of
//! times under the property runner — but it produces the same *shapes* the paper's
//! deployment produces: packets hopping a chain of nodes toward a sink,
//! each hop logging `Trans`/`Recv`/`AckRecvd` with per-node clocks, some
//! nodes logging no timestamps at all, and per-hop event loss.

use crate::plan::FaultSpec;
use eventlog::frame::NodeRecord;
use eventlog::logger::{LocalLog, LocalTs, LogEntry};
use eventlog::{Event, EventKind, PacketId};
use netsim::{NodeId, Rng};

/// Shape counters for one generated scenario.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScenarioReport {
    /// Nodes in the chain.
    pub nodes: u16,
    /// Packets originated.
    pub packets: u32,
    /// Entries duplicated in place.
    pub duplicated: u64,
    /// Upload rounds where a node withheld its next records.
    pub withheld: u64,
}

impl ScenarioReport {
    /// Scenario-level injected faults (duplicates + late uploads; skew and
    /// loss are environment, not faults the pipeline must survive intact).
    pub fn injected(&self) -> u64 {
        self.duplicated + self.withheld
    }
}

/// Generate per-node logs for a chain scenario.
///
/// Nodes `1..=k` form a forwarding chain; packets originate at node 1 and
/// hop toward node `k`. Each node's entries are appended in its own local
/// time order (per-node order is the merge invariant); cross-node clocks
/// disagree by up to `spec.clock_skew_us`.
pub fn gen_logs(rng: &mut Rng, spec: &FaultSpec) -> (Vec<LocalLog>, ScenarioReport) {
    let nodes: u16 = rng.gen_range(2..7);
    let packets: u32 = rng.gen_range(1..16);
    let mut report = ScenarioReport {
        nodes,
        packets,
        ..ScenarioReport::default()
    };

    // Per-node clock model: a constant skew offset, plus a chance the node
    // logs no timestamps at all (dead RTC).
    let skews: Vec<u64> = (0..nodes)
        .map(|_| {
            if spec.clock_skew_us == 0 {
                0
            } else {
                rng.gen_range(0..spec.clock_skew_us + 1)
            }
        })
        .collect();
    let untimed: Vec<bool> = (0..nodes).map(|_| rng.gen_bool(0.25)).collect();

    let mut logs: Vec<LocalLog> = (1..=nodes)
        .map(|i| LocalLog {
            node: NodeId(i),
            entries: Vec::new(),
        })
        .collect();

    let push = |logs: &mut Vec<LocalLog>,
                report: &mut ScenarioReport,
                rng: &mut Rng,
                node_idx: usize,
                kind: EventKind,
                packet: PacketId,
                base_ts: u64| {
        let node = NodeId(node_idx as u16 + 1);
        let ts = if untimed[node_idx] || rng.gen_bool(0.1) {
            None
        } else {
            LocalTs::new(base_ts + skews[node_idx])
        };
        let entry = LogEntry {
            event: Event::new(node, kind, packet),
            local_ts: ts,
        };
        logs[node_idx].entries.push(entry);
        if rng.gen_bool(spec.dup_records) {
            logs[node_idx].entries.push(entry);
            report.duplicated += 1;
        }
    };

    for seq in 0..packets {
        let p = PacketId::new(NodeId(1), seq);
        let mut t = u64::from(seq) * 10_000;
        for hop in 0..usize::from(nodes) - 1 {
            // Each hop delivers with high probability; a drop truncates
            // this packet's journey (intrinsic lossiness, not a fault).
            push(&mut logs, &mut report, rng, hop, EventKind::Trans { to: NodeId(hop as u16 + 2) }, p, t);
            t += 50;
            if rng.gen_bool(0.15) {
                break;
            }
            push(
                &mut logs,
                &mut report,
                rng,
                hop + 1,
                EventKind::Recv { from: NodeId(hop as u16 + 1) },
                p,
                t,
            );
            t += 50;
            if rng.gen_bool(0.8) {
                push(
                    &mut logs,
                    &mut report,
                    rng,
                    hop,
                    EventKind::AckRecvd { to: NodeId(hop as u16 + 2) },
                    p,
                    t,
                );
                t += 50;
            }
        }
    }
    (logs, report)
}

/// Interleave the logs into one upload-order record stream, preserving
/// per-node order (the only invariant merging relies on) while letting
/// seeded "late" nodes withhold their next records for a few rounds.
pub fn upload_interleave(
    rng: &mut Rng,
    spec: &FaultSpec,
    logs: &[LocalLog],
    report: &mut ScenarioReport,
) -> Vec<NodeRecord> {
    let total: usize = logs.iter().map(|l| l.entries.len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut pos = vec![0usize; logs.len()];
    let mut hold = vec![0u32; logs.len()];
    while out.len() < total {
        let mut progressed = false;
        for (i, log) in logs.iter().enumerate() {
            if pos[i] >= log.entries.len() {
                continue;
            }
            if hold[i] > 0 {
                hold[i] -= 1;
                continue;
            }
            if rng.gen_bool(spec.late_records) {
                hold[i] = rng.gen_range(1..4);
                report.withheld += 1;
                continue;
            }
            let burst = rng.gen_range(1..4).min(log.entries.len() - pos[i]);
            for _ in 0..burst {
                out.push(NodeRecord::new(log.node, log.entries[pos[i]]));
                pos[i] += 1;
            }
            progressed = true;
        }
        if !progressed {
            // Every live node is withholding; force the stallers forward
            // so the interleave always terminates.
            for h in &mut hold {
                *h = h.saturating_sub(1);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;

    #[test]
    fn generation_is_seed_deterministic() {
        let spec = FaultSpec::heavy();
        let gen = |seed: u64| {
            let mut rng = FaultPlan::new(seed, spec).lane("scenario");
            let (logs, mut report) = gen_logs(&mut rng, &spec);
            let records = upload_interleave(&mut rng, &spec, &logs, &mut report);
            (logs, records, report)
        };
        let (la, ra, pa) = gen(11);
        let (lb, rb, pb) = gen(11);
        assert_eq!(la, lb);
        assert_eq!(ra, rb);
        assert_eq!(pa, pb);
        let (_, rc, _) = gen(12);
        assert_ne!(ra, rc);
    }

    #[test]
    fn interleave_preserves_per_node_order_and_loses_nothing() {
        for seed in 0..20 {
            let spec = FaultSpec::heavy();
            let mut rng = Rng::new(seed);
            let (logs, mut report) = gen_logs(&mut rng, &spec);
            let records = upload_interleave(&mut rng, &spec, &logs, &mut report);
            let total: usize = logs.iter().map(|l| l.entries.len()).sum();
            assert_eq!(records.len(), total, "seed {seed}: every entry uploads");
            for log in &logs {
                let uploaded: Vec<_> = records
                    .iter()
                    .filter(|r| r.node == log.node)
                    .map(|r| r.entry)
                    .collect();
                assert_eq!(uploaded, log.entries, "seed {seed}: per-node order");
            }
        }
    }

    #[test]
    fn per_node_entries_are_locally_time_ordered() {
        // The generator appends in local-time order (merge's precondition
        // for the partitioned fast path; unordered logs would still be
        // legal, just slower).
        for seed in 0..20 {
            let mut rng = Rng::new(seed);
            let (logs, _) = gen_logs(&mut rng, &FaultSpec::heavy());
            for log in &logs {
                let ts: Vec<u64> = log
                    .entries
                    .iter()
                    .filter_map(|e| e.local_ts.map(LocalTs::get))
                    .collect();
                assert!(
                    ts.windows(2).all(|w| w[0] <= w[1]),
                    "seed {seed}: node {:?} logged out of local order",
                    log.node
                );
            }
        }
    }
}
