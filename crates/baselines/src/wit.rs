//! Wit-style merging by commonly recorded events.
//!
//! Wit \[10\] combines traces from *overhearing sniffers*: the same frame,
//! captured by several sniffers, is a common event that anchors their
//! timelines together. Two logs can be merged if they share at least one
//! common record; merging is transitive, so the logs partition into
//! connected components, and only components — never the whole network —
//! can be analyzed jointly.
//!
//! On CitySee-style *local* logs this collapses: every event is recorded on
//! exactly one node (a `1-2 trans` on node 1 and the matching `1-2 recv` on
//! node 2 are different tuples), so there are no common events and every
//! log is its own island. That is the motivating observation for REFILL's
//! correlation-based connection instead.
//!
//! # The recording-node pre-pass
//!
//! A tuple `(V, L, I)` carries the node `L` it was recorded on, so a tuple
//! two logs have in common names the same `L` in both. [`wit_merge`] first
//! walks every log once with a table over the 65 536 node ids (unseen, seen
//! in log *i* only, seen in several logs) and then joins only the tuples
//! whose `L` occurs in more than one log. The tuples left out occur in one
//! log only, and a tuple of one log never merged anything, so the
//! components are the ones the join over all tuples finds — for any input,
//! not just typical ones. Local logs have no such `L`: no tuple is hashed
//! and the merge costs one linear pass. Sniffer logs share almost every
//! `L` and take the join as Wit describes it.

use eventlog::logger::LocalLog;
use eventlog::Event;
use netsim::fx::{FxHashMap, FxHashSet};
use netsim::{NodeId, Rng};

/// The result of a Wit-style merge attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitMerge {
    /// Connected components of mutually mergeable logs (each a sorted list
    /// of node ids).
    pub components: Vec<Vec<NodeId>>,
    /// Number of logs.
    pub log_count: usize,
}

impl WitMerge {
    /// Fraction of log pairs that ended up mergeable (1.0 when everything
    /// fused into one component, 0.0 when all logs are singletons).
    pub fn merged_pair_fraction(&self) -> f64 {
        if self.log_count < 2 {
            return 1.0;
        }
        let total_pairs = self.log_count * (self.log_count - 1) / 2;
        let merged_pairs: usize = self
            .components
            .iter()
            .map(|c| c.len() * (c.len() - 1) / 2)
            .sum();
        merged_pairs as f64 / total_pairs as f64
    }

    /// True when no cross-log merging was possible at all.
    pub fn fully_disconnected(&self) -> bool {
        self.components.iter().all(|c| c.len() == 1)
    }
}

/// Attempt a Wit-style merge: logs sharing at least one identical event
/// tuple `(V, L, I)` are joined; union-find gives the components.
pub fn wit_merge(logs: &[LocalLog]) -> WitMerge {
    let n = logs.len();
    let mut parent: Vec<usize> = (0..n).collect();

    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }

    // Which log recorded on each node id: 0 = none yet, i + 1 = log i alone,
    // SHARED = more than one. Only a tuple whose recording node is shared
    // can occur in two logs (module docs).
    const SHARED: usize = usize::MAX;
    let mut recorded_by = vec![0usize; usize::from(u16::MAX) + 1];
    let mut any_shared = false;
    for (i, log) in logs.iter().enumerate() {
        for e in log.events() {
            let owner = &mut recorded_by[e.node.index()];
            if *owner == 0 {
                *owner = i + 1;
            } else if *owner != i + 1 {
                *owner = SHARED;
                any_shared = true;
            }
        }
    }

    // Map each distinct event tuple to the first log containing it; a later
    // log containing the same tuple unions with it.
    let mut seen: FxHashMap<Event, usize> = FxHashMap::default();
    // With no shared recording node there is nothing to join: skip the
    // second walk over the logs as well.
    let joinable = if any_shared { logs } else { &[] };
    for (i, log) in joinable.iter().enumerate() {
        let mut mine: FxHashSet<Event> = FxHashSet::default();
        for e in log.events() {
            if recorded_by[e.node.index()] != SHARED {
                continue; // no other log can hold this tuple
            }
            if !mine.insert(*e) {
                continue; // duplicates within one log don't merge anything
            }
            match seen.entry(*e) {
                std::collections::hash_map::Entry::Occupied(o) => {
                    let a = find(&mut parent, *o.get());
                    let b = find(&mut parent, i);
                    parent[a.max(b)] = a.min(b);
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(i);
                }
            }
        }
    }

    let mut groups: FxHashMap<usize, Vec<NodeId>> = FxHashMap::default();
    for (i, log) in logs.iter().enumerate() {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().push(log.node);
    }
    let mut components: Vec<Vec<NodeId>> = groups
        .into_values()
        .map(|mut v| {
            v.sort_unstable();
            v
        })
        .collect();
    components.sort();
    WitMerge {
        components,
        log_count: n,
    }
}

/// Synthesize Wit-native *sniffer* logs from ground truth: each sniffer
/// overhears transmissions whose sender is within `range_m`, recording the
/// sender's own event tuple (that is Wit's premise — several sniffers
/// capture the *same frame*, giving them common records to merge on).
///
/// This exists to complete the Section VI comparison in both directions:
/// [`wit_merge`] degenerates on CitySee-style local logs, but on logs from
/// `k` overlapping sniffers it fuses components exactly as Wit describes.
pub fn synthesize_sniffer_logs(
    truth: &[eventlog::TruthEvent],
    topology: &netsim::Topology,
    sniffer_positions: &[netsim::Position],
    range_m: f64,
    overhear_prob: f64,
    rng: &mut Rng,
) -> Vec<LocalLog> {
    use eventlog::EventKind;
    // Sniffers get pseudo node ids above the deployment's range.
    let base = topology.len() as u16;
    let mut logs: Vec<LocalLog> = sniffer_positions
        .iter()
        .enumerate()
        .map(|(i, _)| LocalLog::new(NodeId(base + i as u16)))
        .collect();
    for te in truth {
        // Only on-air frames are observable.
        if !matches!(te.event.kind, EventKind::Trans { .. }) {
            continue;
        }
        let sender_pos = topology.position(te.event.node);
        for (i, sp) in sniffer_positions.iter().enumerate() {
            if sp.distance(&sender_pos) <= range_m && rng.gen::<f64>() < overhear_prob {
                // The *same tuple* the sender's frame defines — this is the
                // common record Wit merges on.
                logs[i].entries.push(eventlog::logger::LogEntry {
                    event: te.event,
                    local_ts: eventlog::LocalTs::new(te.at.as_micros()),
                });
            }
        }
    }
    logs
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventlog::{EventKind, PacketId};

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn pid(s: u32) -> PacketId {
        PacketId::new(n(1), s)
    }

    #[test]
    fn local_logs_share_nothing() {
        // A normal CitySee hop: sender-side and receiver-side records are
        // different tuples, so Wit cannot merge them.
        let logs = vec![
            LocalLog::from_events(
                n(1),
                vec![Event::new(n(1), EventKind::Trans { to: n(2) }, pid(0))],
            ),
            LocalLog::from_events(
                n(2),
                vec![Event::new(n(2), EventKind::Recv { from: n(1) }, pid(0))],
            ),
        ];
        let m = wit_merge(&logs);
        assert!(m.fully_disconnected());
        assert_eq!(m.merged_pair_fraction(), 0.0);
    }

    #[test]
    fn sniffers_hearing_the_same_frame_merge() {
        // Two sniffers (modelled as logs on pseudo nodes) both recorded the
        // same overheard tuple — Wit's native setting.
        let overheard = Event::new(n(1), EventKind::Trans { to: n(2) }, pid(0));
        let logs = vec![
            LocalLog::from_events(n(10), vec![overheard]),
            LocalLog::from_events(n(11), vec![overheard]),
        ];
        let m = wit_merge(&logs);
        assert_eq!(m.components, vec![vec![n(10), n(11)]]);
        assert_eq!(m.merged_pair_fraction(), 1.0);
    }

    #[test]
    fn merging_is_transitive() {
        let a = Event::new(n(1), EventKind::Trans { to: n(2) }, pid(0));
        let b = Event::new(n(1), EventKind::Trans { to: n(2) }, pid(1));
        let logs = vec![
            LocalLog::from_events(n(10), vec![a]),
            LocalLog::from_events(n(11), vec![a, b]),
            LocalLog::from_events(n(12), vec![b]),
        ];
        let m = wit_merge(&logs);
        assert_eq!(m.components.len(), 1);
        assert_eq!(m.components[0], vec![n(10), n(11), n(12)]);
    }

    #[test]
    fn partial_overlap_gives_multiple_components() {
        let a = Event::new(n(1), EventKind::Trans { to: n(2) }, pid(0));
        let logs = vec![
            LocalLog::from_events(n(10), vec![a]),
            LocalLog::from_events(n(11), vec![a]),
            LocalLog::from_events(
                n(12),
                vec![Event::new(n(3), EventKind::Trans { to: n(4) }, pid(5))],
            ),
        ];
        let m = wit_merge(&logs);
        assert_eq!(m.components.len(), 2);
        assert!((m.merged_pair_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single_inputs() {
        let m = wit_merge(&[]);
        assert_eq!(m.log_count, 0);
        assert_eq!(m.merged_pair_fraction(), 1.0);
        let m = wit_merge(&[LocalLog::new(n(1))]);
        assert_eq!(m.components, vec![vec![n(1)]]);
        assert!(m.fully_disconnected());
    }

    #[test]
    fn synthesized_sniffer_logs_merge_in_wits_native_setting() {
        use eventlog::{GroundTruth, TruthEvent};
        use netsim::topology::Layout;
        use netsim::{Position, RngFactory, SimTime, Topology};

        let factory = RngFactory::new(3);
        let topo = Topology::generate(9, 200.0, Layout::JitteredGrid, &factory);
        // Ground truth: every node transmits once.
        let mut truth = GroundTruth::default();
        for (i, node) in topo.nodes().enumerate() {
            truth.record(
                SimTime::from_secs(i as u64),
                Event::new(
                    node,
                    EventKind::Trans { to: n(0) },
                    PacketId::new(node, 0),
                ),
            );
        }
        let truth_events: Vec<TruthEvent> = truth.events.clone();
        // Three sniffers with overlapping coverage of the whole square.
        let sniffers = vec![
            Position { x: 50.0, y: 50.0 },
            Position { x: 100.0, y: 100.0 },
            Position { x: 150.0, y: 150.0 },
        ];
        let mut rng = Rng::new(1);
        let logs =
            synthesize_sniffer_logs(&truth_events, &topo, &sniffers, 150.0, 1.0, &mut rng);
        assert_eq!(logs.len(), 3);
        assert!(logs.iter().all(|l| !l.is_empty()));
        // Overlapping sniffers share frames → Wit fuses them.
        let m = wit_merge(&logs);
        assert_eq!(
            m.components.len(),
            1,
            "overlapping sniffers should merge: {:?}",
            m.components
        );
        assert_eq!(m.merged_pair_fraction(), 1.0);
    }

    #[test]
    fn partial_sniffer_coverage_leaves_islands() {
        use eventlog::{GroundTruth, TruthEvent};
        use netsim::topology::Layout;
        use netsim::{Position, RngFactory, SimTime, Topology};

        let factory = RngFactory::new(3);
        let topo = Topology::generate(9, 1000.0, Layout::JitteredGrid, &factory);
        let mut truth = GroundTruth::default();
        for (i, node) in topo.nodes().enumerate() {
            truth.record(
                SimTime::from_secs(i as u64),
                Event::new(node, EventKind::Trans { to: n(0) }, PacketId::new(node, 0)),
            );
        }
        let truth_events: Vec<TruthEvent> = truth.events.clone();
        // Two sniffers in opposite corners with small range: no shared
        // frames, so the merge leaves two islands — Wit's own limitation
        // when sniffers don't overlap.
        let sniffers = vec![
            Position { x: 50.0, y: 50.0 },
            Position { x: 950.0, y: 950.0 },
        ];
        let mut rng = Rng::new(1);
        let logs =
            synthesize_sniffer_logs(&truth_events, &topo, &sniffers, 300.0, 1.0, &mut rng);
        let m = wit_merge(&logs);
        assert!(m.components.len() >= 2);
    }

    /// The join over every tuple, as `wit_merge` was before the
    /// recording-node pre-pass: the reference the pre-pass must not change.
    fn wit_merge_all_tuples(logs: &[LocalLog]) -> WitMerge {
        let n = logs.len();
        let mut parent: Vec<usize> = (0..n).collect();

        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let root = find(parent, parent[i]);
                parent[i] = root;
            }
            parent[i]
        }

        // Map each distinct event tuple to the first log containing it; a later
        // log containing the same tuple unions with it.
        let mut seen: FxHashMap<Event, usize> = FxHashMap::default();
        for (i, log) in logs.iter().enumerate() {
            let mut mine: FxHashSet<Event> = FxHashSet::default();
            for e in log.events() {
                if !mine.insert(*e) {
                    continue; // duplicates within one log don't merge anything
                }
                match seen.entry(*e) {
                    std::collections::hash_map::Entry::Occupied(o) => {
                        let a = find(&mut parent, *o.get());
                        let b = find(&mut parent, i);
                        parent[a.max(b)] = a.min(b);
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(i);
                    }
                }
            }
        }

        let mut groups: FxHashMap<usize, Vec<NodeId>> = FxHashMap::default();
        for (i, log) in logs.iter().enumerate() {
            let root = find(&mut parent, i);
            groups.entry(root).or_default().push(log.node);
        }
        let mut components: Vec<Vec<NodeId>> = groups
            .into_values()
            .map(|mut v| {
                v.sort_unstable();
                v
            })
            .collect();
        components.sort();
        WitMerge {
            components,
            log_count: n,
        }
    }

    #[test]
    fn the_pre_pass_never_changes_the_merge() {
        netsim::prop::check("wit_merge_equals_all_tuples_join", 64, &[], |rng| {
            // Few recording nodes, peers and packets, so tuples collide
            // within and across logs.
            let tuple = |rng: &mut Rng, recorded_on: u16| {
                let peer = n(rng.gen_range(0..3u16));
                let kind = match rng.gen_range(0..3u32) {
                    0 => EventKind::Trans { to: peer },
                    1 => EventKind::Recv { from: peer },
                    _ => EventKind::AckRecvd { to: peer },
                };
                Event::new(n(recorded_on), kind, pid(rng.gen_range(0..4u32)))
            };
            let logs = netsim::prop::vec_of(rng, 0..12, |rng| {
                // The log's own id: a small pool, so two logs of one node
                // happen.
                let node = rng.gen_range(0..8u16);
                let events = match rng.gen_range(0..5u32) {
                    // A local log: every tuple recorded on the log's node.
                    0 => netsim::prop::vec_of(rng, 0..20, |rng| tuple(rng, node)),
                    // A sniffer log: tuples recorded on the few nodes every
                    // sniffer overhears.
                    1 => netsim::prop::vec_of(rng, 0..20, |rng| {
                        let heard = rng.gen_range(20..23u16);
                        tuple(rng, heard)
                    }),
                    // Shares a recording node with the sniffers, but no
                    // tuple: its packets are its own.
                    2 => vec![Event::new(
                        n(20),
                        EventKind::Origin,
                        pid(100 + u32::from(node)),
                    )],
                    // One tuple over and over.
                    3 => vec![tuple(rng, 21); rng.gen_range(0..5usize)],
                    _ => Vec::new(),
                };
                LocalLog::from_events(n(node), events)
            });
            assert_eq!(wit_merge(&logs), wit_merge_all_tuples(&logs));
        });
    }

    #[test]
    fn duplicate_entries_within_one_log_do_not_merge_it_with_itself() {
        let a = Event::new(n(1), EventKind::Trans { to: n(2) }, pid(0));
        let logs = vec![LocalLog::from_events(n(10), vec![a, a])];
        let m = wit_merge(&logs);
        assert_eq!(m.components.len(), 1);
        assert_eq!(m.components[0].len(), 1);
    }
}
