//! Scoring reconstructions against simulator ground truth.
//!
//! The real CitySee deployment could only *use* REFILL's output; it could
//! never check it. The simulation substrate can: this module measures
//!
//! * **inference quality** — precision/recall of the inferred lost events
//!   against the events that truly occurred but were missing from the
//!   collected logs, and
//! * **diagnosis quality** — how often the diagnosed cause (and position)
//!   matches the packet's true fate.
//!
//! # Flow scoring without a map
//!
//! [`score_events`] runs once per packet inside the analysis pass, which is
//! kept out of the allocator and out of hash tables (DESIGN.md §6). An
//! event's identity for multiset matching is one word,
//!
//! ```text
//! node << 32 | kind.code() << 24 | peer + 1        (0 in place of peer + 1: no peer)
//! ```
//!
//! so a packet's truth is one sorted vector of `(key, count)` runs: an
//! exact match is a binary search, and an inferred event with an
//! [`UNKNOWN_NODE`] peer — a wildcard — scans the run of keys that agree
//! with it above bit 24, which the order makes contiguous.

use crate::ctp_model::UNKNOWN_NODE;
use crate::diagnose::{DiagnosedCause, Diagnosis};
use crate::trace::PacketReport;
use eventlog::{Event, PacketFate, TruthEvent};
use netsim::NodeId;
use std::cell::Cell;

/// Bits of a key below the `(node, kind_tag)` prefix: the peer.
const PEER_BITS: u32 = 24;

/// The packed identity of an event (module docs) and whether its peer is
/// the [`UNKNOWN_NODE`] wildcard.
fn key_of(e: &Event) -> (u64, bool) {
    let peer = e.kind.peer();
    let peer_word = peer.map_or(0, |p| u64::from(p.0) + 1);
    (
        u64::from(e.node.0) << 32 | u64::from(e.kind.code()) << PEER_BITS | peer_word,
        peer == Some(UNKNOWN_NODE),
    )
}

/// Precision/recall of inferred events for one or many packets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowScore {
    /// Inferred entries produced.
    pub inferred: usize,
    /// Inferred entries matching a truly-lost event.
    pub matched: usize,
    /// Truly occurred events missing from the collected log.
    pub lost: usize,
    /// Observed entries in the flow.
    pub observed: usize,
}

impl FlowScore {
    /// Fraction of inferred events that truly happened.
    pub fn precision(&self) -> f64 {
        if self.inferred == 0 {
            1.0
        } else {
            self.matched as f64 / self.inferred as f64
        }
    }

    /// Fraction of truly-lost events that were recovered.
    pub fn recall(&self) -> f64 {
        if self.lost == 0 {
            1.0
        } else {
            self.matched as f64 / self.lost as f64
        }
    }

    /// Merge another score into this one.
    pub fn merge(&mut self, other: &FlowScore) {
        self.inferred += other.inferred;
        self.matched += other.matched;
        self.lost += other.lost;
        self.observed += other.observed;
    }
}

/// The count of `key` in a sorted multiset of `(key, count)` runs.
fn count_of(counts: &mut [(u64, isize)], key: u64) -> Option<&mut isize> {
    let at = counts.binary_search_by_key(&key, |&(k, _)| k).ok()?;
    Some(&mut counts[at].1)
}

thread_local! {
    /// The buffer [`score_events`] keeps its truth multiset in, per thread
    /// like the kernel's scratch: every worker of a pass reuses its own, so
    /// a warm thread scores without the allocator.
    static COUNTS: Cell<Vec<(u64, isize)>> = const { Cell::new(Vec::new()) };
}

/// Score one packet's flow against that packet's true events.
///
/// Truth events minus the flow's *observed* multiset gives the truly-lost
/// multiset; inferred entries are then matched against it. An inferred
/// event with an [`UNKNOWN_NODE`] peer matches any truth event agreeing on
/// node and kind.
pub fn score_events<'a>(
    report: &PacketReport,
    truth: impl IntoIterator<Item = &'a Event>,
) -> FlowScore {
    // The truth multiset: distinct keys ascending, each with its count.
    let mut counts = COUNTS.take();
    counts.clear();
    counts.extend(truth.into_iter().map(|e| (key_of(e).0, 1)));
    counts.sort_unstable_by_key(|&(key, _)| key);
    counts.dedup_by(|later, run| {
        let same = later.0 == run.0;
        if same {
            run.1 += later.1;
        }
        same
    });

    // Remove observed occurrences.
    let mut observed = 0;
    for e in report.flow.entries.iter().filter(|e| e.observed) {
        observed += 1;
        if let Some(c) = count_of(&mut counts, key_of(&e.payload).0) {
            *c -= 1;
        }
    }
    // What remains positive is truly lost.
    let lost: usize = counts.iter().map(|&(_, c)| c.max(0) as usize).sum();

    // Match inferred entries: every exact one first, then the wildcards,
    // so that a wildcard never takes a truth event an exact entry names.
    let mut matched = 0;
    let mut inferred = 0;
    for e in report.flow.entries.iter().filter(|e| !e.observed) {
        inferred += 1;
        let (key, wildcard) = key_of(&e.payload);
        if wildcard {
            continue;
        }
        if let Some(c) = count_of(&mut counts, key).filter(|c| **c > 0) {
            *c -= 1;
            matched += 1;
        }
    }
    for e in report.flow.entries.iter().filter(|e| !e.observed) {
        let (key, wildcard) = key_of(&e.payload);
        if !wildcard {
            continue;
        }
        // Any truth event left under the same (node, kind) will do: the
        // pass only ever asks whether one is left, so which one it takes
        // does not show in the score.
        let prefix = key >> PEER_BITS;
        let from = counts.partition_point(|&(k, _)| k >> PEER_BITS < prefix);
        let hit = counts[from..]
            .iter_mut()
            .take_while(|(k, _)| k >> PEER_BITS == prefix)
            .find(|(_, c)| *c > 0);
        if let Some((_, c)) = hit {
            *c -= 1;
            matched += 1;
        }
    }
    COUNTS.set(counts);

    FlowScore {
        inferred,
        matched,
        lost,
        observed,
    }
}

/// [`score_events`] over [`TruthEvent`]s.
pub fn score_flow(report: &PacketReport, truth: &[TruthEvent]) -> FlowScore {
    score_events(report, truth.iter().map(|te| &te.event))
}

/// Path-recovery quality: how much of the packet's true node path the
/// reconstruction recovered (the PathZip-style use case of Section VI, but
/// from local logs instead of per-packet path hashes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathScore {
    /// Packets scored.
    pub total: usize,
    /// Reconstructed path exactly equals the true path.
    pub exact: usize,
    /// Sum of longest-common-prefix lengths.
    pub lcp_sum: usize,
    /// Sum of true path lengths.
    pub true_len_sum: usize,
}

impl PathScore {
    /// Fraction of packets whose path was recovered exactly.
    pub fn exact_rate(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.exact as f64 / self.total as f64
        }
    }

    /// Average fraction of the true path recovered as a prefix.
    pub fn prefix_coverage(&self) -> f64 {
        if self.true_len_sum == 0 {
            1.0
        } else {
            self.lcp_sum as f64 / self.true_len_sum as f64
        }
    }

    /// Merge another score.
    pub fn merge(&mut self, other: &PathScore) {
        self.total += other.total;
        self.exact += other.exact;
        self.lcp_sum += other.lcp_sum;
        self.true_len_sum += other.true_len_sum;
    }
}

/// Score a reconstructed path against the true node-visit path.
pub fn score_path(report: &PacketReport, true_path: &[NodeId]) -> PathScore {
    let lcp = report
        .path
        .iter()
        .zip(true_path)
        .take_while(|(a, b)| a == b)
        .count();
    PathScore {
        total: 1,
        exact: usize::from(report.path == true_path),
        lcp_sum: lcp,
        true_len_sum: true_path.len(),
    }
}

/// Diagnosis accuracy against true fates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CauseScore {
    /// Packets scored.
    pub total: usize,
    /// Delivered/lost verdict correct.
    pub delivery_correct: usize,
    /// Cause matched the true cause (lost packets only).
    pub cause_correct: usize,
    /// Loss position matched (lost packets only).
    pub position_correct: usize,
    /// True losses considered.
    pub true_losses: usize,
}

impl CauseScore {
    /// Fraction of lost packets whose cause was diagnosed correctly.
    pub fn cause_accuracy(&self) -> f64 {
        if self.true_losses == 0 {
            1.0
        } else {
            self.cause_correct as f64 / self.true_losses as f64
        }
    }

    /// Fraction of lost packets whose loss position was diagnosed correctly.
    pub fn position_accuracy(&self) -> f64 {
        if self.true_losses == 0 {
            1.0
        } else {
            self.position_correct as f64 / self.true_losses as f64
        }
    }

    /// Fraction of packets with the right delivered/lost verdict.
    pub fn delivery_accuracy(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.delivery_correct as f64 / self.total as f64
        }
    }

    /// Merge another score.
    pub fn merge(&mut self, other: &CauseScore) {
        self.total += other.total;
        self.delivery_correct += other.delivery_correct;
        self.cause_correct += other.cause_correct;
        self.position_correct += other.position_correct;
        self.true_losses += other.true_losses;
    }
}

/// Score one diagnosis against the packet's true fate.
pub fn score_cause(diag: &Diagnosis, fate: &PacketFate) -> CauseScore {
    let mut s = CauseScore {
        total: 1,
        ..CauseScore::default()
    };
    let truly_delivered = fate.delivered();
    if diag.delivered == truly_delivered {
        s.delivery_correct = 1;
    }
    if let PacketFate::Lost { at_node, cause, .. } = fate {
        s.true_losses = 1;
        if diag.cause == Some(DiagnosedCause::Known(*cause)) {
            s.cause_correct = 1;
        }
        if diag.loss_node == Some(*at_node) {
            s.position_correct = 1;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CtpVocabulary, Reconstructor};
    use eventlog::{merge_logs, EventKind, LocalLog, LossCause, PacketId, SimTime};

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn pid() -> PacketId {
        PacketId::new(n(1), 0)
    }

    fn te(at_s: u64, node: u16, kind: EventKind) -> TruthEvent {
        TruthEvent {
            at: SimTime::from_secs(at_s),
            event: Event::new(n(node), kind, pid()),
        }
    }

    #[test]
    fn perfect_inference_scores_full_marks() {
        // Case 1: truth has 4 events, logs kept 2, REFILL infers the 2 lost.
        let truth = vec![
            te(1, 1, EventKind::Trans { to: n(2) }),
            te(2, 2, EventKind::Recv { from: n(1) }),
            te(3, 2, EventKind::Trans { to: n(3) }),
            te(4, 3, EventKind::Recv { from: n(2) }),
        ];
        let logs = vec![
            LocalLog::from_events(
                n(1),
                vec![Event::new(n(1), EventKind::Trans { to: n(2) }, pid())],
            ),
            LocalLog::from_events(
                n(3),
                vec![Event::new(n(3), EventKind::Recv { from: n(2) }, pid())],
            ),
        ];
        let merged = merge_logs(&logs);
        let recon = Reconstructor::new(CtpVocabulary::table2());
        let report = recon.reconstruct_packet(pid(), &merged.by_packet()[&pid()]);
        let score = score_flow(&report, &truth);
        assert_eq!(score.observed, 2);
        assert_eq!(score.lost, 2);
        assert_eq!(score.inferred, 2);
        assert_eq!(score.matched, 2);
        assert_eq!(score.precision(), 1.0);
        assert_eq!(score.recall(), 1.0);
    }

    #[test]
    fn unknown_peer_matches_as_wildcard() {
        // Receiver-side truth exists; inferred recv has UNKNOWN peer.
        let truth = vec![
            te(1, 1, EventKind::Trans { to: n(2) }),
            te(2, 2, EventKind::Recv { from: n(1) }),
        ];
        // Build a fake report with an inferred wildcard recv.
        let logs = vec![LocalLog::from_events(
            n(1),
            vec![Event::new(n(1), EventKind::Trans { to: n(2) }, pid())],
        )];
        let merged = merge_logs(&logs);
        let recon = Reconstructor::new(CtpVocabulary::table2());
        let mut report = recon.reconstruct_packet(pid(), &merged.by_packet()[&pid()]);
        report.flow.push(
            Event::new(
                n(2),
                EventKind::Recv {
                    from: UNKNOWN_NODE,
                },
                pid(),
            ),
            crate::net::EngineId(0),
            false,
            &[],
        );
        let score = score_flow(&report, &truth);
        assert_eq!(score.matched, 1);
        assert_eq!(score.precision(), 1.0);
    }

    /// `score_flow` as it was — a hash map of counts, the inferred entries
    /// and the pending wildcards collected into vectors: the reference the
    /// sorted-key version must agree with.
    fn score_flow_hashed(report: &PacketReport, truth: &[TruthEvent]) -> FlowScore {
        use netsim::fx::FxHashMap;

        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        struct EventKey {
            node: NodeId,
            kind_tag: u8,
            peer: Option<NodeId>,
        }

        fn key_of(e: &Event) -> EventKey {
            let (tag, peer) = match e.kind {
                EventKind::Recv { from } => (0, Some(from)),
                EventKind::Overflow { from } => (1, Some(from)),
                EventKind::Dup { from } => (2, Some(from)),
                EventKind::Trans { to } => (3, Some(to)),
                EventKind::AckRecvd { to } => (4, Some(to)),
                EventKind::Origin => (5, None),
                EventKind::Enqueue => (6, None),
                EventKind::Timeout { to } => (7, Some(to)),
                EventKind::SerialTrans => (8, None),
                EventKind::BsRecv => (9, None),
                EventKind::Deliver => (10, None),
                EventKind::Custom(_) => (11, None),
            };
            EventKey {
                node: e.node,
                kind_tag: tag,
                peer,
            }
        }

        let mut truth_count: FxHashMap<EventKey, isize> = FxHashMap::default();
        for te in truth {
            *truth_count.entry(key_of(&te.event)).or_insert(0) += 1;
        }
        // Remove observed occurrences.
        let mut observed = 0;
        for e in &report.flow.entries {
            if e.observed {
                observed += 1;
                if let Some(c) = truth_count.get_mut(&key_of(&e.payload)) {
                    *c -= 1;
                }
            }
        }
        // What remains positive is truly lost.
        let lost: usize = truth_count.values().filter(|&&c| c > 0).map(|&c| c as usize).sum();

        // Match inferred entries (exact first, then wildcard-peer).
        let mut remaining = truth_count;
        let mut matched = 0;
        let mut inferred = 0;
        let inferred_entries: Vec<&Event> = report
            .flow
            .entries
            .iter()
            .filter(|e| !e.observed)
            .map(|e| &e.payload)
            .collect();
        // Exact pass.
        let mut wildcard_pending: Vec<EventKey> = Vec::new();
        for e in &inferred_entries {
            inferred += 1;
            let k = key_of(e);
            if k.peer == Some(UNKNOWN_NODE) {
                wildcard_pending.push(k);
                continue;
            }
            if let Some(c) = remaining.get_mut(&k) {
                if *c > 0 {
                    *c -= 1;
                    matched += 1;
                }
            }
        }
        // Wildcard pass.
        for k in wildcard_pending {
            let hit = remaining
                .iter_mut()
                .find(|(tk, c)| tk.node == k.node && tk.kind_tag == k.kind_tag && **c > 0);
            if let Some((_, c)) = hit {
                *c -= 1;
                matched += 1;
            }
        }

        FlowScore {
            inferred,
            matched,
            lost,
            observed,
        }
    }

    #[test]
    fn sorted_keys_score_exactly_as_the_hash_map_did() {
        netsim::prop::check("score_flow_equals_hashed", 64, &[], |rng| {
            // Two nodes, two peers and the wildcard, sender- and
            // receiver-side kinds and one without a peer: keys repeat, and
            // several peers share each (node, kind) a wildcard scans.
            let event = |rng: &mut netsim::Rng, wildcards: bool| {
                let peer = match rng.gen_range(0..if wildcards { 4 } else { 2u32 }) {
                    0 => n(7),
                    1 => n(8),
                    _ => UNKNOWN_NODE,
                };
                let kind = match rng.gen_range(0..4u32) {
                    0 => EventKind::Recv { from: peer },
                    1 => EventKind::Trans { to: peer },
                    2 => EventKind::AckRecvd { to: peer },
                    _ => EventKind::Enqueue,
                };
                Event::new(n(rng.gen_range(1..3u16)), kind, pid())
            };
            // Empty truth and empty flows are drawn too.
            let truth: Vec<TruthEvent> = netsim::prop::vec_of(rng, 0..24, |rng| TruthEvent {
                at: SimTime::ZERO,
                event: event(rng, false),
            });
            let recon = Reconstructor::new(CtpVocabulary::table2());
            let mut report = recon.reconstruct_packet(pid(), &[]);
            assert!(report.flow.entries.is_empty());
            // Observed entries partly from the truth, partly absent from it;
            // inferred ones with more wildcards than the truth has
            // candidates in some cases and fewer in others.
            for _ in 0..rng.gen_range(0..30u32) {
                let observed = rng.gen_bool(0.4);
                let payload = if observed && !truth.is_empty() && rng.gen_bool(0.7) {
                    truth[rng.gen_range(0..truth.len())].event
                } else {
                    event(rng, !observed)
                };
                report
                    .flow
                    .push(payload, crate::net::EngineId(0), observed, &[]);
            }
            assert_eq!(
                score_flow(&report, &truth),
                score_flow_hashed(&report, &truth)
            );
        });
    }

    #[test]
    fn wrong_inference_lowers_precision() {
        let truth = vec![te(1, 1, EventKind::Trans { to: n(2) })];
        let logs = vec![LocalLog::from_events(
            n(1),
            vec![Event::new(n(1), EventKind::Trans { to: n(2) }, pid())],
        )];
        let merged = merge_logs(&logs);
        let recon = Reconstructor::new(CtpVocabulary::table2());
        let mut report = recon.reconstruct_packet(pid(), &merged.by_packet()[&pid()]);
        // An inferred event that never truly happened.
        report.flow.push(
            Event::new(n(9), EventKind::Recv { from: n(1) }, pid()),
            crate::net::EngineId(0),
            false,
            &[],
        );
        let score = score_flow(&report, &truth);
        assert_eq!(score.matched, 0);
        assert_eq!(score.precision(), 0.0);
        assert_eq!(score.recall(), 1.0, "nothing was lost");
    }

    #[test]
    fn cause_scoring_counts_matches() {
        let diag = Diagnosis {
            packet: pid(),
            delivered: false,
            cause: Some(DiagnosedCause::Known(LossCause::AckedLoss)),
            loss_node: Some(n(2)),
            last_event: None,
            path_len: 2,
            retransmissions: 0,
        };
        let fate = PacketFate::Lost {
            at_node: n(2),
            cause: LossCause::AckedLoss,
            at: SimTime::ZERO,
        };
        let s = score_cause(&diag, &fate);
        assert_eq!(s.cause_correct, 1);
        assert_eq!(s.position_correct, 1);
        assert_eq!(s.delivery_correct, 1);

        let wrong_fate = PacketFate::Lost {
            at_node: n(3),
            cause: LossCause::TimeoutLoss,
            at: SimTime::ZERO,
        };
        let s = score_cause(&diag, &wrong_fate);
        assert_eq!(s.cause_correct, 0);
        assert_eq!(s.position_correct, 0);
        assert_eq!(s.delivery_correct, 1);
    }

    #[test]
    fn delivery_mismatch_detected() {
        let diag = Diagnosis {
            packet: pid(),
            delivered: true,
            cause: None,
            loss_node: None,
            last_event: None,
            path_len: 2,
            retransmissions: 0,
        };
        let fate = PacketFate::Lost {
            at_node: n(2),
            cause: LossCause::AckedLoss,
            at: SimTime::ZERO,
        };
        let s = score_cause(&diag, &fate);
        assert_eq!(s.delivery_correct, 0);
        assert_eq!(s.delivery_accuracy(), 0.0);
    }

    #[test]
    fn scores_merge_additively() {
        let mut a = FlowScore {
            inferred: 2,
            matched: 1,
            lost: 3,
            observed: 4,
        };
        let b = FlowScore {
            inferred: 1,
            matched: 1,
            lost: 1,
            observed: 2,
        };
        a.merge(&b);
        assert_eq!(a.inferred, 3);
        assert_eq!(a.matched, 2);
        assert_eq!(a.lost, 4);
        assert_eq!(a.observed, 6);
        assert!((a.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((a.recall() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_scores_are_perfect() {
        let s = FlowScore::default();
        assert_eq!(s.precision(), 1.0);
        assert_eq!(s.recall(), 1.0);
        let c = CauseScore::default();
        assert_eq!(c.cause_accuracy(), 1.0);
        assert_eq!(c.delivery_accuracy(), 1.0);
        let p = PathScore::default();
        assert_eq!(p.exact_rate(), 1.0);
        assert_eq!(p.prefix_coverage(), 1.0);
    }

    #[test]
    fn path_scoring_exact_and_prefix() {
        // Case-1 style reconstruction recovers the full 3-node path.
        let truth_path = vec![n(1), n(2), n(3)];
        let logs = vec![
            LocalLog::from_events(
                n(1),
                vec![Event::new(n(1), EventKind::Trans { to: n(2) }, pid())],
            ),
            LocalLog::from_events(
                n(3),
                vec![Event::new(n(3), EventKind::Recv { from: n(2) }, pid())],
            ),
        ];
        let merged = merge_logs(&logs);
        let recon = Reconstructor::new(CtpVocabulary::table2());
        let report = recon.reconstruct_packet(pid(), &merged.by_packet()[&pid()]);
        let s = score_path(&report, &truth_path);
        assert_eq!(s.exact, 1);
        assert_eq!(s.lcp_sum, 3);
        assert_eq!(s.exact_rate(), 1.0);

        // Against a longer true path, the reconstruction is a prefix.
        let longer = vec![n(1), n(2), n(3), n(4)];
        let s = score_path(&report, &longer);
        assert_eq!(s.exact, 0);
        assert_eq!(s.lcp_sum, 3);
        assert!((s.prefix_coverage() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn path_scores_merge() {
        let mut a = PathScore {
            total: 1,
            exact: 1,
            lcp_sum: 3,
            true_len_sum: 3,
        };
        a.merge(&PathScore {
            total: 1,
            exact: 0,
            lcp_sum: 1,
            true_len_sum: 4,
        });
        assert_eq!(a.total, 2);
        assert_eq!(a.exact_rate(), 0.5);
        assert!((a.prefix_coverage() - 4.0 / 7.0).abs() < 1e-12);
    }
}
