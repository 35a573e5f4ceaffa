//! Lossy in-network log collection.
//!
//! CitySee retrieved local logs over the same fragile CTP network that
//! carried sensor data. We model the two failure granularities that matter:
//!
//! * **Whole-log loss** — a node dies or is unreachable and its entire log
//!   never arrives (Table II, Case 1: "Node 2: Lost").
//! * **Chunk loss** — logs travel in packet-sized chunks of consecutive
//!   entries; each chunk can be lost independently, punching contiguous
//!   holes in the log while preserving the order of what remains.

use crate::logger::{LocalLog, LogEntry};
use netsim::rng::Rng;
use netsim::{json_struct, RngFactory};

/// Knobs for the collection loss process.
#[derive(Debug, Clone, Copy)]
pub struct CollectionConfig {
    /// Probability that a node's entire log is lost.
    pub whole_log_loss_prob: f64,
    /// Entries per collection chunk (one log packet's worth).
    pub chunk_entries: usize,
    /// Probability that an individual chunk is lost in transit.
    pub chunk_loss_prob: f64,
}

json_struct!(CollectionConfig {
    whole_log_loss_prob,
    chunk_entries,
    chunk_loss_prob
});

impl Default for CollectionConfig {
    fn default() -> Self {
        CollectionConfig {
            whole_log_loss_prob: 0.01,
            chunk_entries: 8,
            chunk_loss_prob: 0.05,
        }
    }
}

impl CollectionConfig {
    /// A collection process that loses nothing.
    pub fn lossless() -> Self {
        CollectionConfig {
            whole_log_loss_prob: 0.0,
            chunk_entries: 8,
            chunk_loss_prob: 0.0,
        }
    }
}

/// Applies collection loss to a set of local logs.
#[derive(Debug, Clone)]
pub struct LossyCollector {
    config: CollectionConfig,
}

impl LossyCollector {
    /// Build a collector with `config`.
    pub fn new(config: CollectionConfig) -> Self {
        LossyCollector { config }
    }

    /// Collect one node's log, applying whole-log and chunk loss.
    ///
    /// Returns `None` when the whole log is lost, otherwise the surviving
    /// entries in their original recording order.
    pub fn collect_one(&self, log: &LocalLog, rng: &mut Rng) -> Option<LocalLog> {
        if self.config.whole_log_loss_prob > 0.0
            && rng.gen::<f64>() < self.config.whole_log_loss_prob
        {
            return None;
        }
        let chunk = self.config.chunk_entries.max(1);
        let mut surviving: Vec<LogEntry> = Vec::with_capacity(log.entries.len());
        for window in log.entries.chunks(chunk) {
            let lost = self.config.chunk_loss_prob > 0.0
                && rng.gen::<f64>() < self.config.chunk_loss_prob;
            if !lost {
                surviving.extend_from_slice(window);
            }
        }
        Some(LocalLog {
            node: log.node,
            entries: surviving,
        })
    }

    /// Collect all logs. Wholly lost logs are simply absent from the result
    /// (a missing node, as in Table II Case 1).
    pub fn collect_all(&self, logs: &[LocalLog], rng_factory: &RngFactory) -> Vec<LocalLog> {
        logs.iter()
            .filter_map(|log| {
                let mut rng = rng_factory.stream("collect", u64::from(log.node.0));
                self.collect_one(log, &mut rng)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind, PacketId};
    use netsim::NodeId;

    fn log_with(n: u16, count: u32) -> LocalLog {
        LocalLog::from_events(
            NodeId(n),
            (0..count).map(|s| {
                Event::new(NodeId(n), EventKind::Origin, PacketId::new(NodeId(n), s))
            }),
        )
    }

    #[test]
    fn lossless_collection_is_identity() {
        let c = LossyCollector::new(CollectionConfig::lossless());
        let log = log_with(1, 50);
        let mut rng = Rng::new(0);
        let got = c.collect_one(&log, &mut rng).unwrap();
        assert_eq!(got.entries, log.entries);
    }

    #[test]
    fn whole_log_loss_removes_node() {
        let c = LossyCollector::new(CollectionConfig {
            whole_log_loss_prob: 1.0,
            ..CollectionConfig::lossless()
        });
        let mut rng = Rng::new(0);
        assert!(c.collect_one(&log_with(1, 10), &mut rng).is_none());
    }

    #[test]
    fn chunk_loss_preserves_order_of_survivors() {
        let c = LossyCollector::new(CollectionConfig {
            whole_log_loss_prob: 0.0,
            chunk_entries: 4,
            chunk_loss_prob: 0.5,
        });
        let log = log_with(1, 100);
        let mut rng = Rng::new(7);
        let got = c.collect_one(&log, &mut rng).unwrap();
        assert!(got.len() < 100, "some chunks should be lost");
        assert!(!got.is_empty(), "some chunks should survive");
        let seqnos: Vec<u32> = got.events().map(|e| e.packet.seqno).collect();
        assert!(seqnos.windows(2).all(|w| w[0] < w[1]), "order violated");
    }

    #[test]
    fn chunk_loss_removes_contiguous_runs() {
        let c = LossyCollector::new(CollectionConfig {
            whole_log_loss_prob: 0.0,
            chunk_entries: 10,
            chunk_loss_prob: 0.5,
        });
        let log = log_with(1, 100);
        let mut rng = Rng::new(3);
        let got = c.collect_one(&log, &mut rng).unwrap();
        // Every surviving seqno's chunk must be fully present.
        let present: std::collections::HashSet<u32> =
            got.events().map(|e| e.packet.seqno).collect();
        for chunk_start in (0..100).step_by(10) {
            let in_chunk = (chunk_start..chunk_start + 10)
                .filter(|s| present.contains(s))
                .count();
            assert!(in_chunk == 0 || in_chunk == 10, "partial chunk survived");
        }
    }

    #[test]
    fn collect_all_drops_lost_nodes_deterministically() {
        let c = LossyCollector::new(CollectionConfig {
            whole_log_loss_prob: 0.3,
            chunk_entries: 8,
            chunk_loss_prob: 0.0,
        });
        let logs: Vec<LocalLog> = (0..50).map(|n| log_with(n, 5)).collect();
        let f = RngFactory::new(42);
        let a = c.collect_all(&logs, &f);
        let b = c.collect_all(&logs, &f);
        assert_eq!(a.len(), b.len());
        assert!(a.len() < 50 && !a.is_empty());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.node, y.node);
        }
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use crate::event::{Event, EventKind, PacketId};
    use netsim::prop::check;
    use netsim::NodeId;

    /// Whatever survives collection is a chunk-aligned subsequence of
    /// the original log, in original order.
    #[test]
    fn survivors_are_ordered_subsequence() {
        check("survivors_are_ordered_subsequence", 256, &[], |rng| {
            let n = rng.gen_range(0..200u32);
            let chunk = rng.gen_range(1..16usize);
            let log = LocalLog::from_events(
                NodeId(1),
                (0..n)
                    .map(|s| Event::new(NodeId(1), EventKind::Origin, PacketId::new(NodeId(1), s))),
            );
            let c = LossyCollector::new(CollectionConfig {
                whole_log_loss_prob: 0.0,
                chunk_entries: chunk,
                chunk_loss_prob: rng.gen_range(0.0..1.0),
            });
            let got = c.collect_one(&log, rng).expect("whole-log loss disabled");
            // Ordered subsequence.
            let seqnos: Vec<u32> = got.events().map(|e| e.packet.seqno).collect();
            assert!(seqnos.windows(2).all(|w| w[0] < w[1]));
            assert!(got.len() <= log.len());
            // Chunk alignment: each chunk fully present or fully absent.
            let present: std::collections::HashSet<u32> = seqnos.iter().copied().collect();
            for start in (0..n).step_by(chunk) {
                let end = (start + chunk as u32).min(n);
                let kept = (start..end).filter(|s| present.contains(s)).count() as u32;
                assert!(kept == 0 || kept == end - start, "partial chunk at {start}");
            }
        });
    }
}
