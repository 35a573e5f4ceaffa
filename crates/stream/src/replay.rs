//! CitySee replay: turn an archived campaign into a live-looking stream.
//!
//! [`Replay`] takes an upload-arrival-ordered record sequence (usually
//! [`citysee::run::Campaign::upload_records`]) and derives a monotone
//! arrival timeline from the nodes' local clocks: per-node running-max
//! timestamps (per-node order is sacred), then a global running max so the
//! timeline never steps backwards across lanes. [`Replay::drive`] feeds a
//! sink at `speed`× that timeline — `2.0` replays a day in half a day,
//! [`f64::INFINITY`] (or any non-finite/non-positive speed) replays as
//! fast as the sink accepts, which is what tests and benchmarks use.

use eventlog::frame::{encode_records, NodeRecord};
use netsim::fx::FxHashMap;
use netsim::NodeId;
use std::time::{Duration, Instant};

/// A paced record source.
#[derive(Debug, Clone)]
pub struct Replay {
    records: Vec<NodeRecord>,
    /// Monotone arrival offsets in microseconds, one per record, starting
    /// at the first record's arrival.
    arrivals_us: Vec<u64>,
    speed: f64,
}

impl Replay {
    /// Build from an arrival-ordered record sequence.
    pub fn new(records: Vec<NodeRecord>, speed: f64) -> Self {
        let mut per_node: FxHashMap<NodeId, u64> = FxHashMap::default();
        let mut global = 0u64;
        let arrivals_us = records
            .iter()
            .map(|rec| {
                let lane = per_node.entry(rec.node).or_insert(0);
                if let Some(ts) = rec.entry.local_ts {
                    *lane = (*lane).max(ts);
                }
                global = global.max(*lane);
                global
            })
            .collect();
        Replay {
            records,
            arrivals_us,
            speed,
        }
    }

    /// Build from a completed campaign's collected logs.
    pub fn from_campaign(campaign: &citysee::Campaign, speed: f64) -> Self {
        Replay::new(campaign.upload_records(), speed)
    }

    /// The records, in arrival order.
    pub fn records(&self) -> &[NodeRecord] {
        &self.records
    }

    /// The monotone arrival offsets (microseconds), one per record.
    pub fn arrivals_us(&self) -> &[u64] {
        &self.arrivals_us
    }

    /// The whole replay as one framed byte stream (arrival order).
    pub fn encode(&self) -> Vec<u8> {
        encode_records(self.records.iter())
    }

    /// Feed every record to `sink`, sleeping so records arrive at `speed`×
    /// the original timeline. Non-finite or non-positive speeds never
    /// sleep. Returns the number of records delivered.
    pub fn drive(&self, mut sink: impl FnMut(NodeRecord)) -> usize {
        let pace = self.speed.is_finite() && self.speed > 0.0;
        let base = self.arrivals_us.first().copied().unwrap_or(0);
        let started = Instant::now();
        for (rec, &at) in self.records.iter().zip(&self.arrivals_us) {
            if pace {
                let due = Duration::from_micros(((at - base) as f64 / self.speed) as u64);
                let elapsed = started.elapsed();
                if due > elapsed {
                    std::thread::sleep(due - elapsed);
                }
            }
            sink(*rec);
        }
        self.records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventlog::frame::decode_all;
    use eventlog::logger::LogEntry;
    use eventlog::{Event, EventKind, PacketId};

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn rec(node: u16, seq: u32, ts: Option<u64>) -> NodeRecord {
        NodeRecord::new(
            n(node),
            LogEntry {
                event: Event::new(
                    n(node),
                    EventKind::Trans { to: n(node + 1) },
                    PacketId::new(n(node), seq),
                ),
                local_ts: ts,
            },
        )
    }

    #[test]
    fn arrivals_are_monotone_even_with_regressing_clocks() {
        let replay = Replay::new(
            vec![
                rec(1, 0, Some(100)),
                rec(2, 0, Some(40)), // slower clock: must not pull time back
                rec(1, 1, Some(90)), // a regressing reading on node 1
                rec(2, 1, None),     // untimestamped
                rec(1, 2, Some(250)),
            ],
            f64::INFINITY,
        );
        assert_eq!(replay.arrivals_us(), &[100, 100, 100, 100, 250]);
        assert!(replay.arrivals_us().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn unpaced_drive_delivers_everything_in_order() {
        let records = vec![rec(1, 0, Some(10)), rec(2, 0, None), rec(1, 1, Some(20))];
        let replay = Replay::new(records.clone(), f64::INFINITY);
        let mut seen = Vec::new();
        let delivered = replay.drive(|r| seen.push(r));
        assert_eq!(delivered, 3);
        assert_eq!(seen, records);
    }

    #[test]
    fn encode_roundtrips_through_the_frame_codec() {
        let records = vec![rec(1, 0, Some(10)), rec(2, 7, None), rec(3, 3, Some(99))];
        let replay = Replay::new(records.clone(), f64::INFINITY);
        let (decoded, stats) = decode_all(&replay.encode());
        assert_eq!(decoded, records);
        assert_eq!(stats.corrupt, 0);
        assert_eq!(stats.decoded, 3);
    }

    #[test]
    fn campaign_replay_covers_every_collected_entry() {
        let scenario = citysee::Scenario {
            days: 1,
            ..citysee::Scenario::small()
        };
        let campaign = citysee::run_scenario(&scenario);
        let replay = Replay::from_campaign(&campaign, f64::INFINITY);
        let expected: usize = campaign.collected.iter().map(|l| l.len()).sum();
        assert_eq!(replay.records().len(), expected);
        assert!(replay.arrivals_us().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn paced_drive_honours_the_timeline() {
        // 2000 us apart at 1000x -> ~2 us of pacing; just assert it runs
        // and stays in order (wall-clock assertions would be flaky).
        let replay = Replay::new(vec![rec(1, 0, Some(0)), rec(1, 1, Some(2_000))], 1000.0);
        let mut seqs = Vec::new();
        replay.drive(|r| seqs.push(r.entry.event.packet.seqno));
        assert_eq!(seqs, vec![0, 1]);
    }
}
