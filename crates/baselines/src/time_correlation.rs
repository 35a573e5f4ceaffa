//! Time-window cause correlation (the \[15\]-style baseline of §V-D.2).
//!
//! For each detected loss, look at all *anomalous* events logged anywhere in
//! the network within ±window of the estimated loss time, and attribute the
//! loss to the majority anomaly type. The paper's critique, which this
//! implementation reproduces measurably:
//!
//! 1. different causes inside the same window are indistinguishable — the
//!    majority wins, minority causes are mis-attributed;
//! 2. rare-but-important causes (a handful of timeout losses amid a sink
//!    outage) are drowned out entirely;
//! 3. the correlation runs on *local* timestamps, so clock skew shifts
//!    windows off their causes.

use eventlog::logger::LocalLog;
use eventlog::{EventKind, LossCause, PacketId};
use netsim::{SimDuration, SimTime};

/// Correlation parameters.
#[derive(Debug, Clone, Copy)]
pub struct CorrelationConfig {
    /// Half-width of the correlation window.
    pub window: SimDuration,
}

impl Default for CorrelationConfig {
    fn default() -> Self {
        CorrelationConfig {
            window: SimDuration::from_secs(30),
        }
    }
}

/// A correlated verdict for one loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorrelatedCause {
    /// The lost packet.
    pub packet: PacketId,
    /// The attributed cause, `None` when no anomaly fell in the window.
    pub cause: Option<LossCause>,
    /// How many anomalous events voted for the winning cause.
    pub votes: usize,
}

/// Which loss cause an anomalous event type votes for.
fn anomaly_cause(kind: &EventKind) -> Option<LossCause> {
    match kind {
        EventKind::Dup { .. } => Some(LossCause::DuplicateLoss),
        EventKind::Overflow { .. } => Some(LossCause::OverflowLoss),
        EventKind::Timeout { .. } => Some(LossCause::TimeoutLoss),
        _ => None,
    }
}

/// Correlate each `(packet, est loss time)` with anomalies in the logs.
///
/// `losses` carries the estimated (true-clock or skewed) loss times, e.g.
/// from [`crate::source_view::SourceView`]; `logs` are the collected local
/// logs whose (skewed) timestamps place the anomalies in time.
pub fn correlate_causes(
    losses: &[(PacketId, SimTime)],
    logs: &[LocalLog],
    config: &CorrelationConfig,
) -> Vec<CorrelatedCause> {
    // Gather timestamped anomalies once, sorted by time.
    let mut anomalies: Vec<(u64, LossCause)> = Vec::new();
    for log in logs {
        for entry in &log.entries {
            if let (Some(cause), Some(ts)) = (anomaly_cause(&entry.event.kind), entry.local_ts) {
                anomalies.push((ts.get(), cause));
            }
        }
    }
    anomalies.sort_unstable();

    let w = config.window.as_micros();
    losses
        .iter()
        .map(|&(packet, at)| {
            let t = at.as_micros();
            let lo = t.saturating_sub(w);
            let hi = t.saturating_add(w);
            let start = anomalies.partition_point(|&(ts, _)| ts < lo);
            let mut votes: [usize; 3] = [0; 3];
            for &(ts, cause) in &anomalies[start..] {
                if ts > hi {
                    break;
                }
                let idx = match cause {
                    LossCause::DuplicateLoss => 0,
                    LossCause::OverflowLoss => 1,
                    LossCause::TimeoutLoss => 2,
                    _ => continue,
                };
                votes[idx] += 1;
            }
            let (best_idx, &best) = votes
                .iter()
                .enumerate()
                .max_by_key(|(_, &v)| v)
                .expect("three buckets");
            let cause = if best == 0 {
                None
            } else {
                Some(match best_idx {
                    0 => LossCause::DuplicateLoss,
                    1 => LossCause::OverflowLoss,
                    _ => LossCause::TimeoutLoss,
                })
            };
            CorrelatedCause {
                packet,
                cause,
                votes: best,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventlog::logger::{LocalTs, LogEntry};
    use eventlog::Event;
    use netsim::NodeId;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn pid(s: u32) -> PacketId {
        PacketId::new(n(1), s)
    }

    fn anomaly_log(entries: &[(u64, EventKind)]) -> LocalLog {
        LocalLog {
            node: n(2),
            entries: entries
                .iter()
                .map(|&(ts, kind)| LogEntry {
                    event: Event::new(n(2), kind, pid(99)),
                    local_ts: LocalTs::new(ts),
                })
                .collect(),
        }
    }

    fn cfg() -> CorrelationConfig {
        CorrelationConfig {
            window: SimDuration::from_secs(10),
        }
    }

    #[test]
    fn attributes_nearby_anomaly() {
        let logs = vec![anomaly_log(&[(
            50_000_000,
            EventKind::Overflow { from: n(1) },
        )])];
        let out = correlate_causes(&[(pid(0), SimTime::from_secs(55))], &logs, &cfg());
        assert_eq!(out[0].cause, Some(LossCause::OverflowLoss));
        assert_eq!(out[0].votes, 1);
    }

    #[test]
    fn no_anomaly_in_window_means_unattributed() {
        let logs = vec![anomaly_log(&[(
            10_000_000,
            EventKind::Overflow { from: n(1) },
        )])];
        let out = correlate_causes(&[(pid(0), SimTime::from_secs(100))], &logs, &cfg());
        assert_eq!(out[0].cause, None);
    }

    #[test]
    fn majority_drowns_minority_cause() {
        // The V-D.2 critique: one timeout loss amid many dup anomalies gets
        // attributed to duplicates.
        let mut entries = vec![(50_000_000, EventKind::Timeout { to: n(3) })];
        for i in 0..5 {
            entries.push((48_000_000 + i * 1_000_000, EventKind::Dup { from: n(1) }));
        }
        let logs = vec![anomaly_log(&entries)];
        // This loss was *truly* a timeout loss at 50 s…
        let out = correlate_causes(&[(pid(0), SimTime::from_secs(50))], &logs, &cfg());
        // …but correlation votes duplicate.
        assert_eq!(out[0].cause, Some(LossCause::DuplicateLoss));
        assert_eq!(out[0].votes, 5);
    }

    #[test]
    fn clock_skew_shifts_windows_off_cause() {
        // The anomaly truly happened at the loss time, but the recording
        // node's clock is 30 s fast, pushing its timestamp out of the
        // ±10 s window.
        let logs = vec![anomaly_log(&[(
            80_000_000, // true 50 s + 30 s skew
            EventKind::Overflow { from: n(1) },
        )])];
        let out = correlate_causes(&[(pid(0), SimTime::from_secs(50))], &logs, &cfg());
        assert_eq!(out[0].cause, None, "skew breaks the correlation");
    }

    #[test]
    fn window_edges_inclusive() {
        let logs = vec![anomaly_log(&[(
            60_000_000,
            EventKind::Dup { from: n(1) },
        )])];
        let out = correlate_causes(&[(pid(0), SimTime::from_secs(50))], &logs, &cfg());
        assert_eq!(out[0].cause, Some(LossCause::DuplicateLoss));
    }

    #[test]
    fn multiple_losses_processed_independently() {
        let logs = vec![anomaly_log(&[
            (10_000_000, EventKind::Dup { from: n(1) }),
            (100_000_000, EventKind::Timeout { to: n(1) }),
        ])];
        let losses = vec![
            (pid(0), SimTime::from_secs(10)),
            (pid(1), SimTime::from_secs(100)),
            (pid(2), SimTime::from_secs(500)),
        ];
        let out = correlate_causes(&losses, &logs, &cfg());
        assert_eq!(out[0].cause, Some(LossCause::DuplicateLoss));
        assert_eq!(out[1].cause, Some(LossCause::TimeoutLoss));
        assert_eq!(out[2].cause, None);
    }
}
