//! Lossy per-node local logging.
//!
//! A node's logger is a bounded buffer in scarce RAM/flash. Three loss
//! mechanisms are modelled, all observed in the CitySee deployment:
//!
//! 1. **Write failure** — a log write can silently fail (flash busy, task
//!    queue full) with a configurable probability.
//! 2. **Buffer overflow** — once the buffer holds `capacity` unflushed
//!    entries, further writes are dropped until a flush.
//! 3. **Reboot truncation** — a node reboot loses every entry not yet
//!    flushed to stable storage.
//!
//! What is *never* violated: entries that do survive keep their recording
//! order. That per-node ordering is the only guarantee REFILL relies on.

use crate::clock::NodeClock;
use crate::event::Event;
use netsim::rng::Rng;
use netsim::{json_struct, NodeId, SimTime};
use std::fmt;
use std::num::NonZeroU64;

/// A local clock reading: any `u64` but `u64::MAX`, the value the columnar
/// store's `ts` column and a segment row ([`crate::columnar::encode_row`])
/// spell "no timestamp" with.
///
/// It is stored complemented in a `NonZeroU64`, so `Option<LocalTs>` is
/// 8 bytes with `None` in the niche — a [`LogEntry`] is 24 bytes, not 32.
/// Every reader of outside bytes builds it with [`LocalTs::new`], so the
/// reserved value is refused where it enters, not where it is stored.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LocalTs(NonZeroU64);

impl LocalTs {
    /// The reading `ts`, or `None` for the reserved `u64::MAX`.
    pub const fn new(ts: u64) -> Option<LocalTs> {
        match NonZeroU64::new(!ts) {
            Some(inv) => Some(LocalTs(inv)),
            None => None,
        }
    }

    /// The reading as a number.
    pub const fn get(self) -> u64 {
        !self.0.get()
    }
}

/// Prints the bare number: frozen digests hash the `Debug` text of logs.
impl fmt::Debug for LocalTs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.get(), f)
    }
}

/// One surviving log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// The recorded event.
    pub event: Event,
    /// Local (skewed) timestamp, if the deployment logs timestamps at all.
    pub local_ts: Option<LocalTs>,
}

/// A node's local log: the entries that survived, in recording order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocalLog {
    /// The owning node.
    pub node: NodeId,
    /// Surviving entries in recording order.
    pub entries: Vec<LogEntry>,
}

impl LocalLog {
    /// An empty log for `node`.
    pub fn new(node: NodeId) -> Self {
        LocalLog {
            node,
            entries: Vec::new(),
        }
    }

    /// Build a log directly from events (timestampless) — convenient for
    /// hand-written test cases like Table II.
    pub fn from_events(node: NodeId, events: impl IntoIterator<Item = Event>) -> Self {
        LocalLog {
            node,
            entries: events
                .into_iter()
                .map(|event| LogEntry {
                    event,
                    local_ts: None,
                })
                .collect(),
        }
    }

    /// Iterate over the events in recording order.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.entries.iter().map(|e| &e.event)
    }

    /// Number of surviving entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing survived.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Logging behaviour knobs.
#[derive(Debug, Clone, Copy)]
pub struct LoggerConfig {
    /// Probability that any individual write silently fails.
    pub write_failure_prob: f64,
    /// Unflushed-buffer capacity; writes beyond it are dropped.
    pub buffer_capacity: usize,
    /// Whether entries carry local timestamps.
    pub timestamps: bool,
}

json_struct!(LoggerConfig {
    write_failure_prob,
    buffer_capacity,
    timestamps
});

impl Default for LoggerConfig {
    fn default() -> Self {
        LoggerConfig {
            write_failure_prob: 0.01,
            buffer_capacity: 256,
            timestamps: true,
        }
    }
}

impl LoggerConfig {
    /// A lossless logger (for ground-truth-equivalent logs in tests).
    pub fn lossless() -> Self {
        LoggerConfig {
            write_failure_prob: 0.0,
            buffer_capacity: usize::MAX,
            timestamps: true,
        }
    }
}

/// The recording side: buffers writes, flushes to the stable log, loses
/// entries per the configured mechanisms.
#[derive(Debug, Clone)]
pub struct NodeLogger {
    config: LoggerConfig,
    clock: NodeClock,
    stable: LocalLog,
    buffer: Vec<LogEntry>,
}

impl NodeLogger {
    /// A logger for `node`.
    pub fn new(node: NodeId, config: LoggerConfig, clock: NodeClock) -> Self {
        NodeLogger {
            config,
            clock,
            stable: LocalLog::new(node),
            buffer: Vec::new(),
        }
    }

    /// Attempt to record `event` at true time `at`. Returns whether the
    /// write landed in the buffer.
    pub fn record(&mut self, event: Event, at: SimTime, rng: &mut Rng) -> bool {
        if self.config.write_failure_prob > 0.0
            && rng.gen::<f64>() < self.config.write_failure_prob
        {
            return false;
        }
        if self.buffer.len() >= self.config.buffer_capacity {
            return false;
        }
        self.buffer.push(LogEntry {
            event,
            local_ts: self
                .config
                .timestamps
                .then(|| self.clock.local_time(at))
                .and_then(LocalTs::new),
        });
        true
    }

    /// Flush the buffer to stable storage.
    pub fn flush(&mut self) {
        self.stable.entries.append(&mut self.buffer);
    }

    /// A reboot: everything unflushed is gone.
    pub fn reboot(&mut self) {
        self.buffer.clear();
    }

    /// Finish recording: flush and take the stable log.
    pub fn into_log(mut self) -> LocalLog {
        self.flush();
        self.stable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, PacketId};

    fn ev(n: u16, s: u32) -> Event {
        Event::new(
            NodeId(n),
            EventKind::Origin,
            PacketId::new(NodeId(n), s),
        )
    }

    fn rng() -> Rng {
        Rng::new(1)
    }

    #[test]
    fn lossless_logger_keeps_everything_in_order() {
        let mut l = NodeLogger::new(NodeId(1), LoggerConfig::lossless(), NodeClock::PERFECT);
        let mut r = rng();
        for s in 0..100 {
            assert!(l.record(ev(1, s), SimTime::from_secs(u64::from(s)), &mut r));
        }
        let log = l.into_log();
        assert_eq!(log.len(), 100);
        for (i, entry) in log.entries.iter().enumerate() {
            assert_eq!(entry.event.packet.seqno, i as u32);
        }
    }

    #[test]
    fn write_failures_drop_events() {
        let cfg = LoggerConfig {
            write_failure_prob: 0.5,
            buffer_capacity: usize::MAX,
            timestamps: false,
        };
        let mut l = NodeLogger::new(NodeId(1), cfg, NodeClock::PERFECT);
        let mut r = rng();
        let wf = (0..1000)
            .filter(|&s| !l.record(ev(1, s), SimTime::ZERO, &mut r))
            .count();
        assert!(wf > 300 && wf < 700, "write failures: {wf}");
        let log = l.into_log();
        assert_eq!(log.len(), 1000 - wf);
    }

    #[test]
    fn buffer_overflow_drops_until_flush() {
        let cfg = LoggerConfig {
            write_failure_prob: 0.0,
            buffer_capacity: 3,
            timestamps: false,
        };
        let mut l = NodeLogger::new(NodeId(1), cfg, NodeClock::PERFECT);
        let mut r = rng();
        let landed: Vec<bool> = (0..5)
            .map(|s| l.record(ev(1, s), SimTime::ZERO, &mut r))
            .collect();
        assert_eq!(landed, [true, true, true, false, false]);
        l.flush();
        assert!(l.record(ev(1, 99), SimTime::ZERO, &mut r));
        let log = l.into_log();
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn reboot_loses_unflushed_tail_only() {
        let mut l = NodeLogger::new(NodeId(1), LoggerConfig::lossless(), NodeClock::PERFECT);
        let mut r = rng();
        l.record(ev(1, 0), SimTime::ZERO, &mut r);
        l.record(ev(1, 1), SimTime::ZERO, &mut r);
        l.flush();
        l.record(ev(1, 2), SimTime::ZERO, &mut r);
        l.reboot();
        l.record(ev(1, 3), SimTime::ZERO, &mut r);
        let log = l.into_log();
        let seqnos: Vec<u32> = log.events().map(|e| e.packet.seqno).collect();
        assert_eq!(seqnos, vec![0, 1, 3]);
        // Surviving order is still recording order even with the gap.
    }

    #[test]
    fn timestamps_use_local_clock() {
        let clock = NodeClock {
            offset_us: 1_000_000,
            drift_ppm: 0.0,
        };
        let mut l = NodeLogger::new(NodeId(1), LoggerConfig::lossless(), clock);
        let mut r = rng();
        l.record(ev(1, 0), SimTime::from_secs(5), &mut r);
        let log = l.into_log();
        assert_eq!(log.entries[0].local_ts, LocalTs::new(6_000_000));
    }

    #[test]
    fn a_missing_timestamp_costs_a_niche_not_padding() {
        use crate::frame::NodeRecord;
        use std::mem::size_of;
        assert_eq!(size_of::<Option<LocalTs>>(), 8);
        assert_eq!(size_of::<LogEntry>(), 24);
        assert_eq!(size_of::<NodeRecord>(), 32);
    }

    #[test]
    fn local_ts_refuses_only_the_reserved_value() {
        for ts in [0, 1, 6_000_000, u64::MAX - 1] {
            assert_eq!(LocalTs::new(ts).map(LocalTs::get), Some(ts));
            assert_eq!(format!("{:?}", LocalTs::new(ts)), format!("{:?}", Some(ts)));
        }
        assert_eq!(LocalTs::new(u64::MAX), None);
    }

    #[test]
    fn from_events_builder() {
        let log = LocalLog::from_events(NodeId(2), vec![ev(2, 0), ev(2, 1)]);
        assert_eq!(log.node, NodeId(2));
        assert_eq!(log.len(), 2);
        assert!(log.entries.iter().all(|e| e.local_ts.is_none()));
    }
}
