//! The source view: loss detection from collected data alone.
//!
//! CitySee's operators see the packets that *arrive* at the base station.
//! A missing sequence number from an origin is a lost packet; since nodes
//! send periodically, the send time of a lost packet can be back-dated from
//! the arrival time of the received packet right before the gap plus the
//! sequence distance times the period (the paper's Figure 4 methodology).
//!
//! This view answers "whose packets are lost, roughly when" — and nothing
//! about where or why, which is exactly the gap REFILL fills.

use eventlog::logger::{LocalLog, LocalTs};
use eventlog::{EventKind, PacketId, SeqNo};
use netsim::fx::FxHashMap;
use netsim::{NodeId, SimDuration, SimTime};

/// One loss detected from the base station's data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceViewLoss {
    /// The missing packet.
    pub packet: PacketId,
    /// Estimated send time, back-dated from the surrounding received
    /// packets and the sending period.
    pub est_time: SimTime,
}

/// The source view built from the base station's log.
#[derive(Debug, Clone, Default)]
pub struct SourceView {
    /// Received `(packet, arrival local time)` pairs per origin, in seqno
    /// order. The losses are the gaps between them, walked on demand: a
    /// record with a seqno in the billions costs nothing until read.
    received: FxHashMap<NodeId, Vec<(SeqNo, u64)>>,
    period: SimDuration,
}

impl SourceView {
    /// Build from the base station's local log (its `bs recv` entries carry
    /// reliable timestamps) and the known application sending period.
    pub fn from_bs_log(bs_log: &LocalLog, period: SimDuration) -> Self {
        let mut received: FxHashMap<NodeId, Vec<(SeqNo, u64)>> = FxHashMap::default();
        for entry in &bs_log.entries {
            if !matches!(entry.event.kind, EventKind::BsRecv) {
                continue;
            }
            let id = entry.event.packet;
            received
                .entry(id.origin)
                .or_default()
                .push((id.seqno, entry.local_ts.map_or(0, LocalTs::get)));
        }
        for v in received.values_mut() {
            v.sort_unstable();
            v.dedup_by_key(|(s, _)| *s);
        }
        SourceView { received, period }
    }

    /// Every loss the gaps in the received seqnos show, in packet order
    /// (origin, then seqno): the seqnos before an origin's first received
    /// one, back-dated from it, and those inside each gap, dated forward
    /// from the packet before the gap.
    pub fn losses(&self) -> impl Iterator<Item = SourceViewLoss> + '_ {
        let mut origins: Vec<NodeId> = self.received.keys().copied().collect();
        origins.sort_unstable();
        let period = self.period.as_micros();
        origins.into_iter().flat_map(move |origin| {
            let seqs = &self.received[&origin];
            let (first, t_first) = seqs[0];
            let leading =
                (0..first).map(move |s| (s, t_first.saturating_sub(steps(first - s, period))));
            let interior = seqs.windows(2).flat_map(move |w| {
                let ((prev, t_prev), (next, _)) = (w[0], w[1]);
                (prev + 1..next).map(move |s| (s, t_prev.saturating_add(steps(s - prev, period))))
            });
            leading
                .chain(interior)
                .map(move |(seqno, est)| SourceViewLoss {
                    packet: PacketId::new(origin, seqno),
                    est_time: SimTime::from_micros(est),
                })
        })
    }

    /// True if the base station received `packet`.
    pub fn received(&self, packet: PacketId) -> bool {
        self.received
            .get(&packet.origin)
            .is_some_and(|v| v.binary_search_by_key(&packet.seqno, |&(s, _)| s).is_ok())
    }

    /// Estimated send time of any packet from `origin` with `seqno`,
    /// interpolated from its neighbors (useful for packets the gap scan did
    /// not flag, e.g. trailing losses known from other evidence).
    pub fn estimate_time(&self, packet: PacketId) -> Option<SimTime> {
        if let Some(v) = self.received.get(&packet.origin) {
            match v.binary_search_by_key(&packet.seqno, |&(s, _)| s) {
                Ok(i) => return Some(SimTime::from_micros(v[i].1)),
                Err(pos) => {
                    let period = self.period.as_micros();
                    if pos > 0 {
                        let (s, t) = v[pos - 1];
                        let est = t.saturating_add(steps(packet.seqno - s, period));
                        return Some(SimTime::from_micros(est));
                    }
                    if let Some(&(s, t)) = v.first() {
                        let back = steps(s - packet.seqno, period);
                        return Some(SimTime::from_micros(t.saturating_sub(back)));
                    }
                }
            }
        }
        None
    }
}

/// `n` sending periods of `period` µs, saturating: a gap of billions of
/// seqnos reaches the end of time, not an overflow.
fn steps(n: SeqNo, period: u64) -> u64 {
    u64::from(n).saturating_mul(period)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventlog::event::BASE_STATION;
    use eventlog::logger::LogEntry;
    use eventlog::Event;

    fn bs_log(entries: &[(u16, u32, u64)]) -> LocalLog {
        LocalLog {
            node: BASE_STATION,
            entries: entries
                .iter()
                .map(|&(origin, seq, ts)| LogEntry {
                    event: Event::new(
                        BASE_STATION,
                        EventKind::BsRecv,
                        PacketId::new(NodeId(origin), seq),
                    ),
                    local_ts: LocalTs::new(ts),
                })
                .collect(),
        }
    }

    fn period() -> SimDuration {
        SimDuration::from_secs(10)
    }

    #[test]
    fn detects_interior_gap_with_backdated_time() {
        // Seqnos 0,1,4 received: 2 and 3 missing.
        let log = bs_log(&[(1, 0, 0), (1, 1, 10_000_000), (1, 4, 40_000_000)]);
        let v = SourceView::from_bs_log(&log, period());
        let missing: Vec<u32> = v.losses().map(|l| l.packet.seqno).collect();
        assert_eq!(missing, vec![2, 3]);
        let times: Vec<SimTime> = v.losses().map(|l| l.est_time).collect();
        assert_eq!(times, [SimTime::from_secs(20), SimTime::from_secs(30)]);
    }

    #[test]
    fn detects_leading_gap() {
        let log = bs_log(&[(1, 2, 25_000_000)]);
        let v = SourceView::from_bs_log(&log, period());
        let missing: Vec<u32> = v.losses().map(|l| l.packet.seqno).collect();
        assert_eq!(missing, vec![0, 1]);
        let times: Vec<SimTime> = v.losses().map(|l| l.est_time).collect();
        assert_eq!(times, [SimTime::from_secs(5), SimTime::from_secs(15)]);
    }

    #[test]
    fn no_gaps_no_losses() {
        let log = bs_log(&[(1, 0, 0), (1, 1, 10_000_000), (2, 0, 5_000_000)]);
        let v = SourceView::from_bs_log(&log, period());
        assert_eq!(v.losses().count(), 0);
        assert!(v.received(PacketId::new(NodeId(1), 1)));
        assert!(!v.received(PacketId::new(NodeId(1), 2)));
    }

    #[test]
    fn estimate_time_interpolates_and_extrapolates() {
        let log = bs_log(&[(1, 1, 10_000_000), (1, 3, 30_000_000)]);
        let v = SourceView::from_bs_log(&log, period());
        // Received packet: exact arrival time.
        assert_eq!(
            v.estimate_time(PacketId::new(NodeId(1), 1)),
            Some(SimTime::from_secs(10))
        );
        // Gap packet: previous + distance × period.
        assert_eq!(
            v.estimate_time(PacketId::new(NodeId(1), 2)),
            Some(SimTime::from_secs(20))
        );
        // Trailing packet (never flagged as a loss, but estimable).
        assert_eq!(
            v.estimate_time(PacketId::new(NodeId(1), 5)),
            Some(SimTime::from_secs(50))
        );
        // Unknown origin: no estimate.
        assert_eq!(v.estimate_time(PacketId::new(NodeId(9), 0)), None);
    }

    #[test]
    fn duplicate_bs_records_are_deduped() {
        let log = bs_log(&[(1, 0, 0), (1, 0, 1_000_000), (1, 2, 20_000_000)]);
        let v = SourceView::from_bs_log(&log, period());
        let missing: Vec<u32> = v.losses().map(|l| l.packet.seqno).collect();
        assert_eq!(missing, vec![1]);
    }
}
