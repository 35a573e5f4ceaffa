//! Incremental reconstruction: analyze logs as they trickle in.
//!
//! Real log collection is not a batch job — node logs arrive over hours or
//! days (and some never arrive). [`IncrementalReconstructor`] accumulates
//! per-node log batches, tracks which packets gained evidence, and
//! recomputes only those packets' flows on [`IncrementalReconstructor::refresh`].
//! The result is always identical to a from-scratch reconstruction over
//! everything ingested so far (tested), because per-packet reconstruction
//! depends only on that packet's own events.
//!
//! The one contract: batches from the same node must be ingested in that
//! node's recording order (which is how collection delivers them — a log is
//! read front to back).

use crate::parallel::{available_workers, par_map};
use crate::trace::{PacketReport, Reconstructor};
use eventlog::columnar::PackedEvent;
use eventlog::logger::LocalLog;
use eventlog::{Event, PacketId};
use refill_telemetry::Counter;
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::BTreeMap;

/// Accumulates logs and keeps per-packet reports up to date.
pub struct IncrementalReconstructor {
    recon: Reconstructor,
    /// Per-packet events in ingestion order (per-node subsequences are in
    /// recording order by the ingestion contract), held packed: long-lived
    /// accumulation state is where the 16-byte [`PackedEvent`] records pay
    /// most — a streaming run keeps every packet's history resident for
    /// its whole window lifetime. Groups are unpacked into a per-refresh
    /// scratch buffer only at reconstruction time.
    events: FxHashMap<PacketId, Vec<PackedEvent>>,
    dirty: FxHashSet<PacketId>,
    /// Ordered by packet id so report iteration is deterministic without a
    /// per-call sort (streaming consumers iterate this after every window).
    reports: BTreeMap<PacketId, PacketReport>,
    /// Event count per packet at its last reconstruction — the cheap
    /// change detector that lets [`IncrementalReconstructor::refresh`] skip
    /// packets marked dirty without actually gaining evidence. A count
    /// suffices because ingestion only ever appends.
    reconstructed_len: FxHashMap<PacketId, usize>,
}

impl IncrementalReconstructor {
    /// Wrap a configured [`Reconstructor`].
    pub fn new(recon: Reconstructor) -> Self {
        IncrementalReconstructor {
            recon,
            events: FxHashMap::default(),
            dirty: FxHashSet::default(),
            reports: BTreeMap::new(),
            reconstructed_len: FxHashMap::default(),
        }
    }

    /// Ingest one node's log batch (entries in recording order).
    pub fn ingest_log(&mut self, log: &LocalLog) {
        for e in log.events() {
            self.events
                .entry(e.packet)
                .or_default()
                .push(PackedEvent::pack(e));
            self.dirty.insert(e.packet);
        }
    }

    /// Ingest a batch of events (per-node order must be preserved by the
    /// caller).
    pub fn ingest_events(&mut self, events: impl IntoIterator<Item = Event>) {
        for e in events {
            self.events
                .entry(e.packet)
                .or_default()
                .push(PackedEvent::pack(&e));
            self.dirty.insert(e.packet);
        }
    }

    /// Heap footprint of the packed per-packet event state, in bytes —
    /// the resident cost a streaming run carries between refreshes.
    pub fn packed_bytes(&self) -> usize {
        self.events
            .values()
            .map(|v| v.capacity() * std::mem::size_of::<PackedEvent>())
            .sum()
    }

    /// Packets with new evidence since the last refresh.
    pub fn pending(&self) -> usize {
        self.dirty.len()
    }

    /// Force a known packet to be re-reconstructed on the next refresh even
    /// if its event set is unchanged (e.g. after external state it depends
    /// on changed). Unknown packets are ignored.
    pub fn mark_dirty(&mut self, id: PacketId) {
        if self.events.contains_key(&id) {
            self.dirty.insert(id);
            // Forget the change record so the refresh filter lets it through.
            self.reconstructed_len.remove(&id);
        }
    }

    /// Recompute the flows of every packet whose event set actually changed
    /// since its last reconstruction; returns the updated packet ids
    /// (sorted). Dirty-marked packets that gained no events (e.g. a
    /// re-ingested duplicate batch mentioning them) are skipped without
    /// reconstruction.
    pub fn refresh(&mut self) -> Vec<PacketId> {
        let ids: Vec<PacketId> = self.dirty.drain().collect();
        self.refresh_ids(ids)
    }

    /// Like [`IncrementalReconstructor::refresh`], but limited to the given
    /// packets: only those that are actually dirty are recomputed, and every
    /// other dirty packet stays pending. Streaming windowing uses this to
    /// reconstruct just-closed windows without paying for packets whose
    /// windows are still open. Duplicate ids are processed once.
    pub fn refresh_packets(
        &mut self,
        ids: impl IntoIterator<Item = PacketId>,
    ) -> Vec<PacketId> {
        let ids: Vec<PacketId> = ids
            .into_iter()
            .filter(|id| self.dirty.remove(id))
            .collect();
        self.refresh_ids(ids)
    }

    /// Shared refresh body: `ids` have already been removed from the dirty
    /// set; filter out the ones whose event sets did not change, then
    /// reconstruct the rest — in parallel when the batch is big enough to
    /// pay for spawning workers, on the calling thread otherwise. The
    /// sequential path matters under streaming: a poll typically closes
    /// only a handful of windows, and forking workers per-handful costs
    /// more than the reconstructions themselves. Output is identical
    /// either way (ids are sorted first; [`par_map`] preserves order).
    fn refresh_ids(&mut self, mut ids: Vec<PacketId>) -> Vec<PacketId> {
        /// Batches below this size reconstruct on the calling thread.
        const PAR_MIN_IDS: usize = 8;
        let drained = ids.len();
        ids.retain(|id| {
            let len = self.events.get(id).map_or(0, Vec::len);
            self.reconstructed_len.get(id).copied() != Some(len)
        });
        let rec = self.recon.recorder();
        rec.add(Counter::IncrementalSkipped, (drained - ids.len()) as u64);
        rec.add(Counter::IncrementalRefreshed, ids.len() as u64);
        ids.sort_unstable();
        let workers = if ids.len() < PAR_MIN_IDS {
            1
        } else {
            available_workers()
        };
        let recon = &self.recon;
        let events = &self.events;
        // Each worker unpacks its groups into one reused scratch buffer.
        let updated: Vec<PacketReport> = par_map(
            ids.len(),
            workers,
            Vec::new,
            |scratch: &mut Vec<Event>, i| {
                scratch.clear();
                scratch.extend(events[&ids[i]].iter().map(PackedEvent::unpack));
                recon.reconstruct_packet(ids[i], scratch)
            },
        );
        for (&id, report) in ids.iter().zip(updated) {
            self.reconstructed_len.insert(id, self.events[&id].len());
            self.reports.insert(id, report);
        }
        ids
    }

    /// The current report for a packet (after the last refresh).
    pub fn report(&self, id: PacketId) -> Option<&PacketReport> {
        self.reports.get(&id)
    }

    /// All current reports, in packet-id order. The order is a property of
    /// the storage (a `BTreeMap` keyed by packet id), not a per-call sort,
    /// so it is deterministic across runs and ingestion orders.
    pub fn reports(&self) -> Vec<&PacketReport> {
        self.reports.values().collect()
    }

    /// Number of packets with reports.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// True if nothing has been reconstructed yet.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CtpVocabulary;
    use eventlog::{merge_logs, EventKind};
    use netsim::NodeId;
    use refill_telemetry::{AtomicRecorder, Recorder};
    use std::sync::Arc;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn chain_logs(packets: u32) -> Vec<LocalLog> {
        let mut n1 = Vec::new();
        let mut n2 = Vec::new();
        let mut n3 = Vec::new();
        for s in 0..packets {
            let p = PacketId::new(n(1), s);
            n1.push(Event::new(n(1), EventKind::Trans { to: n(2) }, p));
            if s % 2 == 0 {
                n1.push(Event::new(n(1), EventKind::AckRecvd { to: n(2) }, p));
            }
            if s % 3 != 0 {
                n2.push(Event::new(n(2), EventKind::Recv { from: n(1) }, p));
                n2.push(Event::new(n(2), EventKind::Trans { to: n(3) }, p));
            }
            n3.push(Event::new(n(3), EventKind::Recv { from: n(2) }, p));
        }
        vec![
            LocalLog::from_events(n(1), n1),
            LocalLog::from_events(n(2), n2),
            LocalLog::from_events(n(3), n3),
        ]
    }

    #[test]
    fn incremental_equals_batch() {
        let logs = chain_logs(12);
        // Batch reference.
        let recon = Reconstructor::new(CtpVocabulary::table2());
        let merged = merge_logs(&logs);
        let batch = recon.reconstruct_log(&merged);

        // Incremental: node by node, refreshing between ingests.
        let mut inc =
            IncrementalReconstructor::new(Reconstructor::new(CtpVocabulary::table2()));
        for log in &logs {
            inc.ingest_log(log);
            inc.refresh();
        }
        let incremental = inc.reports();
        assert_eq!(batch.len(), incremental.len());
        for (b, i) in batch.iter().zip(&incremental) {
            assert_eq!(b.packet, i.packet);
            assert_eq!(b.flow, i.flow, "packet {}", b.packet);
            assert_eq!(b.path, i.path);
        }
    }

    #[test]
    fn refresh_only_touches_dirty_packets() {
        let logs = chain_logs(6);
        let mut inc =
            IncrementalReconstructor::new(Reconstructor::new(CtpVocabulary::table2()));
        inc.ingest_log(&logs[0]);
        let first = inc.refresh();
        assert_eq!(first.len(), 6, "all packets touched by node 1's log");
        assert_eq!(inc.pending(), 0);

        // A batch mentioning only packet 3.
        let p3 = PacketId::new(n(1), 3);
        inc.ingest_events([Event::new(n(2), EventKind::Recv { from: n(1) }, p3)]);
        assert_eq!(inc.pending(), 1);
        let updated = inc.refresh();
        assert_eq!(updated, vec![p3]);
    }

    #[test]
    fn flows_grow_as_evidence_arrives() {
        let p = PacketId::new(n(1), 0);
        let mut inc =
            IncrementalReconstructor::new(Reconstructor::new(CtpVocabulary::table2()));
        inc.ingest_events([Event::new(n(1), EventKind::Trans { to: n(2) }, p)]);
        inc.refresh();
        let early = inc.report(p).unwrap().flow.to_string();
        assert_eq!(early, "1-2 trans");

        inc.ingest_events([Event::new(n(3), EventKind::Recv { from: n(2) }, p)]);
        inc.refresh();
        let later = inc.report(p).unwrap().flow.to_string();
        assert_eq!(later, "1-2 trans, [1-2 recv], [2-3 trans], 2-3 recv");
    }

    #[test]
    fn packed_bytes_tracks_sixteen_byte_records() {
        let mut inc =
            IncrementalReconstructor::new(Reconstructor::new(CtpVocabulary::table2()));
        assert_eq!(inc.packed_bytes(), 0);
        let logs = chain_logs(4);
        for log in &logs {
            inc.ingest_log(log);
        }
        let events: usize = inc.events.values().map(Vec::len).sum();
        // Capacity-based accounting: at least the packed payload, and the
        // payload is exactly 16 bytes per event.
        assert!(inc.packed_bytes() >= events * 16);
    }

    #[test]
    fn empty_state_behaves() {
        let inc = IncrementalReconstructor::new(Reconstructor::new(CtpVocabulary::table2()));
        assert!(inc.is_empty());
        assert_eq!(inc.len(), 0);
        assert_eq!(inc.pending(), 0);
        assert!(inc.report(PacketId::new(n(1), 0)).is_none());
    }

    #[test]
    fn unchanged_dirty_packets_are_skipped() {
        let logs = chain_logs(4);
        let recorder = Arc::new(AtomicRecorder::new());
        let mut inc = IncrementalReconstructor::new(
            Reconstructor::new(CtpVocabulary::table2()).with_recorder(recorder.clone()),
        );
        inc.ingest_log(&logs[0]);
        inc.refresh();
        let reconstructed_after_first = recorder.counter_value(Counter::PacketsReconstructed);

        // Dirty with no new evidence: the refresh must do zero work.
        inc.mark_dirty(PacketId::new(n(1), 2));
        // mark_dirty clears the change record, so this one *is* redone —
        // but a dirty flag without any record cleared (simulating a
        // duplicate batch) is filtered. Exercise the filter directly:
        inc.dirty.insert(PacketId::new(n(1), 1));
        let updated = inc.refresh();
        assert_eq!(updated, vec![PacketId::new(n(1), 2)]);
        // Only the marked packet cost a reconstruction.
        assert_eq!(
            recorder.counter_value(Counter::PacketsReconstructed),
            reconstructed_after_first + 1
        );
    }

    #[test]
    fn reports_iterate_in_packet_id_order_regardless_of_ingestion_order() {
        let mut inc =
            IncrementalReconstructor::new(Reconstructor::new(CtpVocabulary::table2()));
        // Ingest packets in a scrambled order, across two origins.
        for (origin, seq) in [(2u16, 7u32), (1, 3), (2, 0), (1, 9), (1, 0), (2, 3)] {
            let p = PacketId::new(n(origin), seq);
            inc.ingest_events([Event::new(n(origin), EventKind::Trans { to: n(5) }, p)]);
        }
        inc.refresh();
        let ids: Vec<PacketId> = inc.reports().iter().map(|r| r.packet).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "reports() must come back in packet-id order");
        assert_eq!(ids.len(), 6);
    }

    #[test]
    fn refresh_packets_only_touches_the_requested_dirty_ids() {
        let logs = chain_logs(5);
        let mut inc =
            IncrementalReconstructor::new(Reconstructor::new(CtpVocabulary::table2()));
        inc.ingest_log(&logs[0]);
        assert_eq!(inc.pending(), 5);

        let wanted = [PacketId::new(n(1), 1), PacketId::new(n(1), 3)];
        let updated = inc.refresh_packets(wanted);
        assert_eq!(updated, wanted.to_vec());
        assert_eq!(inc.pending(), 3, "unrequested packets stay dirty");
        assert!(inc.report(wanted[0]).is_some());
        assert!(inc.report(PacketId::new(n(1), 0)).is_none());

        // A later full refresh picks up the remainder.
        let rest = inc.refresh();
        assert_eq!(rest.len(), 3);
        assert_eq!(inc.pending(), 0);
    }

    #[test]
    fn refresh_packets_ignores_clean_and_unknown_ids() {
        let logs = chain_logs(3);
        let mut inc =
            IncrementalReconstructor::new(Reconstructor::new(CtpVocabulary::table2()));
        inc.ingest_log(&logs[0]);
        inc.refresh();
        // Clean packet + a packet that was never ingested + duplicates.
        let updated = inc.refresh_packets([
            PacketId::new(n(1), 0),
            PacketId::new(n(9), 42),
            PacketId::new(n(1), 0),
        ]);
        assert!(updated.is_empty());
    }

    #[test]
    fn mark_dirty_ignores_unknown_packets() {
        let mut inc =
            IncrementalReconstructor::new(Reconstructor::new(CtpVocabulary::table2()));
        inc.mark_dirty(PacketId::new(n(9), 9));
        assert_eq!(inc.pending(), 0);
        assert!(inc.refresh().is_empty());
    }
}
