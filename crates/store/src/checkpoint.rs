//! Durable checkpointing for streamed reconstruction.
//!
//! [`StoreCheckpoint`] is a [`refill_stream::StreamObserver`]: every record
//! the stream driver absorbs lands in the store as an event row, and
//! every emitted report (window closes plus the final flush) is buffered as
//! a report row and written at the next `sync` — with the events flushed
//! *first* at every durability point, so the store never holds a report
//! whose evidence was lost. After a crash, the store's event rows are
//! exactly the durable prefix of the absorbed record sequence;
//! [`StoreCheckpoint::resume_records`] replays them (in order) into a fresh
//! `StreamReconstructor` and [`StreamObserver::skip_records`] tells the
//! driver how many decoded records to drop before the hooks re-engage. The
//! resumed run's final reports are byte-identical to an uninterrupted run
//! because `StreamReconstructor::finish` converges to the batch answer over
//! the full ingested sequence regardless of poll cadence.
//!
//! One representational note: a replayed record's lane is its event's
//! `node` field. A node logs only its own events
//! (`record.node == record.entry.event.node`): every producer in this
//! workspace does, and the frame decoder refuses a record that does not,
//! so the round trip is exact.

use crate::row::ReportRow;
use crate::store::SegmentStore;
use crate::StoreError;
use eventlog::frame::NodeRecord;
use eventlog::LogEntry;
use refill::PacketReport;
use refill_stream::StreamObserver;

/// Buffered rows before an unforced flush. Durability is still governed by
/// `sync` — this only bounds block granularity between syncs.
const FLUSH_ROWS: usize = 1024;

/// A [`StreamObserver`] backed by a [`SegmentStore`].
pub struct StoreCheckpoint {
    store: SegmentStore,
    /// Event rows already durable when this checkpoint was constructed —
    /// the resume skip count, frozen at construction so this run's own
    /// appends don't shift it.
    skip: u64,
    buffer: Vec<LogEntry>,
    /// Reports emitted since the last `sync`.
    reports: Vec<ReportRow>,
}

impl StoreCheckpoint {
    /// Wrap a (freshly opened, recovered) store.
    pub fn new(store: SegmentStore) -> StoreCheckpoint {
        let skip = store.total_events();
        StoreCheckpoint {
            store,
            skip,
            buffer: Vec::new(),
            reports: Vec::new(),
        }
    }

    /// The durable records from an interrupted run, in absorption order.
    /// Replay these into a fresh `StreamReconstructor` (via `ingest`,
    /// without polling) before re-running the driver over the same input.
    pub fn resume_records(&self) -> Result<Vec<NodeRecord>, StoreError> {
        Ok(self
            .store
            .events()?
            .into_iter()
            .map(|entry| NodeRecord::new(entry.event.node, entry))
            .collect())
    }

    /// Read access to the underlying store.
    pub fn store(&self) -> &SegmentStore {
        &self.store
    }

    fn flush_events(&mut self) -> Result<(), StoreError> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let rows = std::mem::take(&mut self.buffer);
        self.store.append_events(&rows)
    }

    /// Write what is buffered, events before the reports drawn from them,
    /// and commit.
    fn commit(&mut self) -> Result<(), StoreError> {
        self.flush_events()?;
        self.store.append_reports(&self.reports)?;
        self.reports.clear();
        self.store.sync()
    }

    /// Flush, sync, and hand the store back.
    pub fn finish(mut self) -> Result<SegmentStore, StoreError> {
        self.commit()?;
        Ok(self.store)
    }
}

impl StreamObserver for StoreCheckpoint {
    fn skip_records(&self) -> u64 {
        self.skip
    }

    fn on_record(&mut self, rec: &NodeRecord) -> std::io::Result<()> {
        self.buffer.push(rec.entry);
        if self.buffer.len() >= FLUSH_ROWS {
            self.flush_events()?;
        }
        Ok(())
    }

    fn on_report(&mut self, report: &PacketReport) -> std::io::Result<()> {
        self.reports.push(ReportRow::from_report(report, None));
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        Ok(self.commit()?)
    }
}
