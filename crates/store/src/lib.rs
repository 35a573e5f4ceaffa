//! # refill-store — a durable segment store and query engine for REFILL
//!
//! Reconstruction is expensive; its outputs are not. This crate persists
//! both halves of a run — the merged log entries (as 24-byte rows) and
//! the per-packet reports (as the reports themselves, in the JSON
//! `PacketReport` already has) — into an append-only, crash-recoverable segment store, so figures and flow
//! queries replay from disk instead of re-running the pipeline.
//!
//! The layers:
//!
//! * [`segment`] — the on-disk block codec: length-prefixed, CRC-checked
//!   blocks (the same checksum discipline as `eventlog::frame`, via the
//!   shared `eventlog::checksum` module) holding either log entries, one
//!   `eventlog::columnar::encode_row` row each, or JSON report rows.
//! * [`manifest`] — `MANIFEST.json`, updated atomically (tmp + fsync +
//!   rename + directory fsync): the list of committed segments, with each
//!   one's min/max metadata.
//! * [`store`] — [`SegmentStore`]: the write-ahead append path, recovery
//!   (scan every listed segment, truncate the torn tail at the last valid
//!   block boundary, reconcile the manifest), rolling, and compaction
//!   (k-way merge of segment runs through `eventlog::merge_runs`).
//! * [`query`] — [`Query`]/[`QueryOutput`]: predicate evaluation with
//!   segment-level pushdown over the min/max metadata recovery rebuilt.
//! * [`row`] — [`ReportRow`]: a [`refill::PacketReport`] beside its
//!   optional analysis sidecar.
//! * [`checkpoint`] — [`StoreCheckpoint`]: a
//!   [`refill_stream::StreamObserver`] so a killed `refill stream` run
//!   resumes from the store's durable prefix.
//! * [`vfs`] — the [`Vfs`]/[`VfsFile`] filesystem seam every store
//!   operation goes through: [`OsVfs`] in production, fault-injecting
//!   implementations (torn writes, fsync failures, rename failures) in
//!   the `refill-testkit` conformance harness.
//!
//! ## Durability contract
//!
//! Appends buffer in the OS; [`SegmentStore::sync`] is the commit point
//! (`fdatasync` the segment, then persist the manifest atomically). After
//! a crash, [`SegmentStore::open`] recovers the longest prefix of each
//! listed segment made of whole, CRC-valid blocks — everything synced is
//! kept, a torn tail is truncated, and unlisted files (lost races of
//! segment creation or compaction leftovers) are pruned. A segment holding
//! a block whose checksum holds but which does not decode (another format
//! version, an unknown kind, a row or a report this build does not read) is
//! refused ([`StoreError::Corrupt`] at that block) and left as found.
//! When no manifest exists at all, on-disk segments are adopted instead of
//! pruned, so a store directory survives losing its manifest.

pub mod checkpoint;
pub mod manifest;
pub mod query;
pub mod row;
pub mod segment;
pub mod store;
pub mod vfs;

pub use checkpoint::StoreCheckpoint;
pub use manifest::{Manifest, SegmentMeta, SegmentStats};
pub use query::{Query, QueryOutput, QueryStats};
pub use row::{latest_per_packet, ReportRow, Sidecar};
pub use segment::{Block, BlockKind};
pub use store::{CompactionReport, RecoveryReport, SegmentStore};
pub use vfs::{OsVfs, Vfs, VfsFile};

/// Errors the store can produce.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// A committed region failed validation — unlike a torn tail (which
    /// recovery silently truncates), this means durable data went bad.
    Corrupt {
        /// Segment file name.
        file: String,
        /// Byte offset of the failing block.
        offset: u64,
        /// What failed.
        detail: String,
    },
    /// A serialization failure (report rows or the manifest).
    Codec {
        /// What failed.
        detail: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt { file, offset, detail } => {
                write!(f, "store corruption in {file} at byte {offset}: {detail}")
            }
            StoreError::Codec { detail } => write!(f, "store codec error: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<StoreError> for std::io::Error {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(io) => io,
            other => std::io::Error::other(other.to_string()),
        }
    }
}
