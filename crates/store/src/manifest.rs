//! The store manifest: `MANIFEST.json`, updated atomically.
//!
//! The manifest is the commit record — a segment file is part of the store
//! iff it is listed here. Updates go through the classic atomic-replace
//! dance: write `MANIFEST.json.tmp`, `fsync` it, `rename` over the real
//! name, `fsync` the directory. A crash at any point leaves either the old
//! or the new manifest intact, never a torn one.
//!
//! Each entry carries per-segment min/max metadata ([`SegmentStats`]), the
//! ranges the query engine prunes with. Only the file names are read back:
//! `SegmentStore::open` decodes every listed segment to recover it and
//! rebuilds the stats from those rows, so the stats a query prunes with are
//! always the rows' own, whatever a stale manifest says, and a query skips a
//! segment whose ranges cannot intersect the predicate without reading it
//! again.

use crate::row::ReportRow;
use crate::vfs::Vfs;
use crate::StoreError;
use eventlog::{LocalTs, LogEntry, PacketId};
use netsim::json::{self, ToJson};
use netsim::json_struct;
use std::path::Path;

/// The manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST.json";

/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 1;

/// Min/max pushdown metadata for one segment.
///
/// Origin and seqno ranges cover every row (event and report alike);
/// timestamp ranges cover only event rows that carry a local timestamp
/// (rows without one can never match a time predicate). `None` means "no
/// such rows in this segment".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Smallest packet-origin node id.
    pub min_origin: Option<u16>,
    /// Largest packet-origin node id.
    pub max_origin: Option<u16>,
    /// Smallest packet sequence number.
    pub min_seqno: Option<u32>,
    /// Largest packet sequence number.
    pub max_seqno: Option<u32>,
    /// Smallest real local timestamp among event rows.
    pub min_ts: Option<u64>,
    /// Largest real local timestamp among event rows.
    pub max_ts: Option<u64>,
}

json_struct!(SegmentStats {
    min_origin,
    max_origin,
    min_seqno,
    max_seqno,
    min_ts,
    max_ts
});

fn widen<T: Ord + Copy>(min: &mut Option<T>, max: &mut Option<T>, v: T) {
    *min = Some(min.map_or(v, |m| m.min(v)));
    *max = Some(max.map_or(v, |m| m.max(v)));
}

impl SegmentStats {
    /// Fold one packet identity into the ranges.
    pub fn note_packet(&mut self, packet: PacketId) {
        widen(&mut self.min_origin, &mut self.max_origin, packet.origin.0);
        widen(&mut self.min_seqno, &mut self.max_seqno, packet.seqno);
    }

    /// Fold one event row's timestamp, if it has one, into the ranges.
    pub fn note_ts(&mut self, ts: Option<LocalTs>) {
        if let Some(ts) = ts {
            widen(&mut self.min_ts, &mut self.max_ts, ts.get());
        }
    }

    /// Could a row with `origin` live in this segment?
    pub fn admits_origin(&self, origin: u16) -> bool {
        match (self.min_origin, self.max_origin) {
            (Some(lo), Some(hi)) => lo <= origin && origin <= hi,
            _ => false,
        }
    }

    /// Could a row with a seqno in `[lo, hi]` live in this segment?
    pub fn admits_seqno(&self, lo: u32, hi: u32) -> bool {
        match (self.min_seqno, self.max_seqno) {
            (Some(smin), Some(smax)) => smin <= hi && lo <= smax,
            _ => false,
        }
    }

    /// Could a timestamped event row in `[lo, hi]` live in this segment?
    pub fn admits_ts(&self, lo: u64, hi: u64) -> bool {
        match (self.min_ts, self.max_ts) {
            (Some(tmin), Some(tmax)) => tmin <= hi && lo <= tmax,
            _ => false,
        }
    }
}

/// One segment's manifest entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentMeta {
    /// File name (relative to the store directory), e.g. `seg-000003.refill`.
    pub file: String,
    /// Durable byte length — the valid-block prefix as of the last sync
    /// or recovery.
    pub committed_len: u64,
    /// Blocks in the committed prefix.
    pub blocks: u64,
    /// Event rows in the committed prefix.
    pub events: u64,
    /// Report rows in the committed prefix.
    pub reports: u64,
    /// Pushdown metadata.
    pub stats: SegmentStats,
}

impl SegmentMeta {
    /// Fold one block's rows — its `events` or its `reports` — into the
    /// counts and the pushdown ranges.
    pub fn note_block(&mut self, events: &[LogEntry], reports: &[ReportRow]) {
        self.blocks += 1;
        self.events += events.len() as u64;
        self.reports += reports.len() as u64;
        for entry in events {
            self.stats.note_packet(entry.event.packet);
            self.stats.note_ts(entry.local_ts);
        }
        for row in reports {
            self.stats.note_packet(row.report.packet);
        }
    }
}

json_struct!(SegmentMeta {
    file,
    committed_len,
    blocks,
    events,
    reports,
    stats
});

/// The manifest document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Manifest {
    /// Format version.
    pub version: u32,
    /// Listed segments, in store order.
    pub segments: Vec<SegmentMeta>,
}

json_struct!(Manifest { version, segments });

impl Manifest {
    /// Load the manifest from `dir` through `vfs`.
    ///
    /// Returns `Ok(None)` when the file is absent *or unparseable*: the
    /// block scan is the ground truth, so a damaged manifest downgrades
    /// to "adopt whatever valid segments are on disk" rather than an
    /// error.
    pub fn load_with(dir: &Path, vfs: &dyn Vfs) -> Result<Option<Manifest>, StoreError> {
        let path = dir.join(MANIFEST_FILE);
        let bytes = match vfs.read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(e)),
        };
        Ok(json::decode(&bytes).ok())
    }

    /// Persist the manifest in `dir` through `vfs`, atomically: tmp +
    /// fsync + rename + dir fsync.
    pub fn save_with(&self, dir: &Path, vfs: &dyn Vfs) -> Result<(), StoreError> {
        let bytes = self.to_json().to_pretty().map_err(|e| StoreError::Codec {
            detail: format!("encoding manifest: {e}"),
        })?;
        let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
        {
            let mut f = vfs.create(&tmp)?;
            f.write_all(bytes.as_bytes())?;
            f.sync_all()?;
        }
        vfs.rename(&tmp, &dir.join(MANIFEST_FILE))?;
        // Make the rename itself durable. Directory fsync is
        // platform-sensitive; failure to open the directory is not fatal
        // on filesystems that disallow it.
        let _ = vfs.sync_dir(dir);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::OsVfs;
    use netsim::NodeId;

    #[test]
    fn stats_ranges_widen_and_admit() {
        let mut s = SegmentStats::default();
        assert!(!s.admits_origin(3), "empty stats admit nothing");
        assert!(!s.admits_seqno(0, u32::MAX));
        assert!(!s.admits_ts(0, u64::MAX));
        s.note_packet(PacketId::new(NodeId(3), 10));
        s.note_packet(PacketId::new(NodeId(7), 2));
        s.note_ts(LocalTs::new(500));
        s.note_ts(None); // ignored
        assert!(s.admits_origin(3) && s.admits_origin(5) && s.admits_origin(7));
        assert!(!s.admits_origin(2) && !s.admits_origin(8));
        assert!(s.admits_seqno(0, 2) && s.admits_seqno(10, 99) && s.admits_seqno(5, 6));
        assert!(!s.admits_seqno(11, 99) && !s.admits_seqno(0, 1));
        assert!(s.admits_ts(500, 500) && !s.admits_ts(0, 499) && !s.admits_ts(501, u64::MAX));
        assert_eq!(s.min_ts, Some(500), "a row without a timestamp must not widen the range");
        assert_eq!(s.max_ts, Some(500));
    }

    #[test]
    fn save_load_roundtrip_and_garbage_downgrades() {
        let dir = std::env::temp_dir().join(format!("refill-store-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = Manifest {
            version: MANIFEST_VERSION,
            segments: vec![SegmentMeta {
                file: "seg-000001.refill".into(),
                committed_len: 36,
                blocks: 1,
                events: 1,
                reports: 0,
                stats: SegmentStats::default(),
            }],
        };
        m.save_with(&dir, &OsVfs).unwrap();
        assert_eq!(Manifest::load_with(&dir, &OsVfs).unwrap(), Some(m));
        std::fs::write(dir.join(MANIFEST_FILE), b"{not json").unwrap();
        assert_eq!(Manifest::load_with(&dir, &OsVfs).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
