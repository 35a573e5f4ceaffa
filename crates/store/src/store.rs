//! The segment store: append, sync, recovery, rolling, compaction.

use crate::manifest::{Manifest, SegmentMeta, MANIFEST_VERSION};
use crate::row::{latest_per_packet, ReportRow};
use crate::segment::{self, Block};
use crate::vfs::{OsVfs, Vfs, VfsFile};
use crate::StoreError;
use eventlog::{merge_runs, LogEntry};
use netsim::fx::FxHashSet;
use refill_telemetry::{Counter, NoopRecorder, Recorder, Stage, StageTimer};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Default roll threshold: seal a segment once it crosses this many bytes.
pub const DEFAULT_ROLL_BYTES: u64 = 8 * 1024 * 1024;

/// Event rows per block when compaction rewrites a segment.
const COMPACT_EVENTS_PER_BLOCK: usize = 64 * 1024;

/// Report rows per block when compaction rewrites a segment.
const COMPACT_REPORTS_PER_BLOCK: usize = 4 * 1024;

/// What recovery found and did at open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segments in the recovered store.
    pub segments: usize,
    /// Segments whose torn tail was truncated.
    pub truncated_segments: usize,
    /// Bytes discarded from torn tails.
    pub torn_bytes: u64,
    /// Files on disk the manifest did not list, removed at open (lost
    /// races of segment creation, compaction leftovers).
    pub pruned_files: usize,
    /// Segments adopted from disk because no (valid) manifest existed.
    pub adopted_segments: usize,
    /// Listed segments whose file was missing on disk.
    pub missing_segments: usize,
    /// Total recovered event rows.
    pub events: u64,
    /// Total recovered report rows.
    pub reports: u64,
}

/// What a compaction did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Segments merged away.
    pub merged_segments: usize,
    /// Event rows in the compacted segment.
    pub events: u64,
    /// Report rows in the compacted segment (after last-wins dedup).
    pub reports: u64,
    /// Superseded report rows dropped by the dedup.
    pub dropped_reports: u64,
}

/// A durable append-only segment store for log entries and report rows.
///
/// See the crate docs for the durability contract. All reads go through
/// the committed metadata, so a `SegmentStore` value is always consistent
/// with what recovery would reconstruct from its directory.
pub struct SegmentStore {
    dir: PathBuf,
    segments: Vec<SegmentMeta>,
    /// Append handle for the last segment, opened lazily.
    active: Option<Box<dyn VfsFile>>,
    next_id: u64,
    roll_bytes: u64,
    recorder: Arc<dyn Recorder>,
    /// The filesystem seam every operation goes through ([`OsVfs`] in
    /// production; fault injectors in tests).
    vfs: Arc<dyn Vfs>,
}

fn is_segment_file(name: &str) -> bool {
    name.starts_with("seg-") && name.ends_with(".refill")
}

fn segment_id(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?.strip_suffix(".refill")?.parse().ok()
}

impl SegmentStore {
    /// Open (or create) the store at `dir` on the real filesystem, with no
    /// telemetry, running recovery.
    pub fn open(dir: impl AsRef<Path>) -> Result<(SegmentStore, RecoveryReport), StoreError> {
        Self::open_with_vfs(dir, Arc::new(OsVfs), Arc::new(NoopRecorder))
    }

    /// [`SegmentStore::open`] through an explicit [`Vfs`] — the seam a
    /// fault-injecting filesystem interposes on — recording under `recorder`.
    pub fn open_with_vfs(
        dir: impl AsRef<Path>,
        vfs: Arc<dyn Vfs>,
        recorder: Arc<dyn Recorder>,
    ) -> Result<(SegmentStore, RecoveryReport), StoreError> {
        let dir = dir.as_ref().to_path_buf();
        vfs.create_dir_all(&dir)?;
        let span = StageTimer::start(&*recorder, Stage::StoreRecover);
        let manifest = Manifest::load_with(&dir, &*vfs)?;

        let mut on_disk: Vec<String> = Vec::new();
        for name in vfs.read_dir(&dir)? {
            if is_segment_file(&name) {
                on_disk.push(name);
            }
        }
        on_disk.sort();

        let mut report = RecoveryReport::default();
        // The manifest is the commit record: with one present, unlisted
        // files are un-committed leftovers and go away; without one, the
        // blocks on disk are all we have, so adopt them.
        let scan_list: Vec<String> = match &manifest {
            Some(m) => {
                let listed: FxHashSet<&str> =
                    m.segments.iter().map(|s| s.file.as_str()).collect();
                for name in &on_disk {
                    if !listed.contains(name.as_str()) {
                        vfs.remove_file(&dir.join(name))?;
                        report.pruned_files += 1;
                    }
                }
                let present: FxHashSet<&str> =
                    on_disk.iter().map(|s| s.as_str()).collect();
                let mut list = Vec::new();
                for meta in &m.segments {
                    if present.contains(meta.file.as_str()) {
                        list.push(meta.file.clone());
                    } else {
                        report.missing_segments += 1;
                    }
                }
                list
            }
            None => {
                report.adopted_segments = on_disk.len();
                on_disk.clone()
            }
        };

        let mut segments = Vec::with_capacity(scan_list.len());
        for name in &scan_list {
            let meta = scan_segment(&dir, name, &*vfs, &*recorder, &mut report)?;
            report.events += meta.events;
            report.reports += meta.reports;
            segments.push(meta);
        }
        report.segments = segments.len();
        // The span borrows `recorder`, which the store takes over below.
        drop(span);

        let next_id = segments
            .iter()
            .filter_map(|m| segment_id(&m.file))
            .max()
            .map_or(1, |m| m + 1);
        let store = SegmentStore {
            dir,
            segments,
            active: None,
            next_id,
            roll_bytes: DEFAULT_ROLL_BYTES,
            recorder,
            vfs,
        };
        store.save_manifest()?;
        Ok((store, report))
    }

    /// Override the roll threshold (tests use tiny segments).
    pub fn with_roll_bytes(mut self, roll_bytes: u64) -> SegmentStore {
        self.roll_bytes = roll_bytes.max(1);
        self
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The committed segments, in store order.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.segments
    }

    /// Total event rows across all segments.
    pub fn total_events(&self) -> u64 {
        self.segments.iter().map(|m| m.events).sum()
    }

    /// Total report rows across all segments (before dedup).
    pub fn total_reports(&self) -> u64 {
        self.segments.iter().map(|m| m.reports).sum()
    }

    fn save_manifest(&self) -> Result<(), StoreError> {
        Manifest {
            version: MANIFEST_VERSION,
            segments: self.segments.clone(),
        }
        .save_with(&self.dir, &*self.vfs)
    }

    fn ensure_active(&mut self) -> Result<(), StoreError> {
        if self.active.is_some() {
            return Ok(());
        }
        let reuse = self
            .segments
            .last()
            .is_some_and(|m| m.committed_len < self.roll_bytes);
        if !reuse {
            let name = format!("seg-{:06}.refill", self.next_id);
            self.next_id += 1;
            self.vfs.create(&self.dir.join(&name))?.sync_all()?;
            self.segments.push(SegmentMeta {
                file: name,
                ..SegmentMeta::default()
            });
            // List the file before any data lands in it: recovery prunes
            // unlisted files, so an unlisted-but-written segment would be
            // thrown away by the next open.
            self.save_manifest()?;
        }
        let meta = self.segments.last().expect("ensure_active pushed a segment");
        let file = self.vfs.open_append(&self.dir.join(&meta.file))?;
        self.active = Some(file);
        Ok(())
    }

    /// Write one encoded block, holding `events` or `reports`.
    fn append_block(
        &mut self,
        bytes: &[u8],
        events: &[LogEntry],
        reports: &[ReportRow],
    ) -> Result<(), StoreError> {
        self.ensure_active()?;
        self.active
            .as_mut()
            .expect("ensure_active opened the handle")
            .write_all(bytes)?;
        let meta = self.segments.last_mut().expect("active segment exists");
        meta.committed_len += bytes.len() as u64;
        meta.note_block(events, reports);
        Ok(())
    }

    fn roll_if_needed(&mut self) -> Result<(), StoreError> {
        let len = self.segments.last().map_or(0, |m| m.committed_len);
        if len >= self.roll_bytes {
            self.sync()?;
            // Dropping the handle seals the segment; the next append sees
            // it over the threshold and starts a fresh one.
            self.active = None;
        }
        Ok(())
    }

    /// Append one events block.
    pub fn append_events(&mut self, rows: &[LogEntry]) -> Result<(), StoreError> {
        if rows.is_empty() {
            return Ok(());
        }
        let recorder = Arc::clone(&self.recorder);
        let _span = StageTimer::start(&*recorder, Stage::StoreAppend);
        self.append_block(&segment::encode_events(rows), rows, &[])?;
        self.recorder.add(Counter::StoreEventsAppended, rows.len() as u64);
        self.roll_if_needed()
    }

    /// Append one reports block.
    pub fn append_reports(&mut self, rows: &[ReportRow]) -> Result<(), StoreError> {
        if rows.is_empty() {
            return Ok(());
        }
        let recorder = Arc::clone(&self.recorder);
        let _span = StageTimer::start(&*recorder, Stage::StoreAppend);
        self.append_block(&segment::encode_reports(rows)?, &[], rows)?;
        self.recorder.add(Counter::StoreReportsAppended, rows.len() as u64);
        self.roll_if_needed()
    }

    /// The commit point: `fdatasync` the active segment, then persist the
    /// manifest atomically. Everything appended before a successful sync
    /// survives a crash.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if let Some(f) = &mut self.active {
            f.sync_data()?;
        }
        self.save_manifest()
    }

    /// Decode one segment's committed blocks.
    ///
    /// Unlike recovery (which treats invalid bytes as a torn tail), a
    /// decode failure *inside the committed region* is real corruption and
    /// surfaces as [`StoreError::Corrupt`] with the failing offset.
    pub fn read_segment(&self, meta: &SegmentMeta) -> Result<Vec<Block>, StoreError> {
        let bytes = self.vfs.read(&self.dir.join(&meta.file))?;
        if (bytes.len() as u64) < meta.committed_len {
            return Err(StoreError::Corrupt {
                file: meta.file.clone(),
                offset: bytes.len() as u64,
                detail: format!(
                    "segment shorter ({} B) than its committed length ({} B)",
                    bytes.len(),
                    meta.committed_len
                ),
            });
        }
        let committed = &bytes[..meta.committed_len as usize];
        let (blocks, valid) = segment::scan_blocks(&meta.file, committed)?;
        if (valid as u64) < meta.committed_len {
            return Err(StoreError::Corrupt {
                file: meta.file.clone(),
                offset: valid as u64,
                detail: "invalid block inside the committed region".to_string(),
            });
        }
        Ok(blocks)
    }

    /// All event rows, in append order across segments.
    pub fn events(&self) -> Result<Vec<LogEntry>, StoreError> {
        let mut out = Vec::with_capacity(self.total_events() as usize);
        for meta in &self.segments {
            for block in self.read_segment(meta)? {
                if let Block::Events(mut rows) = block {
                    out.append(&mut rows);
                }
            }
        }
        Ok(out)
    }

    /// All report rows, in append order across segments (duplicates kept).
    pub fn reports(&self) -> Result<Vec<ReportRow>, StoreError> {
        let mut out = Vec::with_capacity(self.total_reports() as usize);
        for meta in &self.segments {
            for block in self.read_segment(meta)? {
                if let Block::Reports(mut rows) = block {
                    out.append(&mut rows);
                }
            }
        }
        Ok(out)
    }

    /// The latest report per packet, sorted by packet id
    /// ([`latest_per_packet`]).
    pub fn latest_reports(&self) -> Result<Vec<ReportRow>, StoreError> {
        Ok(latest_per_packet(self.reports()?))
    }

    /// Merge every segment into one: event runs go through the log merge's
    /// loser tree (`eventlog::merge_runs`), reports collapse to their
    /// latest version per packet. Query results are unchanged — the event
    /// multiset and the latest-report set are both preserved exactly.
    pub fn compact(&mut self) -> Result<CompactionReport, StoreError> {
        self.sync()?;
        self.active = None;

        let mut runs: Vec<Vec<LogEntry>> = Vec::new();
        let mut all_reports: Vec<ReportRow> = Vec::new();
        for meta in &self.segments {
            let mut run = Vec::new();
            for block in self.read_segment(meta)? {
                match block {
                    Block::Events(mut rows) => run.append(&mut rows),
                    Block::Reports(mut rows) => all_reports.append(&mut rows),
                }
            }
            runs.push(run);
        }
        let run_refs: Vec<&[LogEntry]> = runs.iter().map(Vec::as_slice).collect();
        let merged = merge_runs(&run_refs);

        let total_reports = all_reports.len();
        let reports = latest_per_packet(all_reports);

        let old: Vec<String> = self.segments.iter().map(|m| m.file.clone()).collect();
        let name = format!("seg-{:06}.refill", self.next_id);
        self.next_id += 1;

        let mut meta = SegmentMeta {
            file: name.clone(),
            ..SegmentMeta::default()
        };
        let mut out = Vec::new();
        for chunk in merged.chunks(COMPACT_EVENTS_PER_BLOCK) {
            out.extend_from_slice(&segment::encode_events(chunk));
            meta.note_block(chunk, &[]);
        }
        for chunk in reports.chunks(COMPACT_REPORTS_PER_BLOCK) {
            out.extend_from_slice(&segment::encode_reports(chunk)?);
            meta.note_block(&[], chunk);
        }
        meta.committed_len = out.len() as u64;

        // Write the new segment fully and durably, *then* swing the
        // manifest, *then* delete the merged files. A crash in between
        // leaves either the old store (new file unlisted → pruned at next
        // open) or the new one (old files unlisted → pruned).
        {
            let mut f = self.vfs.create(&self.dir.join(&name))?;
            f.write_all(&out)?;
            f.sync_all()?;
        }
        self.segments = vec![meta];
        self.save_manifest()?;
        for file in &old {
            let _ = self.vfs.remove_file(&self.dir.join(file));
        }
        Ok(CompactionReport {
            merged_segments: old.len(),
            events: merged.len() as u64,
            reports: reports.len() as u64,
            dropped_reports: (total_reports - reports.len()) as u64,
        })
    }
}

fn scan_segment(
    dir: &Path,
    name: &str,
    vfs: &dyn Vfs,
    recorder: &dyn Recorder,
    report: &mut RecoveryReport,
) -> Result<SegmentMeta, StoreError> {
    let path = dir.join(name);
    let bytes = vfs.read(&path)?;
    let (blocks, valid) = segment::scan_blocks(name, &bytes)?;
    if valid < bytes.len() {
        let torn = (bytes.len() - valid) as u64;
        report.torn_bytes += torn;
        report.truncated_segments += 1;
        recorder.add(Counter::StoreTornBytes, torn);
        vfs.truncate(&path, valid as u64)?;
    }
    let mut meta = SegmentMeta {
        file: name.to_string(),
        committed_len: valid as u64,
        ..SegmentMeta::default()
    };
    for block in &blocks {
        match block {
            Block::Events(rows) => meta.note_block(rows, &[]),
            Block::Reports(rows) => meta.note_block(&[], rows),
        }
    }
    Ok(meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventlog::{Event, EventKind, LocalTs};
    use netsim::NodeId;
    use std::path::PathBuf;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!(
                "refill-store-{tag}-{}-{:x}",
                std::process::id(),
                &dir_nonce()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn dir_nonce() -> u64 {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        N.fetch_add(1, Ordering::Relaxed)
    }

    fn rows(origin: u16, n: u32) -> Vec<LogEntry> {
        (0..n)
            .map(|i| {
                let p = eventlog::PacketId::new(NodeId(origin), i);
                LogEntry {
                    event: Event::new(NodeId(origin), EventKind::Origin, p),
                    local_ts: if i % 4 == 0 {
                        None
                    } else {
                        LocalTs::new(u64::from(i) * 100)
                    },
                }
            })
            .collect()
    }

    #[test]
    fn append_sync_reopen_roundtrip() {
        let tmp = TempDir::new("roundtrip");
        let all = rows(3, 20);
        {
            let (mut store, rep) = SegmentStore::open(&tmp.0).unwrap();
            assert_eq!(rep, RecoveryReport::default());
            store.append_events(&all[..12]).unwrap();
            store.append_events(&all[12..]).unwrap();
            store.sync().unwrap();
        }
        let (store, rep) = SegmentStore::open(&tmp.0).unwrap();
        assert_eq!(rep.events, 20);
        assert_eq!(rep.torn_bytes, 0);
        assert_eq!(store.events().unwrap(), all);
    }

    #[test]
    fn rolling_splits_segments_and_keeps_order() {
        let tmp = TempDir::new("rolling");
        let all = rows(5, 40);
        {
            let (store, _) = SegmentStore::open(&tmp.0).unwrap();
            let mut store = store.with_roll_bytes(256);
            for chunk in all.chunks(8) {
                store.append_events(chunk).unwrap();
            }
            store.sync().unwrap();
            assert!(store.segments().len() > 1, "tiny roll threshold must split");
        }
        let (store, rep) = SegmentStore::open(&tmp.0).unwrap();
        assert!(rep.segments > 1);
        assert_eq!(store.events().unwrap(), all);
    }

    #[test]
    fn unlisted_files_are_pruned_and_lost_manifest_adopts() {
        let tmp = TempDir::new("prune-adopt");
        let all = rows(2, 10);
        {
            let (mut store, _) = SegmentStore::open(&tmp.0).unwrap();
            store.append_events(&all).unwrap();
            store.sync().unwrap();
        }
        // An unlisted file (e.g. a crashed compaction's output) is pruned.
        std::fs::write(tmp.0.join("seg-009999.refill"), segment::encode_events(&rows(9, 3)))
            .unwrap();
        let (store, rep) = SegmentStore::open(&tmp.0).unwrap();
        assert_eq!(rep.pruned_files, 1);
        assert_eq!(store.events().unwrap(), all);
        assert!(!tmp.0.join("seg-009999.refill").exists());
        // Without a manifest, on-disk segments are adopted instead.
        std::fs::remove_file(tmp.0.join(crate::manifest::MANIFEST_FILE)).unwrap();
        let (store, rep) = SegmentStore::open(&tmp.0).unwrap();
        assert_eq!(rep.adopted_segments, 1);
        assert_eq!(store.events().unwrap(), all);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let tmp = TempDir::new("torn");
        let all = rows(4, 16);
        {
            let (mut store, _) = SegmentStore::open(&tmp.0).unwrap();
            store.append_events(&all[..8]).unwrap();
            store.sync().unwrap();
        }
        // Simulate a crash mid-append: garbage after the valid prefix.
        let seg = tmp.0.join("seg-000001.refill");
        let mut bytes = std::fs::read(&seg).unwrap();
        let valid = bytes.len();
        bytes.extend_from_slice(&segment::encode_events(&all[8..])[..10]);
        std::fs::write(&seg, &bytes).unwrap();

        let (mut store, rep) = SegmentStore::open(&tmp.0).unwrap();
        assert_eq!(rep.truncated_segments, 1);
        assert_eq!(rep.torn_bytes, 10);
        assert_eq!(std::fs::metadata(&seg).unwrap().len() as usize, valid);
        assert_eq!(store.events().unwrap(), all[..8]);
        // The store keeps working after recovery.
        store.append_events(&all[8..]).unwrap();
        store.sync().unwrap();
        assert_eq!(store.events().unwrap(), all);
    }

    /// Apply `edit` to the checksummed bytes of each block of `seg` —
    /// version, kind, length, payload — given the block's index, and re-seal
    /// every checksum: whole, valid blocks holding whatever `edit` left.
    /// Returns the new file and each block's offset.
    fn reseal(seg: &Path, mut edit: impl FnMut(usize, &mut [u8])) -> (Vec<u8>, Vec<u64>) {
        let mut bytes = std::fs::read(seg).unwrap();
        let mut offsets = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            let len = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap()) as usize;
            let crc_at = at + segment::BLOCK_HEADER_LEN + len;
            edit(offsets.len(), &mut bytes[at + 2..crc_at]);
            offsets.push(at as u64);
            let crc = eventlog::checksum::Crc32::new().update(&bytes[at + 2..crc_at]).finish();
            bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
            at = crc_at + segment::BLOCK_CRC_LEN;
        }
        std::fs::write(seg, &bytes).unwrap();
        (bytes, offsets)
    }

    /// Where `reseal`'s `edit` finds row `row`'s byte `at` of an events block.
    fn row_byte(row: usize, at: usize) -> usize {
        6 + row * eventlog::columnar::ROW_LEN + at
    }

    /// Two opens of the store at `dir` in a row are refused as `Corrupt` in
    /// its first segment at `offset`, with a detail starting `detail`, and
    /// neither touches the file.
    fn assert_refused(dir: &Path, bytes: &[u8], offset: u64, detail: &str) {
        let seg = dir.join("seg-000001.refill");
        for attempt in 0..2 {
            match SegmentStore::open(dir).map(|_| ()).unwrap_err() {
                StoreError::Corrupt {
                    file,
                    offset: at,
                    detail: found,
                } => {
                    assert_eq!((file.as_str(), at), ("seg-000001.refill", offset));
                    assert!(found.starts_with(detail), "open {attempt}: {found}");
                }
                other => panic!("open {attempt}: expected Corrupt, got {other}"),
            }
            assert_eq!(std::fs::read(&seg).unwrap(), bytes, "open {attempt} touched the file");
        }
    }

    /// A store written by a build with another `BLOCK_VERSION` used to read
    /// as one torn tail from byte 0 and be truncated to nothing on open.
    #[test]
    fn another_format_version_is_refused_and_left_untouched() {
        let tmp = TempDir::new("other-version");
        {
            let (mut store, _) = SegmentStore::open(&tmp.0).unwrap();
            store.append_events(&rows(4, 8)).unwrap();
            store.append_events(&rows(5, 8)).unwrap();
            store.sync().unwrap();
        }
        let (bytes, _) = reseal(&tmp.0.join("seg-000001.refill"), |_, block| block[0] = 2);
        let detail = format!(
            "unsupported block version 2 (this build reads {})",
            segment::BLOCK_VERSION
        );
        assert_refused(&tmp.0, &bytes, 0, &detail);
    }

    /// A checksummed row with kind code 12 used to load at open and panic
    /// when `StoreCheckpoint::resume_records` unpacked it.
    #[test]
    fn an_unknown_kind_code_is_refused_at_open() {
        let tmp = TempDir::new("kind-code");
        {
            let (mut store, _) = SegmentStore::open(&tmp.0).unwrap();
            store.append_events(&rows(4, 8)).unwrap();
            store.append_events(&rows(5, 8)).unwrap();
            store.sync().unwrap();
        }
        let seg = tmp.0.join("seg-000001.refill");
        let (bytes, offsets) = reseal(&seg, |i, block| {
            if i == 1 {
                block[row_byte(2, 6)] = 12;
            }
        });
        assert_refused(&tmp.0, &bytes, offsets[1], "event row 2 is no row this build writes");
    }

    /// A checksummed row with a non-zero reserved half used to load as the
    /// row without it.
    #[test]
    fn a_row_no_build_writes_is_refused_at_open() {
        let tmp = TempDir::new("spill");
        {
            let (mut store, _) = SegmentStore::open(&tmp.0).unwrap();
            store.append_events(&rows(4, 8)).unwrap();
            store.sync().unwrap();
        }
        let seg = tmp.0.join("seg-000001.refill");
        let (bytes, _) = reseal(&seg, |_, block| block[row_byte(0, 15)] = 1);
        assert_refused(&tmp.0, &bytes, 0, "event row 0 is no row this build writes");
    }

    /// A checksummed report block whose JSON does not parse used to read as
    /// a torn tail: open truncated the segment there, erasing it and every
    /// block after it.
    #[test]
    fn a_report_block_that_does_not_parse_is_refused_not_truncated() {
        let tmp = TempDir::new("report-json");
        let recon = refill::Reconstructor::new(refill::CtpVocabulary::table2());
        let reports: Vec<ReportRow> = rows(4, 3)
            .iter()
            .map(|e| {
                let report = recon.reconstruct_packet(e.event.packet, &[e.event]);
                ReportRow::from_report(&report, None)
            })
            .collect();
        {
            let (mut store, _) = SegmentStore::open(&tmp.0).unwrap();
            store.append_events(&rows(4, 3)).unwrap();
            store.append_reports(&reports).unwrap();
            store.append_events(&rows(5, 8)).unwrap();
            store.sync().unwrap();
        }
        let seg = tmp.0.join("seg-000001.refill");
        let (bytes, offsets) = reseal(&seg, |i, block| {
            if i == 1 {
                assert_eq!(block[6], b'[');
                block[6] = b'{';
            }
        });
        assert_eq!(offsets.len(), 3);
        assert_refused(&tmp.0, &bytes, offsets[1], "report rows do not decode: ");
    }

    #[test]
    fn compaction_preserves_events_and_latest_reports() {
        let tmp = TempDir::new("compact");
        let (store, _) = SegmentStore::open(&tmp.0).unwrap();
        let mut store = store.with_roll_bytes(200);
        let a = rows(1, 10);
        let b = rows(2, 10);
        store.append_events(&a).unwrap();
        store.append_events(&b).unwrap();
        store.sync().unwrap();
        assert!(store.segments().len() > 1);
        let mut before_events = store.events().unwrap();
        let rep = store.compact().unwrap();
        assert!(rep.merged_segments > 1);
        assert_eq!(store.segments().len(), 1);
        let mut after_events = store.events().unwrap();
        // The merge is multiset-preserving; compare sorted.
        before_events.sort_by_key(eventlog::encode_row);
        after_events.sort_by_key(eventlog::encode_row);
        assert_eq!(before_events, after_events);
        // Reopen sees exactly the compacted store.
        drop(store);
        let (store, rep) = SegmentStore::open(&tmp.0).unwrap();
        assert_eq!(rep.segments, 1);
        assert_eq!(rep.events, 20);
        assert_eq!(store.events().unwrap().len(), 20);
    }
}
