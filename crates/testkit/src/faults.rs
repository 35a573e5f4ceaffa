//! The fault injectors: frame-stream mangling, failing/stalling readers,
//! and a fault-injecting [`Vfs`] for the store.
//!
//! Every injector is driven by a [`Rng`] stream forked from the plan
//! seed, so the exact bytes corrupted, the exact read that errors, and the
//! exact write that tears are pure functions of `(seed, spec)`.

use crate::plan::FaultSpec;
use eventlog::frame::{encode_record, NodeRecord};
use netsim::Rng;
use refill_store::segment::{BLOCK_MAGIC, BLOCK_HEADER_LEN};
use refill_store::{OsVfs, Vfs, VfsFile};
use std::io::{self, Read};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// What the frame mangler did to a stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MangleReport {
    /// Frames hit by an XOR burst.
    pub corrupted_frames: u64,
    /// Garbage runs inserted between frames.
    pub garbage_runs: u64,
    /// 1 if the tail was truncated mid-record.
    pub truncated: u64,
}

impl MangleReport {
    /// Total injected frame-level faults.
    pub fn injected(&self) -> u64 {
        self.corrupted_frames + self.garbage_runs + self.truncated
    }
}

/// XOR a 1–4 byte burst with a nonzero mask into `bytes` at a seeded
/// offset. `bytes` must not be empty.
pub fn xor_burst(rng: &mut Rng, bytes: &mut [u8]) {
    let burst = rng.gen_range(1..5).min(bytes.len());
    let at = rng.gen_range(0..bytes.len() - burst + 1);
    let mut mask = [0u8; 4];
    while mask.iter().all(|&m| m == 0) {
        let bits = rng.next_u64();
        for (i, m) in mask.iter_mut().enumerate().take(burst) {
            *m = (bits >> (8 * i)) as u8;
        }
    }
    for i in 0..burst {
        bytes[at + i] ^= mask[i];
    }
}

/// Append a run of 1–23 seeded garbage bytes to `out`.
pub fn garbage_run(rng: &mut Rng, out: &mut Vec<u8>) {
    for _ in 0..rng.gen_range(1..24) {
        out.push((rng.next_u64() & 0xFF) as u8);
    }
}

/// Cut a seeded 1–24 bytes (at most everything) off the end of `bytes`,
/// which must not be empty.
pub fn truncate_tail(rng: &mut Rng, bytes: &mut Vec<u8>) {
    let cut = rng.gen_range(1..24.min(bytes.len()) + 1);
    bytes.truncate(bytes.len() - cut);
}

/// Encode `records` as a frame stream with seeded faults applied.
///
/// Corruption is an [`xor_burst`] confined to one frame. CRC-32 detects
/// every burst of ≤ 32 bits inside the checked region, and a burst on the
/// magic or CRC bytes makes the frame undecodable outright — so a
/// corrupted frame is always *lost*, never silently altered. A
/// [`garbage_run`] lands between frames; [`truncate_tail`] cuts the stream
/// mid-record (at least one byte, at most one whole trailing frame's
/// worth).
pub fn mangle_frames(
    rng: &mut Rng,
    spec: &FaultSpec,
    records: &[NodeRecord],
) -> (Vec<u8>, MangleReport) {
    let mut out = Vec::new();
    let mut report = MangleReport::default();
    for rec in records {
        if spec.frame_garbage > 0.0 && rng.gen_bool(spec.frame_garbage) {
            garbage_run(rng, &mut out);
            report.garbage_runs += 1;
        }
        let start = out.len();
        encode_record(rec, &mut out);
        if spec.frame_corrupt > 0.0 && rng.gen_bool(spec.frame_corrupt) {
            xor_burst(rng, &mut out[start..]);
            report.corrupted_frames += 1;
        }
    }
    if !out.is_empty() && spec.frame_truncate > 0.0 && rng.gen_bool(spec.frame_truncate) {
        truncate_tail(rng, &mut out);
        report.truncated = 1;
    }
    (out, report)
}

/// A reader that serves `data[..fail_at]` (in seeded chunk sizes when
/// `stall` is set) and then returns an injected IO error — or EOF when
/// `fail_at == data.len()` and `fail` is false.
pub struct FaultyReader {
    data: Vec<u8>,
    pos: usize,
    fail_at: usize,
    fail: bool,
    stall: bool,
    rng: Rng,
}

impl FaultyReader {
    /// A clean reader over `data` (optionally stalling: 1–7 byte reads).
    pub fn clean(data: Vec<u8>, stall: bool, rng: Rng) -> FaultyReader {
        let fail_at = data.len();
        FaultyReader {
            data,
            pos: 0,
            fail_at,
            fail: false,
            stall,
            rng,
        }
    }

    /// A reader that delivers exactly `data[..fail_at]` then errors.
    pub fn failing(data: Vec<u8>, fail_at: usize, stall: bool, rng: Rng) -> FaultyReader {
        let fail_at = fail_at.min(data.len());
        FaultyReader {
            data,
            pos: 0,
            fail_at,
            fail: true,
            stall,
            rng,
        }
    }
}

impl Read for FaultyReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos >= self.fail_at {
            if self.fail {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected reader fault",
                ));
            }
            return Ok(0);
        }
        let remaining = self.fail_at - self.pos;
        let want = if self.stall {
            self.rng.gen_range(1..8)
        } else {
            buf.len()
        };
        let n = want.min(buf.len()).min(remaining);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// How a [`FaultyVfs`] decides to inject.
enum Trigger {
    /// Seeded per-operation probabilities.
    Probabilistic {
        rng: Rng,
        write: f64,
        sync: f64,
        rename: f64,
    },
    /// Fail exactly the `n`th mutating operation (write, fsync or rename,
    /// counted together in call order), once.
    AtMutatingOp(u64),
    /// Fail exactly the `n`th write of a *reports* block, once.
    AtReportsWrite(u64),
}

struct VfsState {
    trigger: Trigger,
    mutating_ops: u64,
    reports_writes: u64,
    injected: u64,
    fired: bool,
    journal: Vec<String>,
}

impl VfsState {
    fn once(&mut self, matched: bool) -> bool {
        if matched && !self.fired {
            self.fired = true;
            true
        } else {
            false
        }
    }

    fn should_fail_write(&mut self, buf: &[u8]) -> bool {
        let op = self.mutating_ops;
        self.mutating_ops += 1;
        let is_reports = buf.len() > BLOCK_HEADER_LEN
            && buf[..2] == BLOCK_MAGIC
            && buf[3] == 1;
        let report_idx = self.reports_writes;
        if is_reports {
            self.reports_writes += 1;
        }
        let hit = match &mut self.trigger {
            Trigger::Probabilistic { rng, write, .. } => {
                let p = *write;
                rng.gen_bool(p)
            }
            Trigger::AtMutatingOp(n) => {
                let n = *n;
                self.once(op == n)
            }
            Trigger::AtReportsWrite(n) => {
                let n = *n;
                self.once(is_reports && report_idx == n)
            }
        };
        if hit {
            self.injected += 1;
        }
        hit
    }

    fn should_fail(&mut self, kind: &str) -> bool {
        let op = self.mutating_ops;
        self.mutating_ops += 1;
        let hit = match &mut self.trigger {
            Trigger::Probabilistic {
                rng, sync, rename, ..
            } => {
                let p = if kind == "rename" { *rename } else { *sync };
                rng.gen_bool(p)
            }
            Trigger::AtMutatingOp(n) => {
                let n = *n;
                self.once(op == n)
            }
            Trigger::AtReportsWrite(_) => false,
        };
        if hit {
            self.injected += 1;
        }
        hit
    }
}

/// A [`Vfs`] that interposes seeded faults over [`OsVfs`]: torn writes (a
/// strict prefix of the buffer lands, then an error surfaces), fsync
/// failures, and rename failures. Every operation is journaled so tests
/// can assert ordering disciplines (e.g. events-before-reports).
pub struct FaultyVfs {
    inner: OsVfs,
    state: Arc<Mutex<VfsState>>,
}

impl FaultyVfs {
    fn with_trigger(trigger: Trigger) -> Arc<FaultyVfs> {
        Arc::new(FaultyVfs {
            inner: OsVfs,
            state: Arc::new(Mutex::new(VfsState {
                trigger,
                mutating_ops: 0,
                reports_writes: 0,
                injected: 0,
                fired: false,
                journal: Vec::new(),
            })),
        })
    }

    /// Seeded per-operation fault probabilities.
    pub fn probabilistic(rng: Rng, write: f64, sync: f64, rename: f64) -> Arc<FaultyVfs> {
        Self::with_trigger(Trigger::Probabilistic {
            rng,
            write,
            sync,
            rename,
        })
    }

    /// Fail exactly the `n`th mutating operation (0-based; writes, fsyncs
    /// and renames counted together), once.
    pub fn fail_at_op(n: u64) -> Arc<FaultyVfs> {
        Self::with_trigger(Trigger::AtMutatingOp(n))
    }

    /// Fail exactly the `n`th write of a reports block (0-based), once —
    /// the mid-flush injection point for the events-before-reports test.
    pub fn fail_reports_write(n: u64) -> Arc<FaultyVfs> {
        Self::with_trigger(Trigger::AtReportsWrite(n))
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.state.lock().unwrap().injected
    }

    /// Mutating operations observed so far (injected or not).
    pub fn mutating_ops(&self) -> u64 {
        self.state.lock().unwrap().mutating_ops
    }

    /// The operation journal, in call order.
    pub fn journal(&self) -> Vec<String> {
        self.state.lock().unwrap().journal.clone()
    }

    fn log(&self, entry: String) {
        self.state.lock().unwrap().journal.push(entry);
    }
}

struct FaultyFile {
    inner: Box<dyn VfsFile>,
    name: String,
    state: Arc<Mutex<VfsState>>,
}

impl VfsFile for FaultyFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut state = self.state.lock().unwrap();
        let fail = state.should_fail_write(buf);
        let kind = if buf.len() > BLOCK_HEADER_LEN && buf[..2] == BLOCK_MAGIC {
            if buf[3] == 1 { " kind=reports" } else { " kind=events" }
        } else {
            ""
        };
        if fail {
            // A torn write: a strict prefix lands, then the error.
            let torn = (buf.len() * ((state.mutating_ops as usize) % 97)) / 97;
            let torn = torn.min(buf.len().saturating_sub(1));
            state
                .journal
                .push(format!("write {}{kind} len={} TORN at {torn}", self.name, buf.len()));
            drop(state);
            self.inner.write_all(&buf[..torn])?;
            return Err(io::Error::other(format!(
                "injected torn write ({torn} of {} bytes)",
                buf.len()
            )));
        }
        state
            .journal
            .push(format!("write {}{kind} len={}", self.name, buf.len()));
        drop(state);
        self.inner.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let mut state = self.state.lock().unwrap();
        if state.should_fail("sync") {
            state.journal.push(format!("sync_data {} FAILED", self.name));
            return Err(io::Error::other("injected fdatasync failure"));
        }
        state.journal.push(format!("sync_data {}", self.name));
        drop(state);
        self.inner.sync_data()
    }

    fn sync_all(&mut self) -> io::Result<()> {
        let mut state = self.state.lock().unwrap();
        if state.should_fail("sync") {
            state.journal.push(format!("sync_all {} FAILED", self.name));
            return Err(io::Error::other("injected fsync failure"));
        }
        state.journal.push(format!("sync_all {}", self.name));
        drop(state);
        self.inner.sync_all()
    }
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("?")
        .to_string()
}

impl Vfs for FaultyVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.log(format!("create {}", file_name(path)));
        let inner = self.inner.create(path)?;
        Ok(Box::new(FaultyFile {
            inner,
            name: file_name(path),
            state: Arc::clone(&self.state),
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.log(format!("open_append {}", file_name(path)));
        let inner = self.inner.open_append(path)?;
        Ok(Box::new(FaultyFile {
            inner,
            name: file_name(path),
            state: Arc::clone(&self.state),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.read_dir(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.log(format!("remove {}", file_name(path)));
        self.inner.remove_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut state = self.state.lock().unwrap();
        if state.should_fail("rename") {
            state
                .journal
                .push(format!("rename {} -> {} FAILED", file_name(from), file_name(to)));
            return Err(io::Error::other("injected rename failure"));
        }
        state
            .journal
            .push(format!("rename {} -> {}", file_name(from), file_name(to)));
        drop(state);
        self.inner.rename(from, to)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.log(format!("truncate {} to {len}", file_name(path)));
        self.inner.truncate(path, len)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.sync_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;
    use eventlog::frame::decode_all;
    use eventlog::logger::{LocalTs, LogEntry};
    use eventlog::{Event, EventKind, PacketId};
    use netsim::NodeId;

    fn recs(n: u32) -> Vec<NodeRecord> {
        (0..n)
            .map(|i| {
                NodeRecord::new(
                    NodeId(1),
                    LogEntry {
                        event: Event::new(
                            NodeId(1),
                            EventKind::Trans { to: NodeId(2) },
                            PacketId::new(NodeId(1), i),
                        ),
                        local_ts: LocalTs::new(u64::from(i) * 100),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn mangling_is_seed_deterministic() {
        let records = recs(30);
        let spec = FaultSpec::heavy();
        let (a, ra) = mangle_frames(&mut FaultPlan::new(5, spec).lane("frames"), &spec, &records);
        let (b, rb) = mangle_frames(&mut FaultPlan::new(5, spec).lane("frames"), &spec, &records);
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        let (c, _) = mangle_frames(&mut FaultPlan::new(6, spec).lane("frames"), &spec, &records);
        assert_ne!(a, c, "different seeds mangle differently");
    }

    #[test]
    fn corruption_bursts_never_silently_alter_records() {
        // Every record decoded from a mangled stream must be one of the
        // originals: a ≤ 4-byte burst can lose a frame but never morph it.
        let records = recs(50);
        for seed in 0..50 {
            let spec = FaultSpec {
                frame_corrupt: 0.3,
                ..FaultSpec::none()
            };
            let (bytes, report) = mangle_frames(
                &mut FaultPlan::new(seed, spec).lane("frames"),
                &spec,
                &records,
            );
            let (decoded, stats) = decode_all(&bytes);
            assert_eq!(
                decoded.len() as u64 + report.corrupted_frames,
                records.len() as u64,
                "seed {seed}: each burst costs exactly its own frame"
            );
            // Adjacent corrupted frames merge into one maximal run, so the
            // run count is bounded by the burst count, never above it.
            assert!(stats.corrupt <= report.corrupted_frames, "seed {seed}");
            assert!(
                (stats.corrupt == 0) == (report.corrupted_frames == 0),
                "seed {seed}: damage is counted iff it was injected"
            );
            let mut it = records.iter();
            for d in &decoded {
                assert!(
                    it.any(|r| r == d),
                    "seed {seed}: decoded record is not an original (in order)"
                );
            }
        }
    }

    #[test]
    fn no_faults_means_identity() {
        let records = recs(10);
        let (bytes, report) = mangle_frames(&mut Rng::new(1), &FaultSpec::none(), &records);
        assert_eq!(report.injected(), 0);
        let (decoded, stats) = decode_all(&bytes);
        assert_eq!(decoded, records);
        assert_eq!(stats.corrupt, 0);
    }

    #[test]
    fn failing_reader_delivers_exact_prefix_then_errors() {
        let data: Vec<u8> = (0..=255).collect();
        let mut reader = FaultyReader::failing(data.clone(), 100, true, Rng::new(9));
        let mut got = Vec::new();
        let err = std::io::Read::read_to_end(&mut reader, &mut got).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(got, data[..100]);
    }

    #[test]
    fn faulty_vfs_fail_at_op_fires_once(){
        let dir = std::env::temp_dir().join(format!("refill-faultyvfs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let vfs = FaultyVfs::fail_at_op(1);
        let mut f = vfs.create(&dir.join("a.bin")).unwrap();
        f.write_all(b"first").unwrap(); // op 0: passes
        let err = f.write_all(b"second").unwrap_err(); // op 1: torn
        assert!(err.to_string().contains("injected torn write"));
        f.write_all(b"third").unwrap(); // fires once only
        assert_eq!(vfs.injected(), 1);
        let on_disk = std::fs::read(dir.join("a.bin")).unwrap();
        assert!(on_disk.starts_with(b"first"));
        assert!(!on_disk.windows(6).any(|w| w == b"second"), "torn write is a strict prefix");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
