//! The fault injectors: frame-stream mangling and failing/stalling readers.
//!
//! Every injector is driven by a [`Rng`] stream forked from the plan
//! seed, so the exact bytes corrupted and the exact read that errors are
//! pure functions of `(seed, spec)`.

use crate::plan::FaultSpec;
use eventlog::frame::{encode_record, NodeRecord};
use netsim::Rng;
use std::io::{self, Read};

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
}
