//! Wire frames: the length-prefixed, checksummed record format the
//! streaming ingest path speaks.
//!
//! In the deployment story, nodes upload their logs to the base station
//! over the same lossy serial/radio links the paper describes, so the
//! on-wire format must assume truncation, bit rot, and mid-stream joins.
//! Each [`NodeRecord`] travels in one self-delimiting frame:
//!
//! ```text
//! +--------+---------+----------+-----------------+---------+
//! | magic  | version | len (LE) | payload         | crc32   |
//! | 2 B    | 1 B     | 2 B      | len B           | 4 B     |
//! +--------+---------+----------+-----------------+---------+
//! ```
//!
//! The CRC-32 (IEEE) covers version, length, and payload, so a corrupted
//! length cannot silently mis-frame the stream. [`FrameDecoder`] is
//! *resynchronizing*: on any failure — garbage bytes, a bad checksum, an
//! unknown version, an undecodable payload — it scans forward to the next
//! magic sequence and keeps going, counting each maximal run of
//! undecodable bytes as one corrupt frame instead of aborting the stream.
//!
//! The payload is a fixed hand-rolled little-endian encoding of one log
//! record (22 bytes with a timestamp, 14 without) — no JSON on the wire,
//! matching the byte-budgeted links it models. A timestamp of `u64::MAX`
//! is reserved ([`LocalTs`]), and a record's lane is its event's node: a
//! frame breaking either is malformed.
//!
//! The same bytes are the one log file format: `refill simulate` writes a
//! campaign's upload stream as frames, `refill stream` feeds them to the
//! online path as they are, and every batch command reads them back into
//! per-node logs with [`read_logs`].

use crate::event::{Event, EventKind, PacketId};
use crate::logger::{LocalLog, LocalTs, LogEntry};
use netsim::NodeId;
use std::io::{self, Read};

/// Frame delimiter bytes.
pub const FRAME_MAGIC: [u8; 2] = [0xEF, 0x17];

/// Current frame format version.
pub const FRAME_VERSION: u8 = 1;

/// Bytes before the payload: magic (2) + version (1) + length (2).
pub const FRAME_HEADER_LEN: usize = 5;

/// Trailing checksum bytes.
pub const FRAME_CRC_LEN: usize = 4;

/// Upper bound on a sane payload length; a larger claimed length is
/// treated as corruption rather than buffered forever.
pub const MAX_FRAME_PAYLOAD: usize = 64;

/// One node's log record in transit: the lane it belongs to plus the
/// entry itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRecord {
    /// The node whose log this record came from (the stream lane).
    pub node: NodeId,
    /// The surviving log entry.
    pub entry: LogEntry,
}

impl NodeRecord {
    /// Construct a record.
    pub fn new(node: NodeId, entry: LogEntry) -> Self {
        NodeRecord { node, entry }
    }
}

/// CRC-32 (IEEE) of `bytes` — re-exported from the shared [`crate::checksum`]
/// module so frame callers keep their historical import path.
pub use crate::checksum::crc32;

/// The wire tag of an event kind plus its 16-bit auxiliary word (the peer
/// node for two-party operations, the opaque code for `Custom`, zero
/// otherwise). The tag reuses [`EventKind::code`], which is stable by
/// contract.
fn kind_to_wire(kind: EventKind) -> (u8, u16) {
    let aux = match kind {
        EventKind::Custom(v) => v,
        _ => kind.peer().map_or(0, |n| n.0),
    };
    (kind.code(), aux)
}

/// Encode one record's payload (no framing) into `out`.
fn encode_payload(rec: &NodeRecord, out: &mut Vec<u8>) {
    let e = rec.entry.event;
    let (tag, aux) = kind_to_wire(e.kind);
    out.extend_from_slice(&rec.node.0.to_le_bytes());
    out.extend_from_slice(&e.node.0.to_le_bytes());
    out.push(tag);
    out.extend_from_slice(&aux.to_le_bytes());
    out.extend_from_slice(&e.packet.origin.0.to_le_bytes());
    out.extend_from_slice(&e.packet.seqno.to_le_bytes());
    match rec.entry.local_ts {
        Some(ts) => {
            out.push(1);
            out.extend_from_slice(&ts.get().to_le_bytes());
        }
        None => out.push(0),
    }
}

/// Decode one payload; `None` if it is not a well-formed v1 record. A node
/// logs only its own events, so a record whose lane is not its event's node
/// is not well-formed: the merge and the stream would place it by the lane,
/// and a store that replays it by its event's node somewhere else.
fn decode_payload(b: &[u8]) -> Option<NodeRecord> {
    if b.len() < 14 {
        return None;
    }
    let node = NodeId(u16::from_le_bytes([b[0], b[1]]));
    let ev_node = NodeId(u16::from_le_bytes([b[2], b[3]]));
    if node != ev_node {
        return None;
    }
    let aux = u16::from_le_bytes([b[5], b[6]]);
    let kind = EventKind::from_parts(b[4], NodeId(aux), aux)?;
    let origin = NodeId(u16::from_le_bytes([b[7], b[8]]));
    let seqno = u32::from_le_bytes([b[9], b[10], b[11], b[12]]);
    let local_ts = match b[13] {
        0 if b.len() == 14 => None,
        1 if b.len() == 22 => Some(LocalTs::new(u64::from_le_bytes([
            b[14], b[15], b[16], b[17], b[18], b[19], b[20], b[21],
        ]))?),
        _ => return None,
    };
    Some(NodeRecord {
        node,
        entry: LogEntry {
            event: Event::new(ev_node, kind, PacketId::new(origin, seqno)),
            local_ts,
        },
    })
}

/// Append one complete frame for `rec` to `out`.
pub fn encode_record(rec: &NodeRecord, out: &mut Vec<u8>) {
    let mut payload = Vec::with_capacity(22);
    encode_payload(rec, &mut payload);
    debug_assert!(payload.len() <= MAX_FRAME_PAYLOAD);
    out.extend_from_slice(&FRAME_MAGIC);
    let body_start = out.len();
    out.push(FRAME_VERSION);
    out.extend_from_slice(&(payload.len() as u16).to_le_bytes());
    out.extend_from_slice(&payload);
    let crc = crc32(&out[body_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Encode a sequence of records into one contiguous frame stream.
pub fn encode_records<'a>(records: impl IntoIterator<Item = &'a NodeRecord>) -> Vec<u8> {
    let mut out = Vec::new();
    for rec in records {
        encode_record(rec, &mut out);
    }
    out
}

/// Decoder counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStats {
    /// Frames decoded successfully.
    pub decoded: u64,
    /// Maximal runs of undecodable bytes skipped (each run counts once,
    /// however many bytes or failed frame candidates it spans).
    pub corrupt: u64,
}

/// A resynchronizing frame decoder over an incrementally fed byte stream.
///
/// Feed arbitrary chunks with [`FrameDecoder::push`], then drain with
/// [`FrameDecoder::next_record`] until it returns `None` (meaning: more
/// bytes needed). Corruption never ends the stream — the decoder skips to
/// the next magic sequence and counts the damage in
/// [`FrameDecoder::stats`]. Chunk boundaries do not affect what is decoded
/// or how corruption is counted.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted opportunistically).
    pos: usize,
    stats: FrameStats,
    /// True while inside an already-counted run of undecodable bytes;
    /// cleared by the next successful decode.
    skipping: bool,
    /// Bytes compaction has moved so far.
    #[cfg(test)]
    moved: usize,
}

impl FrameDecoder {
    /// A fresh decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Feed a chunk of bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Counters so far.
    pub fn stats(&self) -> FrameStats {
        self.stats
    }

    /// Bytes buffered but not yet consumed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Count one corrupt run (once per maximal run).
    fn note_corrupt(&mut self) {
        if !self.skipping {
            self.stats.corrupt += 1;
            self.skipping = true;
        }
    }

    /// Drop the consumed prefix once it is large enough to matter and at
    /// least as long as the unconsumed tail that has to move: every byte
    /// moved is then paid for by a consumed one, so one large `push` costs
    /// linear time, not a memmove of the rest of the buffer per 4 KiB.
    fn compact(&mut self) {
        let tail = self.buf.len() - self.pos;
        if tail == 0 || (self.pos >= 4096 && self.pos >= tail) {
            #[cfg(test)]
            {
                self.moved += tail;
            }
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Decode the next record, or `None` if the buffer holds no complete
    /// frame (feed more bytes, or call [`FrameDecoder::finish`] at EOF).
    pub fn next_record(&mut self) -> Option<NodeRecord> {
        loop {
            // Scan to the next magic sequence.
            let window = &self.buf[self.pos..];
            match window.windows(2).position(|w| w == FRAME_MAGIC) {
                Some(0) => {}
                Some(off) => {
                    self.note_corrupt();
                    self.pos += off;
                }
                None => {
                    // No magic in sight: everything except a possible
                    // trailing magic prefix is garbage.
                    let keep = usize::from(window.last() == Some(&FRAME_MAGIC[0]));
                    if window.len() > keep {
                        self.note_corrupt();
                    }
                    self.pos = self.buf.len() - keep;
                    self.compact();
                    return None;
                }
            }
            let b = &self.buf[self.pos..];
            if b.len() < FRAME_HEADER_LEN {
                self.compact();
                return None;
            }
            let version = b[2];
            let len = usize::from(u16::from_le_bytes([b[3], b[4]]));
            if version != FRAME_VERSION || len > MAX_FRAME_PAYLOAD {
                self.note_corrupt();
                self.pos += 1;
                continue;
            }
            let total = FRAME_HEADER_LEN + len + FRAME_CRC_LEN;
            if b.len() < total {
                self.compact();
                return None;
            }
            let crc_stored = u32::from_le_bytes([
                b[total - 4],
                b[total - 3],
                b[total - 2],
                b[total - 1],
            ]);
            if crc_stored != crc32(&b[2..FRAME_HEADER_LEN + len]) {
                self.note_corrupt();
                self.pos += 1;
                continue;
            }
            match decode_payload(&b[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len]) {
                Some(rec) => {
                    self.pos += total;
                    self.stats.decoded += 1;
                    self.skipping = false;
                    self.compact();
                    return Some(rec);
                }
                None => {
                    self.note_corrupt();
                    self.pos += 1;
                }
            }
        }
    }

    /// Drain every decodable record currently buffered.
    pub fn drain(&mut self) -> Vec<NodeRecord> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_record() {
            out.push(rec);
        }
        out
    }

    /// Signal end of stream: a non-empty undecodable tail counts as one
    /// final corrupt run. Returns the final counters.
    pub fn finish(&mut self) -> FrameStats {
        while self.next_record().is_some() {}
        if self.pending() > 0 {
            self.note_corrupt();
            self.pos = self.buf.len();
            self.compact();
        }
        self.stats
    }
}

/// Decode one contiguous byte slice (convenience for tests and replay).
pub fn decode_all(bytes: &[u8]) -> (Vec<NodeRecord>, FrameStats) {
    let mut dec = FrameDecoder::new();
    dec.push(bytes);
    let records = dec.drain();
    let stats = dec.finish();
    (records, stats)
}

/// File `rec` under its node in `logs`, which stay in node order.
fn file_record(logs: &mut Vec<LocalLog>, rec: NodeRecord) {
    match logs.binary_search_by_key(&rec.node, |log| log.node) {
        Ok(at) => logs[at].entries.push(rec.entry),
        Err(at) => logs.insert(
            at,
            LocalLog {
                node: rec.node,
                entries: vec![rec.entry],
            },
        ),
    }
}

/// Regroup records into per-node logs, in node order; each node's entries
/// keep their order in `records`, which is all a log promises.
pub fn node_logs(records: &[NodeRecord]) -> Vec<LocalLog> {
    let mut logs = Vec::new();
    for &rec in records {
        file_record(&mut logs, rec);
    }
    logs
}

/// Decode a whole frame stream from `r` into per-node logs ([`node_logs`]'s
/// order), with the decoder's counters. Corrupt runs are skipped and
/// counted, as the online path does; a stream that decodes to no record at
/// all is an [`io::ErrorKind::InvalidData`] error, since there is nothing
/// to analyse.
pub fn read_logs(mut r: impl Read) -> io::Result<(Vec<LocalLog>, FrameStats)> {
    let mut decoder = FrameDecoder::new();
    let mut logs = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = match r.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        decoder.push(&buf[..n]);
        while let Some(rec) = decoder.next_record() {
            file_record(&mut logs, rec);
        }
    }
    let stats = decoder.finish();
    if stats.decoded == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "no log records decoded ({} corrupt runs skipped)",
                stats.corrupt
            ),
        ));
    }
    Ok((logs, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::NodeId;

    fn rec(node: u16, seq: u32, ts: Option<u64>) -> NodeRecord {
        NodeRecord::new(
            NodeId(node),
            LogEntry {
                event: Event::new(
                    NodeId(node),
                    EventKind::Trans { to: NodeId(node + 1) },
                    PacketId::new(NodeId(node), seq),
                ),
                local_ts: ts.and_then(LocalTs::new),
            },
        )
    }

    fn sample_records() -> Vec<NodeRecord> {
        vec![
            rec(1, 0, Some(1_000)),
            rec(2, 0, None),
            NodeRecord::new(
                NodeId(3),
                LogEntry {
                    event: Event::new(
                        NodeId(3),
                        EventKind::Custom(0xBEEF),
                        PacketId::new(NodeId(1), 7),
                    ),
                    local_ts: LocalTs::new(u64::MAX - 1),
                },
            ),
            NodeRecord::new(
                NodeId(4),
                LogEntry {
                    event: Event::new(
                        NodeId(4),
                        EventKind::Origin,
                        PacketId::new(NodeId(4), 42),
                    ),
                    local_ts: None,
                },
            ),
        ]
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_all_kinds() {
        let p = PacketId::new(NodeId(9), 3);
        let kinds = [
            EventKind::Recv { from: NodeId(1) },
            EventKind::Overflow { from: NodeId(2) },
            EventKind::Dup { from: NodeId(3) },
            EventKind::Trans { to: NodeId(4) },
            EventKind::AckRecvd { to: NodeId(5) },
            EventKind::Origin,
            EventKind::Enqueue,
            EventKind::Timeout { to: NodeId(6) },
            EventKind::SerialTrans,
            EventKind::BsRecv,
            EventKind::Deliver,
            EventKind::Custom(512),
        ];
        let records: Vec<NodeRecord> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                NodeRecord::new(
                    NodeId(i as u16),
                    LogEntry {
                        event: Event::new(NodeId(i as u16), kind, p),
                        local_ts: (i % 2 == 0).then_some(i as u64 * 17).and_then(LocalTs::new),
                    },
                )
            })
            .collect();
        let bytes = encode_records(&records);
        let (back, stats) = decode_all(&bytes);
        assert_eq!(back, records);
        assert_eq!(stats.decoded, records.len() as u64);
        assert_eq!(stats.corrupt, 0);
    }

    #[test]
    fn chunked_feeding_is_boundary_independent() {
        let records = sample_records();
        let bytes = encode_records(&records);
        for chunk in [1usize, 2, 3, 7, 64] {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for piece in bytes.chunks(chunk) {
                dec.push(piece);
                got.extend(dec.drain());
            }
            let stats = dec.finish();
            assert_eq!(got, records, "chunk size {chunk}");
            assert_eq!(stats.corrupt, 0, "chunk size {chunk}");
        }
    }

    #[test]
    fn corrupt_run_spanning_chunk_boundary_counts_once() {
        // Regression: a maximal corrupt run — two adjacent damaged frames
        // with garbage between them — must count as ONE run however the
        // bytes are chunked, including chunk sizes that split the run
        // across push() boundaries. The skipping flag clears only on a
        // successful decode, never at a chunk edge.
        let records = sample_records();
        let mut bytes = Vec::new();
        encode_record(&records[0], &mut bytes);
        let run_start = bytes.len();
        let mut damaged = Vec::new();
        encode_record(&records[1], &mut damaged);
        let flip = damaged.len() - 1;
        damaged[flip] ^= 0x01; // CRC byte: frame 1 of the run fails
        bytes.extend_from_slice(&damaged);
        bytes.extend_from_slice(b"mid-run garbage");
        let mut damaged = Vec::new();
        encode_record(&records[2], &mut damaged);
        damaged[FRAME_HEADER_LEN] ^= 0x80; // payload byte: frame 2 fails too
        bytes.extend_from_slice(&damaged);
        let run_end = bytes.len();
        encode_record(&records[3], &mut bytes);

        let expected = vec![records[0], records[3]];
        let (back, stats) = decode_all(&bytes);
        assert_eq!(back, expected);
        // The pinned accounting: two clean frames, one maximal run.
        assert_eq!(stats, FrameStats { decoded: 2, corrupt: 1 });

        // Every chunking — including splits inside the corrupt run —
        // lands on identical records AND identical run accounting.
        let mid_run = (run_start + run_end) / 2;
        for chunk in [1usize, 2, 3, 5, mid_run, run_start, run_end, 64] {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for piece in bytes.chunks(chunk.max(1)) {
                dec.push(piece);
                got.extend(dec.drain());
            }
            let chunked = dec.finish();
            assert_eq!(got, expected, "chunk size {chunk}");
            assert_eq!(
                chunked,
                FrameStats { decoded: 2, corrupt: 1 },
                "chunk size {chunk}: a run split across a boundary double-counted"
            );
        }
    }

    #[test]
    fn garbage_between_frames_is_counted_once_and_skipped() {
        let records = sample_records();
        let mut bytes = Vec::new();
        encode_record(&records[0], &mut bytes);
        bytes.extend_from_slice(b"not a frame at all");
        encode_record(&records[1], &mut bytes);
        let (back, stats) = decode_all(&bytes);
        assert_eq!(back, vec![records[0], records[1]]);
        assert_eq!(stats.decoded, 2);
        assert_eq!(stats.corrupt, 1, "one garbage run, one count");
    }

    #[test]
    fn bit_flip_in_payload_fails_crc_and_resyncs() {
        let records = sample_records();
        let mut bytes = encode_records(&records);
        // Flip one payload byte of the second frame.
        let frame_len = {
            let mut one = Vec::new();
            encode_record(&records[0], &mut one);
            one.len()
        };
        bytes[frame_len + FRAME_HEADER_LEN] ^= 0x40;
        let (back, stats) = decode_all(&bytes);
        assert_eq!(back.len(), records.len() - 1, "exactly the damaged frame lost");
        assert!(!back.contains(&records[1]));
        assert_eq!(stats.corrupt, 1);
    }

    #[test]
    fn truncated_tail_counts_as_corrupt_on_finish() {
        let records = sample_records();
        let mut bytes = encode_records(&records);
        bytes.truncate(bytes.len() - 3);
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        let got = dec.drain();
        assert_eq!(got.len(), records.len() - 1);
        let stats = dec.finish();
        assert_eq!(stats.corrupt, 1);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn a_frame_stamped_u64_max_is_one_corrupt_run() {
        // Well-formed and checksummed, but the timestamp is the value the
        // store reserves for "none": the frame is malformed, and decoding
        // resumes at the next one.
        let records = sample_records();
        let mut bytes = Vec::new();
        encode_record(&records[0], &mut bytes);
        let bad_start = bytes.len();
        encode_record(&rec(5, 1, Some(u64::MAX - 1)), &mut bytes);
        let ts_at = bad_start + FRAME_HEADER_LEN + 14;
        bytes[ts_at] = 0xFF;
        let crc_at = bytes.len() - FRAME_CRC_LEN;
        let crc = crc32(&bytes[bad_start + 2..crc_at]);
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        encode_record(&records[1], &mut bytes);
        let (back, stats) = decode_all(&bytes);
        assert_eq!(back, vec![records[0], records[1]]);
        assert_eq!(stats, FrameStats { decoded: 2, corrupt: 1 });
    }

    #[test]
    fn a_record_on_another_nodes_lane_is_one_corrupt_run() {
        let records = sample_records();
        let mut stray = rec(5, 1, Some(70));
        stray.node = NodeId(6);
        let mut bytes = encode_records(&records[..1]);
        encode_record(&stray, &mut bytes);
        encode_record(&records[1], &mut bytes);
        let (back, stats) = decode_all(&bytes);
        assert_eq!(back, vec![records[0], records[1]]);
        assert_eq!(
            stats,
            FrameStats {
                decoded: 2,
                corrupt: 1
            }
        );
    }

    #[test]
    fn unknown_version_is_skipped_not_fatal() {
        let records = sample_records();
        let mut first = Vec::new();
        encode_record(&records[0], &mut first);
        first[2] = 9; // future version
        let mut bytes = first;
        encode_record(&records[1], &mut bytes);
        let (back, stats) = decode_all(&bytes);
        assert_eq!(back, vec![records[1]]);
        assert_eq!(stats.corrupt, 1);
    }

    #[test]
    fn mid_stream_join_recovers() {
        // A decoder attached mid-stream (first frame cut in half) recovers
        // from the next frame boundary.
        let records = sample_records();
        let bytes = encode_records(&records);
        let (back, stats) = decode_all(&bytes[10..]);
        assert_eq!(back, records[1..].to_vec());
        assert_eq!(stats.corrupt, 1);
    }

    #[test]
    fn one_large_push_moves_at_most_its_own_length() {
        // 40 000 frames (about 1.2 MB) in one push: compacting every 4 KiB
        // moved the whole unconsumed tail each time, about 190 MB here.
        let records: Vec<NodeRecord> = (0..40_000u32)
            .map(|s| rec((s % 300) as u16, s, Some(u64::from(s) * 1_000)))
            .collect();
        let bytes = encode_records(&records);
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert_eq!(dec.drain(), records);
        assert_eq!(dec.finish(), FrameStats { decoded: 40_000, corrupt: 0 });
        assert!(
            dec.moved <= bytes.len(),
            "compaction moved {} bytes for a {}-byte input",
            dec.moved,
            bytes.len()
        );
    }

    #[test]
    fn read_logs_regroups_by_node_keeping_each_nodes_order() {
        let records = vec![
            rec(4, 0, Some(5)),
            rec(2, 1, None),
            rec(4, 2, None),
            rec(2, 3, Some(1)),
            rec(3, 4, Some(9)),
        ];
        let mut bytes = encode_records(&records);
        let mut garbage = b"spliced garbage".to_vec();
        garbage.extend_from_slice(&bytes[20..]);
        bytes.truncate(20);
        bytes.extend_from_slice(&garbage);
        let (logs, stats) = read_logs(&bytes[..]).unwrap();
        assert_eq!(stats, FrameStats { decoded: 4, corrupt: 1 });
        let shape: Vec<(u16, Vec<u32>)> = logs
            .iter()
            .map(|log| (log.node.0, log.events().map(|e| e.packet.seqno).collect()))
            .collect();
        assert_eq!(shape, vec![(2, vec![1, 3]), (3, vec![4]), (4, vec![2])]);
        assert_eq!(node_logs(&records[1..]), logs);
    }

    #[test]
    fn a_stream_without_a_record_is_invalid_data() {
        for bytes in [&b""[..], b"ppppppppppppppp"] {
            let err = read_logs(bytes).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn empty_and_pure_garbage_streams() {
        let (back, stats) = decode_all(&[]);
        assert!(back.is_empty());
        assert_eq!(stats, FrameStats::default());

        let (back, stats) = decode_all(b"ppppppppppppppp");
        assert!(back.is_empty());
        assert_eq!(stats.decoded, 0);
        assert_eq!(stats.corrupt, 1);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use netsim::prop::{check, vec_of};
    use netsim::Rng;

    fn arb_record(rng: &mut Rng) -> NodeRecord {
        let node = NodeId(rng.gen_range(0..100));
        let aux = rng.gen();
        let kind = EventKind::from_parts(rng.gen_range(0..12), NodeId(aux), aux).expect("tag in range");
        let packet = PacketId::new(NodeId(rng.gen_range(0..100)), rng.gen());
        NodeRecord::new(
            node,
            LogEntry {
                event: Event::new(node, kind, packet),
                local_ts: rng.gen_bool(0.5).then(|| rng.gen()).and_then(LocalTs::new),
            },
        )
    }

    /// Encode→decode is the identity for arbitrary record sequences,
    /// under arbitrary chunking.
    #[test]
    fn roundtrip_is_lossless() {
        check("frame::roundtrip_is_lossless", 256, &[], |rng| {
            let records = vec_of(rng, 0..40, arb_record);
            let chunk = rng.gen_range(1..97);
            let bytes = encode_records(&records);
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for piece in bytes.chunks(chunk) {
                dec.push(piece);
                got.extend(dec.drain());
            }
            let stats = dec.finish();
            assert_eq!(got, records);
            assert_eq!(stats.corrupt, 0);
        });
    }

    /// Reading a frame file back gives every node's log as it was written,
    /// however the records of different nodes interleave.
    #[test]
    fn read_logs_round_trips_per_node_logs() {
        check("frame::read_logs_round_trips_per_node_logs", 256, &[], |rng| {
            let records = vec_of(rng, 1..60, arb_record);
            let (logs, stats) = read_logs(&encode_records(&records)[..]).unwrap();
            assert_eq!(stats, FrameStats { decoded: records.len() as u64, corrupt: 0 });
            assert!(logs.windows(2).all(|w| w[0].node < w[1].node));
            for log in &logs {
                let mine = records.iter().filter(|r| r.node == log.node);
                assert!(mine.map(|r| r.entry).eq(log.entries.iter().copied()));
            }
            assert_eq!(logs.iter().map(LocalLog::len).sum::<usize>(), records.len());
        });
    }

    /// Arbitrary injected garbage never panics the decoder and never
    /// corrupts the frames around it.
    #[test]
    fn garbage_injection_is_survivable() {
        check("garbage_injection_is_survivable", 256, &[], |rng| {
            let records = vec_of(rng, 1..10, arb_record);
            let garbage = vec_of(rng, 1..64, |rng| rng.gen::<u8>());
            let at = rng.gen_range(0..10).min(records.len());
            let mut bytes = encode_records(&records[..at]);
            bytes.extend_from_slice(&garbage);
            bytes.extend_from_slice(&encode_records(&records[at..]));
            let mut dec = FrameDecoder::new();
            dec.push(&bytes);
            let got = dec.drain();
            let _ = dec.finish();
            // Every frame before the garbage survives; frames after it
            // survive unless the garbage happens to embed a valid-looking
            // frame prefix that swallows the next real frame.
            assert!(got.len() >= at);
            for (g, r) in got.iter().zip(records[..at].iter()) {
                assert_eq!(g, r);
            }
        });
    }
}
