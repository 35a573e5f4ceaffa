//! The on-disk block codec.
//!
//! A segment file is a plain concatenation of blocks:
//!
//! ```text
//! +-------+---------+------+------------+-----------+-----------+
//! | magic | version | kind | len u32 LE |  payload  | crc u32 LE|
//! |  2 B  |   1 B   | 1 B  |    4 B     |  len B    |    4 B    |
//! +-------+---------+------+------------+-----------+-----------+
//! ```
//!
//! The CRC-32 (IEEE, via the shared `eventlog::checksum`) covers
//! everything after the magic — version, kind, length, and payload — the
//! same discipline as the wire frames in `eventlog::frame`. A block that
//! is cut short or fails its checksum is, by definition, a torn tail:
//! blocks are written append-only and become durable only at `fsync`, so
//! that failure marks the recovery truncation point. A block whose
//! checksum holds was written whole, so when it does not decode — another
//! build's version byte, an unknown kind, a row or a report this build
//! does not read — it is [`Unreadable`] and never truncated.
//!
//! Two payload kinds exist. *Event* payloads are fixed 24-byte rows, one
//! [`LogEntry`] each, in the layout `eventlog::columnar::encode_row`
//! defines. *Report* payloads are a JSON array of [`ReportRow`]s.

use crate::row::ReportRow;
use crate::StoreError;
use eventlog::checksum::Crc32;
use eventlog::columnar::{decode_row, encode_row, ROW_LEN};
use eventlog::LogEntry;
use netsim::json::{self, ToJson};

/// Segment block magic. Distinct from the wire-frame magic (`EF 17`) so a
/// segment file can never be mistaken for a record stream.
pub const BLOCK_MAGIC: [u8; 2] = [0xEF, 0x5E];

/// Current block format version. 3: a report row is `{report, sidecar}`,
/// the report in `PacketReport`'s own JSON, where version 2 held a
/// node-abstract template beside a rename vector. A store of another
/// version is refused ([`Unreadable`]); there is no second reader.
pub const BLOCK_VERSION: u8 = 3;

/// Bytes before the payload: magic (2) + version (1) + kind (1) + len (4).
pub const BLOCK_HEADER_LEN: usize = 8;

/// Trailing checksum bytes.
pub const BLOCK_CRC_LEN: usize = 4;

/// What a block holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// Log entries, one 24-byte row each.
    Events,
    /// JSON report rows.
    Reports,
}

impl BlockKind {
    fn from_byte(b: u8) -> Option<BlockKind> {
        match b {
            0 => Some(BlockKind::Events),
            1 => Some(BlockKind::Reports),
            _ => None,
        }
    }

    fn byte(self) -> u8 {
        match self {
            BlockKind::Events => 0,
            BlockKind::Reports => 1,
        }
    }
}

/// A whole, CRC-valid block this build does not read, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unreadable(pub String);

/// A decoded block.
#[derive(Debug, Clone, PartialEq)]
pub enum Block {
    /// Log entries.
    Events(Vec<LogEntry>),
    /// Report rows.
    Reports(Vec<ReportRow>),
}

fn encode_block(kind: BlockKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(BLOCK_HEADER_LEN + payload.len() + BLOCK_CRC_LEN);
    out.extend_from_slice(&BLOCK_MAGIC);
    out.push(BLOCK_VERSION);
    out.push(kind.byte());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = Crc32::new().update(&out[2..]).finish();
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Encode one events block.
pub fn encode_events(rows: &[LogEntry]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(rows.len() * ROW_LEN);
    for row in rows {
        payload.extend_from_slice(&encode_row(row));
    }
    encode_block(BlockKind::Events, &payload)
}

/// Encode one reports block.
pub fn encode_reports(rows: &[ReportRow]) -> Result<Vec<u8>, StoreError> {
    let payload = rows.to_json().to_compact().map_err(|e| StoreError::Codec {
        detail: format!("encoding report rows: {e}"),
    })?;
    Ok(encode_block(BlockKind::Reports, payload.as_bytes()))
}

/// Try to decode the block starting at `bytes[0]`.
///
/// Returns the block and its total encoded length, or `None` when the
/// bytes do not begin with one complete, CRC-valid block — the signal
/// recovery uses to place the truncation point. There is deliberately no
/// resynchronization here (unlike the wire decoder): a segment is written
/// append-only, so the first invalid byte ends the durable prefix. A block
/// whose checksum holds is not torn: if it does not decode, that is the
/// error.
pub fn decode_block(bytes: &[u8]) -> Result<Option<(Block, usize)>, Unreadable> {
    if bytes.len() < BLOCK_HEADER_LEN + BLOCK_CRC_LEN || bytes[0..2] != BLOCK_MAGIC {
        return Ok(None);
    }
    let len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
    let total = BLOCK_HEADER_LEN + len + BLOCK_CRC_LEN;
    if bytes.len() < total {
        return Ok(None);
    }
    let stored = u32::from_le_bytes([
        bytes[total - 4],
        bytes[total - 3],
        bytes[total - 2],
        bytes[total - 1],
    ]);
    let computed = Crc32::new().update(&bytes[2..total - BLOCK_CRC_LEN]).finish();
    if stored != computed {
        return Ok(None);
    }
    if bytes[2] != BLOCK_VERSION {
        return Err(Unreadable(format!(
            "unsupported block version {} (this build reads {BLOCK_VERSION})",
            bytes[2]
        )));
    }
    let payload = &bytes[BLOCK_HEADER_LEN..total - BLOCK_CRC_LEN];
    let block = match BlockKind::from_byte(bytes[3]) {
        Some(BlockKind::Events) if payload.len().is_multiple_of(ROW_LEN) => {
            let mut rows = Vec::with_capacity(payload.len() / ROW_LEN);
            for (i, row) in payload.chunks_exact(ROW_LEN).enumerate() {
                let row = row.try_into().expect("chunks of ROW_LEN bytes");
                rows.push(decode_row(row).ok_or_else(|| {
                    Unreadable(format!("event row {i} is no row this build writes"))
                })?);
            }
            Block::Events(rows)
        }
        Some(BlockKind::Events) => {
            return Err(Unreadable(format!(
                "an events payload of {} bytes is not whole rows",
                payload.len()
            )))
        }
        Some(BlockKind::Reports) => Block::Reports(
            json::decode(payload)
                .map_err(|e| Unreadable(format!("report rows do not decode: {e}")))?,
        ),
        None => return Err(Unreadable(format!("unknown block kind {}", bytes[3]))),
    };
    Ok(Some((block, total)))
}

/// Walk the bytes of segment `file` block by block, returning the decoded
/// blocks and the byte length of the valid prefix (`bytes.len() -
/// valid_len` is the torn tail). An [`Unreadable`] block is
/// [`StoreError::Corrupt`] at its offset.
pub fn scan_blocks(file: &str, bytes: &[u8]) -> Result<(Vec<Block>, usize), StoreError> {
    let mut blocks = Vec::new();
    let mut offset = 0usize;
    loop {
        match decode_block(&bytes[offset..]) {
            Ok(Some((block, used))) => {
                blocks.push(block);
                offset += used;
            }
            Ok(None) => return Ok((blocks, offset)),
            Err(Unreadable(detail)) => {
                return Err(StoreError::Corrupt {
                    file: file.to_string(),
                    offset: offset as u64,
                    detail,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventlog::{Event, EventKind, LocalTs, PacketId};
    use netsim::NodeId;

    fn rows(n: u32) -> Vec<LogEntry> {
        (0..n)
            .map(|i| {
                let p = PacketId::new(NodeId(1), i);
                LogEntry {
                    event: Event::new(NodeId(2), EventKind::Recv { from: NodeId(1) }, p),
                    local_ts: if i % 3 == 0 {
                        None
                    } else {
                        LocalTs::new(u64::from(i) * 17)
                    },
                }
            })
            .collect()
    }

    #[test]
    fn events_roundtrip() {
        let rows = rows(10);
        let bytes = encode_events(&rows);
        let (block, used) = decode_block(&bytes).unwrap().expect("valid block");
        assert_eq!(used, bytes.len());
        assert_eq!(block, Block::Events(rows));
    }

    #[test]
    fn empty_events_block_roundtrips() {
        let bytes = encode_events(&[]);
        let (block, used) = decode_block(&bytes).unwrap().expect("valid block");
        assert_eq!(used, bytes.len());
        assert_eq!(block, Block::Events(Vec::new()));
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let bytes = encode_events(&rows(4));
        for cut in 0..bytes.len() {
            assert!(
                decode_block(&bytes[..cut]) == Ok(None),
                "a {cut}-byte prefix of a {}-byte block must not decode",
                bytes.len()
            );
        }
    }

    #[test]
    fn any_single_byte_flip_is_detected() {
        let bytes = encode_events(&rows(3));
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            // Flipping a length byte can make the block "longer" than the
            // buffer (reads as torn) or damage the CRC; either way the
            // block must not decode as valid.
            assert!(decode_block(&bad) == Ok(None), "flip at byte {i} went undetected");
        }
    }

    /// A whole block of this build's version, its kind byte `kind`.
    fn sealed(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = encode_block(BlockKind::Events, payload);
        out[3] = kind;
        let end = out.len() - BLOCK_CRC_LEN;
        let crc = Crc32::new().update(&out[2..end]).finish();
        out[end..].copy_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn a_whole_block_that_does_not_decode_is_unreadable_not_torn() {
        let block = encode_events(&rows(2));
        let payload = &block[BLOCK_HEADER_LEN..block.len() - BLOCK_CRC_LEN];
        assert_eq!(sealed(0, payload), block);
        let unreadable = |detail: &str| Err(Unreadable(detail.to_string()));
        assert_eq!(decode_block(&sealed(2, payload)), unreadable("unknown block kind 2"));
        assert_eq!(
            decode_block(&sealed(0, &payload[..30])),
            unreadable("an events payload of 30 bytes is not whole rows")
        );
    }

    #[test]
    fn scan_stops_at_the_first_invalid_block() {
        let mut bytes = encode_events(&rows(2));
        let first = bytes.len();
        bytes.extend_from_slice(&encode_events(&rows(5)));
        // Tear the second block three bytes short.
        bytes.truncate(bytes.len() - 3);
        let (blocks, valid) = scan_blocks("seg", &bytes).unwrap();
        assert_eq!(blocks.len(), 1);
        assert_eq!(valid, first);
    }
}
