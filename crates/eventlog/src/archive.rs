//! Log archives: JSON-lines serialization of collected logs.
//!
//! The analysis side (a PC in the paper) consumes logs offline; this module
//! gives the reproduction a stable on-disk interchange format so simulated
//! runs can be archived, shipped and re-analyzed without re-simulating.
//!
//! Format: an optional header line `#refill-archive v<N>` (written since
//! v2; v1 files have no header and are still read), then one JSON object
//! per line pairing a node id with a log entry. Read failures are typed
//! ([`ArchiveError`]): corrupt or truncated lines report the line number
//! and cause, and a file from a future format version is refused up front
//! instead of failing line by line.

use crate::logger::{LocalLog, LogEntry};
use netsim::fx::FxHashMap;
use netsim::json::{self, ToJson};
use netsim::json_struct;
use std::fmt;
use std::io::{self, BufRead, Write};

/// Archive format version written by [`write_logs`].
pub const ARCHIVE_VERSION: u32 = 2;

/// Header prefix; the version number follows it on the same line.
const HEADER_PREFIX: &str = "#refill-archive v";

/// What can go wrong reading an archive.
#[derive(Debug)]
pub enum ArchiveError {
    /// The underlying reader failed.
    Io(io::Error),
    /// A line was not a well-formed archive record (garbage, truncation,
    /// or a schema mismatch). Lines are 1-indexed.
    Corrupt {
        /// 1-indexed line number of the offending line.
        line: usize,
        /// What the parser objected to.
        detail: String,
    },
    /// The file declares a format version newer than this reader.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Newest version this reader understands.
        supported: u32,
    },
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::Io(e) => write!(f, "archive read failed: {e}"),
            ArchiveError::Corrupt { line, detail } => {
                write!(f, "archive corrupt at line {line}: {detail}")
            }
            ArchiveError::UnsupportedVersion { found, supported } => write!(
                f,
                "archive format v{found} is newer than supported v{supported}"
            ),
        }
    }
}

impl std::error::Error for ArchiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArchiveError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ArchiveError {
    fn from(e: io::Error) -> Self {
        ArchiveError::Io(e)
    }
}

/// One line of the archive: a node's log entry tagged with its node.
#[derive(Debug, Clone)]
struct ArchiveLine {
    node: u16,
    entry: LogEntry,
}

json_struct!(ArchiveLine { node, entry });

impl ArchiveLine {
    fn write<W: Write>(&self, mut w: W) -> io::Result<()> {
        let mut line = self
            .to_json()
            .to_compact()
            .expect("an archive line holds no floats");
        line.push('\n');
        w.write_all(line.as_bytes())
    }
}

/// Write a set of local logs as JSON lines, preceded by the format-version
/// header.
///
/// Entries are written log-by-log so each node's order is explicit in the
/// file; readers regroup by node.
pub fn write_logs<W: Write>(logs: &[LocalLog], mut w: W) -> io::Result<()> {
    writeln!(w, "{HEADER_PREFIX}{ARCHIVE_VERSION}")?;
    for log in logs {
        for entry in &log.entries {
            let line = ArchiveLine {
                node: log.node.0,
                entry: *entry,
            };
            line.write(&mut w)?;
        }
    }
    Ok(())
}

/// The one archive line parser: header validation, version gating, blank
/// skipping, and typed per-line errors, handing each parsed record to
/// `each` in file order.
fn read_lines<R: BufRead>(
    r: R,
    mut each: impl FnMut(ArchiveLine),
) -> Result<(), ArchiveError> {
    let mut seen_content = false;
    for (lineno, line) in r.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix(HEADER_PREFIX) {
            if seen_content {
                return Err(ArchiveError::Corrupt {
                    line: lineno,
                    detail: "version header after records".into(),
                });
            }
            let found: u32 = rest.trim().parse().map_err(|_| ArchiveError::Corrupt {
                line: lineno,
                detail: format!("unparseable version header '{trimmed}'"),
            })?;
            if found > ARCHIVE_VERSION {
                return Err(ArchiveError::UnsupportedVersion {
                    found,
                    supported: ARCHIVE_VERSION,
                });
            }
            seen_content = true;
            continue;
        }
        seen_content = true;
        let parsed: ArchiveLine =
            json::decode(trimmed.as_bytes()).map_err(|e| ArchiveError::Corrupt {
                line: lineno,
                detail: e.to_string(),
            })?;
        // A node logs only its own events; a line filed under another node
        // would be merged by one node and replayed from a store by the other.
        if parsed.node != parsed.entry.event.node.0 {
            return Err(ArchiveError::Corrupt {
                line: lineno,
                detail: format!(
                    "node {} holds an event of node {}",
                    parsed.node, parsed.entry.event.node.0
                ),
            });
        }
        each(parsed);
    }
    Ok(())
}

/// Read logs back from JSON lines. Per-node order is the file order of that
/// node's lines. Headerless files are read as format v1.
pub fn read_logs<R: BufRead>(r: R) -> Result<Vec<LocalLog>, ArchiveError> {
    use netsim::NodeId;
    let mut by_node: Vec<LocalLog> = Vec::new();
    let mut index: FxHashMap<u16, usize> = FxHashMap::default();
    read_lines(r, |parsed| {
        let idx = *index.entry(parsed.node).or_insert_with(|| {
            by_node.push(LocalLog::new(NodeId(parsed.node)));
            by_node.len() - 1
        });
        by_node[idx].entries.push(parsed.entry);
    })?;
    Ok(by_node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind, PacketId};
    use crate::logger::LocalTs;
    use netsim::NodeId;

    fn sample_logs() -> Vec<LocalLog> {
        let p = PacketId::new(NodeId(1), 0);
        vec![
            LocalLog::from_events(
                NodeId(1),
                vec![
                    Event::new(NodeId(1), EventKind::Origin, p),
                    Event::new(NodeId(1), EventKind::Trans { to: NodeId(2) }, p),
                ],
            ),
            LocalLog::from_events(
                NodeId(2),
                vec![Event::new(NodeId(2), EventKind::Recv { from: NodeId(1) }, p)],
            ),
        ]
    }

    #[test]
    fn roundtrip_preserves_logs() {
        let logs = sample_logs();
        let mut buf = Vec::new();
        write_logs(&logs, &mut buf).unwrap();
        let back = read_logs(io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(back.len(), 2);
        for (orig, got) in logs.iter().zip(&back) {
            assert_eq!(orig.node, got.node);
            assert_eq!(orig.entries, got.entries);
        }
    }

    #[test]
    fn archives_carry_a_version_header() {
        let mut buf = Vec::new();
        write_logs(&sample_logs(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.starts_with(&format!("{HEADER_PREFIX}{ARCHIVE_VERSION}\n")),
            "header first: {text:.40}"
        );
    }

    #[test]
    fn empty_roundtrip() {
        let mut buf = Vec::new();
        write_logs(&[], &mut buf).unwrap();
        let back = read_logs(io::BufReader::new(&buf[..])).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn headerless_v1_archives_still_read() {
        // A v1 file: records only, no header line.
        let logs = sample_logs();
        let mut buf = Vec::new();
        write_logs(&logs, &mut buf).unwrap();
        let headerless: Vec<u8> = {
            let text = String::from_utf8(buf).unwrap();
            text.lines()
                .skip(1)
                .flat_map(|l| l.bytes().chain(std::iter::once(b'\n')))
                .collect()
        };
        let back = read_logs(io::BufReader::new(&headerless[..])).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].entries, logs[0].entries);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let logs = sample_logs();
        let mut buf = Vec::new();
        write_logs(&logs, &mut buf).unwrap();
        buf.extend_from_slice(b"\n\n");
        let back = read_logs(io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn corrupt_line_is_a_typed_error_with_position() {
        let mut buf = Vec::new();
        write_logs(&sample_logs(), &mut buf).unwrap();
        buf.extend_from_slice(b"not json\n");
        let err = read_logs(io::BufReader::new(&buf[..])).unwrap_err();
        match err {
            ArchiveError::Corrupt { line, .. } => {
                // Header + 3 records, then the garbage.
                assert_eq!(line, 5);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert!(err.to_string().contains("line 5"));
    }

    #[test]
    fn truncated_record_is_a_typed_error() {
        let mut buf = Vec::new();
        write_logs(&sample_logs(), &mut buf).unwrap();
        // Cut the file mid-record (drop the last 10 bytes).
        buf.truncate(buf.len() - 10);
        let err = read_logs(io::BufReader::new(&buf[..])).unwrap_err();
        assert!(
            matches!(err, ArchiveError::Corrupt { .. }),
            "truncation reads as a corrupt final line: {err:?}"
        );
    }

    #[test]
    fn mid_record_truncation_of_v2_payloads_reports_the_exact_line() {
        let mut logs = sample_logs();
        for (i, entry) in logs[0].entries.iter_mut().enumerate() {
            entry.local_ts = LocalTs::new(100 + i as u64 * 7);
        }
        let mut buf = Vec::new();
        write_logs(&logs, &mut buf).unwrap();

        // Byte offsets where each line starts; line 1 is the version
        // header, so a cut inside starts[i] lands on line i + 1.
        let mut starts = vec![0usize];
        for (i, b) in buf.iter().enumerate() {
            if *b == b'\n' && i + 1 < buf.len() {
                starts.push(i + 1);
            }
        }
        assert!(starts.len() > 2, "need record lines to truncate");
        for (idx, &start) in starts.iter().enumerate().skip(1) {
            let end = start + buf[start..].iter().position(|b| *b == b'\n').unwrap();
            for cut in (start + 1)..end {
                match read_logs(io::BufReader::new(&buf[..cut])).unwrap_err() {
                    ArchiveError::Corrupt { line, detail } => {
                        assert_eq!(line, idx + 1, "cut at byte {cut}");
                        assert!(!detail.is_empty(), "cut at byte {cut}");
                    }
                    other => panic!("cut at byte {cut}: expected Corrupt, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn a_line_stamped_u64_max_is_corrupt_at_its_line() {
        let mut logs = sample_logs();
        logs[1].entries[0].local_ts = LocalTs::new(u64::MAX - 1);
        let mut buf = Vec::new();
        write_logs(&logs, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let stamped = text.replace(&(u64::MAX - 1).to_string(), &u64::MAX.to_string());
        assert_ne!(stamped, text);
        match read_logs(io::BufReader::new(stamped.as_bytes())).unwrap_err() {
            // Header + node 1's two records, then node 2's one.
            ArchiveError::Corrupt { line, detail } => {
                assert_eq!(line, 4);
                assert!(detail.contains("entry"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn a_line_filed_under_another_node_is_corrupt_at_its_line() {
        let mut logs = sample_logs();
        logs[1].entries[0].event.node = NodeId(3);
        let mut buf = Vec::new();
        write_logs(&logs, &mut buf).unwrap();
        match read_logs(io::BufReader::new(&buf[..])).unwrap_err() {
            // Header + node 1's two records, then node 2's one.
            ArchiveError::Corrupt { line, detail } => {
                assert_eq!(line, 4);
                assert!(detail.contains("node 2"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn future_version_is_refused() {
        let data = format!("{HEADER_PREFIX}{}\n", ARCHIVE_VERSION + 1);
        let err = read_logs(io::BufReader::new(data.as_bytes())).unwrap_err();
        match err {
            ArchiveError::UnsupportedVersion { found, supported } => {
                assert_eq!(found, ARCHIVE_VERSION + 1);
                assert_eq!(supported, ARCHIVE_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn misplaced_header_is_corrupt() {
        let mut buf = Vec::new();
        write_logs(&sample_logs(), &mut buf).unwrap();
        buf.extend_from_slice(format!("{HEADER_PREFIX}{ARCHIVE_VERSION}\n").as_bytes());
        let err = read_logs(io::BufReader::new(&buf[..])).unwrap_err();
        assert!(matches!(err, ArchiveError::Corrupt { .. }));
    }

    #[test]
    fn bad_version_number_is_corrupt() {
        let data = format!("{HEADER_PREFIX}banana\n");
        let err = read_logs(io::BufReader::new(data.as_bytes())).unwrap_err();
        assert!(matches!(err, ArchiveError::Corrupt { line: 1, .. }));
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use crate::event::{Event, EventKind, PacketId};
    use crate::logger::{LocalLog, LocalTs};
    use netsim::prop::{check, vec_of};
    use netsim::NodeId;

    /// Archive write→read is an exact round trip for arbitrary logs.
    #[test]
    fn roundtrip_is_lossless() {
        check("archive::roundtrip_is_lossless", 256, &[], |rng| {
            let mut node = 0;
            let locals = vec_of(rng, 0..6, |rng| {
                node += 1;
                let node = NodeId(node - 1);
                let peer = NodeId(rng.gen_range(0..50));
                let entries = vec_of(rng, 0..15, |rng| crate::logger::LogEntry {
                    event: Event::new(
                        node,
                        match rng.gen_range(0..5u8) {
                            0 => EventKind::Recv { from: peer },
                            1 => EventKind::Trans { to: peer },
                            2 => EventKind::AckRecvd { to: peer },
                            3 => EventKind::Origin,
                            _ => EventKind::SerialTrans,
                        },
                        PacketId::new(peer, rng.gen_range(0..100)),
                    ),
                    local_ts: rng
                        .gen_bool(0.5)
                        .then(|| rng.gen_range(0..1_000_000))
                        .and_then(LocalTs::new),
                });
                LocalLog { node, entries }
            });
            let mut buf = Vec::new();
            write_logs(&locals, &mut buf).unwrap();
            let back = read_logs(std::io::BufReader::new(&buf[..])).unwrap();
            // Empty logs produce no lines, so compare non-empty ones.
            let nonempty: Vec<&LocalLog> = locals.iter().filter(|l| !l.is_empty()).collect();
            assert_eq!(back.len(), nonempty.len());
            for (orig, got) in nonempty.iter().zip(&back) {
                assert_eq!(orig.node, got.node);
                assert_eq!(&orig.entries, &got.entries);
            }
        });
    }
}
