//! A log entry as a fixed row, and the merged log as entries.
//!
//! [`encode_row`] writes a [`LogEntry`] as one fixed 24-byte row: the bytes
//! `merge_identity`'s frozen digests fold a merged entry into.
//!
//! [`EventStore`] is the merged log kept as entries, timestamps included
//! ([`merge_logs_store`](crate::merge_logs_store)), and [`ColumnarIndex`]
//! its rows grouped by packet; `refill::parallel::reconstruct_fused` reads
//! the grouping.

use crate::event::{Event, EventKind};
use crate::logger::{LocalTs, LogEntry};
use crate::merge::PacketIndex;

/// A row's timestamp for "none": no [`LocalTs`] holds `u64::MAX` and every
/// reader of outside bytes refuses it, so the conversion is exact.
const TS_NONE: u64 = u64::MAX;

/// Bytes per row: four event words, then the timestamp.
pub const ROW_LEN: usize = 24;

/// Flag bit: the row's peer half is meaningful (a two-party kind).
const FLAG_HAS_PEER: u32 = 1;

/// `entry` as a row: four `u32` words, then the timestamp (`u64::MAX` for
/// none), every field little-endian.
///
/// ```text
/// word 0  who   [ node:u16 | peer:u16            ]
/// word 1  tag   [ origin:u16 | code:u8 | flags:u8 ]
/// word 2  seqno [ seqno:u32                       ]
/// word 3  arg   [ custom:u16 | spill:u16          ]
/// ```
///
/// `code` is [`EventKind::code`]. `peer` is zero for one-party kinds, whose
/// `flags` bit 0 is clear, so "no peer" and "peer = node 0" stay distinct.
/// `custom` is the `EventKind::Custom` payload and zero elsewhere; `spill`
/// is reserved and zero.
pub fn encode_row(entry: &LogEntry) -> [u8; ROW_LEN] {
    let e = &entry.event;
    let (peer, flags) = match e.kind.peer() {
        Some(p) => (p.0, FLAG_HAS_PEER),
        None => (0, 0),
    };
    let custom = match e.kind {
        EventKind::Custom(c) => c,
        _ => 0,
    };
    let words = [
        u32::from(e.node.0) | (u32::from(peer) << 16),
        u32::from(e.packet.origin.0) | (u32::from(e.kind.code()) << 16) | (flags << 24),
        e.packet.seqno,
        u32::from(custom),
    ];
    let mut out = [0u8; ROW_LEN];
    for (at, word) in words.into_iter().enumerate() {
        out[at * 4..at * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out[16..].copy_from_slice(&entry.local_ts.map_or(TS_NONE, LocalTs::get).to_le_bytes());
    out
}

/// The merged log as log entries, in [`merge_logs`](crate::merge_logs)'
/// order: 24 bytes a row, the same as the rows [`encode_row`] writes.
#[derive(Debug, Clone, Default)]
pub struct EventStore {
    pub(crate) entries: Vec<LogEntry>,
}

impl EventStore {
    /// An empty store.
    pub fn new() -> Self {
        EventStore::default()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every entry, in order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Heap bytes committed to the entries.
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<LogEntry>()
    }

    /// A store of `events`, none timestamped.
    pub fn from_events(events: &[Event]) -> Self {
        let entries = events.iter().map(|&event| LogEntry {
            event,
            local_ts: None,
        });
        EventStore {
            entries: entries.collect(),
        }
    }
}

/// The packet grouping of an [`EventStore`]: its row numbers grouped by the
/// rows' packet ids ([`PacketIndex::group_rows`]), and nothing more — no
/// entry is copied. Each group is in merged order, so it keeps every node's
/// recording order (the pipeline's one hard input guarantee).
#[derive(Debug, Clone)]
pub struct ColumnarIndex(PacketIndex<u32>);

impl ColumnarIndex {
    /// Build the grouping.
    ///
    /// # Panics
    /// Panics if the store exceeds `u32::MAX` rows.
    pub fn build(store: &EventStore) -> Self {
        ColumnarIndex(PacketIndex::group_rows(store.entries(), |e| e.event.packet))
    }
}

impl std::ops::Deref for ColumnarIndex {
    type Target = PacketIndex<u32>;

    fn deref(&self) -> &PacketIndex<u32> {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PacketId;
    use crate::logger::LocalLog;
    use netsim::NodeId;
    use crate::merge::merge_logs;

    fn pid(origin: u16, seqno: u32) -> PacketId {
        PacketId::new(NodeId(origin), seqno)
    }

    fn entry(event: Event) -> LogEntry {
        LogEntry {
            event,
            local_ts: None,
        }
    }

    #[test]
    fn peer_zero_and_no_peer_stay_distinct() {
        let with_peer = Event::new(NodeId(3), EventKind::Recv { from: NodeId(0) }, pid(1, 0));
        let without = Event::new(NodeId(3), EventKind::Origin, pid(1, 0));
        let (p, q) = (entry(with_peer), entry(without));
        let (p_row, q_row) = (encode_row(&p), encode_row(&q));
        // Both peer halves are zero; only the flag bit tells them apart.
        assert_eq!((&p_row[2..4], &q_row[2..4]), (&[0u8, 0][..], &[0u8, 0][..]));
        assert_eq!((p_row[7], q_row[7]), (1, 0));
        assert_ne!(p_row, q_row);
    }

    #[test]
    fn extreme_ids_land_whole_in_their_row_halves() {
        let e = Event::new(
            NodeId(u16::MAX),
            EventKind::Timeout { to: NodeId(u16::MAX - 1) },
            pid(u16::MAX, u32::MAX),
        );
        let c = Event::new(NodeId(0), EventKind::Custom(u16::MAX), pid(0, 0));
        let word = |row: &[u8; ROW_LEN], at: usize| {
            u32::from_le_bytes(row[at * 4..at * 4 + 4].try_into().unwrap())
        };
        let (e_row, c_row) = (encode_row(&entry(e)), encode_row(&entry(c)));
        // Every id lands whole in its half of the row.
        assert_eq!(word(&e_row, 0), 0xfffe_ffff, "node, then peer");
        assert_eq!(word(&e_row, 1) & 0xffff, 0xffff, "origin");
        assert_eq!(word(&e_row, 2), u32::MAX, "seqno");
        assert_eq!(word(&c_row, 3), 0xffff, "custom payload, no spill");
    }

    #[test]
    fn entry_rows_are_exact_at_the_edges() {
        let event = Event::new(NodeId(1), EventKind::Origin, pid(1, 0));
        for (local_ts, ts) in [
            (LocalTs::new(0), 0),
            (LocalTs::new(u64::MAX - 1), u64::MAX - 1),
            (None, u64::MAX),
        ] {
            let row = encode_row(&LogEntry { event, local_ts });
            assert_eq!(row[16..], ts.to_le_bytes());
        }
    }

    /// The events of `store`'s `rows`, in order.
    pub(super) fn events_at(store: &EventStore, rows: &[u32]) -> Vec<Event> {
        rows.iter()
            .map(|&row| store.entries()[row as usize].event)
            .collect()
    }

    #[test]
    fn columnar_index_matches_packet_index() {
        // Interleaved packets across nodes: the permutation groups must
        // equal the legacy sorted-arena groups slice for slice.
        let ev = |node: u16, origin: u16, seqno: u32| {
            Event::new(NodeId(node), EventKind::Origin, pid(origin, seqno))
        };
        let logs = [
            LocalLog::from_events(NodeId(1), vec![ev(1, 1, 2), ev(1, 1, 0), ev(1, 1, 2)]),
            LocalLog::from_events(NodeId(2), vec![ev(2, 2, 1), ev(2, 1, 2)]),
        ];
        let merged = merge_logs(&logs);
        let legacy = merged.packet_index();
        let store = EventStore::from_events(&merged.events);
        let index = ColumnarIndex::build(&store);
        assert_eq!(index.len(), legacy.len());
        assert_eq!(index.event_count(), legacy.event_count());
        assert_eq!(index.ids(), legacy.ids());
        for i in 0..index.len() {
            let (id, rows) = index.group(i);
            let (legacy_id, legacy_events) = legacy.group(i);
            assert_eq!(id, legacy_id);
            assert_eq!(events_at(&store, rows), legacy_events);
        }
        assert_eq!(index.get(pid(9, 9)), None);
    }

    #[test]
    fn empty_store_and_index() {
        let store = EventStore::new();
        assert!(store.is_empty());
        let index = ColumnarIndex::build(&store);
        assert!(index.is_empty());
        assert_eq!(index.event_count(), 0);
        assert_eq!(index.iter().count(), 0);
    }
}

#[cfg(test)]
mod columnar_props {
    //! The store's row grouping reproduces the `PacketIndex` grouping
    //! exactly.

    use super::*;
    use crate::event::PacketId;
    use netsim::prop::{check, vec_of};
    use netsim::{NodeId, Rng};

    fn arb_kind(rng: &mut Rng) -> EventKind {
        let arg: u16 = rng.gen();
        EventKind::from_parts(rng.gen_range(0..12), NodeId(arg), arg).expect("a code in range")
    }

    #[test]
    fn columnar_index_matches_legacy_grouping() {
        check("columnar_index_matches_legacy_grouping", 256, &[], |rng| {
            // Small id spaces force collisions, so groups have real depth.
            let events = vec_of(rng, 0..80, |rng| {
                let (node, kind) = (NodeId(rng.gen_range(0..4)), arb_kind(rng));
                Event::new(
                    node,
                    kind,
                    PacketId::new(NodeId(rng.gen_range(0..3)), rng.gen_range(0..4)),
                )
            });
            let legacy = PacketIndex::build(&events);
            let store = EventStore::from_events(&events);
            let index = ColumnarIndex::build(&store);
            assert_eq!(index.len(), legacy.len());
            assert_eq!(index.ids(), legacy.ids());
            for i in 0..index.len() {
                let (id, rows) = index.group(i);
                let (legacy_id, legacy_events) = legacy.group(i);
                assert_eq!(id, legacy_id);
                assert_eq!(tests::events_at(&store, rows), legacy_events);
            }
        });
    }
}
