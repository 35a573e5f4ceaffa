//! Columnar event storage: packed 16-byte records in structure-of-arrays
//! columns.
//!
//! The reconstruction hot loop is memory-bound: it walks millions of tiny
//! [`Event`] values per CitySee day, and the enum-of-structs layout spends
//! its cache lines on niche bytes and padding. This module stores the same
//! information as two parallel columns:
//!
//! * a [`PackedEvent`] column — one fixed 16-byte record per event holding
//!   the recording node, the peer (for two-party kinds), the packet id, a
//!   dense u8 kind code (reusing [`EventKind::code`]), a flags byte, and a
//!   u16 spill half used by `Custom` payloads;
//! * a `ts` column — the entry's local timestamp, with missing timestamps
//!   encoded as `u64::MAX`, which no [`LocalTs`] holds.
//!
//! The conversion `Event ⇄ PackedEvent` is lossless (property-tested over
//! every [`EventKind`] variant), so the packed store is not a cache of the
//! AoS representation — it *is* the representation, and the legacy path
//! survives only as the test oracle.
//!
//! The same two halves side by side are the durable row of a segment file:
//! [`encode_row`] writes a [`LogEntry`] as the 16 packed bytes and the
//! timestamp, and [`decode_row`] reads back exactly the rows it writes.
//!
//! On top of the columns:
//!
//! * [`ColumnarIndex`] — the packet grouping of the store's 4-byte row
//!   numbers (a `PacketIndex<u32>`); it never copies a record.
//! * [`ScratchArena`] — a per-worker bump allocation for unpacking one
//!   group at a time. The buffer is grow-only, so after warm-up a worker
//!   reconstructs arbitrarily many packets with zero allocations.

use crate::event::{Event, EventKind, PacketId};
use crate::logger::{LocalTs, LogEntry};
use crate::merge::{MergedLog, PacketIndex};
use netsim::NodeId;

/// Reserved timestamp meaning "this entry carried no local timestamp", in
/// the `ts` column and in a row.
///
/// [`LocalTs`] cannot hold `u64::MAX` and every reader of outside bytes
/// refuses it, so the `ts` column is a flat `u64` array whose conversions
/// to and from `Option<LocalTs>` are exact.
const TS_NONE: u64 = u64::MAX;

/// Bytes per row: a packed event, then its timestamp.
pub const ROW_LEN: usize = 24;

/// Flag bit: the record's peer half is meaningful (the kind is a two-party
/// operation).
const FLAG_HAS_PEER: u32 = 1;

/// One event as a fixed 16-byte record.
///
/// Layout (little-endian field order within each u32):
///
/// ```text
/// word 0  who   [ node:u16 | peer:u16            ]
/// word 1  tag   [ origin:u16 | code:u8 | flags:u8 ]
/// word 2  seqno [ seqno:u32                       ]
/// word 3  arg   [ custom:u16 | spill:u16          ]
/// ```
///
/// `peer` is zero for one-party kinds (and `flags` bit 0 is clear, so the
/// two states "no peer" and "peer = node 0" stay distinct). `custom` is the
/// `EventKind::Custom` payload and zero elsewhere; the `spill` half is
/// reserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(C)]
pub struct PackedEvent {
    who: u32,
    tag: u32,
    seqno: u32,
    arg: u32,
}

const _: () = assert!(std::mem::size_of::<PackedEvent>() == 16);
const _: () = assert!(std::mem::align_of::<PackedEvent>() == 4);

impl PackedEvent {
    /// Pack an event. Lossless: [`PackedEvent::unpack`] restores it
    /// exactly.
    pub fn pack(e: &Event) -> PackedEvent {
        let (peer, flags) = match e.kind.peer() {
            Some(p) => (p.0, FLAG_HAS_PEER),
            None => (0, 0),
        };
        let custom = match e.kind {
            EventKind::Custom(c) => c,
            _ => 0,
        };
        PackedEvent {
            who: u32::from(e.node.0) | (u32::from(peer) << 16),
            tag: u32::from(e.packet.origin.0) | (u32::from(e.kind.code()) << 16) | (flags << 24),
            seqno: e.packet.seqno,
            arg: u32::from(custom),
        }
    }

    /// The recording node (`L`).
    pub fn node(&self) -> NodeId {
        NodeId(self.who as u16)
    }

    /// The peer node of two-party kinds, `None` for local events.
    pub fn peer(&self) -> Option<NodeId> {
        if (self.tag >> 24) & FLAG_HAS_PEER != 0 {
            Some(NodeId((self.who >> 16) as u16))
        } else {
            None
        }
    }

    /// The dense kind code ([`EventKind::code`]).
    pub fn code(&self) -> u8 {
        (self.tag >> 16) as u8
    }

    /// The `Custom` payload half (zero for non-custom kinds).
    pub fn custom(&self) -> u16 {
        self.arg as u16
    }

    /// The packet identity.
    pub fn packet(&self) -> PacketId {
        PacketId::new(NodeId(self.tag as u16), self.seqno)
    }

    /// The packet identity as one sortable u64 (`origin` in the high bits,
    /// `seqno` in the low bits — the same order as `PacketId`'s derived
    /// `Ord`).
    pub fn packet_key(&self) -> u64 {
        (u64::from(self.tag as u16) << 32) | u64::from(self.seqno)
    }

    /// The event kind, reassembled from code, peer half, and payload half.
    pub fn kind(&self) -> EventKind {
        EventKind::from_parts(self.code(), NodeId((self.who >> 16) as u16), self.custom())
            .expect("a PackedEvent only ever holds codes EventKind::code emits")
    }

    /// Unpack back into the AoS representation.
    pub fn unpack(&self) -> Event {
        Event {
            node: self.node(),
            kind: self.kind(),
            packet: self.packet(),
        }
    }
}

/// `entry` as a row: the four words of its [`PackedEvent`] in the order
/// `who`, `tag`, `seqno`, `arg`, then the timestamp (`u64::MAX` for none),
/// every field little-endian.
pub fn encode_row(entry: &LogEntry) -> [u8; ROW_LEN] {
    let rec = PackedEvent::pack(&entry.event);
    let mut out = [0u8; ROW_LEN];
    for (at, word) in [rec.who, rec.tag, rec.seqno, rec.arg].into_iter().enumerate() {
        out[at * 4..at * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out[16..].copy_from_slice(&ts_raw(entry.local_ts).to_le_bytes());
    out
}

/// The entry `row` holds, or `None` when [`encode_row`] writes no such row:
/// a kind code [`EventKind::from_parts`] refuses, a peer flag that
/// disagrees with the kind, a peer or payload half where the kind has
/// none, or anything in the reserved `spill` half or the other flag bits.
pub fn decode_row(row: &[u8; ROW_LEN]) -> Option<LogEntry> {
    let word = |at: usize| u32::from_le_bytes([row[at], row[at + 1], row[at + 2], row[at + 3]]);
    let rec = PackedEvent {
        who: word(0),
        tag: word(4),
        seqno: word(8),
        arg: word(12),
    };
    let kind = EventKind::from_parts(rec.code(), NodeId((rec.who >> 16) as u16), rec.custom())?;
    let ts = u64::from_le_bytes(row[16..].try_into().expect("eight bytes"));
    let entry = LogEntry {
        event: Event::new(rec.node(), kind, rec.packet()),
        local_ts: LocalTs::new(ts),
    };
    // Every field the row spells but the entry does not is checked here:
    // a row reads back only when it is the one the entry is written as.
    (encode_row(&entry) == *row).then_some(entry)
}

/// The packed structure-of-arrays event store: a [`PackedEvent`] column and
/// a parallel `ts` column, in merged order.
#[derive(Debug, Clone, Default)]
pub struct EventStore {
    recs: Vec<PackedEvent>,
    ts: Vec<u64>,
}

impl EventStore {
    /// An empty store.
    pub fn new() -> Self {
        EventStore::default()
    }

    /// An empty store with room for `n` events in both columns.
    pub fn with_capacity(n: usize) -> Self {
        EventStore {
            recs: Vec::with_capacity(n),
            ts: Vec::with_capacity(n),
        }
    }

    /// Pack and append one event with its optional local timestamp.
    pub fn push(&mut self, event: &Event, local_ts: Option<LocalTs>) {
        self.recs.push(PackedEvent::pack(event));
        self.ts.push(ts_raw(local_ts));
    }

    /// Append one log entry (event + optional timestamp).
    pub fn push_entry(&mut self, entry: &LogEntry) {
        self.push(&entry.event, entry.local_ts);
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True if the store holds no events.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// The packed record column.
    pub fn records(&self) -> &[PackedEvent] {
        &self.recs
    }

    /// The raw timestamp column (`u64::MAX` marks missing entries).
    pub fn ts_column(&self) -> &[u64] {
        &self.ts
    }

    /// Every row as a log entry, in order.
    pub fn entries(&self) -> impl Iterator<Item = LogEntry> + '_ {
        self.recs.iter().zip(&self.ts).map(|(rec, &ts)| LogEntry {
            event: rec.unpack(),
            local_ts: LocalTs::new(ts),
        })
    }

    /// Row `i`'s local timestamp, if it had one.
    pub fn ts(&self, i: usize) -> Option<LocalTs> {
        LocalTs::new(self.ts[i])
    }

    /// Row `i` unpacked into an [`Event`].
    pub fn event(&self, i: usize) -> Event {
        self.recs[i].unpack()
    }

    /// Heap bytes currently committed to the two columns.
    pub fn heap_bytes(&self) -> usize {
        self.recs.capacity() * std::mem::size_of::<PackedEvent>()
            + self.ts.capacity() * std::mem::size_of::<u64>()
    }

    /// Pack an event slice (no timestamps).
    pub fn from_events(events: &[Event]) -> Self {
        let mut store = EventStore::with_capacity(events.len());
        for e in events {
            store.push(e, None);
        }
        store
    }

    /// Unpack every row, in order.
    pub fn to_events(&self) -> Vec<Event> {
        self.recs.iter().map(PackedEvent::unpack).collect()
    }

    /// Unpack into the legacy AoS merged log (test oracle and
    /// compatibility bridge; the fused pipeline never calls this).
    pub fn to_merged(&self) -> MergedLog {
        MergedLog {
            events: self.to_events(),
        }
    }
}

/// A timestamp as the `ts` column spells it.
fn ts_raw(ts: Option<LocalTs>) -> u64 {
    ts.map_or(TS_NONE, LocalTs::get)
}

/// The packet grouping of an [`EventStore`]: its row numbers grouped by the
/// rows' packet ids ([`PacketIndex::group_rows`]), and nothing more — no
/// record is copied. A group is a `&[u32]` of row positions into the shared
/// columns, in merged order, so each preserves per-node recording order (the
/// pipeline's one hard input guarantee).
#[derive(Debug, Clone)]
pub struct ColumnarIndex(PacketIndex<u32>);

impl ColumnarIndex {
    /// Build the grouping.
    ///
    /// # Panics
    /// Panics if the store exceeds `u32::MAX` rows.
    pub fn build(store: &EventStore) -> Self {
        ColumnarIndex(PacketIndex::group_rows(
            store.records(),
            PackedEvent::packet,
        ))
    }
}

impl std::ops::Deref for ColumnarIndex {
    type Target = PacketIndex<u32>;

    fn deref(&self) -> &PacketIndex<u32> {
        &self.0
    }
}

/// A per-worker bump allocation for unpacking packet groups.
///
/// `unpack` clears and refills one grow-only buffer, so a warm worker
/// serves every group from capacity it already owns: zero per-event heap
/// objects, zero steady-state allocation.
#[derive(Debug, Default)]
pub struct ScratchArena {
    buf: Vec<Event>,
}

impl ScratchArena {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        ScratchArena::default()
    }

    /// Unpack the rows at `positions` into the arena, returning them as one
    /// contiguous slice (valid until the next `unpack`).
    pub fn unpack<'a>(&'a mut self, store: &EventStore, positions: &[u32]) -> &'a [Event] {
        self.buf.clear();
        let recs = store.records();
        self.buf
            .extend(positions.iter().map(|&row| recs[row as usize].unpack()));
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logger::LocalLog;
    use crate::merge::merge_logs;

    fn pid(origin: u16, seqno: u32) -> PacketId {
        PacketId::new(NodeId(origin), seqno)
    }

    #[test]
    fn packed_event_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<PackedEvent>(), 16);
    }

    #[test]
    fn peer_zero_and_no_peer_stay_distinct() {
        let with_peer = Event::new(NodeId(3), EventKind::Recv { from: NodeId(0) }, pid(1, 0));
        let without = Event::new(NodeId(3), EventKind::Origin, pid(1, 0));
        let p = PackedEvent::pack(&with_peer);
        let q = PackedEvent::pack(&without);
        assert_eq!(p.peer(), Some(NodeId(0)));
        assert_eq!(q.peer(), None);
        assert_eq!(p.unpack(), with_peer);
        assert_eq!(q.unpack(), without);
    }

    #[test]
    fn extreme_ids_roundtrip() {
        let e = Event::new(
            NodeId(u16::MAX),
            EventKind::Timeout { to: NodeId(u16::MAX - 1) },
            pid(u16::MAX, u32::MAX),
        );
        assert_eq!(PackedEvent::pack(&e).unpack(), e);
        let c = Event::new(NodeId(0), EventKind::Custom(u16::MAX), pid(0, 0));
        assert_eq!(PackedEvent::pack(&c).unpack(), c);
    }

    #[test]
    fn packet_key_orders_like_packet_id() {
        let rows = [pid(1, 5), pid(1, 6), pid(2, 0), pid(0, u32::MAX), pid(2, 1)];
        let mut by_key: Vec<PacketId> = rows.to_vec();
        by_key.sort_by_key(|id| {
            PackedEvent::pack(&Event::new(NodeId(0), EventKind::Origin, *id)).packet_key()
        });
        let mut by_ord = rows.to_vec();
        by_ord.sort();
        assert_eq!(by_key, by_ord);
    }

    #[test]
    fn store_keeps_ts_column_aligned() {
        let e0 = Event::new(NodeId(1), EventKind::Origin, pid(1, 0));
        let e1 = Event::new(NodeId(2), EventKind::Recv { from: NodeId(1) }, pid(1, 0));
        let mut store = EventStore::new();
        store.push(&e0, LocalTs::new(10));
        store.push(&e1, None);
        assert_eq!(store.len(), 2);
        assert_eq!(store.ts(0), LocalTs::new(10));
        assert_eq!(store.ts(1), None);
        assert_eq!(store.event(0), e0);
        assert_eq!(store.event(1), e1);
        assert_eq!(store.to_events(), vec![e0, e1]);
    }

    #[test]
    fn entry_rows_are_exact_at_the_edges() {
        let event = Event::new(NodeId(1), EventKind::Origin, pid(1, 0));
        for local_ts in [LocalTs::new(0), LocalTs::new(u64::MAX - 1), None] {
            let entry = LogEntry { event, local_ts };
            let row = encode_row(&entry);
            assert_eq!(row[16..] == [0xff; 8], local_ts.is_none());
            assert_eq!(decode_row(&row), Some(entry));
        }
    }

    #[test]
    fn a_row_encode_row_does_not_write_is_refused() {
        let from = NodeId(0);
        let recv = LogEntry {
            event: Event::new(NodeId(3), EventKind::Recv { from }, pid(1, 7)),
            local_ts: LocalTs::new(9),
        };
        let origin = LogEntry {
            event: Event::new(NodeId(3), EventKind::Origin, pid(3, 7)),
            local_ts: None,
        };
        let edit = |entry: &LogEntry, at: usize, byte: u8| {
            let mut row = encode_row(entry);
            row[at] = byte;
            decode_row(&row)
        };
        // Bytes 2..4 are the peer half, 6 the kind code, 7 the flags,
        // 12..14 the payload half and 14..16 the spill half.
        assert_eq!(edit(&recv, 6, 12), None, "kind code 12");
        assert_eq!(edit(&recv, 6, 0xff), None, "kind code 255");
        assert_eq!(edit(&recv, 7, 0), None, "a two-party kind without its peer flag");
        assert_eq!(edit(&origin, 7, 1), None, "a one-party kind with a peer flag");
        assert_eq!(edit(&recv, 7, 3), None, "an unknown flag bit");
        assert_eq!(edit(&origin, 2, 1), None, "a peer half on a one-party kind");
        assert_eq!(edit(&origin, 12, 1), None, "a payload half on a non-custom kind");
        assert_eq!(edit(&recv, 15, 1), None, "a spill half");
        assert_eq!(edit(&origin, 14, 1), None, "a spill half");
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
        let mut scratch = ScratchArena::new();
        for i in 0..index.len() {
            let (id, positions) = index.group(i);
            let (legacy_id, legacy_events) = legacy.group(i);
            assert_eq!(id, legacy_id);
            assert_eq!(scratch.unpack(&store, positions), legacy_events);
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
    //! The packed representation's correctness contract: `pack ∘ unpack`
    //! is the identity over every `EventKind` variant (peers, customs, and
    //! extreme ids included), and the permutation index reproduces the
    //! legacy sorted-arena grouping exactly.

    use super::*;
    use netsim::prop::{check, vec_of};
    use netsim::Rng;

    fn arb_kind(rng: &mut Rng) -> EventKind {
        let arg: u16 = rng.gen();
        EventKind::from_parts(rng.gen_range(0..12), NodeId(arg), arg).expect("a code in range")
    }

    fn arb_event(rng: &mut Rng) -> Event {
        let (node, kind) = (NodeId(rng.gen()), arb_kind(rng));
        Event::new(node, kind, PacketId::new(NodeId(rng.gen()), rng.gen()))
    }

    #[test]
    fn packed_event_roundtrips() {
        check("packed_event_roundtrips", 256, &[], |rng| {
            let e = arb_event(rng);
            assert_eq!(PackedEvent::pack(&e).unpack(), e);
        });
    }

    /// Every kind, with peer 0 and with another, at the timestamp edges:
    /// the row reads back as its entry; and the same row with bytes changed
    /// is refused or is exactly the row of the entry it reads as.
    #[test]
    fn row_codec_roundtrips_and_reads_only_what_it_writes() {
        let edges = [LocalTs::new(0), LocalTs::new(1), LocalTs::new(u64::MAX - 1), None];
        check("row_codec_roundtrips_and_reads_only_what_it_writes", 64, &[], |rng| {
            for code in 0..12 {
                for peer in [NodeId(0), NodeId(rng.gen())] {
                    let kind = EventKind::from_parts(code, peer, rng.gen());
                    let kind = kind.expect("a code in range");
                    for local_ts in edges {
                        let packet = PacketId::new(NodeId(rng.gen()), rng.gen());
                        let entry = LogEntry {
                            event: Event::new(NodeId(rng.gen()), kind, packet),
                            local_ts,
                        };
                        let row = encode_row(&entry);
                        assert_eq!(decode_row(&row), Some(entry));
                        let mut mutated = row;
                        for _ in 0..rng.gen_range(1..4) {
                            mutated[rng.gen_range(0..ROW_LEN)] ^= rng.gen_range(1..=255u8);
                        }
                        if let Some(read) = decode_row(&mutated) {
                            assert_eq!(encode_row(&read), mutated, "{row:?} -> {mutated:?}");
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn store_roundtrips_events_and_ts() {
        check("store_roundtrips_events_and_ts", 256, &[], |rng| {
            let entries = vec_of(rng, 0..64, |rng| {
                (
                    arb_event(rng),
                    rng.gen_bool(0.5)
                        .then(|| rng.gen_range(0..u64::MAX))
                        .and_then(LocalTs::new),
                )
            });
            let mut store = EventStore::new();
            for (e, ts) in &entries {
                store.push(e, *ts);
            }
            assert_eq!(store.len(), entries.len());
            for (i, (e, ts)) in entries.iter().enumerate() {
                assert_eq!(store.event(i), *e);
                assert_eq!(store.ts(i), *ts);
            }
        });
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
            let mut scratch = ScratchArena::new();
            for i in 0..index.len() {
                let (id, positions) = index.group(i);
                let (legacy_id, legacy_events) = legacy.group(i);
                assert_eq!(id, legacy_id);
                assert_eq!(scratch.unpack(&store, positions), legacy_events);
            }
        });
    }
}
