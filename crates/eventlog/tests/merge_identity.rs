//! What `merge_logs*`, `PacketIndex` and `ColumnarIndex` produce is pinned,
//! not just its shape:
//!
//! * the log merges (`merge_logs`, `merge_logs_store`) equal an in-test
//!   all-K round-robin over the logs in node order, whatever the
//!   timestamps, and the time merge (`merge_logs_kway`) an O(N·K) cursor
//!   scan on `(ts, node, input index)`, over seeded soups of every fan-in
//!   and timestamp shape;
//! * for logs of distinct nodes, listed in any order, each packet's group of
//!   the merge is that packet's entries sorted by `packet_order` (position
//!   in its own log, then node) and no merged event moves when the logs are
//!   shuffled;
//! * the logs grouped where they lie (`PacketIndex::group_logs`) hold, per
//!   packet, the merge's group as a multiset, every node's events in the
//!   merge's order (a node with two logs: one log after the other), and every
//!   row is a reference to its own entry, once;
//! * a 64-bit digest over the merged bytes and the grouped bytes of a fixed
//!   set of soups, frozen when the log merge stopped reading clocks;
//! * both indexes equal the `by_packet()` grouping on dense and sparse id
//!   domains, and the dense build allocates the arena, the ids, the offsets
//!   and the domain tables and nothing else (a sort would allocate its
//!   scratch buffer).

use eventlog::{
    encode_row, merge_logs, merge_logs_kway, merge_logs_partitioned, merge_logs_store,
    ColumnarIndex, Event, EventKind, EventStore, LocalLog, LocalTs, LogEntry,
    MergedLog, PacketId, PacketIndex,
};
use netsim::NodeId;

// --- deterministic input -------------------------------------------------

/// SplitMix64 (public-domain constants); both the generator of the soups
/// and the mixing step of the digest.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// One soup of logs.
#[derive(Clone, Copy)]
struct Shape {
    /// Number of logs (the merge's fan-in).
    logs: usize,
    /// Each log holds `0..=max_len` entries.
    max_len: u64,
    /// Node ids are drawn from `0..nodes`; fewer nodes than logs gives
    /// several logs of one node, which only input order can tell apart.
    nodes: u64,
    /// Timestamps are `ts_base + 0..ts_span`; a span much smaller than the
    /// event count forces duplicates within and across logs.
    ts_base: u64,
    ts_span: u64,
    /// Whether each log's timestamps are put in order (real collectors do).
    sorted: bool,
    /// Share of entries without a timestamp, in percent.
    untimed: u64,
}

const PLAIN: Shape = Shape {
    logs: 7,
    max_len: 40,
    nodes: 7,
    ts_base: 1_000,
    ts_span: 1 << 20,
    sorted: true,
    untimed: 0,
};

fn kind(rng: &mut SplitMix64) -> EventKind {
    let peer = NodeId(rng.below(2_000) as u16);
    match rng.below(12) {
        0 => EventKind::Recv { from: peer },
        1 => EventKind::Overflow { from: peer },
        2 => EventKind::Dup { from: peer },
        3 => EventKind::Trans { to: peer },
        4 => EventKind::AckRecvd { to: peer },
        5 => EventKind::Origin,
        6 => EventKind::Enqueue,
        7 => EventKind::Timeout { to: peer },
        8 => EventKind::SerialTrans,
        9 => EventKind::BsRecv,
        10 => EventKind::Deliver,
        _ => EventKind::Custom(rng.next() as u16),
    }
}

/// Logs of one shape. Every event gets a seqno no other event of the soup
/// has, so any two events a merge swaps show up in an equality check.
fn soup(rng: &mut SplitMix64, shape: Shape) -> Vec<LocalLog> {
    let mut serial = 0u32;
    (0..shape.logs)
        .map(|_| {
            let node = NodeId(rng.below(shape.nodes) as u16);
            let len = rng.below(shape.max_len + 1) as usize;
            let mut stamps: Vec<Option<u64>> = (0..len)
                .map(|_| {
                    (!rng.chance(shape.untimed)).then(|| shape.ts_base + rng.below(shape.ts_span))
                })
                .collect();
            if shape.sorted {
                stamps.sort_by_key(|ts| ts.unwrap_or(0));
            }
            let entries = stamps
                .into_iter()
                .map(|local_ts| {
                    serial += 1;
                    let packet = PacketId::new(NodeId(rng.below(40) as u16), serial);
                    LogEntry {
                        event: Event::new(node, kind(rng), packet),
                        local_ts: local_ts.and_then(LocalTs::new),
                    }
                })
                .collect();
            LocalLog { node, entries }
        })
        .collect()
}

fn entry(node: u16, seqno: u32, ts: u64) -> LogEntry {
    let node = NodeId(node);
    LogEntry {
        event: Event::new(node, EventKind::Origin, PacketId::new(node, seqno)),
        local_ts: Some(LocalTs::new(ts).expect("a timestamp below u64::MAX")),
    }
}

// --- references ----------------------------------------------------------

/// The O(N·K) cursor scan: of all live heads take the least
/// `(ts, node, input index)`, a missing timestamp counting as 0.
fn cursor_scan(logs: &[LocalLog]) -> Vec<Event> {
    let total: usize = logs.iter().map(LocalLog::len).sum();
    let mut pos = vec![0usize; logs.len()];
    let mut out = Vec::with_capacity(total);
    for _ in 0..total {
        let (_, _, ci) = logs
            .iter()
            .enumerate()
            .filter_map(|(ci, log)| {
                let head = log.entries.get(pos[ci])?;
                Some((head.local_ts.map_or(0, LocalTs::get), log.node, ci))
            })
            .min()
            .expect("total counts the live entries");
        out.push(logs[ci].entries[pos[ci]].event);
        pos[ci] += 1;
    }
    out
}

/// The all-K round-robin: one event from every log that still has one, per
/// pass, the logs in node order (logs of one node in input order).
fn round_robin(logs: &[LocalLog]) -> Vec<Event> {
    let mut logs: Vec<&LocalLog> = logs.iter().collect();
    logs.sort_by_key(|log| log.node);
    let longest = logs.iter().map(|log| log.len()).max().unwrap_or(0);
    let mut out = Vec::new();
    for pass in 0..longest {
        out.extend(
            logs.iter()
                .filter_map(|log| log.entries.get(pass))
                .map(|e| e.event),
        );
    }
    out
}

/// Every entry point against the references: `merge_logs` and
/// `merge_logs_store` are the round-robin, the other two merge by
/// timestamp.
fn assert_all_paths(logs: &[LocalLog], what: &str) {
    let scan = cursor_scan(logs);
    let expected = round_robin(logs);
    assert_eq!(merge_logs(logs).events, expected, "merge_logs, {what}");
    assert_eq!(
        merge_logs_kway(logs).events,
        scan,
        "merge_logs_kway, {what}"
    );
    for partitions in 1..=6 {
        assert_eq!(
            merge_logs_partitioned(logs, partitions).events,
            scan,
            "merge_logs_partitioned(_, {partitions}), {what}"
        );
    }
    let store = merge_logs_store(logs);
    assert_eq!(events_of(&store), expected, "merge_logs_store, {what}");
}

/// The events of `store`'s entries, in order.
fn events_of(store: &EventStore) -> Vec<Event> {
    store.entries().iter().map(|e| e.event).collect()
}

// --- merge identity ------------------------------------------------------

#[test]
fn every_fan_in_equals_the_cursor_scan() {
    let mut rng = SplitMix64(0x6d65_7267_6531);
    for logs in [0usize, 1, 2, 3, 7, 300, 1_200] {
        // The scan is O(N·K): keep the wide soups shallow.
        let max_len = if logs >= 300 { 6 } else { 60 };
        for nodes in [logs.max(1) as u64, 5] {
            let shape = Shape {
                logs,
                max_len,
                nodes,
                ..PLAIN
            };
            assert_all_paths(
                &soup(&mut rng, shape),
                &format!("K = {logs}, {nodes} nodes"),
            );
        }
    }
}

#[test]
fn duplicate_timestamps_break_ties_by_node_then_input_order() {
    let mut rng = SplitMix64(0x6d65_7267_6532);
    for ts_span in [1, 2, 9] {
        let shape = Shape {
            logs: 9,
            nodes: 4,
            ts_span,
            ..PLAIN
        };
        assert_all_paths(&soup(&mut rng, shape), &format!("ts_span = {ts_span}"));
    }
    // Everything at one instant, K large enough for a deep tree.
    let shape = Shape {
        logs: 300,
        max_len: 5,
        nodes: 40,
        ts_span: 1,
        ..PLAIN
    };
    let logs = soup(&mut rng, shape);
    assert_all_paths(&logs, "one timestamp, K = 300");
}

#[test]
fn equal_heads_of_one_node_go_to_the_earlier_log() {
    let a = LocalLog {
        node: NodeId(7),
        entries: vec![entry(7, 0, 50), entry(7, 1, 50)],
    };
    let b = LocalLog {
        node: NodeId(7),
        entries: vec![entry(7, 10, 50), entry(7, 11, 50)],
    };
    let c = LocalLog {
        node: NodeId(3),
        entries: vec![entry(3, 20, 50), entry(3, 21, 51)],
    };
    let logs = [a, b, c];
    assert_all_paths(&logs, "same node, equal heads");
    let seqnos: Vec<u32> = merge_logs_kway(&logs)
        .events
        .iter()
        .map(|e| e.packet.seqno)
        .collect();
    assert_eq!(seqnos, vec![20, 0, 1, 10, 11, 21]);
}

#[test]
fn unsorted_logs_still_equal_the_scan() {
    let mut rng = SplitMix64(0x6d65_7267_6533);
    for logs in [2usize, 7, 300] {
        let max_len = if logs >= 300 { 6 } else { 60 };
        let shape = Shape {
            logs,
            max_len,
            nodes: 5,
            ts_span: 64,
            sorted: false,
            ..PLAIN
        };
        assert_all_paths(&soup(&mut rng, shape), &format!("unsorted, K = {logs}"));
    }
}

#[test]
fn missing_timestamps_sort_as_zero_or_fall_back_to_round_robin() {
    // Missing timestamps sort as 0 in the time merges; the log merge reads
    // none either way.
    let mut rng = SplitMix64(0x6d65_7267_6534);
    for (untimed, sorted) in [(100, true), (30, true), (30, false), (1, true)] {
        // ts_base 0 lets a real timestamp tie with a missing one.
        let shape = Shape {
            logs: 9,
            nodes: 6,
            ts_base: 0,
            ts_span: 8,
            sorted,
            untimed,
            ..PLAIN
        };
        assert_all_paths(&soup(&mut rng, shape), &format!("{untimed} % untimed"));
    }
    let shape = Shape {
        logs: 300,
        max_len: 6,
        nodes: 300,
        untimed: 50,
        ..PLAIN
    };
    assert_all_paths(&soup(&mut rng, shape), "50 % untimed, K = 300");
}

#[test]
fn a_span_of_the_whole_u64_equals_the_scan() {
    // Timestamps at both ends of the range: the largest live key sits just
    // below the exhausted run's. The stamps drawn as u64::MAX are dropped:
    // no `LocalTs` holds that value.
    let edge = [0, u64::MAX - 1, u64::MAX];
    let mut rng = SplitMix64(0x6d65_7267_6535);
    let mut serial = 0u32;
    let logs: Vec<LocalLog> = (0..9u16)
        .map(|i| {
            let mut stamps: Vec<u64> = (0..rng.below(12))
                .map(|_| edge[rng.below(3) as usize])
                .collect();
            stamps.sort_unstable();
            LocalLog {
                node: NodeId(i % 4),
                entries: stamps
                    .into_iter()
                    .filter_map(|ts| {
                        serial += 1;
                        (ts != u64::MAX).then(|| entry(i % 4, serial, ts))
                    })
                    .collect(),
            }
        })
        .collect();
    assert_all_paths(&logs, "ts in {0, MAX - 1}");
    // Wide spans, the logs listed against node order.
    for (k, top) in [
        (2u16, (1u64 << 62) - 1),
        (2, 1 << 62),
        (9, (1 << 59) - 1),
        (9, 1 << 59),
    ] {
        let logs: Vec<LocalLog> = (0..k)
            .map(|i| LocalLog {
                node: NodeId(k - i),
                entries: [0, 1, top / 2, top - u64::from(i), top]
                    .iter()
                    .map(|&ts| {
                        serial += 1;
                        entry(k - i, serial, ts)
                    })
                    .collect(),
            })
            .collect();
        assert_all_paths(&logs, &format!("K = {k}, span {top:#x}"));
    }
}

#[test]
fn sixty_five_thousand_one_entry_runs() {
    // One entry per run, so the time merge is a sort on (ts, node, input
    // index) and the log merge one on (node, input index); the scan would
    // take 2^32 steps.
    let mut rng = SplitMix64(0x6d65_7267_6536);
    let logs: Vec<LocalLog> = (0..65_536u32)
        .map(|i| {
            let node = rng.below(500) as u16;
            LocalLog {
                node: NodeId(node),
                entries: vec![entry(node, i, rng.below(4_000))],
            }
        })
        .collect();
    let mut order: Vec<usize> = (0..logs.len()).collect();
    order.sort_by_key(|&i| {
        (
            logs[i].entries[0].local_ts.map(LocalTs::get),
            logs[i].node,
            i,
        )
    });
    let expected: Vec<Event> = order.iter().map(|&i| logs[i].entries[0].event).collect();
    assert_eq!(merge_logs_kway(&logs).events, expected);
    assert_eq!(merge_logs_partitioned(&logs, 3).events, expected);
    order.sort_by_key(|&i| (logs[i].node, i));
    let expected: Vec<Event> = order.iter().map(|&i| logs[i].entries[0].event).collect();
    assert_eq!(merge_logs(&logs).events, expected);
    assert_eq!(events_of(&merge_logs_store(&logs)), expected);
}

// --- one packet's share of the merge -------------------------------------

/// `shape`'s soup as logs of distinct nodes — the shape every regrouping
/// of a record stream builds — listed in no particular order, with the
/// packet ids folded onto a few dozen, so that a packet's events span logs.
fn distinct_node_soup(rng: &mut SplitMix64, shape: Shape) -> Vec<LocalLog> {
    let mut logs = soup(rng, shape);
    for (i, log) in logs.iter_mut().enumerate() {
        log.node = NodeId(3 * i as u16 + 1);
        for e in &mut log.entries {
            let packet = PacketId::new(
                NodeId(e.event.packet.origin.0 % 4),
                e.event.packet.seqno % 13,
            );
            e.event = Event::new(log.node, e.event.kind, packet);
        }
    }
    shuffle(rng, &mut logs);
    logs
}

/// Fisher–Yates.
fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Where an entry sits in `merge_logs`' order: `position` is its place in
/// its own node's log. For logs of distinct nodes, a packet's group of the
/// merge is its entries sorted by this key — whatever order the logs are
/// listed in, and whatever their clocks read.
fn packet_order(position: u64, node: NodeId) -> (u64, NodeId) {
    (position, node)
}

/// Every packet's events sorted by `packet_order`, each entry keyed by its
/// position in its log: the grouping the merge should produce, built without
/// merging.
fn groups_by_packet_order(logs: &[LocalLog]) -> Vec<(PacketId, Vec<Event>)> {
    let mut keyed: Vec<_> = logs
        .iter()
        .flat_map(|log| log.entries.iter().enumerate().map(move |(i, e)| (log.node, i, e)))
        .map(|(node, i, e)| (e.event.packet, packet_order(i as u64, node), e.event))
        .collect();
    keyed.sort_by_key(|&(packet, key, _)| (packet, key));
    let mut groups: Vec<(PacketId, Vec<Event>)> = Vec::new();
    for (packet, _, event) in keyed {
        match groups.last_mut() {
            Some((id, events)) if *id == packet => events.push(event),
            _ => groups.push((packet, vec![event])),
        }
    }
    groups
}

/// The soup shapes a packet's share of the merge is checked over: all
/// timestamped, with clocks stepping back and with ties within and across
/// nodes; none; and mixed.
fn timestamp_shapes(logs: usize) -> impl Iterator<Item = Shape> {
    let max_len = if logs >= 300 { 6 } else { 60 };
    [
        (0, true, 1 << 20),
        (0, false, 64),
        (0, true, 1),
        (0, true, 3),
        (100, true, 8),
        (30, true, 8),
        (30, false, 8),
    ]
    .into_iter()
    .map(move |(untimed, sorted, ts_span)| Shape {
        logs,
        max_len,
        nodes: 1,
        ts_base: 0,
        ts_span,
        sorted,
        untimed,
    })
}

#[test]
fn a_packets_group_is_its_entries_in_packet_order() {
    let mut rng = SplitMix64(0x6d65_7267_653b);
    for logs in [1usize, 2, 7, 300] {
        for shape in timestamp_shapes(logs) {
            let soup = distinct_node_soup(&mut rng, shape);
            let grouped: Vec<(PacketId, Vec<Event>)> = merge_logs(&soup)
                .packet_index()
                .iter()
                .map(|(id, events)| (id, events.to_vec()))
                .collect();
            assert_eq!(
                grouped,
                groups_by_packet_order(&soup),
                "K = {logs}, {}% untimed, sorted {}, span {}",
                shape.untimed,
                shape.sorted,
                shape.ts_span
            );
        }
    }
}

#[test]
fn shuffling_the_logs_moves_no_merged_event() {
    let mut rng = SplitMix64(0x6d65_7267_653d);
    for logs in [2usize, 7, 300] {
        for shape in timestamp_shapes(logs) {
            let mut soup = distinct_node_soup(&mut rng, shape);
            let (merged, store) = (
                merge_logs(&soup).events,
                events_of(&merge_logs_store(&soup)),
            );
            for _ in 0..3 {
                shuffle(&mut rng, &mut soup);
                let what = format!("K = {logs}, {}% untimed", shape.untimed);
                assert_eq!(merge_logs(&soup).events, merged, "{what}");
                assert_eq!(events_of(&merge_logs_store(&soup)), store, "{what}");
            }
        }
    }
}

// --- grouping the logs where they lie ------------------------------------

/// `PacketIndex::group_logs(logs)` against `merge_logs(logs)`'s grouping:
/// the same ids and, per packet, as many events, node by node in the same
/// order — so the same multiset — where a node with several logs has them
/// log after log in input order (the merge interleaves them); and the rows
/// are the entries' own events, every entry once.
fn assert_grouped_where_they_lie(logs: &[LocalLog], what: &str) {
    let merged = merge_logs(logs).packet_index();
    let grouped = PacketIndex::group_logs(logs);
    assert_eq!(grouped.ids(), merged.ids(), "ids, {what}");
    assert_eq!(grouped.event_count(), merged.event_count(), "{what}");

    let mut rows: Vec<*const Event> = grouped
        .iter()
        .flat_map(|(_, rows)| rows.iter().map(|&e| e as *const Event))
        .collect();
    let mut entries: Vec<*const Event> = logs
        .iter()
        .flat_map(|log| log.entries.iter().map(|e| &e.event as *const Event))
        .collect();
    rows.sort_unstable();
    entries.sort_unstable();
    assert_eq!(rows, entries, "every row is its own entry, once, {what}");

    let on = |events: &[Event], node: NodeId| -> Vec<Event> {
        events.iter().filter(|e| e.node == node).copied().collect()
    };
    for ((id, rows), (_, expected)) in grouped.iter().zip(merged.iter()) {
        let got: Vec<Event> = rows.iter().map(|&&e| e).collect();
        assert_eq!(got.len(), expected.len(), "packet {id}, {what}");
        let mut nodes: Vec<NodeId> = expected.iter().map(|e| e.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        for node in nodes {
            let node_logs: Vec<&LocalLog> = logs.iter().filter(|log| log.node == node).collect();
            let want: Vec<Event> = if node_logs.len() == 1 {
                on(expected, node)
            } else {
                let events = node_logs.iter().flat_map(|log| log.events());
                events.filter(|e| e.packet == id).copied().collect()
            };
            assert_eq!(on(&got, node), want, "packet {id}, node {node}, {what}");
        }
    }
}

#[test]
fn grouping_the_logs_where_they_lie_keeps_each_nodes_order() {
    let mut rng = SplitMix64(0x6d65_7267_6541);
    for logs in [0usize, 1, 2, 7, 300] {
        for nodes in [logs.max(1) as u64, 3] {
            let shape = Shape {
                logs,
                max_len: if logs >= 300 { 6 } else { 40 },
                nodes,
                ..PLAIN
            };
            // Sparse ids: a few dozen origins, every seqno distinct.
            let sparse = soup(&mut rng, shape);
            assert_grouped_where_they_lie(&sparse, &format!("sparse, K = {logs}, {nodes} nodes"));
            // Dense ids: folded onto 4 × 13, on logs of distinct nodes.
            let dense = distinct_node_soup(&mut rng, shape);
            assert_grouped_where_they_lie(&dense, &format!("dense, K = {logs}"));
            // Two logs of every node: the dense soup, then each of its logs
            // reversed.
            let mut reversed = dense.clone();
            reversed.iter_mut().for_each(|log| log.entries.reverse());
            let twice: Vec<LocalLog> = dense.iter().chain(&reversed).cloned().collect();
            assert_grouped_where_they_lie(&twice, &format!("two logs a node, K = {logs}"));
        }
    }
    for (i, logs) in digest_soups().iter().enumerate() {
        assert_grouped_where_they_lie(logs, &format!("digest soup {i}"));
    }
}

// --- frozen digest -------------------------------------------------------

struct Digest(SplitMix64);

impl Digest {
    fn word(&mut self, w: u64) {
        self.0 .0 ^= w;
        self.0.next();
    }

    fn event(&mut self, e: &Event) {
        let b = encode_row(&LogEntry {
            event: *e,
            local_ts: None,
        });
        self.word(u64::from_le_bytes(
            b[..8].try_into().expect("8 of 16 bytes"),
        ));
        self.word(u64::from_le_bytes(
            b[8..16].try_into().expect("8 of 16 bytes"),
        ));
    }
}

/// The soups the digests run over: timestamps wide and narrow, some and
/// none, one run, unsorted, at fan-ins small and large.
fn digest_soups() -> Vec<Vec<LocalLog>> {
    let mut rng = SplitMix64(0x6d65_7267_6537);
    let shapes = [
        PLAIN,
        Shape { logs: 1, ..PLAIN },
        Shape {
            logs: 2,
            nodes: 1,
            ts_span: 3,
            ..PLAIN
        },
        Shape {
            logs: 40,
            nodes: 12,
            ts_span: 50,
            ..PLAIN
        },
        Shape {
            logs: 40,
            nodes: 12,
            sorted: false,
            ..PLAIN
        },
        Shape {
            logs: 12,
            untimed: 20,
            ..PLAIN
        },
        Shape {
            logs: 12,
            untimed: 100,
            ..PLAIN
        },
        Shape {
            logs: 9,
            ts_base: 0,
            ts_span: u64::MAX,
            ..PLAIN
        },
        Shape {
            logs: 300,
            max_len: 30,
            nodes: 300,
            ..PLAIN
        },
        Shape {
            logs: 1_200,
            max_len: 12,
            nodes: 1_000,
            ts_span: 1 << 30,
            ..PLAIN
        },
    ];
    shapes.iter().map(|&shape| soup(&mut rng, shape)).collect()
}

/// Frozen when `merge_logs` stopped reading clocks: the log merge went
/// from time order (every entry timestamped) or the round-robin in input
/// order (some not) to the round-robin in node order; the time merge's
/// bytes are unchanged.
const MERGED_DIGEST: u64 = 0x7e6c_4142_7c28_0a3c;
const GROUPED_DIGEST: u64 = 0xc0cb_7895_0d6d_8d0a;

#[test]
fn merged_and_grouped_bytes_are_the_frozen_ones() {
    let mut merged_digest = Digest(SplitMix64(1));
    let mut grouped_digest = Digest(SplitMix64(2));
    for logs in digest_soups() {
        let merged = merge_logs(&logs);
        let kway = merge_logs_kway(&logs);
        merged_digest.word(merged.len() as u64);
        for e in merged.events.iter().chain(&kway.events) {
            merged_digest.event(e);
        }
        let store = merge_logs_store(&logs);
        for entry in store.entries() {
            merged_digest.event(&entry.event);
            merged_digest.word(entry.local_ts.map_or(u64::MAX, LocalTs::get));
        }
        // Group on the node the event was logged on as well, for groups of
        // some depth (the packet ids of a soup are all distinct).
        let by_node: Vec<Event> = merged
            .events
            .iter()
            .map(|e| Event::new(e.node, e.kind, PacketId::new(e.node, e.packet.seqno % 7)))
            .collect();
        for events in [&merged.events, &by_node] {
            let index = PacketIndex::build(events);
            grouped_digest.word(index.len() as u64);
            for (id, group) in index.iter() {
                grouped_digest.word(u64::from(id.origin.0) << 32 | u64::from(id.seqno));
                grouped_digest.word(group.len() as u64);
                group.iter().for_each(|e| grouped_digest.event(e));
            }
            let columnar = ColumnarIndex::build(&EventStore::from_events(events));
            for (id, rows) in columnar.iter() {
                grouped_digest.word(u64::from(id.origin.0) << 32 | u64::from(id.seqno));
                rows.iter()
                    .for_each(|&row| grouped_digest.word(u64::from(row)));
            }
        }
    }
    let (merged, grouped) = (merged_digest.0.next(), grouped_digest.0.next());
    assert_eq!(
        (merged, grouped),
        (MERGED_DIGEST, GROUPED_DIGEST),
        "merged {merged:#018x}, grouped {grouped:#018x}"
    );
}

// --- index identity ------------------------------------------------------

/// Both indexes against the `by_packet()` grouping: the same ids, sorted,
/// and every group's events in merged order.
fn assert_indexes(events: Vec<Event>, what: &str) {
    let merged = MergedLog { events };
    let by_packet = merged.by_packet();
    let mut ids: Vec<PacketId> = by_packet.keys().copied().collect();
    ids.sort_unstable();

    let index = merged.packet_index();
    assert_eq!(index.ids(), ids.as_slice(), "PacketIndex ids, {what}");
    assert_eq!(index.len(), ids.len());
    assert_eq!(index.event_count(), merged.len());

    let store = EventStore::from_events(&merged.events);
    let columnar = ColumnarIndex::build(&store);
    assert_eq!(columnar.ids(), ids.as_slice(), "ColumnarIndex ids, {what}");
    assert_eq!(columnar.event_count(), merged.len());

    for (i, id) in ids.iter().enumerate() {
        let expected = by_packet[id].as_slice();
        assert_eq!(
            index.group(i),
            (*id, expected),
            "PacketIndex group {id}, {what}"
        );
        assert_eq!(index.get(*id), Some(expected));
        let (columnar_id, rows) = columnar.group(i);
        assert_eq!(columnar_id, *id);
        assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "rows of {id} in merged order, {what}"
        );
        let events: Vec<Event> = rows
            .iter()
            .map(|&row| store.entries()[row as usize].event)
            .collect();
        assert_eq!(events, expected, "ColumnarIndex group {id}, {what}");
        assert_eq!(columnar.get(*id), Some(rows));
    }
    let absent = PacketId::new(NodeId(u16::MAX - 1), 77);
    assert_eq!(index.get(absent), None);
    assert_eq!(columnar.get(absent), None);
}

/// `n` events over ids drawn from `origins` × `seqnos`.
fn events_over(rng: &mut SplitMix64, n: usize, origins: &[u16], seqnos: &[u32]) -> Vec<Event> {
    (0..n)
        .map(|_| {
            let id = PacketId::new(
                NodeId(origins[rng.below(origins.len() as u64) as usize]),
                seqnos[rng.below(seqnos.len() as u64) as usize],
            );
            Event::new(NodeId(rng.below(50) as u16), kind(rng), id)
        })
        .collect()
}

#[test]
fn indexes_equal_the_by_packet_grouping() {
    let mut rng = SplitMix64(0x6d65_7267_6538);
    let dense_seqnos: Vec<u32> = (0..24).collect();
    let dense_origins: Vec<u16> = (1..40).collect();
    assert_indexes(
        events_over(&mut rng, 20_000, &dense_origins, &dense_seqnos),
        "dense ids",
    );
    assert_indexes(
        events_over(&mut rng, 3, &dense_origins, &dense_seqnos),
        "three events",
    );
    // A domain far larger than the input: the builds fall back to sorting.
    let sparse = [0, 1 << 31, u32::MAX];
    assert_indexes(
        events_over(&mut rng, 5_000, &[0, 9, u16::MAX], &sparse),
        "sparse ids",
    );
    assert_indexes(
        events_over(&mut rng, 5_000, &[u16::MAX], &[u32::MAX]),
        "the last id",
    );
    assert_indexes(
        events_over(&mut rng, 5_000, &[u16::MAX], &dense_seqnos),
        "the last origin",
    );
    // Dense but for one event.
    let mut mostly = events_over(&mut rng, 20_000, &dense_origins, &dense_seqnos);
    mostly.push(Event::new(
        NodeId(1),
        EventKind::Origin,
        PacketId::new(NodeId(3), u32::MAX),
    ));
    assert_indexes(mostly, "dense plus one far seqno");
    assert_indexes(
        events_over(&mut rng, 20_000, &[17], &[5]),
        "one packet holds every event",
    );
    assert_indexes(Vec::new(), "the empty log");
}

#[test]
fn indexes_of_merged_soups_equal_the_by_packet_grouping() {
    let mut rng = SplitMix64(0x6d65_7267_6539);
    let logs = soup(
        &mut rng,
        Shape {
            logs: 40,
            max_len: 200,
            nodes: 30,
            ..PLAIN
        },
    );
    // Fold the unique seqnos onto a few, so groups span logs.
    let events = merge_logs(&logs)
        .events
        .into_iter()
        .map(|e| {
            Event::new(
                e.node,
                e.kind,
                PacketId::new(e.packet.origin, e.packet.seqno % 11),
            )
        })
        .collect();
    assert_indexes(events, "merged soup");
}

// --- the shape of the index's cost ---------------------------------------

#[global_allocator]
static GLOBAL: netsim::alloc::Counting = netsim::alloc::Counting;

fn requested_by<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (out, requests) = netsim::alloc::requested_by(f);
    (out, requests.calls, requests.bytes)
}

#[test]
fn a_dense_index_is_built_without_a_sort() {
    // 2^18 events over 2^12 ids. Counting and scattering need the row
    // numbers, the ids, the offsets and two tables over the id domain (one
    // of them grown a few times), and `PacketIndex` the arena; a stable sort
    // of the arena would ask for at least half the arena again as scratch,
    // and growing ids and offsets by doubling for two dozen more requests.
    const EVENTS: usize = 1 << 18;
    let mut rng = SplitMix64(0x6d65_7267_653a);
    let origins: Vec<u16> = (0..64).collect();
    let seqnos: Vec<u32> = (0..64).collect();
    let events = events_over(&mut rng, EVENTS, &origins, &seqnos);
    let tables = 128 * 1024;

    let (index, calls, bytes) = requested_by(|| PacketIndex::build(&events));
    assert_eq!(index.len(), 1 << 12);
    let arena = EVENTS * std::mem::size_of::<Event>();
    assert!(calls <= 12, "PacketIndex::build made {calls} requests");
    assert!(
        bytes <= arena + arena / 4 + tables,
        "PacketIndex::build asked for {bytes} B"
    );

    let store = EventStore::from_events(&events);
    let (columnar, calls, bytes) = requested_by(|| ColumnarIndex::build(&store));
    assert_eq!(columnar.len(), 1 << 12);
    let perm = EVENTS * std::mem::size_of::<u32>();
    assert!(calls <= 12, "ColumnarIndex::build made {calls} requests");
    assert!(
        bytes <= perm + tables + perm / 8,
        "ColumnarIndex::build asked for {bytes} B"
    );
}
