//! Merging per-node logs.
//!
//! The first step of the REFILL pipeline (Figure 1): "logs containing events
//! from different nodes are first merged with ordering of events from the
//! same node preserved." That per-node order is the *only* invariant, and the
//! cross-node order is built from nothing else: [`merge_logs`] interleaves
//! round-robin, the logs in node-id order, so an entry's place is (its
//! position in its own log, its node) — never a clock. Local timestamps are
//! unsynchronized and skewed by minutes; the merge does not read them, and
//! neither the order logs of distinct nodes are listed in nor what their
//! clocks say changes a merged event. Fixing the cross-node order within a
//! packet is REFILL's job, not the merge's.
//!
//! [`merge_logs_kway`] and [`merge_runs`] order by local time instead, for
//! readers that want it (store compaction, benchmarks): a **loser-tree
//! k-way merge**, a flat tournament tree over the K runs in which every node
//! holds the *key* `(local_ts, run)` of the contender that lost there, so a
//! pop reads one new key and replays its leaf-to-root path with a
//! `min`/`max` pair per level.
//!
//! [`PacketIndex`] groups the merged events by packet with a counting sort,
//! its scatter on two threads for large inputs.

use crate::columnar::EventStore;
use crate::event::{Event, PacketId};
use crate::logger::{LocalLog, LocalTs, LogEntry};
use netsim::fx::FxHashMap;
use netsim::NodeId;
use std::mem::MaybeUninit;

/// The merged event stream.
#[derive(Debug, Clone, Default)]
pub struct MergedLog {
    /// Events in merged order: each node's in recording order, nodes
    /// interleaved by per-node log position, ties by node id — never by a
    /// clock.
    pub events: Vec<Event>,
}

impl MergedLog {
    /// Group the merged events by packet, preserving merged order within
    /// each group (and therefore per-node recording order).
    ///
    /// This copies every event into per-packet `Vec`s; the reconstruction
    /// pipeline uses [`MergedLog::packet_index`] instead, which groups once
    /// into an arena and hands out zero-copy slices. Kept as the simple
    /// reference grouping (the tests check the index against it).
    pub fn by_packet(&self) -> FxHashMap<PacketId, Vec<Event>> {
        let mut out: FxHashMap<PacketId, Vec<Event>> = FxHashMap::default();
        for &e in &self.events {
            out.entry(e.packet).or_default().push(e);
        }
        out
    }

    /// Build a [`PacketIndex`]: one counting sort into an arena, then
    /// per-packet `&[Event]` slices in sorted-id order with no further
    /// copying. This is the grouping the reconstruction drivers use.
    pub fn packet_index(&self) -> PacketIndex {
        PacketIndex::build(&self.events)
    }

    /// The same grouping over row numbers into `events`, which it does not
    /// copy ([`PacketIndex::group_rows`]).
    pub fn packet_rows(&self) -> PacketIndex<u32> {
        PacketIndex::group_rows(self.events.iter().map(|e| e.packet))
    }

    /// All packet ids mentioned anywhere in the merged log, sorted and
    /// deduplicated (without materializing per-packet event groups).
    pub fn packet_ids(&self) -> Vec<PacketId> {
        self.packet_rows().ids
    }

    /// Number of merged events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events were collected at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Rows grouped by packet id, built with one counting sort.
///
/// Groups are in ascending id order and each group keeps input order — for a
/// merged log, merged order, and therefore every node's recording order (the
/// one hard input guarantee). Groups are exposed as slices in sorted-id
/// order.
///
/// Two row types are in use. [`MergedLog::packet_index`] copies every event
/// into the groups. [`PacketIndex::group_rows`] groups *row numbers* into a
/// table the caller keeps (the merged log, the ground truth, a columnar
/// store): 4 bytes a row instead of a second copy of the table.
#[derive(Debug, Clone)]
pub struct PacketIndex<T = Event> {
    /// All rows, grouped by packet id, each group in input order.
    rows: Vec<T>,
    /// Distinct packet ids, sorted ascending.
    ids: Vec<PacketId>,
    /// `offsets[i]..offsets[i + 1]` is packet `ids[i]`'s slice of `rows`;
    /// length is `ids.len() + 1`.
    offsets: Vec<usize>,
}

impl PacketIndex {
    /// Build from an event stream: every event is scattered straight to its
    /// place in the arena by the counting sort [`PacketIndex::group_rows`]
    /// runs over row numbers, on two threads from [`PARALLEL_SCATTER_ROWS`]
    /// events on.
    ///
    /// # Panics
    /// Panics if there are more than `u32::MAX` events.
    pub fn build(events: &[Event]) -> Self {
        let workers = if events.len() >= PARALLEL_SCATTER_ROWS {
            SCATTER_WORKERS
        } else {
            1
        };
        PacketIndex::group_by_id(events.iter().map(|e| (e.packet, *e)), workers)
    }
}

impl PacketIndex<u32> {
    /// Group row numbers by packet id, given each row's id: each packet's
    /// row numbers contiguous and ascending, packets in ascending id order.
    ///
    /// On one thread: a second would read every id again to write a quarter
    /// of an event's bytes per row, and saves nothing that way (measured on
    /// `trace-wide`'s merged log on 2 vCPUs, 2.08 M rows: 31.3 ms on one
    /// thread, 29.8 on two; 1.2 M rows: 18.0 and 18.6 ms).
    ///
    /// # Panics
    /// Panics if there are more than `u32::MAX` rows.
    pub fn group_rows(packets: impl ExactSizeIterator<Item = PacketId> + Clone + Send) -> Self {
        let n = u32::try_from(packets.len()).expect("packet indexes address rows with u32");
        PacketIndex::group_by_id(packets.zip(0..n), 1)
    }

    /// Packet `id`'s rows of `table`, the table whose row numbers were
    /// grouped, in input order (none if `id` has no rows).
    pub fn rows_of<'a, T>(&'a self, id: PacketId, table: &'a [T]) -> impl Iterator<Item = &'a T> {
        self.get(id)
            .unwrap_or(&[])
            .iter()
            .map(move |&row| &table[row as usize])
    }
}

impl<T: Copy + Send> PacketIndex<T> {
    /// Group `(packet id, row)` pairs by id, each group in input order.
    ///
    /// A counting sort over the dense `(origin, seqno)` domain — one pass
    /// for the domain, one to count, one to scatter the rows into the arena
    /// on `workers` threads ([`DenseIds::scatter`]) — or, for sparse ids, a
    /// stable sort.
    fn group_by_id(
        rows: impl ExactSizeIterator<Item = (PacketId, T)> + Clone + Send,
        workers: usize,
    ) -> Self {
        assert!(
            u32::try_from(rows.len()).is_ok(),
            "packet indexes address rows with u32"
        );
        if let Some(mut dense) = DenseIds::count(rows.clone().map(|(id, _)| id)) {
            let (ids, offsets) = dense.layout();
            let rows = dense.scatter(rows, &ids, &offsets, workers);
            return PacketIndex { rows, ids, offsets };
        }
        let mut sorted: Vec<(PacketId, T)> = rows.collect();
        sorted.sort_by_key(|&(id, _)| id);
        let mut ids: Vec<PacketId> = Vec::new();
        let mut offsets: Vec<usize> = Vec::new();
        for (i, &(id, _)) in sorted.iter().enumerate() {
            if ids.last() != Some(&id) {
                ids.push(id);
                offsets.push(i);
            }
        }
        offsets.push(sorted.len());
        let rows = sorted.into_iter().map(|(_, row)| row).collect();
        PacketIndex { rows, ids, offsets }
    }
}

impl<T> PacketIndex<T> {
    /// Number of distinct packets.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the log mentioned no packets at all.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Total number of indexed rows.
    pub fn event_count(&self) -> usize {
        self.rows.len()
    }

    /// The distinct packet ids, sorted ascending.
    pub fn ids(&self) -> &[PacketId] {
        &self.ids
    }

    /// The `i`-th group (in sorted-id order) as `(id, rows)`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn group(&self, i: usize) -> (PacketId, &[T]) {
        (self.ids[i], &self.rows[self.offsets[i]..self.offsets[i + 1]])
    }

    /// The rows of one packet, if it has any.
    pub fn get(&self, id: PacketId) -> Option<&[T]> {
        self.ids
            .binary_search(&id)
            .ok()
            .map(|i| &self.rows[self.offsets[i]..self.offsets[i + 1]])
    }

    /// Iterate `(id, rows)` groups in sorted-id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (PacketId, &[T])> + '_ {
        (0..self.ids.len()).map(move |i| self.group(i))
    }
}

/// A histogram of packet ids over a dense id domain: every origin from 0 to
/// the largest seen owns `stride` slots in a row, one per seqno from 0 to
/// the largest seen with any origin.
///
/// Real ids are dense — every origin numbers its packets from 0, and they
/// originate at about one rate — so the domain is about as large as the
/// number of packets, far smaller than the number of events, and grouping
/// by id needs no comparison at all.
struct DenseIds {
    /// Slots per origin.
    stride: usize,
    /// Per slot: how many rows carry the id; after [`DenseIds::layout`],
    /// where the id's next row goes.
    slots: Vec<u32>,
}

impl DenseIds {
    /// Count `packets` (at most `u32::MAX` of them: the counters are `u32`)
    /// over their domain. `None` when the domain would exceed `4·N + 1024`
    /// slots for N packets, or when a seqno is `u32::MAX` (its slot count
    /// would overflow): such ids are sorted instead.
    fn count(packets: impl ExactSizeIterator<Item = PacketId> + Clone) -> Option<DenseIds> {
        let budget = packets.len() as u64 * 4 + 1024;
        let (mut origins, mut stride) = (0u64, 0u64);
        for id in packets.clone() {
            origins = origins.max(id.origin.0 as u64 + 1);
            stride = stride.max(u64::from(id.seqno.checked_add(1)?));
        }
        if origins * stride > budget {
            return None;
        }
        let mut dense = DenseIds {
            stride: stride as usize,
            slots: vec![0; (origins * stride) as usize],
        };
        for id in packets {
            let slot = dense.slot(id);
            dense.slots[slot] += 1;
        }
        Some(dense)
    }

    fn slot(&self, id: PacketId) -> usize {
        id.origin.index() * self.stride + id.seqno as usize
    }

    /// The ids that occur, ascending, and each one's offset among the rows
    /// grouped by id (plus the total, as the last offset). Turns every
    /// slot's count into the offset of its id.
    fn layout(&mut self) -> (Vec<PacketId>, Vec<usize>) {
        let groups = self.slots.iter().filter(|&&rows| rows != 0).count();
        let mut ids = Vec::with_capacity(groups);
        let mut offsets = Vec::with_capacity(groups + 1);
        let mut next = 0u32;
        for (origin, slots) in self.slots.chunks_mut(self.stride.max(1)).enumerate() {
            for (seqno, at) in slots.iter_mut().enumerate() {
                let rows = std::mem::replace(at, next);
                if rows != 0 {
                    ids.push(PacketId::new(NodeId(origin as u16), seqno as u32));
                    offsets.push(next as usize);
                    next += rows;
                }
            }
        }
        offsets.push(next as usize);
        (ids, offsets)
    }

    /// The arena: every row at its place, given the groups [`DenseIds::layout`]
    /// made, written by `workers` threads. Each id's rows keep input order.
    ///
    /// The slots are cut into `workers` ranges of about equal rows, and each
    /// thread reads every row and writes those of its own slots into its own
    /// window of the arena: the windows need no lock, and the fresh arena's
    /// pages are first touched on every thread.
    fn scatter<T: Copy + Send>(
        mut self,
        rows: impl Iterator<Item = (PacketId, T)> + Clone + Send,
        ids: &[PacketId],
        offsets: &[usize],
        workers: usize,
    ) -> Vec<T> {
        let n = offsets.last().copied().unwrap_or(0);
        let mut arena = Vec::with_capacity(n);
        let stride = self.stride;
        std::thread::scope(|scope| {
            let mut cursors = self.slots.as_mut_slice();
            let mut window = &mut arena.spare_capacity_mut()[..n];
            // The rows before `base` and the slots before `from` are handed out.
            let (mut from, mut base) = (0, 0);
            for w in 1..workers {
                let split = cursors.partition_point(|&at| (at as usize) < w * n / workers);
                let end = cursors.get(split).map_or(n, |&at| at as usize);
                let (mine, rest) = std::mem::take(&mut cursors).split_at_mut(split);
                let (my_window, rest_window) = std::mem::take(&mut window).split_at_mut(end - base);
                let (rows, at) = (rows.clone(), (from, base));
                scope.spawn(move || scatter_slots(stride, at, mine, my_window, rows));
                (cursors, window, from, base) = (rest, rest_window, from + split, end);
            }
            scatter_slots(stride, (from, base), cursors, window, rows);
        });
        // Each slot's cursor started at its group's offset and moved one row
        // per write: a group whose cursor ends at the next group's offset
        // wrote every row of its range. The ranges tile the arena.
        for (g, id) in ids.iter().enumerate() {
            assert_eq!(
                self.slots[self.slot(*id)] as usize,
                offsets[g + 1],
                "the scatter met the rows the count did"
            );
        }
        // SAFETY: by the check above every one of the first `n` elements of
        // the arena was written, and the arena was made with room for `n`.
        unsafe { arena.set_len(n) };
        arena
    }
}

/// Threads [`PacketIndex::build`] scatters on, from [`PARALLEL_SCATTER_ROWS`]
/// events on: two whatever the core count. Every thread reads the whole
/// input, so one past the second adds a full read for a smaller share of
/// the writes; and a fixed count keeps the build's allocator requests the
/// same on every machine (asking the process for its core count allocates).
const SCATTER_WORKERS: usize = 2;

/// Events below which [`PacketIndex::build`] scatters on one thread: the
/// second thread's full read of the input costs more than its half of the
/// writes saves below this many. Measured on prefixes of `trace-wide`'s
/// merged log on 2 vCPUs: 1.66 ms on one thread against 2.11 on two at
/// 132 k events, about even at 200 k, 28.7 against 22.0 ms at 1.2 M.
const PARALLEL_SCATTER_ROWS: usize = 200_000;

/// Write every row of `rows` whose slot is in `from..from + cursors.len()`
/// to its place: `cursors` holds those slots' next positions in the arena,
/// whose rows from `base` on are `window`.
fn scatter_slots<T>(
    stride: usize,
    (from, base): (usize, usize),
    cursors: &mut [u32],
    window: &mut [MaybeUninit<T>],
    rows: impl Iterator<Item = (PacketId, T)>,
) {
    for (id, row) in rows {
        let slot = (id.origin.index() * stride + id.seqno as usize).wrapping_sub(from);
        if let Some(at) = cursors.get_mut(slot) {
            window[*at as usize - base].write(row);
            *at += 1;
        }
    }
}

/// Where an entry sits in [`merge_logs`]'s order: `position` is its place in
/// its own node's log (a `WatermarkTracker` fed that log gives it as
/// `Mark::records`). For logs of distinct nodes, a packet's group of the
/// merge is its entries sorted by this key — whatever order the logs are
/// listed in, and whatever their clocks read.
pub fn packet_order(position: u64, node: NodeId) -> (u64, NodeId) {
    (position, node)
}

/// Merge local logs into one stream: round-robin, one entry from every log
/// that still has one per pass, the logs visited in node-id order (logs of
/// one node in input order). Each node's own order is preserved exactly, and
/// no timestamp is read.
pub fn merge_logs(logs: &[LocalLog]) -> MergedLog {
    let mut events = Vec::with_capacity(total_entries(logs));
    merge_round_robin_each(logs, |e| events.push(e.event));
    MergedLog { events }
}

/// The loser-tree k-way merge on `(local_ts, node, input index)`, on one
/// thread, an entry without a timestamp sorting as 0: the order a reader
/// that wants local time gets (the merged clock is skewed and never feeds
/// reconstruction). Exposed for benchmarks and equivalence tests.
pub fn merge_logs_kway(logs: &[LocalLog]) -> MergedLog {
    let mut events = Vec::with_capacity(total_entries(logs));
    merge_ranked(&ranked_runs(logs), |e| events.push(e.event));
    MergedLog { events }
}

/// [`merge_logs_kway`] under the name the benchmark times; `partitions` is
/// ignored.
#[doc(hidden)]
pub fn merge_logs_partitioned(logs: &[LocalLog], _partitions: usize) -> MergedLog {
    merge_logs_kway(logs)
}

/// The fused columnar merge: [`merge_logs`]'s order, every selected entry
/// packed straight into a columnar [`EventStore`] (event and `ts` column
/// together) — no intermediate merged `Vec<Event>` is ever materialized.
pub fn merge_logs_store(logs: &[LocalLog]) -> EventStore {
    let mut store = EventStore::with_capacity(total_entries(logs));
    merge_round_robin_each(logs, |e| store.push_entry(e));
    store
}

fn total_entries(logs: &[LocalLog]) -> usize {
    logs.iter().map(LocalLog::len).sum()
}

/// Sort timestamp of an entry; entries without one sort first, like the
/// cursor scan's `unwrap_or(0)`.
fn ts_of(e: &LogEntry) -> u64 {
    e.local_ts.map_or(0, LocalTs::get)
}

/// The logs' entries as merge runs, in `(node, input index)` order: the
/// order both merges visit them in — the round-robin within a pass, the
/// time merge between equal timestamps.
fn ranked_runs(logs: &[LocalLog]) -> Vec<&[LogEntry]> {
    let mut ranked: Vec<&LocalLog> = logs.iter().collect();
    ranked.sort_by_key(|log| log.node);
    ranked
        .into_iter()
        .map(|log| log.entries.as_slice())
        .collect()
}

/// The loser-tree merge of `runs` (each in recording order) on
/// `(timestamp, run index)`, an entry without a timestamp sorting as 0 —
/// [`merge_logs_kway`]'s order, with the runs taken in the order given. A
/// run need not be in time order. This is how the segment store compacts:
/// each run is one segment's rows in the order they were appended.
pub fn merge_runs(runs: &[&[LogEntry]]) -> Vec<LogEntry> {
    let mut out = Vec::with_capacity(runs.iter().map(|run| run.len()).sum());
    merge_ranked(runs, |e| out.push(*e));
    out
}

/// How many entries ahead of the one just popped a run is prefetched.
const PREFETCH_AHEAD: usize = 4;

/// Ask for the cache line at `p`, which need not be a valid address.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `_mm_prefetch` is unsafe to call only because it is
        // compiled for the `sse` target feature, which every x86_64 CPU
        // has. The instruction is a hint: it reads and writes nothing the
        // program can observe and faults on no address, mapped or not.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(p.cast()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// The loser-tree tournament over `runs`, keyed `(timestamp, run index)`,
/// every selected entry handed to `emit`. No live key reaches the
/// exhausted run's `(u64::MAX, usize::MAX)`: no `LocalTs` holds `u64::MAX`.
///
/// Keys may fall within a run (raw local timestamps read backwards after a
/// clock step). Every pop then picks exactly the run that merging each
/// run's running-max keys would pick: when a run emits key `k`, every other
/// head is above `k`, so a head of that run that dips below `k` keeps
/// winning — as its running-max key, still `k`, would.
///
/// Flat-array tournament tree: internal node `v` in `1..k` holds the key
/// that *lost* the match played there, the overall winner is kept aside;
/// run `j`'s leaf is the virtual node `k + j`, and node `v`'s children are
/// `2v` and `2v + 1`. Popping the winner reads the popped run's next key
/// and replays its leaf-to-root path: at each node the smaller key keeps
/// climbing, the larger stays behind. No key is read twice, and the replay
/// has no branch that depends on the data. With K ≈ 1 200 runs the popped
/// run's next entry is a cache miss no hardware prefetcher hides, so each
/// pop prefetches that run's entry a few positions ahead.
fn merge_ranked(runs: &[&[LogEntry]], mut emit: impl FnMut(&LogEntry)) {
    const EXHAUSTED: (u64, usize) = (u64::MAX, usize::MAX);
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let k = runs.len();
    if total == 0 {
        return;
    }
    if k == 1 {
        runs[0].iter().for_each(emit);
        return;
    }
    let head = |run: usize, pos: usize| runs[run].get(pos).map_or(EXHAUSTED, |e| (ts_of(e), run));
    // Bottom-up tournament over the initial heads: winners bubble up a
    // scratch array, losers stay behind in `tree`. Handles any k, not just
    // powers of two, because leaves k..2k and internal nodes 1..k tile the
    // virtual heap exactly.
    let mut tree = vec![EXHAUSTED; k];
    let mut winners = vec![EXHAUSTED; 2 * k];
    for (run, leaf) in winners[k..].iter_mut().enumerate() {
        *leaf = head(run, 0);
    }
    for v in (1..k).rev() {
        let (a, b) = (winners[2 * v], winners[2 * v + 1]);
        winners[v] = a.min(b);
        tree[v] = a.max(b);
    }
    let mut top = winners[1];
    drop(winners);
    let mut pos = vec![0usize; k];
    for _ in 0..total {
        let run = top.1;
        let at = pos[run];
        emit(&runs[run][at]);
        pos[run] = at + 1;
        prefetch(runs[run].as_ptr().wrapping_add(at + 1 + PREFETCH_AHEAD));
        let mut key = head(run, at + 1);
        let mut v = (k + run) / 2;
        while v >= 1 {
            let loser = tree[v];
            tree[v] = key.max(loser);
            key = key.min(loser);
            v /= 2;
        }
        top = key;
    }
}

/// The round-robin interleave: one entry from each live log per pass, the
/// logs in [`ranked_runs`] order. Exhausted logs are dropped from the
/// rotation on the spot, so a pass costs the number of *live* logs — the
/// original version re-scanned all K logs every pass, an O(N·K) tail
/// whenever a few long logs outlived many short ones.
fn merge_round_robin_each(logs: &[LocalLog], mut emit: impl FnMut(&LogEntry)) {
    let mut active = ranked_runs(logs);
    active.retain(|entries| !entries.is_empty());
    while !active.is_empty() {
        active.retain_mut(|entries| {
            let (first, rest) = entries.split_first().expect("live logs are not empty");
            emit(first);
            *entries = rest;
            !rest.is_empty()
        });
    }
}

/// The original O(N·K) cursor scan, kept as the reference semantics the
/// loser tree must reproduce byte for byte. The tie-break the production
/// code encodes in its key — equal `(ts, node)` heads go to the earlier
/// cursor — is explicit here as a full `(ts, node, ci)` compare (the
/// original compared only `(ts, node)` and kept the first minimum, which
/// is the same selection).
#[cfg(test)]
fn merge_by_timestamp_reference(logs: &[LocalLog]) -> Vec<Event> {
    let total: usize = logs.iter().map(LocalLog::len).sum();
    let mut pos = vec![0usize; logs.len()];
    let mut out = Vec::with_capacity(total);
    for _ in 0..total {
        let mut best: Option<(u64, NodeId, usize)> = None;
        for (ci, log) in logs.iter().enumerate() {
            if let Some(entry) = log.entries.get(pos[ci]) {
                let key = (ts_of(entry), log.node, ci);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        let (_, _, ci) = best.expect("total counts the live entries");
        out.push(logs[ci].entries[pos[ci]].event);
        pos[ci] += 1;
    }
    out
}

/// The all-K-per-pass round-robin over the logs in node order, kept as the
/// reference the exhausted-log-dropping version must reproduce.
#[cfg(test)]
fn merge_round_robin_reference(logs: &[LocalLog]) -> Vec<Event> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::logger::LogEntry;

    fn ev(node: u16, seqno: u32) -> Event {
        Event::new(
            NodeId(node),
            EventKind::Origin,
            PacketId::new(NodeId(node), seqno),
        )
    }

    fn log_ts(node: u16, entries: &[(u32, u64)]) -> LocalLog {
        LocalLog {
            node: NodeId(node),
            entries: entries
                .iter()
                .map(|&(s, ts)| LogEntry {
                    event: ev(node, s),
                    local_ts: LocalTs::new(ts),
                })
                .collect(),
        }
    }

    fn node_order(merged: &MergedLog, node: u16) -> Vec<u32> {
        merged
            .events
            .iter()
            .filter(|e| e.node == NodeId(node))
            .map(|e| e.packet.seqno)
            .collect()
    }

    #[test]
    fn timestamp_merge_interleaves_and_preserves_node_order() {
        let a = log_ts(1, &[(0, 10), (1, 30)]);
        let b = log_ts(2, &[(0, 5), (1, 20)]);
        let merged = merge_logs_kway(&[a.clone(), b.clone()]);
        let nodes: Vec<u16> = merged.events.iter().map(|e| e.node.0).collect();
        assert_eq!(nodes, vec![2, 1, 2, 1]);
        assert_eq!(node_order(&merged, 1), vec![0, 1]);
        assert_eq!(node_order(&merged, 2), vec![0, 1]);
        // The log merge reads no clock: position, then node.
        let merged = merge_logs(&[b, a]);
        let nodes: Vec<u16> = merged.events.iter().map(|e| e.node.0).collect();
        assert_eq!(nodes, vec![1, 2, 1, 2]);
        assert_eq!(node_order(&merged, 1), vec![0, 1]);
        assert_eq!(node_order(&merged, 2), vec![0, 1]);
    }

    #[test]
    fn skewed_timestamps_still_preserve_per_node_order() {
        // Node 1's clock is wildly ahead; interleaving is wrong but each
        // node's own order must hold.
        let a = log_ts(1, &[(0, 1000), (1, 2000)]);
        let b = log_ts(2, &[(0, 1), (1, 2)]);
        let merged = merge_logs(&[a, b]);
        assert_eq!(node_order(&merged, 1), vec![0, 1]);
        assert_eq!(node_order(&merged, 2), vec![0, 1]);
    }

    #[test]
    fn round_robin_when_timestamps_missing() {
        let a = LocalLog::from_events(NodeId(1), vec![ev(1, 0), ev(1, 1)]);
        let b = LocalLog::from_events(NodeId(2), vec![ev(2, 0)]);
        let merged = merge_logs(&[a, b]);
        assert_eq!(merged.len(), 3);
        assert_eq!(node_order(&merged, 1), vec![0, 1]);
    }

    #[test]
    fn round_robin_drops_exhausted_logs_without_reordering() {
        // One long log, one short: after the short log drains, the long
        // log's remainder streams out back-to-back (exactly what the old
        // all-K rescan produced, minus the rescans).
        let a = LocalLog::from_events(NodeId(1), vec![ev(1, 0), ev(1, 1), ev(1, 2), ev(1, 3)]);
        let b = LocalLog::from_events(NodeId(2), vec![ev(2, 0)]);
        let merged = merge_logs(&[a.clone(), b.clone()]);
        let order: Vec<(u16, u32)> = merged
            .events
            .iter()
            .map(|e| (e.node.0, e.packet.seqno))
            .collect();
        assert_eq!(order, vec![(1, 0), (2, 0), (1, 1), (1, 2), (1, 3)]);
        assert_eq!(merged.events, merge_round_robin_reference(&[a, b]));
    }

    #[test]
    fn round_robin_staggered_exhaustion_matches_reference() {
        // Logs draining at very different rates: lengths 1, 5, 0, 3, 9 —
        // every pass of the rotation loses a different member, including
        // ones in the *middle* of the active vector (the retain_mut
        // compaction path), and the member that was empty from the start
        // never enters the rotation. The emitted order must still match
        // the all-K rescan reference byte for byte.
        let lens = [1usize, 5, 0, 3, 9];
        let logs: Vec<LocalLog> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                LocalLog::from_events(
                    NodeId(i as u16 + 1),
                    (0..len as u32).map(|s| ev(i as u16 + 1, s)),
                )
            })
            .collect();
        let merged = merge_logs(&logs);
        assert_eq!(merged.len(), lens.iter().sum::<usize>());
        assert_eq!(merged.events, merge_round_robin_reference(&logs));
        // Per-log order survives the compaction (the merge invariant).
        for log in &logs {
            let seqs: Vec<u32> = merged
                .events
                .iter()
                .filter(|e| e.node == log.node)
                .map(|e| e.packet.seqno)
                .collect();
            assert_eq!(seqs, (0..log.len() as u32).collect::<Vec<_>>());
        }
        // After the deepest log is alone, its tail streams contiguously.
        let tail: Vec<(u16, u32)> = merged.events[merged.len() - 4..]
            .iter()
            .map(|e| (e.node.0, e.packet.seqno))
            .collect();
        assert_eq!(tail, vec![(5, 5), (5, 6), (5, 7), (5, 8)]);
    }

    #[test]
    fn equal_ts_and_node_ties_break_by_cursor_order() {
        // Two logs claiming the same node and identical timestamps: the
        // earlier log in input order wins every tie. This pins the
        // tie-break the loser tree encodes in its (ts, node, cursor) key.
        let a = log_ts(7, &[(0, 50), (1, 50)]);
        let b = log_ts(7, &[(10, 50), (11, 50)]);
        let merged = merge_logs_kway(&[a.clone(), b.clone()]);
        let seqnos: Vec<u32> = merged.events.iter().map(|e| e.packet.seqno).collect();
        assert_eq!(seqnos, vec![0, 1, 10, 11]);
        assert_eq!(merged.events, merge_by_timestamp_reference(&[a, b]));
    }

    #[test]
    fn kway_handles_empty_and_single_inputs() {
        assert!(merge_logs_kway(&[]).is_empty());
        let lone = log_ts(3, &[(0, 5), (1, 6)]);
        assert_eq!(merge_logs_kway(std::slice::from_ref(&lone)).len(), 2);
        let with_empty = [LocalLog::from_events(NodeId(9), vec![]), lone.clone()];
        assert_eq!(
            merge_logs_kway(&with_empty).events,
            merge_by_timestamp_reference(&with_empty)
        );
    }

    #[test]
    fn large_fan_in_matches_reference() {
        // K = 300 single-digit logs: exercises non-power-of-two tournament
        // shapes far beyond what the properties' small K reaches (the
        // reference is O(N·K), so keep N small).
        let logs: Vec<LocalLog> = (0..300u16)
            .map(|i| log_ts(i % 40, &[(u32::from(i), u64::from(i % 17)), (u32::from(i) + 1000, 100 + u64::from(i))]))
            .collect();
        assert_eq!(
            merge_logs_kway(&logs).events,
            merge_by_timestamp_reference(&logs)
        );
        assert_eq!(merge_logs(&logs).events, merge_round_robin_reference(&logs));
    }

    #[test]
    fn store_merge_matches_vec_merge_and_reports_its_size() {
        // 12k sorted events across 4 logs. The fused store must match the
        // legacy merge byte for byte and keep the ts column row-aligned.
        let logs: Vec<LocalLog> = (0..4u16)
            .map(|i| LocalLog {
                node: NodeId(i + 1),
                entries: (0..3000u32)
                    .map(|j| LogEntry {
                        event: ev(i + 1, j),
                        local_ts: LocalTs::new(u64::from(j) * 10 + u64::from(i)),
                    })
                    .collect(),
            })
            .collect();
        let store = merge_logs_store(&logs);
        let merged = merge_logs(&logs);
        assert_eq!(store.to_events(), merged.events);
        for i in 0..store.len() {
            let e = store.event(i);
            assert_eq!(
                store.ts(i),
                LocalTs::new(u64::from(e.packet.seqno) * 10 + u64::from(e.node.0 - 1))
            );
        }
        // 16 bytes of record and 8 of timestamp per row.
        assert!(store.heap_bytes() >= store.len() * 24);
    }

    #[test]
    fn store_merge_round_robin_fallback_matches() {
        // The fused merge keeps a missing timestamp as missing.
        let a = LocalLog::from_events(NodeId(1), vec![ev(1, 0), ev(1, 1), ev(1, 2)]);
        let b = LocalLog::from_events(NodeId(2), vec![ev(2, 0)]);
        let store = merge_logs_store(&[a.clone(), b.clone()]);
        assert_eq!(store.to_events(), merge_logs(&[a, b]).events);
        assert_eq!(store.ts(0), None);
    }

    #[test]
    fn by_packet_groups_preserve_order() {
        let p = PacketId::new(NodeId(1), 0);
        let a = LocalLog::from_events(
            NodeId(1),
            vec![
                Event::new(NodeId(1), EventKind::Origin, p),
                Event::new(NodeId(1), EventKind::Trans { to: NodeId(2) }, p),
            ],
        );
        let b = LocalLog::from_events(
            NodeId(2),
            vec![Event::new(NodeId(2), EventKind::Recv { from: NodeId(1) }, p)],
        );
        let merged = merge_logs(&[a, b]);
        let groups = merged.by_packet();
        assert_eq!(groups.len(), 1);
        let evs = &groups[&p];
        assert_eq!(evs.len(), 3);
        let n1: Vec<_> = evs.iter().filter(|e| e.node == NodeId(1)).collect();
        assert!(matches!(n1[0].kind, EventKind::Origin));
        assert!(matches!(n1[1].kind, EventKind::Trans { .. }));
    }

    #[test]
    fn empty_input_merges_to_empty() {
        let merged = merge_logs(&[]);
        assert!(merged.is_empty());
        assert!(merged.packet_ids().is_empty());
    }

    #[test]
    fn packet_ids_sorted_and_deduped() {
        let a = LocalLog::from_events(NodeId(1), vec![ev(1, 5), ev(1, 2)]);
        let b = LocalLog::from_events(NodeId(2), vec![ev(2, 0)]);
        let merged = merge_logs(&[a, b]);
        let ids = merged.packet_ids();
        assert_eq!(
            ids,
            vec![
                PacketId::new(NodeId(1), 2),
                PacketId::new(NodeId(1), 5),
                PacketId::new(NodeId(2), 0)
            ]
        );
    }

    #[test]
    fn packet_index_matches_by_packet_grouping() {
        // Interleaved packets across two nodes; the index's slices must
        // equal the hashmap grouping exactly, in sorted-id order.
        let a = LocalLog::from_events(NodeId(1), vec![ev(1, 2), ev(1, 0), ev(1, 2)]);
        let b = LocalLog::from_events(NodeId(2), vec![ev(2, 1), ev(2, 1)]);
        let merged = merge_logs(&[a, b]);
        let by = merged.by_packet();
        let idx = merged.packet_index();
        assert_eq!(idx.len(), by.len());
        assert_eq!(idx.event_count(), merged.len());
        assert_eq!(idx.ids(), merged.packet_ids().as_slice());
        for (id, events) in idx.iter() {
            assert_eq!(events, by[&id].as_slice(), "group {id}");
            assert_eq!(idx.get(id), Some(events));
        }
        assert_eq!(idx.get(PacketId::new(NodeId(9), 9)), None);
    }

    #[test]
    fn packet_index_preserves_per_node_order_within_group() {
        // Two events of one packet on the same node, recorded in a known
        // order, with another packet's event between them in merged order:
        // the grouping must keep the per-node order.
        let p = PacketId::new(NodeId(1), 0);
        let q = PacketId::new(NodeId(1), 1);
        let merged = MergedLog {
            events: vec![
                Event::new(NodeId(1), EventKind::Origin, p),
                Event::new(NodeId(1), EventKind::Origin, q),
                Event::new(NodeId(1), EventKind::Trans { to: NodeId(2) }, p),
            ],
        };
        let idx = merged.packet_index();
        let evs = idx.get(p).unwrap();
        assert_eq!(evs.len(), 2);
        assert!(matches!(evs[0].kind, EventKind::Origin));
        assert!(matches!(evs[1].kind, EventKind::Trans { .. }));
    }

    #[test]
    fn empty_packet_index() {
        let idx = merge_logs(&[]).packet_index();
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.iter().count(), 0);
    }
}

#[cfg(test)]
mod merge_props {
    //! Byte-identity properties: the time merges reproduce the original
    //! cursor scan and the log merge the all-K round-robin in node order,
    //! exactly, across arbitrary log shapes, clock skews, duplicate and
    //! missing timestamps. Lives in-crate because the reference
    //! implementations are `#[cfg(test)]`-only.

    use super::*;
    use crate::event::EventKind;
    use netsim::prop::{check, vec_of};
    use netsim::Rng;

    /// Per log: a (node, timestamps) spec. Node ids collide across logs on
    /// purpose (tie-break coverage); the tight timestamp range forces
    /// duplicates within and across logs; `None` entries exercise the
    /// missing-timestamp semantics.
    type LogSpec = Vec<(u16, Vec<Option<u64>>)>;

    fn arb_spec(rng: &mut Rng) -> LogSpec {
        vec_of(rng, 0..7, |rng| {
            let node = rng.gen_range(0..5);
            (
                node,
                vec_of(rng, 0..32, |rng| {
                    rng.gen_bool(0.5).then(|| rng.gen_range(0..40))
                }),
            )
        })
    }

    /// Build logs from a spec, giving every event a globally unique seqno
    /// so any reordering shows up in an equality check. `sorted` sorts each
    /// log's timestamps (the shape real collectors produce).
    fn build(spec: &LogSpec, sorted: bool) -> Vec<LocalLog> {
        spec.iter()
            .enumerate()
            .map(|(li, (node, tss))| {
                let mut tss = tss.clone();
                if sorted {
                    tss.sort_by_key(|t| t.unwrap_or(0));
                }
                let node = NodeId(node + 1);
                LocalLog {
                    node,
                    entries: tss
                        .iter()
                        .enumerate()
                        .map(|(j, ts)| LogEntry {
                            event: Event::new(
                                node,
                                EventKind::Origin,
                                PacketId::new(node, (li * 1000 + j) as u32),
                            ),
                            local_ts: ts.and_then(LocalTs::new),
                        })
                        .collect(),
                }
            })
            .collect()
    }

    #[test]
    fn loser_tree_matches_cursor_scan() {
        check("loser_tree_matches_cursor_scan", 64, &[], |rng| {
            let logs = build(&arb_spec(rng), false);
            assert_eq!(
                merge_logs_kway(&logs).events,
                merge_by_timestamp_reference(&logs)
            );
        });
    }

    #[test]
    fn raw_timestamps_merge_as_their_running_max() {
        check(
            "raw_timestamps_merge_as_their_running_max",
            64,
            &[],
            |rng| {
                // Mostly every entry timestamped; the logs are unsorted, so
                // heads dip below keys already emitted.
                let mut logs = build(&arb_spec(rng), false);
                let fill = rng.gen_bool(0.75);
                for e in logs.iter_mut().flat_map(|l| &mut l.entries) {
                    if fill {
                        e.local_ts = e.local_ts.or(LocalTs::new(rng.gen_range(0..40)));
                    }
                }
                let mut climbed = logs.clone();
                for log in &mut climbed {
                    let mut max = 0;
                    for e in &mut log.entries {
                        if let Some(ts) = e.local_ts {
                            max = max.max(ts.get());
                            e.local_ts = LocalTs::new(max);
                        }
                    }
                }
                assert_eq!(
                    merge_logs_kway(&logs).events,
                    merge_logs_kway(&climbed).events
                );
            },
        );
    }

    #[test]
    fn partitioned_matches_cursor_scan_on_sorted_logs() {
        check(
            "partitioned_matches_cursor_scan_on_sorted_logs",
            64,
            &[],
            |rng| {
                let logs = build(&arb_spec(rng), true);
                assert_eq!(
                    merge_logs_partitioned(&logs, rng.gen_range(1..6)).events,
                    merge_by_timestamp_reference(&logs)
                );
            },
        );
    }

    #[test]
    fn partitioned_falls_back_identically_on_unsorted_logs() {
        check(
            "partitioned_falls_back_identically_on_unsorted_logs",
            64,
            &[],
            |rng| {
                let logs = build(&arb_spec(rng), false);
                assert_eq!(
                    merge_logs_partitioned(&logs, rng.gen_range(1..6)).events,
                    merge_by_timestamp_reference(&logs)
                );
            },
        );
    }

    #[test]
    fn public_merge_matches_the_matching_reference() {
        check(
            "public_merge_matches_the_matching_reference",
            64,
            &[],
            |rng| {
                // Whatever the timestamps — all, some or none — the log
                // merge is the round-robin in node order.
                let logs = build(&arb_spec(rng), rng.gen_bool(0.5));
                assert_eq!(merge_logs(&logs).events, merge_round_robin_reference(&logs));
            },
        );
    }

    #[test]
    fn columnar_store_merge_matches_vec_merge() {
        check("columnar_store_merge_matches_vec_merge", 64, &[], |rng| {
            // The fused merge-into-store and the legacy merge share one
            // loser tree, and this pins it: unpacking the store yields the
            // merged events byte for byte, and every row's ts column entry
            // is the timestamp its event carried in its source log (events
            // are globally unique by seqno construction, so the lookup is
            // well-defined).
            let logs = build(&arb_spec(rng), false);
            let store = merge_logs_store(&logs);
            assert_eq!(store.to_events(), merge_logs(&logs).events);
            let ts_by_event: std::collections::HashMap<Event, Option<LocalTs>> = logs
                .iter()
                .flat_map(|l| l.entries.iter())
                .map(|e| (e.event, e.local_ts))
                .collect();
            for i in 0..store.len() {
                assert_eq!(store.ts(i), ts_by_event[&store.event(i)]);
            }
        });
    }

    #[test]
    fn store_merge_matches_vec_merge_on_sorted_logs() {
        check(
            "store_merge_matches_vec_merge_on_sorted_logs",
            64,
            &[],
            |rng| {
                let logs = build(&arb_spec(rng), true);
                let store = merge_logs_store(&logs);
                assert_eq!(store.to_events(), merge_logs(&logs).events);
            },
        );
    }

    /// `n` events, their ids drawn from `origins` × `seqnos`.
    fn events_over(rng: &mut Rng, n: usize, origins: &[u16], seqnos: &[u32]) -> Vec<Event> {
        (0..n)
            .map(|_| {
                let origin = NodeId(origins[rng.gen_range(0..origins.len())]);
                let seqno = seqnos[rng.gen_range(0..seqnos.len())];
                let node = NodeId(rng.gen_range(0..9));
                Event::new(
                    node,
                    EventKind::Trans { to: node },
                    PacketId::new(origin, seqno),
                )
            })
            .collect()
    }

    #[test]
    fn the_index_is_the_same_on_any_number_of_workers() {
        check(
            "the_index_is_the_same_on_any_number_of_workers",
            64,
            &[],
            |rng| {
                // Empty, sparse (sorted, not counted) or dense ids.
                let dense: Vec<u32> = (0..rng.gen_range(1..20)).collect();
                let n = rng.gen_range(0..600);
                let events = match rng.gen_range(0..4u32) {
                    0 => Vec::new(),
                    1 => events_over(rng, n, &[0, 3, u16::MAX], &[0, 1 << 31, u32::MAX]),
                    _ => events_over(rng, n, &[0, 1, 2, 5, 9], &dense),
                };
                let merged = MergedLog { events };
                let by_packet = merged.by_packet();
                let mut ids: Vec<PacketId> = by_packet.keys().copied().collect();
                ids.sort_unstable();
                // Row numbers grouped: each id's rows ascending.
                let mut rows: Vec<u32> = (0..merged.len() as u32).collect();
                rows.sort_by_key(|&row| merged.events[row as usize].packet);
                for workers in 1..=4 {
                    let index = PacketIndex::group_by_id(
                        merged.events.iter().map(|e| (e.packet, *e)),
                        workers,
                    );
                    assert_eq!(index.ids(), ids.as_slice(), "{workers} workers");
                    for (id, group) in index.iter() {
                        assert_eq!(group, by_packet[&id].as_slice(), "{id}, {workers} workers");
                    }
                    let packets = merged.events.iter().map(|e| e.packet);
                    let grouped =
                        PacketIndex::group_by_id(packets.zip(0..merged.len() as u32), workers);
                    assert_eq!(grouped.ids(), ids.as_slice(), "{workers} workers");
                    assert_eq!(grouped.rows, rows, "{workers} workers");
                }
            },
        );
    }

    #[test]
    fn round_robin_matches_reference() {
        check("round_robin_matches_reference", 64, &[], |rng| {
            let mut li = 0;
            let logs = vec_of(rng, 0..8, |rng| {
                li += 1;
                let node = NodeId(li);
                LocalLog {
                    node,
                    entries: (0..rng.gen_range(0..40u32))
                        .map(|j| LogEntry {
                            event: Event::new(node, EventKind::Origin, PacketId::new(node, j)),
                            local_ts: None,
                        })
                        .collect(),
                }
            });
            assert_eq!(merge_logs(&logs).events, merge_round_robin_reference(&logs));
        });
    }
}
