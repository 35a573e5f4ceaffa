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
//! [`PacketIndex`] groups the merged events by packet with a counting sort.
//! For large inputs the merge and the index each run on two threads, every
//! thread on its own half of the rows.

use crate::columnar::EventStore;
use crate::event::{Event, PacketId};
use crate::logger::{LocalLog, LocalTs, LogEntry};
use netsim::fx::FxHashMap;
use netsim::NodeId;
use std::mem::MaybeUninit;
use std::sync::{Barrier, Mutex};

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
        PacketIndex::group_rows(&self.events, |e| e.packet)
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
    /// Build from an event stream: one counting sort (the one
    /// [`PacketIndex::group_rows`] runs over row numbers) copies every event
    /// straight to its place in the arena, on [`SCATTER_WORKERS`] threads
    /// from [`PARALLEL_SCATTER_ROWS`] events on.
    ///
    /// # Panics
    /// Panics if there are more than `u32::MAX` events.
    pub fn build(events: &[Event]) -> Self {
        PacketIndex::group_by_id(events, |e| e.packet, |_, e| *e, workers_for(events.len()))
    }
}

impl PacketIndex<u32> {
    /// Group row numbers by packet id, given each row's id: each packet's
    /// row numbers contiguous and ascending, packets in ascending id order.
    ///
    /// On one thread: `citysee::analyze` groups the merged log while the
    /// ground truth's grouping holds the other core. Two threads each there
    /// measured slower on `citysee-clean` (2 vCPUs, 4 pairs: `op_wall_s`
    /// median 0.316 → 0.333 s, faster in 1 pair; peak RSS 253 → 268 MiB).
    ///
    /// # Panics
    /// Panics if there are more than `u32::MAX` rows.
    pub fn group_rows<R: Sync>(rows: &[R], packet: impl Fn(&R) -> PacketId + Sync) -> Self {
        PacketIndex::group_by_id(rows, packet, |row, _| row, 1)
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
    /// Group `rows` by `packet(row)`, keeping `value(row number, row)` of
    /// each, every group in input order: the counting sort on `workers`
    /// threads ([`counting_sort`]) or, for sparse ids, a stable sort.
    fn group_by_id<R: Sync>(
        rows: &[R],
        packet: impl Fn(&R) -> PacketId + Sync,
        value: impl Fn(u32, &R) -> T + Sync,
        workers: usize,
    ) -> Self {
        let n = u32::try_from(rows.len()).expect("packet indexes address rows with u32");
        if let Some(index) = counting_sort(rows, &packet, &value, workers) {
            return index;
        }
        let mut sorted: Vec<(PacketId, T)> = rows
            .iter()
            .zip(0..n)
            .map(|(row, i)| (packet(row), value(i, row)))
            .collect();
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

/// Threads [`merge_logs`] and [`PacketIndex::build`] run on from
/// [`PARALLEL_SCATTER_ROWS`] rows on: two whatever the core count. Each
/// thread reads and writes its own half of the rows once, so the count is a
/// constant, not a core-count query: asking the process for its core count
/// allocates, and a fixed count keeps the stages' allocator requests the
/// same on every machine.
const SCATTER_WORKERS: usize = 2;

/// Rows below which [`merge_logs`] and [`PacketIndex::build`] run on one
/// thread. The index's old scatter broke even here (1.66 ms on one thread
/// against 2.11 on two at 132 k events, about even at 200 k); the merge
/// shares the bound rather than a second knob. On `trace-wide`'s 2.06 M
/// events (traced, 2 vCPUs) the merge takes 27–34 ms a call on two threads
/// against 44–56 on one, and the index 38–44 ms against 45–55 with both of
/// its old threads reading all the input.
const PARALLEL_SCATTER_ROWS: usize = 200_000;

/// The threads for a stage over `rows` rows.
fn workers_for(rows: usize) -> usize {
    if rows >= PARALLEL_SCATTER_ROWS {
        SCATTER_WORKERS
    } else {
        1
    }
}

/// A dense packet-id domain: every origin from 0 to the largest seen owns
/// `stride` slots in a row, one per seqno from 0 to the largest seen with
/// any origin.
///
/// Real ids are dense — every origin numbers its packets from 0, and they
/// originate at about one rate — so the domain is about as large as the
/// number of packets, far smaller than the number of events, and grouping
/// by id needs no comparison at all.
#[derive(Debug, Clone, Copy, Default)]
struct Domain {
    origins: usize,
    /// Slots per origin.
    stride: usize,
}

impl Domain {
    /// The smallest domain holding `ids`; `None` when a seqno is `u32::MAX`
    /// (its slot count would overflow).
    fn of(ids: impl Iterator<Item = PacketId>) -> Option<Domain> {
        let mut domain = Domain::default();
        for id in ids {
            domain.origins = domain.origins.max(id.origin.index() + 1);
            domain.stride = domain.stride.max(id.seqno.checked_add(1)? as usize);
        }
        Some(domain)
    }

    fn union(self, other: Domain) -> Domain {
        Domain {
            origins: self.origins.max(other.origins),
            stride: self.stride.max(other.stride),
        }
    }

    fn slots(self) -> u64 {
        self.origins as u64 * self.stride as u64
    }

    fn slot(self, id: PacketId) -> usize {
        id.origin.index() * self.stride + id.seqno as usize
    }

    /// Lay the groups out in id order: the ids that occur, ascending, and
    /// each one's offset among the grouped rows (plus the total, as the last
    /// offset). Every part's count of a slot becomes the place its first row
    /// with that id goes: after that id's rows from the parts before it, so
    /// each group keeps input order.
    fn layout(self, parts: &mut [Part]) -> (Vec<PacketId>, Vec<usize>) {
        let slots = self.slots() as usize;
        let groups = (0..slots)
            .filter(|&slot| parts.iter().any(|part| part.slots[slot] != 0))
            .count();
        let mut ids = Vec::with_capacity(groups);
        let mut offsets = Vec::with_capacity(groups + 1);
        let mut next = 0u32;
        for slot in 0..slots {
            let first = next;
            for part in parts.iter_mut() {
                next += std::mem::replace(&mut part.slots[slot], next);
            }
            if next != first {
                let (origin, seqno) = (slot / self.stride, slot % self.stride);
                ids.push(PacketId::new(NodeId(origin as u16), seqno as u32));
                offsets.push(first as usize);
            }
        }
        offsets.push(next as usize);
        (ids, offsets)
    }
}

/// One thread's share of a [`counting_sort`].
#[derive(Debug, Default)]
struct Part {
    /// The domain of the part's ids (`None`: a seqno of `u32::MAX`).
    domain: Option<Domain>,
    /// Per slot of the whole input's domain: how many of the part's rows
    /// carry its id; after [`Domain::layout`], where the next of them goes.
    slots: Vec<u32>,
}

/// What the threads of one [`counting_sort`] hand each other between steps.
struct Shared<T> {
    parts: Vec<Part>,
    /// The grouped rows, every part's written in place by its own thread.
    arena: Vec<T>,
}

/// Group `rows` by id with the parallel counting sort: `None` when the ids
/// are too sparse for a table over their domain (more than `4·N + 1024`
/// slots for N rows, or a seqno of `u32::MAX`), which nothing is allocated
/// for.
///
/// The rows are cut into `workers` parts of equal length, one per thread,
/// and each thread reads its own part three times: for its domain; then,
/// once every thread has its domain, to count its ids over theirs; then,
/// once the calling thread has laid the groups out from every part's
/// counts, to scatter its rows into the arena. A packet's rows from part 0
/// come first in its group, then those from part 1, so input order holds.
/// One spawn per extra thread, and a barrier between the steps.
///
/// On more than one thread, soundness rests on `packet` giving a row the
/// same id on every call, so that the parts' scatters meet the ranges their
/// counts laid out: [`PacketIndex::build`] passes a field read. On one
/// thread the final check alone proves every place written, which is why
/// [`PacketIndex::group_rows`], whose `packet` comes from its caller, runs
/// on one.
fn counting_sort<R: Sync, T: Copy + Send>(
    rows: &[R],
    packet: &(impl Fn(&R) -> PacketId + Sync),
    value: &(impl Fn(u32, &R) -> T + Sync),
    workers: usize,
) -> Option<PacketIndex<T>> {
    let n = rows.len();
    let shared = Mutex::new(Shared {
        parts: (0..workers).map(|_| Part::default()).collect(),
        arena: Vec::<T>::new(),
    });
    let lock = || shared.lock().expect("no thread of the sort panics");
    let barrier = Barrier::new(workers);
    // Nothing before the last barrier panics, so no thread waits at a
    // barrier one that panicked will never reach.
    let work = |w: usize| {
        let from = w * n / workers;
        let mine = &rows[from..(w + 1) * n / workers];
        lock().parts[w].domain = Domain::of(mine.iter().map(packet));
        barrier.wait();
        // Every thread reaches the same verdict on the same domains.
        let domain = lock()
            .parts
            .iter()
            .try_fold(Domain::default(), |all, part| Some(all.union(part.domain?)))
            .filter(|domain| domain.slots() <= n as u64 * 4 + 1024)?;
        let mut slots = vec![0u32; domain.slots() as usize];
        for row in mine {
            slots[domain.slot(packet(row))] += 1;
        }
        lock().parts[w].slots = slots;
        barrier.wait();
        let layout = (w == 0).then(|| {
            let mut shared = lock();
            shared.arena = Vec::with_capacity(n);
            (domain, domain.layout(&mut shared.parts))
        });
        barrier.wait();
        let (mut cursors, arena) = {
            let mut shared = lock();
            let cursors = std::mem::take(&mut shared.parts[w].slots);
            (cursors, shared.arena.as_mut_ptr())
        };
        for (row, i) in mine.iter().zip(from as u32..) {
            let at = &mut cursors[domain.slot(packet(row))];
            assert!((*at as usize) < n, "the scatter stays in the arena");
            // SAFETY: `at` is in the arena's capacity (checked). No other
            // thread writes it: the layout gave each (part, id) pair its own
            // range of the arena, as long as the part's count of the id, and
            // only this thread reads this part's rows, getting the ids its
            // count got (see above). `Vec::as_mut_ptr` pointers of the
            // threads may be mixed freely.
            unsafe { arena.add(*at as usize).write(value(i, row)) };
            *at += 1;
        }
        lock().parts[w].slots = cursors;
        layout
    };
    let layout = if workers == 1 {
        work(0)
    } else {
        std::thread::scope(|scope| {
            for w in 1..workers {
                let work = &work;
                scope.spawn(move || work(w));
            }
            work(0)
        })
    };
    let (domain, (ids, offsets)) = layout?;
    let Shared { parts, mut arena } = shared.into_inner().expect("no thread of the sort panicked");
    // The last part's range of a group ends where the group does: its
    // cursor, which moved one row per write, ends at the next group's
    // offset when it wrote every row it counted.
    let last = &parts[workers - 1].slots;
    for (g, id) in ids.iter().enumerate() {
        assert_eq!(
            last[domain.slot(*id)] as usize,
            offsets[g + 1],
            "the scatter met the rows the count did"
        );
    }
    // SAFETY: every part scattered each of its rows to a place of its own
    // below `n`, and the parts hold `n` rows together, so all of the first
    // `n` elements were written; the arena was made with room for `n`. With
    // one part, the check above proves it whatever `packet` returns: every
    // group's cursor walked its whole range.
    unsafe { arena.set_len(n) };
    Some(PacketIndex {
        rows: arena,
        ids,
        offsets,
    })
}

/// Merge local logs into one stream: round-robin, one entry from every log
/// that still has one per pass, the logs visited in node-id order (logs of
/// one node in input order). Each node's own order is preserved exactly, and
/// no timestamp is read. From [`PARALLEL_SCATTER_ROWS`] entries on, the
/// passes are merged in two ranges, one per thread ([`merge_round_robin`]).
pub fn merge_logs(logs: &[LocalLog]) -> MergedLog {
    let events = merge_round_robin(logs, workers_for(total_entries(logs)), |e| e.event);
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

/// [`merge_logs`] keeping whole entries: the same engine and order, each
/// event with its local timestamp.
pub fn merge_logs_store(logs: &[LocalLog]) -> EventStore {
    let entries = merge_round_robin(logs, workers_for(total_entries(logs)), |e| *e);
    EventStore { entries }
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

/// [`merge_logs`]' order, each entry written as `row(entry)`, its passes
/// cut into `workers` ranges of about equal rows, each merged on a thread of
/// its own into its own window of the output.
///
/// Pass k starts at row Σ min(len, k) over the logs, so the passes
/// `lo..hi` are every log's entries `lo..hi` in round-robin, written from
/// row Σ min(len, lo) on: the windows tile the output, and its bytes are
/// those of the one-range merge. A range ends at the first pass that starts
/// at or past its share of the rows.
fn merge_round_robin<T: Send>(
    logs: &[LocalLog],
    workers: usize,
    row: impl Fn(&LogEntry) -> T + Sync,
) -> Vec<T> {
    let runs = ranked_runs(logs);
    let start = |pass: usize| -> usize { runs.iter().map(|run| run.len().min(pass)).sum() };
    let longest = runs.iter().map(|run| run.len()).max().unwrap_or(0);
    let n = start(longest);
    let mut rows = Vec::with_capacity(n);
    let row = &row;
    std::thread::scope(|scope| {
        let mut window = &mut rows.spare_capacity_mut()[..n];
        let mut lo = 0;
        for w in 1..=workers {
            let (mut hi, mut past) = (lo, longest);
            while hi < past {
                let mid = (hi + past) / 2;
                if start(mid) < w * n / workers {
                    hi = mid + 1;
                } else {
                    past = mid;
                }
            }
            let (mine, rest) = std::mem::take(&mut window).split_at_mut(start(hi) - start(lo));
            let range: Vec<&[LogEntry]> = runs
                .iter()
                .map(|run| &run[run.len().min(lo)..run.len().min(hi)])
                .collect();
            if w == workers {
                round_robin_into(range, mine, row);
            } else {
                scope.spawn(move || round_robin_into(range, mine, row));
            }
            (window, lo) = (rest, hi);
        }
    });
    // SAFETY: each range filled its window (`round_robin_into` checks, and a
    // thread that panicked would have made the scope panic), the windows
    // tile the first `n` rows, and `rows` was made with room for `n`.
    unsafe { rows.set_len(n) };
    rows
}

/// The round-robin of `runs` written into `window` as `row(entry)`s, which
/// fills it exactly.
fn round_robin_into<T>(
    runs: Vec<&[LogEntry]>,
    window: &mut [MaybeUninit<T>],
    row: impl Fn(&LogEntry) -> T,
) {
    let mut slots = window.iter_mut();
    merge_round_robin_each(runs, |e| {
        slots
            .next()
            .expect("a window holds its range's entries")
            .write(row(e));
    });
    assert!(slots.next().is_none(), "a range fills its window");
}

/// The round-robin interleave: one entry from each live run per pass, the
/// runs in the order given. Exhausted runs are dropped from the rotation on
/// the spot, so a pass costs the number of *live* runs — the original
/// version re-scanned all K logs every pass, an O(N·K) tail whenever a few
/// long logs outlived many short ones.
fn merge_round_robin_each(mut active: Vec<&[LogEntry]>, mut emit: impl FnMut(&LogEntry)) {
    active.retain(|entries| !entries.is_empty());
    while !active.is_empty() {
        active.retain_mut(|entries| {
            let (first, rest) = entries.split_first().expect("live runs are not empty");
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
fn round_robin_reference_entries(logs: &[LocalLog]) -> Vec<LogEntry> {
    let mut logs: Vec<&LocalLog> = logs.iter().collect();
    logs.sort_by_key(|log| log.node);
    let longest = logs.iter().map(|log| log.len()).max().unwrap_or(0);
    let mut out = Vec::new();
    for pass in 0..longest {
        out.extend(logs.iter().filter_map(|log| log.entries.get(pass)));
    }
    out
}

/// [`round_robin_reference_entries`]' events.
#[cfg(test)]
fn merge_round_robin_reference(logs: &[LocalLog]) -> Vec<Event> {
    let entries = round_robin_reference_entries(logs);
    entries.iter().map(|e| e.event).collect()
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

    /// The events of `store`'s entries, in order.
    pub(super) fn store_events(store: &EventStore) -> Vec<Event> {
        store.entries().iter().map(|e| e.event).collect()
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
        // 12k sorted events across 4 logs. The store must match the event
        // merge byte for byte and keep every event's own timestamp.
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
        assert_eq!(store_events(&store), merged.events);
        for LogEntry { event: e, local_ts } in store.entries() {
            assert_eq!(
                *local_ts,
                LocalTs::new(u64::from(e.packet.seqno) * 10 + u64::from(e.node.0 - 1))
            );
        }
        // One 24-byte entry per row, no spare capacity.
        assert_eq!(store.heap_bytes(), store.len() * 24);
    }

    #[test]
    fn store_merge_round_robin_fallback_matches() {
        // The store merge keeps a missing timestamp as missing.
        let a = LocalLog::from_events(NodeId(1), vec![ev(1, 0), ev(1, 1), ev(1, 2)]);
        let b = LocalLog::from_events(NodeId(2), vec![ev(2, 0)]);
        let store = merge_logs_store(&[a.clone(), b.clone()]);
        assert_eq!(store_events(&store), merge_logs(&[a, b]).events);
        assert_eq!(store.entries()[0].local_ts, None);
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
    use tests::store_events;

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
            // The store merge and the event merge share one engine, and
            // this pins it: the store's events are the merged events byte
            // for byte, and every row's timestamp is the one its event
            // carried in its source log (events are globally unique by
            // seqno construction, so the lookup is well-defined).
            let logs = build(&arb_spec(rng), false);
            let store = merge_logs_store(&logs);
            assert_eq!(store_events(&store), merge_logs(&logs).events);
            let ts_by_event: std::collections::HashMap<Event, Option<LocalTs>> = logs
                .iter()
                .flat_map(|l| l.entries.iter())
                .map(|e| (e.event, e.local_ts))
                .collect();
            for e in store.entries() {
                assert_eq!(e.local_ts, ts_by_event[&e.event]);
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
                assert_eq!(store_events(&store), merge_logs(&logs).events);
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
                    let index =
                        PacketIndex::group_by_id(&merged.events, |e| e.packet, |_, e| *e, workers);
                    assert_eq!(index.ids(), ids.as_slice(), "{workers} workers");
                    for (id, group) in index.iter() {
                        assert_eq!(group, by_packet[&id].as_slice(), "{id}, {workers} workers");
                    }
                    let grouped = PacketIndex::group_by_id(
                        &merged.events,
                        |e| e.packet,
                        |row, _| row,
                        workers,
                    );
                    assert_eq!(grouped.ids(), ids.as_slice(), "{workers} workers");
                    assert_eq!(grouped.rows, rows, "{workers} workers");
                }
            },
        );
    }

    #[test]
    fn the_merge_is_the_same_on_any_number_of_workers() {
        check(
            "the_merge_is_the_same_on_any_number_of_workers",
            64,
            &[],
            |rng| {
                // Node ids collide across logs, and logs may be empty.
                let logs = build(&arb_spec(rng), rng.gen_bool(0.5));
                assert_every_split_matches(&logs, "");
                let store = merge_logs_store(&logs);
                assert_eq!(store.entries(), round_robin_reference_entries(&logs));
            },
        );
    }

    /// Every split of the engine, writing events and writing entries,
    /// against the reference.
    fn assert_every_split_matches(logs: &[LocalLog], what: &str) {
        let entries = round_robin_reference_entries(logs);
        let events: Vec<Event> = entries.iter().map(|e| e.event).collect();
        for workers in 1..=4 {
            let merged = merge_round_robin(logs, workers, |e| e.event);
            assert_eq!(merged, events, "{what} {workers} workers");
            let stored = merge_round_robin(logs, workers, |e| *e);
            assert_eq!(stored, entries, "{what} {workers} workers, entries");
        }
    }

    /// Logs of the given `(node, length)`, every event's seqno unique and
    /// every other entry stamped with its seqno, backwards against the merge.
    fn logs_of(shape: &[(u16, u32)]) -> Vec<LocalLog> {
        shape
            .iter()
            .enumerate()
            .map(|(li, &(node, len))| {
                let node = NodeId(node);
                let first = li as u32 * 1000;
                let entries = (first..first + len).map(|s| LogEntry {
                    event: Event::new(node, EventKind::Origin, PacketId::new(node, s)),
                    local_ts: LocalTs::new(u64::from(u32::MAX - s)).filter(|_| s % 2 == 0),
                });
                LocalLog {
                    node,
                    entries: entries.collect(),
                }
            })
            .collect()
    }

    #[test]
    fn a_split_merge_matches_the_reference_at_its_edges() {
        let shapes: [&[(u16, u32)]; 6] = [
            // One log holds most rows: the cut falls deep in its tail.
            &[(1, 90), (2, 3), (3, 2), (4, 5)],
            // 10 rows; pass 2 starts at row 6, the first at or past 5, and
            // is the pass where nodes 1 and 2 run out.
            &[(1, 2), (2, 2), (3, 6)],
            // Empty logs, and K = 1 and 0.
            &[(1, 0), (2, 7), (3, 0)],
            &[(5, 9)],
            &[],
            // Two logs of one node, listed apart and out of node order.
            &[(3, 5), (1, 6), (3, 4)],
        ];
        for shape in shapes {
            let logs = logs_of(shape);
            assert_every_split_matches(&logs, &format!("{shape:?},"));
            let store = merge_logs_store(&logs);
            assert_eq!(store.entries(), round_robin_reference_entries(&logs), "{shape:?}");
        }
    }

    #[test]
    fn both_stages_split_above_the_threshold() {
        // 240 logs of 900 to 1 139 entries, whose packets each span many
        // logs: enough rows that the merge and the index run on two threads.
        // Every entry is stamped, and the clocks order the nodes backwards.
        let logs: Vec<LocalLog> = (0..240u16)
            .map(|node| {
                let len = 900 + u32::from(node);
                let entries = (0..len).map(|j| {
                    let origin = NodeId(((u32::from(node) + j) % 50) as u16);
                    LogEntry {
                        event: Event::new(
                            NodeId(node),
                            EventKind::Origin,
                            PacketId::new(origin, j / 4),
                        ),
                        local_ts: LocalTs::new(u64::from(j) * 240 + u64::from(239 - node)),
                    }
                });
                LocalLog {
                    node: NodeId(node),
                    entries: entries.collect(),
                }
            })
            .collect();
        assert!(total_entries(&logs) >= PARALLEL_SCATTER_ROWS);
        let merged = merge_logs(&logs);
        assert_eq!(merged.events, merge_round_robin_reference(&logs));
        let store = merge_logs_store(&logs);
        assert_eq!(store.entries(), round_robin_reference_entries(&logs));
        let index = merged.packet_index();
        let one = PacketIndex::group_by_id(&merged.events, |e| e.packet, |_, e| *e, 1);
        assert_eq!(index.ids, one.ids);
        assert_eq!(index.offsets, one.offsets);
        assert_eq!(index.rows, one.rows);
        let by_packet = merged.by_packet();
        assert_eq!(index.len(), by_packet.len());
        for (id, group) in index.iter() {
            assert_eq!(group, by_packet[&id].as_slice(), "{id}");
        }
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
