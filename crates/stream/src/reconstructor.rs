//! The streaming core: watermark windowing and convergent late handling
//! over one record per packet.
//!
//! [`StreamReconstructor::ingest`] absorbs each record into its packet's
//! window at once, and reports come out as [`PacketReport`]s when
//! [`StreamReconstructor::poll`] decides their windows have closed. How often
//! to poll is the caller's one cadence.
//!
//! ## Windowing
//!
//! A packet's window stays open while evidence may still plausibly arrive,
//! and closes once the evidence it names is in. Two things must hold:
//!
//! * **every contributing node** has moved its own [`Mark`] far enough past
//!   its last contribution ([`Lateness`]: a record quota or a local-time
//!   bound, whichever passes first);
//! * **every peer the window's events name that has not contributed** —
//!   REFILL's inter-node rules: `trans to B` needs B's `recv`, `recv from A`
//!   A's `trans` — has passed the moment it was named. The peer's log has
//!   reached a later hop with the naming node (each log arrives in order),
//!   or the peer's clock has reached the namer's reading, moved by the
//!   pair's learned clock offset, plus `Lateness::micros`. A peer not yet
//!   heard from, or not yet linked to the namer, is waited for; a pair
//!   without timestamps is not.
//!
//! The offsets are learned from the flows: the two ends of one hop (a
//! `recv` and the sender's `ack recvd`) are one hop delay apart in true
//! time, so their readings differ by the pair's offset, and a weighted
//! union-find over node potentials links every pair a chain of such hops
//! joins ([`StreamReconstructor::clock_offset`]). The rule decides only
//! *when* a window closes: a record arriving after its window closed
//! *reopens* the window and the packet is re-reconstructed.
//!
//! ## Wake-ups
//!
//! A sweep tests only the windows whose wait may be over. A window that
//! fails the rule watches the first condition it does not meet, and is
//! tested again when that condition can have become true. Only a record it
//! absorbs changes a window's own conditions, and that record's threshold
//! is itself a false condition to watch, so absorbing needs no test. What
//! the conditions read only moves one way: marks grow, a pair's reached hop
//! grows, a linked pair's offset never changes (the first edge is kept and a
//! union keeps the differences inside each set), and a node turns timed
//! once. So each wait has exact wake-ups, filed in the node table:
//!
//! * a contributor's threshold, queued at absorb time in its node's FIFO —
//!   marks arrive in order, so the thresholds do too, and the FIFO is popped
//!   as the node's mark passes them;
//! * a named peer's first record, a newer hop of the pair, or the union that
//!   links the pair; once linked, the peer's clock reaching the due reading.
//!
//! A wake-up runs the whole rule again, so waking too often costs a test and
//! never a close; a condition that turns true without one would be a missed
//! close.
//!
//! A window keeps its events in the order they were absorbed. That keeps
//! each node's own order, which is all the kernel reads: its report is the
//! same for every interleave of the nodes that keeps it. No clock enters
//! it. So, however the stream is interleaved and whatever its timestamps
//! read, a close is the batch answer over what was absorbed and
//! [`StreamReconstructor::finish`] the batch answer over everything
//! ingested; timestamps only move *when* a window closes.
//!
//! All per-packet state lives once, in one [`PacketState`]; a window is
//! reconstructed exactly once each time it closes (open → closed → reopened
//! → closed …) and never otherwise. Logs that trickle in over hours are the
//! same thing at a slower cadence: `ingest` a log's records, `finish()`,
//! repeat — `finish()` is re-enterable.
//!
//! ## What one close costs
//!
//! One kernel call, over the window's events where they lie. A re-closing
//! window's previous report goes back to the kernel first
//! ([`Reconstructor::recycle`]), so its successor is built in the same
//! vectors; and [`StreamReconstructor::poll_with`] lends each new report to
//! the caller where it lies. Only `poll` and `finish` clone.

use eventlog::frame::NodeRecord;
use eventlog::logger::LocalTs;
use eventlog::watermark::{Lateness, Mark};
use eventlog::{Event, EventKind, PacketId};
use netsim::fx::FxHashMap;
use netsim::{available_workers, NodeId};
use refill::parallel::par_map;
use refill::telemetry::{Counter, Hist, Recorder, Stage, StageTimer};
use refill::{PacketReport, Reconstructor};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::sync::{Arc, Mutex};

/// Rolling totals, independent of whether a telemetry recorder is attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Records absorbed into reconstruction state.
    pub records: u64,
    /// Windows closed (a reopened window counts again when it re-closes).
    pub windows_closed: u64,
    /// Windows reopened by records that arrived after they closed.
    pub windows_reopened: u64,
    /// Decoded batches the threaded driver found its bounded channel full
    /// for ([`crate::run_stream`] sets it; the reconstructor never stalls).
    pub backpressure: u64,
    /// Open windows tested against the close rule by mid-stream sweeps: the
    /// ones woken since the sweep before.
    pub window_tests: u64,
}

/// Everything the online path keeps about one packet.
struct PacketState {
    id: PacketId,
    /// The window's events in arrival order — what the kernel is handed at
    /// every close. The length doubles as the window's event count.
    events: Vec<Event>,
    /// Each contributing node (its slot in the node table) with its mark at
    /// its *last* contribution. A handful per packet, so a linear search
    /// beats a map.
    contributors: Vec<(u32, Mark)>,
    /// Every (node, peer) pair the window's events name. A named peer that
    /// has not contributed is waited for: `trans to B` needs B's `recv`,
    /// `recv from A` A's `trans`.
    named: Vec<Naming>,
    closed: bool,
    /// What the window waits on while it is open and not queued for a test.
    watch: Watch,
}

/// What `namer`'s records in one window say about `peer` (both node slots).
#[derive(Clone, Copy)]
struct Naming {
    namer: u32,
    peer: u32,
    /// The namer's mark at its latest record naming the peer, and whether
    /// that record carried a timestamp.
    since: Mark,
    timed: bool,
    /// Whether that record was the namer's end of a hop with the peer — its
    /// record of the frame from the peer (`recv`, `dup`, `overflow`) or of
    /// the peer's ack (`ack recvd`) — and if so, whether it was the ack.
    end: Option<bool>,
    /// Hop ends with the peer so far, up to 2: a packet that crossed the
    /// pair more than once has ends that need not belong together.
    ends: u8,
}

impl PacketState {
    /// Note that `node`, at `mark`, logged `kind` naming `peer`. Returns the
    /// two ends of a hop when this record completes one: `peer`'s end and
    /// this one, each the only end its node logged with the other, one the
    /// frame's arrival and the other its ack — a hop delay apart.
    fn name(
        &mut self,
        node: u32,
        peer: u32,
        kind: EventKind,
        mark: Mark,
        timed: bool,
    ) -> Option<[(u32, Mark); 2]> {
        let acked = matches!(kind, EventKind::AckRecvd { .. });
        let end = (acked || kind.is_receiver_side()).then_some(acked);
        let at = match self.named.iter().position(|w| (w.namer, w.peer) == (node, peer)) {
            Some(at) => at,
            None => {
                self.named.push(Naming {
                    namer: node,
                    peer,
                    since: mark,
                    timed,
                    end,
                    ends: 0,
                });
                self.named.len() - 1
            }
        };
        let mine = &mut self.named[at];
        (mine.since, mine.timed, mine.end) = (mark, timed, end);
        end?;
        mine.ends = (mine.ends + 1).min(2);
        if mine.ends > 1 {
            return None;
        }
        let theirs = self.named.iter().find(|w| (w.namer, w.peer) == (peer, node))?;
        (theirs.ends == 1 && theirs.end == Some(!acked))
            .then_some([(peer, theirs.since), (node, mark)])
    }

    fn contributed(&self, node: u32) -> bool {
        self.contributors.iter().any(|&(at, _)| at == node)
    }
}

/// The one condition an open window that failed the close rule waits on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Watch {
    /// Closed, or queued for a test at the next sweep.
    Idle,
    /// A contributor's mark passing the contribution `records` counts.
    Contributor { node: u32, records: u64 },
    /// The named `peer` of `namer`; the wake-ups filed for this wait carry
    /// the tag.
    Peer { tag: u32, namer: u32, peer: u32 },
}

/// What a wake-up reports: a node's mark passed one of its contributions,
/// or a named-peer wait's condition moved.
#[derive(Clone, Copy)]
enum Wake {
    Passed { node: u32, records: u64 },
    Peer(u32),
}

impl Watch {
    /// Is this the wait `wake` is for?
    fn woken_by(self, wake: Wake) -> bool {
        match (self, wake) {
            (Watch::Contributor { node, records }, Wake::Passed { node: n, records: r }) => {
                (node, records) == (n, r)
            }
            (Watch::Peer { tag, .. }, Wake::Peer(t)) => tag == t,
            _ => false,
        }
    }
}

/// A named-peer wake-up as the lists file it: the window's slot and its
/// wait's tag.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Wait {
    slot: u32,
    tag: u32,
}

impl Wait {
    /// Is `w` the wait its window is in? A wake-up that is not is stale.
    fn current(self, packets: &[PacketState]) -> bool {
        packets[self.slot as usize].watch.woken_by(Wake::Peer(self.tag))
    }
}

/// A named-peer wait as its lists file it: the wake-up, the namer, and the
/// namer's record count at the naming, which the pair's reached hop must
/// pass.
#[derive(Clone, Copy)]
struct Filed {
    w: Wait,
    namer: u32,
    since: u64,
}

/// The windows the next sweep tests.
#[derive(Default)]
struct Wakes {
    /// Exactly the open windows whose wait is [`Watch::Idle`].
    woken: Vec<u32>,
    /// The tag of the latest named-peer wait. It may wrap: a stale wake-up
    /// that matches by accident only costs a test.
    tag: u32,
}

impl Wakes {
    /// Queue window `slot` for the next sweep if `wake` is for the wait it
    /// is in; a wake-up that is not is stale.
    fn fire(&mut self, packets: &mut [PacketState], slot: u32, wake: Wake) {
        let packet = &mut packets[slot as usize];
        if packet.watch.woken_by(wake) {
            packet.watch = Watch::Idle;
            self.woken.push(slot);
        }
    }

    /// A new tag for `slot`'s wait on `namer`'s named `peer`.
    fn wait(&mut self, slot: u32, namer: u32, peer: u32) -> (Wait, Watch) {
        self.tag = self.tag.wrapping_add(1);
        let tag = self.tag;
        (Wait { slot, tag }, Watch::Peer { tag, namer, peer })
    }
}

/// Marks a missing list cell or parent.
const NONE: u32 = u32::MAX;

/// A FIFO list whose cells live in a [`Cells`] arena.
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl Default for List {
    fn default() -> Self {
        List {
            head: NONE,
            tail: NONE,
        }
    }
}

/// One arena for many FIFO lists of `T`: a freed cell is reused, so the
/// lists together ask the allocator for memory only as their peak total
/// grows.
struct Cells<T> {
    cells: Vec<(T, u32)>,
    free: u32,
}

impl<T: Copy> Cells<T> {
    fn new() -> Self {
        Cells {
            cells: Vec::new(),
            free: NONE,
        }
    }

    fn push(&mut self, list: &mut List, item: T) {
        let at = if self.free == NONE {
            self.cells.push((item, NONE));
            self.cells.len() as u32 - 1
        } else {
            let at = self.free;
            self.free = self.cells[at as usize].1;
            self.cells[at as usize] = (item, NONE);
            at
        };
        match list.tail {
            NONE => list.head = at,
            tail => self.cells[tail as usize].1 = at,
        }
        list.tail = at;
    }

    fn pop(&mut self, list: &mut List) -> Option<T> {
        let at = list.head;
        if at == NONE {
            return None;
        }
        let (item, next) = self.cells[at as usize];
        list.head = next;
        if next == NONE {
            list.tail = NONE;
        }
        self.cells[at as usize].1 = self.free;
        self.free = at;
        Some(item)
    }
}

/// Everything the stream keeps about one node.
///
/// What every absorbed record reads and writes comes first, in one cache
/// line; the rest is read per wait.
#[repr(C, align(64))]
struct Node {
    /// Records absorbed so far and the newest reading among them.
    mark: Mark,
    /// The node's contributions its mark has not passed yet: each record's
    /// window with the mark at it, oldest first, so the front passes first.
    thresholds: VecDeque<(u32, Mark)>,
    /// The soonest reading in `due` (`u64::MAX`: none).
    next_due: u64,
    /// Whether one of the records carried a timestamp.
    timed: bool,
    /// Clock offsets as a weighted union-find over node potentials: the
    /// parent's slot (the node's own at a root) and `potential(node) −
    /// potential(parent)`.
    up: u32,
    diff: i64,
    /// Named-peer waits for the node's first record.
    first: List,
    /// At a root: named-peer waits whose peer is in this set and whose namer
    /// is not, with the namer.
    unlinked: List,
    /// Named-peer waits for the node's clock to reach a reading, soonest
    /// first.
    due: BinaryHeap<Reverse<(u64, Wait)>>,
}

/// Why a window does not close yet: the first condition of the rule it
/// fails.
enum Unmet {
    /// A contributor's mark has not passed its last contribution.
    Contributor { node: u32, records: u64 },
    /// A named peer has delivered nothing.
    First { namer: u32, peer: u32, since: u64 },
    /// A named peer is heard but not linked to the namer, nor has its log
    /// reached a hop the namer logged after its record count `since`.
    Unlinked { namer: u32, peer: u32, since: u64 },
    /// A linked peer's clock is short of the due reading (`None`: past
    /// every reading), and its log has not reached such a hop either.
    Due { namer: u32, peer: u32, since: u64, due: Option<u64> },
}

/// The node table: every per-node fact, and what the flows have taught about
/// pairs of nodes — how their clocks differ and how far their logs have come.
///
/// Offsets are fed one edge per hop whose two ends both carry a reading:
/// `ts(b) − ts(a)` is the pair's offset up to one hop delay. The first edge
/// that joins two sets is kept; later edges between linked nodes add nothing.
struct Nodes {
    /// `NodeId` → slot + 1, 0 for a node not seen: a `NodeId` is a `u16`, so
    /// this interns without hashing. It grows to the largest id seen.
    slot_of: Vec<u32>,
    nodes: Vec<Node>,
    /// For each ordered pair `(a, b)` of slots that shared a hop or is waited
    /// on: the largest record count `a` had at its end of one — `b`'s log
    /// has reached that hop — and the least count a wait on the pair needs
    /// it to pass (`u64::MAX`: none).
    reached: FxHashMap<(u32, u32), (u64, u64)>,
    /// Named-peer waits for a pair's reached hop to pass a record count:
    /// `(namer, peer, since, wait)`, so a pair's waits sort by what they need.
    reach_waits: BTreeSet<(u32, u32, u64, Wait)>,
    /// The cells of every list of named-peer waits: `first`, `unlinked` and
    /// each pair's `waits`.
    waits: Cells<Filed>,
}

impl Nodes {
    fn new() -> Self {
        Nodes {
            slot_of: Vec::new(),
            nodes: Vec::new(),
            reached: FxHashMap::default(),
            reach_waits: BTreeSet::new(),
            waits: Cells::new(),
        }
    }

    fn slot(&self, id: NodeId) -> Option<u32> {
        self.slot_of.get(usize::from(id.0))?.checked_sub(1)
    }

    fn intern(&mut self, id: NodeId) -> u32 {
        if let Some(slot) = self.slot(id) {
            return slot;
        }
        let slot = self.nodes.len() as u32;
        let at = usize::from(id.0);
        if at >= self.slot_of.len() {
            self.slot_of.resize(at + 1, 0);
        }
        self.slot_of[at] = slot + 1;
        self.nodes.push(Node {
            mark: Mark::default(),
            thresholds: VecDeque::new(),
            next_due: u64::MAX,
            timed: false,
            up: slot,
            diff: 0,
            first: List::default(),
            unlinked: List::default(),
            due: BinaryHeap::new(),
        });
        slot
    }

    fn mark(&self, node: u32) -> Mark {
        self.nodes[node as usize].mark
    }

    /// Absorb one record of `node` stamped `ts` into its mark, and wake what
    /// the move fulfils: waits for its first record, for its clock, and the
    /// contributions it has now passed.
    fn advance(
        &mut self,
        node: u32,
        ts: Option<LocalTs>,
        lateness: Lateness,
        packets: &mut [PacketState],
        wakes: &mut Wakes,
    ) -> Mark {
        let Nodes {
            nodes,
            reached,
            reach_waits,
            waits,
            ..
        } = self;
        let at = &mut nodes[node as usize];
        let before = at.mark;
        let mark = at.mark.advance(ts);
        at.timed |= ts.is_some();
        if before.records == 0 {
            // A timed first record leaves a wait for a union or a later hop:
            // no record of the node linked it or reached a hop before.
            let mut first = std::mem::take(&mut at.first);
            while let Some(filed) = waits.pop(&mut first) {
                if ts.is_none() {
                    wakes.fire(packets, filed.w.slot, Wake::Peer(filed.w.tag));
                } else if filed.w.current(packets) {
                    let least = &mut reached.entry((filed.namer, node)).or_insert((0, u64::MAX)).1;
                    *least = (*least).min(filed.since);
                    reach_waits.insert((filed.namer, node, filed.since, filed.w));
                    waits.push(&mut at.unlinked, filed);
                }
            }
        }
        if mark.ts_us >= at.next_due {
            while let Some(&Reverse((due, w))) = at.due.peek() {
                if due > mark.ts_us {
                    break;
                }
                at.due.pop();
                wakes.fire(packets, w.slot, Wake::Peer(w.tag));
            }
            at.next_due = at.due.peek().map_or(u64::MAX, |&Reverse((due, _))| due);
        }
        while let Some(&(slot, since)) = at.thresholds.front() {
            if !lateness.passed(mark, since) {
                break;
            }
            at.thresholds.pop_front();
            let records = since.records;
            wakes.fire(packets, slot, Wake::Passed { node, records });
        }
        mark
    }

    /// Queue `node`'s contribution at `mark` to window `slot` unless the mark
    /// has already passed it; returns whether it was queued.
    fn contributed(&mut self, node: u32, slot: u32, mark: Mark, lateness: Lateness) -> bool {
        let pending = !lateness.passed(mark, mark);
        if pending {
            self.nodes[node as usize].thresholds.push_back((slot, mark));
        }
        pending
    }

    /// `node`'s root and `potential(node) − potential(root)`.
    fn root(&self, mut node: u32) -> (u32, i64) {
        let mut sum = 0i64;
        loop {
            let at = &self.nodes[node as usize];
            if at.up == node {
                return (node, sum);
            }
            sum = sum.wrapping_add(at.diff);
            node = at.up;
        }
    }

    /// [`Nodes::root`], pointing every node on the way at the root.
    fn compress(&mut self, node: u32) -> (u32, i64) {
        let (root, sum) = self.root(node);
        let (mut at, mut rest) = (node, sum);
        while at != root {
            let n = &mut self.nodes[at as usize];
            let (up, d) = (n.up, n.diff);
            (n.up, n.diff) = (root, rest);
            (at, rest) = (up, rest.wrapping_sub(d));
        }
        (root, sum)
    }

    /// Note one hop's two ends, each a node and its mark there, and wake the
    /// waits on the pair.
    fn hop(&mut self, ends: [(u32, Mark); 2], packets: &mut [PacketState], wakes: &mut Wakes) {
        let [(a, at_a), (b, at_b)] = ends;
        const FIRST: Wait = Wait { slot: 0, tag: 0 };
        for (x, y, at) in [(a, b, at_a), (b, a, at_b)] {
            let (reached, least) = self.reached.entry((x, y)).or_insert((0, u64::MAX));
            *reached = (*reached).max(at.records);
            if *least >= *reached {
                continue;
            }
            let passed = (x, y, 0, FIRST)..(x, y, *reached, FIRST);
            while let Some(&wait) = self.reach_waits.range(passed.clone()).next() {
                self.reach_waits.remove(&wait);
                wakes.fire(packets, wait.3.slot, Wake::Peer(wait.3.tag));
            }
            let rest = self.reach_waits.range((x, y, 0, FIRST)..(x, y + 1, 0, FIRST)).next();
            *least = rest.map_or(u64::MAX, |&(_, _, since, _)| since);
        }
        // A reading of 0 is a clock still clamped at zero, not a time.
        if at_a.ts_us > 0 && at_b.ts_us > 0 {
            if let Ok(d) = i64::try_from(i128::from(at_b.ts_us) - i128::from(at_a.ts_us)) {
                self.link(a, b, d, packets, wakes);
            }
        }
    }

    /// Has `b`'s log reached a hop that `a` logged after `since`? Each log
    /// is in order, so `b` has logged what it had to say of `a`'s earlier
    /// hops.
    fn reached(&self, a: u32, b: u32, since: Mark) -> bool {
        self.reached.get(&(a, b)).is_some_and(|&(at, _)| at > since.records)
    }

    /// Note that `b`'s clock reads `d` µs ahead of `a`'s, and wake the waits
    /// the union links. Sums wrap, which is exact modulo 2^64: every offset
    /// that fits an `i64` comes out right.
    fn link(&mut self, a: u32, b: u32, d: i64, packets: &mut [PacketState], wakes: &mut Wakes) {
        let ((ra, da), (rb, db)) = (self.compress(a), self.compress(b));
        if ra == rb {
            return;
        }
        let child = &mut self.nodes[rb as usize];
        (child.up, child.diff) = (ra, d.wrapping_add(da).wrapping_sub(db));
        let mut kept = List::default();
        for root in [rb, ra] {
            let mut list = std::mem::take(&mut self.nodes[root as usize].unlinked);
            while let Some(filed) = self.waits.pop(&mut list) {
                if !filed.w.current(packets) {
                    continue;
                }
                if self.root(filed.namer).0 == ra {
                    wakes.fire(packets, filed.w.slot, Wake::Peer(filed.w.tag));
                } else {
                    self.waits.push(&mut kept, filed);
                }
            }
        }
        self.nodes[ra as usize].unlinked = kept;
    }

    /// How far `b`'s clock reads ahead of `a`'s, once the two are linked.
    fn offset(&self, a: u32, b: u32) -> Option<i64> {
        let ((ra, da), (rb, db)) = (self.root(a), self.root(b));
        (ra == rb).then_some(db.wrapping_sub(da))
    }

    /// Why `w.peer` has not passed the moment `w.namer` named it in
    /// `packet`, or `None` when it has. It has when it contributed; or it has
    /// delivered something and the pair has no timestamps; or its log has
    /// reached a later hop with the namer; or its clock reached the namer's
    /// reading then, moved into the peer's clock by their learned offset,
    /// plus `lateness.micros` — a record the peer logged for the hop lies
    /// before that point in its log, which arrives in order. A peer not yet
    /// heard from, or not yet linked to the namer, is waited for.
    fn waiting(&self, packet: &PacketState, w: &Naming, lateness: Lateness) -> Option<Unmet> {
        let (namer, peer) = (w.namer, w.peer);
        if packet.contributed(peer) {
            return None;
        }
        let now = self.mark(peer);
        if now.records == 0 {
            let since = w.since.records;
            return w.timed.then_some(Unmet::First { namer, peer, since });
        }
        if !w.timed || !self.nodes[peer as usize].timed || self.reached(namer, peer, w.since) {
            return None;
        }
        let since = w.since.records;
        let Some(off) = self.offset(namer, peer) else {
            return Some(Unmet::Unlinked { namer, peer, since });
        };
        let due = i128::from(w.since.ts_us) + i128::from(off) + i128::from(lateness.micros);
        (i128::from(now.ts_us) < due).then(|| {
            let due = u64::try_from(due).ok();
            Unmet::Due { namer, peer, since, due }
        })
    }

    /// The first condition of the close rule `packet` fails, or `None` when
    /// it closes: every named peer that has not contributed has passed the
    /// moment it was named, and every contributor its last contribution.
    fn unmet(&self, packet: &PacketState, lateness: Lateness) -> Option<Unmet> {
        if let Some(unmet) = packet.named.iter().find_map(|w| self.waiting(packet, w, lateness)) {
            return Some(unmet);
        }
        for &(node, since) in &packet.contributors {
            if !lateness.passed(self.mark(node), since) {
                let records = since.records;
                return Some(Unmet::Contributor { node, records });
            }
        }
        None
    }

    /// File `slot`'s wait on `unmet`, which is false now, where the event
    /// that can make it true will find it, and return the wait.
    fn watch(&mut self, slot: u32, unmet: Unmet, wakes: &mut Wakes) -> Watch {
        let (namer, peer, since) = match unmet {
            Unmet::Contributor { node, records } => {
                // Its threshold sits in the node's FIFO since it was absorbed.
                return Watch::Contributor { node, records };
            }
            Unmet::First { namer, peer, since } => {
                let (w, watch) = wakes.wait(slot, namer, peer);
                let filed = Filed { w, namer, since };
                self.waits.push(&mut self.nodes[peer as usize].first, filed);
                return watch;
            }
            Unmet::Unlinked { namer, peer, since } | Unmet::Due { namer, peer, since, .. } => {
                (namer, peer, since)
            }
        };
        let (w, watch) = wakes.wait(slot, namer, peer);
        let filed = Filed { w, namer, since };
        let least = &mut self.reached.entry((namer, peer)).or_insert((0, u64::MAX)).1;
        *least = (*least).min(since);
        self.reach_waits.insert((namer, peer, since, w));
        match unmet {
            Unmet::Unlinked { .. } => {
                let root = self.root(peer).0;
                self.waits.push(&mut self.nodes[root as usize].unlinked, filed);
            }
            Unmet::Due { due: Some(due), .. } => {
                let at = &mut self.nodes[peer as usize];
                at.due.push(Reverse((due, w)));
                at.next_due = at.next_due.min(due);
            }
            _ => {}
        }
        watch
    }
}

/// Fewer closing windows than this are reconstructed on the calling thread:
/// forking workers for a handful costs more than the reconstructions.
const PAR_MIN_WINDOWS: usize = 8;

/// Online reconstruction over a stream of per-node log records.
pub struct StreamReconstructor {
    lateness: Lateness,
    recorder: Arc<dyn Recorder>,
    recon: Reconstructor,
    nodes: Nodes,
    /// Where each packet's state sits in `packets`.
    slots: FxHashMap<PacketId, u32>,
    packets: Vec<PacketState>,
    /// The wake-ups since the last sweep, and the windows it tests.
    wakes: Wakes,
    /// Windows open now.
    open: usize,
    /// Scratch for a sweep's closing windows, with their packet ids.
    closing: Vec<(PacketId, u32)>,
    /// Each packet's report as of its last close, by slot; kept out of
    /// `packets` so that growing that slab moves small records only. `None`
    /// until the first close, and inside a sweep while the window's previous
    /// report is away being rebuilt.
    reports: Vec<Option<PacketReport>>,
    stats: StreamStats,
}

impl StreamReconstructor {
    /// Wrap a configured batch [`Reconstructor`], closing windows at the
    /// default [`Lateness`].
    pub fn new(recon: Reconstructor) -> Self {
        StreamReconstructor::with_lateness(recon, Lateness::default())
    }

    /// Wrap, closing a window once every contributor is `lateness` past it
    /// and every peer it names has passed it (the module's "Windowing").
    pub fn with_lateness(recon: Reconstructor, lateness: Lateness) -> Self {
        StreamReconstructor {
            lateness,
            recorder: Arc::clone(recon.recorder()),
            recon,
            nodes: Nodes::new(),
            slots: FxHashMap::default(),
            packets: Vec::new(),
            wakes: Wakes::default(),
            open: 0,
            closing: Vec::new(),
            reports: Vec::new(),
            stats: StreamStats::default(),
        }
    }

    /// The telemetry recorder shared with the wrapped reconstructor.
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    /// Rolling totals.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Windows currently open.
    pub fn open_windows(&self) -> usize {
        self.open
    }

    /// Absorb one record: advance its node's mark, wake the waits that
    /// fulfils, and append it to its packet's window (opening or reopening
    /// it, and queueing it for a test). Each node's records must come in its
    /// log's order; how the nodes interleave decides no report.
    pub fn ingest(&mut self, rec: NodeRecord) {
        let node = self.nodes.intern(rec.node);
        self.stats.records += 1;
        self.recorder.add(Counter::StreamRecords, 1);
        let lateness = self.lateness;
        let wakes = &mut self.wakes;
        let mark = self.nodes.advance(node, rec.entry.local_ts, lateness, &mut self.packets, wakes);
        let timed = rec.entry.local_ts.is_some();
        let id = rec.entry.event.packet;
        let (packets, reports) = (&mut self.packets, &mut self.reports);
        let slot = *self.slots.entry(id).or_insert_with(|| {
            packets.push(PacketState {
                id,
                events: Vec::new(),
                contributors: Vec::new(),
                named: Vec::new(),
                closed: true,
                watch: Watch::Idle,
            });
            reports.push(None);
            packets.len() as u32 - 1
        });
        let packet = &mut packets[slot as usize];
        let reopened = packet.closed;
        if packet.closed {
            // A new window, or a closed one this record reopens.
            packet.closed = false;
            self.open += 1;
            if !packet.events.is_empty() {
                self.stats.windows_reopened += 1;
                self.recorder.add(Counter::WindowsReopened, 1);
            }
        }
        match packet.contributors.iter_mut().find(|(at, _)| *at == node) {
            Some((_, since)) => *since = mark,
            None => packet.contributors.push((node, mark)),
        }
        let pending = self.nodes.contributed(node, slot, mark, lateness);
        let kind = rec.entry.event.kind;
        let named = kind.peer().filter(|&peer| peer != rec.node);
        let named = named.map(|peer| self.nodes.intern(peer));
        let hop = named.and_then(|peer| packet.name(node, peer, kind, mark, timed));
        packet.events.push(rec.entry.event);
        // What the record changed: its node's contribution, which the node's
        // mark has not passed yet unless the lateness has no record quota, and
        // its naming of `named`. A named-peer wait stays false unless the
        // record is the peer's own or names it again without a timestamp (a
        // later timed naming only moves the wait further). Else the window
        // waits on a timed naming of a peer not heard from, or on the new
        // contribution, or is tested if that has passed already.
        let kept = match packet.watch {
            Watch::Idle => !reopened,
            Watch::Contributor { .. } => false,
            Watch::Peer { namer, peer, .. } => {
                peer != node && (timed || (namer, Some(peer)) != (node, named))
            }
        };
        if !kept {
            let silent = named.filter(|&peer| {
                timed && self.nodes.mark(peer).records == 0 && !packet.contributed(peer)
            });
            packet.watch = match silent {
                Some(peer) => {
                    let since = mark.records;
                    let unmet = Unmet::First { namer: node, peer, since };
                    self.nodes.watch(slot, unmet, wakes)
                }
                None if pending => {
                    let records = mark.records;
                    Watch::Contributor { node, records }
                }
                None => {
                    wakes.woken.push(slot);
                    Watch::Idle
                }
            };
        }
        if let Some(hop) = hop {
            self.nodes.hop(hop, &mut self.packets, wakes);
        }
    }

    /// How far `b`'s clock reads ahead of `a`'s, as learned from the flows
    /// so far: `None` until some chain of hops links the two nodes. Each
    /// link is one hop's pair of readings, so an offset is exact up to the
    /// hop delays and clock drift along that chain.
    pub fn clock_offset(&self, a: NodeId, b: NodeId) -> Option<i64> {
        match (self.nodes.slot(a), self.nodes.slot(b)) {
            (Some(a), Some(b)) => self.nodes.offset(a, b),
            _ => (a == b).then_some(0),
        }
    }

    /// Sweep the woken windows, close the ones whose contributors and named
    /// peers have moved past them, reconstruct exactly those packets, and
    /// return their reports (in packet-id order), cloned: the stream keeps
    /// its own. Returns at once when no window was woken since the last
    /// sweep.
    pub fn poll(&mut self) -> Vec<PacketReport> {
        let mut closed = Vec::new();
        self.poll_with(|report| closed.push(report.clone()));
        closed
    }

    /// [`StreamReconstructor::poll`] without the copies: each closed
    /// window's report is lent to `emit` (in packet-id order) where the
    /// stream keeps it.
    pub fn poll_with(&mut self, emit: impl FnMut(&PacketReport)) {
        if !self.wakes.woken.is_empty() {
            self.sweep(false, emit);
        }
    }

    /// End of stream — or of one log in a slower feed: close every open
    /// window, reconstruct those packets, and return the full converged
    /// report set (in packet-id order) — identical to a batch reconstruction
    /// of every record ever ingested. More records may follow; they reopen
    /// their windows.
    pub fn finish(&mut self) -> Vec<PacketReport> {
        self.sweep(true, |_| {});
        self.reports()
    }

    /// Close the woken windows whose contributors and named peers have moved
    /// past them — with `all`, every open window — and file a wait for each
    /// woken one that stays open. Reconstruct each closing window exactly
    /// once, in packet-id order: in parallel when there are enough to pay
    /// for the workers, each into the vectors of the window's previous report
    /// when it has one. The new reports replace the old in `reports` and are
    /// lent to `emit` in that order.
    fn sweep(&mut self, all: bool, mut emit: impl FnMut(&PacketReport)) {
        let recorder = Arc::clone(&self.recorder);
        let span = StageTimer::start(&*recorder, Stage::Window);
        #[cfg(test)]
        let scanned = self.scan(all);
        let lateness = self.lateness;
        let (nodes, wakes, packets) = (&mut self.nodes, &mut self.wakes, &mut self.packets);
        // The closing windows by packet id, in a buffer kept between sweeps.
        let mut closing = std::mem::take(&mut self.closing);
        let mut woken = std::mem::take(&mut wakes.woken);
        if all {
            let open = packets.iter().enumerate().filter(|(_, packet)| !packet.closed);
            closing.extend(open.map(|(slot, packet)| (packet.id, slot as u32)));
        } else {
            self.stats.window_tests += woken.len() as u64;
            for &slot in &woken {
                let packet = &packets[slot as usize];
                match nodes.unmet(packet, lateness) {
                    None => closing.push((packet.id, slot)),
                    Some(unmet) => packets[slot as usize].watch = nodes.watch(slot, unmet, wakes),
                }
            }
        }
        woken.clear();
        wakes.woken = woken;
        for &(_, slot) in &closing {
            let packet = &mut packets[slot as usize];
            (packet.closed, packet.watch) = (true, Watch::Idle);
        }
        #[cfg(test)]
        {
            let mut closed: Vec<u32> = closing.iter().map(|&(_, slot)| slot).collect();
            closed.sort_unstable();
            assert_eq!(closed, scanned, "the woken windows close what a scan of every open one does");
        }
        closing.sort_unstable();
        for &(_, slot) in &closing {
            recorder.observe(Hist::WindowEvents, packets[slot as usize].events.len() as u64);
        }
        self.open -= closing.len();
        self.stats.windows_closed += closing.len() as u64;
        recorder.add(Counter::WindowsClosed, closing.len() as u64);
        // The reconstructions and `emit` are their own stages, not window time.
        drop(span);
        // Each closing window's previous report leaves its place for
        // whichever worker rebuilds it; the lock is that hand-over, taken once
        // and never contended.
        let reports = &mut self.reports;
        let previous: Vec<Mutex<Option<PacketReport>>> = closing
            .iter()
            .map(|&(_, slot)| Mutex::new(reports[slot as usize].take()))
            .collect();
        let workers = if closing.len() < PAR_MIN_WINDOWS {
            1
        } else {
            available_workers()
        };
        let (recon, packets) = (&self.recon, &self.packets);
        let rebuilt = par_map(closing.len(), workers, || (), |_, i| {
            let packet = &packets[closing[i].1 as usize];
            let previous = previous[i]
                .lock()
                .expect("a worker takes the report and lets go at once")
                .take();
            if let Some(previous) = previous {
                recon.recycle(previous);
            }
            recon.reconstruct_packet(packet.id, &packet.events)
        });
        for (report, &(_, slot)) in rebuilt.into_iter().zip(&closing) {
            emit(reports[slot as usize].insert(report));
        }
        closing.clear();
        self.closing = closing;
    }

    /// The current report for one packet (as of its last reconstruction).
    pub fn report(&self, id: PacketId) -> Option<&PacketReport> {
        self.reports[*self.slots.get(&id)? as usize].as_ref()
    }

    /// Heap bytes held by the per-packet evidence — the memory a
    /// long-running stream actually retains between polls (one event per
    /// record, plus unamortized vector capacity).
    pub fn packed_event_bytes(&self) -> usize {
        self.packets
            .iter()
            .map(|p| p.events.capacity() * std::mem::size_of::<Event>())
            .sum()
    }

    /// Every current report, cloned, in packet-id order.
    pub fn reports(&self) -> Vec<PacketReport> {
        let mut reported: Vec<&PacketReport> = self.reports.iter().flatten().collect();
        reported.sort_unstable_by_key(|report| report.packet);
        reported.into_iter().cloned().collect()
    }
}

/// The close rule as it was before the wake-ups: a scan that tests every
/// open window. Each sweep asserts that the woken windows close exactly the
/// windows this closes.
#[cfg(test)]
impl StreamReconstructor {
    /// The slots a scan of every open window closes, ascending.
    fn scan(&self, all: bool) -> Vec<u32> {
        let (lateness, links) = (self.lateness, &self.nodes);
        let mut closes = Vec::new();
        for (slot, packet) in self.packets.iter().enumerate().filter(|(_, p)| !p.closed) {
            let passed = |&(node, since): &(u32, Mark)| lateness.passed(links.mark(node), since);
            let contributed = |peer| packet.contributors.iter().any(|&(node, _)| node == peer);
            let heard = |w: &Naming| contributed(w.peer) || links.passed(w, lateness);
            if all || packet.contributors.iter().all(passed) && packet.named.iter().all(heard) {
                closes.push(slot as u32);
            }
        }
        closes
    }
}

#[cfg(test)]
impl Nodes {
    /// Has `w.peer`, which has not contributed, moved past the moment
    /// `w.namer` named it? A pair without timestamps is not waited for (the
    /// contributors' rule decides alone), a peer not yet heard from is. A
    /// peer whose log has reached a later hop with the namer has passed. Else
    /// the peer's clock must reach the namer's reading then, moved into the
    /// peer's clock by their learned offset, plus `lateness.micros`: a record
    /// the peer logged for the hop lies before that point in its log, which
    /// arrives in order. Until the two are linked, the peer is waited for.
    fn passed(&self, w: &Naming, lateness: Lateness) -> bool {
        let now = self.mark(w.peer);
        if now.records == 0 {
            return !w.timed;
        }
        if !w.timed || !self.nodes[w.peer as usize].timed || self.reached(w.namer, w.peer, w.since) {
            return true;
        }
        self.offset(w.namer, w.peer).is_some_and(|off| {
            let due = i128::from(w.since.ts_us) + i128::from(off) + i128::from(lateness.micros);
            i128::from(now.ts_us) >= due
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventlog::logger::{LocalLog, LocalTs, LogEntry};
    use eventlog::merge::merge_logs;
    use eventlog::EventKind;
    use crate::soup::{
        batch, latenesses, reconstructor, records, rewrite_clocks, shuffle, Clocks, SplitMix64,
        Stamps, ARRIVALS, CLOCKS, STAMPS,
    };
    use citysee::run::upload_order;
    use citysee::{run_scenario, Scenario};
    use eventlog::frame::node_logs;
    use refill::telemetry::AtomicRecorder;
    use refill::CtpVocabulary;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn rec(node: u16, kind: EventKind, packet: PacketId, ts: Option<u64>) -> NodeRecord {
        NodeRecord::new(
            n(node),
            LogEntry {
                event: Event::new(n(node), kind, packet),
                local_ts: ts.and_then(LocalTs::new),
            },
        )
    }

    fn recon() -> Reconstructor {
        Reconstructor::new(CtpVocabulary::table2())
    }

    /// A window closes once each contributor delivers one more record.
    fn eager(recon: Reconstructor) -> StreamReconstructor {
        StreamReconstructor::with_lateness(
            recon,
            Lateness {
                records: 1,
                micros: u64::MAX,
            },
        )
    }

    /// Two-hop delivery records for packet (1, seq).
    fn hop_records(seq: u32, ts: Option<u64>) -> Vec<NodeRecord> {
        let p = PacketId::new(n(1), seq);
        vec![
            rec(1, EventKind::Trans { to: n(2) }, p, ts),
            rec(2, EventKind::Recv { from: n(1) }, p, ts),
        ]
    }

    #[test]
    fn finish_matches_batch() {
        let mut logs: Vec<LocalLog> = vec![LocalLog::new(n(1)), LocalLog::new(n(2))];
        let mut stream = StreamReconstructor::new(recon());
        assert_eq!(stream.packed_event_bytes(), 0);
        for seq in 0..8 {
            for r in hop_records(seq, None) {
                logs[usize::from(r.node.0) - 1].entries.push(r.entry);
                stream.ingest(r);
            }
        }
        let streamed = stream.finish();
        let batch = recon().reconstruct_log(&merge_logs(&logs));
        assert_eq!(streamed, batch);
        assert_eq!(stream.stats().records, 16);
        assert_eq!(stream.open_windows(), 0);
        // 16 records are resident, one event each.
        assert!(stream.packed_event_bytes() >= 16 * std::mem::size_of::<Event>());
    }

    #[test]
    fn windows_close_by_record_quota() {
        let mut stream = eager(recon());
        let p0 = PacketId::new(n(1), 0);
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, p0, None));
        assert!(stream.poll().is_empty(), "no contributor has advanced yet");

        // One more record from node 1 (another packet) moves its mark past
        // p0's contribution; p0's window closes, the new packet's stays open.
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, PacketId::new(n(1), 1), None));
        let out = stream.poll();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packet, p0);
        assert_eq!(stream.open_windows(), 1);
        assert_eq!(stream.stats().windows_closed, 1);
    }

    #[test]
    fn windows_close_by_local_time() {
        let lateness = Lateness {
            records: u64::MAX,
            micros: 1_000,
        };
        let mut stream = StreamReconstructor::with_lateness(recon(), lateness);
        let p0 = PacketId::new(n(1), 0);
        stream.ingest(rec(1, EventKind::Origin, p0, Some(10_000)));
        assert!(stream.poll().is_empty());
        stream.ingest(rec(1, EventKind::Origin, PacketId::new(n(1), 1), Some(11_500)));
        let out = stream.poll();
        assert_eq!(out.len(), 1, "node 1's clock moved 1.5ms past p0");
        assert_eq!(out[0].packet, p0);
    }

    /// A full hop of packet (1, `seq`) — node 1's trans and ack, node 2's
    /// recv between them — on clocks where node 2 reads `ahead` µs ahead,
    /// from node 1's reading `at` on.
    fn hop_at(seq: u32, at: u64, ahead: u64) -> [NodeRecord; 3] {
        let p = PacketId::new(n(1), seq);
        [
            rec(1, EventKind::Trans { to: n(2) }, p, Some(at)),
            rec(2, EventKind::Recv { from: n(1) }, p, Some(at + ahead + 15)),
            rec(1, EventKind::AckRecvd { to: n(2) }, p, Some(at + 30)),
        ]
    }

    #[test]
    fn a_window_waits_for_the_peer_its_evidence_names() {
        let lateness = Lateness {
            records: 1,
            micros: 1_000,
        };
        let mut stream = StreamReconstructor::with_lateness(recon(), lateness);
        let feed = |stream: &mut StreamReconstructor, recs: &[NodeRecord]| {
            recs.iter().for_each(|r| stream.ingest(*r));
            let closed = stream.poll();
            closed.iter().map(|r| (r.packet.origin.0, r.packet.seqno)).collect::<Vec<_>>()
        };
        // Node 2 reads 5 s ahead; a hop links the two clocks.
        assert_eq!(feed(&mut stream, &hop_at(0, 1_000, 5_000_000)), Vec::<(u16, u32)>::new());
        assert_eq!(stream.clock_offset(n(1), n(2)), Some(5_000_000 - 15));
        // Node 1 sends packet 1 to node 2 and moves on; packet 1 waits for
        // node 2's recv.
        let p1 = PacketId::new(n(1), 1);
        let sent = [
            rec(1, EventKind::Trans { to: n(2) }, p1, Some(2_000)),
            rec(1, EventKind::Origin, PacketId::new(n(1), 2), Some(3_000)),
        ];
        assert!(feed(&mut stream, &sent).is_empty());
        // Node 2 moves on (packet 0 closes), but not yet 1 ms past where
        // packet 1 was due.
        let early = rec(2, EventKind::Origin, PacketId::new(n(2), 0), Some(5_002_500));
        assert_eq!(feed(&mut stream, &[early]), vec![(1, 0)]);
        // Past it: node 2 logged nothing of packet 1, so it closes.
        let late = rec(2, EventKind::Origin, PacketId::new(n(2), 1), Some(5_003_100));
        assert_eq!(feed(&mut stream, &[late]), vec![(1, 1), (2, 0)]);
        assert_eq!(stream.stats().windows_reopened, 0);
    }

    #[test]
    fn a_peer_never_heard_from_or_not_linked_is_waited_for() {
        let mut stream = eager(recon());
        let p = PacketId::new(n(1), 0);
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, p, Some(1_000)));
        stream.ingest(rec(1, EventKind::Origin, PacketId::new(n(1), 1), Some(2_000)));
        assert!(stream.poll().is_empty(), "node 2 was never heard from");
        // Heard, but no hop links the two clocks yet.
        stream.ingest(rec(2, EventKind::Origin, PacketId::new(n(2), 0), Some(900_000)));
        stream.ingest(rec(2, EventKind::Origin, PacketId::new(n(2), 1), Some(990_000)));
        let closed: Vec<PacketId> = stream.poll().iter().map(|r| r.packet).collect();
        assert!(!closed.contains(&p), "node 2 is not linked to node 1");
        assert_eq!(stream.clock_offset(n(1), n(2)), None);
        // Without timestamps the pair keeps the contributors' rule.
        let mut untimed = eager(recon());
        untimed.ingest(rec(1, EventKind::Trans { to: n(2) }, p, None));
        untimed.ingest(rec(1, EventKind::Origin, PacketId::new(n(1), 1), None));
        assert_eq!(untimed.poll().len(), 1);
    }

    #[test]
    fn a_peer_whose_log_reached_a_later_hop_with_the_namer_has_passed() {
        // Clocks stuck at zero link nothing; the order of the logs still
        // tells: node 2 logged a hop that node 1 logged after packet 0.
        let mut stream = eager(recon());
        let p = PacketId::new(n(1), 0);
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, p, Some(0)));
        for r in hop_at(1, 0, 0) {
            stream.ingest(NodeRecord {
                entry: LogEntry {
                    local_ts: LocalTs::new(0),
                    ..r.entry
                },
                ..r
            });
        }
        stream.ingest(rec(1, EventKind::Origin, PacketId::new(n(1), 2), Some(0)));
        stream.ingest(rec(2, EventKind::Origin, PacketId::new(n(2), 0), Some(0)));
        assert_eq!(stream.clock_offset(n(1), n(2)), None);
        let closed: Vec<u32> = stream.poll().iter().map(|r| r.packet.seqno).collect();
        assert_eq!(closed, vec![0, 1]);
    }

    #[test]
    fn only_a_hop_crossed_once_links_two_clocks() {
        let absorbed = |recs: &[NodeRecord]| {
            let mut stream = StreamReconstructor::new(recon());
            for r in recs {
                stream.ingest(*r);
            }
            stream.clock_offset(n(1), n(2))
        };
        let [trans, recv, ack] = hop_at(0, 1_000, 7_000);
        assert_eq!(absorbed(&[trans, recv, ack]), Some(7_000 - 15));
        assert_eq!(absorbed(&[ack, recv]), Some(7_000 - 15), "either end may come first");
        assert_eq!(absorbed(&[trans, recv]), None, "a trans is no hop end");
        // The packet crossed 1 → 2 again: which recv goes with the ack?
        let [_, again, _] = hop_at(0, 900_000, 7_000);
        assert_eq!(absorbed(&[trans, recv, again, ack]), None);
    }

    #[test]
    fn late_arrivals_reopen_and_converge() {
        let mut stream = eager(recon());
        let p = PacketId::new(n(1), 0);
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, p, None));
        // Push node 1 past p's window and close it early.
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, PacketId::new(n(1), 9), None));
        let early = stream.poll();
        assert_eq!(early.len(), 1);
        assert_eq!(early[0].flow.to_string(), "1-2 trans");

        // Node 2's evidence for p arrives late: the window reopens and the
        // final answer includes it.
        stream.ingest(rec(2, EventKind::Recv { from: n(1) }, p, None));
        assert_eq!(stream.stats().windows_reopened, 1);
        let final_reports = stream.finish();
        let got = final_reports.iter().find(|r| r.packet == p).unwrap();
        assert_eq!(got.flow.to_string(), "1-2 trans, 1-2 recv");

        // And the whole set equals the batch answer over the same events.
        let logs = vec![
            LocalLog::from_events(
                n(1),
                vec![
                    Event::new(n(1), EventKind::Trans { to: n(2) }, p),
                    Event::new(n(1), EventKind::Trans { to: n(2) }, PacketId::new(n(1), 9)),
                ],
            ),
            LocalLog::from_events(n(2), vec![Event::new(n(2), EventKind::Recv { from: n(1) }, p)]),
        ];
        let batch = recon().reconstruct_log(&merge_logs(&logs));
        assert_eq!(final_reports, batch);
    }

    #[test]
    fn a_window_gives_the_merged_answer_whatever_the_arrival_order() {
        // Node 2's recv is the first record of its log, node 1's trans the
        // second of its own: the merge puts the recv first, though node 1's
        // clock reads earlier. A window keeps the order the records arrive
        // in, and its report is the batch one whichever that is.
        let p = PacketId::new(n(1), 0);
        let other = rec(1, EventKind::Origin, PacketId::new(n(1), 1), Some(50));
        let trans = rec(1, EventKind::Trans { to: n(2) }, p, Some(100));
        let recv = rec(2, EventKind::Recv { from: n(1) }, p, Some(500));
        let logs = vec![
            LocalLog {
                node: n(1),
                entries: vec![other.entry, trans.entry],
            },
            LocalLog {
                node: n(2),
                entries: vec![recv.entry],
            },
        ];
        let merged = merge_logs(&logs);
        assert_eq!(merged.packet_index().get(p), Some(&[recv.entry.event, trans.entry.event][..]));
        let batch = recon().reconstruct_log(&merged);
        for arrival in [[other, trans, recv], [recv, other, trans], [other, recv, trans]] {
            let mut stream = StreamReconstructor::new(recon());
            for r in arrival {
                stream.ingest(r);
            }
            assert_eq!(stream.finish(), batch);
        }
    }

    #[test]
    fn a_record_without_a_timestamp_reopens_no_window() {
        let mut stream = eager(recon());
        let mut logs = vec![LocalLog::new(n(1)), LocalLog::new(n(2))];
        let mut feed = |stream: &mut StreamReconstructor, r: NodeRecord| {
            logs[usize::from(r.node.0) - 1].entries.push(r.entry);
            stream.ingest(r);
            stream.poll();
        };
        for seq in 0..4 {
            for r in hop_records(seq, Some(1_000 * u64::from(seq))) {
                feed(&mut stream, r);
            }
        }
        let closed = stream.stats().windows_closed;
        assert_eq!(closed, 3, "every packet but the last one closed");
        // One record of a new packet without a timestamp: no window's order
        // depends on the clocks, so none is redone.
        feed(&mut stream, rec(2, EventKind::Origin, PacketId::new(n(2), 0), None));
        assert_eq!(stream.stats().windows_reopened, 0);
        assert_eq!(stream.finish(), recon().reconstruct_log(&merge_logs(&logs)));
    }

    #[test]
    fn untimestamped_windows_never_close_on_time() {
        let lateness = Lateness {
            records: u64::MAX,
            micros: 0,
        };
        let mut stream = StreamReconstructor::with_lateness(recon(), lateness);
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, PacketId::new(n(1), 0), None));
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, PacketId::new(n(1), 1), None));
        assert!(stream.poll().is_empty(), "no timestamps, no time-based close");
        assert_eq!(stream.open_windows(), 2);
    }

    #[test]
    fn telemetry_counters_cover_the_stream_path() {
        let recorder = Arc::new(AtomicRecorder::new());
        let shared: Arc<dyn Recorder> = recorder.clone();
        let mut stream = eager(recon().with_recorder(shared));
        let p = PacketId::new(n(1), 0);
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, p, None));
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, PacketId::new(n(1), 1), None));
        stream.poll();
        stream.ingest(rec(2, EventKind::Recv { from: n(1) }, p, None));
        stream.finish();

        let snap = recorder.snapshot();
        assert_eq!(snap.counter("stream_records"), 3);
        assert_eq!(snap.counter("windows_closed"), 3, "p twice, the filler once");
        assert_eq!(snap.counter("windows_reopened"), 1);
        assert!(snap.histogram("window_events").is_some());
        assert!(snap.stage("window").is_some());
    }

    #[test]
    fn poll_emits_in_packet_id_order() {
        let mut stream = eager(recon());
        // Ingest three packets in reverse order, then advance the node far
        // enough that all three close in one sweep.
        for seq in [5u32, 3, 1] {
            stream.ingest(rec(1, EventKind::Trans { to: n(2) }, PacketId::new(n(1), seq), None));
        }
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, PacketId::new(n(1), 7), None));
        let out = stream.poll();
        let seqs: Vec<u32> = out.iter().map(|r| r.packet.seqno).collect();
        assert_eq!(seqs, vec![1, 3, 5], "sweep order is packet-id order");
    }

    /// Logs the stage of every span, in the order the spans end.
    #[derive(Default)]
    struct SpanEnds(Mutex<Vec<Stage>>);

    impl Recorder for SpanEnds {
        fn enabled(&self) -> bool {
            true
        }

        fn add(&self, _: Counter, _: u64) {}

        fn observe(&self, _: Hist, _: u64) {}

        fn record_stage(&self, stage: Stage, _: u64) {
            self.0.lock().unwrap().push(stage);
        }
    }

    #[test]
    fn a_mid_stream_sweep_times_no_reconstruction_as_window() {
        let ends = Arc::new(SpanEnds::default());
        let mut stream = eager(recon().with_recorder(ends.clone()));
        for seq in [1u32, 3, 5, 7] {
            let p = PacketId::new(n(1), seq);
            stream.ingest(rec(1, EventKind::Trans { to: n(2) }, p, None));
        }
        ends.0.lock().unwrap().clear();
        assert_eq!(stream.poll().len(), 3);
        // The window span ends before the three reconstructions begin.
        let stages = std::mem::take(&mut *ends.0.lock().unwrap());
        let (window, transition) = (Stage::Window, Stage::Transition);
        assert_eq!(stages, [window, transition, transition, transition]);
    }

    #[test]
    fn flows_grow_as_evidence_arrives() {
        let p = PacketId::new(n(1), 0);
        let mut stream = StreamReconstructor::new(recon());
        stream.ingest(rec(1, EventKind::Trans { to: n(2) }, p, None));
        stream.finish();
        assert_eq!(stream.report(p).unwrap().flow.to_string(), "1-2 trans");

        // A later log's evidence reopens the window; finish() is re-enterable.
        stream.ingest(rec(3, EventKind::Recv { from: n(2) }, p, None));
        stream.finish();
        assert_eq!(
            stream.report(p).unwrap().flow.to_string(),
            "1-2 trans, [1-2 recv], [2-3 trans], 2-3 recv"
        );
        assert!(stream.report(PacketId::new(n(9), 9)).is_none());
    }

    #[test]
    fn reports_iterate_in_packet_id_order_regardless_of_ingestion_order() {
        let mut stream = StreamReconstructor::new(recon());
        // Packets arrive in a scrambled order, across two origins.
        for (origin, seq) in [(2u16, 7u32), (1, 3), (2, 0), (1, 9), (1, 0), (2, 3)] {
            let p = PacketId::new(n(origin), seq);
            stream.ingest(rec(origin, EventKind::Trans { to: n(5) }, p, None));
        }
        stream.finish();
        let ids: Vec<PacketId> = stream.reports().iter().map(|r| r.packet).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "reports() must come back in packet-id order");
        assert_eq!(ids.len(), 6);
    }

    #[test]
    fn one_reconstruction_per_close_and_none_otherwise() {
        let recorder = Arc::new(AtomicRecorder::new());
        let shared: Arc<dyn Recorder> = recorder.clone();
        let lateness = Lateness {
            records: 2,
            micros: u64::MAX,
        };
        let mut stream =
            StreamReconstructor::with_lateness(recon().with_recorder(shared), lateness);
        let reconstructed = || recorder.counter_value(Counter::PacketsReconstructed);
        let in_step = |stream: &StreamReconstructor| {
            assert_eq!(reconstructed(), stream.stats().windows_closed);
        };

        // Twelve two-hop packets: node 2's half of each arrives after node
        // 1 has moved on, so early closes are reopened.
        for seq in 0..12 {
            stream.ingest(hop_records(seq, None)[0]);
            if seq % 3 == 2 {
                stream.poll();
                in_step(&stream);
            }
        }
        assert!(stream.stats().windows_closed > 0);
        for seq in 0..12 {
            stream.ingest(hop_records(seq, None)[1]);
            stream.poll();
            in_step(&stream);
        }
        assert!(stream.stats().windows_reopened > 0);

        // Nothing newly absorbed: a poll reconstructs nothing, however often,
        // and does not even walk the open windows.
        let before = reconstructed();
        let open = stream.open_windows();
        let sweeps = || recorder.snapshot().stage("window").map_or(0, |s| s.calls);
        let swept = sweeps();
        assert!(swept > 0);
        assert!(stream.poll().is_empty() && stream.poll().is_empty());
        assert_eq!(reconstructed(), before);
        assert_eq!(stream.open_windows(), open);
        assert_eq!(sweeps(), swept, "an idle poll records no window span");

        // finish() closes what is still open, once; a second has nothing left.
        assert!(open > 0);
        stream.finish();
        assert_eq!(reconstructed(), before + open as u64);
        in_step(&stream);
        stream.finish();
        assert_eq!(reconstructed(), before + open as u64);
        in_step(&stream);
    }

    // --- the wake-ups against the scan they replace -----------------------
    //
    // Every sweep asserts that the woken windows close exactly what a scan of
    // every open window closes; these runs put that assertion through the
    // streams `stream_identity.rs` pins and through the edges of the rule.

    /// Feed `recs`, polling every `every` records, then finish. Returns the
    /// reports and the tests a scan of every open window would have made at
    /// the sweeps that tested something.
    fn fed(
        mut stream: StreamReconstructor,
        recs: &[NodeRecord],
        every: usize,
    ) -> (StreamReconstructor, Vec<PacketReport>, u64) {
        let mut scanned = 0;
        for (i, rec) in recs.iter().enumerate() {
            stream.ingest(*rec);
            if (i + 1) % every == 0 {
                let (open, tests) = (stream.open_windows(), stream.stats().window_tests);
                stream.poll();
                if stream.stats().window_tests > tests {
                    scanned += open as u64;
                }
            }
        }
        let reports = stream.finish();
        (stream, reports, scanned)
    }

    #[test]
    fn the_identity_matrix_wakes_what_a_scan_closes() {
        let (mut tests, mut scanned, mut closed) = (0, 0, 0);
        for (a, arrival) in ARRIVALS.into_iter().enumerate() {
            for (s, stamps) in STAMPS.into_iter().enumerate() {
                let which = 3 * a + s;
                let recs = records(which as u64, 300, arrival, stamps);
                let expected = batch(&reconstructor(which), &recs);
                for lateness in latenesses() {
                    for every in [1, 7, 16, 64] {
                        let stream = StreamReconstructor::with_lateness(reconstructor(which), lateness);
                        let (stream, reports, scans) = fed(stream, &recs, every);
                        assert!(reports == expected, "{arrival:?}, {stamps:?}, {lateness:?}, {every}");
                        tests += stream.stats().window_tests;
                        closed += stream.stats().windows_closed;
                        scanned += scans;
                    }
                }
            }
        }
        assert!(closed > 10_000, "{closed} closes");
        assert!(tests * 3 < scanned, "{tests} window tests where a scan makes {scanned}");
    }

    #[test]
    fn extreme_latenesses_wake_what_a_scan_closes() {
        let mut rng = SplitMix64(0x4c61_7465);
        for records_late in [0, 1, u64::MAX] {
            for micros in [0, u64::MAX] {
                let lateness = Lateness {
                    records: records_late,
                    micros,
                };
                for (a, arrival) in ARRIVALS.into_iter().enumerate() {
                    for (s, stamps) in STAMPS.into_iter().enumerate() {
                        let which = 3 * a + s;
                        let mut recs = records(40 + which as u64, 120, arrival, stamps);
                        if stamps == Stamps::On {
                            rewrite_clocks(&mut recs, Clocks::SteppingBack, &mut rng);
                        }
                        let stream = StreamReconstructor::with_lateness(reconstructor(which), lateness);
                        let (_, reports, _) = fed(stream, &recs, 5);
                        let what = format!("{lateness:?}, {arrival:?}, {stamps:?}");
                        assert!(reports == batch(&reconstructor(which), &recs), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn rewritten_clocks_and_shuffled_logs_wake_what_a_scan_closes() {
        let mut rng = SplitMix64(0x636c_6f63);
        for (which, arrival) in ARRIVALS.into_iter().enumerate() {
            let recs = records(70 + which as u64, 200, arrival, Stamps::On);
            let expected = batch(&reconstructor(which), &recs);
            for clocks in CLOCKS {
                let mut recs = recs.clone();
                rewrite_clocks(&mut recs, clocks, &mut rng);
                for lateness in latenesses() {
                    let stream = StreamReconstructor::with_lateness(reconstructor(which), lateness);
                    let (_, reports, _) = fed(stream, &recs, 3);
                    assert!(reports == expected, "{arrival:?}, {clocks:?}, {lateness:?}");
                }
                // Log by log, in a shuffled order, with a finish after each.
                let mut logs = node_logs(&recs);
                shuffle(&mut rng, &mut logs);
                let mut stream = StreamReconstructor::new(reconstructor(which));
                for log in &logs {
                    for (i, entry) in log.entries.iter().enumerate() {
                        stream.ingest(NodeRecord::new(log.node, *entry));
                        if i % 4 == 3 {
                            stream.poll();
                        }
                    }
                    stream.finish();
                }
                assert!(stream.reports() == expected, "{arrival:?}, {clocks:?}, log by log");
            }
        }
    }

    #[test]
    fn a_small_campaign_wakes_what_a_scan_closes() {
        let campaign = run_scenario(&Scenario::small());
        let sink = campaign.topology.sink();
        let recon = || Reconstructor::new(CtpVocabulary::citysee()).with_sink(sink);
        let expected = recon().reconstruct_log(&merge_logs(&campaign.collected));
        let mut rng = SplitMix64(0x2015);
        for clocks in [None, Some(Clocks::SteppingBack)] {
            let mut recs = campaign.upload_records();
            if let Some(clocks) = clocks {
                rewrite_clocks(&mut recs, clocks, &mut rng);
                recs = upload_order(&node_logs(&recs));
            }
            let (stream, reports, scanned) = fed(StreamReconstructor::new(recon()), &recs, 64);
            assert!(reports == expected, "{clocks:?}");
            let tests = stream.stats().window_tests;
            assert!(tests * 3 < scanned, "{clocks:?}: {tests} window tests, a scan {scanned}");
        }
    }
}
