//! Connected inference engines and the transition algorithm.
//!
//! Engines (instances of [`FsmTemplate`]s) are connected by **inter-node
//! prerequisite rules** (Definition 4.1): a transition on one engine may
//! require a *prerequisite state* on a peer engine. Processing an event
//! therefore recursively drives peers forward — consuming their own logged
//! events where available and synthesizing *inferred lost events* where not
//! — before the current event is appended to the flow. This is exactly the
//! paper's Section IV-B algorithm:
//!
//! 1. If a normal transition matches the current event, first satisfy its
//!    inter-node prerequisites (recursively processing the peer's events
//!    until the prerequisite state is reached), then transit and append the
//!    event to the flow.
//! 2. Otherwise, if an intra-node transition matches, the events along the
//!    canonical normal path are lost: process each of them as an inferred
//!    event (recursively, as in step 1), then append the current event.
//! 3. Events with no available transition are omitted.
//!
//! Engines are organized into **groups** — one group per physical node in
//! the tracing use case. A group owns a single event queue in recording
//! order (a node's log order is the one hard guarantee of the input), even
//! when its events belong to different engine instances (visits); the
//! runner only ever consumes a group's front event, so the flow's per-node
//! order always matches the log. `add_engine` puts each engine in its own
//! fresh group, which is the right default for one-engine-per-node
//! machines (Figure 3, custom protocols).
//!
//! What the runner knows about a group's front event — which engine it is
//! queued on and the plan that processes it, as its place in the template's
//! compiled table — is worked out once and kept until the queue is popped or
//! one of the group's engines moves, the only two things it depends on; and
//! the least ready front is carried from one pop to the next instead of
//! being searched for again. A finished run's flow and origin vectors can be
//! handed back ([`ConnectedNet::recycle`]) for the next run to fill. None of
//! this changes an output.
//!
//! One refinement over the paper's prose: when forcing a peer toward a
//! prerequisite state, if the peer's next logged event would *overshoot*
//! the prerequisite (its inferred prefix passes through the prerequisite
//! state but its final transition goes beyond), we take only the inferred
//! prefix and leave the logged event queued. Without this, Case 4 of
//! Table II would interleave `2-3 trans` before `1-2 ack recvd`, which
//! contradicts the paper's reported flow.

use crate::flow::EventFlow;
use crate::fsm::{FsmTemplate, Label, PlanSpan, StateId, TransId, Transition};
use netsim::json::{expected, FromJson, Json, JsonError, ToJson};
use refill_provenance::EntryOrigin;
use std::collections::VecDeque;
use std::sync::Arc;

/// An engine instance in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EngineId(pub u32);

netsim::json_newtype!(EngineId(u32));

impl EngineId {
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A serial event-queue group (one per physical node in the tracing use
/// case): its events are consumed strictly in recording order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

impl GroupId {
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// The satisfying states of a rule. CTP rules name one or two, so those sit
/// inline and registering a rule allocates nothing.
#[derive(Debug, Clone)]
enum Satisfying {
    Inline { len: u8, states: [StateId; 2] },
    Spill(Vec<StateId>),
}

/// An inter-node prerequisite attached to `(engine, label)`: before a
/// transition with that label fires, `peer` must have *visited* one of the
/// satisfying states; if it has not, it is forced toward `canonical`.
#[derive(Debug, Clone)]
pub struct InterRule {
    /// The peer engine holding the prerequisite state.
    pub peer: EngineId,
    satisfying: Satisfying,
    /// The state to force the peer toward when unsatisfied (the canonical
    /// interpretation, e.g. "received").
    pub canonical: StateId,
}

impl InterRule {
    /// A prerequisite on `peer`: visiting any of `satisfying` meets it (e.g.
    /// a hardware-ack prerequisite is met by the receiver having either
    /// received or duplicate-dropped the packet); an empty set can never be
    /// met.
    pub fn new(peer: EngineId, satisfying: &[StateId], canonical: StateId) -> Self {
        let satisfying = match satisfying.len() {
            len @ 0..=2 => {
                let mut states = [canonical; 2];
                states[..len].copy_from_slice(satisfying);
                Satisfying::Inline {
                    len: len as u8,
                    states,
                }
            }
            _ => Satisfying::Spill(satisfying.to_vec()),
        };
        InterRule {
            peer,
            satisfying,
            canonical,
        }
    }

    /// The states whose visit satisfies the prerequisite.
    pub fn satisfying(&self) -> &[StateId] {
        match &self.satisfying {
            Satisfying::Inline { len, states } => &states[..usize::from(*len)],
            Satisfying::Spill(states) => states,
        }
    }
}

/// Diagnostics emitted by a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetWarning {
    /// A prerequisite chain looped back into an engine already being forced;
    /// the inner requirement was skipped to guarantee termination.
    CyclicPrerequisite {
        /// The engine the cycle re-entered.
        engine: EngineId,
    },
    /// A prerequisite could not be satisfied: the peer has moved past the
    /// point where the canonical state was reachable.
    Unsatisfiable {
        /// The peer engine.
        engine: EngineId,
        /// The canonical state that could not be reached.
        canonical: StateId,
    },
}

/// `{"CyclicPrerequisite":{"engine":..}}` or
/// `{"Unsatisfiable":{"engine":..,"canonical":..}}`.
impl ToJson for NetWarning {
    fn to_json(&self) -> Json {
        match self {
            NetWarning::CyclicPrerequisite { engine } => Json::obj([(
                "CyclicPrerequisite",
                Json::obj([("engine", engine.to_json())]),
            )]),
            NetWarning::Unsatisfiable { engine, canonical } => Json::obj([(
                "Unsatisfiable",
                Json::obj([
                    ("engine", engine.to_json()),
                    ("canonical", canonical.to_json()),
                ]),
            )]),
        }
    }
}

impl FromJson for NetWarning {
    fn from_json(v: &Json) -> Result<NetWarning, JsonError> {
        match v.variant() {
            Some(("CyclicPrerequisite", body)) => Ok(NetWarning::CyclicPrerequisite {
                engine: body.field("engine")?,
            }),
            Some(("Unsatisfiable", body)) => Ok(NetWarning::Unsatisfiable {
                engine: body.field("engine")?,
                canonical: body.field("canonical")?,
            }),
            _ => Err(expected("NetWarning")),
        }
    }
}

/// "No flow entry" in the `u32` index columns below.
const NONE: u32 = u32::MAX;
/// A `visited` slot of a state that counts as visited without a flow entry
/// having done it: the engine's initial state.
const AT_START: u32 = u32::MAX - 1;

#[derive(Clone, Copy)]
struct Engine {
    template: u32,
    group: GroupId,
    state: StateId,
    /// Where this engine's per-state slots start in `ConnectedNet::visited`.
    slots: u32,
    last_entry: u32,
}

struct Rule<L> {
    engine: EngineId,
    label: L,
    rule: InterRule,
}

/// A `fronts` slot: the queue was popped or one of the group's engines moved
/// since the front was last planned.
const STALE: u32 = u32::MAX - 1;
/// A `fronts` slot: the queue is empty or its front event has no transition
/// from its engine's current state. The greatest value, so that taking the
/// least slot picks the ready front with the smallest engine id.
const BLOCKED: u32 = u32::MAX;

/// The connected network of inference engines.
///
/// `L` is the label type of the templates; `E` is the event payload carried
/// into the flow (an [`eventlog::Event`] in the tracing use case, anything
/// `Clone` in tests).
///
/// Templates are held behind [`Arc`] so a caller building one net per unit
/// of work (the per-packet tracing hot path) shares one immutable template
/// set across all nets instead of deep-copying transition tables and label
/// indices every time. Everything else is flat — engines, their per-state
/// slots, the rules and the runner's working stacks are one vector each —
/// so a net that is [`reset`](ConnectedNet::reset) and refilled for the
/// next unit of work allocates nothing once it has seen a unit as large.
pub struct ConnectedNet<L, E> {
    templates: Vec<Arc<FsmTemplate<L>>>,
    engines: Vec<Engine>,
    /// One slot per state of every engine, engine after engine: [`NONE`]
    /// until the state is visited, then the flow index that first did
    /// ([`AT_START`] for the initial state).
    visited: Vec<u32>,
    /// The first `groups` queues are live; the rest keep their capacity
    /// from earlier use.
    queues: Vec<VecDeque<(EngineId, E)>>,
    groups: usize,
    /// All registered rules, sorted by engine (registration order within
    /// one).
    rules: Vec<Rule<L>>,
    /// Each engine's range in `rules`; filled when a run starts.
    rule_start: Vec<u32>,
    // The runner's working state, kept here for its capacity.
    /// What the runner knows about the front event of each group's queue:
    /// the id of the engine it is queued on when it can be processed right
    /// now (by the plan in `front_plans`), else [`BLOCKED`] or [`STALE`].
    /// One word per group, so that finding the least is a scan of integers.
    fronts: Vec<u32>,
    /// Per group with a ready front: that event's plan, as its place in its
    /// engine's template.
    front_plans: Vec<PlanSpan>,
    /// Groups whose slot went stale since the drive loop last looked (a
    /// group may be listed twice).
    went_stale: Vec<GroupId>,
    /// Last observed flow entry per group, for the per-node-order edges.
    group_last_entry: Vec<u32>,
    /// Engines currently being forced (cycle guard).
    forcing: Vec<EngineId>,
    /// Dependency edges of the entries under construction: each nested
    /// `advance` owns the part above the length it found.
    deps: Vec<u32>,
    /// The flow and origin vectors of a [`recycle`](ConnectedNet::recycle)d
    /// output, emptied: the next run fills them instead of fresh ones.
    spare_flow: EventFlow<E>,
    spare_origins: Vec<EntryOrigin>,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct RunOutput<E> {
    /// The reconstructed event flow.
    pub flow: EventFlow<E>,
    /// Events that had no available transition and were omitted, with the
    /// engine they were queued on.
    pub omitted: Vec<(EngineId, E)>,
    /// Diagnostics.
    pub warnings: Vec<NetWarning>,
    /// Work counters for the run.
    pub stats: RunStats,
    /// Per-entry origin classification, parallel to `flow.entries`: how each
    /// entry came to exist (observed, intra-node jump, inter-node forcing).
    pub origins: Vec<EntryOrigin>,
}

/// Counters of the work a run performed, kept by the runner itself (plain
/// integers — the engine stays telemetry-free; callers forward these to a
/// recorder if they collect telemetry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Normal transition steps taken (observed and inferred alike).
    pub steps: u64,
    /// Intra-node jump transitions taken (plans with an inferred prefix,
    /// i.e. more than one step).
    pub jumps: u64,
    /// Steps taken while forcing a peer toward an inter-node prerequisite
    /// (a subset of `steps`).
    pub forced_steps: u64,
}

impl<L: Label, E: Clone> Default for ConnectedNet<L, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<L: Label, E: Clone> ConnectedNet<L, E> {
    /// An empty network.
    pub fn new() -> Self {
        ConnectedNet {
            templates: Vec::new(),
            engines: Vec::new(),
            visited: Vec::new(),
            queues: Vec::new(),
            groups: 0,
            rules: Vec::new(),
            rule_start: Vec::new(),
            fronts: Vec::new(),
            front_plans: Vec::new(),
            went_stale: Vec::new(),
            group_last_entry: Vec::new(),
            forcing: Vec::new(),
            deps: Vec::new(),
            spare_flow: EventFlow::new(),
            spare_origins: Vec::new(),
        }
    }

    /// Back to an empty network — no templates, engines, groups, rules or
    /// queued events — that keeps every buffer's capacity.
    pub fn reset(&mut self) {
        self.templates.clear();
        self.engines.clear();
        self.visited.clear();
        for queue in &mut self.queues[..self.groups] {
            queue.clear();
        }
        self.groups = 0;
        self.rules.clear();
    }

    /// Hand back the flow and origin vectors of a finished run's output: the
    /// next [`run`](ConnectedNet::run) builds its own in them instead of
    /// allocating. Buffers only — both are emptied here, so no entry, edge or
    /// origin of the old output can show up in a later one. Survives
    /// [`reset`](ConnectedNet::reset).
    pub fn recycle(&mut self, mut flow: EventFlow<E>, mut origins: Vec<EntryOrigin>) {
        flow.clear();
        origins.clear();
        self.spare_flow = flow;
        self.spare_origins = origins;
    }

    /// Register a template; returns its index.
    ///
    /// Accepts either an owned `FsmTemplate<L>` or an `Arc<FsmTemplate<L>>`;
    /// passing an already-interned `Arc` makes registration O(1) regardless
    /// of template size.
    pub fn add_template(&mut self, t: impl Into<Arc<FsmTemplate<L>>>) -> usize {
        self.templates.push(t.into());
        self.templates.len() - 1
    }

    /// Access a registered template.
    pub fn template(&self, idx: usize) -> &FsmTemplate<L> {
        &self.templates[idx]
    }

    /// Create a new (empty) serial group.
    pub fn add_group(&mut self) -> GroupId {
        if self.groups == self.queues.len() {
            self.queues.push(VecDeque::new());
        }
        self.groups += 1;
        GroupId(self.groups as u32 - 1)
    }

    /// Create an engine instance of a registered template in its own fresh
    /// group (the one-engine-per-node case).
    pub fn add_engine(&mut self, template: usize) -> EngineId {
        let group = self.add_group();
        self.add_engine_in_group(template, group)
    }

    /// Create an engine instance inside an existing group (several visits
    /// of one node share the node's log queue).
    pub fn add_engine_in_group(&mut self, template: usize, group: GroupId) -> EngineId {
        assert!(group.idx() < self.groups, "no such group");
        let t = &self.templates[template];
        let initial = t.initial();
        let slots = self.visited.len();
        self.visited.resize(slots + t.state_count(), NONE);
        self.visited[slots + initial.0 as usize] = AT_START;
        self.engines.push(Engine {
            template: template as u32,
            group,
            state: initial,
            slots: slots as u32,
            last_entry: NONE,
        });
        EngineId(self.engines.len() as u32 - 1)
    }

    /// Attach an inter-node prerequisite to `(engine, label)`.
    ///
    /// # Panics
    /// If the rule names a state its peer's template does not have.
    pub fn add_rule(&mut self, engine: EngineId, label: L, rule: InterRule) {
        assert!(engine.idx() < self.engines.len(), "no such engine");
        let states = self.template_of(rule.peer).state_count();
        assert!(
            rule.satisfying()
                .iter()
                .chain([&rule.canonical])
                .all(|s| (s.0 as usize) < states),
            "rule names a state its peer's template does not have"
        );
        // Kept sorted as they come: a caller that registers engine by engine
        // (the tracer does) appends.
        let at = match self.rules.last() {
            Some(last) if engine < last.engine => {
                self.rules.partition_point(|r| r.engine <= engine)
            }
            _ => self.rules.len(),
        };
        self.rules.insert(
            at,
            Rule {
                engine,
                label,
                rule,
            },
        );
    }

    /// Queue an observed event payload for an engine, at the back of its
    /// group's queue (i.e. in recording order of the node's log).
    pub fn push_event(&mut self, engine: EngineId, payload: E) {
        let group = self.engines[engine.idx()].group;
        self.queues[group.idx()].push_back((engine, payload));
    }

    fn template_of(&self, e: EngineId) -> &FsmTemplate<L> {
        &self.templates[self.engines[e.idx()].template as usize]
    }

    fn slot(&self, e: EngineId, state: StateId) -> usize {
        self.engines[e.idx()].slots as usize + state.0 as usize
    }

    /// Each engine's range of the (sorted) rules, so the runner finds an
    /// engine's handful of rules by range instead of by hashing.
    fn index_rules(&mut self) {
        let engines = self.engines.len();
        self.rule_start.clear();
        self.rule_start.resize(engines + 1, 0);
        for r in &self.rules {
            self.rule_start[r.engine.idx() + 1] += 1;
        }
        for e in 0..engines {
            self.rule_start[e + 1] += self.rule_start[e];
        }
    }

    /// Run the transition algorithm to completion.
    ///
    /// * `label_of` extracts the FSM label from a queued payload.
    /// * `synthesize` builds a payload for an inferred lost event, given the
    ///   engine and the normal transition being replayed.
    pub fn run(
        &mut self,
        label_of: impl Fn(&E) -> L,
        synthesize: impl FnMut(EngineId, &Transition<L>) -> E,
    ) -> RunOutput<E> {
        self.index_rules();
        self.fronts.clear();
        self.fronts.resize(self.groups, STALE);
        self.front_plans.clear();
        self.front_plans.resize(self.groups, PlanSpan::NONE);
        self.went_stale.clear();
        self.group_last_entry.clear();
        self.group_last_entry.resize(self.groups, NONE);
        self.forcing.clear();
        self.deps.clear();
        let queued: usize = self.queues[..self.groups].iter().map(VecDeque::len).sum();
        // Recycled vectors if there are any (empty ones otherwise), sized
        // for the lossless case: every queued event becomes an entry with an
        // edge to its engine's and its node's previous one. A recycled
        // vector that is too small at least doubles, so a window that
        // re-closes one record larger each time regrows its report's
        // vectors a logarithmic number of times, not every time.
        let mut flow = std::mem::take(&mut self.spare_flow);
        flow.reserve(queued, 2 * queued);
        let mut origins = std::mem::take(&mut self.spare_origins);
        origins.reserve(queued);
        let mut runner = Runner {
            net: self,
            label_of,
            synthesize,
            flow,
            omitted: Vec::new(),
            warnings: Vec::new(),
            stats: RunStats::default(),
            origins,
        };
        runner.drive();
        RunOutput {
            flow: runner.flow,
            omitted: runner.omitted,
            warnings: runner.warnings,
            stats: runner.stats,
            origins: runner.origins,
        }
    }
}

struct Runner<'n, L, E, F, S> {
    net: &'n mut ConnectedNet<L, E>,
    label_of: F,
    synthesize: S,
    flow: EventFlow<E>,
    omitted: Vec<(EngineId, E)>,
    warnings: Vec<NetWarning>,
    stats: RunStats,
    /// Origin of each flow entry, pushed in lockstep with `flow`.
    origins: Vec<EntryOrigin>,
}

impl<L, E, F, S> Runner<'_, L, E, F, S>
where
    L: Label,
    E: Clone,
    F: Fn(&E) -> L,
    S: FnMut(EngineId, &Transition<L>) -> E,
{
    /// Top-level drive: repeatedly process the group whose front event
    /// belongs to the earliest engine (engines are created in chain order
    /// by the tracer, so this walks the packet's journey hop by hop — the
    /// paper's "start from a given node, switch to other nodes" order).
    /// When no group's front is processable, one blocked event is omitted
    /// (step 3 of the paper's algorithm) and driving resumes.
    fn drive(&mut self) {
        let groups = self.net.groups;
        // The least slot of `fronts` and its group, carried from one pop to
        // the next instead of reading every slot for every event: a slot
        // changes only by going stale first, every group that does is noted
        // in `went_stale`, and folding those back in keeps the minimum exact
        // — unless the least slot itself moved up (its engine's events ran
        // out: about once per engine), and then every slot is read again.
        let (mut least, mut pick) = (BLOCKED, GroupId(0));
        let mut known = false;
        loop {
            while let Some(g) = self.net.went_stale.pop() {
                let front = self.front(g);
                if front < least {
                    (least, pick) = (front, g);
                } else if g == pick && front != least {
                    known = false;
                }
            }
            if !known {
                (least, pick) = (BLOCKED, GroupId(0));
                for g in (0..groups as u32).map(GroupId) {
                    let front = self.front(g);
                    if front < least {
                        (least, pick) = (front, g);
                    }
                }
                known = true;
            }
            // The processable front with the smallest engine id.
            if least != BLOCKED {
                let plan = self.net.front_plans[pick.idx()];
                let payload = self.pop_front(pick);
                self.exec_plan(EngineId(least), plan, Some(payload));
                continue;
            }
            // No group can move: omit the blocked front with the smallest
            // engine id, if any.
            let mut blocked: Option<(EngineId, GroupId)> = None;
            for g in (0..groups as u32).map(GroupId) {
                if let Some((engine, _)) = self.net.queues[g.idx()].front() {
                    if blocked.is_none_or(|(e, _)| *engine < e) {
                        blocked = Some((*engine, g));
                    }
                }
            }
            match blocked {
                Some((engine, g)) => {
                    let payload = self.pop_front(g);
                    self.omitted.push((engine, payload));
                }
                None => break,
            }
        }
    }

    /// A group's queue was popped or one of its engines moved: its front has
    /// to be planned again, and the drive loop told.
    fn mark_stale(&mut self, g: GroupId) {
        if self.net.fronts[g.idx()] != STALE {
            self.net.fronts[g.idx()] = STALE;
            self.net.went_stale.push(g);
        }
    }

    /// What a group's front event can do right now: the id of the engine it
    /// is queued on when it can be processed (its plan is then in
    /// `front_plans`), else [`BLOCKED`]. Planned at most once per front: the
    /// answer depends on nothing but the queue's front and that engine's
    /// state, and every write to either stores [`STALE`]
    /// ([`Runner::pop_front`], [`Runner::advance`]), so a plan read back is
    /// the plan a fresh lookup would return.
    #[inline]
    fn front(&mut self, g: GroupId) -> u32 {
        match self.net.fronts[g.idx()] {
            STALE => self.plan_front(g),
            planned => planned,
        }
    }

    /// Plan a stale front and remember the answer.
    fn plan_front(&mut self, g: GroupId) -> u32 {
        let planned = self.net.queues[g.idx()]
            .front()
            .and_then(|(engine, payload)| {
                let label = (self.label_of)(payload);
                let state = self.net.engines[engine.idx()].state;
                let plan = self.net.template_of(*engine).plan_span(state, &label)?;
                Some((*engine, plan))
            });
        let front = match planned {
            Some((engine, plan)) => {
                self.net.front_plans[g.idx()] = plan;
                engine.0
            }
            None => BLOCKED,
        };
        self.net.fronts[g.idx()] = front;
        front
    }

    fn pop_front(&mut self, g: GroupId) -> E {
        self.mark_stale(g);
        let (_, payload) = self.net.queues[g.idx()].pop_front().expect("front exists");
        payload
    }

    /// Execute a plan: every step but the last is an inferred lost event;
    /// the last carries the observed payload (when given).
    fn exec_plan(&mut self, e: EngineId, plan: PlanSpan, observed: Option<E>) {
        let template = self.net.engines[e.idx()].template as usize;
        if plan.len() > 1 {
            self.stats.jumps += 1;
        }
        // Read step by step: `advance` needs the whole runner in between.
        let step = |net: &ConnectedNet<L, E>, i: usize| net.templates[template].steps_of(plan)[i];
        let last = plan.len() - 1;
        for i in 0..last {
            let tid = step(self.net, i);
            self.infer(e, tid);
        }
        let tid = step(self.net, last);
        match observed {
            Some(payload) => self.advance(e, tid, payload, true),
            None => self.infer(e, tid),
        }
    }

    /// Take one normal transition on `e` as an inferred lost event.
    fn infer(&mut self, e: EngineId, tid: TransId) {
        let payload = (self.synthesize)(e, self.net.template_of(e).transition(tid));
        self.advance(e, tid, payload, false);
    }

    /// Take one normal transition on `e`: satisfy its inter-node rules, move
    /// the state, append the flow entry.
    fn advance(&mut self, e: EngineId, tid: TransId, payload: E, observed: bool) {
        self.stats.steps += 1;
        if !self.net.forcing.is_empty() {
            self.stats.forced_steps += 1;
        }
        let (label, to) = {
            let t = self.net.template_of(e).transition(tid);
            (t.label.clone(), t.to)
        };
        // This entry's edges go on the shared stack above `base`; forcing a
        // peer below nests further `advance`s, each of which leaves the
        // stack as it found it.
        let base = self.net.deps.len();
        self.satisfy_rules(e, &label);
        let Engine {
            group, last_entry, ..
        } = self.net.engines[e.idx()];
        if last_entry != NONE {
            self.net.deps.push(last_entry);
        }
        // Observed entries are additionally ordered after everything their
        // node recorded earlier — the per-node log-order constraint.
        if observed && self.net.group_last_entry[group.idx()] != NONE {
            self.net.deps.push(self.net.group_last_entry[group.idx()]);
        }
        let edges = &mut self.net.deps[base..];
        edges.sort_unstable();
        let mut distinct = 0;
        for i in 0..edges.len() {
            if i == 0 || edges[i] != edges[distinct - 1] {
                edges[distinct] = edges[i];
                distinct += 1;
            }
        }
        // Classify the entry's origin while the evidence is at hand: a
        // synthesized payload pushed under an active forcing stack exists
        // because a *peer's* evidence demanded it; one pushed with the stack
        // empty is an intra-node jump over the node's own lost entries.
        let origin = if observed {
            EntryOrigin::Observed
        } else if self.net.forcing.is_empty() {
            EntryOrigin::IntraJump
        } else {
            EntryOrigin::InterForced
        };
        self.origins.push(origin);
        let idx = self
            .flow
            .push(payload, e, observed, &self.net.deps[base..base + distinct])
            as u32;
        self.net.deps.truncate(base);
        if observed {
            self.net.group_last_entry[group.idx()] = idx;
        }
        let slot = self.net.slot(e, to);
        if self.net.visited[slot] == NONE {
            self.net.visited[slot] = idx;
        }
        let eng = &mut self.net.engines[e.idx()];
        eng.state = to;
        eng.last_entry = idx;
        self.mark_stale(group);
    }

    /// Satisfy all inter-node rules for `(e, label)`, pushing the flow
    /// indices that established satisfaction (dependency edges) onto the
    /// shared edge stack.
    ///
    /// An engine has a handful of rules, so its range of the rules is
    /// scanned for the label. Forcing needs `&mut self`, but the rule
    /// tables are immutable once the run starts, so indices stay valid.
    fn satisfy_rules(&mut self, e: EngineId, label: &L) {
        let start = self.net.rule_start[e.idx()] as usize;
        let end = self.net.rule_start[e.idx() + 1] as usize;
        for ri in start..end {
            if self.net.rules[ri].label != *label {
                continue;
            }
            let mut met = self.satisfaction(ri);
            if met.is_none() {
                self.force(ri);
                met = self.satisfaction(ri);
            }
            if let Some(Some(idx)) = met {
                self.net.deps.push(idx);
            }
        }
    }

    /// `None` if unsatisfied; `Some(entry)` if satisfied, where `entry` is
    /// the flow index that visited a satisfying state (or `None` when the
    /// satisfying state is the peer's initial state).
    fn satisfaction(&self, ri: usize) -> Option<Option<u32>> {
        let rule = &self.net.rules[ri].rule;
        rule.satisfying()
            .iter()
            .map(|&s| self.net.visited[self.net.slot(rule.peer, s)])
            .find(|&entry| entry != NONE)
            .map(|entry| (entry != AT_START).then_some(entry))
    }

    /// Drive `rule.peer` until a satisfying state is visited: consume its
    /// node's logged events while they help (including events of *other*
    /// visits at the node, which precede the peer's in recording order),
    /// take only inferred prefixes when a logged event would overshoot, and
    /// fall back to pure inference when the log runs dry.
    fn force(&mut self, ri: usize) {
        let InterRule {
            peer, canonical, ..
        } = self.net.rules[ri].rule;
        if self.net.forcing.contains(&peer) {
            self.warnings
                .push(NetWarning::CyclicPrerequisite { engine: peer });
            return;
        }
        self.net.forcing.push(peer);
        loop {
            if self.satisfaction(ri).is_some() {
                break;
            }
            if self.force_step(ri) {
                continue;
            }
            self.warnings.push(NetWarning::Unsatisfiable {
                engine: peer,
                canonical,
            });
            break;
        }
        let popped = self.net.forcing.pop();
        debug_assert_eq!(popped, Some(peer));
    }

    /// One forcing step; returns false when stuck.
    fn force_step(&mut self, ri: usize) -> bool {
        let peer = self.net.rules[ri].rule.peer;
        let group = self.net.engines[peer.idx()].group;

        // Try the node's next logged event first.
        let front = self.front(group);
        if front != BLOCKED {
            let (front_engine, plan) = (EngineId(front), self.net.front_plans[group.idx()]);
            if front_engine == peer {
                let (prefix_hit, helps) = {
                    let rule = &self.net.rules[ri].rule;
                    let tpl = self.net.template_of(peer);
                    let steps = tpl.steps_of(plan);
                    // Overshoot check: does the *inferred prefix* already
                    // pass through a satisfying state? Then take only that
                    // prefix and leave the logged event queued.
                    let mut prefix_hit = None;
                    let mut end = self.net.engines[peer.idx()].state;
                    for (k, &tid) in steps.iter().enumerate() {
                        end = tpl.transition(tid).to;
                        if prefix_hit.is_none()
                            && k + 1 < steps.len()
                            && rule.satisfying().contains(&end)
                        {
                            prefix_hit = Some(k);
                        }
                    }
                    // Consume the event when it lands on a satisfying state
                    // or at least keeps one reachable.
                    let helps = rule.satisfying().contains(&end)
                        || rule.satisfying().iter().any(|s| tpl.reachable0(end, *s));
                    (prefix_hit, helps)
                };
                if let Some(k) = prefix_hit {
                    self.exec_plan(peer, plan.prefix(k), None);
                    return true;
                }
                if helps {
                    let payload = self.pop_front(group);
                    self.exec_plan(peer, plan, Some(payload));
                    return true;
                }
            } else {
                // The node's front event belongs to another visit; in true
                // order it precedes the peer's events, so processing it is
                // both required and safe.
                let payload = self.pop_front(group);
                self.exec_plan(front_engine, plan, Some(payload));
                return true;
            }
        }

        // Pure inference along the canonical normal path.
        let state = self.net.engines[peer.idx()].state;
        let canonical = self.net.rules[ri].rule.canonical;
        match self.net.template_of(peer).first_step(state, canonical) {
            Some(first) => {
                self.infer(peer, first);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsm::FsmBuilder;

    /// A three-state chain template: Init --<a>--> Mid --<b>--> End, used to
    /// model each node of Figure 3 (labels parameterized).
    fn chain(name: &str, a: &'static str, b: &'static str) -> FsmTemplate<&'static str> {
        let mut builder = FsmBuilder::new(name);
        let init = builder.state("Init");
        let mid = builder.state("Mid");
        let end = builder.state("End");
        builder.t(init, a, mid).t(mid, b, end);
        builder.build().unwrap()
    }

    fn mid(t: &FsmTemplate<&'static str>) -> StateId {
        t.state_by_name("Mid").unwrap()
    }

    fn end(t: &FsmTemplate<&'static str>) -> StateId {
        t.state_by_name("End").unwrap()
    }

    /// Run with payload == label.
    fn run_net(net: &mut ConnectedNet<&'static str, &'static str>) -> RunOutput<&'static str> {
        net.run(|p| *p, |_, trans| trans.label)
    }

    fn flow_str(out: &RunOutput<&'static str>) -> String {
        out.flow.to_string()
    }

    /// Figure 3(a): cascading inter-node transitions.
    /// e2 on node1 requires node2 to reach End (after e4); e4 on node2
    /// requires node3 to reach End (after e6).
    fn fig3a_net() -> (
        ConnectedNet<&'static str, &'static str>,
        [EngineId; 3],
        [StateId; 2],
    ) {
        let mut net = ConnectedNet::new();
        let t1 = net.add_template(chain("n1", "e1", "e2"));
        let t2 = net.add_template(chain("n2", "e3", "e4"));
        let t3 = net.add_template(chain("n3", "e5", "e6"));
        let n1 = net.add_engine(t1);
        let n2 = net.add_engine(t2);
        let n3 = net.add_engine(t3);
        let end2 = end(net.template(t2));
        let end3 = end(net.template(t3));
        net.add_rule(n1, "e2", InterRule::new(n2, &[end2], end2));
        net.add_rule(n2, "e4", InterRule::new(n3, &[end3], end3));
        (net, [n1, n2, n3], [end2, end3])
    }

    #[test]
    fn fig3a_cascading_full_logs() {
        let (mut net, [n1, n2, n3], _) = fig3a_net();
        net.push_event(n1, "e1");
        net.push_event(n1, "e2");
        net.push_event(n2, "e3");
        net.push_event(n2, "e4");
        net.push_event(n3, "e5");
        net.push_event(n3, "e6");
        let out = run_net(&mut net);
        // The paper's resulting flow for Figure 3(a).
        assert_eq!(flow_str(&out), "e1, e3, e5, e6, e4, e2");
        assert!(out.omitted.is_empty());
        assert!(out.warnings.is_empty());
        assert_eq!(out.flow.observed_count(), 6);
    }

    #[test]
    fn fig3a_only_e2_survives_infers_everything() {
        // "Even when there is only one event e2 on node 1 and all other
        // events are lost, the transition algorithm can generate the correct
        // event flow and infer lost events."
        let (mut net, [n1, _, _], _) = fig3a_net();
        net.push_event(n1, "e2");
        let out = run_net(&mut net);
        assert_eq!(flow_str(&out), "[e1], [e3], [e5], [e6], [e4], e2");
        assert_eq!(out.flow.inferred_count(), 5);
        assert_eq!(out.flow.observed_count(), 1);
    }

    #[test]
    fn a_front_that_forcing_unblocks_is_picked_at_once() {
        // `b` leaves both Mid and Alt, so from Init it is ambiguous and y's
        // logged `b` waits — until z's `x1` forces y to Mid by inference
        // alone (nothing is popped from y's queue). From then on y, the
        // earlier engine, has the least ready front: `b` goes before `x2`.
        let mut y = FsmBuilder::new("y");
        let (init, mid, alt) = (y.state("Init"), y.state("Mid"), y.state("Alt"));
        let (end, end2) = (y.state("End"), y.state("End2"));
        y.t(init, "a", mid)
            .t(mid, "b", end)
            .t(init, "c", alt)
            .t(alt, "b", end2);
        let mut net = ConnectedNet::new();
        let ty = net.add_template(y.build().unwrap());
        let tz = net.add_template(chain("z", "x1", "x2"));
        let y = net.add_engine(ty);
        let z = net.add_engine(tz);
        net.add_rule(z, "x1", InterRule::new(y, &[mid], mid));
        net.push_event(y, "b");
        net.push_event(z, "x1");
        net.push_event(z, "x2");
        let out = run_net(&mut net);
        assert_eq!(flow_str(&out), "[a], x1, b, x2");
        assert!(out.omitted.is_empty());
    }

    #[test]
    fn rules_may_be_registered_in_any_engine_order() {
        // Figure 3(a) again, the later engine's rule first: each engine
        // still finds its own.
        let mut net = ConnectedNet::new();
        let t1 = net.add_template(chain("n1", "e1", "e2"));
        let t2 = net.add_template(chain("n2", "e3", "e4"));
        let t3 = net.add_template(chain("n3", "e5", "e6"));
        let n1 = net.add_engine(t1);
        let n2 = net.add_engine(t2);
        let n3 = net.add_engine(t3);
        let end2 = end(net.template(t2));
        let end3 = end(net.template(t3));
        net.add_rule(n2, "e4", InterRule::new(n3, &[end3], end3));
        net.add_rule(n1, "e2", InterRule::new(n2, &[end2], end2));
        net.push_event(n1, "e2");
        let out = run_net(&mut net);
        assert_eq!(flow_str(&out), "[e1], [e3], [e5], [e6], [e4], e2");
    }

    #[test]
    fn fig3b_one_to_many_partial_order() {
        // e4 on node2 requires both node1 and node3 to reach End.
        let mut net = ConnectedNet::new();
        let t1 = net.add_template(chain("n1", "e1", "e2"));
        let t2 = net.add_template(chain("n2", "e3", "e4"));
        let t3 = net.add_template(chain("n3", "e5", "e6"));
        let n1 = net.add_engine(t1);
        let n2 = net.add_engine(t2);
        let n3 = net.add_engine(t3);
        let end1 = end(net.template(t1));
        let end3 = end(net.template(t3));
        for (peer, s) in [(n1, end1), (n3, end3)] {
            net.add_rule(n2, "e4", InterRule::new(peer, &[s], s));
        }
        net.push_event(n1, "e1");
        net.push_event(n1, "e2");
        net.push_event(n2, "e3");
        net.push_event(n2, "e4");
        net.push_event(n3, "e5");
        net.push_event(n3, "e6");
        let out = run_net(&mut net);
        let pos = |l: &str| {
            out.flow
                .payloads()
                .position(|p| *p == l)
                .unwrap_or_else(|| panic!("{l} missing"))
        };
        // e2 and e6 must both precede e4 (paper's stated constraint).
        assert!(out.flow.happens_before(pos("e2"), pos("e4")));
        assert!(out.flow.happens_before(pos("e6"), pos("e4")));
        // The ordering between e1 and e5 is genuinely undetermined.
        assert!(out.flow.concurrent(pos("e1"), pos("e5")));
        assert!(out.flow.concurrent(pos("e2"), pos("e6")));
    }

    #[test]
    fn fig3c_many_to_one() {
        // e3 on node2 is the prerequisite of e1 on node1 and e5 on node3.
        let mut net = ConnectedNet::new();
        let t1 = net.add_template(chain("n1", "e1", "e2"));
        let t2 = net.add_template(chain("n2", "e3", "e4"));
        let t3 = net.add_template(chain("n3", "e5", "e6"));
        let n1 = net.add_engine(t1);
        let n2 = net.add_engine(t2);
        let n3 = net.add_engine(t3);
        let mid2 = mid(net.template(t2));
        for (eng, label) in [(n1, "e1"), (n3, "e5")] {
            net.add_rule(eng, label, InterRule::new(n2, &[mid2], mid2));
        }
        for (e, evs) in [(n1, ["e1", "e2"]), (n2, ["e3", "e4"]), (n3, ["e5", "e6"])] {
            for ev in evs {
                net.push_event(e, ev);
            }
        }
        let out = run_net(&mut net);
        let pos = |l: &str| out.flow.payloads().position(|p| *p == l).unwrap();
        // e3 must occur before e1, e2, e5 and e6.
        for l in ["e1", "e2", "e5", "e6"] {
            assert!(
                out.flow.happens_before(pos("e3"), pos(l)),
                "e3 should precede {l}"
            );
        }
    }

    #[test]
    fn fig3d_mixed() {
        // e1/e5 require node2's Mid (after e3); e4 requires node1's and
        // node3's End (after e2/e6) — the negotiation/broadcast shape.
        let mut net = ConnectedNet::new();
        let t1 = net.add_template(chain("n1", "e1", "e2"));
        let t2 = net.add_template(chain("n2", "e3", "e4"));
        let t3 = net.add_template(chain("n3", "e5", "e6"));
        let n1 = net.add_engine(t1);
        let n2 = net.add_engine(t2);
        let n3 = net.add_engine(t3);
        let mid2 = mid(net.template(t2));
        let end1 = end(net.template(t1));
        let end3 = end(net.template(t3));
        for (eng, label) in [(n1, "e1"), (n3, "e5")] {
            net.add_rule(eng, label, InterRule::new(n2, &[mid2], mid2));
        }
        for (peer, s) in [(n1, end1), (n3, end3)] {
            net.add_rule(n2, "e4", InterRule::new(peer, &[s], s));
        }
        for (e, evs) in [(n1, ["e1", "e2"]), (n2, ["e3", "e4"]), (n3, ["e5", "e6"])] {
            for ev in evs {
                net.push_event(e, ev);
            }
        }
        let out = run_net(&mut net);
        let pos = |l: &str| out.flow.payloads().position(|p| *p == l).unwrap();
        assert!(out.flow.happens_before(pos("e3"), pos("e1")));
        assert!(out.flow.happens_before(pos("e3"), pos("e5")));
        assert!(out.flow.happens_before(pos("e2"), pos("e4")));
        assert!(out.flow.happens_before(pos("e6"), pos("e4")));
        assert!(out.warnings.is_empty());
    }

    /// Sender/forwarder templates matching the CTP hop machine shape.
    fn sender() -> FsmTemplate<&'static str> {
        let mut b = FsmBuilder::new("sender");
        let init = b.state("Init");
        let sending = b.state("Sending");
        let acked = b.state("Acked");
        b.t(init, "trans", sending)
            .t(sending, "trans", sending)
            .t(sending, "ack", acked);
        b.build().unwrap()
    }

    fn forwarder() -> FsmTemplate<&'static str> {
        let mut b = FsmBuilder::new("forwarder");
        let init = b.state("Init");
        let got = b.state("Got");
        let sending = b.state("Sending");
        let acked = b.state("Acked");
        b.t(init, "recv", got)
            .t(got, "trans", sending)
            .t(sending, "trans", sending)
            .t(sending, "ack", acked);
        b.build().unwrap()
    }

    #[test]
    fn forcing_takes_inferred_prefix_without_consuming_logged_event() {
        // The Case-4 situation: the receiver's log has only its *next-hop*
        // trans; forcing it to Got must infer [recv] and leave the trans
        // queued so it appears after the sender's ack in the flow.
        let mut net = ConnectedNet::new();
        let ts = net.add_template(sender());
        let tf = net.add_template(forwarder());
        let a = net.add_engine(ts);
        let b = net.add_engine(tf);
        let got = net.template(tf).state_by_name("Got").unwrap();
        net.add_rule(a, "ack", InterRule::new(b, &[got], got));
        net.push_event(a, "trans");
        net.push_event(a, "ack");
        net.push_event(b, "trans");
        let out = run_net(&mut net);
        assert_eq!(flow_str(&out), "trans, [recv], ack, trans");
    }

    #[test]
    fn forcing_consumes_logged_events_when_they_lead_to_target() {
        // The complete-log case: the receiver's own recv satisfies the
        // prerequisite; nothing is inferred.
        let mut net = ConnectedNet::new();
        let ts = net.add_template(sender());
        let tf = net.add_template(forwarder());
        let a = net.add_engine(ts);
        let b = net.add_engine(tf);
        let got = net.template(tf).state_by_name("Got").unwrap();
        net.add_rule(a, "ack", InterRule::new(b, &[got], got));
        net.push_event(a, "trans");
        net.push_event(a, "ack");
        net.push_event(b, "recv");
        let out = run_net(&mut net);
        assert_eq!(flow_str(&out), "trans, recv, ack");
        assert_eq!(out.flow.inferred_count(), 0);
    }

    #[test]
    fn forcing_infers_when_peer_log_is_empty() {
        // Table II Case 2 at the net level.
        let mut net = ConnectedNet::new();
        let ts = net.add_template(sender());
        let tf = net.add_template(forwarder());
        let a = net.add_engine(ts);
        let b = net.add_engine(tf);
        let got = net.template(tf).state_by_name("Got").unwrap();
        net.add_rule(a, "ack", InterRule::new(b, &[got], got));
        net.push_event(a, "trans");
        net.push_event(a, "ack");
        let out = run_net(&mut net);
        assert_eq!(flow_str(&out), "trans, [recv], ack");
    }

    #[test]
    fn unprocessable_events_are_omitted() {
        let mut net = ConnectedNet::new();
        let ts = net.add_template(sender());
        let a = net.add_engine(ts);
        net.push_event(a, "nonsense");
        net.push_event(a, "trans");
        let out = run_net(&mut net);
        // "nonsense" blocks, is omitted, then trans processes.
        assert_eq!(flow_str(&out), "trans");
        assert_eq!(out.omitted, vec![(a, "nonsense")]);
    }

    #[test]
    fn retransmissions_self_loop() {
        let mut net = ConnectedNet::new();
        let ts = net.add_template(sender());
        let a = net.add_engine(ts);
        for ev in ["trans", "trans", "trans", "ack"] {
            net.push_event(a, ev);
        }
        let out = run_net(&mut net);
        assert_eq!(flow_str(&out), "trans, trans, trans, ack");
        assert!(out.omitted.is_empty());
    }

    #[test]
    fn cyclic_prerequisites_terminate_with_warning() {
        // Two engines each requiring the other's Mid before their own first
        // label: pathological, must not hang.
        let mut net = ConnectedNet::new();
        let t1 = net.add_template(chain("n1", "x1", "y1"));
        let t2 = net.add_template(chain("n2", "x2", "y2"));
        let a = net.add_engine(t1);
        let b = net.add_engine(t2);
        let mid1 = mid(net.template(t1));
        let mid2 = mid(net.template(t2));
        net.add_rule(a, "x1", InterRule::new(b, &[mid2], mid2));
        net.add_rule(b, "x2", InterRule::new(a, &[mid1], mid1));
        net.push_event(a, "x1");
        net.push_event(b, "x2");
        let out = run_net(&mut net);
        assert!(out
            .warnings
            .iter()
            .any(|w| matches!(w, NetWarning::CyclicPrerequisite { .. })));
        // Both observed events still make it into the flow.
        assert_eq!(out.flow.observed_count(), 2);
    }

    #[test]
    fn unsatisfiable_prerequisite_warns_but_continues() {
        let mut net = ConnectedNet::new();
        let t1 = net.add_template(chain("n1", "x1", "y1"));
        let t2 = net.add_template(chain("n2", "x2", "y2"));
        let a = net.add_engine(t1);
        let b = net.add_engine(t2);
        let mid2 = mid(net.template(t2));
        net.push_event(b, "x2");
        net.push_event(b, "y2");
        // An empty satisfying set can never be met.
        let rule = InterRule::new(b, &[], mid2);
        net.add_rule(a, "x1", rule);
        net.push_event(a, "x1");
        let out = run_net(&mut net);
        assert!(out
            .warnings
            .iter()
            .any(|w| matches!(w, NetWarning::Unsatisfiable { .. })));
        // x1 is still processed after the failed forcing.
        assert!(out.flow.payloads().any(|p| *p == "x1"));
    }

    #[test]
    fn dependencies_record_prerequisite_edges() {
        let (mut net, [n1, _, _], _) = fig3a_net();
        net.push_event(n1, "e1");
        net.push_event(n1, "e2");
        let out = run_net(&mut net);
        // e2 is last; its deps must include the inferred e4 entry.
        let e2_idx = out.flow.payloads().position(|p| *p == "e2").unwrap();
        let e4_idx = out.flow.payloads().position(|p| *p == "e4").unwrap();
        assert!(out.flow.happens_before(e4_idx, e2_idx));
    }

    #[test]
    fn grouped_engines_share_one_queue_in_order() {
        // Two sender engines at "the same node": their interleaved log is
        // consumed strictly in order even though the engines differ.
        let mut net: ConnectedNet<&'static str, &'static str> = ConnectedNet::new();
        let ts = net.add_template(sender());
        let g = net.add_group();
        let v0 = net.add_engine_in_group(ts, g);
        let v1 = net.add_engine_in_group(ts, g);
        net.push_event(v0, "trans");
        net.push_event(v1, "trans");
        net.push_event(v0, "ack");
        net.push_event(v1, "ack");
        let out = run_net(&mut net);
        assert_eq!(flow_str(&out), "trans, trans, ack, ack");
        // Per-group order is enforced by dependency edges.
        for w in out
            .flow
            .entries
            .iter()
            .enumerate()
            .collect::<Vec<_>>()
            .windows(2)
        {
            let (i, _) = w[0];
            let (j, _) = w[1];
            assert!(out.flow.happens_before(i, j));
        }
    }

    #[test]
    fn forcing_consumes_other_visits_events_first() {
        // Node B's log interleaves visit events: [recv(v0), trans(v0)];
        // a second engine v1's event sits *behind* them. Forcing v1 must
        // first drain v0's earlier events (they precede in node order).
        let mut net: ConnectedNet<&'static str, &'static str> = ConnectedNet::new();
        let ts = net.add_template(sender());
        let tf = net.add_template(forwarder());
        let a = net.add_engine(ts);
        let g = net.add_group();
        let v0 = net.add_engine_in_group(tf, g);
        let v1 = net.add_engine_in_group(tf, g);
        let got = net.template(tf).state_by_name("Got").unwrap();
        net.add_rule(a, "ack", InterRule::new(v1, &[got], got));
        net.push_event(v0, "recv");
        net.push_event(v0, "trans");
        net.push_event(v1, "recv");
        net.push_event(a, "trans");
        net.push_event(a, "ack");
        let out = run_net(&mut net);
        // v0's recv and trans were consumed (in order) on the way to v1's
        // recv, which satisfied the prerequisite.
        assert_eq!(flow_str(&out), "trans, recv, trans, recv, ack");
        assert_eq!(out.flow.inferred_count(), 0);
    }
}
