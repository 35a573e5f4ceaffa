//! FSM inference engines.
//!
//! Section IV-A/B of the paper: each node's protocol behaviour is modelled
//! as a finite state machine `G = (S, T, E)` — states, directed transitions,
//! and the event (label) on each transition. The machine as written by the
//! protocol author contains only *normal* transitions; [`FsmBuilder::build`]
//! then **augments** it with derived *intra-node transitions*:
//!
//! > Given an event `e`, for all transitions with event `e` and for any
//! > state `s_x`, if there is one and only one target state `s_jc` among
//! > them that is reachable from `s_x`, add an intra-node transition from
//! > `s_x` to `s_jc` with event `e`.
//!
//! Taking such a transition means the events along the normal path from
//! `s_x` to the real transition's source were *lost*; the augmentation
//! precomputes that canonical path so the runtime can synthesize the lost
//! events (the bracketed entries of the paper's event flows).
//!
//! The derived machine is *compiled*: [`FsmBuilder::build`] lays every
//! `(state, label) → transitions to take` answer out in one flat table (the
//! template's distinct labels, a run per state × label, one vector of steps),
//! so that processing an event is "take the transition" — [`FsmTemplate::plan`]
//! is a scan of a handful of labels and one index, and hands back a borrowed
//! slice. Nothing is hashed after `build` returns.
//!
//! Templates are generic over the label type `L`, so protocols other than
//! CTP (and the synthetic machines of Figure 3) can be expressed; see
//! [`crate::ctp_model`] for the shipped CTP/LPL machine.

use netsim::fx::FxHashMap;
use std::collections::VecDeque;
use std::fmt::Debug;
use std::hash::Hash;

/// Bound on label types used throughout the engine.
pub trait Label: Clone + Eq + Hash + Debug {}
impl<T: Clone + Eq + Hash + Debug> Label for T {}

/// A state in a template (index within that template).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

netsim::json_newtype!(StateId(u32));

impl StateId {
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A transition in a template (index within that template).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransId(pub u32);

impl TransId {
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A normal transition: `from --label--> to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition<L> {
    /// Source state.
    pub from: StateId,
    /// Target state.
    pub to: StateId,
    /// The event label on the edge.
    pub label: L,
}

/// A derived intra-node transition: on `label` at some state, walk `via`
/// (normal transitions whose events were *lost*) and then take
/// `final_trans` (the normal transition that actually carries `label`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntraPlan {
    /// Lost-event transitions to replay first, in order.
    pub via: Vec<TransId>,
    /// The real transition for the observed event.
    pub final_trans: TransId,
}

/// Where one plan sits in its template's step table: a run of
/// [`FsmTemplate::steps_of`]. Every step except the last corresponds to an
/// inferred lost event; the last carries the observed event itself (a normal
/// transition is a run of one). `Copy`, so the runner can keep a planned
/// front without borrowing the template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlanSpan {
    start: u32,
    len: u32,
}

impl PlanSpan {
    /// "No plan": the label cannot be processed from the state.
    pub(crate) const NONE: PlanSpan = PlanSpan { start: 0, len: 0 };

    /// Number of steps (never zero for a span [`FsmTemplate::plan_span`]
    /// returned).
    pub(crate) fn len(self) -> usize {
        self.len as usize
    }

    /// The sub-plan of steps `0..=upto` (used when forcing should stop at
    /// an intermediate prerequisite state instead of overshooting it).
    pub(crate) fn prefix(self, upto: usize) -> PlanSpan {
        debug_assert!(upto < self.len());
        PlanSpan {
            start: self.start,
            len: upto as u32 + 1,
        }
    }
}

/// An ambiguity found during augmentation: from `state`, label `label` has
/// several reachable targets, so no intra-node transition was added.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ambiguity<L> {
    /// The state the ambiguity was detected at.
    pub state: StateId,
    /// The label with multiple reachable targets.
    pub label: L,
    /// The competing target states.
    pub targets: Vec<StateId>,
}

/// Errors from [`FsmBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsmError<L> {
    /// Two normal transitions share `(state, label)` — the machine would be
    /// nondeterministic.
    Nondeterministic {
        /// Offending source state.
        state: StateId,
        /// Offending label.
        label: L,
    },
    /// The template has no states.
    Empty,
}

/// An immutable, augmented FSM template.
#[derive(Debug, Clone)]
pub struct FsmTemplate<L> {
    name: String,
    state_names: Vec<String>,
    initial: StateId,
    transitions: Vec<Transition<L>>,
    /// The derived intra-node transitions as augmentation found them: the
    /// input of the plan table, and what [`FsmTemplate::intra_transitions`]
    /// and [`FsmTemplate::to_dot`] list. Never probed per event.
    intra: FxHashMap<(StateId, L), IntraPlan>,
    /// reach1[s] = states reachable from s via ≥1 normal transitions.
    reach1: Vec<Vec<bool>>,
    /// first_step[from * states + to] = the first transition of
    /// `normal_path(from, to)`.
    first_step: Vec<Option<TransId>>,
    ambiguities: Vec<Ambiguity<L>>,
    /// The machine's distinct labels, in order of their first transition.
    labels: Vec<L>,
    /// spans[state * labels.len() + label] = where the plan for `label` at
    /// `state` sits in `steps` ([`PlanSpan::NONE`] when there is none).
    spans: Vec<PlanSpan>,
    /// Every plan's transitions, back to back: a normal transition is a run
    /// of one, an intra-node plan is its `via` followed by its `final_trans`.
    steps: Vec<TransId>,
}

impl<L: Label> FsmTemplate<L> {
    /// Template name (for reporting).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.state_names.len()
    }

    /// Human-readable name of a state.
    pub fn state_name(&self, s: StateId) -> &str {
        &self.state_names[s.idx()]
    }

    /// Look up a state id by name.
    pub fn state_by_name(&self, name: &str) -> Option<StateId> {
        self.state_names
            .iter()
            .position(|n| n == name)
            .map(|i| StateId(i as u32))
    }

    /// The normal transitions.
    pub fn transitions(&self) -> &[Transition<L>] {
        &self.transitions
    }

    /// A transition by id.
    pub fn transition(&self, t: TransId) -> &Transition<L> {
        &self.transitions[t.idx()]
    }

    /// The derived intra-node transitions, as `(state, label) → plan`.
    pub fn intra_transitions(&self) -> impl Iterator<Item = (&(StateId, L), &IntraPlan)> {
        self.intra.iter()
    }

    /// Ambiguities encountered during augmentation (labels whose lost-path
    /// target was not unique from some state).
    pub fn ambiguities(&self) -> &[Ambiguity<L>] {
        &self.ambiguities
    }

    /// True if `to` is reachable from `from` via one or more normal
    /// transitions.
    pub fn reachable(&self, from: StateId, to: StateId) -> bool {
        self.reach1[from.idx()][to.idx()]
    }

    /// True if `to` is reachable from `from` via zero or more normal
    /// transitions.
    pub fn reachable0(&self, from: StateId, to: StateId) -> bool {
        from == to || self.reachable(from, to)
    }

    /// How to process `label` from `state`: all transitions to take, in
    /// order — one for a normal transition, several for an intra-node
    /// transition (every step but the last is an inferred lost event; the
    /// last carries the observed event itself) — or `None` if the event
    /// cannot be processed from here. Read from the table
    /// [`FsmBuilder::build`] compiled; never empty.
    pub fn plan(&self, state: StateId, label: &L) -> Option<&[TransId]> {
        self.plan_span(state, label).map(|span| self.steps_of(span))
    }

    /// [`FsmTemplate::plan`]'s answer as its place in the step table.
    pub(crate) fn plan_span(&self, state: StateId, label: &L) -> Option<PlanSpan> {
        // A machine has a handful of labels: a scan, so `Label` needs no
        // order and no hash is computed.
        let label = self.labels.iter().position(|l| l == label)?;
        let span = *self.spans.get(state.idx() * self.labels.len() + label)?;
        (span != PlanSpan::NONE).then_some(span)
    }

    /// The transitions of a plan [`FsmTemplate::plan_span`] returned.
    pub(crate) fn steps_of(&self, span: PlanSpan) -> &[TransId] {
        &self.steps[span.start as usize..(span.start + span.len) as usize]
    }

    /// True if `label` can be processed from `state` (normal or intra).
    pub fn can_process(&self, state: StateId, label: &L) -> bool {
        self.plan_span(state, label).is_some()
    }

    /// Lay `(state, label) → steps` out flat from the normal transitions
    /// and the derived `intra` plans (which never shadow a normal one).
    fn compile_plans(&mut self) {
        let mut labels: Vec<L> = Vec::new();
        for t in &self.transitions {
            if !labels.contains(&t.label) {
                labels.push(t.label.clone());
            }
        }
        let mut spans = vec![PlanSpan::NONE; self.state_names.len() * labels.len()];
        let mut steps = Vec::new();
        for (slot, span) in spans.iter_mut().enumerate() {
            let (state, label) = (
                StateId((slot / labels.len()) as u32),
                &labels[slot % labels.len()],
            );
            let normal = self
                .transitions
                .iter()
                .position(|t| t.from == state && t.label == *label);
            let start = steps.len() as u32;
            if let Some(t) = normal {
                steps.push(TransId(t as u32));
            } else if let Some(p) = self.intra.get(&(state, label.clone())) {
                steps.extend_from_slice(&p.via);
                steps.push(p.final_trans);
            }
            let len = steps.len() as u32 - start;
            if len > 0 {
                *span = PlanSpan { start, len };
            }
        }
        self.labels = labels;
        self.spans = spans;
        self.steps = steps;
    }

    /// Shortest path of normal transitions from `from` to `to` (BFS;
    /// deterministic tie-break by transition id). `Some(vec![])` if
    /// `from == to`.
    pub fn normal_path(&self, from: StateId, to: StateId) -> Option<Vec<TransId>> {
        if from == to {
            return Some(Vec::new());
        }
        let n = self.state_names.len();
        let mut prev: Vec<Option<TransId>> = vec![None; n];
        let mut seen = vec![false; n];
        seen[from.idx()] = true;
        let mut q = VecDeque::new();
        q.push_back(from);
        while let Some(s) = q.pop_front() {
            // Expand in transition-id order for determinism.
            for (i, t) in self.transitions.iter().enumerate() {
                if t.from == s && !seen[t.to.idx()] {
                    seen[t.to.idx()] = true;
                    prev[t.to.idx()] = Some(TransId(i as u32));
                    if t.to == to {
                        // Reconstruct.
                        let mut path = Vec::new();
                        let mut cur = to;
                        while cur != from {
                            let tid = prev[cur.idx()].expect("path exists");
                            path.push(tid);
                            cur = self.transitions[tid.idx()].from;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    q.push_back(t.to);
                }
            }
        }
        None
    }

    /// The first transition of [`FsmTemplate::normal_path`]`(from, to)`,
    /// read from a table filled at build time: `None` when `to` is `from`
    /// or out of reach. Forcing a peer toward a prerequisite state takes the
    /// canonical path one step at a time, and must not search per step.
    pub fn first_step(&self, from: StateId, to: StateId) -> Option<TransId> {
        self.first_step[from.idx() * self.state_names.len() + to.idx()]
    }

    /// Labels that can be processed by a *fresh* instance (from the initial
    /// state), used for visit segmentation.
    pub fn entry_processable(&self, label: &L) -> bool {
        self.can_process(self.initial, label)
    }

    /// A copy of this template with every derived intra-node transition
    /// removed — only normal transitions remain. Used by the ablation
    /// study to quantify what the augmentation contributes.
    pub fn strip_intra(&self) -> Self {
        let mut t = self.clone();
        t.intra.clear();
        t.compile_plans();
        t
    }

    /// Render the machine as Graphviz DOT, in the style of the paper's
    /// Figure 2: solid edges are the protocol's normal transitions, dashed
    /// edges are the derived intra-node jumps (labelled with the jump event
    /// and the lost events they imply).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", self.name);
        let _ = writeln!(out, "  rankdir=LR;");
        for (i, name) in self.state_names.iter().enumerate() {
            let shape = if StateId(i as u32) == self.initial {
                "doublecircle"
            } else {
                "circle"
            };
            let _ = writeln!(out, "  s{i} [label=\"{name}\", shape={shape}];");
        }
        for t in &self.transitions {
            let _ = writeln!(
                out,
                "  s{} -> s{} [label=\"{:?}\"];",
                t.from.0, t.to.0, t.label
            );
        }
        // Deterministic intra order for stable output.
        let mut intra: Vec<(&(StateId, L), &IntraPlan)> = self.intra.iter().collect();
        intra.sort_by_key(|((s, _), p)| (*s, p.final_trans));
        for ((from, label), plan) in intra {
            let to = self.transitions[plan.final_trans.idx()].to;
            let lost: Vec<String> = plan
                .via
                .iter()
                .map(|t| format!("{:?}", self.transitions[t.idx()].label))
                .collect();
            let _ = writeln!(
                out,
                "  s{} -> s{} [label=\"{:?} / lost: [{}]\", style=dashed];",
                from.0,
                to.0,
                label,
                lost.join(", ")
            );
        }
        out.push_str("}\n");
        out
    }
}

/// Builder for [`FsmTemplate`].
#[derive(Debug, Clone)]
pub struct FsmBuilder<L> {
    name: String,
    state_names: Vec<String>,
    initial: StateId,
    transitions: Vec<Transition<L>>,
}

impl<L: Label> FsmBuilder<L> {
    /// Start a template named `name`. The first state added is the initial
    /// state unless [`FsmBuilder::set_initial`] is called.
    pub fn new(name: impl Into<String>) -> Self {
        FsmBuilder {
            name: name.into(),
            state_names: Vec::new(),
            initial: StateId(0),
            transitions: Vec::new(),
        }
    }

    /// Add a state; returns its id.
    pub fn state(&mut self, name: impl Into<String>) -> StateId {
        self.state_names.push(name.into());
        StateId(self.state_names.len() as u32 - 1)
    }

    /// Override the initial state.
    pub fn set_initial(&mut self, s: StateId) -> &mut Self {
        self.initial = s;
        self
    }

    /// Add a normal transition `from --label--> to`.
    pub fn t(&mut self, from: StateId, label: L, to: StateId) -> &mut Self {
        self.transitions.push(Transition { from, to, label });
        self
    }

    /// Validate, compute reachability, and derive intra-node transitions.
    pub fn build(self) -> Result<FsmTemplate<L>, FsmError<L>> {
        if self.state_names.is_empty() {
            return Err(FsmError::Empty);
        }
        let n = self.state_names.len();

        // Determinism check + normal index.
        let mut normal: FxHashMap<(StateId, L), TransId> = FxHashMap::default();
        for (i, t) in self.transitions.iter().enumerate() {
            if normal
                .insert((t.from, t.label.clone()), TransId(i as u32))
                .is_some()
            {
                return Err(FsmError::Nondeterministic {
                    state: t.from,
                    label: t.label.clone(),
                });
            }
        }

        // reach1 via BFS from each state.
        let mut adj: Vec<Vec<StateId>> = vec![Vec::new(); n];
        for t in &self.transitions {
            adj[t.from.idx()].push(t.to);
        }
        let mut reach1 = vec![vec![false; n]; n];
        for s in 0..n {
            let mut q: VecDeque<usize> = adj[s].iter().map(|t| t.idx()).collect();
            for t in &adj[s] {
                reach1[s][t.idx()] = true;
            }
            let mut seen = reach1[s].clone();
            while let Some(u) = q.pop_front() {
                for v in &adj[u] {
                    if !seen[v.idx()] {
                        seen[v.idx()] = true;
                        reach1[s][v.idx()] = true;
                        q.push_back(v.idx());
                    }
                }
            }
        }

        let mut template = FsmTemplate {
            name: self.name,
            state_names: self.state_names,
            initial: self.initial,
            transitions: self.transitions,
            intra: FxHashMap::default(),
            reach1,
            first_step: Vec::new(),
            ambiguities: Vec::new(),
            labels: Vec::new(),
            spans: Vec::new(),
            steps: Vec::new(),
        };
        template.first_step = (0..n * n)
            .map(|pair| {
                let (from, to) = (StateId((pair / n) as u32), StateId((pair % n) as u32));
                template.normal_path(from, to)?.first().copied()
            })
            .collect();
        augment(&mut template, &normal);
        template.compile_plans();
        Ok(template)
    }
}

/// Derive intra-node transitions per the paper's rule (see module docs).
fn augment<L: Label>(template: &mut FsmTemplate<L>, normal: &FxHashMap<(StateId, L), TransId>) {
    // Collect distinct labels with their transitions.
    let mut by_label: FxHashMap<L, Vec<TransId>> = FxHashMap::default();
    for (i, t) in template.transitions.iter().enumerate() {
        by_label
            .entry(t.label.clone())
            .or_default()
            .push(TransId(i as u32));
    }

    let n = template.state_names.len();
    let mut intra = FxHashMap::default();
    let mut ambiguities = Vec::new();

    // Deterministic label iteration: sort by first transition id.
    let mut labels: Vec<(L, Vec<TransId>)> = by_label.into_iter().collect();
    labels.sort_by_key(|(_, ts)| ts[0]);

    for (label, trans_ids) in labels {
        // Distinct targets of this label.
        let mut targets: Vec<StateId> = trans_ids
            .iter()
            .map(|t| template.transitions[t.idx()].to)
            .collect();
        targets.sort_unstable();
        targets.dedup();

        for sx in (0..n).map(|i| StateId(i as u32)) {
            // Normal transitions take priority; no intra entry needed.
            if normal.contains_key(&(sx, label.clone())) {
                continue;
            }
            // Reachable (≥1 step) targets from sx.
            let reachable: Vec<StateId> = targets
                .iter()
                .copied()
                .filter(|t| template.reach1[sx.idx()][t.idx()])
                .collect();
            match reachable.len() {
                0 => {}
                1 => {
                    let sjc = reachable[0];
                    // Candidate real transitions: label transitions into sjc
                    // whose source is reachable (≥0) from sx.
                    let mut best: Option<(usize, TransId, Vec<TransId>)> = None;
                    for &tid in &trans_ids {
                        let t = &template.transitions[tid.idx()];
                        if t.to != sjc {
                            continue;
                        }
                        if let Some(path) = template.normal_path(sx, t.from) {
                            let cost = path.len();
                            let better = match &best {
                                None => true,
                                Some((bc, bt, _)) => cost < *bc || (cost == *bc && tid < *bt),
                            };
                            if better {
                                best = Some((cost, tid, path));
                            }
                        }
                    }
                    if let Some((_, final_trans, via)) = best {
                        intra.insert((sx, label.clone()), IntraPlan { via, final_trans });
                    }
                }
                _ => {
                    ambiguities.push(Ambiguity {
                        state: sx,
                        label: label.clone(),
                        targets: reachable,
                    });
                }
            }
        }
    }

    template.intra = intra;
    template.ambiguities = ambiguities;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The minimal sender machine used throughout the paper's examples:
    /// Init --trans--> Sending --ack--> Acked, with a retransmission
    /// self-loop.
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

    /// A forwarder: Init --recv--> Got --trans--> Sending --ack--> Acked,
    /// plus drop branches.
    fn forwarder() -> FsmTemplate<&'static str> {
        let mut b = FsmBuilder::new("forwarder");
        let init = b.state("Init");
        let got = b.state("Got");
        let sending = b.state("Sending");
        let acked = b.state("Acked");
        let dup = b.state("DupDrop");
        let ovf = b.state("OvfDrop");
        b.t(init, "recv", got)
            .t(init, "dup", dup)
            .t(got, "overflow", ovf)
            .t(got, "trans", sending)
            .t(sending, "trans", sending)
            .t(sending, "ack", acked);
        b.build().unwrap()
    }

    #[test]
    fn build_rejects_nondeterminism() {
        let mut b = FsmBuilder::new("bad");
        let a = b.state("A");
        let x = b.state("X");
        let y = b.state("Y");
        b.t(a, "e", x).t(a, "e", y);
        match b.build() {
            Err(FsmError::Nondeterministic { state, label }) => {
                assert_eq!(state, a);
                assert_eq!(label, "e");
            }
            other => panic!("expected nondeterminism error, got {other:?}"),
        }
    }

    #[test]
    fn build_rejects_empty() {
        let b: FsmBuilder<&str> = FsmBuilder::new("empty");
        assert!(matches!(b.build(), Err(FsmError::Empty)));
    }

    #[test]
    fn reachability_basic() {
        let f = forwarder();
        let init = f.state_by_name("Init").unwrap();
        let acked = f.state_by_name("Acked").unwrap();
        let dup = f.state_by_name("DupDrop").unwrap();
        assert!(f.reachable(init, acked));
        assert!(f.reachable(init, dup));
        assert!(!f.reachable(acked, init));
        assert!(!f.reachable(dup, acked));
        // Irreflexive without a cycle:
        assert!(!f.reachable(acked, acked));
        // Self-loop makes Sending reach itself.
        let sending = f.state_by_name("Sending").unwrap();
        assert!(f.reachable(sending, sending));
        assert!(f.reachable0(acked, acked));
    }

    #[test]
    fn augmentation_adds_jump_over_lost_events() {
        // The paper's core example: an `ack` at Init implies trans was lost.
        let s = sender();
        let init = s.initial();
        let plan = s.plan(init, &"ack").expect("intra transition derived");
        assert_eq!(plan.len(), 2, "one lost trans + the ack itself");
        let states: Vec<StateId> = plan.iter().map(|t| s.transition(*t).to).collect();
        assert_eq!(s.state_name(states[0]), "Sending");
        assert_eq!(s.state_name(states[1]), "Acked");
    }

    #[test]
    fn augmentation_in_forwarder_covers_all_jumps() {
        let f = forwarder();
        let init = f.initial();
        let got = f.state_by_name("Got").unwrap();
        // trans at Init: lost [recv].
        let p = f.plan(init, &"trans").unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(f.transition(p[0]).label, "recv");
        // ack at Init: lost [recv, trans].
        let p = f.plan(init, &"ack").unwrap();
        assert_eq!(p.len(), 3);
        let labels: Vec<_> = p.iter().map(|t| f.transition(*t).label).collect();
        assert_eq!(labels, vec!["recv", "trans", "ack"]);
        // overflow at Init: lost [recv].
        let p = f.plan(init, &"overflow").unwrap();
        assert_eq!(p.len(), 2);
        // ack at Got: lost [trans].
        let p = f.plan(got, &"ack").unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn no_intra_transition_backwards() {
        let f = forwarder();
        let acked = f.state_by_name("Acked").unwrap();
        // A second recv at Acked is a *new visit*, not a transition.
        assert!(f.plan(acked, &"recv").is_none());
        assert!(!f.can_process(acked, &"recv"));
    }

    #[test]
    fn normal_transition_takes_priority_over_intra() {
        let f = forwarder();
        let got = f.state_by_name("Got").unwrap();
        let p = f.plan(got, &"trans").unwrap();
        assert_eq!(p.len(), 1, "normal transition, no inference");
    }

    #[test]
    fn ambiguous_targets_are_reported_not_added() {
        // Two different `done` targets reachable from Init.
        let mut b = FsmBuilder::new("amb");
        let init = b.state("Init");
        let l = b.state("L");
        let r = b.state("R");
        let dl = b.state("DoneL");
        let dr = b.state("DoneR");
        b.t(init, "left", l)
            .t(init, "right", r)
            .t(l, "done", dl)
            .t(r, "done", dr);
        let f = b.build().unwrap();
        assert!(f.plan(init, &"done").is_none());
        assert!(f
            .ambiguities()
            .iter()
            .any(|a| a.state == init && a.label == "done" && a.targets.len() == 2));
    }

    #[test]
    fn normal_path_is_shortest_and_deterministic() {
        let f = forwarder();
        let init = f.initial();
        let acked = f.state_by_name("Acked").unwrap();
        let path = f.normal_path(init, acked).unwrap();
        let labels: Vec<_> = path.iter().map(|t| f.transition(*t).label).collect();
        assert_eq!(labels, vec!["recv", "trans", "ack"]);
        assert_eq!(f.normal_path(init, init), Some(vec![]));
        assert_eq!(f.normal_path(acked, init), None);
    }

    #[test]
    fn first_step_table_matches_the_search() {
        for f in [sender(), forwarder()] {
            let states = || (0..f.state_count() as u32).map(StateId);
            for (from, to) in states().flat_map(|from| states().map(move |to| (from, to))) {
                let searched = f.normal_path(from, to).and_then(|p| p.first().copied());
                assert_eq!(f.first_step(from, to), searched, "{from:?} -> {to:?}");
            }
        }
        let f = forwarder();
        let acked = f.state_by_name("Acked").unwrap();
        let first = f.first_step(f.initial(), acked).unwrap();
        assert_eq!(f.transition(first).label, "recv");
        assert_eq!(f.first_step(acked, acked), None);
        assert_eq!(f.first_step(acked, f.initial()), None);
    }

    #[test]
    fn entry_processable_includes_intra() {
        let f = forwarder();
        assert!(f.entry_processable(&"recv"));
        assert!(f.entry_processable(&"dup"));
        assert!(f.entry_processable(&"trans"), "via intra jump");
        assert!(f.entry_processable(&"ack"), "via intra jump");
        assert!(!f.entry_processable(&"nonsense"));
    }

    #[test]
    fn dot_export_shows_normal_and_intra_edges() {
        let f = forwarder();
        let dot = f.to_dot();
        assert!(dot.starts_with("digraph \"forwarder\" {"));
        // Initial state is marked.
        assert!(dot.contains("shape=doublecircle"));
        // A normal edge and a dashed intra jump with its lost path.
        assert!(dot.contains("[label=\"\\\"recv\\\"\"];") || dot.contains("recv"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("lost:"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn state_lookup_roundtrip() {
        let f = sender();
        for i in 0..f.state_count() as u32 {
            let s = StateId(i);
            assert_eq!(f.state_by_name(f.state_name(s)), Some(s));
        }
        assert_eq!(f.state_by_name("NoSuch"), None);
        assert_eq!(f.name(), "sender");
    }
}
