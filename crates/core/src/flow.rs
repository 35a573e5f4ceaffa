//! Event flows: the output of REFILL.
//!
//! An event flow is the reconstructed ordering of all events of interest
//! (per packet, in the tracing use case). Entries are either *observed*
//! (present in a collected log) or *inferred* (lost events recovered from
//! intra-/inter-node correlations — printed in square brackets, matching
//! the paper's notation).
//!
//! The flow is stored as a linearization **plus** the partial-order edges
//! that the transition algorithm actually derived. For 1-to-many
//! prerequisite shapes (Figure 3b) the relative order of independent
//! branches is genuinely undetermined; [`EventFlow::happens_before`] answers
//! ordering queries against the true partial order, while the linearization
//! is one consistent witness.
//!
//! The edges of all entries sit back to back in one vector; an entry holds
//! only where its own run ends ([`FlowEntry::dep_end`]), and
//! [`EventFlow::deps_of`] reads a run back. A flow is therefore two
//! allocations however many entries it has.

use crate::net::EngineId;
use netsim::json_struct;
use std::fmt;

/// One entry of an event flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowEntry<E> {
    /// The event payload (an [`eventlog::Event`] in the tracing use case).
    pub payload: E,
    /// The engine instance that produced the entry.
    pub engine: EngineId,
    /// `true` for events present in a log; `false` for inferred lost events.
    pub observed: bool,
    /// Where this entry's run of predecessor edges ends in the flow's edge
    /// vector; it starts where the previous entry's ends. Read the run
    /// through [`EventFlow::deps_of`].
    pub dep_end: u32,
}

json_struct!(write FlowEntry<E> { payload, engine, observed, dep_end });

/// A reconstructed event flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventFlow<E> {
    /// Entries in linearization order (a topological order of the partial
    /// order by construction).
    pub entries: Vec<FlowEntry<E>>,
    /// The predecessor edges of every entry, back to back in entry order.
    deps: Vec<u32>,
}

json_struct!(write EventFlow<E> { entries, deps });

impl<E> Default for EventFlow<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventFlow<E> {
    /// An empty flow.
    pub fn new() -> Self {
        EventFlow {
            entries: Vec::new(),
            deps: Vec::new(),
        }
    }

    /// An empty flow with room for `entries` entries and `deps` edges.
    pub fn with_capacity(entries: usize, deps: usize) -> Self {
        EventFlow {
            entries: Vec::with_capacity(entries),
            deps: Vec::with_capacity(deps),
        }
    }

    /// Drop every entry and edge, keeping both vectors' capacity.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.deps.clear();
    }

    /// Make room for at least `entries` more entries and `deps` more edges
    /// (amortised, as [`Vec::reserve`]: a vector that has to grow at least
    /// doubles).
    pub(crate) fn reserve(&mut self, entries: usize, deps: usize) {
        self.entries.reserve(entries);
        self.deps.reserve(deps);
    }

    /// Append an entry ordered after the entries `deps` (its immediate
    /// predecessors in the partial order); returns its index.
    pub fn push(&mut self, payload: E, engine: EngineId, observed: bool, deps: &[u32]) -> usize {
        debug_assert!(deps.iter().all(|&d| (d as usize) < self.entries.len()));
        self.deps.extend_from_slice(deps);
        self.entries.push(FlowEntry {
            payload,
            engine,
            observed,
            dep_end: self.deps.len() as u32,
        });
        self.entries.len() - 1
    }

    /// Indices of the entries that entry `i` is ordered after (its
    /// immediate predecessors in the partial order).
    pub fn deps_of(&self, i: usize) -> &[u32] {
        let start = match i {
            0 => 0,
            _ => self.entries[i - 1].dep_end as usize,
        };
        &self.deps[start..self.entries[i].dep_end as usize]
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the flow has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of observed entries.
    pub fn observed_count(&self) -> usize {
        self.entries.iter().filter(|e| e.observed).count()
    }

    /// Number of inferred (lost-and-recovered) entries.
    pub fn inferred_count(&self) -> usize {
        self.entries.iter().filter(|e| !e.observed).count()
    }

    /// Payloads in linearization order.
    pub fn payloads(&self) -> impl Iterator<Item = &E> {
        self.entries.iter().map(|e| &e.payload)
    }

    /// The last entry in linearization order, if any.
    pub fn last(&self) -> Option<&FlowEntry<E>> {
        self.entries.last()
    }

    /// True if entry `a` is ordered strictly before entry `b` in the
    /// *partial* order (reachability over dependency edges).
    ///
    /// Returns `false` both when `b` precedes `a` and when the two are
    /// incomparable (the Figure 3b situation).
    pub fn happens_before(&self, a: usize, b: usize) -> bool {
        if a >= b {
            // Deps always point backwards, so forward reachability from a
            // later index is impossible.
            return false;
        }
        // DFS backwards from b through deps.
        let mut stack = vec![b];
        let mut seen = vec![false; self.entries.len()];
        while let Some(i) = stack.pop() {
            if i == a {
                return true;
            }
            if seen[i] {
                continue;
            }
            seen[i] = true;
            for &d in self.deps_of(i) {
                if d as usize >= a {
                    stack.push(d as usize);
                }
            }
        }
        false
    }

    /// True if neither entry is ordered before the other.
    pub fn concurrent(&self, a: usize, b: usize) -> bool {
        a != b && !self.happens_before(a, b) && !self.happens_before(b, a)
    }

    /// Verify the linearization is a topological order of the dependency
    /// edges (always true by construction; exposed for property tests).
    pub fn is_consistent(&self) -> bool {
        (0..self.entries.len()).all(|i| self.deps_of(i).iter().all(|&d| (d as usize) < i))
    }

    /// Render the partial order as Graphviz DOT: entries are nodes (dashed
    /// for inferred events), dependency edges point forward in time. Handy
    /// for inspecting the non-total orderings of 1-to-many prerequisite
    /// shapes.
    pub fn to_dot(&self) -> String
    where
        E: fmt::Display,
    {
        use fmt::Write;
        let mut out = String::from("digraph event_flow {\n  rankdir=LR;\n");
        for (i, e) in self.entries.iter().enumerate() {
            let style = if e.observed { "solid" } else { "dashed" };
            let _ = writeln!(
                out,
                "  n{i} [label=\"{}\", style={style}];",
                e.payload.to_string().replace('"', "'")
            );
        }
        for i in 0..self.entries.len() {
            for &d in self.deps_of(i) {
                let _ = writeln!(out, "  n{d} -> n{i};");
            }
        }
        out.push_str("}\n");
        out
    }

    /// Map payloads, preserving structure.
    pub fn map<F, T>(&self, mut f: F) -> EventFlow<T>
    where
        F: FnMut(&E) -> T,
    {
        EventFlow {
            entries: self
                .entries
                .iter()
                .map(|e| FlowEntry {
                    payload: f(&e.payload),
                    engine: e.engine,
                    observed: e.observed,
                    dep_end: e.dep_end,
                })
                .collect(),
            deps: self.deps.clone(),
        }
    }
}

impl<E: fmt::Display> fmt::Display for EventFlow<E> {
    /// Formats like the paper: `1-2 trans, [1-2 recv], [2-3 trans], 2-3 recv`
    /// with inferred events in square brackets.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            if e.observed {
                write!(f, "{}", e.payload)?;
            } else {
                write!(f, "[{}]", e.payload)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eid(i: u32) -> EngineId {
        EngineId(i)
    }

    #[test]
    fn push_and_counts() {
        let mut flow = EventFlow::new();
        let a = flow.push("a", eid(0), true, &[]);
        let b = flow.push("b", eid(0), false, &[a as u32]);
        flow.push("c", eid(1), true, &[b as u32]);
        assert_eq!(flow.len(), 3);
        assert_eq!(flow.observed_count(), 2);
        assert_eq!(flow.inferred_count(), 1);
        assert!(flow.is_consistent());
    }

    #[test]
    fn display_brackets_inferred() {
        let mut flow = EventFlow::new();
        flow.push("1-2 trans", eid(0), true, &[]);
        flow.push("1-2 recv", eid(1), false, &[0]);
        flow.push("1-2 ack recvd", eid(0), true, &[1]);
        assert_eq!(flow.to_string(), "1-2 trans, [1-2 recv], 1-2 ack recvd");
    }

    #[test]
    fn happens_before_follows_deps_transitively() {
        let mut flow = EventFlow::new();
        let a = flow.push("a", eid(0), true, &[]);
        let b = flow.push("b", eid(0), true, &[a as u32]);
        let c = flow.push("c", eid(0), true, &[b as u32]);
        assert!(flow.happens_before(a, c));
        assert!(flow.happens_before(a, b));
        assert!(!flow.happens_before(c, a));
    }

    #[test]
    fn independent_branches_are_concurrent() {
        // Diamond: a and x independent, both feed z (Figure 3b shape).
        let mut flow = EventFlow::new();
        let a = flow.push("e1", eid(0), true, &[]);
        let x = flow.push("e5", eid(2), true, &[]);
        let b = flow.push("e2", eid(0), true, &[a as u32]);
        let y = flow.push("e6", eid(2), true, &[x as u32]);
        let z = flow.push("e4", eid(1), true, &[b as u32, y as u32]);
        assert!(flow.concurrent(a, x));
        assert!(flow.concurrent(b, y));
        assert!(flow.happens_before(a, z));
        assert!(flow.happens_before(x, z));
        assert!(!flow.concurrent(a, z));
    }

    #[test]
    fn map_preserves_structure() {
        let mut flow = EventFlow::new();
        flow.push(1u32, eid(0), true, &[]);
        flow.push(2u32, eid(0), false, &[0]);
        let mapped = flow.map(|v| v * 10);
        assert_eq!(mapped.entries[1].payload, 20);
        assert!(!mapped.entries[1].observed);
        assert_eq!(mapped.deps_of(1), [0]);
        assert!(mapped.deps_of(0).is_empty());
    }

    #[test]
    fn to_dot_renders_nodes_and_edges() {
        let mut flow = EventFlow::new();
        let a = flow.push("1-2 trans", eid(0), true, &[]);
        flow.push("1-2 recv", eid(1), false, &[a as u32]);
        let dot = flow.to_dot();
        assert!(dot.starts_with("digraph event_flow {"));
        assert!(dot.contains("n0 [label=\"1-2 trans\", style=solid];"));
        assert!(dot.contains("n1 [label=\"1-2 recv\", style=dashed];"));
        assert!(dot.contains("n0 -> n1;"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn empty_flow_behaves() {
        let flow: EventFlow<&str> = EventFlow::new();
        assert!(flow.is_empty());
        assert!(flow.last().is_none());
        assert_eq!(flow.to_string(), "");
    }
}
