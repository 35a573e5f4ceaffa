//! In-memory span recorder for the traced run.
//!
//! The harness wraps each call into a layer's public function in
//! [`Tracer::span`]. Spans nest by call structure (the parent is whichever
//! span is open on this thread), carry the repetition they belong to, and
//! stay in memory until [`Tracer::to_json`] is written out at exit. With the tracer
//! off a span is one predictable branch around the call, so the same
//! operation code serves the untraced and the traced run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One completed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The repetition this span belongs to.
    pub rep: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

#[derive(Debug)]
struct State {
    spans: Vec<Span>,
    /// Indices of the currently open spans, outermost first.
    open: Vec<usize>,
    rep: u32,
}

/// Per-name totals over all recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub calls: u64,
    pub total_s: f64,
    /// Total minus the time covered by direct child spans.
    pub self_s: f64,
}

/// The recorder. Single-threaded by construction: every layer call the
/// harness makes is issued from the main thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    state: Option<RefCell<State>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            state: None,
        }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            state: Some(RefCell::new(State {
                spans: Vec::new(),
                open: Vec::new(),
                rep: 0,
            })),
        }
    }

    /// Tag subsequent spans with repetition `rep`.
    pub fn set_rep(&self, rep: u32) {
        if let Some(state) = &self.state {
            state.borrow_mut().rep = rep;
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(state) = &self.state else {
            return f();
        };
        let id = {
            let mut st = state.borrow_mut();
            let id = st.spans.len();
            let span = Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: st.open.last().copied(),
                rep: st.rep,
            };
            st.spans.push(span);
            st.open.push(id);
            id
        };
        let out = f();
        let mut st = state.borrow_mut();
        st.spans[id].end_ns = self.now_ns();
        st.open.pop();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.state
            .as_ref()
            .map_or_else(Vec::new, |s| s.borrow().spans.clone())
    }

    /// Calls, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let spans = self.spans();
        let mut child_s = vec![0.0f64; spans.len()];
        for span in &spans {
            if let Some(p) = span.parent {
                child_s[p] += span.secs();
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, children) in spans.iter().zip(&child_s) {
            let t = out.entry(span.name).or_default();
            t.calls += 1;
            t.total_s += span.secs();
            t.self_s += span.secs() - children;
        }
        out
    }

    /// Share of each `root`-named span's time covered by its direct
    /// children, over all such spans.
    pub fn coverage(&self, root: &str) -> f64 {
        let spans = self.spans();
        let mut root_s = 0.0;
        let mut child_s = 0.0;
        for span in &spans {
            if span.name == root {
                root_s += span.secs();
            } else if span.parent.is_some_and(|p| spans[p].name == root) {
                child_s += span.secs();
            }
        }
        child_s / root_s
    }

    /// The spans as a JSON document (names are harness literals with no
    /// characters that need escaping).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        );
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rep\":{}}}",
                s.name, s.start_ns, s.end_ns, s.rep
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
