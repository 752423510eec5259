//! In-memory span tracer for the traced pass.
//!
//! Coarse boundaries (one experiment, one sweep, one request) are
//! recorded as individual spans. Hot boundaries (a backend query, a fold
//! `accept`, a searcher `propose`) would allocate millions of spans, so
//! they are *aggregated*: one span per `(parent, name)` pair that carries
//! the call count, the item count and the summed busy time. Both kinds
//! attach to the innermost span open at the time they are recorded.
//!
//! A span's self time is its duration minus the time its children cover;
//! the self times of a tree sum exactly to the root's duration, so the
//! root's own self time is the traced pass's unattributed residual.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span (or an aggregate of many identical child calls).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    /// Start, in ns since the tracer's epoch (first call for aggregates).
    pub start_ns: u64,
    /// End, in ns since the epoch (last call for aggregates).
    pub end_ns: u64,
    /// Busy time: `end - start` for a plain span, the summed call time
    /// for an aggregate.
    pub busy_ns: u64,
    /// Calls folded into this span (1 for a plain span).
    pub calls: u64,
    /// Work items the calls carried (queries, ids, points).
    pub items: u64,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    stack: Vec<usize>,
    aggregates: BTreeMap<(Option<usize>, &'static str), usize>,
}

/// The span store. Shared by reference (`Arc`) with every adapter.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer lock poisoned by a panicking span")
    }

    /// Open a span named `name` as a child of the innermost open span.
    pub fn open(&self, name: &str) -> usize {
        let start_ns = self.now_ns();
        let mut st = self.lock();
        let parent = st.stack.last().copied();
        st.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns: start_ns,
            busy_ns: 0,
            calls: 1,
            items: 0,
        });
        let id = st.spans.len() - 1;
        st.stack.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        let mut st = self.lock();
        let popped = st.stack.pop();
        assert_eq!(popped, Some(id), "spans close in LIFO order");
        let span = &mut st.spans[id];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - span.start_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Record one hot call of `busy` duration carrying `items` work items,
    /// aggregated under the innermost open span.
    pub fn add(&self, name: &'static str, busy: Duration, items: u64) {
        let end_ns = self.now_ns();
        let busy_ns = busy.as_nanos() as u64;
        let mut st = self.lock();
        let parent = st.stack.last().copied();
        let next = st.spans.len();
        let id = *st.aggregates.entry((parent, name)).or_insert(next);
        if id == next {
            st.spans.push(Span {
                name: name.to_string(),
                parent,
                start_ns: end_ns.saturating_sub(busy_ns),
                end_ns,
                busy_ns: 0,
                calls: 0,
                items: 0,
            });
        }
        let span = &mut st.spans[id];
        span.end_ns = end_ns;
        span.busy_ns += busy_ns;
        span.calls += 1;
        span.items += items;
    }

    /// Time `f` as one aggregated call of `name` carrying `items` items.
    pub fn time<T>(&self, name: &'static str, items: u64, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed(), items);
        out
    }

    /// Every span recorded so far, in creation order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Self time of every span, in ns: its busy time minus its children's.
/// Negative only when children overlap in time (parallel threads).
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(|s| s.busy_ns as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.busy_ns as i64;
        }
    }
    out
}

/// Per-name totals over a span tree: `(self ns, busy ns, calls, items)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<String, (i64, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, (i64, u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += own;
        e.1 += s.busy_ns;
        e.2 += s.calls;
        e.3 += s.items;
    }
    out
}

/// Spans as JSON lines (name, start, end, busy, parent, calls, items).
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":{:?},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"calls\":{},\"items\":{}}}\n",
            s.name, s.start_ns, s.end_ns, s.busy_ns, s.calls, s.items
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, busy_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            parent,
            start_ns: 0,
            end_ns: busy_ns,
            busy_ns,
            calls: 1,
            items: 0,
        }
    }

    #[test]
    fn self_times_and_residual_sum_to_the_root() {
        // root 100 = a 60 (of which c 25 + d 5) + b 30 + residual 10.
        let spans = vec![
            span("root", None, 100),
            span("a", Some(0), 60),
            span("b", Some(0), 30),
            span("c", Some(1), 25),
            span("d", Some(1), 5),
        ];
        let s = self_times(&spans);
        assert_eq!(s, vec![10, 30, 30, 25, 5]);
        assert_eq!(s.iter().sum::<i64>(), 100, "self times tile the root");
        let names = by_name(&spans);
        assert_eq!(names["root"].0, 10, "root self time is the residual");
        assert_eq!(names["a"].1, 60);
    }

    #[test]
    fn aggregates_attach_to_the_open_span_and_sum() {
        let t = Tracer::new();
        t.span("root", || {
            t.add("hot", Duration::from_nanos(40), 3);
            t.span("child", || t.add("hot", Duration::from_nanos(7), 1));
            t.add("hot", Duration::from_nanos(2), 5);
        });
        let spans = t.spans();
        let names = by_name(&spans);
        assert_eq!(names["hot"].2, 3, "three calls");
        assert_eq!(names["hot"].3, 9, "nine items");
        assert_eq!(names["hot"].1, 49);
        // Two aggregates: one under root, one under child.
        assert_eq!(spans.iter().filter(|s| s.name == "hot").count(), 2);
        let selfs = self_times(&spans);
        assert_eq!(selfs.iter().sum::<i64>(), spans[0].busy_ns as i64);
    }
}
