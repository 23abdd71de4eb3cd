//! In-memory span recording around the benchmark's calls into each
//! layer's public functions.
//!
//! Spans are kept in a `Vec` while the workload runs and written out
//! once at the end, so recording costs two clock reads and a push. A
//! span's *self time* is its duration minus the part of its interval
//! covered by its direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Spans of one request (one round of the closed loop) share this.
    pub trace: usize,
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
}

/// An open span; hand it back to [`Tracer::close`].
#[must_use]
pub struct Open {
    id: usize,
    name: &'static str,
    start: Instant,
}

/// Span recorder. A disabled tracer still times every span (the
/// workloads need the durations) but records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_id: usize,
    trace: usize,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_id: 0,
            trace: 0,
        }
    }

    /// Starts a new request: spans opened from now on share a fresh
    /// trace identifier.
    pub fn next_trace(&mut self) {
        self.trace += 1;
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        if self.enabled {
            self.stack.push(id);
        }
        Open {
            id,
            name,
            start: Instant::now(),
        }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        let secs = end.duration_since(open.start).as_secs_f64();
        if self.enabled {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(open.id), "spans close in LIFO order");
            self.spans.push(Span {
                id: open.id,
                parent: self.stack.last().copied(),
                trace: self.trace,
                name: open.name,
                start_s: open.start.duration_since(self.origin).as_secs_f64(),
                end_s: end.duration_since(self.origin).as_secs_f64(),
            });
        }
        secs
    }

    /// Runs `f` inside a span named `name`; returns its result and
    /// duration in seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.open(name);
        let r = f();
        (r, self.close(open))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as one JSON document.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = format!("{{{header},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{},\"parent\":{parent},\"trace\":{},\"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
                if i == 0 { "" } else { "," },
                s.id,
                s.trace,
                s.name,
                s.start_s,
                s.end_s
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Total self time per span name: each span's duration minus the union
/// of its direct children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_s, s.end_s));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0.0, |c| covered_within(c, s.start_s, s.end_s));
        *out.entry(s.name).or_insert(0.0) += (s.end_s - s.start_s) - covered;
    }
    out
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered_within(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Measured cost of recording one span, seconds (median of a few
/// batches), used to state the tracing overhead of a traced run.
pub fn span_cost_s() -> f64 {
    const BATCH: usize = 20_000;
    let mut costs: Vec<f64> = (0..5)
        .map(|_| {
            let mut t = Tracer::new(true);
            let start = Instant::now();
            for _ in 0..BATCH {
                let o = t.open("probe");
                t.close(o);
            }
            start.elapsed().as_secs_f64() / BATCH as f64
        })
        .collect();
    costs.sort_by(f64::total_cmp);
    costs[costs.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, a: f64, b: f64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name,
            start_s: a,
            end_s: b,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // round [0,10] ⊃ evaluate [1,4] ⊃ inner [2,3]; what_if [5,9].
        let spans = vec![
            span(2, Some(1), "inner", 2.0, 3.0),
            span(1, Some(0), "evaluate", 1.0, 4.0),
            span(3, Some(0), "what_if", 5.0, 9.0),
            span(0, None, "round", 0.0, 10.0),
        ];
        let st = self_times(&spans);
        assert!((st["round"] - 3.0).abs() < 1e-12);
        assert!((st["evaluate"] - 2.0).abs() < 1e-12);
        assert!((st["inner"] - 1.0).abs() < 1e-12);
        assert!((st["what_if"] - 4.0).abs() < 1e-12);
        // Self times partition the root's wall time.
        let sum: f64 = st.values().sum();
        assert!((sum - 10.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(0, None, "parent", 0.0, 10.0),
            span(1, Some(0), "a", 1.0, 5.0),
            span(2, Some(0), "b", 3.0, 7.0),
            span(3, Some(0), "c", 9.0, 12.0),
        ];
        // Union inside [0,10]: [1,7] ∪ [9,10] = 7.
        assert!((self_times(&spans)["parent"] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_nesting_and_trace_ids() {
        let mut t = Tracer::new(true);
        t.next_trace();
        let outer = t.open("outer");
        let ((), _) = t.time("inner", || ());
        t.close(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].name, "inner");
        assert_eq!(s[0].parent, Some(s[1].id));
        assert_eq!(s[1].parent, None);
        assert!(s.iter().all(|x| x.trace == 1));
        assert!(t.to_json("\"w\":1").contains("\"name\":\"inner\""));
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.time("x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
