//! In-memory spans for the traced run.
//!
//! A span wraps one call into a layer's public function, made from the
//! benchmark's own code. Spans of one chip, request or candidate share an
//! op id; replays of an op's constituent calls are children of the op's
//! span. A layer's time is its spans' self time: duration minus the part
//! of it that child spans cover. Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Shared by every span of one chip, request or candidate.
    pub op: u64,
    /// Layer call, e.g. `lambda.runaway_limit`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

/// The span and counter store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, Vec<f64>>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Tracer {
    /// A fresh id for a new op.
    pub fn new_op(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn record(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Records one value of a counter taken from a public return value.
    pub fn count(&self, name: &'static str, value: f64) {
        self.counts
            .lock()
            .expect("counter store poisoned")
            .entry(name)
            .or_default()
            .push(value);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Every value recorded for counter `name`.
    pub fn counts(&self, name: &str) -> Vec<f64> {
        self.counts
            .lock()
            .expect("counter store poisoned")
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    /// One JSON object per line for every span, oldest first.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, parent, s.op, s.name, s.start, s.end
            ));
        }
        out
    }
}

/// Where a call sits in the trace: the tracer (none when tracing is off),
/// the op it belongs to and the span that caused it.
#[derive(Debug, Clone, Copy)]
pub struct Scope<'a> {
    tracer: Option<&'a Tracer>,
    op: u64,
    parent: Option<u64>,
}

impl<'a> Scope<'a> {
    /// The root scope of a new op.
    pub fn op(tracer: Option<&'a Tracer>) -> Scope<'a> {
        Scope {
            tracer,
            op: tracer.map_or(0, Tracer::new_op),
            parent: None,
        }
    }

    /// The tracer, when tracing is on.
    pub fn tracer(&self) -> Option<&'a Tracer> {
        self.tracer
    }

    /// Runs `f` inside a span named `name`; `f` gets the child scope.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce(Scope<'a>) -> T) -> T {
        let Some(tracer) = self.tracer else {
            return f(*self);
        };
        let id = tracer.new_op();
        let start = tracer.now();
        let out = f(Scope {
            tracer: self.tracer,
            op: self.op,
            parent: Some(id),
        });
        let end = tracer.now();
        tracer.record(Span {
            id,
            parent: self.parent,
            op: self.op,
            name,
            start,
            end,
        });
        out
    }

    /// Records a counter value when tracing is on.
    pub fn count(&self, name: &'static str, value: f64) {
        if let Some(t) = self.tracer {
            t.count(name, value);
        }
    }
}

/// Self time of every span, ns: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, (s.end - s.start).saturating_sub(covered))
        })
        .collect()
}

/// Self times of every span named `name`, in milliseconds.
pub fn self_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let selfs = self_times(spans);
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| selfs[&s.id] as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "x",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 50, 60),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 70);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&3], 10);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two parallel children covering 10..40 and 20..50: union 10..50.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 20, 50),
        ];
        assert_eq!(self_times(&spans)[&1], 60);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        // A replay recorded after its op's call ended still parents to it,
        // but only the part inside the parent's interval is subtracted.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 90, 150),
            span(3, Some(1), 200, 300),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 90);
        assert_eq!(st[&2], 60);
    }

    #[test]
    fn grandchildren_reduce_only_their_parent() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 0, 50),
            span(3, Some(2), 0, 40),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 50);
        assert_eq!(st[&2], 10);
        assert_eq!(st[&3], 40);
    }

    #[test]
    fn scopes_nest_and_share_the_op() {
        let tracer = Tracer::default();
        let root = Scope::op(Some(&tracer));
        root.span("outer", |inner| {
            inner.span("inner", |_| ());
            inner.count("hits", 2.0);
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.op, outer.op);
        assert!(outer.start <= inner.start && inner.end <= outer.end);
        assert_eq!(tracer.counts("hits"), [2.0]);
        assert!(tracer.spans_jsonl().lines().count() == 2);
    }

    #[test]
    fn an_untraced_scope_records_nothing() {
        let off = Scope::op(None);
        assert_eq!(off.span("x", |_| 5), 5);
        assert!(off.tracer().is_none());
    }
}
