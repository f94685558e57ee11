//! Spans recorded from outside the measured crates.
//!
//! The benchmark brackets each call into a layer's public function with
//! [`Tracer::enter`] / [`Tracer::exit`]. Timing always happens — the
//! end-to-end metrics need the durations — but spans are only *kept* in
//! a traced run, in a preallocated `Vec` that is written out when the
//! workload ends. A layer's self time is its spans' duration minus the
//! part their child spans cover.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`sim.round`, `store.write_epoch`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// An open span: what [`Tracer::exit`] needs to close it.
#[must_use = "a span that is never exited records nothing"]
pub struct Open {
    name: &'static str,
    start: Instant,
    /// Slot reserved in the span list (traced runs only).
    slot: Option<usize>,
}

/// Span recorder for one thread of one workload.
pub struct Tracer {
    origin: Instant,
    /// `None` in an untraced run: nothing is kept.
    spans: Option<Vec<Span>>,
    /// Innermost open span.
    current: Option<usize>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`; keeps spans only when
    /// `traced` (room for `capacity` of them up front, so recording
    /// never reallocates inside a measured region that stays under it).
    pub fn new(origin: Instant, traced: bool, capacity: usize) -> Self {
        Self {
            origin,
            spans: traced.then(|| Vec::with_capacity(capacity)),
            current: None,
        }
    }

    /// Whether spans are being kept.
    pub fn traced(&self) -> bool {
        self.spans.is_some()
    }

    /// The instant this tracer counts from (share it with tracers on
    /// other threads so their spans line up).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Open a span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let slot = self.spans.as_mut().map(|spans| {
            spans.push(Span {
                name,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.current,
            });
            spans.len() - 1
        });
        if slot.is_some() {
            self.current = slot;
        }
        Open { name, start, slot }
    }

    /// Close a span; returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let (Some(spans), Some(slot)) = (self.spans.as_mut(), open.slot) {
            debug_assert_eq!(
                self.current,
                Some(slot),
                "span {} closed out of order",
                open.name
            );
            spans[slot].end_ns = (end - self.origin).as_nanos() as u64;
            self.current = spans[slot].parent;
        }
        (end - open.start).as_secs_f64()
    }

    /// Time `f` under a span; returns its result and the seconds spent.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.enter(name);
        let result = f();
        (result, self.exit(open))
    }

    /// Fold in the spans another thread's tracer kept (same origin).
    /// Their top-level spans stay parentless.
    pub fn absorb(&mut self, other: Tracer) {
        let (Some(mine), Some(theirs)) = (self.spans.as_mut(), other.spans) else {
            return;
        };
        let offset = mine.len();
        mine.extend(theirs.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// The spans kept so far.
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// The trace as JSON: `{workload, spans: [{name, start_ns, end_ns,
    /// parent, workload}]}`.
    pub fn to_json(&self, workload: &str) -> Value {
        let spans: Vec<Value> = self
            .spans()
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent,
                    "workload": workload,
                })
            })
            .collect();
        json!({ "workload": workload, "spans": spans })
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, seconds.
    pub total_s: f64,
    /// Summed durations minus the time covered by direct children.
    pub self_s: f64,
}

/// Total and self time per span name. Children are assumed to nest
/// inside their parent and not overlap each other, which `enter` /
/// `exit` on one thread guarantee.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.end_ns - span.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, &children) in spans.iter().zip(&child_ns) {
        let duration = span.end_ns - span.start_ns;
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_s += duration as f64 * 1e-9;
        entry.self_s += duration.saturating_sub(children) as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span("outer", 0, 1_000, None),
            span("inner", 100, 400, Some(0)),
            span("inner", 500, 700, Some(0)),
            span("leaf", 150, 200, Some(1)),
        ];
        let t = totals(&spans);
        assert_eq!(t["outer"].count, 1);
        assert!((t["outer"].total_s - 1_000e-9).abs() < 1e-15);
        assert!((t["outer"].self_s - 500e-9).abs() < 1e-15);
        assert_eq!(t["inner"].count, 2);
        assert!((t["inner"].total_s - 500e-9).abs() < 1e-15);
        assert!((t["inner"].self_s - 450e-9).abs() < 1e-15);
        assert!((t["leaf"].self_s - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_and_restores_the_parent() {
        let mut tr = Tracer::new(Instant::now(), true, 8);
        let outer = tr.enter("outer");
        let a = tr.enter("a");
        tr.exit(a);
        let b = tr.enter("b");
        tr.exit(b);
        tr.exit(outer);
        let top = tr.enter("top");
        tr.exit(top);
        let parents: Vec<_> = tr.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), None]);
        assert!(tr.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn untraced_tracer_times_but_keeps_nothing() {
        let mut tr = Tracer::new(Instant::now(), false, 8);
        let ((), seconds) = tr.time("work", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(seconds >= 0.002);
        assert!(tr.spans().is_empty());
        assert!(!tr.traced());
    }

    #[test]
    fn absorbed_spans_keep_their_own_parents() {
        let origin = Instant::now();
        let mut main = Tracer::new(origin, true, 8);
        let m = main.enter("main");
        main.exit(m);
        let mut side = Tracer::new(origin, true, 8);
        let outer = side.enter("side");
        let inner = side.enter("side.inner");
        side.exit(inner);
        side.exit(outer);
        main.absorb(side);
        let parents: Vec<_> = main.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, None, Some(1)]);
    }
}
