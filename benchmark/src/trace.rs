//! Spans around the benchmark's calls into each layer.
//!
//! The spans are recorded from the benchmark's own files — nothing inside
//! the program under test is instrumented — kept in memory, and written
//! out once at exit. A disabled tracer still times the call (callers sum
//! those durations into the op time) but records nothing, so the traced
//! and untraced runs execute the same code and their difference is the
//! tracing overhead.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Span {
    /// `<layer>.<what>`, e.g. `c3i.tm_seq` or `mta_sim.run.mixed`.
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one op.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. Single-threaded by construction (`RefCell`);
/// load-generator threads collect their own intervals and hand them over
/// through [`Tracer::add_children`].
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    op: Cell<u64>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    /// A tracer that times calls but records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    /// Start a new op: every span recorded from here on carries the new
    /// identifier.
    pub fn next_op(&self) {
        self.op.set(self.op.get() + 1);
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become its
    /// children. Returns `f`'s result and the elapsed nanoseconds.
    pub fn timed<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, u64) {
        if !self.enabled {
            let t0 = Instant::now();
            let out = f();
            return (out, t0.elapsed().as_nanos() as u64);
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                op: self.op.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[index].start_ns = self.ns(t0);
        spans[index].end_ns = self.ns(t1);
        (out, (t1 - t0).as_nanos() as u64)
    }

    /// Record already-measured intervals (one per request, measured on
    /// the load-generator threads) as children of the most recent span
    /// named `parent`.
    pub fn add_children(
        &self,
        parent: &str,
        children: impl IntoIterator<Item = (String, Instant, Instant)>,
    ) {
        if !self.enabled {
            return;
        }
        let mut spans = self.spans.borrow_mut();
        let parent = spans.iter().rposition(|s| s.name == parent);
        let op = self.op.get();
        for (name, start, end) in children {
            spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent,
                op,
            });
        }
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Sum of the durations of spans named `name`, per op, in op order —
    /// "what did this layer cost in one op" when an op opens the span
    /// several times (once per scenario).
    pub fn per_op_totals(&self, name: &str) -> Vec<u64> {
        let mut totals: Vec<(u64, u64)> = Vec::new();
        for s in self.spans.borrow().iter().filter(|s| s.name == name) {
            match totals.last_mut() {
                Some((op, sum)) if *op == s.op => *sum += s.dur_ns(),
                _ => totals.push((s.op, s.dur_ns())),
            }
        }
        totals.into_iter().map(|(_, sum)| sum).collect()
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap one another (two
/// connections in flight at once), so the covered part is the union of
/// the child intervals clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, 0u64);
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// The trace file body: every span with its self time.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    #[derive(serde::Serialize)]
    struct Row {
        index: usize,
        name: String,
        start_ns: u64,
        end_ns: u64,
        self_ns: u64,
        parent: Option<usize>,
        op: u64,
    }
    #[derive(serde::Serialize)]
    struct File {
        workload: String,
        seed: u64,
        spans: Vec<Row>,
    }
    let selfs = self_times(spans);
    let file = File {
        workload: workload.to_string(),
        seed,
        spans: spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(index, (s, self_ns))| Row {
                index,
                name: s.name.clone(),
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                self_ns,
                parent: s.parent,
                op: s.op,
            })
            .collect(),
    };
    serde_json::to_string(&file).expect("serialize trace")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t".into(),
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span(0, 100, None),    // 0: root
            span(10, 40, Some(0)), // 1: child
            span(40, 60, Some(0)), // 2: adjacent child (touches 1)
            span(15, 25, Some(1)), // 3: grandchild, counts against 1 only
            span(70, 80, Some(0)), // 4: later child after a gap
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 30 - 20 - 10, 30 - 10, 20, 10, 10]
        );
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_to_parent() {
        let spans = vec![
            span(100, 200, None),
            span(110, 150, Some(0)),
            span(130, 170, Some(0)), // overlaps 1: union is 110..170
            span(190, 260, Some(0)), // runs past the parent: clipped to 200
            span(0, 50, Some(0)),    // entirely outside: ignored
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn timed_nests_spans_and_off_records_nothing() {
        let tr = Tracer::on();
        tr.next_op();
        let (v, ns) = tr.timed("outer", || tr.timed("inner", || 41).0 + 1);
        assert_eq!(v, 42);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 1);
        assert!(spans[0].dur_ns() >= spans[1].dur_ns());
        assert!(ns >= spans[1].dur_ns());

        let off = Tracer::off();
        assert_eq!(off.timed("x", || 7).0, 7);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn per_op_totals_group_by_op() {
        let tr = Tracer::on();
        for _ in 0..2 {
            tr.next_op();
            tr.timed("a", || ());
            tr.timed("b", || ());
            tr.timed("a", || ());
        }
        assert_eq!(tr.durations("a").len(), 4);
        assert_eq!(tr.per_op_totals("a").len(), 2);
        assert_eq!(tr.per_op_totals("b").len(), 2);
    }
}
