//! In-memory span recorder and the self-time fold.
//!
//! Spans are recorded around the public calls a workload makes (the
//! benchmark's own code, never inside the library), kept in memory for the
//! whole run and written out once it ends. A layer's self time is its
//! span's duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`geo.discretize`, `engine.step`, ...).
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (`≥ start_ns` once closed).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Timestamp of the session step the span belongs to (0 outside steps).
    pub step: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// Records spans when switched on; when off, every call is a no-op that
/// reads no clock and returns `None`.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    on: bool,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), on }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Start or stop recording; spans recorded so far are kept.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span starting now. Returns `None` when tracing is off.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        step: u64,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: parent.map(|p| p.0),
            step,
        });
        Some(SpanId(self.spans.len() - 1))
    }

    /// Close a span opened by [`Tracer::open`] (no-op for `None`).
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Rename a span once its kind is known (no-op for `None`).
    pub fn rename(&mut self, id: Option<SpanId>, name: &'static str) {
        if let Some(SpanId(i)) = id {
            self.spans[i].name = name;
        }
    }

    /// Record child spans of `parent` whose durations were measured by the
    /// program itself rather than observed here (the engine's
    /// `timing_report()` buckets). They are laid end to end from the
    /// parent's start; only their lengths carry information.
    pub fn derived(&mut self, parent: Option<SpanId>, step: u64, parts: &[(&'static str, u64)]) {
        let Some(SpanId(p)) = parent else { return };
        let mut at = self.spans[p].start_ns;
        for &(name, dur_ns) in parts {
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at + dur_ns,
                parent: Some(p),
                step,
            });
            at += dur_ns;
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as tab-separated `id parent step name start_ns
    /// end_ns` lines (parent `-` for roots).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tstep\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(out, "{i}\t{parent}\t{}\t{}\t{}\t{}", s.step, s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// Per-layer totals of a fold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans folded.
    pub count: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of self times (duration minus the union of child intervals), ns.
    pub self_ns: u64,
}

/// Fold spans into per-layer totals keyed by span name.
pub fn fold(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let layer = layers.entry(s.name).or_default();
        layer.count += 1;
        layer.total_ns += dur;
        layer.self_ns += dur - covered(s.start_ns, s.end_ns, kids);
    }
    layers
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, step: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("session", 0, 100, None),      // 0
            span("step", 10, 60, Some(0)),      // 1
            span("engine", 15, 45, Some(1)),    // 2
            span("synthesis", 20, 30, Some(2)), // 3
            span("model", 25, 40, Some(2)),     // 4: overlaps 3 by 5 ns
            span("read", 45, 55, Some(1)),      // 5
            span("release", 70, 95, Some(0)),   // 6
            span("late", 90, 120, Some(6)),     // 7: runs past its parent
        ];
        let f = fold(&spans);
        assert_eq!(f["session"].self_ns, 100 - 50 - 25);
        assert_eq!(f["step"].self_ns, 50 - 30 - 10);
        // Children [20,30) ∪ [25,40) = [20,40): 20 ns covered.
        assert_eq!(f["engine"].self_ns, 30 - 20);
        assert_eq!(f["synthesis"].self_ns, 10);
        assert_eq!(f["model"].self_ns, 15);
        assert_eq!(f["read"].self_ns, 10);
        // Only [90,95) of the child lies inside the parent.
        assert_eq!(f["release"].self_ns, 25 - 5);
        // Self times sum to the root's span, up to what overlapping
        // siblings count twice (+5) and the excluded child covered (-5).
        let inside: u64 = f.iter().filter(|(k, _)| **k != "late").map(|(_, l)| l.self_ns).sum();
        assert_eq!(inside, 100);
        assert_eq!(f["step"].count, 1);
        assert_eq!(f["session"].total_ns, 100);
    }

    #[test]
    fn repeated_names_accumulate() {
        let spans =
            [span("root", 0, 10, None), span("leaf", 0, 3, Some(0)), span("leaf", 5, 9, Some(0))];
        let f = fold(&spans);
        assert_eq!(f["leaf"], LayerTime { count: 2, total_ns: 7, self_ns: 7 });
        assert_eq!(f["root"].self_ns, 3);
    }

    #[test]
    fn tracer_records_nested_spans_and_derived_parts() {
        let mut t = Tracer::new(true);
        let root = t.open("root", None, 0);
        let step = t.open("step", root, 7);
        t.derived(step, 7, &[("a", 0), ("b", 0)]);
        t.close(step);
        t.close(root);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent, s.step)).collect();
        assert_eq!(
            names,
            [("root", None, 0), ("step", Some(0), 7), ("a", Some(1), 7), ("b", Some(1), 7)]
        );
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));

        let mut off = Tracer::new(false);
        let id = off.open("root", None, 0);
        assert_eq!(id, None);
        off.derived(id, 0, &[("a", 5)]);
        off.close(id);
        assert!(off.spans().is_empty());
    }
}
