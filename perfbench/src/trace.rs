//! In-memory span and counter recorder for the traced run.
//!
//! Spans are recorded around the calls the benchmark makes into each layer's
//! public functions: name, start, end, parent span and request id.  They stay
//! in memory and are written out as JSON lines when the run ends.  A span's
//! *self time* is its duration minus the part of it that its direct children
//! cover; per-layer times are sums of self times.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span (times in nanoseconds since the tracer's origin).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `seq.row_sweep`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (unit of work) the span belongs to.
    pub req: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans and counters; one per thread, merged at the end.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin` (share one origin
    /// between the tracers of one run so their spans line up).
    pub fn new(origin: Instant) -> Self {
        Tracer { origin, spans: Vec::new(), open: Vec::new(), counters: BTreeMap::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one; close it with
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, req: u64) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, req });
        self.open.push(id);
        id
    }

    /// Close span `id` (and any span left open inside it).
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, req);
        let out = f();
        self.exit(id);
        out
    }

    /// Add `value` to counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counters.entry(name).or_insert(0.0) += value;
    }

    /// The recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Counter `name` (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Append another tracer's spans and counters (same origin assumed).
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        for (name, value) in other.counters {
            self.count(name, value);
        }
    }

    /// Per-name totals: (span count, summed duration ns, summed self ns).
    pub fn totals(&self) -> BTreeMap<&'static str, (usize, u64, u64)> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(selfs) {
            let e = out.entry(span.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += span.duration_ns();
            e.2 += own;
        }
        out
    }

    /// Write every span (one JSON object per line) followed by the counters.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"req\":{}}}",
                span.name, span.start_ns, span.end_ns, own, parent, span.req
            )?;
        }
        for (name, value) in &self.counters {
            writeln!(out, "{{\"counter\":\"{name}\",\"value\":{value}}}")?;
        }
        out.flush()
    }
}

/// Self time (ns) of every span: its duration minus the length of the union
/// of its direct children's intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let (lo, hi) = (span.start_ns.max(parent.start_ns), span.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            span.duration_ns() - covered.min(span.duration_ns())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, req: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two overlapping children covering [10, 50): 40 ns.
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            // A disjoint child covering [60, 70): 10 ns.
            span("c", 60, 70, Some(0)),
            // A grandchild does not count against the root.
            span("d", 61, 69, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20, 2, 8]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("root", 10, 20, None), span("late", 15, 30, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn nested_enter_exit_links_parents_and_totals() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.enter("outer", 7);
        t.span("inner", 7, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.exit(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        let totals = t.totals();
        let (n, dur, own) = totals["outer"];
        let (_, inner_dur, _) = totals["inner"];
        assert_eq!(n, 1);
        assert_eq!(own, dur - inner_dur);
    }

    #[test]
    fn merge_rebases_parents_and_sums_counters() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.span("x", 1, || ());
        a.count("hits", 2.0);
        let mut b = Tracer::new(origin);
        let id = b.enter("y", 2);
        b.span("z", 2, || ());
        b.exit(id);
        b.count("hits", 3.0);
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.counter("hits"), 5.0);
    }
}
