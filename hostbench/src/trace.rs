//! In-memory span tracing around the benchmark's own calls into each
//! crate. The untraced and traced runs share one loop, generic over
//! [`Tracer`]: [`Off`] compiles every span down to the bare call, and
//! [`Recorder`] keeps (name, start, end, parent, op id) per span for the
//! self-time table and the spans file written at the end of the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Span sink of the workload loops.
pub trait Tracer {
    /// Open the root span of operation `op`, started at `t0`.
    fn begin_op(&mut self, op: u64, t0: Instant);
    /// Close the open operation span at `t1`.
    fn end_op(&mut self, t1: Instant);
    /// Run `f` inside a span named `name`, a child of the open op.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R;
}

/// Tracing off: spans cost nothing.
pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn begin_op(&mut self, _op: u64, _t0: Instant) {}
    #[inline(always)]
    fn end_op(&mut self, _t1: Instant) {}
    #[inline(always)]
    fn span<R>(&mut self, _name: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call name (`core.run`, ...), or [`OP_SPAN`] for an op root.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the parent span (`None` for op roots).
    pub parent: Option<usize>,
    /// Operation id the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Name of the root span of every operation; its self time is the
/// op's wall time not covered by any layer call.
pub const OP_SPAN: &str = "bench.op";

/// Tracing on: spans kept in memory.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open_op: Option<usize>,
}

impl Recorder {
    /// An empty recorder with room for `capacity` spans.
    pub fn new(epoch: Instant, capacity: usize) -> Recorder {
        Recorder { epoch, spans: Vec::with_capacity(capacity), open_op: None }
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

impl Tracer for Recorder {
    fn begin_op(&mut self, op: u64, t0: Instant) {
        let start = self.ns(t0);
        self.open_op = Some(self.spans.len());
        self.spans.push(Span { name: OP_SPAN, start, end: start, parent: None, op });
    }

    fn end_op(&mut self, t1: Instant) {
        if let Some(i) = self.open_op.take() {
            self.spans[i].end = self.ns(t1);
        }
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let (start, end) = (self.ns(t0), self.ns(t1));
        let (parent, op) = match self.open_op {
            Some(i) => (Some(i), self.spans[i].op),
            None => (None, u64::MAX),
        };
        self.spans.push(Span { name, start, end, parent, op });
        r
    }
}

/// Self time of every span: its duration minus the part of its
/// interval covered by its direct children (overlapping children are
/// counted once; parts outside the parent are ignored).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur() - covered.min(s.dur())
        })
        .collect()
}

/// Per-layer aggregate of one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Span name.
    pub name: &'static str,
    /// Per-op self times (ns), ascending: one entry per op that made the
    /// call, summed over repeated calls within the op.
    pub per_op_ns: Vec<u64>,
    /// Total self time, ns.
    pub total_ns: u64,
}

impl LayerRow {
    /// Median per-op self time in microseconds.
    pub fn p50_us(&self) -> f64 {
        if self.per_op_ns.is_empty() {
            return 0.0;
        }
        let v: Vec<f64> = self.per_op_ns.iter().map(|&n| n as f64).collect();
        crate::stats::percentile(&v, 50.0) / 1e3
    }
}

/// Self-time table, one row per span name (op roots included, under
/// [`OP_SPAN`]: their self time is the unaccounted remainder).
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let selfs = self_times(spans);
    let mut per: BTreeMap<&'static str, BTreeMap<u64, u64>> = BTreeMap::new();
    for (s, &t) in spans.iter().zip(&selfs) {
        *per.entry(s.name).or_default().entry(s.op).or_insert(0) += t;
    }
    per.into_iter()
        .map(|(name, by_op)| {
            let mut per_op_ns: Vec<u64> = by_op.into_values().collect();
            per_op_ns.sort_unstable();
            let total_ns = per_op_ns.iter().sum();
            (name, LayerRow { name, per_op_ns, total_ns })
        })
        .collect()
}

/// Write spans as CSV (`op,name,parent,start_ns,end_ns`).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "op,name,parent,start_ns,end_ns")?;
    for s in spans {
        let parent = s.parent.map(|p| p as i64).unwrap_or(-1);
        writeln!(out, "{},{},{},{},{}", s.op, s.name, parent, s.start, s.end)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, op: u64) -> Span {
        Span { name, start, end, parent, op }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span(OP_SPAN, 0, 100, None, 0),  // 0: op root
            span("a", 10, 40, Some(0), 0),   // 1: child of op
            span("a.x", 15, 25, Some(1), 0), // 2: grandchild, inside a
            span("a.y", 20, 30, Some(1), 0), // 3: overlaps a.x
            span("b", 35, 60, Some(0), 0),   // 4: overlaps a
            span("c", 90, 120, Some(0), 0),  // 5: runs past the op's end
        ];
        let selfs = self_times(&spans);
        // op: 100 minus union(10..60, 90..100) = 100 - 60 = 40
        assert_eq!(selfs[0], 40);
        // a: 30 minus union(15..30) = 15 (grandchildren do not reach op)
        assert_eq!(selfs[1], 15);
        assert_eq!(selfs[2], 10);
        assert_eq!(selfs[3], 10);
        assert_eq!(selfs[4], 25);
        assert_eq!(selfs[5], 30);
    }

    #[test]
    fn layer_table_sums_repeated_calls_per_op() {
        let spans = [
            span(OP_SPAN, 0, 50, None, 0),
            span("load", 0, 10, Some(0), 0),
            span("load", 10, 15, Some(0), 0),
            span(OP_SPAN, 100, 130, None, 1),
            span("load", 100, 120, Some(3), 1),
        ];
        let t = layer_table(&spans);
        assert_eq!(t["load"].per_op_ns, vec![15, 20]);
        assert_eq!(t["load"].total_ns, 35);
        assert_eq!(t[OP_SPAN].per_op_ns, vec![10, 35]);
    }

    #[test]
    fn recorder_parents_spans_to_the_open_op() {
        let epoch = Instant::now();
        let mut r = Recorder::new(epoch, 4);
        r.begin_op(7, Instant::now());
        let v = r.span("work", || 41 + 1);
        r.end_op(Instant::now());
        assert_eq!(v, 42);
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].op), (OP_SPAN, None, 7));
        assert_eq!((s[1].name, s[1].parent, s[1].op), ("work", Some(0), 7));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
    }
}
