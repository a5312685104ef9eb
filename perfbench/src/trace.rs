//! In-memory spans for the traced run: each span records its name, start,
//! end, parent and the request it belongs to. Spans stay in memory while the
//! run measures and are written out once it ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval, in nanoseconds since the run's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer entry point (`registry.get`, `batch.query`, ...).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
}

/// A per-thread span recorder. A disabled tracer records nothing, so the
/// same code path serves the untraced runs.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder timing against `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self { epoch, enabled, spans: Vec::new() }
    }

    /// Opens a span; returns its id for [`Tracer::end`] and for children.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        if !self.enabled {
            return 0;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, request });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread span lists, re-basing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the time its children cover
/// (the union of the children's intervals, clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per span name: `(count, mean duration µs, mean self time µs)`.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let selfs = self_times(spans);
    let mut acc: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = acc.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += own;
    }
    acc.into_iter()
        .map(|(k, (n, total, own))| {
            (k, (n, total as f64 / n as f64 / 1e3, own as f64 / n as f64 / 1e3))
        })
        .collect()
}

/// The spans as a JSON array, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}{}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.request,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, request: 7 }
    }

    #[test]
    fn self_time_is_duration_minus_the_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("registry.get", 10, 30, Some(0)),
            span("batch.query", 40, 90, Some(0)),
            span("engine.query", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        // Children cover [10, 50) and [90, 100): 50 ns of the 100.
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn merge_rebases_parents_and_summary_averages_per_name() {
        let a = vec![span("request", 0, 1000, None), span("batch.query", 0, 400, Some(0))];
        let b = vec![span("request", 0, 3000, None), span("batch.query", 0, 1000, Some(0))];
        let spans = merge(vec![a, b]);
        assert_eq!(spans[3].parent, Some(2));
        let sum = summarize(&spans);
        assert_eq!(sum["request"], (2, 2.0, 1.3));
        assert_eq!(sum["batch.query"], (2, 0.7, 0.7));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let id = t.begin("request", None, 1);
        t.end(id);
        assert!(t.into_spans().is_empty());
    }
}
