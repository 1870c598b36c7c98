//! In-memory spans for the traced replay.
//!
//! Spans are recorded by the benchmark around calls into each layer's
//! public functions, kept in memory while the replay runs, and written
//! out once at the end so writing never lands inside a timed region.
//! Every span carries its name, start, end, parent, and the id of the
//! request it belongs to.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder with an implicit parent stack: a span opened while
/// another is open becomes its child.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`] in LIFO order.
    pub fn begin(&mut self, name: &'static str, req: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` under a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.begin(name, req);
        let out = f(self);
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one NDJSON line.
    pub fn write_ndjson(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        Ok(())
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
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
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor).min(s.end_ns);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per span name, over the spans `keep` selects: (calls, total
/// duration ns, total self time ns).
pub fn totals_by_name(
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs).filter(|(s, _)| keep(s)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += own;
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
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = [
            span("request", 0, 100, None),
            span("parse", 10, 20, Some(0)),
            span("dispatch", 30, 80, Some(0)),
            span("core", 40, 70, Some(2)),
            // Overlaps its sibling: the union [40, 75) counts once.
            span("core", 60, 75, Some(2)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - 10 - 50, 10, 50 - 35, 30, 15]);
        let totals = totals_by_name(&spans, |_| true);
        assert_eq!(totals["core"], (2, 45, 45));
        assert_eq!(totals["request"], (1, 100, 40));
        let cores_only = totals_by_name(&spans, |s| s.name == "core");
        assert_eq!(cores_only.len(), 1);
    }

    #[test]
    fn child_outside_parent_is_clipped() {
        let spans = [span("a", 10, 20, None), span("b", 5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut t = Tracer::new();
        t.time("outer", 7, |t| {
            t.time("inner", 7, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut buf = Vec::new();
        t.write_ndjson(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"inner\""));
        assert!(text.contains("\"parent\":0"));
    }
}
