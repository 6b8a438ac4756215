//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions (traced runs only), their self-time
//! arithmetic, and the JSON-lines dump written when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its recorder; `u32::MAX` marks a root.
pub type SpanId = u32;
const ROOT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: SpanId,
    /// The request's index in its stream; spans of one request share it.
    pub request: u64,
}

/// Self time and duration totals of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub duration_ns: u64,
    pub self_ns: u64,
    /// The longest single span.
    pub max_ns: u64,
}

impl NameTotals {
    pub fn mean_self_ns(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64
    }
}

#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder with room for `capacity` spans, so that recording one
    /// never has to move the ones before it.
    pub fn with_capacity(capacity: usize) -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds since this recorder was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `instant` on this recorder's clock.
    pub fn at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn root(&mut self, name: &'static str, start_ns: u64, end_ns: u64, request: u64) -> SpanId {
        self.push(name, start_ns, end_ns, ROOT, request)
    }

    pub fn child(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
    ) -> SpanId {
        let request = self.spans[parent as usize].request;
        self.push(name, start_ns, end_ns, parent, request)
    }

    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        request: u64,
    ) -> SpanId {
        debug_assert!(start_ns <= end_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span that was opened with a provisional end (a pipelined
    /// request's root ends when its reply is collected).
    pub fn end(&mut self, span: SpanId, end_ns: u64) {
        self.spans[span as usize].end_ns = end_ns;
    }

    /// The self time of each span recorded from index `from` on: its
    /// duration minus the part of its interval that its child spans cover
    /// (overlapping children are not counted twice, and a child is clipped
    /// to its parent). Spans from `from` on must not have earlier parents.
    pub fn self_times_since(&self, from: usize) -> Vec<u64> {
        let spans = &self.spans[from..];
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for span in spans {
            if span.parent != ROOT {
                let parent = &self.spans[span.parent as usize];
                let start = span.start_ns.max(parent.start_ns);
                let end = span.end_ns.min(parent.end_ns);
                if start < end {
                    children[span.parent as usize - from].push((start, end));
                }
            }
        }
        spans
            .iter()
            .zip(&mut children)
            .map(|(span, intervals)| {
                intervals.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for &(start, end) in intervals.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (span.end_ns - span.start_ns) - covered
            })
            .collect()
    }

    /// Totals per span name, over spans recorded from index `from` on.
    pub fn totals_since(&self, from: usize) -> BTreeMap<&'static str, NameTotals> {
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans[from..].iter().zip(self.self_times_since(from)) {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.duration_ns += span.end_ns - span.start_ns;
            entry.max_ns = entry.max_ns.max(span.end_ns - span.start_ns);
            entry.self_ns += self_ns;
        }
        totals
    }

    /// Writes one JSON object per span.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":",
                span.name, span.start_ns, span.end_ns
            )?;
            if span.parent == ROOT {
                out.write_all(b"null")?;
            } else {
                write!(out, "{}", span.parent)?;
            }
            writeln!(out, ",\"request\":{}}}", span.request)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let mut spans = Spans::with_capacity(16);
        let op = spans.root("op", 100, 1_100, 7);
        let gen = spans.child("loadgen.next", 100, 150, op);
        let call = spans.child("core.unit.put", 150, 900, op);
        let inner = spans.child("inner", 200, 500, call);
        let times = spans.self_times_since(0);
        assert_eq!(times[op as usize], 1_000 - 50 - 750);
        assert_eq!(times[gen as usize], 50);
        assert_eq!(times[call as usize], 750 - 300);
        assert_eq!(times[inner as usize], 300);
        // Self times of a tree add up to its root's duration.
        assert_eq!(times.iter().sum::<u64>(), 1_000);
        assert_eq!(spans.spans[inner as usize].request, 7);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let mut spans = Spans::with_capacity(16);
        // A pipelined request: its root is open from submit to reply, its
        // wait is collected while a later request is being generated.
        let op = spans.root("op", 0, 0, 1);
        spans.child("serve.submit", 0, 40, op);
        spans.child("serve.wait", 900, 1_000, op);
        spans.end(op, 1_000);
        // Two children that overlap each other, one of them overhanging.
        let other = spans.root("op", 2_000, 3_000, 2);
        spans.child("a", 2_100, 2_600, other);
        spans.child("b", 2_400, 3_500, other);
        let times = spans.self_times_since(0);
        assert_eq!(times[op as usize], 1_000 - 40 - 100);
        assert_eq!(times[other as usize], 1_000 - 900);

        let totals = spans.totals_since(0);
        assert_eq!(totals["op"].count, 2);
        assert_eq!(totals["op"].duration_ns, 2_000);
        assert_eq!(totals["op"].self_ns, 860 + 100);
        assert_eq!(totals["serve.wait"].mean_self_ns(), 100.0);
        assert_eq!(spans.totals_since(3)["op"].count, 1);
    }
}
