//! In-memory spans for the traced run.
//!
//! A span is `(name, start, end, parent)`, recorded by the benchmark's
//! own code around a batch of calls into one layer. Spans stay in
//! memory until the run ends and are then written out as TSV. A
//! span's self time is its duration minus the time its child spans
//! cover; children of one span never overlap.

use std::io::{self, Write};
use std::time::Instant;

/// Index of a span in its [`Spans`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer, or `layer.part`, the interval belongs to.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        // Saturates only after 584 years.
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished interval.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span starting now; [`Spans::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Every span, in the order recorded.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Spans::all`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Writes every span as one TSV line, under a header line.
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children_only() {
        let mut spans = Spans::new();
        let t = |ms: u64| spans.origin + Duration::from_millis(ms);
        let (t0, t2, t3, t5, t6, t10) = (t(0), t(2), t(3), t(5), t(6), t(10));
        let root = spans.record("engine", None, t0, t10);
        spans.record("engine.feed", Some(root), t2, t3);
        let child = spans.record("engine.feed", Some(root), t5, t6);
        let other = spans.record("store", None, t10, t10);
        let self_ns = spans.self_times_ns();
        assert_eq!(self_ns[root], 8_000_000);
        assert_eq!(self_ns[child], 1_000_000);
        assert_eq!(self_ns[other], 0);
        let mut tsv = Vec::new();
        spans.write_tsv(&mut tsv).unwrap();
        let tsv = String::from_utf8(tsv).unwrap();
        assert_eq!(tsv.lines().count(), 5);
        assert!(tsv.contains("\n1\t0\tengine.feed\t2000000\t3000000\n"));
    }
}
