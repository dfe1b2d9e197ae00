//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Kept in memory during the run and written out at the end.
//!
//! A disabled tracer records nothing, so the untraced run that produces
//! the end-to-end metrics pays one branch per span site.

use std::borrow::Cow;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: Cow<'static, str>,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this identifier; 0 = not per-request.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; `None` inside when disabled.
#[must_use]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// Tracers of one run share `epoch`, so spans recorded on different
    /// threads land on one time axis after [`Tracer::absorb`].
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A fresh tracer for another thread of the same run.
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.enabled, self.epoch)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: impl Into<Cow<'static, str>>, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(index);
        // Everything above happens before the clock is read, so the
        // tracer's own bookkeeping stays outside the span it opens.
        let name = name.into();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        SpanId(Some(index))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        self.spans[index].end_ns = self.now_ns();
        let innermost = self.open.pop();
        debug_assert_eq!(innermost, Some(index), "spans must nest");
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.begin(name, request);
        let out = f(self);
        self.end(id);
        out
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Summed duration of every span called `name`, milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum::<f64>() / 1e3
    }

    /// Writes one JSON object per span:
    /// `{"name", "start_ns", "end_ns", "self_ns", "parent", "request"}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self_times_ns(&self.spans);
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (s, own) in self.spans.iter().zip(self_ns) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\
                 \"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

/// Measured cost of recording one span (a `begin`/`end` pair), ns.
pub fn span_cost_ns() -> f64 {
    const PAIRS: usize = 20_000;
    let mut scratch = Tracer::new(true, Instant::now());
    let t0 = Instant::now();
    for request in 0..PAIRS {
        let id = scratch.begin("calibration", request as u64);
        scratch.end(id);
    }
    let elapsed = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(scratch.spans().len());
    elapsed / PAIRS as f64
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover (children clipped to the parent, overlaps between
/// children counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (start, end) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("query", 30, 90, Some(0)),
            span("fork", 40, 60, Some(2)),
            span("diff", 60, 80, Some(2)),
        ];
        // request: 100 - (20 + 60); query: 60 - (20 + 20); leaves keep all.
        assert_eq!(self_times_ns(&spans), vec![20, 20, 20, 20, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = vec![
            span("parent", 100, 200, None),
            // Two threads working for the parent at once: 120..160 and
            // 140..180 cover 60 ns of it, not 80.
            span("a", 120, 160, Some(0)),
            span("b", 140, 180, Some(0)),
            // Ends after the parent did: only 190..200 counts.
            span("late", 190, 250, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn tracer_nests_and_merges_threads() {
        let epoch = Instant::now();
        let mut main = Tracer::new(true, epoch);
        main.scope("outer", 7, |t| {
            t.scope("inner", 7, |_| ());
        });
        let mut side = main.sibling();
        side.scope("side.outer", 8, |t| t.scope("side.inner", 8, |_| ()));
        main.absorb(side);
        let spans = main.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!(spans[3].parent, Some(2), "absorbed parents are re-based");
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(main.durations_us("inner").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.scope("x", 0, |t| t.scope("y", 0, |_| 5)), 5);
        assert!(t.spans().is_empty());
    }
}
