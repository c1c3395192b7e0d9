//! In-memory spans recorded around calls into the library layers.
//!
//! Spans live in a `Vec` while the benchmark runs and are written once at
//! exit. Every span records the span that caused it, so the self time of a
//! layer is its spans' duration minus the part its child spans cover.
//! Spans are only recorded from the benchmark's own thread, so siblings
//! never overlap.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
}

/// Spans written to the trace file; beyond this many the file keeps
/// only the aggregates (every span still counts toward them).
const MAX_WRITTEN_SPANS: usize = 20_000;

/// A span recorder. The disabled recorder does nothing, so untraced runs
/// pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Time totals of all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span; returns its id (`None` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Records back-to-back child spans of `parent` from `start`, one per
    /// `(name, seconds)` — for stage timings that carry durations only.
    pub fn record_stages(
        &mut self,
        parent: Option<SpanId>,
        start: Instant,
        stages: &[(&'static str, f64)],
    ) {
        let mut at = start;
        for &(name, s) in stages {
            let to = at + std::time::Duration::from_secs_f64(s);
            self.record(name, parent, at, to);
            at = to;
        }
    }

    /// Opens a span that [`close`](Self::close) ends.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.ns(Instant::now());
            self.spans[id].end_ns = end;
        }
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Count, total and self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// The trace document: per-name aggregates plus the spans themselves
    /// (the first [`MAX_WRITTEN_SPANS`]).
    pub fn to_json(&self, header: Vec<(&str, Value)>) -> Value {
        let aggregates = self
            .self_times()
            .into_iter()
            .map(|(name, t)| {
                (
                    name,
                    Value::obj([
                        ("count", Value::from(t.count)),
                        ("total_ms", Value::from(t.total_ns as f64 / 1e6)),
                        ("self_ms", Value::from(t.self_ns as f64 / 1e6)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        let spans = self
            .spans
            .iter()
            .take(MAX_WRITTEN_SPANS)
            .map(|s| {
                Value::obj([
                    ("name", Value::from(s.name)),
                    ("start_ns", Value::from(s.start_ns)),
                    ("end_ns", Value::from(s.end_ns)),
                    ("parent", s.parent.map_or(Value::Null, Value::from)),
                ])
            })
            .collect();
        let mut doc = header;
        doc.push(("span_count", Value::from(self.spans.len())));
        doc.push(("self_time", Value::obj(aggregates)));
        doc.push(("spans", Value::Arr(spans)));
        Value::obj(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let o = t.origin;
        let ms = |x: u64| o + Duration::from_millis(x);
        let root = t.record("gen", None, ms(0), ms(10));
        t.record("eval", root, ms(1), ms(4));
        t.record("eval", root, ms(5), ms(8));
        let st = t.self_times();
        assert_eq!(st["gen"].total_ns, 10_000_000);
        assert_eq!(st["gen"].self_ns, 4_000_000);
        assert_eq!(st["eval"].count, 2);
        assert_eq!(st["eval"].self_ns, 6_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert!(t.open("x", None).is_none());
        assert!(t.self_times().is_empty());
    }
}
