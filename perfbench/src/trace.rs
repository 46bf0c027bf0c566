//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark's own code around calls into each
//! layer's public API (the program under test carries no tracing).  A span
//! has a name, a start, an end, a parent, and — for serving — the ID of the
//! request it belongs to.  Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent or request ID meaning "none".
pub const ROOT: u64 = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: String,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span ID, taken before the span's children are recorded so
    /// they can name it as their parent.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span.
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        request: u64,
        name: &str,
        start: Instant,
        end: Instant,
    ) {
        self.spans.lock().expect("span lock poisoned").push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start,
            end,
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock poisoned").clone()
    }

    /// Writes one JSON line per span (times in µs since the tracer started),
    /// each with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let self_secs = self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let micros = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        for span in &spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
                 \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}}}",
                span.id,
                span.parent,
                span.request,
                span.name,
                micros(span.start),
                micros(span.end),
                self_secs[&span.id] * 1e6,
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(Instant, Instant)>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != ROOT) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start, span.end));
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0.0;
            if let Some(intervals) = children.get_mut(&span.id) {
                intervals.sort();
                let mut cursor = span.start;
                for &(start, end) in intervals.iter() {
                    let start = start.max(cursor);
                    let end = end.min(span.end);
                    if end > start {
                        covered += end.duration_since(start).as_secs_f64();
                        cursor = end;
                    }
                }
            }
            (span.id, (span.seconds() - covered).max(0.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Instant::now();
        let at = |ms: u64| t + Duration::from_millis(ms);
        let tracer = Tracer::new();
        let parent = tracer.id();
        tracer.record(parent, ROOT, ROOT, "pair", at(0), at(100));
        // Two overlapping children cover 10..50; a third covers 60..70.
        tracer.record(tracer.id(), parent, ROOT, "a", at(10), at(40));
        tracer.record(tracer.id(), parent, ROOT, "b", at(30), at(50));
        tracer.record(tracer.id(), parent, ROOT, "c", at(60), at(70));
        let self_secs = self_times(&tracer.spans());
        assert!((self_secs[&parent] - 0.050).abs() < 1e-9);
        assert!((self_secs[&(parent + 1)] - 0.030).abs() < 1e-9);
    }
}
