//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only in the benchmark's own code, around its calls
//! into each layer of rkpn. Spans of one iteration share its id; each span
//! names the span that caused it. Nothing is written until the run ends,
//! when [`Trace::write_chrome`] dumps Chrome trace-event JSON (viewable in
//! Perfetto or `chrome://tracing`).

use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept in memory; later spans are counted but not stored, so a long
/// traced run cannot exhaust memory or write an unbounded file.
const MAX_SPANS: usize = 150_000;

/// One timed call.
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub iter: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span recorder. Disabled recorders keep nothing and cost one branch.
pub struct Trace {
    enabled: bool,
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Trace {
            enabled,
            origin: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh span id, for a span whose children are recorded before it
    /// ends (or on another thread).
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a span under a reserved id.
    pub fn record_as(
        &mut self,
        id: u64,
        iter: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            iter,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Records a span with a fresh id.
    pub fn record(
        &mut self,
        iter: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let id = self.reserve();
            self.record_as(id, iter, parent, name, start, end);
        }
    }

    /// Durations (ns) of every stored span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Writes the spans as Chrome trace-event JSON: one track per
    /// iteration, microsecond timestamps, ids and parents in `args`.
    pub fn write_chrome(&self, path: &std::path::Path, provenance: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 256);
        let _ = write!(
            out,
            "{{\"otherData\":{provenance},\"droppedSpans\":{},\"traceEvents\":[",
            self.dropped
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.iter,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
