//! In-memory spans recorded around calls into the program's layers.
//!
//! A span is a name (`<layer>.<what>`), the span that caused it, a trace
//! id shared by the spans of one operation, and start/end times. Spans
//! stay in memory while the benchmark runs and are written out as JSONL
//! when it ends. A layer's self time is its spans' durations minus the
//! part of each interval covered by child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    trace: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Span store. When off, every call is a no-op, so untraced runs pay one
/// branch per call site.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) -> SpanId {
        let mut spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking thread");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span now; [`Tracer::close`] sets its end.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, trace: u64) -> SpanId {
        if !self.on {
            return 0;
        }
        let start_ns = self.ns(Instant::now());
        self.push(Span {
            name,
            parent,
            trace,
            start_ns,
            end_ns: start_ns,
        })
    }

    pub fn close(&self, id: SpanId) {
        if !self.on {
            return;
        }
        let end_ns = self.ns(Instant::now());
        let mut spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking thread");
        spans[id].end_ns = end_ns;
    }

    /// Records a span that has already ended.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        trace: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            self.push(Span {
                name,
                parent,
                trace,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        trace: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, parent, trace, start, Instant::now());
        out
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking thread");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| secs(s.end_ns - s.start_ns))
            .collect()
    }

    /// Per trace id, the summed duration in seconds of the spans named
    /// `name` (one value per operation that called the layer).
    pub fn sums_per_trace(&self, name: &str) -> Vec<f64> {
        let spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking thread");
        let mut sums: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.name == name) {
            *sums.entry(s.trace).or_default() += s.end_ns - s.start_ns;
        }
        sums.into_values().map(secs).collect()
    }

    /// Self time in seconds summed per layer (the span name up to its
    /// first `.`).
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking thread");
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            // Children may run concurrently (fork-join tasks), so covered
            // time is the union of their intervals clipped to the parent.
            let mut iv: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_ns.max(s.start_ns),
                        spans[c].end_ns.min(s.end_ns),
                    )
                })
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += secs(s.end_ns - s.start_ns - covered);
        }
        out
    }

    /// Writes `header` and then one JSON object per span (at most `cap`,
    /// with the count left out noted in a last line).
    pub fn write_jsonl(&self, path: &Path, header: &str, cap: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking thread");
        let mut out = String::with_capacity(96 * spans.len().min(cap) + header.len() + 64);
        out.push_str(header);
        out.push('\n');
        for (i, s) in spans.iter().take(cap).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"trace\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.trace, s.start_ns, s.end_ns
            );
        }
        if spans.len() > cap {
            let _ = writeln!(out, "{{\"spans_not_written\":{}}}", spans.len() - cap);
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}
