//! In-memory spans for the traced run.
//!
//! A span has a name, a start, an end, and the span that caused it; spans
//! of one daemon request also carry its request id. Spans stay in memory
//! and are written once, as JSON lines, when the run ends. A span's self
//! time is its duration minus the durations of its child spans.
//!
//! Each thread has at most one open span, its *current* span: a span opened
//! with [`Tracer::span`] becomes the parent of spans recorded on the same
//! thread until it closes. Routing calls made on threads with no open span
//! (runner worker threads) are aggregated by the timing wrapper instead.

use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Layer-qualified name, e.g. `engine.tick`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// Request id, for daemon requests.
    pub request: Option<u64>,
}

impl SpanRecord {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per span, the summed duration of its direct children.
fn child_durations(spans: &[SpanRecord]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    child_ns
}

thread_local! {
    static CURRENT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a finished span and return its index.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        let record =
            SpanRecord { name, start_ns: self.ns(start), end_ns: self.ns(end), parent, request };
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(record);
        spans.len() - 1
    }

    /// Record a finished span under this thread's open span, if it has one.
    pub fn child_of_current(&self, name: &'static str, start: Instant, end: Instant) {
        if let Some(parent) = CURRENT.with(Cell::get) {
            self.record(name, start, end, Some(parent), None);
        }
    }

    /// Run `f` inside a span that is a child of this thread's open span and
    /// the parent of spans recorded on this thread while `f` runs.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let parent = CURRENT.with(Cell::get);
        let start = Instant::now();
        let id = self.record(name, start, start, parent, None);
        CURRENT.with(|c| c.set(Some(id)));
        let result = f();
        let end = Instant::now();
        CURRENT.with(|c| c.set(parent));
        self.spans.lock().expect("span store poisoned")[id].end_ns = self.ns(end);
        result
    }

    /// Count, total duration and total self time of every span named
    /// `name`.
    pub fn totals(&self, name: &str) -> (usize, Duration, Duration) {
        let spans = self.spans.lock().expect("span store poisoned");
        let child_ns = child_durations(&spans);
        let (mut count, mut total, mut own) = (0, 0u64, 0u64);
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
            count += 1;
            total += s.duration_ns();
            own += s.duration_ns().saturating_sub(child_ns[i]);
        }
        (count, Duration::from_nanos(total), Duration::from_nanos(own))
    }

    /// Write every span as one JSON line, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let child_ns = child_durations(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.duration_ns().saturating_sub(child_ns[i]),
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
            )?;
        }
        out.flush()
    }
}

/// [`Tracer::span`] when tracing, a plain call otherwise.
pub fn span_opt<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(tracer) => tracer.span(name, f),
        None => f(),
    }
}
