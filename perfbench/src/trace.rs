//! Tracing of a traced run: spans kept in memory (name, start, end,
//! parent, request id) and written out when the run ends, plus the
//! benchmark-owned backend-session wrapper that records one span per
//! batch the micro-batcher sends to the backend.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pulp_hd_core::backend::{BackendError, BackendSession, Verdict};

use crate::data::Window;
use crate::report::Report;

/// One recorded span.
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    request: u64,
}

/// The spans of one traced run.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its id (for children's `parent`).
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Writes every span as one JSON object per line, times in ns since
    /// the trace began.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos();
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name,
                ns(s.start),
                ns(s.end),
                s.request
            );
        }
        std::fs::write(path, out)
    }
}

/// One `classify_batch` call into the backend.
#[derive(Debug, Clone, Copy)]
pub struct BatchSpan {
    pub start: Instant,
    pub end: Instant,
    pub windows: usize,
}

impl BatchSpan {
    pub fn us(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

/// The switch and the log of a [`TracedSession`].
#[derive(Default)]
struct Shared {
    on: AtomicBool,
    log: Mutex<Vec<BatchSpan>>,
}

/// The handle a traced run keeps to the session it handed off.
#[derive(Clone)]
pub struct Tracing(Arc<Shared>);

impl Tracing {
    /// Turns span recording on or off; the session serves the same
    /// calls either way, so alternating phases on one server measure
    /// the tracing overhead.
    pub fn set(&self, on: bool) {
        // ORDERING: Relaxed — the flag guards no data; a batch that
        // races the switch is recorded or not, and either is fine.
        self.0.on.store(on, Ordering::Relaxed);
    }

    /// Batches recorded so far.
    pub fn len(&self) -> usize {
        self.log().len()
    }

    /// The batches recorded after the first `from`.
    pub fn since(&self, from: usize) -> Vec<BatchSpan> {
        self.log()[from..].to_vec()
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Vec<BatchSpan>> {
        // A panic while the lock is held cannot leave a half-pushed
        // span, so a poisoned log is still whole.
        self.0
            .log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A backend session that, while tracing is on, records a [`BatchSpan`]
/// around every call into the session it wraps; handed to
/// `Server::from_session`, or called directly offline.
pub struct TracedSession {
    inner: Box<dyn BackendSession>,
    tracing: Tracing,
}

impl TracedSession {
    /// Wraps `inner`, tracing on.
    pub fn wrap(inner: Box<dyn BackendSession>) -> (Self, Tracing) {
        let tracing = Tracing(Arc::default());
        tracing.set(true);
        (
            Self {
                inner,
                tracing: tracing.clone(),
            },
            tracing,
        )
    }

    fn record(&self, start: Instant, windows: usize) {
        let span = BatchSpan {
            start,
            end: Instant::now(),
            windows,
        };
        self.tracing.log().push(span);
    }

    fn on(&self) -> bool {
        self.tracing.0.on.load(Ordering::Relaxed)
    }
}

impl BackendSession for TracedSession {
    fn classify(&mut self, window: &[Vec<u16>]) -> Result<Verdict, BackendError> {
        if !self.on() {
            return self.inner.classify(window);
        }
        let start = Instant::now();
        let result = self.inner.classify(window);
        self.record(start, 1);
        result
    }

    fn classify_batch(&mut self, windows: &[Window]) -> Result<Vec<Verdict>, BackendError> {
        let mut out = Vec::with_capacity(windows.len());
        self.classify_batch_into(windows, &mut out)?;
        Ok(out)
    }

    fn classify_batch_into(
        &mut self,
        windows: &[Window],
        out: &mut Vec<Verdict>,
    ) -> Result<(), BackendError> {
        if !self.on() {
            return self.inner.classify_batch_into(windows, out);
        }
        let start = Instant::now();
        let result = self.inner.classify_batch_into(windows, out);
        self.record(start, windows.len());
        result
    }
}

/// The batch each of the first `requests` requests rode in, given that
/// the server saw them in submission order (one submitting thread, FIFO
/// queue): request `i` is in the batch whose window range covers `i`.
pub fn batch_of_requests(log: &[BatchSpan], requests: usize) -> Vec<Option<BatchSpan>> {
    let mut out = Vec::with_capacity(requests);
    for span in log {
        for _ in 0..span.windows {
            if out.len() == requests {
                return out;
            }
            out.push(Some(*span));
        }
    }
    out.resize(requests, None);
    out
}

/// Prints the per-request waterfall — the mean µs of each layer, each
/// measured on its own (a client-side span, the backend span, the
/// server's own clock, or a codec micro-timing) — and records the share
/// of the end-to-end mean `total_us` that the layers leave unaccounted.
pub fn report_waterfall(report: &mut Report, total_us: f64, layers: &[(&'static str, f64)]) {
    for (name, us) in layers {
        report.note(format!(
            "waterfall {name:<18} {us:>10.2} us ({:.1}%)",
            100.0 * us / total_us
        ));
    }
    let unattributed = total_us - layers.iter().map(|&(_, us)| us).sum::<f64>();
    report.note(format!(
        "waterfall {:<18} {unattributed:>10.2} us ({:.1}%)",
        "unattributed",
        100.0 * unattributed / total_us
    ));
    report.note(format!("waterfall end-to-end mean {total_us:.2} us"));
    report.extra(
        "trace.unattributed_frac",
        unattributed / total_us,
        "fraction",
    );
}
