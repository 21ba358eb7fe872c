//! `batch-am64`: offline, no server. The 64-class model comes from
//! `train_batch` over a labelled EMG stream (the write path); the read
//! path is `classify_batch` over batches of 256 five-sample windows.

use std::time::{Duration, Instant};

use pulp_hd_core::backend::{BackendSession, ExecutionBackend, FastBackend};

use crate::data::{Inputs, Shape};
use crate::openloop::Tails;
use crate::report::Report;
use crate::serving::{traced_phase, TRACED_PHASES};
use crate::stats::{interquartile_mean, median};
use crate::trace::{BatchSpan, Trace, TracedSession};
use crate::{heap, layers, Error, Outcome, Plan, SETUPS_PER_ROUND};

/// Windows per `classify_batch` call.
pub const BATCH: usize = 256;
/// Runs of consecutive calls whose median rate is a round's throughput.
const RATE_BINS: usize = 10;

/// Timed `classify_batch` calls over the pool.
struct Calls {
    spans: Vec<BatchSpan>,
    wall: Duration,
    failed: u64,
}

impl Calls {
    /// Room for the calls of a phase of `duration` at one call per
    /// 100 µs (far faster than a 256-window batch runs), so the span
    /// buffer does not grow while the system's heap is measured.
    fn for_phase(duration: Duration) -> Self {
        Self {
            spans: Vec::with_capacity((duration.as_secs_f64() * 1e4) as usize + 1),
            wall: Duration::ZERO,
            failed: 0,
        }
    }

    fn attempted(&self) -> u64 {
        self.spans.iter().map(|s| s.windows as u64).sum()
    }

    fn latencies_us(&self) -> Vec<f64> {
        self.spans.iter().map(BatchSpan::us).collect()
    }

    /// Windows per second of call time, median over `RATE_BINS` runs of
    /// consecutive calls.
    fn rate(&self) -> f64 {
        let per_bin = self.spans.len().div_ceil(RATE_BINS).max(1);
        let rates: Vec<f64> = self
            .spans
            .chunks(per_bin)
            .map(|chunk| {
                let windows: usize = chunk.iter().map(|s| s.windows).sum();
                let secs: f64 = chunk.iter().map(|s| (s.end - s.start).as_secs_f64()).sum();
                windows as f64 / secs
            })
            .collect();
        median(&rates)
    }
}

/// Classifies consecutive `BATCH`-window slices of the pool for
/// `duration`, timing each call and checking every verdict after it.
fn classify(
    session: &mut dyn BackendSession,
    inputs: &Inputs,
    duration: Duration,
    mut calls: Calls,
) -> Result<Calls, Error> {
    let started = Instant::now();
    for (b, windows) in inputs.pool.chunks_exact(BATCH).enumerate().cycle() {
        if started.elapsed() >= duration {
            break;
        }
        let start = Instant::now();
        let verdicts = session.classify_batch(windows)?;
        calls.spans.push(BatchSpan {
            start,
            end: Instant::now(),
            windows: windows.len(),
        });
        calls.failed += verdicts
            .iter()
            .enumerate()
            .filter(|(k, v)| !inputs.verdict_ok(b * BATCH + k, v))
            .count() as u64;
    }
    calls.wall = started.elapsed();
    Ok(calls)
}

/// The untraced run: `plan.rounds` rounds, each of which times
/// training, times `SETUPS_PER_ROUND` set-ups (`prepare` of a serving
/// session), then warms up and times batches on a fresh session.
pub fn run(
    shape: &Shape,
    inputs: &Inputs,
    plan: &Plan,
    report: &mut Report,
) -> Result<Outcome, Error> {
    let backend = FastBackend::new();
    let deadline_us = shape.window_period().as_secs_f64() * 1e6;
    let timed = plan.per_round(plan.fixed + plan.saturation);
    let mut outcome = Outcome::default();
    let (mut setups, mut train, mut rates, mut heap_kib) = (vec![], vec![], vec![], vec![]);
    let mut tails = Tails::default();
    let (mut calls_made, mut misses) = (0, 0);
    for _ in 0..plan.rounds {
        train.extend(inputs.time_training(plan.per_round(plan.train))?);
        for _ in 0..SETUPS_PER_ROUND {
            let t0 = Instant::now();
            let session = backend.prepare(&inputs.model)?;
            setups.push(t0.elapsed().as_secs_f64());
            drop(session);
        }
        let (warm, calls) = (
            Calls::for_phase(plan.per_round(plan.warmup)),
            Calls::for_phase(timed),
        );
        let base = heap::mark();
        let mut session = backend.prepare(&inputs.model)?;
        let warm = classify(session.as_mut(), inputs, plan.per_round(plan.warmup), warm)?;
        let calls = classify(session.as_mut(), inputs, timed, calls)?;
        heap_kib.push(heap::peak_above(base) as f64 / 1024.0);
        drop(session);
        let round = calls.latencies_us();
        rates.push(calls.rate());
        tails.push(&round);
        calls_made += round.len();
        misses += round.iter().filter(|&&l| l > deadline_us).count();
        outcome.add(
            warm.attempted() + calls.attempted(),
            warm.failed + calls.failed,
        );
    }
    report.metric("setup_s", median(&setups), "s");
    report.rounds("throughput_wps", &rates);
    report.rounds("train_wps", &train);
    report.metric("throughput_wps", interquartile_mean(&rates), "windows/s");
    report.metric("train_wps", interquartile_mean(&train), "windows/s");
    report.metric("peak_heap_kib", median(&heap_kib), "KiB");
    tails.report(report, calls_made);
    report.extra(
        "deadline_miss_rate",
        misses as f64 / calls_made as f64,
        "fraction",
    );
    Ok(outcome)
}

/// The traced run: per-layer timings, then on one [`TracedSession`]: a
/// warm-up, batch phases that alternate tracing off and on (the tracing
/// overhead), and a traced phase (the backend layer).
pub fn run_traced(
    inputs: &Inputs,
    plan: &Plan,
    report: &mut Report,
    trace: &mut Trace,
) -> Result<Outcome, Error> {
    let (encode_ns, scan_ns) = layers::hd_steps(report, inputs);
    layers::codec(report, inputs);
    let (mut session, tracing) = TracedSession::wrap(FastBackend::new().prepare(&inputs.model)?);
    let mut outcome = Outcome::default();
    let phase = |duration: Duration, session: &mut TracedSession, outcome: &mut Outcome| {
        let calls = classify(session, inputs, duration, Calls::for_phase(duration))?;
        outcome.add(calls.attempted(), calls.failed);
        Ok::<Calls, Error>(calls)
    };
    tracing.set(false);
    phase(plan.warmup, &mut session, &mut outcome)?;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for k in 0..TRACED_PHASES {
        let on = traced_phase(k);
        tracing.set(on);
        let calls = phase(
            plan.fixed / TRACED_PHASES as u32,
            &mut session,
            &mut outcome,
        )?;
        if on { &mut traced } else { &mut untraced }.extend(calls.latencies_us());
    }
    report.metric(
        "trace.overhead_frac",
        median(&traced) / median(&untraced) - 1.0,
        "fraction",
    );
    tracing.set(true);
    let logged = tracing.len();
    let calls = phase(plan.saturation, &mut session, &mut outcome)?;
    let batches = tracing.since(logged);
    for (b, (call, batch)) in calls.spans.iter().zip(&batches).enumerate() {
        let root = trace.span("batch.classify_batch", call.start, call.end, None, b as u64);
        trace.span(
            "backend.batch",
            batch.start,
            batch.end,
            Some(root),
            b as u64,
        );
    }
    layers::backend(report, &batches, calls.wall, encode_ns, scan_ns);
    Ok(outcome)
}
