//! What the serving workloads share: rounds on fresh servers
//! (set-ups, warm-up, a fixed-rate phase, a saturation phase) for an
//! untraced run, and alternating untraced and traced phases on one
//! server for a traced run. `serve.rs` and `wire.rs` supply only the
//! code that sends requests and reads verdicts.

use std::time::{Duration, Instant};

use pulp_hd_core::backend::{ExecutionBackend, FastBackend};
use pulp_hd_serve::{ServeConfig, Server, ServerStats};

use crate::data::{Inputs, Shape};
use crate::openloop::{report_rounds, FixedRate, Saturation};
use crate::report::Report;
use crate::stats::{interquartile_mean, median, quantile};
use crate::trace::{batch_of_requests, report_waterfall, BatchSpan, Trace, TracedSession};
use crate::{heap, layers, Error, Outcome, Plan, SETUPS_PER_ROUND};

/// Fixed-rate phases of a traced run, half of them traced.
pub const TRACED_PHASES: usize = 8;

/// Whether phase `k` of a traced run is traced: off, on, on, off, off,
/// on, on, off — so that a steady drift of the host's speed falls on
/// both halves alike.
pub fn traced_phase(k: usize) -> bool {
    k.div_ceil(2) % 2 == 1
}

/// A system under test that takes requests: the in-process server, or
/// the same server behind the wire front-end.
pub trait Target: Sized {
    /// The waterfall name of the client's send step.
    const SEND: &'static str;

    /// Puts `server` in front of its client; returns once a request can
    /// be accepted. Dropping the target shuts it down gracefully.
    fn open(server: Server, plan: &Plan) -> Result<Self, Error>;

    /// Sends `n` requests numbered from `first`, one every `interval`,
    /// and checks every verdict.
    fn fixed_rate(
        &self,
        inputs: &Inputs,
        first: usize,
        n: usize,
        interval: Duration,
    ) -> Result<FixedRate, Error>;

    /// Keeps the target's most requests in flight for `duration`,
    /// numbered from `first`, and checks every verdict.
    fn saturate(
        &self,
        inputs: &Inputs,
        first: usize,
        duration: Duration,
    ) -> Result<Saturation, Error>;

    fn server_stats(&self) -> ServerStats;

    /// Records the figures only this target has and returns its own
    /// waterfall layers (name, mean µs per request), given the wire
    /// codec's ns per request and the mean client round trip minus the
    /// server's own queue-to-verdict latency.
    fn own_layers(
        &self,
        report: &mut Report,
        codec_ns: f64,
        front_us: f64,
    ) -> Vec<(&'static str, f64)>;
}

/// The default server users get.
fn spawn(inputs: &Inputs) -> Result<Server, Error> {
    Ok(Server::spawn(
        &FastBackend::new(),
        &inputs.model,
        ServeConfig::default(),
    )?)
}

/// Requests of `phase` at `shape`'s offered rate.
fn requests(shape: &Shape, phase: Duration) -> usize {
    (phase.as_secs_f64() * shape.rate_hz) as usize
}

/// The untraced run: `plan.rounds` rounds, each of which times
/// training, times `SETUPS_PER_ROUND` set-ups (from a trained model in
/// hand to a system that accepts requests), then serves a warm-up, a
/// fixed-rate phase and a saturation phase on a fresh server, so that
/// thread placement is drawn anew.
pub fn run<T: Target>(
    shape: &Shape,
    inputs: &Inputs,
    plan: &Plan,
    report: &mut Report,
) -> Result<Outcome, Error> {
    let interval = Duration::from_secs_f64(1.0 / shape.rate_hz);
    let n = requests(shape, plan.per_round(plan.fixed));
    let mut outcome = Outcome::default();
    let mut next = 0;
    let (mut setups, mut train, mut rates, mut heap_kib) = (vec![], vec![], vec![], vec![]);
    let mut fixed = Vec::new();
    for _ in 0..plan.rounds {
        train.extend(inputs.time_training(plan.per_round(plan.train))?);
        for _ in 0..SETUPS_PER_ROUND {
            let t0 = Instant::now();
            let target = T::open(spawn(inputs)?, plan)?;
            setups.push(t0.elapsed().as_secs_f64());
            drop(target);
        }
        let base = heap::mark();
        let target = T::open(spawn(inputs)?, plan)?;
        let warm = target.saturate(inputs, next, plan.per_round(plan.warmup))?;
        next += warm.attempted as usize;
        let round = target.fixed_rate(inputs, next, n, interval)?;
        next += n;
        let sat = target.saturate(inputs, next, plan.per_round(plan.saturation))?;
        next += sat.attempted as usize;
        heap_kib.push(heap::peak_above(base) as f64 / 1024.0);
        drop(target);
        outcome.add(
            warm.attempted + n as u64 + sat.attempted,
            warm.failed + round.failed() + sat.failed,
        );
        rates.push(sat.rate());
        fixed.push(round);
    }
    report.metric("setup_s", median(&setups), "s");
    report.rounds("throughput_wps", &rates);
    report.rounds("train_wps", &train);
    report_rounds(report, &fixed, shape.window_period())?;
    report.metric("throughput_wps", interquartile_mean(&rates), "windows/s");
    report.metric("train_wps", interquartile_mean(&train), "windows/s");
    report.metric("peak_heap_kib", median(&heap_kib), "KiB");
    Ok(outcome)
}

/// Per-request layer times of the traced fixed-rate phases, each
/// measured on its own.
#[derive(Default)]
struct Layers {
    requests: usize,
    /// Sums of µs: due → verdict, due → send, the send call, the
    /// backend span the request rode in, and send → verdict.
    total: f64,
    late: f64,
    send: f64,
    backend: f64,
    round_trip: f64,
    /// The server's own queue-to-verdict µs summed over the phases'
    /// requests, and their count.
    server: f64,
    served: u64,
    /// Client latency from send minus the backend span, per request.
    self_us: Vec<f64>,
}

impl Layers {
    /// Adds one traced phase: its requests, the batches the backend
    /// served during it, and the server's stats around it. Records each
    /// request's spans.
    fn add(
        &mut self,
        trace: &mut Trace,
        send: &'static str,
        round: &FixedRate,
        batches: &[BatchSpan],
        (before, after): (&ServerStats, &ServerStats),
    ) {
        let sum = |s: &ServerStats| s.latency_mean_us * s.completed as f64;
        self.server += sum(after) - sum(before);
        self.served += after.completed - before.completed;
        let us =
            |from: Instant, to: Instant| to.saturating_duration_since(from).as_secs_f64() * 1e6;
        let rode = batch_of_requests(batches, round.samples.len());
        for (s, batch) in round.samples.iter().zip(rode) {
            let Some(batch) = batch else { continue };
            let id = s.request as u64;
            let root = trace.span("request", s.due, s.done, None, id);
            trace.span("gen.late", s.due, s.sent, Some(root), id);
            trace.span(send, s.sent, s.sent_end, Some(root), id);
            trace.span("backend.batch", batch.start, batch.end, Some(root), id);
            self.requests += 1;
            self.total += us(s.due, s.done);
            self.late += us(s.due, s.sent);
            self.send += us(s.sent, s.sent_end);
            self.backend += batch.us();
            self.round_trip += us(s.sent, s.done);
            self.self_us.push(us(s.sent, s.done) - batch.us());
        }
    }
}

/// The traced run: per-layer timings, then on one server whose backend
/// session is a [`TracedSession`]: a warm-up, fixed-rate phases that
/// alternate tracing off and on (the tracing overhead, and the
/// waterfall from the traced ones), and a traced saturation phase (the
/// backend layer).
pub fn run_traced<T: Target>(
    shape: &Shape,
    inputs: &Inputs,
    plan: &Plan,
    report: &mut Report,
    trace: &mut Trace,
) -> Result<Outcome, Error> {
    let (encode_ns, scan_ns) = layers::hd_steps(report, inputs);
    let codec_ns = layers::codec(report, inputs);
    let (session, tracing) = TracedSession::wrap(FastBackend::new().prepare(&inputs.model)?);
    let target = T::open(
        Server::from_session(Box::new(session), ServeConfig::default())?,
        plan,
    )?;
    let mut outcome = Outcome::default();
    tracing.set(false);
    let warm = target.saturate(inputs, 0, plan.warmup)?;
    outcome.add(warm.attempted, warm.failed);
    let mut next = warm.attempted as usize;

    let interval = Duration::from_secs_f64(1.0 / shape.rate_hz);
    let n = requests(shape, plan.fixed) / TRACED_PHASES;
    let first_stats = target.server_stats();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut valid = 0;
    let mut layers = Layers::default();
    for phase in 0..TRACED_PHASES {
        let on = traced_phase(phase);
        tracing.set(on);
        let logged = tracing.len();
        let before = target.server_stats();
        let round = target.fixed_rate(inputs, next, n, interval)?;
        next += n;
        outcome.add(n as u64, round.failed());
        if on {
            let batches = tracing.since(logged);
            let after = target.server_stats();
            layers.add(trace, T::SEND, &round, &batches, (&before, &after));
        }
        if round.valid() {
            valid += 1;
            if on { &mut traced } else { &mut untraced }.extend(round.latencies_us());
        }
    }
    let fixed_stats = target.server_stats();
    if traced.is_empty() || untraced.is_empty() {
        return Err("no valid traced or untraced fixed-rate phase (the generator fell behind or the backlog grew): no tracing overhead to report".into());
    }
    report.note(format!(
        "{valid} of {TRACED_PHASES} fixed-rate phases valid; the tracing overhead compares the valid ones"
    ));
    report.metric(
        "trace.overhead_frac",
        median(&traced) / median(&untraced) - 1.0,
        "fraction",
    );

    tracing.set(true);
    let logged = tracing.len();
    let sat = target.saturate(inputs, next, plan.saturation)?;
    outcome.add(sat.attempted, sat.failed);
    layers::backend(
        report,
        &tracing.since(logged),
        plan.saturation,
        encode_ns,
        scan_ns,
    );

    let per = |sum: f64| sum / layers.requests.max(1) as f64;
    let server_us = layers.server / layers.served.max(1) as f64;
    let mut rows = vec![("gen.late", per(layers.late)), (T::SEND, per(layers.send))];
    rows.extend(target.own_layers(report, codec_ns, per(layers.round_trip) - server_us));
    rows.push(("serve.batcher", server_us - per(layers.backend)));
    rows.push(("backend.batch", per(layers.backend)));
    report_waterfall(report, per(layers.total), &rows);
    report.note(format!(
        "waterfall over {} traced requests: gen.late and {} on the client's clock; serve.batcher (queue wait, batch fill, fan-back) is the server's own queue-to-verdict mean minus backend.batch, the span the session wrapper records",
        layers.requests,
        T::SEND
    ));
    report.extra(format!("{}.ns", T::SEND), per(layers.send) * 1e3, "ns");
    report.extra("serve.self.p50_us", median(&layers.self_us), "us");
    report.extra("serve.self.p99_us", quantile(&layers.self_us, 0.99), "us");
    let batches = fixed_stats.batches - first_stats.batches;
    report.extra(
        "serve.mean_batch",
        (fixed_stats.completed - first_stats.completed) as f64 / batches.max(1) as f64,
        "windows",
    );
    report.extra("serve.batches", batches as f64, "count");
    report.extra(
        "serve.rejected",
        (fixed_stats.rejected - first_stats.rejected) as f64,
        "count",
    );
    Ok(outcome)
}
