//! Open-loop load: requests are due on a fixed-interval schedule, as if
//! sent by many independent sensors, and each is timed from when it was
//! due — so a stall also charges the requests queued behind it. Also the
//! saturation phase's result, and how the rounds of a run are summarized.

use std::time::{Duration, Instant};

use crate::report::Report;
use crate::stats::{interquartile_mean, median, quantile, sliced_quantile, TAIL_SLICE};
use crate::Error;

/// Generator lateness above which a fixed-rate round is invalid when
/// more than a tenth of its requests are that late: the generator could
/// not keep its own schedule. (A shared host stalls the whole process
/// for milliseconds now and then; that makes a few requests late, not a
/// tenth of them.)
const LATE_LIMIT: Duration = Duration::from_millis(2);
/// Requests still unanswered when a round's schedule ended, above which
/// the round is invalid: the backlog grew.
const BACKLOG_LIMIT: usize = 32;
/// Slices of a saturation phase whose median rate is its throughput.
const RATE_BINS: usize = 10;
/// Leading share of a saturation phase left out of its rate (ramp-up).
const RAMP: f64 = 0.1;

/// How early before a due time the generator stops sleeping and spins:
/// a thread sleep overshoots by tens of µs, which would otherwise show
/// up as generator lateness in every request's latency.
const SPIN: Duration = Duration::from_micros(120);

/// Waits until `due` (returns at once if it has passed): sleeps until
/// shortly before it, then spins.
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// One request of a fixed-rate phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Request number (indexes the pool and the oracle).
    pub request: usize,
    /// When the schedule said to send it.
    pub due: Instant,
    /// When the generator started sending it.
    pub sent: Instant,
    /// When the send call returned.
    pub sent_end: Instant,
    /// When its verdict (or error) was in the caller's hand.
    pub done: Instant,
    /// Whether it returned the golden verdict.
    pub ok: bool,
}

/// What one round of a fixed-rate phase measured.
pub struct FixedRate {
    pub samples: Vec<Sample>,
    /// When the last request was due.
    pub schedule_end: Instant,
}

impl FixedRate {
    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    /// Latency of every request, µs from due to verdict.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.done.duration_since(s.due).as_secs_f64() * 1e6)
            .collect()
    }

    /// Generator lateness of every request, µs from due to send.
    pub fn lateness_us(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.sent.saturating_duration_since(s.due).as_secs_f64() * 1e6)
            .collect()
    }

    /// Requests still unanswered when the last one was due.
    pub fn backlog_end(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.done > self.schedule_end)
            .count()
    }

    /// Whether the generator kept its schedule and the backlog stayed
    /// bounded, so the round's latencies are the system's.
    pub fn valid(&self) -> bool {
        quantile(&self.lateness_us(), 0.9) <= LATE_LIMIT.as_secs_f64() * 1e6
            && self.backlog_end() <= BACKLOG_LIMIT
    }
}

/// What one round of a saturation phase measured. Completions are
/// counted into `RATE_BINS` slices as they happen, so the harness holds
/// no per-request state however fast the system runs.
pub struct Saturation {
    started: Instant,
    span: Duration,
    bins: [u64; RATE_BINS],
    pub attempted: u64,
    pub failed: u64,
}

impl Saturation {
    /// A phase of length `span` that starts now.
    pub fn new(span: Duration) -> Self {
        Self {
            started: Instant::now(),
            span,
            bins: [0; RATE_BINS],
            attempted: 0,
            failed: 0,
        }
    }

    /// When the phase stops sending.
    pub fn stop(&self) -> Instant {
        self.started + self.span
    }

    /// Counts one request, completed at `done`.
    pub fn record(&mut self, done: Instant, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        let at =
            done.saturating_duration_since(self.started).as_secs_f64() / self.span.as_secs_f64();
        if (RAMP..1.0).contains(&at) {
            let bin = ((at - RAMP) / (1.0 - RAMP) * RATE_BINS as f64) as usize;
            self.bins[bin.min(RATE_BINS - 1)] += 1;
        }
    }

    /// Completions per second: the median over the slices of the phase
    /// after its ramp-up.
    pub fn rate(&self) -> f64 {
        let width = self.span.as_secs_f64() * (1.0 - RAMP) / RATE_BINS as f64;
        let rates: Vec<f64> = self.bins.iter().map(|&c| c as f64 / width).collect();
        median(&rates)
    }
}

/// Records generator lateness, backlog and deadline misses over all
/// `rounds`, and the latency metrics over the valid rounds: each round's
/// p50 and sliced tail, summarized by their interquartile mean.
///
/// # Errors
///
/// Fails when fewer than half the rounds are valid: the generator fell
/// behind or the backlog grew, so the latencies are not the system's.
pub fn report_rounds(
    report: &mut Report,
    rounds: &[FixedRate],
    deadline: Duration,
) -> Result<(), Error> {
    let lateness: Vec<f64> = rounds.iter().flat_map(FixedRate::lateness_us).collect();
    let backlogs: Vec<f64> = rounds.iter().map(|r| r.backlog_end() as f64).collect();
    report.extra("gen.late_p99_us", quantile(&lateness, 0.99), "us");
    report.extra("gen.backlog_end", median(&backlogs), "requests");
    let deadline_us = deadline.as_secs_f64() * 1e6;
    let (mut requests, mut misses) = (0, 0);
    for round in rounds {
        let latencies = round.latencies_us();
        requests += latencies.len();
        misses += round
            .samples
            .iter()
            .zip(&latencies)
            .filter(|(s, &lat)| !s.ok || lat > deadline_us)
            .count();
    }
    report.extra(
        "deadline_miss_rate",
        misses as f64 / requests as f64,
        "fraction",
    );
    let valid: Vec<&FixedRate> = rounds.iter().filter(|r| r.valid()).collect();
    if 2 * valid.len() < rounds.len() {
        return Err(format!(
            "only {} of {} fixed-rate rounds are valid (the generator fell behind or the backlog grew): no latency to report",
            valid.len(),
            rounds.len()
        )
        .into());
    }
    let mut tails = Tails::default();
    for round in &valid {
        tails.push(&round.latencies_us());
    }
    report.note(format!(
        "{} of {} fixed-rate rounds valid",
        valid.len(),
        rounds.len()
    ));
    tails.report(report, valid.iter().map(|r| r.samples.len()).sum());
    Ok(())
}

/// Per-round latency figures, summarized over rounds.
#[derive(Default)]
pub struct Tails {
    p50: Vec<f64>,
    p95: Vec<f64>,
    p99: Vec<f64>,
}

impl Tails {
    /// Adds one round: its median, and its sliced p95 and p99.
    pub fn push(&mut self, latencies: &[f64]) {
        self.p50.push(median(latencies));
        self.p95.push(sliced_quantile(latencies, 0.95));
        self.p99.push(sliced_quantile(latencies, 0.99));
    }

    /// Records `latency_p50_us` and prints the tail: on a shared host
    /// the tail follows the other tenants' load (the sliced p95 of ten
    /// runs ranged over 3x), so it is no metric with a bound.
    pub fn report(&self, report: &mut Report, samples: usize) {
        report.rounds("latency_p50_us", &self.p50);
        report.metric("latency_p50_us", interquartile_mean(&self.p50), "us");
        report.extra("latency_p95_us", interquartile_mean(&self.p95), "us");
        report.extra("latency_p99_us", interquartile_mean(&self.p99), "us");
        report.note(format!(
            "latency: {samples} samples in {} rounds; per round, p50 is the median and p95 (p99) the median of {TAIL_SLICE}-sample slices' p95 (p99), {} ({}) samples beyond it per slice; printed: the interquartile mean over rounds",
            self.p50.len(),
            TAIL_SLICE / 20,
            TAIL_SLICE / 100
        ));
    }
}
