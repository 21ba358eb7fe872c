//! Lock-free serving telemetry: a log-linear latency histogram plus
//! batch-shape counters, all plain atomics.
//!
//! The recorder has exactly one latency/batch writer (the batcher
//! thread) and any number of readers ([`ServerStats`] snapshots from
//! client threads), plus concurrent rejection counting from clients
//! hitting backpressure — so every cell is an [`AtomicU64`] with
//! relaxed ordering and no cell is ever read-modify-written from two
//! places in a way that could lose more than a momentarily-torn
//! snapshot. Percentiles come from an HdrHistogram-style log-linear
//! bucket array: 8 linear sub-buckets per power-of-two octave, i.e. a
//! worst-case relative error of 12.5% on reported quantiles, which is
//! plenty to enforce a latency bound.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Linear sub-buckets per power-of-two octave.
const SUBS: usize = 8;
/// Octaves above the exact range; the top bucket saturates at
/// ~2^31 µs ≈ 36 min, far beyond any sane request latency.
const OCTAVES: usize = 28;
/// Total bucket count: values `0..SUBS` exactly, then `SUBS` linear
/// sub-buckets per octave.
const BUCKETS: usize = SUBS + OCTAVES * SUBS;

/// Histogram bucket index of a microsecond value (log-linear).
fn bucket(us: u64) -> usize {
    if us < SUBS as u64 {
        return us as usize;
    }
    let msb = 63 - us.leading_zeros() as usize; // ≥ 3 here
    let octave = msb - 3;
    let sub = ((us >> (msb - 3)) & 7) as usize;
    (SUBS + octave * SUBS + sub).min(BUCKETS - 1)
}

/// Inclusive upper bound of a bucket, in microseconds — the value a
/// percentile query reports for samples landing in it.
fn upper(idx: usize) -> u64 {
    if idx < SUBS {
        return idx as u64;
    }
    let octave = (idx - SUBS) / SUBS;
    let sub = ((idx - SUBS) % SUBS) as u64;
    ((SUBS as u64 + sub + 1) << octave) - 1
}

/// The shared, lock-free recorder behind a running server.
#[derive(Debug)]
pub(crate) struct Recorder {
    latency: [AtomicU64; BUCKETS],
    completed: AtomicU64,
    latency_sum_us: AtomicU64,
    latency_max_us: AtomicU64,
    batches: AtomicU64,
    service_sum_us: AtomicU64,
    service_max_us: AtomicU64,
    rejected: AtomicU64,
    deadline_expired: AtomicU64,
    retried_batches: AtomicU64,
    contained_panics: AtomicU64,
}

impl Recorder {
    pub(crate) fn new() -> Self {
        Self {
            latency: [const { AtomicU64::new(0) }; BUCKETS],
            completed: AtomicU64::new(0),
            latency_sum_us: AtomicU64::new(0),
            latency_max_us: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            service_sum_us: AtomicU64::new(0),
            service_max_us: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            retried_batches: AtomicU64::new(0),
            contained_panics: AtomicU64::new(0),
        }
    }

    /// Records one completed request's queue-to-verdict latency
    /// (batcher thread only).
    pub(crate) fn record_latency(&self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        // ORDERING: Relaxed throughout the recorder — these are
        // monotone telemetry counters with no reader that makes control
        // decisions from them; snapshots tolerate torn cross-counter
        // views (documented on `snapshot`), so no ordering is needed.
        self.latency[bucket(us)].fetch_add(1, Ordering::Relaxed);
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
        self.latency_max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Records one served batch and its service (classification) time
    /// (batcher thread only).
    pub(crate) fn record_batch(&self, service: Duration) {
        let us = service.as_micros().min(u128::from(u64::MAX)) as u64;
        // ORDERING: Relaxed telemetry, as in `record_latency`.
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.service_sum_us.fetch_add(us, Ordering::Relaxed);
        self.service_max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Counts one submission rejected with `Overloaded` (any client
    /// thread).
    pub(crate) fn record_rejected(&self) {
        // ORDERING: Relaxed telemetry, as in `record_latency`.
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request resolved with
    /// [`DeadlineExceeded`](crate::ServeError::DeadlineExceeded) instead
    /// of occupying a batch slot (batcher thread only).
    pub(crate) fn record_deadline_expired(&self) {
        // ORDERING: Relaxed telemetry, as in `record_latency`.
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one batch retry after a worker-loss failure (batcher
    /// thread only).
    pub(crate) fn record_retried_batch(&self) {
        // ORDERING: Relaxed telemetry, as in `record_latency`.
        self.retried_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one backend panic contained on the batcher thread
    /// (batcher thread only).
    pub(crate) fn record_contained_panic(&self) {
        // ORDERING: Relaxed telemetry, as in `record_latency`.
        self.contained_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot (single pass over the counters;
    /// concurrent updates may tear by a request or two, never more).
    pub(crate) fn snapshot(&self, elapsed: Duration) -> ServerStats {
        let counts: Vec<u64> = self
            .latency
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        let percentile = |q: f64| -> u64 {
            if total == 0 {
                return 0;
            }
            // Rank of the q-quantile in 1..=total (nearest-rank method).
            let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut seen = 0u64;
            for (idx, &n) in counts.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return upper(idx);
                }
            }
            upper(BUCKETS - 1)
        };
        let completed = self.completed.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let secs = elapsed.as_secs_f64();
        ServerStats {
            completed,
            rejected: self.rejected.load(Ordering::Relaxed),
            batches,
            mean_batch: if batches == 0 {
                0.0
            } else {
                completed as f64 / batches as f64
            },
            p50_us: percentile(0.50),
            p95_us: percentile(0.95),
            p99_us: percentile(0.99),
            latency_max_us: self.latency_max_us.load(Ordering::Relaxed),
            latency_mean_us: if completed == 0 {
                0.0
            } else {
                self.latency_sum_us.load(Ordering::Relaxed) as f64 / completed as f64
            },
            batch_service_max_us: self.service_max_us.load(Ordering::Relaxed),
            batch_service_mean_us: if batches == 0 {
                0.0
            } else {
                self.service_sum_us.load(Ordering::Relaxed) as f64 / batches as f64
            },
            elapsed,
            windows_per_sec: if secs > 0.0 {
                completed as f64 / secs
            } else {
                0.0
            },
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            retried_batches: self.retried_batches.load(Ordering::Relaxed),
            contained_panics: self.contained_panics.load(Ordering::Relaxed),
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
        }
    }
}

/// A point-in-time view of a server's accumulated telemetry.
///
/// Latencies are measured server-side from the moment a request is
/// accepted into the queue to the moment its verdict is handed back to
/// the ticket — queueing, batch formation (up to
/// [`max_delay`](crate::ServeConfig::max_delay)) and batch service all
/// included. Quantiles come from a log-linear histogram with ≤ 12.5%
/// relative error; `latency_max_us` is exact.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Requests answered (successfully or with a per-request error).
    pub completed: u64,
    /// Submissions rejected with
    /// [`TrySubmitError::Overloaded`](crate::TrySubmitError::Overloaded).
    pub rejected: u64,
    /// Batches served.
    pub batches: u64,
    /// Mean windows per served batch.
    pub mean_batch: f64,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 95th-percentile request latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
    /// Worst request latency, microseconds (exact).
    pub latency_max_us: u64,
    /// Mean request latency, microseconds.
    pub latency_mean_us: f64,
    /// Worst single-batch service (classification) time, microseconds.
    pub batch_service_max_us: u64,
    /// Mean batch service time, microseconds.
    pub batch_service_mean_us: f64,
    /// Wall-clock since the server was spawned.
    pub elapsed: Duration,
    /// Completed requests per second of server lifetime.
    pub windows_per_sec: f64,
    /// Requests resolved with
    /// [`DeadlineExceeded`](crate::ServeError::DeadlineExceeded) because
    /// they waited in the queue past the configured
    /// [`deadline`](crate::ServeConfig::deadline) (counted in
    /// `completed` too — they were answered, with an error).
    pub deadline_expired: u64,
    /// Batches retried after a
    /// [`WorkerLost`](pulp_hd_core::backend::BackendError::WorkerLost)
    /// failure (each retry counts once; a batch retried twice adds two).
    pub retried_batches: u64,
    /// Backend panics contained on the batcher thread — each one also
    /// surfaced as a typed per-request error instead of killing the
    /// server.
    pub contained_panics: u64,
    /// Query-cache hits — windows answered by replaying a previously
    /// computed verdict instead of an associative-memory scan. Filled
    /// only when the served session has a query cache
    /// ([`FastBackend::with_cache`](pulp_hd_core::backend::FastBackend::with_cache));
    /// zero otherwise.
    pub cache_hits: u64,
    /// Query-cache misses — windows that went through the full scan
    /// (and were then inserted). Filled alongside
    /// [`cache_hits`](Self::cache_hits).
    pub cache_misses: u64,
    /// Query-cache evictions — least-recently-used entries displaced by
    /// inserts at capacity. Filled alongside
    /// [`cache_hits`](Self::cache_hits).
    pub cache_evictions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_exhaustive() {
        let mut last = 0;
        for us in (0..1_000_000u64).step_by(37) {
            let b = bucket(us);
            assert!(b >= last || upper(b) >= us, "bucket order at {us}");
            assert!(us <= upper(b), "value {us} above its bucket bound");
            // Upper bound is within 12.5% of the true value (or exact in
            // the linear range).
            assert!(
                upper(b) as f64 <= (us as f64 * 1.125).max(SUBS as f64),
                "bucket at {us} too coarse: upper {}",
                upper(b)
            );
            last = b;
        }
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_track_recorded_distribution() {
        let r = Recorder::new();
        // 100 requests at ~100µs, 10 at ~10ms: p50 near 100µs, p99+
        // influenced by the slow tail.
        for _ in 0..100 {
            r.record_latency(Duration::from_micros(100));
        }
        for _ in 0..10 {
            r.record_latency(Duration::from_millis(10));
        }
        let s = r.snapshot(Duration::from_secs(1));
        assert_eq!(s.completed, 110);
        assert!(s.p50_us >= 100 && s.p50_us < 125, "p50 {}", s.p50_us);
        assert!(s.p99_us >= 10_000, "p99 {}", s.p99_us);
        assert!(s.p50_us <= s.p95_us && s.p95_us <= s.p99_us);
        assert!(s.p99_us <= s.latency_max_us.max(11_500));
        assert!((s.windows_per_sec - 110.0).abs() < 1e-6);
    }

    #[test]
    fn batch_and_rejection_counters_accumulate() {
        let r = Recorder::new();
        r.record_batch(Duration::from_micros(300));
        r.record_batch(Duration::from_micros(700));
        r.record_rejected();
        for _ in 0..6 {
            r.record_latency(Duration::from_micros(50));
        }
        let s = r.snapshot(Duration::from_millis(500));
        assert_eq!(s.batches, 2);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.batch_service_max_us, 700);
        assert!((s.batch_service_mean_us - 500.0).abs() < 1.0);
        assert!((s.mean_batch - 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_recorder_snapshots_zeros() {
        let s = Recorder::new().snapshot(Duration::ZERO);
        assert_eq!(s.completed, 0);
        assert_eq!(s.p99_us, 0);
        assert_eq!(s.windows_per_sec, 0.0);
        assert_eq!(s.mean_batch, 0.0);
    }
}
