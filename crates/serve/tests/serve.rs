//! End-to-end tests of the serving front-end: determinism against a
//! direct session, concurrent clients, backpressure, graceful shutdown,
//! per-request error isolation, and telemetry sanity.

use std::num::NonZeroUsize;
use std::sync::mpsc::channel;
use std::time::Duration;

use hdc::rng::Xoshiro256PlusPlus;
use pulp_hd_core::backend::{
    ExecutionBackend, FastBackend, FaultBackend, FaultKind, FaultPlan, GoldenBackend, HdModel,
    TrainSpec, TrainableBackend,
};
use pulp_hd_core::layout::AccelParams;
use pulp_hd_serve::{ServeConfig, ServeError, Server, TrySubmitError};

fn params() -> AccelParams {
    AccelParams {
        n_words: 16,
        ngram: 2,
        ..AccelParams::emg_default()
    }
}

fn random_windows(
    params: &AccelParams,
    samples: usize,
    count: usize,
    seed: u64,
) -> Vec<Vec<Vec<u16>>> {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (0..samples)
                .map(|_| {
                    (0..params.channels)
                        .map(|_| (rng.next_u32() & 0xffff) as u16)
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// The acceptance property: every verdict that comes back through the
/// server — across concurrent clients, interleaved batches, both
/// backends — is bit-identical to a direct `session.classify` of the
/// same window.
#[test]
#[cfg_attr(miri, ignore = "OS threads and wall-clock deadlines")]
fn served_verdicts_are_bit_identical_to_direct_classification() {
    let params = params();
    let model = HdModel::random(&params, 0x5E12);
    let windows = random_windows(&params, 3, 48, 0xFEED);
    let mut direct = GoldenBackend.prepare(&model).unwrap();
    let expected: Vec<_> = windows
        .iter()
        .map(|w| direct.classify(w).unwrap())
        .collect();

    for backend in [
        FastBackend::try_with_threads(1),
        FastBackend::try_with_threads(4),
    ] {
        let server = Server::spawn(
            &backend.unwrap(),
            &model,
            ServeConfig {
                max_batch: 16,
                max_delay: Duration::from_millis(2),
                queue_depth: 64,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        // 4 concurrent clients, each submitting a strided quarter of the
        // windows; results come back tagged so order does not matter.
        let (results_tx, results_rx) = channel();
        std::thread::scope(|scope| {
            for lane in 0..4usize {
                let client = server.client();
                let results = results_tx.clone();
                let windows = &windows;
                scope.spawn(move || {
                    for (i, w) in windows.iter().enumerate().skip(lane).step_by(4) {
                        let verdict = client.classify(w).unwrap();
                        results.send((i, verdict)).unwrap();
                    }
                });
            }
        });
        drop(results_tx);
        let mut seen = 0;
        for (i, verdict) in results_rx.iter() {
            assert_eq!(verdict, expected[i], "window {i}");
            seen += 1;
        }
        assert_eq!(seen, windows.len());
        let stats = server.shutdown();
        assert_eq!(stats.completed, windows.len() as u64);
        assert!(stats.batches <= windows.len() as u64);
        assert!(stats.p50_us <= stats.p99_us);
    }
}

/// Queued submissions actually coalesce into multi-window batches (the
/// whole point of the micro-batcher).
#[test]
#[cfg_attr(miri, ignore = "OS threads and wall-clock deadlines")]
fn queued_requests_coalesce_into_batches() {
    let params = params();
    let model = HdModel::random(&params, 3);
    let server = Server::spawn(
        &FastBackend::try_with_threads(1).unwrap(),
        &model,
        ServeConfig {
            max_batch: 32,
            max_delay: Duration::from_millis(200),
            queue_depth: 64,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let client = server.client();
    let windows = random_windows(&params, 2, 32, 9);
    // Fire-and-collect: all 32 tickets outstanding at once, so the
    // 200 ms fill window sweeps them into very few batches.
    let tickets: Vec<_> = windows
        .iter()
        .map(|w| client.submit(w.clone()).unwrap())
        .collect();
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, 32);
    assert!(
        stats.batches <= 3,
        "32 simultaneous requests should form at most a few batches, got {}",
        stats.batches
    );
    assert!(stats.mean_batch >= 8.0, "mean batch {}", stats.mean_batch);
}

/// Backpressure: when the bounded queue is full, `try_submit` sheds
/// load with `Overloaded` (and counts it) instead of blocking.
#[test]
#[cfg_attr(miri, ignore = "OS threads and wall-clock deadlines")]
fn overload_surfaces_as_try_submit_rejection() {
    let params = params();
    let model = HdModel::random(&params, 4);
    let server = Server::spawn(
        &FastBackend::try_with_threads(1).unwrap(),
        &model,
        ServeConfig {
            max_batch: 1,
            max_delay: Duration::ZERO,
            queue_depth: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let client = server.client();
    // A slow request (long window) occupies the batcher; once it and
    // the single queue slot are taken, a burst must hit `Overloaded`.
    let slow = random_windows(&params, 4_000, 1, 5).remove(0);
    let fast_windows = random_windows(&params, 2, 1, 6);
    let slow_ticket = client.submit(slow).unwrap();
    let mut accepted = Vec::new();
    let mut rejections = 0u64;
    for _ in 0..10_000 {
        match client.try_submit(fast_windows[0].clone()) {
            Ok(t) => accepted.push(t),
            Err(TrySubmitError::Overloaded) => {
                rejections += 1;
                if !accepted.is_empty() {
                    break;
                }
            }
            Err(TrySubmitError::Closed) => panic!("server closed early"),
        }
    }
    assert!(rejections > 0, "bounded queue never reported Overloaded");
    slow_ticket.wait().unwrap();
    for t in accepted {
        t.wait().unwrap();
    }
    let stats = server.shutdown();
    assert_eq!(stats.rejected, rejections);
}

/// Graceful shutdown serves every accepted ticket before the batcher
/// exits, and only new submissions observe `Closed`.
#[test]
#[cfg_attr(miri, ignore = "OS threads and wall-clock deadlines")]
fn shutdown_drains_outstanding_tickets() {
    let params = params();
    let model = HdModel::random(&params, 5);
    let server = Server::spawn(
        &FastBackend::try_with_threads(2).unwrap(),
        &model,
        ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(50),
            queue_depth: 64,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let client = server.client();
    let windows = random_windows(&params, 2, 20, 7);
    let tickets: Vec<_> = windows
        .iter()
        .map(|w| client.submit(w.clone()).unwrap())
        .collect();
    let stats = server.shutdown();
    assert_eq!(stats.completed, 20, "shutdown must drain accepted work");
    for (i, ticket) in tickets.into_iter().enumerate() {
        ticket.wait().unwrap_or_else(|e| panic!("ticket {i}: {e}"));
    }
    // The server is gone: new submissions fail cleanly.
    assert!(matches!(
        client.submit(windows[0].clone()),
        Err(ServeError::Closed)
    ));
    assert!(matches!(
        client.try_submit(windows[0].clone()),
        Err(TrySubmitError::Closed)
    ));
    assert!(matches!(
        client.classify(&windows[0]),
        Err(ServeError::Closed)
    ));
}

/// A malformed window poisons only its own ticket: everyone else in the
/// same batch still gets a bit-exact verdict.
#[test]
#[cfg_attr(miri, ignore = "OS threads and wall-clock deadlines")]
fn per_request_errors_do_not_poison_the_batch() {
    let params = params();
    let model = HdModel::random(&params, 6);
    let mut direct = GoldenBackend.prepare(&model).unwrap();
    let server = Server::spawn(
        &FastBackend::try_with_threads(2).unwrap(),
        &model,
        ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(100),
            queue_depth: 64,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let client = server.client();
    let good = random_windows(&params, 2, 4, 8);
    let bad = vec![vec![0u16; params.channels + 1]; 2]; // wrong channel count
    let t0 = client.submit(good[0].clone()).unwrap();
    let t_bad = client.submit(bad).unwrap();
    let t1 = client.submit(good[1].clone()).unwrap();
    assert_eq!(t0.wait().unwrap(), direct.classify(&good[0]).unwrap());
    assert!(matches!(t_bad.wait(), Err(ServeError::Backend(_))));
    assert_eq!(t1.wait().unwrap(), direct.classify(&good[1]).unwrap());
    let stats = server.shutdown();
    assert_eq!(
        stats.completed, 3,
        "errored requests still count as answered"
    );
}

/// The train → serve hand-off: `Server::from_training` serves the
/// just-trained model bit-identically to a directly prepared session.
#[test]
#[cfg_attr(miri, ignore = "OS threads and wall-clock deadlines")]
fn from_training_serves_the_trained_model() {
    let params = params();
    let spec = TrainSpec::random(&params, 0x2EA1);
    let windows = random_windows(&params, 3, 24, 0x11);
    let labels: Vec<usize> = (0..24).map(|i| i % params.classes).collect();

    let mut trainer = FastBackend::try_with_threads(2)
        .unwrap()
        .begin_training(&spec)
        .unwrap();
    trainer.train_batch(&windows, &labels).unwrap();
    let model = trainer.finalize().unwrap();
    let server = Server::from_training(trainer, ServeConfig::default()).unwrap();

    let mut direct = GoldenBackend.prepare(&model).unwrap();
    let client = server.client();
    let probes = random_windows(&params, 3, 8, 0x12);
    for (i, probe) in probes.iter().enumerate() {
        assert_eq!(
            client.classify(probe).unwrap(),
            direct.classify(probe).unwrap(),
            "probe {i}"
        );
    }
    let _ = server.shutdown();
}

/// `wait_timeout` returns `Ok(None)` on expiry and a verdict when the
/// answer arrives in time.
#[test]
#[cfg_attr(miri, ignore = "OS threads and wall-clock deadlines")]
fn ticket_wait_timeout_behaves() {
    let params = params();
    let model = HdModel::random(&params, 10);
    let server = Server::spawn(
        &FastBackend::try_with_threads(1).unwrap(),
        &model,
        ServeConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(1),
            queue_depth: 8,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let client = server.client();
    let w = random_windows(&params, 2, 1, 13).remove(0);
    let t = client.submit(w.clone()).unwrap();
    assert!(t.wait_timeout(Duration::from_secs(10)).unwrap().is_some());
    // A slow request cannot finish in zero time.
    let slow = random_windows(&params, 4_000, 1, 14).remove(0);
    let t = client.submit(slow).unwrap();
    assert!(t.wait_timeout(Duration::ZERO).unwrap().is_none());
    let _ = server.shutdown();
}

/// A per-request deadline overrides the config-wide one and is
/// enforced by batch triage: a request stuck behind a slow batch past
/// its own (tight) deadline resolves as [`ServeError::DeadlineExceeded`]
/// and is counted, while a no-deadline request behind the same slow
/// batch is served normally.
#[test]
#[cfg_attr(miri, ignore = "OS threads and wall-clock deadlines")]
fn per_request_deadline_overrides_and_is_triaged() {
    let params = params();
    let model = HdModel::random(&params, 21);
    // Call 0 (request A's batch) sleeps 50 ms, pinning the batcher so
    // the next two submissions queue behind it.
    let backend = FaultBackend::new(
        FastBackend::try_with_threads(1).unwrap(),
        FaultPlan::new().fault_at(0, FaultKind::Delay(Duration::from_millis(50))),
    );
    let server = Server::spawn(
        &backend,
        &model,
        ServeConfig {
            max_batch: 1,
            max_delay: Duration::ZERO,
            queue_depth: 8,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let client = server.client();
    let windows = random_windows(&params, 2, 3, 22);

    let slow = client.submit(windows[0].clone()).unwrap();
    let tight = client
        .submit_with_deadline(windows[1].clone(), Some(Duration::from_millis(5)))
        .unwrap();
    let patient = client.submit(windows[2].clone()).unwrap();

    assert!(slow.wait().is_ok(), "the delayed batch itself still serves");
    assert!(
        matches!(tight.wait(), Err(ServeError::DeadlineExceeded)),
        "5 ms deadline behind a 50 ms batch must be shed at triage"
    );
    assert!(patient.wait().is_ok(), "no-deadline sibling is unaffected");

    let stats = server.shutdown();
    assert_eq!(stats.deadline_expired, 1);
    // Every resolved ticket — including the shed one — contributes a
    // latency sample, so `completed` counts all three.
    assert_eq!(stats.completed, 3);
}

/// Invalid configurations are rejected up front — through every
/// constructor, including the `try_` twins: a zero `max_batch` or
/// `queue_depth` must come back as [`ServeError::Config`], never panic
/// after a thread exists.
#[test]
#[cfg_attr(miri, ignore = "OS threads and wall-clock deadlines")]
fn invalid_configs_are_rejected() {
    let params = params();
    let model = HdModel::random(&params, 11);
    for config in [
        ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        },
        ServeConfig {
            queue_depth: 0,
            ..ServeConfig::default()
        },
    ] {
        assert!(matches!(
            Server::spawn(&GoldenBackend, &model, config),
            Err(ServeError::Config(_))
        ));
        assert!(matches!(
            Server::try_spawn(&GoldenBackend, &model, config),
            Err(ServeError::Config(_))
        ));
        assert!(matches!(
            Server::try_from_session(GoldenBackend.prepare(&model).unwrap(), config),
            Err(ServeError::Config(_))
        ));
    }
    // The twins accept what the originals accept.
    let server = Server::try_spawn(&GoldenBackend, &model, ServeConfig::default()).unwrap();
    let _ = server.shutdown();
}

/// A server over a cached session (`FastBackend::with_cache`, handed to
/// `Server::from_session`) replays the verdicts direct classification
/// computes and surfaces its cache counters in `ServerStats`; a server
/// spawned on the default backend has no cache and reports zeros.
#[test]
#[cfg_attr(miri, ignore = "OS threads and wall-clock deadlines")]
fn cached_session_serves_exact_verdicts_and_counts_hits() {
    let params = params();
    let model = HdModel::random(&params, 0xCAFE);
    let pool = random_windows(&params, 3, 6, 0xAB);
    // A repeated-window stream: plenty of cache hits.
    let stream: Vec<_> = (0..30).map(|i| pool[i % pool.len()].clone()).collect();
    let mut direct = GoldenBackend.prepare(&model).unwrap();
    let expected: Vec<_> = stream.iter().map(|w| direct.classify(w).unwrap()).collect();

    let plain = Server::spawn(
        &FastBackend::try_with_threads(1).unwrap(),
        &model,
        ServeConfig::default(),
    )
    .unwrap();
    let client = plain.client();
    for (i, w) in stream.iter().enumerate() {
        assert_eq!(client.classify(w).unwrap(), expected[i], "window {i}");
    }
    let stats = plain.shutdown();
    assert_eq!(stats.cache_hits, 0, "the default session carries no cache");
    assert_eq!(stats.cache_misses, 0);

    let session = FastBackend::try_with_threads(1)
        .unwrap()
        .with_cache(NonZeroUsize::new(16).unwrap())
        .prepare(&model)
        .unwrap();
    let cached = Server::from_session(session, ServeConfig::default()).unwrap();
    let client = cached.client();
    for (i, w) in stream.iter().enumerate() {
        let verdict = client.classify(w).unwrap();
        assert_eq!(verdict.class, expected[i].class, "window {i}");
        assert_eq!(verdict.distances, expected[i].distances, "window {i}");
        assert_eq!(verdict.query, expected[i].query, "window {i}");
    }
    let stats = cached.shutdown();
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        stream.len() as u64,
        "every window is a hit or a miss"
    );
    assert!(stats.cache_hits >= (stream.len() - pool.len()) as u64);
}
