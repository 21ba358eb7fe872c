//! Seeded fault-injection against the serving front-end: panics in the
//! served session contained and retried behind the batcher, injected
//! errors isolated to their own ticket, deadlines shedding stalled
//! requests, and a hung backend timing tickets out, then recovering.
//!
//! Companion to the core-layer chaos suite (`pulp-hd-core/tests/chaos`):
//! that one pins the backend's typed errors; this one pins what a
//! *client* observes through [`Server`] under the same
//! deterministic [`FaultPlan`] schedules. Runs in CI on both kernel
//! levels (a second pass sets `PULP_HD_FORCE_SCALAR=1`).

use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

use hdc::rng::Xoshiro256PlusPlus;
use pulp_hd_core::backend::{
    BackendError, BackendSession, ExecutionBackend, FastBackend, FaultBackend, FaultKind,
    FaultPlan, GoldenBackend, HdModel, Verdict,
};
use pulp_hd_core::layout::AccelParams;
use pulp_hd_serve::{ServeConfig, ServeError, Server};

/// Silences the panics this suite injects on purpose (tagged with the
/// literal `"injected fault"`); everything else still reaches the
/// previous hook.
fn silence_expected_panics() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !message.contains("injected fault") {
                previous(info);
            }
        }));
    });
}

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

fn golden_verdicts(model: &HdModel, windows: &[Vec<Vec<u16>>]) -> Vec<Verdict> {
    let mut direct = GoldenBackend.prepare(model).unwrap();
    direct.classify_batch(windows).unwrap()
}

/// A scheduled panic inside the served session is contained on the
/// batcher thread and retried — every request still gets its bit-exact
/// verdict, nobody else notices, and the telemetry records exactly one
/// contained panic and a retried batch. Two inputs: a lone closed-loop
/// client on a single-threaded engine, and concurrent clients whose
/// requests share one multi-request batch on a pooled engine.
#[test]
#[cfg_attr(miri, ignore = "OS threads and wall-clock deadlines")]
fn contained_panic_is_retried_transparently() {
    silence_expected_panics();
    let params = params();
    let model = HdModel::random(&params, 0x5E01);
    let windows = random_windows(&params, 3, 3, 0xA11);
    let expected = golden_verdicts(&model, &windows);

    // Closed-loop traffic means one session call per request; call 1
    // panics, its retry lands on the fault-free call 2.
    let chaos = FaultBackend::new(
        FastBackend::try_with_threads(1).unwrap(),
        FaultPlan::new().fault_at(1, FaultKind::Panic),
    );
    let server = Server::spawn(&chaos, &model, ServeConfig::default()).unwrap();
    let client = server.client();
    for (i, w) in windows.iter().enumerate() {
        assert_eq!(client.classify(w).unwrap(), expected[i], "request {i}");
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, windows.len() as u64);
    assert_eq!(stats.contained_panics, 1);
    assert_eq!(stats.retried_batches, 1);

    // Concurrent clients on a 2-thread engine: the first batch (one
    // lone request) is held in service while every client queues its
    // windows, so call 1 — the panicking one — serves all of them as
    // one batch.
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 4;
    let windows = random_windows(&params, 3, 1 + CLIENTS * PER_CLIENT, 0xA12);
    let expected = golden_verdicts(&model, &windows);
    let chaos = FaultBackend::new(
        FastBackend::try_with_threads(2).unwrap(),
        FaultPlan::new().fault_at(1, FaultKind::Panic),
    );
    let (started_tx, started_rx) = channel();
    let (proceed_tx, proceed_rx) = channel();
    let session = HeldFirstBatch {
        inner: chaos.prepare(&model).unwrap(),
        gate: Some((started_tx, proceed_rx)),
    };
    let server = Server::from_session(Box::new(session), ServeConfig::default()).unwrap();
    let held = server.client().submit(windows[0].clone()).unwrap();
    started_rx.recv().unwrap();
    let (submitted_tx, submitted_rx) = channel();
    std::thread::scope(|scope| {
        let clients: Vec<_> = windows[1..]
            .chunks(PER_CLIENT)
            .map(|chunk| {
                let client = server.client();
                let submitted = submitted_tx.clone();
                scope.spawn(move || {
                    let tickets: Vec<_> = chunk
                        .iter()
                        .map(|w| client.submit(w.clone()).unwrap())
                        .collect();
                    submitted.send(()).unwrap();
                    tickets
                        .into_iter()
                        .map(|t| t.wait().unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        drop(submitted_tx);
        let all_queued = (0..CLIENTS).all(|_| submitted_rx.recv().is_ok());
        proceed_tx.send(()).unwrap();
        assert!(all_queued, "a client failed to submit");
        assert_eq!(held.wait().unwrap(), expected[0], "the held request");
        for (c, handle) in clients.into_iter().enumerate() {
            let first = 1 + c * PER_CLIENT;
            assert_eq!(
                handle.join().unwrap(),
                expected[first..first + PER_CLIENT],
                "client {c}"
            );
        }
    });
    let stats = server.shutdown();
    assert_eq!(stats.completed, windows.len() as u64);
    assert_eq!(
        stats.batches, 2,
        "the held request, then every client's windows as one batch"
    );
    assert_eq!(stats.contained_panics, 1);
    assert!(stats.retried_batches >= 1, "{}", stats.retried_batches);
}

/// A served session whose first batch reports that it has started and
/// then waits to be let through, so a test can queue requests behind a
/// batch that is already in service.
struct HeldFirstBatch {
    inner: Box<dyn BackendSession>,
    gate: Option<(Sender<()>, Receiver<()>)>,
}

impl BackendSession for HeldFirstBatch {
    fn classify(&mut self, window: &[Vec<u16>]) -> Result<Verdict, BackendError> {
        self.inner.classify(window)
    }

    fn classify_batch_into(
        &mut self,
        windows: &[Vec<Vec<u16>>],
        out: &mut Vec<Verdict>,
    ) -> Result<(), BackendError> {
        if let Some((started, proceed)) = self.gate.take() {
            started.send(()).unwrap();
            proceed.recv().unwrap();
        }
        self.inner.classify_batch_into(windows, out)
    }
}

/// An injected backend *error* that persists through the per-window
/// fallback fails exactly its own ticket with the typed error; requests
/// before and after it are served bit-exactly.
#[test]
#[cfg_attr(miri, ignore = "OS threads and wall-clock deadlines")]
fn injected_error_fails_only_the_affected_request() {
    let params = params();
    let model = HdModel::random(&params, 0x5E02);
    let windows = random_windows(&params, 3, 3, 0xB22);
    let expected = golden_verdicts(&model, &windows);

    // Call 1 is request 1's batch; call 2 is its per-window fallback —
    // faulting both makes the *request* fail (a batch-only fault would
    // be masked by the fallback).
    let chaos = FaultBackend::new(
        FastBackend::try_with_threads(1).unwrap(),
        FaultPlan::new()
            .fault_at(1, FaultKind::Error)
            .fault_at(2, FaultKind::Error),
    );
    let server = Server::spawn(&chaos, &model, ServeConfig::default()).unwrap();
    let client = server.client();

    assert_eq!(client.classify(&windows[0]).unwrap(), expected[0]);
    let err = client.classify(&windows[1]).unwrap_err();
    assert!(
        matches!(err, ServeError::Backend(BackendError::Injected { call: 2 })),
        "{err}"
    );
    assert_eq!(client.classify(&windows[2]).unwrap(), expected[2]);

    let stats = server.shutdown();
    assert_eq!(
        stats.completed, 3,
        "errored requests still count as answered"
    );
    assert_eq!(stats.contained_panics, 0);
}

/// A backend stall (injected latency) makes queued requests miss their
/// deadline: the stalled request itself is served, the one stuck
/// behind it resolves with the typed `DeadlineExceeded` instead of
/// being served late, and the server keeps serving afterwards.
#[test]
#[cfg_attr(miri, ignore = "OS threads and wall-clock deadlines")]
fn injected_latency_trips_request_deadlines() {
    let params = params();
    let model = HdModel::random(&params, 0x5E03);
    let windows = random_windows(&params, 3, 3, 0xC33);
    let expected = golden_verdicts(&model, &windows);

    let chaos = FaultBackend::new(
        FastBackend::try_with_threads(1).unwrap(),
        FaultPlan::new().fault_at(0, FaultKind::Delay(Duration::from_millis(100))),
    );
    let server = Server::spawn(
        &chaos,
        &model,
        ServeConfig {
            max_batch: 1,
            max_delay: Duration::ZERO,
            deadline: Some(Duration::from_millis(10)),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let client = server.client();

    // The first request is dequeued while fresh, then stalls 100 ms in
    // service; the second waits those 100 ms in the queue and has
    // missed its 10 ms deadline by the time its batch forms.
    let stalled = client.submit(windows[0].clone()).unwrap();
    let expired = client.submit(windows[1].clone()).unwrap();
    assert_eq!(stalled.wait().unwrap(), expected[0]);
    assert!(matches!(expired.wait(), Err(ServeError::DeadlineExceeded)));
    // Past the stall the server is healthy again.
    assert_eq!(client.classify(&windows[2]).unwrap(), expected[2]);

    let stats = server.shutdown();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.completed, 3);
}

/// A hung backend ([`FaultKind::Hang`]) does not wedge callers who use
/// `wait_timeout`: the ticket times out with `Ok(None)` while the
/// worker is stuck, and after the hang releases the server returns to
/// serving bit-identical verdicts.
#[test]
#[cfg_attr(miri, ignore = "OS threads and wall-clock deadlines")]
fn hung_backend_times_out_tickets_then_recovers() {
    let params = params();
    let model = HdModel::random(&params, 0x5E05);
    let windows = random_windows(&params, 3, 2, 0xD55);
    let expected = golden_verdicts(&model, &windows);

    let plan = FaultPlan::new().fault_at(0, FaultKind::Hang);
    let release = plan.hang_release();
    let backend = FaultBackend::new(FastBackend::try_with_threads(1).unwrap(), plan);
    let server = Server::spawn(
        &backend,
        &model,
        ServeConfig {
            max_batch: 4,
            max_delay: Duration::from_micros(100),
            queue_depth: 16,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let client = server.client();

    // The first submission lands on the hung call: its ticket must time
    // out cleanly (`Ok(None)`, consuming the ticket) instead of
    // blocking forever.
    let stuck = client.submit(windows[0].clone()).unwrap();
    assert!(
        stuck
            .wait_timeout(Duration::from_millis(100))
            .unwrap()
            .is_none(),
        "ticket resolved while the backend was hung"
    );

    // Release the hang: the wedged batch drains and fresh requests —
    // including a re-ask of the abandoned window — serve bit-identically.
    release.release();
    assert_eq!(client.classify(&windows[0]).unwrap(), expected[0]);
    assert_eq!(client.classify(&windows[1]).unwrap(), expected[1]);
    let _ = server.shutdown();
}
