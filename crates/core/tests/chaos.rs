//! Seeded fault-injection: the chaos suite for the backend layer.
//!
//! Every test wires a [`FaultBackend`] with a deterministic
//! [`FaultPlan`] over the [`FastBackend`] and asserts the two
//! robustness properties the backend layer promises:
//!
//! 1. an injected failure surfaces as a *typed* error on exactly the
//!    affected call — never a process abort, never a hang;
//! 2. the session keeps serving afterwards, and every verdict it
//!    produces is bit-identical to a golden session over the same
//!    model.
//!
//! Panics inside the worker pool are contained by the fast backend
//! itself (its `contained_*` unit tests pin that on every SIMD level);
//! panics on the calling thread are contained by the serving front-end
//! (`crates/serve/tests/chaos.rs`). The whole binary also runs under
//! `PULP_HD_FORCE_SCALAR=1` in CI.

use hdc::rng::Xoshiro256PlusPlus;
use pulp_hd_core::backend::fast::MIN_WINDOWS_PER_WORKER;
use pulp_hd_core::backend::{
    BackendError, ExecutionBackend, FastBackend, FaultBackend, FaultKind, FaultPlan, GoldenBackend,
    HdModel, Verdict,
};
use pulp_hd_core::layout::AccelParams;

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

/// An injected *error* (no unwind) fails exactly the one batch it was
/// scheduled on with the typed [`BackendError::Injected`] and leaves the
/// session and its worker pool untouched: the very next batch, big
/// enough to fan out, is bit-exact again.
#[test]
#[cfg_attr(miri, ignore = "fault-injection timing and OS threads")]
fn injected_error_fails_one_batch_and_spares_the_session() {
    let params = params();
    let model = HdModel::random(&params, 0xC4A2);
    let windows = random_windows(&params, 3, 4 * MIN_WINDOWS_PER_WORKER, 0xD00D);
    let expected = golden_verdicts(&model, &windows);

    let plan = FaultPlan::new().fault_at(0, FaultKind::Error);
    let chaos = FaultBackend::new(FastBackend::with_threads(2), plan);
    let mut session = chaos.prepare(&model).unwrap();

    let mut out = Vec::new();
    let err = session.classify_batch_into(&windows, &mut out).unwrap_err();
    assert!(matches!(err, BackendError::Injected { call: 0 }), "{err}");
    assert!(out.is_empty(), "a failed batch leaves the output untouched");

    for call in 1..3 {
        assert_eq!(
            session.classify_batch(&windows).unwrap(),
            expected,
            "call {call}: the batch after the fault must be bit-exact"
        );
    }
}

/// Injected latency delays a call without corrupting it — the backend
/// keeps its verdicts bit-exact (the serve layer builds deadlines on
/// top of this).
#[test]
#[cfg_attr(miri, ignore = "fault-injection timing and OS threads")]
fn injected_delay_never_changes_verdicts() {
    let params = params();
    let model = HdModel::random(&params, 0xC4A4);
    let windows = random_windows(&params, 3, 4, 0xFADE);
    let expected = golden_verdicts(&model, &windows);

    let plan = FaultPlan::new().fault_at(0, FaultKind::Delay(std::time::Duration::from_millis(5)));
    let chaos = FaultBackend::new(FastBackend::with_threads(1), plan);
    let mut session = chaos.prepare(&model).unwrap();
    assert_eq!(session.classify_batch(&windows).unwrap(), expected);
}
