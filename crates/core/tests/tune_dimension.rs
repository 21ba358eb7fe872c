//! The dimension auto-tuner's contract: the model it emits must really
//! deliver the holdout accuracy it reports when served, and honoring a
//! floor means never returning a width below it.

use hdc::rng::Xoshiro256PlusPlus;
use pulp_hd_core::backend::{ExecutionBackend, FastBackend, HdModel};
use pulp_hd_core::layout::AccelParams;
use pulp_hd_core::tune::tune_dimension;

/// Classification accuracy of `backend` on `model` over a labelled
/// stream, through the batched serving path.
fn accuracy(
    backend: &FastBackend,
    model: &HdModel,
    windows: &[Vec<Vec<u16>>],
    labels: &[usize],
) -> f64 {
    let mut session = backend.prepare(model).unwrap();
    let verdicts = session.classify_batch(windows).unwrap();
    let correct = verdicts
        .iter()
        .zip(labels)
        .filter(|(v, &l)| v.class == l)
        .count();
    correct as f64 / windows.len() as f64
}

/// Clustered EMG-style windows: per-class base patterns shared across
/// splits (from `base_seed`), examples jittered around them (from
/// `jitter_seed`).
fn emg_split(
    params: &AccelParams,
    per_class: usize,
    base_seed: u64,
    jitter_seed: u64,
) -> (Vec<Vec<Vec<u16>>>, Vec<usize>) {
    let mut base_rng = Xoshiro256PlusPlus::seed_from_u64(base_seed);
    let mut jitter_rng = Xoshiro256PlusPlus::seed_from_u64(jitter_seed);
    let samples = params.ngram + 2;
    let mut windows = Vec::new();
    let mut labels = Vec::new();
    for class in 0..params.classes {
        let base: Vec<Vec<u16>> = (0..samples)
            .map(|_| {
                (0..params.channels)
                    .map(|_| (base_rng.next_u32() & 0xffff) as u16)
                    .collect()
            })
            .collect();
        for _ in 0..per_class {
            let window: Vec<Vec<u16>> = base
                .iter()
                .map(|s| {
                    s.iter()
                        .map(|&v| {
                            v.wrapping_add((jitter_rng.next_below(2400) as u16).wrapping_sub(1200))
                        })
                        .collect()
                })
                .collect();
            windows.push(window);
            labels.push(class);
        }
    }
    (windows, labels)
}

#[test]
#[cfg_attr(miri, ignore = "heavy statistical sweep")]
fn tuned_models_meet_their_floor_when_served() {
    let params = AccelParams {
        n_words: 128,
        ..AccelParams::emg_default()
    };
    let (train_w, train_l) = emg_split(&params, 8, 0x7E4E, 0x51);
    let (hold_w, hold_l) = emg_split(&params, 12, 0x7E4E, 0x52);

    let backend = FastBackend::with_threads(2);
    let floor = 0.85;
    let outcome = tune_dimension(
        &backend,
        &params,
        0xD1A1,
        (&train_w, &train_l),
        (&hold_w, &hold_l),
        floor,
    )
    .unwrap();
    assert!(outcome.n_words < params.n_words, "{:?}", outcome.evaluated);
    assert!(outcome.accuracy >= floor);

    // Re-serving the emitted model reproduces the reported holdout
    // accuracy — the tuner measured the model it returned.
    let served = accuracy(&backend, &outcome.model, &hold_w, &hold_l);
    assert!(
        (served - outcome.accuracy).abs() < 1e-9,
        "served {served} vs reported {}",
        outcome.accuracy
    );
}
