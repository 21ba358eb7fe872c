//! The accuracy contract of the approximate-inference ladder.
//!
//! The exact engine is pinned to the golden model bit for bit
//! (`prop_equivalence.rs`); the approximate rungs deliberately give that
//! up, so *this* harness is their correctness contract instead:
//! on realistic workloads — a clustered EMG-style gesture task and a
//! letter-trigram language-identification task — every rung of
//! [`ApproxPolicy`] must stay within **one percentage point** of the
//! exact configuration's classification accuracy, at every SIMD
//! kernel level the CPU runs. The query cache must in fact match exact
//! accuracy *exactly* (its signature is only a filter; hits replay
//! verdicts verified by a full word-for-word query compare), so only
//! the threshold rung ever spends the budget.
//!
//! The dimension auto-tuner rides the same contract: the model it emits
//! must really deliver the holdout accuracy it reports, and honoring a
//! floor means never returning a width below it.

use hdc::item_memory::quantize_code;
use hdc::rng::Xoshiro256PlusPlus;
use hdc::{ContinuousItemMemory, ItemMemory, Simd};
use pulp_hd_core::backend::{
    ApproxPolicy, ExecutionBackend, FastBackend, HdModel, TrainSpec, TrainableBackend,
};
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

/// The ladder under test: exact, each rung alone, and both combined.
///
/// `tau` is workload-specific — a deployment picks it below the
/// observed cross-class distance band, exactly as these tests do
/// (multi-channel EMG encodings correlate across classes, so its band
/// sits far below the ~0.5 of orthogonal one-channel trigram profiles).
fn ladder(tau: f32) -> [ApproxPolicy; 4] {
    [
        ApproxPolicy::Exact,
        ApproxPolicy::Threshold { tau },
        ApproxPolicy::Cached { capacity: 64 },
        ApproxPolicy::CachedThreshold { tau, capacity: 64 },
    ]
}

// ---------------------------------------------------------------------
// EMG-style workload: clustered multi-channel gesture windows.
// ---------------------------------------------------------------------

/// Clustered windows: per-class base patterns shared across splits
/// (from `base_seed`), examples jittered around them (from
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

/// A serving stream with temporal locality: holdout windows revisited
/// in repeated bursts, the regime the query cache exists for.
fn repeated_stream(
    windows: &[Vec<Vec<u16>>],
    labels: &[usize],
    total: usize,
    seed: u64,
) -> (Vec<Vec<Vec<u16>>>, Vec<usize>) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let mut stream_w = Vec::with_capacity(total);
    let mut stream_l = Vec::with_capacity(total);
    while stream_w.len() < total {
        let pick = rng.next_below(windows.len() as u32) as usize;
        for _ in 0..3 {
            if stream_w.len() == total {
                break;
            }
            stream_w.push(windows[pick].clone());
            stream_l.push(labels[pick]);
        }
    }
    (stream_w, stream_l)
}

#[test]
#[cfg_attr(miri, ignore = "heavy statistical sweep")]
fn approx_rungs_stay_within_one_point_of_exact_on_emg() {
    let params = AccelParams {
        n_words: 128,
        ..AccelParams::emg_default()
    };
    let (train_w, train_l) = emg_split(&params, 8, 0xE46, 0x11);
    let (hold_w, hold_l) = emg_split(&params, 24, 0xE46, 0x22);
    let (stream_w, stream_l) = repeated_stream(&hold_w, &hold_l, 360, 0x33);

    let spec = TrainSpec::random(&params, 0xD0C);
    let mut trainer = FastBackend::with_threads(2).begin_training(&spec).unwrap();
    trainer.train_batch(&train_w, &train_l).unwrap();
    let model = trainer.finalize().unwrap();

    for level in Simd::available() {
        Simd::set_active(level);
        let exact = accuracy(&FastBackend::with_threads(2), &model, &stream_w, &stream_l);
        assert!(exact > 0.7, "{level:?}: workload degenerate ({exact})");
        for policy in ladder(0.05) {
            let got = accuracy(
                &FastBackend::with_threads(2).with_approx(policy),
                &model,
                &stream_w,
                &stream_l,
            );
            assert!(
                (got - exact).abs() <= 0.01 + 1e-9,
                "{level:?} {policy:?}: accuracy {got:.4} vs exact {exact:.4}"
            );
            // The cache alone is exact by construction — not "within a
            // point" but equal.
            if policy == (ApproxPolicy::Cached { capacity: 64 }) {
                assert_eq!(got, exact, "{level:?}: caching changed accuracy");
            }
        }

        // The threshold rung genuinely fires on this workload (the 1pp
        // bound above is not vacuous): single-window classification
        // reports `EarlyAccept` sources.
        let mut thresholded = FastBackend::with_threads(1)
            .with_approx(ApproxPolicy::Threshold { tau: 0.05 })
            .prepare(&model)
            .unwrap();
        let early = stream_w
            .iter()
            .filter(|w| {
                thresholded.classify(w).unwrap().source
                    == pulp_hd_core::backend::VerdictSource::EarlyAccept
            })
            .count();
        assert!(
            early * 2 > stream_w.len(),
            "{level:?}: early accept fired on only {early}/{} windows",
            stream_w.len()
        );
    }
    Simd::set_active(Simd::detect());
}

// ---------------------------------------------------------------------
// Language identification: letter trigrams over one text channel
// (the recipe of `examples/language_id.rs`).
// ---------------------------------------------------------------------

const ALPHABET: &str = "abcdefghijklmnopqrstuvwxyz ";
const LID_WORDS: usize = 128;
const NGRAM: usize = 3;

const LID_TRAIN: [&str; 3] = [
    "the ships hung in the sky in much the same way that bricks do not \
     and far out in the uncharted backwaters of the western spiral arm \
     lies a small unregarded yellow sun which has a planet whose ape \
     descended life forms are so amazingly primitive that they still \
     think digital watches are a pretty neat idea the story so far in \
     the beginning the universe was created this has made a lot of \
     people very angry and been widely regarded as a bad move",
    "es gibt eine theorie die besagt wenn jemals irgendwer genau \
     herausfindet wozu das universum da ist und warum es da ist dann \
     verschwindet es auf der stelle und wird durch noch etwas \
     bizarreres und unbegreiflicheres ersetzt es gibt eine andere \
     theorie nach der das schon passiert ist weit draussen in den \
     unerforschten einoeden eines total aus der mode gekommenen \
     auslaeufers des westlichen spiralarms der galaxis leuchtet eine \
     kleine unbeachtete gelbe sonne",
    "vi e una teoria secondo la quale se mai qualcuno scoprisse \
     esattamente a cosa serve l universo e perche esiste questo \
     scomparirebbe immediatamente e verrebbe sostituito da qualcosa di \
     ancora piu bizzarro e inspiegabile vi e un altra teoria secondo la \
     quale questo e gia avvenuto lontano nei dimenticati territori \
     inesplorati del braccio occidentale della galassia brilla un \
     piccolo e trascurato sole giallo",
];

const LID_TEST: [&str; 3] = [
    "it is an important and popular fact that things are not always \
     what they seem for instance on the planet earth man had always \
     assumed that he was more intelligent than dolphins because he had \
     achieved so much the wheel new york wars and so on whilst all the \
     dolphins had ever done was muck about in the water having a good \
     time but conversely the dolphins had always believed that they \
     were far more intelligent than man for precisely the same reasons",
    "weit draussen in der galaxis gibt es viele welten auf denen die \
     menschen niemals gewesen sind und die wahrheit ist da draussen \
     sagte er waehrend der regen gegen die fenster schlug und die \
     maschinen leise summten niemand wusste woher die besucher kamen \
     oder was sie wollten aber alle waren sich einig dass etwas \
     geschehen musste bevor es zu spaet war die zeit verging und \
     nichts aenderte sich an der lage der dinge",
    "molto lontano nella galassia ci sono molti mondi sui quali gli \
     uomini non sono mai stati e la verita e la fuori disse mentre la \
     pioggia batteva contro le finestre e le macchine ronzavano piano \
     nessuno sapeva da dove venissero i visitatori o che cosa \
     volessero ma tutti erano d accordo che qualcosa doveva accadere \
     prima che fosse troppo tardi il tempo passava e nulla cambiava \
     nella situazione delle cose",
];

fn letter_code(index: usize) -> u16 {
    let levels = ALPHABET.len() as u32;
    let code = (((index as u32) << 16) / (levels - 1)).min(u32::from(u16::MAX)) as u16;
    debug_assert_eq!(quantize_code(code, ALPHABET.len()), index);
    code
}

/// A text as a one-channel backend window, one sample per letter.
fn window_of(text: &str) -> Vec<Vec<u16>> {
    text.chars()
        .filter(|c| ALPHABET.contains(*c))
        .map(|c| vec![letter_code(ALPHABET.find(c).unwrap())])
        .collect()
}

/// Held-out texts sliced into overlapping chunks: many short
/// classification windows per language instead of three long ones.
fn lid_chunks(chunk: usize, step: usize) -> (Vec<Vec<Vec<u16>>>, Vec<usize>) {
    let mut windows = Vec::new();
    let mut labels = Vec::new();
    for (label, text) in LID_TEST.iter().enumerate() {
        let letters: Vec<char> = text.chars().filter(|c| ALPHABET.contains(*c)).collect();
        let mut start = 0;
        while start + chunk <= letters.len() {
            let slice: String = letters[start..start + chunk].iter().collect();
            windows.push(window_of(&slice));
            labels.push(label);
            start += step;
        }
    }
    (windows, labels)
}

#[test]
#[cfg_attr(miri, ignore = "heavy statistical sweep")]
fn approx_rungs_stay_within_one_point_of_exact_on_language_id() {
    let letters = ItemMemory::new(ALPHABET.len(), LID_WORDS, 0xBABE);
    let cim = ContinuousItemMemory::from_levels(letters.iter().cloned().collect());
    let im = ItemMemory::new(1, LID_WORDS, 0x1A06);
    let spec = TrainSpec::new(cim, im, NGRAM, LID_TRAIN.len(), 0x7E57).unwrap();

    let mut trainer = FastBackend::with_threads(2).begin_training(&spec).unwrap();
    for (label, text) in LID_TRAIN.iter().enumerate() {
        trainer.train(&window_of(text), label).unwrap();
    }
    let model = trainer.finalize().unwrap();

    let (chunk_w, chunk_l) = lid_chunks(48, 7);
    assert!(
        chunk_w.len() >= 100,
        "need enough chunks for 1pp resolution"
    );
    let (stream_w, stream_l) = repeated_stream(&chunk_w, &chunk_l, 300, 0x44);

    for level in Simd::available() {
        Simd::set_active(level);
        let exact = accuracy(&FastBackend::with_threads(2), &model, &stream_w, &stream_l);
        assert!(exact > 0.7, "{level:?}: workload degenerate ({exact})");
        for policy in ladder(0.35) {
            let got = accuracy(
                &FastBackend::with_threads(2).with_approx(policy),
                &model,
                &stream_w,
                &stream_l,
            );
            assert!(
                (got - exact).abs() <= 0.01 + 1e-9,
                "{level:?} {policy:?}: accuracy {got:.4} vs exact {exact:.4}"
            );
        }
    }
    Simd::set_active(Simd::detect());
}

// ---------------------------------------------------------------------
// Dimension auto-tuner: the emitted model delivers what it reports.
// ---------------------------------------------------------------------

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

    // Changing D changes the distance geometry, so a deployment retunes
    // τ after retuning the width: measure the tuned model's cross-class
    // distance band on the holdout and set the accept radius below it.
    let tau = {
        let mut session = backend.prepare(&outcome.model).unwrap();
        let verdicts = session.classify_batch(&hold_w).unwrap();
        let min_cross = verdicts
            .iter()
            .zip(&hold_l)
            .flat_map(|(v, &l)| {
                v.distances
                    .iter()
                    .enumerate()
                    .filter(move |&(k, _)| k != l)
                    .map(|(_, &d)| d)
            })
            .min()
            .unwrap();
        let bits = (outcome.n_words * 32) as f32;
        #[allow(clippy::cast_precision_loss)]
        let tau = 0.8 * min_cross as f32 / bits;
        assert!(tau > 0.0, "degenerate tuned geometry");
        tau
    };

    // And the approximate rungs hold their 1pp contract on the tuned
    // (smaller) model too.
    for policy in ladder(tau) {
        let got = accuracy(
            &backend.with_approx(policy),
            &outcome.model,
            &hold_w,
            &hold_l,
        );
        assert!(
            (got - served).abs() <= 0.01 + 1e-9,
            "{policy:?} on tuned model: {got:.4} vs exact {served:.4}"
        );
    }
}

/// Not a test — an ignored diagnostic that prints the own- vs
/// cross-class normalized distance bands of the EMG workload, which is
/// how the τ values above were chosen
/// (`cargo test -p pulp-hd-core --test approx_accuracy -- --ignored --nocapture`).
#[test]
#[cfg_attr(miri, ignore = "heavy statistical sweep")]
#[ignore = "diagnostic: prints the distance bands behind the tau choices"]
fn report_distance_geometry() {
    let params = AccelParams {
        n_words: 128,
        ..AccelParams::emg_default()
    };
    let (train_w, train_l) = emg_split(&params, 8, 0xE46, 0x11);
    let (hold_w, hold_l) = emg_split(&params, 24, 0xE46, 0x22);
    let spec = TrainSpec::random(&params, 0xD0C);
    let mut trainer = FastBackend::with_threads(2).begin_training(&spec).unwrap();
    trainer.train_batch(&train_w, &train_l).unwrap();
    let model = trainer.finalize().unwrap();
    let mut session = FastBackend::with_threads(2).prepare(&model).unwrap();
    let verdicts = session.classify_batch(&hold_w).unwrap();
    let bits = (params.n_words * 32) as f64;
    let mut own = Vec::new();
    let mut cross = Vec::new();
    for (v, &l) in verdicts.iter().zip(&hold_l) {
        for (k, &d) in v.distances.iter().enumerate() {
            if k == l {
                own.push(d as f64 / bits);
            } else {
                cross.push(d as f64 / bits);
            }
        }
    }
    own.sort_by(|a, b| a.partial_cmp(b).unwrap());
    cross.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!(
        "own: min {:.3} med {:.3} max {:.3}",
        own[0],
        own[own.len() / 2],
        own[own.len() - 1]
    );
    println!(
        "cross: min {:.3} med {:.3} max {:.3}",
        cross[0],
        cross[cross.len() / 2],
        cross[cross.len() - 1]
    );
}
