//! Property-based equivalence: for *randomly drawn* chain configurations
//! (dimension, channels, N-gram size, class count, platform, seeds),
//! every execution backend must agree with every other bit for bit —
//! the simulated kernels, the scalar golden model, and the `u64`-packed
//! fast engine all produce identical query hypervectors, Hamming
//! distances, and decisions.
//!
//! This is the strongest correctness statement in the repository: the
//! cycle counts reported by the experiments are attached to computations
//! proven equal to the reference implementation across the configuration
//! space, not just at hand-picked points. Cases come from the crate's
//! own deterministic generator (no external property-testing framework
//! in the build environment); each failure is replayable from its case
//! index.

use std::num::NonZeroUsize;

use hdc::rng::Xoshiro256PlusPlus;
use hdc::Simd;
use pulp_hd_core::backend::{
    AccelBackend, ExecutionBackend, FastBackend, GoldenBackend, HdModel, TrainSpec,
    TrainableBackend, Verdict, VerdictSource,
};
use pulp_hd_core::layout::AccelParams;
use pulp_hd_core::platform::Platform;

fn platform_for(selector: u8) -> Platform {
    match selector % 6 {
        0 => Platform::pulpv3(1),
        1 => Platform::pulpv3(4),
        2 => Platform::wolf_plain(2),
        3 => Platform::wolf_builtin(1),
        4 => Platform::wolf_builtin(8),
        _ => Platform::cortex_m4(),
    }
}

/// Window lengths the encoder's vote tree depends on: both sides of
/// its groups and plane-count steps, the paper's 25-sample window, and
/// the lengths around the in-register counter's limit of 1023 inputs.
/// 1022 samples vote 1023 inputs with the tie vector and 1023 vote 1023
/// without it; only 1024 samples vote 1025 and take the streaming path.
const WINDOW_LENGTHS: [usize; 17] = [
    1, 2, 4, 5, 7, 8, 15, 16, 24, 25, 31, 32, 63, 64, 1022, 1023, 1024,
];

/// Two chain shapes per window length, one unigram and one with
/// 2–3-grams (where the length allows), over 1–8 channels. Each gets
/// `random` random windows of that length plus a tie-heavy one: its
/// first half repeats one sample and its second half another, so even
/// votes tie at exactly half in many lanes.
fn window_length_cases(
    rng: &mut Xoshiro256PlusPlus,
    random: usize,
) -> Vec<(AccelParams, Vec<Vec<Vec<u16>>>)> {
    let mut cases = Vec::new();
    for (k, &len) in WINDOW_LENGTHS.iter().enumerate() {
        for (channels, ngram) in [(1 + k % 8, 1), (1 + (k + 4) % 8, (2 + k % 2).min(len))] {
            let params = AccelParams {
                n_words: 1 + rng.next_below(12) as usize,
                channels,
                ngram,
                classes: 2 + rng.next_below(4) as usize,
                levels: 2 + rng.next_below(20) as usize,
            };
            let sample = |rng: &mut Xoshiro256PlusPlus| -> Vec<u16> {
                (0..channels)
                    .map(|_| (rng.next_u32() & 0xffff) as u16)
                    .collect()
            };
            let mut windows: Vec<Vec<Vec<u16>>> = (0..random)
                .map(|_| (0..len).map(|_| sample(rng)).collect())
                .collect();
            let (first, second) = (sample(rng), sample(rng));
            windows.push(
                (0..len)
                    .map(|t| if t < len / 2 { &first } else { &second }.clone())
                    .collect(),
            );
            cases.push((params, windows));
        }
    }
    cases
}

#[test]
#[cfg_attr(
    miri,
    ignore = "heavy cross-backend sweep; the fast backend's handoff tests cover the unsafe handoff"
)]
fn all_backends_agree_across_random_configurations() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x0E01_11A1_E5CE_57A7);
    for case in 0..24 {
        let params = AccelParams {
            n_words: 1 + rng.next_below(19) as usize,
            channels: 1 + rng.next_below(8) as usize,
            ngram: 1 + rng.next_below(5) as usize,
            classes: 2 + rng.next_below(4) as usize,
            levels: 2 + rng.next_below(28) as usize,
        };
        let platform = platform_for(rng.next_below(251) as u8);
        let model = HdModel::random(&params, rng.next_u64());

        // The simulated chain consumes exactly one N-gram per run, so
        // the shared window is `ngram` samples.
        let window: Vec<Vec<u16>> = (0..params.ngram)
            .map(|_| {
                (0..params.channels)
                    .map(|_| (rng.next_u32() & 0xffff) as u16)
                    .collect()
            })
            .collect();

        let mut accel = AccelBackend::new(platform.clone()).prepare(&model).unwrap();
        let mut golden = GoldenBackend.prepare(&model).unwrap();
        let mut fast = FastBackend::with_threads(2).prepare(&model).unwrap();

        let a = accel.classify(&window).unwrap();
        let g = golden.classify(&window).unwrap();
        let f = fast.classify(&window).unwrap();

        let ctx = format!("case {case} on {} with {params:?}", platform.name);
        assert_eq!(a.query, g.query, "{ctx}: accel query diverged from golden");
        assert_eq!(f.query, g.query, "{ctx}: fast query diverged from golden");
        assert_eq!(a.distances, g.distances, "{ctx}: accel distances");
        assert_eq!(f.distances, g.distances, "{ctx}: fast distances");
        assert_eq!(a.class, g.class, "{ctx}: accel decision");
        assert_eq!(f.class, g.class, "{ctx}: fast decision");

        // Timing sanity: only the simulated backend measures cycles,
        // and its regions are recorded and cover the run.
        assert!(g.cycles.is_none() && f.cycles.is_none(), "{ctx}");
        let cycles = a.cycles.expect("accel reports cycles");
        assert!(cycles.map_encode > 0, "{ctx}");
        assert!(cycles.am > 0, "{ctx}");
        assert!(cycles.map_encode + cycles.am <= cycles.total, "{ctx}");
    }
}

/// Host backends also agree on multi-gram sliding windows (a regime the
/// simulated chain does not cover), including through the threaded
/// batch path.
#[test]
#[cfg_attr(
    miri,
    ignore = "heavy cross-backend sweep; the fast backend's handoff tests cover the unsafe handoff"
)]
fn host_backends_agree_on_sliding_window_batches() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xBA7C_4E55);
    for case in 0..12 {
        let params = AccelParams {
            n_words: 1 + rng.next_below(24) as usize,
            channels: 1 + rng.next_below(8) as usize,
            ngram: 1 + rng.next_below(4) as usize,
            classes: 2 + rng.next_below(5) as usize,
            levels: 2 + rng.next_below(28) as usize,
        };
        let model = HdModel::random(&params, rng.next_u64());
        let samples = params.ngram + rng.next_below(5) as usize;
        let windows: Vec<Vec<Vec<u16>>> = (0..9)
            .map(|_| {
                (0..samples)
                    .map(|_| {
                        (0..params.channels)
                            .map(|_| (rng.next_u32() & 0xffff) as u16)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let mut golden = GoldenBackend.prepare(&model).unwrap();
        let mut fast = FastBackend::with_threads(4).prepare(&model).unwrap();
        let expected = golden.classify_batch(&windows).unwrap();
        let got = fast.classify_batch(&windows).unwrap();
        assert_eq!(got, expected, "case {case} with {params:?}");
    }
}

/// Training equivalence across backends **and SIMD kernel levels**: for
/// random chain shapes and labelled window streams — including
/// adversarially tie-rigged streams of repeated windows, which force
/// exact counter ties through the seeded tie-break — the golden and
/// fast trainable sessions produce bit-identical prototypes, verdicts,
/// and online adaptations, at every SIMD level the CPU runs, the
/// portable fallback included.
///
/// (`PULP_HD_FORCE_SCALAR=1` CI coverage comes on top of this: the
/// whole suite, this test included, re-runs with the portable level
/// pinned.)
#[test]
#[cfg_attr(
    miri,
    ignore = "heavy cross-backend sweep; the fast backend's handoff tests cover the unsafe handoff"
)]
fn training_agrees_across_backends_and_simd_levels() {
    for level in Simd::available() {
        Simd::set_active(level);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x7A11_ED00);
        for case in 0..8 {
            let params = AccelParams {
                n_words: 1 + rng.next_below(24) as usize,
                channels: 1 + rng.next_below(6) as usize,
                ngram: 1 + rng.next_below(3) as usize,
                classes: 2 + rng.next_below(5) as usize,
                levels: 2 + rng.next_below(20) as usize,
            };
            let spec = TrainSpec::random(&params, rng.next_u64());
            let samples = params.ngram + rng.next_below(3) as usize;
            // A small pool of distinct windows, repeated: repeats give
            // even per-component counts, i.e. exact majority ties.
            let pool: Vec<Vec<Vec<u16>>> = (0..4)
                .map(|_| {
                    (0..samples)
                        .map(|_| {
                            (0..params.channels)
                                .map(|_| (rng.next_u32() & 0xffff) as u16)
                                .collect()
                        })
                        .collect()
                })
                .collect();
            let count = 24 + rng.next_below(17) as usize;
            let windows: Vec<Vec<Vec<u16>>> = (0..count)
                .map(|_| pool[rng.next_below(4) as usize].clone())
                .collect();
            let labels: Vec<usize> = (0..count)
                .map(|_| rng.next_below(params.classes as u32) as usize)
                .collect();

            let mut golden = GoldenBackend.begin_training(&spec).unwrap();
            let mut fast = FastBackend::with_threads(4).begin_training(&spec).unwrap();
            golden.train_batch(&windows, &labels).unwrap();
            fast.train_batch(&windows, &labels).unwrap();
            let g_model = golden.finalize().unwrap();
            let f_model = fast.finalize().unwrap();
            let ctx = format!("{level:?} case {case} with {params:?}");
            assert_eq!(
                f_model.prototypes(),
                g_model.prototypes(),
                "{ctx}: trained prototypes diverged"
            );

            // A stream of online updates keeps the two in lock-step.
            for (i, (w, &l)) in windows.iter().zip(&labels).take(6).enumerate() {
                let g = golden.update_online(w, l).unwrap();
                let f = fast.update_online(w, l).unwrap();
                assert_eq!(f, g, "{ctx}: online update {i}");
            }
            assert_eq!(
                fast.finalize().unwrap().prototypes(),
                golden.finalize().unwrap().prototypes(),
                "{ctx}: prototypes after online updates"
            );

            // The trained models also *serve* identically.
            let mut g_serve = golden.into_serving().unwrap();
            let mut f_serve = fast.into_serving().unwrap();
            assert_eq!(
                f_serve.classify_batch(&pool).unwrap(),
                g_serve.classify_batch(&pool).unwrap(),
                "{ctx}: served verdicts diverged"
            );
        }
        // Every window length the vote tree depends on, with a
        // tie-heavy window in each training batch.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x7A11_1E26);
        for (case, (params, windows)) in window_length_cases(&mut rng, 3).into_iter().enumerate() {
            let spec = TrainSpec::random(&params, rng.next_u64());
            let labels: Vec<usize> = (0..windows.len()).map(|i| i % params.classes).collect();
            let mut golden = GoldenBackend.begin_training(&spec).unwrap();
            let mut fast = FastBackend::with_threads(2).begin_training(&spec).unwrap();
            golden.train_batch(&windows, &labels).unwrap();
            fast.train_batch(&windows, &labels).unwrap();
            let ctx = format!(
                "{level:?} window-length case {case}: {} samples, {params:?}",
                windows[0].len()
            );
            assert_eq!(
                fast.finalize().unwrap().prototypes(),
                golden.finalize().unwrap().prototypes(),
                "{ctx}: trained prototypes diverged"
            );
            let (w, l) = (windows.last().unwrap(), labels[0]);
            assert_eq!(
                fast.update_online(w, l).unwrap(),
                golden.update_online(w, l).unwrap(),
                "{ctx}: online update"
            );
            assert_eq!(
                fast.into_serving()
                    .unwrap()
                    .classify_batch(&windows)
                    .unwrap(),
                golden
                    .into_serving()
                    .unwrap()
                    .classify_batch(&windows)
                    .unwrap(),
                "{ctx}: served verdicts diverged"
            );
        }
    }
    Simd::set_active(Simd::detect());
}

/// The query cache is exact: a cached session fed a stream with
/// repeats matches golden in class, distances and query, through
/// `classify` and through `classify_batch` (whose pool workers hold
/// caches of their own), at every SIMD level — and answers some of the
/// stream from its cache. Only `source` tells a replay from a scan.
/// One-class models are drawn too.
#[test]
#[cfg_attr(
    miri,
    ignore = "heavy cross-backend sweep; the fast backend's handoff tests cover the unsafe handoff"
)]
fn cached_fast_backend_matches_golden_under_every_level() {
    let backend = FastBackend::with_threads(2).with_cache(NonZeroUsize::new(4).unwrap());
    for level in Simd::available() {
        Simd::set_active(level);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xCAC4_E5EE);
        for case in 0..8 {
            let params = AccelParams {
                n_words: 1 + rng.next_below(24) as usize,
                channels: 1 + rng.next_below(8) as usize,
                ngram: 1 + rng.next_below(4) as usize,
                classes: 1 + rng.next_below(8) as usize,
                levels: 2 + rng.next_below(28) as usize,
            };
            let model = HdModel::random(&params, rng.next_u64());
            let samples = params.ngram + rng.next_below(5) as usize;
            let pool: Vec<Vec<Vec<u16>>> = (0..6)
                .map(|_| {
                    (0..samples)
                        .map(|_| {
                            (0..params.channels)
                                .map(|_| (rng.next_u32() & 0xffff) as u16)
                                .collect()
                        })
                        .collect()
                })
                .collect();
            // 48 draws from a 6-window pool: the stream repeats itself,
            // and 6 pool windows overflow the 4-entry caches.
            let stream: Vec<Vec<Vec<u16>>> = (0..48)
                .map(|_| pool[rng.next_below(6) as usize].clone())
                .collect();
            let expected = GoldenBackend
                .prepare(&model)
                .unwrap()
                .classify_batch(&stream)
                .unwrap();
            let mut single = backend.prepare(&model).unwrap();
            let one: Vec<Verdict> = stream.iter().map(|w| single.classify(w).unwrap()).collect();
            let mut batched = backend.prepare(&model).unwrap();
            let batch = batched.classify_batch(&stream).unwrap();
            for (path, got, session) in [
                ("classify", one, single),
                ("classify_batch", batch, batched),
            ] {
                let ctx = format!("{level:?} case {case} {path} with {params:?}");
                for (i, (v, g)) in got.iter().zip(&expected).enumerate() {
                    assert_eq!(v.class, g.class, "{ctx} window {i}: class");
                    assert_eq!(v.distances, g.distances, "{ctx} window {i}: distances");
                    assert_eq!(v.query, g.query, "{ctx} window {i}: query");
                }
                let hits = got
                    .iter()
                    .filter(|v| v.source == VerdictSource::CacheHit)
                    .count() as u64;
                assert!(
                    hits > 0,
                    "{ctx}: the stream repeats, so some window must hit"
                );
                let monitor = session.cache_monitor().unwrap();
                assert_eq!(monitor.hits(), hits, "{ctx}");
                assert_eq!(monitor.hits() + monitor.misses(), 48, "{ctx}");
            }
        }
    }
    Simd::set_active(Simd::detect());
}

/// The default fast session is exact: it stays bit-identical to the
/// golden backend — every distance, the query, the class, and the
/// `Scan` verdict source — through both `classify` and
/// `classify_batch`, across random chain shapes and every SIMD level.
#[test]
#[cfg_attr(
    miri,
    ignore = "heavy cross-backend sweep; the fast backend's handoff tests cover the unsafe handoff"
)]
fn exact_policy_stays_bit_identical_to_golden_across_simd_levels() {
    for level in Simd::available() {
        Simd::set_active(level);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xE8AC_7F1D);
        for case in 0..10 {
            let params = AccelParams {
                n_words: 1 + rng.next_below(24) as usize,
                channels: 1 + rng.next_below(8) as usize,
                ngram: 1 + rng.next_below(4) as usize,
                classes: 2 + rng.next_below(6) as usize,
                levels: 2 + rng.next_below(28) as usize,
            };
            let model = HdModel::random(&params, rng.next_u64());
            let samples = params.ngram + rng.next_below(5) as usize;
            let windows: Vec<Vec<Vec<u16>>> = (0..9)
                .map(|_| {
                    (0..samples)
                        .map(|_| {
                            (0..params.channels)
                                .map(|_| (rng.next_u32() & 0xffff) as u16)
                                .collect()
                        })
                        .collect()
                })
                .collect();
            let mut golden = GoldenBackend.prepare(&model).unwrap();
            let expected = golden.classify_batch(&windows).unwrap();
            let mut session = FastBackend::with_threads(2).prepare(&model).unwrap();
            let got = session.classify_batch(&windows).unwrap();
            assert_eq!(got, expected, "{level:?} case {case} with {params:?}");
            for (i, w) in windows.iter().enumerate() {
                let one = session.classify(w).unwrap();
                assert_eq!(
                    one, expected[i],
                    "{level:?} case {case} window {i} (single-window path)"
                );
                assert_eq!(one.source, VerdictSource::Scan);
            }
        }
        // Every window length the vote tree depends on, tie-heavy
        // windows included, through both the batch and the
        // single-window path.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xE8AC_1E26);
        for (case, (params, windows)) in window_length_cases(&mut rng, 2).into_iter().enumerate() {
            let model = HdModel::random(&params, rng.next_u64());
            let expected = GoldenBackend
                .prepare(&model)
                .unwrap()
                .classify_batch(&windows)
                .unwrap();
            let mut session = FastBackend::with_threads(2).prepare(&model).unwrap();
            let ctx = format!(
                "{level:?} window-length case {case}: {} samples, {params:?}",
                windows[0].len()
            );
            assert_eq!(session.classify_batch(&windows).unwrap(), expected, "{ctx}");
            for (i, w) in windows.iter().enumerate() {
                assert_eq!(
                    session.classify(w).unwrap(),
                    expected[i],
                    "{ctx} window {i}"
                );
            }
        }
    }
    Simd::set_active(Simd::detect());
}

/// The default session also holds bit-identity through the serving
/// hand-off: a trained fast session deployed with `into_serving` keeps
/// agreeing with golden.
#[test]
#[cfg_attr(
    miri,
    ignore = "heavy cross-backend sweep; the fast backend's handoff tests cover the unsafe handoff"
)]
fn exact_policy_survives_the_training_handoff() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x5E_4DE);
    for case in 0..6 {
        let params = AccelParams {
            n_words: 1 + rng.next_below(20) as usize,
            channels: 1 + rng.next_below(6) as usize,
            ngram: 1 + rng.next_below(3) as usize,
            classes: 2 + rng.next_below(5) as usize,
            levels: 2 + rng.next_below(20) as usize,
        };
        let spec = TrainSpec::random(&params, rng.next_u64());
        let samples = params.ngram + rng.next_below(3) as usize;
        let windows: Vec<Vec<Vec<u16>>> = (0..18)
            .map(|_| {
                (0..samples)
                    .map(|_| {
                        (0..params.channels)
                            .map(|_| (rng.next_u32() & 0xffff) as u16)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let labels: Vec<usize> = (0..18)
            .map(|_| rng.next_below(params.classes as u32) as usize)
            .collect();
        let mut golden = GoldenBackend.begin_training(&spec).unwrap();
        let mut fast = FastBackend::with_threads(2).begin_training(&spec).unwrap();
        golden.train_batch(&windows, &labels).unwrap();
        fast.train_batch(&windows, &labels).unwrap();
        let mut g_serve = golden.into_serving().unwrap();
        let mut f_serve = fast.into_serving().unwrap();
        assert_eq!(
            f_serve.classify_batch(&windows).unwrap(),
            g_serve.classify_batch(&windows).unwrap(),
            "case {case} with {params:?}"
        );
    }
}
