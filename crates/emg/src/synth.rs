//! Synthetic surface-EMG generation.
//!
//! Stands in for the recorded 5-subject dataset of Rahimi et al. (2016)
//! that the paper evaluates on. The generative model keeps the
//! properties the classifiers actually exploit:
//!
//! * each gesture is a distinct *spatial pattern* of muscle activation
//!   across the forearm channels (what the spatial encoder keys on),
//! * gestures have onset/hold/release *temporal structure* (what the
//!   temporal encoder keys on),
//! * subjects differ systematically (electrode placement, physiology),
//!   trials differ randomly (effort level, tremor), and the raw signal is
//!   an amplitude-modulated stochastic carrier corrupted by 50 Hz mains
//!   interference and sensor noise — so the task is noisy enough that
//!   accuracy lives in the paper's 85–95 % regime rather than saturating.
//!
//! All randomness is derived from explicit seeds; the same
//! `(config, subject, trial)` triple always produces the same signal.

use hdc::rng::{derive_seed, Xoshiro256PlusPlus};

/// Names of the five classes (four gestures plus rest), in label order.
pub const GESTURE_NAMES: [&str; 5] = [
    "rest",
    "closed hand",
    "open hand",
    "2-finger pinch",
    "point index",
];

/// Parameters of the synthetic EMG task.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Number of electrode channels.
    pub channels: usize,
    /// Sampling rate in Hz.
    pub fs_hz: f64,
    /// Length of one gesture trial in seconds.
    pub trial_secs: f64,
    /// Repetitions of each gesture per subject.
    pub reps: usize,
    /// Number of classes (including rest). Up to 5 use the calibrated
    /// hand-gesture patterns; more are generated procedurally.
    pub classes: usize,
    /// Std-dev of the per-subject perturbation of activation patterns.
    pub subject_sigma: f64,
    /// Std-dev of the per-trial overall effort scaling.
    pub trial_jitter: f64,
    /// Std-dev of the per-trial, per-channel activation-pattern
    /// perturbation (electrode shift, posture, fatigue) — the main
    /// driver of realistic confusability between gestures.
    pub trial_pattern_sigma: f64,
    /// RMS of additive wide-band sensor noise, in millivolts.
    pub sensor_noise_mv: f64,
    /// Amplitude of 50 Hz mains interference, in millivolts.
    pub interference_mv: f64,
    /// Per-sample, per-channel probability that an electrode lift-off
    /// burst *starts* (the channel flatlines for a few samples).
    /// Majority bundling over the classification window absorbs short
    /// bursts; mean-envelope features do not — the robustness mechanism
    /// behind the paper's HD-vs-SVM gap.
    pub artifact_prob: f64,
    /// Envelope at maximum voluntary contraction, in millivolts (the
    /// paper's CIM spans 0–21 mV).
    pub max_mvc_mv: f64,
}

impl SynthConfig {
    /// The paper's EMG setup: 4 channels at 500 Hz, 3 s trials, 10
    /// repetitions, 5 classes.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            channels: 4,
            fs_hz: 500.0,
            trial_secs: 3.0,
            reps: 10,
            classes: 5,
            subject_sigma: 0.06,
            trial_jitter: 0.12,
            trial_pattern_sigma: 0.095,
            sensor_noise_mv: 1.0,
            interference_mv: 1.2,
            artifact_prob: 0.006,
            max_mvc_mv: 21.0,
        }
    }

    /// Same task with a different channel count (Fig. 5 scalability
    /// sweep).
    #[must_use]
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.channels = channels;
        self
    }

    /// Samples per trial.
    #[must_use]
    pub fn samples_per_trial(&self) -> usize {
        (self.fs_hz * self.trial_secs).round() as usize
    }
}

/// Baseline activation of a resting muscle (fraction of MVC).
const REST_LEVEL: f64 = 0.04;

/// Calibrated activation patterns (fraction of MVC) of the four hand
/// gestures over the four forearm electrodes, label order matching
/// [`GESTURE_NAMES`] (index 0 = rest).
const BASE_PATTERNS: [[f64; 4]; 5] = [
    [REST_LEVEL, REST_LEVEL, REST_LEVEL, REST_LEVEL],
    [0.88, 0.62, 0.30, 0.18], // closed hand: flexors dominant
    [0.22, 0.80, 0.68, 0.28], // open hand: extensors dominant
    [0.55, 0.28, 0.78, 0.52], // 2-finger pinch
    [0.20, 0.42, 0.30, 0.85], // point index
];

/// Per-subject gesture activation model.
///
/// # Examples
///
/// ```
/// use emg::{GestureModel, SynthConfig};
///
/// let cfg = SynthConfig::paper();
/// let s0 = GestureModel::for_subject(&cfg, 0, 42);
/// let s1 = GestureModel::for_subject(&cfg, 1, 42);
/// // Subjects share gesture structure but differ in detail.
/// assert_ne!(s0.pattern(1), s1.pattern(1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GestureModel {
    patterns: Vec<Vec<f64>>,
    channels: usize,
}

impl GestureModel {
    /// Builds the activation patterns of one subject.
    ///
    /// Subject identity perturbs the calibrated patterns (electrode
    /// placement, physiology); channel counts beyond the four calibrated
    /// electrodes get procedurally generated, gesture-specific patterns
    /// so the Fig. 5 sweep stays a meaningful classification task.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero channels or classes.
    #[must_use]
    pub fn for_subject(cfg: &SynthConfig, subject: usize, master_seed: u64) -> Self {
        assert!(cfg.channels > 0, "need at least one channel");
        assert!(cfg.classes >= 2, "need at least two classes");
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(derive_seed(
            master_seed,
            0x5EED_0000 + subject as u64,
        ));
        let mut patterns = Vec::with_capacity(cfg.classes);
        // Indexed loops: `g`/`c` select between the calibrated
        // BASE_PATTERNS table and the procedural fallback, so iterator
        // chaining would obscure the bounds conditions.
        #[allow(clippy::needless_range_loop)]
        for g in 0..cfg.classes {
            let mut p = Vec::with_capacity(cfg.channels);
            for c in 0..cfg.channels {
                let base = if g < BASE_PATTERNS.len() && c < 4 {
                    BASE_PATTERNS[g][c]
                } else if g == 0 {
                    REST_LEVEL
                } else {
                    // Procedural pattern: deterministic per (gesture,
                    // channel) but independent of subject, so all
                    // subjects share gesture structure.
                    let mut g_rng = Xoshiro256PlusPlus::seed_from_u64(derive_seed(
                        master_seed,
                        (0xBA5E_0000 + g as u64) << 16 | c as u64,
                    ));
                    0.15 + 0.75 * g_rng.next_f64()
                };
                let perturbed = base + cfg.subject_sigma * rng.next_normal();
                p.push(perturbed.clamp(0.02, 1.0));
            }
            patterns.push(p);
        }
        Self {
            patterns,
            channels: cfg.channels,
        }
    }

    /// The activation pattern (fraction of MVC per channel) of `gesture`.
    ///
    /// # Panics
    ///
    /// Panics if `gesture` is out of range.
    #[must_use]
    pub fn pattern(&self, gesture: usize) -> &[f64] {
        &self.patterns[gesture]
    }

    /// Number of gestures (classes).
    #[must_use]
    pub fn classes(&self) -> usize {
        self.patterns.len()
    }

    /// Number of channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }
}

/// Trapezoidal activation profile of a gesture trial: ramp up after a
/// rest lead-in, hold, ramp down to rest at the end.
///
/// Returns the activation fraction in `[0, 1]` at sample `i` of `n`.
#[must_use]
fn activation_profile(i: usize, n: usize, fs_hz: f64) -> f64 {
    let ramp = (0.25 * fs_hz) as usize; // 250 ms ramps
    let lead = (0.20 * fs_hz) as usize; // 200 ms rest lead-in
    let release = n - n / 10; // last 10% ramps down
    if i < lead {
        0.0
    } else if i < lead + ramp {
        (i - lead) as f64 / ramp as f64
    } else if i < release {
        1.0
    } else if i < release + ramp {
        1.0 - (i - release) as f64 / ramp as f64
    } else {
        0.0
    }
}

/// Synthesizes the raw (pre-filtering) EMG of one trial.
///
/// Returns `samples × channels` values in millivolts.
///
/// # Panics
///
/// Panics if `gesture` is out of range for the model.
///
/// # Examples
///
/// ```
/// use emg::{synthesize_trial, GestureModel, SynthConfig};
///
/// let cfg = SynthConfig::paper();
/// let model = GestureModel::for_subject(&cfg, 0, 7);
/// let raw = synthesize_trial(&cfg, &model, 1, 3);
/// assert_eq!(raw.len(), cfg.samples_per_trial());
/// assert_eq!(raw[0].len(), 4);
/// ```
#[must_use]
pub fn synthesize_trial(
    cfg: &SynthConfig,
    model: &GestureModel,
    gesture: usize,
    trial_seed: u64,
) -> Vec<Vec<f64>> {
    assert!(gesture < model.classes(), "gesture {gesture} out of range");
    let n = cfg.samples_per_trial();
    let mut rng =
        Xoshiro256PlusPlus::seed_from_u64(derive_seed(trial_seed, 0x7124_0000 + gesture as u64));
    // Per-trial effort scaling and tremor phase.
    let effort = (1.0 + cfg.trial_jitter * rng.next_normal()).clamp(0.6, 1.4);
    let tremor_hz = 1.1 + 0.8 * rng.next_f64();
    let tremor_phase = rng.next_f64() * core::f64::consts::TAU;
    let mains_phase = rng.next_f64() * core::f64::consts::TAU;

    // Mean |N(0,σ)| = σ·√(2/π): scale the carrier so the *envelope*
    // lands at pattern × MVC.
    let env_to_sigma = (core::f64::consts::PI / 2.0).sqrt();

    // Per-trial pattern perturbation: the same gesture never activates
    // the muscles identically twice.
    let pattern: Vec<f64> = model
        .pattern(gesture)
        .iter()
        .map(|&p| (p + cfg.trial_pattern_sigma * rng.next_normal()).clamp(0.02, 1.2))
        .collect();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let t = i as f64 / cfg.fs_hz;
        let a = activation_profile(i, n, cfg.fs_hz);
        let tremor = 1.0 + 0.10 * (core::f64::consts::TAU * tremor_hz * t + tremor_phase).sin();
        let mains = cfg.interference_mv * (core::f64::consts::TAU * 50.0 * t + mains_phase).sin();
        let mut sample = Vec::with_capacity(cfg.channels);
        for &p in pattern.iter() {
            let env_target = (REST_LEVEL + (p - REST_LEVEL) * a) * cfg.max_mvc_mv * effort * tremor;
            let sigma = env_target.max(0.0) * env_to_sigma;
            let carrier = sigma * rng.next_normal();
            let noise = cfg.sensor_noise_mv * rng.next_normal();
            sample.push(carrier + mains + noise);
        }
        out.push(sample);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_shape_and_determinism() {
        let cfg = SynthConfig::paper();
        let model = GestureModel::for_subject(&cfg, 0, 1);
        let a = synthesize_trial(&cfg, &model, 2, 5);
        let b = synthesize_trial(&cfg, &model, 2, 5);
        let c = synthesize_trial(&cfg, &model, 2, 6);
        assert_eq!(a.len(), 1500);
        assert_eq!(a, b, "same seed, same trial");
        assert_ne!(a, c, "different trial seeds differ");
    }

    #[test]
    fn gestures_have_distinct_patterns() {
        let cfg = SynthConfig::paper();
        let model = GestureModel::for_subject(&cfg, 0, 1);
        for g in 1..5 {
            for h in (g + 1)..5 {
                let d: f64 = model
                    .pattern(g)
                    .iter()
                    .zip(model.pattern(h))
                    .map(|(a, b)| (a - b).abs())
                    .sum();
                assert!(d > 0.4, "gestures {g},{h} too similar: {d}");
            }
        }
    }

    #[test]
    fn rest_is_low_everywhere() {
        let cfg = SynthConfig::paper();
        let model = GestureModel::for_subject(&cfg, 3, 1);
        assert!(model.pattern(0).iter().all(|&p| p < 0.25));
    }

    #[test]
    fn active_gesture_amplitude_exceeds_rest() {
        let cfg = SynthConfig::paper();
        let model = GestureModel::for_subject(&cfg, 0, 1);
        let fist = synthesize_trial(&cfg, &model, 1, 0);
        let rest = synthesize_trial(&cfg, &model, 0, 0);
        // Compare RMS on channel 0 during the hold phase.
        let rms = |trial: &[Vec<f64>]| {
            let hold = &trial[400..1200];
            (hold.iter().map(|s| s[0] * s[0]).sum::<f64>() / hold.len() as f64).sqrt()
        };
        assert!(
            rms(&fist) > 4.0 * rms(&rest),
            "fist {} rest {}",
            rms(&fist),
            rms(&rest)
        );
    }

    #[test]
    fn activation_profile_is_trapezoidal() {
        let fs = 500.0;
        let n = 1500;
        assert_eq!(activation_profile(0, n, fs), 0.0);
        assert_eq!(activation_profile(50, n, fs), 0.0, "lead-in rest");
        assert_eq!(activation_profile(500, n, fs), 1.0, "hold");
        assert_eq!(activation_profile(n - 1, n, fs), 0.0, "released");
        let mid_ramp = activation_profile(160, n, fs);
        assert!(mid_ramp > 0.0 && mid_ramp < 1.0);
    }

    #[test]
    fn procedural_channels_stay_distinct_across_gestures() {
        let cfg = SynthConfig::paper().with_channels(64);
        let model = GestureModel::for_subject(&cfg, 0, 1);
        assert_eq!(model.pattern(1).len(), 64);
        let d: f64 = model
            .pattern(1)
            .iter()
            .zip(model.pattern(2))
            .skip(4)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(d > 3.0, "procedural patterns must separate classes: {d}");
    }

    #[test]
    fn subjects_share_structure_but_differ() {
        let cfg = SynthConfig::paper();
        let a = GestureModel::for_subject(&cfg, 0, 9);
        let b = GestureModel::for_subject(&cfg, 1, 9);
        // Same dominant channel for "closed hand" (structure preserved)…
        let argmax = |p: &[f64]| {
            p.iter()
                .enumerate()
                .max_by(|x, y| x.1.total_cmp(y.1))
                .unwrap()
                .0
        };
        assert_eq!(argmax(a.pattern(1)), argmax(b.pattern(1)));
        // …but not identical values.
        assert_ne!(a.pattern(1), b.pattern(1));
    }
}
