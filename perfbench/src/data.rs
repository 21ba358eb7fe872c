//! Seeded inputs of every workload: the EMG dataset, the model trained
//! from it, the request pool, and the golden verdict of every pool
//! window (the verdict oracle).
//!
//! Everything here is derived from the workload seed alone; the program
//! under test only ever sees the generated windows.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use emg::{Dataset, SynthConfig};
use hdc::rng::{derive_seed, Xoshiro256PlusPlus};
use hdc::HdConfig;
use pulp_hd_core::backend::{
    BackendError, ExecutionBackend, FastBackend, GoldenBackend, HdModel, TrainSpec,
    TrainableBackend, TrainingSession, Verdict,
};

use crate::stats::median;

/// One window: `samples × channels` ADC codes.
pub type Window = Vec<Vec<u16>>;

/// Windows fed to one `train_batch` call: the labelled EMG stream
/// arrives in chunks, like a recording being replayed.
const TRAIN_CHUNK: usize = 256;

/// Timed training passes per training session, at least.
const MIN_TRAIN_PASSES: usize = 3;
/// Fresh training sessions per `Inputs::time_training` call: each
/// draws anew where the scheduler places its pool worker, which moves
/// training throughput by up to 2x on a small host.
const TRAIN_SESSIONS: usize = 6;

/// The static shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Workload name, as passed on the command line.
    pub name: &'static str,
    /// Model classes (EMG gestures incl. rest).
    pub classes: usize,
    /// Trial repetitions per class in the synthetic recording.
    pub reps: usize,
    /// Samples per window (500 Hz, so 25 samples = 50 ms).
    pub window: usize,
    /// Most windows kept in the request pool.
    pub pool_cap: usize,
    /// Offered rate of the fixed-rate phase, requests per second
    /// (serving workloads).
    pub rate_hz: f64,
}

impl Shape {
    /// The real-time bound of one window: its own duration at 500 Hz.
    pub fn window_period(&self) -> Duration {
        Duration::from_millis(2 * self.window as u64)
    }
}

/// Trained model, request pool and oracle of one seeded workload.
pub struct Inputs {
    pub model: HdModel,
    /// Request windows, in seeded order; request `i` sends
    /// `pool[i % pool.len()]`.
    pub pool: Vec<Window>,
    /// `GoldenBackend` verdict of every pool window.
    pub golden: Vec<Verdict>,
    /// Share of pool windows that are distinct.
    pub distinct_frac: f64,
    /// The training stream, its labels, and the spec it trains under.
    pub train: Vec<Window>,
    pub labels: Vec<usize>,
    pub spec: TrainSpec,
    /// Whether the fast-trained prototypes equal golden training's.
    pub train_matches_golden: bool,
}

impl Inputs {
    /// The pool window of request `i`.
    pub fn window(&self, i: usize) -> &Window {
        &self.pool[i % self.pool.len()]
    }

    /// The golden verdict of request `i`.
    pub fn golden(&self, i: usize) -> &Verdict {
        &self.golden[i % self.golden.len()]
    }

    /// Whether `verdict` is the golden verdict of request `i` on class,
    /// distances and query.
    pub fn verdict_ok(&self, i: usize, verdict: &Verdict) -> bool {
        let golden = self.golden(i);
        verdict.class == golden.class
            && verdict.distances == golden.distances
            && verdict.query == golden.query
    }

    /// Bytes of the model the encode and scan loops touch: the bind
    /// table (`channels × levels` rows) plus the prototypes.
    pub fn working_set_bytes(&self) -> usize {
        let row = self.model.n_words() * 4;
        (self.model.channels() * self.model.levels() + self.model.classes()) * row
    }
}

/// Generates the dataset of `shape` from `seed`, trains the default
/// model on a quarter of its trials (checking it against golden
/// training), and computes the golden verdict of every pool window —
/// all before anything is timed.
pub fn prepare(shape: &Shape, seed: u64) -> Result<Inputs, BackendError> {
    let synth = SynthConfig {
        classes: shape.classes,
        reps: shape.reps,
        ..SynthConfig::paper()
    };
    let data = Dataset::generate(&synth, 0, seed);
    let config = HdConfig {
        seed: derive_seed(seed, 0x5EED),
        ..HdConfig::emg_default()
    };
    let spec = TrainSpec::from_config(&config, shape.classes)?;

    let stream = data.windows_of(&data.training_trial_indices(0.25), shape.window);
    let labels: Vec<usize> = stream.iter().map(|w| w.label).collect();
    let train: Vec<Window> = stream.into_iter().map(|w| w.codes).collect();
    let mut trainer = FastBackend::new().begin_training(&spec)?;
    train_pass(trainer.as_mut(), &train, &labels)?;
    let model = trainer.finalize()?;

    let mut golden_trainer = GoldenBackend.begin_training(&spec)?;
    golden_trainer.train_batch(&train, &labels)?;
    let train_matches_golden = golden_trainer.finalize()?.prototypes() == model.prototypes();

    let mut pool: Vec<Window> = data
        .windows(shape.window)
        .into_iter()
        .map(|w| w.codes)
        .collect();
    Xoshiro256PlusPlus::seed_from_u64(derive_seed(seed, 0x9001)).shuffle(&mut pool);
    pool.truncate(shape.pool_cap);
    let distinct = pool.iter().collect::<HashSet<_>>().len();
    let distinct_frac = distinct as f64 / pool.len() as f64;

    let mut oracle = GoldenBackend.prepare(&model)?;
    let golden = pool
        .iter()
        .map(|w| oracle.classify(w))
        .collect::<Result<Vec<_>, _>>()?;

    Ok(Inputs {
        model,
        pool,
        golden,
        distinct_frac,
        train,
        labels,
        spec,
        train_matches_golden,
    })
}

impl Inputs {
    /// Times training passes for at least `budget`, spread over
    /// `TRAIN_SESSIONS` fresh training sessions (the served model is
    /// untouched), and returns each session's median pass rate in
    /// windows per second (one pass: `train_batch` over the stream,
    /// then `finalize`).
    pub fn time_training(&self, budget: Duration) -> Result<Vec<f64>, BackendError> {
        (0..TRAIN_SESSIONS)
            .map(|_| {
                let mut trainer = FastBackend::new().begin_training(&self.spec)?;
                let started = Instant::now();
                let mut rates = Vec::new();
                while rates.len() < MIN_TRAIN_PASSES
                    || started.elapsed() < budget / TRAIN_SESSIONS as u32
                {
                    trainer.reset();
                    let t0 = Instant::now();
                    train_pass(trainer.as_mut(), &self.train, &self.labels)?;
                    drop(trainer.finalize()?);
                    rates.push(self.train.len() as f64 / t0.elapsed().as_secs_f64());
                }
                Ok(median(&rates))
            })
            .collect()
    }
}

/// One pass over the labelled stream in `TRAIN_CHUNK`-window
/// `train_batch` calls.
fn train_pass(
    trainer: &mut dyn TrainingSession,
    train: &[Window],
    labels: &[usize],
) -> Result<(), BackendError> {
    for (windows, labels) in train.chunks(TRAIN_CHUNK).zip(labels.chunks(TRAIN_CHUNK)) {
        trainer.train_batch(windows, labels)?;
    }
    Ok(())
}
