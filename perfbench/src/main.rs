//! Seeded end-to-end and per-layer benchmark of the pulp-hd serving
//! stack, on the configuration users get by default (`FastBackend`
//! with every CPU, full exact scan, `ServeConfig::default()`,
//! `NetConfig::default()`, the paper's 313-word model trained from the
//! synthetic EMG recording).
//!
//! ```text
//! perfbench --workload <serve-emg25|wire-uds-emg5|batch-am64> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a
//! traced run (`--trace 1`) prints the per-layer metrics and writes its
//! spans to `<out>/<workload>.spans.jsonl`. Every verdict is checked
//! against `GoldenBackend`; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

mod batch;
mod data;
mod heap;
mod layers;
mod openloop;
mod report;
mod serve;
mod serving;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use data::Shape;
use report::Report;
use serve::InProcess;
use wire::Wire;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

pub type Error = Box<dyn std::error::Error>;

/// Set-ups timed in each round; the median over the run is reported.
/// Spread over the rounds, they sample the whole run rather than one
/// moment of the host's load.
pub const SETUPS_PER_ROUND: usize = 8;

/// Rounds of an untraced run. Each round gets a fresh server or
/// session, and with it a fresh draw of where the scheduler places its
/// threads, and the rounds spread over the whole run; on a small shared
/// host placement and the other tenants' load move a round's throughput
/// and latency by 20-50%, so a run reports the interquartile mean over
/// rounds of each round's median (robust) figure.
const ROUNDS: usize = 18;

/// The three workloads. The offered rates of the serving workloads are
/// a small fraction of their saturation throughput on a 2-CPU host.
const SHAPES: [Shape; 3] = [
    Shape {
        name: "serve-emg25",
        classes: 5,
        reps: 10,
        window: 25,
        pool_cap: usize::MAX,
        rate_hz: 2000.0,
    },
    Shape {
        name: "wire-uds-emg5",
        classes: 5,
        reps: 10,
        window: 5,
        pool_cap: usize::MAX,
        rate_hz: 2000.0,
    },
    Shape {
        name: "batch-am64",
        classes: 64,
        reps: 4,
        window: 5,
        pool_cap: 32 * batch::BATCH,
        rate_hz: 0.0,
    },
];

/// How a run of `--seconds` seconds is split into phases.
pub struct Plan {
    /// Least time spent in timed training passes, spread over the
    /// rounds.
    pub train: Duration,
    pub warmup: Duration,
    /// The fixed-rate phase (serving) or first timed batch phase; in a
    /// traced run, its alternating untraced and traced phases together.
    pub fixed: Duration,
    /// The saturation phase (serving) or rest of the batch phase.
    pub saturation: Duration,
    /// Rounds the untraced phases are split into, each on a fresh
    /// server or session.
    pub rounds: usize,
    /// Where spans and the Unix socket go.
    pub out: PathBuf,
}

impl Plan {
    fn new(seconds: f64, traced: bool, out: PathBuf) -> Self {
        let part = |share: f64| Duration::from_secs_f64(seconds * share);
        if traced {
            Self {
                train: Duration::ZERO,
                warmup: part(0.05),
                fixed: part(0.4),
                saturation: part(0.15),
                rounds: 1,
                out,
            }
        } else {
            Self {
                train: part(0.1),
                warmup: part(0.05),
                fixed: part(0.45),
                saturation: part(0.4),
                rounds: ROUNDS,
                out,
            }
        }
    }

    /// One round's share of a phase.
    pub fn per_round(&self, phase: Duration) -> Duration {
        phase / self.rounds as u32
    }
}

/// Operations a run attempted and how many failed (an error, a refusal,
/// or a verdict that differs from golden).
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_build/perfbench");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value == "1"),
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn run(args: &Args) -> Result<(), Error> {
    let shape = SHAPES
        .iter()
        .find(|s| s.name == args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let plan = Plan::new(args.seconds, args.trace, args.out.clone());
    let inputs = data::prepare(shape, args.seed)?;

    let mut report = Report::default();
    report.note(format!(
        "workload {} seed {} nproc {} simd {}",
        shape.name,
        args.seed,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        hdc::simd::Simd::active().name()
    ));
    report.note(format!(
        "pool {} windows of {} samples, {:.1}% distinct; training stream {} windows; {} classes; model working set {} KiB; offered rate {} req/s",
        inputs.pool.len(),
        shape.window,
        100.0 * inputs.distinct_frac,
        inputs.train.len(),
        shape.classes,
        inputs.working_set_bytes() / 1024,
        shape.rate_hz
    ));

    let mut outcome = if args.trace {
        let mut spans = trace::Trace::new();
        layers::kernels(&mut report, args.seed);
        let outcome = match shape.name {
            "serve-emg25" => {
                serving::run_traced::<InProcess>(shape, &inputs, &plan, &mut report, &mut spans)
            }
            "wire-uds-emg5" => {
                serving::run_traced::<Wire>(shape, &inputs, &plan, &mut report, &mut spans)
            }
            _ => batch::run_traced(&inputs, &plan, &mut report, &mut spans),
        }?;
        let path = args.out.join(format!("{}.spans.jsonl", shape.name));
        spans
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        report.note(format!("spans written to {}", path.display()));
        outcome
    } else {
        match shape.name {
            "serve-emg25" => serving::run::<InProcess>(shape, &inputs, &plan, &mut report),
            "wire-uds-emg5" => serving::run::<Wire>(shape, &inputs, &plan, &mut report),
            _ => batch::run(shape, &inputs, &plan, &mut report),
        }?
    };
    // The trained model itself is an output: fast training must match
    // golden training bit for bit.
    outcome.attempted += 1;
    if !inputs.train_matches_golden {
        report.note("fast-trained prototypes differ from golden training");
        outcome.failed += 1;
    }
    report.extra(
        "error_rate",
        outcome.failed as f64 / outcome.attempted as f64,
        "fraction",
    );
    Ok(report.print(outcome.failed == 0, outcome.attempted, outcome.failed)?)
}

fn main() -> ExitCode {
    match parse_args()
        .map_err(Error::from)
        .and_then(|args| run(&args))
    {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
