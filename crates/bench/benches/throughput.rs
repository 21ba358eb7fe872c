//! Backend throughput: windows/second per execution backend at batch
//! sizes 1 / 32 / 256 — the perf baseline future scaling PRs must beat.
//!
//! **Inference:** the golden backend loops single-window calls (its
//! only mode); the fast backend runs the same batches single-threaded
//! and multi-threaded through `classify_batch`. The simulated-cluster
//! backend is included at
//! reduced dimension for completeness: its wall-clock is the cost of
//! *simulating* the hardware, not a host-throughput contender.
//!
//! **Training:** the same batches with labels through the trainable
//! sessions (`TrainableBackend::begin_training`): the golden reference
//! (scalar counters), the fast session single-threaded, and the fast
//! session over its worker pool, plus an `online_update` microbench
//! (classify + adapt one window per call) for both backends.
//!
//! **Serving:** closed-loop client sweeps through `pulp-hd-serve` — 1,
//! 8, and 64 concurrent clients each driving submit-and-wait requests
//! at the server, once with adaptive micro-batching (the default
//! config) and once with per-request batch-1 submission through the
//! same machinery. Records windows/s plus the server's own p50/p99
//! latency telemetry, and guards that adaptive batching beats batch-1
//! at 64 clients (≥ 2× where there are cores to fan out to; parity on a
//! single-CPU host), that a *lone* client pays no adaptive-batching tax
//! (adaptive ≥ 0.95× batch-1 at 1 client — the solo-caller fast path),
//! and that p99 stays inside its structural envelope of `max_delay`
//! plus two batches' service time.
//!
//! **Wire serving:** the same adaptive server behind the network
//! front-end (`pulp_hd_serve::net`), swept at 1/8/64 closed-loop
//! [`NetClient`]s over loopback TCP and a Unix-domain socket. Records
//! the rows under `"net_serving"` and guards that UDS holds ≥ 0.5× the
//! in-process adaptive throughput at 64 clients where there are cores
//! for the connection threads to run on (sanity floor on a single-CPU
//! host) — the wire tax must stay a tax, not a serialization
//! bottleneck.
//!
//! **Query cache:** on a 64-class model fed a repeated-window stream,
//! the cached session (`FastBackend::with_cache`) must reach ≥ 1.3× the
//! plain scan; the JSON records both under `"query_cache"`, next to the
//! dimension auto-tuner's pick under `"tuner"`.
//!
//! Besides the human-readable report, the run records every
//! windows/second figure in `BENCH_throughput.json` at the workspace
//! root — together with the SIMD kernel level the process selected
//! (`"simd": "avx512" | "avx2" | "portable"`) and per-kernel microbenchmarks
//! (bind / bundle / AM scan in `u64` words per second) — so the perf
//! trajectory is tracked across PRs and wins are attributable to the
//! kernel that moved.
//!
//! Exits non-zero if the multi-threaded fast backend fails to beat the
//! looped golden backend on the large batch (inference *and*
//! training), or if a threaded path falls behind its single-threaded
//! twin (`fast/mt >= 0.95 × fast/1thread` and `train/fast-mt >= 0.95 ×
//! train/fast-1thread` at every batch size) — the regression guards
//! for the batched pipelines and their adaptive fan-out.
//!
//! The `accel_sim` row is a **cycle-accurate simulator** timed for
//! scale only: its wall-clock is the cost of simulating the hardware,
//! not a host-throughput contender, and no guard reads it.
//!
//! Run with: `cargo bench -p pulp-hd-bench --bench throughput`

use std::fmt::Write as _;
use std::hint::black_box;
use std::num::NonZeroUsize;

use std::time::{Duration, Instant};

use emg::{Dataset, SynthConfig};
use hdc::hv64::{BitslicedBundler, Hv64};
use hdc::{BinaryHv, Simd};
use pulp_hd_bench::timing::bench;
use pulp_hd_core::backend::{
    AccelBackend, ExecutionBackend, FastBackend, GoldenBackend, HdModel, TrainSpec,
    TrainableBackend,
};
use pulp_hd_core::layout::AccelParams;
use pulp_hd_core::platform::Platform;
use pulp_hd_core::tune_dimension;
use pulp_hd_serve::net::{Endpoint, NetClient, NetClientConfig, NetConfig, NetServer};
use pulp_hd_serve::{ServeConfig, Server, ServerStats};

/// Where the machine-readable results land: the workspace root, next to
/// `Cargo.toml`, independent of the bench binary's working directory.
const JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");

/// One measured (backend, batch) point.
struct Row {
    backend: &'static str,
    batch: usize,
    windows_per_sec: f64,
}

/// Synthetic-EMG windows of `samples` samples × 4 channels (the paper's
/// shape is 5), with their gesture labels for the training benches.
fn emg_windows(count: usize, samples: usize) -> (Vec<Vec<Vec<u16>>>, Vec<usize>) {
    let synth = SynthConfig {
        reps: 4,
        trial_secs: 1.0,
        ..SynthConfig::paper()
    };
    let data = Dataset::generate(&synth, 0, 0xBE7C);
    let all: Vec<usize> = (0..data.trials().len()).collect();
    let windows = data.windows_of(&all, samples);
    assert!(
        windows.len() >= count,
        "dataset yields {} windows",
        windows.len()
    );
    windows
        .into_iter()
        .take(count)
        .map(|w| (w.codes, w.label))
        .unzip()
}

/// The query cache on the repeated-window stream (see the cache block
/// in `main`): what the JSON's `"query_cache"` section records.
struct CacheReport {
    capacity: usize,
    pool: usize,
    classes: usize,
    exact_wps: f64,
    cached_wps: f64,
    hit_rate: f64,
}

/// The dimension auto-tuner's pick on the 5-gesture task: what the
/// JSON's `"tuner"` section records.
struct TunerReport {
    base_words: usize,
    selected_words: usize,
    accuracy: f64,
    floor: f64,
}

/// One per-kernel microbenchmark point: `u64` words processed per
/// second through the dispatched kernel.
struct KernelRow {
    kernel: &'static str,
    words64_per_sec: f64,
}

/// One measured serving point: a closed-loop client sweep against one
/// server configuration.
struct ServingRow {
    clients: usize,
    mode: &'static str,
    windows_per_sec: f64,
    stats: ServerStats,
}

/// Samples per window in the serving sweep: a 50 ms stream segment at
/// the paper's 500 Hz rather than the 10 ms kernel unit — a served
/// request is a stream chunk, and the heavier encode makes service
/// time (the thing batching parallelizes) dominate the per-request
/// channel overhead both modes pay identically. Recorded in the JSON's
/// `serving_config`.
const SERVE_SAMPLES: usize = 25;

/// The adaptive micro-batching configuration the serving bench (and the
/// p99 guard) run against.
fn adaptive_config() -> ServeConfig {
    ServeConfig {
        max_batch: 64,
        max_delay: Duration::from_micros(200),
        queue_depth: 1024,
        ..ServeConfig::default()
    }
}

/// Per-request submission through the same serving machinery: every
/// batch holds exactly one window, no fill delay — the baseline that
/// adaptive batching must beat under concurrency.
fn batch1_config() -> ServeConfig {
    ServeConfig {
        max_batch: 1,
        max_delay: Duration::ZERO,
        queue_depth: 1024,
        ..ServeConfig::default()
    }
}

/// One measured wire-serving point: a closed-loop [`NetClient`] sweep
/// against a [`NetServer`] on one transport.
struct NetServingRow {
    clients: usize,
    transport: &'static str,
    windows_per_sec: f64,
    stats: ServerStats,
}

/// Drives `clients` closed-loop client threads (submit-and-wait, each
/// request picked round-robin from `windows`) at `server` and returns
/// measured wall-clock throughput plus the server's own telemetry.
fn drive_clients(
    server: Server,
    clients: usize,
    requests_per_client: usize,
    windows: &[Vec<Vec<u16>>],
) -> (f64, ServerStats) {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for lane in 0..clients {
            let client = server.client();
            scope.spawn(move || {
                for i in 0..requests_per_client {
                    let w = &windows[(lane * requests_per_client + i) % windows.len()];
                    client.classify(w).expect("served classification");
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let wps = (clients * requests_per_client) as f64 / secs;
    (wps, server.shutdown())
}

/// A closed-loop client sweep against a freshly spawned single-session
/// server on the fast backend.
fn serving_run(
    model: &HdModel,
    threads: usize,
    config: ServeConfig,
    clients: usize,
    requests_per_client: usize,
    windows: &[Vec<Vec<u16>>],
) -> (f64, ServerStats) {
    let backend = FastBackend::try_with_threads(threads).expect("nonzero thread count");
    let server = Server::spawn(&backend, model, config).expect("serving spawn");
    drive_clients(server, clients, requests_per_client, windows)
}

/// A closed-loop wire-client sweep: the same engine and adaptive
/// config as `serving_run`, but every request round-trips through the
/// network front-end (`NetServer` + one `NetClient` per client thread)
/// over loopback TCP or a Unix-domain socket.
fn net_serving_run(
    model: &HdModel,
    threads: usize,
    config: ServeConfig,
    transport: &'static str,
    clients: usize,
    requests_per_client: usize,
    windows: &[Vec<Vec<u16>>],
) -> (f64, ServerStats) {
    let backend = FastBackend::try_with_threads(threads).expect("nonzero thread count");
    let server = Server::spawn(&backend, model, config).expect("serving spawn");
    let uds_path = std::env::temp_dir().join(format!(
        "pulp-hd-bench-net-{}-{transport}-{clients}.sock",
        std::process::id()
    ));
    let endpoint = match transport {
        "uds" => Endpoint::Uds(uds_path.clone()),
        _ => Endpoint::Tcp("127.0.0.1:0".into()),
    };
    let net = NetServer::spawn(server, &[endpoint], NetConfig::default()).expect("net spawn");
    let tcp_addr = net.tcp_addr();
    let connect = || -> NetClient {
        match transport {
            "uds" => NetClient::connect_uds(&uds_path, NetClientConfig::default()),
            _ => NetClient::connect_tcp(tcp_addr.expect("tcp bound"), NetClientConfig::default()),
        }
        .expect("wire connect")
    };
    let start = Instant::now();
    std::thread::scope(|scope| {
        for lane in 0..clients {
            let mut client = connect();
            scope.spawn(move || {
                for i in 0..requests_per_client {
                    let w = &windows[(lane * requests_per_client + i) % windows.len()];
                    client.classify(w).expect("wire classification");
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let wps = (clients * requests_per_client) as f64 / secs;
    let (stats, _) = net.shutdown();
    (wps, stats)
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    params: &AccelParams,
    threads: usize,
    rows: &[Row],
    training: &[Row],
    serving: &[ServingRow],
    net_serving: &[NetServingRow],
    kernels: &[KernelRow],
    speedup: f64,
    train_speedup: f64,
    serving_speedup: f64,
    net_serving_ratio: f64,
    cache: &CacheReport,
    tuner: &TunerReport,
) {
    let write_rows = |json: &mut String, rows: &[Row]| {
        for (i, row) in rows.iter().enumerate() {
            let comma = if i + 1 < rows.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "    {{ \"backend\": \"{}\", \"batch\": {}, \"windows_per_sec\": {:.1} }}{comma}",
                row.backend, row.batch, row.windows_per_sec
            );
        }
    };
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"throughput\",");
    let _ = writeln!(
        json,
        "  \"run\": \"cargo bench -p pulp-hd-bench --bench throughput\","
    );
    let _ = writeln!(
        json,
        "  \"model\": {{ \"n_words\": {}, \"channels\": {}, \"levels\": {}, \"ngram\": {}, \"classes\": {}, \"samples_per_window\": 5 }},",
        params.n_words, params.channels, params.levels, params.ngram, params.classes
    );
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"simd\": \"{}\",", Simd::active().name());
    let _ = writeln!(json, "  \"results\": [");
    write_rows(&mut json, rows);
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"training\": [");
    write_rows(&mut json, training);
    let _ = writeln!(json, "  ],");
    let adaptive = adaptive_config();
    let _ = writeln!(
        json,
        "  \"serving_config\": {{ \"max_batch\": {}, \"max_delay_us\": {}, \
         \"queue_depth\": {}, \"samples_per_window\": {SERVE_SAMPLES} }},",
        adaptive.max_batch,
        adaptive.max_delay.as_micros(),
        adaptive.queue_depth
    );
    let _ = writeln!(json, "  \"serving\": [");
    for (i, row) in serving.iter().enumerate() {
        let comma = if i + 1 < serving.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"clients\": {}, \"mode\": \"{}\", \"windows_per_sec\": {:.1}, \
             \"p50_us\": {}, \"p99_us\": {}, \"latency_max_us\": {}, \"mean_batch\": {:.1}, \
             \"batch_service_max_us\": {} }}{comma}",
            row.clients,
            row.mode,
            row.windows_per_sec,
            row.stats.p50_us,
            row.stats.p99_us,
            row.stats.latency_max_us,
            row.stats.mean_batch,
            row.stats.batch_service_max_us
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"net_serving\": [");
    for (i, row) in net_serving.iter().enumerate() {
        let comma = if i + 1 < net_serving.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"clients\": {}, \"transport\": \"{}\", \"windows_per_sec\": {:.1}, \
             \"p50_us\": {}, \"p99_us\": {}, \"latency_max_us\": {}, \"mean_batch\": {:.1} }}{comma}",
            row.clients,
            row.transport,
            row.windows_per_sec,
            row.stats.p50_us,
            row.stats.p99_us,
            row.stats.latency_max_us,
            row.stats.mean_batch
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"kernels\": [");
    for (i, k) in kernels.iter().enumerate() {
        let comma = if i + 1 < kernels.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"kernel\": \"{}\", \"words64_per_sec\": {:.0} }}{comma}",
            k.kernel, k.words64_per_sec
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"speedup_fast_mt_vs_golden_batch256\": {speedup:.2},"
    );
    let _ = writeln!(
        json,
        "  \"train_speedup_fast_mt_vs_golden_batch256\": {train_speedup:.2},"
    );
    let _ = writeln!(
        json,
        "  \"serving_speedup_adaptive_vs_batch1_64clients\": {serving_speedup:.2},"
    );
    let _ = writeln!(
        json,
        "  \"net_serving_uds_vs_inprocess_64clients\": {net_serving_ratio:.2},"
    );
    let _ = writeln!(json, "  \"query_cache\": {{");
    let _ = writeln!(
        json,
        "    \"workload\": \"one-shot {}-class AM, {}-window pool cycled to a 256-window \
         stream\",",
        cache.classes, cache.pool
    );
    let _ = writeln!(
        json,
        "    \"batch\": 256, \"capacity\": {}, \"exact_wps\": {:.1}, \"cached_wps\": {:.1}, \
         \"ratio_vs_exact\": {:.2}, \"hit_rate\": {:.3}",
        cache.capacity,
        cache.exact_wps,
        cache.cached_wps,
        cache.cached_wps / cache.exact_wps,
        cache.hit_rate
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        json,
        "  \"tuner\": {{ \"base_n_words\": {}, \"selected_n_words\": {}, \
         \"holdout_accuracy\": {:.4}, \"floor\": {:.2} }}",
        tuner.base_words, tuner.selected_words, tuner.accuracy, tuner.floor
    );
    let _ = writeln!(json, "}}");
    std::fs::write(JSON_PATH, json).expect("write BENCH_throughput.json");
    println!("results recorded in {JSON_PATH}");
}

/// Times the dispatched hot kernels in isolation on paper-shaped
/// (313-u32-word ≙ 157-u64-word) hypervectors, so cross-PR wins are
/// attributable: bind (XOR), the 5-way carry-save bundle, and the full
/// AM distance scan.
fn kernel_microbench() -> Vec<KernelRow> {
    const WORDS64: f64 = 157.0;
    let inputs: Vec<Hv64> = (0..5)
        .map(|s| Hv64::from_binary(&BinaryHv::random(313, 0xD15B + s)))
        .collect();
    let mut out = Hv64::zeros(313);
    let iters = 200_000;

    let mut acc = inputs[0].clone();
    let bind = bench("kernel/bind/313w", iters, || {
        acc.xor_assign(black_box(&inputs[1]));
    });
    let bundle = bench("kernel/bundle5/313w", iters, || {
        BitslicedBundler::bundle_paper_into(5, |i| black_box(&inputs[i]), &mut out);
    });
    let query = inputs[4].clone();
    let am_scan = bench("kernel/am_scan5/313w", iters, || {
        inputs
            .iter()
            .map(|p| black_box(p).hamming(&query))
            .sum::<u32>()
    });
    vec![
        KernelRow {
            kernel: "bind",
            words64_per_sec: WORDS64 * bind.rate(),
        },
        KernelRow {
            kernel: "bundle5",
            words64_per_sec: 5.0 * WORDS64 * bundle.rate(),
        },
        KernelRow {
            kernel: "am_scan5",
            words64_per_sec: 5.0 * WORDS64 * am_scan.rate(),
        },
    ]
}

fn main() {
    let params = AccelParams::emg_default(); // 313 words ≙ 10,016-D
    let model = HdModel::random(&params, 0x7412);
    let (windows, labels) = emg_windows(256, 5);

    let mut golden = GoldenBackend.prepare(&model).expect("golden prepare");
    let mut fast1 = FastBackend::with_threads(1)
        .prepare(&model)
        .expect("fast prepare");
    let threads = FastBackend::new().threads().max(4);
    let mut fast_mt = FastBackend::with_threads(threads)
        .prepare(&model)
        .expect("fast prepare");

    println!(
        "backend throughput, 10,016-D EMG model, windows of 5 samples × 4 channels \
         (simd: {})\n",
        Simd::active().name()
    );
    let mut rows: Vec<Row> = Vec::new();
    let mut headline = None;
    // (batch, single-thread w/s, multi-thread w/s) for the adaptive
    // fan-out guard.
    let mut mt_ratios: Vec<(usize, f64, f64)> = Vec::new();
    for batch in [1usize, 32, 256] {
        let batch_windows = &windows[..batch];
        // Keep ≥8 timed iterations even at the largest batch: the
        // batch-256 comparison gates CI, so it must ride out scheduler
        // noise on shared runners.
        let iters = (1024 / batch).max(8) as u32;

        let g = bench(&format!("golden/loop/batch{batch}"), iters, || {
            batch_windows
                .iter()
                .map(|w| golden.classify(w).unwrap())
                .collect::<Vec<_>>()
        });
        // The single- vs multi-thread comparison gates CI at a tight
        // 0.95 ratio, so measure the two guarded backends interleaved
        // and keep each one's best of three runs: wall-clock noise only
        // ever slows a run down, and interleaving decorrelates machine
        // drift (frequency, cache state) from the backend under test.
        let mut f1_secs = f64::INFINITY;
        let mut fm_secs = f64::INFINITY;
        for rep in 0..3 {
            let f1 = bench(
                &format!("fast/1thread/batch{batch}/rep{rep}"),
                iters,
                || fast1.classify_batch(batch_windows).unwrap(),
            );
            let fm = bench(
                &format!("fast/{threads}threads/batch{batch}/rep{rep}"),
                iters,
                || fast_mt.classify_batch(batch_windows).unwrap(),
            );
            f1_secs = f1_secs.min(f1.per_iter().as_secs_f64());
            fm_secs = fm_secs.min(fm.per_iter().as_secs_f64());
        }

        let wps = |secs_per_batch: f64| batch as f64 / secs_per_batch;
        let g_wps = wps(g.per_iter().as_secs_f64());
        let f1_wps = wps(f1_secs);
        let fm_wps = wps(fm_secs);
        println!(
            "  batch {batch:>3}: golden {g_wps:>9.0} w/s   fast×1 {f1_wps:>9.0} w/s   \
             fast×{threads} {fm_wps:>9.0} w/s\n"
        );
        rows.push(Row {
            backend: "golden/loop",
            batch,
            windows_per_sec: g_wps,
        });
        rows.push(Row {
            backend: "fast/1thread",
            batch,
            windows_per_sec: f1_wps,
        });
        rows.push(Row {
            backend: "fast/mt",
            batch,
            windows_per_sec: fm_wps,
        });
        mt_ratios.push((batch, f1_wps, fm_wps));
        if batch == 256 {
            headline = Some((g.per_iter().as_secs_f64(), fm_secs));
        }
    }

    // The query cache. It skips AM-scan work only where queries
    // repeat, so it is measured on a scan-dominated shape: a one-shot
    // 64-class associative memory (each class enrolled from a single
    // window — the paper's one-shot learning mode, scaled out to a wide
    // vocabulary) driven by a repeated-window stream (a 48-window pool
    // cycled to 256 — the steady-state streaming shape the cache
    // targets). Its exactness is pinned by
    // `crates/core/tests/prop_equivalence.rs`; this block pins the
    // speed side and fills the JSON's `"query_cache"` section.
    println!("query cache at batch 256 (one-shot 64-class AM, repeated-window stream)\n");
    // Enroll the one-shot classes greedily, keeping only windows whose
    // *quantized* codes land ≥ 2 amplitude levels away from every
    // already-enrolled window in at least 20% of positions: the
    // synthetic stream repeats itself (steady-state gesture segments
    // quantize to identical windows), and near-duplicate enrolments
    // would make classes indistinguishable. The draw also feeds the
    // dimension auto-tuner its labelled train/holdout splits.
    let (draw, draw_labels) = emg_windows(1024, 5);
    let cache_report = {
        let spread = |a: &[Vec<u16>], b: &[Vec<u16>]| {
            let codes = a.iter().zip(b).flat_map(|(sa, sb)| sa.iter().zip(sb));
            let (diff, total) = codes.fold((0usize, 0usize), |(d, t), (xa, xb)| {
                let la = hdc::quantize_code(*xa, params.levels);
                let lb = hdc::quantize_code(*xb, params.levels);
                (d + usize::from(la.abs_diff(lb) >= 2), t + 1)
            });
            diff * 5 >= total
        };
        let mut enrolled: Vec<Vec<Vec<u16>>> = Vec::new();
        for w in &draw {
            if enrolled.len() == 64 {
                break;
            }
            if enrolled.iter().all(|e| spread(e, w)) {
                enrolled.push(w.clone());
            }
        }
        assert_eq!(
            enrolled.len(),
            64,
            "the 1024-window draw must yield 64 spread one-shot prototypes"
        );
        let cache_params = AccelParams {
            classes: enrolled.len(),
            ..params
        };
        let spec = TrainSpec::random(&cache_params, 0x7412);
        let one_shot_labels: Vec<usize> = (0..enrolled.len()).collect();
        let mut trainer = FastBackend::with_threads(threads)
            .begin_training(&spec)
            .expect("one-shot training session");
        trainer
            .train_batch(&enrolled, &one_shot_labels)
            .expect("one-shot enrolment");
        let cache_model = trainer.finalize().expect("one-shot model");

        const POOL: usize = 48;
        const CAPACITY: usize = 64;
        let stream: Vec<Vec<Vec<u16>>> = (0..256).map(|i| enrolled[i % POOL].clone()).collect();
        let mut exact = FastBackend::with_threads(threads)
            .prepare(&cache_model)
            .expect("plain prepare");
        let mut cached = FastBackend::with_threads(threads)
            .with_cache(NonZeroUsize::new(CAPACITY).expect("non-zero capacity"))
            .prepare(&cache_model)
            .expect("cached prepare");

        // Interleaved best-of-three, like every CI-gated within-run
        // ratio. The cached session deliberately keeps its warm caches
        // across reps — steady-state streaming is the state it exists
        // for — and the recorded hit rate is the accumulated one.
        let mut ex_secs = f64::INFINITY;
        let mut ca_secs = f64::INFINITY;
        for rep in 0..3 {
            let e = bench(&format!("cache/plain/batch256/rep{rep}"), 8, || {
                exact.classify_batch(&stream).unwrap()
            });
            let c = bench(&format!("cache/cached/batch256/rep{rep}"), 8, || {
                cached.classify_batch(&stream).unwrap()
            });
            ex_secs = ex_secs.min(e.per_iter().as_secs_f64());
            ca_secs = ca_secs.min(c.per_iter().as_secs_f64());
        }
        let monitor = cached.cache_monitor().expect("cached session monitor");
        let wps = |secs: f64| 256.0 / secs;
        let report = CacheReport {
            capacity: CAPACITY,
            pool: POOL,
            classes: cache_params.classes,
            exact_wps: wps(ex_secs),
            cached_wps: wps(ca_secs),
            hit_rate: monitor.hits() as f64 / (monitor.hits() + monitor.misses()).max(1) as f64,
        };
        println!(
            "  plain {:>9.0} w/s   cached {:>9.0} w/s ({:.2}x, hit rate {:.0}%)",
            report.exact_wps,
            report.cached_wps,
            report.cached_wps / report.exact_wps,
            100.0 * report.hit_rate,
        );
        report
    };

    // The dimension auto-tuner on the real 5-gesture task: the smallest
    // halving-ladder width that holds the accuracy floor on a held-out
    // split, recorded so the JSON carries the accuracy-for-dimension
    // trade. Split the draw into 32-window blocks dealt alternately to
    // the two splits: it is ordered by trial, so contiguous halves
    // would not cover every gesture, while a per-window interleave
    // leaks near-duplicate neighbouring windows across the splits and
    // lets the ladder ride down to absurd widths.
    let tuner_report = {
        let half = |windows: &[Vec<Vec<u16>>], labels: &[usize], keep: usize| {
            let pick = |i: &usize| (i / 32) % 2 == keep;
            let w: Vec<Vec<Vec<u16>>> = (0..windows.len())
                .filter(pick)
                .map(|i| windows[i].clone())
                .collect();
            let l: Vec<usize> = (0..labels.len()).filter(pick).map(|i| labels[i]).collect();
            (w, l)
        };
        let (tune_train_w, tune_train_l) = half(&draw[..512], &draw_labels[..512], 0);
        let (tune_hold_w, tune_hold_l) = half(&draw[..512], &draw_labels[..512], 1);
        // An absolute floor would bake this synthetic draw's difficulty
        // into the bench, so calibrate it instead: probe the full
        // accuracy-vs-width curve (floor 0 rides the ladder to the
        // bottom), then ask the tuner for the smallest width within 3%
        // relative of the full-width accuracy.
        let tuner = FastBackend::with_threads(threads);
        let probe = tune_dimension(
            &tuner,
            &params,
            0x7412,
            (&tune_train_w, &tune_train_l),
            (&tune_hold_w, &tune_hold_l),
            0.0,
        )
        .expect("tuner probe");
        let base_accuracy = probe.evaluated.first().expect("probed base width").1;
        let floor = 0.97 * base_accuracy;
        let tuned = tune_dimension(
            &tuner,
            &params,
            0x7412,
            (&tune_train_w, &tune_train_l),
            (&tune_hold_w, &tune_hold_l),
            floor,
        )
        .expect("dimension tuning");
        let report = TunerReport {
            base_words: params.n_words,
            selected_words: tuned.n_words,
            accuracy: tuned.accuracy,
            floor,
        };
        let curve: Vec<String> = tuned
            .evaluated
            .iter()
            .map(|(w, a)| format!("{w}w {:.0}%", 100.0 * a))
            .collect();
        println!(
            "  dimension auto-tuner: {} -> {} u32 words at {:.1}% holdout accuracy \
             (floor {:.0}%; ladder {})\n",
            report.base_words,
            report.selected_words,
            100.0 * report.accuracy,
            100.0 * report.floor,
            curve.join(", "),
        );
        report
    };

    // The simulated platform, for scale: wall-clock of cycle-accurate
    // simulation at quarter dimension, one window at a time.
    let reduced = AccelParams {
        n_words: 79,
        ..params
    };
    let reduced_model = HdModel::random(&reduced, 0x7412);
    let mut accel = AccelBackend::new(Platform::wolf_builtin(8))
        .prepare(&reduced_model)
        .expect("accel prepare");
    let one_gram = vec![windows[0][0].clone()];
    let a = bench("accel_sim/wolf8/2528-D/batch1", 3, || {
        accel.classify(&one_gram).unwrap()
    });
    rows.push(Row {
        backend: "accel_sim/wolf8/2528-D",
        batch: 1,
        windows_per_sec: 1.0 / a.per_iter().as_secs_f64(),
    });

    // Training throughput through the trainable sessions: one-shot
    // accumulation of the same labelled batches (`reset` inside the
    // timed closure keeps every iteration training the same fresh
    // model; its cost — a counter memset — is part of the batch cycle).
    // `TrainSpec::random` shares its seed streams with
    // `HdModel::random`, so the trained chain has the inference model's
    // shape and item memories.
    let spec = TrainSpec::random(&params, 0x7412);
    let mut train_golden = GoldenBackend
        .begin_training(&spec)
        .expect("golden training session");
    let mut train_fast1 = FastBackend::with_threads(1)
        .begin_training(&spec)
        .expect("fast training session");
    let mut train_fast_mt = FastBackend::with_threads(threads)
        .begin_training(&spec)
        .expect("fast training session");

    println!("\ntraining throughput (one-shot accumulation, same windows + labels)\n");
    let mut training_rows: Vec<Row> = Vec::new();
    let mut train_headline = None;
    let mut train_mt_ratios: Vec<(usize, f64, f64)> = Vec::new();
    for batch in [1usize, 32, 256] {
        let batch_windows = &windows[..batch];
        let batch_labels = &labels[..batch];
        let iters = (1024 / batch).max(8) as u32;

        let g = bench(&format!("train/golden/batch{batch}"), iters, || {
            train_golden.reset();
            train_golden
                .train_batch(batch_windows, batch_labels)
                .unwrap();
        });
        // Same interleaved best-of-N protocol as the inference guard
        // (the 0.95 mt-vs-1thread ratio gates CI), one notch more
        // noise-immune: a training iteration is shorter than a
        // classification one (no AM scan, no per-window verdict), so
        // the same absolute scheduler jitter is a larger fraction of
        // the measurement.
        let mut f1_secs = f64::INFINITY;
        let mut fm_secs = f64::INFINITY;
        for rep in 0..5 {
            let f1 = bench(
                &format!("train/fast-1thread/batch{batch}/rep{rep}"),
                iters,
                || {
                    train_fast1.reset();
                    train_fast1
                        .train_batch(batch_windows, batch_labels)
                        .unwrap();
                },
            );
            let fm = bench(
                &format!("train/fast-{threads}threads/batch{batch}/rep{rep}"),
                iters,
                || {
                    train_fast_mt.reset();
                    train_fast_mt
                        .train_batch(batch_windows, batch_labels)
                        .unwrap();
                },
            );
            f1_secs = f1_secs.min(f1.per_iter().as_secs_f64());
            fm_secs = fm_secs.min(fm.per_iter().as_secs_f64());
        }
        let wps = |secs_per_batch: f64| batch as f64 / secs_per_batch;
        let g_wps = wps(g.per_iter().as_secs_f64());
        let f1_wps = wps(f1_secs);
        let fm_wps = wps(fm_secs);
        println!(
            "  batch {batch:>3}: golden {g_wps:>9.0} w/s   fast×1 {f1_wps:>9.0} w/s   \
             fast×{threads} {fm_wps:>9.0} w/s\n"
        );
        training_rows.push(Row {
            backend: "train/golden",
            batch,
            windows_per_sec: g_wps,
        });
        training_rows.push(Row {
            backend: "train/fast-1thread",
            batch,
            windows_per_sec: f1_wps,
        });
        training_rows.push(Row {
            backend: "train/fast-mt",
            batch,
            windows_per_sec: fm_wps,
        });
        train_mt_ratios.push((batch, f1_wps, fm_wps));
        if batch == 256 {
            train_headline = Some((g.per_iter().as_secs_f64(), fm_secs));
        }
    }

    // Online-update microbench: classify + adapt one labelled window
    // per call against a model pre-trained on the full batch — the
    // deployed continuous-learning loop.
    {
        train_golden.reset();
        train_golden.train_batch(&windows, &labels).unwrap();
        train_fast1.reset();
        train_fast1.train_batch(&windows, &labels).unwrap();
        let mut i = 0usize;
        let g = bench("online_update/golden", 512, || {
            let k = i % windows.len();
            i += 1;
            train_golden.update_online(&windows[k], labels[k]).unwrap()
        });
        i = 0;
        let f = bench("online_update/fast", 4096, || {
            let k = i % windows.len();
            i += 1;
            train_fast1.update_online(&windows[k], labels[k]).unwrap()
        });
        training_rows.push(Row {
            backend: "online_update/golden",
            batch: 1,
            windows_per_sec: g.rate(),
        });
        training_rows.push(Row {
            backend: "online_update/fast",
            batch: 1,
            windows_per_sec: f.rate(),
        });
    }

    // Serving: closed-loop client sweep through the adaptive
    // micro-batcher vs. per-request batch-1 submission, same engine
    // underneath. Each client is a thread in a submit-and-wait loop, so
    // offered load scales with concurrency and backpressure is natural.
    // The serving workload uses SERVE_SAMPLES-sample stream windows
    // (see the constant's docs for why they are longer than the 10 ms
    // kernel unit).
    println!(
        "\nserving throughput (closed-loop clients, {SERVE_SAMPLES}-sample windows, \
         fast backend behind pulp-hd-serve)\n"
    );
    let (serve_windows, _) = emg_windows(256, SERVE_SAMPLES);
    let mut serving_rows: Vec<ServingRow> = Vec::new();
    let mut serving_64 = None;
    // (adaptive w/s, batch-1 w/s) at 1 client — the solo-caller guard.
    let mut serving_1 = None;
    for clients in [1usize, 8, 64] {
        // Fixed total work per run, floor per client; best-of-3 on the
        // guarded comparison below rides out scheduler noise.
        let requests_per_client = (4096 / clients).max(64);
        let mut best: [Option<(f64, ServerStats)>; 2] = [None, None];
        for _rep in 0..3 {
            for (slot, config) in [adaptive_config(), batch1_config()].into_iter().enumerate() {
                let (wps, stats) = serving_run(
                    &model,
                    threads,
                    config,
                    clients,
                    requests_per_client,
                    &serve_windows,
                );
                if best[slot].as_ref().is_none_or(|(b, _)| wps > *b) {
                    best[slot] = Some((wps, stats));
                }
            }
        }
        let [adaptive, batch1] = best.map(|b| b.expect("measured"));
        println!(
            "  {clients:>2} client(s): adaptive {:>9.0} w/s (p50 {:>5} µs, p99 {:>6} µs, \
             mean batch {:>4.1})   batch-1 {:>9.0} w/s (p99 {:>6} µs)\n",
            adaptive.0,
            adaptive.1.p50_us,
            adaptive.1.p99_us,
            adaptive.1.mean_batch,
            batch1.0,
            batch1.1.p99_us
        );
        if clients == 1 {
            serving_1 = Some((adaptive.0, batch1.0));
        }
        if clients == 64 {
            serving_64 = Some((adaptive.0, adaptive.1.clone(), batch1.0));
        }
        serving_rows.push(ServingRow {
            clients,
            mode: "adaptive",
            windows_per_sec: adaptive.0,
            stats: adaptive.1,
        });
        serving_rows.push(ServingRow {
            clients,
            mode: "batch1",
            windows_per_sec: batch1.0,
            stats: batch1.1,
        });
    }

    // Wire serving: the same adaptive server behind the network
    // front-end, closed-loop `NetClient` threads over loopback TCP and
    // a Unix-domain socket. Each request pays a full encode → frame →
    // syscall → decode round trip, so the sweep prices the wire tax
    // against the in-process rows above; the guard below keeps the UDS
    // path within 2x of in-process at 64 clients on multi-core hosts.
    println!(
        "\nwire serving throughput (closed-loop NetClients, {SERVE_SAMPLES}-sample windows, \
         loopback TCP and UDS through pulp-hd-serve::net)\n"
    );
    let mut net_serving_rows: Vec<NetServingRow> = Vec::new();
    let mut net_uds_64 = None;
    for transport in ["tcp", "uds"] {
        for clients in [1usize, 8, 64] {
            // Lighter fixed work than the in-process sweep: every
            // request is a real socket round trip.
            let requests_per_client = (2048 / clients).max(32);
            let mut best: Option<(f64, ServerStats)> = None;
            for _rep in 0..3 {
                let (wps, stats) = net_serving_run(
                    &model,
                    threads,
                    adaptive_config(),
                    transport,
                    clients,
                    requests_per_client,
                    &serve_windows,
                );
                if best.as_ref().is_none_or(|(b, _)| wps > *b) {
                    best = Some((wps, stats));
                }
            }
            let (wps, stats) = best.expect("measured");
            println!(
                "  {transport} {clients:>2} client(s): {wps:>9.0} w/s \
                 (p50 {:>5} µs, p99 {:>6} µs, mean batch {:>4.1})\n",
                stats.p50_us, stats.p99_us, stats.mean_batch
            );
            if transport == "uds" && clients == 64 {
                net_uds_64 = Some(wps);
            }
            net_serving_rows.push(NetServingRow {
                clients,
                transport,
                windows_per_sec: wps,
                stats,
            });
        }
    }

    println!(
        "\nper-kernel microbenchmarks (dispatched level: {})",
        Simd::active().name()
    );
    let kernels = kernel_microbench();

    let (golden_t, fast_t) = headline.expect("batch 256 measured");
    let speedup = golden_t / fast_t;
    println!("\nfast backend ({threads} threads, batch 256) vs looped golden: {speedup:.2}x");
    let (tg_t, tf_t) = train_headline.expect("training batch 256 measured");
    let train_speedup = tg_t / tf_t;
    println!(
        "fast training ({threads} threads, batch 256) vs golden training: {train_speedup:.2}x"
    );
    let (serve_adaptive_wps, serve_adaptive_stats, serve_batch1_wps) =
        serving_64.expect("64-client serving measured");
    let serving_speedup = serve_adaptive_wps / serve_batch1_wps;
    println!(
        "adaptive serving (64 closed-loop clients) vs batch-1 submission: {serving_speedup:.2}x"
    );
    let net_uds_64_wps = net_uds_64.expect("64-client UDS wire serving measured");
    let net_serving_ratio = net_uds_64_wps / serve_adaptive_wps;
    println!(
        "wire serving over UDS (64 closed-loop clients) vs in-process adaptive: \
         {net_serving_ratio:.2}x"
    );
    write_json(
        &params,
        threads,
        &rows,
        &training_rows,
        &serving_rows,
        &net_serving_rows,
        &kernels,
        speedup,
        train_speedup,
        serving_speedup,
        net_serving_ratio,
        &cache_report,
        &tuner_report,
    );
    assert!(
        speedup > 1.0,
        "multi-threaded fast backend must beat the looped golden baseline, got {speedup:.2}x"
    );
    assert!(
        train_speedup > 1.0,
        "multi-threaded fast training must beat golden training, got {train_speedup:.2}x"
    );
    // The adaptive fan-out guards: with the persistent pools and the
    // small-batch cutover, the threaded paths must never fall
    // meaningfully behind the single-threaded ones at any batch size.
    // On a narrow host (< 4 CPUs) the pool has nothing to fan out to
    // and a threaded "win" is pure scheduling luck, so — like the
    // serving guards below — the 0.95 parity floor relaxes to 0.85
    // there (the multi-core CI runner enforces the real floor; the
    // committed baseline itself records 0.92x for train/fast-mt at
    // batch 1 on the 1-CPU container).
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let parity_floor = if cpus >= 4 { 0.95 } else { 0.85 };
    for (batch, f1_wps, fm_wps) in mt_ratios {
        assert!(
            fm_wps >= parity_floor * f1_wps,
            "fast/mt regressed below fast/1thread at batch {batch}: \
             {fm_wps:.0} w/s vs {f1_wps:.0} w/s (floor {parity_floor}x)"
        );
    }
    for (batch, f1_wps, fm_wps) in train_mt_ratios {
        assert!(
            fm_wps >= parity_floor * f1_wps,
            "train/fast-mt regressed below train/fast-1thread at batch {batch}: \
             {fm_wps:.0} w/s vs {f1_wps:.0} w/s (floor {parity_floor}x)"
        );
    }
    // The serving guards. (1) Throughput: under heavy concurrency the
    // micro-batcher must clearly beat per-request submission through
    // the identical machinery — the whole reason the serving layer
    // exists. Batching wins by fanning each batch's service across the
    // backend's worker pool, so — like the thread-scaling guards above
    // (see ROADMAP) — the 2x claim needs cores to fan out to: with
    // fewer than 4 the pool caps at 1–3 participants and the
    // theoretical service speedup cannot clear 2x reliably (on a
    // single-CPU host the pool has zero workers and service is serial
    // either way), so the guard degrades to "adaptive batching must
    // not be meaningfully worse than per-request submission".
    if cpus >= 4 {
        assert!(
            serving_speedup >= 2.0,
            "adaptive serving must sustain >= 2x batch-1 submission at 64 clients, \
             got {serving_speedup:.2}x ({serve_adaptive_wps:.0} vs {serve_batch1_wps:.0} w/s)"
        );
    } else {
        println!(
            "{cpus}-CPU host: serving speedup guard relaxed to parity \
             (the >= 2x fan-out claim is enforced on the multi-core CI runner)"
        );
        assert!(
            serving_speedup >= 0.85,
            "adaptive serving regressed below batch-1 submission at 64 clients on a \
             {cpus}-CPU host: {serving_speedup:.2}x"
        );
    }
    // (1b) The solo-caller fast path: a lone closed-loop client must
    // not pay an adaptive-batching tax — the batcher skips the
    // cooperative yield-fill rounds when the queue was empty at
    // batch-open, so adaptive stays within 5% of batch-1 submission
    // even with nobody to batch with.
    let (solo_adaptive_wps, solo_batch1_wps) = serving_1.expect("1-client serving measured");
    assert!(
        solo_adaptive_wps >= 0.95 * solo_batch1_wps,
        "a lone client must not pay an adaptive-batching tax: adaptive \
         {solo_adaptive_wps:.0} w/s vs batch-1 {solo_batch1_wps:.0} w/s at 1 client"
    );
    // (1c) The wire tax: serving over a Unix-domain socket at 64
    // clients — every request paying encode → frame → syscall → decode
    // both ways — must hold at least half the in-process adaptive
    // throughput. With enough cores the reader/responder threads and
    // the batcher overlap, so loopback framing cannot legitimately
    // halve throughput; a miss means the net layer grew a serialization
    // bottleneck. On narrow hosts the per-connection threads contend
    // with the worker pool for the same cores, so the guard degrades to
    // a sanity floor.
    if cpus >= 4 {
        assert!(
            net_serving_ratio >= 0.5,
            "UDS wire serving must hold >= 0.5x in-process adaptive at 64 clients, \
             got {net_serving_ratio:.2}x ({net_uds_64_wps:.0} vs {serve_adaptive_wps:.0} w/s)"
        );
    } else {
        println!(
            "{cpus}-CPU host: wire serving guard relaxed \
             (the >= 0.5x floor is enforced on the multi-core CI runner)"
        );
        assert!(
            net_serving_ratio >= 0.1,
            "UDS wire serving collapsed on a {cpus}-CPU host: {net_serving_ratio:.2}x \
             ({net_uds_64_wps:.0} vs {serve_adaptive_wps:.0} w/s)"
        );
    }
    // The query-cache guard, a within-run interleaved comparison and
    // so machine-independent: on the repeated-window stream the cached
    // session must clearly beat the plain scan — the whole reason the
    // cache exists.
    let cache_ratio = cache_report.cached_wps / cache_report.exact_wps;
    assert!(
        cache_ratio >= 1.3,
        "the query cache must reach >= 1.3x the plain scan on the repeated-window stream \
         at batch 256, got {cache_ratio:.2}x (plain {:.0} w/s, cached {:.0} w/s)",
        cache_report.exact_wps,
        cache_report.cached_wps
    );
    // The tuner's pick holds its floor (`tune_dimension` already fails
    // the run outright if even the base width misses it).
    assert!(
        tuner_report.accuracy >= tuner_report.floor,
        "the tuned model missed its accuracy floor: {:.3} < {:.2} at {} words",
        tuner_report.accuracy,
        tuner_report.floor,
        tuner_report.selected_words
    );
    // (2) Tail latency: the batcher's structural worst case for an
    // accepted request is bounded — land just after a batch closes and
    // you ride out that batch's service, then your own batch's fill
    // window (≤ max_delay) and service. p99 must stay inside
    // `max_delay + 2 × batch service` (worst observed batch service as
    // the service bound, +25% headroom for scheduler jitter on shared
    // runners) — i.e. batching never buys throughput with unbounded
    // queueing delay.
    let p99_bound_us = adaptive_config().max_delay.as_micros() as u64
        + 2 * serve_adaptive_stats.batch_service_max_us;
    assert!(
        serve_adaptive_stats.p99_us <= p99_bound_us + p99_bound_us / 4,
        "adaptive serving p99 ({} µs) exceeded its structural envelope of max_delay + \
         two batches' service time ({} µs bound, worst batch service {} µs)",
        serve_adaptive_stats.p99_us,
        p99_bound_us + p99_bound_us / 4,
        serve_adaptive_stats.batch_service_max_us
    );
}
