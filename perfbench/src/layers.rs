//! Per-layer micro-timings of the public functions each layer is built
//! from, run on the workload's own model, windows and frames: the SIMD
//! kernels at both levels, the encode and AM-scan steps of `hdc::hv64`,
//! the training write path, and the wire codec.

use std::hint::black_box;
use std::time::{Duration, Instant};

use hdc::hv64::{BitslicedBundler, CounterBundler};
use hdc::rng::Xoshiro256PlusPlus;
use hdc::simd::Simd;
use hdc::twins::KERNEL_TWINS;
use hdc::{quantize_code, Hv64};
use pulp_hd_core::backend::{ExecutionBackend, FastBackend, HdModel};
use pulp_hd_serve::net::proto::{self, Request, Response};

use crate::data::{Inputs, Window};
use crate::report::Report;
use crate::stats::median;
use crate::trace::BatchSpan;

/// Length of one timed round of a micro-timing.
const ROUND: Duration = Duration::from_millis(2);
/// Timed rounds per micro-timing; the median round is reported.
const ROUNDS: usize = 9;

/// Median nanoseconds per call of `f`, over `ROUNDS` rounds of about
/// `ROUND` each (the iteration count is calibrated first).
pub fn time_ns(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let took = t0.elapsed();
        if took >= ROUND / 4 {
            iters = ((iters as f64) * ROUND.as_secs_f64() / took.as_secs_f64()).ceil() as u64;
            break;
        }
        iters *= 4;
    }
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&rounds)
}

/// The kernel levels this CPU can run. AVX2 rows are absent, not zero,
/// on a CPU without AVX2/POPCNT.
fn levels() -> Vec<Simd> {
    let mut levels = vec![Simd::Portable];
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt") {
        levels.push(Simd::Avx2);
    }
    levels
}

/// Operands of the kernel timings: random hypervector words at the
/// paper's width (313 `u32` words = 157 `u64` words, 10,016 bits).
struct Operands {
    x: Vec<Vec<u64>>,
    out: Vec<u64>,
    planes: Vec<Vec<u64>>,
}

const DIM_BITS: usize = 313 * 32;
const WORDS64: usize = DIM_BITS.div_ceil(64);
/// Votes of the timed ripple majority: the temporal bundle of a
/// 25-sample window.
const RIPPLE_VOTES: usize = 25;
/// Counter planes of the timed counter majority (up to 127 examples).
const COUNTER_PLANES: usize = 7;

impl Operands {
    fn new(seed: u64) -> Self {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let mut words = |n: usize| -> Vec<Vec<u64>> {
            (0..n)
                .map(|_| {
                    let mut w: Vec<u64> = (0..WORDS64).map(|_| rng.next_u64()).collect();
                    // Keep the padding bits of the top word clear, as
                    // every packed hypervector does.
                    w[WORDS64 - 1] &= (1u64 << (DIM_BITS % 64)) - 1;
                    w
                })
                .collect()
        };
        Self {
            x: words(RIPPLE_VOTES),
            out: vec![0; WORDS64],
            planes: words(COUNTER_PLANES),
        }
    }
}

/// Times one registered kernel on an explicit level (no
/// `Simd::set_active`).
fn time_kernel(kernel: &str, simd: Simd, ops: &mut Operands) -> f64 {
    let Operands { x, out, planes } = ops;
    match kernel {
        "xor_into" => time_ns(|| simd.xor_into(black_box(&mut out[..]), black_box(&x[0]))),
        "popcount" => time_ns(|| {
            black_box(simd.popcount(black_box(&x[0])));
        }),
        "hamming" => time_ns(|| {
            black_box(simd.hamming(black_box(&x[0]), black_box(&x[1])));
        }),
        "hamming_bounded" => time_ns(|| {
            black_box(simd.hamming_bounded(black_box(&x[0]), black_box(&x[1]), u32::MAX));
        }),
        "hamming_threshold" => time_ns(|| {
            black_box(simd.hamming_threshold(black_box(&x[0]), black_box(&x[1]), u32::MAX, 0));
        }),
        "or_into" => {
            time_ns(|| simd.or_into(black_box(&x[0]), black_box(&x[1]), black_box(&mut out[..])))
        }
        "maj3_into" => {
            time_ns(|| simd.maj3_into(&x[0], &x[1], black_box(&x[2]), black_box(&mut out[..])))
        }
        "maj5_into" => time_ns(|| {
            simd.maj5_into(
                &x[0],
                &x[1],
                &x[2],
                &x[3],
                black_box(&x[4]),
                black_box(&mut out[..]),
            );
        }),
        "maj5_tie_into" => time_ns(|| {
            simd.maj5_tie_into(
                &x[0],
                &x[1],
                &x[2],
                black_box(&x[3]),
                black_box(&mut out[..]),
            )
        }),
        "ripple_majority_into" => time_ns(|| {
            let threshold = (RIPPLE_VOTES / 2 + 1) as u32;
            simd.ripple_majority_into(
                RIPPLE_VOTES,
                |i| black_box(&x[i][..]),
                false,
                threshold,
                black_box(&mut out[..]),
            );
        }),
        "csa_step" => {
            let (plane, carry) = x.split_at_mut(1);
            time_ns(|| {
                black_box(simd.csa_step(black_box(&mut plane[0]), black_box(&mut carry[0])));
            })
        }
        "counter_majority_into" => time_ns(|| {
            simd.counter_majority_into(
                |p| black_box(&planes[p][..]),
                COUNTER_PLANES,
                100,
                &x[0],
                black_box(&mut out[..]),
            );
        }),
        "xor_rotated_into" => {
            time_ns(|| simd.xor_rotated_words(black_box(&mut out[..]), &x[0], DIM_BITS, 1))
        }
        other => panic!("kernel `{other}` is registered in KERNEL_TWINS but has no timing here"),
    }
}

/// `simd.<kernel>.<level>.ns` for every `KERNEL_TWINS` entry at every
/// level this CPU runs.
pub fn kernels(report: &mut Report, seed: u64) {
    let mut ops = Operands::new(seed);
    for twin in KERNEL_TWINS {
        for simd in levels() {
            let ns = time_kernel(twin.kernel, simd, &mut ops);
            report.metric(format!("simd.{}.{}.ns", twin.kernel, simd.name()), ns, "ns");
        }
    }
}

/// Packed per-sample bind table `IM[c] ⊕ CIM[l]`, as the fast backend
/// builds it.
fn bind_table(model: &HdModel) -> Vec<Vec<Hv64>> {
    (0..model.channels())
        .map(|c| {
            (0..model.levels())
                .map(|l| Hv64::from_binary(&model.im().get(c).bind(model.cim().get(l))))
                .collect()
        })
        .collect()
}

/// Encodes `window` (unigram chain, N = 1) from public `hv64` steps:
/// quantize, one spatial majority per sample over the bind-table rows,
/// one temporal majority over the spatial vectors.
fn encode(
    table: &[Vec<Hv64>],
    levels: usize,
    window: &Window,
    spatials: &mut [Hv64],
    query: &mut Hv64,
) {
    for (sample, spatial) in window.iter().zip(spatials.iter_mut()) {
        BitslicedBundler::bundle_paper_into(
            sample.len(),
            |c| &table[c][quantize_code(sample[c], levels)],
            spatial,
        );
    }
    BitslicedBundler::bundle_paper_into(window.len(), |i| &spatials[i], query);
}

/// Median-of-rounds times of the encode, scan, training write path and
/// prepare steps, on the workload's model and windows. Returns
/// `(encode ns per window, scan ns per query)` for the backend overhead
/// split.
pub fn hd_steps(report: &mut Report, inputs: &Inputs) -> (f64, f64) {
    let model = &inputs.model;
    assert_eq!(
        model.ngram(),
        1,
        "the encode timing models the unigram chain"
    );
    let table = bind_table(model);
    let n_words32 = model.n_words();
    let levels = model.levels();
    let samples: Vec<&Vec<u16>> = inputs.pool.iter().flatten().take(4096).collect();
    let window_len = inputs.pool[0].len();
    let mut out = Hv64::zeros(n_words32);

    let mut s = 0;
    let spatial = time_ns(|| {
        let sample = samples[s % samples.len()];
        s += 1;
        BitslicedBundler::bundle_paper_into(
            sample.len(),
            |c| &table[c][quantize_code(sample[c], levels)],
            black_box(&mut out),
        );
    });
    report.metric("encode.spatial.ns", spatial, "ns");

    let mut spatials = vec![Hv64::zeros(n_words32); window_len];
    let mut query = Hv64::zeros(n_words32);
    encode(&table, levels, &inputs.pool[0], &mut spatials, &mut query);
    let temporal = time_ns(|| {
        BitslicedBundler::bundle_paper_into(
            window_len,
            |i| black_box(&spatials[i]),
            black_box(&mut out),
        );
    });
    report.metric("encode.temporal.ns", temporal, "ns");

    let mut w = 0;
    let per_window = time_ns(|| {
        let window = inputs.window(w);
        w += 1;
        encode(&table, levels, window, &mut spatials, black_box(&mut query));
    });
    report.metric("encode.ns_per_window", per_window, "ns");

    let prototypes: Vec<Hv64> = model.prototypes().iter().map(Hv64::from_binary).collect();
    let queries: Vec<Hv64> = inputs
        .golden
        .iter()
        .take(64)
        .map(|v| Hv64::from_binary(&v.query))
        .collect();
    let mut q = 0;
    let scan = time_ns(|| {
        let query = &queries[q % queries.len()];
        q += 1;
        for p in &prototypes {
            black_box(p.hamming(black_box(query)));
        }
    });
    report.metric("am.scan.ns_per_query", scan, "ns");

    // The write path at the size one class reaches in training: the
    // bundler is primed with a class's worth of examples first.
    // The bundler is restored to that size every `per_class` adds, so
    // the counter planes (and the ripple depth) stay at it.
    let per_class = (inputs.train.len() / model.classes()).max(1);
    let mut primed = CounterBundler::new(n_words32);
    for v in inputs.golden.iter().cycle().take(per_class) {
        primed.add(&Hv64::from_binary(&v.query));
    }
    let mut counters = primed.clone();
    let mut q = 0;
    let add = time_ns(|| {
        if q % per_class == 0 {
            counters.clone_from(&primed);
        }
        counters.add(black_box(&queries[q % queries.len()]));
        q += 1;
    });
    report.metric("train.counter_add.ns", add, "ns");
    let tie = &queries[0];
    let majority = time_ns(|| counters.majority_seeded_into(black_box(tie), black_box(&mut out)));
    report.metric("train.majority.ns", majority, "ns");

    let backend = FastBackend::new();
    let prepares: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            let session = backend.prepare(model).expect("the trained model prepares");
            let took = t0.elapsed().as_secs_f64();
            drop(session);
            took
        })
        .collect();
    report.metric("backend.prepare_s", median(&prepares), "s");

    (per_window, scan)
}

/// Frame sizes and codec times of the wire protocol on the workload's
/// own request windows and golden verdicts. Returns the codec ns one
/// served request costs past the client's own request encode: the
/// server's request decode and reply encode, and the client's reply
/// decode.
pub fn codec(report: &mut Report, inputs: &Inputs) -> f64 {
    let n = inputs.pool.len().min(256);
    let requests: Vec<Request> = (0..n)
        .map(|i| Request::Classify {
            deadline_us: 0,
            window: inputs.window(i).clone(),
        })
        .collect();
    let responses: Vec<Response> = (0..n)
        .map(|i| Response::Verdict(inputs.golden(i).clone()))
        .collect();
    let request_frames: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| proto::encode_request(1, r))
        .collect();
    let response_frames: Vec<Vec<u8>> = responses
        .iter()
        .map(|r| proto::encode_response(1, r))
        .collect();
    let mean_len = |frames: &[Vec<u8>]| {
        frames.iter().map(Vec::len).sum::<usize>() as f64 / frames.len() as f64
    };
    report.metric("net.request_bytes", mean_len(&request_frames), "bytes");
    report.metric("net.reply_bytes", mean_len(&response_frames), "bytes");

    let mut i = 0;
    let mut next = || {
        i += 1;
        i % n
    };
    let encode_request = time_ns(|| {
        black_box(proto::encode_request(1, black_box(&requests[next()])));
    });
    let decode_request = time_ns(|| {
        let frame = &request_frames[next()];
        let header =
            proto::decode_header(black_box(frame), proto::DEFAULT_MAX_FRAME).expect("own frame");
        black_box(proto::decode_request(&header, &frame[proto::HEADER_LEN..]).expect("own frame"));
    });
    let encode_response = time_ns(|| {
        black_box(proto::encode_response(1, black_box(&responses[next()])));
    });
    let decode_response = time_ns(|| {
        let frame = &response_frames[next()];
        let header =
            proto::decode_header(black_box(frame), proto::DEFAULT_MAX_FRAME).expect("own frame");
        black_box(proto::decode_response(&header, &frame[proto::HEADER_LEN..]).expect("own frame"));
    });
    report.metric("net.encode_request.ns", encode_request, "ns");
    report.metric("net.decode_request.ns", decode_request, "ns");
    report.metric("net.encode_response.ns", encode_response, "ns");
    report.metric("net.decode_response.ns", decode_response, "ns");
    decode_request + encode_response + decode_response
}

/// Participants a batch of `n` windows fans out to on the default
/// backend: the calling thread plus pool workers, at least
/// `MIN_WINDOWS_PER_WORKER` windows each.
fn fan_out(n: usize) -> usize {
    let threads = FastBackend::new().threads();
    threads
        .min(n / pulp_hd_core::backend::fast::MIN_WINDOWS_PER_WORKER)
        .max(1)
}

/// Backend-layer metrics from the batches of a saturated phase: time
/// per window, batch size, busy share of `wall`, and the per-window time
/// not spent in encode or scan (the participants of a fanned-out batch
/// are taken as busy for the whole batch).
pub fn backend(
    report: &mut Report,
    batches: &[BatchSpan],
    wall: Duration,
    encode_ns: f64,
    scan_ns: f64,
) {
    let windows: usize = batches.iter().map(|b| b.windows).sum();
    let busy: f64 = batches
        .iter()
        .map(|b| (b.end - b.start).as_secs_f64())
        .sum();
    let cpu_ns: f64 = batches
        .iter()
        .map(|b| (b.end - b.start).as_secs_f64() * 1e9 * fan_out(b.windows) as f64)
        .sum();
    report.metric(
        "backend.batch.ns_per_window",
        busy * 1e9 / windows as f64,
        "ns",
    );
    report.metric(
        "backend.batch_size.mean",
        windows as f64 / batches.len() as f64,
        "windows",
    );
    report.metric("backend.busy_frac", busy / wall.as_secs_f64(), "fraction");
    report.metric(
        "backend.overhead.ns_per_window",
        cpu_ns / windows as f64 - encode_ns - scan_ns,
        "ns",
    );
}
