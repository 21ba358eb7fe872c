//! Scalability exploration (the paper's §5.2): how cycles scale with
//! hypervector dimension, N-gram size, core count, and channel count on
//! the Wolf cluster — a compact interactive version of Figs. 3–5 — plus
//! the host-side axis the backend layer adds: batched throughput of the
//! fast backend against the golden model, cross-checked bit-exact.
//!
//! Run with: `cargo run --release --example scalability`

use std::time::Instant;

use pulp_hd_core::backend::{ExecutionBackend, FastBackend, GoldenBackend, HdModel};
use pulp_hd_core::experiments::{measure_chain, required_mhz};
use pulp_hd_core::layout::AccelParams;
use pulp_hd_core::platform::Platform;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = AccelParams::emg_default();

    println!("dimension sweep (Wolf 8 cores built-in, N=1):");
    for words in [63usize, 125, 188, 250, 313] {
        let run = measure_chain(
            &Platform::wolf_builtin(8),
            AccelParams {
                n_words: words,
                ..base
            },
        )?;
        println!("  D = {:>6} bits: {:>7} cycles", words * 32, run.total);
    }

    println!("\ncore sweep (Wolf built-in, 10,016-bit, N=5):");
    let params = AccelParams { ngram: 5, ..base };
    let one = measure_chain(&Platform::wolf_builtin(1), params)?;
    for cores in [1usize, 2, 4, 8] {
        let run = measure_chain(&Platform::wolf_builtin(cores), params)?;
        println!(
            "  {cores} core(s): {:>8} cycles  speed-up {:.2}x",
            run.total,
            one.total as f64 / run.total as f64
        );
    }

    println!("\nchannel sweep (Wolf 8 cores built-in, 10,016-bit, N=1):");
    for channels in [4usize, 16, 64, 256] {
        let run = measure_chain(&Platform::wolf_builtin(8), AccelParams { channels, ..base })?;
        println!(
            "  {channels:>3} channels: {:>8} cycles  ({:.1} MHz for 10 ms)",
            run.total,
            required_mhz(run.total)
        );
    }

    println!("\nhost batch throughput (10,016-bit, batch of 256 windows):");
    let model = HdModel::random(&base, 0x5CA1E);
    let windows: Vec<Vec<Vec<u16>>> = (0..256)
        .map(|i: usize| {
            vec![(0..base.channels)
                .map(|c| ((i * 131 + c * 7919) % 65_536) as u16)
                .collect()]
        })
        .collect();
    let mut golden = GoldenBackend.prepare(&model)?;
    let mut fast = FastBackend::new().prepare(&model)?;
    let mut outputs = Vec::new();
    for (name, session) in [("golden", &mut golden), ("fast", &mut fast)] {
        let start = Instant::now();
        let verdicts = session.classify_batch(&windows)?;
        let secs = start.elapsed().as_secs_f64();
        println!(
            "  {name:6}: {:>8.0} windows/s ({} classified)",
            windows.len() as f64 / secs,
            verdicts.len()
        );
        outputs.push(verdicts);
    }
    assert_eq!(outputs[0], outputs[1], "fast diverged from golden");
    Ok(())
}
