//! The wire front-end end to end: train an EMG gesture model, serve it
//! over a Unix-domain socket through `pulp-hd-serve`'s network layer,
//! and drive it with a crowd of closed-loop [`NetClient`]s — then pull
//! the server's full telemetry *over the wire* (`Stats`) and probe its
//! health endpoint, exactly as a load balancer would. A served verdict
//! is cross-checked bit-identical against a direct session
//! classification.
//!
//! Run with: `cargo run --release --example net_serving`

use std::time::Duration;

use emg::{Dataset, SynthConfig};
use hdc::HdConfig;
use pulp_hd_core::backend::{ExecutionBackend, FastBackend, TrainSpec, TrainableBackend};
use pulp_hd_serve::net::{Endpoint, NetClient, NetClientConfig, NetConfig, NetServer};
use pulp_hd_serve::{ServeConfig, Server};

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 100;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- train through the seam, exactly like the serving example -----
    let synth = SynthConfig::paper();
    let data = Dataset::generate(&synth, 0, 42);
    let config = HdConfig::emg_default();
    let spec = TrainSpec::from_config(&config, data.classes())?;
    let backend = FastBackend::try_with_threads(
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    )?;
    let mut trainer = backend.begin_training(&spec)?;
    let train_idx = data.training_trial_indices(0.25);
    let train = data.windows_of(&train_idx, config.window);
    let windows: Vec<Vec<Vec<u16>>> = train.iter().map(|w| w.codes.clone()).collect();
    let labels: Vec<usize> = train.iter().map(|w| w.label).collect();
    trainer.train_batch(&windows, &labels)?;
    let model = trainer.finalize()?;
    let mut direct = backend.prepare(&model)?;

    // --- put the trained session behind the wire ----------------------
    let serve_config = ServeConfig {
        max_batch: 64,
        max_delay: Duration::from_micros(200),
        queue_depth: 1024,
        ..ServeConfig::default()
    };
    let server = Server::from_training(trainer, serve_config)?;
    let socket =
        std::env::temp_dir().join(format!("pulp-hd-net-serving-{}.sock", std::process::id()));
    let net = NetServer::spawn(
        server,
        &[Endpoint::Uds(socket.clone())],
        NetConfig::default(),
    )?;
    println!("serving the trained model on {}", socket.display());

    // --- a load balancer's view: the health endpoint -------------------
    let mut probe = NetClient::connect_uds(&socket, NetClientConfig::default())?;
    let health = probe.health()?;
    println!("health probe: serving {}", health.serving);

    // --- a crowd of closed-loop wire clients ---------------------------
    let all_idx: Vec<usize> = (0..data.trials().len()).collect();
    let probes: Vec<Vec<Vec<u16>>> = data
        .windows_of(&all_idx, config.window)
        .into_iter()
        .map(|w| w.codes)
        .collect();
    std::thread::scope(|scope| -> Result<(), Box<dyn std::error::Error>> {
        let mut lanes = Vec::new();
        for lane in 0..CLIENTS {
            let mut client = NetClient::connect_uds(&socket, NetClientConfig::default())?;
            let probes = &probes;
            lanes.push(scope.spawn(move || {
                for i in 0..REQUESTS_PER_CLIENT {
                    let probe = &probes[(lane * REQUESTS_PER_CLIENT + i) % probes.len()];
                    client.classify(probe).expect("wire classification");
                }
            }));
        }
        for lane in lanes {
            lane.join().expect("client lane");
        }
        Ok(())
    })?;

    // --- determinism: a wire verdict is bit-identical to the same
    //     window classified directly on the session --------------------
    let served = probe.classify(&probes[7])?;
    let direct_verdict = direct.classify(&probes[7])?;
    assert_eq!(served, direct_verdict, "the wire must not change verdicts");

    // --- the server's full telemetry, fetched over the wire ------------
    let stats = probe.stats()?;
    println!("\nwire ServerStats (fetched via the Stats command):");
    println!(
        "  {} requests in {} batches (mean batch {:.1}, largest service {} µs)",
        stats.completed, stats.batches, stats.mean_batch, stats.batch_service_max_us
    );
    println!(
        "  latency p50 {} µs   p95 {} µs   p99 {} µs   max {} µs",
        stats.p50_us, stats.p95_us, stats.p99_us, stats.latency_max_us
    );
    println!(
        "  {:.0} windows/s across {} wire clients ({} rejected, {} deadline-shed)",
        stats.windows_per_sec, CLIENTS, stats.rejected, stats.deadline_expired
    );

    drop(probe);
    let (_, net_stats) = net.shutdown();
    println!(
        "\nwire telemetry: {} connections accepted, {} frames, {} responses, {} malformed",
        net_stats.accepted, net_stats.frames, net_stats.responses, net_stats.malformed
    );
    println!("wire verdicts are bit-identical to direct classification ✓");
    Ok(())
}
