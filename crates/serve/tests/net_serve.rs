//! Functional pinning of the wire front-end: verdicts served over TCP
//! and UDS are bit-identical to direct `session.classify`, the `Stats`
//! and `Health` commands round-trip the full `ServerStats` and the
//! liveness flag, hostile frames get typed rejections that kill only
//! their own connection, and shutdown drains gracefully.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use hdc::rng::Xoshiro256PlusPlus;
use pulp_hd_core::backend::{ExecutionBackend, FastBackend, GoldenBackend, HdModel, Verdict};
use pulp_hd_core::layout::AccelParams;
use pulp_hd_serve::net::{
    proto, Endpoint, ErrorCode, NetClient, NetClientConfig, NetConfig, NetError, NetServer,
};
use pulp_hd_serve::{ServeConfig, Server};

fn params() -> AccelParams {
    AccelParams {
        n_words: 16,
        ngram: 2,
        ..AccelParams::emg_default()
    }
}

fn random_windows(
    params: &AccelParams,
    samples: usize,
    count: usize,
    seed: u64,
) -> Vec<Vec<Vec<u16>>> {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (0..samples)
                .map(|_| {
                    (0..params.channels)
                        .map(|_| (rng.next_u32() & 0xffff) as u16)
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn golden_verdicts(model: &HdModel, windows: &[Vec<Vec<u16>>]) -> Vec<Verdict> {
    let mut direct = GoldenBackend.prepare(model).unwrap();
    direct.classify_batch(windows).unwrap()
}

fn uds_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pulp-hd-{tag}-{}.sock", std::process::id()))
}

fn spawn_net(model: &HdModel, endpoints: &[Endpoint]) -> NetServer {
    let backend = FastBackend::try_with_threads(1).unwrap();
    let server = Server::spawn(&backend, model, ServeConfig::default()).unwrap();
    NetServer::spawn(server, endpoints, NetConfig::default()).unwrap()
}

/// The tentpole pin: verdicts served over the wire — TCP and UDS, one
/// at a time and batched — are bit-identical (class, distances, query
/// hypervector, source) to a direct session classify on the exact path.
#[test]
#[cfg_attr(miri, ignore = "real sockets")]
fn wire_verdicts_bit_identical_over_tcp_and_uds() {
    let params = params();
    let model = HdModel::random(&params, 0x4E7A);
    let windows = random_windows(&params, 3, 8, 0x11AA);
    let expected = golden_verdicts(&model, &windows);

    let path = uds_path("net-serve");
    let net = spawn_net(
        &model,
        &[
            Endpoint::Tcp("127.0.0.1:0".into()),
            Endpoint::Uds(path.clone()),
        ],
    );

    let mut tcp =
        NetClient::connect_tcp(net.tcp_addr().unwrap(), NetClientConfig::default()).unwrap();
    let mut uds = NetClient::connect_uds(&path, NetClientConfig::default()).unwrap();
    for (i, w) in windows.iter().enumerate() {
        assert_eq!(tcp.classify(w).unwrap(), expected[i], "tcp window {i}");
        assert_eq!(uds.classify(w).unwrap(), expected[i], "uds window {i}");
    }
    let batched = tcp.classify_batch(&windows).unwrap();
    assert_eq!(batched.len(), expected.len());
    for (i, item) in batched.into_iter().enumerate() {
        assert_eq!(item.unwrap(), expected[i], "tcp batched window {i}");
    }

    drop(tcp);
    drop(uds);
    let (stats, net_stats) = net.shutdown();
    // 2 × 8 singles + one 8-window batch.
    assert_eq!(stats.completed, 24);
    assert_eq!(net_stats.accepted, 2);
    assert_eq!(net_stats.active, 0, "no leaked connections");
    assert!(!path.exists(), "socket file cleaned up");
}

/// `Stats` and `Health` round-trip the *full* `ServerStats` and the
/// liveness flag over the wire, so a load balancer sees exactly what an
/// in-process caller sees.
#[test]
#[cfg_attr(miri, ignore = "real sockets")]
fn stats_and_health_round_trip_over_the_wire() {
    let params = params();
    let model = HdModel::random(&params, 0x4E7B);
    let windows = random_windows(&params, 3, 6, 0x22BB);

    let server = Server::spawn(
        &FastBackend::try_with_threads(1).unwrap(),
        &model,
        ServeConfig::default(),
    )
    .unwrap();
    let net = NetServer::spawn(
        server,
        &[Endpoint::Tcp("127.0.0.1:0".into())],
        NetConfig::default(),
    )
    .unwrap();

    let mut client =
        NetClient::connect_tcp(net.tcp_addr().unwrap(), NetClientConfig::default()).unwrap();
    for w in &windows {
        client.classify(w).unwrap();
    }

    let wire = client.stats().unwrap();
    let local = net.server_stats();
    // Identical except the two time-sensitive fields (snapshotted at
    // different instants).
    assert_eq!(wire.completed, local.completed);
    assert_eq!(wire.batches, local.batches);
    assert_eq!(wire.p50_us, local.p50_us);
    assert_eq!(wire.p99_us, local.p99_us);
    assert_eq!(wire.latency_max_us, local.latency_max_us);
    assert_eq!(wire.retried_batches, local.retried_batches);
    assert_eq!(wire.contained_panics, local.contained_panics);
    assert_eq!(wire.cache_hits, local.cache_hits);
    assert_eq!(wire.completed, windows.len() as u64);

    let health = client.health().unwrap();
    assert!(health.serving);

    drop(client);
    let _ = net.shutdown();
}

/// A frame whose declared payload exceeds the server's cap gets a typed
/// `TooLarge` rejection and the connection is closed — while the server
/// keeps serving other clients.
#[test]
#[cfg_attr(miri, ignore = "real sockets")]
fn oversized_frames_rejected_typed() {
    let params = params();
    let model = HdModel::random(&params, 0x4E7C);
    let windows = random_windows(&params, 3, 2, 0x33CC);
    let expected = golden_verdicts(&model, &windows);

    let backend = FastBackend::try_with_threads(1).unwrap();
    let server = Server::spawn(&backend, &model, ServeConfig::default()).unwrap();
    let net = NetServer::spawn(
        server,
        &[Endpoint::Tcp("127.0.0.1:0".into())],
        NetConfig {
            max_frame: 1024,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = net.tcp_addr().unwrap();

    // Hand-rolled attacker: a header claiming a 16 MiB payload.
    let mut raw = TcpStream::connect(addr).unwrap();
    let huge = proto::frame(proto::kind::CLASSIFY, 42, &[]);
    let mut bytes = huge.clone();
    bytes[16..20].copy_from_slice(&(16u32 * 1024 * 1024).to_le_bytes());
    raw.write_all(&bytes).unwrap();
    raw.flush().unwrap();
    let mut response = Vec::new();
    raw.read_to_end(&mut response).unwrap(); // server closes after the error
    let header = proto::decode_header(&response, 1024).unwrap();
    assert_eq!(header.kind, proto::kind::R_ERROR);
    match proto::decode_response(&header, &response[proto::HEADER_LEN..]).unwrap() {
        proto::Response::Error(fault) => assert_eq!(fault.code, ErrorCode::TooLarge),
        other => panic!("expected error frame, got {other:?}"),
    }

    // A healthy client on a fresh connection is untouched.
    let mut client = NetClient::connect_tcp(addr, NetClientConfig::default()).unwrap();
    assert_eq!(client.classify(&windows[0]).unwrap(), expected[0]);

    drop(client);
    let (_, net_stats) = net.shutdown();
    assert_eq!(net_stats.malformed, 1);
}

/// Garbage bytes kill only the offending connection: the server answers
/// with a typed `Malformed` error (or just closes), and a concurrent
/// healthy client keeps getting bit-identical verdicts.
#[test]
#[cfg_attr(miri, ignore = "real sockets")]
fn garbage_frames_kill_only_their_connection() {
    let params = params();
    let model = HdModel::random(&params, 0x4E7D);
    let windows = random_windows(&params, 3, 4, 0x44DD);
    let expected = golden_verdicts(&model, &windows);

    let net = spawn_net(&model, &[Endpoint::Tcp("127.0.0.1:0".into())]);
    let addr = net.tcp_addr().unwrap();

    let mut healthy = NetClient::connect_tcp(addr, NetClientConfig::default()).unwrap();
    assert_eq!(healthy.classify(&windows[0]).unwrap(), expected[0]);

    // Attacker: 64 bytes of non-protocol garbage.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&[0xA5u8; 64]).unwrap();
    raw.flush().unwrap();
    let mut response = Vec::new();
    raw.read_to_end(&mut response).unwrap();
    if !response.is_empty() {
        let header = proto::decode_header(&response, proto::DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(header.kind, proto::kind::R_ERROR);
    }

    // The healthy connection never noticed.
    for (i, w) in windows.iter().enumerate() {
        assert_eq!(healthy.classify(w).unwrap(), expected[i], "window {i}");
    }
    drop(healthy);
    let (_, net_stats) = net.shutdown();
    assert!(net_stats.malformed >= 1);
    assert_eq!(net_stats.active, 0);
}

/// A per-request wire deadline reaches the batcher's triage: a request
/// stuck behind a queue that cannot drain in time comes back as
/// `DeadlineExceeded`, not served late — and the deadline of one
/// request does not leak onto others.
#[test]
#[cfg_attr(miri, ignore = "real sockets")]
fn wire_deadline_propagates_to_triage() {
    let params = params();
    let model = HdModel::random(&params, 0x4E7E);
    let windows = random_windows(&params, 3, 2, 0x55EE);
    let expected = golden_verdicts(&model, &windows);

    let net = spawn_net(&model, &[Endpoint::Tcp("127.0.0.1:0".into())]);
    let addr = net.tcp_addr().unwrap();
    let mut client = NetClient::connect_tcp(addr, NetClientConfig::default()).unwrap();

    // An already-expired deadline (1 µs): by the time the batch forms,
    // triage sheds it with the typed error.
    let err = client
        .classify_with_deadline(&windows[0], Duration::from_micros(1))
        .unwrap_err();
    assert!(matches!(err, NetError::DeadlineExceeded), "{err}");
    // A roomy deadline serves normally, bit-identically.
    assert_eq!(
        client
            .classify_with_deadline(&windows[1], Duration::from_secs(5))
            .unwrap(),
        expected[1]
    );

    drop(client);
    let (stats, _) = net.shutdown();
    assert!(stats.deadline_expired >= 1);
}

/// Graceful drain: after `shutdown` begins, held connections get a
/// go-away and new connects are refused — but everything accepted
/// before the drain was answered.
#[test]
#[cfg_attr(miri, ignore = "real sockets")]
fn shutdown_drains_and_refuses_new_work() {
    let params = params();
    let model = HdModel::random(&params, 0x4E7F);
    let windows = random_windows(&params, 3, 4, 0x66FF);
    let expected = golden_verdicts(&model, &windows);

    let net = spawn_net(&model, &[Endpoint::Tcp("127.0.0.1:0".into())]);
    let addr = net.tcp_addr().unwrap();

    let mut client = NetClient::connect_tcp(addr, NetClientConfig::default()).unwrap();
    for (i, w) in windows.iter().enumerate() {
        assert_eq!(client.classify(w).unwrap(), expected[i]);
    }

    let (stats, net_stats) = net.shutdown();
    assert_eq!(stats.completed, windows.len() as u64);
    assert_eq!(net_stats.active, 0);

    // The listener is gone: new connections are refused outright, and
    // the held client's next request fails with a typed error, not a
    // hang.
    assert!(NetClient::connect_tcp(addr, NetClientConfig::default()).is_err());
    let err = client
        .classify(&windows[0])
        .expect_err("request after shutdown must fail");
    assert!(
        matches!(err, NetError::Closed | NetError::Io(_) | NetError::Timeout),
        "{err}"
    );
}

/// UDS binding only ever unlinks *stale socket files*: a regular file
/// at the path survives (the bind fails instead), a path a live server
/// answers on is an error rather than a silent theft, and a socket
/// left behind by a dead server is reclaimed.
#[test]
#[cfg_attr(miri, ignore = "real sockets")]
fn uds_bind_never_steals_files_or_live_sockets() {
    let params = params();
    let model = HdModel::random(&params, 0x4E81);
    let windows = random_windows(&params, 3, 1, 0x88AC);
    let expected = golden_verdicts(&model, &windows);

    // A regular file at the path: the spawn fails and the file (and its
    // contents) are untouched.
    let file_path = uds_path("net-uds-file");
    std::fs::write(&file_path, b"precious").unwrap();
    let backend = FastBackend::try_with_threads(1).unwrap();
    let server = Server::spawn(&backend, &model, ServeConfig::default()).unwrap();
    assert!(
        NetServer::spawn(
            server,
            &[Endpoint::Uds(file_path.clone())],
            NetConfig::default()
        )
        .is_err(),
        "bind over a regular file must fail"
    );
    assert_eq!(std::fs::read(&file_path).unwrap(), b"precious");
    std::fs::remove_file(&file_path).unwrap();

    // A live server's socket: a second spawn on the same path fails,
    // and the first keeps serving through it.
    let live_path = uds_path("net-uds-live");
    let net = spawn_net(&model, &[Endpoint::Uds(live_path.clone())]);
    let backend = FastBackend::try_with_threads(1).unwrap();
    let server = Server::spawn(&backend, &model, ServeConfig::default()).unwrap();
    assert!(
        NetServer::spawn(
            server,
            &[Endpoint::Uds(live_path.clone())],
            NetConfig::default()
        )
        .is_err(),
        "bind over a live server's socket must fail"
    );
    let mut client = NetClient::connect_uds(&live_path, NetClientConfig::default()).unwrap();
    assert_eq!(client.classify(&windows[0]).unwrap(), expected[0]);
    drop(client);
    let _ = net.shutdown();

    // A stale socket (its listener is gone, nobody answers): reclaimed.
    let stale_path = uds_path("net-uds-stale");
    drop(std::os::unix::net::UnixListener::bind(&stale_path).unwrap());
    assert!(stale_path.exists(), "dropping a listener leaves the file");
    let net = spawn_net(&model, &[Endpoint::Uds(stale_path.clone())]);
    let mut client = NetClient::connect_uds(&stale_path, NetClientConfig::default()).unwrap();
    assert_eq!(client.classify(&windows[0]).unwrap(), expected[0]);
    drop(client);
    let _ = net.shutdown();
    assert!(!stale_path.exists(), "socket file cleaned up on shutdown");
}

/// The per-connection in-flight window backpressures: a burst larger
/// than the window sheds the excess with typed `Overloaded` per-window
/// errors while everything inside the window is served bit-identically.
#[test]
#[cfg_attr(miri, ignore = "real sockets")]
fn inflight_window_sheds_with_typed_overload() {
    let params = params();
    let model = HdModel::random(&params, 0x4E80);
    let windows = random_windows(&params, 3, 6, 0x77AB);

    let backend = FastBackend::try_with_threads(1).unwrap();
    let server = Server::spawn(&backend, &model, ServeConfig::default()).unwrap();
    let net = NetServer::spawn(
        server,
        &[Endpoint::Tcp("127.0.0.1:0".into())],
        NetConfig {
            inflight_window: 4,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let mut client =
        NetClient::connect_tcp(net.tcp_addr().unwrap(), NetClientConfig::default()).unwrap();

    // A 6-window batch against a 4-slot window: rejected whole (the
    // batch cannot fit), typed.
    let err = client.classify_batch(&windows).unwrap_err();
    assert!(matches!(err, NetError::Overloaded), "{err}");
    // A batch that fits is served.
    let ok = client.classify_batch(&windows[..4]).unwrap();
    assert!(ok.into_iter().all(|r| r.is_ok()));

    drop(client);
    let (_, net_stats) = net.shutdown();
    assert!(net_stats.wire_overloaded >= 1);
}

/// Reads one response frame off a raw socket.
fn read_response(reader: &mut impl Read) -> (u64, proto::Response) {
    let mut header = [0u8; proto::HEADER_LEN];
    reader.read_exact(&mut header).unwrap();
    let header = proto::decode_header(&header, proto::DEFAULT_MAX_FRAME).unwrap();
    let mut payload = vec![0u8; header.len as usize];
    reader.read_exact(&mut payload).unwrap();
    (
        header.id,
        proto::decode_response(&header, &payload).unwrap(),
    )
}

/// Sends the three shapes the server's receive buffer must reassemble —
/// `singles` `Classify` frames in one write, one `Classify` frame a byte
/// at a time, and one `ClassifyBatch` frame larger than the 4 KiB buffer
/// — and checks that every reply arrives in request order, carries its
/// own id, and is bit-identical to golden. Returns the frames sent.
fn pipeline_raw(
    mut writer: impl Write + Send,
    mut reader: impl Read,
    windows: &[Vec<Vec<u16>>],
    expected: &[Verdict],
    singles: usize,
) -> u64 {
    let classify = |id: usize| {
        proto::encode_request(
            id as u64 + 1,
            &proto::Request::Classify {
                deadline_us: 0,
                window: windows[id].clone(),
            },
        )
    };
    let batch = proto::encode_request(
        singles as u64 + 2,
        &proto::Request::ClassifyBatch {
            deadline_us: 0,
            windows: windows[singles + 1..].to_vec(),
        },
    );
    assert!(
        batch.len() > 4096,
        "the batch frame must outgrow the buffer"
    );
    std::thread::scope(|s| {
        s.spawn(|| {
            let burst: Vec<u8> = (0..singles).flat_map(classify).collect();
            writer.write_all(&burst).unwrap();
            for byte in classify(singles) {
                writer.write_all(&[byte]).unwrap();
                writer.flush().unwrap();
            }
            writer.write_all(&batch).unwrap();
        });
        for (i, want) in expected.iter().enumerate().take(singles + 1) {
            match read_response(&mut reader) {
                (id, proto::Response::Verdict(v)) => {
                    assert_eq!(id, i as u64 + 1, "reply {i} out of order");
                    assert_eq!(&v, want, "window {i}");
                }
                other => panic!("reply {i}: expected a verdict, got {other:?}"),
            }
        }
        match read_response(&mut reader) {
            (id, proto::Response::VerdictBatch(items)) => {
                assert_eq!(id, singles as u64 + 2);
                assert_eq!(items.len(), windows.len() - singles - 1);
                for (i, item) in items.into_iter().enumerate() {
                    assert_eq!(item.unwrap(), expected[singles + 1 + i], "batch window {i}");
                }
            }
            other => panic!("expected the batch reply, got {other:?}"),
        }
    });
    singles as u64 + 2
}

/// Pipelined, split and oversized frames over raw UDS and TCP sockets:
/// 200 `Classify` frames in one write, one frame trickled a byte at a
/// time, one `ClassifyBatch` frame past 4 KiB. Every reply comes back
/// in order and bit-identical, and the server counts exactly one frame
/// in and one response out per request.
#[test]
#[cfg_attr(miri, ignore = "real sockets")]
fn pipelined_split_and_oversized_frames_answer_in_order() {
    const SINGLES: usize = 200;
    let params = params();
    let model = HdModel::random(&params, 0x4E82);
    let windows = random_windows(&params, 5, SINGLES + 1 + 100, 0x99AD);
    let expected = golden_verdicts(&model, &windows);
    // Room for the whole burst and the 100-window batch in flight at
    // once: the test pins reassembly, not admission.
    let config = NetConfig {
        inflight_window: 512,
        ..NetConfig::default()
    };
    let serve = |endpoint: Endpoint| {
        let backend = FastBackend::try_with_threads(1).unwrap();
        let server = Server::spawn(&backend, &model, ServeConfig::default()).unwrap();
        NetServer::spawn(server, &[endpoint], config.clone()).unwrap()
    };

    let path = uds_path("net-pipeline");
    let net = serve(Endpoint::Uds(path.clone()));
    let uds = std::os::unix::net::UnixStream::connect(&path).unwrap();
    let sent = pipeline_raw(uds.try_clone().unwrap(), uds, &windows, &expected, SINGLES);
    let (_, uds_stats) = net.shutdown();
    assert_eq!(uds_stats.frames, sent);
    assert_eq!(uds_stats.responses, sent);
    assert_eq!(uds_stats.active, 0);

    let net = serve(Endpoint::Tcp("127.0.0.1:0".into()));
    let tcp = TcpStream::connect(net.tcp_addr().unwrap()).unwrap();
    tcp.set_nodelay(true).unwrap();
    let sent = pipeline_raw(tcp.try_clone().unwrap(), tcp, &windows, &expected, SINGLES);
    let (_, tcp_stats) = net.shutdown();
    assert_eq!(tcp_stats.frames, sent);
    assert_eq!(tcp_stats.responses, sent);
    assert_eq!(tcp_stats.active, 0);
}
