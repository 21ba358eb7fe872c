//! Transport-level chaos for the wire front-end. A seeded
//! [`FaultTransport`] injects disconnects, truncated frames, garbage
//! bytes, and stalls between a [`NetClient`] and its server, and
//! backend faults ([`FaultKind::Panic`], [`FaultKind::Hang`]) rage
//! underneath — pinning that the server never panics or leaks
//! connections, healthy clients keep getting bit-identical verdicts,
//! and every injected fault surfaces as a typed error within its
//! deadline.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use hdc::rng::Xoshiro256PlusPlus;
use pulp_hd_core::backend::{
    ExecutionBackend, FastBackend, FaultBackend, FaultKind, FaultPlan, GoldenBackend, HdModel,
    Verdict,
};
use pulp_hd_core::layout::AccelParams;
use pulp_hd_serve::net::{
    Endpoint, FaultTransport, NetClient, NetClientConfig, NetConfig, NetError, NetServer,
    TransportFault, TransportPlan, WireStream,
};
use pulp_hd_serve::{ServeConfig, Server};

fn silence_expected_panics() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !message.contains("injected fault") {
                previous(info);
            }
        }));
    });
}

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

fn spawn_tcp(model: &HdModel, net_config: NetConfig) -> NetServer {
    let backend = FastBackend::try_with_threads(1).unwrap();
    let server = Server::spawn(&backend, model, ServeConfig::default()).unwrap();
    NetServer::spawn(server, &[Endpoint::Tcp("127.0.0.1:0".into())], net_config).unwrap()
}

/// Connects a `NetClient` whose *first* connection runs through a
/// [`FaultTransport`] with the given plan; reconnects dial clean TCP.
/// (Op counters are per-connection, so wrapping every dial would
/// re-fire an op-0 fault on each retry and never converge.)
fn faulty_client(
    addr: std::net::SocketAddr,
    plan: TransportPlan,
    config: NetClientConfig,
) -> NetClient {
    let mut first = Some(plan);
    NetClient::connect_with(
        Box::new(move || {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            Ok(match first.take() {
                Some(plan) => Box::new(FaultTransport::new(stream, plan)) as Box<dyn WireStream>,
                None => Box::new(stream) as Box<dyn WireStream>,
            })
        }),
        config,
    )
    .unwrap()
}

/// A mid-stream disconnect is retried transparently: the client
/// redials and the verdict it eventually gets is bit-identical to a
/// clean run. The dead connection does not leak server-side.
#[test]
#[cfg_attr(miri, ignore = "real sockets")]
fn disconnect_is_retried_to_a_bit_identical_verdict() {
    let params = params();
    let model = HdModel::random(&params, 0xC401);
    let windows = random_windows(&params, 3, 4, 0x9001);
    let expected = golden_verdicts(&model, &windows);

    let net = spawn_tcp(&model, NetConfig::default());
    let addr = net.tcp_addr().unwrap();

    // Read op 0 (first response header) dies; the retry's fresh
    // connection reads clean.
    let plan = TransportPlan::new(0xD15C).fault_read(0, TransportFault::Disconnect);
    let mut client = faulty_client(addr, plan, NetClientConfig::default());
    for (i, w) in windows.iter().enumerate() {
        assert_eq!(client.classify(w).unwrap(), expected[i], "window {i}");
    }

    drop(client);
    let (_, net_stats) = net.shutdown();
    assert!(net_stats.accepted >= 2, "retry must have redialed");
    assert_eq!(net_stats.active, 0, "dead connection leaked");
}

/// Garbage on the wire — a corrupted request frame — kills only that
/// connection with a typed error; the client redials and recovers, and
/// a healthy concurrent client never notices.
#[test]
#[cfg_attr(miri, ignore = "real sockets")]
fn garbage_frames_surface_typed_and_spare_healthy_clients() {
    let params = params();
    let model = HdModel::random(&params, 0xC402);
    let windows = random_windows(&params, 3, 4, 0x9002);
    let expected = golden_verdicts(&model, &windows);

    let net = spawn_tcp(&model, NetConfig::default());
    let addr = net.tcp_addr().unwrap();

    let mut healthy = NetClient::connect_tcp(addr, NetClientConfig::default()).unwrap();

    // Write op 0 (the first request frame) goes out XOR-scrambled.
    let plan = TransportPlan::new(0x6A5B).fault_write(0, TransportFault::Garbage);
    let mut victim = faulty_client(addr, plan, NetClientConfig::default());
    for (i, w) in windows.iter().enumerate() {
        assert_eq!(
            victim.classify(w).unwrap(),
            expected[i],
            "victim window {i}"
        );
        assert_eq!(
            healthy.classify(w).unwrap(),
            expected[i],
            "healthy window {i}"
        );
    }

    drop(victim);
    drop(healthy);
    let (_, net_stats) = net.shutdown();
    assert!(net_stats.malformed >= 1, "scrambled frame must be counted");
    assert_eq!(net_stats.active, 0);
}

/// A truncated request (half a frame, then silence) trips the server's
/// slow-loris guard within the configured read timeout: the connection
/// is killed with a typed `Stalled` go-away, counted, and the client's
/// retry on a fresh connection succeeds bit-identically.
#[test]
#[cfg_attr(miri, ignore = "real sockets")]
fn truncated_frames_trip_the_stall_guard_within_bound() {
    let params = params();
    let model = HdModel::random(&params, 0xC403);
    let windows = random_windows(&params, 3, 2, 0x9003);
    let expected = golden_verdicts(&model, &windows);

    let read_timeout = Duration::from_millis(100);
    let net = spawn_tcp(
        &model,
        NetConfig {
            read_timeout,
            ..NetConfig::default()
        },
    );
    let addr = net.tcp_addr().unwrap();

    // Write op 0 sends only half the frame then kills the transport:
    // the server sees a frame that never completes.
    let plan = TransportPlan::new(0x7121).fault_write(0, TransportFault::Truncate);
    let started = Instant::now();
    let mut client = faulty_client(addr, plan, NetClientConfig::default());
    assert_eq!(client.classify(&windows[0]).unwrap(), expected[0]);
    assert!(
        started.elapsed() < read_timeout + Duration::from_secs(2),
        "recovery took {:?}",
        started.elapsed()
    );

    // Give the server's poll loop a beat to reap the half-dead
    // connection, then confirm it was killed as stalled (or as a plain
    // hangup, depending on when the transport died), never leaked.
    let reaped = Instant::now();
    let net_stats = loop {
        let s = net.net_stats();
        if s.active <= 1 || reaped.elapsed() > Duration::from_secs(5) {
            break s;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(net_stats.active <= 1, "stalled connection leaked");

    drop(client);
    let (_, final_stats) = net.shutdown();
    assert_eq!(final_stats.active, 0);
}

/// A connection that stalls mid-frame (bytes trickle, then a long
/// pause) is killed within the read timeout — the wire equivalent of
/// the watchdog — while a healthy client keeps being served.
#[test]
#[cfg_attr(miri, ignore = "real sockets")]
fn stalls_are_killed_within_the_read_timeout() {
    let params = params();
    let model = HdModel::random(&params, 0xC404);
    let windows = random_windows(&params, 3, 2, 0x9004);
    let expected = golden_verdicts(&model, &windows);

    let read_timeout = Duration::from_millis(80);
    let net = spawn_tcp(
        &model,
        NetConfig {
            read_timeout,
            ..NetConfig::default()
        },
    );
    let addr = net.tcp_addr().unwrap();

    // Raw slow-loris: half a valid header, then hold the socket open.
    use std::io::Write;
    let mut loris = TcpStream::connect(addr).unwrap();
    let frame =
        pulp_hd_serve::net::proto::encode_request(1, &pulp_hd_serve::net::proto::Request::Stats);
    loris.write_all(&frame[..frame.len() / 2]).unwrap();
    loris.flush().unwrap();

    // While the loris dangles, a healthy client is served normally.
    let mut healthy = NetClient::connect_tcp(addr, NetClientConfig::default()).unwrap();
    assert_eq!(healthy.classify(&windows[0]).unwrap(), expected[0]);

    // The loris must be reaped within the timeout (plus poll slack).
    let started = Instant::now();
    loop {
        let s = net.net_stats();
        if s.stalled_kills >= 1 {
            break;
        }
        assert!(
            started.elapsed() < read_timeout * 20 + Duration::from_secs(2),
            "stall guard never fired: {s:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    assert_eq!(healthy.classify(&windows[1]).unwrap(), expected[1]);
    drop(healthy);
    drop(loris);
    let (_, net_stats) = net.shutdown();
    assert_eq!(net_stats.active, 0);
}

/// A stall that follows complete frames: one `write` carries three
/// complete `Classify` frames plus a fourth frame's header and half its
/// payload, then the peer holds the socket open. The three verdicts
/// come back first, bit-identical; then the partial frame runs the
/// stall clock and the typed `Stalled` go-away (id 0) follows within
/// the read timeout plus poll slack — never sooner than the timeout.
#[test]
#[cfg_attr(miri, ignore = "real sockets")]
fn stall_after_complete_frames_answers_them_first() {
    use pulp_hd_serve::net::proto::{self, Request, Response};
    use pulp_hd_serve::net::ErrorCode;
    use std::io::{Read, Write};

    let params = params();
    let model = HdModel::random(&params, 0xC40A);
    let windows = random_windows(&params, 3, 4, 0x900A);
    let expected = golden_verdicts(&model, &windows);

    let read_timeout = Duration::from_millis(150);
    let net = spawn_tcp(
        &model,
        NetConfig {
            read_timeout,
            ..NetConfig::default()
        },
    );
    let mut peer = TcpStream::connect(net.tcp_addr().unwrap()).unwrap();
    peer.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let frame = |i: usize| {
        proto::encode_request(
            i as u64 + 1,
            &Request::Classify {
                deadline_us: 0,
                window: windows[i].clone(),
            },
        )
    };
    let mut bytes: Vec<u8> = (0..3).flat_map(frame).collect();
    let fourth = frame(3);
    let cut = proto::HEADER_LEN + (fourth.len() - proto::HEADER_LEN) / 2;
    bytes.extend_from_slice(&fourth[..cut]);
    let sent = Instant::now();
    peer.write_all(&bytes).unwrap();

    let mut read_response = || {
        let mut header = [0u8; proto::HEADER_LEN];
        peer.read_exact(&mut header).unwrap();
        let header = proto::decode_header(&header, proto::DEFAULT_MAX_FRAME).unwrap();
        let mut payload = vec![0u8; header.len as usize];
        peer.read_exact(&mut payload).unwrap();
        (
            header.id,
            proto::decode_response(&header, &payload).unwrap(),
        )
    };
    for (i, want) in expected.iter().enumerate().take(3) {
        match read_response() {
            (id, Response::Verdict(v)) => {
                assert_eq!(id, i as u64 + 1);
                assert_eq!(&v, want, "window {i}");
            }
            other => panic!("reply {i}: expected a verdict, got {other:?}"),
        }
    }
    match read_response() {
        (0, Response::Error(fault)) => assert_eq!(fault.code, ErrorCode::Stalled),
        other => panic!("expected the Stalled go-away, got {other:?}"),
    }
    let waited = sent.elapsed();
    assert!(waited >= read_timeout, "killed early, after {waited:?}");
    assert!(
        waited < read_timeout + Duration::from_secs(2),
        "go-away took {waited:?}"
    );

    let reaped = Instant::now();
    while net.net_stats().active > 0 {
        assert!(
            reaped.elapsed() < Duration::from_secs(5),
            "stalled connection leaked"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(peer);
    let (_, net_stats) = net.shutdown();
    assert_eq!(net_stats.stalled_kills, 1);
    assert_eq!(net_stats.frames, 3);
    assert_eq!(net_stats.responses, 4, "3 verdicts and the go-away");
    assert_eq!(net_stats.active, 0);
}

/// A hung backend ([`FaultKind::Hang`]) cannot take the wire down: a
/// request with a wire deadline comes back as a typed
/// `DeadlineExceeded` within its budget, and once the hang releases the
/// server serves bit-identically and shuts down clean.
#[test]
#[cfg_attr(miri, ignore = "real sockets")]
fn backend_hang_is_bounded_by_the_wire_deadline() {
    let params = params();
    let model = HdModel::random(&params, 0xC405);
    let windows = random_windows(&params, 3, 2, 0x9005);
    let expected = golden_verdicts(&model, &windows);

    let plan = FaultPlan::new().fault_at(0, FaultKind::Hang);
    let release = plan.hang_release();
    let backend = FaultBackend::new(FastBackend::try_with_threads(1).unwrap(), plan);
    let server = Server::spawn(&backend, &model, ServeConfig::default()).unwrap();
    let net = NetServer::spawn(
        server,
        &[Endpoint::Tcp("127.0.0.1:0".into())],
        NetConfig::default(),
    )
    .unwrap();

    let mut client =
        NetClient::connect_tcp(net.tcp_addr().unwrap(), NetClientConfig::default()).unwrap();

    // The first classify lands on the hung call: its 150 ms wire
    // deadline must produce a typed error, promptly, while the backend
    // thread is still stuck.
    let deadline = Duration::from_millis(150);
    let started = Instant::now();
    let err = client
        .classify_with_deadline(&windows[0], deadline)
        .unwrap_err();
    assert!(matches!(err, NetError::DeadlineExceeded), "{err}");
    assert!(
        started.elapsed() < deadline + Duration::from_secs(2),
        "deadline enforcement took {:?}",
        started.elapsed()
    );

    // Release the hang: the server is healthy again, bit-identically.
    release.release();
    assert_eq!(client.classify(&windows[1]).unwrap(), expected[1]);

    drop(client);
    // Deadline enforcement here is the *reply path* (`wait_timeout` on
    // a ticket whose batch is stuck inside the hung worker) — the
    // triage-side `deadline_expired` counter is pinned separately in
    // net_serve.rs. What matters: no leak, clean shutdown.
    let (_, net_stats) = net.shutdown();
    assert_eq!(net_stats.active, 0);
}

/// A worker panic under a wire request surfaces as a typed error (or a
/// transparently retried success — the server retries lost batches),
/// never a client hang or a server crash; subsequent requests are
/// served bit-identically.
#[test]
#[cfg_attr(miri, ignore = "real sockets")]
fn worker_panic_over_the_wire_stays_typed() {
    silence_expected_panics();
    let params = params();
    let model = HdModel::random(&params, 0xC406);
    let windows = random_windows(&params, 3, 4, 0x9006);
    let expected = golden_verdicts(&model, &windows);

    let plan = FaultPlan::new().fault_at(0, FaultKind::Panic);
    let backend = FaultBackend::new(FastBackend::try_with_threads(1).unwrap(), plan);
    let server = Server::spawn(&backend, &model, ServeConfig::default()).unwrap();
    let net = NetServer::spawn(
        server,
        &[Endpoint::Tcp("127.0.0.1:0".into())],
        NetConfig::default(),
    )
    .unwrap();

    let mut client =
        NetClient::connect_tcp(net.tcp_addr().unwrap(), NetClientConfig::default()).unwrap();

    // Call 0 panics inside the worker; the batcher's retry policy (2
    // retries by default) replays it on a respawned worker, so the
    // client sees either a clean verdict or a typed WorkerLost — never
    // a hang, never a dead server.
    match client.classify(&windows[0]) {
        Ok(v) => assert_eq!(v, expected[0]),
        Err(e) => assert!(
            matches!(e, NetError::WorkerLost(_) | NetError::Backend(_)),
            "{e}"
        ),
    }
    for (i, w) in windows.iter().enumerate().skip(1) {
        assert_eq!(client.classify(w).unwrap(), expected[i], "window {i}");
    }

    drop(client);
    let (stats, net_stats) = net.shutdown();
    assert!(stats.contained_panics >= 1);
    assert_eq!(net_stats.active, 0);
}

/// A peer that submits requests but never reads its replies fills the
/// kernel send buffer. The responder's write timeout must turn that
/// into a dead connection so graceful drain completes — instead of the
/// responder blocking forever mid-write, the reader wedging on the
/// bounded reply channel, and `shutdown` spinning on `active > 0`.
#[test]
#[cfg_attr(miri, ignore = "real sockets")]
fn non_reading_peer_cannot_wedge_drain() {
    let params = params();
    let model = HdModel::random(&params, 0xC408);
    let windows = random_windows(&params, 3, 1, 0x9008);

    let path = std::env::temp_dir().join(format!("pulp-hd-net-noread-{}.sock", std::process::id()));
    let backend = FastBackend::try_with_threads(1).unwrap();
    let server = Server::spawn(&backend, &model, ServeConfig::default()).unwrap();
    let net = NetServer::spawn(
        server,
        &[Endpoint::Uds(path.clone())],
        NetConfig {
            write_timeout: Duration::from_millis(200),
            ..NetConfig::default()
        },
    )
    .unwrap();

    // The zombie peer: pump classify frames, read nothing. Its own
    // write timeout ends the pump once the server backpressures through
    // both socket buffers (reader blocked on the full reply channel).
    use std::io::Write;
    let mut peer = std::os::unix::net::UnixStream::connect(&path).unwrap();
    peer.set_write_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let frame = pulp_hd_serve::net::proto::encode_request(
        1,
        &pulp_hd_serve::net::proto::Request::Classify {
            deadline_us: 0,
            window: windows[0].clone(),
        },
    );
    for _ in 0..20_000 {
        if peer.write_all(&frame).is_err() {
            break;
        }
    }

    // The peer's socket stays open (not reading is not the same as
    // gone) while the drain must still complete, bounded by the write
    // timeout — never by the peer deciding to read.
    let drain = std::thread::spawn(move || net.shutdown());
    let started = Instant::now();
    while !drain.is_finished() {
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "drain wedged behind a non-reading peer"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let (_, net_stats) = drain.join().unwrap();
    assert_eq!(net_stats.active, 0, "zombie connection leaked");
    drop(peer);
    assert!(!path.exists(), "socket file cleaned up");
}

/// A worker loss that escapes the server's own containment (batch retry
/// budget exhausted, per-window fallback panicked too) reaches the wire
/// as a typed `WorkerLost` fault — which the client treats as transient
/// and retries automatically, on the same connection, to a
/// bit-identical verdict.
#[test]
#[cfg_attr(miri, ignore = "real sockets")]
fn worker_lost_is_auto_retried_by_the_client() {
    silence_expected_panics();
    let params = params();
    let model = HdModel::random(&params, 0xC409);
    let windows = random_windows(&params, 3, 2, 0x9009);
    let expected = golden_verdicts(&model, &windows);

    // Call 0 is the first request's batch attempt, call 1 its
    // per-window fallback: panicking both — with the server's own retry
    // budget at zero — forces the WorkerLost onto the wire.
    let plan = FaultPlan::new()
        .fault_at(0, FaultKind::Panic)
        .fault_at(1, FaultKind::Panic);
    let backend = FaultBackend::new(FastBackend::try_with_threads(1).unwrap(), plan);
    let server = Server::spawn(
        &backend,
        &model,
        ServeConfig {
            worker_lost_retries: 0,
            ..ServeConfig::default()
        },
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
    // The client's retry budget (2 by default) absorbs the fault: the
    // caller sees only bit-identical verdicts.
    assert_eq!(client.classify(&windows[0]).unwrap(), expected[0]);
    assert_eq!(client.classify(&windows[1]).unwrap(), expected[1]);

    drop(client);
    let (stats, net_stats) = net.shutdown();
    assert!(stats.contained_panics >= 2, "{}", stats.contained_panics);
    assert_eq!(
        net_stats.accepted, 1,
        "worker loss must not cost a reconnect"
    );
    assert!(
        net_stats.frames >= 3,
        "the retry must be a fresh request frame, got {}",
        net_stats.frames
    );
}

/// The full storm: several faulty clients (disconnects, garbage,
/// truncation on scripted ops) hammer the server alongside one healthy
/// client. The server survives, the healthy client's verdicts stay
/// bit-identical throughout, and shutdown finds zero active
/// connections.
#[test]
#[cfg_attr(miri, ignore = "real sockets")]
fn fault_storm_never_perturbs_healthy_clients() {
    let params = params();
    let model = HdModel::random(&params, 0xC407);
    let windows = random_windows(&params, 3, 6, 0x9007);
    let expected = golden_verdicts(&model, &windows);

    let net = spawn_tcp(&model, NetConfig::default());
    let addr = net.tcp_addr().unwrap();

    let storm: Vec<std::thread::JoinHandle<()>> = (0..3)
        .map(|k| {
            let windows = windows.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let fault = match k {
                    0 => TransportFault::Disconnect,
                    1 => TransportFault::Garbage,
                    _ => TransportFault::Truncate,
                };
                // Fault a different early op per client; later ops are
                // clean so every client must converge to correct
                // verdicts through retries.
                let plan = TransportPlan::new(0x5708 + k)
                    .fault_write(k, fault)
                    .fault_read(k + 1, fault);
                let mut client = faulty_client(addr, plan, NetClientConfig::default());
                for (i, w) in windows.iter().enumerate() {
                    match client.classify(w) {
                        Ok(v) => assert_eq!(v, expected[i], "storm {k} window {i}"),
                        // A fault can land as a non-retryable typed
                        // error (e.g. the server killed the scrambled
                        // connection faster than the retry); what it
                        // must never be is a panic or a hang.
                        Err(e) => assert!(
                            matches!(
                                e,
                                NetError::Io(_)
                                    | NetError::Timeout
                                    | NetError::Protocol(_)
                                    | NetError::WorkerLost(_)
                            ),
                            "storm {k} window {i}: {e}"
                        ),
                    }
                }
            })
        })
        .collect();

    let mut healthy = NetClient::connect_tcp(addr, NetClientConfig::default()).unwrap();
    for round in 0..4 {
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(
                healthy.classify(w).unwrap(),
                expected[i],
                "healthy round {round} window {i}"
            );
        }
    }
    for handle in storm {
        handle.join().unwrap();
    }

    drop(healthy);
    let (_, net_stats) = net.shutdown();
    assert_eq!(net_stats.active, 0, "storm leaked connections");
}

/// `FaultTransport` clones share fault state: a stream cloned for the
/// reply path sees the same op counters, so scripted faults fire once
/// across both halves (the invariant the server's reader/responder
/// split depends on).
#[test]
#[cfg_attr(miri, ignore = "real sockets")]
fn fault_transport_clones_share_state() {
    use std::io::{Read, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let echo = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let mut buf = [0u8; 4];
        while let Ok(()) = s.read_exact(&mut buf) {
            if s.write_all(&buf).is_err() {
                break;
            }
        }
    });

    let stream = TcpStream::connect(addr).unwrap();
    let plan = TransportPlan::new(0xC10E).fault_write(1, TransportFault::Disconnect);
    let mut a = FaultTransport::new(stream, plan);
    let mut b = a.try_clone_stream().unwrap();

    // Write 0 through clone `a` is clean; write 1 through clone `b`
    // must hit the shared fault even though `b` never wrote before.
    a.write_all(&[1, 2, 3, 4]).unwrap();
    a.flush().unwrap();
    let mut buf = [0u8; 4];
    a.read_exact(&mut buf).unwrap();
    assert_eq!(buf, [1, 2, 3, 4]);
    assert!(
        b.write_all(&[5, 6, 7, 8]).and_then(|()| b.flush()).is_err()
            || b.read_exact(&mut buf).is_err(),
        "shared op counter missed the scripted fault"
    );
    drop(a);
    drop(b);
    echo.join().unwrap();
}
