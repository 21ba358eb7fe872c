//! Receive memory follows the bytes a peer sends, not the length its
//! header declares. A header may claim up to `max_frame` (4 MiB by
//! default) of payload; if the server reserved that much on sight, a
//! few peers trickling one byte per read timeout could pin gigabytes.
//! A counting global allocator measures the server's live heap while
//! such peers sit mid-frame.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use hdc::rng::Xoshiro256PlusPlus;
use pulp_hd_core::backend::{ExecutionBackend, FastBackend, GoldenBackend, HdModel};
use pulp_hd_core::layout::AccelParams;
use pulp_hd_serve::net::{proto, Endpoint, NetClient, NetClientConfig, NetConfig, NetServer};
use pulp_hd_serve::{ServeConfig, Server};

/// Bytes currently allocated, and the most ever allocated at once
/// since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(bytes: usize) {
    // ORDERING: Relaxed — independent counters read after the threads
    // that allocate have gone quiet; no other memory hangs off them.
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    // ORDERING: Relaxed, as in `grew`.
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System` upholds the `GlobalAlloc` contract; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim, as in `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const PEERS: usize = 16;
const PAYLOAD_SENT: usize = 100;

/// Sixteen peers each send a header declaring `DEFAULT_MAX_FRAME` bytes
/// of payload plus 100 of them, then wait. The server's live heap grows
/// by well under 1 MiB (it would grow by 64 MiB if each header reserved
/// its declared length), and the server keeps serving bit-identical
/// verdicts and shuts down with no connection left.
#[test]
#[cfg_attr(miri, ignore = "real sockets")]
fn declared_frame_lengths_reserve_no_receive_memory() {
    let params = AccelParams {
        n_words: 16,
        ngram: 2,
        ..AccelParams::emg_default()
    };
    let model = HdModel::random(&params, 0xA110C);
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xA11);
    let window: Vec<Vec<u16>> = (0..3)
        .map(|_| {
            (0..params.channels)
                .map(|_| (rng.next_u32() & 0xffff) as u16)
                .collect()
        })
        .collect();
    let expected = GoldenBackend
        .prepare(&model)
        .unwrap()
        .classify_batch(std::slice::from_ref(&window))
        .unwrap()
        .remove(0);

    let path = std::env::temp_dir().join(format!("pulp-hd-net-alloc-{}.sock", std::process::id()));
    let backend = FastBackend::try_with_threads(1).unwrap();
    let server = Server::spawn(&backend, &model, ServeConfig::default()).unwrap();
    let net = NetServer::spawn(
        server,
        &[Endpoint::Uds(path.clone())],
        NetConfig {
            // Long enough that no peer is reaped while the heap is read.
            read_timeout: Duration::from_secs(30),
            ..NetConfig::default()
        },
    )
    .unwrap();

    let mut claim = proto::frame(proto::kind::CLASSIFY, 1, &[0xAB; PAYLOAD_SENT]);
    claim[16..20].copy_from_slice(&proto::DEFAULT_MAX_FRAME.to_le_bytes());

    // ORDERING: Relaxed counters (see `grew`).
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let peers: Vec<UnixStream> = (0..PEERS)
        .map(|_| {
            let mut peer = UnixStream::connect(&path).unwrap();
            peer.write_all(&claim).unwrap();
            peer
        })
        .collect();
    // Every connection accepted, then time for each to read its bytes.
    let started = Instant::now();
    while net.net_stats().active < PEERS as u64 {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "peers never accepted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(300));
    let grown = PEAK.load(Ordering::Relaxed).saturating_sub(baseline);
    assert!(
        grown < 1 << 20,
        "{PEERS} declared {} MiB frames grew the heap by {} KiB",
        proto::DEFAULT_MAX_FRAME >> 20,
        grown >> 10
    );

    drop(peers);
    let mut client = NetClient::connect_uds(&path, NetClientConfig::default()).unwrap();
    assert_eq!(client.classify(&window).unwrap(), expected);
    drop(client);
    let (_, net_stats) = net.shutdown();
    assert_eq!(net_stats.active, 0, "no leaked connections");
    assert_eq!(net_stats.accepted, PEERS as u64 + 1);
}
