//! Fuzz-style robustness tests for the wire codec — the first
//! installment of the ROADMAP fuzzing item, mirroring miden-vm's
//! differential-fuzz pattern: drive the decoder with arbitrary,
//! truncated, and bit-flipped byte streams and pin that it **never
//! panics** — every input yields a valid frame or a typed
//! [`WireError`] — and that every encodable value round-trips
//! bit-exactly.

use std::time::Duration;

use hdc::rng::Xoshiro256PlusPlus;
use pulp_hd_core::backend::{BinaryHv, CycleBreakdown, Verdict, VerdictSource};
use pulp_hd_serve::net::proto::{
    self, decode_header, decode_request, decode_response, encode_request, encode_response,
    encode_response_into, FrameHeader, HealthReport, Request, Response, WireFault,
};
use pulp_hd_serve::net::ErrorCode;
use pulp_hd_serve::ServerStats;

const MAX_FRAME: u32 = 4 * 1024 * 1024;

/// Decodes bytes the way the server does: header first, then the
/// payload against both request and response decoders. Every path must
/// return, never panic.
fn decode_all(bytes: &[u8]) {
    let Ok(header) = decode_header(bytes, MAX_FRAME) else {
        return;
    };
    let payload = bytes
        .get(proto::HEADER_LEN..proto::HEADER_LEN + header.len as usize)
        .unwrap_or(&[]);
    let _ = decode_request(&header, payload);
    let _ = decode_response(&header, payload);
}

#[test]
#[cfg_attr(
    miri,
    ignore = "large randomized corpus; the audit fuzzer covers proto under Miri-sized budgets"
)]
fn arbitrary_bytes_never_panic_the_decoder() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xF422);
    for round in 0..5_000 {
        let len = (rng.next_u32() % 256) as usize;
        let mut bytes: Vec<u8> = (0..len).map(|_| (rng.next_u32() & 0xff) as u8).collect();
        decode_all(&bytes);
        // A second pass with valid magic/version forced in, so the
        // payload decoders actually run instead of dying at the magic
        // check.
        if bytes.len() >= proto::HEADER_LEN {
            bytes[..4].copy_from_slice(&proto::MAGIC.to_le_bytes());
            bytes[4] = proto::VERSION;
            bytes[6] = 0;
            bytes[7] = 0;
            // Keep the declared length pointing inside the buffer often
            // enough to exercise full payload decodes.
            if round % 2 == 0 {
                let payload_len = (bytes.len() - proto::HEADER_LEN) as u32;
                bytes[16..20].copy_from_slice(&payload_len.to_le_bytes());
            }
            decode_all(&bytes);
        }
    }
}

fn sample_windows(rng: &mut Xoshiro256PlusPlus, count: usize) -> Vec<Vec<Vec<u16>>> {
    (0..count)
        .map(|_| {
            let samples = 1 + (rng.next_u32() % 4) as usize;
            let channels = 1 + (rng.next_u32() % 5) as usize;
            (0..samples)
                .map(|_| {
                    (0..channels)
                        .map(|_| (rng.next_u32() & 0xffff) as u16)
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn sample_verdict(rng: &mut Xoshiro256PlusPlus) -> Verdict {
    let n_dist = 1 + (rng.next_u32() % 8) as usize;
    let n_words = 1 + (rng.next_u32() % 16) as usize;
    Verdict {
        class: (rng.next_u32() % 64) as usize,
        distances: (0..n_dist).map(|_| rng.next_u32() % 10_000).collect(),
        query: BinaryHv::from_words((0..n_words).map(|_| rng.next_u32()).collect()),
        cycles: if rng.next_u32().is_multiple_of(2) {
            None
        } else {
            Some(CycleBreakdown {
                map_encode: u64::from(rng.next_u32()),
                am: u64::from(rng.next_u32()),
                total: u64::from(rng.next_u32()),
            })
        },
        source: match rng.next_u32() % 3 {
            0 => VerdictSource::Scan,
            1 => VerdictSource::EarlyAccept,
            _ => VerdictSource::CacheHit,
        },
    }
}

fn sample_stats(rng: &mut Xoshiro256PlusPlus) -> ServerStats {
    ServerStats {
        completed: u64::from(rng.next_u32()),
        rejected: u64::from(rng.next_u32()),
        batches: u64::from(rng.next_u32()),
        mean_batch: f64::from(rng.next_u32()) / 7.0,
        p50_us: u64::from(rng.next_u32()),
        p95_us: u64::from(rng.next_u32()),
        p99_us: u64::from(rng.next_u32()),
        latency_max_us: u64::from(rng.next_u32()),
        latency_mean_us: f64::from(rng.next_u32()) / 3.0,
        batch_service_max_us: u64::from(rng.next_u32()),
        batch_service_mean_us: f64::from(rng.next_u32()) / 11.0,
        elapsed: Duration::from_nanos(u64::from(rng.next_u32())),
        windows_per_sec: f64::from(rng.next_u32()) / 13.0,
        deadline_expired: u64::from(rng.next_u32()),
        retried_batches: u64::from(rng.next_u32()),
        contained_panics: u64::from(rng.next_u32()),
        cache_hits: u64::from(rng.next_u32()),
        cache_misses: u64::from(rng.next_u32()),
        cache_evictions: u64::from(rng.next_u32()),
    }
}

fn sample_requests(rng: &mut Xoshiro256PlusPlus) -> Vec<Request> {
    vec![
        Request::Classify {
            deadline_us: u64::from(rng.next_u32()),
            window: sample_windows(rng, 1).pop().unwrap(),
        },
        Request::ClassifyBatch {
            deadline_us: 0,
            windows: sample_windows(rng, 3),
        },
        Request::ClassifyBatch {
            deadline_us: 17,
            windows: Vec::new(),
        },
        Request::Stats,
        Request::Health,
    ]
}

fn sample_responses(rng: &mut Xoshiro256PlusPlus) -> Vec<Response> {
    vec![
        Response::Verdict(sample_verdict(rng)),
        Response::VerdictBatch(vec![
            Ok(sample_verdict(rng)),
            Err(WireFault::new(ErrorCode::Overloaded, "queue full")),
            Ok(sample_verdict(rng)),
            Err(WireFault::new(ErrorCode::DeadlineExceeded, "")),
        ]),
        Response::Stats(sample_stats(rng)),
        Response::Health(HealthReport { serving: true }),
        Response::Health(HealthReport { serving: false }),
        Response::Error(WireFault::new(ErrorCode::Malformed, "bad frame: \u{1F980}")),
    ]
}

/// Every encodable request and response round-trips bit-exactly —
/// including the full `ServerStats` (f64 fields, fault and cache
/// counters) and verdicts with their query hypervectors.
#[test]
#[cfg_attr(
    miri,
    ignore = "large randomized corpus; the audit fuzzer covers proto under Miri-sized budgets"
)]
fn requests_and_responses_round_trip_exactly() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x5EED);
    for _ in 0..50 {
        for (i, request) in sample_requests(&mut rng).into_iter().enumerate() {
            let id = 1000 + i as u64;
            let bytes = encode_request(id, &request);
            let header = decode_header(&bytes, MAX_FRAME).unwrap();
            assert_eq!(header.id, id);
            assert_eq!(header.len as usize, bytes.len() - proto::HEADER_LEN);
            let decoded = decode_request(&header, &bytes[proto::HEADER_LEN..]).unwrap();
            assert_eq!(decoded, request);
        }
        for (i, response) in sample_responses(&mut rng).into_iter().enumerate() {
            let id = 2000 + i as u64;
            let bytes = encode_response(id, &response);
            let header = decode_header(&bytes, MAX_FRAME).unwrap();
            assert_eq!(header.id, id);
            let decoded = decode_response(&header, &bytes[proto::HEADER_LEN..]).unwrap();
            assert_eq!(decoded, response);
        }
    }
}

/// Every strict prefix of a valid frame decodes to a typed error (and
/// never panics): truncation anywhere in the stream is survivable.
#[test]
#[cfg_attr(
    miri,
    ignore = "large randomized corpus; the audit fuzzer covers proto under Miri-sized budgets"
)]
fn truncated_valid_frames_yield_typed_errors() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x7A11);
    let mut frames: Vec<Vec<u8>> = Vec::new();
    for request in sample_requests(&mut rng) {
        frames.push(encode_request(7, &request));
    }
    for response in sample_responses(&mut rng) {
        frames.push(encode_response(9, &response));
    }
    for bytes in &frames {
        let header = decode_header(bytes, MAX_FRAME).unwrap();
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            if cut < proto::HEADER_LEN {
                assert!(decode_header(prefix, MAX_FRAME).is_err(), "cut at {cut}");
            } else {
                // Header intact, payload truncated: the payload decoders
                // must reject without panicking.
                let payload = &prefix[proto::HEADER_LEN..];
                assert!(
                    decode_request(&header, payload).is_err()
                        || decode_response(&header, payload).is_err(),
                    "cut at {cut} decoded both ways despite missing bytes"
                );
                let _ = decode_request(&header, payload);
                let _ = decode_response(&header, payload);
            }
        }
    }
}

/// Flipping any single bit of a valid frame never panics the decoder:
/// the result is either a typed error or a (different but) valid frame.
#[test]
#[cfg_attr(
    miri,
    ignore = "large randomized corpus; the audit fuzzer covers proto under Miri-sized budgets"
)]
fn bit_flipped_frames_never_panic() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xB1F1);
    let mut frames: Vec<Vec<u8>> = Vec::new();
    for request in sample_requests(&mut rng) {
        frames.push(encode_request(3, &request));
    }
    for response in sample_responses(&mut rng) {
        frames.push(encode_response(5, &response));
    }
    for bytes in &frames {
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                decode_all(&flipped);
            }
        }
    }
}

/// A window header claiming samples with zero channels needs zero
/// payload bytes, so the remaining-bytes check alone cannot bound it:
/// each claimed sample still costs a `Vec` header (~24 bytes) at
/// decode. 8 bytes on the wire must never demand megabytes of live
/// allocation — the decoder rejects the shape outright.
#[test]
#[cfg_attr(
    miri,
    ignore = "large randomized corpus; the audit fuzzer covers proto under Miri-sized budgets"
)]
fn zero_channel_windows_are_rejected_before_allocation() {
    // Classify: one window claiming the full sample cap, zero channels.
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u64.to_le_bytes());
    payload.extend_from_slice(&(1u32 << 20).to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    let bytes = proto::frame(proto::kind::CLASSIFY, 1, &payload);
    let header = decode_header(&bytes, MAX_FRAME).unwrap();
    assert!(matches!(
        decode_request(&header, &bytes[proto::HEADER_LEN..]),
        Err(proto::WireError::Malformed(_))
    ));

    // The batch amplification: a ~512 KiB frame of 8-byte windows, each
    // claiming the sample cap (65536 × 2^20 Vec headers ≈ terabytes if
    // believed), dies the same typed death under the 4 MiB frame cap.
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u64.to_le_bytes());
    payload.extend_from_slice(&(1u32 << 16).to_le_bytes());
    for _ in 0..(1u32 << 16) {
        payload.extend_from_slice(&(1u32 << 20).to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
    }
    let bytes = proto::frame(proto::kind::CLASSIFY_BATCH, 2, &payload);
    let header = decode_header(&bytes, MAX_FRAME).unwrap();
    assert!(matches!(
        decode_request(&header, &bytes[proto::HEADER_LEN..]),
        Err(proto::WireError::Malformed(_))
    ));

    // Degenerate-but-honest windows still pass: the encoder normalizes
    // both the empty window and a window of zero-width samples to the
    // empty window, which decodes cleanly.
    for window in [Vec::new(), vec![Vec::new(); 3]] {
        let bytes = encode_request(
            3,
            &Request::Classify {
                deadline_us: 7,
                window,
            },
        );
        let header = decode_header(&bytes, MAX_FRAME).unwrap();
        assert_eq!(
            decode_request(&header, &bytes[proto::HEADER_LEN..]).unwrap(),
            Request::Classify {
                deadline_us: 7,
                window: Vec::new(),
            }
        );
    }
}

/// The header checks fire in a useful order: corrupt magic is
/// `BadMagic`, a wrong version is `BadVersion`, an oversized declared
/// payload is `TooLarge` (the slow-loris/allocation guard), and a
/// too-small cap is enforced.
#[test]
#[cfg_attr(
    miri,
    ignore = "large randomized corpus; the audit fuzzer covers proto under Miri-sized budgets"
)]
fn header_rejections_are_typed() {
    let frame = encode_request(1, &Request::Stats);
    let header: FrameHeader = decode_header(&frame, MAX_FRAME).unwrap();
    assert_eq!(header.kind, proto::kind::STATS);

    let mut bad_magic = frame.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        decode_header(&bad_magic, MAX_FRAME),
        Err(proto::WireError::BadMagic(_))
    ));

    // A version-1 peer (whose stats and health frames still carried
    // shard lists) is refused like any other unknown version.
    for version in [1u8, 99] {
        let mut bad_version = frame.clone();
        bad_version[4] = version;
        assert!(matches!(
            decode_header(&bad_version, MAX_FRAME),
            Err(proto::WireError::BadVersion(v)) if v == version
        ));
    }

    let mut huge = frame.clone();
    huge[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode_header(&huge, MAX_FRAME),
        Err(proto::WireError::TooLarge { .. })
    ));

    // A big batch frame against a tiny cap: rejected at the header, so
    // the reader never allocates the payload.
    let big = encode_request(
        2,
        &Request::ClassifyBatch {
            deadline_us: 0,
            windows: vec![vec![vec![0u16; 64]; 8]; 4],
        },
    );
    assert!(matches!(
        decode_header(&big, 16),
        Err(proto::WireError::TooLarge { .. })
    ));
}

/// A `Classify` request (a 3×4 window with a 250 ms deadline), as the
/// wire carries it. Any change to these bytes is a protocol change.
const GOLDEN_REQUEST: &str = concat!(
    "4e484431020100000807060504030201280000",
    "0090d003000000000003000000040000000100",
    "03020504feff110000000010ffff2c012d012e012f01",
);

/// A `Verdict` response (5 distances, a 4-word query, cycle counts, an
/// early-accept source), as the wire carries it.
const GOLDEN_VERDICT: &str = concat!(
    "4e4844310281000008070605040302014a0000",
    "00030000000101d20400000000000037020000",
    "0000000009070000000000000500000004100000",
    "960f000094130000110000000010000004000000",
    "efbeadde67452301efcdab8901000080",
);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The wire format, byte for byte: the encoder — standalone and in
/// place after other bytes — reproduces the committed golden frames,
/// and they decode back to the values that produced them.
#[test]
fn encoder_reproduces_golden_bytes() {
    const ID: u64 = 0x0102_0304_0506_0708;
    let request = Request::Classify {
        deadline_us: 250_000,
        window: vec![
            vec![0x0001, 0x0203, 0x0405, 0xfffe],
            vec![17, 0, 4096, 65535],
            vec![300, 301, 302, 303],
        ],
    };
    let response = Response::Verdict(Verdict {
        class: 3,
        distances: vec![4100, 3990, 5012, 17, 4096],
        query: BinaryHv::from_words(vec![0xDEAD_BEEF, 0x0123_4567, 0x89AB_CDEF, 0x8000_0001]),
        cycles: Some(CycleBreakdown {
            map_encode: 1234,
            am: 567,
            total: 1801,
        }),
        source: VerdictSource::EarlyAccept,
    });

    let bytes = encode_request(ID, &request);
    assert_eq!(hex(&bytes), GOLDEN_REQUEST);
    let header = decode_header(&bytes, MAX_FRAME).unwrap();
    assert_eq!(
        decode_request(&header, &bytes[proto::HEADER_LEN..]).unwrap(),
        request
    );

    let bytes = encode_response(ID, &response);
    assert_eq!(hex(&bytes), GOLDEN_VERDICT);
    let header = decode_header(&bytes, MAX_FRAME).unwrap();
    assert_eq!(
        decode_response(&header, &bytes[proto::HEADER_LEN..]).unwrap(),
        response
    );

    let mut appended = b"earlier frames".to_vec();
    encode_response_into(&mut appended, ID, &response);
    assert_eq!(&appended[..14], b"earlier frames");
    assert_eq!(hex(&appended[14..]), GOLDEN_VERDICT);
}
