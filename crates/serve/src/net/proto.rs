//! The wire codec: length-prefixed binary frames, no I/O.
//!
//! Every frame is a fixed 20-byte header followed by `payload_len`
//! bytes of payload, all little-endian:
//!
//! ```text
//! offset  size  field
//! 0       4     magic        0x3144_484E ("NHD1" LE)
//! 4       1     version      3
//! 5       1     kind         request/response discriminant
//! 6       2     reserved     must be 0
//! 8       8     request_id   echoed verbatim in the response
//! 16      4     payload_len  bytes that follow (bounded by max_frame)
//! ```
//!
//! The decoder is the robustness boundary of the whole net layer: it is
//! driven by arbitrary bytes from the network, so **every** path is
//! bounds-checked and returns a typed [`WireError`] — never a panic,
//! never an unbounded allocation (length fields are capped *and*
//! checked against the bytes actually present before anything is
//! reserved). `tests/proto_fuzz.rs` pins this with arbitrary, truncated
//! and bit-flipped streams.

use std::time::Duration;

use pulp_hd_core::backend::{BinaryHv, CycleBreakdown, Verdict, VerdictSource};

use crate::ServerStats;

/// Frame magic, little-endian `"NHD1"`.
pub const MAGIC: u32 = 0x3144_484E;
/// Protocol version carried in every header. Version 2 dropped the
/// per-shard lists from the stats and health payloads. Version 3
/// dropped verdict source 1 (the threshold scan's early accept), which
/// now decodes as [`WireError::Malformed`]. A peer of any other version
/// is refused with [`WireError::BadVersion`].
pub const VERSION: u8 = 3;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 20;
/// Default per-frame payload cap (4 MiB) — see
/// [`NetConfig::max_frame`](crate::net::NetConfig::max_frame).
pub const DEFAULT_MAX_FRAME: u32 = 4 * 1024 * 1024;

/// Request kinds (client → server).
pub mod kind {
    /// Classify one window.
    pub const CLASSIFY: u8 = 0x01;
    /// Classify a batch of windows in one frame.
    pub const CLASSIFY_BATCH: u8 = 0x02;
    /// Snapshot the server's [`ServerStats`](crate::ServerStats).
    pub const STATS: u8 = 0x03;
    /// Liveness probe.
    pub const HEALTH: u8 = 0x04;
    /// Response: one verdict.
    pub const R_VERDICT: u8 = 0x81;
    /// Response: per-window verdicts/faults for a batch.
    pub const R_VERDICT_BATCH: u8 = 0x82;
    /// Response: a stats snapshot.
    pub const R_STATS: u8 = 0x83;
    /// Response: a health report.
    pub const R_HEALTH: u8 = 0x84;
    /// Response: a typed fault (request-level failure).
    pub const R_ERROR: u8 = 0xEE;
}

/// Caps on the list-length fields a peer can claim, enforced *before*
/// any allocation. Combined with the remaining-bytes check they bound
/// decoder memory to a small multiple of the received frame.
const MAX_BATCH: u32 = 1 << 16;
const MAX_SAMPLES: u32 = 1 << 20;
const MAX_CHANNELS: u32 = 1 << 16;
const MAX_VEC: u32 = 1 << 20;
const MAX_DETAIL: u32 = 1 << 16;

/// A decoding failure: the frame (or stream position) is not a valid
/// protocol frame. Always a value, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the structure requires.
    Truncated {
        /// Bytes the structure needed.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// The magic bytes are not [`MAGIC`] — the peer is not speaking
    /// this protocol (or the stream is corrupt/desynchronized).
    BadMagic(u32),
    /// The version byte is not [`VERSION`].
    BadVersion(u8),
    /// The kind byte names no known frame type.
    UnknownKind(u8),
    /// The declared payload length exceeds the configured frame cap.
    TooLarge {
        /// Declared payload length.
        len: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// Structurally invalid payload (bad discriminant, length field
    /// over its cap, trailing bytes, …).
    Malformed(&'static str),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            Self::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            Self::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            Self::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            Self::TooLarge { len, max } => {
                write!(f, "frame payload {len} bytes exceeds cap {max}")
            }
            Self::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame kind (one of the [`kind`] constants, or unknown — payload
    /// decoding rejects unknowns so the server can answer with a typed
    /// error that echoes the request id).
    pub kind: u8,
    /// Request id, echoed in the response (0 is reserved for
    /// server-initiated frames such as the shutdown go-away).
    pub id: u64,
    /// Payload bytes following the header.
    pub len: u32,
}

/// One request window: `samples × channels` quantized codes.
pub type Window = Vec<Vec<u16>>;

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Classify one window; `deadline_us` 0 means no deadline.
    Classify {
        /// Per-request deadline in microseconds from receipt (0 = none).
        deadline_us: u64,
        /// The window to classify.
        window: Window,
    },
    /// Classify many windows in one frame (one verdict-or-fault each).
    ClassifyBatch {
        /// Per-request deadline in microseconds from receipt (0 = none),
        /// applied to every window in the batch.
        deadline_us: u64,
        /// The windows to classify.
        windows: Vec<Window>,
    },
    /// Snapshot the server's stats.
    Stats,
    /// Liveness probe.
    Health,
}

/// A request-level failure, carried on the wire with a stable numeric
/// code plus a human-readable detail string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFault {
    /// What failed (stable across releases; match on this).
    pub code: ErrorCode,
    /// Human-readable detail (free-form; do not match on this).
    pub detail: String,
}

impl WireFault {
    /// A fault with the given code and detail.
    pub fn new(code: ErrorCode, detail: impl Into<String>) -> Self {
        Self {
            code,
            detail: detail.into(),
        }
    }
}

/// Stable wire error codes, mirroring
/// [`ServeError`](crate::ServeError) plus the transport-level failures
/// only a network front-end can have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The backend rejected this request
    /// ([`ServeError::Backend`](crate::ServeError::Backend)).
    Backend = 1,
    /// A contained worker loss — safe to retry
    /// ([`BackendError::WorkerLost`](pulp_hd_core::backend::BackendError::WorkerLost)).
    WorkerLost = 2,
    /// Shed by backpressure: the bounded queue or this connection's
    /// in-flight window is full
    /// ([`TrySubmitError::Overloaded`](crate::TrySubmitError::Overloaded)).
    Overloaded = 3,
    /// The request's deadline expired before service
    /// ([`ServeError::DeadlineExceeded`](crate::ServeError::DeadlineExceeded)).
    DeadlineExceeded = 4,
    /// The server is shut down or draining
    /// ([`ServeError::Closed`](crate::ServeError::Closed)).
    Closed = 5,
    /// The batcher thread died
    /// ([`ServeError::ServerDied`](crate::ServeError::ServerDied)).
    ServerDied = 6,
    /// The frame could not be decoded; the server closes the connection
    /// after sending this.
    Malformed = 7,
    /// The frame exceeded the server's
    /// [`max_frame`](crate::net::NetConfig::max_frame); connection
    /// closed after sending this.
    TooLarge = 8,
    /// The peer stalled mid-frame past the server's read timeout
    /// (slow-loris defense); connection closed after sending this.
    Stalled = 9,
}

impl ErrorCode {
    /// The code for a wire byte, if it names one.
    #[must_use]
    pub fn from_u8(byte: u8) -> Option<Self> {
        Some(match byte {
            1 => Self::Backend,
            2 => Self::WorkerLost,
            3 => Self::Overloaded,
            4 => Self::DeadlineExceeded,
            5 => Self::Closed,
            6 => Self::ServerDied,
            7 => Self::Malformed,
            8 => Self::TooLarge,
            9 => Self::Stalled,
            _ => return None,
        })
    }
}

/// A liveness report: [`kind::HEALTH`]'s response payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// `true` while the server accepts new requests (flips to `false`
    /// when draining).
    pub serving: bool,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// One verdict for a [`Request::Classify`].
    Verdict(Verdict),
    /// Per-window results for a [`Request::ClassifyBatch`].
    VerdictBatch(Vec<Result<Verdict, WireFault>>),
    /// A stats snapshot for a [`Request::Stats`].
    Stats(ServerStats),
    /// A health report for a [`Request::Health`].
    Health(HealthReport),
    /// A request-level fault (any request kind).
    Error(WireFault),
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// The bytes of `s` that go on the wire: at most [`MAX_DETAIL`], cut on
/// a char boundary so the wire always carries valid UTF-8 (details are
/// human-readable diagnostics; losing a tail is fine, sending invalid
/// UTF-8 is not).
fn detail_bytes(s: &str) -> &[u8] {
    let mut end = s.len().min(MAX_DETAIL as usize);
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    &s.as_bytes()[..end]
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = detail_bytes(s);
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// A length-prefixed `u32` list, copied in one pass.
fn put_u32s(out: &mut Vec<u8>, values: &[u32]) {
    put_u32(out, values.len() as u32);
    let start = out.len();
    out.resize(start + 4 * values.len(), 0);
    for (dst, v) in out[start..].chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// `(samples, channels)` as the wire carries them. A window of
/// zero-width samples carries no data; it is normalized to the empty
/// window so the encoder never emits the `channels == 0 && samples > 0`
/// shape the decoder rejects.
fn window_shape(window: &[Vec<u16>]) -> (usize, usize) {
    let channels = window.first().map_or(0, Vec::len);
    let samples = if channels == 0 { 0 } else { window.len() };
    (samples, channels)
}

fn put_window(out: &mut Vec<u8>, window: &[Vec<u16>]) {
    let (samples, channels) = window_shape(window);
    put_u32(out, samples as u32);
    put_u32(out, channels as u32);
    if samples == 0 {
        return;
    }
    // Ragged windows are invalid inputs; pad (the zero fill) or truncate
    // (the zip) each sample to the first sample's width so the frame
    // stays self-consistent and the backend's own validation reports
    // the real problem.
    let start = out.len();
    out.resize(start + 2 * samples * channels, 0);
    for (dst, sample) in out[start..].chunks_exact_mut(2 * channels).zip(window) {
        for (d, v) in dst.chunks_exact_mut(2).zip(sample) {
            d.copy_from_slice(&v.to_le_bytes());
        }
    }
}

fn put_verdict(out: &mut Vec<u8>, v: &Verdict) {
    put_u32(out, v.class as u32);
    out.push(match v.source {
        VerdictSource::Scan => 0,
        VerdictSource::CacheHit => 2,
    });
    match &v.cycles {
        None => out.push(0),
        Some(c) => {
            out.push(1);
            put_u64(out, c.map_encode);
            put_u64(out, c.am);
            put_u64(out, c.total);
        }
    }
    put_u32s(out, &v.distances);
    put_u32s(out, v.query.words());
}

fn put_fault(out: &mut Vec<u8>, fault: &WireFault) {
    out.push(fault.code as u8);
    put_str(out, &fault.detail);
}

fn put_stats(out: &mut Vec<u8>, s: &ServerStats) {
    put_u64(out, s.completed);
    put_u64(out, s.rejected);
    put_u64(out, s.batches);
    put_f64(out, s.mean_batch);
    put_u64(out, s.p50_us);
    put_u64(out, s.p95_us);
    put_u64(out, s.p99_us);
    put_u64(out, s.latency_max_us);
    put_f64(out, s.latency_mean_us);
    put_u64(out, s.batch_service_max_us);
    put_f64(out, s.batch_service_mean_us);
    put_u64(out, u64::try_from(s.elapsed.as_nanos()).unwrap_or(u64::MAX));
    put_f64(out, s.windows_per_sec);
    put_u64(out, s.deadline_expired);
    put_u64(out, s.retried_batches);
    put_u64(out, s.contained_panics);
    put_u64(out, s.cache_hits);
    put_u64(out, s.cache_misses);
    put_u64(out, s.cache_evictions);
}

fn verdict_len(v: &Verdict) -> usize {
    let cycles = if v.cycles.is_some() { 24 } else { 0 };
    4 + 1 + 1 + cycles + 4 + 4 * v.distances.len() + 4 + 4 * v.query.words().len()
}

fn fault_len(fault: &WireFault) -> usize {
    1 + 4 + detail_bytes(&fault.detail).len()
}

/// The full frame size (header included) [`encode_request`] produces.
fn request_len(req: &Request) -> usize {
    let window_len = |w: &[Vec<u16>]| {
        let (samples, channels) = window_shape(w);
        8 + 2 * samples * channels
    };
    HEADER_LEN
        + match req {
            Request::Classify { window, .. } => 8 + window_len(window),
            Request::ClassifyBatch { windows, .. } => {
                8 + 4 + windows.iter().map(|w| window_len(w)).sum::<usize>()
            }
            Request::Stats | Request::Health => 0,
        }
}

/// The full frame size (header included) [`encode_response_into`]
/// appends — what the server checks against its reply buffer's room.
pub(crate) fn response_len(resp: &Response) -> usize {
    HEADER_LEN
        + match resp {
            Response::Verdict(v) => verdict_len(v),
            Response::VerdictBatch(items) => {
                4 + items
                    .iter()
                    .map(|item| 1 + item.as_ref().map_or_else(fault_len, verdict_len))
                    .sum::<usize>()
            }
            Response::Stats(_) => 19 * 8,
            Response::Health(_) => 1,
            Response::Error(fault) => fault_len(fault),
        }
}

/// Appends a header whose length field is 0 until [`end_frame`]
/// patches it; returns the frame's start offset.
fn begin_frame(out: &mut Vec<u8>, kind: u8, id: u64) -> usize {
    let start = out.len();
    put_u32(out, MAGIC);
    out.push(VERSION);
    out.push(kind);
    put_u16(out, 0);
    put_u64(out, id);
    put_u32(out, 0);
    start
}

/// Patches the length field of the frame begun at `start` to the
/// payload bytes written since.
fn end_frame(out: &mut [u8], start: usize) {
    let len = (out.len() - start - HEADER_LEN) as u32;
    out[start + HEADER_LEN - 4..start + HEADER_LEN].copy_from_slice(&len.to_le_bytes());
}

/// Wraps `payload` in a frame header, producing the full wire bytes.
#[must_use]
pub fn frame(kind: u8, id: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    let start = begin_frame(&mut out, kind, id);
    out.extend_from_slice(payload);
    end_frame(&mut out, start);
    out
}

/// Encodes one request as a complete frame.
#[must_use]
pub fn encode_request(id: u64, req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(request_len(req));
    let kind = match req {
        Request::Classify { .. } => kind::CLASSIFY,
        Request::ClassifyBatch { .. } => kind::CLASSIFY_BATCH,
        Request::Stats => kind::STATS,
        Request::Health => kind::HEALTH,
    };
    let start = begin_frame(&mut out, kind, id);
    match req {
        Request::Classify {
            deadline_us,
            window,
        } => {
            put_u64(&mut out, *deadline_us);
            put_window(&mut out, window);
        }
        Request::ClassifyBatch {
            deadline_us,
            windows,
        } => {
            put_u64(&mut out, *deadline_us);
            put_u32(&mut out, windows.len() as u32);
            for w in windows {
                put_window(&mut out, w);
            }
        }
        Request::Stats | Request::Health => {}
    }
    end_frame(&mut out, start);
    debug_assert_eq!(out.len(), request_len(req));
    out
}

/// Encodes one response as a complete frame.
#[must_use]
pub fn encode_response(id: u64, resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    encode_response_into(&mut out, id, resp);
    out
}

/// Appends one response frame to `out`, leaving the bytes already there
/// untouched: the payload is written in place and the header's length
/// field patched after it. The appended bytes are exactly
/// [`encode_response`]'s. Reserves the frame's size first, so a buffer
/// with that much room never reallocates.
pub fn encode_response_into(out: &mut Vec<u8>, id: u64, resp: &Response) {
    out.reserve(response_len(resp));
    let kind = match resp {
        Response::Verdict(_) => kind::R_VERDICT,
        Response::VerdictBatch(_) => kind::R_VERDICT_BATCH,
        Response::Stats(_) => kind::R_STATS,
        Response::Health(_) => kind::R_HEALTH,
        Response::Error(_) => kind::R_ERROR,
    };
    let start = begin_frame(out, kind, id);
    match resp {
        Response::Verdict(v) => put_verdict(out, v),
        Response::VerdictBatch(items) => {
            put_u32(out, items.len() as u32);
            for item in items {
                match item {
                    Ok(v) => {
                        out.push(1);
                        put_verdict(out, v);
                    }
                    Err(fault) => {
                        out.push(0);
                        put_fault(out, fault);
                    }
                }
            }
        }
        Response::Stats(s) => put_stats(out, s),
        Response::Health(h) => out.push(u8::from(h.serving)),
        Response::Error(fault) => put_fault(out, fault),
    }
    end_frame(out, start);
    debug_assert_eq!(out.len() - start, response_len(resp));
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian reader over a payload slice.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads exactly `N` bytes into a fixed array, with the bounds
    /// check done once in [`Cur::take`].
    fn arr<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        // INFALLIBLE: `take(N)` either errs or returns exactly N bytes,
        // so the fixed-size copy cannot mismatch.
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.arr()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.arr()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.arr()?))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads `n` little-endian `u32`s in one pass (callers bound `n`
    /// with [`Cur::len`] first).
    fn u32s(&mut self, n: usize) -> Result<Vec<u32>, WireError> {
        let need = n
            .checked_mul(4)
            .ok_or(WireError::Malformed("u32 list overflow"))?;
        Ok(self
            .take(need)?
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Reads a list length and checks it against both its cap and the
    /// bytes actually remaining (`min_elem` bytes per element), so a
    /// hostile length field can never drive a large allocation.
    fn len(&mut self, cap: u32, min_elem: usize, what: &'static str) -> Result<usize, WireError> {
        let n = self.u32()?;
        if n > cap {
            return Err(WireError::Malformed(what));
        }
        let n = n as usize;
        let need = n.checked_mul(min_elem).ok_or(WireError::Malformed(what))?;
        if self.remaining() < need {
            return Err(WireError::Truncated {
                need,
                have: self.remaining(),
            });
        }
        Ok(n)
    }

    fn done(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after payload"))
        }
    }
}

/// Decodes a frame header from (at least) [`HEADER_LEN`] bytes,
/// enforcing `max_frame` on the declared payload length.
///
/// # Errors
///
/// [`WireError::Truncated`] on short input, [`WireError::BadMagic`] /
/// [`WireError::BadVersion`] / [`WireError::Malformed`] on corrupt
/// headers, [`WireError::TooLarge`] past the cap. The kind byte is
/// *not* validated here — payload decoding rejects unknown kinds, so a
/// server can still echo the request id in its typed error.
pub fn decode_header(buf: &[u8], max_frame: u32) -> Result<FrameHeader, WireError> {
    let mut cur = Cur::new(buf);
    let magic = cur.u32()?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = cur.u8()?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = cur.u8()?;
    if cur.u16()? != 0 {
        return Err(WireError::Malformed("reserved header bytes must be zero"));
    }
    let id = cur.u64()?;
    let len = cur.u32()?;
    if len > max_frame {
        return Err(WireError::TooLarge {
            len,
            max: max_frame,
        });
    }
    Ok(FrameHeader { kind, id, len })
}

fn take_window(cur: &mut Cur<'_>) -> Result<Window, WireError> {
    let samples = {
        let n = cur.u32()?;
        if n > MAX_SAMPLES {
            return Err(WireError::Malformed("window sample count over cap"));
        }
        n as usize
    };
    let channels = {
        let n = cur.u32()?;
        if n > MAX_CHANNELS {
            return Err(WireError::Malformed("window channel count over cap"));
        }
        n as usize
    };
    if channels == 0 && samples > 0 {
        // The encoder only emits `channels == 0` for empty windows. A
        // claimed sample count with zero channels needs zero payload
        // bytes, so the remaining-bytes check below would wave through
        // `Vec::with_capacity(samples)` — ~24 bytes of `Vec` header per
        // claimed sample from an 8-byte window, defeating the
        // allocation bound this decoder exists to enforce.
        return Err(WireError::Malformed("zero-channel window claims samples"));
    }
    let need = samples
        .checked_mul(channels)
        .and_then(|n| n.checked_mul(2))
        .ok_or(WireError::Malformed("window size overflow"))?;
    let bytes = cur.take(need)?;
    if samples == 0 {
        return Ok(Vec::new());
    }
    Ok(bytes
        .chunks_exact(2 * channels)
        .map(|sample| {
            sample
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]]))
                .collect()
        })
        .collect())
}

fn take_fault(cur: &mut Cur<'_>) -> Result<WireFault, WireError> {
    let code = ErrorCode::from_u8(cur.u8()?).ok_or(WireError::Malformed("unknown error code"))?;
    let len = cur.len(MAX_DETAIL, 1, "error detail over cap")?;
    let detail = core::str::from_utf8(cur.take(len)?)
        .map_err(|_| WireError::Malformed("error detail is not UTF-8"))?
        .to_owned();
    Ok(WireFault { code, detail })
}

fn take_verdict(cur: &mut Cur<'_>) -> Result<Verdict, WireError> {
    let class = cur.u32()? as usize;
    let source = match cur.u8()? {
        0 => VerdictSource::Scan,
        2 => VerdictSource::CacheHit,
        _ => return Err(WireError::Malformed("unknown verdict source")),
    };
    let cycles = match cur.u8()? {
        0 => None,
        1 => Some(CycleBreakdown {
            map_encode: cur.u64()?,
            am: cur.u64()?,
            total: cur.u64()?,
        }),
        _ => return Err(WireError::Malformed("bad cycles flag")),
    };
    let n = cur.len(MAX_VEC, 4, "distance count over cap")?;
    let distances = cur.u32s(n)?;
    let n = cur.len(MAX_VEC, 4, "query word count over cap")?;
    if n == 0 {
        // `BinaryHv` requires at least one word; a zero here is a
        // corrupt frame, not a verdict.
        return Err(WireError::Malformed("empty query hypervector"));
    }
    let words = cur.u32s(n)?;
    Ok(Verdict {
        class,
        distances,
        query: BinaryHv::from_words(words),
        cycles,
        source,
    })
}

fn take_stats(cur: &mut Cur<'_>) -> Result<ServerStats, WireError> {
    let completed = cur.u64()?;
    let rejected = cur.u64()?;
    let batches = cur.u64()?;
    let mean_batch = cur.f64()?;
    let p50_us = cur.u64()?;
    let p95_us = cur.u64()?;
    let p99_us = cur.u64()?;
    let latency_max_us = cur.u64()?;
    let latency_mean_us = cur.f64()?;
    let batch_service_max_us = cur.u64()?;
    let batch_service_mean_us = cur.f64()?;
    let elapsed = Duration::from_nanos(cur.u64()?);
    let windows_per_sec = cur.f64()?;
    let deadline_expired = cur.u64()?;
    let retried_batches = cur.u64()?;
    let contained_panics = cur.u64()?;
    Ok(ServerStats {
        completed,
        rejected,
        batches,
        mean_batch,
        p50_us,
        p95_us,
        p99_us,
        latency_max_us,
        latency_mean_us,
        batch_service_max_us,
        batch_service_mean_us,
        elapsed,
        windows_per_sec,
        deadline_expired,
        retried_batches,
        contained_panics,
        cache_hits: cur.u64()?,
        cache_misses: cur.u64()?,
        cache_evictions: cur.u64()?,
    })
}

/// Decodes a request payload against its header.
///
/// # Errors
///
/// [`WireError::UnknownKind`] if the header's kind is not a request,
/// otherwise any structural [`WireError`] from the payload.
pub fn decode_request(header: &FrameHeader, payload: &[u8]) -> Result<Request, WireError> {
    let mut cur = Cur::new(payload);
    let req = match header.kind {
        kind::CLASSIFY => Request::Classify {
            deadline_us: cur.u64()?,
            window: take_window(&mut cur)?,
        },
        kind::CLASSIFY_BATCH => {
            let deadline_us = cur.u64()?;
            // A window is at least 8 bytes (two length fields).
            let count = {
                let n = cur.u32()?;
                if n > MAX_BATCH {
                    return Err(WireError::Malformed("batch count over cap"));
                }
                let need = (n as usize).saturating_mul(8);
                if cur.remaining() < need {
                    return Err(WireError::Truncated {
                        need,
                        have: cur.remaining(),
                    });
                }
                n as usize
            };
            let mut windows = Vec::with_capacity(count);
            for _ in 0..count {
                windows.push(take_window(&mut cur)?);
            }
            Request::ClassifyBatch {
                deadline_us,
                windows,
            }
        }
        kind::STATS => Request::Stats,
        kind::HEALTH => Request::Health,
        other => return Err(WireError::UnknownKind(other)),
    };
    cur.done()?;
    Ok(req)
}

/// Decodes a response payload against its header.
///
/// # Errors
///
/// [`WireError::UnknownKind`] if the header's kind is not a response,
/// otherwise any structural [`WireError`] from the payload.
pub fn decode_response(header: &FrameHeader, payload: &[u8]) -> Result<Response, WireError> {
    let mut cur = Cur::new(payload);
    let resp = match header.kind {
        kind::R_VERDICT => Response::Verdict(take_verdict(&mut cur)?),
        kind::R_VERDICT_BATCH => {
            // An entry is at least 2 bytes (ok flag + a byte of body).
            let count = cur.len(MAX_BATCH, 2, "batch count over cap")?;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(match cur.u8()? {
                    0 => Err(take_fault(&mut cur)?),
                    1 => Ok(take_verdict(&mut cur)?),
                    _ => return Err(WireError::Malformed("bad batch entry flag")),
                });
            }
            Response::VerdictBatch(items)
        }
        kind::R_STATS => Response::Stats(take_stats(&mut cur)?),
        kind::R_HEALTH => {
            let serving = match cur.u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::Malformed("bad serving flag")),
            };
            Response::Health(HealthReport { serving })
        }
        kind::R_ERROR => Response::Error(take_fault(&mut cur)?),
        other => return Err(WireError::UnknownKind(other)),
    };
    cur.done()?;
    Ok(resp)
}
