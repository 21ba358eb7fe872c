//! The caller side of the wire front-end: a blocking client with
//! connect/request timeouts, typed errors mirroring
//! [`ServeError`](crate::ServeError), and bounded retry-with-backoff on
//! transient failures.

use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::time::{Duration, Instant};

use pulp_hd_core::backend::Verdict;

use crate::ServerStats;

use super::proto::{self, ErrorCode, HealthReport, Request, Response};
use super::transport::WireStream;
use super::{NetClientConfig, NetError};

/// How a client reaches its server: a dialer producing fresh streams,
/// so retries can reconnect after a transport failure.
type Dialer = Box<dyn FnMut() -> std::io::Result<Box<dyn WireStream>> + Send>;

/// A blocking network client for a [`NetServer`](super::NetServer).
///
/// One client drives one connection at a time (requests are
/// round-tripped sequentially); spin up one client per caller thread
/// for concurrency, exactly like [`Client`](crate::Client) handles.
///
/// Classification is idempotent, so transient failures — transport
/// errors, [`NetError::WorkerLost`] — are retried automatically (fresh
/// connection for transport failures) up to
/// [`retries`](NetClientConfig::retries) times. Deterministic
/// rejections ([`NetError::Backend`], [`NetError::Overloaded`],
/// [`NetError::DeadlineExceeded`], [`NetError::Closed`]) are not.
pub struct NetClient {
    dial: Dialer,
    stream: Option<Box<dyn WireStream>>,
    config: NetClientConfig,
    next_id: u64,
}

impl core::fmt::Debug for NetClient {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("NetClient")
            .field("connected", &self.stream.is_some())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl NetClient {
    /// Connects over TCP (the address is resolved once, at connect
    /// time, honoring [`connect_timeout`](NetClientConfig::connect_timeout)).
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the address cannot be resolved or connected.
    pub fn connect_tcp(
        addr: impl ToSocketAddrs,
        config: NetClientConfig,
    ) -> Result<Self, NetError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let timeout = config.connect_timeout;
        Self::connect_with(
            Box::new(move || {
                let mut last = None;
                for a in &addrs {
                    match TcpStream::connect_timeout(a, timeout) {
                        Ok(stream) => {
                            stream.set_nodelay(true)?;
                            return Ok(Box::new(stream) as Box<dyn WireStream>);
                        }
                        Err(e) => last = Some(e),
                    }
                }
                Err(last.unwrap_or_else(|| {
                    std::io::Error::new(std::io::ErrorKind::InvalidInput, "no addresses")
                }))
            }),
            config,
        )
    }

    /// Connects over a Unix-domain socket.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the socket cannot be connected.
    pub fn connect_uds(path: impl AsRef<Path>, config: NetClientConfig) -> Result<Self, NetError> {
        let path = path.as_ref().to_path_buf();
        Self::connect_with(
            Box::new(move || {
                let stream = std::os::unix::net::UnixStream::connect(&path)?;
                Ok(Box::new(stream) as Box<dyn WireStream>)
            }),
            config,
        )
    }

    /// Connects through a custom dialer — the hook the chaos suite uses
    /// to wrap connections in a
    /// [`FaultTransport`](super::FaultTransport). The dialer is called
    /// once now and again on every reconnect.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the first dial fails.
    pub fn connect_with(mut dial: Dialer, config: NetClientConfig) -> Result<Self, NetError> {
        let stream = dial()?;
        Ok(Self {
            dial,
            stream: Some(stream),
            config,
            next_id: 1,
        })
    }

    /// Classifies one window, using the config-wide
    /// [`deadline`](NetClientConfig::deadline) (if any) as the wire
    /// deadline.
    ///
    /// # Errors
    ///
    /// Any [`NetError`]; transient failures are retried first.
    pub fn classify(&mut self, window: &[Vec<u16>]) -> Result<Verdict, NetError> {
        self.classify_inner(window, self.config.deadline)
    }

    /// Classifies one window with an explicit wire deadline: if it is
    /// not served within `deadline` of arriving at the server, the
    /// request resolves with [`NetError::DeadlineExceeded`].
    ///
    /// # Errors
    ///
    /// As [`classify`](Self::classify).
    pub fn classify_with_deadline(
        &mut self,
        window: &[Vec<u16>],
        deadline: Duration,
    ) -> Result<Verdict, NetError> {
        self.classify_inner(window, Some(deadline))
    }

    fn classify_inner(
        &mut self,
        window: &[Vec<u16>],
        deadline: Option<Duration>,
    ) -> Result<Verdict, NetError> {
        let request = Request::Classify {
            deadline_us: deadline_us(deadline),
            window: window.to_vec(),
        };
        match self.roundtrip(&request)? {
            Response::Verdict(verdict) => Ok(verdict),
            Response::Error(fault) => Err(NetError::from_fault(fault)),
            _ => {
                self.stream = None;
                Err(NetError::Protocol("unexpected response kind".into()))
            }
        }
    }

    /// Classifies a batch of windows in one frame, returning one
    /// verdict-or-error per window in order.
    ///
    /// # Errors
    ///
    /// A frame-level [`NetError`] if the whole request failed;
    /// otherwise per-window errors appear in the returned vector.
    pub fn classify_batch(
        &mut self,
        windows: &[Vec<Vec<u16>>],
    ) -> Result<Vec<Result<Verdict, NetError>>, NetError> {
        let request = Request::ClassifyBatch {
            deadline_us: deadline_us(self.config.deadline),
            windows: windows.to_vec(),
        };
        match self.roundtrip(&request)? {
            Response::VerdictBatch(items) => Ok(items
                .into_iter()
                .map(|item| item.map_err(NetError::from_fault))
                .collect()),
            Response::Error(fault) => Err(NetError::from_fault(fault)),
            _ => {
                self.stream = None;
                Err(NetError::Protocol("unexpected response kind".into()))
            }
        }
    }

    /// Fetches the server's full [`ServerStats`] snapshot over the
    /// wire (including the fault and cache counters).
    ///
    /// # Errors
    ///
    /// Any [`NetError`].
    pub fn stats(&mut self) -> Result<ServerStats, NetError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            Response::Error(fault) => Err(NetError::from_fault(fault)),
            _ => {
                self.stream = None;
                Err(NetError::Protocol("unexpected response kind".into()))
            }
        }
    }

    /// Probes liveness — the load-balancer health-check endpoint.
    ///
    /// # Errors
    ///
    /// Any [`NetError`].
    pub fn health(&mut self) -> Result<HealthReport, NetError> {
        match self.roundtrip(&Request::Health)? {
            Response::Health(report) => Ok(report),
            Response::Error(fault) => Err(NetError::from_fault(fault)),
            _ => {
                self.stream = None;
                Err(NetError::Protocol("unexpected response kind".into()))
            }
        }
    }

    /// One request, with the retry policy applied around it.
    fn roundtrip(&mut self, request: &Request) -> Result<Response, NetError> {
        let mut attempt = 0u32;
        loop {
            match self.try_roundtrip(request) {
                Err(e) if e.retryable() && attempt < self.config.retries => {
                    attempt += 1;
                    std::thread::sleep(self.config.retry_backoff);
                }
                other => return other,
            }
        }
    }

    fn try_roundtrip(&mut self, request: &Request) -> Result<Response, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = proto::encode_request(id, request);
        let give_up = self.config.request_timeout.map(|t| Instant::now() + t);
        // Any transport or framing failure from here poisons the stream
        // (we may be mid-frame, or desynchronized); drop it so the next
        // attempt redials.
        let result = self.drive(&frame, id, give_up);
        if matches!(
            result,
            Err(NetError::Io(_) | NetError::Timeout | NetError::Protocol(_))
        ) {
            self.stream = None;
        }
        // Server-side faults ride back as `Ok(Response::Error(..))`
        // carrying the request id; lift the transient class — a
        // contained worker loss — into `Err` here so the retry loop in
        // `roundtrip` sees it. The connection stays: frame boundaries
        // held, only a backend worker died.
        match result {
            Ok(Response::Error(fault)) if fault.code == ErrorCode::WorkerLost => {
                Err(NetError::from_fault(fault))
            }
            other => other,
        }
    }

    fn drive(
        &mut self,
        frame: &[u8],
        id: u64,
        give_up: Option<Instant>,
    ) -> Result<Response, NetError> {
        if self.stream.is_none() {
            self.stream = Some((self.dial)()?);
        }
        // INFALLIBLE: the branch above just filled `self.stream` (or
        // returned the dial error), so the Option is Some here.
        let stream = self.stream.as_mut().expect("just connected");
        stream.write_all(frame)?;
        stream.flush()?;
        loop {
            let remaining = match give_up {
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(NetError::Timeout);
                    }
                    Some(left)
                }
                None => None,
            };
            stream.set_stream_read_timeout(remaining)?;
            let mut header_buf = [0u8; proto::HEADER_LEN];
            read_exact(stream.as_mut(), &mut header_buf)?;
            let header = proto::decode_header(&header_buf, self.config.max_frame)
                .map_err(|e| NetError::Protocol(e.to_string()))?;
            let mut payload = vec![0u8; header.len as usize];
            read_exact(stream.as_mut(), &mut payload)?;
            let response = proto::decode_response(&header, &payload)
                .map_err(|e| NetError::Protocol(e.to_string()))?;
            if header.id == id {
                return Ok(response);
            }
            if header.id == 0 {
                // Server-initiated go-away (drain, stall kill): typed.
                if let Response::Error(fault) = response {
                    return Err(NetError::from_fault(fault));
                }
                return Err(NetError::Protocol("unsolicited non-error frame".into()));
            }
            if header.id > id {
                return Err(NetError::Protocol("response id from the future".into()));
            }
            // header.id < id: a stale response to an abandoned earlier
            // request (e.g. one that timed out client-side before this
            // connection was reused) — skip it.
        }
    }
}

/// A read_exact that maps timeout-ish errors to [`NetError::Timeout`]
/// and everything else to [`NetError::Io`].
fn read_exact(stream: &mut dyn WireStream, buf: &mut [u8]) -> Result<(), NetError> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(NetError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )))
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(NetError::Timeout)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(())
}

/// The wire encoding of an optional deadline (0 = none).
fn deadline_us(deadline: Option<Duration>) -> u64 {
    deadline.map_or(0, |d| {
        u64::try_from(d.as_micros()).unwrap_or(u64::MAX).max(1)
    })
}
