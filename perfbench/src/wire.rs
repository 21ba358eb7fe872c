//! `wire-uds-emg5`: the default server behind `NetServer` on a Unix
//! socket, driven over one connection by a writer thread that pipelines
//! `proto::encode_request` frames and a reader that decodes the replies.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

use pulp_hd_serve::net::proto::{self, Request, Response};
use pulp_hd_serve::net::{Endpoint, NetConfig, NetServer};
use pulp_hd_serve::{Server, ServerStats};

use crate::data::Inputs;
use crate::openloop::{sleep_until, FixedRate, Sample, Saturation};
use crate::report::Report;
use crate::serving::Target;
use crate::{Error, Plan};

/// How long the reader waits for one reply before giving up on the
/// connection.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// When requests are sent.
#[derive(Clone, Copy)]
enum Schedule {
    /// `n` requests, one every `interval`.
    Fixed { n: usize, interval: Duration },
    /// As fast as the in-flight cap allows, until `stop`.
    Saturate { stop: Instant },
}

/// A running wire front-end and the benchmark's one connection to it.
pub struct Wire {
    // Declared first so it drops first: the connection closes before
    // the server drains.
    stream: UnixStream,
    net: NetServer,
}

impl Wire {
    /// Sends requests numbered from `first` on `schedule`, never more
    /// than the server's default in-flight window unanswered, and hands
    /// each to `done` once its reply is decoded and checked. Returns the
    /// end of each frame's write, for a fixed schedule.
    fn drive(
        &self,
        inputs: &Inputs,
        first: usize,
        schedule: Schedule,
        mut done: impl FnMut(Sample),
    ) -> Result<Vec<Instant>, Error> {
        let mut writer = self.stream.try_clone()?;
        let reader = &self.stream;
        // The reader takes a request's entry before reading its reply, so
        // entries queued plus the one being read stay within the window.
        let cap = NetConfig::default().inflight_window - 1;
        let (tx, rx) = sync_channel::<Sample>(cap);
        let start = Instant::now() + Duration::from_millis(1);
        std::thread::scope(|s| {
            let written = s.spawn(move || {
                let mut write_ends = match schedule {
                    Schedule::Fixed { n, .. } => Vec::with_capacity(n),
                    Schedule::Saturate { .. } => Vec::new(),
                };
                for k in 0.. {
                    let request = first + k;
                    let due = match schedule {
                        Schedule::Fixed { n, interval } if k < n => {
                            start + interval.mul_f64(k as f64)
                        }
                        Schedule::Saturate { stop } if Instant::now() < stop => Instant::now(),
                        _ => break,
                    };
                    let req = Request::Classify {
                        deadline_us: 0,
                        window: inputs.window(request).clone(),
                    };
                    sleep_until(due);
                    let sent = Instant::now();
                    let frame = proto::encode_request(request as u64 + 1, &req);
                    let sample = Sample {
                        request,
                        due,
                        sent,
                        sent_end: sent,
                        done: sent,
                        ok: false,
                    };
                    if tx.send(sample).is_err() || writer.write_all(&frame).is_err() {
                        break;
                    }
                    if let Schedule::Fixed { .. } = schedule {
                        write_ends.push(Instant::now());
                    }
                }
                write_ends
            });
            for mut sample in rx.iter() {
                let reply = read_reply(reader);
                sample.done = Instant::now();
                let failed_read = reply.is_none();
                if let Some((id, Response::Verdict(v))) = reply {
                    sample.ok =
                        id == sample.request as u64 + 1 && inputs.verdict_ok(sample.request, &v);
                }
                done(sample);
                if failed_read {
                    break;
                }
            }
            drop(rx);
            Ok(written.join().expect("writer thread"))
        })
    }
}

/// Reads and decodes one response frame; `None` if the connection
/// failed or the frame does not decode.
fn read_reply(mut reader: &UnixStream) -> Option<(u64, Response)> {
    let mut header = [0u8; proto::HEADER_LEN];
    reader.read_exact(&mut header).ok()?;
    let header = proto::decode_header(&header, proto::DEFAULT_MAX_FRAME).ok()?;
    let mut payload = vec![0u8; header.len as usize];
    reader.read_exact(&mut payload).ok()?;
    let response = proto::decode_response(&header, &payload).ok()?;
    Some((header.id, response))
}

impl Target for Wire {
    const SEND: &'static str = "net.client_write";

    /// `NetServer::spawn` around `server` on a fresh socket, plus
    /// connect.
    fn open(server: Server, plan: &Plan) -> Result<Self, Error> {
        let socket = plan.out.join(format!("wire-{}.sock", std::process::id()));
        let net = NetServer::spawn(
            server,
            &[Endpoint::Uds(socket.clone())],
            NetConfig::default(),
        )?;
        let stream = UnixStream::connect(&socket)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Self { stream, net })
    }

    fn fixed_rate(
        &self,
        inputs: &Inputs,
        first: usize,
        n: usize,
        interval: Duration,
    ) -> Result<FixedRate, Error> {
        let mut samples = Vec::with_capacity(n);
        let write_ends = self.drive(inputs, first, Schedule::Fixed { n, interval }, |s| {
            samples.push(s);
        })?;
        for (sample, end) in samples.iter_mut().zip(write_ends) {
            sample.sent_end = end;
        }
        let Some(&last) = samples.last() else {
            return Err("the connection failed before the first request".into());
        };
        let schedule_end = samples[0].due + interval.mul_f64(n.saturating_sub(1) as f64);
        // Requests never sent count as failed.
        for k in samples.len()..n {
            samples.push(Sample {
                ok: false,
                request: first + k,
                ..last
            });
        }
        Ok(FixedRate {
            samples,
            schedule_end,
        })
    }

    fn saturate(
        &self,
        inputs: &Inputs,
        first: usize,
        duration: Duration,
    ) -> Result<Saturation, Error> {
        let mut sat = Saturation::new(duration);
        let stop = sat.stop();
        self.drive(inputs, first, Schedule::Saturate { stop }, |s| {
            sat.record(s.done, s.ok);
        })?;
        Ok(sat)
    }

    fn server_stats(&self) -> ServerStats {
        self.net.server_stats()
    }

    /// The wire codec layer (server request decode, server reply
    /// encode, client reply decode; the client's request encode is in
    /// its write span), and the wire front-end's counters.
    fn own_layers(
        &self,
        report: &mut Report,
        codec_ns: f64,
        front_us: f64,
    ) -> Vec<(&'static str, f64)> {
        let stats = self.net.net_stats();
        report.extra("net.self.us", front_us, "us");
        report.extra("net.frames", stats.frames as f64, "count");
        report.extra("net.responses", stats.responses as f64, "count");
        report.extra("net.wire_overloaded", stats.wire_overloaded as f64, "count");
        report.note(format!(
            "wire serving: the client's round trip exceeds the in-process server's queue-to-verdict mean by {front_us:.1} us per request, held by the waterfall's {}, net.codec and unattributed rows (socket calls and the wake-ups of the front-end's threads)",
            Self::SEND
        ));
        vec![("net.codec", codec_ns / 1e3)]
    }
}
