//! `serve-emg25`: the default in-process `Server`, loaded by one
//! submitting thread and one thread that waits for the tickets.

use std::sync::mpsc::{channel, sync_channel};
use std::time::{Duration, Instant};

use pulp_hd_serve::{ServeError, Server, ServerStats, Ticket};

use crate::data::Inputs;
use crate::openloop::{sleep_until, FixedRate, Sample, Saturation};
use crate::report::Report;
use crate::serving::Target;
use crate::{Error, Plan};

/// Tickets kept outstanding in the saturation phase: four full
/// default batches.
const OUTSTANDING: usize = 256;

pub struct InProcess {
    server: Server,
}

impl Target for InProcess {
    const SEND: &'static str = "serve.submit";

    fn open(server: Server, _plan: &Plan) -> Result<Self, Error> {
        Ok(Self { server })
    }

    fn fixed_rate(
        &self,
        inputs: &Inputs,
        first: usize,
        n: usize,
        interval: Duration,
    ) -> Result<FixedRate, Error> {
        let client = self.server.client();
        let (tx, rx) = channel::<(Sample, Result<Ticket, ServeError>)>();
        let start = Instant::now() + Duration::from_millis(1);
        let samples = std::thread::scope(|s| {
            s.spawn(move || {
                for k in 0..n {
                    let request = first + k;
                    let window = inputs.window(request).clone();
                    let due = start + interval.mul_f64(k as f64);
                    sleep_until(due);
                    let sent = Instant::now();
                    let ticket = client.submit(window);
                    let sent_end = Instant::now();
                    let sample = Sample {
                        request,
                        due,
                        sent,
                        sent_end,
                        done: sent_end,
                        ok: false,
                    };
                    if tx.send((sample, ticket)).is_err() {
                        break;
                    }
                }
            });
            let mut samples = Vec::with_capacity(n);
            for (mut sample, ticket) in rx.iter() {
                let verdict = ticket.and_then(Ticket::wait);
                sample.done = Instant::now();
                sample.ok = verdict.is_ok_and(|v| inputs.verdict_ok(sample.request, &v));
                samples.push(sample);
            }
            samples
        });
        Ok(FixedRate {
            samples,
            schedule_end: start + interval.mul_f64(n.saturating_sub(1) as f64),
        })
    }

    fn saturate(
        &self,
        inputs: &Inputs,
        first: usize,
        duration: Duration,
    ) -> Result<Saturation, Error> {
        let client = self.server.client();
        let (tx, rx) = sync_channel::<(usize, Result<Ticket, ServeError>)>(OUTSTANDING);
        let mut sat = Saturation::new(duration);
        let stop = sat.stop();
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut request = first;
                while Instant::now() < stop {
                    let ticket = client.submit(inputs.window(request).clone());
                    if tx.send((request, ticket)).is_err() {
                        break;
                    }
                    request += 1;
                }
            });
            for (request, ticket) in rx.iter() {
                let verdict = ticket.and_then(Ticket::wait);
                sat.record(
                    Instant::now(),
                    verdict.is_ok_and(|v| inputs.verdict_ok(request, &v)),
                );
            }
        });
        Ok(sat)
    }

    fn server_stats(&self) -> ServerStats {
        self.server.stats()
    }

    fn own_layers(&self, _: &mut Report, _: f64, _: f64) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}
