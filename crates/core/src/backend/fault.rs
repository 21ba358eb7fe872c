//! Deterministic fault injection: a chaos wrapper around any backend.
//!
//! Robustness claims are worthless untested, and real worker panics are
//! rare by construction — so [`FaultBackend`] wraps an inner
//! [`ExecutionBackend`] / [`TrainableBackend`] and injects failures on a
//! fixed, seeded-in-advance schedule: a typed error on the nth call, a
//! panic on the nth call (to exercise the containment of the serve
//! layer, which retries the batch and keeps serving), or an injected
//! latency (to trip serve-side deadlines).
//!
//! The schedule is a [`FaultPlan`]: a list of `(session, call, kind)`
//! entries. Sessions are numbered in [`prepare`](ExecutionBackend::prepare)
//! order across the backend value and its clones, so a plan can target
//! the *k*-th session a test prepares. Calls are numbered per session,
//! one per `classify` / `classify_batch` / `classify_batch_into` (or
//! `train` / `train_batch` / `update_online` on a training session),
//! starting at 0.
//!
//! Injected panics carry the literal text `"injected fault"` so test
//! panic hooks can silence exactly them and nothing else.
//!
//! ```
//! use pulp_hd_core::backend::{
//!     ExecutionBackend, FastBackend, FaultBackend, FaultKind, FaultPlan, HdModel,
//! };
//! use pulp_hd_core::layout::AccelParams;
//!
//! let params = AccelParams { n_words: 16, ..AccelParams::emg_default() };
//! let model = HdModel::random(&params, 42);
//! let chaos = FaultBackend::new(
//!     FastBackend::with_threads(1),
//!     FaultPlan::new().fault_at(1, FaultKind::Error),
//! );
//! let mut session = chaos.prepare(&model)?;
//! let window = vec![vec![100u16, 60_000, 33_000, 8_000]];
//! assert!(session.classify(&window).is_ok()); // call 0
//! assert!(session.classify(&window).is_err()); // call 1: injected
//! assert!(session.classify(&window).is_ok()); // call 2: healthy again
//! # Ok::<(), pulp_hd_core::backend::BackendError>(())
//! ```

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use super::{
    BackendError, BackendSession, ExecutionBackend, HdModel, TrainSpec, TrainableBackend,
    TrainingSession, Verdict,
};

/// What an injected fault does when its scheduled call arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Return [`BackendError::Injected`] instead of running the call.
    Error,
    /// Panic on the calling thread (the message contains
    /// `"injected fault"`), exercising the containment layer that turns
    /// worker panics into [`BackendError::WorkerLost`].
    Panic,
    /// Sleep for the given duration, then run the call normally —
    /// for deadline and timeout testing.
    Delay(Duration),
    /// Block the calling thread *indefinitely* — a delay with no end,
    /// for exercising deadline and watchdog paths against a backend
    /// that never answers (a wedged device, a livelocked kernel). The
    /// hang spins in short sleeps until the plan's [`HangRelease`]
    /// fires, then runs the call normally, so tests can observe the
    /// hung state (timeouts firing, deadlines shedding) and still tear
    /// down cleanly: keep a [`FaultPlan::hang_release`] handle and
    /// release it before joining server threads.
    Hang,
}

/// Releases every [`FaultKind::Hang`] of the [`FaultPlan`] it came
/// from: hung calls wake up, run normally, and all later `Hang` entries
/// of that plan become no-ops. Cheap to clone; thread-safe.
#[derive(Debug, Clone)]
pub struct HangRelease(Arc<AtomicBool>);

impl HangRelease {
    /// Wakes every call currently hung on this plan and disables its
    /// remaining `Hang` faults. Idempotent.
    pub fn release(&self) {
        // ORDERING: SeqCst — the hung call spins on this flag; pairing
        // with its SeqCst load makes the wake visible promptly and
        // totally ordered with the releasing thread's other writes.
        self.0.store(true, Ordering::SeqCst);
    }
}

/// One scheduled fault: fires on call `call` of session `session`
/// (`None` = every session).
#[derive(Debug, Clone, Copy)]
struct FaultEntry {
    session: Option<usize>,
    call: u64,
    kind: FaultKind,
}

/// A deterministic fault schedule (see the [module docs](self) for the
/// session/call numbering).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    entries: Vec<FaultEntry>,
    /// Shared across clones: once set, every `Hang` (pending or future)
    /// of this plan proceeds immediately.
    released: Arc<AtomicBool>,
}

impl FaultPlan {
    /// An empty schedule (injects nothing).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` on call `call` of **every** session.
    #[must_use]
    pub fn fault_at(mut self, call: u64, kind: FaultKind) -> Self {
        self.entries.push(FaultEntry {
            session: None,
            call,
            kind,
        });
        self
    }

    /// Schedules `kind` on call `call` of session `session` only
    /// (sessions are numbered in `prepare` order).
    #[must_use]
    pub fn fault_on(mut self, session: usize, call: u64, kind: FaultKind) -> Self {
        self.entries.push(FaultEntry {
            session: Some(session),
            call,
            kind,
        });
        self
    }

    /// A handle that wakes this plan's [`FaultKind::Hang`] faults.
    /// Tests holding hung calls **must** call
    /// [`HangRelease::release`] before joining the threads those calls
    /// run on, or teardown blocks forever.
    #[must_use]
    pub fn hang_release(&self) -> HangRelease {
        HangRelease(Arc::clone(&self.released))
    }

    /// The fault scheduled for `(session, call)`, if any (first match
    /// wins).
    fn fault(&self, session: usize, call: u64) -> Option<FaultKind> {
        self.entries
            .iter()
            .find(|e| e.call == call && e.session.is_none_or(|s| s == session))
            .map(|e| e.kind)
    }
}

/// A chaos wrapper: any inner backend plus a [`FaultPlan`]. Prepared
/// sessions (and training sessions) count their calls and consult the
/// plan before delegating; a scheduled fault fires *instead of* (Error,
/// Panic) or *before* (Delay) the inner call, so the inner session never
/// observes the faulted call and stays healthy for the next one.
#[derive(Debug, Clone)]
pub struct FaultBackend<B> {
    inner: B,
    plan: Arc<FaultPlan>,
    /// Next session index, shared across clones so session targeting
    /// stays deterministic when the backend descriptor is copied into
    /// other threads.
    next_session: Arc<AtomicUsize>,
}

impl<B> FaultBackend<B> {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan: Arc::new(plan),
            next_session: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// The inner backend descriptor.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    fn next_session(&self) -> usize {
        // ORDERING: Relaxed — a unique-id counter; fetch_add is atomic
        // on its own, and no other memory hangs off the value.
        self.next_session.fetch_add(1, Ordering::Relaxed)
    }
}

/// Counts calls and fires the plan's faults for one session index.
#[derive(Debug)]
struct Trigger {
    plan: Arc<FaultPlan>,
    session: usize,
    calls: u64,
}

impl Trigger {
    /// Consumes one call number; fires the scheduled fault, if any.
    fn trip(&mut self) -> Result<(), BackendError> {
        let call = self.calls;
        self.calls += 1;
        match self.plan.fault(self.session, call) {
            None => Ok(()),
            Some(FaultKind::Error) => Err(BackendError::Injected { call }),
            Some(FaultKind::Panic) => {
                panic!("injected fault: scheduled panic at call {call}")
            }
            Some(FaultKind::Delay(d)) => {
                std::thread::sleep(d);
                Ok(())
            }
            Some(FaultKind::Hang) => {
                while !self.plan.released.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Ok(())
            }
        }
    }
}

impl<B: ExecutionBackend> ExecutionBackend for FaultBackend<B> {
    fn name(&self) -> &'static str {
        "fault"
    }

    fn prepare(&self, model: &HdModel) -> Result<Box<dyn BackendSession>, BackendError> {
        Ok(Box::new(FaultSession {
            inner: self.inner.prepare(model)?,
            trigger: Trigger {
                plan: Arc::clone(&self.plan),
                session: self.next_session(),
                calls: 0,
            },
        }))
    }
}

struct FaultSession {
    inner: Box<dyn BackendSession>,
    trigger: Trigger,
}

impl BackendSession for FaultSession {
    fn classify(&mut self, window: &[Vec<u16>]) -> Result<Verdict, BackendError> {
        self.trigger.trip()?;
        self.inner.classify(window)
    }

    fn classify_batch(&mut self, windows: &[Vec<Vec<u16>>]) -> Result<Vec<Verdict>, BackendError> {
        self.trigger.trip()?;
        self.inner.classify_batch(windows)
    }

    fn classify_batch_into(
        &mut self,
        windows: &[Vec<Vec<u16>>],
        out: &mut Vec<Verdict>,
    ) -> Result<(), BackendError> {
        self.trigger.trip()?;
        self.inner.classify_batch_into(windows, out)
    }
}

impl<B: TrainableBackend> TrainableBackend for FaultBackend<B> {
    fn begin_training(&self, spec: &TrainSpec) -> Result<Box<dyn TrainingSession>, BackendError> {
        Ok(Box::new(FaultTrainingSession {
            inner: self.inner.begin_training(spec)?,
            trigger: Trigger {
                plan: Arc::clone(&self.plan),
                session: self.next_session(),
                calls: 0,
            },
            next_session: Arc::clone(&self.next_session),
        }))
    }
}

struct FaultTrainingSession {
    inner: Box<dyn TrainingSession>,
    trigger: Trigger,
    /// For numbering the serving session this training session converts
    /// into, consistently with the backend's other sessions.
    next_session: Arc<AtomicUsize>,
}

impl TrainingSession for FaultTrainingSession {
    fn train(&mut self, window: &[Vec<u16>], label: usize) -> Result<(), BackendError> {
        self.trigger.trip()?;
        self.inner.train(window, label)
    }

    fn train_batch(
        &mut self,
        windows: &[Vec<Vec<u16>>],
        labels: &[usize],
    ) -> Result<(), BackendError> {
        self.trigger.trip()?;
        self.inner.train_batch(windows, labels)
    }

    fn update_online(
        &mut self,
        window: &[Vec<u16>],
        label: usize,
    ) -> Result<Verdict, BackendError> {
        self.trigger.trip()?;
        self.inner.update_online(window, label)
    }

    fn examples(&self, class: usize) -> u32 {
        self.inner.examples(class)
    }

    fn finalize(&mut self) -> Result<HdModel, BackendError> {
        self.inner.finalize()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn into_serving(self: Box<Self>) -> Result<Box<dyn BackendSession>, BackendError> {
        // ORDERING: Relaxed — unique-id counter, as in next_session.
        let session = self.next_session.fetch_add(1, Ordering::Relaxed);
        Ok(Box::new(FaultSession {
            inner: self.inner.into_serving()?,
            trigger: Trigger {
                plan: self.trigger.plan,
                session,
                calls: 0,
            },
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::super::{FastBackend, GoldenBackend};
    use super::*;
    use crate::layout::AccelParams;
    use hdc::rng::Xoshiro256PlusPlus;

    fn params() -> AccelParams {
        AccelParams {
            n_words: 8,
            channels: 3,
            ngram: 2,
            classes: 4,
            levels: 11,
        }
    }

    fn windows(params: &AccelParams, seed: u64, count: usize) -> Vec<Vec<Vec<u16>>> {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                (0..params.ngram)
                    .map(|_| {
                        (0..params.channels)
                            .map(|_| (rng.next_u32() & 0xffff) as u16)
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn error_fires_on_scheduled_call_only_and_is_deterministic() {
        let params = params();
        let model = HdModel::random(&params, 3);
        let batch = windows(&params, 5, 4);
        for _ in 0..2 {
            let chaos = FaultBackend::new(
                FastBackend::with_threads(1),
                FaultPlan::new().fault_at(1, FaultKind::Error),
            );
            let mut session = chaos.prepare(&model).unwrap();
            assert!(session.classify_batch(&batch).is_ok());
            assert!(matches!(
                session.classify_batch(&batch),
                Err(BackendError::Injected { call: 1 })
            ));
            // The inner session never saw the faulted call; healthy after.
            assert!(session.classify_batch(&batch).is_ok());
        }
    }

    #[test]
    fn session_targeting_numbers_sessions_in_prepare_order() {
        let params = params();
        let model = HdModel::random(&params, 7);
        let batch = windows(&params, 9, 2);
        let chaos = FaultBackend::new(
            GoldenBackend,
            FaultPlan::new().fault_on(1, 0, FaultKind::Error),
        );
        let mut first = chaos.prepare(&model).unwrap();
        let mut second = chaos.prepare(&model).unwrap();
        assert!(first.classify_batch(&batch).is_ok());
        assert!(matches!(
            second.classify_batch(&batch),
            Err(BackendError::Injected { call: 0 })
        ));
    }

    #[test]
    fn delay_preserves_verdicts_and_panic_message_is_tagged() {
        crate::backend::pool::silence_expected_panics();
        let params = params();
        let model = HdModel::random(&params, 11);
        let batch = windows(&params, 13, 3);
        let mut clean = GoldenBackend.prepare(&model).unwrap();
        let chaos = FaultBackend::new(
            GoldenBackend,
            FaultPlan::new()
                .fault_at(0, FaultKind::Delay(Duration::from_millis(1)))
                .fault_at(1, FaultKind::Panic),
        );
        let mut session = chaos.prepare(&model).unwrap();
        assert_eq!(
            session.classify_batch(&batch).unwrap(),
            clean.classify_batch(&batch).unwrap()
        );
        let panic = crate::backend::pool::contain(|| session.classify_batch(&batch)).unwrap_err();
        assert!(panic.contains("injected fault"), "{panic}");
    }

    #[test]
    fn hang_blocks_until_released_then_serves_bit_identical() {
        let params = params();
        let model = HdModel::random(&params, 23);
        let batch = windows(&params, 29, 3);
        let mut clean = GoldenBackend.prepare(&model).unwrap();
        let expected = clean.classify_batch(&batch).unwrap();
        let plan = FaultPlan::new().fault_at(0, FaultKind::Hang);
        let release = plan.hang_release();
        let chaos = FaultBackend::new(GoldenBackend, plan);
        let mut session = chaos.prepare(&model).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let hung = std::thread::spawn(move || {
            let got = session.classify_batch(&batch);
            tx.send(()).unwrap();
            got
        });
        // The call is wedged: nothing arrives while the hang holds.
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        release.release();
        let got = hung.join().unwrap().unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn training_faults_fire_on_training_calls() {
        let params = params();
        let spec = TrainSpec::random(&params, 17);
        let batch = windows(&params, 19, 4);
        let labels = vec![0usize; 4];
        let chaos = FaultBackend::new(
            FastBackend::with_threads(1),
            FaultPlan::new().fault_at(1, FaultKind::Error),
        );
        let mut session = chaos.begin_training(&spec).unwrap();
        session.train_batch(&batch, &labels).unwrap();
        assert!(matches!(
            session.train_batch(&batch, &labels),
            Err(BackendError::Injected { call: 1 })
        ));
        session.train_batch(&batch, &labels).unwrap();
        assert_eq!(session.examples(0), 8);
    }
}
