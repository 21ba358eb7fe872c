//! Batch-dispatch machinery: the persistent worker pool, the raw-slice
//! batch smuggling types, and the unwind guard that makes the smuggling
//! sound.
//!
//! One dispatcher uses this module: [`fast`](super::fast), which fans
//! chunks of one batch (classification or training) across the threads
//! of a single session's pool. Its contract: the dispatching frame
//! keeps a [`ResultDrain`] guard alive from the first dispatch until
//! every dispatched job has reported back — on the happy path *and*
//! during unwinding — so the borrowed slices behind [`RawWindows`] /
//! [`RawLabels`] strictly outlive all worker accesses.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use super::{BackendError, Verdict};

/// Stringifies a `catch_unwind` payload (the `panic!` message when it
/// was a string, a placeholder otherwise).
pub(super) fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload")
        .to_owned()
}

/// Runs `f` with its panics contained: a panic becomes `Err(message)`
/// instead of unwinding the calling thread. This is the panic-isolation
/// primitive of the dispatch layer — pool workers wrap each job in it so
/// one poisoned window cannot take down the session, and dispatchers
/// turn the `Err` into a typed [`BackendError::WorkerLost`].
///
/// `AssertUnwindSafe` is justified at every call site by construction:
/// on `Err`, the caller rebuilds the state the closure touched (a
/// worker's scratch arena and query cache) before the next job.
pub(super) fn contain<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_text(p.as_ref()))
}

/// Filters the process panic hook so *expected* test panics (injected
/// faults, the out-of-range jobs the containment tests craft) stop
/// spamming stderr from worker threads, while anything else still
/// reaches the previous hook. Installed once per test binary; safe
/// under parallel tests because unexpected panics pass through.
#[cfg(test)]
pub(crate) fn silence_expected_panics() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = panic_text(info.payload());
            if !(message.contains("injected fault")
                || message.contains("out of range")
                || message.contains("out of bounds"))
            {
                previous(info);
            }
        }));
    });
}

/// A borrowed batch smuggled across a channel as a raw slice.
///
/// Soundness: the dispatching call keeps a [`ResultDrain`] guard alive
/// from the first dispatch until every dispatched chunk has reported
/// back — on the happy path *and* during unwinding — so the pointee
/// (`&[Vec<Vec<u16>>]` borrowed by the caller) strictly outlives all
/// worker accesses, and workers only read.
pub(super) struct RawWindows {
    pub(super) ptr: *const Vec<Vec<u16>>,
    pub(super) len: usize,
}

impl RawWindows {
    /// Captures a borrowed batch for dispatch (see the soundness
    /// contract above — the caller must hold a [`ResultDrain`]).
    pub(super) fn of(windows: &[Vec<Vec<u16>>]) -> Self {
        Self {
            ptr: windows.as_ptr(),
            len: windows.len(),
        }
    }

    /// Reborrows the smuggled batch inside a worker.
    ///
    /// # Safety
    ///
    /// Callable only from a pool worker serving a job whose dispatcher
    /// still holds the [`ResultDrain`] guard for this job — i.e. the
    /// original slice is still borrowed by the dispatching frame.
    pub(super) unsafe fn slice<'a>(&self) -> &'a [Vec<Vec<u16>>] {
        std::slice::from_raw_parts(self.ptr, self.len)
    }
}

// SAFETY: the pointee is a shared slice only read by the receiving
// worker while the sending batch call keeps the borrow alive (its
// `ResultDrain` guard joins on the result channel before the frame —
// panicking or not — can release the borrow).
unsafe impl Send for RawWindows {}

/// A borrowed label slice, under the same [`ResultDrain`] contract as
/// [`RawWindows`].
pub(super) struct RawLabels {
    pub(super) ptr: *const usize,
    pub(super) len: usize,
}

impl RawLabels {
    /// Captures a borrowed label slice for dispatch.
    pub(super) fn of(labels: &[usize]) -> Self {
        Self {
            ptr: labels.as_ptr(),
            len: labels.len(),
        }
    }

    /// Reborrows the smuggled labels inside a worker.
    ///
    /// # Safety
    ///
    /// As [`RawWindows::slice`].
    pub(super) unsafe fn slice<'a>(&self) -> &'a [usize] {
        std::slice::from_raw_parts(self.ptr, self.len)
    }
}

// SAFETY: as for `RawWindows` — shared read-only slice, outlived by the
// dispatcher's drain guard.
unsafe impl Send for RawLabels {}

/// A chunk's completion message: chunk index + its verdicts.
pub(super) type ChunkResult = (usize, Result<Vec<Verdict>, BackendError>);

/// Unwind guard for a batch in flight: counts dispatched chunks and, if
/// the dispatching frame unwinds before collecting them (a worker died,
/// or chunk 0 panicked), blocks in `drop` until every outstanding chunk
/// has reported or every worker-held sender is gone — whichever comes
/// first. Workers drop their job (and its sender clone) when they
/// finish or unwind, and in both cases they have stopped touching the
/// batch slices by then, so once `drop` returns no worker can still see
/// the caller's borrows.
pub(super) struct ResultDrain<'a, T> {
    pub(super) rx: &'a Receiver<(usize, T)>,
    /// The dispatcher's own sender, dropped before draining so `recv`
    /// can observe channel closure instead of deadlocking.
    pub(super) tx: Option<Sender<(usize, T)>>,
    pub(super) outstanding: usize,
}

impl<T> Drop for ResultDrain<'_, T> {
    fn drop(&mut self) {
        self.tx = None;
        while self.outstanding > 0 {
            if self.rx.recv().is_err() {
                break;
            }
            self.outstanding -= 1;
        }
    }
}

/// A session's persistent worker pool: long-lived threads, one job
/// channel and one private worker state (scratch arena, query cache)
/// each, generic over the job type it serves. Spawned once at session
/// construction; dropped (channels closed, threads joined) with the
/// session.
pub(super) struct WorkerPool<J: Send + 'static> {
    pub(super) senders: Vec<Sender<J>>,
    handles: Vec<JoinHandle<()>>,
}

impl<J: Send + 'static> WorkerPool<J> {
    /// Spawns `workers` threads, each running the job handler built by
    /// one `make_worker()` call (the builder runs on the spawning
    /// thread, so it can move per-worker state — a scratch arena, a
    /// query cache — into the handler it returns).
    pub(super) fn spawn<W, F>(workers: usize, mut make_worker: F) -> Self
    where
        W: FnMut(J) + Send + 'static,
        F: FnMut() -> W,
    {
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let mut work = make_worker();
            let (tx, rx): (Sender<J>, Receiver<J>) = channel();
            handles.push(std::thread::spawn(move || {
                while let Ok(job) = rx.recv() {
                    work(job);
                }
            }));
            senders.push(tx);
        }
        Self { senders, handles }
    }

    pub(super) fn workers(&self) -> usize {
        self.senders.len()
    }
}

impl<J: Send + 'static> Drop for WorkerPool<J> {
    fn drop(&mut self) {
        // Closing the job channels ends each worker's recv loop.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Adaptive fan-out for a batch of `batch` items over a pool: as many
/// participants as the pool offers, but never fewer than
/// [`min_per_worker`](super::fast::MIN_WINDOWS_PER_WORKER) items each —
/// `1` means "stay inline on the calling thread".
pub(super) fn fan_out_for<J: Send + 'static>(
    pool: &WorkerPool<J>,
    batch: usize,
    min_per_worker: usize,
) -> usize {
    (pool.workers() + 1).min(batch / min_per_worker).max(1)
}
