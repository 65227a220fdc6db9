//! The thread-pool core: a lazily-initialized global registry of
//! `std::thread` workers plus explicitly-built pools ([`ThreadPool`]),
//! a work-sharing [`join`], and the indexed dispatch the parallel
//! iterators drive through.
//!
//! ## Execution model
//!
//! * Each [`Registry`] owns `n − 1` worker threads (the caller is the
//!   n-th participant) and one shared FIFO injector queue guarded by a
//!   mutex + condvar. Workers block on the condvar when idle.
//! * [`join`] pushes the right-hand closure onto the current registry's
//!   queue, runs the left-hand closure inline, then *helps*: while the
//!   right half is pending or running elsewhere, the caller pops and
//!   executes other queued jobs instead of blocking — this is the
//!   work-stealing discipline that keeps nested joins deadlock-free
//!   (every waiter makes global progress).
//! * Jobs borrow stack data from their spawner. The single `unsafe`
//!   surface of this crate is the lifetime erasure in [`JobRef`]; it is
//!   sound because the spawner never leaves `join` — by return **or by
//!   unwind** — until the job is reclaimed from the queue or its latch
//!   is set, so the borrowed frame outlives every access (the same
//!   argument rayon itself makes).
//! * The pool size comes from `TGI_NUM_THREADS` (if set to a positive
//!   integer) or `std::thread::available_parallelism()`. A size of 1
//!   spawns no workers at all: every entry point degenerates to plain
//!   sequential execution, which is what `TGI_NUM_THREADS=1` promises.
//!
//! Panics inside a job are caught on the worker, carried back through
//! the latch, and resumed on the thread that owns the join — a panic in
//! a kernel closure therefore unwinds the caller exactly as the
//! sequential shim did, and never kills a pool worker. A panic in the
//! *inline* half of a join first reclaims (or waits out) the spawned
//! half before unwinding, so no worker is ever left holding a pointer
//! into a dead frame.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread;
use std::time::Duration;

/// Environment variable overriding the global pool size.
pub const NUM_THREADS_ENV: &str = "TGI_NUM_THREADS";

// ---------------------------------------------------------------------------
// Registry: the shared state of one pool.
// ---------------------------------------------------------------------------

/// A type-erased pointer to a [`StackJob`] living on a spawner's stack.
///
/// Soundness: the spawner blocks (while helping) until the job's latch
/// is set, then takes the job's result lock before it returns; `execute`
/// sets the latch and notifies under that lock and releases it as its
/// last touch of the job, so the pointee is always alive when
/// dereferenced.
#[derive(Clone, Copy)]
struct JobRef {
    execute: unsafe fn(*const ()),
    data: *const (),
}

// SAFETY: a JobRef is only ever executed once, and the StackJob it
// points to synchronizes hand-off through its latch; the closures it
// carries are constrained to `Send` by `join`'s bounds.
unsafe impl Send for JobRef {}

struct Shared {
    queue: VecDeque<JobRef>,
    terminating: bool,
}

pub(crate) struct Registry {
    shared: Mutex<Shared>,
    job_ready: Condvar,
    num_threads: usize,
}

impl Registry {
    fn new(num_threads: usize) -> Arc<Registry> {
        let num_threads = num_threads.max(1);
        let registry = Arc::new(Registry {
            shared: Mutex::new(Shared { queue: VecDeque::new(), terminating: false }),
            job_ready: Condvar::new(),
            num_threads,
        });
        // The caller of every parallel entry point participates, so a
        // pool of size n needs only n − 1 dedicated workers.
        for i in 1..num_threads {
            let reg = Arc::clone(&registry);
            thread::Builder::new()
                .name(format!("tgi-rayon-{i}"))
                .spawn(move || reg.worker_loop(i))
                .expect("failed to spawn pool worker thread");
        }
        registry
    }

    /// The blocking loop each dedicated worker runs.
    fn worker_loop(self: Arc<Registry>, index: usize) {
        WORKER_REGISTRY.with(|cell| cell.set(Arc::as_ptr(&self) as usize));
        // Opt-in affinity: worker i takes CPU i (the caller thread is
        // participant 0), wrapping on oversubscribed pools. Best-effort —
        // a refused mask just means unpinned operation.
        if crate::affinity::pin_requested() {
            let _ = crate::affinity::pin_current_thread(index);
        }
        // Per-worker busy-time gauge, resolved lazily so an uninstrumented
        // run never touches the metrics registry.
        let mut busy_gauge = None;
        loop {
            let job = {
                let mut shared = self.shared.lock().expect("pool queue poisoned");
                loop {
                    if let Some(job) = shared.queue.pop_front() {
                        break Some(job);
                    }
                    if shared.terminating {
                        break None;
                    }
                    shared = self.job_ready.wait(shared).expect("pool queue poisoned");
                }
            };
            match job {
                // SAFETY: see JobRef — the spawner keeps the pointee
                // alive until the latch this call sets.
                Some(job) => {
                    if tgi_telemetry::enabled() {
                        let started = std::time::Instant::now();
                        unsafe { (job.execute)(job.data) }
                        let busy = started.elapsed().as_secs_f64();
                        tgi_telemetry::counter!("tgi_pool_jobs_total").inc();
                        tgi_telemetry::counter!("tgi_pool_steals_total").inc();
                        tgi_telemetry::gauge!("tgi_pool_busy_seconds").add(busy);
                        busy_gauge
                            .get_or_insert_with(|| {
                                tgi_telemetry::metrics::gauge(&format!(
                                    "tgi_pool_worker_{index}_busy_seconds"
                                ))
                            })
                            .add(busy);
                    } else {
                        unsafe { (job.execute)(job.data) }
                    }
                }
                None => return,
            }
        }
    }

    fn inject(&self, job: JobRef) {
        let mut shared = self.shared.lock().expect("pool queue poisoned");
        shared.queue.push_back(job);
        drop(shared);
        self.job_ready.notify_one();
    }

    /// Pops one pending job, if any. Used by helpers while they wait.
    fn try_pop(&self) -> Option<JobRef> {
        self.shared.lock().expect("pool queue poisoned").queue.pop_front()
    }

    /// Removes `job` from the queue if nobody has claimed it yet.
    ///
    /// Poison-tolerant: this runs on `join`'s unwind path, where a
    /// second panic would abort the process.
    fn try_reclaim(&self, job: &JobRef) -> bool {
        let mut shared = self.shared.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(pos) = shared.queue.iter().position(|j| std::ptr::eq(j.data, job.data)) {
            shared.queue.remove(pos);
            true
        } else {
            false
        }
    }
}

// ---------------------------------------------------------------------------
// Current-registry resolution.
// ---------------------------------------------------------------------------

thread_local! {
    /// Raw pointer (as usize) to the registry this thread works for:
    /// set permanently on pool workers, temporarily by `install`.
    /// 0 means "no registry" → the global one.
    static WORKER_REGISTRY: Cell<usize> = const { Cell::new(0) };
}

fn global_registry() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Registry::new(default_num_threads()))
}

/// Pool size: `TGI_NUM_THREADS` if set to a positive integer, else the
/// machine's available parallelism.
fn default_num_threads() -> usize {
    if let Ok(v) = std::env::var(NUM_THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The registry the current thread should dispatch into.
fn current_registry() -> Arc<Registry> {
    let ptr = WORKER_REGISTRY.with(|cell| cell.get());
    if ptr == 0 {
        Arc::clone(global_registry())
    } else {
        // SAFETY: the pointee is alive: for workers, the worker loop
        // holds an Arc for its whole life; for `install` frames, the
        // ThreadPool holds one for the duration of the closure.
        unsafe {
            let reg = ptr as *const Registry;
            Arc::increment_strong_count(reg);
            Arc::from_raw(reg)
        }
    }
}

/// Number of threads in the current pool (the global one unless called
/// inside [`ThreadPool::install`] or on a pool worker).
pub fn current_num_threads() -> usize {
    current_registry().num_threads
}

// ---------------------------------------------------------------------------
// StackJob + join.
// ---------------------------------------------------------------------------

const PENDING: u8 = 0;
const EXECUTING: u8 = 1;
const DONE: u8 = 2;

/// How long a waiter parks on a job's completion condvar before
/// re-checking the queue for newly injected jobs it could help with.
const PARK_TIMEOUT: Duration = Duration::from_micros(200);

/// How many `yield_now` spins a waiter burns before parking: short jobs
/// usually finish within a few quanta, and parking costs a syscall.
const SPINS_BEFORE_PARK: u32 = 8;

/// A job whose closure and result live on the spawning thread's stack.
struct StackJob<F, R> {
    func: Mutex<Option<F>>,
    result: Mutex<Option<thread::Result<R>>>,
    /// Signalled (with `state` already DONE, under the `result` lock)
    /// when the job finishes, so waiters can park instead of spinning.
    done: Condvar,
    state: AtomicU8,
}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    fn new(func: F) -> Self {
        StackJob {
            func: Mutex::new(Some(func)),
            result: Mutex::new(None),
            done: Condvar::new(),
            state: AtomicU8::new(PENDING),
        }
    }

    fn as_job_ref(&self) -> JobRef {
        JobRef { execute: Self::execute, data: self as *const Self as *const () }
    }

    /// Entry point workers call through the type-erased [`JobRef`].
    ///
    /// # Safety
    /// `data` must point to a live `StackJob<F, R>` that has not been
    /// executed yet.
    unsafe fn execute(data: *const ()) {
        let job = unsafe { &*(data as *const Self) };
        job.state.store(EXECUTING, Ordering::Release);
        let func = job.func.lock().expect("job slot poisoned").take();
        let Some(f) = func else {
            // Reclaimed by the spawner between pop and execute: cannot
            // happen (reclaim only succeeds while queued), but be safe.
            return;
        };
        let outcome = panic::catch_unwind(AssertUnwindSafe(f));
        // DONE is stored while the result lock is held: a waiter that
        // observes !DONE under the same lock is therefore guaranteed to
        // receive the notify below — no lost wakeup.
        //
        // The notify also happens under the lock. The spawner takes this
        // lock before it reads the result and returns, so releasing it is
        // the last touch of the job; a notify after the release would
        // write into the condvar of a frame that may already be gone.
        let mut slot = job.result.lock().expect("job result poisoned");
        *slot = Some(outcome);
        job.state.store(DONE, Ordering::Release);
        job.done.notify_all();
        drop(slot);
    }

    fn run_inline(&self) -> R {
        let f = self.func.lock().expect("job slot poisoned").take().expect("job already taken");
        f()
    }

    /// Waits for a spawned job, executing other queued jobs meanwhile;
    /// propagates the job's result or panic to the caller.
    fn wait_helping(&self, registry: &Registry) -> R {
        self.help_until_done(registry);
        let outcome =
            self.result.lock().expect("job result poisoned").take().expect("done job has a result");
        match outcome {
            Ok(r) => r,
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Waits for a spawned job while the caller is already unwinding:
    /// blocks until no worker can still touch this frame, then discards
    /// the job's result — including any panic payload, since the
    /// caller's own panic is the one being propagated. Poison-tolerant
    /// throughout: a second panic here would abort the process.
    fn wait_quiet(&self, registry: &Registry) {
        self.help_until_done(registry);
        let _ = self.result.lock().unwrap_or_else(PoisonError::into_inner).take();
    }

    /// Drives the pool until this job reaches DONE. While the job is
    /// pending or running elsewhere the caller helps by executing other
    /// queued jobs; once the queue drains it briefly yields, then parks
    /// on the completion condvar (with a short timeout so newly
    /// injected jobs still get helped) instead of burning a core on an
    /// unbounded yield-spin.
    fn help_until_done(&self, registry: &Registry) {
        let mut idle_spins = 0u32;
        while self.state.load(Ordering::Acquire) != DONE {
            match registry.try_pop() {
                // Helping: run someone else's job while we wait.
                // SAFETY: see JobRef.
                Some(job) => {
                    idle_spins = 0;
                    if tgi_telemetry::enabled() {
                        let started = std::time::Instant::now();
                        unsafe { (job.execute)(job.data) }
                        tgi_telemetry::counter!("tgi_pool_jobs_total").inc();
                        tgi_telemetry::counter!("tgi_pool_steals_total").inc();
                        tgi_telemetry::gauge!("tgi_pool_busy_seconds")
                            .add(started.elapsed().as_secs_f64());
                    } else {
                        unsafe { (job.execute)(job.data) }
                    }
                }
                None if idle_spins < SPINS_BEFORE_PARK => {
                    idle_spins += 1;
                    thread::yield_now();
                }
                None => {
                    if tgi_telemetry::enabled() {
                        tgi_telemetry::counter!("tgi_pool_parks_total").inc();
                    }
                    let guard = self.result.lock().unwrap_or_else(PoisonError::into_inner);
                    // Re-check under the lock: execute() sets DONE while
                    // holding it, so seeing !DONE here guarantees the
                    // notify has not fired yet.
                    if self.state.load(Ordering::Acquire) != DONE {
                        let _ = self
                            .done
                            .wait_timeout(guard, PARK_TIMEOUT)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        }
    }
}

/// Runs `a` and `b`, potentially in parallel, returning both results.
///
/// `b` is offered to the current pool; the calling thread runs `a`,
/// then either reclaims `b` (if no worker picked it up) or helps drain
/// the queue until `b` completes. With a pool of size 1 both closures
/// simply run on the caller.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let registry = current_registry();
    if registry.num_threads <= 1 {
        return (a(), b());
    }
    let job_b = StackJob::new(b);
    registry.inject(job_b.as_job_ref());
    // Panic safety: if `a` unwinds while job_b is still queued or
    // running on a worker, the unwind would deallocate the StackJob in
    // this frame while that worker can still reach it through its
    // JobRef (use-after-free). Catch the panic, make the job
    // unreachable — reclaim it from the queue, or wait for the worker
    // to finish with it — and only then resume unwinding.
    let ra = match panic::catch_unwind(AssertUnwindSafe(a)) {
        Ok(ra) => ra,
        Err(payload) => {
            if !registry.try_reclaim(&job_b.as_job_ref()) {
                job_b.wait_quiet(&registry);
            }
            panic::resume_unwind(payload);
        }
    };
    let rb = if registry.try_reclaim(&job_b.as_job_ref()) {
        // Reclaimed before any worker saw it: executed here, so it counts
        // as a job but not as a steal.
        if tgi_telemetry::enabled() {
            tgi_telemetry::counter!("tgi_pool_jobs_total").inc();
        }
        job_b.run_inline()
    } else {
        job_b.wait_helping(&registry)
    };
    (ra, rb)
}

/// How many binary splits a parallel dispatch should perform: enough to
/// give every thread a handful of tasks for dynamic load balancing.
pub(crate) fn split_budget() -> usize {
    let threads = current_num_threads();
    if threads <= 1 {
        0
    } else {
        // ~4 leaves per thread: log2(threads) + 2 split levels.
        (usize::BITS - (threads - 1).leading_zeros()) as usize + 2
    }
}

// ---------------------------------------------------------------------------
// Explicit pools: ThreadPoolBuilder / ThreadPool.
// ---------------------------------------------------------------------------

/// Error building a [`ThreadPool`] (kept for rayon API compatibility;
/// construction cannot currently fail).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for an explicit [`ThreadPool`], mirroring rayon's API.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with default settings (pool sized like the global one).
    pub fn new() -> Self {
        ThreadPoolBuilder { num_threads: 0 }
    }

    /// Sets the pool size; 0 means "use the default sizing rule".
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool, spawning its workers.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 { default_num_threads() } else { self.num_threads };
        Ok(ThreadPool { registry: Registry::new(n) })
    }
}

/// An explicitly-built pool. Parallel entry points called inside
/// [`ThreadPool::install`] dispatch into this pool instead of the
/// global one — the hook the oracle tests use to compare kernels at
/// 1, 2, and N threads within one process.
pub struct ThreadPool {
    registry: Arc<Registry>,
}

impl ThreadPool {
    /// Runs `f` with this pool as the current dispatch target.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = WORKER_REGISTRY.with(|cell| {
            let prev = cell.get();
            cell.set(Arc::as_ptr(&self.registry) as usize);
            prev
        });
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                WORKER_REGISTRY.with(|cell| cell.set(self.0));
            }
        }
        let _restore = Restore(prev);
        f()
    }

    /// Number of threads this pool dispatches across.
    pub fn current_num_threads(&self) -> usize {
        self.registry.num_threads
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Wake every worker with the termination flag so their Arcs
        // (and threads) are released; queued jobs have all completed by
        // now because each spawner waits on its latch before returning.
        let mut shared = self.registry.shared.lock().expect("pool queue poisoned");
        shared.terminating = true;
        drop(shared);
        self.registry.job_ready.notify_all();
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("num_threads", &self.registry.num_threads).finish()
    }
}
