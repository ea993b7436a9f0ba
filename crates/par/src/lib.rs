//! Deterministic data-parallel runtime for the hidden-layer-models
//! workspace.
//!
//! Everything here is std-only: a lazily-initialized **persistent worker
//! pool** (workers park on a channel `recv` and are fed lifetime-erased
//! jobs; no thread is spawned per call) plus a small set of chunked
//! primitives and a work-size **cost model** that routes small inputs to
//! the serial path. The design contract is **determinism independent of
//! thread count**:
//!
//! * **Fixed chunk boundaries** — chunk boundaries are a pure function of
//!   the data size and the chunk size, never of the worker count. The same
//!   input always produces the same chunks; which slot runs a chunk is
//!   decided at run time, by whichever slot claims it first.
//! * **Ordered reduction** — chunk results are merged in chunk order, so
//!   floating-point accumulation follows one canonical order no matter
//!   which worker produced which chunk, or in what order they finished.
//! * **Per-chunk RNG streams** — callers derive one seed per
//!   `(master seed, iteration, chunk index)` with [`split_seed`] /
//!   [`split_seed3`], so stochastic sweeps (Gibbs sampling, BPMF draws,
//!   datagen) consume independent streams that do not depend on scheduling.
//!
//! Under this contract a run with one worker and a run with sixteen produce
//! bit-identical results; parallelism — and the cost model's serial
//! fallback — only change wall-clock time. That is what lets the parallel
//! trainers keep the checkpoint/resume bit-identity guarantees introduced
//! with the resilience layer.
//!
//! # Pool lifecycle
//!
//! Workers are process-global and spawned on first parallel dispatch, grown
//! on demand up to the widest width ever requested, and then reused by
//! every later call ([`Pool`] itself is a cheap `Copy` scheduling handle).
//! Between jobs they are parked inside `Receiver::recv`. [`shutdown_pool`]
//! closes the channels and joins every worker (the next dispatch respawns
//! lazily); at process exit the OS reclaims parked workers, so calling it
//! is optional. A job dispatched *from inside* a pool worker (nested
//! parallelism) runs on the serial path — same results, no risk of a
//! worker waiting on its own queue.
//!
//! # Cost model
//!
//! Spawning was free to decide when threads were scoped per call; with any
//! pool, dispatch itself has a fixed cost (wake + schedule + join
//! handshake), so parallelizing tiny inputs is a pure penalty. Callers
//! describe a call's total work with a [`Budget`] (1 unit ≈ 1 ns of serial
//! inner-loop time); the `*_budgeted` entry points compare it against
//! [`par_threshold`] — calibrated once per process from the measured
//! dispatch latency, overridable via `HLM_PAR_THRESHOLD` or
//! [`set_par_threshold`] — and fall back to the serial path when the work
//! cannot amortize the dispatch. The decision only ever picks *which
//! schedule* executes the fixed chunk plan, never what it computes.
//!
//! The worker count comes from, in priority order: an explicit
//! [`Pool::new`], the process-wide [`set_threads`] override (the engine's
//! `--threads` option), the `HLM_THREADS` environment variable, and finally
//! [`std::thread::available_parallelism`].

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::Instant;

/// Process-wide worker-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker count used by [`Pool::global`]. Passing 0
/// clears the override, falling back to `HLM_THREADS` / detected
/// parallelism. This only changes how many workers execute the fixed chunk
/// schedule — results are unaffected by construction.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The worker count [`Pool::global`] would use right now: the
/// [`set_threads`] override if set, else `HLM_THREADS` if parsable and
/// positive, else [`std::thread::available_parallelism`] (1 when detection
/// fails).
pub fn effective_threads() -> usize {
    let over = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if over > 0 {
        return over;
    }
    if let Ok(s) = std::env::var("HLM_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

/// Sentinel for "no override installed" in [`set_par_threshold`].
const THRESHOLD_UNSET: u64 = u64::MAX;

/// Multiple of the measured dispatch latency a call's work must exceed
/// before the pool engages.
const PAR_AMORTIZE: u64 = 32;

/// Calibration clamp: even on hardware where dispatch measures very cheap,
/// anything under ~1 ms of work is not worth waking workers for — and even
/// on a noisy box the threshold must not grow past the point where real
/// paper-scale sweeps (tens of ms) stay serial.
const MIN_PAR_THRESHOLD: u64 = 1_000_000;
const MAX_PAR_THRESHOLD: u64 = 16_000_000;

static THRESHOLD_OVERRIDE: AtomicU64 = AtomicU64::new(THRESHOLD_UNSET);
static CALIBRATED_THRESHOLD: OnceLock<u64> = OnceLock::new();

/// Approximate total work of one parallel call, in units of ~1 ns of serial
/// inner-loop time. The `*_budgeted` entry points compare it against
/// [`par_threshold`] and take the serial path when the work is too small to
/// amortize a pool dispatch. [`Budget::UNBOUNDED`] always engages the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    work: u64,
}

impl Budget {
    /// A budget that always engages the pool (the pre-cost-model
    /// behaviour). Used where the caller knows the work is large or has no
    /// cheap estimate.
    pub(crate) const UNBOUNDED: Budget = Budget { work: u64::MAX };

    /// A budget of `work` units (≈ nanoseconds of serial work).
    pub const fn units(work: u64) -> Self {
        Budget { work }
    }

    /// `n` items at `unit_cost` units each, saturating.
    pub fn items(n: usize, unit_cost: u64) -> Self {
        Budget {
            work: (n as u64).saturating_mul(unit_cost),
        }
    }

    /// The estimated work in units.
    pub fn work(self) -> u64 {
        self.work
    }

    /// Whether this much work should engage `workers` pool workers. A pure
    /// function of the budget and the process-wide threshold — never of
    /// scheduling — so the serial/parallel choice is reproducible.
    /// `UNBOUNDED` engages without consulting (or calibrating) the
    /// threshold.
    pub fn engages(self, workers: usize) -> bool {
        if workers <= 1 {
            return false;
        }
        if self.work == u64::MAX {
            return true;
        }
        self.work >= par_threshold()
    }
}

/// Installs (`Some(units)`) or clears (`None`) a process-wide override of
/// the parallelism threshold. With the override cleared the threshold comes
/// from `HLM_PAR_THRESHOLD` or the one-time calibration. Tests pin
/// `Some(0)` to force the parallel path and large values to force serial.
pub fn set_par_threshold(units: Option<u64>) {
    THRESHOLD_OVERRIDE.store(units.unwrap_or(THRESHOLD_UNSET), Ordering::Relaxed);
}

/// The minimum [`Budget`] work (in units) a call needs before the pool
/// engages. Priority: [`set_par_threshold`] override, `HLM_PAR_THRESHOLD`,
/// then a one-time calibration that measures the pool's empty-job dispatch
/// latency and multiplies it by an amortization factor (clamped to
/// `[1e6, 16e6]` units).
pub fn par_threshold() -> u64 {
    let over = THRESHOLD_OVERRIDE.load(Ordering::Relaxed);
    if over != THRESHOLD_UNSET {
        return over;
    }
    if let Ok(s) = std::env::var("HLM_PAR_THRESHOLD") {
        if let Ok(n) = s.trim().parse::<u64>() {
            return n;
        }
    }
    *CALIBRATED_THRESHOLD.get_or_init(calibrate_threshold)
}

/// Measures the round-trip latency of an empty two-slot dispatch (best of a
/// few rounds, so scheduler noise inflates nothing) and converts it into a
/// work threshold.
fn calibrate_threshold() -> u64 {
    let mut best = u64::MAX;
    for _ in 0..16 {
        let t0 = Instant::now();
        dispatch(2, &|_slot| {});
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    best.saturating_mul(PAR_AMORTIZE)
        .clamp(MIN_PAR_THRESHOLD, MAX_PAR_THRESHOLD)
}

// ---------------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------------

thread_local! {
    /// Set for the lifetime of a pool worker thread; a dispatch attempted
    /// from such a thread runs serially instead (nested parallelism).
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn in_pool_worker() -> bool {
    IN_POOL_WORKER.with(|c| c.get())
}

/// One parallel call in flight. `body` is the caller's slot closure with
/// its lifetime erased; the dispatching thread blocks until `remaining`
/// background slots have finished, so the borrow outlives every use.
struct Job {
    body: &'static (dyn Fn(usize) + Sync),
    state: Mutex<JobState>,
    cv: Condvar,
}

struct JobState {
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// Channel end a background worker receives `(job, slot)` assignments on.
type JobSender = Sender<(Arc<Job>, usize)>;

impl Job {
    /// # Safety
    /// The caller must not return (or otherwise invalidate `body`) until
    /// the job's `remaining` count has reached zero.
    unsafe fn new(body: &(dyn Fn(usize) + Sync), remaining: usize) -> Job {
        let body: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
        Job {
            body,
            state: Mutex::new(JobState {
                remaining,
                panic: None,
            }),
            cv: Condvar::new(),
        }
    }
}

/// The process-global persistent worker set, grown lazily and reused by
/// every [`Pool`] handle.
struct Runtime {
    set: Mutex<WorkerSet>,
    /// Slot messages sent but not yet picked up by a worker — the pool's
    /// task-queue depth, observed into a histogram at dispatch time.
    inflight: AtomicUsize,
}

#[derive(Default)]
struct WorkerSet {
    senders: Vec<Sender<(Arc<Job>, usize)>>,
    handles: Vec<thread::JoinHandle<()>>,
}

fn runtime() -> &'static Runtime {
    static RUNTIME: OnceLock<Runtime> = OnceLock::new();
    RUNTIME.get_or_init(|| Runtime {
        set: Mutex::new(WorkerSet::default()),
        inflight: AtomicUsize::new(0),
    })
}

/// Parked-worker main loop: block on `recv`, run the slot, report
/// completion (and any panic payload) through the job, park again. Exits
/// when the sender side is dropped by [`shutdown_pool`].
fn worker_loop(rx: Receiver<(Arc<Job>, usize)>) {
    IN_POOL_WORKER.with(|c| c.set(true));
    while let Ok((job, slot)) = rx.recv() {
        runtime().inflight.fetch_sub(1, Ordering::Relaxed);
        let result = catch_unwind(AssertUnwindSafe(|| (job.body)(slot)));
        let mut st = job.state.lock().expect("job state poisoned");
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            job.cv.notify_all();
        }
    }
}

/// Ensures at least `n` background workers exist; returns their senders and
/// how many had to be spawned (0 = a fully warm pool was reused).
fn ensure_workers(n: usize) -> (Vec<JobSender>, usize) {
    let rt = runtime();
    let mut set = rt.set.lock().expect("worker set poisoned");
    let mut spawned = 0;
    while set.senders.len() < n {
        let (tx, rx) = channel();
        let idx = set.senders.len();
        let handle = thread::Builder::new()
            .name(format!("hlm-par-worker-{idx}"))
            .spawn(move || worker_loop(rx))
            .expect("failed to spawn pool worker");
        set.senders.push(tx);
        set.handles.push(handle);
        spawned += 1;
    }
    (set.senders[..n].to_vec(), spawned)
}

/// Runs `body(slot)` for every slot in `0..slots`: slot 0 inline on the
/// calling thread, the rest on parked pool workers. Blocks until every slot
/// has finished, then re-raises the first panic (caller's slot wins).
fn dispatch(slots: usize, body: &(dyn Fn(usize) + Sync)) {
    debug_assert!(slots >= 2, "dispatch needs at least one background slot");
    let rec = hlm_obs::global();
    let background = slots - 1;
    let (senders, spawned) = ensure_workers(background);
    if spawned == 0 {
        rec.add("par.pool_reused", 1);
    } else {
        rec.add("par.pool_spawned", spawned as u64);
    }
    let rt = runtime();
    let depth = rt.inflight.fetch_add(background, Ordering::Relaxed) + background;
    rec.observe("par.queue_depth", depth as f64);
    // SAFETY: this function does not return until `remaining` is zero, so
    // `body` outlives every worker dereference.
    let job = Arc::new(unsafe { Job::new(body, background) });
    for (i, tx) in senders.iter().enumerate() {
        tx.send((Arc::clone(&job), i + 1))
            .expect("pool worker channel closed mid-dispatch");
    }
    let caller = catch_unwind(AssertUnwindSafe(|| body(0)));
    let mut st = job.state.lock().expect("job state poisoned");
    while st.remaining > 0 {
        st = job.cv.wait(st).expect("job state poisoned");
    }
    let worker_panic = st.panic.take();
    drop(st);
    if let Err(payload) = caller {
        resume_unwind(payload);
    }
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }
}

/// Shuts the persistent pool down cleanly: closes every task channel and
/// joins the parked workers. Must only be called while no parallel call is
/// in flight. The next parallel dispatch lazily respawns workers, so this
/// is optional housekeeping (at process exit the OS reclaims parked
/// threads) — useful for tests that audit thread leaks.
#[cfg(test)]
pub(crate) fn shutdown_pool() {
    let rt = runtime();
    let mut set = rt.set.lock().expect("worker set poisoned");
    set.senders.clear();
    for handle in set.handles.drain(..) {
        let _ = handle.join();
    }
}

/// Number of live background pool workers (diagnostic; used by tests to
/// assert reuse and clean shutdown).
#[cfg(test)]
pub(crate) fn pool_workers() -> usize {
    runtime()
        .set
        .lock()
        .expect("worker set poisoned")
        .senders
        .len()
}

/// A scheduling handle of a fixed logical width. All handles share the one
/// process-global persistent worker set; `threads` only bounds how many
/// slots a call may occupy, so the handle stays a trivial `Copy` value.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool handle with an explicit worker count (at least 1). Used
    /// directly by the determinism tests to pin specific counts such as 1,
    /// 2 and 7.
    ///
    /// # Panics
    /// Panics if `threads` is 0.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "pool needs at least one worker");
        Pool { threads }
    }

    /// The pool honouring the process-wide thread policy (see
    /// [`effective_threads`]).
    pub fn global() -> Self {
        Pool {
            threads: effective_threads(),
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `n_tasks` independent tasks and returns their results **in task
    /// order**, always engaging the pool when more than one worker fits
    /// (the [`Budget::UNBOUNDED`] cost). Tasks are handed to slots through
    /// an atomic counter; because each result is keyed by its task index,
    /// the output is independent of which worker ran what.
    pub fn run<R, F>(&self, n_tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.run_budgeted(Budget::UNBOUNDED, n_tasks, f)
    }

    /// [`Pool::run`] with a cost model: when `budget` is below
    /// [`par_threshold`] (or the call is nested inside a pool worker) the
    /// tasks run serially on the calling thread — same results, no dispatch
    /// overhead.
    pub(crate) fn run_budgeted<R, F>(&self, budget: Budget, n_tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        claim_each(self, budget, n_tasks, || (), |_, i| f(i))
    }
}

/// The one schedule behind every parallel entry point: runs `task(state,
/// i)` for each `i` in `0..n_tasks` and returns the results **in index
/// order**. Serially on the calling thread when at most one worker fits,
/// the call is nested inside a pool worker, or `budget` does not engage
/// the pool; otherwise each slot claims the next unclaimed index from one
/// atomic counter until none is left, so a slot that is slowed (an uneven
/// task, a vCPU taken by another process) never holds back work another
/// slot could do. `slot_state()` builds a slot's state when it claims its
/// first index, and the slot reuses it for every later index: at most one
/// build per slot.
fn claim_each<S, R>(
    pool: &Pool,
    budget: Budget,
    n_tasks: usize,
    slot_state: impl Fn() -> S + Sync,
    task: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R>
where
    R: Send,
{
    if n_tasks == 0 {
        return Vec::new();
    }
    // Task/run counters depend only on the task count, so totals are
    // identical whichever path executes. Per-worker figures (busy time,
    // queue depth, pool reuse) are scheduling observations and naturally
    // vary.
    let rec = hlm_obs::global();
    rec.add("par.runs", 1);
    rec.add("par.tasks", n_tasks as u64);
    let workers = pool.threads.min(n_tasks);
    if workers <= 1 || in_pool_worker() || !budget.engages(workers) {
        let mut state = slot_state();
        return (0..n_tasks).map(|i| task(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Vec<(usize, R)>>> =
        (0..workers).map(|_| Mutex::new(Vec::new())).collect();
    let rec = &rec;
    let body = |slot: usize| {
        let t0 = rec.is_enabled().then(Instant::now);
        let mut local = Vec::new();
        let mut state = None;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_tasks {
                break;
            }
            local.push((i, task(state.get_or_insert_with(&slot_state), i)));
        }
        if let Some(t0) = t0 {
            rec.observe("par.worker_busy_seconds", t0.elapsed().as_secs_f64());
            rec.observe("par.worker_tasks", local.len() as f64);
        }
        *results[slot].lock().expect("slot results poisoned") = local;
    };
    dispatch(workers, &body);
    let per_worker: Vec<Vec<(usize, R)>> = results
        .into_iter()
        .map(|m| m.into_inner().expect("slot results poisoned"))
        .collect();
    reorder(n_tasks, per_worker)
}

/// Hands each item of `items` out once, by index, to whichever slot
/// claims it: the claim loop takes every index exactly once, so each
/// uncontended lock here is taken once.
fn claimable<T>(items: impl Iterator<Item = T>) -> Vec<Mutex<Option<T>>> {
    items.map(|item| Mutex::new(Some(item))).collect()
}

/// Takes item `i` out of [`claimable`] cells.
fn claim<T>(cells: &[Mutex<Option<T>>], i: usize) -> T {
    cells[i]
        .lock()
        .expect("claim cell poisoned")
        .take()
        .expect("every index is claimed once")
}

/// Places `(index, value)` pairs into index order.
fn reorder<R>(n: usize, batches: Vec<Vec<(usize, R)>>) -> Vec<R> {
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in batches.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "task {i} produced twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|o| o.expect("every task ran"))
        .collect()
}

/// Number of fixed-size chunks covering `len` items (`chunk` is clamped to
/// at least 1). A pure function of the data — never of the thread count.
pub fn chunk_count(len: usize, chunk: usize) -> usize {
    len.div_ceil(chunk.max(1))
}

/// Half-open item range `[lo, hi)` of chunk `i`.
pub fn chunk_bounds(len: usize, chunk: usize, i: usize) -> (usize, usize) {
    let chunk = chunk.max(1);
    let lo = i * chunk;
    (lo.min(len), ((i + 1) * chunk).min(len))
}

/// Maps fixed chunks of `items` in parallel; returns one result per chunk,
/// in chunk order. `f` receives the chunk index and the chunk slice.
pub fn par_chunks<T, R, F>(pool: &Pool, items: &[T], chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    par_chunks_budgeted(pool, Budget::UNBOUNDED, items, chunk, f)
}

/// [`par_chunks`] with a cost model (see [`Pool::run_budgeted`]).
pub(crate) fn par_chunks_budgeted<T, R, F>(
    pool: &Pool,
    budget: Budget,
    items: &[T],
    chunk: usize,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let n = chunk_count(items.len(), chunk);
    pool.run_budgeted(budget, n, |i| {
        let (lo, hi) = chunk_bounds(items.len(), chunk, i);
        f(i, &items[lo..hi])
    })
}

/// Maps fixed chunks in parallel, then folds the chunk results **in chunk
/// order** on the calling thread. The ordered fold pins the floating-point
/// accumulation order, so the reduction is bitwise-reproducible across
/// thread counts.
pub fn par_map_reduce<T, R, A, F, G>(
    pool: &Pool,
    items: &[T],
    chunk: usize,
    map: F,
    init: A,
    fold: G,
) -> A
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
    G: FnMut(A, R) -> A,
{
    par_map_reduce_budgeted(pool, Budget::UNBOUNDED, items, chunk, map, init, fold)
}

/// [`par_map_reduce`] with a cost model (see [`Pool::run_budgeted`]).
pub(crate) fn par_map_reduce_budgeted<T, R, A, F, G>(
    pool: &Pool,
    budget: Budget,
    items: &[T],
    chunk: usize,
    map: F,
    init: A,
    fold: G,
) -> A
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
    G: FnMut(A, R) -> A,
{
    par_chunks_budgeted(pool, budget, items, chunk, map)
        .into_iter()
        .fold(init, fold)
}

/// Mutates fixed disjoint chunks of `items` in parallel, giving each chunk
/// a fresh state built by `init(chunk_index)` — typically an RNG seeded via
/// [`split_seed3`], or a reusable scratch buffer sized once per slot.
/// Returns one result per chunk, in chunk order. Slots claim chunks one at
/// a time as they free up; since every chunk's work depends only on its
/// own contents, index and state, the schedule cannot influence results.
pub fn par_for_each_init<T, S, R, I, F>(
    pool: &Pool,
    items: &mut [T],
    chunk: usize,
    init: I,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize, &mut [T]) -> R + Sync,
{
    par_for_each_init_budgeted(pool, Budget::UNBOUNDED, items, chunk, init, f)
}

/// [`par_for_each_init`] with a cost model (see [`Pool::run_budgeted`]).
/// `init(i)` runs once per **chunk** (it keys RNG streams); for scratch
/// buffers that should be built once and reused across chunks, see
/// [`par_for_each_scratch`].
pub(crate) fn par_for_each_init_budgeted<T, S, R, I, F>(
    pool: &Pool,
    budget: Budget,
    items: &mut [T],
    chunk: usize,
    init: I,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize, &mut [T]) -> R + Sync,
{
    let n = chunk_count(items.len(), chunk);
    let chunks = claimable(items.chunks_mut(chunk.max(1)));
    claim_each(
        pool,
        budget,
        n,
        || (),
        |_, i| {
            let mut state = init(i);
            f(&mut state, i, claim(&chunks, i))
        },
    )
}

/// Processes each element of `items` independently (one element = one work
/// unit, claimed by whichever slot frees up first), giving every **slot** a
/// single scratch value built by `init()` that is reused across all the
/// elements the slot processes — the allocation-free-inner-loop primitive:
/// buffers are sized at most once per slot, not once per chunk. Returns one
/// result per element, in element order.
///
/// **Determinism caveat:** which elements share a scratch instance depends
/// on the schedule, so `f` must fully overwrite whatever scratch
/// state it reads — results must be a pure function of `(element index,
/// element)`, with the scratch acting only as a buffer arena. RNG streams
/// must be derived inside `f` from the element index (via [`split_seed3`]),
/// never stored in the scratch.
pub fn par_for_each_scratch<T, S, R, I, F>(
    pool: &Pool,
    budget: Budget,
    items: &mut [T],
    init: I,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut T) -> R + Sync,
{
    let n = items.len();
    let cells = claimable(items.iter_mut());
    claim_each(pool, budget, n, init, |scratch, i| {
        f(scratch, i, claim(&cells, i))
    })
}

/// Derives an independent stream seed from a master seed and a stream
/// index. Two SplitMix64 finalizer rounds over the mixed pair: small input
/// deltas (stream 0, 1, 2, …) land far apart, so per-chunk `StdRng`s seeded
/// from consecutive indices are statistically unrelated.
pub fn split_seed(master: u64, stream: u64) -> u64 {
    let mut z = master
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Two-level stream derivation: `(master, a, b)` → seed. Used for
/// per-sweep, per-chunk streams: `a` is the sweep/iteration, `b` the chunk
/// index.
pub fn split_seed3(master: u64, a: u64, b: u64) -> u64 {
    split_seed(split_seed(master, a), b)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pool, the threshold override and the worker set are all
    /// process-global, and the default test harness runs tests
    /// concurrently — serialize every test that touches them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn chunk_bounds_cover_exactly() {
        for len in [0usize, 1, 5, 64, 65, 1000] {
            for chunk in [1usize, 3, 64, 1000] {
                let n = chunk_count(len, chunk);
                let mut covered = 0;
                for i in 0..n {
                    let (lo, hi) = chunk_bounds(len, chunk, i);
                    assert_eq!(lo, covered, "len {len} chunk {chunk} i {i}");
                    assert!(hi > lo);
                    covered = hi;
                }
                assert_eq!(covered, len);
            }
        }
        assert_eq!(chunk_count(0, 8), 0);
    }

    #[test]
    fn run_returns_results_in_task_order() {
        let _g = lock();
        for workers in [1, 2, 3, 7, 16] {
            let pool = Pool::new(workers);
            let out = pool.run(23, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_chunks_is_thread_count_independent() {
        let _g = lock();
        let items: Vec<f64> = (0..997).map(|i| (i as f64).sin()).collect();
        let serial = par_chunks(&Pool::new(1), &items, 64, |i, c| (i, c.iter().sum::<f64>()));
        for workers in [2, 7] {
            let par = par_chunks(&Pool::new(workers), &items, 64, |i, c| {
                (i, c.iter().sum::<f64>())
            });
            assert_eq!(serial, par, "workers {workers}");
        }
    }

    #[test]
    fn par_map_reduce_folds_in_chunk_order() {
        let _g = lock();
        let items: Vec<u32> = (0..100).collect();
        for workers in [1, 2, 7] {
            let order = par_map_reduce(
                &Pool::new(workers),
                &items,
                9,
                |i, _| i,
                Vec::new(),
                |mut acc: Vec<usize>, i| {
                    acc.push(i);
                    acc
                },
            );
            assert_eq!(order, (0..chunk_count(100, 9)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_for_each_init_mutates_disjoint_chunks() {
        let _g = lock();
        let mut serial: Vec<u64> = vec![0; 137];
        par_for_each_init(
            &Pool::new(1),
            &mut serial,
            16,
            |i| split_seed(42, i as u64),
            |seed, _i, chunk| {
                for (j, x) in chunk.iter_mut().enumerate() {
                    *x = seed.wrapping_add(j as u64);
                }
            },
        );
        for workers in [2, 7] {
            let mut par: Vec<u64> = vec![0; 137];
            par_for_each_init(
                &Pool::new(workers),
                &mut par,
                16,
                |i| split_seed(42, i as u64),
                |seed, _i, chunk| {
                    for (j, x) in chunk.iter_mut().enumerate() {
                        *x = seed.wrapping_add(j as u64);
                    }
                },
            );
            assert_eq!(serial, par, "workers {workers}");
        }
    }

    #[test]
    fn par_for_each_scratch_reuses_one_buffer_per_slot() {
        let _g = lock();
        // Scratch identity: count how many times init() ran. On the serial
        // path exactly once; on the parallel path at most one per slot.
        for workers in [1usize, 2, 7] {
            let inits = AtomicUsize::new(0);
            let mut items: Vec<u64> = (0..23).collect();
            let out = par_for_each_scratch(
                &Pool::new(workers),
                Budget::UNBOUNDED,
                &mut items,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    vec![0u64; 4]
                },
                |scratch, i, item| {
                    // Fully overwrite the scratch before reading it, as the
                    // contract demands.
                    scratch[0] = *item * 3;
                    *item = scratch[0];
                    i as u64 + scratch[0]
                },
            );
            let expect: Vec<u64> = (0..23).map(|i| i + i * 3).collect();
            assert_eq!(out, expect, "workers {workers}");
            assert_eq!(items, (0..23).map(|i| i * 3).collect::<Vec<_>>());
            assert!(inits.load(Ordering::Relaxed) <= workers.min(23));
        }
    }

    /// Item 0 of every call blocks until each other item has run, the most
    /// uneven cost there is: the call finishes only if the other slot
    /// claims every remaining item instead of waiting behind item 0 for a
    /// share fixed in advance.
    #[test]
    fn uneven_items_are_claimed_once_each_and_return_in_order() {
        use std::sync::mpsc::sync_channel;
        use std::time::Duration;

        let _g = lock();
        const N: usize = 41;
        let wait_for_the_rest = |rx: &Mutex<Receiver<usize>>| {
            let rx = rx.lock().unwrap();
            for _ in 1..N {
                rx.recv_timeout(Duration::from_secs(60))
                    .expect("the other slot ran the remaining items");
            }
        };

        let (tx, rx) = sync_channel(N);
        let rx = Mutex::new(rx);
        let runs: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
        let mut items: Vec<u64> = (0..N as u64).collect();
        let out = par_for_each_init(
            &Pool::new(2),
            &mut items,
            1,
            |i| split_seed(9, i as u64),
            |seed, i, chunk| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                if i == 0 {
                    wait_for_the_rest(&rx);
                } else {
                    tx.send(i).unwrap();
                }
                chunk[0] = chunk[0].wrapping_mul(*seed);
                (i, chunk[0])
            },
        );
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
        let serial: Vec<(usize, u64)> = (0..N)
            .map(|i| (i, (i as u64).wrapping_mul(split_seed(9, i as u64))))
            .collect();
        assert_eq!(out, serial);
        assert_eq!(items, serial.iter().map(|&(_, v)| v).collect::<Vec<_>>());

        let (tx, rx) = sync_channel(N);
        let rx = Mutex::new(rx);
        let runs: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
        let builds = AtomicUsize::new(0);
        let mut items: Vec<u64> = (0..N as u64).collect();
        let out = par_for_each_scratch(
            &Pool::new(2),
            Budget::UNBOUNDED,
            &mut items,
            || {
                builds.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |scratch, i, item| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                if i == 0 {
                    wait_for_the_rest(&rx);
                } else {
                    tx.send(i).unwrap();
                }
                *scratch = *item * 5;
                *item = *scratch + 1;
                *scratch
            },
        );
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
        assert_eq!(out, (0..N as u64).map(|i| i * 5).collect::<Vec<_>>());
        assert_eq!(items, (0..N as u64).map(|i| i * 5 + 1).collect::<Vec<_>>());
        assert!(builds.load(Ordering::Relaxed) <= 2, "one scratch per slot");
    }

    #[test]
    fn split_seed_separates_streams() {
        let seeds: Vec<u64> = (0..64).map(|i| split_seed(7, i)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len(), "stream seeds must be distinct");
        // Consecutive streams should differ in many bits, not just the low
        // ones.
        for w in seeds.windows(2) {
            assert!((w[0] ^ w[1]).count_ones() >= 16);
        }
        assert_ne!(split_seed3(7, 1, 2), split_seed3(7, 2, 1));
    }

    #[test]
    fn set_threads_overrides_policy() {
        let _g = lock();
        set_threads(5);
        assert_eq!(effective_threads(), 5);
        assert_eq!(Pool::global().threads(), 5);
        set_threads(0);
        assert!(effective_threads() >= 1);
    }

    #[test]
    fn pool_propagates_worker_panic() {
        let _g = lock();
        let caught = std::panic::catch_unwind(|| {
            Pool::new(4).run(8, |i| {
                if i == 3 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(caught.is_err());
        // The pool must stay usable after a panicked job.
        assert_eq!(Pool::new(4).run(4, |i| i + 1), vec![1, 2, 3, 4]);
    }

    #[test]
    fn workers_persist_across_calls() {
        let _g = lock();
        let pool = Pool::new(3);
        let _ = pool.run(8, |i| i);
        let after_first = pool_workers();
        assert!(after_first >= 2, "background workers should be live");
        let _ = pool.run(8, |i| i);
        assert_eq!(
            pool_workers(),
            after_first,
            "second run must reuse, not respawn"
        );
    }

    #[test]
    fn cost_model_takes_serial_path_for_small_budgets() {
        let _g = lock();
        let main = thread::current().id();
        set_par_threshold(Some(1_000_000));
        // Work far below the threshold: every task runs on the caller.
        let ids = Pool::new(4).run_budgeted(Budget::units(10), 8, |_| thread::current().id());
        assert!(
            ids.iter().all(|id| *id == main),
            "small budget must stay serial"
        );
        let mut items = vec![0u8; 64];
        let chunk_threads = par_for_each_init_budgeted(
            &Pool::new(4),
            Budget::units(10),
            &mut items,
            8,
            |_| (),
            |_, _, _| thread::current().id(),
        );
        assert!(chunk_threads.iter().all(|id| *id == main));
        set_par_threshold(None);
    }

    #[test]
    fn nested_dispatch_runs_serially_without_deadlock() {
        let _g = lock();
        let out = Pool::new(3).run(4, |i| {
            // A parallel call from inside a pool worker must not wait on
            // its own queue; it degrades to the serial path.
            Pool::new(3).run(3, move |j| i * 10 + j)
        });
        let expect: Vec<Vec<usize>> = (0..4)
            .map(|i| (0..3).map(|j| i * 10 + j).collect())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn shutdown_then_reuse_respawns_lazily() {
        let _g = lock();
        let _ = Pool::new(2).run(4, |i| i);
        shutdown_pool();
        assert_eq!(pool_workers(), 0);
        assert_eq!(Pool::new(2).run(3, |i| i * 2), vec![0, 2, 4]);
        assert!(pool_workers() >= 1);
    }

    #[test]
    fn budget_engage_rules() {
        let _g = lock();
        set_par_threshold(Some(500));
        assert!(!Budget::units(499).engages(4));
        assert!(Budget::units(500).engages(4));
        assert!(!Budget::units(500).engages(1), "one worker never engages");
        assert!(Budget::UNBOUNDED.engages(2));
        assert_eq!(Budget::items(10, 60).work(), 600);
        set_par_threshold(None);
    }
}
