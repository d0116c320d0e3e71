//! Persistent data-parallel worker pool for element-loop kernels.
//!
//! SEM operators are embarrassingly parallel over elements, and the Krylov
//! solvers run thousands of operator applies per step — so dispatch cost
//! matters as much as raw parallelism. This pool creates its worker threads
//! **once**; after construction a parallel region performs zero thread
//! spawns and zero heap allocations:
//!
//! * workers park on a condvar and are woken by an **epoch broadcast**: the
//!   dispatcher publishes a type-erased job descriptor under the control
//!   mutex, bumps the epoch, and notifies; each worker serves every epoch
//!   exactly once (it remembers the last epoch it ran);
//! * work is claimed by **dynamic chunk self-scheduling** off a shared
//!   atomic cursor — the load-balancing of a work-stealing pool for uniform
//!   loops, without the deques;
//! * the calling thread participates in every job, so `threads == 1` means
//!   zero worker threads and inline execution;
//! * the pool runs element loops only and returns no values: a
//!   reduction writes one partial per element into caller-owned storage
//!   and folds them in global element order afterwards
//!   (`rbx_la::ElemLayout::fold_sums`), so its bits cannot depend on the
//!   thread count or the schedule;
//! * [`WorkerPool::pair`] runs one task on a dedicated persistent helper
//!   thread while the caller runs the other — the overlap primitive behind
//!   the Schwarz coarse∥fine phase, kept off the worker complement so the
//!   coarse task and the element-loop pool do not fight for cores.
//!
//! Dispatches are serialized by an internal gate; dispatching from inside
//! a kernel closure is forbidden (it would deadlock on that gate) and is
//! caught by a debug assertion. Compose parallel stages sequentially
//! instead.

use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Signature of the monomorphized trampoline a job dispatches through:
/// `(closure, start, end)`.
type Shim = unsafe fn(*const (), usize, usize);

/// Type-erased job descriptor broadcast to the workers. `data` points at a
/// closure on the dispatcher's stack; the dispatcher outlives every
/// worker's use of it because `run_erased` does not return until the
/// active-count handshake reaches zero.
#[derive(Clone, Copy)]
struct Job {
    shim: Shim,
    data: *const (),
    n: usize,
    chunk: usize,
    nchunks: usize,
}

// SAFETY: the raw pointers are dereferenced only between job publication
// and the completion handshake, while the dispatcher keeps the pointees
// alive; the control mutex orders both endpoints.
unsafe impl Send for Job {}

/// # Safety
/// Trivially sound: touches none of its raw-pointer arguments.
unsafe fn shim_noop(_d: *const (), _s: usize, _e: usize) {}

impl Job {
    fn idle() -> Self {
        Job {
            shim: shim_noop,
            data: std::ptr::null(),
            n: 0,
            chunk: 1,
            nchunks: 0,
        }
    }
}

/// # Safety
/// `data` must point at a live `F` for the whole call — guaranteed by
/// the [`Job`] lifetime contract (dispatcher blocks until the handshake).
unsafe fn shim_for_each_range<F: Fn(usize, usize) + Sync>(
    data: *const (),
    start: usize,
    end: usize,
) {
    let f = &*data.cast::<F>();
    f(start, end);
}

/// Dispatcher↔worker control block, guarded by [`Shared::ctrl`].
struct Ctrl {
    /// Bumped once per dispatch; workers run each epoch exactly once.
    epoch: u64,
    /// Workers that have not yet finished the current epoch.
    active: usize,
    /// Set (once) by [`PoolCore::drop`] to retire the workers.
    shutdown: bool,
    /// The published job for the current epoch.
    job: Job,
}

struct Shared {
    ctrl: Mutex<Ctrl>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Chunk self-scheduling cursor, reset before each epoch.
    counter: AtomicUsize,
    /// Sticky flag: a kernel closure panicked on a worker.
    panicked: AtomicBool,
    /// Serializes dispatchers.
    gate: Mutex<()>,
    dispatches: AtomicU64,
    chunks: AtomicU64,
    items: AtomicU64,
    pair_jobs: AtomicU64,
    grained: AtomicU64,
}

impl Shared {
    fn new() -> Self {
        Shared {
            ctrl: Mutex::new(Ctrl {
                epoch: 0,
                active: 0,
                shutdown: false,
                job: Job::idle(),
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            counter: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            gate: Mutex::new(()),
            dispatches: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            items: AtomicU64::new(0),
            pair_jobs: AtomicU64::new(0),
            grained: AtomicU64::new(0),
        }
    }
}

thread_local! {
    /// True while this thread is executing a pool job — used to catch
    /// nested dispatch (which would deadlock on the dispatch gate).
    static IN_POOL_JOB: Cell<bool> = const { Cell::new(false) };
}

/// RAII marker for [`IN_POOL_JOB`]; Drop clears the flag even if the
/// kernel closure panics.
struct JobGuard;

impl JobGuard {
    fn enter() -> Self {
        IN_POOL_JOB.with(|c| c.set(true));
        JobGuard
    }
}

impl Drop for JobGuard {
    fn drop(&mut self) {
        IN_POOL_JOB.with(|c| c.set(false));
    }
}

/// Claim and execute chunks of the current job until the cursor is
/// exhausted. Runs on workers and on the dispatching thread alike.
fn run_job(shared: &Shared, job: &Job) {
    let _guard = JobGuard::enter();
    loop {
        // The job was published by the control mutex and results are
        // published by the active-count handshake, not by this cursor.
        // ordering: relaxed — the fetch_add's atomicity alone hands each
        // chunk to exactly one thread; nothing else rides on the cursor.
        let c = shared.counter.fetch_add(1, Ordering::Relaxed);
        if c >= job.nchunks {
            break;
        }
        let start = c * job.chunk;
        let end = (start + job.chunk).min(job.n);
        // SAFETY: the dispatcher keeps the closure alive until every
        // participant finishes, and each (start, end) range is claimed
        // exactly once.
        unsafe { (job.shim)(job.data, start, end) };
    }
}

/// Worker body: park on the condvar until the epoch moves, serve the
/// epoch's job once, report completion, repeat until shutdown.
fn worker_loop(shared: &Shared) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut ctrl = shared.ctrl.lock();
            while ctrl.epoch == last_epoch && !ctrl.shutdown {
                shared.work_cv.wait(&mut ctrl);
            }
            if ctrl.shutdown {
                return;
            }
            last_epoch = ctrl.epoch;
            ctrl.job
        };
        if catch_unwind(AssertUnwindSafe(|| run_job(shared, &job))).is_err() {
            // ordering: relaxed — the dispatcher reads this flag only after
            // the active-count handshake below has already established the
            // happens-before edge through the control mutex.
            shared.panicked.store(true, Ordering::Relaxed);
        }
        let mut ctrl = shared.ctrl.lock();
        ctrl.active -= 1;
        if ctrl.active == 0 {
            // Only the (gate-serialized) dispatcher waits on done_cv.
            shared.done_cv.notify_one();
        }
    }
}

/// Trampoline for [`WorkerPool::pair`]: runs the erased `FnOnce` at most
/// once (the `Option` take keeps a replayed epoch harmless).
///
/// # Safety
/// `data` must point at a live `Option<F>` the submitting caller keeps
/// alive while blocked in `pair`.
unsafe fn pair_shim<F: FnOnce()>(data: *mut ()) {
    if let Some(f) = (*data.cast::<Option<F>>()).take() {
        f();
    }
}

/// # Safety
/// Trivially sound: never dereferences its argument.
unsafe fn pair_shim_noop(_d: *mut ()) {}

/// Type-erased task for the pair helper thread; same lifetime contract as
/// [`Job`] (the caller blocks until `done` catches up with `epoch`).
#[derive(Clone, Copy)]
struct PairJob {
    shim: unsafe fn(*mut ()),
    data: *mut (),
}

// SAFETY: dereferenced only while the submitting caller is blocked in
// `pair`, which keeps the pointee alive; the pair mutex orders both ends.
unsafe impl Send for PairJob {}

struct PairCtrl {
    epoch: u64,
    done: u64,
    shutdown: bool,
    job: PairJob,
}

struct PairShared {
    ctrl: Mutex<PairCtrl>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Serializes concurrent `pair` callers.
    gate: Mutex<()>,
    panicked: AtomicBool,
}

impl PairShared {
    fn new() -> Self {
        PairShared {
            ctrl: Mutex::new(PairCtrl {
                epoch: 0,
                done: 0,
                shutdown: false,
                job: PairJob {
                    shim: pair_shim_noop,
                    data: std::ptr::null_mut(),
                },
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            gate: Mutex::new(()),
            panicked: AtomicBool::new(false),
        }
    }
}

/// Helper-thread body for [`WorkerPool::pair`]: same epoch park/wake
/// protocol as the workers, with a done-epoch ack instead of a count.
fn pair_loop(shared: &PairShared) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut ctrl = shared.ctrl.lock();
            while ctrl.epoch == last_epoch && !ctrl.shutdown {
                shared.work_cv.wait(&mut ctrl);
            }
            if ctrl.shutdown {
                return;
            }
            last_epoch = ctrl.epoch;
            ctrl.job
        };
        // SAFETY: the submitter is blocked in `pair` until the done
        // handshake, so `job.data` outlives this call (PairJob contract).
        if catch_unwind(AssertUnwindSafe(|| unsafe { (job.shim)(job.data) })).is_err() {
            // ordering: relaxed — read by the caller only after the done
            // handshake below synchronizes through the pair mutex.
            shared.panicked.store(true, Ordering::Relaxed);
        }
        let mut ctrl = shared.ctrl.lock();
        ctrl.done = last_epoch;
        shared.done_cv.notify_all();
    }
}

/// Owns the OS threads; dropped when the last [`WorkerPool`] handle goes
/// away, at which point the workers are retired and joined.
struct PoolCore {
    shared: Arc<Shared>,
    pair: Arc<PairShared>,
    workers: Vec<JoinHandle<()>>,
    helper: Option<JoinHandle<()>>,
}

impl Drop for PoolCore {
    fn drop(&mut self) {
        {
            let mut ctrl = self.shared.ctrl.lock();
            ctrl.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        {
            let mut ctrl = self.pair.ctrl.lock();
            ctrl.shutdown = true;
            self.pair.work_cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.helper.take() {
            let _ = h.join();
        }
    }
}

/// Monotonic dispatch counters, snapshot via [`WorkerPool::stats`]; the
/// telemetry bridge in `rbx-core` reports per-step deltas of these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total participants per dispatch (workers + the calling thread).
    pub threads: usize,
    /// Parallel regions dispatched since construction.
    pub dispatches: u64,
    /// Chunks issued across all dispatches.
    pub chunks: u64,
    /// Loop iterations (items) covered across all dispatches.
    pub items: u64,
    /// Overlap pairs executed on the helper thread.
    pub pair_jobs: u64,
    /// Loops short-circuited to the caller thread by the
    /// [`WorkerPool::for_each_range_min`] grain gate (work below its
    /// kernel's crossover never paid dispatch cost).
    pub grained: u64,
}

/// A persistent worker pool: `threads - 1` parked worker threads plus the
/// calling thread, created once and woken per dispatch by an epoch
/// broadcast. Cloning is cheap (shared handles); the threads retire when
/// the last handle drops.
#[derive(Clone)]
pub struct WorkerPool {
    shared: Arc<Shared>,
    pair: Arc<PairShared>,
    threads: usize,
    _core: Arc<PoolCore>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl WorkerPool {
    /// Pool with `threads` total participants (≥ 1): the calling thread
    /// plus `threads - 1` persistent workers, spawned here and never
    /// again.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared::new());
        let pair = Arc::new(PairShared::new());
        let mut workers = Vec::with_capacity(threads - 1);
        for w in 0..threads - 1 {
            let s = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("rbx-pool-{w}"))
                .spawn(move || worker_loop(&s))
                .expect("worker pool: failed to spawn worker thread");
            workers.push(handle);
        }
        let helper = {
            let p = Arc::clone(&pair);
            std::thread::Builder::new()
                .name("rbx-pool-pair".into())
                .spawn(move || pair_loop(&p))
                .expect("worker pool: failed to spawn pair helper thread")
        };
        Self {
            shared: Arc::clone(&shared),
            pair: Arc::clone(&pair),
            threads,
            _core: Arc::new(PoolCore {
                shared,
                pair,
                workers,
                helper: Some(helper),
            }),
        }
    }

    /// Pool sized to the machine's available parallelism.
    pub fn auto() -> Self {
        let n = std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1);
        Self::new(n)
    }

    /// Total participants per dispatch (workers + the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of the monotonic dispatch counters.
    pub fn stats(&self) -> PoolStats {
        // Monotonic telemetry counters; readers need no synchronization
        // with the dispatches that bump them.
        PoolStats {
            threads: self.threads,
            dispatches: self.shared.dispatches.load(Ordering::Relaxed), // ordering: monotonic counter
            chunks: self.shared.chunks.load(Ordering::Relaxed), // ordering: monotonic counter
            items: self.shared.items.load(Ordering::Relaxed),   // ordering: monotonic counter
            pair_jobs: self.shared.pair_jobs.load(Ordering::Relaxed), // ordering: monotonic counter
            grained: self.shared.grained.load(Ordering::Relaxed), // ordering: monotonic counter
        }
    }

    /// Run `f(start, end)` over a disjoint chunk partition of `0..n` —
    /// the per-range form element-loop kernels use (one call per chunk,
    /// so per-range setup like scratch lookup is amortized).
    pub fn for_each_range<F: Fn(usize, usize) + Sync>(&self, n: usize, chunk: usize, f: F) {
        let data: *const F = &f;
        self.run_erased(shim_for_each_range::<F>, data.cast(), n, chunk);
    }

    /// Grain-gated [`WorkerPool::for_each_range`]: when `n` is below
    /// `serial_below` (the kernel's dispatch-overhead crossover, a constant
    /// in the module that owns the kernel) the identical chunk partition
    /// runs inline on the caller — same traversal, same disjoint writes, so
    /// the output bits cannot depend on which side of the gate executed —
    /// and only the `grained` counter is bumped instead of paying pool wake
    /// cost.
    pub fn for_each_range_min<F: Fn(usize, usize) + Sync>(
        &self,
        n: usize,
        chunk: usize,
        serial_below: usize,
        f: F,
    ) {
        if n < serial_below {
            self.run_grained(n, chunk, f);
        } else {
            self.for_each_range(n, chunk, f);
        }
    }

    /// Inline chunked traversal for sub-crossover work: the same fixed
    /// `(n, chunk)` partition as a dispatch, chunks visited in index order,
    /// without touching the dispatch gate or waking workers.
    fn run_grained<F: Fn(usize, usize)>(&self, n: usize, chunk: usize, f: F) {
        debug_assert!(
            !IN_POOL_JOB.with(|c| c.get()),
            "nested pool dispatch from inside a kernel closure would deadlock the dispatch gate"
        );
        // ordering: relaxed — monotonic telemetry counter (see stats()).
        self.shared.grained.fetch_add(1, Ordering::Relaxed);
        let chunk = chunk.max(1);
        let _guard = JobGuard::enter();
        for start in (0..n).step_by(chunk) {
            f(start, (start + chunk).min(n));
        }
    }

    /// Run `a` on the persistent helper thread while `b` runs on the
    /// caller; returns when both are done. This is the coarse∥fine overlap
    /// primitive: `b` may itself dispatch element loops on this pool — the
    /// helper is not part of the worker complement, so the two sides do
    /// not compete for the dispatch gate.
    pub fn pair<A: FnOnce() + Send, B: FnOnce()>(&self, a: A, b: B) {
        let _serialize = self.pair.gate.lock();
        let mut slot: Option<A> = Some(a);
        let data: *mut Option<A> = &mut slot;
        let job = PairJob {
            shim: pair_shim::<A>,
            data: data.cast(),
        };
        // ordering: relaxed — monotonic telemetry counter (see stats()).
        self.shared.pair_jobs.fetch_add(1, Ordering::Relaxed);
        let epoch = {
            let mut ctrl = self.pair.ctrl.lock();
            ctrl.job = job;
            ctrl.epoch = ctrl.epoch.wrapping_add(1);
            // Notify under the lock: the helper between its epoch check and
            // its wait would otherwise miss the wakeup.
            self.pair.work_cv.notify_one();
            ctrl.epoch
        };
        let b_panicked = catch_unwind(AssertUnwindSafe(b)).is_err();
        {
            let mut ctrl = self.pair.ctrl.lock();
            while ctrl.done != epoch {
                self.pair.done_cv.wait(&mut ctrl);
            }
        }
        // ordering: relaxed — the done handshake above already ordered the
        // helper's write to this flag before our read.
        if self.pair.panicked.swap(false, Ordering::Relaxed) || b_panicked {
            // audit:allow(hot-panic): propagates a kernel panic to the caller — reachable only if a task already panicked
            panic!("worker pool: a pair task panicked");
        }
    }

    /// The single dispatch path: publish the type-erased job, participate
    /// and wait for the workers. Performs no heap allocation.
    fn run_erased(&self, shim: Shim, data: *const (), n: usize, chunk: usize) {
        debug_assert!(
            !IN_POOL_JOB.with(|c| c.get()),
            "nested pool dispatch from inside a kernel closure would deadlock the dispatch gate"
        );
        let chunk = chunk.max(1);
        if n == 0 {
            return;
        }
        let nchunks = n.div_ceil(chunk);
        let _gate = self.shared.gate.lock();
        let job = Job {
            shim,
            data,
            n,
            chunk,
            nchunks,
        };
        let shared = &*self.shared;
        // ordering: relaxed — monotonic telemetry counters (see stats()).
        shared.dispatches.fetch_add(1, Ordering::Relaxed);
        shared.chunks.fetch_add(nchunks as u64, Ordering::Relaxed);
        shared.items.fetch_add(n as u64, Ordering::Relaxed);
        let workers = self.threads - 1;
        if workers > 0 && nchunks > 1 {
            // ordering: relaxed — the cursor reset is published to the
            // workers by the control-mutex release below; no worker touches
            // the cursor for this epoch before acquiring that mutex.
            shared.counter.store(0, Ordering::Relaxed);
            {
                let mut ctrl = shared.ctrl.lock();
                ctrl.job = job;
                ctrl.active = workers;
                ctrl.epoch = ctrl.epoch.wrapping_add(1);
                // Notify under the lock: a worker between its epoch check
                // and its wait would otherwise miss the wakeup.
                shared.work_cv.notify_all();
            }
            let caller_panicked = catch_unwind(AssertUnwindSafe(|| run_job(shared, &job))).is_err();
            {
                let mut ctrl = shared.ctrl.lock();
                while ctrl.active != 0 {
                    shared.done_cv.wait(&mut ctrl);
                }
            }
            // ordering: relaxed — the active-count handshake above already
            // ordered every worker's write to this flag before our read.
            if shared.panicked.swap(false, Ordering::Relaxed) || caller_panicked {
                // audit:allow(hot-panic): propagates a kernel panic to the caller — reachable only if the kernel already panicked
                panic!("worker pool: a kernel closure panicked");
            }
        } else {
            // Inline path (serial pool or single-chunk job): the identical
            // chunked traversal as the parallel path.
            let _guard = JobGuard::enter();
            for start in (0..n).step_by(chunk) {
                // SAFETY: same contract as run_job — closure outlives the
                // loop, every (start, end) range visited exactly once.
                unsafe { (job.shim)(job.data, start, (start + chunk).min(n)) };
            }
        }
    }
}

/// Raw-pointer view of a mutable slice for disjoint-range parallel writes
/// (each worker touches its own element range). All access is `unsafe`
/// and gated on the caller's disjointness argument.
pub struct RangePtr<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: RangePtr only forwards the pointer; the disjointness obligations
// are on the unsafe accessors' callers.
unsafe impl<T: Send> Send for RangePtr<T> {}
unsafe impl<T: Send> Sync for RangePtr<T> {}

impl<T> Clone for RangePtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for RangePtr<T> {}

impl<T> RangePtr<T> {
    pub fn new(slice: &mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mutable view of `start..end`.
    ///
    /// # Safety
    /// Concurrent callers must use pairwise-disjoint ranges within bounds
    /// of the original slice, which must outlive every access.
    // The returned borrow derives from the raw pointer, not `&self`; the
    // disjointness contract above is what makes concurrent calls sound.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn range_mut(&self, start: usize, end: usize) -> &mut [T] {
        debug_assert!(start <= end && end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), end - start)
    }

    /// Read element `i`.
    ///
    /// # Safety
    /// `i` must be in bounds and not concurrently written.
    pub unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(i < self.len);
        *self.ptr.add(i)
    }

    /// Write element `i`.
    ///
    /// # Safety
    /// `i` must be in bounds and written by exactly one thread per
    /// parallel region, with no concurrent reader.
    pub unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        *self.ptr.add(i) = value;
    }
}

/// Chunk size for a parallel loop: aim for ~4 chunks per participant so
/// dynamic self-scheduling can balance uneven progress.
pub fn loop_chunk(n: usize, threads: usize) -> usize {
    (n / (threads.max(1) * 4)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn for_each_range_covers_exactly_once() {
        let n = 997; // prime: ragged final chunk
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let pool = WorkerPool::new(3);
        pool.for_each_range(n, 13, |start, end| {
            assert!(start < end && end <= n);
            for h in &hits[start..end] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn for_each_empty_and_single() {
        let pool = WorkerPool::new(3);
        pool.for_each_range(0, 1, |_, _| panic!("must not run"));
        let hit = AtomicUsize::new(0);
        pool.for_each_range(1, 1, |start, end| {
            assert_eq!((start, end), (0, 1));
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn dispatches_reuse_the_same_workers() {
        let pool = WorkerPool::new(4);
        let before = pool.stats();
        for round in 0..100 {
            let total = AtomicUsize::new(0);
            pool.for_each_range(1000, 37, |start, end| {
                total.fetch_add((start..end).map(|i| i + round).sum(), Ordering::Relaxed);
            });
            let expect: usize = (0..1000).map(|i| i + round).sum();
            assert_eq!(total.load(Ordering::Relaxed), expect);
        }
        let after = pool.stats();
        assert_eq!(after.dispatches - before.dispatches, 100);
        assert_eq!(after.threads, 4);
    }

    #[test]
    fn pair_runs_both_sides() {
        let pool = WorkerPool::new(2);
        let a_ran = AtomicUsize::new(0);
        let b_ran = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.pair(
                || {
                    a_ran.fetch_add(1, Ordering::Relaxed);
                },
                || {
                    b_ran.fetch_add(1, Ordering::Relaxed);
                },
            );
        }
        assert_eq!(a_ran.load(Ordering::Relaxed), 50);
        assert_eq!(b_ran.load(Ordering::Relaxed), 50);
        assert_eq!(pool.stats().pair_jobs, 50);
    }

    #[test]
    fn pair_composes_with_element_dispatch() {
        // The caller side of a pair may dispatch on the pool — the Schwarz
        // overlap pattern (coarse on the helper, pooled fine sweep here).
        let pool = WorkerPool::new(4);
        let coarse = AtomicUsize::new(0);
        let fine = AtomicUsize::new(0);
        pool.pair(
            || {
                coarse.fetch_add(1, Ordering::Relaxed);
            },
            || {
                pool.for_each_range(500, 11, |start, end| {
                    fine.fetch_add(end - start, Ordering::Relaxed);
                });
            },
        );
        assert_eq!(coarse.load(Ordering::Relaxed), 1);
        assert_eq!(fine.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_range(100, 1, |start, _| {
                if start == 37 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err(), "kernel panic must propagate to the dispatcher");
        // The workers caught the panic and are still serving epochs.
        let total = AtomicUsize::new(0);
        pool.for_each_range(100, 7, |start, end| {
            total.fetch_add((start..end).sum(), Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn concurrent_dispatchers_serialize_on_the_gate() {
        let pool = WorkerPool::new(3);
        let total = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = pool.clone();
                let total = &total;
                scope.spawn(move || {
                    for _ in 0..20 {
                        pool.for_each_range(100, 9, |start, end| {
                            total.fetch_add(end - start, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 20 * 100);
    }

    #[test]
    fn range_ptr_disjoint_writes() {
        let n = 256;
        let mut data = vec![0.0f64; n];
        let ptr = RangePtr::new(&mut data);
        let pool = WorkerPool::new(4);
        pool.for_each_range(n, 10, |start, end| {
            // SAFETY: chunk ranges are pairwise disjoint.
            let slice = unsafe { ptr.range_mut(start, end) };
            for (k, v) in slice.iter_mut().enumerate() {
                *v = (start + k) as f64;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as f64);
        }
    }

    #[test]
    fn grain_gate_is_bitwise_invisible_and_counted() {
        let pool = WorkerPool::new(4);
        let n = 1000;
        let chunk = 37;
        let fill = |serial_below: usize| {
            let mut data = vec![0.0f64; n];
            let ptr = RangePtr::new(&mut data);
            pool.for_each_range_min(n, chunk, serial_below, |start, end| {
                // SAFETY: chunk ranges are pairwise disjoint.
                let slice = unsafe { ptr.range_mut(start, end) };
                for (k, v) in slice.iter_mut().enumerate() {
                    let i = (start + k) as f64;
                    *v = (i + 0.1).sin() / (i + 1.0);
                }
            });
            data
        };
        let before = pool.stats();
        // Below the gate: runs inline, bumps `grained`, not `dispatches`.
        let gated = fill(n + 1);
        let after = pool.stats();
        assert_eq!(after.grained, before.grained + 1);
        assert_eq!(after.dispatches, before.dispatches);
        // At or above the gate: delegates to the pooled path.
        let ungated = fill(n);
        let last = pool.stats();
        assert_eq!(last.dispatches, after.dispatches + 1);
        assert_eq!(last.grained, after.grained);
        let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&gated), bits(&ungated));
    }

    #[test]
    fn for_each_range_min_covers_all_indices_on_both_sides() {
        let pool = WorkerPool::new(3);
        for serial_below in [0, 64, 10_000] {
            let n = 257;
            let mut data = vec![0.0f64; n];
            let ptr = RangePtr::new(&mut data);
            pool.for_each_range_min(n, 16, serial_below, |start, end| {
                // SAFETY: chunk ranges are pairwise disjoint.
                let slice = unsafe { ptr.range_mut(start, end) };
                for (k, v) in slice.iter_mut().enumerate() {
                    *v = (start + k) as f64 + 1.0;
                }
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i as f64 + 1.0, "serial_below={serial_below}");
            }
        }
    }
}
