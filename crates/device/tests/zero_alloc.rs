//! Instrumented proof of the pool's dispatch-cost contract: after
//! construction and one warm-up dispatch per job shape, a parallel region
//! performs **zero heap allocations** on the dispatching thread and spawns
//! **zero threads**. This is the property that makes the pool affordable
//! inside PCG/FGMRES, where thousands of operator applies run per step —
//! a per-dispatch allocation or spawn would dominate small solves.
//!
//! The allocation check uses a counting `#[global_allocator]` and must own
//! the whole test binary, so this file contains exactly one `#[test]`.

use rbx_device::{loop_chunk, RangePtr, WorkerPool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped with a global allocation counter.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ordering: relaxed — a monotonic event counter; the test reads it
        // from the same thread that increments it.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `Threads:` line of /proc/self/status — OS threads in this process.
/// Linux-only; returns None elsewhere so the spawn check degrades to a
/// no-op instead of a false failure.
fn os_thread_count() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

#[test]
fn dispatch_is_allocation_free_and_spawns_no_threads() {
    let n = 20_000;
    let pool = WorkerPool::new(4);
    let threads_after_construction = os_thread_count();

    let data: Vec<f64> = (0..n).map(|i| (i as f64).sqrt()).collect();
    let mut out = vec![0.0f64; n];
    let lc = loop_chunk(n, pool.threads());
    // One shape of each: a dispatched element loop, a grain-gated loop
    // that runs inline on the caller, and a coarse∥fine overlap pair.
    let dispatch_all = |out: &mut [f64], add: f64| {
        let op = RangePtr::new(out);
        pool.for_each_range(n, lc, |s, e| {
            // SAFETY: chunk ranges are pairwise disjoint.
            let o = unsafe { op.range_mut(s, e) };
            for (k, v) in o.iter_mut().enumerate() {
                *v = data[s + k] + add;
            }
        });
        pool.for_each_range_min(n, lc, n + 1, |s, e| {
            // SAFETY: chunk ranges are pairwise disjoint.
            let o = unsafe { op.range_mut(s, e) };
            for v in o.iter_mut() {
                *v *= 2.0;
            }
        });
        pool.pair(|| {}, || {});
    };

    // Warm-up: one dispatch of every job shape.
    dispatch_all(&mut out, 0.0);
    let warm = pool.stats();

    // Steady state: many dispatches of every job shape, zero allocations
    // observed by the global counter. (Workers allocate nothing either,
    // but the counter is global, so a worker allocation would fail this
    // assertion too — which is exactly the contract.)
    let before = ALLOCS.load(Ordering::Relaxed);
    for round in 0..200 {
        dispatch_all(&mut out, round as f64);
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "steady-state pool dispatch must not allocate (saw {delta} allocations over 600 dispatches)"
    );
    let last = pool.stats();
    assert_eq!(last.dispatches - warm.dispatches, 200);
    assert_eq!(last.grained - warm.grained, 200);
    assert_eq!(last.pair_jobs - warm.pair_jobs, 200);
    assert_eq!(out[n - 1], 2.0 * (data[n - 1] + 199.0));

    // No thread is spawned after pool construction: the OS thread count is
    // unchanged across all those dispatches.
    if let Some(t0) = threads_after_construction {
        let t1 = os_thread_count().expect("/proc/self/status readable once means always");
        assert_eq!(
            t0, t1,
            "dispatch must reuse the persistent workers, not spawn threads"
        );
    }
}
