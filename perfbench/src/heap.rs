//! Heap accounting for `peak_heap_mb`: the process's allocator, counting
//! the bytes live and their high-water mark.
//!
//! Threads that only generate load (the benchmark's HTTP clients) opt out
//! with [`uncounted`], so on the server workloads the peak is what the
//! server holds while it serves, not the benchmark's log of answers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

/// `System`, plus a live-bytes counter and its high-water mark.
pub struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Bytes a thread may allocate or free before it settles with `LIVE`.
/// Batching keeps the shared counter off the path of small allocations,
/// which the fleet sweep's threads make by the million; the peak is then
/// exact to within this much per thread.
const SETTLE: isize = 4 << 10;

thread_local! {
    /// Whether this thread is left out, and its unsettled bytes.
    static LOCAL: Cell<(bool, isize)> = const { Cell::new((false, 0)) };
}

fn count(delta: isize) {
    // `try_with`: a thread's allocator calls can outlive its locals.
    let _ = LOCAL.try_with(|local| {
        let (skip, pending) = local.get();
        if skip {
            return;
        }
        let pending = pending + delta;
        if pending.abs() < SETTLE {
            local.set((false, pending));
            return;
        }
        local.set((false, 0));
        let live = LIVE.fetch_add(pending, Relaxed) + pending;
        if live > PEAK.load(Relaxed) {
            PEAK.fetch_max(live, Relaxed);
        }
    });
}

// SAFETY: every call delegates to `System` unchanged; the counters are
// plain atomics and the thread-local flag is const-initialised, so none
// of this allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Runs `f` with this thread's allocations left out of the count.
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    let set_skip = |skip: bool| {
        LOCAL.with(|local| {
            let (was, pending) = local.get();
            local.set((skip, pending));
            was
        })
    };
    let was = set_skip(true);
    let value = f();
    set_skip(was);
    value
}

/// Restarts the high-water mark at the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// The high-water mark since the last [`reset_peak`], MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed).max(0) as f64 / (1u64 << 20) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test: the counters are process-wide, and other tests allocate.
    #[test]
    fn the_peak_follows_counted_threads_only() {
        reset_peak();
        let before = peak_mb();
        let held = vec![1u8; 16 << 20];
        assert!(peak_mb() - before >= 12.0, "a 16 MiB buffer raises the peak");
        drop(held);
        reset_peak();
        let before = peak_mb();
        std::thread::spawn(|| uncounted(|| drop(vec![1u8; 64 << 20]))).join().unwrap();
        assert!(peak_mb() - before < 32.0, "an uncounted thread's buffer does not");
    }
}
