//! Proof of the fleet sweep's zero-allocation contract: once the memo
//! cache is warm, scoring a (system, suite) point — cached-measurement
//! lookup plus all weighting × mean cells — performs **no heap allocation
//! at all**, measured by a counting global allocator.
//!
//! This is the per-point guarantee `FleetSweep::run` relies on: its
//! workers run exactly this loop (lookup → `evaluate_cells_into` → copy)
//! with per-chunk reused buffers, so a warm 500-system sweep's hot path is
//! allocation-free.
//!
//! It also checks what a cold simulated run allocates: a run streams its
//! meter readings into a running integral, so it allocates the same
//! however long it meters, and no more than [`COLD_RUN_ALLOCS`]; the
//! re-metered trace of a run is sized before sampling, so its allocation
//! count does not grow with its length either.
//!
//! Single `#[test]` on purpose — concurrent tests would bump the global
//! counter and produce false positives.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cluster_sim::{ClusterSpec, ExecutionEngine, FleetConfig, MemoizedEngine, Workload};
use tgi_core::evaluator::{EvalScratch, TgiEvaluator};
use tgi_core::{MeanKind, Weighting};
use tgi_harness::experiments::system_g_reference;

/// Allocations of one cold `ExecutionEngine::run`: its benchmark id and
/// the node power model's PSU curve. A run that kept its trace took six:
/// these two and the trace's four columns.
const COLD_RUN_ALLOCS: usize = 2;

/// System allocator with a global allocation counter.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates directly to `System`, only adding a counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Fewest allocations `f` made over a few attempts: a stray allocation on
/// the libtest harness thread lands in one attempt, not in all of them.
fn min_allocs(mut f: impl FnMut()) -> usize {
    (0..3)
        .map(|_| {
            let before = ALLOCS.load(Ordering::SeqCst);
            f();
            ALLOCS.load(Ordering::SeqCst) - before
        })
        .min()
        .expect("at least one attempt")
}

#[test]
fn warm_fleet_point_does_not_allocate() {
    // A cold run, and the trace of one, allocate the same whatever its
    // length: HPL on Fire at two sizes, hundreds versus thousands of 1 Hz
    // samples, both under the engine's 8,192-sample cap so neither takes
    // the stride path.
    let fire = ExecutionEngine::new(ClusterSpec::fire());
    let cold = |n: usize, samples: std::ops::Range<usize>| {
        let mut len = 0;
        let traced = min_allocs(|| len = fire.trace(Workload::Hpl { n }, 128).len());
        assert!(samples.contains(&len), "HPL n = {n} metered {len} samples");
        let mut seconds = 0.0;
        let run = min_allocs(|| seconds = fire.run(Workload::Hpl { n }, 128).seconds);
        assert!(seconds > len as f64 - 1.0, "HPL n = {n} ran {seconds} s");
        (run, traced)
    };
    let (short_run, short_trace) = cold(30_000, 100..1_000);
    let (long_run, long_trace) = cold(80_000, 2_000..8_192);
    assert_eq!(short_run, long_run, "a longer run must not cost more allocations");
    assert!(short_run <= COLD_RUN_ALLOCS, "a cold run made {short_run} allocations");
    assert_eq!(short_trace, long_trace, "a longer trace must not cost more allocations");

    let fleet = FleetConfig::new(42).systems(4).generate();
    let systems: Vec<(MemoizedEngine, usize)> = fleet
        .into_iter()
        .map(|spec| {
            let cores = spec.total_cores();
            (MemoizedEngine::new(ExecutionEngine::new(spec)), cores)
        })
        .collect();
    let suite = Workload::fire_suite();
    let reference = system_g_reference();
    let evaluator = TgiEvaluator::new(&reference);
    let weightings = [Weighting::Arithmetic, Weighting::Time, Weighting::Energy, Weighting::Power];
    let means = [MeanKind::Arithmetic, MeanKind::Geometric, MeanKind::Harmonic];
    let mut scratch = EvalScratch::with_capacity(suite.len());
    let mut cells = Vec::with_capacity(weightings.len() * means.len());

    // Warm-up: simulate every system once (this allocates — traces, runs,
    // cached measurements) and score it once so scratch reaches steady
    // state.
    for (engine, cores) in &systems {
        let measurements = engine.suite_measurements(&suite, *cores);
        evaluator
            .evaluate_cells_into(&measurements, &weightings, &means, &mut scratch, &mut cells)
            .expect("valid fleet point");
    }

    // Measured region: the exact warm per-point path of FleetSweep::run,
    // many rounds over the whole fleet. The counter must not move. The
    // counter is process-global, so a stray lazy allocation on the libtest
    // harness thread can land inside the window; retry a few times — an
    // allocation intrinsic to the path would repeat in every attempt
    // (200 points per attempt), while harness noise is once-per-process.
    let mut delta = usize::MAX;
    for _ in 0..3 {
        let before = ALLOCS.load(Ordering::SeqCst);
        let mut checksum = 0.0;
        for _ in 0..50 {
            for (engine, cores) in &systems {
                let measurements = engine.suite_measurements(&suite, *cores);
                evaluator
                    .evaluate_cells_into(
                        &measurements,
                        &weightings,
                        &means,
                        &mut scratch,
                        &mut cells,
                    )
                    .expect("valid fleet point");
                checksum += cells.iter().sum::<f64>();
            }
        }
        let after = ALLOCS.load(Ordering::SeqCst);
        assert!(checksum.is_finite());
        delta = after - before;
        if delta == 0 {
            break;
        }
    }
    assert_eq!(
        delta, 0,
        "warm fleet point (cached suite_measurements + evaluate_cells_into) must not allocate"
    );
}
