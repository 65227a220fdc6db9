//! Kernel throughput baseline: measures the native kernels at 1 thread and
//! at the machine's full thread count, plus three design ablations at 1
//! thread, and writes the `BENCH_kernels.json` ledger.
//!
//! The committed ledger is the perf baseline for the parallel backend:
//! GFLOPS for DGEMM and HPL, STREAM Triad MB/s, and GUPS at 1 thread, plus
//! each kernel's N-thread over 1-thread speedup. The ablations time each
//! path per call with `timing::time_until_resolved`:
//!
//! * `lu.blocked_over_unblocked` — blocked (NB = 64) over unblocked LU
//!   speed at N = 384; the blocking must not lose (bound ≥ 1).
//! * `gemm.blocked_over_naive` — blocked over triple-loop DGEMM
//!   per-multiply GFLOP/s at n = 256 (bound ≥ 1).
//! * `mixed.refined_f32_over_f64_time` — f32 LU plus f64 refinement to the
//!   HPL residual target, over the f64 solve, in time at N = 384. No bound:
//!   whether the f32 path wins depends on the SIMD width.
//!
//! Numbers are honest for the
//! machine that produced them: `machine.available_parallelism` records how
//! many cores that was, `machine.isa` names the SIMD path the kernels
//! dispatched to (`TGI_KERNEL_ISA` overrides it), and on a single-core
//! machine the N-thread run is skipped and every speedup is unmeasured
//! (`value: null`) — a 1-over-1 "speedup" is not a measurement.

use hpc_kernels::stream::StreamConfig;
use hpc_kernels::timing::time_until_resolved;
use hpc_kernels::{gemm, hpl, lu, mixed, random_access, stream, Matrix};
use std::hint::black_box;
use tgi_bench::{median_of, Ledger};

/// Problem sizes: big enough to exercise the blocking/parallel paths,
/// small enough that the bench smoke-runs in CI at full size.
const GEMM_N: usize = 512;
const HPL_N: usize = 512;
const STREAM_ELEMS: usize = 1 << 21;
const GUPS_LOG2: u32 = 16;
/// Ablation sizes: the LU and mixed-precision order, and the DGEMM order.
const LU_N: usize = 384;
const ABLATION_GEMM_N: usize = 256;

/// Throughput of each kernel at one thread count, in ledger order:
/// (layer, unit, value).
fn measure(threads: usize) -> [(&'static str, &'static str, f64); 4] {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
    pool.install(|| {
        let g = gemm::benchmark(GEMM_N, 7);
        let h = hpl::run(hpl::HplConfig::new(HPL_N)).expect("non-singular HPL system");
        assert!(h.passed, "HPL residual check failed");
        let s = stream::run(StreamConfig { array_size: STREAM_ELEMS, ntimes: 3 })
            .expect("STREAM arrays allocate");
        assert!(s.validated, "STREAM results check failed");
        let r = random_access::run(random_access::GupsConfig::new(GUPS_LOG2))
            .expect("GUPS table allocates");
        assert!(r.passed, "GUPS verification failed");
        [
            ("gemm", "GFLOP/s", g.gflops),
            ("hpl", "GFLOP/s", h.gflops),
            ("stream_triad", "MB/s", s.triad_mbps()),
            ("gups", "GUP/s", r.gups),
        ]
    })
}

/// Mean seconds per call of `body`: the median of three timer-resolved runs.
fn seconds_per_call(mut body: impl FnMut()) -> f64 {
    median_of(3, || time_until_resolved(&mut body).1)
}

/// The three ablation ratios at 1 thread, in ledger order: blocked over
/// unblocked LU speed, blocked over naive DGEMM speed, and f32-plus-
/// refinement over f64 solve time.
fn ablations() -> [f64; 3] {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    pool.install(|| {
        let a = Matrix::random(LU_N, LU_N, 42);
        let unblocked = seconds_per_call(|| {
            black_box(lu::factor_unblocked(&mut a.clone()).expect("non-singular"));
        });
        let blocked = seconds_per_call(|| {
            black_box(lu::factor_blocked(&mut a.clone(), lu::DEFAULT_BLOCK).expect("non-singular"));
        });

        let (x, y) = (
            Matrix::random(ABLATION_GEMM_N, ABLATION_GEMM_N, 1),
            Matrix::random(ABLATION_GEMM_N, ABLATION_GEMM_N, 2),
        );
        let mut c = Matrix::zeros(ABLATION_GEMM_N, ABLATION_GEMM_N);
        let naive = seconds_per_call(|| gemm::dgemm_naive(1.0, &x, &y, 0.0, black_box(&mut c)));
        let blocked_gemm = seconds_per_call(|| gemm::dgemm(1.0, &x, &y, 0.0, black_box(&mut c)));

        let b: Vec<f64> = (0..LU_N).map(|i| (i as f64 * 0.29).sin()).collect();
        let f64_solve = seconds_per_call(|| {
            black_box(lu::solve(a.clone(), &b, lu::DEFAULT_BLOCK).expect("non-singular"));
        });
        let refined = seconds_per_call(|| {
            let r = mixed::solve_refined(&a, &b, lu::DEFAULT_BLOCK, 10).expect("non-singular");
            assert!(r.converged, "refinement missed the HPL residual target");
            black_box(r);
        });
        [unblocked / blocked, naive / blocked_gemm, refined / f64_solve]
    })
}

fn main() {
    let mut ledger = Ledger::new("kernel_throughput");
    let n_threads = ledger.machine.available_parallelism;
    eprintln!(
        "kernel_throughput: isa={}, gemm/hpl n={GEMM_N}/{HPL_N}, stream {STREAM_ELEMS}, \
         gups 2^{GUPS_LOG2}; 1 and {n_threads} thread(s); \
         ablations at lu/mixed n={LU_N}, gemm n={ABLATION_GEMM_N}, 1 thread",
        ledger.machine.isa
    );

    let one = measure(1);
    let many = (n_threads > 1).then(|| measure(n_threads));
    for (i, &(layer, unit, value)) in one.iter().enumerate() {
        ledger.higher(layer, "throughput_1t", unit, value);
        ledger.speedup_n_over_1(layer, || many.as_ref().expect("N-thread run")[i].2 / value);
    }

    let [lu_x, gemm_x, mixed_x] = ablations();
    ledger.higher("lu", "blocked_over_unblocked", "x", lu_x).bound(1.0);
    ledger.higher("gemm", "blocked_over_naive", "x", gemm_x).bound(1.0);
    ledger.lower("mixed", "refined_f32_over_f64_time", "x", mixed_x);

    ledger.finish();
}
