//! Kernel throughput baseline: measures the native kernels at 1 thread and
//! at the machine's full thread count, and writes the `BENCH_kernels.json`
//! ledger.
//!
//! The committed ledger is the perf baseline for the parallel backend:
//! GFLOPS for DGEMM and HPL, STREAM Triad MB/s, and GUPS at 1 thread, plus
//! each kernel's N-thread over 1-thread speedup. Numbers are honest for the
//! machine that produced them: `machine.available_parallelism` records how
//! many cores that was, `machine.isa` names the SIMD path the kernels
//! dispatched to (`TGI_KERNEL_ISA` overrides it), and on a single-core
//! machine the N-thread run is skipped and every speedup is unmeasured
//! (`value: null`) — a 1-over-1 "speedup" is not a measurement.

use hpc_kernels::stream::StreamConfig;
use hpc_kernels::{gemm, hpl, random_access, stream};
use tgi_bench::Ledger;

/// Problem sizes: big enough to exercise the blocking/parallel paths,
/// small enough that the bench smoke-runs in CI at full size.
const GEMM_N: usize = 512;
const HPL_N: usize = 512;
const STREAM_ELEMS: usize = 1 << 21;
const GUPS_LOG2: u32 = 16;

/// Throughput of each kernel at one thread count, in ledger order:
/// (layer, unit, value).
fn measure(threads: usize) -> [(&'static str, &'static str, f64); 4] {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
    pool.install(|| {
        let g = gemm::benchmark(GEMM_N, 7);
        let h = hpl::run(hpl::HplConfig::new(HPL_N)).expect("non-singular HPL system");
        assert!(h.passed, "HPL residual check failed");
        let s = stream::run(StreamConfig { array_size: STREAM_ELEMS, ntimes: 3 });
        assert!(s.validated, "STREAM results check failed");
        let r = random_access::run(random_access::GupsConfig::new(GUPS_LOG2));
        assert!(r.passed, "GUPS verification failed");
        [
            ("gemm", "GFLOP/s", g.gflops),
            ("hpl", "GFLOP/s", h.gflops),
            ("stream_triad", "MB/s", s.triad_mbps()),
            ("gups", "GUP/s", r.gups),
        ]
    })
}

fn main() {
    let mut ledger = Ledger::new("kernel_throughput");
    let n_threads = ledger.machine.available_parallelism;
    eprintln!(
        "kernel_throughput: isa={}, gemm/hpl n={GEMM_N}/{HPL_N}, stream {STREAM_ELEMS}, \
         gups 2^{GUPS_LOG2}; 1 and {n_threads} thread(s)",
        ledger.machine.isa
    );

    let one = measure(1);
    let many = (n_threads > 1).then(|| measure(n_threads));
    for (i, &(layer, unit, value)) in one.iter().enumerate() {
        ledger.higher(layer, "throughput_1t", unit, value);
        ledger.speedup_n_over_1(layer, || many.as_ref().expect("N-thread run")[i].2 / value);
    }

    ledger.finish();
}
