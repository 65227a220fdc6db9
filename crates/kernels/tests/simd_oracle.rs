//! SIMD-path oracle tests: every dispatched ISA must agree with the
//! scalar reference, and each single path must be deterministic across
//! thread counts.
//!
//! Two distinct contracts, matching `crate::simd`'s documentation:
//!
//! * **Across ISAs** — the vector paths contract `a·b + c` into fused
//!   multiply-adds, so their results differ from scalar by FMA rounding
//!   only. GEMM and LU are compared against the scalar path with an
//!   FMA-aware tolerance `k · 1e-14` (inputs lie in `[-0.5, 0.5)`, so
//!   each of the `k` accumulated products carries at most a few ulps of
//!   contraction difference). STREAM and GUPS need no tolerance at all:
//!   STREAM's values stay exactly representable integers and the GUPS
//!   bit stream is defined to be identical on every path.
//! * **Within one ISA** — a fixed path performs a thread-count-independent
//!   sequence of operations per output element, so 1/2/4-thread runs must
//!   be bit-identical.
//!
//! The `TGI_KERNEL_ISA` override is exercised in subprocesses (the
//! selection is cached per process, so forcing it in-process would race
//! with every other test).

use hpc_kernels::gemm::dgemm_with_isa;
use hpc_kernels::lu;
use hpc_kernels::random_access::{self, GupsConfig};
use hpc_kernels::simd::{self, Isa, KERNEL_ISA_ENV};
use hpc_kernels::stream::{self, StreamConfig};
use hpc_kernels::Matrix;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Shapes that straddle the 8×4 microkernel grid: exact tiles, fringe
/// rows, fringe columns, and sub-tile problems.
const GEMM_SHAPES: [(usize, usize, usize); 5] =
    [(64, 64, 64), (130, 70, 33), (8, 256, 4), (7, 5, 3), (65, 129, 31)];

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap().install(f)
}

#[test]
fn gemm_every_supported_isa_matches_scalar_within_fma_tolerance() {
    for isa in simd::supported() {
        for (m, k, n) in GEMM_SHAPES {
            let a = Matrix::random(m, k, 11);
            let b = Matrix::random(k, n, 12);
            let c0 = Matrix::random(m, n, 13);

            let mut want = c0.clone();
            dgemm_with_isa(Isa::Scalar, 1.5, &a, &b, 0.5, &mut want);
            let mut got = c0.clone();
            dgemm_with_isa(isa, 1.5, &a, &b, 0.5, &mut got);

            let tol = k as f64 * 1e-14;
            let diff = got.max_abs_diff(&want);
            assert!(diff <= tol, "{isa} ({m},{k},{n}): |Δ| = {diff:e} > {tol:e}");
        }
    }
}

#[test]
fn gemm_each_isa_is_bit_identical_across_thread_counts() {
    for isa in simd::supported() {
        for (m, k, n) in [(130, 70, 33), (65, 129, 31)] {
            let a = Matrix::random(m, k, 21);
            let b = Matrix::random(k, n, 22);
            let c0 = Matrix::random(m, n, 23);
            let mut reference: Option<Matrix> = None;
            for threads in THREAD_COUNTS {
                let mut c = c0.clone();
                with_threads(threads, || dgemm_with_isa(isa, 1.5, &a, &b, 0.5, &mut c));
                match &reference {
                    None => reference = Some(c),
                    Some(r) => assert_eq!(
                        r.as_slice(),
                        c.as_slice(),
                        "{isa} ({m},{k},{n}): {threads}-thread run is not bit-identical"
                    ),
                }
            }
        }
    }
}

#[test]
fn lu_every_supported_isa_matches_scalar_within_fma_tolerance() {
    let n = 160;
    let a = Matrix::random(n, n, 31);
    let mut want = a.clone();
    let piv_want = lu::factor_blocked_with_isa(Isa::Scalar, &mut want, 32).unwrap();
    for isa in simd::supported() {
        let mut got = a.clone();
        let piv_got = lu::factor_blocked_with_isa(isa, &mut got, 32).unwrap();
        // Pivoting compares magnitudes: FMA-level perturbations do not
        // flip a partial-pivot choice on a random (well-separated) matrix.
        assert_eq!(piv_want, piv_got, "{isa}: pivot sequence diverged");
        // Factor entries accumulate ~n FMA-contracted products, and
        // division by pivots amplifies; n·1e-13 bounds the drift while
        // still catching any real kernel bug by orders of magnitude.
        let tol = n as f64 * 1e-13;
        let diff = got.max_abs_diff(&want);
        assert!(diff <= tol, "{isa}: |Δ| = {diff:e} > {tol:e}");
    }
}

#[test]
fn lu_each_isa_is_bit_identical_across_thread_counts() {
    let n = 160;
    let a = Matrix::random(n, n, 41);
    for isa in simd::supported() {
        let mut reference: Option<(Matrix, Vec<usize>)> = None;
        for threads in THREAD_COUNTS {
            let mut fact = a.clone();
            let piv =
                with_threads(threads, || lu::factor_blocked_with_isa(isa, &mut fact, 32)).unwrap();
            match &reference {
                None => reference = Some((fact, piv)),
                Some((rf, rp)) => {
                    assert_eq!(rp, &piv, "{isa}: {threads}-thread pivots differ");
                    assert_eq!(
                        rf.as_slice(),
                        fact.as_slice(),
                        "{isa}: {threads}-thread factors are not bit-identical"
                    );
                }
            }
        }
    }
}

#[test]
fn stream_validates_on_every_supported_isa_and_thread_count() {
    for isa in simd::supported() {
        for threads in THREAD_COUNTS {
            let r = with_threads(threads, || stream::run_with_isa(isa, StreamConfig::small()))
                .expect("small arrays allocate");
            // STREAM's values remain exact integers below 2^53, so even
            // the FMA paths must validate to zero error.
            assert!(r.validated, "{isa} at {threads} threads: rel err {}", r.max_relative_error);
            assert_eq!(r.max_relative_error, 0.0, "{isa} at {threads} threads");
        }
    }
}

#[test]
fn gups_replay_is_exact_on_every_supported_isa_and_thread_count() {
    for isa in simd::supported() {
        for threads in THREAD_COUNTS {
            let r = with_threads(threads, || random_access::run_with_isa(isa, GupsConfig::new(10)))
                .expect("a 2^10-word table allocates");
            assert!(r.passed, "{isa} at {threads} threads");
            assert_eq!(r.error_fraction, 0.0, "{isa} at {threads} threads");
        }
    }
}

// ---------------------------------------------------------------------------
// TGI_KERNEL_ISA handling, in subprocesses (active() caches per process).
// ---------------------------------------------------------------------------

/// Re-runs this test binary filtered to one inner test with a controlled
/// environment, returning whether it passed.
fn subprocess(test_name: &str, isa_value: &str) -> std::process::Output {
    let exe = std::env::current_exe().expect("test binary path");
    std::process::Command::new(exe)
        .args([test_name, "--exact", "--include-ignored", "--test-threads", "1"])
        .env(KERNEL_ISA_ENV, isa_value)
        .output()
        .expect("subprocess spawns")
}

/// Inner probe: only meaningful under the subprocess driver below.
#[test]
#[ignore = "subprocess probe for forced_scalar_env_is_honored"]
fn probe_active_matches_forced_env() {
    let want = std::env::var(KERNEL_ISA_ENV).expect("driver sets the env");
    assert_eq!(simd::active().name(), want);
}

#[test]
fn forced_scalar_env_is_honored() {
    let out = subprocess("probe_active_matches_forced_env", "scalar");
    assert!(
        out.status.success(),
        "forced scalar not honored:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// Inner probe: resolving an unknown ISA must panic loudly.
#[test]
#[ignore = "subprocess probe for unknown_isa_value_fails_loudly"]
fn probe_active_with_bad_env() {
    let _ = simd::active();
}

#[test]
fn unknown_isa_value_fails_loudly() {
    let out = subprocess("probe_active_with_bad_env", "sse9");
    assert!(
        !out.status.success(),
        "unknown {KERNEL_ISA_ENV} value must panic, not silently fall back"
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sse9"), "panic should name the bad value:\n{text}");
}
