//! Thread-count oracle tests: every parallel kernel must agree with its
//! sequential reference at 1, 2 and N threads.
//!
//! The rayon shim's mutable iterators split via `split_at_mut`, so kernels
//! whose tasks write disjoint output chunks (GEMM, PTRANS, the LU trailing
//! update, FFT butterflies) perform exactly the same arithmetic in every
//! configuration — those are checked **bit-identical** across thread
//! counts. STREAM and GUPS validate against their own analytic/replayed
//! references; the racy GUPS table uses atomic XOR, so its verification is
//! exact too.
//!
//! These tests run on the process-wide dispatched SIMD path (whatever
//! `TGI_KERNEL_ISA` / auto-detection selects), so a CI leg with
//! `TGI_KERNEL_ISA=scalar` re-proves every property on the scalar path;
//! per-ISA cross-checks live in `simd_oracle.rs`.

use hpc_kernels::fft::{self, Direction};
use hpc_kernels::gemm::{dgemm, dgemm_naive, dgemm_with_isa};
use hpc_kernels::lu;
use hpc_kernels::ptrans::transpose_add;
use hpc_kernels::random_access::{self, GupsConfig};
use hpc_kernels::stream::{self, StreamConfig};
use hpc_kernels::{Complex64, Matrix};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap().install(f)
}

#[test]
fn gemm_bit_identical_across_thread_counts_and_close_to_naive() {
    for (m, k, n) in [(64, 64, 64), (130, 70, 33), (257, 256, 9)] {
        let a = Matrix::random(m, k, 1);
        let b = Matrix::random(k, n, 2);
        let c0 = Matrix::random(m, n, 3);

        let mut expected = c0.clone();
        dgemm_naive(1.5, &a, &b, 0.5, &mut expected);

        let mut reference: Option<Matrix> = None;
        for threads in THREAD_COUNTS {
            let mut c = c0.clone();
            with_threads(threads, || dgemm(1.5, &a, &b, 0.5, &mut c));
            assert!(
                c.max_abs_diff(&expected) < 1e-10,
                "({m},{k},{n}) at {threads} threads diverges from naive"
            );
            match &reference {
                None => reference = Some(c),
                Some(r) => assert_eq!(
                    r.as_slice(),
                    c.as_slice(),
                    "({m},{k},{n}): {threads}-thread GEMM is not bit-identical"
                ),
            }
        }
    }
}

#[test]
fn default_dispatch_equals_explicit_active_isa() {
    // `dgemm` is a thin wrapper over `dgemm_with_isa(active(), ..)`; if
    // dispatch ever drifted (e.g. resolved per task instead of per call
    // tree), the results would stop being bit-equal.
    let (m, k, n) = (130, 70, 33);
    let a = Matrix::random(m, k, 1);
    let b = Matrix::random(k, n, 2);
    let c0 = Matrix::random(m, n, 3);
    let mut via_wrapper = c0.clone();
    dgemm(1.5, &a, &b, 0.5, &mut via_wrapper);
    let mut via_isa = c0.clone();
    dgemm_with_isa(hpc_kernels::simd::active(), 1.5, &a, &b, 0.5, &mut via_isa);
    assert_eq!(via_wrapper.as_slice(), via_isa.as_slice());
}

#[test]
fn ptrans_exactly_matches_naive_at_every_thread_count() {
    let (m, n) = (130, 70);
    let a = Matrix::random(m, n, 5);
    let add = Matrix::random(n, m, 6);
    // Transpose-add performs one addition per element: no reassociation,
    // so the parallel result must equal the naive loop exactly.
    let mut expected = Matrix::zeros(n, m);
    for j in 0..n {
        for i in 0..m {
            expected[(j, i)] = a[(i, j)] + add[(j, i)];
        }
    }
    for threads in THREAD_COUNTS {
        let mut out = Matrix::zeros(n, m);
        with_threads(threads, || transpose_add(&a, &add, &mut out));
        assert_eq!(out.as_slice(), expected.as_slice(), "{threads} threads");
    }
}

#[test]
fn lu_factorization_bit_identical_across_thread_counts() {
    let n = 160;
    let a = Matrix::random(n, n, 7);
    let mut reference: Option<(Matrix, Vec<usize>)> = None;
    for threads in THREAD_COUNTS {
        let mut fact = a.clone();
        let piv = with_threads(threads, || lu::factor_blocked(&mut fact, 32)).unwrap();
        match &reference {
            None => reference = Some((fact, piv)),
            Some((rf, rp)) => {
                assert_eq!(rp, &piv, "{threads}-thread pivots differ");
                assert_eq!(
                    rf.as_slice(),
                    fact.as_slice(),
                    "{threads}-thread LU factors are not bit-identical"
                );
            }
        }
    }
}

#[test]
fn fft_matches_naive_dft_and_is_deterministic() {
    let n = 1 << 10;
    let mut state = 0x1234_5678_u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let input: Vec<Complex64> = (0..n).map(|_| Complex64::new(next(), next())).collect();
    let expected = fft::dft_naive(&input, Direction::Forward);

    let mut reference: Option<Vec<Complex64>> = None;
    for threads in THREAD_COUNTS {
        let mut data = input.clone();
        with_threads(threads, || fft::fft(&mut data, Direction::Forward));
        for (got, want) in data.iter().zip(&expected) {
            assert!((*got - *want).abs() < 1e-9 * n as f64, "{threads} threads vs naive DFT");
        }
        match &reference {
            None => reference = Some(data),
            Some(r) => assert_eq!(r, &data, "{threads}-thread FFT is not bit-identical"),
        }
    }
}

#[test]
fn stream_validates_at_every_thread_count() {
    for threads in THREAD_COUNTS {
        let r = with_threads(threads, || stream::run(StreamConfig::small()))
            .expect("small arrays allocate");
        assert!(
            r.validated,
            "{threads} threads: results check failed (rel err {})",
            r.max_relative_error
        );
        assert!(r.triad_mbps().is_finite() && r.triad_mbps() > 0.0);
    }
}

#[test]
fn gups_verification_is_exact_at_every_thread_count() {
    for threads in THREAD_COUNTS {
        let r = with_threads(threads, || random_access::run(GupsConfig::new(10)))
            .expect("a 2^10-word table allocates");
        assert!(r.passed, "{threads} threads: verification failed");
        assert_eq!(
            r.error_fraction, 0.0,
            "{threads} threads: atomic XOR updates must replay exactly"
        );
        assert!(r.gups.is_finite() && r.gups > 0.0);
    }
}
