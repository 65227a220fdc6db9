//! Radix-2 complex FFT — the HPCC "FFT" test analogue.
//!
//! The HPC Challenge suite (which the paper's introduction holds up as the
//! performance-side model for multi-component benchmarking) includes a 1-D
//! DFT test; its convention counts `5·N·log₂N` FLOPs per transform. The
//! implementation is the iterative Cooley–Tukey algorithm: bit-reversal
//! permutation followed by log₂N butterfly stages; the outer butterfly
//! groups of the later (large-stride) stages are parallelized with rayon.

use crate::complex::Complex64;
use crate::matrix::max_or_nan;
use crate::timing::time_until_resolved;
use rayon::prelude::*;
use std::f64::consts::PI;

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Forward DFT (negative exponent).
    Forward,
    /// Inverse DFT (positive exponent, scaled by 1/N).
    Inverse,
}

/// In-place radix-2 FFT.
///
/// # Panics
/// Panics unless `data.len()` is a power of two (and nonzero).
pub fn fft(data: &mut [Complex64], direction: Direction) {
    let n = data.len();
    assert!(n.is_power_of_two() && n > 0, "FFT length must be a power of two");
    if n == 1 {
        return;
    }

    bit_reverse_permute(data);

    let sign = match direction {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };

    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let wlen = Complex64::from_polar_unit(ang);
        let half = len / 2;
        // Each chunk of `len` elements is one independent butterfly group.
        // Parallelize across groups when there are enough to amortize.
        if n / len >= 4 && len <= 4096 {
            data.par_chunks_mut(len).for_each(|chunk| butterfly(chunk, half, wlen));
        } else {
            for chunk in data.chunks_mut(len) {
                butterfly(chunk, half, wlen);
            }
        }
        len <<= 1;
    }

    if direction == Direction::Inverse {
        let scale = 1.0 / n as f64;
        for z in data.iter_mut() {
            *z = z.scale(scale);
        }
    }
}

#[inline]
fn butterfly(chunk: &mut [Complex64], half: usize, wlen: Complex64) {
    let mut w = Complex64::ONE;
    for k in 0..half {
        let u = chunk[k];
        let v = chunk[k + half] * w;
        chunk[k] = u + v;
        chunk[k + half] = u - v;
        w = w * wlen;
    }
}

fn bit_reverse_permute(data: &mut [Complex64]) {
    let n = data.len();
    let shift = n.leading_zeros() + 1;
    for i in 0..n {
        let j = i.reverse_bits() >> shift;
        if i < j {
            data.swap(i, j);
        }
    }
}

/// Naive O(N²) DFT, the correctness oracle.
pub fn dft_naive(input: &[Complex64], direction: Direction) -> Vec<Complex64> {
    let n = input.len();
    let sign = match direction {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut out = vec![Complex64::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        for (t, &x) in input.iter().enumerate() {
            let ang = sign * 2.0 * PI * (k * t % n) as f64 / n as f64;
            acc += x * Complex64::from_polar_unit(ang);
        }
        *o = if direction == Direction::Inverse { acc.scale(1.0 / n as f64) } else { acc };
    }
    out
}

/// HPCC FLOP convention for one transform of length `n`: `5·n·log₂n`.
pub fn fft_flops(n: usize) -> f64 {
    5.0 * n as f64 * (n as f64).log2()
}

/// Result of an FFT benchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FftResult {
    /// Transform length.
    pub n: usize,
    /// Achieved GFLOPS by the HPCC convention.
    pub gflops: f64,
    /// Mean wall-clock seconds per `repetitions`-round timed batch.
    pub seconds: f64,
    /// Round-trip error `max |IFFT(FFT(x)) − x|` of one fresh
    /// forward+inverse pass — validates the transform.
    pub max_roundtrip_error: f64,
}

/// Benchmarks forward+inverse transforms of length `n`, repeated
/// `repetitions` times; validates by round-trip error.
///
/// Small transforms complete below the clock's resolution, so the
/// whole `repetitions`-round batch is itself repeated until the timer
/// resolves; the reported GFLOPS counts every transform actually run
/// and is always finite.
pub fn benchmark(n: usize, repetitions: usize, seed: u64) -> FftResult {
    assert!(repetitions > 0, "repetitions must be positive");
    // Deterministic pseudo-random input (cheap LCG; quality irrelevant here).
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let original: Vec<Complex64> = (0..n).map(|_| Complex64::new(next(), next())).collect();

    let mut data = original.clone();
    let (_, seconds) = time_until_resolved(|| {
        for _ in 0..repetitions {
            fft(&mut data, Direction::Forward);
            fft(&mut data, Direction::Inverse);
        }
    });
    // Keep the timed buffer observable so the loop cannot be elided.
    std::hint::black_box(&mut data);

    // Validate with one fresh round trip: the timing loop may repeat
    // the batch thousands of times on tiny n before the timer resolves,
    // and that accumulated rounding error would swamp the
    // single-round-trip accuracy this field reports.
    let max_roundtrip_error = roundtrip_error(&original);

    // 2 transforms per repetition; `seconds` is the mean per batch.
    let flops = 2.0 * repetitions as f64 * fft_flops(n);
    FftResult { n, gflops: flops / seconds / 1e9, seconds, max_roundtrip_error }
}

/// `max |IFFT(FFT(x)) − x|` of one forward+inverse pass over a copy of
/// `x`; NaN if any element of the round trip is NaN.
fn roundtrip_error(x: &[Complex64]) -> f64 {
    let mut check = x.to_vec();
    fft(&mut check, Direction::Forward);
    fft(&mut check, Direction::Inverse);
    check.iter().zip(x).map(|(a, b)| (*a - *b).abs()).fold(0.0, max_or_nan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn random_signal(n: usize, seed: u64) -> Vec<Complex64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let re = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let im = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                Complex64::new(re, im)
            })
            .collect()
    }

    #[test]
    fn fft_matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 16, 64, 256] {
            let input = random_signal(n, n as u64 + 1);
            let expected = dft_naive(&input, Direction::Forward);
            let mut actual = input.clone();
            fft(&mut actual, Direction::Forward);
            for (a, e) in actual.iter().zip(&expected) {
                assert!((*a - *e).abs() < 1e-9 * (n as f64), "n={n}");
            }
        }
    }

    #[test]
    fn inverse_undoes_forward() {
        let input = random_signal(512, 3);
        let mut data = input.clone();
        fft(&mut data, Direction::Forward);
        fft(&mut data, Direction::Inverse);
        for (a, b) in data.iter().zip(&input) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn impulse_transforms_to_constant() {
        // FFT of δ[0] is all-ones.
        let mut data = vec![Complex64::ZERO; 16];
        data[0] = Complex64::ONE;
        fft(&mut data, Direction::Forward);
        for z in &data {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn constant_transforms_to_impulse() {
        let mut data = vec![Complex64::ONE; 8];
        fft(&mut data, Direction::Forward);
        assert!((data[0].re - 8.0).abs() < 1e-12);
        for z in &data[1..] {
            assert!(z.abs() < 1e-12);
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let input = random_signal(256, 9);
        let time_energy: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let mut freq = input.clone();
        fft(&mut freq, Direction::Forward);
        let freq_energy: f64 = freq.iter().map(|z| z.norm_sqr()).sum::<f64>() / 256.0;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut data = vec![Complex64::ZERO; 12];
        fft(&mut data, Direction::Forward);
    }

    #[test]
    fn length_one_is_identity() {
        let mut data = vec![Complex64::new(3.0, 4.0)];
        fft(&mut data, Direction::Forward);
        assert_eq!(data[0], Complex64::new(3.0, 4.0));
    }

    #[test]
    fn flop_convention() {
        assert_eq!(fft_flops(1024), 5.0 * 1024.0 * 10.0);
    }

    #[test]
    fn benchmark_validates_roundtrip() {
        let r = benchmark(1 << 12, 2, 7);
        assert!(r.gflops > 0.0);
        assert!(r.max_roundtrip_error < 1e-9, "error {}", r.max_roundtrip_error);
    }

    #[test]
    fn roundtrip_error_fails_closed_on_one_nan() {
        let n = 256;
        assert!(roundtrip_error(&random_signal(n, 3)) < 1e-9);
        for i in [0, 1, n / 2, n - 1] {
            let mut x = random_signal(n, 3);
            x[i].im = f64::NAN;
            let err = roundtrip_error(&x);
            assert!(err.is_nan(), "NaN at {i} gave round-trip error {err}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Linearity: FFT(x + y) == FFT(x) + FFT(y).
        #[test]
        fn prop_fft_linear(log_n in 1u32..9, seed in 0u64..100) {
            let n = 1usize << log_n;
            let x = random_signal(n, seed);
            let y = random_signal(n, seed + 1000);
            let mut fx = x.clone();
            fft(&mut fx, Direction::Forward);
            let mut fy = y.clone();
            fft(&mut fy, Direction::Forward);
            let mut xy: Vec<Complex64> = x.iter().zip(&y).map(|(a, b)| *a + *b).collect();
            fft(&mut xy, Direction::Forward);
            for i in 0..n {
                let expected = fx[i] + fy[i];
                prop_assert!((xy[i] - expected).abs() < 1e-9 * (n as f64).max(1.0));
            }
        }
    }
}
