//! STREAM — sustainable memory bandwidth (McCalpin), §IV-A of the paper.
//!
//! "There are four different computations performed by the benchmark: Copy,
//! Scale, Add, and Triad. We are mainly interested in Triad … Triad scales a
//! vector A and adds it to another vector B and writes the result to a third
//! vector C" (Eq. 16: `C = α·A + B`).
//!
//! Faithful to the reference benchmark:
//!
//! * three working arrays much larger than cache;
//! * each kernel timed over `ntimes` repetitions, *best* time reported;
//! * bandwidth accounting per the official byte counts (Copy/Scale move
//!   2 words per element, Add/Triad move 3);
//! * parallelized over array chunks (the rayon analogue of STREAM's OpenMP
//!   pragmas), with each chunk body dispatched to the active SIMD path
//!   (scalar / AVX2 / NEON — see [`crate::simd`]);
//! * the three arrays live for the whole process, like the reference's
//!   `static` arrays: the first run of a size first-touches them in
//!   parallel chunks ([`rayon::resize_first_touch`]), so with a pinned
//!   pool (`TGI_PIN_THREADS=1`) pages land on the NUMA node of the worker
//!   that streams them. Later runs of that size use the set as the last
//!   run left it and write nothing before the timed kernels: only `a`'s
//!   start value is ever read (Copy overwrites all of `c`, and Scale all
//!   of `b`, before either is read), and the results check puts it back.
//!   The cost is that `3 × array_size × 8` bytes stay resident until exit.
//!   A run holds the set only while it runs, so a concurrent run (an MPI
//!   rank, a parallel test) allocates its own and at most one set is kept.
//!   Arrays too large for the address space or the allocator are an
//!   [`ArrayAllocError`], not an abort;
//! * the results check is one parallel pass over the three arrays on the
//!   kernels' chunk grid: a max of every element's relative error, in
//!   which a NaN anywhere fails the run, that also resets `a` to 1.0.

use crate::matrix::max_or_nan;
use crate::simd::{self, Isa};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Elements per parallel task: 64 KiB chunks — big enough that dispatch
/// and task overheads vanish, small enough for load balancing.
const PAR_CHUNK: usize = 8 << 10;

/// The four STREAM kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StreamKernel {
    /// `C = A`
    Copy,
    /// `B = α·C`
    Scale,
    /// `C = A + B`
    Add,
    /// `C = α·A + B` (Eq. 16) — the kernel the paper reports.
    Triad,
}

impl StreamKernel {
    /// All four kernels in benchmark order.
    pub const ALL: [StreamKernel; 4] =
        [StreamKernel::Copy, StreamKernel::Scale, StreamKernel::Add, StreamKernel::Triad];

    /// Words moved per element (reads + writes), per the STREAM rules.
    pub fn words_per_element(self) -> usize {
        match self {
            StreamKernel::Copy | StreamKernel::Scale => 2,
            StreamKernel::Add | StreamKernel::Triad => 3,
        }
    }

    /// Display name matching the reference benchmark's output.
    pub fn name(self) -> &'static str {
        match self {
            StreamKernel::Copy => "Copy",
            StreamKernel::Scale => "Scale",
            StreamKernel::Add => "Add",
            StreamKernel::Triad => "Triad",
        }
    }
}

/// Configuration for a STREAM run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Elements per array. The STREAM rule is ≥ 4× the last-level cache.
    pub array_size: usize,
    /// Repetitions per kernel; best time wins (reference default 10).
    pub ntimes: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        // 8 M elements × 3 arrays × 8 B = 192 MB: far beyond any LLC.
        StreamConfig { array_size: 8 << 20, ntimes: 10 }
    }
}

impl StreamConfig {
    /// A config sized for tests (small arrays, few repetitions).
    pub fn small() -> Self {
        StreamConfig { array_size: 1 << 16, ntimes: 3 }
    }
}

/// Result of one kernel within a STREAM run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelTiming {
    /// Which kernel.
    pub kernel: StreamKernel,
    /// Best bandwidth across repetitions, bytes/second.
    pub best_bytes_per_sec: f64,
    /// Best (minimum) time, seconds.
    pub best_seconds: f64,
    /// Worst (maximum) time, seconds.
    pub worst_seconds: f64,
}

/// Result of a full STREAM run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamResult {
    /// Per-kernel timings in benchmark order.
    pub kernels: Vec<KernelTiming>,
    /// Array size used.
    pub array_size: usize,
    /// Wall-clock seconds from the first timed kernel to the end of the
    /// results check, which in the same pass resets `a` to its start value
    /// for the next run. Allocating and first-touching a fresh set before
    /// that (the first run of a size in the process) is not included.
    pub total_seconds: f64,
    /// Maximum relative error of the final array values against the
    /// analytic expectation — the reference STREAM's results check.
    pub max_relative_error: f64,
    /// Whether the results check passed (error < 1e-13, STREAM's epsilon).
    pub validated: bool,
}

impl StreamResult {
    /// The Triad bandwidth in MB/s (decimal) — the number the paper reports.
    pub fn triad_mbps(&self) -> f64 {
        self.timing(StreamKernel::Triad).best_bytes_per_sec / 1e6
    }

    /// Timing record for a specific kernel.
    ///
    /// # Panics
    /// Panics if the kernel is missing (cannot happen for results produced
    /// by [`run`]).
    pub fn timing(&self, kernel: StreamKernel) -> &KernelTiming {
        self.kernels.iter().find(|k| k.kernel == kernel).expect("all four kernels present")
    }
}

/// The scalar used by Scale and Triad (the reference uses 3.0).
pub const SCALAR: f64 = 3.0;

/// The most repetitions a run can check: after 263 cycles `a`'s analytic
/// value overflows to ∞, and the results check reads NaN.
pub const MAX_NTIMES: usize = 262;

/// STREAM arrays the process cannot allocate: their byte size overflows
/// `isize::MAX`, or the allocator refuses them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayAllocError {
    /// The requested elements per array.
    pub array_size: usize,
}

impl std::fmt::Display for ArrayAllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot allocate three {}-element STREAM arrays", self.array_size)
    }
}

impl std::error::Error for ArrayAllocError {}

/// Runs the STREAM benchmark on the process-wide dispatched ISA
/// ([`crate::simd::active`]).
///
/// Faithful to the reference driver: each repetition executes the full
/// Copy→Scale→Add→Triad cycle, each kernel is timed within the cycle, the
/// per-kernel *minimum* across repetitions is reported, and the final array
/// contents are checked against the analytic expectation.
pub fn run(config: StreamConfig) -> Result<StreamResult, ArrayAllocError> {
    run_with_isa(simd::active(), config)
}

/// [`run`] on an explicitly chosen ISA path — the hook the SIMD oracle
/// tests use to validate every supported path in one process.
///
/// Errors, before any kernel runs, if a fresh set of arrays cannot be
/// allocated.
pub fn run_with_isa(isa: Isa, config: StreamConfig) -> Result<StreamResult, ArrayAllocError> {
    assert!(config.array_size > 0, "array size must be positive");
    assert!(config.ntimes > 0, "ntimes must be positive");
    let mut arrays = Arrays::take(config.array_size)?;
    let result = run_on(&mut arrays, isa, config);
    arrays.put_back();
    Ok(result)
}

/// One STREAM run on `arrays`, whose `a` must hold 1.0; `b` and `c` may
/// hold anything. Leaves `a` at 1.0 again.
fn run_on(arrays: &mut Arrays, isa: Isa, config: StreamConfig) -> StreamResult {
    let n = config.array_size;
    let Arrays { a, b, c } = &mut *arrays;

    let run_start = Instant::now();
    let mut best = [f64::INFINITY; 4];
    let mut worst = [0.0f64; 4];
    for _ in 0..config.ntimes {
        for (ki, kernel) in StreamKernel::ALL.into_iter().enumerate() {
            let start = Instant::now();
            // Each task owns one disjoint PAR_CHUNK-sized &mut chunk of the
            // destination and reads the matching source range; the per-chunk
            // body is the dispatched SIMD loop. Element results depend only
            // on element inputs, so every thread count and chunk split is
            // bit-identical for a fixed ISA.
            match kernel {
                StreamKernel::Copy => {
                    c.par_chunks_mut(PAR_CHUNK).enumerate().for_each(|(i, cc)| {
                        let o = i * PAR_CHUNK;
                        simd::stream_copy(isa, cc, &a[o..o + cc.len()]);
                    });
                }
                StreamKernel::Scale => {
                    b.par_chunks_mut(PAR_CHUNK).enumerate().for_each(|(i, bc)| {
                        let o = i * PAR_CHUNK;
                        simd::stream_scale(isa, bc, &c[o..o + bc.len()], SCALAR);
                    });
                }
                StreamKernel::Add => {
                    c.par_chunks_mut(PAR_CHUNK).enumerate().for_each(|(i, cc)| {
                        let o = i * PAR_CHUNK;
                        simd::stream_add(isa, cc, &a[o..o + cc.len()], &b[o..o + cc.len()]);
                    });
                }
                StreamKernel::Triad => {
                    a.par_chunks_mut(PAR_CHUNK).enumerate().for_each(|(i, ac)| {
                        let o = i * PAR_CHUNK;
                        simd::stream_triad(
                            isa,
                            ac,
                            &b[o..o + ac.len()],
                            &c[o..o + ac.len()],
                            SCALAR,
                        );
                    });
                }
            }
            let t = start.elapsed().as_secs_f64().max(1e-9);
            best[ki] = best[ki].min(t);
            worst[ki] = worst[ki].max(t);
        }
    }
    let results: Vec<KernelTiming> = StreamKernel::ALL
        .into_iter()
        .enumerate()
        .map(|(ki, kernel)| {
            let bytes = (kernel.words_per_element() * 8 * n) as f64;
            KernelTiming {
                kernel,
                best_bytes_per_sec: bytes / best[ki],
                best_seconds: best[ki],
                worst_seconds: worst[ki],
            }
        })
        .collect();

    let max_relative_error = arrays.check_and_reset(config.ntimes);
    let total_seconds = run_start.elapsed().as_secs_f64();

    StreamResult {
        kernels: results,
        array_size: n,
        total_seconds,
        max_relative_error,
        validated: max_relative_error < 1e-13,
    }
}

/// STREAM's three working arrays.
#[derive(Default)]
struct Arrays {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
}

/// The process's one retained set of arrays (empty while a run holds it).
static RETAINED: Mutex<Option<Arrays>> = Mutex::new(None);

impl Arrays {
    /// Takes the retained set if it has length `n`, as the last run's
    /// results check left it (`a` back at 1.0). Otherwise, or if a
    /// concurrent run holds it, reserves a new set and first-touches it
    /// with STREAM's start values `a = 1, b = 2, c = 0`. A set of another
    /// length is freed before the new one is reserved, so two sets are
    /// never live here.
    fn take(n: usize) -> Result<Arrays, ArrayAllocError> {
        let retained = RETAINED.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(set) = retained.filter(|set| set.a.len() == n) {
            return Ok(set);
        }
        let mut set = Arrays::default();
        for v in [&mut set.a, &mut set.b, &mut set.c] {
            v.try_reserve_exact(n).map_err(|_| ArrayAllocError { array_size: n })?;
        }
        rayon::resize_first_touch(&mut set.a, n, 1.0);
        rayon::resize_first_touch(&mut set.b, n, 2.0);
        rayon::resize_first_touch(&mut set.c, n, 0.0);
        Ok(set)
    }

    /// Returns the set to the slot. If a concurrent run put one back
    /// meanwhile, that one is dropped, after the lock is released.
    fn put_back(self) {
        let displaced = RETAINED.lock().unwrap_or_else(PoisonError::into_inner).replace(self);
        drop(displaced);
    }

    /// The reference's checkSTREAMresults, fused with the reset of `a`:
    /// one parallel pass on the kernels' chunk grid returns the largest
    /// relative error of any element of `a`, `b` and `c` against its
    /// analytic value after `ntimes` cycles, and writes each chunk of `a`
    /// back to 1.0 once it is checked. A NaN element makes the result NaN;
    /// `a` is reset either way.
    ///
    /// Each chunk divides its largest absolute error by `|want|` once:
    /// rounded division by a positive constant is monotone, so that is
    /// bit-equal to the largest per-element `|(got − want) / want|`.
    fn check_and_reset(&mut self, ntimes: usize) -> f64 {
        let (ea, eb, ec) = expected_values(ntimes);
        let relative = |chunk: &[f64], want: f64| max_abs_error(chunk, want) / want.abs();
        let Arrays { a, b, c } = self;
        a.par_chunks_mut(PAR_CHUNK)
            .zip(b.par_chunks(PAR_CHUNK))
            .zip(c.par_chunks(PAR_CHUNK))
            .map(|((ac, bc), cc)| {
                let error = relative(ac, ea);
                ac.fill(1.0);
                max_or_nan(max_or_nan(error, relative(bc, eb)), relative(cc, ec))
            })
            .collect::<Vec<f64>>()
            .into_iter()
            .fold(0.0, max_or_nan)
    }
}

/// The largest `|got − want|` over `chunk`, or NaN if any is NaN. Four
/// independent lanes, each a plain compare-select maximum with its own
/// NaN flag, let the loop vectorize to packed max and compare
/// instructions; a NaN-propagating select in the loop ran at about half
/// the speed, below memory bandwidth.
fn max_abs_error(chunk: &[f64], want: f64) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut nan = [false; 4];
    let mut quads = chunk.chunks_exact(4);
    for quad in &mut quads {
        for ((m, nan), &got) in lanes.iter_mut().zip(&mut nan).zip(quad) {
            let error = (got - want).abs();
            // A NaN never wins the compare; its flag records it.
            *m = if error > *m { error } else { *m };
            *nan |= error.is_nan();
        }
    }
    let tail = quads.remainder().iter().map(|&got| (got - want).abs()).fold(0.0, max_or_nan);
    let max = lanes.into_iter().fold(tail, max_or_nan);
    if nan.contains(&true) {
        f64::NAN
    } else {
        max
    }
}

/// Verifies the STREAM invariant analytically: after the Copy→Scale→Add→
/// Triad cycle starting from `a=1, b=2, c=0`, every element of each array
/// holds a single known value. Returns `(a, b, c)` expected element values
/// after `cycles` full kernel cycles.
pub fn expected_values(cycles: usize) -> (f64, f64, f64) {
    let (mut a, mut b, mut c) = (1.0f64, 2.0f64, 0.0f64);
    for _ in 0..cycles {
        c = a; // Copy
        b = SCALAR * c; // Scale
        c = a + b; // Add
        a = b + SCALAR * c; // Triad
    }
    (a, b, c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_produces_all_four_kernels() {
        let r = run(StreamConfig::small()).expect("small arrays allocate");
        assert_eq!(r.kernels.len(), 4);
        assert!(r.validated, "results check failed: {}", r.max_relative_error);
        for k in StreamKernel::ALL {
            let t = r.timing(k);
            assert!(t.best_bytes_per_sec > 0.0, "{:?} has zero bandwidth", k);
            assert!(t.best_seconds <= t.worst_seconds);
        }
        assert!(r.triad_mbps() > 0.0);
        assert!(r.total_seconds > 0.0);
    }

    #[test]
    fn byte_accounting_follows_stream_rules() {
        assert_eq!(StreamKernel::Copy.words_per_element(), 2);
        assert_eq!(StreamKernel::Scale.words_per_element(), 2);
        assert_eq!(StreamKernel::Add.words_per_element(), 3);
        assert_eq!(StreamKernel::Triad.words_per_element(), 3);
    }

    #[test]
    fn kernel_names_match_reference_output() {
        let names: Vec<&str> = StreamKernel::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["Copy", "Scale", "Add", "Triad"]);
    }

    #[test]
    fn kernels_compute_correct_values() {
        // Replicate one cycle manually on tiny arrays (serial semantics are
        // identical to the parallel kernels — element-wise, no races).
        let n = 64;
        let mut a = vec![1.0f64; n];
        let mut b = vec![2.0f64; n];
        let mut c = vec![0.0f64; n];
        for (cv, av) in c.iter_mut().zip(&a) {
            *cv = *av;
        }
        for (bv, cv) in b.iter_mut().zip(&c) {
            *bv = SCALAR * *cv;
        }
        let c2: Vec<f64> = a.iter().zip(&b).map(|(a, b)| a + b).collect();
        c.copy_from_slice(&c2);
        let a2: Vec<f64> = b.iter().zip(&c).map(|(b, c)| b + SCALAR * c).collect();
        a.copy_from_slice(&a2);
        let (ea, eb, ec) = expected_values(1);
        assert!(a.iter().all(|&v| (v - ea).abs() < 1e-12));
        assert!(b.iter().all(|&v| (v - eb).abs() < 1e-12));
        assert!(c.iter().all(|&v| (v - ec).abs() < 1e-12));
    }

    #[test]
    fn results_check_validates_many_cycles() {
        // After 10 cycles the values are astronomically large; the check
        // must still hold exactly in relative terms.
        let r = run(StreamConfig { array_size: 1024, ntimes: 10 }).expect("allocates");
        assert!(r.validated, "error {}", r.max_relative_error);
        let (ea, _, _) = expected_values(10);
        assert!(ea > 1e10, "values grow fast: {ea}");
    }

    #[test]
    fn results_check_fails_closed_on_one_nan() {
        let n = 3 * PAR_CHUNK + 5;
        let (ea, eb, ec) = expected_values(2);
        let clean = || Arrays { a: vec![ea; n], b: vec![eb; n], c: vec![ec; n] };
        assert_eq!(clean().check_and_reset(2), 0.0);
        for i in [0, PAR_CHUNK - 1, PAR_CHUNK, n - 1] {
            for array in 0..3 {
                let mut set = clean();
                [&mut set.a, &mut set.b, &mut set.c][array][i] = f64::NAN;
                let err = set.check_and_reset(2);
                let validated = err < 1e-13;
                assert!(!validated, "NaN in array {array} at {i} validated with error {err}");
            }
        }
    }

    #[test]
    fn results_check_resets_a_even_when_it_fails() {
        let n = 3 * PAR_CHUNK + 5;
        let (ea, eb, ec) = expected_values(2);
        for nan_at in [None, Some(0), Some(PAR_CHUNK), Some(n - 1)] {
            let mut set = Arrays { a: vec![ea; n], b: vec![eb; n], c: vec![ec; n] };
            if let Some(i) = nan_at {
                set.a[i] = f64::NAN;
            }
            let err = set.check_and_reset(2);
            assert_eq!(nan_at.is_some(), err.is_nan(), "NaN at {nan_at:?}: error {err}");
            assert!(set.a.iter().all(|&v| v == 1.0), "NaN at {nan_at:?}: a not reset");
            assert!(set.b.iter().all(|&v| v == eb) && set.c.iter().all(|&v| v == ec));
        }
    }

    #[test]
    fn reused_set_with_nan_in_b_and_c_matches_a_fresh_one() {
        // `b` and `c` are written before they are read, so whatever a
        // reused set holds there cannot reach the results.
        let n = 2 * PAR_CHUNK + 3;
        let config = StreamConfig { array_size: n, ntimes: 3 };
        let isa = simd::active();
        let mut fresh = Arrays { a: vec![1.0; n], b: vec![2.0; n], c: vec![0.0; n] };
        let mut reused = Arrays { a: vec![1.0; n], b: vec![f64::NAN; n], c: vec![f64::NAN; n] };
        let want = run_on(&mut fresh, isa, config);
        assert!(want.validated, "fresh set: error {}", want.max_relative_error);
        for round in 0..2 {
            let got = run_on(&mut reused, isa, config);
            assert!(got.validated, "round {round}: error {}", got.max_relative_error);
            assert_eq!(got.max_relative_error.to_bits(), want.max_relative_error.to_bits());
            assert!(reused.a.iter().all(|&v| v == 1.0), "round {round}: a not reset");
        }
    }

    #[test]
    fn results_check_is_bit_equal_to_the_per_element_max() {
        let n = 2 * PAR_CHUNK + 7;
        let (ea, eb, ec) = expected_values(3);
        let off = |want: f64, i: usize| want * (1.0 + ((i * 7919) % 1013) as f64 * 1e-15);
        let mut set = Arrays {
            a: (0..n).map(|i| off(ea, i)).collect(),
            b: (0..n).map(|i| off(eb, i + 1)).collect(),
            c: (0..n).map(|i| off(ec, i + 2)).collect(),
        };
        let per_element = [(&set.a, ea), (&set.b, eb), (&set.c, ec)]
            .into_iter()
            .flat_map(|(v, want)| v.iter().map(move |&got| ((got - want) / want).abs()))
            .fold(0.0, f64::max);
        assert!(per_element > 0.0);
        assert_eq!(set.check_and_reset(3).to_bits(), per_element.to_bits());
    }

    #[test]
    fn expected_values_stay_finite_through_max_ntimes() {
        let finite = |(a, b, c): (f64, f64, f64)| a.is_finite() && b.is_finite() && c.is_finite();
        assert!(finite(expected_values(MAX_NTIMES)));
        assert!(!finite(expected_values(MAX_NTIMES + 1)));
    }

    #[test]
    fn unallocatable_arrays_are_an_error_not_an_abort() {
        // Past isize::MAX bytes the reservation fails without asking the
        // allocator for anything.
        let array_size = isize::MAX as usize / 8 + 1;
        let config = StreamConfig { array_size, ntimes: 2 };
        assert_eq!(run(config), Err(ArrayAllocError { array_size }));
    }

    #[test]
    fn expected_values_one_cycle() {
        // a=1,b=2,c=0 → Copy: c=1; Scale: b=3; Add: c=4; Triad: a=3+12=15.
        assert_eq!(expected_values(1), (15.0, 3.0, 4.0));
    }

    #[test]
    fn triad_is_fastest_reported_metric_unit() {
        let r = run(StreamConfig::small()).expect("small arrays allocate");
        let triad = r.timing(StreamKernel::Triad);
        let mbps = r.triad_mbps();
        assert!((mbps - triad.best_bytes_per_sec / 1e6).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_array_size_panics() {
        let _ = run(StreamConfig { array_size: 0, ntimes: 1 });
    }

    #[test]
    #[should_panic(expected = "ntimes")]
    fn zero_ntimes_panics() {
        let _ = run(StreamConfig { array_size: 16, ntimes: 0 });
    }
}
