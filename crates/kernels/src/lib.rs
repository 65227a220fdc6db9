//! # hpc-kernels — native benchmark kernels for the TGI suite
//!
//! The TGI paper evaluates energy efficiency with a benchmark suite: HPL for
//! computation, STREAM for memory, and IOzone for I/O (§IV-A). This crate
//! implements those workloads natively in Rust — real compute, real memory
//! traffic, real file I/O — plus the HPCC-style extensions the paper's
//! introduction motivates (the HPC Challenge suite has seven tests):
//!
//! * [`hpl`] — dense `Ax = b` solve via blocked LU factorization with row
//!   partial pivoting, exactly HPL's algorithm and FLOP accounting.
//! * [`stream`] — McCalpin's Copy/Scale/Add/Triad sustainable-bandwidth
//!   kernels.
//! * [`iobench`] — IOzone-style sequential write/rewrite/read file tests.
//! * [`gemm`] — blocked, parallel DGEMM (also the compute core of HPL).
//! * [`fft`] — radix-2 complex FFT (HPCC FFT analogue).
//! * [`ptrans`] — parallel blocked matrix transpose (HPCC PTRANS analogue).
//! * [`random_access`] — GUPS table-update kernel (HPCC RandomAccess).
//! * [`mixed`] — f32 LU + f64 iterative refinement (the HPL-AI energy
//!   technique), with honest convergence reporting.
//!
//! All kernels are multi-threaded via the in-tree `rayon` shim, which runs
//! a real work-sharing thread pool sized by `available_parallelism()` and
//! overridable with the `TGI_NUM_THREADS` environment variable
//! (`TGI_NUM_THREADS=1` pins every kernel to fully sequential execution).
//! Parallel tasks write disjoint `&mut` output chunks, so GEMM, PTRANS and
//! the LU trailing update are bit-identical at every thread count. The hot
//! kernel bodies (GEMM/LU microkernel, STREAM loops, GUPS stream) dispatch
//! through [`simd`] to runtime-detected AVX2/NEON paths, overridable with
//! `TGI_KERNEL_ISA`. Kernels report the same metrics the original
//! benchmarks report (GFLOPS, MB/s, GUPS), with explicit work accounting so
//! power and energy models can reuse the numbers; the [`timing`] helpers
//! repeat tiny problems until the clock resolves, so no benchmark ever
//! reports `inf`. Because each kernel may now use the whole machine, the
//! suite runner executes metered items exclusively (see `tgi-suite`) rather
//! than overlapping them.

// `simd` is the single intrinsics surface and carries its own narrow
// `allow(unsafe_code)`; everything else stays deny-clean.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod fft;
pub mod gemm;
pub mod hpl;
pub mod iobench;
pub mod lu;
pub mod matrix;
pub mod mixed;
pub mod ptrans;
pub mod random_access;
pub mod simd;
pub mod stream;
pub mod timing;

pub use complex::Complex64;
pub use hpl::{HplConfig, HplResult};
pub use iobench::{IoBenchConfig, IoBenchResult, IoOperation};
pub use matrix::Matrix;
pub use random_access::{GupsConfig, GupsResult};
pub use simd::Isa;
pub use stream::{StreamConfig, StreamKernel, StreamResult};

/// Work accounting for one kernel execution, used by power/energy models to
/// attribute utilization to subsystems.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Work {
    /// Floating-point operations performed.
    pub flops: f64,
    /// Bytes read from + written to memory (approximate, by kernel formula).
    pub bytes_moved: f64,
    /// Bytes read from or written to storage.
    pub io_bytes: f64,
}

impl Work {
    /// Pure-compute work.
    pub fn compute(flops: f64, bytes_moved: f64) -> Self {
        Work { flops, bytes_moved, io_bytes: 0.0 }
    }

    /// Pure-I/O work.
    pub fn io(io_bytes: f64) -> Self {
        Work { flops: 0.0, bytes_moved: io_bytes, io_bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_constructors() {
        let w = Work::compute(100.0, 800.0);
        assert_eq!(w.flops, 100.0);
        assert_eq!(w.io_bytes, 0.0);
        let io = Work::io(4096.0);
        assert_eq!(io.io_bytes, 4096.0);
        assert_eq!(io.flops, 0.0);
    }
}
