//! # mini-mpi — a thread-backed message-passing runtime
//!
//! The paper's benchmarks are MPI programs ("Energy Efficiency of HPL …
//! Number of MPI Processes"). This crate provides the message-passing
//! substrate so the suite can run *as* a distributed program: an MPI-like
//! subset (point-to-point send/recv, barrier, broadcast, reductions,
//! pairwise exchange) where ranks are threads and the fabric is crossbeam
//! channels.
//!
//! On top of it, [`hpl2d`] implements the distributed dense solver the
//! paper describes for HPL (§IV-A): "The data is distributed on a
//! two-dimensional grid using a cyclic scheme for better load balance and
//! scalability." It runs on any `P×Q` process grid with block-cyclic
//! distribution in *both* dimensions: max-loc pivot reductions down process
//! columns, pairwise row interchanges between process rows, panel/U₁₂
//! broadcasts along rows/columns, and local GEMM updates — HPL's full
//! communication pattern. A `1×Q` grid (column block-cyclic, every pivot
//! search local) is one grid shape of the same solver.
//!
//! [`benchmarks`] adds the distributed STREAM and I/O drivers.
//!
//! ```
//! use mini_mpi::World;
//!
//! let sums = World::run(4, |comm| {
//!     let mine = (comm.rank() + 1) as f64;
//!     comm.allreduce_sum(&[mine])[0]
//! });
//! assert!(sums.iter().all(|&s| (s - 10.0).abs() < 1e-12));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmarks;
pub mod comm;
pub mod hpl2d;

pub use comm::{Communicator, World};
