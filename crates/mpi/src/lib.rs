//! # mini-mpi — a thread-backed message-passing runtime
//!
//! The paper's benchmarks are MPI programs ("Energy Efficiency of HPL …
//! Number of MPI Processes"). This crate provides the message-passing
//! substrate so the suite can run *as* a distributed program: an MPI-like
//! subset where ranks are threads and the fabric is `std::sync::mpsc`
//! channels. Every message is a `Vec<f64>`: `send`/`recv` with tag
//! matching, and `barrier`, `broadcast`, `allreduce_sum` and
//! `allreduce_max_loc` over a rank group (the world is `0..size`), plus
//! pairwise `exchange`. A send copies its payload, as an MPI send does, so
//! a message's bytes are really moved.
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
//! ```
//! use mini_mpi::World;
//!
//! let sums = World::run(4, |comm| {
//!     let world: Vec<usize> = (0..comm.size()).collect();
//!     let mine = (comm.rank() + 1) as f64;
//!     comm.allreduce_sum(&world, 0, &[mine])[0]
//! });
//! assert!(sums.iter().all(|&s| (s - 10.0).abs() < 1e-12));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comm;
pub mod hpl2d;

pub use comm::{Communicator, World};
