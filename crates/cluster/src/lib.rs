//! # cluster-sim — analytic simulator of the paper's two clusters
//!
//! The paper's experiments run on hardware this reproduction does not have:
//! *Fire* (8 nodes, 2× AMD Opteron 6134, 128 cores, 90 GFLOPS HPL) and the
//! reference *SystemG* (Mac Pros with 2× Xeon 5462; 128 nodes / 1024 cores
//! used; 8.1 TFLOPS HPL). This crate simulates them:
//!
//! * [`spec`] — parameterized machine descriptions with both clusters as
//!   presets. Each spec carries its own [`power_model::NodePowerModel`], so
//!   a cluster's power draw never depends on its name.
//! * [`scaling`] — analytic performance models for the three benchmarks:
//!   HPL parallel efficiency vs process count, STREAM per-node bandwidth
//!   saturation, and shared-filesystem I/O contention. Model shapes follow
//!   the standard cluster-behaviour literature and are calibrated to the
//!   paper's anchor points (Fire ≈ 90 GFLOPS at 128 processes, SystemG ≈
//!   8.1 TFLOPS at 1024).
//! * [`workload`] — benchmark workload descriptors (which benchmark, how
//!   many processes / active nodes).
//! * [`execution`] — the engine: run a workload on a cluster, producing
//!   wall time, performance, the average power a simulated Watts Up? PRO
//!   at the PDU reads, and a ready-to-use `tgi_core::Measurement`; the
//!   metered power trace itself on request.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod execution;
pub mod fleet;
pub mod scaling;
pub mod spec;
pub mod workload;

pub use execution::{ExecutionEngine, MemoizedEngine, SimulatedRun};
pub use fleet::FleetConfig;
pub use spec::{ClusterSpec, InterconnectSpec, NodeSpec, SharedFsSpec};
pub use workload::Workload;
