//! # power-model — the power-measurement substrate
//!
//! The paper measures energy with a *Watts Up? PRO ES* wall-plug meter wired
//! between the outlet and the system (Figure 1). No physical meter exists in
//! this reproduction, so the whole measurement path is built as a faithful
//! synthetic equivalent:
//!
//! * [`components`] — utilization-dependent power models for CPU, memory,
//!   disk, and NIC, plus a constant baseboard draw.
//! * [`psu`] — a load-dependent power-supply efficiency curve mapping DC
//!   draw to wall (AC) power, which is what a wall meter actually sees.
//! * [`node`] — a whole node: components behind a PSU.
//! * [`utilization`] — time-phased utilization profiles describing what a
//!   workload does to each subsystem.
//! * [`meter`] — the [`meter::PowerMeter`] trait and the simulated
//!   [`meter::WattsUpPro`] (1 Hz sampling, 0.1 W quantization, calibrated
//!   accuracy noise, readings streamed to any sink) — the code path a real
//!   meter would plug into.
//! * [`trace`] — time-stamped power traces stored as struct-of-arrays with
//!   an incrementally maintained prefix index: total energy / average /
//!   peak / min are O(1), and arbitrary `[t0, t1]` energy windows are
//!   O(log n) after an O(1)-amortized push. [`Trapezoid`] is the index's
//!   integration step on its own: energy and average power of a sample
//!   stream without storing it.
//! * [`trace_io`] — streaming meter-log I/O: logs parse line-by-line from
//!   any [`std::io::BufRead`] and write through any [`std::io::Write`]
//!   without materializing the file in memory.
//! * [`persist`] — on-disk traces: [`PowerTrace::to_store`] /
//!   [`persist::StoreBackedTrace::to_trace`] round-trip through the
//!   compressed `tgi-trace-store` format, and `StoreBackedTrace` answers
//!   [`TraceQuery`] from chunk footers bit-identically without
//!   rehydrating the trace.
//! * [`analysis`] — single-pass trace post-processing: percentiles
//!   (selection-based, with a reusable sorted cache), idle estimation,
//!   two-pointer moving averages, monotonic-deque sliding extrema, and
//!   phase segmentation with per-phase energy from the prefix index.
//! * [`anomaly`] — online detectors over streaming watts: robust-z
//!   spikes, fast-vs-slow EWMA drift, and flatline/time-gap dropouts,
//!   O(1) state per stream and scannable post-hoc over stored traces.
//! * [`fleet`] — many labeled traces summarized in parallel over the
//!   workspace thread pool ([`fleet::TraceSet`]).
//! * [`sampler`] — a background thread that samples a live power source
//!   while a native benchmark runs.
//! * [`cooling`] — the PUE/cooling extension the paper lists as advantage
//!   (2) of TGI and as future work.
//! * [`dvfs`] — P-state governor model: the frequency ↦ {relative perf,
//!   watts} frontier over a node model and the race-to-idle verdict.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accelerator;
pub mod analysis;
pub mod anomaly;
pub mod components;
pub mod cooling;
pub mod dvfs;
pub mod fleet;
pub mod meter;
pub mod node;
pub mod persist;
pub mod psu;
pub mod sampler;
pub mod thermal;
pub mod trace;
pub mod trace_io;
pub mod utilization;

pub use accelerator::AcceleratorPower;
pub use analysis::PercentileCache;
pub use anomaly::{AnomalyConfig, AnomalyCounts, AnomalyDetector, AnomalyEvent, AnomalyKind};
pub use components::{BaseboardPower, CpuPower, DiskPower, MemoryPower, NicPower};
pub use cooling::CoolingModel;
pub use dvfs::{FrontierPoint, GovernorModel, RaceToIdleVerdict};
pub use fleet::{FleetSummary, NodeSummary, TraceSet};
pub use meter::{MeterSpec, PowerMeter, WattsUpPro};
pub use node::NodePowerModel;
pub use persist::StoreBackedTrace;
pub use psu::PsuEfficiency;
pub use sampler::{BackgroundSampler, PowerSource};
pub use thermal::ThermalModel;
pub use trace::{PowerTrace, TraceQuery, Trapezoid};
pub use utilization::{UtilizationProfile, UtilizationSample};
