//! # tgi-core — The Green Index (TGI)
//!
//! This crate implements the metric proposed in *"The Green Index: A Metric
//! for Evaluating System-Wide Energy Efficiency in HPC Systems"*
//! (Subramaniam & Feng, IPDPSW 2012).
//!
//! TGI aggregates the energy efficiency of a *suite* of benchmarks — each
//! stressing a different subsystem (CPU, memory, I/O, ...) and each reporting
//! performance in its own unit — into a single, rankable number:
//!
//! 1. For each benchmark `i`, measure energy efficiency
//!    `EE_i = Performance_i / Power_i` (Eq. 2 in the paper).
//! 2. Normalize against a *reference system* (SPEC-rating style, Eq. 3):
//!    `REE_i = EE_i / EE_i(reference)`.
//! 3. Pick weights `W_i` with `Σ W_i = 1` (Eqs. 10–12 study time-, energy-
//!    and power-proportional weights; equal weights give the arithmetic mean).
//! 4. `TGI = Σ_i W_i · REE_i` (Eq. 4).
//!
//! The crate also provides the supporting machinery the paper's evaluation
//! relies on: central-tendency means (§III), Pearson correlation for the
//! goodness analysis (§IV, Eq. 17), the energy-delay-product alternative
//! metric mentioned in §II, and Green500-style ranking of systems.
//!
//! ## Quick example
//!
//! ```
//! use tgi_core::prelude::*;
//!
//! // Reference system measurements (e.g. SystemG in the paper).
//! let reference = ReferenceSystem::builder("SystemG")
//!     .benchmark(Measurement::new("hpl", Perf::tflops(8.1), Watts::new(26_000.0), Seconds::new(7200.0)).unwrap())
//!     .benchmark(Measurement::new("stream", Perf::mbps(1_600_000.0), Watts::new(24_000.0), Seconds::new(600.0)).unwrap())
//!     .benchmark(Measurement::new("iozone", Perf::mbps(320.0), Watts::new(11_500.0), Seconds::new(900.0)).unwrap())
//!     .build()
//!     .unwrap();
//!
//! // System under test (e.g. the Fire cluster).
//! let suite = vec![
//!     Measurement::new("hpl", Perf::gflops(90.0), Watts::new(2900.0), Seconds::new(1800.0)).unwrap(),
//!     Measurement::new("stream", Perf::mbps(80_000.0), Watts::new(2500.0), Seconds::new(300.0)).unwrap(),
//!     Measurement::new("iozone", Perf::mbps(95.0), Watts::new(2300.0), Seconds::new(600.0)).unwrap(),
//! ];
//!
//! let tgi = Tgi::builder()
//!     .reference(reference)
//!     .weighting(Weighting::Arithmetic)
//!     .measurements(suite)
//!     .compute()
//!     .unwrap();
//! assert!(tgi.value() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod edp;
pub mod efficiency;
pub mod error;
pub mod evaluator;
pub mod means;
pub mod measurement;
pub mod ranking;
pub mod reference;
pub mod repeats;
pub mod sensitivity;
pub mod stats;
pub mod tgi;
pub mod units;
pub mod vector;
pub mod weights;

pub use edp::{EnergyDelayProduct, EnergyDelaySquaredProduct};
pub use efficiency::{EfficiencyMetric, EnergyEfficiency, PerfPerWatt};
pub use error::TgiError;
pub use evaluator::{EvalScratch, TgiEvaluator};
pub use measurement::Measurement;
pub use ranking::{RankedSystem, Ranking};
pub use reference::{ReferenceSystem, ReferenceSystemBuilder};
pub use repeats::{MeasurementSet, TgiWithUncertainty};
pub use sensitivity::{FlipPoint, Robustness};
pub use tgi::{BenchmarkContribution, MeanKind, Tgi, TgiBuilder, TgiResult};
pub use units::{Joules, Perf, PerfUnit, Seconds, Watts};
pub use vector::{Dominance, EfficiencyVector};
pub use weights::{WeightSet, Weighting};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::edp::{EnergyDelayProduct, EnergyDelaySquaredProduct};
    pub use crate::efficiency::{EfficiencyMetric, EnergyEfficiency, PerfPerWatt};
    pub use crate::error::TgiError;
    pub use crate::evaluator::{EvalScratch, TgiEvaluator};
    pub use crate::means;
    pub use crate::measurement::Measurement;
    pub use crate::ranking::{RankedSystem, Ranking};
    pub use crate::reference::ReferenceSystem;
    pub use crate::stats;
    pub use crate::tgi::{MeanKind, Tgi, TgiResult};
    pub use crate::units::{Joules, Perf, PerfUnit, Seconds, Watts};
    pub use crate::vector::{Dominance, EfficiencyVector};
    pub use crate::weights::{WeightSet, Weighting};
}
