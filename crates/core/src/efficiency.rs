//! Energy-efficiency metrics (Eq. 2 and alternatives).
//!
//! The paper computes TGI from the performance-to-power ratio, but notes in
//! §II that "the methodology used for computing TGI can be used with any
//! other energy-efficient metric, such as the energy-delay product". The
//! [`EfficiencyMetric`] trait captures that pluggability: anything that maps
//! a [`Measurement`] to a positive scalar where *larger is better* can drive
//! the TGI pipeline.

use crate::measurement::Measurement;
use crate::units::Watts;
use serde::{Deserialize, Serialize};

/// A metric mapping one benchmark measurement to a positive scalar where
/// larger values mean a greener system.
pub trait EfficiencyMetric {
    /// Short name used in reports (e.g. `"perf/W"`).
    fn name(&self) -> &'static str;

    /// Evaluates the metric on one measurement.
    fn evaluate(&self, m: &Measurement) -> f64;
}

/// The paper's default metric: performance-to-power ratio (Eq. 2).
///
/// For rate-based performance this indirectly measures operations per joule
/// (Eq. 5): `FLOPS / W = FLOP / J`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerfPerWatt;

impl EfficiencyMetric for PerfPerWatt {
    fn name(&self) -> &'static str {
        "perf/W"
    }

    fn evaluate(&self, m: &Measurement) -> f64 {
        m.energy_efficiency()
    }
}

/// A computed energy-efficiency value together with its inputs, convenient
/// for tabulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyEfficiency {
    /// Benchmark identifier the value belongs to.
    pub benchmark: String,
    /// The efficiency value, in canonical performance units per watt.
    pub value: f64,
    /// The power used in the denominator.
    pub power: Watts,
}

impl EnergyEfficiency {
    /// Computes Eq. 2 for a measurement.
    pub fn of(m: &Measurement) -> Self {
        EnergyEfficiency {
            benchmark: m.id().to_string(),
            value: m.energy_efficiency(),
            power: m.power(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{Perf, Seconds};

    fn m(gflops: f64, watts: f64) -> Measurement {
        Measurement::new("hpl", Perf::gflops(gflops), Watts::new(watts), Seconds::new(10.0))
            .unwrap()
    }

    #[test]
    fn perf_per_watt_is_eq2() {
        let meas = m(90.0, 2000.0);
        assert_eq!(PerfPerWatt.evaluate(&meas), meas.energy_efficiency());
        assert_eq!(PerfPerWatt.name(), "perf/W");
    }

    #[test]
    fn mflops_per_watt_matches_green500_convention() {
        // 90 GFLOPS at 2000 W is 45 MFLOPS/W.
        let ee = EnergyEfficiency::of(&m(90.0, 2000.0));
        assert!((ee.value / 1e6 - 45.0).abs() < 1e-9);
        assert_eq!(ee.benchmark, "hpl");
        assert_eq!(ee.power.value(), 2000.0);
    }

    #[test]
    fn flops_per_watt_equals_flop_per_joule() {
        // Eq. 5: FLOPS/W == FLOP/J. Verify numerically.
        let meas = m(10.0, 500.0);
        let flops_per_watt = meas.energy_efficiency();
        let total_flop = meas.performance().value() * meas.time().value();
        let flop_per_joule = total_flop / meas.energy().value();
        assert!((flops_per_watt - flop_per_joule).abs() < 1e-6 * flops_per_watt);
    }

    #[test]
    fn metric_trait_is_object_safe() {
        let metric: &dyn EfficiencyMetric = &PerfPerWatt;
        assert!(metric.evaluate(&m(1.0, 1.0)) > 0.0);
    }
}
