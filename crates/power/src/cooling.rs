//! Cooling and facility overhead — the paper's center-wide extension.
//!
//! §II lists as advantage (2) that "TGI can be extended to incorporate power
//! consumed outside the HPC system, e.g., cooling", and §VI names a
//! center-wide view including cooling infrastructure as future work. The
//! standard facility metric is PUE (Power Usage Effectiveness):
//! `facility power = IT power × PUE`. A temperature-dependent PUE curve is
//! provided because chiller efficiency degrades with outside temperature.

use serde::{Deserialize, Serialize};
use tgi_core::Watts;

/// A facility cooling/overhead model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoolingModel {
    /// Baseline PUE at the design-point temperature (≥ 1).
    pub base_pue: f64,
    /// PUE increase per °C above the design point.
    pub pue_per_degree: f64,
    /// Design-point outside temperature, °C.
    pub design_temp_c: f64,
}

impl CoolingModel {
    /// A fixed-PUE model (no temperature sensitivity).
    ///
    /// # Panics
    /// Panics when `pue < 1`.
    pub fn fixed(pue: f64) -> Self {
        assert!(pue >= 1.0, "PUE cannot be below 1");
        CoolingModel { base_pue: pue, pue_per_degree: 0.0, design_temp_c: 20.0 }
    }

    /// A typical 2012-era machine-room model: PUE 1.8 at 20 °C, +0.02/°C.
    pub fn typical_2012() -> Self {
        CoolingModel { base_pue: 1.8, pue_per_degree: 0.02, design_temp_c: 20.0 }
    }

    /// A modern free-cooling facility: PUE 1.1 at 15 °C, +0.01/°C.
    pub fn free_cooled() -> Self {
        CoolingModel { base_pue: 1.1, pue_per_degree: 0.01, design_temp_c: 15.0 }
    }

    /// PUE at a given outside temperature (never below 1).
    pub fn pue_at(&self, temp_c: f64) -> f64 {
        (self.base_pue + self.pue_per_degree * (temp_c - self.design_temp_c)).max(1.0)
    }

    /// Facility power for a given IT power at the design temperature.
    pub fn facility_power(&self, it_power: Watts) -> Watts {
        it_power * self.pue_at(self.design_temp_c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fixed_pue_scales_it_power() {
        let c = CoolingModel::fixed(1.5);
        assert!((c.facility_power(Watts::new(1000.0)).value() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn temperature_raises_pue() {
        let c = CoolingModel::typical_2012();
        assert!((c.pue_at(20.0) - 1.8).abs() < 1e-12);
        assert!((c.pue_at(30.0) - 2.0).abs() < 1e-12);
        assert!(c.pue_at(35.0) > c.pue_at(25.0));
    }

    #[test]
    fn pue_floor_is_one() {
        let c = CoolingModel::free_cooled();
        assert_eq!(c.pue_at(-200.0), 1.0);
    }

    #[test]
    fn free_cooling_beats_legacy_room() {
        let legacy = CoolingModel::typical_2012();
        let modern = CoolingModel::free_cooled();
        let it = Watts::new(10_000.0);
        assert!(modern.facility_power(it).value() < legacy.facility_power(it).value());
    }

    #[test]
    #[should_panic(expected = "below 1")]
    fn sub_unity_pue_panics() {
        CoolingModel::fixed(0.9);
    }

    proptest! {
        /// Facility power is never less than IT power, at any temperature.
        #[test]
        fn prop_facility_at_least_it(it in 1.0..1e6f64, temp in -40.0..50.0f64) {
            let c = CoolingModel::typical_2012();
            let f = (Watts::new(it) * c.pue_at(temp)).value();
            prop_assert!(f >= it - 1e-9);
        }
    }
}
