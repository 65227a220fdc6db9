//! Physical-quantity newtypes used throughout the TGI pipeline.
//!
//! The paper combines benchmarks that report performance in different units
//! (HPL in GFLOPS, STREAM and IOzone in MB/s). TGI never compares raw
//! performance across benchmarks — only *ratios* of like units (Eq. 3) — so
//! [`Perf`] keeps its unit alongside the value and refuses to form a ratio
//! across incompatible units.

use crate::error::TgiError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

fn check_finite(quantity: &'static str, value: f64) -> Result<f64, TgiError> {
    if !value.is_finite() {
        return Err(TgiError::NotFinite { quantity });
    }
    Ok(value)
}

fn check_positive(quantity: &'static str, value: f64) -> Result<f64, TgiError> {
    check_finite(quantity, value)?;
    if value <= 0.0 {
        return Err(TgiError::NonPositiveQuantity { quantity, value });
    }
    Ok(value)
}

/// Average electrical power, in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Watts(f64);

impl Watts {
    /// Wraps a wattage. Panics in debug builds on non-finite input; prefer
    /// [`Watts::try_new`] at trust boundaries.
    pub fn new(watts: f64) -> Self {
        debug_assert!(watts.is_finite(), "power must be finite");
        Watts(watts)
    }

    /// Validated constructor: requires a strictly positive, finite value.
    pub fn try_new(watts: f64) -> Result<Self, TgiError> {
        Ok(Watts(check_positive("power", watts)?))
    }

    /// The raw value in watts.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Converts to kilowatts.
    pub fn kilowatts(self) -> f64 {
        self.0 / 1e3
    }

    /// Energy accumulated over `duration` at this constant power.
    pub fn over(self, duration: Seconds) -> Joules {
        Joules(self.0 * duration.0)
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl Sub for Watts {
    type Output = Watts;
    fn sub(self, rhs: Watts) -> Watts {
        Watts(self.0 - rhs.0)
    }
}

impl Mul<f64> for Watts {
    type Output = Watts;
    fn mul(self, rhs: f64) -> Watts {
        Watts(self.0 * rhs)
    }
}

impl std::iter::Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        Watts(iter.map(|w| w.0).sum())
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e3 {
            write!(f, "{:.2} kW", self.0 / 1e3)
        } else {
            write!(f, "{:.1} W", self.0)
        }
    }
}

/// Energy, in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Joules(f64);

impl Joules {
    /// Wraps an energy value.
    pub fn new(joules: f64) -> Self {
        debug_assert!(joules.is_finite(), "energy must be finite");
        Joules(joules)
    }

    /// Validated constructor: requires a strictly positive, finite value.
    pub fn try_new(joules: f64) -> Result<Self, TgiError> {
        Ok(Joules(check_positive("energy", joules)?))
    }

    /// The raw value in joules.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Average power if this energy was spent over `duration`.
    pub fn average_power(self, duration: Seconds) -> Watts {
        Watts(self.0 / duration.0)
    }
}

impl Add for Joules {
    type Output = Joules;
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl std::iter::Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        Joules(iter.map(|j| j.0).sum())
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e6 {
            write!(f, "{:.3} MJ", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.3} kJ", self.0 / 1e3)
        } else {
            write!(f, "{:.1} J", self.0)
        }
    }
}

/// Wall-clock duration, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Seconds(f64);

impl Seconds {
    /// Wraps a duration.
    pub fn new(seconds: f64) -> Self {
        debug_assert!(seconds.is_finite(), "time must be finite");
        Seconds(seconds)
    }

    /// Validated constructor: requires a strictly positive, finite value.
    pub fn try_new(seconds: f64) -> Result<Self, TgiError> {
        Ok(Seconds(check_positive("time", seconds)?))
    }

    /// The raw value in seconds.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl std::iter::Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        Seconds(iter.map(|s| s.0).sum())
    }
}

impl From<std::time::Duration> for Seconds {
    fn from(d: std::time::Duration) -> Self {
        Seconds(d.as_secs_f64())
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} s", self.0)
    }
}

/// The unit a benchmark reports its performance in.
///
/// TGI only ever divides performance values of the *same* unit (system under
/// test vs reference), so no cross-unit conversion table is needed — but the
/// unit must travel with the value so that mismatches are caught.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PerfUnit {
    /// Floating-point operations per second. Stored canonically; displayed
    /// scaled (MFLOPS / GFLOPS / TFLOPS).
    Flops,
    /// Bytes per second (STREAM, IOzone). Displayed scaled (MB/s, GB/s).
    BytesPerSecond,
    /// Giga-updates per second (HPCC RandomAccess).
    Gups,
    /// Any other rate metric, identified by label (e.g. `"iterations/s"`).
    Custom(String),
}

impl PerfUnit {
    /// Human-readable unit label for the *canonical* magnitude.
    pub fn label(&self) -> &str {
        match self {
            PerfUnit::Flops => "FLOPS",
            PerfUnit::BytesPerSecond => "B/s",
            PerfUnit::Gups => "GUPS",
            PerfUnit::Custom(s) => s,
        }
    }
}

impl fmt::Display for PerfUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A performance observation: a rate value in canonical units plus its unit.
///
/// Canonical magnitudes: FLOPS for [`PerfUnit::Flops`], bytes/s for
/// [`PerfUnit::BytesPerSecond`], GUPS for [`PerfUnit::Gups`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Perf {
    value: f64,
    unit: PerfUnit,
}

impl Perf {
    /// Constructs a performance value in canonical units.
    pub fn new(value: f64, unit: PerfUnit) -> Result<Self, TgiError> {
        check_positive("performance", value)?;
        Ok(Perf { value, unit })
    }

    /// Mega-FLOPS convenience constructor.
    pub fn mflops(v: f64) -> Self {
        Perf { value: v * 1e6, unit: PerfUnit::Flops }
    }

    /// Giga-FLOPS convenience constructor.
    pub fn gflops(v: f64) -> Self {
        Perf { value: v * 1e9, unit: PerfUnit::Flops }
    }

    /// Tera-FLOPS convenience constructor.
    pub fn tflops(v: f64) -> Self {
        Perf { value: v * 1e12, unit: PerfUnit::Flops }
    }

    /// Megabytes-per-second convenience constructor (decimal MB).
    pub fn mbps(v: f64) -> Self {
        Perf { value: v * 1e6, unit: PerfUnit::BytesPerSecond }
    }

    /// Gigabytes-per-second convenience constructor (decimal GB).
    pub fn gbps(v: f64) -> Self {
        Perf { value: v * 1e9, unit: PerfUnit::BytesPerSecond }
    }

    /// Giga-updates-per-second convenience constructor.
    pub fn gups(v: f64) -> Self {
        Perf { value: v, unit: PerfUnit::Gups }
    }

    /// The canonical-magnitude value (FLOPS, B/s, or GUPS).
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The unit this performance value is expressed in.
    pub fn unit(&self) -> &PerfUnit {
        &self.unit
    }

    /// Value expressed in GFLOPS (only meaningful for FLOPS units).
    pub fn as_gflops(&self) -> f64 {
        self.value / 1e9
    }

    /// Value expressed in MB/s (only meaningful for byte-rate units).
    pub fn as_mbps(&self) -> f64 {
        self.value / 1e6
    }

    /// Ratio of two like-unit performance values (used by REE, Eq. 3).
    pub fn ratio(&self, reference: &Perf) -> Result<f64, TgiError> {
        if self.unit != reference.unit {
            return Err(TgiError::UnitMismatch {
                left: self.unit.label().to_string(),
                right: reference.unit.label().to_string(),
            });
        }
        Ok(self.value / reference.value)
    }
}

impl Div<Watts> for &Perf {
    type Output = f64;
    /// Performance-to-power ratio in canonical units per watt (Eq. 2).
    fn div(self, power: Watts) -> f64 {
        self.value / power.value()
    }
}

impl fmt::Display for Perf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.unit {
            PerfUnit::Flops => {
                if self.value >= 1e12 {
                    write!(f, "{:.3} TFLOPS", self.value / 1e12)
                } else if self.value >= 1e9 {
                    write!(f, "{:.3} GFLOPS", self.value / 1e9)
                } else {
                    write!(f, "{:.3} MFLOPS", self.value / 1e6)
                }
            }
            PerfUnit::BytesPerSecond => {
                if self.value >= 1e9 {
                    write!(f, "{:.3} GB/s", self.value / 1e9)
                } else {
                    write!(f, "{:.3} MB/s", self.value / 1e6)
                }
            }
            PerfUnit::Gups => write!(f, "{:.4} GUPS", self.value),
            PerfUnit::Custom(ref u) => write!(f, "{:.4} {u}", self.value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watts_arithmetic_and_energy() {
        let p = Watts::new(250.0) + Watts::new(50.0);
        assert_eq!(p.value(), 300.0);
        let e = p.over(Seconds::new(10.0));
        assert_eq!(e.value(), 3000.0);
        assert!((e.average_power(Seconds::new(10.0)).value() - 300.0).abs() < 1e-12);
    }

    #[test]
    fn watts_rejects_non_positive() {
        assert!(Watts::try_new(0.0).is_err());
        assert!(Watts::try_new(-5.0).is_err());
        assert!(Watts::try_new(f64::NAN).is_err());
        assert!(Watts::try_new(f64::INFINITY).is_err());
        assert!(Watts::try_new(400.0).is_ok());
    }

    #[test]
    fn seconds_from_duration() {
        let s: Seconds = std::time::Duration::from_millis(1500).into();
        assert!((s.value() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn perf_constructors_are_canonical() {
        assert_eq!(Perf::gflops(2.0).value(), 2e9);
        assert_eq!(Perf::tflops(1.5).value(), 1.5e12);
        assert_eq!(Perf::mflops(10.0).value(), 1e7);
        assert_eq!(Perf::mbps(3.0).value(), 3e6);
        assert_eq!(Perf::gbps(1.0).value(), 1e9);
        assert_eq!(Perf::gups(0.02).value(), 0.02);
    }

    #[test]
    fn perf_ratio_same_unit() {
        let a = Perf::gflops(90.0);
        let b = Perf::tflops(8.1);
        let r = a.ratio(&b).unwrap();
        assert!((r - 90.0 / 8100.0).abs() < 1e-12);
    }

    #[test]
    fn perf_ratio_rejects_unit_mismatch() {
        let a = Perf::gflops(90.0);
        let b = Perf::mbps(100.0);
        assert!(matches!(a.ratio(&b), Err(TgiError::UnitMismatch { .. })));
    }

    #[test]
    fn perf_per_watt_division() {
        let p = Perf::mflops(1000.0);
        let ee = &p / Watts::new(500.0);
        assert!((ee - 2e6).abs() < 1e-6); // 2 MFLOPS/W in canonical FLOPS/W
    }

    #[test]
    fn perf_rejects_invalid() {
        assert!(Perf::new(0.0, PerfUnit::Flops).is_err());
        assert!(Perf::new(-1.0, PerfUnit::Gups).is_err());
        assert!(Perf::new(f64::NAN, PerfUnit::Flops).is_err());
    }

    #[test]
    fn display_scales_sensibly() {
        assert_eq!(Perf::tflops(8.1).to_string(), "8.100 TFLOPS");
        assert_eq!(Perf::gflops(90.0).to_string(), "90.000 GFLOPS");
        assert_eq!(Perf::mflops(42.0).to_string(), "42.000 MFLOPS");
        assert_eq!(Perf::mbps(95.5).to_string(), "95.500 MB/s");
        assert_eq!(Watts::new(2500.0).to_string(), "2.50 kW");
        assert_eq!(Watts::new(350.0).to_string(), "350.0 W");
        assert_eq!(Joules::new(2.0e6).to_string(), "2.000 MJ");
    }

    #[test]
    fn custom_unit_round_trip() {
        let p = Perf::new(7.5, PerfUnit::Custom("iter/s".into())).unwrap();
        assert_eq!(p.unit().label(), "iter/s");
        assert!(p.to_string().contains("iter/s"));
    }

    #[test]
    fn serde_round_trip() {
        let p = Perf::gflops(90.0);
        let json = serde_json::to_string(&p).unwrap();
        let back: Perf = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
