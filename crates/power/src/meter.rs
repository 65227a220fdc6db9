//! Power meters — the instrument between the outlet and the system.
//!
//! Figure 1 of the paper shows a *Watts Up? PRO ES* wall-plug meter wired in
//! series with the machine. [`WattsUpPro`] simulates that instrument's
//! documented behaviour:
//!
//! * fixed 1 Hz internal sampling;
//! * 0.1 W display resolution (readings are quantized);
//! * ±1.5% gain accuracy (a per-device calibration error, constant for one
//!   device, drawn deterministically from the device's serial/seed).
//!
//! [`PowerMeter`] is the abstraction a physical meter driver would also
//! implement, so downstream code is agnostic to simulation vs hardware.

use crate::trace::PowerTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tgi_core::Watts;

/// Static characteristics of a power meter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeterSpec {
    /// Sampling interval, seconds.
    pub sample_interval_s: f64,
    /// Display/logging resolution, watts.
    pub resolution_w: f64,
    /// Maximum gain (multiplicative) error, as a fraction (0.015 = ±1.5%).
    pub max_gain_error: f64,
    /// Measurable ceiling, watts.
    pub max_watts: f64,
}

impl MeterSpec {
    /// The Watts Up? PRO ES datasheet values.
    pub fn watts_up_pro_es() -> Self {
        MeterSpec {
            sample_interval_s: 1.0,
            resolution_w: 0.1,
            max_gain_error: 0.015,
            max_watts: 1800.0, // 15 A × 120 V circuit
        }
    }

    /// An idealized meter (instant, exact) for ablation benchmarks.
    pub fn ideal() -> Self {
        MeterSpec {
            sample_interval_s: 0.1,
            resolution_w: 0.0,
            max_gain_error: 0.0,
            max_watts: f64::INFINITY,
        }
    }
}

/// A power meter that can record a trace of a time-varying power draw.
pub trait PowerMeter {
    /// The meter's characteristics.
    fn spec(&self) -> &MeterSpec;

    /// Records `ground_truth(t)` for `duration_s` seconds at the meter's
    /// native rate, returning the (instrument-distorted) trace.
    fn record(&mut self, ground_truth: &dyn Fn(f64) -> Watts, duration_s: f64) -> PowerTrace;
}

/// The number of samples a `record` loop over `0..=steps` pushes, so its
/// trace is allocated once at full length; saturates rather than wrapping.
fn samples(steps: u64) -> usize {
    usize::try_from(steps).unwrap_or(usize::MAX).saturating_add(1)
}

/// Simulated Watts Up? PRO ES.
#[derive(Debug, Clone)]
pub struct WattsUpPro {
    spec: MeterSpec,
    /// Per-device gain calibration factor in `[1−ε, 1+ε]`.
    gain: f64,
    /// Sample-noise generator state (small jitter around the reading).
    rng: StdRng,
}

impl WattsUpPro {
    /// Creates a device; `serial` seeds its calibration error so distinct
    /// devices disagree slightly, like real instruments.
    pub fn new(serial: u64) -> Self {
        let spec = MeterSpec::watts_up_pro_es();
        let mut rng = StdRng::seed_from_u64(serial);
        let gain = 1.0 + spec.max_gain_error * (rng.gen::<f64>() * 2.0 - 1.0);
        WattsUpPro { spec, gain, rng }
    }

    /// A device with perfect calibration (gain exactly 1) — useful where a
    /// test needs the quantization effect alone.
    pub fn calibrated(serial: u64) -> Self {
        let mut m = WattsUpPro::new(serial);
        m.gain = 1.0;
        m
    }

    /// A PDU-class variant: same electronics, but wired at the rack power
    /// strip (the paper metered a whole cluster, which exceeds one 15 A
    /// outlet), so the ceiling is raised to a 3-phase PDU's ~60 kW — above
    /// anything SystemG's 128 metered nodes can draw.
    pub fn pdu(serial: u64) -> Self {
        let mut m = WattsUpPro::new(serial);
        m.spec.max_watts = 60_000.0;
        m
    }

    /// Raises the measurable ceiling to at least `watts` (substation-class
    /// metering for fleet-scale clusters). The resolution and noise model
    /// are unchanged, so readings that never hit the old ceiling are
    /// bit-identical. Lower ceilings are ignored.
    pub fn with_ceiling(mut self, watts: f64) -> Self {
        assert!(watts.is_finite() && watts > 0.0, "meter ceiling must be positive");
        if watts > self.spec.max_watts {
            self.spec.max_watts = watts;
        }
        self
    }

    /// The device's fixed gain factor.
    pub fn gain(&self) -> f64 {
        self.gain
    }

    fn quantize(&self, w: f64) -> f64 {
        if self.spec.resolution_w > 0.0 {
            (w / self.spec.resolution_w).round() * self.spec.resolution_w
        } else {
            w
        }
    }
}

impl PowerMeter for WattsUpPro {
    fn spec(&self) -> &MeterSpec {
        &self.spec
    }

    fn record(&mut self, ground_truth: &dyn Fn(f64) -> Watts, duration_s: f64) -> PowerTrace {
        assert!(duration_s >= 0.0 && duration_s.is_finite(), "duration must be non-negative");
        let dt = self.spec.sample_interval_s;
        let steps = (duration_s / dt).floor() as u64;
        let mut trace = PowerTrace::with_capacity(samples(steps));
        for k in 0..=steps {
            let t = k as f64 * dt;
            let true_w = ground_truth(t).value();
            // Gain error, then ±0.05% sample jitter, then clamp, quantize.
            let jitter = 1.0 + 0.0005 * (self.rng.gen::<f64>() * 2.0 - 1.0);
            let reading = (true_w * self.gain * jitter).clamp(0.0, self.spec.max_watts);
            trace.push(t, Watts::new(self.quantize(reading)));
        }
        trace
    }
}

/// An exact, noise-free meter for ablations.
#[derive(Debug, Clone)]
pub struct IdealMeter {
    spec: MeterSpec,
}

impl IdealMeter {
    /// Creates an ideal meter sampling at `interval_s`.
    pub fn new(interval_s: f64) -> Self {
        assert!(interval_s > 0.0, "sampling interval must be positive");
        let mut spec = MeterSpec::ideal();
        spec.sample_interval_s = interval_s;
        IdealMeter { spec }
    }
}

impl PowerMeter for IdealMeter {
    fn spec(&self) -> &MeterSpec {
        &self.spec
    }

    fn record(&mut self, ground_truth: &dyn Fn(f64) -> Watts, duration_s: f64) -> PowerTrace {
        let dt = self.spec.sample_interval_s;
        let steps = (duration_s / dt).floor() as u64;
        let mut trace = PowerTrace::with_capacity(samples(steps));
        for k in 0..=steps {
            let t = k as f64 * dt;
            trace.push(t, ground_truth(t));
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_count_saturates_instead_of_wrapping() {
        assert_eq!(samples(0), 1);
        assert_eq!(samples(135), 136);
        assert_eq!(samples(u64::MAX), usize::MAX);
    }

    #[test]
    fn spec_matches_datasheet() {
        let s = MeterSpec::watts_up_pro_es();
        assert_eq!(s.sample_interval_s, 1.0);
        assert_eq!(s.resolution_w, 0.1);
        assert_eq!(s.max_gain_error, 0.015);
    }

    #[test]
    fn constant_load_measured_within_accuracy() {
        let mut meter = WattsUpPro::new(7);
        let trace = meter.record(&|_| Watts::new(400.0), 60.0);
        assert_eq!(trace.len(), 61); // samples at t=0..=60
        let avg = trace.average_power().value();
        // Within gain error + jitter + quantization.
        assert!((avg - 400.0).abs() <= 400.0 * 0.017, "avg {avg}");
    }

    #[test]
    fn readings_are_quantized() {
        let mut meter = WattsUpPro::calibrated(1);
        let trace = meter.record(&|_| Watts::new(123.456), 5.0);
        for s in trace.samples() {
            let scaled = s.watts / 0.1;
            assert!((scaled - scaled.round()).abs() < 1e-9, "unquantized {}", s.watts);
        }
    }

    #[test]
    fn gain_is_device_specific_and_bounded() {
        let gains: Vec<f64> = (0..20).map(|s| WattsUpPro::new(s).gain()).collect();
        for &g in &gains {
            assert!((0.985..=1.015).contains(&g));
        }
        // Not all devices identical.
        let unique: std::collections::BTreeSet<u64> = gains.iter().map(|g| g.to_bits()).collect();
        assert!(unique.len() > 1);
    }

    #[test]
    fn same_serial_same_gain() {
        assert_eq!(WattsUpPro::new(42).gain(), WattsUpPro::new(42).gain());
    }

    #[test]
    fn readings_clamped_to_circuit_limit() {
        let mut meter = WattsUpPro::new(3);
        let trace = meter.record(&|_| Watts::new(5000.0), 3.0);
        for s in trace.samples() {
            assert!(s.watts <= 1800.0);
        }
    }

    #[test]
    fn varying_load_tracked() {
        let mut meter = WattsUpPro::calibrated(5);
        // Step from 100 W to 300 W at t=5.
        let trace = meter.record(&|t| Watts::new(if t < 5.0 { 100.0 } else { 300.0 }), 10.0);
        let early = trace.samples()[2].watts;
        let late = trace.samples()[8].watts;
        assert!((early - 100.0).abs() < 2.0);
        assert!((late - 300.0).abs() < 2.0);
    }

    #[test]
    fn ideal_meter_is_exact() {
        let mut meter = IdealMeter::new(0.5);
        let trace = meter.record(&|t| Watts::new(100.0 + t), 4.0);
        assert_eq!(trace.len(), 9);
        for s in trace.samples() {
            assert_eq!(s.watts, 100.0 + s.t);
        }
    }

    #[test]
    fn one_hz_meter_misses_subsecond_spikes() {
        // A 0.2 s 1000 W spike between samples is invisible at 1 Hz — this
        // is the sampling-rate limitation the ablation bench quantifies.
        let mut meter = WattsUpPro::calibrated(9);
        let spike = |t: f64| Watts::new(if (t - 0.5).abs() < 0.1 { 1000.0 } else { 100.0 });
        let trace = meter.record(&spike, 10.0);
        assert!(trace.peak_power().value() < 200.0);
        let mut ideal = IdealMeter::new(0.05);
        let fine = ideal.record(&spike, 10.0);
        assert!(fine.peak_power().value() >= 1000.0);
    }

    #[test]
    fn zero_duration_gives_single_sample() {
        let mut meter = WattsUpPro::new(1);
        let trace = meter.record(&|_| Watts::new(50.0), 0.0);
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn meter_trait_is_object_safe() {
        let mut meters: Vec<Box<dyn PowerMeter>> =
            vec![Box::new(WattsUpPro::new(1)), Box::new(IdealMeter::new(1.0))];
        for m in meters.iter_mut() {
            let t = m.record(&|_| Watts::new(10.0), 2.0);
            assert!(!t.is_empty());
        }
    }
}
