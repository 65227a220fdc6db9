//! Time-stamped power traces: indexed struct-of-arrays storage with
//! O(1)/O(log n) energy queries.
//!
//! A real Watts Up? logger produces a sequence of `(time, watts)` samples;
//! energy is the integral of power over time, integrated with the
//! trapezoidal rule (exact for the piecewise-linear interpolation of the
//! samples). Deployments ingest long high-rate telemetry streams and query
//! them constantly, so [`PowerTrace`] is an *analytics structure*, not a
//! plain vector:
//!
//! * samples are stored as parallel `times`/`watts` arrays
//!   (struct-of-arrays), so scans touch only the column they need;
//! * a prefix index is maintained incrementally on every append:
//!   `cum_energy[i]` is the trapezoidal energy of samples `0..=i` and
//!   `cum_watts[i]` is the running sum of the first `i + 1` power values,
//!   alongside running peak/min watts;
//! * [`PowerTrace::energy`], [`PowerTrace::average_power`],
//!   [`PowerTrace::peak_power`] and [`PowerTrace::min_power`] are O(1);
//!   [`PowerTrace::energy_between`], [`PowerTrace::power_at`] and
//!   [`PowerTrace::window`] are O(log n) binary searches over the index.
//!
//! `cum_energy` is accumulated in sample order with exactly the operations
//! the naive trapezoid loop performs, so `energy()` is bit-identical to a
//! from-scratch integration of the same samples.
//!
//! [`TraceQuery`] is the read contract shared with the on-disk
//! [`crate::persist::StoreBackedTrace`]: code that only reads a trace takes
//! `&dyn TraceQuery` (or a generic) and gets the same answers, bit for bit,
//! wherever the samples live.

use crate::anomaly::{AnomalyConfig, AnomalyEvent};
use serde::{DeError, Deserialize, Serialize, Value};
use tgi_core::{Joules, Seconds, Watts};
use tgi_trace_store::{check_sample, clamp_window, StoreError};

/// The trace reads every consumer needs, answered by the in-memory
/// [`PowerTrace`] and the store-backed
/// [`StoreBackedTrace`](crate::persist::StoreBackedTrace) alike.
///
/// Every read is fallible because a stored trace may touch disk; the
/// in-memory implementation always returns `Ok`. Window bounds clamp to
/// the trace span, and NaN bounds panic, as on [`PowerTrace`].
pub trait TraceQuery {
    /// Number of samples.
    fn len(&self) -> Result<usize, StoreError>;

    /// First and last sample timestamps, when the trace is non-empty.
    fn time_bounds(&self) -> Result<Option<(f64, f64)>, StoreError>;

    /// Total trapezoidal energy.
    fn energy(&self) -> Result<Joules, StoreError>;

    /// Trapezoidal energy over `[t0, t1]`, clamped to the trace span.
    fn energy_between(&self, t0: f64, t1: f64) -> Result<Joules, StoreError>;

    /// Time-weighted average power over `[t0, t1]`, clamped to the span.
    fn average_power_between(&self, t0: f64, t1: f64) -> Result<Watts, StoreError>;

    /// Both [`TraceQuery::energy_between`] and
    /// [`TraceQuery::average_power_between`], bit-identical to each, from
    /// one boundary lookup per window end.
    fn energy_and_average_between(&self, t0: f64, t1: f64) -> Result<(Joules, Watts), StoreError>;

    /// The in-memory sub-trace covering `[t0, t1]` (clamped), with
    /// linearly interpolated boundary samples.
    fn window(&self, t0: f64, t1: f64) -> Result<PowerTrace, StoreError>;

    /// True when the trace holds no samples.
    fn is_empty(&self) -> Result<bool, StoreError> {
        Ok(self.len()? == 0)
    }

    /// Time between the first and last sample (0 when empty).
    fn duration(&self) -> Result<Seconds, StoreError> {
        Ok(Seconds::new(self.time_bounds()?.map_or(0.0, |(a, b)| b - a)))
    }

    /// Time-weighted average power (energy / duration) over the whole
    /// trace. A trace spanning zero time (one sample, or every sample at
    /// one timestamp) reports the plain mean of its samples; an empty
    /// trace reports 0.
    fn average_power(&self) -> Result<Watts, StoreError> {
        let Some((first, last)) = self.time_bounds()? else {
            return Ok(Watts::new(0.0));
        };
        if last > first {
            return Ok(Watts::new(self.energy()?.value() / (last - first)));
        }
        // Every sample sits at `first`, so this window is the whole trace.
        let samples = self.window(first, last)?;
        let total = samples.prefix_watts().last().copied().unwrap_or(0.0);
        Ok(Watts::new(total / samples.len() as f64))
    }

    /// Scans `[from, to]` (the whole trace when a bound is `None`) with a
    /// fresh [`crate::anomaly::AnomalyDetector`], returning events in time
    /// order — the post-hoc query behind the server's
    /// `/traces/{node}/anomalies`.
    fn scan_anomalies(
        &self,
        config: AnomalyConfig,
        from: Option<f64>,
        to: Option<f64>,
    ) -> Result<Vec<AnomalyEvent>, StoreError> {
        let Some((first, last)) = self.time_bounds()? else {
            return Ok(Vec::new());
        };
        let window = self.window(from.unwrap_or(first), to.unwrap_or(last))?;
        Ok(crate::anomaly::scan(&window, config))
    }
}

/// Unwraps a [`TraceQuery`] answer from an in-memory trace, which never
/// fails.
fn in_memory<T>(answer: Result<T, StoreError>) -> T {
    answer.expect("in-memory trace queries cannot fail")
}

/// One power sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerSample {
    /// Seconds from trace start.
    pub t: f64,
    /// Instantaneous wall power.
    pub watts: f64,
}

/// A sequence of power samples with monotonically non-decreasing timestamps,
/// stored as struct-of-arrays with an incrementally maintained prefix index.
#[derive(Debug, Clone)]
pub struct PowerTrace {
    times: Vec<f64>,
    watts: Vec<f64>,
    /// `cum_energy[i]` = trapezoidal energy over samples `0..=i` (so
    /// `cum_energy[0] == 0` and `cum_energy.last()` is the total energy).
    cum_energy: Vec<f64>,
    /// `cum_watts[i]` = `watts[0] + … + watts[i]`, accumulated in order.
    cum_watts: Vec<f64>,
    /// Running maximum power (0 until the first sample, matching the old
    /// `fold(0.0, f64::max)` semantics for non-negative watts).
    peak_w: f64,
    /// Running minimum power (+∞ until the first sample).
    min_w: f64,
}

impl Default for PowerTrace {
    fn default() -> Self {
        PowerTrace::new()
    }
}

impl PartialEq for PowerTrace {
    fn eq(&self, other: &Self) -> bool {
        // The index and running extrema are functions of the samples.
        self.times == other.times && self.watts == other.watts
    }
}

impl PowerTrace {
    /// An empty trace.
    pub fn new() -> Self {
        PowerTrace::with_capacity(0)
    }

    /// An empty trace with room for `n` samples (telemetry ingest paths
    /// know their cadence and duration up front).
    pub fn with_capacity(n: usize) -> Self {
        PowerTrace {
            times: Vec::with_capacity(n),
            watts: Vec::with_capacity(n),
            cum_energy: Vec::with_capacity(n),
            cum_watts: Vec::with_capacity(n),
            peak_w: 0.0,
            min_w: f64::INFINITY,
        }
    }

    /// Appends a sample and extends the prefix index — O(1) amortized.
    ///
    /// # Panics
    /// Panics if `t` precedes the previous sample or any value is not
    /// finite/non-negative.
    pub fn push(&mut self, t: f64, watts: Watts) {
        let last = self.times.last().copied().unwrap_or(f64::NEG_INFINITY);
        if let Err(broken) = check_sample(t, watts.value(), last) {
            panic!("{broken}");
        }
        self.append(t, watts.value());
    }

    /// Appends a pre-validated sample (ingest paths that have already
    /// checked the invariants line-by-line, e.g. the meter-log parser).
    pub(crate) fn push_unvalidated(&mut self, t: f64, w: f64) {
        self.append(t, w);
    }

    /// Appends a sample and maintains the index. No validation.
    fn append(&mut self, t: f64, w: f64) {
        let (ce, cw) = match self.times.last() {
            Some(&lt) => {
                let dt = t - lt;
                let prev_w = *self.watts.last().expect("columns stay in lockstep");
                (
                    self.cum_energy.last().unwrap() + 0.5 * (prev_w + w) * dt,
                    self.cum_watts.last().unwrap() + w,
                )
            }
            None => (0.0, w),
        };
        self.times.push(t);
        self.watts.push(w);
        self.cum_energy.push(ce);
        self.cum_watts.push(cw);
        self.peak_w = self.peak_w.max(w);
        self.min_w = self.min_w.min(w);
    }

    /// Batch-ingests parallel `times`/`watts` columns: one tight validation
    /// pass over the input, then a straight append (no per-sample `push`
    /// re-validation against the growing trace).
    ///
    /// # Panics
    /// Panics under the same invariants as [`PowerTrace::push`], or if the
    /// slices have different lengths.
    pub fn extend_from_slices(&mut self, times: &[f64], watts: &[f64]) {
        assert_eq!(times.len(), watts.len(), "times and watts must have equal lengths");
        let mut last = self.times.last().copied().unwrap_or(f64::NEG_INFINITY);
        for (&t, &w) in times.iter().zip(watts) {
            if let Err(broken) = check_sample(t, w, last) {
                panic!("{broken}");
            }
            last = t;
        }
        self.reserve(times.len());
        for (&t, &w) in times.iter().zip(watts) {
            self.append(t, w);
        }
    }

    /// Reserves room for `n` more samples across all columns.
    pub fn reserve(&mut self, n: usize) {
        self.times.reserve(n);
        self.watts.reserve(n);
        self.cum_energy.reserve(n);
        self.cum_watts.reserve(n);
    }

    /// The sample timestamps, in seconds from trace start.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The sampled power values, in watts.
    pub fn watts(&self) -> &[f64] {
        &self.watts
    }

    /// The prefix-energy index: `prefix_energy()[i]` is the trapezoidal
    /// energy of samples `0..=i`. Exposed for analysis code and tests that
    /// verify the index invariant.
    pub fn prefix_energy(&self) -> &[f64] {
        &self.cum_energy
    }

    /// The inclusive prefix sums of the power column (crate-internal: the
    /// analysis module differences these for O(1) window means).
    pub(crate) fn prefix_watts(&self) -> &[f64] {
        &self.cum_watts
    }

    /// The `i`-th sample.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn sample(&self, i: usize) -> PowerSample {
        PowerSample { t: self.times[i], watts: self.watts[i] }
    }

    /// Iterates the samples in order without materializing them.
    pub fn iter(&self) -> impl Iterator<Item = PowerSample> + '_ {
        self.times.iter().zip(&self.watts).map(|(&t, &w)| PowerSample { t, watts: w })
    }

    /// Materializes the samples as an array-of-structs `Vec` (compatibility
    /// accessor; allocates — hot paths should use [`PowerTrace::times`] /
    /// [`PowerTrace::watts`] or [`PowerTrace::iter`]).
    pub fn samples(&self) -> Vec<PowerSample> {
        self.iter().collect()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// First and last sample timestamps, when the trace is non-empty.
    pub fn time_bounds(&self) -> Option<(f64, f64)> {
        match (self.times.first(), self.times.last()) {
            (Some(&a), Some(&b)) => Some((a, b)),
            _ => None,
        }
    }

    /// Trace duration: time between the first and last sample. O(1).
    pub fn duration(&self) -> Seconds {
        in_memory(TraceQuery::duration(self))
    }

    /// Total energy by trapezoidal integration — O(1) from the prefix
    /// index, bit-identical to integrating the samples from scratch.
    pub fn energy(&self) -> Joules {
        Joules::new(self.cum_energy.last().copied().unwrap_or(0.0))
    }

    /// Time-weighted average power (energy / duration) — O(1). Falls back
    /// to the plain sample mean when the trace spans zero time (see
    /// [`TraceQuery::average_power`]).
    pub fn average_power(&self) -> Watts {
        in_memory(TraceQuery::average_power(self))
    }

    /// Peak sampled power — O(1).
    pub fn peak_power(&self) -> Watts {
        Watts::new(if self.is_empty() { 0.0 } else { self.peak_w })
    }

    /// Minimum sampled power (0 for an empty trace) — O(1).
    pub fn min_power(&self) -> Watts {
        Watts::new(if self.is_empty() { 0.0 } else { self.min_w })
    }

    /// Cumulative trapezoidal energy from the trace start to time `t`,
    /// assuming a non-empty trace and `first <= t <= last`.
    fn cum_energy_at(&self, t: f64) -> f64 {
        // Greatest index whose timestamp is <= t; duplicates resolve to the
        // last of the group, so the partial segment below has dt > 0.
        let i = self.times.partition_point(|&x| x <= t) - 1;
        let base = self.cum_energy[i];
        if t <= self.times[i] {
            return base;
        }
        let dt = t - self.times[i];
        let seg = self.times[i + 1] - self.times[i];
        let w_t = self.watts[i] + (self.watts[i + 1] - self.watts[i]) * (dt / seg);
        base + 0.5 * (self.watts[i] + w_t) * dt
    }

    /// Trapezoidal energy and time-weighted average power over `[t0, t1]`
    /// (clamped to the trace span), from one prefix-index lookup per
    /// window end — O(log n). An empty trace or a window entirely outside
    /// it reports `(0, 0)`; a zero-width clamped window reports no energy
    /// and the interpolated instantaneous power at that point.
    ///
    /// # Panics
    /// Panics if either bound is NaN (infinities clamp to the trace span).
    pub fn energy_and_average_between(&self, t0: f64, t1: f64) -> (Joules, Watts) {
        let (energy, average) = match clamp_window(self.time_bounds(), t0, t1) {
            Some((a, b)) if a < b => {
                let energy = self.cum_energy_at(b) - self.cum_energy_at(a);
                (energy, energy / (b - a))
            }
            Some((a, _)) => (0.0, self.power_at(a).map_or(0.0, Watts::value)),
            None => (0.0, 0.0),
        };
        (Joules::new(energy), Watts::new(average))
    }

    /// Trapezoidal energy over `[t0, t1]` (clamped to the trace span) —
    /// the energy half of [`PowerTrace::energy_and_average_between`].
    ///
    /// # Panics
    /// Panics if either bound is NaN (infinities clamp to the trace span).
    pub fn energy_between(&self, t0: f64, t1: f64) -> Joules {
        self.energy_and_average_between(t0, t1).0
    }

    /// Time-weighted average power over `[t0, t1]` (clamped to the trace
    /// span) — the average half of
    /// [`PowerTrace::energy_and_average_between`].
    pub fn average_power_between(&self, t0: f64, t1: f64) -> Watts {
        self.energy_and_average_between(t0, t1).1
    }

    /// Linearly interpolated instantaneous power at time `t` — O(log n).
    /// `None` outside the trace span (or for an empty trace).
    pub fn power_at(&self, t: f64) -> Option<Watts> {
        let (first, last) = self.time_bounds()?;
        if t.is_nan() || t < first || t > last {
            return None;
        }
        let i = self.times.partition_point(|&x| x <= t) - 1;
        if t <= self.times[i] {
            return Some(Watts::new(self.watts[i]));
        }
        let seg = self.times[i + 1] - self.times[i];
        let frac = (t - self.times[i]) / seg;
        Some(Watts::new(self.watts[i] + (self.watts[i + 1] - self.watts[i]) * frac))
    }

    /// The sub-trace covering `[t0, t1]` (clamped to the trace span), with
    /// linearly interpolated boundary samples so that
    /// `window(t0, t1).energy() == energy_between(t0, t1)` — O(log n + k)
    /// for k samples in the window.
    pub fn window(&self, t0: f64, t1: f64) -> PowerTrace {
        let Some((a, b)) = clamp_window(self.time_bounds(), t0, t1) else {
            return PowerTrace::new();
        };
        let lo = self.times.partition_point(|&x| x < a);
        let hi = self.times.partition_point(|&x| x <= b);
        in_memory(PowerTrace::clipped(a, b, &self.times[lo..hi], &self.watts[lo..hi], |t| {
            Ok(self.power_at(t).expect("t is in the span").value())
        }))
    }

    /// The window `[a, b]` (already clamped to the span) over the stored
    /// samples inside it, opening and closing with a sample interpolated
    /// by `power_at` where `a` or `b` falls strictly inside a segment.
    pub(crate) fn clipped(
        a: f64,
        b: f64,
        times: &[f64],
        watts: &[f64],
        power_at: impl Fn(f64) -> Result<f64, StoreError>,
    ) -> Result<PowerTrace, StoreError> {
        let mut out = PowerTrace::with_capacity(times.len() + 2);
        if times.first().is_none_or(|&t| t > a) {
            out.append(a, power_at(a)?);
        }
        for (&t, &w) in times.iter().zip(watts) {
            out.append(t, w);
        }
        if out.time_bounds().is_none_or(|(_, end)| end < b) {
            out.append(b, power_at(b)?);
        }
        Ok(out)
    }

    /// Concatenates another trace, shifting its timestamps to start at this
    /// trace's end.
    ///
    /// # Panics
    /// Panics under the same invariants as [`PowerTrace::push`]: the shifted
    /// samples must keep timestamps non-decreasing and values finite.
    pub fn extend_shifted(&mut self, other: &PowerTrace) {
        let offset = self.times.last().copied().unwrap_or(0.0);
        self.reserve(other.len());
        for s in other.iter() {
            self.push(offset + s.t, Watts::new(s.watts));
        }
    }
}

impl TraceQuery for PowerTrace {
    fn len(&self) -> Result<usize, StoreError> {
        Ok(PowerTrace::len(self))
    }

    fn time_bounds(&self) -> Result<Option<(f64, f64)>, StoreError> {
        Ok(PowerTrace::time_bounds(self))
    }

    fn energy(&self) -> Result<Joules, StoreError> {
        Ok(PowerTrace::energy(self))
    }

    fn energy_between(&self, t0: f64, t1: f64) -> Result<Joules, StoreError> {
        Ok(PowerTrace::energy_between(self, t0, t1))
    }

    fn average_power_between(&self, t0: f64, t1: f64) -> Result<Watts, StoreError> {
        Ok(PowerTrace::average_power_between(self, t0, t1))
    }

    fn energy_and_average_between(&self, t0: f64, t1: f64) -> Result<(Joules, Watts), StoreError> {
        Ok(PowerTrace::energy_and_average_between(self, t0, t1))
    }

    fn window(&self, t0: f64, t1: f64) -> Result<PowerTrace, StoreError> {
        Ok(PowerTrace::window(self, t0, t1))
    }
}

// The archived JSON shape is `{"samples":[{"t":..,"watts":..}]}` — the
// array-of-structs layout the trace used to store directly. Hand-written
// (de)serialization keeps that wire format stable over the SoA layout, so
// existing journals and regression fixtures keep parsing. Deserialization
// enforces the same invariants as `push` — finite non-negative values,
// non-decreasing timestamps — with a descriptive `DeError` naming the first
// offending sample, so a corrupt archive can never poison the prefix index
// that `energy()`/`energy_between()` answer from. Well-formed archives
// rebuild the index with exactly the operations `push` performs, so legacy
// journals parse bit-identically.
impl Serialize for PowerTrace {
    fn to_value(&self) -> Value {
        let samples: Vec<Value> = self.iter().map(|s| s.to_value()).collect();
        Value::Object(vec![("samples".to_string(), Value::Array(samples))])
    }
}

impl Deserialize for PowerTrace {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let samples = v.get("samples").ok_or_else(|| DeError::new("missing field `samples`"))?;
        let arr = samples.as_array().ok_or_else(|| DeError::new("`samples` must be an array"))?;
        let mut trace = PowerTrace::with_capacity(arr.len());
        let mut last_t = f64::NEG_INFINITY;
        for (i, entry) in arr.iter().enumerate() {
            let s = PowerSample::from_value(entry)?;
            check_sample(s.t, s.watts, last_t)
                .map_err(|broken| DeError::new(format!("sample {i}: {broken}")))?;
            last_t = s.t;
            trace.push_unvalidated(s.t, s.watts);
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn trace(points: &[(f64, f64)]) -> PowerTrace {
        let mut t = PowerTrace::new();
        for &(time, w) in points {
            t.push(time, Watts::new(w));
        }
        t
    }

    /// Naive trapezoid over the full trace — the reference the index must
    /// reproduce bit-for-bit.
    fn naive_energy(t: &PowerTrace) -> f64 {
        let mut e = 0.0;
        for i in 1..t.len() {
            let dt = t.times()[i] - t.times()[i - 1];
            e += 0.5 * (t.watts()[i - 1] + t.watts()[i]) * dt;
        }
        e
    }

    #[test]
    fn constant_power_energy() {
        // 100 W for 10 s = 1000 J.
        let t = trace(&[(0.0, 100.0), (5.0, 100.0), (10.0, 100.0)]);
        assert!((t.energy().value() - 1000.0).abs() < 1e-9);
        assert!((t.average_power().value() - 100.0).abs() < 1e-9);
        assert_eq!(t.duration().value(), 10.0);
    }

    #[test]
    fn ramp_energy_is_trapezoid() {
        // Linear ramp 0→100 W over 10 s: energy = 500 J.
        let t = trace(&[(0.0, 0.0), (10.0, 100.0)]);
        assert!((t.energy().value() - 500.0).abs() < 1e-9);
        assert!((t.average_power().value() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn peak_and_min() {
        let t = trace(&[(0.0, 80.0), (1.0, 250.0), (2.0, 120.0)]);
        assert_eq!(t.peak_power().value(), 250.0);
        assert_eq!(t.min_power().value(), 80.0);
    }

    #[test]
    fn empty_trace_defaults() {
        let t = PowerTrace::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.energy().value(), 0.0);
        assert_eq!(t.duration().value(), 0.0);
        assert_eq!(t.average_power().value(), 0.0);
        // Regression: this used to report f64::MAX.
        assert_eq!(t.min_power().value(), 0.0);
        assert_eq!(t.peak_power().value(), 0.0);
        assert_eq!(t.energy_between(0.0, 100.0).value(), 0.0);
        assert!(t.power_at(0.0).is_none());
        assert!(t.window(0.0, 1.0).is_empty());
    }

    #[test]
    fn single_sample_average_is_that_sample() {
        let t = trace(&[(3.0, 42.0)]);
        assert_eq!(t.average_power().value(), 42.0);
        assert_eq!(t.energy().value(), 0.0);
    }

    #[test]
    fn prefix_index_matches_naive_integration() {
        let t = trace(&[(0.0, 80.0), (1.5, 250.0), (2.0, 120.0), (7.0, 90.0), (7.0, 300.0)]);
        assert_eq!(t.energy().value(), naive_energy(&t));
        // Invariant: prefix_energy()[i] is the energy of the first i+1 samples.
        for i in 0..t.len() {
            let head = trace(
                &t.times()[..=i]
                    .iter()
                    .zip(&t.watts()[..=i])
                    .map(|(&a, &b)| (a, b))
                    .collect::<Vec<_>>(),
            );
            assert_eq!(t.prefix_energy()[i], head.energy().value());
        }
    }

    #[test]
    fn energy_between_subintervals() {
        // 100 W flat from 0..10: any window's energy is 100 * width.
        let t = trace(&[(0.0, 100.0), (4.0, 100.0), (10.0, 100.0)]);
        assert!((t.energy_between(0.0, 10.0).value() - 1000.0).abs() < 1e-9);
        assert!((t.energy_between(2.0, 3.0).value() - 100.0).abs() < 1e-9);
        assert!((t.energy_between(3.5, 7.25).value() - 375.0).abs() < 1e-9);
        // Clamping: out-of-range bounds behave like the trace span.
        assert!((t.energy_between(-5.0, 50.0).value() - 1000.0).abs() < 1e-9);
        assert_eq!(t.energy_between(7.0, 3.0).value(), 0.0);
        assert_eq!(t.energy_between(12.0, 15.0).value(), 0.0);
        // Additivity: windows that tile the span sum to the total.
        let parts = t.energy_between(0.0, 3.3).value()
            + t.energy_between(3.3, 8.1).value()
            + t.energy_between(8.1, 10.0).value();
        assert!((parts - t.energy().value()).abs() < 1e-9);
    }

    #[test]
    fn energy_between_interpolates_ramps() {
        // Ramp 0→100 W over 10 s. Energy in [0, 5] = ∫ 10t dt = 125 J.
        let t = trace(&[(0.0, 0.0), (10.0, 100.0)]);
        assert!((t.energy_between(0.0, 5.0).value() - 125.0).abs() < 1e-9);
        assert!((t.energy_between(5.0, 10.0).value() - 375.0).abs() < 1e-9);
        assert!((t.average_power_between(0.0, 5.0).value() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn power_at_interpolates() {
        let t = trace(&[(0.0, 0.0), (10.0, 100.0)]);
        assert_eq!(t.power_at(0.0).unwrap().value(), 0.0);
        assert!((t.power_at(2.5).unwrap().value() - 25.0).abs() < 1e-12);
        assert_eq!(t.power_at(10.0).unwrap().value(), 100.0);
        assert!(t.power_at(-0.1).is_none());
        assert!(t.power_at(10.1).is_none());
    }

    #[test]
    fn window_preserves_energy_and_bounds() {
        let t = trace(&[(0.0, 50.0), (2.0, 150.0), (5.0, 100.0), (9.0, 220.0)]);
        let w = t.window(1.0, 6.5);
        assert_eq!(w.time_bounds(), Some((1.0, 6.5)));
        assert!((w.energy().value() - t.energy_between(1.0, 6.5).value()).abs() < 1e-9);
        // Boundary samples are interpolated.
        assert!((w.sample(0).watts - 100.0).abs() < 1e-9);
        // Exact-boundary windows reuse the stored samples.
        let exact = t.window(2.0, 5.0);
        assert_eq!(exact.len(), 2);
        assert_eq!(exact.sample(0).watts, 150.0);
        // A zero-width window is a single interpolated sample.
        let point = t.window(3.0, 3.0);
        assert_eq!(point.len(), 1);
        assert!((point.sample(0).watts - t.power_at(3.0).unwrap().value()).abs() < 1e-12);
    }

    #[test]
    fn extend_from_slices_matches_pushes() {
        let times = [0.0, 1.0, 1.0, 2.5];
        let watts = [100.0, 140.0, 90.0, 120.0];
        let mut batched = trace(&[(0.0, 80.0)]);
        batched.extend_from_slices(&times, &watts);
        let mut pushed = trace(&[(0.0, 80.0)]);
        for (&t, &w) in times.iter().zip(&watts) {
            pushed.push(t, Watts::new(w));
        }
        assert_eq!(batched, pushed);
        assert_eq!(batched.energy().value(), pushed.energy().value());
        assert_eq!(batched.prefix_energy(), pushed.prefix_energy());
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn extend_from_slices_validates_order() {
        let mut t = trace(&[(5.0, 100.0)]);
        t.extend_from_slices(&[4.0], &[100.0]);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn extend_from_slices_validates_lengths() {
        let mut t = PowerTrace::new();
        t.extend_from_slices(&[0.0, 1.0], &[100.0]);
    }

    #[test]
    fn extend_shifted_concatenates() {
        let mut a = trace(&[(0.0, 100.0), (10.0, 100.0)]);
        let b = trace(&[(0.0, 200.0), (5.0, 200.0)]);
        a.extend_shifted(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.sample(2).t, 10.0);
        assert_eq!(a.sample(3).t, 15.0);
        // Energy: 1000 J + 1000 J + transition trapezoid (0 s wide) = 2000 J.
        assert!((a.energy().value() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn serde_rejects_invalid_samples_at_the_boundary() {
        // Regression: deserialization used to rebuild the prefix index from
        // whatever the archive contained (`from_soa_unchecked`), so negative
        // watts or backwards timestamps silently poisoned every O(1)/O(log n)
        // energy query. The ingest boundary now rejects them outright.
        let cases: &[(&str, &str)] = &[
            // Negative power.
            (r#"{"samples":[{"t":0.0,"watts":-25.0}]}"#, "power must be finite"),
            // Non-finite power (JSON has no NaN literal; 1e999 parses to +inf).
            (r#"{"samples":[{"t":0.0,"watts":1e999}]}"#, "power must be finite"),
            // Backwards timestamps.
            (
                r#"{"samples":[{"t":5.0,"watts":100.0},{"t":1.0,"watts":100.0}]}"#,
                "timestamps must be non-decreasing",
            ),
            // Negative timestamp.
            (r#"{"samples":[{"t":-1.0,"watts":100.0}]}"#, "time must be finite"),
            // Non-finite timestamp.
            (r#"{"samples":[{"t":1e999,"watts":100.0}]}"#, "time must be finite"),
        ];
        for (json, reason) in cases {
            let err = serde_json::from_str::<PowerTrace>(json).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(reason), "payload {json}: expected {reason:?}, got {msg:?}");
        }
    }

    #[test]
    fn serde_error_names_the_offending_sample() {
        let err = serde_json::from_str::<PowerTrace>(
            r#"{"samples":[{"t":0.0,"watts":100.0},{"t":1.0,"watts":100.0},{"t":0.5,"watts":100.0}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("sample 2"), "got {err:?}");
    }

    #[test]
    fn poisoned_archive_cannot_corrupt_energy_queries() {
        // A journal with a backwards timestamp would have produced a negative
        // trapezoid in `cum_energy`, skewing `energy()` and every windowed
        // query derived from the index. The only way to obtain a trace from
        // an archive now is through the validated path, so the bad record
        // never becomes a queryable trace at all.
        let poisoned = r#"{"samples":[
            {"t":0.0,"watts":100.0},{"t":10.0,"watts":100.0},{"t":2.0,"watts":100.0}
        ]}"#;
        assert!(serde_json::from_str::<PowerTrace>(poisoned).is_err());
        // The well-formed prefix of the same archive still parses and
        // reports the expected energy.
        let clean: PowerTrace = serde_json::from_str(
            r#"{"samples":[{"t":0.0,"watts":100.0},{"t":10.0,"watts":100.0}]}"#,
        )
        .unwrap();
        assert!((clean.energy().value() - 1000.0).abs() < 1e-9);
        assert!((clean.energy_between(0.0, 5.0).value() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn serde_round_trips_legacy_shape() {
        let t = trace(&[(0.0, 100.0), (1.0, 150.5), (2.0, 120.25)]);
        let json = serde_json::to_string(&t).unwrap();
        // The wire format is still the array-of-structs layout.
        assert!(json.contains("\"samples\""), "{json}");
        assert!(json.contains("\"t\""), "{json}");
        assert!(json.contains("\"watts\""), "{json}");
        let back: PowerTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        // The prefix index is rebuilt on deserialization.
        assert_eq!(back.prefix_energy(), t.prefix_energy());
        assert_eq!(back.peak_power().value(), t.peak_power().value());
    }

    #[test]
    fn serde_rejects_missing_samples_field() {
        assert!(serde_json::from_str::<PowerTrace>(r#"{"nope":[]}"#).is_err());
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn out_of_order_push_panics() {
        let mut t = trace(&[(5.0, 100.0)]);
        t.push(4.0, Watts::new(100.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_power_panics() {
        let mut t = PowerTrace::new();
        t.push(0.0, Watts::new(-5.0));
    }

    proptest! {
        /// Energy is within [min·T, max·T] for any trace, and the O(1)
        /// indexed total matches the naive integration bit-for-bit.
        #[test]
        fn prop_energy_bounds(
            powers in proptest::collection::vec(1.0..1000.0f64, 2..32),
            dt in 0.1..10.0f64,
        ) {
            let mut t = PowerTrace::new();
            for (i, &w) in powers.iter().enumerate() {
                t.push(i as f64 * dt, Watts::new(w));
            }
            let dur = t.duration().value();
            let lo = powers.iter().cloned().fold(f64::INFINITY, f64::min) * dur;
            let hi = powers.iter().cloned().fold(0.0, f64::max) * dur;
            let e = t.energy().value();
            prop_assert_eq!(e, naive_energy(&t));
            prop_assert!(e >= lo - 1e-6);
            prop_assert!(e <= hi + 1e-6);
            // average power equals energy / duration by construction
            prop_assert!((t.average_power().value() - e / dur).abs() < 1e-9);
        }

        /// Doubling every power value doubles the energy (linearity).
        #[test]
        fn prop_energy_linear(
            powers in proptest::collection::vec(1.0..500.0f64, 2..16),
        ) {
            let mut t1 = PowerTrace::new();
            let mut t2 = PowerTrace::new();
            for (i, &w) in powers.iter().enumerate() {
                t1.push(i as f64, Watts::new(w));
                t2.push(i as f64, Watts::new(2.0 * w));
            }
            prop_assert!((t2.energy().value() - 2.0 * t1.energy().value()).abs() < 1e-6);
        }

        /// Splitting the span at any interior point conserves energy, and
        /// window() agrees with energy_between().
        #[test]
        fn prop_energy_between_additive(
            powers in proptest::collection::vec(1.0..1000.0f64, 2..32),
            split in 0.0..1.0f64,
        ) {
            let mut t = PowerTrace::new();
            for (i, &w) in powers.iter().enumerate() {
                t.push(i as f64, Watts::new(w));
            }
            let (first, last) = t.time_bounds().unwrap();
            let mid = first + split * (last - first);
            let a = t.energy_between(first, mid).value();
            let b = t.energy_between(mid, last).value();
            let total = t.energy().value();
            prop_assert!((a + b - total).abs() < 1e-9 * total.max(1.0),
                "{a} + {b} != {total}");
            let w = t.window(first, mid);
            prop_assert!((w.energy().value() - a).abs() < 1e-9 * total.max(1.0));
        }
    }
}
