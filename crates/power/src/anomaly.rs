//! Online anomaly detection over streaming watts.
//!
//! A meter stream can lie in three ways this module watches for:
//!
//! * **Spikes** — a sample far outside the recent noise band. The
//!   detector tracks a fast EWMA of the level and an EWMA of the absolute
//!   residual (a MAD-style scale that is robust to single outliers), and
//!   flags samples whose residual exceeds `spike_z` scale units.
//!   Consecutive spiky samples coalesce into one event.
//! * **Drift** — the level creeping away from its long-term baseline
//!   (meter mis-calibration, thermal creep). A fast EWMA
//!   (`fast_alpha`) is compared against a very slow one (`slow_alpha`);
//!   when their relative gap exceeds `drift_ratio` for `drift_min_run`
//!   consecutive samples, a drift event opens, and closes when the gap
//!   shrinks back.
//! * **Dropouts** — the meter going dark: either a time gap much larger
//!   than the running sampling cadence (`gap_factor` × the EWMA of
//!   inter-sample spacing) or a *flatline*, `flatline_run` bit-identical
//!   readings in a row (real meters quantize but still jitter; a frozen
//!   value means a stuck register, and a genuinely constant source is
//!   indistinguishable from one by design).
//!
//! Updates are **winsorized**: residuals are clamped to ±4 scale units
//! before feeding the EWMAs, so a spike cannot drag the baseline (and
//! thereby hide itself or fake a drift). After a flatline ends the spike
//! test is muted for `warmup` samples while the collapsed residual scale
//! re-inflates. All state is O(1) per stream — the detector never buffers
//! samples, which is what lets the store-backed scan run at tens of
//! millions of samples per second.

use crate::persist::StoreBackedTrace;
use crate::trace::{PowerTrace, TraceQuery};
use serde::{Deserialize, Serialize};
use tgi_trace_store::StoreError;

/// Tuning knobs for [`AnomalyDetector`]. The defaults are calibrated for
/// wall-meter streams (watts at ~1 Hz–1 kHz cadence with quantized noise)
/// and hold zero false positives on clean noisy traces.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnomalyConfig {
    /// Spike threshold in robust scale units (EWMA of |residual|). The
    /// scale is a mean absolute deviation, so for Gaussian noise a value
    /// of 8 corresponds to ≈6.4σ.
    pub spike_z: f64,
    /// Samples before spike/drift detection arms (EWMAs settling).
    pub warmup: usize,
    /// Longest coalesced spike run; a longer excursion is closed out and
    /// the baseline snaps to the new level (it is a step, not a spike).
    pub max_spike_run: usize,
    /// Fast level EWMA coefficient.
    pub fast_alpha: f64,
    /// Slow baseline EWMA coefficient.
    pub slow_alpha: f64,
    /// Residual-scale EWMA coefficient.
    pub dev_alpha: f64,
    /// Relative |fast − slow| gap that counts as drifting.
    pub drift_ratio: f64,
    /// Consecutive drifting samples before a drift event opens.
    pub drift_min_run: usize,
    /// Bit-identical samples in a row that count as a stuck meter.
    pub flatline_run: usize,
    /// A time gap beyond `gap_factor ×` the cadence EWMA is a dropout.
    pub gap_factor: f64,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig {
            spike_z: 8.0,
            warmup: 64,
            max_spike_run: 64,
            fast_alpha: 0.3,
            slow_alpha: 0.002,
            dev_alpha: 0.05,
            drift_ratio: 0.10,
            drift_min_run: 16,
            flatline_run: 32,
            gap_factor: 15.0,
        }
    }
}

/// What kind of misbehavior an [`AnomalyEvent`] flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnomalyKind {
    /// A sample (or short run) far outside the noise band.
    Spike,
    /// The level creeping away from the long-term baseline.
    Drift,
    /// The meter going dark: a time gap or a flatlined register.
    Dropout,
}

impl AnomalyKind {
    /// Lowercase label used in JSON and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            AnomalyKind::Spike => "spike",
            AnomalyKind::Drift => "drift",
            AnomalyKind::Dropout => "dropout",
        }
    }
}

/// One detected anomaly, as a closed `[start, end]` interval in trace
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnomalyEvent {
    /// What misbehaved.
    pub kind: AnomalyKind,
    /// Trace time where the anomaly began.
    pub start: f64,
    /// Trace time of the last affected sample (== `start` for
    /// single-sample events; the far edge of the gap for gap dropouts).
    pub end: f64,
    /// Samples inside the interval (0 for pure time-gap dropouts).
    pub samples: usize,
    /// Kind-specific magnitude: peak robust z for spikes, peak relative
    /// gap for drifts, gap/cadence ratio or run length for dropouts.
    pub severity: f64,
    /// Kind-specific level: extreme watts for spikes, the fast EWMA at
    /// open for drifts, the stuck value for flatlines, 0 for gaps.
    pub value: f64,
}

/// Running per-kind totals, cheap to merge and serialize (the server's
/// `/healthz`, `FleetTable` rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnomalyCounts {
    /// Spike events.
    pub spikes: u64,
    /// Drift events.
    pub drifts: u64,
    /// Dropout events (gaps and flatlines).
    pub dropouts: u64,
}

impl AnomalyCounts {
    /// Sum over kinds.
    pub fn total(&self) -> u64 {
        self.spikes + self.drifts + self.dropouts
    }

    /// Tallies events by kind.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a AnomalyEvent>) -> Self {
        let mut counts = AnomalyCounts::default();
        for event in events {
            counts.bump(event.kind);
        }
        counts
    }

    /// Adds another tally into this one.
    pub fn absorb(&mut self, other: AnomalyCounts) {
        self.spikes += other.spikes;
        self.drifts += other.drifts;
        self.dropouts += other.dropouts;
    }

    fn bump(&mut self, kind: AnomalyKind) {
        match kind {
            AnomalyKind::Spike => self.spikes += 1,
            AnomalyKind::Drift => self.drifts += 1,
            AnomalyKind::Dropout => self.dropouts += 1,
        }
    }
}

/// An interval event still being extended.
#[derive(Debug, Clone, Copy)]
struct OpenEvent {
    kind: AnomalyKind,
    start: f64,
    last: f64,
    samples: usize,
    severity: f64,
    value: f64,
}

impl OpenEvent {
    fn close(self) -> AnomalyEvent {
        AnomalyEvent {
            kind: self.kind,
            start: self.start,
            end: self.last,
            samples: self.samples,
            severity: self.severity,
            value: self.value,
        }
    }
}

/// Streaming detector; see the module docs for the three tests it runs.
/// Feed it samples in time order via [`push`](Self::push) and call
/// [`finish`](Self::finish) at end of stream to close open intervals.
#[derive(Debug, Clone)]
pub struct AnomalyDetector {
    config: AnomalyConfig,
    counts: AnomalyCounts,
    n: usize,
    last_t: Option<f64>,
    /// EWMA of inter-sample spacing (the cadence).
    dt_ewma: Option<f64>,
    /// Fast level, slow baseline, and robust residual scale.
    fast: f64,
    slow: f64,
    dev: f64,
    /// Current run of bit-identical watts.
    flat_bits: u64,
    flat_run: usize,
    flat_start: f64,
    /// Samples left before the spike test re-arms after a flatline.
    spike_mute: usize,
    drift_run: usize,
    drift_start: f64,
    open_spike: Option<OpenEvent>,
    open_drift: Option<OpenEvent>,
    open_flatline: Option<OpenEvent>,
}

impl AnomalyDetector {
    /// A detector with the given tuning.
    pub fn new(config: AnomalyConfig) -> Self {
        AnomalyDetector {
            config,
            counts: AnomalyCounts::default(),
            n: 0,
            last_t: None,
            dt_ewma: None,
            fast: 0.0,
            slow: 0.0,
            dev: 0.0,
            flat_bits: 0,
            flat_run: 0,
            flat_start: 0.0,
            spike_mute: 0,
            drift_run: 0,
            drift_start: 0.0,
            open_spike: None,
            open_drift: None,
            open_flatline: None,
        }
    }

    /// The tuning this detector runs with.
    pub fn config(&self) -> &AnomalyConfig {
        &self.config
    }

    /// Events opened so far, by kind (incremented when an event *opens*,
    /// so live dashboards see an anomaly while it is still in progress).
    pub fn counts(&self) -> AnomalyCounts {
        self.counts
    }

    /// Samples consumed.
    pub fn samples_seen(&self) -> usize {
        self.n
    }

    /// The minimum watts floor used for relative comparisons.
    fn scale_floor(&self) -> f64 {
        (0.002 * self.fast.abs()).max(1e-9)
    }

    /// Consumes one sample, appending any events that *close* at this
    /// sample to `out`. Gap dropouts close immediately; spikes, drifts,
    /// and flatlines close when the stream returns to normal (or at
    /// [`finish`](Self::finish)).
    pub fn push(&mut self, t: f64, watts: f64, out: &mut Vec<AnomalyEvent>) {
        let cfg = self.config;
        self.n += 1;
        if self.n == 1 {
            self.fast = watts;
            self.slow = watts;
            self.flat_bits = watts.to_bits();
            self.flat_run = 1;
            self.flat_start = t;
            self.last_t = Some(t);
            return;
        }
        let last_t = self.last_t.unwrap_or(t);
        let dt = (t - last_t).max(0.0);

        // --- Dropout: time gap vs the cadence EWMA ------------------------
        if let Some(cadence) = self.dt_ewma {
            if self.n > 8 && cadence > 0.0 && dt > cfg.gap_factor * cadence {
                let event = AnomalyEvent {
                    kind: AnomalyKind::Dropout,
                    start: last_t,
                    end: t,
                    samples: 0,
                    severity: dt / cadence,
                    value: 0.0,
                };
                self.counts.bump(AnomalyKind::Dropout);
                out.push(event);
                // The gap itself must not stretch the cadence estimate.
            } else {
                let clamped = dt.min(4.0 * cadence.max(1e-12));
                self.dt_ewma = Some(cadence + 0.1 * (clamped - cadence));
            }
        } else {
            self.dt_ewma = Some(dt);
        }

        // --- Dropout: flatlined register ---------------------------------
        if watts.to_bits() == self.flat_bits {
            self.flat_run += 1;
            if self.flat_run == cfg.flatline_run {
                self.open_flatline = Some(OpenEvent {
                    kind: AnomalyKind::Dropout,
                    start: self.flat_start,
                    last: t,
                    samples: self.flat_run,
                    severity: self.flat_run as f64,
                    value: watts,
                });
                self.counts.bump(AnomalyKind::Dropout);
            } else if let Some(open) = &mut self.open_flatline {
                open.last = t;
                open.samples = self.flat_run;
                open.severity = self.flat_run as f64;
            }
        } else {
            if let Some(open) = self.open_flatline.take() {
                out.push(open.close());
                // The frozen run collapsed the residual scale; re-arm the
                // spike test only after it re-inflates.
                self.spike_mute = cfg.warmup;
            }
            self.flat_bits = watts.to_bits();
            self.flat_run = 1;
            self.flat_start = t;
        }
        let flatlined = self.open_flatline.is_some();

        // --- Spike: robust z on the fast-EWMA residual --------------------
        let residual = watts - self.fast;
        let scale = self.dev.max(self.scale_floor());
        let z = residual.abs() / scale;
        let armed = self.n > cfg.warmup && self.spike_mute == 0 && !flatlined;
        if armed && z >= cfg.spike_z {
            let level = self.fast;
            if let Some(open) = &mut self.open_spike {
                open.last = t;
                open.samples += 1;
                if z > open.severity {
                    open.severity = z;
                }
                if (watts - level).abs() > (open.value - level).abs() {
                    open.value = watts;
                }
            } else {
                self.open_spike = Some(OpenEvent {
                    kind: AnomalyKind::Spike,
                    start: t,
                    last: t,
                    samples: 1,
                    severity: z,
                    value: watts,
                });
                self.counts.bump(AnomalyKind::Spike);
            }
            if self.open_spike.as_ref().is_some_and(|o| o.samples >= cfg.max_spike_run) {
                // A sustained excursion is a level step, not a spike:
                // close the event and accept the new level as baseline.
                let open = self.open_spike.take().expect("just observed Some");
                out.push(open.close());
                self.fast = watts;
            }
        } else if let Some(open) = self.open_spike.take() {
            out.push(open.close());
        }

        // --- EWMA updates, winsorized so outliers cannot steer them ------
        let clamp = 4.0 * scale;
        let bounded = residual.clamp(-clamp, clamp);
        self.fast += cfg.fast_alpha * bounded;
        self.slow += cfg.slow_alpha * (self.fast - self.slow);
        self.dev += cfg.dev_alpha * (bounded.abs() - self.dev);

        // --- Drift: fast level vs slow baseline --------------------------
        if self.n > cfg.warmup && !flatlined {
            let rel = (self.fast - self.slow).abs() / self.slow.abs().max(self.scale_floor());
            if rel > cfg.drift_ratio {
                if self.drift_run == 0 {
                    self.drift_start = t;
                }
                self.drift_run += 1;
                if self.drift_run == cfg.drift_min_run {
                    self.open_drift = Some(OpenEvent {
                        kind: AnomalyKind::Drift,
                        start: self.drift_start,
                        last: t,
                        samples: self.drift_run,
                        severity: rel,
                        value: self.fast,
                    });
                    self.counts.bump(AnomalyKind::Drift);
                } else if let Some(open) = &mut self.open_drift {
                    open.last = t;
                    open.samples = self.drift_run;
                    if rel > open.severity {
                        open.severity = rel;
                    }
                }
            } else {
                self.drift_run = 0;
                if let Some(open) = self.open_drift.take() {
                    out.push(open.close());
                }
            }
        }

        if self.spike_mute > 0 {
            self.spike_mute -= 1;
        }
        self.last_t = Some(t);
    }

    /// Closes any still-open intervals at end of stream.
    pub fn finish(&mut self, out: &mut Vec<AnomalyEvent>) {
        if let Some(open) = self.open_spike.take() {
            out.push(open.close());
        }
        if let Some(open) = self.open_drift.take() {
            out.push(open.close());
        }
        if let Some(open) = self.open_flatline.take() {
            out.push(open.close());
        }
        self.drift_run = 0;
    }
}

/// Scans raw sample columns with a fresh detector, returning every event
/// in time order. `times` and `watts` must be equal length and
/// `times` non-decreasing (as produced by [`PowerTrace`]).
pub fn scan_columns(times: &[f64], watts: &[f64], config: AnomalyConfig) -> Vec<AnomalyEvent> {
    assert_eq!(times.len(), watts.len(), "column lengths differ");
    let mut scan = Scan::new(config);
    for (&t, &w) in times.iter().zip(watts) {
        scan.push(t, w);
    }
    scan.finish()
}

/// One post-hoc scan: a fresh detector fed samples in time order, and
/// the events it emits — the loop behind [`scan_columns`] and the stored
/// trace's streaming [`TraceQuery::scan_anomalies`].
pub(crate) struct Scan {
    detector: AnomalyDetector,
    events: Vec<AnomalyEvent>,
}

impl Scan {
    pub(crate) fn new(config: AnomalyConfig) -> Self {
        Scan { detector: AnomalyDetector::new(config), events: Vec::new() }
    }

    #[inline]
    pub(crate) fn push(&mut self, t: f64, watts: f64) {
        self.detector.push(t, watts, &mut self.events);
    }

    /// Closes open intervals and returns every event in time order.
    pub(crate) fn finish(mut self) -> Vec<AnomalyEvent> {
        self.detector.finish(&mut self.events);
        self.events
            .sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap_or(std::cmp::Ordering::Equal));
        self.events
    }
}

/// Scans an in-memory trace; see [`scan_columns`].
pub fn scan(trace: &PowerTrace, config: AnomalyConfig) -> Vec<AnomalyEvent> {
    scan_columns(trace.times(), trace.watts(), config)
}

/// Scans a window of a store-backed trace (whole trace when unbounded),
/// streaming the covered sub-blocks' samples straight into the detector;
/// see [`TraceQuery::scan_anomalies`].
pub fn scan_stored(
    trace: &StoreBackedTrace,
    config: AnomalyConfig,
    from: Option<f64>,
    to: Option<f64>,
) -> Result<Vec<AnomalyEvent>, StoreError> {
    trace.scan_anomalies(config, from, to)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic splitmix-style generator.
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn uniform(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Meter-like noise: ±2 W, quantized to 0.1 W.
        fn noise(&mut self) -> f64 {
            ((self.uniform() * 4.0 - 2.0) * 10.0).round() / 10.0
        }
    }

    fn clean_columns(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = Rng(seed);
        let times: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let watts: Vec<f64> = (0..n).map(|_| 200.0 + rng.noise()).collect();
        (times, watts)
    }

    #[test]
    fn clean_noisy_trace_has_zero_false_positives() {
        for seed in [1, 7, 42, 1234] {
            let (times, watts) = clean_columns(50_000, seed);
            let events = scan_columns(&times, &watts, AnomalyConfig::default());
            assert!(events.is_empty(), "seed {seed}: false positives {events:?}");
        }
    }

    #[test]
    fn spike_is_detected_and_coalesced() {
        let (times, mut watts) = clean_columns(2_000, 3);
        for w in &mut watts[700..703] {
            *w = 900.0;
        }
        let events = scan_columns(&times, &watts, AnomalyConfig::default());
        let spikes: Vec<_> = events.iter().filter(|e| e.kind == AnomalyKind::Spike).collect();
        assert_eq!(spikes.len(), 1, "{events:?}");
        let spike = spikes[0];
        assert_eq!(spike.start, 700.0);
        assert_eq!(spike.end, 702.0);
        assert_eq!(spike.samples, 3);
        assert!((spike.value - 900.0).abs() < 1e-9);
        assert!(spike.severity > 100.0, "z was {}", spike.severity);
        assert!(
            events.iter().all(|e| e.kind == AnomalyKind::Spike),
            "spike must not fake drift/dropout: {events:?}"
        );
    }

    #[test]
    fn drift_ramp_is_detected_without_spike_noise() {
        let (times, mut watts) = clean_columns(3_000, 9);
        // +0.2 W per sample from t=1000 to t=1400: a +80 W (40%) creep,
        // held afterward.
        for (i, w) in watts.iter_mut().enumerate().skip(1_000) {
            *w += 0.2 * ((i - 1_000).min(400)) as f64;
        }
        let events = scan_columns(&times, &watts, AnomalyConfig::default());
        let drifts: Vec<_> = events.iter().filter(|e| e.kind == AnomalyKind::Drift).collect();
        assert!(!drifts.is_empty(), "{events:?}");
        assert!(drifts[0].start >= 1_000.0 && drifts[0].start <= 1_400.0, "{:?}", drifts[0]);
        assert!(drifts[0].severity > 0.10);
        assert!(
            events.iter().all(|e| e.kind == AnomalyKind::Drift),
            "a gentle ramp must not read as spikes/dropouts: {events:?}"
        );
    }

    #[test]
    fn flatline_is_a_dropout_and_recovery_is_not_a_spike() {
        let (times, mut watts) = clean_columns(2_000, 11);
        for w in &mut watts[800..880] {
            *w = 203.4; // frozen register
        }
        let events = scan_columns(&times, &watts, AnomalyConfig::default());
        let dropouts: Vec<_> = events.iter().filter(|e| e.kind == AnomalyKind::Dropout).collect();
        assert_eq!(dropouts.len(), 1, "{events:?}");
        assert_eq!(dropouts[0].start, 800.0);
        assert_eq!(dropouts[0].end, 879.0);
        assert_eq!(dropouts[0].samples, 80);
        assert!((dropouts[0].value - 203.4).abs() < 1e-9);
        assert!(
            events.iter().all(|e| e.kind == AnomalyKind::Dropout),
            "flatline entry/exit must not fire the spike test: {events:?}"
        );
    }

    #[test]
    fn time_gap_is_a_dropout() {
        let (mut times, watts) = clean_columns(1_000, 13);
        for t in &mut times[500..] {
            *t += 120.0; // two minutes of darkness at 1 Hz cadence
        }
        let events = scan_columns(&times, &watts, AnomalyConfig::default());
        let gaps: Vec<_> =
            events.iter().filter(|e| e.kind == AnomalyKind::Dropout && e.samples == 0).collect();
        assert_eq!(gaps.len(), 1, "{events:?}");
        assert_eq!(gaps[0].start, 499.0);
        assert_eq!(gaps[0].end, 620.0);
        assert!(gaps[0].severity > 100.0);
        assert_eq!(events.len(), 1, "gap must not disturb the level tests: {events:?}");
    }

    #[test]
    fn all_three_kinds_detected_in_one_stream() {
        let (times, mut watts) = clean_columns(4_000, 17);
        watts[900] = 1_250.0;
        for (i, w) in watts.iter_mut().enumerate().take(2_400).skip(1_500) {
            *w += 0.25 * ((i - 1_500) as f64).min(600.0);
        }
        for w in &mut watts[3_000..3_100] {
            *w = 111.1;
        }
        let events = scan_columns(&times, &watts, AnomalyConfig::default());
        let counts = |k: AnomalyKind| events.iter().filter(|e| e.kind == k).count();
        assert!(counts(AnomalyKind::Spike) >= 1, "{events:?}");
        assert!(counts(AnomalyKind::Drift) >= 1, "{events:?}");
        assert!(counts(AnomalyKind::Dropout) >= 1, "{events:?}");
    }

    #[test]
    fn detector_counts_match_emitted_events() {
        let (times, mut watts) = clean_columns(2_000, 23);
        watts[500] = 2_000.0;
        for w in &mut watts[1_200..1_260] {
            *w = 55.5;
        }
        let mut detector = AnomalyDetector::new(AnomalyConfig::default());
        let mut events = Vec::new();
        for (&t, &w) in times.iter().zip(&watts) {
            detector.push(t, w, &mut events);
        }
        detector.finish(&mut events);
        let counts = detector.counts();
        assert_eq!(counts, AnomalyCounts::from_events(&events));
        assert!(counts.spikes >= 1 && counts.dropouts >= 1, "{events:?}");
        assert_eq!(counts.total(), events.len() as u64);
    }

    #[test]
    fn constant_source_flatlines_by_design() {
        // A perfectly constant stream is indistinguishable from a stuck
        // register — the detector flags it, documenting the contract.
        let times: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let watts = vec![250.0; 200];
        let events = scan_columns(&times, &watts, AnomalyConfig::default());
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, AnomalyKind::Dropout);
        assert_eq!(events[0].samples, 200);
    }

    #[test]
    fn empty_and_single_sample_streams_are_silent() {
        assert!(scan_columns(&[], &[], AnomalyConfig::default()).is_empty());
        assert!(scan_columns(&[0.0], &[100.0], AnomalyConfig::default()).is_empty());
    }
}
