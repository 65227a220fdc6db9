//! Named counters, gauges, and quantile histograms.
//!
//! Metrics are registered once (by name) in a global registry and handed
//! out as `Arc`s; recording is a few atomic RMWs with no locks. Histograms
//! are [`QuantileHistogram`]s (p50/p99/p999 within 1% relative error),
//! recorded through [`QuantileHistogram::record`]. The
//! [`crate::counter!`]/[`crate::gauge!`]/[`crate::histogram!`] macros cache the `Arc` in a
//! per-callsite `OnceLock` so steady-state recording never touches the
//! registry mutex either. While no collector is installed ([`crate::enabled`]
//! is `false`) all recording methods early-return, so disabled cost is one
//! relaxed atomic load.

use crate::quantile::{QuantileHistogram, QuantileSummary, DEFAULT_ALPHA};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` (no-op while no collector is installed).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.add_unconditional(n);
        }
    }

    /// Adds 1 (no-op while no collector is installed).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` even while disabled — for internal bookkeeping (the
    /// collector's own dropped-events counter) that must never be lost.
    #[inline]
    pub(crate) fn add_unconditional(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge holding the latest `f64` sample (bit-cast into an atomic).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge (no-op while no collector is installed).
    #[inline]
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Adds `delta` with a CAS loop (no-op while no collector is installed).
    #[inline]
    pub fn add(&self, delta: f64) {
        if !crate::enabled() {
            return;
        }
        let _ = self.bits.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
            Some((f64::from_bits(bits) + delta).to_bits())
        });
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// One registered metric, by kind.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<QuantileHistogram>),
}

static REGISTRY: Mutex<Vec<(String, Metric)>> = Mutex::new(Vec::new());

/// `name → help` text registered via [`describe`], rendered as `# HELP`
/// lines by the Prometheus exporter.
static HELP: Mutex<Vec<(String, String)>> = Mutex::new(Vec::new());

/// Registers help text for the metric named `name` (first call wins).
/// Metrics without a description get a generated fallback in the
/// exposition output.
pub fn describe(name: &str, help: &str) {
    let mut registry = HELP.lock().unwrap_or_else(PoisonError::into_inner);
    if registry.iter().any(|(n, _)| n == name) {
        return;
    }
    registry.push((name.to_string(), help.to_string()));
}

/// The registered help text for `name`, if any.
pub fn help_for(name: &str) -> Option<String> {
    let registry = HELP.lock().unwrap_or_else(PoisonError::into_inner);
    registry.iter().find(|(n, _)| n == name).map(|(_, h)| h.clone())
}

fn lookup_or_insert(name: &str, make: impl FnOnce() -> Metric) -> Metric {
    let mut registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((_, metric)) = registry.iter().find(|(n, _)| n == name) {
        return metric.clone();
    }
    let metric = make();
    registry.push((name.to_string(), metric.clone()));
    metric
}

/// Returns the counter named `name`, registering it on first use.
///
/// # Panics
/// If `name` is already registered as a different metric kind.
pub fn counter(name: &str) -> Arc<Counter> {
    match lookup_or_insert(name, || Metric::Counter(Arc::new(Counter::default()))) {
        Metric::Counter(c) => c,
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// Returns the gauge named `name`, registering it on first use.
///
/// # Panics
/// If `name` is already registered as a different metric kind.
pub fn gauge(name: &str) -> Arc<Gauge> {
    match lookup_or_insert(name, || Metric::Gauge(Arc::new(Gauge::default()))) {
        Metric::Gauge(g) => g,
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// Returns the histogram named `name`, registering it on first use.
///
/// # Panics
/// If `name` is already registered as a different metric kind.
pub fn histogram(name: &str) -> Arc<QuantileHistogram> {
    match lookup_or_insert(name, || {
        Metric::Histogram(Arc::new(QuantileHistogram::new(DEFAULT_ALPHA)))
    }) {
        Metric::Histogram(h) => h,
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// A point-in-time copy of every registered metric's state.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, in registration order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, in registration order.
    pub gauges: Vec<(String, f64)>,
    /// `(name, summary)` for every histogram, in registration order.
    pub histograms: Vec<(String, QuantileSummary)>,
}

impl MetricsSnapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Snapshots every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    let mut snap = MetricsSnapshot::default();
    for (name, metric) in registry.iter() {
        match metric {
            Metric::Counter(c) => snap.counters.push((name.clone(), c.get())),
            Metric::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
            Metric::Histogram(h) => snap.histograms.push((name.clone(), h.summary())),
        }
    }
    snap
}

/// Resets every registered metric to zero (used by [`crate::install`] so a
/// fresh collection session starts from a clean slate).
pub fn reset() {
    let registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    for (_, metric) in registry.iter() {
        match metric {
            Metric::Counter(c) => c.value.store(0, Ordering::Relaxed),
            Metric::Gauge(g) => g.bits.store(0, Ordering::Relaxed),
            Metric::Histogram(h) => h.reset(),
        }
    }
}

/// Returns a per-callsite cached [`Counter`]; `counter!("name").inc()`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static CELL: std::sync::OnceLock<std::sync::Arc<$crate::Counter>> =
            std::sync::OnceLock::new();
        CELL.get_or_init(|| $crate::metrics::counter($name))
    }};
}

/// Returns a per-callsite cached [`Gauge`]; `gauge!("name").set(1.5)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static CELL: std::sync::OnceLock<std::sync::Arc<$crate::Gauge>> =
            std::sync::OnceLock::new();
        CELL.get_or_init(|| $crate::metrics::gauge($name))
    }};
}

/// Returns a per-callsite cached [`QuantileHistogram`];
/// `histogram!("name").record(0.3)`.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static CELL: std::sync::OnceLock<std::sync::Arc<$crate::QuantileHistogram>> =
            std::sync::OnceLock::new();
        CELL.get_or_init(|| $crate::metrics::histogram($name))
    }};
}
