//! # tgi-telemetry — offline instrumentation for the TGI pipeline
//!
//! A lightweight, dependency-free (std-only, compat-shim style) telemetry
//! layer giving the whole workspace **spans**, **metrics**, and **exportable
//! run timelines**:
//!
//! * **Spans** ([`span()`], [`instant`]) are RAII guards carrying a static
//!   name, a category, monotonic nanosecond timestamps, a small stable
//!   thread id, and optional `key=value` fields. Finished spans land in
//!   per-thread buffers that the global collector drains — the hot path
//!   never touches a shared lock beyond the thread's own (uncontended)
//!   buffer mutex.
//! * **Metrics** ([`metrics::counter`], [`metrics::gauge`],
//!   [`metrics::histogram`], or the caching [`counter!`]/[`gauge!`]/
//!   [`histogram!`] macros) are registered once in a global registry and
//!   recorded with atomic operations — no locks on the hot path. Histograms
//!   are [`QuantileHistogram`]s, exported as p50/p99/p999 summaries.
//! * **Exporters** ([`export`]) render a drained event stream as JSONL, the
//!   metrics registry as Prometheus text exposition, and a whole run as
//!   Chrome `trace_event` JSON that opens directly in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev).
//!
//! ## Enabling
//!
//! Nothing is recorded until [`install`] is called (the CLIs do this behind
//! `--telemetry`/`--trace-out`). While no collector is installed every
//! recording entry point early-returns after one relaxed atomic load — a
//! few nanoseconds, proven by the `telemetry_overhead` bench in `tgi-bench`.
//! Compiling with `--no-default-features` removes even that load: the
//! `enabled` cargo feature gates all recording, so telemetry compiles out
//! of the workspace entirely while the API surface stays intact.
//!
//! ```
//! tgi_telemetry::install();
//! {
//!     let _span = tgi_telemetry::span("work").field("items", 3u64);
//!     tgi_telemetry::counter!("items_total").add(3);
//! }
//! let events = tgi_telemetry::uninstall();
//! assert_eq!(events.len(), 1);
//! let trace = tgi_telemetry::export::chrome_trace(&events);
//! assert!(trace.contains("\"traceEvents\""));
//! ```

#![warn(missing_docs)]

pub mod collector;
pub mod export;
pub mod metrics;
pub mod quantile;
pub mod recorder;
pub mod span;
pub mod summary;

pub use collector::{drain, install, installed, uninstall, Event, EventKind};
pub use metrics::{Counter, Gauge, MetricsSnapshot};
pub use quantile::{QuantileHistogram, QuantileSummary};
pub use recorder::RecorderStats;
pub use span::{instant, span, span_cat, FieldValue, Span};
pub use summary::summary;

#[cfg(feature = "enabled")]
use std::sync::atomic::{AtomicBool, Ordering};

#[cfg(feature = "enabled")]
pub(crate) static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether a collector is installed and recording.
///
/// Instrumentation sites that would allocate (field formatting, metric
/// registration) should gate on this so the disabled path stays free of
/// heap traffic. With the `enabled` cargo feature off this is a constant
/// `false` and gated code compiles out.
#[inline(always)]
pub fn enabled() -> bool {
    #[cfg(feature = "enabled")]
    {
        ENABLED.load(Ordering::Relaxed)
    }
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
}

/// Whether any recording sink wants events: the collector
/// ([`enabled`]) or the flight recorder ([`recorder::active`]). Span
/// creation gates on this so rings fill even while no collector is
/// installed.
#[inline(always)]
pub fn recording() -> bool {
    enabled() || recorder::active()
}
