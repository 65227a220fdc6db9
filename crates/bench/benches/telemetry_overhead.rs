//! Telemetry disabled-path overhead guard, written to the
//! `BENCH_telemetry.json` ledger (200k iterations under `TGI_BENCH_SMOKE`).
//!
//! The instrumentation layer's contract is that with no collector installed
//! every entry point collapses to a relaxed atomic load. This bench proves
//! it: it times a no-op loop baseline, the disabled span/counter/histogram
//! paths, and (for context) the enabled paths, and bounds the disabled
//! span cost at 2x the baseline (with a small absolute floor so
//! sub-nanosecond jitter cannot flake the guard). The flight recorder is
//! compiled in and idle here, so this is also the "always-on" recorder's
//! idle cost.

use std::hint::black_box;
use tgi_bench::{median_of, noop_unit, time_per_iter, Ledger};

/// Timed iterations per run on the disabled paths: (full, smoke).
const ITERS: (usize, usize) = (2_000_000, 200_000);

fn main() {
    let mut ledger = Ledger::new("telemetry_overhead");
    let iters = ledger.pick(ITERS);
    let runs = 7;
    let n_threads = ledger.machine.available_parallelism;
    eprintln!("telemetry_overhead: {iters} iters x {runs} runs, {n_threads} thread(s)");

    assert!(!tgi_telemetry::installed(), "bench must start with no collector");
    assert!(!tgi_telemetry::recorder::active(), "bench must start with no recorder");

    // Disabled paths: no collector installed.
    let baseline_ns = median_of(runs, || {
        time_per_iter(iters, |i| {
            black_box(noop_unit(i));
        })
    });
    let disabled_span_ns = median_of(runs, || {
        time_per_iter(iters, |i| {
            let _span = tgi_telemetry::span("bench.disabled");
            black_box(noop_unit(i));
        })
    });
    let disabled_counter_ns = median_of(runs, || {
        time_per_iter(iters, |i| {
            tgi_telemetry::counter!("bench_disabled_total").inc();
            black_box(noop_unit(i));
        })
    });
    let disabled_histogram_ns = median_of(runs, || {
        time_per_iter(iters, |i| {
            tgi_telemetry::histogram!("bench_disabled_seconds").record(i as f64);
            black_box(noop_unit(i));
        })
    });

    // Enabled paths, for context (spans allocate + timestamp here). Uses a
    // smaller iteration count so the per-thread buffer bound is never hit.
    let enabled_iters = iters.min(100_000);
    assert!(tgi_telemetry::install(), "collector should install");
    let enabled_counter_ns = median_of(runs, || {
        time_per_iter(enabled_iters, |i| {
            tgi_telemetry::counter!("bench_enabled_total").inc();
            black_box(noop_unit(i));
        })
    });
    let enabled_histogram_ns = median_of(runs, || {
        time_per_iter(enabled_iters, |i| {
            tgi_telemetry::histogram!("bench_enabled_seconds").record(i as f64);
            black_box(noop_unit(i));
        })
    });
    let mut recorded_spans = 0usize;
    let enabled_span_ns = median_of(runs, || {
        let per = time_per_iter(enabled_iters, |i| {
            let _span = tgi_telemetry::span("bench.enabled");
            black_box(noop_unit(i));
        });
        // Drain between runs so the bounded per-thread buffer never fills
        // (a full buffer would silently turn recording into counting).
        recorded_spans += tgi_telemetry::drain().len();
        per
    });
    tgi_telemetry::uninstall();
    assert!(recorded_spans > 0 || enabled_iters == 0, "enabled spans were recorded");

    let span_overhead_x = disabled_span_ns / baseline_ns.max(0.5);

    // The guard: disabled spans must cost within 2x of the no-op loop
    // (the 0.5 ns floor keeps the ratio meaningful when the baseline is
    // faster than the clock's resolution).
    ledger.lower("disabled", "baseline_ns", "ns", baseline_ns);
    ledger.lower("disabled", "span_ns", "ns", disabled_span_ns);
    ledger.lower("disabled", "span_overhead_x", "x", span_overhead_x).bound(2.0);
    ledger.lower("disabled", "counter_ns", "ns", disabled_counter_ns);
    ledger.lower("disabled", "histogram_ns", "ns", disabled_histogram_ns);
    ledger.lower("enabled", "span_ns", "ns", enabled_span_ns);
    ledger.lower("enabled", "counter_ns", "ns", enabled_counter_ns);
    ledger.lower("enabled", "histogram_ns", "ns", enabled_histogram_ns);
    ledger.finish();
}
