//! Observability-plane performance guards, written to the `BENCH_obs.json`
//! ledger (a 500k-sample detector trace under `TGI_BENCH_SMOKE`).
//!
//! Three contracts, each a ledger bound rather than just a report:
//!
//! * **Detector throughput** — the streaming anomaly detector scans a
//!   10M-sample trace at ≥ 1M samples/s. Anything slower would make the
//!   post-hoc `/traces/{node}/anomalies` scans and fleet-wide sweeps
//!   interactive-hostile.
//! * **Quantile accuracy** — the log-linear `QuantileHistogram` answers
//!   p50/p90/p99/p999 within its configured relative-error bound α of an
//!   exact sorted oracle over the same observations.
//! * **Recorder overhead** — an *active* ring-buffer recorder stays within
//!   2× of the full collector path it shadows. (The idle cost of a span
//!   with nothing recording is `telemetry_overhead`'s disabled-span guard.)

use power_model::anomaly::{self, AnomalyConfig};
use std::hint::black_box;
use std::time::Instant;
use tgi_bench::{median_of, noop_unit, time_per_iter, Ledger};
use tgi_telemetry::QuantileHistogram;

/// Detector trace length: (full, smoke).
const SAMPLES: (usize, usize) = (10_000_000, 500_000);
/// Span-loop iterations per timing run with the recorder or collector on.
const ACTIVE_ITERS: usize = 100_000;
/// The quantile sketch's relative-error bound.
const ALPHA: f64 = 0.01;

/// Deterministic splitmix-style generator (no rand dependency on the hot
/// setup path).
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

/// Scans `n` samples of a noisy 200 W baseline with a handful of injected
/// spikes, timing the full streaming pass.
fn detector_throughput(ledger: &mut Ledger, n: usize) {
    let mut rng = Rng(7);
    let mut times = Vec::with_capacity(n);
    let mut watts = Vec::with_capacity(n);
    // One 3-sample 900 W spike every million samples, so the events path
    // (open/extend/close) is exercised, not just the clean fast path.
    for i in 0..n {
        times.push(i as f64);
        let spiky = i >= 1_000 && (i % 1_000_000) < 3;
        watts.push(if spiky { 900.0 } else { 200.0 + rng.noise() });
    }
    let start = Instant::now();
    let events = anomaly::scan_columns(&times, &watts, AnomalyConfig::default());
    let elapsed_s = start.elapsed().as_secs_f64();
    let samples_per_s = n as f64 / elapsed_s.max(1e-9);
    eprintln!(
        "  detector: {n} samples in {elapsed_s:.3} s = {:.2} Msamples/s ({} events)",
        samples_per_s / 1e6,
        events.len()
    );
    ledger.higher("detector", "samples_per_s", "1/s", samples_per_s).bound(1e6);
    ledger.lower("detector", "events", "count", events.len() as f64).deterministic();
}

/// The oracle rank the sketch targets (same convention as the estimator's
/// own property tests).
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * (sorted.len() - 1) as f64).ceil() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Observes a heavy-tailed latency-shaped distribution into the sketch and
/// compares four quantiles against an exact sort of the same data.
fn quantile_accuracy(ledger: &mut Ledger, n: usize) {
    let hist = QuantileHistogram::new(ALPHA);
    let mut rng = Rng(11);
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        // Log-uniform over ~6 decades: microseconds to seconds.
        let v = 10f64.powf(rng.uniform() * 6.0 - 3.0);
        values.push(v);
        hist.observe(v);
    }
    values.sort_by(f64::total_cmp);
    let qs = [0.5, 0.9, 0.99, 0.999];
    let mut worst = 0.0f64;
    for &q in &qs {
        let exact = exact_quantile(&values, q);
        let est = hist.quantile(q).expect("non-empty sketch");
        let rel = (est - exact).abs() / exact;
        worst = worst.max(rel);
    }
    eprintln!(
        "  quantile: worst relative error {worst:.5} over {} quantiles (α={ALPHA})",
        qs.len()
    );
    ledger
        .lower("quantile", "worst_rel_error", "share", worst)
        .bound(ALPHA * (1.0 + 1e-9) + 1e-12)
        .deterministic();
}

/// Times the span path with the flight recorder active and with the full
/// collector installed.
fn recorder_overhead(ledger: &mut Ledger) {
    let runs = 7;
    assert!(!tgi_telemetry::installed(), "bench must start with no collector");
    assert!(!tgi_telemetry::recorder::active(), "bench must start with no recorder");

    // Recorder-active spans: the per-thread ring absorbs writes without
    // draining (old events are overwritten, which is the point).
    assert!(tgi_telemetry::recorder::enable(4096), "recorder should enable");
    let recorder_span_ns = median_of(runs, || {
        time_per_iter(ACTIVE_ITERS, |i| {
            let _span = tgi_telemetry::span("bench.obs.recorder");
            black_box(noop_unit(i));
        })
    });
    tgi_telemetry::recorder::disable();

    // Collector-enabled spans, drained between runs so the bounded buffer
    // never fills.
    assert!(tgi_telemetry::install(), "collector should install");
    let collector_span_ns = median_of(runs, || {
        let per = time_per_iter(ACTIVE_ITERS, |i| {
            let _span = tgi_telemetry::span("bench.obs.collector");
            black_box(noop_unit(i));
        });
        let _ = tgi_telemetry::drain();
        per
    });
    tgi_telemetry::uninstall();

    // The lock-free ring write stays within 2x of the collector path it
    // shadows — the flight recorder must never be the slow sink (0.5 ns
    // floor against clock resolution).
    let recorder_vs_collector_x = recorder_span_ns / collector_span_ns.max(0.5);
    eprintln!(
        "  recorder: active span {recorder_span_ns:.2} ns vs collector {collector_span_ns:.2} ns ({recorder_vs_collector_x:.2}x)"
    );
    ledger.lower("recorder", "recorder_span_ns", "ns", recorder_span_ns);
    ledger.lower("recorder", "collector_span_ns", "ns", collector_span_ns);
    ledger.lower("recorder", "recorder_vs_collector_x", "x", recorder_vs_collector_x).bound(2.0);
}

fn main() {
    let mut ledger = Ledger::new("obs");
    let samples = ledger.pick(SAMPLES);
    eprintln!(
        "obs: {samples} detector samples, {ACTIVE_ITERS} span iters, {} thread(s)",
        ledger.machine.available_parallelism
    );
    detector_throughput(&mut ledger, samples);
    quantile_accuracy(&mut ledger, samples.min(200_000));
    recorder_overhead(&mut ledger);
    ledger.finish();
}
