//! Trace-analytics baseline: indexed SoA trace queries vs naive rescans,
//! written to the `BENCH_trace.json` ledger (50k samples under
//! `TGI_BENCH_SMOKE`).
//!
//! The committed ledger documents the streaming-analytics engine's win: batch
//! and per-push ingest rates, O(log n) `energy_between` vs a full-scan
//! integration, the O(n) two-pointer `moving_average` vs the O(n·w)
//! definition, selection-based percentiles vs a full sort per query, and
//! parallel fleet summarization at 1 vs N threads (unmeasured on one core). Every naive reference is
//! implemented here, independent of the library's prefix index, and the
//! bench asserts the two paths agree before it trusts a timing.

use power_model::{analysis, PowerTrace, TraceSet};
use std::time::Instant;
use tgi_bench::{Lcg, Ledger};
use tgi_core::Watts;

/// Trace length: (full, smoke).
const SAMPLES: (usize, usize) = (1_000_000, 50_000);
/// Floor on the indexed paths' speedups over the naive ones: (full, smoke).
const SPEEDUP_BAR: (f64, f64) = (10.0, 1.0);

/// A wall-meter-like trace: ~1 Hz cadence with jitter, wandering power.
fn synth_columns(n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut rng = Lcg(0x7261CE);
    let mut times = Vec::with_capacity(n);
    let mut watts = Vec::with_capacity(n);
    let mut t = 0.0;
    let mut w = 250.0;
    for _ in 0..n {
        t += 0.9 + 0.2 * rng.next_unit();
        w = (w + 10.0 * (rng.next_unit() - 0.5)).clamp(80.0, 450.0);
        times.push(t);
        watts.push(w);
    }
    (times, watts)
}

/// Naive full-scan windowed energy: interpolated piecewise-linear integral.
fn naive_energy_between(times: &[f64], watts: &[f64], a: f64, b: f64) -> f64 {
    let a = a.max(times[0]);
    let b = b.min(times[times.len() - 1]);
    if b <= a {
        return 0.0;
    }
    let interp = |lo: usize, t: f64| -> f64 {
        let (t0, t1) = (times[lo], times[lo + 1]);
        if t1 == t0 {
            watts[lo + 1]
        } else {
            watts[lo] + (watts[lo + 1] - watts[lo]) * (t - t0) / (t1 - t0)
        }
    };
    let mut e = 0.0;
    for i in 1..times.len() {
        let lo = times[i - 1].max(a);
        let hi = times[i].min(b);
        if hi > lo {
            e += 0.5 * (interp(i - 1, lo) + interp(i - 1, hi)) * (hi - lo);
        }
    }
    e
}

/// Naive O(n·w) centered moving average.
fn naive_moving_average(times: &[f64], watts: &[f64], window_s: f64) -> Vec<f64> {
    let half = window_s / 2.0;
    let n = times.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let (mut sum, mut count) = (0.0, 0usize);
        let mut j = i;
        loop {
            if times[i] - times[j] > half {
                break;
            }
            sum += watts[j];
            count += 1;
            if j == 0 {
                break;
            }
            j -= 1;
        }
        let mut j = i + 1;
        while j < n && times[j] - times[i] <= half {
            sum += watts[j];
            count += 1;
            j += 1;
        }
        out.push(sum / count as f64);
    }
    out
}

/// Naive full-sort percentile with linear interpolation.
fn naive_percentile(watts: &[f64], p: f64) -> f64 {
    let mut sorted = watts.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

fn main() {
    let mut ledger = Ledger::new("trace_analytics");
    let n = ledger.pick(SAMPLES);
    let speedup_bar = ledger.pick(SPEEDUP_BAR);
    let n_threads = ledger.machine.available_parallelism;
    eprintln!("trace_analytics: {n} samples, {n_threads} thread(s) available");

    let (times, watts) = synth_columns(n);

    // Ingest: validated per-sample pushes vs one batch call.
    let start = Instant::now();
    let mut pushed = PowerTrace::with_capacity(n);
    for (&t, &w) in times.iter().zip(&watts) {
        pushed.push(t, Watts::new(w));
    }
    let push_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut batched = PowerTrace::with_capacity(n);
    batched.extend_from_slices(&times, &watts);
    let batch_secs = start.elapsed().as_secs_f64();
    assert_eq!(batched.energy().value(), pushed.energy().value(), "ingest paths must agree");
    ledger.higher("ingest", "push_samples_per_s", "1/s", n as f64 / push_secs);
    ledger.higher("ingest", "batch_samples_per_s", "1/s", n as f64 / batch_secs);
    let trace = batched;

    // Windowed energy: agree on a probe set, then time each path at a
    // query count matched to its cost.
    let span = times[n - 1] - times[0];
    let windows: Vec<(f64, f64)> = {
        let mut rng = Lcg(0xE6E7);
        (0..200)
            .map(|_| {
                let a = times[0] + rng.next_unit() * span;
                let b = (a + rng.next_unit() * span * 0.2).min(times[n - 1]);
                (a, b)
            })
            .collect()
    };
    for &(a, b) in windows.iter().take(25) {
        let fast = trace.energy_between(a, b).value();
        let slow = naive_energy_between(&times, &watts, a, b);
        assert!(
            (fast - slow).abs() <= 1e-7 * slow.abs().max(1.0),
            "energy_between disagrees on [{a}, {b}]: {fast} vs {slow}"
        );
    }
    let naive_queries = 50.min(windows.len());
    let start = Instant::now();
    let mut sink = 0.0;
    for &(a, b) in windows.iter().cycle().take(naive_queries) {
        sink += naive_energy_between(&times, &watts, a, b);
    }
    let naive_ns = start.elapsed().as_nanos() as f64 / naive_queries as f64;
    let indexed_queries = 200_000;
    let start = Instant::now();
    for &(a, b) in windows.iter().cycle().take(indexed_queries) {
        sink -= trace.energy_between(a, b).value();
    }
    let indexed_ns = start.elapsed().as_nanos() as f64 / indexed_queries as f64;
    assert!(sink.is_finite());
    ledger.lower("energy_between", "indexed_ns", "ns", indexed_ns);
    ledger.lower("energy_between", "naive_ns", "ns", naive_ns);
    // The indexed paths must never lose to the naive ones; at full size
    // the bar is 10x.
    ledger.higher("energy_between", "speedup", "x", naive_ns / indexed_ns).bound(speedup_bar);

    // Moving average: one full pass each, same window. The window is sized
    // relative to the span (~0.2% ≈ 2000 samples at 1e6) so the naive
    // O(n·w) cost is clearly separated from the indexed O(n) pass.
    let window_s = (span * 2e-3).max(3.0);
    let start = Instant::now();
    let smooth = analysis::moving_average(&trace, window_s);
    let ma_indexed_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let reference = naive_moving_average(&times, &watts, window_s);
    let ma_naive_ms = start.elapsed().as_secs_f64() * 1e3;
    for i in (0..n).step_by((n / 64).max(1)) {
        let (a, b) = (smooth.sample(i).watts, reference[i]);
        assert!((a - b).abs() <= 1e-7 * b.abs().max(1.0), "moving_average disagrees at {i}");
    }
    ledger.lower("moving_average", "indexed_ms", "ms", ma_indexed_ms);
    ledger.lower("moving_average", "naive_ms", "ms", ma_naive_ms);
    ledger.higher("moving_average", "speedup", "x", ma_naive_ms / ma_indexed_ms).bound(speedup_bar);

    // Percentiles: selection per query vs full sort per query vs the cache.
    let ps = [5.0, 25.0, 50.0, 75.0, 95.0, 99.0];
    let start = Instant::now();
    let mut sel_sink = 0.0;
    for &p in &ps {
        sel_sink += analysis::try_percentile(&trace, p).unwrap().value();
    }
    let selection_us = start.elapsed().as_secs_f64() * 1e6 / ps.len() as f64;
    let start = Instant::now();
    let mut sort_sink = 0.0;
    for &p in &ps {
        sort_sink += naive_percentile(&watts, p);
    }
    let sort_us = start.elapsed().as_secs_f64() * 1e6 / ps.len() as f64;
    assert!((sel_sink - sort_sink).abs() <= 1e-7 * sort_sink.abs().max(1.0));
    ledger.lower("percentile", "selection_us", "us", selection_us);
    ledger.lower("percentile", "full_sort_us", "us", sort_us);
    ledger.lower("percentile", "cached_ns", "ns", cached_percentile_ns(&trace));
    ledger.higher("percentile", "speedup_selection_over_sort", "x", sort_us / selection_us);

    // Fleet: split the trace over 8 nodes, summarize at 1 and N threads.
    let nodes = 8;
    let per = n / nodes;
    let mut set = TraceSet::new();
    for i in 0..nodes {
        let (lo, hi) = (i * per, ((i + 1) * per).min(n));
        let mut node = PowerTrace::with_capacity(hi - lo);
        node.extend_from_slices(&times[lo..hi], &watts[lo..hi]);
        set.push(format!("node{i}"), node);
    }
    let one_pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let start = Instant::now();
    let s1 = one_pool.install(|| set.summarize());
    let fleet_ms_1 = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let sn = set.summarize();
    let fleet_ms_n = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(s1.total_samples, sn.total_samples);
    assert!((s1.total_energy_j - sn.total_energy_j).abs() <= 1e-9 * sn.total_energy_j.abs());
    eprintln!("  fleet summarize: {fleet_ms_1:.1} ms at 1 thread, {fleet_ms_n:.1} ms at N");
    ledger.lower("fleet", "summarize_ms_1t", "ms", fleet_ms_1);
    ledger.speedup_n_over_1("fleet", || fleet_ms_1 / fleet_ms_n);

    ledger.finish();
}

/// Times the [`analysis::PercentileCache`]: one build, then repeated O(1)
/// queries. Returns nanoseconds per query.
fn cached_percentile_ns(trace: &PowerTrace) -> f64 {
    let cache = analysis::PercentileCache::new(trace);
    let queries = 100_000;
    let mut rng = Lcg(0xCAC4E);
    let start = Instant::now();
    let mut sink = 0.0;
    for _ in 0..queries {
        sink += cache.percentile(rng.next_unit() * 100.0).unwrap().value();
    }
    assert!(sink.is_finite());
    start.elapsed().as_nanos() as f64 / queries as f64
}
