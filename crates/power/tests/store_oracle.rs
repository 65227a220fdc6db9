//! Oracle parity: the on-disk trace store vs. the in-memory prefix index.
//!
//! Builds one randomized trace, persists it, and asserts that every query
//! the store answers is `to_bits`-identical to the in-memory `PowerTrace`
//! over the same samples — while the store's decompression counter proves
//! each energy window touched at most its two boundary chunks.

use power_model::persist::StoreBackedTrace;
use power_model::{anomaly, AnomalyConfig, PowerTrace, TraceQuery};
use std::path::{Path, PathBuf};
use tgi_core::{Joules, Watts};
use tgi_trace_store::chunk::SUB_BLOCK_SAMPLES;
use tgi_trace_store::{StoreConfig, SEGMENT_FILE, WAL_FILE};

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("tgi_store_oracle_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Deterministic splitmix-style generator (no external dependency).
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
}

/// A meter-like trace: mostly fixed cadence with occasional jitter and
/// duplicate timestamps, quantized watts holding levels between phase
/// shifts.
fn synth(n: usize, seed: u64) -> PowerTrace {
    let mut rng = Rng(seed);
    let mut trace = PowerTrace::with_capacity(n);
    let mut t = 0.0f64;
    let mut level = 180.0f64;
    for i in 0..n {
        let r = rng.uniform();
        if i > 0 {
            if r < 0.02 {
                // duplicate timestamp
            } else if r < 0.07 {
                t += 1.0 + (rng.uniform() - 0.5) * 0.25; // jittered tick
            } else {
                t += 1.0; // metronomic tick
            }
        }
        if rng.uniform() < 0.03 {
            level = (80.0 + 400.0 * rng.uniform() * 10.0).round() / 10.0;
        }
        trace.push(t, Watts::new(level));
    }
    trace
}

#[test]
fn store_queries_are_bit_identical_to_memory_oracle() {
    let scratch = ScratchDir::new("parity");
    let trace = synth(40_000, 0xC0FFEE);
    let config = StoreConfig { chunk_samples: 512, retain_seconds: None };
    let backed = StoreBackedTrace::new(trace.to_store(&scratch.0, config).unwrap());
    assert!(backed.store().sealed_chunks() >= 70, "want many chunks for a meaningful test");

    assert_eq!(backed.energy().value().to_bits(), trace.energy().value().to_bits());
    let store = backed.store();
    assert_eq!(store.peak_watts().to_bits(), trace.peak_power().value().to_bits());
    assert_eq!(store.min_watts().to_bits(), trace.min_power().value().to_bits());
    assert_eq!(backed.time_bounds(), trace.time_bounds());

    let (first, last) = trace.time_bounds().unwrap();
    let span = last - first;
    let mut rng = Rng(0xDECAF);
    for case in 0..400 {
        let a = first + span * rng.uniform();
        let b = first + span * rng.uniform();
        store.reset_decompressions();
        let got = backed.energy_between(a, b).unwrap().value();
        let want = trace.energy_between(a, b).value();
        assert_eq!(got.to_bits(), want.to_bits(), "case {case}: energy_between({a}, {b})");
        assert!(
            store.decompressions() <= 2,
            "case {case}: energy_between({a}, {b}) decompressed {} chunks",
            store.decompressions()
        );
        let got = store.power_at(a).unwrap().map(f64::to_bits);
        let want = trace.power_at(a).map(|w| w.value().to_bits());
        assert_eq!(got, want, "case {case}: power_at({a})");
        let got = backed.average_power_between(a, b).unwrap().value();
        let want = trace.average_power_between(a, b).value();
        assert_eq!(got.to_bits(), want.to_bits(), "case {case}: average_power_between({a}, {b})");
    }

    // Exact stored timestamps (chunk edges included) and out-of-range
    // probes behave identically too.
    for idx in [0usize, 511, 512, 513, 8191, 8192, 39_999] {
        let t = trace.times()[idx];
        assert_eq!(
            store.power_at(t).unwrap().map(f64::to_bits),
            trace.power_at(t).map(|w| w.value().to_bits()),
            "power_at stored sample {idx}"
        );
        store.reset_decompressions();
        let got = backed.energy_between(first, t).unwrap().value();
        assert_eq!(got.to_bits(), trace.energy_between(first, t).value().to_bits());
        assert!(store.decompressions() <= 2);
    }
    assert_eq!(store.power_at(first - 1.0).unwrap(), None);
    assert_eq!(store.power_at(last + 1.0).unwrap(), None);
    assert_eq!(
        backed.energy_between(f64::NEG_INFINITY, f64::INFINITY).unwrap().value().to_bits(),
        trace.energy_between(f64::NEG_INFINITY, f64::INFINITY).value().to_bits()
    );
}

#[test]
fn windows_round_trip_through_store() {
    let scratch = ScratchDir::new("window");
    let trace = synth(5_000, 42);
    let config = StoreConfig { chunk_samples: 256, retain_seconds: None };
    let backed = StoreBackedTrace::new(trace.to_store(&scratch.0, config).unwrap());
    let (first, last) = trace.time_bounds().unwrap();
    let span = last - first;
    let mut rng = Rng(7);
    for case in 0..40 {
        let a = first + span * rng.uniform();
        let b = a + span * rng.uniform() * 0.2;
        let w_mem = trace.window(a, b);
        let w_store = backed.window(a, b).unwrap();
        assert_eq!(w_store, w_mem, "case {case}: window({a}, {b})");
        assert_eq!(
            w_store.energy().value().to_bits(),
            w_mem.energy().value().to_bits(),
            "case {case}: window({a}, {b}) energy"
        );
    }
}

#[test]
fn reopened_store_stays_bit_identical() {
    let scratch = ScratchDir::new("reopen");
    let trace = synth(3_000, 99);
    let config = StoreConfig { chunk_samples: 128, retain_seconds: None };
    drop(trace.to_store(&scratch.0, config.clone()).unwrap());
    // A fresh process would see exactly this: recovery from disk alone.
    let backed = StoreBackedTrace::open(&scratch.0, config).unwrap();
    assert_eq!(backed.len(), 3_000);
    assert_eq!(backed.energy().value().to_bits(), trace.energy().value().to_bits());
    let restored = backed.to_trace().unwrap();
    assert_eq!(restored, trace);
    assert_eq!(restored.prefix_energy(), trace.prefix_energy());
}

#[test]
fn zero_duration_traces_and_windows_match_memory() {
    // One sample, and several samples sharing one timestamp: both span
    // zero time, so the average is the plain sample mean in either form.
    let cases: [&[(f64, f64)]; 3] = [
        &[(3.0, 42.5)],
        &[(7.0, 100.0), (7.0, 250.5), (7.0, 80.25)],
        &[(0.0, 120.0), (1.5, 180.0), (4.0, 90.0)],
    ];
    for (case, samples) in cases.iter().enumerate() {
        let scratch = ScratchDir::new(&format!("zero_duration_{case}"));
        let mut trace = PowerTrace::new();
        for &(t, w) in samples.iter() {
            trace.push(t, Watts::new(w));
        }
        let config = StoreConfig { chunk_samples: 2, retain_seconds: None };
        let backed = StoreBackedTrace::new(trace.to_store(&scratch.0, config).unwrap());
        let want = trace.average_power().value();
        let got = TraceQuery::average_power(&backed).unwrap().value();
        assert_eq!(got.to_bits(), want.to_bits(), "case {case}: average_power");
        assert_eq!(
            TraceQuery::duration(&backed).unwrap().value().to_bits(),
            trace.duration().value().to_bits(),
            "case {case}: duration"
        );
    }
    let mean = (100.0 + 250.5 + 80.25) / 3.0;
    let mut shared = PowerTrace::new();
    shared.extend_from_slices(&[7.0, 7.0, 7.0], &[100.0, 250.5, 80.25]);
    assert_eq!(shared.average_power().value(), mean);

    // Zero-width windows: no energy, the interpolated instantaneous power,
    // and a one-sample window — at stored timestamps, chunk edges and
    // mid-segment points alike.
    let scratch = ScratchDir::new("zero_width");
    let trace = synth(2_000, 5);
    let config = StoreConfig { chunk_samples: 64, retain_seconds: None };
    let backed = StoreBackedTrace::new(trace.to_store(&scratch.0, config).unwrap());
    for t in [trace.times()[0], trace.times()[63], trace.times()[64], 100.37, 1_500.5] {
        assert_eq!(backed.energy_between(t, t).unwrap().value(), 0.0, "energy at {t}");
        assert_eq!(
            backed.average_power_between(t, t).unwrap().value().to_bits(),
            trace.average_power_between(t, t).value().to_bits(),
            "average_power_between({t}, {t})"
        );
        assert_eq!(backed.window(t, t).unwrap(), trace.window(t, t), "window({t}, {t})");
        // Windows reaching past either end clamp alike.
        let (a, b) = (t - 1e6, t + 1e6);
        assert_eq!(backed.window(t, b).unwrap(), trace.window(t, b), "window({t}, {b})");
        assert_eq!(
            backed.average_power_between(a, b).unwrap().value().to_bits(),
            trace.average_power_between(a, b).value().to_bits(),
            "average_power_between({a}, {b})"
        );
    }
}

/// A trace of three sealed 10,000-sample chunks — sub-blocks of 4,096,
/// 4,096 and 1,808 samples — and an active tail, with timestamps
/// repeating across two sub-block edges and one chunk edge.
fn sub_block_trace(scratch: &ScratchDir) -> (PowerTrace, StoreBackedTrace, Vec<usize>) {
    let base = synth(32_000, 0xF05E);
    let mut times = base.times().to_vec();
    for i in [SUB_BLOCK_SAMPLES, 10_000 + SUB_BLOCK_SAMPLES, 20_000] {
        times[i] = times[i - 1];
    }
    let mut trace = PowerTrace::new();
    trace.extend_from_slices(&times, base.watts());
    let config = StoreConfig { chunk_samples: 10_000, retain_seconds: None };
    let backed = StoreBackedTrace::new(trace.to_store(&scratch.0, config).unwrap());
    assert_eq!(backed.store().sealed_chunks(), 3);
    let edges = (0..3)
        .flat_map(|c| [0, SUB_BLOCK_SAMPLES, 2 * SUB_BLOCK_SAMPLES, 9_999].map(|k| c * 10_000 + k))
        .flat_map(|i| [i.saturating_sub(1), i, i + 1])
        .chain([30_000, 31_999])
        .collect();
    (trace, backed, edges)
}

#[test]
fn fused_energy_and_average_match_the_separate_reads_bitwise() {
    let scratch = ScratchDir::new("fused");
    let (trace, backed, edges) = sub_block_trace(&scratch);
    let (first, last) = trace.time_bounds().unwrap();
    // Every edge sample (sub-block, chunk and duplicate edges alike), the
    // points just off it — inside a segment or across a chunk gap — and
    // points outside the span.
    let mut probes = vec![first - 5.0, first - 1.0, last + 1.0, last + 5.0];
    for &i in &edges {
        let t = trace.times()[i];
        probes.extend([t, t - 0.3, t + 0.3]);
    }
    let bits = |(e, w): (Joules, Watts)| (e.value().to_bits(), w.value().to_bits());
    let windows = probes.iter().flat_map(|&a| probes.iter().map(move |&b| (a, b)));
    let extremes = [(f64::NEG_INFINITY, f64::INFINITY), (f64::NEG_INFINITY, first - 1.0)];
    for (a, b) in windows.chain(extremes) {
        let separate =
            (backed.energy_between(a, b).unwrap(), backed.average_power_between(a, b).unwrap());
        let fused = TraceQuery::energy_and_average_between(&backed, a, b).unwrap();
        assert_eq!(bits(fused), bits(separate), "stored energy_and_average_between({a}, {b})");
        let memory = trace.energy_and_average_between(a, b);
        assert_eq!(bits(memory), bits(fused), "in-memory energy_and_average_between({a}, {b})");
        let memory_separate = (trace.energy_between(a, b), trace.average_power_between(a, b));
        assert_eq!(bits(memory), bits(memory_separate), "in-memory halves ({a}, {b})");
    }
}

#[test]
fn fused_read_decodes_each_boundary_sub_block_once() {
    let scratch = ScratchDir::new("fused_decodes");
    let (trace, backed, _) = sub_block_trace(&scratch);
    let store = backed.store();
    // Both ends strictly inside sealed sub-blocks: mid-segment, away from
    // every sub-block's first and last sample.
    let (a, b) = (trace.times()[2_000] + 0.5, trace.times()[16_000] + 0.5);
    store.reset_decompressions();
    let fused = TraceQuery::energy_and_average_between(&backed, a, b).unwrap();
    assert_eq!(store.decompressions(), 2, "fused read");
    store.reset_decompressions();
    let separate =
        (backed.energy_between(a, b).unwrap(), backed.average_power_between(a, b).unwrap());
    assert_eq!(store.decompressions(), 4, "separate reads");
    assert_eq!(fused, separate);
}

/// Asserts the stored scan of every `(from, to)` equals the in-memory
/// scan of the oracle's window, and returns how many events they found.
fn assert_scans_match(
    backed: &StoreBackedTrace,
    trace: &PowerTrace,
    windows: &[(Option<f64>, Option<f64>)],
) -> usize {
    let config = AnomalyConfig::default();
    let (first, last) = trace.time_bounds().unwrap();
    let mut events = 0;
    for &(from, to) in windows {
        let stored = backed.scan_anomalies(config, from, to).unwrap();
        let memory =
            anomaly::scan(&trace.window(from.unwrap_or(first), to.unwrap_or(last)), config);
        assert_eq!(format!("{stored:?}"), format!("{memory:?}"), "scan({from:?}, {to:?})");
        events += stored.len();
    }
    events
}

#[test]
fn stored_scans_match_in_memory_scans() {
    let scratch = ScratchDir::new("scan");
    let (trace, backed, edges) = sub_block_trace(&scratch);
    let times = trace.times();
    let (first, last) = trace.time_bounds().unwrap();
    // On stored samples (sub-block, chunk and duplicate edges), between
    // samples (the jittered trace's times are not all integers), and off
    // either end of the span.
    let mut probes = vec![first - 3.0, last + 3.0];
    for &i in &edges {
        probes.extend([times[i], times[i] - 0.3, times[i] + 0.3]);
    }
    probes.sort_by(f64::total_cmp);
    let mut windows: Vec<(Option<f64>, Option<f64>)> = vec![(None, None)];
    for (i, &a) in probes.iter().enumerate() {
        // Zero-width, short and nested windows from every probe.
        windows.push((Some(a), Some(a)));
        windows.extend(probes.get(i + 1..i + 3).into_iter().flatten().map(|&b| (Some(a), Some(b))));
        windows.push((Some(a), Some(probes[probes.len() - 1 - i])));
        windows.extend([(Some(a), None), (None, Some(a))]);
    }
    // Wholly inside the active chunk, wholly outside the span.
    windows.extend([
        (Some(times[30_100] + 0.5), Some(times[31_500] - 0.5)),
        (Some(last + 1.0), Some(last + 9.0)),
        (Some(first - 9.0), Some(first - 1.0)),
    ]);
    let events = assert_scans_match(&backed, &trace, &windows);
    assert!(events > 0, "the meter-like trace raises anomalies to compare");

    // A scan strictly inside one sub-block decodes that one unit once:
    // the window's interpolated ends come from the same decode.
    let store = backed.store();
    let (a, b) = (times[1_000] + 0.5, times[3_000] + 0.5);
    assert!(a != a.floor() && b != b.floor(), "both ends fall between samples");
    store.reset_decompressions();
    backed.scan_anomalies(AnomalyConfig::default(), Some(a), Some(b)).unwrap();
    assert_eq!(store.decompressions(), 1, "scan inside one sub-block");
    store.reset_decompressions();
    assert_eq!(backed.window(a, b).unwrap(), trace.window(a, b));
    assert_eq!(store.decompressions(), 1, "window inside one sub-block");
    // The active chunk and the space outside the span decode nothing.
    store.reset_decompressions();
    let active = (times[30_100] + 0.5, times[31_500] - 0.5);
    backed.scan_anomalies(AnomalyConfig::default(), Some(active.0), Some(active.1)).unwrap();
    backed.scan_anomalies(AnomalyConfig::default(), Some(last + 1.0), None).unwrap();
    assert_eq!(store.decompressions(), 0, "active-chunk and out-of-span scans");
}

/// The stream the store's committed v1 fixture holds
/// (`crates/store/tests/fixtures/v1/`, generated and documented by
/// `fixture_columns` in `crates/store/tests/v1_compat.rs`).
fn v1_fixture_trace() -> PowerTrace {
    let mut state = 0x7431_7631_u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let (mut t, mut level) = (1_000.0f64, 180.0f64);
    let mut trace = PowerTrace::new();
    for i in 0..10_300 {
        let u = next();
        if i > 0 {
            t += if u < 0.02 {
                0.0
            } else if u < 0.07 {
                1.0 + (next() - 0.5) * 0.5
            } else {
                1.0
            };
        }
        let v = next();
        if v < 0.03 {
            level = (800.0 + 3000.0 * next()).round() / 10.0;
        }
        trace.push(t, Watts::new(if v > 0.99 { level + next() * 5.0 } else { level }));
    }
    trace
}

#[test]
fn stored_scans_of_the_v1_fixture_match_in_memory_scans() {
    let scratch = ScratchDir::new("scan_v1");
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../store/tests/fixtures/v1");
    std::fs::create_dir_all(&scratch.0).unwrap();
    for file in [SEGMENT_FILE, WAL_FILE] {
        std::fs::copy(fixture.join(file), scratch.0.join(file)).unwrap();
    }
    let config = StoreConfig { chunk_samples: 5_000, retain_seconds: None };
    let backed = StoreBackedTrace::open(&scratch.0, config).unwrap();
    let trace = v1_fixture_trace();
    assert_eq!(backed.to_trace().unwrap(), trace, "the fixture holds the documented stream");
    let times = trace.times();
    let mut windows = vec![(None, None)];
    for i in [0, 2_500, 4_999, 5_000, 9_999, 10_000, 10_299] {
        let t = times[i];
        windows.extend([(Some(t), Some(t + 400.0)), (Some(t - 0.3), Some(t + 0.3))]);
        windows.extend([(Some(t + 0.3), Some(t + 300.7)), (Some(t - 700.2), Some(t))]);
    }
    let events = assert_scans_match(&backed, &trace, &windows);
    assert!(events > 0, "the fixture raises anomalies to compare");
}
