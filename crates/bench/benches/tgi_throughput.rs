//! TGI evaluation throughput baseline: the reusable [`TgiEvaluator`] batch
//! path vs a clone-per-evaluation `Tgi::builder` loop, written to
//! `BENCH_tgi.json` at the repository root (override the path with
//! `TGI_BENCH_OUT`, the evaluation count with `TGI_EVAL_BENCH_N`).
//!
//! The committed JSON documents the PR's win: the evaluator resolves the
//! reference once, reuses scratch buffers, and allocates nothing per call,
//! while the builder baseline pays a reference clone, a measurement-vector
//! clone, weight/REE vectors, and a contribution vector on every single
//! evaluation. Before any timing, the bench asserts the two paths agree to
//! the last bit on every (suite, weighting, mean) cell it will run. A
//! second section times a (cluster × cores) [`FleetSweep`] cold
//! (simulating) and warm (memoized), Fire vs Fire-GPU at every paper core
//! count against SystemG.

use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;
use tgi_core::evaluator::{EvalScratch, TgiEvaluator};
use tgi_core::{MeanKind, Measurement, Perf, ReferenceSystem, Seconds, Tgi, Watts, Weighting};
use tgi_harness::sweep::FIRE_CORE_COUNTS;
use tgi_harness::{system_g_reference, FleetSweep};

#[derive(Serialize)]
struct Machine {
    available_parallelism: usize,
}

#[derive(Serialize)]
struct BatchEval {
    evaluations: usize,
    suite_len: usize,
    evaluator_evals_per_sec: f64,
    builder_evals_per_sec: f64,
    evaluator_ns_per_eval: f64,
    builder_ns_per_eval: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct Grid {
    clusters: usize,
    core_points: usize,
    cells: usize,
    cold_ms: f64,
    warm_ms: f64,
    memo_hits: usize,
    memo_misses: usize,
    cold_over_warm: f64,
}

#[derive(Serialize)]
struct Baseline {
    machine: Machine,
    batch_eval: BatchEval,
    grid: Grid,
}

/// Deterministic pseudo-random stream (SplitMix-style LCG).
struct Lcg(u64);

impl Lcg {
    fn next_unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

const SUITE_LEN: usize = 12;
const N_SUITES: usize = 128;

fn measurement(id: &str, perf: f64, watts: f64, secs: f64) -> Measurement {
    Measurement::new(id, Perf::gflops(perf), Watts::new(watts), Seconds::new(secs))
        .expect("synthetic quantities are valid")
}

/// A 12-benchmark reference plus `N_SUITES` perturbed suites over the same
/// ids — the shape of a Green500-style submission sweep.
fn synth_workload() -> (ReferenceSystem, Vec<Vec<Measurement>>) {
    let mut rng = Lcg(0x9E11);
    let ids: Vec<String> = (0..SUITE_LEN).map(|i| format!("bench-{i:02}")).collect();
    let mut builder = ReferenceSystem::builder("synth-ref");
    let mut base = Vec::with_capacity(SUITE_LEN);
    for id in &ids {
        let (p, w, t) = (
            10.0 + 500.0 * rng.next_unit(),
            500.0 + 3000.0 * rng.next_unit(),
            30.0 + 600.0 * rng.next_unit(),
        );
        base.push((p, w, t));
        builder = builder.benchmark(measurement(id, p, w, t));
    }
    let reference = builder.build().expect("non-empty");
    let suites = (0..N_SUITES)
        .map(|_| {
            ids.iter()
                .zip(&base)
                .map(|(id, &(p, w, t))| {
                    let jitter = |v: f64, rng: &mut Lcg| v * (0.5 + rng.next_unit());
                    measurement(id, jitter(p, &mut rng), jitter(w, &mut rng), jitter(t, &mut rng))
                })
                .collect()
        })
        .collect();
    (reference, suites)
}

fn output_path() -> PathBuf {
    if let Ok(p) = std::env::var("TGI_BENCH_OUT") {
        return PathBuf::from(p);
    }
    // crates/bench/ → repository root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join("BENCH_tgi.json")
}

fn main() {
    let n: usize =
        std::env::var("TGI_EVAL_BENCH_N").ok().and_then(|v| v.parse().ok()).unwrap_or(10_000);
    let n_threads = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
    eprintln!("tgi_throughput: {n} evaluations, {n_threads} thread(s) available");

    let (reference, suites) = synth_workload();
    let weightings = [Weighting::Arithmetic, Weighting::Time, Weighting::Energy, Weighting::Power];
    let means = [MeanKind::Arithmetic, MeanKind::Geometric, MeanKind::Harmonic];
    let evaluator = TgiEvaluator::new(&reference);
    let mut scratch = EvalScratch::with_capacity(SUITE_LEN);

    // The evaluation schedule: cycle (suite, weighting, mean) to n entries.
    let combos = suites.len() * weightings.len() * means.len();
    let cell = |k: usize| {
        let suite = &suites[k % suites.len()];
        let weighting = &weightings[(k / suites.len()) % weightings.len()];
        let mean = means[(k / (suites.len() * weightings.len())) % means.len()];
        (suite, weighting, mean)
    };

    // Correctness gate: both paths agree to the last bit on every distinct
    // cell before any timing is trusted.
    for k in 0..combos {
        let (suite, weighting, mean) = cell(k);
        let fast = evaluator.evaluate_into(suite, weighting, mean, &mut scratch).expect("valid");
        let slow = Tgi::builder()
            .reference(reference.clone())
            .weighting(weighting.clone())
            .mean(mean)
            .measurements(suite.iter().cloned())
            .compute()
            .expect("valid")
            .value();
        assert_eq!(fast.to_bits(), slow.to_bits(), "paths disagree on cell {k}");
    }

    // Batch path: one evaluator + one scratch across the whole grid. Each
    // suite's full weighting × mean block goes through
    // `evaluate_cells_into`, so the reference resolution and the REE
    // vector are computed once per suite and shared by all of its cells.
    let cells_per_suite = weightings.len() * means.len();
    let blocks = n.div_ceil(cells_per_suite);
    let evals = blocks * cells_per_suite;
    let mut cells_out = Vec::with_capacity(cells_per_suite);
    let start = Instant::now();
    let mut fast_sink = 0.0;
    for b in 0..blocks {
        let suite = &suites[b % suites.len()];
        evaluator
            .evaluate_cells_into(suite, &weightings, &means, &mut scratch, &mut cells_out)
            .expect("valid");
        fast_sink += cells_out.iter().sum::<f64>();
    }
    let eval_secs = start.elapsed().as_secs_f64();

    // Baseline: the pre-PR shape — a fresh builder per cell, cloning the
    // reference, the weighting, and every measurement, and re-deriving the
    // reference efficiencies and REEs each time.
    let start = Instant::now();
    let mut slow_sink = 0.0;
    for b in 0..blocks {
        let suite = &suites[b % suites.len()];
        let mut block = 0.0;
        for weighting in &weightings {
            for &mean in &means {
                block += Tgi::builder()
                    .reference(reference.clone())
                    .weighting(weighting.clone())
                    .mean(mean)
                    .measurements(suite.iter().cloned())
                    .compute()
                    .expect("valid")
                    .value();
            }
        }
        slow_sink += block;
    }
    let builder_secs = start.elapsed().as_secs_f64();
    assert!((fast_sink - slow_sink).abs() <= 1e-12 * slow_sink.abs(), "timed sums must agree");

    let speedup = builder_secs / eval_secs;
    let batch_eval = BatchEval {
        evaluations: evals,
        suite_len: SUITE_LEN,
        evaluator_evals_per_sec: evals as f64 / eval_secs,
        builder_evals_per_sec: evals as f64 / builder_secs,
        evaluator_ns_per_eval: eval_secs * 1e9 / evals as f64,
        builder_ns_per_eval: builder_secs * 1e9 / evals as f64,
        speedup,
    };
    eprintln!(
        "  batch eval: {:.2e}/s vs builder {:.2e}/s ({speedup:.1}x)",
        batch_eval.evaluator_evals_per_sec, batch_eval.builder_evals_per_sec
    );

    // The evaluator must never lose to the builder; at the acceptance size
    // the bar is 10x.
    assert!(speedup >= 1.0, "evaluator slower than clone-per-eval builder");
    if evals >= 10_000 {
        assert!(speedup >= 10.0, "evaluator below the 10x bar: {speedup:.2}x");
    }

    // Grid sweep: one row per (cluster, cores) point. The cold run
    // simulates every row; the warm rerun answers every one of the same
    // cells from the memo cache.
    let mut sweep = FleetSweep::new();
    for spec in [cluster_sim::ClusterSpec::fire(), cluster_sim::ClusterSpec::fire_gpu()] {
        for cores in FIRE_CORE_COUNTS {
            sweep = sweep.system_at(spec.clone(), cores);
        }
    }
    let sweep = sweep.suite("fire", cluster_sim::Workload::fire_suite()).paper_axes();
    let reference = system_g_reference();
    let start = Instant::now();
    let cold = sweep.run(&reference).expect("grid evaluates");
    let cold_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let warm = sweep.run(&reference).expect("grid evaluates");
    let warm_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(cold, warm, "memoized rerun must reproduce the grid exactly");
    let (memo_hits, memo_misses) = sweep.memo_stats();
    assert_eq!(memo_misses, 2 * FIRE_CORE_COUNTS.len(), "cold run simulates each point once");
    let grid = Grid {
        clusters: 2,
        core_points: FIRE_CORE_COUNTS.len(),
        cells: cold.len(),
        cold_ms,
        warm_ms,
        memo_hits,
        memo_misses,
        cold_over_warm: cold_ms / warm_ms,
    };
    eprintln!(
        "  grid: {} cells cold {cold_ms:.2} ms, warm {warm_ms:.2} ms ({:.1}x)",
        grid.cells, grid.cold_over_warm
    );

    let baseline =
        Baseline { machine: Machine { available_parallelism: n_threads }, batch_eval, grid };
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    let path = output_path();
    std::fs::write(&path, json + "\n").expect("baseline file writable");
    eprintln!("tgi_throughput: wrote {}", path.display());
}
