//! TGI evaluation throughput baseline: the reusable [`TgiEvaluator`] batch
//! path vs a clone-per-evaluation `Tgi::builder` loop, written to the
//! `BENCH_tgi.json` ledger (2,000 evaluations under `TGI_BENCH_SMOKE`).
//!
//! The committed ledger documents the PR's win: the evaluator resolves the
//! reference once, reuses scratch buffers, and allocates nothing per call,
//! while the builder baseline pays a reference clone, a measurement-vector
//! clone, weight/REE vectors, and a contribution vector on every single
//! evaluation. Before any timing, the bench asserts the two paths agree to
//! the last bit on every (suite, weighting, mean) cell it will run. A
//! second section times a (cluster × cores) [`FleetSweep`] cold
//! (simulating) and warm (memoized), Fire vs Fire-GPU at every paper core
//! count against SystemG.

use std::time::Instant;
use tgi_bench::{Lcg, Ledger};
use tgi_core::evaluator::{EvalScratch, TgiEvaluator};
use tgi_core::{MeanKind, Measurement, Perf, ReferenceSystem, Seconds, Tgi, Watts, Weighting};
use tgi_harness::sweep::FIRE_CORE_COUNTS;
use tgi_harness::{system_g_reference, FleetSweep};

/// Evaluations timed on each path: (full, smoke).
const EVALUATIONS: (usize, usize) = (10_000, 2_000);
/// Floor on the evaluator's speedup over the builder: (full, smoke).
const SPEEDUP_BAR: (f64, f64) = (10.0, 1.0);
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

fn main() {
    let mut ledger = Ledger::new("tgi_throughput");
    let n = ledger.pick(EVALUATIONS);
    let speedup_bar = ledger.pick(SPEEDUP_BAR);
    let n_threads = ledger.machine.available_parallelism;
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
    eprintln!(
        "  batch eval: {:.2e}/s vs builder {:.2e}/s ({speedup:.1}x)",
        evals as f64 / eval_secs,
        evals as f64 / builder_secs
    );
    ledger.lower("batch_eval", "evaluator_ns_per_eval", "ns", eval_secs * 1e9 / evals as f64);
    ledger.lower("batch_eval", "builder_ns_per_eval", "ns", builder_secs * 1e9 / evals as f64);
    // The evaluator must never lose to the builder; at full size the bar
    // is 10x.
    ledger.higher("batch_eval", "speedup", "x", speedup).bound(speedup_bar);

    // Grid sweep: one row per (cluster, cores) point. The cold run
    // simulates every row; the warm rerun answers every one of the same
    // cells from the memo cache.
    let mut sweep = FleetSweep::new();
    for spec in [cluster_sim::ClusterSpec::fire(), cluster_sim::ClusterSpec::fire_gpu()] {
        for cores in FIRE_CORE_COUNTS {
            sweep = sweep.system_at(cluster_sim::ExecutionEngine::new(spec.clone()), cores);
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
    eprintln!(
        "  grid: {} cells cold {cold_ms:.2} ms, warm {warm_ms:.2} ms ({:.1}x)",
        cold.len(),
        cold_ms / warm_ms
    );
    ledger.lower("grid", "cold_ms", "ms", cold_ms);
    ledger.lower("grid", "warm_ms", "ms", warm_ms);
    ledger.higher("grid", "memo_hits", "count", memo_hits as f64).deterministic();
    ledger.lower("grid", "memo_misses", "count", memo_misses as f64).deterministic();
    ledger.finish();
}
