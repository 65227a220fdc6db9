//! `green500`: the synthetic Green500, seed to published lists.
//!
//! For each seed-derived fleet: `FleetConfig::generate`, a `FleetSweep`
//! over the paper's axes, one `green500_ranking` per (weighting, mean)
//! column, and the CSV. Fleets repeat until the run length is filled.
//! Once per run the paper's figures 2–6 and Tables I–II are regenerated
//! as `tgi-experiments all` does, and the paper's anchors are checked.

use crate::meter::sub_seed;
use crate::report::{self, Outcome};
use crate::spans::{self, maybe_span, Tracer};
use crate::stats::Dist;
use crate::Ctx;
use cluster_sim::{ClusterSpec, ExecutionEngine, FleetConfig, MemoizedEngine, Workload};
use std::time::Instant;
use tgi_core::{EvalScratch, Ranking, ReferenceSystem, TgiEvaluator, Weighting};
use tgi_harness::{experiments, FireSweep, FleetSweep, FleetTable};

pub const SYSTEMS: usize = 2_000;
const SETUP_REPEATS: usize = 3;
/// Fleet index of the warm-up fleet, outside the timed fleets' range.
const WARM_UP: u64 = 1 << 40;
/// The fleet-time percentile reported as the tail: the highest with ten
/// or more fleets beyond it at this fleet size and a 30-second run.
pub const TAIL_Q: f64 = 0.9;

fn sweep_of(fleet: Vec<ClusterSpec>) -> FleetSweep {
    FleetSweep::new().fleet(fleet).suite("fire", Workload::fire_suite()).paper_axes()
}

/// One fleet from seed to published lists.
struct Published {
    sweep: FleetSweep,
    table: FleetTable,
    lists: Vec<Ranking>,
    csv: String,
}

/// Returns the published lists, and when traced, the fleet's specs and
/// the id of the `FleetSweep::run` span.
fn publish(
    seed: u64,
    reference: &ReferenceSystem,
    trace: Option<(&Tracer, u64)>,
) -> (Published, Vec<ClusterSpec>, Option<usize>) {
    let (fleet, _) = maybe_span(trace, "cluster", "cluster.fleet_generate", || {
        FleetConfig::new(seed).systems(SYSTEMS).generate()
    });
    let specs = if trace.is_some() { fleet.clone() } else { Vec::new() };
    let (sweep, _) = maybe_span(trace, "harness", "harness.sweep_build", || sweep_of(fleet));
    let (table, run_id) = maybe_span(trace, "harness", "harness.fleet_run", || {
        sweep.run(reference).expect("fleet evaluates")
    });
    let mut lists = Vec::new();
    for w in 0..table.weightings().len() {
        for m in 0..table.means().len() {
            let (list, _) = maybe_span(trace, "core", "core.ranking", || {
                table.green500_ranking(0, w, m).expect("finite scores")
            });
            lists.push(list);
        }
    }
    let (csv, _) = maybe_span(trace, "harness", "harness.csv", || table.to_csv());
    (Published { sweep, table, lists, csv }, specs, run_id)
}

/// Each list must equal a sort-once oracle over the same column.
fn check_lists(out: &mut Outcome, p: &Published) {
    let t = &p.table;
    let mut k = 0;
    for w in 0..t.weightings().len() {
        for m in 0..t.means().len() {
            let mut want: Vec<(&str, f64)> = t
                .systems()
                .iter()
                .enumerate()
                .map(|(s, n)| (n.as_str(), t.value(s, 0, w, m)))
                .collect();
            want.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then_with(|| a.0.cmp(b.0)));
            let got = p.lists[k].entries();
            let ok = got.len() == want.len()
                && got
                    .iter()
                    .zip(&want)
                    .all(|(g, (n, v))| g.name == *n && g.tgi.to_bits() == v.to_bits());
            out.check(ok, || format!("green500 list ({w}, {m}) differs from the sort-once oracle"));
            k += 1;
        }
    }
    let rows = p.csv.lines().count();
    out.check(rows == t.len() + 1, || format!("csv has {rows} lines for {} cells", t.len()));
}

/// `run` must equal `run_sequential` bit for bit.
fn check_sequential(out: &mut Outcome, p: &Published, reference: &ReferenceSystem) {
    let seq = p.sweep.run_sequential(reference).expect("sequential sweep");
    let ok = seq.values().len() == p.table.values().len()
        && seq.values().iter().zip(p.table.values()).all(|(a, b)| a.to_bits() == b.to_bits());
    out.check(ok, || "parallel fleet sweep differs from run_sequential".into());
}

/// Regenerates figures 2–6 and Tables I–II and checks the paper's
/// anchors: Fire ≈ 90 GFLOPS, SystemG ≈ 8.1 TFLOPS, and Table II's
/// ordering (IOzone and STREAM correlate with TGI(AM) more than HPL).
fn experiments_all(out: &mut Outcome, reference: &ReferenceSystem) -> f64 {
    let started = Instant::now();
    let sweep = FireSweep::run();
    let figures = [
        tgi_harness::fig2_hpl_efficiency(&sweep),
        tgi_harness::fig3_stream_efficiency(&sweep),
        tgi_harness::fig4_iozone_efficiency(&sweep),
        tgi_harness::fig5_tgi_arithmetic(&sweep, reference),
        tgi_harness::fig6_tgi_weighted(&sweep, reference),
    ];
    let tables = [
        tgi_harness::table1_reference_performance(reference),
        tgi_harness::table2_pcc(&sweep, reference),
    ];
    let elapsed = started.elapsed().as_secs_f64();
    let points_ok = figures.iter().all(|f| f.series.iter().all(|s| s.points.len() == 8));
    out.check(points_ok && tables.iter().all(|t| t.rows.len() == 3), || {
        "figures 2-6 / tables I-II did not regenerate in the paper's layout".into()
    });
    let fire = sweep
        .points()
        .last()
        .and_then(|p| p.measurements.iter().find(|m| m.id() == "hpl"))
        .map(|m| m.performance().as_gflops())
        .unwrap_or(0.0);
    out.check((fire - 90.0).abs() < 2.0, || format!("Fire HPL anchor: {fire} GFLOPS"));
    let system_g =
        reference.measurement("hpl").map(|m| m.performance().value() / 1e12).unwrap_or(0.0);
    out.check((system_g - 8.1).abs() < 0.2, || format!("SystemG HPL anchor: {system_g} TFLOPS"));
    let pcc = experiments::pcc_for_weighting(&sweep, reference, Weighting::Arithmetic);
    let (io, st, hpl) = (pcc[0].1, pcc[1].1, pcc[2].1);
    out.check(io > 0.95 && st > 0.90 && hpl < st - 0.1 && hpl < io - 0.1, || {
        format!("Table II ordering: io {io} stream {st} hpl {hpl}")
    });
    elapsed
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    report::machine(out, &ctx.work_dir, rayon_threads(), 0);
    // Set-up: the reference system, and one warm-up fleet published
    // untimed so the thread pool and allocator are warm.
    let mut times = Vec::new();
    let mut reference = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let r = tgi_harness::system_g_reference();
        let (p, ..) = publish(sub_seed(ctx.seed, WARM_UP), &r, None);
        times.push(started.elapsed().as_secs_f64());
        check_lists(out, &p);
        reference = Some(r);
    }
    let reference = reference.expect("reference built");
    out.fact("systems_per_fleet", SYSTEMS);
    if ctx.trace {
        return run_traced(ctx, out, &reference);
    }
    out.set("setup_s", Dist::new(times).median());

    let (mut fleet_s, mut cells) = (Vec::new(), 0usize);
    report::start_timed_phase(out);
    let started = Instant::now();
    let mut first = None;
    for i in 0.. {
        if started.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        let op = Instant::now();
        let (p, ..) = publish(sub_seed(ctx.seed, i), &reference, None);
        fleet_s.push(op.elapsed().as_secs_f64());
        cells += p.table.len();
        check_lists(out, &p);
        if first.is_none() {
            first = Some(p);
        }
    }
    report::end_timed_phase(out);
    let first = first.expect("at least one fleet");
    check_sequential(out, &first, &reference);
    let experiments_s = experiments_all(out, &reference);

    let d = Dist::new(fleet_s.iter().map(|s| s * 1e3).collect());
    out.set("latency_p50_ms", d.median());
    out.set("latency_tail_ms", d.q(TAIL_Q));
    out.set("throughput_per_s", cells as f64 / fleet_s.iter().sum::<f64>());
    out.fact("fleets", d.len());
    out.fact("tail_quantile", TAIL_Q);
    out.fact("supported_quantile", crate::stats::highest_supported_quantile(d.len()));
    out.fact("cells_per_fleet", first.table.len());
    out.fact("experiments_all_s", experiments_s);
}

fn rayon_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The traced run: half the time untraced fleets, half traced ones, each
/// traced fleet followed by a mirror that simulates and scores every
/// system call by call for the sweep's inner layers.
fn run_traced(ctx: &Ctx, out: &mut Outcome, reference: &ReferenceSystem) {
    let half = ctx.seconds / 2.0;
    let mut untraced = Vec::new();
    let started = Instant::now();
    let mut i = 0;
    while started.elapsed().as_secs_f64() < half {
        let op = Instant::now();
        let (p, ..) = publish(sub_seed(ctx.seed, i), reference, None);
        untraced.push(op.elapsed().as_secs_f64());
        check_lists(out, &p);
        i += 1;
    }
    let tracer = Tracer::default();
    let suite = Workload::fire_suite();
    let mut traced = Vec::new();
    let mut first: Option<Published> = None;
    let (mut ns_per_cell, mut eval_calls) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut op = 0u64;
    while started.elapsed().as_secs_f64() < half || traced.is_empty() {
        let t0 = Instant::now();
        let (p, specs, run_id) = publish(sub_seed(ctx.seed, op), reference, Some((&tracer, op)));
        traced.push(t0.elapsed().as_secs_f64());
        check_lists(out, &p);
        // Mirror: simulate and score every system as the sweep does.
        let evaluator = TgiEvaluator::new(reference);
        let mut scratch = EvalScratch::default();
        let mut cells = Vec::new();
        let (weightings, means) = (p.table.weightings().to_vec(), p.table.means().to_vec());
        let mut eval_s = 0.0;
        for spec in specs {
            let cores = spec.total_cores();
            let engine = MemoizedEngine::new(ExecutionEngine::new(spec));
            let t = Instant::now();
            let m = engine.suite_measurements(&suite, cores);
            tracer.record(op, run_id, "cluster", "cluster.simulate", t.elapsed().as_secs_f64());
            let t = Instant::now();
            evaluator
                .evaluate_cells_into(&m, &weightings, &means, &mut scratch, &mut cells)
                .expect("cells");
            let d = t.elapsed().as_secs_f64();
            tracer.record(op, run_id, "core", "core.evaluate_cells", d);
            eval_s += d;
            eval_calls.push(d);
        }
        ns_per_cell.push(eval_s * 1e9 / p.table.len() as f64);
        if first.is_none() {
            first = Some(p);
        }
        op += 1;
    }
    let first = first.expect("one traced fleet");
    check_sequential(out, &first, reference);
    let (hits, misses) = first.sweep.memo_stats();
    out.set("cluster.simulations", misses as f64);
    out.set("cluster.duplicate_simulations", first.sweep.duplicate_simulations() as f64);
    out.set("cluster.memo_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    let cell = first.sweep.cell_latency();
    out.set("harness.cell_latency_p50_us", cell.p50 * 1e6);
    out.set("harness.cell_latency_p99_us", cell.p99 * 1e6);
    let experiments_s = experiments_all(out, reference);
    out.set("harness.experiments_all_s", experiments_s);

    let spans = tracer.into_spans();
    let per_fleet =
        |name: &str| spans::durations(&spans, name).iter().sum::<f64>() / traced.len() as f64;
    out.set("cluster.fleet_generate_s", per_fleet("cluster.fleet_generate"));
    out.set("harness.fleet_run_s", per_fleet("harness.fleet_run"));
    out.set("harness.csv_s", per_fleet("harness.csv"));
    out.set("core.ranking_s", per_fleet("core.ranking"));
    out.set("core.ns_per_cell", Dist::new(ns_per_cell).median());
    out.set("core.evaluate_into_ns", Dist::new(eval_calls).median() * 1e9);
    out.attribute(&spans, traced.len(), traced.iter().sum());
    out.set(
        "trace.overhead_ratio",
        Dist::new(traced).median() / Dist::new(untraced).median() - 1.0,
    );
}
