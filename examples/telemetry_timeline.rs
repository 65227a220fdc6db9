//! Observability quickstart: record a full run timeline and metrics.
//!
//! ```sh
//! cargo run --release --example telemetry_timeline
//! ```
//!
//! Installs the telemetry collector, runs a small simulated suite plus a
//! Fire core-count sweep, then writes `results/trace.json` (Chrome `trace_event`
//! JSON — drag it into <https://ui.perfetto.dev> or `chrome://tracing`)
//! and `results/metrics.prom` (Prometheus text exposition), and prints
//! the end-of-run span/metric summary.

use tgi::cluster::{ClusterSpec, ExecutionEngine, Workload};
use tgi::harness::{system_g_reference, FleetSweep};
use tgi::suite::{BenchmarkSuite, SimulatedBenchmark, SuiteRunner};

fn main() {
    assert!(
        tgi::telemetry::install(),
        "collector must install (build without --no-default-features)"
    );

    // A small simulated suite: the paper's three benchmarks on Fire,
    // two repeats each, run through the resilient SuiteRunner.
    let cluster = ClusterSpec::fire();
    let suite = BenchmarkSuite::new()
        .with(SimulatedBenchmark::new(cluster.clone(), Workload::fire_suite()[0], 64))
        .with(SimulatedBenchmark::new(cluster.clone(), Workload::fire_suite()[1], 64))
        .with(SimulatedBenchmark::new(cluster.clone(), Workload::fire_suite()[2], 8));
    let report = SuiteRunner::new().repeats(2).run(&suite);
    println!("suite: {} items, {} succeeded", report.entries.len(), report.measurements().len());

    // A core-count sweep on top: parallel evaluation plus memoized
    // simulations, so the timeline shows pool activity and the memo
    // counters move.
    let sweep = [32, 64, 128]
        .into_iter()
        .fold(FleetSweep::new(), |sweep, cores| {
            sweep.system_at(ExecutionEngine::new(ClusterSpec::fire()), cores)
        })
        .suite("fire", Workload::fire_suite())
        .paper_axes();
    let table = sweep.run(&system_g_reference()).expect("sweep evaluates");
    let (hits, misses) = sweep.memo_stats();
    println!("sweep: {} cells ({misses} simulations, {hits} memo hits)", table.len());

    // Stop recording and export.
    let events = tgi::telemetry::uninstall();
    let snapshot = tgi::telemetry::metrics::snapshot();
    tgi::telemetry::export::write_chrome_trace("results/trace.json", &events)
        .expect("write results/trace.json");
    tgi::telemetry::export::write_prometheus("results/metrics.prom", &snapshot)
        .expect("write results/metrics.prom");
    println!(
        "wrote results/trace.json ({} events; open in chrome://tracing or ui.perfetto.dev)",
        events.len()
    );
    println!("wrote results/metrics.prom");
    println!();
    print!("{}", tgi::telemetry::summary(&events, &snapshot));
}
