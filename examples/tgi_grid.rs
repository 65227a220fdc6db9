//! The full TGI study grid in one shot: Fire vs Fire-GPU, every weighting
//! scheme × every mean kind, across the paper's core-count sweep.
//!
//! ```sh
//! cargo run --release --example tgi_grid
//! ```
//!
//! Figures 5/6 and Table II each slice one axis of the same underlying
//! question. A `FleetSweep` with one row per (cluster, cores) point
//! evaluates the whole (cluster × cores × weighting × mean) grid at once:
//! cluster simulations are memoized per (workload set, cores), the rows
//! run in parallel, and every cell is bit-identical to the equivalent
//! `Tgi::builder` call.

use tgi::cluster::{ClusterSpec, ExecutionEngine, Workload};
use tgi::harness::sweep::FIRE_CORE_COUNTS;
use tgi::harness::{system_g_reference, FleetSweep};

fn main() {
    let mut sweep = FleetSweep::new();
    for spec in [ClusterSpec::fire(), ClusterSpec::fire_gpu()] {
        for cores in FIRE_CORE_COUNTS {
            sweep = sweep.system_at(ExecutionEngine::new(spec.clone()), cores);
        }
    }
    let sweep = sweep.suite("fire", Workload::fire_suite()).paper_axes();

    let reference = system_g_reference();
    let table = sweep.run(&reference).expect("grid evaluates against SystemG");
    let (hits, misses) = sweep.memo_stats();
    println!(
        "{} cells = {} (cluster, cores) rows x {} weightings x {} means \
         ({misses} simulations run, {hits} memo hits)\n",
        table.len(),
        table.systems().len(),
        table.weightings().len(),
        table.means().len(),
    );

    // The paper's headline slice: every weighting × mean table at full scale.
    let full = *FIRE_CORE_COUNTS.last().expect("non-empty axis");
    for cluster in ["Fire", "Fire-GPU"] {
        println!("{}", table.table_at(cluster, full, 0).expect("row exists").to_text());
    }

    // And the Figure-5 shape for the arithmetic cell, one series per cluster.
    println!("{}", table.figure(0, 0, 0).to_text());
}
