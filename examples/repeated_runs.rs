//! Repeated runs and error bars on TGI.
//!
//! ```sh
//! cargo run --release --example repeated_runs
//! ```
//!
//! One run of a noisy system is not a result: benchmarking methodology
//! (Green500 run rules, SPEC medians) demands repeats. This example runs
//! the native suite several times, aggregates each benchmark's repeats
//! into a [`MeasurementSet`], and reports TGI with a propagated ±2σ
//! interval — the honest way to publish a Green Index.

use tgi::core::repeats::{self, MeasurementSet};
use tgi::prelude::*;
use tgi::suite::SuiteSpec;

const REPEATS: usize = 5;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = SuiteSpec::quick();

    // Reference: one suite run promoted to the reference system.
    let reference = spec.build()?.run_as_reference("this-machine")?;

    // Repeats, grouped per benchmark.
    let mut sets: Vec<MeasurementSet> = Vec::new();
    for round in 0..REPEATS {
        eprintln!("round {}/{}...", round + 1, REPEATS);
        for m in spec.build()?.run_all()? {
            match sets.iter_mut().find(|s| s.id() == m.id()) {
                Some(set) => set.push(m)?,
                None => {
                    let mut set = MeasurementSet::new(m.id());
                    set.push(m)?;
                    sets.push(set);
                }
            }
        }
    }

    println!("\nper-benchmark run-to-run dispersion ({REPEATS} runs):");
    println!("{:<10} {:>14} {:>12} {:>8}", "benchmark", "mean EE", "std EE", "CoV");
    for set in &sets {
        println!(
            "{:<10} {:>14.4e} {:>12.4e} {:>7.2}%",
            set.id(),
            set.ee_mean()?,
            set.ee_std()?,
            set.ee_cov()? * 100.0
        );
    }

    for weighting in [Weighting::Arithmetic, Weighting::Energy] {
        let t = repeats::tgi_with_uncertainty(&reference, &sets, weighting.clone())?;
        let (lo, hi) = t.interval95();
        println!(
            "\nTGI ({:<15}) = {:.4} ± {:.4}  (95% ≈ [{:.4}, {:.4}])",
            weighting.to_string(),
            t.value(),
            2.0 * t.std_dev,
            lo,
            hi
        );
    }
    println!(
        "\nSelf-comparison: the interval should bracket 1.0 — if it does not, the\n\
         machine's behaviour drifted between the reference run and the repeats."
    );
    Ok(())
}
