//! The seven-test suite: TGI over an HPCC-style benchmark set.
//!
//! ```sh
//! cargo run --release --example hpcc_suite
//! ```
//!
//! §I of the paper holds up the HPC Challenge suite (seven tests) as the
//! performance-side model for multi-component benchmarking, and §II makes
//! TGI explicitly open-ended: "TGI is neither limited by the metrics used
//! in each benchmark nor by the number of benchmarks." This example runs
//! all seven native kernels — HPL, DGEMM, STREAM, PTRANS, RandomAccess,
//! FFT, and the b_eff-style communication test — and aggregates them into
//! one Green Index, with per-benchmark weights surfaced so the 7-way
//! decomposition is visible.

use tgi::prelude::*;
use tgi::suite::{SuiteRunner, SuiteSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = SuiteSpec::hpcc_style();
    println!("running the 7-test HPCC-style suite natively...\n");

    // Reference: this machine's own first pass (SPEC-style self-reference;
    // swap in a community reference file via `tgi-native --reference`).
    let reference = spec.build()?.run_as_reference("first-pass")?;
    // Second pass through the resilient runner: one retry for transient
    // I/O errors, and a report that records attempts per benchmark.
    let report = SuiteRunner::new().retries(1).run(&spec.build()?);
    let attempts: usize = report.entries.iter().map(|e| e.attempts).sum();
    let measurements = report.into_result()?;
    println!("second pass took {attempts} attempts across {} tests\n", measurements.len());

    println!(
        "{:<8} {:>12} {:>18} {:>12} {:>14}",
        "test", "subsystem", "performance", "power", "EE (unit/W)"
    );
    let subsystems = ["cpu", "cpu", "memory", "memory", "memory", "cpu+memory", "network"];
    for (m, sub) in measurements.iter().zip(subsystems) {
        println!(
            "{:<8} {:>12} {:>18} {:>12} {:>14.4e}",
            m.id(),
            sub,
            m.performance().to_string(),
            m.power().to_string(),
            m.energy_efficiency()
        );
    }

    let tgi = Tgi::builder().reference(reference).measurements(measurements).compute()?;
    println!("\nTGI over all seven tests = {:.4} (second pass vs first pass)", tgi.value());
    println!("\nper-test decomposition (weight × REE = contribution):");
    for c in tgi.contributions() {
        println!(
            "  {:<8} w={:.4}  REE={:.4}  -> {:.4}",
            c.benchmark, c.weight, c.ree, c.contribution
        );
    }
    if let Some(worst) = tgi.least_efficient() {
        println!(
            "\nleast-repeatable subsystem this run: {} (REE {:.3})",
            worst.benchmark, worst.ree
        );
    }
    Ok(())
}
