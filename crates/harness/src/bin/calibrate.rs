//! `calibrate` — diagnostic dump for tuning the cluster scaling models.
//!
//! Prints, for every Fire sweep point: per-benchmark performance, power,
//! time, energy, EE, and REE; then each weighting's TGI series and the full
//! PCC matrix. Used to keep the simulator calibrated to the paper's anchor
//! points and correlation pattern (see DESIGN.md §6).
//!
//! CLI contract (PR 5 convention): `--help` is an answer, not an error —
//! stdout, exit 0. Parse errors print usage to stderr and exit 2. Runtime
//! failures (a sweep point the reference cannot score) are reported on
//! stderr with exit 1 — never a panic.

use tgi_core::{MeanKind, Weighting};
use tgi_harness::{experiments, FireSweep};

const USAGE: &str = "\
usage: calibrate [--help]

Dumps the Fire sweep calibration detail: per-benchmark REE against the
SystemG reference, every weighting's TGI series, and the PCC matrix.

options:
  -h, --help   print this help and exit
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    if let Some(unknown) = args.first() {
        eprintln!("unknown argument `{unknown}`");
        eprint!("{USAGE}");
        std::process::exit(2);
    }
    if let Err(e) = run() {
        eprintln!("calibrate failed: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), tgi_core::TgiError> {
    let reference = experiments::system_g_reference();
    println!("reference: {}", reference.name());
    for (id, m) in reference.iter() {
        println!(
            "  {:8} perf={:>16} power={:>9} time={:>9} ee={:.4e}",
            id,
            m.performance().to_string(),
            m.power().to_string(),
            m.time().to_string(),
            m.energy_efficiency()
        );
    }

    let sweep = FireSweep::run();
    println!("\nsweep detail:");
    for p in sweep.points() {
        println!("cores={}", p.cores);
        for m in &p.measurements {
            let ree = reference.ree(m)?;
            println!(
                "  {:8} perf={:>16} power={:>9} time={:>10} energy={:>11} ee={:.4e} ree={:.4}",
                m.id(),
                m.performance().to_string(),
                m.power().to_string(),
                m.time().to_string(),
                m.energy().to_string(),
                m.energy_efficiency(),
                ree
            );
        }
    }

    println!("\nTGI series:");
    for w in [Weighting::Arithmetic, Weighting::Time, Weighting::Energy, Weighting::Power] {
        let series = sweep.tgi_values(&reference, &w, MeanKind::Arithmetic)?;
        let vals: Vec<String> = series.iter().map(|v| format!("{v:.3}")).collect();
        println!("  {:16} {}", w.label(), vals.join(" "));
    }

    println!("\nPCC matrix (rows: benchmark EE, cols: weighting):");
    println!("  {:8} {:>7} {:>7} {:>7} {:>7}", "", "AM", "time", "energy", "power");
    let cols: Vec<Vec<(String, f64)>> =
        [Weighting::Arithmetic, Weighting::Time, Weighting::Energy, Weighting::Power]
            .into_iter()
            .map(|w| experiments::pcc_for_weighting(&sweep, &reference, w))
            .collect();
    for i in 0..3 {
        print!("  {:8}", cols[0][i].0);
        for c in &cols {
            print!(" {:>7.3}", c[i].1);
        }
        println!();
    }
    Ok(())
}
