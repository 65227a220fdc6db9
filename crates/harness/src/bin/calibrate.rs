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
use tgi_harness::sweep::FIRE_CORE_COUNTS;
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
    for (row, cores) in FIRE_CORE_COUNTS.into_iter().enumerate() {
        println!("cores={cores}");
        for m in sweep.fleet().measurements(row, 0).iter() {
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
    let table = sweep.fleet().run(&reference)?;
    let mean = table.means().iter().position(|&m| m == MeanKind::Arithmetic).expect("paper mean");
    for (w, weighting) in table.weightings().iter().enumerate() {
        let series = table.series("Fire", 0, w, mean).expect("Fire rows");
        let vals: Vec<String> = series.ys().iter().map(|v| format!("{v:.3}")).collect();
        println!("  {:16} {}", weighting.label(), vals.join(" "));
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
