//! `tgi-experiments` — regenerate the paper's figures and tables.
//!
//! ```text
//! tgi-experiments all              # every artifact, text to stdout
//! tgi-experiments fig2 … fig6      # one figure
//! tgi-experiments table1 table2    # one table
//! tgi-experiments extensions       # §VI future-work experiments
//! tgi-experiments list             # Green500-style side-by-side list
//! tgi-experiments --csv <dir> all  # also write CSV files into <dir>
//! tgi-experiments --json <file> all # also write one JSON bundle
//! tgi-experiments --markdown <file> all # also write a Markdown report
//! ```

use std::path::{Path, PathBuf};
use tgi_harness::{
    extensions, fig2_hpl_efficiency, fig3_stream_efficiency, fig4_iozone_efficiency,
    fig5_tgi_arithmetic, fig6_tgi_weighted, system_g_reference, table1_reference_performance,
    table2_pcc, ExperimentBundle, FigureData, FireSweep, TableData,
};

const USAGE: &str = "\
usage: tgi-experiments [options] [artifact...]

artifacts: fig2 fig3 fig4 fig5 fig6 table1 table2 list extensions all
(default: all)

options:
  --csv <dir>        also write one CSV file per artifact into <dir>
  --json <file>      also write one JSON bundle
  --markdown <file>  also write a Markdown report
  -h, --help         print this help and exit
";

/// Parse error: usage on stderr, exit 2 (PR 5 CLI convention).
fn parse_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprint!("{USAGE}");
    std::process::exit(2);
}

/// Removes `flag <value>` from `args` and returns the value as a path.
fn take_path(args: &mut Vec<String>, flag: &str, what: &str) -> Option<PathBuf> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        parse_error(&format!("{flag} requires a {what} argument"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Some(PathBuf::from(value))
}

/// Writes `contents` to `path`, or reports the error and exits 1.
fn write_or_exit(path: &Path, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", path.display());
}

/// Unwraps an artifact, or reports `what failed: error` and exits 1.
fn or_exit<T>(what: &str, result: Result<T, tgi_core::TgiError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{what} failed: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    let csv_dir = take_path(&mut args, "--csv", "directory");
    let json_path = take_path(&mut args, "--json", "file");
    let md_path = take_path(&mut args, "--markdown", "file");
    if let Some(unknown) = args.iter().find(|a| a.starts_with('-')) {
        parse_error(&format!("unknown argument `{unknown}`"));
    }
    if args.is_empty() {
        args.push("all".to_string());
    }
    const KNOWN: [&str; 10] =
        ["fig2", "fig3", "fig4", "fig5", "fig6", "table1", "table2", "list", "extensions", "all"];
    if let Some(bad) = args.iter().find(|a| !KNOWN.contains(&a.as_str())) {
        parse_error(&format!("unknown artifact `{bad}`"));
    }

    let want = |name: &str| args.iter().any(|a| a == name || a == "all");

    eprintln!("running SystemG reference experiments (1024 cores)...");
    let reference = system_g_reference();
    eprintln!("running Fire core-count sweep (16..128 cores x 3 benchmarks)...");
    let sweep = FireSweep::run();

    let mut figures: Vec<FigureData> = Vec::new();
    let mut tables: Vec<TableData> = Vec::new();

    if want("fig2") {
        figures.push(fig2_hpl_efficiency(&sweep));
    }
    if want("fig3") {
        figures.push(fig3_stream_efficiency(&sweep));
    }
    if want("fig4") {
        figures.push(fig4_iozone_efficiency(&sweep));
    }
    if want("fig5") {
        figures.push(fig5_tgi_arithmetic(&sweep, &reference));
    }
    if want("fig6") {
        figures.push(fig6_tgi_weighted(&sweep, &reference));
    }
    if want("table1") {
        tables.push(table1_reference_performance(&reference));
    }
    if want("table2") {
        tables.push(table2_pcc(&sweep, &reference));
    }
    if args.iter().any(|a| a == "list") {
        eprintln!("scoring the built-in fleet under FLOPS/W and TGI...");
        tables.push(or_exit("list", extensions::green500_style_list(&reference)));
    }
    if args.iter().any(|a| a == "extensions") {
        eprintln!("running extension experiments (GPU platform, cooling, DVFS)...");
        tables.push(or_exit("gpu extension", extensions::gpu_platform_comparison(&reference)));
        tables.push(or_exit("cooling extension", extensions::center_wide_tgi(&reference)));
        tables.push(or_exit("mean ablation", extensions::mean_ablation(&reference)));
        figures.push(or_exit("dvfs extension", extensions::dvfs_sweep(&reference)));
        println!("{}", or_exit("ranking extension", extensions::more_systems_ranking(&reference)));
    }

    for f in &figures {
        println!("{}", f.to_text());
    }
    for t in &tables {
        println!("{}", t.to_text());
    }

    if json_path.is_some() || md_path.is_some() {
        let bundle = ExperimentBundle::new(reference.name(), figures.clone(), tables.clone());
        if let Some(path) = json_path {
            if let Err(e) = bundle.write(&path) {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("wrote {}", path.display());
        }
        if let Some(path) = md_path {
            write_or_exit(&path, &bundle.to_markdown());
        }
    }

    if let Some(dir) = csv_dir {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
        let figure_csvs = figures.iter().map(|f| (&f.id, f.to_csv()));
        for (id, csv) in figure_csvs.chain(tables.iter().map(|t| (&t.id, t.to_csv()))) {
            write_or_exit(&dir.join(format!("{id}.csv")), &csv);
        }
    }
}
