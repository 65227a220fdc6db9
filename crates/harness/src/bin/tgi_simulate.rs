//! `tgi-simulate` — run one workload on a simulated cluster.
//!
//! ```text
//! tgi-simulate --cluster fire --workload hpl --procs 128
//! tgi-simulate --cluster fire-gpu --workload stream --procs 64 --dvfs 0.8
//! tgi-simulate --cluster sandy --workload iozone --procs 32 \
//!              --noise 0.01 --seed 7 --thermal --trace out.csv
//! tgi-simulate --spec my_cluster.json --workload hpl --procs 16
//! ```
//!
//! Prints the measurement (performance, power, time, energy, EE) and can
//! dump the metered power trace as a `seconds,watts` CSV.

use cluster_sim::{ClusterSpec, ExecutionEngine, Workload};
use power_model::{trace_io, ThermalModel};
use std::path::PathBuf;

struct Args {
    cluster: String,
    spec: Option<PathBuf>,
    workload: String,
    procs: usize,
    dvfs: Option<f64>,
    noise: Option<f64>,
    seed: u64,
    thermal: bool,
    trace: Option<PathBuf>,
    telemetry: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn usage_text() -> &'static str {
    "usage: tgi-simulate [--cluster fire|fire-gpu|sandy|systemg | --spec file.json]\n\
     \x20                  --workload hpl|stream|iozone --procs N\n\
     \x20                  [--dvfs RATIO] [--noise SIGMA] [--seed N] [--thermal]\n\
     \x20                  [--trace out.csv]\n\
     \x20                  [--telemetry metrics.prom] [--trace-out trace.json]\n\
     \n\
     \x20 --telemetry PATH  record run telemetry, write a Prometheus text\n\
     \x20                   snapshot to PATH, and print a span summary\n\
     \x20 --trace-out PATH  write the run timeline as Chrome trace_event\n\
     \x20                   JSON (open in chrome://tracing or Perfetto)"
}

/// Parse error: usage to stderr, exit 2 (`--help` prints to stdout, exit 0).
fn usage() -> ! {
    eprintln!("{}", usage_text());
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        cluster: "fire".into(),
        spec: None,
        workload: String::new(),
        procs: 0,
        dvfs: None,
        noise: None,
        seed: 0,
        thermal: false,
        trace: None,
        telemetry: None,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} requires an argument");
                usage()
            })
        };
        match a.as_str() {
            "--cluster" => args.cluster = value("--cluster"),
            "--spec" => args.spec = Some(PathBuf::from(value("--spec"))),
            "--workload" => args.workload = value("--workload"),
            "--procs" => args.procs = value("--procs").parse().unwrap_or_else(|_| usage()),
            "--dvfs" => args.dvfs = Some(value("--dvfs").parse().unwrap_or_else(|_| usage())),
            "--noise" => args.noise = Some(value("--noise").parse().unwrap_or_else(|_| usage())),
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--thermal" => args.thermal = true,
            "--trace" => args.trace = Some(PathBuf::from(value("--trace"))),
            "--telemetry" => args.telemetry = Some(PathBuf::from(value("--telemetry"))),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out"))),
            "--help" | "-h" => {
                println!("{}", usage_text());
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument `{other}`");
                usage()
            }
        }
    }
    if args.workload.is_empty() || args.procs == 0 {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let telemetry =
        tgi_harness::TelemetrySession::start(args.telemetry.clone(), args.trace_out.clone());

    let cluster: ClusterSpec = if let Some(path) = &args.spec {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(1);
        });
        serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("invalid cluster spec {}: {e}", path.display());
            std::process::exit(1);
        })
    } else {
        match args.cluster.as_str() {
            "fire" => ClusterSpec::fire(),
            "fire-gpu" => ClusterSpec::fire_gpu(),
            "sandy" => ClusterSpec::sandy(),
            "systemg" => ClusterSpec::system_g(),
            other => {
                eprintln!("unknown cluster `{other}`");
                usage()
            }
        }
    };
    if let Err(e) = cluster.validate() {
        eprintln!("{e}");
        std::process::exit(1);
    }

    let workload = match args.workload.as_str() {
        "hpl" => Workload::fire_suite()[0],
        "stream" => Workload::fire_suite()[1],
        "iozone" => Workload::fire_suite()[2],
        other => {
            eprintln!("unknown workload `{other}`");
            usage()
        }
    };

    let mut engine = ExecutionEngine::new(cluster.clone());
    if let Some(ratio) = args.dvfs {
        engine = engine.with_frequency_ratio(ratio);
    }
    if let Some(sigma) = args.noise {
        engine = engine.with_run_noise(sigma, args.seed);
    }
    if args.thermal {
        engine = engine.with_thermal(ThermalModel::typical_server());
    }

    let run = engine.run(workload, args.procs);
    println!(
        "{} on {} with {} processes{}{}{}",
        run.benchmark,
        cluster.name,
        args.procs,
        args.dvfs.map(|r| format!(", clock {:.0}%", r * 100.0)).unwrap_or_default(),
        args.noise.map(|s| format!(", noise σ={s}")).unwrap_or_default(),
        if args.thermal { ", thermal dynamics on" } else { "" },
    );
    println!("  performance : {}", run.performance);
    println!("  avg power   : {}", run.average_power);
    println!("  wall time   : {:.1} s", run.seconds);
    println!("  energy      : {:.3} MJ", run.energy_joules / 1e6);
    println!("  efficiency  : {:.4e} (canonical units per watt)", run.energy_efficiency());

    if let Some(path) = &args.trace {
        let trace = engine.trace(workload, args.procs);
        if let Err(e) = trace_io::write_log_file(&trace, path) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {} samples to {}", trace.len(), path.display());
    }

    if let Err(e) = telemetry.finish() {
        eprintln!("cannot write telemetry output: {e}");
        std::process::exit(1);
    }
}
