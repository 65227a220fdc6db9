//! `tgi-native` — run the benchmark suite on *this* machine and score it.
//!
//! ```text
//! tgi-native                         # the standard 3-benchmark suite
//! tgi-native --preset quick|hpcc    # built-in suite presets
//! tgi-native --spec suite.json      # a custom SuiteSpec
//! tgi-native --reference ref.json   # score against a saved reference
//! tgi-native --save-reference ref.json   # save this run as the reference
//! tgi-native --json out.json        # dump measurements as JSON
//! tgi-native --repeats 3 --retries 2 --timeout 120 --keep-going \
//!            --journal runs.jsonl   # resilient runner + JSONL journal
//! tgi-native --telemetry metrics.prom --trace-out trace.json  # observability
//! ```
//!
//! Power comes from the background sampler over the modeled node (see
//! `power-model`); on a machine with a real metering daemon, implement
//! `PowerSource` against it and the rest of the pipeline is unchanged.
//! Native benchmarks hold the exclusive meter token, so they serialize
//! even under `--parallel`; the flag mainly helps mixed suites.

use std::path::PathBuf;
use std::time::Duration;
use tgi_core::prelude::*;
use tgi_harness::journal;
use tgi_suite::{FailureMode, RunOutcome, SuiteRunner, SuiteSpec};

struct Args {
    preset: String,
    spec: Option<PathBuf>,
    reference: Option<PathBuf>,
    save_reference: Option<PathBuf>,
    json: Option<PathBuf>,
    parallel: usize,
    repeats: usize,
    retries: usize,
    timeout_secs: Option<f64>,
    keep_going: bool,
    journal: Option<PathBuf>,
    telemetry: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn usage_text() -> &'static str {
    "usage: tgi-native [--preset standard|quick|hpcc | --spec suite.json]\n\
     \x20                [--reference ref.json] [--save-reference ref.json]\n\
     \x20                [--json out.json] [--parallel N] [--repeats N]\n\
     \x20                [--retries N] [--timeout SECS] [--keep-going]\n\
     \x20                [--journal runs.jsonl]\n\
     \x20                [--telemetry metrics.prom] [--trace-out trace.json]\n\
     \n\
     \x20 --telemetry PATH  record run telemetry, write a Prometheus text\n\
     \x20                   snapshot to PATH, and print a span summary\n\
     \x20 --trace-out PATH  write the run timeline as Chrome trace_event\n\
     \x20                   JSON (open in chrome://tracing or Perfetto)"
}

fn parse_args() -> Args {
    let mut args = Args {
        preset: "standard".to_string(),
        spec: None,
        reference: None,
        save_reference: None,
        json: None,
        parallel: 1,
        repeats: 1,
        retries: 0,
        timeout_secs: None,
        keep_going: false,
        journal: None,
        telemetry: None,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} requires an argument");
                std::process::exit(2);
            })
        };
        fn parse<T: std::str::FromStr>(flag: &str, v: String) -> T {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{flag} expects a number, got `{v}`");
                std::process::exit(2);
            })
        }
        match a.as_str() {
            "--preset" => args.preset = value("--preset"),
            "--spec" => args.spec = Some(PathBuf::from(value("--spec"))),
            "--reference" => args.reference = Some(PathBuf::from(value("--reference"))),
            "--save-reference" => {
                args.save_reference = Some(PathBuf::from(value("--save-reference")))
            }
            "--json" => args.json = Some(PathBuf::from(value("--json"))),
            "--parallel" => args.parallel = parse("--parallel", value("--parallel")),
            "--repeats" => args.repeats = parse("--repeats", value("--repeats")),
            "--retries" => args.retries = parse("--retries", value("--retries")),
            "--timeout" => args.timeout_secs = Some(parse("--timeout", value("--timeout"))),
            "--keep-going" => args.keep_going = true,
            "--journal" => args.journal = Some(PathBuf::from(value("--journal"))),
            "--telemetry" => args.telemetry = Some(PathBuf::from(value("--telemetry"))),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out"))),
            "--help" | "-h" => {
                println!("{}", usage_text());
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("{}", usage_text());
                std::process::exit(2);
            }
        }
    }
    args
}

fn load_spec(args: &Args) -> SuiteSpec {
    if let Some(path) = &args.spec {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(1);
        });
        serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("invalid suite spec {}: {e}", path.display());
            std::process::exit(1);
        })
    } else {
        match args.preset.as_str() {
            "standard" => SuiteSpec::standard(),
            "quick" => SuiteSpec::quick(),
            "hpcc" => SuiteSpec::hpcc_style(),
            other => {
                eprintln!("unknown preset `{other}` (expected standard|quick|hpcc)");
                std::process::exit(2);
            }
        }
    }
}

fn main() {
    let args = parse_args();
    let telemetry =
        tgi_harness::TelemetrySession::start(args.telemetry.clone(), args.trace_out.clone());
    let suite = load_spec(&args).build().unwrap_or_else(|e| {
        eprintln!("invalid suite spec: {e}");
        std::process::exit(1);
    });
    eprintln!("running {} benchmarks natively...", suite.len());

    let runner = SuiteRunner::new()
        .parallelism(args.parallel)
        .repeats(args.repeats)
        .retries(args.retries)
        .timeout(args.timeout_secs.map(Duration::from_secs_f64))
        .failure_mode(if args.keep_going {
            FailureMode::CollectErrors
        } else {
            FailureMode::FailFast
        });
    let report = runner.run(&suite);

    if let Some(path) = &args.journal {
        match journal::append(path, &report) {
            Ok(n) => eprintln!("journaled {n} records to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write journal {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    for entry in &report.entries {
        match &entry.outcome {
            RunOutcome::Failed(e) => eprintln!(
                "FAILED {} (repeat {}, {} attempts): {e}",
                entry.benchmark, entry.repeat, entry.attempts
            ),
            RunOutcome::Skipped => {
                eprintln!("skipped {} (repeat {})", entry.benchmark, entry.repeat)
            }
            RunOutcome::Success(_) => {}
        }
    }

    let measurements: Vec<Measurement> = if args.keep_going {
        let ms: Vec<Measurement> = report.measurements().into_iter().cloned().collect();
        if ms.is_empty() {
            eprintln!("suite failed: no benchmark succeeded");
            std::process::exit(1);
        }
        ms
    } else {
        match report.into_result() {
            Ok(m) => m,
            Err(e) => {
                eprintln!("suite failed: {e}");
                std::process::exit(1);
            }
        }
    };

    println!(
        "{:<10} {:>18} {:>12} {:>12} {:>14}",
        "benchmark", "performance", "power", "time", "EE (unit/W)"
    );
    for m in &measurements {
        println!(
            "{:<10} {:>18} {:>12} {:>12} {:>14.4e}",
            m.id(),
            m.performance().to_string(),
            m.power().to_string(),
            m.time().to_string(),
            m.energy_efficiency()
        );
    }

    if let Some(path) = &args.save_reference {
        let json = serde_json::to_string_pretty(&measurements).expect("measurements serialize");
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("saved reference measurements to {}", path.display());
    }

    if let Some(path) = &args.json {
        let json = serde_json::to_string_pretty(&measurements).expect("measurements serialize");
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", path.display());
    }

    // Score against a reference, if one is available.
    if let Some(path) = &args.reference {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(1);
        });
        let ref_measurements: Vec<Measurement> = serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("invalid reference {}: {e}", path.display());
            std::process::exit(1);
        });
        let mut builder = ReferenceSystem::builder(
            path.file_stem().and_then(|s| s.to_str()).unwrap_or("reference"),
        );
        for m in ref_measurements {
            builder = builder.benchmark(m);
        }
        let reference = match builder.build() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("invalid reference suite: {e}");
                std::process::exit(1);
            }
        };

        println!();
        for weighting in
            [Weighting::Arithmetic, Weighting::Time, Weighting::Energy, Weighting::Power]
        {
            match Tgi::builder()
                .reference(reference.clone())
                .weighting(weighting.clone())
                .measurements(measurements.iter().cloned())
                .compute()
            {
                Ok(result) => {
                    println!("TGI ({:<15}) = {:.4}", weighting.to_string(), result.value())
                }
                Err(e) => {
                    eprintln!("cannot compute TGI ({weighting}): {e}");
                    std::process::exit(1);
                }
            }
        }
    } else {
        eprintln!(
            "\nno --reference given: showing raw efficiencies only.\n\
             Tip: run once on the reference machine with --save-reference ref.json,\n\
             then score others with --reference ref.json."
        );
    }

    if let Err(e) = telemetry.finish() {
        eprintln!("cannot write telemetry output: {e}");
        std::process::exit(1);
    }
}
