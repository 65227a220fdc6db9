//! One benchmark for the TGI paper path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|query|green500|native> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Inputs are generated from `--seed`; the
//! program under test only ever sees the generated inputs. Every answer is
//! checked against an oracle. The last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`; the line
//! before it records the machine, the inputs and per-workload details.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` runs the
//! workload again with spans around every call into a layer and prints
//! the per-layer metrics. The exit code is 0 only when every answer was
//! correct. See `RATIONALE.md` for what each workload and metric is for.

mod green500;
mod heap;
mod ingest;
mod meter;
mod native;
mod query;
mod report;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// What a workload runs with.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch space inside the current directory, removed afterwards.
    pub work_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <ingest|query|green500|native> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(String, Ctx), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let pos = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(pos + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !["ingest", "query", "green500", "native"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = value("--seed")?.parse().map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let work_dir = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    Ok((workload, Ctx { seed, seconds, trace, work_dir }))
}

fn main() {
    let (workload, ctx) = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    std::fs::create_dir_all(&ctx.work_dir).expect("create the work directory");
    let mut out = report::Outcome::default();
    match workload.as_str() {
        "ingest" => ingest::run(&ctx, &mut out),
        "query" => query::run(&ctx, &mut out),
        "green500" => green500::run(&ctx, &mut out),
        "native" => native::run(&ctx, &mut out),
        _ => unreachable!("validated above"),
    }
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    let _ = std::fs::remove_dir(".bench_work");
    if !out.emit(&workload, ctx.trace) {
        std::process::exit(1);
    }
}
