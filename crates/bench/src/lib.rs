//! # tgi-bench — the benches behind the committed `BENCH_*.json` ledgers
//!
//! Nine bench targets, each run with `cargo bench -p tgi-bench --bench
//! <name>`. Each writes a [`Ledger`] — one record schema, bounds checked
//! in one place — to `BENCH_<stem>.json` at the repository root (the
//! targets and stems are listed in [`LEDGERS`]):
//!
//! * `fleet` → `BENCH_fleet.json` — synthetic Green500 generation, the
//!   500-system fleet sweep, and the single-flight memo race.
//! * `frontier` → `BENCH_frontier.json` — the DVFS energy/time frontier
//!   over measured GEMM and STREAM.
//! * `kernel_throughput` → `BENCH_kernels.json` — DGEMM/HPL/STREAM/GUPS at
//!   1 thread plus N-over-1 speedups, and the LU blocking, DGEMM blocking
//!   and mixed-precision ablations.
//! * `obs` → `BENCH_obs.json` — anomaly-detector throughput, quantile
//!   sketch accuracy, flight-recorder vs collector span cost.
//! * `server_load` → `BENCH_server.json` — `tgi-server` under the
//!   `tgi-load` client mix.
//! * `telemetry_overhead` → `BENCH_telemetry.json` — disabled- and
//!   enabled-path instrumentation cost.
//! * `tgi_throughput` → `BENCH_tgi.json` — batch `TgiEvaluator` vs a
//!   builder loop, and a memoized grid sweep.
//! * `trace_analytics` → `BENCH_trace.json` — indexed trace queries vs
//!   naive rescans.
//! * `trace_store` → `BENCH_store.json` — compressed on-disk ingest, cold
//!   window queries and parity with the in-memory trace.
//!
//! `TGI_BENCH_SMOKE=1` runs them at their CI smoke sizes and writes
//! their ledgers under the temp directory instead (see [`ledger`]).

pub mod ledger;

pub use ledger::{Ledger, Scale, LEDGERS};

use std::hint::black_box;
use std::time::Instant;

/// Deterministic pseudo-random stream (64-bit LCG, top 53 bits).
pub struct Lcg(pub u64);

impl Lcg {
    /// The next value, uniform in `[0, 1)`.
    pub fn next_unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The reference unit of work for per-call overhead loops: something the
/// optimizer cannot delete but that does no real work.
#[inline(never)]
pub fn noop_unit(i: u64) -> u64 {
    black_box(i)
}

/// Mean nanoseconds per call of `f` over `iters` calls.
pub fn time_per_iter(iters: usize, mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..iters as u64 {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Median of `runs` timing runs, to shrug off scheduler noise.
pub fn median_of(runs: usize, mut measure: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..runs).map(|_| measure()).collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}
