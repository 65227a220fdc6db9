//! `native`: the paper's suite run for real on this machine.
//!
//! HPL, the STREAM triad and an IOzone-style write run through
//! `SuiteRunner` with the modelled power sampler, and the measurements are
//! scored against SystemG. Each STREAM array is four times the last-level
//! cache. The operation is one suite, from its start to the TGI score.

use crate::report::{self, Outcome};
use crate::spans::{self, maybe_span, Tracer};
use crate::stats::Dist;
use crate::Ctx;
use hpc_kernels::{hpl::HplConfig, iobench::IoBenchConfig, stream::StreamConfig};
use power_model::NodePowerModel;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tgi_core::{EvalScratch, MeanKind, ReferenceSystem, TgiEvaluator, Weighting};
use tgi_suite::native::{NativeHpl, NativeIozone, NativeStream};
use tgi_suite::{Benchmark, BenchmarkOutput, BenchmarkSuite, SuiteError, SuiteRunner};

pub const HPL_N: usize = 1_500;
pub const STREAM_NTIMES: usize = 2;
pub const IOZONE_BYTES: u64 = 32 << 20;
/// Fewer than twenty suites fit a 30-second run, so no percentile has ten
/// suites beyond it; the tail is reported as the median.
pub const TAIL_Q: f64 = 0.5;

/// Size of the largest CPU cache, bytes (32 MiB when it cannot be read).
pub fn llc_bytes() -> usize {
    let mut best = 0usize;
    for i in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
        let Ok(text) = std::fs::read_to_string(path) else { continue };
        let text = text.trim();
        let (digits, mult) = match text.strip_suffix('K') {
            Some(d) => (d, 1 << 10),
            None => match text.strip_suffix('M') {
                Some(d) => (d, 1 << 20),
                None => (text, 1),
            },
        };
        if let Ok(v) = digits.parse::<usize>() {
            best = best.max(v * mult);
        }
    }
    if best == 0 {
        32 << 20
    } else {
        best
    }
}

/// Elements per STREAM array: four times the last-level cache.
pub fn stream_elements() -> usize {
    4 * llc_bytes() / std::mem::size_of::<f64>()
}

/// Runs a benchmark under a `kernels` span whose parent is the suite span
/// of the moment.
struct Traced<B> {
    inner: B,
    name: &'static str,
    tracer: Arc<Tracer>,
    parent: Arc<AtomicUsize>,
    op: Arc<AtomicUsize>,
}

impl<B: Benchmark> Benchmark for Traced<B> {
    fn id(&self) -> &str {
        self.inner.id()
    }
    fn subsystem(&self) -> &'static str {
        self.inner.subsystem()
    }
    fn exclusive_meter(&self) -> bool {
        self.inner.exclusive_meter()
    }
    fn run_detailed(&self) -> Result<BenchmarkOutput, SuiteError> {
        let parent = Some(self.parent.load(Ordering::SeqCst));
        let op = self.op.load(Ordering::SeqCst) as u64;
        self.tracer.span(op, parent, "kernels", self.name, || self.inner.run_detailed()).0
    }
}

struct Kernels {
    hpl: NativeHpl,
    stream: NativeStream,
    iozone: NativeIozone,
}

fn kernels(dir: &Path) -> Kernels {
    let model = NodePowerModel::fire_node();
    Kernels {
        hpl: NativeHpl { config: HplConfig::new(HPL_N), model: model.clone() },
        stream: NativeStream {
            config: StreamConfig { array_size: stream_elements(), ntimes: STREAM_NTIMES },
            model: model.clone(),
        },
        iozone: NativeIozone {
            config: IoBenchConfig {
                file_size: IOZONE_BYTES,
                dir: Some(dir.to_path_buf()),
                ..Default::default()
            },
            model,
        },
    }
}

/// One suite to its TGI score; checks the HPL residual (the suite fails
/// without it) and that the score is finite and positive.
fn suite_once(
    out: &mut Outcome,
    runner: &SuiteRunner,
    suite: &BenchmarkSuite,
    evaluator: &TgiEvaluator<'_>,
    scratch: &mut EvalScratch,
    tracer: Option<(&Tracer, u64, &AtomicUsize)>,
) -> Vec<(String, f64)> {
    let report = match tracer {
        Some((t, op, parent)) => {
            t.span_with(op, None, "suite", "suite.run", |id| {
                parent.store(id, Ordering::SeqCst);
                runner.run(suite)
            })
            .0
        }
        None => runner.run(suite),
    };
    let measurements = match report.into_result() {
        Ok(m) => m,
        Err(e) => {
            out.check(false, || format!("native suite failed: {e}"));
            return Vec::new();
        }
    };
    let (tgi, _) =
        maybe_span(tracer.map(|(t, op, _)| (t, op)), "core", "core.evaluate_into", || {
            evaluator.evaluate_into(
                &measurements,
                &Weighting::Arithmetic,
                MeanKind::Arithmetic,
                scratch,
            )
        });
    match tgi {
        Ok(v) if v.is_finite() && v > 0.0 => out.check(true, String::new),
        other => out.check(false, || format!("native TGI is not finite and positive: {other:?}")),
    }
    measurements.iter().map(|m| (m.id().to_string(), m.performance().value())).collect()
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    report::machine(out, &ctx.work_dir, 1, 0);
    out.fact("llc_bytes", llc_bytes());
    out.fact("stream_array_bytes", stream_elements() * 8);
    out.fact("stream_arrays", 3);
    out.fact("hpl_n", HPL_N);
    out.fact("iozone_bytes", IOZONE_BYTES);
    // Set-up: the reference system and one untimed warm-up suite, which
    // first-touches the STREAM arrays, the HPL matrix and the IOzone file.
    // A suite is too long to repeat, so set-up runs once.
    let started = Instant::now();
    let reference = tgi_harness::system_g_reference();
    let k = kernels(&ctx.work_dir);
    let runner = SuiteRunner::new();
    let evaluator = TgiEvaluator::new(&reference);
    let mut scratch = EvalScratch::default();
    let plain =
        BenchmarkSuite::new().with(k.hpl.clone()).with(k.stream.clone()).with(k.iozone.clone());
    suite_once(out, &runner, &plain, &evaluator, &mut scratch, None);
    let setup_s = started.elapsed().as_secs_f64();
    if ctx.trace {
        return run_traced(ctx, out, &reference, k);
    }
    out.set("setup_s", setup_s);
    let mut suite_s = Vec::new();
    report::start_timed_phase(out);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < ctx.seconds || suite_s.is_empty() {
        let t0 = Instant::now();
        let perf = suite_once(out, &runner, &plain, &evaluator, &mut scratch, None);
        suite_s.push(t0.elapsed().as_secs_f64());
        if perf.is_empty() {
            break;
        }
    }
    report::end_timed_phase(out);
    let d = Dist::new(suite_s.iter().map(|s| s * 1e3).collect());
    out.set("latency_p50_ms", d.median());
    out.set("latency_tail_ms", d.q(TAIL_Q));
    out.set("throughput_per_s", d.len() as f64 / suite_s.iter().sum::<f64>());
    out.fact("suites", d.len());
    out.fact("tail_quantile", TAIL_Q);
    out.fact("suite_s_p50", d.median() / 1e3);
}

/// The traced run: half the time untraced suites, half suites whose
/// runner, kernels and scoring each carry a span.
fn run_traced(ctx: &Ctx, out: &mut Outcome, reference: &ReferenceSystem, k: Kernels) {
    let half = ctx.seconds / 2.0;
    let tracer = Arc::new(Tracer::default());
    let (parent, op) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let wrap = |name| (Arc::clone(&tracer), Arc::clone(&parent), Arc::clone(&op), name);
    let traced_suite = {
        let (t, p, o, n) = wrap("kernels.hpl");
        let hpl = Traced { inner: k.hpl.clone(), name: n, tracer: t, parent: p, op: o };
        let (t, p, o, n) = wrap("kernels.stream");
        let stream = Traced { inner: k.stream.clone(), name: n, tracer: t, parent: p, op: o };
        let (t, p, o, n) = wrap("kernels.iozone");
        let iozone = Traced { inner: k.iozone.clone(), name: n, tracer: t, parent: p, op: o };
        BenchmarkSuite::new().with(hpl).with(stream).with(iozone)
    };
    let plain = BenchmarkSuite::new().with(k.hpl).with(k.stream).with(k.iozone);
    let runner = SuiteRunner::new();
    let evaluator = TgiEvaluator::new(reference);
    let mut scratch = EvalScratch::default();

    let mut untraced = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < half || untraced.is_empty() {
        let t0 = Instant::now();
        suite_once(out, &runner, &plain, &evaluator, &mut scratch, None);
        untraced.push(t0.elapsed().as_secs_f64());
    }
    let mut traced = Vec::new();
    let mut perf: Vec<Vec<(String, f64)>> = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < half || traced.is_empty() {
        let i = traced.len();
        op.store(i, Ordering::SeqCst);
        let t0 = Instant::now();
        perf.push(suite_once(
            out,
            &runner,
            &traced_suite,
            &evaluator,
            &mut scratch,
            Some((&tracer, i as u64, &parent)),
        ));
        traced.push(t0.elapsed().as_secs_f64());
    }
    drop(traced_suite);
    let spans = Arc::try_unwrap(tracer).ok().expect("tracer released").into_spans();

    let median_perf = |id: &str| {
        Dist::new(perf.iter().flatten().filter(|(b, _)| b == id).map(|(_, v)| *v).collect())
            .median()
    };
    out.set("kernels.hpl_gflops", median_perf("hpl") / 1e9);
    out.set("kernels.stream_triad_mbps", median_perf("stream") / 1e6);
    out.set("kernels.iozone_write_mbps", median_perf("iozone") / 1e6);
    out.set("kernels.hpl_flops_computed", HplConfig::new(HPL_N).flops());
    // Copy and Scale move 2 words per element, Add and Triad 3.
    out.set("kernels.stream_bytes_computed", (10 * 8 * stream_elements() * STREAM_NTIMES) as f64);
    let suite_runs = spans::durations(&spans, "suite.run");
    let kernel_s: f64 = spans.iter().filter(|s| s.layer == "kernels").map(|s| s.dur_s).sum();
    out.set(
        "suite.runner_overhead_s",
        (suite_runs.iter().sum::<f64>() - kernel_s) / suite_runs.len() as f64,
    );
    out.set(
        "core.evaluate_into_ns",
        Dist::new(spans::durations(&spans, "core.evaluate_into")).median() * 1e9,
    );
    out.attribute(&spans, traced.len(), traced.iter().sum());
    out.set(
        "trace.overhead_ratio",
        Dist::new(traced).median() / Dist::new(untraced).median() - 1.0,
    );
}
