//! Native benchmarks: real kernels on this machine, modeled power.
//!
//! Each native benchmark runs its `hpc-kernels` workload for real while a
//! [`power_model::BackgroundSampler`] polls a [`power_model::sampler::ModeledSource`]
//! (actual process CPU utilization → node power model → wall watts), exactly
//! the role the paper's wall meter plays. The measurement combines the real
//! performance with the sampled power trace.
//!
//! Besides the paper's three benchmarks, the HPCC-style extensions (DGEMM,
//! FFT, PTRANS, RandomAccess) are provided — §II: TGI is "neither limited by
//! the metrics used in each benchmark nor by the number of benchmarks".

use crate::benchmark::{Benchmark, BenchmarkOutput, SuiteError};
use hpc_kernels::{comm, fft, gemm, hpl, iobench, ptrans, random_access, stream};
use power_model::sampler::{BackgroundSampler, ModeledSource};
use power_model::utilization::UtilizationSample;
use power_model::{NodePowerModel, PowerSource};
use std::sync::Arc;
use std::time::Duration;
use tgi_core::{Joules, Measurement, Perf, Seconds, Watts};

/// Sampling cadence for native runs (finer than the 1 Hz wall meter so that
/// second-scale kernels still collect several samples).
const SAMPLE_INTERVAL: Duration = Duration::from_millis(50);

/// Aggregates one metered run: reported power/time/energy plus the sampled
/// power trace the background sampler collected.
struct Metered {
    power: Watts,
    time: Seconds,
    energy: Joules,
    trace: power_model::PowerTrace,
}

fn metered<T>(
    model: &NodePowerModel,
    assumed: UtilizationSample,
    work: impl FnOnce() -> T,
) -> (T, Metered) {
    let source = Arc::new(ModeledSource::new(model.clone()).with_assumed(assumed));
    let sampler = BackgroundSampler::start(Arc::clone(&source) as _, SAMPLE_INTERVAL);
    let start = std::time::Instant::now();
    let out = work();
    let elapsed = start.elapsed().as_secs_f64().max(1e-6);
    let trace = sampler.stop();
    let (power, energy) = derive_power_energy(&trace, source.as_ref(), elapsed);
    (out, Metered { power, time: Seconds::new(elapsed), energy, trace })
}

/// Derives reported power and energy from a sampled trace.
///
/// Energy is the trapezoidal integral of the trace, matching how the paper
/// integrates wall-meter logs. A kernel finishing inside one sampling
/// interval can leave a trace spanning zero time; in that case fall back to
/// an immediate source sample over the wall-clock window so power and energy
/// stay non-degenerate.
fn derive_power_energy(
    trace: &power_model::PowerTrace,
    source: &dyn PowerSource,
    elapsed: f64,
) -> (Watts, Joules) {
    if trace.duration().value() > 0.0 {
        (trace.average_power(), trace.energy())
    } else {
        let now = source.power_now();
        (now, Joules::new(now.value() * elapsed))
    }
}

fn to_output(id: &str, perf: Perf, m: &Metered) -> Result<BenchmarkOutput, SuiteError> {
    let measurement = Measurement::new(id, perf, m.power, m.time)?.with_energy(m.energy)?;
    Ok(BenchmarkOutput::metered(measurement, m.trace.clone()))
}

/// HPL on this machine: blocked LU solve with residual validation.
#[derive(Debug, Clone)]
pub struct NativeHpl {
    /// Kernel configuration.
    pub config: hpl::HplConfig,
    /// Node power model used by the sampler.
    pub model: NodePowerModel,
}

impl NativeHpl {
    /// An HPL benchmark of order `n` with the Fire node model.
    pub fn new(n: usize) -> Self {
        NativeHpl { config: hpl::HplConfig::new(n), model: NodePowerModel::fire_node() }
    }
}

impl Benchmark for NativeHpl {
    fn id(&self) -> &str {
        "hpl"
    }
    fn subsystem(&self) -> &'static str {
        "cpu"
    }
    fn exclusive_meter(&self) -> bool {
        true
    }
    fn run_detailed(&self) -> Result<BenchmarkOutput, SuiteError> {
        let (result, meter) =
            metered(&self.model, UtilizationSample::cpu_bound(1.0), || hpl::run(self.config));
        let result = result.map_err(|e| SuiteError::Kernel(e.to_string()))?;
        if !result.passed {
            return Err(SuiteError::ValidationFailed {
                benchmark: "hpl".into(),
                detail: format!("scaled residual {} > 16", result.scaled_residual),
            });
        }
        to_output("hpl", Perf::gflops(result.gflops), &meter)
    }
}

/// STREAM on this machine.
#[derive(Debug, Clone)]
pub struct NativeStream {
    /// Kernel configuration.
    pub config: stream::StreamConfig,
    /// Node power model used by the sampler.
    pub model: NodePowerModel,
}

impl NativeStream {
    /// A STREAM benchmark with the given array size.
    pub fn new(array_size: usize) -> Self {
        NativeStream {
            config: stream::StreamConfig { array_size, ntimes: 10 },
            model: NodePowerModel::fire_node(),
        }
    }
}

impl Benchmark for NativeStream {
    fn id(&self) -> &str {
        "stream"
    }
    fn subsystem(&self) -> &'static str {
        "memory"
    }
    fn exclusive_meter(&self) -> bool {
        true
    }
    fn run_detailed(&self) -> Result<BenchmarkOutput, SuiteError> {
        let (result, meter) =
            metered(&self.model, UtilizationSample::memory_bound(1.0), || stream::run(self.config));
        if !result.validated {
            return Err(SuiteError::ValidationFailed {
                benchmark: "stream".into(),
                detail: format!("results check error {}", result.max_relative_error),
            });
        }
        to_output("stream", Perf::mbps(result.triad_mbps()), &meter)
    }
}

/// IOzone-style write test on this machine.
#[derive(Debug, Clone)]
pub struct NativeIozone {
    /// Kernel configuration.
    pub config: iobench::IoBenchConfig,
    /// Node power model used by the sampler.
    pub model: NodePowerModel,
}

impl NativeIozone {
    /// A write benchmark of `file_size` bytes.
    pub fn new(file_size: u64) -> Self {
        NativeIozone {
            config: iobench::IoBenchConfig { file_size, ..Default::default() },
            model: NodePowerModel::fire_node(),
        }
    }
}

impl Benchmark for NativeIozone {
    fn id(&self) -> &str {
        "iozone"
    }
    fn subsystem(&self) -> &'static str {
        "io"
    }
    fn exclusive_meter(&self) -> bool {
        true
    }
    fn run_detailed(&self) -> Result<BenchmarkOutput, SuiteError> {
        let (result, meter) =
            metered(&self.model, UtilizationSample::io_bound(1.0), || iobench::run(&self.config));
        let result = result.map_err(|e| SuiteError::Kernel(e.to_string()))?;
        to_output("iozone", Perf::mbps(result.write_mbps()), &meter)
    }
}

/// DGEMM extension benchmark.
#[derive(Debug, Clone)]
pub struct NativeDgemm {
    /// Square matrix order.
    pub n: usize,
    /// Node power model used by the sampler.
    pub model: NodePowerModel,
}

impl NativeDgemm {
    /// A DGEMM benchmark of order `n`.
    pub fn new(n: usize) -> Self {
        NativeDgemm { n, model: NodePowerModel::fire_node() }
    }
}

impl Benchmark for NativeDgemm {
    fn id(&self) -> &str {
        "dgemm"
    }
    fn subsystem(&self) -> &'static str {
        "cpu"
    }
    fn exclusive_meter(&self) -> bool {
        true
    }
    fn run_detailed(&self) -> Result<BenchmarkOutput, SuiteError> {
        let n = self.n;
        let (result, meter) =
            metered(&self.model, UtilizationSample::cpu_bound(1.0), || gemm::benchmark(n, 0xD6E3));
        to_output("dgemm", Perf::gflops(result.gflops), &meter)
    }
}

/// FFT extension benchmark.
#[derive(Debug, Clone)]
pub struct NativeFft {
    /// Transform length (power of two).
    pub n: usize,
    /// Timed forward+inverse repetitions.
    pub repetitions: usize,
    /// Node power model used by the sampler.
    pub model: NodePowerModel,
}

impl NativeFft {
    /// An FFT benchmark of length `n`.
    pub fn new(n: usize) -> Self {
        NativeFft { n, repetitions: 4, model: NodePowerModel::fire_node() }
    }
}

impl Benchmark for NativeFft {
    fn id(&self) -> &str {
        "fft"
    }
    fn subsystem(&self) -> &'static str {
        "cpu+memory"
    }
    fn exclusive_meter(&self) -> bool {
        true
    }
    fn run_detailed(&self) -> Result<BenchmarkOutput, SuiteError> {
        let (n, reps) = (self.n, self.repetitions);
        let (result, meter) = metered(&self.model, UtilizationSample::cpu_bound(0.9), || {
            fft::benchmark(n, reps, 0xFF7)
        });
        // A NaN error compares false against the bound; it must fail too.
        if result.max_roundtrip_error.is_nan() || result.max_roundtrip_error > 1e-6 {
            return Err(SuiteError::ValidationFailed {
                benchmark: "fft".into(),
                detail: format!("round-trip error {}", result.max_roundtrip_error),
            });
        }
        to_output("fft", Perf::gflops(result.gflops), &meter)
    }
}

/// PTRANS extension benchmark.
#[derive(Debug, Clone)]
pub struct NativePtrans {
    /// Matrix order.
    pub n: usize,
    /// Node power model used by the sampler.
    pub model: NodePowerModel,
}

impl NativePtrans {
    /// A PTRANS benchmark of order `n`.
    pub fn new(n: usize) -> Self {
        NativePtrans { n, model: NodePowerModel::fire_node() }
    }
}

impl Benchmark for NativePtrans {
    fn id(&self) -> &str {
        "ptrans"
    }
    fn subsystem(&self) -> &'static str {
        "memory"
    }
    fn exclusive_meter(&self) -> bool {
        true
    }
    fn run_detailed(&self) -> Result<BenchmarkOutput, SuiteError> {
        let n = self.n;
        let (result, meter) = metered(&self.model, UtilizationSample::memory_bound(0.9), || {
            ptrans::benchmark(n, 0x974A)
        });
        to_output("ptrans", Perf::mbps(result.bytes_per_sec / 1e6), &meter)
    }
}

/// RandomAccess (GUPS) extension benchmark.
#[derive(Debug, Clone)]
pub struct NativeGups {
    /// Kernel configuration.
    pub config: random_access::GupsConfig,
    /// Node power model used by the sampler.
    pub model: NodePowerModel,
}

impl NativeGups {
    /// A GUPS benchmark with a `2^log2_size`-word table.
    pub fn new(log2_size: u32) -> Self {
        NativeGups {
            config: random_access::GupsConfig::new(log2_size),
            model: NodePowerModel::fire_node(),
        }
    }
}

impl Benchmark for NativeGups {
    fn id(&self) -> &str {
        "gups"
    }
    fn subsystem(&self) -> &'static str {
        "memory"
    }
    fn exclusive_meter(&self) -> bool {
        true
    }
    fn run_detailed(&self) -> Result<BenchmarkOutput, SuiteError> {
        let config = self.config;
        let (result, meter) = metered(&self.model, UtilizationSample::memory_bound(0.8), || {
            random_access::run(config)
        });
        if !result.passed {
            return Err(SuiteError::ValidationFailed {
                benchmark: "gups".into(),
                detail: format!("error fraction {}", result.error_fraction),
            });
        }
        to_output("gups", Perf::new(result.gups, tgi_core::PerfUnit::Gups)?, &meter)
    }
}

/// HPL run as a *distributed* program over the mini-MPI runtime — the form
/// the paper's benchmarks actually take ("Number of MPI Processes") — on a
/// `1×Q` block-cyclic process grid, one rank per grid column.
#[derive(Debug, Clone)]
pub struct NativeDistributedHpl {
    /// Distributed-solver configuration; the world has `p * q` ranks.
    pub config: mini_mpi::hpl2d::Grid2dConfig,
    /// Node power model used by the sampler.
    pub model: NodePowerModel,
}

impl NativeDistributedHpl {
    /// A distributed HPL of order `n` on `ranks` ranks (a `1×ranks` grid).
    pub fn new(n: usize, ranks: usize) -> Self {
        NativeDistributedHpl {
            config: mini_mpi::hpl2d::Grid2dConfig { n, block_size: 32, p: 1, q: ranks, seed: 42 },
            model: NodePowerModel::fire_node(),
        }
    }
}

impl Benchmark for NativeDistributedHpl {
    fn id(&self) -> &str {
        "hpl"
    }
    fn subsystem(&self) -> &'static str {
        "cpu"
    }
    fn exclusive_meter(&self) -> bool {
        true
    }
    fn run_detailed(&self) -> Result<BenchmarkOutput, SuiteError> {
        let config = self.config;
        let (results, meter) = metered(&self.model, UtilizationSample::cpu_bound(1.0), || {
            mini_mpi::World::run(config.p * config.q, move |comm| {
                mini_mpi::hpl2d::run(comm, config)
            })
        });
        let rank0 = &results[0];
        if !rank0.passed {
            return Err(SuiteError::ValidationFailed {
                benchmark: "hpl".into(),
                detail: format!("scaled residual {} > 16", rank0.scaled_residual),
            });
        }
        if let Some(rank) = results.iter().position(|r| r.x != rank0.x) {
            return Err(SuiteError::ValidationFailed {
                benchmark: "hpl".into(),
                detail: format!("rank {rank}'s solution differs from rank 0's"),
            });
        }
        let gflops = hpl::work(config.n).flops / rank0.seconds / 1e9;
        to_output("hpl", Perf::gflops(gflops), &meter)
    }
}

/// Communication (b_eff-style) extension benchmark.
#[derive(Debug, Clone)]
pub struct NativeComm {
    /// Kernel configuration.
    pub config: comm::CommConfig,
    /// Node power model used by the sampler.
    pub model: NodePowerModel,
}

impl NativeComm {
    /// A communication benchmark with `ranks` communicating threads.
    pub fn new(ranks: usize) -> Self {
        NativeComm {
            config: comm::CommConfig { ranks, ..Default::default() },
            model: NodePowerModel::fire_node(),
        }
    }
}

impl Benchmark for NativeComm {
    fn id(&self) -> &str {
        "comm"
    }
    fn subsystem(&self) -> &'static str {
        "network"
    }
    fn exclusive_meter(&self) -> bool {
        true
    }
    fn run_detailed(&self) -> Result<BenchmarkOutput, SuiteError> {
        let config = self.config;
        let (result, meter) =
            metered(&self.model, UtilizationSample::new(0.3, 0.2, 0.0, 0.9), || comm::run(config));
        to_output("comm", Perf::mbps(result.ring_mbps()), &meter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_hpl_runs_and_validates() {
        let m = NativeHpl::new(192).run().unwrap();
        assert_eq!(m.id(), "hpl");
        assert!(m.performance().as_gflops() > 0.0);
        assert!(m.power().value() > 0.0);
        assert!(m.energy().value() > 0.0);
    }

    #[test]
    fn native_stream_runs() {
        let mut b = NativeStream::new(1 << 16);
        b.config.ntimes = 3;
        let m = b.run().unwrap();
        assert_eq!(m.id(), "stream");
        assert!(m.performance().as_mbps() > 0.0);
    }

    #[test]
    fn native_iozone_runs() {
        let mut b = NativeIozone::new(512 << 10);
        b.config.fsync = false;
        let m = b.run().unwrap();
        assert_eq!(m.id(), "iozone");
        assert!(m.performance().as_mbps() > 0.0);
    }

    #[test]
    fn native_dgemm_runs() {
        let m = NativeDgemm::new(128).run().unwrap();
        assert_eq!(m.id(), "dgemm");
        assert!(m.performance().as_gflops() > 0.0);
    }

    #[test]
    fn native_fft_runs_and_validates() {
        let m = NativeFft::new(1 << 12).run().unwrap();
        assert_eq!(m.id(), "fft");
        assert!(m.performance().as_gflops() > 0.0);
    }

    #[test]
    fn native_ptrans_runs() {
        let m = NativePtrans::new(256).run().unwrap();
        assert_eq!(m.id(), "ptrans");
        assert!(m.performance().as_mbps() > 0.0);
    }

    #[test]
    fn native_gups_runs_and_validates() {
        let m = NativeGups::new(12).run().unwrap();
        assert_eq!(m.id(), "gups");
        assert_eq!(*m.performance().unit(), tgi_core::PerfUnit::Gups);
    }

    #[test]
    fn native_distributed_hpl_runs_and_validates() {
        let b = NativeDistributedHpl::new(96, 3);
        let m = b.run().unwrap();
        assert_eq!(m.id(), "hpl");
        assert!(m.performance().as_gflops() > 0.0);
        assert!(m.power().value() > 0.0);
    }

    #[test]
    fn native_distributed_hpl_solution_is_replicated_and_valid() {
        // `run` fails closed unless every rank passes the residual check
        // and holds the same `x`.
        for ranks in [2usize, 4] {
            let b = NativeDistributedHpl::new(96, ranks);
            assert_eq!((b.config.p, b.config.q), (1, ranks));
            let m = b.run().unwrap();
            assert!(m.performance().as_gflops() > 0.0);
        }
    }

    #[test]
    fn native_comm_runs() {
        let mut b = NativeComm::new(2);
        b.config = hpc_kernels::comm::CommConfig::small();
        let m = b.run().unwrap();
        assert_eq!(m.id(), "comm");
        assert_eq!(b.subsystem(), "network");
        assert!(m.performance().as_mbps() > 0.0);
    }

    #[test]
    fn zero_span_trace_falls_back_to_immediate_sample() {
        // Regression: a kernel finishing inside one sampling interval can
        // leave a trace spanning zero time. Energy used to be derived from
        // that trace's zero average power, so fast kernels reported zero
        // power and failed measurement validation.
        let model = NodePowerModel::fire_node();
        let source = ModeledSource::new(model).with_assumed(UtilizationSample::cpu_bound(1.0));
        let empty = power_model::PowerTrace::new();
        let (power, energy) = derive_power_energy(&empty, &source, 0.02);
        assert!(power.value() > 0.0, "fallback sample must be positive");
        assert!((energy.value() - power.value() * 0.02).abs() < 1e-9);
    }

    #[test]
    fn energy_is_trace_integral_not_avg_times_wall() {
        // Regression: the seed derived energy as average_power × wall
        // elapsed. For this ramp trace the trapezoid gives 1500 J; the old
        // formula with a 20 s wall window would report 3000 J.
        let model = NodePowerModel::fire_node();
        let source = ModeledSource::new(model).with_assumed(UtilizationSample::cpu_bound(1.0));
        let mut trace = power_model::PowerTrace::new();
        trace.push(0.0, Watts::new(100.0));
        trace.push(10.0, Watts::new(200.0));
        let (power, energy) = derive_power_energy(&trace, &source, 20.0);
        assert!((power.value() - 150.0).abs() < 1e-9);
        assert!((energy.value() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn power_within_model_envelope() {
        let model = NodePowerModel::fire_node();
        let m = NativeDgemm::new(160).run().unwrap();
        assert!(m.power().value() >= model.idle_wall_power().value() - 1e-9);
        assert!(m.power().value() <= model.peak_wall_power().value() + 1e-9);
    }

    #[test]
    fn subsystem_labels() {
        assert_eq!(NativeHpl::new(32).subsystem(), "cpu");
        assert_eq!(NativeStream::new(64).subsystem(), "memory");
        assert_eq!(NativeIozone::new(1 << 16).subsystem(), "io");
    }
}
