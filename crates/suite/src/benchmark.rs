//! The uniform benchmark interface.

use power_model::PowerTrace;
use tgi_core::Measurement;

/// Errors from running a suite benchmark.
#[derive(Debug)]
pub enum SuiteError {
    /// The benchmark's own validation failed (e.g. HPL residual too large).
    ValidationFailed {
        /// Benchmark id.
        benchmark: String,
        /// Human-readable detail.
        detail: String,
    },
    /// The underlying kernel reported an error.
    Kernel(String),
    /// Converting the raw result into a measurement failed.
    Metric(tgi_core::TgiError),
    /// Filesystem error during an I/O benchmark.
    Io(std::io::Error),
    /// The benchmark exceeded its wall-clock budget and was abandoned.
    Timeout {
        /// Benchmark id.
        benchmark: String,
        /// The budget that was exceeded, in seconds.
        seconds: f64,
    },
    /// The benchmark panicked while running.
    Panicked {
        /// Benchmark id.
        benchmark: String,
        /// Panic payload, when it was a string.
        detail: String,
    },
    /// A suite spec entry asks for a size the kernel cannot run; rejected
    /// before anything runs.
    InvalidSpec {
        /// The entry's `kind`.
        benchmark: String,
        /// Which field is out of range, and why.
        detail: String,
    },
}

impl SuiteError {
    /// Whether retrying the same benchmark could plausibly succeed.
    ///
    /// Only I/O errors are considered transient (a busy scratch disk, an
    /// interrupted filesystem call). Validation failures, kernel errors,
    /// metric errors, panics, and timeouts are deterministic for a given
    /// configuration, so retrying would only repeat the cost.
    pub fn is_transient(&self) -> bool {
        matches!(self, SuiteError::Io(_))
    }
}

impl std::fmt::Display for SuiteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuiteError::ValidationFailed { benchmark, detail } => {
                write!(f, "benchmark `{benchmark}` failed validation: {detail}")
            }
            SuiteError::Kernel(msg) => write!(f, "kernel error: {msg}"),
            SuiteError::Metric(e) => write!(f, "metric error: {e}"),
            SuiteError::Io(e) => write!(f, "I/O error: {e}"),
            SuiteError::Timeout { benchmark, seconds } => {
                write!(
                    f,
                    "benchmark `{benchmark}` exceeded its {seconds} s timeout and was abandoned"
                )
            }
            SuiteError::Panicked { benchmark, detail } => {
                write!(f, "benchmark `{benchmark}` panicked: {detail}")
            }
            SuiteError::InvalidSpec { benchmark, detail } => {
                write!(f, "invalid `{benchmark}` spec: {detail}")
            }
        }
    }
}

impl std::error::Error for SuiteError {}

impl From<tgi_core::TgiError> for SuiteError {
    fn from(e: tgi_core::TgiError) -> Self {
        SuiteError::Metric(e)
    }
}

impl From<std::io::Error> for SuiteError {
    fn from(e: std::io::Error) -> Self {
        SuiteError::Io(e)
    }
}

/// A benchmark run's measurement plus meter metadata for run reports.
#[derive(Debug, Clone)]
pub struct BenchmarkOutput {
    /// The validated measurement.
    pub measurement: Measurement,
    /// Number of power-trace samples the meter collected (0 when the
    /// benchmark has no sampled meter, e.g. simulated runs).
    pub trace_samples: usize,
    /// The sampled power trace itself, when the benchmark was metered.
    /// Carried so run reports can answer window/percentile queries against
    /// the indexed trace instead of only the scalar measurement.
    pub trace: Option<PowerTrace>,
}

impl BenchmarkOutput {
    /// An output with no meter trace (simulated benchmarks).
    pub fn unmetered(measurement: Measurement) -> Self {
        BenchmarkOutput { measurement, trace_samples: 0, trace: None }
    }

    /// An output carrying the sampled meter trace.
    pub fn metered(measurement: Measurement, trace: PowerTrace) -> Self {
        BenchmarkOutput { measurement, trace_samples: trace.len(), trace: Some(trace) }
    }
}

/// A benchmark that yields one measurement per run.
///
/// `Send + Sync` is required so the suite runner can execute benchmarks on
/// worker threads and abandon hung attempts. Implementors must provide at
/// least one of [`Benchmark::run`] or [`Benchmark::run_detailed`] — each has
/// a default implementation in terms of the other.
pub trait Benchmark: Send + Sync {
    /// Stable identifier, matching reference-system keys (`"hpl"`, …).
    fn id(&self) -> &str;

    /// Which subsystem this benchmark stresses (for reports).
    fn subsystem(&self) -> &'static str;

    /// Executes the benchmark and returns its measurement.
    fn run(&self) -> Result<Measurement, SuiteError> {
        self.run_detailed().map(|o| o.measurement)
    }

    /// Executes the benchmark, additionally reporting meter metadata.
    fn run_detailed(&self) -> Result<BenchmarkOutput, SuiteError> {
        self.run().map(BenchmarkOutput::unmetered)
    }

    /// Whether this benchmark needs exclusive use of the power meter.
    ///
    /// Metered native benchmarks return `true`: concurrent native runs
    /// would perturb each other's sampled power (one wall meter per node,
    /// as in the paper's setup), so the runner serializes them. Simulated
    /// benchmarks are pure computation and may fan out freely.
    fn exclusive_meter(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgi_core::{Perf, Seconds, Watts};

    struct Dummy;
    impl Benchmark for Dummy {
        fn id(&self) -> &str {
            "dummy"
        }
        fn subsystem(&self) -> &'static str {
            "none"
        }
        fn run(&self) -> Result<Measurement, SuiteError> {
            Ok(Measurement::new("dummy", Perf::gflops(1.0), Watts::new(100.0), Seconds::new(1.0))?)
        }
    }

    #[test]
    fn trait_is_object_safe_and_runs() {
        let b: Box<dyn Benchmark> = Box::new(Dummy);
        assert_eq!(b.id(), "dummy");
        let m = b.run().unwrap();
        assert_eq!(m.id(), "dummy");
    }

    #[test]
    fn error_display() {
        let e = SuiteError::ValidationFailed {
            benchmark: "hpl".into(),
            detail: "residual 20 > 16".into(),
        };
        assert!(e.to_string().contains("hpl"));
        assert!(e.to_string().contains("residual"));
        let k = SuiteError::Kernel("singular".into());
        assert!(k.to_string().contains("singular"));
    }

    #[test]
    fn error_conversions() {
        let t: SuiteError = tgi_core::TgiError::EmptyBenchmarkSet.into();
        assert!(matches!(t, SuiteError::Metric(_)));
        let io: SuiteError = std::io::Error::other("x").into();
        assert!(matches!(io, SuiteError::Io(_)));
    }
}
