//! Declarative suite configuration.
//!
//! A [`SuiteSpec`] describes which benchmarks to run and at what sizes, in
//! a serde-friendly shape, so a suite can be defined in a JSON file and
//! executed by the `tgi-native` binary — the "agreed benchmark recipe" role
//! that HPL's `HPL.dat` and IOzone's flag conventions play for the paper's
//! methodology.

use crate::benchmark::{Benchmark, SuiteError};
use crate::native::{
    NativeComm, NativeDgemm, NativeDistributedHpl, NativeFft, NativeGups, NativeHpl, NativeIozone,
    NativePtrans, NativeStream,
};
use crate::suite::BenchmarkSuite;
use hpc_kernels::random_access::GupsConfig;
use hpc_kernels::stream::MAX_NTIMES;
use serde::{Deserialize, Serialize};

/// The most ranks a `distributed_hpl` or `comm` entry may ask for: the
/// paper's largest run, 1,024 processes. Ranks are threads, so the cap
/// keeps a spec from starting an unbounded number of them.
const MAX_RANKS: usize = 1024;

/// One benchmark entry in a suite spec.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum BenchmarkSpec {
    /// Shared-memory HPL of order `n`.
    Hpl {
        /// Problem order.
        n: usize,
    },
    /// Distributed HPL over the mini-MPI runtime.
    DistributedHpl {
        /// Problem order.
        n: usize,
        /// MPI ranks (threads).
        ranks: usize,
    },
    /// STREAM with the given array size and repetitions.
    Stream {
        /// Elements per array.
        array_size: usize,
        /// Repetitions per kernel (best time wins).
        ntimes: usize,
    },
    /// IOzone-style write test.
    Iozone {
        /// File size in bytes.
        file_size: u64,
        /// Whether to fsync (include flush in the timing).
        fsync: bool,
    },
    /// DGEMM of order `n`.
    Dgemm {
        /// Matrix order.
        n: usize,
    },
    /// FFT of length `n` (power of two).
    Fft {
        /// Transform length.
        n: usize,
    },
    /// PTRANS of order `n`.
    Ptrans {
        /// Matrix order.
        n: usize,
    },
    /// RandomAccess with a `2^log2_size`-word table.
    Gups {
        /// log₂ of the table size.
        log2_size: u32,
    },
    /// b_eff-style communication test.
    Comm {
        /// Communicating ranks.
        ranks: usize,
    },
}

impl BenchmarkSpec {
    /// Rejects every size the kernel would refuse with a panic, before
    /// any benchmark runs or any rank thread starts.
    fn validate(&self) -> Result<(), SuiteError> {
        let reject = |benchmark: &str, detail: String| {
            Err(SuiteError::InvalidSpec { benchmark: benchmark.into(), detail })
        };
        let ranks_ok = |ranks: usize, min: usize| (min..=MAX_RANKS).contains(&ranks);
        match *self {
            BenchmarkSpec::Hpl { n: 0 } => reject("hpl", "n must be positive".into()),
            BenchmarkSpec::DistributedHpl { n: 0, .. } => {
                reject("distributed_hpl", "n must be positive".into())
            }
            BenchmarkSpec::DistributedHpl { ranks, .. } if !ranks_ok(ranks, 1) => {
                reject("distributed_hpl", format!("ranks {ranks} is outside 1..={MAX_RANKS}"))
            }
            BenchmarkSpec::Stream { array_size: 0, .. } => {
                reject("stream", "array_size must be positive".into())
            }
            BenchmarkSpec::Stream { ntimes: 0, .. } => {
                reject("stream", "ntimes must be positive".into())
            }
            BenchmarkSpec::Stream { ntimes, .. } if ntimes > MAX_NTIMES => reject(
                "stream",
                format!("ntimes {ntimes} is above {MAX_NTIMES}, past which the check overflows"),
            ),
            BenchmarkSpec::Fft { n } if !n.is_power_of_two() => {
                reject("fft", format!("n {n} is not a power of two"))
            }
            BenchmarkSpec::Gups { log2_size } if log2_size < 4 => {
                reject("gups", format!("log2_size {log2_size} is below 4 (a 16-word table)"))
            }
            BenchmarkSpec::Gups { log2_size } if !GupsConfig::fits(log2_size) => reject(
                "gups",
                format!("log2_size {log2_size} overflows the table's bytes or update count"),
            ),
            BenchmarkSpec::Comm { ranks } if !ranks_ok(ranks, 2) => {
                reject("comm", format!("ranks {ranks} is outside 2..={MAX_RANKS}"))
            }
            _ => Ok(()),
        }
    }

    fn build(&self) -> Box<dyn Benchmark> {
        match *self {
            BenchmarkSpec::Hpl { n } => Box::new(NativeHpl::new(n)),
            BenchmarkSpec::DistributedHpl { n, ranks } => {
                Box::new(NativeDistributedHpl::new(n, ranks))
            }
            BenchmarkSpec::Stream { array_size, ntimes } => {
                let mut b = NativeStream::new(array_size);
                b.config.ntimes = ntimes;
                Box::new(b)
            }
            BenchmarkSpec::Iozone { file_size, fsync } => {
                let mut b = NativeIozone::new(file_size);
                b.config.fsync = fsync;
                Box::new(b)
            }
            BenchmarkSpec::Dgemm { n } => Box::new(NativeDgemm::new(n)),
            BenchmarkSpec::Fft { n } => Box::new(NativeFft::new(n)),
            BenchmarkSpec::Ptrans { n } => Box::new(NativePtrans::new(n)),
            BenchmarkSpec::Gups { log2_size } => Box::new(NativeGups::new(log2_size)),
            BenchmarkSpec::Comm { ranks } => Box::new(NativeComm::new(ranks)),
        }
    }
}

/// A full suite description.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuiteSpec {
    /// Benchmarks in execution order.
    pub benchmarks: Vec<BenchmarkSpec>,
}

impl SuiteSpec {
    /// The paper's three-benchmark suite at laptop-friendly sizes.
    pub fn standard() -> Self {
        SuiteSpec {
            benchmarks: vec![
                BenchmarkSpec::Hpl { n: 1024 },
                BenchmarkSpec::Stream { array_size: 1 << 22, ntimes: 10 },
                BenchmarkSpec::Iozone { file_size: 64 << 20, fsync: true },
            ],
        }
    }

    /// A seconds-scale variant for tests and smoke runs.
    pub fn quick() -> Self {
        SuiteSpec {
            benchmarks: vec![
                BenchmarkSpec::Hpl { n: 128 },
                BenchmarkSpec::Stream { array_size: 1 << 16, ntimes: 3 },
                BenchmarkSpec::Iozone { file_size: 1 << 20, fsync: false },
            ],
        }
    }

    /// The seven-test HPCC-style suite (§I's model for multi-component
    /// benchmarking), sized for quick runs.
    pub fn hpcc_style() -> Self {
        SuiteSpec {
            benchmarks: vec![
                BenchmarkSpec::Hpl { n: 256 },
                BenchmarkSpec::Dgemm { n: 256 },
                BenchmarkSpec::Stream { array_size: 1 << 18, ntimes: 5 },
                BenchmarkSpec::Ptrans { n: 256 },
                BenchmarkSpec::Gups { log2_size: 16 },
                BenchmarkSpec::Fft { n: 1 << 14 },
                BenchmarkSpec::Comm { ranks: 4 },
            ],
        }
    }

    /// Materializes the executable suite, after checking every entry.
    ///
    /// # Errors
    /// [`SuiteError::InvalidSpec`] for the first entry whose sizes its
    /// kernel cannot run (for example an FFT length that is not a power of
    /// two, or more than 1,024 ranks); nothing is built then.
    pub fn build(&self) -> Result<BenchmarkSuite, SuiteError> {
        let mut suite = BenchmarkSuite::new();
        for spec in &self.benchmarks {
            spec.validate()?;
            suite.push(spec.build());
        }
        Ok(suite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_shapes() {
        assert_eq!(SuiteSpec::standard().benchmarks.len(), 3);
        assert_eq!(SuiteSpec::quick().benchmarks.len(), 3);
        assert_eq!(SuiteSpec::hpcc_style().benchmarks.len(), 7);
    }

    #[test]
    fn quick_suite_builds_and_runs() {
        let suite = SuiteSpec::quick().build().expect("valid preset");
        assert_eq!(suite.ids(), vec!["hpl", "stream", "iozone"]);
        let ms = suite.run_all().expect("quick suite runs");
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn json_round_trip() {
        let spec = SuiteSpec::hpcc_style();
        let json = serde_json::to_string_pretty(&spec).expect("serializable");
        let back: SuiteSpec = serde_json::from_str(&json).expect("parseable");
        assert_eq!(spec, back);
        // The tagged format is the documented one.
        assert!(json.contains("\"kind\": \"hpl\""));
        assert!(json.contains("\"kind\": \"gups\""));
    }

    #[test]
    fn unknown_kind_rejected() {
        let json = r#"{"benchmarks": [{"kind": "quantum", "qubits": 3}]}"#;
        assert!(serde_json::from_str::<SuiteSpec>(json).is_err());
    }

    #[test]
    fn distributed_hpl_spec_builds() {
        let spec =
            SuiteSpec { benchmarks: vec![BenchmarkSpec::DistributedHpl { n: 64, ranks: 2 }] };
        let suite = spec.build().expect("valid spec");
        assert_eq!(suite.ids(), vec!["hpl"]);
        let ms = suite.run_all().expect("runs");
        assert!(ms[0].performance().as_gflops() > 0.0);
    }

    /// Builds a one-entry spec from JSON and returns its error text.
    fn rejection(entry: &str) -> String {
        let spec: SuiteSpec =
            serde_json::from_str(&format!(r#"{{"benchmarks": [{entry}]}}"#)).expect("parseable");
        match spec.build() {
            Err(e @ SuiteError::InvalidSpec { .. }) => e.to_string(),
            Err(e) => panic!("{entry}: wrong error {e}"),
            Ok(_) => panic!("{entry}: accepted"),
        }
    }

    #[test]
    fn fft_length_must_be_a_power_of_two() {
        assert!(rejection(r#"{"kind": "fft", "n": 1000}"#).contains("power of two"));
    }

    #[test]
    fn hpl_order_must_be_positive() {
        assert!(rejection(r#"{"kind": "hpl", "n": 0}"#).contains("n must be positive"));
    }

    #[test]
    fn distributed_hpl_order_must_be_positive() {
        let e = rejection(r#"{"kind": "distributed_hpl", "n": 0, "ranks": 2}"#);
        assert!(e.contains("n must be positive"), "{e}");
    }

    #[test]
    fn distributed_hpl_ranks_are_capped() {
        // Rejected before any thread starts.
        let e = rejection(r#"{"kind": "distributed_hpl", "n": 64, "ranks": 1025}"#);
        assert!(e.contains("1025"), "{e}");
        assert!(rejection(r#"{"kind": "distributed_hpl", "n": 64, "ranks": 0}"#).contains("ranks"));
    }

    #[test]
    fn comm_needs_two_ranks_and_at_most_the_cap() {
        assert!(rejection(r#"{"kind": "comm", "ranks": 1}"#).contains("ranks 1"));
        assert!(rejection(r#"{"kind": "comm", "ranks": 1025}"#).contains("ranks 1025"));
    }

    #[test]
    fn stream_needs_repetitions_and_elements() {
        let e = rejection(r#"{"kind": "stream", "array_size": 1024, "ntimes": 0}"#);
        assert!(e.contains("ntimes"), "{e}");
        let e = rejection(r#"{"kind": "stream", "array_size": 0, "ntimes": 2}"#);
        assert!(e.contains("array_size"), "{e}");
    }

    #[test]
    fn stream_repetitions_stop_where_the_expected_values_overflow() {
        let e = rejection(r#"{"kind": "stream", "array_size": 1024, "ntimes": 263}"#);
        assert!(e.contains("ntimes 263"), "{e}");
        let spec =
            SuiteSpec { benchmarks: vec![BenchmarkSpec::Stream { array_size: 1024, ntimes: 262 }] };
        assert!(spec.build().is_ok());
    }

    #[test]
    fn gups_table_must_have_sixteen_words() {
        assert!(rejection(r#"{"kind": "gups", "log2_size": 3}"#).contains("log2_size 3"));
    }

    #[test]
    fn gups_sizes_that_overflow_are_rejected() {
        for log2 in [61, 64] {
            let e = rejection(&format!(r#"{{"kind": "gups", "log2_size": {log2}}}"#));
            assert!(e.contains(&format!("log2_size {log2} overflows")), "{e}");
        }
    }

    #[test]
    fn one_bad_entry_rejects_the_whole_suite() {
        let mut spec = SuiteSpec::quick();
        spec.benchmarks.push(BenchmarkSpec::Fft { n: 3 });
        assert!(matches!(spec.build(), Err(SuiteError::InvalidSpec { .. })));
        for preset in [SuiteSpec::standard(), SuiteSpec::quick(), SuiteSpec::hpcc_style()] {
            assert!(preset.build().is_ok());
        }
    }
}
