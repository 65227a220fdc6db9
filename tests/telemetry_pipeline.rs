//! End-to-end telemetry acceptance: one instrumented run across the whole
//! pipeline — resilient suite with a forced retry, memoized fleet sweep,
//! explicit thread-pool work — must produce a valid Chrome trace with
//! correctly nesting spans and a Prometheus snapshot whose retry, memo-hit,
//! and pool-steal counters are all nonzero.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use rayon::prelude::*;
use serde::Value;
use tgi::cluster::{ClusterSpec, ExecutionEngine, Workload};
use tgi::core::Measurement;
use tgi::harness::{system_g_reference, FleetSweep};
use tgi::suite::{Benchmark, BenchmarkSuite, SuiteError, SuiteRunner};

/// The collector is process-global; serialize the tests that install it.
static GATE: Mutex<()> = Mutex::new(());

/// Fails with a transient I/O error on the first attempt, then succeeds.
struct FlakyOnce {
    attempts: AtomicUsize,
}

impl Benchmark for FlakyOnce {
    fn id(&self) -> &str {
        "flaky"
    }
    fn subsystem(&self) -> &'static str {
        "test"
    }
    fn run(&self) -> Result<Measurement, SuiteError> {
        if self.attempts.fetch_add(1, Ordering::SeqCst) == 0 {
            return Err(SuiteError::Io(std::io::Error::other("scratch disk busy")));
        }
        Ok(Measurement::new(
            "flaky",
            tgi::core::Perf::gflops(1.0),
            tgi::core::Watts::new(100.0),
            tgi::core::Seconds::new(1.0),
        )?)
    }
}

/// Runs the whole instrumented pipeline and returns (events, snapshot).
fn run_instrumented_pipeline() -> (Vec<tgi::telemetry::Event>, tgi::telemetry::MetricsSnapshot) {
    assert!(tgi::telemetry::install(), "collector must install");

    // 1. Resilient suite with a forced retry (transient failure, then ok).
    let suite = BenchmarkSuite::new().with(FlakyOnce { attempts: AtomicUsize::new(0) });
    let report = SuiteRunner::new().retries(2).backoff(Duration::from_millis(1)).run(&suite);
    assert_eq!(report.measurements().len(), 1, "flaky benchmark must recover");

    // 2. Fire core-count sweep run twice: the second pass is answered from
    //    the memo.
    let sweep = FleetSweep::new()
        .system_at(ExecutionEngine::new(ClusterSpec::fire()), 32)
        .system_at(ExecutionEngine::new(ClusterSpec::fire()), 64)
        .suite("fire", Workload::fire_suite())
        .paper_axes();
    let reference = system_g_reference();
    sweep.run(&reference).expect("sweep evaluates");
    sweep.run(&reference).expect("sweep re-evaluates");
    let (hits, _misses) = sweep.memo_stats();
    assert!(hits > 0, "second sweep must hit the memo");

    // 3. Chunky work on an explicit 4-thread pool so workers take jobs
    //    from the shared queue (counted as steals).
    let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let items: Vec<u64> = (0..256).collect();
    let total: u64 = pool.install(|| {
        items.par_iter().map(|&i| (0..2_000u64).fold(i, |a, b| a ^ b.wrapping_mul(31))).sum()
    });
    assert!(total > 0);

    let events = tgi::telemetry::uninstall();
    let snapshot = tgi::telemetry::metrics::snapshot();
    (events, snapshot)
}

#[test]
fn full_pipeline_produces_nonzero_counters_and_a_nesting_trace() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (events, snapshot) = run_instrumented_pipeline();

    // Acceptance counters: retries, memo hits, and pool steals all moved.
    for name in ["tgi_suite_retries_total", "tgi_memo_hits_total", "tgi_pool_steals_total"] {
        let v = snapshot.counter(name).unwrap_or(0);
        assert!(v > 0, "{name} must be nonzero, snapshot: {snapshot:?}");
    }

    // The Prometheus exposition carries them too.
    let prom = tgi::telemetry::export::prometheus(&snapshot);
    assert!(prom.contains("# TYPE tgi_suite_retries_total counter"), "{prom}");
    assert!(prom.contains("# TYPE tgi_memo_hits_total counter"), "{prom}");
    assert!(prom.contains("# TYPE tgi_pool_steals_total counter"), "{prom}");

    // The Chrome trace parses, pairs, and nests within each thread lane.
    let trace = tgi::telemetry::export::chrome_trace(&events);
    let doc: Value = serde_json::from_str(&trace).expect("trace is valid JSON");
    let trace_events = doc.get("traceEvents").and_then(Value::as_array).expect("traceEvents");
    assert_eq!(trace_events.len(), events.len());

    // Collect complete ("X") events per tid as [start, end) microsecond
    // intervals; within a lane every pair must nest or be disjoint.
    let mut lanes: Vec<(f64, Vec<(f64, f64)>)> = Vec::new();
    for ev in trace_events {
        if ev.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        let tid = ev.get("tid").and_then(Value::as_f64).expect("tid");
        let ts = ev.get("ts").and_then(Value::as_f64).expect("ts");
        let dur = ev.get("dur").and_then(Value::as_f64).expect("dur");
        assert!(dur >= 0.0);
        let lane = match lanes.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, lane)) => lane,
            None => {
                lanes.push((tid, Vec::new()));
                &mut lanes.last_mut().unwrap().1
            }
        };
        lane.push((ts, ts + dur));
    }
    assert!(!lanes.is_empty(), "trace must contain complete spans");
    for (tid, lane) in &lanes {
        for (i, &(s1, e1)) in lane.iter().enumerate() {
            for &(s2, e2) in &lane[i + 1..] {
                let nested = (s1 <= s2 && e2 <= e1) || (s2 <= s1 && e1 <= e2);
                let disjoint = e1 <= s2 || e2 <= s1;
                assert!(
                    nested || disjoint,
                    "spans overlap without nesting on tid {tid}: \
                     [{s1}, {e1}) vs [{s2}, {e2})"
                );
            }
        }
    }

    // The suite retry left an instant marker in the timeline.
    let has_retry_marker = trace_events.iter().any(|ev| {
        ev.get("ph").and_then(Value::as_str) == Some("i")
            && ev.get("name").and_then(Value::as_str) == Some("suite.retry")
    });
    assert!(has_retry_marker, "expected a suite.retry instant in the trace");
}

#[test]
fn disabled_runs_record_nothing() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    assert!(!tgi::telemetry::installed());

    let suite = BenchmarkSuite::new().with(FlakyOnce { attempts: AtomicUsize::new(1) });
    let report = SuiteRunner::new().run(&suite);
    assert_eq!(report.measurements().len(), 1);

    assert!(tgi::telemetry::drain().is_empty(), "no collector, no events");
}
