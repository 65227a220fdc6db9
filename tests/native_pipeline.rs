//! Integration: real kernels → sampled power → measurements → TGI.
//!
//! Exercises the full native path of the stack on this machine with
//! test-sized workloads. The tests take one file-level lock, so no test
//! times its kernels while a sibling competes for the same cores — the
//! self-TGI check is a ratio of single-shot timings.

use std::sync::Mutex;
use tgi::prelude::*;
use tgi::suite::native::{
    NativeDgemm, NativeFft, NativeGups, NativeHpl, NativeIozone, NativePtrans, NativeStream,
};
use tgi::suite::{Benchmark, BenchmarkSuite};

static SERIAL: Mutex<()> = Mutex::new(());

fn small_suite() -> BenchmarkSuite {
    let mut stream = NativeStream::new(1 << 15);
    stream.config.ntimes = 2;
    let mut iozone = NativeIozone::new(256 << 10);
    iozone.config.fsync = false;
    BenchmarkSuite::new().with(NativeHpl::new(96)).with(stream).with(iozone)
}

#[test]
fn native_suite_produces_three_valid_measurements() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let measurements = small_suite().run_all().expect("suite runs");
    assert_eq!(measurements.len(), 3);
    let ids: Vec<&str> = measurements.iter().map(|m| m.id()).collect();
    assert_eq!(ids, vec!["hpl", "stream", "iozone"]);
    for m in &measurements {
        assert!(m.performance().value() > 0.0, "{}", m.id());
        assert!(m.power().value() > 0.0, "{}", m.id());
        assert!(m.time().value() > 0.0, "{}", m.id());
        assert!(m.energy().value() > 0.0, "{}", m.id());
    }
}

#[test]
fn native_run_promotes_to_reference_and_scores_one_against_itself() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A machine measured against its own suite run scores TGI ≈ 1 — not
    // exactly 1, because the two runs sample power independently.
    let reference = small_suite().run_as_reference("this-machine").expect("runs");
    let again = small_suite().run_all().expect("runs");
    let tgi = Tgi::builder()
        .reference(reference)
        .measurements(again)
        .compute()
        .expect("same benchmark ids");
    assert!(
        tgi.value() > 0.2 && tgi.value() < 5.0,
        "self-TGI should be near 1, got {}",
        tgi.value()
    );
}

#[test]
fn extension_benchmarks_integrate_with_tgi() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // §II: TGI is not limited to three benchmarks. Build a 7-test suite
    // (like HPCC's seven) and compute TGI over all of them.
    let mut stream = NativeStream::new(1 << 15);
    stream.config.ntimes = 2;
    let mut iozone = NativeIozone::new(256 << 10);
    iozone.config.fsync = false;
    let suite = BenchmarkSuite::new()
        .with(NativeHpl::new(96))
        .with(stream)
        .with(iozone)
        .with(NativeDgemm::new(96))
        .with(NativeFft::new(1 << 10))
        .with(NativePtrans::new(128))
        .with(NativeGups::new(12));
    assert_eq!(suite.len(), 7);

    let reference = suite.run_as_reference("seven-test-reference").expect("runs");
    assert_eq!(reference.len(), 7);

    let measurements = suite.run_all().expect("runs");
    let tgi = Tgi::builder()
        .reference(reference)
        .measurements(measurements)
        .compute()
        .expect("all ids match");
    assert_eq!(tgi.contributions().len(), 7);
    let weight_sum: f64 = tgi.contributions().iter().map(|c| c.weight).sum();
    assert!((weight_sum - 1.0).abs() < 1e-9);
}

#[test]
fn benchmark_subsystem_labels_cover_cpu_memory_io() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let suite = small_suite();
    let _ = suite.ids();
    let subsystems: Vec<&str> = vec![
        NativeHpl::new(16).subsystem(),
        NativeStream::new(16).subsystem(),
        NativeIozone::new(1 << 16).subsystem(),
    ];
    assert_eq!(subsystems, vec!["cpu", "memory", "io"]);
}

#[test]
fn validation_failures_surface_as_errors() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A mis-configured I/O benchmark (record > file) errors rather than
    // producing a bogus measurement.
    let mut bad = NativeIozone::new(1 << 10);
    bad.config.record_size = 1 << 20;
    assert!(bad.run().is_err());
}
