//! Integration tests for the extension features: config-driven suites,
//! sensitivity analysis, power capping, and the experiment bundle. The two
//! native-suite tests take one file-level lock, so neither times its
//! kernels while the other competes for the same cores — the self-TGI
//! check is a ratio of single-shot timings.

use std::sync::Mutex;
use tgi::cluster::{power_cap, ClusterSpec, ExecutionEngine, Workload};
use tgi::core::sensitivity;
use tgi::core::vector::{Dominance, EfficiencyVector};
use tgi::harness::{extensions, system_g_reference, ExperimentBundle};
use tgi::prelude::*;
use tgi::suite::{BenchmarkSpec, SuiteSpec};

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn config_driven_suite_to_tgi_end_to_end() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // JSON spec → suite → measurements → reference → TGI = self-comparison.
    let json = r#"{
        "benchmarks": [
            {"kind": "hpl", "n": 96},
            {"kind": "stream", "array_size": 32768, "ntimes": 2},
            {"kind": "iozone", "file_size": 524288, "fsync": false}
        ]
    }"#;
    let spec: SuiteSpec = serde_json::from_str(json).expect("valid spec");
    let reference = spec.build().expect("valid spec").run_as_reference("self").expect("suite runs");
    let measurements = spec.build().expect("valid spec").run_all().expect("suite runs");
    let tgi = Tgi::builder()
        .reference(reference)
        .measurements(measurements)
        .compute()
        .expect("ids match");
    assert!(tgi.value() > 0.1 && tgi.value() < 10.0, "self-TGI {}", tgi.value());
}

#[test]
fn hpcc_style_spec_runs_seven_benchmarks() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut spec = SuiteSpec::hpcc_style();
    // Shrink for test speed.
    for b in &mut spec.benchmarks {
        match b {
            BenchmarkSpec::Hpl { n } | BenchmarkSpec::Dgemm { n } | BenchmarkSpec::Ptrans { n } => {
                *n = 64
            }
            BenchmarkSpec::Fft { n } => *n = 1 << 10,
            BenchmarkSpec::Stream { array_size, ntimes } => {
                *array_size = 1 << 14;
                *ntimes = 2;
            }
            BenchmarkSpec::Gups { log2_size } => *log2_size = 12,
            BenchmarkSpec::Comm { ranks } => *ranks = 2,
            _ => {}
        }
    }
    let ms = spec.build().expect("valid spec").run_all().expect("suite runs");
    assert_eq!(ms.len(), 7);
    let ids: Vec<&str> = ms.iter().map(|m| m.id()).collect();
    assert_eq!(ids, vec!["hpl", "dgemm", "stream", "ptrans", "gups", "fft", "comm"]);
}

#[test]
fn sensitivity_flip_is_consistent_with_dominance() {
    // Fire vs Fire-GPU are Pareto-incomparable, so a flip must exist; a
    // system compared against itself scaled down is dominated, so none may.
    let reference = system_g_reference();
    let measure = |cluster: &ClusterSpec| -> Vec<Measurement> {
        ExecutionEngine::new(cluster.clone())
            .run_suite(&Workload::fire_suite(), cluster.total_cores())
            .into_iter()
            .map(|r| r.measurement())
            .collect()
    };
    let fire_ms = measure(&ClusterSpec::fire());
    let gpu_ms = measure(&ClusterSpec::fire_gpu());

    let tgi = |ms: &[Measurement]| {
        Tgi::builder()
            .reference(reference.clone())
            .measurements(ms.iter().cloned())
            .compute()
            .expect("valid")
    };
    let va = EfficiencyVector::from_suite(&reference, &fire_ms).expect("valid");
    let vb = EfficiencyVector::from_suite(&reference, &gpu_ms).expect("valid");
    assert_eq!(va.dominance(&vb).expect("comparable"), Dominance::Incomparable);
    let rob =
        sensitivity::compare("fire", &tgi(&fire_ms), "gpu", &tgi(&gpu_ms)).expect("comparable");
    assert!(rob.flip.is_some(), "incomparable pair must have a flip");

    // Dominated pair: the same system with every performance halved.
    let worse: Vec<Measurement> = fire_ms
        .iter()
        .map(|m| {
            Measurement::new(
                m.id(),
                Perf::new(m.performance().value() / 2.0, m.performance().unit().clone())
                    .expect("valid"),
                m.power(),
                m.time(),
            )
            .expect("valid")
        })
        .collect();
    let rob2 =
        sensitivity::compare("fire", &tgi(&fire_ms), "half", &tgi(&worse)).expect("comparable");
    assert_eq!(rob2.leader, "fire");
    assert!(rob2.flip.is_none(), "dominated pair cannot flip: {:?}", rob2.flip);
}

#[test]
fn capped_tgi_is_below_uncapped_tgi() {
    let reference = system_g_reference();
    let fire = ClusterSpec::fire();
    let suite = Workload::fire_suite();

    let capped_measurements: Vec<Measurement> = suite
        .iter()
        .map(|w| {
            // Cap at 80% of each workload's natural draw.
            let natural = ExecutionEngine::new(fire.clone()).run(*w, 128);
            power_cap::run_capped(&fire, *w, 128, natural.average_power.value() * 0.8)
                .run
                .measurement()
        })
        .collect();
    let uncapped: Vec<Measurement> = ExecutionEngine::new(fire.clone())
        .run_suite(&suite, 128)
        .into_iter()
        .map(|r| r.measurement())
        .collect();

    let tgi = |ms: Vec<Measurement>| {
        Tgi::builder()
            .reference(reference.clone())
            .measurements(ms)
            .compute()
            .expect("valid")
            .value()
    };
    let (capped, full) = (tgi(capped_measurements), tgi(uncapped));
    // Capping only throttles the CPU: HPL slows while the memory- and
    // I/O-bound benchmarks keep their throughput at lower power, so the
    // capped system is at least as green and not wildly different.
    assert!(capped > 0.5 * full && capped < 2.0 * full, "capped {capped} vs full {full}");
}

#[test]
fn experiment_bundle_round_trips_through_disk() {
    let reference = system_g_reference();
    let sweep = tgi::harness::FireSweep::run();
    let bundle = ExperimentBundle::new(
        reference.name(),
        vec![tgi::harness::fig5_tgi_arithmetic(&sweep, &reference)],
        vec![
            tgi::harness::table2_pcc(&sweep, &reference),
            extensions::gpu_platform_comparison(&reference).expect("runs"),
        ],
    );
    let path = std::env::temp_dir().join(format!("tgi_it_bundle_{}.json", std::process::id()));
    bundle.write(&path).expect("writable");
    let back = ExperimentBundle::read(&path).expect("readable");
    assert_eq!(bundle, back);
    assert!(back.figure("fig5").is_some());
    assert!(back.table("table2").is_some());
    assert!(back.table("ext-gpu").is_some());
    assert!(back.to_markdown().contains("### fig5"));
    std::fs::remove_file(&path).expect("cleanup");
}
