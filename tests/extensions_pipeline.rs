//! Integration tests for the extension features: config-driven suites, the
//! §II weight flip through `FleetSweep`, and the experiment bundle. The two
//! native-suite tests take one file-level lock, so neither times its
//! kernels while the other competes for the same cores — the self-TGI
//! check is a ratio of single-shot timings.

use std::sync::Mutex;
use tgi::cluster::{ClusterSpec, Workload};
use tgi::harness::{extensions, system_g_reference, ExperimentBundle, FleetSweep};
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
fn hpl_heavy_weights_flip_fire_vs_fire_gpu() {
    // §II: the weights decide the purchase. Under equal weights Fire leads
    // Fire-GPU (as `ext-gpu` shows); Fire-GPU's HPL edge wins once HPL
    // carries nearly all the weight. TGI is linear in the weights, so the
    // flip weight follows from the measured REEs.
    let reference = system_g_reference();
    let sweep = |weightings: &[Weighting]| {
        FleetSweep::new()
            .fleet([ClusterSpec::fire(), ClusterSpec::fire_gpu()])
            .suite("fire", Workload::fire_suite())
            .weightings(weightings)
            .means(&[MeanKind::Arithmetic])
    };
    let probe = sweep(&[Weighting::Arithmetic]);
    let rees = |system: usize| -> Vec<f64> {
        probe.measurements(system, 0).iter().map(|m| reference.ree(m).expect("valid")).collect()
    };
    let (fire, gpu) = (rees(0), rees(1));
    // With weight w on HPL and (1 − w)/2 on STREAM and IOzone, Fire-GPU
    // leads once w·hpl_gain > (1 − w)/2 · rest_loss.
    let hpl_gain = gpu[0] - fire[0];
    let rest_loss = (fire[1] - gpu[1]) + (fire[2] - gpu[2]);
    assert!(hpl_gain > 0.0 && rest_loss > 0.0, "HPL gain {hpl_gain}, rest loss {rest_loss}");
    let flip = rest_loss / (2.0 * hpl_gain + rest_loss);
    assert!(flip > 1.0 / 3.0 && flip < 1.0, "flip weight {flip}");
    let w = (1.0 + flip) / 2.0;
    let hpl_heavy = Weighting::Custom(vec![w, (1.0 - w) / 2.0, (1.0 - w) / 2.0]);

    let table = sweep(&[Weighting::Arithmetic, hpl_heavy]).run(&reference).expect("runs");
    let (fire_eq, gpu_eq) = (table.value(0, 0, 0, 0), table.value(1, 0, 0, 0));
    assert!(fire_eq > gpu_eq, "equal weights: Fire {fire_eq} vs Fire-GPU {gpu_eq}");
    let (fire_hpl, gpu_hpl) = (table.value(0, 0, 1, 0), table.value(1, 0, 1, 0));
    assert!(gpu_hpl > fire_hpl, "HPL weight {w}: Fire {fire_hpl} vs Fire-GPU {gpu_hpl}");
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
