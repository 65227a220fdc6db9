//! Integration: power substrate — models, meters, traces, cooling — wired
//! together the way Figure 1 wires the physical setup.

use std::sync::Arc;
use std::time::Duration;
use tgi::power::meter::IdealMeter;
use tgi::power::sampler::ConstantSource;
use tgi::power::{
    BackgroundSampler, CoolingModel, MeterSpec, NodePowerModel, PowerMeter, UtilizationProfile,
    UtilizationSample, WattsUpPro,
};
use tgi::prelude::*;

#[test]
fn profile_through_model_through_meter_to_energy() {
    // A three-phase workload on a Fire node, observed through the simulated
    // Watts Up? PRO: the measured energy must match ground truth within the
    // instrument's accuracy.
    let node = NodePowerModel::fire_node();
    let mut profile = UtilizationProfile::new();
    profile.push(30.0, UtilizationSample::cpu_bound(1.0));
    profile.push(20.0, UtilizationSample::memory_bound(0.8));
    profile.push(10.0, UtilizationSample::io_bound(0.6));

    let ground_truth = |t: f64| node.wall_power(profile.at(t));

    let mut fine = IdealMeter::new(0.05);
    let truth = fine.record(&ground_truth, profile.duration_s()).energy().value();

    let mut meter = WattsUpPro::new(77);
    let trace = meter.record(&ground_truth, profile.duration_s());
    let measured = trace.energy().value();
    assert!((measured - truth).abs() < 0.05 * truth, "measured {measured} vs truth {truth}");
    // The trace also yields a valid tgi-core measurement.
    let m = Measurement::new(
        "phase-workload",
        Perf::gflops(10.0),
        trace.average_power(),
        Seconds::new(profile.duration_s()),
    )
    .and_then(|m| m.with_energy(Joules::new(measured)))
    .expect("valid measurement");
    assert!(m.energy_efficiency() > 0.0);
}

#[test]
fn one_hz_meter_underestimates_bursty_energy_fine_meter_does_not() {
    // The sampling-rate limitation quantified: sub-second spikes between
    // 1 Hz samples are invisible.
    let spiky = |t: f64| {
        if (t % 1.0) > 0.4 && (t % 1.0) < 0.6 {
            Watts::new(1000.0)
        } else {
            Watts::new(100.0)
        }
    };
    let mut fine = IdealMeter::new(0.01);
    let truth = fine.record(&spiky, 30.0).energy().value();
    let mut coarse = WattsUpPro::calibrated(3);
    let coarse_e = coarse.record(&spiky, 30.0).energy().value();
    // 1 Hz samples land at whole seconds, exactly in the 100 W region.
    assert!(coarse_e < truth * 0.8, "coarse {coarse_e} vs truth {truth}");

    // A square wave off the 1 s grid: 400 W with a 0.3 s spike to 900 W
    // every 2.3 s. Coarser sampling never tracks it better, and the phase
    // drift between samples and spikes keeps the 1 Hz meter within 1%.
    let bursty = |t: f64| Watts::new(if t % 2.3 < 0.3 { 900.0 } else { 400.0 });
    let duration = 120.0;
    let truth = IdealMeter::new(0.01).record(&bursty, duration).energy().value();
    let error = |energy: f64| (energy - truth) / truth;
    let errors: Vec<f64> = [0.1, 0.5, 1.0, 2.0, 5.0]
        .iter()
        .map(|&interval| {
            error(IdealMeter::new(interval).record(&bursty, duration).energy().value()).abs()
        })
        .collect();
    assert!(errors.windows(2).all(|w| w[0] <= w[1]), "errors by interval: {errors:?}");
    let wattsup = error(WattsUpPro::calibrated(7).record(&bursty, duration).energy().value());
    assert!(wattsup.abs() < 0.01, "Watts Up? PRO error {wattsup}");
}

#[test]
fn background_sampler_feeds_measurement_pipeline() {
    let sampler =
        BackgroundSampler::start(Arc::new(ConstantSource(222.0)), Duration::from_millis(5));
    std::thread::sleep(Duration::from_millis(40));
    let trace = sampler.stop();
    assert!((trace.average_power().value() - 222.0).abs() < 1e-9);
    let m = Measurement::new("sampled", Perf::mbps(100.0), trace.average_power(), trace.duration())
        .expect("valid");
    assert!(m.power().value() > 0.0);
}

#[test]
fn facility_tgi_is_lower_than_it_tgi() {
    // Cooling extension: folding PUE into power must reduce TGI by exactly
    // the PUE factor under the arithmetic mean with a fixed-power reference.
    let reference = ReferenceSystem::builder("ref")
        .benchmark(
            Measurement::new("hpl", Perf::gflops(10.0), Watts::new(1000.0), Seconds::new(60.0))
                .expect("valid"),
        )
        .build()
        .expect("non-empty");
    let it = Measurement::new("hpl", Perf::gflops(8.0), Watts::new(900.0), Seconds::new(60.0))
        .expect("valid");
    let cooling = CoolingModel::fixed(1.5);
    let facility = Measurement::new(
        "hpl",
        it.performance().clone(),
        cooling.facility_power(it.power()),
        it.time(),
    )
    .expect("valid");

    let tgi_it = Tgi::builder()
        .reference(reference.clone())
        .measurement(it)
        .compute()
        .expect("valid")
        .value();
    let tgi_fac =
        Tgi::builder().reference(reference).measurement(facility).compute().expect("valid").value();
    assert!((tgi_fac - tgi_it / 1.5).abs() < 1e-12);

    // The Fire sweep's 128-core point under every weighting: a uniform PUE
    // scales each benchmark's power and metered energy alike, so the
    // weights do not move and TGI falls by exactly the PUE.
    let system_g = tgi::harness::system_g_reference();
    let sweep = tgi::harness::FireSweep::run();
    let point = sweep.points().iter().find(|p| p.cores == 128).expect("128-core point");
    let tgi_with = |weighting: &Weighting, measurements: Vec<Measurement>| {
        Tgi::builder()
            .reference(system_g.clone())
            .weighting(weighting.clone())
            .measurements(measurements)
            .compute()
            .expect("valid")
            .value()
    };
    for weighting in [Weighting::Arithmetic, Weighting::Time, Weighting::Energy, Weighting::Power] {
        let tgi_it = tgi_with(&weighting, point.measurements.clone());
        for (cooling, pue) in
            [(CoolingModel::typical_2012(), 1.8), (CoolingModel::free_cooled(), 1.1)]
        {
            let facility = point
                .measurements
                .iter()
                .map(|m| {
                    Measurement::new(
                        m.id(),
                        m.performance().clone(),
                        cooling.facility_power(m.power()),
                        m.time(),
                    )
                    .and_then(|f| f.with_energy(Joules::new(m.energy().value() * pue)))
                    .expect("valid")
                })
                .collect();
            let tgi_fac = tgi_with(&weighting, facility);
            let expected = tgi_it / pue;
            assert!(
                ((tgi_fac - expected) / expected).abs() < 1e-12,
                "{}, PUE {pue}: facility TGI {tgi_fac} vs IT TGI / PUE {expected}",
                weighting.label()
            );
        }
    }
}

#[test]
fn meter_specs_expose_instrument_limits() {
    let wu = MeterSpec::watts_up_pro_es();
    assert_eq!(wu.sample_interval_s, 1.0);
    // The PDU variant raises the ceiling for cluster-level metering.
    let meter = WattsUpPro::pdu(5);
    assert!(meter.spec().max_watts > 50_000.0);
    // A 40 kW cluster reading is not clamped by the PDU meter.
    let mut meter = WattsUpPro::pdu(5);
    let trace = meter.record(&|_| Watts::new(40_000.0), 5.0);
    assert!(trace.peak_power().value() > 38_000.0);
}
