//! One function per figure/table of the paper's evaluation (§IV).

use crate::report::{FigureData, Series, TableData};
use crate::sweep::FireSweep;
use cluster_sim::{ClusterSpec, ExecutionEngine, Workload};
use tgi_core::{stats, MeanKind, Measurement, ReferenceSystem, Weighting};

/// Builds the SystemG reference system by running the full-scale reference
/// experiments (1024 cores): the reproduction of Table I's data collection.
pub fn system_g_reference() -> ReferenceSystem {
    let engine = ExecutionEngine::new(ClusterSpec::system_g());
    let mut builder = ReferenceSystem::builder("SystemG");
    for w in Workload::system_g_suite() {
        builder = builder.benchmark(engine.run(w, 1024).measurement());
    }
    builder.build().expect("SystemG suite is non-empty and unique")
}

/// A one-series figure of a benchmark's energy efficiency, scaled to
/// millions (MFLOPS/W or MB/s per W), against `x` of each sweep point.
fn efficiency_figure(
    sweep: &FireSweep,
    benchmark: &str,
    x: impl Fn(f64) -> f64,
    (id, title, x_label, y_label): (&str, &str, &str, &str),
) -> FigureData {
    let pairs: Vec<(f64, f64)> =
        sweep.efficiency_series(benchmark).into_iter().map(|(c, ee)| (x(c), ee / 1e6)).collect();
    FigureData {
        id: id.into(),
        title: title.into(),
        x_label: x_label.into(),
        y_label: y_label.into(),
        series: vec![Series::from_pairs(y_label, &pairs)],
    }
}

/// Figure 2: energy efficiency of HPL (MFLOPS/W) vs number of MPI processes
/// on the Fire cluster.
pub fn fig2_hpl_efficiency(sweep: &FireSweep) -> FigureData {
    let labels = ("fig2", "Energy Efficiency of HPL", "processes", "MFLOPS/Watt");
    efficiency_figure(sweep, "hpl", |cores| cores, labels)
}

/// Figure 3: energy efficiency of STREAM (MB/s per watt) vs number of MPI
/// processes on the Fire cluster.
pub fn fig3_stream_efficiency(sweep: &FireSweep) -> FigureData {
    let labels = ("fig3", "Energy Efficiency of Stream", "processes", "MBPS/Watt");
    efficiency_figure(sweep, "stream", |cores| cores, labels)
}

/// Figure 4: energy efficiency of IOzone (MB/s per watt) vs number of nodes
/// on the Fire cluster.
pub fn fig4_iozone_efficiency(sweep: &FireSweep) -> FigureData {
    let cores_per_node = ClusterSpec::fire().node.cores() as f64;
    let labels = ("fig4", "Energy Efficiency of IOzone", "nodes", "MBPS/Watt");
    efficiency_figure(sweep, "iozone", |cores| (cores / cores_per_node).ceil(), labels)
}

/// TGI (arithmetic mean) under one weighting at every sweep point, as
/// `(cores, TGI)` pairs.
fn tgi_pairs(
    sweep: &FireSweep,
    reference: &ReferenceSystem,
    weighting: &Weighting,
) -> Vec<(f64, f64)> {
    let values = sweep
        .tgi_values(reference, weighting, MeanKind::Arithmetic)
        .expect("sweep measurements match the reference suite");
    sweep.points().iter().zip(values).map(|(p, v)| (p.cores as f64, v)).collect()
}

/// Figure 5: TGI using the arithmetic mean vs number of cores on Fire.
pub fn fig5_tgi_arithmetic(sweep: &FireSweep, reference: &ReferenceSystem) -> FigureData {
    let pairs = tgi_pairs(sweep, reference, &Weighting::Arithmetic);
    FigureData {
        id: "fig5".into(),
        title: "TGI using Arithmetic Mean".into(),
        x_label: "cores".into(),
        y_label: "Green Index".into(),
        series: vec![Series::from_pairs("Green Index", &pairs)],
    }
}

/// Figure 6: TGI using the weighted arithmetic mean — time, power, and
/// energy weights — vs number of cores on Fire.
pub fn fig6_tgi_weighted(sweep: &FireSweep, reference: &ReferenceSystem) -> FigureData {
    let series = [
        (Weighting::Time, "Weights Using Time"),
        (Weighting::Power, "Weights Using Power"),
        (Weighting::Energy, "Weights Using Energy"),
    ]
    .iter()
    .map(|(w, label)| Series::from_pairs(*label, &tgi_pairs(sweep, reference, w)))
    .collect();
    FigureData {
        id: "fig6".into(),
        title: "TGI using Weighted Arithmetic Mean".into(),
        x_label: "cores".into(),
        y_label: "Green Index".into(),
        series,
    }
}

fn fmt_power_kw(m: &Measurement) -> String {
    format!("{:.2} KW", m.power().kilowatts())
}

/// Table I: performance achieved and power consumed by the individual
/// benchmarks on SystemG.
pub fn table1_reference_performance(reference: &ReferenceSystem) -> TableData {
    // Paper order: HPL, STREAM, IOzone.
    let mut rows = Vec::new();
    for id in ["hpl", "stream", "iozone"] {
        if let Some(m) = reference.measurement(id) {
            rows.push(vec![
                display_name(id).to_string(),
                m.performance().to_string(),
                fmt_power_kw(m),
            ]);
        }
    }
    TableData {
        id: "table1".into(),
        title: "Performance on SystemG".into(),
        headers: vec!["Benchmark".into(), "Performance".into(), "Power".into()],
        rows,
    }
}

fn display_name(id: &str) -> &str {
    match id {
        "hpl" => "HPL",
        "stream" => "Stream",
        "iozone" => "IOzone",
        other => other,
    }
}

/// The Pearson correlations between each benchmark's EE series and the TGI
/// series under one weighting, keyed by benchmark id.
pub fn pcc_for_weighting(
    sweep: &FireSweep,
    reference: &ReferenceSystem,
    weighting: Weighting,
) -> Vec<(String, f64)> {
    let tgi: Vec<f64> = sweep
        .tgi_values(reference, &weighting, MeanKind::Arithmetic)
        .expect("sweep measurements match the reference suite");
    ["iozone", "stream", "hpl"]
        .iter()
        .map(|&b| {
            let ee: Vec<f64> = sweep.efficiency_series(b).iter().map(|&(_, y)| y).collect();
            let r = stats::pearson(&ee, &tgi).expect("non-degenerate sweep series");
            (b.to_string(), r)
        })
        .collect()
}

/// Table II: PCC between the energy efficiency of individual benchmarks and
/// the TGI metric using different weights. The paper's table has the
/// Time/Energy/Power columns; the arithmetic-mean column reproduces the
/// values quoted in §IV-B's text (.99/.96/.58).
pub fn table2_pcc(sweep: &FireSweep, reference: &ReferenceSystem) -> TableData {
    let columns = [Weighting::Arithmetic, Weighting::Time, Weighting::Energy, Weighting::Power]
        .map(|w| pcc_for_weighting(sweep, reference, w));
    let rows = (0..3)
        .map(|i| {
            let mut row = vec![display_name(&columns[0][i].0).to_string()];
            row.extend(columns.iter().map(|column| format!("{:.2}", column[i].1)));
            row
        })
        .collect();

    TableData {
        id: "table2".into(),
        title: "PCC between energy efficiency of individual benchmarks and TGI metric using different weights".into(),
        headers: vec![
            "Benchmark".into(),
            "Arithmetic".into(),
            "Time".into(),
            "Energy".into(),
            "Power".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixtures() -> (FireSweep, ReferenceSystem) {
        (FireSweep::run(), system_g_reference())
    }

    #[test]
    fn reference_anchors_table1() {
        let r = system_g_reference();
        let hpl = r.measurement("hpl").unwrap();
        // Table I anchor: 8.1 TFLOPS (±2% calibration band).
        let tflops = hpl.performance().value() / 1e12;
        assert!((tflops - 8.1).abs() < 0.17, "SystemG HPL {tflops} TFLOPS");
        // 128 dual-socket nodes under HPL draw tens of kW.
        let kw = hpl.power().kilowatts();
        assert!((20.0..45.0).contains(&kw), "SystemG HPL power {kw} kW");
        assert!(r.measurement("stream").is_some());
        assert!(r.measurement("iozone").is_some());
    }

    #[test]
    fn fig2_shape_rises_to_peak_with_mild_tail_dip() {
        let (sweep, _) = fixtures();
        let fig = fig2_hpl_efficiency(&sweep);
        let ys = fig.series[0].ys();
        assert_eq!(ys.len(), 8);
        assert!(ys[1] > ys[0] && ys[2] > ys[1] && ys[3] > ys[2], "rising: {ys:?}");
        let peak = ys.iter().cloned().fold(0.0, f64::max);
        let last = *ys.last().unwrap();
        assert!(last < peak && last > 0.7 * peak, "mild tail dip: {ys:?}");
        // Peak lands in the tens of MFLOPS/W (90 GFLOPS at ~2–3 kW).
        assert!((15.0..60.0).contains(&peak), "peak HPL EE {peak} MFLOPS/W");
    }

    #[test]
    fn fig3_shape_rising_saturating() {
        let (sweep, _) = fixtures();
        let fig = fig3_stream_efficiency(&sweep);
        let ys = fig.series[0].ys();
        assert!(ys.windows(2).all(|w| w[1] >= w[0] * 0.98), "no collapse: {ys:?}");
        // Diminishing returns: last doubling gains less than the first.
        let gain_early = ys[1] / ys[0];
        let gain_late = ys[7] / ys[3];
        assert!(gain_late < gain_early, "saturation expected: {ys:?}");
    }

    #[test]
    fn fig4_shape_peaks_then_declines() {
        let (sweep, _) = fixtures();
        let fig = fig4_iozone_efficiency(&sweep);
        let ys = fig.series[0].ys();
        let xs = fig.series[0].xs();
        assert_eq!(xs, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let peak = ys.iter().cloned().fold(0.0, f64::max);
        assert!(*ys.last().unwrap() < peak, "tail must decline from peak: {ys:?}");
    }

    #[test]
    fn fig5_and_fig6_produce_full_series() {
        let (sweep, reference) = fixtures();
        let f5 = fig5_tgi_arithmetic(&sweep, &reference);
        assert_eq!(f5.series.len(), 1);
        assert_eq!(f5.series[0].points.len(), 8);
        assert!(f5.series[0].ys().iter().all(|&v| v > 0.0));

        let f6 = fig6_tgi_weighted(&sweep, &reference);
        assert_eq!(f6.series.len(), 3);
        for s in &f6.series {
            assert_eq!(s.points.len(), 8);
        }
    }

    #[test]
    fn table1_lists_three_benchmarks() {
        let (_, reference) = fixtures();
        let t = table1_reference_performance(&reference);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[0][0], "HPL");
        assert!(t.rows[0][1].contains("TFLOPS"));
        assert!(t.rows[0][2].contains("KW"));
    }

    #[test]
    fn table2_has_paper_layout() {
        let (sweep, reference) = fixtures();
        let t = table2_pcc(&sweep, &reference);
        assert_eq!(t.headers.len(), 5);
        assert_eq!(t.rows.len(), 3);
        let names: Vec<&str> = t.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(names, vec!["IOzone", "Stream", "HPL"]);
        // All cells parse as correlations in [-1, 1].
        for row in &t.rows {
            for cell in &row[1..] {
                let v: f64 = cell.parse().unwrap();
                assert!((-1.0..=1.0).contains(&v), "{cell}");
            }
        }
    }

    /// The paper's headline correlation result (§IV-B + Table II):
    /// under the arithmetic mean, TGI tracks IOzone most closely, then
    /// STREAM, with HPL clearly lowest; under energy and power weights the
    /// correlation with HPL becomes the highest (the undesired behaviour the
    /// paper flags); time weights behave like the arithmetic mean.
    #[test]
    fn table2_reproduces_paper_correlation_pattern() {
        let (sweep, reference) = fixtures();

        let am = pcc_for_weighting(&sweep, &reference, Weighting::Arithmetic);
        let (io, st, hpl) = (am[0].1, am[1].1, am[2].1);
        assert!(io > 0.9, "PCC(TGI_am, IOzone) = {io}, paper: .99");
        assert!(st > 0.8, "PCC(TGI_am, Stream) = {st}, paper: .96");
        assert!(hpl < st && hpl < io, "HPL must correlate least: {hpl}");

        let time = pcc_for_weighting(&sweep, &reference, Weighting::Time);
        // Time weights preserve the AM ordering (io & stream above hpl).
        assert!(time[0].1 > time[2].1, "time: io {:?} vs hpl {:?}", time[0], time[2]);

        for (w, name) in [(Weighting::Energy, "energy"), (Weighting::Power, "power")] {
            let pcc = pcc_for_weighting(&sweep, &reference, w);
            let hpl_r = pcc[2].1;
            assert!(
                hpl_r >= pcc[0].1 - 0.02 && hpl_r >= pcc[1].1 - 0.02,
                "{name} weights must favour HPL: io={:.3} st={:.3} hpl={:.3}",
                pcc[0].1,
                pcc[1].1,
                hpl_r
            );
        }
    }
}
