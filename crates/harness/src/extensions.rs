//! Experiments beyond the paper's evaluation — its §VI future-work agenda.
//!
//! * [`gpu_platform_comparison`] — "the suitability of TGI to various kind
//!   of platforms, such as GPU based system, is of particular interest":
//!   score a GPU-accelerated Fire against the CPU-only Fire under both
//!   FLOPS/W and TGI.
//! * [`center_wide_tgi`] — "extend TGI metric to give a center-wide view of
//!   the energy efficiency by including components such as cooling
//!   infrastructure": TGI at the PDU vs at the facility meter.
//! * [`more_systems_ranking`] — "establish the general applicability of TGI
//!   by benchmarking more systems": a ranked list across every built-in
//!   cluster variant.
//! * [`green500_style_list`] — the list TGI argues for: [`builtin_fleet`]
//!   ranked side by side under FLOPS/W and TGI.
//!
//! Every function simulates and scores through one [`FleetSweep`] and
//! reads its artifacts off the [`crate::FleetTable`] and the memoized
//! measurements; the DVFS study's rows are clock-scaled engines.

use crate::fleet::FleetSweep;
use crate::report::{FigureData, Series, TableData};
use cluster_sim::{ClusterSpec, ExecutionEngine, Workload};
use power_model::cooling::CoolingModel;
use tgi_core::evaluator::TgiEvaluator;
use tgi_core::{MeanKind, Measurement, Ranking, ReferenceSystem, TgiError, Weighting};

/// The paper's Fire suite on every system at full scale, scored under the
/// arithmetic weighting and mean (add rows or override the axes for other
/// studies).
fn fire_suite_sweep(specs: impl IntoIterator<Item = ClusterSpec>) -> FleetSweep {
    FleetSweep::new()
        .fleet(specs)
        .suite("fire", Workload::fire_suite())
        .weightings(&[Weighting::Arithmetic])
        .means(&[MeanKind::Arithmetic])
}

fn hpl(measurements: &[Measurement]) -> &Measurement {
    measurements.iter().find(|m| m.id() == "hpl").expect("suite contains hpl")
}

/// GPU-platform extension: CPU-only Fire vs GPU-accelerated Fire under
/// FLOPS/W (HPL only) and TGI (system-wide). The GPU system's FLOPS/W gain
/// is dramatic; its TGI gain is muted because memory and I/O did not get
/// faster while the hosts idle hotter — exactly the blind spot TGI exists
/// to expose.
pub fn gpu_platform_comparison(reference: &ReferenceSystem) -> Result<TableData, TgiError> {
    let sweep = fire_suite_sweep([ClusterSpec::fire(), ClusterSpec::fire_gpu()]);
    let table = sweep.run(reference)?;
    let mut rows: Vec<Vec<String>> = table
        .systems()
        .iter()
        .enumerate()
        .map(|(s, name)| {
            let measurements = sweep.measurements(s, 0);
            let hpl = hpl(&measurements);
            vec![
                name.clone(),
                format!("{:.1}", hpl.performance().as_gflops()),
                format!("{:.2}", hpl.energy_efficiency() / 1e6),
                format!("{:.4}", table.value(s, 0, 0, 0)),
            ]
        })
        .collect();
    // Relative gains row.
    let gain = |col: usize| -> f64 {
        let a: f64 = rows[0][col].parse().expect("numeric cell");
        let b: f64 = rows[1][col].parse().expect("numeric cell");
        b / a
    };
    rows.push(vec![
        "GPU gain".to_string(),
        format!("{:.2}x", gain(1)),
        format!("{:.2}x", gain(2)),
        format!("{:.2}x", gain(3)),
    ]);
    Ok(TableData {
        id: "ext-gpu".into(),
        title: "GPU platform extension: FLOPS/W vs TGI".into(),
        headers: vec!["System".into(), "HPL GFLOPS".into(), "MFLOPS/W".into(), "TGI (AM)".into()],
        rows,
    })
}

/// Center-wide extension: TGI of Fire computed from IT power and from
/// facility power under two cooling models.
pub fn center_wide_tgi(reference: &ReferenceSystem) -> Result<TableData, TgiError> {
    let sweep = fire_suite_sweep([ClusterSpec::fire()]);
    let it = sweep.run(reference)?.value(0, 0, 0, 0);
    let measurements = sweep.measurements(0, 0);
    let evaluator = TgiEvaluator::new(reference);
    let facility = |cooling: &CoolingModel| -> Result<f64, TgiError> {
        let adjusted: Result<Vec<Measurement>, TgiError> = measurements
            .iter()
            .map(|m| {
                Measurement::new(
                    m.id(),
                    m.performance().clone(),
                    cooling.facility_power(m.power()),
                    m.time(),
                )
            })
            .collect();
        evaluator.evaluate(&adjusted?, &Weighting::Arithmetic, MeanKind::Arithmetic)
    };

    let legacy = facility(&CoolingModel::typical_2012())?;
    let modern = facility(&CoolingModel::free_cooled())?;
    Ok(TableData {
        id: "ext-cooling".into(),
        title: "Center-wide TGI: IT power vs facility power".into(),
        headers: vec!["View".into(), "PUE".into(), "TGI (AM)".into()],
        rows: vec![
            vec!["PDU (IT only)".into(), "1.00".into(), format!("{it:.4}")],
            vec!["legacy machine room".into(), "1.80".into(), format!("{legacy:.4}")],
            vec!["free-cooled facility".into(), "1.10".into(), format!("{modern:.4}")],
        ],
    })
}

/// "Benchmarking more systems": every built-in cluster variant ranked by
/// TGI against the SystemG reference.
pub fn more_systems_ranking(reference: &ReferenceSystem) -> Result<Ranking, TgiError> {
    let mut gpu_low_io = ClusterSpec::fire_gpu();
    gpu_low_io.name = "Fire-GPU-SlowFS".to_string();
    gpu_low_io.shared_fs.server_cap_mbps /= 2.0;

    let fleet = [ClusterSpec::fire(), ClusterSpec::fire_gpu(), ClusterSpec::sandy(), gpu_low_io];
    let mut ranking = fire_suite_sweep(fleet).run(reference)?.green500_ranking(0, 0, 0)?;
    // The reference itself always ranks at TGI = 1 by construction.
    let self_suite: Vec<Measurement> = reference.iter().map(|(_, m)| m.clone()).collect();
    let evaluator = TgiEvaluator::new(reference);
    let self_tgi =
        evaluator.evaluate_result(&self_suite, &Weighting::Arithmetic, MeanKind::Arithmetic)?;
    ranking.try_add_result(reference.name(), self_tgi)?;
    Ok(ranking)
}

/// The built-in fleet: every cluster preset plus instructive variants.
pub fn builtin_fleet() -> Vec<ClusterSpec> {
    let mut fast_io = ClusterSpec::fire();
    fast_io.name = "Fire-FastIO".to_string();
    fast_io.shared_fs.server_cap_mbps *= 3.0;
    fast_io.shared_fs.per_client_mbps *= 2.0;
    vec![ClusterSpec::fire(), ClusterSpec::fire_gpu(), ClusterSpec::sandy(), fast_io]
}

/// A Green500-style list (§I: the Green500 ranks by FLOPS/W): the
/// [`builtin_fleet`] in TGI order, with each system's HPL FLOPS/W rank and
/// its movement between the two. The systems that move are exactly the
/// ones whose non-CPU subsystems diverge from their CPU story.
pub fn green500_style_list(reference: &ReferenceSystem) -> Result<TableData, TgiError> {
    let sweep = fire_suite_sweep(builtin_fleet());
    let table = sweep.run(reference)?;
    let suites: Vec<_> = (0..table.systems().len()).map(|s| sweep.measurements(s, 0)).collect();
    let mflops_per_watt = |s: usize| hpl(&suites[s]).energy_efficiency() / 1e6;
    let by_flops_per_watt = Ranking::try_from_scores(
        table.systems().iter().enumerate().map(|(s, name)| (name.as_str(), mflops_per_watt(s))),
    )?;
    let rows = table
        .green500_ranking(0, 0, 0)?
        .entries()
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let s = table.systems().iter().position(|n| *n == entry.name).expect("own row");
            let tgi_rank = i + 1;
            let fw_rank = by_flops_per_watt.rank_of(&entry.name).expect("own row");
            let arrow = match fw_rank as i64 - tgi_rank as i64 {
                0 => "=".to_string(),
                up if up > 0 => format!("▲{up}"),
                down => format!("▼{}", -down),
            };
            vec![
                tgi_rank.to_string(),
                entry.name.clone(),
                format!("{:.1}", hpl(&suites[s]).performance().as_gflops()),
                format!("{:.2}", mflops_per_watt(s)),
                format!("#{fw_rank}"),
                format!("{:.4}", entry.tgi),
                arrow,
            ]
        })
        .collect();
    Ok(TableData {
        id: "green500-style".into(),
        title: format!(
            "System-wide list (TGI vs {}; Δ = movement vs FLOPS/W rank)",
            reference.name()
        ),
        headers: ["Rank", "System", "HPL GFLOPS", "MFLOPS/W", "FLOPS/W rank", "TGI", "Δ"]
            .map(String::from)
            .to_vec(),
        rows,
    })
}

/// DVFS extension: sweep the CPU clock from 50% to 100% of nominal on Fire
/// at full scale and report HPL energy efficiency and TGI at each setting.
///
/// The classic result appears: with a fixed idle floor and cubic dynamic
/// power, HPL's energy efficiency peaks at an *interior* frequency (~0.7 of
/// nominal here) — running flat out is not the greenest operating point.
pub fn dvfs_sweep(reference: &ReferenceSystem) -> Result<FigureData, TgiError> {
    let cluster = ClusterSpec::fire();
    let ratios: Vec<f64> = (0..=10).map(|step| 0.5 + 0.05 * step as f64).collect();
    let sweep = ratios.iter().fold(fire_suite_sweep([]), |sweep, &ratio| {
        let engine = ExecutionEngine::new(cluster.clone()).with_frequency_ratio(ratio);
        sweep.system_at(engine, cluster.total_cores())
    });
    let table = sweep.run(reference)?;
    let (ee_pairs, tgi_pairs): (Vec<_>, Vec<_>) = ratios
        .iter()
        .enumerate()
        .map(|(row, &ratio)| {
            let ee = hpl(&sweep.measurements(row, 0)).energy_efficiency() / 1e6;
            ((ratio, ee), (ratio, table.value(row, 0, 0, 0)))
        })
        .unzip();
    Ok(FigureData {
        id: "ext-dvfs".into(),
        title: "DVFS sweep: HPL efficiency and TGI vs CPU clock".into(),
        x_label: "clock ratio".into(),
        y_label: "MFLOPS/W | TGI".into(),
        series: vec![
            Series::from_pairs("HPL MFLOPS/W", &ee_pairs),
            Series::from_pairs("TGI (AM)", &tgi_pairs),
        ],
    })
}

/// Central-tendency ablation (§III / John, CAN 2004): TGI of Fire at full
/// scale under every mean × weighting combination. The AM ≥ GM ≥ HM
/// ordering holds column-wise, and the geometric mean is the only one whose
/// score inverts exactly under a reference swap.
pub fn mean_ablation(reference: &ReferenceSystem) -> Result<TableData, TgiError> {
    let table = fire_suite_sweep([ClusterSpec::fire()]).paper_axes().run(reference)?;
    let rows = table
        .means()
        .iter()
        .enumerate()
        .map(|(m, mean)| {
            let mut row = vec![mean.label().to_string()];
            row.extend(
                (0..table.weightings().len()).map(|w| format!("{:.4}", table.value(0, 0, w, m))),
            );
            row
        })
        .collect();
    Ok(TableData {
        id: "ext-means".into(),
        title: "Central-tendency ablation: TGI under AM/GM/HM × weightings".into(),
        headers: vec![
            "Mean".into(),
            "Equal".into(),
            "Time".into(),
            "Energy".into(),
            "Power".into(),
        ],
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::system_g_reference;

    #[test]
    fn gpu_comparison_shows_muted_tgi_gain() {
        let reference = system_g_reference();
        let t = gpu_platform_comparison(&reference).unwrap();
        assert_eq!(t.rows.len(), 3);
        let flops_gain: f64 = t.rows[2][2].trim_end_matches('x').parse().expect("numeric");
        let tgi_gain: f64 = t.rows[2][3].trim_end_matches('x').parse().expect("numeric");
        assert!(flops_gain > 2.0, "FLOPS/W gain {flops_gain}");
        // The headline finding: the same upgrade that multiplies FLOPS/W
        // *lowers* the system-wide index — the GPUs' idle floor taxes the
        // memory and I/O benchmarks, which gained nothing.
        assert!(
            tgi_gain < 1.0,
            "TGI gain ({tgi_gain}) should be below 1 while FLOPS/W gains {flops_gain}x"
        );
    }

    #[test]
    fn center_wide_tgi_orders_by_pue() {
        let reference = system_g_reference();
        let t = center_wide_tgi(&reference).unwrap();
        let parse = |i: usize| -> f64 { t.rows[i][2].parse().expect("numeric") };
        let (it, legacy, modern) = (parse(0), parse(1), parse(2));
        assert!(it > modern && modern > legacy, "it={it} modern={modern} legacy={legacy}");
        // Fixed PUE divides TGI exactly (within the table's 4-decimal rounding).
        assert!((legacy - it / 1.8).abs() < 1e-3 * it);
    }

    #[test]
    fn table2_pattern_survives_run_to_run_noise() {
        // The paper's correlation result must not hinge on perfectly smooth
        // curves: with 1% run-to-run performance noise, the qualitative
        // pattern holds across seeds.
        let reference = system_g_reference();
        for seed in [1u64, 2, 3] {
            let sweep = crate::sweep::FireSweep::run_noisy(0.01, seed);
            let am =
                crate::experiments::pcc_for_weighting(&sweep, &reference, Weighting::Arithmetic);
            let (io, st, hpl) = (am[0].1, am[1].1, am[2].1);
            assert!(io > 0.85 && st > 0.85, "seed {seed}: io {io}, stream {st}");
            assert!(hpl < io && hpl < st, "seed {seed}: hpl {hpl} must be lowest");
            for (weighting, name) in [(Weighting::Energy, "energy"), (Weighting::Power, "power")] {
                let pcc = crate::experiments::pcc_for_weighting(&sweep, &reference, weighting);
                assert!(
                    pcc[2].1 > pcc[0].1 && pcc[2].1 > pcc[1].1,
                    "seed {seed}, {name}: hpl must top the column: {pcc:?}"
                );
            }
        }
    }

    #[test]
    fn mean_ablation_preserves_am_gm_hm_ordering() {
        let reference = system_g_reference();
        let t = mean_ablation(&reference).unwrap();
        assert_eq!(t.rows.len(), 3);
        // Column-wise: AM ≥ GM ≥ HM for every weighting.
        for col in 1..=4 {
            let am: f64 = t.rows[0][col].parse().expect("numeric");
            let gm: f64 = t.rows[1][col].parse().expect("numeric");
            let hm: f64 = t.rows[2][col].parse().expect("numeric");
            assert!(am >= gm && gm >= hm, "col {col}: {am} {gm} {hm}");
        }
    }

    #[test]
    fn dvfs_sweep_finds_interior_hpl_optimum() {
        let reference = system_g_reference();
        let fig = dvfs_sweep(&reference).unwrap();
        assert_eq!(fig.series.len(), 2);
        let ee = fig.series[0].ys();
        assert_eq!(ee.len(), 11);
        // The peak is strictly inside (not at 0.5 and not at 1.0).
        let peak_idx = ee
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty");
        assert!(peak_idx > 0 && peak_idx < ee.len() - 1, "peak at index {peak_idx}: {ee:?}");
        // TGI series is finite and positive everywhere.
        assert!(fig.series[1].ys().iter().all(|v| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn green500_style_list_moves_the_gpu_system_down_from_its_flops_per_watt_rank() {
        let t = green500_style_list(&system_g_reference()).unwrap();
        assert_eq!(t.rows.len(), builtin_fleet().len());
        assert_eq!(t.headers.len(), 7);
        // TGI order: the TGI column is non-increasing down the ranks.
        let tgis: Vec<f64> = t.rows.iter().map(|r| r[5].parse().expect("numeric")).collect();
        assert!(tgis.windows(2).all(|w| w[0] >= w[1]), "{tgis:?}");
        // The GPU system ranks better under FLOPS/W than under TGI.
        let gpu = t.rows.iter().find(|r| r[1] == "Fire-GPU").expect("listed");
        let tgi_rank: usize = gpu[0].parse().expect("numeric");
        let fw_rank: usize = gpu[4].trim_start_matches('#').parse().expect("numeric");
        assert!(fw_rank < tgi_rank, "FLOPS/W #{fw_rank} vs TGI #{tgi_rank}");
        assert_eq!(gpu[6], format!("▼{}", tgi_rank - fw_rank));
    }

    #[test]
    fn more_systems_ranking_contains_all_and_reference_scores_one() {
        let reference = system_g_reference();
        let ranking = more_systems_ranking(&reference).unwrap();
        assert_eq!(ranking.len(), 5);
        let sysg =
            ranking.entries().iter().find(|e| e.name == "SystemG").expect("reference ranked");
        assert!((sysg.tgi - 1.0).abs() < 1e-12);
        // A slower filesystem must not rank above the same machine with the
        // faster one.
        let fast = ranking.rank_of("Fire-GPU").expect("ranked");
        let slow = ranking.rank_of("Fire-GPU-SlowFS").expect("ranked");
        assert!(fast < slow);
        // The 2012-generation machine tops the list: better on every axis.
        assert_eq!(ranking.rank_of("Sandy"), Some(1));
    }
}
