//! The sweep engine: (system × cores × suite × weighting × mean) TGI
//! studies.
//!
//! Every row of a [`FleetSweep`] is one (engine, cores) point:
//! [`FleetSweep::system`] adds a machine at full scale, as the Green500
//! runs it, and [`FleetSweep::system_at`] adds any [`ExecutionEngine`] —
//! noisy, clocked down, or plain — at any core count. So the paper's Fire
//! core-count study (§IV, Figures 2–6 and Table II, via
//! [`crate::FireSweep`]), its noise and DVFS studies, a cluster
//! comparison, and a synthetic Green500 of thousands of generated machines
//! are all the same engine with different rows. The hot-path guarantees:
//!
//! * **Single-flight memoized simulation** — every row wraps its engine
//!   in [`cluster_sim::MemoizedEngine`], whose one-map cache guarantees a
//!   missed (suite, cores) key is simulated exactly once, no matter how
//!   many workers race on it ([`FleetSweep::duplicate_simulations`] stays
//!   0, hard-asserted by the fleet bench).
//! * **Zero per-point allocation once warm** — workers pull cached
//!   measurements via [`cluster_sim::MemoizedEngine::suite_measurements`]
//!   (an `Arc` clone) and score all weighting × mean cells with a reused
//!   `TgiEvaluator` + [`EvalScratch`] + cell buffer per worker chunk.
//! * **Bit-identical at any thread count** — each cell is a pure function
//!   of its point written at a fixed index, so
//!   [`FleetSweep::run`] equals [`FleetSweep::run_sequential`] bitwise
//!   (asserted in tests and the committed bench).
//!
//! The result is a structure-of-arrays [`FleetTable`]. Its views are the
//! artifacts: [`FleetTable::green500_ranking`] sorts one (suite,
//! weighting, mean) column into a [`tgi_core::Ranking`] (descending TGI,
//! ties broken on spec id), and [`FleetTable::series`],
//! [`FleetTable::figure`] and [`FleetTable::table_at`] slice the rows that
//! share a system name along the cores axis.

use crate::report::{csv_field, FigureData, Series, TableData};
use cluster_sim::{ClusterSpec, ExecutionEngine, MemoizedEngine, Workload};
use power_model::{AnomalyConfig, AnomalyCounts};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tgi_core::evaluator::{EvalScratch, TgiEvaluator};
use tgi_core::{MeanKind, Measurement, Ranking, ReferenceSystem, TgiError, Weighting};
use tgi_telemetry::{QuantileHistogram, QuantileSummary};

/// One row: a memoizing engine plus the scale it runs at.
#[derive(Debug)]
struct FleetSystem {
    engine: MemoizedEngine,
    /// Process count for every suite.
    cores: usize,
}

/// One workload-suite axis entry.
#[derive(Debug, Clone)]
struct FleetSuite {
    label: String,
    workloads: Vec<Workload>,
}

/// A configurable (system × cores × suite × weighting × mean) sweep; each
/// row is one (system, cores) point.
///
/// ```no_run
/// use cluster_sim::{FleetConfig, Workload};
/// use tgi_harness::{system_g_reference, FleetSweep};
///
/// let sweep = FleetSweep::new()
///     .fleet(FleetConfig::new(42).systems(50).generate())
///     .suite("fire", Workload::fire_suite())
///     .paper_axes();
/// let table = sweep.run(&system_g_reference()).unwrap();
/// println!("{}", table.green500_ranking(0, 0, 0).unwrap());
/// ```
#[derive(Debug)]
pub struct FleetSweep {
    systems: Vec<FleetSystem>,
    suites: Vec<FleetSuite>,
    weightings: Vec<Weighting>,
    means: Vec<MeanKind>,
    /// When set, every (system, suite) point's metered traces are scanned
    /// post-hoc and the per-point [`AnomalyCounts`] ride in the table.
    anomaly_scan: Option<AnomalyConfig>,
    /// Wall time of every point evaluation, across all runs of this sweep.
    /// Timing is wall-clock (nondeterministic), so it lives on the sweep —
    /// never in the bit-compared [`FleetTable`].
    cell_latency: QuantileHistogram,
}

/// Relative-error bound for the sweep's cell-latency sketch (1%).
const LATENCY_SKETCH_ALPHA: f64 = 0.01;

impl Default for FleetSweep {
    fn default() -> Self {
        FleetSweep {
            systems: Vec::new(),
            suites: Vec::new(),
            weightings: Vec::new(),
            means: Vec::new(),
            anomaly_scan: None,
            cell_latency: QuantileHistogram::new(LATENCY_SKETCH_ALPHA),
        }
    }
}

impl FleetSweep {
    /// An empty sweep; add systems, at least one suite, and both score
    /// axes before running.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one system, running at its full core count.
    pub fn system(self, spec: ClusterSpec) -> Self {
        let cores = spec.total_cores();
        self.system_at(ExecutionEngine::new(spec), cores)
    }

    /// Appends one row: `engine` running every suite on `cores` processes.
    /// The engine carries the row's settings — run-to-run noise, DVFS
    /// clock, thermal model — so a noise or frequency study is one row per
    /// setting, and a scaling study adds the same engine at several core
    /// counts. [`FleetSweep::run`] rejects a core count of 0 or one above
    /// the cluster's total.
    pub fn system_at(mut self, engine: ExecutionEngine, cores: usize) -> Self {
        self.systems.push(FleetSystem { engine: MemoizedEngine::new(engine), cores });
        self
    }

    /// Appends a whole fleet of systems (e.g. from
    /// [`cluster_sim::FleetConfig::generate`]).
    pub fn fleet(self, specs: impl IntoIterator<Item = ClusterSpec>) -> Self {
        specs.into_iter().fold(self, |sweep, spec| sweep.system(spec))
    }

    /// Appends one workload suite evaluated on every system.
    pub fn suite(mut self, label: impl Into<String>, workloads: Vec<Workload>) -> Self {
        self.suites.push(FleetSuite { label: label.into(), workloads });
        self
    }

    /// Sets the weighting axis.
    pub fn weightings(mut self, weightings: &[Weighting]) -> Self {
        self.weightings = weightings.to_vec();
        self
    }

    /// Sets the mean axis.
    pub fn means(mut self, means: &[MeanKind]) -> Self {
        self.means = means.to_vec();
        self
    }

    /// Scans every (system, suite) point's metered traces for power
    /// anomalies after scoring; the per-point tallies ride in the
    /// resulting [`FleetTable`] (see [`FleetTable::anomaly_counts`]).
    /// The simulated traces are deterministic, so the tallies are too —
    /// parallel and sequential runs still match bitwise.
    pub fn scan_anomalies(mut self, config: AnomalyConfig) -> Self {
        self.anomaly_scan = Some(config);
        self
    }

    /// The paper's §III axes: four weighting schemes × three mean kinds.
    pub fn paper_axes(self) -> Self {
        self.weightings(&[
            Weighting::Arithmetic,
            Weighting::Time,
            Weighting::Energy,
            Weighting::Power,
        ])
        .means(&[MeanKind::Arithmetic, MeanKind::Geometric, MeanKind::Harmonic])
    }

    /// Number of rows — (system, cores) points — in the fleet.
    pub fn len(&self) -> usize {
        self.systems.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.systems.is_empty()
    }

    /// Simulation cache statistics summed over the fleet, `(hits, misses)`.
    pub fn memo_stats(&self) -> (usize, usize) {
        self.systems.iter().fold((0, 0), |(h, m), s| (h + s.engine.hits(), m + s.engine.misses()))
    }

    /// Calls that blocked on an in-flight simulation instead of
    /// re-simulating, summed over the fleet.
    pub fn inflight_waits(&self) -> usize {
        self.systems.iter().map(|s| s.engine.inflight_waits()).sum()
    }

    /// Redundant simulations across the fleet — the single-flight memo
    /// keeps this at 0, which the fleet bench hard-asserts.
    pub fn duplicate_simulations(&self) -> usize {
        self.systems.iter().map(|s| s.engine.duplicate_simulations()).sum()
    }

    /// Wall-time quantiles of every point evaluation so far, in seconds —
    /// cumulative over all [`FleetSweep::run`] / [`FleetSweep::run_sequential`]
    /// calls on this sweep. A warm second run's p50 collapsing toward the
    /// cache-hit cost is the memoization showing up as an SLO-style number.
    /// Timing is nondeterministic, so it is exposed here and never stored
    /// in the bit-compared [`FleetTable`].
    pub fn cell_latency(&self) -> QuantileSummary {
        self.cell_latency.summary()
    }

    /// The memo's measurements for one (row, suite) point, in workload
    /// order: the `Arc` the cache holds, so after a run this is a memo hit
    /// and never re-simulates.
    ///
    /// # Panics
    /// Panics if an index is out of range on its axis.
    pub fn measurements(&self, row: usize, suite: usize) -> Arc<Vec<Measurement>> {
        let system = &self.systems[row];
        system.engine.suite_measurements(&self.suites[suite].workloads, system.cores)
    }

    fn check_axes(&self) -> Result<(), TgiError> {
        if self.systems.is_empty()
            || self.suites.is_empty()
            || self.weightings.is_empty()
            || self.means.is_empty()
        {
            return Err(TgiError::DegenerateStatistic(
                "a fleet sweep needs systems, a suite, weightings, and means",
            ));
        }
        for system in &self.systems {
            let total = system.engine.engine().cluster().total_cores();
            if system.cores == 0 || system.cores > total {
                return Err(TgiError::OutOfRange {
                    quantity: "fleet core count",
                    value: system.cores as f64,
                    lo: 1.0,
                    hi: total as f64,
                });
            }
        }
        Ok(())
    }

    /// Scores every cell of one (system, suite) point into `out`
    /// (weighting-major). Warm points allocate nothing: cached
    /// measurements arrive as an `Arc` clone and the scratch buffers are
    /// caller-owned.
    fn eval_point(
        &self,
        evaluator: &TgiEvaluator<'_>,
        point: usize,
        scratch: &mut EvalScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), TgiError> {
        let started = Instant::now();
        let system = &self.systems[point / self.suites.len()];
        let suite = &self.suites[point % self.suites.len()];
        let measurements = system.engine.suite_measurements(&suite.workloads, system.cores);
        let result = evaluator.evaluate_cells_into(
            &measurements,
            &self.weightings,
            &self.means,
            scratch,
            out,
        );
        // The sketch is `&self` and lock-free, so workers share it directly.
        self.cell_latency.observe(started.elapsed().as_secs_f64());
        result
    }

    /// Evaluates the fleet in parallel over the rayon shim. Bit-identical
    /// to [`FleetSweep::run_sequential`] at any thread count.
    ///
    /// Errors if an axis is empty, a row's core count is out of range for
    /// its system, or any evaluation fails (missing reference entry,
    /// invalid weights, …).
    pub fn run(&self, reference: &ReferenceSystem) -> Result<FleetTable, TgiError> {
        self.check_axes()?;
        let cells_per_point = self.weightings.len() * self.means.len();
        let points = self.systems.len() * self.suites.len();
        let _span = tgi_telemetry::span_cat("fleet.run", "harness")
            .field("systems", self.systems.len())
            .field("suites", self.suites.len())
            .field("cells", points * cells_per_point);

        let mut values = vec![0.0f64; points * cells_per_point];
        // Chunk points so each worker task reuses one evaluator, scratch,
        // and cell buffer across its whole chunk — per-worker state without
        // thread-locals, and still enough chunks to load every thread.
        let points_per_chunk = points.div_ceil(rayon::current_num_threads() * 4).max(1);
        let first_error: Mutex<Option<TgiError>> = Mutex::new(None);
        values.par_chunks_mut(points_per_chunk * cells_per_point).enumerate().for_each(
            |(chunk_idx, chunk)| {
                let evaluator = TgiEvaluator::new(reference);
                let mut scratch = EvalScratch::with_capacity(
                    self.suites.iter().map(|s| s.workloads.len()).max().unwrap_or(0),
                );
                let mut cells = Vec::with_capacity(cells_per_point);
                let base = chunk_idx * points_per_chunk;
                for (i, slot) in chunk.chunks_mut(cells_per_point).enumerate() {
                    match self.eval_point(&evaluator, base + i, &mut scratch, &mut cells) {
                        Ok(()) => slot.copy_from_slice(&cells),
                        Err(e) => {
                            first_error.lock().expect("error slot").get_or_insert(e);
                            return;
                        }
                    }
                }
            },
        );
        if let Some(e) = first_error.into_inner().expect("error slot") {
            return Err(e);
        }
        Ok(self.table(reference, values))
    }

    /// The sequential reference sweep: same cells, same order, one thread,
    /// no chunking — the baseline [`FleetSweep::run`] must match bitwise.
    pub fn run_sequential(&self, reference: &ReferenceSystem) -> Result<FleetTable, TgiError> {
        self.check_axes()?;
        let cells_per_point = self.weightings.len() * self.means.len();
        let points = self.systems.len() * self.suites.len();
        let evaluator = TgiEvaluator::new(reference);
        let mut scratch = EvalScratch::with_capacity(
            self.suites.iter().map(|s| s.workloads.len()).max().unwrap_or(0),
        );
        let mut cells = Vec::with_capacity(cells_per_point);
        let mut values = Vec::with_capacity(points * cells_per_point);
        for point in 0..points {
            self.eval_point(&evaluator, point, &mut scratch, &mut cells)?;
            values.extend_from_slice(&cells);
        }
        Ok(self.table(reference, values))
    }

    /// Tallies anomaly events over every metered trace of one (system,
    /// suite) point. Runs against the warm memo cache (the sweep already
    /// simulated every point), and the simulated traces are deterministic,
    /// so the tallies are identical at any thread count.
    fn scan_point(&self, config: AnomalyConfig, point: usize) -> AnomalyCounts {
        let system = &self.systems[point / self.suites.len()];
        let suite = &self.suites[point % self.suites.len()];
        let runs = system.engine.run_suite(&suite.workloads, system.cores);
        let mut counts = AnomalyCounts::default();
        for run in runs.iter() {
            let events = power_model::anomaly::scan(&run.trace, config);
            counts.absorb(AnomalyCounts::from_events(&events));
        }
        counts
    }

    fn table(&self, reference: &ReferenceSystem, values: Vec<f64>) -> FleetTable {
        let points = self.systems.len() * self.suites.len();
        let anomalies = self.anomaly_scan.map(|config| {
            let _span =
                tgi_telemetry::span_cat("fleet.scan_anomalies", "harness").field("points", points);
            (0..points).map(|p| self.scan_point(config, p)).collect()
        });
        FleetTable {
            reference_name: reference.name().to_string(),
            systems: self
                .systems
                .iter()
                .map(|s| s.engine.engine().cluster().name.clone())
                .collect(),
            nodes: self.systems.iter().map(|s| s.engine.engine().cluster().nodes).collect(),
            cores: self.systems.iter().map(|s| s.cores).collect(),
            pues: self.systems.iter().map(|s| s.engine.engine().cluster().pue).collect(),
            suites: self.suites.iter().map(|s| s.label.clone()).collect(),
            weightings: self.weightings.clone(),
            means: self.means.clone(),
            values,
            anomalies,
        }
    }
}

/// Structure-of-arrays result of a [`FleetSweep`]: per-row metadata
/// columns plus one flat row-major value block
/// (`[system][suite][weighting][mean]`), where a system index names a row
/// — one (system, cores) point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetTable {
    reference_name: String,
    systems: Vec<String>,
    nodes: Vec<usize>,
    cores: Vec<usize>,
    pues: Vec<f64>,
    suites: Vec<String>,
    weightings: Vec<Weighting>,
    means: Vec<MeanKind>,
    values: Vec<f64>,
    /// Per-(system, suite) anomaly tallies, point-major like `values` —
    /// present only when the sweep ran with [`FleetSweep::scan_anomalies`].
    /// Defaulted on deserialize so tables written before the observability
    /// plane still load.
    #[serde(default)]
    anomalies: Option<Vec<AnomalyCounts>>,
}

impl FleetTable {
    /// Name of the reference system the fleet was normalized against.
    pub fn reference_name(&self) -> &str {
        &self.reference_name
    }

    /// System ids, one per row, in fleet order. A system added at several
    /// core counts appears once per row.
    pub fn systems(&self) -> &[String] {
        &self.systems
    }

    /// Node counts, parallel to [`FleetTable::systems`].
    pub fn nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// Core counts (the scale each row ran at), parallel to
    /// [`FleetTable::systems`].
    pub fn cores(&self) -> &[usize] {
        &self.cores
    }

    /// Facility PUE factors, parallel to [`FleetTable::systems`].
    pub fn pues(&self) -> &[f64] {
        &self.pues
    }

    /// Suite labels, in sweep order.
    pub fn suites(&self) -> &[String] {
        &self.suites
    }

    /// The weighting axis.
    pub fn weightings(&self) -> &[Weighting] {
        &self.weightings
    }

    /// The mean axis.
    pub fn means(&self) -> &[MeanKind] {
        &self.means
    }

    /// The flat value block, row-major `[system][suite][weighting][mean]`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The flat per-point anomaly block (`[system][suite]`), when the
    /// sweep scanned for anomalies.
    pub fn anomalies(&self) -> Option<&[AnomalyCounts]> {
        self.anomalies.as_deref()
    }

    /// Anomaly tallies for one (system, suite) point, `None` unless the
    /// sweep ran with [`FleetSweep::scan_anomalies`].
    ///
    /// # Panics
    /// Panics if an index is out of range on its axis.
    pub fn anomaly_counts(&self, system: usize, suite: usize) -> Option<AnomalyCounts> {
        assert!(system < self.systems.len(), "system index {system} out of range");
        assert!(suite < self.suites.len(), "suite index {suite} out of range");
        self.anomalies.as_ref().map(|a| a[system * self.suites.len() + suite])
    }

    /// Anomaly tallies summed over the whole fleet, `None` unless the
    /// sweep scanned for anomalies.
    pub fn total_anomalies(&self) -> Option<AnomalyCounts> {
        self.anomalies.as_ref().map(|a| {
            let mut total = AnomalyCounts::default();
            for counts in a {
                total.absorb(*counts);
            }
            total
        })
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table has no cells (cannot occur via [`FleetSweep::run`]).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The TGI value of one cell, by axis indices.
    ///
    /// # Panics
    /// Panics if an index is out of range on its axis.
    pub fn value(&self, system: usize, suite: usize, weighting: usize, mean: usize) -> f64 {
        assert!(system < self.systems.len(), "system index {system} out of range");
        assert!(suite < self.suites.len(), "suite index {suite} out of range");
        assert!(weighting < self.weightings.len(), "weighting index {weighting} out of range");
        assert!(mean < self.means.len(), "mean index {mean} out of range");
        let idx = ((system * self.suites.len() + suite) * self.weightings.len() + weighting)
            * self.means.len()
            + mean;
        self.values[idx]
    }

    /// The synthetic Green500 list for one (suite, weighting, mean)
    /// column: every system ranked by descending TGI via
    /// [`tgi_core::Ranking`], ties broken on spec id (stable across runs).
    ///
    /// Errors if a score is non-finite — impossible for tables built by
    /// [`FleetSweep::run`], which validates every cell, but tables can be
    /// deserialized from anywhere.
    pub fn green500_ranking(
        &self,
        suite: usize,
        weighting: usize,
        mean: usize,
    ) -> Result<Ranking, TgiError> {
        Ranking::try_from_scores(
            self.systems
                .iter()
                .enumerate()
                .map(|(s, name)| (name.as_str(), self.value(s, suite, weighting, mean))),
        )
    }

    /// The TGI-vs-cores series for one system over the rows that share its
    /// name, in row order — the Figure 5/6 shape. `None` if no row has
    /// that name.
    pub fn series(
        &self,
        system: &str,
        suite: usize,
        weighting: usize,
        mean: usize,
    ) -> Option<Series> {
        let pairs: Vec<(f64, f64)> = (0..self.systems.len())
            .filter(|&s| self.systems[s] == system)
            .map(|s| (self.cores[s] as f64, self.value(s, suite, weighting, mean)))
            .collect();
        let label = format!(
            "{system} ({}, {})",
            self.weightings[weighting].label(),
            self.means[mean].label()
        );
        (!pairs.is_empty()).then(|| Series::from_pairs(label, &pairs))
    }

    /// A figure with one TGI-vs-cores series per system name, in order of
    /// first appearance, for one (suite, weighting, mean) column.
    pub fn figure(&self, suite: usize, weighting: usize, mean: usize) -> FigureData {
        let series = (0..self.systems.len())
            .filter(|&s| !self.systems[..s].contains(&self.systems[s]))
            .map(|s| self.series(&self.systems[s], suite, weighting, mean).expect("own row"))
            .collect();
        FigureData {
            id: "fleet".into(),
            title: format!(
                "TGI vs cores ({} weights, {} mean, vs {})",
                self.weightings[weighting].label(),
                self.means[mean].label(),
                self.reference_name
            ),
            x_label: "cores".into(),
            y_label: "Green Index".into(),
            series,
        }
    }

    /// The weighting × mean table for one system at one core count, ready
    /// for text/CSV/Markdown rendering. `None` if no row matches.
    pub fn table_at(&self, system: &str, cores: usize, suite: usize) -> Option<TableData> {
        let s = (0..self.systems.len())
            .find(|&s| self.systems[s] == system && self.cores[s] == cores)?;
        let mut headers = vec!["weighting".to_string()];
        headers.extend(self.means.iter().map(|m| m.label().to_string()));
        let rows = self
            .weightings
            .iter()
            .enumerate()
            .map(|(w, weighting)| {
                let mut row = vec![weighting.label().to_string()];
                row.extend(
                    (0..self.means.len()).map(|m| format!("{:.4}", self.value(s, suite, w, m))),
                );
                row
            })
            .collect();
        Some(TableData {
            id: format!("fleet-{system}-{cores}"),
            title: format!("TGI of {system} at {cores} cores (vs {})", self.reference_name),
            headers,
            rows,
        })
    }

    /// Long-format CSV: one `system,nodes,cores,pue,suite,weighting,mean,tgi`
    /// row per cell, labels escaped per RFC 4180.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write;
        const HEADER: &str = "system,nodes,cores,pue,suite,weighting,mean,tgi\n";
        /// Room reserved per `tgi` value and newline; a longer one regrows.
        const TGI_LEN: usize = 24;
        // A point's rows share its `system,…,suite,` prefix and every point
        // shares the `weighting,mean,` labels: render each once.
        let prefixes: Vec<String> = self
            .systems
            .iter()
            .enumerate()
            .flat_map(|(s, system)| {
                let (system, nodes, cores, pue) =
                    (csv_field(system), self.nodes[s], self.cores[s], self.pues[s]);
                self.suites.iter().map(move |suite| {
                    format!("{system},{nodes},{cores},{pue},{},", csv_field(suite))
                })
            })
            .collect();
        let labels: Vec<String> = self
            .weightings
            .iter()
            .flat_map(|w| {
                let w = w.label().replace(' ', "_");
                self.means.iter().map(move |m| format!("{w},{},", m.label()))
            })
            .collect();
        let width = |fields: &[String]| fields.iter().map(String::len).sum::<usize>();
        let mut out = String::with_capacity(
            HEADER.len()
                + width(&prefixes) * labels.len()
                + prefixes.len() * width(&labels)
                + self.values.len() * TGI_LEN,
        );
        out.push_str(HEADER);
        for (prefix, tgis) in prefixes.iter().zip(self.values.chunks(labels.len().max(1))) {
            for (label, tgi) in labels.iter().zip(tgis) {
                out.push_str(prefix);
                out.push_str(label);
                writeln!(out, "{tgi}").expect("writing to a String cannot fail");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::system_g_reference;
    use crate::sweep::{FireSweep, FIRE_CORE_COUNTS};
    use cluster_sim::FleetConfig;
    use tgi_core::Tgi;

    fn small_sweep(systems: usize) -> FleetSweep {
        FleetSweep::new()
            .fleet(FleetConfig::new(42).systems(systems).generate())
            .suite("fire", Workload::fire_suite())
            .weightings(&[Weighting::Arithmetic, Weighting::Energy])
            .means(&[MeanKind::Arithmetic, MeanKind::Geometric])
    }

    /// Fire at every paper core count, then Fire-GPU at two scales.
    fn multi_scale_sweep() -> FleetSweep {
        let fire = FIRE_CORE_COUNTS.iter().map(|&c| (ClusterSpec::fire(), c));
        let gpu = [64, 128].map(|c| (ClusterSpec::fire_gpu(), c));
        fire.chain(gpu)
            .fold(FleetSweep::new(), |sweep, (spec, cores)| {
                sweep.system_at(ExecutionEngine::new(spec), cores)
            })
            .suite("fire", Workload::fire_suite())
            .paper_axes()
    }

    #[test]
    fn parallel_matches_sequential_bitwise_at_several_thread_counts() {
        let reference = system_g_reference();
        for sweep in [small_sweep(6), multi_scale_sweep()] {
            let sequential = sweep.run_sequential(&reference).unwrap();
            for threads in [1, 2, 8] {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                let parallel = pool.install(|| sweep.run(&reference)).unwrap();
                assert_eq!(parallel.len(), sequential.len());
                for (a, b) in parallel.values().iter().zip(sequential.values()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "thread count {threads} changed a cell");
                }
                assert_eq!(parallel, sequential);
            }
            assert_eq!(sweep.duplicate_simulations(), 0);
        }
    }

    /// TGI bits of `engine` at every paper core count under one weighting
    /// and the arithmetic mean, from an unmemoized suite run and the
    /// builder — an oracle that shares no code with the fleet engine.
    fn builder_series(
        engine: &ExecutionEngine,
        reference: &ReferenceSystem,
        weighting: &Weighting,
    ) -> Vec<u64> {
        FIRE_CORE_COUNTS
            .iter()
            .map(|&cores| {
                let runs = engine.run_suite(&Workload::fire_suite(), cores);
                Tgi::builder()
                    .reference(reference.clone())
                    .weighting(weighting.clone())
                    .mean(MeanKind::Arithmetic)
                    .measurements(runs.iter().map(|r| r.measurement()))
                    .compute()
                    .unwrap()
                    .value()
                    .to_bits()
            })
            .collect()
    }

    #[test]
    fn fire_rows_match_the_paper_sweep_bitwise() {
        // The oracle tying the fleet engine to the paper's numbers: Fire
        // rows at the paper's core counts — clean in a mixed fleet and in
        // the paper sweep, and noisy at σ = 1% — are the TGI values of
        // Figures 5/6 and Table II, computed without the engine.
        let reference = system_g_reference();
        let clean = ExecutionEngine::new(ClusterSpec::fire());
        let mut studies = vec![
            (clean.clone(), multi_scale_sweep().run(&reference).unwrap()),
            (clean, FireSweep::run().fleet().run(&reference).unwrap()),
        ];
        for seed in 1..=3 {
            let noisy = ExecutionEngine::new(ClusterSpec::fire()).with_run_noise(0.01, seed);
            let table = FireSweep::run_noisy(0.01, seed).fleet().run(&reference).unwrap();
            studies.push((noisy, table));
        }
        for (engine, table) in &studies {
            let mean = table.means().iter().position(|&m| m == MeanKind::Arithmetic).unwrap();
            for (w, weighting) in table.weightings().iter().enumerate() {
                let expected = builder_series(engine, &reference, weighting);
                let series = table.series("Fire", 0, w, mean).unwrap();
                assert_eq!(series.xs(), FIRE_CORE_COUNTS.map(|c| c as f64).to_vec());
                let got: Vec<u64> = series.ys().iter().map(|y| y.to_bits()).collect();
                assert_eq!(got, expected, "{weighting}");
            }
        }
    }

    #[test]
    fn renders_series_figure_and_table_per_system() {
        let table = multi_scale_sweep().run(&system_g_reference()).unwrap();
        let s = table.series("Fire-GPU", 0, 0, 0).unwrap();
        assert_eq!(s.xs(), vec![64.0, 128.0]);
        assert_eq!(s.points[1].y, table.value(9, 0, 0, 0));
        assert!(table.series("Nope", 0, 0, 0).is_none());

        let fig = table.figure(0, 2, 1);
        let names: Vec<&str> = fig.series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["Fire (energy-weighted, geometric)", "Fire-GPU (energy-weighted, geometric)"]
        );
        assert!(fig.title.contains("energy-weighted") && fig.title.contains("geometric"));

        let t = table.table_at("Fire-GPU", 128, 0).unwrap();
        assert_eq!(t.headers, vec!["weighting", "arithmetic", "geometric", "harmonic"]);
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.rows[2][2], format!("{:.4}", table.value(9, 0, 2, 1)));
        assert!(table.table_at("Fire", 7, 0).is_none());
    }

    #[test]
    fn fleet_cells_match_the_builder_bitwise() {
        let fleet = FleetConfig::new(1).systems(3).generate();
        let reference = system_g_reference();
        let sweep = FleetSweep::new()
            .fleet(fleet.clone())
            .suite("fire", Workload::fire_suite())
            .weightings(&[Weighting::Time])
            .means(&[MeanKind::Harmonic]);
        let table = sweep.run(&reference).unwrap();
        for (s, spec) in fleet.into_iter().enumerate() {
            let cores = spec.total_cores();
            let measurements: Vec<_> = ExecutionEngine::new(spec)
                .run_suite(&Workload::fire_suite(), cores)
                .into_iter()
                .map(|r| r.measurement())
                .collect();
            let expected = Tgi::builder()
                .reference(reference.clone())
                .weighting(Weighting::Time)
                .mean(MeanKind::Harmonic)
                .measurements(measurements)
                .compute()
                .unwrap()
                .value();
            assert_eq!(table.value(s, 0, 0, 0).to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn repeated_runs_reuse_simulations() {
        let sweep = small_sweep(4);
        let reference = system_g_reference();
        sweep.run(&reference).unwrap();
        let (h1, m1) = sweep.memo_stats();
        assert_eq!(m1, 4, "one simulation per (system, suite) point");
        sweep.run(&reference).unwrap();
        let (h2, m2) = sweep.memo_stats();
        assert_eq!(m2, 4, "second run re-simulates nothing");
        assert_eq!(h2, h1 + 4);
        assert_eq!(sweep.duplicate_simulations(), 0);
        // The measurements accessor hands out the memo's own Arc: a hit.
        let cached = sweep.measurements(1, 0);
        assert_eq!(cached.len(), Workload::fire_suite().len());
        assert!(Arc::ptr_eq(&cached, &sweep.measurements(1, 0)));
        assert_eq!(sweep.memo_stats(), (h2 + 2, 4));
    }

    #[test]
    fn green500_ranking_is_stable_and_complete() {
        let table = small_sweep(5).run(&system_g_reference()).unwrap();
        let ranking = table.green500_ranking(0, 0, 0).unwrap();
        assert_eq!(ranking.len(), 5);
        // Descending TGI.
        let tgis: Vec<f64> = ranking.entries().iter().map(|e| e.tgi).collect();
        assert!(tgis.windows(2).all(|w| w[0] >= w[1]), "not descending: {tgis:?}");
        // Every spec id appears exactly once.
        for name in table.systems() {
            assert!(ranking.rank_of(name).is_some(), "{name} missing from ranking");
        }
    }

    #[test]
    fn empty_axes_and_bad_cores_are_rejected() {
        let reference = system_g_reference();
        let no_suite =
            FleetSweep::new().fleet(FleetConfig::new(2).systems(2).generate()).paper_axes();
        assert!(matches!(no_suite.run(&reference), Err(TgiError::DegenerateStatistic(_))));
        let no_systems = FleetSweep::new().suite("fire", Workload::fire_suite()).paper_axes();
        assert!(matches!(
            no_systems.run_sequential(&reference),
            Err(TgiError::DegenerateStatistic(_))
        ));
        for cores in [0, 256] {
            let sweep = FleetSweep::new()
                .system_at(ExecutionEngine::new(ClusterSpec::fire()), cores)
                .suite("fire", Workload::fire_suite())
                .paper_axes();
            for result in [sweep.run(&reference), sweep.run_sequential(&reference)] {
                assert!(
                    matches!(
                        result,
                        Err(TgiError::OutOfRange { quantity: "fleet core count", hi, .. })
                            if hi == 128.0
                    ),
                    "cores = {cores}: {result:?}"
                );
            }
            assert_eq!(sweep.memo_stats(), (0, 0), "nothing simulated for cores = {cores}");
        }
    }

    #[test]
    fn csv_has_one_row_per_cell_and_escapes_names() {
        let table = FleetSweep::new()
            .system(ClusterSpec { name: "g500, \"alpha\"".into(), ..ClusterSpec::fire() })
            .suite("fire", Workload::fire_suite())
            .weightings(&[Weighting::Arithmetic])
            .means(&[MeanKind::Arithmetic])
            .run(&system_g_reference())
            .unwrap();
        let csv = table.to_csv();
        assert_eq!(csv.lines().count(), 1 + table.len());
        let row = csv.lines().nth(1).unwrap();
        assert!(row.starts_with("\"g500, \"\"alpha\"\"\",8,128,1,fire,"), "row: {row}");
    }

    /// Pins the writer's bytes — PUE formatting, RFC 4180 escaping, label
    /// spelling and `tgi` digits — for a 21-row sweep with sampled PUEs and
    /// one name that needs quoting.
    #[test]
    fn csv_matches_pinned_fixture_byte_for_byte() {
        let table = FleetSweep::new()
            .fleet(FleetConfig::new(42).systems(20).generate())
            .system(ClusterSpec { name: "g500, \"alpha\"".into(), ..ClusterSpec::fire() })
            .suite("fire", Workload::fire_suite())
            .paper_axes()
            .run(&system_g_reference())
            .unwrap();
        let csv = table.to_csv();
        let pinned = include_str!("../tests/fixtures/fleet_seed42.csv");
        for (i, (got, want)) in csv.lines().zip(pinned.lines()).enumerate() {
            assert_eq!(got, want, "CSV line {} differs from the fixture", i + 1);
        }
        assert_eq!(csv, pinned);
    }

    #[test]
    fn fleet_table_serde_round_trips() {
        let table = small_sweep(3).run(&system_g_reference()).unwrap();
        let json = serde_json::to_string(&table).unwrap();
        let back: FleetTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back, table);
    }

    #[test]
    fn anomaly_scan_is_deterministic_and_optional() {
        let reference = system_g_reference();
        // Without the builder call the table carries no anomaly block.
        let plain = small_sweep(3).run(&reference).unwrap();
        assert!(plain.anomalies().is_none());
        assert!(plain.anomaly_counts(0, 0).is_none());
        assert!(plain.total_anomalies().is_none());

        let sweep = small_sweep(3).scan_anomalies(power_model::AnomalyConfig::default());
        let sequential = sweep.run_sequential(&reference).unwrap();
        let scanned = sequential.anomalies().expect("scan requested");
        assert_eq!(scanned.len(), 3, "one tally per (system, suite) point");
        // Steady simulated runs with meter jitter are anomaly-free; the
        // scan must not hallucinate events on clean fleet traces.
        let total = sequential.total_anomalies().unwrap();
        assert_eq!(total, AnomalyCounts::default(), "clean fleet flagged: {total:?}");
        // Parallel runs produce the identical table, anomalies included.
        for threads in [1, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let parallel = pool.install(|| sweep.run(&reference)).unwrap();
            assert_eq!(parallel, sequential, "thread count {threads} changed the table");
        }
    }

    #[test]
    fn anomaly_block_survives_serde_and_old_tables_default() {
        let table = small_sweep(2)
            .scan_anomalies(power_model::AnomalyConfig::default())
            .run(&system_g_reference())
            .unwrap();
        let json = serde_json::to_string(&table).unwrap();
        assert!(json.contains("\"anomalies\""), "{json}");
        let back: FleetTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back, table);
        // A pre-observability table (no `anomalies` key) still loads.
        let legacy = serde_json::to_string(&small_sweep(2).run(&system_g_reference()).unwrap())
            .unwrap()
            .replace(",\"anomalies\":null", "");
        assert!(!legacy.contains("anomalies"), "{legacy}");
        let old: FleetTable = serde_json::from_str(&legacy).unwrap();
        assert!(old.anomalies().is_none());
    }

    #[test]
    fn cell_latency_tracks_every_point_evaluation() {
        let sweep = small_sweep(4);
        let reference = system_g_reference();
        assert_eq!(sweep.cell_latency().count, 0);
        sweep.run_sequential(&reference).unwrap();
        let cold = sweep.cell_latency();
        assert_eq!(cold.count, 4, "one observation per (system, suite) point");
        assert!(cold.sum >= 0.0 && cold.p99 >= cold.p50);
        // A warm parallel run adds four more observations.
        sweep.run(&reference).unwrap();
        assert_eq!(sweep.cell_latency().count, 8);
    }

    #[test]
    fn multiple_suites_give_independent_columns() {
        let sweep = FleetSweep::new()
            .fleet(FleetConfig::new(3).systems(3).generate())
            .suite("fire", Workload::fire_suite())
            .suite(
                "half-fire",
                vec![
                    Workload::Hpl { n: 30_000 },
                    Workload::Stream { total_bytes: 5e13 },
                    Workload::Iozone { total_bytes: 2e10 },
                ],
            )
            .weightings(&[Weighting::Arithmetic])
            .means(&[MeanKind::Geometric]);
        let table = sweep.run(&system_g_reference()).unwrap();
        assert_eq!(table.suites().len(), 2);
        assert_eq!(table.len(), 3 * 2);
        let differs = (0..3).any(|s| table.value(s, 0, 0, 0) != table.value(s, 1, 0, 0));
        assert!(differs, "different suites should score differently");
    }
}
