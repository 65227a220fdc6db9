//! The Fire core-count sweep underlying Figures 2–6 and Table II.
//!
//! §IV-B: "Each point in Figure 5 represents TGI calculated while executing
//! HPL, STREAM and IOzone using a particular number of cores in the
//! cluster." The sweep runs the three fixed-work benchmarks at each core
//! count and retains every measurement, so all downstream artifacts share
//! one set of runs (as the paper's did).

use cluster_sim::{ClusterSpec, ExecutionEngine, Workload};
use tgi_core::evaluator::{EvalScratch, TgiEvaluator};
use tgi_core::{MeanKind, Measurement, ReferenceSystem, Weighting};

/// The paper's Fire sweep: 16…128 cores in steps of 16 (one core-per-node
/// granularity step per point on the 8-node cluster).
pub const FIRE_CORE_COUNTS: [usize; 8] = [16, 32, 48, 64, 80, 96, 112, 128];

/// One sweep point: the core count and the three benchmark measurements.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Cores (MPI processes) used.
    pub cores: usize,
    /// Measurements in suite order (hpl, stream, iozone).
    pub measurements: Vec<Measurement>,
}

/// The complete Fire sweep.
#[derive(Debug, Clone)]
pub struct FireSweep {
    points: Vec<SweepPoint>,
}

impl FireSweep {
    /// Runs the sweep on the Fire cluster with the paper's workload set.
    pub fn run() -> Self {
        Self::run_on(ExecutionEngine::new(ClusterSpec::fire()))
    }

    /// Runs the paper's sweep with run-to-run performance noise (relative
    /// σ, deterministic per seed) — for robustness studies of the
    /// correlation results.
    pub fn run_noisy(sigma: f64, seed: u64) -> Self {
        Self::run_on(ExecutionEngine::new(ClusterSpec::fire()).with_run_noise(sigma, seed))
    }

    fn run_on(engine: ExecutionEngine) -> Self {
        let points = FIRE_CORE_COUNTS
            .iter()
            .map(|&c| SweepPoint {
                cores: c,
                measurements: engine
                    .run_suite(&Workload::fire_suite(), c)
                    .into_iter()
                    .map(|r| r.measurement())
                    .collect(),
            })
            .collect();
        FireSweep { points }
    }

    /// The sweep points in core order.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// The energy-efficiency series for one benchmark, as
    /// `(cores, EE in canonical units per watt)` pairs.
    pub fn efficiency_series(&self, benchmark: &str) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .filter_map(|p| {
                p.measurements
                    .iter()
                    .find(|m| m.id() == benchmark)
                    .map(|m| (p.cores as f64, m.energy_efficiency()))
            })
            .collect()
    }

    /// TGI at every sweep point under one (weighting, mean) cell. One
    /// [`TgiEvaluator`] serves the whole series — the reference is resolved
    /// once — and values are bit-identical to the `Tgi::builder` path.
    pub fn tgi_values(
        &self,
        reference: &ReferenceSystem,
        weighting: &Weighting,
        mean: MeanKind,
    ) -> Result<Vec<f64>, tgi_core::TgiError> {
        let evaluator = TgiEvaluator::new(reference);
        let mut scratch = EvalScratch::default();
        self.points
            .iter()
            .map(|p| evaluator.evaluate_into(&p.measurements, weighting, mean, &mut scratch))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_core_counts() {
        let sweep = FireSweep::run();
        assert_eq!(sweep.points().len(), 8);
        let cores: Vec<usize> = sweep.points().iter().map(|p| p.cores).collect();
        assert_eq!(cores, FIRE_CORE_COUNTS.to_vec());
        for p in sweep.points() {
            assert_eq!(p.measurements.len(), 3);
        }
    }

    #[test]
    fn efficiency_series_complete_and_positive() {
        let sweep = FireSweep::run();
        for b in ["hpl", "stream", "iozone"] {
            let series = sweep.efficiency_series(b);
            assert_eq!(series.len(), 8, "{b}");
            assert!(series.iter().all(|&(_, ee)| ee > 0.0), "{b}");
        }
        assert!(sweep.efficiency_series("nonexistent").is_empty());
    }
}
