//! The Fire core-count sweep underlying Figures 2–6 and Table II.
//!
//! §IV-B: "Each point in Figure 5 represents TGI calculated while executing
//! HPL, STREAM and IOzone using a particular number of cores in the
//! cluster." The sweep is a [`FleetSweep`] with one Fire row per core count
//! under the paper's axes: the figures read its memoized measurements and
//! its [`crate::FleetTable`] columns, so all downstream artifacts share one
//! set of runs (as the paper's did).

use crate::fleet::FleetSweep;
use cluster_sim::{ClusterSpec, ExecutionEngine, Workload};
use tgi_core::Measurement;

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

/// The complete Fire sweep: a [`FleetSweep`] of Fire at
/// [`FIRE_CORE_COUNTS`] (row `i` runs `FIRE_CORE_COUNTS[i]` cores) with one
/// `"fire"` suite and the paper's weighting × mean axes.
#[derive(Debug)]
pub struct FireSweep {
    fleet: FleetSweep,
    points: Vec<SweepPoint>,
}

impl FireSweep {
    /// Runs the sweep on the Fire cluster with the paper's workload set.
    pub fn run() -> Self {
        Self::over(ExecutionEngine::new(ClusterSpec::fire()))
    }

    /// Runs the paper's sweep with run-to-run performance noise (relative
    /// σ, deterministic per seed) — for robustness studies of the
    /// correlation results.
    pub fn run_noisy(sigma: f64, seed: u64) -> Self {
        Self::over(ExecutionEngine::new(ClusterSpec::fire()).with_run_noise(sigma, seed))
    }

    fn over(engine: ExecutionEngine) -> Self {
        let fleet = FIRE_CORE_COUNTS
            .iter()
            .fold(FleetSweep::new(), |sweep, &cores| sweep.system_at(engine.clone(), cores))
            .suite("fire", Workload::fire_suite())
            .paper_axes();
        let points = FIRE_CORE_COUNTS
            .iter()
            .enumerate()
            .map(|(row, &cores)| SweepPoint {
                cores,
                measurements: fleet.measurements(row, 0).to_vec(),
            })
            .collect();
        FireSweep { fleet, points }
    }

    /// The sweep points in core order.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// The fleet engine the sweep runs on. Its simulations are warm, so
    /// [`FleetSweep::measurements`] and [`FleetSweep::run`] only score.
    pub fn fleet(&self) -> &FleetSweep {
        &self.fleet
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_core_counts() {
        let sweep = FireSweep::run();
        assert_eq!(sweep.points().len(), 8);
        assert_eq!(sweep.fleet().len(), 8);
        let cores: Vec<usize> = sweep.points().iter().map(|p| p.cores).collect();
        assert_eq!(cores, FIRE_CORE_COUNTS.to_vec());
        for p in sweep.points() {
            assert_eq!(p.measurements.len(), 3);
        }
    }

    #[test]
    fn efficiency_series_complete_and_positive() {
        let sweep = FireSweep::run();
        let simulated = sweep.fleet().memo_stats().1;
        for (row, point) in sweep.points().iter().enumerate() {
            let cached = sweep.fleet().measurements(row, 0);
            assert_eq!(*cached, point.measurements, "row {row}");
            let ids: Vec<&str> = cached.iter().map(|m| m.id()).collect();
            assert_eq!(ids, ["hpl", "stream", "iozone"]);
            assert!(cached.iter().all(|m| m.energy_efficiency() > 0.0), "row {row}");
        }
        assert_eq!(sweep.fleet().memo_stats().1, simulated, "reads never re-simulate");
    }
}
