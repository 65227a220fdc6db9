//! Reusable, allocation-free batch TGI evaluation.
//!
//! [`crate::tgi::Tgi::builder`] is the ergonomic entry point, but it pays a
//! heavy per-call toll: it owns a clone of the [`ReferenceSystem`], the
//! [`Weighting`], and the full measurement vector, and re-derives the
//! reference efficiencies on every `compute()`. Sweeps and grid studies —
//! thousands to millions of TGI evaluations against *one* reference — need
//! a path where everything that depends only on the reference is computed
//! once.
//!
//! [`TgiEvaluator`] is that path. Constructed once from `&ReferenceSystem`,
//! it precomputes
//!
//! * the benchmark-id → index map (the reference's ids, sorted, resolved by
//!   binary search — no hashing, no per-call `String` keys), and
//! * the reference energy-efficiency vector `EE_i(ref)` under the
//!   configured [`EfficiencyMetric`].
//!
//! [`TgiEvaluator::evaluate_into`] then scores a `&[Measurement]` slice
//! using caller-provided [`EvalScratch`] buffers: once the scratch is warm
//! (capacity ≥ suite length), the happy path performs **zero heap
//! allocations** (proven by `tests/zero_alloc.rs`). Error paths may
//! allocate (error variants carry `String`s).
//!
//! ## Bit-identity with the builder
//!
//! The evaluator replays the builder's exact floating-point operations in
//! the exact same order — weight normalization via
//! [`Weighting::weights_into`] (the single source of the weight math),
//! `REE_i = EE_i / EE_i(ref)` per measurement in suite order, and the same
//! mean combinators — so its values are *bit-identical* to
//! `Tgi::builder().….compute()`. The builder itself is a thin wrapper over
//! this type, and `tests/evaluator_oracle.rs` holds the property oracle.

use crate::efficiency::{EfficiencyMetric, PerfPerWatt};
use crate::error::TgiError;
use crate::measurement::Measurement;
use crate::reference::ReferenceSystem;
use crate::tgi::{BenchmarkContribution, MeanKind, TgiResult};
use crate::weights::Weighting;

/// Sentinel index for a measurement whose id has no reference entry. The
/// error is deferred to the REE pass so that error precedence matches the
/// builder (duplicate and weight errors are reported first).
const UNRESOLVED: usize = usize::MAX;

/// Caller-owned scratch buffers for [`TgiEvaluator`].
///
/// All buffers are cleared and refilled per evaluation but keep their
/// capacity, so a scratch reused across a batch stops allocating after the
/// largest suite has been seen once. A fresh `EvalScratch::default()` works
/// for any suite; sharing one across threads is prevented by `&mut`.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    /// Per-measurement index into the evaluator's reference vectors
    /// (`UNRESOLVED` for ids the reference does not know).
    indices: Vec<usize>,
    /// Duplicate-detection bitmap over the reference's benchmark ids.
    seen: Vec<bool>,
    /// Normalized weights, in suite order.
    weights: Vec<f64>,
    /// `REE_i = EE_i / EE_i(ref)`, in suite order.
    rees: Vec<f64>,
}

impl EvalScratch {
    /// A scratch pre-sized for suites of up to `n` benchmarks (avoids even
    /// the warm-up allocations of the first evaluation).
    pub fn with_capacity(n: usize) -> Self {
        EvalScratch {
            indices: Vec::with_capacity(n),
            seen: Vec::with_capacity(n),
            weights: Vec::with_capacity(n),
            rees: Vec::with_capacity(n),
        }
    }

    /// The REE vector of the last successful evaluation, in suite order.
    pub fn rees(&self) -> &[f64] {
        &self.rees
    }

    /// The weight vector of the last successful evaluation, in suite order.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

/// A reusable TGI evaluator bound to one reference system.
///
/// See the [module docs](self) for the design; in short: construct once,
/// evaluate many suites against it with zero per-call heap allocation, and
/// get values bit-identical to [`crate::tgi::Tgi::builder`].
///
/// ```
/// use tgi_core::evaluator::{EvalScratch, TgiEvaluator};
/// use tgi_core::prelude::*;
///
/// let reference = ReferenceSystem::builder("SystemG")
///     .benchmark(Measurement::new("hpl", Perf::tflops(8.1), Watts::new(26_000.0), Seconds::new(7200.0)).unwrap())
///     .build()
///     .unwrap();
/// let suite = vec![
///     Measurement::new("hpl", Perf::gflops(90.0), Watts::new(2900.0), Seconds::new(1800.0)).unwrap(),
/// ];
///
/// let evaluator = TgiEvaluator::new(&reference);
/// let mut scratch = EvalScratch::default();
/// let tgi = evaluator
///     .evaluate_into(&suite, &Weighting::Arithmetic, MeanKind::Arithmetic, &mut scratch)
///     .unwrap();
/// assert!(tgi > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct TgiEvaluator<'r, M: EfficiencyMetric = PerfPerWatt> {
    reference: &'r ReferenceSystem,
    metric: M,
    /// Reference benchmark ids, sorted (the `BTreeMap` iteration order),
    /// so id → index resolution is a binary search over `&str`s.
    ids: Vec<&'r str>,
    /// Reference measurements, parallel to `ids` (for the unit check).
    ref_meas: Vec<&'r Measurement>,
    /// `EE_i(ref)` under `metric`, parallel to `ids`.
    ref_ees: Vec<f64>,
}

impl<'r> TgiEvaluator<'r, PerfPerWatt> {
    /// Builds an evaluator with the paper's default perf/W metric (Eq. 2).
    pub fn new(reference: &'r ReferenceSystem) -> Self {
        Self::with_metric(reference, PerfPerWatt)
    }
}

impl<'r, M: EfficiencyMetric> TgiEvaluator<'r, M> {
    /// Builds an evaluator with a custom [`EfficiencyMetric`], precomputing
    /// the id → index map and the reference efficiency vector.
    pub fn with_metric(reference: &'r ReferenceSystem, metric: M) -> Self {
        let n = reference.len();
        let mut ids = Vec::with_capacity(n);
        let mut ref_meas = Vec::with_capacity(n);
        let mut ref_ees = Vec::with_capacity(n);
        for (id, m) in reference.iter() {
            ids.push(id);
            ref_meas.push(m);
            ref_ees.push(metric.evaluate(m));
        }
        TgiEvaluator { reference, metric, ids, ref_meas, ref_ees }
    }

    /// The reference system this evaluator is bound to.
    pub fn reference(&self) -> &'r ReferenceSystem {
        self.reference
    }

    /// The precomputed reference efficiency for a benchmark id, if present.
    pub fn reference_efficiency(&self, benchmark: &str) -> Option<f64> {
        self.ids.binary_search(&benchmark).ok().map(|i| self.ref_ees[i])
    }

    /// Computes TGI for one suite into caller-provided scratch, returning
    /// only the value. Allocation-free once `scratch` is warm.
    ///
    /// Values and error variants match
    /// `Tgi::builder().reference(…).weighting(…).mean(…).measurements(…).compute()`
    /// exactly (values to the last bit).
    pub fn evaluate_into(
        &self,
        measurements: &[Measurement],
        weighting: &Weighting,
        mean: MeanKind,
        scratch: &mut EvalScratch,
    ) -> Result<f64, TgiError> {
        // Phase order mirrors the builder's error precedence: empty set,
        // duplicates, weight validation, then per-measurement reference
        // resolution in suite order.
        self.resolve(measurements, scratch)?;
        weighting.weights_into(measurements, &mut scratch.weights)?;
        self.rees_into(measurements, scratch)?;
        combine(&scratch.rees, &scratch.weights, mean)
    }

    /// Convenience wrapper over [`TgiEvaluator::evaluate_into`] with a
    /// throwaway scratch (one-off callers; batch callers should reuse one).
    pub fn evaluate(
        &self,
        measurements: &[Measurement],
        weighting: &Weighting,
        mean: MeanKind,
    ) -> Result<f64, TgiError> {
        self.evaluate_into(measurements, weighting, mean, &mut EvalScratch::default())
    }

    /// Evaluates every (weighting × mean) cell for one suite, resolving the
    /// reference and computing the REE vector once and reusing them across
    /// all cells. `out` is cleared, then filled weighting-major:
    /// `out[w * means.len() + m]`.
    ///
    /// Each cell's value is bit-identical to the corresponding builder
    /// computation. (Error *precedence* differs from the single-cell path
    /// in one corner: a missing reference entry is reported before a bad
    /// weighting here, because the REE pass is shared across cells.)
    pub fn evaluate_cells_into(
        &self,
        measurements: &[Measurement],
        weightings: &[Weighting],
        means: &[MeanKind],
        scratch: &mut EvalScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), TgiError> {
        // Gated so the disabled path stays allocation-free (this is the
        // batch hot loop the zero-allocation tests cover).
        let batch_span = if tgi_telemetry::enabled() {
            tgi_telemetry::counter!("tgi_eval_batches_total").inc();
            tgi_telemetry::counter!("tgi_eval_cells_total")
                .add((weightings.len() * means.len()) as u64);
            Some(
                tgi_telemetry::span_cat("eval.cells", "core")
                    .field("measurements", measurements.len())
                    .field("cells", weightings.len() * means.len()),
            )
        } else {
            None
        };
        out.clear();
        self.resolve(measurements, scratch)?;
        self.rees_into(measurements, scratch)?;
        for weighting in weightings {
            weighting.weights_into(measurements, &mut scratch.weights)?;
            for &mean in means {
                out.push(combine(&scratch.rees, &scratch.weights, mean)?);
            }
        }
        drop(batch_span);
        Ok(())
    }

    /// Computes TGI with the full per-benchmark decomposition, reusing
    /// caller scratch for the numeric phases. Building the
    /// [`TgiResult`] allocates (it owns its benchmark-name `String`s) —
    /// use [`TgiEvaluator::evaluate_into`] when only the value is needed.
    pub fn evaluate_result_with(
        &self,
        measurements: &[Measurement],
        weighting: &Weighting,
        mean: MeanKind,
        scratch: &mut EvalScratch,
    ) -> Result<TgiResult, TgiError> {
        let value = self.evaluate_into(measurements, weighting, mean, scratch)?;
        let contributions = measurements
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let ree = scratch.rees[i];
                let weight = scratch.weights[i];
                BenchmarkContribution {
                    benchmark: m.id().to_string(),
                    energy_efficiency: self.metric.evaluate(m),
                    reference_efficiency: self.ref_ees[scratch.indices[i]],
                    ree,
                    weight,
                    contribution: weight * ree,
                }
            })
            .collect();
        Ok(TgiResult::from_parts(
            value,
            weighting.clone(),
            mean,
            self.reference.name().to_string(),
            contributions,
        ))
    }

    /// [`TgiEvaluator::evaluate_result_with`] with a throwaway scratch.
    pub fn evaluate_result(
        &self,
        measurements: &[Measurement],
        weighting: &Weighting,
        mean: MeanKind,
    ) -> Result<TgiResult, TgiError> {
        self.evaluate_result_with(measurements, weighting, mean, &mut EvalScratch::default())
    }

    /// Resolves each measurement's reference index into `scratch.indices`
    /// and rejects empty and duplicate-id suites — the builder's first two
    /// checks. Ids the reference knows are deduplicated via the `seen`
    /// bitmap; unknown ids (which cannot use the bitmap) fall back to a
    /// linear scan of the already-seen prefix so `["fft", "fft"]` is still
    /// a duplicate error, not a missing-reference error.
    fn resolve(
        &self,
        measurements: &[Measurement],
        scratch: &mut EvalScratch,
    ) -> Result<(), TgiError> {
        if measurements.is_empty() {
            return Err(TgiError::EmptyBenchmarkSet);
        }
        scratch.indices.clear();
        scratch.seen.clear();
        scratch.seen.resize(self.ids.len(), false);
        for (i, m) in measurements.iter().enumerate() {
            match self.ids.binary_search(&m.id()) {
                Ok(idx) => {
                    if scratch.seen[idx] {
                        return Err(TgiError::DuplicateBenchmark(m.id().to_string()));
                    }
                    scratch.seen[idx] = true;
                    scratch.indices.push(idx);
                }
                Err(_) => {
                    if measurements[..i].iter().any(|p| p.id() == m.id()) {
                        return Err(TgiError::DuplicateBenchmark(m.id().to_string()));
                    }
                    scratch.indices.push(UNRESOLVED);
                }
            }
        }
        Ok(())
    }

    /// Fills `scratch.rees` in suite order: the builder's step-1/step-2
    /// loop (metric evaluation, reference lookup, unit check, division by
    /// the precomputed reference efficiency — same operations, same order).
    fn rees_into(
        &self,
        measurements: &[Measurement],
        scratch: &mut EvalScratch,
    ) -> Result<(), TgiError> {
        scratch.rees.clear();
        for (m, &idx) in measurements.iter().zip(&scratch.indices) {
            if idx == UNRESOLVED {
                return Err(TgiError::MissingReference(m.id().to_string()));
            }
            m.performance().ratio(self.ref_meas[idx].performance())?;
            let ee = self.metric.evaluate(m);
            scratch.rees.push(ee / self.ref_ees[idx]);
        }
        Ok(())
    }
}

/// Combines weighted REEs under the chosen mean — the builder's step 4.
/// The arithmetic path sums `w_i × REE_i` in suite order (Eq. 4); the other
/// means call the same `means::weighted_*` functions as the builder.
fn combine(rees: &[f64], weights: &[f64], mean: MeanKind) -> Result<f64, TgiError> {
    match mean {
        MeanKind::Arithmetic => Ok(weights.iter().zip(rees).map(|(w, r)| w * r).sum()),
        MeanKind::Geometric => crate::means::weighted_geometric(rees, weights),
        MeanKind::Harmonic => crate::means::weighted_harmonic(rees, weights),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tgi::Tgi;
    use crate::units::{Perf, Seconds, Watts};

    fn meas(id: &str, perf: Perf, w: f64, t: f64) -> Measurement {
        Measurement::new(id, perf, Watts::new(w), Seconds::new(t)).unwrap()
    }

    fn reference() -> ReferenceSystem {
        ReferenceSystem::builder("SystemG")
            .benchmark(meas("hpl", Perf::tflops(8.1), 26_000.0, 7200.0))
            .benchmark(meas("stream", Perf::mbps(1_600_000.0), 24_000.0, 600.0))
            .benchmark(meas("iozone", Perf::mbps(320.0), 11_500.0, 900.0))
            .build()
            .unwrap()
    }

    fn fire_suite() -> Vec<Measurement> {
        vec![
            meas("hpl", Perf::gflops(90.0), 2_900.0, 1800.0),
            meas("stream", Perf::mbps(80_000.0), 2_500.0, 300.0),
            meas("iozone", Perf::mbps(95.0), 2_300.0, 600.0),
        ]
    }

    #[test]
    fn matches_builder_bitwise_across_weightings_and_means() {
        let reference = reference();
        let suite = fire_suite();
        let evaluator = TgiEvaluator::new(&reference);
        let mut scratch = EvalScratch::default();
        for weighting in [
            Weighting::Arithmetic,
            Weighting::Time,
            Weighting::Energy,
            Weighting::Power,
            Weighting::Custom(vec![0.5, 0.25, 0.25]),
        ] {
            for mean in [MeanKind::Arithmetic, MeanKind::Geometric, MeanKind::Harmonic] {
                let via_builder = Tgi::builder()
                    .reference(reference.clone())
                    .weighting(weighting.clone())
                    .mean(mean)
                    .measurements(suite.iter().cloned())
                    .compute()
                    .unwrap();
                let value =
                    evaluator.evaluate_into(&suite, &weighting, mean, &mut scratch).unwrap();
                assert_eq!(
                    value.to_bits(),
                    via_builder.value().to_bits(),
                    "{weighting} / {}",
                    mean.label()
                );
                let full =
                    evaluator.evaluate_result_with(&suite, &weighting, mean, &mut scratch).unwrap();
                assert_eq!(full, via_builder, "{weighting} / {}", mean.label());
            }
        }
    }

    #[test]
    fn scratch_exposes_rees_and_weights_of_last_evaluation() {
        let reference = reference();
        let evaluator = TgiEvaluator::new(&reference);
        let mut scratch = EvalScratch::with_capacity(3);
        let suite = fire_suite();
        evaluator
            .evaluate_into(&suite, &Weighting::Arithmetic, MeanKind::Arithmetic, &mut scratch)
            .unwrap();
        assert_eq!(scratch.rees().len(), 3);
        assert_eq!(scratch.weights(), &[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]);
        // Suite order, not reference (sorted) order: hpl, stream, iozone.
        let ree_hpl = (90e9 / 2_900.0) / (8.1e12 / 26_000.0);
        assert!((scratch.rees()[0] - ree_hpl).abs() < 1e-12 * ree_hpl);
    }

    #[test]
    fn cells_cover_the_weighting_mean_grid() {
        let reference = reference();
        let evaluator = TgiEvaluator::new(&reference);
        let mut scratch = EvalScratch::default();
        let mut out = Vec::new();
        let suite = fire_suite();
        let weightings = [Weighting::Arithmetic, Weighting::Time];
        let means = [MeanKind::Arithmetic, MeanKind::Geometric, MeanKind::Harmonic];
        evaluator.evaluate_cells_into(&suite, &weightings, &means, &mut scratch, &mut out).unwrap();
        assert_eq!(out.len(), 6);
        for (wi, weighting) in weightings.iter().enumerate() {
            for (mi, &mean) in means.iter().enumerate() {
                let single = evaluator.evaluate(&suite, weighting, mean).unwrap();
                assert_eq!(out[wi * means.len() + mi].to_bits(), single.to_bits());
            }
        }
    }

    #[test]
    fn duplicate_unknown_id_is_a_duplicate_not_missing_reference() {
        let reference = reference();
        let evaluator = TgiEvaluator::new(&reference);
        let suite = vec![
            meas("hpl", Perf::gflops(90.0), 2_900.0, 1800.0),
            meas("fft", Perf::gflops(5.0), 2_000.0, 120.0),
            meas("fft", Perf::gflops(6.0), 2_000.0, 120.0),
        ];
        let err =
            evaluator.evaluate(&suite, &Weighting::Arithmetic, MeanKind::Arithmetic).unwrap_err();
        assert_eq!(err, TgiError::DuplicateBenchmark("fft".to_string()));
    }

    #[test]
    fn reference_efficiency_lookup() {
        let reference = reference();
        let evaluator = TgiEvaluator::new(&reference);
        assert_eq!(evaluator.reference().name(), "SystemG");
        let ee = evaluator.reference_efficiency("hpl").unwrap();
        assert!((ee - 8.1e12 / 26_000.0).abs() < 1.0);
        assert!(evaluator.reference_efficiency("fft").is_none());
    }

    #[test]
    fn scratch_shrinks_and_grows_across_suites() {
        let reference = reference();
        let evaluator = TgiEvaluator::new(&reference);
        let mut scratch = EvalScratch::default();
        let full = fire_suite();
        let one = vec![full[0].clone()];
        let a3 = evaluator
            .evaluate_into(&full, &Weighting::Arithmetic, MeanKind::Arithmetic, &mut scratch)
            .unwrap();
        let a1 = evaluator
            .evaluate_into(&one, &Weighting::Arithmetic, MeanKind::Arithmetic, &mut scratch)
            .unwrap();
        let a3_again = evaluator
            .evaluate_into(&full, &Weighting::Arithmetic, MeanKind::Arithmetic, &mut scratch)
            .unwrap();
        assert_eq!(a3.to_bits(), a3_again.to_bits());
        assert_eq!(scratch.rees().len(), 3);
        // Single-benchmark suite: TGI is that benchmark's REE.
        let ree_hpl = (90e9 / 2_900.0) / (8.1e12 / 26_000.0);
        assert!((a1 - ree_hpl).abs() < 1e-12 * ree_hpl);
    }
}
