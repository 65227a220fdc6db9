//! Descriptive statistics used by the paper's goodness analysis (§IV).
//!
//! The paper judges TGI variants by the Pearson correlation coefficient
//! (Eq. 17) between the TGI series and each benchmark's energy-efficiency
//! series across the core-count sweep.

use crate::error::TgiError;

fn validate_series(xs: &[f64]) -> Result<(), TgiError> {
    for &x in xs {
        if !x.is_finite() {
            return Err(TgiError::NotFinite { quantity: "sample" });
        }
    }
    Ok(())
}

/// Sample mean.
pub fn mean(xs: &[f64]) -> Result<f64, TgiError> {
    if xs.is_empty() {
        return Err(TgiError::EmptyBenchmarkSet);
    }
    validate_series(xs)?;
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Sample variance (Bessel-corrected, `n-1` denominator).
pub fn variance(xs: &[f64]) -> Result<f64, TgiError> {
    if xs.len() < 2 {
        return Err(TgiError::DegenerateStatistic("variance needs at least 2 samples"));
    }
    let m = mean(xs)?;
    Ok(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64)
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> Result<f64, TgiError> {
    Ok(variance(xs)?.sqrt())
}

/// Sample covariance (Bessel-corrected).
pub fn covariance(xs: &[f64], ys: &[f64]) -> Result<f64, TgiError> {
    if xs.len() != ys.len() {
        return Err(TgiError::WeightCountMismatch { weights: ys.len(), benchmarks: xs.len() });
    }
    if xs.len() < 2 {
        return Err(TgiError::DegenerateStatistic("covariance needs at least 2 samples"));
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    Ok(xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum::<f64>() / (xs.len() - 1) as f64)
}

/// Pearson correlation coefficient (Eq. 17 in the paper).
///
/// Returns a value in `[-1, 1]`. Errors on length mismatch, fewer than two
/// samples, or a zero-variance series (the coefficient is undefined there —
/// the paper's Table II implicitly assumes non-constant series).
///
/// ```
/// let r = tgi_core::stats::pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]).unwrap();
/// assert!((r - 1.0).abs() < 1e-12);
/// ```
pub fn pearson(xs: &[f64], ys: &[f64]) -> Result<f64, TgiError> {
    let cov = covariance(xs, ys)?;
    let sx = std_dev(xs)?;
    let sy = std_dev(ys)?;
    if sx == 0.0 || sy == 0.0 {
        return Err(TgiError::DegenerateStatistic("zero variance series"));
    }
    // Clamp tiny numeric excursions outside [-1, 1].
    Ok((cov / (sx * sy)).clamp(-1.0, 1.0))
}

/// The `p`-th percentile (0–100) of `values` by linear interpolation between
/// order statistics, selected in place.
///
/// Uses `select_nth_unstable` (expected O(n)) instead of a full sort, so a
/// single percentile query over a long power trace does not pay O(n log n).
/// The slice is reordered arbitrarily around the selected rank; callers that
/// need many percentiles of the same data should sort once and index instead.
pub fn percentile_interpolated(values: &mut [f64], p: f64) -> Result<f64, TgiError> {
    if values.is_empty() {
        return Err(TgiError::DegenerateStatistic("percentile of an empty sample"));
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(TgiError::OutOfRange { quantity: "percentile", value: p, lo: 0.0, hi: 100.0 });
    }
    validate_series(values)?;
    let rank = p / 100.0 * (values.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    let (_, &mut lo_v, rest) = values.select_nth_unstable_by(lo, f64::total_cmp);
    // The next order statistic is the minimum of the right partition.
    let hi_v = if frac > 0.0 { rest.iter().copied().fold(f64::INFINITY, f64::min) } else { lo_v };
    Ok(lo_v + (hi_v - lo_v) * frac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_variance_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs).unwrap() - 5.0).abs() < 1e-12);
        // Sample variance of this classic set is 32/7.
        assert!((variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&xs).unwrap() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_positive_and_negative() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [10.0, 20.0, 30.0, 40.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_known_value() {
        // Hand-computed example.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [2.0, 1.0, 4.0, 3.0, 5.0];
        let r = pearson(&xs, &ys).unwrap();
        assert!((r - 0.8).abs() < 1e-12, "got {r}");
    }

    #[test]
    fn pearson_errors() {
        assert!(pearson(&[1.0], &[1.0]).is_err());
        assert!(pearson(&[1.0, 2.0], &[1.0]).is_err());
        assert!(pearson(&[1.0, 1.0], &[1.0, 2.0]).is_err()); // zero variance
        assert!(pearson(&[1.0, f64::NAN], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn percentile_interpolated_matches_sorted_definition() {
        let base = [50.0, 10.0, 40.0, 30.0, 20.0];
        assert_eq!(percentile_interpolated(&mut base.clone(), 0.0).unwrap(), 10.0);
        assert_eq!(percentile_interpolated(&mut base.clone(), 100.0).unwrap(), 50.0);
        assert_eq!(percentile_interpolated(&mut base.clone(), 50.0).unwrap(), 30.0);
        assert_eq!(percentile_interpolated(&mut base.clone(), 25.0).unwrap(), 20.0);
        // Interpolation between order statistics.
        let v = percentile_interpolated(&mut [0.0, 100.0], 30.0).unwrap();
        assert!((v - 30.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolated_rejects_bad_input() {
        assert!(matches!(
            percentile_interpolated(&mut [], 50.0),
            Err(TgiError::DegenerateStatistic(_))
        ));
        assert!(matches!(
            percentile_interpolated(&mut [1.0], 101.0),
            Err(TgiError::OutOfRange { .. })
        ));
        assert!(matches!(
            percentile_interpolated(&mut [1.0, f64::NAN], 50.0),
            Err(TgiError::NotFinite { .. })
        ));
    }

    proptest! {
        /// The selection-based percentile agrees with the full-sort definition.
        #[test]
        fn prop_percentile_matches_full_sort(
            xs in proptest::collection::vec(-1e3..1e3f64, 1..64),
            p in 0.0..100.0f64,
        ) {
            let mut sorted = xs.clone();
            sorted.sort_by(f64::total_cmp);
            let rank = p / 100.0 * (sorted.len() - 1) as f64;
            let (lo, frac) = (rank.floor() as usize, rank.fract());
            let expect = sorted[lo]
                + (sorted[(rank.ceil()) as usize] - sorted[lo]) * frac;
            let got = percentile_interpolated(&mut xs.clone(), p).unwrap();
            prop_assert!((got - expect).abs() < 1e-9, "p={p}: {got} vs {expect}");
        }
    }

    fn paired_series() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
        (2usize..24).prop_flat_map(|n| {
            (proptest::collection::vec(-1e3..1e3f64, n), proptest::collection::vec(-1e3..1e3f64, n))
        })
    }

    proptest! {
        /// Pearson is symmetric and bounded.
        #[test]
        fn prop_pearson_symmetric_bounded((xs, ys) in paired_series()) {
            if let (Ok(a), Ok(b)) = (pearson(&xs, &ys), pearson(&ys, &xs)) {
                prop_assert!((a - b).abs() < 1e-9);
                prop_assert!((-1.0..=1.0).contains(&a));
            }
        }

        /// Pearson is invariant under positive affine transforms of either series.
        #[test]
        fn prop_pearson_affine_invariant((xs, ys) in paired_series(),
                                         a in 0.1..10.0f64, b in -50.0..50.0f64) {
            let xs2: Vec<f64> = xs.iter().map(|x| a * x + b).collect();
            if let (Ok(r1), Ok(r2)) = (pearson(&xs, &ys), pearson(&xs2, &ys)) {
                prop_assert!((r1 - r2).abs() < 1e-6);
            }
        }

        /// Self-correlation is 1 for any non-constant series.
        #[test]
        fn prop_pearson_self_is_one(xs in proptest::collection::vec(-1e3..1e3f64, 2..24)) {
            if let Ok(r) = pearson(&xs, &xs) {
                prop_assert!((r - 1.0).abs() < 1e-9);
            }
        }
    }
}
