//! Order statistics over timing samples.

/// A sorted sample of one quantity (NaN-free by construction).
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.retain(|v| !v.is_nan());
        values.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered"));
        Dist { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The `q` quantile by linear interpolation between closest ranks;
    /// 0 for an empty sample.
    pub fn q(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * frac
    }

    pub fn median(&self) -> f64 {
        self.q(0.5)
    }
}

/// Splits `[start, start + len)` into `n` equal windows, applies `stat` to
/// the values whose time falls in each, and returns the median over the
/// windows that have values. A stall confined to one window moves one of
/// the `n` results, not the median.
pub fn window_median(
    timed: &[(f64, f64)],
    start: f64,
    len: f64,
    n: usize,
    stat: impl Fn(&Dist) -> f64,
) -> f64 {
    let width = len / n as f64;
    let per_window = (0..n).filter_map(|w| {
        let (lo, hi) = (start + w as f64 * width, start + (w + 1) as f64 * width);
        let values: Vec<f64> =
            timed.iter().filter(|(t, _)| *t >= lo && *t < hi).map(|&(_, v)| v).collect();
        (!values.is_empty()).then(|| stat(&Dist::new(values)))
    });
    Dist::new(per_window.collect()).median()
}

/// How many samples lie strictly beyond the `q` quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    (n as f64 * (1.0 - q)).floor() as usize
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it (`None` when even the median has not).
pub fn highest_supported_quantile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.75, 0.5].into_iter().find(|&q| beyond(n, q) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_tolerate_empty() {
        let d = Dist::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(d.median(), 2.5);
        assert_eq!(d.q(0.0), 1.0);
        assert_eq!(d.q(1.0), 4.0);
        assert_eq!(Dist::default().q(0.99), 0.0);
    }

    #[test]
    fn window_median_ignores_a_stall_in_one_window() {
        let mut timed: Vec<(f64, f64)> = (0..500).map(|i| (i as f64 / 100.0, 1.0)).collect();
        for v in timed.iter_mut().filter(|(t, _)| *t >= 2.0 && *t < 3.0) {
            v.1 = 50.0;
        }
        assert_eq!(window_median(&timed, 0.0, 5.0, 5, |d| d.q(0.9)), 1.0);
        assert_eq!(window_median(&timed, 0.0, 5.0, 5, |d| d.len() as f64), 100.0);
        assert!(Dist::new(timed.iter().map(|t| t.1).collect()).q(0.9) > 1.0);
    }

    #[test]
    fn supported_quantile_needs_ten_beyond() {
        assert_eq!(highest_supported_quantile(1000), Some(0.99));
        assert_eq!(highest_supported_quantile(999), Some(0.95));
        assert_eq!(highest_supported_quantile(40), Some(0.75));
        assert_eq!(highest_supported_quantile(19), None);
    }
}
