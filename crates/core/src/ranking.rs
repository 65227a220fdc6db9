//! Green500-style ranking of systems by TGI.
//!
//! The motivation for a single-number metric (§I) is *rankability*: the
//! TOP500/Green500 lists order systems by one number. [`Ranking`] holds a set
//! of scored systems and produces a stable, descending order (greener first),
//! breaking ties by name so the order is deterministic.

use crate::error::TgiError;
use crate::tgi::TgiResult;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One system's entry in a ranking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedSystem {
    /// Display name of the system.
    pub name: String,
    /// The system's Green Index.
    pub tgi: f64,
    /// Optional per-benchmark decomposition retained for reports.
    pub detail: Option<TgiResult>,
}

/// A collection of systems ordered by TGI (descending).
///
/// ```
/// use tgi_core::Ranking;
/// let mut list = Ranking::new();
/// list.add("fire", 0.4);
/// list.add("ember", 1.2);
/// assert_eq!(list.rank_of("ember"), Some(1));
/// assert_eq!(list.greenest().unwrap().name, "ember");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Ranking {
    entries: Vec<RankedSystem>,
}

impl Ranking {
    /// Creates an empty ranking.
    pub fn new() -> Self {
        Ranking::default()
    }

    /// Builds a ranking from (name, TGI) pairs with one sort — the same
    /// entries, in the same order, as calling [`Ranking::try_add`] for each
    /// pair, without re-sorting the list on every insert.
    ///
    /// Errors on the first non-finite score, as [`Ranking::try_add`] does.
    pub fn try_from_scores<S: Into<String>>(
        scores: impl IntoIterator<Item = (S, f64)>,
    ) -> Result<Self, TgiError> {
        let scores = scores.into_iter();
        let mut entries = Vec::with_capacity(scores.size_hint().0);
        for (name, tgi) in scores {
            check_finite(tgi)?;
            entries.push(RankedSystem { name: name.into(), tgi, detail: None });
        }
        let mut ranking = Ranking { entries };
        ranking.sort();
        Ok(ranking)
    }

    /// Adds a system by name and raw TGI value.
    ///
    /// # Panics
    /// Panics on a non-finite score; use [`Ranking::try_add`] to reject it
    /// as an error instead.
    pub fn add(&mut self, name: impl Into<String>, tgi: f64) {
        self.try_add(name, tgi).expect("TGI values are finite");
    }

    /// Adds a system by name and raw TGI value, rejecting non-finite
    /// scores: NaN has no place in a total order, and a ±∞ "score" always
    /// indicates an upstream division gone wrong, not a green machine.
    pub fn try_add(&mut self, name: impl Into<String>, tgi: f64) -> Result<(), TgiError> {
        check_finite(tgi)?;
        self.entries.push(RankedSystem { name: name.into(), tgi, detail: None });
        self.sort();
        Ok(())
    }

    /// Adds a system with its full TGI decomposition.
    ///
    /// # Panics
    /// Panics on a non-finite score, like [`Ranking::add`].
    pub fn add_result(&mut self, name: impl Into<String>, result: TgiResult) {
        self.try_add_result(name, result).expect("TGI values are finite");
    }

    /// Adds a system with its full TGI decomposition, rejecting non-finite
    /// scores as [`Ranking::try_add`] does.
    pub fn try_add_result(
        &mut self,
        name: impl Into<String>,
        result: TgiResult,
    ) -> Result<(), TgiError> {
        check_finite(result.value())?;
        self.entries.push(RankedSystem {
            name: name.into(),
            tgi: result.value(),
            detail: Some(result),
        });
        self.sort();
        Ok(())
    }

    fn sort(&mut self) {
        self.entries.sort_by(|a, b| {
            b.tgi
                .partial_cmp(&a.tgi)
                .expect("TGI values are finite")
                .then_with(|| a.name.cmp(&b.name))
        });
    }

    /// The ranked entries, greenest first.
    pub fn entries(&self) -> &[RankedSystem] {
        &self.entries
    }

    /// Number of ranked systems.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ranking is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// 1-based rank of a system by name.
    pub fn rank_of(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.name == name).map(|i| i + 1)
    }

    /// The top-ranked (greenest) system.
    pub fn greenest(&self) -> Option<&RankedSystem> {
        self.entries.first()
    }
}

fn check_finite(tgi: f64) -> Result<(), TgiError> {
    if tgi.is_finite() {
        Ok(())
    } else {
        Err(TgiError::NotFinite { quantity: "ranking score" })
    }
}

impl fmt::Display for Ranking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:>4}  {:<24} {:>10}", "Rank", "System", "TGI")?;
        for (i, e) in self.entries.iter().enumerate() {
            writeln!(f, "{:>4}  {:<24} {:>10.4}", i + 1, e.name, e.tgi)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_descending() {
        let mut r = Ranking::new();
        r.add("fire", 0.4);
        r.add("ember", 1.2);
        r.add("ash", 0.9);
        assert_eq!(r.rank_of("ember"), Some(1));
        assert_eq!(r.rank_of("ash"), Some(2));
        assert_eq!(r.rank_of("fire"), Some(3));
        assert_eq!(r.greenest().unwrap().name, "ember");
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn ties_break_by_name() {
        let mut r = Ranking::new();
        r.add("zeta", 1.0);
        r.add("alpha", 1.0);
        assert_eq!(r.rank_of("alpha"), Some(1));
        assert_eq!(r.rank_of("zeta"), Some(2));
    }

    #[test]
    fn unknown_system_has_no_rank() {
        let mut r = Ranking::new();
        r.add("fire", 0.4);
        assert_eq!(r.rank_of("unknown"), None);
    }

    #[test]
    fn empty_ranking() {
        let r = Ranking::new();
        assert!(r.is_empty());
        assert!(r.greenest().is_none());
    }

    #[test]
    fn display_contains_all_entries() {
        let mut r = Ranking::new();
        r.add("fire", 0.4);
        r.add("ember", 1.2);
        let out = r.to_string();
        assert!(out.contains("fire"));
        assert!(out.contains("ember"));
        assert!(out.contains("Rank"));
    }

    #[test]
    fn duplicate_tgi_values_rank_in_stable_name_order() {
        // A synthetic fleet can produce exact TGI collisions; the order
        // must be deterministic (by id) no matter the insertion order.
        let mut fwd = Ranking::new();
        let mut rev = Ranking::new();
        let systems = ["g500-003", "g500-001", "g500-002"];
        for name in systems {
            fwd.add(name, 0.75);
        }
        for name in systems.iter().rev() {
            rev.add(*name, 0.75);
        }
        let order: Vec<&str> = fwd.entries().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(order, vec!["g500-001", "g500-002", "g500-003"]);
        assert_eq!(fwd, rev, "insertion order must not matter");
        // Duplicates interleaved with distinct values keep descending TGI
        // as the primary key.
        fwd.add("g500-000", 0.9);
        assert_eq!(fwd.rank_of("g500-000"), Some(1));
        assert_eq!(fwd.rank_of("g500-001"), Some(2));
    }

    #[test]
    fn single_system_fleet_ranks_itself() {
        let mut r = Ranking::new();
        r.add("only", 0.42);
        assert_eq!(r.len(), 1);
        assert_eq!(r.rank_of("only"), Some(1));
        assert_eq!(r.greenest().unwrap().name, "only");
        assert_eq!(r.greenest().unwrap().tgi, 0.42);
    }

    #[test]
    fn non_finite_scores_are_rejected() {
        let mut r = Ranking::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = r.try_add("broken", bad).unwrap_err();
            assert!(matches!(err, TgiError::NotFinite { quantity: "ranking score" }));
        }
        assert!(r.is_empty(), "rejected scores must not be inserted");
        r.try_add("fine", 1.0).unwrap();
        assert_eq!(r.len(), 1);
        for bad in [f64::NAN, f64::INFINITY] {
            let err = Ranking::try_from_scores([("fine", 1.0), ("broken", bad)]).unwrap_err();
            assert!(matches!(err, TgiError::NotFinite { quantity: "ranking score" }));
        }
    }

    #[test]
    fn one_sort_matches_repeated_add_on_shuffled_ties() {
        // Four distinct scores (±0 compare equal), each shared by several
        // names, in a scrambled insertion order.
        let scores: Vec<(String, f64)> = (0..40u64)
            .map(|i| {
                let k = (i * 17 + 5) % 40;
                (format!("sys-{:02}", k % 13), [0.5, 1.25, 0.5, 2.0, -0.0, 0.0][(k % 6) as usize])
            })
            .collect();
        let mut incremental = Ranking::new();
        for (name, tgi) in &scores {
            incremental.add(name.clone(), *tgi);
        }
        let once = Ranking::try_from_scores(scores).unwrap();
        assert_eq!(once.len(), incremental.len());
        for (a, b) in once.entries().iter().zip(incremental.entries()) {
            assert_eq!((&a.name, a.tgi.to_bits()), (&b.name, b.tgi.to_bits()));
        }
        assert_eq!(once, incremental);
    }

    #[test]
    #[should_panic(expected = "TGI values are finite")]
    fn add_panics_on_nan() {
        Ranking::new().add("broken", f64::NAN);
    }

    #[test]
    fn insertion_keeps_order_incrementally() {
        let mut r = Ranking::new();
        for (name, v) in [("a", 0.1), ("b", 0.5), ("c", 0.3), ("d", 0.9)] {
            r.add(name, v);
            // After every insertion, order is non-increasing.
            let tgis: Vec<f64> = r.entries().iter().map(|e| e.tgi).collect();
            assert!(tgis.windows(2).all(|w| w[0] >= w[1]));
        }
    }
}
