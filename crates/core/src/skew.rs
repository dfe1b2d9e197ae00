//! Violation skew across source and destination ASes (Figure 2, §5).
//!
//! If violations were spread evenly, ranking ASes by their violation share
//! and accumulating would give the diagonal `y = x`; the paper instead
//! finds heavy skew — destination ASes owned by Akamai account for 21% of
//! violations and Netflix's AS for 17%, while the source-side skew is
//! milder (Cogent 4.1%, Time Warner 2.2%).
//!
//! A curve is built from the report's decision table tallied by source or
//! by destination AS ([`DecisionTable::tally_by`]).
//!
//! [`DecisionTable::tally_by`]: crate::table::DecisionTable::tally_by

use crate::classify::{Breakdown, Category};
use ir_types::Asn;
use std::collections::BTreeMap;

/// The skew analysis for one attribution axis and one violation subtype
/// (or all subtypes with `category: None`).
pub struct SkewCurve {
    /// (AS, violation count), descending by count.
    pub ranked: Vec<(Asn, usize)>,
    /// Total violations counted.
    pub total: usize,
}

impl SkewCurve {
    /// Builds the curve from the decisions tallied by the AS they are
    /// attributed to (a source or a destination AS), counting the
    /// violations of `category` or, with `None`, every violation.
    pub fn build(tallies: &BTreeMap<Asn, Breakdown>, category: Option<Category>) -> SkewCurve {
        let mut ranked: Vec<(Asn, usize)> = tallies
            .iter()
            .map(|(&asn, b)| (asn, category.map_or(b.violations(), |c| b.count(c))))
            .filter(|&(_, n)| n > 0)
            .collect();
        ranked.sort_by_key(|&(asn, n)| (std::cmp::Reverse(n), asn));
        let total = ranked.iter().map(|&(_, n)| n).sum();
        SkewCurve { ranked, total }
    }

    /// The cumulative-fraction series of Figure 2: the y value after the
    /// first `k` ranked ASes, for `k = 1..=len`.
    pub fn cumulative(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.ranked.len());
        let mut acc = 0usize;
        for &(_, n) in &self.ranked {
            acc += n;
            out.push(if self.total == 0 {
                0.0
            } else {
                acc as f64 / self.total as f64
            });
        }
        out
    }

    /// The share of violations attributable to one AS.
    pub fn share_of(&self, asn: Asn) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.ranked
            .iter()
            .find(|(a, _)| *a == asn)
            .map(|&(_, n)| n as f64 / self.total as f64)
            .unwrap_or(0.0)
    }

    /// Gini-style skew coefficient: 0 = perfectly even, → 1 = one AS holds
    /// everything. Used to compare source-side vs destination-side skew.
    pub fn skew_coefficient(&self) -> f64 {
        let n = self.ranked.len();
        if n <= 1 || self.total == 0 {
            return 0.0;
        }
        // Area between the cumulative curve and the diagonal, normalized.
        let cum = self.cumulative();
        let mut area = 0.0;
        for (i, y) in cum.iter().enumerate() {
            let x = (i + 1) as f64 / n as f64;
            area += y - x;
        }
        (2.0 * area / n as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A violating decision from `src` toward `dest`, as a table row reads.
    type Violation = (u32, u32, Category);

    fn violation(src: u32, dest: u32, category: Category) -> Violation {
        (src, dest, category)
    }

    /// The violations tallied by destination, as Figure 2 folds the table.
    fn by_destination(vs: &[Violation]) -> BTreeMap<Asn, Breakdown> {
        let mut tallies: BTreeMap<Asn, Breakdown> = BTreeMap::new();
        for &(_, dest, category) in vs {
            tallies.entry(Asn(dest)).or_default().add(category);
        }
        tallies
    }

    #[test]
    fn ranking_and_shares() {
        let vs = vec![
            violation(1, 100, Category::NonBestShort),
            violation(2, 100, Category::NonBestShort),
            violation(3, 100, Category::BestLong),
            violation(4, 200, Category::NonBestLong),
        ];
        let c = SkewCurve::build(&by_destination(&vs), None);
        assert_eq!(c.total, 4);
        assert_eq!(c.ranked[0], (Asn(100), 3));
        assert!((c.share_of(Asn(100)) - 0.75).abs() < 1e-9);
        assert!((c.share_of(Asn(999))).abs() < 1e-9);
        let cum = c.cumulative();
        assert!((cum[0] - 0.75).abs() < 1e-9);
        assert!((cum[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn category_filter() {
        let vs = vec![
            violation(1, 100, Category::NonBestShort),
            violation(1, 100, Category::BestLong),
        ];
        let c = SkewCurve::build(&by_destination(&vs), Some(Category::BestLong));
        assert_eq!(c.total, 1);
    }

    #[test]
    fn skew_coefficient_orders_even_vs_concentrated() {
        // Concentrated: one destination holds everything.
        let conc: Vec<Violation> = (0..10)
            .map(|i| violation(i, 100, Category::NonBestLong))
            .collect();
        // Even: ten destinations with one each.
        let even: Vec<Violation> = (0..10)
            .map(|i| violation(i, 100 + i, Category::NonBestLong))
            .collect();
        let c1 = SkewCurve::build(&by_destination(&conc), None);
        let c2 = SkewCurve::build(&by_destination(&even), None);
        // A single-AS curve degenerates to 0 by convention.
        assert!((c1.skew_coefficient() - 0.0).abs() < 1e-9);
        assert!((c2.skew_coefficient() - 0.0).abs() < 1e-9);
        // Mixed: 5 in one AS, 1 in five others → positive skew.
        let mut mixed = vec![];
        for i in 0..5 {
            mixed.push(violation(i, 100, Category::NonBestLong));
        }
        for i in 0..5 {
            mixed.push(violation(i, 200 + i, Category::NonBestLong));
        }
        let cm = SkewCurve::build(&by_destination(&mixed), None);
        assert!(cm.skew_coefficient() > 0.0);
    }

    #[test]
    fn best_short_decisions_are_not_violations() {
        let mut tallies = by_destination(&[violation(1, 100, Category::NonBestLong)]);
        tallies
            .entry(Asn(200))
            .or_default()
            .add(Category::BestShort);
        let c = SkewCurve::build(&tallies, None);
        assert_eq!(c.total, 1);
        assert_eq!(c.ranked, vec![(Asn(100), 1)]);
    }
}
