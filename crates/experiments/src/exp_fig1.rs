//! Figure 1 — breakdown of routing decisions under each refinement.
//!
//! The headline result: the plain Gao–Rexford model over the aggregated
//! inferred topology explains roughly two thirds of observed decisions;
//! complex relationships change almost nothing, siblings add a few points,
//! and prefix-specific policies explain a further 10–20%.

use crate::report::{pct, TextTable};
use crate::scenario::Scenario;
use ir_core::classify::{Breakdown, Category};
use ir_core::refine::Variant;
use ir_core::table::DecisionTable;
use serde::Serialize;

/// One Figure 1 bar.
#[derive(Debug, Clone, Serialize)]
pub struct Fig1Bar {
    pub variant: String,
    pub best_short: f64,
    pub nonbest_short: f64,
    pub best_long: f64,
    pub nonbest_long: f64,
    pub total_decisions: usize,
}

/// The full figure.
#[derive(Debug, Clone, Serialize)]
pub struct Fig1 {
    pub bars: Vec<Fig1Bar>,
    /// Why this run is partial, if it is: degradation reasons for the
    /// scenario inputs this experiment consumed (empty when intact).
    pub degraded: Vec<String>,
}

/// Runs the experiment over `table`, the scenario's decision table: one
/// bar per column.
pub fn run(s: &Scenario, table: &DecisionTable<'_>) -> Fig1 {
    let bars = Variant::ALL
        .into_iter()
        .map(|v| (v, table.column(v).iter().copied().collect::<Breakdown>()))
        .map(|(v, b)| Fig1Bar {
            variant: v.label().to_string(),
            best_short: b.pct(Category::BestShort),
            nonbest_short: b.pct(Category::NonBestShort),
            best_long: b.pct(Category::BestLong),
            nonbest_long: b.pct(Category::NonBestLong),
            total_decisions: b.total(),
        })
        .collect();
    Fig1 {
        bars,
        degraded: s.degraded(&["decisions", "inferred", "feed", "complex", "siblings"]),
    }
}

impl Fig1 {
    /// The bar for a variant; `None` when the variant is missing from a
    /// partial (degraded) run.
    pub fn bar(&self, v: Variant) -> Option<&Fig1Bar> {
        self.bars.iter().find(|b| b.variant == v.label())
    }

    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Figure 1: Breakdown of routing decisions (percent of decisions)",
            &[
                "Variant",
                "Best/Short",
                "NonBest/Short",
                "Best/Long",
                "NonBest/Long",
            ],
        );
        for b in &self.bars {
            t.row(&[
                b.variant.clone(),
                pct(b.best_short),
                pct(b.nonbest_short),
                pct(b.best_long),
                pct(b.nonbest_long),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::OnceLock;

    fn fig1() -> &'static Fig1 {
        static R: OnceLock<Fig1> = OnceLock::new();
        R.get_or_init(|| run(crate::testutil::tiny7(), crate::testutil::table()))
    }

    #[test]
    fn shapes_match_the_paper() {
        let f = fig1();
        assert_eq!(f.bars.len(), 7);
        let simple = f.bar(Variant::Simple).unwrap();
        // A majority — but far from all — decisions follow the model.
        assert!(
            simple.best_short > 50.0 && simple.best_short < 90.0,
            "Simple Best/Short = {:.1}%",
            simple.best_short
        );
        // Complex relationships barely move the needle (<2 points).
        let complex = f.bar(Variant::Complex).unwrap();
        assert!(
            (complex.best_short - simple.best_short).abs() < 2.0,
            "Complex ≈ Simple ({:.1} vs {:.1})",
            complex.best_short,
            simple.best_short
        );
        // Refinements never hurt, and All-1 ≥ PSP-1 ≥ Simple.
        let psp1 = f.bar(Variant::Psp1).unwrap();
        let all1 = f.bar(Variant::All1).unwrap();
        let all2 = f.bar(Variant::All2).unwrap();
        assert!(psp1.best_short >= simple.best_short);
        assert!(all1.best_short >= psp1.best_short - 1e-9);
        // Criterion 1 is more aggressive than criterion 2.
        assert!(all1.best_short >= all2.best_short - 1e-9);
        // Percentages sum to 100 per bar.
        for b in &f.bars {
            let sum = b.best_short + b.nonbest_short + b.best_long + b.nonbest_long;
            assert!((sum - 100.0).abs() < 0.2, "{}: {sum}", b.variant);
        }
    }
}
