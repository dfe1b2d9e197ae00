//! Figure 3 — decision breakdown for continental vs intercontinental
//! traceroutes.
//!
//! Traceroutes whose geolocated hops never leave one continent are
//! explained by the model noticeably better than those crossing
//! continents (where undersea cables and coarse inference hurt most).

use crate::report::{pct, TextTable};
use crate::scenario::Scenario;
use ir_core::classify::{Category, Classifier};
use ir_core::geography::continental_breakdown;
use ir_types::Continent;
use serde::Serialize;

/// One Figure 3 bar.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3Bar {
    pub group: String,
    pub best_short: f64,
    pub nonbest_short: f64,
    pub best_long: f64,
    pub nonbest_long: f64,
    pub decisions: usize,
}

/// The full result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3 {
    pub bars: Vec<Fig3Bar>,
    pub continental_paths: usize,
    pub total_paths: usize,
    /// Why this run is partial, if it is: degradation reasons for the
    /// scenario inputs this experiment consumed (empty when intact).
    pub degraded: Vec<String>,
}

fn bar(group: &str, b: &ir_core::classify::Breakdown) -> Fig3Bar {
    Fig3Bar {
        group: group.to_string(),
        best_short: b.pct(Category::BestShort),
        nonbest_short: b.pct(Category::NonBestShort),
        best_long: b.pct(Category::BestLong),
        nonbest_long: b.pct(Category::NonBestLong),
        decisions: b.total(),
    }
}

/// Runs the experiment over `classifier`, the default one for
/// `s.inferred`.
pub fn run(s: &Scenario, classifier: &Classifier<'_>) -> Fig3 {
    let g = continental_breakdown(classifier, &s.measured);
    let mut bars = Vec::new();
    for c in Continent::ALL {
        if let Some(b) = g.per_continent.get(&c) {
            bars.push(bar(c.code(), b));
        }
    }
    bars.push(bar("Cont", &g.continental));
    bars.push(bar("Non Cont", &g.intercontinental));
    Fig3 {
        degraded: s.degraded(&["inferred", "measured"]),
        bars,
        continental_paths: g.continental_paths,
        total_paths: g.total_paths,
    }
}

impl Fig3 {
    /// The bar for a group code ("EU", "Cont", "Non Cont", …).
    pub fn bar(&self, group: &str) -> Option<&Fig3Bar> {
        self.bars.iter().find(|b| b.group == group)
    }

    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Figure 3: Decisions by geography (percent of decisions)",
            &[
                "Group",
                "Best/Short",
                "NonBest/Short",
                "Best/Long",
                "NonBest/Long",
                "N",
            ],
        );
        for b in &self.bars {
            t.row(&[
                b.group.clone(),
                pct(b.best_short),
                pct(b.nonbest_short),
                pct(b.best_long),
                pct(b.nonbest_long),
                b.decisions.to_string(),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "continental traceroutes: {} of {} ({:.0}%)\n",
            self.continental_paths,
            self.total_paths,
            100.0 * self.continental_paths as f64 / self.total_paths.max(1) as f64
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::OnceLock;

    fn fig3() -> &'static Fig3 {
        static R: OnceLock<Fig3> = OnceLock::new();
        R.get_or_init(|| run(crate::testutil::tiny7(), crate::testutil::classifier()))
    }

    #[test]
    fn continental_paths_are_better_explained() {
        let f = fig3();
        let cont = f.bar("Cont").expect("continental bar");
        let non = f.bar("Non Cont").expect("intercontinental bar");
        assert!(cont.decisions > 0 && non.decisions > 0);
        assert!(
            cont.best_short > non.best_short,
            "continental {:.1}% vs intercontinental {:.1}%",
            cont.best_short,
            non.best_short
        );
        // A meaningful share of the dataset is continental (paper: 45%).
        let frac = f.continental_paths as f64 / f.total_paths as f64;
        assert!(frac > 0.1 && frac < 0.9, "continental fraction {frac:.2}");
    }

    #[test]
    fn percentages_sum_per_bar() {
        for b in &fig3().bars {
            let sum = b.best_short + b.nonbest_short + b.best_long + b.nonbest_long;
            assert!((sum - 100.0).abs() < 0.2, "{}: {sum:.1}", b.group);
        }
    }
}
