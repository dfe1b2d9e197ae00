//! Figure 3 — decision breakdown for continental vs intercontinental
//! traceroutes.
//!
//! Traceroutes whose geolocated hops never leave one continent are
//! explained by the model noticeably better than those crossing
//! continents (where undersea cables and coarse inference hurt most).

use crate::report::{pct, TextTable};
use crate::scenario::Scenario;
use ir_core::classify::{Breakdown, Category};
use ir_core::refine::Variant;
use ir_core::table::DecisionTable;
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

fn bar(group: &str, b: &Breakdown) -> Fig3Bar {
    Fig3Bar {
        group: group.to_string(),
        best_short: b.pct(Category::BestShort),
        nonbest_short: b.pct(Category::NonBestShort),
        best_long: b.pct(Category::BestLong),
        nonbest_long: b.pct(Category::NonBestLong),
        decisions: b.total(),
    }
}

/// Runs the experiment over `table`, the scenario's decision table: its
/// Simple column tallied by the continent each traceroute stayed on.
pub fn run(s: &Scenario, table: &DecisionTable<'_>) -> Fig3 {
    let by_continent = table.tally_by(Variant::Simple, |r| r.path.continental());
    let mut bars = Vec::new();
    let mut continental = Breakdown::default();
    for c in Continent::ALL {
        if let Some(&b) = by_continent.get(&Some(c)) {
            bars.push(bar(c.code(), &b));
            continental += b;
        }
    }
    bars.push(bar("Cont", &continental));
    let intercontinental = by_continent.get(&None).copied().unwrap_or_default();
    bars.push(bar("Non Cont", &intercontinental));
    Fig3 {
        degraded: s.degraded(&["inferred", "measured"]),
        bars,
        continental_paths: s
            .measured
            .iter()
            .filter(|p| p.continental().is_some())
            .count(),
        total_paths: s.measured.len(),
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
        R.get_or_init(|| run(crate::testutil::tiny7(), crate::testutil::table()))
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
