//! Table 4 — deviations attributable to undersea-cable ASes.
//!
//! Cable ASes (from the TeleGeography-like side list) appear on few paths,
//! but when they do, the decisions around them deviate from the model at a
//! much higher rate: independent cable operators sell point-to-point
//! transit, which relationship inference mislabels.

use crate::report::{pct, TextTable};
use crate::scenario::Scenario;
use ir_core::classify::{Breakdown, Category};
use ir_core::geography::cable_stats;
use ir_core::refine::Variant;
use ir_core::table::DecisionTable;
use serde::Serialize;

/// One Table 4 row.
#[derive(Debug, Clone, Serialize)]
pub struct Table4Row {
    pub violation_type: String,
    pub explained: usize,
    pub total: usize,
    pub pct: f64,
}

/// The full result.
#[derive(Debug, Clone, Serialize)]
pub struct Table4 {
    pub rows: Vec<Table4Row>,
    /// Fraction of paths crossing a cable AS (paper: < 2%).
    pub path_fraction: f64,
    /// Fraction of cable-involving decisions that deviate (paper: 51.2%).
    pub deviant_fraction: f64,
    /// Overall deviant fraction, for contrast.
    pub baseline_deviant_fraction: f64,
    /// Why this run is partial, if it is: degradation reasons for the
    /// scenario inputs this experiment consumed (empty when intact).
    pub degraded: Vec<String>,
}

/// Runs the experiment over `table`, the scenario's decision table.
pub fn run(s: &Scenario, table: &DecisionTable<'_>) -> Table4 {
    let cables = s.world.cables.cable_asns();
    let stats = cable_stats(table, &cables);
    let overall: Breakdown = table.column(Variant::Simple).iter().copied().collect();
    let baseline = 1.0 - overall.pct(Category::BestShort) / 100.0;
    let rows = [
        Category::NonBestShort,
        Category::BestLong,
        Category::NonBestLong,
    ]
    .iter()
    .map(|c| {
        let (e, t) = stats.per_category.get(c).copied().unwrap_or((0, 0));
        Table4Row {
            violation_type: c.label().to_string(),
            explained: e,
            total: t,
            pct: stats.pct(*c),
        }
    })
    .collect();
    Table4 {
        degraded: s.degraded(&["decisions", "inferred", "measured"]),
        rows,
        path_fraction: stats.path_fraction(),
        deviant_fraction: stats.deviant_fraction(),
        baseline_deviant_fraction: baseline,
    }
}

impl Table4 {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Table 4: Decisions attributable to undersea cables",
            &["Violation type", "Pct of decisions explained"],
        );
        for r in &self.rows {
            t.row(&[r.violation_type.clone(), pct(r.pct)]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "cable ASes on {:.1}% of paths; {:.1}% of cable-involving decisions deviate \
             (baseline deviation rate {:.1}%)\n",
            100.0 * self.path_fraction,
            100.0 * self.deviant_fraction,
            100.0 * self.baseline_deviant_fraction
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::OnceLock;

    fn table4() -> &'static Table4 {
        static R: OnceLock<Table4> = OnceLock::new();
        R.get_or_init(|| run(crate::testutil::tiny7(), crate::testutil::table()))
    }

    #[test]
    fn cables_are_rare_but_deviation_prone() {
        let t = table4();
        // Cable ASes sit on a small fraction of paths.
        assert!(
            t.path_fraction < 0.25,
            "cable paths are rare: {:.3}",
            t.path_fraction
        );
        // When present, they deviate far above baseline.
        if t.deviant_fraction > 0.0 {
            assert!(
                t.deviant_fraction > t.baseline_deviant_fraction,
                "cable decisions ({:.2}) deviate more than baseline ({:.2})",
                t.deviant_fraction,
                t.baseline_deviant_fraction
            );
        }
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn render_has_summary_line() {
        assert!(table4().render().contains("cable ASes on"));
    }
}
