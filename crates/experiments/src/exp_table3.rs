//! Table 3 — violations explained by ASes preferring domestic routes.
//!
//! For traceroutes that stayed inside one country while the model's
//! preferred path crosses a foreign-registered AS, the deviation is
//! attributed to domestic-path preference (§6), reported per continent.

use crate::report::{pct, TextTable};
use crate::scenario::Scenario;
use ir_core::geography::domestic_stats;
use ir_core::table::DecisionTable;
use ir_types::Continent;
use serde::Serialize;

/// One Table 3 row.
#[derive(Debug, Clone, Serialize)]
pub struct Table3Row {
    pub continent: String,
    pub explained: usize,
    pub total: usize,
    pub pct: f64,
}

/// The full result.
#[derive(Debug, Clone, Serialize)]
pub struct Table3 {
    pub rows: Vec<Table3Row>,
    pub overall_fraction: f64,
    /// Why this run is partial, if it is: degradation reasons for the
    /// scenario inputs this experiment consumed (empty when intact).
    pub degraded: Vec<String>,
}

/// Runs the experiment over `table`, the scenario's decision table.
pub fn run(s: &Scenario, table: &DecisionTable<'_>) -> Table3 {
    let stats = domestic_stats(table, &s.world.orgs);
    let rows = Continent::ALL
        .iter()
        .filter_map(|c| {
            stats.per_continent.get(c).map(|&(e, t)| Table3Row {
                continent: c.name().to_string(),
                explained: e,
                total: t,
                pct: stats.pct(*c),
            })
        })
        .collect();
    Table3 {
        degraded: s.degraded(&["inferred", "measured"]),
        rows,
        overall_fraction: stats.overall(),
    }
}

impl Table3 {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Table 3: Non-Best/Short decisions explained by domestic-path preference",
            &["Continent", "Decisions explained"],
        );
        for r in &self.rows {
            t.row(&[r.continent.clone(), pct(r.pct)]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "overall: {:.1}% of violations on continental paths\n",
            100.0 * self.overall_fraction
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::OnceLock;

    fn table3() -> &'static Table3 {
        static R: OnceLock<Table3> = OnceLock::new();
        R.get_or_init(|| run(crate::testutil::tiny7(), crate::testutil::table()))
    }

    #[test]
    fn domestic_preference_explains_a_substantial_share() {
        let t = table3();
        assert!(
            !t.rows.is_empty(),
            "violations observed on continental paths"
        );
        let total: usize = t.rows.iter().map(|r| r.total).sum();
        assert!(total > 0);
        // The paper finds >40% overall; shapes vary with seed, so require a
        // clearly nonzero effect.
        assert!(
            t.overall_fraction > 0.05,
            "domestic preference explains {:.1}%",
            100.0 * t.overall_fraction
        );
        for r in &t.rows {
            assert!(r.explained <= r.total);
        }
    }

    #[test]
    fn render_contains_rows() {
        let s = table3().render();
        assert!(s.contains("domestic-path preference"));
        assert!(s.contains("overall"));
    }
}
