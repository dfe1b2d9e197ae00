//! Beyond the paper (§7 future work): evaluate the *informed* routing
//! model — Gao–Rexford plus poisoning-revealed neighbor rankings plus
//! detected domestic preference — against the plain model on the same
//! campaign dataset.

use crate::report::TextTable;
use crate::scenario::Scenario;
use ir_core::classify::Category;
use ir_core::nextmodel::InformedModel;
use ir_core::refine::Variant;
use ir_core::table::DecisionTable;
use ir_measure::peering::AlternateDiscovery;
use serde::Serialize;

/// The result.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Informed {
    pub decisions: usize,
    pub gr_best_short: usize,
    pub informed_best_short: usize,
    pub gr_pct: f64,
    pub informed_pct: f64,
    /// (AS, neighbor) pairs with a poisoning-revealed ranking.
    pub learned_pairs: usize,
    /// ASes detected as domestic-preferring from the passive data.
    pub domestic_ases: usize,
    /// Why this run is partial, if it is: degradation reasons for the
    /// scenario inputs this experiment consumed (empty when intact).
    pub degraded: Vec<String>,
}

/// Runs the evaluation: learns from a [`poisoning_campaign`]'s
/// discoveries and the Simple column of `table`, the scenario's decision
/// table, then recounts that column under the learned model.
///
/// A world generated without a testbed AS cannot learn rankings (`None`);
/// the result is then the plain-GR-only evaluation (nothing learned)
/// rather than a panic, so the rest of the pipeline still reports.
///
/// [`poisoning_campaign`]: crate::exp_alternates::poisoning_campaign
pub fn run(
    s: &Scenario,
    campaign: Option<&[AlternateDiscovery]>,
    table: &DecisionTable<'_>,
) -> Informed {
    let Some(discoveries) = campaign else {
        let mut degraded = s.degraded(&["decisions", "inferred", "measured"]);
        degraded.push("world: no testbed AS — ranking discovery skipped".into());
        return Informed {
            degraded,
            ..Informed::default()
        };
    };

    let model = InformedModel::learn(discoveries, table.rows(Variant::Simple), &s.world.orgs, 3);
    let (mut gr, mut informed) = (0, 0);
    for row in table.rows(Variant::Simple) {
        gr += usize::from(row.category == Category::BestShort);
        informed += usize::from(model.category(&row) == Category::BestShort);
    }
    let total = s.decisions.len();
    Informed {
        degraded: s.degraded(&["decisions", "inferred", "measured"]),
        decisions: total,
        gr_best_short: gr,
        informed_best_short: informed,
        gr_pct: 100.0 * gr as f64 / total.max(1) as f64,
        informed_pct: 100.0 * informed as f64 / total.max(1) as f64,
        learned_pairs: model.learned_pairs(),
        domestic_ases: model.domestic_ases(),
    }
}

impl Informed {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Extension (§7 future work): informed model vs plain Gao-Rexford",
            &["Model", "Best/Short decisions"],
        );
        t.row(&[
            "Gao-Rexford".into(),
            format!("{} ({:.1}%)", self.gr_best_short, self.gr_pct),
        ]);
        t.row(&[
            "Informed (rankings + domestic)".into(),
            format!("{} ({:.1}%)", self.informed_best_short, self.informed_pct),
        ]);
        let mut out = t.render();
        out.push_str(&format!(
            "learned rankings for {} (AS, neighbor) pairs; {} domestic-preferring ASes detected\n",
            self.learned_pairs, self.domestic_ases
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn informed_model_never_loses_and_learns_something() {
        use crate::testutil::{campaign, table, tiny7};
        let s = tiny7();
        let r = run(s, Some(campaign()), table());
        assert!(
            r.learned_pairs > 10,
            "rankings learned: {}",
            r.learned_pairs
        );
        // The informed model explains at least as much as plain GR.
        assert!(r.informed_best_short >= r.gr_best_short);
        assert_eq!(r.decisions, s.decisions.len());
        assert!(r.render().contains("Informed"));
    }
}
