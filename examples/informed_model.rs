//! Informed model: the paper's §7 future work, demonstrated end to end.
//!
//! Builds a scenario, runs the active experiments to *learn* per-AS
//! neighbor rankings, detects domestic-preferring ASes from the passive
//! campaign, and shows where the informed model explains decisions plain
//! Gao–Rexford flags as violations.
//!
//! ```sh
//! cargo run --release --example informed_model
//! ```

use ir_core::classify::Category;
use ir_core::nextmodel::InformedModel;
use ir_core::refine::Variant;
use ir_experiments::exp_alternates::poisoning_campaign;
use ir_experiments::scenario::{Scenario, ScenarioConfig};

fn main() {
    let s = Scenario::build(ScenarioConfig::tiny(5));
    println!(
        "scenario: {} ASes, {} decisions from the passive campaign",
        s.world.graph.len(),
        s.decisions.len()
    );

    // Learn rankings via the poisoning experiments.
    let discoveries = poisoning_campaign(&s, 40).expect("testbed");
    println!(
        "poisoned {} target ASes to reveal their preference orders",
        discoveries.len()
    );

    let table = s.decision_table();
    let model = InformedModel::learn(&discoveries, table.rows(Variant::Simple), &s.world.orgs, 3);
    println!(
        "learned {} (AS, neighbor) ranking pairs; detected {} domestic-preferring ASes",
        model.learned_pairs(),
        model.domestic_ases()
    );

    // Show individual upgrades, and count both models over every row.
    let (mut shown, mut gr, mut informed) = (0, 0, 0);
    for row in table.rows(Variant::Simple) {
        let upgraded = model.category(&row) == Category::BestShort;
        gr += usize::from(row.category == Category::BestShort);
        informed += usize::from(upgraded);
        if row.category != Category::BestShort && upgraded && shown < 8 {
            let d = row.decision;
            println!(
                "  {} -> {} toward {}: {} under GR, explained by the informed model",
                d.observer,
                d.next_hop,
                d.dest,
                row.category.label()
            );
            shown += 1;
        }
    }
    let total = s.decisions.len();
    println!(
        "\noverall: GR explains {gr}/{total} ({:.1}%), informed model {informed}/{total} ({:.1}%)",
        100.0 * gr as f64 / total as f64,
        100.0 * informed as f64 / total as f64
    );
}
