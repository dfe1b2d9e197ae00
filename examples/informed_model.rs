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

use ir_core::classify::{Category, Classifier, ClassifyConfig};
use ir_core::nextmodel::InformedModel;
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

    let classifier = Classifier::new(&s.inferred, ClassifyConfig::default());
    let model = InformedModel::learn(&discoveries, &s.measured, &classifier, &s.world.orgs, 3);
    println!(
        "learned {} (AS, neighbor) ranking pairs; detected {} domestic-preferring ASes",
        model.learned_pairs(),
        model.domestic_ases()
    );

    // Show individual upgrades.
    let mut shown = 0;
    for m in &s.measured {
        for d in m.decisions() {
            let gr = classifier.classify(&d).category;
            if gr == Category::BestShort {
                continue;
            }
            let informed = model.classify(&classifier, &d, &m.path);
            if informed == Category::BestShort && shown < 8 {
                println!(
                    "  {} -> {} toward {}: {} under GR, explained by the informed model",
                    d.observer,
                    d.next_hop,
                    d.dest,
                    gr.label()
                );
                shown += 1;
            }
        }
    }

    let (gr, informed, total) = model.evaluate(&classifier, &s.measured);
    println!(
        "\noverall: GR explains {gr}/{total} ({:.1}%), informed model {informed}/{total} ({:.1}%)",
        100.0 * gr as f64 / total as f64,
        100.0 * informed as f64 / total as f64
    );
}
