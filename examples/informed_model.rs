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
use ir_experiments::exp_table2::monitor_setup;
use ir_experiments::scenario::{Scenario, ScenarioConfig};
use ir_fault::FaultPlane;
use ir_measure::peering::{observe_routes, Peering};
use ir_types::{Asn, Timestamp};

fn main() {
    let s = Scenario::build(ScenarioConfig::tiny(5));
    println!(
        "scenario: {} ASes, {} decisions from the passive campaign",
        s.world.graph.len(),
        s.decisions.len()
    );

    // Learn rankings via the poisoning experiments.
    let peering = Peering::new(&s.world).expect("testbed");
    let setup = monitor_setup(&s);
    let prefix = peering.prefixes()[0];
    let mut sim = ir_bgp::PrefixSim::new(&s.world, prefix);
    sim.announce(peering.anycast(prefix, &[]), Timestamp::ZERO);
    let targets: Vec<Asn> = observe_routes(&sim, &setup)
        .keys()
        .copied()
        .filter(|a| *a != Asn::TESTBED && !peering.muxes().contains(a))
        .take(40)
        .collect();
    println!(
        "poisoning {} target ASes to reveal their preference orders…",
        targets.len()
    );
    let discoveries = peering.campaign(prefix, &targets, &setup, 8, &FaultPlane::quiet());

    let learn_cl = Classifier::new(&s.inferred, ClassifyConfig::default());
    let model = InformedModel::learn(&discoveries, &s.measured, &learn_cl, &s.world.orgs, 3);
    println!(
        "learned {} (AS, neighbor) ranking pairs; detected {} domestic-preferring ASes",
        model.learned_pairs(),
        model.domestic_ases()
    );

    // Show individual upgrades.
    let classifier = Classifier::new(&s.inferred, ClassifyConfig::default());
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

    let (gr, informed, total) = model.evaluate(&s.inferred, ClassifyConfig::default(), &s.measured);
    println!(
        "\noverall: GR explains {gr}/{total} ({:.1}%), informed model {informed}/{total} ({:.1}%)",
        100.0 * gr as f64 / total as f64,
        100.0 * informed as f64 / total as f64
    );
}
