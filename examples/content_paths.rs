//! Content paths: run the full passive campaign (§3.1) on a small world
//! and print the Figure 1 refinement pipeline plus the violation skew.
//!
//! ```sh
//! cargo run --release --example content_paths
//! ```

use ir_core::classify::{Breakdown, Category};
use ir_core::refine::Variant;
use ir_core::skew::SkewCurve;
use ir_experiments::scenario::{Scenario, ScenarioConfig};

fn main() {
    let scenario = Scenario::build(ScenarioConfig::tiny(99));
    println!(
        "campaign: {} traceroutes from {} probes, {} usable paths, {} decisions for {} ASes",
        scenario.campaign.traceroutes.len(),
        scenario.probes.len(),
        scenario.measured.len(),
        scenario.decisions.len(),
        scenario.observed_ases()
    );
    println!(
        "destinations: {} ASes for {} content providers (off-net caches!)\n",
        scenario.campaign.destination_ases(),
        scenario.world.content.providers().len()
    );

    // Figure 1: the refinement pipeline, one column of the decision table
    // per refinement.
    let table = scenario.decision_table();
    let fig1 = ir_experiments::exp_fig1::run(&scenario, &table);
    println!("{}", fig1.render());

    // Who do the violations point at? (Figure 2 / §5.)
    let by_dest = SkewCurve::build(&table.tally_by(Variant::Simple, |r| r.decision.dest), None);
    println!("violations: {} total; top destinations:", by_dest.total);
    for (asn, n) in by_dest.ranked.iter().take(5) {
        let provider = scenario
            .world
            .content
            .providers()
            .iter()
            .find(|p| p.origin_asns.contains(asn))
            .map(|p| format!(" ({})", p.name))
            .unwrap_or_default();
        println!(
            "  {asn}{provider}: {n} ({:.1}%)",
            100.0 * *n as f64 / by_dest.total as f64
        );
    }

    // How often is each violation subtype seen?
    let simple: Breakdown = table.column(Variant::Simple).iter().copied().collect();
    for c in [
        Category::NonBestShort,
        Category::BestLong,
        Category::NonBestLong,
    ] {
        println!("  {}: {}", c.label(), simple.count(c));
    }
}
