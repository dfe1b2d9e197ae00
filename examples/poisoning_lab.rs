//! Poisoning lab: drive the PEERING-like testbed by hand.
//!
//! Recreates §3.2 interactively: announce a research prefix via the
//! university muxes, watch a target AS's route from the measurement
//! channels, poison its next hop, and watch it fall back to its
//! second-choice route — the only way to see *relative* preferences from
//! the outside.
//!
//! ```sh
//! cargo run --release --example poisoning_lab
//! ```

use ir_bgp::PrefixSim;
use ir_core::alternates::{check_order, LinkAccounting, OrderSummary};
use ir_fault::FaultPlane;
use ir_inference::feeds::{self, FeedConfig};
use ir_inference::relinfer::{infer_relationships, InferConfig};
use ir_measure::peering::{observe_routes, ObservationSetup, Peering};
use ir_topology::GeneratorConfig;
use ir_types::{Asn, Timestamp};

fn main() {
    let world = GeneratorConfig::tiny().build(1234);
    let peering = Peering::new(&world).expect("world includes the testbed");
    println!(
        "testbed {} announces {} via {} muxes: {:?}",
        Asn::TESTBED,
        peering.prefixes()[0],
        peering.muxes().len(),
        peering.muxes()
    );

    // The measurement channels: collectors + a handful of monitor probes.
    let vantages = feeds::pick_vantages(
        &world,
        &FeedConfig {
            vantages: 12,
            ..Default::default()
        },
        5,
    );
    let probe_ases: Vec<Asn> = world
        .graph
        .nodes()
        .iter()
        .filter(|n| n.asn.value() >= 20_000)
        .step_by(5)
        .map(|n| n.asn)
        .take(12)
        .collect();
    let setup = ObservationSetup {
        feed_vantages: vantages.clone(),
        probe_ases,
    };

    // Round 0: plain anycast. Pick an observed multihomed target.
    let prefix = peering.prefixes()[0];
    let mut sim = PrefixSim::new(&world, prefix);
    sim.announce(peering.anycast(prefix, &[]), Timestamp::ZERO);
    let obs = observe_routes(&sim, &setup);
    let target = *obs
        .keys()
        .find(|a| {
            let idx = world.graph.index_of(**a).unwrap();
            world.graph.links(idx).len() >= 3 && **a != Asn::TESTBED
        })
        .expect("an observed multihomed AS");
    println!("\ntarget: {target}");

    // Step through the poisoning rounds manually so each reaction is
    // visible.
    let mut poison: Vec<Asn> = Vec::new();
    for round in 0..6 {
        let at = Timestamp(round as u64 * 90 * 60);
        sim.announce(peering.anycast(prefix, &poison), at);
        let obs = observe_routes(&sim, &setup);
        match obs.get(&target) {
            Some(o) => {
                let next = o.next_hop().expect("suffix non-empty");
                let suffix: Vec<String> = o.suffix.iter().map(|a| a.to_string()).collect();
                println!("round {round}: {target} routes via {}", suffix.join(" "));
                if poison.contains(&next) {
                    println!("  poisoning {next} did not dislodge it — stopping");
                    break;
                }
                poison.push(next);
                println!("  poisoning {next} next round");
            }
            None => {
                println!("round {round}: {target} has no (observable) route left");
                break;
            }
        }
    }

    // The automated version over many targets, checked against an inferred
    // topology as §4.4 does.
    let month = feeds::monthly_feed(&world, &vantages);
    let paths: Vec<&[Asn]> = month.paths().collect();
    let inferred = infer_relationships(paths, &InferConfig::default());
    let targets: Vec<Asn> = obs
        .keys()
        .copied()
        .filter(|a| *a != Asn::TESTBED)
        .take(25)
        .collect();
    let discoveries = peering.campaign(prefix, &targets, &setup, 8, &FaultPlane::quiet());
    let verdicts: Vec<_> = discoveries
        .iter()
        .map(|d| check_order(&inferred, d))
        .collect();
    let summary = OrderSummary::tally(verdicts.iter());
    println!(
        "\nover {} informative targets: both={} best-only={} shortest-only={} neither={}",
        summary.total(),
        summary.both,
        summary.best_only,
        summary.shortest_only,
        summary.neither
    );
    let acc = LinkAccounting::build(&inferred, &discoveries);
    println!(
        "links observed: {} | missing from inferred topology: {} | only via poisoning: {}",
        acc.observed.len(),
        acc.missing_from_db.len(),
        acc.only_via_poisoning.len()
    );
}
