//! Zero-false-positive guarantee: every world the generator produces is
//! lint-clean, at every severity. The generator plants the paper's policy
//! deviations (hybrid links, partial transit, selective announcement,
//! preference deltas, backup links…) — none of which are *contradictions* —
//! so any finding on a generated world is a rule bug, not a world bug.

use ir_audit::{audit_world, Auditor};
use ir_bgp::RoutingUniverse;
use ir_inference::feeds::{extract_feed, pick_vantages, FeedConfig};
use ir_topology::GeneratorConfig;
use ir_types::Relationship;
use proptest::prelude::*;

/// Deterministic sweep: the acceptance bar is ≥100 seeds with zero findings.
#[test]
fn world_lints_clean_across_100_seeds() {
    for seed in 0..100u64 {
        let world = GeneratorConfig::tiny().build(seed);
        let report = audit_world(&world);
        assert!(
            report.is_clean(),
            "seed {seed} produced findings:\n{}",
            report.render()
        );
    }
}

/// The certifiably-safe preset must actually certify — that is its contract.
#[test]
fn certifiably_safe_worlds_certify() {
    for seed in 0..25u64 {
        let world = GeneratorConfig::certifiably_safe().build(seed);
        let report = audit_world(&world);
        assert!(report.is_clean(), "seed {seed}:\n{}", report.render());
        assert!(
            report.certificate.certified,
            "seed {seed} not certified:\n{}",
            report.render()
        );
    }
}

/// The certifiably-safe preset with its sibling organizations put back
/// still certifies: siblings are transparent, so an organization routes as
/// one network and only a `neighbor_pref` boost on a sibling session could
/// invert Gao–Rexford order (the preset has none). Most of these worlds
/// (17 of 25) hold an AS with a sibling session beside a peer or provider
/// session, which certificate condition 5 refused while siblings promoted
/// every route to customer tier.
#[test]
fn certifiably_safe_worlds_with_siblings_certify() {
    let mut relaxed = 0;
    for seed in 0..25u64 {
        let world = GeneratorConfig {
            sibling_org_fraction: GeneratorConfig::default().sibling_org_fraction,
            ..GeneratorConfig::certifiably_safe()
        }
        .build(seed);
        let report = audit_world(&world);
        assert!(report.is_clean(), "seed {seed}:\n{}", report.render());
        assert!(
            report.certificate.certified,
            "seed {seed} not certified:\n{}",
            report.render()
        );
        let g = &world.graph;
        relaxed += usize::from((0..g.len()).any(|x| {
            let rels: Vec<Relationship> = g
                .links(x)
                .iter()
                .flat_map(|l| l.cities.iter().map(|&c| l.rel_at(c)))
                .collect();
            rels.contains(&Relationship::Sibling)
                && rels
                    .iter()
                    .any(|r| matches!(r, Relationship::Peer | Relationship::Provider))
        }));
    }
    assert_eq!(
        relaxed, 17,
        "worlds of 25 that certify only under the relaxed condition 5"
    );
}

/// Ground-truth feeds are produced by policy-conforming export, so the
/// valley rule must never fire on them (hybrid links and all).
#[test]
fn ground_truth_feeds_have_no_valleys() {
    for seed in [3u64, 7, 19] {
        let world = GeneratorConfig::tiny().build(seed);
        let universe = RoutingUniverse::compute_all(&world);
        let vantages = pick_vantages(&world, &FeedConfig::default(), seed);
        let feed = extract_feed(&world, &universe, &vantages);
        assert!(!feed.entries().is_empty(), "seed {seed}: empty feed");
        let report = Auditor::new().world(&world).feed(&feed).run();
        assert!(
            report.is_clean(),
            "seed {seed} feed findings:\n{}",
            report.render()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary seeds, including the default-scale generator: still clean.
    #[test]
    fn world_lints_clean_on_arbitrary_seeds(seed in any::<u64>()) {
        let world = GeneratorConfig::tiny().build(seed);
        let report = audit_world(&world);
        prop_assert!(
            report.is_clean(),
            "seed {seed} produced findings:\n{}",
            report.render()
        );
    }
}
