//! Zero-false-positive guarantee: every world the generator produces is
//! lint-clean, at every severity. The generator plants the paper's policy
//! deviations (hybrid links, partial transit, selective announcement,
//! preference deltas, backup links…) — none of which are *contradictions* —
//! so any finding on a generated world is a rule bug, not a world bug.

use ir_audit::{audit_world, Auditor};
use ir_bgp::RoutingUniverse;
use ir_inference::feeds::{extract_feed, pick_vantages, FeedConfig};
use ir_topology::GeneratorConfig;
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
