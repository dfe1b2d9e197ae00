//! Differential proof of the certificate→fast-path contract: on a world
//! the auditor certifies, the engine's free-order worklist (no wave
//! barrier) must converge to exactly the routing the wave-exact schedule
//! produces — route for route, at every AS, for every prefix. This is the
//! empirical check backing `SafetyCertificate::activation_order`.

use ir_audit::audit_world;
use ir_bgp::{ActivationOrder, Route, RoutingUniverse};
use ir_fault::{FaultConfig, FaultPlane};
use ir_topology::{GeneratorConfig, World};
use ir_types::{Prefix, Relationship};

/// Both-orders universe computation over every prefix is quadratic-ish in
/// world size; like the sweep-oracle differentials, this suite is gated to
/// paper-scale worlds (scale coverage lives in the release-mode smoke).
const MAX_DIFFERENTIAL_ASES: usize = 2_000;

/// Every announced prefix of the world, in deterministic order.
fn prefixes(world: &World) -> Vec<Prefix> {
    assert!(
        world.graph.len() <= MAX_DIFFERENTIAL_ASES,
        "free-order differentials are gated to <= {MAX_DIFFERENTIAL_ASES} ASes, got {}",
        world.graph.len()
    );
    let mut ps: Vec<Prefix> = world
        .graph
        .nodes()
        .iter()
        .flat_map(|n| n.prefixes.iter().copied())
        .collect();
    ps.sort_unstable();
    ps.dedup();
    ps
}

/// Routes are compared up to installation age: the free-order schedule
/// reaches the same fixpoint through a different activation sequence, so
/// logical installation times legitimately differ while the selected
/// path, preference, and entry session must not.
fn same_route(a: Option<Route>, b: Option<Route>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.path == b.path
                && a.learned_from == b.learned_from
                && a.entry_city == b.entry_city
                && a.rel == b.rel
                && a.local_pref == b.local_pref
                && a.igp_cost == b.igp_cost
        }
        _ => false,
    }
}

fn assert_identical(world: &World, wave: &RoutingUniverse, free: &RoutingUniverse, label: &str) {
    assert_eq!(wave.unconverged(), free.unconverged(), "{label}");
    for prefix in prefixes(world) {
        for x in 0..world.graph.len() {
            assert!(
                same_route(wave.route(prefix, x), free.route(prefix, x)),
                "{label}: divergence at AS {} for {prefix}:\n  wave: {:?}\n  free: {:?}",
                world.graph.asn(x),
                wave.route(prefix, x),
                free.route(prefix, x),
            );
        }
    }
}

#[test]
fn certified_worlds_converge_identically_under_both_orders() {
    for seed in 0..8u64 {
        let world = GeneratorConfig::certifiably_safe().build(seed);
        let report = audit_world(&world);
        assert!(
            report.certificate.certified,
            "seed {seed} must certify for this suite:\n{}",
            report.render()
        );
        assert_eq!(report.certificate.activation_order(), ActivationOrder::Free);
        let ps = prefixes(&world);
        let wave = RoutingUniverse::compute_ordered(&world, &ps, ActivationOrder::WaveExact);
        let free = RoutingUniverse::compute_ordered(&world, &ps, ActivationOrder::Free);
        assert_identical(&world, &wave, &free, &format!("seed {seed}"));
    }
}

/// The certifiably-safe preset with the default share of sibling
/// organizations put back.
fn safe_with_siblings() -> GeneratorConfig {
    GeneratorConfig {
        sibling_org_fraction: GeneratorConfig::default().sibling_org_fraction,
        ..GeneratorConfig::certifiably_safe()
    }
}

/// Whether some AS holds a sibling session beside a peer or provider
/// session: the worlds certificate condition 5 refused while siblings
/// promoted every route to customer tier.
fn sibling_beside_foreign_tier(world: &World) -> bool {
    let g = &world.graph;
    (0..g.len()).any(|x| {
        let rels: Vec<Relationship> = g
            .links(x)
            .iter()
            .flat_map(|l| l.cities.iter().map(|&c| l.rel_at(c)))
            .collect();
        rels.contains(&Relationship::Sibling)
            && rels
                .iter()
                .any(|r| matches!(r, Relationship::Peer | Relationship::Provider))
    })
}

#[test]
fn certified_worlds_with_transparent_siblings_converge_identically_under_both_orders() {
    // Sibling organizations route as one network, so they no longer block
    // the certificate; the fast path must still land on the wave-exact
    // routing. Every world here (5 of 8 seeds) certifies only under the
    // relaxed condition 5.
    let mut relaxed = 0;
    for seed in 0..8u64 {
        let world = safe_with_siblings().build(seed);
        if !sibling_beside_foreign_tier(&world) {
            continue;
        }
        let report = audit_world(&world);
        assert!(
            report.certificate.certified,
            "seed {seed} must certify:\n{}",
            report.render()
        );
        let ps = prefixes(&world);
        let wave = RoutingUniverse::compute_ordered(&world, &ps, ActivationOrder::WaveExact);
        let free = RoutingUniverse::compute_ordered(&world, &ps, ActivationOrder::Free);
        assert_identical(&world, &wave, &free, &format!("sibling seed {seed}"));
        relaxed += 1;
    }
    assert_eq!(
        relaxed, 5,
        "worlds of 8 with siblings beside peers or providers"
    );
}

#[test]
fn uncertified_worlds_keep_the_wave_exact_order() {
    // The standard generator plants preference deltas and loop-prevention
    // opt-outs; the certificate must refuse those worlds, pinning the
    // engine to its deterministic default.
    let world = GeneratorConfig::tiny().build(7);
    let report = audit_world(&world);
    assert!(!report.certificate.certified);
    assert!(!report.certificate.blockers.is_empty());
    assert_eq!(
        report.certificate.activation_order(),
        ActivationOrder::WaveExact
    );
}

#[test]
fn certified_fast_path_survives_fault_replay() {
    // Faults perturb the activation sequence far more than free ordering
    // does; a certified world must still reconverge to one routing.
    let world = GeneratorConfig::certifiably_safe().build(11);
    assert!(audit_world(&world).certificate.certified);
    let ps = prefixes(&world);
    let links: Vec<_> = {
        let g = &world.graph;
        (0..g.len())
            .flat_map(|x| {
                g.links(x)
                    .iter()
                    .filter(move |l| x < l.peer)
                    .map(move |l| (g.asn(x), g.asn(l.peer)))
            })
            .take(6)
            .collect()
    };
    let mut plane = FaultPlane::new(FaultConfig::chaos(0.4), 99);
    plane.synthesize_link_schedule(&links, ir_types::Timestamp(40));
    let wave = RoutingUniverse::compute_with_faults_ordered(
        &world,
        &ps,
        &plane,
        ActivationOrder::WaveExact,
    );
    let free =
        RoutingUniverse::compute_with_faults_ordered(&world, &ps, &plane, ActivationOrder::Free);
    assert_identical(&world, &wave, &free, "fault replay");
}
