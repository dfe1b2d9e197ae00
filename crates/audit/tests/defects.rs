//! Injected-defect coverage: for every audit rule, start from a
//! generator world that is provably lint-clean, plant exactly one defect,
//! and assert the targeted rule fires — and that **no other rule** does.
//! Together with `generator_clean.rs` this pins both halves of the
//! zero-false-positive contract: clean worlds stay clean, each defect
//! class is caught, and defects never cross-fire into unrelated rules.

use ir_audit::{audit_world, AuditReport, Auditor, RuleId, Severity};
use ir_inference::feeds::{BgpFeed, FeedEntry};
use ir_topology::policy::TransitScope;
use ir_topology::{GeneratorConfig, LinkKind, RelationshipDb, World};
use ir_types::{Asn, Ipv4, Prefix, Relationship};

/// Clean baseline every world-mutation fixture starts from. The
/// certifiably-safe preset keeps hybrid links and partial transit (so the
/// fixtures exercise realistic surroundings) but plants no preference
/// deltas, which lets the dispute fixture control the wheel exactly.
fn base() -> World {
    let world = GeneratorConfig::certifiably_safe().build(7);
    assert!(audit_world(&world).is_clean(), "baseline not clean");
    world
}

/// The defect fired, at its declared severity, and nothing else did.
fn assert_fires_alone(report: &AuditReport, rule: RuleId) {
    assert!(
        report.has_rule(rule),
        "{rule:?} did not fire:\n{}",
        report.render()
    );
    for d in &report.diagnostics {
        assert_eq!(
            d.rule,
            rule,
            "unrelated rule fired alongside {rule:?}:\n{}",
            report.render()
        );
        assert_eq!(d.severity, rule.severity());
    }
}

/// Three ASes that are pairwise unlinked, belong to three different
/// organizations, and have no sibling adjacency — so a link added between
/// them cannot merge sibling groups or shadow an existing session.
fn three_isolated(world: &World) -> [usize; 3] {
    let g = &world.graph;
    let mut picks: Vec<usize> = Vec::new();
    for x in 0..g.len() {
        if g.links(x)
            .iter()
            .any(|l| l.rel == Relationship::Sibling || l.is_hybrid())
        {
            continue;
        }
        if picks
            .iter()
            .any(|&p| g.link(p, x).is_some() || g.node(p).org == g.node(x).org)
        {
            continue;
        }
        picks.push(x);
        if picks.len() == 3 {
            return [picks[0], picks[1], picks[2]];
        }
    }
    panic!("no three isolated ASes in fixture world");
}

#[test]
fn customer_provider_cycle_fires() {
    let mut world = base();
    let [a, b, c] = three_isolated(&world);
    let city = world.graph.node(a).presence[0];
    // b provides for a, c for b, a for c: a money cycle.
    world
        .graph
        .add_link(a, b, Relationship::Provider, vec![city], LinkKind::Normal);
    world
        .graph
        .add_link(b, c, Relationship::Provider, vec![city], LinkKind::Normal);
    world
        .graph
        .add_link(c, a, Relationship::Provider, vec![city], LinkKind::Normal);
    assert_fires_alone(&audit_world(&world), RuleId::CustomerProviderCycle);
}

#[test]
fn dispute_wheel_candidate_fires() {
    let mut world = base();
    // Two peering ASes that each have a customer-tier alternative, each
    // boosting the route *through the other* above every customer route:
    // the textbook two-node dispute wheel (BAD GADGET rim).
    let g = &world.graph;
    let mut pair = None;
    'outer: for x in 0..g.len() {
        let has_spoke = |n: usize, other: usize| {
            g.links(n).iter().any(|l| {
                l.peer != other
                    && !l.is_hybrid()
                    && matches!(l.rel, Relationship::Customer | Relationship::Sibling)
            })
        };
        for l in g.links(x) {
            if l.rel == Relationship::Peer
                && !l.is_hybrid()
                && has_spoke(x, l.peer)
                && has_spoke(l.peer, x)
            {
                pair = Some((x, l.peer));
                break 'outer;
            }
        }
    }
    let (x, y) = pair.expect("no peer pair with customer spokes");
    let (ax, ay) = (world.graph.asn(x), world.graph.asn(y));
    world.policies[x].neighbor_pref.insert(ay, 150);
    world.policies[y].neighbor_pref.insert(ax, 150);
    let report = audit_world(&world);
    assert_fires_alone(&report, RuleId::DisputeWheelCandidate);
    // A dispute wheel is exactly what the certificate must refuse.
    assert!(!report.certificate.certified);
}

#[test]
fn hybrid_link_conflict_fires() {
    let mut world = base();
    let g = &world.graph;
    let (x, y, c1) = (0..g.len())
        .flat_map(|x| g.links(x).iter().map(move |l| (x, l)))
        .find(|(x, l)| *x < l.peer && !l.is_hybrid())
        .map(|(x, l)| (x, l.peer, l.cities[0]))
        .expect("no plain link");
    let c2 = (0..g.len())
        .flat_map(|n| g.node(n).presence.iter().copied())
        .find(|&c| c != c1)
        .expect("world has a second city");
    // The pair charges itself for transit in one city and pays in another.
    world.graph.set_hybrid(x, y, c1, Relationship::Customer);
    world.graph.set_hybrid(x, y, c2, Relationship::Provider);
    assert_fires_alone(&audit_world(&world), RuleId::HybridLinkConflict);
}

#[test]
fn partial_transit_conflict_fires() {
    let mut world = base();
    // Scope partial transit for a provider: a transit arrangement pointed
    // at an AS that is not a customer in any interconnection city.
    let g = &world.graph;
    let (x, provider) = (0..g.len())
        .flat_map(|x| g.links(x).iter().map(move |l| (x, l)))
        .find(|(_, l)| l.rel == Relationship::Provider && !l.is_hybrid())
        .map(|(x, l)| (x, l.peer))
        .expect("no provider link");
    let pa = world.graph.asn(provider);
    world.policies[x]
        .partial_transit
        .insert(pa, TransitScope::CustomerRoutesOnly);
    assert_fires_alone(&audit_world(&world), RuleId::PartialTransitConflict);
}

#[test]
fn sibling_org_mismatch_fires() {
    let mut world = base();
    let [a, b, _] = three_isolated(&world);
    let city = world.graph.node(a).presence[0];
    // Sibling-typed link across organization boundaries.
    world
        .graph
        .add_link(a, b, Relationship::Sibling, vec![city], LinkKind::Normal);
    assert_fires_alone(&audit_world(&world), RuleId::SiblingOrgMismatch);
}

#[test]
fn sibling_group_conflict_fires_on_inferred_db() {
    // Inferred snapshot where one sibling group charges itself for
    // transit: siblings a–b and b–c, plus a customer→provider edge a→c.
    let (a, b, c) = (Asn(65001), Asn(65002), Asn(65003));
    let mut db = RelationshipDb::default();
    db.insert(a, b, Relationship::Sibling);
    db.insert(b, c, Relationship::Sibling);
    db.insert(a, c, Relationship::Provider);
    let report = Auditor::new().inferred(&db).run();
    assert_fires_alone(&report, RuleId::SiblingGroupConflict);
}

#[test]
fn customer_provider_cycle_fires_on_inferred_db() {
    let (a, b, c) = (Asn(65001), Asn(65002), Asn(65003));
    let mut db = RelationshipDb::default();
    db.insert(a, b, Relationship::Provider);
    db.insert(b, c, Relationship::Provider);
    db.insert(c, a, Relationship::Provider);
    let report = Auditor::new().inferred(&db).run();
    assert_fires_alone(&report, RuleId::CustomerProviderCycle);
    let diag = &report.of_rule(RuleId::CustomerProviderCycle)[0];
    assert!(diag.message.contains("inferred"), "{}", diag.message);
}

#[test]
fn valley_announcement_fires() {
    let world = base();
    // A customer hop followed by a provider hop (vantage→origin) is dead
    // under every relationship assignment: the middle AS would have to
    // export a provider-learned route to another provider.
    let g = &world.graph;
    let (mid, down, up) = (0..g.len())
        .find_map(|m| {
            let provs: Vec<usize> = g
                .links(m)
                .iter()
                .filter(|l| l.rel == Relationship::Provider && !l.is_hybrid())
                .map(|l| l.peer)
                .collect();
            (provs.len() >= 2).then(|| (m, provs[0], provs[1]))
        })
        .expect("no multihomed AS");
    let feed = BgpFeed::new(vec![FeedEntry {
        prefix: Prefix::new(Ipv4(0x0a00_0000), 24),
        path: vec![g.asn(down), g.asn(mid), g.asn(up)],
    }]);
    let report = Auditor::new().world(&world).feed(&feed).run();
    assert_fires_alone(&report, RuleId::ValleyAnnouncement);
}

#[test]
fn psp_foreign_prefix_fires() {
    let mut world = base();
    let g = &world.graph;
    // An allow-list for a prefix the AS does not originate, naming a real
    // neighbor — only the foreign-prefix contradiction is present.
    let x = (0..g.len())
        .find(|&x| !g.links(x).is_empty())
        .expect("linked AS");
    let neighbor = g.asn(g.links(x)[0].peer);
    let foreign = Prefix::new(Ipv4(0xc0a8_0000), 16);
    assert!(!world.graph.node(x).prefixes.contains(&foreign));
    world.policies[x]
        .selective_announce
        .insert(foreign, [neighbor].into());
    assert_fires_alone(&audit_world(&world), RuleId::PspForeignPrefix);
}

#[test]
fn psp_unknown_neighbor_fires() {
    let mut world = base();
    let g = &world.graph;
    let (x, own) = (0..g.len())
        .find_map(|x| g.node(x).prefixes.first().map(|&p| (x, p)))
        .expect("originating AS");
    let stranger = (0..g.len())
        .map(|n| g.asn(n))
        .find(|&a| a != g.asn(x) && g.index_of(a).and_then(|n| g.link(x, n)).is_none())
        .expect("non-neighbor AS");
    world.policies[x]
        .selective_announce
        .insert(own, [stranger].into());
    assert_fires_alone(&audit_world(&world), RuleId::PspUnknownNeighbor);
}

#[test]
fn psp_blackhole_fires() {
    let mut world = base();
    let g = &world.graph;
    let (x, own) = (0..g.len())
        .find_map(|x| g.node(x).prefixes.first().map(|&p| (x, p)))
        .expect("originating AS");
    world.policies[x]
        .selective_announce
        .insert(own, Default::default());
    assert_fires_alone(&audit_world(&world), RuleId::PspBlackhole);
}

#[test]
fn severities_are_stable() {
    // The rule→severity mapping is part of the JSON contract; pin it.
    for (rule, sev) in [
        (RuleId::CustomerProviderCycle, Severity::Error),
        (RuleId::DisputeWheelCandidate, Severity::Warning),
        (RuleId::HybridLinkConflict, Severity::Error),
        (RuleId::PartialTransitConflict, Severity::Warning),
        (RuleId::SiblingOrgMismatch, Severity::Error),
        (RuleId::SiblingGroupConflict, Severity::Warning),
        (RuleId::ValleyAnnouncement, Severity::Error),
        (RuleId::PspForeignPrefix, Severity::Error),
        (RuleId::PspUnknownNeighbor, Severity::Warning),
        (RuleId::PspBlackhole, Severity::Warning),
    ] {
        assert_eq!(rule.severity(), sev, "{rule:?}");
    }
}
