//! Differential proof of the incremental delta-safety contract.
//!
//! The [`DeltaAuditor`] judges an edit set against a certified world in
//! O(edit scope) without applying it; these suites prove its verdict
//! agrees with the O(world) ground truth — a full [`audit_world`] re-run
//! over [`edited_world`] at **every cumulative prefix** of the edit
//! sequence (the engine applies deltas one at a time, so intermediate
//! states must stay safe too) — and that the serving integration keeps
//! free-order answers exact:
//!
//! * randomized agreement: 1000+ (certified world, delta batch) pairs,
//!   on certifiably-safe worlds and a 1 000-AS internet-scale one, where
//!   `Preserved` ⇔ every cumulative edited world still certifies,
//!   and `Unknown` never appears for well-formed edits on certified bases;
//! * per-rule fixtures: each audit rule IR-A001..A010 pinned to the one
//!   way a delta interacts with it — revocation, preservation-as-warning,
//!   or `Unknown` because only a base-world defect (never a delta) can
//!   produce it;
//! * serving exactness: with a certifier attached, both `Preserved`
//!   (free-order kept) and `Revoked` (fork downgraded to wave-exact)
//!   answers are route-for-route identical, **installation ages
//!   included**, to a cold wave-exact replay;
//! * the free-order hole regression: even with **no** certifier, a
//!   preference edit on a free-order fork downgrades the sim itself, so a
//!   delta that manufactures a dispute wheel cannot make a warm answer
//!   diverge from cold wave-exact ground truth.
//!
//! A structural fact the fixtures also pin: on a certified base a
//! dispute-wheel candidate edge out of AS `u` requires `u` to prefer a
//! foreign-tier route above a (floored) customer spoke, which is exactly
//! a GR preference inversion at `u` — so the `GR-PREF` check necessarily
//! fires before any wheel can close, and `IR-A002` revocations act as a
//! defense-in-depth backstop rather than the first line. That is
//! Gao–Rexford's theorem in miniature: no inversion, no wheel.

use ir_audit::{audit_world, edited_world, CertificateDelta, DeltaAuditor, RuleId};
use ir_bgp::universe::prefix_owners;
use ir_bgp::{
    ActivationOrder, Announcement, Delta, PrefixSim, Route, SimContext, WhatIfEngine, WhatIfQuery,
};
use ir_topology::{GeneratorConfig, LinkKind, World};
use ir_types::{Asn, Ipv4, Prefix, Relationship, Timestamp};
use std::collections::{BTreeMap, BTreeSet};

/// Deterministic xorshift64* — scenario generation reproducible from the
/// seed alone, same idiom as the engine-side differential suites.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A spread sample of the world's links as ASN pairs.
fn spread_links(w: &World, count: usize) -> Vec<(Asn, Asn)> {
    let g = &w.graph;
    let all: Vec<(Asn, Asn)> = (0..g.len())
        .flat_map(|x| {
            g.links(x)
                .iter()
                .filter(move |l| x < l.peer)
                .map(move |l| (g.asn(x), g.asn(l.peer)))
        })
        .collect();
    assert!(!all.is_empty(), "world has no links");
    let step = (all.len() / count.max(1)).max(1);
    all.into_iter().step_by(step).take(count).collect()
}

/// One random edit spanning every delta class the wire protocol carries.
/// Preference deltas range over ±800 so batches revoke as often as they
/// preserve; selective announcements split between the origin's own
/// prefix (warning-class) and a foreign one (error-class, revokes).
fn random_delta(rng: &mut Rng, w: &World, links: &[(Asn, Asn)]) -> Delta {
    let g = &w.graph;
    let (a, b) = links[rng.below(links.len())];
    match rng.below(10) {
        0 | 1 => Delta::LinkDown { a, b },
        2 => Delta::LinkUp { a, b },
        3 | 4 => Delta::NeighborPref {
            of: a,
            neighbor: b,
            delta: if rng.below(5) == 0 {
                None
            } else {
                Some(rng.below(1601) as i16 - 800)
            },
        },
        5 => Delta::ExportPrepend {
            of: a,
            neighbor: b,
            count: if rng.below(4) == 0 {
                None
            } else {
                Some(1 + rng.below(3) as u8)
            },
        },
        6 => Delta::PartialTransit {
            of: a,
            neighbor: b,
            customer_routes_only: rng.below(2) == 0,
        },
        7 | 8 => {
            let x = rng.below(g.len());
            let own = g.node(x).prefixes.first().copied();
            let foreign = Prefix::new(Ipv4(0xc0a8_0000), 16);
            let prefix = match (rng.below(2), own) {
                (0, Some(p)) => p,
                _ => foreign,
            };
            let allowed = if rng.below(4) == 0 {
                None
            } else {
                let neighbors: Vec<Asn> = g.links(x).iter().map(|l| g.asn(l.peer)).collect();
                let keep = rng.below(neighbors.len() + 1);
                Some(neighbors.into_iter().take(keep).collect::<BTreeSet<_>>())
            };
            Delta::SelectiveAnnounce {
                of: g.asn(x),
                prefix,
                allowed,
            }
        }
        _ => Delta::PoisonFilter {
            of: a,
            enabled: rng.below(2) == 0,
        },
    }
}

/// Ground truth for one batch: does **every** cumulative prefix of the
/// edit sequence keep the edited world certified under a full re-audit?
fn every_cumulative_prefix_certifies(world: &World, deltas: &[Delta]) -> bool {
    (1..=deltas.len()).all(|i| {
        audit_world(&edited_world(world, &deltas[..i]))
            .certificate
            .certified
    })
}

/// Checks one (certified base, batch) pair: the incremental verdict must
/// equal the cumulative full re-audit, and must never be `Unknown`.
fn assert_agrees(auditor: &DeltaAuditor<'_>, world: &World, deltas: &[Delta], tag: &str) -> bool {
    let verdict = auditor.audit_deltas(deltas);
    let truth = every_cumulative_prefix_certifies(world, deltas);
    match &verdict {
        CertificateDelta::Preserved => {
            assert!(
                truth,
                "{tag}: incremental said Preserved but a cumulative prefix fails \
                 the full re-audit\n  deltas: {deltas:?}"
            );
            true
        }
        CertificateDelta::Revoked { rule, witness } => {
            assert!(
                !truth,
                "{tag}: incremental revoked ({rule}: {witness}) but every cumulative \
                 prefix still certifies\n  deltas: {deltas:?}"
            );
            false
        }
        CertificateDelta::Unknown => {
            panic!("{tag}: Unknown on a certified base with known ASNs\n  deltas: {deltas:?}")
        }
    }
}

#[test]
fn randomized_delta_batches_agree_with_full_reaudit() {
    let mut pairs = 0usize;
    let mut preserved = 0usize;
    let mut revoked = 0usize;
    // Three certifiably-safe worlds carry the bulk of the pairs; a
    // 1 000-AS internet-scale world (certified at seed 7, pinned by
    // `internet_scale_certifies`) checks the verdicts on that preset too.
    let mut inputs: Vec<(&str, u64, World, usize)> = [2u64, 4, 6]
        .into_iter()
        .map(|seed| {
            let world = GeneratorConfig::certifiably_safe().build(seed);
            ("certifiably_safe", seed, world, 350)
        })
        .collect();
    let world = GeneratorConfig::internet_scale_sized(1_000).build(7);
    inputs.push(("internet_scale_sized(1000)", 7, world, 64));
    // Sibling organizations beside peers and providers: certified only
    // since siblings became transparent (certificate condition 5).
    inputs.push(("certifiably_safe + siblings", 2, with_siblings(2), 150));
    for (preset, seed, world, batches) in &inputs {
        let auditor = DeltaAuditor::new(world);
        assert!(
            auditor.base_certified(),
            "{preset} seed {seed} must certify"
        );
        let links = spread_links(world, 24);
        let mut rng = Rng::new(seed ^ 0xD1FF);
        for batch in 0..*batches {
            let len = 1 + rng.below(4);
            let deltas: Vec<Delta> = (0..len)
                .map(|_| random_delta(&mut rng, world, &links))
                .collect();
            let tag = format!("{preset} seed {seed} batch {batch}");
            if assert_agrees(&auditor, world, &deltas, &tag) {
                preserved += 1;
            } else {
                revoked += 1;
            }
            pairs += 1;
        }
    }
    assert!(pairs >= 1000, "only {pairs} randomized pairs ran");
    // Both outcomes must be exercised heavily, or the agreement assertion
    // is vacuous on one side.
    assert!(preserved >= 100, "only {preserved} preserved verdicts");
    assert!(revoked >= 100, "only {revoked} revoked verdicts");
}

#[test]
fn uncertified_bases_and_unknown_ases_answer_unknown() {
    // The paper-shaped generator plants exactly the deviations
    // certification excludes; those worlds have no certificate to
    // maintain, so every verdict is Unknown regardless of the edit.
    let world = GeneratorConfig::tiny().build(7);
    let auditor = DeltaAuditor::new(&world);
    assert!(!auditor.base_certified(), "tiny worlds must not certify");
    let links = spread_links(&world, 8);
    let mut rng = Rng::new(99);
    for _ in 0..32 {
        let deltas = vec![random_delta(&mut rng, &world, &links)];
        assert_eq!(auditor.audit_deltas(&deltas), CertificateDelta::Unknown);
    }

    // A certified base with an ASN the world has never heard of is also
    // Unknown: the auditor will not guess what the engine would do.
    let world = GeneratorConfig::certifiably_safe().build(2);
    let auditor = DeltaAuditor::new(&world);
    assert!(auditor.base_certified());
    let known = world.graph.asn(0);
    let ghost = Asn(4_294_900_001);
    assert!(world.graph.index_of(ghost).is_none());
    for deltas in [
        vec![Delta::NeighborPref {
            of: ghost,
            neighbor: known,
            delta: Some(10),
        }],
        vec![Delta::LinkDown { a: known, b: ghost }],
        vec![Delta::PoisonFilter {
            of: ghost,
            enabled: true,
        }],
    ] {
        assert_eq!(auditor.audit_deltas(&deltas), CertificateDelta::Unknown);
    }

    // An empty batch on a certified base trivially preserves.
    assert_eq!(auditor.audit_deltas(&[]), CertificateDelta::Preserved);
}

// ---------------------------------------------------------------------------
// Per-rule fixtures: the one way each rule interacts with a delta batch.
// ---------------------------------------------------------------------------

/// Clean certified baseline the fixtures edit (same one `defects.rs`
/// plants base-world defects into).
fn base() -> World {
    let world = GeneratorConfig::certifiably_safe().build(7);
    assert!(audit_world(&world).is_clean(), "baseline not clean");
    world
}

/// The certifiably-safe preset with the default share of sibling
/// organizations put back; it certifies.
fn with_siblings(seed: u64) -> World {
    GeneratorConfig {
        sibling_org_fraction: GeneratorConfig::default().sibling_org_fraction,
        ..GeneratorConfig::certifiably_safe()
    }
    .build(seed)
}

/// An AS with a customer session and a sibling session, and the sibling.
fn sibling_boost_target(world: &World) -> (Asn, Asn) {
    let g = &world.graph;
    for x in 0..g.len() {
        let plain = |rel| {
            g.links(x)
                .iter()
                .find(move |l| !l.is_hybrid() && l.rel == rel)
        };
        if let (Some(_), Some(sib)) = (plain(Relationship::Customer), plain(Relationship::Sibling))
        {
            return (g.asn(x), g.asn(sib.peer));
        }
    }
    panic!("no AS with both a customer and a sibling session");
}

#[test]
fn sibling_boost_over_customer_routes_revokes_as_gr_sibling() {
    // Siblings are transparent, so a sibling session can carry its
    // sibling's peer route at peer tier (200). A boost that lifts it to or
    // over the AS's customer routes (300) inverts Gao–Rexford order; a
    // smaller one keeps the certificate.
    let world = with_siblings(2);
    let auditor = DeltaAuditor::new(&world);
    assert!(auditor.base_certified());
    let (of, neighbor) = sibling_boost_target(&world);
    let boost = |delta| {
        vec![Delta::NeighborPref {
            of,
            neighbor,
            delta: Some(delta),
        }]
    };
    match auditor.audit_deltas(&boost(150)) {
        CertificateDelta::Revoked { rule, witness } => {
            assert_eq!(rule, "GR-SIBLING", "{witness}");
            assert!(witness.contains(&neighbor.to_string()), "{witness}");
        }
        other => panic!("expected GR-SIBLING revocation, got {other:?}"),
    }
    assert!(!every_cumulative_prefix_certifies(&world, &boost(150)));
    assert!(auditor.audit_deltas(&boost(50)).preserved());
    assert!(every_cumulative_prefix_certifies(&world, &boost(50)));
}

/// Three pairwise-unlinked ASes in three organizations with no sibling
/// adjacency — safe to wire base-world defects between.
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

/// A defect-injected base must yield `Unknown` for any batch: there is no
/// certificate to maintain, and the rules these defects trip (IR-A001,
/// IR-A003, IR-A005, and a pre-existing IR-A002 wheel) are ones **no
/// delta can produce** — deltas never add links, re-type relationships,
/// or merge organizations.
#[test]
fn base_world_defect_rules_yield_unknown_not_verdicts() {
    let probe = |world: &World, which: &str| {
        let auditor = DeltaAuditor::new(world);
        assert!(!auditor.base_certified(), "{which}: defect base certified?");
        let links = spread_links(world, 4);
        let mut rng = Rng::new(5);
        for _ in 0..4 {
            let deltas = vec![random_delta(&mut rng, world, &links)];
            assert_eq!(
                auditor.audit_deltas(&deltas),
                CertificateDelta::Unknown,
                "{which}"
            );
        }
    };

    // IR-A001: customer→provider money cycle wired into the base.
    let mut world = base();
    let [a, b, c] = three_isolated(&world);
    let city = world.graph.node(a).presence[0];
    world
        .graph
        .add_link(a, b, Relationship::Provider, vec![city], LinkKind::Normal);
    world
        .graph
        .add_link(b, c, Relationship::Provider, vec![city], LinkKind::Normal);
    world
        .graph
        .add_link(c, a, Relationship::Provider, vec![city], LinkKind::Normal);
    assert!(audit_world(&world).has_rule(RuleId::CustomerProviderCycle));
    probe(&world, "IR-A001");

    // IR-A002: a dispute wheel already in the base policies.
    let mut world = base();
    let (x, y) = peer_pair_with_spokes(&world);
    let (ax, ay) = (world.graph.asn(x), world.graph.asn(y));
    world.policies[x].neighbor_pref.insert(ay, 150);
    world.policies[y].neighbor_pref.insert(ax, 150);
    assert!(audit_world(&world).has_rule(RuleId::DisputeWheelCandidate));
    probe(&world, "IR-A002 (pre-existing)");

    // IR-A003: hybrid link typed customer in one city, provider in another.
    let mut world = base();
    let g = &world.graph;
    let (hx, hy, c1) = (0..g.len())
        .flat_map(|x| g.links(x).iter().map(move |l| (x, l)))
        .find(|(x, l)| *x < l.peer && !l.is_hybrid())
        .map(|(x, l)| (x, l.peer, l.cities[0]))
        .expect("no plain link");
    let c2 = (0..g.len())
        .flat_map(|n| g.node(n).presence.iter().copied())
        .find(|&c| c != c1)
        .expect("world has a second city");
    world.graph.set_hybrid(hx, hy, c1, Relationship::Customer);
    world.graph.set_hybrid(hx, hy, c2, Relationship::Provider);
    assert!(audit_world(&world).has_rule(RuleId::HybridLinkConflict));
    probe(&world, "IR-A003");

    // IR-A005: sibling-typed link across organization boundaries.
    let mut world = base();
    let [a, b, _] = three_isolated(&world);
    let city = world.graph.node(a).presence[0];
    world
        .graph
        .add_link(a, b, Relationship::Sibling, vec![city], LinkKind::Normal);
    assert!(audit_world(&world).has_rule(RuleId::SiblingOrgMismatch));
    probe(&world, "IR-A005");
}

/// The first peer pair where both ends hold a customer-tier spoke — the
/// two-node BAD-GADGET rim `defects.rs` uses.
fn peer_pair_with_spokes(world: &World) -> (usize, usize) {
    let g = &world.graph;
    let has_spoke = |n: usize, other: usize| {
        g.links(n).iter().any(|l| {
            l.peer != other
                && !l.is_hybrid()
                && matches!(l.rel, Relationship::Customer | Relationship::Sibling)
        })
    };
    for x in 0..g.len() {
        for l in g.links(x) {
            if l.rel == Relationship::Peer
                && !l.is_hybrid()
                && has_spoke(x, l.peer)
                && has_spoke(l.peer, x)
            {
                return (x, l.peer);
            }
        }
    }
    panic!("no peer pair with customer spokes");
}

/// An AS holding both a customer-tier and a foreign-tier session, with
/// the foreign peer — the GR-PREF inversion target.
fn inversion_target(world: &World) -> (Asn, Asn) {
    let g = &world.graph;
    for x in 0..g.len() {
        let has_cust = g.links(x).iter().any(|l| {
            !l.is_hybrid() && matches!(l.rel, Relationship::Customer | Relationship::Sibling)
        });
        let foreign = g.links(x).iter().find(|l| {
            !l.is_hybrid() && matches!(l.rel, Relationship::Peer | Relationship::Provider)
        });
        if let (true, Some(f)) = (has_cust, foreign) {
            return (g.asn(x), g.asn(f.peer));
        }
    }
    panic!("no AS with both customer and foreign sessions");
}

#[test]
fn preference_inversion_delta_revokes_as_gr_pref() {
    let world = base();
    let auditor = DeltaAuditor::new(&world);
    let (of, neighbor) = inversion_target(&world);
    let deltas = vec![Delta::NeighborPref {
        of,
        neighbor,
        delta: Some(500),
    }];
    match auditor.audit_deltas(&deltas) {
        CertificateDelta::Revoked { rule, witness } => {
            assert_eq!(rule, "GR-PREF", "{witness}");
            assert!(witness.contains(&of.to_string()), "{witness}");
        }
        other => panic!("expected GR-PREF revocation, got {other:?}"),
    }
    assert!(!every_cumulative_prefix_certifies(&world, &deltas));
    // Clearing the same override preserves: the batch nets to the base.
    let roundtrip = vec![
        deltas[0].clone(),
        Delta::NeighborPref {
            of,
            neighbor,
            delta: None,
        },
    ];
    // …but NOT as a batch verdict: the intermediate state was unsafe, and
    // the engine would have walked through it.
    assert!(!auditor.audit_deltas(&roundtrip).preserved());
}

/// The wheel-building edit sequence from `defects.rs`, applied as deltas:
/// the verdict is a revocation at the *first* boost — as GR-PREF, because
/// a candidate edge out of an AS requires that AS to rank the foreign
/// route above its floored customer spoke, i.e. the preference inversion
/// is detectable strictly before the wheel can close (no inversion ⇒ no
/// wheel). The full re-audit of the completed batch confirms the wheel
/// (IR-A002) is real; the incremental auditor simply refuses earlier.
#[test]
fn dispute_wheel_deltas_revoke_at_the_enabling_inversion() {
    let world = base();
    let auditor = DeltaAuditor::new(&world);
    let (x, y) = peer_pair_with_spokes(&world);
    let (ax, ay) = (world.graph.asn(x), world.graph.asn(y));
    let deltas = vec![
        Delta::NeighborPref {
            of: ax,
            neighbor: ay,
            delta: Some(150),
        },
        Delta::NeighborPref {
            of: ay,
            neighbor: ax,
            delta: Some(150),
        },
    ];
    match auditor.audit_deltas(&deltas) {
        CertificateDelta::Revoked { rule, .. } => assert_eq!(rule, "GR-PREF"),
        other => panic!("expected revocation, got {other:?}"),
    }
    // Ground truth on the completed batch: the wheel exists (IR-A002) and
    // certification is gone — agreement, with a finer-grained first cause.
    let full = audit_world(&edited_world(&world, &deltas));
    assert!(full.has_rule(RuleId::DisputeWheelCandidate));
    assert!(!full.certificate.certified);
    assert!(!every_cumulative_prefix_certifies(&world, &deltas));
}

#[test]
fn selective_announce_fixtures_split_by_severity() {
    let world = base();
    let auditor = DeltaAuditor::new(&world);
    let g = &world.graph;
    let (x, own) = (0..g.len())
        .find_map(|x| g.node(x).prefixes.first().map(|&p| (x, p)))
        .expect("originating AS");
    let of = g.asn(x);
    let neighbor = g.asn(g.links(x)[0].peer);
    let stranger = (0..g.len())
        .map(|n| g.asn(n))
        .find(|&a| a != of && g.index_of(a).and_then(|n| g.link(x, n)).is_none())
        .expect("non-neighbor AS");

    // IR-A008 (Error): scoping a prefix the AS does not originate revokes.
    let foreign = Prefix::new(Ipv4(0xc0a8_0000), 16);
    assert!(!g.node(x).prefixes.contains(&foreign));
    let deltas = vec![Delta::SelectiveAnnounce {
        of,
        prefix: foreign,
        allowed: Some([neighbor].into()),
    }];
    match auditor.audit_deltas(&deltas) {
        CertificateDelta::Revoked { rule, witness } => {
            assert_eq!(rule, "IR-A008", "{witness}");
        }
        other => panic!("expected IR-A008 revocation, got {other:?}"),
    }
    let full = audit_world(&edited_world(&world, &deltas));
    assert!(full.has_rule(RuleId::PspForeignPrefix));
    assert!(!full.certificate.certified);

    // IR-A009 (Warning): allow-list naming a non-neighbor preserves —
    // warnings do not block certification, and the full re-audit agrees.
    let deltas = vec![Delta::SelectiveAnnounce {
        of,
        prefix: own,
        allowed: Some([stranger].into()),
    }];
    assert!(auditor.audit_deltas(&deltas).preserved());
    let full = audit_world(&edited_world(&world, &deltas));
    assert!(full.has_rule(RuleId::PspUnknownNeighbor));
    assert!(full.certificate.certified);

    // IR-A010 (Warning): an empty allow-list blackholes but preserves.
    let deltas = vec![Delta::SelectiveAnnounce {
        of,
        prefix: own,
        allowed: Some(BTreeSet::new()),
    }];
    assert!(auditor.audit_deltas(&deltas).preserved());
    let full = audit_world(&edited_world(&world, &deltas));
    assert!(full.has_rule(RuleId::PspBlackhole));
    assert!(full.certificate.certified);
}

#[test]
fn partial_transit_delta_preserves_as_warning() {
    // IR-A004 (Warning): partial transit scoped at a provider draws the
    // conflict diagnostic but cannot revoke — export-side scoping never
    // reorders import tiers.
    let world = base();
    let auditor = DeltaAuditor::new(&world);
    let g = &world.graph;
    let (x, provider) = (0..g.len())
        .flat_map(|x| g.links(x).iter().map(move |l| (x, l)))
        .find(|(_, l)| l.rel == Relationship::Provider && !l.is_hybrid())
        .map(|(x, l)| (x, l.peer))
        .expect("no provider link");
    let deltas = vec![Delta::PartialTransit {
        of: g.asn(x),
        neighbor: g.asn(provider),
        customer_routes_only: true,
    }];
    assert!(auditor.audit_deltas(&deltas).preserved());
    let full = audit_world(&edited_world(&world, &deltas));
    assert!(full.has_rule(RuleId::PartialTransitConflict));
    assert!(full.certificate.certified);
}

#[test]
fn link_deltas_alone_cannot_revoke_certification() {
    // Removing sessions only raises the customer floor and lowers the
    // foreign ceiling — GR conditions tighten, never break. Every
    // link-only batch on a certified base must preserve, and the full
    // re-audit must agree.
    let world = base();
    let auditor = DeltaAuditor::new(&world);
    let links = spread_links(&world, 16);
    let mut rng = Rng::new(17);
    for batch in 0..40 {
        let len = 1 + rng.below(4);
        let deltas: Vec<Delta> = (0..len)
            .map(|_| {
                let (a, b) = links[rng.below(links.len())];
                if rng.below(3) == 0 {
                    Delta::LinkUp { a, b }
                } else {
                    Delta::LinkDown { a, b }
                }
            })
            .collect();
        assert!(
            auditor.audit_deltas(&deltas).preserved(),
            "link batch {batch} revoked: {deltas:?}"
        );
        assert!(every_cumulative_prefix_certifies(&world, &deltas));
    }
}

// ---------------------------------------------------------------------------
// Serving exactness: verdicts keep what-if answers bit-identical to cold
// wave-exact ground truth, installation ages included.
// ---------------------------------------------------------------------------

/// Cold ground truth: fresh wave-exact sim, announce at `t=0`, replay the
/// edit sequence at the engine's own delta timestamps.
fn cold_wave_exact<'w>(
    world: &'w World,
    origin: Asn,
    prefix: Prefix,
    deltas: &[Delta],
) -> PrefixSim<'w> {
    let mut cold = PrefixSim::with_context_ordered(
        SimContext::shared(world),
        prefix,
        ActivationOrder::WaveExact,
    );
    cold.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
    for (i, d) in deltas.iter().enumerate() {
        cold.apply_delta(d, Timestamp(60 * (i as u64 + 1)));
    }
    cold
}

/// Every AS's warm route (diff overlay over the base) must equal the cold
/// sim's exactly — full `Route` equality, ages included.
fn assert_exact(
    world: &World,
    engine: &WhatIfEngine<'_>,
    prefix: Prefix,
    diffs: &[ir_bgp::RouteDiff],
    cold: &PrefixSim<'_>,
    tag: &str,
) {
    let by_asn: BTreeMap<Asn, &ir_bgp::RouteDiff> = diffs.iter().map(|d| (d.asn, d)).collect();
    for x in 0..world.graph.len() {
        let asn = world.graph.asn(x);
        let warm: Option<Route> = match by_asn.get(&asn) {
            Some(d) => d.after.clone(),
            None => engine.base_route(prefix, x),
        };
        assert_eq!(
            warm,
            cold.best(x),
            "{tag}: warm/cold divergence at AS {asn} for {prefix}"
        );
    }
}

#[test]
fn certified_serving_answers_stay_exact_under_both_verdicts() {
    let mut preserved = 0usize;
    let mut revoked = 0usize;
    for seed in [2u64, 4, 6] {
        let world = GeneratorConfig::certifiably_safe().build(seed);
        let report = audit_world(&world);
        assert!(report.certificate.certified, "seed {seed} must certify");
        let owners = prefix_owners(&world);
        let prefixes: Vec<Prefix> = owners.keys().copied().take(2).collect();
        let mut engine = WhatIfEngine::with_order(&world, &prefixes, ActivationOrder::Free);
        assert!(engine.base_converged());
        engine.set_certifier(Box::new(DeltaAuditor::with_report(&world, report)));
        assert!(engine.has_certifier());

        let links = spread_links(&world, 16);
        let mut rng = Rng::new(seed ^ 0xACED);
        for batch in 0..40 {
            let prefix = prefixes[rng.below(prefixes.len())];
            let origin = owners[&prefix];
            let len = 1 + rng.below(3);
            // Policy/link edits only: origination edits change which
            // routes exist on both sides identically and are already
            // covered by the engine-side differentials.
            let deltas: Vec<Delta> = (0..len)
                .map(|_| loop {
                    let d = random_delta(&mut rng, &world, &links);
                    if !matches!(d, Delta::SelectiveAnnounce { .. }) {
                        break d;
                    }
                })
                .collect();
            let q = WhatIfQuery {
                prefix,
                deltas: deltas.clone(),
            };
            let answer = engine.query(&q).expect("prefix resident");
            assert!(answer.stats.converged);
            let tag = format!("seed {seed} batch {batch}");
            match answer
                .certificate
                .as_ref()
                .expect("certifier attached: verdict must be present")
            {
                CertificateDelta::Preserved => preserved += 1,
                CertificateDelta::Revoked { .. } => revoked += 1,
                CertificateDelta::Unknown => panic!("{tag}: Unknown on certified base"),
            }
            // Exactness holds for BOTH verdicts: Preserved answers are
            // free-order over a unique-fixpoint system (order-independent
            // ages), Revoked answers were transparently downgraded to the
            // wave-exact order the cold side runs.
            let cold = cold_wave_exact(&world, origin, prefix, &deltas);
            assert_exact(&world, &engine, prefix, &answer.diffs, &cold, &tag);
        }
    }
    assert!(preserved >= 20, "only {preserved} preserved answers");
    assert!(revoked >= 20, "only {revoked} revoked answers");
}

/// The latent free-order hole, closed independently of any certifier: a
/// free-order fork that receives a preference edit **without** a
/// preserved-certificate token downgrades itself to wave-exact, so even a
/// delta that manufactures a dispute wheel (multiple equilibria — free
/// worklists may converge elsewhere) answers exactly like the cold
/// wave-exact ground truth, installation ages included.
#[test]
fn free_order_fork_downgrades_on_uncertified_preference_edit() {
    let world = GeneratorConfig::certifiably_safe().build(7);
    let report = audit_world(&world);
    assert!(report.certificate.certified);
    let owners = prefix_owners(&world);
    let prefixes: Vec<Prefix> = owners.keys().copied().take(2).collect();
    // Legacy configuration: free order, NO certifier attached.
    let engine = WhatIfEngine::with_order(&world, &prefixes, ActivationOrder::Free);
    assert!(engine.base_converged());
    assert!(!engine.has_certifier());

    let (x, y) = peer_pair_with_spokes(&world);
    let (ax, ay) = (world.graph.asn(x), world.graph.asn(y));
    let deltas = vec![
        Delta::NeighborPref {
            of: ax,
            neighbor: ay,
            delta: Some(150),
        },
        Delta::NeighborPref {
            of: ay,
            neighbor: ax,
            delta: Some(150),
        },
    ];
    // The edits genuinely manufacture a wheel: the edited world has a
    // dispute-wheel candidate and loses certification.
    let full = audit_world(&edited_world(&world, &deltas));
    assert!(full.has_rule(RuleId::DisputeWheelCandidate));
    assert!(!full.certificate.certified);

    for &prefix in &prefixes {
        let origin = owners[&prefix];
        let answer = engine
            .query(&WhatIfQuery {
                prefix,
                deltas: deltas.clone(),
            })
            .expect("prefix resident");
        assert!(answer.stats.converged);
        // No certifier ⇒ no verdict in the answer (legacy wire shape).
        assert!(answer.certificate.is_none());
        let cold = cold_wave_exact(&world, origin, prefix, &deltas);
        assert_exact(&world, &engine, prefix, &answer.diffs, &cold, "hole");
    }
}

// ---------------------------------------------------------------------------
// PolicyExtension-bearing worlds: serving exactness must survive a
// DefensePlan installed on the resident sims — the configuration the
// security scenario suite queries hijack deltas against.
// ---------------------------------------------------------------------------

/// Ground-truth origin pinning: reject any import whose claimed origin
/// is not the prefix's registered owner. A local stand-in for the
/// scenario suite's ROV (this crate cannot depend on `ir-scenarios`);
/// what matters here is only that the extension actually rejects routes,
/// so the defended base differs from the undefended one.
struct OriginPin {
    owners: BTreeMap<Prefix, Asn>,
}

impl ir_bgp::PolicyExtension for OriginPin {
    fn name(&self) -> &'static str {
        "origin-pin"
    }

    fn accept_import(&self, check: &ir_bgp::ExtensionCheck<'_>) -> bool {
        match (self.owners.get(&check.prefix), check.origin_asn()) {
            (Some(&owner), Some(origin)) => origin == owner,
            _ => true,
        }
    }
}

/// [`cold_wave_exact`] with a [`DefensePlan`] installed before any event
/// — the defended ground truth.
fn cold_wave_exact_defended<'w>(
    world: &'w World,
    origin: Asn,
    prefix: Prefix,
    deltas: &[Delta],
    defenses: std::sync::Arc<ir_bgp::DefensePlan>,
) -> PrefixSim<'w> {
    let mut cold = PrefixSim::with_context_ordered(
        SimContext::shared(world),
        prefix,
        ActivationOrder::WaveExact,
    );
    cold.set_defenses(Some(defenses));
    cold.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
    for (i, d) in deltas.iter().enumerate() {
        cold.apply_delta(d, Timestamp(60 * (i as u64 + 1)));
    }
    cold
}

#[test]
fn defended_serving_answers_stay_exact_under_both_verdicts() {
    use std::sync::Arc;

    let mut preserved = 0usize;
    let mut revoked = 0usize;
    for seed in [3u64, 5] {
        let world = GeneratorConfig::certifiably_safe().build(seed);
        let report = audit_world(&world);
        assert!(report.certificate.certified, "seed {seed} must certify");
        let owners = prefix_owners(&world);
        let prefixes: Vec<Prefix> = owners.keys().copied().take(2).collect();

        // Partial adoption (every other AS) so both the extension path
        // and the plain import path run inside every propagation.
        let mut plan = ir_bgp::DefensePlan::for_world(&world);
        if let Some(id) = plan.register(Arc::new(OriginPin {
            owners: owners.clone(),
        })) {
            for x in (0..world.graph.len()).step_by(2) {
                plan.adopt(x, id);
            }
        }
        let plan = Arc::new(plan);

        let mut engine = WhatIfEngine::with_order_defended(
            &world,
            &prefixes,
            ActivationOrder::Free,
            Some(Arc::clone(&plan)),
        );
        assert!(engine.base_converged());
        engine.set_certifier(Box::new(DeltaAuditor::with_report(&world, report)));

        let g = &world.graph;
        let links = spread_links(&world, 16);
        let mut rng = Rng::new(seed ^ 0x0D3F);
        for batch in 0..45 {
            let prefix = prefixes[rng.below(prefixes.len())];
            let origin = owners[&prefix];
            let len = 1 + rng.below(3);
            // Mix adversarial originations into the usual policy/link
            // edits: a hijack is exactly the delta class the defended
            // configuration exists to serve.
            let deltas: Vec<Delta> = (0..len)
                .map(|_| {
                    if rng.below(3) == 0 {
                        let attacker = loop {
                            let a = g.asn(rng.below(g.len()));
                            if a != origin {
                                break a;
                            }
                        };
                        let stealth = rng.below(2) == 0;
                        Delta::Hijack {
                            attacker,
                            forged_origin: if rng.below(2) == 0 {
                                Some(origin)
                            } else {
                                None
                            },
                            poison: vec![],
                            stealth,
                        }
                    } else {
                        loop {
                            let d = random_delta(&mut rng, &world, &links);
                            if !matches!(d, Delta::SelectiveAnnounce { .. }) {
                                break d;
                            }
                        }
                    }
                })
                .collect();
            let answer = engine
                .query(&WhatIfQuery {
                    prefix,
                    deltas: deltas.clone(),
                })
                .expect("prefix resident");
            assert!(answer.stats.converged);
            let tag = format!("defended seed {seed} batch {batch}");
            match answer
                .certificate
                .as_ref()
                .expect("certifier attached: verdict must be present")
            {
                CertificateDelta::Preserved => preserved += 1,
                CertificateDelta::Revoked { .. } => revoked += 1,
                CertificateDelta::Unknown => panic!("{tag}: Unknown on certified base"),
            }
            // Exactness holds for BOTH verdicts, with the DefensePlan in
            // force on both sides of the differential.
            let cold = cold_wave_exact_defended(&world, origin, prefix, &deltas, Arc::clone(&plan));
            assert_exact(&world, &engine, prefix, &answer.diffs, &cold, &tag);
        }
    }
    assert!(preserved >= 8, "only {preserved} preserved answers");
    assert!(revoked >= 8, "only {revoked} revoked answers");
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The agreement property over random worlds (certified and not):
        /// certified bases judge exactly like the cumulative full
        /// re-audit; uncertified bases always answer Unknown.
        #[test]
        fn verdicts_agree_with_full_reaudit(
            seed in 0u64..200,
            rng_seed in any::<u32>(),
            certified_base in any::<bool>(),
            len in 1usize..5,
        ) {
            let world = if certified_base {
                GeneratorConfig::certifiably_safe().build(seed)
            } else {
                GeneratorConfig::tiny().build(seed)
            };
            let auditor = DeltaAuditor::new(&world);
            let links = spread_links(&world, 12);
            let mut rng = Rng::new(u64::from(rng_seed) | 1);
            let deltas: Vec<Delta> = (0..len)
                .map(|_| random_delta(&mut rng, &world, &links))
                .collect();
            if auditor.base_certified() {
                assert_agrees(&auditor, &world, &deltas, "proptest");
            } else {
                prop_assert_eq!(auditor.audit_deltas(&deltas), CertificateDelta::Unknown);
            }
        }
    }
}
