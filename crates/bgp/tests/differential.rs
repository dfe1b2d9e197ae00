//! Differential tests: the event-driven engine ([`PrefixSim`]) against the
//! full-sweep oracle ([`SweepSim`], `tests/support`), which shares only the
//! model with it.
//!
//! Every scenario drives both engines through the same event sequence and
//! asserts identical fixpoints route-for-route
//! — full [`ir_bgp::Route`] equality, so paths, sessions, preferences,
//! *and ages* must agree after every event. The deterministic sweep below
//! covers 25 seeded worlds × 8+ events each (200+ compared fixpoints:
//! plain announcements, iterative poisoning as the alternate-route
//! experiments perform it, `via` restrictions, origin moves, withdrawals,
//! and re-announcements); a proptest adds randomized poison sets and
//! origins on top. Hand-built sibling fixtures pin the transparent-sibling
//! rule: a route learned from a sibling keeps the tier it had there — also
//! when the sibling re-learns the same path in another tier, which one
//! fixture checks warm against cold.

#[allow(dead_code)]
mod support;

use ir_bgp::{Announcement, DefensePlan, Delta, ExtensionCheck, PolicyExtension, PrefixSim, Route};
use ir_topology::graph::{AsNode, AsRole};
use ir_topology::policy::PolicySpec;
use ir_topology::{GeneratorConfig, LinkKind, World};
use ir_types::{Asn, CityId, CountryId, Ipv4, OrgId, Prefix, Relationship, Timestamp};
use std::collections::BTreeSet;
use std::sync::Arc;
use support::SweepSim;

/// 90 minutes between events, like the paper's experiment cadence.
const ROUND: u64 = 90 * 60;

struct Pair<'w> {
    event: PrefixSim<'w>,
    sweep: SweepSim<'w>,
    compared: usize,
}

impl<'w> Pair<'w> {
    fn new(world: &'w World, prefix: Prefix) -> Pair<'w> {
        Pair {
            event: PrefixSim::new(world, prefix),
            sweep: SweepSim::new(world, prefix),
            compared: 0,
        }
    }

    fn announce(&mut self, ann: Announcement, at: Timestamp, label: &str) {
        let ce = self.event.announce(ann.clone(), at);
        let cs = self.sweep.announce(ann, at);
        assert!(cs.converged, "{label}: oracle did not converge");
        assert_eq!(ce.converged, cs.converged, "{label}: convergence differs");
        self.compare(label);
    }

    fn withdraw(&mut self, at: Timestamp, label: &str) {
        let ce = self.event.withdraw(at);
        let cs = self.sweep.withdraw(at);
        assert_eq!(ce.converged, cs.converged, "{label}: convergence differs");
        self.compare(label);
    }

    fn fail(&mut self, a: Asn, b: Asn, at: Timestamp, label: &str) {
        self.event.fail_link(a, b, at);
        self.sweep.fail_link(a, b, at);
        self.compare(label);
    }

    fn restore(&mut self, a: Asn, b: Asn, at: Timestamp, label: &str) {
        self.event.restore_link(a, b, at);
        self.sweep.restore_link(a, b, at);
        self.compare(label);
    }

    fn compare(&mut self, label: &str) {
        self.compared += 1;
        let w = self.event.world();
        for x in 0..w.graph.len() {
            assert_eq!(
                self.event.best(x),
                self.sweep.best(x),
                "{label}: fixpoint differs at {}",
                w.graph.asn(x)
            );
        }
    }
}

/// Every link in the world as a canonical ASN pair.
fn all_links(world: &World) -> Vec<(Asn, Asn)> {
    let mut links = Vec::new();
    for i in 0..world.graph.len() {
        for l in world.graph.links(i) {
            if i < l.peer {
                links.push((world.graph.asn(i), world.graph.asn(l.peer)));
            }
        }
    }
    links
}

fn stub_origin(world: &World, pick: usize) -> (Asn, Prefix) {
    let stubs: Vec<_> = world
        .graph
        .nodes()
        .iter()
        .filter(|n| n.asn.value() >= 20_000 && !n.prefixes.is_empty())
        .collect();
    let node = stubs[pick % stubs.len()];
    (node.asn, node.prefixes[0])
}

/// The poisoning loop of the alternate-route discovery experiment (§3.2):
/// repeatedly poison the current first hop of `observer`'s route and
/// re-announce, comparing fixpoints after every step.
fn poisoning_loop(pair: &mut Pair<'_>, origin: Asn, prefix: Prefix, seed: u64) {
    let w = pair.event.world();
    let observer = (0..w.graph.len())
        .filter(|&x| {
            pair.event
                .best(x)
                .map(|r| r.path.sequence_asns().len() >= 2)
                .unwrap_or(false)
        })
        .max_by_key(|&x| pair.event.best(x).unwrap().path.len())
        .expect("some multi-hop path exists");
    let mut poison: Vec<Asn> = Vec::new();
    for step in 1..=3u64 {
        let Some(first_hop) = pair.event.best(observer).map(|r| r.path.sequence_asns()[0]) else {
            break; // observer ran out of routes — discovery is done
        };
        if poison.contains(&first_hop) || first_hop == origin {
            break;
        }
        poison.push(first_hop);
        let mut ann = Announcement::plain(origin, prefix);
        ann.poison = poison.clone();
        pair.announce(
            ann,
            Timestamp(step * ROUND),
            &format!("seed {seed}: poison step {step}"),
        );
    }
}

#[test]
fn sweep_engine_converges_and_clears_on_withdraw() {
    let w = GeneratorConfig::tiny().build(3);
    let node = w
        .graph
        .nodes()
        .iter()
        .find(|n| n.asn.value() >= 20_000)
        .unwrap();
    let (origin, prefix) = (node.asn, node.prefixes[0]);
    let mut sim = SweepSim::new(&w, prefix);
    let conv = sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
    assert!(conv.converged);
    assert!(conv.imports > 0);
    let reached = (0..w.graph.len())
        .filter(|&x| sim.best(x).is_some())
        .count();
    assert!(reached as f64 >= 0.95 * w.graph.len() as f64);
    let conv = sim.withdraw(Timestamp(60));
    assert!(conv.converged);
    assert!((0..w.graph.len()).all(|x| sim.best(x).is_none()));
    assert_eq!(sim.stats().events, 2);
}

#[test]
fn event_engine_matches_sweep_oracle_across_seeded_scenarios() {
    let mut total = 0;
    for seed in 0..25u64 {
        let w = GeneratorConfig::tiny().build(seed);
        let (origin, prefix) = stub_origin(&w, seed as usize);
        let mut pair = Pair::new(&w, prefix);

        // Plain announcement.
        pair.announce(
            Announcement::plain(origin, prefix),
            Timestamp::ZERO,
            &format!("seed {seed}: plain"),
        );

        // Iterative poisoning, as discover_alternates performs it.
        poisoning_loop(&mut pair, origin, prefix, seed);

        // Origin move: the prefix is suddenly announced by the testbed
        // (exercises worklist seeding of both old and new origin), then
        // moves back home.
        if w.graph.index_of(Asn::TESTBED).is_some() && origin != Asn::TESTBED {
            let ann = Announcement::plain(Asn::TESTBED, prefix);
            pair.announce(
                ann,
                Timestamp(10 * ROUND),
                &format!("seed {seed}: origin moves to testbed"),
            );
            pair.announce(
                Announcement::plain(origin, prefix),
                Timestamp(11 * ROUND),
                &format!("seed {seed}: origin moves back"),
            );
        }

        // Withdraw, then re-announce (age bookkeeping across a gap).
        pair.withdraw(Timestamp(20 * ROUND), &format!("seed {seed}: withdraw"));
        pair.announce(
            Announcement::plain(origin, prefix),
            Timestamp(21 * ROUND),
            &format!("seed {seed}: re-announce after withdraw"),
        );

        total += pair.compared;
    }
    assert!(
        total >= 100,
        "differential coverage shrank: only {total} compared fixpoints"
    );
}

/// Serial withdraw/re-announce storms: the withdraw hot path the bitset
/// worklist exists for. Path hunting re-selects most of the graph wave
/// after wave, and every intermediate fixpoint (and every age) must match
/// the sweep oracle — including re-announcements that land while the
/// previous withdrawal's route-for-route teardown is already complete.
#[test]
fn withdraw_reannounce_storms_match_sweep_oracle() {
    let mut total = 0;
    for seed in 0..15u64 {
        let w = GeneratorConfig::tiny().build(seed);
        let (origin, prefix) = stub_origin(&w, seed as usize);
        let mut pair = Pair::new(&w, prefix);
        let mut t = 0u64;
        for cycle in 0..4u64 {
            // Vary the announcement shape across cycles so re-convergence
            // never replays the previous fixpoint verbatim.
            let mut ann = Announcement::plain(origin, prefix);
            if cycle % 2 == 1 {
                if let Some(r) = (0..w.graph.len())
                    .filter_map(|x| pair.event.best(x))
                    .find(|r| r.path.sequence_asns().len() >= 2)
                {
                    ann.poison = vec![r.path.sequence_asns()[0]];
                }
            }
            pair.announce(
                ann,
                Timestamp(t),
                &format!("seed {seed} cycle {cycle}: announce"),
            );
            t += ROUND;
            pair.withdraw(
                Timestamp(t),
                &format!("seed {seed} cycle {cycle}: withdraw"),
            );
            t += ROUND;
        }
        // Back-to-back announce/withdraw with no round gap between them:
        // ages of transient routes must still normalize identically.
        pair.announce(
            Announcement::plain(origin, prefix),
            Timestamp(t),
            &format!("seed {seed}: storm announce"),
        );
        pair.withdraw(Timestamp(t + 1), &format!("seed {seed}: storm withdraw"));
        pair.announce(
            Announcement::plain(origin, prefix),
            Timestamp(t + 2),
            &format!("seed {seed}: storm re-announce"),
        );
        total += pair.compared;
    }
    assert!(total >= 100, "storm coverage shrank: {total} fixpoints");
}

/// Multi-homed stubs losing their primary: fail the link the stub's
/// traffic actually enters through, forcing the whole customer cone to
/// hunt for the backup path; then withdraw during the outage and restore.
#[test]
fn multihomed_stub_losing_primary_matches_sweep_oracle() {
    let mut exercised = 0;
    for seed in 0..15u64 {
        let w = GeneratorConfig::tiny().build(seed);
        // A stub with at least two providers.
        let Some(stub) = (0..w.graph.len()).find(|&i| {
            let n = w.graph.node(i);
            n.asn.value() >= 20_000 && !n.prefixes.is_empty() && w.graph.providers(i).count() >= 2
        }) else {
            continue;
        };
        let origin = w.graph.asn(stub);
        let prefix = w.graph.node(stub).prefixes[0];
        let providers: Vec<Asn> = w.graph.providers(stub).map(|p| w.graph.asn(p)).collect();
        let mut pair = Pair::new(&w, prefix);
        pair.announce(
            Announcement::plain(origin, prefix),
            Timestamp::ZERO,
            &format!("seed {seed}: stub announce"),
        );
        // The primary is the provider the rest of the graph reaches the
        // stub through most often.
        let primary = *providers
            .iter()
            .max_by_key(|&&p| {
                (0..w.graph.len())
                    .filter_map(|x| pair.event.best(x))
                    .filter(|r| {
                        r.learned_from == Some(p) || r.path.sequence_asns().first() == Some(&p)
                    })
                    .count()
            })
            .unwrap();
        pair.fail(
            origin,
            primary,
            Timestamp(ROUND),
            &format!("seed {seed}: primary {primary} lost"),
        );
        // Withdraw and re-announce while degraded: the backup-only
        // topology must agree too.
        pair.withdraw(
            Timestamp(2 * ROUND),
            &format!("seed {seed}: degraded withdraw"),
        );
        pair.announce(
            Announcement::plain(origin, prefix),
            Timestamp(3 * ROUND),
            &format!("seed {seed}: degraded re-announce"),
        );
        pair.restore(
            origin,
            primary,
            Timestamp(4 * ROUND),
            &format!("seed {seed}: primary restored"),
        );
        exercised += 1;
    }
    assert!(exercised >= 5, "only {exercised} multihomed-stub worlds");
}

/// Deep customer chains: announce from the origin whose converged routes
/// are deepest, then tear the route down link by link from the origin
/// outward — the worst case for path hunting (every teardown step forces
/// the far half of the graph through its remaining alternatives).
#[test]
fn deep_chain_teardown_matches_sweep_oracle() {
    for seed in 0..10u64 {
        let w = GeneratorConfig::tiny().build(seed);
        // Deepest origin: the stub some AS reaches through the longest path.
        let mut best_pick: Option<(usize, Asn, Prefix)> = None;
        for pick in 0..6 {
            let (origin, prefix) = stub_origin(&w, pick + seed as usize);
            let mut sim = PrefixSim::new(&w, prefix);
            sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
            let depth = (0..w.graph.len())
                .filter_map(|x| sim.best(x))
                .map(|r| r.path.sequence_asns().len())
                .max()
                .unwrap_or(0);
            if best_pick.as_ref().is_none_or(|&(d, _, _)| depth > d) {
                best_pick = Some((depth, origin, prefix));
            }
        }
        let (depth, origin, prefix) = best_pick.unwrap();
        assert!(depth >= 3, "seed {seed}: no deep chain found");
        let mut pair = Pair::new(&w, prefix);
        pair.announce(
            Announcement::plain(origin, prefix),
            Timestamp::ZERO,
            &format!("seed {seed}: deep announce"),
        );
        // The deepest path, origin-first; fail each adjacent pair in turn.
        let deep_path: Vec<Asn> = (0..w.graph.len())
            .filter_map(|x| pair.event.best(x))
            .max_by_key(|r| r.path.sequence_asns().len())
            .map(|r| {
                let mut p = r.path.sequence_asns();
                p.reverse(); // origin first
                p
            })
            .unwrap();
        let mut t = ROUND;
        for hop in deep_path.windows(2).take(3) {
            pair.fail(
                hop[0],
                hop[1],
                Timestamp(t),
                &format!("seed {seed}: chain link {}-{} down", hop[0], hop[1]),
            );
            t += ROUND;
        }
        // Withdraw through the shredded topology, then restore everything
        // and re-announce: full recovery must match too.
        pair.withdraw(Timestamp(t), &format!("seed {seed}: shredded withdraw"));
        t += ROUND;
        for hop in deep_path.windows(2).take(3) {
            pair.restore(
                hop[0],
                hop[1],
                Timestamp(t),
                &format!("seed {seed}: chain link {}-{} up", hop[0], hop[1]),
            );
            t += ROUND;
        }
        pair.announce(
            Announcement::plain(origin, prefix),
            Timestamp(t),
            &format!("seed {seed}: healed re-announce"),
        );
    }
}

#[test]
fn event_engine_matches_sweep_oracle_under_via_restrictions() {
    for seed in 0..10u64 {
        let w = GeneratorConfig::tiny().build(seed);
        let Some(testbed) = w.graph.index_of(Asn::TESTBED) else {
            continue;
        };
        let provs: Vec<Asn> = w.graph.providers(testbed).map(|p| w.graph.asn(p)).collect();
        if provs.len() < 2 {
            continue;
        }
        let prefix = w.graph.node(testbed).prefixes[0];
        let mut pair = Pair::new(&w, prefix);
        // Announce via each provider singleton, then via all but the first,
        // then unrestricted — the mux schedule of the magnet experiment.
        for (i, &p) in provs.iter().enumerate() {
            let mut ann = Announcement::plain(Asn::TESTBED, prefix);
            ann.via = Some([p].into_iter().collect());
            pair.announce(
                ann,
                Timestamp(i as u64 * ROUND),
                &format!("seed {seed}: via {p}"),
            );
        }
        let rest: BTreeSet<Asn> = provs[1..].iter().copied().collect();
        let mut ann = Announcement::plain(Asn::TESTBED, prefix);
        ann.via = Some(rest);
        pair.announce(
            ann,
            Timestamp(10 * ROUND),
            &format!("seed {seed}: via all-but-first"),
        );
        pair.announce(
            Announcement::plain(Asn::TESTBED, prefix),
            Timestamp(11 * ROUND),
            &format!("seed {seed}: unrestricted"),
        );
        assert!(pair.compared >= provs.len() + 2);
    }
}

// ---------------------------------------------------------------------------
// Sibling transparency: hand-built organizations, route for route against
// the oracle, with the tier each route carries read off its local-pref.
// ---------------------------------------------------------------------------

/// A one-city world: `(asn, org)` nodes, in node-index order, and links
/// `(a, b, what b is to a)`; AS 1 originates the one prefix.
fn org_world(nodes: &[(u32, u32)], links: &[(u32, u32, Relationship)]) -> (World, Prefix) {
    let mut world = World::default();
    let city = CityId(0);
    let prefix = Prefix::new(Ipv4(1 << 24), 16);
    for &(asn, org) in nodes {
        world.graph.add_node(AsNode {
            asn: Asn(asn),
            org: OrgId(org),
            home_country: CountryId(0),
            presence: vec![city],
            role: AsRole::Transit,
            prefixes: if asn == 1 { vec![prefix] } else { Vec::new() },
        });
    }
    world.policies = vec![PolicySpec::default(); nodes.len()];
    for &(a, b, rel) in links {
        let (a, b) = (world.graph.index_of(Asn(a)), world.graph.index_of(Asn(b)));
        let (a, b) = (a.expect("fixture AS"), b.expect("fixture AS"));
        world
            .graph
            .add_link(a, b, rel, vec![city], LinkKind::Normal);
    }
    (world, prefix)
}

/// Announces AS 1's prefix on both engines (they must agree route for
/// route) and returns the event engine's route at each of `asns`.
fn converge_org(world: &World, prefix: Prefix, asns: &[u32]) -> Vec<Option<Route>> {
    let mut pair = Pair::new(world, prefix);
    pair.announce(Announcement::plain(Asn(1), prefix), Timestamp::ZERO, "org");
    let route = |asn: u32| pair.event.best(world.graph.index_of(Asn(asn)).unwrap());
    let routes = asns.iter().map(|&a| route(a)).collect();
    pair.withdraw(Timestamp(ROUND), "org withdraw");
    routes
}

/// `(path, relationship learned over, local-pref)` of a route.
fn summary(r: &Option<Route>) -> Option<(String, Option<Relationship>, i32)> {
    r.as_ref()
        .map(|r| (r.path.to_string(), r.rel, r.local_pref))
}

#[test]
fn siblings_holding_only_provider_routes_converge() {
    use Relationship::{Provider, Sibling};
    // AS1 buys transit from AS2 and AS3; sibling ASes 10 and 11 (one org)
    // each buy from one of them. Each sibling's own provider route and the
    // one its sibling offers are both provider tier (100), so path length
    // decides and each keeps its own: no DISAGREE between them.
    let (world, prefix) = org_world(
        &[(1, 1), (2, 2), (3, 3), (10, 9), (11, 9)],
        &[
            (1, 2, Provider),
            (1, 3, Provider),
            (10, 2, Provider),
            (11, 3, Provider),
            (10, 11, Sibling),
        ],
    );
    let got: Vec<_> = converge_org(&world, prefix, &[10, 11])
        .iter()
        .map(summary)
        .collect();
    assert_eq!(
        got,
        [
            Some(("2 1".into(), Some(Provider), 100)),
            Some(("3 1".into(), Some(Provider), 100)),
        ]
    );
}

#[test]
fn a_sibling_chain_carries_the_provider_tier_to_customers_only() {
    use Relationship::{Customer, Peer, Provider, Sibling};
    // AS10 buys transit from the origin; AS10–AS11–AS12 is one org, chained
    // by sibling links. AS12 has a customer (20), a peer (21) and a
    // provider (22), none of which reaches AS1 any other way.
    let (world, prefix) = org_world(
        &[
            (1, 1),
            (10, 9),
            (11, 9),
            (12, 9),
            (20, 20),
            (21, 21),
            (22, 22),
        ],
        &[
            (10, 1, Provider),
            (10, 11, Sibling),
            (11, 12, Sibling),
            (12, 20, Customer),
            (12, 21, Peer),
            (12, 22, Provider),
        ],
    );
    let got: Vec<_> = converge_org(&world, prefix, &[11, 12, 20, 21, 22])
        .iter()
        .map(summary)
        .collect();
    assert_eq!(
        got,
        [
            // Provider tier (100), carried over one sibling hop and two.
            Some(("10 1".into(), Some(Sibling), 100)),
            Some(("11 10 1".into(), Some(Sibling), 100)),
            // Exported to the customer only: peer and provider get nothing.
            Some(("12 11 10 1".into(), Some(Provider), 100)),
            None,
            None,
        ]
    );
}

#[test]
fn an_origin_inside_an_organization_exports_at_customer_tier() {
    use Relationship::{Customer, Peer, Provider, Sibling};
    // The origin AS1 and AS10 are one org. AS10 has a peer (21), a provider
    // (22) and a customer (20): its sibling-learned route is customer tier
    // (300) and goes to all three.
    let (world, prefix) = org_world(
        &[(1, 9), (10, 9), (20, 20), (21, 21), (22, 22)],
        &[
            (1, 10, Sibling),
            (10, 20, Customer),
            (10, 21, Peer),
            (10, 22, Provider),
        ],
    );
    let got: Vec<_> = converge_org(&world, prefix, &[10, 20, 21, 22])
        .iter()
        .map(summary)
        .collect();
    assert_eq!(
        got,
        [
            Some(("1".into(), Some(Sibling), 300)),
            Some(("10 1".into(), Some(Provider), 100)),
            Some(("10 1".into(), Some(Peer), 200)),
            Some(("10 1".into(), Some(Customer), 300)),
        ]
    );
}

/// Peerlock at the adopting AS: over any session but a provider session,
/// refuse a path through the protected AS unless that AS is the peer.
struct Peerlock {
    protected: Asn,
}

impl PolicyExtension for Peerlock {
    fn name(&self) -> &'static str {
        "peerlock"
    }

    fn accept_import(&self, check: &ExtensionCheck<'_>) -> bool {
        check.rel == Relationship::Provider
            || check.peer_asn() == self.protected
            || !check.arena.contains(check.path, self.protected)
    }
}

#[test]
fn a_sibling_follows_a_tier_only_change_of_its_sibling() {
    use Relationship::{Customer, Provider, Sibling};
    // AS1 buys transit from AS2, AS2 from AS3. AS3 and AS10 meet at two
    // cities: at city 0 AS3 is AS10's customer, at city 1 its provider.
    // AS10 and AS11 are one org; AS11 buys transit from AS22.
    let (mut world, prefix) = org_world(
        &[(1, 1), (2, 2), (3, 3), (10, 9), (11, 9), (22, 22)],
        &[
            (1, 2, Provider),
            (2, 3, Provider),
            (10, 3, Customer),
            (10, 11, Sibling),
            (11, 22, Provider),
        ],
    );
    let idx = |w: &World, asn: u32| w.graph.index_of(Asn(asn)).unwrap();
    let (t, n) = (idx(&world, 10), idx(&world, 3));
    world.graph.set_hybrid(t, n, CityId(1), Provider);
    let world = world;
    let mut plan = DefensePlan::for_world(&world);
    let id = plan.register(Arc::new(Peerlock { protected: Asn(2) }));
    plan.adopt(t, id.expect("one extension"));
    let plan = Arc::new(plan);
    // Filters no AS-set here; what it does is re-derive AS10's adj-RIB-in.
    let rederive = Delta::PoisonFilter {
        of: Asn(10),
        enabled: true,
    };
    let routes = |sim: &PrefixSim<'_>| -> Vec<_> {
        [10, 11, 22]
            .iter()
            .map(|&a| summary(&sim.best(idx(&world, a))))
            .collect()
    };

    // Warm: converge undefended, install peerlock at AS10, re-derive.
    let mut warm = PrefixSim::new(&world, prefix);
    warm.announce(Announcement::plain(Asn(1), prefix), Timestamp::ZERO);
    assert_eq!(
        routes(&warm),
        [
            Some(("3 2 1".into(), Some(Customer), 300)),
            Some(("10 3 2 1".into(), Some(Sibling), 300)),
            Some(("11 10 3 2 1".into(), Some(Customer), 300)),
        ]
    );
    warm.set_defenses(Some(Arc::clone(&plan)));
    assert!(warm.apply_delta(&rederive, Timestamp(ROUND)).converged);

    // Cold: peerlock from the start, the same edit.
    let mut cold = PrefixSim::new(&world, prefix);
    cold.set_defenses(Some(plan));
    cold.announce(Announcement::plain(Asn(1), prefix), Timestamp::ZERO);
    assert!(cold.apply_delta(&rederive, Timestamp(ROUND)).converged);

    // Peerlock refuses "3 2 1" over the customer session only, so AS10
    // keeps the same path at city 1, at provider tier. Its export to AS11
    // is the same path, "10 3 2 1", in another tier: AS11 must follow it
    // down to provider tier and stop exporting it to its provider.
    let want = [
        Some(("3 2 1".into(), Some(Provider), 100)),
        Some(("10 3 2 1".into(), Some(Sibling), 100)),
        None,
    ];
    assert_eq!(routes(&cold), want, "cold");
    assert_eq!(routes(&warm), want, "warm");
    // Every route agrees but for its age: the warm sim installed AS10's
    // at the edit.
    let ageless = |r: Option<Route>| {
        r.map(|r| Route {
            age: Timestamp::ZERO,
            ..r
        })
    };
    for x in 0..world.graph.len() {
        assert_eq!(
            ageless(warm.best(x)),
            ageless(cold.best(x)),
            "warm and cold differ at {}",
            world.graph.asn(x)
        );
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// Random worlds, origins, and poison sets: both engines agree
        /// after every event of a random announce/poison/withdraw script.
        #[test]
        fn random_scripts_agree(
            seed in 0u64..500,
            origin_pick in any::<u16>(),
            poison_picks in proptest::collection::vec(any::<u16>(), 0..4),
            withdraw_mid in any::<bool>(),
        ) {
            let w = GeneratorConfig::tiny().build(seed);
            let n = w.graph.len();
            let origin_idx = origin_pick as usize % n;
            let origin = w.graph.asn(origin_idx);
            let prefix = w.graph.node(origin_idx).prefixes[0];
            let mut pair = Pair::new(&w, prefix);
            pair.announce(Announcement::plain(origin, prefix), Timestamp::ZERO, "prop: plain");

            let mut t = 0u64;
            if withdraw_mid {
                t += ROUND;
                pair.withdraw(Timestamp(t), "prop: withdraw");
            }
            // Random poison set, announced cumulatively.
            let mut poison: Vec<Asn> = Vec::new();
            for pick in poison_picks {
                let victim = w.graph.asn(pick as usize % n);
                if victim == origin || poison.contains(&victim) {
                    continue;
                }
                poison.push(victim);
                let mut ann = Announcement::plain(origin, prefix);
                ann.poison = poison.clone();
                t += ROUND;
                pair.announce(ann, Timestamp(t), "prop: poisoned");
            }
            pair.withdraw(Timestamp(t + ROUND), "prop: final withdraw");
        }

        /// Random interleavings of every mutating engine op — announce
        /// (plain or poisoned), withdraw, link fail/restore, poison-filter
        /// changes — leave both engines in identical states after every
        /// event.
        #[test]
        fn random_op_interleavings_agree(
            seed in 0u64..500,
            origin_pick in any::<u16>(),
            // Packed op stream (vendored proptest has no tuple strategy):
            // low byte picks the op, high bytes the operand.
            ops in proptest::collection::vec(any::<u32>(), 1..12),
        ) {
            let w = GeneratorConfig::tiny().build(seed);
            let n = w.graph.len();
            let origin_idx = origin_pick as usize % n;
            let origin = w.graph.asn(origin_idx);
            let prefix = w.graph.node(origin_idx).prefixes[0];
            let links = all_links(&w);
            let mut pair = Pair::new(&w, prefix);
            pair.announce(Announcement::plain(origin, prefix), Timestamp::ZERO, "ops: initial");
            let mut t = 0u64;
            for (i, &packed) in ops.iter().enumerate() {
                let (op, arg) = (packed % 6, (packed >> 8) as usize);
                t += ROUND;
                let at = Timestamp(t);
                let label = format!("ops: step {i} op {op}");
                match op {
                    0 => pair.announce(Announcement::plain(origin, prefix), at, &label),
                    1 => {
                        let victim = w.graph.asn(arg % n);
                        let mut ann = Announcement::plain(origin, prefix);
                        if victim != origin {
                            ann.poison = vec![victim];
                        }
                        pair.announce(ann, at, &label);
                    }
                    2 => pair.withdraw(at, &label),
                    3 => {
                        let (a, b) = links[arg % links.len()];
                        pair.fail(a, b, at, &label);
                    }
                    4 => {
                        let (a, b) = links[arg % links.len()];
                        pair.restore(a, b, at, &label);
                    }
                    _ => {
                        // Poison-filter change. The engine contract is
                        // "set before announcing": cached adj-RIB-in
                        // entries imported under the old filters stay
                        // valid, so withdraw first to clear them.
                        pair.withdraw(at, &format!("{label}: pre-filter withdraw"));
                        let filters: BTreeSet<Asn> =
                            [w.graph.asn(arg % n)].into_iter().collect();
                        pair.event.set_poison_filters(filters.iter().copied());
                        pair.sweep.set_poison_filters(filters.iter().copied());
                    }
                }
            }
            pair.withdraw(Timestamp(t + ROUND), "ops: final withdraw");
        }

        /// Cross-prefix batching is invisible: a universe computed with
        /// shape batching is byte-identical (routes, origins, unconverged,
        /// resilience) to one singleton universe per prefix — plain and
        /// under a synthesized fault schedule. Unconverged prefixes are the
        /// sorted union; resilience is the field sum, except links down at
        /// the end, which every prefix shares (the max).
        #[test]
        fn universe_batching_is_invariant(
            seed in 0u64..200,
            take in 1usize..40,
            fault_picks in proptest::collection::vec(any::<u32>(), 0..4),
        ) {
            use ir_bgp::{ActivationOrder, RoutingUniverse};
            let w = GeneratorConfig::tiny().build(seed);
            let all: Vec<Prefix> = w
                .graph
                .nodes()
                .iter()
                .flat_map(|n| n.prefixes.iter().copied())
                .collect();
            let ps: Vec<Prefix> = all.iter().copied().take(take).collect();
            let links = all_links(&w);
            let mut plane = ir_fault::FaultPlane::new(ir_fault::FaultConfig::quiet(), seed);
            for (i, &packed) in fault_picks.iter().enumerate() {
                let (kind, pick) = (packed % 3, (packed >> 8) as usize);
                let (a, b) = links[pick % links.len()];
                let at = Timestamp((i as u64 + 1) * ROUND);
                let event = match kind {
                    0 => ir_fault::FaultEvent::LinkDown { a, b },
                    1 => ir_fault::FaultEvent::LinkUp { a, b },
                    _ => ir_fault::FaultEvent::SessionReset { a, b },
                };
                plane.schedule_event(at, event);
            }
            let order = ActivationOrder::default();
            let batched = RoutingUniverse::compute_with_faults_ordered(&w, &ps, &plane, order);
            let mut unconverged = Vec::new();
            let mut resilience = ir_bgp::UniverseResilience::default();
            for &p in &ps {
                let single = RoutingUniverse::compute_with_faults_ordered(&w, &[p], &plane, order);
                prop_assert_eq!(batched.origin(p), single.origin(p));
                for x in 0..w.graph.len() {
                    prop_assert_eq!(batched.route(p, x), single.route(p, x), "{} at {}", p, x);
                }
                unconverged.extend_from_slice(single.unconverged());
                let r = single.resilience();
                resilience.fault_events += r.fault_events;
                resilience.recovery_rounds += r.recovery_rounds;
                resilience.sessions_torn += r.sessions_torn;
                resilience.links_down_at_end =
                    resilience.links_down_at_end.max(r.links_down_at_end);
            }
            unconverged.sort_unstable();
            prop_assert_eq!(batched.unconverged(), unconverged.as_slice());
            prop_assert_eq!(batched.resilience(), resilience);
        }
    }
}
