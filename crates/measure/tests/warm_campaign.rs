//! Warm campaign ≡ cold campaign.
//!
//! [`Peering::campaign`] converges a campaign's round 0 once per worker and
//! runs every target's poisoned rounds in a [`PrefixSim::scoped`] call
//! that rolls back to it. The reference here is the loop it replaced: a
//! fresh sim per target that plays every round itself, round 0 included.
//! Both must produce equal [`AlternateDiscovery`]s — routes, announcement
//! counts and degraded rounds — for every observed target, under the quiet
//! plane and under chaos planes whose timed schedules flap mux links, lose
//! whole rounds (round 0 among them) and gap the channels.
//!
//! The scoped call is checked on its own too: a closure that edits the sim
//! and then panics leaves its best table, adj-RIB-in and observations
//! exactly as they were.

use ir_bgp::{PrefixSim, Route};
use ir_fault::{FaultConfig, FaultEvent, FaultPlane};
use ir_measure::peering::{
    observe_routes, observe_routes_with_faults, AlternateDiscovery, DegradedRound, DiscoveredRoute,
    Observation, ObservationSetup, Peering, ROUND,
};
use ir_topology::graph::AsRole;
use ir_topology::{GeneratorConfig, World};
use ir_types::{Asn, Prefix, Timestamp};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Collector vantages at the top of the hierarchy and monitor probes
/// spread over the stubs.
fn setup(w: &World, vantages: usize, probes: usize) -> ObservationSetup {
    let mut feed_vantages: Vec<Asn> = w
        .graph
        .nodes()
        .iter()
        .filter(|n| n.role == AsRole::Transit && n.asn.value() < 1000)
        .map(|n| n.asn)
        .take(vantages)
        .collect();
    feed_vantages.sort_unstable();
    let probe_ases: Vec<Asn> = w
        .graph
        .nodes()
        .iter()
        .filter(|n| n.asn.value() >= 20_000)
        .map(|n| n.asn)
        .step_by(3)
        .take(probes)
        .collect();
    ObservationSetup {
        feed_vantages,
        probe_ases,
    }
}

/// The cold reference: the campaign loop as it ran before round 0 was
/// shared — one fresh sim per target, every round played on it.
fn cold_discovery(
    p: &Peering<'_>,
    world: &World,
    prefix: Prefix,
    target: Asn,
    setup: &ObservationSetup,
    max_rounds: usize,
    plane: &FaultPlane,
) -> AlternateDiscovery {
    let mut sim = PrefixSim::new(world, prefix);
    let mut poison: Vec<Asn> = Vec::new();
    let mut routes = Vec::new();
    let mut announcements = 0usize;
    let mut degraded = Vec::new();
    let mut schedule = plane.schedule().iter().peekable();
    for round in 0..max_rounds {
        let at = Timestamp(round as u64 * ROUND);
        let mut timed_faults = 0usize;
        while let Some(fault) = schedule.peek() {
            if fault.at > at {
                break;
            }
            sim.apply_fault(fault);
            schedule.next();
            timed_faults += 1;
        }
        let live: Vec<Asn> = p
            .live_muxes(plane, round as u64)
            .into_iter()
            .filter(|&m| !sim.is_link_down(Asn::TESTBED, m))
            .collect();
        if timed_faults > 0 || live.len() < p.muxes().len() {
            degraded.push(DegradedRound {
                round,
                live_muxes: live.len(),
                total_muxes: p.muxes().len(),
                timed_faults,
            });
        }
        if live.is_empty() {
            continue;
        }
        sim.announce(p.via(prefix, &live, &poison), at);
        announcements += 1;
        let obs = observe_routes_with_faults(&sim, setup, plane, round as u64);
        let Some(o) = obs.get(&target) else { break };
        let Some(next) = o.next_hop() else { break };
        routes.push(DiscoveredRoute {
            round,
            next_hop: next,
            suffix: o.suffix.to_vec(),
        });
        if poison.contains(&next) || next == Asn::TESTBED {
            break;
        }
        poison.push(next);
    }
    AlternateDiscovery {
        target,
        routes,
        announcements,
        degraded,
    }
}

/// Every AS the channels see after the unpoisoned anycast (muxes
/// included, whose campaigns end at round 0), plus two they never see.
fn targets(w: &World, p: &Peering<'_>, setup: &ObservationSetup) -> Vec<Asn> {
    let prefix = p.prefixes()[0];
    let mut sim = p.sim(prefix);
    sim.announce(p.anycast(prefix, &[]), Timestamp::ZERO);
    let observed = observe_routes(&sim, setup);
    let mut targets: Vec<Asn> = observed
        .keys()
        .copied()
        .filter(|a| *a != Asn::TESTBED)
        .collect();
    targets.extend(
        w.graph
            .nodes()
            .iter()
            .map(|n| n.asn)
            .filter(|a| !observed.contains_key(a))
            .take(2),
    );
    targets
}

/// Down every mux link half a round before `round` and back up half a
/// round after it: round `round` has no live mux and is lost.
fn lose_round(plane: &mut FaultPlane, muxes: &[Asn], round: u64) {
    let down = (round * ROUND).saturating_sub(ROUND / 2);
    for &m in muxes {
        let (a, b) = (Asn::TESTBED, m);
        plane.schedule_event(Timestamp(down), FaultEvent::LinkDown { a, b });
        plane.schedule_event(
            Timestamp(round * ROUND + ROUND / 2),
            FaultEvent::LinkUp { a, b },
        );
    }
}

/// The planes every tiny world is checked under: quiet; mux and transit
/// links flapping and resetting mid-campaign with sampled mux outages
/// and channel gaps; and the same rates with round 0 and round 3 lost to
/// whole-testbed outages.
fn planes(w: &World, p: &Peering<'_>, seed: u64) -> Vec<(&'static str, FaultPlane)> {
    let rates = FaultConfig {
        link_flap: 0.3,
        session_reset: 0.3,
        mux_outage: 0.15,
        probe_dropout: 0.1,
        feed_gap: 0.1,
        ..FaultConfig::quiet()
    };
    let mut links: Vec<(Asn, Asn)> = p.muxes().iter().map(|&m| (Asn::TESTBED, m)).collect();
    for a in 0..w.graph.len() {
        for l in w.graph.links(a).iter().filter(|l| l.peer > a).step_by(7) {
            links.push((w.graph.asn(a), w.graph.asn(l.peer)));
        }
    }
    let mut flaps = FaultPlane::new(rates, seed);
    flaps.synthesize_link_schedule(&links, Timestamp(8 * ROUND));
    let mut outages = FaultPlane::new(rates, seed ^ 0xA5);
    lose_round(&mut outages, p.muxes(), 0);
    lose_round(&mut outages, p.muxes(), 3);
    vec![
        ("quiet", FaultPlane::quiet()),
        ("flaps", flaps),
        ("outages", outages),
    ]
}

#[test]
fn warm_campaign_equals_cold_on_tiny_worlds() {
    let mut flapped = 0;
    let mut lost_round_zero = 0;
    let mut lost_later = 0;
    for seed in 1..=4u64 {
        let w = GeneratorConfig::tiny().build(seed);
        let p = Peering::new(&w).expect("tiny worlds carry the testbed");
        let s = setup(&w, 6, 20);
        let prefix = p.prefixes()[0];
        let targets = targets(&w, &p, &s);
        assert!(targets.len() > 10, "seed {seed}: {} targets", targets.len());
        for (name, plane) in planes(&w, &p, seed) {
            // Zero and one round are the edges of the warm split: nothing
            // played, and round 0 alone.
            let rounds: &[usize] = if name == "quiet" { &[0, 1, 8] } else { &[8] };
            for &max_rounds in rounds {
                let warm = p.campaign(prefix, &targets, &s, max_rounds, &plane);
                assert_eq!(warm.len(), targets.len());
                for (&t, got) in targets.iter().zip(&warm) {
                    let want = cold_discovery(&p, &w, prefix, t, &s, max_rounds, &plane);
                    assert_eq!(
                        *got, want,
                        "seed {seed}, plane {name}, {max_rounds} rounds, target {t}"
                    );
                    let single =
                        p.discover_alternates_with_faults(prefix, t, &s, max_rounds, &plane);
                    assert_eq!(single, want, "seed {seed}, plane {name}: one-target call");
                }
                let lost = |r: usize| {
                    warm.iter()
                        .flat_map(|d| &d.degraded)
                        .filter(|d| d.round == r && d.live_muxes == 0)
                        .count()
                };
                match name {
                    "flaps" => {
                        flapped += warm
                            .iter()
                            .flat_map(|d| &d.degraded)
                            .filter(|d| d.timed_faults > 0 && d.live_muxes > 0)
                            .count();
                    }
                    "outages" => {
                        lost_round_zero += lost(0);
                        lost_later += lost(3);
                    }
                    _ => {}
                }
            }
        }
    }
    assert!(flapped > 0, "some round replayed a flap with muxes up");
    assert!(lost_round_zero > 0, "round 0 was lost somewhere");
    assert!(lost_later > 0, "a mid-campaign round was lost somewhere");
}

/// The paper world's campaign at the size the report runs it: 120
/// targets, 8 rounds, quiet plane. Release only (`--ignored`).
#[test]
#[ignore]
fn warm_campaign_equals_cold_on_the_paper_world() {
    let w = GeneratorConfig::default().build(7);
    let p = Peering::new(&w).expect("the paper world carries the testbed");
    let s = setup(&w, 24, 96);
    let prefix = p.prefixes()[0];
    let mut targets = targets(&w, &p, &s);
    targets.truncate(120);
    assert_eq!(targets.len(), 120);
    let quiet = FaultPlane::quiet();
    let warm = p.campaign(prefix, &targets, &s, 8, &quiet);
    for (&t, got) in targets.iter().zip(&warm) {
        assert_eq!(
            *got,
            cold_discovery(&p, &w, prefix, t, &s, 8, &quiet),
            "target {t}"
        );
    }
    assert!(
        warm.iter().any(|d| d.routes.len() > 2),
        "someone revealed alternates"
    );
}

/// Everything a scope could leave behind: every AS's best route and
/// adj-RIB-in, the clock, the downed links, and what the channels see.
type SimState = (
    Vec<(Option<Route>, Vec<Route>)>,
    Timestamp,
    Vec<(Asn, Asn)>,
    BTreeMap<Asn, Observation>,
);

fn sim_state(sim: &PrefixSim<'_>, setup: &ObservationSetup) -> SimState {
    let rows = (0..sim.world().graph.len())
        .map(|x| (sim.best(x), sim.candidates(x)))
        .collect();
    (
        rows,
        sim.clock(),
        sim.downed_links(),
        observe_routes(sim, setup),
    )
}

#[test]
fn scoped_call_rolls_back_a_panicking_closure() {
    let w = GeneratorConfig::tiny().build(3);
    let p = Peering::new(&w).unwrap();
    let s = setup(&w, 6, 20);
    let prefix = p.prefixes()[0];
    let mut sim = p.sim(prefix);
    sim.announce(p.anycast(prefix, &[]), Timestamp::ZERO);
    let before = sim_state(&sim, &s);
    let next_hops: Vec<Asn> = before
        .3
        .values()
        .filter_map(Observation::next_hop)
        .filter(|&a| a != Asn::TESTBED)
        .collect();
    assert!(!next_hops.is_empty());

    // Poison, fail a mux link, then panic: nothing may survive.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        sim.scoped(|sim| {
            sim.announce(p.anycast(prefix, &next_hops[..1]), Timestamp(ROUND));
            sim.fail_link(Asn::TESTBED, p.muxes()[0], Timestamp(2 * ROUND));
            assert_ne!(sim_state(sim, &s), before, "the scope edited the sim");
            panic!("closure gives up mid-campaign");
        })
    }));
    assert!(outcome.is_err(), "the panic reached the caller");
    assert!(
        sim_state(&sim, &s) == before,
        "a panicking scope left a trace"
    );

    // A scope that returns leaves no trace either, and the sim goes on
    // exactly like one that never ran a scope.
    let poison = &next_hops[..1];
    let seen = sim.scoped(|sim| {
        sim.announce(p.anycast(prefix, poison), Timestamp(ROUND));
        observe_routes(sim, &s)
    });
    assert!(seen != before.3, "the poison moved some observed route");
    assert!(
        sim_state(&sim, &s) == before,
        "a returning scope left a trace"
    );
    sim.announce(p.anycast(prefix, poison), Timestamp(ROUND));
    let mut fresh = PrefixSim::new(&w, prefix);
    fresh.announce(p.anycast(prefix, &[]), Timestamp::ZERO);
    fresh.announce(p.anycast(prefix, poison), Timestamp(ROUND));
    assert!(sim_state(&sim, &s) == sim_state(&fresh, &s));
}
