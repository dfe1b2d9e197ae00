//! Differential tests on **oscillating** worlds: the event engine's
//! fast-forward through a dispute wheel against the sweep oracle, which
//! burns the whole round cap.
//!
//! `differential.rs` asserts that the oracle converged, so nothing there
//! reaches the capped path. Here every world holds a dispute wheel, built
//! from `neighbor_pref` deltas rather than asked of the generator: BAD
//! GADGET alone and grafted onto a generated world, DISAGREE, and the
//! generated worlds that still oscillate. Where the wheel is live,
//! [`PrefixSim`] proves the wave-barrier state periodic and jumps to the
//! state the cap produces, [`SweepSim`] executes all `2n + 16` sweeps, and
//! the two must agree route-for-route — ages included — on
//! `converged == false` and on every table after the follow-up events.

#[allow(dead_code)]
mod support;

use ir_bgp::{
    Announcement, Convergence, DefensePlan, Delta, ExtensionCheck, PolicyExtension, PrefixSim,
    RoutingUniverse, SimContext, StepBudget, WhatIfEngine, WhatIfQuery,
};
use ir_fault::ServiceClock;
use ir_topology::graph::{AsNode, AsRole, NodeIdx};
use ir_topology::policy::PolicySpec;
use ir_topology::{GeneratorConfig, LinkKind, World};
use ir_types::{Asn, CityId, CountryId, Ipv4, OrgId, Prefix, Relationship, Timestamp};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use support::SweepSim;

/// 90 minutes between events, like the paper's experiment cadence.
const ROUND: u64 = 90 * 60;

/// Tiny-preset seeds (≈ 100 ASes, every quirk on) whose universe has at
/// least one unconverged prefix — 2 of seeds 0..300.
const WHEEL_SEEDS: [u64; 2] = [53, 202];

/// The AS the alternate-route discovery loop would poison next: the first
/// hop of the longest selected path (never the origin itself).
fn poison_victim(sim: &PrefixSim<'_>, origin: Asn) -> Option<Asn> {
    (0..sim.world().graph.len())
        .filter_map(|x| sim.best(x))
        .filter(|r| !r.path.sequence_asns().is_empty())
        .max_by_key(|r| r.path.len())
        .map(|r| r.path.sequence_asns()[0])
        .filter(|&a| a != origin)
}

struct Pair<'w> {
    event: PrefixSim<'w>,
    sweep: SweepSim<'w>,
    /// Events that ended unconverged on both engines.
    capped: usize,
}

impl<'w> Pair<'w> {
    fn new(world: &'w World, prefix: Prefix) -> Pair<'w> {
        Pair {
            event: PrefixSim::new(world, prefix),
            sweep: SweepSim::new(world, prefix),
            capped: 0,
        }
    }

    fn announce(&mut self, ann: Announcement, at: Timestamp, label: &str) -> Convergence {
        let ce = self.event.announce(ann.clone(), at);
        let cs = self.sweep.announce(ann, at);
        self.compare(ce, cs, label);
        ce
    }

    fn withdraw(&mut self, at: Timestamp, label: &str) {
        let ce = self.event.withdraw(at);
        let cs = self.sweep.withdraw(at);
        self.compare(ce, cs, label);
    }

    fn compare(&mut self, ce: Convergence, cs: Convergence, label: &str) {
        assert_eq!(ce.converged, cs.converged, "{label}: convergence differs");
        let w = self.event.world();
        for x in 0..w.graph.len() {
            assert_eq!(
                self.event.best(x),
                self.sweep.best(x),
                "{label}: tables differ at {}",
                w.graph.asn(x)
            );
        }
        match self.event.last_oscillation() {
            Some(osc) => {
                assert!(!ce.converged, "{label}: witness on a converged event");
                assert!(osc.period >= 2, "{label}: a period-1 cycle is a fixpoint");
                assert!(!osc.flapping.is_empty(), "{label}: nobody flaps");
                assert!(osc.flapping.windows(2).all(|p| p[0] < p[1]), "{label}");
                // The oracle ran `cap` sweeps; the event engine reports the
                // round it stopped at, one past the last wave.
                assert_eq!(
                    ce.rounds + osc.rounds_skipped,
                    cs.rounds + 1,
                    "{label}: executed + skipped rounds must add up to the cap"
                );
                self.capped += 1;
            }
            None => assert!(ce.converged, "{label}: capped without a witness"),
        }
    }

    /// The script every oscillating fixture runs: plain announce (must hit
    /// the wheel), poisoned re-announce, withdraw, re-announce.
    fn run_script(&mut self, origin: Asn, prefix: Prefix, label: &str) {
        let conv = self.announce(
            Announcement::plain(origin, prefix),
            Timestamp::ZERO,
            &format!("{label}: plain"),
        );
        assert!(!conv.converged, "{label}: fixture does not oscillate");
        let mut ann = Announcement::plain(origin, prefix);
        ann.poison = poison_victim(&self.event, origin).into_iter().collect();
        self.announce(ann, Timestamp(ROUND), &format!("{label}: poisoned"));
        self.withdraw(Timestamp(2 * ROUND), &format!("{label}: withdraw"));
        self.announce(
            Announcement::plain(origin, prefix),
            Timestamp(3 * ROUND),
            &format!("{label}: re-announce"),
        );
    }
}

/// BAD GADGET (Griffin–Shepherd–Wilfong): AS1 is a customer of AS2, AS3 and
/// AS4, which peer in a ring; each ring AS ranks the route through its
/// clockwise peer above its own customer route. Peer routes are not
/// exported to peers, so the only permitted paths are `(i, 1)` and
/// `(i, i+1, 1)` — the instance with no stable state.
fn bad_gadget() -> World {
    let mut world = World::default();
    let city = CityId(0);
    for i in 1u32..=4 {
        world.graph.add_node(AsNode {
            asn: Asn(i),
            org: OrgId(i),
            home_country: CountryId(0),
            presence: vec![city],
            role: AsRole::Transit,
            prefixes: vec![Prefix::new(Ipv4(i << 24), 16)],
        });
    }
    world.policies = vec![PolicySpec::default(); 4];
    for ring in 1..=3usize {
        world.graph.add_link(
            0,
            ring,
            Relationship::Provider,
            vec![city],
            LinkKind::Normal,
        );
        let clockwise = ring % 3 + 1;
        world.graph.add_link(
            ring,
            clockwise,
            Relationship::Peer,
            vec![city],
            LinkKind::Normal,
        );
        // Peer tier is 200, customer tier 300: +150 lifts the clockwise
        // peer's route over the direct customer route.
        world.policies[ring]
            .neighbor_pref
            .insert(world.graph.asn(clockwise), 150);
    }
    world
}

/// DISAGREE (Griffin–Shepherd–Wilfong) from `neighbor_pref` deltas: AS1 is
/// a customer of AS2 and AS3, which peer, and each ranks the route through
/// the other (peer tier 200 + 150) above its own customer route (300). It
/// has two stable states, one per AS that gets its way. `asns` lists the
/// three ASNs in node-index order, which decides the state reached.
fn disagree(asns: [u32; 3]) -> World {
    let mut world = World::default();
    let city = CityId(0);
    for asn in asns {
        world.graph.add_node(AsNode {
            asn: Asn(asn),
            org: OrgId(asn),
            home_country: CountryId(0),
            presence: vec![city],
            role: AsRole::Transit,
            prefixes: vec![Prefix::new(Ipv4(asn << 24), 16)],
        });
    }
    world.policies = vec![PolicySpec::default(); 3];
    let idx = |asn: u32| world.graph.index_of(Asn(asn)).expect("fixture AS");
    let (origin, a, b) = (idx(1), idx(2), idx(3));
    for rim in [a, b] {
        world.graph.add_link(
            origin,
            rim,
            Relationship::Provider,
            vec![city],
            LinkKind::Normal,
        );
    }
    world
        .graph
        .add_link(a, b, Relationship::Peer, vec![city], LinkKind::Normal);
    world.policies[a].neighbor_pref.insert(Asn(3), 150);
    world.policies[b].neighbor_pref.insert(Asn(2), 150);
    world
}

#[test]
fn disagree_lands_on_the_oracles_stable_state_in_every_index_order() {
    // The wave schedule is Gauss–Seidel: whichever rim AS the schedule
    // reaches second sees the other's direct route and diverts through it,
    // and that route cannot be exported back over the peering. So DISAGREE
    // never oscillates here; which of its two stable states the event
    // engine lands on is decided by index order — and must be the oracle's.
    let mut diverters = BTreeSet::new();
    for asns in [
        [1, 2, 3],
        [1, 3, 2],
        [2, 1, 3],
        [2, 3, 1],
        [3, 1, 2],
        [3, 2, 1],
    ] {
        let world = disagree(asns);
        let prefix = world
            .graph
            .node(world.graph.index_of(Asn(1)).unwrap())
            .prefixes[0];
        let mut pair = Pair::new(&world, prefix);
        let label = format!("DISAGREE {asns:?}");
        let conv = pair.announce(Announcement::plain(Asn(1), prefix), Timestamp::ZERO, &label);
        assert!(conv.converged, "{label}");
        let via = |rim: u32| {
            let r = pair.event.best(world.graph.index_of(Asn(rim)).unwrap());
            r.expect("rim has a route").path.sequence_asns().len() == 2
        };
        // Exactly one rim AS diverts through the other.
        assert!(via(2) != via(3), "{label}: not a stable state of DISAGREE");
        diverters.insert(if via(2) { 2 } else { 3 });
        pair.withdraw(Timestamp(ROUND), &label);
    }
    assert_eq!(diverters.len(), 2, "index order picks either stable state");
}

#[test]
fn bad_gadget_fast_forward_matches_the_cap_burning_oracle() {
    let world = bad_gadget();
    let origin = Asn(1);
    let prefix = world.graph.nodes()[0].prefixes[0];
    let mut pair = Pair::new(&world, prefix);
    pair.run_script(origin, prefix, "bad gadget");
    assert!(pair.capped >= 2, "plain and re-announce both hit the wheel");
    let osc = pair.event.last_oscillation().expect("ends on the wheel");
    assert_eq!(osc.flapping, vec![Asn(2), Asn(3), Asn(4)]);
    assert_eq!(osc.entered_by_round, 16);
}

#[test]
fn generator_wheels_fast_forward_matches_the_cap_burning_oracle() {
    let mut capped = 0;
    for seed in WHEEL_SEEDS {
        let world = GeneratorConfig::tiny().build(seed);
        assert!(world.graph.len() <= 200);
        let universe = RoutingUniverse::compute_all(&world);
        let unconverged = universe.unconverged();
        assert!(!unconverged.is_empty(), "seed {seed}: no dispute wheel");
        // First and last unconverged prefix: usually different origins.
        for prefix in [unconverged[0], unconverged[unconverged.len() - 1]] {
            let origin = universe.origin(prefix).expect("prefix has an owner");
            let mut pair = Pair::new(&world, prefix);
            pair.run_script(origin, prefix, &format!("seed {seed} {prefix}"));
            capped += pair.capped;
            // The universe's table is the oracle's capped state too.
            let mut oracle = SweepSim::new(&world, prefix);
            oracle.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
            for x in 0..world.graph.len() {
                assert_eq!(
                    universe.route(prefix, x),
                    oracle.best(x),
                    "seed {seed} {prefix}: universe table differs at node {x}"
                );
            }
        }
    }
    assert!(
        capped >= 2 * WHEEL_SEEDS.len(),
        "only {capped} capped events"
    );
}

// ---------------------------------------------------------------------------
// StepBudget interplay: budgets bound work *executed*, so an oscillating
// event under a budget answers `converged == false` promptly instead of
// tripping on cap burn — and still trips, exactly as before, when the
// budget runs out before the cycle is proven.
// ---------------------------------------------------------------------------

/// A generated world with a live wheel, and the wheel's prefix: tiny seed
/// 7, which converges on its own, with a BAD GADGET grafted on. A new
/// origin AS 64 500 is a customer of three new ASes 64 501..64 503 that
/// peer in a ring, each ranking its clockwise peer's route +150 over its
/// customer route. All three buy transit from the world's first tier-1,
/// so the whole world routes to the gadget's prefix and flaps with it.
fn wheel_fixture() -> (World, Asn, Prefix) {
    let mut world = GeneratorConfig::tiny().build(7);
    let g = &world.graph;
    let tier1 = (0..g.len())
        .find(|&x| {
            g.links(x)
                .iter()
                .all(|l| l.rel != Relationship::Provider && l.rel_by_city.is_empty())
        })
        .expect("a provider-free AS");
    let city = g.node(tier1).presence[0];
    let mut add = |asn: u32, prefixes: Vec<Prefix>| -> NodeIdx {
        world.policies.push(PolicySpec::default());
        world.graph.add_node(AsNode {
            asn: Asn(asn),
            org: OrgId(asn),
            home_country: CountryId(0),
            presence: vec![city],
            role: AsRole::Transit,
            prefixes,
        })
    };
    let origin = add(64_500, vec![Prefix::new(Ipv4(0xC6_33_64_00), 24)]);
    let ring = [64_501, 64_502, 64_503].map(|asn| add(asn, Vec::new()));
    for (i, &rim) in ring.iter().enumerate() {
        let clockwise = ring[(i + 1) % 3];
        let g = &mut world.graph;
        for (a, b, rel) in [
            (origin, rim, Relationship::Provider),
            (rim, clockwise, Relationship::Peer),
            (rim, tier1, Relationship::Provider),
        ] {
            g.add_link(a, b, rel, vec![city], LinkKind::Normal);
        }
        let clockwise = g.asn(clockwise);
        world.policies[rim].neighbor_pref.insert(clockwise, 150);
    }
    let prefix = world.graph.node(origin).prefixes[0];
    (world, Asn(64_500), prefix)
}

#[test]
fn grafted_bad_gadget_matches_the_cap_burning_oracle() {
    let (world, origin, prefix) = wheel_fixture();
    let mut pair = Pair::new(&world, prefix);
    pair.run_script(origin, prefix, "grafted bad gadget");
    assert!(pair.capped >= 2, "plain and re-announce both hit the wheel");
    let osc = pair.event.last_oscillation().expect("ends on the wheel");
    for rim in [64_501, 64_502, 64_503] {
        assert!(osc.flapping.contains(&Asn(rim)), "AS{rim} does not flap");
    }
}

#[test]
fn budget_above_executed_work_finishes_untripped_on_a_wheel() {
    let (world, origin, prefix) = wheel_fixture();
    let ann = Announcement::plain(origin, prefix);
    let mut free = PrefixSim::new(&world, prefix);
    let reference = free.announce(ann.clone(), Timestamp::ZERO);
    assert!(!reference.converged);
    let cap_burn = reference.rounds + free.last_oscillation().unwrap().rounds_skipped;
    assert!(
        cap_burn > 10 * reference.rounds,
        "the skip is most of the cap"
    );

    // Exactly the executed work is enough.
    let mut sim = PrefixSim::new(&world, prefix);
    sim.set_step_budget(StepBudget::activations(reference.activations as u64));
    let conv = sim.announce(ann, Timestamp::ZERO);
    assert_eq!(conv, reference);
    assert!(!sim.budget_tripped());
    assert_eq!(sim.stats().deadline_aborts, 0);
    assert_eq!(sim.last_oscillation(), free.last_oscillation());
    for x in 0..world.graph.len() {
        assert_eq!(sim.best(x), free.best(x));
    }
}

#[test]
fn budget_below_the_pre_period_trips_as_before() {
    let (world, origin, prefix) = wheel_fixture();
    let mut sim = PrefixSim::new(&world, prefix);
    sim.set_step_budget(StepBudget::activations(100));
    let conv = sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
    assert!(!conv.converged);
    assert_eq!(conv.activations, 101, "trips on the first activation over");
    assert!(conv.rounds < 16, "long before the probe arms");
    assert!(sim.budget_tripped());
    assert_eq!(sim.stats().deadline_aborts, 1);
    assert_eq!(sim.last_oscillation(), None, "a deadline is not a witness");
}

/// Accepts everything; on its `at`-th import check advances a simulated
/// clock past the budget's wall deadline — a deadline passing mid-event,
/// made deterministic.
struct CancelAt {
    calls: AtomicUsize,
    at: usize,
    clock: ServiceClock,
}

impl PolicyExtension for CancelAt {
    fn name(&self) -> &'static str {
        "cancel-at"
    }
    fn accept_import(&self, _: &ExtensionCheck<'_>) -> bool {
        if self.calls.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            self.clock.advance_ms(DEADLINE_MS);
        }
        true
    }
}

/// The wall deadline [`CancelAt`]'s clock is advanced to.
const DEADLINE_MS: u64 = 50;

#[test]
fn deadline_passed_mid_event_is_honoured_within_check_interval() {
    let (world, origin, prefix) = wheel_fixture();
    // One run under `budget` with a deadline that passes on import check
    // 700 (of ≈ 2 600): the event's counters and whether it passed.
    let run = |activations: Option<u64>| {
        let clock = ServiceClock::simulated();
        let mut plan = DefensePlan::for_world(&world);
        let id = plan
            .register(Arc::new(CancelAt {
                calls: AtomicUsize::new(0),
                at: 700,
                clock: clock.clone(),
            }))
            .unwrap();
        plan.adopt_all(id);
        let mut sim = PrefixSim::new(&world, prefix);
        sim.set_defenses(Some(Arc::new(plan)));
        let budget = match activations {
            Some(n) => StepBudget::activations(n),
            None => StepBudget::unlimited(),
        };
        sim.set_step_budget(budget.with_deadline(clock.clone(), DEADLINE_MS));
        let conv = sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        assert!(sim.budget_tripped() && !conv.converged);
        (conv, clock.now_ms() >= DEADLINE_MS)
    };
    let (expired, passed) = run(None);
    assert!(passed);
    // The clock is polled every CHECK_INTERVAL activations…
    assert_eq!(expired.activations % StepBudget::CHECK_INTERVAL, 0);
    // …and one interval earlier the deadline had not passed yet.
    let before = (expired.activations - StepBudget::CHECK_INTERVAL) as u64;
    let (earlier, passed) = run(Some(before));
    assert_eq!(earlier.activations as u64, before + 1);
    assert!(
        !passed,
        "the deadline passed more than one interval before the stop"
    );
}

#[test]
fn budgeted_query_on_an_uncertified_world_reports_the_wheel_not_a_deadline() {
    let (world, origin, prefix) = wheel_fixture();
    let engine = WhatIfEngine::new(&world, &[prefix]);
    assert!(!engine.base_converged());
    // Re-announcing with a poisoned path spins the wheel again.
    let mut ann = Announcement::plain(origin, prefix);
    ann.poison = vec![Asn(64_999)];
    let q = WhatIfQuery::single(prefix, Delta::Announce(ann));
    let unbudgeted = engine.query(&q).unwrap();
    assert!(!unbudgeted.stats.converged);
    assert!(
        unbudgeted.stats.rounds < 32,
        "fast-forwarded, not cap-burned"
    );
    // Several times the executed work, a fraction of the cap burn (which
    // needed ≈ 10× more and used to trip this budget).
    let budget = StepBudget::activations(3 * unbudgeted.stats.activations as u64);
    let a = engine.query_budgeted(&q, &budget).unwrap();
    assert!(!a.stats.deadline_aborted);
    assert!(!a.stats.converged);
    assert_eq!(a, unbudgeted);
}

// ---------------------------------------------------------------------------
// The probe is free for everything that converges.
// ---------------------------------------------------------------------------

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// `(rounds, converged, activations, imports)` of the three events of
    /// [`converging_script`] on tiny seeds 0..24, recorded at the commit
    /// before the oscillation probe existed. The 15 seeds whose counts
    /// changed when siblings became transparent were re-recorded then;
    /// every event still ends before round 16, where the probe arms.
    #[rustfmt::skip]
    const PINNED: [[(usize, bool, usize, usize); 3]; 24] = [
        [(4, true, 104, 210), (4, true, 104, 13), (2, true, 6, 0)],
        [(5, true, 135, 250), (6, true, 309, 597), (5, true, 261, 342)],
        [(5, true, 214, 361), (6, true, 190, 269), (6, true, 195, 146)],
        [(5, true, 104, 205), (5, true, 106, 199), (7, true, 229, 149)],
        [(4, true, 116, 192), (6, true, 202, 335), (5, true, 132, 74)],
        [(5, true, 179, 375), (5, true, 140, 262), (5, true, 222, 211)],
        [(5, true, 123, 191), (5, true, 134, 206), (5, true, 125, 49)],
        [(5, true, 148, 258), (5, true, 116, 187), (5, true, 153, 85)],
        [(5, true, 121, 231), (5, true, 140, 239), (5, true, 130, 44)],
        [(5, true, 145, 254), (6, true, 234, 283), (6, true, 130, 86)],
        [(4, true, 108, 209), (5, true, 269, 529), (6, true, 285, 364)],
        [(6, true, 235, 396), (6, true, 247, 262), (2, true, 6, 0)],
        [(4, true, 112, 212), (5, true, 214, 414), (6, true, 251, 315)],
        [(4, true, 112, 226), (5, true, 207, 418), (5, true, 243, 289)],
        [(5, true, 164, 318), (5, true, 172, 310), (5, true, 178, 145)],
        [(3, true, 97, 187), (4, true, 189, 351), (4, true, 179, 166)],
        [(5, true, 155, 259), (6, true, 236, 387), (5, true, 204, 215)],
        [(4, true, 113, 210), (5, true, 218, 370), (5, true, 178, 169)],
        [(4, true, 121, 236), (5, true, 221, 426), (6, true, 264, 323)],
        [(6, true, 206, 403), (6, true, 279, 538), (7, true, 299, 451)],
        [(5, true, 149, 281), (5, true, 136, 246), (5, true, 201, 207)],
        [(5, true, 139, 250), (6, true, 245, 424), (6, true, 234, 240)],
        [(5, true, 114, 224), (5, true, 163, 305), (5, true, 181, 152)],
        [(5, true, 159, 304), (6, true, 240, 474), (6, true, 281, 367)],
    ];

    /// Plain announce from the seed's stub, re-announce poisoning the first
    /// hop of the longest selected path, withdraw.
    fn converging_script(seed: u64) -> [(Convergence, bool); 3] {
        let w = GeneratorConfig::tiny().build(seed);
        let stubs: Vec<_> = w
            .graph
            .nodes()
            .iter()
            .filter(|n| n.asn.value() >= 20_000 && !n.prefixes.is_empty())
            .collect();
        let node = stubs[seed as usize % stubs.len()];
        let (origin, prefix) = (node.asn, node.prefixes[0]);
        let mut sim = PrefixSim::new(&w, prefix);
        let a = sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        let a = (a, sim.last_oscillation().is_none());
        let mut ann = Announcement::plain(origin, prefix);
        ann.poison = poison_victim(&sim, origin).into_iter().collect();
        let b = sim.announce(ann, Timestamp(ROUND));
        let b = (b, sim.last_oscillation().is_none());
        let c = sim.withdraw(Timestamp(2 * ROUND));
        [a, b, (c, sim.last_oscillation().is_none())]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn converging_events_are_untouched_by_the_probe(seed in 0u64..24) {
            for (got, want) in converging_script(seed).iter().zip(&PINNED[seed as usize]) {
                let (conv, no_witness) = got;
                prop_assert!(conv.rounds < 16);
                prop_assert!(*no_witness);
                prop_assert_eq!(
                    (conv.rounds, conv.converged, conv.activations, conv.imports),
                    *want
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The paper world (topology seed 7: 688 ASes, 1 212 prefixes) — the
// `paper_pipeline` benchmark's universe. It converges.
// ---------------------------------------------------------------------------

#[test]
#[ignore = "release-mode paper-world proof; wired into scripts/check.sh"]
fn paper_world_universe_is_the_oracles_at_a_fraction_of_the_work() {
    let world = GeneratorConfig::default().build(7);
    let universe = RoutingUniverse::compute_all(&world);
    assert_eq!(
        universe.unconverged(),
        &[] as &[Prefix],
        "the paper world converges"
    );
    let stats = universe.engine_stats();
    assert_eq!(stats.shapes_computed, 800);
    // Exact work, pinned like the tiny twin in `work_counts.rs`.
    assert_eq!(
        (stats.activations, stats.imports),
        (823_096, 1_628_928),
        "universe (activations, imports)"
    );

    // 16 prefixes, spread over the universe, against the sweep oracle.
    let prefixes: Vec<Prefix> = universe.prefixes().collect();
    let ctx = SimContext::shared(&world);
    for i in 0..16 {
        let prefix = prefixes[i * prefixes.len() / 16];
        let origin = universe.origin(prefix).unwrap();
        let mut sim = PrefixSim::with_context(ctx.fork(), prefix);
        let conv = sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        assert!(conv.converged && sim.last_oscillation().is_none());
        let mut oracle = SweepSim::new(&world, prefix);
        let conv = oracle.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        assert!(conv.converged, "{prefix}: the oracle does not converge");
        for x in 0..world.graph.len() {
            assert_eq!(universe.route(prefix, x), oracle.best(x), "{prefix} at {x}");
        }
    }
}
