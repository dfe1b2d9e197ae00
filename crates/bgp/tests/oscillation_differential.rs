//! Differential tests on **oscillating** worlds: the event engine's
//! fast-forward through a dispute wheel against the sweep oracle, which
//! burns the whole round cap.
//!
//! `differential.rs` asserts that the oracle converged, so nothing there
//! reaches the capped path. Here every world holds a live dispute wheel:
//! [`PrefixSim`] proves the wave-barrier state periodic and jumps to the
//! state the cap produces, [`SweepSim`] executes all `2n + 16` sweeps, and
//! the two must agree route-for-route — ages included — on
//! `converged == false` and on every table after the follow-up events.

use ir_bgp::{
    Announcement, Convergence, DefensePlan, Delta, ExtensionCheck, PolicyExtension, PrefixSim,
    RoutingUniverse, SimContext, StepBudget, SweepSim, WhatIfEngine, WhatIfQuery,
};
use ir_topology::graph::{AsNode, AsRole};
use ir_topology::policy::PolicySpec;
use ir_topology::{GeneratorConfig, LinkKind, World};
use ir_types::{Asn, CityId, CountryId, Ipv4, OrgId, Prefix, Relationship, Timestamp};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// 90 minutes between events, like the paper's experiment cadence.
const ROUND: u64 = 90 * 60;

/// Tiny-preset seeds (≈ 100 ASes, every quirk on) whose universe has at
/// least one unconverged prefix — 22 of seeds 0..300.
const WHEEL_SEEDS: [u64; 22] = [
    19, 40, 44, 53, 64, 65, 67, 90, 113, 140, 163, 170, 172, 174, 202, 250, 266, 270, 272, 284,
    286, 290,
];

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
        let ctx = SimContext::shared(world);
        Pair {
            event: PrefixSim::with_context(ctx.clone(), prefix),
            sweep: SweepSim::with_context(ctx, prefix),
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

/// A generator world with a live wheel and one of its unconverged prefixes.
fn wheel_fixture() -> (World, Asn, Prefix) {
    let world = GeneratorConfig::tiny().build(40);
    let universe = RoutingUniverse::compute_all(&world);
    let prefix = universe.unconverged()[0];
    let origin = universe.origin(prefix).expect("prefix has an owner");
    (world, origin, prefix)
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

/// Accepts everything; raises the cancel token on its `at`-th import check
/// — a watchdog firing mid-event, made deterministic.
struct CancelAt {
    calls: AtomicUsize,
    at: usize,
    token: Arc<AtomicBool>,
}

impl PolicyExtension for CancelAt {
    fn name(&self) -> &'static str {
        "cancel-at"
    }
    fn accept_import(&self, _: &ExtensionCheck<'_>) -> bool {
        if self.calls.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            self.token.store(true, Ordering::Relaxed);
        }
        true
    }
}

#[test]
fn cancel_token_set_mid_event_is_honoured_within_check_interval() {
    let (world, origin, prefix) = wheel_fixture();
    // One run under `budget` with a watchdog that fires on import check
    // 700 (of ≈ 2 600): the event's counters and whether it fired.
    let run = |activations: Option<u64>| {
        let token = Arc::new(AtomicBool::new(false));
        let mut plan = DefensePlan::for_world(&world);
        let id = plan
            .register(Arc::new(CancelAt {
                calls: AtomicUsize::new(0),
                at: 700,
                token: token.clone(),
            }))
            .unwrap();
        plan.adopt_all(id);
        let mut sim = PrefixSim::new(&world, prefix);
        sim.set_defenses(Some(Arc::new(plan)));
        let budget = match activations {
            Some(n) => StepBudget::activations(n),
            None => StepBudget::unlimited(),
        };
        sim.set_step_budget(budget.with_cancel(token.clone()));
        let conv = sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        assert!(sim.budget_tripped() && !conv.converged);
        (conv, token.load(Ordering::Relaxed))
    };
    let (cancelled, fired) = run(None);
    assert!(fired);
    // The token is polled every CHECK_INTERVAL activations…
    assert_eq!(cancelled.activations % StepBudget::CHECK_INTERVAL, 0);
    // …and one interval earlier it had not been raised yet.
    let before = (cancelled.activations - StepBudget::CHECK_INTERVAL) as u64;
    let (earlier, fired) = run(Some(before));
    assert_eq!(earlier.activations as u64, before + 1);
    assert!(
        !fired,
        "the watchdog fired more than one interval before the stop"
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
    /// before the oscillation probe existed.
    #[rustfmt::skip]
    const PINNED: [[(usize, bool, usize, usize); 3]; 24] = [
        [(4, true, 104, 210), (4, true, 104, 13), (2, true, 6, 0)],
        [(5, true, 141, 264), (7, true, 315, 619), (5, true, 261, 342)],
        [(6, true, 233, 409), (6, true, 150, 222), (7, true, 254, 280)],
        [(5, true, 104, 205), (5, true, 106, 199), (7, true, 273, 255)],
        [(5, true, 132, 220), (7, true, 254, 445), (6, true, 193, 196)],
        [(5, true, 179, 375), (5, true, 140, 262), (5, true, 222, 211)],
        [(6, true, 163, 267), (7, true, 194, 324), (7, true, 202, 194)],
        [(5, true, 148, 258), (5, true, 116, 187), (5, true, 153, 85)],
        [(5, true, 109, 220), (5, true, 127, 218), (5, true, 115, 29)],
        [(6, true, 150, 265), (8, true, 314, 394), (6, true, 191, 229)],
        [(5, true, 170, 327), (7, true, 297, 552), (7, true, 329, 461)],
        [(6, true, 232, 430), (7, true, 341, 430), (2, true, 6, 0)],
        [(5, true, 119, 233), (6, true, 214, 431), (6, true, 286, 372)],
        [(4, true, 113, 231), (5, true, 213, 432), (6, true, 312, 425)],
        [(5, true, 164, 318), (5, true, 172, 310), (5, true, 178, 145)],
        [(3, true, 97, 187), (4, true, 189, 351), (4, true, 179, 166)],
        [(5, true, 151, 273), (6, true, 216, 384), (5, true, 193, 209)],
        [(4, true, 113, 210), (5, true, 218, 370), (5, true, 178, 169)],
        [(4, true, 121, 236), (7, true, 236, 461), (6, true, 311, 431)],
        [(7, true, 209, 407), (7, true, 265, 524), (8, true, 329, 483)],
        [(5, true, 149, 281), (5, true, 136, 246), (5, true, 201, 207)],
        [(5, true, 139, 250), (6, true, 245, 424), (6, true, 234, 240)],
        [(5, true, 114, 224), (5, true, 163, 305), (5, true, 181, 152)],
        [(5, true, 159, 304), (6, true, 240, 474), (7, true, 307, 426)],
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
// The paper world (topology seed 7: 688 ASes, 1 212 prefixes, 410 of them on
// dispute wheels) — the `paper_pipeline` benchmark's universe.
// ---------------------------------------------------------------------------

#[test]
#[ignore = "release-mode paper-world proof; wired into scripts/check.sh"]
fn paper_world_universe_is_the_oracles_at_a_fraction_of_the_work() {
    let world = GeneratorConfig::default().build(7);
    let universe = RoutingUniverse::compute_all(&world);
    let unconverged = universe.unconverged();
    assert_eq!(unconverged.len(), 410);
    let stats = universe.engine_stats();
    assert_eq!(stats.shapes_computed, 800);
    assert!(
        stats.activations < 3_000_000,
        "universe executed {} activations (cap burn: 97.3 M)",
        stats.activations
    );

    // Every unconverged prefix carries a short-period witness.
    let ctx = SimContext::shared(&world);
    for &prefix in unconverged {
        let origin = universe.origin(prefix).unwrap();
        let mut sim = PrefixSim::with_context(ctx.fork(), prefix);
        let conv = sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        assert!(!conv.converged);
        let osc = sim.last_oscillation().expect("capped without a witness");
        assert!(osc.period <= 8, "{prefix}: period {}", osc.period);
    }

    // 16 of them, spread over the list, against the cap-burning oracle.
    for i in 0..16 {
        let prefix = unconverged[i * unconverged.len() / 16];
        let origin = universe.origin(prefix).unwrap();
        let mut oracle = SweepSim::with_context(ctx.clone(), prefix);
        let conv = oracle.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        assert!(!conv.converged);
        for x in 0..world.graph.len() {
            assert_eq!(universe.route(prefix, x), oracle.best(x), "{prefix} at {x}");
        }
    }
}
