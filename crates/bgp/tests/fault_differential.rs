//! Fault differential suite: both propagation engines under session faults.
//!
//! Three properties anchor the chaos layer:
//!
//! 1. **Zero is a no-op.** A quiet [`FaultPlane`] (all rates zero, empty
//!    schedule) leaves both engines bit-identical — route-for-route,
//!    including ages — to simulations that never saw the fault API.
//! 2. **Engines agree under faults.** Link failures, restores, and session
//!    resets drive the event engine and the sweep oracle to identical
//!    fixpoints after every event.
//! 3. **Invariants hold.** No selected route is learned over a downed
//!    link, poison-filtering ASes never hold an AS-set-carrying route, and
//!    every injected fault is visible in the recovery counters.

#[allow(dead_code)]
mod support;

use ir_bgp::{Announcement, PrefixSim, SimContext};
use ir_fault::{FaultConfig, FaultPlane};
use ir_topology::{GeneratorConfig, World};
use ir_types::{Asn, Prefix, Timestamp};
use std::collections::BTreeSet;
use support::SweepSim;

const ROUND: u64 = 90 * 60;

fn stub_origin(world: &World, pick: usize) -> (Asn, Prefix) {
    let stubs: Vec<_> = world
        .graph
        .nodes()
        .iter()
        .filter(|n| n.asn.value() >= 20_000)
        .collect();
    let node = stubs[pick % stubs.len()];
    (node.asn, node.prefixes[0])
}

/// The first `count` links of the world, as ASN pairs — a deterministic
/// pool of fault targets that exists in every seeded world.
fn some_links(world: &World, count: usize) -> Vec<(Asn, Asn)> {
    let mut links = Vec::new();
    'outer: for x in 0..world.graph.len() {
        for l in world.graph.links(x) {
            if l.peer > x {
                links.push((world.graph.asn(x), world.graph.asn(l.peer)));
                if links.len() == count {
                    break 'outer;
                }
            }
        }
    }
    links
}

fn compare(event: &PrefixSim<'_>, sweep: &SweepSim<'_>, label: &str) {
    let w = event.world();
    for x in 0..w.graph.len() {
        assert_eq!(
            event.best(x),
            sweep.best(x),
            "{label}: fixpoint differs at {}",
            w.graph.asn(x)
        );
    }
}

#[test]
fn quiet_fault_surface_is_a_strict_noop() {
    for seed in [1u64, 7, 23] {
        let w = GeneratorConfig::tiny().build(seed);
        let (origin, prefix) = stub_origin(&w, seed as usize);
        let ctx = SimContext::shared(&w);

        // Baseline: never touches the fault API.
        let mut plain = PrefixSim::with_context(ctx.clone(), prefix);
        plain.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);

        // Faulted-but-quiet: empty filters, a quiet plane's (empty)
        // schedule, restore/reset of links that were never failed.
        let mut quiet = PrefixSim::with_context(ctx, prefix);
        quiet.set_poison_filters(std::iter::empty());
        quiet.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        let plane = FaultPlane::quiet();
        for fault in plane.schedule() {
            quiet.apply_fault(fault);
        }
        let links = some_links(&w, 2);
        let c = quiet.restore_link(links[0].0, links[0].1, Timestamp(60));
        assert_eq!(c.activations, 0, "restoring an up link is a no-op");

        for x in 0..w.graph.len() {
            assert_eq!(plain.best(x), quiet.best(x), "quiet plane changed routes");
        }
        assert_eq!(quiet.stats().recovery_events, 0);
        assert_eq!(quiet.stats().sessions_torn, 0);
        assert!(quiet.downed_links().is_empty());

        // Same property for the sweep oracle.
        let mut splain = SweepSim::new(&w, prefix);
        splain.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        let mut squiet = SweepSim::new(&w, prefix);
        squiet.set_poison_filters(std::iter::empty());
        squiet.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        squiet.restore_link(links[0].0, links[0].1, Timestamp(60));
        for x in 0..w.graph.len() {
            assert_eq!(splain.best(x), squiet.best(x));
        }
        assert_eq!(squiet.stats().recovery_events, 0);
    }
}

#[test]
fn engines_agree_through_fail_reset_restore_cycles() {
    for seed in [2u64, 11, 29, 41] {
        let w = GeneratorConfig::tiny().build(seed);
        let (origin, prefix) = stub_origin(&w, seed as usize);
        let mut event = PrefixSim::new(&w, prefix);
        let mut sweep = SweepSim::new(&w, prefix);

        event.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        sweep.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        compare(&event, &sweep, "announce");

        let links = some_links(&w, 4);
        let mut t = ROUND;
        for (i, &(a, b)) in links.iter().enumerate() {
            event.fail_link(a, b, Timestamp(t));
            sweep.fail_link(a, b, Timestamp(t));
            compare(&event, &sweep, &format!("seed {seed}: fail link {i}"));
            t += ROUND;
        }
        // Resets while part of the graph is down.
        let (ra, rb) = links[3];
        event.reset_link(ra, rb, Timestamp(t));
        sweep.reset_link(ra, rb, Timestamp(t));
        compare(&event, &sweep, "reset under outage");
        t += ROUND;
        // Restore in a different order than failure.
        for (i, &(a, b)) in links.iter().enumerate().rev() {
            event.restore_link(a, b, Timestamp(t));
            sweep.restore_link(a, b, Timestamp(t));
            compare(&event, &sweep, &format!("seed {seed}: restore link {i}"));
            t += ROUND;
        }
        assert!(event.downed_links().is_empty());
        // Full recovery: reachability matches a fresh, never-faulted run.
        // (Exact routes may differ — configurations with multiple stable
        // states are path-dependent, and an outage/recovery cycle can
        // legitimately settle in a different equilibrium. Both engines
        // agree on it, per the compares above.)
        let mut fresh = PrefixSim::new(&w, prefix);
        fresh.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        for x in 0..w.graph.len() {
            assert_eq!(
                fresh.best(x).is_some(),
                event.best(x).is_some(),
                "reachability differs after full recovery at {}",
                w.graph.asn(x)
            );
            if let Some(r) = event.best(x) {
                if !r.is_local() {
                    assert_eq!(
                        r.path.sequence_asns().last(),
                        Some(&origin),
                        "recovered path ends at origin"
                    );
                }
            }
        }
    }
}

#[test]
fn engines_agree_on_poison_filtering() {
    for seed in [3u64, 17] {
        let w = GeneratorConfig::tiny().build(seed);
        let (origin, prefix) = stub_origin(&w, seed as usize);
        let mut event = PrefixSim::new(&w, prefix);
        let mut sweep = SweepSim::new(&w, prefix);
        event.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        sweep.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);

        // Poison the first hop of some long route; make a third of the
        // graph filter AS-sets.
        let victim = (0..w.graph.len())
            .filter_map(|x| event.best(x).map(|r| r.path.sequence_asns()))
            .find(|s| s.len() >= 2)
            .map(|s| s[0])
            .expect("a multi-hop route exists");
        let filters: BTreeSet<Asn> = (0..w.graph.len())
            .filter(|x| x % 3 == 0)
            .map(|x| w.graph.asn(x))
            .collect();
        event.set_poison_filters(filters.iter().copied());
        sweep.set_poison_filters(filters.iter().copied());

        let mut ann = Announcement::plain(origin, prefix);
        ann.poison = vec![victim];
        event.announce(ann.clone(), Timestamp(ROUND));
        sweep.announce(ann, Timestamp(ROUND));
        compare(&event, &sweep, "poisoned announce with filters");

        // Invariant: a filtering AS never holds an AS-set-carrying route —
        // filtering acts on imports, so its own origination is exempt.
        for x in 0..w.graph.len() {
            if filters.contains(&w.graph.asn(x)) {
                if let Some(r) = event.best(x) {
                    if !r.is_local() {
                        assert!(!r.path.has_set(), "filtering AS holds poisoned route");
                    }
                }
            }
        }
    }
}

#[test]
fn no_routes_survive_over_downed_links_and_faults_are_accounted() {
    let w = GeneratorConfig::tiny().build(13);
    let (origin, prefix) = stub_origin(&w, 0);
    let mut sim = PrefixSim::new(&w, prefix);
    sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);

    let links = some_links(&w, 6);
    let mut expected_events = 0;
    for (i, &(a, b)) in links.iter().enumerate() {
        sim.fail_link(a, b, Timestamp((i as u64 + 1) * ROUND));
        expected_events += 1;
    }
    // Re-failing an already-down link is not a new fault.
    sim.fail_link(links[0].0, links[0].1, Timestamp(10 * ROUND));
    assert_eq!(sim.stats().recovery_events, expected_events);
    assert_eq!(sim.downed_links().len(), links.len());

    // Invariant: nobody's selected route was learned across a downed link.
    let down: BTreeSet<(Asn, Asn)> = sim.downed_links().into_iter().collect();
    for x in 0..w.graph.len() {
        if let Some(r) = sim.best(x) {
            if let Some(nb) = r.learned_from {
                let me = w.graph.asn(x);
                let key = (me.min(nb), me.max(nb));
                assert!(!down.contains(&key), "{me} routes via downed link to {nb}");
            }
        }
    }
}

/// The stale-generation edge of the reusable bitset worklist: every
/// `run_recovery` reuses the sim's two worklists, so seeds left undrained
/// by one event must never leak into the next. `reset_link` is the
/// sharpest probe — its fixpoint is unchanged by construction, so *any*
/// resurrected seed shows up as either spurious work (activation counters)
/// or, worse, a diverged route.
#[test]
fn reused_worklists_across_reset_link_do_not_resurrect_seeds() {
    for seed in [5u64, 13, 31] {
        let w = GeneratorConfig::tiny().build(seed);
        let (origin, prefix) = stub_origin(&w, seed as usize);
        let mut sim = PrefixSim::new(&w, prefix);
        sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        let baseline: Vec<_> = (0..w.graph.len()).map(|x| sim.best(x)).collect();

        // Hammer the same worklists through many recoveries: resets on
        // rotating links, each leaving the two worklists in a different
        // drained state for the next to reuse. (No fail/restore here — an
        // outage cycle may legitimately settle a multi-equilibrium region
        // elsewhere; a reset provably preserves the fixpoint, which is
        // what makes leaked seeds observable.)
        let links = some_links(&w, 5);
        let mut t = ROUND;
        let mut reset_work = Vec::new();
        for cycle in 0..6 {
            for &(a, b) in &links {
                let conv = sim.reset_link(a, b, Timestamp(t));
                assert!(conv.converged);
                if cycle > 0 {
                    reset_work.push(((a, b), conv.activations));
                }
                t += ROUND;
            }
        }
        // A reset never changes the fixpoint; a leaked seed from an
        // earlier recovery would re-run selection somewhere it shouldn't
        // and could flip a multi-equilibrium region.
        for (x, base) in baseline.iter().enumerate() {
            match (base, sim.best(x)) {
                (Some(b), Some(cur)) => assert!(
                    b.same_route(&cur),
                    "seed {seed}: route changed at {} after resets",
                    w.graph.asn(x)
                ),
                (None, None) => {}
                _ => panic!("seed {seed}: reachability changed at {}", w.graph.asn(x)),
            }
        }
        // And the work per reset is stable across cycles: identical resets
        // on a converged graph do identical work, so any drift would mean
        // stale seeds were processed.
        for (link, work) in &reset_work {
            let expected = reset_work
                .iter()
                .find(|(l, _)| l == link)
                .map(|(_, w)| *w)
                .unwrap();
            assert_eq!(
                *work, expected,
                "seed {seed}: reset work on {link:?} drifted across worklist reuses"
            );
        }
        // The reused sim agrees with a fresh one that never recovered.
        let mut fresh = PrefixSim::new(&w, prefix);
        fresh.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        for x in 0..w.graph.len() {
            assert_eq!(
                sim.best(x).map(|r| r.path),
                fresh.best(x).map(|r| r.path),
                "seed {seed}: reused sim diverged from fresh at {}",
                w.graph.asn(x)
            );
        }
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        /// A synthesized fault schedule is a pure function of the seed, and
        /// replaying it drives both engines to the same fixpoint.
        #[test]
        fn synthesized_schedules_are_deterministic_and_engines_agree(
            world_seed in 0u64..500,
            fault_seed in 0u64..500,
            origin_pick in any::<u16>(),
        ) {
            let w = GeneratorConfig::tiny().build(world_seed);
            let (origin, prefix) = stub_origin(&w, origin_pick as usize);
            let links = some_links(&w, 12);
            let cfg = FaultConfig { link_flap: 0.4, session_reset: 0.3, ..FaultConfig::quiet() };
            let mut plane_a = FaultPlane::new(cfg, fault_seed);
            let mut plane_b = FaultPlane::new(cfg, fault_seed);
            plane_a.synthesize_link_schedule(&links, Timestamp(20 * ROUND));
            plane_b.synthesize_link_schedule(&links, Timestamp(20 * ROUND));
            prop_assert_eq!(plane_a.schedule(), plane_b.schedule());

            let mut event = PrefixSim::new(&w, prefix);
            let mut sweep = SweepSim::new(&w, prefix);
            event.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
            sweep.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
            for fault in plane_a.schedule() {
                event.apply_fault(fault);
                sweep.apply_fault(fault);
            }
            for x in 0..w.graph.len() {
                prop_assert_eq!(event.best(x), sweep.best(x), "differs at {}", w.graph.asn(x));
            }
            // Same schedule, same engine ⇒ same counters.
            let mut event2 = PrefixSim::new(&w, prefix);
            event2.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
            for fault in plane_b.schedule() {
                event2.apply_fault(fault);
            }
            prop_assert_eq!(event.stats(), event2.stats());
        }

        /// Zero-rate planes synthesize nothing and change nothing, for any
        /// seed — the no-op guarantee the pipeline's byte-identity rests on.
        #[test]
        fn zero_rate_plane_is_noop_for_any_seed(world_seed in 0u64..500, fault_seed in any::<u64>()) {
            let w = GeneratorConfig::tiny().build(world_seed);
            let (origin, prefix) = stub_origin(&w, 1);
            let links = some_links(&w, 12);
            let mut plane = FaultPlane::new(FaultConfig::quiet(), fault_seed);
            plane.synthesize_link_schedule(&links, Timestamp(20 * ROUND));
            prop_assert!(plane.schedule().is_empty());
            prop_assert!(plane.is_quiet());

            let mut faulted = PrefixSim::new(&w, prefix);
            faulted.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
            for fault in plane.schedule() {
                faulted.apply_fault(fault);
            }
            let mut plain = PrefixSim::new(&w, prefix);
            plain.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
            for x in 0..w.graph.len() {
                prop_assert_eq!(plain.best(x), faulted.best(x));
            }
            prop_assert_eq!(plain.stats(), faulted.stats());
        }
    }
}

#[test]
fn per_event_convergence_sums_equal_cumulative_stats() {
    // Satellite of the what-if work: the per-event `Convergence` returned
    // by announce/fail/restore/reset must sum exactly to the cumulative
    // `EngineStats` deltas — no double-counting of session re-exchange
    // imports, no recovery rounds attributed twice. `DeltaStats` is built
    // from these per-event values, so this is what keeps what-if effort
    // accounting honest.
    for seed in [3u64, 13, 29] {
        let w = GeneratorConfig::tiny().build(seed);
        let (origin, prefix) = stub_origin(&w, seed as usize);
        let mut sim = PrefixSim::new(&w, prefix);
        let mut activations = 0usize;
        let mut imports = 0usize;
        let mut fault_rounds = 0usize;
        let mut events = 0usize;
        let mut fault_events = 0usize;

        let c = sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        activations += c.activations;
        imports += c.imports;
        events += 1;

        let links = some_links(&w, 3);
        let mut t = ROUND;
        for &(a, b) in &links {
            for phase in 0..3 {
                let c = match phase {
                    0 => sim.fail_link(a, b, Timestamp(t)),
                    1 => sim.restore_link(a, b, Timestamp(t + 1)),
                    _ => sim.reset_link(a, b, Timestamp(t + 2)),
                };
                activations += c.activations;
                imports += c.imports;
                fault_rounds += c.rounds;
                events += 1;
                fault_events += 1;
            }
            t += ROUND;
        }

        let s = sim.stats();
        assert_eq!(s.activations, activations, "seed {seed}: activations");
        assert_eq!(s.imports, imports, "seed {seed}: imports");
        assert_eq!(s.recovery_rounds, fault_rounds, "seed {seed}: rounds");
        assert_eq!(s.events, events, "seed {seed}: events");
        assert_eq!(s.recovery_events, fault_events, "seed {seed}: faults");
    }
}
