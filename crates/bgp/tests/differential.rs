//! Differential tests: the event-driven engine ([`PrefixSim`]) against the
//! legacy full-sweep oracle ([`SweepSim`]).
//!
//! Every scenario drives both engines through the same event sequence over
//! a shared [`SimContext`] and asserts identical fixpoints route-for-route
//! — full [`ir_bgp::Route`] equality, so paths, sessions, preferences,
//! *and ages* must agree after every event. The deterministic sweep below
//! covers 25 seeded worlds × 8+ events each (200+ compared fixpoints:
//! plain announcements, iterative poisoning as the alternate-route
//! experiments perform it, `via` restrictions, origin moves, withdrawals,
//! and re-announcements); a proptest adds randomized poison sets and
//! origins on top.

use ir_bgp::{Announcement, PrefixSim, SimContext, SweepSim};
use ir_topology::{GeneratorConfig, World};
use ir_types::{Asn, Prefix, Timestamp};
use std::collections::BTreeSet;

/// 90 minutes between events, like the paper's experiment cadence.
const ROUND: u64 = 90 * 60;

struct Pair<'w> {
    event: PrefixSim<'w>,
    sweep: SweepSim<'w>,
    compared: usize,
}

/// Ceiling on worlds the sweep oracle is asked to replay. The oracle
/// recomputes every node each round over materialized routes — O(rounds ·
/// E) with per-route allocations — which is the point (independence from
/// the compact engine) and also why it must never meet an internet-scale
/// world: the guard turns an accidental hookup into an immediate,
/// explainable failure instead of a CI hang. Scale coverage lives in the
/// release-mode `scale_smoke` suite instead.
const MAX_ORACLE_ASES: usize = 2_000;

impl<'w> Pair<'w> {
    fn new(world: &'w World, prefix: Prefix) -> Pair<'w> {
        assert!(
            world.graph.len() <= MAX_ORACLE_ASES,
            "sweep-oracle differentials are gated to <= {MAX_ORACLE_ASES} ASes, got {}; \
             use the ignored scale smoke test for internet-scale worlds",
            world.graph.len()
        );
        let ctx = SimContext::shared(world);
        Pair {
            event: PrefixSim::with_context(ctx.clone(), prefix),
            sweep: SweepSim::with_context(ctx, prefix),
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
        /// resilience) to one propagating every prefix separately — plain
        /// and under a synthesized fault schedule.
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
            let oracle =
                RoutingUniverse::compute_per_prefix(&w, &ps, &plane, order);
            for p in &ps {
                prop_assert_eq!(batched.origin(*p), oracle.origin(*p));
                for x in 0..w.graph.len() {
                    prop_assert_eq!(batched.route(*p, x), oracle.route(*p, x), "{} at {}", p, x);
                }
            }
            prop_assert_eq!(batched.unconverged(), oracle.unconverged());
            prop_assert_eq!(batched.resilience(), oracle.resilience());
        }
    }
}
