//! What-if serving on certified worlds, checked against *edited-world*
//! ground truth: a policy [`Delta`] answered warm (copy-on-write fork +
//! seeded reconvergence under the certificate's free order) must select
//! the same routes as converging a **fresh world whose ground-truth
//! policies carry the same edit**. This closes the loop the engine-side
//! differentials cannot: there, cold replay reuses the same overlay
//! machinery; here, the ground truth bypasses overlays entirely — the
//! edit is baked into `World::policies` by [`edited_world`] before any
//! propagation happens. `edited_world` states each edit on its own rather
//! than through the engine's `Delta::edit_policy`, so a wrong shared edit
//! shows up here as a divergence.
//!
//! Ages are compared modulo installation time (the two sides legitimately
//! converge at different logical clocks); path, preference, entry session
//! and IGP cost must match exactly. The edit classes exercised — partial
//! transit, export prepending, selective announcement — are exactly the
//! ones `GeneratorConfig::certifiably_safe` documents as
//! certification-preserving, and each edited world is re-audited to prove
//! the certificate still holds.

use ir_audit::{audit_world, edited_world};
use ir_bgp::universe::prefix_owners;
use ir_bgp::{
    ActivationOrder, Announcement, Delta, PrefixSim, Route, SimContext, WhatIfEngine, WhatIfQuery,
};
use ir_topology::{GeneratorConfig, World};
use ir_types::{Asn, Prefix, Timestamp};
use std::collections::{BTreeMap, BTreeSet};

/// Routes compared up to installation age (see module docs).
fn same_route(a: &Option<Route>, b: &Option<Route>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.prefix == b.prefix
                && a.path == b.path
                && a.learned_from == b.learned_from
                && a.entry_city == b.entry_city
                && a.rel == b.rel
                && a.local_pref == b.local_pref
                && a.igp_cost == b.igp_cost
        }
        _ => false,
    }
}

/// A deterministic pool of certification-preserving edits around `origin`
/// and a few transit links.
fn edit_pool(world: &World, origin: Asn, prefix: Prefix) -> Vec<Vec<Delta>> {
    let g = &world.graph;
    let oidx = g.index_of(origin).expect("origin in graph");
    let neighbors: Vec<Asn> = g.links(oidx).iter().map(|l| g.asn(l.peer)).collect();
    assert!(!neighbors.is_empty(), "origin has no sessions");
    // A transit AS with a couple of sessions, away from the origin.
    let transit = (0..g.len())
        .rev()
        .find(|&x| x != oidx && g.links(x).len() >= 2)
        .expect("world has a multi-session AS");
    let t_asn = g.asn(transit);
    let t_peer = g.asn(g.links(transit)[0].peer);
    let allowed: BTreeSet<Asn> = neighbors.iter().copied().take(1).collect();
    vec![
        vec![Delta::PartialTransit {
            of: t_asn,
            neighbor: t_peer,
            customer_routes_only: true,
        }],
        vec![Delta::ExportPrepend {
            of: t_asn,
            neighbor: t_peer,
            count: Some(3),
        }],
        vec![Delta::SelectiveAnnounce {
            of: origin,
            prefix,
            allowed: Some(allowed),
        }],
        // A compound edit: restrict transit AND prepend elsewhere.
        vec![
            Delta::PartialTransit {
                of: t_asn,
                neighbor: t_peer,
                customer_routes_only: true,
            },
            Delta::ExportPrepend {
                of: origin,
                neighbor: neighbors[0],
                count: Some(2),
            },
        ],
    ]
}

#[test]
fn certified_free_order_warm_answers_match_edited_world_ground_truth() {
    let mut cases = 0usize;
    for seed in 0..6u64 {
        let world = GeneratorConfig::certifiably_safe().build(seed);
        let report = audit_world(&world);
        assert!(
            report.certificate.certified,
            "seed {seed} must certify:\n{}",
            report.render()
        );
        let order = report.certificate.activation_order();
        assert_eq!(order, ActivationOrder::Free);

        let owners = prefix_owners(&world);
        let prefixes: Vec<Prefix> = owners.keys().copied().take(3).collect();
        let engine = WhatIfEngine::with_order(&world, &prefixes, order);
        assert!(engine.base_converged());

        for &prefix in &prefixes {
            let origin = owners[&prefix];
            for (ei, edits) in edit_pool(&world, origin, prefix).into_iter().enumerate() {
                // Ground truth: bake the edits into a cloned world's
                // policies (`edited_world`) and converge from scratch — no
                // overlays, no forks, no seeded reconvergence anywhere in
                // this path.
                let edited = edited_world(&world, &edits);
                let re_report = audit_world(&edited);
                assert!(
                    re_report.certificate.certified,
                    "seed {seed} edit {ei}: certification must survive this edit class"
                );
                let mut truth =
                    PrefixSim::with_context_ordered(SimContext::shared(&edited), prefix, order);
                let conv = truth.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
                assert!(
                    conv.converged,
                    "seed {seed} edit {ei}: ground truth diverged"
                );

                // Warm side: one query over the resident base.
                let q = WhatIfQuery {
                    prefix,
                    deltas: edits.clone(),
                };
                let a = engine
                    .query(&q)
                    .expect("prefix resident in the what-if engine");
                assert!(a.stats.converged, "seed {seed} edit {ei}");
                let by_asn: BTreeMap<Asn, &ir_bgp::RouteDiff> =
                    a.diffs.iter().map(|d| (d.asn, d)).collect();
                for x in 0..world.graph.len() {
                    let asn = world.graph.asn(x);
                    let warm = match by_asn.get(&asn) {
                        Some(d) => d.after.clone(),
                        None => engine.base_route(prefix, x),
                    };
                    assert!(
                        same_route(&warm, &truth.best(x)),
                        "seed {seed} edit {ei}: warm vs edited-world divergence at AS {asn} \
                         for {prefix}:\n  warm:  {warm:?}\n  truth: {:?}",
                        truth.best(x),
                    );
                }
                cases += 1;
            }
        }
    }
    assert!(cases >= 72, "only {cases} certified edited-world cases ran");
}
