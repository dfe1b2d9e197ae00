//! Import/export policy evaluation against the ground-truth
//! [`ir_topology::World`].
//!
//! Local-preference tiers follow Gao–Rexford (customer 300 / peer 200 /
//! provider 100), then the world's per-AS deviations are layered on top:
//! per-neighbor deltas, a +1000 domestic tier, a −400 backup-link penalty.
//!
//! Siblings are transparent: a route learned over a sibling session ranks
//! and exports at the tier it had at the sibling ([`carried_tier`]), so an
//! organization routes as one network.

use crate::compact::{route_tag, CompactRoute};
use crate::patharena::{PathArena, PathId};
use ir_topology::graph::{LinkKind, NodeIdx};
use ir_topology::policy::{PolicySpec, TransitScope};
use ir_topology::World;
use ir_types::{Asn, CityId, Prefix, Relationship};

/// Base local preference for a relationship tier. A sibling session has no
/// tier of its own ([`carried_tier`]); `Sibling` reads as the customer
/// tier, the one a route the sibling originated or learned from a customer
/// carries.
pub fn base_pref(rel: Relationship) -> i32 {
    match rel {
        Relationship::Customer | Relationship::Sibling => 300,
        Relationship::Peer => 200,
        Relationship::Provider => 100,
    }
}

/// The tier a route imported over a `rel` session ranks and exports at,
/// where `sender_tier` is the tier of the sender's own best route
/// (`Customer` for its origination): the session's own relationship,
/// except over a sibling session, which carries the sender's tier — through
/// chains of siblings too, since the sender's tier is already carried.
pub(crate) fn carried_tier(rel: Relationship, sender_tier: Relationship) -> Relationship {
    match rel {
        Relationship::Sibling => sender_tier,
        rel => rel,
    }
}

/// Bonus granted to all-domestic routes by ASes with `domestic_pref`.
pub const DOMESTIC_BONUS: i32 = 1000;

/// Penalty applied to routes arriving over a [`LinkKind::Backup`] link.
pub const BACKUP_PENALTY: i32 = -400;

/// Whether every AS on the interned `path` is registered in `me`'s home
/// country (the condition for the §6 domestic-path preference): one arena
/// walk, no materialization.
fn path_is_domestic(world: &World, me: NodeIdx, arena: &PathArena, path: PathId) -> bool {
    let home = world.graph.node(me).home_country;
    arena.asns_all(path, |asn| {
        world
            .graph
            .index_of(asn)
            .map(|i| world.graph.node(i).home_country == home)
            .unwrap_or(false)
    })
}

/// Import filter + attribute computation for the interned `path` announced
/// by neighbor `from` over the session at `city` with relationship `rel`
/// (of `from`, as seen from `me`, hybrid-resolved by the caller), ranked
/// at `tier` ([`carried_tier`]).
///
/// Returns `None` when the announcement is rejected (loop prevention,
/// AS-set filtering). Compact routes carry no prefix — the per-prefix
/// engine holds it.
///
/// `policy` is `me`'s *resolved* spec: the world's ground truth, or a
/// per-sim overlay entry when a [`crate::sim::Delta`] edited it. The
/// engine never resolves the spec itself so delta edits stay scoped to
/// the simulation that applied them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn import(
    world: &World,
    policy: &PolicySpec,
    arena: &PathArena,
    me: NodeIdx,
    from: NodeIdx,
    city: CityId,
    rel: Relationship,
    tier: Relationship,
    kind: LinkKind,
    path: PathId,
    igp_cost: u32,
    age: u32,
) -> Option<CompactRoute> {
    let (seq_loop, any_loop, has_set, len) = arena.scan(path, world.graph.asn(me));

    // BGP loop prevention. A real routing loop (own ASN in a sequence
    // segment) is always rejected; ASes with `no_loop_prevention` skip
    // only the AS-*set* check, which is precisely what makes poisoning
    // ineffective against them (§4.4 "Limitations") without letting the
    // control plane converge onto genuine loops.
    if seq_loop {
        return None;
    }
    if !policy.no_loop_prevention && any_loop {
        return None;
    }
    // Poisoned-announcement filtering (§4.4 "Limitations").
    if policy.filters_as_sets && has_set {
        return None;
    }

    let mut pref = base_pref(tier);
    pref += i32::from(policy.pref_delta(world.graph.asn(from)));
    if kind == LinkKind::Backup {
        pref += BACKUP_PENALTY;
    }
    if policy.domestic_pref && path_is_domestic(world, me, arena, path) {
        pref += DOMESTIC_BONUS;
    }

    Some(CompactRoute {
        path,
        path_len: len as u16,
        learned_from: from as u32,
        city: city.0,
        rel: route_tag(rel, tier),
        local_pref: pref,
        igp_cost,
        age,
    })
}

/// Export filter: may an AS with resolved spec `policy` announce its
/// current route — ranked at tier `tier` (`None` = local origination) — to
/// neighbor `to`, whose relationship over the session in question is
/// `rel_to`? `prefix` is consulted only for local routes'
/// selective-announcement policy.
///
/// Checks, in order: Gao–Rexford export (driven by the route's tier: the
/// class it was learned on, or the tier a sibling session carried),
/// partial transit, and — for locally-originated routes — the origin's
/// selective-announcement table.
pub(crate) fn may_export(
    policy: &PolicySpec,
    tier: Option<Relationship>,
    prefix: Prefix,
    to: Asn,
    rel_to: Relationship,
) -> bool {
    match tier {
        // Partial transit limits `to` to customer-tier routes.
        Some(tier) => {
            tier.exportable_to(rel_to)
                && (policy.transit_scope(to) != TransitScope::CustomerRoutesOnly
                    || tier == Relationship::Customer)
        }
        // Origin-side prefix-specific policy (§4.3).
        None => policy.may_announce(&prefix, to),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::AsPath;
    use ir_topology::GeneratorConfig;

    fn world() -> World {
        GeneratorConfig::tiny().build(1)
    }

    /// [`import`] of `path` into `me` under its ground-truth spec, interned
    /// into a fresh arena (IGP cost 1, age 0).
    fn import_path(
        w: &World,
        me: NodeIdx,
        from: NodeIdx,
        city: CityId,
        rel: Relationship,
        kind: LinkKind,
        path: &AsPath,
    ) -> Option<CompactRoute> {
        let mut arena = PathArena::new();
        let id = arena.intern(path);
        import(
            w,
            w.policy(me),
            &arena,
            me,
            from,
            city,
            rel,
            rel,
            kind,
            id,
            1,
            0,
        )
    }

    #[test]
    fn loop_prevention_rejects_own_asn() {
        let w = world();
        // Find an AS with loop prevention enabled and one without.
        let me = (0..w.graph.len())
            .find(|&i| !w.policy(i).no_loop_prevention)
            .unwrap();
        let from = w.graph.links(me)[0].peer;
        let city = w.graph.links(me)[0].cities[0];
        let my_asn = w.graph.asn(me);
        let looped = AsPath::origin(Asn(9_999_999)).prepend(my_asn);
        let (peer, normal) = (Relationship::Peer, LinkKind::Normal);
        assert!(import_path(&w, me, from, city, peer, normal, &looped).is_none());
        let clean = AsPath::origin(Asn(9_999_999));
        assert!(import_path(&w, me, from, city, peer, normal, &clean).is_some());
    }

    #[test]
    fn as_set_filtering() {
        let mut w = world();
        let me = 0;
        w.policies[me].filters_as_sets = true;
        w.policies[me].no_loop_prevention = false;
        let from = w.graph.links(me)[0].peer;
        let city = w.graph.links(me)[0].cities[0];
        let poisoned = AsPath::poisoned(Asn(9_999_999), &[Asn(123)]);
        let (peer, normal) = (Relationship::Peer, LinkKind::Normal);
        assert!(import_path(&w, me, from, city, peer, normal, &poisoned).is_none());
    }

    #[test]
    fn pref_tiers_and_deltas() {
        let mut w = world();
        let me = 0;
        let from = w.graph.links(me)[0].peer;
        let from_asn = w.graph.asn(from);
        w.policies[me].neighbor_pref.insert(from_asn, -150);
        w.policies[me].domestic_pref = false;
        let city = w.graph.links(me)[0].cities[0];
        let path = AsPath::origin(Asn(9_999_999));
        let r = import_path(
            &w,
            me,
            from,
            city,
            Relationship::Customer,
            LinkKind::Normal,
            &path,
        )
        .unwrap();
        assert_eq!(r.local_pref, 300 - 150);
        let r = import_path(
            &w,
            me,
            from,
            city,
            Relationship::Provider,
            LinkKind::Backup,
            &path,
        )
        .unwrap();
        assert_eq!(r.local_pref, 100 - 150 + BACKUP_PENALTY);
    }

    #[test]
    fn domestic_bonus_applies_to_domestic_paths_only() {
        let mut w = world();
        // Pick an AS and a neighbor in the same country if possible.
        let me = (0..w.graph.len())
            .find(|&i| {
                w.graph
                    .links(i)
                    .iter()
                    .any(|l| w.graph.node(l.peer).home_country == w.graph.node(i).home_country)
            })
            .expect("some intra-country link exists");
        let link = w
            .graph
            .links(me)
            .iter()
            .find(|l| w.graph.node(l.peer).home_country == w.graph.node(me).home_country)
            .unwrap()
            .clone();
        w.policies[me].domestic_pref = true;
        // The generator hands ~10% of ASes a random neighbor_pref override;
        // clear it so only the domestic bonus is measured.
        w.policies[me].neighbor_pref.clear();
        let (from, city) = (link.peer, link.cities[0]);
        let import_peer = |path: &AsPath| {
            import_path(
                &w,
                me,
                from,
                city,
                Relationship::Peer,
                LinkKind::Normal,
                path,
            )
            .unwrap()
        };
        let domestic_path = AsPath::origin(w.graph.asn(from));
        assert_eq!(import_peer(&domestic_path).local_pref, 200 + DOMESTIC_BONUS);
        // A path containing an unknown (foreign) ASN gets no bonus.
        let foreign_path = domestic_path.prepend(Asn(9_999_999));
        assert_eq!(import_peer(&foreign_path).local_pref, 200);
    }

    #[test]
    fn gao_rexford_export_enforced() {
        let w = world();
        let me = 0;
        let to = w.graph.asn(w.graph.links(me)[0].peer);
        let pfx: Prefix = "10.0.0.0/24".parse().unwrap();
        let may = |learned: Relationship, rel_to: Relationship| {
            may_export(w.policy(me), Some(learned), pfx, to, rel_to)
        };
        // Peer-learned routes only go to customers/siblings.
        assert!(!may(Relationship::Peer, Relationship::Peer));
        assert!(may(Relationship::Peer, Relationship::Customer));
        // Customer-learned routes go anywhere.
        assert!(may(Relationship::Customer, Relationship::Provider));
    }

    #[test]
    fn partial_transit_limits_customer() {
        let mut w = world();
        let me = 0;
        let to = w.graph.asn(w.graph.links(me)[0].peer);
        w.policies[me]
            .partial_transit
            .insert(to, TransitScope::CustomerRoutesOnly);
        let pfx: Prefix = "10.0.0.0/24".parse().unwrap();
        let customer = Relationship::Customer;
        // Even though `to` is a customer, provider-learned routes are withheld.
        let provider_learned = Some(Relationship::Provider);
        assert!(!may_export(
            w.policy(me),
            provider_learned,
            pfx,
            to,
            customer
        ));
        assert!(may_export(w.policy(me), Some(customer), pfx, to, customer));
    }

    /// Expected verdicts for 5 paths × 3 relationships × 2 link kinds at
    /// every AS, restated from the rules: `[o]` and `[from, o]` are
    /// accepted; `[me, o]` is a real loop and always rejected; a path
    /// poisoned with `{me}` is rejected unless the AS skips loop
    /// prevention; any AS-set is rejected where the AS filters them. An
    /// accepted route carries the tier, the neighbor delta and the backup
    /// penalty (no path here is domestic: the origin is unknown).
    #[test]
    fn import_verdicts_follow_the_loop_and_set_rules() {
        let w = world();
        let mut arena = PathArena::new();
        let o = Asn(9_999_999);
        for me in 0..w.graph.len() {
            let links = w.graph.links(me);
            let Some(link) = links.first() else { continue };
            let (from, city) = (link.peer, link.cities[0]);
            let (me_asn, from_asn) = (w.graph.asn(me), w.graph.asn(from));
            let spec = w.policy(me);
            let paths = [
                (AsPath::origin(o), true),
                (AsPath::origin(o).prepend(from_asn), true),
                (
                    AsPath::poisoned(o, &[me_asn]),
                    spec.no_loop_prevention && !spec.filters_as_sets,
                ),
                (AsPath::poisoned(o, &[Asn(123)]), !spec.filters_as_sets),
                (AsPath::origin(o).prepend(me_asn), false),
            ];
            for (path, accepted) in paths {
                for rel in [
                    Relationship::Customer,
                    Relationship::Peer,
                    Relationship::Provider,
                ] {
                    for kind in [LinkKind::Normal, LinkKind::Backup] {
                        let id = arena.intern(&path);
                        let got =
                            import(&w, spec, &arena, me, from, city, rel, rel, kind, id, 3, 60);
                        assert_eq!(got.is_some(), accepted, "node {me}: {path:?}");
                        let Some(r) = got else { continue };
                        let backup = if kind == LinkKind::Backup { -400 } else { 0 };
                        let tier = match rel {
                            Relationship::Customer => 300,
                            Relationship::Peer => 200,
                            _ => 100,
                        };
                        let delta = i32::from(spec.pref_delta(from_asn));
                        assert_eq!(r.local_pref, tier + delta + backup, "node {me}");
                        assert_eq!(r.igp_cost, 3);
                        assert_eq!(r.age, 60);
                        assert_eq!(r.learned_from, from as u32);
                        assert_eq!(CityId(r.city), city);
                        assert_eq!(usize::from(r.path_len), path.len());
                        assert_eq!(arena.materialize(r.path), path);
                    }
                }
            }
        }
    }

    #[test]
    fn selective_announce_blocks_origin_export() {
        let mut w = world();
        let me = 0;
        let to = w.graph.links(me)[0].peer;
        let other = w.graph.links(me).iter().map(|l| l.peer).find(|&p| p != to);
        let pfx = w.graph.node(me).prefixes[0];
        let to_asn = w.graph.asn(to);
        w.policies[me]
            .selective_announce
            .insert(pfx, [to_asn].into_iter().collect());
        let customer = Relationship::Customer;
        assert!(may_export(w.policy(me), None, pfx, to_asn, customer));
        if let Some(other) = other {
            let other = w.graph.asn(other);
            assert!(!may_export(w.policy(me), None, pfx, other, customer));
        }
    }
}
