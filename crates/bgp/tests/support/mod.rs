//! The reference engine the differential suites compare
//! [`ir_bgp::PrefixSim`] against: the original full-sweep Gauss–Seidel
//! propagation, kept as test code over `ir-bgp`'s public model only.
//!
//! Every AS, in a fixed round-robin order, recomputes its best route from
//! its neighbors' *current* selections, re-running export and import policy
//! for every session every sweep; a fixpoint is reached when a full sweep
//! changes nothing. Round-robin is a fair activation sequence, under which
//! safe (dispute-free) policies provably converge, and a sweep cap turns
//! any genuine dispute wheel into a reported non-convergence instead of a
//! hang. Route-age semantics are normalized the way the event engine does
//! it (an AS whose final route equals its pre-event route keeps the
//! original installation age), so the two agree route-for-route
//! *including ages*.
//!
//! The oracle shares only the model with the engine: it builds its own
//! session list from the [`World`]'s links and restates every import and
//! export rule from [`PolicySpec`](ir_topology::policy::PolicySpec)'s
//! public fields and accessors — sibling transparency included: it keeps
//! each AS's route tier beside its route. What it still borrows from
//! `ir-bgp` is the route and path types, the two local-preference
//! adjustment constants, and [`decision::select`], the one BGP decision
//! order.
//!
//! Each test binary includes this module with `mod support;` and uses a
//! different part of it. It holds no `#[test]`, so nothing here runs once
//! per including binary.

use ir_bgp::decision;
use ir_bgp::policy_eval::{BACKUP_PENALTY, DOMESTIC_BONUS};
use ir_bgp::{Announcement, AsPath, Convergence, EngineStats, Route, Segment};
use ir_fault::{FaultEvent, TimedFault};
use ir_topology::graph::{LinkKind, NodeIdx};
use ir_topology::policy::TransitScope;
use ir_topology::World;
use ir_types::{Asn, CityId, Prefix, Relationship, Timestamp};
use std::collections::BTreeSet;

/// Ceiling on worlds the oracle is asked to replay. It recomputes every
/// node each round over materialized routes — O(rounds · E) with per-route
/// allocations — which is the point (independence from the compact engine)
/// and also why it must never meet an internet-scale world: the guard turns
/// an accidental hookup into an immediate, explainable failure instead of a
/// CI hang. Scale coverage lives in the release-mode `scale_smoke` suite.
const MAX_ORACLE_ASES: usize = 2_000;

/// One BGP session, restated from the world's links: a (link,
/// interconnection city) pair, as held by the owning AS.
struct Session {
    peer: NodeIdx,
    city: CityId,
    /// Relationship of `peer` from the owner, in force at `city`: a hybrid
    /// link is one session per city, each with its own relationship.
    rel: Relationship,
    /// Relationship of the owner from `peer` at `city`, read off `peer`'s
    /// own link — what `peer`'s export rules see.
    rel_from_peer: Relationship,
    kind: LinkKind,
    /// Hot-potato input: the link's IGP cost plus the city's position in
    /// the link's city list.
    igp: u32,
}

/// Every AS's sessions, indexed by node.
fn sessions_of(world: &World) -> Vec<Vec<Session>> {
    let g = &world.graph;
    (0..g.len())
        .map(|x| {
            let mut sessions = Vec::new();
            for link in g.links(x) {
                let back = g.links(link.peer).iter().find(|l| l.peer == x);
                for (pos, &city) in link.cities.iter().enumerate() {
                    let rel = link.rel_at(city);
                    sessions.push(Session {
                        peer: link.peer,
                        city,
                        rel,
                        rel_from_peer: back.map_or(rel.reverse(), |l| l.rel_at(city)),
                        kind: link.kind,
                        igp: link.igp_cost + pos as u32,
                    });
                }
            }
            sessions
        })
        .collect()
}

/// Gao–Rexford local preference of a tier: customer 300, peer 200,
/// provider 100. A tier is never `Sibling` ([`SweepSim::tier`]).
fn tier_pref(tier: Relationship) -> i32 {
    match tier {
        Relationship::Customer => 300,
        Relationship::Peer => 200,
        Relationship::Provider => 100,
        Relationship::Sibling => unreachable!("a route's tier is never sibling"),
    }
}

/// Canonical key for an undirected link between two node indices.
fn link_key(a: NodeIdx, b: NodeIdx) -> (NodeIdx, NodeIdx) {
    (a.min(b), a.max(b))
}

/// The zero-work convergence a fault no-op reports.
const NO_OP: Convergence = Convergence {
    rounds: 0,
    converged: true,
    activations: 0,
    imports: 0,
};

/// Per-prefix propagation state of the full-sweep oracle. Mirrors the
/// [`ir_bgp::PrefixSim`] event and session-fault surface.
pub struct SweepSim<'w> {
    world: &'w World,
    sessions: Vec<Vec<Session>>,
    prefix: Prefix,
    announcement: Option<Announcement>,
    origin_idx: Option<NodeIdx>,
    announce_time: Timestamp,
    best: Vec<Option<Route>>,
    /// The tier each selected route ranks and exports at: the relationship
    /// it was learned over, or — over a sibling session — the tier the
    /// sibling's own route had (the customer tier for its origination).
    /// `None` for a local origination or no route.
    tier: Vec<Option<Relationship>>,
    /// Links currently down (canonical index pairs); candidate enumeration
    /// skips their sessions.
    downed: BTreeSet<(NodeIdx, NodeIdx)>,
    /// ASes dropping AS-set-carrying (poisoned) imports.
    poison_filters: BTreeSet<NodeIdx>,
    clock: Timestamp,
    stats: EngineStats,
}

impl<'w> SweepSim<'w> {
    /// Prepares a (not yet announced) simulation for `prefix`.
    pub fn new(world: &'w World, prefix: Prefix) -> SweepSim<'w> {
        let n = world.graph.len();
        assert!(
            n <= MAX_ORACLE_ASES,
            "sweep-oracle differentials are gated to <= {MAX_ORACLE_ASES} ASes, got {n}; \
             use the ignored scale smoke test for internet-scale worlds"
        );
        SweepSim {
            world,
            sessions: sessions_of(world),
            prefix,
            announcement: None,
            origin_idx: None,
            announce_time: Timestamp::ZERO,
            best: vec![None; n],
            tier: vec![None; n],
            downed: BTreeSet::new(),
            poison_filters: BTreeSet::new(),
            clock: Timestamp::ZERO,
            stats: EngineStats::default(),
        }
    }

    /// Announces (or re-announces with different poison/via) the prefix and
    /// runs to fixpoint. `at` must not move backwards.
    pub fn announce(&mut self, ann: Announcement, at: Timestamp) -> Convergence {
        assert_eq!(ann.prefix, self.prefix, "announcement for the wrong prefix");
        assert!(at >= self.clock, "time went backwards");
        let idx = self
            .world
            .graph
            .index_of(ann.origin)
            .unwrap_or_else(|| panic!("unknown origin {}", ann.origin));
        self.clock = at;
        self.announce_time = at;
        self.origin_idx = Some(idx);
        self.announcement = Some(ann);
        self.run()
    }

    /// Withdraws the prefix and runs to fixpoint.
    pub fn withdraw(&mut self, at: Timestamp) -> Convergence {
        assert!(at >= self.clock, "time went backwards");
        self.clock = at;
        self.announcement = None;
        self.origin_idx = None;
        self.run()
    }

    /// The tier a route learned from `peer` over a `rel` session ranks
    /// at: the session's own relationship, except that a sibling session
    /// carries the tier `peer`'s selected route has (customer for its
    /// origination).
    fn tier(&self, peer: NodeIdx, rel: Relationship) -> Relationship {
        match rel {
            Relationship::Sibling => self.tier[peer].unwrap_or(Relationship::Customer),
            rel => rel,
        }
    }

    /// The routes AS `x` can currently choose between, each with its tier:
    /// its origination plus every neighbor export surviving the poison
    /// filter and `x`'s import policy. Every export that reaches `x` counts
    /// as one import.
    fn candidates(&self, x: NodeIdx, imports: &mut usize) -> Vec<(Route, Option<Relationship>)> {
        let mut cands = Vec::new();
        if let (Some(origin_idx), Some(ann)) = (self.origin_idx, &self.announcement) {
            if origin_idx == x {
                let local =
                    Route::originate(self.prefix, ann.origination_path(), self.announce_time);
                cands.push((local, None));
            }
        }
        for s in &self.sessions[x] {
            if self.downed.contains(&link_key(x, s.peer)) {
                continue;
            }
            let Some(path) = self.export(s.peer, x, s) else {
                continue;
            };
            *imports += 1;
            if self.poison_filters.contains(&x) && path.has_set() {
                continue;
            }
            let tier = self.tier(s.peer, s.rel);
            cands.extend(self.import(x, s, tier, path).map(|r| (r, Some(tier))));
        }
        cands
    }

    /// What `from` announces to `to` over `s` (the session as `to` holds
    /// it), or `None` if export policy withholds `from`'s current route.
    fn export(&self, from: NodeIdx, to: NodeIdx, s: &Session) -> Option<AsPath> {
        let best = self.best[from].as_ref()?;
        let spec = self.world.policy(from);
        let to_asn = self.world.graph.asn(to);
        match best.rel {
            // Locally originated: the announcement's `via` set and the
            // origin's selective-announce table (§4.3) pick the neighbors.
            None => {
                let via = self.announcement.as_ref().and_then(|a| a.via.as_ref());
                if via.is_some_and(|via| !via.contains(&to_asn))
                    || !spec.may_announce(&self.prefix, to_asn)
                {
                    return None;
                }
            }
            // Learned: Gao–Rexford on the route's tier, then partial
            // transit, which gives `to` customer-tier routes only.
            Some(_) => {
                let tier = self.tier[from].expect("a learned route has a tier");
                if !tier.exportable_to(s.rel_from_peer) {
                    return None;
                }
                if spec.transit_scope(to_asn) == TransitScope::CustomerRoutesOnly
                    && tier != Relationship::Customer
                {
                    return None;
                }
            }
        }
        // The exporter prepends itself to learned routes, plus any
        // export-side prepending toward `to`.
        let extra = usize::from(spec.prepends_to(to_asn));
        let own = usize::from(best.rel.is_some());
        Some(best.path.prepend_n(self.world.graph.asn(from), extra + own))
    }

    /// What `x` installs for `path` arriving over its session `s` at
    /// `tier`, or `None` if loop prevention or AS-set filtering drops it.
    fn import(&self, x: NodeIdx, s: &Session, tier: Relationship, path: AsPath) -> Option<Route> {
        let g = &self.world.graph;
        let spec = self.world.policy(x);
        let me = g.asn(x);
        // Own ASN in a sequence is a real loop; in an AS-set (a poisoned
        // announcement) it counts only where loop prevention is on.
        let in_sequence = path
            .segments()
            .iter()
            .any(|seg| matches!(seg, Segment::Seq(v) if v.contains(&me)));
        if in_sequence
            || (!spec.no_loop_prevention && path.contains(me))
            || (spec.filters_as_sets && path.has_set())
        {
            return None;
        }
        let from = g.asn(s.peer);
        let mut local_pref = tier_pref(tier) + i32::from(spec.pref_delta(from));
        if s.kind == LinkKind::Backup {
            local_pref += BACKUP_PENALTY;
        }
        if spec.domestic_pref {
            let home = g.node(x).home_country;
            let domestic = path.asns().all(|a| {
                g.index_of(a)
                    .is_some_and(|i| g.node(i).home_country == home)
            });
            if domestic {
                local_pref += DOMESTIC_BONUS;
            }
        }
        Some(Route {
            prefix: self.prefix,
            path,
            learned_from: Some(from),
            entry_city: Some(s.city),
            rel: Some(s.rel),
            local_pref,
            igp_cost: s.igp,
            age: self.clock,
        })
    }

    fn run(&mut self) -> Convergence {
        self.stats.events += 1;
        // Gauss–Seidel sweeps: each AS recomputes its selection *in place*,
        // so later ASes in the same sweep already see earlier updates.
        let n = self.world.graph.len();
        let cap = 2 * n + 16;
        let pre_event = self.best.clone();
        let mut activations = 0usize;
        let mut imports = 0usize;
        let mut result = None;
        for round in 0..cap {
            let mut changed = false;
            for x in 0..n {
                activations += 1;
                let (routes, tiers): (Vec<Route>, Vec<_>) =
                    self.candidates(x, &mut imports).into_iter().unzip();
                let winner = decision::select(&routes)
                    .map(|(r, _)| routes.iter().position(|c| std::ptr::eq(c, r)).unwrap());
                let new_best = winner.map(|i| routes[i].clone());
                let new_tier = winner.and_then(|i| tiers[i]);
                // A route that changed tier is a change, even over the same
                // session and path.
                let keep = match (&self.best[x], &new_best) {
                    (Some(old), Some(new)) => old.same_route(new) && self.tier[x] == new_tier,
                    (None, None) => true,
                    _ => false,
                };
                if !keep {
                    changed = true;
                    self.best[x] = new_best;
                    self.tier[x] = new_tier;
                }
            }
            if !changed {
                result = Some(Convergence {
                    rounds: round + 1,
                    converged: true,
                    activations,
                    imports,
                });
                break;
            }
        }
        // Age normalization: a final route equal to the pre-event one keeps
        // its original installation age, even if the AS flipped through
        // other routes transiently.
        for (x, old) in pre_event.into_iter().enumerate() {
            if let (Some(o), Some(cur)) = (old, self.best[x].as_mut()) {
                if o.same_route(cur) {
                    cur.age = o.age;
                }
            }
        }
        self.stats.activations += activations;
        self.stats.imports += imports;
        result.unwrap_or(Convergence {
            rounds: cap,
            converged: false,
            activations,
            imports,
        })
    }

    /// Takes the link between `a` and `b` down and reconverges. The oracle
    /// has no RIB state to tear, so `sessions_torn` counts the sessions
    /// over the link whose neighbor currently holds a route.
    pub fn fail_link(&mut self, a: Asn, b: Asn, at: Timestamp) -> Convergence {
        self.fault(a, b, at, |sim, key| sim.downed.insert(key), true)
    }

    /// Brings a downed link back up and reconverges.
    pub fn restore_link(&mut self, a: Asn, b: Asn, at: Timestamp) -> Convergence {
        self.fault(a, b, at, |sim, key| sim.downed.remove(&key), false)
    }

    /// Resets the sessions between `a` and `b`. Candidates are recomputed
    /// live every sweep, so a reset reconverges to the identical fixpoint;
    /// the recovery event is still counted.
    pub fn reset_link(&mut self, a: Asn, b: Asn, at: Timestamp) -> Convergence {
        self.fault(a, b, at, |sim, key| !sim.downed.contains(&key), true)
    }

    /// One fault on the link between `a` and `b`: a no-op for an unknown
    /// link or when `apply` reports nothing changed, otherwise a counted
    /// recovery event (tearing the live sessions when `tears`).
    fn fault(
        &mut self,
        a: Asn,
        b: Asn,
        at: Timestamp,
        apply: impl FnOnce(&mut Self, (NodeIdx, NodeIdx)) -> bool,
        tears: bool,
    ) -> Convergence {
        assert!(at >= self.clock, "time went backwards");
        self.clock = at;
        let g = &self.world.graph;
        let (Some(ia), Some(ib)) = (g.index_of(a), g.index_of(b)) else {
            return NO_OP;
        };
        let key = link_key(ia, ib);
        if !apply(self, key) {
            return NO_OP;
        }
        self.stats.recovery_events += 1;
        if tears {
            self.stats.sessions_torn += self.live_sessions(key);
        }
        let conv = self.run();
        self.stats.recovery_rounds += conv.rounds;
        conv
    }

    /// Applies one scheduled fault event.
    pub fn apply_fault(&mut self, fault: &TimedFault) -> Convergence {
        match fault.event {
            FaultEvent::LinkDown { a, b } => self.fail_link(a, b, fault.at),
            FaultEvent::LinkUp { a, b } => self.restore_link(a, b, fault.at),
            FaultEvent::SessionReset { a, b } => self.reset_link(a, b, fault.at),
        }
    }

    /// Declares which ASes filter AS-set-carrying (poisoned) imports.
    pub fn set_poison_filters<I: IntoIterator<Item = Asn>>(&mut self, asns: I) {
        let g = &self.world.graph;
        self.poison_filters = asns.into_iter().filter_map(|a| g.index_of(a)).collect();
    }

    /// Sessions over the link whose remote side currently holds a route —
    /// the ones a fault actually disturbs.
    fn live_sessions(&self, key: (NodeIdx, NodeIdx)) -> usize {
        let mut n = 0;
        for (x, other) in [(key.0, key.1), (key.1, key.0)] {
            if self.best[other].is_some() {
                n += self.sessions[x].iter().filter(|s| s.peer == other).count();
            }
        }
        n
    }

    /// The selected route at node `x` (path does not include `x` itself).
    pub fn best(&self, x: NodeIdx) -> Option<Route> {
        self.best[x].clone()
    }

    /// Cumulative effort counters since construction.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }
}
