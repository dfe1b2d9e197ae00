//! Legacy full-sweep propagation engine (reference implementation).
//!
//! This is the original Gauss–Seidel engine the event-driven
//! [`crate::sim::PrefixSim`] replaced: every AS, in a fixed round-robin
//! order, recomputes its best route from its neighbors' *current*
//! selections, re-running export and import policy for every session every
//! sweep; a fixpoint is reached when a full sweep changes nothing.
//! Round-robin is a fair activation sequence, under which safe
//! (dispute-free) policies provably converge, and a sweep cap turns any
//! genuine dispute wheel into a reported non-convergence instead of a
//! hang.
//!
//! It is kept — not feature-gated away — as the independent oracle the
//! differential tests compare the event-driven engine against, and as the
//! baseline the propagation bench measures speedups over. Route-age
//! semantics are normalized the same way (an AS whose final route equals
//! its pre-event route keeps the original installation age), so the two
//! engines agree route-for-route *including ages*.

use crate::decision;
use crate::route::Route;
use crate::sim::{
    link_key, Announcement, Convergence, EngineStats, Session, SimContext, NO_OP_CONVERGENCE,
};
use ir_topology::graph::NodeIdx;
use ir_topology::World;
use ir_types::{Asn, CityId, Prefix, Timestamp};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Per-prefix propagation state (full-sweep reference engine). Mirrors the
/// [`crate::sim::PrefixSim`] API, including the session-fault surface.
pub struct SweepSim<'w> {
    ctx: Arc<SimContext<'w>>,
    prefix: Prefix,
    announcement: Option<Announcement>,
    origin_idx: Option<NodeIdx>,
    announce_time: Timestamp,
    best: Vec<Option<Route>>,
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
        SweepSim::with_context(SimContext::shared(world), prefix)
    }

    /// Prepares a simulation for `prefix` over a shared context.
    pub fn with_context(ctx: Arc<SimContext<'w>>, prefix: Prefix) -> SweepSim<'w> {
        let n = ctx.world().graph.len();
        SweepSim {
            ctx,
            prefix,
            announcement: None,
            origin_idx: None,
            announce_time: Timestamp::ZERO,
            best: vec![None; n],
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
            .ctx
            .world()
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

    /// The candidate routes AS `x` can currently choose between, computed
    /// live (origination plus every import surviving neighbor export policy
    /// and `x`'s import policy).
    pub fn candidates(&self, x: NodeIdx) -> Vec<Route> {
        self.candidates_counted(x, &mut 0)
    }

    fn candidates_counted(&self, x: NodeIdx, imports: &mut usize) -> Vec<Route> {
        let mut cands = Vec::new();
        if let (Some(origin_idx), Some(ann)) = (self.origin_idx, &self.announcement) {
            if origin_idx == x {
                cands.push(Route::originate(
                    self.prefix,
                    ann.origination_path(),
                    self.announce_time,
                ));
            }
        }
        for s in self.ctx.sessions(x) {
            if !self.downed.is_empty() && self.downed.contains(&link_key(x, s.peer)) {
                continue;
            }
            if let Some(path) = self.export_of(s.peer, x, s) {
                *imports += 1;
                if !self.poison_filters.is_empty()
                    && self.poison_filters.contains(&x)
                    && path.has_set()
                {
                    continue;
                }
                if let Some(imported) = self.ctx.engine.import(
                    x,
                    s.peer,
                    s.city,
                    s.rel,
                    s.kind,
                    self.prefix,
                    path,
                    s.igp,
                    self.clock,
                ) {
                    cands.push(imported);
                }
            }
        }
        cands
    }

    /// What neighbor `nb` exports toward `x` over session `s` (`s` is the
    /// session from `x`'s perspective).
    fn export_of(&self, nb: NodeIdx, x: NodeIdx, s: &Session) -> Option<crate::path::AsPath> {
        let best = self.best[nb].as_ref()?;
        self.ctx
            .export_path(nb, x, s, best, self.announcement.as_ref())
    }

    fn run(&mut self) -> Convergence {
        self.stats.events += 1;
        // Gauss–Seidel sweeps: each AS recomputes its selection *in place*,
        // so later ASes in the same sweep already see earlier updates.
        let n = self.ctx.world().graph.len();
        let cap = 2 * n + 16;
        let pre_event = self.best.clone();
        let mut activations = 0usize;
        let mut imports = 0usize;
        let mut result = None;
        for round in 0..cap {
            let mut changed = false;
            for x in 0..n {
                activations += 1;
                let cands = self.candidates_counted(x, &mut imports);
                let new_best = decision::select(&cands).map(|(r, _)| r.clone());
                let keep = match (&self.best[x], &new_best) {
                    (Some(old), Some(new)) if old.same_route(new) => true,
                    (None, None) => true,
                    _ => false,
                };
                if !keep {
                    changed = true;
                    self.best[x] = new_best;
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
        // Age normalization, identical to the event engine's: a final route
        // equal to the pre-event one keeps its original installation age,
        // even if the AS flipped through other routes transiently.
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

    /// Takes the link between `a` and `b` down and reconverges. Mirrors
    /// [`crate::sim::PrefixSim::fail_link`]; the sweep engine has no rib
    /// state to tear, so `sessions_torn` counts the sessions over the link
    /// whose neighbor currently holds a route.
    pub fn fail_link(&mut self, a: Asn, b: Asn, at: Timestamp) -> Convergence {
        assert!(at >= self.clock, "time went backwards");
        self.clock = at;
        let Some(key) = self.link_nodes(a, b) else {
            return NO_OP_CONVERGENCE;
        };
        if !self.downed.insert(key) {
            return NO_OP_CONVERGENCE;
        }
        self.stats.recovery_events += 1;
        self.stats.sessions_torn += self.live_sessions(key);
        self.run_recovery()
    }

    /// Brings a downed link back up and reconverges.
    pub fn restore_link(&mut self, a: Asn, b: Asn, at: Timestamp) -> Convergence {
        assert!(at >= self.clock, "time went backwards");
        self.clock = at;
        let Some(key) = self.link_nodes(a, b) else {
            return NO_OP_CONVERGENCE;
        };
        if !self.downed.remove(&key) {
            return NO_OP_CONVERGENCE;
        }
        self.stats.recovery_events += 1;
        self.run_recovery()
    }

    /// Resets the sessions between `a` and `b`. The sweep engine recomputes
    /// candidates live every sweep, so a reset reconverges to the identical
    /// fixpoint; the recovery event is still counted.
    pub fn reset_link(&mut self, a: Asn, b: Asn, at: Timestamp) -> Convergence {
        assert!(at >= self.clock, "time went backwards");
        self.clock = at;
        let Some(key) = self.link_nodes(a, b) else {
            return NO_OP_CONVERGENCE;
        };
        if self.downed.contains(&key) {
            return NO_OP_CONVERGENCE;
        }
        self.stats.recovery_events += 1;
        self.stats.sessions_torn += self.live_sessions(key);
        self.run_recovery()
    }

    /// Applies one scheduled fault event.
    pub fn apply_fault(&mut self, fault: &ir_fault::TimedFault) -> Convergence {
        match fault.event {
            ir_fault::FaultEvent::LinkDown { a, b } => self.fail_link(a, b, fault.at),
            ir_fault::FaultEvent::LinkUp { a, b } => self.restore_link(a, b, fault.at),
            ir_fault::FaultEvent::SessionReset { a, b } => self.reset_link(a, b, fault.at),
        }
    }

    /// Declares which ASes filter AS-set-carrying (poisoned) imports.
    pub fn set_poison_filters<I: IntoIterator<Item = Asn>>(&mut self, asns: I) {
        let graph = &self.ctx.world().graph;
        self.poison_filters = asns.into_iter().filter_map(|a| graph.index_of(a)).collect();
    }

    /// Links currently down, as canonical `(low, high)` ASN pairs.
    pub fn downed_links(&self) -> Vec<(Asn, Asn)> {
        let g = &self.ctx.world().graph;
        self.downed
            .iter()
            .map(|&(a, b)| {
                let (x, y) = (g.asn(a), g.asn(b));
                (x.min(y), x.max(y))
            })
            .collect()
    }

    fn link_nodes(&self, a: Asn, b: Asn) -> Option<(NodeIdx, NodeIdx)> {
        let g = &self.ctx.world().graph;
        Some(link_key(g.index_of(a)?, g.index_of(b)?))
    }

    /// Sessions over the link whose remote side currently holds a route —
    /// the ones a fault actually disturbs.
    fn live_sessions(&self, key: (NodeIdx, NodeIdx)) -> usize {
        let mut n = 0;
        for (x, other) in [(key.0, key.1), (key.1, key.0)] {
            if self.best[other].is_some() {
                n += self
                    .ctx
                    .sessions(x)
                    .iter()
                    .filter(|s| s.peer == other)
                    .count();
            }
        }
        n
    }

    fn run_recovery(&mut self) -> Convergence {
        let conv = self.run();
        self.stats.recovery_rounds += conv.rounds;
        conv
    }

    /// The selected route at node `x` (path does not include `x` itself).
    /// Returned by value, like [`crate::sim::PrefixSim::best`], which
    /// materializes from compact storage.
    pub fn best(&self, x: NodeIdx) -> Option<Route> {
        self.best[x].clone()
    }

    /// Next-hop node and interconnection city at `x`, if `x` has a
    /// non-local route.
    pub fn next_hop(&self, x: NodeIdx) -> Option<(NodeIdx, CityId)> {
        let r = self.best[x].as_ref()?;
        let nb = r.learned_from?;
        Some((self.ctx.world().graph.index_of(nb)?, r.entry_city?))
    }

    /// The prefix being simulated.
    pub fn prefix(&self) -> Prefix {
        self.prefix
    }

    /// The world this simulation runs over.
    pub fn world(&self) -> &'w World {
        self.ctx.world()
    }

    /// Logical time of the last event.
    pub fn clock(&self) -> Timestamp {
        self.clock
    }

    /// Cumulative effort counters since construction.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_topology::GeneratorConfig;

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
}
