//! The event loop: the worklist that runs one event to fixpoint
//! ([`PrefixSim::run_event`]), the decision process it re-selects with,
//! the export fan-out it activates listeners by, the [`StepBudget`] that
//! bounds it, and the probe that fast-forwards a proven oscillation.

use super::{ActivationOrder, Convergence, PrefixSim};
use crate::compact::{clamp_age, CompactRoute, RouteColumns, NO_CITY, NO_NODE};
use crate::decision::{decide, DecisionKey};
use crate::worklist::BitWorklist;
use ir_fault::ServiceClock;
use ir_topology::graph::NodeIdx;
use ir_types::{Asn, CityId, Relationship};

/// Cycle witness of an event that ended on a dispute wheel: the
/// wave-barrier state recurred, so [`PrefixSim`] jumped to the state the
/// round cap would have produced instead of executing the rounds in
/// between. See [`PrefixSim::last_oscillation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Oscillation {
    /// Waves after which the barrier state (best table, adj-RIB-in, pending
    /// wave) repeats.
    pub period: usize,
    /// Round of the snapshot the recurrence was proven against: the
    /// trajectory was periodic by this round at the latest.
    pub entered_by_round: usize,
    /// Rounds up to the cap that were not executed.
    /// `Convergence::rounds + rounds_skipped` is the round count the cap
    /// burn would have reported.
    pub rounds_skipped: usize,
    /// ASes whose selected route changed within one period, ascending.
    pub flapping: Vec<Asn>,
}

/// State of the oscillation probe inside [`PrefixSim::run_event`]: the
/// wave-barrier state at `round`, plus the ASes that re-selected since.
struct CycleProbe {
    round: usize,
    best: RouteColumns,
    rib: RouteColumns,
    pending: Vec<u64>,
    flapped: BitWorklist,
}

/// First-touch log entries a sim keeps allocated between events, so that
/// narrow events allocate nothing and wide ones leave no storage behind.
const PRE_EVENT_KEPT: usize = 1024;

/// First round the oscillation probe snapshots at. Convergence is far
/// shorter (a certified 50k-AS world settles a prefix in 9 waves; free
/// order never leaves round 1), so converging events never pay for it.
const PROBE_ARM_ROUND: usize = 16;

/// Cooperative work budget for one simulation's worklist runs — the
/// serving plane's deadline mechanism. A budget bounds an event's
/// activations (deterministic: the same query trips at the same point on
/// every run) and/or carries a wall deadline on a [`ServiceClock`].
/// [`PrefixSim::run_event`] checks the activation bound on every activation
/// and reads the clock every [`StepBudget::CHECK_INTERVAL`] activations; a
/// tripped budget ends the event early with `converged = false` and marks
/// the sim [`PrefixSim::budget_tripped`], so callers can distinguish
/// "deadline" from "dispute wheel" and degrade instead of hanging.
#[derive(Debug, Clone, Default)]
pub struct StepBudget {
    /// Activation ceiling per event (`None` = unlimited).
    max_activations: Option<u64>,
    /// The clock and the [`ServiceClock::now_ms`] reading at which the
    /// budget trips, polled cooperatively.
    deadline: Option<(ServiceClock, u64)>,
}

impl StepBudget {
    /// How many activations pass between deadline polls.
    pub const CHECK_INTERVAL: usize = 64;

    /// No limits — the default for every sim.
    pub fn unlimited() -> StepBudget {
        StepBudget::default()
    }

    /// Budget of at most `n` activations per event.
    pub fn activations(n: u64) -> StepBudget {
        StepBudget {
            max_activations: Some(n),
            deadline: None,
        }
    }

    /// Adds a wall deadline: the budget trips once `clock` reads `at_ms`
    /// or later.
    pub fn with_deadline(mut self, clock: ServiceClock, at_ms: u64) -> StepBudget {
        self.deadline = Some((clock, at_ms));
        self
    }

    /// Whether this budget can ever trip.
    pub fn is_unlimited(&self) -> bool {
        self.max_activations.is_none() && self.deadline.is_none()
    }
}

impl<'w> PrefixSim<'w> {
    /// The one candidate walk, inlined into the engine's selection loop: `f`
    /// sees the origination, the extra (hijack) origin, then the adj-RIB-in.
    #[inline]
    pub(super) fn for_each_candidate(&self, x: NodeIdx, mut f: impl FnMut(CompactRoute)) {
        let local = CompactRoute::local;
        let inputs = &self.inputs;
        if inputs.origin_idx == Some(x) && inputs.announcement.is_some() {
            f(local(
                inputs.ann_path,
                inputs.ann_path_len,
                inputs.announce_time,
            ));
        }
        if let Some(e) = inputs.extra_origins.get(&x) {
            f(local(e.path, e.path_len, e.at));
        }
        let rib = self.ctx.rib_base(x)..self.ctx.rib_base(x + 1);
        rib.filter_map(|i| self.rib.get(i)).for_each(f);
    }

    /// A compact row's decision key. The adj-RIB-in stores no ages and every
    /// live candidate carries the clock, so the age step always ties.
    pub(super) fn key(
        &self,
        r: CompactRoute,
    ) -> DecisionKey<impl Fn() -> (Option<Asn>, Option<CityId>) + '_> {
        let from = (r.learned_from != NO_NODE).then_some(r.learned_from as usize);
        let city = (r.city != NO_CITY).then_some(CityId(r.city));
        DecisionKey {
            local_pref: r.local_pref,
            path_len: usize::from(r.path_len),
            igp_cost: r.igp_cost,
            age: self.inputs.clock.0,
            router_id: move || (from.map(|i| self.ctx.world.graph.asn(i)), city),
        }
    }

    /// Runs the worklist seeded with `seeds` to fixpoint (every event has
    /// at most two seeds: the origin pair on re-origination, a link's
    /// endpoints on a fault). Seeded nodes re-export once unconditionally
    /// even if their selection is unchanged: a re-announcement can change
    /// the origin's export policy (`via`) without changing its local route.
    ///
    /// The worklist is wave-structured to replicate the Gauss–Seidel
    /// schedule of the reference sweep engine exactly: within a wave,
    /// nodes are processed in ascending index order, and a node activated
    /// by an update joins the *current* wave if its index is still ahead
    /// of the updater (a later AS in the same sweep sees earlier updates
    /// in place) or the *next* wave otherwise. Since re-evaluating a node
    /// whose inputs did not change is a no-op, this trajectory is the
    /// sweep trajectory with the no-ops skipped — so even configurations
    /// with multiple stable states (dispute gadgets the generator's
    /// preference deltas can produce) reach the *same* fixpoint as the
    /// oracle, not merely *a* fixpoint.
    ///
    /// Both worklists are [`BitWorklist`]s owned by the sim and reused
    /// across events. An event that stops at the round cap leaves its
    /// pending wave in `self.wave`, and the next event runs it together
    /// with its own seeds: those ASes still owe a re-selection, and the
    /// oracle — which re-evaluates everyone — would perform it. An event
    /// cut short mid-wave (budget, runaway free order) has no barrier state
    /// to hand on; a generation bump (not a word-array clear) discards its
    /// leftovers so they can never leak into a later event.
    ///
    /// **Oscillation fast-forward.** A dispute wheel never empties the
    /// worklist; the sweep oracle (and this engine before) burns all
    /// `2n + 16` rounds and reports whatever state the cap fired on. Within
    /// one event the clock, announcement, overlay, downed links, filters
    /// and defenses are constant and the seeds' forced re-export is spent
    /// in round 1, so the next wave is a pure function of the barrier state
    /// (`best`, `rib`, pending wave). Once that triple equals its value λ
    /// rounds earlier — compared slot for slot, best-route ages included
    /// (the adj-RIB-in keeps none); nothing is decided by a hash — the
    /// trajectory is periodic, and the state after
    /// the cap is the state after `(cap − r) mod λ` more rounds: run exactly
    /// those and stop. Snapshots are taken Brent-style at power-of-two
    /// rounds from [`PROBE_ARM_ROUND`] on. A full period has executed by
    /// the time the jump happens, so `pre_event` (age normalization,
    /// `routes_retained`) and the path arena already hold everything the
    /// skipped rounds would have added.
    pub(super) fn run_event(&mut self, seeds: [Option<NodeIdx>; 2]) -> Convergence {
        self.ledger.stats.events += 1;
        self.ledger.stats.ases_seeded += seeds.iter().flatten().count();
        let n = self.ctx.world.graph.len();
        // Same wave budget as the sweep engine's round cap: far beyond
        // anything a safe configuration needs, small enough to report a
        // dispute wheel promptly.
        let cap = 2 * n + 16;
        // Last round to execute: the cap, until a proven oscillation pulls
        // it in.
        let mut last_round = cap;
        let mut probe: Option<CycleProbe> = None;
        let mut oscillation: Option<Oscillation> = None;
        let mut force = seeds;
        // Take the worklists out of `self` so `push_exports` can borrow the
        // rest of the sim mutably; restored below (the `'event` break lands
        // there too).
        let mut wave = std::mem::take(&mut self.wave);
        let mut next = std::mem::take(&mut self.next);
        next.reset();
        for s in seeds.into_iter().flatten() {
            wave.insert(s);
        }
        let mut rounds = 0usize;
        let mut activations = 0usize;
        let mut imports = 0usize;
        let mut converged = true;
        // Deadline machinery, hoisted: the unlimited default costs one
        // branch per activation and never takes it.
        let budget_max = self.ledger.budget.max_activations.unwrap_or(u64::MAX);
        let budget_deadline = self.ledger.budget.deadline.clone();
        'event: while !wave.is_empty() {
            rounds += 1;
            if rounds > last_round {
                converged = false;
                break;
            }
            while let Some(x) = wave.pop_first() {
                activations += 1;
                if activations as u64 > budget_max
                    || (activations.is_multiple_of(StepBudget::CHECK_INTERVAL)
                        && budget_deadline
                            .as_ref()
                            .is_some_and(|(clock, at)| clock.now_ms() >= *at))
                {
                    converged = false;
                    self.ledger.budget_tripped = true;
                    self.ledger.stats.deadline_aborts += 1;
                    oscillation = None;
                    wave.reset();
                    break 'event;
                }
                if activations > cap.saturating_mul(n.max(1)) {
                    converged = false;
                    wave.reset();
                    break 'event;
                }
                let new_best = self.select_at(x);
                let old = self.best.get(x);
                // The same route in another tier (a sibling re-learned it
                // at another city of a hybrid link) is a change: it ranks
                // and exports differently downstream.
                let keep = match (&old, &new_best) {
                    (Some(o), Some(new)) => o.same_route(new) && o.rel == new.rel,
                    (None, None) => true,
                    _ => false,
                };
                let mut forced = false;
                for slot in force.iter_mut() {
                    if *slot == Some(x) {
                        *slot = None;
                        forced = true;
                    }
                }
                if !keep {
                    if self.touched.insert(x) {
                        self.pre_event.push((x, old));
                    }
                    self.best.set(x, new_best);
                    if let Some(p) = probe.as_mut() {
                        p.flapped.insert(x);
                    }
                }
                if !keep || forced {
                    imports += self.push_exports(x, &mut wave, &mut next);
                }
            }
            std::mem::swap(&mut wave, &mut next);
            if rounds < PROBE_ARM_ROUND || oscillation.is_some() || wave.is_empty() {
                continue;
            }
            if let Some(osc) = self.probe_barrier(&mut probe, &wave, rounds, cap) {
                last_round = cap - osc.rounds_skipped;
                oscillation = Some(osc);
            }
        }
        self.wave = wave;
        self.next = next;
        self.ledger.last_oscillation = oscillation;
        // Age normalization: an AS that ends the event on the same session
        // and path it started on keeps the original installation age, even
        // if it flipped through other routes transiently. The same pass
        // counts net route changes for the retention counter below.
        let mut changed = 0usize;
        for &(x, old) in &self.pre_event {
            match (old, self.best.get(x)) {
                (Some(o), Some(cur)) => {
                    if o.same_route(&cur) {
                        self.best.set_age(x, o.age);
                    } else {
                        changed += 1;
                    }
                }
                (None, Some(_)) => changed += 1,
                // (Some, None) is a loss, not a retention; (None, None)
                // was a transient that settled back to nothing.
                _ => {}
            }
        }
        self.pre_event.clear();
        self.pre_event.shrink_to(PRE_EVENT_KEPT);
        self.touched.reset();
        let stats = &mut self.ledger.stats;
        stats.routes_retained += self.best.occupied().saturating_sub(changed);
        stats.activations += activations;
        stats.imports += imports;
        Convergence {
            rounds,
            converged,
            activations,
            imports,
        }
    }

    /// Wave-barrier check of a long-running event (round ≥
    /// [`PROBE_ARM_ROUND`], `wave` = the pending set): has this state been
    /// seen before? Compares against the last snapshot — pending words
    /// first, they almost always differ, and the route columns only when
    /// those match — and returns the witness on a recurrence; otherwise
    /// re-snapshots at power-of-two rounds. Kept out of line: converging
    /// events never get here.
    #[cold]
    fn probe_barrier(
        &self,
        probe: &mut Option<CycleProbe>,
        wave: &BitWorklist,
        rounds: usize,
        cap: usize,
    ) -> Option<Oscillation> {
        match probe.take() {
            Some(mut p)
                if wave.same_pending(&p.pending)
                    && self.best.same_routes(&p.best)
                    && self.rib.same_routes(&p.rib) =>
            {
                let period = rounds - p.round;
                let graph = &self.ctx.world.graph;
                let mut flapping: Vec<Asn> =
                    std::iter::from_fn(|| p.flapped.pop_first().map(|x| graph.asn(x))).collect();
                flapping.sort_unstable();
                return Some(Oscillation {
                    period,
                    entered_by_round: p.round,
                    // The cap's state recurs `(cap − rounds) mod period`
                    // rounds from here; everything beyond is skipped.
                    rounds_skipped: (cap - rounds) / period * period,
                    flapping,
                });
            }
            _ if rounds.is_power_of_two() => {
                *probe = Some(CycleProbe {
                    round: rounds,
                    best: self.best.clone(),
                    rib: self.rib.clone(),
                    pending: wave.pending_words(),
                    flapped: BitWorklist::new(self.best.len()),
                });
            }
            kept => *probe = kept,
        }
        None
    }

    /// Best route at `x` per the decision process over the origination and
    /// the adj-RIB-in, with the winner re-stamped to the current clock (the
    /// age it would carry as a live candidate).
    pub(super) fn select_at(&self, x: NodeIdx) -> Option<CompactRoute> {
        let mut best: Option<CompactRoute> = None;
        self.for_each_candidate(x, |r| {
            if best.is_none_or(|b| decide(&self.key(r), &self.key(b)).0.is_lt()) {
                best = Some(r);
            }
        });
        let mut winner = best?;
        winner.age = clamp_age(self.inputs.clock);
        Some(winner)
    }

    /// Re-exports `x`'s current best over every session importing from `x`,
    /// refreshing the listeners' adj-RIB-in entries and activating exactly
    /// the listeners whose entry changed — into the current wave when
    /// still ahead of `x` this sweep, into the next wave otherwise.
    /// Returns the number of import evaluations performed.
    fn push_exports(
        &mut self,
        x: NodeIdx,
        wave: &mut BitWorklist,
        next: &mut BitWorklist,
    ) -> usize {
        let mut imports = 0;
        let free = self.inputs.order == ActivationOrder::Free;
        let (mut t, best, rib) = self.transfer();
        let sender = t.sender(x, best.get(x));
        for &(l, rib_idx) in t.ctx.listeners(x) {
            let (l, rib_idx) = (l as usize, rib_idx as usize);
            let s = t.ctx.session_at(rib_idx);
            let exported = t.export(&sender, l, s);
            // An unchanged exported path implies an unchanged import: every
            // other route attribute is a deterministic function of the
            // session, the path and — over a sibling session only — the
            // sender's tier (ages are re-stamped at selection). Equal paths
            // ⇔ equal handles, so this is one u32 compare, plus one byte
            // on a sibling session.
            let entry_pid = rib.path_id(rib_idx);
            let unchanged = match exported {
                None => entry_pid.is_empty(),
                Some(p) => {
                    p == entry_pid
                        && (s.rel != Relationship::Sibling
                            || rib
                                .get(rib_idx)
                                .is_some_and(|r| r.rel == sender.tag_over(s)))
                }
            };
            if unchanged {
                continue;
            }
            let imported = exported.and_then(|p| t.import(&mut imports, &sender, l, s, p));
            // The export changed but the import verdict didn't: nothing for
            // the listener to react to.
            if imported.is_none() && !rib.is_some(rib_idx) {
                continue;
            }
            rib.set(rib_idx, imported);
            if free || l > x {
                // Free order: no wave barrier, the current worklist takes
                // every activation (sound only under a unique fixpoint).
                wave.insert(l);
            } else {
                next.insert(l);
            }
        }
        imports
    }
}
