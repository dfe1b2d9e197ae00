//! Incremental what-if serving: converge once, answer deltas warm.
//!
//! The paper's methodology is counterfactual — "how would routing differ
//! if this policy (or link) changed?" — which the batch layer answers by
//! recomputing a whole universe per edit. This module holds the converged
//! state *resident* instead: a [`WhatIfEngine`] keeps one live
//! [`PrefixSim`] per announcement shape, and each query takes that sim's
//! lock, applies its [`Delta`] edits in place through seeded
//! reconvergence while the route tables journal the first write to every
//! row, builds its diff from the journal, and rolls everything back — so
//! the cost of a question scales with how far the edit's effects
//! propagate, not with the size of the internet.
//!
//! **The delta-seeding contract** (see DESIGN.md §11): an edit seeds the
//! worklist only from the AS(es) whose *inputs* changed. Everything else
//! retains its routes and is activated only if a changed export actually
//! reaches it; the generation-tagged [`crate::worklist::BitWorklist`]
//! makes reusing the worklists across events safe even after a capped
//! (unconverged) run. The differential suites prove warm answers
//! route-for-route identical — ages included — to cold recomputation.
//!
//! Queries are independent, so any number of threads may share one engine.
//! Queries on different shapes run in parallel; queries on one shape take
//! turns (see DESIGN.md §11 for why that wait is cheap).

use crate::extension::DefensePlan;
use crate::route::Route;
use crate::sim::{
    ActivationOrder, Delta, PrefixSim, QueryCheckpoint, QueryJournals, ShapeTable, SimContext,
    StepBudget,
};
use crate::universe::{converge_shapes, RoutingUniverse, UniverseResilience};
use ir_topology::graph::NodeIdx;
use ir_topology::World;
use ir_types::{Asn, Error, Prefix, Timestamp};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use std::time::Instant;

/// Most [`Delta`] edits one query may carry. A query holds its shape for
/// as long as its edits take, so the count is bounded up front; real
/// questions carry a handful.
pub const MAX_DELTAS_PER_QUERY: usize = 256;

/// One what-if question: a prefix and an ordered edit sequence to apply
/// over the converged base state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WhatIfQuery {
    /// The prefix whose routing the question is about.
    pub prefix: Prefix,
    /// Edits applied in order, each followed by seeded reconvergence.
    pub deltas: Vec<Delta>,
}

impl WhatIfQuery {
    /// A single-edit question.
    pub fn single(prefix: Prefix, delta: Delta) -> WhatIfQuery {
        WhatIfQuery {
            prefix,
            deltas: vec![delta],
        }
    }
}

/// Why one what-if query was rejected. Structured per cause so a serving
/// layer can map each to a distinct client-visible error, and returned per
/// query so one bad query never aborts a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// The queried prefix is not resident in this engine.
    UnknownPrefix(Prefix),
    /// A delta names an AS that does not exist in the world. (Applying it
    /// anyway would silently no-op — rejecting is kinder to callers who
    /// typoed an ASN.)
    UnknownAsn(Asn),
    /// A link edit names two known ASes with no session between them.
    /// (Applying it anyway would report a phantom link as failed or
    /// restored — the same silent no-op, one level up.)
    UnknownLink(Asn, Asn),
    /// The query carries more than [`MAX_DELTAS_PER_QUERY`] edits.
    TooManyDeltas {
        /// Edits the query carried.
        got: usize,
        /// The cap.
        max: usize,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::UnknownPrefix(p) => write!(f, "prefix {p} is not resident"),
            QueryError::UnknownAsn(a) => write!(f, "delta references unknown AS {a}"),
            QueryError::UnknownLink(a, b) => {
                write!(f, "delta references unknown link {a}–{b}")
            }
            QueryError::TooManyDeltas { got, max } => {
                write!(f, "query carries {got} deltas; at most {max} are allowed")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// What a [`Delta`] edit set does to the world's safety certificate,
/// judged statically — *before* the edits are applied — by a
/// [`DeltaCertifier`].
///
/// The contract the serving plane relies on:
///
/// * [`CertificateDelta::Preserved`] — every cumulative prefix of the edit
///   sequence keeps the certified world certified, so the unique-fixpoint
///   guarantee holds at every intermediate state and the free activation
///   order stays sound end to end.
/// * [`CertificateDelta::Revoked`] — some prefix of the sequence breaks a
///   certification condition; `rule` names the rule or condition
///   (`"IR-A002"`, `"GR-PREF"`, …) and `witness` describes the concrete
///   violation. The engine must fall back to wave-exact scheduling.
/// * [`CertificateDelta::Unknown`] — the certifier cannot judge the edit
///   (uncertified base, unknown ASN, …). **Unknown always falls back to
///   wave-exact**: correctness is never traded for speed on a guess.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertificateDelta {
    /// The edits provably keep the safety certificate.
    Preserved,
    /// The edits break certification; wave-exact scheduling is required.
    Revoked {
        /// Rule or certificate-condition code, e.g. `IR-A002`, `GR-PREF`.
        rule: String,
        /// Human-readable description of the violation found.
        witness: String,
    },
    /// The certifier cannot judge the edit; treated like a revocation.
    Unknown,
}

impl CertificateDelta {
    /// Whether the free activation order stays licensed under the edits.
    pub fn preserved(&self) -> bool {
        matches!(self, CertificateDelta::Preserved)
    }
}

impl std::fmt::Display for CertificateDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertificateDelta::Preserved => write!(f, "preserved"),
            CertificateDelta::Revoked { rule, .. } => write!(f, "revoked:{rule}"),
            CertificateDelta::Unknown => write!(f, "unknown"),
        }
    }
}

/// Incremental certificate maintenance, abstract over the analyzer.
///
/// `ir-audit` implements this with its `DeltaAuditor` (incremental
/// re-checks scoped to the edited ASes); the engine only needs the
/// verdict. Defined here — not in `ir-audit` — because the audit crate
/// already depends on this one, and the engine must consult the verdict
/// without a dependency cycle.
///
/// Implementations must be pure with respect to the engine's world (judge
/// the edits, mutate nothing) and thread-safe: concurrent queries consult
/// the certifier from several threads at once.
pub trait DeltaCertifier: Send + Sync {
    /// Judges an ordered edit sequence against the certified base world.
    fn audit_deltas(&self, deltas: &[Delta]) -> CertificateDelta;
}

/// One AS whose selected route changed under the query's edits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteDiff {
    /// The AS whose selection changed.
    pub asn: Asn,
    /// Selected route before the edits (`None` = no route).
    pub before: Option<Route>,
    /// Selected route after the edits (`None` = no route).
    pub after: Option<Route>,
}

/// Effort and retention accounting for one answered query — the
/// observable proof that delta reconvergence only touched what changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// [`Delta`] edits applied.
    pub deltas_applied: usize,
    /// Worklist seed nodes across the edits (the ASes whose inputs
    /// changed — at most two per edit).
    pub ases_seeded: usize,
    /// Selection recomputations across the reconvergences.
    pub activations: usize,
    /// Import policy evaluations across the reconvergences.
    pub imports: usize,
    /// Worklist rounds across the reconvergences.
    pub rounds: usize,
    /// ASes whose selected route is unchanged vs. the base (full route
    /// equality, age included).
    pub routes_retained: usize,
    /// ASes whose selected route differs from the base (= `diffs.len()`).
    pub routes_changed: usize,
    /// Whether every reconvergence (and the base) reached a fixpoint.
    pub converged: bool,
    /// The query's [`StepBudget`] tripped (deadline): reconvergence was
    /// abandoned and the answer is degraded — it reports the *base* routes
    /// (empty diff), not the post-edit fixpoint.
    pub deadline_aborted: bool,
}

/// The answer to a [`WhatIfQuery`]: the structured route diff against the
/// converged base, plus [`DeltaStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WhatIfAnswer {
    /// The queried prefix.
    pub prefix: Prefix,
    /// Every AS whose selection changed, ascending by node index. ASes not
    /// listed kept their base route exactly.
    pub diffs: Vec<RouteDiff>,
    /// Effort and retention accounting.
    pub stats: DeltaStats,
    /// The [`DeltaCertifier`]'s verdict on the query's edits, when one was
    /// consulted: `Some` only for free-order engines with a certifier
    /// attached ([`WhatIfEngine::set_certifier`]). Anything but
    /// [`CertificateDelta::Preserved`] means the answer was computed under
    /// the wave-exact fallback.
    pub certificate: Option<CertificateDelta>,
}

/// Same-shape contention of a [`WhatIfEngine`]: queries that found another
/// query running on their shape and waited for it, and the total time they
/// waited. Statistics only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShapeWaits {
    /// Queries that waited for their shape.
    pub queries: u64,
    /// Total wait across those queries, µs.
    pub total_us: u64,
}

/// One resident converged shape: the live sim its queries run on, behind
/// the lock that lets one query at a time edit it in place.
struct ShapeState<'w> {
    sim: RwLock<PrefixSim<'w>>,
    converged: bool,
}

impl<'w> ShapeState<'w> {
    fn new(sim: PrefixSim<'w>, converged: bool) -> ShapeState<'w> {
        ShapeState {
            sim: RwLock::new(sim),
            converged,
        }
    }

    /// Read access to the base. A poisoned lock is read through: the
    /// panicking query's [`InPlaceQuery`] restored the base while
    /// unwinding, before the lock was released.
    fn read(&self) -> RwLockReadGuard<'_, PrefixSim<'w>> {
        self.sim.read().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One query running in place on a shape's sim: the write lock plus what
/// the sim must be restored to. Dropping it — after the answer is built,
/// on a tripped budget or cancel, or while unwinding from a panic — rolls
/// the sim back *before* the lock is released (a struct's fields drop
/// after its `drop` runs), so no other caller ever sees a query's edits.
/// The journal storage goes back to the engine's pool.
struct InPlaceQuery<'a, 'w> {
    sim: RwLockWriteGuard<'a, PrefixSim<'w>>,
    saved: Option<QueryCheckpoint>,
    pool: &'a Mutex<Vec<QueryJournals>>,
}

impl<'a, 'w> InPlaceQuery<'a, 'w> {
    /// Begins a query for `member` on the locked `sim`, with journal
    /// storage from `pool` (or fresh when every stored journal is in use).
    fn begin(
        mut sim: RwLockWriteGuard<'a, PrefixSim<'w>>,
        member: Prefix,
        pool: &'a Mutex<Vec<QueryJournals>>,
    ) -> InPlaceQuery<'a, 'w> {
        let journals = pool.lock().unwrap_or_else(PoisonError::into_inner).pop();
        let journals = journals.unwrap_or_else(|| sim.new_journals());
        let saved = Some(sim.begin_query(member, journals));
        InPlaceQuery { sim, saved, pool }
    }
}

impl Drop for InPlaceQuery<'_, '_> {
    fn drop(&mut self) {
        if let Some(saved) = self.saved.take() {
            if let Some(journals) = self.sim.end_query(saved) {
                self.pool
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(journals);
            }
        }
    }
}

/// A resident what-if service over one world: converge once (or adopt a
/// [`RoutingUniverse`] via [`WhatIfEngine::from_universe`]), then answer
/// policy/topology deltas by seeded reconvergence in place, rolled back
/// after every answer.
///
/// ```
/// use ir_bgp::{Delta, WhatIfEngine, WhatIfQuery};
/// use ir_topology::GeneratorConfig;
///
/// let world = GeneratorConfig::tiny().build(1);
/// let origin = world.graph.nodes().iter().find(|n| !n.prefixes.is_empty()).unwrap();
/// let (asn, prefix) = (origin.asn, origin.prefixes[0]);
/// let peer = world.graph.links(world.graph.index_of(asn).unwrap())[0].peer;
/// let peer_asn = world.graph.asn(peer);
///
/// let engine = WhatIfEngine::new(&world, &[prefix]);
/// let answer = engine
///     .query(&WhatIfQuery::single(prefix, Delta::LinkDown { a: asn, b: peer_asn }))
///     .unwrap();
/// assert!(answer.stats.converged);
/// // The base engine is untouched: ask again, get the same answer.
/// let again = engine
///     .query(&WhatIfQuery::single(prefix, Delta::LinkDown { a: asn, b: peer_asn }))
///     .unwrap();
/// assert_eq!(answer, again);
/// ```
pub struct WhatIfEngine<'w> {
    world: &'w World,
    order: ActivationOrder,
    shapes: Vec<ShapeState<'w>>,
    /// Prefix → index into `shapes`.
    by_prefix: BTreeMap<Prefix, usize>,
    /// Logical clock the base converged at; query edits are stamped after
    /// it (one minute apart, like the fault schedules).
    base_clock: Timestamp,
    /// Incremental certificate maintenance for free-order engines; see
    /// [`WhatIfEngine::set_certifier`]. `None` = judge nothing (queries on
    /// a free-order engine then rely on the sim's own preference-edit
    /// downgrade).
    certifier: Option<Box<dyn DeltaCertifier + 'w>>,
    /// Idle first-write journals, one per query that ran at the same time
    /// at most: lent to a query, returned when it ends. Never tied to a
    /// shape.
    journals: Mutex<Vec<QueryJournals>>,
    /// [`ShapeWaits`] counters.
    waited: AtomicU64,
    waited_us: AtomicU64,
}

impl<'w> WhatIfEngine<'w> {
    /// Converges `prefixes` (plain announcements by their ground-truth
    /// owners at t=0, one propagation per announcement shape, in parallel)
    /// and keeps the state resident for querying.
    pub fn new(world: &'w World, prefixes: &[Prefix]) -> WhatIfEngine<'w> {
        Self::with_order(world, prefixes, ActivationOrder::default())
    }

    /// [`WhatIfEngine::new`] with an explicit scheduling discipline. Pass
    /// [`ActivationOrder::Free`] only for worlds certified dispute-free by
    /// `ir-audit` (unique fixpoint ⇒ warm and cold answers still agree).
    pub fn with_order(
        world: &'w World,
        prefixes: &[Prefix],
        order: ActivationOrder,
    ) -> WhatIfEngine<'w> {
        Self::with_order_defended(world, prefixes, order, None)
    }

    /// [`WhatIfEngine::with_order`] with a [`DefensePlan`] installed on
    /// every resident sim *before* the base convergence, so both the base
    /// routes and every forked query answer honor the plan's extensions —
    /// what the security scenario suite queries hijack deltas against.
    /// `None` is exactly [`WhatIfEngine::with_order`]. (The
    /// [`WhatIfEngine::from_universe`] path stays undefended: universe
    /// snapshots are computed without extensions.)
    pub fn with_order_defended(
        world: &'w World,
        prefixes: &[Prefix],
        order: ActivationOrder,
        defenses: Option<Arc<DefensePlan>>,
    ) -> WhatIfEngine<'w> {
        let shapes = converge_shapes(
            world,
            prefixes,
            order,
            true,
            &[],
            |sim| sim.set_defenses(defenses.clone()),
            |sim, converged, _, members| (ShapeState::new(sim, converged), members.to_vec()),
        );
        Self::assemble(world, order, shapes)
    }

    /// Adopts an already-converged [`RoutingUniverse`] without replaying
    /// propagation: each shape table is hydrated back into a live sim
    /// (best columns re-interned, adj-RIB-in re-derived from the converged
    /// invariant). The universe must be fully converged, computed without
    /// faults, and over this same `world` — the service path after
    /// reloading a snapshot from disk.
    pub fn from_universe(
        world: &'w World,
        universe: &RoutingUniverse,
        order: ActivationOrder,
    ) -> Result<WhatIfEngine<'w>, Error> {
        if !universe.unconverged().is_empty() {
            return Err(Error::incomplete(
                "what-if base",
                format!("{} unconverged prefixes", universe.unconverged().len()),
            ));
        }
        if universe.resilience() != UniverseResilience::default() {
            return Err(Error::incomplete(
                "what-if base",
                "universe was computed under faults; recompute quiet state first",
            ));
        }
        let world_asns: Vec<Asn> = world.graph.nodes().iter().map(|n| n.asn).collect();
        if universe.asns() != world_asns.as_slice() {
            return Err(Error::incomplete(
                "what-if base",
                "universe does not belong to this world (ASN table mismatch)",
            ));
        }
        // Rebuild the shape grouping from the Arc sharing the universe
        // recorded: first-seen order over the (deterministic) BTreeMap walk.
        let mut by_ptr: BTreeMap<usize, usize> = BTreeMap::new();
        let mut groups: Vec<(Asn, Vec<Prefix>, Arc<ShapeTable>)> = Vec::new();
        for (&prefix, table) in universe.tables() {
            let origin = universe.origin(prefix).ok_or_else(|| {
                Error::incomplete("what-if base", format!("prefix {prefix} has no origin"))
            })?;
            let ptr = Arc::as_ptr(table) as usize;
            match by_ptr.get(&ptr) {
                Some(&gi) => groups[gi].1.push(prefix),
                None => {
                    by_ptr.insert(ptr, groups.len());
                    groups.push((origin, vec![prefix], Arc::clone(table)));
                }
            }
        }
        let ctx = SimContext::shared(world);
        let shapes: Vec<(ShapeState<'w>, Vec<Prefix>)> = groups
            .par_iter()
            .map(|(origin, members, table)| {
                let rep = members[0];
                let sim = PrefixSim::hydrate(ctx.fork(), order, rep, *origin, table);
                (ShapeState::new(sim, true), members.clone())
            })
            .collect();
        Ok(Self::assemble(world, order, shapes))
    }

    fn assemble(
        world: &'w World,
        order: ActivationOrder,
        shapes: Vec<(ShapeState<'w>, Vec<Prefix>)>,
    ) -> WhatIfEngine<'w> {
        let mut by_prefix = BTreeMap::new();
        let mut states = Vec::with_capacity(shapes.len());
        let mut base_clock = Timestamp::ZERO;
        for (state, members) in shapes {
            base_clock = base_clock.max(state.read().clock());
            for m in members {
                by_prefix.insert(m, states.len());
            }
            states.push(state);
        }
        WhatIfEngine {
            world,
            order,
            shapes: states,
            by_prefix,
            base_clock,
            certifier: None,
            journals: Mutex::new(Vec::new()),
            waited: AtomicU64::new(0),
            waited_us: AtomicU64::new(0),
        }
    }

    /// Attaches incremental certificate maintenance: every query on a
    /// free-order engine first has its delta set judged by `certifier`,
    /// and unless the verdict is [`CertificateDelta::Preserved`] the
    /// query's fork transparently falls back to wave-exact scheduling —
    /// answers stay correct, never just fast. The verdict is surfaced in
    /// [`WhatIfAnswer::certificate`].
    ///
    /// Wave-exact engines never consult the certifier (there is no fast
    /// path to protect).
    pub fn set_certifier(&mut self, certifier: Box<dyn DeltaCertifier + 'w>) {
        self.certifier = Some(certifier);
    }

    /// Whether a [`DeltaCertifier`] is attached.
    pub fn has_certifier(&self) -> bool {
        self.certifier.is_some()
    }

    /// Answers one query: apply the edits to the prefix's shape in place
    /// (each stamped one minute after the last), diff against the base,
    /// and roll back. Rejections are per-cause [`QueryError`]s.
    ///
    /// No query's edits outlive it or are visible to another caller — the
    /// same engine answers any number of queries, concurrently from
    /// several threads. Queries on one shape take turns
    /// ([`WhatIfEngine::shape_waits`] counts the turns waited).
    pub fn query(&self, q: &WhatIfQuery) -> Result<WhatIfAnswer, QueryError> {
        self.query_budgeted(q, &StepBudget::unlimited())
    }

    /// [`WhatIfEngine::query`] under a [`StepBudget`] — the serving plane's
    /// deadline path. If the budget trips mid-reconvergence the answer
    /// **degrades instead of hanging**: the edits' effects are abandoned
    /// and the answer reports the base routes (empty diff) with
    /// [`DeltaStats::deadline_aborted`] set, so callers can attach their
    /// `degraded: ["deadline"]` marker and still respond.
    pub fn query_budgeted(
        &self,
        q: &WhatIfQuery,
        budget: &StepBudget,
    ) -> Result<WhatIfAnswer, QueryError> {
        let state = match self.by_prefix.get(&q.prefix) {
            Some(&i) => &self.shapes[i],
            None => return Err(QueryError::UnknownPrefix(q.prefix)),
        };
        self.validate_deltas(&q.deltas)?;
        // Certificate maintenance (free-order engines with a certifier
        // only), judged before the shape is locked: a preserved verdict
        // licenses the query to keep the free order across preference
        // edits; anything else downgrades it to the always-safe wave-exact
        // schedule before any edit applies.
        let certificate = match &self.certifier {
            Some(c) if self.order == ActivationOrder::Free => Some(c.audit_deltas(&q.deltas)),
            _ => None,
        };
        let mut query = InPlaceQuery::begin(self.lock_shape(state), q.prefix, &self.journals);
        let sim = &mut *query.sim;
        match &certificate {
            Some(CertificateDelta::Preserved) => sim.grant_certificate_token(),
            Some(_) => sim.set_order(ActivationOrder::WaveExact),
            None => {}
        }
        if !budget.is_unlimited() {
            sim.set_step_budget(budget.clone());
        }
        let base_occupied = sim.best_occupied();
        let mut stats = DeltaStats {
            converged: state.converged,
            ..DeltaStats::default()
        };
        for (i, delta) in q.deltas.iter().enumerate() {
            let at = Timestamp(self.base_clock.0 + 60 * (i as u64 + 1));
            // Re-target origination edits at the queried member prefix so
            // one delta sequence is meaningful for every member of a shape.
            let conv = match delta {
                Delta::Announce(ann) if ann.prefix != q.prefix => {
                    let mut ann = ann.clone();
                    ann.prefix = q.prefix;
                    sim.apply_delta(&Delta::Announce(ann), at)
                }
                _ => sim.apply_delta(delta, at),
            };
            stats.activations += conv.activations;
            stats.imports += conv.imports;
            stats.rounds += conv.rounds;
            stats.converged &= conv.converged;
            if sim.budget_tripped() {
                break;
            }
        }
        let sim_stats = sim.stats();
        stats.deltas_applied = sim_stats.deltas_applied;
        stats.ases_seeded = sim_stats.ases_seeded;
        if sim.budget_tripped() {
            // The query stopped mid-propagation; the tables are not a
            // fixpoint of anything. Don't diff them — answer with the base
            // routes, marked degraded.
            stats.deadline_aborted = true;
            return Ok(WhatIfAnswer {
                prefix: q.prefix,
                diffs: Vec::new(),
                stats,
                certificate,
            });
        }
        // Every row that differs from the base was written, so the best
        // table's journal holds all of them, with the base row as `before`.
        // Routes materialize for the queried member prefix.
        sim.sort_best_journal();
        let sim = &*sim;
        let mut lost = 0;
        let diffs: Vec<RouteDiff> = sim
            .best_changes()
            .map(|(x, before, after)| {
                lost += usize::from(before.is_some());
                RouteDiff {
                    asn: self.world.graph.asn(x),
                    before: before.map(|r| sim.materialize(r)),
                    after: after.map(|r| sim.materialize(r)),
                }
            })
            .collect();
        stats.routes_changed = diffs.len();
        stats.routes_retained = base_occupied - lost;
        Ok(WhatIfAnswer {
            prefix: q.prefix,
            diffs,
            stats,
            certificate,
        })
    }

    /// The write lock of `state`'s sim, counting the wait when another
    /// query holds it. A poisoned lock is cleared and used: a query that
    /// panicked restored the base in its [`InPlaceQuery`]'s `drop` while
    /// unwinding, before the lock was released, so the sim behind it is
    /// the untouched base.
    fn lock_shape<'s>(&self, state: &'s ShapeState<'w>) -> RwLockWriteGuard<'s, PrefixSim<'w>> {
        let recover = |poisoned: PoisonError<RwLockWriteGuard<'s, PrefixSim<'w>>>| {
            state.sim.clear_poison();
            poisoned.into_inner()
        };
        match state.sim.try_write() {
            Ok(sim) => sim,
            Err(TryLockError::Poisoned(poisoned)) => recover(poisoned),
            Err(TryLockError::WouldBlock) => {
                let started = Instant::now();
                let sim = state.sim.write().unwrap_or_else(recover);
                let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                self.waited.fetch_add(1, Ordering::Relaxed);
                self.waited_us.fetch_add(us, Ordering::Relaxed);
                sim
            }
        }
    }

    /// Queries so far that waited for another query on their shape, and
    /// how long in total.
    pub fn shape_waits(&self) -> ShapeWaits {
        ShapeWaits {
            queries: self.waited.load(Ordering::Relaxed),
            total_us: self.waited_us.load(Ordering::Relaxed),
        }
    }

    /// Rejects oversized edit lists and deltas that name ASes or links
    /// outside the world — the sim would treat the latter as silent
    /// no-ops, which is the right semantics for fault replay but the wrong
    /// one for a query API.
    fn validate_deltas(&self, deltas: &[Delta]) -> Result<(), QueryError> {
        if deltas.len() > MAX_DELTAS_PER_QUERY {
            return Err(QueryError::TooManyDeltas {
                got: deltas.len(),
                max: MAX_DELTAS_PER_QUERY,
            });
        }
        let graph = &self.world.graph;
        let check = |asn: Asn| graph.index_of(asn).ok_or(QueryError::UnknownAsn(asn));
        for delta in deltas {
            match delta {
                Delta::LinkDown { a, b } | Delta::LinkUp { a, b } => {
                    if graph.link(check(*a)?, check(*b)?).is_none() {
                        return Err(QueryError::UnknownLink(*a, *b));
                    }
                }
                Delta::NeighborPref { of, neighbor, .. }
                | Delta::ExportPrepend { of, neighbor, .. }
                | Delta::PartialTransit { of, neighbor, .. } => {
                    check(*of)?;
                    check(*neighbor)?;
                }
                Delta::SelectiveAnnounce { of, .. } | Delta::PoisonFilter { of, .. } => {
                    check(*of)?;
                }
                Delta::Announce(ann) => {
                    check(ann.origin)?;
                }
                // Only the attacker must exist; a forged origin may be any
                // ASN — attackers forge nonexistent origins too.
                Delta::Hijack { attacker, .. } => {
                    check(*attacker)?;
                }
                Delta::Withdraw => {}
            }
        }
        Ok(())
    }

    /// Whether `prefix` is resident in the engine — O(log n) map lookup,
    /// cheap enough for admission-time checks on every request.
    pub fn is_resident(&self, prefix: Prefix) -> bool {
        self.by_prefix.contains_key(&prefix)
    }

    /// The base (pre-edit) route at node `x` for a resident prefix.
    pub fn base_route(&self, prefix: Prefix, x: NodeIdx) -> Option<Route> {
        let sim = self.shapes[*self.by_prefix.get(&prefix)?].read();
        let r = sim.best_compact(x)?;
        let mut route = sim.materialize(r);
        route.prefix = prefix;
        Some(route)
    }

    /// The world this engine serves.
    pub fn world(&self) -> &'w World {
        self.world
    }

    /// The scheduling discipline queries reconverge under.
    pub fn order(&self) -> ActivationOrder {
        self.order
    }

    /// Resident prefixes, ascending.
    pub fn prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.by_prefix.keys().copied()
    }

    /// Distinct announcement shapes held resident (= live base sims).
    pub fn shape_count(&self) -> usize {
        self.shapes.len()
    }

    /// Whether every base shape reached a fixpoint.
    pub fn base_converged(&self) -> bool {
        self.shapes.iter().all(|s| s.converged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::prefix_owners;
    use ir_topology::GeneratorConfig;

    fn world() -> World {
        GeneratorConfig::tiny().build(3)
    }

    fn stub_prefix(w: &World) -> (Asn, Prefix) {
        let owners = prefix_owners(w);
        let (&p, &o) = owners.iter().next().unwrap();
        (o, p)
    }

    #[test]
    fn noop_edit_retains_every_route() {
        let w = world();
        let (origin, prefix) = stub_prefix(&w);
        let engine = WhatIfEngine::new(&w, &[prefix]);
        // Clearing an override nobody set is a no-op delta.
        let q = WhatIfQuery::single(
            prefix,
            Delta::NeighborPref {
                of: origin,
                neighbor: origin,
                delta: None,
            },
        );
        let a = engine.query(&q).unwrap();
        assert!(a.diffs.is_empty());
        assert_eq!(a.stats.routes_changed, 0);
        assert!(a.stats.converged);
        assert_eq!(a.stats.deltas_applied, 1);
    }

    #[test]
    fn link_down_query_diffs_against_untouched_base() {
        let w = world();
        let (origin, prefix) = stub_prefix(&w);
        let oidx = w.graph.index_of(origin).unwrap();
        let peer = w.graph.links(oidx)[0].peer;
        let peer_asn = w.graph.asn(peer);
        let engine = WhatIfEngine::new(&w, &[prefix]);
        let before_at_peer = engine.base_route(prefix, peer);
        let q = WhatIfQuery::single(
            prefix,
            Delta::LinkDown {
                a: origin,
                b: peer_asn,
            },
        );
        let a = engine.query(&q).unwrap();
        assert!(a.stats.converged);
        // The neighbor's route changed (it was using the direct link).
        let peer_diff = a.diffs.iter().find(|d| d.asn == peer_asn);
        if before_at_peer
            .as_ref()
            .is_some_and(|r| r.learned_from == Some(origin))
        {
            let d = peer_diff.expect("direct neighbor must be in the diff");
            assert_eq!(d.before, before_at_peer);
            assert_ne!(d.before, d.after);
        }
        // The base engine is untouched.
        assert_eq!(engine.base_route(prefix, peer), before_at_peer);
        // Accounting is consistent.
        let n_with_routes = a.stats.routes_retained + a.stats.routes_changed;
        assert!(n_with_routes <= w.graph.len());
        assert_eq!(a.stats.routes_changed, a.diffs.len());
        assert_eq!(a.stats.ases_seeded, 2, "a link edit seeds both endpoints");
    }

    #[test]
    fn unknown_prefix_is_a_structured_error() {
        let w = world();
        let (_, prefix) = stub_prefix(&w);
        let engine = WhatIfEngine::new(&w, &[prefix]);
        let other: Prefix = "203.0.113.0/24".parse().unwrap();
        assert_eq!(
            engine.query(&WhatIfQuery::single(other, Delta::Withdraw)),
            Err(QueryError::UnknownPrefix(other))
        );
    }

    #[test]
    fn unknown_asn_is_a_structured_error() {
        let w = world();
        let (origin, prefix) = stub_prefix(&w);
        let engine = WhatIfEngine::new(&w, &[prefix]);
        let ghost = Asn(4_000_000_000);
        assert!(w.graph.index_of(ghost).is_none(), "ghost AS must not exist");
        let q = WhatIfQuery::single(
            prefix,
            Delta::LinkDown {
                a: origin,
                b: ghost,
            },
        );
        assert_eq!(engine.query(&q), Err(QueryError::UnknownAsn(ghost)));
    }

    #[test]
    fn link_edit_between_non_adjacent_ases_is_a_structured_error() {
        let w = world();
        let (origin, prefix) = stub_prefix(&w);
        let engine = WhatIfEngine::new(&w, &[prefix]);
        let oidx = w.graph.index_of(origin).unwrap();
        let stranger = (0..w.graph.len())
            .find(|&x| x != oidx && w.graph.link(oidx, x).is_none())
            .map(|x| w.graph.asn(x))
            .expect("some AS is not adjacent to the origin");
        let down = Delta::LinkDown {
            a: origin,
            b: stranger,
        };
        assert_eq!(
            engine.query(&WhatIfQuery::single(prefix, down)),
            Err(QueryError::UnknownLink(origin, stranger))
        );
        let up = Delta::LinkUp {
            a: stranger,
            b: origin,
        };
        assert_eq!(
            engine.query(&WhatIfQuery::single(prefix, up)),
            Err(QueryError::UnknownLink(stranger, origin))
        );
        // A real link, named in either direction, is still accepted.
        let peer = w.graph.asn(w.graph.links(oidx)[0].peer);
        let q = WhatIfQuery::single(prefix, Delta::LinkDown { a: peer, b: origin });
        assert!(engine.query(&q).is_ok());
    }

    #[test]
    fn too_many_deltas_is_a_structured_error() {
        let w = world();
        let (_, prefix) = stub_prefix(&w);
        let engine = WhatIfEngine::new(&w, &[prefix]);
        let mut q = WhatIfQuery {
            prefix,
            deltas: vec![Delta::Withdraw; MAX_DELTAS_PER_QUERY],
        };
        assert!(engine.query(&q).is_ok(), "the cap itself is allowed");
        q.deltas.push(Delta::Withdraw);
        assert_eq!(
            engine.query(&q),
            Err(QueryError::TooManyDeltas {
                got: MAX_DELTAS_PER_QUERY + 1,
                max: MAX_DELTAS_PER_QUERY,
            })
        );
    }

    #[test]
    fn engine_is_shareable_and_counts_no_waits_alone() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<WhatIfEngine<'static>>();
        let w = world();
        let (_, prefix) = stub_prefix(&w);
        let engine = WhatIfEngine::new(&w, &[prefix]);
        engine
            .query(&WhatIfQuery::single(prefix, Delta::Withdraw))
            .unwrap();
        assert_eq!(engine.shape_waits(), ShapeWaits::default());
    }

    #[test]
    fn one_bad_query_does_not_abort_the_batch() {
        let w = world();
        let (origin, prefix) = stub_prefix(&w);
        let engine = WhatIfEngine::new(&w, &[prefix]);
        let other: Prefix = "203.0.113.0/24".parse().unwrap();
        let queries = [
            WhatIfQuery::single(prefix, Delta::Withdraw),
            WhatIfQuery::single(other, Delta::Withdraw),
            WhatIfQuery::single(
                prefix,
                Delta::LinkDown {
                    a: origin,
                    b: Asn(4_000_000_000),
                },
            ),
            WhatIfQuery::single(prefix, Delta::Withdraw),
        ];
        let results: Vec<_> = queries.iter().map(|q| engine.query(q)).collect();
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(QueryError::UnknownPrefix(other)));
        assert_eq!(results[2], Err(QueryError::UnknownAsn(Asn(4_000_000_000))));
        assert_eq!(results[3], results[0]);
    }

    #[test]
    fn exhausted_budget_degrades_to_base_routes() {
        let w = world();
        let (_, prefix) = stub_prefix(&w);
        let engine = WhatIfEngine::new(&w, &[prefix]);
        // Withdrawing the prefix touches the whole graph; one activation
        // cannot finish it.
        let q = WhatIfQuery::single(prefix, Delta::Withdraw);
        let a = engine
            .query_budgeted(&q, &StepBudget::activations(1))
            .unwrap();
        assert!(a.stats.deadline_aborted, "budget must trip");
        assert!(!a.stats.converged);
        assert!(a.diffs.is_empty(), "degraded answer serves the base routes");
        // The same query under no budget converges and changes routes.
        let full = engine.query(&q).unwrap();
        assert!(full.stats.converged);
        assert!(!full.stats.deadline_aborted);
        assert!(full.stats.routes_changed > 0);
        // The base engine survives tripped queries untouched.
        assert_eq!(engine.query(&q).unwrap(), full);
    }

    #[test]
    fn budget_trip_is_deterministic() {
        let w = world();
        let (_, prefix) = stub_prefix(&w);
        let engine = WhatIfEngine::new(&w, &[prefix]);
        let q = WhatIfQuery::single(prefix, Delta::Withdraw);
        let budget = StepBudget::activations(7);
        let a = engine.query_budgeted(&q, &budget).unwrap();
        let b = engine.query_budgeted(&q, &budget).unwrap();
        assert_eq!(a, b, "same budget, same query ⇒ same (degraded) answer");
    }

    #[test]
    fn from_universe_answers_like_fresh_engine() {
        let w = world();
        let owners = prefix_owners(&w);
        let prefixes: Vec<Prefix> = owners.keys().copied().take(8).collect();
        let u = RoutingUniverse::compute(&w, &prefixes);
        let adopted = WhatIfEngine::from_universe(&w, &u, ActivationOrder::default()).unwrap();
        let fresh = WhatIfEngine::new(&w, &prefixes);
        assert_eq!(adopted.shape_count(), fresh.shape_count());
        for &p in &prefixes {
            let origin = owners[&p];
            let oidx = w.graph.index_of(origin).unwrap();
            let peer_asn = w.graph.asn(w.graph.links(oidx)[0].peer);
            let q = WhatIfQuery::single(
                p,
                Delta::LinkDown {
                    a: origin,
                    b: peer_asn,
                },
            );
            assert_eq!(adopted.query(&q), fresh.query(&q), "{p}");
            for x in 0..w.graph.len() {
                assert_eq!(adopted.base_route(p, x), fresh.base_route(p, x));
            }
        }
    }
}
