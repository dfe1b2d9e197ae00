//! In-place queries: a query edits the resident sim itself and rolls it
//! back when done — route rows from first-write journals, paths by arena
//! truncation, the rest from the [`Inputs`] and [`Ledger`] saved whole.

use super::{Inputs, Ledger, PrefixSim};
use crate::compact::{ColumnJournal, CompactRoute};
use crate::worklist::BitWorklist;
use ir_topology::graph::NodeIdx;
use ir_types::Prefix;
use std::sync::{Mutex, PoisonError};

/// What [`PrefixSim::begin_query`] saves and [`PrefixSim::end_query`] puts
/// back: the inputs and the ledger as whole values, the pending wave when
/// a capped base left one (`None` = empty), and the arena's extent. The
/// route rows are restored from the tables' first-write journals instead;
/// `ctx` and `defenses` are never written by a query, and `next`,
/// `pre_event` and `touched` are scratch that every event empties.
type Saved = (Inputs, Ledger, Option<BitWorklist>, crate::ArenaStats);

/// First-write journal storage for a sim's best table and adj-RIB-in,
/// owned by the caller between queries and lent to the sim for one query.
pub(crate) struct QueryJournals {
    best: ColumnJournal,
    rib: ColumnJournal,
}

/// One query running in place on a sim: the sim it edits plus what the
/// sim must be restored to. Dropping it — after the answer is built, on a
/// tripped budget, or while unwinding from a panic — rolls the
/// sim back, so a caller that reaches the sim through a lock declares the
/// query after the lock guard and no other caller ever sees a query's
/// edits. Journal storage comes from `pool` and goes back to it when there
/// is one (fresh, and dropped after, when there is not).
pub(crate) struct InPlaceQuery<'a, 'w> {
    pub(crate) sim: &'a mut PrefixSim<'w>,
    saved: Option<Saved>,
    pool: Option<&'a Mutex<Vec<QueryJournals>>>,
}

impl<'a, 'w> InPlaceQuery<'a, 'w> {
    /// Begins a query for `member` on `sim`, with journal storage from
    /// `pool` (or fresh when there is no pool or every stored journal is
    /// in use).
    pub(crate) fn begin(
        sim: &'a mut PrefixSim<'w>,
        member: Prefix,
        pool: Option<&'a Mutex<Vec<QueryJournals>>>,
    ) -> InPlaceQuery<'a, 'w> {
        let journals = pool.and_then(|p| p.lock().unwrap_or_else(PoisonError::into_inner).pop());
        let journals = journals.unwrap_or_else(|| sim.new_journals());
        let saved = Some(sim.begin_query(member, journals));
        InPlaceQuery { sim, saved, pool }
    }
}

impl Drop for InPlaceQuery<'_, '_> {
    fn drop(&mut self) {
        if let Some(saved) = self.saved.take() {
            let journals = self.sim.end_query(saved);
            if let (Some(pool), Some(journals)) = (self.pool, journals) {
                pool.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(journals);
            }
        }
    }
}

impl<'w> PrefixSim<'w> {
    /// Runs `f` on this sim in a rolled-back scope: whatever `f`
    /// announces, fails or edits, the sim leaves the call as it entered it
    /// (best table, adj-RIB-in, path arena, clock, faults, counters and
    /// every other field) on every exit, a panic unwinding out of `f`
    /// included. Inside the scope the sim starts with fresh per-query
    /// state: zero counters, no step budget, no certificate token, no
    /// oscillation witness. Path handles minted inside die with the scope.
    ///
    /// This is how one converged state serves many independent
    /// continuations — each poisoning target's rounds after a shared
    /// unpoisoned round 0 — at the cost of the rows each one writes.
    pub fn scoped<R>(&mut self, f: impl FnOnce(&mut PrefixSim<'w>) -> R) -> R {
        let prefix = self.inputs.prefix;
        let query = InPlaceQuery::begin(self, prefix, None);
        f(&mut *query.sim)
    }

    /// Empty first-write journals sized for this sim's two route tables.
    fn new_journals(&self) -> QueryJournals {
        QueryJournals {
            best: self.best.new_journal(),
            rib: self.rib.new_journal(),
        }
    }

    /// Begins an in-place what-if query on this (converged, resident) sim,
    /// retargeted at `member` — a prefix sharing its announcement shape, so
    /// the converged tables are the same by the universe's batching
    /// invariant. Saves the inputs by value and takes the ledger (the query
    /// starts with zero counters, no budget, no certificate token, no
    /// witness), marks the arena, and attaches `journals` to both route
    /// tables. The caller must hand the returned state to
    /// [`PrefixSim::end_query`] on every path out of the query.
    #[inline]
    fn begin_query(&mut self, member: Prefix, journals: QueryJournals) -> Saved {
        let inputs = self.inputs.clone();
        let ledger = std::mem::take(&mut self.ledger);
        // A capped base hands its pending wave to the query, as it would
        // to its own next event.
        let wave = (!self.wave.is_empty()).then(|| self.wave.clone());
        self.inputs.prefix = member;
        if let Some(ann) = self.inputs.announcement.as_mut() {
            ann.prefix = member;
        }
        self.best.start_journal(journals.best);
        self.rib.start_journal(journals.rib);
        (inputs, ledger, wave, self.arena.stats())
    }

    /// Ends an in-place query: rolls the route tables and the arena back
    /// and puts the saved inputs and ledger back, leaving the sim exactly
    /// as [`PrefixSim::begin_query`] found it. Safe to call while unwinding
    /// from a panic anywhere inside the query. Returns the emptied
    /// journals for reuse.
    #[inline]
    fn end_query(&mut self, (inputs, ledger, wave, mark): Saved) -> Option<QueryJournals> {
        let journals = match (self.best.roll_back(), self.rib.roll_back()) {
            (Some(best), Some(rib)) => Some(QueryJournals { best, rib }),
            _ => None,
        };
        self.arena.roll_back(mark);
        self.inputs = inputs;
        self.ledger = ledger;
        // A panic inside `run_event` unwinds with both worklists taken out
        // and the pre-event log full; put working ones back.
        self.pre_event.clear();
        self.touched.reset();
        let n = self.best.len();
        if self.next.capacity() < n {
            self.next = BitWorklist::new(n);
        }
        match wave {
            Some(wave) => self.wave = wave,
            None if self.wave.capacity() < n => self.wave = BitWorklist::new(n),
            None => self.wave.reset(),
        }
        journals
    }

    /// `(node, before, after)` for every best-table row the running query
    /// changed, ascending by node; `before` is the row as the query found
    /// it, and a row written back to its old value (age included) is not a
    /// change. Call [`PrefixSim::sort_best_journal`] first.
    pub(crate) fn best_changes(
        &self,
    ) -> impl Iterator<Item = (NodeIdx, Option<CompactRoute>, Option<CompactRoute>)> + '_ {
        self.best.journaled_changes()
    }

    /// Orders the best-table journal by node for
    /// [`PrefixSim::best_changes`].
    pub(crate) fn sort_best_journal(&mut self) {
        self.best.sort_journal();
    }
}
