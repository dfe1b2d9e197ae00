//! Struct-of-arrays route storage: the compact layout behind the engines.
//!
//! A [`crate::route::Route`] is the *API boundary* type — convenient,
//! self-describing, but ~100+ heap bytes once the path clone is counted.
//! The engines store routes as [`CompactRoute`]s instead: a path handle
//! and seven scalars (25 bytes of column data; 11 in an adj-RIB-in, whose
//! slots know their session), with the path reduced to a [`PathId`] into
//! the per-context [`crate::patharena::PathArena`] and the neighbor
//! reduced to a dense node index. [`RouteColumns`] lays a table
//! of them out as parallel vectors (struct-of-arrays): the decision-process
//! scans touch only the columns they compare, and a whole adj-RIB-in is a
//! handful of flat allocations regardless of world size.
//!
//! Materialization back into `Route` happens only at the public API
//! boundary (`best`, `candidates`, `route`), so every consumer — and the
//! sweep-oracle differentials — see route-for-route identical values.
//!
//! The `age` column is `u32` seconds (saturating from [`Timestamp`]):
//! campaign clocks advance by ~hours per event, so a u32 covers ~136 years
//! of logical time, far beyond any schedule the harness generates.

use crate::patharena::{ArenaStats, PathId};
use ir_types::{Relationship, Timestamp};
use std::sync::Arc;

/// Sentinel node index: locally originated (no `learned_from` neighbor).
pub(crate) const NO_NODE: u32 = u32::MAX;
/// Sentinel city: local origination (no entry session).
pub(crate) const NO_CITY: u16 = u16::MAX;

/// Route tag of a local origination. A learned route's tag names the
/// session relationship and the tier the route ranks and exports at:
/// 1 / 2 / 3 for a customer / peer / provider session, whose tier is its
/// own, and 4 / 5 / 6 for a sibling session carrying the customer / peer /
/// provider tier the route had at the sibling ([`route_tag`]).
pub(crate) const REL_NONE: u8 = 0;

/// Tag of a route learned over a `rel` session at `tier` (which is `rel`
/// itself unless `rel` is [`Relationship::Sibling`]).
pub(crate) fn route_tag(rel: Relationship, tier: Relationship) -> u8 {
    let tier = match tier {
        Relationship::Customer | Relationship::Sibling => 1,
        Relationship::Peer => 2,
        Relationship::Provider => 3,
    };
    match rel {
        Relationship::Sibling => tier + 3,
        _ => tier,
    }
}

/// The session relationship of a tagged route (`None` = local).
pub(crate) fn rel_of_tag(tag: u8) -> Option<Relationship> {
    match tag {
        1 => Some(Relationship::Customer),
        2 => Some(Relationship::Peer),
        3 => Some(Relationship::Provider),
        4..=6 => Some(Relationship::Sibling),
        _ => None,
    }
}

/// The tier a tagged route ranks and exports at (`None` = local): always
/// customer, peer or provider, never sibling.
pub(crate) fn tier_of_tag(tag: u8) -> Option<Relationship> {
    match tag {
        1 | 4 => Some(Relationship::Customer),
        2 | 5 => Some(Relationship::Peer),
        3 | 6 => Some(Relationship::Provider),
        _ => None,
    }
}

/// Saturating `Timestamp` → column clamp.
pub(crate) fn clamp_age(at: Timestamp) -> u32 {
    u32::try_from(at.0).unwrap_or(u32::MAX)
}

/// One route in compact form — a plain `Copy` value loaded from / stored
/// into [`RouteColumns`]. Field semantics mirror [`crate::route::Route`];
/// the path is an arena handle and `learned_from` a node index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CompactRoute {
    /// Arena handle of the as-received path (never [`PathId::EMPTY`]).
    pub path: PathId,
    /// Cached BGP path length (decision step 2; avoids an arena probe).
    pub path_len: u16,
    /// Node index of the announcing neighbor, [`NO_NODE`] if local.
    pub learned_from: u32,
    /// Entry city, [`NO_CITY`] if local.
    pub city: u16,
    /// Session relationship at the entry city and carried tier
    /// ([`route_tag`]).
    pub rel: u8,
    /// Computed local preference.
    pub local_pref: i32,
    /// IGP cost to the entry interconnection.
    pub igp_cost: u32,
    /// Installation age, clamped seconds.
    pub age: u32,
}

impl CompactRoute {
    /// A local origination installed at `at`: no session attributes, and a
    /// local preference that beats every learned route.
    pub fn local(path: PathId, path_len: u16, at: Timestamp) -> CompactRoute {
        CompactRoute {
            path,
            path_len,
            learned_from: NO_NODE,
            city: NO_CITY,
            rel: REL_NONE,
            local_pref: i32::MAX,
            igp_cost: 0,
            age: clamp_age(at),
        }
    }

    /// Whether this is a local origination.
    pub fn is_local(&self) -> bool {
        self.learned_from == NO_NODE
    }

    /// Identity for route-age bookkeeping, mirroring
    /// [`crate::route::Route::same_route`]: same session (neighbor + city)
    /// and same path. Path equality is handle equality — the hash-consing
    /// payoff.
    pub fn same_route(&self, other: &CompactRoute) -> bool {
        self.learned_from == other.learned_from
            && self.city == other.city
            && self.path == other.path
    }
}

/// Where the routes of a table entered, one slot per route: the announcing
/// neighbor, the entry city, the relationship there and the IGP cost to
/// it. A best table stores its own; an adj-RIB-in shares the world's
/// per-session columns ([`RouteColumns::over_sessions`]).
#[derive(Clone)]
pub(crate) struct EntryColumns {
    learned_from: Vec<u32>,
    city: Vec<u16>,
    rel: Vec<u8>,
    igp_cost: Vec<u32>,
}

impl EntryColumns {
    /// `len` local-origination entries.
    fn local(len: usize) -> EntryColumns {
        EntryColumns {
            learned_from: vec![NO_NODE; len],
            city: vec![NO_CITY; len],
            rel: vec![REL_NONE; len],
            igp_cost: vec![0; len],
        }
    }

    /// One entry per session, in session order: `(peer, city, route tag,
    /// IGP cost)` — the attributes an import over that session stamps on
    /// its route, the tag for a customer-tier route where the session is a
    /// sibling session.
    pub fn from_sessions(sessions: impl Iterator<Item = (u32, u16, u8, u32)>) -> EntryColumns {
        let mut cols = EntryColumns::local(0);
        for (learned_from, city, rel, igp_cost) in sessions {
            cols.learned_from.push(learned_from);
            cols.city.push(city);
            cols.rel.push(rel);
            cols.igp_cost.push(igp_cost);
        }
        cols
    }
}

/// How a table knows where its routes entered and when they were
/// installed.
#[derive(Clone)]
enum Entries {
    /// A best table: its own entry attributes and installation ages.
    Own { entry: EntryColumns, age: Vec<u32> },
    /// An adj-RIB-in: the sessions' entry attributes, and no ages —
    /// selection re-stamps every candidate with the current clock, so a
    /// stored age would never be read. Loads report age 0. `tags` holds
    /// each slot's own route tag: over a sibling session, routes differ in
    /// the tier they carry.
    Sessions {
        entry: Arc<EntryColumns>,
        tags: Vec<u8>,
    },
}

/// A table of optional compact routes as parallel columns. Vacancy is
/// encoded in the `path` column ([`PathId::EMPTY`] = no route), so
/// presence checks touch one `u32` vector.
///
/// In an adj-RIB-in, slot `i` caches what arrived over session `i`, so the
/// entry attributes of every route it can hold are the session's own: that
/// table stores the path handle, its length, the local preference and the
/// route tag (11 bytes per slot) and reads the rest from the world's shared
/// [`EntryColumns`].
/// A best table stores all 25 bytes.
///
/// Every mutation goes through [`RouteColumns::set`], [`RouteColumns::take`]
/// or [`RouteColumns::set_age`]. That one funnel keeps the occupied count
/// exact and, while a [`ColumnJournal`] is attached, saves each block of
/// slots before its first write — how a what-if query edits a resident
/// table in place and puts it back afterwards.
pub(crate) struct RouteColumns {
    path: Vec<PathId>,
    path_len: Vec<u16>,
    local_pref: Vec<i32>,
    entries: Entries,
    /// Slots holding a route.
    occupied: usize,
    journal: Option<ColumnJournal>,
}

/// Slots per journal block. The first write to any slot of a block saves
/// the block's stored columns: a query that rewrites most of a table
/// journals it as a run of short sequential copies instead of one random
/// access per row, and one that touches a handful of slots saves a few
/// kilobytes.
const JOURNAL_BLOCK: usize = 32;

/// First-write journal of one [`RouteColumns`] table: every block written
/// since the journal was attached, as it was before its first write, plus
/// the occupied count. Storage is reused across queries: bumping the
/// generation forgets every saved block in O(1), and the saved columns
/// keep their capacity.
pub(crate) struct ColumnJournal {
    /// Per block, the generation that last saved it: a block is saved in
    /// this journal's current use iff its tag equals `generation`.
    saved_in: Vec<u32>,
    generation: u32,
    /// `(block, offset of its first slot in saved)`, in save order.
    blocks: Vec<(u32, u32)>,
    /// The saved blocks' columns, concatenated; same layout as the table.
    saved: Box<RouteColumns>,
    /// The table's occupied count when the journal was attached.
    occupied: usize,
}

/// A snapshot copy (the oscillation probe's) carries no journal: it is
/// never rolled back.
impl Clone for RouteColumns {
    fn clone(&self) -> RouteColumns {
        RouteColumns {
            path: self.path.clone(),
            path_len: self.path_len.clone(),
            local_pref: self.local_pref.clone(),
            entries: self.entries.clone(),
            occupied: self.occupied,
            journal: None,
        }
    }
}

impl RouteColumns {
    /// An all-vacant table of `len` slots.
    pub fn new(len: usize) -> RouteColumns {
        let entries = Entries::Own {
            entry: EntryColumns::local(len),
            age: vec![0; len],
        };
        RouteColumns::with_entries(len, entries)
    }

    /// An all-vacant adj-RIB-in: one slot per session, whose entry
    /// attributes are the session's own.
    pub fn over_sessions(sessions: Arc<EntryColumns>) -> RouteColumns {
        let len = sessions.learned_from.len();
        let tags = sessions.rel.clone();
        RouteColumns::with_entries(
            len,
            Entries::Sessions {
                entry: sessions,
                tags,
            },
        )
    }

    /// An empty journal shaped for this table.
    pub fn new_journal(&self) -> ColumnJournal {
        let entries = match &self.entries {
            Entries::Own { .. } => Entries::Own {
                entry: EntryColumns::local(0),
                age: Vec::new(),
            },
            Entries::Sessions { entry, .. } => Entries::Sessions {
                entry: Arc::clone(entry),
                tags: Vec::new(),
            },
        };
        ColumnJournal {
            saved_in: vec![0; self.len().div_ceil(JOURNAL_BLOCK)],
            generation: 1,
            blocks: Vec::new(),
            saved: Box::new(RouteColumns::with_entries(0, entries)),
            occupied: 0,
        }
    }

    fn with_entries(len: usize, entries: Entries) -> RouteColumns {
        RouteColumns {
            path: vec![PathId::EMPTY; len],
            path_len: vec![0; len],
            local_pref: vec![0; len],
            entries,
            occupied: 0,
            journal: None,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.path.len()
    }

    /// Whether slot `i` holds a route (one-column probe).
    pub fn is_some(&self, i: usize) -> bool {
        !self.path[i].is_empty()
    }

    /// Loads slot `i`.
    pub fn get(&self, i: usize) -> Option<CompactRoute> {
        if self.path[i].is_empty() {
            return None;
        }
        let (entry, rel, age) = match &self.entries {
            Entries::Own { entry, age } => (entry, entry.rel[i], age[i]),
            Entries::Sessions { entry, tags } => (&**entry, tags[i], 0),
        };
        Some(CompactRoute {
            path: self.path[i],
            path_len: self.path_len[i],
            learned_from: entry.learned_from[i],
            city: entry.city[i],
            rel,
            local_pref: self.local_pref[i],
            igp_cost: entry.igp_cost[i],
            age,
        })
    }

    /// Stores `r` into slot `i` (`None` vacates it). In an adj-RIB-in, `r`
    /// must carry slot `i`'s session attributes, and its age is dropped.
    pub fn set(&mut self, i: usize, r: Option<CompactRoute>) {
        self.journal_write(i);
        let was_some = self.is_some(i);
        match r {
            Some(r) => {
                debug_assert!(!r.path.is_empty(), "a route never carries an empty path");
                self.occupied += usize::from(!was_some);
                self.path[i] = r.path;
                self.path_len[i] = r.path_len;
                self.local_pref[i] = r.local_pref;
                match &mut self.entries {
                    Entries::Own { entry, age } => {
                        entry.learned_from[i] = r.learned_from;
                        entry.city[i] = r.city;
                        entry.rel[i] = r.rel;
                        entry.igp_cost[i] = r.igp_cost;
                        age[i] = r.age;
                    }
                    Entries::Sessions { entry, tags } => {
                        debug_assert!(
                            (
                                entry.learned_from[i],
                                entry.city[i],
                                rel_of_tag(entry.rel[i]),
                                entry.igp_cost[i]
                            ) == (r.learned_from, r.city, rel_of_tag(r.rel), r.igp_cost),
                            "slot {i} holds a route from another session"
                        );
                        tags[i] = r.rel;
                    }
                }
            }
            None => {
                self.occupied -= usize::from(was_some);
                self.path[i] = PathId::EMPTY;
            }
        }
    }

    /// Loads and vacates slot `i`.
    pub fn take(&mut self, i: usize) -> Option<CompactRoute> {
        let r = self.get(i);
        self.set(i, None);
        r
    }

    /// Raw path handle of slot `i` ([`PathId::EMPTY`] when vacant) — the
    /// one-u32 probe behind the unchanged-export fast path.
    pub fn path_id(&self, i: usize) -> PathId {
        self.path[i]
    }

    /// Overwrites only the stored age of slot `i` (age normalization of a
    /// best table; an adj-RIB-in keeps no ages).
    pub fn set_age(&mut self, i: usize, age: u32) {
        self.journal_write(i);
        if let Entries::Own { age: ages, .. } = &mut self.entries {
            ages[i] = age;
        }
    }

    /// Journals slot `i`'s block before a write, once per block; one
    /// branch when no journal is attached.
    #[inline]
    fn journal_write(&mut self, i: usize) {
        let Some(j) = self.journal.as_mut() else {
            return;
        };
        let block = i / JOURNAL_BLOCK;
        if j.saved_in[block] == j.generation {
            return;
        }
        j.saved_in[block] = j.generation;
        let (lo, hi) = (
            block * JOURNAL_BLOCK,
            ((block + 1) * JOURNAL_BLOCK).min(self.path.len()),
        );
        j.blocks.push((block as u32, j.saved.path.len() as u32));
        let saved = &mut j.saved;
        saved.path.extend_from_slice(&self.path[lo..hi]);
        saved.path_len.extend_from_slice(&self.path_len[lo..hi]);
        saved.local_pref.extend_from_slice(&self.local_pref[lo..hi]);
        match (&self.entries, &mut saved.entries) {
            (
                Entries::Own { entry, age },
                Entries::Own {
                    entry: into,
                    age: into_age,
                },
            ) => {
                into.learned_from
                    .extend_from_slice(&entry.learned_from[lo..hi]);
                into.city.extend_from_slice(&entry.city[lo..hi]);
                into.rel.extend_from_slice(&entry.rel[lo..hi]);
                into.igp_cost.extend_from_slice(&entry.igp_cost[lo..hi]);
                into_age.extend_from_slice(&age[lo..hi]);
            }
            (Entries::Sessions { tags, .. }, Entries::Sessions { tags: into, .. }) => {
                into.extend_from_slice(&tags[lo..hi]);
            }
            _ => unreachable!("a journal is shaped like its table"),
        }
    }

    /// Attaches an empty `journal` made by [`RouteColumns::new_journal`]:
    /// from here on, every block is saved before its first write.
    pub fn start_journal(&mut self, mut journal: ColumnJournal) {
        debug_assert!(journal.blocks.is_empty());
        journal.occupied = self.occupied;
        self.journal = Some(journal);
    }

    /// Detaches the journal, copies every saved block back — every column,
    /// so the table is restored byte for byte — and returns the emptied
    /// journal for reuse.
    pub fn roll_back(&mut self) -> Option<ColumnJournal> {
        let mut journal = self.journal.take()?;
        let saved = &journal.saved;
        for &(block, at) in &journal.blocks {
            let lo = block as usize * JOURNAL_BLOCK;
            let hi = (lo + JOURNAL_BLOCK).min(self.path.len());
            let from = at as usize..at as usize + (hi - lo);
            self.path[lo..hi].copy_from_slice(&saved.path[from.clone()]);
            self.path_len[lo..hi].copy_from_slice(&saved.path_len[from.clone()]);
            self.local_pref[lo..hi].copy_from_slice(&saved.local_pref[from.clone()]);
            match (&mut self.entries, &saved.entries) {
                (
                    Entries::Own { entry, age },
                    Entries::Own {
                        entry: was,
                        age: was_age,
                    },
                ) => {
                    entry.learned_from[lo..hi].copy_from_slice(&was.learned_from[from.clone()]);
                    entry.city[lo..hi].copy_from_slice(&was.city[from.clone()]);
                    entry.rel[lo..hi].copy_from_slice(&was.rel[from.clone()]);
                    entry.igp_cost[lo..hi].copy_from_slice(&was.igp_cost[from.clone()]);
                    age[lo..hi].copy_from_slice(&was_age[from]);
                }
                (Entries::Sessions { tags, .. }, Entries::Sessions { tags: was, .. }) => {
                    tags[lo..hi].copy_from_slice(&was[from]);
                }
                _ => unreachable!("a journal is shaped like its table"),
            }
        }
        self.occupied = journal.occupied;
        journal.blocks.clear();
        journal.saved.truncate();
        journal.generation = journal.generation.wrapping_add(1);
        if journal.generation == 0 {
            // Wrapped: clear the tags so no stale one can match again.
            journal.saved_in.fill(0);
            journal.generation = 1;
        }
        Some(journal)
    }

    /// Empties a journal's saved columns, keeping their capacity.
    fn truncate(&mut self) {
        self.path.clear();
        self.path_len.clear();
        self.local_pref.clear();
        match &mut self.entries {
            Entries::Own { entry, age } => {
                entry.learned_from.clear();
                entry.city.clear();
                entry.rel.clear();
                entry.igp_cost.clear();
                age.clear();
            }
            Entries::Sessions { tags, .. } => tags.clear(),
        }
    }

    /// Orders the journal by block, for [`RouteColumns::journaled_changes`].
    pub fn sort_journal(&mut self) {
        if let Some(j) = self.journal.as_mut() {
            j.blocks.sort_unstable();
        }
    }

    /// `(slot, before, after)` for every slot of a best table's saved
    /// blocks whose row differs from the saved one, age included, in
    /// journal order (ascending after [`RouteColumns::sort_journal`]). A
    /// slot written back to its old value is not a change; a slot never
    /// written cannot differ, so these are all the changes.
    pub fn journaled_changes(
        &self,
    ) -> impl Iterator<Item = (usize, Option<CompactRoute>, Option<CompactRoute>)> + '_ {
        debug_assert!(matches!(self.entries, Entries::Own { .. }));
        self.journal
            .iter()
            .flat_map(|j| j.blocks.iter().map(move |&(block, at)| (j, block, at)))
            .flat_map(move |(j, block, at)| {
                let lo = block as usize * JOURNAL_BLOCK;
                let hi = (lo + JOURNAL_BLOCK).min(self.path.len());
                (lo..hi).map(move |i| (i, j.saved.get(at as usize + i - lo), self.get(i)))
            })
            .filter(|(_, before, after)| before != after)
    }

    /// Logical table equality: the same slots are occupied and hold equal
    /// routes, ages included where the table keeps them. Vacant slots keep
    /// whatever their other columns last held, so this is not a plain
    /// column compare.
    pub fn same_routes(&self, other: &RouteColumns) -> bool {
        self.path == other.path
            && (0..self.path.len()).all(|i| self.path[i].is_empty() || self.get(i) == other.get(i))
    }

    /// Occupied slots (O(1): maintained by [`RouteColumns::set`]).
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Resident bytes of the column data (shared session columns are the
    /// world's, not the table's).
    pub fn bytes(&self) -> usize {
        let core =
            std::mem::size_of::<PathId>() + std::mem::size_of::<u16>() + std::mem::size_of::<i32>();
        let own = match &self.entries {
            Entries::Own { .. } => {
                std::mem::size_of::<u32>()
                    + std::mem::size_of::<u16>()
                    + std::mem::size_of::<u8>()
                    + std::mem::size_of::<u32>()
                    + std::mem::size_of::<u32>()
            }
            Entries::Sessions { .. } => std::mem::size_of::<u8>(),
        };
        self.path.len() * (core + own)
    }
}

/// Memory accounting for the compact storage stack, reported through
/// [`crate::EngineStats`] and asserted at internet scale by the
/// `scale_smoke` test: how many bytes the route state actually costs, and
/// how well the interning layer is sharing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryBudget {
    /// Bytes of route-column data (best table + adj-RIB-in).
    pub route_bytes: usize,
    /// Routes currently stored across those columns.
    pub routes: usize,
    /// Bytes held by the path arena (cells, dedup index, set table).
    pub arena_bytes: usize,
    /// Live cons cells in the arena.
    pub arena_cells: usize,
    /// Cons calls answered by hash-consing.
    pub intern_hits: u64,
    /// Cons calls that allocated a fresh cell.
    pub intern_misses: u64,
}

impl MemoryBudget {
    pub(crate) fn from_parts(route_bytes: usize, routes: usize, arena: ArenaStats) -> MemoryBudget {
        MemoryBudget {
            route_bytes,
            routes,
            arena_bytes: arena.bytes,
            arena_cells: arena.cells,
            intern_hits: arena.hits,
            intern_misses: arena.misses,
        }
    }

    /// Total bytes per stored route, arena included.
    pub fn bytes_per_route(&self) -> f64 {
        if self.routes == 0 {
            0.0
        } else {
            (self.route_bytes + self.arena_bytes) as f64 / self.routes as f64
        }
    }

    /// Fraction of cons calls answered without allocating.
    pub fn intern_hit_rate(&self) -> f64 {
        let total = self.intern_hits + self.intern_misses;
        if total == 0 {
            0.0
        } else {
            self.intern_hits as f64 / total as f64
        }
    }

    /// Field-wise sum (universe aggregation across shapes).
    pub(crate) fn absorb(&mut self, other: &MemoryBudget) {
        self.route_bytes += other.route_bytes;
        self.routes += other.routes;
        self.arena_bytes += other.arena_bytes;
        self.arena_cells += other.arena_cells;
        self.intern_hits += other.intern_hits;
        self.intern_misses += other.intern_misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(path: u32) -> CompactRoute {
        CompactRoute {
            path: PathId(path),
            path_len: 3,
            learned_from: 7,
            city: 2,
            rel: route_tag(Relationship::Peer, Relationship::Peer),
            local_pref: 200,
            igp_cost: 5,
            age: 60,
        }
    }

    #[test]
    fn columns_round_trip() {
        let mut cols = RouteColumns::new(4);
        assert_eq!(cols.occupied(), 0);
        cols.set(1, Some(r(9)));
        assert_eq!(cols.get(1), Some(r(9)));
        assert!(cols.is_some(1) && !cols.is_some(0));
        assert_eq!(cols.occupied(), 1);
        assert_eq!(cols.take(1), Some(r(9)));
        assert_eq!(cols.get(1), None);
        cols.set(2, Some(r(9)));
        cols.set(2, None);
        assert_eq!(cols.get(2), None);
    }

    #[test]
    fn same_routes_compares_occupied_slots_only() {
        let mut a = RouteColumns::new(3);
        let mut b = RouteColumns::new(3);
        a.set(0, Some(r(9)));
        b.set(0, Some(r(9)));
        // Slot 1 is vacant on both sides but carries different leftovers.
        a.set(1, Some(r(4)));
        a.set(1, None);
        assert!(a.same_routes(&b) && b.same_routes(&a));
        let mut older = r(9);
        older.age = 1;
        b.set(0, Some(older));
        assert!(!a.same_routes(&b), "ages are part of the state");
        b.set(0, Some(r(9)));
        b.set(2, Some(r(9)));
        assert!(!a.same_routes(&b), "occupancy differs");
    }

    #[test]
    fn rel_tags_round_trip() {
        use Relationship::{Customer, Peer, Provider, Sibling};
        assert_eq!((rel_of_tag(REL_NONE), tier_of_tag(REL_NONE)), (None, None));
        for rel in [Customer, Peer, Provider] {
            let tag = route_tag(rel, rel);
            assert_eq!((rel_of_tag(tag), tier_of_tag(tag)), (Some(rel), Some(rel)));
        }
        let mut tags = vec![];
        for tier in [Customer, Peer, Provider] {
            let tag = route_tag(Sibling, tier);
            assert_eq!(
                (rel_of_tag(tag), tier_of_tag(tag)),
                (Some(Sibling), Some(tier))
            );
            tags.push(tag);
        }
        assert_eq!(tags, [4, 5, 6], "a sibling tag per carried tier");
    }

    #[test]
    fn same_route_mirrors_route_identity() {
        let a = r(9);
        let mut b = a;
        b.age = 999;
        b.local_pref = -5;
        assert!(a.same_route(&b));
        b.city = 3;
        assert!(!a.same_route(&b));
    }

    #[test]
    fn age_clamp_saturates() {
        assert_eq!(clamp_age(Timestamp(5)), 5);
        assert_eq!(clamp_age(Timestamp(u64::MAX)), u32::MAX);
    }

    #[test]
    fn session_table_reads_entry_attributes_from_the_sessions() {
        let mut from_seven = r(9);
        from_seven.city = 5;
        let sessions = Arc::new(EntryColumns::from_sessions(
            [(7, 2, from_seven.rel, 5), (7, 5, from_seven.rel, 5)].into_iter(),
        ));
        let mut rib = RouteColumns::over_sessions(sessions);
        assert_eq!(rib.len(), 2);
        rib.set(1, Some(from_seven));
        let ageless = CompactRoute {
            age: 0,
            ..from_seven
        };
        assert_eq!(rib.get(1), Some(ageless), "an adj-RIB-in keeps no ages");
        assert_eq!(rib.get(0), None);
        assert_eq!(rib.bytes(), 2 * 11, "entry columns are the sessions'");
        assert_eq!(RouteColumns::new(2).bytes(), 2 * 25);
        let copy = rib.clone();
        assert!(copy.same_routes(&rib));
        // Journaled and rolled back without the session attributes.
        rib.start_journal(rib.new_journal());
        rib.set(1, None);
        let mut other = from_seven;
        other.local_pref = 7;
        rib.set(1, Some(other));
        rib.roll_back();
        assert!(rib.same_routes(&copy) && rib.occupied() == 1);
    }

    #[test]
    fn sibling_sessions_tag_each_slot_with_the_tier_it_carries() {
        use Relationship::{Peer, Provider, Sibling};
        let peer_tag = route_tag(Peer, Peer);
        let sessions = Arc::new(EntryColumns::from_sessions(
            [(7, 2, peer_tag, 5), (8, 2, route_tag(Sibling, Sibling), 5)].into_iter(),
        ));
        let mut rib = RouteColumns::over_sessions(sessions);
        let carried = CompactRoute {
            learned_from: 8,
            city: 2,
            rel: route_tag(Sibling, Provider),
            age: 0,
            ..r(9)
        };
        rib.set(1, Some(carried));
        assert_eq!(rib.get(1), Some(carried));
        // A tier change alone is journaled and rolled back.
        let copy = rib.clone();
        rib.start_journal(rib.new_journal());
        rib.set(
            1,
            Some(CompactRoute {
                rel: route_tag(Sibling, Peer),
                ..carried
            }),
        );
        assert!(!rib.same_routes(&copy));
        rib.roll_back();
        assert!(rib.same_routes(&copy));
        assert_eq!(rib.get(1), Some(carried));
    }

    #[test]
    fn journal_rolls_back_and_reports_only_real_changes() {
        let mut cols = RouteColumns::new(6);
        cols.set(0, Some(r(9)));
        cols.set(1, Some(r(4)));
        cols.set(2, Some(r(5)));
        let base = cols.clone();
        cols.start_journal(cols.new_journal());
        cols.set(3, Some(r(7))); // vacant → occupied
        assert_eq!(cols.take(0), Some(r(9))); // occupied → vacant
        cols.set(1, Some(r(8)));
        cols.set(1, Some(r(4))); // written back: not a change
        cols.set_age(2, 1); // age alone is a change
        cols.set(5, Some(r(6)));
        cols.set(5, None); // transient: not a change
        cols.sort_journal();
        let changes: Vec<_> = cols.journaled_changes().collect();
        let mut aged = r(5);
        aged.age = 1;
        assert_eq!(
            changes,
            vec![
                (0, Some(r(9)), None),
                (2, Some(r(5)), Some(aged)),
                (3, None, Some(r(7))),
            ]
        );
        let journal = cols.roll_back().expect("journal attached");
        assert!(cols.same_routes(&base) && cols.occupied() == base.occupied());
        assert!(journal.blocks.is_empty() && journal.saved.path.is_empty());
        // Detached: writes are no longer recorded, and the storage is reusable.
        cols.set(4, Some(r(1)));
        assert!(cols.roll_back().is_none());
        cols.start_journal(journal);
        cols.set(4, None);
        cols.roll_back();
        assert_eq!(cols.get(4), Some(r(1)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The maintained occupied count equals a recount after any mix of
        /// `set`, `take` and re-vacating writes, journaled or not; the
        /// journal's diff equals a full scan; and a rollback restores both
        /// the rows and the count.
        #[test]
        fn occupied_count_matches_a_recount(
            ops in proptest::collection::vec((0usize..100, 0u8..4, 1u32..5), 0..120),
            journal_from in 0usize..120,
        ) {
            // 100 slots: three full journal blocks and a short last one.
            let mut cols = RouteColumns::new(100);
            let mut before: Option<RouteColumns> = None;
            for (step, &(i, op, path)) in ops.iter().enumerate() {
                if step == journal_from {
                    before = Some(cols.clone());
                    cols.start_journal(cols.new_journal());
                }
                match op {
                    0 => cols.set(i, None),
                    1 => {
                        cols.take(i);
                    }
                    2 if cols.is_some(i) => cols.set_age(i, path),
                    _ => cols.set(
                        i,
                        Some(CompactRoute::local(PathId(path), 1, Timestamp(0))),
                    ),
                }
                let recount = (0..100).filter(|&s| cols.is_some(s)).count();
                prop_assert_eq!(cols.occupied(), recount);
            }
            if let Some(before) = before {
                // The journal's diff is the full-scan diff.
                cols.sort_journal();
                let journaled: Vec<_> = cols.journaled_changes().collect();
                let scanned: Vec<_> = (0..100)
                    .filter(|&i| before.get(i) != cols.get(i))
                    .map(|i| (i, before.get(i), cols.get(i)))
                    .collect();
                prop_assert_eq!(journaled, scanned);
                cols.roll_back();
                prop_assert!(cols.same_routes(&before));
                prop_assert_eq!(cols.occupied(), before.occupied());
            }
        }
    }
}
