//! Struct-of-arrays route storage: the compact layout behind the engines.
//!
//! A [`crate::route::Route`] is the *API boundary* type — convenient,
//! self-describing, but ~100+ heap bytes once the path clone is counted.
//! The engines store routes as [`CompactRoute`]s instead: seven scalar
//! fields (23 bytes of column data), with the path reduced to a
//! [`PathId`] into the per-context [`crate::patharena::PathArena`] and the
//! neighbor reduced to a dense node index. [`RouteColumns`] lays a table
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

/// Sentinel node index: locally originated (no `learned_from` neighbor).
pub(crate) const NO_NODE: u32 = u32::MAX;
/// Sentinel city: local origination (no entry session).
pub(crate) const NO_CITY: u16 = u16::MAX;

/// Relationship tag: 0 = none (local origination), 1.. = [`Relationship`].
pub(crate) const REL_NONE: u8 = 0;

pub(crate) fn rel_tag(rel: Option<Relationship>) -> u8 {
    match rel {
        None => REL_NONE,
        Some(Relationship::Customer) => 1,
        Some(Relationship::Peer) => 2,
        Some(Relationship::Provider) => 3,
        Some(Relationship::Sibling) => 4,
    }
}

pub(crate) fn rel_of_tag(tag: u8) -> Option<Relationship> {
    match tag {
        1 => Some(Relationship::Customer),
        2 => Some(Relationship::Peer),
        3 => Some(Relationship::Provider),
        4 => Some(Relationship::Sibling),
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
    /// Relationship tag at the entry city ([`rel_tag`]).
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

/// A table of optional compact routes as parallel columns. Vacancy is
/// encoded in the `path` column ([`PathId::EMPTY`] = no route), so
/// presence checks touch one `u32` vector. `Clone` is the copy-on-write
/// fork behind what-if queries: eight flat `memcpy`s, no per-route work.
#[derive(Clone)]
pub(crate) struct RouteColumns {
    path: Vec<PathId>,
    path_len: Vec<u16>,
    learned_from: Vec<u32>,
    city: Vec<u16>,
    rel: Vec<u8>,
    local_pref: Vec<i32>,
    igp_cost: Vec<u32>,
    age: Vec<u32>,
}

impl RouteColumns {
    /// An all-vacant table of `len` slots.
    pub fn new(len: usize) -> RouteColumns {
        RouteColumns {
            path: vec![PathId::EMPTY; len],
            path_len: vec![0; len],
            learned_from: vec![NO_NODE; len],
            city: vec![NO_CITY; len],
            rel: vec![REL_NONE; len],
            local_pref: vec![0; len],
            igp_cost: vec![0; len],
            age: vec![0; len],
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
        Some(CompactRoute {
            path: self.path[i],
            path_len: self.path_len[i],
            learned_from: self.learned_from[i],
            city: self.city[i],
            rel: self.rel[i],
            local_pref: self.local_pref[i],
            igp_cost: self.igp_cost[i],
            age: self.age[i],
        })
    }

    /// Stores `r` into slot `i` (`None` vacates it).
    pub fn set(&mut self, i: usize, r: Option<CompactRoute>) {
        match r {
            Some(r) => {
                debug_assert!(!r.path.is_empty(), "a route never carries an empty path");
                self.path[i] = r.path;
                self.path_len[i] = r.path_len;
                self.learned_from[i] = r.learned_from;
                self.city[i] = r.city;
                self.rel[i] = r.rel;
                self.local_pref[i] = r.local_pref;
                self.igp_cost[i] = r.igp_cost;
                self.age[i] = r.age;
            }
            None => self.path[i] = PathId::EMPTY,
        }
    }

    /// Loads and vacates slot `i`.
    pub fn take(&mut self, i: usize) -> Option<CompactRoute> {
        let r = self.get(i);
        self.path[i] = PathId::EMPTY;
        r
    }

    /// Raw path handle of slot `i` ([`PathId::EMPTY`] when vacant) — the
    /// one-u32 probe behind the unchanged-export fast path.
    pub fn path_id(&self, i: usize) -> PathId {
        self.path[i]
    }

    /// Overwrites only the stored age of slot `i` (age normalization).
    pub fn set_age(&mut self, i: usize, age: u32) {
        self.age[i] = age;
    }

    /// Logical table equality: the same slots are occupied and hold equal
    /// routes, ages included. Vacant slots keep whatever their other
    /// columns last held, so this is not a plain column compare.
    pub fn same_routes(&self, other: &RouteColumns) -> bool {
        self.path == other.path
            && (0..self.path.len()).all(|i| self.path[i].is_empty() || self.get(i) == other.get(i))
    }

    /// Occupied slots (O(len) over one column).
    pub fn occupied(&self) -> usize {
        self.path.iter().filter(|p| !p.is_empty()).count()
    }

    /// Resident bytes of the column data.
    pub fn bytes(&self) -> usize {
        self.path.len()
            * (std::mem::size_of::<PathId>()
                + std::mem::size_of::<u16>()
                + std::mem::size_of::<u32>()
                + std::mem::size_of::<u16>()
                + std::mem::size_of::<u8>()
                + std::mem::size_of::<i32>()
                + std::mem::size_of::<u32>()
                + std::mem::size_of::<u32>())
    }
}

/// Memory accounting for the compact storage stack, reported through
/// [`crate::EngineStats`] and the `scale` bench: how many bytes the route
/// state actually costs, and how well the interning layer is sharing.
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
            rel: rel_tag(Some(Relationship::Peer)),
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
        for rel in [
            None,
            Some(Relationship::Customer),
            Some(Relationship::Peer),
            Some(Relationship::Provider),
            Some(Relationship::Sibling),
        ] {
            assert_eq!(rel_of_tag(rel_tag(rel)), rel);
        }
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
}
