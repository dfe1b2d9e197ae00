//! Hash-consed AS-path arena: paths as `u32` handles.
//!
//! At internet scale the dominant memory cost of propagation is the
//! [`AsPath`] clones held in every adj-RIB-in entry: a 50k-AS world keeps
//! O(sessions) paths alive, and the same suffix (everything after the
//! neighbor that exported it) is duplicated once per listener. The arena
//! stores paths as a **cons-cell suffix tree**: each cell holds one path
//! element (a sequence ASN or an interned AS-set) plus the handle of its
//! tail, and identical `(element, tail)` pairs are deduplicated through a
//! hash map. Two consequences carry the whole refactor:
//!
//! * **equal paths ⇔ equal handles** — the unchanged-export fast path and
//!   route-identity checks become single `u32` compares;
//! * **prepend is O(1)** — exporting a route is one cons (a map probe and,
//!   on first sight, one cell push), instead of cloning the whole path.
//!
//! Cells are append-only between rollbacks: a [`PathId`] keeps
//! materializing the same path across any number of later events, until
//! the arena rolls back past it. Per-cell metadata caches the
//! decision-process inputs (BGP length, has-AS-set) so the hot comparisons
//! never walk the chain; loop prevention and the domestic-path check walk
//! interned cells with no allocation, import policy in one walk.
//!
//! An arena is plain, unsynchronized data with one owner: the
//! [`crate::PrefixSim`] that interns into it, or an immutable converged
//! shape table behind an `Arc`. An in-place query rolls its sim's arena
//! back to the extent it began with, so the cells a query interns die with
//! it. Interning hit/miss counters feed [`crate::MemoryBudget`].

use crate::path::{AsPath, Segment};
use ir_types::Asn;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Handle of an interned path. Within one [`PathArena`], two handles are
/// equal iff the paths they denote are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(pub(crate) u32);

impl PathId {
    /// The empty path (also the vacant-slot sentinel in route columns; an
    /// announced route never carries an empty path).
    pub const EMPTY: PathId = PathId(u32::MAX);

    /// Whether this is the empty path.
    pub fn is_empty(self) -> bool {
        self == PathId::EMPTY
    }
}

/// One cons cell: a path element plus its tail, with cached whole-path
/// metadata (for the path that *ends* at this cell).
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// Sequence ASN value, or set-table index when `is_set`.
    elem: u32,
    /// Tail handle (`u32::MAX` = end of path).
    tail: u32,
    /// BGP length of the whole path headed here (an AS-set counts as one).
    len: u32,
    /// Bit 0: this element is an AS-set. Bit 1: the path headed here
    /// carries an AS-set anywhere.
    meta: u8,
}

const META_IS_SET: u8 = 1;
const META_HAS_SET: u8 = 2;

impl Cell {
    fn key(&self) -> RawCell {
        (self.meta & META_IS_SET != 0, self.elem, self.tail)
    }
}

/// One cons cell as `(is_set, elem, tail)`: its hash-consing key, and its
/// serialized form exchanged with the snapshot codec by
/// [`PathArena::raw_cells`] / [`PathArena::from_raw`].
pub(crate) type RawCell = (bool, u32, u32);

/// Fx-style multiplicative hasher for the cell map. Its keys are world
/// ASNs, set indices and arena ids (a request adds a forged origin at
/// most), so the keyed std hasher would only cost on every cons. The set
/// map, keyed by request-supplied poison lists, keeps the std hasher.
#[derive(Default)]
struct CellHasher(u64);

impl Hasher for CellHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
}

/// Hash-consed path store. See the module docs for the contract.
#[derive(Default)]
pub struct PathArena {
    cells: Vec<Cell>,
    /// `(is_set, elem, tail)` → cell id: the hash-consing map.
    dedup: HashMap<RawCell, u32, BuildHasherDefault<CellHasher>>,
    /// Interned AS-sets (members sorted ascending).
    sets: Vec<Vec<Asn>>,
    set_dedup: HashMap<Vec<Asn>, u32>,
    /// Cons calls answered from the dedup map.
    hits: u64,
    /// Cons calls that allocated a fresh cell.
    misses: u64,
}

/// Snapshot of an arena's occupancy, for [`crate::MemoryBudget`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Live cons cells.
    pub cells: usize,
    /// Interned AS-sets.
    pub sets: usize,
    /// Approximate resident bytes (cells, dedup map, set table).
    pub bytes: usize,
    /// Cons calls answered by hash-consing.
    pub hits: u64,
    /// Cons calls that allocated a fresh cell.
    pub misses: u64,
}

impl PathArena {
    /// An empty arena.
    pub fn new() -> PathArena {
        PathArena::default()
    }

    /// The cell heading `id` (`None` for the empty path).
    #[inline]
    fn head(&self, id: PathId) -> Option<&Cell> {
        (!id.is_empty()).then(|| &self.cells[id.0 as usize])
    }

    /// The cells of `id`'s path, head first.
    #[inline]
    fn walk(&self, id: PathId) -> impl Iterator<Item = &Cell> + '_ {
        std::iter::successors(self.head(id), |c| self.head(PathId(c.tail)))
    }

    /// Interns one element in front of `tail`. The only cell constructor:
    /// every path in the arena is a chain of `cons` results, so structural
    /// sharing and the equal-path ⇔ equal-handle invariant hold by
    /// construction.
    fn cons(&mut self, is_set: bool, elem: u32, tail: PathId) -> PathId {
        let next = self.cells.len() as u32;
        let id = *self.dedup.entry((is_set, elem, tail.0)).or_insert(next);
        if id != next {
            self.hits += 1;
            return PathId(id);
        }
        self.misses += 1;
        let (tail_len, tail_meta) = self.head(tail).map_or((0, 0), |c| (c.len, c.meta));
        let mut meta = tail_meta & META_HAS_SET;
        if is_set {
            meta |= META_IS_SET | META_HAS_SET;
        }
        self.cells.push(Cell {
            elem,
            tail: tail.0,
            len: tail_len + 1,
            meta,
        });
        PathId(id)
    }

    /// Interns a full [`AsPath`]. Idempotent: equal paths yield equal
    /// handles.
    pub fn intern(&mut self, path: &AsPath) -> PathId {
        let mut id = PathId::EMPTY;
        for seg in path.segments().iter().rev() {
            match seg {
                Segment::Seq(v) => {
                    for asn in v.iter().rev() {
                        id = self.cons(false, asn.0, id);
                    }
                }
                Segment::Set(s) => {
                    let next = self.sets.len() as u32;
                    let set = *self
                        .set_dedup
                        .entry(s.iter().copied().collect())
                        .or_insert(next);
                    if set == next {
                        self.sets.push(s.iter().copied().collect());
                    }
                    id = self.cons(true, set, id);
                }
            }
        }
        id
    }

    /// Prepends `count` copies of `asn` — the export operation. O(count)
    /// cons calls, O(1) amortized once the suffix is warm.
    pub fn prepend_n(&mut self, id: PathId, asn: Asn, count: usize) -> PathId {
        let mut id = id;
        for _ in 0..count {
            id = self.cons(false, asn.0, id);
        }
        id
    }

    /// Reconstructs the [`AsPath`] behind a handle. The inverse of
    /// [`PathArena::intern`]: round-trips every path the engine announces
    /// (canonical segment form — no empty or adjacent sequence segments,
    /// exactly what [`AsPath`]'s constructors produce). A path without an
    /// AS-set — nearly every route — is one walk into one sequence vector
    /// sized from the cached length, in a one-slot segment vector.
    pub fn materialize(&self, id: PathId) -> AsPath {
        let Some(head) = self.head(id) else {
            return AsPath::empty();
        };
        if head.meta & META_HAS_SET == 0 {
            let mut seq = Vec::with_capacity(head.len as usize);
            seq.extend(self.walk(id).map(|c| Asn(c.elem)));
            return AsPath::from_segments(vec![Segment::Seq(seq)]);
        }
        let mut segs: Vec<Segment> = Vec::new();
        let mut seq: Vec<Asn> = Vec::new();
        for c in self.walk(id) {
            if c.meta & META_IS_SET != 0 {
                if !seq.is_empty() {
                    segs.push(Segment::Seq(std::mem::take(&mut seq)));
                }
                let members: BTreeSet<Asn> = self.sets[c.elem as usize].iter().copied().collect();
                segs.push(Segment::Set(members));
            } else {
                seq.push(Asn(c.elem));
            }
        }
        if !seq.is_empty() {
            segs.push(Segment::Seq(seq));
        }
        AsPath::from_segments(segs)
    }

    /// BGP length of the path (sets count one) — cached, no walk.
    pub fn len(&self, id: PathId) -> usize {
        self.head(id).map_or(0, |c| c.len as usize)
    }

    /// Whether the path carries an AS-set anywhere — cached, no walk.
    pub fn has_set(&self, id: PathId) -> bool {
        self.head(id).is_some_and(|c| c.meta & META_HAS_SET != 0)
    }

    /// Whether `asn` is a member of the AS-set cell `c`.
    fn set_holds(&self, c: &Cell, asn: Asn) -> bool {
        self.sets[c.elem as usize].binary_search(&asn).is_ok()
    }

    /// Whether `asn` appears anywhere — sequences *or* sets (the BGP
    /// loop-prevention check, and why poisoning works).
    pub fn contains(&self, id: PathId, asn: Asn) -> bool {
        self.walk(id).any(|c| {
            if c.meta & META_IS_SET != 0 {
                self.set_holds(c, asn)
            } else {
                c.elem == asn.0
            }
        })
    }

    /// Whether `asn` appears in a sequence segment (a genuine routing
    /// loop, rejected even by `no_loop_prevention` ASes).
    pub fn seq_contains(&self, id: PathId, asn: Asn) -> bool {
        self.walk(id)
            .any(|c| c.meta & META_IS_SET == 0 && c.elem == asn.0)
    }

    /// Everything import policy asks of `id` for importer `asn`, in one
    /// walk: `(seq_contains, contains, has_set, len)` — whether `asn` is in
    /// a sequence segment, whether it is anywhere, whether the path
    /// carries an AS-set, and its BGP length. A sequence hit answers both
    /// loop questions, so the walk stops there.
    pub(crate) fn scan(&self, id: PathId, asn: Asn) -> (bool, bool, bool, usize) {
        let mut in_set = false;
        let mut cur = id.0;
        while cur != u32::MAX {
            let c = &self.cells[cur as usize];
            if c.meta & META_IS_SET != 0 {
                in_set |= self.set_holds(c, asn);
            } else if c.elem == asn.0 {
                return (true, true, self.has_set(id), self.len(id));
            }
            cur = c.tail;
        }
        (false, in_set, self.has_set(id), self.len(id))
    }

    /// Whether every ASN on the path (sequence entries and set members)
    /// satisfies `f` — the shape of the domestic-path check, walked over
    /// interned cells with no allocation.
    pub fn asns_all(&self, id: PathId, mut f: impl FnMut(Asn) -> bool) -> bool {
        self.walk(id).all(|c| {
            if c.meta & META_IS_SET != 0 {
                self.sets[c.elem as usize].iter().all(|&a| f(a))
            } else {
                f(Asn(c.elem))
            }
        })
    }

    /// The originating AS — the last *sequence* element, sets skipped,
    /// mirroring [`AsPath::origin_as`]. What route-origin validation
    /// (ROV-style [`crate::extension::PolicyExtension`]s) reads per import,
    /// walked over interned cells with no allocation.
    pub fn origin_as(&self, id: PathId) -> Option<Asn> {
        self.walk(id)
            .filter(|c| c.meta & META_IS_SET == 0)
            .last()
            .map(|c| Asn(c.elem))
    }

    /// The first (most recent) *sequence* AS on the path, mirroring
    /// [`AsPath::first`] — what an enforce-first-AS import check compares
    /// against the session peer.
    pub fn first_as(&self, id: PathId) -> Option<Asn> {
        self.walk(id)
            .find(|c| c.meta & META_IS_SET == 0)
            .map(|c| Asn(c.elem))
    }

    /// Returns the arena to the extent `mark` (an earlier
    /// [`PathArena::stats`] of it) recorded: drops every cell and set
    /// interned since, with their dedup keys, and restores the hit/miss
    /// counters. Handles minted before the mark keep materializing the same
    /// paths; handles minted after it are dead, and re-interning their
    /// paths mints the same ids again in the same order.
    pub(crate) fn roll_back(&mut self, mark: ArenaStats) {
        for c in self.cells.drain(mark.cells..) {
            self.dedup.remove(&c.key());
        }
        for s in self.sets.drain(mark.sets..) {
            self.set_dedup.remove(&s);
        }
        self.hits = mark.hits;
        self.misses = mark.misses;
    }

    /// Raw dump for snapshot serialization: every cell as `(is_set, elem,
    /// tail)` in id order, plus the interned set table. Together with
    /// [`PathArena::from_raw`] this round-trips the arena **preserving cell
    /// ids**, so serialized [`PathId`]s stay valid against the reloaded
    /// arena.
    pub(crate) fn raw_cells(&self) -> (Vec<RawCell>, Vec<Vec<Asn>>) {
        (
            self.cells.iter().map(Cell::key).collect(),
            self.sets.clone(),
        )
    }

    /// Rebuilds an arena from [`PathArena::raw_cells`] output, recomputing
    /// the cached metadata and both dedup maps. Returns `None` on
    /// structurally invalid input (a tail that is not an earlier cell, a
    /// set index out of range, an unsorted or duplicated set, a duplicate
    /// `(is_set, elem, tail)` cell — none of which [`PathArena::raw_cells`]
    /// can produce): corrupt snapshots are reported, not trusted.
    pub(crate) fn from_raw(cells: &[RawCell], sets: Vec<Vec<Asn>>) -> Option<PathArena> {
        if cells.len() >= u32::MAX as usize || sets.len() >= u32::MAX as usize {
            return None;
        }
        if !sets.iter().all(|s| s.windows(2).all(|w| w[0] < w[1])) {
            return None;
        }
        let mut arena = PathArena {
            cells: Vec::with_capacity(cells.len()),
            dedup: HashMap::with_capacity_and_hasher(cells.len(), Default::default()),
            set_dedup: sets
                .iter()
                .enumerate()
                .map(|(i, s)| (s.clone(), i as u32))
                .collect(),
            sets,
            ..PathArena::default()
        };
        if arena.set_dedup.len() != arena.sets.len() {
            return None; // duplicate sets
        }
        for (id, &(is_set, elem, tail)) in cells.iter().enumerate() {
            // Append-only invariant: a tail always precedes its cell.
            let bad_tail = tail != u32::MAX && tail as usize >= id;
            if bad_tail || (is_set && elem as usize >= arena.sets.len()) {
                return None;
            }
            // A hash-consing hit is a duplicate cell.
            if arena.cons(is_set, elem, PathId(tail)) != PathId(id as u32) {
                return None;
            }
        }
        // The counters count interning work; a reload is none.
        (arena.hits, arena.misses) = (0, 0);
        Some(arena)
    }

    /// Occupancy snapshot for memory accounting.
    pub fn stats(&self) -> ArenaStats {
        let set_bytes: usize = self
            .sets
            .iter()
            .map(|s| s.len() * std::mem::size_of::<Asn>())
            .sum();
        // Hash-map entries estimated at key + value + one-word overhead.
        let dedup_bytes =
            self.dedup.len() * (std::mem::size_of::<RawCell>() + std::mem::size_of::<u32>() * 2);
        ArenaStats {
            cells: self.cells.len(),
            sets: self.sets.len(),
            bytes: self.cells.len() * std::mem::size_of::<Cell>() + dedup_bytes + set_bytes,
            hits: self.hits,
            misses: self.misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AsPath {
        AsPath::poisoned(Asn(47065), &[Asn(3), Asn(4)])
            .prepend(Asn(7))
            .prepend(Asn(9))
    }

    #[test]
    fn intern_round_trips_and_canonicalizes() {
        let mut arena = PathArena::new();
        let p = sample();
        let id = arena.intern(&p);
        assert_eq!(arena.materialize(id), p);
        // Equal path, separately constructed ⇒ equal handle.
        let id2 = arena.intern(&sample());
        assert_eq!(id, id2);
        // A different path gets a different handle.
        let other = p.prepend(Asn(11));
        assert_ne!(arena.intern(&other), id);
    }

    #[test]
    fn cached_metadata_matches_aspath() {
        let mut arena = PathArena::new();
        for p in [
            AsPath::empty(),
            AsPath::origin(Asn(5)),
            AsPath::poisoned(Asn(5), &[Asn(1), Asn(2)]),
            sample(),
        ] {
            let id = arena.intern(&p);
            assert_eq!(arena.len(id), p.len(), "{p}");
            assert_eq!(arena.has_set(id), p.has_set(), "{p}");
            for probe in [1, 2, 3, 4, 5, 7, 9, 47065, 99] {
                assert_eq!(arena.contains(id, Asn(probe)), p.contains(Asn(probe)));
                assert_eq!(
                    arena.seq_contains(id, Asn(probe)),
                    p.sequence_asns().contains(&Asn(probe))
                );
            }
        }
    }

    #[test]
    fn prepend_matches_aspath_prepend() {
        let mut arena = PathArena::new();
        let base = AsPath::poisoned(Asn(100), &[Asn(1)]);
        let id = arena.intern(&base);
        for count in 0..5 {
            let ours = arena.prepend_n(id, Asn(42), count);
            assert_eq!(arena.materialize(ours), base.prepend_n(Asn(42), count));
        }
    }

    #[test]
    fn prepend_by_extension_shares_the_suffix() {
        let mut arena = PathArena::new();
        let base = arena.intern(&AsPath::origin(Asn(1)));
        let cells_before = arena.stats().cells;
        // Two exports of the same route: second one is pure hash-cons hits.
        let a = arena.prepend_n(base, Asn(2), 1);
        let b = arena.prepend_n(base, Asn(2), 1);
        assert_eq!(a, b);
        assert_eq!(arena.stats().cells, cells_before + 1);
        assert!(arena.stats().hits >= 1);
    }

    #[test]
    fn handles_stay_valid_as_the_arena_grows() {
        let mut arena = PathArena::new();
        let p = sample();
        let id = arena.intern(&p);
        for i in 0..1000u32 {
            arena.intern(&AsPath::origin(Asn(60_000 + i)).prepend(Asn(i)));
        }
        // Append-only: the old handle still denotes the same path.
        assert_eq!(arena.materialize(id), p);
        assert_eq!(arena.intern(&p), id);
    }

    #[test]
    fn empty_path() {
        let mut arena = PathArena::new();
        assert_eq!(arena.intern(&AsPath::empty()), PathId::EMPTY);
        assert_eq!(arena.materialize(PathId::EMPTY), AsPath::empty());
        assert_eq!(arena.len(PathId::EMPTY), 0);
        assert!(!arena.has_set(PathId::EMPTY));
        assert!(!arena.contains(PathId::EMPTY, Asn(1)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// An engine-shaped path's parts: origin, poison list, per-hop
    /// prepends.
    type Parts = (u32, Vec<u32>, Vec<(u32, usize)>);

    fn arb_parts() -> impl Strategy<Value = Parts> {
        (
            1u32..60_000,
            proptest::collection::vec(1u32..60_000, 0..4),
            proptest::collection::vec((1u32..60_000, 1usize..4), 0..6),
        )
    }

    /// A (possibly poisoned) origination with a chain of per-hop prepends
    /// — exactly the construction space the simulator announces.
    fn build((origin, poison, hops): Parts) -> AsPath {
        let poison: Vec<Asn> = poison.into_iter().map(Asn).collect();
        let mut p = AsPath::poisoned(Asn(origin), &poison);
        for (asn, count) in hops {
            p = p.prepend_n(Asn(asn), count);
        }
        p
    }

    /// Arbitrary engine-shaped path.
    fn arb_path() -> impl Strategy<Value = AsPath> {
        arb_parts().prop_map(build)
    }

    /// An engine-shaped path and the ASN of an AS importing it, placed
    /// (besides by chance) nowhere, as one more hop in the sequence, or
    /// inside the poison set — every case loop prevention tells apart.
    fn arb_import() -> impl Strategy<Value = (AsPath, Asn)> {
        (arb_parts(), 1u32..60_000, 0u8..3).prop_map(
            |((origin, mut poison, mut hops), me, place)| {
                match place {
                    1 => hops.insert(hops.len() / 2, (me, 1)),
                    2 => poison.push(me),
                    _ => {}
                }
                (build((origin, poison, hops)), Asn(me))
            },
        )
    }

    /// Interns `paths` and prepends each one's importer twice — what a
    /// query's events add to an arena.
    fn mint(arena: &mut PathArena, paths: &[(AsPath, Asn)]) -> Vec<PathId> {
        paths
            .iter()
            .map(|(p, me)| {
                let id = arena.intern(p);
                arena.prepend_n(id, *me, 2)
            })
            .collect()
    }

    /// Whether both dedup maps hold exactly one key per cell or set, each
    /// naming its own id.
    fn dedup_is_exact(arena: &PathArena) -> bool {
        arena.dedup.len() == arena.cells.len()
            && arena.set_dedup.len() == arena.sets.len()
            && arena
                .cells
                .iter()
                .enumerate()
                .all(|(i, c)| arena.dedup.get(&c.key()) == Some(&(i as u32)))
            && arena
                .sets
                .iter()
                .enumerate()
                .all(|(i, s)| arena.set_dedup.get(s) == Some(&(i as u32)))
    }

    proptest! {
        /// Hash-consing canonicalization: equal paths ⇒ equal handles,
        /// distinct paths ⇒ distinct handles, and materialize inverts
        /// intern.
        #[test]
        fn intern_is_injective_on_paths(a in arb_path(), b in arb_path()) {
            let mut arena = PathArena::new();
            let (ia, ib) = (arena.intern(&a), arena.intern(&b));
            prop_assert_eq!(ia == ib, a == b);
            prop_assert_eq!(arena.materialize(ia), a);
            prop_assert_eq!(arena.materialize(ib), b);
            // Re-interning after other content is loaded is stable.
            prop_assert_eq!(arena.intern(&a), ia);
        }

        /// Every cached/walked query agrees with the [`AsPath`] it mirrors.
        #[test]
        fn queries_agree_with_aspath(p in arb_path(), probe in 1u32..60_000, count in 0usize..4) {
            let mut arena = PathArena::new();
            let id = arena.intern(&p);
            prop_assert_eq!(arena.len(id), p.len());
            prop_assert_eq!(arena.has_set(id), p.has_set());
            prop_assert_eq!(arena.contains(id, Asn(probe)), p.contains(Asn(probe)));
            prop_assert_eq!(
                arena.seq_contains(id, Asn(probe)),
                p.sequence_asns().contains(&Asn(probe))
            );
            let pre = arena.prepend_n(id, Asn(probe), count);
            prop_assert_eq!(arena.materialize(pre), p.prepend_n(Asn(probe), count));
            prop_assert_eq!(arena.len(pre), p.len() + count);
        }

        /// Stale-handle safety: handles taken early keep materializing the
        /// same path after arbitrary further interning (append-only arena,
        /// the contract `SimContext` reuse relies on).
        #[test]
        fn handles_survive_arena_growth(
            keep in proptest::collection::vec(arb_path(), 1..5),
            churn in proptest::collection::vec(arb_path(), 0..20),
        ) {
            let mut arena = PathArena::new();
            let ids: Vec<PathId> = keep.iter().map(|p| arena.intern(p)).collect();
            for c in &churn {
                let id = arena.intern(c);
                arena.prepend_n(id, Asn(65_001), 2);
            }
            for (p, &id) in keep.iter().zip(&ids) {
                prop_assert_eq!(arena.materialize(id), p.clone());
                prop_assert_eq!(arena.intern(p), id);
            }
        }

        /// Rolling back to a mark forgets exactly what was interned since:
        /// earlier handles keep their paths, both dedup maps shrink with
        /// the cells and sets they index, and re-interning the discarded
        /// paths mints the same ids in the same order.
        #[test]
        fn roll_back_forgets_exactly_what_came_after_the_mark(
            keep in proptest::collection::vec(arb_path(), 1..5),
            churn in proptest::collection::vec(arb_import(), 1..8),
        ) {
            let mut arena = PathArena::new();
            let ids: Vec<PathId> = keep.iter().map(|p| arena.intern(p)).collect();
            let before = arena.stats();
            let minted = mint(&mut arena, &churn);
            arena.roll_back(before);
            prop_assert_eq!(arena.stats(), before);
            prop_assert!(dedup_is_exact(&arena));
            for (p, &id) in keep.iter().zip(&ids) {
                prop_assert_eq!(arena.materialize(id), p.clone());
            }
            prop_assert_eq!(mint(&mut arena, &churn), minted);
            prop_assert!(dedup_is_exact(&arena));
        }

        /// The one-walk import read answers what the single queries do.
        #[test]
        fn scan_agrees_with_the_single_queries(case in arb_import()) {
            let (p, me) = case;
            let mut arena = PathArena::new();
            let id = arena.intern(&p);
            let (seq_loop, any_loop, has_set, len) = arena.scan(id, me);
            prop_assert_eq!(seq_loop, arena.seq_contains(id, me));
            prop_assert_eq!(any_loop, arena.contains(id, me));
            prop_assert_eq!((has_set, len), (arena.has_set(id), arena.len(id)));
            prop_assert_eq!(seq_loop, p.sequence_asns().contains(&me));
            prop_assert_eq!(any_loop, p.contains(me));
        }

        /// A set-free path materializes as one segment, and both vectors
        /// are allocated at exactly their length.
        #[test]
        fn set_free_paths_materialize_at_exact_size(
            parts in arb_parts(),
            me in 1u32..60_000,
        ) {
            let (origin, _, hops) = parts;
            let p = build((origin, Vec::new(), hops));
            let mut arena = PathArena::new();
            let base = arena.intern(&p);
            let id = arena.prepend_n(base, Asn(me), 1);
            let m = arena.materialize(id);
            prop_assert_eq!(&m, &p.prepend(Asn(me)));
            prop_assert_eq!(m.segments_capacity(), 1);
            match m.segments() {
                [Segment::Seq(seq)] => prop_assert_eq!(seq.capacity(), seq.len()),
                other => prop_assert!(false, "{other:?}"),
            }
        }
    }
}
