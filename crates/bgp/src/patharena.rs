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
//! Cells are append-only and never invalidated: a [`PathId`] taken from an
//! arena stays valid (and keeps materializing the same path) for the
//! arena's lifetime, across any number of later events or simulations
//! sharing it. Per-cell metadata caches the decision-process inputs (BGP
//! length, has-AS-set) so the hot comparisons never walk the chain; loop
//! prevention and the domestic-path check walk interned cells directly
//! with no allocation.
//!
//! The arena is shared via `Arc` and internally synchronized (a poisoned
//! lock is recovered, never propagated — library code must not panic).
//! Interning hit/miss counters feed [`crate::MemoryBudget`].

use crate::path::{AsPath, Segment};
use ir_types::Asn;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

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

/// Serialized form of one cons cell — `(is_set, elem, tail)` — exchanged
/// with the snapshot codec by [`PathArena::raw_cells`] / [`PathArena::from_raw`].
pub(crate) type RawCell = (bool, u32, u32);

#[derive(Default)]
struct ArenaCore {
    cells: Vec<Cell>,
    /// `(is_set, elem, tail)` → cell id: the hash-consing map.
    dedup: HashMap<(bool, u32, u32), u32>,
    /// Interned AS-sets (members sorted ascending).
    sets: Vec<Vec<Asn>>,
    set_dedup: HashMap<Vec<Asn>, u32>,
}

/// Hash-consed path store. See the module docs for the contract.
#[derive(Default)]
pub struct PathArena {
    core: RwLock<ArenaCore>,
    /// Cons calls answered from the dedup map.
    hits: AtomicU64,
    /// Cons calls that allocated a fresh cell.
    misses: AtomicU64,
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

    fn read(&self) -> RwLockReadGuard<'_, ArenaCore> {
        match self.core.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn write(&self) -> RwLockWriteGuard<'_, ArenaCore> {
        match self.core.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Interns one element in front of `tail`. The only cell constructor:
    /// every path in the arena is a chain of `cons` results, so structural
    /// sharing and the equal-path ⇔ equal-handle invariant hold by
    /// construction.
    fn cons(&self, is_set: bool, elem: u32, tail: PathId) -> PathId {
        let key = (is_set, elem, tail.0);
        if let Some(&id) = self.read().dedup.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return PathId(id);
        }
        let mut core = self.write();
        // Re-check under the write lock: another thread may have interned
        // the same cell between our read probe and here.
        if let Some(&id) = core.dedup.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return PathId(id);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let (tail_len, tail_meta) = match tail {
            PathId::EMPTY => (0, 0),
            PathId(t) => {
                let c = &core.cells[t as usize];
                (c.len, c.meta)
            }
        };
        let mut meta = tail_meta & META_HAS_SET;
        if is_set {
            meta |= META_IS_SET | META_HAS_SET;
        }
        let id = core.cells.len() as u32;
        core.cells.push(Cell {
            elem,
            tail: tail.0,
            len: tail_len + 1,
            meta,
        });
        core.dedup.insert(key, id);
        PathId(id)
    }

    fn intern_set(&self, members: &BTreeSet<Asn>) -> u32 {
        let sorted: Vec<Asn> = members.iter().copied().collect();
        if let Some(&id) = self.read().set_dedup.get(&sorted) {
            return id;
        }
        let mut core = self.write();
        if let Some(&id) = core.set_dedup.get(&sorted) {
            return id;
        }
        let id = core.sets.len() as u32;
        core.sets.push(sorted.clone());
        core.set_dedup.insert(sorted, id);
        id
    }

    /// Interns a full [`AsPath`]. Idempotent: equal paths yield equal
    /// handles.
    pub fn intern(&self, path: &AsPath) -> PathId {
        let mut id = PathId::EMPTY;
        for seg in path.segments().iter().rev() {
            match seg {
                Segment::Seq(v) => {
                    for asn in v.iter().rev() {
                        id = self.cons(false, asn.0, id);
                    }
                }
                Segment::Set(s) => {
                    let set_id = self.intern_set(s);
                    id = self.cons(true, set_id, id);
                }
            }
        }
        id
    }

    /// Prepends `count` copies of `asn` — the export operation. O(count)
    /// cons calls, O(1) amortized once the suffix is warm.
    pub fn prepend_n(&self, id: PathId, asn: Asn, count: usize) -> PathId {
        let mut id = id;
        for _ in 0..count {
            id = self.cons(false, asn.0, id);
        }
        id
    }

    /// Reconstructs the [`AsPath`] behind a handle. The inverse of
    /// [`PathArena::intern`]: round-trips every path the engine announces
    /// (canonical segment form — no empty or adjacent sequence segments,
    /// exactly what [`AsPath`]'s constructors produce).
    pub fn materialize(&self, id: PathId) -> AsPath {
        let core = self.read();
        let mut segs: Vec<Segment> = Vec::new();
        let mut seq: Vec<Asn> = Vec::new();
        let mut cur = id.0;
        while cur != u32::MAX {
            let c = &core.cells[cur as usize];
            if c.meta & META_IS_SET != 0 {
                if !seq.is_empty() {
                    segs.push(Segment::Seq(std::mem::take(&mut seq)));
                }
                let members: BTreeSet<Asn> = core.sets[c.elem as usize].iter().copied().collect();
                segs.push(Segment::Set(members));
            } else {
                seq.push(Asn(c.elem));
            }
            cur = c.tail;
        }
        if !seq.is_empty() {
            segs.push(Segment::Seq(seq));
        }
        AsPath::from_segments(segs)
    }

    /// BGP length of the path (sets count one) — cached, no walk.
    pub fn len(&self, id: PathId) -> usize {
        match id {
            PathId::EMPTY => 0,
            PathId(i) => self.read().cells[i as usize].len as usize,
        }
    }

    /// Whether the path carries an AS-set anywhere — cached, no walk.
    pub fn has_set(&self, id: PathId) -> bool {
        match id {
            PathId::EMPTY => false,
            PathId(i) => self.read().cells[i as usize].meta & META_HAS_SET != 0,
        }
    }

    /// Whether `asn` appears anywhere — sequences *or* sets (the BGP
    /// loop-prevention check, and why poisoning works).
    pub fn contains(&self, id: PathId, asn: Asn) -> bool {
        let core = self.read();
        let mut cur = id.0;
        while cur != u32::MAX {
            let c = &core.cells[cur as usize];
            if c.meta & META_IS_SET != 0 {
                if core.sets[c.elem as usize].binary_search(&asn).is_ok() {
                    return true;
                }
            } else if c.elem == asn.0 {
                return true;
            }
            cur = c.tail;
        }
        false
    }

    /// Whether `asn` appears in a sequence segment (a genuine routing
    /// loop, rejected even by `no_loop_prevention` ASes).
    pub fn seq_contains(&self, id: PathId, asn: Asn) -> bool {
        let core = self.read();
        let mut cur = id.0;
        while cur != u32::MAX {
            let c = &core.cells[cur as usize];
            if c.meta & META_IS_SET == 0 && c.elem == asn.0 {
                return true;
            }
            cur = c.tail;
        }
        false
    }

    /// Whether every ASN on the path (sequence entries and set members)
    /// satisfies `f` — the shape of the domestic-path check, walked over
    /// interned cells with no allocation.
    pub fn asns_all(&self, id: PathId, mut f: impl FnMut(Asn) -> bool) -> bool {
        let core = self.read();
        let mut cur = id.0;
        while cur != u32::MAX {
            let c = &core.cells[cur as usize];
            if c.meta & META_IS_SET != 0 {
                if !core.sets[c.elem as usize].iter().all(|&a| f(a)) {
                    return false;
                }
            } else if !f(Asn(c.elem)) {
                return false;
            }
            cur = c.tail;
        }
        true
    }

    /// The originating AS — the last *sequence* element, sets skipped,
    /// mirroring [`AsPath::origin_as`]. What route-origin validation
    /// (ROV-style [`crate::extension::PolicyExtension`]s) reads per import,
    /// walked over interned cells with no allocation.
    pub fn origin_as(&self, id: PathId) -> Option<Asn> {
        let core = self.read();
        let mut cur = id.0;
        let mut last = None;
        while cur != u32::MAX {
            let c = &core.cells[cur as usize];
            if c.meta & META_IS_SET == 0 {
                last = Some(Asn(c.elem));
            }
            cur = c.tail;
        }
        last
    }

    /// The first (most recent) *sequence* AS on the path, mirroring
    /// [`AsPath::first`] — what an enforce-first-AS import check compares
    /// against the session peer.
    pub fn first_as(&self, id: PathId) -> Option<Asn> {
        let core = self.read();
        let mut cur = id.0;
        while cur != u32::MAX {
            let c = &core.cells[cur as usize];
            if c.meta & META_IS_SET == 0 {
                return Some(Asn(c.elem));
            }
            cur = c.tail;
        }
        None
    }

    /// Raw dump for snapshot serialization: every cell as `(is_set, elem,
    /// tail)` in id order, plus the interned set table. Together with
    /// [`PathArena::from_raw`] this round-trips the arena **preserving cell
    /// ids**, so serialized [`PathId`]s stay valid against the reloaded
    /// arena.
    pub(crate) fn raw_cells(&self) -> (Vec<RawCell>, Vec<Vec<Asn>>) {
        let core = self.read();
        let cells = core
            .cells
            .iter()
            .map(|c| (c.meta & META_IS_SET != 0, c.elem, c.tail))
            .collect();
        (cells, core.sets.clone())
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
        for s in &sets {
            if !s.windows(2).all(|w| w[0] < w[1]) {
                return None;
            }
        }
        let mut core = ArenaCore {
            cells: Vec::with_capacity(cells.len()),
            dedup: HashMap::with_capacity(cells.len()),
            set_dedup: sets
                .iter()
                .enumerate()
                .map(|(i, s)| (s.clone(), i as u32))
                .collect(),
            sets,
        };
        if core.set_dedup.len() != core.sets.len() {
            return None; // duplicate sets
        }
        for (id, &(is_set, elem, tail)) in cells.iter().enumerate() {
            let (tail_len, tail_meta) = if tail == u32::MAX {
                (0, 0)
            } else {
                // Append-only invariant: a tail always precedes its cell.
                if tail as usize >= id {
                    return None;
                }
                let t = &core.cells[tail as usize];
                (t.len, t.meta)
            };
            if is_set && elem as usize >= core.sets.len() {
                return None;
            }
            let mut meta = tail_meta & META_HAS_SET;
            if is_set {
                meta |= META_IS_SET | META_HAS_SET;
            }
            if core.dedup.insert((is_set, elem, tail), id as u32).is_some() {
                return None; // hash-consing violated: duplicate cell
            }
            core.cells.push(Cell {
                elem,
                tail,
                len: tail_len + 1,
                meta,
            });
        }
        Some(PathArena {
            core: RwLock::new(core),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Occupancy snapshot for memory accounting.
    pub fn stats(&self) -> ArenaStats {
        let core = self.read();
        let set_bytes: usize = core
            .sets
            .iter()
            .map(|s| s.len() * std::mem::size_of::<Asn>())
            .sum();
        // Hash-map entries estimated at key + value + one-word overhead.
        let dedup_bytes = core.dedup.len()
            * (std::mem::size_of::<(bool, u32, u32)>() + std::mem::size_of::<u32>() * 2);
        ArenaStats {
            cells: core.cells.len(),
            sets: core.sets.len(),
            bytes: core.cells.len() * std::mem::size_of::<Cell>() + dedup_bytes + set_bytes,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
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
        let arena = PathArena::new();
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
        let arena = PathArena::new();
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
        let arena = PathArena::new();
        let base = AsPath::poisoned(Asn(100), &[Asn(1)]);
        let id = arena.intern(&base);
        for count in 0..5 {
            let ours = arena.prepend_n(id, Asn(42), count);
            assert_eq!(arena.materialize(ours), base.prepend_n(Asn(42), count));
        }
    }

    #[test]
    fn prepend_by_extension_shares_the_suffix() {
        let arena = PathArena::new();
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
        let arena = PathArena::new();
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
        let arena = PathArena::new();
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

    /// Arbitrary engine-shaped path: a (possibly poisoned) origination with
    /// a chain of per-hop prepends — exactly the construction space the
    /// simulator announces.
    fn arb_path() -> impl Strategy<Value = AsPath> {
        (
            1u32..60_000,
            proptest::collection::vec(1u32..60_000, 0..4),
            proptest::collection::vec((1u32..60_000, 1usize..4), 0..6),
        )
            .prop_map(|(origin, poison, hops)| {
                let poison: Vec<Asn> = poison.into_iter().map(Asn).collect();
                let mut p = AsPath::poisoned(Asn(origin), &poison);
                for (asn, count) in hops {
                    p = p.prepend_n(Asn(asn), count);
                }
                p
            })
    }

    proptest! {
        /// Hash-consing canonicalization: equal paths ⇒ equal handles,
        /// distinct paths ⇒ distinct handles, and materialize inverts
        /// intern.
        #[test]
        fn intern_is_injective_on_paths(a in arb_path(), b in arb_path()) {
            let arena = PathArena::new();
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
            let arena = PathArena::new();
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
            let arena = PathArena::new();
            let ids: Vec<PathId> = keep.iter().map(|p| arena.intern(p)).collect();
            for c in &churn {
                arena.intern(c);
                arena.prepend_n(arena.intern(c), Asn(65_001), 2);
            }
            for (p, &id) in keep.iter().zip(&ids) {
                prop_assert_eq!(arena.materialize(id), p.clone());
                prop_assert_eq!(arena.intern(p), id);
            }
        }
    }
}
