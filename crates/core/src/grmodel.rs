//! Computing "all paths that satisfy the Gao–Rexford model" (§3.3).
//!
//! For a destination *d* and an inferred relationship topology, every AS
//! *x* is characterized by the length of its shortest **valley-free** path
//! to *d* in each route class:
//!
//! * `Customer` — the first hop goes to a customer and the whole path is
//!   downhill (provider→customer), the cheapest class;
//! * `Peer` — one peer hop, then downhill;
//! * `Provider` — uphill first (possibly several provider hops), then at
//!   most one peer hop, then downhill — the most expensive class.
//!
//! Sibling links are **transparent**: traversable in every phase without
//! changing the class (an organization does not charge itself), but they
//! do count one hop of path length, since the sibling ASN appears in the
//! AS path.
//!
//! The computation is three chained BFS/Dijkstra passes per destination,
//! O(E log V); destinations are independent, and the classifier caches one
//! [`GrRoutes`] per destination AS.

use ir_topology::{RelationshipDb, TopologyArena};
use ir_types::{Asn, Relationship};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// The three Gao–Rexford route classes, cheapest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RouteClass {
    Customer,
    Peer,
    Provider,
}

impl RouteClass {
    /// All classes, preference order.
    pub const ALL: [RouteClass; 3] = [RouteClass::Customer, RouteClass::Peer, RouteClass::Provider];

    /// The class a route falls into when its first hop has relationship
    /// `rel` (from the deciding AS's view). Siblings count as customers —
    /// the paper marks decisions routed via a sibling as satisfying *Best*.
    pub fn of_rel(rel: Relationship) -> RouteClass {
        match rel {
            Relationship::Customer | Relationship::Sibling => RouteClass::Customer,
            Relationship::Peer => RouteClass::Peer,
            Relationship::Provider => RouteClass::Provider,
        }
    }

    fn idx(self) -> usize {
        match self {
            RouteClass::Customer => 0,
            RouteClass::Peer => 1,
            RouteClass::Provider => 2,
        }
    }
}

const INF: u32 = u32::MAX;

/// An indexed adjacency view of a [`RelationshipDb`], reusable across
/// destinations.
///
/// ```
/// use ir_core::grmodel::{GrModel, RouteClass};
/// use ir_topology::RelationshipDb;
/// use ir_types::{Asn, Relationship};
///
/// // 3 ← 1 ⇄ 2 (peers), 1 provider of 3.
/// let mut db = RelationshipDb::default();
/// db.insert(Asn(1), Asn(2), Relationship::Peer);
/// db.insert(Asn(3), Asn(1), Relationship::Provider);
///
/// let model = GrModel::new(&db);
/// let routes = model.routes_to(Asn(3));
/// // 1 reaches 3 through its customer; 2 through its peer 1.
/// assert_eq!(routes.best_class(Asn(1)), Some(RouteClass::Customer));
/// assert_eq!(routes.best_class(Asn(2)), Some(RouteClass::Peer));
/// assert_eq!(routes.shortest_any(Asn(2)), Some(2));
/// assert_eq!(routes.extract_path(Asn(2)), Some(vec![Asn(1), Asn(3)]));
/// ```
pub struct GrModel {
    /// The workspace-wide dense topology index, shared (not copied) into
    /// every [`GrRoutes`] this model produces.
    arena: Arc<TopologyArena>,
}

impl GrModel {
    /// Indexes the topology.
    pub fn new(db: &RelationshipDb) -> GrModel {
        GrModel::from_arena(Arc::new(TopologyArena::build(db)))
    }

    /// Wraps an already-built arena (sharable across models and threads).
    pub fn from_arena(arena: Arc<TopologyArena>) -> GrModel {
        GrModel { arena }
    }

    /// The shared arena handle.
    pub fn arena(&self) -> &Arc<TopologyArena> {
        &self.arena
    }

    /// Number of ASes in the topology.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether the topology is empty.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// The relationship of `b` as seen from `a`, if the inferred topology
    /// knows the link.
    pub fn rel(&self, a: Asn, b: Asn) -> Option<Relationship> {
        self.arena.rel(a, b)
    }

    /// Computes the per-class shortest valley-free distances toward `dst`.
    pub fn routes_to(&self, dst: Asn) -> GrRoutes {
        self.routes_to_filtered(dst, |_, _| true)
    }

    /// Like [`GrModel::routes_to`], but an edge predicate can exclude
    /// links incident to the origin — the mechanism behind the §4.3
    /// prefix-specific-policy criteria. The predicate receives the two
    /// endpoints of a link (in both orders during traversal).
    pub fn routes_to_filtered<F>(&self, dst: Asn, edge_ok: F) -> GrRoutes
    where
        F: Fn(Asn, Asn) -> bool,
    {
        let n = self.len();
        let arena = &self.arena;
        let interner = arena.interner();
        let mut dist = vec![[INF; 3]; n];
        let mut parent = vec![[usize::MAX; 3]; n];
        let Some(d) = interner.get(dst).map(|i| i as usize) else {
            return GrRoutes {
                arena: Arc::clone(arena),
                dst,
                dist,
                parent,
            };
        };

        let ok = |x: usize, y: usize| edge_ok(interner.asn(x as u32), interner.asn(y as u32));
        let adj = |y: usize| {
            arena
                .neighbors(y as u32)
                .iter()
                .map(|&(x, rel)| (x as usize, rel))
        };

        // Phase 1 — customer class: BFS from d ascending provider links
        // (and crossing sibling links). The visit order doubles as the
        // reached set that seeds phase 2.
        let mut reached_c = vec![d];
        {
            let c = RouteClass::Customer.idx();
            dist[d][c] = 0;
            let mut q = VecDeque::from([d]);
            while let Some(y) = q.pop_front() {
                for (x, rel) in adj(y) {
                    // rel = relationship of x from y; we may extend to x if x
                    // would route to y as its customer (y is x's customer,
                    // i.e. x is y's provider) or sibling.
                    if matches!(rel, Relationship::Provider | Relationship::Sibling)
                        && dist[x][c] == INF
                        && ok(x, y)
                    {
                        dist[x][c] = dist[y][c] + 1;
                        parent[x][c] = y;
                        reached_c.push(x);
                        q.push_back(x);
                    }
                }
            }
        }

        // Phase 2 — peer class: one peer hop onto a customer route, then
        // sibling transparency. Multi-source BFS over sibling links, seeded
        // by the peer-hop relaxation. Only ASes the customer-class BFS
        // reached can be hopped *from* (peering is symmetric), so seeding
        // walks that set's adjacency instead of every AS's — for a
        // small-cone destination that is a tiny fraction of the graph.
        {
            let c = RouteClass::Customer.idx();
            let p = RouteClass::Peer.idx();
            let mut heap: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();
            for &y in &reached_c {
                for (x, rel) in adj(y) {
                    if rel == Relationship::Peer && ok(x, y) {
                        let cand = dist[y][c] + 1;
                        if cand < dist[x][p] {
                            dist[x][p] = cand;
                            parent[x][p] = y;
                            heap.push(Reverse((cand, x)));
                        }
                    }
                }
            }
            while let Some(Reverse((dv, y))) = heap.pop() {
                if dv > dist[y][p] {
                    continue;
                }
                for (x, rel) in adj(y) {
                    if rel.reverse() == Relationship::Sibling && ok(x, y) {
                        let cand = dv + 1;
                        if cand < dist[x][p] {
                            dist[x][p] = cand;
                            parent[x][p] = y;
                            heap.push(Reverse((cand, x)));
                        }
                    }
                }
            }
        }

        // Phase 3 — provider class: Dijkstra uphill. dist_prov[x] =
        // 1 + min over providers/siblings y of min(dist_c, dist_peer,
        // dist_prov)[y].
        {
            let c = RouteClass::Customer.idx();
            let p = RouteClass::Peer.idx();
            let v = RouteClass::Provider.idx();
            let mut heap: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();
            // Seed: every node's best non-provider value can be extended.
            for (y, dy) in dist.iter().enumerate() {
                let base = dy[c].min(dy[p]);
                if base != INF {
                    heap.push(Reverse((base, y)));
                }
            }
            while let Some(Reverse((dy, y))) = heap.pop() {
                let best_y = dist[y][c].min(dist[y][p]).min(dist[y][v]);
                if dy > best_y {
                    continue;
                }
                for (x, rel) in adj(y) {
                    // `rel` is x as seen from y. x may route through y as
                    // its provider or sibling — i.e. x is y's customer or
                    // sibling.
                    if matches!(rel, Relationship::Customer | Relationship::Sibling) && ok(x, y) {
                        let cand = dy + 1;
                        if cand < dist[x][v] {
                            dist[x][v] = cand;
                            parent[x][v] = y;
                            let best_x = dist[x][c].min(dist[x][p]).min(cand);
                            heap.push(Reverse((best_x.min(cand), x)));
                        }
                    }
                }
            }
        }

        GrRoutes {
            arena: Arc::clone(arena),
            dst,
            dist,
            parent,
        }
    }

    /// The ASN at an internal index (used by [`GrRoutes`] path extraction).
    pub fn asn_at(&self, idx: usize) -> Asn {
        self.arena.interner().asn(idx as u32)
    }

    /// The internal index of an ASN.
    pub fn index_of(&self, asn: Asn) -> Option<usize> {
        self.arena.interner().get(asn).map(|i| i as usize)
    }
}

/// Per-destination valley-free route structure.
///
/// Shares the model's arena by `Arc` — no per-destination copy of the ASN
/// table is made.
pub struct GrRoutes {
    arena: Arc<TopologyArena>,
    /// The destination.
    pub dst: Asn,
    dist: Vec<[u32; 3]>,
    parent: Vec<[usize; 3]>,
}

impl GrRoutes {
    fn idx_of(&self, asn: Asn) -> Option<usize> {
        self.arena.interner().get(asn).map(|i| i as usize)
    }

    fn asn_at(&self, idx: usize) -> Asn {
        self.arena.interner().asn(idx as u32)
    }

    /// Distance from `x` to the destination in a given class.
    pub fn dist(&self, x: Asn, class: RouteClass) -> Option<usize> {
        let i = self.idx_of(x)?;
        let d = self.dist[i][class.idx()];
        (d != INF).then_some(d as usize)
    }

    /// The best (cheapest) class with a valley-free route at `x`.
    pub fn best_class(&self, x: Asn) -> Option<RouteClass> {
        RouteClass::ALL
            .into_iter()
            .find(|c| self.dist(x, *c).is_some())
    }

    /// Shortest valley-free path length from `x`, over all classes.
    pub fn shortest_any(&self, x: Asn) -> Option<usize> {
        RouteClass::ALL
            .into_iter()
            .filter_map(|c| self.dist(x, c))
            .min()
    }

    /// Shortest valley-free path length within `x`'s best class.
    pub fn shortest_best_class(&self, x: Asn) -> Option<usize> {
        self.dist(x, self.best_class(x)?)
    }

    /// Extracts one shortest valley-free path from `x` to the destination
    /// (x exclusive, destination inclusive), preferring the best class.
    /// `None` when unreachable.
    pub fn extract_path(&self, x: Asn) -> Option<Vec<Asn>> {
        let class = self.best_class(x)?;
        let mut i = self.idx_of(x)?;
        let mut c = class.idx();
        let mut out = Vec::new();
        let mut guard = 0;
        while self.asn_at(i) != self.dst {
            let next = self.parent[i][c];
            if next == usize::MAX {
                // The peer/provider phases chain through lower classes: a
                // node reached by the peer hop continues on the customer
                // parent chain, and the provider phase continues on
                // whichever class seeded its value.
                if c > 0 {
                    c = (0..c).rev().find(|&k| self.dist[i][k] != INF).unwrap_or(c);
                    if self.parent[i][c] == usize::MAX && self.asn_at(i) != self.dst {
                        return None;
                    }
                    continue;
                }
                return None;
            }
            // Class transition rule: after a peer/provider hop the
            // remainder of the path continues at the parent in the class
            // that produced the recorded distance.
            let parent_idx = next;
            out.push(self.asn_at(parent_idx));
            // Determine the class at the parent that matches dist[i][c]-1.
            let want = self.dist[i][c].checked_sub(1)?;
            let pc = (0..3).find(|&k| self.dist[parent_idx][k] == want);
            i = parent_idx;
            c = match pc {
                Some(k) => k,
                None => c.min(2),
            };
            guard += 1;
            if guard > self.arena.len() + 3 {
                return None; // defensive: malformed parent chain
            }
        }
        Some(out)
    }

    /// Whether the destination is reachable from `x` at all under GR.
    pub fn reachable(&self, x: Asn) -> bool {
        self.best_class(x).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Classic test topology:
    ///
    /// ```text
    ///        1 ===== 2          (1-2 peer; tier)
    ///       / \       \
    ///      3   4       5        (3,4 customers of 1; 5 customer of 2)
    ///     /     \     /
    ///    6       7==8           (6 cust of 3; 7 cust of 4; 8 cust of 5; 7-8 peer)
    /// ```
    fn db() -> RelationshipDb {
        use Relationship::*;
        let mut db = RelationshipDb::default();
        db.insert(Asn(1), Asn(2), Peer);
        db.insert(Asn(3), Asn(1), Provider);
        db.insert(Asn(4), Asn(1), Provider);
        db.insert(Asn(5), Asn(2), Provider);
        db.insert(Asn(6), Asn(3), Provider);
        db.insert(Asn(7), Asn(4), Provider);
        db.insert(Asn(8), Asn(5), Provider);
        db.insert(Asn(7), Asn(8), Peer);
        db
    }

    #[test]
    fn customer_routes_descend() {
        let m = GrModel::new(&db());
        let r = m.routes_to(Asn(6));
        assert_eq!(r.dist(Asn(3), RouteClass::Customer), Some(1));
        assert_eq!(r.dist(Asn(1), RouteClass::Customer), Some(2));
        assert_eq!(
            r.dist(Asn(4), RouteClass::Customer),
            None,
            "4 has no customer route to 6"
        );
        assert_eq!(r.best_class(Asn(1)), Some(RouteClass::Customer));
    }

    #[test]
    fn peer_and_provider_classes() {
        let m = GrModel::new(&db());
        let r = m.routes_to(Asn(6));
        // 2 reaches 6 via peer 1 then down: peer class, length 3.
        assert_eq!(r.dist(Asn(2), RouteClass::Peer), Some(3));
        assert_eq!(r.best_class(Asn(2)), Some(RouteClass::Peer));
        // 4 reaches 6 via provider 1: provider class, length 3.
        assert_eq!(r.dist(Asn(4), RouteClass::Provider), Some(3));
        assert_eq!(r.best_class(Asn(4)), Some(RouteClass::Provider));
        // 7 via peer 8? 8 has no customer route to 6 → peer hop invalid;
        // 7 goes up through 4: provider class length 4.
        assert_eq!(r.dist(Asn(7), RouteClass::Peer), None);
        assert_eq!(r.dist(Asn(7), RouteClass::Provider), Some(4));
        assert_eq!(r.shortest_any(Asn(7)), Some(4));
    }

    #[test]
    fn valley_free_is_enforced() {
        let m = GrModel::new(&db());
        // Toward 8: 7 has a peer route (via 8 directly, length 1).
        let r = m.routes_to(Asn(8));
        assert_eq!(r.dist(Asn(7), RouteClass::Peer), Some(1));
        // 6 must climb to 3,1 then peer 2 then down — no route via 7-8 peer
        // (that would be peer-after-uphill at 7... which IS valley-free as
        // provider class of 6? 6→3→1 uphill, 1→2 peer, 2→5→8 downhill:
        // length 5. Via 7: 6 can't reach 7 (7 is not 6's neighbor).
        assert_eq!(r.dist(Asn(6), RouteClass::Provider), Some(5));
        // 4's provider route to 8: 4→1→2→5→8 length 4; but 4 also has
        // customer 7 peering with 8: 4→7→8 would be a valley (customer
        // route at 4 requires all downhill; 7→8 is a peer hop) → invalid.
        assert_eq!(r.dist(Asn(4), RouteClass::Customer), None);
        assert_eq!(r.dist(Asn(4), RouteClass::Provider), Some(4));
    }

    #[test]
    fn sibling_links_are_transparent() {
        use Relationship::*;
        let mut db = db();
        // 9 is a sibling of 3.
        db.insert(Asn(9), Asn(3), Sibling);
        let m = GrModel::new(&db);
        let r = m.routes_to(Asn(6));
        // 9 reaches 6 via sibling 3 in the customer class (transparent),
        // one extra hop.
        assert_eq!(r.dist(Asn(9), RouteClass::Customer), Some(2));
        assert_eq!(r.best_class(Asn(9)), Some(RouteClass::Customer));
    }

    #[test]
    fn path_extraction_matches_distances() {
        let m = GrModel::new(&db());
        let r = m.routes_to(Asn(6));
        for asn in [1u32, 2, 3, 4, 5, 7, 8] {
            let x = Asn(asn);
            let path = r.extract_path(x).unwrap_or_else(|| panic!("{x} reachable"));
            assert_eq!(
                path.len(),
                r.shortest_best_class(x).unwrap(),
                "length at {x}"
            );
            assert_eq!(*path.last().unwrap(), Asn(6));
        }
        // Destination itself: empty path.
        assert_eq!(r.extract_path(Asn(6)), Some(vec![]));
    }

    #[test]
    fn unreachable_and_unknown() {
        let m = GrModel::new(&db());
        let r = m.routes_to(Asn(6));
        assert!(!r.reachable(Asn(999)));
        assert_eq!(r.shortest_any(Asn(999)), None);
        assert_eq!(r.extract_path(Asn(999)), None);
        // Unknown destination yields nothing but does not panic.
        let r2 = m.routes_to(Asn(424242));
        assert!(!r2.reachable(Asn(1)));
    }

    #[test]
    fn edge_filter_removes_origin_adjacency() {
        let m = GrModel::new(&db());
        // Forbid the 3–6 edge: 6 only reachable... 6's only neighbor is 3,
        // so nobody reaches 6.
        let r = m.routes_to_filtered(Asn(6), |a, b| {
            !matches!((a, b), (Asn(6), Asn(3)) | (Asn(3), Asn(6)))
        });
        assert!(!r.reachable(Asn(1)));
        assert!(!r.reachable(Asn(3)));
    }

    #[test]
    fn rel_lookup() {
        let m = GrModel::new(&db());
        assert_eq!(m.rel(Asn(3), Asn(1)), Some(Relationship::Provider));
        assert_eq!(m.rel(Asn(1), Asn(3)), Some(Relationship::Customer));
        assert_eq!(m.rel(Asn(3), Asn(5)), None);
        assert_eq!(m.len(), 8);
    }
}

#[cfg(test)]
mod differential_tests {
    //! Differential testing: an independent Bellman–Ford-style least-
    //! fixpoint solver for the three valley-free recurrences, checked
    //! against the production BFS/Dijkstra implementation on hundreds of
    //! random topologies.

    use super::*;
    use ir_topology::RelationshipDb;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Reference implementation: iterate the defining equations
    ///
    /// ```text
    /// dc[x] = 0 if x = d         else 1 + min over customers/siblings y of dc[y]
    /// dp[x] = min(1 + min over peers y of dc[y], 1 + min over siblings y of dp[y])
    /// dv[x] = 1 + min over providers/siblings y of min(dc, dp, dv)[y]
    /// ```
    ///
    /// to their least fixpoint.
    fn reference(db: &RelationshipDb, dst: Asn) -> BTreeMap<Asn, [Option<usize>; 3]> {
        let asns = db.asns();
        let mut dc: BTreeMap<Asn, usize> = BTreeMap::new();
        let mut dp: BTreeMap<Asn, usize> = BTreeMap::new();
        let mut dv: BTreeMap<Asn, usize> = BTreeMap::new();
        if asns.contains(&dst) {
            dc.insert(dst, 0);
        }
        for _ in 0..3 * asns.len() + 3 {
            let mut changed = false;
            for &x in &asns {
                // Candidate updates are computed from the *current* maps,
                // then applied — a plain Bellman–Ford sweep.
                let mut cand_c: Option<usize> = None;
                let mut cand_p: Option<usize> = None;
                let mut cand_v: Option<usize> = None;
                let keep_min = |slot: &mut Option<usize>, v: Option<usize>| {
                    if let Some(v) = v {
                        if slot.map(|s| v < s).unwrap_or(true) {
                            *slot = Some(v);
                        }
                    }
                };
                for (y, rel) in db.neighbors_of(x) {
                    // rel = y as seen from x.
                    let best_y = [dc.get(&y), dp.get(&y), dv.get(&y)]
                        .into_iter()
                        .flatten()
                        .min()
                        .copied();
                    match rel {
                        Relationship::Customer => {
                            keep_min(&mut cand_c, dc.get(&y).map(|v| v + 1));
                        }
                        Relationship::Sibling => {
                            keep_min(&mut cand_c, dc.get(&y).map(|v| v + 1));
                            keep_min(&mut cand_p, dp.get(&y).map(|v| v + 1));
                            keep_min(&mut cand_v, best_y.map(|v| v + 1));
                        }
                        Relationship::Peer => {
                            keep_min(&mut cand_p, dc.get(&y).map(|v| v + 1));
                        }
                        Relationship::Provider => {
                            keep_min(&mut cand_v, best_y.map(|v| v + 1));
                        }
                    }
                }
                let apply = |map: &mut BTreeMap<Asn, usize>, cand: Option<usize>| {
                    if let Some(c) = cand {
                        if map.get(&x).map(|v| c < *v).unwrap_or(true) {
                            map.insert(x, c);
                            return true;
                        }
                    }
                    false
                };
                changed |= apply(&mut dc, cand_c);
                changed |= apply(&mut dp, cand_p);
                changed |= apply(&mut dv, cand_v);
            }
            if !changed {
                break;
            }
        }
        asns.into_iter()
            .map(|a| {
                (
                    a,
                    [
                        dc.get(&a).copied(),
                        dp.get(&a).copied(),
                        dv.get(&a).copied(),
                    ],
                )
            })
            .collect()
    }

    /// Random relationship topology: `n` nodes, each pair linked with
    /// probability ~40%, label drawn uniformly.
    fn random_db(n: usize, picks: &[u8]) -> RelationshipDb {
        let mut db = RelationshipDb::default();
        let mut k = 0usize;
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                let pick = picks[k % picks.len()];
                k += 1;
                match pick % 10 {
                    0..=1 => db.insert(Asn(i), Asn(j), Relationship::Provider),
                    2..=3 => db.insert(Asn(i), Asn(j), Relationship::Customer),
                    4 => db.insert(Asn(i), Asn(j), Relationship::Peer),
                    5 => db.insert(Asn(i), Asn(j), Relationship::Sibling),
                    _ => {} // no link
                }
            }
        }
        db
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn production_matches_reference_fixpoint(
            n in 3usize..9,
            picks in proptest::collection::vec(any::<u8>(), 64),
            dst_pick in any::<u32>(),
        ) {
            let db = random_db(n, &picks);
            let asns = db.asns();
            prop_assume!(!asns.is_empty());
            let dst = asns[(dst_pick as usize) % asns.len()];
            let model = GrModel::new(&db);
            let routes = model.routes_to(dst);
            let expected = reference(&db, dst);
            for (asn, exp) in expected {
                for (ci, class) in RouteClass::ALL.into_iter().enumerate() {
                    prop_assert_eq!(
                        routes.dist(asn, class),
                        exp[ci],
                        "{} class {:?} (dst {})",
                        asn, class, dst
                    );
                }
                // The derived queries agree with the reference too: the
                // best class is the first reachable one, the shortest
                // length is the minimum over classes, and a path exists
                // exactly when some class is reachable.
                let best = RouteClass::ALL
                    .into_iter()
                    .zip(exp)
                    .find_map(|(c, d)| d.map(|_| c));
                prop_assert_eq!(routes.best_class(asn), best, "best_class at {}", asn);
                let shortest = exp.into_iter().flatten().min();
                prop_assert_eq!(routes.shortest_any(asn), shortest, "shortest_any at {}", asn);
                let has_path = routes.extract_path(asn).is_some();
                prop_assert_eq!(has_path, best.is_some(), "path at {}", asn);
            }
        }

        #[test]
        fn extracted_paths_are_valley_free_and_exact(
            n in 3usize..9,
            picks in proptest::collection::vec(any::<u8>(), 64),
            dst_pick in any::<u32>(),
        ) {
            let db = random_db(n, &picks);
            let asns = db.asns();
            prop_assume!(!asns.is_empty());
            let dst = asns[(dst_pick as usize) % asns.len()];
            let model = GrModel::new(&db);
            let routes = model.routes_to(dst);
            for &x in &asns {
                if x == dst { continue; }
                let Some(path) = routes.extract_path(x) else { continue };
                // Exact length.
                prop_assert_eq!(Some(path.len()), routes.shortest_best_class(x));
                // Adjacency along the chain.
                let mut prev = x;
                for &hop in &path {
                    prop_assert!(db.rel(prev, hop).is_some(), "{}-{} adjacent", prev, hop);
                    prev = hop;
                }
                prop_assert_eq!(*path.last().unwrap(), dst);
                // Valley-free: once downhill (customer step), never again
                // uphill or across a peer link.
                let mut prev = x;
                let mut downhill = false;
                let mut peer_used = false;
                for &hop in &path {
                    match db.rel(prev, hop).unwrap() {
                        Relationship::Customer => downhill = true,
                        Relationship::Sibling => {}
                        Relationship::Peer => {
                            prop_assert!(!downhill && !peer_used, "peer after descent");
                            peer_used = true;
                            downhill = true;
                        }
                        Relationship::Provider => {
                            prop_assert!(!downhill && !peer_used, "uphill after descent");
                        }
                    }
                    prev = hop;
                }
            }
        }
    }
}
