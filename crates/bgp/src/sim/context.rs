//! The per-world session table every sim shares, and the compact column
//! storage a converged table leaves the sim in: [`SimContext`], the CSR
//! session layout, [`ShapeTable`], and extract/hydrate between the two.

use super::{ActivationOrder, Announcement, PrefixSim};
use crate::compact::{rel_of_tag, route_tag, CompactRoute, EntryColumns, RouteColumns};
use crate::compact::{NO_CITY, NO_NODE};
use crate::patharena::PathArena;
use crate::route::Route;
use ir_topology::graph::{LinkKind, NodeIdx};
use ir_topology::World;
use ir_types::{Asn, CityId, Error, Prefix, Relationship, Timestamp};
use std::sync::Arc;

/// One BGP session: a (link, interconnection city) pair. Hybrid links
/// produce one session per city, each with its own relationship.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Session {
    pub(crate) peer: NodeIdx,
    pub(crate) city: CityId,
    /// Relationship of `peer` as seen from the owning node, at `city`.
    pub(crate) rel: Relationship,
    pub(crate) kind: LinkKind,
    /// IGP cost from the owning node to this session's interconnection.
    pub(crate) igp: u32,
}

/// CSR layout of the world's BGP sessions: every session of every node in
/// one flat vector with per-node offsets, plus the flat reverse index.
/// The adj-RIB-in table indexes by the same dense offsets, so one world
/// has exactly one session numbering shared by topology and route storage.
struct CsrTopology {
    /// All sessions, grouped by owning node (ascending).
    sessions: Vec<Session>,
    /// `session_off[x]..session_off[x + 1]` = `x`'s slice of `sessions`.
    session_off: Vec<u32>,
    /// Reverse index entries `(listener, rib)`: the sessions over which a
    /// node's exports are imported, where `rib` is the flat session (and
    /// adj-RIB-in) index of the listener's session back to the exporter.
    listeners: Vec<(u32, u32)>,
    /// `listener_off[x]..listener_off[x + 1]` = `x`'s slice of `listeners`.
    listener_off: Vec<u32>,
    /// Entry attributes of a route imported over each session, shared by
    /// every adj-RIB-in over this topology.
    entries: Arc<EntryColumns>,
}

impl CsrTopology {
    fn build(world: &World) -> CsrTopology {
        let n = world.graph.len();
        let mut sessions = Vec::new();
        let mut session_off = Vec::with_capacity(n + 1);
        session_off.push(0u32);
        for a in 0..n {
            for l in world.graph.links(a) {
                for (pos, &city) in l.cities.iter().enumerate() {
                    sessions.push(Session {
                        peer: l.peer,
                        city,
                        rel: l.rel_at(city),
                        kind: l.kind,
                        igp: l.igp_cost + pos as u32,
                    });
                }
            }
            session_off.push(sessions.len() as u32);
        }
        // Reverse index, CSR too: count, prefix-sum, fill (ascending owner
        // order, so each node's listeners come out ascending as well).
        let mut counts = vec![0u32; n];
        for s in &sessions {
            counts[s.peer] += 1;
        }
        let mut listener_off = Vec::with_capacity(n + 1);
        listener_off.push(0u32);
        let mut acc = 0u32;
        for &c in &counts {
            acc += c;
            listener_off.push(acc);
        }
        let mut cursor: Vec<u32> = listener_off[..n].to_vec();
        let mut listeners = vec![(0u32, 0u32); sessions.len()];
        for l in 0..n {
            let base = session_off[l];
            let (lo, hi) = (session_off[l] as usize, session_off[l + 1] as usize);
            for (si, s) in sessions[lo..hi].iter().enumerate() {
                let slot = cursor[s.peer] as usize;
                cursor[s.peer] += 1;
                listeners[slot] = (l as u32, base + si as u32);
            }
        }
        let entries =
            Arc::new(EntryColumns::from_sessions(sessions.iter().map(|s| {
                (s.peer as u32, s.city.0, route_tag(s.rel, s.rel), s.igp)
            })));
        CsrTopology {
            sessions,
            session_off,
            listeners,
            listener_off,
            entries,
        }
    }
}

/// Immutable per-world simulation state, shared by every per-prefix
/// simulation over the same [`World`]: the world and its CSR session
/// table. Build it once with [`SimContext::shared`] and hand clones of the
/// `Arc` to [`PrefixSim::with_context`]. Paths are not part of it: every
/// [`PrefixSim`] owns the arena its routes intern into, so sims sharing a
/// context never share, lock or count each other's paths.
pub struct SimContext<'w> {
    pub(crate) world: &'w World,
    topo: Arc<CsrTopology>,
}

impl<'w> SimContext<'w> {
    /// Builds the shared per-world state (O(sessions)).
    pub fn new(world: &'w World) -> SimContext<'w> {
        SimContext {
            world,
            topo: Arc::new(CsrTopology::build(world)),
        }
    }

    /// [`SimContext::new`] wrapped for sharing across prefixes (and, with
    /// rayon, across threads).
    pub fn shared(world: &'w World) -> Arc<SimContext<'w>> {
        Arc::new(SimContext::new(world))
    }

    /// A context sharing this one's world and session table. A context
    /// holds nothing else, so a fork is equivalent to a clone of the
    /// `Arc`: every [`PrefixSim`] owns its path arena either way.
    pub fn fork(&self) -> Arc<SimContext<'w>> {
        Arc::new(SimContext {
            world: self.world,
            topo: Arc::clone(&self.topo),
        })
    }

    /// The world this context is bound to.
    pub fn world(&self) -> &'w World {
        self.world
    }

    /// Sessions of node `x`.
    pub(crate) fn sessions(&self, x: NodeIdx) -> &[Session] {
        &self.topo.sessions
            [self.topo.session_off[x] as usize..self.topo.session_off[x + 1] as usize]
    }

    /// Flat session (= adj-RIB-in) index of `x`'s first session.
    pub(crate) fn rib_base(&self, x: NodeIdx) -> usize {
        self.topo.session_off[x] as usize
    }

    /// The session behind a flat index.
    pub(crate) fn session_at(&self, rib: usize) -> &Session {
        &self.topo.sessions[rib]
    }

    /// Reverse index: every `(listener, rib)` importing from `x`.
    pub(crate) fn listeners(&self, x: NodeIdx) -> &[(u32, u32)] {
        &self.topo.listeners
            [self.topo.listener_off[x] as usize..self.topo.listener_off[x + 1] as usize]
    }

    /// An empty adj-RIB-in over this context's sessions.
    pub(super) fn new_rib(&self) -> RouteColumns {
        RouteColumns::over_sessions(Arc::clone(&self.topo.entries))
    }
}

/// Canonical key for an undirected link between two node indices.
pub(super) fn link_key(a: NodeIdx, b: NodeIdx) -> (NodeIdx, NodeIdx) {
    (a.min(b), a.max(b))
}

/// Materializes a compact route back into the public [`Route`] shape.
/// `asn_of` resolves the stored neighbor node index (the graph for a live
/// sim, a captured ASN table for a detached universe).
#[inline]
pub(super) fn materialize_route(
    r: CompactRoute,
    prefix: Prefix,
    arena: &PathArena,
    asn_of: impl Fn(u32) -> Asn,
) -> Route {
    Route {
        prefix,
        path: arena.materialize(r.path),
        learned_from: (r.learned_from != NO_NODE).then(|| asn_of(r.learned_from)),
        entry_city: (r.city != NO_CITY).then_some(CityId(r.city)),
        rel: rel_of_tag(r.rel),
        local_pref: r.local_pref,
        igp_cost: r.igp_cost,
        age: Timestamp(u64::from(r.age)),
    }
}

/// A converged per-shape routing table in compact form, carrying its own
/// (post-convergence, re-interned) arena. The universe shares one
/// `Arc<ShapeTable>` across every prefix of an announcement shape and
/// injects the concrete prefix at materialization time.
pub(crate) struct ShapeTable {
    pub(crate) rows: RouteColumns,
    arena: Arc<PathArena>,
}

impl ShapeTable {
    /// The route at `x`, materialized for `prefix`.
    pub(crate) fn route(&self, prefix: Prefix, x: NodeIdx, asns: &[Asn]) -> Option<Route> {
        if x >= self.rows.len() {
            return None;
        }
        let r = self.rows.get(x)?;
        Some(materialize_route(r, prefix, &self.arena, |i| {
            asns[i as usize]
        }))
    }

    /// Resident bytes (columns + private arena).
    pub(crate) fn bytes(&self) -> usize {
        self.rows.bytes() + self.arena.stats().bytes
    }

    /// The table's private arena (snapshot serialization reads it raw).
    pub(crate) fn arena(&self) -> &Arc<PathArena> {
        &self.arena
    }

    /// Assembles a table (extracted, or deserialized) from its parts.
    /// `rows` path handles must be scoped to `arena`.
    pub(crate) fn from_parts(rows: RouteColumns, arena: Arc<PathArena>) -> ShapeTable {
        ShapeTable { rows, arena }
    }
}

impl<'w> PrefixSim<'w> {
    /// Extracts the converged best table for universe fan-out: live rows
    /// are re-interned into a fresh arena holding exactly the surviving
    /// route tree, so the table's footprint is independent of how much the
    /// propagation churned. Handles in the result are scoped to the
    /// returned table's own arena.
    pub(crate) fn extract_table(&self) -> ShapeTable {
        let mut arena = PathArena::new();
        let n = self.best.len();
        let mut rows = RouteColumns::new(n);
        for x in 0..n {
            if let Some(mut r) = self.best.get(x) {
                r.path = arena.intern(&self.arena.materialize(r.path));
                rows.set(x, Some(r));
            }
        }
        ShapeTable::from_parts(rows, Arc::new(arena))
    }

    /// Rebuilds a live, delta-ready sim from a converged [`ShapeTable`]
    /// (universe fan-out state or a reloaded snapshot) without replaying
    /// propagation: the best table is re-interned into the new sim's
    /// arena and the adj-RIB-in re-derived per node from the converged
    /// invariant — O(sessions) policy evaluations instead of a full
    /// worklist run. Assumes the table came from a plain announcement at
    /// `Timestamp::ZERO`, which is how [`crate::RoutingUniverse`] computes,
    /// and refuses one that is not a fixpoint of this world: it must hold
    /// one row per AS, and each row must be the route the decision process
    /// selects from the re-derived adj-RIB-in, age included.
    pub(crate) fn hydrate(
        ctx: Arc<SimContext<'w>>,
        order: ActivationOrder,
        prefix: Prefix,
        origin: Asn,
        table: &ShapeTable,
    ) -> Result<PrefixSim<'w>, Error> {
        let mut sim = PrefixSim::with_context_ordered(ctx, prefix, order);
        let n = sim.best.len();
        let not_a_fixpoint = || {
            let why = format!("{prefix}: table is not a fixpoint of this world");
            Error::incomplete("what-if base", why)
        };
        if table.rows.len() != n {
            return Err(not_a_fixpoint());
        }
        let ann = Announcement::plain(origin, prefix);
        let path = ann.origination_path();
        sim.inputs.ann_path = sim.arena.intern(&path);
        sim.inputs.ann_path_len = path.len() as u16;
        sim.inputs.origin_idx = sim.ctx.world.graph.index_of(origin);
        sim.inputs.announcement = Some(ann);
        for x in 0..n {
            if let Some(mut r) = table.rows.get(x) {
                r.path = sim.arena.intern(&table.arena.materialize(r.path));
                sim.best.set(x, Some(r));
            }
        }
        for x in 0..n {
            sim.rederive_rib(x, None);
        }
        if (0..n).any(|x| sim.best.get(x) != sim.select_at(x)) {
            return Err(not_a_fixpoint());
        }
        Ok(sim)
    }
}
