//! Multi-prefix convenience layer: converge many prefixes in parallel.
//!
//! Per-prefix propagation runs are independent, so they parallelize
//! embarrassingly with rayon (the networking guides' recommended tool for
//! CPU-bound parallelism). The result — a [`RoutingUniverse`] — answers
//! "what route does AS X use toward prefix P?" for every AS at once, which
//! is what the data plane's forwarding walk and the collectors' BGP feeds
//! both consume.
//!
//! [`RoutingUniverse::compute_with_faults_ordered`] additionally replays a
//! [`FaultPlane`]'s timed schedule (link flaps, session resets) against
//! every prefix after the initial announcement, and applies its poison
//! filters — the control-plane half of the chaos layer. A quiet plane is an
//! empty filter set and an empty schedule through the same loop, so
//! zero-rate configs are bit-identical to [`RoutingUniverse::compute`].
//!
//! **Cross-prefix batching.** The decision process, import/export policy,
//! and fault schedule never look at prefix *bits*: the only prefix-sensitive
//! input to propagation is the origin's selective-announce (PSP) entry for
//! the prefix. Prefixes sharing an **announcement shape** — same origin,
//! same PSP entry (poison and `via` are constant: universe announcements
//! are plain) — therefore converge to tables that differ only in the prefix
//! each route carries. The universe groups prefixes by shape, propagates
//! once per shape, and fans the converged RIB out to the other members by
//! rewriting the carried prefix, which is byte-identical to (and much
//! cheaper than) re-running propagation per member. The batching-invariance
//! tests compare against one singleton universe per prefix;
//! [`EngineStats::shapes_computed`] / [`EngineStats::prefixes_shared`]
//! (via [`RoutingUniverse::engine_stats`]) make the sharing observable.

use crate::compact::{rel_of_tag, CompactRoute, MemoryBudget, RouteColumns, NO_NODE, REL_NONE};
use crate::patharena::{PathArena, PathId};
use crate::route::Route;
use crate::sim::{ActivationOrder, Announcement, EngineStats, PrefixSim, ShapeTable, SimContext};
use crate::snapshot::{seal_with_crc, verify_crc, Reader, Writer};
use ir_fault::{FaultDomain, FaultPlane, TimedFault};
use ir_topology::graph::NodeIdx;
use ir_topology::World;
use ir_types::{Asn, Error, Ipv4, Prefix, Timestamp};
use rayon::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

/// Snapshot format tag; bump on any layout change. `02` sealed the CRC32
/// trailer into the layout; `03` dropped the serving-layer counters
/// [`EngineStats`] no longer carries; `04` widened the route tag to carry a
/// sibling route's tier (routes computed under the older, promoting
/// sibling rule are not this engine's).
const SNAPSHOT_MAGIC: &[u8] = b"IRUNIV04";

/// Converged routing state for a set of prefixes.
pub struct RoutingUniverse {
    /// Per prefix: the compact per-AS routing table (indexed by
    /// [`NodeIdx`]). Prefixes of one announcement shape share a single
    /// `Arc` — the fan-out stores no per-member copy; the member's prefix
    /// is injected when a route is materialized.
    tables: BTreeMap<Prefix, Arc<ShapeTable>>,
    /// Node index → ASN, captured from the world so materialization does
    /// not need to re-borrow it.
    asns: Vec<Asn>,
    /// Origin of each prefix.
    origins: BTreeMap<Prefix, Asn>,
    /// Prefixes whose propagation failed to converge (policy disputes),
    /// ascending. Generated worlds can contain live dispute wheels — 2 of
    /// tiny seeds 0..300 do, while paper worlds 1..12 converge.
    unconverged: Vec<Prefix>,
    /// Fault-recovery accounting (all zero when computed without faults).
    resilience: UniverseResilience,
    /// Aggregate engine effort across shapes, including the batching
    /// counters (`shapes_computed`, `prefixes_shared`).
    stats: EngineStats,
}

/// Aggregate fault-recovery counters over a universe's convergence, summed
/// across prefixes. All zeros unless the universe was computed with a
/// non-quiet [`FaultPlane`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UniverseResilience {
    /// Fault events applied (per prefix × scheduled event, minus no-ops).
    pub fault_events: usize,
    /// Worklist rounds spent reconverging after faults.
    pub recovery_rounds: usize,
    /// Adj-RIB-in entries torn down by session faults.
    pub sessions_torn: usize,
    /// Links still down when convergence finished (per the schedule; the
    /// same for every prefix).
    pub links_down_at_end: usize,
}

/// Maps every prefix in the world to its originating AS.
pub fn prefix_owners(world: &World) -> BTreeMap<Prefix, Asn> {
    let mut owners = BTreeMap::new();
    for node in world.graph.nodes() {
        for p in &node.prefixes {
            let prev = owners.insert(*p, node.asn);
            assert!(prev.is_none(), "prefix {p} originated twice");
        }
    }
    owners
}

/// Where [`RoutingUniverse::save_snapshot`] stages its atomic write:
/// `<file>.tmp` next to the target, so the final `rename` never crosses a
/// filesystem boundary.
pub fn snapshot_staging_path(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// One converged prefix: (prefix, origin, per-AS routing table, converged).
type PrefixResult = (Prefix, Asn, Arc<ShapeTable>, bool);

/// What makes two plain prefix announcements propagate identically: the
/// origin node and the origin's selective-announce entry for the prefix
/// (`None` = announce to everyone). Nothing else in the engine reads the
/// prefix.
type ShapeKey = (NodeIdx, Option<BTreeSet<Asn>>);

/// Groups `prefixes` by announcement shape (insertion order within a
/// group, key order across groups — both deterministic).
fn shape_groups(
    world: &World,
    prefixes: &[Prefix],
    owners: &BTreeMap<Prefix, Asn>,
) -> Vec<(Asn, Vec<Prefix>)> {
    let mut groups: BTreeMap<ShapeKey, (Asn, Vec<Prefix>)> = BTreeMap::new();
    for &prefix in prefixes {
        let origin = *owners
            .get(&prefix)
            .unwrap_or_else(|| panic!("prefix {prefix} has no owner"));
        let idx = world
            .graph
            .index_of(origin)
            .unwrap_or_else(|| panic!("unknown origin {origin}"));
        let psp = world.policy(idx).selective_announce.get(&prefix).cloned();
        groups
            .entry((idx, psp))
            .or_insert_with(|| (origin, Vec::new()))
            .1
            .push(prefix);
    }
    groups.into_values().collect()
}

/// Fans a shape's converged table out to every member prefix. Routes are
/// identical across members except for the prefix they carry, and compact
/// tables don't store the prefix at all — so sharing is an `Arc` clone per
/// member, with the member's prefix injected at materialization time. (The
/// representative is listed last, matching the historical move-into-last
/// ordering the assemble step normalizes away.)
fn fan_out(
    origin: Asn,
    members: &[Prefix],
    table: Arc<ShapeTable>,
    converged: bool,
) -> Vec<PrefixResult> {
    let mut out = Vec::with_capacity(members.len());
    for &m in &members[1..] {
        out.push((m, origin, Arc::clone(&table), converged));
    }
    out.push((members[0], origin, table, converged));
    out
}

/// Converges `prefixes` shape by shape — the one loop behind every
/// [`RoutingUniverse`] `compute*` entry and the [`crate::WhatIfEngine`]
/// base convergence. Prefixes are grouped by announcement shape and each
/// group runs in parallel over one shared context (the CSR session table);
/// every sim owns its path arena, so shapes never contend on interning:
/// `prepare` installs filters or defenses on the fresh sim, the
/// representative is announced plainly at t=0, `schedule` is replayed, and
/// the sim — with whether every event converged — is handed to `finish`
/// along with the group's origin and members.
pub(crate) fn converge_shapes<'w, T: Send>(
    world: &'w World,
    prefixes: &[Prefix],
    order: ActivationOrder,
    schedule: &[TimedFault],
    prepare: impl Fn(&mut PrefixSim<'w>) + Sync,
    finish: impl Fn(PrefixSim<'w>, bool, Asn, &[Prefix]) -> T + Sync,
) -> Vec<T> {
    let owners = prefix_owners(world);
    let ctx = SimContext::shared(world);
    shape_groups(world, prefixes, &owners)
        .par_iter()
        .map(|(origin, members)| {
            let rep = members[0];
            let mut sim = PrefixSim::with_context_ordered(Arc::clone(&ctx), rep, order);
            prepare(&mut sim);
            let mut converged = sim
                .announce(Announcement::plain(*origin, rep), Timestamp::ZERO)
                .converged;
            for fault in schedule {
                converged &= sim.apply_fault(fault).converged;
            }
            finish(sim, converged, *origin, members)
        })
        .collect()
}

impl RoutingUniverse {
    /// Converges the given prefixes (all originated by their ground-truth
    /// owners, announced plainly at t=0), in parallel.
    pub fn compute(world: &World, prefixes: &[Prefix]) -> RoutingUniverse {
        Self::compute_ordered(world, prefixes, ActivationOrder::default())
    }

    /// [`RoutingUniverse::compute`] with an explicit engine scheduling
    /// discipline. Pass [`ActivationOrder::Free`] only when an `ir-audit`
    /// `SafetyCertificate` certifies the world (unique stable routing);
    /// `certificate.activation_order()` encodes exactly that contract.
    pub fn compute_ordered(
        world: &World,
        prefixes: &[Prefix],
        order: ActivationOrder,
    ) -> RoutingUniverse {
        Self::compute_with_faults_ordered(world, prefixes, &FaultPlane::quiet(), order)
    }

    /// The general form: converges the given prefixes under a fault plane
    /// and an explicit scheduling discipline (see
    /// [`RoutingUniverse::compute_ordered`]). Poison-filtering ASes are
    /// sampled from the plane, and after the t=0 announcement the plane's
    /// timed schedule (link flaps, session resets) is replayed against every
    /// prefix. A plane with no poison-filter rate and no schedule — the
    /// quiet plane included — is bit-identical to
    /// [`RoutingUniverse::compute_ordered`].
    pub fn compute_with_faults_ordered(
        world: &World,
        prefixes: &[Prefix],
        plane: &FaultPlane,
        order: ActivationOrder,
    ) -> RoutingUniverse {
        // Poison filters and the timed schedule are prefix-independent, so
        // the announcement-shape grouping stays valid under faults.
        let filters: Vec<Asn> = world
            .graph
            .nodes()
            .iter()
            .filter(|n| plane.selects(FaultDomain::PoisonFilter, n.asn.value() as u64))
            .map(|n| n.asn)
            .collect();
        let per_shape: Vec<(Vec<PrefixResult>, EngineStats, usize)> = converge_shapes(
            world,
            prefixes,
            order,
            plane.schedule(),
            |sim| sim.set_poison_filters(filters.iter().copied()),
            |sim, converged, origin, members| {
                // The retained table is re-interned at extraction, so it
                // holds only the routes that survived convergence.
                let table = Arc::new(sim.extract_table());
                (
                    fan_out(origin, members, table, converged),
                    sim.stats(),
                    sim.downed_links().len(),
                )
            },
        );
        let mut resilience = UniverseResilience::default();
        let mut stats = EngineStats::default();
        let mut results = Vec::with_capacity(prefixes.len());
        for (shape_results, shape_stats, down) in per_shape {
            // Shared members skip the replay but would have produced the
            // exact counters of their representative (identical dynamics is
            // the batching premise); scaling keeps the resilience accounting
            // byte-identical to propagating every prefix on its own.
            let members = shape_results.len();
            resilience.fault_events += shape_stats.recovery_events * members;
            resilience.recovery_rounds += shape_stats.recovery_rounds * members;
            resilience.sessions_torn += shape_stats.sessions_torn * members;
            resilience.links_down_at_end = resilience.links_down_at_end.max(down);
            stats.absorb(&shape_stats);
            stats.shapes_computed += 1;
            stats.prefixes_shared += members - 1;
            results.extend(shape_results);
        }
        Self::assemble(world, results, resilience, stats)
    }

    fn assemble(
        world: &World,
        results: Vec<PrefixResult>,
        resilience: UniverseResilience,
        stats: EngineStats,
    ) -> RoutingUniverse {
        let mut universe = RoutingUniverse {
            tables: BTreeMap::new(),
            asns: world.graph.nodes().iter().map(|n| n.asn).collect(),
            origins: BTreeMap::new(),
            unconverged: Vec::new(),
            resilience,
            stats,
        };
        for (prefix, origin, table, converged) in results {
            if !converged {
                universe.unconverged.push(prefix);
            }
            universe.tables.insert(prefix, table);
            universe.origins.insert(prefix, origin);
        }
        // Results arrive grouped by shape; report unconverged prefixes in
        // ascending order whatever the grouping.
        universe.unconverged.sort_unstable();
        universe
    }

    /// Converges every prefix originated in the world.
    pub fn compute_all(world: &World) -> RoutingUniverse {
        Self::compute_all_with_faults_ordered(
            world,
            &FaultPlane::quiet(),
            ActivationOrder::default(),
        )
    }

    /// [`RoutingUniverse::compute_with_faults_ordered`] over every prefix
    /// originated in the world.
    pub fn compute_all_with_faults_ordered(
        world: &World,
        plane: &FaultPlane,
        order: ActivationOrder,
    ) -> RoutingUniverse {
        let prefixes: Vec<Prefix> = prefix_owners(world).keys().copied().collect();
        Self::compute_with_faults_ordered(world, &prefixes, plane, order)
    }

    /// The route AS `x` selected toward `prefix`, materialized from the
    /// shared compact shape table (hence returned by value).
    pub fn route(&self, prefix: Prefix, x: NodeIdx) -> Option<Route> {
        self.tables.get(&prefix)?.route(prefix, x, &self.asns)
    }

    /// Resident bytes of the retained routing state: compact columns plus
    /// per-shape arenas, each shared table counted once regardless of how
    /// many prefixes fan out of it.
    pub fn resident_bytes(&self) -> usize {
        let mut seen = BTreeSet::new();
        self.tables
            .values()
            .filter(|t| seen.insert(Arc::as_ptr(t) as usize))
            .map(|t| t.bytes())
            .sum()
    }

    /// Origin AS of a prefix.
    pub fn origin(&self, prefix: Prefix) -> Option<Asn> {
        self.origins.get(&prefix).copied()
    }

    /// All prefixes in the universe.
    pub fn prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.tables.keys().copied()
    }

    /// Prefixes that failed to converge.
    pub fn unconverged(&self) -> &[Prefix] {
        &self.unconverged
    }

    /// Fault-recovery accounting (all zeros without fault injection).
    pub fn resilience(&self) -> UniverseResilience {
        self.resilience
    }

    /// Aggregate engine effort across all shape propagations, with
    /// `shapes_computed` = propagations actually run and `prefixes_shared`
    /// = prefixes served by fan-out instead of their own run
    /// (`shapes_computed + prefixes_shared` = total prefixes).
    pub fn engine_stats(&self) -> EngineStats {
        self.stats
    }

    /// The per-prefix shape tables (Arc-shared across a shape's members) —
    /// what the what-if engine hydrates live sims from.
    pub(crate) fn tables(&self) -> &BTreeMap<Prefix, Arc<ShapeTable>> {
        &self.tables
    }

    /// Node index → ASN capture (see the field doc).
    pub(crate) fn asns(&self) -> &[Asn] {
        &self.asns
    }

    /// Serializes the converged universe — compact columns, path arenas,
    /// shape sharing, accounting — into a deterministic byte image that
    /// round-trips exactly, so
    /// [`RoutingUniverse::from_snapshot_bytes`] followed by another
    /// `to_snapshot_bytes` is byte-identical. Shape tables shared across
    /// member prefixes are written once and re-shared on load.
    pub fn to_snapshot_bytes(&self) -> Result<Vec<u8>, Error> {
        let mut w = Writer::new();
        w.bytes(SNAPSHOT_MAGIC);
        w.len(self.asns.len())?;
        for a in &self.asns {
            w.u32(a.value());
        }
        // Dedup shared tables by Arc identity, numbered in first-seen order
        // over the (deterministic) prefix walk.
        let mut shape_idx: BTreeMap<usize, u32> = BTreeMap::new();
        let mut shapes: Vec<&ShapeTable> = Vec::new();
        for table in self.tables.values() {
            let ptr = Arc::as_ptr(table) as usize;
            shape_idx.entry(ptr).or_insert_with(|| {
                shapes.push(table);
                (shapes.len() - 1) as u32
            });
        }
        w.len(shapes.len())?;
        for table in &shapes {
            let (cells, sets) = table.arena().raw_cells();
            w.len(sets.len())?;
            for s in &sets {
                w.len(s.len())?;
                for a in s {
                    w.u32(a.value());
                }
            }
            w.len(cells.len())?;
            for &(is_set, elem, tail) in &cells {
                w.u8(u8::from(is_set));
                w.u32(elem);
                w.u32(tail);
            }
            w.len(table.rows.len())?;
            for x in 0..table.rows.len() {
                match table.rows.get(x) {
                    None => w.u32(PathId::EMPTY.0),
                    Some(r) => {
                        w.u32(r.path.0);
                        w.u16(r.path_len);
                        w.u32(r.learned_from);
                        w.u16(r.city);
                        w.u8(r.rel);
                        w.i32(r.local_pref);
                        w.u32(r.igp_cost);
                        w.u32(r.age);
                    }
                }
            }
        }
        w.len(self.tables.len())?;
        for (prefix, table) in &self.tables {
            let origin = self.origins.get(prefix).ok_or_else(|| {
                Error::incomplete("snapshot", format!("prefix {prefix} has no origin"))
            })?;
            w.u32(prefix.base.0);
            w.u8(prefix.len);
            w.u32(origin.value());
            w.u32(shape_idx[&(Arc::as_ptr(table) as usize)]);
        }
        w.len(self.unconverged.len())?;
        for p in &self.unconverged {
            w.u32(p.base.0);
            w.u8(p.len);
        }
        w.u64(self.resilience.fault_events as u64);
        w.u64(self.resilience.recovery_rounds as u64);
        w.u64(self.resilience.sessions_torn as u64);
        w.u64(self.resilience.links_down_at_end as u64);
        for v in [
            self.stats.events,
            self.stats.activations,
            self.stats.imports,
            self.stats.recovery_events,
            self.stats.recovery_rounds,
            self.stats.sessions_torn,
            self.stats.shapes_computed,
            self.stats.prefixes_shared,
            self.stats.deltas_applied,
            self.stats.ases_seeded,
            self.stats.routes_retained,
            self.stats.deadline_aborts,
            self.stats.memory.route_bytes,
            self.stats.memory.routes,
            self.stats.memory.arena_bytes,
            self.stats.memory.arena_cells,
        ] {
            w.u64(v as u64);
        }
        w.u64(self.stats.memory.intern_hits);
        w.u64(self.stats.memory.intern_misses);
        let mut bytes = w.into_bytes();
        seal_with_crc(&mut bytes);
        Ok(bytes)
    }

    /// Decodes a [`RoutingUniverse::to_snapshot_bytes`] image. Fully
    /// validating: truncation, bad counts, dangling shape/path/neighbor
    /// references, prefix lengths over 32, or a corrupt arena all return an
    /// [`Error`] instead of panicking. The CRC only proves the bytes are the
    /// ones that were sealed, not that they make sense.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<RoutingUniverse, Error> {
        fn to_usize(v: u64) -> Result<usize, Error> {
            usize::try_from(v)
                .map_err(|_| Error::parse(None, format!("snapshot counter {v} overflows usize")))
        }
        fn read_prefix(r: &mut Reader<'_>, field: &str) -> Result<Prefix, Error> {
            let base = Ipv4(r.u32()?);
            let len = r.u8()?;
            if len > 32 {
                return Err(Error::parse(
                    None,
                    format!("snapshot {field} prefix length {len} exceeds 32"),
                ));
            }
            Ok(Prefix { base, len })
        }
        // A recognizable foreign version magic reports as a format mismatch
        // first: older layouts differ in length or lack the trailer, so the
        // checks below would misreport them as torn or corrupt.
        let foreign = |m: &&[u8]| m.starts_with(b"IRUNIV") && *m != SNAPSHOT_MAGIC;
        if let Some(m) = bytes.get(..SNAPSHOT_MAGIC.len()).filter(foreign) {
            return Err(Error::parse(
                None,
                format!(
                    "snapshot format {} is not supported by this build (expected {})",
                    String::from_utf8_lossy(m),
                    String::from_utf8_lossy(SNAPSHOT_MAGIC)
                ),
            ));
        }
        // The CRC32 trailer is verified (and stripped) before any structural
        // decoding: a torn or bit-flipped file is rejected wholesale, so the
        // validating decode below only ever sees what the writer sealed.
        let bytes = verify_crc(bytes)?;
        let mut r = Reader::new(bytes);
        r.expect_magic(SNAPSHOT_MAGIC)?;
        let n_asns = r.len(4)?;
        let mut asns = Vec::with_capacity(n_asns);
        for _ in 0..n_asns {
            asns.push(Asn(r.u32()?));
        }
        let n_shapes = r.len(1)?;
        let mut shapes: Vec<Arc<ShapeTable>> = Vec::with_capacity(n_shapes);
        for _ in 0..n_shapes {
            let n_sets = r.len(4)?;
            let mut sets = Vec::with_capacity(n_sets);
            for _ in 0..n_sets {
                let m = r.len(4)?;
                let mut set = Vec::with_capacity(m);
                for _ in 0..m {
                    set.push(Asn(r.u32()?));
                }
                sets.push(set);
            }
            let n_cells = r.len(9)?;
            let mut cells = Vec::with_capacity(n_cells);
            for _ in 0..n_cells {
                let is_set = r.u8()? != 0;
                cells.push((is_set, r.u32()?, r.u32()?));
            }
            let arena = PathArena::from_raw(&cells, sets)
                .ok_or_else(|| Error::parse(None, "snapshot arena is structurally invalid"))?;
            let n_rows = r.len(4)?;
            let mut rows = RouteColumns::new(n_rows);
            for x in 0..n_rows {
                let pid = r.u32()?;
                if pid == PathId::EMPTY.0 {
                    continue;
                }
                if pid as usize >= n_cells {
                    return Err(Error::parse(
                        None,
                        format!("snapshot row references unknown path cell {pid}"),
                    ));
                }
                let route = CompactRoute {
                    path: PathId(pid),
                    path_len: r.u16()?,
                    learned_from: r.u32()?,
                    city: r.u16()?,
                    rel: r.u8()?,
                    local_pref: r.i32()?,
                    igp_cost: r.u32()?,
                    age: r.u32()?,
                };
                let tag_fits = match route.learned_from {
                    NO_NODE => route.rel == REL_NONE,
                    _ => rel_of_tag(route.rel).is_some(),
                };
                if !tag_fits {
                    return Err(Error::parse(
                        None,
                        format!("snapshot row carries route tag {}", route.rel),
                    ));
                }
                if route.learned_from != NO_NODE && route.learned_from as usize >= n_asns {
                    return Err(Error::parse(
                        None,
                        format!(
                            "snapshot row learned_from {} is outside the {n_asns}-entry ASN table",
                            route.learned_from
                        ),
                    ));
                }
                rows.set(x, Some(route));
            }
            shapes.push(Arc::new(ShapeTable::from_parts(rows, Arc::new(arena))));
        }
        let n_prefixes = r.len(13)?;
        let mut tables = BTreeMap::new();
        let mut origins = BTreeMap::new();
        for _ in 0..n_prefixes {
            let prefix = read_prefix(&mut r, "table")?;
            let origin = Asn(r.u32()?);
            let si = r.u32()? as usize;
            let table = shapes.get(si).ok_or_else(|| {
                Error::parse(
                    None,
                    format!("snapshot prefix references unknown shape {si}"),
                )
            })?;
            tables.insert(prefix, Arc::clone(table));
            origins.insert(prefix, origin);
        }
        let n_unconverged = r.len(5)?;
        let mut unconverged = Vec::with_capacity(n_unconverged);
        for _ in 0..n_unconverged {
            unconverged.push(read_prefix(&mut r, "unconverged")?);
        }
        let resilience = UniverseResilience {
            fault_events: to_usize(r.u64()?)?,
            recovery_rounds: to_usize(r.u64()?)?,
            sessions_torn: to_usize(r.u64()?)?,
            links_down_at_end: to_usize(r.u64()?)?,
        };
        let stats = EngineStats {
            events: to_usize(r.u64()?)?,
            activations: to_usize(r.u64()?)?,
            imports: to_usize(r.u64()?)?,
            recovery_events: to_usize(r.u64()?)?,
            recovery_rounds: to_usize(r.u64()?)?,
            sessions_torn: to_usize(r.u64()?)?,
            shapes_computed: to_usize(r.u64()?)?,
            prefixes_shared: to_usize(r.u64()?)?,
            deltas_applied: to_usize(r.u64()?)?,
            ases_seeded: to_usize(r.u64()?)?,
            routes_retained: to_usize(r.u64()?)?,
            deadline_aborts: to_usize(r.u64()?)?,
            memory: MemoryBudget {
                route_bytes: to_usize(r.u64()?)?,
                routes: to_usize(r.u64()?)?,
                arena_bytes: to_usize(r.u64()?)?,
                arena_cells: to_usize(r.u64()?)?,
                intern_hits: r.u64()?,
                intern_misses: r.u64()?,
            },
        };
        r.done()?;
        Ok(RoutingUniverse {
            tables,
            asns,
            origins,
            unconverged,
            resilience,
            stats,
        })
    }

    /// Writes [`RoutingUniverse::to_snapshot_bytes`] to `path` atomically:
    /// the image is staged at [`snapshot_staging_path`], fsynced, then
    /// renamed over the target. A crash at any point leaves either the old
    /// snapshot or the new one — never a torn file at `path` (and any
    /// abandoned staging file fails its CRC check, so it can't be mistaken
    /// for a good image either).
    pub fn save_snapshot(&self, path: &Path) -> Result<(), Error> {
        let bytes = self.to_snapshot_bytes()?;
        let unavailable = |e: std::io::Error| Error::Unavailable {
            what: "snapshot file",
            detail: format!("{}: {e}", path.display()),
        };
        let staging = snapshot_staging_path(path);
        {
            use std::io::Write as _;
            let mut f = std::fs::File::create(&staging).map_err(unavailable)?;
            f.write_all(&bytes).map_err(unavailable)?;
            // The rename only publishes durable bytes: fsync before it, or
            // a crash could surface the new name over an empty inode.
            f.sync_all().map_err(unavailable)?;
        }
        std::fs::rename(&staging, path).map_err(unavailable)?;
        // Persist the rename itself. Not all filesystems let a directory be
        // fsynced; failure here narrows the crash window, it does not
        // un-publish the file, so it is best-effort.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Reads and decodes a snapshot file written by
    /// [`RoutingUniverse::save_snapshot`].
    pub fn load_snapshot(path: &Path) -> Result<RoutingUniverse, Error> {
        let bytes = std::fs::read(path).map_err(|e| Error::Unavailable {
            what: "snapshot file",
            detail: format!("{}: {e}", path.display()),
        })?;
        Self::from_snapshot_bytes(&bytes)
    }

    /// Restart-after-crash load: discards any staging debris a crash
    /// mid-[`RoutingUniverse::save_snapshot`] left behind, then loads the
    /// last published (CRC-verified) snapshot at `path`. This is the only
    /// load path the serving daemon uses.
    pub fn recover_snapshot(path: &Path) -> Result<RoutingUniverse, Error> {
        let staging = snapshot_staging_path(path);
        if staging.exists() {
            let _ = std::fs::remove_file(&staging);
        }
        Self::load_snapshot(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_fault::FaultConfig;
    use ir_topology::GeneratorConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn compute_reaches_fixpoints_and_supports_lpm() {
        let w = GeneratorConfig::tiny().build(9);
        let owners = prefix_owners(&w);
        let some: Vec<Prefix> = owners.keys().copied().take(12).collect();
        let u = RoutingUniverse::compute(&w, &some);
        assert!(u.unconverged().is_empty(), "tiny world converges");
        for p in &some {
            assert_eq!(u.origin(*p), owners.get(p).copied());
            // The origin itself holds a local route.
            let oidx = w.graph.index_of(owners[p]).unwrap();
            assert!(u.route(*p, oidx).unwrap().is_local());
        }
        // The prefix set with its origins is what longest-prefix match
        // (the data plane's `OriginTable`) is built from.
        assert!(u.prefixes().eq(some.iter().copied()));
        assert_eq!(u.resilience(), UniverseResilience::default());
    }

    /// Asserts that `batched` equals `ps` converged one prefix at a time:
    /// routes and origins per prefix, unconverged as the sorted union, and
    /// resilience summed field by field (links down at the end: the max).
    /// Each singleton runs exactly one shape and shares nothing.
    fn assert_matches_singletons(
        w: &World,
        ps: &[Prefix],
        plane: &FaultPlane,
        batched: &RoutingUniverse,
    ) {
        let mut unconverged = Vec::new();
        let mut resilience = UniverseResilience::default();
        for &p in ps {
            let order = ActivationOrder::default();
            let single = RoutingUniverse::compute_with_faults_ordered(w, &[p], plane, order);
            assert_eq!(batched.origin(p), single.origin(p));
            for x in 0..w.graph.len() {
                assert_eq!(batched.route(p, x), single.route(p, x), "{p} at {x}");
            }
            unconverged.extend_from_slice(single.unconverged());
            let r = single.resilience();
            resilience.fault_events += r.fault_events;
            resilience.recovery_rounds += r.recovery_rounds;
            resilience.sessions_torn += r.sessions_torn;
            resilience.links_down_at_end = resilience.links_down_at_end.max(r.links_down_at_end);
            let stats = single.engine_stats();
            assert_eq!((stats.shapes_computed, stats.prefixes_shared), (1, 0));
        }
        unconverged.sort_unstable();
        assert_eq!(batched.unconverged(), unconverged.as_slice());
        assert_eq!(batched.resilience(), resilience);
    }

    #[test]
    fn batched_universe_is_byte_identical_to_per_prefix() {
        let w = GeneratorConfig::tiny().build(9);
        let ps: Vec<Prefix> = prefix_owners(&w).keys().copied().collect();
        let batched = RoutingUniverse::compute(&w, &ps);
        assert_matches_singletons(&w, &ps, &FaultPlane::quiet(), &batched);
        // Sharing really happened: the generator gives transit/content ASes
        // multiple prefixes with no PSP split, so shapes < prefixes.
        let stats = batched.engine_stats();
        assert!(stats.prefixes_shared > 0, "no prefixes shared");
        assert_eq!(stats.shapes_computed + stats.prefixes_shared, ps.len());
    }

    #[test]
    fn psp_split_prefixes_get_their_own_shape() {
        // Give one multi-prefix origin a selective-announce entry for its
        // first prefix only: that prefix must leave the shared shape and
        // still route correctly (restricted at the origin).
        let mut w = GeneratorConfig::tiny().build(9);
        let (idx, ps) = (0..w.graph.len())
            .find_map(|i| {
                let node = w.graph.node(i);
                (node.prefixes.len() >= 2 && w.graph.providers(i).count() >= 2)
                    .then(|| (i, node.prefixes.clone()))
            })
            .expect("a multihomed multi-prefix AS exists");
        let keep = w.graph.asn(w.graph.providers(idx).next().unwrap());
        w.policies[idx]
            .selective_announce
            .insert(ps[0], [keep].into_iter().collect());
        let u = RoutingUniverse::compute(&w, &ps);
        assert_matches_singletons(&w, &ps, &FaultPlane::quiet(), &u);
        // Both shapes ran: the PSP-restricted prefix plus the shared rest.
        assert_eq!(u.engine_stats().shapes_computed, 2);
        assert_eq!(u.engine_stats().prefixes_shared, ps.len() - 2);
    }

    #[test]
    fn sealed_but_inconsistent_snapshots_are_rejected() {
        // The CRC proves only that the bytes are the ones sealed; an image
        // sealed over inconsistent state must still fail to decode rather
        // than decode and then panic on the first lookup.
        let w = GeneratorConfig::tiny().build(9);
        let ps: Vec<Prefix> = prefix_owners(&w).keys().copied().take(4).collect();
        // An ASN table shorter than a row's `learned_from`.
        let mut short = RoutingUniverse::compute(&w, &ps);
        short.asns.truncate(1);
        let Err(err) = RoutingUniverse::from_snapshot_bytes(&short.to_snapshot_bytes().unwrap())
        else {
            panic!("row pointing past the ASN table accepted");
        };
        assert!(err.to_string().contains("learned_from"), "{err}");
        // A /40 prefix key.
        let mut wide = RoutingUniverse::compute(&w, &ps);
        let bogus = Prefix {
            base: Ipv4(0x0a00_0000),
            len: 40,
        };
        let table = Arc::clone(&wide.tables[&ps[0]]);
        wide.tables.insert(bogus, table);
        wide.origins.insert(bogus, Asn(1));
        let Err(err) = RoutingUniverse::from_snapshot_bytes(&wide.to_snapshot_bytes().unwrap())
        else {
            panic!("/40 prefix accepted");
        };
        assert!(err.to_string().contains("prefix length 40"), "{err}");
    }

    #[test]
    fn older_snapshot_format_reports_a_version_error_not_corruption() {
        let w = GeneratorConfig::tiny().build(9);
        let ps: Vec<Prefix> = prefix_owners(&w).keys().copied().take(4).collect();
        let u = RoutingUniverse::compute(&w, &ps);
        // A pre-CRC image: the old magic and no trailer. The decoder must
        // name the format mismatch, not claim the file is torn.
        let mut old = u.to_snapshot_bytes().unwrap();
        old[..8].copy_from_slice(b"IRUNIV01");
        old.truncate(old.len() - 4);
        let Err(err) = RoutingUniverse::from_snapshot_bytes(&old) else {
            panic!("old-format image accepted");
        };
        let msg = err.to_string();
        assert!(
            msg.contains("IRUNIV01") && msg.contains("not supported"),
            "unhelpful version error: {msg}"
        );
        // The previous layouts, intact and correctly sealed, are still a
        // version mismatch — not a "magic mismatch" or a short read.
        for magic in [b"IRUNIV02", b"IRUNIV03"] {
            let mut prev = u.to_snapshot_bytes().unwrap();
            prev.truncate(prev.len() - 4);
            prev[..8].copy_from_slice(magic);
            seal_with_crc(&mut prev);
            let Err(err) = RoutingUniverse::from_snapshot_bytes(&prev) else {
                panic!("previous-format image accepted");
            };
            let msg = err.to_string();
            let name = String::from_utf8_lossy(magic);
            assert!(
                msg.contains(&*name) && msg.contains("expected IRUNIV04"),
                "unhelpful version error: {msg}"
            );
        }
        // A same-format corrupt file still reports corruption.
        let mut torn = u.to_snapshot_bytes().unwrap();
        let last = torn.len() - 1;
        torn[last] ^= 0x01;
        let Err(err) = RoutingUniverse::from_snapshot_bytes(&torn) else {
            panic!("corrupt image accepted");
        };
        let msg = err.to_string();
        assert!(msg.contains("CRC32"), "corruption misreported: {msg}");
    }

    #[test]
    fn quiet_fault_plane_is_bit_identical_to_plain_compute() {
        let w = GeneratorConfig::tiny().build(5);
        let owners = prefix_owners(&w);
        let ps: Vec<Prefix> = owners.keys().copied().take(10).collect();
        let plain = RoutingUniverse::compute(&w, &ps);
        // Idle for BGP but not quiet: only measurement-plane rates are set.
        let bgp_idle = FaultPlane::new(
            FaultConfig {
                probe_dropout: 0.5,
                dns_failure: 0.5,
                ..FaultConfig::quiet()
            },
            11,
        );
        assert!(!bgp_idle.is_quiet());
        for plane in [FaultPlane::quiet(), bgp_idle] {
            let order = ActivationOrder::default();
            let faulted = RoutingUniverse::compute_with_faults_ordered(&w, &ps, &plane, order);
            for p in &ps {
                for x in 0..w.graph.len() {
                    assert_eq!(plain.route(*p, x), faulted.route(*p, x));
                }
            }
            assert_eq!(faulted.resilience(), UniverseResilience::default());
            assert_eq!(faulted.engine_stats(), plain.engine_stats());
            assert_eq!(faulted.unconverged(), plain.unconverged());
            assert_eq!(
                faulted.to_snapshot_bytes().unwrap(),
                plain.to_snapshot_bytes().unwrap()
            );
        }
    }

    #[test]
    fn faulted_universe_routes_around_downed_links_and_accounts() {
        let w = GeneratorConfig::tiny().build(5);
        let owners = prefix_owners(&w);
        let ps: Vec<Prefix> = owners.keys().copied().take(8).collect();
        // Schedule a permanent outage on some transit link.
        let mut plane = FaultPlane::new(FaultConfig::quiet(), 3);
        let (a, b) = {
            let x = (0..w.graph.len())
                .find(|&i| w.graph.links(i).len() >= 2)
                .unwrap();
            let l = &w.graph.links(x)[0];
            (w.graph.asn(x), w.graph.asn(l.peer))
        };
        plane.schedule_event(
            ir_types::Timestamp(60),
            ir_fault::FaultEvent::LinkDown { a, b },
        );
        let u = RoutingUniverse::compute_with_faults_ordered(
            &w,
            &ps,
            &plane,
            ActivationOrder::default(),
        );
        let r = u.resilience();
        assert_eq!(r.fault_events, ps.len(), "one fault per prefix");
        assert_eq!(r.links_down_at_end, 1);
        // Invariant: no selected route crosses the downed link.
        let (ai, bi) = (w.graph.index_of(a).unwrap(), w.graph.index_of(b).unwrap());
        for p in &ps {
            if let Some(route) = u.route(*p, ai) {
                assert_ne!(route.learned_from, Some(b), "route over downed link");
            }
            if let Some(route) = u.route(*p, bi) {
                assert_ne!(route.learned_from, Some(a), "route over downed link");
            }
        }
    }

    /// Cuts the CRC trailer off `image`, applies `edit` to the body and
    /// seals it again, so the structural decoder sees the edit.
    fn reseal(image: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut body = image[..image.len() - 4].to_vec();
        edit(&mut body);
        seal_with_crc(&mut body);
        body
    }

    /// One random edit of a snapshot body: a flipped byte, a run of 0x00
    /// or 0xFF, a truncation, or a duplicated span.
    fn mutate(body: &mut Vec<u8>, rng: &mut StdRng) {
        if body.is_empty() {
            return;
        }
        let at = rng.random_range(0..body.len());
        match rng.random_range(0..4u8) {
            0 => body[at] ^= rng.random_range(1..=255u8),
            1 => {
                let end = body.len().min(at + rng.random_range(1..=16usize));
                body[at..end].fill(if rng.random_bool(0.5) { 0x00 } else { 0xFF });
            }
            2 => body.truncate(at),
            _ => {
                let end = body.len().min(at + rng.random_range(1..=64usize));
                let span = body[at..end].to_vec();
                let to = rng.random_range(0..=body.len());
                body.splice(to..to, span);
            }
        }
    }

    /// A snapshot is read from outside the program at daemon startup, so
    /// no byte sequence may panic the decoder or anything fed what it
    /// accepts. Every mutated image is resealed (a bare CRC mismatch would
    /// stop it before the structural decoder), and every one that decodes
    /// must re-encode to a fixed point, answer every route lookup, hydrate
    /// a what-if engine or refuse to, and refuse a count of `u32::MAX` in
    /// each of its four top-level count fields before allocating for it.
    #[test]
    fn hostile_snapshot_mutations_never_panic() {
        let w = GeneratorConfig::tiny().build(7);
        let ps: Vec<Prefix> = prefix_owners(&w).keys().copied().take(4).collect();
        let image = RoutingUniverse::compute(&w, &ps)
            .to_snapshot_bytes()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(43);
        let mut decoded = 0;
        for _ in 0..3000 {
            let edits = rng.random_range(1..=3);
            let hostile = reseal(&image, |body| {
                for _ in 0..edits {
                    mutate(body, &mut rng);
                }
            });
            let Ok(u) = RoutingUniverse::from_snapshot_bytes(&hostile) else {
                continue;
            };
            decoded += 1;
            let again = u.to_snapshot_bytes().expect("a decoded image re-encodes");
            let reloaded =
                RoutingUniverse::from_snapshot_bytes(&again).expect("re-encoding decodes");
            assert_eq!(reloaded.to_snapshot_bytes().unwrap(), again);
            for p in u.prefixes() {
                for x in 0..=w.graph.len() {
                    let _ = u.route(p, x);
                }
            }
            let _ = crate::WhatIfEngine::from_universe(&w, &u, ActivationOrder::default());
            // The re-encoding is canonical, so its count fields sit where
            // the writer put them: the ASN table, the shapes, and (counted
            // back from the 22 trailing counters) prefixes and unconverged.
            let unconverged_at = again.len() - 4 - 22 * 8 - 5 * u.unconverged.len() - 4;
            let prefixes_at = unconverged_at - 13 * u.tables.len() - 4;
            for at in [8, 12 + 4 * u.asns.len(), prefixes_at, unconverged_at] {
                let huge = reseal(&again, |body| {
                    body[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                });
                let Err(err) = RoutingUniverse::from_snapshot_bytes(&huge) else {
                    panic!("a count of u32::MAX at byte {at} decoded");
                };
                assert!(
                    err.to_string().contains("count 4294967295 exceeds"),
                    "count at byte {at} refused late: {err}"
                );
            }
        }
        assert!(decoded > 100, "only {decoded} mutated images decoded");
    }

    /// A table that decodes is not yet a table of this world: resealing a
    /// tiny image after changing one learned row's `local_pref` or
    /// `learned_from` leaves an image the decoder accepts and hydration
    /// refuses, while the unmodified image hydrates.
    #[test]
    fn hostile_snapshot_non_fixpoint_tables_are_refused() {
        let w = GeneratorConfig::tiny().build(7);
        let ps: Vec<Prefix> = prefix_owners(&w).keys().copied().take(4).collect();
        let u = RoutingUniverse::compute(&w, &ps);
        let image = u.to_snapshot_bytes().unwrap();
        let order = ActivationOrder::default();
        let genuine = RoutingUniverse::from_snapshot_bytes(&image).unwrap();
        assert!(crate::WhatIfEngine::from_universe(&w, &genuine, order).is_ok());
        // The first shape's rows follow the magic, the ASN table, the shape
        // count and the shape's arena (its sets, then 9-byte cells); a row
        // is a 4-byte empty path or a 25-byte route.
        let table = u.tables.values().next().unwrap();
        let (cells, sets) = table.arena().raw_cells();
        let sets_len: usize = sets.iter().map(|s| 4 + 4 * s.len()).sum();
        let mut at = 8 + 4 + 4 * u.asns.len() + 4 + 4 + sets_len + 4 + 9 * cells.len() + 4;
        let mut x = 0;
        while table.rows.get(x).is_none_or(|r| r.learned_from == NO_NODE) {
            at += if table.rows.is_some(x) { 25 } else { 4 };
            x += 1;
        }
        let row = table.rows.get(x).unwrap();
        let other = (row.learned_from + 1) % u.asns.len() as u32;
        // `learned_from` sits 6 bytes into a row, `local_pref` 13.
        for (offset, value) in [
            (13, (row.local_pref + 1).to_le_bytes()),
            (6, other.to_le_bytes()),
        ] {
            let hostile = reseal(&image, |body| {
                body[at + offset..at + offset + 4].copy_from_slice(&value);
            });
            let decoded = RoutingUniverse::from_snapshot_bytes(&hostile).expect("the edit decodes");
            let Err(err) = crate::WhatIfEngine::from_universe(&w, &decoded, order) else {
                panic!("a table edited at row {x}, byte {offset} hydrated");
            };
            assert!(err.to_string().contains("not a fixpoint"), "{err}");
        }
    }
}
