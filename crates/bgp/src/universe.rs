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
//! cheaper than) re-running propagation per member.
//! [`RoutingUniverse::compute_per_prefix`] keeps the unbatched path alive as
//! the oracle the batching-invariance proptests compare against;
//! [`EngineStats::shapes_computed`] / [`EngineStats::prefixes_shared`]
//! (via [`RoutingUniverse::engine_stats`]) make the sharing observable.

use crate::compact::{CompactRoute, MemoryBudget, RouteColumns};
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
/// [`EngineStats`] no longer carries.
const SNAPSHOT_MAGIC: &[u8] = b"IRUNIV03";

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
    /// ascending. Generated worlds do contain live dispute wheels — the
    /// seed-7 paper world reports 410 of its 1 212 prefixes here.
    unconverged: Vec<Prefix>,
    /// Announced prefixes sorted by `(base, len)` — the LPM index.
    lpm_index: Vec<Prefix>,
    /// Shortest announced prefix length; bounds the LPM backward walk.
    lpm_min_len: u8,
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
/// group, key order across groups — both deterministic). With `batch`
/// off every prefix is its own singleton group: the per-prefix oracle
/// path.
fn shape_groups(
    world: &World,
    prefixes: &[Prefix],
    owners: &BTreeMap<Prefix, Asn>,
    batch: bool,
) -> Vec<(Asn, Vec<Prefix>)> {
    let owner = |prefix: Prefix| -> Asn {
        *owners
            .get(&prefix)
            .unwrap_or_else(|| panic!("prefix {prefix} has no owner"))
    };
    if !batch {
        return prefixes.iter().map(|&p| (owner(p), vec![p])).collect();
    }
    let mut groups: BTreeMap<ShapeKey, (Asn, Vec<Prefix>)> = BTreeMap::new();
    for &prefix in prefixes {
        let origin = owner(prefix);
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
/// base convergence. Prefixes are grouped by announcement shape (`batch`
/// off: every prefix its own group, the oracle path) and each group runs in
/// parallel on a fork of one shared context — shared CSR topology and policy
/// engine, private path arena, so shapes never contend on interning:
/// `prepare` installs filters or defenses on the fresh sim, the
/// representative is announced plainly at t=0, `schedule` is replayed, and
/// the sim — with whether every event converged — is handed to `finish`
/// along with the group's origin and members.
pub(crate) fn converge_shapes<'w, T: Send>(
    world: &'w World,
    prefixes: &[Prefix],
    order: ActivationOrder,
    batch: bool,
    schedule: &[TimedFault],
    prepare: impl Fn(&mut PrefixSim<'w>) + Sync,
    finish: impl Fn(PrefixSim<'w>, bool, Asn, &[Prefix]) -> T + Sync,
) -> Vec<T> {
    let owners = prefix_owners(world);
    let ctx = SimContext::shared(world);
    shape_groups(world, prefixes, &owners, batch)
        .par_iter()
        .map(|(origin, members)| {
            let rep = members[0];
            let mut sim = PrefixSim::with_context_ordered(ctx.fork(), rep, order);
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

fn prefix_mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        !0u32 << (32 - len.min(32))
    }
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
        Self::converge(world, prefixes, plane, order, true)
    }

    /// [`RoutingUniverse::compute_with_faults_ordered`] without cross-prefix
    /// batching: every prefix runs its own propagation. Same result byte for
    /// byte — kept as the oracle the batching-invariance tests compare
    /// against.
    pub fn compute_per_prefix(
        world: &World,
        prefixes: &[Prefix],
        plane: &FaultPlane,
        order: ActivationOrder,
    ) -> RoutingUniverse {
        Self::converge(world, prefixes, plane, order, false)
    }

    fn converge(
        world: &World,
        prefixes: &[Prefix],
        plane: &FaultPlane,
        order: ActivationOrder,
        batch: bool,
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
            batch,
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
            // byte-identical to the per-prefix path.
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
            lpm_index: Vec::new(),
            lpm_min_len: 32,
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
        // Results arrive grouped by shape; canonicalize so batched and
        // per-prefix computations report unconverged prefixes identically.
        universe.unconverged.sort_unstable();
        universe.lpm_index = universe.tables.keys().copied().collect();
        universe
            .lpm_index
            .sort_unstable_by_key(|p| (p.base.0, p.len));
        universe.lpm_min_len = universe.lpm_index.iter().map(|p| p.len).min().unwrap_or(32);
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

    /// Longest-prefix match: the covering announced prefix for `ip`.
    ///
    /// Sorted-index lookup: any prefix containing `ip` has its base in
    /// `[ip & mask(min_len), ip]`, so a binary search for the insertion
    /// point followed by a short backward walk over that window finds the
    /// longest match without scanning the whole table. The retry scheduler
    /// re-resolves destinations per attempt, so this path is hot under
    /// fault-heavy campaigns.
    pub fn lpm(&self, ip: Ipv4) -> Option<Prefix> {
        let floor = ip.0 & prefix_mask(self.lpm_min_len);
        let mut i = self.lpm_index.partition_point(|p| p.base.0 <= ip.0);
        let mut best: Option<Prefix> = None;
        while i > 0 {
            let p = self.lpm_index[i - 1];
            if p.base.0 < floor {
                break;
            }
            if p.contains(ip) && best.is_none_or(|b| p.len > b.len) {
                best = Some(p);
            }
            i -= 1;
        }
        best
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
    /// shape sharing, accounting — into a deterministic byte image.
    /// Everything derivable (the LPM index) is rebuilt on load; everything
    /// else round-trips exactly, so
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
    /// validating: truncation, bad counts, dangling shape/path references,
    /// or a corrupt arena all return an [`Error`] instead of panicking.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<RoutingUniverse, Error> {
        fn to_usize(v: u64) -> Result<usize, Error> {
            usize::try_from(v)
                .map_err(|_| Error::parse(None, format!("snapshot counter {v} overflows usize")))
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
                rows.set(
                    x,
                    Some(CompactRoute {
                        path: PathId(pid),
                        path_len: r.u16()?,
                        learned_from: r.u32()?,
                        city: r.u16()?,
                        rel: r.u8()?,
                        local_pref: r.i32()?,
                        igp_cost: r.u32()?,
                        age: r.u32()?,
                    }),
                );
            }
            shapes.push(Arc::new(ShapeTable::from_parts(rows, Arc::new(arena))));
        }
        let n_prefixes = r.len(13)?;
        let mut tables = BTreeMap::new();
        let mut origins = BTreeMap::new();
        for _ in 0..n_prefixes {
            let prefix = Prefix {
                base: Ipv4(r.u32()?),
                len: r.u8()?,
            };
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
            unconverged.push(Prefix {
                base: Ipv4(r.u32()?),
                len: r.u8()?,
            });
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
        let mut universe = RoutingUniverse {
            tables,
            asns,
            origins,
            unconverged,
            lpm_index: Vec::new(),
            lpm_min_len: 32,
            resilience,
            stats,
        };
        // Rebuild the derived LPM index exactly as assemble does.
        universe.lpm_index = universe.tables.keys().copied().collect();
        universe
            .lpm_index
            .sort_unstable_by_key(|p| (p.base.0, p.len));
        universe.lpm_min_len = universe.lpm_index.iter().map(|p| p.len).min().unwrap_or(32);
        Ok(universe)
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
            // LPM on an address inside the prefix finds it.
            assert_eq!(u.lpm(p.addr(7)), Some(*p));
        }
        assert_eq!(u.prefixes().count(), some.len());
        assert_eq!(u.resilience(), UniverseResilience::default());
    }

    #[test]
    fn lpm_prefers_longer_match() {
        // Two nested prefixes can't come from the generator (validate()
        // forbids cross-AS nesting), so exercise lpm() directly on a
        // hand-built universe via compute of disjoint prefixes + manual check.
        let w = GeneratorConfig::tiny().build(9);
        let owners = prefix_owners(&w);
        let ps: Vec<Prefix> = owners.keys().copied().take(2).collect();
        let u = RoutingUniverse::compute(&w, &ps);
        // An address outside every prefix has no match.
        assert_eq!(u.lpm(Ipv4::new(203, 0, 113, 1)), None);
    }

    #[test]
    fn lpm_index_agrees_with_linear_scan_everywhere() {
        let w = GeneratorConfig::tiny().build(11);
        let u = RoutingUniverse::compute_all(&w);
        let prefixes: Vec<Prefix> = u.prefixes().collect();
        // Probe inside, at the edges of, and just outside every prefix.
        for p in &prefixes {
            for ip in [p.addr(0), p.addr(1), p.addr(p.size() - 1)] {
                let linear = prefixes
                    .iter()
                    .filter(|q| q.contains(ip))
                    .max_by_key(|q| q.len)
                    .copied();
                assert_eq!(u.lpm(ip), linear, "mismatch at {ip}");
            }
            let outside = Ipv4(p.base.0.wrapping_sub(1));
            let linear = prefixes
                .iter()
                .filter(|q| q.contains(outside))
                .max_by_key(|q| q.len)
                .copied();
            assert_eq!(u.lpm(outside), linear, "mismatch just below {p}");
        }
    }

    #[test]
    fn batched_universe_is_byte_identical_to_per_prefix() {
        let w = GeneratorConfig::tiny().build(9);
        let ps: Vec<Prefix> = prefix_owners(&w).keys().copied().collect();
        let batched = RoutingUniverse::compute(&w, &ps);
        let oracle = RoutingUniverse::compute_per_prefix(
            &w,
            &ps,
            &FaultPlane::quiet(),
            ActivationOrder::default(),
        );
        for p in &ps {
            assert_eq!(batched.origin(*p), oracle.origin(*p));
            for x in 0..w.graph.len() {
                assert_eq!(batched.route(*p, x), oracle.route(*p, x), "{p} at {x}");
            }
        }
        assert_eq!(batched.unconverged(), oracle.unconverged());
        assert_eq!(batched.resilience(), oracle.resilience());
        // Sharing really happened: the generator gives transit/content ASes
        // multiple prefixes with no PSP split, so shapes < prefixes.
        let stats = batched.engine_stats();
        assert!(stats.prefixes_shared > 0, "no prefixes shared");
        assert_eq!(stats.shapes_computed + stats.prefixes_shared, ps.len());
        let oracle_stats = oracle.engine_stats();
        assert_eq!(oracle_stats.shapes_computed, ps.len());
        assert_eq!(oracle_stats.prefixes_shared, 0);
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
        let oracle = RoutingUniverse::compute_per_prefix(
            &w,
            &ps,
            &FaultPlane::quiet(),
            ActivationOrder::default(),
        );
        for p in &ps {
            for x in 0..w.graph.len() {
                assert_eq!(u.route(*p, x), oracle.route(*p, x), "{p} at {x}");
            }
        }
        // Both shapes ran: the PSP-restricted prefix plus the shared rest.
        assert_eq!(u.engine_stats().shapes_computed, 2);
        assert_eq!(u.engine_stats().prefixes_shared, ps.len() - 2);
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
        // The previous layout, intact and correctly sealed, is still a
        // version mismatch — not a "magic mismatch" or a short read.
        let mut prev = u.to_snapshot_bytes().unwrap();
        prev.truncate(prev.len() - 4);
        prev[..8].copy_from_slice(b"IRUNIV02");
        seal_with_crc(&mut prev);
        let Err(err) = RoutingUniverse::from_snapshot_bytes(&prev) else {
            panic!("previous-format image accepted");
        };
        let msg = err.to_string();
        assert!(
            msg.contains("IRUNIV02") && msg.contains("expected IRUNIV03"),
            "unhelpful version error: {msg}"
        );
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
}
