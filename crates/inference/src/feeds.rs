//! BGP feeds as route collectors see them (the RouteViews/RIS role).
//!
//! Collectors peer with a subset of ASes — disproportionately core and
//! research networks — and record the paths those ASes export. That bias is
//! load-bearing for the paper: it is why monitor-built topologies miss the
//! edge peering mesh and why prefix-specific policies need two detection
//! criteria (§4.3). This module also provides the monthly world churn that
//! makes consecutive topology snapshots differ, so the §3.3 aggregation has
//! real work to do (and stale links — the Netflix/AS3549 story — can
//! survive into the aggregate).

use ir_bgp::RoutingUniverse;
use ir_topology::graph::{AsRole, LinkKind, NodeIdx};
use ir_topology::World;
use ir_types::{Asn, Prefix, Relationship};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::{BTreeSet, HashSet};

/// Which ASes peer with the collectors, and how many.
#[derive(Debug, Clone)]
pub struct FeedConfig {
    /// Number of vantage ASes peering with collectors.
    pub vantages: usize,
    /// Fraction of vantages drawn from the top of the hierarchy. The rest
    /// split between small ISPs, edge (eyeball/enterprise) networks, and
    /// education networks — matching how RouteViews/RIS peers mix core and
    /// GREN with a long tail of regional ISPs.
    pub core_fraction: f64,
    /// Probability that an individual feed entry is missing from a dump
    /// (session resets, truncated table transfers). This is the §4.3
    /// visibility noise that makes PSP criterion 1 imperfect.
    pub loss: f64,
}

impl Default for FeedConfig {
    fn default() -> Self {
        FeedConfig {
            vantages: 60,
            core_fraction: 0.4,
            loss: 0.03,
        }
    }
}

/// One collector-observed AS path for a prefix: the vantage AS first, the
/// origin last.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedEntry {
    pub prefix: Prefix,
    pub path: Vec<Asn>,
}

/// A set of feed entries (one collector dump), with its origin edges
/// indexed once at construction for the §4.3 PSP evidence tests.
///
/// The entries are private and fixed after [`BgpFeed::new`], so the index
/// can never go stale.
#[derive(Debug, Clone, Default)]
pub struct BgpFeed {
    entries: Vec<FeedEntry>,
    /// `(origin, neighbor, prefix)` for every entry with an origin edge.
    prefix_edges: HashSet<(Asn, Asn, Prefix)>,
    /// `(origin, neighbor)` for every entry with an origin edge.
    edges: HashSet<(Asn, Asn)>,
}

impl BgpFeed {
    /// A feed over `entries`, indexing each entry's origin edge.
    pub fn new(entries: Vec<FeedEntry>) -> BgpFeed {
        let mut prefix_edges = HashSet::new();
        let mut edges = HashSet::new();
        for e in &entries {
            if let Some((neighbor, origin)) = Self::origin_edge(&e.path) {
                prefix_edges.insert((origin, neighbor, e.prefix));
                edges.insert((origin, neighbor));
            }
        }
        BgpFeed {
            entries,
            prefix_edges,
            edges,
        }
    }

    /// The feed's entries, in dump order.
    pub fn entries(&self) -> &[FeedEntry] {
        &self.entries
    }

    /// All AS paths (without prefixes).
    pub fn paths(&self) -> impl Iterator<Item = &[Asn]> {
        self.entries.iter().map(|e| e.path.as_slice())
    }

    /// Every AS link observed in the feed, canonicalized `(min, max)`.
    /// Prepending (consecutive duplicates) never creates self links.
    pub fn observed_links(&self) -> BTreeSet<(Asn, Asn)> {
        let mut links = BTreeSet::new();
        for e in &self.entries {
            for w in e.path.windows(2) {
                if w[0] != w[1] {
                    links.insert((w[0].min(w[1]), w[0].max(w[1])));
                }
            }
        }
        links
    }

    /// The last two *distinct* ASes of a path: (neighbor, origin).
    fn origin_edge(path: &[Asn]) -> Option<(Asn, Asn)> {
        let origin = *path.last()?;
        let neighbor = path.iter().rev().find(|a| **a != origin)?;
        Some((*neighbor, origin))
    }

    /// Whether the feed shows `origin` announcing `prefix` to neighbor
    /// `neighbor` (i.e. some observed path ends `… neighbor origin` for the
    /// prefix, prepending collapsed). The §4.3 PSP criterion-1 evidence
    /// test.
    pub fn announces_to(&self, origin: Asn, neighbor: Asn, prefix: Prefix) -> bool {
        self.prefix_edges.contains(&(origin, neighbor, prefix))
    }

    /// Whether the feed shows `origin` announcing *any* prefix to
    /// `neighbor` (criterion-2 precondition).
    pub fn announces_any_to(&self, origin: Asn, neighbor: Asn) -> bool {
        self.edges.contains(&(origin, neighbor))
    }
}

/// Picks the collector vantage ASes for a world: mostly core transit ASes
/// (tier-1s/large ISPs by customer-cone size), the rest education networks.
pub fn pick_vantages(world: &World, cfg: &FeedConfig, seed: u64) -> Vec<Asn> {
    let mut rng = StdRng::seed_from_u64(seed ^ u64_padding());
    let mut transit: Vec<NodeIdx> = (0..world.graph.len())
        .filter(|&i| world.graph.node(i).role == AsRole::Transit)
        .collect();
    // Largest customer cones first (deterministic tie-break by index).
    transit.sort_by_key(|&i| (std::cmp::Reverse(world.graph.customer_cone_size(i)), i));
    let n_core = ((cfg.vantages as f64) * cfg.core_fraction).round() as usize;
    let mut vantages: Vec<Asn> = transit
        .iter()
        .take(n_core)
        .map(|&i| world.graph.asn(i))
        .collect();
    // The long tail: small ISPs, edge networks, and GREN — the peers that
    // give the real collectors their (partial) view of the edge.
    let remainder = cfg.vantages.saturating_sub(vantages.len());
    let n_small = remainder / 2;
    let n_edge = remainder.saturating_sub(n_small) / 2;
    let mut smalls: Vec<NodeIdx> = transit
        .iter()
        .copied()
        .skip(n_core)
        .filter(|&i| world.graph.asn(i).value() >= 5_000)
        .collect();
    smalls.shuffle(&mut rng);
    vantages.extend(smalls.iter().take(n_small).map(|&i| world.graph.asn(i)));
    let mut edges: Vec<NodeIdx> = (0..world.graph.len())
        .filter(|&i| {
            matches!(
                world.graph.node(i).role,
                AsRole::Eyeball | AsRole::Enterprise
            )
        })
        .collect();
    edges.shuffle(&mut rng);
    vantages.extend(edges.iter().take(n_edge).map(|&i| world.graph.asn(i)));
    let mut edu: Vec<NodeIdx> = (0..world.graph.len())
        .filter(|&i| {
            world.graph.node(i).role == AsRole::Education && world.graph.asn(i) != Asn::TESTBED
        })
        .collect();
    edu.shuffle(&mut rng);
    vantages.extend(
        edu.iter()
            .take(cfg.vantages.saturating_sub(vantages.len()))
            .map(|&i| world.graph.asn(i)),
    );
    vantages.sort_unstable();
    vantages.dedup();
    vantages
}

/// Like [`extract_feed`], but drops each entry with probability `loss`
/// (deterministic in `seed`) — the table-transfer/visibility noise real
/// collector archives have.
pub fn extract_feed_lossy(
    world: &World,
    universe: &RoutingUniverse,
    vantages: &[Asn],
    loss: f64,
    seed: u64,
) -> BgpFeed {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED_1055);
    let mut entries = feed_entries(world, universe, vantages);
    entries.retain(|_| !rng.random_bool(loss));
    BgpFeed::new(entries)
}

/// Extracts the feed from a converged universe: the path each vantage AS
/// uses for every prefix, with the vantage prepended (as it would export to
/// the collector).
pub fn extract_feed(world: &World, universe: &RoutingUniverse, vantages: &[Asn]) -> BgpFeed {
    BgpFeed::new(feed_entries(world, universe, vantages))
}

/// The entries of [`extract_feed`], in prefix-then-vantage order.
fn feed_entries(world: &World, universe: &RoutingUniverse, vantages: &[Asn]) -> Vec<FeedEntry> {
    let mut entries = Vec::new();
    for prefix in universe.prefixes() {
        for &v in vantages {
            let Some(idx) = world.graph.index_of(v) else {
                continue;
            };
            let Some(route) = universe.route(prefix, idx) else {
                continue;
            };
            let mut path = vec![v];
            if !route.is_local() {
                path.extend(route.path.sequence_asns());
            }
            entries.push(FeedEntry { prefix, path });
        }
    }
    entries
}

// `0x5eedfeed` spelled as a function to keep the seed-derivation constants
// greppable in one place.
#[allow(non_snake_case)]
fn u64_padding() -> u64 {
    0x5eed_feed_0000_0000
}

/// Produces the monthly world variants behind the five topology snapshots.
///
/// Month `months-1` is the **current** world (the one measurements run on,
/// returned unmodified); earlier months differ by seeded churn: some
/// peering links that exist today were absent then, and — crucially — some
/// links that existed then have since been removed (the "stale link in
/// CAIDA's topology" of §5: a Netflix–AS3549-like edge that "no longer
/// exists according to RIPE ASN Neighbour History").
pub fn monthly_worlds(world: &World, months: usize, seed: u64) -> Vec<World> {
    assert!(months >= 1);
    let mut out = Vec::with_capacity(months);
    for m in 0..months - 1 {
        let mut rng = StdRng::seed_from_u64(seed ^ (0xC0FFEE + m as u64));
        let mut w = world.clone();
        churn(&mut w, &mut rng, months - 1 - m);
        out.push(w);
    }
    out.push(world.clone());
    out
}

/// Applies churn scaled by `distance` months from the present: removes a
/// few of today's peering links (they did not exist yet) and adds a few
/// historical links that have since disappeared.
fn churn(w: &mut World, rng: &mut StdRng, distance: usize) {
    let n = w.graph.len();
    // Collect candidate peer links (never transit links: removing them
    // could strand customers and make old snapshots wildly unrealistic).
    let mut peer_links: Vec<(NodeIdx, NodeIdx)> = Vec::new();
    for a in 0..n {
        for l in w.graph.links(a) {
            if l.peer > a && l.rel == Relationship::Peer && l.kind == LinkKind::Normal {
                peer_links.push((a, l.peer));
            }
        }
    }
    peer_links.shuffle(rng);
    // "Did not exist yet": drop ~1.5% per month of distance.
    let drop = ((peer_links.len() as f64) * 0.015 * distance as f64).round() as usize;
    let mut removed = 0;
    let mut i = 0;
    while removed < drop && i < peer_links.len() {
        let (a, b) = peer_links[i];
        i += 1;
        w.graph.remove_link(a, b);
        removed += 1;
    }
    // "Existed then, gone now": add a few historical content–ISP peerings.
    let adds = (drop / 2).max(if distance > 0 { 2 } else { 0 });
    let contents: Vec<NodeIdx> = (0..n)
        .filter(|&i| w.graph.node(i).role == AsRole::Content)
        .collect();
    let transits: Vec<NodeIdx> = (0..n)
        .filter(|&i| w.graph.node(i).role == AsRole::Transit)
        .collect();
    let mut added = 0;
    let mut guard = 0;
    while added < adds && guard < 100 && !contents.is_empty() && !transits.is_empty() {
        guard += 1;
        let c = contents[rng.random_range(0..contents.len())];
        let t = transits[rng.random_range(0..transits.len())];
        if w.graph.link(c, t).is_none() {
            let city = w.graph.node(t).presence[0];
            if !w.graph.node(c).presence.contains(&city) {
                w.graph.node_mut(c).presence.push(city);
            }
            w.graph
                .add_link(c, t, Relationship::Provider, vec![city], LinkKind::Normal);
            added += 1;
        }
    }
}

/// Converges all prefixes of a (historical) world and extracts its feed in
/// one call — one "monthly collector dump".
pub fn monthly_feed(world: &World, vantages: &[Asn]) -> BgpFeed {
    let universe = RoutingUniverse::compute_all(world);
    extract_feed(world, &universe, vantages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_topology::GeneratorConfig;
    use std::sync::OnceLock;

    fn world() -> &'static World {
        static W: OnceLock<World> = OnceLock::new();
        W.get_or_init(|| GeneratorConfig::tiny().build(8))
    }

    fn universe() -> &'static RoutingUniverse {
        static U: OnceLock<RoutingUniverse> = OnceLock::new();
        U.get_or_init(|| RoutingUniverse::compute_all(world()))
    }

    #[test]
    fn vantages_prefer_core_and_gren() {
        let w = world();
        let v = pick_vantages(w, &FeedConfig::default(), 1);
        assert!(!v.is_empty());
        // Top transit-degree ASes (low ASN = tier-1 numbering plan) included.
        assert!(v.iter().any(|a| a.value() < 1000), "some tier-1 vantage");
        // Deterministic.
        assert_eq!(v, pick_vantages(w, &FeedConfig::default(), 1));
    }

    #[test]
    fn feed_paths_start_at_vantage_and_end_at_origin() {
        let w = world();
        let v = pick_vantages(w, &FeedConfig::default(), 1);
        let feed = extract_feed(w, universe(), &v);
        assert!(!feed.entries().is_empty());
        for e in feed.entries() {
            assert!(v.contains(&e.path[0]));
            let origin = universe().origin(e.prefix).unwrap();
            assert_eq!(*e.path.last().unwrap(), origin);
        }
    }

    #[test]
    fn feed_misses_edge_links() {
        // The core bias: collectors see far fewer links than ground truth.
        let w = world();
        let v = pick_vantages(w, &FeedConfig::default(), 1);
        let feed = extract_feed(w, universe(), &v);
        let observed = feed.observed_links().len();
        let truth = w.graph.link_count();
        assert!(
            observed < truth,
            "feed saw {observed} links of {truth} — partial visibility expected"
        );
    }

    #[test]
    fn announces_to_detects_origin_neighbor_evidence() {
        let w = world();
        let v = pick_vantages(w, &FeedConfig::default(), 1);
        let feed = extract_feed(w, universe(), &v);
        // Take any multi-hop observed path and check its origin edge.
        let e = feed.entries().iter().find(|e| e.path.len() >= 2).unwrap();
        let origin = *e.path.last().unwrap();
        let neigh = e.path[e.path.len() - 2];
        assert!(feed.announces_to(origin, neigh, e.prefix));
        assert!(feed.announces_any_to(origin, neigh));
        assert!(!feed.announces_to(origin, Asn(999_999), e.prefix));
    }

    /// The pre-index PSP evidence, answered by one pass over the entries
    /// that applies [`BgpFeed::origin_edge`] to each path: the (origin,
    /// neighbor, prefix) triples and (origin, neighbor) pairs it evidences.
    struct Scan {
        triples: BTreeSet<(Asn, Asn, Prefix)>,
        pairs: BTreeSet<(Asn, Asn)>,
    }

    impl Scan {
        fn of(feed: &BgpFeed) -> Scan {
            let mut scan = Scan {
                triples: BTreeSet::new(),
                pairs: BTreeSet::new(),
            };
            for e in feed.entries() {
                if let Some((neighbor, origin)) = BgpFeed::origin_edge(&e.path) {
                    scan.triples.insert((origin, neighbor, e.prefix));
                    scan.pairs.insert((origin, neighbor));
                }
            }
            scan
        }
    }

    /// Asks both predicates of `feed` and of its `scan` for every (origin,
    /// neighbor, prefix) drawn from `origins × neighbors × prefixes`, and
    /// returns how many triples the feed evidences.
    fn assert_index_matches_scan(
        feed: &BgpFeed,
        scan: &Scan,
        origins: &BTreeSet<Asn>,
        neighbors: &BTreeSet<Asn>,
        prefixes: &BTreeSet<Prefix>,
    ) -> usize {
        let mut hits = 0;
        for &o in origins {
            for &n in neighbors {
                assert_eq!(
                    feed.announces_any_to(o, n),
                    scan.pairs.contains(&(o, n)),
                    "announces_any_to({o}, {n})"
                );
                for &p in prefixes {
                    let indexed = feed.announces_to(o, n, p);
                    assert_eq!(
                        indexed,
                        scan.triples.contains(&(o, n, p)),
                        "announces_to({o}, {n}, {p})"
                    );
                    hits += usize::from(indexed);
                }
            }
        }
        hits
    }

    #[test]
    fn origin_edge_index_matches_linear_scan_on_generated_feeds() {
        for seed in 1..=4u64 {
            let w = GeneratorConfig::tiny().build(seed);
            let u = RoutingUniverse::compute_all(&w);
            let v = pick_vantages(&w, &FeedConfig::default(), seed);
            let lossy = extract_feed_lossy(&w, &u, &v, 0.03, seed);
            let full = extract_feed(&w, &u, &v);
            let reread = BgpFeed::from_dump(&lossy.to_dump()).unwrap();
            assert_eq!(reread.entries(), lossy.entries(), "seed {seed}: dump");
            let feeds = [&full, &lossy, &reread].map(|f| (f, Scan::of(f)));
            let origins: BTreeSet<Asn> = full.paths().filter_map(|p| p.last().copied()).collect();
            // Every AS on a path plus one that never appears, so misses are
            // asked as well as hits.
            let mut neighbors: BTreeSet<Asn> = full.paths().flatten().copied().collect();
            neighbors.insert(Asn(999_999));
            // Per origin, only its own prefixes plus one foreign prefix can
            // hit.
            let foreign: Prefix = "192.0.2.0/24".parse().unwrap();
            let mut evidenced = 0;
            for &o in &origins {
                let own: BTreeSet<Prefix> = full
                    .entries()
                    .iter()
                    .filter(|e| e.path.last() == Some(&o))
                    .map(|e| e.prefix)
                    .chain([foreign])
                    .collect();
                let one = BTreeSet::from([o]);
                for (f, scan) in &feeds {
                    evidenced += assert_index_matches_scan(f, scan, &one, &neighbors, &own);
                }
            }
            assert!(evidenced > 0, "seed {seed}: some edge evidenced");
        }
    }

    #[test]
    fn origin_edge_index_matches_linear_scan_on_edge_cases() {
        let p: Prefix = "10.1.0.0/24".parse().unwrap();
        let q: Prefix = "10.2.0.0/24".parse().unwrap();
        let (v, n, o) = (Asn(100), Asn(7), Asn(42));
        let feed = BgpFeed::new(vec![
            // A prepended origin: the edge is still (n, o).
            FeedEntry {
                prefix: p,
                path: vec![v, n, o, o],
            },
            // A one-AS path (the vantage is the origin): no origin edge.
            FeedEntry {
                prefix: q,
                path: vec![Asn(9)],
            },
            // Only the origin, repeated: no origin edge either.
            FeedEntry {
                prefix: q,
                path: vec![Asn(11), Asn(11), Asn(11)],
            },
        ]);
        assert!(feed.announces_to(o, n, p));
        assert!(feed.announces_any_to(o, n));
        assert!(!feed.announces_to(o, o, p), "prepending is no self edge");
        assert!(!feed.announces_to(o, v, p), "v is not adjacent to o");
        assert!(!feed.announces_to(o, n, q), "q never crossed n–o");
        assert!(!feed.announces_any_to(Asn(9), Asn(9)));
        assert!(!feed.announces_any_to(Asn(11), Asn(11)));
        let ases = BTreeSet::from([v, n, o, Asn(9), Asn(11)]);
        let prefixes = BTreeSet::from([p, q]);
        let reread = BgpFeed::from_dump(&feed.to_dump()).unwrap();
        for f in [&feed, &reread, &BgpFeed::default()] {
            assert_index_matches_scan(f, &Scan::of(f), &ases, &ases, &prefixes);
        }
    }

    #[test]
    fn monthly_worlds_changes_history_not_present() {
        let w = world();
        let months = monthly_worlds(w, 5, 7);
        assert_eq!(months.len(), 5);
        assert_eq!(months[4].graph.link_count(), w.graph.link_count());
        // The oldest month's link *set* differs from the present (counts can
        // coincide when removals and additions balance).
        let link_set = |g: &ir_topology::AsGraph| {
            let mut s = BTreeSet::new();
            for a in 0..g.len() {
                for l in g.links(a) {
                    if l.peer > a {
                        s.insert((g.asn(a), g.asn(l.peer)));
                    }
                }
            }
            s
        };
        assert_ne!(
            link_set(&months[0].graph),
            link_set(&w.graph),
            "oldest month differs"
        );
        // Some link existed in month 0 but not today (stale-link source).
        let mut stale = 0;
        for a in 0..months[0].graph.len().min(w.graph.len()) {
            for l in months[0].graph.links(a) {
                if l.peer > a && l.peer < w.graph.len() && w.graph.link(a, l.peer).is_none() {
                    stale += 1;
                }
            }
        }
        assert!(
            stale > 0,
            "historical links that have since disappeared exist"
        );
    }

    #[test]
    fn monthly_worlds_deterministic() {
        let w = world();
        let a = monthly_worlds(w, 3, 9);
        let b = monthly_worlds(w, 3, 9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.graph.link_count(), y.graph.link_count());
        }
    }
}

impl BgpFeed {
    /// Serializes the feed as a RIB-dump-style text document: one entry per
    /// line, `prefix|asn asn asn …` (observer first, origin last). The
    /// interchange format for archiving collector dumps; [`BgpFeed::from_dump`]
    /// reads it back.
    pub fn to_dump(&self) -> String {
        let mut out = String::from("# synthetic RIB dump\n");
        for e in &self.entries {
            let path: Vec<String> = e.path.iter().map(|a| a.0.to_string()).collect();
            out.push_str(&format!("{}|{}\n", e.prefix, path.join(" ")));
        }
        out
    }

    /// Parses a RIB-dump-style document produced by [`BgpFeed::to_dump`].
    pub fn from_dump(text: &str) -> Result<BgpFeed, String> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (pfx, path) = line
                .split_once('|')
                .ok_or_else(|| format!("line {}: missing '|'", i + 1))?;
            let prefix: Prefix = pfx.parse().map_err(|e| format!("line {}: {e}", i + 1))?;
            let path: Vec<Asn> = path
                .split_whitespace()
                .map(|t| t.parse::<u32>().map(Asn))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("line {}: bad ASN: {e}", i + 1))?;
            if path.is_empty() {
                return Err(format!("line {}: empty path", i + 1));
            }
            entries.push(FeedEntry { prefix, path });
        }
        Ok(BgpFeed::new(entries))
    }
}

#[cfg(test)]
mod dump_tests {
    use super::*;

    fn feed() -> BgpFeed {
        BgpFeed::new(vec![
            FeedEntry {
                prefix: "10.1.0.0/24".parse().unwrap(),
                path: vec![Asn(100), Asn(7), Asn(42)],
            },
            FeedEntry {
                prefix: "10.2.0.0/24".parse().unwrap(),
                path: vec![Asn(9)],
            },
        ])
    }

    #[test]
    fn dump_roundtrip() {
        let f = feed();
        let text = f.to_dump();
        let back = BgpFeed::from_dump(&text).unwrap();
        assert_eq!(back.entries(), f.entries());
        assert!(text.contains("10.1.0.0/24|100 7 42"));
    }

    #[test]
    fn dump_parse_errors_are_located() {
        assert!(BgpFeed::from_dump("garbage")
            .unwrap_err()
            .contains("line 1"));
        assert!(BgpFeed::from_dump("10.0.0.0/24|")
            .unwrap_err()
            .contains("empty path"));
        assert!(BgpFeed::from_dump("10.0.0.0/24|1 x 3")
            .unwrap_err()
            .contains("bad ASN"));
        assert!(BgpFeed::from_dump("not-a-prefix|1 2")
            .unwrap_err()
            .contains("line 1"));
        // Comments and blanks are fine.
        assert!(
            BgpFeed::from_dump("# hi\n\n10.0.0.0/24|1 2\n")
                .unwrap()
                .entries()
                .len()
                == 1
        );
    }
}
