//! Seeded generator for an Internet-like synthetic world.
//!
//! The generator assembles every phenomenon the paper studies into one
//! ground-truth [`World`]:
//!
//! * a transit hierarchy (tier-1 clique → large ISPs → small ISPs → stubs)
//!   with a rich peering mesh near the edge (the part route monitors miss),
//! * geography (ASes live in countries; links interconnect in cities),
//! * sibling organizations with whois/SOA artifacts,
//! * hybrid (per-city) relationships and partial transit,
//! * content providers with on-net and off-net (in-ISP) deployments,
//! * prefix-specific announcement policies at origins,
//! * domestic-path preference,
//! * research & education networks hosting the PEERING-like testbed,
//! * undersea cables, both consortium-owned and independently operated.
//!
//! Everything is a pure function of `(config, seed)`.

use crate::cables::{CableMap, CableOwnership, CableSystem};
use crate::content::{ContentCatalog, ContentProvider, Deployment};
use crate::geo::Geography;
use crate::graph::{AsGraph, AsNode, AsRole, LinkKind, NodeIdx};
use crate::orgs::{OrgRegistry, Organization, WhoisRecord, FREEMAIL_DOMAINS};
use crate::policy::{PolicySpec, TransitScope};
use crate::world::World;
use ir_types::{Asn, CityId, CountryId, Ipv4, OrgId, Prefix, Relationship};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::BTreeSet;

/// Tuning knobs for the generator. Defaults produce a world of roughly 700
/// ASes — comparable to the 746 ASes whose decisions the paper observes.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Countries per continent.
    pub countries_per_continent: usize,
    /// Cities per country.
    pub cities_per_country: usize,
    /// Number of tier-1 (provider-free, global) transit ASes.
    pub tier1s: usize,
    /// Number of large (continental) ISPs.
    pub large_isps: usize,
    /// Small (national) ISPs per country.
    pub small_isps_per_country: usize,
    /// Stub ASes (eyeballs + enterprises) per country.
    pub stubs_per_country: usize,
    /// Research & education networks per continent.
    pub education_per_continent: usize,
    /// Content providers (14 in the paper).
    pub content_providers: usize,
    /// Total content hostnames across providers (34 in the paper).
    pub content_hostnames: usize,
    /// Undersea cable systems.
    pub cables: usize,
    /// Fraction of cable systems operated independently (own ASN).
    pub independent_cable_fraction: f64,
    /// Probability that a pair of small ISPs in the same country peer.
    pub edge_peering_prob: f64,
    /// Fraction of multi-city peering links made hybrid (per-city rel).
    pub hybrid_fraction: f64,
    /// Fraction of provider→customer arrangements that are partial transit.
    pub partial_transit_fraction: f64,
    /// Fraction of origins with ≥2 prefixes that announce one selectively.
    pub psp_fraction: f64,
    /// Fraction of edge ASes that prefer domestic paths.
    pub domestic_pref_fraction: f64,
    /// Fraction of transit ASes with a finer-grained neighbor ranking that
    /// deviates from relationship classes.
    pub neighbor_pref_fraction: f64,
    /// Fraction of multi-homed edge ASes whose last provider link is backup.
    pub backup_link_fraction: f64,
    /// Fraction of ASes with BGP loop prevention disabled.
    pub no_loop_prevention_fraction: f64,
    /// Fraction of ASes that filter AS-set (poisoned) announcements.
    pub filters_as_sets_fraction: f64,
    /// Fraction of organizations that operate several sibling ASes.
    pub sibling_org_fraction: f64,
    /// Include the PEERING-like testbed AS homed at university networks.
    pub include_testbed: bool,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            countries_per_continent: 4,
            cities_per_country: 3,
            tier1s: 12,
            large_isps: 40,
            small_isps_per_country: 5,
            stubs_per_country: 20,
            education_per_continent: 3,
            content_providers: 14,
            content_hostnames: 34,
            cables: 10,
            independent_cable_fraction: 0.5,
            edge_peering_prob: 0.25,
            hybrid_fraction: 0.08,
            partial_transit_fraction: 0.05,
            psp_fraction: 0.55,
            domestic_pref_fraction: 0.35,
            neighbor_pref_fraction: 0.10,
            backup_link_fraction: 0.08,
            no_loop_prevention_fraction: 0.03,
            filters_as_sets_fraction: 0.05,
            sibling_org_fraction: 0.12,
            include_testbed: true,
        }
    }
}

impl GeneratorConfig {
    /// A much smaller world for fast unit tests.
    pub fn tiny() -> Self {
        GeneratorConfig {
            countries_per_continent: 2,
            cities_per_country: 2,
            tier1s: 5,
            large_isps: 10,
            small_isps_per_country: 2,
            stubs_per_country: 4,
            education_per_continent: 1,
            content_providers: 4,
            content_hostnames: 8,
            cables: 4,
            ..GeneratorConfig::default()
        }
    }

    /// A tiny world restricted to policies that satisfy `ir-audit`'s
    /// conservative Gao–Rexford convergence certificate: no domestic-path
    /// preference, no neighbor-ranking deltas, no backup links, no sibling
    /// orgs, no loop-prevention opt-outs, and no cable systems (cable
    /// subscriptions carry a +250 preference boost). Hybrid links, partial
    /// transit, selective announcement and AS-set filters stay on — they
    /// restrict routing without reordering preferences, so certification
    /// survives them. Used by the free-order differential suite.
    pub fn certifiably_safe() -> Self {
        GeneratorConfig {
            cables: 0,
            domestic_pref_fraction: 0.0,
            neighbor_pref_fraction: 0.0,
            backup_link_fraction: 0.0,
            no_loop_prevention_fraction: 0.0,
            sibling_org_fraction: 0.0,
            ..GeneratorConfig::tiny()
        }
    }

    /// An internet-scale world of at least 50 000 ASes with a CAIDA-like
    /// degree distribution: a handful of tier-1 hubs whose customer cones
    /// and global footprints give them degrees in the thousands, a middle
    /// tier of continental and national ISPs, and a heavy tail of ~97%
    /// stub ASes with 1–3 providers each. Generation stays O(E): wiring
    /// probes the smaller adjacency side and IGP randomization walks links
    /// by index, so no step is quadratic in hub degree.
    pub fn internet_scale() -> Self {
        Self::internet_scale_sized(50_000)
    }

    /// The internet-scale preset sized to at least `target_ases` ASes
    /// (used by the scale bench to sweep 1k → 50k). The transit backbone
    /// (tier-1s, large ISPs, small ISPs) grows sub-linearly with the
    /// target, and stubs fill the remainder — the same shape real AS-level
    /// snapshots show, where edge growth dominates.
    ///
    /// Two features of the default world are deliberately absent: cable
    /// systems (the cable-operator ASN base at 64 000 sits inside the stub
    /// ASN range once stubs pass 44 000) and the PEERING-like testbed (its
    /// real ASN 47 065 likewise collides with the stub cursor). Both are
    /// paper-experiment furniture, not routing substrate.
    ///
    /// The preset also stays inside `ir-audit`'s Gao–Rexford convergence
    /// certificate (see [`GeneratorConfig::certifiably_safe`]): the
    /// preference-reordering quirks — neighbor-ranking deltas, domestic
    /// preference, backup links, sibling orgs, loop-prevention opt-outs —
    /// are off. Those quirks make convergence *unguaranteed*: paper-scale
    /// instances put up to a third of their prefixes on live dispute
    /// wheels, and an 8k-AS world with the quirks on was measured
    /// oscillating for 16 025 rounds (102M activations) before the round
    /// cap fired. The engine now detects and fast-forwards such wheels,
    /// but still reports them unconverged. A preset
    /// whose job is to converge 50k ASes must be safe by construction;
    /// the features that only *restrict* routing (hybrid links, partial
    /// transit, selective announcement, AS-set filters) survive the
    /// certificate and stay on. `ir-audit`'s `internet_scale_certifies`
    /// test pins this contract.
    pub fn internet_scale_sized(target_ases: usize) -> Self {
        let countries_per_continent = (target_ases / 2_000).clamp(2, 25);
        let countries = 6 * countries_per_continent;
        let tier1s = (target_ases / 2_500).clamp(8, 20);
        let large_isps = (target_ases / 250).clamp(20, 200);
        let small_isps_per_country = 8;
        let education_per_continent = 5;
        let content_providers = 14;
        let backbone = tier1s
            + large_isps
            + small_isps_per_country * countries
            + education_per_continent * 6
            + content_providers;
        let stubs_per_country = target_ases
            .saturating_sub(backbone)
            .div_ceil(countries)
            .max(1);
        GeneratorConfig {
            countries_per_continent,
            cities_per_country: 3,
            tier1s,
            large_isps,
            small_isps_per_country,
            stubs_per_country,
            education_per_continent,
            content_providers,
            content_hostnames: 34,
            cables: 0,
            include_testbed: false,
            domestic_pref_fraction: 0.0,
            neighbor_pref_fraction: 0.0,
            backup_link_fraction: 0.0,
            no_loop_prevention_fraction: 0.0,
            sibling_org_fraction: 0.0,
            ..GeneratorConfig::default()
        }
    }

    /// Builds a world from this configuration and a seed.
    ///
    /// ```
    /// use ir_topology::GeneratorConfig;
    ///
    /// let world = GeneratorConfig::tiny().build(42);
    /// assert!(world.validate().is_ok());
    /// // Same seed, same world; different seed, different world.
    /// assert_eq!(world.graph.link_count(), GeneratorConfig::tiny().build(42).graph.link_count());
    /// ```
    pub fn build(&self, seed: u64) -> World {
        Builder::new(self.clone(), seed).build()
    }
}

/// ASN numbering plan, chosen to make roles recognizable in output.
mod asn_plan {
    pub const TIER1_BASE: u32 = 100;
    pub const LARGE_BASE: u32 = 1_000;
    pub const SMALL_BASE: u32 = 5_000;
    pub const EDU_BASE: u32 = 11_000;
    pub const CONTENT_BASE: u32 = 15_000;
    pub const STUB_BASE: u32 = 20_000;
    pub const CABLE_BASE: u32 = 64_000;
}

struct Builder {
    cfg: GeneratorConfig,
    rng: StdRng,
    geo: Geography,
    graph: AsGraph,
    orgs: OrgRegistry,
    cables: CableMap,
    content: ContentCatalog,
    /// (provider, customer) pairs wired so far — used to pick deviations.
    transit_pairs: Vec<(NodeIdx, NodeIdx)>,
    /// (subscriber, cable ASN) pairs: the subscriber bought capacity on the
    /// cable and will prefer it (policy applied in `make_policies`).
    cable_subscriptions: Vec<(NodeIdx, Asn)>,
    next_prefix_block: u32,
}

impl Builder {
    fn new(cfg: GeneratorConfig, seed: u64) -> Builder {
        let geo = Geography::build(cfg.countries_per_continent, cfg.cities_per_country);
        Builder {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            geo,
            graph: AsGraph::default(),
            orgs: OrgRegistry::default(),
            cables: CableMap::default(),
            content: ContentCatalog::default(),
            transit_pairs: Vec::new(),
            cable_subscriptions: Vec::new(),
            next_prefix_block: 0,
        }
    }

    fn build(mut self) -> World {
        let tier1s = self.make_tier1s();
        let larges = self.make_large_isps(&tier1s);
        let smalls = self.make_small_isps(&larges);
        let stubs = self.make_stubs(&smalls, &larges);
        let edus = self.make_education(&larges);
        let contents = self.make_content(&tier1s, &larges, &stubs);
        self.make_cables(&tier1s, &larges);
        if self.cfg.include_testbed {
            self.make_testbed(&edus);
        }
        self.randomize_igp_costs();
        self.make_hybrids();
        let mut policies = self.make_policies(&stubs, &smalls, &contents);
        policies.resize_with(self.graph.len(), PolicySpec::default);
        World {
            geo: self.geo,
            graph: self.graph,
            orgs: self.orgs,
            cables: self.cables,
            content: self.content,
            policies,
        }
    }

    // ---- helpers ------------------------------------------------------

    /// Allocates the next /20 block and carves `n` /24 prefixes out of it.
    fn alloc_prefixes(&mut self, n: usize) -> Vec<Prefix> {
        assert!(n <= 16, "at most 16 /24s per /20 block");
        // Blocks start at 16.0.0.0 and advance by 4096 addresses.
        let base = 0x1000_0000u32 + self.next_prefix_block * 4096;
        self.next_prefix_block += 1;
        (0..n)
            .map(|i| Prefix::new(Ipv4(base + (i as u32) * 256), 24))
            .collect()
    }

    fn random_country(&mut self) -> CountryId {
        let n = self.geo.countries().len();
        CountryId(self.rng.random_range(0..n) as u16)
    }

    fn cities_of_country(&self, c: CountryId) -> Vec<CityId> {
        self.geo.country(c).cities.clone()
    }

    /// Registers an organization + whois for a (possibly multi-AS) org.
    fn register_org(
        &mut self,
        name: &str,
        country: CountryId,
        asns: &[Asn],
        freemail: bool,
    ) -> OrgId {
        let id = OrgId(self.orgs.orgs().len() as u32);
        let soa = format!("{name}-net.example");
        let domains: Vec<String> = (0..asns.len().max(1))
            .map(|i| {
                if i == 0 {
                    format!("{name}.example")
                } else {
                    format!("{name}-{i}.example")
                }
            })
            .collect();
        self.orgs.add_org(Organization {
            id,
            name: name.to_string(),
            domains: domains.clone(),
            soa_domain: soa,
            country,
        });
        for (i, &asn) in asns.iter().enumerate() {
            let email = if freemail {
                format!(
                    "admin{}@{}",
                    asn.value(),
                    FREEMAIL_DOMAINS[i % FREEMAIL_DOMAINS.len()]
                )
            } else {
                format!("noc@{}", domains[i % domains.len()])
            };
            self.orgs.add_whois(WhoisRecord {
                asn,
                email,
                org_field: format!("ORG-{}-{i}", id.0),
                country,
            });
        }
        id
    }

    /// Creates one AS node; whois is registered by the caller via
    /// [`Builder::register_org`].
    fn add_as(
        &mut self,
        asn: Asn,
        org: OrgId,
        home: CountryId,
        presence: Vec<CityId>,
        role: AsRole,
        n_prefixes: usize,
    ) -> NodeIdx {
        let prefixes = self.alloc_prefixes(n_prefixes);
        self.graph.add_node(AsNode {
            asn,
            org,
            home_country: home,
            presence,
            role,
            prefixes,
        })
    }

    /// Interconnects `a` (as the side whose view is `rel`) with `b`,
    /// choosing a city both are present in (extending `a`'s presence with a
    /// PoP if necessary so the invariant "link cities ⊆ both presences"
    /// holds).
    fn connect(&mut self, a: NodeIdx, b: NodeIdx, rel_of_b_from_a: Relationship, kind: LinkKind) {
        let pa: BTreeSet<CityId> = self.graph.node(a).presence.iter().copied().collect();
        let pb: BTreeSet<CityId> = self.graph.node(b).presence.iter().copied().collect();
        let common: Vec<CityId> = pa.intersection(&pb).copied().collect();
        let city = if !common.is_empty() {
            common[self.rng.random_range(0..common.len())]
        } else {
            // `a` builds a PoP in one of `b`'s cities.
            let cities = &self.graph.node(b).presence;
            let city = cities[self.rng.random_range(0..cities.len())];
            self.graph.node_mut(a).presence.push(city);
            city
        };
        // Occasionally interconnect in a second shared city (needed for
        // hybrid relationships to be possible).
        let mut cities = vec![city];
        if common.len() >= 2 && self.rng.random_bool(0.5) {
            let other = common.iter().find(|c| **c != city).copied();
            if let Some(o) = other {
                cities.push(o);
            }
        }
        self.graph.add_link(a, b, rel_of_b_from_a, cities, kind);
        if rel_of_b_from_a == Relationship::Customer {
            self.transit_pairs.push((a, b));
        } else if rel_of_b_from_a == Relationship::Provider {
            self.transit_pairs.push((b, a));
        }
    }

    // ---- population ---------------------------------------------------

    fn make_tier1s(&mut self) -> Vec<NodeIdx> {
        let mut tier1s = Vec::new();
        let mut i = 0usize;
        let mut asn_cursor = asn_plan::TIER1_BASE;
        while tier1s.len() < self.cfg.tier1s {
            // Some tier-1 orgs are sibling groups (Verizon 701/702/703-like):
            // 2–3 ASNs covering different continents.
            let sibling_group = self.rng.random_bool(self.cfg.sibling_org_fraction)
                && self.cfg.tier1s - tier1s.len() >= 3;
            let n_asns = if sibling_group {
                self.rng.random_range(2..=3)
            } else {
                1
            };
            let home = self.random_country();
            let asns: Vec<Asn> = (0..n_asns).map(|k| Asn(asn_cursor + k as u32)).collect();
            asn_cursor += n_asns as u32;
            let org = self.register_org(&format!("tier1org{i}"), home, &asns, false);
            let mut group = Vec::new();
            for &asn in &asns {
                // Global footprint: a city in most countries.
                let mut presence = Vec::new();
                for country in 0..self.geo.countries().len() {
                    if self.rng.random_bool(0.7) {
                        let cities = self.cities_of_country(CountryId(country as u16));
                        presence.push(cities[self.rng.random_range(0..cities.len())]);
                    }
                }
                if presence.is_empty() {
                    presence.push(self.cities_of_country(home)[0]);
                }
                let idx = self.add_as(asn, org, home, presence, AsRole::Transit, 2);
                group.push(idx);
            }
            // Sibling links inside the group.
            for w in group.windows(2) {
                self.connect(w[0], w[1], Relationship::Sibling, LinkKind::Normal);
            }
            tier1s.extend(group);
            i += 1;
        }
        // Full clique of peering among tier-1s (skip pairs already siblings).
        for x in 0..tier1s.len() {
            for y in (x + 1)..tier1s.len() {
                let (a, b) = (tier1s[x], tier1s[y]);
                if self.graph.link(a, b).is_none() {
                    self.connect(a, b, Relationship::Peer, LinkKind::Normal);
                }
            }
        }
        tier1s
    }

    fn make_large_isps(&mut self, tier1s: &[NodeIdx]) -> Vec<NodeIdx> {
        let mut larges = Vec::new();
        let mut asn_cursor = asn_plan::LARGE_BASE;
        let mut i = 0usize;
        while larges.len() < self.cfg.large_isps {
            let sibling_group = self.rng.random_bool(self.cfg.sibling_org_fraction)
                && self.cfg.large_isps - larges.len() >= 2;
            let n_asns = if sibling_group { 2 } else { 1 };
            let home = self.random_country();
            let asns: Vec<Asn> = (0..n_asns).map(|k| Asn(asn_cursor + k as u32)).collect();
            asn_cursor += n_asns as u32;
            let org = self.register_org(&format!("largeorg{i}"), home, &asns, false);
            let mut group = Vec::new();
            for &asn in &asns {
                // Continental footprint: cities across the home continent,
                // sometimes one more continent.
                let continent = self.geo.continent_of_country(home);
                let mut presence = Vec::new();
                for country in self
                    .geo
                    .countries_on(continent)
                    .map(|c| c.id)
                    .collect::<Vec<_>>()
                {
                    if self.rng.random_bool(0.8) {
                        let cities = self.cities_of_country(country);
                        presence.push(cities[self.rng.random_range(0..cities.len())]);
                    }
                }
                if presence.is_empty() {
                    presence.push(self.cities_of_country(home)[0]);
                }
                let idx = self.add_as(asn, org, home, presence, AsRole::Transit, 2);
                group.push(idx);
            }
            for w in group.windows(2) {
                self.connect(w[0], w[1], Relationship::Sibling, LinkKind::Normal);
            }
            // Providers: 1–3 tier-1s.
            for &idx in &group {
                let n_prov = self.rng.random_range(1..=3usize);
                let mut provs: Vec<NodeIdx> = tier1s.to_vec();
                provs.shuffle(&mut self.rng);
                for &p in provs.iter().take(n_prov) {
                    if self.graph.link(idx, p).is_none() {
                        self.connect(p, idx, Relationship::Customer, LinkKind::Normal);
                    }
                }
            }
            larges.extend(group);
            i += 1;
        }
        // Peering among large ISPs, denser within a continent.
        for x in 0..larges.len() {
            for y in (x + 1)..larges.len() {
                let (a, b) = (larges[x], larges[y]);
                if self.graph.link(a, b).is_some() {
                    continue;
                }
                let same = self
                    .geo
                    .continent_of_country(self.graph.node(a).home_country)
                    == self
                        .geo
                        .continent_of_country(self.graph.node(b).home_country);
                let p = if same { 0.30 } else { 0.05 };
                if self.rng.random_bool(p) {
                    self.connect(a, b, Relationship::Peer, LinkKind::Normal);
                }
            }
        }
        larges
    }

    fn make_small_isps(&mut self, larges: &[NodeIdx]) -> Vec<NodeIdx> {
        let mut smalls = Vec::new();
        let mut asn_cursor = asn_plan::SMALL_BASE;
        let countries: Vec<CountryId> = self.geo.countries().iter().map(|c| c.id).collect();
        for home in countries {
            let mut in_country = Vec::new();
            for _ in 0..self.cfg.small_isps_per_country {
                let asn = Asn(asn_cursor);
                asn_cursor += 1;
                let org = self.register_org(&format!("small{}", asn.value()), home, &[asn], false);
                let presence = self.cities_of_country(home);
                let idx = self.add_as(asn, org, home, presence, AsRole::Transit, 1);
                // Providers: 1–2 large ISPs, preferring the same continent.
                let continent = self.geo.continent_of_country(home);
                let mut candidates: Vec<NodeIdx> = larges
                    .iter()
                    .copied()
                    .filter(|&l| {
                        self.geo
                            .continent_of_country(self.graph.node(l).home_country)
                            == continent
                    })
                    .collect();
                if candidates.is_empty() {
                    candidates = larges.to_vec();
                }
                candidates.shuffle(&mut self.rng);
                let n_prov = self.rng.random_range(1..=2usize).min(candidates.len());
                for &p in candidates.iter().take(n_prov) {
                    self.connect(p, idx, Relationship::Customer, LinkKind::Normal);
                }
                in_country.push(idx);
            }
            // The rich peering mesh near the edge: small ISPs in the same
            // country peer with probability `edge_peering_prob`.
            for x in 0..in_country.len() {
                for y in (x + 1)..in_country.len() {
                    if self.rng.random_bool(self.cfg.edge_peering_prob) {
                        self.connect(
                            in_country[x],
                            in_country[y],
                            Relationship::Peer,
                            LinkKind::Normal,
                        );
                    }
                }
            }
            smalls.extend(in_country);
        }
        smalls
    }

    fn make_stubs(&mut self, smalls: &[NodeIdx], larges: &[NodeIdx]) -> Vec<NodeIdx> {
        let mut stubs = Vec::new();
        let mut asn_cursor = asn_plan::STUB_BASE;
        let countries: Vec<CountryId> = self.geo.countries().iter().map(|c| c.id).collect();
        for home in countries {
            let continent = self.geo.continent_of_country(home);
            let local_smalls: Vec<NodeIdx> = smalls
                .iter()
                .copied()
                .filter(|&s| self.graph.node(s).home_country == home)
                .collect();
            let cont_larges: Vec<NodeIdx> = larges
                .iter()
                .copied()
                .filter(|&l| {
                    self.geo
                        .continent_of_country(self.graph.node(l).home_country)
                        == continent
                })
                .collect();
            for k in 0..self.cfg.stubs_per_country {
                let asn = Asn(asn_cursor);
                asn_cursor += 1;
                let role = if k % 10 < 7 {
                    AsRole::Eyeball
                } else {
                    AsRole::Enterprise
                };
                // A sprinkle of freemail whois records pollutes sibling
                // inference exactly as on the real Internet.
                let freemail = self.rng.random_bool(0.05);
                let org =
                    self.register_org(&format!("stub{}", asn.value()), home, &[asn], freemail);
                let cities = self.cities_of_country(home);
                let n_cities = self.rng.random_range(1..=2usize).min(cities.len());
                let mut presence = cities;
                presence.shuffle(&mut self.rng);
                presence.truncate(n_cities);
                let n_pfx = if self.rng.random_bool(0.4) {
                    self.rng.random_range(2..=4)
                } else {
                    1
                };
                let idx = self.add_as(asn, org, home, presence, role, n_pfx);
                // Providers: 1–3, mostly local small ISPs, sometimes a large.
                let n_prov = self.rng.random_range(1..=3usize);
                let mut provs: Vec<NodeIdx> = Vec::new();
                let mut pool = local_smalls.clone();
                pool.shuffle(&mut self.rng);
                provs.extend(pool.into_iter().take(n_prov));
                if (provs.len() < n_prov || self.rng.random_bool(0.3)) && !cont_larges.is_empty() {
                    let l = cont_larges[self.rng.random_range(0..cont_larges.len())];
                    if !provs.contains(&l) {
                        provs.push(l);
                    }
                }
                for p in provs {
                    if self.graph.link(idx, p).is_none() {
                        self.connect(p, idx, Relationship::Customer, LinkKind::Normal);
                    }
                }
                stubs.push(idx);
            }
        }
        stubs
    }

    fn make_education(&mut self, larges: &[NodeIdx]) -> Vec<NodeIdx> {
        let mut edus = Vec::new();
        let mut asn_cursor = asn_plan::EDU_BASE;
        for continent in ir_types::Continent::ALL {
            let countries: Vec<CountryId> =
                self.geo.countries_on(continent).map(|c| c.id).collect();
            for _ in 0..self.cfg.education_per_continent {
                let home = countries[self.rng.random_range(0..countries.len())];
                let asn = Asn(asn_cursor);
                asn_cursor += 1;
                let org = self.register_org(&format!("edu{}", asn.value()), home, &[asn], false);
                let presence = self.cities_of_country(home);
                let idx = self.add_as(asn, org, home, presence, AsRole::Education, 1);
                // Commodity transit from a large ISP.
                let cont_larges: Vec<NodeIdx> = larges
                    .iter()
                    .copied()
                    .filter(|&l| {
                        self.geo
                            .continent_of_country(self.graph.node(l).home_country)
                            == continent
                    })
                    .collect();
                let pool = if cont_larges.is_empty() {
                    larges
                } else {
                    &cont_larges[..]
                };
                let p = pool[self.rng.random_range(0..pool.len())];
                self.connect(p, idx, Relationship::Customer, LinkKind::Normal);
                edus.push(idx);
            }
        }
        // The GREN mesh: education networks peer with each other, including
        // across continents (Internet2–AMPATH-like links that generate the
        // §4.4 violations).
        for x in 0..edus.len() {
            for y in (x + 1)..edus.len() {
                if self.rng.random_bool(0.4) {
                    self.connect(edus[x], edus[y], Relationship::Peer, LinkKind::Normal);
                }
            }
        }
        edus
    }

    fn make_content(
        &mut self,
        tier1s: &[NodeIdx],
        larges: &[NodeIdx],
        stubs: &[NodeIdx],
    ) -> Vec<NodeIdx> {
        let mut contents = Vec::new();
        // Distribute hostnames: the first two providers are Akamai/Netflix-
        // like heavyweights with several hostnames and many off-nets.
        let n = self.cfg.content_providers;
        let mut host_counts = vec![1usize; n];
        let mut remaining = self.cfg.content_hostnames.saturating_sub(n);
        let mut hi = 0usize;
        while remaining > 0 {
            let take = if hi < 2 {
                remaining.min(5)
            } else {
                remaining.min(2)
            };
            host_counts[hi % n] += take;
            remaining -= take;
            hi += 1;
        }
        let eyeballs: Vec<NodeIdx> = stubs
            .iter()
            .copied()
            .filter(|&s| self.graph.node(s).role == AsRole::Eyeball)
            .collect();
        for (i, &host_count) in host_counts.iter().enumerate() {
            let asn = Asn(asn_plan::CONTENT_BASE + i as u32);
            let home = self.random_country();
            let name = format!("content{i}");
            let org = self.register_org(&name, home, &[asn], false);
            // Global-ish presence: a few cities on several continents.
            let mut presence = Vec::new();
            for continent in ir_types::Continent::ALL {
                if self.rng.random_bool(0.6) {
                    let countries: Vec<CountryId> =
                        self.geo.countries_on(continent).map(|c| c.id).collect();
                    let c = countries[self.rng.random_range(0..countries.len())];
                    let cities = self.cities_of_country(c);
                    presence.push(cities[self.rng.random_range(0..cities.len())]);
                }
            }
            if presence.is_empty() {
                presence.push(self.cities_of_country(home)[0]);
            }
            let idx = self.add_as(asn, org, home, presence, AsRole::Content, 4);
            // Transit from 1–2 tier-1s/larges…
            let mut provs: Vec<NodeIdx> = tier1s.iter().chain(larges.iter()).copied().collect();
            provs.shuffle(&mut self.rng);
            for &p in provs.iter().take(self.rng.random_range(1..=2usize)) {
                if self.graph.link(idx, p).is_none() {
                    self.connect(p, idx, Relationship::Customer, LinkKind::Normal);
                }
            }
            // …plus open peering with eyeballs and large ISPs (the edge
            // peering mesh content providers build).
            for &e in &eyeballs {
                if self.rng.random_bool(0.06) && self.graph.link(idx, e).is_none() {
                    self.connect(idx, e, Relationship::Peer, LinkKind::Normal);
                }
            }
            for &l in larges {
                if self.rng.random_bool(0.20) && self.graph.link(idx, l).is_none() {
                    self.connect(idx, l, Relationship::Peer, LinkKind::Normal);
                }
            }
            contents.push(idx);

            // Deployments: on-net (own prefixes) everywhere, off-net caches
            // inside eyeball ISPs for the first two (Akamai/Netflix-like)
            // and occasionally for the rest.
            let own_pfx = self.graph.node(idx).prefixes.clone();
            let mut deployments: Vec<Deployment> = own_pfx
                .iter()
                .map(|p| Deployment {
                    host_as: asn,
                    prefix: *p,
                    offnet: false,
                })
                .collect();
            let n_offnet = if i == 0 {
                self.rng.random_range(18..=24usize)
            } else if i == 1 {
                self.rng.random_range(10..=16usize)
            } else {
                self.rng.random_range(0..=3usize)
            };
            let mut hosts = eyeballs.clone();
            hosts.shuffle(&mut self.rng);
            for &h in hosts.iter().take(n_offnet) {
                // The cache lives inside one of the host ISP's /24s; carve a
                // /26 for the servers (the ISP originates the covering /24).
                // Caches sit in the host's *last* prefix — the service
                // block, which is also the one selective announcement
                // policies apply to (§4.3's enterprise-class prefixes).
                let host_node = self.graph.node(h);
                let base = *host_node
                    .prefixes
                    .last()
                    .unwrap_or_else(|| panic!("host AS {} has no prefix", host_node.asn));
                let cache = Prefix::new(Ipv4(base.base.0 + 64), 26);
                deployments.push(Deployment {
                    host_as: host_node.asn,
                    prefix: cache,
                    offnet: true,
                });
            }
            let hostnames: Vec<String> = (0..host_count)
                .map(|k| {
                    if k == 0 {
                        format!("www.{name}.example")
                    } else {
                        format!("svc{k}.{name}.example")
                    }
                })
                .collect();
            self.content.add(ContentProvider {
                org,
                name,
                hostnames,
                origin_asns: vec![asn],
                deployments,
            });
        }
        contents
    }

    fn make_cables(&mut self, tier1s: &[NodeIdx], larges: &[NodeIdx]) {
        for i in 0..self.cfg.cables {
            // Pick two continents and a coastal landing city on each.
            let continents = {
                let mut cs = ir_types::Continent::ALL.to_vec();
                cs.shuffle(&mut self.rng);
                (cs[0], cs[1])
            };
            let la = self.geo.coastal_cities_on(continents.0);
            let lb = self.geo.coastal_cities_on(continents.1);
            if la.is_empty() || lb.is_empty() {
                continue;
            }
            let landings = vec![
                la[self.rng.random_range(0..la.len())],
                lb[self.rng.random_range(0..lb.len())],
            ];
            if self.rng.random_bool(self.cfg.independent_cable_fraction) {
                // Independently-operated cable: its own ASN; subscriber ISPs
                // (one near each landing) become its customers — the cable
                // provides point-to-point transit between them.
                let asn = Asn(asn_plan::CABLE_BASE + i as u32);
                let home = self.geo.country_of(landings[0]);
                let org = self.register_org(&format!("cable{i}"), home, &[asn], false);
                let idx = self.add_as(asn, org, home, landings.clone(), AsRole::CableOperator, 1);
                let mut subscribers = Vec::new();
                for &landing in &landings {
                    let continent = self.geo.continent_of(landing);
                    let pool: Vec<NodeIdx> = larges
                        .iter()
                        .chain(tier1s.iter())
                        .copied()
                        .filter(|&x| {
                            self.geo
                                .continent_of_country(self.graph.node(x).home_country)
                                == continent
                        })
                        .collect();
                    if pool.is_empty() {
                        continue;
                    }
                    // 1–2 subscribers per landing.
                    for _ in 0..self.rng.random_range(1..=2usize) {
                        let s = pool[self.rng.random_range(0..pool.len())];
                        if s != idx && self.graph.link(idx, s).is_none() {
                            // Make sure the subscriber has a PoP at the landing.
                            if !self.graph.node(s).presence.contains(&landing) {
                                self.graph.node_mut(s).presence.push(landing);
                            }
                            self.connect(idx, s, Relationship::Customer, LinkKind::CableSegment);
                            // Subscribers bought dedicated capacity: they
                            // will prefer the cable for the destinations it
                            // reaches (point-to-point transit economics).
                            self.cable_subscriptions.push((s, asn));
                            subscribers.push(s);
                        }
                    }
                }
                self.cables.add(CableSystem {
                    name: format!("cable{i}"),
                    landings,
                    ownership: CableOwnership::Independent(asn),
                });
            } else {
                // Consortium cable: a direct link between two big ISPs, one
                // near each landing.
                let pool_a: Vec<NodeIdx> = tier1s
                    .iter()
                    .chain(larges.iter())
                    .copied()
                    .filter(|&x| {
                        self.geo
                            .continent_of_country(self.graph.node(x).home_country)
                            == continents.0
                    })
                    .collect();
                let pool_b: Vec<NodeIdx> = tier1s
                    .iter()
                    .chain(larges.iter())
                    .copied()
                    .filter(|&x| {
                        self.geo
                            .continent_of_country(self.graph.node(x).home_country)
                            == continents.1
                    })
                    .collect();
                let (pool_a, pool_b) = if pool_a.is_empty() || pool_b.is_empty() {
                    (tier1s.to_vec(), tier1s.to_vec())
                } else {
                    (pool_a, pool_b)
                };
                let a = pool_a[self.rng.random_range(0..pool_a.len())];
                let b = pool_b[self.rng.random_range(0..pool_b.len())];
                if a != b {
                    for (&x, &landing) in [a, b].iter().zip(landings.iter()) {
                        if !self.graph.node(x).presence.contains(&landing) {
                            self.graph.node_mut(x).presence.push(landing);
                        }
                    }
                    if self.graph.link(a, b).is_none() {
                        self.connect(a, b, Relationship::Peer, LinkKind::CableSegment);
                    }
                    self.cables.add(CableSystem {
                        name: format!("cable{i}"),
                        landings,
                        ownership: CableOwnership::Consortium(vec![
                            self.graph.asn(a),
                            self.graph.asn(b),
                        ]),
                    });
                }
            }
        }
    }

    /// The PEERING-like testbed: one AS homed at 7 university (education)
    /// networks as providers — 6 in one country ("US-like") and 1 elsewhere
    /// ("Brazil-like"), mirroring §3.2.
    fn make_testbed(&mut self, edus: &[NodeIdx]) {
        if edus.is_empty() {
            return;
        }
        let asn = Asn::TESTBED;
        let home = self.graph.node(edus[0]).home_country;
        let org = self.register_org("testbed", home, &[asn], false);
        let presence = vec![self.graph.node(edus[0]).presence[0]];
        let idx = self.add_as(asn, org, home, presence, AsRole::Education, 2);
        // Up to 7 university providers, maximizing country diversity the way
        // the real testbed mixes US schools and a Brazilian one.
        let mut picked: Vec<NodeIdx> = Vec::new();
        let mut seen_countries = BTreeSet::new();
        for &e in edus {
            if picked.len() >= 7 {
                break;
            }
            let c = self.graph.node(e).home_country;
            if seen_countries.insert(c) || picked.len() < 6 {
                picked.push(e);
            }
        }
        for e in picked {
            self.connect(e, idx, Relationship::Customer, LinkKind::Normal);
        }
    }

    fn randomize_igp_costs(&mut self) {
        // Indexed walk instead of a peer-scan per link: `set_igp_cost(a, b)`
        // re-finds `b` in `a`'s adjacency, which is O(Σ deg²) across hubs at
        // internet scale. Iteration (and hence the RNG draw sequence) is
        // unchanged — link order is adjacency order, exactly what the old
        // peer-vec loop walked — so seeded worlds stay bit-identical.
        for a in 0..self.graph.len() {
            for i in 0..self.graph.links(a).len() {
                let cost = self.rng.random_range(1..=10u32);
                self.graph.set_igp_cost_at(a, i, cost);
            }
        }
    }

    /// Turns a fraction of multi-city peering links into hybrid
    /// relationships: peer in one city, customer/provider in another.
    fn make_hybrids(&mut self) {
        let mut candidates: Vec<(NodeIdx, NodeIdx, CityId)> = Vec::new();
        for a in 0..self.graph.len() {
            for l in self.graph.links(a) {
                if l.peer > a && l.rel == Relationship::Peer && l.cities.len() >= 2 {
                    candidates.push((a, l.peer, l.cities[1]));
                }
            }
        }
        for (a, b, city) in candidates {
            if self.rng.random_bool(self.cfg.hybrid_fraction) {
                let rel = if self.rng.random_bool(0.5) {
                    Relationship::Customer
                } else {
                    Relationship::Provider
                };
                self.graph.set_hybrid(a, b, city, rel);
            }
        }
    }

    fn make_policies(
        &mut self,
        stubs: &[NodeIdx],
        smalls: &[NodeIdx],
        contents: &[NodeIdx],
    ) -> Vec<PolicySpec> {
        let mut policies: Vec<PolicySpec> = Vec::new();
        policies.resize_with(self.graph.len(), PolicySpec::default);

        // Universal knobs.
        for policy in policies.iter_mut() {
            policy.no_loop_prevention = self.rng.random_bool(self.cfg.no_loop_prevention_fraction);
            policy.filters_as_sets = self.rng.random_bool(self.cfg.filters_as_sets_fraction);
        }

        // Domestic-path preference at edge ASes (stubs + small ISPs).
        for &idx in stubs.iter().chain(smalls.iter()) {
            if self.rng.random_bool(self.cfg.domestic_pref_fraction) {
                policies[idx].domestic_pref = true;
            }
        }

        // Finer-grained neighbor rankings at transit ASes: deprioritize one
        // customer below peers (a Cogent-like economics quirk) or boost one
        // provider above peers.
        for (idx, policy) in policies.iter_mut().enumerate() {
            if self.graph.node(idx).role != AsRole::Transit {
                continue;
            }
            if !self.rng.random_bool(self.cfg.neighbor_pref_fraction) {
                continue;
            }
            let links = self.graph.links(idx);
            let customers: Vec<Asn> = links
                .iter()
                .filter(|l| l.rel == Relationship::Customer)
                .map(|l| self.graph.asn(l.peer))
                .collect();
            let providers: Vec<Asn> = links
                .iter()
                .filter(|l| l.rel == Relationship::Provider)
                .map(|l| self.graph.asn(l.peer))
                .collect();
            if !customers.is_empty() && self.rng.random_bool(0.6) {
                let c = customers[self.rng.random_range(0..customers.len())];
                policy.neighbor_pref.insert(c, -150); // below peers
            } else if !providers.is_empty() {
                let p = providers[self.rng.random_range(0..providers.len())];
                policy.neighbor_pref.insert(p, 250); // above peers
            }
        }

        // Partial transit on a fraction of provider→customer arrangements.
        let pairs = self.transit_pairs.clone();
        for (provider, customer) in pairs {
            if self.rng.random_bool(self.cfg.partial_transit_fraction) {
                let c_asn = self.graph.asn(customer);
                policies[provider]
                    .partial_transit
                    .insert(c_asn, TransitScope::CustomerRoutesOnly);
            }
        }

        // Backup links: for multi-homed stubs, mark one provider link as
        // backup (lowest preference on the customer side; the provider side
        // keeps it as an ordinary customer link).
        for &idx in stubs {
            let provs: Vec<Asn> = self
                .graph
                .links(idx)
                .iter()
                .filter(|l| l.rel == Relationship::Provider)
                .map(|l| self.graph.asn(l.peer))
                .collect();
            if provs.len() >= 2 && self.rng.random_bool(self.cfg.backup_link_fraction) {
                let backup = provs[provs.len() - 1];
                // Outbound: depreciate the link; inbound: prepend toward it
                // so the provider's customers route around it too.
                policies[idx].neighbor_pref.insert(backup, -300);
                policies[idx].export_prepend.insert(backup, 3);
            }
        }

        // Cable subscribers prefer their cable above ordinary routes for
        // whatever the cable reaches (they paid for the capacity) — this is
        // what puts independently-operated cable ASes on real paths even
        // though they are, relationship-wise, providers.
        for (subscriber, cable_asn) in self.cable_subscriptions.clone() {
            // Not every subscriber prefers the cable for everything it
            // reaches; some keep it for overflow only.
            if self.rng.random_bool(0.6) {
                policies[subscriber].neighbor_pref.insert(cable_asn, 250);
            }
        }

        // Prefix-specific announcement at multi-prefix origins — content
        // providers are the heaviest users (enterprise-class prefixes go to
        // one premium provider only), plus a fraction of multi-prefix stubs.
        let psp_candidates: Vec<NodeIdx> = contents
            .iter()
            .copied()
            .chain(
                stubs
                    .iter()
                    .copied()
                    .filter(|&s| self.graph.node(s).prefixes.len() >= 2),
            )
            .collect();
        for idx in psp_candidates {
            // Content providers are the heaviest users of per-prefix
            // policies (premium service blocks); edge origins less so.
            let p = if contents.contains(&idx) {
                0.9
            } else {
                self.cfg.psp_fraction
            };
            if !self.rng.random_bool(p) {
                continue;
            }
            let neighbors: Vec<Asn> = self
                .graph
                .links(idx)
                .iter()
                .filter(|l| matches!(l.rel, Relationship::Provider | Relationship::Peer))
                .map(|l| self.graph.asn(l.peer))
                .collect();
            if neighbors.len() < 2 {
                continue;
            }
            let prefixes = self.graph.node(idx).prefixes.clone();
            // Restrict the last prefix (content providers: the last two —
            // enterprise-class service blocks) to a strict subset of
            // neighbors.
            let n_restricted = if contents.contains(&idx) && prefixes.len() >= 3 {
                2
            } else {
                1
            };
            for pfx in prefixes.iter().rev().take(n_restricted) {
                // Enterprise-class prefixes go to a single (premium)
                // provider.
                let keep = 1;
                let mut picked = neighbors.clone();
                picked.shuffle(&mut self.rng);
                picked.truncate(keep);
                policies[idx]
                    .selective_announce
                    .insert(*pfx, picked.into_iter().collect());
            }
        }

        policies
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        GeneratorConfig::tiny().build(42)
    }

    #[test]
    fn world_validates() {
        let w = world();
        w.validate().expect("generated world is self-consistent");
        assert!(
            w.graph.len() > 50,
            "tiny world still has substance: {}",
            w.graph.len()
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = GeneratorConfig::tiny().build(7);
        let b = GeneratorConfig::tiny().build(7);
        assert_eq!(a.graph.len(), b.graph.len());
        assert_eq!(a.graph.link_count(), b.graph.link_count());
        let asns_a: Vec<Asn> = a.graph.nodes().iter().map(|n| n.asn).collect();
        let asns_b: Vec<Asn> = b.graph.nodes().iter().map(|n| n.asn).collect();
        assert_eq!(asns_a, asns_b);
        // Policies identical too.
        for i in 0..a.graph.len() {
            assert_eq!(format!("{:?}", a.policy(i)), format!("{:?}", b.policy(i)));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = GeneratorConfig::tiny().build(1);
        let b = GeneratorConfig::tiny().build(2);
        assert_ne!(a.graph.link_count(), b.graph.link_count());
    }

    #[test]
    fn internet_scale_sizing_meets_target() {
        for target in [1_000usize, 2_500] {
            let cfg = GeneratorConfig::internet_scale_sized(target);
            let w = cfg.build(3);
            assert!(
                w.graph.len() >= target,
                "asked for {target} ASes, got {}",
                w.graph.len()
            );
            // The backbone must stay a small minority: stubs dominate, as
            // in real AS-level snapshots.
            let stubs = w
                .graph
                .nodes()
                .iter()
                .filter(|n| matches!(n.role, AsRole::Eyeball | AsRole::Enterprise))
                .count();
            assert!(stubs * 10 >= w.graph.len() * 8, "{stubs} stubs");
            w.validate()
                .expect("internet-scale world is self-consistent");
        }
    }

    #[test]
    fn internet_scale_degree_distribution_is_heavy_tailed() {
        let w = GeneratorConfig::internet_scale_sized(1_000).build(9);
        let mut degrees: Vec<usize> = (0..w.graph.len()).map(|x| w.graph.links(x).len()).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let top = degrees[w.graph.len() / 100].max(degrees[0]);
        let median = degrees[w.graph.len() / 2];
        assert!(
            top >= 20 * median.max(1),
            "hubs should dwarf the median: top {top}, median {median}"
        );
    }

    #[test]
    fn transit_hierarchy_is_connected_upward() {
        let w = world();
        // Every non-tier-1, non-cable AS must have at least one provider or
        // sibling path upward, guaranteeing global reachability under GR.
        for idx in 0..w.graph.len() {
            let n = w.graph.node(idx);
            if n.role == AsRole::CableOperator {
                continue;
            }
            let has_up = w.graph.providers(idx).next().is_some();
            let is_top = w.graph.as_type(idx) == ir_types::AsType::Tier1;
            let has_sibling = w
                .graph
                .links(idx)
                .iter()
                .any(|l| l.rel == Relationship::Sibling);
            assert!(
                has_up || is_top || has_sibling,
                "{} is stranded (role {:?})",
                n.asn,
                n.role
            );
        }
    }

    #[test]
    fn deviations_are_present() {
        let w = GeneratorConfig::default().build(3);
        let any_domestic = w.policies.iter().any(|p| p.domestic_pref);
        let any_psp = w.policies.iter().any(|p| !p.selective_announce.is_empty());
        let any_partial = w.policies.iter().any(|p| !p.partial_transit.is_empty());
        let any_npref = w.policies.iter().any(|p| !p.neighbor_pref.is_empty());
        let any_hybrid = (0..w.graph.len()).any(|i| w.graph.links(i).iter().any(|l| l.is_hybrid()));
        assert!(
            any_domestic && any_psp && any_partial && any_npref,
            "policy deviations seeded"
        );
        assert!(any_hybrid, "hybrid links seeded");
        assert!(
            !w.cables.cable_asns().is_empty(),
            "independent cables exist"
        );
    }

    #[test]
    fn testbed_homed_at_universities() {
        let w = world();
        let idx = w.graph.index_of(Asn::TESTBED).expect("testbed exists");
        let provs: Vec<NodeIdx> = w.graph.providers(idx).collect();
        assert!(!provs.is_empty() && provs.len() <= 7);
        for p in provs {
            assert_eq!(w.graph.node(p).role, AsRole::Education);
        }
    }

    #[test]
    fn content_catalog_matches_config() {
        let cfg = GeneratorConfig::tiny();
        let w = cfg.build(5);
        assert_eq!(w.content.providers().len(), cfg.content_providers);
        assert_eq!(w.content.hostname_count(), cfg.content_hostnames);
        // Off-net deployments exist and are hosted inside eyeball space.
        let offnets: Vec<&Deployment> = w
            .content
            .providers()
            .iter()
            .flat_map(|p| p.deployments.iter().filter(|d| d.offnet))
            .collect();
        assert!(!offnets.is_empty());
        for d in offnets {
            let host = w.graph.index_of(d.host_as).expect("host AS exists");
            assert!(w
                .graph
                .node(host)
                .prefixes
                .iter()
                .any(|p| p.covers(&d.prefix)));
        }
    }

    #[test]
    fn cable_landings_span_continents() {
        let w = world();
        for s in w.cables.systems() {
            let c0 = w.geo.continent_of(s.landings[0]);
            let c1 = w.geo.continent_of(s.landings[1]);
            assert_ne!(c0, c1, "cable {} lands on one continent", s.name);
        }
    }

    #[test]
    fn link_cities_subset_of_presence() {
        let w = world();
        for a in 0..w.graph.len() {
            for l in w.graph.links(a) {
                for c in &l.cities {
                    assert!(
                        w.graph.node(a).presence.contains(c)
                            || w.graph.node(l.peer).presence.contains(c),
                        "link city not in either presence"
                    );
                }
            }
        }
    }

    #[test]
    fn sibling_groups_share_org() {
        let w = GeneratorConfig::default().build(11);
        let mut sib_links = 0;
        for a in 0..w.graph.len() {
            for l in w.graph.links(a) {
                if l.rel == Relationship::Sibling && l.peer > a {
                    sib_links += 1;
                    assert_eq!(w.graph.node(a).org, w.graph.node(l.peer).org);
                }
            }
        }
        assert!(sib_links > 0, "sibling groups generated");
    }
}
