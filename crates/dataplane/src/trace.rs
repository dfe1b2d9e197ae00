//! The traceroute engine.
//!
//! A traceroute walks the converged BGP forwarding state hop by hop —
//! interdomain forwarding is destination-based (§3.1), so each AS on the
//! way forwards along its own selected route, which is exactly why one
//! traceroute exposes a routing decision *for every AS it crosses*.
//!
//! Hop addresses carry the classic measurement artifacts, seeded and
//! rate-configurable:
//!
//! * **third-party addresses** — the ingress interface of the next AS
//!   numbered out of the previous AS's space, so IP→AS maps the hop to the
//!   wrong AS;
//! * **IXP fabric addresses** — from the unannounced exchange block, so
//!   IP→AS cannot map the hop at all;
//! * **unresponsive hops** — `*`.

use crate::addr::AddressPlan;
use crate::ip2as::OriginTable;
use ir_bgp::RoutingUniverse;
use ir_topology::graph::NodeIdx;
use ir_topology::World;
use ir_types::{Asn, CityId, Ipv4};
use rand::prelude::*;
use rand::rngs::StdRng;

/// One traceroute hop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// Responding interface address; `None` for an unresponsive hop (`*`).
    pub ip: Option<Ipv4>,
    /// Ground truth: the AS whose router answered (regardless of whose
    /// address space the interface is numbered from). Not available to the
    /// measurement pipeline; used by tests and oracles.
    pub true_asn: Option<Asn>,
    /// Ground truth: where the router is.
    pub true_city: Option<CityId>,
}

/// A completed traceroute measurement.
#[derive(Debug, Clone)]
pub struct Traceroute {
    /// AS hosting the probe.
    pub src_as: Asn,
    /// Destination address.
    pub dst_ip: Ipv4,
    /// Hostname the destination was resolved from, when DNS was involved.
    pub dst_hostname: Option<String>,
    /// Hop list, probe-side first.
    pub hops: Vec<Hop>,
    /// Whether the destination answered.
    pub reached: bool,
}

impl Traceroute {
    /// Ground-truth AS-level path (probe AS first, destination AS last),
    /// deduplicated per hop run. The measurement pipeline never sees this.
    pub fn true_as_path(&self) -> Vec<Asn> {
        let mut path = vec![self.src_as];
        for h in &self.hops {
            if let Some(a) = h.true_asn {
                if path.last() != Some(&a) {
                    path.push(a);
                }
            }
        }
        path
    }
}

/// Artifact rates for hop-address emission.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Ingress interface numbered from the previous AS's space.
    pub third_party_rate: f64,
    /// Interconnection through an IXP fabric address.
    pub ixp_rate: f64,
    /// Unresponsive hop.
    pub star_rate: f64,
    /// Extra intra-AS hop emitted inside transit ASes.
    pub extra_hop_rate: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            third_party_rate: 0.05,
            ixp_rate: 0.04,
            star_rate: 0.03,
            extra_hop_rate: 0.25,
        }
    }
}

/// Traceroute engine bound to a world and its converged routing state.
///
/// ```
/// use ir_bgp::RoutingUniverse;
/// use ir_dataplane::{AddressPlan, TraceConfig, Tracer};
/// use ir_topology::GeneratorConfig;
///
/// let world = GeneratorConfig::tiny().build(2);
/// // Converge just the prefixes we need (the destination's /24).
/// let dep = &world.content.providers()[0].deployments[0];
/// let covering = world.graph.nodes().iter()
///     .flat_map(|n| n.prefixes.iter().copied())
///     .find(|p| p.covers(&dep.prefix)).unwrap();
/// let universe = RoutingUniverse::compute(&world, &[covering]);
/// let plan = AddressPlan::build(&world);
/// let tracer = Tracer::new(&world, &universe, &plan, TraceConfig::default(), 0);
///
/// let probe = world.graph.nodes().iter().find(|n| n.asn.value() >= 20_000).unwrap().asn;
/// let tr = tracer.run(probe, dep.server_ip());
/// assert!(tr.reached);
/// assert_eq!(tr.true_as_path().first(), Some(&probe));
/// ```
pub struct Tracer<'a> {
    world: &'a World,
    universe: &'a RoutingUniverse,
    /// Longest-prefix match over the universe's announced prefixes, built
    /// once per tracer: the retry scheduler re-resolves destinations per
    /// attempt, so this lookup is hot under fault-heavy campaigns.
    origins: OriginTable,
    plan: &'a AddressPlan,
    cfg: TraceConfig,
    seed: u64,
}

impl<'a> Tracer<'a> {
    /// Binds the engine. `seed` namespaces all artifact randomness; a given
    /// `(seed, src, dst)` triple always produces the same traceroute.
    pub fn new(
        world: &'a World,
        universe: &'a RoutingUniverse,
        plan: &'a AddressPlan,
        cfg: TraceConfig,
        seed: u64,
    ) -> Tracer<'a> {
        Tracer {
            world,
            universe,
            origins: OriginTable::from_universe(universe),
            plan,
            cfg,
            seed,
        }
    }

    fn rng_for(&self, src: Asn, dst: Ipv4) -> StdRng {
        // SplitMix-style stream derivation keeps traceroutes independent.
        let mut z = self
            .seed
            .wrapping_add((src.value() as u64) << 32)
            .wrapping_add(dst.0 as u64)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        StdRng::seed_from_u64(z ^ (z >> 31))
    }

    /// Runs a traceroute from a probe in `src` toward `dst_ip`.
    pub fn run(&self, src: Asn, dst_ip: Ipv4) -> Traceroute {
        let mut rng = self.rng_for(src, dst_ip);
        let mut tr = Traceroute {
            src_as: src,
            dst_ip,
            dst_hostname: None,
            hops: Vec::new(),
            reached: false,
        };
        let Some(src_idx) = self.world.graph.index_of(src) else {
            return tr;
        };
        let Some(dst_pfx) = self.origins.lookup_prefix(dst_ip) else {
            return tr; // destination not routed at all
        };

        // First hop: the probe's gateway inside the source AS.
        let src_city = self.world.graph.node(src_idx).presence[0];
        self.emit(&mut tr, src_idx, src_idx, src_city, &mut rng);

        let mut cur: NodeIdx = src_idx;
        let mut hops = 0usize;
        loop {
            let Some(route) = self.universe.route(dst_pfx, cur) else {
                return tr; // no route: traceroute dies with stars
            };
            if route.is_local() {
                // Inside the destination AS: the destination answers.
                tr.hops.push(Hop {
                    ip: Some(dst_ip),
                    true_asn: Some(self.world.graph.asn(cur)),
                    true_city: Some(self.world.graph.node(cur).presence[0]),
                });
                tr.reached = true;
                return tr;
            }
            // A well-formed non-local route carries both; a malformed one
            // (corrupt input table) kills the traceroute with stars rather
            // than the whole campaign.
            let (Some(next_asn), Some(city)) = (route.learned_from, route.entry_city) else {
                return tr;
            };
            let Some(next) = self.world.graph.index_of(next_asn) else {
                return tr;
            };
            // Ingress hop of the next AS at the interconnection city.
            self.emit(&mut tr, next, cur, city, &mut rng);
            // Possibly one more hop deeper inside the next AS.
            if rng.random_bool(self.cfg.extra_hop_rate) {
                let inner_city = self.world.graph.node(next).presence[0];
                if inner_city != city {
                    self.emit_plain(&mut tr, next, inner_city);
                }
            }
            cur = next;
            hops += 1;
            if hops > self.world.graph.len() {
                return tr; // forwarding loop guard (cannot happen post-convergence)
            }
        }
    }

    /// Emits the ingress hop of `node` at `city`, where the packet came
    /// from `prev` — applying the artifact model.
    fn emit(
        &self,
        tr: &mut Traceroute,
        node: NodeIdx,
        prev: NodeIdx,
        city: CityId,
        rng: &mut StdRng,
    ) {
        let asn = self.world.graph.asn(node);
        let roll: f64 = rng.random();
        let c = &self.cfg;
        let ip = if roll < c.star_rate {
            None
        } else if roll < c.star_rate + c.ixp_rate && node != prev {
            Some(AddressPlan::ixp_address(city))
        } else if roll < c.star_rate + c.ixp_rate + c.third_party_rate && node != prev {
            // Third-party: numbered from the previous AS's space.
            self.plan
                .router(self.world.graph.asn(prev), city)
                .or_else(|| self.plan.any_router(self.world.graph.asn(prev)))
        } else {
            self.plan
                .router(asn, city)
                .or_else(|| self.plan.any_router(asn))
        };
        tr.hops.push(Hop {
            ip,
            true_asn: Some(asn),
            true_city: Some(city),
        });
    }

    /// Emits an artifact-free intra-AS hop.
    fn emit_plain(&self, tr: &mut Traceroute, node: NodeIdx, city: CityId) {
        let asn = self.world.graph.asn(node);
        let ip = self
            .plan
            .router(asn, city)
            .or_else(|| self.plan.any_router(asn));
        tr.hops.push(Hop {
            ip,
            true_asn: Some(asn),
            true_city: Some(city),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip2as::as_path_of;
    use ir_topology::GeneratorConfig;

    struct Fixture {
        world: World,
        universe: RoutingUniverse,
        plan: AddressPlan,
    }

    fn fixture() -> &'static Fixture {
        use std::sync::OnceLock;
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let world = GeneratorConfig::tiny().build(6);
            let universe = RoutingUniverse::compute_all(&world);
            let plan = AddressPlan::build(&world);
            Fixture {
                world,
                universe,
                plan,
            }
        })
    }

    fn no_artifacts() -> TraceConfig {
        TraceConfig {
            third_party_rate: 0.0,
            ixp_rate: 0.0,
            star_rate: 0.0,
            extra_hop_rate: 0.0,
        }
    }

    fn pick_src_dst(f: &Fixture) -> (Asn, Ipv4) {
        // A stub probe and a content deployment server whose prefix the
        // probe's AS actually has a route toward — random worlds may leave
        // some (stub, deployment) pairs unreachable under policy.
        let table = OriginTable::from_universe(&f.universe);
        for src in f
            .world
            .graph
            .nodes()
            .iter()
            .filter(|n| n.asn.value() >= 20_000)
        {
            let src_idx = f.world.graph.index_of(src.asn).unwrap();
            for p in f.world.content.providers() {
                for d in &p.deployments {
                    let ip = d.server_ip();
                    let reachable = table
                        .lookup_prefix(ip)
                        .is_some_and(|pfx| f.universe.route(pfx, src_idx).is_some());
                    if reachable {
                        return (src.asn, ip);
                    }
                }
            }
        }
        panic!("no reachable (probe, deployment) pair in fixture world");
    }

    #[test]
    fn clean_traceroute_matches_control_plane_path() {
        let f = fixture();
        let (src, dst) = pick_src_dst(f);
        let tracer = Tracer::new(&f.world, &f.universe, &f.plan, no_artifacts(), 1);
        let tr = tracer.run(src, dst);
        assert!(tr.reached, "destination answered");
        // With no artifacts, the converted AS path equals the ground truth.
        let table = OriginTable::from_universe(&f.universe);
        let converted = as_path_of(&tr, &table).expect("clean conversion");
        assert_eq!(converted, tr.true_as_path());
        // And the ground-truth path matches the control plane: src's best
        // route toward the destination prefix.
        let pfx = table.lookup_prefix(dst).unwrap();
        let src_idx = f.world.graph.index_of(src).unwrap();
        let route = f.universe.route(pfx, src_idx).unwrap();
        let mut control = vec![src];
        control.extend(route.path.sequence_asns());
        assert_eq!(converted, control);
    }

    #[test]
    fn traceroutes_are_deterministic() {
        let f = fixture();
        let (src, dst) = pick_src_dst(f);
        let tracer = Tracer::new(&f.world, &f.universe, &f.plan, TraceConfig::default(), 9);
        let a = tracer.run(src, dst);
        let b = tracer.run(src, dst);
        assert_eq!(a.hops, b.hops);
        assert_eq!(a.reached, b.reached);
    }

    #[test]
    fn artifacts_appear_at_high_rates() {
        let f = fixture();
        let cfg = TraceConfig {
            third_party_rate: 0.5,
            ixp_rate: 0.4,
            star_rate: 0.1,
            extra_hop_rate: 0.0,
        };
        let tracer = Tracer::new(&f.world, &f.universe, &f.plan, cfg, 2);
        let mut stars = 0;
        let mut ixp = 0;
        let mut third = 0;
        for node in f
            .world
            .graph
            .nodes()
            .iter()
            .filter(|n| n.asn.value() >= 20_000)
            .take(30)
        {
            let d = &f.world.content.providers()[0].deployments[0];
            let tr = tracer.run(node.asn, d.server_ip());
            for h in &tr.hops {
                match h.ip {
                    None => stars += 1,
                    Some(ip) if crate::addr::IXP_BLOCK.contains(ip) => ixp += 1,
                    Some(ip) => {
                        if let (Some((owner, _)), Some(truth)) = (f.plan.truth(ip), h.true_asn) {
                            if owner != truth {
                                third += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(stars > 0, "stars emitted");
        assert!(ixp > 0, "IXP hops emitted");
        assert!(third > 0, "third-party addresses emitted");
    }

    #[test]
    fn unroutable_destination_unreached() {
        let f = fixture();
        let (src, _) = pick_src_dst(f);
        let tracer = Tracer::new(&f.world, &f.universe, &f.plan, no_artifacts(), 3);
        let tr = tracer.run(src, Ipv4::new(203, 0, 113, 7));
        assert!(!tr.reached);
    }

    #[test]
    fn every_transit_as_appears_in_true_path() {
        // A traceroute exposes a decision for each AS along the path;
        // the true path must contain no gaps relative to forwarding.
        let f = fixture();
        let (src, dst) = pick_src_dst(f);
        let tracer = Tracer::new(&f.world, &f.universe, &f.plan, no_artifacts(), 4);
        let tr = tracer.run(src, dst);
        let path = tr.true_as_path();
        // Each consecutive pair is a ground-truth link.
        for w in path.windows(2) {
            let a = f.world.graph.index_of(w[0]).unwrap();
            let b = f.world.graph.index_of(w[1]).unwrap();
            assert!(
                f.world.graph.link(a, b).is_some(),
                "{} - {} adjacent",
                w[0],
                w[1]
            );
        }
    }
}
