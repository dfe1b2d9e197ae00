//! Seeded request streams. A stream is a pure function of (world, resident
//! prefixes, seed, client thread): the program under test receives only
//! the generated requests, never the seed.

use ir_bgp::{Delta, WhatIfQuery};
use ir_serve::{hijack_line, route_line, whatif_line};
use ir_topology::graph::NodeIdx;
use ir_topology::World;
use ir_types::{Asn, Prefix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

/// Which traffic a stream carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Localized edits only: one edit on the uplink of an edge AS.
    Edge,
    /// Wide blast radius: ⅖ hijack, ⅖ withdraw, ⅕ core-link failure.
    /// (A core-link failure rarely moves a stub's routes and costs a tenth
    /// of the other two; were it half the stream, the median would sit on
    /// the boundary between the classes and flip from run to run.)
    Wide,
    /// The served mix: 40 % edge what-if, 10 % core-link what-if,
    /// 20 % hijack, 30 % route lookup.
    Serve,
}

impl Mix {
    /// One block of the stream: the classes in their declared shares. A
    /// stream is a sequence of such blocks, each shuffled by the seed, so
    /// every window of a run carries the same mix and the run-to-run
    /// difference in how many expensive requests a window happened to
    /// draw is not mistaken for a difference in the system.
    fn block(self) -> &'static [Class] {
        use Class::{CoreLink, EdgeEdit, Hijack, Route, Withdraw};
        match self {
            Mix::Edge => &[EdgeEdit],
            Mix::Wide => &[Hijack, Hijack, Withdraw, Withdraw, CoreLink],
            Mix::Serve => &[
                EdgeEdit, EdgeEdit, EdgeEdit, EdgeEdit, CoreLink, Hijack, Hijack, Route, Route,
                Route,
            ],
        }
    }
}

/// Traffic class of one request, for per-class latency reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    EdgeEdit,
    CoreLink,
    Hijack,
    Withdraw,
    Route,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// A `whatif` op carrying an edit list.
    WhatIf { deltas: Vec<Delta> },
    /// The `hijack` sugar op (plain origin forgery by `attacker`).
    Hijack { attacker: Asn },
    /// A `route` lookup in the base universe.
    Route { asn: Asn },
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub id: u64,
    pub prefix: Prefix,
    pub class: Class,
    pub body: Body,
}

impl Request {
    /// The wire line the shipped client helpers build for this request.
    pub fn line(&self) -> String {
        match &self.body {
            Body::WhatIf { deltas } => whatif_line(Some(self.id), self.prefix, deltas, None),
            Body::Hijack { attacker } => {
                hijack_line(Some(self.id), self.prefix, *attacker, None, false, None)
            }
            Body::Route { asn } => route_line(Some(self.id), self.prefix, *asn),
        }
    }

    /// The library query that answers this request (`None` for lookups).
    /// A `hijack` op expands to the single delta the server builds for it.
    pub fn query(&self) -> Option<WhatIfQuery> {
        let deltas = match &self.body {
            Body::WhatIf { deltas } => deltas.clone(),
            Body::Hijack { attacker } => vec![plain_hijack(*attacker)],
            Body::Route { .. } => return None,
        };
        Some(WhatIfQuery {
            prefix: self.prefix,
            deltas,
        })
    }
}

fn plain_hijack(attacker: Asn) -> Delta {
    Delta::Hijack {
        attacker,
        forged_origin: None,
        poison: Vec::new(),
        stealth: false,
    }
}

/// Nodes 0..CORE_NODES are the tier-1 and largest transit ASes in every
/// generator preset (backbone roles are numbered first).
const CORE_NODES: usize = 64;

/// An endless request stream for one client thread.
pub struct Stream<'w> {
    world: &'w World,
    /// Resident prefixes with their origin node.
    prefixes: Vec<(Prefix, NodeIdx)>,
    rng: StdRng,
    mix: Mix,
    /// Classes still to come from the current block, last first.
    pending: Vec<Class>,
    thread: u64,
    threads: u64,
    sent: u64,
}

impl<'w> Stream<'w> {
    pub fn new(
        world: &'w World,
        prefixes: &[(Prefix, NodeIdx)],
        mix: Mix,
        seed: u64,
        thread: usize,
        threads: usize,
    ) -> Stream<'w> {
        // Decorrelate the threads' generators: one splitmix step over a
        // seed that differs in its top byte.
        let lane = (thread as u64 + 1) << 56;
        let rng = StdRng::seed_from_u64(StdRng::seed_from_u64(seed ^ lane).next_u64());
        Stream {
            world,
            prefixes: prefixes.to_vec(),
            rng,
            mix,
            pending: Vec::new(),
            thread: thread as u64,
            threads: threads as u64,
            sent: 0,
        }
    }

    /// An AS in the upper half of the index range (the stub tail), with at
    /// least one link, other than `avoid`.
    fn edge_node(&mut self, avoid: NodeIdx) -> NodeIdx {
        let g = &self.world.graph;
        let n = g.len();
        loop {
            let x = self.rng.random_range(n / 2..n);
            if x != avoid && !g.links(x).is_empty() {
                return x;
            }
        }
    }

    /// One localized edit on the uplink of an edge AS.
    fn edge_edit(&mut self, origin: NodeIdx) -> Delta {
        let x = self.edge_node(origin);
        let g = &self.world.graph;
        let up = g.providers(x).next().unwrap_or(g.links(x)[0].peer);
        let (of, neighbor) = (g.asn(x), g.asn(up));
        match self.rng.random_range(0..3u32) {
            0 => Delta::LinkDown { a: of, b: neighbor },
            1 => Delta::NeighborPref {
                of,
                neighbor,
                delta: Some(-500),
            },
            _ => Delta::ExportPrepend {
                of,
                neighbor,
                count: Some(2),
            },
        }
    }

    /// Failure of one link of a core AS.
    fn core_link_down(&mut self) -> Delta {
        let g = &self.world.graph;
        loop {
            let x = self.rng.random_range(0..CORE_NODES.min(g.len()));
            let links = g.links(x);
            if !links.is_empty() {
                let peer = links[self.rng.random_range(0..links.len())].peer;
                return Delta::LinkDown {
                    a: g.asn(x),
                    b: g.asn(peer),
                };
            }
        }
    }
}

impl Iterator for Stream<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let id = self.sent * self.threads + self.thread + 1;
        self.sent += 1;
        let (prefix, origin) = self.prefixes[self.rng.random_range(0..self.prefixes.len())];
        if self.pending.is_empty() {
            self.pending.extend_from_slice(self.mix.block());
            self.pending.shuffle(&mut self.rng);
        }
        let class = self.pending.pop().expect("blocks are not empty");
        let whatif = |delta| Body::WhatIf {
            deltas: vec![delta],
        };
        let body = match class {
            Class::EdgeEdit => whatif(self.edge_edit(origin)),
            Class::CoreLink => whatif(self.core_link_down()),
            Class::Withdraw => whatif(Delta::Withdraw),
            Class::Hijack => {
                let attacker = self.edge_node(origin);
                let attacker = self.world.graph.asn(attacker);
                // Served, a hijack is the sugar op; as a library call it is
                // the delta that op expands to.
                if self.mix == Mix::Serve {
                    Body::Hijack { attacker }
                } else {
                    whatif(plain_hijack(attacker))
                }
            }
            Class::Route => {
                let x = self.rng.random_range(0..self.world.graph.len());
                Body::Route {
                    asn: self.world.graph.asn(x),
                }
            }
        };
        Some(Request {
            id,
            prefix,
            class,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_topology::GeneratorConfig;

    fn lines(world: &World, mix: Mix, seed: u64, thread: usize) -> Vec<String> {
        let prefixes = crate::serving::resident_prefixes(world, 4);
        Stream::new(world, &prefixes, mix, seed, thread, 2)
            .take(200)
            .map(|r| r.line())
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_request_lines_on_both_threads() {
        let world = GeneratorConfig::tiny().build(3);
        for mix in [Mix::Edge, Mix::Wide, Mix::Serve] {
            for thread in 0..2 {
                assert_eq!(
                    lines(&world, mix, 7, thread),
                    lines(&world, mix, 7, thread),
                    "{mix:?} thread {thread}"
                );
            }
        }
    }

    #[test]
    fn different_seed_or_thread_gives_a_different_stream() {
        let world = GeneratorConfig::tiny().build(3);
        for mix in [Mix::Edge, Mix::Wide, Mix::Serve] {
            assert_ne!(
                lines(&world, mix, 7, 0),
                lines(&world, mix, 8, 0),
                "{mix:?}"
            );
            assert_ne!(
                lines(&world, mix, 7, 0),
                lines(&world, mix, 7, 1),
                "{mix:?}"
            );
        }
    }

    #[test]
    fn ids_are_unique_across_threads() {
        let world = GeneratorConfig::tiny().build(3);
        let prefixes = crate::serving::resident_prefixes(&world, 4);
        let mut ids: Vec<u64> = (0..2)
            .flat_map(|t| {
                Stream::new(&world, &prefixes, Mix::Serve, 7, t, 2)
                    .take(50)
                    .map(|r| r.id)
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 100);
    }

    #[test]
    fn served_mix_has_the_declared_shares() {
        let world = GeneratorConfig::tiny().build(3);
        let prefixes = crate::serving::resident_prefixes(&world, 4);
        let n = 20_000;
        let mut counts = [0usize; 4];
        for r in Stream::new(&world, &prefixes, Mix::Serve, 7, 0, 2).take(n) {
            counts[match r.class {
                Class::EdgeEdit => 0,
                Class::CoreLink => 1,
                Class::Hijack => 2,
                Class::Route => 3,
                Class::Withdraw => unreachable!("not part of the served mix"),
            }] += 1;
        }
        // Blocks make the shares exact over any whole number of blocks.
        assert_eq!(counts, [n * 4 / 10, n / 10, n * 2 / 10, n * 3 / 10]);
    }

    #[test]
    fn a_hijack_op_expands_to_the_servers_delta() {
        let r = Request {
            id: 1,
            prefix: "16.0.0.0/24".parse().expect("prefix"),
            class: Class::Hijack,
            body: Body::Hijack { attacker: Asn(9) },
        };
        let parsed = ir_serve::parse_request(&r.line()).expect("line parses");
        assert_eq!(parsed.id(), Some(1));
        assert_eq!(r.query().expect("query").deltas, vec![plain_hijack(Asn(9))]);
    }
}
