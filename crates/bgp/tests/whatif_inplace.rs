//! Proof that a what-if query leaves no trace on the engine that answered
//! it. Whatever a query does to the resident state while it runs — edits,
//! reconvergence, a tripped budget, a rejection, a panic — the next caller
//! must find the converged base exactly as it was, and every answer must be
//! the one a freshly built engine gives to the same question.
//!
//! * `random_query_sequences_leave_the_base_untouched` — random query
//!   sequences over every [`Delta`] kind (hijacks, withdrawals, announcements
//!   retargeted at another member of the shape), budget-tripped and
//!   rejected queries, on wave-exact engines and on certified free-order
//!   engines with a certifier attached.
//! * `concurrent_callers_on_one_prefix_match_sequential_answers` — two
//!   threads released together onto one prefix.
//! * `a_panic_mid_reconvergence_leaves_the_base_usable` — a defense
//!   extension that panics half-way through a reconvergence.
//! * `a_query_that_waits_for_its_shape_is_counted` — a second caller
//!   parked behind a query held inside its reconvergence shows up in
//!   [`WhatIfEngine::shape_waits`] and still gets the same answer.

use ir_bgp::universe::prefix_owners;
use ir_bgp::{
    ActivationOrder, Announcement, CertificateDelta, DefensePlan, Delta, DeltaCertifier,
    ExtensionCheck, PolicyExtension, Route, StepBudget, WhatIfEngine, WhatIfQuery,
};
use ir_topology::{GeneratorConfig, World};
use ir_types::{Asn, Prefix};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Deterministic xorshift64* so one proptest salt expands into a whole
/// query sequence reproducibly.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Revokes the certificate for any preference edit and preserves it
/// otherwise: the verdict shape the delta auditor gives on a certified
/// world, without depending on the audit crate (which depends on this one).
struct PrefEditsRevoke;

impl DeltaCertifier for PrefEditsRevoke {
    fn audit_deltas(&self, deltas: &[Delta]) -> CertificateDelta {
        if deltas
            .iter()
            .any(|d| matches!(d, Delta::NeighborPref { .. }))
        {
            CertificateDelta::Revoked {
                rule: "GR-PREF".into(),
                witness: "preference edit".into(),
            }
        } else {
            CertificateDelta::Preserved
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Flavor {
    WaveExact,
    CertifiedFree,
}

fn world(flavor: Flavor, seed: u64) -> World {
    match flavor {
        Flavor::WaveExact => GeneratorConfig::tiny().build(seed),
        Flavor::CertifiedFree => GeneratorConfig::certifiably_safe().build(seed),
    }
}

fn engine<'w>(w: &'w World, prefixes: &[Prefix], flavor: Flavor) -> WhatIfEngine<'w> {
    match flavor {
        Flavor::WaveExact => WhatIfEngine::new(w, prefixes),
        Flavor::CertifiedFree => {
            let mut e = WhatIfEngine::with_order(w, prefixes, ActivationOrder::Free);
            e.set_certifier(Box::new(PrefEditsRevoke));
            e
        }
    }
}

/// Resident prefixes: every prefix of one multi-prefix origin (so a shape
/// answers for several members and queries retarget it), plus three more.
fn resident(w: &World) -> Vec<Prefix> {
    let mut prefixes: BTreeSet<Prefix> = w
        .graph
        .nodes()
        .iter()
        .find(|n| n.prefixes.len() >= 2)
        .map(|n| n.prefixes.iter().copied().collect())
        .unwrap_or_default();
    prefixes.extend(prefix_owners(w).keys().copied().take(3));
    prefixes.into_iter().collect()
}

/// Every base route of every resident prefix, in a fixed order.
fn base_routes(engine: &WhatIfEngine<'_>) -> Vec<Option<Route>> {
    let n = engine.world().graph.len();
    engine
        .prefixes()
        .flat_map(|p| (0..n).map(move |x| engine.base_route(p, x)))
        .collect()
}

/// One random edit of any kind, on `prefix` (owned by `origin`).
fn random_delta(rng: &mut Rng, w: &World, origin: Asn, prefix: Prefix) -> Delta {
    let g = &w.graph;
    let x = rng.below(g.len());
    let links = g.links(x);
    let (a, b) = if links.is_empty() {
        (g.asn(x), origin)
    } else {
        (g.asn(x), g.asn(links[rng.below(links.len())].peer))
    };
    let some_as = g.asn(rng.below(g.len()));
    match rng.below(13) {
        0 | 1 => Delta::LinkDown { a, b },
        2 => Delta::LinkUp { a, b },
        3 => Delta::NeighborPref {
            of: a,
            neighbor: b,
            delta: Some(rng.below(1601) as i16 - 800),
        },
        4 => Delta::ExportPrepend {
            of: a,
            neighbor: b,
            count: Some(1 + rng.below(3) as u8),
        },
        5 => Delta::PartialTransit {
            of: a,
            neighbor: b,
            customer_routes_only: rng.below(2) == 0,
        },
        6 => {
            let oidx = g.index_of(origin).expect("origin in graph");
            let keep = 1 + rng.below(g.links(oidx).len().max(1));
            let allowed = g
                .links(oidx)
                .iter()
                .take(keep)
                .map(|l| g.asn(l.peer))
                .collect();
            Delta::SelectiveAnnounce {
                of: origin,
                prefix,
                allowed: Some(allowed),
            }
        }
        7 => Delta::PoisonFilter {
            of: a,
            enabled: rng.below(2) == 0,
        },
        // Announced for another prefix on purpose: the engine retargets
        // origination edits at the queried member.
        8 => Delta::Announce(Announcement {
            origin,
            prefix: "203.0.113.0/24".parse().expect("literal prefix"),
            via: None,
            poison: if rng.below(2) == 0 {
                vec![some_as]
            } else {
                Vec::new()
            },
        }),
        9 => Delta::Withdraw,
        10 => Delta::Hijack {
            attacker: some_as,
            forged_origin: None,
            poison: Vec::new(),
            stealth: false,
        },
        11 => Delta::Hijack {
            attacker: some_as,
            forged_origin: Some(origin),
            poison: Vec::new(),
            stealth: rng.below(2) == 0,
        },
        _ => Delta::LinkDown { a: b, b: a },
    }
}

/// A random query with its budget: usually well-formed, sometimes rejected
/// (unknown prefix, unknown AS, phantom link), sometimes budget-tripped.
fn random_query(
    rng: &mut Rng,
    w: &World,
    prefixes: &[Prefix],
    owners: &BTreeMap<Prefix, Asn>,
) -> (WhatIfQuery, StepBudget) {
    let prefix = prefixes[rng.below(prefixes.len())];
    let origin = owners[&prefix];
    let mut deltas: Vec<Delta> = (0..rng.below(4))
        .map(|_| random_delta(rng, w, origin, prefix))
        .collect();
    let mut prefix = prefix;
    match rng.below(12) {
        0 => prefix = "198.51.100.0/24".parse().expect("literal prefix"),
        1 => deltas.push(Delta::PoisonFilter {
            of: Asn(4_000_000_000),
            enabled: true,
        }),
        2 => {
            let g = &w.graph;
            let oidx = g.index_of(origin).expect("origin in graph");
            if let Some(stranger) = (0..g.len()).find(|&x| x != oidx && g.link(oidx, x).is_none()) {
                deltas.push(Delta::LinkDown {
                    a: origin,
                    b: g.asn(stranger),
                });
            }
        }
        _ => {}
    }
    let budget = if rng.below(4) == 0 {
        StepBudget::activations(1 + rng.below(40) as u64)
    } else {
        StepBudget::unlimited()
    };
    (WhatIfQuery { prefix, deltas }, budget)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every query of a random sequence the base is untouched, and
    /// every answer (diffs, stats, verdict) — or rejection — equals the one
    /// a freshly built engine gives.
    #[test]
    fn random_query_sequences_leave_the_base_untouched(
        seed in 0u64..16,
        free in any::<bool>(),
        salt in any::<u64>(),
        queries in 4usize..12,
    ) {
        let flavor = if free { Flavor::CertifiedFree } else { Flavor::WaveExact };
        let w = world(flavor, seed);
        let owners = prefix_owners(&w);
        let prefixes = resident(&w);
        let engine = engine(&w, &prefixes, flavor);
        let base = base_routes(&engine);
        let mut rng = Rng::new(salt ^ seed);
        for i in 0..queries {
            let (q, budget) = random_query(&mut rng, &w, &prefixes, &owners);
            let warm = engine.query_budgeted(&q, &budget);
            prop_assert!(
                base_routes(&engine) == base,
                "{flavor:?} seed {seed} query {i} changed the base: {q:?}"
            );
            let fresh = self::engine(&w, &prefixes, flavor).query_budgeted(&q, &budget);
            prop_assert_eq!(warm, fresh, "{:?} seed {} query {}: {:?}", flavor, seed, i, q);
        }
    }
}

#[test]
fn concurrent_callers_on_one_prefix_match_sequential_answers() {
    for (flavor, seed) in [(Flavor::WaveExact, 3), (Flavor::CertifiedFree, 4)] {
        let w = world(flavor, seed);
        let owners = prefix_owners(&w);
        let prefixes = resident(&w);
        let engine = engine(&w, &prefixes, flavor);
        let prefix = prefixes[0];
        let mut rng = Rng::new(seed);
        let queries: Vec<(WhatIfQuery, StepBudget)> = (0..16)
            .map(|_| {
                let (mut q, budget) = random_query(&mut rng, &w, &prefixes, &owners);
                if q.prefix != "198.51.100.0/24".parse().expect("literal prefix") {
                    q.prefix = prefix;
                }
                (q, budget)
            })
            .collect();
        let sequential: Vec<_> = queries
            .iter()
            .map(|(q, b)| engine.query_budgeted(q, b))
            .collect();
        let base = base_routes(&engine);
        for round in 0..4 {
            let start = Barrier::new(2);
            let answers: Vec<Vec<_>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|t| {
                        let (engine, queries, start) = (&engine, &queries, &start);
                        s.spawn(move || {
                            start.wait();
                            // The second caller walks the list backwards so the
                            // two meet on different queries of one shape.
                            let order: Vec<usize> = if t == 0 {
                                (0..queries.len()).collect()
                            } else {
                                (0..queries.len()).rev().collect()
                            };
                            let mut got = vec![None; queries.len()];
                            for i in order {
                                let (q, b) = &queries[i];
                                got[i] = Some(engine.query_budgeted(q, b));
                            }
                            got
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .expect("caller thread panicked")
                            .into_iter()
                            .map(|a| a.expect("every query answered"))
                            .collect()
                    })
                    .collect()
            });
            for got in &answers {
                assert_eq!(got, &sequential, "{flavor:?} round {round}");
            }
            assert!(base_routes(&engine) == base, "{flavor:?} round {round}");
        }
    }
}

/// A defense extension that accepts everything until its fuse is lit, then
/// panics on the fuse's last import check.
struct Tripwire {
    fuse: AtomicUsize,
}

impl PolicyExtension for Tripwire {
    fn name(&self) -> &'static str {
        "tripwire"
    }

    fn accept_import(&self, _check: &ExtensionCheck<'_>) -> bool {
        if self.fuse.load(Ordering::Relaxed) > 0 && self.fuse.fetch_sub(1, Ordering::Relaxed) == 1 {
            panic!("tripwire: injected panic mid-reconvergence");
        }
        true
    }
}

#[test]
fn a_panic_mid_reconvergence_leaves_the_base_usable() {
    let w = world(Flavor::WaveExact, 5);
    let owners = prefix_owners(&w);
    let prefixes = resident(&w);
    let tripwire = Arc::new(Tripwire {
        fuse: AtomicUsize::new(0),
    });
    let mut plan = DefensePlan::for_world(&w);
    let id = plan
        .register(Arc::clone(&tripwire) as Arc<dyn PolicyExtension>)
        .expect("one extension fits");
    plan.adopt_all(id);
    let engine = WhatIfEngine::with_order_defended(
        &w,
        &prefixes,
        ActivationOrder::WaveExact,
        Some(Arc::new(plan)),
    );
    // An accept-all defense routes exactly like no defense.
    let plain = WhatIfEngine::new(&w, &prefixes);
    let base = base_routes(&engine);
    assert!(base == base_routes(&plain));

    let prefix = prefixes[0];
    let origin = owners[&prefix];
    let victim = w
        .graph
        .asn(w.graph.links(w.graph.index_of(origin).unwrap())[0].peer);
    // A poisoned re-announcement re-imports across the whole graph, so the
    // fuse burns out part-way through the reconvergence.
    let q = WhatIfQuery::single(
        prefix,
        Delta::Announce(Announcement {
            origin,
            prefix,
            via: None,
            poison: vec![victim],
        }),
    );
    for fuse in [1, 7, 40] {
        tripwire.fuse.store(fuse, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| engine.query(&q)));
        assert!(outcome.is_err(), "fuse {fuse}: the extension must panic");
        assert_eq!(tripwire.fuse.load(Ordering::Relaxed), 0);
        assert!(base_routes(&engine) == base, "fuse {fuse}: base changed");
        // The next query answers normally, like an engine that never saw
        // the panic.
        let again = engine.query(&q).expect("resident prefix");
        assert_eq!(
            again,
            plain.query(&q).expect("resident prefix"),
            "fuse {fuse}"
        );
        assert!(base_routes(&engine) == base, "fuse {fuse}: base changed");
    }
}

/// A defense extension that accepts everything; once armed, its first
/// import check meets the test thread at `entered` and then blocks at
/// `release` until the test lets it go.
struct Gate {
    armed: AtomicBool,
    entered: Barrier,
    release: Barrier,
}

impl PolicyExtension for Gate {
    fn name(&self) -> &'static str {
        "gate"
    }

    fn accept_import(&self, _check: &ExtensionCheck<'_>) -> bool {
        if self.armed.swap(false, Ordering::SeqCst) {
            self.entered.wait();
            self.release.wait();
        }
        true
    }
}

#[test]
fn a_query_that_waits_for_its_shape_is_counted() {
    let w = world(Flavor::WaveExact, 5);
    let owners = prefix_owners(&w);
    let prefixes = resident(&w);
    let gate = Arc::new(Gate {
        armed: AtomicBool::new(false),
        entered: Barrier::new(2),
        release: Barrier::new(2),
    });
    let mut plan = DefensePlan::for_world(&w);
    let id = plan
        .register(Arc::clone(&gate) as Arc<dyn PolicyExtension>)
        .expect("one extension fits");
    plan.adopt_all(id);
    let engine = WhatIfEngine::with_order_defended(
        &w,
        &prefixes,
        ActivationOrder::WaveExact,
        Some(Arc::new(plan)),
    );
    let base = base_routes(&engine);

    let prefix = prefixes[0];
    let origin = owners[&prefix];
    let victim = w
        .graph
        .asn(w.graph.links(w.graph.index_of(origin).unwrap())[0].peer);
    let q = WhatIfQuery::single(
        prefix,
        Delta::Announce(Announcement {
            origin,
            prefix,
            via: None,
            poison: vec![victim],
        }),
    );
    // One caller at a time never waits.
    let sequential = engine.query(&q).expect("resident prefix");
    for _ in 0..3 {
        assert_eq!(engine.query(&q).expect("resident prefix"), sequential);
    }
    assert_eq!(engine.shape_waits().queries, 0);
    assert_eq!(engine.shape_waits().total_us, 0);

    gate.armed.store(true, Ordering::SeqCst);
    let b_ready = Barrier::new(2);
    let (a, b) = std::thread::scope(|s| {
        let (engine, q) = (&engine, &q);
        // Caller A parks inside the gate, holding the shape.
        let a = s.spawn(move || engine.query(q));
        gate.entered.wait();
        let b_ready = &b_ready;
        let b = s.spawn(move || {
            b_ready.wait();
            engine.query(q)
        });
        // Release A only once B is about to ask, and then some.
        b_ready.wait();
        std::thread::sleep(Duration::from_millis(250));
        gate.release.wait();
        (
            a.join().expect("caller A panicked"),
            b.join().expect("caller B panicked"),
        )
    });
    let (a, b) = (a.expect("resident prefix"), b.expect("resident prefix"));
    assert_eq!(a, sequential);
    assert_eq!(b, a);
    let waits = engine.shape_waits();
    assert_eq!(waits.queries, 1, "{waits:?}");
    assert!(waits.total_us > 0, "{waits:?}");
    assert!(base_routes(&engine) == base, "base changed");
}
