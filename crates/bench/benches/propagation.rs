//! Propagation-engine head-to-head: the event-driven worklist engine
//! (`PrefixSim`) against the legacy full-sweep oracle (`SweepSim`), on the
//! four shapes every campaign exercises — initial announce-to-fixpoint,
//! incremental poisoned re-announce (the §3.2/§4.4 poisoning-loop shape),
//! announce-then-withdraw from scratch, and the incremental
//! withdraw/re-announce cascade on a warm table.
//!
//! Besides the criterion groups, the run writes `BENCH_propagation.json`
//! at the repo root with direct wall-clock numbers and the event/sweep
//! speedup per case, plus per-case activation/import work counters and
//! the whole-universe batched-vs-per-prefix comparison (shape groups
//! computed, prefixes shared by fan-out), so perf claims are recorded
//! alongside the code.
//!
//! The counters exist to keep the speedup column honest. In particular
//! `withdraw_cascade` compresses to ~1.3–1.5×, and that is *near work
//! parity, not a regression*: on a warm table a withdraw revokes the
//! route at every AS that holds one — all of them — and the re-announce
//! re-installs at all of them, so the event worklist's selectivity has
//! little to skip; both engines do Θ(n·deg) selections per cycle. The
//! counters show it directly — event activations are ~0.55× the sweep's
//! on this case, versus ~0.25–0.3× on the cases where perturbations are
//! local (`reannounce_poison`) or the sweep pays extra settle rounds
//! (`announce`), which is where the 3–5× wins come from.

use criterion::{criterion_group, criterion_main, Criterion};
use ir_bgp::universe::prefix_owners;
use ir_bgp::{ActivationOrder, Announcement, PrefixSim, RoutingUniverse, SimContext, SweepSim};
use ir_fault::FaultPlane;
use ir_topology::{GeneratorConfig, World};
use ir_types::{Asn, Prefix, Timestamp};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Inter-event gap comfortably above the route-age granularity.
const ROUND: u64 = 2 * 90 * 60;

fn world() -> &'static World {
    static W: OnceLock<World> = OnceLock::new();
    W.get_or_init(|| GeneratorConfig::default().build(7))
}

/// The announced origin: a stub AS, as in the measurement campaigns.
fn origin_prefix() -> (Asn, Prefix) {
    let stub = world()
        .graph
        .nodes()
        .iter()
        .find(|n| n.asn.value() >= 20_000)
        .expect("default world has stubs");
    (stub.asn, stub.prefixes[0])
}

/// First transit hop of some converged multi-hop route — the poison target
/// a §4.4 campaign would pick to force an alternate.
fn poison_target(sim: &PrefixSim<'_>) -> Asn {
    (0..world().graph.len())
        .find_map(|x| {
            let hops = sim.best(x)?.path.sequence_asns();
            if hops.len() >= 2 {
                Some(hops[0])
            } else {
                None
            }
        })
        .expect("some multi-hop route exists")
}

/// One poisoning-loop cycle: poisoned re-announce, then restore.
fn reannounce_cycle(
    announce: &mut dyn FnMut(Announcement, Timestamp),
    origin: Asn,
    prefix: Prefix,
    poison: Asn,
    t: &mut u64,
) {
    *t += ROUND;
    let mut ann = Announcement::plain(origin, prefix);
    ann.poison = vec![poison];
    announce(ann, Timestamp(*t));
    *t += ROUND;
    announce(Announcement::plain(origin, prefix), Timestamp(*t));
}

fn bench_engines(c: &mut Criterion) {
    let w = world();
    let (origin, prefix) = origin_prefix();
    let ctx = SimContext::shared(w);

    let mut g = c.benchmark_group("propagation/announce");
    g.sample_size(25);
    g.bench_function("event", |b| {
        b.iter(|| {
            let mut sim = PrefixSim::with_context(ctx.clone(), prefix);
            sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
            black_box(sim.stats())
        })
    });
    g.bench_function("sweep", |b| {
        b.iter(|| {
            let mut sim = SweepSim::with_context(ctx.clone(), prefix);
            sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
            black_box(sim.stats())
        })
    });
    g.finish();

    let mut g = c.benchmark_group("propagation/reannounce_poison");
    g.sample_size(25);
    g.bench_function("event", |b| {
        let mut sim = PrefixSim::with_context(ctx.clone(), prefix);
        sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        let poison = poison_target(&sim);
        let mut t = 0u64;
        b.iter(|| {
            reannounce_cycle(
                &mut |ann, at| {
                    sim.announce(ann, at);
                },
                origin,
                prefix,
                poison,
                &mut t,
            );
            black_box(sim.clock())
        })
    });
    g.bench_function("sweep", |b| {
        let probe = {
            let mut s = PrefixSim::with_context(ctx.clone(), prefix);
            s.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
            poison_target(&s)
        };
        let mut sim = SweepSim::with_context(ctx.clone(), prefix);
        sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        let mut t = 0u64;
        b.iter(|| {
            reannounce_cycle(
                &mut |ann, at| {
                    sim.announce(ann, at);
                },
                origin,
                prefix,
                probe,
                &mut t,
            );
            black_box(sim.clock())
        })
    });
    g.finish();

    let mut g = c.benchmark_group("propagation/withdraw");
    g.sample_size(25);
    g.bench_function("event", |b| {
        let mut t = 0u64;
        b.iter(|| {
            let mut sim = PrefixSim::with_context(ctx.clone(), prefix);
            sim.announce(Announcement::plain(origin, prefix), Timestamp(t));
            t += ROUND;
            sim.withdraw(Timestamp(t));
            t += ROUND;
            black_box(sim.stats())
        })
    });
    g.bench_function("sweep", |b| {
        let mut t = 0u64;
        b.iter(|| {
            let mut sim = SweepSim::with_context(ctx.clone(), prefix);
            sim.announce(Announcement::plain(origin, prefix), Timestamp(t));
            t += ROUND;
            sim.withdraw(Timestamp(t));
            t += ROUND;
            black_box(sim.stats())
        })
    });
    g.finish();

    // Incremental withdraw/re-announce cascade on a warm table: the
    // torture-suite shape, and the one the bucketed worklist exists for.
    let mut g = c.benchmark_group("propagation/withdraw_cascade");
    g.sample_size(25);
    g.bench_function("event", |b| {
        let mut sim = PrefixSim::with_context(ctx.clone(), prefix);
        sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        let mut t = 0u64;
        b.iter(|| {
            t += ROUND;
            sim.withdraw(Timestamp(t));
            t += ROUND;
            sim.announce(Announcement::plain(origin, prefix), Timestamp(t));
            black_box(sim.clock())
        })
    });
    g.bench_function("sweep", |b| {
        let mut sim = SweepSim::with_context(ctx.clone(), prefix);
        sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        let mut t = 0u64;
        b.iter(|| {
            t += ROUND;
            sim.withdraw(Timestamp(t));
            t += ROUND;
            sim.announce(Announcement::plain(origin, prefix), Timestamp(t));
            black_box(sim.clock())
        })
    });
    g.finish();
}

/// Directly timed head-to-head, recorded as JSON. `iters` full repetitions
/// per case; mean nanoseconds reported.
fn timed<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    // One warm-up.
    f();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn write_json(c: &mut Criterion) {
    let w = world();
    let (origin, prefix) = origin_prefix();
    let ctx = SimContext::shared(w);
    let iters: u32 = std::env::var("IR_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);

    let announce_event = timed(iters, || {
        let mut sim = PrefixSim::with_context(ctx.clone(), prefix);
        sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        black_box(sim.stats());
    });
    let announce_sweep = timed(iters, || {
        let mut sim = SweepSim::with_context(ctx.clone(), prefix);
        sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        black_box(sim.stats());
    });

    let poison = {
        let mut s = PrefixSim::with_context(ctx.clone(), prefix);
        s.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        poison_target(&s)
    };
    let reannounce_event = {
        let mut sim = PrefixSim::with_context(ctx.clone(), prefix);
        sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        let mut t = 0u64;
        timed(iters, || {
            reannounce_cycle(
                &mut |ann, at| {
                    sim.announce(ann, at);
                },
                origin,
                prefix,
                poison,
                &mut t,
            );
        })
    };
    let reannounce_sweep = {
        let mut sim = SweepSim::with_context(ctx.clone(), prefix);
        sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        let mut t = 0u64;
        timed(iters, || {
            reannounce_cycle(
                &mut |ann, at| {
                    sim.announce(ann, at);
                },
                origin,
                prefix,
                poison,
                &mut t,
            );
        })
    };

    let withdraw_event = {
        let mut t = 0u64;
        timed(iters, || {
            let mut sim = PrefixSim::with_context(ctx.clone(), prefix);
            sim.announce(Announcement::plain(origin, prefix), Timestamp(t));
            t += ROUND;
            sim.withdraw(Timestamp(t));
            t += ROUND;
        })
    };
    let withdraw_sweep = {
        let mut t = 0u64;
        timed(iters, || {
            let mut sim = SweepSim::with_context(ctx.clone(), prefix);
            sim.announce(Announcement::plain(origin, prefix), Timestamp(t));
            t += ROUND;
            sim.withdraw(Timestamp(t));
            t += ROUND;
        })
    };

    let cascade_event = {
        let mut sim = PrefixSim::with_context(ctx.clone(), prefix);
        sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        let mut t = 0u64;
        timed(iters, || {
            t += ROUND;
            sim.withdraw(Timestamp(t));
            t += ROUND;
            sim.announce(Announcement::plain(origin, prefix), Timestamp(t));
        })
    };
    let cascade_sweep = {
        let mut sim = SweepSim::with_context(ctx.clone(), prefix);
        sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        let mut t = 0u64;
        timed(iters, || {
            t += ROUND;
            sim.withdraw(Timestamp(t));
            t += ROUND;
            sim.announce(Announcement::plain(origin, prefix), Timestamp(t));
        })
    };

    // Work counters for one representative execution of each case. These
    // travel with the timings so the speedup column is explainable from
    // the JSON alone: a case where event activations approach sweep
    // activations (the warm-table cascade) cannot beat the sweep by
    // much, while a case that activates a small fraction of the nodes
    // should win big.
    type Counts = (usize, usize, usize, usize);
    let delta = |before: ir_bgp::EngineStats, after: ir_bgp::EngineStats| {
        (
            after.activations - before.activations,
            after.imports - before.imports,
        )
    };
    let announce_counts: Counts = {
        let mut e = PrefixSim::with_context(ctx.clone(), prefix);
        e.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        let mut s = SweepSim::with_context(ctx.clone(), prefix);
        s.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        let (es, ss) = (e.stats(), s.stats());
        (es.activations, es.imports, ss.activations, ss.imports)
    };
    let reannounce_counts: Counts = {
        let mut e = PrefixSim::with_context(ctx.clone(), prefix);
        e.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        let before = e.stats();
        let mut t = 0u64;
        reannounce_cycle(
            &mut |a, at| {
                e.announce(a, at);
            },
            origin,
            prefix,
            poison,
            &mut t,
        );
        let (ea, ei) = delta(before, e.stats());
        let mut s = SweepSim::with_context(ctx.clone(), prefix);
        s.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        let before = s.stats();
        let mut t = 0u64;
        reannounce_cycle(
            &mut |a, at| {
                s.announce(a, at);
            },
            origin,
            prefix,
            poison,
            &mut t,
        );
        let (sa, si) = delta(before, s.stats());
        (ea, ei, sa, si)
    };
    let withdraw_counts: Counts = {
        let mut e = PrefixSim::with_context(ctx.clone(), prefix);
        e.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        e.withdraw(Timestamp(ROUND));
        let mut s = SweepSim::with_context(ctx.clone(), prefix);
        s.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        s.withdraw(Timestamp(ROUND));
        let (es, ss) = (e.stats(), s.stats());
        (es.activations, es.imports, ss.activations, ss.imports)
    };
    let cascade_counts: Counts = {
        let mut e = PrefixSim::with_context(ctx.clone(), prefix);
        e.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        let before = e.stats();
        e.withdraw(Timestamp(ROUND));
        e.announce(Announcement::plain(origin, prefix), Timestamp(2 * ROUND));
        let (ea, ei) = delta(before, e.stats());
        let mut s = SweepSim::with_context(ctx.clone(), prefix);
        s.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        let before = s.stats();
        s.withdraw(Timestamp(ROUND));
        s.announce(Announcement::plain(origin, prefix), Timestamp(2 * ROUND));
        let (sa, si) = delta(before, s.stats());
        (ea, ei, sa, si)
    };

    // Whole-universe convergence: shape-batched vs per-prefix, same result
    // byte for byte. Records how much announcement work fan-out saved.
    let prefixes: Vec<Prefix> = prefix_owners(w).keys().copied().collect();
    let universe_iters = iters.div_ceil(5).max(2);
    let batched_ns = timed(universe_iters, || {
        black_box(RoutingUniverse::compute(w, &prefixes));
    });
    let per_prefix_ns = timed(universe_iters, || {
        black_box(RoutingUniverse::compute_per_prefix(
            w,
            &prefixes,
            &FaultPlane::quiet(),
            ActivationOrder::default(),
        ));
    });
    let ustats = RoutingUniverse::compute(w, &prefixes).engine_stats();

    let case = |name: &str, event: f64, sweep: f64, counts: Counts| {
        let (ea, ei, sa, si) = counts;
        format!(
            "    \"{name}\": {{\n      \"event_ns\": {event:.0},\n      \
             \"sweep_ns\": {sweep:.0},\n      \"speedup\": {:.2},\n      \
             \"event_activations\": {ea},\n      \"event_imports\": {ei},\n      \
             \"sweep_activations\": {sa},\n      \"sweep_imports\": {si}\n    }}",
            sweep / event
        )
    };
    let json = format!(
        "{{\n  \"world\": {{ \"ases\": {}, \"links\": {}, \"seed\": 7 }},\n  \
         \"iters\": {iters},\n  \"cases\": {{\n{},\n{},\n{},\n{}\n  }},\n  \
         \"universe\": {{\n    \"prefixes\": {},\n    \"shapes_computed\": {},\n    \
         \"prefixes_shared\": {},\n    \"batched_ns\": {batched_ns:.0},\n    \
         \"per_prefix_ns\": {per_prefix_ns:.0},\n    \"speedup\": {:.2}\n  }}\n}}\n",
        w.graph.len(),
        w.graph.link_count(),
        case("announce", announce_event, announce_sweep, announce_counts),
        case(
            "reannounce_poison",
            reannounce_event,
            reannounce_sweep,
            reannounce_counts
        ),
        case("withdraw", withdraw_event, withdraw_sweep, withdraw_counts),
        case(
            "withdraw_cascade",
            cascade_event,
            cascade_sweep,
            cascade_counts
        ),
        prefixes.len(),
        ustats.shapes_computed,
        ustats.prefixes_shared,
        per_prefix_ns / batched_ns,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_propagation.json");
    std::fs::write(path, &json).expect("write BENCH_propagation.json");
    println!("wrote {path}:\n{json}");
    let _ = c;
}

criterion_group!(propagation, bench_engines, write_json);
criterion_main!(propagation);
