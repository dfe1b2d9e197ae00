//! `whatif_edge` and `whatif_wide`: the resident engine driven as a
//! library, closed loop, two caller threads.
//!
//! Both workloads share the engine, the loop and the set-up; only the edit
//! stream differs. Edge edits touch a couple of ASes, so the fork and the
//! full diff scan are the whole cost — the place an O(touched) fork must
//! show. Wide edits reconverge and rewrite thousands of routes, so the
//! same fork/diff layer is used the other way: a fork structure that taxes
//! reads or writes shows its cost here.

use crate::serving::{put_setup_layers, timed_setups, Base, SETUP_REPEATS};
use crate::stats::{median, Latencies};
use crate::stream::{Mix, Request, Stream};
use crate::trace::Tracer;
use crate::{Outcome, Run, CLIENT_THREADS, MIB, WARMUP_SECONDS};
use ir_audit::DeltaAuditor;
use ir_bgp::whatif::{CertificateDelta, WhatIfAnswer};
use ir_bgp::{
    ActivationOrder, Announcement, PrefixSim, RoutingUniverse, SimContext, StepBudget,
    WhatIfEngine, WhatIfQuery,
};
use ir_types::Timestamp;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Every 100th measured query (1 %) is kept for the cold oracle, up to
/// this many per thread — a cold answer costs about twenty warm ones.
const ORACLE_EVERY: usize = 100;
const ORACLE_PER_THREAD: usize = 16;

/// Queries of the fixed-size pass behind the exact per-query counts, and
/// how many of them apart the ones re-answered cold are.
const COUNTED_QUERIES: usize = 256;
const ORACLE_STRIDE: usize = 10;

/// A query the closed loop kept for the oracle.
struct Kept {
    request: Request,
    answer: WhatIfAnswer,
}

/// One caller's measured window.
#[derive(Default)]
struct LoopResult {
    /// Per query, in issue order: seconds into the window at which the
    /// answer arrived, latency in µs, and whether the answer was good.
    queries: Vec<(f64, f64, bool)>,
    kept: Vec<Kept>,
}

/// The measured window is cut into this many equal slices; throughput and
/// the latency percentiles are taken per slice (both callers together) and
/// the median slice is reported. A burst of interference from the host
/// then spoils a slice or two instead of shifting the run's numbers.
const SLICES: usize = 10;

/// Good answers and all latencies of one slice of the window.
struct Slice {
    answered: usize,
    latencies: Latencies,
}

fn slices(results: &[LoopResult], seconds: f64) -> Vec<Slice> {
    let slice_s = seconds / SLICES as f64;
    let mut slices = vec![(0, Vec::new()); SLICES];
    for &(at, latency_us, ok) in results.iter().flat_map(|r| &r.queries) {
        // The one query per caller that straddles the deadline is left out.
        if let Some((answered, latencies)) = slices.get_mut((at / slice_s) as usize) {
            *answered += usize::from(ok);
            latencies.push(latency_us);
        }
    }
    slices
        .into_iter()
        .map(|(answered, latencies)| Slice {
            answered,
            latencies: Latencies::new(latencies),
        })
        .collect()
}

/// Good answers per second over the whole window, all callers.
fn throughput(results: &[LoopResult], seconds: f64) -> f64 {
    let answered = results
        .iter()
        .flat_map(|r| &r.queries)
        .filter(|&&(at, _, ok)| ok && at < seconds)
        .count();
    answered as f64 / seconds
}

fn answered_ok(answer: &WhatIfAnswer) -> bool {
    answer.stats.converged && !answer.stats.deadline_aborted
}

/// One caller's closed loop: warm up, then issue the next query as soon as
/// the previous answer is back, until `seconds` have passed.
fn caller(
    engine: &WhatIfEngine<'_>,
    mut stream: Stream<'_>,
    start: &Barrier,
    warmup: f64,
    seconds: f64,
) -> LoopResult {
    let mut result = LoopResult::default();
    start.wait();
    let warm_until = Instant::now() + Duration::from_secs_f64(warmup);
    while Instant::now() < warm_until {
        let query = stream.next().and_then(|r| r.query()).expect("edit request");
        black_box(engine.query(&query).ok());
    }
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    loop {
        let request = stream.next().expect("streams are endless");
        let query = request.query().expect("edit request");
        let sent = Instant::now();
        let answer = engine.query(&query);
        let done = Instant::now();
        let ok = answer.as_ref().is_ok_and(answered_ok);
        result.queries.push((
            (done - t0).as_secs_f64(),
            (done - sent).as_secs_f64() * 1e6,
            ok,
        ));
        if let (true, Ok(answer)) = (ok, answer) {
            let nth = result.queries.len();
            if nth % ORACLE_EVERY == 1 && result.kept.len() < ORACLE_PER_THREAD {
                result.kept.push(Kept { request, answer });
            }
        }
        if done >= deadline {
            return result;
        }
    }
}

fn closed_loop(
    engine: &WhatIfEngine<'_>,
    base: &Base,
    mix: Mix,
    seed: u64,
    threads: usize,
    warmup: f64,
    seconds: f64,
) -> Vec<LoopResult> {
    let start = Barrier::new(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|thread| {
                let stream = Stream::new(&base.world, &base.prefixes, mix, seed, thread, threads);
                let start = &start;
                scope.spawn(move || caller(engine, stream, start, warmup, seconds))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    })
}

/// Answers `request` cold: converge the prefix from scratch, then apply
/// the edits at the stamps the engine uses. The scheduling discipline
/// mirrors what the warm fork ran under (free order only with a preserved
/// certificate).
fn cold_answer<'w>(
    ctx: &Arc<SimContext<'w>>,
    base: &Base,
    request: &Request,
    certificate: Option<&CertificateDelta>,
) -> PrefixSim<'w> {
    let free = matches!(certificate, Some(CertificateDelta::Preserved));
    let order = if free {
        ActivationOrder::Free
    } else {
        ActivationOrder::WaveExact
    };
    let origin = base
        .prefixes
        .iter()
        .find(|&&(p, _)| p == request.prefix)
        .map(|&(_, x)| base.world.graph.asn(x))
        .expect("request prefix is resident");
    let mut sim = PrefixSim::with_context_ordered(ctx.fork(), request.prefix, order);
    sim.announce(Announcement::plain(origin, request.prefix), Timestamp::ZERO);
    if free {
        sim.grant_certificate_token();
    }
    let query = request.query().expect("edit request");
    for (i, delta) in query.deltas.iter().enumerate() {
        sim.apply_delta(delta, Timestamp(60 * (i as u64 + 1)));
    }
    sim
}

/// Whether the warm answer (base routes + diffs) equals the cold sim
/// route for route, at every AS.
fn warm_equals_cold(
    engine: &WhatIfEngine<'_>,
    base: &Base,
    request: &Request,
    answer: &WhatIfAnswer,
    cold: &PrefixSim<'_>,
) -> bool {
    let g = &base.world.graph;
    let mut diffs = answer.diffs.iter().peekable();
    (0..g.len()).all(|x| {
        let warm = match diffs.peek() {
            Some(d) if d.asn == g.asn(x) => diffs.next().and_then(|d| d.after.clone()),
            _ => engine.base_route(request.prefix, x),
        };
        warm == cold.best(x)
    }) && diffs.next().is_none()
}

pub fn run(run: &Run, mix: Mix, t: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    out.param("world_ases", crate::serving::WORLD_ASES);
    out.param("resident_prefixes", crate::serving::RESIDENT_PREFIXES);
    out.param("warmup_s", WARMUP_SECONDS);
    let repeats = if run.traced { 1 } else { SETUP_REPEATS };
    let (base, setup_s) = timed_setups(run.seed, repeats, t)?;
    out.put_n("setup_s", setup_s, repeats);
    let engine = base.engine(&mut Tracer::new(false, Instant::now()))?;
    if run.traced {
        layers(run, mix, &base, &engine, t, out)
    } else {
        measure(run, mix, &base, &engine, out);
        Ok(())
    }
}

/// The untraced run: the two-caller closed loop, then the cold oracle on
/// the queries it kept.
fn measure(run: &Run, mix: Mix, base: &Base, engine: &WhatIfEngine<'_>, out: &mut Outcome) {
    let results = closed_loop(
        engine,
        base,
        mix,
        run.seed,
        CLIENT_THREADS,
        WARMUP_SECONDS,
        run.seconds,
    );
    let issued = results.iter().map(|r| r.queries.len()).sum::<usize>();
    let failed = results
        .iter()
        .flat_map(|r| &r.queries)
        .filter(|q| !q.2)
        .count();
    out.operations(issued as u64, failed as u64);
    let slices = slices(&results, run.seconds);
    let slice_s = run.seconds / SLICES as f64;
    let median_slice =
        |f: &dyn Fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    out.put_n(
        "qps",
        median_slice(&|s| s.answered as f64 / slice_s),
        issued,
    );
    out.put_n("p50_us", median_slice(&|s| s.latencies.at(50.0)), issued);
    out.put_n("p95_us", median_slice(&|s| s.latencies.at(95.0)), issued);
    let ctx = SimContext::shared(&base.world);
    for kept in results.iter().flat_map(|r| &r.kept) {
        let cold = cold_answer(&ctx, base, &kept.request, kept.answer.certificate.as_ref());
        out.check(
            warm_equals_cold(engine, base, &kept.request, &kept.answer, &cold),
            || format!("warm answer differs from cold for {:?}", kept.request),
        );
    }
}

/// The traced run: the engine's layers one at a time, single caller.
fn layers(
    run: &Run,
    mix: Mix,
    base: &Base,
    engine: &WhatIfEngine<'_>,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    put_setup_layers(base, t, out);
    let caller0 = || {
        Stream::new(
            &base.world,
            &base.prefixes,
            mix,
            run.seed,
            0,
            CLIENT_THREADS,
        )
    };

    // Exact per-query counts: a fixed-size prefix of caller 0's stream, so
    // the numbers repeat bit for bit for a seed however fast the box is.
    let auditor = DeltaAuditor::with_report(&base.world, base.report.clone());
    let counted: Vec<Request> = caller0().take(COUNTED_QUERIES).collect();
    let (mut activations, mut seeded, mut changed, mut retained, mut preserved) = (0, 0, 0, 0, 0);
    // Every tenth answer is kept for the cold oracle below (all of them
    // would be a gigabyte of materialized routes on the wide stream).
    let mut kept = Vec::new();
    for (i, request) in counted.iter().enumerate() {
        let query = request.query().expect("edit request");
        let answer = engine.query(&query).map_err(|e| e.to_string())?;
        out.check(answered_ok(&answer), || {
            format!("query did not converge: {request:?}")
        });
        activations += answer.stats.activations;
        seeded += answer.stats.ases_seeded;
        changed += answer.stats.routes_changed;
        retained += answer.stats.routes_retained;
        preserved += usize::from(auditor.audit_deltas(&query.deltas).preserved());
        if i % ORACLE_STRIDE == 0 {
            kept.push((request, answer));
        }
    }
    let q = counted.len() as f64;
    out.put_n(
        "bgp.whatif.activations_per_q",
        activations as f64 / q,
        counted.len(),
    );
    out.put_n(
        "bgp.whatif.ases_seeded_per_q",
        seeded as f64 / q,
        counted.len(),
    );
    out.put_n(
        "bgp.whatif.routes_changed_per_q",
        changed as f64 / q,
        counted.len(),
    );
    out.put(
        "bgp.whatif.changed_share",
        changed as f64 / (changed + retained).max(1) as f64,
    );
    out.put(
        "bgp.whatif.touched_share",
        activations as f64 / q / base.world.graph.len() as f64,
    );
    out.put("audit.preserved_share", preserved as f64 / q);

    // Layer by layer, single caller: the query as served, the same prefix
    // with no edits (fork + full diff scan, no reconvergence), and the
    // certifier's verdict on its own.
    let mut stream = caller0();
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds / 2.0);
    while Instant::now() < deadline {
        let request = stream.next().expect("streams are endless");
        let query = request.query().expect("edit request");
        let null = WhatIfQuery {
            prefix: request.prefix,
            deltas: Vec::new(),
        };
        let root = t.begin("whatif.request", request.id);
        let answer = t.scope("bgp.whatif.query", request.id, |_| {
            engine.query_budgeted(&query, &StepBudget::unlimited())
        });
        black_box(
            t.scope("bgp.whatif.null_query", request.id, |_| engine.query(&null))
                .ok(),
        );
        black_box(t.scope("audit.delta", request.id, |_| {
            auditor.audit_deltas(&query.deltas)
        }));
        t.end(root);
        out.operations(1, u64::from(!answer.is_ok_and(|a| answered_ok(&a))));
    }
    let query_us = t.durations_us("bgp.whatif.query");
    let null_us = median(&t.durations_us("bgp.whatif.null_query"));
    let audit_us = median(&t.durations_us("audit.delta"));
    out.put_n("bgp.whatif.query_us", median(&query_us), query_us.len());
    out.put_n("bgp.whatif.null_query_us", null_us, query_us.len());
    out.put_n("audit.delta_us", audit_us, query_us.len());
    out.put(
        "bgp.whatif.reconverge_us",
        median(&query_us) - null_us - audit_us,
    );

    // Two callers against one: how far the second core helps when both
    // forks compete for memory bandwidth.
    let pass = (run.seconds * 0.15).max(1.0);
    let one = throughput(
        &closed_loop(engine, base, mix, run.seed, 1, 0.0, pass),
        pass,
    );
    let two = throughput(
        &closed_loop(engine, base, mix, run.seed, 2, 0.0, pass),
        pass,
    );
    out.put("bgp.whatif.scaling_2t", two / one);

    let encode = t.begin("bgp.universe.snapshot_encode", 0);
    let bytes = base
        .universe
        .to_snapshot_bytes()
        .map_err(|e| e.to_string())?;
    t.end(encode);
    let decoded = t.scope("bgp.universe.snapshot_decode", 0, |_| {
        RoutingUniverse::from_snapshot_bytes(&bytes)
    });
    out.check(
        decoded.is_ok_and(|u| u.prefixes().eq(base.universe.prefixes())),
        || "snapshot does not decode back to the same prefixes".into(),
    );
    out.put(
        "bgp.universe.snapshot_encode_ms",
        t.total_ms("bgp.universe.snapshot_encode"),
    );
    out.put(
        "bgp.universe.snapshot_decode_ms",
        t.total_ms("bgp.universe.snapshot_decode"),
    );
    out.put("bgp.universe.snapshot_mb", bytes.len() as f64 / MIB);

    let ctx = SimContext::shared(&base.world);
    // Cold against warm on the kept queries: the oracle, and the price of
    // answering without the resident engine.
    for (request, answer) in &kept {
        let cold = t.scope("bgp.sim.cold_query", request.id, |_| {
            cold_answer(&ctx, base, request, answer.certificate.as_ref())
        });
        out.check(
            warm_equals_cold(engine, base, request, answer, &cold),
            || format!("warm answer differs from cold for {request:?}"),
        );
        let query = request.query().expect("edit request");
        black_box(
            t.scope("bgp.whatif.warm_query", request.id, |_| {
                engine.query(&query)
            })
            .ok(),
        );
    }
    let cold_us = median(&t.durations_us("bgp.sim.cold_query"));
    out.put_n(
        "bgp.sim.cold_query_us",
        cold_us,
        t.durations_us("bgp.sim.cold_query").len(),
    );
    out.put(
        "bgp.whatif.warm_speedup",
        cold_us / median(&t.durations_us("bgp.whatif.warm_query")),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::resident_prefixes;
    use crate::stream::Class;
    use ir_topology::GeneratorConfig;

    /// The oracle itself, on a world small enough for a unit test: every
    /// warm answer of both edit streams equals its cold recomputation.
    #[test]
    fn warm_answers_match_the_cold_oracle_on_a_certified_world() {
        let world = GeneratorConfig::certifiably_safe().build(4);
        let report = ir_audit::audit_world(&world);
        assert!(report.certificate.certified);
        let prefixes = resident_prefixes(&world, 4);
        let list: Vec<_> = prefixes.iter().map(|&(p, _)| p).collect();
        let order = report.certificate.activation_order();
        let universe = RoutingUniverse::compute_ordered(&world, &list, order);
        let base = Base {
            world,
            report,
            prefixes,
            universe,
        };
        let engine = base
            .engine(&mut Tracer::new(false, Instant::now()))
            .expect("engine hydrates");
        let ctx = SimContext::shared(&base.world);
        for mix in [Mix::Edge, Mix::Wide] {
            for request in Stream::new(&base.world, &base.prefixes, mix, 11, 0, 2).take(40) {
                let answer = engine
                    .query(&request.query().expect("edit request"))
                    .expect("resident prefix");
                let cold = cold_answer(&ctx, &base, &request, answer.certificate.as_ref());
                assert!(
                    warm_equals_cold(&engine, &base, &request, &answer, &cold),
                    "{request:?}"
                );
            }
        }
    }

    #[test]
    fn a_wrong_answer_is_caught() {
        let world = GeneratorConfig::certifiably_safe().build(4);
        let report = ir_audit::audit_world(&world);
        let prefixes = resident_prefixes(&world, 2);
        let list: Vec<_> = prefixes.iter().map(|&(p, _)| p).collect();
        let universe =
            RoutingUniverse::compute_ordered(&world, &list, report.certificate.activation_order());
        let base = Base {
            world,
            report,
            prefixes,
            universe,
        };
        let engine = base
            .engine(&mut Tracer::new(false, Instant::now()))
            .expect("engine hydrates");
        let ctx = SimContext::shared(&base.world);
        let request = Stream::new(&base.world, &base.prefixes, Mix::Wide, 1, 0, 2)
            .find(|r| r.class == Class::Withdraw)
            .expect("a withdraw");
        let mut answer = engine
            .query(&request.query().expect("edit request"))
            .expect("resident prefix");
        let cold = cold_answer(&ctx, &base, &request, answer.certificate.as_ref());
        assert!(warm_equals_cold(&engine, &base, &request, &answer, &cold));
        answer.diffs.pop();
        assert!(!warm_equals_cold(&engine, &base, &request, &answer, &cold));
    }
}
