//! Internal diagnostic dump for scenario tuning (not part of the paper's
//! deliverables; `repro` is the user-facing binary).
//!
//! Usage: `diag [tiny|paper|internet_scale] [seed] [fault-intensity]` — a
//! nonzero third argument builds the scenario under
//! `FaultConfig::chaos(intensity)` and prints the resilience counters
//! alongside the usual dumps.
//!
//! When the universe has unconverged prefixes (paper scale, seed 7: 410 of
//! 1 212) the dump includes the oscillation witnesses of their
//! announcement shapes: period histogram, rounds executed versus
//! fast-forwarded, and how many flapping ASes `ir-audit` had flagged as
//! IR-A002 dispute-wheel candidates.
//!
//! `diag internet_scale [seed] [target-ases]` skips the measurement
//! scenario entirely (feeds and traceroutes over 50k ASes are not the
//! point) and instead reports what the compact route storage costs at
//! scale: it converges one stub prefix over the full topology, then a
//! 1000-prefix universe slice, printing the engine's `MemoryBudget` and
//! the universe's resident table bytes. Run it in release mode.
//!
//! `diag audit-delta [target-ases] [seed]` exercises incremental
//! certificate maintenance on a certified internet-scale world:
//! single-delta `DeltaAuditor` verdicts, cross-checked against a full
//! `audit_world` re-run on a sample. Run it in release.
//!
//! `diag whatif [target-ases] [seed]` exercises the incremental what-if
//! engine: converge one stub prefix, then answer a localized link edit
//! and a policy edit in place, printing the seeded and touched ASes and
//! the retention counters; then run two callers over 32 resident prefixes
//! and print how many queries waited for their shape and for how long.
//! Run it in release.
//!
//! `diag hijack [target-ases] [seed]` runs the security scenario sweep on
//! an internet-scale world: a 200-cell Monte-Carlo grid (adoption
//! fraction × attack × trial) of ROV against origin-forgery and
//! subprefix hijacks, printing per-fraction outcome rates and proving
//! same-seed determinism by rendering the sweep twice and comparing
//! bytes. Run it in release.
//!
//! Nothing here is timed: the benchmark of record (`benchmark/run.sh`)
//! measures every layer these dumps exercise.

use ir_experiments::{scenario::ScenarioConfig, Scenario};
use ir_fault::FaultConfig;

/// Re-runs one representative of every unconverged announcement shape and
/// reports the engine's cycle witnesses, cross-checked against the static
/// audit's dispute-wheel candidates.
fn oscillation_diag(s: &Scenario) {
    use ir_bgp::{Announcement, PrefixSim, SimContext};
    use ir_types::{Asn, Prefix, Timestamp};
    use std::collections::{BTreeMap, BTreeSet};

    // Shapes as the universe batches them: origin + the prefix's
    // selective-announce entry.
    let mut shapes: BTreeMap<(Asn, Option<&BTreeSet<Asn>>), Prefix> = BTreeMap::new();
    for &prefix in s.universe.unconverged() {
        let Some(origin) = s.universe.origin(prefix) else {
            continue;
        };
        let psp = s
            .world
            .policy_of(origin)
            .and_then(|p| p.selective_announce.get(&prefix));
        shapes.entry((origin, psp)).or_insert(prefix);
    }
    if shapes.is_empty() {
        return;
    }
    let ctx = SimContext::shared(&s.world);
    let mut periods: BTreeMap<usize, usize> = BTreeMap::new();
    let (mut executed, mut skipped, mut unwitnessed) = (0usize, 0usize, 0usize);
    let mut flapping: BTreeSet<Asn> = BTreeSet::new();
    for (&(origin, _), &prefix) in &shapes {
        let mut sim = PrefixSim::with_context(ctx.fork(), prefix);
        let conv = sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
        executed += conv.rounds;
        match sim.last_oscillation() {
            Some(osc) => {
                *periods.entry(osc.period).or_default() += 1;
                skipped += osc.rounds_skipped;
                flapping.extend(&osc.flapping);
            }
            None => unwitnessed += 1,
        }
    }
    let histogram: Vec<String> = periods
        .iter()
        .map(|(period, shapes)| format!("{period}: {shapes}"))
        .collect();
    println!(
        "oscillation: {} unconverged shapes | period histogram {{{}}}{} | \
         rounds executed {executed}, fast-forwarded {skipped} ({:.1}% of the cap burn skipped)",
        shapes.len(),
        histogram.join(", "),
        if unwitnessed > 0 {
            format!(" + {unwitnessed} without a witness")
        } else {
            String::new()
        },
        100.0 * skipped as f64 / (executed + skipped).max(1) as f64
    );
    let candidates: BTreeSet<Asn> = s
        .audit
        .of_rule(ir_audit::RuleId::DisputeWheelCandidate)
        .into_iter()
        .flat_map(|d| d.asns.iter().copied())
        .collect();
    let flagged = flapping.intersection(&candidates).count();
    println!(
        "  flapping ASes: {} | in an IR-A002 dispute-wheel candidate: {} ({:.0}%) | \
         candidate ASes: {}",
        flapping.len(),
        flagged,
        100.0 * flagged as f64 / flapping.len().max(1) as f64,
        candidates.len()
    );
}

fn internet_scale_diag(seed: u64, target: usize) {
    use ir_bgp::{Announcement, PrefixSim, RoutingUniverse};
    use ir_topology::GeneratorConfig;
    use ir_types::{Prefix, Timestamp};

    let world = GeneratorConfig::internet_scale_sized(target).build(seed);
    println!(
        "world: {} ASes {} links",
        world.graph.len(),
        world.graph.link_count()
    );

    // One stub prefix converged over the full topology.
    let stub = world
        .graph
        .nodes()
        .iter()
        .rev()
        .find(|n| !n.prefixes.is_empty())
        .expect("world has an origin");
    let (origin, prefix) = (stub.asn, stub.prefixes[0]);
    let mut sim = PrefixSim::new(&world, prefix);
    let conv = sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
    let mem = sim.stats().memory;
    println!(
        "single prefix {prefix} (origin {origin}): {} rounds, {} activations, {} imports{}",
        conv.rounds,
        conv.activations,
        conv.imports,
        if conv.converged {
            ""
        } else {
            "  (NOT CONVERGED)"
        }
    );
    println!(
        "  memory: {} routes resident, {:.1} B/route | arena: {} cells, {} B, \
         intern hit rate {:.0}%",
        mem.routes,
        mem.bytes_per_route(),
        mem.arena_cells,
        mem.arena_bytes,
        mem.intern_hit_rate() * 100.0
    );

    // A 1000-prefix universe slice: the shape-batched fan-out plus the
    // per-prefix shared tables, reported as retained bytes.
    let prefixes: Vec<Prefix> = world
        .graph
        .nodes()
        .iter()
        .filter_map(|n| n.prefixes.first().copied())
        .take(1000)
        .collect();
    let u = RoutingUniverse::compute(&world, &prefixes);
    let ustats = u.engine_stats();
    let resident = u.resident_bytes();
    let route_slots = prefixes.len() * world.graph.len();
    println!(
        "universe slice: {} prefixes from {} shape propagations \
         ({} shared by fan-out), {} unconverged",
        prefixes.len(),
        ustats.shapes_computed,
        ustats.prefixes_shared,
        u.unconverged().len()
    );
    println!(
        "  resident tables: {:.1} MiB for {} (prefix, AS) slots = {:.2} B/slot",
        resident as f64 / (1024.0 * 1024.0),
        route_slots,
        resident as f64 / route_slots as f64
    );
}

fn whatif_diag(target: usize, seed: u64) {
    use ir_bgp::{Delta, StepBudget, WhatIfEngine, WhatIfQuery};
    use ir_topology::GeneratorConfig;

    let world = GeneratorConfig::internet_scale_sized(target).build(seed);
    println!(
        "world: {} ASes {} links",
        world.graph.len(),
        world.graph.link_count()
    );
    let stub = world
        .graph
        .nodes()
        .iter()
        .rev()
        .find(|n| !n.prefixes.is_empty())
        .expect("world has an origin");
    let (origin, prefix) = (stub.asn, stub.prefixes[0]);
    let g = &world.graph;
    let t = (0..g.len())
        .rev()
        .find(|&x| !g.links(x).is_empty() && g.asn(x) != origin)
        .expect("world has a linked node");
    let (t_asn, t_peer) = (g.asn(t), g.asn(g.links(t)[0].peer));

    let engine = WhatIfEngine::new(&world, &[prefix]);
    println!(
        "base: {prefix} (origin {origin}) resident as {} shape(s)",
        engine.shape_count()
    );

    for (label, delta) in [
        (
            "link edit",
            Delta::LinkDown {
                a: t_asn,
                b: t_peer,
            },
        ),
        (
            "policy edit",
            Delta::NeighborPref {
                of: t_asn,
                neighbor: t_peer,
                delta: Some(-500),
            },
        ),
    ] {
        let a = engine
            .query(&WhatIfQuery::single(prefix, delta))
            .expect("prefix resident");
        println!(
            "{label} ({t_asn} ~ {t_peer}): seeded {} AS(es), touched {:.3}% of ASes \
             ({} activations) | {} routes retained, {} changed{}",
            a.stats.ases_seeded,
            a.stats.activations as f64 * 100.0 / world.graph.len() as f64,
            a.stats.activations,
            a.stats.routes_retained,
            a.stats.routes_changed,
            if a.stats.converged {
                ""
            } else {
                "  (NOT CONVERGED)"
            }
        );
    }

    // The serving plane's deadline path: a 1-activation budget must trip
    // and degrade to the base routes, never hang.
    let q = WhatIfQuery::single(prefix, Delta::Withdraw);
    let degraded = engine
        .query_budgeted(&q, &StepBudget::activations(1))
        .expect("prefix resident");
    println!(
        "degraded path (budget 1): deadline_aborted={} diffs={} (base routes reported)",
        degraded.stats.deadline_aborted,
        degraded.diffs.len()
    );

    // Same-shape waits: two callers, each drawing its prefix uniformly
    // from up to 32 resident ones (the shape of served traffic), asking
    // the link edit above. A query waits only when the other caller is on
    // its shape.
    let resident: Vec<_> = g
        .nodes()
        .iter()
        .rev()
        .filter_map(|n| n.prefixes.first().copied())
        .take(32)
        .collect();
    let engine = WhatIfEngine::new(&world, &resident);
    let per_caller = 4_000u64;
    std::thread::scope(|s| {
        for caller in 0..2u64 {
            let (engine, resident) = (&engine, &resident);
            s.spawn(move || {
                let mut x = caller + 1;
                for _ in 0..per_caller {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let p = resident[(x % resident.len() as u64) as usize];
                    let edit = Delta::LinkDown {
                        a: t_asn,
                        b: t_peer,
                    };
                    let _ = std::hint::black_box(engine.query(&WhatIfQuery::single(p, edit)));
                }
            });
        }
    });
    let waits = engine.shape_waits();
    println!(
        "two callers, {} queries over {} prefixes ({} shapes): {} waited for their shape \
         ({:.1}%), {} µs in total",
        2 * per_caller,
        resident.len(),
        engine.shape_count(),
        waits.queries,
        100.0 * waits.queries as f64 / (2 * per_caller) as f64,
        waits.total_us
    );
}

/// Security scenario sweep diagnostic: grid ROV adoption against the
/// attack ladder on an internet-scale world and prove the sweep's
/// same-seed determinism (rayon scheduling must never leak into output).
/// Run it in release.
fn hijack_diag(target: usize, seed: u64) {
    use ir_bgp::ActivationOrder;
    use ir_scenarios::{
        run_sweep, sweep_to_csv, sweep_to_json, AttackKind, DefenseKind, SweepConfig,
    };
    use ir_topology::GeneratorConfig;

    let world = GeneratorConfig::internet_scale_sized(target).build(seed);
    println!(
        "world: {} ASes {} links",
        world.graph.len(),
        world.graph.link_count()
    );

    let config = SweepConfig {
        seed,
        fractions: vec![0.0, 0.25, 0.5, 0.75, 1.0],
        trials: 20,
        attacks: vec![AttackKind::OriginForgery, AttackKind::SubprefixHijack],
        defense: DefenseKind::Rov,
        order: ActivationOrder::WaveExact,
    };
    println!(
        "sweep: {} cells ({} fractions x {} attacks x {} trials), defense {}",
        config.cells(),
        config.fractions.len(),
        config.attacks.len(),
        config.trials,
        config.defense.name()
    );

    let rows = run_sweep(&world, &config);
    let csv = sweep_to_csv(&rows);
    let json = sweep_to_json(&rows);
    println!(
        "swept {} cells | {} CSV bytes, {} JSON bytes",
        rows.len(),
        csv.len(),
        json.len()
    );

    // Same-seed determinism across two full runs: the acceptance gate for
    // the Monte-Carlo layer. Cells are planned sequentially and carry
    // their own derived generators, so rayon scheduling cannot reorder or
    // reshuffle anything observable.
    let again = sweep_to_csv(&run_sweep(&world, &config));
    assert_eq!(
        csv, again,
        "same-seed sweep runs rendered different CSV bytes"
    );
    println!("determinism: second same-seed run byte-identical");

    // Per-(attack, fraction) mean rates — the adoption curve the sweep
    // exists to draw.
    println!(
        "{:<16} {:>9} {:>12} {:>12} {:>12}",
        "attack", "adoption", "legit", "hijacked", "disconnected"
    );
    for attack in &config.attacks {
        for &f in &config.fractions {
            let cells: Vec<_> = rows
                .iter()
                .filter(|r| r.attack == attack.name() && r.adoption == f)
                .collect();
            let n = cells.len().max(1) as f64;
            let mean = |get: &dyn Fn(&ir_scenarios::SweepRow) -> f64| {
                cells.iter().map(|r| get(r)).sum::<f64>() / n
            };
            println!(
                "{:<16} {:>8.0}% {:>11.1}% {:>11.1}% {:>11.1}%",
                attack.name(),
                f * 100.0,
                mean(&|r| r.legit_rate()) * 100.0,
                mean(&|r| r.hijack_rate()) * 100.0,
                mean(&|r| r.disconnect_rate()) * 100.0
            );
        }
    }
}

/// Incremental certificate-maintenance diagnostic: on an internet-scale
/// certified world, judge single-delta edit sets with the
/// [`ir_audit::DeltaAuditor`] — the serving plane's per-query admission
/// check — and verify a sample of verdicts against a full `audit_world`
/// re-run on the edited world. Run it in release.
fn audit_delta_diag(target: usize, seed: u64) {
    use ir_audit::{audit_world, edited_world, CertificateDelta, DeltaAuditor};
    use ir_bgp::Delta;
    use ir_topology::GeneratorConfig;

    let world = GeneratorConfig::internet_scale_sized(target).build(seed);
    println!(
        "world: {} ASes {} links",
        world.graph.len(),
        world.graph.link_count()
    );

    let report = audit_world(&world);
    println!(
        "full audit: certified: {} ({} diagnostics)",
        report.certificate.certified,
        report.diagnostics.len()
    );
    if !report.certificate.certified {
        println!("world does not certify; incremental maintenance has nothing to maintain");
        return;
    }
    let auditor = DeltaAuditor::with_report(&world, report);

    // A spread of single-delta edit sets across the delta classes the
    // serving plane accepts.
    let g = &world.graph;
    let step = (g.len() / 256).max(1);
    let mut edits: Vec<Delta> = Vec::new();
    for x in (0..g.len()).step_by(step) {
        let Some(l) = g.links(x).first() else {
            continue;
        };
        let (a, b) = (g.asn(x), g.asn(l.peer));
        edits.push(match edits.len() % 4 {
            0 => Delta::LinkDown { a, b },
            1 => Delta::NeighborPref {
                of: a,
                neighbor: b,
                delta: Some(-200),
            },
            // Foreign-tier boost: revokes wherever `a` has customers.
            2 => Delta::NeighborPref {
                of: a,
                neighbor: b,
                delta: Some(500),
            },
            _ => Delta::ExportPrepend {
                of: a,
                neighbor: b,
                count: Some(3),
            },
        });
    }

    // Incremental: judge every edit set, record verdicts.
    let verdicts: Vec<CertificateDelta> = edits
        .iter()
        .map(|d| auditor.audit_deltas(std::slice::from_ref(d)))
        .collect();
    let preserved = verdicts
        .iter()
        .filter(|v| matches!(v, CertificateDelta::Preserved))
        .count();
    println!(
        "incremental: {} single-delta audits | {preserved} preserved, {} revoked",
        edits.len(),
        edits.len() - preserved
    );

    // Agreement spot-check: a subsample re-audited in full on the edited
    // world (clone + re-audit per edit — exactly the cost the incremental
    // path avoids).
    let sample = edits.len().min(32);
    let mut agree = 0usize;
    for (d, v) in edits.iter().zip(&verdicts).take(sample) {
        let full = audit_world(&edited_world(&world, std::slice::from_ref(d)));
        let truth_preserved = full.certificate.certified;
        if matches!(v, CertificateDelta::Preserved) == truth_preserved {
            agree += 1;
        }
    }
    println!("agreement: {agree}/{sample} verdicts match the full re-audit");
}

/// In-process serving-loop diagnostic: run a hostile little traffic mix
/// against a live [`ir_serve::Server`] and print the robustness counters.
fn serve_diag(seed: u64) {
    use ir_bgp::{ActivationOrder, Delta, RoutingUniverse, WhatIfEngine};
    use ir_fault::{RetryPolicy, ServiceClock};
    use ir_serve::{control_line, whatif_line, Client, ServeConfig, Server};
    use ir_types::Prefix;

    let world = ir_topology::GeneratorConfig::tiny().build(seed);
    let prefixes: Vec<Prefix> = world
        .graph
        .nodes()
        .iter()
        .filter_map(|n| n.prefixes.first().copied())
        .take(8)
        .collect();
    let universe = RoutingUniverse::compute(&world, &prefixes);
    let engine = WhatIfEngine::from_universe(&world, &universe, ActivationOrder::default())
        .expect("universe hydrates");
    println!(
        "world: {} ASes, {} resident prefixes, {} shapes",
        world.graph.len(),
        prefixes.len(),
        engine.shape_count()
    );
    let a = world.graph.nodes()[0].asn;
    let b = world.graph.nodes()[1].asn;
    let server = Server::new(ServeConfig {
        queue_cap: 8,
        workers: 2,
        breaker: RetryPolicy {
            quarantine_after: 3,
            jitter: 0,
            ..RetryPolicy::default()
        },
        clock: ServiceClock::simulated(),
        ..ServeConfig::default()
    });
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().expect("local addr");
    std::thread::scope(|s| {
        let server = &server;
        let engine = &engine;
        let universe = &universe;
        s.spawn(move || {
            server
                .run(engine, Some(universe), listener)
                .expect("serve loop");
        });
        let mut c = Client::connect(addr).expect("connect");
        for i in 0..40u64 {
            let line = match i % 8 {
                // Budget-1 queries trip the deadline and, after three
                // trips, open the prefix's circuit breaker.
                2 | 3 => whatif_line(Some(i), prefixes[1], &[Delta::Withdraw], Some(1)),
                5 => format!("{{\"op\": {i}"),
                _ => whatif_line(Some(i), prefixes[0], &[Delta::LinkDown { a, b }], None),
            };
            let _ = c.request(&line);
        }
        // Burst past the queue cap with workers paused to exercise the
        // load-shed path.
        server.pause_workers();
        for i in 0..24u64 {
            c.send_line(&whatif_line(
                Some(100 + i),
                prefixes[0],
                &[Delta::LinkDown { a, b }],
                None,
            ))
            .expect("burst send");
        }
        for _ in 0..16 {
            let _ = c.recv_line();
        }
        server.resume_workers();
        for _ in 0..8 {
            let _ = c.recv_line();
        }
        let _ = c.request(&control_line(None, "shutdown"));
    });
    let s = server.stats();
    println!(
        "served {} | shed {} | degraded {} (deadline {}, quarantine {}) | errors {}",
        s.served, s.shed, s.degraded, s.deadline_aborts, s.quarantine_refusals, s.errors
    );
    println!(
        "breaker trips {} | queue high-water {} (cap 8) | disconnects {} | autosaves {}",
        s.breaker_trips, s.queue_high_water, s.disconnects, s.autosaves
    );
}

fn main() {
    let scale = std::env::args().nth(1).unwrap_or_else(|| "tiny".into());
    let seed = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let intensity: f64 = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0);
    if scale == "serve" {
        let seed = std::env::args()
            .nth(2)
            .and_then(|s| s.parse().ok())
            .unwrap_or(7);
        serve_diag(seed);
        return;
    }
    if scale == "audit-delta" {
        let target = std::env::args()
            .nth(2)
            .and_then(|s| s.parse().ok())
            .unwrap_or(20_000);
        // Seed 0 by default: larger internet_scale worlds can grow
        // session-level c2p cycles under some seeds (e.g. seed 7 at
        // ≥10k), and an uncertified world has nothing to maintain.
        let seed = std::env::args()
            .nth(3)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        audit_delta_diag(target, seed);
        return;
    }
    if scale == "hijack" {
        let target = std::env::args()
            .nth(2)
            .and_then(|s| s.parse().ok())
            .unwrap_or(5_000);
        let seed = std::env::args()
            .nth(3)
            .and_then(|s| s.parse().ok())
            .unwrap_or(7);
        hijack_diag(target, seed);
        return;
    }
    if scale == "whatif" {
        let target = std::env::args()
            .nth(2)
            .and_then(|s| s.parse().ok())
            .unwrap_or(20_000);
        let seed = std::env::args()
            .nth(3)
            .and_then(|s| s.parse().ok())
            .unwrap_or(7);
        whatif_diag(target, seed);
        return;
    }
    if scale.starts_with("internet") {
        let target = std::env::args()
            .nth(3)
            .and_then(|s| s.parse().ok())
            .unwrap_or(50_000);
        internet_scale_diag(seed, target);
        return;
    }
    let mut cfg = match scale.as_str() {
        "tiny" => ScenarioConfig::tiny(seed),
        _ => ScenarioConfig::paper_scale(seed),
    };
    if intensity > 0.0 {
        cfg.faults = FaultConfig::chaos(intensity);
    }
    let s = Scenario::build(cfg);
    println!(
        "world: {} ASes {} links | inferred {} links | unconverged prefixes: {}",
        s.world.graph.len(),
        s.world.graph.link_count(),
        s.inferred.len(),
        s.universe.unconverged().len()
    );
    for p in s.universe.unconverged() {
        let origin = s.universe.origin(*p);
        println!("  unconverged: {p} origin {origin:?}");
    }
    println!(
        "campaign: {} traceroutes, {} measured, {} decisions, {} observed ASes, {} dest ASes",
        s.campaign.traceroutes.len(),
        s.measured.len(),
        s.decisions.len(),
        s.observed_ases(),
        s.campaign.destination_ases()
    );

    // Resilience counters: what the fault plane injected and how the stack
    // absorbed it. All zeros under a quiet plane.
    let res = s.universe.resilience();
    println!(
        "resilience: faults fired: {} | engine: {} recovery events, {} recovery rounds, \
         {} sessions torn, {} links down at end | campaign: {}",
        s.plane.stats(),
        res.fault_events,
        res.recovery_rounds,
        res.sessions_torn,
        res.links_down_at_end,
        s.campaign.report
    );
    // Cross-prefix batching: how many propagations the announcement-shape
    // grouping actually saved while converging the universe.
    let ustats = s.universe.engine_stats();
    println!(
        "universe: {} prefixes from {} shape propagations ({} shared by fan-out) | \
         {} activations, {} imports",
        ustats.shapes_computed + ustats.prefixes_shared,
        ustats.shapes_computed,
        ustats.prefixes_shared,
        ustats.activations,
        ustats.imports
    );
    oscillation_diag(&s);
    println!(
        "memory: {:.1} MiB resident route tables ({:.2} B per (prefix, AS) slot) | \
         shape sims (transient, summed): {} routes at {:.1} B/route, \
         arena intern hit rate {:.0}%",
        s.universe.resident_bytes() as f64 / (1024.0 * 1024.0),
        s.universe.resident_bytes() as f64
            / (s.world.graph.len() * (ustats.shapes_computed + ustats.prefixes_shared).max(1))
                as f64,
        ustats.memory.routes,
        ustats.memory.bytes_per_route(),
        ustats.memory.intern_hit_rate() * 100.0
    );
    println!(
        "audit: {} error(s), {} warning(s) | {}",
        s.audit.errors(),
        s.audit.warnings(),
        s.audit.certificate
    );
    {
        // Classifier route-cache telemetry over the full decision set.
        let classifier = ir_core::classify::Classifier::new(&s.inferred, Default::default());
        classifier.classify_batch(&s.decisions);
        println!("classifier cache: {}", classifier.cache_stats());
    }

    // Event-engine counters on a testbed prefix: how much work announce,
    // an incremental poisoned re-announce, and withdraw actually do.
    if let Some(peering) = ir_measure::peering::Peering::new(&s.world) {
        use ir_types::Timestamp;
        let prefix = peering.prefixes()[0];
        let round = 90 * 60;
        let mut sim = peering.sim(prefix);
        let fmt = |label: &str, c: ir_bgp::Convergence| {
            println!(
                "  {label:<22} rounds {:>3}  activations {:>7}  imports {:>7}{}",
                c.rounds,
                c.activations,
                c.imports,
                if c.converged { "" } else { "  (NOT CONVERGED)" }
            );
        };
        println!("engine counters ({prefix}):");
        fmt(
            "announce",
            sim.announce(peering.anycast(prefix, &[]), Timestamp::ZERO),
        );
        // Poison the first transit hop of some converged route — the same
        // incremental shape a poisoning campaign produces.
        let poison: Vec<ir_types::Asn> = (0..s.world.graph.len())
            .find_map(|i| {
                let hops = sim.best(i)?.path.sequence_asns();
                if hops.len() >= 2 {
                    Some(vec![hops[0]])
                } else {
                    None
                }
            })
            .unwrap_or_default();
        let poisoned = peering.anycast(prefix, &poison);
        fmt(
            "re-announce (poison)",
            sim.announce(poisoned, Timestamp(round)),
        );
        fmt("withdraw", sim.withdraw(Timestamp(2 * round)));
        let total = sim.stats();
        println!(
            "  {:<22} events {:>3}  activations {:>7}  imports {:>7}",
            "cumulative", total.events, total.activations, total.imports
        );
    }
    println!("{}", ir_experiments::exp_table1::run(&s).render());
    println!("{}", ir_experiments::exp_fig1::run(&s).render());
    println!("{}", ir_experiments::exp_fig3::run(&s).render());
    println!("{}", ir_experiments::exp_table2::run(&s).render());
    println!("{}", ir_experiments::exp_table3::run(&s).render());
    println!("{}", ir_experiments::exp_table4::run(&s).render());
    println!("{}", ir_experiments::exp_alternates::run(&s, 60).render());
    println!("{}", ir_experiments::exp_validation::run(&s, 10).render());
    println!("{}", ir_experiments::exp_fig2::run(&s).render());
}
