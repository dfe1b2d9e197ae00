//! Internal diagnostic dump for scenario tuning (not part of the paper's
//! deliverables; `repro` is the user-facing binary).
//!
//! Usage: `diag [tiny|paper] [seed] [fault-intensity]` — a nonzero third
//! argument builds the scenario under `FaultConfig::chaos(intensity)` and
//! prints the resilience counters alongside the usual dumps. Anything else
//! is refused with a usage line and exit status 2.
//!
//! When the universe has unconverged prefixes (paper scale, seed 7: 410 of
//! 1 212) the dump includes the oscillation witnesses of their
//! announcement shapes: period histogram, rounds executed versus
//! fast-forwarded, and how many flapping ASes `ir-audit` had flagged as
//! IR-A002 dispute-wheel candidates.
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

fn usage() -> ! {
    eprintln!("usage: diag [tiny|paper] [SEED] [FAULT-INTENSITY]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > 3 {
        usage();
    }
    let scale = args.first().map_or("tiny", String::as_str);
    let seed: u64 = args
        .get(1)
        .map_or(Some(7), |s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let intensity: f64 = args
        .get(2)
        .map_or(Some(0.0), |s| s.parse().ok())
        .filter(|x: &f64| *x >= 0.0)
        .unwrap_or_else(|| usage());
    let mut cfg = match scale {
        "tiny" => ScenarioConfig::tiny(seed),
        "paper" => ScenarioConfig::paper_scale(seed),
        _ => usage(),
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
