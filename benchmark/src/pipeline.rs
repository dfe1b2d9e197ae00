//! `paper_pipeline`: the paper reproduction itself — build the scenario
//! (world → BGP universe → data plane → inference → measurement campaign
//! → decisions), then run all 14 experiments into the report.
//!
//! The pipeline here is a *staged replica* of `Scenario::build` +
//! `assemble_report`: the same public calls in the same order, with a span
//! around each stage. The replica differs in one respect: the topology
//! seed and the measurement seed are separate arguments, because the cost
//! of this workload is set almost entirely by how many prefixes of the
//! topology burn the engine's round cap (0 to 422 over seeds 1..12, a
//! 35× spread in build time). The benchmark pins the topology to the
//! repo's canonical seed and lets `--seed` drive everything
//! measurement-side, so runs with different seeds are comparable. Each run
//! first proves on a tiny scenario that the replica and the shipped
//! `Scenario::build` agree when both seeds are equal.

use crate::trace::Tracer;
use crate::{Outcome, Run};
use ir_bgp::RoutingUniverse;
use ir_core::classify::{Classifier, ClassifyConfig};
use ir_core::dataset::{Decision, MeasuredPath};
use ir_dataplane::{AddressPlan, GeoDb, OriginTable};
use ir_experiments::report::{assemble_report, ALL_EXPERIMENTS};
use ir_experiments::{Scenario, ScenarioConfig};
use ir_fault::FaultPlane;
use ir_inference::feeds;
use ir_inference::relinfer::{infer_relationships, InferConfig};
use ir_inference::{aggregate_snapshots, ComplexRelDb, SiblingGroups};
use ir_measure::atlas::ProbePool;
use ir_measure::campaign::{Campaign, CampaignConfig};
use ir_measure::LookingGlassNet;
use ir_topology::RelationshipDb;
use ir_types::Asn;
use std::time::Instant;

/// The topology every `paper_pipeline` run converges: the seed of the
/// committed `repro_paper_seed7.*` artifacts (410 unconverged prefixes).
pub const TOPOLOGY_SEED: u64 = 7;

/// Historic months re-run `bgp.universe` on churned copies of the world
/// and add no layer; one month keeps a pass under 30 s.
const MONTHS: usize = 1;

const SETUP_REPEATS: usize = 5;

/// FNV-1a, 64 bit: a stable digest of the report text.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `Scenario::build`, stage by stage. Quiet fault plane only.
pub fn staged_scenario(cfg: ScenarioConfig, topology_seed: u64, t: &mut Tracer) -> Scenario {
    assert!(cfg.faults.is_quiet(), "the replica covers the quiet plane");
    let seed = cfg.seed;
    let world = t.scope("topology.gen", 0, |_| {
        let world = cfg.gen.build(topology_seed);
        if let Err(e) = world.validate() {
            panic!("generated world is inconsistent: {e}");
        }
        world
    });
    let plane = FaultPlane::new(cfg.faults, seed);
    let audit = t.scope("audit.world", 0, |_| ir_audit::audit_world(&world));
    let universe = t.scope("bgp.universe.compute", 0, |_| {
        RoutingUniverse::compute_all_with_faults_ordered(
            &world,
            &plane,
            audit.certificate.activation_order(),
        )
    });

    let substrate = t.begin("dataplane.substrate", 0);
    let plan = AddressPlan::build(&world);
    let geodb = GeoDb::build(&world, &plan, cfg.geo, seed);
    let origin_table = OriginTable::from_universe(&universe);
    t.end(substrate);

    let feed_span = t.begin("inference.feed", 0);
    let vantages = feeds::pick_vantages(&world, &cfg.feed, seed);
    let feed = feeds::extract_feed_lossy(&world, &universe, &vantages, cfg.feed.loss, seed);
    t.end(feed_span);

    let relinfer = t.begin("inference.relinfer", 0);
    let months = feeds::monthly_worlds(&world, cfg.months, seed);
    let infer_cfg = InferConfig::default();
    let mut snapshots: Vec<RelationshipDb> = Vec::with_capacity(months.len());
    for (i, month) in months.iter().enumerate() {
        let month_feed = if i + 1 == months.len() {
            feed.clone()
        } else {
            let prefixes: Vec<_> = month.graph.nodes().iter().map(|n| n.prefixes[0]).collect();
            let u = RoutingUniverse::compute(month, &prefixes);
            feeds::extract_feed(month, &u, &vantages)
        };
        let paths: Vec<&[Asn]> = month_feed.paths().collect();
        snapshots.push(infer_relationships(paths, &infer_cfg));
    }
    let inferred = aggregate_snapshots(&snapshots);
    t.end(relinfer);

    let sidedata = t.begin("inference.sidedata", 0);
    let complex = ComplexRelDb::derive(&world, cfg.complex_coverage, seed);
    let siblings = SiblingGroups::infer(&world.orgs);
    t.end(sidedata);
    let lg = t.scope("measure.lg", 0, |_| {
        LookingGlassNet::deploy(&world, cfg.lg_fraction, seed)
    });

    let campaign_span = t.begin("measure.campaign", 0);
    let pool = ProbePool::install(&world, seed);
    let probes = pool.select_balanced(cfg.probes);
    let campaign = Campaign::run_with_faults(
        &world,
        &universe,
        &plan,
        &probes,
        &CampaignConfig {
            trace: cfg.trace,
            seed,
            budget: None,
            retry: Default::default(),
        },
        &plane,
    );
    t.end(campaign_span);

    let decisions_span = t.begin("core.decisions", 0);
    let measured: Vec<MeasuredPath> = campaign
        .traceroutes
        .iter()
        .filter_map(|tr| MeasuredPath::build(tr, &origin_table, &geodb))
        .collect();
    let decisions: Vec<Decision> = measured.iter().flat_map(|m| m.decisions()).collect();
    t.end(decisions_span);

    Scenario {
        cfg,
        world,
        universe,
        plan,
        geodb,
        origin_table,
        pool,
        probes,
        vantages,
        feed,
        inferred,
        complex,
        siblings,
        lg,
        campaign,
        measured,
        decisions,
        plane,
        audit,
    }
}

/// `assemble_report` over every experiment, one call (and span) each; the
/// concatenated text equals the single call's text.
pub fn staged_report(s: &Scenario, scale: &str, t: &mut Tracer) -> String {
    t.scope("experiments.report", 0, |t| {
        let mut text = String::new();
        for &name in ALL_EXPERIMENTS {
            let part = t.scope(format!("experiments.{name}"), 0, |_| {
                assemble_report(s, s.cfg.seed, scale, &[name]).0
            });
            text.push_str(&part);
        }
        text
    })
}

/// The replica and the shipped pipeline agree on a tiny scenario.
fn replica_is_faithful(seed: u64, out: &mut Outcome) {
    let mut quiet = Tracer::new(false, Instant::now());
    let staged = staged_scenario(ScenarioConfig::tiny(seed), seed, &mut quiet);
    let staged_text = staged_report(&staged, "tiny", &mut quiet);
    let shipped = Scenario::build(ScenarioConfig::tiny(seed));
    let (text, _) = assemble_report(&shipped, seed, "tiny", ALL_EXPERIMENTS);
    out.check(staged.decisions.len() == shipped.decisions.len(), || {
        format!(
            "replica yields {} decisions, Scenario::build {}",
            staged.decisions.len(),
            shipped.decisions.len()
        )
    });
    out.check(
        staged.universe.unconverged() == shipped.universe.unconverged(),
        || "replica and Scenario::build disagree on unconverged prefixes".into(),
    );
    out.check(digest(&staged_text) == digest(&text), || {
        "replica report text differs from assemble_report's".into()
    });
}

pub fn run(run: &Run, t: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    out.param("topology_seed", TOPOLOGY_SEED);
    out.param("months", MONTHS);
    out.param("scale", "paper");
    replica_is_faithful(run.seed, out);

    let mut cfg = ScenarioConfig::paper_scale(run.seed);
    cfg.months = MONTHS;

    // Set-up is what a pass needs before it can start: the topology and
    // its audit. The pass regenerates both itself (it times them as
    // layers), so nothing is carried over.
    let setups: Vec<f64> = (0..if run.traced { 1 } else { SETUP_REPEATS })
        .map(|_| {
            let t0 = Instant::now();
            let world = cfg.gen.build(TOPOLOGY_SEED);
            std::hint::black_box(ir_audit::audit_world(&world));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    out.put_n("setup_s", crate::stats::median(&setups), setups.len());

    // One pass; the input size is fixed, so `--seconds` does not apply.
    let t0 = Instant::now();
    let root = t.begin("paper_pipeline", 1);
    let s = t.scope("scenario.build", 1, |t| {
        staged_scenario(cfg, TOPOLOGY_SEED, t)
    });
    let text = staged_report(&s, "paper", t);
    t.end(root);
    let wall = t0.elapsed().as_secs_f64();
    out.put_pass(wall);

    let stats = s.universe.engine_stats();
    out.check(!text.is_empty() && !s.decisions.is_empty(), || {
        "the pass produced no report or no decisions".into()
    });
    let from_paths: usize = s.measured.iter().map(|m| m.path.len() - 1).sum();
    out.check(s.decisions.len() == from_paths, || {
        "decision count disagrees with the measured paths".into()
    });
    out.check(
        stats.shapes_computed + stats.prefixes_shared == s.universe.prefixes().count(),
        || "universe shapes + shared prefixes do not cover every prefix".into(),
    );
    out.info("report_digest", format!("{:016x}", digest(&text)));

    if !run.traced {
        return Ok(());
    }
    for (metric, span) in [
        ("topology.gen_ms", "topology.gen"),
        ("audit.world_ms", "audit.world"),
        ("dataplane.substrate_ms", "dataplane.substrate"),
        ("inference.feed_ms", "inference.feed"),
        ("inference.relinfer_ms", "inference.relinfer"),
        ("inference.sidedata_ms", "inference.sidedata"),
        ("measure.lg_ms", "measure.lg"),
        ("measure.campaign_ms", "measure.campaign"),
        ("core.decisions_ms", "core.decisions"),
        ("experiments.report_ms", "experiments.report"),
    ] {
        out.put(metric, t.total_ms(span));
    }
    for name in ALL_EXPERIMENTS {
        let span = format!("experiments.{name}");
        out.put(&format!("{span}_ms"), t.total_ms(&span));
    }
    out.put_universe(&s.universe, t.total_ms("bgp.universe.compute"));
    out.put("measure.traceroutes", s.campaign.traceroutes.len() as f64);
    out.put("core.decisions", s.decisions.len() as f64);

    // The classifier as the experiments use it, on its own: one parallel
    // batch over every decision, then the route-cache telemetry.
    let classifier = Classifier::new(&s.inferred, ClassifyConfig::default());
    let verdicts = t.scope("core.classify_batch", 0, |_| {
        classifier.classify_batch(&s.decisions)
    });
    out.check(verdicts.len() == s.decisions.len(), || {
        "classify_batch dropped decisions".into()
    });
    let cache = classifier.cache_stats();
    out.put("core.classify_batch_ms", t.total_ms("core.classify_batch"));
    out.put(
        "core.classify_cache_hit_share",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(digest("table 1"), digest("table 2"));
    }
}
