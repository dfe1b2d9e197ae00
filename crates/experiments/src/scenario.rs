//! One fully-assembled experiment environment.
//!
//! Building a [`Scenario`] performs, in order, everything the paper's
//! data-collection phase did:
//!
//! 1. generate the ground-truth world (unobservable in reality);
//! 2. converge BGP for every originated prefix;
//! 3. build the address plan, geolocation database, and origin table;
//! 4. place route collectors and derive five monthly topology snapshots
//!    (with churn), infer relationships per month, and aggregate (§3.3);
//! 5. infer siblings from whois/SOA and take the complex-relationship
//!    side dataset;
//! 6. install the probe platform, select the continent-balanced probe set
//!    (§3.1), and run the passive traceroute campaign;
//! 7. convert traceroutes to measured paths and decisions.
//!
//! Everything downstream (the `exp_*` runners) consumes this struct
//! read-only.

use ir_audit::AuditReport;
use ir_bgp::RoutingUniverse;
use ir_core::dataset::{Decision, MeasuredPath};
use ir_core::table::DecisionTable;
use ir_dataplane::geo::GeoConfig;
use ir_dataplane::{AddressPlan, GeoDb, OriginTable, TraceConfig};
use ir_fault::{FaultConfig, FaultPlane};
use ir_inference::feeds::{self, BgpFeed, FeedConfig};
use ir_inference::relinfer::{infer_relationships, InferConfig};
use ir_inference::{aggregate_snapshots, ComplexRelDb, SiblingGroups};
use ir_measure::atlas::{Probe, ProbePool};
use ir_measure::campaign::{Campaign, CampaignConfig};
use ir_measure::LookingGlassNet;
use ir_topology::{GeneratorConfig, RelationshipDb, World};
use ir_types::{Asn, Timestamp};

/// The simulated window over which the fault plane schedules link flaps
/// and session resets (one measurement day).
pub const FAULT_WINDOW: u64 = 24 * 3600;

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// World generator configuration.
    pub gen: GeneratorConfig,
    /// Master seed; all randomness descends from it.
    pub seed: u64,
    /// Probes selected for the passive campaign (the paper used 1,998).
    pub probes: usize,
    /// Probes used to monitor the active experiments (the paper used 96
    /// Atlas probes + ~200 PlanetLab nodes).
    pub monitor_probes: usize,
    /// Monthly topology snapshots aggregated (§3.3 uses 5).
    pub months: usize,
    /// Collector vantage configuration.
    pub feed: FeedConfig,
    /// Geolocation error model.
    pub geo: GeoConfig,
    /// Traceroute artifact model.
    pub trace: TraceConfig,
    /// Coverage of the complex-relationship side dataset.
    pub complex_coverage: f64,
    /// Fraction of transit ASes hosting a looking glass.
    pub lg_fraction: f64,
    /// Fault injection rates. Quiet (all zero) by default — a scenario with
    /// quiet faults is bit-identical to one built before the fault plane
    /// existed.
    pub faults: FaultConfig,
}

impl ScenarioConfig {
    /// Paper-comparable scale (~700 ASes, hundreds of probes).
    pub fn paper_scale(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            gen: GeneratorConfig::default(),
            seed,
            probes: 600,
            monitor_probes: 96,
            months: 5,
            feed: FeedConfig::default(),
            geo: GeoConfig::default(),
            trace: TraceConfig::default(),
            complex_coverage: 0.7,
            lg_fraction: 0.4,
            faults: FaultConfig::quiet(),
        }
    }

    /// A small scale for tests and examples.
    pub fn tiny(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            gen: GeneratorConfig::tiny(),
            seed,
            probes: 60,
            monitor_probes: 24,
            months: 3,
            feed: FeedConfig {
                vantages: 16,
                ..FeedConfig::default()
            },
            geo: GeoConfig::default(),
            trace: TraceConfig::default(),
            complex_coverage: 0.7,
            lg_fraction: 0.5,
            faults: FaultConfig::quiet(),
        }
    }
}

/// The assembled environment.
pub struct Scenario {
    pub cfg: ScenarioConfig,
    pub world: World,
    pub universe: RoutingUniverse,
    pub plan: AddressPlan,
    pub geodb: GeoDb,
    pub origin_table: OriginTable,
    /// The full probe platform.
    pub pool: ProbePool,
    /// The continent-balanced campaign probe selection.
    pub probes: Vec<Probe>,
    /// Collector vantage ASes.
    pub vantages: Vec<Asn>,
    /// Current-month full BGP feed (PSP evidence, §4.3).
    pub feed: BgpFeed,
    /// The aggregated inferred topology (the "CAIDA" the analyses use).
    pub inferred: RelationshipDb,
    /// Complex-relationship side dataset (§4.1).
    pub complex: ComplexRelDb,
    /// Inferred sibling groups (§4.2).
    pub siblings: SiblingGroups,
    /// Looking glasses (§4.3 validation).
    pub lg: LookingGlassNet,
    /// The passive campaign's raw traceroutes.
    pub campaign: Campaign,
    /// Converted + annotated paths.
    pub measured: Vec<MeasuredPath>,
    /// All routing decisions the campaign exposed.
    pub decisions: Vec<Decision>,
    /// The fault plane the scenario was built under (quiet unless the
    /// config set nonzero rates). Carries the fire counters for `diag`.
    pub plane: FaultPlane,
    /// Static policy-safety audit of the ground-truth world. Its
    /// certificate decided the engine scheduling discipline the universe
    /// was converged under.
    pub audit: AuditReport,
}

impl Scenario {
    /// Builds the scenario. Deterministic in `cfg` (including its seed).
    pub fn build(cfg: ScenarioConfig) -> Scenario {
        let seed = cfg.seed;
        let world = cfg.gen.build(seed);
        if let Err(e) = world.validate() {
            panic!("generated world is inconsistent: {e}");
        }

        // Fault plane: quiet by default; with nonzero control-plane rates,
        // derive a timed link flap/reset schedule over the topology.
        let mut plane = FaultPlane::new(cfg.faults, seed);
        if !plane.config().is_quiet() {
            let mut links: Vec<(Asn, Asn)> = Vec::new();
            for x in 0..world.graph.len() {
                for l in world.graph.links(x) {
                    if x < l.peer {
                        links.push((world.graph.asn(x), world.graph.asn(l.peer)));
                    }
                }
            }
            plane.synthesize_link_schedule(&links, Timestamp(FAULT_WINDOW));
        }

        // 2. Audit the world, then converge the present-day routing
        // universe. A certified world (provably unique stable routing)
        // unlocks the engine's free-order worklist; anything else keeps
        // the deterministic wave-exact schedule.
        let audit = ir_audit::audit_world(&world);
        let universe = RoutingUniverse::compute_all_with_faults_ordered(
            &world,
            &plane,
            audit.certificate.activation_order(),
        );

        // 3. Data-plane substrate.
        let plan = AddressPlan::build(&world);
        let geodb = GeoDb::build(&world, &plan, cfg.geo, seed);
        let origin_table = OriginTable::from_universe(&universe);

        // 4. Collectors, monthly snapshots, inference, aggregation.
        let vantages = feeds::pick_vantages(&world, &cfg.feed, seed);
        let feed = feeds::extract_feed_lossy(&world, &universe, &vantages, cfg.feed.loss, seed);
        let months = feeds::monthly_worlds(&world, cfg.months, seed);
        let infer_cfg = InferConfig::default();
        let mut snapshots: Vec<RelationshipDb> = Vec::with_capacity(months.len());
        for (i, month) in months.iter().enumerate() {
            let month_feed = if i + 1 == months.len() {
                // The present month reuses the full feed.
                feed.clone()
            } else {
                // Historical months: one prefix per AS is enough for
                // relationship inference and much cheaper to converge.
                let prefixes: Vec<_> = month.graph.nodes().iter().map(|n| n.prefixes[0]).collect();
                let u = RoutingUniverse::compute(month, &prefixes);
                feeds::extract_feed(month, &u, &vantages)
            };
            let paths: Vec<&[Asn]> = month_feed.paths().collect();
            snapshots.push(infer_relationships(paths, &infer_cfg));
        }
        let inferred = aggregate_snapshots(&snapshots);

        // 5. Side datasets.
        let complex = ComplexRelDb::derive(&world, cfg.complex_coverage, seed);
        let siblings = SiblingGroups::infer(&world.orgs);
        let lg = LookingGlassNet::deploy(&world, cfg.lg_fraction, seed);

        // 6. Probe platform + passive campaign.
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

        // 7. Conversion + decision extraction.
        let measured: Vec<MeasuredPath> = campaign
            .traceroutes
            .iter()
            .filter_map(|tr| MeasuredPath::build(tr, &origin_table, &geodb))
            .collect();
        let decisions: Vec<Decision> = measured.iter().flat_map(|m| m.decisions()).collect();

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

    /// Degradation reasons for the scenario inputs named in `needs`,
    /// making partial-run artifacts self-describing. Recognized keys:
    /// `universe`, `feed`, `inferred`, `measured`, `decisions`, `complex`,
    /// `siblings`, `lg`. An empty return means every input the experiment
    /// consumes was intact.
    pub fn degraded(&self, needs: &[&str]) -> Vec<String> {
        let need = |k: &str| needs.contains(&k);
        let mut reasons = Vec::new();
        if !self.plane.is_quiet() {
            reasons.push(format!(
                "faults: plane active (intensity-bearing config, {} events fired) — every \
                 downstream input was sampled under injected faults",
                self.plane.stats().total()
            ));
        }
        if need("universe") && !self.universe.unconverged().is_empty() {
            reasons.push(format!(
                "universe: {} prefixes failed to converge",
                self.universe.unconverged().len()
            ));
        }
        if need("feed") && self.feed.entries().is_empty() {
            reasons.push("feed: collectors returned no entries".into());
        }
        if need("inferred") && self.inferred.is_empty() {
            reasons.push("inferred: relationship inference produced no links".into());
        }
        if need("measured") && self.measured.is_empty() {
            reasons.push("measured: no traceroute converted to a usable path".into());
        }
        if need("decisions") && self.decisions.is_empty() {
            reasons.push("decisions: campaign exposed no routing decisions".into());
        }
        if need("complex")
            && self.complex.hybrids().is_empty()
            && self.complex.partial_transit_pairs().is_empty()
        {
            reasons.push("complex: side dataset is empty".into());
        }
        if need("siblings") && self.siblings.is_empty() {
            reasons.push("siblings: no sibling groups inferred".into());
        }
        if need("lg") && self.lg.is_empty() {
            reasons.push("lg: no looking glasses deployed".into());
        }
        reasons
    }

    /// The refinement inputs for classification pipelines.
    pub fn refine_inputs(&self) -> ir_core::refine::RefineInputs<'_> {
        ir_core::refine::RefineInputs {
            complex: &self.complex,
            siblings: &self.siblings,
            feed: &self.feed,
        }
    }

    /// The campaign's decisions as a classified table over `inferred`.
    pub fn decision_table(&self) -> DecisionTable<'_> {
        DecisionTable::new(
            &self.inferred,
            self.refine_inputs(),
            &self.measured,
            &self.decisions,
        )
    }

    /// ASes whose decisions the campaign observed (the paper observed
    /// decisions for 746 ASes).
    pub fn observed_ases(&self) -> usize {
        let mut asns: Vec<Asn> = self.decisions.iter().map(|d| d.observer).collect();
        asns.sort_unstable();
        asns.dedup();
        asns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    pub(crate) fn tiny() -> &'static Scenario {
        static S: OnceLock<Scenario> = OnceLock::new();
        S.get_or_init(|| Scenario::build(ScenarioConfig::tiny(7)))
    }

    #[test]
    fn scenario_assembles() {
        let s = tiny();
        assert!(s.universe.unconverged().is_empty(), "all prefixes converge");
        assert!(!s.measured.is_empty(), "campaign produced usable paths");
        assert!(!s.decisions.is_empty());
        assert!(s.observed_ases() > 20, "decisions span many ASes");
        assert!(s.inferred.len() > 50, "inference found links");
    }

    #[test]
    fn inferred_topology_is_subset_biased() {
        let s = tiny();
        // The inferred topology misses edge links relative to ground truth,
        // possibly offset by a few historical (stale) links.
        let truth = s.world.graph.link_count();
        assert!(
            s.inferred.len() < truth,
            "inferred {} links of {truth} ground-truth ones",
            s.inferred.len()
        );
    }

    #[test]
    fn decisions_reference_measured_paths() {
        let s = tiny();
        let n_from_paths: usize = s.measured.iter().map(|m| m.path.len() - 1).sum();
        assert_eq!(s.decisions.len(), n_from_paths);
    }
}
