//! End-to-end integration: build one full scenario and regenerate every
//! table and figure, asserting the paper's qualitative shapes.
//!
//! These tests intentionally assert *shapes* (who wins, what dominates,
//! which refinement helps) rather than absolute numbers: the substrate is
//! a synthetic Internet, not the authors' 2015 measurement window.

use ir_core::classify::Classifier;
use ir_core::refine::Variant;
use ir_core::table::DecisionTable;
use ir_experiments::report::{assemble_report, ALL_EXPERIMENTS};
use ir_experiments::scenario::{Scenario, ScenarioConfig};
use std::sync::OnceLock;

fn scenario() -> &'static Scenario {
    static S: OnceLock<Scenario> = OnceLock::new();
    S.get_or_init(|| Scenario::build(ScenarioConfig::tiny(7)))
}

fn table() -> DecisionTable<'static> {
    scenario().decision_table()
}

#[test]
fn dataset_statistics_have_paper_structure() {
    let s = scenario();
    // §3.1: traceroutes end in far more destination ASes than there are
    // content providers (off-net caches), and decisions are observed for
    // many more ASes than there are probes' networks.
    assert!(s.campaign.destination_ases() > s.world.content.providers().len());
    assert!(s.observed_ases() > 30);
    assert!(s.universe.unconverged().is_empty());
    // The inferred topology is a biased subset of ground truth.
    assert!(s.inferred.len() < s.world.graph.link_count());
}

#[test]
fn figure1_shapes() {
    let f = ir_experiments::exp_fig1::run(scenario(), &table());
    let simple = f.bar(Variant::Simple).unwrap();
    let all1 = f.bar(Variant::All1).unwrap();
    let all2 = f.bar(Variant::All2).unwrap();
    // A majority but far from all decisions follow the plain model.
    assert!(simple.best_short > 55.0 && simple.best_short < 92.0);
    // The refinement pipeline explains more, with criterion 1 ≥ criterion 2.
    assert!(all1.best_short >= simple.best_short);
    assert!(all1.best_short >= all2.best_short - 1e-9);
    // Complex relationships barely move the needle (§4.1).
    let complex = f.bar(Variant::Complex).unwrap();
    assert!((complex.best_short - simple.best_short).abs() < 2.0);
}

#[test]
fn table1_covers_the_hierarchy_bottom_heavily() {
    let t = ir_experiments::exp_table1::run(scenario());
    assert_eq!(t.rows.len(), 4);
    let stub = &t.rows[0];
    assert_eq!(stub.as_type, "Stub-AS");
    // Vantage points sit near the edge (the paper's Table 1 shape).
    assert!(stub.probes * 2 > t.total_probes);
    assert!(t.rows[1].probes > 0, "some probes in small ISPs");
}

#[test]
fn table2_tie_breakers_carry_real_mass() {
    let t = ir_experiments::exp_table2::run(scenario());
    let pct = |name: &str| {
        t.rows
            .iter()
            .find(|r| r.decision == name)
            .map(|r| r.feeds_pct)
            .unwrap_or(0.0)
    };
    // Relationship + length dominate…
    assert!(pct("Best relationship") + pct("Shorter path") > 50.0);
    // …but the steps today's models ignore exceed the paper's 17% bar.
    let ignored = pct("Intradomain tie-breaker") + pct("Oldest route (magnet)");
    assert!(ignored > 10.0, "tie-breaker mass {ignored:.1}%");
}

#[test]
fn alternates_follow_gr_order_mostly() {
    let campaign = ir_experiments::exp_alternates::poisoning_campaign(scenario(), 40);
    let a = ir_experiments::exp_alternates::run(scenario(), campaign.as_deref());
    assert!(a.informative_targets >= 10);
    // The overwhelming majority follows both order properties (paper 86%).
    assert!(a.both * 3 >= a.informative_targets * 2, "{a:?}");
    // Poisoning exposes links passive feeds never see (paper 22.2%).
    assert!(a.observed_links > 0);
}

#[test]
fn figure2_violations_skew_to_content_destinations() {
    let f = ir_experiments::exp_fig2::run(scenario(), &table());
    assert!(f.total_violations > 0);
    // Destination-side skew exceeds source-side skew (§5's key contrast).
    assert!(
        f.dest_skew > f.src_skew,
        "dest {:.3} vs src {:.3}",
        f.dest_skew,
        f.src_skew
    );
    // At least one of the top destinations is a content provider.
    assert!(
        f.top_destinations
            .iter()
            .take(3)
            .any(|(_, _, p)| p.is_some()),
        "content providers among top violation destinations: {:?}",
        f.top_destinations
    );
}

#[test]
fn figure3_continental_paths_better_explained() {
    let f = ir_experiments::exp_fig3::run(scenario(), &table());
    let cont = f.bar("Cont").unwrap();
    let non = f.bar("Non Cont").unwrap();
    assert!(cont.best_short > non.best_short);
}

#[test]
fn table3_domestic_preference_has_signal() {
    let t = ir_experiments::exp_table3::run(scenario(), &table());
    assert!(t.overall_fraction > 0.05, "{:.3}", t.overall_fraction);
}

#[test]
fn table4_cables_are_rare_but_deviant() {
    let t = ir_experiments::exp_table4::run(scenario(), &table());
    assert!(t.path_fraction < 0.25);
    if t.deviant_fraction > 0.0 {
        assert!(t.deviant_fraction > t.baseline_deviant_fraction);
    }
}

/// Row `i` of the report's table is `s.decisions[i]` on the path that
/// exposed it, and each column is what that variant's own classifier says
/// of the decision.
#[test]
fn decision_table_rows_align_with_the_scenario() {
    let s = scenario();
    let table = s.decision_table();
    for v in Variant::ALL {
        let classifier = Classifier::new(&s.inferred, s.refine_inputs().config(v));
        let column = table.column(v);
        assert_eq!(column.len(), s.decisions.len(), "{}", v.label());
        for (i, row) in table.rows(v).enumerate() {
            let d = &s.decisions[i];
            assert_eq!(
                column[i],
                classifier.classify(d).category,
                "{} row {i}",
                v.label()
            );
            assert_eq!(row.category, column[i]);
            assert_eq!(row.decision, d);
            assert_eq!(&row.path.decisions()[d.path_index], d, "row {i}'s path");
        }
    }
}

#[test]
fn validation_precision_is_high_but_imperfect() {
    let v = ir_experiments::exp_validation::run(scenario(), 10);
    assert!(v.cases > 0);
    assert!(v.true_precision > 0.4 && v.true_precision <= 1.0);
}

/// A full report is its sections side by side: one `assemble_report`
/// call over every section renders the same text and JSON as one call per
/// section, so nothing a section leaves in the classifier or campaign the
/// report shares changes another section's output.
#[test]
fn report_sections_compose() {
    let s = scenario();
    let (text, json) = assemble_report(s, 7, "tiny", ALL_EXPERIMENTS);
    let mut joined_text = String::new();
    let mut joined_json = serde_json::json!({});
    for name in ALL_EXPERIMENTS {
        let (section_text, section_json) = assemble_report(s, 7, "tiny", &[name]);
        joined_text.push_str(&section_text);
        for (key, value) in section_json.as_object().expect("a report is an object") {
            joined_json[key.as_str()] = value.clone();
        }
    }
    assert_eq!(text, joined_text);
    assert_eq!(json, joined_json);
}

/// FNV-1a, 64 bit: a stable digest of report bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The whole tiny report, pinned byte for byte: a refactor of any section
/// must leave its text and its serialized JSON exactly as they were.
#[test]
fn tiny_report_golden() {
    let (text, json) = assemble_report(scenario(), 7, "tiny", ALL_EXPERIMENTS);
    let json = serde_json::to_string(&json).expect("a report serializes");
    let got = (fnv1a(text.as_bytes()), fnv1a(json.as_bytes()));
    assert_eq!(
        got,
        (0xa385_902a_4615_cdd9, 0x761c_ce94_e24f_c169),
        "tiny seed-7 report digests (text, JSON)"
    );
}

#[test]
fn scenario_build_is_deterministic() {
    let a = scenario();
    let b = Scenario::build(ScenarioConfig::tiny(7));
    assert_eq!(a.decisions.len(), b.decisions.len());
    assert_eq!(a.inferred, b.inferred);
    assert_eq!(
        a.probes.iter().map(|p| p.asn).collect::<Vec<_>>(),
        b.probes.iter().map(|p| p.asn).collect::<Vec<_>>()
    );
    // Different seed ⇒ different dataset.
    let c = Scenario::build(ScenarioConfig::tiny(8));
    assert_ne!(a.inferred, c.inferred);
}
