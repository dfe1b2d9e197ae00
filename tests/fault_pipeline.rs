//! Pipeline-level fault differential: the whole scenario → experiment stack
//! run under the fault plane.
//!
//! Three properties, mirroring the per-crate differential suites one layer up:
//! 1. A quiet plane is a strict no-op — a scenario built with explicit zero
//!    rates produces exactly the same tables, figures, and campaign as the
//!    default config (which never consults the plane at all).
//! 2. Faults are deterministic end to end — same seed, same rates ⇒ the
//!    same serialized Table 1 / Table 2 / Fig 1 and the same accounting.
//! 3. Under a hostile plane the pipeline still completes: no panics, every
//!    injected fault is accounted for, and the headline fractions remain
//!    finite and sane (they shift, they don't collapse).

use ir_experiments::scenario::{Scenario, ScenarioConfig};
use ir_fault::FaultConfig;

/// Serialize every pipeline output that reaches the paper artifacts.
fn artifacts(s: &Scenario) -> String {
    let t1 = serde_json::to_string(&ir_experiments::exp_table1::run(s)).expect("serialize table1");
    let t2 = serde_json::to_string(&ir_experiments::exp_table2::run(s)).expect("serialize table2");
    let f1 = ir_experiments::exp_fig1::run(s, &s.decision_table());
    let f1 = serde_json::to_string(&f1).expect("serialize fig1");
    format!("{t1}\n{t2}\n{f1}\n{}", s.campaign.report)
}

#[test]
fn quiet_plane_is_a_pipeline_noop() {
    let default = Scenario::build(ScenarioConfig::tiny(7));
    let mut cfg = ScenarioConfig::tiny(7);
    cfg.faults = FaultConfig::quiet();
    let explicit = Scenario::build(cfg);

    assert_eq!(artifacts(&default), artifacts(&explicit));
    assert_eq!(explicit.plane.stats().total(), 0, "quiet plane never fires");
    let res = explicit.universe.resilience();
    assert_eq!(res.fault_events, 0);
    assert_eq!(res.recovery_rounds, 0);
    assert_eq!(res.sessions_torn, 0);
    assert_eq!(res.links_down_at_end, 0);
    let r = explicit.campaign.report;
    assert_eq!((r.retried, r.abandoned, r.probes_lost), (0, 0, 0));
    assert_eq!(r.dns_failures + r.probe_dropouts, 0);
}

#[test]
fn faulted_pipeline_is_deterministic() {
    let build = || {
        let mut cfg = ScenarioConfig::tiny(11);
        cfg.faults = FaultConfig::chaos(0.5);
        Scenario::build(cfg)
    };
    let a = build();
    let b = build();
    assert_eq!(artifacts(&a), artifacts(&b));
    assert_eq!(a.plane.stats(), b.plane.stats());
    assert_eq!(a.universe.resilience(), b.universe.resilience());
}

#[test]
fn hostile_plane_degrades_instead_of_collapsing() {
    let mut cfg = ScenarioConfig::tiny(7);
    cfg.faults = FaultConfig::chaos(0.5);
    let s = Scenario::build(cfg);

    // The plane actually did something.
    assert!(s.plane.stats().total() > 0, "chaos plane fired no faults");
    // Campaign accounting closes: every planned measurement ended somewhere.
    assert!(s.campaign.accounted(), "{}", s.campaign.report);
    // Attempts cover every success (an abandoned measurement may have had
    // none: a dead probe abandons its queue without executing it).
    let r = s.campaign.report;
    assert!(r.attempted >= r.succeeded);
    assert!(r.retried <= r.attempted);
    // Control-plane recovery is reflected in the universe counters: every
    // scheduled timed fault was applied to every announced prefix.
    let res = s.universe.resilience();
    if !s.plane.schedule().is_empty() {
        assert!(res.fault_events > 0, "scheduled faults were never applied");
    }

    // The experiments complete and keep their structural shape.
    let t1 = ir_experiments::exp_table1::run(&s);
    assert_eq!(t1.rows.len(), 4);
    let t2 = ir_experiments::exp_table2::run(&s);
    for row in &t2.rows {
        for pct in [row.feeds_pct, row.traceroutes_pct] {
            assert!(pct.is_finite() && (0.0..=100.0).contains(&pct));
        }
    }
    let f1 = ir_experiments::exp_fig1::run(&s, &s.decision_table());
    for v in [
        ir_core::refine::Variant::Simple,
        ir_core::refine::Variant::All1,
    ] {
        if let Some(bar) = f1.bar(v) {
            assert!(bar.best_short.is_finite());
            assert!((0.0..=100.0).contains(&bar.best_short));
        }
    }
}
