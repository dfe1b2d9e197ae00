#![forbid(unsafe_code)]
// Library code must degrade gracefully, never panic on data: unwrap/expect
// are denied outside tests (gate enforced by scripts/check.sh).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! End-to-end reproduction harness.
//!
//! [`scenario::Scenario`] assembles one complete experiment environment —
//! synthetic Internet, converged routing, measurement platforms, inferred
//! topologies — and the `exp_*` modules each regenerate one table or
//! figure of the paper:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`exp_table1`] | Table 1 — probe distribution by AS type |
//! | [`exp_fig1`] | Figure 1 — decision breakdown across refinements |
//! | [`exp_table2`] | Table 2 — magnet-experiment decision attribution |
//! | [`exp_alternates`] | §4.4 — alternate-route order consistency + §3.2 link stats |
//! | [`exp_fig2`] | Figure 2 — violation skew by source/destination AS |
//! | [`exp_fig3`] | Figure 3 — continental vs intercontinental breakdown |
//! | [`exp_table3`] | Table 3 — domestic-path preference per continent |
//! | [`exp_table4`] | Table 4 — undersea-cable attribution |
//! | [`exp_validation`] | §4.3 — looking-glass validation of PSP inferences |
//! | [`exp_informed`] | beyond the paper: §7's "new model" evaluated |
//! | [`exp_consistency`] | beyond the paper: destination-based-routing check |
//! | [`exp_lg_augment`] | beyond the paper: looking-glass topology augmentation |
//! | [`exp_predict`] | beyond the paper: whole-path prediction accuracy |
//! | [`exp_ablations`] | DESIGN.md §5/§7 methodology ablations (on request) |
//!
//! Every runner returns a serializable result struct with a
//! paper-style `render()`; the `repro` binary runs them all (the
//! ablations only when named) and `EXPERIMENTS.md` is generated from the
//! JSON output.

pub mod exp_ablations;
pub mod exp_alternates;
pub mod exp_consistency;
pub mod exp_fig1;
pub mod exp_fig2;
pub mod exp_fig3;
pub mod exp_informed;
pub mod exp_lg_augment;
pub mod exp_predict;
pub mod exp_table1;
pub mod exp_table2;
pub mod exp_table3;
pub mod exp_table4;
pub mod exp_validation;
pub mod report;
pub mod scenario;

pub use scenario::{Scenario, ScenarioConfig};

#[cfg(test)]
pub(crate) mod testutil {
    //! One tiny scenario shared by every unit test in this crate —
    //! building it is by far the most expensive step, and the runners
    //! only read it — with the inputs `assemble_report` shares between
    //! sections: the decision table and a poisoning campaign.
    use crate::scenario::{Scenario, ScenarioConfig};
    use ir_core::table::DecisionTable;
    use ir_measure::peering::AlternateDiscovery;
    use std::sync::OnceLock;

    pub(crate) fn tiny7() -> &'static Scenario {
        static S: OnceLock<Scenario> = OnceLock::new();
        S.get_or_init(|| Scenario::build(ScenarioConfig::tiny(7)))
    }

    pub(crate) fn table() -> &'static DecisionTable<'static> {
        static T: OnceLock<DecisionTable<'static>> = OnceLock::new();
        T.get_or_init(|| tiny7().decision_table())
    }

    /// A 40-target campaign: enough informative targets for the
    /// alternates and informed tests.
    pub(crate) fn campaign() -> &'static [AlternateDiscovery] {
        static D: OnceLock<Vec<AlternateDiscovery>> = OnceLock::new();
        D.get_or_init(|| {
            crate::exp_alternates::poisoning_campaign(tiny7(), 40)
                .expect("tiny worlds have a testbed")
        })
    }
}
