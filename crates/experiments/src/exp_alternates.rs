//! §4.4 alternate routes + §3.2 dataset statistics.
//!
//! For every target AS observed on paths toward the testbed, poison its
//! way down the preference list and check the revealed order against the
//! inferred topology (Best / Shortest / both / neither). Also the link
//! accounting: how many observed inter-AS links are missing from the
//! inferred topology, and what fraction of those only poisoning exposed.

use crate::exp_table2::monitor_setup;
use crate::report::{count_pct, TextTable};
use crate::scenario::Scenario;
use ir_core::alternates::{check_order, LinkAccounting, OrderSummary, OrderVerdict};
use ir_fault::FaultPlane;
use ir_measure::peering::{observe_routes, AlternateDiscovery, Peering};
use ir_types::{Asn, Timestamp};
use serde::Serialize;

/// The full result.
#[derive(Debug, Clone, Serialize)]
pub struct Alternates {
    pub targets: usize,
    pub informative_targets: usize,
    pub both: usize,
    pub best_only: usize,
    pub shortest_only: usize,
    pub neither: usize,
    pub total_announcements: usize,
    pub observed_links: usize,
    pub links_missing_from_inferred: usize,
    pub poisoning_only_links: usize,
    pub poisoning_only_fraction: f64,
    /// Why this run is partial, if it is: degradation reasons for the
    /// scenario inputs this experiment consumed (empty when intact).
    pub degraded: Vec<String>,
}

/// Rounds per target in the §3.2 poisoning campaign.
const MAX_ROUNDS: usize = 8;

/// The §3.2 poisoning campaign both active experiments learn from, on the
/// testbed's first prefix through the monitor setup. Its targets are the
/// ASes observed on paths toward the testbed after the unpoisoned anycast
/// (§3.2 targeted the 360 ASes it saw), muxes excluded, capped at
/// `max_targets` (0 = all observed). `None` when the world was generated
/// without a testbed AS.
pub fn poisoning_campaign(s: &Scenario, max_targets: usize) -> Option<Vec<AlternateDiscovery>> {
    let peering = Peering::new(&s.world)?;
    let setup = monitor_setup(s);
    let prefix = peering.prefixes()[0];
    let mut sim = peering.sim(prefix);
    sim.announce(peering.anycast(prefix, &[]), Timestamp::ZERO);
    let mut targets: Vec<Asn> = observe_routes(&sim, &setup)
        .into_keys()
        .filter(|a| *a != Asn::TESTBED && !peering.muxes().contains(a))
        .collect();
    if max_targets > 0 {
        targets.truncate(max_targets);
    }
    Some(peering.campaign(prefix, &targets, &setup, MAX_ROUNDS, &FaultPlane::quiet()))
}

/// Runs the experiment over a [`poisoning_campaign`]'s discoveries.
///
/// A world generated without a testbed AS cannot run active experiments
/// (`None`); the result is then the empty (all-zero) accounting rather
/// than a panic, so the rest of the pipeline still reports.
pub fn run(s: &Scenario, campaign: Option<&[AlternateDiscovery]>) -> Alternates {
    let Some(discoveries) = campaign else {
        let mut degraded = s.degraded(&["universe", "inferred"]);
        degraded.push("world: no testbed AS — active experiments skipped".into());
        return Alternates {
            degraded,
            targets: 0,
            informative_targets: 0,
            both: 0,
            best_only: 0,
            shortest_only: 0,
            neither: 0,
            total_announcements: 0,
            observed_links: 0,
            links_missing_from_inferred: 0,
            poisoning_only_links: 0,
            poisoning_only_fraction: 0.0,
        };
    };
    let verdicts: Vec<OrderVerdict> = discoveries
        .iter()
        .map(|d| check_order(&s.inferred, d))
        .collect();
    let summary = OrderSummary::tally(verdicts.iter());
    let acc = LinkAccounting::build(&s.inferred, discoveries);

    Alternates {
        degraded: s.degraded(&["universe", "inferred"]),
        targets: discoveries.len(),
        informative_targets: summary.total(),
        both: summary.both,
        best_only: summary.best_only,
        shortest_only: summary.shortest_only,
        neither: summary.neither,
        total_announcements: discoveries.iter().map(|d| d.announcements).sum(),
        observed_links: acc.observed.len(),
        links_missing_from_inferred: acc.missing_from_db.len(),
        poisoning_only_links: acc.only_via_poisoning.len(),
        poisoning_only_fraction: acc.poisoning_only_fraction(),
    }
}

impl Alternates {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Section 4.4: Alternate-route order consistency",
            &["Property", "Targets"],
        );
        let n = self.informative_targets;
        t.row(&["Best and Shortest".into(), count_pct(self.both, n)]);
        t.row(&["Best only".into(), count_pct(self.best_only, n)]);
        t.row(&["Shortest only".into(), count_pct(self.shortest_only, n)]);
        t.row(&["Neither".into(), count_pct(self.neither, n)]);
        let mut out = t.render();
        out.push_str(&format!(
            "targets probed: {} | poisoned announcements: {}\n\
             inter-AS links observed: {} | missing from inferred topology: {} \
             ({} = {:.1}% only visible via poisoning)\n",
            self.targets,
            self.total_announcements,
            self.observed_links,
            self.links_missing_from_inferred,
            self.poisoning_only_links,
            100.0 * self.poisoning_only_fraction,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::OnceLock;

    fn result() -> &'static Alternates {
        static R: OnceLock<Alternates> = OnceLock::new();
        R.get_or_init(|| run(crate::testutil::tiny7(), Some(crate::testutil::campaign())))
    }

    #[test]
    fn most_targets_follow_both_properties() {
        let r = result();
        assert!(r.informative_targets > 5, "enough informative targets");
        // The large majority follows Best and Shortest (paper: 86.1%).
        assert!(
            r.both * 10 >= r.informative_targets * 5,
            "both={} of {}",
            r.both,
            r.informative_targets
        );
        assert_eq!(
            r.both + r.best_only + r.shortest_only + r.neither,
            r.informative_targets
        );
    }

    #[test]
    fn poisoning_exposes_hidden_links() {
        let r = result();
        assert!(r.observed_links > 0);
        assert!(
            r.links_missing_from_inferred > 0,
            "the inferred topology misses some observed links"
        );
        assert!(r.render().contains("only visible via poisoning"));
    }
}
