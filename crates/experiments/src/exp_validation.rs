//! §4.3 validation — prefix-specific-policy inferences vs looking glasses.
//!
//! Criterion 1's claims ("origin O does not announce prefix P to neighbor
//! N") are checked at looking glasses hosted by the neighbor ASes. The
//! paper could find glasses in 28 of 149 neighbor ASes and verified 10
//! cases at 78% precision; here the same workflow runs against the
//! simulated glass network, and ground truth additionally reports the true
//! precision over *all* cases.

use crate::report::TextTable;
use crate::scenario::Scenario;
use ir_core::validate::{psp_cases, validate_cases, PspCase};
use ir_types::{Asn, Prefix};
use serde::Serialize;

/// The full result.
#[derive(Debug, Clone, Serialize)]
pub struct Validation {
    pub cases: usize,
    pub neighbor_ases: usize,
    pub neighbors_with_glass: usize,
    pub checked: usize,
    pub confirmed: usize,
    pub refuted: usize,
    pub precision: f64,
    /// Ground-truth precision over all cases (simulator-only oracle).
    pub true_precision: f64,
    /// Why this run is partial, if it is: degradation reasons for the
    /// scenario inputs this experiment consumed (empty when intact).
    pub degraded: Vec<String>,
}

/// Runs the experiment, checking at most `limit` cases at glasses.
pub fn run(s: &Scenario, limit: usize) -> Validation {
    let cases = cases(s);
    let report = validate_cases(&s.world, &s.lg, &cases, limit);

    // Ground-truth precision: a case is truly correct when the origin's
    // policy really withholds the prefix from that neighbor (or the link
    // does not exist at all).
    let mut truly_correct = 0usize;
    for c in &cases {
        let correct = match s.world.graph.index_of(c.origin) {
            None => true,
            Some(idx) => {
                let policy = s.world.policy(idx);
                let neighbor_idx = s.world.graph.index_of(c.neighbor);
                let linked = neighbor_idx
                    .map(|n| s.world.graph.link(idx, n).is_some())
                    .unwrap_or(false);
                !linked || !policy.may_announce(&c.prefix, c.neighbor)
            }
        };
        if correct {
            truly_correct += 1;
        }
    }
    let true_precision = if cases.is_empty() {
        0.0
    } else {
        truly_correct as f64 / cases.len() as f64
    };

    Validation {
        degraded: s.degraded(&["feed", "inferred", "lg"]),
        cases: cases.len(),
        neighbor_ases: report.neighbor_ases,
        neighbors_with_glass: report.neighbors_with_glass,
        checked: report.checkable,
        confirmed: report.confirmed,
        refuted: report.refuted,
        precision: report.precision(),
        true_precision,
    }
}

/// The PSP case list: criterion-1 claims about every prefix of a
/// multi-prefix origin, where per-prefix behavior can differ.
pub fn cases(s: &Scenario) -> Vec<PspCase> {
    let mut origins: Vec<(Asn, Prefix)> = Vec::new();
    for node in s.world.graph.nodes() {
        if node.prefixes.len() >= 2 {
            for p in &node.prefixes {
                origins.push((node.asn, *p));
            }
        }
    }
    psp_cases(&s.inferred, &s.feed, &origins)
}

impl Validation {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Section 4.3: PSP validation via looking glasses",
            &["Metric", "Value"],
        );
        t.row(&["PSP cases".into(), self.cases.to_string()]);
        t.row(&["Neighbor ASes".into(), self.neighbor_ases.to_string()]);
        t.row(&[
            "Neighbors with a glass".into(),
            self.neighbors_with_glass.to_string(),
        ]);
        t.row(&["Cases checked".into(), self.checked.to_string()]);
        t.row(&["Confirmed".into(), self.confirmed.to_string()]);
        t.row(&["Refuted".into(), self.refuted.to_string()]);
        t.row(&[
            "Precision (checked)".into(),
            format!("{:.0}%", 100.0 * self.precision),
        ]);
        t.row(&[
            "True precision (oracle)".into(),
            format!("{:.0}%", 100.0 * self.true_precision),
        ]);
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn scenario() -> &'static Scenario {
        crate::testutil::tiny7()
    }

    #[test]
    fn validation_finds_and_checks_cases() {
        let s = scenario();
        let v = run(s, 10);
        assert!(v.cases > 0, "PSP cases exist");
        assert!(v.neighbors_with_glass <= v.neighbor_ases);
        assert_eq!(v.checked, v.confirmed + v.refuted);
        // Criterion 1 is mostly right but not perfect — the paper's 78%.
        assert!(
            v.true_precision > 0.4 && v.true_precision <= 1.0,
            "true precision {:.2}",
            v.true_precision
        );
    }

    #[test]
    fn case_list_is_deterministic() {
        let s = scenario();
        assert_eq!(cases(s), cases(s));
    }
}
