//! Figure 2 — skew of violations across source and destination ASes.
//!
//! Violations concentrate on a few destination ASes — in the paper, ASes
//! owned by the two big content providers (Akamai 21%, Netflix 17%) — and
//! the source-side skew is milder.

use crate::report::TextTable;
use crate::scenario::Scenario;
use ir_core::classify::Category;
use ir_core::refine::Variant;
use ir_core::skew::SkewCurve;
use ir_core::table::DecisionTable;
use serde::Serialize;

/// The full result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig2 {
    pub total_violations: usize,
    /// Cumulative fraction after the top-k destination ASes (k = 1..).
    pub dest_cumulative: Vec<f64>,
    /// Cumulative fraction after the top-k source ASes.
    pub src_cumulative: Vec<f64>,
    /// Per-subtype cumulative series over destinations, keyed by the
    /// Figure 2 legend labels ("Best+Long", "NonBest+Short",
    /// "NonBest+Long").
    pub dest_by_subtype: Vec<(String, Vec<f64>)>,
    /// Per-subtype cumulative series over sources.
    pub src_by_subtype: Vec<(String, Vec<f64>)>,
    /// Top destinations: (ASN, share of violations, owning content
    /// provider if any).
    pub top_destinations: Vec<(u32, f64, Option<String>)>,
    /// Top sources: (ASN, share of violations).
    pub top_sources: Vec<(u32, f64)>,
    pub dest_skew: f64,
    pub src_skew: f64,
    /// Why this run is partial, if it is: degradation reasons for the
    /// scenario inputs this experiment consumed (empty when intact).
    pub degraded: Vec<String>,
}

/// Runs the experiment over `table`, the scenario's decision table: its
/// Simple column tallied by destination and by source AS.
pub fn run(s: &Scenario, table: &DecisionTable<'_>) -> Fig2 {
    let by_dest = table.tally_by(Variant::Simple, |r| r.decision.dest);
    let by_src = table.tally_by(Variant::Simple, |r| r.decision.src);
    let dest = SkewCurve::build(&by_dest, None);
    let src = SkewCurve::build(&by_src, None);

    let provider_of = |asn: ir_types::Asn| -> Option<String> {
        s.world
            .content
            .providers()
            .iter()
            .find(|p| {
                p.origin_asns.contains(&asn)
                    || p.deployments.iter().any(|d| d.host_as == asn && !d.offnet)
            })
            .map(|p| p.name.clone())
    };
    let top_destinations = dest
        .ranked
        .iter()
        .take(5)
        .map(|&(a, n)| {
            (
                a.value(),
                n as f64 / dest.total.max(1) as f64,
                provider_of(a),
            )
        })
        .collect();
    let top_sources = src
        .ranked
        .iter()
        .take(5)
        .map(|&(a, n)| (a.value(), n as f64 / src.total.max(1) as f64))
        .collect();

    // The paper plots each violation subtype as its own CDF.
    let subtype = |tallies| {
        [
            ("Best+Long", Category::BestLong),
            ("NonBest+Short", Category::NonBestShort),
            ("NonBest+Long", Category::NonBestLong),
        ]
        .into_iter()
        .map(|(label, cat)| {
            (
                label.to_string(),
                SkewCurve::build(tallies, Some(cat)).cumulative(),
            )
        })
        .collect::<Vec<_>>()
    };
    Fig2 {
        degraded: s.degraded(&["decisions", "inferred"]),
        total_violations: dest.total,
        dest_cumulative: dest.cumulative(),
        src_cumulative: src.cumulative(),
        dest_by_subtype: subtype(&by_dest),
        src_by_subtype: subtype(&by_src),
        top_destinations,
        top_sources,
        dest_skew: dest.skew_coefficient(),
        src_skew: src.skew_coefficient(),
    }
}

impl Fig2 {
    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Figure 2: Violation skew (top contributors)",
            &["Rank", "Dest AS (share)", "Source AS (share)"],
        );
        for i in 0..self.top_destinations.len().max(self.top_sources.len()) {
            let d = self
                .top_destinations
                .get(i)
                .map(|(a, f, p)| {
                    let tag = p.as_deref().map(|n| format!(" [{n}]")).unwrap_or_default();
                    format!("AS{a}{tag} ({:.1}%)", 100.0 * f)
                })
                .unwrap_or_default();
            let sr = self
                .top_sources
                .get(i)
                .map(|(a, f)| format!("AS{a} ({:.1}%)", 100.0 * f))
                .unwrap_or_default();
            t.row(&[(i + 1).to_string(), d, sr]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "total violations: {} | skew coefficient: destinations {:.3}, sources {:.3}\n",
            self.total_violations, self.dest_skew, self.src_skew
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::OnceLock;

    fn fig2() -> &'static Fig2 {
        static R: OnceLock<Fig2> = OnceLock::new();
        R.get_or_init(|| run(crate::testutil::tiny7(), crate::testutil::table()))
    }

    #[test]
    fn violations_are_skewed_toward_destinations() {
        let f = fig2();
        assert!(f.total_violations > 0);
        // Cumulative curves are monotone and end at 1.
        for curve in [&f.dest_cumulative, &f.src_cumulative] {
            assert!(curve.windows(2).all(|w| w[0] <= w[1] + 1e-12));
            assert!((curve.last().unwrap() - 1.0).abs() < 1e-9);
        }
        // The top destination holds a disproportionate share.
        let top = f.top_destinations[0].1;
        let even = 1.0 / f.dest_cumulative.len() as f64;
        assert!(
            top > 2.0 * even,
            "top dest share {top:.3} vs even {even:.3}"
        );
    }

    #[test]
    fn subtype_curves_are_monotone_cdf_series() {
        let f = fig2();
        for (label, curve) in f.dest_by_subtype.iter().chain(f.src_by_subtype.iter()) {
            if curve.is_empty() {
                continue; // subtype absent in this seed
            }
            assert!(
                curve.windows(2).all(|w| w[0] <= w[1] + 1e-12),
                "{label} monotone"
            );
            assert!(
                (curve.last().unwrap() - 1.0).abs() < 1e-9,
                "{label} ends at 1"
            );
        }
        assert_eq!(f.dest_by_subtype.len(), 3);
    }

    #[test]
    fn render_names_content_providers_when_involved() {
        let f = fig2();
        let s = f.render();
        assert!(s.contains("total violations"));
        // At least one top destination is attributable to a content
        // provider's serving infrastructure in most seeds; don't hard-fail
        // if not, but the field must be present in JSON either way.
        let json = serde_json::to_string(f).unwrap();
        assert!(json.contains("top_destinations"));
    }
}
