//! Methodology ablations (DESIGN.md §5/§7), one knob at a time: the
//! Short rule ("≤ the model's shortest", the default, vs strict equality);
//! the collector vantage count, which sizes the inferred topology; and the
//! clique-seed pool of relationship inference. PSP criterion 1 vs 2 and
//! each refinement alone are Figure 1's PSP-1 / PSP-2 / Sibs / Complex
//! bars, so they are not repeated. Not part of the default report:
//! `repro ablations` asks for it.

use crate::report::{pct, TextTable};
use crate::scenario::Scenario;
use ir_core::classify::{Category, Classifier, ClassifyConfig};
use ir_inference::feeds::{self, BgpFeed, FeedConfig};
use ir_inference::relinfer::{infer_relationships, InferConfig};
use ir_types::Asn;
use serde::Serialize;

/// Collector vantage counts swept.
const VANTAGES: [usize; 4] = [4, 8, 16, 32];
/// Clique-seed pool sizes swept.
const CLIQUE_POOLS: [usize; 4] = [5, 10, 20, 40];

/// Inferred-topology size under one knob setting.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LinksAt {
    pub setting: usize,
    pub inferred_links: usize,
}

impl LinksAt {
    fn infer(setting: usize, feed: &BgpFeed, clique_candidates: usize) -> LinksAt {
        let paths: Vec<&[Asn]> = feed.paths().collect();
        let db = infer_relationships(paths, &InferConfig { clique_candidates });
        LinksAt {
            setting,
            inferred_links: db.len(),
        }
    }
}

/// The three ablations.
#[derive(Debug, Clone, Serialize)]
pub struct Ablations {
    /// Best/Short % with Short as "≤ the model's shortest".
    pub short_lenient: f64,
    /// Best/Short % with Short as strict equality.
    pub short_strict: f64,
    /// Ground-truth link count the inferred sizes compare against.
    pub truth_links: usize,
    pub vantages: [LinksAt; 4],
    pub clique_pool: [LinksAt; 4],
    /// Degradation reasons for the scenario inputs consumed (empty when intact).
    pub degraded: Vec<String>,
}

fn best_short(s: &Scenario, strict_short: bool) -> f64 {
    let cfg = ClassifyConfig {
        strict_short,
        ..ClassifyConfig::default()
    };
    Classifier::new(&s.inferred, cfg)
        .breakdown(&s.decisions)
        .pct(Category::BestShort)
}

/// Runs the three ablations: vantage feeds are read loss-free off the
/// scenario's universe; the clique sweep re-infers the scenario's feed.
pub fn run(s: &Scenario) -> Ablations {
    let vantages = VANTAGES.map(|n| {
        let cfg = FeedConfig {
            vantages: n,
            ..s.cfg.feed.clone()
        };
        let picked = feeds::pick_vantages(&s.world, &cfg, s.cfg.seed);
        let feed = feeds::extract_feed(&s.world, &s.universe, &picked);
        LinksAt::infer(n, &feed, InferConfig::default().clique_candidates)
    });
    Ablations {
        short_lenient: best_short(s, false),
        short_strict: best_short(s, true),
        truth_links: s.world.graph.link_count(),
        vantages,
        clique_pool: CLIQUE_POOLS.map(|k| LinksAt::infer(k, &s.feed, k)),
        degraded: s.degraded(&["universe", "feed", "inferred", "decisions"]),
    }
}

impl Ablations {
    /// Text rendering: one row per ablation.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Ablations (DESIGN.md §5/§7): one methodological knob at a time",
            &["Knob", "Settings", "Result"],
        );
        let short = [pct(self.short_lenient), pct(self.short_strict)];
        t.row(&[
            "Short rule".into(),
            "<= / =".into(),
            format!("{} Best/Short", short.join(" / ")),
        ]);
        for (knob, points) in [
            ("Collector vantages", &self.vantages),
            ("Clique-seed pool", &self.clique_pool),
        ] {
            let joined = |f: fn(LinksAt) -> usize| points.map(|p| f(p).to_string()).join(" / ");
            t.row(&[
                knob.into(),
                joined(|p| p.setting),
                format!(
                    "{} of {} links inferred",
                    joined(|p| p.inferred_links),
                    self.truth_links
                ),
            ]);
        }
        t.render()
            + "PSP criterion 1 vs 2 and each refinement alone: Figure 1's \
               PSP-1 / PSP-2 / Sibs / Complex bars.\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_seed7_ablations_are_pinned() {
        let a = run(crate::testutil::tiny7());
        assert_eq!(pct(a.short_lenient), "80.5%");
        assert_eq!(pct(a.short_strict), "77.1%");
        assert_eq!(a.truth_links, 213);
        let links = |v: [LinksAt; 4]| v.map(|p| (p.setting, p.inferred_links));
        assert_eq!(
            links(a.vantages),
            [(4, 137), (8, 161), (16, 179), (32, 190)]
        );
        assert_eq!(
            links(a.clique_pool),
            [(5, 179), (10, 179), (20, 179), (40, 179)]
        );
        assert!(a.degraded.is_empty(), "{:?}", a.degraded);
    }

    #[test]
    fn ablations_stay_out_of_the_default_report() {
        assert!(!crate::report::ALL_EXPERIMENTS.contains(&"ablations"));
    }
}
