//! Geography analyses: Figure 3 and Tables 3–4 (§6), folds over the
//! report's [`DecisionTable`].
//!
//! * **Continental breakdown** — traceroutes whose geolocated hops all
//!   stay on one continent are "continental"; the model explains those
//!   noticeably better than intercontinental ones. Figure 3 is the table
//!   tallied by [`MeasuredPath::continental`].
//! * **Domestic paths** — traceroutes that stay inside one country while
//!   the model predicts a better (Best/Short) path through a foreign AS
//!   (by whois registration) expose a domestic-preference policy.
//! * **Undersea cables** — decisions involving an independently-operated
//!   cable AS (from the TeleGeography-like side list) deviate from the
//!   model at a far higher rate than ordinary decisions.
//!
//! [`MeasuredPath::continental`]: crate::dataset::MeasuredPath::continental

use crate::classify::Category;
use crate::grmodel::GrRoutes;
use crate::refine::Variant;
use crate::table::{DecisionTable, Row};
use ir_topology::orgs::OrgRegistry;
use ir_types::{Asn, Continent};
use rayon::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Table 3: violations explained by domestic-path preference, per
/// continent: `(explained, total violations on single-country paths)`.
#[derive(Debug, Clone, Default)]
pub struct DomesticStats {
    pub per_continent: BTreeMap<Continent, (usize, usize)>,
}

impl DomesticStats {
    /// The explained percentage for a continent.
    pub fn pct(&self, c: Continent) -> f64 {
        match self.per_continent.get(&c) {
            Some(&(_, 0)) | None => 0.0,
            Some(&(e, t)) => 100.0 * e as f64 / t as f64,
        }
    }

    /// Overall explained fraction.
    pub fn overall(&self) -> f64 {
        let (e, t) = self
            .per_continent
            .values()
            .fold((0usize, 0usize), |(ae, at), &(e, t)| (ae + e, at + t));
        if t == 0 {
            0.0
        } else {
            e as f64 / t as f64
        }
    }
}

/// Runs the Table 3 analysis.
///
/// A violating decision is *explained by domestic preference* when (a) the
/// geolocated traceroute never left one country, and (b) the model's
/// shortest best-class path from the observer crosses an AS registered
/// (whois) outside both the source and destination ASes' countries — i.e.
/// the modeled alternative is multinational and the AS demonstrably
/// avoided it.
pub fn domestic_stats(table: &DecisionTable<'_>, registry: &OrgRegistry) -> DomesticStats {
    // Only violations on traceroutes that stayed inside one country are
    // candidates for the domestic-preference explanation (§6 "Domestic
    // paths"), each with the continent it reports under.
    let candidates: Vec<(Row<'_>, Continent)> = table
        .rows(Variant::Simple)
        .filter(|r| r.category.is_violation() && r.path.domestic().is_some())
        .filter_map(|r| r.path.continental().map(|c| (r, c)))
        .collect();
    // The model's routes for every violating destination, in parallel. Path
    // extraction ignores PSP filtering, so the classifier's (prefix-keyed)
    // cache cannot serve them.
    let mut dests: Vec<Asn> = candidates.iter().map(|(r, _)| r.decision.dest).collect();
    dests.sort_unstable();
    dests.dedup();
    let model = table.classifier().model();
    let computed: Vec<(Asn, GrRoutes)> = dests
        .par_iter()
        .map(|&dest| (dest, model.routes_to(dest)))
        .collect();
    let routes: BTreeMap<Asn, GrRoutes> = computed.into_iter().collect();
    let mut out = DomesticStats::default();
    for (r, continent) in candidates {
        let entry = out.per_continent.entry(continent).or_insert((0, 0));
        entry.1 += 1;
        // Extract the model's preferred path and test for a foreign AS; a
        // path that cannot be extracted forgoes the test.
        let d = r.decision;
        let Some(model_path) = routes.get(&d.dest).and_then(|g| g.extract_path(d.observer)) else {
            continue;
        };
        let country = |asn| registry.whois(asn).map(|w| w.country);
        let (src_country, dst_country) = (country(r.path.src), country(r.path.dest));
        let multinational = model_path.iter().any(|&asn| match country(asn) {
            Some(c) => Some(c) != src_country && Some(c) != dst_country,
            None => false,
        });
        if multinational {
            entry.0 += 1;
        }
    }
    out
}

/// Table 4: deviations attributable to undersea-cable ASes.
#[derive(Debug, Clone, Default)]
pub struct CableStats {
    /// Per violating category: (involving a cable AS, total).
    pub per_category: BTreeMap<Category, (usize, usize)>,
    /// Paths with a cable AS on them / total paths.
    pub paths_with_cables: usize,
    pub total_paths: usize,
    /// Decisions involving cable ASes: (deviant, total).
    pub cable_decisions: (usize, usize),
}

impl CableStats {
    /// Fraction of decisions of the given violating category explained by
    /// cables.
    pub fn pct(&self, c: Category) -> f64 {
        match self.per_category.get(&c) {
            Some(&(_, 0)) | None => 0.0,
            Some(&(e, t)) => 100.0 * e as f64 / t as f64,
        }
    }

    /// Fraction of paths crossing a cable AS.
    pub fn path_fraction(&self) -> f64 {
        if self.total_paths == 0 {
            0.0
        } else {
            self.paths_with_cables as f64 / self.total_paths as f64
        }
    }

    /// Fraction of cable-involving decisions that deviate from Best/Short.
    pub fn deviant_fraction(&self) -> f64 {
        let (d, t) = self.cable_decisions;
        if t == 0 {
            0.0
        } else {
            d as f64 / t as f64
        }
    }
}

/// Runs the Table 4 analysis against the cable-AS side list: a decision
/// involves a cable when its observer or its next hop is a cable AS.
pub fn cable_stats(table: &DecisionTable<'_>, cable_asns: &BTreeSet<Asn>) -> CableStats {
    let paths = table.paths();
    let by_cable = table.tally_by(Variant::Simple, |r| {
        cable_asns.contains(&r.decision.observer) || cable_asns.contains(&r.decision.next_hop)
    });
    let cable = by_cable.get(&true).copied().unwrap_or_default();
    let other = by_cable.get(&false).copied().unwrap_or_default();
    CableStats {
        per_category: [
            Category::NonBestShort,
            Category::BestLong,
            Category::NonBestLong,
        ]
        .into_iter()
        .map(|c| (c, (cable.count(c), cable.count(c) + other.count(c))))
        .filter(|&(_, (_, total))| total > 0)
        .collect(),
        paths_with_cables: paths
            .iter()
            .filter(|p| p.path.iter().any(|a| cable_asns.contains(a)))
            .count(),
        total_paths: paths.len(),
        cable_decisions: (cable.violations(), cable.total()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Decision, MeasuredPath};
    use crate::table::no_side_data;
    use ir_topology::RelationshipDb;
    use ir_types::{CityId, CountryId, Prefix, Relationship};

    fn db() -> RelationshipDb {
        use Relationship::*;
        let mut db = RelationshipDb::default();
        db.insert(Asn(1), Asn(2), Peer);
        db.insert(Asn(3), Asn(1), Provider);
        db.insert(Asn(5), Asn(2), Provider);
        db.insert(Asn(5), Asn(1), Provider);
        db
    }

    fn path(src: u32, hops: &[u32], continents: &[Continent]) -> MeasuredPath {
        MeasuredPath {
            src: Asn(src),
            path: hops.iter().copied().map(Asn).collect(),
            dest: Asn(*hops.last().unwrap()),
            prefix: None::<Prefix>,
            hostname: None,
            link_cities: vec![None::<CityId>; hops.len() - 1],
            hop_continents: continents.to_vec(),
            hop_countries: vec![CountryId(0); continents.len()],
        }
    }

    fn decisions(paths: &[MeasuredPath]) -> Vec<Decision> {
        paths.iter().flat_map(|p| p.decisions()).collect()
    }

    /// Figure 3's fold: the table tallied by the continent its path stayed
    /// on, if any.
    #[test]
    fn continental_split() {
        let db = db();
        let paths = vec![
            path(3, &[3, 1, 5], &[Continent::Europe, Continent::Europe]),
            path(3, &[3, 1, 2, 5], &[Continent::Europe, Continent::Asia]),
        ];
        let decisions = decisions(&paths);
        let t = DecisionTable::new(&db, no_side_data(), &paths, &decisions);
        let g = t.tally_by(Variant::Simple, |r| r.path.continental());
        assert_eq!(t.paths().len(), 2);
        assert_eq!(
            paths.iter().filter(|p| p.continental().is_some()).count(),
            1
        );
        let continental: usize = g
            .iter()
            .filter(|(c, _)| c.is_some())
            .map(|(_, b)| b.total())
            .sum();
        assert_eq!(continental, 2); // two decisions on the EU path
        assert_eq!(g[&None].total(), 3);
        assert_eq!(g[&Some(Continent::Europe)].total(), 2);
    }

    #[test]
    fn cable_attribution() {
        let db = db();
        // 1→2→5 is NonBest/Long at 1 (the direct customer link 1–5 is
        // shorter and cheaper in the model).
        let paths = vec![path(1, &[1, 2, 5], &[Continent::Europe, Continent::Asia])];
        let decisions = decisions(&paths);
        let t = DecisionTable::new(&db, no_side_data(), &paths, &decisions);
        let cables: BTreeSet<Asn> = [Asn(2)].into_iter().collect();
        let s = cable_stats(&t, &cables);
        assert_eq!(s.paths_with_cables, 1);
        assert!(s.path_fraction() > 0.99);
        // Decision 1→2 involves the cable and is a violation; decision 2→5
        // involves it too (observer is the cable) but is model-consistent.
        assert_eq!(s.cable_decisions, (1, 2));
        assert!(s.deviant_fraction() > 0.0);
        let nbl = s
            .per_category
            .get(&Category::NonBestLong)
            .copied()
            .unwrap_or((0, 0));
        assert_eq!(nbl, (1, 1));
    }
}
