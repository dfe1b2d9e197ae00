//! An *informed* routing model — the paper's future work, §7.
//!
//! The paper closes: "we aim to incorporate our findings into new models
//! of Internet routing". This module builds that next model and measures
//! how much it helps. It extends plain Gao–Rexford classification with the
//! two signals the paper showed to matter and showed how to obtain:
//!
//! * **learned neighbor rankings** — the poisoning experiments (§3.2)
//!   reveal each target AS's *actual* preference order over its neighbors,
//!   at the finer-than-relationship granularity that iPlane Nano argued
//!   for and the paper's §4.4 violations demanded. When the informed model
//!   has a revealed ranking for an AS, "Best" means "consistent with the
//!   revealed order", not "cheapest relationship class".
//! * **detected domestic preference** — ASes whose violations are
//!   repeatedly explained by the §6 domestic-path analysis are marked;
//!   their all-domestic decisions satisfy Best by policy.
//!
//! The model is *honestly obtainable*: both signals come from measurement
//! procedures the paper actually ran, never from ground truth.

use crate::classify::Category;
use crate::dataset::Decision;
use crate::table::Row;
use ir_measure::AlternateDiscovery;
use ir_topology::orgs::OrgRegistry;
use ir_types::{Asn, CountryId};
use std::collections::{BTreeMap, BTreeSet};

/// The informed model: learned rankings + detected domestic preference,
/// layered over a configured GR classifier.
pub struct InformedModel {
    /// Revealed preference position of each (AS, neighbor): 0 = most
    /// preferred. Only present for ASes the active experiments covered.
    ranks: BTreeMap<(Asn, Asn), usize>,
    /// ASes detected to prefer domestic paths.
    domestic: BTreeSet<Asn>,
    /// Country each AS is registered in (whois), for the domestic test.
    whois_country: BTreeMap<Asn, CountryId>,
}

impl InformedModel {
    /// Learns the model from the paper's own measurement outputs.
    ///
    /// * `discoveries` — poisoning-revealed preference orders (§3.2);
    /// * `rows` (the passive campaign's decisions under plain GR) +
    ///   `registry` — used to detect domestic-preferring ASes: an AS is
    ///   marked when at least `domestic_threshold` of its violating
    ///   decisions sit on single-country traceroutes.
    pub fn learn<'r>(
        discoveries: &[AlternateDiscovery],
        rows: impl IntoIterator<Item = Row<'r>>,
        registry: &OrgRegistry,
        domestic_threshold: usize,
    ) -> InformedModel {
        let mut ranks = BTreeMap::new();
        for d in discoveries {
            for (pos, r) in d.routes.iter().enumerate() {
                // First revelation wins (it is the most preferred position
                // at which this neighbor ever appeared).
                ranks.entry((d.target, r.next_hop)).or_insert(pos);
            }
        }

        let mut domestic_votes: BTreeMap<Asn, usize> = BTreeMap::new();
        for r in rows {
            if r.category.is_violation() && r.path.domestic().is_some() {
                *domestic_votes.entry(r.decision.observer).or_default() += 1;
            }
        }
        let domestic = domestic_votes
            .into_iter()
            .filter(|(_, n)| *n >= domestic_threshold)
            .map(|(a, _)| a)
            .collect();

        let whois_country = registry
            .whois_records()
            .map(|w| (w.asn, w.country))
            .collect();
        InformedModel {
            ranks,
            domestic,
            whois_country,
        }
    }

    /// Number of (AS, neighbor) pairs with a revealed ranking.
    pub fn learned_pairs(&self) -> usize {
        self.ranks.len()
    }

    /// Number of ASes detected as domestic-preferring.
    pub fn domestic_ases(&self) -> usize {
        self.domestic.len()
    }

    /// Whether the revealed order at `observer` is consistent with using
    /// `next_hop`: no *other* neighbor with a strictly better revealed
    /// rank... is known. `None` when the model has no data for the pair.
    fn rank_consistent(&self, observer: Asn, next_hop: Asn) -> Option<bool> {
        let used = *self.ranks.get(&(observer, next_hop))?;
        // Non-empty by construction (`used` came from this range), so the
        // `?` can only be hit if the map were emptied concurrently — and
        // `&self` forbids that.
        let best = self
            .ranks
            .range((observer, Asn(0))..=(observer, Asn(u32::MAX)))
            .map(|(_, r)| *r)
            .min()?;
        Some(used == best)
    }

    /// Whether the measured path of `d` (from the observer on) stays in
    /// the observer's whois country.
    fn decision_is_domestic(&self, d: &Decision, path: &[Asn]) -> bool {
        let Some(home) = self.whois_country.get(&d.observer) else {
            return false;
        };
        path[d.path_index..]
            .iter()
            .all(|a| self.whois_country.get(a) == Some(home))
    }

    /// A row's category under the informed model: its plain-GR category,
    /// upgraded when learned rankings or detected domestic preference
    /// justify the choice.
    pub fn category(&self, row: &Row<'_>) -> Category {
        let (d, base) = (row.decision, row.category);
        if base == Category::BestShort {
            return base;
        }
        let mut best = base.is_best();
        let mut short = base.is_short();
        // Learned ranking overrides the relationship-class Best test.
        if let Some(consistent) = self.rank_consistent(d.observer, d.next_hop) {
            best = consistent;
        }
        // Detected domestic preference: an all-domestic choice by a
        // domestic-preferring AS is policy-consistent in both dimensions
        // (the AS is optimizing under a constraint the model now knows).
        if self.domestic.contains(&d.observer) && self.decision_is_domestic(d, &row.path.path) {
            best = true;
            short = true;
        }
        Category::of(best, short)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::MeasuredPath;
    use crate::refine::Variant;
    use crate::table::{no_side_data, DecisionTable};
    use ir_measure::peering::DiscoveredRoute;
    use ir_topology::RelationshipDb;
    use ir_types::{CityId, Prefix, Relationship};

    fn db() -> RelationshipDb {
        use Relationship::*;
        let mut db = RelationshipDb::default();
        db.insert(Asn(1), Asn(2), Peer);
        db.insert(Asn(5), Asn(2), Provider);
        db.insert(Asn(5), Asn(1), Provider);
        db
    }

    fn decision(observer: u32, next: u32, dest: u32, len: usize) -> Decision {
        Decision {
            observer: Asn(observer),
            next_hop: Asn(next),
            dest: Asn(dest),
            prefix: None::<Prefix>,
            src: Asn(observer),
            suffix_len: len,
            link_city: None::<CityId>,
            path_index: 0,
        }
    }

    /// A measured path from its first AS, with no geolocated hops (so it
    /// is never domestic and votes for no AS).
    fn path(hops: &[u32]) -> MeasuredPath {
        MeasuredPath {
            src: Asn(hops[0]),
            path: hops.iter().copied().map(Asn).collect(),
            dest: Asn(*hops.last().unwrap()),
            prefix: None,
            hostname: None,
            link_cities: vec![None; hops.len() - 1],
            hop_continents: Vec::new(),
            hop_countries: Vec::new(),
        }
    }

    /// Learns a model from `discoveries` and the table over one path, and
    /// checks the table's first row against `expected` before handing both
    /// to `check`.
    fn with_first_row(
        hops: &[u32],
        expected: Decision,
        discoveries: &[AlternateDiscovery],
        registry: &OrgRegistry,
        check: impl FnOnce(&mut InformedModel, Row<'_>),
    ) {
        let db = db();
        let paths = [path(hops)];
        let decisions = paths[0].decisions();
        let table = DecisionTable::new(&db, no_side_data(), &paths, &decisions);
        let mut model = InformedModel::learn(discoveries, table.rows(Variant::Simple), registry, 1);
        let row = table.rows(Variant::Simple).next().unwrap();
        assert_eq!(row.decision, &expected);
        check(&mut model, row);
    }

    fn discovery(target: u32, hops: &[u32]) -> AlternateDiscovery {
        AlternateDiscovery {
            target: Asn(target),
            announcements: hops.len(),
            routes: hops
                .iter()
                .enumerate()
                .map(|(round, &nh)| DiscoveredRoute {
                    round,
                    next_hop: Asn(nh),
                    suffix: vec![Asn(nh), Asn(99)],
                })
                .collect(),
            degraded: Vec::new(),
        }
    }

    fn empty_registry() -> OrgRegistry {
        OrgRegistry::default()
    }

    #[test]
    fn learned_ranking_upgrades_nonbest_decisions() {
        // GR says: 1 routing to 5 via peer 2 is NonBest (customer 5 direct).
        // The poisoning experiment revealed that 1 actually prefers 2 first.
        let discoveries = vec![discovery(1, &[2, 5])];
        let d = decision(1, 2, 5, 2);
        with_first_row(
            &[1, 2, 5],
            d,
            &discoveries,
            &empty_registry(),
            |model, row| {
                assert_eq!(model.learned_pairs(), 2);
                assert!(!row.category.is_best(), "plain GR flags the peer detour");
                assert!(
                    model.category(&row).is_best(),
                    "revealed ranking explains it"
                );
            },
        );
    }

    #[test]
    fn learned_ranking_still_flags_inconsistent_choices() {
        // Revealed order at 1: prefers 5 first, then 2. Using 2 while 5
        // was available stays NonBest even under the informed model.
        let discoveries = vec![discovery(1, &[5, 2])];
        let d = decision(1, 2, 5, 2);
        with_first_row(
            &[1, 2, 5],
            d,
            &discoveries,
            &empty_registry(),
            |model, row| {
                assert!(!model.category(&row).is_best());
            },
        );
    }

    #[test]
    fn no_data_falls_back_to_gr() {
        let d = decision(1, 5, 5, 1);
        with_first_row(&[1, 5], d, &[], &empty_registry(), |model, row| {
            assert_eq!(model.learned_pairs(), 0);
            assert_eq!(model.domestic_ases(), 0);
            assert_eq!(model.category(&row), row.category);
        });
    }

    #[test]
    fn domestic_detection_requires_whois_and_threshold() {
        use ir_topology::orgs::WhoisRecord;
        let mut reg = OrgRegistry::default();
        for asn in [1u32, 2, 5] {
            reg.add_whois(WhoisRecord {
                asn: Asn(asn),
                email: format!("noc@as{asn}.example"),
                org_field: format!("ORG-{asn}"),
                country: CountryId(3),
            });
        }
        // A model with AS 1 marked domestic (manually, via a path set that
        // votes it over the threshold) upgrades its domestic detours.
        let d = decision(1, 2, 5, 2);
        with_first_row(&[1, 2, 5], d.clone(), &[], &reg, |model, row| {
            model.domestic.insert(Asn(1));
            assert_eq!(model.category(&row), Category::BestShort);
        });
        // A path through an AS in another country is not domestic.
        reg.add_whois(WhoisRecord {
            asn: Asn(2),
            email: "noc@as2.example".into(),
            org_field: "ORG-2B".into(),
            country: CountryId(9),
        });
        with_first_row(&[1, 2, 5], d, &[], &reg, |model, row| {
            model.domestic.insert(Asn(1));
            assert!(model.category(&row).is_violation());
        });
    }
}
