//! The complex-relationship side dataset (§4.1, after Giotsas et al. 2014).
//!
//! The paper *consumes* Giotsas et al.'s published dataset of hybrid
//! relationships (AS pairs whose arrangement differs by city) and partial
//! transit. Giotsas et al. built it from BGP communities, which our
//! simulator does not model; per the substitution rule we instead derive
//! the dataset from ground truth with a configurable **coverage** rate —
//! the published dataset was itself incomplete, and coverage (not the
//! production method) is what the downstream analysis is sensitive to.

use ir_topology::World;
use ir_types::{Asn, CityId, Relationship};
use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One hybrid-relationship entry: at `city`, `b` is `rel` to `a` (instead
/// of whatever the plain topology says).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HybridEntry {
    pub a: Asn,
    pub b: Asn,
    pub city: CityId,
    /// Relationship of `b` as seen from `a`, at `city`.
    pub rel_of_b_from_a: Relationship,
}

/// The dataset: hybrid entries plus partial-transit pairs.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ComplexRelDb {
    hybrids: Vec<HybridEntry>,
    /// (provider, customer) pairs with partial transit.
    partial_transit: Vec<(Asn, Asn)>,
    index: BTreeMap<(Asn, Asn, CityId), Relationship>,
}

impl ComplexRelDb {
    /// Derives the dataset from ground truth with the given coverage.
    pub fn derive(world: &World, coverage: f64, seed: u64) -> ComplexRelDb {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x61_07_54_5a);
        let mut db = ComplexRelDb::default();
        for a in 0..world.graph.len() {
            for l in world.graph.links(a) {
                if l.peer < a {
                    continue;
                }
                for &(city, rel) in &l.rel_by_city {
                    if rel != l.rel && rng.random_bool(coverage) {
                        db.push_hybrid(HybridEntry {
                            a: world.graph.asn(a),
                            b: world.graph.asn(l.peer),
                            city,
                            rel_of_b_from_a: rel,
                        });
                    }
                }
            }
        }
        for (idx, policy) in world.policies.iter().enumerate() {
            for customer in policy.partial_transit.keys() {
                if rng.random_bool(coverage) {
                    db.partial_transit.push((world.graph.asn(idx), *customer));
                }
            }
        }
        db.partial_transit.sort_unstable();
        db
    }

    /// Inserts a hybrid entry directly. Primarily for tests and
    /// hand-curated datasets (the normal path is [`ComplexRelDb::derive`]).
    pub fn insert_hybrid_for_tests(
        &mut self,
        a: Asn,
        b: Asn,
        city: CityId,
        rel_of_b_from_a: Relationship,
    ) {
        self.push_hybrid(HybridEntry {
            a,
            b,
            city,
            rel_of_b_from_a,
        });
    }

    fn push_hybrid(&mut self, e: HybridEntry) {
        self.index.insert((e.a, e.b, e.city), e.rel_of_b_from_a);
        self.index
            .insert((e.b, e.a, e.city), e.rel_of_b_from_a.reverse());
        self.hybrids.push(e);
    }

    /// The relationship of `b` from `a` at `city`, if the dataset has a
    /// hybrid entry for that pair and city.
    pub fn rel_at(&self, a: Asn, b: Asn, city: CityId) -> Option<Relationship> {
        self.index.get(&(a, b, city)).copied()
    }

    /// Whether `(provider, customer)` is a known partial-transit pair.
    pub fn is_partial_transit(&self, provider: Asn, customer: Asn) -> bool {
        self.partial_transit
            .binary_search(&(provider, customer))
            .is_ok()
    }

    /// All hybrid entries.
    pub fn hybrids(&self) -> &[HybridEntry] {
        &self.hybrids
    }

    /// All partial-transit pairs.
    pub fn partial_transit_pairs(&self) -> &[(Asn, Asn)] {
        &self.partial_transit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_topology::GeneratorConfig;

    #[test]
    fn full_coverage_matches_ground_truth() {
        let w = GeneratorConfig::default().build(13);
        let db = ComplexRelDb::derive(&w, 1.0, 1);
        // Every ground-truth hybrid override appears, with both directional
        // views consistent.
        let mut truth = 0;
        for a in 0..w.graph.len() {
            for l in w.graph.links(a) {
                if l.peer < a {
                    continue;
                }
                for &(city, rel) in &l.rel_by_city {
                    if rel == l.rel {
                        continue;
                    }
                    truth += 1;
                    let asn_a = w.graph.asn(a);
                    let asn_b = w.graph.asn(l.peer);
                    assert_eq!(db.rel_at(asn_a, asn_b, city), Some(rel));
                    assert_eq!(db.rel_at(asn_b, asn_a, city), Some(rel.reverse()));
                }
            }
        }
        assert!(truth > 0, "world has hybrids");
        assert_eq!(db.hybrids().len(), truth);
        // Partial transit covered too.
        let pt_truth: usize = w.policies.iter().map(|p| p.partial_transit.len()).sum();
        assert_eq!(db.partial_transit_pairs().len(), pt_truth);
    }

    #[test]
    fn partial_coverage_drops_entries() {
        let w = GeneratorConfig::default().build(13);
        let full = ComplexRelDb::derive(&w, 1.0, 2);
        let half = ComplexRelDb::derive(&w, 0.5, 2);
        assert!(half.hybrids().len() < full.hybrids().len());
    }

    #[test]
    fn lookup_misses_are_none() {
        let w = GeneratorConfig::tiny().build(13);
        let db = ComplexRelDb::derive(&w, 1.0, 3);
        assert_eq!(db.rel_at(Asn(1), Asn(2), CityId(0)), None);
        assert!(!db.is_partial_transit(Asn(1), Asn(2)));
    }
}
