//! The Figure 1 refinement pipeline.
//!
//! Seven classifications of the same decision set, each adding a source
//! of routing-policy knowledge; each is one column of the report's
//! [`DecisionTable`](crate::table::DecisionTable):
//!
//! | Variant | Adds |
//! |---|---|
//! | `Simple`  | plain aggregated GR topology |
//! | `Complex` | hybrid / partial-transit relationships (§4.1) |
//! | `Sibs`    | sibling ASes (§4.2) |
//! | `Psp1`    | prefix-specific policies, criterion 1 (§4.3) |
//! | `Psp2`    | prefix-specific policies, criterion 2 |
//! | `All1`    | Complex + Sibs + Psp1 |
//! | `All2`    | Complex + Sibs + Psp2 |

use crate::classify::{ClassifyConfig, PspCriterion};
use ir_inference::feeds::BgpFeed;
use ir_inference::{ComplexRelDb, SiblingGroups};

/// The Figure 1 bars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Variant {
    Simple,
    Complex,
    Sibs,
    Psp1,
    Psp2,
    All1,
    All2,
}

impl Variant {
    /// All variants in Figure 1 order.
    pub const ALL: [Variant; 7] = [
        Variant::Simple,
        Variant::Complex,
        Variant::Sibs,
        Variant::Psp1,
        Variant::Psp2,
        Variant::All1,
        Variant::All2,
    ];

    /// The x-axis label used in Figure 1.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Simple => "Simple",
            Variant::Complex => "Complex",
            Variant::Sibs => "Sibs",
            Variant::Psp1 => "PSP-1",
            Variant::Psp2 => "PSP-2",
            Variant::All1 => "All-1",
            Variant::All2 => "All-2",
        }
    }
}

/// The refinement side data available to the pipeline.
pub struct RefineInputs<'a> {
    pub complex: &'a ComplexRelDb,
    pub siblings: &'a SiblingGroups,
    pub feed: &'a BgpFeed,
}

impl<'a> RefineInputs<'a> {
    /// The classifier configuration for a given variant.
    pub fn config(&self, variant: Variant) -> ClassifyConfig<'a> {
        let mut cfg = ClassifyConfig::default();
        match variant {
            Variant::Simple => {}
            Variant::Complex => cfg.complex = Some(self.complex),
            Variant::Sibs => cfg.siblings = Some(self.siblings),
            Variant::Psp1 => cfg.psp = Some((PspCriterion::One, self.feed)),
            Variant::Psp2 => cfg.psp = Some((PspCriterion::Two, self.feed)),
            Variant::All1 => {
                cfg.complex = Some(self.complex);
                cfg.siblings = Some(self.siblings);
                cfg.psp = Some((PspCriterion::One, self.feed));
            }
            Variant::All2 => {
                cfg.complex = Some(self.complex);
                cfg.siblings = Some(self.siblings);
                cfg.psp = Some((PspCriterion::Two, self.feed));
            }
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{Breakdown, Category};
    use crate::dataset::{Decision, MeasuredPath};
    use crate::table::DecisionTable;
    use ir_topology::RelationshipDb;
    use ir_types::{Asn, Prefix, Relationship};

    fn db() -> RelationshipDb {
        use Relationship::*;
        let mut db = RelationshipDb::default();
        db.insert(Asn(1), Asn(2), Peer);
        db.insert(Asn(3), Asn(1), Provider);
        db.insert(Asn(5), Asn(2), Provider);
        db.insert(Asn(5), Asn(1), Provider);
        db
    }

    fn decision(observer: u32, next: u32, dest: u32, len: usize) -> Decision {
        Decision {
            observer: Asn(observer),
            next_hop: Asn(next),
            dest: Asn(dest),
            prefix: None,
            src: Asn(observer),
            suffix_len: len,
            link_city: None,
            path_index: 0,
        }
    }

    /// The measured path a row points at; no geography.
    fn path(hops: &[u32], prefix: Option<Prefix>) -> MeasuredPath {
        MeasuredPath {
            src: Asn(hops[0]),
            path: hops.iter().copied().map(Asn).collect(),
            dest: Asn(*hops.last().unwrap()),
            prefix,
            hostname: None,
            link_cities: vec![None; hops.len() - 1],
            hop_continents: Vec::new(),
            hop_countries: Vec::new(),
        }
    }

    #[test]
    fn pipeline_runs_all_variants() {
        let db = db();
        let complex = ComplexRelDb::default();
        let world = ir_topology::GeneratorConfig::tiny().build(1);
        let siblings = SiblingGroups::infer(&world.orgs);
        let feed = BgpFeed::default();
        let inputs = RefineInputs {
            complex: &complex,
            siblings: &siblings,
            feed: &feed,
        };
        let decisions = vec![decision(1, 5, 5, 1), decision(1, 2, 5, 2)];
        let paths = [path(&[1, 5], None), path(&[1, 2, 5], None)];
        let table = DecisionTable::new(&db, inputs, &paths, &decisions);
        assert_eq!(Variant::ALL.len(), 7);
        for v in Variant::ALL {
            let b: Breakdown = table.column(v).iter().copied().collect();
            assert_eq!(b.total(), decisions.len(), "{} total", v.label());
            // The direct customer decision is Best/Short under every variant.
            assert!(b.count(Category::BestShort) >= 1);
        }
    }

    #[test]
    fn psp1_filters_unevidenced_origin_edges() {
        use ir_inference::feeds::FeedEntry;
        let db = db();
        // Decision: 1 routes to 5 via peer 2, suffix 2. Plain model says
        // NonBest (customer edge 1–5 exists, shorter and cheaper).
        let prefix: Prefix = "10.9.0.0/24".parse().unwrap();
        let d = {
            let mut d = decision(1, 2, 5, 2);
            d.prefix = Some(prefix);
            d
        };
        let complex = ComplexRelDb::default();
        let world = ir_topology::GeneratorConfig::tiny().build(1);
        let siblings = SiblingGroups::infer(&world.orgs);
        // Feed: 5 announces the prefix only toward 2 (never toward 1).
        let feed = BgpFeed::new(vec![FeedEntry {
            prefix,
            path: vec![Asn(1), Asn(2), Asn(5)],
        }]);
        let inputs = RefineInputs {
            complex: &complex,
            siblings: &siblings,
            feed: &feed,
        };
        let paths = [path(&[1, 2, 5], Some(prefix))];
        let table = DecisionTable::new(&db, inputs, &paths, std::slice::from_ref(&d));
        let count = |v: Variant, c: Category| table.column(v).iter().filter(|&&x| x == c).count();
        // Plain model: the direct customer edge 1–5 predicts a length-1
        // customer route, so the measured peer detour is NonBest *and*
        // Long.
        assert_eq!(count(Variant::Simple, Category::NonBestLong), 1);
        // Under PSP-1 the 1–5 edge is assumed absent for this prefix: the
        // best class at 1 becomes peer with length 2 — the decision is
        // fully explained.
        assert_eq!(
            count(Variant::Psp1, Category::BestShort),
            1,
            "PSP-1 explains the decision"
        );
        // PSP-2 needs evidence that the 1–5 edge ever carried a prefix; the
        // feed never shows it, so the edge is kept and the decision stays
        // unexplained.
        assert_eq!(
            count(Variant::Psp2, Category::NonBestLong),
            1,
            "PSP-2 is conservative"
        );
    }
}
