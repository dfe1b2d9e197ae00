//! Cross-crate equivalence of the arena-backed classifier:
//! [`Classifier::classify_batch`] returns exactly what sequential
//! [`Classifier::classify`] calls return, element for element — including
//! on a classifier whose cache is already warm. (The arena-backed
//! `GrModel` is checked against an independent Bellman–Ford reference by
//! `grmodel`'s own `differential_tests`.)

use ir_core::classify::{Classifier, ClassifyConfig};
use ir_core::dataset::Decision;
use ir_topology::RelationshipDb;
use ir_types::{Asn, Relationship};
use proptest::prelude::*;

fn random_db(n: usize, picks: &[u8]) -> RelationshipDb {
    let mut db = RelationshipDb::default();
    let mut k = 0usize;
    for i in 0..n as u32 {
        for j in (i + 1)..n as u32 {
            let pick = picks[k % picks.len()];
            k += 1;
            match pick % 10 {
                0..=1 => db.insert(Asn(i), Asn(j), Relationship::Provider),
                2..=3 => db.insert(Asn(i), Asn(j), Relationship::Customer),
                4 => db.insert(Asn(i), Asn(j), Relationship::Peer),
                5 => db.insert(Asn(i), Asn(j), Relationship::Sibling),
                _ => {} // no link
            }
        }
    }
    db
}

fn decisions_for(db: &RelationshipDb, lens: &[u8]) -> Vec<Decision> {
    let asns = db.asns();
    let mut out = Vec::new();
    let mut k = 0usize;
    for &observer in &asns {
        for (next_hop, _) in db.neighbors_of(observer) {
            for &dest in &asns {
                if dest == observer {
                    continue;
                }
                let suffix_len = 1 + (lens[k % lens.len()] % 5) as usize;
                k += 1;
                out.push(Decision {
                    observer,
                    next_hop,
                    dest,
                    prefix: None,
                    src: observer,
                    suffix_len,
                    link_city: None,
                    path_index: 0,
                });
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `classify_batch` is byte-identical to sequential `classify`, cold
    /// and warm.
    #[test]
    fn classify_batch_matches_sequential(
        n in 3usize..9,
        picks in proptest::collection::vec(any::<u8>(), 64),
        lens in proptest::collection::vec(any::<u8>(), 16),
    ) {
        let db = random_db(n, &picks);
        prop_assume!(!db.asns().is_empty());
        let decisions = decisions_for(&db, &lens);
        prop_assume!(!decisions.is_empty());

        // Cold parallel batch vs cold sequential classifier.
        let parallel = Classifier::new(&db, ClassifyConfig::default());
        let batch = parallel.classify_batch(&decisions);
        let sequential = Classifier::new(&db, ClassifyConfig::default());
        let one_by_one: Vec<_> = decisions.iter().map(|d| sequential.classify(d)).collect();
        prop_assert_eq!(&batch, &one_by_one);

        // Warm cache: a second batch on the same classifier is unchanged.
        prop_assert_eq!(&parallel.classify_batch(&decisions), &batch);
    }
}
