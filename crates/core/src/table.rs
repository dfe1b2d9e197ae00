//! One classified decision table per report: Figures 1–3, Tables 3–4 and
//! the informed model are folds over its rows, and none walks or
//! classifies the decisions again.
//!
//! Row `i` is `decisions[i]` with the [`MeasuredPath`] that exposed it;
//! each Figure 1 [`Variant`] is one category column, computed on first
//! read by one [`Classifier::classify_batch`] (the Simple column by the
//! default classifier the table owns). Columns are lazy because a report
//! may name one section, and every section but Figure 1 reads only the
//! Simple column: classifying all seven would cost it several times over.

use crate::classify::{Breakdown, Category, Classifier};
use crate::dataset::{Decision, MeasuredPath};
use crate::refine::{RefineInputs, Variant};
use ir_topology::RelationshipDb;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// One decision, the path that exposed it, and its category under one
/// variant.
#[derive(Debug, Clone, Copy)]
pub struct Row<'t> {
    pub decision: &'t Decision,
    pub path: &'t MeasuredPath,
    pub category: Category,
}

/// The measured decisions with one lazily classified column per variant.
pub struct DecisionTable<'a> {
    db: &'a RelationshipDb,
    inputs: RefineInputs<'a>,
    paths: &'a [MeasuredPath],
    decisions: &'a [Decision],
    /// Index into `paths` of each row's path.
    path_of: Vec<usize>,
    /// The default classifier: the Simple column's.
    classifier: Classifier<'a>,
    columns: [OnceLock<Vec<Category>>; Variant::ALL.len()],
}

impl<'a> DecisionTable<'a> {
    /// A table over `decisions`, which must be `paths`' decisions in path
    /// order, as `MeasuredPath::decisions` lists them: a row whose
    /// `path_index` is 0 starts the next path.
    pub fn new(
        db: &'a RelationshipDb,
        inputs: RefineInputs<'a>,
        paths: &'a [MeasuredPath],
        decisions: &'a [Decision],
    ) -> DecisionTable<'a> {
        let mut path = 0;
        let path_of = decisions
            .iter()
            .enumerate()
            .map(|(i, d)| {
                path += usize::from(i > 0 && d.path_index == 0);
                path
            })
            .collect();
        DecisionTable {
            db,
            classifier: Classifier::new(db, inputs.config(Variant::Simple)),
            inputs,
            paths,
            decisions,
            path_of,
            columns: Default::default(),
        }
    }

    /// The default classifier (the Simple column's).
    pub fn classifier(&self) -> &Classifier<'a> {
        &self.classifier
    }

    /// The measured paths the rows point into.
    pub fn paths(&self) -> &'a [MeasuredPath] {
        self.paths
    }

    /// Every row's category under `v`, classified on first read.
    pub fn column(&self, v: Variant) -> &[Category] {
        self.columns[v as usize].get_or_init(|| {
            let verdicts = if v == Variant::Simple {
                self.classifier.classify_batch(self.decisions)
            } else {
                Classifier::new(self.db, self.inputs.config(v)).classify_batch(self.decisions)
            };
            verdicts
                .into_iter()
                .map(|verdict| verdict.category)
                .collect()
        })
    }

    /// The rows under `v`, in decision order.
    pub fn rows(&self, v: Variant) -> impl Iterator<Item = Row<'_>> {
        self.decisions
            .iter()
            .zip(&self.path_of)
            .zip(self.column(v))
            .map(|((decision, &p), &category)| Row {
                decision,
                path: &self.paths[p],
                category,
            })
    }

    /// The rows under `v` tallied by `key`: one Figure 1-style bar per key.
    pub fn tally_by<K: Ord>(&self, v: Variant, key: impl Fn(&Row) -> K) -> BTreeMap<K, Breakdown> {
        let mut out: BTreeMap<K, Breakdown> = BTreeMap::new();
        for row in self.rows(v) {
            out.entry(key(&row)).or_default().add(row.category);
        }
        out
    }
}

#[cfg(test)]
/// Refinement inputs with no side data, for tests over hand-built tables:
/// every variant then classifies as Simple does.
pub(crate) fn no_side_data() -> RefineInputs<'static> {
    use ir_inference::feeds::BgpFeed;
    use ir_inference::{ComplexRelDb, SiblingGroups};
    static DATA: OnceLock<(ComplexRelDb, SiblingGroups, BgpFeed)> = OnceLock::new();
    let (complex, siblings, feed) = DATA.get_or_init(Default::default);
    RefineInputs {
        complex,
        siblings,
        feed,
    }
}
