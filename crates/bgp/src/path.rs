//! AS paths with `AS_SEQUENCE` and `AS_SET` segments.
//!
//! AS-sets matter here because the PEERING-style experiments (§3.2) poison
//! announcements by inserting the poisoned ASNs as a single AS-set
//! surrounded by the testbed's own ASN — limiting path length, preventing
//! the inference of non-existent links, and letting operators identify the
//! experiment. Path-length comparison counts a set as one hop, as BGP does.

use ir_types::Asn;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// One path segment.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Segment {
    /// Ordered sequence of ASNs, most recent first.
    Seq(Vec<Asn>),
    /// Unordered set of ASNs (counts as one hop).
    Set(BTreeSet<Asn>),
}

/// A full AS path (most recent AS first, origin last).
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AsPath(Vec<Segment>);

impl AsPath {
    /// The empty path.
    pub fn empty() -> AsPath {
        AsPath(Vec::new())
    }

    /// A plain origination path `[origin]`.
    pub fn origin(origin: Asn) -> AsPath {
        AsPath(vec![Segment::Seq(vec![origin])])
    }

    /// A poisoned origination: `origin {poisoned} origin`, the AS-set
    /// sandwich the paper announces. Falls back to a plain origination when
    /// `poisoned` is empty.
    pub fn poisoned(origin: Asn, poisoned: &[Asn]) -> AsPath {
        if poisoned.is_empty() {
            return AsPath::origin(origin);
        }
        AsPath(vec![
            Segment::Seq(vec![origin]),
            Segment::Set(poisoned.iter().copied().collect()),
            Segment::Seq(vec![origin]),
        ])
    }

    /// Path length for the BGP decision process: sequence entries count
    /// individually, each set counts as one.
    pub fn len(&self) -> usize {
        self.0
            .iter()
            .map(|s| match s {
                Segment::Seq(v) => v.len(),
                Segment::Set(_) => 1,
            })
            .sum()
    }

    /// Whether the path has no segments (an empty path is only used as a
    /// neutral placeholder, never announced).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether `asn` appears anywhere in the path — sequences *or* sets.
    /// This is what BGP loop prevention checks, and why poisoning works.
    pub fn contains(&self, asn: Asn) -> bool {
        self.0.iter().any(|s| match s {
            Segment::Seq(v) => v.contains(&asn),
            Segment::Set(set) => set.contains(&asn),
        })
    }

    /// Whether the path carries any AS-set segment (what `filters_as_sets`
    /// ASes reject).
    pub fn has_set(&self) -> bool {
        self.0.iter().any(|s| matches!(s, Segment::Set(_)))
    }

    /// Prepends `asn` (route being exported by `asn`).
    pub fn prepend(&self, asn: Asn) -> AsPath {
        self.prepend_n(asn, 1)
    }

    /// Prepends `count` copies of `asn` in one allocation — the bulk form
    /// export-side prepending needs (repeated [`AsPath::prepend`] is
    /// quadratic in the prepend count). `count == 0` returns a plain clone.
    pub fn prepend_n(&self, asn: Asn, count: usize) -> AsPath {
        if count == 0 {
            return self.clone();
        }
        let mut segs = Vec::with_capacity(self.0.len() + 1);
        match self.0.first() {
            Some(Segment::Seq(v)) => {
                let mut head = Vec::with_capacity(v.len() + count);
                head.resize(count, asn);
                head.extend_from_slice(v);
                segs.push(Segment::Seq(head));
                segs.extend_from_slice(&self.0[1..]);
            }
            _ => {
                segs.push(Segment::Seq(vec![asn; count]));
                segs.extend_from_slice(&self.0);
            }
        }
        AsPath(segs)
    }

    /// The originating AS (last sequence entry), if any.
    pub fn origin_as(&self) -> Option<Asn> {
        for seg in self.0.iter().rev() {
            if let Segment::Seq(v) = seg {
                if let Some(last) = v.last() {
                    return Some(*last);
                }
            }
        }
        None
    }

    /// The first (most recent) AS on the path.
    pub fn first(&self) -> Option<Asn> {
        for seg in &self.0 {
            if let Segment::Seq(v) = seg {
                if let Some(first) = v.first() {
                    return Some(*first);
                }
            }
        }
        None
    }

    /// Iterates all ASNs in the path, sequence entries in order and set
    /// members in ascending order at their position.
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.0
            .iter()
            .flat_map(|s| -> Box<dyn Iterator<Item = Asn> + '_> {
                match s {
                    Segment::Seq(v) => Box::new(v.iter().copied()),
                    Segment::Set(set) => Box::new(set.iter().copied()),
                }
            })
    }

    /// ASNs of sequence segments only, in order — what AS-level path
    /// analyses consume (sets are measurement artifacts, not topology).
    pub fn sequence_asns(&self) -> Vec<Asn> {
        let mut out = Vec::new();
        for seg in &self.0 {
            if let Segment::Seq(v) = seg {
                out.extend_from_slice(v);
            }
        }
        out
    }

    /// Raw segments.
    pub fn segments(&self) -> &[Segment] {
        &self.0
    }

    /// Rebuilds a path from raw segments — the materialization side of the
    /// path arena. Callers are responsible for canonical form (no empty or
    /// adjacent sequence segments), which the arena guarantees because it
    /// only ever interns paths built by this type's constructors.
    pub(crate) fn from_segments(segments: Vec<Segment>) -> AsPath {
        AsPath(segments)
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for seg in &self.0 {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            match seg {
                Segment::Seq(v) => {
                    let parts: Vec<String> = v.iter().map(|a| a.0.to_string()).collect();
                    write!(f, "{}", parts.join(" "))?;
                }
                Segment::Set(s) => {
                    let parts: Vec<String> = s.iter().map(|a| a.0.to_string()).collect();
                    write!(f, "{{{}}}", parts.join(","))?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
impl AsPath {
    /// Allocated segment slots (the arena's exact-size materialization is
    /// tested against it).
    pub(crate) fn segments_capacity(&self) -> usize {
        self.0.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn origin_and_prepend() {
        let p = AsPath::origin(Asn(65001))
            .prepend(Asn(65002))
            .prepend(Asn(65003));
        assert_eq!(p.len(), 3);
        assert_eq!(p.origin_as(), Some(Asn(65001)));
        assert_eq!(p.first(), Some(Asn(65003)));
        assert_eq!(p.to_string(), "65003 65002 65001");
    }

    #[test]
    fn poisoned_sandwich() {
        let p = AsPath::poisoned(Asn(47065), &[Asn(1), Asn(2)]);
        assert_eq!(p.len(), 3); // origin + set(1) + origin
        assert!(p.contains(Asn(1)));
        assert!(p.contains(Asn(2)));
        assert!(p.contains(Asn(47065)));
        assert!(p.has_set());
        assert_eq!(p.origin_as(), Some(Asn(47065)));
        assert_eq!(p.to_string(), "47065 {1,2} 47065");
        // Prepending keeps the sandwich intact.
        let q = p.prepend(Asn(7));
        assert_eq!(q.len(), 4);
        assert_eq!(q.first(), Some(Asn(7)));
    }

    #[test]
    fn empty_poison_is_plain_origination() {
        assert_eq!(AsPath::poisoned(Asn(5), &[]), AsPath::origin(Asn(5)));
    }

    #[test]
    fn sequence_asns_skips_sets() {
        let p = AsPath::poisoned(Asn(9), &[Asn(1)]).prepend(Asn(8));
        assert_eq!(p.sequence_asns(), vec![Asn(8), Asn(9), Asn(9)]);
    }

    #[test]
    fn empty_path() {
        let p = AsPath::empty();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.origin_as(), None);
        assert_eq!(p.first(), None);
        // Prepending onto empty creates a fresh sequence.
        assert_eq!(p.prepend(Asn(3)), AsPath::origin(Asn(3)));
    }

    #[test]
    fn prepend_n_matches_repeated_prepend() {
        let base = AsPath::poisoned(Asn(47065), &[Asn(3), Asn(4)]);
        for count in 0..6 {
            let mut expect = base.clone();
            for _ in 0..count {
                expect = expect.prepend(Asn(7));
            }
            assert_eq!(base.prepend_n(Asn(7), count), expect, "count {count}");
        }
        // Onto an empty path, the bulk form still creates a fresh sequence.
        assert_eq!(
            AsPath::empty().prepend_n(Asn(9), 3),
            AsPath::origin(Asn(9)).prepend(Asn(9)).prepend(Asn(9))
        );
        assert_eq!(AsPath::empty().prepend_n(Asn(9), 0), AsPath::empty());
    }

    proptest! {
        #[test]
        fn prepend_n_equals_iterated_prepend(
            origin in 1u32..65536,
            poison in proptest::collection::vec(1u32..65536, 0..3),
            asn in 1u32..65536,
            count in 0usize..12,
        ) {
            let poison: Vec<Asn> = poison.into_iter().map(Asn).collect();
            let base = AsPath::poisoned(Asn(origin), &poison);
            let mut expect = base.clone();
            for _ in 0..count {
                expect = expect.prepend(Asn(asn));
            }
            prop_assert_eq!(base.prepend_n(Asn(asn), count), expect);
        }

        #[test]
        fn prepend_increments_len_and_sets_first(
            origin in 1u32..65536,
            hops in proptest::collection::vec(1u32..65536, 0..8),
        ) {
            let mut p = AsPath::origin(Asn(origin));
            for h in &hops {
                let q = p.prepend(Asn(*h));
                prop_assert_eq!(q.len(), p.len() + 1);
                prop_assert_eq!(q.first(), Some(Asn(*h)));
                prop_assert_eq!(q.origin_as(), Some(Asn(origin)));
                p = q;
            }
        }

        #[test]
        fn contains_agrees_with_asns_iter(
            origin in 1u32..1000,
            poison in proptest::collection::vec(1000u32..2000, 0..5),
            probe in 1u32..3000,
        ) {
            let poison: Vec<Asn> = poison.into_iter().map(Asn).collect();
            let p = AsPath::poisoned(Asn(origin), &poison);
            let in_iter = p.asns().any(|a| a == Asn(probe));
            prop_assert_eq!(p.contains(Asn(probe)), in_iter);
        }
    }
}
