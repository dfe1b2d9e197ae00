//! Session-level view of a world's AS graph.
//!
//! The engine models a multi-city link as one BGP session per
//! interconnection city, each with the relationship in force there. The
//! preference- and certificate-level rules reason about exactly those
//! sessions, so they share this enumeration.

use ir_topology::graph::{AsGraph, LinkKind};
use ir_types::Relationship;
use std::collections::BTreeSet;

/// One BGP session of an AS, statically summarized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Sess {
    /// Neighbor node index.
    pub peer: usize,
    /// Relationship of the neighbor as seen from the session owner.
    pub rel: Relationship,
    /// Whether the underlying link is a backup link.
    pub backup: bool,
}

/// All sessions of node `x`, deduplicated by `(peer, rel, backup)` — two
/// cities with the same relationship produce one summary entry, since the
/// static rules only depend on that triple.
pub(crate) fn sessions(graph: &AsGraph, x: usize) -> Vec<Sess> {
    static NO_DOWNED: BTreeSet<(usize, usize)> = BTreeSet::new();
    sessions_excluding(graph, x, &NO_DOWNED)
}

/// [`sessions`] restricted to links that are up: any link whose canonical
/// `(min, max)` node pair is in `downed` contributes no sessions. This is
/// the view the incremental delta auditor reasons over — it matches the
/// engine's semantics that a downed link carries nothing in either
/// direction.
pub(crate) fn sessions_excluding(
    graph: &AsGraph,
    x: usize,
    downed: &BTreeSet<(usize, usize)>,
) -> Vec<Sess> {
    let mut out = Vec::new();
    for l in graph.links(x) {
        if !downed.is_empty() && downed.contains(&(x.min(l.peer), x.max(l.peer))) {
            continue;
        }
        let backup = l.kind == LinkKind::Backup;
        for &city in &l.cities {
            let s = Sess {
                peer: l.peer,
                rel: l.rel_at(city),
                backup,
            };
            if !out.contains(&s) {
                out.push(s);
            }
        }
    }
    out
}

/// Whether `rel` is scored as a customer-tier session (base local
/// preference 300): customer and sibling sessions are. A sibling session
/// carries the tier its sibling's route had, which may be peer or provider,
/// so IR-A002 (the only caller) still treats every sibling spoke as
/// customer tier until it learns the carried tiers (ROADMAP 3(d)).
pub(crate) fn customer_class(rel: Relationship) -> bool {
    matches!(rel, Relationship::Customer | Relationship::Sibling)
}
