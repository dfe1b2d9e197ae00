//! Valley-announcement detection in BGP feeds (rule `IR-A007`).
//!
//! Gao–Rexford export discipline constrains every propagated path: an AS
//! that learned a route from a peer or provider exports it only to
//! customers and siblings. Written over the path read vantage→origin
//! (hop *i* being the relationship of the next AS as seen from the
//! current one), that is exactly the pairwise condition
//!
//! > hop *i+1* ∈ {peer, provider} ⇒ hop *i* ∈ {provider, sibling}.
//!
//! With no siblings this collapses to the classic `provider* peer?
//! customer*` valley-free shape; sibling transparency (sibling-learned
//! routes re-export anywhere) legalizes more, and the pairwise form is the
//! *exact* path language of the engine's export rule. A feed entry
//! violating it for **every** consistent assignment of per-city
//! relationships (hybrid links offer one session per city) cannot have
//! been produced by policy-conforming export — either the feed or the
//! relationship data is wrong.
//!
//! The existential check is a two-bit NFA walked vantage→origin: `ANY` =
//! some relationship choice is feasible for the previous hop, `UP` = some
//! feasible choice puts the previous hop in {provider, sibling}.

use crate::report::{Diagnostic, RuleId};
use ir_inference::BgpFeed;
use ir_topology::{RelationshipDb, World};
use ir_types::{Asn, Relationship};
use std::collections::BTreeSet;

const ANY: u8 = 1;
const UP: u8 = 2;

/// All relationships `b` may have from `a`'s view, across the pair's
/// interconnection cities; `None` when the pair is not known to connect.
fn rels_of(
    world: Option<&World>,
    db: Option<&RelationshipDb>,
    a: Asn,
    b: Asn,
) -> Option<Vec<Relationship>> {
    if let Some(w) = world {
        let g = &w.graph;
        if let (Some(ia), Some(ib)) = (g.index_of(a), g.index_of(b)) {
            if let Some(l) = g.link(ia, ib) {
                let mut rels: Vec<Relationship> = l.cities.iter().map(|&c| l.rel_at(c)).collect();
                rels.sort_unstable();
                rels.dedup();
                return Some(rels);
            }
        }
    }
    db.and_then(|db| db.rel(a, b)).map(|r| vec![r])
}

/// One NFA step: whether choosing `rel` for the current hop is feasible
/// given the previous hop's feasibility `bits`, and if so which bits the
/// choice contributes for the next hop. Customer/sibling hops only need
/// *some* feasible previous choice; peer/provider hops need a previous
/// choice in {provider, sibling} (the exporter must have learned the route
/// downstream-exportably).
fn step(bits: u8, rel: Relationship) -> u8 {
    let feasible = match rel {
        Relationship::Customer | Relationship::Sibling => bits & ANY != 0,
        Relationship::Peer | Relationship::Provider => bits & UP != 0,
    };
    if !feasible {
        return 0;
    }
    match rel {
        Relationship::Provider | Relationship::Sibling => ANY | UP,
        Relationship::Customer | Relationship::Peer => ANY,
    }
}

pub(crate) fn valley_announcements(
    feed: &BgpFeed,
    world: Option<&World>,
    db: Option<&RelationshipDb>,
    out: &mut Vec<Diagnostic>,
) {
    let mut reported: BTreeSet<Vec<Asn>> = BTreeSet::new();
    for entry in feed.entries() {
        // Collapse prepending: consecutive duplicates are one AS hop.
        let mut path: Vec<Asn> = Vec::with_capacity(entry.path.len());
        for &a in &entry.path {
            if path.last() != Some(&a) {
                path.push(a);
            }
        }
        if path.len() < 2 || reported.contains(&path) {
            continue;
        }
        // The first hop is unconstrained: a vantage imports anything.
        let mut bits = ANY | UP;
        let mut dead_hop: Option<(Asn, Asn)> = None;
        let mut unknown_hop = false;
        for pair in path.windows(2) {
            let (cur, next) = (pair[0], pair[1]);
            let Some(rels) = rels_of(world, db, cur, next) else {
                unknown_hop = true;
                break;
            };
            let next_bits = rels.iter().fold(0, |acc, &r| acc | step(bits, r));
            if next_bits == 0 {
                dead_hop = Some((cur, next));
                break;
            }
            bits = next_bits;
        }
        if unknown_hop {
            continue; // cannot judge a path with an unknown adjacency
        }
        if let Some((u, v)) = dead_hop {
            reported.insert(path.clone());
            let shown = path
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(" ");
            out.push(
                Diagnostic::new(
                    RuleId::ValleyAnnouncement,
                    format!(
                        "feed path [{shown}] (vantage→origin) violates valley-freedom at \
                         hop {u}→{v} under every consistent relationship assignment"
                    ),
                    "either the relationship data mistypes a link on this path or an AS \
                     on it exports routes its policies forbid",
                )
                .with_asns(path.clone())
                .with_links(path.windows(2).map(|p| (p[0], p[1])).collect()),
            );
        }
    }
}
