//! Incremental certificate maintenance: audit a [`Delta`] edit set
//! against a certified world *before* it is applied.
//!
//! The serving plane (PRs 7–8) edits policies at query time, but the
//! [`crate::SafetyCertificate`] that licenses the engine's free
//! activation order was derived for the *unedited* world. Re-running the
//! full audit per query would cost O(world) on a path that exists to be
//! O(edit); instead, every certification condition is *locally checkable*
//! around the edited ASes (the same locality catchment-prediction work
//! exploits), so a [`DeltaAuditor`] maintains the certificate
//! incrementally:
//!
//! * **Scope, per delta kind.** A policy edit touches exactly the edited
//!   AS (every per-AS condition and every dispute-candidate out-edge is a
//!   function of that AS's own sessions and effective policy). A link
//!   edit touches the two endpoints — no other node's session view
//!   changes. Origination events (`Announce`/`Withdraw`) and the
//!   engine-level poison-filter toggle change routing state, not policy
//!   or topology, and touch nothing.
//! * **Rules a delta can never invalidate** are skipped wholesale, with
//!   the proofs in DESIGN.md §13: no delta adds links or re-types
//!   relationships, so the link-attached error rules (IR-A001 c2p
//!   cycles, IR-A003 hybrid conflicts, IR-A005 sibling-org mismatches)
//!   and the session-level cycle condition are unreachable — link
//!   *removal* only deletes edges from those cycle checks, and on a
//!   certified base the sibling-transparency condition has already
//!   outlawed the intra-group c2p edges a sibling-contraction split
//!   could expose.
//! * **Rules a delta can invalidate** are re-run on the touched scope
//!   only: the Gao–Rexford per-AS conditions over the patched session
//!   view ([`Delta::NeighborPref`], link edits), the dispute-wheel
//!   candidate cycle search seeded from the touched nodes over the
//!   patched adjacency (the base adjacency is precomputed once and is
//!   acyclic on a certified world, so any new cycle must pass through a
//!   touched node), and the origin-side selective-announce legality
//!   check (IR-A008) for overlaid specs.
//!
//! The verdict is a [`CertificateDelta`], returned without mutating
//! anything: `Preserved` means **every cumulative prefix** of the edit
//! sequence keeps the world certified (the engine applies deltas one at a
//! time, so intermediate states must be safe too, not just the final
//! one), `Revoked` names the first condition broken, and `Unknown` is the
//! conservative answer for anything the auditor will not judge
//! (uncertified base, unknown ASN). The differential suite proves the
//! verdict agrees with a full [`crate::audit_world`] re-run on the edited
//! world ([`edited_world`] materializes that ground truth).

use crate::certificate::gr_summary;
use crate::dispute::{candidate_graph, candidate_out_edges};
use crate::report::AuditReport;
use crate::view::sessions_excluding;
use ir_bgp::{CertificateDelta, Delta, DeltaCertifier};
use ir_topology::graph::NodeIdx;
use ir_topology::policy::{PolicySpec, TransitScope};
use ir_topology::World;
use ir_types::Asn;
use std::collections::{BTreeMap, BTreeSet};

/// Canonical link key, matching the engine's downed-link bookkeeping.
fn link_key(a: NodeIdx, b: NodeIdx) -> (NodeIdx, NodeIdx) {
    (a.min(b), a.max(b))
}

/// Incremental certificate maintenance over one world: construct once
/// (one full audit + one dispute-candidate adjacency), then judge any
/// number of [`Delta`] edit sets in O(edit scope) each, concurrently
/// (`&self` only — the engine consults it from rayon workers).
pub struct DeltaAuditor<'w> {
    world: &'w World,
    base: AuditReport,
    /// Dispute-wheel candidate adjacency of the unedited world; acyclic
    /// whenever the base certifies (a cycle would have been a
    /// dispute-wheel candidate, which blocks certification).
    base_adj: Vec<Vec<usize>>,
}

impl<'w> DeltaAuditor<'w> {
    /// Audits `world` in full and prepares the incremental state.
    pub fn new(world: &'w World) -> DeltaAuditor<'w> {
        Self::with_report(world, crate::audit_world(world))
    }

    /// [`DeltaAuditor::new`] reusing an [`AuditReport`] the caller already
    /// produced — it must come from auditing this same `world`, or
    /// verdicts are meaningless.
    pub fn with_report(world: &'w World, report: AuditReport) -> DeltaAuditor<'w> {
        DeltaAuditor {
            world,
            base_adj: candidate_graph(world),
            base: report,
        }
    }

    /// Whether the unedited world certifies. When it does not, every
    /// verdict is [`CertificateDelta::Unknown`]: there is no certificate
    /// to maintain and the engine is on the wave-exact order anyway.
    pub fn base_certified(&self) -> bool {
        self.base.certificate.certified
    }

    /// Judges an ordered edit sequence without applying it: walks the
    /// deltas front to back, maintaining the batch-local patched state
    /// (downed links, overlaid specs, recomputed candidate out-edges),
    /// and re-checks after each delta exactly the conditions its scope
    /// can invalidate. Returns on the first violation, so the verdict
    /// covers every cumulative prefix of the sequence.
    pub fn audit_deltas(&self, deltas: &[Delta]) -> CertificateDelta {
        if !self.base_certified() {
            return CertificateDelta::Unknown;
        }
        let g = &self.world.graph;
        let resolve = |asn: Asn| g.index_of(asn);
        let mut downed: BTreeSet<(NodeIdx, NodeIdx)> = BTreeSet::new();
        let mut overlay: BTreeMap<NodeIdx, PolicySpec> = BTreeMap::new();
        // Out-edge lists recomputed for touched nodes; nodes absent here
        // keep their base adjacency.
        let mut patched: BTreeMap<NodeIdx, Vec<usize>> = BTreeMap::new();
        for delta in deltas {
            // The nodes whose session view or effective policy this delta
            // changed — the only candidates for a fresh violation.
            let mut touched: Vec<NodeIdx> = Vec::new();
            // Overlaid node whose selective-announce table changed and
            // needs the origin-side legality re-check.
            let mut psp_check: Option<NodeIdx> = None;
            match delta {
                Delta::LinkDown { a, b } => {
                    let (Some(ia), Some(ib)) = (resolve(*a), resolve(*b)) else {
                        return CertificateDelta::Unknown;
                    };
                    // A pair with no link is a semantic no-op in the
                    // engine (no sessions to tear), so it is one here.
                    if g.link(ia, ib).is_some() && downed.insert(link_key(ia, ib)) {
                        touched.extend([ia, ib]);
                    }
                }
                Delta::LinkUp { a, b } => {
                    let (Some(ia), Some(ib)) = (resolve(*a), resolve(*b)) else {
                        return CertificateDelta::Unknown;
                    };
                    // Restoring a link that is not down is a no-op; deltas
                    // cannot add links, only restore in-batch downs.
                    if downed.remove(&link_key(ia, ib)) {
                        touched.extend([ia, ib]);
                    }
                }
                Delta::NeighborPref {
                    of,
                    neighbor,
                    delta,
                } => {
                    let (Some(x), Some(_)) = (resolve(*of), resolve(*neighbor)) else {
                        return CertificateDelta::Unknown;
                    };
                    let spec = self.overlaid(&mut overlay, x);
                    match delta {
                        Some(d) => {
                            spec.neighbor_pref.insert(*neighbor, *d);
                        }
                        None => {
                            spec.neighbor_pref.remove(neighbor);
                        }
                    }
                    touched.push(x);
                }
                Delta::ExportPrepend {
                    of,
                    neighbor,
                    count,
                } => {
                    // Export-side: prepending lengthens what neighbors
                    // see, it never reorders this AS's own import tiers —
                    // certificate-neutral, but the overlay stays in sync
                    // so later checks read the true effective spec.
                    let (Some(x), Some(_)) = (resolve(*of), resolve(*neighbor)) else {
                        return CertificateDelta::Unknown;
                    };
                    let spec = self.overlaid(&mut overlay, x);
                    match count {
                        Some(c) => {
                            spec.export_prepend.insert(*neighbor, *c);
                        }
                        None => {
                            spec.export_prepend.remove(neighbor);
                        }
                    }
                }
                Delta::PartialTransit {
                    of,
                    neighbor,
                    customer_routes_only,
                } => {
                    // Export-scope restriction; the only rule reading this
                    // table (IR-A004) is warning-severity and cannot block
                    // certification.
                    let (Some(x), Some(_)) = (resolve(*of), resolve(*neighbor)) else {
                        return CertificateDelta::Unknown;
                    };
                    let spec = self.overlaid(&mut overlay, x);
                    if *customer_routes_only {
                        spec.partial_transit
                            .insert(*neighbor, TransitScope::CustomerRoutesOnly);
                    } else {
                        spec.partial_transit.remove(neighbor);
                    }
                }
                Delta::SelectiveAnnounce {
                    of,
                    prefix,
                    allowed,
                } => {
                    let Some(x) = resolve(*of) else {
                        return CertificateDelta::Unknown;
                    };
                    let spec = self.overlaid(&mut overlay, x);
                    match allowed {
                        Some(set) => {
                            spec.selective_announce.insert(*prefix, set.clone());
                            psp_check = Some(x);
                        }
                        None => {
                            spec.selective_announce.remove(prefix);
                        }
                    }
                }
                Delta::PoisonFilter { of, .. } => {
                    // Engine-level import filter, not a PolicySpec field:
                    // filtering restricts which routes exist, it never
                    // reorders import tiers, so certification is
                    // unaffected.
                    if resolve(*of).is_none() {
                        return CertificateDelta::Unknown;
                    }
                }
                Delta::Announce(ann) => {
                    // Routing events edit state the audit never reads.
                    if resolve(ann.origin).is_none() {
                        return CertificateDelta::Unknown;
                    }
                }
                Delta::Hijack { attacker, .. } => {
                    // An adversarial origination is a routing event like
                    // `Announce`: it changes which routes exist, never how
                    // policy tiers rank, so the certificate is untouched.
                    // Only the attacker must resolve — forged origins may
                    // be arbitrary (even nonexistent) ASNs by design.
                    if resolve(*attacker).is_none() {
                        return CertificateDelta::Unknown;
                    }
                }
                Delta::Withdraw => {}
            }
            // Origin-side selective-announce legality (IR-A008, an error
            // rule): scoping a prefix the AS does not originate.
            if let Some(x) = psp_check {
                if let Some(spec) = overlay.get(&x) {
                    let node = g.node(x);
                    for prefix in spec.selective_announce.keys() {
                        if !node.prefixes.contains(prefix) {
                            return CertificateDelta::Revoked {
                                rule: "IR-A008".to_string(),
                                witness: format!(
                                    "{} gains a prefix-specific policy for {prefix}, \
                                     which it does not originate",
                                    g.asn(x)
                                ),
                            };
                        }
                    }
                }
            }
            // Gao–Rexford per-AS conditions over the patched view, then
            // the localized dispute-wheel search, for each touched node.
            for &u in &touched {
                let sess = sessions_excluding(g, u, &downed);
                let pol = overlay.get(&u).unwrap_or_else(|| self.world.policy(u));
                let asn = g.asn(u);
                let summary = gr_summary(g, pol, &sess);
                if let Some(((floor, fp), (ceil, cp))) = summary.inverted() {
                    return CertificateDelta::Revoked {
                        rule: "GR-PREF".to_string(),
                        witness: format!(
                            "{asn} ranks foreign-tier {cp} at {ceil}, at or above \
                             customer-tier {fp} at {floor}"
                        ),
                    };
                }
                if pol.domestic_pref && summary.other_ceil.is_some() {
                    return CertificateDelta::Revoked {
                        rule: "GR-DOMESTIC".to_string(),
                        witness: format!(
                            "{asn} combines domestic-path preference with a \
                             peer/provider session"
                        ),
                    };
                }
                if summary.has_sibling && summary.other_ceil.is_some() {
                    return CertificateDelta::Revoked {
                        rule: "GR-SIBLING".to_string(),
                        witness: format!(
                            "{asn} has a sibling session alongside a peer/provider session"
                        ),
                    };
                }
                if pol.no_loop_prevention {
                    return CertificateDelta::Revoked {
                        rule: "GR-NOLOOP".to_string(),
                        witness: format!("{asn} disables BGP loop prevention"),
                    };
                }
                patched.insert(u, candidate_out_edges(g, pol, &sess));
            }
            // Any new dispute-wheel candidate cycle must pass through a
            // node whose out-edges changed this delta — the rest of the
            // adjacency is the base one, which is acyclic.
            for &u in &touched {
                if let Some(witness) = self.cycle_through(u, &patched) {
                    return CertificateDelta::Revoked {
                        rule: "IR-A002".to_string(),
                        witness,
                    };
                }
            }
        }
        CertificateDelta::Preserved
    }

    /// The batch-local effective spec of `x`, cloning the world's ground
    /// truth into the overlay on first edit (the auditor's mirror of the
    /// sim's copy-on-write [`PolicyOverlay`](ir_bgp::PrefixSim)).
    fn overlaid<'o>(
        &self,
        overlay: &'o mut BTreeMap<NodeIdx, PolicySpec>,
        x: NodeIdx,
    ) -> &'o mut PolicySpec {
        overlay
            .entry(x)
            .or_insert_with(|| self.world.policy(x).clone())
    }

    /// Whether `start` lies on a directed cycle of the patched candidate
    /// adjacency — iterative DFS following patched out-edges where
    /// recomputed and base out-edges elsewhere.
    fn cycle_through(
        &self,
        start: NodeIdx,
        patched: &BTreeMap<NodeIdx, Vec<usize>>,
    ) -> Option<String> {
        let edges = |x: NodeIdx| -> &[usize] {
            patched
                .get(&x)
                .map_or_else(|| self.base_adj[x].as_slice(), |v| v.as_slice())
        };
        let mut visited: BTreeSet<NodeIdx> = BTreeSet::new();
        let mut stack: Vec<NodeIdx> = edges(start).to_vec();
        while let Some(x) = stack.pop() {
            if x == start {
                let g = &self.world.graph;
                return Some(format!(
                    "preference-diversion cycle through {}: it prefers a foreign-tier \
                     route over every customer-tier spoke, and the diversion closes a loop",
                    g.asn(start)
                ));
            }
            if visited.insert(x) {
                stack.extend_from_slice(edges(x));
            }
        }
        None
    }
}

impl DeltaCertifier for DeltaAuditor<'_> {
    fn audit_deltas(&self, deltas: &[Delta]) -> CertificateDelta {
        DeltaAuditor::audit_deltas(self, deltas)
    }
}

/// Materializes the world a [`Delta`] edit set describes: policy edits
/// baked into the cloned world's specs in order, net link downs removed
/// from the graph. This is the ground truth the differential suites audit
/// in full to prove the incremental verdict right — and what a cold
/// simulation of "the world after the edits" would converge over.
///
/// Unknown ASNs and missing links are skipped exactly like the engine
/// skips them (silent no-ops), so the materialized world matches what a
/// sim that applied the same deltas actually routes over.
pub fn edited_world(world: &World, deltas: &[Delta]) -> World {
    let mut w = world.clone();
    let mut net_down: BTreeSet<(NodeIdx, NodeIdx)> = BTreeSet::new();
    for delta in deltas {
        let resolve = |g: &ir_topology::AsGraph, asn: Asn| g.index_of(asn);
        match delta {
            Delta::LinkDown { a, b } => {
                if let (Some(ia), Some(ib)) = (resolve(&w.graph, *a), resolve(&w.graph, *b)) {
                    if w.graph.link(ia, ib).is_some() {
                        net_down.insert(link_key(ia, ib));
                    }
                }
            }
            Delta::LinkUp { a, b } => {
                if let (Some(ia), Some(ib)) = (resolve(&w.graph, *a), resolve(&w.graph, *b)) {
                    net_down.remove(&link_key(ia, ib));
                }
            }
            Delta::NeighborPref {
                of,
                neighbor,
                delta,
            } => {
                if let Some(x) = resolve(&w.graph, *of) {
                    match delta {
                        Some(d) => {
                            w.policies[x].neighbor_pref.insert(*neighbor, *d);
                        }
                        None => {
                            w.policies[x].neighbor_pref.remove(neighbor);
                        }
                    }
                }
            }
            Delta::ExportPrepend {
                of,
                neighbor,
                count,
            } => {
                if let Some(x) = resolve(&w.graph, *of) {
                    match count {
                        Some(c) => {
                            w.policies[x].export_prepend.insert(*neighbor, *c);
                        }
                        None => {
                            w.policies[x].export_prepend.remove(neighbor);
                        }
                    }
                }
            }
            Delta::PartialTransit {
                of,
                neighbor,
                customer_routes_only,
            } => {
                if let Some(x) = resolve(&w.graph, *of) {
                    if *customer_routes_only {
                        w.policies[x]
                            .partial_transit
                            .insert(*neighbor, TransitScope::CustomerRoutesOnly);
                    } else {
                        w.policies[x].partial_transit.remove(neighbor);
                    }
                }
            }
            Delta::SelectiveAnnounce {
                of,
                prefix,
                allowed,
            } => {
                if let Some(x) = resolve(&w.graph, *of) {
                    match allowed {
                        Some(set) => {
                            w.policies[x]
                                .selective_announce
                                .insert(*prefix, set.clone());
                        }
                        None => {
                            w.policies[x].selective_announce.remove(prefix);
                        }
                    }
                }
            }
            // Routing events and the engine-level poison filter leave the
            // world's policies and topology untouched.
            Delta::PoisonFilter { .. }
            | Delta::Announce(_)
            | Delta::Withdraw
            | Delta::Hijack { .. } => {}
        }
    }
    for (a, b) in net_down {
        w.graph.remove_link(a, b);
    }
    w
}
