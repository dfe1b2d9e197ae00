//! Convergence certificates: the static sufficient conditions under which
//! the event engine may abandon wave-exact scheduling.
//!
//! The engine's wave-exact mode replays the Gauss–Seidel sweep trajectory
//! because policy systems with dispute wheels have multiple equilibria —
//! *which* fixpoint you reach depends on activation order. A
//! [`SafetyCertificate`] asserts the opposite: the world satisfies a
//! strict Gao–Rexford-style condition set under which Griffin's theorem
//! gives a **unique** stable routing, so any fair activation order
//! converges to the same RIBs and the engine may run its cheaper free
//! worklist ([`ActivationOrder::Free`]).
//!
//! The conditions are deliberately conservative (sufficient, nowhere near
//! necessary). Per AS, with static import preference
//! `base(tier) + neighbor_pref + backup_penalty`, where a customer, peer or
//! provider session's tier is its relationship and a sibling session may
//! carry any tier (siblings are transparent: a route keeps the tier it had
//! at the sibling), so it counts once as customer tier and once as peer
//! tier, the highest foreign one:
//!
//! 1. no `Error`-severity finding and no dispute-wheel candidate;
//! 2. the session-level (per-city, sibling-contracted) customer→provider
//!    digraph is acyclic — hybrid links participate with every relationship
//!    they carry;
//! 3. every customer-tier route is strictly preferred over every route of
//!    the AS's own peer and provider sessions (Gao–Rexford preference
//!    condition);
//! 4. no AS that can hold a peer- or provider-tier route (over its own
//!    sessions or a sibling's) turns on domestic-path preference (the +1000
//!    tier bonus can lift a domestic provider route above a foreign
//!    customer route);
//! 5. every customer-tier route is strictly preferred over the peer- or
//!    provider-tier routes a sibling session can carry — a `neighbor_pref`
//!    boost on a sibling session can lift its sibling's peer route over
//!    the AS's customer routes, which the organization's transparency does
//!    not undo;
//! 6. no AS disables loop prevention (self-reaching paths re-open the
//!    dispute construction).
//!
//! Most generated worlds do **not** certify — the generator deliberately
//! plants the paper's §4–§6 policy deviations, which are exactly the
//! patterns these conditions exclude. That is the honest outcome: the
//! certificate buys speed only where safety is provable.

use crate::cycles::session_cycles;
use crate::report::{Diagnostic, RuleId, Severity};
use crate::view::{sessions, Sess};
use ir_bgp::policy_eval::{base_pref, BACKUP_PENALTY};
use ir_bgp::ActivationOrder;
use ir_topology::graph::AsGraph;
use ir_topology::policy::PolicySpec;
use ir_topology::World;
use ir_types::{Asn, Relationship};
use serde::Serialize;
use std::fmt;

/// Per-AS summary of the Gao–Rexford preference conditions, computed from
/// one session view and one effective policy. Shared between the full
/// [`certify`] pass and the incremental `DeltaAuditor`, which re-derives
/// it only for the ASes an edit touched — both must judge identically or
/// the incremental verdict drifts from the full re-audit.
pub(crate) struct GrSummary {
    /// Lowest customer-tier import preference — over customer sessions,
    /// and sibling sessions carrying a customer-tier route — and the peer
    /// holding it; `None` when the AS has neither.
    pub cust_floor: Option<(i32, Asn)>,
    /// Highest import preference of the AS's own peer and provider
    /// sessions and the peer holding it; `None` when it has none.
    pub other_ceil: Option<(i32, Asn)>,
    /// Highest preference a sibling session gives a peer- or provider-tier
    /// route it carries (the peer tier, plus the session's delta and
    /// backup penalty) and the sibling; `None` without sibling sessions.
    pub sibling_ceil: Option<(i32, Asn)>,
}

impl GrSummary {
    /// Condition 3's violation: a route of the AS's own peer or provider
    /// sessions ranks at or above a customer-tier route.
    pub fn inverted(&self) -> Option<((i32, Asn), (i32, Asn))> {
        at_or_above(self.cust_floor, self.other_ceil)
    }

    /// Condition 5's violation: a peer- or provider-tier route carried
    /// over a sibling session ranks at or above a customer-tier route.
    pub fn sibling_inverted(&self) -> Option<((i32, Asn), (i32, Asn))> {
        at_or_above(self.cust_floor, self.sibling_ceil)
    }

    /// Whether the AS can hold a peer- or provider-tier route at all.
    pub fn holds_foreign_tier(&self) -> bool {
        self.other_ceil.is_some() || self.sibling_ceil.is_some()
    }
}

/// `(floor, ceil)` when the ceiling reaches the floor.
fn at_or_above(
    floor: Option<(i32, Asn)>,
    ceil: Option<(i32, Asn)>,
) -> Option<((i32, Asn), (i32, Asn))> {
    match (floor, ceil) {
        (Some(floor), Some(ceil)) if floor.0 <= ceil.0 => Some((floor, ceil)),
        _ => None,
    }
}

pub(crate) fn gr_summary(g: &AsGraph, pol: &PolicySpec, sess: &[Sess]) -> GrSummary {
    let (mut cust_floor, mut other_ceil, mut sibling_ceil) = (None, None, None);
    let lower = |at: &mut Option<(i32, Asn)>, pref: i32, peer: Asn| {
        if at.is_none_or(|(f, _)| pref < f) {
            *at = Some((pref, peer));
        }
    };
    let raise = |at: &mut Option<(i32, Asn)>, pref: i32, peer: Asn| {
        if at.is_none_or(|(c, _)| pref > c) {
            *at = Some((pref, peer));
        }
    };
    for s in sess {
        let peer = g.asn(s.peer);
        let adjust = i32::from(pol.pref_delta(peer)) + if s.backup { BACKUP_PENALTY } else { 0 };
        let customer = base_pref(Relationship::Customer) + adjust;
        match s.rel {
            // A sibling session's routes carry the tier they had at the
            // sibling: customer, peer or provider.
            Relationship::Sibling => {
                lower(&mut cust_floor, customer, peer);
                raise(
                    &mut sibling_ceil,
                    base_pref(Relationship::Peer) + adjust,
                    peer,
                );
            }
            Relationship::Customer => lower(&mut cust_floor, customer, peer),
            rel => raise(&mut other_ceil, base_pref(rel) + adjust, peer),
        }
    }
    GrSummary {
        cust_floor,
        other_ceil,
        sibling_ceil,
    }
}

/// The audit pass's verdict on whether free-order simulation is safe.
#[derive(Debug, Clone, Serialize)]
pub struct SafetyCertificate {
    /// Whether every condition holds.
    pub certified: bool,
    /// Human-readable reasons certification failed (empty when certified).
    pub blockers: Vec<String>,
    /// Number of ASes examined (0 when no world was audited).
    pub ases: usize,
}

impl SafetyCertificate {
    /// The engine scheduling this certificate licenses.
    pub fn activation_order(&self) -> ActivationOrder {
        if self.certified {
            ActivationOrder::Free
        } else {
            ActivationOrder::WaveExact
        }
    }
}

impl fmt::Display for SafetyCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.certified {
            write!(
                f,
                "certificate: SAFE — unique stable routing; free-order engine unlocked \
                 ({} ASes)",
                self.ases
            )
        } else {
            writeln!(
                f,
                "certificate: NOT CERTIFIED — wave-exact engine required; {} blocker(s):",
                self.blockers.len()
            )?;
            for b in &self.blockers {
                writeln!(f, "  - {b}")?;
            }
            Ok(())
        }
    }
}

/// A blocker that aggregates per-AS hits: reports the count plus a few
/// sample ASNs so paper-scale output stays readable.
fn aggregate(what: &str, hits: &[Asn]) -> Option<String> {
    if hits.is_empty() {
        return None;
    }
    let shown = hits
        .iter()
        .take(6)
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(" ");
    let more = if hits.len() > 6 { " …" } else { "" };
    Some(format!("{} ASes {what} (e.g. {shown}{more})", hits.len()))
}

pub(crate) fn certify(world: Option<&World>, diagnostics: &[Diagnostic]) -> SafetyCertificate {
    let Some(world) = world else {
        return SafetyCertificate {
            certified: false,
            blockers: vec!["no ground-truth world audited".into()],
            ases: 0,
        };
    };
    let g = &world.graph;
    let n = g.len();
    let mut blockers = Vec::new();

    let errors = diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    if errors > 0 {
        blockers.push(format!("{errors} error-severity finding(s)"));
    }
    let wheels = diagnostics
        .iter()
        .filter(|d| d.rule == RuleId::DisputeWheelCandidate)
        .count();
    if wheels > 0 {
        blockers.push(format!("{wheels} dispute-wheel candidate(s)"));
    }

    for cycle in session_cycles(world) {
        let shown = cycle
            .iter()
            .take(6)
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(" ");
        blockers.push(format!(
            "session-level customer→provider cycle through {} ASes ({shown}…)",
            cycle.len()
        ));
    }

    let mut inverted = Vec::new();
    let mut domestic = Vec::new();
    let mut carried = Vec::new();
    let mut no_loop = Vec::new();
    for u in 0..n {
        let pol = world.policy(u);
        let sess = sessions(g, u);
        if pol.no_loop_prevention {
            no_loop.push(g.asn(u));
        }
        let summary = gr_summary(g, pol, &sess);
        if summary.inverted().is_some() {
            inverted.push(g.asn(u));
        }
        if pol.domestic_pref && summary.holds_foreign_tier() {
            domestic.push(g.asn(u));
        }
        if summary.sibling_inverted().is_some() {
            carried.push(g.asn(u));
        }
    }
    blockers.extend(aggregate(
        "rank a peer/provider route at or above a customer route",
        &inverted,
    ));
    blockers.extend(aggregate(
        "combine domestic-path preference with peer/provider-tier routes",
        &domestic,
    ));
    blockers.extend(aggregate(
        "rank a sibling-carried peer/provider route at or above a customer route",
        &carried,
    ));
    blockers.extend(aggregate("disable BGP loop prevention", &no_loop));

    SafetyCertificate {
        certified: blockers.is_empty(),
        blockers,
        ases: n,
    }
}
