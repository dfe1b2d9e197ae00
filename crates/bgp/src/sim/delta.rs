//! Edits of a sim's inputs, each run to fixpoint as one event:
//! originations and withdrawals, hijacks, link faults, and the [`Delta`]
//! edit set (policy edits and poison filters among them) — with the one
//! statement of how a policy delta edits a [`PolicySpec`].

use super::context::link_key;
use super::transfer::overlay_policy;
use super::{ActivationOrder, Announcement, Convergence, ExtraOrigin, PrefixSim};
use crate::path::AsPath;
use ir_topology::graph::NodeIdx;
use ir_topology::policy::{PolicySpec, TransitScope};
use ir_types::{Asn, Prefix, Timestamp};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The AS path an attacker originates for a hijack.
///
/// * `forged_origin: None` — plain origin forgery: the attacker claims to
///   originate the prefix itself (`[attacker]`); origin validation (ROV)
///   catches this.
/// * `forged_origin: Some(v)` — the path pretends `v` originated the
///   prefix. Unless `stealth`, the attacker still appears as the first
///   hop (`[attacker, v]`), the realistic forged-origin hijack that
///   defeats origin validation. With `stealth`, the attacker omits itself
///   entirely (`[v]`) — shorter and more attractive, but its first hop no
///   longer matches the session peer, which is exactly what an
///   enforce-first-AS import check detects.
///
/// `poison` wraps ASNs around the claimed origin in an AS-set sandwich,
/// the same construction as a legitimate poisoned origination — so
/// AS-set (poison) filters and BGP loop prevention apply to hijacks
/// unchanged.
pub fn hijack_origination(
    attacker: Asn,
    forged_origin: Option<Asn>,
    poison: &[Asn],
    stealth: bool,
) -> AsPath {
    match forged_origin {
        Some(origin) => {
            let base = AsPath::poisoned(origin, poison);
            if stealth {
                base
            } else {
                base.prepend(attacker)
            }
        }
        None => AsPath::poisoned(attacker, poison),
    }
}

/// The zero-work convergence returned by fault no-ops.
pub(super) const NO_OP_CONVERGENCE: Convergence = Convergence {
    rounds: 0,
    converged: true,
    activations: 0,
    imports: 0,
};

/// One edit to a converged simulation's inputs — the generalization of the
/// `fail_link`/`restore_link` machinery to every input the engine reads.
/// Applied through [`PrefixSim::apply_delta`], each variant seeds the
/// worklist only from the AS(es) whose inputs changed and reconverges in
/// place over the existing route state; the unchanged remainder of the
/// graph is never activated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delta {
    /// Take the link between `a` and `b` down (all sessions, both ways).
    LinkDown { a: Asn, b: Asn },
    /// Bring a downed link back up.
    LinkUp { a: Asn, b: Asn },
    /// Session preference edit: set `of`'s per-neighbor local-pref delta
    /// toward `neighbor` (`None` clears the override). Import-side: `of`'s
    /// adj-RIB-in is re-derived before reconvergence.
    NeighborPref {
        of: Asn,
        neighbor: Asn,
        delta: Option<i16>,
    },
    /// Export-side prepending edit toward `neighbor` (`None` clears it).
    ExportPrepend {
        of: Asn,
        neighbor: Asn,
        count: Option<u8>,
    },
    /// Partial-transit edit: `of` grants `neighbor` customer-routes-only
    /// (`true`) or full (`false`) transit.
    PartialTransit {
        of: Asn,
        neighbor: Asn,
        customer_routes_only: bool,
    },
    /// Origin-side selective-announce edit: `prefix` is announced only to
    /// `allowed` (`None` removes the restriction).
    SelectiveAnnounce {
        of: Asn,
        prefix: Prefix,
        allowed: Option<BTreeSet<Asn>>,
    },
    /// Toggle AS-set (poison) filtering at `of` — the import-side filter
    /// [`PrefixSim::set_poison_filters`] declares in bulk.
    PoisonFilter { of: Asn, enabled: bool },
    /// Re-originate: origin, poison, or `via` change.
    Announce(Announcement),
    /// Withdraw the prefix.
    Withdraw,
    /// Adversarial origination: `attacker` starts originating the sim's
    /// prefix with a crafted path (see [`hijack_origination`]) while the
    /// legitimate announcement stays up. Routing-event-side like
    /// [`Delta::Announce`]: it changes which routes exist, not how policy
    /// tiers rank, so it is certificate-neutral.
    Hijack {
        /// AS injecting the adversarial origination.
        attacker: Asn,
        /// Claimed origin (`None` = the attacker claims the prefix
        /// itself — plain origin forgery).
        forged_origin: Option<Asn>,
        /// ASNs wrapped in an AS-set sandwich around the claimed origin.
        poison: Vec<Asn>,
        /// Omit the attacker from its own announcement (see
        /// [`hijack_origination`]).
        stealth: bool,
    },
}

impl Delta {
    /// Writes this delta's edit into `of`'s policy `spec`: the one
    /// statement of how [`Delta::NeighborPref`], [`Delta::ExportPrepend`],
    /// [`Delta::PartialTransit`] and [`Delta::SelectiveAnnounce`] change a
    /// [`PolicySpec`], read by [`PrefixSim::apply_delta`] and by
    /// `ir-audit`'s `DeltaAuditor`. Every other variant leaves `spec` as it
    /// is.
    pub fn edit_policy(&self, spec: &mut PolicySpec) {
        match self {
            Delta::NeighborPref {
                neighbor, delta, ..
            } => set_or_clear(&mut spec.neighbor_pref, *neighbor, *delta),
            Delta::ExportPrepend {
                neighbor, count, ..
            } => set_or_clear(&mut spec.export_prepend, *neighbor, *count),
            Delta::PartialTransit {
                neighbor,
                customer_routes_only,
                ..
            } => {
                let scope = customer_routes_only.then_some(TransitScope::CustomerRoutesOnly);
                set_or_clear(&mut spec.partial_transit, *neighbor, scope);
            }
            Delta::SelectiveAnnounce {
                prefix, allowed, ..
            } => set_or_clear(&mut spec.selective_announce, *prefix, allowed.clone()),
            _ => {}
        }
    }
}

/// `Some` sets `key`'s entry, `None` removes it.
fn set_or_clear<K: Ord, V>(map: &mut BTreeMap<K, V>, key: K, value: Option<V>) {
    match value {
        Some(v) => {
            map.insert(key, v);
        }
        None => {
            map.remove(&key);
        }
    }
}

impl<'w> PrefixSim<'w> {
    /// The prologue of every event: `at` must not move the clock
    /// backwards.
    fn advance_clock(&mut self, at: Timestamp) {
        assert!(at >= self.inputs.clock, "time went backwards");
        self.inputs.clock = at;
    }

    /// Announces (or re-announces with different poison/via) the prefix and
    /// runs to fixpoint. `at` must not move backwards. Only the origin
    /// seeds the worklist: unchanged parts of the graph are never touched,
    /// which is what makes the poisoning loop in the alternate-route
    /// experiments cheap.
    pub fn announce(&mut self, ann: Announcement, at: Timestamp) -> Convergence {
        assert_eq!(
            ann.prefix, self.inputs.prefix,
            "announcement for the wrong prefix"
        );
        self.advance_clock(at);
        let idx = self
            .ctx
            .world
            .graph
            .index_of(ann.origin)
            .unwrap_or_else(|| panic!("unknown origin {}", ann.origin));
        let inputs = &mut self.inputs;
        inputs.announce_time = at;
        let path = ann.origination_path();
        inputs.ann_path = self.arena.intern(&path);
        inputs.ann_path_len = path.len() as u16;
        let seeds = [inputs.origin_idx.filter(|&old| old != idx), Some(idx)];
        inputs.origin_idx = Some(idx);
        inputs.announcement = Some(ann);
        self.run_event(seeds)
    }

    /// Withdraws the prefix and runs to fixpoint.
    pub fn withdraw(&mut self, at: Timestamp) -> Convergence {
        self.advance_clock(at);
        self.inputs.announcement = None;
        let seeds = [self.inputs.origin_idx.take(), None];
        self.run_event(seeds)
    }

    /// Injects an adversarial origination and runs to fixpoint: `attacker`
    /// starts originating this sim's prefix with the crafted
    /// [`hijack_origination`] path, competing with the legitimate
    /// announcement (which stays up). The attacker's local route wins
    /// locally like any origination, and the crafted path propagates
    /// exactly like a real announcement — BGP loop prevention (the forged
    /// origin never imports a path carrying its own ASN), poison filters,
    /// and any installed [`crate::DefensePlan`] apply unchanged. An unknown
    /// attacker is a no-op; re-hijacking from the same attacker replaces
    /// its previous crafted path.
    pub fn hijack(
        &mut self,
        attacker: Asn,
        forged_origin: Option<Asn>,
        poison: &[Asn],
        stealth: bool,
        at: Timestamp,
    ) -> Convergence {
        self.advance_clock(at);
        let Some(idx) = self.ctx.world.graph.index_of(attacker) else {
            return NO_OP_CONVERGENCE;
        };
        let path = hijack_origination(attacker, forged_origin, poison, stealth);
        let origin = ExtraOrigin {
            path: self.arena.intern(&path),
            path_len: path.len() as u16,
            at,
        };
        self.inputs.extra_origins.insert(idx, origin);
        self.run_event([Some(idx), None])
    }

    /// Takes the link between `a` and `b` down: every session over it (both
    /// directions) is torn — adj-RIB-in entries cleared, exports blocked —
    /// and the graph reconverges around the outage. Unknown ASNs or an
    /// already-down link are a no-op.
    pub fn fail_link(&mut self, a: Asn, b: Asn, at: Timestamp) -> Convergence {
        self.advance_clock(at);
        let Some(key) = self.link_nodes(a, b) else {
            return NO_OP_CONVERGENCE;
        };
        if !self.inputs.downed.insert(key) {
            return NO_OP_CONVERGENCE;
        }
        self.tear_sessions(key);
        self.run_recovery(key, 0)
    }

    /// Brings a downed link back up: both endpoints re-export their best
    /// routes over the restored sessions and the graph reconverges. A link
    /// that is not down is a no-op.
    pub fn restore_link(&mut self, a: Asn, b: Asn, at: Timestamp) -> Convergence {
        self.advance_clock(at);
        let Some(key) = self.link_nodes(a, b) else {
            return NO_OP_CONVERGENCE;
        };
        if !self.inputs.downed.remove(&key) {
            return NO_OP_CONVERGENCE;
        }
        let imports = self.reestablish_sessions(key);
        self.run_recovery(key, imports)
    }

    /// Resets the sessions between `a` and `b`: state is cleared and the
    /// sessions immediately re-established. The fixpoint is unchanged but
    /// the recovery work is real (and counted). A downed link cannot be
    /// reset.
    pub fn reset_link(&mut self, a: Asn, b: Asn, at: Timestamp) -> Convergence {
        self.advance_clock(at);
        let Some(key) = self.link_nodes(a, b) else {
            return NO_OP_CONVERGENCE;
        };
        if self.inputs.downed.contains(&key) {
            return NO_OP_CONVERGENCE;
        }
        self.tear_sessions(key);
        let imports = self.reestablish_sessions(key);
        self.run_recovery(key, imports)
    }

    /// Applies one scheduled fault event.
    pub fn apply_fault(&mut self, fault: &ir_fault::TimedFault) -> Convergence {
        match fault.event {
            ir_fault::FaultEvent::LinkDown { a, b } => self.fail_link(a, b, fault.at),
            ir_fault::FaultEvent::LinkUp { a, b } => self.restore_link(a, b, fault.at),
            ir_fault::FaultEvent::SessionReset { a, b } => self.reset_link(a, b, fault.at),
        }
    }

    /// Applies one [`Delta`] edit at time `at` and reconverges in place,
    /// seeding the worklist only from the AS(es) whose inputs changed. The
    /// returned [`Convergence`] counts this event alone (no cumulative
    /// carry-over), which is what [`crate::whatif::DeltaStats`] sums.
    pub fn apply_delta(&mut self, delta: &Delta, at: Timestamp) -> Convergence {
        // Free-order safety net: a preference edit can manufacture a
        // dispute gadget, and with one in place the free-order fixpoint is
        // activation-order-dependent. Unless a certifier vouched for this
        // sim's delta set ([`PrefixSim::grant_certificate_token`]), the sim
        // downgrades itself to the always-safe schedule before applying
        // the edit. The other variants keep the fast order: link edits
        // only tighten the certified Gao–Rexford preference conditions
        // (removal raises the customer floor and lowers the foreign
        // ceiling), and export/origination/filter edits change which
        // routes exist, not how tiers rank — uniqueness survives both.
        if self.inputs.order == ActivationOrder::Free
            && !self.ledger.cert_token
            && matches!(delta, Delta::NeighborPref { .. })
        {
            self.inputs.order = ActivationOrder::WaveExact;
        }
        self.ledger.stats.deltas_applied += 1;
        match delta {
            Delta::LinkDown { a, b } => self.fail_link(*a, *b, at),
            Delta::LinkUp { a, b } => self.restore_link(*a, *b, at),
            Delta::Announce(ann) => self.announce(ann.clone(), at),
            Delta::Withdraw => self.withdraw(at),
            Delta::NeighborPref { of, .. }
            | Delta::ExportPrepend { of, .. }
            | Delta::PartialTransit { of, .. }
            | Delta::SelectiveAnnounce { of, .. } => self.policy_edit(*of, delta, at),
            Delta::PoisonFilter { of, enabled } => self.poison_filter_edit(*of, *enabled, at),
            Delta::Hijack {
                attacker,
                forged_origin,
                poison,
                stealth,
            } => self.hijack(*attacker, *forged_origin, poison, *stealth, at),
        }
    }

    /// Shared tail of the policy-editing [`Delta`] variants: clone `of`'s
    /// effective spec into the overlay, apply `delta` to it
    /// ([`Delta::edit_policy`]), then reconverge with `of` as the only
    /// forced seed. Import-side edits (local-pref) invalidate `of`'s cached
    /// adj-RIB-in, so it is re-derived from the neighbors' (unchanged) best
    /// routes first; export-side edits need only the forced re-export —
    /// unchanged exports are skipped by the one-u32 fast path, so fan-out
    /// stays proportional to what changed.
    fn policy_edit(&mut self, of: Asn, delta: &Delta, at: Timestamp) -> Convergence {
        self.advance_clock(at);
        let Some(x) = self.ctx.world.graph.index_of(of) else {
            return NO_OP_CONVERGENCE;
        };
        let mut spec = overlay_policy(self.ctx.world, &self.inputs.overlay, x).clone();
        delta.edit_policy(&mut spec);
        self.inputs.overlay.insert(x, Arc::new(spec));
        let imports = if matches!(delta, Delta::NeighborPref { .. }) {
            self.rederive_rib(x, None)
        } else {
            0
        };
        self.run_rederived([Some(x), None], imports)
    }

    /// [`Delta::PoisonFilter`]: toggles AS-set filtering at one AS and
    /// reconverges. Import-side, so the adj-RIB-in is re-derived like a
    /// preference edit. A toggle to the current state is a no-op.
    fn poison_filter_edit(&mut self, of: Asn, enabled: bool, at: Timestamp) -> Convergence {
        self.advance_clock(at);
        let Some(x) = self.ctx.world.graph.index_of(of) else {
            return NO_OP_CONVERGENCE;
        };
        let filters = &mut self.inputs.poison_filters;
        let changed = if enabled {
            filters.insert(x)
        } else {
            filters.remove(&x)
        };
        if !changed {
            return NO_OP_CONVERGENCE;
        }
        let imports = self.rederive_rib(x, None);
        self.run_rederived([Some(x), None], imports)
    }

    /// Runs the event seeded by `seeds` after the caller re-derived
    /// adj-RIB-in entries at the cost of `imports` import evaluations. Those
    /// imports belong to *this* event: they are folded into the returned
    /// per-event counters (and once into the cumulative stats), so
    /// per-event sums equal cumulative deltas and DeltaStats never
    /// double-counts.
    fn run_rederived(&mut self, seeds: [Option<NodeIdx>; 2], imports: usize) -> Convergence {
        self.ledger.stats.imports += imports;
        let mut conv = self.run_event(seeds);
        conv.imports += imports;
        conv
    }

    /// Runs a fault-seeded reconvergence (after a session exchange of
    /// `imports` evaluations), counted as one recovery event.
    fn run_recovery(&mut self, key: (NodeIdx, NodeIdx), imports: usize) -> Convergence {
        self.ledger.stats.recovery_events += 1;
        let conv = self.run_rederived([Some(key.0), Some(key.1)], imports);
        self.ledger.stats.recovery_rounds += conv.rounds;
        conv
    }

    pub(super) fn link_nodes(&self, a: Asn, b: Asn) -> Option<(NodeIdx, NodeIdx)> {
        let g = &self.ctx.world.graph;
        Some(link_key(g.index_of(a)?, g.index_of(b)?))
    }

    /// Clears both endpoints' adj-RIB-in entries over the link's sessions,
    /// counting the live entries torn.
    fn tear_sessions(&mut self, key: (NodeIdx, NodeIdx)) {
        let PrefixSim {
            ctx, rib, ledger, ..
        } = self;
        for (x, other) in [(key.0, key.1), (key.1, key.0)] {
            let base = ctx.rib_base(x);
            for (si, s) in ctx.sessions(x).iter().enumerate() {
                if s.peer == other && rib.take(base + si).is_some() {
                    ledger.stats.sessions_torn += 1;
                }
            }
        }
    }

    /// Re-establishes the sessions over `key`: both sides exchange their
    /// current best routes — the initial RIB exchange of a BGP session
    /// coming up — refreshing the adj-RIB-in entries *before* the worklist
    /// runs. Without this, the lower-index endpoint would re-select before
    /// its neighbor's export arrives, and a configuration with multiple
    /// stable states could land in a different equilibrium than the
    /// pull-model sweep oracle. Returns import evaluations performed.
    fn reestablish_sessions(&mut self, key: (NodeIdx, NodeIdx)) -> usize {
        self.rederive_rib(key.1, Some(key.0)) + self.rederive_rib(key.0, Some(key.1))
    }
}
