//! The transfer pipeline: the one statement of what happens to a route
//! crossing a session, from the exporter's best route to the listener's
//! adj-RIB-in entry, and the per-sim policy overlay it resolves policies
//! through.

use super::context::{link_key, Session, SimContext};
use super::{Announcement, Inputs, PrefixSim};
use crate::compact::{clamp_age, route_tag, tier_of_tag, CompactRoute, RouteColumns};
use crate::extension::{DefensePlan, ExtensionCheck};
use crate::patharena::{PathArena, PathId};
use crate::policy_eval;
use ir_topology::graph::NodeIdx;
use ir_topology::policy::PolicySpec;
use ir_topology::World;
use ir_types::{Asn, Relationship};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-sim policy edits layered over the world's ground truth: the
/// copy-on-write half of delta reconvergence. Worlds stay immutable and
/// shared; a [`super::Delta`] policy edit clones the affected AS's resolved
/// spec into the sim's private overlay.
pub(super) type PolicyOverlay = BTreeMap<NodeIdx, Arc<PolicySpec>>;

/// Resolves `x`'s effective [`PolicySpec`]: the overlay entry when one
/// exists, the world's ground truth otherwise. The empty-overlay fast path
/// keeps delta-free simulations at exactly their old cost.
pub(super) fn overlay_policy<'a>(
    world: &'a World,
    overlay: &'a PolicyOverlay,
    x: NodeIdx,
) -> &'a PolicySpec {
    if overlay.is_empty() {
        return world.policy(x);
    }
    match overlay.get(&x) {
        Some(spec) => spec.as_ref(),
        None => world.policy(x),
    }
}

/// Everything a route crossing a session reads, borrowed from one sim —
/// the single statement of the transfer pipeline (the arena mutably: an
/// export conses into it). The **export half** runs link-up check → the
/// origin's `via` restriction → Gao–Rexford export rule → prepending; the
/// **import half** counts the evaluation, then runs AS-set (poison) filter
/// → defenses → import policy.
/// [`PrefixSim::push_exports`] puts its unchanged-path short-circuit
/// between the halves; [`PrefixSim::rederive_rib`] runs them back to back.
pub(super) struct Transfer<'a, 'w> {
    pub(super) ctx: &'a SimContext<'w>,
    arena: &'a mut PathArena,
    /// The sim's inputs: prefix, downed links, poison filters, overlay.
    inputs: &'a Inputs,
    /// The primary origination. Its `via` restriction binds the origin's
    /// exports alone: an adversarial extra origination exports to all
    /// neighbors.
    origin: Option<(NodeIdx, &'a Announcement)>,
    /// `None` for an absent *or empty* plan — the undefended fast path,
    /// which keeps defense-free simulations bit-identical to their
    /// pre-extension behavior.
    defenses: Option<&'a DefensePlan>,
    /// The current clock, as imported routes are stamped.
    age: u32,
}

/// The sending side of the export half: `idx`'s ASN, selected route and
/// its tier, effective policy and — for the primary origin only — its
/// announcement, resolved once per sender so the per-listener loop of
/// [`PrefixSim::push_exports`] re-reads none of them.
pub(super) struct Sender<'a> {
    idx: NodeIdx,
    asn: Asn,
    best: Option<CompactRoute>,
    /// The tier `best` ranks at (`None` = local origination or no route).
    tier: Option<Relationship>,
    policy: &'a PolicySpec,
    ann: Option<&'a Announcement>,
}

impl Sender<'_> {
    /// The tier a sibling listener imports this sender's route at: its own
    /// tier, and the customer tier for an origination.
    fn carried(&self) -> Relationship {
        self.tier.unwrap_or(Relationship::Customer)
    }

    /// The route tag `to` stores for this sender's route over `s`.
    pub(super) fn tag_over(&self, s: &Session) -> u8 {
        route_tag(s.rel, policy_eval::carried_tier(s.rel, self.carried()))
    }
}

impl<'a> Transfer<'a, '_> {
    pub(super) fn sender(&self, idx: NodeIdx, best: Option<CompactRoute>) -> Sender<'a> {
        Sender {
            idx,
            asn: self.ctx.world.graph.asn(idx),
            best,
            tier: best.and_then(|b| tier_of_tag(b.rel)),
            policy: overlay_policy(self.ctx.world, &self.inputs.overlay, idx),
            ann: self.origin.filter(|&(o, _)| o == idx).map(|(_, a)| a),
        }
    }

    /// Export half: the path `from` announces to `to` over `s` — the
    /// session as `to` holds it, `s.peer == from.idx` — as an arena cons of
    /// `from` plus its export prepending. `None` when the link is down,
    /// `from` has no route, or policy withholds it. `from`'s
    /// policy is its resolved spec: the world's ground truth, or the sim's
    /// overlay entry after a [`super::Delta`] edited it.
    #[inline]
    pub(super) fn export(&mut self, from: &Sender<'_>, to: NodeIdx, s: &Session) -> Option<PathId> {
        // A downed link carries nothing in either direction.
        let downed = &self.inputs.downed;
        if !downed.is_empty() && downed.contains(&link_key(from.idx, to)) {
            return None;
        }
        let best = from.best.as_ref()?;
        let to_asn = self.ctx.world.graph.asn(to);
        // The `via` restriction applies at the origin for local routes.
        let via = from.ann.and_then(|ann| ann.via.as_ref());
        if best.is_local() && via.is_some_and(|via| !via.contains(&to_asn)) {
            return None;
        }
        // Relationship of `to` as seen from `from` at this city: the mirror
        // of the session relationship (set_hybrid keeps both sides
        // consistent).
        let rel = s.rel.reverse();
        let prefix = self.inputs.prefix;
        if !policy_eval::may_export(from.policy, from.tier, prefix, to_asn, rel) {
            return None;
        }
        // Export-side prepending (inbound traffic engineering), plus the
        // ordinary prepend for learned routes, in one cons.
        let extra = from.policy.prepends_to(to_asn) as usize;
        let count = if best.is_local() { extra } else { extra + 1 };
        Some(self.arena.prepend_n(best.path, from.asn, count))
    }

    /// Import half: what `to` installs for `path`, exported by `from`,
    /// arriving over its session `s`, or `None` if a filter, a defense or
    /// import policy drops it. Every call is one import evaluation, counted
    /// into `imports` before any filter runs.
    #[inline]
    pub(super) fn import(
        &self,
        imports: &mut usize,
        from: &Sender<'_>,
        to: NodeIdx,
        s: &Session,
        path: PathId,
    ) -> Option<CompactRoute> {
        *imports += 1;
        let ctx = self.ctx;
        // Fault-injected filtering: this AS drops poisoned
        // (AS-set-carrying) announcements outright, §5.
        let poison_filters = &self.inputs.poison_filters;
        if !poison_filters.is_empty() && poison_filters.contains(&to) && self.arena.has_set(path) {
            return None;
        }
        if self
            .defenses
            .is_some_and(|plan| !plan.accepts_import(&self.check(to, s.peer, s.rel, path)))
        {
            return None;
        }
        let policy = overlay_policy(ctx.world, &self.inputs.overlay, to);
        let tier = policy_eval::carried_tier(s.rel, from.carried());
        policy_eval::import(
            ctx.world, policy, self.arena, to, s.peer, s.city, s.rel, tier, s.kind, path, s.igp,
            self.age,
        )
    }

    /// What a [`DefensePlan`] sees of `path` on the `me`–`peer` session.
    fn check(
        &self,
        me: NodeIdx,
        peer: NodeIdx,
        rel: Relationship,
        path: PathId,
    ) -> ExtensionCheck<'_> {
        ExtensionCheck {
            world: self.ctx.world,
            arena: self.arena,
            me,
            peer,
            rel,
            prefix: self.inputs.prefix,
            path,
        }
    }
}

impl<'w> PrefixSim<'w> {
    /// Splits the sim into the [`Transfer`] view (read-only but for the
    /// arena), the best table exports are read from, and the adj-RIB-in
    /// imports are written to.
    pub(super) fn transfer(&mut self) -> (Transfer<'_, 'w>, &RouteColumns, &mut RouteColumns) {
        let inputs = &self.inputs;
        let view = Transfer {
            ctx: &self.ctx,
            arena: &mut self.arena,
            origin: inputs.origin_idx.zip(inputs.announcement.as_ref()),
            defenses: self.defenses.as_deref().filter(|plan| !plan.is_empty()),
            age: clamp_age(inputs.clock),
            inputs,
        };
        (view, &self.best, &mut self.rib)
    }

    /// Recomputes `x`'s adj-RIB-in — every session, or only those toward
    /// `only_peer` — from its neighbors' current best routes under the
    /// *current* (post-edit) policies. Sound at any converged point because
    /// the engine maintains the invariant
    /// `rib[x][si] == import(export(peer's best))` for live sessions — the
    /// stored entries are a pure function of state this pass re-reads.
    /// Returns import evaluations performed.
    pub(super) fn rederive_rib(&mut self, x: NodeIdx, only_peer: Option<NodeIdx>) -> usize {
        let mut imports = 0;
        let (mut t, best, rib) = self.transfer();
        let base = t.ctx.rib_base(x);
        for (si, s) in t.ctx.sessions(x).iter().enumerate() {
            if only_peer.is_some_and(|peer| peer != s.peer) {
                continue;
            }
            let sender = t.sender(s.peer, best.get(s.peer));
            let imported = t
                .export(&sender, x, s)
                .and_then(|p| t.import(&mut imports, &sender, x, s, p));
            rib.set(base + si, imported);
        }
        imports
    }
}
