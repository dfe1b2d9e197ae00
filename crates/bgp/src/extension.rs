//! Pluggable per-AS defense policies evaluated in the import/export path.
//!
//! The paper measures which policies ASes run *in the wild*; the security
//! scenario suite (the `ir-scenarios` crate) needs the dual: inject a
//! policy and measure what it blocks. A [`PolicyExtension`] is a
//! stateless predicate consulted by [`crate::sim::PrefixSim`] right after
//! the built-in poison filters and before a route enters the adj-RIB-in
//! (import side) or leaves toward a neighbor (export side). Extensions
//! see only immutable world state plus the interned path, so they stay
//! cheap enough to sit on the hot path and trivially `Send + Sync` for
//! the rayon sweep.
//!
//! Heterogeneous deployment — the whole point of an adoption sweep — is a
//! [`DefensePlan`]: a small registry of extensions plus a per-AS bitmask
//! of which ones each AS has adopted. An empty plan short-circuits to the
//! undefended fast path, which is what makes the 0%-adoption sweep
//! byte-identical to a plain undefended run.

use crate::patharena::{PathArena, PathId};
use ir_topology::graph::NodeIdx;
use ir_topology::World;
use ir_types::{Asn, Prefix, Relationship};
use std::sync::Arc;

/// Everything an extension may look at when judging one route on one
/// session. Borrowed views only — extensions never mutate engine state.
pub struct ExtensionCheck<'a> {
    /// The immutable world (graph, ground-truth policies).
    pub world: &'a World,
    /// Arena holding the route's interned AS path.
    pub arena: &'a PathArena,
    /// The AS applying the check (importer on import, exporter on export).
    pub me: NodeIdx,
    /// The session peer the route is coming from (import) or going to
    /// (export).
    pub peer: NodeIdx,
    /// Relationship of `peer` as seen from `me`.
    pub rel: Relationship,
    /// Prefix the route is for.
    pub prefix: Prefix,
    /// The AS path as received (import) or as it would be sent, prepends
    /// included (export).
    pub path: PathId,
}

impl ExtensionCheck<'_> {
    /// ASN of the session peer.
    pub fn peer_asn(&self) -> Asn {
        self.world.graph.asn(self.peer)
    }

    /// Origin AS claimed by the path (last sequence element), if any.
    pub fn origin_asn(&self) -> Option<Asn> {
        self.arena.origin_as(self.path)
    }

    /// First (most recent) sequence AS on the path, if any.
    pub fn first_asn(&self) -> Option<Asn> {
        self.arena.first_as(self.path)
    }
}

/// A defense policy an AS may adopt. Both hooks default to *accept* so an
/// implementation overrides only the direction it cares about (ROV and
/// enforce-first-AS are import-side; an export-side extension could model
/// egress filtering).
///
/// A verdict must be a pure function of the [`ExtensionCheck`]: the engine
/// caches import results in the adj-RIB-in, replays them in warm forks, and
/// proves oscillations periodic on the premise that the same route state
/// yields the same next wave.
pub trait PolicyExtension: Send + Sync {
    /// Stable identifier used in sweep output and fixtures.
    fn name(&self) -> &'static str;

    /// Whether `me` accepts this route from `peer` into its adj-RIB-in.
    fn accept_import(&self, check: &ExtensionCheck<'_>) -> bool {
        let _ = check;
        true
    }

    /// Whether `me` lets this route out toward `peer`.
    fn allow_export(&self, check: &ExtensionCheck<'_>) -> bool {
        let _ = check;
        true
    }
}

/// Handle for one registered extension inside a [`DefensePlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefenseId(u32);

/// Maximum extensions per plan (adoption is a `u32` bitmask per AS).
pub const MAX_DEFENSES: usize = 32;

/// Which ASes run which [`PolicyExtension`]s.
///
/// Registration is capped at [`MAX_DEFENSES`] per plan; adoption is a
/// per-AS bitmask so membership tests on the hot path are one load and
/// mask. `Default` is the empty plan over zero ASes (defends nothing).
#[derive(Default)]
pub struct DefensePlan {
    exts: Vec<Arc<dyn PolicyExtension>>,
    per_as: Vec<u32>,
    any: bool,
}

impl DefensePlan {
    /// Empty plan over `n` ASes.
    pub fn new(n: usize) -> Self {
        DefensePlan {
            exts: Vec::new(),
            per_as: vec![0; n],
            any: false,
        }
    }

    /// Empty plan sized to `world`'s AS count.
    pub fn for_world(world: &World) -> Self {
        Self::new(world.graph.len())
    }

    /// Register an extension; returns its handle, or `None` once the
    /// [`MAX_DEFENSES`] bitmask is exhausted.
    pub fn register(&mut self, ext: Arc<dyn PolicyExtension>) -> Option<DefenseId> {
        if self.exts.len() >= MAX_DEFENSES {
            return None;
        }
        let id = DefenseId(self.exts.len() as u32);
        self.exts.push(ext);
        Some(id)
    }

    /// Have `node` adopt the extension `id`.
    pub fn adopt(&mut self, node: NodeIdx, id: DefenseId) {
        if let Some(mask) = self.per_as.get_mut(node) {
            *mask |= 1u32 << id.0;
            self.any = true;
        }
    }

    /// Have every AS adopt the extension `id`.
    pub fn adopt_all(&mut self, id: DefenseId) {
        for mask in &mut self.per_as {
            *mask |= 1u32 << id.0;
        }
        self.any = !self.per_as.is_empty();
    }

    /// True when no AS has adopted anything — the engine's signal to take
    /// the undefended fast path.
    pub fn is_empty(&self) -> bool {
        !self.any
    }

    /// Whether `node` has adopted at least one extension.
    pub fn defends(&self, node: NodeIdx) -> bool {
        self.per_as.get(node).is_some_and(|m| *m != 0)
    }

    /// Registered extension names in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.exts.iter().map(|e| e.name()).collect()
    }

    fn mask(&self, node: NodeIdx) -> u32 {
        self.per_as.get(node).copied().unwrap_or(0)
    }

    /// Evaluate every extension `check.me` has adopted on the import side.
    pub fn accepts_import(&self, check: &ExtensionCheck<'_>) -> bool {
        let mut mask = self.mask(check.me);
        while mask != 0 {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            match self.exts.get(bit) {
                Some(ext) if !ext.accept_import(check) => return false,
                _ => {}
            }
        }
        true
    }

    /// Evaluate every extension `check.me` has adopted on the export side.
    pub fn allows_export(&self, check: &ExtensionCheck<'_>) -> bool {
        let mut mask = self.mask(check.me);
        while mask != 0 {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            match self.exts.get(bit) {
                Some(ext) if !ext.allow_export(check) => return false,
                _ => {}
            }
        }
        true
    }
}

impl std::fmt::Debug for DefensePlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DefensePlan")
            .field("exts", &self.names())
            .field("ases", &self.per_as.len())
            .field("adopters", &self.per_as.iter().filter(|m| **m != 0).count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct RejectAll;
    impl PolicyExtension for RejectAll {
        fn name(&self) -> &'static str {
            "reject-all"
        }
        fn accept_import(&self, _check: &ExtensionCheck<'_>) -> bool {
            false
        }
    }

    #[test]
    fn empty_plan_defends_nothing() {
        let plan = DefensePlan::new(4);
        assert!(plan.is_empty());
        assert!(!plan.defends(0));
        assert!(!plan.defends(99));
    }

    #[test]
    fn adoption_is_per_as() {
        let mut plan = DefensePlan::new(4);
        let id = plan.register(Arc::new(RejectAll)).unwrap();
        plan.adopt(2, id);
        assert!(!plan.is_empty());
        assert!(plan.defends(2));
        assert!(!plan.defends(1));
        // Out-of-range adoption is ignored, not a panic.
        plan.adopt(77, id);
        assert!(!plan.defends(77));
    }

    #[test]
    fn registration_caps_at_bitmask_width() {
        let mut plan = DefensePlan::new(1);
        for _ in 0..MAX_DEFENSES {
            assert!(plan.register(Arc::new(RejectAll)).is_some());
        }
        assert!(plan.register(Arc::new(RejectAll)).is_none());
    }
}
