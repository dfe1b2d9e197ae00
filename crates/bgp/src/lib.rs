#![forbid(unsafe_code)]
// Engine and topology library code must degrade gracefully, never panic on
// data: unwrap/expect are denied outside tests (gate enforced by
// scripts/check.sh).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! Deterministic path-vector (BGP) simulator.
//!
//! This crate is the control-plane substrate of the reproduction. It
//! implements:
//!
//! * AS paths with `AS_SEQUENCE`/`AS_SET` segments — AS-sets are how the
//!   paper's PEERING experiments wrap poisoned ASNs (§3.2);
//! * the BGP decision process in the order the paper reverse-engineers
//!   (Table 2): local preference → AS-path length → intradomain (IGP) cost
//!   → route age → neighbor ASN as the router-id proxy;
//! * Gao–Rexford import/export policy plus every ground-truth deviation the
//!   topology's [`PolicySpec`](ir_topology::policy::PolicySpec) can express
//!   (selective announcement, partial transit, per-neighbor preference
//!   deltas, domestic-path preference, hybrid per-city relationships);
//! * BGP loop prevention, which is what makes poisoning work — and its
//!   per-AS opt-outs, which is what makes poisoning *fail* in the ways §4.4
//!   describes;
//! * an event-driven worklist fixpoint engine per prefix
//!   ([`sim::PrefixSim`]) over a per-world shared [`sim::SimContext`], and
//!   a rayon-parallel multi-prefix layer ([`universe`]). The full-sweep
//!   oracle the differential suites compare it against is test code
//!   (`tests/support`), built from the public model alone. The engine
//!   lives in `src/sim/`, one file per seam; [`sim`]'s docs list them.
//!
//! Hybrid relationships are modeled the way they arise operationally: a
//! link interconnecting in two cities is **two BGP sessions**, each with the
//! relationship in force at its city. A route therefore remembers the city
//! it entered through, which the data plane later geolocates.

mod compact;
pub mod decision;
pub mod extension;
pub mod path;
pub mod patharena;
pub mod policy_eval;
pub mod route;
pub mod sim;
mod snapshot;
pub mod universe;
pub mod whatif;
mod worklist;

/// The data-parallel façade the engine fans out on, re-exported so crates
/// that drive the engine (the testbed's poisoning campaigns) fan out over
/// it without a dependency of their own.
pub use rayon;

pub use compact::MemoryBudget;
pub use extension::{DefenseId, DefensePlan, ExtensionCheck, PolicyExtension, MAX_DEFENSES};
pub use path::{AsPath, Segment};
pub use patharena::{ArenaStats, PathArena, PathId};
pub use route::Route;
pub use sim::{
    hijack_origination, ActivationOrder, Announcement, Convergence, Delta, EngineStats,
    Oscillation, PrefixSim, SimContext, StepBudget,
};
pub use universe::{snapshot_staging_path, RoutingUniverse, UniverseResilience};
pub use whatif::{
    CertificateDelta, DeltaCertifier, DeltaStats, QueryError, RouteDiff, ShapeWaits, WhatIfAnswer,
    WhatIfEngine, WhatIfQuery, MAX_DELTAS_PER_QUERY,
};
