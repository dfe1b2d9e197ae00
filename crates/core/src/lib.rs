#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! The paper's methodology: how far do routing models hold, and why not?
//!
//! This crate is the primary contribution of the reproduction. Everything
//! else (topology, BGP, data plane, inference, measurement platforms) is a
//! substrate; here live the analyses that produce the paper's tables and
//! figures:
//!
//! * [`grmodel`] — all paths satisfying the Gao–Rexford model, computed
//!   over an *inferred* relationship topology (§3.3): per destination, the
//!   best available route class and shortest valley-free lengths at every
//!   AS, with path extraction;
//! * [`dataset`] — turning raw traceroutes into measured AS paths with
//!   geographic context, and into per-AS routing *decisions*;
//! * [`classify`] — the Best/Short four-way classification (§3.3); the
//!   [`classify::Classifier`] works through `&self` over a sharded route
//!   cache, and [`classify::Classifier::classify_batch`] classifies whole
//!   decision slices in parallel with verdicts in input order;
//! * [`refine`] — the Figure 1 pipeline: complex relationships, siblings,
//!   and the two prefix-specific-policy criteria (§4.1–4.3);
//! * [`table`] — the decisions classified once per report, one category
//!   column per Figure 1 variant, that Figures 1–3, Tables 3–4 and the
//!   informed model count;
//! * [`alternates`] — preference-order checks over poisoning-revealed
//!   routes, and the inter-AS-link accounting (§3.2, §4.4);
//! * [`magnet`] — reverse-engineering the BGP decision process from the
//!   magnet/anycast experiment (Table 2);
//! * [`skew`] — violation skew across source/destination ASes (Figure 2);
//! * [`geography`] — continental breakdowns, domestic-path preference and
//!   undersea cables (Figure 3, Tables 3–4);
//! * [`validate`] — looking-glass validation of PSP inferences (§4.3).
//!
//! Two modules go beyond the paper, in directions it explicitly points at:
//!
//! * [`consistency`] — destination-based-routing violation detection over
//!   the measured dataset (the Mazloum et al. control-plane check §2
//!   cites); in this closed world every hit is a conversion artifact, so
//!   the report doubles as a data-quality metric;
//! * [`nextmodel`] — the §7 future work: an *informed* model that folds
//!   poisoning-revealed neighbor rankings and detected domestic
//!   preference back into classification, with an evaluation harness;
//! * [`augment`] — the §1 suggestion: extend the inferred topology with
//!   looking-glass views (alternative routes no best-path feed carries);
//! * [`predict`] — path-level prediction accuracy, the evaluation that the
//!   simulation studies motivating §1 actually depend on.

pub mod alternates;
pub mod augment;
pub mod classify;
pub mod consistency;
pub mod dataset;
pub mod geography;
pub mod grmodel;
pub mod magnet;
pub mod nextmodel;
pub mod predict;
pub mod refine;
pub mod skew;
pub mod table;
pub mod validate;

pub use grmodel::{GrModel, GrRoutes, RouteClass};
