#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! Resident what-if service: a supervised serving loop over the
//! incremental engine.
//!
//! The paper's counterfactual methodology ("how would routing change if
//! this policy flipped?") becomes interactive once the converged state
//! stays resident — `ir-bgp`'s [`WhatIfEngine`](ir_bgp::WhatIfEngine)
//! answers deltas in microseconds-to-milliseconds. This crate wraps that
//! engine in the machinery a *resident* process needs to stay honest
//! under hostile load:
//!
//! * [`protocol`] — newline-delimited JSON over TCP, std-only: every
//!   request builder, decoder and response encoder. Malformed input
//!   becomes a structured `error` response, never a dropped connection or
//!   a panic.
//! * [`admission`] — a bounded queue that sheds excess load explicitly
//!   (`status: shed`, `retry_after_ms`) instead of queueing unboundedly.
//! * [`server`] — the supervised loop: worker pool, per-query step
//!   budgets that carry the wall deadline into the engine, per-prefix
//!   circuit breakers, degraded-mode answers, and graceful drain. It
//!   writes no snapshot: queries roll back, so the served universe never
//!   changes, and `ir-serve` publishes it once at startup through the
//!   atomic temp + fsync + rename path.
//! * [`client`] — a thin blocking socket client used by the tests, the
//!   smoke script, and the benchmark's `serve_mixed` workload.
//!
//! Robustness invariants the integration suites pin:
//!
//! * **Every request gets a response** — ok, degraded, shed, or error.
//! * **The backlog is bounded** — queue depth never exceeds the cap
//!   (`queue_high_water` proves it).
//! * **Deadlines degrade, never hang** — a tripped budget answers with
//!   the base routes and `degraded: ["deadline"]`.
//! * **kill -9 is survivable** — restart recovers the last published
//!   snapshot byte-for-byte (CRC-verified, staging debris discarded).

pub mod admission;
pub mod client;
pub mod protocol;
pub mod server;

pub use admission::AdmissionQueue;
pub use client::Client;
pub use protocol::{
    control_line, hijack_line, parse_request, route_line, stats_response, whatif_line, ParseError,
    Request,
};
pub use server::{OpKind, OpLatency, ServeConfig, ServeStats, Server};
