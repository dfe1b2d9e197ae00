#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! Deterministic, seeded fault injection — the chaos layer.
//!
//! The paper's pipeline ran on a hostile substrate: RIPE Atlas probes
//! disconnect mid-campaign, PEERING muxes go quiet or filter poisoned
//! announcements, BGP sessions flap while measurements are in flight, and
//! collector feeds have gaps. This crate turns those failure modes into
//! first-class, *reproducible* scenarios: a [`FaultPlane`] owns per-subsystem
//! rates ([`FaultConfig`]) plus an explicit schedule of timed events, and
//! every sampling decision is a pure hash of `(seed, domain, entity, trial)`
//! — **order-independent**, so the same seed yields the same faults no matter
//! which subsystem asks first or whether the consumers run on one thread or
//! sixteen.
//!
//! Two invariants the differential suite leans on:
//!
//! * **Zero is a strict no-op.** A rate of `0.0` never fires, never touches
//!   a counter, and costs one branch. Pipelines run with
//!   [`FaultConfig::quiet`] are bit-identical to pipelines that never heard
//!   of this crate.
//! * **Everything fired is counted.** [`FaultPlane::stats`] snapshots atomic
//!   per-domain counters, so reports can account for every injected fault.

use ir_types::{Asn, Timestamp};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-subsystem fault rates, all probabilities in `[0, 1]`.
///
/// The default is **all zeros** — the quiet plane. Construct nonzero configs
/// explicitly (or via [`FaultConfig::chaos`]) so that fault injection is
/// always an opt-in.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    /// Probability a given peering/transit link flaps (down, then back up)
    /// during a control-plane window.
    pub link_flap: f64,
    /// Probability a given BGP session is reset (state cleared, immediately
    /// re-established) during a control-plane window.
    pub session_reset: f64,
    /// Fraction of ASes that filter announcements carrying an `AS-SET`
    /// (the poisoned-path sandwich, §5 "some ASes drop poisoned paths").
    pub poison_filter: f64,
    /// Per-attempt probability a probe is disconnected and the measurement
    /// times out (transient; the attempt can be retried).
    pub probe_dropout: f64,
    /// Per-campaign probability a probe dies partway through and never
    /// comes back (its remaining measurements must be abandoned).
    pub probe_death: f64,
    /// Per-round probability a PEERING mux is down for that round.
    pub mux_outage: f64,
    /// Per-query probability DNS resolution fails transiently.
    pub dns_failure: f64,
    /// Per-interval probability a collector misses its dump (feed gap).
    pub feed_gap: f64,
}

impl FaultConfig {
    /// The all-zero config: injection disabled everywhere.
    pub fn quiet() -> FaultConfig {
        FaultConfig::default()
    }

    /// True iff every rate is exactly zero (the plane cannot fire).
    pub fn is_quiet(&self) -> bool {
        self.link_flap == 0.0
            && self.session_reset == 0.0
            && self.poison_filter == 0.0
            && self.probe_dropout == 0.0
            && self.probe_death == 0.0
            && self.mux_outage == 0.0
            && self.dns_failure == 0.0
            && self.feed_gap == 0.0
    }

    /// A proportional all-subsystem preset: `chaos(1.0)` is a plausibly
    /// hostile Internet, `chaos(0.2)` a mildly bad week.
    pub fn chaos(intensity: f64) -> FaultConfig {
        let i = intensity.clamp(0.0, 1.0);
        FaultConfig {
            link_flap: 0.04 * i,
            session_reset: 0.03 * i,
            poison_filter: 0.10 * i,
            probe_dropout: 0.05 * i,
            probe_death: 0.02 * i,
            mux_outage: 0.08 * i,
            dns_failure: 0.04 * i,
            feed_gap: 0.06 * i,
        }
    }
}

/// The fault subsystems a plane samples for. Each domain has a stable tag
/// mixed into the hash, so adding a domain never perturbs another's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultDomain {
    LinkFlap,
    SessionReset,
    PoisonFilter,
    ProbeDropout,
    ProbeDeath,
    MuxOutage,
    DnsFailure,
    FeedGap,
}

impl FaultDomain {
    /// Every domain, in counter order.
    pub const ALL: [FaultDomain; 8] = [
        FaultDomain::LinkFlap,
        FaultDomain::SessionReset,
        FaultDomain::PoisonFilter,
        FaultDomain::ProbeDropout,
        FaultDomain::ProbeDeath,
        FaultDomain::MuxOutage,
        FaultDomain::DnsFailure,
        FaultDomain::FeedGap,
    ];

    fn tag(self) -> u64 {
        match self {
            FaultDomain::LinkFlap => 0x11a7_f1a9,
            FaultDomain::SessionReset => 0x5e55_0000,
            FaultDomain::PoisonFilter => 0x9015_0000,
            FaultDomain::ProbeDropout => 0x9806_d809,
            FaultDomain::ProbeDeath => 0x9806_dead,
            FaultDomain::MuxOutage => 0x3503_0a7e,
            FaultDomain::DnsFailure => 0x0d45_fa11,
            FaultDomain::FeedGap => 0x0fee_d0a9,
        }
    }

    fn idx(self) -> usize {
        match self {
            FaultDomain::LinkFlap => 0,
            FaultDomain::SessionReset => 1,
            FaultDomain::PoisonFilter => 2,
            FaultDomain::ProbeDropout => 3,
            FaultDomain::ProbeDeath => 4,
            FaultDomain::MuxOutage => 5,
            FaultDomain::DnsFailure => 6,
            FaultDomain::FeedGap => 7,
        }
    }

    /// Human label used by `diag` and reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultDomain::LinkFlap => "link flaps",
            FaultDomain::SessionReset => "session resets",
            FaultDomain::PoisonFilter => "poison filters",
            FaultDomain::ProbeDropout => "probe dropouts",
            FaultDomain::ProbeDeath => "probe deaths",
            FaultDomain::MuxOutage => "mux outages",
            FaultDomain::DnsFailure => "dns failures",
            FaultDomain::FeedGap => "feed gaps",
        }
    }
}

/// A scheduled control-plane fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Both directions of the session between the two ASes go down.
    LinkDown { a: Asn, b: Asn },
    /// The session comes back up (state re-learned from scratch).
    LinkUp { a: Asn, b: Asn },
    /// The session is reset: state cleared, immediately re-established.
    SessionReset { a: Asn, b: Asn },
}

/// A fault event pinned to a simulation timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedFault {
    pub at: Timestamp,
    pub event: FaultEvent,
}

/// Point-in-time snapshot of the plane's per-domain fire counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    pub counts: [u64; 8],
}

impl FaultCounts {
    /// Fires recorded for one domain.
    pub fn of(&self, d: FaultDomain) -> u64 {
        self.counts[d.idx()]
    }

    /// Total fires across all domains.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl std::fmt::Display for FaultCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for d in FaultDomain::ALL {
            let n = self.of(d);
            if n > 0 {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{} {}", n, d.label())?;
                first = false;
            }
        }
        if first {
            write!(f, "none")?;
        }
        Ok(())
    }
}

/// The seeded fault plane threaded through the stack.
///
/// Sampling is stateless: `fires(domain, entity, trial)` hashes the plane
/// seed with the domain tag, an entity key (probe ASN, link endpoints, …)
/// and a trial index, and compares against the configured rate. Counters
/// are atomics so a shared `&FaultPlane` works across rayon workers.
#[derive(Debug)]
pub struct FaultPlane {
    seed: u64,
    cfg: FaultConfig,
    schedule: Vec<TimedFault>,
    fired: [AtomicU64; 8],
}

impl FaultPlane {
    /// A plane with the given rates and no timed schedule.
    pub fn new(cfg: FaultConfig, seed: u64) -> FaultPlane {
        FaultPlane {
            seed,
            cfg,
            schedule: Vec::new(),
            fired: Default::default(),
        }
    }

    /// The quiet plane: never fires, schedules nothing.
    pub fn quiet() -> FaultPlane {
        FaultPlane::new(FaultConfig::quiet(), 0)
    }

    /// The plane's rate configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// The plane's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True iff all rates are zero *and* no events are scheduled.
    pub fn is_quiet(&self) -> bool {
        self.cfg.is_quiet() && self.schedule.is_empty()
    }

    /// Appends a timed event, keeping the schedule sorted by time (stable
    /// for equal timestamps, so insertion order breaks ties).
    pub fn schedule_event(&mut self, at: Timestamp, event: FaultEvent) {
        let pos = self.schedule.partition_point(|t| t.at <= at);
        self.schedule.insert(pos, TimedFault { at, event });
    }

    /// The full timed schedule, sorted by time.
    pub fn schedule(&self) -> &[TimedFault] {
        &self.schedule
    }

    /// Derives a link flap/reset schedule for the given links over the
    /// window `[0, window)`. Each link is sampled independently (hash of
    /// its endpoints), flap downtime spans the middle of the window, and
    /// resets land at a link-specific offset. Purely additive: with both
    /// rates zero, no events are produced.
    pub fn synthesize_link_schedule(&mut self, links: &[(Asn, Asn)], window: Timestamp) {
        for &(a, b) in links {
            let key = key2(a.value() as u64, b.value() as u64);
            if self.samples(FaultDomain::LinkFlap, key, 0, self.cfg.link_flap) {
                self.record(FaultDomain::LinkFlap, 1);
                // Down for the middle third of the window, offset per link.
                let span = window.0.max(3);
                let down = span / 3 + (self.roll_u64(FaultDomain::LinkFlap, key, 1) % (span / 3));
                let up = down + span / 4 + 1;
                self.schedule_event(Timestamp(down), FaultEvent::LinkDown { a, b });
                self.schedule_event(Timestamp(up.min(span - 1)), FaultEvent::LinkUp { a, b });
            }
            if self.samples(FaultDomain::SessionReset, key, 0, self.cfg.session_reset) {
                self.record(FaultDomain::SessionReset, 1);
                let span = window.0.max(2);
                let at = 1 + self.roll_u64(FaultDomain::SessionReset, key, 1) % (span - 1);
                self.schedule_event(Timestamp(at), FaultEvent::SessionReset { a, b });
            }
        }
    }

    /// Does the fault of `domain` fire for `(entity, trial)`? Counts a fire.
    /// With the domain's rate at zero this is a single branch and never
    /// counts anything.
    pub fn fires(&self, domain: FaultDomain, entity: u64, trial: u64) -> bool {
        let rate = match domain {
            FaultDomain::LinkFlap => self.cfg.link_flap,
            FaultDomain::SessionReset => self.cfg.session_reset,
            FaultDomain::PoisonFilter => self.cfg.poison_filter,
            FaultDomain::ProbeDropout => self.cfg.probe_dropout,
            FaultDomain::ProbeDeath => self.cfg.probe_death,
            FaultDomain::MuxOutage => self.cfg.mux_outage,
            FaultDomain::DnsFailure => self.cfg.dns_failure,
            FaultDomain::FeedGap => self.cfg.feed_gap,
        };
        if self.samples(domain, entity, trial, rate) {
            self.fired[domain.idx()].fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Like [`FaultPlane::fires`] but without touching the counters — for
    /// membership-style queries ("does AS x filter AS-sets?") that are asked
    /// repeatedly about the same entity.
    pub fn selects(&self, domain: FaultDomain, entity: u64) -> bool {
        let rate = match domain {
            FaultDomain::PoisonFilter => self.cfg.poison_filter,
            FaultDomain::ProbeDeath => self.cfg.probe_death,
            FaultDomain::MuxOutage => self.cfg.mux_outage,
            FaultDomain::FeedGap => self.cfg.feed_gap,
            FaultDomain::LinkFlap => self.cfg.link_flap,
            FaultDomain::SessionReset => self.cfg.session_reset,
            FaultDomain::ProbeDropout => self.cfg.probe_dropout,
            FaultDomain::DnsFailure => self.cfg.dns_failure,
        };
        self.samples(domain, entity, 0, rate)
    }

    /// Records `n` externally-observed fires for a domain (e.g. the engine
    /// counting sessions a scheduled LinkDown actually tore).
    pub fn record(&self, domain: FaultDomain, n: u64) {
        if n > 0 {
            self.fired[domain.idx()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Snapshot of the per-domain fire counters.
    pub fn stats(&self) -> FaultCounts {
        let mut counts = [0u64; 8];
        for (i, c) in self.fired.iter().enumerate() {
            counts[i] = c.load(Ordering::Relaxed);
        }
        FaultCounts { counts }
    }

    fn samples(&self, domain: FaultDomain, entity: u64, trial: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let x = self.roll_u64(domain, entity, trial);
        // Map the top 53 bits to [0, 1) — full double precision.
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        u < rate
    }

    fn roll_u64(&self, domain: FaultDomain, entity: u64, trial: u64) -> u64 {
        let mut x = self.seed ^ domain.tag().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x = splitmix(x ^ entity.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        splitmix(x ^ trial.wrapping_mul(0x94d0_49bb_1331_11eb))
    }
}

/// Canonical symmetric key for a pair of entities (link endpoints).
pub fn key2(a: u64, b: u64) -> u64 {
    let (lo, hi) = (a.min(b), a.max(b));
    splitmix(lo.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ hi)
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Retry/backoff policy for the campaign scheduler.
///
/// Backoff is capped exponential with deterministic jitter: attempt `k`
/// (0-based) waits `min(base · 2^k, cap) + jitter(key, k)` seconds, where the
/// jitter is a pure hash — two schedulers with the same policy and keys
/// produce the same timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Seconds before an in-flight measurement is declared timed out.
    pub timeout: u64,
    /// Total attempts (first try + retries) before abandoning.
    pub max_attempts: u32,
    /// Base backoff after the first failure, seconds.
    pub base_backoff: u64,
    /// Backoff cap, seconds.
    pub max_backoff: u64,
    /// Maximum extra jitter, seconds (0 = no jitter).
    pub jitter: u64,
    /// Consecutive failures after which a probe is quarantined as dead.
    pub quarantine_after: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            timeout: 30,
            max_attempts: 4,
            base_backoff: 15,
            max_backoff: 240,
            jitter: 7,
            quarantine_after: 6,
        }
    }
}

impl RetryPolicy {
    /// Deterministic backoff before retry number `attempt` (1-based retry
    /// counter: attempt 0 is the initial try and has no backoff).
    pub fn backoff(&self, attempt: u32, key: u64) -> u64 {
        if attempt == 0 {
            return 0;
        }
        let exp = self
            .base_backoff
            .saturating_mul(1u64 << (attempt - 1).min(16))
            .min(self.max_backoff);
        let jitter = if self.jitter == 0 {
            0
        } else {
            splitmix(key ^ u64::from(attempt).wrapping_mul(0xfeed_5eed)) % (self.jitter + 1)
        };
        exp + jitter
    }
}

/// Millisecond clock the serving plane reads deadlines and breaker timers
/// from. A query's wall deadline rides its `ir-bgp` step budget on this
/// clock, so the engine polls it mid-reconvergence. Production uses
/// [`ServiceClock::wall`]; deterministic tests use
/// [`ServiceClock::simulated`], advanced explicitly — the chaos soak's
/// reproducible-counter guarantee depends on no code path consulting the
/// wall clock behind the test's back.
#[derive(Debug, Clone)]
pub enum ServiceClock {
    /// Monotonic wall time, measured from construction.
    Wall(std::time::Instant),
    /// Test-driven counter; clones share the counter.
    Simulated(std::sync::Arc<AtomicU64>),
}

impl ServiceClock {
    /// A wall clock starting at 0 now.
    pub fn wall() -> ServiceClock {
        ServiceClock::Wall(std::time::Instant::now())
    }

    /// A simulated clock starting at 0, advanced only by
    /// [`ServiceClock::advance_ms`].
    pub fn simulated() -> ServiceClock {
        ServiceClock::Simulated(std::sync::Arc::new(AtomicU64::new(0)))
    }

    /// Milliseconds elapsed since this clock's origin.
    pub fn now_ms(&self) -> u64 {
        match self {
            ServiceClock::Wall(origin) => origin.elapsed().as_millis() as u64,
            ServiceClock::Simulated(ms) => ms.load(Ordering::Relaxed),
        }
    }

    /// Advances a simulated clock; a no-op on a wall clock (time advances
    /// itself).
    pub fn advance_ms(&self, ms: u64) {
        if let ServiceClock::Simulated(counter) = self {
            counter.fetch_add(ms, Ordering::Relaxed);
        }
    }
}

/// Circuit-breaker state for one protected key (a prefix, a probe, a
/// neighbor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests pass through.
    Closed,
    /// Quarantined until the stated clock reading: requests are refused.
    Open {
        /// [`ServiceClock::now_ms`] reading at which the quarantine lapses.
        until_ms: u64,
    },
    /// Quarantine lapsed; one probe request is in flight. Success closes
    /// the breaker, failure re-opens it with a longer backoff.
    HalfOpen,
}

/// A deterministic circuit breaker over [`RetryPolicy`]'s quarantine
/// machinery: `quarantine_after` consecutive failures open it, and each
/// (re-)opening quarantines for `backoff(trips, key)` seconds — the same
/// deterministic exponential-plus-jitter schedule retries use, so two
/// breakers with the same policy, key, and failure history quarantine
/// identically.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    policy: RetryPolicy,
    /// Jitter key — also what makes distinct keys desynchronize.
    key: u64,
    state: BreakerState,
    consecutive_failures: u32,
    /// Times this breaker has opened (drives the backoff exponent).
    trips: u32,
}

impl CircuitBreaker {
    /// A closed breaker for `key` under `policy`.
    pub fn new(policy: RetryPolicy, key: u64) -> CircuitBreaker {
        CircuitBreaker {
            policy,
            key,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            trips: 0,
        }
    }

    /// Current state (after lapse checks as of the last `allows` call).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether a request may proceed at clock reading `now_ms`. An open
    /// breaker whose quarantine has lapsed transitions to half-open and
    /// admits exactly this request as the probe.
    pub fn allows(&mut self, now_ms: u64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open { until_ms } if now_ms >= until_ms => {
                self.state = BreakerState::HalfOpen;
                true
            }
            BreakerState::Open { .. } => false,
        }
    }

    /// Records a successful request: failures reset, breaker closes.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.state = BreakerState::Closed;
    }

    /// Records a failed request at clock reading `now_ms`. A half-open
    /// probe failure re-opens immediately; `quarantine_after` consecutive
    /// failures open a closed breaker.
    pub fn record_failure(&mut self, now_ms: u64) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let should_open = matches!(self.state, BreakerState::HalfOpen)
            || self.consecutive_failures >= self.policy.quarantine_after;
        if should_open {
            self.trips = self.trips.saturating_add(1);
            let hold_s = self.policy.backoff(self.trips, self.key).max(1);
            self.state = BreakerState::Open {
                until_ms: now_ms.saturating_add(hold_s.saturating_mul(1000)),
            };
            self.consecutive_failures = 0;
        }
    }

    /// Times this breaker has opened.
    pub fn trips(&self) -> u32 {
        self.trips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plane_never_fires() {
        let p = FaultPlane::quiet();
        for d in FaultDomain::ALL {
            for e in 0..50u64 {
                assert!(!p.fires(d, e, 0));
                assert!(!p.selects(d, e));
            }
        }
        assert_eq!(p.stats().total(), 0);
        assert!(p.is_quiet());
    }

    #[test]
    fn sampling_is_order_independent() {
        let cfg = FaultConfig::chaos(1.0);
        let a = FaultPlane::new(cfg, 42);
        let b = FaultPlane::new(cfg, 42);
        // Query b in reverse order: identical outcomes per (domain, entity).
        let mut fwd = Vec::new();
        for d in FaultDomain::ALL {
            for e in 0..100u64 {
                fwd.push(a.fires(d, e, 3));
            }
        }
        let mut rev = Vec::new();
        for d in FaultDomain::ALL.iter().rev() {
            for e in (0..100u64).rev() {
                rev.push(b.fires(*d, e, 3));
            }
        }
        rev.reverse();
        assert_eq!(fwd, rev);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn rates_are_respected_roughly() {
        let p = FaultPlane::new(
            FaultConfig {
                probe_dropout: 0.25,
                ..FaultConfig::quiet()
            },
            7,
        );
        let n = 20_000u64;
        let hits = (0..n)
            .filter(|&e| p.fires(FaultDomain::ProbeDropout, e, 0))
            .count() as f64;
        let frac = hits / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "observed {frac}");
        assert_eq!(p.stats().of(FaultDomain::ProbeDropout), hits as u64);
    }

    #[test]
    fn schedule_stays_sorted() {
        let mut p = FaultPlane::quiet();
        p.schedule_event(
            Timestamp(50),
            FaultEvent::LinkDown {
                a: Asn(1),
                b: Asn(2),
            },
        );
        p.schedule_event(
            Timestamp(10),
            FaultEvent::LinkDown {
                a: Asn(3),
                b: Asn(4),
            },
        );
        p.schedule_event(
            Timestamp(50),
            FaultEvent::LinkUp {
                a: Asn(1),
                b: Asn(2),
            },
        );
        let ats: Vec<u64> = p.schedule().iter().map(|t| t.at.0).collect();
        assert_eq!(ats, vec![10, 50, 50]);
        // Equal timestamps keep insertion order.
        assert_eq!(
            p.schedule()[1].event,
            FaultEvent::LinkDown {
                a: Asn(1),
                b: Asn(2)
            },
            "stable tie-break"
        );
        assert!(!p.is_quiet(), "a scheduled event disqualifies quiescence");
    }

    #[test]
    fn synthesized_schedule_is_deterministic_and_zero_safe() {
        let links: Vec<(Asn, Asn)> = (0..40).map(|i| (Asn(i), Asn(i + 100))).collect();
        let mut quiet = FaultPlane::quiet();
        quiet.synthesize_link_schedule(&links, Timestamp(3600));
        assert!(quiet.schedule().is_empty());

        let cfg = FaultConfig {
            link_flap: 0.3,
            session_reset: 0.2,
            ..FaultConfig::quiet()
        };
        let mut a = FaultPlane::new(cfg, 99);
        let mut b = FaultPlane::new(cfg, 99);
        a.synthesize_link_schedule(&links, Timestamp(3600));
        b.synthesize_link_schedule(&links, Timestamp(3600));
        assert_eq!(a.schedule(), b.schedule());
        assert!(!a.schedule().is_empty(), "rates this high produce events");
        // Every LinkDown has a matching LinkUp after it.
        for t in a.schedule() {
            if let FaultEvent::LinkDown { a: x, b: y } = t.event {
                assert!(a
                    .schedule()
                    .iter()
                    .any(|u| u.at >= t.at && u.event == FaultEvent::LinkUp { a: x, b: y }));
            }
        }
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(0, 1), 0);
        let b1 = p.backoff(1, 1);
        let b2 = p.backoff(2, 1);
        let b5 = p.backoff(5, 1);
        assert!(b1 >= p.base_backoff && b1 <= p.base_backoff + p.jitter);
        assert!(b2 >= 2 * p.base_backoff);
        assert!(b5 <= p.max_backoff + p.jitter, "cap holds");
        assert_eq!(p.backoff(3, 9), p.backoff(3, 9), "jitter is a pure hash");
    }

    #[test]
    fn simulated_clock_is_shared_and_explicit() {
        let c = ServiceClock::simulated();
        let c2 = c.clone();
        assert_eq!(c.now_ms(), 0);
        c.advance_ms(250);
        assert_eq!(c2.now_ms(), 250, "clones share the counter");
        // Wall clocks ignore advance and are monotone.
        let w = ServiceClock::wall();
        w.advance_ms(1_000_000);
        assert!(w.now_ms() < 1_000_000);
    }

    #[test]
    fn breaker_opens_after_quarantine_threshold_and_recovers() {
        let policy = RetryPolicy {
            quarantine_after: 3,
            jitter: 0,
            ..RetryPolicy::default()
        };
        let mut b = CircuitBreaker::new(policy, 7);
        let clock = ServiceClock::simulated();
        // Two failures: still closed.
        for _ in 0..2 {
            assert!(b.allows(clock.now_ms()));
            b.record_failure(clock.now_ms());
        }
        assert_eq!(b.state(), BreakerState::Closed);
        // Third consecutive failure trips it.
        b.record_failure(clock.now_ms());
        let BreakerState::Open { until_ms } = b.state() else {
            panic!("breaker must open after quarantine_after failures");
        };
        assert_eq!(
            until_ms,
            policy.base_backoff * 1000,
            "backoff(1), no jitter"
        );
        assert!(!b.allows(clock.now_ms()), "open breaker refuses requests");
        // Quarantine lapses: one half-open probe is admitted.
        clock.advance_ms(until_ms);
        assert!(b.allows(clock.now_ms()));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Probe failure re-opens immediately, with a longer hold.
        b.record_failure(clock.now_ms());
        let BreakerState::Open { until_ms: again } = b.state() else {
            panic!("failed probe must re-open the breaker");
        };
        assert!(again - clock.now_ms() > until_ms, "backoff grows per trip");
        assert_eq!(b.trips(), 2);
        // Eventually a successful probe closes it for good.
        clock.advance_ms(again);
        assert!(b.allows(clock.now_ms()));
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allows(clock.now_ms()));
    }

    #[test]
    fn breaker_schedule_is_deterministic_per_key() {
        let policy = RetryPolicy::default();
        let run = |key: u64| {
            let mut b = CircuitBreaker::new(policy, key);
            let mut states = Vec::new();
            for i in 0..24u64 {
                let now = i * 500;
                let allowed = b.allows(now);
                if allowed {
                    b.record_failure(now);
                }
                states.push((allowed, b.state()));
            }
            states
        };
        assert_eq!(run(11), run(11), "same key ⇒ same quarantine timeline");
    }
}
