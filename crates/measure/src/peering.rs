//! The PEERING-like testbed (§3.2).
//!
//! The testbed operates one ASN and a set of research prefixes it can
//! announce through its university "muxes" (its providers — six in one
//! country and one abroad, like the real deployment). Announcements change
//! at most once per 90 minutes (route-flap dampening etiquette); poisoned
//! ASNs ride in an AS-set surrounded by the testbed's own number.
//!
//! Two experiment drivers live here:
//!
//! * [`Peering::campaign`] — iteratively poison each target AS's current
//!   next hop to force it onto ever-less-preferred routes, recording the
//!   revealed preference order ([`Peering::discover_alternates`] for one
//!   target);
//! * [`Peering::run_magnet`] — announce from a single *magnet* mux, wait
//!   for convergence, then anycast from all muxes; whether an AS sticks
//!   with the magnet route or switches reveals which BGP decision step it
//!   applied (analyzed by `ir-core::magnet`, Table 2).
//!
//! Both observe the world only through measurement channels: collector
//! feeds at vantage ASes and (control-plane equivalents of) traceroutes
//! from monitor probes. Interdomain routing is destination-based, so one
//! observed path exposes the route of every AS along it.

use ir_bgp::decision::DecisionStep;
use ir_bgp::rayon::prelude::*;
use ir_bgp::{Announcement, PrefixSim, SimContext};
use ir_fault::{FaultDomain, FaultPlane};
use ir_topology::World;
use ir_types::{Asn, Prefix, Timestamp};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The 90-minute announcement round (§3.2).
pub const ROUND: u64 = 90 * 60;

/// The 5-minute convergence wait between magnet and anycast.
pub const MAGNET_WAIT: u64 = 5 * 60;

/// An AS-path suffix sharing its backing allocation with every other
/// suffix cut from the same observed path.
///
/// [`observe_routes`] records a suffix for *every* AS on an observed path;
/// materializing each as its own `Vec` is O(len²) allocation per path per
/// vantage per event. Instead all suffixes of one path alias a single
/// `Arc<[Asn]>` and differ only in their start offset. The type derefs to
/// `[Asn]`, and equality/ordering compare the visible slice, so call sites
/// treat it exactly like a path vector.
#[derive(Debug, Clone)]
pub struct PathSuffix {
    path: Arc<[Asn]>,
    start: usize,
}

impl PathSuffix {
    /// The suffix of `path` starting at `start`.
    pub fn new(path: Arc<[Asn]>, start: usize) -> PathSuffix {
        debug_assert!(start <= path.len());
        PathSuffix { path, start }
    }

    /// The visible slice.
    pub fn as_slice(&self) -> &[Asn] {
        &self.path[self.start..]
    }

    /// Copies the suffix out into an owned vector.
    pub fn to_vec(&self) -> Vec<Asn> {
        self.as_slice().to_vec()
    }
}

impl std::ops::Deref for PathSuffix {
    type Target = [Asn];
    fn deref(&self) -> &[Asn] {
        self.as_slice()
    }
}

impl PartialEq for PathSuffix {
    fn eq(&self, other: &PathSuffix) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PathSuffix {}

impl PartialEq<Vec<Asn>> for PathSuffix {
    fn eq(&self, other: &Vec<Asn>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[Asn]> for PathSuffix {
    fn eq(&self, other: &[Asn]) -> bool {
        self.as_slice() == other
    }
}

impl From<Vec<Asn>> for PathSuffix {
    fn from(v: Vec<Asn>) -> PathSuffix {
        PathSuffix {
            path: v.into(),
            start: 0,
        }
    }
}

impl FromIterator<Asn> for PathSuffix {
    fn from_iter<I: IntoIterator<Item = Asn>>(iter: I) -> PathSuffix {
        iter.into_iter().collect::<Vec<Asn>>().into()
    }
}

/// What the measurement infrastructure can see of one AS's route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// The AS's route as an AS-path suffix (next hop first, origin last).
    pub suffix: PathSuffix,
    /// Seen in a collector feed.
    pub via_feed: bool,
    /// Seen on a monitor-probe path.
    pub via_probe: bool,
}

impl Observation {
    /// The next-hop neighbor the AS routes through.
    pub fn next_hop(&self) -> Option<Asn> {
        self.suffix.first().copied()
    }
}

/// Where the observation machinery sits.
#[derive(Debug, Clone, Default)]
pub struct ObservationSetup {
    /// ASes peering with route collectors.
    pub feed_vantages: Vec<Asn>,
    /// ASes hosting monitor probes (the 96-probe / PlanetLab set).
    pub probe_ases: Vec<Asn>,
}

/// Extracts everything the channels reveal about the current routing state
/// of `sim`: for every AS on an observed path, its route suffix.
pub fn observe_routes(sim: &PrefixSim<'_>, setup: &ObservationSetup) -> BTreeMap<Asn, Observation> {
    observe_routes_with_faults(sim, setup, &FaultPlane::quiet(), 0)
}

/// [`observe_routes`] through a fault plane: vantages whose collector feed
/// has a gap this `round` and probes that drop out are blind. A quiet plane
/// observes everything.
pub fn observe_routes_with_faults(
    sim: &PrefixSim<'_>,
    setup: &ObservationSetup,
    plane: &FaultPlane,
    round: u64,
) -> BTreeMap<Asn, Observation> {
    let world = sim.world();
    let mut out: BTreeMap<Asn, Observation> = BTreeMap::new();
    // All suffixes of one observed path share its single allocation.
    let mut record = |path: Arc<[Asn]>, feed: bool| {
        // path = [observer, ..., origin]; AS at position i routes via suffix
        // i+1.. (destination-based forwarding).
        for i in 0..path.len().saturating_sub(1) {
            let e = out.entry(path[i]).or_insert_with(|| Observation {
                suffix: PathSuffix::new(path.clone(), i + 1),
                via_feed: false,
                via_probe: false,
            });
            // Channels are consistent (same converged state), so suffixes
            // agree; only the channel flags accumulate.
            if feed {
                e.via_feed = true;
            } else {
                e.via_probe = true;
            }
        }
    };
    let observed_path = |asn: Asn| -> Option<Arc<[Asn]>> {
        let idx = world.graph.index_of(asn)?;
        let route = sim.best(idx)?;
        let mut path = vec![asn];
        if !route.is_local() {
            path.extend(route.path.sequence_asns());
        }
        Some(path.into())
    };
    // Collector feeds: the vantage's full best path.
    for &v in &setup.feed_vantages {
        if plane.fires(FaultDomain::FeedGap, v.value() as u64, round) {
            continue;
        }
        if let Some(path) = observed_path(v) {
            record(path, true);
        }
    }
    // Probe paths (control-plane walk of data-plane forwarding).
    for &p in &setup.probe_ases {
        if plane.fires(FaultDomain::ProbeDropout, p.value() as u64, round) {
            continue;
        }
        if let Some(path) = observed_path(p) {
            record(path, false);
        }
    }
    out
}

/// One revealed preference step of a target AS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveredRoute {
    /// Round number (0 = unpoisoned).
    pub round: usize,
    /// Next hop the target used this round.
    pub next_hop: Asn,
    /// Full suffix the target used this round.
    pub suffix: Vec<Asn>,
}

/// A poisoning round whose announcement window was disturbed by the fault
/// plane: a mux flapped between rounds (timed schedule) or was sampled
/// into an outage, so the round ran with fewer muxes — or none. Recorded
/// rather than silently shortening the campaign, because §5's revealed
/// preference order is only trustworthy when every round actually
/// announced the shape it meant to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradedRound {
    /// Round number (same numbering as [`DiscoveredRoute::round`]).
    pub round: usize,
    /// Muxes that could carry this round's announcement.
    pub live_muxes: usize,
    /// Muxes the testbed has.
    pub total_muxes: usize,
    /// Timed fault events replayed in the window before this round's
    /// announcement (mux link flaps mid-campaign).
    pub timed_faults: usize,
}

/// The outcome of an alternate-route discovery for one target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlternateDiscovery {
    pub target: Asn,
    /// Routes in revealed preference order (most preferred first).
    pub routes: Vec<DiscoveredRoute>,
    /// Total poisoned announcements used.
    pub announcements: usize,
    /// Rounds that ran degraded (mux lost to a flap or outage) or were
    /// lost outright (`live_muxes == 0`). Empty under a quiet plane.
    pub degraded: Vec<DegradedRound>,
}

/// The outcome of one magnet run.
#[derive(Debug, Clone)]
pub struct MagnetRun {
    /// The mux used as the magnet.
    pub magnet: Asn,
    /// Observed routes while only the magnet announced.
    pub before: BTreeMap<Asn, Observation>,
    /// Observed routes after the anycast.
    pub after: BTreeMap<Asn, Observation>,
    /// Ground truth: the decision step that actually selected each AS's
    /// post-anycast route (for validating the paper's inference).
    pub truth_steps: BTreeMap<Asn, DecisionStep>,
}

/// A campaign's round 0 as one worker played it: the sim every target's
/// poisoned rounds continue from, and what those rounds read of it.
struct RoundZero<'w> {
    sim: PrefixSim<'w>,
    /// Entries of the plane's schedule replayed before round 0.
    replayed: usize,
    /// Round 0's record, if its window was disturbed.
    degraded: Option<DegradedRound>,
    /// What the channels saw after round 0; `None` if it was lost.
    observed: Option<BTreeMap<Asn, Observation>>,
}

/// Records `target`'s route in `observed` as round `round`'s discovery and
/// poisons its next hop for the next round. Returns whether the campaign
/// goes on: it stops when the target vanishes from the channels, when
/// poisoning did not dislodge the next hop (loop prevention disabled /
/// AS-set filtering upstream), or at a direct mux adjacency.
fn reveal(
    observed: &BTreeMap<Asn, Observation>,
    routes: &mut Vec<DiscoveredRoute>,
    poison: &mut Vec<Asn>,
    target: Asn,
    round: usize,
) -> bool {
    let Some(o) = observed.get(&target) else {
        return false;
    };
    let Some(next) = o.next_hop() else {
        return false;
    };
    routes.push(DiscoveredRoute {
        round,
        next_hop: next,
        suffix: o.suffix.to_vec(),
    });
    if poison.contains(&next) || next == Asn::TESTBED {
        return false;
    }
    poison.push(next);
    true
}

/// The testbed controller.
pub struct Peering<'w> {
    world: &'w World,
    /// Per-world simulation context: the experiment drivers spin up many
    /// per-prefix sims (one per campaign worker / magnet run), all over
    /// its session table, each on its own fork ([`Peering::sim`]).
    ctx: Arc<SimContext<'w>>,
    muxes: Vec<Asn>,
    prefixes: Vec<Prefix>,
}

impl<'w> Peering<'w> {
    /// Binds to the world's testbed AS; `None` if the world was generated
    /// without one.
    pub fn new(world: &'w World) -> Option<Peering<'w>> {
        let idx = world.graph.index_of(Asn::TESTBED)?;
        let muxes: Vec<Asn> = world
            .graph
            .providers(idx)
            .map(|p| world.graph.asn(p))
            .collect();
        let prefixes = world.graph.node(idx).prefixes.clone();
        Some(Peering {
            world,
            ctx: SimContext::shared(world),
            muxes,
            prefixes,
        })
    }

    /// A fresh, not-yet-announced simulation for `prefix` over the
    /// per-world context: it shares the session table and interns paths
    /// into the arena it owns, so sims on parallel workers share no path
    /// state at all.
    pub fn sim(&self, prefix: Prefix) -> PrefixSim<'w> {
        PrefixSim::with_context(Arc::clone(&self.ctx), prefix)
    }

    /// The university muxes (provider ASNs).
    pub fn muxes(&self) -> &[Asn] {
        &self.muxes
    }

    /// The testbed's research prefixes.
    pub fn prefixes(&self) -> &[Prefix] {
        &self.prefixes
    }

    /// An anycast announcement (all muxes) with the given poison list.
    pub fn anycast(&self, prefix: Prefix, poison: &[Asn]) -> Announcement {
        Announcement {
            origin: Asn::TESTBED,
            prefix,
            via: Some(self.muxes.iter().copied().collect()),
            poison: poison.to_vec(),
        }
    }

    /// An announcement restricted to a subset of muxes.
    pub fn via(&self, prefix: Prefix, muxes: &[Asn], poison: &[Asn]) -> Announcement {
        let set: BTreeSet<Asn> = muxes.iter().copied().collect();
        assert!(
            set.iter().all(|m| self.muxes.contains(m)),
            "announcing via a non-mux"
        );
        Announcement {
            origin: Asn::TESTBED,
            prefix,
            via: Some(set),
            poison: poison.to_vec(),
        }
    }

    /// The muxes reachable this round under a fault plane: a mux sampled
    /// for an outage cannot carry the round's announcement.
    pub fn live_muxes(&self, plane: &FaultPlane, round: u64) -> Vec<Asn> {
        self.muxes
            .iter()
            .copied()
            .filter(|m| !plane.fires(FaultDomain::MuxOutage, m.value() as u64, round))
            .collect()
    }

    /// §3.2 alternate-route discovery for one target: anycast, observe the
    /// target's next hop, poison it, repeat — until the target loses the
    /// route, vanishes from the channels, or `max_rounds` is hit. A
    /// one-target [`Peering::campaign`] under a quiet plane.
    pub fn discover_alternates(
        &self,
        prefix: Prefix,
        target: Asn,
        setup: &ObservationSetup,
        max_rounds: usize,
    ) -> AlternateDiscovery {
        self.discover_alternates_with_faults(
            prefix,
            target,
            setup,
            max_rounds,
            &FaultPlane::quiet(),
        )
    }

    /// [`Peering::discover_alternates`] under a fault plane (see
    /// [`Peering::campaign`] for what the plane does to a round).
    pub fn discover_alternates_with_faults(
        &self,
        prefix: Prefix,
        target: Asn,
        setup: &ObservationSetup,
        max_rounds: usize,
        plane: &FaultPlane,
    ) -> AlternateDiscovery {
        let mut zero = self.round_zero(prefix, setup, plane);
        self.discover_after(&mut zero, target, setup, max_rounds, plane)
    }

    /// One §3.2 poisoning campaign: [`Peering::discover_alternates`] for
    /// every target, in target order, on the rayon workers.
    ///
    /// Under a fault plane the plane's timed schedule is replayed between
    /// rounds (a mux can flap mid-campaign), each round announces only via
    /// the muxes that are up — neither outage-sampled nor with their
    /// testbed link currently down — and observes through possibly-gapped
    /// channels. Disturbed rounds are recorded in
    /// [`AlternateDiscovery::degraded`]; a round with every mux down is
    /// lost (no announcement change) but still recorded, mirroring a real
    /// testbed outage window instead of silently shortening the campaign.
    ///
    /// Round 0 — the unpoisoned announcement, after whatever the plane
    /// replays before it — is the same for every target. Each worker
    /// converges and observes it once, then runs each of its targets'
    /// poisoned rounds in a [`PrefixSim::scoped`] call that rolls back to
    /// it. The discoveries equal a fresh sim per target's, field for field
    /// (`tests/warm_campaign.rs`); round 0 still counts as one announcement
    /// per target, because each target's campaign announced it. Only the
    /// plane's fire counters tell the two apart: they see round 0's mux,
    /// feed and probe samples once per worker, not once per target.
    pub fn campaign(
        &self,
        prefix: Prefix,
        targets: &[Asn],
        setup: &ObservationSetup,
        max_rounds: usize,
        plane: &FaultPlane,
    ) -> Vec<AlternateDiscovery> {
        targets
            .par_iter()
            .map_init(
                || self.round_zero(prefix, setup, plane),
                |zero, &target| self.discover_after(zero, target, setup, max_rounds, plane),
            )
            .collect()
    }

    /// Plays and observes round 0 of a campaign on a fresh sim.
    fn round_zero(
        &self,
        prefix: Prefix,
        setup: &ObservationSetup,
        plane: &FaultPlane,
    ) -> RoundZero<'w> {
        let mut sim = self.sim(prefix);
        let mut replayed = 0;
        let (degraded, announced) = self.play_round(&mut sim, 0, &[], plane, &mut replayed);
        let observed = announced.then(|| observe_routes_with_faults(&sim, setup, plane, 0));
        RoundZero {
            sim,
            replayed,
            degraded,
            observed,
        }
    }

    /// One target's campaign from a played round 0: reads the target's
    /// round-0 route from the shared observation, then plays the poisoned
    /// rounds in a scope that leaves `zero` as it found it.
    fn discover_after(
        &self,
        zero: &mut RoundZero<'w>,
        target: Asn,
        setup: &ObservationSetup,
        max_rounds: usize,
        plane: &FaultPlane,
    ) -> AlternateDiscovery {
        let mut d = AlternateDiscovery {
            target,
            routes: Vec::new(),
            announcements: 0,
            degraded: Vec::new(),
        };
        if max_rounds == 0 {
            return d;
        }
        let mut poison: Vec<Asn> = Vec::new();
        d.degraded.extend(zero.degraded);
        if let Some(observed) = &zero.observed {
            d.announcements += 1;
            if !reveal(observed, &mut d.routes, &mut poison, target, 0) {
                return d;
            }
        }
        let mut replayed = zero.replayed;
        zero.sim.scoped(|sim| {
            for round in 1..max_rounds {
                let (degraded, announced) =
                    self.play_round(sim, round, &poison, plane, &mut replayed);
                d.degraded.extend(degraded);
                if !announced {
                    continue;
                }
                d.announcements += 1;
                let observed = observe_routes_with_faults(sim, setup, plane, round as u64);
                if !reveal(&observed, &mut d.routes, &mut poison, target, round) {
                    break;
                }
            }
        });
        d
    }

    /// Plays one campaign round on `sim`: replays the plane's timed faults
    /// due by the round's announcement (`replayed` counts the schedule
    /// entries already applied), then announces `poison` via every mux
    /// still up. Returns the round's record if the window was disturbed,
    /// and whether anything was announced (with every mux down the round
    /// is lost).
    fn play_round(
        &self,
        sim: &mut PrefixSim<'w>,
        round: usize,
        poison: &[Asn],
        plane: &FaultPlane,
        replayed: &mut usize,
    ) -> (Option<DegradedRound>, bool) {
        let at = Timestamp(round as u64 * ROUND);
        // Replay timed faults landing before this round's announcement:
        // the §5 methodology's sensitivity to transient unreachability.
        let due = plane.schedule()[*replayed..]
            .iter()
            .take_while(|fault| fault.at <= at);
        let mut timed_faults = 0usize;
        for fault in due {
            sim.apply_fault(fault);
            timed_faults += 1;
        }
        *replayed += timed_faults;
        let live: Vec<Asn> = self
            .live_muxes(plane, round as u64)
            .into_iter()
            .filter(|&m| !sim.is_link_down(Asn::TESTBED, m))
            .collect();
        let degraded =
            (timed_faults > 0 || live.len() < self.muxes.len()).then_some(DegradedRound {
                round,
                live_muxes: live.len(),
                total_muxes: self.muxes.len(),
                timed_faults,
            });
        if live.is_empty() {
            return (degraded, false);
        }
        sim.announce(self.via(sim.prefix(), &live, poison), at);
        (degraded, true)
    }

    /// §3.2 magnet experiment for one magnet mux.
    pub fn run_magnet(
        &self,
        prefix: Prefix,
        magnet: Asn,
        setup: &ObservationSetup,
        start: Timestamp,
    ) -> MagnetRun {
        assert!(self.muxes.contains(&magnet), "magnet must be a mux");
        let mut sim = self.sim(prefix);
        sim.announce(self.via(prefix, &[magnet], &[]), start);
        let before = observe_routes(&sim, setup);
        sim.announce(
            self.anycast(prefix, &[]),
            Timestamp(start.secs() + MAGNET_WAIT),
        );
        let after = observe_routes(&sim, setup);
        // Ground-truth decision steps after the anycast.
        let truth_steps = (0..self.world.graph.len())
            .filter_map(|x| Some((self.world.graph.asn(x), sim.decision_step(x)?)))
            .collect();
        MagnetRun {
            magnet,
            before,
            after,
            truth_steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_topology::graph::AsRole;
    use ir_topology::GeneratorConfig;
    use std::sync::OnceLock;

    fn world() -> &'static World {
        static W: OnceLock<World> = OnceLock::new();
        W.get_or_init(|| GeneratorConfig::tiny().build(31))
    }

    fn setup(w: &World) -> ObservationSetup {
        // Vantages: a few core transit ASes; probes: a spread of stubs.
        let mut feed_vantages: Vec<Asn> = w
            .graph
            .nodes()
            .iter()
            .filter(|n| n.role == AsRole::Transit && n.asn.value() < 1000)
            .map(|n| n.asn)
            .take(6)
            .collect();
        feed_vantages.sort_unstable();
        let probe_ases: Vec<Asn> = w
            .graph
            .nodes()
            .iter()
            .filter(|n| n.asn.value() >= 20_000)
            .map(|n| n.asn)
            .step_by(3)
            .take(20)
            .collect();
        ObservationSetup {
            feed_vantages,
            probe_ases,
        }
    }

    #[test]
    fn testbed_binds_with_muxes() {
        let w = world();
        let p = Peering::new(w).expect("testbed exists");
        assert!(!p.muxes().is_empty() && p.muxes().len() <= 7);
        assert!(!p.prefixes().is_empty());
    }

    #[test]
    fn observations_expose_on_path_decisions() {
        let w = world();
        let p = Peering::new(w).unwrap();
        let s = setup(w);
        let mut sim = PrefixSim::new(w, p.prefixes()[0]);
        sim.announce(p.anycast(p.prefixes()[0], &[]), Timestamp::ZERO);
        let obs = observe_routes(&sim, &s);
        assert!(
            obs.len() > s.feed_vantages.len(),
            "on-path ASes observed too"
        );
        // Every observed suffix matches the AS's actual best route.
        for (asn, o) in &obs {
            let idx = w.graph.index_of(*asn).unwrap();
            let best = sim.best(idx).expect("observed AS has a route");
            assert_eq!(
                o.suffix,
                best.path.sequence_asns(),
                "suffix matches at {asn}"
            );
        }
        // Channel flags are set somewhere.
        assert!(obs.values().any(|o| o.via_feed));
        assert!(obs.values().any(|o| o.via_probe));
    }

    #[test]
    fn discovery_reveals_distinct_next_hops_in_order() {
        let w = world();
        let p = Peering::new(w).unwrap();
        let s = setup(w);
        // Target: some multihomed stub observed on paths.
        let mut sim = PrefixSim::new(w, p.prefixes()[0]);
        sim.announce(p.anycast(p.prefixes()[0], &[]), Timestamp::ZERO);
        let obs = observe_routes(&sim, &s);
        let target = *obs
            .keys()
            .find(|a| {
                let idx = w.graph.index_of(**a).unwrap();
                w.graph.links(idx).len() >= 3 && **a != Asn::TESTBED
            })
            .expect("an observed multihomed AS");
        let d = p.discover_alternates(p.prefixes()[0], target, &s, 8);
        assert!(!d.routes.is_empty());
        // Next hops are distinct until a terminal repeat.
        let mut hops: Vec<Asn> = d.routes.iter().map(|r| r.next_hop).collect();
        let last_repeats = hops.len() >= 2 && hops[hops.len() - 1] == hops[hops.len() - 2];
        if last_repeats {
            hops.pop();
        }
        let mut dedup = hops.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), hops.len(), "distinct next hops {hops:?}");
        assert!(d.announcements >= d.routes.len());
    }

    #[test]
    fn mux_flap_between_rounds_is_recorded_as_degraded() {
        use ir_fault::{FaultConfig, FaultEvent};
        let w = world();
        let p = Peering::new(w).unwrap();
        let s = setup(w);
        let prefix = p.prefixes()[0];
        let mut sim = PrefixSim::new(w, prefix);
        sim.announce(p.anycast(prefix, &[]), Timestamp::ZERO);
        let obs = observe_routes(&sim, &s);
        let target = *obs
            .keys()
            .find(|a| {
                let idx = w.graph.index_of(**a).unwrap();
                w.graph.links(idx).len() >= 3 && **a != Asn::TESTBED
            })
            .expect("an observed multihomed AS");

        // A quiet plane records no degraded rounds.
        let quiet = p.discover_alternates(prefix, target, &s, 6);
        assert!(quiet.degraded.is_empty(), "quiet: {:?}", quiet.degraded);
        assert!(quiet.routes.len() >= 2, "target reveals alternates");

        // One mux flaps between rounds: down in the 0→1 window, back up in
        // the 1→2 window. Round 1 must run short a mux and round 2 must
        // record the replayed LinkUp — neither silently dropped.
        let flapped = p.muxes()[0];
        let mut plane = FaultPlane::new(FaultConfig::quiet(), 7);
        plane.schedule_event(
            Timestamp(ROUND / 2),
            FaultEvent::LinkDown {
                a: Asn::TESTBED,
                b: flapped,
            },
        );
        plane.schedule_event(
            Timestamp(ROUND + ROUND / 2),
            FaultEvent::LinkUp {
                a: Asn::TESTBED,
                b: flapped,
            },
        );
        let d = p.discover_alternates_with_faults(prefix, target, &s, 6, &plane);
        assert!(
            !d.degraded.iter().any(|r| r.round == 0),
            "round 0 predates the flap"
        );
        let r1 = d
            .degraded
            .iter()
            .find(|r| r.round == 1)
            .expect("flapped round marked degraded");
        assert_eq!(r1.timed_faults, 1, "the LinkDown replayed before round 1");
        assert_eq!(r1.live_muxes, r1.total_muxes - 1, "flapped mux missing");
        let r2 = d
            .degraded
            .iter()
            .find(|r| r.round == 2)
            .expect("recovery round records the replayed LinkUp");
        assert_eq!(r2.timed_faults, 1);
        assert_eq!(r2.live_muxes, r2.total_muxes, "mux back after the flap");
        // The campaign itself still announced every round it reached.
        assert!(d.announcements >= 3, "rounds 0..=2 announced: {d:?}");

        // Every mux down across the 0→1 window: round 1 is lost outright
        // (no live mux, no announcement) but recorded — the campaign
        // resumes once the links return instead of silently shortening.
        let mut outage = FaultPlane::new(FaultConfig::quiet(), 7);
        for &m in p.muxes() {
            outage.schedule_event(
                Timestamp(ROUND / 2),
                FaultEvent::LinkDown {
                    a: Asn::TESTBED,
                    b: m,
                },
            );
            outage.schedule_event(
                Timestamp(ROUND + ROUND / 2),
                FaultEvent::LinkUp {
                    a: Asn::TESTBED,
                    b: m,
                },
            );
        }
        let d2 = p.discover_alternates_with_faults(prefix, target, &s, 6, &outage);
        let lost = d2
            .degraded
            .iter()
            .find(|r| r.round == 1)
            .expect("outage round recorded");
        assert_eq!(lost.live_muxes, 0, "total outage: no mux could announce");
        assert!(
            d2.routes.iter().any(|r| r.round >= 2),
            "campaign resumed after the outage window: {:?}",
            d2.routes
        );
    }

    #[test]
    fn magnet_keeps_or_switches_routes() {
        let w = world();
        let p = Peering::new(w).unwrap();
        let s = setup(w);
        let magnet = p.muxes()[0];
        let run = p.run_magnet(p.prefixes()[0], magnet, &s, Timestamp::ZERO);
        assert!(!run.before.is_empty() && !run.after.is_empty());
        // Before the anycast every observed route goes through the magnet.
        for o in run.before.values() {
            assert!(
                o.suffix.contains(&magnet) || o.suffix == vec![Asn::TESTBED],
                "magnet-only epoch routes via the magnet: {:?}",
                o.suffix
            );
        }
        // After the anycast, at least one AS switched away from the magnet
        // toward some other mux (which muxes attract routes depends on the
        // generated topology).
        if p.muxes().len() > 1 {
            let switched = p.muxes().iter().any(|&om| {
                om != magnet
                    && run
                        .after
                        .values()
                        .any(|o| o.suffix.contains(&om) && !o.suffix.contains(&magnet))
            });
            assert!(switched, "someone switched to another mux");
        }
        // Ground-truth steps recorded for routed ASes.
        assert!(!run.truth_steps.is_empty());
    }
}
