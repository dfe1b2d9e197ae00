//! Internet-scale smoke test for the compact route storage — the
//! acceptance check that a ≥50k-AS world converges a single prefix and a
//! 1000-prefix universe slice without exhausting memory.
//!
//! Ignored by default: it needs a release build to finish in reasonable
//! time (debug is ~30× slower on the hot loop) and takes minutes on one
//! core even then. `scripts/check.sh` runs it via
//! `cargo test --release -p ir-bgp --test scale_smoke -- --ignored`.

use ir_bgp::{Announcement, PrefixSim, RoutingUniverse};
use ir_topology::GeneratorConfig;
use ir_types::{Prefix, Timestamp};

#[test]
#[ignore = "release-mode internet-scale smoke; wired into scripts/check.sh"]
fn internet_scale_converges_within_memory_budget() {
    let world = GeneratorConfig::internet_scale().build(7);
    assert!(
        world.graph.len() >= 50_000,
        "internet_scale preset must reach 50k ASes, got {}",
        world.graph.len()
    );

    // Single prefix over the full topology. The budget bound is the
    // compact storage's contract: interned paths + struct-of-arrays
    // columns keep a stored route near the 32-byte CompactRoute, not the
    // ~180 bytes a materialized Route with heap path costs (DESIGN.md §5).
    let stub = world
        .graph
        .nodes()
        .iter()
        .rev()
        .find(|n| !n.prefixes.is_empty())
        .expect("world has an origin");
    let (origin, prefix) = (stub.asn, stub.prefixes[0]);
    let mut sim = PrefixSim::new(&world, prefix);
    let conv = sim.announce(Announcement::plain(origin, prefix), Timestamp::ZERO);
    assert!(conv.converged, "single prefix did not converge");
    let mem = sim.stats().memory;
    assert!(
        mem.routes > world.graph.len(),
        "rib should dwarf node count"
    );
    assert!(
        mem.bytes_per_route() < 120.0,
        "bytes/route blew the budget: {:.1}",
        mem.bytes_per_route()
    );
    assert!(
        mem.intern_hit_rate() > 0.9,
        "path interning stopped deduplicating: {:.2}",
        mem.intern_hit_rate()
    );

    // A 1000-prefix universe slice: distinct origins, so no fan-out
    // batching rescues us — 1000 full propagations and 1000 retained
    // per-prefix tables.
    let prefixes: Vec<Prefix> = world
        .graph
        .nodes()
        .iter()
        .filter_map(|n| n.prefixes.first().copied())
        .take(1000)
        .collect();
    assert_eq!(prefixes.len(), 1000);
    let u = RoutingUniverse::compute(&world, &prefixes);
    assert!(
        u.unconverged().is_empty(),
        "slice left unconverged prefixes"
    );
    let resident = u.resident_bytes();
    let slots = prefixes.len() * world.graph.len();
    let per_slot = resident as f64 / slots as f64;
    assert!(
        per_slot < 64.0,
        "retained tables cost {per_slot:.1} B per (prefix, AS) slot"
    );
    // Spot-check the tables actually answer queries after extraction.
    let answered = (0..world.graph.len())
        .step_by(997)
        .filter(|&x| u.route(prefixes[0], x).is_some())
        .count();
    assert!(answered > 0, "slice tables answer no queries");
}
