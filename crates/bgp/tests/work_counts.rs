//! Work-count twin of the `paper_pipeline` benchmark's routing layer.
//!
//! Work is deterministic where wall time is not: the universe's
//! activations, imports, shape count and unconverged prefixes are exact
//! functions of the world and the engine. Pinning them on small worlds
//! turns a work regression (or a claimed reduction) into a tier-1 failure
//! on any machine, debug builds included, and leaves the benchmark to
//! attribute constant factors. A pin moves only on purpose, together with
//! the change that moves it.

use ir_bgp::RoutingUniverse;
use ir_topology::GeneratorConfig;

/// `(seed, activations, imports, shapes, unconverged)` of
/// `RoutingUniverse::compute_all` on `GeneratorConfig::tiny()`.
/// - seed 7 has no sibling link;
/// - seed 40 has sibling links;
/// - seed 53 has no sibling link and holds a dispute wheel.
const PINNED: [(u64, usize, usize, usize, usize); 3] = [
    (7, 13_368, 23_173, 115, 0),
    (40, 14_212, 24_918, 117, 0),
    (53, 15_222, 27_212, 114, 2),
];

#[test]
fn tiny_universe_work_is_pinned() {
    for (seed, activations, imports, shapes, unconverged) in PINNED {
        let world = GeneratorConfig::tiny().build(seed);
        let universe = RoutingUniverse::compute_all(&world);
        let stats = universe.engine_stats();
        assert_eq!(
            (
                stats.activations,
                stats.imports,
                stats.shapes_computed,
                universe.unconverged().len()
            ),
            (activations, imports, shapes, unconverged),
            "seed {seed}: (activations, imports, shapes, unconverged)"
        );
    }
}
