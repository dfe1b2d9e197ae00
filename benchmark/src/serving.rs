//! Set-up shared by the serving and what-if workloads: a certified
//! 20 k-AS world, its audit, the base universe over the resident prefixes,
//! and the hydrated free-order engine with the incremental certifier
//! attached — the same steps, in the same order, as `ir-serve` start-up.

use crate::stats::median;
use crate::trace::Tracer;
use ir_audit::{AuditReport, DeltaAuditor};
use ir_bgp::{RoutingUniverse, WhatIfEngine};
use ir_topology::graph::NodeIdx;
use ir_topology::{GeneratorConfig, World};
use ir_types::Prefix;
use std::hint::black_box;
use std::time::Instant;

pub const WORLD_ASES: usize = 20_000;
pub const RESIDENT_PREFIXES: usize = 32;

/// The serving world's generator preset. Without hybrid links every seed
/// tried (0..300) certifies, so the production path — free activation
/// order plus `DeltaAuditor` — is what the workloads exercise; the plain
/// preset fails certification on more than half the seeds at this size.
pub fn generator() -> GeneratorConfig {
    GeneratorConfig {
        hybrid_fraction: 0.0,
        ..GeneratorConfig::internet_scale_sized(WORLD_ASES)
    }
}

/// `count` resident prefixes spread evenly over the node range, each with
/// the node that originates it.
pub fn resident_prefixes(world: &World, count: usize) -> Vec<(Prefix, NodeIdx)> {
    let g = &world.graph;
    let origins: Vec<NodeIdx> = (0..g.len())
        .filter(|&x| !g.node(x).prefixes.is_empty())
        .collect();
    (0..count.min(origins.len()))
        .map(|k| {
            let x = origins[k * origins.len() / count];
            (g.node(x).prefixes[0], x)
        })
        .collect()
}

/// Everything the engine borrows from.
pub struct Base {
    pub world: World,
    pub report: AuditReport,
    pub prefixes: Vec<(Prefix, NodeIdx)>,
    pub universe: RoutingUniverse,
}

impl Base {
    /// Generates, validates and audits the world, then converges the
    /// resident prefixes. Fails if the world does not certify.
    pub fn build(seed: u64, t: &mut Tracer) -> Result<Base, String> {
        let world = t.scope("topology.gen", 0, |_| {
            let world = generator().build(seed);
            world.validate().map(|()| world)
        });
        let world = world.map_err(|e| format!("generated world is inconsistent: {e}"))?;
        let report = t.scope("audit.world", 0, |_| ir_audit::audit_world(&world));
        if !report.certificate.certified {
            return Err(format!(
                "serving world for seed {seed} does not certify: {:?}",
                report.certificate.blockers
            ));
        }
        let prefixes = resident_prefixes(&world, RESIDENT_PREFIXES);
        let list: Vec<Prefix> = prefixes.iter().map(|&(p, _)| p).collect();
        let order = report.certificate.activation_order();
        let universe = t.scope("bgp.universe.compute", 0, |_| {
            RoutingUniverse::compute_ordered(&world, &list, order)
        });
        if !universe.unconverged().is_empty() {
            return Err(format!(
                "{} resident prefixes did not converge",
                universe.unconverged().len()
            ));
        }
        Ok(Base {
            world,
            report,
            prefixes,
            universe,
        })
    }

    /// Hydrates the engine from the universe and attaches the certifier.
    pub fn engine(&self, t: &mut Tracer) -> Result<WhatIfEngine<'_>, String> {
        let order = self.report.certificate.activation_order();
        let mut engine = t
            .scope("bgp.whatif.hydrate", 0, |_| {
                WhatIfEngine::from_universe(&self.world, &self.universe, order)
            })
            .map_err(|e| format!("cannot hydrate the engine: {e}"))?;
        engine.set_certifier(Box::new(DeltaAuditor::with_report(
            &self.world,
            self.report.clone(),
        )));
        Ok(engine)
    }
}

pub const SETUP_REPEATS: usize = 5;

/// Builds the serving base `repeats` times (each followed by an engine
/// hydration, as at daemon start-up) and returns the last one with the
/// median set-up time. The previous base is dropped before the next is
/// built, so repeating does not raise the peak RSS.
pub fn timed_setups(seed: u64, repeats: usize, t: &mut Tracer) -> Result<(Base, f64), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let base = Base::build(seed, t)?;
        black_box(base.engine(t)?);
        times.push(t0.elapsed().as_secs_f64());
        last = Some(base);
    }
    let base = last.ok_or("no set-up ran")?;
    Ok((base, median(&times)))
}

/// The layers of the set-up, from the spans [`Base::build`] and
/// [`Base::engine`] recorded.
pub fn put_setup_layers(base: &Base, t: &Tracer, out: &mut crate::Outcome) {
    out.put("topology.gen_ms", t.total_ms("topology.gen"));
    out.put("audit.world_ms", t.total_ms("audit.world"));
    out.put("bgp.whatif.hydrate_ms", t.total_ms("bgp.whatif.hydrate"));
    out.put_universe(&base.universe, t.total_ms("bgp.universe.compute"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resident_prefixes_are_spread_and_owned() {
        let world = GeneratorConfig::tiny().build(5);
        let picked = resident_prefixes(&world, 8);
        assert_eq!(picked.len(), 8);
        for w in picked.windows(2) {
            assert!(w[0].1 < w[1].1, "origins ascend across the node range");
        }
        for (prefix, origin) in picked {
            assert!(world.graph.node(origin).prefixes.contains(&prefix));
        }
    }
}
