//! Deterministic Monte-Carlo adoption sweep.
//!
//! The question operators actually ask about a defense is not "does it
//! work at 100% deployment" but "what does *partial* adoption buy".
//! A sweep grids over adoption fractions, samples attacker/victim pairs
//! and adopter sets per cell from a seeded generator, runs each cell's
//! [`HijackScenario`], and reports per-cell legitimate/hijacked/
//! disconnected rates.
//!
//! Determinism is load-bearing: cells are planned *sequentially* from
//! the seed ([`plan_cells`]), so the random draws never depend on
//! execution order, and each cell's simulation is self-contained (own
//! forked [`SimContext`], own [`DefensePlan`]). [`run_sweep`] (rayon)
//! and [`run_sweep_sequential`] therefore produce byte-identical CSV —
//! a property the test suite pins.

use crate::defense::{EnforceFirstAs, PeerlockLite, Rov};
use crate::roa::RoaRegistry;
use crate::scenario::{AttackKind, HijackScenario};
use ir_bgp::{ActivationOrder, DefensePlan, PolicyExtension, SimContext};
use ir_topology::graph::NodeIdx;
use ir_topology::World;
use ir_types::{Asn, Prefix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde_json::Value;
use std::fmt::Write as _;
use std::sync::Arc;

/// How many of the largest transit ASes peerlock-lite protects.
const PEERLOCK_PROTECTED: usize = 16;

/// Which defense the sweep deploys at each adoption fraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefenseKind {
    /// Route-origin validation against the world-derived ROA registry.
    Rov,
    /// First-AS enforcement on every session.
    EnforceFirstAs,
    /// Peerlock-lite protecting the largest transit backbones.
    PeerlockLite,
}

impl DefenseKind {
    /// Stable label used in sweep output.
    pub fn name(&self) -> &'static str {
        match self {
            DefenseKind::Rov => "rov",
            DefenseKind::EnforceFirstAs => "enforce-first-as",
            DefenseKind::PeerlockLite => "peerlock-lite",
        }
    }

    /// Builds the extension once per sweep (the registry / protected-set
    /// derivation is world-sized; cells share it through the `Arc`).
    pub fn build(&self, world: &World) -> Arc<dyn PolicyExtension> {
        match self {
            DefenseKind::Rov => Arc::new(Rov::new(Arc::new(RoaRegistry::from_world(world)))),
            DefenseKind::EnforceFirstAs => Arc::new(EnforceFirstAs),
            DefenseKind::PeerlockLite => {
                Arc::new(PeerlockLite::top_transit(world, PEERLOCK_PROTECTED))
            }
        }
    }
}

/// Sweep grid: `fractions × attacks × trials` cells.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Master seed; every cell derives its own generator from it.
    pub seed: u64,
    /// Adoption fractions to grid over (`0.0..=1.0`).
    pub fractions: Vec<f64>,
    /// Independent attacker/victim draws per (fraction, attack).
    pub trials: usize,
    /// Attacks to run at every fraction.
    pub attacks: Vec<AttackKind>,
    /// Defense deployed on sampled adopters.
    pub defense: DefenseKind,
    /// Engine scheduling discipline for every cell.
    pub order: ActivationOrder,
}

impl SweepConfig {
    /// Total cells the grid produces.
    pub fn cells(&self) -> usize {
        self.fractions.len() * self.attacks.len() * self.trials
    }
}

/// One planned cell: everything random already drawn.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Adoption fraction in force.
    pub adoption: f64,
    /// Trial index within (fraction, attack).
    pub trial: u32,
    /// Attack run in this cell.
    pub attack: AttackKind,
    /// Sampled attacker.
    pub attacker: Asn,
    /// Sampled victim (an AS originating at least one prefix).
    pub victim: Asn,
    /// The victim prefix under attack.
    pub prefix: Prefix,
    /// Sampled adopter set.
    pub adopters: Vec<NodeIdx>,
}

/// One cell's results, ready for CSV/JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Adoption fraction in force.
    pub adoption: f64,
    /// Trial index within (fraction, attack).
    pub trial: u32,
    /// Attack label ([`AttackKind::name`]).
    pub attack: &'static str,
    /// Sampled attacker.
    pub attacker: Asn,
    /// Sampled victim.
    pub victim: Asn,
    /// Defense label ([`DefenseKind::name`]).
    pub defense: &'static str,
    /// ASes classified.
    pub n: usize,
    /// ASes still reaching the victim.
    pub legitimate: usize,
    /// ASes captured by the attacker.
    pub hijacked: usize,
    /// ASes with no usable forwarding chain.
    pub disconnected: usize,
}

impl SweepRow {
    /// Fraction of ASes still reaching the victim.
    pub fn legit_rate(&self) -> f64 {
        self.rate(self.legitimate)
    }

    /// Fraction of ASes captured by the attacker.
    pub fn hijack_rate(&self) -> f64 {
        self.rate(self.hijacked)
    }

    /// Fraction of ASes blackholed.
    pub fn disconnect_rate(&self) -> f64 {
        self.rate(self.disconnected)
    }

    fn rate(&self, count: usize) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            count as f64 / self.n as f64
        }
    }
}

/// Splitmix-style per-cell seed derivation: decorrelates neighboring
/// cells without depending on planning order.
fn cell_seed(master: u64, index: u64) -> u64 {
    master ^ (index.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Plans every cell sequentially from the seed. Pure function of
/// `(world, config)` — the parallel and sequential runners share it,
/// which is what makes their outputs identical.
pub fn plan_cells(world: &World, config: &SweepConfig) -> Vec<SweepCell> {
    let n = world.graph.len();
    let origins: Vec<NodeIdx> = (0..n)
        .filter(|&i| !world.graph.node(i).prefixes.is_empty())
        .collect();
    if n < 2 || origins.is_empty() {
        return Vec::new();
    }
    let mut cells = Vec::with_capacity(config.cells());
    for &adoption in &config.fractions {
        for attack in &config.attacks {
            for trial in 0..config.trials {
                let index = cells.len() as u64;
                let mut rng = StdRng::seed_from_u64(cell_seed(config.seed, index));
                let victim_node = origins[rng.random_range(0..origins.len())];
                let victim = world.graph.asn(victim_node);
                let prefixes = &world.graph.node(victim_node).prefixes;
                let prefix = prefixes[rng.random_range(0..prefixes.len())];
                let attacker_node = loop {
                    let candidate = rng.random_range(0..n);
                    if candidate != victim_node {
                        break candidate;
                    }
                };
                let attacker = world.graph.asn(attacker_node);
                let want = (adoption * n as f64).round() as usize;
                let mut pool: Vec<NodeIdx> = (0..n).collect();
                pool.shuffle(&mut rng);
                pool.truncate(want.min(n));
                cells.push(SweepCell {
                    adoption,
                    trial: trial as u32,
                    attack: attack.clone(),
                    attacker,
                    victim,
                    prefix,
                    adopters: pool,
                });
            }
        }
    }
    cells
}

/// Runs one planned cell: fork a private context, install the adopter
/// plan, run the scenario, tally.
fn run_cell(
    world: &World,
    base: &Arc<SimContext<'_>>,
    ext: &Arc<dyn PolicyExtension>,
    config: &SweepConfig,
    cell: &SweepCell,
) -> SweepRow {
    let ctx = base.fork();
    let mut plan = DefensePlan::for_world(world);
    if let Some(id) = plan.register(Arc::clone(ext)) {
        for &node in &cell.adopters {
            plan.adopt(node, id);
        }
    }
    let scenario = HijackScenario {
        victim: cell.victim,
        prefix: cell.prefix,
        attacker: cell.attacker,
        kind: cell.attack.clone(),
    };
    let run = scenario.run(&ctx, config.order, Some(Arc::new(plan)));
    SweepRow {
        adoption: cell.adoption,
        trial: cell.trial,
        attack: cell.attack.name(),
        attacker: cell.attacker,
        victim: cell.victim,
        defense: config.defense.name(),
        n: run.outcome.len(),
        legitimate: run.outcome.legitimate,
        hijacked: run.outcome.hijacked,
        disconnected: run.outcome.disconnected,
    }
}

/// Runs the sweep with rayon across cells. Row order matches
/// [`plan_cells`] order regardless of scheduling.
pub fn run_sweep(world: &World, config: &SweepConfig) -> Vec<SweepRow> {
    let cells = plan_cells(world, config);
    let base = SimContext::shared(world);
    let ext = config.defense.build(world);
    cells
        .par_iter()
        .map(|cell| run_cell(world, &base, &ext, config, cell))
        .collect()
}

/// Single-threaded reference runner; byte-identical output to
/// [`run_sweep`].
pub fn run_sweep_sequential(world: &World, config: &SweepConfig) -> Vec<SweepRow> {
    let cells = plan_cells(world, config);
    let base = SimContext::shared(world);
    let ext = config.defense.build(world);
    cells
        .iter()
        .map(|cell| run_cell(world, &base, &ext, config, cell))
        .collect()
}

/// Renders rows as CSV (stable header, fixed-precision rates).
pub fn sweep_to_csv(rows: &[SweepRow]) -> String {
    let mut out = String::from(
        "adoption,trial,attack,attacker,victim,defense,n,\
         legitimate,hijacked,disconnected,legit_rate,hijack_rate,disconnect_rate\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:.4},{},{},{},{},{},{},{},{},{},{:.6},{:.6},{:.6}",
            r.adoption,
            r.trial,
            r.attack,
            r.attacker.value(),
            r.victim.value(),
            r.defense,
            r.n,
            r.legitimate,
            r.hijacked,
            r.disconnected,
            r.legit_rate(),
            r.hijack_rate(),
            r.disconnect_rate(),
        );
    }
    out
}

/// Renders rows as a JSON array of per-cell objects.
pub fn sweep_to_json(rows: &[SweepRow]) -> String {
    let cells: Vec<Value> = rows
        .iter()
        .map(|r| {
            Value::Object(vec![
                ("adoption".into(), Value::Float(r.adoption)),
                ("trial".into(), Value::UInt(u64::from(r.trial))),
                ("attack".into(), Value::String(r.attack.to_string())),
                (
                    "attacker".into(),
                    Value::UInt(u64::from(r.attacker.value())),
                ),
                ("victim".into(), Value::UInt(u64::from(r.victim.value()))),
                ("defense".into(), Value::String(r.defense.to_string())),
                ("n".into(), Value::UInt(r.n as u64)),
                ("legitimate".into(), Value::UInt(r.legitimate as u64)),
                ("hijacked".into(), Value::UInt(r.hijacked as u64)),
                ("disconnected".into(), Value::UInt(r.disconnected as u64)),
                ("legit_rate".into(), Value::Float(r.legit_rate())),
                ("hijack_rate".into(), Value::Float(r.hijack_rate())),
                ("disconnect_rate".into(), Value::Float(r.disconnect_rate())),
            ])
        })
        .collect();
    serde_json::to_string(&Value::Array(cells)).unwrap_or_else(|_| "[]".to_string())
}
