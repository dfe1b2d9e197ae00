//! `hijack_sweep`: the Monte-Carlo adoption sweep — three defenses × five
//! adoption levels × the attack ladder × fifteen trials on the 20 k-AS
//! internet-scale preset. Every cell is a cold `PrefixSim` convergence
//! with `PolicyExtension` defenses in the import path, then a
//! forwarding-plane classification, fanned out by the rayon façade: no
//! warm fork, no socket, no certificate.

use crate::stats::{median, Latencies};
use crate::trace::Tracer;
use crate::{Outcome, Run};
use ir_bgp::{ActivationOrder, DefensePlan, PolicyExtension, SimContext};
use ir_scenarios::{
    plan_cells, run_sweep, run_sweep_sequential, sweep_to_csv, sweep_to_json, AttackKind,
    DefenseKind, HijackScenario, SweepCell, SweepConfig, SweepRow,
};
use ir_topology::{GeneratorConfig, World};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const WORLD_ASES: usize = 20_000;
const FRACTIONS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
const TRIALS: usize = 15;
/// Trials of the subset that is also run cell by cell and sequentially.
const SUBSET_TRIALS: usize = 3;
const DEFENSES: [DefenseKind; 3] = [
    DefenseKind::Rov,
    DefenseKind::EnforceFirstAs,
    DefenseKind::PeerlockLite,
];
const SETUP_REPEATS: usize = 5;
/// Cells per defense re-run on their own against the sweep's rows.
const SPOT_CHECKS: usize = 3;

/// The `BENCH_hijack` attack ladder.
fn attacks() -> Vec<AttackKind> {
    vec![
        AttackKind::OriginForgery,
        AttackKind::SubprefixHijack,
        AttackKind::ForgedOrigin {
            stealth: true,
            poison: vec![],
        },
    ]
}

fn config(seed: u64, defense: DefenseKind, trials: usize) -> SweepConfig {
    SweepConfig {
        seed,
        fractions: FRACTIONS.to_vec(),
        trials,
        attacks: attacks(),
        defense,
        order: ActivationOrder::WaveExact,
    }
}

fn build_world(seed: u64) -> Result<World, String> {
    let world = GeneratorConfig::internet_scale_sized(WORLD_ASES).build(seed);
    world
        .validate()
        .map_err(|e| format!("generated world is inconsistent: {e}"))?;
    Ok(world)
}

/// One planned cell run on its own through `HijackScenario::run` — what
/// the sweep does per cell, from the public surface. Returns
/// (classified, legitimate, hijacked, disconnected).
fn run_cell(
    world: &World,
    base: &Arc<SimContext<'_>>,
    ext: &Arc<dyn PolicyExtension>,
    cell: &SweepCell,
) -> (usize, usize, usize, usize) {
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
    let run = scenario.run(
        &base.fork(),
        ActivationOrder::WaveExact,
        Some(Arc::new(plan)),
    );
    let o = &run.outcome;
    (o.len(), o.legitimate, o.hijacked, o.disconnected)
}

fn row_counts(row: &SweepRow) -> (usize, usize, usize, usize) {
    (row.n, row.legitimate, row.hijacked, row.disconnected)
}

/// Row count = cells; every row's outcome counts sum to its `n`.
fn check_rows(rows: &[SweepRow], config: &SweepConfig, world: &World, out: &mut Outcome) {
    out.check(rows.len() == config.cells(), || {
        format!("{} rows for {} cells", rows.len(), config.cells())
    });
    let consistent = rows
        .iter()
        .all(|r| r.n == world.graph.len() && r.legitimate + r.hijacked + r.disconnected == r.n);
    out.check(consistent, || {
        format!("{}: outcome counts do not sum to n", config.defense.name())
    });
}

pub fn run(run: &Run, t: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    out.param("world_ases", WORLD_ASES);
    out.param("trials", TRIALS);
    out.param(
        "cells",
        DEFENSES.len() * FRACTIONS.len() * attacks().len() * TRIALS,
    );
    let repeats = if run.traced { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::with_capacity(repeats);
    let mut world = None;
    for _ in 0..repeats {
        drop(world.take());
        let t0 = Instant::now();
        world = Some(t.scope("topology.gen", 0, |_| build_world(run.seed))?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let world = world.ok_or("no set-up ran")?;
    out.put_n("setup_s", median(&setups), repeats);

    // One pass over the whole grid; the input size is fixed, so
    // `--seconds` does not apply.
    let t0 = Instant::now();
    let root = t.begin("hijack_sweep", 1);
    let mut sweeps = Vec::with_capacity(DEFENSES.len());
    for defense in DEFENSES {
        let config = config(run.seed, defense, TRIALS);
        let rows = t.scope(format!("scenarios.sweep_{}", defense.name()), 1, |_| {
            run_sweep(&world, &config)
        });
        sweeps.push((config, rows));
    }
    t.end(root);
    let wall = t0.elapsed().as_secs_f64();
    out.put_pass(wall);

    let base = SimContext::shared(&world);
    for (config, rows) in &sweeps {
        check_rows(rows, config, &world, out);
        // A few cells re-run on their own must reproduce their rows.
        let cells = plan_cells(&world, config);
        let ext = config.defense.build(&world);
        for k in 0..SPOT_CHECKS {
            let i = (2 * k + 1) * cells.len() / (2 * SPOT_CHECKS);
            out.check(
                run_cell(&world, &base, &ext, &cells[i]) == row_counts(&rows[i]),
                || format!("{} cell {i} does not reproduce", config.defense.name()),
            );
        }
    }
    if !run.traced {
        return Ok(());
    }

    out.put("topology.gen_ms", t.total_ms("topology.gen"));
    let mut cells_total = 0;
    for (config, rows) in &sweeps {
        let span = format!("scenarios.sweep_{}", config.defense.name());
        out.put(&format!("{span}_ms"), t.total_ms(&span));
        cells_total += rows.len();
        black_box(t.scope("scenarios.plan", 0, |_| plan_cells(&world, config)));
        black_box(t.scope("scenarios.render", 0, |_| {
            (sweep_to_csv(rows), sweep_to_json(rows))
        }));
    }
    out.put("scenarios.cells", cells_total as f64);
    out.put("scenarios.plan_ms", t.total_ms("scenarios.plan"));
    out.put("scenarios.render_ms", t.total_ms("scenarios.render"));

    // The subset: every cell timed on its own, then the same cells through
    // the parallel and the sequential runner, whose bytes must agree.
    let mut parallel_ms = 0.0;
    for defense in DEFENSES {
        let config = config(run.seed, defense, SUBSET_TRIALS);
        let ext = defense.build(&world);
        for (i, cell) in plan_cells(&world, &config).iter().enumerate() {
            let counts = t.scope("scenarios.cell", i as u64 + 1, |_| {
                run_cell(&world, &base, &ext, cell)
            });
            out.check(counts.1 + counts.2 + counts.3 == counts.0, || {
                format!("{} cell {i}: outcome counts do not sum", defense.name())
            });
        }
        let t1 = Instant::now();
        let parallel = run_sweep(&world, &config);
        parallel_ms += t1.elapsed().as_secs_f64() * 1e3;
        let sequential = t.scope("scenarios.sweep_seq", 0, |_| {
            run_sweep_sequential(&world, &config)
        });
        check_rows(&parallel, &config, &world, out);
        out.check(sweep_to_csv(&parallel) == sweep_to_csv(&sequential), || {
            format!("{}: parallel and sequential sweeps differ", defense.name())
        });
    }
    let cells = Latencies::new(t.durations_us("scenarios.cell"));
    out.put_n("scenarios.cell_p50_us", cells.at(50.0), cells.n());
    out.put_n("scenarios.cell_p95_us", cells.at(95.0), cells.n());
    out.put("scenarios.cell_max_over_p50", cells.max() / cells.at(50.0));
    let sequential_ms = t.total_ms("scenarios.sweep_seq");
    out.put("scenarios.sweep_seq_ms", sequential_ms);
    // The façade runs one static chunk per core.
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    out.put(
        "scenarios.parallel_efficiency",
        sequential_ms / (parallel_ms * cores as f64),
    );
    Ok(())
}
