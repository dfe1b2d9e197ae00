//! `ir-serve` — the resident what-if daemon.
//!
//! Loads (or computes, then publishes) a converged [`RoutingUniverse`]
//! snapshot, hydrates a [`WhatIfEngine`] over it, and serves what-if
//! queries over newline-delimited JSON on TCP until a `shutdown` request
//! drains the loop.
//!
//! ```text
//! ir-serve --snapshot u.iruniv --listen 127.0.0.1:4179
//! ir-serve --scale tiny --seed 7 --listen 127.0.0.1:0
//! ```
//!
//! Pure-std builds cannot install POSIX signal handlers, so graceful
//! drain is a protocol affair: send `{"op":"shutdown"}` (see DESIGN.md
//! §12). An abrupt kill is survivable anyway — a computed snapshot
//! publishes once, at startup, through the atomic save path (queries roll
//! back, so the served universe never changes), and startup uses the
//! recovery load that discards staging debris and republishes nothing.
//!
//! The hidden `--torture-save PATH` mode exists for the crash-safety
//! suite: it saves the same snapshot in a tight loop so a test can
//! `kill -9` the process mid-write and prove recovery.

use ir_audit::DeltaAuditor;
use ir_bgp::{RoutingUniverse, WhatIfEngine};
use ir_serve::{ServeConfig, Server};
use ir_topology::{GeneratorConfig, World};
use ir_types::Prefix;
use std::io::Write as _;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::exit;

struct Args {
    listen: String,
    scale: String,
    size: usize,
    seed: u64,
    prefixes: usize,
    snapshot: Option<PathBuf>,
    workers: usize,
    queue_cap: usize,
    budget: u64,
    deadline_ms: u64,
    torture_save: Option<PathBuf>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            listen: "127.0.0.1:4179".to_string(),
            scale: "tiny".to_string(),
            size: 20_000,
            seed: 7,
            prefixes: 64,
            snapshot: None,
            workers: 4,
            queue_cap: 64,
            budget: 5_000_000,
            deadline_ms: 0,
            torture_save: None,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: ir-serve [--listen ADDR] [--scale tiny|safe|internet] [--size N] [--seed N]\n\
         \x20               [--prefixes N] [--snapshot PATH] [--workers N] [--queue-cap N]\n\
         \x20               [--budget ACTIVATIONS] [--deadline-ms N]"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = |i: usize| -> &str {
            match argv.get(i + 1) {
                Some(v) => v,
                None => {
                    eprintln!("missing value for {}", argv[i]);
                    exit(2)
                }
            }
        };
        let parse_num = |i: usize| -> u64 {
            match value(i).parse() {
                Ok(n) => n,
                Err(_) => {
                    eprintln!("bad number for {}: {}", argv[i], value(i));
                    exit(2)
                }
            }
        };
        match flag {
            "--listen" => args.listen = value(i).to_string(),
            "--scale" => args.scale = value(i).to_string(),
            "--size" => args.size = parse_num(i) as usize,
            "--seed" => args.seed = parse_num(i),
            "--prefixes" => args.prefixes = parse_num(i) as usize,
            "--snapshot" => args.snapshot = Some(PathBuf::from(value(i))),
            "--workers" => args.workers = parse_num(i) as usize,
            "--queue-cap" => args.queue_cap = parse_num(i) as usize,
            "--budget" => args.budget = parse_num(i),
            "--deadline-ms" => args.deadline_ms = parse_num(i),
            "--torture-save" => args.torture_save = Some(PathBuf::from(value(i))),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
        i += 2;
    }
    args
}

fn build_world(args: &Args) -> World {
    let cfg = match args.scale.as_str() {
        "tiny" => GeneratorConfig::tiny(),
        // A world that passes certification, so the daemon runs the
        // free-order engine with incremental certificate maintenance.
        "safe" => GeneratorConfig::certifiably_safe(),
        "internet" => GeneratorConfig::internet_scale_sized(args.size),
        other => {
            eprintln!("unknown --scale {other} (want tiny|safe|internet)");
            exit(2)
        }
    };
    cfg.build(args.seed)
}

fn pick_prefixes(world: &World, want: usize) -> Vec<Prefix> {
    world
        .graph
        .nodes()
        .iter()
        .filter_map(|n| n.prefixes.first().copied())
        .take(want.max(1))
        .collect()
}

/// Crash-safety harness: publish the same snapshot in a tight loop until
/// killed. Every iteration goes through the atomic save path, so SIGKILL
/// at any instant must leave a recoverable file.
fn torture_save(args: &Args, path: &Path) -> ! {
    let world = build_world(args);
    let prefixes = pick_prefixes(&world, args.prefixes);
    let universe = RoutingUniverse::compute(&world, &prefixes);
    println!("torture-save: writing {} in a loop", path.display());
    let _ = std::io::stdout().flush();
    loop {
        if let Err(e) = universe.save_snapshot(path) {
            eprintln!("torture-save: {e}");
            exit(1);
        }
    }
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.torture_save {
        torture_save(&args, path);
    }

    let world = build_world(&args);
    let recovered = match &args.snapshot {
        Some(path) if path.exists() => match RoutingUniverse::recover_snapshot(path) {
            Ok(u) => {
                // Stderr, like the audit line below: harnesses parse the
                // first stdout line for the bound address.
                eprintln!("recovered snapshot {}", path.display());
                Some(u)
            }
            Err(e) => {
                eprintln!("snapshot {} unusable ({e}); recomputing", path.display());
                None
            }
        },
        _ => None,
    };
    let computed = recovered.is_none();
    let universe = recovered
        .unwrap_or_else(|| RoutingUniverse::compute(&world, &pick_prefixes(&world, args.prefixes)));
    // Audit the world once at startup: the certificate picks the engine's
    // activation order, and on certified worlds the same report seeds the
    // incremental delta auditor that judges every query's edit set.
    let report = ir_audit::audit_world(&world);
    let order = report.certificate.activation_order();
    let certified = report.certificate.certified;
    // Stderr: the first stdout line is the listen banner, which harnesses
    // parse for the bound address.
    eprintln!(
        "startup audit: {} ({} errors, {} warnings) — {order:?} engine",
        if certified {
            "certified"
        } else {
            "not certified"
        },
        report.errors(),
        report.warnings(),
    );
    let mut engine = match WhatIfEngine::from_universe(&world, &universe, order) {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("cannot serve this universe: {e}");
            exit(1);
        }
    };
    if certified {
        engine.set_certifier(Box::new(DeltaAuditor::with_report(&world, report)));
    }
    // Publish a universe this process computed, once: queries never change
    // it, so the image stays current for the life of the process. A
    // recovered universe is the published image already.
    if let Some(path) = args.snapshot.as_ref().filter(|_| computed) {
        if let Err(e) = universe.save_snapshot(path) {
            eprintln!("cannot publish snapshot {}: {e}", path.display());
            exit(1);
        }
    }

    let cfg = ServeConfig {
        queue_cap: args.queue_cap,
        workers: args.workers,
        default_budget: args.budget,
        deadline_ms: args.deadline_ms,
        ..ServeConfig::default()
    };
    let listener = match TcpListener::bind(&args.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", args.listen);
            exit(1);
        }
    };
    let addr = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_default();
    println!(
        "ir-serve listening on {addr} ({} prefixes, {} shapes, {} workers, queue {})",
        engine.prefixes().count(),
        engine.shape_count(),
        cfg.workers,
        cfg.queue_cap
    );
    let _ = std::io::stdout().flush();

    let server = Server::new(cfg);
    if let Err(e) = server.run(&engine, Some(&universe), listener) {
        eprintln!("serve loop failed: {e}");
        exit(1);
    }
    let s = server.stats();
    println!(
        "drained: served {} shed {} degraded {} (deadline {}, quarantine {}) \
         errors {} disconnects {} high-water {} \
         certificates preserved {} revoked {}",
        s.served,
        s.shed,
        s.degraded,
        s.deadline_aborts,
        s.quarantine_refusals,
        s.errors,
        s.disconnects,
        s.queue_high_water,
        s.certificates_preserved,
        s.certificates_revoked
    );
}
