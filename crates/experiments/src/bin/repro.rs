//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--seed N] [--scale tiny|paper] [--json PATH] [EXPERIMENT...]
//! ```
//!
//! With no experiment names, everything in
//! [`ALL_EXPERIMENTS`] runs. Valid names: `table1`, `fig1`, `table2`,
//! `alternates`, `fig2`, `fig3`, `table3`, `table4`, `validation`,
//! `informed`, `consistency`, `lg_augment`, `predict`, `stats`, and
//! `ablations` — the DESIGN.md methodology ablations, which run only when
//! named and are appended after the report.
//!
//! The report itself is assembled by
//! [`ir_experiments::report::assemble_report`], which the
//! artifact-freshness test also runs — the committed `repro_paper_seed7.*`
//! files are byte-for-byte this binary's output.

use ir_experiments::report::{assemble_report, ALL_EXPERIMENTS};
use ir_experiments::{exp_ablations, scenario::ScenarioConfig, Scenario};
use std::io::Write as _;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--seed N] [--scale tiny|paper] [--json PATH] [EXPERIMENT...]\n\
         experiments: table1 fig1 table2 alternates fig2 fig3 table3 table4 validation\n\
         informed consistency lg_augment predict stats ablations"
    );
    std::process::exit(2);
}

fn main() {
    let mut seed = 7u64;
    let mut scale = "paper".to_string();
    let mut json_path: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--scale" => scale = args.next().unwrap_or_else(|| usage()),
            "--json" => json_path = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            name => wanted.push(name.to_string()),
        }
    }
    if wanted.is_empty() {
        wanted = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    let ablations = wanted.iter().any(|w| w == "ablations");
    wanted.retain(|w| w != "ablations");
    for w in &wanted {
        if !ALL_EXPERIMENTS.contains(&w.as_str()) {
            eprintln!("unknown experiment: {w}");
            usage();
        }
    }

    let cfg = match scale.as_str() {
        "tiny" => ScenarioConfig::tiny(seed),
        "paper" => ScenarioConfig::paper_scale(seed),
        other => {
            eprintln!("unknown scale: {other}");
            usage();
        }
    };
    eprintln!("building scenario (scale={scale}, seed={seed})…");
    let t0 = std::time::Instant::now();
    let s = Scenario::build(cfg);
    eprintln!(
        "scenario ready in {:.1?}: {} ASes, {} links, {} traceroutes, {} decisions \
         | audit: {} errors {} warnings, certified={}",
        t0.elapsed(),
        s.world.graph.len(),
        s.world.graph.link_count(),
        s.campaign.traceroutes.len(),
        s.decisions.len(),
        s.audit.errors(),
        s.audit.warnings(),
        s.audit.certificate.certified,
    );

    let names: Vec<&str> = wanted.iter().map(|s| s.as_str()).collect();
    let (text, mut out) = assemble_report(&s, seed, &scale, &names);
    print!("{text}");
    if ablations {
        let r = exp_ablations::run(&s);
        println!("{}", r.render());
        out["ablations"] = serde_json::to_value(&r).expect("serialize");
    }

    if let Some(path) = json_path {
        let write = || -> std::io::Result<()> {
            let mut f = std::fs::File::create(&path)?;
            writeln!(
                f,
                "{}",
                serde_json::to_string_pretty(&out).expect("serialize")
            )
        };
        if let Err(e) = write() {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote {path}");
    }
}
