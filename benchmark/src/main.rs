//! The repo's benchmark of record. One process runs one workload once:
//!
//! ```text
//! ir-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!              [--out-dir DIR] [--record FILE]
//! ir-benchmark --compare A.jsonl B.jsonl
//! ir-benchmark --overhead A.jsonl
//! ir-benchmark --manifest            # the contents of BENCHMARK.json
//! ```
//!
//! Every metric is printed as `workload metric value unit [n=samples]`;
//! the last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end metrics
//! of `BENCHMARK.json` for an untraced run, its per-layer metrics for a
//! traced one. See `README.md` beside this crate for what each workload
//! loads and why.

mod compare;
mod metrics;
mod pipeline;
mod serve;
mod serving;
mod stats;
mod stream;
mod sweep;
mod trace;
mod whatif;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Client threads (= connections) of every closed loop.
pub const CLIENT_THREADS: usize = 2;

/// Unmeasured closed-loop time before the measured window opens.
pub const WARMUP_SECONDS: f64 = 1.0;

pub const MIB: f64 = 1024.0 * 1024.0;

/// One invocation's arguments.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// (name, value, sample count) in the order they were put.
    metrics: Vec<(String, f64, Option<usize>)>,
    /// Workload parameters; two result files compare only when equal.
    params: Vec<(String, String)>,
    /// Printed and recorded, never compared (digests, notes).
    infos: Vec<(String, String)>,
    /// Operations issued plus correctness checks made.
    attempted: u64,
    /// Operations that failed, were refused or answered wrong, plus checks
    /// that did not hold.
    failed: u64,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value, None));
    }

    pub fn put_n(&mut self, name: &str, value: f64, n: usize) {
        self.metrics.push((name.to_string(), value, Some(n)));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    pub fn param(&mut self, name: &str, value: impl ToString) {
        self.params.push((name.to_string(), value.to_string()));
    }

    pub fn info(&mut self, name: &str, value: String) {
        self.infos.push((name.to_string(), value));
    }

    /// One correctness check; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// The one pass of a batch workload: a single operation whose time is
    /// the throughput and both percentiles.
    pub fn put_pass(&mut self, wall_s: f64) {
        self.operations(1, 0);
        self.put_n("wall_s", wall_s, 1);
        self.put_n("qps", 1.0 / wall_s, 1);
        self.put_n("p50_us", wall_s * 1e6, 1);
        self.put_n("p95_us", wall_s * 1e6, 1);
    }

    /// The universe's work counters, as layer metrics.
    pub fn put_universe(&mut self, universe: &ir_bgp::RoutingUniverse, compute_ms: f64) {
        let stats = universe.engine_stats();
        self.put("bgp.universe.compute_ms", compute_ms);
        self.put("bgp.universe.shapes", stats.shapes_computed as f64);
        self.put("bgp.universe.prefixes_shared", stats.prefixes_shared as f64);
        self.put("bgp.universe.activations", stats.activations as f64);
        self.put("bgp.universe.imports", stats.imports as f64);
        self.put(
            "bgp.universe.unconverged",
            universe.unconverged().len() as f64,
        );
        self.put(
            "bgp.universe.ns_per_activation",
            compute_ms * 1e6 / stats.activations.max(1) as f64,
        );
        self.put(
            "bgp.universe.resident_mb",
            universe.resident_bytes() as f64 / MIB,
        );
    }

    /// Counts `failed` of `attempted` operations.
    pub fn operations(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Unit of a metric; every name the benchmark prints is registered.
fn unit(name: &str) -> &'static str {
    metrics::unit_of(name).unwrap_or_else(|| panic!("unregistered metric {name}"))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_metrics<'a>(names: impl Iterator<Item = &'a str>, out: &Outcome) -> String {
    let fields: Vec<String> = names
        .map(|name| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(out.get(name).unwrap_or(0.0)),
                unit(name),
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The full record of one run, one line of the `--record` file.
fn record_line(workload: &str, run: &Run, out: &Outcome) -> String {
    let strings = |pairs: &[(String, String)]| -> String {
        let fields: Vec<String> = pairs
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{v}\""))
            .collect();
        format!("{{{}}}", fields.join(", "))
    };
    let names = out.metrics.iter().map(|(n, _, _)| n.as_str());
    format!(
        "{{\"workload\": \"{workload}\", \"trace\": {}, \"seed\": {}, \"seconds\": {}, \
         \"threads\": {CLIENT_THREADS}, \"cores\": {}, \"params\": {}, \"info\": {}, \
         \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        u8::from(run.traced),
        run.seed,
        json_number(run.seconds),
        std::thread::available_parallelism().map_or(0, |c| c.get()),
        strings(&out.params),
        strings(&out.infos),
        out.attempted,
        out.failed,
        json_metrics(names, out),
    )
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ir-benchmark --workload NAME --seed N --seconds S --trace 0|1 \
         [--out-dir DIR] [--record FILE]\n       ir-benchmark --compare A.jsonl B.jsonl\n\
         workloads: {}",
        metrics::WORKLOADS
            .iter()
            .map(|w| w.0)
            .collect::<Vec<_>>()
            .join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("ir-benchmark refuses to measure a non-release build");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["--manifest"] => {
            print!("{}", metrics::manifest());
            return ExitCode::SUCCESS;
        }
        ["--overhead", path] => return compare::overhead(path),
        ["--compare", a, b] => return compare::run(a, b),
        ["--compare", ..] => return usage(),
        _ => {}
    }
    let mut workload = None;
    let mut run = Run {
        seed: 7,
        seconds: metrics::RUN_SECONDS as f64,
        traced: false,
    };
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut record = None;
    let mut args = argv.iter();
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage();
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| run.seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| run.seconds = v).is_ok(),
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    run.traced = true;
                    true
                }
                _ => false,
            },
            "--out-dir" => {
                out_dir = PathBuf::from(value);
                true
            }
            "--record" => {
                record = Some(PathBuf::from(value));
                true
            }
            _ => false,
        };
        if !parsed {
            return usage();
        }
    }
    let known = |w: &String| metrics::WORKLOADS.iter().any(|known| known.0 == w);
    let Some(workload) = workload.filter(known) else {
        return usage();
    };
    if !(run.seconds >= 1.0 && run.seconds <= 60.0) {
        return usage();
    }

    let mut out = Outcome::default();
    let mut tracer = Tracer::new(run.traced, Instant::now());
    let result = match workload.as_str() {
        "paper_pipeline" => pipeline::run(&run, &mut tracer, &mut out),
        "whatif_edge" => whatif::run(&run, stream::Mix::Edge, &mut tracer, &mut out),
        "whatif_wide" => whatif::run(&run, stream::Mix::Wide, &mut tracer, &mut out),
        "serve_mixed" => serve::run(&run, &mut tracer, &mut out),
        _ => sweep::run(&run, &mut tracer, &mut out),
    };
    if let Err(e) = result {
        eprintln!("{workload}: {e}");
        return ExitCode::FAILURE;
    }
    out.put("peak_rss_mb", peak_rss_mb());
    out.put(
        "fail_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    if run.traced {
        let measured = tracer
            .spans()
            .iter()
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(1)
            .max(1);
        out.put("trace.spans", tracer.spans().len() as f64);
        out.put(
            "trace.span_cost_share",
            trace::span_cost_ns() * tracer.spans().len() as f64 / measured as f64,
        );
        let path = out_dir.join(format!("trace-{workload}.jsonl"));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        out.info("trace_file", path.display().to_string());
    }

    println!(
        "# {workload} seed={} seconds={} trace={} threads={CLIENT_THREADS}",
        run.seed,
        run.seconds,
        u8::from(run.traced)
    );
    for (name, value) in out.params.iter().chain(&out.infos) {
        println!("# {workload} {name}={value}");
    }
    for (name, value, n) in &out.metrics {
        let unit = unit(name);
        match n {
            Some(n) => println!("{workload} {name} {} {unit} n={n}", json_number(*value)),
            None => println!("{workload} {name} {} {unit}", json_number(*value)),
        }
    }
    if let Some(path) = record {
        use std::io::Write as _;
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{}", record_line(&workload, &run, &out)));
        if let Err(e) = appended {
            eprintln!("cannot record to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let names: Vec<&str> = if run.traced {
        metrics::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        metrics::END_TO_END.iter().map(|m| m.name).collect()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        json_metrics(names.into_iter(), &out)
    );
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
