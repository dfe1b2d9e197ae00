//! The registry of every metric the benchmark prints: name, unit,
//! direction, and — for end-to-end metrics — the bound by which a value
//! may worsen before it counts as a regression. `BENCHMARK.json` at the
//! repo root is [`manifest`] written to a file; a test keeps the two in
//! step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening as a share of the baseline value.
    pub bound: f64,
}

/// A metric of one layer. `exact` marks counts that must repeat
/// bit-for-bit for the same seed (`--compare` insists on identity).
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// Reported by every workload's untraced run; the list `BENCHMARK.json`
/// declares. An *operation* is one query (`whatif_*`), one request
/// (`serve_mixed`) or one whole pass (`paper_pipeline`, `hijack_sweep`).
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("qps", "1/s", Higher, 0.25),
    e2e("p50_us", "us", Lower, 0.25),
    e2e("p95_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
];

/// End-to-end metrics only some workloads have. Printed by name and
/// checked by `--compare`, but outside `BENCHMARK.json`, whose metric
/// list must hold for every workload.
pub const WORKLOAD_END_TO_END: &[EndToEnd] = &[
    e2e("wall_s", "s", Lower, 0.25),
    e2e("whatif_p50_us", "us", Lower, 0.25),
    e2e("whatif_p95_us", "us", Lower, 0.25),
    e2e("hijack_p50_us", "us", Lower, 0.25),
    e2e("route_p50_us", "us", Lower, 0.25),
    // Any increase is a regression.
    e2e("fail_share", "share", Lower, 0.0),
];

const fn time(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Lower,
        exact: false,
    }
}

const fn count(name: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit: "count",
        better,
        exact: true,
    }
}

const fn ratio(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: false,
    }
}

/// Reported by every workload's traced run; a layer the workload does not
/// touch reads 0. Layers are this repo's modules.
pub const PER_LAYER: &[Layer] = &[
    time("topology.gen_ms", "ms"),
    time("audit.world_ms", "ms"),
    time("bgp.universe.compute_ms", "ms"),
    count("bgp.universe.shapes", Lower),
    count("bgp.universe.prefixes_shared", Higher),
    count("bgp.universe.activations", Lower),
    count("bgp.universe.imports", Lower),
    count("bgp.universe.unconverged", Lower),
    time("bgp.universe.ns_per_activation", "ns"),
    ratio("bgp.universe.resident_mb", "MiB", Lower),
    time("dataplane.substrate_ms", "ms"),
    time("inference.feed_ms", "ms"),
    time("inference.relinfer_ms", "ms"),
    time("inference.sidedata_ms", "ms"),
    time("measure.campaign_ms", "ms"),
    count("measure.traceroutes", Higher),
    time("measure.lg_ms", "ms"),
    time("core.decisions_ms", "ms"),
    count("core.decisions", Higher),
    time("core.classify_batch_ms", "ms"),
    ratio("core.classify_cache_hit_share", "share", Higher),
    time("experiments.report_ms", "ms"),
    time("experiments.stats_ms", "ms"),
    time("experiments.table1_ms", "ms"),
    time("experiments.fig1_ms", "ms"),
    time("experiments.table2_ms", "ms"),
    time("experiments.alternates_ms", "ms"),
    time("experiments.fig2_ms", "ms"),
    time("experiments.fig3_ms", "ms"),
    time("experiments.table3_ms", "ms"),
    time("experiments.table4_ms", "ms"),
    time("experiments.validation_ms", "ms"),
    time("experiments.informed_ms", "ms"),
    time("experiments.consistency_ms", "ms"),
    time("experiments.lg_augment_ms", "ms"),
    time("experiments.predict_ms", "ms"),
    time("bgp.whatif.query_us", "us"),
    time("bgp.whatif.null_query_us", "us"),
    time("bgp.whatif.reconverge_us", "us"),
    count("bgp.whatif.activations_per_q", Lower),
    count("bgp.whatif.ases_seeded_per_q", Lower),
    count("bgp.whatif.routes_changed_per_q", Lower),
    ratio("bgp.whatif.changed_share", "share", Higher),
    ratio("bgp.whatif.touched_share", "share", Lower),
    ratio("bgp.whatif.scaling_2t", "ratio", Higher),
    time("bgp.whatif.hydrate_ms", "ms"),
    time("bgp.universe.snapshot_encode_ms", "ms"),
    time("bgp.universe.snapshot_decode_ms", "ms"),
    ratio("bgp.universe.snapshot_mb", "MiB", Lower),
    time("bgp.sim.cold_query_us", "us"),
    ratio("bgp.whatif.warm_speedup", "ratio", Higher),
    time("audit.delta_us", "us"),
    ratio("audit.preserved_share", "share", Higher),
    time("serve.client.encode_us", "us"),
    time("serve.client.whatif_p50_us", "us"),
    time("serve.client.hijack_p50_us", "us"),
    time("serve.client.route_p50_us", "us"),
    time("serve.protocol.parse_us", "us"),
    time("serve.protocol.encode_whatif_us", "us"),
    time("serve.protocol.encode_hijack_us", "us"),
    ratio("serve.protocol.response_bytes_whatif", "B", Lower),
    ratio("serve.protocol.response_bytes_hijack", "B", Lower),
    time("bgp.universe.route_us", "us"),
    time("serve.server.inside_whatif_us", "us"),
    time("serve.server.inside_hijack_us", "us"),
    time("serve.server.overhead_whatif_us", "us"),
    time("serve.server.overhead_hijack_us", "us"),
    time("serve.server.overhead_route_us", "us"),
    time("serve.admission.push_pop_ns", "ns"),
    ratio("serve.admission.queue_high_water", "count", Lower),
    ratio("serve.admission.shed", "count", Lower),
    ratio("serve.server.degraded", "count", Lower),
    ratio("serve.server.errors", "count", Lower),
    ratio("serve.server.certificates_preserved", "count", Higher),
    ratio("serve.server.certificates_revoked", "count", Lower),
    time("scenarios.plan_ms", "ms"),
    time("scenarios.sweep_rov_ms", "ms"),
    time("scenarios.sweep_enforce-first-as_ms", "ms"),
    time("scenarios.sweep_peerlock-lite_ms", "ms"),
    time("scenarios.render_ms", "ms"),
    count("scenarios.cells", Higher),
    time("scenarios.cell_p50_us", "us"),
    time("scenarios.cell_p95_us", "us"),
    ratio("scenarios.cell_max_over_p50", "ratio", Lower),
    time("scenarios.sweep_seq_ms", "ms"),
    ratio("scenarios.parallel_efficiency", "ratio", Higher),
    ratio("trace.spans", "count", Lower),
    ratio("trace.span_cost_share", "share", Lower),
];

/// The five workloads and, in one line each, why they were chosen.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "paper_pipeline",
        "the paper reproduction end to end (universe, inference, campaign, 14 experiments); \
         no fork or serve code runs",
    ),
    (
        "whatif_edge",
        "library closed loop, edits that touch ~2 ASes: fork + full diff scan is the whole \
         cost, so an O(touched) fork must show here",
    ),
    (
        "whatif_wide",
        "same engine and loop, edits that rewrite thousands of routes: reconvergence and diff \
         materialization dominate, so a fork that taxes reads or writes shows here",
    ),
    (
        "serve_mixed",
        "shipped server and client over loopback, mixed whatif/hijack/route: the only workload \
         with protocol, admission, workers and the socket in the path",
    ),
    (
        "hijack_sweep",
        "675 cold hijack scenarios with defenses under the rayon facade: cold convergence and \
         classification, no warm fork, no socket",
    ),
];

/// How long one run measures, seconds (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// The contents of `BENCHMARK.json`, from this registry.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// Unit of any registered metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(WORKLOAD_END_TO_END)
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .chain(WORKLOAD_END_TO_END)
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.0));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} registered twice");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
    }

    #[test]
    fn every_experiment_has_a_layer_metric() {
        for name in ir_experiments::report::ALL_EXPERIMENTS {
            let metric = format!("experiments.{name}_ms");
            assert!(unit_of(&metric).is_some(), "{metric} is not registered");
        }
    }

    #[test]
    fn benchmark_json_is_this_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `ir-benchmark --manifest > BENCHMARK.json`"
        );
        let doc: serde_json::Value = serde_json::from_str(&committed).expect("it parses");
        assert_eq!(doc["run_seconds"].as_u64(), Some(RUN_SECONDS));
        assert_eq!(
            doc["per_layer"].as_array().map(Vec::len),
            Some(PER_LAYER.len())
        );
    }
}
