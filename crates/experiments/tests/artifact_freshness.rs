//! The committed `repro_paper_seed7.*` artifacts must be byte-identical
//! to a fresh zero-fault paper-scale run of the shipping pipeline, and
//! every Repro cell of EXPERIMENTS.md must be the one the committed JSON
//! renders.
//!
//! The fresh run is ignored by default: building the paper-scale scenario
//! takes seconds in release mode and far longer unoptimized.
//! `scripts/check.sh` runs it explicitly with `cargo test --release ... --
//! --ignored`. The doc check reads only committed files and always runs.
//!
//! Regenerate after an intentional pipeline change with:
//!
//! ```sh
//! cargo run --release -p ir-experiments --bin repro -- --seed 7 \
//!     --scale paper --json repro_paper_seed7.json > repro_paper_seed7.txt
//! IR_BLESS_DOC=1 cargo test -p ir-experiments --test artifact_freshness
//! ```

use ir_experiments::report::{assemble_report, ALL_EXPERIMENTS};
use ir_experiments::{scenario::ScenarioConfig, Scenario};
use serde_json::Value;
use std::path::Path;

#[test]
#[ignore = "paper-scale scenario build: minutes in release; run via scripts/check.sh"]
fn committed_artifacts_match_fresh_run() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let txt = std::fs::read_to_string(root.join("repro_paper_seed7.txt"))
        .expect("read repro_paper_seed7.txt");
    let json = std::fs::read_to_string(root.join("repro_paper_seed7.json"))
        .expect("read repro_paper_seed7.json");

    let s = Scenario::build(ScenarioConfig::paper_scale(7));
    let (text, out) = assemble_report(&s, 7, "paper", ALL_EXPERIMENTS);
    let fresh_json = format!(
        "{}\n",
        serde_json::to_string_pretty(&out).expect("serialize")
    );

    assert_eq!(
        text, txt,
        "repro_paper_seed7.txt is stale — regenerate it (see module docs)"
    );
    assert_eq!(
        fresh_json, json,
        "repro_paper_seed7.json is stale — regenerate it (see module docs)"
    );
}

// ---------------------------------------------------------------------------
// EXPERIMENTS.md from the artifact: every Repro cell of the doc sits in a
// `<!-- repro:NAME -->` … `<!-- /repro -->` block that `repro_blocks`
// renders from `repro_paper_seed7.json`. The doc's prose (the verdicts) is
// written by hand; its numbers are not.
// ---------------------------------------------------------------------------

/// Rewrite the blocks instead of comparing them when this is set:
/// `IR_BLESS_DOC=1 cargo test -p ir-experiments --test artifact_freshness`.
const BLESS: &str = "IR_BLESS_DOC";

fn num(v: &Value) -> f64 {
    v.as_f64()
        .unwrap_or_else(|| panic!("expected a number, got {v:?}"))
}

fn count(v: &Value) -> u64 {
    v.as_u64()
        .unwrap_or_else(|| panic!("expected a count, got {v:?}"))
}

fn rows(v: &Value) -> &[Value] {
    v.as_array()
        .unwrap_or_else(|| panic!("expected an array, got {v:?}"))
}

/// `20400` → `20,400`.
fn thousands(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

/// A markdown table: header cells, then rows.
fn table(head: &[&str], body: &[Vec<String>]) -> String {
    let line = |cells: Vec<String>| format!("| {} |\n", cells.join(" | "));
    let mut out = line(head.iter().map(|h| h.to_string()).collect());
    out += &line(head.iter().map(|_| "---".to_string()).collect());
    for row in body {
        out += &line(row.clone());
    }
    out
}

fn row<const N: usize>(cells: [&str; N]) -> Vec<String> {
    cells.iter().map(|c| c.to_string()).collect()
}

/// Every generated block of EXPERIMENTS.md, by name, in document order:
/// the one generator of the doc's Repro cells. Paper numbers are the
/// paper's and fixed; everything in a Repro column reads `j`.
fn repro_blocks(j: &Value) -> Vec<(&'static str, String)> {
    let w = &j["world"];
    let alt = &j["alternates"];
    let mut blocks = Vec::new();

    blocks.push((
        "dataset",
        table(
            &["Statistic", "Paper", "Repro"],
            &[
                vec![
                    "ASes / links in the world".into(),
                    "the Internet (~50k ASes)".into(),
                    format!(
                        "{} / {}",
                        thousands(count(&w["ases"])),
                        thousands(count(&w["links"]))
                    ),
                ],
                vec![
                    "traceroutes".into(),
                    "28,501".into(),
                    thousands(count(&w["traceroutes"])),
                ],
                vec![
                    "destination ASes".into(),
                    "218".into(),
                    thousands(count(&w["destination_ases"])),
                ],
                vec![
                    "ASes with observed decisions".into(),
                    "746".into(),
                    thousands(count(&w["observed_ases"])),
                ],
                vec![
                    "routing decisions classified".into(),
                    "—".into(),
                    thousands(count(&w["decisions"])),
                ],
                vec![
                    "inter-AS links seen in active experiments".into(),
                    "739".into(),
                    thousands(count(&alt["observed_links"])),
                ],
                vec![
                    "observed links missing from the inferred topology".into(),
                    "45, 22.2% only via poisoning".into(),
                    format!(
                        "{}, {} only via poisoning",
                        count(&alt["links_missing_from_inferred"]),
                        pct(100.0 * num(&alt["poisoning_only_fraction"]))
                    ),
                ],
            ],
        ),
    ));

    let t1 = &j["table1"];
    let mut body: Vec<Vec<String>> = rows(&t1["rows"])
        .iter()
        .map(|r| {
            vec![
                r["as_type"].as_str().unwrap_or("?").to_string(),
                count(&r["probes"]).to_string(),
                count(&r["distinct_ases"]).to_string(),
                count(&r["distinct_countries"]).to_string(),
            ]
        })
        .collect();
    body.push(vec![
        "Total".into(),
        count(&t1["total_probes"]).to_string(),
        String::new(),
        String::new(),
    ]);
    blocks.push((
        "table1",
        table(
            &["AS type", "Probes", "Distinct ASes", "Distinct countries"],
            &body,
        ),
    ));

    let bars = rows(&j["fig1"]["bars"]);
    let simple = num(&bars[0]["best_short"]);
    let paper_fig1 = |variant: &str| match variant {
        "Simple" => "64.7%",
        "Complex" => "≈ Simple (< 1 point)",
        "Sibs" => "+3.9 points",
        "PSP-1" => "explains 10–19% of unexpected",
        "All-1" => "85.7%",
        "All-2" => "75.7% (< All-1)",
        _ => "—",
    };
    let body: Vec<Vec<String>> = bars
        .iter()
        .map(|b| {
            let variant = b["variant"].as_str().unwrap_or("?");
            let best_short = num(&b["best_short"]);
            let lift = if variant == "Simple" {
                "—".to_string()
            } else {
                format!(
                    "{:+.1} points = {} of unexpected",
                    best_short - simple,
                    pct(100.0 * (best_short - simple) / (100.0 - simple))
                )
            };
            vec![
                variant.into(),
                paper_fig1(variant).into(),
                pct(best_short),
                lift,
            ]
        })
        .collect();
    blocks.push((
        "fig1",
        table(
            &[
                "Variant",
                "Paper Best/Short",
                "Repro Best/Short",
                "Repro vs Simple",
            ],
            &body,
        ),
    ));

    let t2 = &j["table2"];
    let t2rows = rows(&t2["rows"]);
    let paper_t2 = [
        "46.0% / 42.4%",
        "16.0% / 29.4%",
        "16.4% / 15.6%",
        "2.5% / 1.6%",
        "18.9% / 10.8%",
    ];
    let both = |a: usize, b: usize| {
        let sum = |k: &str| num(&t2rows[a][k]) + num(&t2rows[b][k]);
        format!(
            "{} / {}",
            pct(sum("feeds_pct")),
            pct(sum("traceroutes_pct"))
        )
    };
    let mut body: Vec<Vec<String>> = t2rows
        .iter()
        .zip(paper_t2)
        .map(|(r, paper)| {
            vec![
                r["decision"].as_str().unwrap_or("?").to_string(),
                paper.to_string(),
                format!(
                    "{} / {}",
                    pct(num(&r["feeds_pct"])),
                    pct(num(&r["traceroutes_pct"]))
                ),
            ]
        })
        .collect();
    body.push(vec![
        "relationship + length".into(),
        "62.0% / 71.8%".into(),
        both(0, 1),
    ]);
    body.push(vec![
        "tie-breaker + route age".into(),
        "18.9% / 17.2%".into(),
        both(2, 3),
    ]);
    body.push(vec![
        "decisions".into(),
        "—".into(),
        format!(
            "{} / {}",
            thousands(count(&t2["total_feeds"])),
            thousands(count(&t2["total_traceroutes"]))
        ),
    ]);
    body.push(vec![
        "inferred step = ground-truth step".into(),
        "not measurable".into(),
        pct(100.0 * num(&t2["truth_agreement"])),
    ]);
    blocks.push((
        "table2",
        table(
            &[
                "Row",
                "Paper (feeds / traceroutes)",
                "Repro (feeds / traceroutes)",
            ],
            &body,
        ),
    ));

    let informative = count(&alt["informative_targets"]);
    let bucket = |k: &str| {
        let n = count(&alt[k]);
        format!("{n} ({})", pct(100.0 * n as f64 / informative as f64))
    };
    blocks.push((
        "alternates",
        table(
            &["Bucket", "Paper", "Repro (targets)"],
            &[
                row(["Best and Shortest", "86.1%", &bucket("both")]),
                row(["Best only", "8.0%", &bucket("best_only")]),
                row(["Shortest only", "5.0%", &bucket("shortest_only")]),
                row(["Neither", "0.8%", &bucket("neither")]),
                vec![
                    "informative / all targets".into(),
                    "—".into(),
                    format!("{informative} / {}", count(&alt["targets"])),
                ],
            ],
        ),
    ));

    let f2 = &j["fig2"];
    let top_dest: Vec<String> = rows(&f2["top_destinations"])
        .iter()
        .map(|d| {
            let d = rows(d);
            let name = d[2].as_str().map(|n| format!(" [{n}]")).unwrap_or_default();
            format!("AS{}{name} {}", count(&d[0]), pct(100.0 * num(&d[1])))
        })
        .collect();
    let top_src = rows(&rows(&f2["top_sources"])[0]);
    blocks.push((
        "fig2",
        table(
            &["Metric", "Paper", "Repro"],
            &[
                vec![
                    "skew coefficient, destinations / sources".into(),
                    "destinations far more skewed".into(),
                    format!("{:.3} / {:.3}", num(&f2["dest_skew"]), num(&f2["src_skew"])),
                ],
                vec![
                    "top destinations' share of violations".into(),
                    "Akamai 21%, Netflix 17%".into(),
                    top_dest.join(", "),
                ],
                vec![
                    "top source's share".into(),
                    "Cogent 4.1%".into(),
                    format!("AS{} {}", count(&top_src[0]), pct(100.0 * num(&top_src[1]))),
                ],
                vec![
                    "violations".into(),
                    "—".into(),
                    thousands(count(&f2["total_violations"])),
                ],
            ],
        ),
    ));

    let f3 = &j["fig3"];
    let group = |g: &str| {
        let b = rows(&f3["bars"])
            .iter()
            .find(|b| b["group"].as_str() == Some(g))
            .unwrap_or_else(|| panic!("no Fig 3 group {g}"));
        format!(
            "{} of {}",
            pct(num(&b["best_short"])),
            thousands(count(&b["decisions"]))
        )
    };
    let (cont, total) = (count(&f3["continental_paths"]), count(&f3["total_paths"]));
    blocks.push((
        "fig3",
        table(
            &["Metric", "Paper", "Repro"],
            &[
                vec![
                    "continental share of traceroutes".into(),
                    "45%".into(),
                    format!(
                        "{} ({} of {})",
                        pct(100.0 * cont as f64 / total as f64),
                        thousands(cont),
                        thousands(total)
                    ),
                ],
                vec![
                    "Best/Short, continental decisions".into(),
                    "explained notably better".into(),
                    group("Cont"),
                ],
                vec![
                    "Best/Short, intercontinental decisions".into(),
                    "—".into(),
                    group("Non Cont"),
                ],
            ],
        ),
    ));

    let t3 = &j["table3"];
    let mut body: Vec<Vec<String>> = rows(&t3["rows"])
        .iter()
        .map(|r| {
            vec![
                r["continent"].as_str().unwrap_or("?").to_string(),
                format!("{} of {}", count(&r["explained"]), count(&r["total"])),
                pct(num(&r["pct"])),
            ]
        })
        .collect();
    body.push(vec![
        "Overall".into(),
        String::new(),
        pct(100.0 * num(&t3["overall_fraction"])),
    ]);
    blocks.push((
        "table3",
        table(&["Continent", "Explained", "Repro share"], &body),
    ));

    let t4 = &j["table4"];
    let mut body = vec![
        vec![
            "cable ASes on paths".into(),
            "< 2% of paths".into(),
            pct(100.0 * num(&t4["path_fraction"])),
        ],
        vec![
            "cable-involving decisions that deviate".into(),
            "51.2%".into(),
            format!(
                "{} (baseline {})",
                pct(100.0 * num(&t4["deviant_fraction"])),
                pct(100.0 * num(&t4["baseline_deviant_fraction"]))
            ),
        ],
    ];
    let paper_t4 = ["3.0%", "6.5%", "4.5%"];
    for (r, paper) in rows(&t4["rows"]).iter().zip(paper_t4) {
        body.push(vec![
            format!("{} explained", r["violation_type"].as_str().unwrap_or("?")),
            paper.into(),
            pct(num(&r["pct"])),
        ]);
    }
    blocks.push(("table4", table(&["Metric", "Paper", "Repro"], &body)));

    let v = &j["validation"];
    blocks.push((
        "validation",
        table(
            &["Metric", "Paper", "Repro"],
            &[
                vec![
                    "neighbor ASes with a looking glass".into(),
                    "28 of 149".into(),
                    format!(
                        "{} of {}",
                        count(&v["neighbors_with_glass"]),
                        count(&v["neighbor_ases"])
                    ),
                ],
                vec![
                    "criterion-1 cases checked / confirmed".into(),
                    "10 / 78% correct".into(),
                    format!(
                        "{} / {} ({})",
                        count(&v["checked"]),
                        count(&v["confirmed"]),
                        pct(100.0 * num(&v["precision"]))
                    ),
                ],
                vec![
                    "true precision of criterion 1".into(),
                    "not measurable".into(),
                    format!(
                        "{} of {} cases",
                        pct(100.0 * num(&v["true_precision"])),
                        count(&v["cases"])
                    ),
                ],
            ],
        ),
    ));

    let (inf, con, pre, lg) = (
        &j["informed"],
        &j["consistency"],
        &j["predict"],
        &j["lg_augment"],
    );
    blocks.push((
        "extensions",
        table(
            &["Analysis", "Repro"],
            &[
                vec![
                    "`informed`: Best/Short, plain → informed model".into(),
                    format!(
                        "{} → {} ({} learned pairs, {} domestic ASes)",
                        pct(num(&inf["gr_pct"])),
                        pct(num(&inf["informed_pct"])),
                        count(&inf["learned_pairs"]),
                        count(&inf["domestic_ases"])
                    ),
                ],
                vec![
                    "`consistency`: inconsistent next hops".into(),
                    format!(
                        "{} of {} pairs; {} on an artifact-free re-measurement",
                        pct(100.0 * num(&con["violation_rate"])),
                        thousands(count(&con["pairs_checked"])),
                        count(&con["clean_inconsistent"])
                    ),
                ],
                vec![
                    "`predict`: first hop / length / exact path".into(),
                    format!(
                        "{} / {} / {} of {} predicted paths",
                        pct(num(&pre["first_hop_pct"])),
                        pct(num(&pre["length_pct"])),
                        pct(num(&pre["exact_pct"])),
                        thousands(count(&pre["predicted"]))
                    ),
                ],
                vec![
                    "`lg_augment`: inferred links, Best/Short, feed → feed + glasses".into(),
                    format!(
                        "{} → {} links, {} → {} ({} glass paths); five-month aggregate {} links, {}",
                        thousands(count(&lg["base_links"])),
                        thousands(count(&lg["augmented_links"])),
                        pct(num(&lg["base_best_short_pct"])),
                        pct(num(&lg["augmented_best_short_pct"])),
                        thousands(count(&lg["lg_paths"])),
                        thousands(count(&lg["aggregate_links"])),
                        pct(num(&lg["aggregate_best_short_pct"]))
                    ),
                ],
            ],
        ),
    ));
    blocks
}

/// `doc` with every generated block's body replaced by its rendering.
/// Panics on a block the generator does not know, a missing one, or an
/// unterminated one.
fn regenerate(doc: &str, blocks: &[(&'static str, String)]) -> String {
    const END: &str = "<!-- /repro -->";
    let mut out = String::new();
    let mut rest = doc;
    let mut seen = Vec::new();
    while let Some(at) = rest.find("<!-- repro:") {
        let open_end = at + rest[at..].find("-->").expect("unterminated block marker") + 3;
        let name = rest[at + "<!-- repro:".len()..open_end - 3].trim();
        let body = blocks
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, b)| b)
            .unwrap_or_else(|| panic!("EXPERIMENTS.md names an unknown block `{name}`"));
        let close = open_end
            + rest[open_end..]
                .find(END)
                .expect("block without its end marker");
        out += &rest[..open_end];
        out += "\n";
        out += body;
        out += END;
        rest = &rest[close + END.len()..];
        seen.push(name.to_string());
    }
    out += rest;
    let names: Vec<&str> = blocks.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        seen, names,
        "EXPERIMENTS.md must hold every block once, in order"
    );
    out
}

#[test]
fn experiments_doc_matches_the_artifact() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let json = std::fs::read_to_string(root.join("repro_paper_seed7.json"))
        .expect("read repro_paper_seed7.json");
    let artifact: Value = serde_json::from_str(&json).expect("parse repro_paper_seed7.json");
    let path = root.join("EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&path).expect("read EXPERIMENTS.md");
    let fresh = regenerate(&doc, &repro_blocks(&artifact));
    if std::env::var_os(BLESS).is_some() {
        std::fs::write(&path, &fresh).expect("write EXPERIMENTS.md");
        return;
    }
    assert!(
        fresh == doc,
        "EXPERIMENTS.md disagrees with repro_paper_seed7.json — regenerate its blocks with \
         {BLESS}=1 cargo test -p ir-experiments --test artifact_freshness"
    );
}
