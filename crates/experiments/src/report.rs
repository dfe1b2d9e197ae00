//! Plain-text rendering helpers for paper-style tables.

/// A fixed-width text table with a title and a header row.
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table.
    pub fn new(title: &str, header: &[&str]) -> TextTable {
        TextTable {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (short rows are padded with empty cells).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        let mut r: Vec<String> = cells.to_vec();
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let sep: String = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        let fmt_row = |cells: &[String]| {
            let mut s = String::from("|");
            for (i, c) in cells.iter().enumerate().take(cols) {
                s.push(' ');
                s.push_str(c);
                s.push_str(&" ".repeat(widths[i] - c.len() + 1));
                s.push('|');
            }
            s
        };
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out.push_str(&sep);
        out.push('\n');
        out
    }
}

/// Formats a percentage with one decimal, paper style ("64.7%").
pub fn pct(v: f64) -> String {
    format!("{v:.1}%")
}

/// Formats `count (pct%)`.
pub fn count_pct(count: usize, total: usize) -> String {
    if total == 0 {
        format!("{count} (0.0%)")
    } else {
        format!("{count} ({:.1}%)", 100.0 * count as f64 / total as f64)
    }
}

/// Canonical experiment order of a full `repro` run.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "stats",
    "table1",
    "fig1",
    "table2",
    "alternates",
    "fig2",
    "fig3",
    "table3",
    "table4",
    "validation",
    "informed",
    "consistency",
    "lg_augment",
    "predict",
];

/// Serializes one experiment result into the report JSON. Every result
/// struct derives `Serialize` with no fallible fields, so a failure here
/// is a bug in the result type, not bad input.
fn to_json<T: serde::Serialize>(r: &T) -> serde_json::Value {
    serde_json::to_value(r).unwrap_or_else(|e| panic!("experiment result serialization: {e}"))
}

/// Targets of the §3.2 poisoning campaign a report runs: the alternates
/// and informed sections both learn from this one campaign.
const CAMPAIGN_TARGETS: usize = 120;

/// Runs the named experiments over a built scenario and assembles the
/// full reproduction report: the text `repro` prints to stdout and the
/// JSON document `--json` writes. Shared by the `repro` binary and the
/// artifact-freshness test, so the committed `repro_paper_seed7.*`
/// artifacts are checked against exactly the shipping pipeline.
///
/// The scenario's decision table and the poisoning campaign are built
/// once per call, on first use, and handed to every section that reads
/// them; a call that names none of those sections builds neither. The
/// table classifies each of its columns on first read, so a call reads
/// only the columns its sections fold over.
///
/// Unknown names panic — callers validate against [`ALL_EXPERIMENTS`].
pub fn assemble_report(
    s: &crate::Scenario,
    seed: u64,
    scale: &str,
    wanted: &[&str],
) -> (String, serde_json::Value) {
    use crate::exp_alternates::poisoning_campaign;
    use std::cell::OnceCell;
    use std::fmt::Write as _;

    let cert = &s.audit.certificate;
    let mut out = serde_json::json!({
        "seed": seed,
        "scale": scale,
        "audit": {
            "errors": s.audit.errors(),
            "warnings": s.audit.warnings(),
            "certified": cert.certified,
            "blockers": cert.blockers,
        },
        "world": {
            "ases": s.world.graph.len(),
            "links": s.world.graph.link_count(),
            "inferred_links": s.inferred.len(),
            "probes_selected": s.probes.len(),
            "traceroutes": s.campaign.traceroutes.len(),
            "measured_paths": s.measured.len(),
            "decisions": s.decisions.len(),
            "observed_ases": s.observed_ases(),
            "destination_ases": s.campaign.destination_ases(),
        }
    });

    let table = OnceCell::new();
    let table = || table.get_or_init(|| s.decision_table());
    let campaign = OnceCell::new();
    let campaign = || campaign.get_or_init(|| poisoning_campaign(s, CAMPAIGN_TARGETS));

    let mut text = String::new();
    for name in wanted {
        // A section prints its rendering and files its result under its
        // own name.
        macro_rules! section {
            ($result:expr) => {{
                let r = $result;
                let _ = writeln!(text, "{}", r.render());
                out[*name] = to_json(&r);
            }};
        }
        match *name {
            "stats" => {
                let _ = writeln!(text, "Dataset statistics");
                let _ = writeln!(
                    text,
                    "  {} traceroutes from {} probes toward {} hostnames",
                    s.campaign.traceroutes.len(),
                    s.probes.len(),
                    s.world.content.hostname_count()
                );
                let _ = writeln!(
                    text,
                    "  {} destination ASes | decisions observed for {} ASes\n",
                    s.campaign.destination_ases(),
                    s.observed_ases()
                );
            }
            "table1" => section!(crate::exp_table1::run(s)),
            "fig1" => section!(crate::exp_fig1::run(s, table())),
            "table2" => section!(crate::exp_table2::run(s)),
            "alternates" => section!(crate::exp_alternates::run(s, campaign().as_deref())),
            "fig2" => section!(crate::exp_fig2::run(s, table())),
            "fig3" => section!(crate::exp_fig3::run(s, table())),
            "table3" => section!(crate::exp_table3::run(s, table())),
            "table4" => section!(crate::exp_table4::run(s, table())),
            "validation" => section!(crate::exp_validation::run(s, 10)),
            "informed" => {
                section!(crate::exp_informed::run(s, campaign().as_deref(), table()))
            }
            "consistency" => section!(crate::exp_consistency::run(s)),
            "lg_augment" => section!(crate::exp_lg_augment::run(s, 40)),
            "predict" => section!(crate::exp_predict::run(s)),
            other => panic!("unknown experiment: {other}"),
        }
    }
    (text, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new("Table X", &["name", "value"]);
        t.row(&["alpha".into(), "1".into()]);
        t.row(&["b".into()]);
        let s = t.render();
        assert!(s.contains("Table X"));
        assert!(s.contains("| alpha | 1     |"));
        // Padded short row.
        assert!(s.contains("| b     |       |"));
        // Every body line has equal width.
        let widths: Vec<usize> = s.lines().skip(1).map(|l| l.chars().count()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(64.66), "64.7%");
        assert_eq!(count_pct(3, 4), "3 (75.0%)");
        assert_eq!(count_pct(1, 0), "1 (0.0%)");
    }
}
