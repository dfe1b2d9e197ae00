//! End-to-end smoke over the real binary: spawn `ir-serve` on an
//! ephemeral port, drive a mixed batch of queries (including malformed
//! JSON and an over-deadline query), then drain with a `shutdown` request
//! and require a clean exit.

use ir_bgp::Delta;
use ir_serve::{control_line, hijack_line, whatif_line, Client};
use ir_types::{Asn, Prefix, Relationship};
use serde_json::Value;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn status_of(line: &str) -> String {
    str_field(line, "status")
}

fn str_field(line: &str, key: &str) -> String {
    let v: Value = serde_json::from_str(line).unwrap_or(Value::Null);
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or("<none>")
        .to_string()
}

fn uint_field(line: &str, key: &str) -> u64 {
    let v: Value = serde_json::from_str(line).unwrap_or(Value::Null);
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no uint {key} in {line}"))
}

#[test]
fn binary_serves_a_mixed_batch_and_drains_clean() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ir-serve"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--scale",
            "tiny",
            "--seed",
            "7",
            "--prefixes",
            "8",
            "--workers",
            "2",
            // A wall deadline no query here reaches: the gate runs with the
            // deadline on the budget without tripping it.
            "--deadline-ms",
            "60000",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ir-serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout);
    let mut banner = String::new();
    lines.read_line(&mut banner).expect("banner line");
    // "ir-serve listening on 127.0.0.1:PORT (...)"
    let addr = banner
        .split_whitespace()
        .nth(3)
        .unwrap_or_else(|| panic!("unparseable banner: {banner}"))
        .to_string();

    // The same prefixes the binary selected (same generator, same seed).
    let world = ir_topology::GeneratorConfig::tiny().build(7);
    let prefixes: Vec<Prefix> = world
        .graph
        .nodes()
        .iter()
        .filter_map(|n| n.prefixes.first().copied())
        .take(8)
        .collect();
    let asns: Vec<Asn> = world.graph.nodes().iter().map(|n| n.asn).take(2).collect();

    let mut c = Client::connect(addr.as_str()).expect("connect to daemon");
    let mut ok = 0;
    let mut degraded = 0;
    let mut errors = 0;
    for i in 0..50u64 {
        let line = match i % 10 {
            // Malformed JSON: must answer an error, not drop the conn.
            3 => format!("{{\"op\": {i}"),
            // Over-deadline query: budget 1 trips and degrades.
            7 => whatif_line(Some(i), prefixes[1], &[Delta::Withdraw], Some(1)),
            _ => whatif_line(
                Some(i),
                prefixes[(i % 8) as usize],
                &[Delta::LinkDown {
                    a: asns[0],
                    b: asns[1],
                }],
                None,
            ),
        };
        let resp = c.request(&line).unwrap().expect("response");
        match status_of(&resp).as_str() {
            "ok" => ok += 1,
            "degraded" => degraded += 1,
            "error" => errors += 1,
            other => panic!("query {i}: unexpected status {other}: {resp}"),
        }
    }
    assert_eq!(ok + degraded + errors, 50, "every query answered");
    assert_eq!(errors, 5, "the malformed lines");
    assert!(degraded >= 1, "the over-deadline queries degraded");
    assert!(ok >= 40, "the normal mix served");

    // The hijack sugar op serves and is observable: an attacker forging
    // the first prefix's origin answers ok, and the per-op latency
    // counters in `stats` record it under its own name.
    let victim = world
        .graph
        .nodes()
        .iter()
        .find(|n| n.prefixes.first() == Some(&prefixes[0]))
        .map(|n| n.asn)
        .expect("prefix owner");
    let attacker = world
        .graph
        .nodes()
        .iter()
        .rev()
        .map(|n| n.asn)
        .find(|&a| a != victim)
        .expect("a second AS");
    let hijack = c
        .request(&hijack_line(
            Some(90),
            prefixes[0],
            attacker,
            None,
            false,
            None,
        ))
        .unwrap()
        .expect("hijack response");
    assert_eq!(status_of(&hijack), "ok", "{hijack}");

    let stats = c
        .request(&control_line(Some(91), "stats"))
        .unwrap()
        .expect("stats response");
    let v: Value = serde_json::from_str(&stats).expect("stats json");
    let hijack_count = v
        .get("ops")
        .and_then(|ops| ops.get("hijack"))
        .and_then(|op| op.get("count"))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no ops.hijack.count in {stats}"));
    assert!(hijack_count >= 1, "hijack op not counted: {stats}");
    let whatif_count = v
        .get("ops")
        .and_then(|ops| ops.get("whatif"))
        .and_then(|op| op.get("count"))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no ops.whatif.count in {stats}"));
    assert!(whatif_count >= 40, "whatif ops not counted: {stats}");

    // Graceful drain: shutdown acks, then the process exits 0.
    let ack = c
        .request(&control_line(Some(99), "shutdown"))
        .unwrap()
        .expect("shutdown ack");
    assert_eq!(status_of(&ack), "ok");
    let status = child.wait().expect("child exit");
    assert!(status.success(), "daemon exited {status}");
}

/// Certified serving: on `--scale safe` the daemon attaches the
/// incremental delta auditor, so every what-if answer carries a
/// `certificate` verdict, the `audit` control op reports the world
/// certified, and the verdict counters show up in `stats`.
#[test]
fn certified_daemon_reports_certificate_verdicts() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ir-serve"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--scale",
            "safe",
            "--seed",
            "7",
            "--prefixes",
            "8",
            "--workers",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ir-serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout);
    let mut banner = String::new();
    lines.read_line(&mut banner).expect("banner line");
    let addr = banner
        .split_whitespace()
        .nth(3)
        .unwrap_or_else(|| panic!("unparseable banner: {banner}"))
        .to_string();

    // Mirror the binary's world to pick deterministic edit targets: an AS
    // with both a customer-tier and a foreign-tier session. Boosting the
    // foreign neighbor past the customer floor is the one-delta GR
    // preference inversion; a pure export prepend is certificate-neutral.
    let world = ir_topology::GeneratorConfig::certifiably_safe().build(7);
    let prefixes: Vec<Prefix> = world
        .graph
        .nodes()
        .iter()
        .filter_map(|n| n.prefixes.first().copied())
        .take(8)
        .collect();
    let g = &world.graph;
    let (of, neighbor) = (0..g.len())
        .find_map(|x| {
            let has_cust = g.links(x).iter().any(|l| {
                !l.is_hybrid() && matches!(l.rel, Relationship::Customer | Relationship::Sibling)
            });
            let foreign = g.links(x).iter().find(|l| {
                !l.is_hybrid() && matches!(l.rel, Relationship::Peer | Relationship::Provider)
            });
            match (has_cust, foreign) {
                (true, Some(f)) => Some((g.asn(x), g.asn(f.peer))),
                _ => None,
            }
        })
        .expect("an AS with customer and foreign sessions");

    let mut c = Client::connect(addr.as_str()).expect("connect to daemon");

    // The audit op sees the startup world as certified.
    let audit = c
        .request(&control_line(Some(1), "audit"))
        .unwrap()
        .expect("audit response");
    assert_eq!(status_of(&audit), "ok", "{audit}");
    let v: Value = serde_json::from_str(&audit).expect("audit json");
    assert_eq!(v.get("certified"), Some(&Value::Bool(true)), "{audit}");
    assert_eq!(uint_field(&audit, "errors"), 0, "{audit}");

    // Certificate-neutral edit: the verdict is preserved and the answer
    // stays on the free-order fast path.
    let preserved = c
        .request(&whatif_line(
            Some(2),
            prefixes[0],
            &[Delta::ExportPrepend {
                of,
                neighbor,
                count: Some(3),
            }],
            None,
        ))
        .unwrap()
        .expect("preserved response");
    assert_eq!(status_of(&preserved), "ok", "{preserved}");
    assert_eq!(str_field(&preserved, "certificate"), "preserved");

    // Preference inversion: the incremental auditor revokes on GR-PREF and
    // the engine transparently falls back to exact activation.
    let revoked = c
        .request(&whatif_line(
            Some(3),
            prefixes[1],
            &[Delta::NeighborPref {
                of,
                neighbor,
                delta: Some(500),
            }],
            None,
        ))
        .unwrap()
        .expect("revoked response");
    assert_eq!(status_of(&revoked), "ok", "{revoked}");
    assert_eq!(str_field(&revoked, "certificate"), "revoked:GR-PREF");

    // Both verdicts flowed into the serving counters.
    let stats = c
        .request(&control_line(Some(4), "stats"))
        .unwrap()
        .expect("stats response");
    assert!(uint_field(&stats, "certificates_preserved") >= 1, "{stats}");
    assert!(uint_field(&stats, "certificates_revoked") >= 1, "{stats}");

    let ack = c
        .request(&control_line(Some(5), "shutdown"))
        .unwrap()
        .expect("shutdown ack");
    assert_eq!(status_of(&ack), "ok");
    let status = child.wait().expect("child exit");
    assert!(status.success(), "daemon exited {status}");
}
