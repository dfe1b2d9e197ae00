//! Newline-delimited JSON wire protocol: every request builder, request
//! decoder and response encoder of `ir-serve`.
//!
//! One request object per line in, one response object per line out. The
//! decoder walks the [`Value`] tree field by field rather than deriving
//! whole-request types: a hostile or malformed line must become a
//! structured `error` response, never a panic or a dropped connection, and
//! every rejection reason names the field it came from.
//!
//! Responses echo the request's optional `id` so pipelining clients can
//! match answers arriving in completion order — rejections included,
//! whenever the offending line was a JSON object with a numeric `id`.
//!
//! Cold encoders are written with [`json!`]. The two hot replies — a
//! what-if answer and a `route` lookup — are streamed instead: a wide
//! answer carries thousands of diff rows, each with two route objects, so
//! [`ok_response`] writes envelope, rows and tail straight into one
//! `String`, pre-sized to an upper bound on the line (its `'\n'`
//! included), with no per-row allocation and no value tree.

use crate::server::{ServeStats, OP_NAMES};
use ir_bgp::{
    Announcement, CertificateDelta, Delta, DeltaStats, QueryError, Route, Segment, ShapeWaits,
    WhatIfAnswer,
};
use ir_types::{Asn, Prefix};
use serde_json::{json, Deserialize, Value};
use std::fmt::Write as _;

/// One decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A what-if query: apply deltas under a budget, diff.
    WhatIf {
        /// Client-chosen correlation id, echoed in the response.
        id: Option<u64>,
        /// Queried prefix (must be resident).
        prefix: Prefix,
        /// Edits to apply in order.
        deltas: Vec<Delta>,
        /// Requested activation budget (clamped to the server's cap).
        budget: Option<u64>,
    },
    /// Hijack scenario query: sugar for a single-[`Delta::Hijack`]
    /// what-if, tracked as its own op in the per-op stats breakdown.
    Hijack {
        /// Correlation id.
        id: Option<u64>,
        /// Victim prefix (must be resident).
        prefix: Prefix,
        /// AS injecting the adversarial origination.
        attacker: Asn,
        /// Claimed origin (`None` = plain origin forgery).
        forged_origin: Option<Asn>,
        /// ASNs wrapped in an AS-set sandwich around the claimed origin.
        poison: Vec<Asn>,
        /// Omit the attacker from its own announcement.
        stealth: bool,
        /// Requested activation budget (clamped to the server's cap).
        budget: Option<u64>,
    },
    /// Base-universe route lookup at one AS — no edit, no reconvergence.
    Route {
        /// Correlation id.
        id: Option<u64>,
        /// Resident prefix to look up.
        prefix: Prefix,
        /// AS whose selected route is wanted.
        asn: Asn,
    },
    /// Liveness/readiness probe; always bypasses admission.
    Health {
        /// Correlation id.
        id: Option<u64>,
    },
    /// Serving counters snapshot; bypasses admission.
    Stats {
        /// Correlation id.
        id: Option<u64>,
    },
    /// Full safety re-audit of the resident world; bypasses admission.
    Audit {
        /// Correlation id.
        id: Option<u64>,
    },
    /// Graceful drain: stop admitting, finish queued work, exit.
    Shutdown {
        /// Correlation id.
        id: Option<u64>,
    },
}

impl Request {
    /// The request's correlation id, if the client set one.
    pub fn id(&self) -> Option<u64> {
        match self {
            Request::WhatIf { id, .. }
            | Request::Hijack { id, .. }
            | Request::Route { id, .. }
            | Request::Health { id }
            | Request::Stats { id }
            | Request::Audit { id }
            | Request::Shutdown { id } => *id,
        }
    }
}

/// Why a request line was rejected: the message for the `error` response,
/// plus the line's `id` whenever it was a JSON object carrying a numeric
/// one, so even a rejection can be matched by a pipelining client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The rejected request's correlation id, if it could be read.
    pub id: Option<u64>,
    /// What was wrong, naming the offending field.
    pub message: String,
}

/// Optional field `key` as a `T`: absent and `null` both read as `None`.
fn opt_field<T: Deserialize>(v: &Value, key: &str) -> Result<Option<T>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => T::deserialize(x)
            .map(Some)
            .map_err(|e| format!("field `{key}`: {}", e.0)),
    }
}

/// Required field `key` as a `T`.
fn field<T: Deserialize>(v: &Value, key: &str) -> Result<T, String> {
    opt_field(v, key)?.ok_or_else(|| format!("field `{key}` is required"))
}

/// Required prefix field, carried on the wire in `a.b.c.d/len` form.
fn field_prefix(v: &Value, key: &str) -> Result<Prefix, String> {
    field::<String>(v, key)?
        .parse()
        .map_err(|_| format!("field `{key}` is not a prefix (want `a.b.c.d/len`)"))
}

/// Decodes one wire delta object (`{"kind": "...", ...}`).
pub fn delta_from_value(v: &Value) -> Result<Delta, String> {
    let kind: String = field(v, "kind")?;
    Ok(match kind.as_str() {
        "link_down" => Delta::LinkDown {
            a: field(v, "a")?,
            b: field(v, "b")?,
        },
        "link_up" => Delta::LinkUp {
            a: field(v, "a")?,
            b: field(v, "b")?,
        },
        "neighbor_pref" => Delta::NeighborPref {
            of: field(v, "of")?,
            neighbor: field(v, "neighbor")?,
            delta: opt_field(v, "delta")?,
        },
        "export_prepend" => Delta::ExportPrepend {
            of: field(v, "of")?,
            neighbor: field(v, "neighbor")?,
            count: opt_field(v, "count")?,
        },
        "partial_transit" => Delta::PartialTransit {
            of: field(v, "of")?,
            neighbor: field(v, "neighbor")?,
            customer_routes_only: field(v, "customer_routes_only")?,
        },
        "selective_announce" => Delta::SelectiveAnnounce {
            of: field(v, "of")?,
            prefix: field_prefix(v, "prefix")?,
            allowed: opt_field(v, "allowed")?,
        },
        "poison_filter" => Delta::PoisonFilter {
            of: field(v, "of")?,
            enabled: field(v, "enabled")?,
        },
        "announce" => Delta::Announce(Announcement {
            origin: field(v, "origin")?,
            prefix: field_prefix(v, "prefix")?,
            via: opt_field(v, "via")?,
            poison: opt_field(v, "poison")?.unwrap_or_default(),
        }),
        "hijack" => Delta::Hijack {
            attacker: field(v, "attacker")?,
            forged_origin: opt_field(v, "forged_origin")?,
            poison: opt_field(v, "poison")?.unwrap_or_default(),
            stealth: opt_field(v, "stealth")?.unwrap_or(false),
        },
        "withdraw" => Delta::Withdraw,
        other => return Err(format!("unknown delta kind `{other}`")),
    })
}

/// Encodes a [`Delta`] as its wire object — the inverse of
/// [`delta_from_value`], used by the request builders.
pub fn delta_to_value(d: &Delta) -> Value {
    match d {
        Delta::LinkDown { a, b } => json!({"kind": "link_down", "a": a, "b": b}),
        Delta::LinkUp { a, b } => json!({"kind": "link_up", "a": a, "b": b}),
        Delta::NeighborPref {
            of,
            neighbor,
            delta,
        } => json!({"kind": "neighbor_pref", "of": of, "neighbor": neighbor, "delta": delta}),
        Delta::ExportPrepend {
            of,
            neighbor,
            count,
        } => json!({"kind": "export_prepend", "of": of, "neighbor": neighbor, "count": count}),
        Delta::PartialTransit {
            of,
            neighbor,
            customer_routes_only,
        } => json!({
            "kind": "partial_transit",
            "of": of,
            "neighbor": neighbor,
            "customer_routes_only": customer_routes_only
        }),
        Delta::SelectiveAnnounce {
            of,
            prefix,
            allowed,
        } => json!({
            "kind": "selective_announce",
            "of": of,
            "prefix": prefix.to_string(),
            "allowed": allowed
        }),
        Delta::PoisonFilter { of, enabled } => {
            json!({"kind": "poison_filter", "of": of, "enabled": enabled})
        }
        Delta::Announce(ann) => json!({
            "kind": "announce",
            "origin": ann.origin,
            "prefix": ann.prefix.to_string(),
            "via": ann.via,
            "poison": ann.poison
        }),
        Delta::Hijack {
            attacker,
            forged_origin,
            poison,
            stealth,
        } => json!({
            "kind": "hijack",
            "attacker": attacker,
            "forged_origin": forged_origin,
            "poison": poison,
            "stealth": stealth
        }),
        Delta::Withdraw => json!({"kind": "withdraw"}),
    }
}

/// Decodes one request line. Every failure is a [`ParseError`] fit for an
/// `error` response — the caller never disconnects over bad input.
pub fn parse_request(line: &str) -> Result<Request, ParseError> {
    let reject = |id, message| ParseError { id, message };
    let v: Value =
        serde_json::from_str(line).map_err(|e| reject(None, format!("malformed JSON: {e}")))?;
    if v.as_object().is_none() {
        return Err(reject(None, "request must be a JSON object".to_string()));
    }
    let id = v.get("id").and_then(Value::as_u64);
    request_from_value(&v, id).map_err(|message| reject(id, message))
}

fn request_from_value(v: &Value, id: Option<u64>) -> Result<Request, String> {
    let op: String = field(v, "op")?;
    Ok(match op.as_str() {
        "whatif" => Request::WhatIf {
            id,
            prefix: field_prefix(v, "prefix")?,
            deltas: v
                .get("deltas")
                .and_then(Value::as_array)
                .ok_or("field `deltas` must be an array")?
                .iter()
                .map(delta_from_value)
                .collect::<Result<_, _>>()?,
            budget: opt_field(v, "budget")?,
        },
        "hijack" => Request::Hijack {
            id,
            prefix: field_prefix(v, "prefix")?,
            attacker: field(v, "attacker")?,
            forged_origin: opt_field(v, "forged_origin")?,
            poison: opt_field(v, "poison")?.unwrap_or_default(),
            stealth: opt_field(v, "stealth")?.unwrap_or(false),
            budget: opt_field(v, "budget")?,
        },
        "route" => Request::Route {
            id,
            prefix: field_prefix(v, "prefix")?,
            asn: field(v, "asn")?,
        },
        "health" => Request::Health { id },
        "stats" => Request::Stats { id },
        "audit" => Request::Audit { id },
        "shutdown" => Request::Shutdown { id },
        other => return Err(format!("unknown op `{other}`")),
    })
}

/// One wire line: the optional `id` first, then `key: tag` (`op` for
/// requests, `status` for responses), then the entries of `fields`.
fn tagged(id: Option<u64>, key: &str, tag: &str, fields: Value) -> String {
    let mut obj = Vec::new();
    if let Some(id) = id {
        obj.push(("id".into(), json!(id)));
    }
    obj.push((key.into(), json!(tag)));
    if let Value::Object(rest) = fields {
        obj.extend(rest);
    }
    // The tree holds no non-finite floats, so encoding can't fail.
    serde_json::to_string(&Value::Object(obj)).unwrap_or_else(|_| "{\"status\":\"error\"}".into())
}

/// Builds a `whatif` request line.
pub fn whatif_line(
    id: Option<u64>,
    prefix: Prefix,
    deltas: &[Delta],
    budget: Option<u64>,
) -> String {
    let mut fields = json!({"prefix": prefix.to_string()});
    fields["deltas"] = Value::Array(deltas.iter().map(delta_to_value).collect());
    if let Some(b) = budget {
        fields["budget"] = json!(b);
    }
    tagged(id, "op", "whatif", fields)
}

/// Builds a `hijack` request line — the scenario-query sugar op.
pub fn hijack_line(
    id: Option<u64>,
    prefix: Prefix,
    attacker: Asn,
    forged_origin: Option<Asn>,
    stealth: bool,
    budget: Option<u64>,
) -> String {
    let mut fields = json!({
        "prefix": prefix.to_string(),
        "attacker": attacker,
        "forged_origin": forged_origin,
        "stealth": stealth
    });
    if let Some(b) = budget {
        fields["budget"] = json!(b);
    }
    tagged(id, "op", "hijack", fields)
}

/// Builds a `route` request line.
pub fn route_line(id: Option<u64>, prefix: Prefix, asn: Asn) -> String {
    tagged(
        id,
        "op",
        "route",
        json!({"prefix": prefix.to_string(), "asn": asn}),
    )
}

/// Builds a bare control request (`health`, `stats`, `audit`,
/// `shutdown`).
pub fn control_line(id: Option<u64>, op: &str) -> String {
    tagged(id, "op", op, json!({}))
}

/// One response line with the given `status` and body fields.
fn reply(id: Option<u64>, status: &str, fields: Value) -> String {
    tagged(id, "status", status, fields)
}

/// Appends `n` in decimal: the digit writer every streamed integer goes
/// through.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &d in &digits[at..] {
        out.push(char::from(d));
    }
}

fn push_i64(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    push_u64(out, n.unsigned_abs());
}

/// Most bytes an ASN, a `u64` and an `i32` take in decimal.
const ASN_DIGITS: usize = 10;
const U64_DIGITS: usize = 20;
const I32_DIGITS: usize = 11;

/// Upper bound on the bytes [`push_route`] writes for `route`.
fn route_bound(route: &Option<Route>) -> usize {
    let Some(r) = route else { return 4 };
    let asns: usize = r
        .path
        .segments()
        .iter()
        .map(|s| match s {
            Segment::Seq(v) => v.len(),
            Segment::Set(set) => set.len(),
        })
        .sum();
    r#"{"via":,"path":[],"local_pref":,"age":}"#.len()
        + ASN_DIGITS
        + asns * (ASN_DIGITS + 1)
        + I32_DIGITS
        + U64_DIGITS
}

/// Appends a route's wire object (`null` when the AS holds no route): the
/// one route encoder, shared by diff rows and `route` lookups.
fn push_route(out: &mut String, route: &Option<Route>) {
    let Some(r) = route else {
        out.push_str("null");
        return;
    };
    out.push_str(r#"{"via":"#);
    match r.learned_from {
        Some(a) => push_u64(out, u64::from(a.value())),
        None => out.push_str("null"),
    }
    out.push_str(r#","path":["#);
    for segment in r.path.segments() {
        match segment {
            Segment::Seq(v) => push_asns(out, v),
            Segment::Set(set) => push_asns(out, set),
        }
    }
    if out.ends_with(',') {
        out.pop();
    }
    out.push_str(r#"],"local_pref":"#);
    push_i64(out, i64::from(r.local_pref));
    out.push_str(r#","age":"#);
    push_u64(out, r.age.0);
    out.push('}');
}

/// Appends each ASN with a trailing comma ([`push_route`] drops the last).
fn push_asns<'a>(out: &mut String, asns: impl IntoIterator<Item = &'a Asn>) {
    for a in asns {
        push_u64(out, u64::from(a.value()));
        out.push(',');
    }
}

/// Upper bound on [`ok_head`]'s bytes.
const HEAD_BOUND: usize =
    r#"{"id":,"status":"ok","prefix":"255.255.255.255/32""#.len() + U64_DIGITS;

/// Appends the head of a streamed `status: ok` reply, up to and including
/// its `prefix` member.
fn ok_head(out: &mut String, id: Option<u64>, prefix: Prefix) {
    out.push('{');
    if let Some(id) = id {
        out.push_str(r#""id":"#);
        push_u64(out, id);
        out.push(',');
    }
    // A prefix (`a.b.c.d/len`) needs no escaping.
    let _ = write!(out, r#""status":"ok","prefix":"{prefix}""#);
}

/// Upper bound on the bytes [`answer_tail`] writes.
fn tail_bound(certificate: Option<&CertificateDelta>) -> usize {
    const STATS: usize = r#","stats":{"deltas_applied":,"ases_seeded":,"activations":,"rounds":,"routes_retained":,"routes_changed":,"converged":false,"deadline_aborted":false}"#.len()
        + 6 * U64_DIGITS;
    let text = match certificate {
        None => return STATS,
        Some(CertificateDelta::Revoked { rule, .. }) => "revoked:".len() + rule.len(),
        Some(_) => "preserved".len(),
    };
    // Escaping at most sextuples a byte (`\u00XX`).
    STATS + r#","certificate":"""#.len() + 6 * text
}

/// Appends the tail a served and a degraded answer share: the effort `stats`,
/// and the `certificate` verdict when the server's incremental delta
/// auditor judged the edit set (`"preserved"`, `"revoked:IR-A002"`, or
/// `"unknown"`; absent when no certifier is attached — wave-exact servers
/// have no certificate to maintain).
fn answer_tail(
    out: &mut String,
    stats: Option<&DeltaStats>,
    certificate: Option<&CertificateDelta>,
) {
    if let Some(s) = stats {
        let counts = [
            ("deltas_applied", s.deltas_applied),
            ("ases_seeded", s.ases_seeded),
            ("activations", s.activations),
            ("rounds", s.rounds),
            ("routes_retained", s.routes_retained),
            ("routes_changed", s.routes_changed),
        ];
        out.push_str(r#","stats":{"#);
        for (key, n) in counts {
            out.push('"');
            out.push_str(key);
            out.push_str("\":");
            push_u64(out, n as u64);
            out.push(',');
        }
        let flag = |b: bool| if b { "true" } else { "false" };
        out.push_str(r#""converged":"#);
        out.push_str(flag(s.converged));
        out.push_str(r#","deadline_aborted":"#);
        out.push_str(flag(s.deadline_aborted));
        out.push('}');
    }
    if let Some(c) = certificate {
        out.push_str(r#","certificate":"#);
        // The rule is free text: serde_json escapes it.
        let verdict = Value::String(c.to_string());
        out.push_str(&serde_json::to_string(&verdict).unwrap_or_default());
    }
}

/// `status: ok` response for a served answer. A degraded answer (tripped
/// budget or open breaker) instead goes through [`degraded_response`].
pub fn ok_response(id: Option<u64>, answer: &WhatIfAnswer) -> String {
    const ROW: usize = r#"{"asn":,"before":,"after":},"#.len() + ASN_DIGITS;
    let rows: usize = answer
        .diffs
        .iter()
        .map(|d| ROW + route_bound(&d.before) + route_bound(&d.after))
        .sum();
    let cap =
        HEAD_BOUND + r#","diffs":[]}"#.len() + rows + tail_bound(answer.certificate.as_ref()) + 1;
    let mut out = String::with_capacity(cap);
    ok_head(&mut out, id, answer.prefix);
    out.push_str(r#","diffs":["#);
    for d in &answer.diffs {
        out.push_str(r#"{"asn":"#);
        push_u64(&mut out, u64::from(d.asn.value()));
        out.push_str(r#","before":"#);
        push_route(&mut out, &d.before);
        out.push_str(r#","after":"#);
        push_route(&mut out, &d.after);
        out.push_str("},");
    }
    if out.ends_with(',') {
        out.pop();
    }
    out.push(']');
    answer_tail(&mut out, Some(&answer.stats), answer.certificate.as_ref());
    out.push('}');
    debug_assert!(out.len() < cap, "reply outgrew its bound");
    out
}

/// `status: degraded` response: the query could not be answered exactly
/// (deadline tripped, breaker open), so the server answers with the base
/// universe's routing — an empty diff — plus the degradation markers.
pub fn degraded_response(
    id: Option<u64>,
    prefix: Prefix,
    markers: &[&str],
    stats: Option<&DeltaStats>,
    certificate: Option<&CertificateDelta>,
) -> String {
    let fields = json!({"degraded": markers, "prefix": prefix.to_string(), "diffs": []});
    let mut out = reply(id, "degraded", fields);
    // Reopen the object for the shared tail.
    out.pop();
    answer_tail(&mut out, stats, certificate);
    out.push('}');
    out
}

/// `status: ok` response for a `route` lookup: the base route at one AS.
pub fn route_response(id: Option<u64>, prefix: Prefix, route: &Option<Route>) -> String {
    let cap = HEAD_BOUND + r#","route":}"#.len() + route_bound(route) + 1;
    let mut out = String::with_capacity(cap);
    ok_head(&mut out, id, prefix);
    out.push_str(r#","route":"#);
    push_route(&mut out, route);
    out.push('}');
    debug_assert!(out.len() < cap, "reply outgrew its bound");
    out
}

/// `status: ok` response for the `health` probe.
pub fn health_response(id: Option<u64>, draining: bool, prefixes: usize, shapes: usize) -> String {
    let state = if draining { "draining" } else { "running" };
    reply(
        id,
        "ok",
        json!({"state": state, "prefixes": prefixes, "shapes": shapes}),
    )
}

/// `status: ok` response acknowledging a `shutdown`: the drain has begun.
pub fn draining_response(id: Option<u64>) -> String {
    reply(id, "ok", json!({"state": "draining"}))
}

/// `status: ok` response for the `stats` op: the serving counters, the
/// admission queue's capacity, the engine's same-shape waits, and the
/// per-op latency breakdown.
pub fn stats_response(
    id: Option<u64>,
    s: &ServeStats,
    queue_cap: usize,
    waits: ShapeWaits,
) -> String {
    let mut fields = json!({
        "received": s.received,
        "served": s.served,
        "shed": s.shed,
        "degraded": s.degraded,
        "deadline_aborts": s.deadline_aborts,
        "quarantine_refusals": s.quarantine_refusals,
        "errors": s.errors,
        "disconnects": s.disconnects,
        "breaker_trips": s.breaker_trips,
        "queue_high_water": s.queue_high_water,
        "queue_cap": queue_cap,
        "certificates_preserved": s.certificates_preserved,
        "certificates_revoked": s.certificates_revoked,
        "shape_waits": waits.queries,
        "shape_wait_us": waits.total_us,
        "ops": {}
    });
    for (name, o) in OP_NAMES.iter().zip(&s.ops) {
        fields["ops"][*name] =
            json!({"count": o.count, "total_ms": o.total_ms, "max_ms": o.max_ms});
    }
    reply(id, "ok", fields)
}

/// `status: ok` response for the `audit` control op: the full-world
/// re-audit verdict, serving as both an operator probe and the ground
/// truth the incremental certificate verdicts can be checked against.
pub fn audit_response(
    id: Option<u64>,
    certified: bool,
    errors: usize,
    warnings: usize,
    blockers: &[String],
) -> String {
    reply(
        id,
        "ok",
        json!({"certified": certified, "errors": errors, "warnings": warnings, "blockers": blockers}),
    )
}

/// `status: shed` response: admission refused the query under load; the
/// client should retry after the stated backoff.
pub fn shed_response(id: Option<u64>, retry_after_ms: u64) -> String {
    reply(id, "shed", json!({"retry_after_ms": retry_after_ms}))
}

/// `status: error` response for malformed or rejected requests.
pub fn error_response(id: Option<u64>, message: &str) -> String {
    reply(id, "error", json!({"error": message}))
}

/// Maps a [`QueryError`] onto an `error` response.
pub fn query_error_response(id: Option<u64>, err: &QueryError) -> String {
    error_response(id, &err.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_wire_deltas() {
        let deltas = vec![
            Delta::LinkDown {
                a: Asn(1),
                b: Asn(2),
            },
            Delta::NeighborPref {
                of: Asn(3),
                neighbor: Asn(4),
                delta: Some(-120),
            },
            Delta::ExportPrepend {
                of: Asn(3),
                neighbor: Asn(4),
                count: None,
            },
            Delta::Hijack {
                attacker: Asn(5),
                forged_origin: Some(Asn(6)),
                poison: vec![Asn(7)],
                stealth: false,
            },
            Delta::Hijack {
                attacker: Asn(8),
                forged_origin: None,
                poison: Vec::new(),
                stealth: true,
            },
            Delta::Withdraw,
        ];
        let arr = Value::Array(deltas.iter().map(delta_to_value).collect());
        let line = serde_json::to_string(&Value::Object(vec![
            ("op".into(), Value::String("whatif".into())),
            ("id".into(), Value::UInt(9)),
            ("prefix".into(), Value::String("10.0.0.0/24".into())),
            ("deltas".into(), arr),
        ]))
        .unwrap();
        match parse_request(&line).unwrap() {
            Request::WhatIf {
                id,
                prefix,
                deltas: got,
                budget,
            } => {
                assert_eq!(id, Some(9));
                assert_eq!(prefix, "10.0.0.0/24".parse().unwrap());
                assert_eq!(got, deltas);
                assert_eq!(budget, None);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_structured_errors() {
        for bad in [
            "",
            "not json",
            "42",
            "{}",
            r#"{"op":"nope"}"#,
            r#"{"op":"whatif"}"#,
            r#"{"op":"whatif","prefix":"x","deltas":[]}"#,
            r#"{"op":"whatif","prefix":"10.0.0.0/24","deltas":[{"kind":"warp"}]}"#,
            r#"{"op":"route","prefix":"10.0.0.0/24"}"#,
            r#"{"op":"hijack","prefix":"10.0.0.0/24"}"#,
            r#"{"op":"hijack","prefix":"10.0.0.0/24","attacker":1,"stealth":"yes"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn hijack_op_parses_with_defaults() {
        let line = r#"{"op":"hijack","id":3,"prefix":"10.0.0.0/24","attacker":65000}"#;
        match parse_request(line).unwrap() {
            Request::Hijack {
                id,
                prefix,
                attacker,
                forged_origin,
                poison,
                stealth,
                budget,
            } => {
                assert_eq!(id, Some(3));
                assert_eq!(prefix, "10.0.0.0/24".parse().unwrap());
                assert_eq!(attacker, Asn(65000));
                assert_eq!(forged_origin, None);
                assert!(poison.is_empty());
                assert!(!stealth);
                assert_eq!(budget, None);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn responses_echo_ids_and_statuses() {
        let shed = shed_response(Some(5), 40);
        let v: Value = serde_json::from_str(&shed).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(5));
        assert_eq!(v.get("status").and_then(Value::as_str), Some("shed"));
        assert_eq!(v.get("retry_after_ms").and_then(Value::as_u64), Some(40));
        let err = error_response(None, "nope");
        let v: Value = serde_json::from_str(&err).unwrap();
        assert!(v.get("id").is_none());
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
    }
}
