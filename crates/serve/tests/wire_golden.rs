//! Golden wire bytes: the exact line for every [`Delta`] kind in every
//! optional-field state, every request builder and every response encoder,
//! plus the decode direction (`null` / absent / set), the rejection wording,
//! and a round-trip proptest over all ten delta kinds. The README protocol
//! reference and DESIGN.md §12 are checked against this table.

use ir_bgp::{
    ActivationOrder, Announcement, AsPath, CertificateDelta, Delta, DeltaStats, QueryError, Route,
    RouteDiff, RoutingUniverse, ShapeWaits, WhatIfAnswer, WhatIfEngine, MAX_DELTAS_PER_QUERY,
};
use ir_serve::protocol::{
    audit_response, degraded_response, delta_from_value, delta_to_value, error_response,
    ok_response, query_error_response, shed_response,
};
use ir_serve::{
    control_line, hijack_line, parse_request, route_line, stats_response, whatif_line, Client,
    OpLatency, Request, ServeConfig, ServeStats, Server,
};
use ir_topology::GeneratorConfig;
use ir_types::{Asn, Ipv4, Prefix, Timestamp};
use proptest::prelude::*;
use serde_json::Value;
use std::collections::BTreeSet;
use std::net::TcpListener;

fn prefix() -> Prefix {
    "10.0.0.0/24".parse().unwrap()
}

fn set(asns: &[u32]) -> BTreeSet<Asn> {
    asns.iter().map(|&a| Asn(a)).collect()
}

/// Every delta kind in every optional-field state, with its wire object.
fn delta_table() -> Vec<(Delta, &'static str)> {
    let (a, b) = (Asn(1), Asn(2));
    let (of, neighbor) = (Asn(3), Asn(4));
    vec![
        (
            Delta::LinkDown { a, b },
            r#"{"kind":"link_down","a":1,"b":2}"#,
        ),
        (Delta::LinkUp { a, b }, r#"{"kind":"link_up","a":1,"b":2}"#),
        (
            Delta::NeighborPref {
                of,
                neighbor,
                delta: Some(-120),
            },
            r#"{"kind":"neighbor_pref","of":3,"neighbor":4,"delta":-120}"#,
        ),
        (
            Delta::NeighborPref {
                of,
                neighbor,
                delta: Some(50),
            },
            r#"{"kind":"neighbor_pref","of":3,"neighbor":4,"delta":50}"#,
        ),
        (
            Delta::NeighborPref {
                of,
                neighbor,
                delta: None,
            },
            r#"{"kind":"neighbor_pref","of":3,"neighbor":4,"delta":null}"#,
        ),
        (
            Delta::ExportPrepend {
                of,
                neighbor,
                count: Some(3),
            },
            r#"{"kind":"export_prepend","of":3,"neighbor":4,"count":3}"#,
        ),
        (
            Delta::ExportPrepend {
                of,
                neighbor,
                count: None,
            },
            r#"{"kind":"export_prepend","of":3,"neighbor":4,"count":null}"#,
        ),
        (
            Delta::PartialTransit {
                of,
                neighbor,
                customer_routes_only: true,
            },
            r#"{"kind":"partial_transit","of":3,"neighbor":4,"customer_routes_only":true}"#,
        ),
        (
            Delta::PartialTransit {
                of,
                neighbor,
                customer_routes_only: false,
            },
            r#"{"kind":"partial_transit","of":3,"neighbor":4,"customer_routes_only":false}"#,
        ),
        (
            Delta::SelectiveAnnounce {
                of,
                prefix: prefix(),
                allowed: Some(set(&[6, 5])),
            },
            r#"{"kind":"selective_announce","of":3,"prefix":"10.0.0.0/24","allowed":[5,6]}"#,
        ),
        (
            Delta::SelectiveAnnounce {
                of,
                prefix: prefix(),
                allowed: Some(BTreeSet::new()),
            },
            r#"{"kind":"selective_announce","of":3,"prefix":"10.0.0.0/24","allowed":[]}"#,
        ),
        (
            Delta::SelectiveAnnounce {
                of,
                prefix: prefix(),
                allowed: None,
            },
            r#"{"kind":"selective_announce","of":3,"prefix":"10.0.0.0/24","allowed":null}"#,
        ),
        (
            Delta::PoisonFilter { of, enabled: true },
            r#"{"kind":"poison_filter","of":3,"enabled":true}"#,
        ),
        (
            Delta::PoisonFilter { of, enabled: false },
            r#"{"kind":"poison_filter","of":3,"enabled":false}"#,
        ),
        (
            Delta::Announce(Announcement {
                origin: Asn(7),
                prefix: prefix(),
                via: Some(set(&[8])),
                poison: vec![Asn(9), Asn(1)],
            }),
            r#"{"kind":"announce","origin":7,"prefix":"10.0.0.0/24","via":[8],"poison":[9,1]}"#,
        ),
        (
            Delta::Announce(Announcement::plain(Asn(7), prefix())),
            r#"{"kind":"announce","origin":7,"prefix":"10.0.0.0/24","via":null,"poison":[]}"#,
        ),
        (
            Delta::Hijack {
                attacker: Asn(5),
                forged_origin: Some(Asn(6)),
                poison: vec![Asn(7)],
                stealth: false,
            },
            r#"{"kind":"hijack","attacker":5,"forged_origin":6,"poison":[7],"stealth":false}"#,
        ),
        (
            Delta::Hijack {
                attacker: Asn(8),
                forged_origin: None,
                poison: Vec::new(),
                stealth: true,
            },
            r#"{"kind":"hijack","attacker":8,"forged_origin":null,"poison":[],"stealth":true}"#,
        ),
        (Delta::Withdraw, r#"{"kind":"withdraw"}"#),
    ]
}

#[test]
fn every_delta_form_has_its_golden_object_and_decodes_back() {
    for (delta, wire) in delta_table() {
        let encoded = serde_json::to_string(&delta_to_value(&delta)).unwrap();
        assert_eq!(encoded, wire, "encoding of {delta:?}");
        let v: Value = serde_json::from_str(wire).unwrap();
        assert_eq!(delta_from_value(&v), Ok(delta), "decoding of {wire}");
    }
}

#[test]
fn absent_optional_delta_fields_decode_like_null() {
    let (of, neighbor) = (Asn(3), Asn(4));
    for (wire, want) in [
        (
            r#"{"kind":"neighbor_pref","of":3,"neighbor":4}"#,
            Delta::NeighborPref {
                of,
                neighbor,
                delta: None,
            },
        ),
        (
            r#"{"kind":"export_prepend","of":3,"neighbor":4}"#,
            Delta::ExportPrepend {
                of,
                neighbor,
                count: None,
            },
        ),
        (
            r#"{"kind":"selective_announce","of":3,"prefix":"10.0.0.0/24"}"#,
            Delta::SelectiveAnnounce {
                of,
                prefix: prefix(),
                allowed: None,
            },
        ),
        (
            r#"{"kind":"announce","origin":7,"prefix":"10.0.0.0/24"}"#,
            Delta::Announce(Announcement::plain(Asn(7), prefix())),
        ),
        (
            r#"{"kind":"announce","origin":7,"prefix":"10.0.0.0/24","poison":null}"#,
            Delta::Announce(Announcement::plain(Asn(7), prefix())),
        ),
        (
            r#"{"kind":"hijack","attacker":8}"#,
            Delta::Hijack {
                attacker: Asn(8),
                forged_origin: None,
                poison: Vec::new(),
                stealth: false,
            },
        ),
        (
            r#"{"kind":"hijack","attacker":8,"poison":null}"#,
            Delta::Hijack {
                attacker: Asn(8),
                forged_origin: None,
                poison: Vec::new(),
                stealth: false,
            },
        ),
    ] {
        let v: Value = serde_json::from_str(wire).unwrap();
        assert_eq!(delta_from_value(&v), Ok(want), "decoding of {wire}");
    }
}

#[test]
fn request_builders_have_golden_lines_and_parse_back() {
    let deltas = [Delta::LinkDown {
        a: Asn(1),
        b: Asn(2),
    }];
    let table = [
        (
            whatif_line(Some(9), prefix(), &deltas, Some(500)),
            r#"{"id":9,"op":"whatif","prefix":"10.0.0.0/24","deltas":[{"kind":"link_down","a":1,"b":2}],"budget":500}"#,
        ),
        (
            whatif_line(None, prefix(), &[], None),
            r#"{"op":"whatif","prefix":"10.0.0.0/24","deltas":[]}"#,
        ),
        (
            hijack_line(
                Some(3),
                prefix(),
                Asn(65000),
                Some(Asn(64500)),
                true,
                Some(7),
            ),
            r#"{"id":3,"op":"hijack","prefix":"10.0.0.0/24","attacker":65000,"forged_origin":64500,"stealth":true,"budget":7}"#,
        ),
        (
            hijack_line(None, prefix(), Asn(65000), None, false, None),
            r#"{"op":"hijack","prefix":"10.0.0.0/24","attacker":65000,"forged_origin":null,"stealth":false}"#,
        ),
        (
            route_line(Some(5), prefix(), Asn(174)),
            r#"{"id":5,"op":"route","prefix":"10.0.0.0/24","asn":174}"#,
        ),
        (
            route_line(None, prefix(), Asn(174)),
            r#"{"op":"route","prefix":"10.0.0.0/24","asn":174}"#,
        ),
        (control_line(Some(1), "health"), r#"{"id":1,"op":"health"}"#),
        (control_line(None, "shutdown"), r#"{"op":"shutdown"}"#),
    ];
    for (line, want) in &table {
        assert_eq!(line, want);
    }
    assert_eq!(
        parse_request(&table[0].0).unwrap(),
        Request::WhatIf {
            id: Some(9),
            prefix: prefix(),
            deltas: deltas.to_vec(),
            budget: Some(500),
        }
    );
    assert_eq!(
        parse_request(&table[3].0).unwrap(),
        Request::Hijack {
            id: None,
            prefix: prefix(),
            attacker: Asn(65000),
            forged_origin: None,
            poison: Vec::new(),
            stealth: false,
            budget: None,
        }
    );
    assert_eq!(
        parse_request(&table[4].0).unwrap(),
        Request::Route {
            id: Some(5),
            prefix: prefix(),
            asn: Asn(174),
        }
    );
    for (op, want) in [
        ("health", Request::Health { id: Some(2) }),
        ("stats", Request::Stats { id: Some(2) }),
        ("audit", Request::Audit { id: Some(2) }),
        ("save", Request::Save { id: Some(2) }),
        ("shutdown", Request::Shutdown { id: Some(2) }),
    ] {
        assert_eq!(parse_request(&control_line(Some(2), op)).unwrap(), want);
    }
    // `budget: null` is an absent budget on both query ops.
    let line = r#"{"op":"whatif","prefix":"10.0.0.0/24","deltas":[],"budget":null}"#;
    assert!(matches!(
        parse_request(line).unwrap(),
        Request::WhatIf { budget: None, .. }
    ));
    let line = r#"{"op":"hijack","prefix":"10.0.0.0/24","attacker":1,"budget":null}"#;
    assert!(matches!(
        parse_request(line).unwrap(),
        Request::Hijack { budget: None, .. }
    ));
}

fn learned_route(via: u32, path: &[u32], local_pref: i32, age: u64) -> Route {
    let mut p = AsPath::origin(Asn(*path.last().unwrap()));
    for &a in path[..path.len() - 1].iter().rev() {
        p = p.prepend(Asn(a));
    }
    let mut r = Route::originate(prefix(), p, Timestamp(age));
    r.learned_from = Some(Asn(via));
    r.local_pref = local_pref;
    r
}

fn answer(certificate: Option<CertificateDelta>) -> WhatIfAnswer {
    WhatIfAnswer {
        prefix: prefix(),
        diffs: vec![
            RouteDiff {
                asn: Asn(100),
                before: Some(learned_route(200, &[200, 300], 200, 0)),
                after: None,
            },
            RouteDiff {
                asn: Asn(300),
                before: None,
                after: Some(Route::originate(
                    prefix(),
                    AsPath::poisoned(Asn(300), &[Asn(7)]),
                    Timestamp(60),
                )),
            },
        ],
        stats: stats(),
        certificate,
    }
}

fn stats() -> DeltaStats {
    DeltaStats {
        deltas_applied: 1,
        ases_seeded: 2,
        activations: 30,
        imports: 40,
        rounds: 5,
        routes_retained: 60,
        routes_changed: 2,
        converged: true,
        deadline_aborted: false,
    }
}

const STATS: &str = r#"{"deltas_applied":1,"ases_seeded":2,"activations":30,"rounds":5,"routes_retained":60,"routes_changed":2,"converged":true,"deadline_aborted":false}"#;

#[test]
fn response_encoders_have_golden_lines() {
    let diffs = format!(
        "[{},{}]",
        r#"{"asn":100,"before":{"via":200,"path":[200,300],"local_pref":200,"age":0},"after":null}"#,
        format_args!(
            r#"{{"asn":300,"before":null,"after":{{"via":null,"path":[300,7,300],"local_pref":{},"age":60}}}}"#,
            i32::MAX
        ),
    );
    let revoked = CertificateDelta::Revoked {
        rule: "GR-PREF".into(),
        witness: "w".into(),
    };
    let serve_stats = ServeStats {
        received: 1,
        served: 2,
        shed: 3,
        degraded: 4,
        deadline_aborts: 5,
        quarantine_refusals: 6,
        errors: 7,
        disconnects: 8,
        autosaves: 9,
        breaker_trips: 10,
        queue_high_water: 11,
        certificates_preserved: 12,
        certificates_revoked: 13,
        ops: std::array::from_fn(|i| OpLatency {
            count: i as u64,
            total_ms: 10 * i as u64,
            max_ms: 100 * i as u64,
        }),
    };
    let table = [
        (
            ok_response(Some(2), &answer(None)),
            format!(r#"{{"id":2,"status":"ok","prefix":"10.0.0.0/24","diffs":{diffs},"stats":{STATS}}}"#),
        ),
        (
            ok_response(None, &answer(Some(CertificateDelta::Preserved))),
            format!(r#"{{"status":"ok","prefix":"10.0.0.0/24","diffs":{diffs},"stats":{STATS},"certificate":"preserved"}}"#),
        ),
        (
            degraded_response(Some(4), prefix(), &["deadline"], Some(&stats()), Some(&revoked)),
            format!(r#"{{"id":4,"status":"degraded","degraded":["deadline"],"prefix":"10.0.0.0/24","diffs":[],"stats":{STATS},"certificate":"revoked:GR-PREF"}}"#),
        ),
        (
            degraded_response(None, prefix(), &["quarantine"], None, None),
            r#"{"status":"degraded","degraded":["quarantine"],"prefix":"10.0.0.0/24","diffs":[]}"#.to_string(),
        ),
        (
            degraded_response(None, prefix(), &["deadline"], None, Some(&CertificateDelta::Unknown)),
            r#"{"status":"degraded","degraded":["deadline"],"prefix":"10.0.0.0/24","diffs":[],"certificate":"unknown"}"#.to_string(),
        ),
        (
            audit_response(Some(6), false, 2, 3, &["IR-A002 x".to_string(), "y".to_string()]),
            r#"{"id":6,"status":"ok","certified":false,"errors":2,"warnings":3,"blockers":["IR-A002 x","y"]}"#.to_string(),
        ),
        (
            audit_response(None, true, 0, 0, &[]),
            r#"{"status":"ok","certified":true,"errors":0,"warnings":0,"blockers":[]}"#.to_string(),
        ),
        (
            shed_response(Some(5), 40),
            r#"{"id":5,"status":"shed","retry_after_ms":40}"#.to_string(),
        ),
        (
            error_response(None, "a \"quoted\"\nmessage"),
            r#"{"status":"error","error":"a \"quoted\"\nmessage"}"#.to_string(),
        ),
        (
            query_error_response(Some(3), &QueryError::UnknownPrefix(prefix())),
            r#"{"id":3,"status":"error","error":"prefix 10.0.0.0/24 is not resident"}"#.to_string(),
        ),
        (
            query_error_response(None, &QueryError::UnknownAsn(Asn(9))),
            r#"{"status":"error","error":"delta references unknown AS AS9"}"#.to_string(),
        ),
        (
            query_error_response(
                Some(7),
                &QueryError::TooManyDeltas {
                    got: 300,
                    max: MAX_DELTAS_PER_QUERY,
                },
            ),
            r#"{"id":7,"status":"error","error":"query carries 300 deltas; at most 256 are allowed"}"#.to_string(),
        ),
        (
            stats_response(
                Some(6),
                &serve_stats,
                64,
                ShapeWaits {
                    queries: 14,
                    total_us: 15,
                },
            ),
            concat!(
                r#"{"id":6,"status":"ok","received":1,"served":2,"shed":3,"degraded":4,"#,
                r#""deadline_aborts":5,"quarantine_refusals":6,"errors":7,"disconnects":8,"#,
                r#""autosaves":9,"breaker_trips":10,"queue_high_water":11,"queue_cap":64,"#,
                r#""certificates_preserved":12,"certificates_revoked":13,"#,
                r#""shape_waits":14,"shape_wait_us":15,"ops":{"#,
                r#""whatif":{"count":0,"total_ms":0,"max_ms":0},"#,
                r#""hijack":{"count":1,"total_ms":10,"max_ms":100},"#,
                r#""route":{"count":2,"total_ms":20,"max_ms":200},"#,
                r#""health":{"count":3,"total_ms":30,"max_ms":300},"#,
                r#""stats":{"count":4,"total_ms":40,"max_ms":400},"#,
                r#""audit":{"count":5,"total_ms":50,"max_ms":500},"#,
                r#""save":{"count":6,"total_ms":60,"max_ms":600},"#,
                r#""shutdown":{"count":7,"total_ms":70,"max_ms":700}}}"#,
            )
            .to_string(),
        ),
    ];
    for (line, want) in &table {
        assert_eq!(line, want);
    }
}

/// The replies the serving loop assembles for `route`, `health`, `save` and
/// `shutdown`, byte for byte off a live socket (tiny world, seed 7).
#[test]
fn served_control_replies_have_golden_lines() {
    let world = GeneratorConfig::tiny().build(7);
    let prefixes: Vec<Prefix> = world
        .graph
        .nodes()
        .iter()
        .filter_map(|n| n.prefixes.first().copied())
        .take(8)
        .collect();
    let universe = RoutingUniverse::compute(&world, &prefixes);
    let engine = WhatIfEngine::from_universe(&world, &universe, ActivationOrder::default())
        .expect("tiny universe hydrates");
    let origin = universe.origin(prefixes[0]).unwrap();
    let dir = std::env::temp_dir().join(format!("ir-wire-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let server = Server::new(ServeConfig {
        snapshot_path: Some(dir.join("universe.snap")),
        ..ServeConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().unwrap();
    let p = prefixes[0];
    let mut replies = Vec::new();
    std::thread::scope(|s| {
        let (server, engine, universe) = (&server, &engine, &universe);
        s.spawn(move || server.run(engine, Some(universe), listener).unwrap());
        let mut c = Client::connect(addr).unwrap();
        for line in [
            control_line(Some(1), "health"),
            route_line(Some(2), p, origin),
            route_line(Some(3), p, Asn(4_000_000_000)),
            route_line(Some(4), "203.0.113.0/24".parse().unwrap(), origin),
            control_line(Some(5), "save"),
            control_line(None, "shutdown"),
        ] {
            replies.push(c.request(&line).unwrap().unwrap());
        }
    });
    // Judged after the drain: a failed assertion inside the scope would
    // leave the server thread running and hang the test instead.
    let route = format!(
        r#"{{"id":2,"status":"ok","prefix":"{p}","route":{{"via":null,"path":[{}],"local_pref":{},"age":0}}}}"#,
        origin.value(),
        i32::MAX
    );
    assert_eq!(
        replies,
        [
            r#"{"id":1,"status":"ok","state":"running","prefixes":8,"shapes":8}"#,
            route.as_str(),
            r#"{"id":3,"status":"error","error":"unknown AS AS4000000000"}"#,
            r#"{"id":4,"status":"error","error":"prefix 203.0.113.0/24 is not resident"}"#,
            r#"{"id":5,"status":"ok","saved":true}"#,
            r#"{"status":"ok","state":"draining"}"#,
        ]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn asn() -> impl Strategy<Value = Asn> {
    any::<u32>().prop_map(Asn)
}

fn asns() -> impl Strategy<Value = Vec<Asn>> {
    proptest::collection::vec(asn(), 0..4)
}

fn asn_set() -> impl Strategy<Value = Option<BTreeSet<Asn>>> {
    proptest::option::of(asns().prop_map(|v| v.into_iter().collect()))
}

fn wire_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(base, len)| Prefix::new(Ipv4(base), len))
}

/// One arbitrary delta of the kind selected by `kind % 10`.
fn delta_of(
    kind: u8,
    (a, b): (Asn, Asn),
    (pref, count): (Option<i16>, Option<u8>),
    (flag, prefix): (bool, Prefix),
    (set, list, forged): (Option<BTreeSet<Asn>>, Vec<Asn>, Option<Asn>),
) -> Delta {
    match kind % 10 {
        0 => Delta::LinkDown { a, b },
        1 => Delta::LinkUp { a, b },
        2 => Delta::NeighborPref {
            of: a,
            neighbor: b,
            delta: pref,
        },
        3 => Delta::ExportPrepend {
            of: a,
            neighbor: b,
            count,
        },
        4 => Delta::PartialTransit {
            of: a,
            neighbor: b,
            customer_routes_only: flag,
        },
        5 => Delta::SelectiveAnnounce {
            of: a,
            prefix,
            allowed: set,
        },
        6 => Delta::PoisonFilter {
            of: a,
            enabled: flag,
        },
        7 => Delta::Announce(Announcement {
            origin: a,
            prefix,
            via: set,
            poison: list,
        }),
        8 => Delta::Hijack {
            attacker: a,
            forged_origin: forged,
            poison: list,
            stealth: flag,
        },
        _ => Delta::Withdraw,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]
    /// `delta_from_value ∘ delta_to_value` is the identity on all ten
    /// kinds, through the rendered line as well as the value tree.
    #[test]
    fn deltas_round_trip_through_the_wire(
        kind in any::<u8>(),
        ends in (asn(), asn()),
        numbers in (proptest::option::of(any::<i16>()), proptest::option::of(any::<u8>())),
        scalars in (any::<bool>(), wire_prefix()),
        lists in (asn_set(), asns(), proptest::option::of(asn())),
    ) {
        let d = delta_of(kind, ends, numbers, scalars, lists);
        let v = delta_to_value(&d);
        prop_assert_eq!(delta_from_value(&v), Ok(d.clone()));
        let line = serde_json::to_string(&v).unwrap();
        let reparsed: Value = serde_json::from_str(&line).unwrap();
        prop_assert_eq!(delta_from_value(&reparsed), Ok(d));
    }
}

/// Every rejection names the offending field, and carries the request's
/// `id` whenever the line was a JSON object with a numeric one.
#[test]
fn rejections_have_golden_messages_and_keep_the_id() {
    let whatif = |delta: &str| {
        format!(r#"{{"op":"whatif","id":7,"prefix":"10.0.0.0/24","deltas":[{delta}]}}"#)
    };
    let table: Vec<(String, Option<u64>, &str)> = vec![
        (
            "".into(),
            None,
            "malformed JSON: deserialization error: unexpected input at byte 0",
        ),
        ("42".into(), None, "request must be a JSON object"),
        (r#"{"id":1}"#.into(), Some(1), "field `op` is required"),
        (
            r#"{"id":1,"op":5}"#.into(),
            Some(1),
            "field `op`: expected string",
        ),
        (
            r#"{"id":"x","op":"nope"}"#.into(),
            None,
            "unknown op `nope`",
        ),
        (
            r#"{"op":"whatif","id":7}"#.into(),
            Some(7),
            "field `prefix` is required",
        ),
        (
            r#"{"op":"whatif","id":7,"prefix":7,"deltas":[]}"#.into(),
            Some(7),
            "field `prefix`: expected string",
        ),
        (
            r#"{"op":"whatif","id":7,"prefix":"x","deltas":[]}"#.into(),
            Some(7),
            "field `prefix` is not a prefix (want `a.b.c.d/len`)",
        ),
        (
            r#"{"op":"whatif","id":7,"prefix":"10.0.0.0/24"}"#.into(),
            Some(7),
            "field `deltas` must be an array",
        ),
        (
            r#"{"op":"whatif","id":7,"prefix":"10.0.0.0/24","deltas":[],"budget":-1}"#.into(),
            Some(7),
            "field `budget`: expected u64",
        ),
        (whatif("{}"), Some(7), "field `kind` is required"),
        (
            whatif(r#"{"kind":"warp"}"#),
            Some(7),
            "unknown delta kind `warp`",
        ),
        (
            whatif(r#"{"kind":"link_down","a":1}"#),
            Some(7),
            "field `b` is required",
        ),
        (
            whatif(r#"{"kind":"link_up","a":"one","b":2}"#),
            Some(7),
            "field `a`: expected u32",
        ),
        (
            whatif(r#"{"kind":"link_up","a":4294967296,"b":2}"#),
            Some(7),
            "field `a`: integer out of range",
        ),
        (
            whatif(r#"{"kind":"neighbor_pref","of":1,"neighbor":2,"delta":40000}"#),
            Some(7),
            "field `delta`: integer out of range",
        ),
        (
            whatif(r#"{"kind":"export_prepend","of":1,"neighbor":2,"count":"3"}"#),
            Some(7),
            "field `count`: expected u8",
        ),
        (
            whatif(r#"{"kind":"partial_transit","of":1,"neighbor":2}"#),
            Some(7),
            "field `customer_routes_only` is required",
        ),
        (
            whatif(r#"{"kind":"poison_filter","of":1,"enabled":1}"#),
            Some(7),
            "field `enabled`: expected bool",
        ),
        (
            whatif(r#"{"kind":"selective_announce","of":1,"prefix":"10.0.0.0/24","allowed":5}"#),
            Some(7),
            "field `allowed`: expected array",
        ),
        (
            whatif(r#"{"kind":"announce","origin":1,"prefix":"10.0.0.0/24","poison":["x"]}"#),
            Some(7),
            "field `poison`: expected u32",
        ),
        (
            r#"{"op":"hijack","id":8,"prefix":"10.0.0.0/24"}"#.into(),
            Some(8),
            "field `attacker` is required",
        ),
        (
            r#"{"op":"hijack","id":8,"prefix":"10.0.0.0/24","attacker":1,"stealth":"yes"}"#.into(),
            Some(8),
            "field `stealth`: expected bool",
        ),
        (
            r#"{"op":"route","id":9,"prefix":"10.0.0.0/24"}"#.into(),
            Some(9),
            "field `asn` is required",
        ),
    ];
    for (line, id, message) in table {
        let err = parse_request(&line).expect_err(&line);
        assert_eq!(
            (err.id, err.message.as_str()),
            (id, message),
            "line: {line}"
        );
    }
}
