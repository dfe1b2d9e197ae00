//! In-process serving-loop integration: every request class gets exactly
//! one response — ok, degraded, shed, or error — and a `shutdown` request
//! drains cleanly with all threads joined.

use ir_bgp::{ActivationOrder, Delta, RoutingUniverse, WhatIfEngine};
use ir_fault::{RetryPolicy, ServiceClock};
use ir_serve::{control_line, route_line, whatif_line, Client, ServeConfig, Server};
use ir_topology::{GeneratorConfig, World};
use ir_types::Prefix;
use serde_json::Value;
use std::net::TcpListener;

fn status_of(line: &str) -> String {
    let v: Value = serde_json::from_str(line).unwrap_or(Value::Null);
    v.get("status")
        .and_then(Value::as_str)
        .unwrap_or("<none>")
        .to_string()
}

fn tiny_fixture() -> (World, Vec<Prefix>) {
    let world = GeneratorConfig::tiny().build(7);
    let prefixes: Vec<Prefix> = world
        .graph
        .nodes()
        .iter()
        .filter_map(|n| n.prefixes.first().copied())
        .take(8)
        .collect();
    (world, prefixes)
}

/// Runs `body` against a live server, then drains and returns the final
/// counters.
fn with_server<F>(cfg: ServeConfig, body: F) -> ir_serve::ServeStats
where
    F: FnOnce(&Server, std::net::SocketAddr) + Send,
{
    let (world, prefixes) = tiny_fixture();
    let universe = RoutingUniverse::compute(&world, &prefixes);
    let engine = WhatIfEngine::from_universe(&world, &universe, ActivationOrder::default())
        .expect("tiny universe hydrates");
    let server = Server::new(cfg);
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().expect("local addr");
    std::thread::scope(|s| {
        let server = &server;
        s.spawn(move || {
            server
                .run(&engine, Some(&universe), listener)
                .expect("serve loop");
        });
        body(server, addr);
        if !server.is_draining() {
            let mut c = Client::connect(addr).expect("drain client");
            let _ = c.request(&control_line(None, "shutdown"));
        }
    });
    server.stats()
}

#[test]
fn every_request_class_gets_one_response() {
    let (world, prefixes) = tiny_fixture();
    let resident = prefixes[0];
    let a = world.graph.nodes()[0].asn;
    let b = world.graph.nodes()[1].asn;
    let stats = with_server(ServeConfig::default(), |_, addr| {
        let mut c = Client::connect(addr).expect("connect");
        // Health and stats bypass admission.
        let health = c
            .request(&control_line(Some(1), "health"))
            .unwrap()
            .unwrap();
        assert_eq!(status_of(&health), "ok");
        assert!(health.contains("\"state\":\"running\""));
        // A normal query answers ok with diffs + stats.
        let ok = c
            .request(&whatif_line(
                Some(2),
                resident,
                &[Delta::LinkDown { a, b }],
                None,
            ))
            .unwrap()
            .unwrap();
        assert_eq!(status_of(&ok), "ok", "got: {ok}");
        let v: Value = serde_json::from_str(&ok).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(2));
        assert!(v.get("diffs").and_then(Value::as_array).is_some());
        assert!(v.get("stats").is_some());
        // Malformed JSON → structured error, connection stays usable.
        let err = c.request("this is not json").unwrap().unwrap();
        assert_eq!(status_of(&err), "error");
        // Unknown prefix → structured error.
        let err = c
            .request(&whatif_line(
                Some(3),
                "203.0.113.0/24".parse().unwrap(),
                &[Delta::Withdraw],
                None,
            ))
            .unwrap()
            .unwrap();
        assert_eq!(status_of(&err), "error");
        assert!(err.contains("not resident"), "got: {err}");
        // Budget 1 → degraded deadline answer, not a hang.
        let deg = c
            .request(&whatif_line(Some(4), resident, &[Delta::Withdraw], Some(1)))
            .unwrap()
            .unwrap();
        assert_eq!(status_of(&deg), "degraded", "got: {deg}");
        assert!(deg.contains("\"deadline\""), "got: {deg}");
        // Base route lookup.
        let route = c
            .request(&route_line(Some(5), resident, a))
            .unwrap()
            .unwrap();
        assert_eq!(status_of(&route), "ok");
        // Stats reflect the traffic so far.
        let st = c.request(&control_line(Some(6), "stats")).unwrap().unwrap();
        let v: Value = serde_json::from_str(&st).unwrap();
        assert!(v.get("served").and_then(Value::as_u64).unwrap() >= 2);
        assert!(v.get("degraded").and_then(Value::as_u64).unwrap() >= 1);
    });
    assert_eq!(stats.served, 2, "one whatif + one route");
    assert_eq!(stats.degraded, 1);
    assert_eq!(stats.deadline_aborts, 1);
    assert_eq!(stats.errors, 2);
    assert_eq!(stats.shed, 0);
}

#[test]
fn full_queue_sheds_with_retry_hint() {
    let cfg = ServeConfig {
        queue_cap: 4,
        workers: 1,
        ..ServeConfig::default()
    };
    let (_, prefixes) = tiny_fixture();
    let resident = prefixes[0];
    let stats = with_server(cfg, |server, addr| {
        server.pause_workers();
        let mut c = Client::connect(addr).expect("connect");
        // Pipeline 12 queries; with workers paused exactly 4 are admitted.
        for i in 0..12u64 {
            c.send_line(&whatif_line(Some(i), resident, &[Delta::Withdraw], None))
                .unwrap();
        }
        // With workers paused the first 4 sends fill the queue and the
        // next 8 shed inline — so the first 8 responses are all sheds.
        for i in 0..8 {
            let line = c.recv_line().unwrap().expect("shed response");
            assert_eq!(status_of(&line), "shed", "response {i}: {line}");
            let v: Value = serde_json::from_str(&line).unwrap();
            assert!(v.get("retry_after_ms").and_then(Value::as_u64).is_some());
        }
        server.resume_workers();
        // The 4 admitted queries still answer.
        for _ in 0..4 {
            let line = c.recv_line().unwrap().expect("admitted answer");
            assert_eq!(status_of(&line), "ok", "got: {line}");
        }
    });
    assert_eq!(stats.shed, 8);
    assert_eq!(stats.served, 4);
    assert_eq!(stats.queue_high_water, 4, "backlog bounded at cap");
}

#[test]
fn quarantine_opens_after_repeated_deadline_trips() {
    let cfg = ServeConfig {
        workers: 1,
        breaker: RetryPolicy {
            quarantine_after: 3,
            jitter: 0,
            ..RetryPolicy::default()
        },
        clock: ServiceClock::simulated(),
        ..ServeConfig::default()
    };
    let (_, prefixes) = tiny_fixture();
    let resident = prefixes[0];
    let stats = with_server(cfg, |_, addr| {
        let mut c = Client::connect(addr).expect("connect");
        // Three deadline trips open the breaker…
        for i in 0..3u64 {
            let line = c
                .request(&whatif_line(Some(i), resident, &[Delta::Withdraw], Some(1)))
                .unwrap()
                .unwrap();
            assert!(line.contains("\"deadline\""), "trip {i}: {line}");
        }
        // …after which the prefix answers degraded-quarantine immediately,
        // even for queries that would otherwise be fine.
        let line = c
            .request(&whatif_line(Some(9), resident, &[Delta::Withdraw], None))
            .unwrap()
            .unwrap();
        assert_eq!(status_of(&line), "degraded", "got: {line}");
        assert!(line.contains("\"quarantine\""), "got: {line}");
    });
    assert_eq!(stats.deadline_aborts, 3);
    assert_eq!(stats.quarantine_refusals, 1);
    assert_eq!(stats.degraded, 4);
    assert_eq!(stats.breaker_trips, 1);
}

#[test]
fn non_resident_prefixes_never_create_breaker_state() {
    // Regression: breaker entries were created before residency was
    // checked, so a client cycling arbitrary prefixes grew the map without
    // bound. Non-resident queries must error without leaving state behind.
    let stats = with_server(ServeConfig::default(), |server, addr| {
        let mut c = Client::connect(addr).expect("connect");
        for i in 0..32u64 {
            let prefix: Prefix = format!("203.0.{i}.0/24").parse().unwrap();
            let line = c
                .request(&whatif_line(Some(i), prefix, &[Delta::Withdraw], None))
                .unwrap()
                .unwrap();
            assert_eq!(status_of(&line), "error", "got: {line}");
        }
        assert_eq!(server.breaker_count(), 0, "breaker map grew");
    });
    assert_eq!(stats.errors, 32);
}

#[test]
fn finished_connections_leave_the_registry() {
    // Regression: every accepted connection used to stay registered
    // forever, leaking one cloned fd per client until EMFILE. The registry
    // must return to empty once clients disconnect.
    let stats = with_server(ServeConfig::default(), |server, addr| {
        for i in 0..16u64 {
            let mut c = Client::connect(addr).expect("connect");
            let line = c
                .request(&control_line(Some(i), "health"))
                .unwrap()
                .unwrap();
            assert_eq!(status_of(&line), "ok");
            drop(c);
        }
        // Readers observe the EOF asynchronously; poll briefly.
        let mut waited = 0;
        while server.open_connections() > 0 && waited < 5_000 {
            std::thread::sleep(std::time::Duration::from_millis(10));
            waited += 10;
        }
        assert_eq!(
            server.open_connections(),
            0,
            "finished connections still registered"
        );
    });
    assert_eq!(stats.received, 0, "health bypasses admission");
}

#[test]
fn concurrent_saves_always_publish_a_loadable_snapshot() {
    // Regression: unserialized saves staged to the same `<file>.tmp` and
    // could interleave write/rename, publishing a torn image. Hammer the
    // save op from several clients at once; the published file must load
    // after every round.
    let dir = std::env::temp_dir().join(format!("ir-serve-racesave-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("u.iruniv");
    let cfg = ServeConfig {
        snapshot_path: Some(path.clone()),
        ..ServeConfig::default()
    };
    let stats = with_server(cfg, |_, addr| {
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    for i in 0..8u64 {
                        let line = c.request(&control_line(Some(i), "save")).unwrap().unwrap();
                        assert_eq!(status_of(&line), "ok", "save raced: {line}");
                    }
                });
            }
        });
        RoutingUniverse::recover_snapshot(&path).expect("snapshot loadable mid-hammer");
    });
    // 4 clients × 8 saves + the drain save, none lost to rename races.
    assert_eq!(stats.autosaves, 33);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn save_publishes_through_the_atomic_path() {
    let dir = std::env::temp_dir().join(format!("ir-serve-save-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("u.iruniv");
    let cfg = ServeConfig {
        snapshot_path: Some(path.clone()),
        ..ServeConfig::default()
    };
    let stats = with_server(cfg, |_, addr| {
        let mut c = Client::connect(addr).expect("connect");
        let line = c.request(&control_line(Some(1), "save")).unwrap().unwrap();
        assert_eq!(status_of(&line), "ok", "got: {line}");
    });
    // Explicit save + the drain save.
    assert_eq!(stats.autosaves, 2);
    let recovered = RoutingUniverse::recover_snapshot(&path).expect("published snapshot loads");
    let (world, prefixes) = tiny_fixture();
    let want = RoutingUniverse::compute(&world, &prefixes);
    assert_eq!(
        recovered.to_snapshot_bytes().unwrap(),
        want.to_snapshot_bytes().unwrap(),
        "published snapshot is byte-identical to the served universe"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A served reply must not wait out a delayed ACK: with Nagle on and the
/// line terminator in a write of its own, every request/response pair on
/// loopback took ≈ 40–90 ms for a microsecond lookup.
#[test]
fn sequential_requests_do_not_wait_out_delayed_acks() {
    let (world, prefixes) = tiny_fixture();
    let asn = world.graph.nodes()[0].asn;
    let mut round_trips = Vec::with_capacity(50);
    with_server(ServeConfig::default(), |_, addr| {
        let mut c = Client::connect(addr).expect("connect");
        for i in 0..50 {
            let line = route_line(Some(i), prefixes[0], asn);
            let sent = std::time::Instant::now();
            let reply = c.request(&line).unwrap().unwrap();
            round_trips.push(sent.elapsed());
            assert_eq!(status_of(&reply), "ok", "got: {reply}");
        }
    });
    // Judged after the drain: a failed assertion inside the scope would
    // leave the server thread running and hang the test instead.
    round_trips.sort_unstable();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(20),
        "median route round trip {median:?}"
    );
}

fn id_of(line: &str) -> Option<u64> {
    let v: Value = serde_json::from_str(line).unwrap_or(Value::Null);
    v.get("id").and_then(Value::as_u64)
}

/// A rejected line keeps its `id`, so a pipelining client can match the
/// `error` to the request that caused it.
#[test]
fn pipelined_rejections_keep_their_ids() {
    let (_, prefixes) = tiny_fixture();
    let mut replies = Vec::new();
    let stats = with_server(ServeConfig::default(), |_, addr| {
        let mut c = Client::connect(addr).expect("connect");
        let good = |id| whatif_line(Some(id), prefixes[0], &[Delta::Withdraw], None);
        c.send_line(&good(1)).unwrap();
        c.send_line(r#"{"op":"whatif","id":2,"prefix":"x","deltas":[]}"#)
            .unwrap();
        c.send_line(&good(3)).unwrap();
        for _ in 0..3 {
            replies.push(c.recv_line().unwrap().expect("one reply per request"));
        }
    });
    // Replies arrive in completion order; match them up by id.
    replies.sort_by_key(|r| id_of(r));
    let got: Vec<(Option<u64>, String)> =
        replies.iter().map(|r| (id_of(r), status_of(r))).collect();
    assert_eq!(
        got,
        [
            (Some(1), "ok".to_string()),
            (Some(2), "error".to_string()),
            (Some(3), "ok".to_string())
        ],
        "replies: {replies:?}"
    );
    assert!(replies[1].contains("field `prefix`"), "got: {}", replies[1]);
    assert_eq!((stats.served, stats.errors), (2, 1));
}

/// Hostile framing — bytes that are not UTF-8, a line far past the cap with
/// and without a newline in sight — is answered with an `error` each, and
/// the connection keeps serving.
#[test]
fn hostile_lines_get_errors_and_the_connection_survives() {
    use std::io::{BufRead, BufReader, Write};
    let mut replies = Vec::new();
    let stats = with_server(ServeConfig::default(), |_, addr| {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut ask = |bytes: &[u8]| {
            stream.write_all(bytes).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            replies.push(line.trim_end().to_string());
        };
        ask(b"{\"op\":\"health\",\"id\":\xff\xfe}\n");
        ask(b"{\"op\":\"health\",\"id\":1}\n");
        // 3 MiB of one "line": three cap-sized chunks to discard.
        let mut endless = vec![b'x'; 3 << 20];
        endless.push(b'\n');
        ask(&endless);
        ask(b"{\"op\":\"health\",\"id\":2}\n");
        // Exactly at the cap is still a (malformed) request, not an overrun.
        let mut at_cap = vec![b' '; 1 << 20];
        at_cap.push(b'\n');
        at_cap.extend_from_slice(b"{\"op\":\"health\",\"id\":3}\n");
        ask(&at_cap);
    });
    let got: Vec<(Option<u64>, String)> =
        replies.iter().map(|r| (id_of(r), status_of(r))).collect();
    assert_eq!(
        got,
        [
            (None, "error".to_string()),
            (Some(1), "ok".to_string()),
            (None, "error".to_string()),
            (Some(2), "ok".to_string()),
            (Some(3), "ok".to_string()),
        ],
        "replies: {replies:?}"
    );
    assert!(
        replies[0].contains("not valid UTF-8"),
        "got: {}",
        replies[0]
    );
    assert!(
        replies[2].contains("exceeds 1048576 bytes"),
        "got: {}",
        replies[2]
    );
    assert_eq!(stats.errors, 2);
    assert_eq!(stats.disconnects, 0);
}

/// A link edit between two known but non-adjacent ASes is rejected, not
/// reported as applied.
#[test]
fn link_edit_on_a_link_that_does_not_exist_is_an_error() {
    let (world, prefixes) = tiny_fixture();
    let a = world.graph.nodes()[0].asn;
    let b = (1..world.graph.len())
        .find(|&x| world.graph.link(0, x).is_none())
        .map(|x| world.graph.asn(x))
        .expect("some AS is not adjacent to the first");
    let mut reply = String::new();
    let stats = with_server(ServeConfig::default(), |_, addr| {
        let mut c = Client::connect(addr).expect("connect");
        let line = whatif_line(Some(1), prefixes[0], &[Delta::LinkDown { a, b }], None);
        reply = c.request(&line).unwrap().unwrap();
    });
    assert_eq!(
        reply,
        format!(r#"{{"id":1,"status":"error","error":"delta references unknown link {a}–{b}"}}"#)
    );
    assert_eq!((stats.served, stats.errors), (0, 1));
}
