//! `serve_mixed`: the shipped `Server::run` on a loopback socket, driven
//! through the shipped `ir_serve::Client` — the only workload with the
//! client helpers, the protocol, admission, the worker pool and the
//! socket in the path. Small replies (what-if on an edge link, route
//! lookups) sit beside ≈ 1 MB hijack replies, reads beside forks.
//!
//! Closed loop, two connections: each sends its next request when the
//! previous reply has been parsed. The benchmark sets no socket options of
//! its own; whatever the shipped client and server do to the socket is
//! part of what is measured.

use crate::serving::{put_setup_layers, timed_setups, Base, SETUP_REPEATS};
use crate::stats::{median, Latencies};
use crate::stream::{Body, Class, Mix, Request, Stream};
use crate::trace::Tracer;
use crate::{Outcome, Run, CLIENT_THREADS, WARMUP_SECONDS};
use ir_bgp::{StepBudget, WhatIfEngine};
use ir_serve::{control_line, parse_request, AdmissionQueue, Client, ServeConfig, Server};
use serde_json::Value;
use std::hint::black_box;
use std::net::{SocketAddr, TcpListener};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Every tenth reply is re-answered by the library afterwards and its
/// `diffs` count compared, up to this many per connection.
const VERIFY_EVERY: usize = 10;
const VERIFY_PER_CLIENT: usize = 24;

/// One timed request of the measured window.
struct Served {
    request: Request,
    latency_us: f64,
    ok: bool,
    /// Length of the reply's `diffs` array (`None` for lookups).
    diffs: Option<usize>,
}

struct ClientResult {
    served: Vec<Served>,
    elapsed_s: f64,
    /// The connection answered a final probe in order: no reply was lost,
    /// duplicated or left queued.
    in_step: bool,
    tracer: Tracer,
}

/// Sends one request and parses its reply. A reply that is missing, has
/// another `id`, or any status but `ok` is a failure.
fn exchange(client: &mut Client, request: &Request, t: &mut Tracer) -> (bool, Option<usize>) {
    let line = t.scope("serve.client.encode", request.id, |_| request.line());
    let reply = t.scope("serve.client.roundtrip", request.id, |_| {
        client.request(&line)
    });
    let Ok(Some(reply)) = reply else {
        return (false, None);
    };
    let parsed = t.scope("serve.client.parse", request.id, |_| {
        serde_json::from_str::<Value>(&reply)
    });
    let Ok(reply) = parsed else {
        return (false, None);
    };
    let ok = reply["id"].as_u64() == Some(request.id) && reply["status"].as_str() == Some("ok");
    (ok, reply["diffs"].as_array().map(Vec::len))
}

fn client_loop(
    addr: SocketAddr,
    mut stream: Stream<'_>,
    start: &Barrier,
    seconds: f64,
    mut t: Tracer,
) -> std::io::Result<ClientResult> {
    let mut client = Client::connect(addr)?;
    start.wait();
    let mut quiet = Tracer::new(false, Instant::now());
    let warm_until = Instant::now() + Duration::from_secs_f64(WARMUP_SECONDS);
    while Instant::now() < warm_until {
        let request = stream.next().expect("streams are endless");
        black_box(exchange(&mut client, &request, &mut quiet));
    }
    let mut served = Vec::new();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let elapsed_s = loop {
        let request = stream.next().expect("streams are endless");
        let root = t.begin("serve.request", request.id);
        let sent = Instant::now();
        let (ok, diffs) = exchange(&mut client, &request, &mut t);
        let done = Instant::now();
        t.end(root);
        served.push(Served {
            request,
            latency_us: (done - sent).as_secs_f64() * 1e6,
            ok,
            diffs,
        });
        if done >= deadline {
            break (done - t0).as_secs_f64();
        }
    };
    let probe_id = u64::MAX;
    let probe = client.request(&control_line(Some(probe_id), "health"))?;
    let in_step = probe
        .and_then(|line| serde_json::from_str::<Value>(&line).ok())
        .is_some_and(|v| v["id"].as_u64() == Some(probe_id));
    Ok(ClientResult {
        served,
        elapsed_s,
        in_step,
        tracer: t,
    })
}

fn is_whatif(class: Class) -> bool {
    matches!(class, Class::EdgeEdit | Class::CoreLink)
}

fn class_latencies(results: &[ClientResult], keep: impl Fn(Class) -> bool) -> Latencies {
    Latencies::new(
        results
            .iter()
            .flat_map(|r| &r.served)
            .filter(|s| keep(s.request.class))
            .map(|s| s.latency_us)
            .collect(),
    )
}

/// Fetches the server's own counters through the `stats` op.
fn server_stats(addr: SocketAddr) -> Result<Value, String> {
    let mut control = Client::connect(addr).map_err(|e| e.to_string())?;
    let line = control
        .request(&control_line(Some(1), "stats"))
        .map_err(|e| e.to_string())?
        .ok_or("server closed the control connection")?;
    serde_json::from_str(&line).map_err(|e| format!("stats reply does not parse: {e}"))
}

/// Replays the served requests in-process, one layer per span, and
/// returns the summed in-process median per op: parse + answer + encode.
fn replay(
    engine: &WhatIfEngine<'_>,
    base: &Base,
    served: &[&Served],
    t: &mut Tracer,
    out: &mut Outcome,
) -> [f64; 3] {
    let budget = StepBudget::activations(ServeConfig::default().default_budget);
    for s in served {
        let id = s.request.id;
        let line = s.request.line();
        let root = t.begin("replay.request", id);
        let parsed = t.scope("serve.protocol.parse", id, |_| parse_request(&line));
        out.check(parsed.is_ok_and(|p| p.id() == Some(id)), || {
            format!("request line does not parse back: {line}")
        });
        match (&s.request.body, s.request.query()) {
            (Body::Route { asn }, _) => {
                let x = base.world.graph.index_of(*asn).expect("stream ASNs exist");
                black_box(t.scope("bgp.universe.route", id, |_| {
                    base.universe.route(s.request.prefix, x)
                }));
            }
            (body, Some(query)) => {
                let (answer_span, encode_span) = match body {
                    Body::Hijack { .. } => ("replay.hijack", "serve.protocol.encode_hijack"),
                    _ => ("replay.whatif", "serve.protocol.encode_whatif"),
                };
                let answer = t.scope(answer_span, id, |_| engine.query_budgeted(&query, &budget));
                if let Ok(answer) = answer {
                    let reply = t.scope(encode_span, id, |_| {
                        ir_serve::protocol::ok_response(Some(id), &answer)
                    });
                    black_box(reply.len());
                }
            }
            (_, None) => unreachable!("only lookups have no query"),
        }
        t.end(root);
    }
    let p50 = |name: &str| median(&t.durations_us(name));
    let parse = p50("serve.protocol.parse");
    [
        parse + p50("replay.whatif") + p50("serve.protocol.encode_whatif"),
        parse + p50("replay.hijack") + p50("serve.protocol.encode_hijack"),
        parse + p50("bgp.universe.route"),
    ]
}

/// Cost of one uncontended `try_push` + `pop` pair, ns.
fn admission_push_pop_ns() -> f64 {
    const PAIRS: u64 = 200_000;
    let queue = AdmissionQueue::new(ServeConfig::default().queue_cap);
    let t0 = Instant::now();
    for i in 0..PAIRS {
        black_box(queue.try_push(i).is_ok());
        black_box(queue.pop());
    }
    t0.elapsed().as_nanos() as f64 / PAIRS as f64
}

pub fn run(run: &Run, t: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    out.param("world_ases", crate::serving::WORLD_ASES);
    out.param("resident_prefixes", crate::serving::RESIDENT_PREFIXES);
    out.param("warmup_s", WARMUP_SECONDS);
    out.param("connections", CLIENT_THREADS);
    let config = ServeConfig::default();
    out.param("workers", config.workers);
    out.param("queue_cap", config.queue_cap);

    let repeats = if run.traced { 1 } else { SETUP_REPEATS };
    let (base, setup_s) = timed_setups(run.seed, repeats, t)?;
    let engine = base.engine(&mut Tracer::new(false, Instant::now()))?;
    let t0 = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    out.put_n("setup_s", setup_s + t0.elapsed().as_secs_f64(), repeats);

    let server = Server::new(config);
    let start = Barrier::new(CLIENT_THREADS);
    let (results, stats) = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&engine, Some(&base.universe), listener));
        let clients: Vec<_> = (0..CLIENT_THREADS)
            .map(|thread| {
                let stream = Stream::new(
                    &base.world,
                    &base.prefixes,
                    Mix::Serve,
                    run.seed,
                    thread,
                    CLIENT_THREADS,
                );
                let (start, tracer) = (&start, t.sibling());
                scope.spawn(move || client_loop(addr, stream, start, run.seconds, tracer))
            })
            .collect();
        let results: Vec<_> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let stats = server_stats(addr);
        // Drain even when a client failed, or the scope never ends.
        server.initiate_drain();
        let served = serving.join().expect("server thread panicked");
        (results, served.map_err(|e| e.to_string()).and(stats))
    });
    let stats = stats?;
    let mut results = results
        .into_iter()
        .collect::<std::io::Result<Vec<ClientResult>>>()
        .map_err(|e| format!("client connection failed: {e}"))?;
    for r in &mut results {
        t.absorb(std::mem::replace(
            &mut r.tracer,
            Tracer::new(false, Instant::now()),
        ));
    }

    let attempted: usize = results.iter().map(|r| r.served.len()).sum();
    let failed = results
        .iter()
        .flat_map(|r| &r.served)
        .filter(|s| !s.ok)
        .count();
    out.operations(attempted as u64, failed as u64);
    for r in &results {
        out.check(r.in_step, || {
            "a connection's replies fell out of step with its requests".into()
        });
    }
    // A sample of replies carries as many diffs as the library's answer.
    for r in &results {
        let sample = r
            .served
            .iter()
            .step_by(VERIFY_EVERY)
            .filter(|s| s.ok && s.diffs.is_some())
            .take(VERIFY_PER_CLIENT);
        for s in sample {
            let query = s
                .request
                .query()
                .expect("replies with diffs answer queries");
            let expected = engine.query(&query).map(|a| a.diffs.len()).ok();
            out.check(s.diffs == expected, || {
                format!(
                    "reply carries {:?} diffs, the library answers {expected:?}: {:?}",
                    s.diffs, s.request
                )
            });
        }
    }

    let all = class_latencies(&results, |_| true);
    let whatif = class_latencies(&results, is_whatif);
    let hijack = class_latencies(&results, |c| c == Class::Hijack);
    let route = class_latencies(&results, |c| c == Class::Route);
    if !run.traced {
        let qps: f64 = results
            .iter()
            .map(|r| r.served.iter().filter(|s| s.ok).count() as f64 / r.elapsed_s)
            .sum();
        out.put_n("qps", qps, attempted);
        out.put_n("p50_us", all.at(50.0), all.n());
        out.put_n("p95_us", all.at(95.0), all.n());
        for (name, class, p) in [
            ("whatif_p50_us", &whatif, 50.0),
            ("whatif_p95_us", &whatif, 95.0),
            ("hijack_p50_us", &hijack, 50.0),
            ("route_p50_us", &route, 50.0),
        ] {
            // Only a percentile with ten samples beyond it is printed.
            if let Some(value) = class.resolved(p) {
                out.put_n(name, value, class.n());
            }
        }
        return Ok(());
    }

    put_setup_layers(&base, t, out);
    let encode_us = t.durations_us("serve.client.encode");
    out.put_n(
        "serve.client.encode_us",
        median(&encode_us),
        encode_us.len(),
    );
    out.put_n("serve.client.whatif_p50_us", whatif.at(50.0), whatif.n());
    out.put_n("serve.client.hijack_p50_us", hijack.at(50.0), hijack.n());
    out.put_n("serve.client.route_p50_us", route.at(50.0), route.n());

    let served: Vec<&Served> = results.iter().flat_map(|r| &r.served).collect();
    let inside = replay(&engine, &base, &served, t, out);
    let p50 = |name: &str| median(&t.durations_us(name));
    out.put("serve.protocol.parse_us", p50("serve.protocol.parse"));
    out.put(
        "serve.protocol.encode_whatif_us",
        p50("serve.protocol.encode_whatif"),
    );
    out.put(
        "serve.protocol.encode_hijack_us",
        p50("serve.protocol.encode_hijack"),
    );
    out.put("bgp.universe.route_us", p50("bgp.universe.route"));
    out.put(
        "serve.server.overhead_whatif_us",
        whatif.at(50.0) - inside[0],
    );
    out.put(
        "serve.server.overhead_hijack_us",
        hijack.at(50.0) - inside[1],
    );
    out.put("serve.server.overhead_route_us", route.at(50.0) - inside[2]);
    for (name, keep) in [
        (
            "serve.protocol.response_bytes_whatif",
            is_whatif as fn(Class) -> bool,
        ),
        ("serve.protocol.response_bytes_hijack", |c| {
            c == Class::Hijack
        }),
    ] {
        let sizes: Vec<f64> = served
            .iter()
            .filter(|s| keep(s.request.class))
            .filter_map(|s| s.request.query())
            .filter_map(|q| engine.query(&q).ok())
            .take(VERIFY_PER_CLIENT)
            .map(|a| ir_serve::protocol::ok_response(Some(1), &a).len() as f64 + 1.0)
            .collect();
        out.put_n(name, median(&sizes), sizes.len());
    }

    // The server's own clock, admission to answer, per op.
    for (metric, op) in [
        ("serve.server.inside_whatif_us", "whatif"),
        ("serve.server.inside_hijack_us", "hijack"),
    ] {
        let op = &stats["ops"][op];
        let count = op["count"].as_f64().unwrap_or(0.0).max(1.0);
        out.put(metric, op["total_ms"].as_f64().unwrap_or(0.0) * 1e3 / count);
    }
    for (metric, key) in [
        ("serve.admission.queue_high_water", "queue_high_water"),
        ("serve.admission.shed", "shed"),
        ("serve.server.degraded", "degraded"),
        ("serve.server.errors", "errors"),
        (
            "serve.server.certificates_preserved",
            "certificates_preserved",
        ),
        ("serve.server.certificates_revoked", "certificates_revoked"),
    ] {
        out.put(metric, stats[key].as_f64().unwrap_or(0.0));
    }
    out.put("serve.admission.push_pop_ns", admission_push_pop_ns());
    Ok(())
}
