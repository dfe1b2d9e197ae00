//! The supervised serving loop.
//!
//! One [`Server`] owns the robustness machinery around a resident
//! [`WhatIfEngine`]:
//!
//! * **Admission control** — query work goes through a bounded
//!   [`AdmissionQueue`]; a full queue sheds with `retry_after_ms` instead
//!   of queueing unboundedly (control ops — health, stats, audit, shutdown
//!   — bypass admission so the server stays observable under overload).
//! * **Deadlines** — every query runs under a [`StepBudget`] activation
//!   cap, and when a wall deadline is configured the budget also carries
//!   it on the server's [`ServiceClock`], which the sim reads between
//!   activations and aborts cooperatively mid-worklist. A query whose
//!   deadline passed while it was queued is answered without running.
//!   Any trip degrades the answer to the base routes with a
//!   `degraded: ["deadline"]` marker — the client always gets a response.
//! * **Circuit breakers** — per-prefix [`CircuitBreaker`]s (keyed off
//!   `ir-fault`'s deterministic quarantine schedule) open after repeated
//!   deadline trips, so a pathological prefix answers degraded immediately
//!   instead of burning a worker every time.
//! * **Graceful drain** — a `shutdown` request stops admission, lets the
//!   workers finish the accepted backlog, force-EOFs idle readers, and
//!   joins every thread before [`Server::run`] returns.
//!
//! The server writes no snapshot. Queries roll back, so the universe never
//! changes while it is served: the process that computed it publishes it
//! once, at startup (`ir-serve --snapshot`), and that image stays current.
//!
//! [`Server::run`] spawns only the worker pool and, per connection, one
//! reader and one writer thread.
//!
//! All counters are atomics and every scheduling decision that affects
//! them is deterministic given the request interleaving, which is what the
//! chaos soak's reproducibility assertion leans on.

use crate::admission::AdmissionQueue;
use crate::protocol::{
    audit_response, degraded_response, draining_response, error_response, health_response,
    ok_response, parse_request, query_error_response, route_response, shed_response,
    stats_response, ParseError, Request,
};
use ir_bgp::{CertificateDelta, Delta, RoutingUniverse, StepBudget, WhatIfEngine, WhatIfQuery};
use ir_fault::{key2, CircuitBreaker, RetryPolicy, ServiceClock};
use ir_types::Prefix;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Serving-loop tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission queue capacity; queries beyond it are shed.
    pub queue_cap: usize,
    /// Worker threads executing queries.
    pub workers: usize,
    /// Activation budget for queries that don't request one. A client may
    /// ask for up to ten times this.
    pub default_budget: u64,
    /// Wall deadline per query (admission to answer), milliseconds;
    /// `0` leaves only the activation budget.
    pub deadline_ms: u64,
    /// Quarantine schedule for the per-prefix circuit breakers.
    pub breaker: RetryPolicy,
    /// Clock the deadlines and breakers read. Production wants
    /// [`ServiceClock::wall`]; deterministic tests inject
    /// [`ServiceClock::simulated`].
    pub clock: ServiceClock,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_cap: 64,
            workers: 4,
            default_budget: 5_000_000,
            deadline_ms: 0,
            breaker: RetryPolicy::default(),
            clock: ServiceClock::wall(),
        }
    }
}

/// A client-requested activation budget is capped at this many times
/// [`ServeConfig::default_budget`].
const BUDGET_CAP_FACTOR: u64 = 10;

/// Retry hint attached to shed responses, milliseconds.
const RETRY_AFTER_MS: u64 = 25;

/// Longest request line the reader buffers; anything longer is answered
/// with an `error` and discarded up to its newline. Far above any real
/// request (a 1 000-delta what-if is ~60 kB) and small enough that a
/// connection cannot bloat the daemon.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Wire names of the tracked ops, in [`OpKind`] discriminant order.
pub(crate) const OP_NAMES: [&str; 7] = [
    "whatif", "hijack", "route", "health", "stats", "audit", "shutdown",
];

/// One tracked request op — the index into the per-op latency breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `whatif` queries (admitted, worker-executed).
    WhatIf = 0,
    /// `hijack` scenario queries (admitted, worker-executed).
    Hijack = 1,
    /// `route` base-universe lookups (inline).
    Route = 2,
    /// `health` probes (inline).
    Health = 3,
    /// `stats` snapshots (inline).
    Stats = 4,
    /// `audit` re-audits (inline).
    Audit = 5,
    /// `shutdown` drains (inline).
    Shutdown = 6,
}

impl OpKind {
    /// The op's wire name, as it appears in `stats` responses.
    pub fn name(self) -> &'static str {
        OP_NAMES[self as usize]
    }
}

/// Completed-request count and wall-latency tallies for one op. For
/// admitted ops (`whatif`, `hijack`) latency spans admission to response
/// — queue wait included; for inline ops it is the handling time alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpLatency {
    /// Requests of this op answered, any response status (shed included).
    pub count: u64,
    /// Total wall latency across those answers, milliseconds.
    pub total_ms: u64,
    /// Slowest single answer, milliseconds.
    pub max_ms: u64,
}

/// Point-in-time snapshot of the serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Query requests that reached admission.
    pub received: u64,
    /// Queries answered exactly (`status: ok`).
    pub served: u64,
    /// Queries refused by admission (`status: shed`).
    pub shed: u64,
    /// Queries answered degraded (deadline or quarantine).
    pub degraded: u64,
    /// Degraded answers caused by a tripped deadline/budget.
    pub deadline_aborts: u64,
    /// Degraded answers caused by an open circuit breaker.
    pub quarantine_refusals: u64,
    /// Requests rejected with `status: error` (malformed, unknown prefix…).
    pub errors: u64,
    /// Connections that vanished while a response was owed.
    pub disconnects: u64,
    /// Times any per-prefix breaker opened.
    pub breaker_trips: u64,
    /// Deepest admission backlog observed.
    pub queue_high_water: u64,
    /// Query edit sets the incremental delta auditor judged
    /// certificate-preserving (free-order answer stayed licensed).
    pub certificates_preserved: u64,
    /// Query edit sets that revoked the certificate (the answer fell back
    /// to wave-exact reconvergence).
    pub certificates_revoked: u64,
    /// Per-op count/latency breakdown, indexed by [`OpKind`].
    pub ops: [OpLatency; 7],
}

#[derive(Default)]
struct OpMetrics {
    count: AtomicU64,
    total_ms: AtomicU64,
    max_ms: AtomicU64,
}

#[derive(Default)]
struct Metrics {
    received: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    degraded: AtomicU64,
    deadline_aborts: AtomicU64,
    quarantine_refusals: AtomicU64,
    errors: AtomicU64,
    disconnects: AtomicU64,
    certificates_preserved: AtomicU64,
    certificates_revoked: AtomicU64,
    ops: [OpMetrics; 7],
}

/// One admitted query, queued for a worker.
struct Job {
    id: Option<u64>,
    /// Which op admitted this job (`whatif` or `hijack`) — the per-op
    /// latency bucket its answer is recorded under.
    op: OpKind,
    /// [`ServiceClock::now_ms`] at admission; latency is measured from
    /// here, so queue wait counts.
    started_ms: u64,
    prefix: Prefix,
    deltas: Vec<Delta>,
    budget: Option<u64>,
    /// Absolute [`ServiceClock::now_ms`] deadline, if the server has one.
    deadline_ms: Option<u64>,
    reply: mpsc::Sender<String>,
}

/// The resident what-if server. Construct with [`Server::new`], then call
/// [`Server::run`] — it owns the calling thread until drain completes.
pub struct Server {
    cfg: ServeConfig,
    queue: AdmissionQueue<Job>,
    metrics: Metrics,
    breakers: Mutex<BTreeMap<Prefix, CircuitBreaker>>,
    /// Read-halves of live connections keyed by registration token,
    /// force-EOF'd on drain. Entries are removed when their connection
    /// finishes, so the map only ever holds live sockets — a long-lived
    /// daemon does not accumulate dead fds.
    conns: Mutex<BTreeMap<u64, TcpStream>>,
    conn_token: AtomicU64,
}

impl Server {
    /// A server with the given tuning; nothing runs until [`Server::run`].
    pub fn new(cfg: ServeConfig) -> Server {
        let queue = AdmissionQueue::new(cfg.queue_cap);
        Server {
            cfg,
            queue,
            metrics: Metrics::default(),
            breakers: Mutex::new(BTreeMap::new()),
            conns: Mutex::new(BTreeMap::new()),
            conn_token: AtomicU64::new(0),
        }
    }

    /// Pauses worker consumption (admission continues) — test hook for
    /// staging load deterministically.
    pub fn pause_workers(&self) {
        self.queue.pause();
    }

    /// Resumes worker consumption after [`Server::pause_workers`].
    pub fn resume_workers(&self) {
        self.queue.resume();
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServeStats {
        let m = &self.metrics;
        let trips = self
            .lock_breakers()
            .values()
            .map(|b| u64::from(b.trips()))
            .sum();
        ServeStats {
            received: m.received.load(Ordering::Relaxed),
            served: m.served.load(Ordering::Relaxed),
            shed: m.shed.load(Ordering::Relaxed),
            degraded: m.degraded.load(Ordering::Relaxed),
            deadline_aborts: m.deadline_aborts.load(Ordering::Relaxed),
            quarantine_refusals: m.quarantine_refusals.load(Ordering::Relaxed),
            errors: m.errors.load(Ordering::Relaxed),
            disconnects: m.disconnects.load(Ordering::Relaxed),
            breaker_trips: trips,
            queue_high_water: self.queue.high_water() as u64,
            certificates_preserved: m.certificates_preserved.load(Ordering::Relaxed),
            certificates_revoked: m.certificates_revoked.load(Ordering::Relaxed),
            ops: std::array::from_fn(|i| OpLatency {
                count: m.ops[i].count.load(Ordering::Relaxed),
                total_ms: m.ops[i].total_ms.load(Ordering::Relaxed),
                max_ms: m.ops[i].max_ms.load(Ordering::Relaxed),
            }),
        }
    }

    /// Tallies one answered request into its op's latency bucket. Called
    /// before the reply is queued, so a client holding its answer finds it
    /// counted in a `stats` it asks for next.
    fn record_op(&self, op: OpKind, started_ms: u64) {
        let elapsed = self.cfg.clock.now_ms().saturating_sub(started_ms);
        let m = &self.metrics.ops[op as usize];
        m.count.fetch_add(1, Ordering::Relaxed);
        m.total_ms.fetch_add(elapsed, Ordering::Relaxed);
        m.max_ms.fetch_max(elapsed, Ordering::Relaxed);
    }

    /// Whether the server has begun draining.
    pub fn is_draining(&self) -> bool {
        self.queue.is_draining()
    }

    /// Begins graceful drain: admission stops, accepted work finishes,
    /// idle readers are force-EOF'd, [`Server::run`] returns once every
    /// thread has joined.
    pub fn initiate_drain(&self) {
        self.queue.drain();
        let conns = self.lock_conns();
        for c in conns.values() {
            let _ = c.shutdown(Shutdown::Read);
        }
    }

    /// Live connections currently registered (readers that have not yet
    /// finished). Test/observability hook for the no-fd-leak invariant.
    pub fn open_connections(&self) -> usize {
        self.lock_conns().len()
    }

    /// Per-prefix circuit-breaker entries tracked. Bounded by the resident
    /// prefix count — non-resident query prefixes never create state here.
    pub fn breaker_count(&self) -> usize {
        self.lock_breakers().len()
    }

    fn lock_breakers(&self) -> MutexGuard<'_, BTreeMap<Prefix, CircuitBreaker>> {
        self.breakers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_conns(&self) -> MutexGuard<'_, BTreeMap<u64, TcpStream>> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a connection's read-half for the drain EOF sweep and
    /// returns its removal token. The draining check shares the `conns`
    /// lock with [`Server::initiate_drain`]'s sweep, so a connection
    /// accepted concurrently with drain is shut down by exactly one of the
    /// two paths — never missed by both (which would leave its reader
    /// blocked in `read_line` and hang the scope join).
    fn register_conn(&self, read_half: TcpStream) -> u64 {
        let token = self.conn_token.fetch_add(1, Ordering::Relaxed);
        let mut conns = self.lock_conns();
        if self.is_draining() {
            let _ = read_half.shutdown(Shutdown::Read);
        }
        conns.insert(token, read_half);
        token
    }

    fn deregister_conn(&self, token: u64) {
        self.lock_conns().remove(&token);
    }

    /// Serves `listener` until a `shutdown` request (or
    /// [`Server::initiate_drain`] from another thread) drains the loop.
    /// `_universe` is unused: the served universe never changes, so the
    /// server has nothing to publish. The parameter stays until ROADMAP
    /// 11(k) drops it with its callers.
    pub fn run(
        &self,
        engine: &WhatIfEngine<'_>,
        _universe: Option<&RoutingUniverse>,
        listener: TcpListener,
    ) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        std::thread::scope(|scope| {
            for _ in 0..self.cfg.workers.max(1) {
                scope.spawn(move || {
                    while let Some(job) = self.queue.pop() {
                        self.execute(engine, job);
                    }
                });
            }
            loop {
                if self.is_draining() {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(false);
                        // Replies are latency-bound lines, written whole.
                        let _ = stream.set_nodelay(true);
                        let token = stream.try_clone().ok().map(|h| self.register_conn(h));
                        scope.spawn(move || {
                            self.serve_connection(engine, stream);
                            if let Some(token) = token {
                                self.deregister_conn(token);
                            }
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        });
        Ok(())
    }

    /// Reader half of one connection: parse lines, answer control ops
    /// inline, admit query ops. A paired writer thread serialises all
    /// responses (inline ones and worker ones) onto the socket.
    fn serve_connection(&self, engine: &WhatIfEngine<'_>, stream: TcpStream) {
        let Ok(write_half) = stream.try_clone() else {
            return;
        };
        let (tx, rx) = mpsc::channel::<String>();
        let writer = std::thread::spawn(move || {
            let mut w = write_half;
            let mut died = false;
            while let Ok(mut line) = rx.recv() {
                // One write per reply: a separate terminator write would
                // sit behind Nagle until the client's delayed ACK.
                line.push('\n');
                if w.write_all(line.as_bytes()).is_err() {
                    died = true;
                    break;
                }
            }
            died
        });
        let mut reader = BufReader::new(stream);
        let mut line = Vec::new();
        let reject = |message: String| Err(ParseError { id: None, message });
        while let Ok(Some(fits)) = read_request_line(&mut reader, &mut line) {
            let parsed = if !fits {
                reject(format!("request line exceeds {MAX_LINE_BYTES} bytes"))
            } else {
                match std::str::from_utf8(&line) {
                    Err(_) => reject("request line is not valid UTF-8".to_string()),
                    Ok(text) if text.trim().is_empty() => continue,
                    Ok(text) => parse_request(text.trim()),
                }
            };
            match parsed {
                Err(e) => {
                    self.metrics.errors.fetch_add(1, Ordering::Relaxed);
                    let _ = tx.send(error_response(e.id, &e.message));
                }
                Ok(req) => {
                    if self.handle_request(engine, req, &tx) {
                        break; // shutdown requested on this connection
                    }
                }
            }
        }
        drop(tx);
        if let Ok(true) = writer.join() {
            self.metrics.disconnects.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Dispatches one parsed request. Returns `true` when the request was
    /// a shutdown and the reader should stop.
    fn handle_request(
        &self,
        engine: &WhatIfEngine<'_>,
        req: Request,
        tx: &mpsc::Sender<String>,
    ) -> bool {
        let started = self.cfg.clock.now_ms();
        match req {
            Request::WhatIf {
                id,
                prefix,
                deltas,
                budget,
            } => {
                self.admit_query(OpKind::WhatIf, id, prefix, deltas, budget, started, tx);
                false
            }
            Request::Hijack {
                id,
                prefix,
                attacker,
                forged_origin,
                poison,
                stealth,
                budget,
            } => {
                // Sugar over the what-if path: one hijack delta,
                // tracked under its own op so scenario load is observable
                // separately from ordinary what-if traffic.
                let deltas = vec![Delta::Hijack {
                    attacker,
                    forged_origin,
                    poison,
                    stealth,
                }];
                self.admit_query(OpKind::Hijack, id, prefix, deltas, budget, started, tx);
                false
            }
            Request::Route { id, prefix, asn } => {
                self.metrics.received.fetch_add(1, Ordering::Relaxed);
                let node = engine.world().graph.index_of(asn);
                let resident = engine.is_resident(prefix);
                let response = match node {
                    None => {
                        self.metrics.errors.fetch_add(1, Ordering::Relaxed);
                        error_response(id, &format!("unknown AS {asn}"))
                    }
                    Some(_) if !resident => {
                        self.metrics.errors.fetch_add(1, Ordering::Relaxed);
                        error_response(id, &format!("prefix {prefix} is not resident"))
                    }
                    Some(x) => {
                        self.metrics.served.fetch_add(1, Ordering::Relaxed);
                        route_response(id, prefix, &engine.base_route(prefix, x))
                    }
                };
                self.record_op(OpKind::Route, started);
                let _ = tx.send(response);
                false
            }
            Request::Health { id } => {
                let response = health_response(
                    id,
                    self.is_draining(),
                    engine.prefixes().count(),
                    engine.shape_count(),
                );
                self.record_op(OpKind::Health, started);
                let _ = tx.send(response);
                false
            }
            Request::Stats { id } => {
                // Snapshot first: a stats reply does not count itself.
                let response =
                    stats_response(id, &self.stats(), self.queue.cap(), engine.shape_waits());
                self.record_op(OpKind::Stats, started);
                let _ = tx.send(response);
                false
            }
            Request::Audit { id } => {
                // Full re-audit of the resident world, inline like the
                // other control ops: it bypasses admission so operators
                // can probe safety even when the query queue is saturated.
                let report = ir_audit::audit_world(engine.world());
                self.record_op(OpKind::Audit, started);
                let _ = tx.send(audit_response(
                    id,
                    report.certificate.certified,
                    report.errors(),
                    report.warnings(),
                    &report.certificate.blockers,
                ));
                false
            }
            Request::Shutdown { id } => {
                self.record_op(OpKind::Shutdown, started);
                let _ = tx.send(draining_response(id));
                self.initiate_drain();
                true
            }
        }
    }

    /// Shared admission path for the worker-executed query ops (`whatif`
    /// and `hijack`): count receipt, stamp the deadline, enqueue; a full
    /// queue sheds with a retry hint. The job remembers its op and
    /// admission time so [`Server::execute`] can tally per-op latency.
    #[allow(clippy::too_many_arguments)]
    fn admit_query(
        &self,
        op: OpKind,
        id: Option<u64>,
        prefix: Prefix,
        deltas: Vec<Delta>,
        budget: Option<u64>,
        started_ms: u64,
        tx: &mpsc::Sender<String>,
    ) {
        self.metrics.received.fetch_add(1, Ordering::Relaxed);
        let deadline_ms = (self.cfg.deadline_ms > 0)
            .then(|| self.cfg.clock.now_ms().saturating_add(self.cfg.deadline_ms));
        let job = Job {
            id,
            op,
            started_ms,
            prefix,
            deltas,
            budget,
            deadline_ms,
            reply: tx.clone(),
        };
        if let Err(job) = self.queue.try_push(job) {
            self.metrics.shed.fetch_add(1, Ordering::Relaxed);
            self.record_op(op, started_ms);
            let _ = tx.send(shed_response(job.id, RETRY_AFTER_MS));
        }
    }

    /// Runs one admitted query to a response — the worker body.
    fn execute(&self, engine: &WhatIfEngine<'_>, job: Job) {
        let now = self.cfg.clock.now_ms();
        // Expired while queued: answer degraded without burning a worker.
        if job.deadline_ms.is_some_and(|d| now >= d) {
            self.metrics.deadline_aborts.fetch_add(1, Ordering::Relaxed);
            self.metrics.degraded.fetch_add(1, Ordering::Relaxed);
            self.record_op(job.op, job.started_ms);
            let _ = job.reply.send(degraded_response(
                job.id,
                job.prefix,
                &["deadline"],
                None,
                None,
            ));
            return;
        }
        // Quarantined prefixes answer degraded immediately. Only resident
        // prefixes get breaker state — arbitrary client-supplied prefixes
        // would otherwise grow the map without bound; non-resident ones
        // fall through to `query_budgeted`'s structured rejection.
        let allowed = !engine.is_resident(job.prefix) || {
            let mut breakers = self.lock_breakers();
            let key = key2(u64::from(job.prefix.base.0), u64::from(job.prefix.len));
            breakers
                .entry(job.prefix)
                .or_insert_with(|| CircuitBreaker::new(self.cfg.breaker, key))
                .allows(now)
        };
        if !allowed {
            self.metrics
                .quarantine_refusals
                .fetch_add(1, Ordering::Relaxed);
            self.metrics.degraded.fetch_add(1, Ordering::Relaxed);
            self.record_op(job.op, job.started_ms);
            let _ = job.reply.send(degraded_response(
                job.id,
                job.prefix,
                &["quarantine"],
                None,
                None,
            ));
            return;
        }
        let default = self.cfg.default_budget;
        let activations = job
            .budget
            .unwrap_or(default)
            .min(default.saturating_mul(BUDGET_CAP_FACTOR))
            .max(1);
        let mut budget = StepBudget::activations(activations);
        if let Some(at_ms) = job.deadline_ms {
            budget = budget.with_deadline(self.cfg.clock.clone(), at_ms);
        }
        let query = WhatIfQuery {
            prefix: job.prefix,
            deltas: job.deltas,
        };
        let result = engine.query_budgeted(&query, &budget);
        let response = match result {
            Err(e) => {
                self.metrics.errors.fetch_add(1, Ordering::Relaxed);
                query_error_response(job.id, &e)
            }
            Ok(answer) if answer.stats.deadline_aborted => {
                self.metrics.deadline_aborts.fetch_add(1, Ordering::Relaxed);
                self.metrics.degraded.fetch_add(1, Ordering::Relaxed);
                self.record_certificate(answer.certificate.as_ref());
                self.breaker_failure(job.prefix);
                degraded_response(
                    job.id,
                    job.prefix,
                    &["deadline"],
                    Some(&answer.stats),
                    answer.certificate.as_ref(),
                )
            }
            Ok(answer) => {
                self.metrics.served.fetch_add(1, Ordering::Relaxed);
                self.record_certificate(answer.certificate.as_ref());
                self.breaker_success(job.prefix);
                ok_response(job.id, &answer)
            }
        };
        self.record_op(job.op, job.started_ms);
        let _ = job.reply.send(response);
    }

    /// Tallies the incremental delta auditor's verdict on an answered
    /// query. `Unknown` (and no-certifier `None`) counts as neither: there
    /// was no certificate decision to record.
    fn record_certificate(&self, certificate: Option<&CertificateDelta>) {
        match certificate {
            Some(CertificateDelta::Preserved) => {
                self.metrics
                    .certificates_preserved
                    .fetch_add(1, Ordering::Relaxed);
            }
            Some(CertificateDelta::Revoked { .. }) => {
                self.metrics
                    .certificates_revoked
                    .fetch_add(1, Ordering::Relaxed);
            }
            Some(CertificateDelta::Unknown) | None => {}
        }
    }

    fn breaker_failure(&self, prefix: Prefix) {
        let now = self.cfg.clock.now_ms();
        if let Some(b) = self.lock_breakers().get_mut(&prefix) {
            b.record_failure(now);
        }
    }

    fn breaker_success(&self, prefix: Prefix) {
        if let Some(b) = self.lock_breakers().get_mut(&prefix) {
            b.record_success();
        }
    }
}

/// Reads the next request line into `line`. `Ok(None)` is end of stream;
/// `Ok(Some(false))` is a line longer than [`MAX_LINE_BYTES`], already
/// discarded up to its newline so the next call starts on the following
/// request. `line` never holds more than one byte over the cap.
fn read_request_line(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
) -> std::io::Result<Option<bool>> {
    let limit = MAX_LINE_BYTES as u64 + 1;
    line.clear();
    if reader.by_ref().take(limit).read_until(b'\n', line)? == 0 {
        return Ok(None);
    }
    let mut fits = true;
    while line.len() > MAX_LINE_BYTES && !line.ends_with(b"\n") {
        fits = false;
        line.clear();
        if reader.by_ref().take(limit).read_until(b'\n', line)? == 0 {
            break;
        }
    }
    Ok(Some(fits))
}
