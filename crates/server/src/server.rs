//! The TCP front-end: bounded acceptor, thread-per-connection workers,
//! admission control with load shedding, and drain-then-shutdown.
//!
//! Lifecycle contract (see DESIGN.md "Network serving model"):
//!
//! 1. `Server::start` binds, registers its metric families in the
//!    database's registry, and spawns the acceptor.
//! 2. Each accepted connection gets a worker thread and an engine session, so
//!    `BEGIN`/`COMMIT`/`ROLLBACK` work over the wire exactly as they do
//!    in-process.
//! 3. Admission control is a bounded in-flight query counter: a request
//!    over the limit is answered with a typed `Busy` frame immediately —
//!    the server sheds load, it never queues it.
//! 4. `Server::shutdown` drains: stop accepting, let every in-flight query
//!    finish, join all connection workers, then shut the engine down
//!    (which flushes the WAL and joins GC/flusher/pool threads).
//! 5. With a [`SupervisorConfig`], a health supervisor probes the engine:
//!    when the WAL poisons (the engine degrades to read-only), it replays
//!    the log into a replacement instance with bounded backoff, swaps it in
//!    under an epoch bump, and gracefully drains sessions pinned to the old
//!    engine — each finishes its in-flight query, is told to reconnect via
//!    a typed `Busy(Draining)` frame, and rejoins on the healthy engine.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use mb2_common::{fault, DbError, DbResult, FaultInjector, Value};
use mb2_engine::{
    recover_with, Database, DatabaseConfig, DegradedReason, HealthState, RecoveryOptions,
};
use mb2_obs::{Counter, FloatGauge, Gauge, Histogram};

use crate::sched::{ConnSchedCtx, Decision, Scheduler, SchedulerPolicy};
use crate::wire::{
    self, BusyReason, Frame, FrameReader, ReadPoll, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};

/// Server configuration knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests).
    pub addr: String,
    /// Maximum simultaneously connected clients; further connects are
    /// answered with a typed busy frame and closed.
    pub max_connections: usize,
    /// Bound on queries executing at once across all connections — the
    /// admission-control semaphore. Requests beyond it get a busy frame.
    pub max_inflight_queries: usize,
    /// Close a connection that has been idle (no complete request) this
    /// long.
    pub idle_timeout: Duration,
    /// Socket read-timeout granularity: how often an idle worker re-checks
    /// the shutdown flag and the idle deadline. Bounds drain latency for
    /// idle connections.
    pub poll_interval: Duration,
    /// Fault injection for chaos tests (`server.accept` and `server.read`
    /// points); `None` in production.
    pub faults: Option<Arc<FaultInjector>>,
    /// Self-healing supervisor; `None` disables automatic recovery (the
    /// engine stays degraded/read-only after a WAL poison).
    pub supervisor: Option<SupervisorConfig>,
    /// Predictive admission policy (tiers, queue bound, tenant quotas).
    /// `None` — or no models attached via [`Server::attach_models`] —
    /// keeps the legacy blunt semaphore behavior.
    pub scheduler: Option<SchedulerPolicy>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: 64,
            max_inflight_queries: 16,
            idle_timeout: Duration::from_secs(300),
            poll_interval: Duration::from_millis(25),
            faults: None,
            supervisor: None,
            scheduler: None,
        }
    }
}

/// Health-supervisor configuration: probe cadence and the bounded-backoff
/// restart-with-recovery policy.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// How often the supervisor probes `Database::health`.
    pub probe_interval: Duration,
    /// Recovery attempts before the supervisor gives up and leaves the
    /// engine degraded (read-only).
    pub max_attempts: u32,
    /// Base backoff between attempts (doubles per attempt).
    pub backoff: Duration,
    /// Configuration template for the replacement engine. Its `wal_path` is
    /// ignored — the supervisor writes each generation's log next to the
    /// poisoned one (`<path>.gN`) — and its `metrics` is overridden with the
    /// old engine's registry so series survive the swap.
    pub template: DatabaseConfig,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            probe_interval: Duration::from_millis(50),
            max_attempts: 5,
            backoff: Duration::from_millis(20),
            template: DatabaseConfig::default(),
        }
    }
}

/// Server metric families, registered in the database's registry so one
/// scrape sees the front-end next to every engine subsystem.
struct ServerMetrics {
    connections_accepted: Arc<Counter>,
    connections_rejected: Arc<Counter>,
    connections_active: Arc<Gauge>,
    queries_total: Arc<Counter>,
    queries_rejected: Arc<Counter>,
    /// Per-reason breakdown of `queries_rejected` (`{reason}` label);
    /// indexed in the order of [`SHED_REASONS`].
    queries_shed: [Arc<Counter>; SHED_REASONS.len()],
    query_errors: Arc<Counter>,
    inflight_queries: Arc<Gauge>,
    request_us: Arc<Histogram>,
    recoveries: Arc<Counter>,
    recovery_failures: Arc<Counter>,
    sched_mode: Arc<Gauge>,
    sched_queue_depth: Arc<Gauge>,
    sched_inflight_predicted_us: Arc<FloatGauge>,
    sched_admitted_immediate: Arc<Counter>,
    sched_admitted_queued: Arc<Counter>,
    sched_queue_wait_us: Arc<Histogram>,
}

/// Reason labels of the `mb2_server_queries_shed_total` family, in the
/// order matching [`shed_reason_index`].
const SHED_REASONS: [&str; 7] = [
    "queries",
    "connections",
    "draining",
    "queue_full",
    "deadline",
    "quota",
    "other",
];

fn shed_reason_index(reason: BusyReason) -> usize {
    SHED_REASONS
        .iter()
        .position(|&l| l == reason.label())
        .unwrap_or(SHED_REASONS.len() - 1)
}

impl ServerMetrics {
    fn new(db: &Database) -> ServerMetrics {
        let r = db.metrics();
        ServerMetrics {
            connections_accepted: r.counter(
                "mb2_server_connections_accepted_total",
                "Client connections accepted.",
            ),
            connections_rejected: r.counter(
                "mb2_server_connections_rejected_total",
                "Client connections rejected at the max_connections bound.",
            ),
            connections_active: r.gauge(
                "mb2_server_connections_active",
                "Currently connected clients.",
            ),
            queries_total: r.counter("mb2_server_queries_total", "Query frames received."),
            queries_rejected: r.counter(
                "mb2_server_queries_rejected_total",
                "Queries shed by admission control, all reasons summed \
                 (see mb2_server_queries_shed_total for the breakdown).",
            ),
            queries_shed: SHED_REASONS.map(|reason| {
                r.counter_with(
                    "mb2_server_queries_shed_total",
                    &[("reason", reason)],
                    "Queries shed by admission control (busy frames sent), by reason.",
                )
            }),
            query_errors: r.counter("mb2_server_query_errors_total", "Queries that failed."),
            inflight_queries: r.gauge(
                "mb2_server_inflight_queries",
                "Queries currently executing.",
            ),
            request_us: r.histogram(
                "mb2_server_request_us",
                "End-to-end request latency (receive to Done) in microseconds.",
            ),
            recoveries: r.counter(
                "mb2_server_recoveries_total",
                "Successful supervisor-driven engine recoveries (swaps).",
            ),
            recovery_failures: r.counter(
                "mb2_server_recovery_failures_total",
                "Failed supervisor recovery attempts.",
            ),
            sched_mode: r.gauge(
                "mb2_sched_mode",
                "Admission scheduler mode: 0 = fallback semaphore, 1 = predictive.",
            ),
            sched_queue_depth: r.gauge(
                "mb2_sched_queue_depth",
                "Queries waiting in the admission queue.",
            ),
            sched_inflight_predicted_us: r.float_gauge(
                "mb2_sched_inflight_predicted_us",
                "Outstanding predicted elapsed microseconds across the in-flight mix.",
            ),
            sched_admitted_immediate: r.counter_with(
                "mb2_sched_admitted_total",
                &[("path", "immediate")],
                "Queries admitted by the scheduler, by admission path.",
            ),
            sched_admitted_queued: r.counter_with(
                "mb2_sched_admitted_total",
                &[("path", "queued")],
                "Queries admitted by the scheduler, by admission path.",
            ),
            sched_queue_wait_us: r.histogram(
                "mb2_sched_queue_wait_us",
                "Time queued queries waited before admission, in microseconds.",
            ),
        }
    }

    fn record_shed(&self, reason: BusyReason) {
        self.queries_rejected.inc();
        self.queries_shed[shed_reason_index(reason)].inc();
    }
}

struct Shared {
    /// The engine currently serving traffic. The supervisor swaps in a
    /// recovered replacement; existing connections keep their own `Arc`
    /// (and their session) until they notice the epoch bump.
    db: RwLock<Arc<Database>>,
    /// Bumped at every engine swap. A connection whose captured epoch is
    /// stale finishes its in-flight request, answers further requests with
    /// `Busy(Draining)`, and closes so the client reconnects onto the
    /// current engine.
    epoch: AtomicU64,
    cfg: ServerConfig,
    stop: AtomicBool,
    active_conns: AtomicUsize,
    /// Admission scheduler. With no policy or no attached models it
    /// reproduces the legacy in-flight semaphore exactly.
    sched: Scheduler,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Interruptible sleep for the supervisor thread (drain wakes it).
    supervisor_wakeup: (StdMutex<bool>, Condvar),
    metrics: ServerMetrics,
    /// Autopilot attached via [`Server::attach_pilot`]; consulted by the
    /// `SHOW PILOT` operator command.
    pilot: RwLock<Option<Arc<mb2_pilot::Pilot>>>,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    fn db(&self) -> Arc<Database> {
        self.db.read().clone()
    }

    /// Sleep up to `timeout` on the supervisor condvar; returns early (true)
    /// when drain woke it.
    fn supervisor_sleep(&self, timeout: Duration) -> bool {
        let (lock, cvar) = &self.supervisor_wakeup;
        let mut stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
        let deadline = Instant::now() + timeout;
        while !*stopped {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = match cvar.wait_timeout(stopped, deadline - now) {
                Ok(r) => r,
                Err(_) => return true,
            };
            stopped = guard;
        }
        true
    }

    /// Reserve a connection slot; `false` over the bound.
    fn try_acquire_conn(&self) -> bool {
        self.active_conns
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.cfg.max_connections).then_some(n + 1)
            })
            .is_ok()
    }
}

/// RAII admission: holds the scheduler token for the full response
/// lifetime — through the final `Done`/`Error` frame flush, not merely
/// until execute returns — so a slow-reading client that stalls the
/// socket keeps its slot occupied and the configured bound holds.
struct AdmissionGuard<'a> {
    shared: &'a Shared,
    token: Option<crate::sched::AdmitToken>,
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        if let Some(token) = self.token.take() {
            self.shared.sched.finish(token);
        }
        self.shared.metrics.inflight_queries.dec();
        self.shared
            .metrics
            .sched_inflight_predicted_us
            .set(self.shared.sched.outstanding_us());
        self.shared
            .metrics
            .sched_queue_depth
            .set(self.shared.sched.queue_depth() as i64);
    }
}

/// The network front-end. Owns the acceptor and every connection worker;
/// dropping the server (or calling [`Server::shutdown`]) drains them.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving. The returned server is already accepting.
    pub fn start(db: Arc<Database>, cfg: ServerConfig) -> DbResult<Server> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| DbError::Net(format!("bind {}: {e}", cfg.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| DbError::Net(format!("local_addr: {e}")))?;
        let metrics = ServerMetrics::new(&db);
        let sched = Scheduler::new(cfg.max_inflight_queries, cfg.scheduler.clone());
        let shared = Arc::new(Shared {
            db: RwLock::new(db),
            epoch: AtomicU64::new(0),
            cfg,
            stop: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            sched,
            workers: Mutex::new(Vec::new()),
            supervisor_wakeup: (StdMutex::new(false), Condvar::new()),
            metrics,
            pilot: RwLock::new(None),
        });
        let acceptor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("mb2-server-accept".into())
                .spawn(move || accept_loop(&shared, listener))
                .map_err(|e| DbError::Net(format!("spawn acceptor: {e}")))?
        };
        let supervisor = match shared.cfg.supervisor.clone() {
            Some(sup) => {
                let shared = shared.clone();
                Some(
                    std::thread::Builder::new()
                        .name("mb2-server-supervisor".into())
                        .spawn(move || supervisor_loop(&shared, sup))
                        .map_err(|e| DbError::Net(format!("spawn supervisor: {e}")))?,
                )
            }
            None => None,
        };
        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            supervisor,
        })
    }

    /// The bound address (resolves port 0 for tests).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The database currently serving traffic (the supervisor may have
    /// swapped in a recovered instance since the server started).
    pub fn db(&self) -> Arc<Database> {
        self.shared.db()
    }

    /// Attach an autopilot so operators can inspect it over the wire with
    /// `SHOW PILOT`. The server does not own the pilot's lifecycle — start
    /// it (and let `Database::shutdown` quiesce it) as usual; this only
    /// wires up introspection.
    pub fn attach_pilot(&self, pilot: Arc<mb2_pilot::Pilot>) {
        *self.shared.pilot.write() = Some(pilot);
    }

    /// Attach trained behavior models. With a `scheduler` policy in the
    /// config this switches admission from the blunt semaphore to the
    /// predictive path; with untrained (empty) OU models the scheduler
    /// stays in fallback mode, so a cold-start server behaves exactly as
    /// before.
    pub fn attach_models(&self, models: Arc<mb2_core::BehaviorModels>) {
        self.shared.sched.attach_models(models);
        self.shared
            .metrics
            .sched_mode
            .set(self.shared.sched.predictive() as i64);
    }

    /// How many supervisor engine swaps have happened.
    pub fn engine_epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Currently connected clients.
    pub fn active_connections(&self) -> usize {
        self.shared.active_conns.load(Ordering::Acquire)
    }

    /// Graceful drain-then-shutdown: stop accepting, finish in-flight
    /// queries, join every connection worker and the acceptor, then shut
    /// down the engine (WAL flush + GC/flusher/pool thread joins). Safe to
    /// call once; `Drop` performs the same drain if it was not called.
    pub fn shutdown(mut self) {
        self.drain();
        self.shared.db().shutdown();
    }

    fn drain(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Evict queued waiters with `Busy(Draining)` so their worker
        // threads can answer and exit instead of blocking the join below.
        self.shared.sched.drain();
        // Wake a supervisor parked in its probe/backoff sleep.
        {
            let (lock, cvar) = &self.shared.supervisor_wakeup;
            *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
            cvar.notify_all();
        }
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
        // Wake the blocking accept with a throwaway connection; the loop
        // re-checks the stop flag before serving it.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        // Join connection workers. Idle ones notice the flag within one
        // poll interval; busy ones finish their in-flight query first.
        let workers: Vec<JoinHandle<()>> = std::mem::take(&mut *self.shared.workers.lock());
        for handle in workers {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            // Drain without shutting the engine down: the Database may be
            // shared with in-process users; explicit `shutdown()` is the
            // full-stack teardown.
            self.drain();
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    for conn in listener.incoming() {
        if shared.stopping() {
            return;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        if let Some(inj) = shared.cfg.faults.as_ref() {
            if inj.check(fault::points::SERVER_ACCEPT).is_some() {
                // Injected accept failure: drop the connection without a
                // frame, the way a dying acceptor would.
                continue;
            }
        }
        if !shared.try_acquire_conn() {
            shared.metrics.connections_rejected.inc();
            let mut s = stream;
            // Pre-handshake: the peer's version is unknown, so speak v1
            // (v2 peers decode the missing retry hint as "none").
            let _ = wire::write_frame_v(
                &mut s,
                &Frame::Busy {
                    reason: BusyReason::Connections,
                    message: format!("connection limit of {} reached", shared.cfg.max_connections),
                    retry_after_ms: 0,
                },
                MIN_PROTOCOL_VERSION,
            );
            continue; // drop closes the socket
        }
        shared.metrics.connections_accepted.inc();
        shared.metrics.connections_active.inc();
        let worker = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("mb2-server-conn".into())
                .spawn(move || {
                    let _ = serve_connection(&shared, stream);
                    shared.active_conns.fetch_sub(1, Ordering::AcqRel);
                    shared.metrics.connections_active.dec();
                })
        };
        let mut workers = shared.workers.lock();
        // Reap finished workers so a long-lived server doesn't accumulate
        // handles for every connection it ever served.
        workers.retain(|h| !h.is_finished());
        match worker {
            Ok(h) => workers.push(h),
            Err(_) => {
                shared.active_conns.fetch_sub(1, Ordering::AcqRel);
                shared.metrics.connections_active.dec();
            }
        }
    }
}

fn serve_connection(shared: &Arc<Shared>, mut stream: TcpStream) -> DbResult<()> {
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(shared.cfg.poll_interval))
        .map_err(|e| DbError::Net(format!("set_read_timeout: {e}")))?;

    let mut reader = FrameReader::new();

    // Handshake, bounded by the idle timeout.
    let deadline = Instant::now() + shared.cfg.idle_timeout;
    let hello = loop {
        match reader.poll_read(&mut stream)? {
            ReadPoll::Frame(f) => break f,
            ReadPoll::Eof => return Ok(()),
            ReadPoll::Pending => {
                if shared.stopping() || Instant::now() > deadline {
                    return Ok(());
                }
            }
        }
    };
    let (peer_version, sched_ctx) = match hello {
        Frame::ClientHello {
            version,
            tenant,
            tier,
        } if (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) => {
            // Speak the client's dialect from here on (v1 peers must not
            // see v2 field extensions — their decoder rejects trailing
            // bytes).
            wire::write_frame_v(&mut stream, &Frame::ServerHello { version }, version)?;
            (version, ConnSchedCtx { tenant, tier })
        }
        Frame::ClientHello { version, .. } => {
            let _ = wire::write_frame(
                &mut stream,
                &Frame::Error {
                    error: DbError::Net(format!(
                        "protocol version {version} not supported (server speaks \
                         {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION})"
                    )),
                },
            );
            return Ok(());
        }
        _ => {
            let _ = wire::write_frame(
                &mut stream,
                &Frame::Error {
                    error: DbError::Net("expected ClientHello".into()),
                },
            );
            return Ok(());
        }
    };

    // One session per connection, pinned to the engine instance current at
    // connect time: explicit transactions span requests and must stay on
    // one engine. A supervisor swap bumps the epoch; this connection then
    // finishes its in-flight request, answers further traffic with
    // `Busy(Draining)`, and closes so the client reconnects.
    let db = shared.db();
    let my_epoch = shared.epoch.load(Ordering::Acquire);
    let mut session = db.session();
    let mut idle_since = Instant::now();
    loop {
        let poll = match reader.poll_read(&mut stream) {
            Ok(p) => p,
            Err(e) => {
                // Protocol violation (bad length, unknown tag, torn body):
                // tell the client why before closing. Best-effort — on a
                // genuine I/O error the write fails silently.
                let _ = wire::write_frame(&mut stream, &Frame::Error { error: e.clone() });
                return Err(e);
            }
        };
        match poll {
            ReadPoll::Frame(Frame::Query { sql }) => {
                idle_since = Instant::now();
                if shared.epoch.load(Ordering::Acquire) != my_epoch {
                    shared.metrics.record_shed(BusyReason::Draining);
                    let _ = wire::write_frame_v(
                        &mut stream,
                        &Frame::Busy {
                            reason: BusyReason::Draining,
                            message: "engine recovered; reconnect".into(),
                            retry_after_ms: 0,
                        },
                        peer_version,
                    );
                    return Ok(());
                }
                if let Some(inj) = shared.cfg.faults.as_ref() {
                    // Consulted once per complete request frame (never on
                    // `Pending`) so the decision sequence is a function of
                    // the request count, not of socket timing.
                    if let Some(msg) = inj.check(fault::points::SERVER_READ) {
                        return Err(DbError::Net(msg));
                    }
                }
                handle_query(
                    shared,
                    &mut session,
                    &mut stream,
                    &sql,
                    peer_version,
                    &sched_ctx,
                )?;
                if shared.stopping() {
                    // Drain: the in-flight request was finished and
                    // answered; close before taking new work.
                    return Ok(());
                }
            }
            ReadPoll::Frame(_) => {
                let _ = wire::write_frame(
                    &mut stream,
                    &Frame::Error {
                        error: DbError::Net("expected Query".into()),
                    },
                );
                return Ok(());
            }
            ReadPoll::Eof => return Ok(()),
            ReadPoll::Pending => {
                if shared.stopping() {
                    return Ok(());
                }
                if shared.epoch.load(Ordering::Acquire) != my_epoch {
                    let _ = wire::write_frame_v(
                        &mut stream,
                        &Frame::Busy {
                            reason: BusyReason::Draining,
                            message: "engine recovered; reconnect".into(),
                            retry_after_ms: 0,
                        },
                        peer_version,
                    );
                    return Ok(());
                }
                if idle_since.elapsed() > shared.cfg.idle_timeout {
                    let _ = wire::write_frame(
                        &mut stream,
                        &Frame::Error {
                            error: DbError::Net(format!(
                                "idle timeout after {:?}",
                                shared.cfg.idle_timeout
                            )),
                        },
                    );
                    return Ok(());
                }
            }
        }
    }
}

/// Serve one query frame: admission control, streamed execution, typed
/// errors. Only I/O failures propagate (tearing the connection down);
/// engine errors are answered in-band and the connection lives on.
fn handle_query(
    shared: &Arc<Shared>,
    session: &mut mb2_engine::Session<'_>,
    stream: &mut TcpStream,
    sql: &str,
    peer_version: u16,
    sched_ctx: &ConnSchedCtx,
) -> DbResult<()> {
    shared.metrics.queries_total.inc();
    // Admission: predict-and-decide (or the legacy semaphore in fallback
    // mode). This may block while queued, bounded by the tier deadline.
    let token = match shared.sched.admit(&shared.db(), sql, sched_ctx) {
        Decision::Admit(token) => token,
        Decision::Reject {
            reason,
            message,
            retry_after_ms,
        } => {
            shared.metrics.record_shed(reason);
            shared
                .metrics
                .sched_queue_depth
                .set(shared.sched.queue_depth() as i64);
            return wire::write_frame_v(
                stream,
                &Frame::Busy {
                    reason,
                    message,
                    retry_after_ms,
                },
                peer_version,
            );
        }
    };
    if token.queued {
        shared.metrics.sched_admitted_queued.inc();
        shared
            .metrics
            .sched_queue_wait_us
            .record(token.queue_wait.as_micros() as u64);
    } else {
        shared.metrics.sched_admitted_immediate.inc();
    }
    // The guard spans the whole response — execution AND the final
    // Done/Error flush — so a stalled client cannot free its slot early.
    let _admission = AdmissionGuard {
        shared,
        token: Some(token),
    };
    shared.metrics.inflight_queries.inc();
    shared
        .metrics
        .sched_inflight_predicted_us
        .set(shared.sched.outstanding_us());
    let started = Instant::now();

    // Operator commands are answered by the server itself (no SQL layer, no
    // wire changes — plain Varchar row batches); everything else takes the
    // session's one statement path.
    let result = match operator_command(shared, sql) {
        Some(rows) if rows.is_empty() => Ok(0),
        Some(rows) => {
            let n = rows.len();
            wire::write_frame(stream, &Frame::RowBatch { rows }).map(|()| n)
        }
        None => session.execute_streaming(sql, None, &mut |batch| {
            if batch.is_empty() {
                return Ok(());
            }
            let rows: Vec<Vec<Value>> = batch.rows.iter().map(|r| r.as_ref().clone()).collect();
            wire::write_frame(stream, &Frame::RowBatch { rows })
        }),
    };
    match result {
        Ok(n) => {
            shared
                .metrics
                .request_us
                .record(started.elapsed().as_micros() as u64);
            wire::write_frame(stream, &Frame::Done { rows: n as u64 })
        }
        // A network error from the batch callback means the socket is
        // gone; propagate so the worker exits instead of writing to it.
        Err(e @ DbError::Net(_)) => Err(e),
        Err(e) => {
            shared.metrics.query_errors.inc();
            wire::write_frame(stream, &Frame::Error { error: e })
        }
    }
}

/// Intercept operator commands (`SHOW METRICS`, `SHOW PILOT`,
/// `SHOW SHARDS`, `SHOW BLOCKS`, `SHOW SCHED`) before SQL execution.
/// Returns `None` for everything else so ordinary queries take the normal
/// path. Responses are one Varchar column per row.
fn operator_command(shared: &Arc<Shared>, sql: &str) -> Option<Vec<Vec<Value>>> {
    let cmd = sql.trim().trim_end_matches(';').trim().to_ascii_uppercase();
    match cmd.as_str() {
        "SHOW METRICS" => {
            let text = shared.db().metrics_prometheus();
            Some(
                text.lines()
                    .map(|l| vec![Value::Varchar(l.to_string())])
                    .collect(),
            )
        }
        "SHOW SCHED" => {
            // Admission-scheduler status: mode, occupancy, queue, and the
            // per-tier policy table.
            Some(
                shared
                    .sched
                    .status_rows()
                    .into_iter()
                    .map(|r| vec![Value::Varchar(r)])
                    .collect(),
            )
        }
        "SHOW PILOT" => {
            let row = match shared.pilot.read().as_ref() {
                Some(pilot) => pilot.status_json(),
                None => "{\"state\":\"detached\"}".to_string(),
            };
            Some(vec![vec![Value::Varchar(row)]])
        }
        "SHOW SHARDS" => {
            // One row per (table, shard): live tuples, version-chain
            // records, versions pruned by GC, and the watermark of the
            // shard's last GC pass.
            let mut rows = vec![vec![Value::Varchar(
                "table shard slots tuples versions gc_pruned gc_watermark".to_string(),
            )]];
            for (table, s) in shared.db().shard_status() {
                rows.push(vec![Value::Varchar(format!(
                    "{table} {} {} {} {} {} {}",
                    s.shard, s.slots, s.live_tuples, s.versions, s.gc_pruned, s.last_gc_watermark
                ))]);
            }
            Some(rows)
        }
        "SHOW BLOCKS" => {
            // One row per (table, shard): sealed columnar blocks, blocks
            // dirtied back onto the row path, rows served from blocks,
            // versions evicted by seal passes, and zone-map unit skips.
            let mut rows = vec![vec![Value::Varchar(
                "table shard blocks dirty sealed_tuples versions_evicted zone_skips".to_string(),
            )]];
            for (table, s) in shared.db().block_status() {
                rows.push(vec![Value::Varchar(format!(
                    "{table} {} {} {} {} {} {}",
                    s.shard,
                    s.blocks,
                    s.dirty_blocks,
                    s.sealed_tuples,
                    s.versions_evicted,
                    s.zone_skips
                ))]);
            }
            Some(rows)
        }
        _ => None,
    }
}

/// The self-healing loop: probe engine health each `probe_interval`; when
/// the WAL poisons, replay the log into a replacement instance (salvage
/// mode, generation-suffixed new log, shared metrics registry), swap it in
/// under an epoch bump, and shut the old engine down. Failed attempts back
/// off exponentially up to `max_attempts`, after which the supervisor gives
/// up and leaves the engine degraded (read-only).
fn supervisor_loop(shared: &Arc<Shared>, cfg: SupervisorConfig) {
    let mut generation: u64 = 0;
    loop {
        if shared.supervisor_sleep(cfg.probe_interval) {
            return; // drain
        }
        let db = shared.db();
        if db.health() != HealthState::Degraded(DegradedReason::WalPoisoned) {
            continue;
        }
        db.set_health(HealthState::Recovering);
        // The source log is the poisoned engine's on-disk WAL. A sink WAL
        // (no path) has nothing to replay from: recovery is impossible.
        let source = match db.wal().and_then(|w| w.config().path.clone()) {
            Some(p) => p,
            None => {
                shared.metrics.recovery_failures.inc();
                db.set_health(HealthState::Degraded(DegradedReason::WalPoisoned));
                return;
            }
        };
        let mut attempt: u32 = 0;
        loop {
            if shared.stopping() {
                return;
            }
            generation += 1;
            let mut config = cfg.template.clone();
            config.wal_enabled = true;
            // The replacement logs into `<source>.gN`: recovery re-logs the
            // replayed state, so the new log is self-contained and a second
            // crash recovers from it alone.
            let mut gen_path = source.clone().into_os_string();
            gen_path.push(format!(".g{generation}"));
            config.wal_path = Some(PathBuf::from(gen_path));
            // Same registry: counters and gauges keep their series across
            // the swap (registration is idempotent).
            config.metrics = Some(db.metrics().clone());
            match recover_with(&source, config, RecoveryOptions { salvage: true }) {
                Ok((new_db, _report)) => {
                    let new_db = Arc::new(new_db);
                    // The trackers share the health gauge through the
                    // registry; reassert Healthy over the Recovering value
                    // the old tracker published.
                    new_db.set_health(HealthState::Healthy);
                    *shared.db.write() = new_db;
                    shared.epoch.fetch_add(1, Ordering::AcqRel);
                    shared.metrics.recoveries.inc();
                    // Old engine: flush what it can and join its threads.
                    // Pinned sessions still hold clones of the Arc; they
                    // drain via the epoch check.
                    db.shutdown();
                    break;
                }
                Err(_) => {
                    shared.metrics.recovery_failures.inc();
                    attempt += 1;
                    if attempt >= cfg.max_attempts {
                        db.set_health(HealthState::Degraded(DegradedReason::WalPoisoned));
                        return;
                    }
                    let backoff = cfg.backoff * 2u32.saturating_pow(attempt - 1);
                    if shared.supervisor_sleep(backoff) {
                        return;
                    }
                }
            }
        }
    }
}
