//! Predictive admission & scheduling: the cold-start fallback is
//! byte-identical to the legacy semaphore, admission permits live until the
//! final response frame is flushed, queue deadlines evict with a typed busy
//! (never a silent drop) at every parallelism level, tenant quotas shed
//! with `Busy(Quota)`, the interference model makes admission sensitive to
//! the in-flight mix, and `SHOW SCHED` reports the live mode.

mod common;

use std::collections::HashMap;
use std::io::Read;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{read_raw_frame, seed_big, trained_models};
use mb2_common::metrics::idx;
use mb2_common::{DbError, Metrics, Prng, Value};
use mb2_core::training::OuModelSet;
use mb2_core::{BehaviorModels, InterferenceInputs, InterferenceModel};
use mb2_engine::{Database, DatabaseConfig};
use mb2_ml::Dataset;
use mb2_server::sched::{ConnSchedCtx, Decision, Scheduler};
use mb2_server::wire::{self, Frame};
use mb2_server::{BusyReason, Client, SchedulerPolicy, Server, ServerConfig, TierPolicy};

fn start_server(db_cfg: DatabaseConfig, srv_cfg: ServerConfig) -> Server {
    let db = Arc::new(Database::new(db_cfg).expect("database"));
    Server::start(db, srv_cfg).expect("server start")
}

/// Wait until no admission permit is held. A worker that just flushed a
/// final `Done` can be preempted (the woken client runs first) before its
/// `AdmissionGuard` drops, so on a busy host the permit of an *already
/// answered* query lingers for a few milliseconds — long enough to shed
/// the next query sent from another connection. `finish` runs before the
/// gauge decrement, so gauge 0 implies the slot is really free.
fn wait_idle(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let prom = server.db().metrics_prometheus();
        if prom_metric(&prom, "mb2_server_inflight_queries").unwrap_or(0.0) == 0.0 {
            return;
        }
        assert!(Instant::now() < deadline, "server never went idle");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// An interference model trained on a synthetic contention law where the
/// slowdown grows with the aggregate in-flight demand — enough signal for
/// admission to price the same query differently under load.
fn contention_interference(seed: u64) -> InterferenceModel {
    let mut rng = Prng::new(seed);
    let mut data = Dataset::default();
    let window = 500_000.0;
    for _ in 0..400 {
        let self_elapsed = 50.0 + rng.next_f64() * 500.0;
        let mut self_pred = Metrics::ZERO;
        self_pred[idx::ELAPSED_US] = self_elapsed;
        self_pred[idx::CPU_US] = self_elapsed * 0.9;
        let threads = 1 + (rng.next_f64() * 8.0) as usize;
        let totals: Vec<Metrics> = (0..threads)
            .map(|_| {
                let e = rng.next_f64() * 200_000.0;
                let mut m = Metrics::ZERO;
                m[idx::ELAPSED_US] = e;
                m[idx::CPU_US] = e * 0.9;
                m
            })
            .collect();
        let demand: f64 = totals.iter().map(|t| t[idx::CPU_US]).sum::<f64>() / window;
        let ratio = 1.0 + 4.0 * demand;
        let f = InterferenceInputs::features(&self_pred, &totals, window);
        let actual = self_pred.scale(ratio);
        data.push(f, InterferenceInputs::ratio_labels(&actual, &self_pred));
    }
    InterferenceModel::train(&data, 3).expect("interference training")
}

/// Raw v1 conversation: hello, then one query, returning the raw bytes of
/// every response frame payload (handshake reply + query reply).
fn raw_v1_exchange(addr: &str, sql: &str) -> Vec<Vec<u8>> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    wire::write_frame_v(
        &mut stream,
        &Frame::ClientHello {
            version: 1,
            tenant: String::new(),
            tier: u8::MAX,
        },
        1,
    )
    .unwrap();
    let mut frames = Vec::new();
    frames.push(read_raw_frame(&mut stream));
    wire::write_frame_v(
        &mut stream,
        &Frame::Query {
            sql: sql.to_string(),
        },
        1,
    )
    .unwrap();
    frames.push(read_raw_frame(&mut stream));
    frames
}

/// A generous tier for traffic that must always get through, plus a
/// starved tier used to drive the queue/deadline paths deterministically.
fn two_tier_policy(low_budget_us: f64, low_deadline: Duration) -> SchedulerPolicy {
    SchedulerPolicy {
        tiers: vec![
            TierPolicy {
                name: "interactive".into(),
                slo_budget_us: 1e12,
                queue_deadline: Duration::from_secs(2),
            },
            TierPolicy {
                name: "batch".into(),
                slo_budget_us: low_budget_us,
                queue_deadline: low_deadline,
            },
        ],
        queue_capacity: 8,
        default_tenant_quota: 0,
        tenant_quotas: HashMap::new(),
        interference_window_us: 500_000.0,
    }
}

fn prom_metric(prom: &str, prefix: &str) -> Option<f64> {
    prom.lines()
        .find(|l| l.starts_with(prefix))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse::<f64>().ok())
}

/// Cold start must be honest: a server configured with a scheduler policy
/// but no trained models (and one with explicitly *empty* models attached)
/// answers overload with wire bytes identical to the legacy semaphore
/// server, frame for frame.
#[test]
fn untrained_scheduler_is_byte_identical_to_semaphore() {
    // max_inflight_queries = 0 makes every query an admission rejection,
    // so the comparison is deterministic.
    let legacy = start_server(
        DatabaseConfig::default(),
        ServerConfig {
            max_inflight_queries: 0,
            ..ServerConfig::default()
        },
    );
    let untrained = start_server(
        DatabaseConfig::default(),
        ServerConfig {
            max_inflight_queries: 0,
            scheduler: Some(SchedulerPolicy::default()),
            ..ServerConfig::default()
        },
    );
    let empty_models = start_server(
        DatabaseConfig::default(),
        ServerConfig {
            max_inflight_queries: 0,
            scheduler: Some(SchedulerPolicy::default()),
            ..ServerConfig::default()
        },
    );
    // Attached but empty models must also fall back.
    empty_models.attach_models(Arc::new(BehaviorModels::new(OuModelSet::default(), None)));

    let baseline = raw_v1_exchange(&legacy.local_addr().to_string(), "SELECT 1");
    for server in [&untrained, &empty_models] {
        let got = raw_v1_exchange(&server.local_addr().to_string(), "SELECT 1");
        assert_eq!(
            got, baseline,
            "fallback wire bytes must match the legacy semaphore exactly"
        );
    }
    // Sanity: the reply really is the legacy busy frame (v1: no hint bytes).
    match wire::decode_payload(&baseline[1]).unwrap() {
        Frame::Busy {
            reason,
            message,
            retry_after_ms,
        } => {
            assert_eq!(reason, BusyReason::Queries);
            assert_eq!(message, "0 queries in flight (limit 0)");
            assert_eq!(retry_after_ms, 0);
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    legacy.shutdown();
    untrained.shutdown();
    empty_models.shutdown();
}

/// Regression (the permit-lifetime bug): the admission slot must be held
/// until the final `Done` frame is flushed. With `max_inflight_queries = 1`
/// and a client that deliberately stops reading mid-result, a second
/// client's query must shed with `Busy` — the slot is *not* free just
/// because execution finished producing rows.
#[test]
fn permit_held_until_final_frame_flushed() {
    let server = start_server(
        DatabaseConfig::default(),
        ServerConfig {
            max_inflight_queries: 1,
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr().to_string();
    // ~18 MB of result bytes: more than twice what the loopback send +
    // receive buffers can hold combined, so the server's writer reliably
    // blocks while the slow reader stalls.
    seed_big(&addr, 30_000, 600);
    // The seed connection's last permit can outlive its final `Done` by a
    // few milliseconds; with `max_inflight_queries = 1` that would shed
    // the big query below, so wait for the slot to actually free.
    wait_idle(&server);

    // Slow reader: send the big query, read only the handshake, then stall.
    let mut slow = TcpStream::connect(&addr).expect("slow connect");
    wire::write_frame(
        &mut slow,
        &Frame::ClientHello {
            version: wire::PROTOCOL_VERSION,
            tenant: String::new(),
            tier: u8::MAX,
        },
    )
    .unwrap();
    let _hello = read_raw_frame(&mut slow);
    wire::write_frame(
        &mut slow,
        &Frame::Query {
            sql: "SELECT * FROM big".into(),
        },
    )
    .unwrap();
    // Wait until the query is admitted (the inflight gauge flips to 1),
    // then give the writer a moment to fill the socket buffers and block.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let prom = server.db().metrics_prometheus();
        if prom_metric(&prom, "mb2_server_inflight_queries").unwrap_or(0.0) >= 1.0 {
            break;
        }
        assert!(
            prom_metric(&prom, "mb2_server_queries_rejected_total").unwrap_or(0.0) == 0.0,
            "big query was shed instead of admitted"
        );
        assert!(Instant::now() < deadline, "big query never admitted");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(200));

    let mut other = Client::connect(&addr).expect("second client");
    let err = match other.query("SELECT COUNT(*) FROM big") {
        Err(e) => e,
        Ok(resp) => {
            let prom = server.db().metrics_prometheus();
            let diag: Vec<&str> = prom
                .lines()
                .filter(|l| l.contains("mb2_server") && !l.starts_with('#'))
                .collect();
            panic!(
                "slot must still be held while the final frame is unflushed; \
                 probe got {:?} rows; server metrics:\n{}",
                resp.rows,
                diag.join("\n")
            );
        }
    };
    match err {
        DbError::ServerBusy(msg) => assert!(
            msg.contains("1 queries in flight"),
            "unexpected busy message: {msg}"
        ),
        other => panic!("expected ServerBusy, got {other:?}"),
    }

    // Drain the stalled response; once the final Done is flushed the slot
    // frees and the probe query gets through.
    let mut sink = vec![0u8; 1 << 20];
    slow.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let _ = slow.read(&mut sink); // timeouts fine: probe paces the loop
        match other.query("SELECT COUNT(*) FROM big") {
            Ok(resp) => {
                assert_eq!(resp.rows, vec![vec![Value::Int(30_000)]]);
                break;
            }
            Err(DbError::ServerBusy(_)) => {
                assert!(
                    Instant::now() < deadline,
                    "slot never freed after draining the response"
                );
            }
            Err(e) => panic!("probe query failed: {e:?}"),
        }
    }
    server.shutdown();
}

/// Satellite 4: seeded starvation at parallelism 1/2/8. A starved low tier
/// (zero SLO budget — it can never be admitted) must come back as a typed
/// `Busy(DeadlineExceeded)` with a retry hint after its queue deadline;
/// never a hang, never a silent drop — while high-tier traffic keeps
/// flowing the whole time.
#[test]
fn seeded_starvation_deadline_eviction_at_each_parallelism() {
    let seed: u64 = std::env::var("MB2_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2021);
    for parallelism in [1usize, 2, 8] {
        let mut rng = Prng::new(seed ^ parallelism as u64);
        let mut db_cfg = DatabaseConfig::default();
        db_cfg.knobs.parallelism = parallelism;
        let deadline = Duration::from_millis(150);
        let server = start_server(
            db_cfg,
            ServerConfig {
                max_inflight_queries: 1,
                scheduler: Some(two_tier_policy(0.0, deadline)),
                ..ServerConfig::default()
            },
        );
        let addr = server.local_addr().to_string();
        seed_big(&addr, 2_000, 8);
        server.attach_models(trained_models(&server.db(), None));

        // High-tier stream in the background: a seeded number of cheap
        // queries that must all succeed while the low tier is starved.
        let hi_addr = addr.clone();
        let hi_queries = 4 + (rng.next_f64() * 8.0) as usize;
        let hi = std::thread::spawn(move || {
            let mut c = Client::connect_with(&hi_addr, "t0", 0).expect("hi connect");
            for _ in 0..hi_queries {
                c.query("SELECT COUNT(*) FROM big").expect("hi-tier query");
                std::thread::sleep(Duration::from_millis(10));
            }
        });

        let mut low = Client::connect_with(&addr, "t1", 1).expect("low connect");
        let started = Instant::now();
        let err = low
            .query("SELECT COUNT(*) FROM big")
            .expect_err("zero-budget tier can never be admitted");
        let waited = started.elapsed();
        match err {
            DbError::ServerBusy(msg) => assert!(
                msg.contains("deadline"),
                "parallelism {parallelism}: expected deadline eviction, got: {msg}"
            ),
            other => panic!("parallelism {parallelism}: expected ServerBusy, got {other:?}"),
        }
        assert!(
            waited >= deadline - Duration::from_millis(5),
            "parallelism {parallelism}: evicted before the deadline ({waited:?})"
        );
        assert!(
            waited < Duration::from_secs(5),
            "parallelism {parallelism}: eviction took {waited:?} — effectively a hang"
        );
        assert!(
            low.last_retry_hint().is_some(),
            "parallelism {parallelism}: deadline eviction must carry a retry hint"
        );

        hi.join().expect("high-tier stream must survive starvation");

        // The shed shows up split by reason, and the unlabeled total keeps
        // counting everything.
        let prom = server.db().metrics_prometheus();
        let by_reason =
            prom_metric(&prom, "mb2_server_queries_shed_total{reason=\"deadline\"}").unwrap_or(0.0);
        assert!(
            by_reason >= 1.0,
            "parallelism {parallelism}: deadline shed not counted: {by_reason}"
        );
        let total = prom_metric(&prom, "mb2_server_queries_rejected_total").unwrap_or(0.0);
        assert!(
            total >= by_reason,
            "unlabeled total {total} < labeled deadline count {by_reason}"
        );
        server.shutdown();
    }
}

/// Tenant quotas: a tenant at its concurrent-query quota sheds with
/// `Busy(Quota)` and a retry hint while other tenants keep running.
#[test]
fn tenant_quota_sheds_with_typed_busy() {
    let mut policy = two_tier_policy(1e12, Duration::from_millis(500));
    policy.tenant_quotas.insert("noisy".into(), 1);
    let server = start_server(
        DatabaseConfig::default(),
        ServerConfig {
            max_inflight_queries: 4,
            scheduler: Some(policy),
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr().to_string();
    // ~18 MB of result bytes: big enough that a non-reading client keeps
    // its query in flight no matter how the socket buffers autotune.
    seed_big(&addr, 30_000, 600);
    server.attach_models(trained_models(&server.db(), None));
    wait_idle(&server);

    // Tenant "noisy" holds its one slot open: send the query, never read.
    let mut holder = TcpStream::connect(&addr).expect("holder connect");
    wire::write_frame(
        &mut holder,
        &Frame::ClientHello {
            version: wire::PROTOCOL_VERSION,
            tenant: "noisy".into(),
            tier: 0,
        },
    )
    .unwrap();
    let _hello = read_raw_frame(&mut holder);
    wire::write_frame(
        &mut holder,
        &Frame::Query {
            sql: "SELECT * FROM big".into(),
        },
    )
    .unwrap();
    // Wait until the holder's query is actually admitted before probing.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let prom = server.db().metrics_prometheus();
        if prom_metric(&prom, "mb2_server_inflight_queries").unwrap_or(0.0) >= 1.0 {
            break;
        }
        assert!(Instant::now() < deadline, "holder query never admitted");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(100));

    let mut noisy2 = Client::connect_with(&addr, "noisy", 0).expect("noisy2 connect");
    let err = noisy2
        .query("SELECT COUNT(*) FROM big")
        .expect_err("tenant at quota must shed");
    match err {
        DbError::ServerBusy(msg) => {
            assert!(msg.contains("quota"), "unexpected busy message: {msg}")
        }
        other => panic!("expected ServerBusy, got {other:?}"),
    }
    assert!(
        noisy2.last_retry_hint().is_some(),
        "quota shed must carry a retry hint"
    );

    // A different tenant is unaffected.
    let mut quiet = Client::connect_with(&addr, "quiet", 0).expect("quiet connect");
    let resp = quiet
        .query("SELECT COUNT(*) FROM big")
        .expect("quiet query");
    assert_eq!(resp.rows, vec![vec![Value::Int(30_000)]]);

    let prom = server.db().metrics_prometheus();
    let quota_sheds =
        prom_metric(&prom, "mb2_server_queries_shed_total{reason=\"quota\"}").unwrap_or(0.0);
    assert!(quota_sheds >= 1.0, "quota shed not counted: {quota_sheds}");
    drop(holder);
    server.shutdown();
}

/// The interference fold-in: the same statement that is admitted on an
/// idle server is rejected when the in-flight mix predicts contention past
/// the tier budget — and admitted again once the mix drains.
#[test]
fn interference_prediction_gates_admission() {
    let db = Database::open();
    db.execute("CREATE TABLE big (pk INT, grp INT, v VARCHAR)")
        .unwrap();
    for chunk in (0..3000i64).collect::<Vec<_>>().chunks(500) {
        let vals: Vec<String> = chunk
            .iter()
            .map(|i| format!("({i}, {}, 'x')", i % 100))
            .collect();
        db.execute(&format!("INSERT INTO big VALUES {}", vals.join(", ")))
            .unwrap();
    }
    db.execute("ANALYZE big").unwrap();

    let models = trained_models(&db, Some(contention_interference(3)));
    let sql = "SELECT * FROM big WHERE grp = 1";

    // Measure the model's own view of the statement: isolated cost, and
    // cost adjusted against one expensive in-flight neighbor.
    let plan = db.prepare(sql).unwrap();
    let pred = models.predict_plan(&plan, &db.knobs());
    let window = 500_000.0;
    let interference = models.interference.as_ref().unwrap();
    let idle_us: f64 = pred.total.elapsed_us();
    let mut heavy = Metrics::ZERO;
    heavy[idx::ELAPSED_US] = 150_000.0;
    heavy[idx::CPU_US] = 135_000.0;
    let loaded_us: f64 = pred
        .per_ou
        .iter()
        .map(|(_, m)| {
            interference
                .adjust(m, &[heavy, Metrics::ZERO], window)
                .elapsed_us()
        })
        .sum();
    assert!(
        loaded_us > idle_us * 1.5,
        "contention law not learned: idle {idle_us:.0}µs loaded {loaded_us:.0}µs"
    );

    // Budget between the two: admitted idle, rejected under load. Queue
    // capacity 0 turns "would queue" into an immediate typed rejection.
    let mut policy = two_tier_policy(0.0, Duration::from_millis(100));
    policy.tiers[0].slo_budget_us = (idle_us + loaded_us) / 2.0;
    policy.queue_capacity = 0;
    policy.interference_window_us = window;
    let sched = Scheduler::new(2, Some(policy));
    sched.attach_models(models);
    let ctx = ConnSchedCtx {
        tenant: String::new(),
        tier: 0,
    };

    // Idle: admitted.
    let first = match sched.admit(&db, sql, &ctx) {
        Decision::Admit(tok) => tok,
        Decision::Reject { message, .. } => panic!("idle admission rejected: {message}"),
    };

    // Charge a heavy neighbor into the mix, then retry the same statement:
    // the interference-adjusted cost must now bust the budget.
    let heavy_tok = match sched.admit(&db, "SELECT * FROM big", &ctx) {
        Decision::Admit(tok) => tok,
        Decision::Reject { message, .. } => panic!("heavy admission rejected: {message}"),
    };
    match sched.admit(&db, sql, &ctx) {
        Decision::Reject {
            reason,
            retry_after_ms,
            ..
        } => {
            assert_eq!(reason, BusyReason::QueueFull);
            assert!(retry_after_ms >= 1, "rejection must carry a retry hint");
        }
        Decision::Admit(_) => {
            panic!("admission ignored the interference-predicted contention")
        }
    }

    // Drain the mix: the statement fits again.
    sched.finish(first);
    sched.finish(heavy_tok);
    match sched.admit(&db, sql, &ctx) {
        Decision::Admit(_) => {}
        Decision::Reject { message, .. } => panic!("post-drain admission rejected: {message}"),
    }
}

/// `SHOW SCHED` reports the live mode: fallback before models arrive,
/// predictive (with tier rows) after.
#[test]
fn show_sched_reports_mode_and_tiers() {
    let server = start_server(
        DatabaseConfig::default(),
        ServerConfig {
            scheduler: Some(SchedulerPolicy::default()),
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr().to_string();
    seed_big(&addr, 500, 8);

    let mut c = Client::connect(&addr).expect("connect");
    let rows: Vec<String> = c
        .query("SHOW SCHED")
        .expect("show sched")
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Varchar(s) => s.clone(),
            other => panic!("expected varchar row, got {other:?}"),
        })
        .collect();
    assert_eq!(rows[0], "mode fallback");
    assert!(rows.iter().any(|r| r.contains("tier 0 interactive")));

    server.attach_models(trained_models(&server.db(), None));
    let rows: Vec<String> = c
        .query("SHOW SCHED")
        .expect("show sched predictive")
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Varchar(s) => s.clone(),
            other => panic!("expected varchar row, got {other:?}"),
        })
        .collect();
    assert_eq!(rows[0], "mode predictive");
    server.shutdown();
}
