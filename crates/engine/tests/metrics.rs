//! End-to-end observability: run real SQL against a [`Database`] and assert
//! the Prometheus text output and JSON snapshot reflect it.

use std::sync::Arc;
use std::time::Duration;

use mb2_common::fault::{points, FaultMode};
use mb2_common::FaultInjector;
use mb2_engine::{Database, DatabaseConfig};

fn sample_value(text: &str, sample: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(sample) && l.as_bytes().get(sample.len()) == Some(&b' '))
        .unwrap_or_else(|| panic!("sample {sample} missing from:\n{text}"))
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

#[test]
fn prometheus_scrape_reflects_executed_statements() {
    let db = Database::open();
    db.execute("CREATE TABLE t (a INT, b VARCHAR(8))").unwrap();
    for i in 0..20 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, 'v')"))
            .unwrap();
    }
    db.execute("UPDATE t SET a = a + 1 WHERE a < 5").unwrap();
    db.execute("DELETE FROM t WHERE a > 18").unwrap();
    db.execute("SELECT COUNT(*) FROM t").unwrap();
    db.execute("CREATE INDEX idx_a ON t (a)").unwrap();
    // Division by zero fails at execution time, so it is counted (a plan
    // error would never reach the executor and would go uncounted).
    assert!(db.execute("SELECT a / (a - a) FROM t").is_err());

    let text = db.metrics_prometheus();

    // Statement families, by kind.
    assert_eq!(sample_value(&text, "mb2_stmt_total{kind=\"insert\"}"), 20);
    assert_eq!(sample_value(&text, "mb2_stmt_total{kind=\"update\"}"), 1);
    assert_eq!(sample_value(&text, "mb2_stmt_total{kind=\"delete\"}"), 1);
    // Two selects: the COUNT(*) and the failing projection.
    assert_eq!(sample_value(&text, "mb2_stmt_total{kind=\"select\"}"), 2);
    // Two DDLs: CREATE TABLE (bypasses the planner) + CREATE INDEX.
    assert_eq!(sample_value(&text, "mb2_stmt_total{kind=\"ddl\"}"), 2);
    assert_eq!(
        sample_value(&text, "mb2_stmt_errors_total{kind=\"select\"}"),
        1
    );
    // Latency histograms record successes only.
    assert_eq!(
        sample_value(&text, "mb2_stmt_latency_us_count{kind=\"insert\"}"),
        20
    );
    assert_eq!(
        sample_value(&text, "mb2_stmt_latency_us_count{kind=\"select\"}"),
        1
    );

    // Subsystem families are present and plausible.
    assert!(sample_value(&text, "mb2_txn_commits_total") >= 23);
    assert!(sample_value(&text, "mb2_txn_aborts_total") >= 1);
    assert!(sample_value(&text, "mb2_wal_records_serialized_total") > 0);
    assert_eq!(sample_value(&text, "mb2_index_builds_total"), 1);
    assert!(sample_value(&text, "mb2_index_build_entries_total") > 0);

    // Exposition-format invariants: one HELP/TYPE header per family, and
    // every histogram ends with a +Inf bucket.
    assert_eq!(
        text.matches("# TYPE mb2_stmt_latency_us histogram").count(),
        1
    );
    assert!(text.contains("mb2_stmt_latency_us_bucket{kind=\"insert\",le=\"+Inf\"} 20"));
}

#[test]
fn ou_recorder_populates_runtime_histograms() {
    let db = Database::open();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    for i in 0..10 {
        db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    let recorder = db.obs_recorder().clone();
    let plan = db.prepare("SELECT * FROM t WHERE a < 5").unwrap();
    db.execute_plan(&plan, Some(recorder.as_ref())).unwrap();

    let text = db.metrics_prometheus();
    assert!(sample_value(&text, "mb2_ou_invocations_total{ou=\"seq_scan\"}") >= 1);
    assert!(sample_value(&text, "mb2_ou_elapsed_us_count{ou=\"seq_scan\"}") >= 1);
}

#[test]
fn json_snapshot_parses_shape() {
    let db = Database::open();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();

    let json = db.metrics_json();
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert!(json.contains("\"name\":\"mb2_stmt_total\""));
    assert!(json.contains("\"labels\":{\"kind\":\"insert\"}"));
    assert!(json.contains("\"type\":\"counter\""));
    assert!(json.contains("\"type\":\"histogram\""));
}

#[test]
fn sessions_and_disabled_tracker_still_count() {
    let db = Database::new(DatabaseConfig {
        metrics_enabled: false,
        ..DatabaseConfig::default()
    })
    .unwrap();
    assert!(!db.metrics().is_enabled());

    let mut s = db.session();
    s.execute("CREATE TABLE t (a INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    drop(s);

    let text = db.metrics_prometheus();
    // Counters survive the tracker being off...
    assert_eq!(sample_value(&text, "mb2_sessions_total"), 1);
    assert_eq!(sample_value(&text, "mb2_stmt_total{kind=\"insert\"}"), 1);
    // ...but no latency samples were taken (spans were dead).
    assert_eq!(
        sample_value(&text, "mb2_stmt_latency_us_count{kind=\"insert\"}"),
        0
    );

    db.set_metrics_enabled(true);
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    let text = db.metrics_prometheus();
    assert_eq!(
        sample_value(&text, "mb2_stmt_latency_us_count{kind=\"insert\"}"),
        1
    );
}

#[test]
fn shared_registry_scrapes_two_databases() {
    let registry = mb2_engine::obs::MetricsRegistry::shared();
    let a = Database::new(DatabaseConfig {
        metrics: Some(registry.clone()),
        ..DatabaseConfig::default()
    })
    .unwrap();
    let b = Database::new(DatabaseConfig {
        metrics: Some(registry.clone()),
        ..DatabaseConfig::default()
    })
    .unwrap();
    a.execute("CREATE TABLE t (a INT)").unwrap();
    b.execute("CREATE TABLE u (a INT)").unwrap();

    let text = registry.prometheus_text();
    assert_eq!(sample_value(&text, "mb2_stmt_total{kind=\"ddl\"}"), 2);
}

#[test]
fn plan_cache_hits_misses_and_ddl_invalidation() {
    let db = Database::open();
    db.execute("CREATE TABLE pc (a INT)").unwrap();
    db.execute("INSERT INTO pc VALUES (1)").unwrap();

    let sql = "SELECT a FROM pc WHERE a = 1";
    let p1 = db.prepare_cached(sql).unwrap();
    let p2 = db.prepare_cached(sql).unwrap();
    assert!(std::sync::Arc::ptr_eq(&p1, &p2), "second lookup must hit");
    let text = db.metrics_prometheus();
    assert_eq!(sample_value(&text, "mb2_plan_cache_hits_total"), 1);
    assert_eq!(sample_value(&text, "mb2_plan_cache_misses_total"), 1);

    // DDL (an index build) invalidates: the next lookup re-plans, and the
    // fresh plan must use the new index rather than the cached seq scan.
    db.execute("CREATE INDEX idx_pc_a ON pc (a)").unwrap();
    let p3 = db.prepare_cached(sql).unwrap();
    assert!(!std::sync::Arc::ptr_eq(&p1, &p3), "DDL must invalidate");
    let text = db.metrics_prometheus();
    assert_eq!(sample_value(&text, "mb2_plan_cache_misses_total"), 2);

    // Cached plans execute correctly.
    let result = db.execute_plan(&p3, None).unwrap();
    assert_eq!(result.rows.len(), 1);
}

/// A database with fault injection and a one-row table `t`, plus the
/// `kind="update"` latency histogram and error counter.
fn update_series_db() -> (
    Arc<FaultInjector>,
    Database,
    Arc<mb2_engine::obs::Histogram>,
    Arc<mb2_engine::obs::Counter>,
) {
    let faults = Arc::new(FaultInjector::new(7));
    let db = Database::new(DatabaseConfig {
        faults: Some(faults.clone()),
        ..DatabaseConfig::default()
    })
    .unwrap();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    let kind = [("kind", "update")];
    let latency = db
        .metrics()
        .histogram_with("mb2_stmt_latency_us", &kind, "");
    let errors = db
        .metrics()
        .counter_with("mb2_stmt_errors_total", &kind, "");
    (faults, db, latency, errors)
}

/// A streamed autocommit UPDATE — the wire path.
fn streamed_update(db: &Database) -> mb2_common::DbResult<usize> {
    db.session()
        .execute_streaming("UPDATE t SET a = a + 1", None, &mut |_| Ok(()))
}

/// Streamed autocommit latency spans the commit: a stalled commit shows in
/// `mb2_stmt_latency_us`.
#[test]
fn streamed_autocommit_latency_includes_the_commit() {
    let (faults, db, latency, _) = update_series_db();
    let stall = Duration::from_millis(20);
    faults.arm_delay(points::TXN_COMMIT, stall);
    let (count, sum) = (latency.count(), latency.sum());
    assert_eq!(streamed_update(&db).unwrap(), 1);
    assert_eq!(latency.count(), count + 1);
    let sample_us = latency.sum() - sum;
    assert!(
        sample_us >= stall.as_micros() as u64,
        "autocommit latency {sample_us}us left out the {stall:?} commit stall"
    );
}

/// A failed commit of a streamed autocommit statement is a statement
/// error.
#[test]
fn streamed_autocommit_commit_failure_is_a_statement_error() {
    let (faults, db, latency, errors) = update_series_db();
    faults.arm(points::TXN_COMMIT, FaultMode::Nth(1));
    let (count, before) = (latency.count(), errors.get());
    assert!(streamed_update(&db).is_err(), "the armed commit must fail");
    assert_eq!(
        errors.get(),
        before + 1,
        "errors{{kind=\"update\"}} missed it"
    );
    assert_eq!(latency.count(), count, "failures record no latency");
}
