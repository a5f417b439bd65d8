//! The one statement path: a statement behaves the same whichever entry
//! runs it — materialized or streamed, autocommit or inside a session
//! transaction. Regression tests for the places the streamed
//! in-transaction path used to fall short of the materialized one.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mb2_engine::{recover, Database, DatabaseConfig, Session, StatementTap};

/// Run `sql` through the session's streaming entry, discarding batches.
fn stream(session: &mut Session<'_>, sql: &str) -> usize {
    session
        .execute_streaming(sql, None, &mut |_| Ok(()))
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
}

const POINT: &str = "SELECT b FROM t WHERE a = 7";

/// A 200-row table `t (a, b)`, analyzed, with [`POINT`]'s plan cached.
fn seeded(config: DatabaseConfig) -> Database {
    let db = Database::new(config).unwrap();
    db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    let rows: Vec<String> = (0..200).map(|i| format!("({i}, {})", i * 10)).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
        .unwrap();
    db.execute("ANALYZE t").unwrap();
    let plan = db.prepare_cached(POINT).unwrap();
    assert!(!plan.explain().contains("IndexScan"), "{}", plan.explain());
    db
}

/// `BEGIN; CREATE INDEX …; COMMIT` over the streaming entry (the wire
/// path).
fn build_index_in_streamed_transaction(db: &Database) {
    let mut session = db.session();
    for sql in ["BEGIN", "CREATE INDEX t_a ON t (a)", "COMMIT"] {
        stream(&mut session, sql);
    }
}

/// An index built inside a streamed transaction invalidates the plan
/// cache, so a cached point SELECT re-plans onto the new index.
#[test]
fn index_built_in_a_streamed_transaction_invalidates_cached_plans() {
    let db = seeded(DatabaseConfig::default());
    build_index_in_streamed_transaction(&db);
    let plan = db.prepare_cached(POINT).unwrap();
    assert!(
        plan.explain().contains("IndexScan"),
        "cached plan survived the index build:\n{}",
        plan.explain()
    );
    assert_eq!(
        db.execute(POINT).unwrap().rows,
        vec![vec![mb2_common::Value::Int(70)]]
    );
}

/// An index built inside a streamed transaction is WAL-logged: it
/// survives recovery.
#[test]
fn index_built_in_a_streamed_transaction_survives_recovery() {
    let path = std::env::temp_dir().join(format!(
        "mb2_statement_path_index_{}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    {
        let db = seeded(DatabaseConfig {
            wal_enabled: true,
            wal_path: Some(path.clone()),
            ..DatabaseConfig::default()
        });
        build_index_in_streamed_transaction(&db);
        db.wal().unwrap().flush_now().unwrap();
    }
    let (db, report) = recover(
        &path,
        DatabaseConfig {
            wal_enabled: false,
            ..DatabaseConfig::default()
        },
    )
    .unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(report.indexes_created, 1);
    assert!(db.catalog().get("t").unwrap().index_named("t_a").is_some());
}

#[derive(Default)]
struct CountingTap(AtomicUsize);

impl StatementTap for CountingTap {
    fn observe(&self, _sql: &str) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// The statement tap sees the DML/SELECT statements of a transaction run
/// through the streaming entry exactly as it sees them through the
/// materializing one: twice for `BEGIN; SELECT; UPDATE; COMMIT`.
#[test]
fn statement_tap_sees_streamed_transactions() {
    let db = Database::open();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    let tap = Arc::new(CountingTap::default());
    db.set_statement_tap(Some(tap.clone()));
    let txn = [
        "BEGIN",
        "SELECT a FROM t",
        "UPDATE t SET a = a + 1",
        "COMMIT",
    ];

    let mut session = db.session();
    for sql in txn {
        stream(&mut session, sql);
    }
    let streamed = tap.0.swap(0, Ordering::Relaxed);
    for sql in txn {
        session.execute(sql).unwrap();
    }
    let materialized = tap.0.load(Ordering::Relaxed);
    assert_eq!(
        streamed, 2,
        "streamed transaction observed {streamed} times"
    );
    assert_eq!(streamed, materialized);
}
