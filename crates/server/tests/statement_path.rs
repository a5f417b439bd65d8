//! The one statement path over the wire. In predictive mode admission
//! prices a statement through `prepare_cached` and the session then runs
//! that cached plan, so a fresh text costs one parse and one plan (one
//! cache miss, one hit); the fallback path never touches the cache and
//! answers byte for byte what the predictive path answers; and DDL racing
//! live traffic never leaves a connection on a plan it cannot run.

mod common;

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use common::{read_raw_frame, seed_big, trained_models};
use mb2_common::{DbError, Value};
use mb2_engine::{Database, DatabaseConfig};
use mb2_server::wire::{self, Frame};
use mb2_server::{Client, SchedulerPolicy, Server, ServerConfig, TierPolicy};

/// A predictive-capable server whose single tier admits everything.
fn start(scheduler: bool) -> Server {
    let db = Arc::new(Database::new(DatabaseConfig::default()).expect("database"));
    let policy = SchedulerPolicy {
        tiers: vec![TierPolicy {
            name: "all".into(),
            slo_budget_us: 1e12,
            queue_deadline: Duration::from_secs(5),
        }],
        ..SchedulerPolicy::default()
    };
    let server = Server::start(
        db,
        ServerConfig {
            scheduler: scheduler.then_some(policy),
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    seed_big(&server.local_addr().to_string(), 1_000, 8);
    if scheduler {
        server.attach_models(trained_models(&server.db(), None));
    }
    server
}

/// `(hits, misses)` of the engine's plan cache.
fn cache_counters(db: &Database) -> (u64, u64) {
    let get = |name: &str| db.metrics().counter(name, "").get();
    (
        get("mb2_plan_cache_hits_total"),
        get("mb2_plan_cache_misses_total"),
    )
}

/// Statements never sent before on this server: `n` autocommit ones and
/// `n` for an explicit transaction.
fn fresh_texts(n: i64) -> (Vec<String>, Vec<String>) {
    let text = |i: i64| match i % 2 {
        0 => format!("SELECT pk, v FROM big WHERE pk = {i}"),
        _ => format!("UPDATE big SET v = 'u{i}' WHERE pk = {i}"),
    };
    ((0..n).map(text).collect(), (n..2 * n).map(text).collect())
}

/// The plan-cache counters each statement moved, summed.
fn counted_run(client: &mut Client, db: &Database, texts: &[String]) -> (u64, u64) {
    let mut moved = (0, 0);
    for sql in texts {
        let before = cache_counters(db);
        client.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let after = cache_counters(db);
        moved.0 += after.0 - before.0;
        moved.1 += after.1 - before.1;
    }
    moved
}

#[test]
fn predictive_statement_is_parsed_and_planned_once() {
    let server = start(true);
    let db = server.db();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let n = 6;
    let (autocommit, in_txn) = fresh_texts(n);

    let (hits, misses) = counted_run(&mut client, &db, &autocommit);
    assert_eq!(
        (hits, misses),
        (n as u64, n as u64),
        "autocommit: admission misses once, execution hits what it cached"
    );
    client.query("BEGIN").unwrap();
    let (hits, misses) = counted_run(&mut client, &db, &in_txn);
    client.query("COMMIT").unwrap();
    assert_eq!(
        (hits, misses),
        (n as u64, n as u64),
        "in a transaction: admission misses once, execution hits what it cached"
    );
    server.shutdown();
}

/// Hello, then each statement in turn; every response frame's raw payload.
fn raw_replies(server: &Server, script: &[String]) -> Vec<Vec<Vec<u8>>> {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    wire::write_frame(
        &mut stream,
        &Frame::ClientHello {
            version: wire::PROTOCOL_VERSION,
            tenant: String::new(),
            tier: 0,
        },
    )
    .unwrap();
    read_raw_frame(&mut stream);
    script
        .iter()
        .map(|sql| {
            wire::write_frame(&mut stream, &Frame::Query { sql: sql.clone() }).unwrap();
            let mut frames = Vec::new();
            loop {
                let payload = read_raw_frame(&mut stream);
                let last = !matches!(
                    wire::decode_payload(&payload).unwrap(),
                    Frame::RowBatch { .. }
                );
                frames.push(payload);
                if last {
                    return frames;
                }
            }
        })
        .collect()
}

#[test]
fn fallback_never_touches_the_cache_and_matches_predictive_bytes() {
    let predictive = start(true);
    let fallback = start(false);
    let (autocommit, in_txn) = fresh_texts(4);
    let mut script = autocommit;
    script.push("BEGIN".into());
    script.extend(in_txn);
    script.extend(
        [
            "SELECT grp, COUNT(*) FROM big GROUP BY grp ORDER BY grp",
            "COMMIT",
            "SELECT * FROM missing",
            "INSERT INTO big VALUES (5000, 1, 'new')",
            "DELETE FROM big WHERE pk = 5000",
            "SELECT pk, v FROM big WHERE pk < 10 ORDER BY pk",
        ]
        .map(String::from),
    );

    let before = cache_counters(&fallback.db());
    let want = raw_replies(&predictive, &script);
    let got = raw_replies(&fallback, &script);
    assert_eq!(
        cache_counters(&fallback.db()),
        before,
        "the fallback path must neither hit nor miss the plan cache"
    );
    for ((sql, want), got) in script.iter().zip(&want).zip(&got) {
        assert_eq!(got, want, "{sql}: fallback reply differs from predictive");
    }
    predictive.shutdown();
    fallback.shutdown();
}

#[test]
fn ddl_churn_answers_every_statement_and_keeps_every_connection() {
    let server = start(true);
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    // Readers and the DDL connection all connect before the churn starts.
    let connected = Arc::new(Barrier::new(5));
    let readers: Vec<_> = (0..4i64)
        .map(|t| {
            let stop = stop.clone();
            let connected = connected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("reader connect");
                connected.wait();
                for k in 0i64.. {
                    let grp = (k * 7 + t) % 100;
                    let pk = t * 250 + k % 250;
                    let sql = match k % 3 {
                        0 => format!("SELECT COUNT(*) FROM big WHERE grp = {grp}"),
                        1 => format!("SELECT pk FROM big WHERE pk = {pk}"),
                        _ => format!("UPDATE big SET v = 'r{t}' WHERE pk = {pk}"),
                    };
                    match client.query(&sql) {
                        Ok(resp) if k % 3 == 0 => {
                            assert_eq!(resp.rows, vec![vec![Value::Int(10)]], "{sql}")
                        }
                        Ok(_) => {}
                        Err(e @ DbError::Net(_)) => panic!("{sql}: connection lost: {e}"),
                        Err(_) => {}
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                let count = client
                    .query("SELECT COUNT(*) FROM big")
                    .expect("after churn");
                assert_eq!(count.rows, vec![vec![Value::Int(1_000)]]);
                client
            })
        })
        .collect();

    let mut ddl = Client::connect(addr).expect("ddl connect");
    connected.wait();
    for _ in 0..40 {
        ddl.query("CREATE INDEX big_grp ON big (grp)").unwrap();
        ddl.query("DROP INDEX big_grp ON big").unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let clients: Vec<_> = readers
        .into_iter()
        .map(|h| h.join().expect("reader thread"))
        .collect();
    assert_eq!(server.active_connections(), 5, "a connection worker died");
    drop(clients);
    server.shutdown();
}
