//! Result-divergence tests: everything served over the wire must be
//! byte-identical to executing the same SQL in-process.

use std::sync::Arc;

use mb2_common::{Prng, Value};
use mb2_engine::{Database, DatabaseConfig};
use mb2_server::{Client, Server, ServerConfig};
use mb2_workloads::smallbank::SmallBank;
use mb2_workloads::{execute_transaction, Workload};

/// A deterministic per-client statement script: DDL, batched inserts,
/// updates, deletes, and verification selects over a private table.
fn client_script(id: usize) -> Vec<String> {
    let t = format!("t{id}");
    let mut script = vec![format!("CREATE TABLE {t} (id INT, grp INT, v INT)")];
    for chunk in 0..4 {
        let rows: Vec<String> = (0..50)
            .map(|i| {
                let k = chunk * 50 + i;
                format!("({k}, {}, {})", k % 7, (k * 31 + id) % 101)
            })
            .collect();
        script.push(format!("INSERT INTO {t} VALUES {}", rows.join(", ")));
    }
    script.push(format!(
        "UPDATE {t} SET v = v + 1000 WHERE grp = {}",
        id % 7
    ));
    script.push(format!("DELETE FROM {t} WHERE grp = {}", (id + 3) % 7));
    script.push(format!("SELECT id, grp, v FROM {t} ORDER BY id"));
    script.push(format!(
        "SELECT grp, COUNT(*), SUM(v) FROM {t} GROUP BY grp ORDER BY grp"
    ));
    script.push(format!("DELETE FROM {t} WHERE id >= 150"));
    script.push(format!("SELECT COUNT(*) FROM {t}"));
    script
}

/// Run a script in-process and return `(rows, count)` per statement with
/// the same count semantics as the wire's Done frame (rows streamed for
/// queries, rows affected for DML/DDL).
fn run_in_process(db: &Database, script: &[String]) -> Vec<(Vec<Vec<Value>>, u64)> {
    script
        .iter()
        .map(|sql| {
            let r = db.execute(sql).expect("oracle execution");
            let count = if r.rows.is_empty() {
                r.rows_affected as u64
            } else {
                r.rows.len() as u64
            };
            (r.rows, count)
        })
        .collect()
}

/// Concurrent clients running DDL+DML scripts over the wire produce results
/// byte-identical to the same scripts executed in-process.
#[test]
fn concurrent_ddl_dml_matches_in_process() {
    let server = Server::start(
        Arc::new(Database::new(DatabaseConfig::default()).unwrap()),
        ServerConfig::default(),
    )
    .expect("server");
    let addr = server.local_addr().to_string();

    // The oracle runs each script against its own in-process database:
    // scripts touch disjoint tables, so concurrency on the server side
    // must not change any per-client result.
    let handles: Vec<_> = (0..8)
        .map(|id| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let script = client_script(id);
                let oracle_db = Database::new(DatabaseConfig::default()).unwrap();
                let expected = run_in_process(&oracle_db, &script);
                oracle_db.shutdown();

                let mut client = Client::connect(&addr).expect("connect");
                for (sql, (exp_rows, exp_count)) in script.iter().zip(&expected) {
                    let got = client.query(sql).expect("wire execution");
                    assert_eq!(
                        &got.rows, exp_rows,
                        "row divergence for client {id} on `{sql}`"
                    );
                    assert_eq!(
                        got.count, *exp_count,
                        "count divergence for client {id} on `{sql}`"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    server.shutdown();
}

/// 32 concurrent read-only connections against one loaded database: every
/// wire result must equal the in-process result for the same query on the
/// same database.
#[test]
fn thirty_two_concurrent_readers_see_identical_results() {
    let db = Arc::new(Database::new(DatabaseConfig::default()).unwrap());
    db.execute("CREATE TABLE facts (id INT, grp INT, v INT)")
        .unwrap();
    for chunk in 0..10 {
        let rows: Vec<String> = (0..100)
            .map(|i| {
                let k = chunk * 100 + i;
                format!("({k}, {}, {})", k % 13, (k * 17) % 251)
            })
            .collect();
        db.execute(&format!("INSERT INTO facts VALUES {}", rows.join(", ")))
            .unwrap();
    }

    let queries: Arc<Vec<String>> = Arc::new(
        (0..13)
            .map(|g| format!("SELECT id, v FROM facts WHERE grp = {g} ORDER BY id"))
            .chain(std::iter::once(
                "SELECT grp, COUNT(*), SUM(v) FROM facts GROUP BY grp ORDER BY grp".to_string(),
            ))
            .collect(),
    );
    let expected: Arc<Vec<Vec<Vec<Value>>>> = Arc::new(
        queries
            .iter()
            .map(|q| db.execute(q).unwrap().rows)
            .collect(),
    );

    let server = Server::start(
        db,
        ServerConfig {
            max_connections: 64,
            max_inflight_queries: 64,
            ..ServerConfig::default()
        },
    )
    .expect("server");
    let addr = server.local_addr().to_string();

    // 32 workers + the main thread: everyone connects before anyone
    // queries, so all 32 connections are provably concurrent.
    let barrier = Arc::new(std::sync::Barrier::new(33));
    let handles: Vec<_> = (0..32)
        .map(|cid| {
            let addr = addr.clone();
            let queries = queries.clone();
            let expected = expected.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                barrier.wait();
                for round in 0..3 {
                    for (qi, q) in queries.iter().enumerate() {
                        let got = client.query(q).expect("wire query");
                        assert_eq!(
                            got.rows, expected[qi],
                            "client {cid} round {round} diverged on `{q}`"
                        );
                    }
                }
            })
        })
        .collect();
    barrier.wait();
    assert_eq!(server.active_connections(), 32);
    for h in handles {
        h.join().unwrap();
    }
    server.shutdown();
}

/// A seeded SmallBank stream replayed as explicit transactions over the
/// wire and in-process into an identically loaded oracle: every
/// transaction must commit or fail the same way on both sides, and the
/// final tables must be identical.
#[test]
fn smallbank_replay_over_the_wire_matches_in_process() {
    let smallbank = SmallBank::small();
    let served = Arc::new(Database::new(DatabaseConfig::default()).unwrap());
    let oracle = Database::new(DatabaseConfig::default()).unwrap();
    smallbank.load(&served).unwrap();
    smallbank.load(&oracle).unwrap();
    let server = Server::start(served, ServerConfig::default()).expect("server");
    let mut client = Client::connect(server.local_addr().to_string()).expect("connect");

    let templates = smallbank.template_names();
    let mut rng = Prng::new(0xb2b2_0001);
    for i in 0..200 {
        let template = templates[i % templates.len()];
        let statements = smallbank.sample_transaction(template, &mut rng);
        let wire = client.execute_transaction(&statements);
        let inproc = execute_transaction(&oracle, &statements);
        assert_eq!(
            wire.is_ok(),
            inproc.is_ok(),
            "txn {i} ({template}) diverged: wire {wire:?} vs in-process {inproc:?}"
        );
    }
    for q in [
        "SELECT custid, name FROM sb_accounts ORDER BY custid",
        "SELECT custid, bal FROM sb_savings ORDER BY custid",
        "SELECT custid, bal FROM sb_checking ORDER BY custid",
    ] {
        let wire = client.query(q).expect("wire dump").rows;
        assert_eq!(wire, oracle.execute(q).unwrap().rows, "`{q}` diverged");
    }
    drop(client);
    server.shutdown();
}
