//! Operator commands answered by the server itself: `SHOW METRICS`,
//! `SHOW PILOT`, `SHOW SHARDS`, and `SHOW BLOCKS` are intercepted before
//! the SQL layer and return plain Varchar row batches over the existing
//! wire protocol.

use std::sync::Arc;

use mb2_common::Value;
use mb2_core::training::OuModelSet;
use mb2_core::BehaviorModels;
use mb2_engine::{Database, DatabaseConfig};
use mb2_pilot::{Pilot, PilotConfig};
use mb2_server::{Client, Server, ServerConfig};

fn text_of(row: &[Value]) -> &str {
    match &row[0] {
        Value::Varchar(s) => s,
        other => panic!("expected Varchar, got {other:?}"),
    }
}

#[test]
fn show_metrics_and_show_pilot_over_the_wire() {
    let db = Arc::new(Database::new(DatabaseConfig::default()).expect("database"));
    let server = Server::start(db.clone(), ServerConfig::default()).expect("server start");
    let mut client = Client::connect(server.local_addr().to_string()).expect("connect");

    // Generate some traffic so the metrics text is non-trivial.
    client.query("CREATE TABLE t (id INT, v INT)").unwrap();
    client.query("INSERT INTO t VALUES (1, 10)").unwrap();

    // SHOW METRICS: one Varchar row per prometheus exposition line.
    let resp = client.query("SHOW METRICS").expect("show metrics");
    assert!(!resp.rows.is_empty());
    assert_eq!(resp.count, resp.rows.len() as u64);
    assert!(
        resp.rows.iter().any(|r| text_of(r).starts_with("mb2_")),
        "no mb2_ metric lines in {:?}",
        resp.rows.iter().take(5).collect::<Vec<_>>()
    );

    // No pilot attached yet.
    let resp = client.query("SHOW PILOT").expect("show pilot");
    assert_eq!(resp.rows.len(), 1);
    assert_eq!(text_of(&resp.rows[0]), "{\"state\":\"detached\"}");

    // Attach a pilot: SHOW PILOT now reports its live status JSON.
    let models = Arc::new(BehaviorModels::new(OuModelSet::default(), None));
    let pilot = Pilot::new(db, models, PilotConfig::default());
    server.attach_pilot(pilot);
    let resp = client.query("SHOW PILOT").expect("show pilot attached");
    assert_eq!(resp.rows.len(), 1);
    let json = text_of(&resp.rows[0]);
    assert!(json.contains("\"state\":\"idle\""), "{json}");
    assert!(json.contains("\"ticks\""), "{json}");

    // Case-insensitive, tolerates trailing semicolon/whitespace.
    let resp = client.query("  show pilot ; ").expect("lowercase");
    assert_eq!(resp.rows.len(), 1);

    // Ordinary SQL still takes the normal path.
    let resp = client.query("SELECT id FROM t").expect("select");
    assert_eq!(resp.rows.len(), 1);

    server.shutdown();
}

#[test]
fn show_shards_reports_per_shard_storage_over_the_wire() {
    let mut config = DatabaseConfig::default();
    config.knobs.shard_count = 4;
    let db = Arc::new(Database::new(config).expect("database"));
    let server = Server::start(db, ServerConfig::default()).expect("server start");
    let mut client = Client::connect(server.local_addr().to_string()).expect("connect");

    client.query("CREATE TABLE t (id INT)").unwrap();
    // 600 rows span the first 512-slot shard unit into the second shard.
    for base in (0..600).step_by(100) {
        let values: Vec<String> = (base..base + 100).map(|i| format!("({i})")).collect();
        client
            .query(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
    }

    let resp = client.query("SHOW SHARDS").expect("show shards");
    // Header + one row per shard of the 4-shard table.
    assert_eq!(resp.rows.len(), 5, "{:?}", resp.rows);
    assert!(text_of(&resp.rows[0]).starts_with("table shard slots tuples"));
    let mut tuples_total = 0u64;
    for (i, row) in resp.rows[1..].iter().enumerate() {
        let fields: Vec<&str> = text_of(row).split_whitespace().collect();
        assert_eq!(fields[0], "t");
        assert_eq!(fields[1], i.to_string(), "shard rows in shard order");
        tuples_total += fields[3].parse::<u64>().unwrap();
    }
    assert_eq!(tuples_total, 600, "live tuples partition across shards");
    // Shards 0 and 1 both hold rows (600 > one 512-slot unit).
    let shard1: Vec<&str> = text_of(&resp.rows[2]).split_whitespace().collect();
    assert!(shard1[3].parse::<u64>().unwrap() > 0, "{shard1:?}");

    server.shutdown();
}

#[test]
fn show_blocks_reports_sealed_columnar_state_over_the_wire() {
    // One shard, so the table reports exactly one block row on any host.
    let mut config = DatabaseConfig::default();
    config.knobs.shard_count = 1;
    let db = Arc::new(Database::new(config).expect("database"));
    let server = Server::start(db.clone(), ServerConfig::default()).expect("server start");
    let mut client = Client::connect(server.local_addr().to_string()).expect("connect");

    client.query("CREATE TABLE t (id INT, v INT)").unwrap();
    // 700 rows fill one 512-slot unit completely; compaction seals it.
    for base in (0..700).step_by(100) {
        let values: Vec<String> = (base..base + 100).map(|i| format!("({i}, {i})")).collect();
        client
            .query(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
    }

    // Before compaction: the table row reports zero blocks.
    let resp = client.query("SHOW BLOCKS").expect("show blocks");
    assert_eq!(resp.rows.len(), 2, "{:?}", resp.rows);
    assert!(text_of(&resp.rows[0]).starts_with("table shard blocks dirty sealed_tuples"));
    let fields: Vec<&str> = text_of(&resp.rows[1]).split_whitespace().collect();
    assert_eq!(fields[..3], ["t", "0", "0"], "{fields:?}");

    let report = db.compact_now();
    assert!(report.units_sealed >= 1, "{report:?}");

    let resp = client.query("SHOW BLOCKS").expect("show blocks sealed");
    assert_eq!(resp.rows.len(), 2);
    let fields: Vec<String> = text_of(&resp.rows[1])
        .split_whitespace()
        .map(str::to_string)
        .collect();
    assert_eq!(fields[0], "t");
    assert_eq!(fields[2], "1", "one sealed block: {fields:?}");
    assert_eq!(fields[3], "0", "nothing dirty yet: {fields:?}");
    assert_eq!(fields[4], "512", "one full unit sealed: {fields:?}");

    // Writing into the sealed unit dirties its block back to the row path.
    client.query("UPDATE t SET v = -1 WHERE id = 5").unwrap();
    let resp = client.query("SHOW BLOCKS").expect("show blocks dirty");
    let fields: Vec<&str> = text_of(&resp.rows[1]).split_whitespace().collect();
    assert_eq!(fields[3], "1", "sealed block now dirty: {fields:?}");

    server.shutdown();
}
