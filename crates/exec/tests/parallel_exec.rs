//! Integration tests for morsel-driven parallel execution: byte-identity
//! with serial execution across segment boundaries, LIMIT early-cut,
//! error propagation out of worker threads, empty inputs, pool sharing
//! across concurrent queries, and pool observability counters.

use std::sync::Arc;

use parking_lot::Mutex;

use mb2_catalog::Catalog;
use mb2_common::types::Tuple;
use mb2_common::{Column, Metrics, OuKind, Schema, Value};
use mb2_exec::{execute, ExecContext, ExecPool, OuRecorder, WorkCounts};
use mb2_sql::{parse, BinOp, BoundExpr, OutputSink, PlanNode, Planner, Statement};
use mb2_txn::TxnManager;

struct Harness {
    catalog: Catalog,
    txns: Arc<TxnManager>,
}

impl Harness {
    fn new() -> Harness {
        Harness {
            catalog: Catalog::new(),
            txns: TxnManager::new(None),
        }
    }

    fn ddl(&self, sql: &str) {
        match parse(sql).unwrap() {
            Statement::CreateTable { name, columns } => {
                let schema = Schema::new(
                    columns
                        .into_iter()
                        .map(|c| {
                            let mut col = Column::new(c.name, c.ty);
                            if let Some(len) = c.varchar_len {
                                col = col.with_varchar_len(len);
                            }
                            col
                        })
                        .collect(),
                );
                self.catalog.create_table(&name, schema).unwrap();
            }
            other => panic!("not ddl: {other:?}"),
        }
    }

    fn run(&self, sql: &str) {
        let plan = self.plan(sql);
        let mut txn = self.txns.begin();
        {
            let mut ctx = ExecContext::new(&self.catalog, &mut txn);
            execute(&plan, &mut ctx).unwrap();
        }
        txn.commit().unwrap();
    }

    fn plan(&self, sql: &str) -> PlanNode {
        let stmt = parse(sql).unwrap();
        Planner::new(&self.catalog).plan(&stmt).unwrap()
    }

    fn query(
        &self,
        sql: &str,
        pool: Option<&Arc<ExecPool>>,
        morsel_slots: usize,
    ) -> Result<Vec<Tuple>, mb2_common::DbError> {
        let plan = self.plan(sql);
        let mut txn = self.txns.begin();
        let rows = {
            let mut ctx = ExecContext::new(&self.catalog, &mut txn).with_morsel_slots(morsel_slots);
            if let Some(pool) = pool {
                ctx = ctx.with_pool(pool.clone());
            }
            execute(&plan, &mut ctx).map(|r| r.rows)
        };
        txn.commit().unwrap();
        rows
    }
}

/// Sums scanned tuples per OU kind (ignoring node ids).
#[derive(Default)]
struct ScanRec(Mutex<u64>);

impl OuRecorder for ScanRec {
    fn record(&self, _: u32, _: OuKind, _: Metrics) {}
    fn record_work(&self, _: u32, ou: OuKind, w: WorkCounts) {
        if ou == OuKind::SeqScan {
            *self.0.lock() += w.tuples;
        }
    }
}

/// 5000 rows: spans two storage segments (SEGMENT_SIZE = 4096), so range
/// morsels cross a segment boundary.
fn multi_segment_harness() -> Harness {
    let h = Harness::new();
    h.ddl("CREATE TABLE big (a INT, b INT)");
    let mut i = 0;
    while i < 5000 {
        let vals: Vec<String> = (i..i + 500).map(|j| format!("({j}, {})", j % 97)).collect();
        h.run(&format!("INSERT INTO big VALUES {}", vals.join(", ")));
        i += 500;
    }
    h
}

#[test]
fn parallel_matches_serial_across_segment_boundaries() {
    let h = multi_segment_harness();
    let pool = ExecPool::new(4);
    for sql in [
        "SELECT * FROM big WHERE b < 9",
        "SELECT a + b FROM big WHERE a >= 100",
        "SELECT b, COUNT(*), SUM(a), MIN(a), MAX(a) FROM big GROUP BY b ORDER BY b",
    ] {
        let serial = h.query(sql, None, 1024).unwrap();
        // Morsel sizes that do and don't divide the heap, including one
        // that straddles the 4096-slot segment boundary.
        for morsel_slots in [512usize, 1000, 3000] {
            let par = h.query(sql, Some(&pool), morsel_slots).unwrap();
            assert_eq!(
                par, serial,
                "parallel differs from serial: {sql} morsel_slots={morsel_slots}"
            );
        }
    }
}

#[test]
fn limit_prefix_is_exact_under_parallelism() {
    let h = multi_segment_harness();
    let pool = ExecPool::new(4);
    let all = h
        .query("SELECT * FROM big WHERE b = 3", None, 1024)
        .unwrap();
    assert!(all.len() > 10);
    for take in [1usize, 7, 37] {
        let sql = format!("SELECT * FROM big WHERE b = 3 LIMIT {take}");
        let par = h.query(&sql, Some(&pool), 256).unwrap();
        // The parallel LIMIT prefix must equal the serial scan-order prefix.
        assert_eq!(par.as_slice(), &all[..take]);
    }
}

#[test]
fn limit_cancels_outstanding_morsels() {
    let h = multi_segment_harness();
    let pool = ExecPool::new(2);
    let rec = ScanRec::default();
    let plan = h.plan("SELECT * FROM big LIMIT 5");
    let mut txn = h.txns.begin();
    {
        let mut ctx = ExecContext::new(&h.catalog, &mut txn)
            .with_recorder(&rec)
            .with_morsel_slots(256)
            .with_pool(pool.clone());
        let rows = execute(&plan, &mut ctx).unwrap().rows;
        assert_eq!(rows.len(), 5);
    }
    txn.commit().unwrap();
    // Cancellation is advisory (workers may complete in-flight morsels),
    // but the cut must stop the scan well short of the 5000-row heap.
    let scanned = *rec.0.lock();
    assert!(scanned >= 5, "must scan at least the emitted prefix");
    assert!(
        scanned < 5000,
        "LIMIT must cancel outstanding morsels, scanned {scanned}"
    );
}

#[test]
fn worker_errors_propagate_without_hanging() {
    let h = multi_segment_harness();
    let pool = ExecPool::new(4);
    // Division by zero fires inside a worker thread mid-scan.
    let err = h
        .query("SELECT a / (b - 3) FROM big WHERE b < 50", Some(&pool), 256)
        .unwrap_err();
    assert!(
        matches!(err, mb2_common::DbError::Execution(_)),
        "expected execution error, got {err:?}"
    );
    // The pool must survive a failed query and keep serving.
    let ok = h
        .query("SELECT * FROM big WHERE b = 0", Some(&pool), 256)
        .unwrap();
    let serial = h
        .query("SELECT * FROM big WHERE b = 0", None, 1024)
        .unwrap();
    assert_eq!(ok, serial);
}

#[test]
fn empty_and_tiny_tables_take_the_serial_path() {
    let h = Harness::new();
    h.ddl("CREATE TABLE empty (a INT)");
    h.ddl("CREATE TABLE tiny (a INT)");
    h.run("INSERT INTO tiny VALUES (1), (2), (3)");
    let pool = ExecPool::new(4);
    let before = pool.morsels_processed();
    assert!(h
        .query("SELECT * FROM empty", Some(&pool), 4)
        .unwrap()
        .is_empty());
    let rows = h.query("SELECT * FROM tiny", Some(&pool), 4).unwrap();
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(1)],
            vec![Value::Int(2)],
            vec![Value::Int(3)]
        ]
    );
    // Single-morsel plans don't pay pool dispatch: no morsels processed.
    assert_eq!(pool.morsels_processed(), before);
}

#[test]
fn concurrent_queries_share_one_pool() {
    let h = multi_segment_harness();
    let pool = ExecPool::new(3);
    let serial = h
        .query("SELECT * FROM big WHERE b < 5", None, 1024)
        .unwrap();
    std::thread::scope(|s| {
        for _ in 0..4 {
            let h = &h;
            let pool = &pool;
            let serial = &serial;
            s.spawn(move || {
                for _ in 0..5 {
                    let rows = h
                        .query("SELECT * FROM big WHERE b < 5", Some(pool), 512)
                        .unwrap();
                    assert_eq!(&rows, serial);
                }
            });
        }
    });
    // Workers mark themselves idle just *after* the query observes its
    // last result, so give the gauge a moment to settle.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while pool.busy_workers() != 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(pool.busy_workers(), 0, "workers must return to idle");
    assert!(pool.morsels_processed() > 0);
}

#[test]
fn pool_counts_morsels() {
    let h = multi_segment_harness();
    let pool = ExecPool::new(2);
    let before = pool.morsels_processed();
    h.query("SELECT * FROM big WHERE b = 1", Some(&pool), 500)
        .unwrap();
    let done = pool.morsels_processed() - before;
    // 5000 slots / 500 per morsel = 10 morsels, all processed (no LIMIT).
    assert_eq!(done, 10);
}

/// `a / (b - 3)` over `big (a, b)`: a division by zero on every row with
/// `b = 3`, starting at row 3.
fn div_by_b_minus_3() -> BoundExpr {
    let bin = |op, left, right| BoundExpr::Binary {
        op,
        left: Box::new(left),
        right: Box::new(right),
    };
    bin(
        BinOp::Div,
        BoundExpr::Col(0),
        bin(BinOp::Sub, BoundExpr::Col(1), BoundExpr::Lit(Value::Int(3))),
    )
}

fn run_plan(
    h: &Harness,
    plan: &PlanNode,
    pool: Option<&Arc<ExecPool>>,
    batch_size: usize,
) -> Result<Vec<Tuple>, mb2_common::DbError> {
    let mut txn = h.txns.begin();
    let rows = {
        let mut ctx = ExecContext::new(&h.catalog, &mut txn)
            .with_morsel_slots(256)
            .with_batch_size(batch_size);
        if let Some(pool) = pool {
            ctx = ctx.with_pool(pool.clone());
        }
        execute(plan, &mut ctx).map(|r| r.rows)
    };
    txn.commit().unwrap();
    rows
}

#[test]
fn expression_errors_match_between_serial_and_parallel_drivers() {
    let h = multi_segment_harness();
    let est = *h.plan("SELECT * FROM big").est();
    let scan = || PlanNode::SeqScan {
        table: "big".into(),
        filter: None,
        est,
    };
    let project = |input: PlanNode| PlanNode::Project {
        input: Box::new(input),
        exprs: vec![BoundExpr::Col(0), BoundExpr::Col(1), div_by_b_minus_3()],
        est,
    };
    let join = |build: PlanNode, probe: PlanNode, filter: Option<BoundExpr>| PlanNode::Output {
        input: Box::new(PlanNode::HashJoin {
            build: Box::new(build),
            probe: Box::new(probe),
            build_keys: vec![0],
            probe_keys: vec![0],
            filter,
            est,
        }),
        sink: OutputSink::Client,
        est,
    };
    let spots = [
        (
            "scan filter",
            h.plan("SELECT * FROM big WHERE a / (b - 3) > 0"),
        ),
        (
            "project under the join build",
            join(project(scan()), scan(), None),
        ),
        (
            "project on the probe side",
            join(scan(), project(scan()), None),
        ),
        (
            "join residual",
            join(scan(), scan(), Some(div_by_b_minus_3())),
        ),
        (
            "aggregate argument",
            h.plan("SELECT b, SUM(a / (b - 3)) FROM big GROUP BY b"),
        ),
    ];
    let pools = [ExecPool::new(2), ExecPool::new(8)];
    let good = h.plan("SELECT * FROM big WHERE b = 0");
    let good_rows = run_plan(&h, &good, None, 1024).unwrap();
    for (spot, plan) in &spots {
        let serial = run_plan(&h, plan, None, 1024).unwrap_err();
        assert!(
            matches!(serial, mb2_common::DbError::Execution(_)),
            "{spot}: expected an execution error, got {serial:?}"
        );
        for batch_size in [1usize, 7, 1024] {
            let pooled = [None, Some(&pools[0]), Some(&pools[1])];
            for pool in pooled {
                let workers = pool.map_or(1, |p| p.workers());
                let err = run_plan(&h, plan, pool, batch_size).unwrap_err();
                assert_eq!(
                    err, serial,
                    "{spot}: workers={workers} batch_size={batch_size}"
                );
                // The pool keeps serving after a failed query.
                assert_eq!(
                    run_plan(&h, &good, pool, batch_size).unwrap(),
                    good_rows,
                    "{spot}: follow-up query, workers={workers} batch_size={batch_size}"
                );
            }
        }
    }
    // Every spot above sits on a leaf chain the pools ran morsel-wise.
    for pool in &pools {
        assert!(pool.morsels_processed() > 0);
    }
}
