//! Chaos recovery-cost model.
//!
//! The self-healing supervisor decides *when* to attempt an engine swap;
//! the recovery-cost model predicts *how long* the outage will be. This
//! experiment measures WAL recovery end to end over a sweep of log sizes,
//! fits a linear model from each run's [`RecoveryReport::features`]
//! (records read, tuples applied, schema objects rebuilt) to its observed
//! wall-clock duration, and gates on leave-one-out mean relative error —
//! the same decomposed-OU methodology the paper applies to query OUs,
//! pointed at the recovery path.

use std::fmt::Write as _;
use std::path::PathBuf;

use mb2_engine::{recover, Database, DatabaseConfig, RecoveryReport};
use mb2_ml::linear::LinearRegression;
use mb2_ml::{mean_relative_error, Regressor};

use crate::report::{fmt, Table};
use crate::Scale;

/// Mean-relative-error acceptance gate for the fitted model.
const MRE_GATE: f64 = 0.5;

fn wal_path(tag: usize) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mb2_bench_chaos_recovery_{}_{tag}.log",
        std::process::id()
    ))
}

/// Build a WAL of roughly `txns` autocommit transactions (inserts and
/// updates over an indexed table), then recover from it and return the
/// report. The builder engine is dropped before recovery, like a crash.
fn one_run(tag: usize, txns: usize) -> RecoveryReport {
    let path = wal_path(tag);
    let _ = std::fs::remove_file(&path);
    {
        let db = Database::new(DatabaseConfig {
            wal_enabled: true,
            wal_path: Some(path.clone()),
            ..DatabaseConfig::default()
        })
        .expect("builder engine");
        db.execute("CREATE TABLE r (id INT, v FLOAT)").unwrap();
        db.execute("CREATE INDEX r_id ON r (id)").unwrap();
        for i in 0..txns {
            if i % 3 == 0 {
                db.execute(&format!("INSERT INTO r VALUES ({i}, {i}.0)"))
                    .unwrap();
            } else {
                db.execute(&format!(
                    "UPDATE r SET v = v + 1.0 WHERE id = {}",
                    i % (i / 3 + 1)
                ))
                .unwrap();
            }
        }
        db.wal().unwrap().flush_now().unwrap();
    }
    let (_db, report) = recover(
        &path,
        DatabaseConfig {
            wal_enabled: false,
            ..DatabaseConfig::default()
        },
    )
    .expect("recovery");
    let _ = std::fs::remove_file(&path);
    report
}

pub fn run(scale: Scale) -> String {
    let mut out = String::new();
    out.push_str("# Chaos — recovery-cost model (duration from RecoveryReport features)\n\n");

    let sizes: &[usize] = match scale {
        Scale::Quick => &[20, 60, 120, 240, 480, 960],
        Scale::Standard => &[50, 150, 400, 900, 2000, 4000],
    };
    let reps = 2; // sizes × reps = 12 runs ≥ the 10-run gate floor

    let mut features: Vec<Vec<f64>> = Vec::new();
    let mut labels: Vec<Vec<f64>> = Vec::new();
    let mut reports: Vec<RecoveryReport> = Vec::new();
    for (i, &txns) in sizes.iter().enumerate() {
        for rep in 0..reps {
            let report = one_run(i * reps + rep, txns);
            features.push(report.features());
            labels.push(vec![report.elapsed.as_secs_f64() * 1e6]); // µs
            reports.push(report);
        }
    }
    let runs = reports.len();

    // Leave-one-out predictions: each run is predicted by a model fitted
    // on the other runs, so the error is out-of-sample even with one
    // sweep's worth of data.
    let mut predicted: Vec<Vec<f64>> = Vec::with_capacity(runs);
    for i in 0..runs {
        let (mut fx, mut fy) = (Vec::new(), Vec::new());
        for j in 0..runs {
            if j != i {
                fx.push(features[j].clone());
                fy.push(labels[j].clone());
            }
        }
        let mut model = LinearRegression::new(1e-6);
        model.fit(&fx, &fy).expect("fit recovery model");
        predicted.push(model.predict_one(&features[i]));
    }
    let mre = mean_relative_error(&labels, &predicted);

    let mut table = Table::new(
        "recovery runs: observed vs leave-one-out predicted duration",
        &[
            "run",
            "records",
            "tuples",
            "objects",
            "actual (ms)",
            "predicted (ms)",
            "rel err",
        ],
    );
    for (i, report) in reports.iter().enumerate() {
        let actual = labels[i][0];
        let pred = predicted[i][0];
        table.row(&[
            i.to_string(),
            report.records_read.to_string(),
            report.tuples_applied.to_string(),
            (report.tables_created + report.indexes_created).to_string(),
            fmt(actual / 1000.0),
            fmt(pred / 1000.0),
            fmt((actual - pred).abs() / actual),
        ]);
    }
    out.push_str(&table.render());

    let pass = runs >= 10 && mre <= MRE_GATE;
    let _ = writeln!(
        out,
        "\ngates: runs >= 10: {} ({runs}); leave-one-out MRE <= {MRE_GATE}: {} ({mre:.3}) — {}",
        runs >= 10,
        mre <= MRE_GATE,
        if pass { "PASS" } else { "FAIL" }
    );

    assert!(pass, "chaos_recovery acceptance gates failed:\n{out}");
    out
}
