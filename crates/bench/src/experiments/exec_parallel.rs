//! Morsel-driven parallel execution — rows/sec of the batch pipeline
//! across worker counts.
//!
//! Measures the four canonical read pipelines (sequential scan, scan with
//! a 10%-selective pushed filter, hash join, hash aggregation) at
//! parallelism 1 (serial, no pool), 2, and all available cores. Results
//! stream through the batch API so the numbers reflect executor
//! throughput. Parallel execution is byte-identical to serial (ordered
//! morsel gather), so speedup is the entire story.
//!
//! Acceptance gate for this reproduction: the 10%-selective filter scan
//! must run at least 2x faster at the all-cores worker count than serial —
//! enforced only on hosts with ≥ 4 cores (a 1- or 2-core host cannot
//! express a 2x parallel speedup; the gate reports SKIPPED and passes).
//!
//! Emits `results/exec_parallel.txt` and machine-readable
//! `results/BENCH_parallel.json`.

use std::fmt::Write as _;
use std::time::Instant;

use mb2_engine::{Database, TxnScope};

use crate::report::{fmt, results_dir, Table};
use crate::Scale;

/// Required speedup (all-cores vs serial) on the selective-filter scan,
/// enforced at ≥ [`GATE_MIN_CORES`] cores.
pub const PARALLEL_SPEEDUP_GATE: f64 = 2.0;

/// Minimum core count for the speedup gate to be meaningful.
pub const GATE_MIN_CORES: usize = 4;

struct Case {
    name: &'static str,
    sql: &'static str,
    input_rows: usize,
}

pub fn run(scale: Scale) -> String {
    let mut out = String::new();
    out.push_str("# Morsel-parallel execution — rows/sec by worker count\n\n");

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Worker counts: serial, 2, all cores (deduplicated, ascending).
    let mut worker_counts = vec![1usize, 2, cores];
    worker_counts.sort_unstable();
    worker_counts.dedup();

    let db = Database::open();
    db.execute("CREATE TABLE big (a INT, b INT, c FLOAT)")
        .unwrap();
    db.execute("CREATE TABLE dim (id INT, name VARCHAR(16))")
        .unwrap();
    // Default morsel = 2048 slots, so 8k rows already fan out over 4
    // workers; standard scale gives 20 morsels.
    let rows = scale.pick(8_000, 40_000);
    let mut i = 0;
    while i < rows {
        let n = 500.min(rows - i);
        let vals: Vec<String> = (i..i + n)
            .map(|j| format!("({j}, {}, {})", (j * 31 + 7) % 100, j as f64 / 3.0))
            .collect();
        db.execute(&format!("INSERT INTO big VALUES {}", vals.join(", ")))
            .unwrap();
        i += n;
    }
    for i in 0..100 {
        db.execute(&format!("INSERT INTO dim VALUES ({i}, 'd{i}')"))
            .unwrap();
    }
    db.execute("ANALYZE big").unwrap();
    db.execute("ANALYZE dim").unwrap();

    let cases = [
        Case {
            name: "seq-scan",
            sql: "SELECT * FROM big",
            input_rows: rows,
        },
        Case {
            name: "scan+filter (10%)",
            sql: "SELECT * FROM big WHERE b < 10",
            input_rows: rows,
        },
        Case {
            name: "hash-join",
            sql: "SELECT big.a, dim.name FROM big, dim WHERE big.b = dim.id",
            input_rows: rows,
        },
        Case {
            name: "hash-agg",
            sql: "SELECT b, COUNT(*), SUM(a) FROM big GROUP BY b",
            input_rows: rows,
        },
    ];
    let reps = scale.pick(3, 5);

    // rates[case][worker-count index] = median input rows/sec.
    let mut rates = vec![vec![0f64; worker_counts.len()]; cases.len()];
    // Byte-identity spot check: row counts must agree across worker counts.
    let mut counts = vec![vec![0usize; worker_counts.len()]; cases.len()];
    for (ci, case) in cases.iter().enumerate() {
        let plan = db.prepare(case.sql).unwrap();
        for (wi, &workers) in worker_counts.iter().enumerate() {
            db.set_parallelism(workers);
            let mut times = Vec::with_capacity(reps);
            for rep in 0..=reps {
                let mut streamed = 0usize;
                let mut txn = db.begin();
                let t0 = Instant::now();
                db.run_plan(&plan, TxnScope::In(&mut txn), None, &mut |b| {
                    streamed += b.len();
                    Ok(())
                })
                .unwrap();
                let elapsed = t0.elapsed();
                txn.commit().unwrap();
                assert!(streamed > 0, "{} produced no rows", case.name);
                counts[ci][wi] = streamed;
                if rep > 0 {
                    times.push(elapsed);
                }
            }
            times.sort();
            let median = times[times.len() / 2];
            rates[ci][wi] = case.input_rows as f64 / median.as_secs_f64();
        }
        assert!(
            counts[ci].iter().all(|&c| c == counts[ci][0]),
            "{}: result cardinality varies with worker count",
            case.name
        );
    }
    db.set_parallelism(1);

    let max_wi = worker_counts.len() - 1;
    let mut headers: Vec<String> = vec!["pipeline".into()];
    headers.extend(worker_counts.iter().map(|w| format!("workers={w}")));
    headers.push(format!("{}/1", worker_counts[max_wi]));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        format!("input rows/sec over {rows} rows (median of {reps}, {cores} cores)"),
        &header_refs,
    );
    for (ci, case) in cases.iter().enumerate() {
        let mut row = vec![case.name.to_string()];
        row.extend(rates[ci].iter().map(|&r| fmt(r)));
        row.push(format!("{:.2}x", rates[ci][max_wi] / rates[ci][0]));
        table.row(&row);
    }
    out.push_str(&table.render());

    let filter_speedup = rates[1][max_wi] / rates[1][0];
    let gated = cores >= GATE_MIN_CORES;
    let pass = !gated || filter_speedup >= PARALLEL_SPEEDUP_GATE;
    let verdict = if !gated {
        format!("SKIPPED ({cores} cores < {GATE_MIN_CORES})")
    } else if pass {
        "PASS".to_string()
    } else {
        "FAIL".to_string()
    };
    let _ = writeln!(
        out,
        "\nscan+filter speedup at {} workers vs serial: {filter_speedup:.2}x \
         (gate {PARALLEL_SPEEDUP_GATE:.1}x at >= {GATE_MIN_CORES} cores) — {verdict}",
        worker_counts[max_wi]
    );

    // Machine-readable companion: hand-rolled JSON, no serde dependency.
    let mut json = String::from("{\n  \"experiment\": \"exec_parallel\",\n");
    let _ = writeln!(json, "  \"rows\": {rows},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"filter_speedup_max_vs_1\": {filter_speedup:.4},");
    let _ = writeln!(json, "  \"gate\": {PARALLEL_SPEEDUP_GATE},");
    let _ = writeln!(json, "  \"gate_min_cores\": {GATE_MIN_CORES},");
    let _ = writeln!(json, "  \"gate_enforced\": {gated},");
    let _ = writeln!(json, "  \"gate_pass\": {pass},");
    json.push_str("  \"results\": [\n");
    for (ci, case) in cases.iter().enumerate() {
        for (wi, &workers) in worker_counts.iter().enumerate() {
            let _ = write!(
                json,
                "    {{\"pipeline\": \"{}\", \"workers\": {workers}, \
                 \"rows_per_sec\": {:.1}}}",
                case.name, rates[ci][wi]
            );
            let last = ci + 1 == cases.len() && wi + 1 == worker_counts.len();
            json.push_str(if last { "\n" } else { ",\n" });
        }
    }
    json.push_str("  ]\n}\n");
    let path = results_dir().join("BENCH_parallel.json");
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        let _ = writeln!(out, "\njson: {}", path.display());
    }

    out
}
