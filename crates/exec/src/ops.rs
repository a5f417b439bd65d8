//! Write-path operators (DML + index build). Each is one OU span: begin a
//! tracker, do the work with work-accounting, finish + record.
//!
//! Row-producing (read-path) operators live in [`crate::batch`] — they run
//! as a pull-based batch pipeline. DML victim scans reuse that pipeline via
//! `run_scan_with_slots`, so filters are pushed into the
//! scan visitors on the write path too.

use std::time::Instant;

use mb2_common::types::{tuple_size_bytes, Tuple};
use mb2_common::{DbError, DbResult, OuKind, Value};
use mb2_sql::{BoundExpr, PlanNode};
use mb2_storage::SlotId;

use crate::compile::Evaluator;
use crate::context::{ExecContext, ExecutionMode};
use crate::tracker::OpSpan;

pub(crate) fn compiled(ctx: &ExecContext<'_>) -> bool {
    ctx.mode == ExecutionMode::Compiled
}

/// Busy-wait for `us` microseconds (used for injected regressions — a spin
/// models a slower algorithm, paper §8.5).
pub(crate) fn spin_us(us: u64) {
    let until = Instant::now() + std::time::Duration::from_micros(us);
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

// ----------------------------------------------------------------------
// DML
// ----------------------------------------------------------------------

pub fn insert(table: &str, rows: &[Tuple], ctx: &mut ExecContext<'_>, id: u32) -> DbResult<usize> {
    let entry = ctx.catalog.get(table)?;
    let indexes = entry.indexes();
    let mut span = OpSpan::new(ctx, id, OuKind::InsertTuple);
    span.enter();
    let mut bytes = 0u64;
    for row in rows {
        bytes += tuple_size_bytes(row) as u64;
        let slot = ctx.txn.insert(&entry.table, row.clone())?;
        for index in &indexes {
            index.insert(index.key_of(row), slot);
        }
    }
    span.work(|t| {
        t.add_tuples(rows.len() as u64);
        t.add_bytes(bytes);
        t.add_allocated(bytes);
        t.add_random_accesses(rows.len() as u64 * indexes.len() as u64);
    });
    span.finish(ctx);
    Ok(rows.len())
}

pub fn update(
    table: &str,
    scan: &PlanNode,
    assignments: &[(usize, BoundExpr)],
    ctx: &mut ExecContext<'_>,
    id: u32,
) -> DbResult<usize> {
    let (rows, slots) = run_scan_with_slots(scan, ctx, id + 1)?;
    let entry = ctx.catalog.get(table)?;
    let indexes = entry.indexes();
    let use_compiled = compiled(ctx);
    let evals: Vec<(usize, Evaluator)> = assignments
        .iter()
        .map(|(pos, e)| (*pos, Evaluator::new(e, use_compiled)))
        .collect();

    let mut span = OpSpan::new(ctx, id, OuKind::UpdateTuple);
    span.enter();
    let mut bytes = 0u64;
    for (old, slot) in rows.iter().zip(&slots) {
        let mut new = old.as_ref().clone();
        for (pos, eval) in &evals {
            new[*pos] = eval.eval(old)?;
        }
        bytes += tuple_size_bytes(&new) as u64;
        ctx.txn.update(&entry.table, *slot, new.clone())?;
        for index in &indexes {
            let old_key = index.key_of(old);
            let new_key = index.key_of(&new);
            if old_key != new_key {
                index.remove(&old_key, |v| v == slot);
                index.insert(new_key, *slot);
            }
        }
    }
    span.work(|t| {
        t.add_tuples(rows.len() as u64);
        t.add_bytes(bytes);
        t.add_allocated(bytes);
        t.add_random_accesses(rows.len() as u64 * (1 + indexes.len() as u64));
    });
    span.finish(ctx);
    Ok(rows.len())
}

pub fn delete(table: &str, scan: &PlanNode, ctx: &mut ExecContext<'_>, id: u32) -> DbResult<usize> {
    let (rows, slots) = run_scan_with_slots(scan, ctx, id + 1)?;
    let entry = ctx.catalog.get(table)?;
    let indexes = entry.indexes();
    let mut span = OpSpan::new(ctx, id, OuKind::DeleteTuple);
    span.enter();
    for (old, slot) in rows.iter().zip(&slots) {
        ctx.txn.delete(&entry.table, *slot)?;
        for index in &indexes {
            index.remove(&index.key_of(old), |v| v == slot);
        }
    }
    span.work(|t| {
        t.add_tuples(rows.len() as u64);
        t.add_random_accesses(rows.len() as u64 * (1 + indexes.len() as u64));
    });
    span.finish(ctx);
    Ok(rows.len())
}

/// DML victim scan: drive the batch pipeline over the scan node, collecting
/// rows with their slot provenance.
fn run_scan_with_slots(
    scan: &PlanNode,
    ctx: &mut ExecContext<'_>,
    id: u32,
) -> DbResult<(Vec<std::sync::Arc<Tuple>>, Vec<SlotId>)> {
    match scan {
        PlanNode::SeqScan { .. } | PlanNode::IndexScan { .. } => {
            crate::batch::run_scan_with_slots(scan, ctx, id)
        }
        other => Err(DbError::Execution(format!(
            "DML scan must be a table scan, found {}",
            other.label()
        ))),
    }
}

// ----------------------------------------------------------------------
// Index build
// ----------------------------------------------------------------------

pub fn create_index(
    table: &str,
    index_name: &str,
    columns: &[usize],
    threads: usize,
    ctx: &mut ExecContext<'_>,
    id: u32,
) -> DbResult<usize> {
    let entry = ctx.catalog.get(table)?;
    let mut span = OpSpan::new(ctx, id, OuKind::IndexBuild);
    span.enter();
    // Snapshot the key/slot pairs visible to this transaction.
    let mut entries: Vec<(Vec<Value>, SlotId)> = Vec::new();
    let mut key_bytes = 0u64;
    entry
        .table
        .scan_visible(ctx.txn.read_ts(), ctx.txn.id(), |slot, tuple| {
            let key: Vec<Value> = columns.iter().map(|&c| tuple[c].clone()).collect();
            key_bytes += tuple_size_bytes(&key) as u64;
            entries.push((key, slot));
            true
        });
    let n = entries.len();

    // Parallel sort-merge build with hardware pacing per entry.
    let slowdown = ctx.hw.slowdown();
    let pace: Box<dyn Fn() + Sync> = if slowdown > 1.0 {
        let spin_ns = ((slowdown - 1.0) * 60.0) as u64;
        Box::new(move || {
            let until = Instant::now() + std::time::Duration::from_nanos(spin_ns);
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        })
    } else {
        Box::new(|| {})
    };
    let report = mb2_index::parallel_build_observed(
        entries,
        threads,
        pace.as_ref(),
        ctx.index_obs.as_deref(),
    );
    let index = mb2_index::Index::with_obs(index_name, columns.to_vec(), ctx.index_obs.clone());
    index.replace_tree(report.tree);
    let tree_bytes = index.approx_bytes() as u64;
    entry.add_index(std::sync::Arc::new(index))?;

    span.work(|t| {
        t.add_tuples(n as u64);
        t.add_bytes(key_bytes);
        t.add_comparisons((n as f64 * (n.max(2) as f64).log2()) as u64);
        t.add_allocated(tree_bytes);
        t.add_random_accesses(n as u64 / 4);
    });
    span.finish(ctx);
    Ok(n)
}
