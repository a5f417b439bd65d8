//! The per-row kernels of the row-producing operating units.
//!
//! Every loop that touches rows for an OU exists once, here, and both
//! execution drivers call it: the serial pull pipeline
//! ([`crate::batch`]) on each batch it pulls, and the morsel-parallel
//! driver ([`crate::parallel`]) on each morsel, on a pool worker. A kernel
//! counts its work into a [`WorkCounts`] with the OU's one formula. The
//! serial driver folds that into the operator's `OpSpan`; a worker folds it
//! into its `WorkerAcct`, which the issuing operator absorbs at close. So the
//! per-(node, OU) features a recorder sees do not depend on the driver, and
//! the translator that predicts them has one formula to match.
//!
//! Drivers own the clock (timed span sections serially, per-morsel wall time
//! on workers), except for the scan, whose single call interleaves
//! row-path and block-path sections of two OUs and so times them itself.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use mb2_common::types::{tuple_size_bytes, Tuple};
use mb2_common::{DbResult, OuKind, Value};
use mb2_sql::plan::AggSpec;
use mb2_sql::{AggFunc, BoundExpr, PlanNode};
use mb2_storage::{SlotId, Table, Ts, SHARD_UNIT_SLOTS};

use crate::columnar::{self, BlockPredicate};
use crate::compile::Evaluator;
use crate::context::ExecContext;
use crate::ops::{compiled, spin_us};
use crate::tracker::{tracking, SpanAcct, WorkCounts};

pub(crate) fn elapsed_us(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64 / 1000.0
}

// ----------------------------------------------------------------------
// Sequential scan (Sequential Scan, Block/Scan, fused Arithmetic/Filter)
// ----------------------------------------------------------------------

/// A sequential scan of a slot range with its fused predicate. Everything
/// it needs is owned, so a morsel-parallel chain can share it with workers:
/// MVCC visibility only needs `(read_ts, own)`, not the transaction.
pub(crate) struct ScanKernel {
    pub table: Arc<Table>,
    pub read_ts: Ts,
    pub own: Ts,
    pub filter: Option<Evaluator>,
    pub filter_ops: u64,
    /// `Some` iff clean sealed units are served from their columnar blocks
    /// (the `columnar_enabled` knob, off for DML victim scans).
    pub block_pred: Option<BlockPredicate>,
    /// Maintain per-row byte counts and section times.
    pub track: bool,
}

/// What one scan accounted, per OU: the row path (Sequential Scan), the
/// block path (Block/Scan) and the fused predicate (Arithmetic/Filter:
/// counted over every swept row, timed inside the scan sections).
#[derive(Default)]
pub(crate) struct ScanAcct {
    rows: SpanAcct,
    block: SpanAcct,
    filter: SpanAcct,
}

impl ScanAcct {
    pub fn get(&self, ou: OuKind) -> &SpanAcct {
        match ou {
            OuKind::SeqScan => &self.rows,
            OuKind::BlockScan => &self.block,
            _ => &self.filter,
        }
    }
}

impl ScanKernel {
    pub fn new(
        ctx: &ExecContext<'_>,
        table: &Arc<Table>,
        filter: Option<&BoundExpr>,
        columnar: bool,
    ) -> ScanKernel {
        ScanKernel {
            table: Arc::clone(table),
            read_ts: ctx.txn.read_ts(),
            own: ctx.txn.id(),
            filter: filter.map(|f| Evaluator::new(f, compiled(ctx))),
            filter_ops: filter.map_or(0, |f| f.op_count()) as u64,
            block_pred: columnar.then(|| BlockPredicate::extract(filter)),
            track: tracking(ctx),
        }
    }

    /// The OUs this scan accounts for, in span order.
    pub fn ous(&self) -> impl Iterator<Item = OuKind> {
        [
            Some(OuKind::SeqScan),
            self.block_pred.is_some().then_some(OuKind::BlockScan),
            self.filter.is_some().then_some(OuKind::ArithmeticFilter),
        ]
        .into_iter()
        .flatten()
    }

    /// Scan slots `[*pos, end)` in slot order, handing every row that passes
    /// the predicate to `emit` (with its slot on the row path; block rows
    /// carry none). `emit` returning `false` stops the scan after that row,
    /// except inside a clean sealed block, which is served whole. Returns
    /// `true` once the range or the heap is exhausted; otherwise `*pos` is
    /// where the next call resumes.
    pub fn scan(
        &self,
        pos: &mut usize,
        end: usize,
        acct: &mut ScanAcct,
        mut emit: impl FnMut(Option<SlotId>, &Arc<Tuple>) -> bool,
    ) -> DbResult<bool> {
        while *pos < end {
            // Columnar fast path: a clean sealed block is a complete
            // snapshot of its unit (writers mark it dirty before their
            // commit timestamp is drawn), so the whole unit is served
            // without touching a chain lock. Dirty/unsealed units fall
            // through to the row path, whose per-slot block fallback
            // handles sealed rows among revived chains.
            let unit = *pos / SHARD_UNIT_SLOTS;
            let block = match &self.block_pred {
                Some(pred)
                    if pos.is_multiple_of(SHARD_UNIT_SLOTS) && *pos + SHARD_UNIT_SLOTS <= end =>
                {
                    self.table
                        .sealed_unit(unit)
                        .filter(|b| !b.is_dirty())
                        .map(|b| (pred, b))
                }
                _ => None,
            };
            if let Some((pred, block)) = block {
                let t0 = self.track.then(Instant::now);
                let mut more = true;
                let out = columnar::scan_block(
                    &block,
                    pred,
                    self.filter.as_ref(),
                    self.read_ts,
                    |row| {
                        more &= emit(None, row);
                    },
                )?;
                if out.zone_skipped {
                    self.table.note_zone_skip(unit);
                }
                let work = WorkCounts {
                    tuples: out.swept,
                    bytes: out.bytes,
                    allocated_bytes: out.bytes,
                    ..WorkCounts::default()
                };
                acct.block.add(&work, t0.map_or(0.0, elapsed_us));
                self.count_filter(acct, out.swept);
                *pos += SHARD_UNIT_SLOTS;
                if !more {
                    return Ok(false);
                }
                continue;
            }
            // Row path: up to the next unit boundary in columnar mode (so
            // the next iteration can reconsider a block).
            let seg_end = match self.block_pred {
                Some(_) => ((unit + 1) * SHARD_UNIT_SLOTS).min(end),
                None => end,
            };
            let t0 = self.track.then(Instant::now);
            let (mut scanned, mut bytes, mut stopped, mut err) = (0u64, 0u64, false, None);
            let next = self.table.scan_visible_range(
                *pos,
                seg_end,
                self.read_ts,
                self.own,
                |slot, tuple| {
                    if self.track {
                        scanned += 1;
                        bytes += tuple_size_bytes(tuple) as u64;
                    }
                    let keep = match &self.filter {
                        None => true,
                        Some(ev) => match ev.eval_bool(tuple) {
                            Ok(k) => k,
                            Err(e) => {
                                err = Some(e);
                                return false;
                            }
                        },
                    };
                    stopped = keep && !emit(Some(slot), tuple);
                    !stopped
                },
            );
            let work = WorkCounts {
                tuples: scanned,
                bytes,
                allocated_bytes: bytes,
                ..WorkCounts::default()
            };
            acct.rows.add(&work, t0.map_or(0.0, elapsed_us));
            self.count_filter(acct, scanned);
            if let Some(e) = err {
                return Err(e);
            }
            *pos = next;
            if stopped {
                return Ok(false);
            }
            if next < seg_end {
                // The heap ended inside this segment.
                return Ok(true);
            }
        }
        Ok(true)
    }

    /// The fused predicate ran over `swept` rows inside a scan section; its
    /// work lands on the Arithmetic/Filter OU, untimed (see DESIGN.md
    /// "Batch execution model").
    fn count_filter(&self, acct: &mut ScanAcct, swept: u64) {
        if self.filter.is_some() {
            acct.filter.work.tuples += swept;
            acct.filter.work.comparisons += swept * self.filter_ops;
        }
    }
}

// ----------------------------------------------------------------------
// Filter and Project stages (Arithmetic/Filter)
// ----------------------------------------------------------------------

/// A Filter or Project node: an Arithmetic/Filter pass over a row stream.
pub(crate) enum Stage {
    Filter { eval: Evaluator, ops: u64 },
    Project { evals: Vec<Evaluator>, ops: u64 },
}

impl Stage {
    /// The stage for a Filter or Project node, with the node's input; `None`
    /// for any other node.
    pub fn from_plan(node: &PlanNode, compiled: bool) -> Option<(Stage, &PlanNode)> {
        match node {
            PlanNode::Filter {
                input, predicate, ..
            } => Some((
                Stage::Filter {
                    eval: Evaluator::new(predicate, compiled),
                    ops: predicate.op_count() as u64,
                },
                input,
            )),
            PlanNode::Project { input, exprs, .. } => Some((
                Stage::Project {
                    evals: exprs.iter().map(|e| Evaluator::new(e, compiled)).collect(),
                    ops: exprs.iter().map(|e| e.op_count() as u64).sum(),
                },
                input,
            )),
            _ => None,
        }
    }

    pub fn apply(
        &self,
        mut rows: Vec<Arc<Tuple>>,
        work: &mut WorkCounts,
    ) -> DbResult<Vec<Arc<Tuple>>> {
        let n = rows.len() as u64;
        work.tuples += n;
        match self {
            Stage::Filter { eval, ops } => {
                work.comparisons += n * ops;
                let mut err = None;
                rows.retain(|row| {
                    err.is_none()
                        && eval.eval_bool(row).unwrap_or_else(|e| {
                            err = Some(e);
                            false
                        })
                });
                err.map_or(Ok(rows), Err)
            }
            Stage::Project { evals, ops } => {
                work.comparisons += n * (*ops).max(1);
                rows.iter()
                    .map(|row| {
                        let projected: Tuple =
                            evals.iter().map(|e| e.eval(row)).collect::<DbResult<_>>()?;
                        Ok(Arc::new(projected))
                    })
                    .collect()
            }
        }
    }
}

// ----------------------------------------------------------------------
// Hash join (Join Hash Table Build, Join Hash Table Probe)
// ----------------------------------------------------------------------

/// A hash join's build side: row storage plus key → row-index buckets.
/// Frozen after the build and shared with pool workers during a parallel
/// probe.
#[derive(Default)]
pub(crate) struct JoinTable {
    rows: Vec<Arc<Tuple>>,
    map: HashMap<Vec<Value>, Vec<usize>>,
}

impl JoinTable {
    pub fn buckets(&self) -> usize {
        self.map.len()
    }

    /// Append a table built from later input (a later morsel). Every index
    /// in `later` shifts past every index already here, so bucket entry
    /// order equals one insertion pass over the concatenated input.
    pub fn append(&mut self, later: JoinTable) {
        let off = self.rows.len();
        self.map.reserve(later.map.len());
        for (key, idxs) in later.map {
            self.map
                .entry(key)
                .or_default()
                .extend(idxs.into_iter().map(|i| i + off));
        }
        self.rows.extend(later.rows);
    }

    /// Bucket lookup without a per-probe-row key allocation: single-column
    /// keys (the common case) borrow the probe row's value in place via
    /// `Vec<Value>: Borrow<[Value]>`; multi-column keys refill one scratch
    /// buffer per probe loop instead of allocating a fresh `Vec` per row.
    /// A NULL key matches nothing (`NULL = NULL` is not true), although the
    /// build side buckets NULL keys like any other value.
    #[inline]
    fn matches(
        &self,
        keys: &[usize],
        row: &Tuple,
        scratch: &mut Vec<Value>,
    ) -> Option<&Vec<usize>> {
        if keys.iter().any(|&k| row[k].is_null()) {
            return None;
        }
        if let [k] = keys {
            self.map.get(std::slice::from_ref(&row[*k]))
        } else {
            scratch.clear();
            scratch.extend(keys.iter().map(|&k| row[k].clone()));
            self.map.get(scratch.as_slice())
        }
    }
}

/// The hash join's build-insert and probe-match kernels.
pub(crate) struct JoinKernel {
    pub build_keys: Vec<usize>,
    pub probe_keys: Vec<usize>,
    pub residual: Option<Evaluator>,
    pub residual_ops: u64,
    /// Fig. 9a regression injection: spin 1µs every this many inserted
    /// rows (`0` = off).
    pub sleep_every: usize,
    pub track: bool,
}

impl JoinKernel {
    /// Insert build rows into `table` (Join Hash Table Build work; the
    /// bucket count is accounted once, on the final table).
    pub fn insert(&self, table: &mut JoinTable, rows: Vec<Arc<Tuple>>, work: &mut WorkCounts) {
        let n = rows.len() as u64;
        let mut bytes = 0u64;
        table.map.reserve(rows.len());
        for row in rows {
            if self.track {
                bytes += tuple_size_bytes(&row) as u64;
            }
            let key: Vec<Value> = self.build_keys.iter().map(|&k| row[k].clone()).collect();
            table.map.entry(key).or_default().push(table.rows.len());
            table.rows.push(row);
            if self.sleep_every > 0 && table.rows.len().is_multiple_of(self.sleep_every) {
                spin_us(1);
            }
        }
        work.tuples += n;
        work.bytes += bytes;
        work.hash_probes += n;
        work.allocated_bytes += n * (32 + self.build_keys.len() as u64 * 16) + bytes;
    }

    /// Match probe rows against the frozen table, appending joined rows that
    /// pass the residual to `out` in probe-major order, until `out` holds
    /// `limit` rows (the last probe row's matches may go past it). Returns
    /// the number of probe rows consumed. Probe work lands in `work` (Join
    /// Hash Table Probe), residual work in `filter` (Arithmetic/Filter).
    pub fn probe(
        &self,
        table: &JoinTable,
        rows: &[Arc<Tuple>],
        out: &mut Vec<Arc<Tuple>>,
        limit: usize,
        work: &mut WorkCounts,
        filter: &mut WorkCounts,
    ) -> DbResult<usize> {
        let (mut probe_bytes, mut out_bytes, mut matched) = (0u64, 0u64, 0u64);
        let mut scratch: Vec<Value> = Vec::new();
        let mut used = 0;
        for row in rows {
            if out.len() >= limit {
                break;
            }
            used += 1;
            if self.track {
                probe_bytes += tuple_size_bytes(row) as u64;
            }
            let Some(matches) = table.matches(&self.probe_keys, row, &mut scratch) else {
                continue;
            };
            for &bi in matches {
                let build_row = &table.rows[bi];
                let mut combined: Tuple = Vec::with_capacity(row.len() + build_row.len());
                combined.extend(row.iter().cloned());
                combined.extend(build_row.iter().cloned());
                if self.track {
                    out_bytes += tuple_size_bytes(&combined) as u64;
                    matched += 1;
                }
                let pass = match &self.residual {
                    Some(ev) => ev.eval_bool(&combined)?,
                    None => true,
                };
                if pass {
                    out.push(Arc::new(combined));
                }
            }
        }
        let n = used as u64;
        work.tuples += n;
        work.bytes += probe_bytes + out_bytes;
        work.hash_probes += n;
        work.allocated_bytes += out_bytes;
        filter.tuples += matched;
        filter.comparisons += matched * self.residual_ops;
        Ok(used)
    }
}

// ----------------------------------------------------------------------
// Hash aggregation (Agg Hash Table Build)
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
pub(crate) enum AggState {
    Count(i64),
    Sum {
        total: f64,
        all_int: bool,
        seen: bool,
    },
    Avg {
        total: f64,
        n: i64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                total: 0.0,
                all_int: true,
                seen: false,
            },
            AggFunc::Avg => AggState::Avg { total: 0.0, n: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    fn update(&mut self, v: Option<Value>) -> DbResult<()> {
        match self {
            AggState::Count(c) => {
                // COUNT(*) counts rows; COUNT(expr) skips NULLs.
                match v {
                    Some(val) if val.is_null() => {}
                    _ => *c += 1,
                }
            }
            AggState::Sum {
                total,
                all_int,
                seen,
            } => {
                if let Some(val) = v {
                    if !val.is_null() {
                        if !matches!(val, Value::Int(_)) {
                            *all_int = false;
                        }
                        *total += val.as_f64()?;
                        *seen = true;
                    }
                }
            }
            AggState::Avg { total, n } => {
                if let Some(val) = v {
                    if !val.is_null() {
                        *total += val.as_f64()?;
                        *n += 1;
                    }
                }
            }
            AggState::Min(cur) => {
                if let Some(val) = v {
                    if !val.is_null()
                        && cur
                            .as_ref()
                            .is_none_or(|c| val.cmp_total(c) == std::cmp::Ordering::Less)
                    {
                        *cur = Some(val);
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(val) = v {
                    if !val.is_null()
                        && cur
                            .as_ref()
                            .is_none_or(|c| val.cmp_total(c) == std::cmp::Ordering::Greater)
                    {
                        *cur = Some(val);
                    }
                }
            }
        }
        Ok(())
    }

    /// Combine a later partial state into this one (parallel pre-aggregation
    /// merge, applied strictly in morsel order). Each combine mirrors the
    /// row-wise `update` fold: counts/sums add, MIN/MAX keep the earlier
    /// value on ties — so the merged state is exactly what a serial fold
    /// over the concatenated input produces (float sums are combined with
    /// the same left-to-right associativity caveat documented in DESIGN.md).
    fn merge(&mut self, later: AggState) {
        match (self, later) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (
                AggState::Sum {
                    total,
                    all_int,
                    seen,
                },
                AggState::Sum {
                    total: t2,
                    all_int: a2,
                    seen: s2,
                },
            ) => {
                *total += t2;
                *all_int &= a2;
                *seen |= s2;
            }
            (AggState::Avg { total, n }, AggState::Avg { total: t2, n: n2 }) => {
                *total += t2;
                *n += n2;
            }
            (AggState::Min(cur), AggState::Min(v)) => {
                if let Some(v) = v {
                    if cur
                        .as_ref()
                        .is_none_or(|c| v.cmp_total(c) == std::cmp::Ordering::Less)
                    {
                        *cur = Some(v);
                    }
                }
            }
            (AggState::Max(cur), AggState::Max(v)) => {
                if let Some(v) = v {
                    if cur
                        .as_ref()
                        .is_none_or(|c| v.cmp_total(c) == std::cmp::Ordering::Greater)
                    {
                        *cur = Some(v);
                    }
                }
            }
            _ => unreachable!("merging mismatched aggregate states"),
        }
    }

    pub fn finalize(self) -> Value {
        match self {
            AggState::Count(c) => Value::Int(c),
            AggState::Sum {
                total,
                all_int,
                seen,
            } => {
                if !seen {
                    Value::Null
                } else if all_int {
                    Value::Int(total as i64)
                } else {
                    Value::Float(total)
                }
            }
            AggState::Avg { total, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(total / n as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}

/// Group key → aggregate states.
pub(crate) type Groups = HashMap<Vec<Value>, Vec<AggState>>;

/// The aggregation fold kernel.
pub(crate) struct AggKernel {
    pub specs: Vec<AggSpec>,
    pub group_eval: Vec<Evaluator>,
    pub agg_eval: Vec<Option<Evaluator>>,
    pub track: bool,
}

impl AggKernel {
    /// Fresh states, one per aggregate.
    pub fn states(&self) -> Vec<AggState> {
        self.specs.iter().map(|a| AggState::new(a.func)).collect()
    }

    /// Fold rows into `groups` (Agg Hash Table Build work; the group count
    /// is accounted once, on the final map).
    pub fn fold(
        &self,
        groups: &mut Groups,
        rows: &[Arc<Tuple>],
        work: &mut WorkCounts,
    ) -> DbResult<()> {
        let mut bytes = 0u64;
        for row in rows {
            if self.track {
                bytes += tuple_size_bytes(row) as u64;
            }
            let key: Vec<Value> = self
                .group_eval
                .iter()
                .map(|g| g.eval(row))
                .collect::<DbResult<_>>()?;
            let states = groups.entry(key).or_insert_with(|| self.states());
            for (state, eval) in states.iter_mut().zip(&self.agg_eval) {
                state.update(eval.as_ref().map(|e| e.eval(row)).transpose()?)?;
            }
        }
        let n = rows.len() as u64;
        work.tuples += n;
        work.bytes += bytes;
        work.hash_probes += n;
        Ok(())
    }
}

/// Merge groups folded from later input (a later morsel) into `groups`.
pub(crate) fn merge_groups(groups: &mut Groups, later: Groups) {
    for (key, states) in later {
        match groups.entry(key) {
            Entry::Occupied(mut e) => {
                for (earlier, later) in e.get_mut().iter_mut().zip(states) {
                    earlier.merge(later);
                }
            }
            Entry::Vacant(e) => {
                e.insert(states);
            }
        }
    }
}
