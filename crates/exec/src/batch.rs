//! Pull-based batch execution pipeline.
//!
//! A [`Batch`] of up to `ExecContext::batch_size` rows flows through a
//! `BatchOperator` tree. Operators pull from their children with
//! `next_batch(ctx, max_rows)` — `None` means exhausted, `Some` with fewer
//! rows (even zero) does not. Rows travel as `Arc<Tuple>` straight out of
//! the MVCC version chains, so a tuple is only deep-cloned at the client
//! boundary (or when an operator genuinely builds a new row).
//!
//! OU accounting: each operator owns one `OpSpan` per OU it implements.
//! A span folds per-batch work into a single `OuTracker` via pause/resume
//! sections, so the recorded tuple/byte features are identical to the totals
//! the old materialize-everything executor produced per operator; only
//! elapsed time changes (it shrinks — that is the point). Spans are recorded
//! exactly once by `close`, which the pipeline driver calls after the root
//! returns `None` *or* after a LIMIT cuts execution short — so the
//! `(node id, OU)` set seen by a recorder is the same as before even when
//! upstream operators never ran.
//!
//! Pipeline breakers (join build, agg build, sort build) consume their input
//! fully on first pull; those edges are exactly the OU span boundaries the
//! paper's models key on, so batching never blurs them.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use mb2_common::types::{tuple_size_bytes, Tuple};
use mb2_common::{DbError, DbResult, OuKind, Value};
use mb2_index::Index;
use mb2_sql::plan::{AggSpec, OutputSink, ScanRange, SortKey};
use mb2_sql::{AggFunc, PlanNode};
use mb2_storage::{SlotId, Table, SHARD_UNIT_SLOTS};

use crate::columnar::{self, BlockPredicate};
use crate::compile::Evaluator;
use crate::context::ExecContext;
use crate::executor::subtree_size;
use crate::ops::{compiled, spin_us};
use crate::parallel::{self, ChainSpec, ExecPool, ParStage, ParallelRun, SpanAcct, WorkerAcct};
use crate::tracker::OuTracker;

/// Default rows per batch. 1 degenerates to tuple-at-a-time execution.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// Upper bound on per-batch buffer pre-allocation (callers may pass huge
/// `max_rows`; don't trust it for `Vec::with_capacity`).
const MAX_PREALLOC: usize = 4096;

/// One batch of rows flowing through the pipeline.
#[derive(Debug, Default)]
pub struct Batch {
    pub rows: Vec<Arc<Tuple>>,
    /// Slot provenance, parallel to `rows`. Only populated by scans built
    /// with `want_slots` (the DML victim path); empty otherwise.
    pub slots: Vec<SlotId>,
}

impl Batch {
    fn with_capacity(n: usize) -> Batch {
        Batch {
            rows: Vec::with_capacity(n.min(MAX_PREALLOC)),
            slots: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Per-operator OU span. Work from every batch folds into one tracker; the
/// measurement is recorded exactly once, at `finish`. Inactive spans (no
/// recorder, no hardware pacing) cost two branches per batch.
struct OpSpan {
    id: u32,
    ou: OuKind,
    tracker: Option<OuTracker>,
    active: bool,
    recorded: bool,
}

impl OpSpan {
    fn new(ctx: &ExecContext<'_>, id: u32, ou: OuKind) -> OpSpan {
        OpSpan {
            id,
            ou,
            tracker: None,
            active: ctx.recorder.is_some() || ctx.hw.slowdown() > 1.0,

            recorded: false,
        }
    }

    /// Whether work counters need to be maintained at all.
    fn active(&self) -> bool {
        self.active
    }

    /// Open a timed section covering this batch's work.
    fn enter(&mut self) {
        if self.active {
            self.tracker
                .get_or_insert_with(OuTracker::start_paused)
                .resume();
        }
    }

    /// Close the current timed section (downstream operators run next).
    fn exit(&mut self) {
        if let Some(t) = self.tracker.as_mut() {
            t.pause();
        }
    }

    /// Fold work counts into the span (with or without an open section).
    fn work(&mut self, f: impl FnOnce(&mut OuTracker)) {
        if self.active {
            f(self.tracker.get_or_insert_with(OuTracker::start_paused));
        }
    }

    /// Fold a worker-side account (work counts + wall time) into the span.
    /// Parallel operators call this once per chain run, at close, so the
    /// recorded measurement sums every worker's contribution.
    fn absorb(&mut self, acct: &SpanAcct) {
        if self.active {
            self.tracker
                .get_or_insert_with(OuTracker::start_paused)
                .absorb(&acct.work, acct.elapsed_us);
        }
    }

    /// Record the folded measurement. Idempotent; an operator that was never
    /// pulled (LIMIT 0 upstream cut) still records a zero-work span so the
    /// recorder sees the full `(node id, OU)` set of the plan.
    fn finish(&mut self, ctx: &ExecContext<'_>) {
        if !self.active || self.recorded {
            return;
        }
        self.recorded = true;
        let tracker = self.tracker.take().unwrap_or_else(OuTracker::start_paused);
        let work = tracker.work;
        let metrics = tracker.finish(&ctx.hw);
        if let Some(r) = ctx.recorder {
            r.record_work(self.id, self.ou, work);
            r.record(self.id, self.ou, metrics);
        }
    }
}

/// A node in the executable pipeline.
pub(crate) trait BatchOperator {
    /// Pull up to `max_rows` rows. `None` = exhausted; `Some` with fewer
    /// rows (even zero) = not necessarily exhausted, pull again.
    fn next_batch(&mut self, ctx: &mut ExecContext<'_>, max_rows: usize)
        -> DbResult<Option<Batch>>;

    /// Finish and record this operator's spans (children first, matching
    /// the record order of full bottom-up materialization). Called once by
    /// the driver after the root is drained or a LIMIT cut execution short.
    fn close(&mut self, ctx: &mut ExecContext<'_>);
}

type BoxedOp = Box<dyn BatchOperator>;

// ----------------------------------------------------------------------
// Scans
// ----------------------------------------------------------------------

/// Sequential scan with the filter pushed into the visibility visitor:
/// filtered-out tuples are never cloned, and the scan suspends mid-heap as
/// soon as the batch fills (resumable via `scan_visible_from`).
///
/// With the `columnar_enabled` knob on (`block_pred` set), the scan serves
/// every *clean sealed unit* wholesale from its columnar block — vectorized
/// predicate masks, zone-map skipping, late materialization (Block/Scan OU)
/// — and walks version chains only for the dirty/unsealed remainder, so
/// the emitted row stream stays byte-identical to the pure row path.
struct SeqScanOp {
    table: Arc<Table>,
    filter: Option<Evaluator>,
    filter_ops: u64,
    want_slots: bool,
    pos: usize,
    done: bool,
    scan_span: OpSpan,
    filter_span: Option<OpSpan>,
    /// `Some` iff this scan may take the columnar fast path.
    block_pred: Option<BlockPredicate>,
    block_span: Option<OpSpan>,
    /// Block-path rows beyond the current batch's budget (a block emits a
    /// whole unit's survivors at once); drained first on the next pull.
    carry: Vec<Arc<Tuple>>,
    carry_cursor: usize,
}

impl BatchOperator for SeqScanOp {
    fn next_batch(
        &mut self,
        ctx: &mut ExecContext<'_>,
        max_rows: usize,
    ) -> DbResult<Option<Batch>> {
        let max = max_rows.max(1);
        let mut batch = Batch::with_capacity(max);
        // Carried-over block rows precede anything newly scanned.
        while batch.rows.len() < max && self.carry_cursor < self.carry.len() {
            batch.rows.push(Arc::clone(&self.carry[self.carry_cursor]));
            self.carry_cursor += 1;
        }
        if self.carry_cursor >= self.carry.len() {
            self.carry.clear();
            self.carry_cursor = 0;
        }
        let track = self.scan_span.active();
        let want_slots = self.want_slots;
        let mut scanned = 0u64;
        let mut scanned_bytes = 0u64;
        while batch.rows.len() < max && !self.done {
            // Columnar fast path: a clean sealed block is a complete
            // snapshot of its unit (writers mark it dirty before their
            // commit timestamp is drawn), so the whole unit is served
            // without touching a chain lock. Dirty/unsealed units fall
            // through to the row path, whose per-slot block fallback
            // handles sealed rows among revived chains.
            if let Some(pred) = &self.block_pred {
                if self.pos.is_multiple_of(SHARD_UNIT_SLOTS) {
                    let unit = self.pos / SHARD_UNIT_SLOTS;
                    if let Some(block) = self.table.sealed_unit(unit).filter(|b| !b.is_dirty()) {
                        let span = self.block_span.as_mut().expect("columnar scan block span");
                        span.enter();
                        let carry = &mut self.carry;
                        let out = columnar::scan_block(
                            &block,
                            pred,
                            self.filter.as_ref(),
                            ctx.txn.read_ts(),
                            |row| {
                                if batch.rows.len() < max {
                                    batch.rows.push(Arc::clone(row));
                                } else {
                                    carry.push(Arc::clone(row));
                                }
                            },
                        );
                        let out = match out {
                            Ok(o) => o,
                            Err(e) => {
                                span.exit();
                                return Err(e);
                            }
                        };
                        span.work(|t| {
                            t.add_tuples(out.swept);
                            t.add_bytes(out.bytes);
                            t.add_allocated(out.bytes);
                        });
                        span.exit();
                        if out.zone_skipped {
                            self.table.note_zone_skip(unit);
                        }
                        if let Some(fspan) = self.filter_span.as_mut() {
                            // Predicate work over swept rows lands on the
                            // filter span exactly as the fused row path
                            // accounts it (zone-skipped blocks swept 0).
                            let ops = self.filter_ops;
                            fspan.work(|t| {
                                t.add_tuples(out.swept);
                                t.add_comparisons(out.swept * ops);
                            });
                        }
                        self.pos += SHARD_UNIT_SLOTS;
                        continue;
                    }
                }
            }
            // Row path: up to the next unit boundary in columnar mode (so
            // the next iteration can reconsider a block), unbounded
            // otherwise.
            let seg_end = if self.block_pred.is_some() {
                (self.pos / SHARD_UNIT_SLOTS + 1) * SHARD_UNIT_SLOTS
            } else {
                usize::MAX
            };
            self.scan_span.enter();
            let filter = self.filter.as_ref();
            let mut err: Option<DbError> = None;
            self.pos = self.table.scan_visible_range(
                self.pos,
                seg_end,
                ctx.txn.read_ts(),
                ctx.txn.id(),
                |slot, tuple| {
                    if track {
                        scanned += 1;
                        scanned_bytes += tuple_size_bytes(tuple) as u64;
                    }
                    let keep = match filter {
                        None => true,
                        Some(ev) => match ev.eval_bool(tuple) {
                            Ok(k) => k,
                            Err(e) => {
                                err = Some(e);
                                return false;
                            }
                        },
                    };
                    if keep {
                        batch.rows.push(Arc::clone(tuple));
                        if want_slots {
                            batch.slots.push(slot);
                        }
                    }
                    batch.rows.len() < max
                },
            );
            self.scan_span.exit();
            if let Some(e) = err {
                self.flush_row_work(scanned, scanned_bytes);
                return Err(e);
            }
            if batch.rows.len() < max && self.pos < seg_end {
                // The heap ended inside this segment.
                self.done = true;
            }
        }
        self.flush_row_work(scanned, scanned_bytes);
        if batch.rows.is_empty() && self.done && self.carry.is_empty() {
            return Ok(None);
        }
        Ok(Some(batch))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.scan_span.finish(ctx);
        if let Some(span) = self.block_span.as_mut() {
            span.finish(ctx);
        }
        if let Some(span) = self.filter_span.as_mut() {
            span.finish(ctx);
        }
    }
}

impl SeqScanOp {
    /// Fold this pull's row-path work into the scan and (fused) filter
    /// spans. The fused predicate ran inside the scan section; its *work*
    /// counts still land on the Arithmetic/Filter span (features are
    /// preserved; elapsed time legitimately collapses — see DESIGN.md
    /// "Batch execution model").
    fn flush_row_work(&mut self, scanned: u64, scanned_bytes: u64) {
        self.scan_span.work(|t| {
            t.add_tuples(scanned);
            t.add_bytes(scanned_bytes);
            t.add_allocated(scanned_bytes);
        });
        if let Some(span) = self.filter_span.as_mut() {
            let ops = self.filter_ops;
            span.work(|t| {
                t.add_tuples(scanned);
                t.add_comparisons(scanned * ops);
            });
        }
    }
}

/// Index scan: candidate slots come from one `range_prefix` pass (done
/// lazily on first pull), then visibility + residual filter are applied a
/// batch at a time against the base table.
struct IndexScanOp {
    table: Arc<Table>,
    index: Arc<Index<SlotId>>,
    range: ScanRange,
    filter: Option<Evaluator>,
    filter_ops: u64,
    want_slots: bool,
    candidates: Option<Vec<SlotId>>,
    cursor: usize,
    scan_span: OpSpan,
    filter_span: Option<OpSpan>,
}

impl BatchOperator for IndexScanOp {
    fn next_batch(
        &mut self,
        ctx: &mut ExecContext<'_>,
        max_rows: usize,
    ) -> DbResult<Option<Batch>> {
        let max = max_rows.max(1);
        self.scan_span.enter();
        if self.candidates.is_none() {
            let mut c: Vec<SlotId> = Vec::new();
            self.index
                .range_prefix(&self.range.lo, &self.range.hi, |_, &slot| {
                    c.push(slot);
                    true
                });
            self.candidates = Some(c);
        }
        let candidates = self.candidates.as_ref().expect("index candidates");
        if self.cursor >= candidates.len() {
            self.scan_span.exit();
            return Ok(None);
        }
        let track = self.scan_span.active();
        let mut batch = Batch::with_capacity(max);
        let mut visible = 0u64;
        let mut bytes = 0u64;
        let mut probed = 0u64;
        let mut err: Option<DbError> = None;
        while self.cursor < candidates.len() && batch.rows.len() < max {
            let slot = candidates[self.cursor];
            self.cursor += 1;
            probed += 1;
            if let Some(tuple) = ctx.txn.read(&self.table, slot) {
                if track {
                    visible += 1;
                    bytes += tuple_size_bytes(&tuple) as u64;
                }
                let keep = match &self.filter {
                    None => true,
                    Some(ev) => match ev.eval_bool(&tuple) {
                        Ok(k) => k,
                        Err(e) => {
                            err = Some(e);
                            break;
                        }
                    },
                };
                if keep {
                    batch.rows.push(tuple);
                    if self.want_slots {
                        batch.slots.push(slot);
                    }
                }
            }
        }
        self.scan_span.work(|t| {
            t.add_tuples(visible);
            t.add_bytes(bytes);
            t.add_random_accesses(probed);
            t.add_hash_probes(0);
            t.add_allocated(bytes);
        });
        self.scan_span.exit();
        if let Some(span) = self.filter_span.as_mut() {
            let ops = self.filter_ops;
            span.work(|t| {
                t.add_tuples(visible);
                t.add_comparisons(visible * ops);
            });
        }
        if let Some(e) = err {
            return Err(e);
        }
        Ok(Some(batch))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.scan_span.finish(ctx);
        if let Some(span) = self.filter_span.as_mut() {
            span.finish(ctx);
        }
    }
}

// ----------------------------------------------------------------------
// Parallel leaf chains (see crate::parallel and DESIGN.md "Parallel
// execution model")
// ----------------------------------------------------------------------

/// Match a plan subtree that can run as a parallel leaf chain: zero or more
/// Filter/Project stages over a sequential scan of a table with at least
/// two morsels. Returns `None` (→ serial pipeline) when there is no pool,
/// the subtree has another shape, or the table is too small to split.
/// Index scans stay serial: their candidate sets come from one index pass,
/// not from heap ranges.
fn par_chain(node: &PlanNode, id: u32, ctx: &ExecContext<'_>) -> DbResult<Option<Arc<ChainSpec>>> {
    if ctx.pool.is_none() {
        return Ok(None);
    }
    let use_compiled = compiled(ctx);
    let mut stages: Vec<ParStage> = Vec::new();
    let mut cur = node;
    let mut cur_id = id;
    loop {
        match cur {
            PlanNode::Filter {
                input, predicate, ..
            } => {
                stages.push(ParStage::Filter {
                    id: cur_id,
                    eval: Evaluator::new(predicate, use_compiled),
                    ops: predicate.op_count() as u64,
                });
                cur = input;
                cur_id += 1;
            }
            PlanNode::Project { input, exprs, .. } => {
                stages.push(ParStage::Project {
                    id: cur_id,
                    evals: exprs
                        .iter()
                        .map(|e| Evaluator::new(e, use_compiled))
                        .collect(),
                    ops: exprs.iter().map(|e| e.op_count() as u64).sum(),
                });
                cur = input;
                cur_id += 1;
            }
            PlanNode::SeqScan { table, filter, .. } => {
                let entry = ctx.catalog.get(table)?;
                let total_slots = entry.table.num_slots();
                let mut morsel_slots = ctx.morsel_slots.max(1);
                if ctx.columnar {
                    // Unit-align morsels so each sealed block lies inside
                    // exactly one morsel and can be served wholesale.
                    morsel_slots = morsel_slots.div_ceil(SHARD_UNIT_SLOTS) * SHARD_UNIT_SLOTS;
                }
                if total_slots.div_ceil(morsel_slots) < 2 {
                    return Ok(None);
                }
                // Stages were collected top-down; workers apply them
                // scan-upward.
                stages.reverse();
                return Ok(Some(Arc::new(ChainSpec {
                    table: Arc::clone(&entry.table),
                    read_ts: ctx.txn.read_ts(),
                    own: ctx.txn.id(),
                    scan_id: cur_id,
                    filter: filter.as_ref().map(|f| Evaluator::new(f, use_compiled)),
                    filter_ops: filter.as_ref().map_or(0, |f| f.op_count()) as u64,
                    block_pred: ctx
                        .columnar
                        .then(|| BlockPredicate::extract(filter.as_ref())),
                    stages,
                    track: ctx.recorder.is_some() || ctx.hw.slowdown() > 1.0,
                    morsel_slots,
                    total_slots,
                })));
            }
            _ => return Ok(None),
        }
    }
}

/// One `OpSpan` per (node, OU) the chain accounts for — created eagerly so
/// a chain that never runs (LIMIT 0) still records zero-work spans.
fn chain_spans(ctx: &ExecContext<'_>, chain: &ChainSpec) -> Vec<OpSpan> {
    chain
        .span_keys()
        .into_iter()
        .map(|(id, ou)| OpSpan::new(ctx, id, ou))
        .collect()
}

/// Fold every matching worker account into the chain's spans.
fn absorb_chain(spans: &mut [OpSpan], acct: &WorkerAcct) {
    for span in spans {
        if let Some(a) = acct.get(span.id, span.ou) {
            span.absorb(a);
        }
    }
}

fn require_pool(ctx: &ExecContext<'_>) -> DbResult<Arc<ExecPool>> {
    ctx.pool
        .clone()
        .ok_or_else(|| DbError::Execution("parallel operator built without a pool".into()))
}

/// A pipeline-breaker input: either a regular child operator or a parallel
/// leaf chain the breaker consumes morsel-wise on the worker pool.
enum ParChild {
    Op(BoxedOp),
    Parallel {
        chain: Arc<ChainSpec>,
        spans: Vec<OpSpan>,
    },
}

impl ParChild {
    fn from_plan(node: &PlanNode, id: u32, ctx: &ExecContext<'_>) -> DbResult<ParChild> {
        match par_chain(node, id, ctx)? {
            Some(chain) => {
                let spans = chain_spans(ctx, &chain);
                Ok(ParChild::Parallel { chain, spans })
            }
            None => Ok(ParChild::Op(build_pipeline(node, id, ctx, false)?)),
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        match self {
            ParChild::Op(op) => op.close(ctx),
            ParChild::Parallel { spans, .. } => {
                for span in spans {
                    span.finish(ctx);
                }
            }
        }
    }
}

/// A parallel leaf chain in a streaming (non-breaker) position: workers
/// scan/filter/project morsels concurrently and the ordered gather re-emits
/// rows in heap order, so downstream operators (and LIMIT) see exactly the
/// serial row stream.
struct ParallelScanOp {
    chain: Arc<ChainSpec>,
    spans: Vec<OpSpan>,
    run: Option<ParallelRun<Vec<Arc<Tuple>>>>,
    started: bool,
    buf: Vec<Arc<Tuple>>,
    cursor: usize,
    exhausted: bool,
}

impl ParallelScanOp {
    fn new(ctx: &ExecContext<'_>, chain: Arc<ChainSpec>) -> ParallelScanOp {
        let spans = chain_spans(ctx, &chain);
        ParallelScanOp {
            chain,
            spans,
            run: None,
            started: false,
            buf: Vec::new(),
            cursor: 0,
            exhausted: false,
        }
    }
}

impl BatchOperator for ParallelScanOp {
    fn next_batch(
        &mut self,
        ctx: &mut ExecContext<'_>,
        max_rows: usize,
    ) -> DbResult<Option<Batch>> {
        if self.exhausted {
            return Ok(None);
        }
        if !self.started {
            self.started = true;
            let pool = require_pool(ctx)?;
            self.run = Some(parallel::start(
                &pool,
                Arc::clone(&self.chain),
                |_chain, rows, _acct| Ok(rows),
            ));
        }
        let max = max_rows.max(1);
        let mut batch = Batch::with_capacity(max);
        while batch.rows.len() < max {
            if self.cursor < self.buf.len() {
                let take = (max - batch.rows.len()).min(self.buf.len() - self.cursor);
                batch
                    .rows
                    .extend(self.buf[self.cursor..self.cursor + take].iter().cloned());
                self.cursor += take;
                continue;
            }
            match self
                .run
                .as_mut()
                .expect("parallel run started")
                .next_morsel()
            {
                Some(Ok(rows)) => {
                    self.buf = rows;
                    self.cursor = 0;
                }
                Some(Err(e)) => return Err(e),
                None => {
                    self.exhausted = true;
                    break;
                }
            }
        }
        if batch.rows.is_empty() {
            return Ok(None);
        }
        Ok(Some(batch))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        if let Some(run) = self.run.take() {
            // Cancels outstanding morsels (LIMIT early-cut) and folds every
            // worker's accounting into the chain's spans.
            let acct = run.finish();
            absorb_chain(&mut self.spans, &acct);
        }
        for span in &mut self.spans {
            span.finish(ctx);
        }
    }
}

// ----------------------------------------------------------------------
// Stateless streaming operators
// ----------------------------------------------------------------------

/// Standalone filter node (HAVING and other post-operator predicates).
struct FilterOp {
    child: BoxedOp,
    eval: Evaluator,
    ops_per: u64,
    span: OpSpan,
}

impl BatchOperator for FilterOp {
    fn next_batch(
        &mut self,
        ctx: &mut ExecContext<'_>,
        max_rows: usize,
    ) -> DbResult<Option<Batch>> {
        let Some(input) = self.child.next_batch(ctx, max_rows)? else {
            return Ok(None);
        };
        self.span.enter();
        let n_in = input.rows.len() as u64;
        let mut out = Batch::with_capacity(input.rows.len());
        for row in input.rows {
            if self.eval.eval_bool(&row)? {
                out.rows.push(row);
            }
        }
        let ops = self.ops_per;
        self.span.work(|t| {
            t.add_tuples(n_in);
            t.add_comparisons(n_in * ops);
        });
        self.span.exit();
        Ok(Some(out))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.child.close(ctx);
        self.span.finish(ctx);
    }
}

struct ProjectOp {
    child: BoxedOp,
    evals: Vec<Evaluator>,
    ops_per: u64,
    span: OpSpan,
}

impl BatchOperator for ProjectOp {
    fn next_batch(
        &mut self,
        ctx: &mut ExecContext<'_>,
        max_rows: usize,
    ) -> DbResult<Option<Batch>> {
        let Some(input) = self.child.next_batch(ctx, max_rows)? else {
            return Ok(None);
        };
        self.span.enter();
        let n = input.rows.len() as u64;
        let mut out = Batch::with_capacity(input.rows.len());
        for row in &input.rows {
            let projected: Tuple = self
                .evals
                .iter()
                .map(|e| e.eval(row))
                .collect::<DbResult<_>>()?;
            out.rows.push(Arc::new(projected));
        }
        let ops = self.ops_per;
        self.span.work(|t| {
            t.add_tuples(n);
            t.add_comparisons(n * ops.max(1));
        });
        self.span.exit();
        Ok(Some(out))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.child.close(ctx);
        self.span.finish(ctx);
    }
}

/// LIMIT: the early-termination driver. Narrows the row budget it passes
/// upstream to `remaining`, so scans stop pulling tuples off the heap the
/// moment the quota is met — upstream operators are simply never pulled
/// again (and record their partial work at close).
struct LimitOp {
    child: BoxedOp,
    remaining: usize,
}

impl BatchOperator for LimitOp {
    fn next_batch(
        &mut self,
        ctx: &mut ExecContext<'_>,
        max_rows: usize,
    ) -> DbResult<Option<Batch>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let want = max_rows.max(1).min(self.remaining);
        match self.child.next_batch(ctx, want)? {
            None => {
                self.remaining = 0;
                Ok(None)
            }
            Some(mut batch) => {
                if batch.rows.len() > self.remaining {
                    batch.rows.truncate(self.remaining);
                    batch.slots.truncate(self.remaining);
                }
                self.remaining -= batch.rows.len();
                Ok(Some(batch))
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.child.close(ctx);
    }
}

/// Result materialization (Output Result OU).
struct OutputOp {
    child: BoxedOp,
    sink: OutputSink,
    span: OpSpan,
}

impl BatchOperator for OutputOp {
    fn next_batch(
        &mut self,
        ctx: &mut ExecContext<'_>,
        max_rows: usize,
    ) -> DbResult<Option<Batch>> {
        let Some(input) = self.child.next_batch(ctx, max_rows)? else {
            return Ok(None);
        };
        self.span.enter();
        let bytes: u64 = input.rows.iter().map(|r| tuple_size_bytes(r) as u64).sum();
        let out_tuples = match self.sink {
            OutputSink::Client => input.rows.len() as u64,
            OutputSink::Discard => 0,
        };
        self.span.work(|t| {
            t.add_tuples(out_tuples);
            t.add_bytes(bytes);
            t.add_allocated(bytes);
        });
        self.span.exit();
        match self.sink {
            OutputSink::Client => Ok(Some(input)),
            OutputSink::Discard => Ok(Some(Batch::default())),
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.child.close(ctx);
        self.span.finish(ctx);
    }
}

// ----------------------------------------------------------------------
// Joins
// ----------------------------------------------------------------------

/// The frozen build side of a hash join: row storage plus key → row-index
/// buckets. Shared immutably with pool workers during a parallel probe.
struct JoinTable {
    rows: Vec<Arc<Tuple>>,
    map: HashMap<Vec<Value>, Vec<usize>>,
}

impl JoinTable {
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

/// Per-morsel partial hash-table build shipped back through the ordered
/// gather: this morsel's rows plus morsel-local buckets.
type PartialBuild = (Vec<Arc<Tuple>>, HashMap<Vec<Value>, Vec<usize>>);

/// Hash join. The build side is a pipeline breaker: fully consumed on the
/// first pull (Join Hash Table Build OU). Probing then streams: each probe
/// batch is pulled on demand and matches beyond the caller's row budget are
/// buffered in `pending`, so a LIMIT above the join stops probe-side scans
/// early.
///
/// When a side is a parallel leaf chain, the breaker runs morsel-wise on
/// the pool: the build partitions into per-morsel tables merged in morsel
/// order (bucket entry order — and therefore probe output — stays
/// byte-identical to serial insertion order), and the probe matches each
/// morsel against the frozen table on the workers, gathered in order.
struct HashJoinOp {
    build: ParChild,
    probe: ParChild,
    build_keys: Arc<Vec<usize>>,
    probe_keys: Arc<Vec<usize>>,
    residual: Option<Arc<Evaluator>>,
    residual_ops: u64,
    built: bool,
    table: Option<Arc<JoinTable>>,
    probe_buf: Vec<Arc<Tuple>>,
    probe_cursor: usize,
    probe_done: bool,
    pending: VecDeque<Arc<Tuple>>,
    probe_run: Option<ParallelRun<Vec<Arc<Tuple>>>>,
    probe_started: bool,
    build_span: OpSpan,
    probe_span: OpSpan,
    filter_span: Option<OpSpan>,
}

impl HashJoinOp {
    fn build_table(&mut self, ctx: &mut ExecContext<'_>) -> DbResult<()> {
        let track = self.build_span.active();
        let mut rows: Vec<Arc<Tuple>> = Vec::new();
        let mut map: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        let mut build_bytes = 0u64;
        let mut parallel_built = false;
        match &mut self.build {
            ParChild::Op(child) => {
                let pull = ctx.batch_size.max(1);
                loop {
                    // The child times itself; our span only covers inserts.
                    let pulled = child.next_batch(ctx, pull)?;
                    let Some(batch) = pulled else { break };
                    self.build_span.enter();
                    map.reserve(batch.rows.len());
                    for row in batch.rows {
                        let key: Vec<Value> =
                            self.build_keys.iter().map(|&k| row[k].clone()).collect();
                        if track {
                            build_bytes += tuple_size_bytes(&row) as u64;
                        }
                        map.entry(key).or_default().push(rows.len());
                        rows.push(row);
                        if ctx.jht_sleep_every > 0 && rows.len().is_multiple_of(ctx.jht_sleep_every)
                        {
                            spin_us(1);
                        }
                    }
                    self.build_span.exit();
                }
            }
            ParChild::Parallel { chain, spans } => {
                parallel_built = true;
                let pool = require_pool(ctx)?;
                let keys = Arc::clone(&self.build_keys);
                let jht = ctx.jht_sleep_every;
                let ou_id = self.build_span.id;
                let mut run = parallel::start(
                    &pool,
                    Arc::clone(chain),
                    move |chain, rows, acct| -> DbResult<PartialBuild> {
                        let t0 = Instant::now();
                        let mut bytes = 0u64;
                        let mut part: HashMap<Vec<Value>, Vec<usize>> =
                            HashMap::with_capacity(rows.len());
                        for (i, row) in rows.iter().enumerate() {
                            let key: Vec<Value> = keys.iter().map(|&k| row[k].clone()).collect();
                            if chain.track {
                                bytes += tuple_size_bytes(row) as u64;
                            }
                            part.entry(key).or_default().push(i);
                            if jht > 0 && (i + 1).is_multiple_of(jht) {
                                spin_us(1);
                            }
                        }
                        if chain.track {
                            // Per-row-linear build work is accounted on the
                            // worker; merge-only terms (unique buckets) are
                            // added by the issuing thread so totals match
                            // the serial formula exactly.
                            let n = rows.len() as u64;
                            let s = acct.span(ou_id, OuKind::JoinHashBuild);
                            s.work.tuples += n;
                            s.work.bytes += bytes;
                            s.work.hash_probes += n;
                            s.work.allocated_bytes += n * (32 + keys.len() as u64 * 16) + bytes;
                            s.elapsed_us += parallel::elapsed_us(t0);
                        }
                        Ok((rows, part))
                    },
                );
                // Merge partial tables in morsel order: every index in a
                // later morsel is larger than every index in an earlier
                // one, so bucket entry order equals serial insertion order.
                while let Some(res) = run.next_morsel() {
                    let (part_rows, part_map) = res?;
                    self.build_span.enter();
                    let off = rows.len();
                    map.reserve(part_map.len());
                    for (key, idxs) in part_map {
                        map.entry(key)
                            .or_default()
                            .extend(idxs.into_iter().map(|i| i + off));
                    }
                    rows.extend(part_rows);
                    self.build_span.exit();
                }
                let acct = run.finish();
                absorb_chain(spans, &acct);
                if let Some(a) = acct.get(ou_id, OuKind::JoinHashBuild) {
                    self.build_span.absorb(a);
                }
            }
        }
        let n = rows.len() as u64;
        let uniq = map.len() as u64;
        if parallel_built {
            self.build_span.work(|t| t.add_random_accesses(uniq));
        } else {
            let alloc = n * (32 + self.build_keys.len() as u64 * 16) + build_bytes;
            self.build_span.work(|t| {
                t.add_tuples(n);
                t.add_bytes(build_bytes);
                t.add_hash_probes(n);
                t.add_random_accesses(uniq);
                t.add_allocated(alloc);
            });
        }
        self.table = Some(Arc::new(JoinTable { rows, map }));
        self.built = true;
        Ok(())
    }

    /// Serial probe: pull probe batches through the pipeline and match them
    /// on this thread.
    fn next_batch_serial(
        &mut self,
        ctx: &mut ExecContext<'_>,
        max: usize,
    ) -> DbResult<Option<Batch>> {
        let table = Arc::clone(self.table.as_ref().expect("join table built"));
        let mut out = Batch::with_capacity(max);
        let track = self.probe_span.active();
        let mut probe_tuples = 0u64;
        let mut probe_bytes = 0u64;
        let mut out_bytes = 0u64;
        let mut matched = 0u64;
        let mut key_scratch: Vec<Value> = Vec::new();
        self.probe_span.enter();
        while out.rows.len() < max {
            if let Some(row) = self.pending.pop_front() {
                out.rows.push(row);
                continue;
            }
            if self.probe_cursor >= self.probe_buf.len() {
                if self.probe_done {
                    break;
                }
                let child = match &mut self.probe {
                    ParChild::Op(op) => op,
                    ParChild::Parallel { .. } => unreachable!("serial probe"),
                };
                self.probe_span.exit();
                let pulled = child.next_batch(ctx, max)?;
                self.probe_span.enter();
                match pulled {
                    None => self.probe_done = true,
                    Some(batch) => {
                        self.probe_buf = batch.rows;
                        self.probe_cursor = 0;
                    }
                }
                continue;
            }
            let row = Arc::clone(&self.probe_buf[self.probe_cursor]);
            self.probe_cursor += 1;
            if track {
                probe_tuples += 1;
                probe_bytes += tuple_size_bytes(&row) as u64;
            }
            if let Some(matches) = table.matches(&self.probe_keys, &row, &mut key_scratch) {
                for &bi in matches {
                    let build_row = &table.rows[bi];
                    let mut combined: Tuple = Vec::with_capacity(row.len() + build_row.len());
                    combined.extend(row.iter().cloned());
                    combined.extend(build_row.iter().cloned());
                    if track {
                        out_bytes += tuple_size_bytes(&combined) as u64;
                        matched += 1;
                    }
                    let pass = match &self.residual {
                        Some(ev) => ev.eval_bool(&combined)?,
                        None => true,
                    };
                    if pass {
                        let combined = Arc::new(combined);
                        if out.rows.len() < max {
                            out.rows.push(combined);
                        } else {
                            self.pending.push_back(combined);
                        }
                    }
                }
            }
        }
        self.probe_span.work(|t| {
            t.add_tuples(probe_tuples);
            t.add_bytes(probe_bytes + out_bytes);
            t.add_hash_probes(probe_tuples);
            t.add_allocated(out_bytes);
        });
        self.probe_span.exit();
        if let Some(span) = self.filter_span.as_mut() {
            let ops = self.residual_ops;
            span.work(|t| {
                t.add_tuples(matched);
                t.add_comparisons(matched * ops);
            });
        }
        if out.rows.is_empty()
            && self.probe_done
            && self.pending.is_empty()
            && self.probe_cursor >= self.probe_buf.len()
        {
            return Ok(None);
        }
        Ok(Some(out))
    }

    /// Parallel probe: workers match whole morsels against the frozen table;
    /// joined rows arrive through the ordered gather in probe-major order,
    /// byte-identical to the serial probe stream.
    fn next_batch_parallel(
        &mut self,
        ctx: &mut ExecContext<'_>,
        max: usize,
    ) -> DbResult<Option<Batch>> {
        if !self.probe_started {
            self.probe_started = true;
            let pool = require_pool(ctx)?;
            let chain = match &self.probe {
                ParChild::Parallel { chain, .. } => Arc::clone(chain),
                ParChild::Op(_) => unreachable!("parallel probe"),
            };
            let table = Arc::clone(self.table.as_ref().expect("join table built"));
            let pkeys = Arc::clone(&self.probe_keys);
            let residual = self.residual.clone();
            let residual_ops = self.residual_ops;
            let ou_id = self.probe_span.id;
            self.probe_run = Some(parallel::start(&pool, chain, move |chain, rows, acct| {
                let t0 = Instant::now();
                let track = chain.track;
                let mut out: Vec<Arc<Tuple>> = Vec::new();
                let mut probe_bytes = 0u64;
                let mut out_bytes = 0u64;
                let mut matched = 0u64;
                let mut key_scratch: Vec<Value> = Vec::new();
                for row in &rows {
                    if track {
                        probe_bytes += tuple_size_bytes(row) as u64;
                    }
                    if let Some(matches) = table.matches(&pkeys, row, &mut key_scratch) {
                        for &bi in matches {
                            let build_row = &table.rows[bi];
                            let mut combined: Tuple =
                                Vec::with_capacity(row.len() + build_row.len());
                            combined.extend(row.iter().cloned());
                            combined.extend(build_row.iter().cloned());
                            if track {
                                out_bytes += tuple_size_bytes(&combined) as u64;
                                matched += 1;
                            }
                            let pass = match &residual {
                                Some(ev) => ev.eval_bool(&combined)?,
                                None => true,
                            };
                            if pass {
                                out.push(Arc::new(combined));
                            }
                        }
                    }
                }
                if track {
                    let n = rows.len() as u64;
                    let s = acct.span(ou_id, OuKind::JoinHashProbe);
                    s.work.tuples += n;
                    s.work.bytes += probe_bytes + out_bytes;
                    s.work.hash_probes += n;
                    s.work.allocated_bytes += out_bytes;
                    s.elapsed_us += parallel::elapsed_us(t0);
                    if residual.is_some() {
                        let f = acct.span(ou_id, OuKind::ArithmeticFilter);
                        f.work.tuples += matched;
                        f.work.comparisons += matched * residual_ops;
                    }
                }
                Ok(out)
            }));
        }
        let mut out = Batch::with_capacity(max);
        while out.rows.len() < max {
            if self.probe_cursor < self.probe_buf.len() {
                let take = (max - out.rows.len()).min(self.probe_buf.len() - self.probe_cursor);
                out.rows.extend(
                    self.probe_buf[self.probe_cursor..self.probe_cursor + take]
                        .iter()
                        .cloned(),
                );
                self.probe_cursor += take;
                continue;
            }
            if self.probe_done {
                break;
            }
            match self.probe_run.as_mut().expect("probe run").next_morsel() {
                Some(Ok(rows)) => {
                    self.probe_buf = rows;
                    self.probe_cursor = 0;
                }
                Some(Err(e)) => return Err(e),
                None => {
                    self.probe_done = true;
                    break;
                }
            }
        }
        if out.rows.is_empty() && self.probe_done && self.probe_cursor >= self.probe_buf.len() {
            return Ok(None);
        }
        Ok(Some(out))
    }
}

impl BatchOperator for HashJoinOp {
    fn next_batch(
        &mut self,
        ctx: &mut ExecContext<'_>,
        max_rows: usize,
    ) -> DbResult<Option<Batch>> {
        if !self.built {
            self.build_table(ctx)?;
        }
        let max = max_rows.max(1);
        match &self.probe {
            ParChild::Op(_) => self.next_batch_serial(ctx, max),
            ParChild::Parallel { .. } => self.next_batch_parallel(ctx, max),
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        if let Some(run) = self.probe_run.take() {
            let acct = run.finish();
            if let ParChild::Parallel { spans, .. } = &mut self.probe {
                absorb_chain(spans, &acct);
            }
            if let Some(a) = acct.get(self.probe_span.id, OuKind::JoinHashProbe) {
                self.probe_span.absorb(a);
            }
            if let Some(span) = self.filter_span.as_mut() {
                if let Some(a) = acct.get(self.probe_span.id, OuKind::ArithmeticFilter) {
                    span.absorb(a);
                }
            }
        }
        self.build.close(ctx);
        self.probe.close(ctx);
        self.build_span.finish(ctx);
        self.probe_span.finish(ctx);
        if let Some(span) = self.filter_span.as_mut() {
            span.finish(ctx);
        }
    }
}

/// Nested-loop cross join (non-equi fallback). The inner side is a pipeline
/// breaker (fully materialized on first pull); the outer side streams one
/// tuple at a time, so a LIMIT above stops the outer scan early.
struct NestedLoopJoinOp {
    outer: BoxedOp,
    inner: BoxedOp,
    eval: Option<Evaluator>,
    ops_per: u64,
    inner_built: bool,
    inner_rows: Vec<Arc<Tuple>>,
    outer_buf: Vec<Arc<Tuple>>,
    outer_cursor: usize,
    outer_done: bool,
    pending: VecDeque<Arc<Tuple>>,
    span: OpSpan,
}

impl BatchOperator for NestedLoopJoinOp {
    fn next_batch(
        &mut self,
        ctx: &mut ExecContext<'_>,
        max_rows: usize,
    ) -> DbResult<Option<Batch>> {
        if !self.inner_built {
            let pull = ctx.batch_size.max(1);
            while let Some(batch) = self.inner.next_batch(ctx, pull)? {
                self.inner_rows.extend(batch.rows);
            }
            self.inner_built = true;
        }
        let max = max_rows.max(1);
        let mut out = Batch::with_capacity(max);
        let track = self.span.active();
        let mut pairs = 0u64;
        self.span.enter();
        while out.rows.len() < max {
            if let Some(row) = self.pending.pop_front() {
                out.rows.push(row);
                continue;
            }
            if self.outer_cursor >= self.outer_buf.len() {
                if self.outer_done {
                    break;
                }
                self.span.exit();
                let pulled = self.outer.next_batch(ctx, max)?;
                self.span.enter();
                match pulled {
                    None => self.outer_done = true,
                    Some(batch) => {
                        self.outer_buf = batch.rows;
                        self.outer_cursor = 0;
                    }
                }
                continue;
            }
            let o = Arc::clone(&self.outer_buf[self.outer_cursor]);
            self.outer_cursor += 1;
            if track {
                pairs += self.inner_rows.len() as u64;
            }
            for i in &self.inner_rows {
                let mut combined: Tuple = Vec::with_capacity(o.len() + i.len());
                combined.extend(o.iter().cloned());
                combined.extend(i.iter().cloned());
                let pass = match &self.eval {
                    Some(e) => e.eval_bool(&combined)?,
                    None => true,
                };
                if pass {
                    let combined = Arc::new(combined);
                    if out.rows.len() < max {
                        out.rows.push(combined);
                    } else {
                        self.pending.push_back(combined);
                    }
                }
            }
        }
        let ops = self.ops_per;
        self.span.work(|t| {
            t.add_tuples(pairs);
            t.add_comparisons(pairs * ops);
        });
        self.span.exit();
        if out.rows.is_empty()
            && self.outer_done
            && self.pending.is_empty()
            && self.outer_cursor >= self.outer_buf.len()
        {
            return Ok(None);
        }
        Ok(Some(out))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.outer.close(ctx);
        self.inner.close(ctx);
        self.span.finish(ctx);
    }
}

// ----------------------------------------------------------------------
// Aggregation
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum AggState {
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

    fn finalize(self) -> Value {
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

/// Per-morsel partial aggregation shipped back through the ordered gather.
type PartialGroups = HashMap<Vec<Value>, Vec<AggState>>;

/// Hash aggregation: build (pipeline breaker, Agg Hash Table Build OU) then
/// batched emission of finalized groups (Agg Hash Table Probe OU).
///
/// With a parallel leaf chain below, workers pre-aggregate each morsel into
/// a local group map and the issuing thread merges the partials in strict
/// morsel order ([`AggState::merge`]), so the final states equal a serial
/// fold over the heap-ordered input.
struct AggregateOp {
    child: ParChild,
    specs: Arc<Vec<AggSpec>>,
    group_eval: Arc<Vec<Evaluator>>,
    agg_eval: Arc<Vec<Option<Evaluator>>>,
    n_group_cols: usize,
    built: bool,
    emit: Option<std::vec::IntoIter<(Vec<Value>, Vec<AggState>)>>,
    build_span: OpSpan,
    probe_span: OpSpan,
}

impl AggregateOp {
    fn build_groups(&mut self, ctx: &mut ExecContext<'_>) -> DbResult<()> {
        let track = self.build_span.active();
        let mut groups: PartialGroups = HashMap::new();
        let mut rows_in = 0u64;
        let mut bytes = 0u64;
        let mut parallel_built = false;
        match &mut self.child {
            ParChild::Op(child) => {
                let pull = ctx.batch_size.max(1);
                loop {
                    let pulled = child.next_batch(ctx, pull)?;
                    let Some(batch) = pulled else { break };
                    self.build_span.enter();
                    for row in &batch.rows {
                        if track {
                            rows_in += 1;
                            bytes += tuple_size_bytes(row) as u64;
                        }
                        let key: Vec<Value> = self
                            .group_eval
                            .iter()
                            .map(|g| g.eval(row))
                            .collect::<DbResult<_>>()?;
                        let specs = &self.specs;
                        let states = groups.entry(key).or_insert_with(|| {
                            specs.iter().map(|a| AggState::new(a.func)).collect()
                        });
                        for (state, eval) in states.iter_mut().zip(self.agg_eval.iter()) {
                            let v = match eval {
                                Some(e) => Some(e.eval(row)?),
                                None => None,
                            };
                            state.update(v)?;
                        }
                    }
                    self.build_span.exit();
                }
            }
            ParChild::Parallel { chain, spans } => {
                parallel_built = true;
                let pool = require_pool(ctx)?;
                let specs = Arc::clone(&self.specs);
                let group_eval = Arc::clone(&self.group_eval);
                let agg_eval = Arc::clone(&self.agg_eval);
                let ou_id = self.build_span.id;
                let mut run = parallel::start(
                    &pool,
                    Arc::clone(chain),
                    move |chain, rows, acct| -> DbResult<PartialGroups> {
                        let t0 = Instant::now();
                        let mut part: PartialGroups = HashMap::new();
                        let mut n = 0u64;
                        let mut part_bytes = 0u64;
                        for row in &rows {
                            if chain.track {
                                n += 1;
                                part_bytes += tuple_size_bytes(row) as u64;
                            }
                            let key: Vec<Value> = group_eval
                                .iter()
                                .map(|g| g.eval(row))
                                .collect::<DbResult<_>>()?;
                            let states = part.entry(key).or_insert_with(|| {
                                specs.iter().map(|a| AggState::new(a.func)).collect()
                            });
                            for (state, eval) in states.iter_mut().zip(agg_eval.iter()) {
                                let v = match eval {
                                    Some(e) => Some(e.eval(row)?),
                                    None => None,
                                };
                                state.update(v)?;
                            }
                        }
                        if chain.track {
                            let s = acct.span(ou_id, OuKind::AggBuild);
                            s.work.tuples += n;
                            s.work.bytes += part_bytes;
                            s.work.hash_probes += n;
                            s.elapsed_us += parallel::elapsed_us(t0);
                        }
                        Ok(part)
                    },
                );
                while let Some(res) = run.next_morsel() {
                    let part = res?;
                    self.build_span.enter();
                    for (key, states) in part {
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
                    self.build_span.exit();
                }
                let acct = run.finish();
                absorb_chain(spans, &acct);
                if let Some(a) = acct.get(ou_id, OuKind::AggBuild) {
                    self.build_span.absorb(a);
                }
            }
        }
        if groups.is_empty() && self.n_group_cols == 0 {
            // Scalar aggregate over an empty input still yields one row.
            groups.insert(
                Vec::new(),
                self.specs.iter().map(|a| AggState::new(a.func)).collect(),
            );
        }
        let n_groups = groups.len() as u64;
        let width = (self.n_group_cols + self.specs.len()) as u64;
        if parallel_built {
            // Per-row terms were accounted on the workers; only the
            // merge-side terms (group slots) land here, so totals equal the
            // serial formula.
            self.build_span.work(|t| {
                t.add_random_accesses(n_groups);
                t.add_allocated(n_groups * (32 + width * 16));
            });
        } else {
            self.build_span.work(|t| {
                t.add_tuples(rows_in);
                t.add_bytes(bytes);
                t.add_hash_probes(rows_in);
                t.add_random_accesses(n_groups);
                t.add_allocated(n_groups * (32 + width * 16));
            });
        }
        self.emit = Some(groups.into_iter().collect::<Vec<_>>().into_iter());
        self.built = true;
        Ok(())
    }
}

impl BatchOperator for AggregateOp {
    fn next_batch(
        &mut self,
        ctx: &mut ExecContext<'_>,
        max_rows: usize,
    ) -> DbResult<Option<Batch>> {
        if !self.built {
            self.build_groups(ctx)?;
        }
        let emit = self.emit.as_mut().expect("agg emit iterator");
        if emit.len() == 0 {
            return Ok(None);
        }
        let max = max_rows.max(1);
        self.probe_span.enter();
        let mut out = Batch::with_capacity(max.min(emit.len()));
        let mut out_bytes = 0u64;
        let track = self.probe_span.active();
        while out.rows.len() < max {
            let Some((key, states)) = emit.next() else {
                break;
            };
            let mut row = key;
            row.extend(states.into_iter().map(AggState::finalize));
            if track {
                out_bytes += tuple_size_bytes(&row) as u64;
            }
            out.rows.push(Arc::new(row));
        }
        let n = out.rows.len() as u64;
        self.probe_span.work(|t| {
            t.add_tuples(n);
            t.add_bytes(out_bytes);
            t.add_allocated(out_bytes);
        });
        self.probe_span.exit();
        Ok(Some(out))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.child.close(ctx);
        self.build_span.finish(ctx);
        self.probe_span.finish(ctx);
    }
}

// ----------------------------------------------------------------------
// Sort
// ----------------------------------------------------------------------

/// Full sort: build (pipeline breaker, Sort Build OU) then batched ordered
/// emission (Sort Iterate OU).
struct SortOp {
    child: BoxedOp,
    keys: Vec<SortKey>,
    evals: Vec<Evaluator>,
    sorted: Option<std::vec::IntoIter<Arc<Tuple>>>,
    build_span: OpSpan,
    iter_span: OpSpan,
}

impl SortOp {
    fn build_sorted(&mut self, ctx: &mut ExecContext<'_>) -> DbResult<()> {
        let pull = ctx.batch_size.max(1);
        let track = self.build_span.active();
        let mut keyed: Vec<(Vec<Value>, Arc<Tuple>)> = Vec::new();
        let mut bytes = 0u64;
        loop {
            let pulled = self.child.next_batch(ctx, pull)?;
            let Some(batch) = pulled else { break };
            self.build_span.enter();
            for row in batch.rows {
                if track {
                    bytes += tuple_size_bytes(&row) as u64;
                }
                let key: Vec<Value> = self
                    .evals
                    .iter()
                    .map(|e| e.eval(&row))
                    .collect::<DbResult<_>>()?;
                keyed.push((key, row));
            }
            self.build_span.exit();
        }
        self.build_span.enter();
        let keys = &self.keys;
        let mut comparisons = 0u64;
        keyed.sort_by(|a, b| {
            comparisons += 1;
            for (i, k) in keys.iter().enumerate() {
                let ord = a.0[i].cmp_total(&b.0[i]);
                let ord = if k.desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            // Tie-break on the full tuple so results are deterministic even
            // though upstream hash operators iterate in arbitrary order.
            for (x, y) in a.1.iter().zip(b.1.iter()) {
                let ord = x.cmp_total(y);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        let n = keyed.len() as u64;
        let n_keys = self.keys.len() as u64;
        self.build_span.work(|t| {
            t.add_tuples(n);
            t.add_bytes(bytes);
            t.add_comparisons(comparisons);
            t.add_allocated(bytes + n * n_keys * 16);
        });
        self.build_span.exit();
        self.sorted = Some(
            keyed
                .into_iter()
                .map(|(_, row)| row)
                .collect::<Vec<_>>()
                .into_iter(),
        );
        Ok(())
    }
}

impl BatchOperator for SortOp {
    fn next_batch(
        &mut self,
        ctx: &mut ExecContext<'_>,
        max_rows: usize,
    ) -> DbResult<Option<Batch>> {
        if self.sorted.is_none() {
            self.build_sorted(ctx)?;
        }
        let sorted = self.sorted.as_mut().expect("sorted rows");
        if sorted.len() == 0 {
            return Ok(None);
        }
        let max = max_rows.max(1);
        self.iter_span.enter();
        let track = self.iter_span.active();
        let mut out = Batch::with_capacity(max.min(sorted.len()));
        let mut bytes = 0u64;
        while out.rows.len() < max {
            let Some(row) = sorted.next() else { break };
            if track {
                bytes += tuple_size_bytes(&row) as u64;
            }
            out.rows.push(row);
        }
        let n = out.rows.len() as u64;
        self.iter_span.work(|t| {
            t.add_tuples(n);
            t.add_bytes(bytes);
        });
        self.iter_span.exit();
        Ok(Some(out))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.child.close(ctx);
        self.build_span.finish(ctx);
        self.iter_span.finish(ctx);
    }
}

// ----------------------------------------------------------------------
// Pipeline construction and driving
// ----------------------------------------------------------------------

/// Build the executable pipeline for a row-producing plan subtree rooted at
/// pre-order node `id` (first child = `id + 1`, second child = `id + 1 +
/// subtree_size(first)` — identical numbering to the OU translator in
/// `mb2-core`). `want_slots` makes scan nodes emit slot provenance for DML.
pub(crate) fn build_pipeline(
    node: &PlanNode,
    id: u32,
    ctx: &ExecContext<'_>,
    want_slots: bool,
) -> DbResult<BoxedOp> {
    let use_compiled = compiled(ctx);
    // A parallelizable leaf chain in a streaming position runs as a
    // ParallelScanOp (morsel-parallel with an ordered gather). DML victim
    // scans stay serial: they need slot provenance paired with rows.
    if !want_slots {
        if let Some(chain) = par_chain(node, id, ctx)? {
            return Ok(Box::new(ParallelScanOp::new(ctx, chain)));
        }
    }
    match node {
        PlanNode::SeqScan { table, filter, .. } => {
            let entry = ctx.catalog.get(table)?;
            // batch_size == 1 is the legacy tuple-at-a-time mode: the
            // predicate runs in a separate operator above the scan so every
            // tuple traverses the full pull chain, as the materializing
            // engine behaved. Larger batches push it into the scan visitor.
            // DML scans always fuse — their filter must keep rows and slots
            // paired.
            let fuse = ctx.batch_size > 1 || want_slots || filter.is_none();
            // DML victim scans need slot provenance, which blocks don't
            // carry — they stay on the row path.
            let columnar = ctx.columnar && !want_slots;
            let scan = Box::new(SeqScanOp {
                table: Arc::clone(&entry.table),
                filter: fuse
                    .then(|| filter.as_ref().map(|f| Evaluator::new(f, use_compiled)))
                    .flatten(),
                filter_ops: filter.as_ref().map_or(0, |f| f.op_count()) as u64,
                want_slots,
                pos: 0,
                done: false,
                scan_span: OpSpan::new(ctx, id, OuKind::SeqScan),
                filter_span: filter
                    .as_ref()
                    .filter(|_| fuse)
                    .map(|_| OpSpan::new(ctx, id, OuKind::ArithmeticFilter)),
                // In legacy unfused mode the predicate runs in the FilterOp
                // above, so the block path must emit unfiltered rows.
                block_pred: columnar
                    .then(|| BlockPredicate::extract(filter.as_ref().filter(|_| fuse))),
                block_span: columnar.then(|| OpSpan::new(ctx, id, OuKind::BlockScan)),
                carry: Vec::new(),
                carry_cursor: 0,
            });
            if fuse {
                return Ok(scan);
            }
            let predicate = filter.as_ref().expect("unfused scan has a filter");
            Ok(Box::new(FilterOp {
                child: scan,
                eval: Evaluator::new(predicate, use_compiled),
                ops_per: predicate.op_count() as u64,
                span: OpSpan::new(ctx, id, OuKind::ArithmeticFilter),
            }))
        }
        PlanNode::IndexScan {
            table,
            index,
            range,
            filter,
            ..
        } => {
            let entry = ctx.catalog.get(table)?;
            let idx = entry
                .index_named(index)
                .ok_or_else(|| DbError::Execution(format!("index '{index}' missing")))?;
            // Same legacy-mode split as SeqScan.
            let fuse = ctx.batch_size > 1 || want_slots || filter.is_none();
            let scan = Box::new(IndexScanOp {
                table: Arc::clone(&entry.table),
                index: idx,
                range: range.clone(),
                filter: fuse
                    .then(|| filter.as_ref().map(|f| Evaluator::new(f, use_compiled)))
                    .flatten(),
                filter_ops: filter.as_ref().map_or(0, |f| f.op_count()) as u64,
                want_slots,
                candidates: None,
                cursor: 0,
                scan_span: OpSpan::new(ctx, id, OuKind::IdxScan),
                filter_span: filter
                    .as_ref()
                    .filter(|_| fuse)
                    .map(|_| OpSpan::new(ctx, id, OuKind::ArithmeticFilter)),
            });
            if fuse {
                return Ok(scan);
            }
            let predicate = filter.as_ref().expect("unfused scan has a filter");
            Ok(Box::new(FilterOp {
                child: scan,
                eval: Evaluator::new(predicate, use_compiled),
                ops_per: predicate.op_count() as u64,
                span: OpSpan::new(ctx, id, OuKind::ArithmeticFilter),
            }))
        }
        PlanNode::HashJoin {
            build,
            probe,
            build_keys,
            probe_keys,
            filter,
            ..
        } => {
            let build_id = id + 1;
            let probe_id = id + 1 + subtree_size(build);
            Ok(Box::new(HashJoinOp {
                build: ParChild::from_plan(build, build_id, ctx)?,
                probe: ParChild::from_plan(probe, probe_id, ctx)?,
                build_keys: Arc::new(build_keys.clone()),
                probe_keys: Arc::new(probe_keys.clone()),
                residual: filter
                    .as_ref()
                    .map(|f| Arc::new(Evaluator::new(f, use_compiled))),
                residual_ops: filter.as_ref().map_or(0, |f| f.op_count()) as u64,
                built: false,
                table: None,
                probe_buf: Vec::new(),
                probe_cursor: 0,
                probe_done: false,
                pending: VecDeque::new(),
                probe_run: None,
                probe_started: false,
                build_span: OpSpan::new(ctx, id, OuKind::JoinHashBuild),
                probe_span: OpSpan::new(ctx, id, OuKind::JoinHashProbe),
                filter_span: filter
                    .as_ref()
                    .map(|_| OpSpan::new(ctx, id, OuKind::ArithmeticFilter)),
            }))
        }
        PlanNode::NestedLoopJoin {
            outer,
            inner,
            filter,
            ..
        } => {
            let outer_id = id + 1;
            let inner_id = id + 1 + subtree_size(outer);
            Ok(Box::new(NestedLoopJoinOp {
                outer: build_pipeline(outer, outer_id, ctx, false)?,
                inner: build_pipeline(inner, inner_id, ctx, false)?,
                eval: filter.as_ref().map(|f| Evaluator::new(f, use_compiled)),
                ops_per: filter.as_ref().map_or(0, |f| f.op_count()) as u64,
                inner_built: false,
                inner_rows: Vec::new(),
                outer_buf: Vec::new(),
                outer_cursor: 0,
                outer_done: false,
                pending: VecDeque::new(),
                span: OpSpan::new(ctx, id, OuKind::ArithmeticFilter),
            }))
        }
        PlanNode::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => Ok(Box::new(AggregateOp {
            child: ParChild::from_plan(input, id + 1, ctx)?,
            specs: Arc::new(aggs.clone()),
            group_eval: Arc::new(
                group_by
                    .iter()
                    .map(|g| Evaluator::new(g, use_compiled))
                    .collect(),
            ),
            agg_eval: Arc::new(
                aggs.iter()
                    .map(|a| a.arg.as_ref().map(|e| Evaluator::new(e, use_compiled)))
                    .collect(),
            ),
            n_group_cols: group_by.len(),
            built: false,
            emit: None,
            build_span: OpSpan::new(ctx, id, OuKind::AggBuild),
            probe_span: OpSpan::new(ctx, id, OuKind::AggProbe),
        })),
        PlanNode::Filter {
            input, predicate, ..
        } => Ok(Box::new(FilterOp {
            child: build_pipeline(input, id + 1, ctx, false)?,
            eval: Evaluator::new(predicate, use_compiled),
            ops_per: predicate.op_count() as u64,
            span: OpSpan::new(ctx, id, OuKind::ArithmeticFilter),
        })),
        PlanNode::Sort { input, keys, .. } => Ok(Box::new(SortOp {
            child: build_pipeline(input, id + 1, ctx, false)?,
            evals: keys
                .iter()
                .map(|k| Evaluator::new(&k.expr, use_compiled))
                .collect(),
            keys: keys.clone(),
            sorted: None,
            build_span: OpSpan::new(ctx, id, OuKind::SortBuild),
            iter_span: OpSpan::new(ctx, id, OuKind::SortIter),
        })),
        PlanNode::Project { input, exprs, .. } => Ok(Box::new(ProjectOp {
            child: build_pipeline(input, id + 1, ctx, false)?,
            evals: exprs
                .iter()
                .map(|e| Evaluator::new(e, use_compiled))
                .collect(),
            ops_per: exprs.iter().map(|e| e.op_count() as u64).sum(),
            span: OpSpan::new(ctx, id, OuKind::ArithmeticFilter),
        })),
        PlanNode::Limit { input, n, .. } => Ok(Box::new(LimitOp {
            child: build_pipeline(input, id + 1, ctx, false)?,
            remaining: *n,
        })),
        PlanNode::Output { input, sink, .. } => Ok(Box::new(OutputOp {
            child: build_pipeline(input, id + 1, ctx, false)?,
            sink: *sink,
            span: OpSpan::new(ctx, id, OuKind::OutputResult),
        })),
        other => Err(DbError::Execution(format!(
            "node {} cannot appear in a row-producing position",
            other.label()
        ))),
    }
}

/// Drive a row-producing plan to completion, handing each non-empty batch to
/// `on_batch`. Returns the number of rows streamed. Spans are closed (and
/// recorded) before returning, including when a LIMIT cut execution short.
pub(crate) fn run_query(
    plan: &PlanNode,
    ctx: &mut ExecContext<'_>,
    on_batch: &mut dyn FnMut(Batch) -> DbResult<()>,
) -> DbResult<usize> {
    let mut root = build_pipeline(plan, 0, ctx, false)?;
    let batch_size = ctx.batch_size.max(1);
    let mut n = 0usize;
    while let Some(batch) = root.next_batch(ctx, batch_size)? {
        if !batch.rows.is_empty() {
            n += batch.rows.len();
            on_batch(batch)?;
        }
    }
    root.close(ctx);
    Ok(n)
}

/// Drive a DML victim scan, collecting rows with their slots. The scan must
/// be a table-scan node (enforced by the caller).
pub(crate) fn run_scan_with_slots(
    scan: &PlanNode,
    ctx: &mut ExecContext<'_>,
    id: u32,
) -> DbResult<(Vec<Arc<Tuple>>, Vec<SlotId>)> {
    let mut op = build_pipeline(scan, id, ctx, true)?;
    let batch_size = ctx.batch_size.max(1);
    let mut rows = Vec::new();
    let mut slots = Vec::new();
    while let Some(mut batch) = op.next_batch(ctx, batch_size)? {
        rows.append(&mut batch.rows);
        slots.append(&mut batch.slots);
    }
    op.close(ctx);
    Ok((rows, slots))
}

/// Unwrap a shared row for handoff to the client, cloning only if the MVCC
/// store still holds a reference.
pub fn into_owned(row: Arc<Tuple>) -> Tuple {
    Arc::try_unwrap(row).unwrap_or_else(|shared| (*shared).clone())
}
