//! Pull-based batch execution pipeline: the serial driver.
//!
//! A [`Batch`] of up to `ExecContext::batch_size` rows flows through a
//! `BatchOperator` tree. Operators pull from their children with
//! `next_batch(ctx, max_rows)` — `None` means exhausted, `Some` with fewer
//! rows (even zero) does not. Rows travel as `Arc<Tuple>` straight out of
//! the MVCC version chains, so a tuple is only deep-cloned at the client
//! boundary (or when an operator genuinely builds a new row).
//!
//! The per-row loops of the scan, Filter/Project, hash-join and aggregation
//! OUs live in [`crate::kernel`]. Operators here call them on each pulled
//! batch; where an input subtree is a parallel leaf chain, the same
//! operator hands the same kernels to the morsel-parallel driver
//! ([`crate::parallel`]) instead and consumes its ordered gather.
//!
//! OU accounting: each operator owns one `OpSpan` per OU it implements.
//! A span folds per-batch work into a single `OuTracker` via pause/resume
//! sections (and worker accounts via `OpSpan::add`), so the recorded tuple/byte features are identical to the totals
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

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use mb2_common::types::{tuple_size_bytes, Tuple};
use mb2_common::{DbError, DbResult, OuKind, Value};
use mb2_index::Index;
use mb2_sql::plan::{OutputSink, ScanRange, SortKey};
use mb2_sql::PlanNode;
use mb2_storage::{SlotId, Table, SHARD_UNIT_SLOTS};

use crate::compile::Evaluator;
use crate::context::ExecContext;
use crate::executor::subtree_size;
use crate::kernel::{
    elapsed_us, merge_groups, AggKernel, AggState, Groups, JoinKernel, JoinTable, ScanAcct,
    ScanKernel, Stage,
};
use crate::ops::compiled;
use crate::parallel::{self, ChainSpec, ExecPool, ParallelRun, WorkerAcct};
use crate::tracker::{tracking, OpSpan, WorkCounts};

/// Default rows per batch (the `batch_size` knob). Every size runs the same
/// operators and kernels; 1 pulls one row per call.
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
    fn of(rows: Vec<Arc<Tuple>>) -> Batch {
        Batch {
            rows,
            slots: Vec::new(),
        }
    }

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

/// Sequential scan: the serial driver of the scan kernel, one batch per
/// pull. Filtered-out tuples are never cloned, and the scan suspends
/// mid-heap as soon as the batch fills.
///
/// With the `columnar_enabled` knob on, the kernel serves every *clean
/// sealed unit* wholesale from its columnar block — vectorized predicate
/// masks, zone-map skipping, late materialization (Block/Scan OU) — and
/// walks version chains only for the dirty/unsealed remainder, so the
/// emitted row stream stays byte-identical to the pure row path.
struct SeqScanOp {
    kernel: ScanKernel,
    want_slots: bool,
    pos: usize,
    done: bool,
    /// The kernel's work and time over every pull; folded into `spans` at
    /// close.
    acct: ScanAcct,
    spans: Vec<OpSpan>,
    /// Block-path rows beyond the current batch's budget (a block emits a
    /// whole unit's survivors at once).
    surplus: Surplus,
}

impl BatchOperator for SeqScanOp {
    fn next_batch(
        &mut self,
        _ctx: &mut ExecContext<'_>,
        max_rows: usize,
    ) -> DbResult<Option<Batch>> {
        let max = max_rows.max(1);
        let mut rows = self.surplus.start(max);
        let mut slots = Vec::new();
        if rows.len() < max && !self.done {
            let want_slots = self.want_slots;
            self.done =
                self.kernel
                    .scan(&mut self.pos, usize::MAX, &mut self.acct, |slot, row| {
                        rows.push(Arc::clone(row));
                        if want_slots {
                            slots.extend(slot);
                        }
                        rows.len() < max
                    })?;
            self.surplus.keep(&mut rows, max);
        }
        if rows.is_empty() && self.done && self.surplus.is_empty() {
            return Ok(None);
        }
        Ok(Some(Batch { rows, slots }))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        for span in &mut self.spans {
            let acct = self.acct.get(span.ou);
            span.add(&acct.work, acct.elapsed_us);
            span.finish(ctx);
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
fn par_chain(node: &PlanNode, id: u32, ctx: &ExecContext<'_>) -> DbResult<Option<ParSource>> {
    let Some(pool) = &ctx.pool else {
        return Ok(None);
    };
    let mut stages = Vec::new();
    let (mut cur, mut cur_id) = (node, id);
    while let Some((stage, input)) = Stage::from_plan(cur, compiled(ctx)) {
        stages.push((cur_id, stage));
        cur = input;
        cur_id += 1;
    }
    let PlanNode::SeqScan { table, filter, .. } = cur else {
        return Ok(None);
    };
    let entry = ctx.catalog.get(table)?;
    let total_slots = entry.table.num_slots();
    let mut morsel_slots = ctx.morsel_slots.max(1);
    if ctx.columnar {
        // Unit-align morsels so each sealed block lies inside exactly one
        // morsel and can be served wholesale.
        morsel_slots = morsel_slots.div_ceil(SHARD_UNIT_SLOTS) * SHARD_UNIT_SLOTS;
    }
    if total_slots.div_ceil(morsel_slots) < 2 {
        return Ok(None);
    }
    // Stages were collected top-down; workers apply them scan-upward.
    stages.reverse();
    let chain = Arc::new(ChainSpec {
        scan: ScanKernel::new(ctx, &entry.table, filter.as_ref(), ctx.columnar),
        scan_id: cur_id,
        stages,
        morsel_slots,
        total_slots,
    });
    let spans = chain
        .span_keys()
        .map(|(id, ou)| OpSpan::new(ctx, id, ou))
        .collect();
    Ok(Some(ParSource {
        pool: Arc::clone(pool),
        chain,
        spans,
    }))
}

/// A parallel leaf chain as the operator consuming it holds it: the spec
/// the workers share, the pool that runs it, and one span per (node, OU)
/// the chain accounts for — created eagerly so a chain that never runs
/// (LIMIT 0) still records zero-work spans.
struct ParSource {
    pool: Arc<ExecPool>,
    chain: Arc<ChainSpec>,
    spans: Vec<OpSpan>,
}

impl ParSource {
    fn start<T, F>(&self, consume: F) -> ParallelRun<T>
    where
        T: Send + 'static,
        F: Fn(Vec<Arc<Tuple>>, &mut WorkerAcct) -> DbResult<T> + Send + Sync + 'static,
    {
        parallel::start(&self.pool, Arc::clone(&self.chain), consume)
    }

    /// Cancel what is left of `run` (a LIMIT early-cut) and fold every
    /// worker's accounting into the chain's spans and the consumer's `own`.
    fn finish<'a, T>(
        &mut self,
        run: ParallelRun<T>,
        own: impl IntoIterator<Item = &'a mut OpSpan>,
    ) {
        let acct = run.finish();
        let absorb = |span: &mut OpSpan| {
            if let Some(a) = acct.get(span.id, span.ou) {
                span.add(&a.work, a.elapsed_us);
            }
        };
        self.spans.iter_mut().for_each(absorb);
        own.into_iter().for_each(absorb);
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        for span in &mut self.spans {
            span.finish(ctx);
        }
    }
}

/// A pipeline-breaker input: either a regular child operator or a parallel
/// leaf chain the breaker consumes morsel-wise on the worker pool.
enum ParChild {
    Op(BoxedOp),
    Parallel(ParSource),
}

impl ParChild {
    fn from_plan(node: &PlanNode, id: u32, ctx: &ExecContext<'_>) -> DbResult<ParChild> {
        Ok(match par_chain(node, id, ctx)? {
            Some(src) => ParChild::Parallel(src),
            None => ParChild::Op(build_pipeline(node, id, ctx, false)?),
        })
    }

    /// Drain this input into `state` through `fold`, the breaker's kernel.
    /// Serially, every pulled batch folds straight into `state` inside
    /// `span`'s timed sections. On the pool, each morsel folds into a fresh
    /// partial state on a worker (its work and time land on the worker's
    /// account for `span`), and the partials `merge` into `state` here, in
    /// morsel order, so the result equals one serial fold.
    fn fold_into<S, F>(
        &mut self,
        ctx: &mut ExecContext<'_>,
        span: &mut OpSpan,
        state: &mut S,
        fold: F,
        merge: impl Fn(&mut S, S),
    ) -> DbResult<()>
    where
        S: Default + Send + 'static,
        F: Fn(&mut S, Vec<Arc<Tuple>>, &mut WorkCounts) -> DbResult<()> + Send + Sync + 'static,
    {
        match self {
            ParChild::Op(child) => {
                let pull = ctx.batch_size.max(1);
                while let Some(batch) = child.next_batch(ctx, pull)? {
                    // The child times itself; the span covers the fold only.
                    let mut work = WorkCounts::default();
                    span.enter();
                    fold(state, batch.rows, &mut work)?;
                    span.exit();
                    span.add(&work, 0.0);
                }
            }
            ParChild::Parallel(src) => {
                let (id, ou, track) = (span.id, span.ou, span.active());
                let mut run = src.start(move |rows, acct| {
                    let t0 = Instant::now();
                    let (mut part, mut work) = (S::default(), WorkCounts::default());
                    fold(&mut part, rows, &mut work)?;
                    if track {
                        acct.add(id, ou, &work, elapsed_us(t0));
                    }
                    Ok(part)
                });
                while let Some(part) = run.next_morsel() {
                    let part = part?;
                    span.enter();
                    merge(state, part);
                    span.exit();
                }
                src.finish(run, [span]);
            }
        }
        Ok(())
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        match self {
            ParChild::Op(op) => op.close(ctx),
            ParChild::Parallel(src) => src.close(ctx),
        }
    }
}

/// Rows a pull produced beyond its budget — a block's, a morsel's or a
/// probe batch's surplus — emitted first by the next pull.
#[derive(Default)]
struct Surplus(std::vec::IntoIter<Arc<Tuple>>);

impl Surplus {
    /// A batch of at most `max` rows, begun with the previous surplus.
    fn start(&mut self, max: usize) -> Vec<Arc<Tuple>> {
        let mut rows = Vec::with_capacity(max.min(MAX_PREALLOC));
        rows.extend(self.0.by_ref().take(max));
        rows
    }

    /// Move rows of a gathered `chunk` into `rows` up to `max`; the rest
    /// waits for the next pull. Only called once the surplus is drained.
    fn fill(&mut self, rows: &mut Vec<Arc<Tuple>>, chunk: Vec<Arc<Tuple>>, max: usize) {
        self.0 = chunk.into_iter();
        rows.extend(self.0.by_ref().take(max - rows.len()));
    }

    /// Cut `rows` to `max`, keeping the rest for the next pull.
    fn keep(&mut self, rows: &mut Vec<Arc<Tuple>>, max: usize) {
        if rows.len() > max {
            self.0 = rows.split_off(max).into_iter();
        }
    }

    fn is_empty(&self) -> bool {
        self.0.len() == 0
    }
}

/// A parallel leaf chain in a streaming (non-breaker) position: workers
/// scan/filter/project morsels concurrently and the ordered gather re-emits
/// rows in heap order, so downstream operators (and LIMIT) see exactly the
/// serial row stream.
struct ParallelScanOp {
    src: ParSource,
    run: Option<ParallelRun<Vec<Arc<Tuple>>>>,
    exhausted: bool,
    surplus: Surplus,
}

impl BatchOperator for ParallelScanOp {
    fn next_batch(
        &mut self,
        _ctx: &mut ExecContext<'_>,
        max_rows: usize,
    ) -> DbResult<Option<Batch>> {
        let max = max_rows.max(1);
        let mut rows = self.surplus.start(max);
        while rows.len() < max && !self.exhausted {
            let run = self
                .run
                .get_or_insert_with(|| self.src.start(|rows, _| Ok(rows)));
            match run.next_morsel() {
                Some(morsel) => self.surplus.fill(&mut rows, morsel?, max),
                None => self.exhausted = true,
            }
        }
        if rows.is_empty() {
            return Ok(None);
        }
        Ok(Some(Batch::of(rows)))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        if let Some(run) = self.run.take() {
            self.src.finish(run, []);
        }
        self.src.close(ctx);
    }
}

// ----------------------------------------------------------------------
// Stateless streaming operators
// ----------------------------------------------------------------------

/// A Filter (HAVING and other post-operator predicates) or Project node:
/// the serial driver of the stage kernel.
struct StageOp {
    child: BoxedOp,
    stage: Stage,
    span: OpSpan,
}

impl BatchOperator for StageOp {
    fn next_batch(
        &mut self,
        ctx: &mut ExecContext<'_>,
        max_rows: usize,
    ) -> DbResult<Option<Batch>> {
        let Some(input) = self.child.next_batch(ctx, max_rows)? else {
            return Ok(None);
        };
        let mut work = WorkCounts::default();
        self.span.enter();
        let rows = self.stage.apply(input.rows, &mut work)?;
        self.span.exit();
        self.span.add(&work, 0.0);
        Ok(Some(Batch::of(rows)))
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

/// Hash join. The build side is a pipeline breaker: fully consumed on the
/// first pull (Join Hash Table Build OU). Probing then streams: each probe
/// batch is pulled on demand and matched only until the caller's row budget
/// is met (joined rows of the last probe row beyond it wait in `surplus`),
/// so a LIMIT above the join stops probe-side scans early and a high
/// fan-out never materializes more than a batch plus one row's matches.
///
/// When a side is a parallel leaf chain, the breaker runs morsel-wise on
/// the pool: the build inserts into per-morsel tables appended in morsel
/// order (bucket entry order — and therefore probe output — stays
/// byte-identical to one serial insertion pass), and the probe matches each
/// morsel against the frozen table on the workers, gathered in order.
/// Either way the same kernels insert and match.
struct HashJoinOp {
    build: ParChild,
    probe: ParChild,
    kernel: Arc<JoinKernel>,
    table: Option<Arc<JoinTable>>,
    /// The pulled probe batch being matched (serial probe).
    probe_buf: Vec<Arc<Tuple>>,
    probe_cursor: usize,
    probe_run: Option<ParallelRun<Vec<Arc<Tuple>>>>,
    probe_done: bool,
    surplus: Surplus,
    build_span: OpSpan,
    probe_span: OpSpan,
    filter_span: Option<OpSpan>,
}

impl HashJoinOp {
    fn build_table(&mut self, ctx: &mut ExecContext<'_>) -> DbResult<Arc<JoinTable>> {
        let kernel = Arc::clone(&self.kernel);
        let mut table = JoinTable::default();
        self.build.fold_into(
            ctx,
            &mut self.build_span,
            &mut table,
            move |table, rows, work| {
                kernel.insert(table, rows, work);
                Ok(())
            },
            JoinTable::append,
        )?;
        let buckets = table.buckets() as u64;
        self.build_span.work(|t| t.add_random_accesses(buckets));
        Ok(Arc::new(table))
    }
}

impl BatchOperator for HashJoinOp {
    /// Joined rows come from the probe input matched here (serial) or from
    /// the ordered gather of morsels matched on the workers (parallel).
    fn next_batch(
        &mut self,
        ctx: &mut ExecContext<'_>,
        max_rows: usize,
    ) -> DbResult<Option<Batch>> {
        if self.table.is_none() {
            self.table = Some(self.build_table(ctx)?);
        }
        let table = Arc::clone(self.table.as_ref().expect("join table built"));
        let max = max_rows.max(1);
        let mut rows = self.surplus.start(max);
        while rows.len() < max && !self.probe_done {
            match &mut self.probe {
                ParChild::Op(child) => {
                    if self.probe_cursor == self.probe_buf.len() {
                        match child.next_batch(ctx, max)? {
                            Some(batch) => (self.probe_buf, self.probe_cursor) = (batch.rows, 0),
                            None => self.probe_done = true,
                        }
                        continue;
                    }
                    let (mut work, mut filter) = Default::default();
                    self.probe_span.enter();
                    self.probe_cursor += self.kernel.probe(
                        &table,
                        &self.probe_buf[self.probe_cursor..],
                        &mut rows,
                        max,
                        &mut work,
                        &mut filter,
                    )?;
                    self.probe_span.exit();
                    self.probe_span.add(&work, 0.0);
                    if let Some(span) = self.filter_span.as_mut() {
                        span.add(&filter, 0.0);
                    }
                }
                ParChild::Parallel(src) => {
                    let run = self.probe_run.get_or_insert_with(|| {
                        let (kernel, id) = (Arc::clone(&self.kernel), self.probe_span.id);
                        let table = Arc::clone(&table);
                        src.start(move |rows, acct| {
                            let t0 = Instant::now();
                            let (mut out, mut work, mut filter) = Default::default();
                            let all = usize::MAX;
                            kernel.probe(&table, &rows, &mut out, all, &mut work, &mut filter)?;
                            if kernel.track {
                                acct.add(id, OuKind::JoinHashProbe, &work, elapsed_us(t0));
                                acct.add(id, OuKind::ArithmeticFilter, &filter, 0.0);
                            }
                            Ok(out)
                        })
                    });
                    match run.next_morsel() {
                        Some(joined) => self.surplus.fill(&mut rows, joined?, max),
                        None => self.probe_done = true,
                    }
                }
            }
        }
        self.surplus.keep(&mut rows, max);
        if rows.is_empty() && self.probe_done {
            return Ok(None);
        }
        Ok(Some(Batch::of(rows)))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        if let (Some(run), ParChild::Parallel(src)) = (self.probe_run.take(), &mut self.probe) {
            src.finish(
                run,
                std::iter::once(&mut self.probe_span).chain(self.filter_span.as_mut()),
            );
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

/// Hash aggregation: build (pipeline breaker, Agg Hash Table Build OU) then
/// batched emission of finalized groups (Agg Hash Table Probe OU).
///
/// With a parallel leaf chain below, workers fold each morsel into a local
/// group map and the issuing thread merges the partials in strict morsel
/// order, so the final states equal a serial fold over the heap-ordered
/// input.
struct AggregateOp {
    child: ParChild,
    kernel: Arc<AggKernel>,
    emit: Option<std::collections::hash_map::IntoIter<Vec<Value>, Vec<AggState>>>,
    build_span: OpSpan,
    probe_span: OpSpan,
}

impl AggregateOp {
    fn build_groups(&mut self, ctx: &mut ExecContext<'_>) -> DbResult<Groups> {
        let kernel = Arc::clone(&self.kernel);
        let mut groups = Groups::default();
        self.child.fold_into(
            ctx,
            &mut self.build_span,
            &mut groups,
            move |groups, rows, work| kernel.fold(groups, &rows, work),
            merge_groups,
        )?;
        let n_group_cols = self.kernel.group_eval.len();
        if groups.is_empty() && n_group_cols == 0 {
            // Scalar aggregate over an empty input still yields one row.
            groups.insert(Vec::new(), self.kernel.states());
        }
        let n_groups = groups.len() as u64;
        let width = (n_group_cols + self.kernel.specs.len()) as u64;
        self.build_span.work(|t| {
            t.add_random_accesses(n_groups);
            t.add_allocated(n_groups * (32 + width * 16));
        });
        Ok(groups)
    }
}

impl BatchOperator for AggregateOp {
    fn next_batch(
        &mut self,
        ctx: &mut ExecContext<'_>,
        max_rows: usize,
    ) -> DbResult<Option<Batch>> {
        if self.emit.is_none() {
            self.emit = Some(self.build_groups(ctx)?.into_iter());
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
        if let Some(src) = par_chain(node, id, ctx)? {
            return Ok(Box::new(ParallelScanOp {
                src,
                run: None,
                exhausted: false,
                surplus: Surplus::default(),
            }));
        }
    }
    if let Some((stage, input)) = Stage::from_plan(node, use_compiled) {
        return Ok(Box::new(StageOp {
            child: build_pipeline(input, id + 1, ctx, false)?,
            stage,
            span: OpSpan::new(ctx, id, OuKind::ArithmeticFilter),
        }));
    }
    match node {
        PlanNode::SeqScan { table, filter, .. } => {
            let entry = ctx.catalog.get(table)?;
            // DML victim scans need slot provenance, which blocks don't
            // carry — they stay on the row path.
            let kernel = ScanKernel::new(
                ctx,
                &entry.table,
                filter.as_ref(),
                ctx.columnar && !want_slots,
            );
            let spans = kernel.ous().map(|ou| OpSpan::new(ctx, id, ou)).collect();
            Ok(Box::new(SeqScanOp {
                kernel,
                want_slots,
                pos: 0,
                done: false,
                acct: ScanAcct::default(),
                spans,
                surplus: Surplus::default(),
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
            Ok(Box::new(IndexScanOp {
                table: Arc::clone(&entry.table),
                index: idx,
                range: range.clone(),
                filter: filter.as_ref().map(|f| Evaluator::new(f, use_compiled)),
                filter_ops: filter.as_ref().map_or(0, |f| f.op_count()) as u64,
                want_slots,
                candidates: None,
                cursor: 0,
                scan_span: OpSpan::new(ctx, id, OuKind::IdxScan),
                filter_span: filter
                    .as_ref()
                    .map(|_| OpSpan::new(ctx, id, OuKind::ArithmeticFilter)),
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
                kernel: Arc::new(JoinKernel {
                    build_keys: build_keys.clone(),
                    probe_keys: probe_keys.clone(),
                    residual: filter.as_ref().map(|f| Evaluator::new(f, use_compiled)),
                    residual_ops: filter.as_ref().map_or(0, |f| f.op_count()) as u64,
                    sleep_every: ctx.jht_sleep_every,
                    track: tracking(ctx),
                }),
                table: None,
                probe_buf: Vec::new(),
                probe_cursor: 0,
                probe_run: None,
                probe_done: false,
                surplus: Surplus::default(),
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
            kernel: Arc::new(AggKernel {
                specs: aggs.clone(),
                group_eval: group_by
                    .iter()
                    .map(|g| Evaluator::new(g, use_compiled))
                    .collect(),
                agg_eval: aggs
                    .iter()
                    .map(|a| a.arg.as_ref().map(|e| Evaluator::new(e, use_compiled)))
                    .collect(),
                track: tracking(ctx),
            }),
            emit: None,
            build_span: OpSpan::new(ctx, id, OuKind::AggBuild),
            probe_span: OpSpan::new(ctx, id, OuKind::AggProbe),
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
