//! The `Database` facade.

use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use mb2_catalog::Catalog;
use mb2_common::{Column, DbError, DbResult, FaultInjector, Schema};
use mb2_exec::{
    execute_batched, Batch, ExecContext, ExecPool, ExecutionMode, ObsRecorder, OuRecorder,
    QueryResult, DEFAULT_MORSEL_SLOTS,
};
use mb2_index::IndexObs;
use mb2_obs::MetricsRegistry;
use mb2_sql::{parse, PlanNode, Planner, PlannerOverrides, Statement};
use mb2_txn::{Compactor, GarbageCollector, Transaction, TxnManager};
use mb2_wal::{LogManager, LogManagerConfig, LogRecord, LoggedColumn};

use crate::config::{DatabaseConfig, Knobs};
use crate::health::{DegradedReason, HealthState, HealthTracker};
use crate::metrics::{classify, EngineMetrics, StatementKind};
use crate::session::Session;
use crate::tasks::{BackgroundTask, StatementTap};

/// An embedded in-memory DBMS instance.
pub struct Database {
    catalog: Catalog,
    txns: Arc<TxnManager>,
    gc: Arc<GarbageCollector>,
    compactor: Arc<Compactor>,
    wal: Option<Arc<LogManager>>,
    knobs: RwLock<Knobs>,
    /// Shared morsel-execution worker pool; `None` while `knobs.parallelism`
    /// is 1 (serial execution never touches the pool).
    pool: RwLock<Option<Arc<ExecPool>>>,
    metrics: Arc<MetricsRegistry>,
    engine_metrics: EngineMetrics,
    obs_recorder: Arc<ObsRecorder>,
    index_obs: Arc<IndexObs>,
    /// Fault injection shared by every subsystem (and attached to tables as
    /// they are created); `None` in production.
    faults: Option<Arc<FaultInjector>>,
    health: HealthTracker,
    /// Upper-layer background components (the autopilot) quiesced by
    /// [`Database::shutdown`] before the engine's own subsystems. Weak so
    /// registration never keeps a task alive.
    background_tasks: Mutex<Vec<Weak<dyn BackgroundTask>>>,
    /// Observer of every DML/SELECT statement (workload forecasting).
    statement_tap: RwLock<Option<Arc<dyn StatementTap>>>,
    /// Plans keyed by SQL text, filled by [`Database::prepare_cached`] — the
    /// paper's cached-query-plan assumption (§3) made concrete: the
    /// server's admission path prices the plan, and the statement resolver
    /// then runs that same plan. Invalidated wholesale by any DDL.
    plan_cache: Mutex<PlanCache>,
}

/// Cap on distinct SQL texts held by the plan cache; the whole cache is
/// dropped at the cap (ad-hoc one-off texts cannot grow it unboundedly,
/// and hot templates repopulate within one round).
const PLAN_CACHE_CAP: usize = 1024;

#[derive(Default)]
struct PlanCache {
    plans: std::collections::HashMap<String, Arc<PlanNode>>,
    /// Bumped by every invalidation, so a plan built while a DDL ran is
    /// not inserted after the DDL cleared the cache.
    generation: u64,
}

/// The transaction a plan runs in.
pub enum TxnScope<'a> {
    /// A transaction of its own, committed after a successful run and
    /// aborted after a failed one.
    Autocommit,
    /// The caller's open transaction.
    In(&'a mut Transaction),
}

/// What the statement resolver turned a SQL text into.
pub(crate) enum Resolved {
    Begin,
    Commit,
    Rollback,
    /// Engine-handled DDL: CREATE/DROP TABLE, DROP INDEX, ANALYZE.
    Ddl(Box<Statement>),
    Plan(Arc<PlanNode>),
}

/// Materialize a streamed run into a [`QueryResult`].
pub(crate) fn collect(
    run: impl FnOnce(&mut dyn FnMut(Batch) -> DbResult<()>) -> DbResult<usize>,
) -> DbResult<QueryResult> {
    let mut rows = Vec::new();
    let rows_affected = run(&mut |b: Batch| {
        rows.extend(b.rows.into_iter().map(mb2_exec::batch::into_owned));
        Ok(())
    })?;
    Ok(QueryResult {
        rows,
        rows_affected,
    })
}

impl Database {
    pub fn new(config: DatabaseConfig) -> DbResult<Database> {
        let metrics = config
            .metrics
            .clone()
            .unwrap_or_else(MetricsRegistry::shared);
        metrics.set_enabled(config.metrics_enabled);
        let wal = if config.wal_enabled {
            Some(Arc::new(LogManager::new(LogManagerConfig {
                path: config.wal_path.clone(),
                flush_interval: config.knobs.wal_flush_interval,
                background: config.wal_background,
                fsync: config.wal_fsync,
                sync_commit: config.wal_sync_commit,
                max_flush_retries: config.wal_flush_retries,
                retry_backoff: config.wal_retry_backoff,
                faults: config.faults.clone(),
                metrics: Some(metrics.clone()),
            })?))
        } else {
            None
        };
        let txns = TxnManager::with_metrics(wal.clone(), &metrics);
        txns.set_faults(config.faults.clone());
        let gc = GarbageCollector::with_metrics(txns.clone(), &metrics);
        gc.set_faults(config.faults.clone());
        if let Some(interval) = config.gc_interval {
            gc.start_background(interval);
        }
        let compactor = Compactor::with_metrics(txns.clone(), &metrics);
        if let Some(interval) = config.compaction_interval {
            compactor.start_background(interval);
        }
        let workers = config.knobs.parallelism.max(1);
        let pool = (workers > 1).then(|| ExecPool::with_metrics(workers, &metrics));
        Ok(Database {
            catalog: Catalog::new(),
            txns,
            gc,
            compactor,
            wal,
            knobs: RwLock::new(config.knobs),
            pool: RwLock::new(pool),
            engine_metrics: EngineMetrics::new(&metrics),
            obs_recorder: ObsRecorder::new(&metrics),
            index_obs: IndexObs::new(&metrics),
            faults: config.faults,
            health: HealthTracker::new(&metrics),
            metrics,
            background_tasks: Mutex::new(Vec::new()),
            statement_tap: RwLock::new(None),
            plan_cache: Mutex::new(PlanCache::default()),
        })
    }

    /// Open with default configuration.
    pub fn open() -> Database {
        Database::new(DatabaseConfig::default()).expect("default config cannot fail")
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn txn_manager(&self) -> &Arc<TxnManager> {
        &self.txns
    }

    pub fn gc(&self) -> &Arc<GarbageCollector> {
        &self.gc
    }

    /// The columnar compactor sealing frozen shard units into blocks.
    pub fn compactor(&self) -> &Arc<Compactor> {
        &self.compactor
    }

    /// Run one synchronous compaction pass across every table (tests and
    /// operator tooling; the background thread calls the same entry point).
    pub fn compact_now(&self) -> mb2_txn::CompactionReport {
        self.compactor.run_once()
    }

    pub fn wal(&self) -> Option<&Arc<LogManager>> {
        self.wal.as_ref()
    }

    /// The registry every subsystem of this database publishes into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Render all metrics in the Prometheus text exposition format.
    pub fn metrics_prometheus(&self) -> String {
        self.metrics.prometheus_text()
    }

    /// Render all metrics as a JSON snapshot.
    pub fn metrics_json(&self) -> String {
        self.metrics.json_snapshot()
    }

    /// Flip the registry's enable switch ("turn off the tracker"): `false`
    /// stops span clock reads; counters and histogram handles stay live.
    pub fn set_metrics_enabled(&self, enabled: bool) {
        self.metrics.set_enabled(enabled);
    }

    /// An [`OuRecorder`] that folds per-OU measurements into this database's
    /// registry. Pass it to [`execute_plan`](Self::execute_plan) (or any
    /// entry taking a recorder) to populate the
    /// `mb2_ou_elapsed_us{ou=...}` runtime histograms.
    pub fn obs_recorder(&self) -> &Arc<ObsRecorder> {
        &self.obs_recorder
    }

    /// Latch/build instrumentation shared by every index this database
    /// creates.
    pub fn index_obs(&self) -> &Arc<IndexObs> {
        &self.index_obs
    }

    pub fn knobs(&self) -> Knobs {
        *self.knobs.read()
    }

    pub fn set_execution_mode(&self, mode: ExecutionMode) {
        self.knobs.write().execution_mode = mode;
    }

    pub fn set_hw(&self, hw: mb2_common::HardwareProfile) {
        self.knobs.write().hw = hw;
    }

    pub fn set_jht_sleep_every(&self, n: usize) {
        self.knobs.write().jht_sleep_every = n;
    }

    /// Rows per batch in the execution pipeline (clamped to at least 1;
    /// `1` = tuple-at-a-time execution).
    pub fn set_batch_size(&self, n: usize) {
        self.knobs.write().batch_size = n.max(1);
    }

    /// Workers in the shared intra-query execution pool (clamped to at
    /// least 1; `1` = serial execution, no pool threads). Changing the knob
    /// tears down the old pool (joining its workers) and builds a new one;
    /// in-flight queries keep their `Arc` to the old pool until they finish.
    /// Change the WAL background flush interval (a behavior knob) at
    /// runtime. Updates [`Knobs::wal_flush_interval`] and, when a WAL is
    /// attached, retunes the running flusher thread in place. A no-op on
    /// WAL-less databases beyond the knob update.
    pub fn set_wal_flush_interval(&self, interval: Duration) {
        self.knobs.write().wal_flush_interval = interval;
        if let Some(wal) = &self.wal {
            wal.set_flush_interval(interval);
        }
    }

    /// Change the background GC cadence (a behavior knob) at runtime.
    /// Takes effect immediately on a running background GC thread; a
    /// no-op (beyond storing the value) when background GC was never
    /// started.
    pub fn set_gc_interval(&self, interval: Duration) {
        self.gc.set_interval(interval);
    }

    /// Change the background compaction cadence (a behavior knob) at
    /// runtime. Takes effect immediately on a running compactor thread; a
    /// no-op (beyond storing the value) when background compaction was
    /// never started.
    pub fn set_compaction_interval(&self, interval: Duration) {
        self.compactor.set_interval(interval);
    }

    /// Flip the `columnar_enabled` behavior knob: sequential scans serve
    /// clean sealed units from their columnar blocks instead of walking
    /// version chains. Row output is byte-identical either way, so the
    /// knob can flip under live traffic.
    pub fn set_columnar_enabled(&self, enabled: bool) {
        self.knobs.write().columnar_enabled = enabled;
    }

    /// Register a background component (e.g. the autopilot) to be
    /// quiesced by [`Database::shutdown`] *before* the exec pool, GC, and
    /// WAL flusher are torn down. Held weakly: a dropped task is skipped.
    pub fn register_background_task(&self, task: Weak<dyn BackgroundTask>) {
        self.background_tasks.lock().push(task);
    }

    /// Install (or clear) the statement tap consulted on every DML/SELECT
    /// statement the resolver plans. See [`StatementTap`].
    pub fn set_statement_tap(&self, tap: Option<Arc<dyn StatementTap>>) {
        *self.statement_tap.write() = tap;
    }

    pub fn set_parallelism(&self, n: usize) {
        let n = n.max(1);
        self.knobs.write().parallelism = n;
        let pool = (n > 1).then(|| ExecPool::with_metrics(n, &self.metrics));
        *self.pool.write() = pool;
    }

    /// Hash-shard count for tables created after this call (clamped to at
    /// least 1). Existing tables keep their shard count — the shard map is
    /// fixed at table creation.
    pub fn set_shard_count(&self, n: usize) {
        self.knobs.write().shard_count = n.max(1);
    }

    /// Per-shard storage statistics for every table, sorted by table name:
    /// `(table name, ShardStats)` rows. Feeds `SHOW SHARDS` and the
    /// per-shard storage gauges.
    pub fn shard_status(&self) -> Vec<(String, mb2_storage::ShardStats)> {
        let mut out = Vec::new();
        for name in self.catalog.table_names() {
            if let Ok(entry) = self.catalog.get(&name) {
                for stats in entry.table.shard_stats() {
                    out.push((name.clone(), stats));
                }
            }
        }
        out
    }

    /// Per-shard columnar block statistics for every table, sorted by table
    /// name: `(table name, BlockShardStats)` rows. Feeds `SHOW BLOCKS` and
    /// the per-shard block gauges.
    pub fn block_status(&self) -> Vec<(String, mb2_storage::BlockShardStats)> {
        let mut out = Vec::new();
        for name in self.catalog.table_names() {
            if let Ok(entry) = self.catalog.get(&name) {
                for stats in entry.table.block_stats() {
                    out.push((name.clone(), stats));
                }
            }
        }
        out
    }

    /// The shared morsel-execution pool, if parallelism is enabled.
    pub fn exec_pool(&self) -> Option<Arc<ExecPool>> {
        self.pool.read().clone()
    }

    /// Whether the WAL has latched into the read-only (poisoned) state.
    pub fn is_read_only(&self) -> bool {
        self.wal.as_ref().is_some_and(|w| w.is_poisoned())
    }

    /// The fault injector threaded through this database's subsystems.
    pub fn faults(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// Probe and return the engine's health. A poisoned WAL observed while
    /// the tracker still says healthy transitions it to degraded
    /// (read-only); the supervisor drives the recovering/healthy
    /// transitions via [`Database::set_health`].
    pub fn health(&self) -> HealthState {
        let state = self.health.state();
        if state == HealthState::Healthy && self.is_read_only() {
            let degraded = HealthState::Degraded(DegradedReason::WalPoisoned);
            self.health.set(degraded);
            return degraded;
        }
        state
    }

    /// Set the health state directly (supervisor transitions).
    pub fn set_health(&self, state: HealthState) {
        self.health.set(state);
    }

    /// Fail with [`DbError::WalUnavailable`] if durable writes are
    /// impossible. DDL checks this before mutating the catalog so schema
    /// changes never outrun what the log can persist.
    fn check_wal_writable(&self) -> DbResult<()> {
        match &self.wal {
            Some(wal) => wal.check_writable(),
            None => Ok(()),
        }
    }

    /// Log a DDL record with the same durability as a committed transaction:
    /// under `wal_sync_commit` the record is flushed before the DDL is
    /// acknowledged.
    pub(crate) fn log_ddl(&self, record: &LogRecord) -> DbResult<()> {
        if let Some(wal) = &self.wal {
            let seq = wal.append_seq(record)?;
            if wal.config().sync_commit {
                if let Err(e) = wal.flush_now() {
                    // Same phantom guard as the commit path: if a
                    // group-commit rider already made this record durable,
                    // the DDL must be acknowledged as applied.
                    if wal.durable_seq() < seq {
                        return Err(e);
                    }
                }
            }
        }
        Ok(())
    }

    /// Begin an explicit transaction.
    pub fn begin(&self) -> Transaction {
        self.txns.begin()
    }

    /// Open a session (supports BEGIN/COMMIT/ROLLBACK statements).
    pub fn session(&self) -> Session<'_> {
        self.engine_metrics.sessions.inc();
        Session::new(self)
    }

    /// Parse + plan a statement (for prepared/cached execution, matching the
    /// paper's cached-query-plan assumption in §3).
    pub fn prepare(&self, sql: &str) -> DbResult<PlanNode> {
        let stmt = parse(sql)?;
        Planner::new(&self.catalog).plan(&stmt)
    }

    /// [`prepare`](Self::prepare) through a cache keyed by SQL text. The
    /// hot path for repeated statements (the server's admission scheduler
    /// prices every arrival): a hit costs one map lookup instead of a
    /// parse + plan. The only function that inserts into the cache. DDL
    /// invalidates the whole cache — plans reference catalog state (table
    /// ids, index choices) that DDL changes.
    pub fn prepare_cached(&self, sql: &str) -> DbResult<Arc<PlanNode>> {
        let generation = {
            let cache = self.plan_cache.lock();
            if let Some(plan) = cache.plans.get(sql) {
                self.engine_metrics.plan_cache_hits.inc();
                return Ok(plan.clone());
            }
            cache.generation
        };
        self.engine_metrics.plan_cache_misses.inc();
        let plan = Arc::new(self.prepare(sql)?);
        let mut cache = self.plan_cache.lock();
        if cache.generation == generation {
            if cache.plans.len() >= PLAN_CACHE_CAP {
                cache.plans.clear();
            }
            cache.plans.insert(sql.to_string(), plan.clone());
        }
        Ok(plan)
    }

    /// Drop every cached plan. Called after any DDL (including index builds
    /// and ANALYZE — both change what the planner would pick).
    pub fn invalidate_plan_cache(&self) {
        let mut cache = self.plan_cache.lock();
        cache.plans.clear();
        cache.generation += 1;
    }

    /// [`prepare`](Self::prepare) with what-if [`PlannerOverrides`]
    /// (hypothetical and hidden indexes) applied during planning. The
    /// catalog is not touched, so this is safe under concurrent live
    /// traffic — the oracle planner uses it to price index actions. Plans
    /// produced against a hypothetical index reference an index that does
    /// not exist and must not be executed.
    pub fn prepare_with(&self, sql: &str, overrides: &PlannerOverrides) -> DbResult<PlanNode> {
        let stmt = parse(sql)?;
        Planner::with_overrides(&self.catalog, overrides).plan(&stmt)
    }

    /// The statement resolver: turn `sql` into what runs, parsing it at
    /// most once. A plan [`prepare_cached`](Self::prepare_cached) already
    /// holds for the text (the server's admission step put it there) is
    /// returned as a cache hit; otherwise the text is parsed and resolved
    /// to transaction control, engine-handled DDL, or a fresh plan that is
    /// *not* inserted (so embedded bulk loads do not grow the cache).
    /// Every DML/SELECT plan is reported to the statement tap.
    pub(crate) fn resolve(&self, sql: &str) -> DbResult<Resolved> {
        let cached = self.plan_cache.lock().plans.get(sql).cloned();
        let plan = match cached {
            Some(plan) => {
                self.engine_metrics.plan_cache_hits.inc();
                plan
            }
            None => match parse(sql)? {
                Statement::Begin => return Ok(Resolved::Begin),
                Statement::Commit => return Ok(Resolved::Commit),
                Statement::Rollback => return Ok(Resolved::Rollback),
                stmt @ (Statement::CreateTable { .. }
                | Statement::DropTable { .. }
                | Statement::DropIndex { .. }
                | Statement::Analyze { .. }) => return Ok(Resolved::Ddl(Box::new(stmt))),
                stmt => Arc::new(Planner::new(&self.catalog).plan(&stmt)?),
            },
        };
        if classify(&plan) != StatementKind::Ddl {
            if let Some(tap) = self.statement_tap.read().as_ref() {
                tap.observe(sql);
            }
        }
        Ok(Resolved::Plan(plan))
    }

    /// Run a resolved statement in `scope`. Transaction control is refused:
    /// only a [`Session`] owns transaction scope, and it handles those
    /// verbs before calling here.
    pub(crate) fn run_resolved(
        &self,
        resolved: Resolved,
        scope: TxnScope<'_>,
        recorder: Option<&dyn OuRecorder>,
        on_batch: &mut dyn FnMut(Batch) -> DbResult<()>,
    ) -> DbResult<usize> {
        match (resolved, scope) {
            (Resolved::Plan(plan), scope) => self.run_plan(&plan, scope, recorder, on_batch),
            // The cache is invalidated even when DDL fails part way: the
            // catalog may already have changed.
            (Resolved::Ddl(stmt), TxnScope::Autocommit) => self.observe(StatementKind::Ddl, || {
                let applied = self.apply_ddl(&stmt);
                self.invalidate_plan_cache();
                applied.map(|()| 0)
            }),
            (Resolved::Ddl(_), TxnScope::In(_)) => {
                Err(DbError::Plan("DDL is autocommit-only".into()))
            }
            (Resolved::Begin | Resolved::Commit | Resolved::Rollback, _) => Err(DbError::Plan(
                "transaction control requires a session (Database::session)".into(),
            )),
        }
    }

    /// Execute one statement in autocommit mode.
    pub fn execute(&self, sql: &str) -> DbResult<QueryResult> {
        collect(|sink| self.run_resolved(self.resolve(sql)?, TxnScope::Autocommit, None, sink))
    }

    /// Execute a statement inside an existing transaction (used by the
    /// workload drivers and the concurrent runners).
    pub fn execute_in(
        &self,
        sql: &str,
        txn: &mut Transaction,
        recorder: Option<&dyn OuRecorder>,
    ) -> DbResult<QueryResult> {
        collect(|sink| self.run_resolved(self.resolve(sql)?, TxnScope::In(txn), recorder, sink))
    }

    /// Execute a pre-planned statement in autocommit mode.
    pub fn execute_plan(
        &self,
        plan: &PlanNode,
        recorder: Option<&dyn OuRecorder>,
    ) -> DbResult<QueryResult> {
        collect(|sink| self.run_plan(plan, TxnScope::Autocommit, recorder, sink))
    }

    /// Execute a plan inside an existing transaction.
    pub fn execute_plan_in(
        &self,
        plan: &PlanNode,
        txn: &mut Transaction,
        recorder: Option<&dyn OuRecorder>,
    ) -> DbResult<QueryResult> {
        collect(|sink| self.run_plan(plan, TxnScope::In(txn), recorder, sink))
    }

    /// The plan-level execution core: every plan the engine runs comes
    /// through here. Result batches stream to `on_batch` as they are
    /// produced (a callback error aborts the query and its upstream scans
    /// early; DML runs to completion without invoking it). Returns the
    /// rows streamed, or the rows affected by a write. Index builds are
    /// checked against the WAL before the work, invalidate the plan cache
    /// and are logged for recovery. Under [`TxnScope::Autocommit`] the
    /// per-kind `mb2_stmt_latency_us` / `mb2_stmt_errors_total`
    /// observation spans execution AND the commit, so commit-side stalls
    /// (WAL pressure, commit-lock contention, injected faults) are visible
    /// in the statement latency the autopilot's verify step judges by.
    pub fn run_plan(
        &self,
        plan: &PlanNode,
        scope: TxnScope<'_>,
        recorder: Option<&dyn OuRecorder>,
        on_batch: &mut dyn FnMut(Batch) -> DbResult<()>,
    ) -> DbResult<usize> {
        let mut run = |txn: &mut Transaction| -> DbResult<usize> {
            // Index builds must be loggable before we spend the work
            // building them; a poisoned WAL rejects the DDL up front.
            if matches!(plan, PlanNode::CreateIndex { .. }) {
                self.check_wal_writable()?;
            }
            let knobs = self.knobs();
            let mut ctx = ExecContext {
                catalog: &self.catalog,
                txn,
                mode: knobs.execution_mode,
                recorder,
                hw: knobs.hw,
                jht_sleep_every: knobs.jht_sleep_every,
                index_obs: Some(self.index_obs.clone()),
                batch_size: knobs.batch_size.max(1),
                pool: self.exec_pool(),
                morsel_slots: DEFAULT_MORSEL_SLOTS,
                columnar: knobs.columnar_enabled,
            };
            let n = execute_batched(plan, &mut ctx, on_batch)?;
            if let PlanNode::CreateIndex {
                table,
                index,
                columns,
                ..
            } = plan
            {
                self.invalidate_plan_cache();
                if let Ok(entry) = self.catalog.get(table) {
                    self.log_ddl(&LogRecord::CreateIndex {
                        table_id: entry.table.id.0,
                        name: index.clone(),
                        columns: columns.iter().map(|&c| c as u32).collect(),
                    })?;
                }
            }
            Ok(n)
        };
        self.observe(classify(plan), || match scope {
            TxnScope::In(txn) => run(txn),
            TxnScope::Autocommit => {
                let mut txn = self.txns.begin();
                match run(&mut txn) {
                    Ok(n) => txn.commit().map(|_| n),
                    Err(e) => {
                        txn.abort();
                        Err(e)
                    }
                }
            }
        })
    }

    /// Count, time and error-count one statement of `kind` around `run`
    /// (the `mb2_stmt_*` families; latency records successes only).
    fn observe(
        &self,
        kind: StatementKind,
        run: impl FnOnce() -> DbResult<usize>,
    ) -> DbResult<usize> {
        let series = self.engine_metrics.stmt(kind);
        series.count.inc();
        let span = self.metrics.span();
        let result = run();
        match &result {
            Ok(_) => {
                span.observe(&series.latency_us);
            }
            Err(_) => series.errors.inc(),
        }
        result
    }

    /// Apply a statement that bypasses the planner (see [`Resolved::Ddl`]).
    fn apply_ddl(&self, stmt: &Statement) -> DbResult<()> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                self.check_wal_writable()?;
                let schema = Schema::new(
                    columns
                        .iter()
                        .map(|c| {
                            let mut col = Column::new(c.name.clone(), c.ty);
                            if let Some(len) = c.varchar_len {
                                col = col.with_varchar_len(len);
                            }
                            col
                        })
                        .collect(),
                );
                let entry = self.catalog.create_table_with_shards(
                    name,
                    schema,
                    self.knobs().shard_count.max(1),
                )?;
                self.gc.register(entry.table.clone());
                self.compactor.register(entry.table.clone());
                entry.table.set_faults(self.faults.clone());
                self.log_ddl(&LogRecord::CreateTable {
                    table_id: entry.table.id.0,
                    name: entry.table.name.clone(),
                    columns: entry
                        .table
                        .schema()
                        .columns()
                        .iter()
                        .map(|c| LoggedColumn {
                            name: c.name.clone(),
                            type_tag: LogRecord::type_tag(c.ty),
                            varchar_len: c.varchar_len as u32,
                        })
                        .collect(),
                })?;
                Ok(())
            }
            Statement::DropTable { name } => {
                self.check_wal_writable()?;
                let id = self.catalog.get(name)?.table.id.0;
                self.catalog.drop_table(name)?;
                self.log_ddl(&LogRecord::DropTable { table_id: id })?;
                Ok(())
            }
            Statement::DropIndex { name, table } => {
                self.check_wal_writable()?;
                let entry = self.catalog.get(table)?;
                entry.drop_index(name)?;
                self.log_ddl(&LogRecord::DropIndex {
                    table_id: entry.table.id.0,
                    name: name.clone(),
                })?;
                Ok(())
            }
            Statement::Analyze { table } => {
                let entry = self.catalog.get(table)?;
                entry.analyze(self.txns.now());
                Ok(())
            }
            other => Err(DbError::Plan(format!("{other:?} is not engine DDL"))),
        }
    }

    /// Recompute statistics for every table (and drop the plans built on
    /// the old ones).
    pub fn analyze_all(&self) {
        let now = self.txns.now();
        for name in self.catalog.table_names() {
            if let Ok(entry) = self.catalog.get(&name) {
                entry.analyze(now);
            }
        }
        self.invalidate_plan_cache();
    }

    /// Stop background threads. Registered [`BackgroundTask`]s (the
    /// autopilot) are quiesced *first*, while the exec pool, GC, and WAL
    /// flusher are still alive — a task mid-action may be running a query
    /// on the pool or a WAL-logged index build, and tearing those down
    /// underneath it would turn a clean drain into an error.
    pub fn shutdown(&self) {
        let tasks: Vec<Weak<dyn BackgroundTask>> = self.background_tasks.lock().drain(..).collect();
        for task in tasks {
            if let Some(task) = task.upgrade() {
                task.quiesce();
            }
        }
        // Dropping the last `Arc` joins the pool's worker threads; queries
        // still holding a clone keep it alive until they finish.
        *self.pool.write() = None;
        self.compactor.shutdown();
        self.gc.shutdown();
        if let Some(wal) = &self.wal {
            wal.shutdown();
        }
    }
}

impl Drop for Database {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb2_common::Value;

    #[test]
    fn ddl_and_autocommit_dml() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT, b VARCHAR(8))").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
            .unwrap();
        let r = db.execute("SELECT * FROM t ORDER BY a").unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[1][0], Value::Int(2));
    }

    #[test]
    fn duplicate_table_rejected() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        assert!(db.execute("CREATE TABLE t (a INT)").is_err());
    }

    #[test]
    fn error_rolls_back_autocommit_txn() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        // Division by zero in the projection aborts the statement; the
        // update applied by... here SELECT doesn't modify, so instead test
        // a failing multi-row change: second row divides by zero.
        let err = db.execute("UPDATE t SET a = 1 / (a - 1)");
        assert!(err.is_err());
        let r = db.execute("SELECT a FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(1), "update must have rolled back");
    }

    #[test]
    fn prepared_plan_reuse() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        for i in 0..10 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        let plan = db.prepare("SELECT COUNT(*) FROM t WHERE a < 5").unwrap();
        let a = db.execute_plan(&plan, None).unwrap();
        let b = db.execute_plan(&plan, None).unwrap();
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.rows[0][0], Value::Int(5));
    }

    #[test]
    fn analyze_updates_stats() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        for i in 0..50 {
            db.execute(&format!("INSERT INTO t VALUES ({})", i % 5))
                .unwrap();
        }
        db.execute("ANALYZE t").unwrap();
        let stats = db.catalog().get("t").unwrap().stats();
        assert_eq!(stats.row_count, 50);
        assert_eq!(stats.columns[0].distinct, 5);
    }

    #[test]
    fn knob_changes_apply() {
        let db = Database::open();
        assert_eq!(db.knobs().execution_mode, ExecutionMode::Compiled);
        db.set_execution_mode(ExecutionMode::Interpret);
        assert_eq!(db.knobs().execution_mode, ExecutionMode::Interpret);
        db.set_jht_sleep_every(100);
        assert_eq!(db.knobs().jht_sleep_every, 100);
    }

    #[test]
    fn wal_accumulates_records() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        let (_, records, ..) = db.wal().unwrap().stats().snapshot();
        assert!(records >= 3, "begin + insert + commit, got {records}");
    }

    #[test]
    fn transaction_control_requires_session() {
        let db = Database::open();
        assert!(db.execute("BEGIN").is_err());
    }

    #[test]
    fn parallelism_knob_rebuilds_pool_and_preserves_results() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
        for i in 0..300 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i % 7))
                .unwrap();
        }
        db.set_parallelism(1);
        assert!(db.exec_pool().is_none(), "parallelism 1 runs serial");
        let serial = db.execute("SELECT a, b FROM t WHERE b < 3").unwrap().rows;
        for workers in [2usize, 4] {
            db.set_parallelism(workers);
            let pool = db.exec_pool().expect("pool built for parallelism > 1");
            assert_eq!(pool.workers(), workers);
            assert_eq!(db.knobs().parallelism, workers);
            let got = db.execute("SELECT a, b FROM t WHERE b < 3").unwrap().rows;
            assert_eq!(got, serial, "parallel rows must be byte-identical");
        }
        // The pool publishes into the database's registry.
        let prom = db.metrics_prometheus();
        assert!(prom.contains("mb2_exec_pool_workers"));
        assert!(prom.contains("mb2_exec_pool_busy_workers"));
        db.set_parallelism(0); // clamps to 1
        assert_eq!(db.knobs().parallelism, 1);
        assert!(db.exec_pool().is_none());
    }

    #[test]
    fn columnar_knob_and_compaction_preserve_results() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
        let mut stmt = String::from("INSERT INTO t VALUES ");
        for i in 0..700 {
            if i > 0 {
                stmt.push(',');
            }
            stmt.push_str(&format!("({i}, {})", i % 7));
        }
        db.execute(&stmt).unwrap();
        let queries = [
            "SELECT a, b FROM t WHERE b < 3",
            "SELECT a FROM t WHERE a >= 100 AND a < 200 ORDER BY a",
            "SELECT COUNT(*) FROM t",
        ];
        let want: Vec<_> = queries
            .iter()
            .map(|q| db.execute(q).unwrap().rows)
            .collect();
        // Seal the cold unit, then flip the knob: results must not move.
        let report = db.compact_now();
        assert!(report.units_sealed >= 1, "{report:?}");
        db.set_columnar_enabled(true);
        assert!(db.knobs().columnar_enabled);
        for (q, want) in queries.iter().zip(&want) {
            assert_eq!(&db.execute(q).unwrap().rows, want, "{q}");
        }
        let blocks = db.block_status();
        assert!(blocks.iter().any(|(name, s)| name == "t" && s.blocks > 0));
        // Writers still revive sealed rows transparently.
        db.execute("UPDATE t SET b = 99 WHERE a = 5").unwrap();
        let r = db.execute("SELECT b FROM t WHERE a = 5").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(99));
    }

    #[test]
    fn streaming_matches_materialized_at_any_batch_size() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
        for i in 0..25 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i % 4))
                .unwrap();
        }
        let want = db
            .execute("SELECT a FROM t WHERE b = 1 ORDER BY a")
            .unwrap()
            .rows;
        assert!(!want.is_empty());
        let mut session = db.session();
        for batch_size in [1usize, 3, 1024] {
            db.set_batch_size(batch_size);
            let mut got: Vec<Vec<Value>> = Vec::new();
            let mut batches = 0usize;
            let n = session
                .execute_streaming("SELECT a FROM t WHERE b = 1 ORDER BY a", None, &mut |b| {
                    batches += 1;
                    got.extend(b.rows.iter().map(|r| r.as_ref().clone()));
                    Ok(())
                })
                .unwrap();
            assert_eq!(n, want.len());
            assert_eq!(got, want);
            if batch_size == 1 {
                assert_eq!(batches, want.len(), "one row per batch at size 1");
            }
        }
        // DML and DDL run through the streaming entry point too, without
        // producing batches.
        let mut calls = 0usize;
        let n = session
            .execute_streaming("UPDATE t SET b = 9 WHERE a = 0", None, &mut |_| {
                calls += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(calls, 0);
    }
}
