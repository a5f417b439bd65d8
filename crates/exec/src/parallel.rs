//! Morsel-driven intra-query parallelism: the parallel driver.
//!
//! A shared [`ExecPool`] (owned by the engine, sized by the `parallelism`
//! knob) runs parallelizable *leaf chains* — a base-table sequential scan
//! plus any stack of Filter/Project stages above it — by carving the heap
//! into fixed-size slot-range **morsels** ([`DEFAULT_MORSEL_SLOTS`]).
//! Dispatch is **shard-affine**: morsels are bucketed by the storage shard
//! owning their first slot, each shard gets its own atomic cursor, and a
//! worker drains the cursor of its preferred shard before stealing from
//! others — so parallel scans over a partitioned table stop contending on
//! one cursor and each worker stays inside one shard's chain blocks while
//! its shard lasts. Workers evaluate the chain over their range with
//! thread-local state and send results to the issuing thread, which
//! re-emits them in morsel order (an **ordered gather**). Because disjoint
//! slot ranges partition the heap exactly (`Table::scan_visible_range`) and
//! emission is in range order, the row stream a parallel chain produces is
//! byte-identical to the serial scan — heap order is preserved, so `LIMIT`
//! prefixes and client-visible row order do not change with the worker
//! count.
//!
//! This module is a driver only: a morsel runs the same kernels
//! ([`crate::kernel`]) the serial pipeline runs on a batch — the scan, the
//! Filter/Project stages, and then the consuming operator's kernel (join
//! probe, join build insert, aggregation fold). Pipeline breakers merge the
//! per-morsel partial state on the issuing thread, in morsel order. See
//! DESIGN.md "Parallel execution model".
//!
//! OU accounting: workers fold each kernel's work counts, with the morsel's
//! wall time, into a private `WorkerAcct` keyed by `(node id, OU)`. At
//! operator close the accounts of all workers fold into the operator's
//! single `OpSpan`, so a recorder sees exactly one measurement per (node,
//! OU) whose tuple/byte features equal the serial totals and whose elapsed
//! time is the *sum* of concurrent worker time — true aggregate work, which
//! is what the OU models train on.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::Mutex;

use mb2_common::types::Tuple;
use mb2_common::{DbError, DbResult, OuKind};
use mb2_obs::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::kernel::{elapsed_us, ScanAcct, ScanKernel, Stage};
use crate::tracker::{SpanAcct, WorkCounts};

/// Slots per morsel. Matches half a storage segment: large enough that the
/// per-morsel dispatch cost (one atomic fetch-add plus one channel send) is
/// noise, small enough that a 40k-row table still fans out over every
/// worker. Tests override it via `ExecContext::with_morsel_slots` to
/// exercise multi-morsel plans on small tables.
pub const DEFAULT_MORSEL_SLOTS: usize = 2048;

// ----------------------------------------------------------------------
// Worker pool
// ----------------------------------------------------------------------

type Job = Box<dyn FnOnce(usize) + Send + 'static>;

/// Pool observability handles, registered against the engine's
/// [`MetricsRegistry`] so they flow through the existing Prometheus/JSON
/// endpoints. A pool built with [`ExecPool::new`] keeps private handles.
struct PoolObs {
    /// Workers currently executing a job.
    busy: Arc<Gauge>,
    /// Depth of the job queue observed at each submit.
    queue_depth: Arc<Histogram>,
    /// Morsels processed, labeled per worker.
    morsels: Vec<Arc<Counter>>,
    /// Morsels a worker claimed from a shard other than its preferred one,
    /// labeled per worker. Low steal counts mean shard affinity is holding.
    steals: Vec<Arc<Counter>>,
    /// Jobs submitted but not yet picked up (feeds `queue_depth`).
    pending: AtomicUsize,
}

impl PoolObs {
    fn registered(workers: usize, registry: &MetricsRegistry) -> PoolObs {
        registry
            .gauge("mb2_exec_pool_workers", "Size of the execution worker pool")
            .set(workers as i64);
        PoolObs {
            busy: registry.gauge(
                "mb2_exec_pool_busy_workers",
                "Execution pool workers currently running a job",
            ),
            queue_depth: registry.histogram(
                "mb2_exec_pool_queue_depth",
                "Execution pool job queue depth sampled at submit",
            ),
            morsels: (0..workers)
                .map(|i| {
                    registry.counter_with(
                        "mb2_exec_pool_morsels_total",
                        &[("worker", &i.to_string())],
                        "Morsels processed by each execution pool worker",
                    )
                })
                .collect(),
            steals: (0..workers)
                .map(|i| {
                    registry.counter_with(
                        "mb2_exec_pool_steals_total",
                        &[("worker", &i.to_string())],
                        "Morsels claimed from a non-preferred shard by each worker",
                    )
                })
                .collect(),
            pending: AtomicUsize::new(0),
        }
    }

    fn private(workers: usize) -> PoolObs {
        PoolObs {
            busy: Arc::new(Gauge::new()),
            queue_depth: Arc::new(Histogram::new()),
            morsels: (0..workers).map(|_| Arc::new(Counter::new())).collect(),
            steals: (0..workers).map(|_| Arc::new(Counter::new())).collect(),
            pending: AtomicUsize::new(0),
        }
    }

    fn morsel_done(&self, worker: usize) {
        if let Some(c) = self.morsels.get(worker) {
            c.inc();
        }
    }

    fn morsel_stolen(&self, worker: usize) {
        if let Some(c) = self.steals.get(worker) {
            c.inc();
        }
    }
}

/// A shared pool of persistent execution workers. Queries submit one job
/// per participating worker; each job drains morsels from a per-query
/// cursor. Jobs never block on other jobs and queries are never executed
/// *from* pool threads, so the pool cannot deadlock however many queries
/// share it. Dropping the pool closes the job channel and joins every
/// worker.
pub struct ExecPool {
    tx: Mutex<Option<Sender<Job>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    obs: Arc<PoolObs>,
    workers: usize,
}

impl ExecPool {
    /// A pool with private (unregistered) observability handles.
    pub fn new(workers: usize) -> Arc<ExecPool> {
        Self::build(workers, None)
    }

    /// A pool whose gauges/histograms/counters are registered in `registry`
    /// (the engine path).
    pub fn with_metrics(workers: usize, registry: &MetricsRegistry) -> Arc<ExecPool> {
        Self::build(workers, Some(registry))
    }

    fn build(workers: usize, registry: Option<&MetricsRegistry>) -> Arc<ExecPool> {
        let workers = workers.max(1);
        let obs = Arc::new(match registry {
            Some(r) => PoolObs::registered(workers, r),
            None => PoolObs::private(workers),
        });
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let obs = Arc::clone(&obs);
                std::thread::Builder::new()
                    .name(format!("mb2-exec-{i}"))
                    .spawn(move || loop {
                        // Holding the lock across the blocking recv is the
                        // point: exactly one idle worker waits on the
                        // channel; the rest queue on the mutex. Dispatch is
                        // serialized (jobs are rare — one per worker per
                        // query) while job *execution* is fully parallel.
                        let job = rx.lock().recv();
                        match job {
                            Ok(job) => {
                                obs.pending.fetch_sub(1, Ordering::Relaxed);
                                obs.busy.inc();
                                job(i);
                                obs.busy.dec();
                            }
                            Err(_) => break,
                        }
                    })
                    .expect("spawn exec pool worker")
            })
            .collect();
        Arc::new(ExecPool {
            tx: Mutex::new(Some(tx)),
            handles: Mutex::new(handles),
            obs,
            workers,
        })
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Workers currently executing a job (test/observability hook).
    pub fn busy_workers(&self) -> i64 {
        self.obs.busy.get()
    }

    /// Total morsels processed across all workers.
    pub fn morsels_processed(&self) -> u64 {
        self.obs.morsels.iter().map(|c| c.get()).sum()
    }

    /// Total morsels claimed from a non-preferred shard (work stealing)
    /// across all workers.
    pub fn morsels_stolen(&self) -> u64 {
        self.obs.steals.iter().map(|c| c.get()).sum()
    }

    fn submit(&self, job: Job) {
        let depth = self.obs.pending.fetch_add(1, Ordering::Relaxed) + 1;
        self.obs.queue_depth.record(depth as u64);
        let tx = self.tx.lock();
        tx.as_ref()
            .expect("exec pool already shut down")
            .send(job)
            .expect("exec pool workers exited");
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        // Close the channel; workers drain remaining jobs and exit.
        self.tx.lock().take();
        for h in self.handles.lock().drain(..) {
            let _ = h.join();
        }
    }
}

// ----------------------------------------------------------------------
// Worker-side accounting
// ----------------------------------------------------------------------

/// One worker's work/time accounting, keyed by `(node id, OU)`.
#[derive(Default)]
pub(crate) struct WorkerAcct {
    spans: HashMap<(u32, OuKind), SpanAcct>,
}

impl WorkerAcct {
    pub fn add(&mut self, id: u32, ou: OuKind, work: &WorkCounts, elapsed_us: f64) {
        self.spans
            .entry((id, ou))
            .or_default()
            .add(work, elapsed_us);
    }

    pub fn get(&self, id: u32, ou: OuKind) -> Option<&SpanAcct> {
        self.spans.get(&(id, ou))
    }

    fn fold(&mut self, other: WorkerAcct) {
        for ((id, ou), acct) in other.spans {
            self.add(id, ou, &acct.work, acct.elapsed_us);
        }
    }
}

// ----------------------------------------------------------------------
// Parallelizable leaf chains
// ----------------------------------------------------------------------

/// A parallelizable leaf chain: a sequential base-table scan (with its
/// fused predicate) plus zero or more Filter/Project stages, bottom-up. It
/// owns everything a worker needs, so it crosses threads behind an `Arc`.
pub(crate) struct ChainSpec {
    pub scan: ScanKernel,
    pub scan_id: u32,
    pub stages: Vec<(u32, Stage)>,
    pub morsel_slots: usize,
    /// Slot count snapshot taken at plan time; ranges beyond it are never
    /// dispatched, so concurrent appends don't skew the morsel count.
    pub total_slots: usize,
}

impl ChainSpec {
    pub fn n_morsels(&self) -> usize {
        self.total_slots.div_ceil(self.morsel_slots.max(1))
    }

    /// The storage shard a morsel is affine to: the shard owning its first
    /// slot. A morsel larger than a shard unit may spill into other shards
    /// mid-range — affinity is a dispatch heuristic, not a correctness
    /// boundary (`scan_visible_range` handles any range).
    fn shard_of_morsel(&self, m: usize) -> usize {
        self.scan.table.shard_of_index(m * self.morsel_slots.max(1))
    }

    /// The `(node id, OU)` spans this chain accounts for, bottom-up. The
    /// issuing thread creates an `OpSpan` for each so that zero-work spans
    /// are still recorded (preserving the plan's OU set under LIMIT).
    pub fn span_keys(&self) -> impl Iterator<Item = (u32, OuKind)> + '_ {
        let stages = self
            .stages
            .iter()
            .map(|(id, _)| (*id, OuKind::ArithmeticFilter));
        self.scan.ous().map(|ou| (self.scan_id, ou)).chain(stages)
    }

    /// Evaluate one morsel: the scan kernel over its slot range, then the
    /// stage kernels, each accounted to its `(node id, OU)`.
    fn run_morsel(&self, morsel: usize, acct: &mut WorkerAcct) -> DbResult<Vec<Arc<Tuple>>> {
        let mut pos = morsel * self.morsel_slots;
        let end = (pos + self.morsel_slots).min(self.total_slots);
        let mut rows: Vec<Arc<Tuple>> = Vec::new();
        let mut scan = ScanAcct::default();
        self.scan.scan(&mut pos, end, &mut scan, |_, row| {
            rows.push(Arc::clone(row));
            true
        })?;
        let track = self.scan.track;
        for ou in self.scan.ous().filter(|_| track) {
            let a = scan.get(ou);
            acct.add(self.scan_id, ou, &a.work, a.elapsed_us);
        }
        for (id, stage) in &self.stages {
            let t0 = Instant::now();
            let mut work = WorkCounts::default();
            rows = stage.apply(rows, &mut work)?;
            if track {
                acct.add(*id, OuKind::ArithmeticFilter, &work, elapsed_us(t0));
            }
        }
        Ok(rows)
    }
}

// ----------------------------------------------------------------------
// Ordered gather
// ----------------------------------------------------------------------

enum Msg<T> {
    Morsel(usize, DbResult<T>),
    Done(WorkerAcct),
}

/// Consumer watermark for bounded read-ahead. Workers may claim a morsel at
/// most `window` beyond the last index the consumer has taken; beyond that
/// they block here until the consumer catches up (or the run is cancelled).
/// This bounds gather-buffer memory and makes LIMIT cancellation effective:
/// without it, workers would race through the whole heap while the consumer
/// is still cutting the first morsel.
struct Progress {
    consumed: std::sync::Mutex<usize>,
    cv: std::sync::Condvar,
}

impl Progress {
    /// The consumer's current watermark (number of morsels taken).
    fn consumed(&self) -> usize {
        *self.consumed.lock().unwrap()
    }

    /// Park until the watermark moves past the value the caller last
    /// observed (`seen`), the run is cancelled, or a timeout tick passes.
    /// Returns `false` only on cancellation. Used by workers that found
    /// every shard either drained or window-blocked: with
    /// admission-*before*-claim, the morsel at the watermark itself is
    /// always claimable (it is its shard's cursor head and within any
    /// window ≥ 1), so some worker always makes progress and parked ones
    /// are woken as the consumer advances.
    fn wait_past(&self, seen: usize, cancel: &AtomicBool) -> bool {
        if cancel.load(Ordering::Relaxed) {
            return false;
        }
        let consumed = self.consumed.lock().unwrap();
        if *consumed != seen {
            return true; // advanced since the caller's scan; rescan now
        }
        // Timed wait: a lost wakeup (cancel racing the notify) costs
        // one timeout tick, not a stuck pool worker.
        let _ = self
            .cv
            .wait_timeout(consumed, std::time::Duration::from_millis(10));
        !cancel.load(Ordering::Relaxed)
    }

    fn advance(&self, consumed: usize) {
        *self.consumed.lock().unwrap() = consumed;
        self.cv.notify_all();
    }

    fn wake_all(&self) {
        self.cv.notify_all();
    }
}

/// One parallel chain execution in flight. Workers race down the morsel
/// cursor and send `(morsel index, result)` messages; the issuing thread
/// pulls them with [`ParallelRun::next_morsel`], which buffers out-of-order
/// arrivals and yields strictly in morsel order — the ordered gather that
/// makes parallel output byte-identical to serial. `finish` cancels
/// outstanding work (LIMIT early-cut) and collects every worker's
/// accounting.
pub(crate) struct ParallelRun<T> {
    rx: Receiver<Msg<T>>,
    buffered: BTreeMap<usize, DbResult<T>>,
    next: usize,
    n_morsels: usize,
    jobs: usize,
    done_jobs: usize,
    acct: WorkerAcct,
    cancel: Arc<AtomicBool>,
    progress: Arc<Progress>,
}

/// Launch a parallel chain on `pool`. `consume` runs on the worker for each
/// morsel's filtered/projected rows (the consuming operator's kernel: a
/// probe, or a fold into per-morsel partial state); its output travels to
/// the issuing thread through the ordered gather.
pub(crate) fn start<T, F>(pool: &ExecPool, chain: Arc<ChainSpec>, consume: F) -> ParallelRun<T>
where
    T: Send + 'static,
    F: Fn(Vec<Arc<Tuple>>, &mut WorkerAcct) -> DbResult<T> + Send + Sync + 'static,
{
    let n_morsels = chain.n_morsels();
    let jobs = pool.workers().min(n_morsels);
    // Read-ahead window: enough that no worker idles waiting on the
    // consumer in steady state, small enough that LIMIT cancellation cuts
    // most of the heap.
    let window = jobs * 2;
    let (tx, rx) = channel::<Msg<T>>();
    let cancel = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(Progress {
        consumed: std::sync::Mutex::new(0),
        cv: std::sync::Condvar::new(),
    });
    // Shard-affine dispatch: bucket morsels by the storage shard that owns
    // their first slot. Each bucket keeps ascending morsel order and gets
    // its own cursor; a worker drains its preferred shard's cursor and
    // steals from the next shard (round-robin) only when its own is
    // drained or window-blocked.
    let n_shards = chain.scan.table.shard_count().max(1);
    let mut lists: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
    for m in 0..n_morsels {
        lists[chain.shard_of_morsel(m)].push(m);
    }
    let lists = Arc::new(lists);
    let positions: Arc<Vec<AtomicUsize>> =
        Arc::new((0..n_shards).map(|_| AtomicUsize::new(0)).collect());
    let consume = Arc::new(consume);
    for j in 0..jobs {
        let chain = Arc::clone(&chain);
        let tx = tx.clone();
        let cancel = Arc::clone(&cancel);
        let lists = Arc::clone(&lists);
        let positions = Arc::clone(&positions);
        let progress = Arc::clone(&progress);
        let consume = Arc::clone(&consume);
        let obs = Arc::clone(&pool.obs);
        let preferred = j % n_shards;
        pool.submit(Box::new(move |worker| {
            let mut acct = WorkerAcct::default();
            loop {
                if cancel.load(Ordering::Relaxed) {
                    break;
                }
                // Admission before claim: a morsel is only claimed once it
                // is inside the read-ahead window. Claimed morsels form a
                // prefix of each shard's ascending list, so the unclaimed
                // morsel at the consumer watermark is always its shard's
                // cursor head and within any window ≥ 1 — some worker can
                // always claim it, which gives the liveness argument for
                // parking in `wait_past` below.
                let consumed = progress.consumed();
                let mut any_blocked = false;
                let mut claimed = None;
                'shards: for k in 0..n_shards {
                    let s = (preferred + k) % n_shards;
                    let list = &lists[s];
                    loop {
                        let pos = positions[s].load(Ordering::Relaxed);
                        if pos >= list.len() {
                            break;
                        }
                        let m = list[pos];
                        if m >= consumed + window {
                            any_blocked = true;
                            break;
                        }
                        if positions[s]
                            .compare_exchange(pos, pos + 1, Ordering::AcqRel, Ordering::Relaxed)
                            .is_ok()
                        {
                            if k > 0 {
                                obs.morsel_stolen(worker);
                            }
                            claimed = Some(m);
                            break 'shards;
                        }
                    }
                }
                match claimed {
                    Some(m) => {
                        let res = chain
                            .run_morsel(m, &mut acct)
                            .and_then(|rows| consume(rows, &mut acct));
                        obs.morsel_done(worker);
                        let failed = res.is_err();
                        if tx.send(Msg::Morsel(m, res)).is_err() || failed {
                            break;
                        }
                    }
                    // Every shard drained: all morsels claimed, nothing left.
                    None if !any_blocked => break,
                    // Window-blocked everywhere: park until the consumer
                    // advances (or cancellation).
                    None => {
                        if !progress.wait_past(consumed, &cancel) {
                            break;
                        }
                    }
                }
            }
            let _ = tx.send(Msg::Done(acct));
        }));
    }
    ParallelRun {
        rx,
        buffered: BTreeMap::new(),
        next: 0,
        n_morsels,
        jobs,
        done_jobs: 0,
        acct: WorkerAcct::default(),
        cancel,
        progress,
    }
}

impl<T> ParallelRun<T> {
    /// The next morsel's result, in morsel order. `None` = all morsels
    /// yielded. After an `Err` the run is cancelled; callers should stop
    /// pulling and let `finish`/drop clean up.
    pub fn next_morsel(&mut self) -> Option<DbResult<T>> {
        while self.next < self.n_morsels {
            if let Some(res) = self.buffered.remove(&self.next) {
                self.next += 1;
                if res.is_err() {
                    self.cancel.store(true, Ordering::Relaxed);
                }
                self.progress.advance(self.next);
                return Some(res);
            }
            match self.rx.recv() {
                Ok(Msg::Morsel(idx, res)) => {
                    self.buffered.insert(idx, res);
                }
                Ok(Msg::Done(acct)) => {
                    self.done_jobs += 1;
                    self.acct.fold(acct);
                }
                Err(_) => {
                    // Every worker exited without producing morsel `next`:
                    // some earlier morsel failed. Surface the first error.
                    self.next = self.n_morsels;
                    let err = self
                        .buffered
                        .values()
                        .find_map(|r| r.as_ref().err().cloned())
                        .unwrap_or_else(|| {
                            DbError::Execution("parallel scan worker vanished".into())
                        });
                    return Some(Err(err));
                }
            }
        }
        None
    }

    /// Cancel outstanding morsels and collect all workers' accounting. Must
    /// be called exactly once, at operator close (also safe after natural
    /// exhaustion — workers past the cursor end are already done).
    pub fn finish(mut self) -> WorkerAcct {
        self.cancel.store(true, Ordering::Relaxed);
        self.progress.wake_all();
        while self.done_jobs < self.jobs {
            match self.rx.recv() {
                Ok(Msg::Done(acct)) => {
                    self.done_jobs += 1;
                    self.acct.fold(acct);
                }
                Ok(Msg::Morsel(..)) => {}
                Err(_) => break,
            }
        }
        std::mem::take(&mut self.acct)
    }
}

impl<T> Drop for ParallelRun<T> {
    /// A run abandoned without `finish` (error propagation drops the
    /// operator) must still cancel, or workers parked on the read-ahead
    /// window would wait forever for a consumer that is gone.
    fn drop(&mut self) {
        self.cancel.store(true, Ordering::Relaxed);
        self.progress.wake_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pool_runs_jobs_on_all_workers_and_joins_on_drop() {
        let pool = ExecPool::new(4);
        assert_eq!(pool.workers(), 4);
        let hits = Arc::new(AtomicU64::new(0));
        let (tx, rx) = channel();
        for _ in 0..32 {
            let hits = Arc::clone(&hits);
            let tx = tx.clone();
            pool.submit(Box::new(move |_worker| {
                hits.fetch_add(1, Ordering::Relaxed);
                tx.send(()).unwrap();
            }));
        }
        for _ in 0..32 {
            rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        }
        assert_eq!(hits.load(Ordering::Relaxed), 32);
        drop(pool); // joins workers; must not hang
    }

    #[test]
    fn pool_registers_metrics() {
        let registry = MetricsRegistry::new();
        let pool = ExecPool::with_metrics(3, &registry);
        let (tx, rx) = channel();
        pool.submit(Box::new(move |_| {
            tx.send(()).unwrap();
        }));
        rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        let names: Vec<String> = registry
            .snapshot()
            .iter()
            .map(|s| s.family.clone())
            .collect();
        assert!(names.iter().any(|n| n == "mb2_exec_pool_workers"));
        assert!(names.iter().any(|n| n == "mb2_exec_pool_busy_workers"));
        assert!(names.iter().any(|n| n == "mb2_exec_pool_queue_depth"));
        assert!(names.iter().any(|n| n == "mb2_exec_pool_morsels_total"));
    }

    /// A parallel chain over a sharded table must gather rows in global
    /// slot order — identical to the serial scan and to a 1-shard table —
    /// while dispatch runs shard-affine (per-shard cursors, stealing only
    /// across drained shards).
    #[test]
    fn sharded_chain_gathers_in_global_slot_order() {
        use mb2_common::schema::{Column, Schema};
        use mb2_common::types::{DataType, Value};
        use mb2_storage::{Table, TableId, Ts};

        let schema = Schema::new(vec![Column::new("a", DataType::Int)]);
        let n_rows = 3 * mb2_storage::SHARD_UNIT_SLOTS + 123;
        let mk = |shards: usize| {
            let t = Arc::new(Table::with_shards(TableId(1), "t", schema.clone(), shards));
            for i in 0..n_rows {
                let slot = t.insert(vec![Value::Int(i as i64)], Ts::txn(1)).unwrap();
                t.commit_slot(slot, Ts::txn(1), Ts(2), 1);
            }
            t
        };
        let run = |table: Arc<Table>| -> Vec<i64> {
            let pool = ExecPool::new(4);
            let chain = Arc::new(ChainSpec {
                scan: ScanKernel {
                    table,
                    read_ts: Ts(10),
                    own: Ts::txn(99),
                    filter: None,
                    filter_ops: 0,
                    block_pred: None,
                    track: false,
                },
                scan_id: 0,
                stages: vec![],
                morsel_slots: 64,
                total_slots: n_rows,
            });
            let mut rows = Vec::new();
            let mut par = start(&pool, chain, |batch, _| Ok(batch));
            while let Some(res) = par.next_morsel() {
                for row in res.unwrap() {
                    match row[0] {
                        Value::Int(v) => rows.push(v),
                        _ => unreachable!(),
                    }
                }
            }
            par.finish();
            rows
        };
        let oracle = run(mk(1));
        assert_eq!(oracle, (0..n_rows as i64).collect::<Vec<_>>());
        for shards in [2, 3, 8] {
            assert_eq!(run(mk(shards)), oracle, "shard_count={shards}");
        }
    }

    #[test]
    fn worker_acct_folds_by_key() {
        let counts = |tuples, comparisons| WorkCounts {
            tuples,
            comparisons,
            ..WorkCounts::default()
        };
        let mut a = WorkerAcct::default();
        a.add(1, OuKind::SeqScan, &counts(10, 0), 5.0);
        let mut b = WorkerAcct::default();
        b.add(1, OuKind::SeqScan, &counts(7, 0), 2.0);
        b.add(2, OuKind::ArithmeticFilter, &counts(0, 3), 0.0);
        a.fold(b);
        let s = a.get(1, OuKind::SeqScan).unwrap();
        assert_eq!(s.work.tuples, 17);
        assert!((s.elapsed_us - 7.0).abs() < 1e-9);
        assert_eq!(
            a.get(2, OuKind::ArithmeticFilter).unwrap().work.comparisons,
            3
        );
    }
}
