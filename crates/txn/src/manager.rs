//! MVCC transaction manager.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use mb2_common::types::Tuple;
use mb2_common::{fault, DbError, DbResult, FaultInjector};
use mb2_obs::{Counter, Gauge, MetricsRegistry};
use mb2_storage::{SlotId, Table, Ts};
use mb2_wal::{LogManager, LogRecord};

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    Active,
    Committed,
    Aborted,
}

/// One entry in a transaction's write set, kept for commit stamping and
/// abort rollback.
enum WriteOp {
    Insert { table: Arc<Table>, slot: SlotId },
    Update { table: Arc<Table>, slot: SlotId },
    Delete { table: Arc<Table>, slot: SlotId },
}

/// A transaction handle. Not `Sync`: a transaction belongs to one worker
/// thread, as in NoisePage.
pub struct Transaction {
    id: Ts,
    read_ts: Ts,
    state: TxnState,
    writes: Vec<WriteOp>,
    mgr: Arc<TxnManager>,
}

impl Transaction {
    /// This transaction's id timestamp (high bit set).
    pub fn id(&self) -> Ts {
        self.id
    }

    /// Snapshot timestamp for reads.
    pub fn read_ts(&self) -> Ts {
        self.read_ts
    }

    pub fn state(&self) -> TxnState {
        self.state
    }

    pub fn write_set_len(&self) -> usize {
        self.writes.len()
    }

    fn check_active(&self) -> DbResult<()> {
        if self.state == TxnState::Active {
            Ok(())
        } else {
            Err(DbError::TxnClosed)
        }
    }

    /// The raw transaction id for WAL records. Every transaction is built
    /// with `Ts::txn`, so this cannot fail in practice — but a server must
    /// not panic a worker over a malformed id, so it surfaces as a
    /// [`DbError::Storage`] instead of an `expect`.
    fn wal_txn_id(&self) -> DbResult<u64> {
        self.id.txn_id().ok_or_else(|| {
            DbError::Storage(format!("transaction id {:?} is not a txn ts", self.id))
        })
    }

    /// Read the version of `slot` visible to this transaction.
    pub fn read(&self, table: &Table, slot: SlotId) -> Option<Arc<Tuple>> {
        table.read(slot, self.read_ts, self.id)
    }

    /// Insert a tuple; the write is logged (with its assigned slot, for
    /// redo-only recovery) and tracked for commit/abort.
    pub fn insert(&mut self, table: &Arc<Table>, tuple: Tuple) -> DbResult<SlotId> {
        self.check_active()?;
        let logged = self.mgr.wal.as_ref().map(|_| tuple.clone());
        let slot = table.insert(tuple, self.id)?;
        // Track the write before logging so that if the append fails (e.g.
        // the WAL is poisoned) the abort path rolls this insert back too.
        self.writes.push(WriteOp::Insert {
            table: table.clone(),
            slot,
        });
        if let (Some(wal), Some(tuple)) = (&self.mgr.wal, logged) {
            wal.append(&LogRecord::Insert {
                txn_id: self.wal_txn_id()?,
                table_id: table.id.0,
                slot: (slot.segment as u64) << 32 | slot.offset as u64,
                tuple,
            })?;
        }
        Ok(slot)
    }

    /// Update a tuple in place (installs a new version).
    pub fn update(
        &mut self,
        table: &Arc<Table>,
        slot: SlotId,
        tuple: Tuple,
    ) -> DbResult<Arc<Tuple>> {
        self.check_active()?;
        if let Some(wal) = &self.mgr.wal {
            wal.append(&LogRecord::Update {
                txn_id: self.wal_txn_id()?,
                table_id: table.id.0,
                slot: (slot.segment as u64) << 32 | slot.offset as u64,
                tuple: tuple.clone(),
            })?;
        }
        let old = table.update(slot, tuple, self.id, self.read_ts)?;
        self.writes.push(WriteOp::Update {
            table: table.clone(),
            slot,
        });
        Ok(old)
    }

    /// Delete a tuple (installs a tombstone).
    pub fn delete(&mut self, table: &Arc<Table>, slot: SlotId) -> DbResult<Arc<Tuple>> {
        self.check_active()?;
        if let Some(wal) = &self.mgr.wal {
            wal.append(&LogRecord::Delete {
                txn_id: self.wal_txn_id()?,
                table_id: table.id.0,
                slot: (slot.segment as u64) << 32 | slot.offset as u64,
            })?;
        }
        let old = table.delete(slot, self.id, self.read_ts)?;
        self.writes.push(WriteOp::Delete {
            table: table.clone(),
            slot,
        });
        Ok(old)
    }

    /// Commit: acquire a commit timestamp and stamp every written version.
    pub fn commit(self) -> DbResult<Ts> {
        self.check_active()?;
        let mgr = self.mgr.clone();
        let commit_ts = mgr.finish_begin_commit(self, true)?;
        Ok(commit_ts)
    }

    /// Abort: unlink every written version.
    pub fn abort(mut self) {
        if self.state != TxnState::Active {
            return;
        }
        let _ = self.mgr.clone().finish_abort(&mut self);
        self.state = TxnState::Aborted;
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        if self.state == TxnState::Active {
            // Implicit rollback on drop.
            let mgr = self.mgr.clone();
            let _ = mgr.finish_abort(self);
            self.state = TxnState::Aborted;
        }
    }
}

/// Transaction lifecycle counters, registry-backed (`mb2_txn_*` families)
/// so an engine scrape sees them alongside every other subsystem.
#[derive(Debug)]
pub struct TxnStats {
    pub begins: Arc<Counter>,
    pub commits: Arc<Counter>,
    pub aborts: Arc<Counter>,
    /// In-flight transactions right now.
    pub active: Arc<Gauge>,
}

impl TxnStats {
    pub fn new(registry: &MetricsRegistry) -> TxnStats {
        TxnStats {
            begins: registry.counter("mb2_txn_begins_total", "Transactions begun."),
            commits: registry.counter("mb2_txn_commits_total", "Transactions committed."),
            aborts: registry.counter("mb2_txn_aborts_total", "Transactions aborted."),
            active: registry.gauge("mb2_txn_active", "In-flight transactions."),
        }
    }
}

impl Default for TxnStats {
    /// A stats block backed by a private registry (unit tests, standalone
    /// managers).
    fn default() -> Self {
        TxnStats::new(&MetricsRegistry::new())
    }
}

/// Number of commit-lock stripes. Commit locks are sharded by the write
/// set's (table, storage-shard) footprint so commits touching disjoint
/// shards stamp concurrently; stripes fold that unbounded footprint space
/// into a fixed lock array (collisions merely merge two shards onto one
/// lock, which is always safe).
pub const COMMIT_LOCK_STRIPES: usize = 64;

/// The transaction manager: timestamp allocation plus the shared
/// active-transactions table (the contention point the Txn Begin/Commit OUs
/// model).
pub struct TxnManager {
    /// The *publish frontier*: the highest commit timestamp whose
    /// transaction (and every transaction with a smaller timestamp) is
    /// fully stamped. Snapshots read this, never `alloc`.
    clock: AtomicU64,
    /// Commit-timestamp ticket allocator. Runs ahead of `clock` while
    /// commits are stamping; the ticket-ordered publish in
    /// `finish_begin_commit` closes the gap.
    alloc: AtomicU64,
    next_txn_id: AtomicU64,
    /// Sharded stamp-then-publish locks: a commit locks the stripes its
    /// write-set footprint covers (ascending order — deadlock-free), stamps
    /// every slot, then publishes. Single-shard commits — the TATP/
    /// SmallBank common case — take exactly one stripe.
    commit_locks: Vec<Mutex<()>>,
    /// Multiset of active snapshot timestamps, for the GC watermark.
    active: Mutex<BTreeMap<u64, usize>>,
    pub wal: Option<Arc<LogManager>>,
    pub stats: TxnStats,
    /// Fault injection for chaos tests (`txn.commit` point, consulted inside
    /// the commit critical section); `None` in production.
    faults: Mutex<Option<Arc<FaultInjector>>>,
}

fn commit_locks() -> Vec<Mutex<()>> {
    (0..COMMIT_LOCK_STRIPES).map(|_| Mutex::new(())).collect()
}

impl TxnManager {
    pub fn new(wal: Option<Arc<LogManager>>) -> Arc<TxnManager> {
        Arc::new(TxnManager {
            clock: AtomicU64::new(1),
            alloc: AtomicU64::new(1),
            next_txn_id: AtomicU64::new(1),
            commit_locks: commit_locks(),
            active: Mutex::new(BTreeMap::new()),
            wal,
            stats: TxnStats::default(),
            faults: Mutex::new(None),
        })
    }

    /// Like [`TxnManager::new`], but publishing lifecycle counters into the
    /// given registry instead of a private one.
    pub fn with_metrics(
        wal: Option<Arc<LogManager>>,
        registry: &MetricsRegistry,
    ) -> Arc<TxnManager> {
        Arc::new(TxnManager {
            clock: AtomicU64::new(1),
            alloc: AtomicU64::new(1),
            next_txn_id: AtomicU64::new(1),
            commit_locks: commit_locks(),
            active: Mutex::new(BTreeMap::new()),
            wal,
            stats: TxnStats::new(registry),
            faults: Mutex::new(None),
        })
    }

    /// The commit-lock stripe for one write: (table, storage shard) hashed
    /// into the stripe array. All writes to one shard of one table land on
    /// one stripe, so a shard-local transaction locks exactly one stripe.
    fn stripe_of(op: &WriteOp) -> usize {
        let (table, slot) = match op {
            WriteOp::Insert { table, slot }
            | WriteOp::Update { table, slot }
            | WriteOp::Delete { table, slot } => (table, *slot),
        };
        (table.id.0 as usize)
            .wrapping_mul(31)
            .wrapping_add(table.shard_of(slot))
            % COMMIT_LOCK_STRIPES
    }

    /// Attach (or detach) a fault injector consulted at the `txn.commit`
    /// point, inside the commit critical section: an armed delay there holds
    /// the commit's stripe locks; an armed failure aborts the commit before
    /// any version is stamped.
    pub fn set_faults(&self, faults: Option<Arc<FaultInjector>>) {
        *self.faults.lock() = faults;
    }

    /// Current committed timestamp.
    pub fn now(&self) -> Ts {
        Ts(self.clock.load(Ordering::Acquire))
    }

    /// Begin a new transaction with a snapshot at the current timestamp.
    pub fn begin(self: &Arc<Self>) -> Transaction {
        let id = self.next_txn_id.fetch_add(1, Ordering::AcqRel);
        // The clock must be read while holding the active-set lock. Read
        // first and register after, and GC can slip into the gap: a commit
        // advances the clock, `watermark()` sees no active snapshots and
        // returns the new clock, and the pruner reclaims the exact version
        // this snapshot (still unregistered, pinned below the new clock)
        // needs — rows vanish from its scans. With the lock held across
        // both steps, any watermark computed before our registration used
        // a clock value ≤ our read_ts, so nothing visible to us is
        // reclaimable.
        let read_ts = {
            let mut active = self.active.lock();
            let read_ts = self.clock.load(Ordering::Acquire);
            *active.entry(read_ts).or_insert(0) += 1;
            read_ts
        };
        self.stats.begins.inc();
        self.stats.active.inc();
        if let Some(wal) = &self.wal {
            // Deliberately ignore append failure: a poisoned WAL must not
            // prevent read-only transactions (the engine degrades to
            // read-only, not to unavailable). Any write this transaction
            // attempts will hit the same latched error and fail there.
            let _ = wal.append(&LogRecord::Begin { txn_id: id });
        }
        Transaction {
            id: Ts::txn(id),
            read_ts: Ts(read_ts),
            state: TxnState::Active,
            writes: Vec::new(),
            mgr: self.clone(),
        }
    }

    fn deregister(&self, read_ts: Ts) {
        let mut active = self.active.lock();
        if let Some(count) = active.get_mut(&read_ts.0) {
            *count -= 1;
            if *count == 0 {
                active.remove(&read_ts.0);
            }
        }
        drop(active);
        self.stats.active.dec();
    }

    fn finish_begin_commit(&self, mut txn: Transaction, log: bool) -> DbResult<Ts> {
        let faults = self.faults.lock().clone();
        // Chaos point (failure half): must trip *before* the durability
        // point below — once a Commit record is on disk the transaction
        // replays as committed, so failing after it would fabricate a
        // phantom commit. Returning Err drops `txn`, whose Drop unwinds
        // the (entirely unstamped) write set.
        if let Some(inj) = &faults {
            if let Some(msg) = inj.trip(fault::points::TXN_COMMIT) {
                return Err(DbError::Execution(msg));
            }
        }
        // Durability point: the commit record must be accepted by the WAL
        // (and, under sync_commit, be flushed to disk) *before* any version
        // is stamped visible. If logging fails, `txn` is dropped here and
        // its Drop impl aborts, unwinding every write — the commit was never
        // reported durable, and it never becomes visible.
        if log {
            if let Some(wal) = &self.wal {
                let commit = LogRecord::Commit {
                    txn_id: txn.wal_txn_id()?,
                };
                if txn.writes.is_empty() {
                    // Read-only: nothing needs to become durable, so a
                    // poisoned WAL must not fail the commit (the engine
                    // degrades to read-only, not to unavailable).
                    let _ = wal.append(&commit);
                } else {
                    let seq = wal.append_seq(&commit)?;
                    if wal.config().sync_commit {
                        if let Err(e) = wal.flush_now() {
                            // The flush call failing does not by itself
                            // mean the commit record is not on disk: a
                            // group-commit rider may have durably flushed
                            // it before a later batch poisoned the log.
                            // Reporting an abort then would fabricate a
                            // phantom — recovery replays the durable
                            // Commit while the client was told it failed.
                            // The durable watermark disambiguates: at or
                            // below it, the commit IS durable and must be
                            // acknowledged as such.
                            if wal.durable_seq() < seq {
                                return Err(e);
                            }
                        }
                    }
                }
            }
        }
        // Stamp-then-publish over the *sharded* commit locks. The clock
        // (publish frontier) must not advance past `commit_ts` until every
        // slot is stamped: a snapshot taken mid-stamping would otherwise see
        // the stamped half of the write set and miss the rest (a torn
        // commit). Sharding splits that into three steps:
        //
        //   1. Lock the write set's stripe footprint in ascending stripe
        //      order (cross-shard commits lock several stripes; ordered
        //      acquisition makes the lock graph acyclic, so no deadlock).
        //   2. Allocate a commit-timestamp *ticket* from `alloc` and stamp
        //      every slot. Tickets are only taken while holding the full
        //      footprint, so a ticket holder never waits on a lock.
        //   3. Publish in ticket order: wait until `clock == ticket - 1`
        //      (every earlier ticket fully stamped and published), then
        //      advance it to the ticket. The minimum outstanding ticket can
        //      always finish (nothing blocks stamping; its predecessor has
        //      published), so the chain always drains.
        //
        // Snapshot atomicity is preserved exactly as with the old global
        // lock: `begin` reads the frontier, and frontier ≥ ts implies every
        // commit with timestamp ≤ ts is fully stamped.
        let commit_ts = {
            let mut stripes: Vec<usize> = txn.writes.iter().map(Self::stripe_of).collect();
            stripes.sort_unstable();
            stripes.dedup();
            let _guards: Vec<_> = stripes
                .iter()
                .map(|&s| self.commit_locks[s].lock())
                .collect();
            // Chaos point (stall half): a delay armed at `txn.commit` is
            // applied here, holding this commit's stripe locks so
            // committers sharing a shard pile up behind this one. The
            // ticket is allocated *after* the stall, so commits on other
            // shards publish freely past a stalled one.
            if let Some(inj) = &faults {
                inj.stall(fault::points::TXN_COMMIT);
            }
            let commit_ts = Ts(self.alloc.fetch_add(1, Ordering::AcqRel) + 1);
            for op in &txn.writes {
                match op {
                    WriteOp::Insert { table, slot } => {
                        table.commit_slot(*slot, txn.id, commit_ts, 1)
                    }
                    WriteOp::Update { table, slot } => {
                        table.commit_slot(*slot, txn.id, commit_ts, 0)
                    }
                    WriteOp::Delete { table, slot } => {
                        table.commit_slot(*slot, txn.id, commit_ts, -1)
                    }
                }
            }
            // Ticket-ordered publish. The wait is a yield-spin: the gap is
            // at most the stamping time of the in-flight predecessors.
            let prev = commit_ts.0 - 1;
            while self.clock.load(Ordering::Acquire) != prev {
                std::thread::yield_now();
            }
            self.clock.store(commit_ts.0, Ordering::Release);
            commit_ts
        };
        self.deregister(txn.read_ts);
        self.stats.commits.inc();
        // Committed: Drop skips its abort path and frees the write set.
        txn.state = TxnState::Committed;
        Ok(commit_ts)
    }

    fn finish_abort(&self, txn: &mut Transaction) -> DbResult<()> {
        // Roll back newest-first so chains unwind cleanly.
        for op in txn.writes.iter().rev() {
            match op {
                WriteOp::Insert { table, slot }
                | WriteOp::Update { table, slot }
                | WriteOp::Delete { table, slot } => table.abort_slot(*slot, txn.id),
            }
        }
        txn.writes.clear();
        if let (Some(wal), Some(txn_id)) = (&self.wal, txn.id.txn_id()) {
            // Best effort: if the WAL is poisoned the Abort record is lost,
            // but recovery discards transactions without a Commit record
            // anyway, so the outcome is identical.
            let _ = wal.append(&LogRecord::Abort { txn_id });
        }
        self.deregister(txn.read_ts);
        self.stats.aborts.inc();
        Ok(())
    }

    /// Oldest snapshot still in use — versions older than this are
    /// reclaimable. Falls back to the current clock when idle.
    pub fn watermark(&self) -> Ts {
        let active = self.active.lock();
        match active.keys().next() {
            Some(&oldest) => Ts(oldest),
            None => self.now(),
        }
    }

    /// Number of in-flight transactions.
    pub fn active_count(&self) -> usize {
        self.active.lock().values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb2_common::{Column, DataType, Schema, Value};
    use mb2_storage::TableId;

    fn table() -> Arc<Table> {
        Arc::new(Table::new(
            TableId(1),
            "t",
            Schema::new(vec![Column::new("a", DataType::Int)]),
        ))
    }

    fn tup(v: i64) -> Tuple {
        vec![Value::Int(v)]
    }

    #[test]
    fn committed_insert_visible_to_later_txn() {
        let mgr = TxnManager::new(None);
        let t = table();
        let mut txn = mgr.begin();
        let slot = txn.insert(&t, tup(7)).unwrap();
        txn.commit().unwrap();
        let reader = mgr.begin();
        assert_eq!(reader.read(&t, slot).unwrap()[0], Value::Int(7));
    }

    /// Commit and abort drop the transaction for real: a handle skipped by
    /// `mem::forget` leaked its write-set buffer and a manager reference on
    /// every writing transaction.
    #[test]
    fn finished_transactions_release_their_resources() {
        let mgr = TxnManager::new(None);
        let t = table();
        let mut txn = mgr.begin();
        txn.insert(&t, tup(1)).unwrap();
        txn.commit().unwrap();
        let mut txn = mgr.begin();
        txn.insert(&t, tup(2)).unwrap();
        txn.abort();
        assert_eq!(Arc::strong_count(&mgr), 1);
        assert_eq!(mgr.active_count(), 0);
    }

    #[test]
    fn uncommitted_insert_invisible_to_concurrent_txn() {
        let mgr = TxnManager::new(None);
        let t = table();
        let mut writer = mgr.begin();
        let slot = writer.insert(&t, tup(7)).unwrap();
        let reader = mgr.begin();
        assert!(reader.read(&t, slot).is_none());
        writer.commit().unwrap();
        // Reader's snapshot predates the commit.
        assert!(reader.read(&t, slot).is_none());
    }

    /// Torn-commit regression: a snapshot taken while a multi-slot commit
    /// is stamping must see either all of the transaction's writes or none
    /// — never a prefix. Before the stamp-then-publish ordering, the clock
    /// advanced first, so a concurrent `begin` could observe half a
    /// transfer.
    #[test]
    fn multi_slot_commit_is_atomic_under_concurrent_snapshots() {
        use std::sync::atomic::AtomicBool;

        let mgr = TxnManager::new(None);
        let t = table();
        let mut setup = mgr.begin();
        let a = setup.insert(&t, tup(100)).unwrap();
        let b = setup.insert(&t, tup(100)).unwrap();
        setup.commit().unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let mgr = mgr.clone();
            let t = t.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    // Transfer 1 from a to b: invariant sum stays 200.
                    let mut txn = mgr.begin();
                    let va = txn.read(&t, a).unwrap()[0].clone();
                    let vb = txn.read(&t, b).unwrap()[0].clone();
                    let (Value::Int(va), Value::Int(vb)) = (va, vb) else {
                        panic!("non-int balance")
                    };
                    if txn.update(&t, a, tup(va - 1)).is_err() {
                        txn.abort();
                        continue;
                    }
                    if txn.update(&t, b, tup(vb + 1)).is_err() {
                        txn.abort();
                        continue;
                    }
                    let _ = txn.commit();
                }
            })
        };

        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(300);
        while std::time::Instant::now() < deadline {
            let reader = mgr.begin();
            let va = reader.read(&t, a).unwrap()[0].clone();
            let vb = reader.read(&t, b).unwrap()[0].clone();
            let (Value::Int(va), Value::Int(vb)) = (va, vb) else {
                panic!("non-int balance")
            };
            assert_eq!(va + vb, 200, "snapshot saw a torn commit: {va} + {vb}");
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    /// Cross-shard variant of the torn-commit regression: the two slots of
    /// the transfer live on *different storage shards* of a partitioned
    /// table, so the commit locks two stripes and stamps across shards.
    /// Snapshots must still see all of the transfer or none of it, and
    /// concurrent single-shard commits must not tear it either.
    #[test]
    fn cross_shard_commit_is_atomic_under_concurrent_snapshots() {
        use mb2_storage::SHARD_UNIT_SLOTS;
        use std::sync::atomic::AtomicBool;

        let mgr = TxnManager::new(None);
        let t = Arc::new(Table::with_shards(
            TableId(7),
            "sharded",
            Schema::new(vec![Column::new("a", DataType::Int)]),
            4,
        ));
        // Fill one full shard unit so the next insert lands on shard 1.
        let mut setup = mgr.begin();
        let a = setup.insert(&t, tup(100)).unwrap(); // global idx 0 → shard 0
        for _ in 1..SHARD_UNIT_SLOTS {
            setup.insert(&t, tup(0)).unwrap();
        }
        let b = setup.insert(&t, tup(100)).unwrap(); // global idx U → shard 1
        setup.commit().unwrap();
        assert_ne!(t.shard_of(a), t.shard_of(b), "transfer must cross shards");

        let stop = Arc::new(AtomicBool::new(false));
        // Cross-shard transfer writer: invariant a + b == 200.
        let writer = {
            let (mgr, t, stop) = (mgr.clone(), t.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let mut txn = mgr.begin();
                    let va = txn.read(&t, a).unwrap()[0].as_i64().unwrap();
                    let vb = txn.read(&t, b).unwrap()[0].as_i64().unwrap();
                    if txn.update(&t, a, tup(va - 1)).is_err() {
                        txn.abort();
                        continue;
                    }
                    if txn.update(&t, b, tup(vb + 1)).is_err() {
                        txn.abort();
                        continue;
                    }
                    let _ = txn.commit();
                }
            })
        };
        // Single-shard churn on shard 2, publishing tickets concurrently.
        let churn = {
            let (mgr, t, stop) = (mgr.clone(), t.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut setup = mgr.begin();
                for _ in 0..SHARD_UNIT_SLOTS {
                    setup.insert(&t, tup(0)).unwrap();
                }
                let c = setup.insert(&t, tup(0)).unwrap(); // shard 2
                setup.commit().unwrap();
                let mut i = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    let mut txn = mgr.begin();
                    if txn.update(&t, c, tup(i)).is_ok() {
                        let _ = txn.commit();
                    } else {
                        txn.abort();
                    }
                }
            })
        };

        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(300);
        while std::time::Instant::now() < deadline {
            let reader = mgr.begin();
            let va = reader.read(&t, a).unwrap()[0].as_i64().unwrap();
            let vb = reader.read(&t, b).unwrap()[0].as_i64().unwrap();
            assert_eq!(va + vb, 200, "snapshot saw a torn cross-shard commit");
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        churn.join().unwrap();
    }

    #[test]
    fn abort_rolls_back_all_writes() {
        let mgr = TxnManager::new(None);
        let t = table();
        let mut setup = mgr.begin();
        let slot = setup.insert(&t, tup(1)).unwrap();
        setup.commit().unwrap();

        let mut txn = mgr.begin();
        txn.update(&t, slot, tup(2)).unwrap();
        let s2 = txn.insert(&t, tup(3)).unwrap();
        txn.abort();

        let reader = mgr.begin();
        assert_eq!(reader.read(&t, slot).unwrap()[0], Value::Int(1));
        assert!(reader.read(&t, s2).is_none());
    }

    #[test]
    fn drop_aborts_implicitly() {
        let mgr = TxnManager::new(None);
        let t = table();
        let slot;
        {
            let mut txn = mgr.begin();
            slot = txn.insert(&t, tup(9)).unwrap();
            // dropped without commit
        }
        let reader = mgr.begin();
        assert!(reader.read(&t, slot).is_none());
        assert_eq!(mgr.active_count(), 1); // just the reader
    }

    #[test]
    fn write_conflict_surfaces() {
        let mgr = TxnManager::new(None);
        let t = table();
        let mut setup = mgr.begin();
        let slot = setup.insert(&t, tup(1)).unwrap();
        setup.commit().unwrap();

        let mut a = mgr.begin();
        let mut b = mgr.begin();
        a.update(&t, slot, tup(2)).unwrap();
        assert!(matches!(
            b.update(&t, slot, tup(3)),
            Err(DbError::WriteConflict { .. })
        ));
    }

    #[test]
    fn closed_txn_rejects_writes() {
        let mgr = TxnManager::new(None);
        let t = table();
        let mut txn = mgr.begin();
        txn.insert(&t, tup(1)).unwrap();
        let mgr2 = mgr.clone();
        let committed = txn.commit().unwrap();
        assert!(committed > Ts::ZERO);
        let txn2 = mgr2.begin();
        txn2.abort();
        // Using txn after abort is impossible by move semantics; verify a
        // fresh txn works.
        let mut txn3 = mgr2.begin();
        txn3.insert(&t, tup(2)).unwrap();
        txn3.commit().unwrap();
    }

    #[test]
    fn watermark_tracks_oldest_active() {
        let mgr = TxnManager::new(None);
        let t = table();
        let mut w = mgr.begin();
        w.insert(&t, tup(1)).unwrap();
        let hold = mgr.begin(); // snapshot at current clock
        let hold_ts = hold.read_ts();
        w.commit().unwrap();
        let mut w2 = mgr.begin();
        w2.insert(&t, tup(2)).unwrap();
        w2.commit().unwrap();
        assert_eq!(mgr.watermark(), hold_ts);
        drop(hold);
        assert_eq!(mgr.watermark(), mgr.now());
    }

    #[test]
    fn wal_records_emitted() {
        let wal = Arc::new(LogManager::new(mb2_wal::LogManagerConfig::default()).unwrap());
        let mgr = TxnManager::new(Some(wal.clone()));
        let t = table();
        let mut txn = mgr.begin();
        let slot = txn.insert(&t, tup(1)).unwrap();
        txn.commit().unwrap();
        let mut txn2 = mgr.begin();
        txn2.update(&t, slot, tup(2)).unwrap();
        txn2.abort();
        let (_, records, ..) = wal.stats().snapshot();
        // begin, insert, commit, begin, update, abort
        assert_eq!(records, 6);
    }

    #[test]
    fn snapshot_isolation_read_stability() {
        let mgr = TxnManager::new(None);
        let t = table();
        let mut setup = mgr.begin();
        let slot = setup.insert(&t, tup(10)).unwrap();
        setup.commit().unwrap();

        let reader = mgr.begin();
        assert_eq!(reader.read(&t, slot).unwrap()[0], Value::Int(10));
        let mut writer = mgr.begin();
        writer.update(&t, slot, tup(20)).unwrap();
        writer.commit().unwrap();
        // Reader still sees its snapshot.
        assert_eq!(reader.read(&t, slot).unwrap()[0], Value::Int(10));
        let fresh = mgr.begin();
        assert_eq!(fresh.read(&t, slot).unwrap()[0], Value::Int(20));
    }

    #[test]
    fn concurrent_transfer_preserves_sum() {
        // Bank transfer smoke test across threads with retries.
        let mgr = TxnManager::new(None);
        let t = table();
        let mut setup = mgr.begin();
        let a = setup.insert(&t, tup(500)).unwrap();
        let b = setup.insert(&t, tup(500)).unwrap();
        setup.commit().unwrap();

        let threads: Vec<_> = (0..4)
            .map(|_| {
                let mgr = mgr.clone();
                let t = t.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        loop {
                            let mut txn = mgr.begin();
                            let va = txn.read(&t, a).unwrap()[0].as_i64().unwrap();
                            let vb = txn.read(&t, b).unwrap()[0].as_i64().unwrap();
                            let moved = 1;
                            let r1 = txn.update(&t, a, tup(va - moved));
                            let r2 = r1.is_ok().then(|| txn.update(&t, b, tup(vb + moved)));
                            match r2 {
                                Some(Ok(_)) => {
                                    txn.commit().unwrap();
                                    break;
                                }
                                _ => txn.abort(),
                            }
                        }
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let reader = mgr.begin();
        let va = reader.read(&t, a).unwrap()[0].as_i64().unwrap();
        let vb = reader.read(&t, b).unwrap()[0].as_i64().unwrap();
        assert_eq!(va + vb, 1000);
        assert_eq!(va, 500 - 200);
    }
}
