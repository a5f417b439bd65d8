//! Set-up: load the dataset, train the behavior models, start the server —
//! the production path (WAL on file, background flusher, GC, compactor,
//! predictive admission), on one connection.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mb2_common::{DbError, DbResult};
use mb2_core::runners::execution::{run_execution_runners, ExecutionRunnerConfig};
use mb2_core::runners::txn::{run_txn_runner, TxnRunnerConfig};
use mb2_core::runners::RunnerConfig;
use mb2_core::training::{train_all, TrainingConfig};
use mb2_core::BehaviorModels;
use mb2_engine::exec::ExecutionMode;
use mb2_engine::{Database, DatabaseConfig, Knobs};
use mb2_ml::Algorithm;
use mb2_server::{SchedulerPolicy, Server, ServerConfig, TierPolicy};
use mb2_workloads::{execute_transaction, Workload};

use crate::gen::{self, WorkloadKind};
use crate::host::Affinity;

pub const GC_INTERVAL: Duration = Duration::from_millis(50);
pub const COMPACTION_INTERVAL: Duration = Duration::from_millis(250);

/// The knobs every workload runs under: the defaults plus the columnar
/// scan path, which the defaults leave off and half the layers need.
pub fn knobs() -> Knobs {
    Knobs {
        columnar_enabled: true,
        ..Knobs::default()
    }
}

/// Flush policy in words, for the outputs.
pub fn flush_policy(kind: WorkloadKind) -> &'static str {
    if kind == WorkloadKind::SmallbankSync {
        "foreground WAL: flush + fsync at every commit"
    } else {
        "background flusher every 10 ms, no fsync, asynchronous commit"
    }
}

/// Configuration of the served database. `smallbank_sync` flushes and
/// fsyncs at every commit (foreground WAL); the others commit
/// asynchronously behind the background flusher.
pub fn database_config(kind: WorkloadKind, wal_path: PathBuf) -> DatabaseConfig {
    let sync = kind == WorkloadKind::SmallbankSync;
    DatabaseConfig {
        wal_enabled: true,
        wal_path: Some(wal_path),
        wal_background: !sync,
        wal_fsync: sync,
        wal_sync_commit: sync,
        gc_interval: Some(GC_INTERVAL),
        compaction_interval: Some(COMPACTION_INTERVAL),
        knobs: knobs(),
        ..DatabaseConfig::default()
    }
}

/// Configuration of the databases recovery and the replay oracle build:
/// same knobs, no log, no background threads.
pub fn offline_config() -> DatabaseConfig {
    DatabaseConfig {
        wal_enabled: false,
        knobs: knobs(),
        ..DatabaseConfig::default()
    }
}

/// Load the workload's dataset (plus the SmallBank seasoning stream) and
/// seal it into columnar blocks. The state this leaves is the same on
/// every call, which is what lets a fresh database act as replay oracle.
pub fn load(kind: WorkloadKind, db: &Database) -> DbResult<()> {
    match kind {
        WorkloadKind::TatpPoint => gen::tatp().load(db)?,
        WorkloadKind::TpchScan => gen::tpch().load(db)?,
        WorkloadKind::SmallbankSync | WorkloadKind::HtapMix => {
            gen::smallbank(kind).load(db)?;
            for statements in gen::seasoning(kind) {
                execute_transaction(db, &statements)?;
            }
        }
    }
    // Sealing needs every version chain pruned below the GC watermark.
    db.gc().run_once();
    db.compact_now();
    Ok(())
}

/// Train the OU models with a small fixed seeded runner sweep: enough for
/// the scheduler to price every plan, so predict+admit is paid per
/// request as in production.
pub fn train_models() -> DbResult<BehaviorModels> {
    let measure = RunnerConfig {
        repetitions: 3,
        warmups: 1,
        ..RunnerConfig::default()
    };
    let mut repo = run_execution_runners(&ExecutionRunnerConfig {
        max_rows: 1024,
        min_rows: 256,
        modes: vec![ExecutionMode::Compiled],
        measure,
        batch_sizes: vec![mb2_engine::exec::DEFAULT_BATCH_SIZE],
        parallelism: vec![knobs().parallelism],
        columnar: vec![false, true],
        ..ExecutionRunnerConfig::default()
    })?;
    repo.merge(run_txn_runner(&TxnRunnerConfig {
        thread_counts: vec![1],
        txns_per_worker: 200,
        pacing_us: vec![0],
    })?);
    let (models, _report) = train_all(
        &repo,
        &TrainingConfig {
            candidates: vec![Algorithm::Linear],
            ..TrainingConfig::default()
        },
    )?;
    if models.is_empty() {
        return Err(DbError::Model("runner sweep trained no OU model".into()));
    }
    Ok(BehaviorModels::new(models, None))
}

/// A policy whose budgets never queue or shed a single connection:
/// predict+admit is paid on every request and decides nothing.
pub fn scheduler_policy() -> SchedulerPolicy {
    SchedulerPolicy {
        tiers: vec![TierPolicy {
            name: "bench".into(),
            slo_budget_us: 1e15,
            queue_deadline: Duration::from_secs(60),
        }],
        queue_capacity: 64,
        default_tenant_quota: 0,
        tenant_quotas: HashMap::new(),
        interference_window_us: 1_000_000.0,
    }
}

pub fn server_config() -> ServerConfig {
    ServerConfig {
        scheduler: Some(scheduler_policy()),
        ..ServerConfig::default()
    }
}

/// Where set-up time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Model sweep and training alone (`core.train_s`).
    pub train_s: f64,
    pub total_s: f64,
}

/// A loaded database behind a running server with models attached.
pub struct Served {
    pub db: Arc<Database>,
    pub server: Server,
    pub models: Arc<BehaviorModels>,
    pub wal_path: PathBuf,
    pub times: SetupTimes,
    /// The CPU the client and the connection thread share, if pinned.
    pub pinned_cpu: Option<usize>,
}

impl Served {
    pub fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    /// Drain the server, stop the engine's threads and delete the log.
    pub fn shutdown(self) {
        let Served {
            server, wal_path, ..
        } = self;
        server.shutdown();
        let _ = std::fs::remove_file(wal_path);
    }
}

/// Full set-up: database + load + compaction + model sweep and training +
/// server start. Everything `setup_s` covers.
///
/// Thread placement: the database (GC, compactor, WAL flusher, exec pool)
/// is created under the caller's full CPU mask; the calling thread is then
/// narrowed to one CPU *before* the server starts, so the acceptor and the
/// connection thread it spawns inherit that CPU. In a closed loop the
/// client and its connection thread strictly alternate, so sharing a core
/// costs no parallelism — and it takes the cross-core wake-up (5 µs or
/// 48 µs per round trip, at the scheduler's whim) out of every latency.
pub fn set_up(kind: WorkloadKind, scratch: &Path, affinity: Option<&Affinity>) -> DbResult<Served> {
    let started = Instant::now();
    if let Some(affinity) = affinity {
        affinity.restore();
    }
    let wal_path = scratch.join(format!("{}-{}.wal", kind.name(), std::process::id()));
    let _ = std::fs::remove_file(&wal_path);
    let db = Arc::new(Database::new(database_config(kind, wal_path.clone()))?);
    load(kind, &db)?;

    let train_started = Instant::now();
    let models = Arc::new(train_models()?);
    let train_s = train_started.elapsed().as_secs_f64();

    let pinned_cpu = affinity.and_then(Affinity::pin_to_one);
    let server = Server::start(db.clone(), server_config())?;
    server.attach_models(models.clone());
    Ok(Served {
        db,
        server,
        models,
        wal_path,
        pinned_cpu,
        times: SetupTimes {
            train_s,
            total_s: started.elapsed().as_secs_f64(),
        },
    })
}
