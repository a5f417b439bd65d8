//! Shared model-building pipeline for the experiments: run all runners,
//! train all OU-models, optionally train the interference model.
//!
//! [`collect`], [`train`] and [`evaluate`] are the same pipeline as
//! separate offline stages with on-disk artifacts, the way a deployment
//! would run it (paper §3: data generation and training happen offline;
//! the DBMS then ships with the trained models). `mb2-bench pipeline`
//! exposes them.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mb2_common::{DbError, DbResult, OuKind};
use mb2_core::runners::concurrent::{run_concurrent_window, ConcurrentRunConfig};
use mb2_core::runners::execution::{run_execution_runners, ExecutionRunnerConfig};
use mb2_core::runners::txn::{run_txn_runner, TxnRunnerConfig};
use mb2_core::runners::util::{run_util_runners, UtilRunnerConfig};
use mb2_core::runners::RunnerConfig;
use mb2_core::training::{train_all, OuModelSet, TrainingConfig, TrainingReport};
use mb2_core::{BehaviorModels, InterferenceModel, QueryTemplate, TrainingRepo};
use mb2_engine::Database;
use mb2_ml::Algorithm;
use mb2_workloads::tpch::Tpch;
use mb2_workloads::Workload;

use crate::Scale;

/// All runner + training configuration for one pipeline run.
#[derive(Clone)]
pub struct PipelineConfig {
    pub exec: ExecutionRunnerConfig,
    pub util: UtilRunnerConfig,
    pub txn: TxnRunnerConfig,
    pub training: TrainingConfig,
}

impl PipelineConfig {
    /// Scale-appropriate defaults. `standard` sweeps to 16k-row tables with
    /// the full 10-repetition/5-warm-up measurement protocol; `quick` is a
    /// smoke-test size.
    pub fn for_scale(scale: Scale) -> PipelineConfig {
        match scale {
            Scale::Standard => PipelineConfig {
                exec: ExecutionRunnerConfig {
                    max_rows: 32_768,
                    min_rows: 64,
                    measure: RunnerConfig {
                        repetitions: 7,
                        warmups: 3,
                        ..RunnerConfig::default()
                    },
                    ..ExecutionRunnerConfig::default()
                },
                util: UtilRunnerConfig {
                    max_batch: 2048,
                    max_index_rows: 32_768,
                    measure: RunnerConfig {
                        repetitions: 3,
                        warmups: 1,
                        ..RunnerConfig::default()
                    },
                    ..UtilRunnerConfig::default()
                },
                txn: TxnRunnerConfig::default(),
                training: TrainingConfig {
                    candidates: vec![
                        Algorithm::Linear,
                        Algorithm::Huber,
                        Algorithm::RandomForest,
                        Algorithm::GradientBoosting,
                    ],
                    ..TrainingConfig::default()
                },
            },
            Scale::Quick => PipelineConfig {
                exec: ExecutionRunnerConfig {
                    max_rows: 1024,
                    min_rows: 64,
                    measure: RunnerConfig {
                        repetitions: 3,
                        warmups: 1,
                        ..RunnerConfig::default()
                    },
                    ..ExecutionRunnerConfig::default()
                },
                util: UtilRunnerConfig {
                    max_batch: 256,
                    max_index_rows: 2048,
                    build_threads: vec![1, 2, 4],
                    measure: RunnerConfig {
                        repetitions: 2,
                        warmups: 0,
                        ..RunnerConfig::default()
                    },
                    ..UtilRunnerConfig::default()
                },
                txn: TxnRunnerConfig::smoke(),
                training: TrainingConfig {
                    candidates: vec![Algorithm::Linear, Algorithm::RandomForest],
                    ..TrainingConfig::default()
                },
            },
        }
    }
}

/// A fully built model set plus its provenance.
pub struct BuiltModels {
    pub repo: TrainingRepo,
    pub models: OuModelSet,
    pub report: TrainingReport,
    pub runner_time: Duration,
}

/// Run every runner family into one training repository.
fn run_runners(cfg: &PipelineConfig) -> DbResult<TrainingRepo> {
    let mut repo = run_execution_runners(&cfg.exec)?;
    repo.merge(run_util_runners(&cfg.util)?);
    repo.merge(run_txn_runner(&cfg.txn)?);
    Ok(repo)
}

/// Run every runner family and train OU-models.
pub fn build_ou_models(cfg: &PipelineConfig) -> DbResult<BuiltModels> {
    let started = Instant::now();
    let repo = run_runners(cfg)?;
    let runner_time = started.elapsed();
    let (models, report) = train_all(&repo, &cfg.training)?;
    Ok(BuiltModels {
        repo,
        models,
        report,
        runner_time,
    })
}

/// Train the interference model from concurrent windows over the given
/// templates (paper §6.3's grid: thread counts × arrival rates), consuming
/// the already-trained OU-models. Returns the model plus how long the
/// concurrent runners took and the number of training rows.
pub fn build_interference_model(
    db: &Arc<Database>,
    templates: &[QueryTemplate],
    models: &OuModelSet,
    thread_counts: &[usize],
    window: Duration,
    seed: u64,
) -> DbResult<(InterferenceModel, Duration, usize)> {
    let started = Instant::now();
    let mut data = mb2_ml::Dataset::default();
    for (i, &threads) in thread_counts.iter().enumerate() {
        for (j, rate) in [None, Some(20.0)].into_iter().enumerate() {
            let outcome = run_concurrent_window(
                db,
                templates,
                models,
                &ConcurrentRunConfig {
                    threads,
                    duration: window,
                    rate_per_thread: rate,
                    seed: seed + (i * 10 + j) as u64,
                },
            )?;
            data.extend(outcome.interference_rows);
        }
    }
    let rows = data.len();
    let model = InterferenceModel::train(&data, seed)?;
    Ok((model, started.elapsed(), rows))
}

/// Measure a plan's actual latency with warm-up + trimmed mean.
pub fn measure_latency_us(db: &Database, plan: &mb2_engine::sql::PlanNode, reps: usize) -> f64 {
    let _ = db.execute_plan(plan, None);
    let mut lat = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        let _ = db.execute_plan(plan, None);
        lat.push(started.elapsed().as_nanos() as f64 / 1000.0);
    }
    mb2_common::stats::trimmed_mean(&lat, 0.2)
}

/// Offline stage 1: run the OU-runners and save one CSV per OU in `dir`.
pub fn collect(scale: Scale, dir: &Path) -> DbResult<()> {
    std::fs::create_dir_all(dir)
        .map_err(|e| DbError::Storage(format!("create {}: {e}", dir.display())))?;
    eprintln!("running OU-runners ({scale:?})...");
    let repo = run_runners(&PipelineConfig::for_scale(scale))?;
    for ou in repo.ous() {
        let path = dir.join(format!("{ou}.csv"));
        repo.save_ou(ou, &path)?;
        eprintln!("  {ou}: {} samples -> {}", repo.count(ou), path.display());
    }
    eprintln!(
        "total: {} samples, {} KiB",
        repo.total_samples(),
        repo.data_size_bytes() / 1024
    );
    Ok(())
}

/// Offline stage 2: train OU-models from `collect`'s CSVs and save them.
pub fn train(scale: Scale, data_dir: &Path, model_dir: &Path) -> DbResult<()> {
    let mut repo = TrainingRepo::new();
    for ou in OuKind::ALL {
        let path = data_dir.join(format!("{ou}.csv"));
        if path.exists() {
            let n = repo.load_ou(ou, &path)?;
            eprintln!("loaded {n} samples for {ou}");
        }
    }
    let cfg = PipelineConfig::for_scale(scale);
    let (models, report) = train_all(&repo, &cfg.training)?;
    models.save_dir(model_dir)?;
    eprintln!(
        "trained {} OU-models in {:.1?} ({} KiB on disk); saved to {}",
        models.len(),
        report.total_training_time,
        models.total_size_bytes() / 1024,
        model_dir.display()
    );
    for (ou, alg, err, _) in &report.per_ou {
        eprintln!("  {ou:<18} {:<18} validation rel-err {err:.3}", alg.name());
    }
    Ok(())
}

/// Offline stage 3: price the fixed TPC-H queries with saved models and
/// compare against their measured latency on a live database.
pub fn evaluate(scale: Scale, model_dir: &Path) -> DbResult<()> {
    let models = OuModelSet::load_dir(model_dir)?;
    eprintln!(
        "loaded {} OU-models from {}",
        models.len(),
        model_dir.display()
    );
    let behavior = BehaviorModels::new(models, None);
    let tpch = Tpch::with_scale(scale.pick(0.05, 0.5));
    let db = Database::open();
    eprintln!("loading TPC-H ({} lineitem rows)...", tpch.lineitem_rows());
    tpch.load(&db)?;
    println!(
        "{:<8} {:>14} {:>14} {:>9}",
        "query", "predicted (us)", "actual (us)", "rel-err"
    );
    for (name, sql) in tpch.fixed_queries() {
        let plan = db.prepare(&sql)?;
        let predicted = behavior.predict_query_elapsed_us(&plan, &db.knobs());
        let actual = measure_latency_us(&db, &plan, scale.pick(3, 5)).max(1.0);
        println!(
            "{name:<8} {predicted:>14.0} {actual:>14.0} {:>9.3}",
            (actual - predicted).abs() / actual
        );
    }
    Ok(())
}
