//! Autopilot control loop under a shifting workload.
//!
//! Trains real OU-models through the standard pipeline, then points the
//! `mb2-pilot` control loop at a live database while the workload shifts
//! from TATP point lookups to scan-heavy queries over an unindexed
//! column. Gates:
//!
//! 1. the pilot chooses (and applies) an index build for the scan-heavy
//!    phase, and its predicted build cost lands within 2x of the
//!    observed build duration;
//! 2. when the verify window is sabotaged (every commit stalls via fault
//!    injection), the pilot reverts the action it just deployed.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use mb2_common::fault::{self, FaultInjector};
use mb2_core::BehaviorModels;
use mb2_engine::{Database, DatabaseConfig, StatementTap};
use mb2_pilot::{Pilot, PilotConfig, TickOutcome};
use mb2_workloads::tatp::Tatp;
use mb2_workloads::Workload;

use crate::pipeline::{build_ou_models, PipelineConfig};
use crate::report::{fmt, Table};
use crate::Scale;

/// Predicted index-build cost must land within this factor of observed.
const BUILD_COST_FACTOR: f64 = 2.0;
/// Ticks the loop may take to converge on the index build.
const MAX_TICKS: usize = 12;

fn pilot_config() -> PilotConfig {
    PilotConfig {
        forecast_window: Duration::from_secs(2),
        forecast_buckets: 4,
        min_arrivals: 20,
        min_gain: 0.05,
        cooldown: Duration::ZERO,
        verify_window: Duration::ZERO,
        index_build_threads: 2,
        seed: 7,
        ..PilotConfig::fast()
    }
}

fn pilot_indexes(db: &Database, table: &str) -> Vec<String> {
    db.catalog()
        .get(table)
        .map(|t| {
            t.indexes()
                .iter()
                .filter(|i| i.name.starts_with("pilot_"))
                .map(|i| i.name.clone())
                .collect()
        })
        .unwrap_or_default()
}

/// TATP point-lookup phase: indexed `s_id = ?` traffic the pilot has no
/// index to offer for.
fn drive_tatp(db: &Database, n: usize, subscribers: usize) {
    for i in 0..n {
        let s = (i * 31) % subscribers;
        db.execute(&format!(
            "SELECT s_id, vlr_location FROM tatp_subscriber WHERE s_id = {s}"
        ))
        .unwrap();
    }
}

/// Scan-heavy phase: equality filter on the unindexed `vlr_location`
/// column, so every query seq-scans until the pilot builds an index.
fn drive_scans(db: &Database, n: usize, subscribers: usize) {
    for i in 0..n {
        let v = ((i * 31) % subscribers) * 31 % 65536;
        db.execute(&format!(
            "SELECT s_id FROM tatp_subscriber WHERE vlr_location = {v}"
        ))
        .unwrap();
    }
}

/// Tick until the pilot applies an index build (driving scan traffic
/// between ticks); returns (ticks used, predicted us, observed us) or
/// None when the loop never converged.
fn tick_until_build(
    pilot: &Pilot,
    db: &Database,
    subscribers: usize,
    log: &mut Table,
) -> Option<(usize, f64, f64)> {
    for tick in 0..MAX_TICKS {
        drive_scans(db, 20, subscribers);
        let outcome = pilot.run_once();
        log.row(&["scan-heavy".into(), format!("{outcome:?}")]);
        if outcome == TickOutcome::Applied("build_index") {
            // The apply tick publishes both gauges; capture before a later
            // action overwrites them.
            return Some((
                tick + 1,
                pilot.metrics().predicted_action_duration_us.get(),
                pilot.metrics().observed_action_duration_us.get(),
            ));
        }
    }
    None
}

pub fn run(scale: Scale) -> String {
    let mut out = String::new();
    out.push_str("# Autopilot — control loop under a shifting workload\n\n");

    // Real models from the standard runner/training pipeline. The whole
    // point of decomposed OU-models is that they transfer: nothing below
    // retrains on the TATP database.
    let cfg = PipelineConfig::for_scale(scale);
    let built = build_ou_models(&cfg).expect("pipeline");
    let models = Arc::new(BehaviorModels::new(built.models, None));
    // Large enough that the index build dwarfs fixed statement overhead
    // (the cost gate compares build predictions), but still inside the
    // training pipeline's index-row sweep so the models interpolate.
    let subscribers = scale.pick(2000, 8000);
    let tatp = Tatp { subscribers };

    // --- Scenario 1: workload shift -> index build, predicted vs observed.
    let db = Arc::new(Database::open());
    tatp.load(&db).expect("tatp load");
    let pilot = Pilot::new(db.clone(), models.clone(), pilot_config());
    db.set_statement_tap(Some(pilot.forecaster().clone() as Arc<dyn StatementTap>));

    let mut log = Table::new("control-loop ticks", &["phase", "outcome"]);

    // Phase 1: TATP point lookups; `s_id` is indexed, so no build candidate
    // exists and any applied action is a knob flip at most.
    drive_tatp(&db, 60, subscribers);
    for _ in 0..2 {
        let outcome = pilot.run_once();
        log.row(&["tatp".into(), format!("{outcome:?}")]);
    }
    let built_during_tatp = !pilot_indexes(&db, "tatp_subscriber").is_empty();

    // Phase 2: let the TATP templates age out of the sliding window, then
    // shift to scan-heavy traffic until the pilot deploys the index.
    std::thread::sleep(Duration::from_millis(2200));
    let converged = tick_until_build(&pilot, &db, subscribers, &mut log);
    let (build_ticks, predicted_us, observed_us) = converged.unwrap_or((0, 0.0, 0.0));
    // Verify tick: the new index serves the same traffic faster.
    drive_scans(&db, 20, subscribers);
    let verify = pilot.run_once();
    log.row(&["scan-heavy".into(), format!("{verify:?}")]);
    let indexes = pilot_indexes(&db, "tatp_subscriber");
    let builds_applied = pilot.metrics().applied("build_index").get();
    db.set_statement_tap(None);

    // --- Scenario 2: sabotaged verify window -> revert.
    let faults = Arc::new(FaultInjector::new(23));
    let db2 = Arc::new(
        Database::new(DatabaseConfig {
            faults: Some(faults.clone()),
            ..DatabaseConfig::default()
        })
        .expect("faulty database"),
    );
    tatp.load(&db2).expect("tatp load");
    let pilot2 = Pilot::new(db2.clone(), models, pilot_config());
    db2.set_statement_tap(Some(pilot2.forecaster().clone() as Arc<dyn StatementTap>));
    // Priming tick: establishes the baseline snapshot the verify step
    // measures regression against (too little traffic to plan yet).
    drive_scans(&db2, 5, subscribers);
    let outcome = pilot2.run_once();
    log.row(&["revert: priming".into(), format!("{outcome:?}")]);
    let mut reverted = false;
    if tick_until_build(&pilot2, &db2, subscribers, &mut log).is_some() {
        // Every commit now stalls: observed latency regresses far past
        // baseline and the verify step must roll the build back.
        faults.arm_delay(fault::points::TXN_COMMIT, Duration::from_millis(40));
        for i in 0..8 {
            db2.execute(&format!(
                "INSERT INTO tatp_subscriber VALUES ({}, '{:015}', 0, 0, 0, 0)",
                subscribers + i,
                subscribers + i
            ))
            .unwrap();
        }
        faults.disarm(fault::points::TXN_COMMIT);
        let outcome = pilot2.run_once();
        log.row(&["sabotaged verify".into(), format!("{outcome:?}")]);
        reverted = outcome == TickOutcome::Verified { reverted: true };
    }
    let revert_count = pilot2.metrics().reverted.get();
    let indexes_after_revert = pilot_indexes(&db2, "tatp_subscriber");
    db2.set_statement_tap(None);

    out.push_str(&log.render());
    let mut facts = Table::new("index-build prediction vs reality", &["quantity", "value"]);
    facts.row(&["ticks to build".into(), build_ticks.to_string()]);
    facts.row(&["predicted build (us)".into(), fmt(predicted_us)]);
    facts.row(&["observed build (us)".into(), fmt(observed_us)]);
    let ratio = if observed_us > 0.0 {
        predicted_us / observed_us
    } else {
        0.0
    };
    facts.row(&["predicted/observed".into(), format!("{ratio:.2}")]);
    out.push('\n');
    out.push_str(&facts.render());

    let g_build = converged.is_some()
        && !built_during_tatp
        && builds_applied >= 1
        && indexes == ["pilot_tatp_subscriber_vlr_location"];
    let g_cost = (1.0 / BUILD_COST_FACTOR..=BUILD_COST_FACTOR).contains(&ratio);
    let g_accept = verify == (TickOutcome::Verified { reverted: false });
    let g_revert = reverted && revert_count >= 1 && indexes_after_revert.is_empty();
    let pass = g_build && g_cost && g_accept && g_revert;
    let _ = writeln!(
        out,
        "\ngates: shift triggers exactly the vlr_location build: {g_build}; \
         predicted build cost within {BUILD_COST_FACTOR}x of observed: {g_cost} ({ratio:.2}); \
         verify accepts the build under real traffic: {g_accept}; \
         sabotaged verify reverts it: {g_revert} — {}",
        if pass { "PASS" } else { "FAIL" }
    );

    assert!(pass, "pilot_loop acceptance gates failed:\n{out}");
    out
}
