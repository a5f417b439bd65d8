//! One run of one workload: set-up, warm-up, timed window, verification,
//! recovery timing. The untraced run yields the end-to-end metrics; the
//! traced run (see `layers`) reuses the same steps.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mb2_engine::{recover, Database};
use mb2_server::Client;

use crate::check::{self, Digest};
use crate::drive::{self, WindowOutcome, SLICES};
use crate::gen::{self, Generator, Op, WorkloadKind};
use crate::host::{self, Fingerprint};
use crate::json;
use crate::setup::{self, Served};
use crate::stats::{self, LatencySummary, SAMPLE_FLOOR};

/// Set-ups per run; `setup_s` is their median. The first one is served;
/// the others run after the window (so `peak_rss_mb` sees one database)
/// and are torn down at once.
pub const SETUPS: usize = 3;
/// Recoveries of the set-up WAL snapshot per run: at least five, and more
/// (up to nine) until they add up to a second; `recovery_s` is their median.
pub const MIN_RECOVERIES: usize = 5;
pub const MAX_RECOVERIES: usize = 9;
/// A run whose calibration kernel drifted by more than this is marked
/// `disturbed` in its output.
pub const DISTURBED_DRIFT: f64 = 0.05;

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub kind: WorkloadKind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What the last output line carries.
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit) in manifest order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The run's context as one JSON object (host, knobs, per-template
    /// figures, disturbed flag), printed on the line before the result.
    pub context: String,
}

impl RunReport {
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::string(name),
                    json::number(*value),
                    json::string(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// How many of the first operations the replay oracle re-executes: as many
/// as replay in about two seconds. TATP's join template and the scans of
/// `htap_mix` make their operations dearer, hence the lower caps; the
/// read-only `tpch_scan` checks every operation against a fixed oracle.
pub fn history_cap(kind: WorkloadKind) -> usize {
    match kind {
        WorkloadKind::TatpPoint => 10_000,
        WorkloadKind::TpchScan => 0,
        WorkloadKind::SmallbankSync => 20_000,
        WorkloadKind::HtapMix => 5_000,
    }
}

/// Everything a run holds between set-up and tear-down.
pub struct Session {
    pub args: RunArgs,
    pub scratch: PathBuf,
    pub served: Served,
    /// The main thread's original CPU mask (see `setup::set_up`).
    pub affinity: Option<host::Affinity>,
    pub setup_times_s: Vec<f64>,
    pub wal_snapshot: PathBuf,
    pub wal_snapshot_bytes: u64,
    pub live_dump: Vec<(String, Digest)>,
    /// One digest per template on read-only workloads.
    pub fixed_oracle: Option<Vec<Digest>>,
}

fn err(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

/// Make every serialized log byte reach the file.
fn settle_wal(db: &Database) -> Result<(), String> {
    let wal = db.wal().ok_or("database has no WAL")?;
    if !wal.config().background {
        wal.flush_now().map_err(|e| err("flush WAL", e))?;
        return Ok(());
    }
    wal.seal_current();
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = wal.stats();
    while stats.bytes_flushed.get() < stats.bytes_serialized.get() {
        if Instant::now() > deadline {
            return Err(format!(
                "WAL flusher wrote {} of {} serialized bytes (buffers dropped at a full queue?)",
                stats.bytes_flushed.get(),
                stats.bytes_serialized.get()
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

impl Session {
    /// Set up, then snapshot the WAL and the table dump the set-up left.
    pub fn open(args: RunArgs) -> Result<Session, String> {
        let scratch = host::scratch_dir().map_err(|e| err("scratch dir", e))?;
        let affinity = host::Affinity::current();
        let served =
            setup::set_up(args.kind, &scratch, affinity.as_ref()).map_err(|e| err("set-up", e))?;
        let setup_times_s = vec![served.times.total_s];

        settle_wal(&served.db)?;
        let wal_snapshot =
            scratch.join(format!("{}-{}.snap", args.kind.name(), std::process::id()));
        let wal_snapshot_bytes =
            std::fs::copy(&served.wal_path, &wal_snapshot).map_err(|e| err("copy WAL", e))?;
        let live_dump = check::dump_digest(&served.db).map_err(|e| err("dump", e))?;

        let fixed_oracle = if args.kind == WorkloadKind::TpchScan {
            let queries = gen::tpch().fixed_queries();
            let mut digests = Vec::with_capacity(queries.len());
            for (template, (_, sql)) in queries.into_iter().enumerate() {
                let op = Op {
                    template,
                    statements: vec![sql],
                };
                digests
                    .push(check::execute_op(&served.db, &op).map_err(|e| err("oracle query", e))?);
            }
            Some(digests)
        } else {
            None
        };
        Ok(Session {
            args,
            scratch,
            served,
            affinity,
            setup_times_s,
            wal_snapshot,
            wal_snapshot_bytes,
            live_dump,
            fixed_oracle,
        })
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.served.addr()).map_err(|e| err("connect", e))
    }

    /// Warm-up plus the timed window on a fresh connection.
    pub fn drive(
        &self,
        client: &mut Client,
        slices: usize,
        tracer: Option<&mut crate::trace::Tracer>,
        traced: &dyn Fn(usize) -> bool,
        on_slice: drive::SliceHook<'_>,
    ) -> WindowOutcome {
        let mut gen = Generator::new(self.args.kind, self.args.seed);
        drive::drive(
            client,
            &mut gen,
            self.args.kind.templates().len(),
            self.args.seconds,
            slices,
            history_cap(self.args.kind),
            self.fixed_oracle.as_deref(),
            tracer,
            traced,
            on_slice,
        )
    }

    /// The served tables right after the window — but only when the
    /// recorded history holds every operation sent, so that the replay
    /// oracle must end in the same state.
    pub fn final_dump(
        &self,
        outcome: &WindowOutcome,
    ) -> Result<Option<Vec<(String, Digest)>>, String> {
        if outcome.history.is_empty() || outcome.history.len() as u64 != outcome.generated_ops {
            return Ok(None);
        }
        check::dump_digest(&self.served.db)
            .map(Some)
            .map_err(|e| err("final dump", e))
    }

    /// Stop the server and engine; set up `extra_setups` more times for
    /// `setup_s`; time recovery of the set-up WAL snapshot; replay the
    /// recorded history on a fresh database.
    pub fn close(
        self,
        outcome: &WindowOutcome,
        final_dump: Option<Vec<(String, Digest)>>,
        extra_setups: usize,
    ) -> Result<Verification, String> {
        let Session {
            args,
            scratch,
            served,
            affinity,
            mut setup_times_s,
            wal_snapshot,
            live_dump,
            ..
        } = self;
        served.shutdown();
        for _ in 0..extra_setups {
            let s = setup::set_up(args.kind, &scratch, affinity.as_ref())
                .map_err(|e| err("set-up", e))?;
            setup_times_s.push(s.times.total_s);
            s.shutdown();
        }
        // Recovery and the oracle run under the full CPU mask again.
        if let Some(affinity) = &affinity {
            affinity.restore();
        }

        let probe = recovery_probe(&wal_snapshot)?;
        let recovery_dump_ok = probe.dump == live_dump;
        let (recovery_s, records_read) = (probe.recovery_s, probe.records_read);
        let _ = std::fs::remove_file(&wal_snapshot);

        let mut replay_mismatches = 0;
        let mut final_dump_ok = None;
        if !outcome.history.is_empty() {
            let oracle = Database::new(setup::offline_config()).map_err(|e| err("oracle db", e))?;
            setup::load(args.kind, &oracle).map_err(|e| err("oracle load", e))?;
            replay_mismatches =
                check::count_mismatches(&oracle, &outcome.history, &outcome.observed);
            if let Some(served_dump) = final_dump {
                final_dump_ok = Some(
                    check::dump_digest(&oracle).map_err(|e| err("oracle dump", e))? == served_dump,
                );
            }
            oracle.shutdown();
        }
        Ok(Verification {
            setup_times_s,
            recovery_s,
            records_read,
            recovery_dump_ok,
            replayed: outcome.history.len(),
            replay_mismatches: replay_mismatches as u64,
            final_dump_ok,
        })
    }
}

pub struct Verification {
    /// Every set-up of the run, the served one first.
    pub setup_times_s: Vec<f64>,
    pub recovery_s: Vec<f64>,
    pub records_read: usize,
    pub recovery_dump_ok: bool,
    pub replayed: usize,
    pub replay_mismatches: u64,
    /// Oracle tables equal the served ones; `None` when the history was
    /// capped before the last operation, so the two states differ by design.
    pub final_dump_ok: Option<bool>,
}

impl Verification {
    pub fn dumps_ok(&self) -> bool {
        self.recovery_dump_ok && self.final_dump_ok != Some(false)
    }
}

/// What the recovery probe measured.
pub struct RecoveryProbe {
    pub recovery_s: Vec<f64>,
    pub records_read: usize,
    /// Table dump of the first recovered database.
    pub dump: Vec<(String, Digest)>,
}

/// Recover `wal` repeatedly and time each recovery: at
/// least [`MIN_RECOVERIES`] times, and up to [`MAX_RECOVERIES`] until they
/// add up to a second.
fn recovery_probe(wal: &Path) -> Result<RecoveryProbe, String> {
    let mut probe = RecoveryProbe {
        recovery_s: Vec::with_capacity(MAX_RECOVERIES),
        records_read: 0,
        dump: Vec::new(),
    };
    for i in 0..MAX_RECOVERIES {
        if i >= MIN_RECOVERIES && probe.recovery_s.iter().sum::<f64>() >= 1.0 {
            break;
        }
        let started = Instant::now();
        let (db, report) = recover(wal, setup::offline_config()).map_err(|e| err("recover", e))?;
        probe.recovery_s.push(started.elapsed().as_secs_f64());
        probe.records_read = report.records_read;
        if i == 0 {
            probe.dump = check::dump_digest(&db).map_err(|e| err("recovered dump", e))?;
        }
        db.shutdown();
    }
    Ok(probe)
}

/// Dataset in words, for the outputs.
pub fn dataset(kind: WorkloadKind) -> String {
    match kind {
        WorkloadKind::TatpPoint => format!("tatp subscribers={}", gen::TATP_SUBSCRIBERS),
        WorkloadKind::TpchScan => format!(
            "tpch scale={} lineitem={}",
            gen::TPCH_SCALE,
            gen::tpch().lineitem_rows()
        ),
        WorkloadKind::SmallbankSync => format!(
            "smallbank accounts={} seasoning_txns={}",
            gen::SMALLBANK_ACCOUNTS,
            gen::SEASONING_TXNS
        ),
        WorkloadKind::HtapMix => format!(
            "smallbank accounts={} hot_accounts={} seasoning_txns={}",
            gen::HTAP_ACCOUNTS,
            gen::HTAP_ACCOUNTS / 5,
            gen::SEASONING_TXNS
        ),
    }
}

/// The context object every output carries.
pub fn context_json(
    args: &RunArgs,
    scratch: &Path,
    pinned_cpu: Option<usize>,
    calib_ms: (f64, f64),
    latency: Option<&LatencySummary>,
    extra: &[(&str, String)],
) -> String {
    let drift = calib_drift(calib_ms);
    let knobs = setup::knobs();
    let mut fields = vec![
        format!("\"workload\": {}", json::string(args.kind.name())),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", json::number(args.seconds)),
        format!(
            "\"mode\": {}",
            json::string(if args.trace { "trace" } else { "run" })
        ),
        format!("\"host\": {}", Fingerprint::collect(scratch).json()),
        format!("\"dataset\": {}", json::string(&dataset(args.kind))),
        format!("\"htap_writes_per_cycle\": {}", gen::HTAP_WRITES_PER_CYCLE),
        format!(
            "\"knobs\": {}",
            json::string(&format!(
                "parallelism={} shard_count={} batch_size={} columnar_enabled={} gc_interval_ms={} \
                 compaction_interval_ms={} connections=1 scheduler=predictive",
                knobs.parallelism,
                knobs.shard_count,
                knobs.batch_size,
                knobs.columnar_enabled,
                setup::GC_INTERVAL.as_millis(),
                setup::COMPACTION_INTERVAL.as_millis()
            ))
        ),
        format!(
            "\"flush_policy\": {}",
            json::string(setup::flush_policy(args.kind))
        ),
        format!(
            "\"placement\": {}",
            json::string(&match pinned_cpu {
                Some(cpu) =>
                    format!("client and connection thread share cpu {cpu}; engine threads float"),
                None => "all threads float".to_string(),
            })
        ),
        format!(
            "\"calib_ms\": [{}, {}]",
            json::number(calib_ms.0),
            json::number(calib_ms.1)
        ),
        format!("\"calib_drift_share\": {}", json::number(drift)),
        format!("\"disturbed\": {}", drift > DISTURBED_DRIFT),
    ];
    if let Some(latency) = latency {
        let templates: Vec<String> = latency
            .templates
            .iter()
            .map(|t| {
                format!(
                    "{}: {{\"samples\": {}, \"p50_us\": {}, \"p95_us\": {}}}",
                    json::string(t.name),
                    t.samples,
                    json::number(t.p50_us),
                    json::number(t.p95_us)
                )
            })
            .collect();
        fields.push(format!("\"templates\": {{{}}}", templates.join(", ")));
    }
    for (key, value) in extra {
        fields.push(format!("{}: {value}", json::string(key)));
    }
    format!("{{{}}}", fields.join(", "))
}

/// How far the calibration kernel moved between the start and the end of
/// the window, as a share of the faster reading.
pub fn calib_drift(calib_ms: (f64, f64)) -> f64 {
    let lo = calib_ms.0.min(calib_ms.1);
    if lo <= 0.0 {
        return 0.0;
    }
    (calib_ms.0 - calib_ms.1).abs() / lo
}

pub fn summarize(kind: WorkloadKind, outcome: &WindowOutcome) -> Result<LatencySummary, String> {
    let per_template: Vec<(&'static str, Vec<f64>)> = kind
        .templates()
        .into_iter()
        .zip(outcome.latencies_us.iter().cloned())
        .collect();
    stats::summarize_latencies(&per_template, SAMPLE_FLOOR)
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| json::number(*v)).collect();
    format!("[{}]", items.join(", "))
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced(args: RunArgs) -> Result<RunReport, String> {
    let started = Instant::now();
    let session = Session::open(args)?;
    let opened_s = started.elapsed().as_secs_f64();
    let scratch = session.scratch.clone();
    let pinned_cpu = session.served.pinned_cpu;
    let wal_snapshot_bytes = session.wal_snapshot_bytes;

    let mut client = session.connect()?;
    let calib_before = host::calibrate_ms();
    let outcome = session.drive(&mut client, SLICES, None, &|_| false, &mut |_| {});
    let calib_after = host::calibrate_ms();
    let peak_rss_mb = host::peak_rss_mib();
    drop(client);

    let final_dump = session.final_dump(&outcome)?;
    let driven_s = started.elapsed().as_secs_f64();
    let verification = session.close(&outcome, final_dump, SETUPS - 1)?;
    let closed_s = started.elapsed().as_secs_f64();
    let latency = summarize(args.kind, &outcome)?;
    let slice_s = args.seconds / SLICES as f64;
    let ops_per_s = stats::median_slice_rate(&outcome.completions_s, SLICES, slice_s);

    let failed = outcome.wire_failures + outcome.fixed_mismatches + verification.replay_mismatches;
    let ok_share = (outcome.attempted - failed.min(outcome.attempted)) as f64
        / outcome.attempted.max(1) as f64;
    let correct = failed == 0 && verification.dumps_ok();

    let values = [
        stats::median(&verification.setup_times_s),
        ops_per_s,
        latency.p50_us,
        latency.p95_us,
        ok_share,
        peak_rss_mb,
        stats::median(&verification.recovery_s),
    ];
    let metrics = crate::manifest::END_TO_END
        .iter()
        .zip(values)
        .map(|(def, value)| (def.name.to_string(), value, def.unit))
        .collect();
    let context = context_json(
        &args,
        &scratch,
        pinned_cpu,
        (calib_before, calib_after),
        Some(&latency),
        &[
            (
                "slice_ops_per_s",
                json_list(&stats::slice_rates(&outcome.completions_s, SLICES, slice_s)),
            ),
            ("setup_times_s", json_list(&verification.setup_times_s)),
            ("recovery_times_s", json_list(&verification.recovery_s)),
            ("recovery_records", verification.records_read.to_string()),
            ("wal_snapshot_bytes", wal_snapshot_bytes.to_string()),
            (
                "recovery_dump_ok",
                verification.recovery_dump_ok.to_string(),
            ),
            (
                "final_dump_ok",
                verification
                    .final_dump_ok
                    .map_or("null".to_string(), |ok| ok.to_string()),
            ),
            ("replayed_ops", verification.replayed.to_string()),
            (
                "replay_mismatches",
                verification.replay_mismatches.to_string(),
            ),
            ("wire_failures", outcome.wire_failures.to_string()),
            ("window_wall_s", json::number(outcome.wall.as_secs_f64())),
            (
                "phase_s",
                format!(
                    "{{\"set_up\": {}, \"drive\": {}, \"more_set_ups_recover_and_replay\": {}}}",
                    json::number(opened_s),
                    json::number(driven_s - opened_s),
                    json::number(closed_s - driven_s)
                ),
            ),
            (
                "client_gen_ns_per_op",
                json::number(
                    outcome.generation.as_nanos() as f64 / outcome.generated_ops.max(1) as f64,
                ),
            ),
        ],
    );
    Ok(RunReport {
        correct,
        attempted: outcome.attempted,
        failed,
        metrics,
        context,
    })
}
