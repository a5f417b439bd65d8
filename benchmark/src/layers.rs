//! The traced run: the window again with the harness's spans on, then a
//! replay of a deterministic sample of the same statements through each
//! layer's public entry point on the same loaded engine. Layers are
//! measured from outside; nothing inside the program is instrumented.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::Instant;

use mb2_common::{Metrics, OuKind, Prng, Value};
use mb2_engine::exec::{OuRecorder, WorkCounts};
use mb2_engine::obs::registry::MetricHandle;
use mb2_engine::sql::{parse, Planner};
use mb2_engine::Database;
use mb2_server::sched::{ConnSchedCtx, Decision, Scheduler};
use mb2_server::wire::{self, Frame};
use mb2_server::Client;

use crate::drive::{self, WindowOutcome};
use crate::gen::{self, Generator, Op, WorkloadKind};
use crate::host;
use crate::manifest::{self, EXEC_OUS};
use crate::run::{self, RunArgs, RunReport, Session};
use crate::setup;
use crate::stats;
use crate::trace::{self, Tracer, NO_PARENT};

/// Window slices of the traced run. Spans are on in slices 1 2, 5 6, 9
/// (off on on off ...), so both kinds sit equally early in the window and a
/// drift across it cancels; the tracing overhead is measured inside one run.
const TRACE_SLICES: usize = 10;
/// GC and compaction passes are timed once per this many replayed
/// operations, so each pass has work to find.
const BACKGROUND_EVERY: usize = 100;
const RTT_PROBES: usize = 200;
const INDEX_PROBES: usize = 20_000;
const TWO_CONN_SECONDS: f64 = 1.0;

fn spans_on(slice: usize) -> bool {
    matches!(slice % 4, 1 | 2)
}

/// Sum of every counter family in the database's registry.
fn read_counters(db: &Database) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for m in db.metrics().snapshot() {
        if let MetricHandle::Counter(c) = &m.handle {
            *out.entry(m.family.clone()).or_insert(0.0) += c.get() as f64;
        }
    }
    out
}

struct Deltas {
    before: BTreeMap<String, f64>,
    after: BTreeMap<String, f64>,
}

impl Deltas {
    fn of(&self, family: &str) -> f64 {
        self.after.get(family).copied().unwrap_or(0.0)
            - self.before.get(family).copied().unwrap_or(0.0)
    }

    /// `a / b`, 0 when `b` did not move.
    fn ratio(&self, a: &str, b: &str) -> f64 {
        let d = self.of(b);
        if d > 0.0 {
            self.of(a) / d
        } else {
            0.0
        }
    }
}

/// Collects per-OU elapsed time and scanned tuples from `execute_plan_in`.
#[derive(Default)]
struct OuSink {
    inner: Mutex<HashMap<OuKind, (f64, u64)>>,
}

impl OuRecorder for OuSink {
    fn record(&self, _node: u32, ou: OuKind, metrics: Metrics) {
        let mut inner = self.inner.lock().expect("ou sink poisoned");
        inner.entry(ou).or_insert((0.0, 0)).0 += metrics.elapsed_us();
    }

    fn record_work(&self, _node: u32, ou: OuKind, work: WorkCounts) {
        let mut inner = self.inner.lock().expect("ou sink poisoned");
        inner.entry(ou).or_insert((0.0, 0)).1 += work.tuples;
    }
}

impl OuSink {
    fn elapsed_us(&self, ou: OuKind) -> f64 {
        self.inner
            .lock()
            .expect("ou sink poisoned")
            .get(&ou)
            .map_or(0.0, |e| e.0)
    }

    fn tuples(&self, ou: OuKind) -> u64 {
        self.inner
            .lock()
            .expect("ou sink poisoned")
            .get(&ou)
            .map_or(0, |e| e.1)
    }
}

/// Sums the replay keeps beside the spans.
#[derive(Default)]
struct ReplayTotals {
    ops: usize,
    /// Operations executed with the OU recorder attached.
    recorded_ops: usize,
    statements: usize,
    cache_hit_ns: Vec<f64>,
    cache_miss_ns: Vec<f64>,
    ous_per_plan: Vec<f64>,
    rel_err: Vec<f64>,
    autocommit_us: Vec<f64>,
    resp_ns: f64,
    resp_rows: f64,
    /// Rows the recorded SELECTs returned (the rows they scanned come
    /// from the sink).
    rows_returned: f64,
    gc_pass_us: Vec<f64>,
    compaction_pass_us: Vec<f64>,
}

/// Every other replayed operation runs with the OU recorder: it costs time
/// the server's path does not pay, so the ledger's `exec.run` comes from
/// the operations without it and the OU breakdown from those with it.
fn recorded(sample_index: usize) -> bool {
    sample_index % 2 == 1
}

fn round_trips(op: &Op) -> usize {
    if op.statements.len() == 1 {
        1
    } else {
        op.statements.len() + 2
    }
}

fn sample_size(kind: WorkloadKind) -> usize {
    match kind {
        WorkloadKind::TpchScan => 9 * 20,
        // Whole cycles, so writes and scans keep their proportion.
        WorkloadKind::HtapMix => 10 * (gen::HTAP_WRITES_PER_CYCLE + gen::HTAP_SCANS.len()),
        _ => 1_000,
    }
}

/// Replay `ops` through every layer's public entry point, one span per
/// call, on the engine the window just ran against.
fn replay_layers(
    session: &Session,
    ops: &[Op],
    tracer: &mut Tracer,
    sink: &OuSink,
    first_op_id: u64,
) -> Result<ReplayTotals, String> {
    let db = &session.served.db;
    let models = &session.served.models;
    let knobs = db.knobs();
    let sched = Scheduler::new(
        setup::server_config().max_inflight_queries,
        Some(setup::scheduler_policy()),
    );
    sched.attach_models(models.clone());
    let ctx = ConnSchedCtx::default();
    let hits = db.metrics().counter("mb2_plan_cache_hits_total", "");
    let mut totals = ReplayTotals::default();
    let fail = |what: &str, e: mb2_common::DbError| format!("layer replay, {what}: {e}");

    for (i, op) in ops.iter().enumerate() {
        let op_id = first_op_id + i as u64;
        let root = tracer.open("replay.op", NO_PARENT, op_id);
        totals.ops += 1;
        totals.statements += op.statements.len();

        // Front end, statement by statement.
        let mut plans = Vec::with_capacity(op.statements.len());
        for sql in &op.statements {
            let (decoded, _) = tracer.span("server.wire_req", root, op_id, || {
                let mut buf = Vec::with_capacity(sql.len() + 16);
                wire::write_frame(&mut buf, &Frame::Query { sql: sql.clone() })
                    .and_then(|_| wire::decode_payload(&buf[4..]))
            });
            decoded.map_err(|e| fail("wire request", e))?;

            let (decision, _) = tracer.span("server.admit", root, op_id, || {
                let decision = sched.admit(db, sql, &ctx);
                if let Decision::Admit(token) = decision {
                    sched.finish(token);
                    true
                } else {
                    false
                }
            });
            if !decision {
                return Err("layer replay: the scheduler shed a lone statement".into());
            }

            let (stmt, _) = tracer.span("sql.parse", root, op_id, || parse(sql));
            let stmt = stmt.map_err(|e| fail("parse", e))?;
            let (plan, _) = tracer.span("sql.plan", root, op_id, || {
                Planner::new(db.catalog()).plan(&stmt)
            });
            let plan = plan.map_err(|e| fail("plan", e))?;

            // The cache on its own: `admit` just cached this text, so the
            // first lookup hits; the same statement under a text the cache
            // cannot hold yet (one more trailing space) misses. The counter
            // tells which happened.
            for text in [sql.clone(), format!("{sql} ")] {
                let hits_before = hits.get();
                let (cached, ns) = tracer.span("engine.plan_cache", root, op_id, || {
                    db.prepare_cached(&text)
                });
                cached.map_err(|e| fail("prepare_cached", e))?;
                if hits.get() > hits_before {
                    totals.cache_hit_ns.push(ns as f64);
                } else {
                    totals.cache_miss_ns.push(ns as f64);
                }
            }

            let (prediction, _) = tracer.span("core.predict", root, op_id, || {
                models.predict_plan(&plan, &knobs)
            });
            totals.ous_per_plan.push(prediction.per_ou.len() as f64);
            plans.push((plan, prediction.elapsed_us()));
        }

        // Engine: one transaction around the operation's statements.
        let txn_span = tracer.open("engine.txn", root, op_id);
        let (mut txn, _) = tracer.span("txn.begin", txn_span, op_id, || db.begin());
        let mut results = Vec::with_capacity(plans.len());
        let with_recorder = recorded(i);
        totals.recorded_ops += with_recorder as usize;
        for (sql, (plan, predicted_us)) in op.statements.iter().zip(&plans) {
            let (name, recorder) = if with_recorder {
                ("exec.recorded", Some(sink as &dyn OuRecorder))
            } else {
                ("exec.run", None)
            };
            let (result, ns) = tracer.span(name, txn_span, op_id, || {
                db.execute_plan_in(plan, &mut txn, recorder)
            });
            let result = result.map_err(|e| fail("execute_plan_in", e))?;
            if with_recorder {
                if sql.starts_with("SELECT") {
                    totals.rows_returned += result.rows.len() as f64;
                }
            } else if ns > 0 {
                let measured_us = ns as f64 / 1e3;
                totals
                    .rel_err
                    .push((predicted_us - measured_us).abs() / measured_us);
            }
            results.push(result);
        }
        let (committed, _) = tracer.span("txn.commit", txn_span, op_id, || txn.commit());
        committed.map_err(|e| fail("commit", e))?;
        let txn_ns = tracer.close(txn_span);
        if op.statements.len() == 1 {
            totals.autocommit_us.push(txn_ns as f64 / 1e3);
        }
        if let Some(wal) = db.wal().filter(|w| !w.config().background) {
            // The foreground log flushed at commit; this drains what is
            // left. (The background flusher owns its queue: no entry point.)
            let (flushed, _) = tracer.span("wal.flush_now", root, op_id, || wal.flush_now());
            flushed.map_err(|e| fail("flush_now", e))?;
        }

        // Response framing, on the rows the engine really returned.
        for result in results {
            let rows = result.rows.len();
            let affected = result.rows_affected as u64;
            let (decoded, ns) = tracer.span("server.wire_resp", root, op_id, || {
                let mut buf = Vec::new();
                let decode = |buf: &mut Vec<u8>, frame: &Frame| {
                    buf.clear();
                    wire::write_frame(buf, frame).and_then(|_| wire::decode_payload(&buf[4..]))
                };
                if rows > 0 {
                    decode(&mut buf, &Frame::RowBatch { rows: result.rows })?;
                }
                decode(&mut buf, &Frame::Done { rows: affected })
            });
            decoded.map_err(|e| fail("wire response", e))?;
            totals.resp_ns += ns as f64;
            totals.resp_rows += rows.max(1) as f64;
        }

        if (i + 1) % BACKGROUND_EVERY == 0 {
            let (_, ns) = tracer.span("txn.gc_pass", root, op_id, || db.gc().run_once());
            totals.gc_pass_us.push(ns as f64 / 1e3);
            let (_, ns) = tracer.span("txn.compaction_pass", root, op_id, || db.compact_now());
            totals.compaction_pass_us.push(ns as f64 / 1e3);
        }
        tracer.close(root);
    }
    Ok(totals)
}

/// Median round trip of the cheapest statements the server answers
/// (`BEGIN` / `ROLLBACK`): transport, framing and dispatch with no work
/// behind them. A real operation runs before each probe pair, so a probe
/// finds the caches and the scheduler state a workload round trip finds,
/// not those of two threads doing nothing else.
fn rtt_floor_us(client: &mut Client, gen: &mut Generator) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(2 * RTT_PROBES);
    for _ in 0..RTT_PROBES {
        let _ = drive::run_op(client, &gen.next_op(), 0, None);
        for sql in ["BEGIN", "ROLLBACK"] {
            let t = Instant::now();
            client.query(sql).map_err(|e| format!("rtt probe: {e}"))?;
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok(stats::median(&samples))
}

fn index_lookup_ns(kind: WorkloadKind, db: &Database) -> Result<f64, String> {
    let (table, index, keys) = match kind {
        WorkloadKind::TatpPoint => ("tatp_subscriber", "tatp_sub_pk", gen::TATP_SUBSCRIBERS),
        WorkloadKind::TpchScan => (
            "h_orders",
            "h_orders_pk",
            (15_000.0 * gen::TPCH_SCALE) as usize,
        ),
        WorkloadKind::SmallbankSync => ("sb_checking", "sb_checking_pk", gen::SMALLBANK_ACCOUNTS),
        WorkloadKind::HtapMix => ("sb_checking", "sb_checking_pk", gen::HTAP_ACCOUNTS),
    };
    let entry = db
        .catalog()
        .get(table)
        .map_err(|e| format!("index probe: {e}"))?;
    let idx = entry
        .index_named(index)
        .ok_or_else(|| format!("index probe: no index {index}"))?;
    let mut rng = Prng::new(0x1DE7);
    let probe_keys: Vec<[Value; 1]> = (0..INDEX_PROBES)
        .map(|_| [Value::Int(rng.range_usize(0, keys) as i64)])
        .collect();
    let started = Instant::now();
    let mut found = 0usize;
    for key in &probe_keys {
        found += idx.get(key).len();
    }
    let ns = started.elapsed().as_nanos() as f64 / INDEX_PROBES as f64;
    if std::hint::black_box(found) == 0 {
        return Err(format!("index probe: {index} found nothing"));
    }
    Ok(ns)
}

/// One scan-shaped statement per workload, run at parallelism 1 and at the
/// knob's value: median of five each.
fn parallel_speedup(kind: WorkloadKind, db: &Database) -> Result<f64, String> {
    let sql = match kind {
        WorkloadKind::TatpPoint => {
            "SELECT sf_type, COUNT(*), SUM(data_a) FROM tatp_special_facility GROUP BY sf_type"
                .to_string()
        }
        WorkloadKind::TpchScan => gen::tpch().fixed_queries()[0].1.clone(),
        WorkloadKind::SmallbankSync | WorkloadKind::HtapMix => gen::HTAP_SCANS[1].1.to_string(),
    };
    let plan = db
        .prepare(&sql)
        .map_err(|e| format!("speedup probe: {e}"))?;
    let workers = db.knobs().parallelism;
    let time_at = |n: usize| -> Result<f64, String> {
        db.set_parallelism(n);
        let mut samples = Vec::with_capacity(5);
        for i in 0..6 {
            let t = Instant::now();
            db.execute_plan(&plan, None)
                .map_err(|e| format!("speedup probe: {e}"))?;
            if i > 0 {
                samples.push(t.elapsed().as_secs_f64());
            }
        }
        Ok(stats::median(&samples))
    };
    let serial = time_at(1)?;
    let parallel = time_at(workers)?;
    Ok(if parallel > 0.0 {
        serial / parallel
    } else {
        0.0
    })
}

/// Throughput of two free-floating closed-loop connections over the
/// window's one pinned pair (informational). They get a second server on
/// the same database, started under the full CPU mask, because the first
/// server's threads are confined to one CPU.
fn two_conn_speedup(session: &Session, one_conn_rate: f64) -> Result<f64, String> {
    let kind = session.args.kind;
    let server = mb2_server::Server::start(session.served.db.clone(), setup::server_config())
        .map_err(|e| format!("two-conn probe: {e}"))?;
    server.attach_models(session.served.models.clone());
    let addr = server.local_addr().to_string();
    let handles: Vec<_> = (0..2u64)
        .map(|i| {
            let addr = addr.clone();
            let seed = session.args.seed ^ (0xC0FF_EE00 + i);
            std::thread::spawn(move || -> Result<u64, String> {
                let mut client =
                    Client::connect(&addr).map_err(|e| format!("two-conn probe: {e}"))?;
                let mut gen = Generator::new(kind, seed);
                let started = Instant::now();
                let mut done = 0u64;
                while started.elapsed().as_secs_f64() < TWO_CONN_SECONDS {
                    let op = gen.next_op();
                    // Concurrent writers may conflict; only successes count.
                    if drive::run_op(&mut client, &op, 0, None).0.is_ok() {
                        done += 1;
                    }
                }
                Ok(done)
            })
        })
        .collect();
    let mut done = 0u64;
    for h in handles {
        done += h
            .join()
            .map_err(|_| "two-conn probe panicked".to_string())??;
    }
    drop(server);
    let rate = done as f64 / TWO_CONN_SECONDS;
    Ok(if one_conn_rate > 0.0 {
        rate / one_conn_rate
    } else {
        0.0
    })
}

/// Bytes of user data: what `SELECT *` over every table returns.
fn user_bytes(db: &Database) -> Result<f64, String> {
    let mut bytes = 0usize;
    for table in db.catalog().table_names() {
        let r = db
            .execute(&format!("SELECT * FROM {table}"))
            .map_err(|e| format!("user bytes: {e}"))?;
        bytes += r
            .rows
            .iter()
            .map(|row| mb2_common::types::tuple_size_bytes(row))
            .sum::<usize>();
    }
    Ok(bytes as f64)
}

/// The ledger: per-layer self time per operation beside what the client
/// observed. Each layer's time is taken per template from the replayed
/// sample and weighted by the template's share of the window, so a sample
/// that drew few of a dear template does not tilt the sum.
struct Ledger {
    rows: Vec<(&'static str, f64)>,
    client_us: f64,
    unattributed_share: f64,
}

/// Ledger rows: label and the span names whose self time they sum.
const LEDGER_ROWS: [(&str, &[&str]); 9] = [
    ("server.wire_req", &["server.wire_req"]),
    ("server.admit (cache+predict)", &["server.admit"]),
    ("sql.parse", &["sql.parse"]),
    ("sql.plan", &["sql.plan"]),
    ("txn.begin", &["txn.begin"]),
    ("exec.run", &["exec.run"]),
    ("txn.commit (+wal flush)", &["txn.commit", "wal.flush_now"]),
    ("engine.txn (glue)", &["engine.txn"]),
    ("server.wire_resp", &["server.wire_resp"]),
];

impl Ledger {
    fn build(
        spans: &[trace::Span],
        self_ns: &[u64],
        sample: &[Op],
        first_op_id: u64,
        outcome: &WindowOutcome,
        rtt_floor_us: f64,
    ) -> Ledger {
        let templates = outcome.latencies_us.len();
        // Self time per (template, span name), and operations per template
        // (all, and those that ran without the recorder).
        let mut self_us: Vec<HashMap<&'static str, f64>> = vec![HashMap::new(); templates];
        let mut ops = vec![0.0f64; templates];
        let mut plain_ops = vec![0.0f64; templates];
        let mut trips = vec![0.0f64; templates];
        for (i, op) in sample.iter().enumerate() {
            ops[op.template] += 1.0;
            plain_ops[op.template] += if recorded(i) { 0.0 } else { 1.0 };
            trips[op.template] += round_trips(op) as f64;
        }
        for (span, &self_ns) in spans.iter().zip(self_ns) {
            if span.op >= first_op_id && !span.name.starts_with("client.") {
                let template = sample[(span.op - first_op_id) as usize].template;
                *self_us[template].entry(span.name).or_insert(0.0) += self_ns as f64 / 1e3;
            }
        }
        let window_ops: f64 = outcome.latencies_us.iter().map(|l| l.len() as f64).sum();
        let share = |t: usize| outcome.latencies_us[t].len() as f64 / window_ops.max(1.0);
        let per_op = |t: usize, name: &str| {
            let n = if name == "exec.run" {
                plain_ops[t]
            } else {
                ops[t]
            };
            if n > 0.0 {
                self_us[t].get(name).copied().unwrap_or(0.0) / n
            } else {
                0.0
            }
        };
        let mut rows: Vec<(&'static str, f64)> = vec![(
            "server.transport (rtt floor)",
            (0..templates)
                .map(|t| {
                    share(t) * rtt_floor_us * if ops[t] > 0.0 { trips[t] / ops[t] } else { 0.0 }
                })
                .sum(),
        )];
        for (label, names) in LEDGER_ROWS {
            let us = (0..templates)
                .map(|t| share(t) * names.iter().map(|n| per_op(t, n)).sum::<f64>())
                .sum();
            rows.push((label, us));
        }
        let client_us = (0..templates)
            .map(|t| share(t) * stats::mean(&outcome.latencies_us[t]))
            .sum::<f64>();
        let attributed: f64 = rows.iter().map(|r| r.1).sum();
        Ledger {
            rows,
            client_us,
            unattributed_share: if client_us > 0.0 {
                1.0 - attributed / client_us
            } else {
                0.0
            },
        }
    }

    fn render(&self, kind: WorkloadKind) -> String {
        let mut s = format!(
            "ledger {}: per operation, in us; self time of spans around each layer's public entry points,\n\
             weighted to the window's template mix\n",
            kind.name()
        );
        let attributed: f64 = self.rows.iter().map(|r| r.1).sum();
        for (name, us) in &self.rows {
            s.push_str(&format!(
                "  {name:<30} {us:>12.2} {:>6.1}%\n",
                100.0 * us / self.client_us.max(f64::MIN_POSITIVE)
            ));
        }
        s.push_str(&format!("  {:<30} {attributed:>12.2}\n", "attributed"));
        s.push_str(&format!(
            "  {:<30} {:>12.2}\n",
            "client-observed latency", self.client_us
        ));
        s.push_str(&format!(
            "  {:<30} {:>12.2} {:>6.1}%\n",
            "unattributed",
            self.client_us - attributed,
            100.0 * self.unattributed_share
        ));
        s
    }
}

/// The traced run: every per-layer metric.
pub fn run_traced(args: RunArgs) -> Result<RunReport, String> {
    let kind = args.kind;
    let session = Session::open(args)?;
    let scratch = session.scratch.clone();
    let db = session.served.db.clone();
    let train_s = session.served.times.train_s;
    let pinned_cpu = session.served.pinned_cpu;

    let mut tracer = Tracer::new();
    let mut client = session.connect()?;
    let mut dirty_shares = Vec::with_capacity(TRACE_SLICES);
    let before = read_counters(&db);
    let calib_before = host::calibrate_ms();
    let outcome: WindowOutcome = session.drive(
        &mut client,
        TRACE_SLICES,
        Some(&mut tracer),
        &spans_on,
        &mut |_| {
            let (blocks, dirty) = db
                .block_status()
                .iter()
                .fold((0usize, 0usize), |acc, (_, s)| {
                    (acc.0 + s.blocks, acc.1 + s.dirty_blocks)
                });
            dirty_shares.push(if blocks > 0 {
                dirty as f64 / blocks as f64
            } else {
                0.0
            });
        },
    );
    let calib_after = host::calibrate_ms();
    let deltas = Deltas {
        before,
        after: read_counters(&db),
    };
    let final_dump = session.final_dump(&outcome)?;
    let latency = run::summarize(kind, &outcome)?;
    // The counters moved during warm-up as well as during the window.
    let ops = outcome.generated_ops.max(1) as f64;
    let writing_ops = outcome.writing_ops as f64;
    let per_writing_op = |delta: f64| {
        if writing_ops > 0.0 {
            delta / writing_ops
        } else {
            0.0
        }
    };

    // Tracing overhead: span-on slices against span-off slices of this run.
    let rates = stats::slice_rates(
        &outcome.completions_s,
        TRACE_SLICES,
        args.seconds / TRACE_SLICES as f64,
    );
    let rate_of = |traced: bool| {
        let picked: Vec<f64> = rates
            .iter()
            .enumerate()
            .filter(|(i, _)| spans_on(*i) == traced)
            .map(|(_, r)| *r)
            .collect();
        stats::median(&picked)
    };
    let (plain_rate, traced_rate) = (rate_of(false), rate_of(true));
    let trace_overhead = if plain_rate > 0.0 {
        1.0 - traced_rate / plain_rate
    } else {
        0.0
    };

    // State the window left, before the probes below disturb it.
    let shard_status = db.shard_status();
    let (versions, tuples) = shard_status.iter().fold((0usize, 0usize), |acc, (_, s)| {
        (acc.0 + s.versions, acc.1 + s.live_tuples)
    });
    let rss = host::rss_bytes();
    let user = user_bytes(&db)?;
    let wal_stats = db.wal().map(|w| {
        (
            w.stats().flush_latency_us.quantile(0.5),
            w.stats().fsync_latency_us.quantile(0.5),
        )
    });

    let rtt_floor = rtt_floor_us(
        &mut client,
        &mut Generator::new(kind, args.seed ^ 0xF100_0000),
    )?;
    drop(client);

    // Layer replay on the same loaded engine.
    let sink = OuSink::default();
    let mut sample_gen = Generator::new(kind, args.seed);
    let sample: Vec<Op> = (0..sample_size(kind))
        .map(|_| sample_gen.next_op())
        .collect();
    let totals = replay_layers(&session, &sample, &mut tracer, &sink, outcome.generated_ops)?;
    // Window spans (`client.*`) and replay spans carry different names.
    let span_self_ns = trace::self_times_ns(&tracer.spans);
    let by_name: HashMap<&'static str, (u64, usize)> =
        trace::self_time_by_name(&tracer.spans, &span_self_ns)
            .into_iter()
            .map(|(name, ns, n)| (name, (ns, n)))
            .collect();
    let self_ns = |name: &str| by_name.get(name).map_or(0.0, |e| e.0 as f64);
    let calls = |name: &str| by_name.get(name).map_or(0.0, |e| e.1 as f64);
    let per_call = |name: &str| {
        if calls(name) > 0.0 {
            self_ns(name) / calls(name)
        } else {
            0.0
        }
    };
    let ledger = Ledger::build(
        &tracer.spans,
        &span_self_ns,
        &sample,
        outcome.generated_ops,
        &outcome,
        rtt_floor,
    );

    let index_ns = index_lookup_ns(kind, &db)?;
    // The two probes below spawn threads (a rebuilt exec pool, a second
    // server): they must inherit the full CPU mask, not this thread's one CPU.
    if let Some(affinity) = &session.affinity {
        affinity.restore();
    }
    let speedup = parallel_speedup(kind, &db)?;
    let two_conn = two_conn_speedup(&session, plain_rate)?;

    let trace_path =
        std::path::PathBuf::from(format!("benchmark/results/trace-{}.json", kind.name()));
    tracer
        .write_json(&trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    let verification = session.close(&outcome, final_dump, 0)?;
    let recovery_s = stats::median(&verification.recovery_s);

    let recorded_s = self_ns("exec.recorded") / 1e9;
    let rows_examined = (sink.tuples(OuKind::SeqScan)
        + sink.tuples(OuKind::BlockScan)
        + sink.tuples(OuKind::IdxScan)) as f64;
    let block_tuples = sink.tuples(OuKind::BlockScan) as f64;
    let seq_tuples = sink.tuples(OuKind::SeqScan) as f64;
    let mut values: HashMap<String, f64> = HashMap::new();
    let mut put = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };
    put("server.rtt_floor_us", rtt_floor);
    put("server.wire_req_ns", per_call("server.wire_req"));
    put(
        "server.wire_resp_ns_per_row",
        if totals.resp_rows > 0.0 {
            totals.resp_ns / totals.resp_rows
        } else {
            0.0
        },
    );
    put("server.admit_ns", per_call("server.admit"));
    put(
        "server.shed_share",
        deltas.ratio(
            "mb2_server_queries_rejected_total",
            "mb2_server_queries_total",
        ),
    );
    put("server.unattributed_share", ledger.unattributed_share);
    put("server.two_conn_speedup", two_conn);
    put("sql.parse_ns", per_call("sql.parse"));
    put("sql.plan_ns", per_call("sql.plan"));
    put(
        "sql.rows_examined_per_row_returned",
        if totals.rows_returned > 0.0 {
            rows_examined / totals.rows_returned
        } else {
            0.0
        },
    );
    let cache_lookups =
        deltas.of("mb2_plan_cache_hits_total") + deltas.of("mb2_plan_cache_misses_total");
    put(
        "engine.plan_cache_hit_ratio",
        if cache_lookups > 0.0 {
            deltas.of("mb2_plan_cache_hits_total") / cache_lookups
        } else {
            0.0
        },
    );
    put(
        "engine.plan_cache_hit_ns",
        stats::median(&totals.cache_hit_ns),
    );
    put(
        "engine.plan_cache_miss_ns",
        stats::median(&totals.cache_miss_ns),
    );
    put(
        "engine.exec_autocommit_us",
        stats::mean(&totals.autocommit_us),
    );
    put(
        "engine.recovery_krec_per_s",
        if recovery_s > 0.0 {
            verification.records_read as f64 / 1e3 / recovery_s
        } else {
            0.0
        },
    );
    put("core.predict_ns_per_plan", per_call("core.predict"));
    put("core.ous_per_plan", stats::mean(&totals.ous_per_plan));
    put("core.predict_rel_err_p50", stats::median(&totals.rel_err));
    put("core.train_s", train_s);
    put("exec.run_us_per_stmt", per_call("exec.run") / 1e3);
    put(
        "exec.rows_per_s",
        if recorded_s > 0.0 {
            rows_examined / recorded_s
        } else {
            0.0
        },
    );
    put(
        "exec.pool_morsels",
        deltas.of("mb2_exec_pool_morsels_total") / ops,
    );
    put(
        "exec.pool_steals",
        deltas.of("mb2_exec_pool_steals_total") / ops,
    );
    put("exec.parallel_speedup", speedup);
    for (ou, spelling) in EXEC_OUS {
        put(
            &format!("exec.ou.{spelling}_us"),
            sink.elapsed_us(ou) / totals.recorded_ops.max(1) as f64,
        );
    }
    put(
        "storage.block_scan_share",
        if block_tuples + seq_tuples > 0.0 {
            block_tuples / (block_tuples + seq_tuples)
        } else {
            0.0
        },
    );
    put("storage.block_dirty_share", stats::mean(&dirty_shares));
    put(
        "storage.zone_skips",
        deltas.of("mb2_block_zone_skips_total") / ops,
    );
    put(
        "storage.versions_per_tuple",
        if tuples > 0 {
            versions as f64 / tuples as f64
        } else {
            0.0
        },
    );
    put(
        "storage.rss_bytes_per_user_byte",
        if user > 0.0 { rss / user } else { 0.0 },
    );
    put("index.lookup_ns", index_ns);
    put(
        "index.latch_contended_share",
        deltas.ratio(
            "mb2_index_latch_contended_total",
            "mb2_index_latch_acquires_total",
        ),
    );
    put("txn.begin_ns", per_call("txn.begin"));
    put("txn.commit_us", per_call("txn.commit") / 1e3);
    put(
        "txn.abort_share",
        deltas.ratio("mb2_txn_aborts_total", "mb2_txn_begins_total"),
    );
    put("txn.gc_pass_us", stats::median(&totals.gc_pass_us));
    put(
        "txn.gc_versions_reclaimed",
        deltas.of("mb2_gc_versions_reclaimed_total") / ops,
    );
    put(
        "txn.compaction_pass_us",
        stats::median(&totals.compaction_pass_us),
    );
    put(
        "txn.units_resealed",
        deltas.of("mb2_block_units_sealed_total") / ops,
    );
    put(
        "wal.bytes_per_txn",
        deltas.of("mb2_wal_bytes_serialized_total") / ops,
    );
    // Only a writing commit can make the log flush; read-only ones never do.
    put(
        "wal.flushes_per_txn",
        per_writing_op(deltas.of("mb2_wal_flush_calls_total")),
    );
    put(
        "wal.fsyncs_per_txn",
        per_writing_op(deltas.of("mb2_wal_fsync_calls_total")),
    );
    put("wal.flush_us_p50", wal_stats.map_or(0.0, |s| s.0 as f64));
    put("wal.fsync_us_p50", wal_stats.map_or(0.0, |s| s.1 as f64));
    put("bench.trace_overhead_share", trace_overhead);
    put("bench.calib_ms", calib_before.min(calib_after));
    put(
        "bench.calib_drift_share",
        run::calib_drift((calib_before, calib_after)),
    );
    put(
        "bench.client_gen_ns_per_op",
        outcome.generation.as_nanos() as f64 / outcome.generated_ops.max(1) as f64,
    );
    for t in &latency.templates {
        put(&manifest::template_metric(t.name), t.p50_us);
    }

    // Templates of other workloads (and anything not applicable) read 0.
    let metrics = manifest::per_layer()
        .into_iter()
        .map(|def| {
            let value = values.get(&def.name).copied().unwrap_or(0.0);
            (def.name, value, def.unit)
        })
        .collect();

    let failed = outcome.wire_failures + outcome.fixed_mismatches + verification.replay_mismatches;
    let context = run::context_json(
        &args,
        &scratch,
        pinned_cpu,
        (calib_before, calib_after),
        Some(&latency),
        &[
            (
                "trace_file",
                crate::json::string(&trace_path.display().to_string()),
            ),
            ("spans", tracer.spans.len().to_string()),
            ("replayed_layer_ops", totals.ops.to_string()),
            ("replayed_layer_statements", totals.statements.to_string()),
            ("plain_ops_per_s", crate::json::number(plain_rate)),
            ("traced_ops_per_s", crate::json::number(traced_rate)),
            (
                "replay_mismatches",
                verification.replay_mismatches.to_string(),
            ),
            (
                "recovery_dump_ok",
                verification.recovery_dump_ok.to_string(),
            ),
        ],
    );
    println!("{}", ledger.render(kind));
    Ok(RunReport {
        correct: failed == 0 && verification.dumps_ok(),
        attempted: outcome.attempted,
        failed,
        metrics,
        context,
    })
}
