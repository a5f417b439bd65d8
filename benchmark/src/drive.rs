//! The closed loop: one connection, the next operation sent only after the
//! previous one completed; statement generation and result digesting sit
//! outside the timed interval.

use std::time::{Duration, Instant};

use mb2_common::{DbError, DbResult};
use mb2_server::{Client, QueryResponse};

use crate::check::Digest;
use crate::gen::{Generator, Op};
use crate::trace::{Tracer, NO_PARENT};

/// Slices the timed window is cut into; every rate is their median.
pub const SLICES: usize = 5;
/// Measured seconds of warm-up ahead of the window.
pub const WARMUP_S: f64 = 2.0;

/// Send one operation: a lone statement in autocommit mode, several
/// wrapped in `BEGIN` / `COMMIT`. Returns the statement responses and the
/// time spent inside client calls. With a tracer, the operation and each
/// round trip get a span.
pub fn run_op(
    client: &mut Client,
    op: &Op,
    op_id: u64,
    mut tracer: Option<&mut Tracer>,
) -> (DbResult<Vec<QueryResponse>>, Duration) {
    let started = Instant::now();
    let root = tracer
        .as_deref_mut()
        .map(|t| t.open("client.op", NO_PARENT, op_id));
    let mut call = |client: &mut Client, sql: &str| -> DbResult<QueryResponse> {
        match tracer.as_deref_mut() {
            Some(t) => {
                let id = t.open("client.round_trip", root.unwrap_or(NO_PARENT), op_id);
                let r = client.query(sql);
                t.close(id);
                r
            }
            None => client.query(sql),
        }
    };
    let result = if let [sql] = op.statements.as_slice() {
        call(client, sql).map(|r| vec![r])
    } else {
        (|| {
            call(client, "BEGIN")?;
            let mut responses = Vec::with_capacity(op.statements.len());
            for sql in &op.statements {
                match call(client, sql) {
                    Ok(r) => responses.push(r),
                    Err(e) => {
                        if !matches!(e, DbError::Net(_)) {
                            let _ = call(client, "ROLLBACK");
                        }
                        return Err(e);
                    }
                }
            }
            call(client, "COMMIT")?;
            Ok(responses)
        })()
    };
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root);
    }
    (result, started.elapsed())
}

pub fn digest_of(op: &Op, responses: &[QueryResponse]) -> Digest {
    let mut d = Digest::default();
    for (sql, r) in op.statements.iter().zip(responses) {
        d.add_statement(sql, &r.rows, r.count);
    }
    d
}

/// What one warm-up + window pass observed.
pub struct WindowOutcome {
    /// Operations attempted inside the timed window.
    pub attempted: u64,
    /// Window operations the wire answered with an error or `Busy`.
    pub wire_failures: u64,
    /// Window latencies in µs, per template.
    pub latencies_us: Vec<Vec<f64>>,
    /// Measured-time offset (s) of each successful window completion.
    pub completions_s: Vec<f64>,
    /// The first operations sent after set-up (warm-up included), with the
    /// digest each returned (`None` = the wire call failed), for replay.
    pub history: Vec<Op>,
    pub observed: Vec<Option<Digest>>,
    /// Window operations whose digest differed from the fixed per-template
    /// oracle (read-only workloads, where set-up computes every answer).
    pub fixed_mismatches: u64,
    pub generation: Duration,
    /// Operations sent since set-up, warm-up included.
    pub generated_ops: u64,
    /// Those among them that write (hold a statement other than `SELECT`).
    pub writing_ops: u64,
    pub wall: Duration,
}

/// Called at the end of every slice with its index (state sampling).
pub type SliceHook<'a> = &'a mut dyn FnMut(usize);

/// Warm up, then drive the timed window of `seconds` measured seconds.
/// `traced(slice)` says whether a slice records spans. The first
/// `history_cap` operations are kept for replay; with a `fixed_oracle`
/// (one digest per template) every window operation is checked on the spot.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    client: &mut Client,
    gen: &mut Generator,
    templates: usize,
    seconds: f64,
    slices: usize,
    history_cap: usize,
    fixed_oracle: Option<&[Digest]>,
    mut tracer: Option<&mut Tracer>,
    traced: &dyn Fn(usize) -> bool,
    on_slice: SliceHook<'_>,
) -> WindowOutcome {
    let wall_started = Instant::now();
    let mut out = WindowOutcome {
        attempted: 0,
        wire_failures: 0,
        latencies_us: vec![Vec::new(); templates],
        completions_s: Vec::new(),
        history: Vec::new(),
        observed: Vec::new(),
        fixed_mismatches: 0,
        generation: Duration::ZERO,
        generated_ops: 0,
        writing_ops: 0,
        wall: Duration::ZERO,
    };
    let slice_s = seconds / slices as f64;
    let mut op_id = 0u64;
    let mut next_op = |out: &mut WindowOutcome| {
        let t = Instant::now();
        let op = gen.next_op();
        out.generation += t.elapsed();
        out.generated_ops += 1;
        out.writing_ops += op.statements.iter().any(|sql| !sql.starts_with("SELECT")) as u64;
        op
    };

    // Warm-up: same loop, nothing measured, history recorded (the replay
    // oracle needs every operation since set-up).
    let mut measured = 0.0;
    while measured < WARMUP_S {
        let op = next_op(&mut out);
        let (result, took) = run_op(client, &op, op_id, None);
        op_id += 1;
        measured += took.as_secs_f64();
        if out.history.len() < history_cap {
            out.observed.push(result.ok().map(|r| digest_of(&op, &r)));
            out.history.push(op);
        }
    }

    let mut measured = 0.0;
    let mut slice = 0usize;
    while measured < seconds {
        let op = next_op(&mut out);
        let t = if traced(slice) {
            tracer.as_deref_mut()
        } else {
            None
        };
        let (result, took) = run_op(client, &op, op_id, t);
        op_id += 1;
        measured += took.as_secs_f64();
        out.attempted += 1;
        let digest = match result {
            Ok(responses) => {
                out.latencies_us[op.template].push(took.as_secs_f64() * 1e6);
                out.completions_s.push(measured);
                Some(digest_of(&op, &responses))
            }
            Err(_) => {
                out.wire_failures += 1;
                None
            }
        };
        if let (Some(oracle), Some(d)) = (fixed_oracle, digest) {
            if oracle[op.template] != d {
                out.fixed_mismatches += 1;
            }
        }
        if out.history.len() < history_cap {
            out.observed.push(digest);
            out.history.push(op);
        }
        while slice < slices && measured >= (slice + 1) as f64 * slice_s {
            on_slice(slice);
            slice += 1;
        }
    }
    out.wall = wall_started.elapsed();
    out
}
