//! Engine lifecycle hooks for components layered *above* the engine.
//!
//! The autopilot (`mb2-pilot`) lives in a crate that depends on
//! `mb2-engine`, so the engine cannot name its types — but its threads
//! must still be quiesced by [`Database::shutdown`] *before* the exec
//! pool, GC, and WAL flusher are torn down (a mid-flight action may be
//! running a query or a WAL-logged index build). These two small traits
//! close that inversion: the upper layer registers itself with the
//! engine, and the engine calls back at the right points.
//!
//! [`Database::shutdown`]: crate::Database::shutdown

/// A background component whose threads the engine must drain on
/// shutdown, before its own subsystems go away.
///
/// Registered via [`Database::register_background_task`]; held as a
/// [`Weak`](std::sync::Weak) reference so registration never keeps the
/// task (or anything it owns) alive.
///
/// [`Database::register_background_task`]: crate::Database::register_background_task
pub trait BackgroundTask: Send + Sync {
    /// Short diagnostic name (e.g. `"pilot"`).
    fn name(&self) -> &str;

    /// Stop the task's threads and wait for them to finish. Called by
    /// [`Database::shutdown`] while the exec pool, GC, and WAL flusher
    /// are still running, so an in-flight action can complete (or revert)
    /// against live subsystems. Must be idempotent.
    ///
    /// [`Database::shutdown`]: crate::Database::shutdown
    fn quiesce(&self);
}

/// Observer of every DML/SELECT statement the engine executes, installed
/// with [`Database::set_statement_tap`]. This is how the autopilot's
/// workload forecaster sees live traffic: each SELECT/INSERT/UPDATE/DELETE
/// text the statement resolver turns into a plan (cached or fresh;
/// autocommit or in a transaction; materialized or streamed) is reported
/// once, before execution. DDL, transaction control and pre-planned
/// `execute_plan*` calls are not reported.
///
/// Implementations must be cheap and non-blocking — the call sits on
/// every statement's hot path.
///
/// [`Database::set_statement_tap`]: crate::Database::set_statement_tap
pub trait StatementTap: Send + Sync {
    /// Observe one statement's SQL text.
    fn observe(&self, sql: &str);
}
