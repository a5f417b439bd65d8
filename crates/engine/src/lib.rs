//! The DBMS facade — the NoisePage analog that MB2 instruments.
//!
//! [`Database`] wires together catalog, MVCC transactions, WAL, garbage
//! collection, and the execution engine behind a SQL interface, and exposes
//! the behavior knobs the paper tunes: execution mode (interpret vs.
//! compiled), WAL flush interval, GC interval, and the emulated hardware
//! profile (paper §4.2, §8.6).

pub mod config;
pub mod database;
pub mod health;
pub(crate) mod metrics;
pub mod recovery;
pub mod session;
pub mod tasks;

pub use config::{DatabaseConfig, Knobs};
pub use database::{Database, TxnScope};
pub use health::{DegradedReason, HealthState, HealthTracker};
pub use recovery::{recover, recover_with, RecoveryOptions, RecoveryReport};
pub use session::Session;
pub use tasks::{BackgroundTask, StatementTap};

// Re-export the layers so downstream crates (runners, workloads, benches)
// need only one dependency.
pub use mb2_catalog as catalog;
pub use mb2_exec as exec;
pub use mb2_index as index;
pub use mb2_obs as obs;
pub use mb2_sql as sql;
pub use mb2_storage as storage;
pub use mb2_txn as txn;
pub use mb2_wal as wal;
