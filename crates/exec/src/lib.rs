//! Execution engine.
//!
//! Pull-based batch execution of [`mb2_sql::PlanNode`] trees: a
//! [`batch::Batch`] of up to `ExecContext::batch_size` rows flows through a
//! `BatchOperator` pipeline, with predicates pushed into the storage scan
//! visitors and `Arc<Tuple>` zero-copy row passing from the MVCC read path.
//! Each operator phase corresponds to exactly one operating unit from paper
//! Table 1 (hash-join build and probe are separate OUs, sort build and
//! iterate are separate OUs, filters/projections are Arithmetic/Filter OU
//! passes), and the [`tracker::OuTracker`] folds per-batch work into one
//! measurement per span. An optional [`OuRecorder`] receives
//! `(node id, OU, metrics)` triples — the data-collection hook MB2's
//! runners use (paper §6.1).
//!
//! Two execution modes implement the paper's `execution_mode` behavior knob:
//! `Interpret` walks expression trees per tuple; `Compiled` pre-lowers
//! expressions to nested native closures (the JIT analog).

pub mod batch;
pub mod columnar;
pub mod compile;
pub mod context;
pub mod executor;
mod kernel;
pub mod obs;
pub mod ops;
pub mod parallel;
pub mod tracker;

pub use batch::{Batch, DEFAULT_BATCH_SIZE};
pub use context::{ExecContext, ExecutionMode};
pub use executor::{execute, execute_batched, subtree_size, QueryResult};
pub use obs::ObsRecorder;
pub use parallel::{ExecPool, DEFAULT_MORSEL_SLOTS};
pub use tracker::{OuRecorder, OuTracker, WorkCounts};
