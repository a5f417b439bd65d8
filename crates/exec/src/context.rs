//! Execution context: catalog, transaction, knobs, and tracking hooks.

use std::sync::Arc;

use mb2_catalog::Catalog;
use mb2_common::HardwareProfile;
use mb2_index::IndexObs;
use mb2_txn::Transaction;

use crate::tracker::OuRecorder;

/// The execution-mode behavior knob (paper §4.2 feature 7): NoisePage runs
/// queries either through its bytecode interpreter or as JIT-compiled code.
/// Here `Interpret` walks expression trees per tuple and `Compiled`
/// pre-lowers expressions to native closures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    Interpret,
    Compiled,
}

impl ExecutionMode {
    /// Feature encoding for OU-model inputs (0 = interpret, 1 = compiled).
    pub fn as_feature(&self) -> f64 {
        match self {
            ExecutionMode::Interpret => 0.0,
            ExecutionMode::Compiled => 1.0,
        }
    }
}

/// Everything an operator needs to run.
pub struct ExecContext<'a> {
    pub catalog: &'a Catalog,
    pub txn: &'a mut Transaction,
    pub mode: ExecutionMode,
    /// Metrics sink; `None` disables per-OU tracking entirely.
    pub recorder: Option<&'a dyn OuRecorder>,
    pub hw: HardwareProfile,
    /// Software-update emulation for the paper's Fig. 9a adaptation study:
    /// sleep 1µs after every `n` tuples inserted into a join hash table
    /// (`0` disables the injected regression).
    pub jht_sleep_every: usize,
    /// Latch/build instrumentation attached to indexes created by this
    /// context; `None` leaves new indexes uninstrumented.
    pub index_obs: Option<Arc<IndexObs>>,
    /// Rows per [`crate::batch::Batch`] flowing through the operator
    /// pipeline. Every size runs the same operators; `1` pulls one tuple
    /// per call, larger batches amortize per-pull overhead.
    pub batch_size: usize,
    /// Shared worker pool for morsel-driven intra-query parallelism.
    /// `None` (the default, and what `Knobs::parallelism == 1` maps to)
    /// keeps the serial single-thread pipeline.
    pub pool: Option<Arc<crate::parallel::ExecPool>>,
    /// Slots per morsel when `pool` is set. Tests shrink this to exercise
    /// multi-morsel plans on small tables.
    pub morsel_slots: usize,
    /// The `columnar_enabled` behavior knob: sequential scans serve clean
    /// sealed units from their columnar blocks (vectorized predicates, zone
    /// maps, late materialization — the Block/Scan OU) instead of walking
    /// version chains. Row output is byte-identical either way.
    pub columnar: bool,
}

impl<'a> ExecContext<'a> {
    pub fn new(catalog: &'a Catalog, txn: &'a mut Transaction) -> ExecContext<'a> {
        ExecContext {
            catalog,
            txn,
            mode: ExecutionMode::Compiled,
            recorder: None,
            hw: HardwareProfile::default(),
            jht_sleep_every: 0,
            index_obs: None,
            batch_size: crate::batch::DEFAULT_BATCH_SIZE,
            pool: None,
            morsel_slots: crate::parallel::DEFAULT_MORSEL_SLOTS,
            columnar: false,
        }
    }

    pub fn with_columnar(mut self, columnar: bool) -> ExecContext<'a> {
        self.columnar = columnar;
        self
    }

    pub fn with_pool(mut self, pool: Arc<crate::parallel::ExecPool>) -> ExecContext<'a> {
        self.pool = Some(pool);
        self
    }

    pub fn with_morsel_slots(mut self, morsel_slots: usize) -> ExecContext<'a> {
        self.morsel_slots = morsel_slots.max(1);
        self
    }

    pub fn with_batch_size(mut self, batch_size: usize) -> ExecContext<'a> {
        self.batch_size = batch_size.max(1);
        self
    }

    pub fn with_mode(mut self, mode: ExecutionMode) -> ExecContext<'a> {
        self.mode = mode;
        self
    }

    pub fn with_recorder(mut self, recorder: &'a dyn OuRecorder) -> ExecContext<'a> {
        self.recorder = Some(recorder);
        self
    }

    pub fn with_hw(mut self, hw: HardwareProfile) -> ExecContext<'a> {
        self.hw = hw;
        self
    }

    pub fn with_index_obs(mut self, obs: Arc<IndexObs>) -> ExecContext<'a> {
        self.index_obs = Some(obs);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_feature_encoding() {
        assert_eq!(ExecutionMode::Interpret.as_feature(), 0.0);
        assert_eq!(ExecutionMode::Compiled.as_feature(), 1.0);
    }
}
