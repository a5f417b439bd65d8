//! Database configuration and runtime-tunable knobs.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use mb2_common::{FaultInjector, HardwareProfile};
use mb2_exec::ExecutionMode;
use mb2_obs::MetricsRegistry;

/// Startup configuration.
#[derive(Debug, Clone)]
pub struct DatabaseConfig {
    /// Enable write-ahead logging.
    pub wal_enabled: bool,
    /// WAL file path (`None` = byte-counting sink).
    pub wal_path: Option<PathBuf>,
    /// Run the WAL flusher on a background thread.
    pub wal_background: bool,
    /// fsync the log file after each flush (real durability; off by default
    /// so OU measurements see OS-buffered latencies).
    pub wal_fsync: bool,
    /// Flush (and, with `wal_fsync`, sync) the log at every commit before
    /// the transaction's writes become visible. Foreground WAL mode only.
    pub wal_sync_commit: bool,
    /// Retries for a failed WAL flush before the log is poisoned and the
    /// engine degrades to read-only.
    pub wal_flush_retries: u32,
    /// Base backoff between WAL flush retries (doubles per attempt).
    pub wal_retry_backoff: Duration,
    /// Deterministic fault injection for durability and chaos tests,
    /// threaded through every subsystem with seeded fault points (WAL,
    /// storage segment allocation, commit critical section, GC cycles);
    /// `None` in production.
    pub faults: Option<Arc<FaultInjector>>,
    /// Run the garbage collector on a background thread at this interval.
    pub gc_interval: Option<Duration>,
    /// Run the columnar compactor on a background thread at this interval,
    /// sealing frozen shard units into column-major blocks. `None` leaves
    /// compaction to explicit [`crate::Database::compact_now`] calls.
    pub compaction_interval: Option<Duration>,
    /// Metrics registry every subsystem publishes into. `None` creates a
    /// fresh registry per database; pass a shared one to scrape several
    /// databases (or external components) together.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Initial state of the registry's enable switch (span timing). Counters
    /// stay live either way; see `MetricsRegistry::set_enabled`.
    pub metrics_enabled: bool,
    /// Initial knob values.
    pub knobs: Knobs,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        DatabaseConfig {
            wal_enabled: true,
            wal_path: None,
            wal_background: false,
            wal_fsync: false,
            wal_sync_commit: false,
            wal_flush_retries: 3,
            wal_retry_backoff: Duration::from_millis(1),
            faults: None,
            gc_interval: None,
            compaction_interval: None,
            metrics: None,
            metrics_enabled: true,
            knobs: Knobs::default(),
        }
    }
}

impl DatabaseConfig {
    /// Lean configuration for tests and OU-runners: no WAL thread, no GC
    /// thread, compiled execution.
    pub fn bench() -> DatabaseConfig {
        DatabaseConfig::default()
    }
}

/// Runtime-tunable behavior and resource knobs (paper §4.2). Behavior knobs
/// are appended to the affected OUs' model features by the translator.
#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    /// Execution-mode behavior knob.
    pub execution_mode: ExecutionMode,
    /// WAL flush interval behavior knob (feature of the Log Flush OU).
    pub wal_flush_interval: Duration,
    /// Emulated hardware context (paper §8.6).
    pub hw: HardwareProfile,
    /// Fig. 9a software-update emulation: spin 1µs per this many join-hash
    /// -table inserts (0 = off).
    pub jht_sleep_every: usize,
    /// Rows per batch in the pull-based execution pipeline (an OU
    /// feature). Every size runs the same operators with the scan
    /// predicate pushed into the scan; `1` pulls one tuple per call.
    /// Per-OU work features are identical across sizes. Clamped to at
    /// least 1.
    pub batch_size: usize,
    /// Workers in the shared intra-query execution pool. `1` (serial) skips
    /// the pool entirely — today's single-thread pipeline. Sizes ≥ 2 run
    /// base-table scans (and the hash-join/aggregation breakers above them)
    /// morsel-parallel; results stay byte-identical to serial execution.
    /// Defaults to the number of available cores. Clamped to at least 1.
    pub parallelism: usize,
    /// Hash-shard count for newly created tables. Each shard owns its own
    /// chain blocks, slot counters, and GC pass, and the commit lock is
    /// striped by shard footprint — so single-shard commits on different
    /// shards stamp in parallel. `1` reproduces the flat single-shard
    /// layout byte-for-byte. Slot assignment and scan order are independent
    /// of the shard count, so WAL images and query results never change
    /// with it. Defaults to the number of available cores. Clamped to at
    /// least 1; applies to tables created (or re-created by recovery) after
    /// the knob is set.
    pub shard_count: usize,
    /// Columnar-scan behavior knob: when on, sequential scans serve clean
    /// sealed shard units from their column-major blocks (vectorized range
    /// predicates, zone-map skipping, late materialization — the Block/Scan
    /// OU) instead of walking version chains. Row output is byte-identical
    /// either way; dirty or unsealed units always fall back to the row path.
    pub columnar_enabled: bool,
}

/// Worker-count default for [`Knobs::parallelism`]: every available core.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            execution_mode: ExecutionMode::Compiled,
            wal_flush_interval: Duration::from_millis(10),
            hw: HardwareProfile::default(),
            jht_sleep_every: 0,
            batch_size: mb2_exec::DEFAULT_BATCH_SIZE,
            parallelism: default_parallelism(),
            shard_count: default_parallelism(),
            columnar_enabled: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = DatabaseConfig::default();
        assert!(c.wal_enabled);
        assert!(c.gc_interval.is_none());
        assert_eq!(c.knobs.execution_mode, ExecutionMode::Compiled);
        assert_eq!(c.knobs.jht_sleep_every, 0);
        assert_eq!(c.knobs.batch_size, mb2_exec::DEFAULT_BATCH_SIZE);
        assert_eq!(c.knobs.parallelism, default_parallelism());
        assert!(c.knobs.parallelism >= 1);
        assert_eq!(c.knobs.shard_count, default_parallelism());
        assert!(c.knobs.shard_count >= 1);
        assert!(c.compaction_interval.is_none());
        assert!(!c.knobs.columnar_enabled);
    }
}
