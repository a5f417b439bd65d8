//! Per-OU resource tracking (paper §6.1 "Resource Tracker").
//!
//! Elapsed time is measured with a monotonic clock. The remaining behavior
//! metrics substitute Linux `perf` hardware counters with a deterministic
//! cost model over *work accounting*: operators report tuples processed,
//! bytes touched, hash probes, random accesses, comparisons, allocations and
//! block I/O, and `finish` converts those into counter values (plus small
//! multiplicative noise so models face realistic measurement jitter). See
//! DESIGN.md "Substitutions" for why this preserves the learning problem.
//!
//! The tracker is also where CPU-frequency emulation lands (paper §8.6):
//! when the hardware profile's frequency is below base, `finish` spins until
//! the span's wall-clock time is stretched by `base/freq`, so slower clocks
//! genuinely produce longer measured (and experienced) latencies while the
//! synthesized cycle count stays frequency-invariant.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mb2_common::metrics::idx;
use mb2_common::{HardwareProfile, Metrics, OuKind, Prng};

use crate::context::ExecContext;

/// Receives one measurement per OU invocation. Implemented by MB2's metrics
/// collector; `None` in the execution context disables tracking (the paper's
/// "turn off the tracker outside training mode").
pub trait OuRecorder: Sync {
    /// `node_id` identifies the plan node (pre-order DFS index) so features
    /// generated from the plan can be joined with measurements.
    fn record(&self, node_id: u32, ou: OuKind, metrics: Metrics);

    /// Raw work accounting for the span, delivered before the synthesized
    /// [`Metrics`]. The default does nothing; differential tests implement
    /// this to assert the batch pipeline's per-OU tuple/byte features are
    /// exactly the per-operator totals.
    fn record_work(&self, node_id: u32, ou: OuKind, work: WorkCounts) {
        let _ = (node_id, ou, work);
    }
}

/// Work accounted during one OU span.
#[derive(Debug, Default, Clone, Copy)]
pub struct WorkCounts {
    pub tuples: u64,
    pub bytes: u64,
    pub hash_probes: u64,
    pub random_accesses: u64,
    pub comparisons: u64,
    pub allocated_bytes: u64,
    pub block_reads: u64,
    pub block_writes: u64,
}

impl WorkCounts {
    /// Fold another span's counts into this one (used when per-worker morsel
    /// accounting merges into a single per-(node, OU) span).
    pub fn merge(&mut self, other: &WorkCounts) {
        self.tuples += other.tuples;
        self.bytes += other.bytes;
        self.hash_probes += other.hash_probes;
        self.random_accesses += other.random_accesses;
        self.comparisons += other.comparisons;
        self.allocated_bytes += other.allocated_bytes;
        self.block_reads += other.block_reads;
        self.block_writes += other.block_writes;
    }
}

/// Work and wall time accounted for one (node, OU) away from its
/// [`OpSpan`]: by a pool worker, or by a scan between the pulls of its
/// serial operator. Folded into the span with [`OpSpan::add`].
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SpanAcct {
    pub work: WorkCounts,
    pub elapsed_us: f64,
}

impl SpanAcct {
    pub fn add(&mut self, work: &WorkCounts, elapsed_us: f64) {
        self.work.merge(work);
        self.elapsed_us += elapsed_us;
    }
}

/// Whether spans need tracking at all: a recorder is attached, or hardware
/// pacing must stretch spans even when metrics aren't collected.
pub(crate) fn tracking(ctx: &ExecContext<'_>) -> bool {
    ctx.recorder.is_some() || ctx.hw.slowdown() > 1.0
}

/// One OU span of one plan node: the guard every operator measures through.
/// Work folds into a single tracker across any number of timed sections
/// (`enter`/`exit`) and worker accounts (`add`); the measurement is recorded
/// exactly once, at `finish`. A span that never ran still records zero work,
/// so the recorder sees the plan's full `(node id, OU)` set. Inactive spans
/// (see [`tracking`]) cost one branch per call.
pub(crate) struct OpSpan {
    pub id: u32,
    pub ou: OuKind,
    tracker: Option<OuTracker>,
}

impl OpSpan {
    pub fn new(ctx: &ExecContext<'_>, id: u32, ou: OuKind) -> OpSpan {
        OpSpan {
            id,
            ou,
            tracker: tracking(ctx).then(OuTracker::start_paused),
        }
    }

    pub fn active(&self) -> bool {
        self.tracker.is_some()
    }

    /// Open a timed section.
    pub fn enter(&mut self) {
        if let Some(t) = self.tracker.as_mut() {
            t.resume();
        }
    }

    /// Close the current timed section (downstream operators run next).
    pub fn exit(&mut self) {
        if let Some(t) = self.tracker.as_mut() {
            t.pause();
        }
    }

    pub fn work(&mut self, f: impl FnOnce(&mut OuTracker)) {
        if let Some(t) = self.tracker.as_mut() {
            f(t);
        }
    }

    /// Fold work counted outside the span (and the wall time it took, if
    /// it was timed elsewhere) into the span.
    pub fn add(&mut self, work: &WorkCounts, elapsed_us: f64) {
        if let Some(t) = self.tracker.as_mut() {
            t.absorb(work, elapsed_us);
        }
    }

    /// Record the folded measurement. Idempotent.
    pub fn finish(&mut self, ctx: &ExecContext<'_>) {
        if let Some(tracker) = self.tracker.take() {
            let work = tracker.work;
            let metrics = tracker.finish(&ctx.hw);
            if let Some(r) = ctx.recorder {
                r.record_work(self.id, self.ou, work);
                r.record(self.id, self.ou, metrics);
            }
        }
    }
}

/// Per-process noise stream for synthesized counters (deterministic order
/// within a thread).
static NOISE_COUNTER: AtomicU64 = AtomicU64::new(0x5EED);

/// An in-flight OU measurement.
///
/// A span is a sequence of one or more timed *sections*: the batch executor
/// re-enters an operator once per batch, resuming the operator's tracker
/// around each section so the recorded elapsed time is the sum of the
/// operator's own work — per-batch work folds into one measurement per OU
/// invocation, exactly as a single materializing pass would have produced.
pub struct OuTracker {
    /// Start of the currently-open section (`None` while paused).
    open: Option<Instant>,
    /// Wall time accumulated by closed sections, in µs.
    accumulated_us: f64,
    pub work: WorkCounts,
    /// Time this span spent blocked (I/O, sleeps) rather than on-CPU, in µs.
    pub blocked_us: f64,
}

impl OuTracker {
    pub fn start() -> OuTracker {
        OuTracker {
            open: Some(Instant::now()),
            accumulated_us: 0.0,
            work: WorkCounts::default(),
            blocked_us: 0.0,
        }
    }

    /// A tracker with no open section (`resume` opens the first one). Used
    /// by batch operators whose span may accumulate work counts before any
    /// timed section runs.
    pub fn start_paused() -> OuTracker {
        OuTracker {
            open: None,
            accumulated_us: 0.0,
            work: WorkCounts::default(),
            blocked_us: 0.0,
        }
    }

    /// Open a new timed section (no-op if one is already open).
    pub fn resume(&mut self) {
        if self.open.is_none() {
            self.open = Some(Instant::now());
        }
    }

    /// Close the current timed section, folding it into the accumulated
    /// elapsed time (no-op if paused).
    pub fn pause(&mut self) {
        if let Some(started) = self.open.take() {
            self.accumulated_us += started.elapsed().as_nanos() as f64 / 1000.0;
        }
    }

    pub fn add_tuples(&mut self, n: u64) {
        self.work.tuples += n;
    }

    pub fn add_bytes(&mut self, n: u64) {
        self.work.bytes += n;
    }

    pub fn add_hash_probes(&mut self, n: u64) {
        self.work.hash_probes += n;
    }

    pub fn add_random_accesses(&mut self, n: u64) {
        self.work.random_accesses += n;
    }

    pub fn add_comparisons(&mut self, n: u64) {
        self.work.comparisons += n;
    }

    pub fn add_allocated(&mut self, n: u64) {
        self.work.allocated_bytes += n;
    }

    pub fn add_block_reads(&mut self, n: u64) {
        self.work.block_reads += n;
    }

    pub fn add_block_writes(&mut self, n: u64) {
        self.work.block_writes += n;
    }

    pub fn add_blocked_us(&mut self, us: f64) {
        self.blocked_us += us;
    }

    /// Fold a worker-side measurement into this span: work counts merge and
    /// the worker's wall time joins the accumulated elapsed time. Summing
    /// concurrent workers' spans measures true aggregate work (total CPU
    /// seconds spent on the OU), which is what the paper's OU models train
    /// on; frequency pacing is still applied exactly once, at `finish`.
    pub fn absorb(&mut self, work: &WorkCounts, elapsed_us: f64) {
        self.work.merge(work);
        self.accumulated_us += elapsed_us;
    }

    /// Close the span: apply frequency pacing, then synthesize the metric
    /// vector from measured elapsed time + accounted work.
    pub fn finish(mut self, hw: &HardwareProfile) -> Metrics {
        self.pause();
        let slowdown = hw.slowdown();
        if slowdown > 1.0 {
            // Stretch the span: spin until total elapsed reaches slowdown ×
            // busy time (the blocked portion is not stretched — I/O doesn't
            // get slower with the CPU clock).
            let on_cpu = (self.accumulated_us - self.blocked_us).max(0.0);
            let target_us = self.blocked_us + on_cpu * slowdown;
            if target_us > self.accumulated_us {
                let spin_start = Instant::now();
                let deficit_us = target_us - self.accumulated_us;
                while (spin_start.elapsed().as_nanos() as f64 / 1000.0) < deficit_us {
                    std::hint::spin_loop();
                }
                self.accumulated_us += spin_start.elapsed().as_nanos() as f64 / 1000.0;
            }
        }
        let elapsed_us = self.accumulated_us;
        let cpu_us = (elapsed_us - self.blocked_us).max(0.0);

        let mut rng = Prng::new(NOISE_COUNTER.fetch_add(1, Ordering::Relaxed));
        let mut noisy = |v: f64, sigma: f64| (v * (1.0 + sigma * rng.gaussian())).max(0.0);

        let w = &self.work;
        // Cycle count is frequency-invariant: cycles = on-CPU time × clock.
        let cycles = cpu_us * 1000.0 * hw.cpu_freq_ghz;
        let instructions = noisy(
            60.0 + 14.0 * w.tuples as f64
                + 0.55 * w.bytes as f64
                + 9.0 * w.hash_probes as f64
                + 4.0 * w.comparisons as f64
                + 25.0 * (w.block_reads + w.block_writes) as f64,
            0.05,
        );
        let cache_refs = noisy(
            8.0 + 4.0 * w.tuples as f64 + w.bytes as f64 / 64.0 + 3.0 * w.hash_probes as f64,
            0.08,
        );
        let cache_misses = noisy(
            1.0 + w.random_accesses as f64
                + 0.12 * (w.bytes as f64 / 64.0)
                + 0.7 * w.hash_probes as f64,
            0.15,
        );

        let mut m = Metrics::ZERO;
        m[idx::ELAPSED_US] = elapsed_us;
        m[idx::CPU_US] = cpu_us;
        m[idx::CYCLES] = cycles;
        m[idx::INSTRUCTIONS] = instructions;
        m[idx::CACHE_REFS] = cache_refs;
        m[idx::CACHE_MISSES] = cache_misses;
        m[idx::BLOCK_READS] = w.block_reads as f64;
        m[idx::BLOCK_WRITES] = w.block_writes as f64;
        m[idx::MEMORY_BYTES] = w.allocated_bytes as f64;
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_reflect_accounted_work() {
        let mut t = OuTracker::start();
        t.add_tuples(1000);
        t.add_bytes(64_000);
        t.add_allocated(4096);
        t.add_block_writes(2);
        let m = t.finish(&HardwareProfile::default());
        assert!(m[idx::ELAPSED_US] >= 0.0);
        assert!(m[idx::INSTRUCTIONS] > 10_000.0);
        assert!(m[idx::CACHE_REFS] > 4000.0);
        assert_eq!(m[idx::BLOCK_WRITES], 2.0);
        assert_eq!(m[idx::MEMORY_BYTES], 4096.0);
        assert!(!m.has_non_finite());
    }

    #[test]
    fn frequency_pacing_stretches_elapsed() {
        let work = || {
            let t = OuTracker::start();
            // Busy work for ~200µs.
            let until = Instant::now() + std::time::Duration::from_micros(200);
            while Instant::now() < until {
                std::hint::spin_loop();
            }
            t
        };
        // Each side is the fastest of several repetitions: a busy loop timed
        // by wall clock only ever gets slower when a concurrent test
        // preempts it, so the minimum is the measurement of the span itself.
        let fastest = |hw: &HardwareProfile| {
            (0..7)
                .map(|_| work().finish(hw))
                .min_by(|a, b| a[idx::ELAPSED_US].total_cmp(&b[idx::ELAPSED_US]))
                .expect("repetitions")
        };
        let base = fastest(&HardwareProfile::default());
        let half = fastest(&HardwareProfile::new(
            HardwareProfile::DEFAULT_BASE_GHZ / 2.0,
        ));
        let ratio = half[idx::ELAPSED_US] / base[idx::ELAPSED_US];
        assert!(ratio > 1.6 && ratio < 2.6, "ratio {ratio}");
        // Cycle counts stay roughly frequency-invariant.
        let cycle_ratio = half[idx::CYCLES] / base[idx::CYCLES];
        assert!(
            cycle_ratio > 0.7 && cycle_ratio < 1.4,
            "cycle ratio {cycle_ratio}"
        );
    }

    #[test]
    fn paused_sections_exclude_foreign_time() {
        let mut t = OuTracker::start();
        t.pause();
        // Time spent while paused (another operator's work) must not count.
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.resume();
        t.add_tuples(10);
        t.pause();
        let m = t.finish(&HardwareProfile::default());
        assert!(
            m[idx::ELAPSED_US] < 2000.0,
            "paused time leaked into the span: {}",
            m[idx::ELAPSED_US]
        );
    }

    #[test]
    fn blocked_time_excluded_from_cpu() {
        let mut t = OuTracker::start();
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.add_blocked_us(5000.0);
        let m = t.finish(&HardwareProfile::default());
        assert!(m[idx::ELAPSED_US] >= 5000.0);
        assert!(m[idx::CPU_US] < m[idx::ELAPSED_US] - 4000.0);
    }
}
