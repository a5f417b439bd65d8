//! Engine-level metric families: sessions and per-statement-kind series.
//!
//! Statement kinds are coarse on purpose — the per-OU histograms from
//! [`mb2_exec::ObsRecorder`] carry the fine-grained decomposition; these
//! families answer the operator-facing question "how is query latency, by
//! verb" without any label-cardinality risk.

use std::sync::Arc;

use mb2_obs::{Counter, Histogram, MetricsRegistry};
use mb2_sql::PlanNode;

/// Coarse statement classification used as the `kind` label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StatementKind {
    Select,
    Insert,
    Update,
    Delete,
    Ddl,
}

impl StatementKind {
    fn label(self) -> &'static str {
        match self {
            StatementKind::Select => "select",
            StatementKind::Insert => "insert",
            StatementKind::Update => "update",
            StatementKind::Delete => "delete",
            StatementKind::Ddl => "ddl",
        }
    }

    const ALL: [StatementKind; 5] = [
        StatementKind::Select,
        StatementKind::Insert,
        StatementKind::Update,
        StatementKind::Delete,
        StatementKind::Ddl,
    ];
}

/// Classify a plan by its root node. Anything that is not a write or an
/// index build is a read (`select`).
pub(crate) fn classify(plan: &PlanNode) -> StatementKind {
    match plan {
        PlanNode::Insert { .. } => StatementKind::Insert,
        PlanNode::Update { .. } => StatementKind::Update,
        PlanNode::Delete { .. } => StatementKind::Delete,
        PlanNode::CreateIndex { .. } => StatementKind::Ddl,
        _ => StatementKind::Select,
    }
}

/// One `kind`-labelled slice of the statement families.
pub(crate) struct StmtSeries {
    pub count: Arc<Counter>,
    pub errors: Arc<Counter>,
    pub latency_us: Arc<Histogram>,
}

/// Handles for everything the engine layer itself publishes.
pub(crate) struct EngineMetrics {
    pub sessions: Arc<Counter>,
    pub plan_cache_hits: Arc<Counter>,
    pub plan_cache_misses: Arc<Counter>,
    stmt: [StmtSeries; 5],
}

impl EngineMetrics {
    pub fn new(registry: &MetricsRegistry) -> EngineMetrics {
        let stmt = StatementKind::ALL.map(|kind| {
            let labels = [("kind", kind.label())];
            StmtSeries {
                count: registry.counter_with(
                    "mb2_stmt_total",
                    &labels,
                    "Statements executed, by kind.",
                ),
                errors: registry.counter_with(
                    "mb2_stmt_errors_total",
                    &labels,
                    "Statements that returned an error, by kind.",
                ),
                latency_us: registry.histogram_with(
                    "mb2_stmt_latency_us",
                    &labels,
                    "End-to-end statement latency in microseconds, by kind.",
                ),
            }
        });
        EngineMetrics {
            sessions: registry.counter("mb2_sessions_total", "Sessions opened."),
            plan_cache_hits: registry.counter(
                "mb2_plan_cache_hits_total",
                "Plan-cache lookups answered from the cache (admission pricing and statement resolution).",
            ),
            plan_cache_misses: registry.counter(
                "mb2_plan_cache_misses_total",
                "prepare_cached lookups that parsed and planned anew.",
            ),
            stmt,
        }
    }

    pub fn stmt(&self, kind: StatementKind) -> &StmtSeries {
        &self.stmt[StatementKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("every kind is in ALL")]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_has_a_series() {
        let registry = MetricsRegistry::new();
        let m = EngineMetrics::new(&registry);
        for kind in StatementKind::ALL {
            m.stmt(kind).count.inc();
        }
        let text = registry.prometheus_text();
        for label in ["select", "insert", "update", "delete", "ddl"] {
            assert!(text.contains(&format!("mb2_stmt_total{{kind=\"{label}\"}} 1")));
        }
    }
}
