//! The benchmark's interface in one place: metric names, units, directions
//! and bounds. `mb2-ledger manifest` renders it as `BENCHMARK.json`.

use mb2_common::OuKind;

use crate::gen::{all_templates, WorkloadKind};
use crate::json;

/// Measured seconds of one run's timed window.
pub const RUN_SECONDS: u64 = 20;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen. Each is
    /// at least three times the widest run-to-run spread (IQR over ten
    /// seeds) seen on the builder's host; see README "Bounds".
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.15,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "latency_p95_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ok_share",
        unit: "ratio",
        better: "higher",
        bound: 0.001,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "recovery_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

/// The execution OUs the ledger breaks `exec.run` into, with their metric
/// spelling.
pub const EXEC_OUS: [(OuKind, &str); 14] = [
    (OuKind::SeqScan, "seq_scan"),
    (OuKind::BlockScan, "block_scan"),
    (OuKind::IdxScan, "idx_scan"),
    (OuKind::ArithmeticFilter, "arithmetic_filter"),
    (OuKind::JoinHashBuild, "hashjoin_build"),
    (OuKind::JoinHashProbe, "hashjoin_probe"),
    (OuKind::AggBuild, "agg_build"),
    (OuKind::AggProbe, "agg_probe"),
    (OuKind::SortBuild, "sort_build"),
    (OuKind::SortIter, "sort_iter"),
    (OuKind::OutputResult, "output"),
    (OuKind::InsertTuple, "insert"),
    (OuKind::UpdateTuple, "update"),
    (OuKind::DeleteTuple, "delete"),
];

pub fn per_layer() -> Vec<PerLayer> {
    let fixed: [(&str, &str, &str); 47] = [
        ("server.rtt_floor_us", "us", "lower"),
        ("server.wire_req_ns", "ns", "lower"),
        ("server.wire_resp_ns_per_row", "ns", "lower"),
        ("server.admit_ns", "ns", "lower"),
        ("server.shed_share", "ratio", "lower"),
        ("server.unattributed_share", "ratio", "lower"),
        ("server.two_conn_speedup", "ratio", "higher"),
        ("sql.parse_ns", "ns", "lower"),
        ("sql.plan_ns", "ns", "lower"),
        ("sql.rows_examined_per_row_returned", "ratio", "lower"),
        ("engine.plan_cache_hit_ratio", "ratio", "higher"),
        ("engine.plan_cache_hit_ns", "ns", "lower"),
        ("engine.plan_cache_miss_ns", "ns", "lower"),
        ("engine.exec_autocommit_us", "us", "lower"),
        ("engine.recovery_krec_per_s", "krec/s", "higher"),
        ("core.predict_ns_per_plan", "ns", "lower"),
        ("core.ous_per_plan", "count", "lower"),
        ("core.predict_rel_err_p50", "ratio", "lower"),
        ("core.train_s", "s", "lower"),
        ("exec.run_us_per_stmt", "us", "lower"),
        ("exec.rows_per_s", "1/s", "higher"),
        ("exec.pool_morsels", "count", "lower"),
        ("exec.pool_steals", "count", "lower"),
        ("exec.parallel_speedup", "ratio", "higher"),
        ("storage.block_scan_share", "ratio", "higher"),
        ("storage.block_dirty_share", "ratio", "lower"),
        ("storage.zone_skips", "count", "higher"),
        ("storage.versions_per_tuple", "ratio", "lower"),
        ("storage.rss_bytes_per_user_byte", "ratio", "lower"),
        ("index.lookup_ns", "ns", "lower"),
        ("index.latch_contended_share", "ratio", "lower"),
        ("txn.begin_ns", "ns", "lower"),
        ("txn.commit_us", "us", "lower"),
        ("txn.abort_share", "ratio", "lower"),
        ("txn.gc_pass_us", "us", "lower"),
        ("txn.gc_versions_reclaimed", "count", "lower"),
        ("txn.compaction_pass_us", "us", "lower"),
        ("txn.units_resealed", "count", "lower"),
        ("wal.bytes_per_txn", "B", "lower"),
        ("wal.flushes_per_txn", "ratio", "lower"),
        ("wal.fsyncs_per_txn", "ratio", "lower"),
        ("wal.flush_us_p50", "us", "lower"),
        ("wal.fsync_us_p50", "us", "lower"),
        ("bench.trace_overhead_share", "ratio", "lower"),
        ("bench.calib_ms", "ms", "lower"),
        ("bench.calib_drift_share", "ratio", "lower"),
        ("bench.client_gen_ns_per_op", "ns", "lower"),
    ];
    let mut out: Vec<PerLayer> = Vec::with_capacity(fixed.len() + EXEC_OUS.len() + 24);
    for (name, unit, better) in fixed {
        out.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
        });
        // Keep each layer's metrics together: the OUs close the exec block.
        if name == "exec.parallel_speedup" {
            out.extend(EXEC_OUS.iter().map(|(_, spelling)| PerLayer {
                name: format!("exec.ou.{spelling}_us"),
                unit: "us",
                better: "lower",
            }));
        }
    }
    for template in all_templates() {
        out.push(PerLayer {
            name: template_metric(template),
            unit: "us",
            better: "lower",
        });
    }
    out
}

pub fn template_metric(template: &str) -> String {
    format!("tmpl.{template}.p50_us")
}

/// The driver's command line, up to the arguments it appends.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, byte for byte.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    let command: Vec<String> = COMMAND.iter().map(|c| json::string(c)).collect();
    s.push_str(&format!("  \"command\": [{}],\n", command.join(", ")));
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let workloads: Vec<String> = WorkloadKind::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::string(w.name()),
                json::string(w.why())
            )
        })
        .collect();
    s.push_str(&workloads.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json::string(m.name),
                json::string(m.unit),
                json::string(m.better),
                json::number(m.bound)
            )
        })
        .collect();
    s.push_str(&e2e.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::string(&m.name),
                json::string(m.unit),
                json::string(m.better)
            )
        })
        .collect();
    s.push_str(&layers.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn manifest_stays_inside_the_contract_limits() {
        let layers = per_layer();
        assert_eq!(layers.len(), 85);
        assert!(layers.len() <= 128);
        let mut names: Vec<String> = layers.iter().map(|m| m.name.clone()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        names.extend(WorkloadKind::ALL.iter().map(|w| w.name().to_string()));
        for name in &names {
            assert!(name_ok(name), "bad name {name}");
        }
        let unique: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in &layers {
            assert!(unit_ok(m.unit), "bad unit {}", m.unit);
            assert!(m.better == "lower" || m.better == "higher");
        }
        for m in &END_TO_END {
            assert!(unit_ok(m.unit));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        for w in WorkloadKind::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
