//! `selfcheck`: does the benchmark repeat within its own bounds? Two sets
//! of runs per workload on the same build, interleaved A B A B … (the host
//! drifts over minutes; interleaving gives both sets the same drift), each
//! run a child process with its own seed. Judged per metric: the spread
//! (IQR share) of each set and of both together, and the gap between the
//! two sets' medians.

use std::process::Command;

use crate::gen::WorkloadKind;
use crate::host::Fingerprint;
use crate::manifest::END_TO_END;
use crate::stats;

/// Pull `"name": {"value": X` out of a result line this program printed.
pub fn extract_metric(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let start = line.find(&key)? + key.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

fn one_run(kind: WorkloadKind, seed: u64, seconds: f64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", kind.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}: {}",
            kind.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    if !last.contains("\"correct\": true") {
        return Err(format!(
            "{} seed {seed} was not correct: {last}",
            kind.name()
        ));
    }
    Ok(last)
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative = better).
pub fn worsening(first: f64, second: f64, better: &str) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    if better == "lower" {
        (second - first) / first.abs()
    } else {
        (first - second) / first.abs()
    }
}

pub fn selfcheck(runs: usize, seconds: f64) -> Result<(), String> {
    let scratch = crate::host::scratch_dir().map_err(|e| format!("scratch dir: {e}"))?;
    println!(
        "mb2-ledger selfcheck: {runs} runs x 2 interleaved sets per workload, {seconds} s windows"
    );
    println!("host {}", Fingerprint::collect(&scratch).json());
    println!(
        "{:<15} {:<15} {:>12} {:>7} {:>12} {:>7} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "median_A", "iqr_A", "median_B", "iqr_B", "iqr_AB", "gap", "bound"
    );
    let mut violations = 0usize;
    for kind in WorkloadKind::ALL {
        let mut sets: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        for i in 0..runs {
            for (set, lines) in sets.iter_mut().enumerate() {
                lines.push(one_run(kind, (2 * i + set + 1) as u64, seconds)?);
            }
        }
        for metric in &END_TO_END {
            let values = |lines: &[String]| -> Result<Vec<f64>, String> {
                lines
                    .iter()
                    .map(|l| {
                        extract_metric(l, metric.name)
                            .ok_or_else(|| format!("no {} in: {l}", metric.name))
                    })
                    .collect()
            };
            let (a, b) = (values(&sets[0])?, values(&sets[1])?);
            let all: Vec<f64> = a.iter().chain(&b).copied().collect();
            let (iqr_a, iqr_b, iqr_all) = (
                stats::iqr_share(&a),
                stats::iqr_share(&b),
                stats::iqr_share(&all),
            );
            let gap = worsening(stats::median(&a), stats::median(&b), metric.better).max(
                worsening(stats::median(&b), stats::median(&a), metric.better),
            );
            // The set-up spread is reported, not judged; its medians are.
            let spread_ok =
                metric.name == "setup_s" || iqr_a.max(iqr_b).max(iqr_all) <= metric.bound;
            let ok = spread_ok && gap <= metric.bound;
            if !ok {
                violations += 1;
            }
            println!(
                "{:<15} {:<15} {:>12.4} {:>7.4} {:>12.4} {:>7.4} {:>7.4} {:>7.4} {:>6}  {}",
                kind.name(),
                metric.name,
                stats::median(&a),
                iqr_a,
                stats::median(&b),
                iqr_b,
                iqr_all,
                gap,
                metric.bound,
                if ok { "ok" } else { "VIOLATION" }
            );
        }
    }
    if violations > 0 {
        return Err(format!("{violations} metric(s) outside their bound"));
    }
    println!(
        "selfcheck passed: every spread and every gap between set medians is within its bound"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_values_come_back_out_of_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": \
                    {\"value\": 1.25, \"unit\": \"s\"}, \"ops_per_s\": {\"value\": 4031.5, \"unit\": \"1/s\"}}}";
        assert_eq!(extract_metric(line, "setup_s"), Some(1.25));
        assert_eq!(extract_metric(line, "ops_per_s"), Some(4031.5));
        assert_eq!(extract_metric(line, "latency_p50_us"), None);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "higher") + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
    }
}
