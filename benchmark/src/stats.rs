//! The statistics every metric is built from: medians of slices, and
//! per-template percentiles combined by geometric mean.

use mb2_common::stats::percentile;
pub use mb2_common::stats::{mean, median};

/// Samples a template needs before its p95 is trusted: p95 keeps at least
/// ten samples beyond it only from 200 samples up; 220 leaves a margin.
pub const SAMPLE_FLOOR: usize = 220;

/// First and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4, 1-based, linearly interpolated and clamped.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Completed operations per second as the median over equal slices of
/// measured time. `completions` are the ascending measured-time offsets
/// (seconds since the window opened) at which each operation completed.
/// A slice's rate is its operation count over the time from the last
/// completion before it to its own last completion, so no partial
/// operation is charged to either side of a boundary.
pub fn median_slice_rate(completions: &[f64], slices: usize, slice_s: f64) -> f64 {
    median(&slice_rates(completions, slices, slice_s))
}

pub fn slice_rates(completions: &[f64], slices: usize, slice_s: f64) -> Vec<f64> {
    let mut counts = vec![0usize; slices];
    let mut ends = vec![0.0f64; slices];
    for &t in completions {
        let k = (t / slice_s) as usize;
        if k < slices {
            counts[k] += 1;
            ends[k] = t;
        }
    }
    let mut previous_end = 0.0;
    (0..slices)
        .map(|k| {
            if counts[k] == 0 {
                return 0.0;
            }
            let rate = counts[k] as f64 / (ends[k] - previous_end);
            previous_end = ends[k];
            rate
        })
        .collect()
}

/// One template's latency summary.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateLatency {
    pub name: &'static str,
    pub samples: usize,
    pub p50_us: f64,
    pub p95_us: f64,
}

/// Per-template percentiles and their geometric means. A pooled
/// percentile parks on the cliff between cheap and dear templates; the
/// geometric mean of per-template percentiles moves when any template
/// moves, by that template's share.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    pub templates: Vec<TemplateLatency>,
    pub p50_us: f64,
    pub p95_us: f64,
}

/// Summarize per-template latency samples (µs). Fails when any template
/// has fewer than [`SAMPLE_FLOOR`] samples: its p95 would rest on fewer
/// than ten samples beyond it.
pub fn summarize_latencies(
    per_template: &[(&'static str, Vec<f64>)],
    floor: usize,
) -> Result<LatencySummary, String> {
    let mut templates = Vec::with_capacity(per_template.len());
    for (name, samples) in per_template {
        if samples.len() < floor {
            return Err(format!(
                "template '{name}' completed {} times, below the {floor}-sample floor",
                samples.len()
            ));
        }
        templates.push(TemplateLatency {
            name,
            samples: samples.len(),
            p50_us: percentile(samples, 50.0),
            p95_us: percentile(samples, 95.0),
        });
    }
    let p50s: Vec<f64> = templates.iter().map(|t| t.p50_us).collect();
    let p95s: Vec<f64> = templates.iter().map(|t| t.p95_us).collect();
    Ok(LatencySummary {
        p50_us: geometric_mean(&p50s),
        p95_us: geometric_mean(&p95s),
        templates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_slices_ignores_one_stalled_slice() {
        // Five 1 s slices at 100 ops/s, except the third stalls at 10.
        let mut completions = Vec::new();
        for slice in 0..5 {
            let n = if slice == 2 { 10 } else { 100 };
            for i in 0..n {
                completions.push(slice as f64 + (i as f64 + 0.5) / n as f64);
            }
        }
        let rate = median_slice_rate(&completions, 5, 1.0);
        assert!((rate - 100.0).abs() < 1.0, "{rate}");
        // The whole-window rate would have read 82.
        assert_eq!(completions.len(), 410);
        // Completions past the last slice are not counted anywhere.
        completions.push(5.2);
        assert_eq!(median_slice_rate(&completions, 5, 1.0), rate);
        // An empty slice reads zero instead of dividing by nothing.
        assert_eq!(slice_rates(&[0.5, 2.5], 3, 1.0), vec![2.0, 0.0, 0.5]);
    }

    #[test]
    fn per_template_percentiles_combine_by_geometric_mean() {
        let cheap: Vec<f64> = (1..=1000).map(|i| i as f64 / 10.0).collect(); // 0.1..100
        let dear: Vec<f64> = (1..=1000).map(|i| 1000.0 + i as f64).collect(); // 1001..2000
        let s = summarize_latencies(&[("cheap", cheap), ("dear", dear)], SAMPLE_FLOOR).unwrap();
        let close = |a: f64, b: f64| (a - b).abs() < 0.1;
        assert!(close(s.templates[0].p50_us, 50.0) && close(s.templates[0].p95_us, 95.0));
        assert!(close(s.templates[1].p50_us, 1500.5) && close(s.templates[1].p95_us, 1950.0));
        // A pooled median would sit on the cliff between the two templates;
        // the geometric mean sits between their medians.
        let want_p50 = (s.templates[0].p50_us * s.templates[1].p50_us).sqrt();
        let want_p95 = (s.templates[0].p95_us * s.templates[1].p95_us).sqrt();
        assert!((s.p50_us - want_p50).abs() < 1e-9 && (s.p95_us - want_p95).abs() < 1e-9);
    }

    #[test]
    fn template_below_the_sample_floor_fails_the_run() {
        let enough: Vec<f64> = vec![1.0; SAMPLE_FLOOR];
        let short: Vec<f64> = vec![1.0; SAMPLE_FLOOR - 1];
        assert!(summarize_latencies(&[("a", enough.clone())], SAMPLE_FLOOR).is_ok());
        let err = summarize_latencies(&[("a", enough), ("rare", short)], SAMPLE_FLOOR).unwrap_err();
        assert!(err.contains("rare") && err.contains("219"), "{err}");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
