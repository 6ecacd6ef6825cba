//! Metric names, the outcome of one run, and its printed forms.
//!
//! The end-to-end metrics are the same three names on every workload; what
//! "primary" and "secondary" time on each workload is listed in README.md.
//! The workload-specific names (`serve.distance_p50_us`, ...) are printed
//! beside them as comment lines and kept in the run record.

use crate::stats::{median, tail};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("primary_p50_ms", "ms"), ("secondary_p50_ms", "ms")];

/// Per-layer metrics reported by every workload with `--trace 1`.  A layer
/// the workload does not reach reports 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("seq.skeleton_ms", "ms"),
    ("seq.row_sweep_ms", "ms"),
    ("seq.row_sweeps", "count"),
    ("seq.fanout_speedup", "x"),
    ("rect.validate_ms", "ms"),
    ("locate.build_ms", "ms"),
    ("query.chains_ms", "ms"),
    ("sptree.tree_build_ms", "ms"),
    ("sptree.trees_built", "count"),
    ("sptree.path_extract_us", "us"),
    ("delta.apply_us", "us"),
    ("rect.validate_incremental_us", "us"),
    ("delta.rows_reused", "count"),
    ("delta.rows_rebuilt", "count"),
    ("delta.chains_reused", "count"),
    ("delta.chains_rebuilt", "count"),
    ("delta.slab_columns_reused", "count"),
    ("delta.slab_columns_rebuilt", "count"),
    ("delta.row_carry_ratio", "ratio"),
    ("delta.row_carry_base", "count"),
    ("plan.plan_us", "us"),
    ("plan.distinct_rows", "count"),
    ("store.row_hit_ratio", "ratio"),
    ("store.row_misses", "count"),
    ("store.resident_bytes", "bytes"),
    ("query.vertex_pair_ns", "ns"),
    ("query.point_pair_us", "us"),
    ("admission.wait_us", "us"),
    ("admission.batch_size", "count"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.frame_bytes", "bytes"),
    ("session.lookup_us", "us"),
    ("service.handle_distance_us", "us"),
    ("service.handle_batch_us", "us"),
    ("service.handle_paths_us", "us"),
    ("transport.remainder_us", "us"),
    ("separator.find_ms", "ms"),
    ("dnc.build_ms", "ms"),
    ("dnc.nodes", "count"),
    ("dnc.leaves", "count"),
    ("dnc.hanan_fallback_leaves", "count"),
    ("dnc.monge_products", "count"),
    ("dnc.general_products", "count"),
    ("dnc.monge_share", "ratio"),
    ("dnc.largest_boundary", "count"),
    ("unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// A workload-specific end-to-end figure printed beside the gated metrics.
#[derive(Clone, Debug)]
pub struct Named {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub detail: String,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Obstacle counts of every scene shape the workload used.
    pub sizes: Vec<usize>,
    /// Units of work attempted / failed (a wrong answer is a failure).
    pub attempted: u64,
    pub failed: u64,
    /// Seconds of each repeated set-up.
    pub setup_s: Vec<f64>,
    /// Primary and secondary operation times, ms.
    pub primary_ms: Vec<f64>,
    pub secondary_ms: Vec<f64>,
    pub peak_rss_mib: f64,
    /// Workload-specific end-to-end figures.
    pub named: Vec<Named>,
    /// Per-layer metrics (traced run only).
    pub layers: BTreeMap<&'static str, f64>,
    /// The traced run's spans and counters.
    pub tracer: Option<Tracer>,
    /// Configuration facts for the run record (`key=value`).
    pub config: Vec<(String, String)>,
    /// Raw samples behind each timing figure, for the run record.
    pub samples: Vec<(String, Vec<f64>)>,
}

impl Outcome {
    /// Add `prefix_p50` and `prefix_tail` figures for `samples_ms`, scaled
    /// into `unit` (`"us"` or `"ms"`).
    pub fn timing(&mut self, prefix: &str, unit: &'static str, samples_ms: &[f64]) {
        let scale = if unit == "us" { 1000.0 } else { 1.0 };
        let n = samples_ms.len();
        self.samples.push((format!("{prefix}_{unit}"), samples_ms.iter().map(|v| v * scale).collect()));
        if let Some(p50) = median(samples_ms) {
            self.named.push(Named {
                name: format!("{prefix}_p50_{unit}"),
                unit,
                value: p50 * scale,
                detail: format!("p50 of {n}"),
            });
        }
        let detail;
        let value = match tail(samples_ms) {
            Some(t) => {
                detail = format!("p{} of {n}, {} beyond", t.percentile, t.beyond);
                t.value * scale
            }
            None => {
                detail = format!("no percentile has 10 of {n} beyond");
                f64::NAN
            }
        };
        self.named.push(Named { name: format!("{prefix}_tail_{unit}"), unit, value, detail });
    }

    /// Add one workload-specific figure.
    pub fn figure(&mut self, name: &str, unit: &'static str, value: f64, detail: impl Into<String>) {
        self.named.push(Named { name: name.to_string(), unit, value, detail: detail.into() });
    }

    /// Record a configuration fact.
    pub fn config(&mut self, key: &str, value: impl ToString) {
        self.config.push((key.to_string(), value.to_string()));
    }

    /// The gated end-to-end values, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<f64> {
        vec![
            median(&self.setup_s).unwrap_or(f64::NAN),
            median(&self.primary_ms).unwrap_or(f64::NAN),
            median(&self.secondary_ms).unwrap_or(f64::NAN),
        ]
    }

    /// The per-layer values, in [`PER_LAYER`] order (0 for an unreached
    /// layer).
    pub fn per_layer(&self) -> Vec<f64> {
        PER_LAYER.iter().map(|(name, _)| self.layers.get(name).copied().unwrap_or(0.0)).collect()
    }
}

/// A JSON number (non-finite values become `null`).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let (names, values): (Vec<(&str, &str)>, Vec<f64>) =
        if traced { (PER_LAYER.to_vec(), outcome.per_layer()) } else { (END_TO_END.to_vec(), outcome.end_to_end()) };
    let mut metrics = String::new();
    for (i, ((name, unit), value)) in names.iter().zip(values).enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(metrics, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(value));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    )
}

/// Human-readable lines (each starting with `#`) printed before the result.
pub fn human_lines(workload: &str, outcome: &Outcome, traced: bool) -> Vec<String> {
    let mut lines = Vec::new();
    let config: Vec<String> = outcome.config.iter().map(|(k, v)| format!("{k}={v}")).collect();
    lines.push(format!("# workload={workload} {}", config.join(" ")));
    lines.push(format!(
        "# attempted={} failed={} failed_frac={}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    ));
    for ((name, unit), value) in END_TO_END.iter().zip(outcome.end_to_end()) {
        lines.push(format!("# {name:<36} {value:>14.4} {unit}"));
    }
    lines.push(format!("# {:<36} {:>14.4} MiB   (not gated: see README.md)", "peak_rss_mib", outcome.peak_rss_mib));
    for named in &outcome.named {
        lines.push(format!("# {:<36} {:>14.4} {:<5} ({})", named.name, named.value, named.unit, named.detail));
    }
    if traced {
        for ((name, unit), value) in PER_LAYER.iter().zip(outcome.per_layer()) {
            lines.push(format!("# {name:<36} {value:>14.4} {unit}"));
        }
    }
    lines
}

/// The run record: configuration, every figure and every metric, as JSON.
pub fn record_json(workload: &str, seed: u64, traced: bool, outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {traced}, \"peak_rss_mib\": {}, \"config\": {{",
        json_number(outcome.peak_rss_mib)
    );
    for (i, (k, v)) in outcome.config.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(out, "{sep}\"{k}\": \"{v}\"");
    }
    let _ = write!(out, "}}, \"named\": [");
    for (i, n) in outcome.named.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}{{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"detail\": \"{}\"}}",
            n.name,
            json_number(n.value),
            n.unit,
            n.detail
        );
    }
    let _ = write!(out, "], \"samples\": {{");
    for (i, (name, values)) in outcome.samples.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let values: Vec<String> = values.iter().map(|&v| json_number(v)).collect();
        let _ = write!(out, "{sep}\"{name}\": [{}]", values.join(", "));
    }
    let _ = write!(out, "}}, \"result\": {}}}", result_line(outcome, traced));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit}");
            assert!(seen.insert(*name), "duplicate metric {name}");
        }
    }

    #[test]
    fn timing_names_are_well_formed() {
        let mut outcome = Outcome::default();
        outcome.timing("serve.distance", "us", &[1.0; 30]);
        for named in &outcome.named {
            assert!(valid_name(&named.name), "bad figure name {}", named.name);
        }
        assert_eq!(outcome.named[0].value, 1000.0);
        assert_eq!(outcome.named[1].detail, "p50 of 30, 15 beyond");
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = text.split_whitespace().collect();
        let section = |key: &str, next: &str| -> String {
            let start = compact.find(&format!("\"{key}\":[")).expect("section present");
            let end = compact[start..].find(&format!("\"{next}\":")).map_or(compact.len(), |e| start + e);
            compact[start..end].to_string()
        };
        let e2e = section("end_to_end", "per_layer");
        let per_layer = section("per_layer", "zzz");
        for (name, unit) in END_TO_END {
            assert!(e2e.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")), "{name} missing");
        }
        for (name, unit) in PER_LAYER {
            assert!(per_layer.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")), "{name} missing");
        }
        assert_eq!(e2e.matches("\"name\":").count(), END_TO_END.len());
        assert_eq!(per_layer.matches("\"name\":").count(), PER_LAYER.len());
    }

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let outcome = Outcome { attempted: 3, ..Outcome::default() };
        let line = result_line(&outcome, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        assert_eq!(result_line(&outcome, true).matches("\"unit\"").count(), PER_LAYER.len());
    }
}
