//! Metric names and units, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics (printed with `--trace 0`), as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "fraction"),
    ("model_speedup_geomean", "x"),
    ("model_latency_ms", "ms"),
];

/// Per-layer metrics (printed with `--trace 1`), as in `BENCHMARK.json`.
/// A layer a workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("serve.parse_us", "us"),
    ("serve.key_us", "us"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.wal_append_us", "us"),
    ("serve.wal_bytes", "bytes"),
    ("serve.encode_us", "us"),
    ("serve.unattributed_ms", "ms"),
    ("serve.rejected", "count"),
    ("graph.resolve_us", "us"),
    ("graph.nodes_mean", "nodes"),
    ("fpga.explore_us", "us"),
    ("fpga.profile_us", "us"),
    ("fusion.plan_us", "us"),
    ("fusion.groups", "count"),
    ("core.plan_us", "us"),
    ("core.liveness_us", "us"),
    ("core.prefetch_us", "us"),
    ("core.alloc_split_us", "us"),
    ("core.coloring_us", "us"),
    ("core.umm_us", "us"),
    ("core.harness_overhead_us", "us"),
    ("core.dnnk_dp_cells", "count"),
    ("core.evaluator_calls", "count"),
    ("core.gain_cache_hits", "count"),
    ("core.gain_cache_misses", "count"),
    ("core.gain_cache_hit_ratio", "ratio"),
    ("core.split_accept_ratio", "ratio"),
    ("core.artifact_hit_ratio", "ratio"),
    ("core.replan_us", "us"),
    ("core.paper_dev_pct", "%"),
    ("sim.run_us", "us"),
    ("sim.ratio_max", "ratio"),
    ("multi.coplan_us", "us"),
    ("multi.grid_points", "count"),
    ("workload.prepare_us", "us"),
    ("workload.simulate_us", "us"),
    ("workload.arrivals", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.ops", "count"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed a check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: Values,
    /// Free-form notes for standard error (sample counts, percentiles).
    pub notes: Vec<String>,
}

/// Renders the result line for `table`: every metric of the table, in
/// order, each with its unit. Counts that are whole print as integers
/// so two runs compare them exactly.
///
/// # Errors
///
/// A metric of `table` missing from `values` or not finite — a bug in
/// the workload that should have produced it.
pub fn result_line(
    outcome: &Outcome,
    table: &[(&'static str, &'static str)],
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = *outcome
            .values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        let rendered = if unit == "count" && value.fract() == 0.0 && value.abs() < 9.0e15 {
            format!("{}", value as i64)
        } else {
            format!("{value:?}")
        };
        metrics.push(format!(
            r#""{name}": {{"value": {rendered}, "unit": "{unit}"}}"#
        ));
    }
    Ok(format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}
