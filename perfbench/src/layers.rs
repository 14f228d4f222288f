//! Turns a traced replay (spans, `PassStats`, counters) and the
//! server's own `stats` into the per-layer metrics.

use serde_json::Value;

use crate::replay::Tally;
use crate::report::{Values, PER_LAYER};
use crate::stats::mean;
use crate::trace::Recorder;

/// Every per-layer metric at 0: a layer a workload does not exercise
/// keeps that value.
#[must_use]
pub fn zeroed() -> Values {
    PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect()
}

/// Span name → per-layer metric holding its mean self time in µs.
const SPAN_METRICS: [(&str, &str); 15] = [
    ("serve.parse", "serve.parse_us"),
    ("serve.key", "serve.key_us"),
    ("serve.encode", "serve.encode_us"),
    ("serve.wal_append", "serve.wal_append_us"),
    ("graph.resolve", "graph.resolve_us"),
    ("fpga.explore", "fpga.explore_us"),
    ("fpga.profile", "fpga.profile_us"),
    ("fusion.plan", "fusion.plan_us"),
    ("core.plan", "core.plan_us"),
    ("core.umm", "core.umm_us"),
    ("core.replan", "core.replan_us"),
    ("sim.run", "sim.run_us"),
    ("multi.coplan", "multi.coplan_us"),
    ("workload.prepare", "workload.prepare_us"),
    ("workload.simulate", "workload.simulate_us"),
];

/// Mean self time per call of every mapped span name, in µs.
pub fn span_means(values: &mut Values, rec: &Recorder) {
    let by_name = rec.by_name();
    for (span, metric) in SPAN_METRICS {
        if let (Some(&(count, total)), Some(slot)) = (by_name.get(span), values.get_mut(metric)) {
            *slot = total / count as f64 * 1e6;
        }
    }
    values.insert("trace.spans", rec.spans().len() as f64);
}

/// Pass timings, exact counters and ratios from the replay's tally.
pub fn tally_values(values: &mut Values, tally: &Tally) {
    let p = &tally.passes;
    if tally.plans > 0 {
        let per = |s: f64| s / tally.plans as f64 * 1e6;
        values.insert("core.liveness_us", per(p.liveness_seconds));
        values.insert("core.prefetch_us", per(p.prefetch_seconds));
        values.insert("core.alloc_split_us", per(p.alloc_split_seconds));
        values.insert("core.coloring_us", per(p.coloring_seconds));
    }
    values.insert("core.dnnk_dp_cells", p.dnnk_dp_cells as f64);
    values.insert("core.evaluator_calls", p.evaluator_calls as f64);
    values.insert("core.gain_cache_hits", p.gain_cache_hits as f64);
    values.insert("core.gain_cache_misses", p.gain_cache_misses as f64);
    values.insert(
        "core.gain_cache_hit_ratio",
        ratio(p.gain_cache_hits, p.gain_cache_hits + p.gain_cache_misses),
    );
    values.insert(
        "core.split_accept_ratio",
        ratio(p.splits_accepted, p.splits_accepted + p.splits_rejected),
    );
    values.insert(
        "core.harness_overhead_us",
        mean(&tally.harness_overhead) * 1e6,
    );
    values.insert("fusion.groups", tally.fusion_groups as f64);
    values.insert("graph.nodes_mean", mean(&tally.nodes));
    values.insert("multi.grid_points", tally.grid_points as f64);
    values.insert("workload.arrivals", tally.arrivals as f64);
}

/// `num / den`, 0 when nothing was attempted.
#[must_use]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Plan-cache, WAL, admission and artifact counters from a `stats`
/// reply.
pub fn server_stats(values: &mut Values, stats_reply: &str) -> Result<(), String> {
    let v: Value = serde_json::from_str(stats_reply).map_err(|e| format!("stats reply: {e}"))?;
    let s = v.get("stats").ok_or("stats reply has no stats")?;
    let int = |path: &[&str]| -> f64 {
        let mut cur = Some(s);
        for p in path {
            cur = cur.and_then(|c| c.get(p));
        }
        cur.and_then(Value::as_u64).unwrap_or(0) as f64
    };
    let (hits, misses) = (int(&["cache", "hits"]), int(&["cache", "misses"]));
    values.insert("serve.cache_hits", hits);
    values.insert("serve.cache_misses", misses);
    values.insert(
        "serve.cache_hit_ratio",
        ratio(hits as u64, (hits + misses) as u64),
    );
    values.insert("serve.cache_evictions", int(&["cache", "evictions"]));
    values.insert("serve.rejected", int(&["requests", "rejected"]));
    values.insert("serve.wal_bytes", int(&["wal", "log_bytes"]));
    let (ah, am) = (
        int(&["harness", "artifact_hits"]),
        int(&["harness", "artifact_misses"]),
    );
    values.insert(
        "core.artifact_hit_ratio",
        ratio(ah as u64, (ah + am) as u64),
    );
    Ok(())
}
