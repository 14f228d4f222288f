//! The benchmark's own tests: seeded generators, output checks, the
//! tail-percentile helper, and agreement with `BENCHMARK.json`.

use lcmm_perfbench::checks::{request_key, Ledger};
use lcmm_perfbench::gen::{cold_ops, scale_items, warm_spec, COLD_BLOCK, SCALE_BLOCK, WARM_BLOCK};
use lcmm_perfbench::report::{END_TO_END, PER_LAYER};
use lcmm_perfbench::stats::{percentile, sorted, summarize, tail_percentile, TAIL_SAMPLES};
use lcmm_serve::{Server, ServerConfig, WireResponse};

#[test]
fn generators_are_deterministic_per_seed() {
    assert_eq!(cold_ops(7, 2), cold_ops(7, 2));
    assert_ne!(cold_ops(7, 2), cold_ops(8, 2));
    assert_eq!(warm_spec(7, 3, 1), warm_spec(7, 3, 1));
    assert_ne!(warm_spec(7, 3, 1), warm_spec(8, 3, 1));
    assert_eq!(scale_items(7, 2), scale_items(7, 2));
    assert_ne!(scale_items(7, 2), scale_items(8, 2));
}

#[test]
fn generators_have_the_documented_shape() {
    let cold = cold_ops(3, 2);
    assert_eq!(cold.len(), 2 * COLD_BLOCK);
    let distinct: std::collections::HashSet<&str> =
        cold.iter().map(|op| request_key(&op.line)).collect();
    assert_eq!(
        distinct.len(),
        cold.len(),
        "every cold op is a distinct request"
    );
    let with_options = cold.iter().filter(|op| op.tensor_budget.is_some()).count();
    assert_eq!(
        with_options * 5,
        cold.len() * 2,
        "40% of cold ops set options"
    );
    assert_eq!(warm_spec(3, 4, 1).ops.len(), 4 * WARM_BLOCK);
    let scale = scale_items(3, 2);
    assert_eq!(scale.len(), 2 * SCALE_BLOCK);
    assert_eq!(scale.iter().filter(|i| i.table1).count(), 18);
}

#[test]
fn tail_percentile_leaves_ten_samples_beyond() {
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(tail_percentile(1_000), Some(99.0));
    assert_eq!(tail_percentile(999), Some(95.0));
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(19), None);
    for n in [20usize, 57, 200, 999, 1_000, 4_321, 10_000] {
        let p = tail_percentile(n).expect("enough samples");
        let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let cut = percentile(&sorted(&values), p);
        let beyond = values.iter().filter(|&&v| v > cut).count();
        assert!(beyond >= TAIL_SAMPLES, "n={n} p={p}: {beyond} beyond");
    }
}

#[test]
fn the_tail_is_the_median_of_window_tails() {
    // Three windows of 1000; the middle one stalls.
    let values: Vec<f64> = (0..3000)
        .map(|i| (i % 1000) as f64 + if (1000..2000).contains(&i) { 1e6 } else { 0.0 })
        .collect();
    let lat = summarize(&values, 1000);
    assert_eq!((lat.windows, lat.tail_percentile), (3, 99.0));
    assert_eq!(lat.tail, 989.0);
    // One window of everything: the p99 of the whole sample.
    let lat = summarize(&values[..2000], usize::MAX);
    assert_eq!((lat.windows, lat.tail), (1, 1e6 + 979.0));
    // Fewer samples than a window: the ladder percentile.
    let lat = summarize(&values[..500], 1000);
    assert_eq!((lat.windows, lat.tail_percentile), (1, 95.0));
}

#[test]
fn a_flipped_byte_in_a_cached_reply_fails_the_op() {
    let server = Server::start(ServerConfig::default().with_workers(1));
    let line = r#"{"id":1,"graph":"alexnet","precision":"8"}"#;
    let first = server.handle_line(line);
    let cached = server.handle_line(line);
    server.shutdown();
    assert!(cached.contains(r#""cached":true"#), "{cached}");

    let mut ledger = Ledger::default();
    let key = request_key(line);
    for reply in [&first, &cached] {
        let outcome = ledger_check(&mut ledger, reply, key);
        ledger.record(outcome);
    }
    assert_eq!((ledger.attempted, ledger.failed), (2, 0));

    // Flip one digit inside the plan payload.
    let at = cached.find("latency_seconds").expect("plan has a latency") + 18;
    let mut bytes = cached.clone().into_bytes();
    bytes[at] = if bytes[at] == b'1' { b'2' } else { b'1' };
    let flipped = String::from_utf8(bytes).expect("still UTF-8");
    assert_ne!(flipped, cached);
    let outcome = ledger_check(&mut ledger, &flipped, key);
    ledger.record(outcome);
    assert_eq!(ledger.failed, 1);
    assert!(fail_share(&ledger) > 0.0);
}

/// Failed ops over attempted ops, as the benchmark reports it.
fn fail_share(ledger: &Ledger) -> f64 {
    ledger.failed as f64 / ledger.attempted.max(1) as f64
}

fn ledger_check(ledger: &mut Ledger, reply: &str, key: &str) -> Result<(), String> {
    ledger.check_plan(reply, 1, key, None).map(|_| ())
}

#[test]
fn a_queue_rejection_fails_the_op() {
    let rejected = WireResponse::Error {
        id: Some(1),
        code: "queue_full".to_string(),
        message: "admission queue at capacity".to_string(),
    }
    .to_line();
    let mut ledger = Ledger::default();
    let outcome = ledger_check(&mut ledger, &rejected, "k");
    assert!(
        outcome.as_ref().is_err_and(|e| e.contains("queue_full")),
        "{outcome:?}"
    );
    ledger.record(outcome);
    assert_eq!(fail_share(&ledger), 1.0);
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(|v| v.as_str())
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), table(&END_TO_END));
    assert_eq!(listed("per_layer"), table(&PER_LAYER));
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(|v| v.as_array())
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(|v| v.as_str())
                .expect("workload name")
        })
        .collect();
    assert_eq!(workloads, lcmm_perfbench::WORKLOADS);
}
