//! Panic-containment and health-watcher tests, driven through the
//! `debug:` fault-injection hooks: an injected worker panic, a
//! genuinely poisoned shared lock, and a wedged worker must each leave
//! the daemon fully serviceable.

use lcmm_serve::{Server, ServerConfig};
use serde_json::Value;
use std::time::{Duration, Instant};

fn parse(line: &str) -> Value {
    serde_json::from_str(line).unwrap_or_else(|e| panic!("non-JSON response {line:?}: {e}"))
}

fn error_code(line: &str) -> Option<String> {
    parse(line)
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
        .map(str::to_string)
}

fn stat_u64(server: &Server, section: &str, field: &str) -> u64 {
    let v = parse(&server.handle_line(r#"{"op":"stats"}"#));
    v.get("stats")
        .and_then(|s| s.get(section))
        .and_then(|s| s.get(field))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing stats.{section}.{field}"))
}

#[test]
fn injected_panic_is_contained_and_requests_keep_succeeding() {
    let server = Server::start(
        ServerConfig::default()
            .with_workers(2)
            .with_debug_hooks(true),
    );
    let crash = server.handle_line(r#"{"graph":"debug:panic","id":1}"#);
    assert_eq!(error_code(&crash).as_deref(), Some("internal_error"));
    assert!(crash.contains("injected worker panic"), "{crash}");
    // The panic was caught inside the worker: subsequent unrelated
    // requests succeed on the same pool.
    for _ in 0..3 {
        let ok = server.handle_line(r#"{"graph":"alexnet"}"#);
        assert!(ok.contains("\"ok\":true"), "{ok}");
    }
    assert!(stat_u64(&server, "requests", "errors") >= 1);
    server.shutdown();
}

#[test]
fn poisoned_shared_lock_is_recovered_not_propagated() {
    let server = Server::start(
        ServerConfig::default()
            .with_workers(2)
            .with_debug_hooks(true),
    );
    // The hook genuinely poisons the histograms mutex (a panic while
    // holding it) and then panics in the worker too.
    let crash = server.handle_line(r#"{"graph":"debug:poison","id":1}"#);
    assert_eq!(error_code(&crash).as_deref(), Some("internal_error"));
    // Before the sweep this next line crashed the daemon: stats locks
    // the poisoned histograms mutex.
    let stats = server.handle_line(r#"{"op":"stats"}"#);
    assert!(stats.contains("\"ok\":true"), "{stats}");
    // And a computed plan records into the same poisoned lock.
    let plan = server.handle_line(r#"{"graph":"squeezenet"}"#);
    assert!(plan.contains("\"ok\":true"), "{plan}");
    server.shutdown();
}

#[test]
fn stalled_worker_is_recycled_with_a_typed_error() {
    let server = Server::start(
        ServerConfig::default()
            .with_workers(1)
            .with_debug_hooks(true)
            .with_stall_budget(Some(Duration::from_millis(150))),
    );
    // One worker, wedged for far longer than the stall budget: the
    // watcher must fail the request instead of hanging this thread.
    let started = Instant::now();
    let stuck = server.handle_line(r#"{"graph":"debug:stall:60000","id":9}"#);
    assert_eq!(
        error_code(&stuck).as_deref(),
        Some("worker_recycled"),
        "{stuck}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "recycle must beat the 60s stall by a wide margin"
    );
    assert_eq!(parse(&stuck).get("id").and_then(Value::as_u64), Some(9));
    // The replacement worker serves immediately — the pool never
    // shrank, even with workers=1.
    let ok = server.handle_line(r#"{"graph":"alexnet"}"#);
    assert!(ok.contains("\"ok\":true"), "{ok}");
    assert_eq!(stat_u64(&server, "health", "recycled"), 1);
    server.shutdown();
}

/// A plan request line for `json` sent as an inline graph.
fn inline_plan(json: &str) -> String {
    format!(r#"{{"id":1,"graph":{{"inline":{json}}}}}"#)
}

/// Compact JSON of alexnet, as `lcmm export --json` encodes it.
fn alexnet_json() -> String {
    serde_json::to_string(&lcmm_graph::zoo::alexnet()).expect("graph serialises")
}

/// Alexnet's JSON with the first `from` replaced by `to`.
fn edited(from: &str, to: &str) -> String {
    let json = alexnet_json();
    let out = json.replacen(from, to, 1);
    assert_ne!(out, json, "edit target {from} not found");
    out
}

/// Alexnet's JSON with the span from its top-level `field` up to the
/// graph's trailing `output` id replaced by `field` = `value` (the
/// output id is the last field of the encoding).
fn with_tail(field: &str, value: &str) -> String {
    let json = alexnet_json();
    let at = json
        .rfind(&format!(r#","{field}":"#))
        .expect("field present");
    let tail = if field == "output" {
        "}"
    } else {
        &json[json.rfind(r#","output":"#).unwrap()..]
    };
    format!(r#"{},"{field}":{value}{tail}"#, &json[..at])
}

#[test]
fn malformed_inline_graphs_are_typed_errors_not_panics() {
    let server = Server::start(ServerConfig::default().with_workers(2));
    let malformed = [
        (
            "dangling input id",
            edited(r#""inputs":[0]"#, r#""inputs":[99]"#),
        ),
        ("dangling output id", with_tail("output", "99")),
        ("cycle", edited(r#""inputs":[0]"#, r#""inputs":[3]"#)),
        ("node id not its index", edited(r#""id":2,"#, r#""id":7,"#)),
    ];
    for (what, json) in &malformed {
        let reply = server.handle_line(&inline_plan(json));
        assert_eq!(
            error_code(&reply).as_deref(),
            Some("bad_request"),
            "{what}: {reply}"
        );
    }
    // Rejected at decode, before any worker saw them: the pool is
    // intact and keeps planning.
    assert_eq!(stat_u64(&server, "requests", "errors"), 0);
    let ok = server.handle_line(r#"{"graph":"alexnet"}"#);
    assert!(ok.contains("\"ok\":true"), "{ok}");
    server.shutdown();
}

#[test]
fn inconsistent_inline_graphs_are_bad_requests() {
    // Structurally sound graphs whose content the builder would never
    // have produced: decoding re-checks names and stored shapes.
    let server = Server::start(ServerConfig::default().with_workers(1));
    let inconsistent = [
        (
            "conv1 stride 4 -> 5, stored shapes unchanged",
            edited(r#""stride_h":4"#, r#""stride_h":5"#),
        ),
        (
            "two nodes named conv1",
            edited(r#""name":"conv2""#, r#""name":"conv1""#),
        ),
    ];
    for (what, json) in &inconsistent {
        let reply = server.handle_line(&inline_plan(json));
        assert_eq!(
            error_code(&reply).as_deref(),
            Some("bad_request"),
            "{what}: {reply}"
        );
    }
    let ok = server.handle_line(&inline_plan(&alexnet_json()));
    assert!(ok.contains("\"ok\":true"), "{ok}");
    server.shutdown();
}

#[test]
fn inline_consumer_lists_are_rebuilt_not_trusted() {
    // Consumers are derived from inputs: an emptied list plans to the
    // same bytes as the valid graph.
    let answer = |json: &str| {
        let server = Server::start(ServerConfig::default().with_workers(1));
        let reply = server.handle_line(&inline_plan(json));
        server.shutdown();
        reply
    };
    let emptied = answer(&with_tail("consumers", "[]"));
    assert!(emptied.contains("\"ok\":true"), "{emptied}");
    assert_eq!(emptied, answer(&alexnet_json()));
}
