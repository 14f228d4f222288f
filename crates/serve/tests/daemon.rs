//! In-process daemon integration tests: 64 concurrent requests with
//! duplicates, deadlines, admission pressure, and a draining shutdown.
//!
//! These drive [`Server::handle_line`] directly from client threads —
//! the same transport-independent path the stdio/TCP/Unix loops use —
//! so the whole daemon contract is tested without opening sockets.

use lcmm_serve::{Server, ServerConfig};
use serde_json::Value;
use std::sync::Arc;

fn parse(line: &str) -> Value {
    serde_json::from_str(line).unwrap_or_else(|e| panic!("non-JSON response {line:?}: {e}"))
}

fn error_code(v: &Value) -> Option<String> {
    v.get("error")
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

/// The tentpole acceptance test: 64 concurrent requests — 16 duplicates
/// of one plan, a mixed zoo/synthetic load, and a batch of
/// already-expired deadlines — answered with zero panics, byte-identical
/// cache hits, and typed timeout errors.
#[test]
fn sixty_four_concurrent_requests() {
    let server = Arc::new(Server::start(
        ServerConfig::default()
            .with_workers(4)
            .with_queue_capacity(64),
    ));
    let duplicate_line = r#"{"graph":"alexnet","precision":"8"}"#;
    let mut handles = Vec::new();
    for i in 0..64u64 {
        let server = Arc::clone(&server);
        handles.push(std::thread::spawn(move || {
            let line = match i % 4 {
                // 16 byte-identical duplicates — must collapse onto one
                // cached plan.
                0 => duplicate_line.to_string(),
                // 16 already-expired deadlines on big unique graphs —
                // must come back as typed timeouts, not hang or panic.
                1 => format!(r#"{{"graph":"synthetic:512x4x{i}","deadline_ms":0,"id":{i}}}"#),
                // Unique small synthetics.
                2 => format!(r#"{{"graph":"synthetic:48x3x{i}","id":{i}}}"#),
                // Zoo models (repeated across threads — more duplicates).
                _ => {
                    let model =
                        ["alexnet", "squeezenet", "googlenet", "vgg16"][(i as usize / 4) % 4];
                    format!(r#"{{"graph":"{model}","id":{i}}}"#)
                }
            };
            (i, server.handle_line(&line))
        }));
    }
    let mut duplicate_responses = Vec::new();
    for handle in handles {
        let (i, line) = handle.join().expect("client thread must not panic");
        let v = parse(&line);
        match i % 4 {
            0 => duplicate_responses.push((line.clone(), v)),
            1 => {
                assert_eq!(
                    error_code(&v).as_deref(),
                    Some("timeout"),
                    "expired deadline must time out: {line}"
                );
                assert_eq!(v.get("id").and_then(Value::as_u64), Some(i));
            }
            _ => {
                assert_eq!(
                    v.get("ok").and_then(Value::as_bool),
                    Some(true),
                    "plan failed: {line}"
                );
                assert_eq!(v.get("id").and_then(Value::as_u64), Some(i));
            }
        }
    }
    // Every duplicate answered with the same plan payload...
    assert_eq!(duplicate_responses.len(), 16);
    let reference = duplicate_responses[0].1.get("plan").cloned().expect("plan");
    for (line, v) in &duplicate_responses {
        assert_eq!(v.get("plan"), Some(&reference), "divergent plan: {line}");
    }
    // ...and the cache-hit responses are byte-identical whole lines.
    // With 4 workers and 16 duplicates, at most 4 can miss concurrently
    // before a finished compute has populated the cache.
    let hits: Vec<&String> = duplicate_responses
        .iter()
        .filter(|(_, v)| v.get("cached").and_then(Value::as_bool) == Some(true))
        .map(|(line, _)| line)
        .collect();
    assert!(hits.len() >= 12, "only {} cache hits", hits.len());
    for hit in &hits {
        assert_eq!(*hit, hits[0], "cache hits must be byte-identical");
    }
    // The counters saw everything: 64 plans, no rejections at capacity 64.
    assert_eq!(stat_u64(&server, "requests", "total"), 64);
    assert_eq!(stat_u64(&server, "requests", "rejected"), 0);
    assert_eq!(stat_u64(&server, "requests", "errors"), 16);
    assert_eq!(stat_u64(&server, "requests", "completed"), 48);
    assert!(stat_u64(&server, "cache", "hits") >= 12);
    server.shutdown();
}

/// Admission control: with one worker and a queue bound of 1, a second
/// plan is rejected with `queue_full` while the first is still running.
#[test]
fn full_queue_rejects_with_admission_error() {
    let server = Arc::new(Server::start(
        ServerConfig::default()
            .with_workers(1)
            .with_queue_capacity(1),
    ));
    let slow = Arc::clone(&server);
    let blocker = std::thread::spawn(move || {
        // A unique several-thousand-node graph keeps the single worker
        // busy long enough to observe the full queue.
        slow.handle_line(r#"{"graph":"synthetic:3072x4x424242","id":1}"#)
    });
    // Wait until the slow plan occupies the system (queued or in flight).
    let mut occupied = false;
    for _ in 0..2000 {
        let depth = stat_u64(&server, "queue", "depth");
        let in_flight = stat_u64(&server, "queue", "in_flight");
        if depth + in_flight >= 1 {
            occupied = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(occupied, "slow plan never showed up in the queue stats");
    let rejected = parse(&server.handle_line(r#"{"graph":"alexnet","id":2}"#));
    assert_eq!(error_code(&rejected).as_deref(), Some("queue_full"));
    assert_eq!(rejected.get("id").and_then(Value::as_u64), Some(2));
    // Non-plan ops bypass admission and still answer while full.
    assert!(server.handle_line(r#"{"op":"ping"}"#).contains("pong"));
    // The occupying plan still completes.
    let done = parse(&blocker.join().expect("blocked client must not panic"));
    assert_eq!(done.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(stat_u64(&server, "requests", "rejected"), 1);
    server.shutdown();
}

/// Graceful shutdown: admitted plans drain to completion, late plans
/// are refused with `shutting_down`, and `shutdown()` joins cleanly.
#[test]
fn shutdown_drains_in_flight_work() {
    let server = Arc::new(Server::start(
        ServerConfig::default()
            .with_workers(2)
            .with_queue_capacity(16),
    ));
    let mut clients = Vec::new();
    for i in 0..6u64 {
        let server = Arc::clone(&server);
        clients.push(std::thread::spawn(move || {
            server.handle_line(&format!(r#"{{"graph":"synthetic:96x3x{i}","id":{i}}}"#))
        }));
    }
    // Let the clients get admitted, then start draining.
    let mut admitted = 0;
    for _ in 0..2000 {
        admitted = stat_u64(&server, "requests", "total");
        if admitted == 6 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(admitted, 6, "clients were not admitted in time");
    server.shutdown();
    for client in clients {
        let v = parse(&client.join().expect("draining client must not panic"));
        assert_eq!(
            v.get("ok").and_then(Value::as_bool),
            Some(true),
            "admitted plan was dropped during shutdown"
        );
    }
    let late = parse(&server.handle_line(r#"{"graph":"alexnet"}"#));
    assert_eq!(error_code(&late).as_deref(), Some("shutting_down"));
    // Idempotent: a second shutdown is a no-op.
    server.shutdown();
}

/// Registry churn that does not touch a co-plan's own tenants leaves
/// that cached co-plan alone: the key covers the full tenant set, so
/// the old entry can never answer the new registry, and restoring the
/// original set replays it byte-identically from cache.
#[test]
fn registry_churn_preserves_unrelated_coplans() {
    let server = Server::start(ServerConfig::default().with_workers(2));
    // Explicit shares keep the test off the (slower) split search.
    let reg = |model: &str, graph: &str, share: f64| {
        let v = parse(&server.handle_line(&format!(
            r#"{{"op":"register","model":"{model}","graph":"{graph}","share":{share}}}"#
        )));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    };
    reg("axn", "alexnet", 0.5);
    reg("sqz", "squeezenet", 0.5);
    assert_eq!(stat_u64(&server, "registry", "models"), 2);

    let first = server.handle_line(r#"{"op":"coplan"}"#);
    let first_v = parse(&first);
    assert_eq!(first_v.get("cached").and_then(Value::as_bool), Some(false));
    let replay = parse(&server.handle_line(r#"{"op":"coplan"}"#));
    assert_eq!(replay.get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(replay.get("plan"), first_v.get("plan"));
    // Routes share the cached co-plan entry.
    let routed = parse(&server.handle_line(r#"{"op":"route","model":"axn"}"#));
    assert_eq!(routed.get("cached").and_then(Value::as_bool), Some(true));
    assert_eq!(
        routed
            .get("plan")
            .and_then(|p| p.get("model"))
            .and_then(Value::as_str),
        Some("axn")
    );
    assert_eq!(stat_u64(&server, "cache", "invalidations"), 0);

    // A third tenant changes the registry, so the next co-plan keys
    // differently — but the {axn, sqz} entry is not stale (its key
    // names its exact tenant set) and must not be reclaimed.
    reg("mbn", "mobilenet", 0.0001);
    assert_eq!(stat_u64(&server, "cache", "invalidations"), 0);
    let removed = parse(&server.handle_line(r#"{"op":"unregister","model":"mbn"}"#));
    assert_eq!(removed.get("models").and_then(Value::as_u64), Some(2));
    // Restoring the original tenant set replays the surviving entry.
    let restored = parse(&server.handle_line(r#"{"op":"coplan"}"#));
    assert_eq!(
        restored.get("cached").and_then(Value::as_bool),
        Some(true),
        "untouched tenant set must keep its cached co-plan across churn"
    );
    assert_eq!(restored.get("plan"), first_v.get("plan"));
    server.shutdown();
}

/// Mutating one registered model evicts exactly the co-plans that
/// inlined it — counted once per entry — while content-addressed
/// single-model plan entries survive, and a content-identical
/// re-registration invalidates nothing.
#[test]
fn model_mutation_invalidates_exactly_its_coplans() {
    let server = Server::start(ServerConfig::default().with_workers(2));
    let reg = |model: &str, graph: &str, share: f64| {
        let v = parse(&server.handle_line(&format!(
            r#"{{"op":"register","model":"{model}","graph":"{graph}","share":{share}}}"#
        )));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    };
    reg("axn", "alexnet", 0.5);
    reg("sqz", "squeezenet", 0.5);

    // One single-model plan entry (content-addressed key) ...
    let plan = parse(&server.handle_line(r#"{"graph":"alexnet"}"#));
    assert_eq!(plan.get("cached").and_then(Value::as_bool), Some(false));
    // ... and one co-plan entry tagged model:axn + model:sqz.
    let coplan = parse(&server.handle_line(r#"{"op":"coplan"}"#));
    assert_eq!(coplan.get("cached").and_then(Value::as_bool), Some(false));
    assert_eq!(stat_u64(&server, "cache", "entries"), 2);
    assert_eq!(stat_u64(&server, "cache", "invalidations"), 0);

    // Content-identical re-registration is a no-op: nothing evicted,
    // the co-plan still replays from cache.
    reg("axn", "alexnet", 0.5);
    assert_eq!(stat_u64(&server, "cache", "entries"), 2);
    assert_eq!(stat_u64(&server, "cache", "invalidations"), 0);
    let replay = parse(&server.handle_line(r#"{"op":"coplan"}"#));
    assert_eq!(replay.get("cached").and_then(Value::as_bool), Some(true));

    // Re-registering axn with a different graph drops the co-plan that
    // inlined it — exactly one entry, counted exactly once even though
    // the entry carried two tags — but the alexnet plan entry is
    // content-addressed, never stale, and must survive.
    reg("axn", "mobilenet", 0.5);
    assert_eq!(stat_u64(&server, "cache", "entries"), 1);
    assert_eq!(stat_u64(&server, "cache", "invalidations"), 1);
    let survivor = parse(&server.handle_line(r#"{"graph":"alexnet"}"#));
    assert_eq!(
        survivor.get("cached").and_then(Value::as_bool),
        Some(true),
        "single-model plan entries are content-addressed and survive churn"
    );
    assert_eq!(survivor.get("plan"), plan.get("plan"));

    // The mutated registry co-plans fresh, then unregistering axn
    // evicts that entry too (second invalidation).
    let fresh = parse(&server.handle_line(r#"{"op":"coplan"}"#));
    assert_eq!(fresh.get("cached").and_then(Value::as_bool), Some(false));
    assert_eq!(stat_u64(&server, "cache", "entries"), 2);
    let gone = parse(&server.handle_line(r#"{"op":"unregister","model":"axn"}"#));
    assert_eq!(gone.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(stat_u64(&server, "cache", "entries"), 1);
    assert_eq!(stat_u64(&server, "cache", "invalidations"), 2);
    server.shutdown();
}

/// The `/stats` cache section reports LRU evictions.
#[test]
fn stats_report_cache_evictions() {
    let server = Server::start(
        ServerConfig::default()
            .with_workers(1)
            .with_cache_capacity(1),
    );
    assert_eq!(stat_u64(&server, "cache", "evictions"), 0);
    server.handle_line(r#"{"graph":"alexnet"}"#);
    server.handle_line(r#"{"graph":"squeezenet"}"#);
    assert_eq!(stat_u64(&server, "cache", "evictions"), 1);
    assert_eq!(stat_u64(&server, "cache", "entries"), 1);
    server.shutdown();
}

#[test]
fn zoo_aliases_answer_one_cached_plan() {
    // An alias resolves to the same shared zoo graph, so it keys the
    // same cache entry and replays the canonical name's reply.
    let server = Server::start(ServerConfig::default().with_workers(1));
    let canonical = server.handle_line(r#"{"id":1,"graph":"resnet152"}"#);
    assert!(
        canonical.starts_with(r#"{"cached":false,"id":1,"ok":true,"plan":"#),
        "{canonical}"
    );
    let alias = server.handle_line(r#"{"id":1,"graph":"rn"}"#);
    assert_eq!(
        alias,
        canonical.replacen(r#""cached":false"#, r#""cached":true"#, 1)
    );
    server.shutdown();
}

/// Malformed and unresolvable requests get typed errors and never take
/// the daemon down.
#[test]
fn bad_requests_keep_the_daemon_alive() {
    let server = Server::start(ServerConfig::default().with_workers(1));
    let cases = [
        ("{\"graph\":", "bad_request"),
        (r#"{"graph":"made-up-net"}"#, "unknown_model"),
        (r#"{"graph":"alexnet","device":"tpu"}"#, "unknown_device"),
        (r#"{"graph":"alexnet","precision":"12"}"#, "bad_request"),
        (r#"{"graph":"alexnet","allocator":"magic"}"#, "bad_request"),
        (r#"{"op":"plan"}"#, "bad_request"),
        (r#"{"graph":{"synthetic":{"depth":0}}}"#, "bad_request"),
    ];
    for (line, expected) in cases {
        let v = parse(&server.handle_line(line));
        assert_eq!(
            error_code(&v).as_deref(),
            Some(expected),
            "wrong code for {line}"
        );
    }
    let ok = parse(&server.handle_line(r#"{"graph":"alexnet"}"#));
    assert_eq!(ok.get("ok").and_then(Value::as_bool), Some(true));
    server.shutdown();
}
