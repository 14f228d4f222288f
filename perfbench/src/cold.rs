//! `cold-plan`: a closed loop of two clients sending distinct seeded
//! `plan` requests to an in-process server (2 workers, default queue
//! and cache, no WAL). Every op misses the plan cache, so the whole
//! uncached path — parse, key, graph, fpga, fusion, core, UMM,
//! summary — does the work.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use lcmm_serve::{Server, ServerConfig};

use crate::checks::{self, Ledger};
use crate::common::{end_to_end, Setups, Timed, MIN_SAMPLES, SETUPS_AFTER, SETUPS_BEFORE, WORKERS};
use crate::gen::{self, PlanOp, COLD_BLOCK};
use crate::layers;
use crate::replay::Replay;
use crate::report::Outcome;
use crate::stats::mean;
use crate::trace::Recorder;

/// Stratified blocks generated per run (more than a run can send).
const BLOCKS: usize = 48;
/// Warm-up plans per server start (enough that set-up time is well above
/// thread-start jitter).
const WARMUP: usize = 32;
/// The modelled metrics cover the (distinct) plans of the first twelve
/// stratified blocks: enough graphs that their sum varies little from
/// seed to seed.
const MODEL_OPS: usize = 12 * COLD_BLOCK;
/// Ops one server answers before it is replaced by a fresh one (outside
/// the timed phase; each restart is timed as a set-up). The daemon
/// retains memory for every distinct request, so this bounds the
/// process at about half a GiB.
const SEGMENT_OPS: usize = 4000;
/// Every untraced run sends at least this many ops.
const MIN_OPS: usize = if MODEL_OPS > MIN_SAMPLES {
    MODEL_OPS
} else {
    MIN_SAMPLES
};
/// Ops of the traced run: one full stratified block.
const TRACE_OPS: usize = COLD_BLOCK;

/// One answered op: index, latency from send (seconds), reply line.
type Answer = (usize, f64, String);

/// Starts a server and sends it the warm-up plans.
fn start_server(seed: u64) -> Result<Server, String> {
    let server = Server::try_start(ServerConfig::default().with_workers(WORKERS))
        .map_err(|e| format!("server start: {e}"))?;
    for (i, op) in gen::cold_warmup(seed, WARMUP).iter().enumerate() {
        let reply = server.handle_line(&op.line);
        checks::plan_payload(&reply, 1_000_000 + i as u64).map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(server)
}

/// What one closed-loop pass produced.
struct Pass {
    /// Answers sorted by op index.
    answers: Vec<Answer>,
    /// Wall time of the pass, seconds.
    wall_s: f64,
    /// Process CPU time of the pass, seconds.
    cpu_s: f64,
    /// Per-client span recorders (traced passes only).
    recs: Vec<Recorder>,
}

/// Sends `ops[first..]` from two client threads until `seconds` have
/// passed and at least `min_ops` were sent, or op `end` is reached.
/// With `trace`, each client records one span per request.
fn drive(
    server: &Server,
    ops: &[PlanOp],
    (first, end): (usize, usize),
    seconds: f64,
    min_ops: usize,
    trace: bool,
) -> Pass {
    let next = AtomicUsize::new(first);
    let end = end.min(ops.len());
    let cpu0 = crate::sys::cpu_seconds();
    let t0 = Instant::now();
    let per_client: Vec<(Vec<Answer>, Recorder)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    let mut rec = Recorder::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= end
                            || (i >= first + min_ops && t0.elapsed().as_secs_f64() >= seconds)
                        {
                            break;
                        }
                        let open = trace.then(|| {
                            rec.set_op(i as u64);
                            rec.enter("serve.request")
                        });
                        let sent = Instant::now();
                        let reply = server.handle_line(&ops[i].line);
                        let latency = sent.elapsed().as_secs_f64();
                        if let Some(open) = open {
                            rec.exit(open);
                        }
                        out.push((i, latency, reply));
                    }
                    (out, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut pass = Pass {
        answers: Vec::new(),
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: crate::sys::cpu_seconds() - cpu0,
        recs: Vec::new(),
    };
    for (a, r) in per_client {
        pass.answers.extend(a);
        pass.recs.push(r);
    }
    pass.answers.sort_by_key(|a| a.0);
    pass
}

/// Checks every answer; returns the plan bytes of each (by position)
/// and the modelled latencies of ops below `model_ops`.
fn check_answers(
    ledger: &mut Ledger,
    ops: &[PlanOp],
    answers: &[Answer],
    model_ops: usize,
) -> (Vec<Option<String>>, Vec<(f64, f64)>) {
    let mut bytes = Vec::with_capacity(answers.len());
    let mut modelled = Vec::new();
    for (i, _, reply) in answers {
        let op = &ops[*i];
        let outcome = ledger.check_plan(
            reply,
            *i as u64 + 1,
            checks::request_key(&op.line),
            op.tensor_budget,
        );
        match outcome {
            Ok(plan) => {
                if *i < model_ops {
                    modelled.extend(checks::modelled(&plan));
                }
                bytes.push(serde_json::to_string(&plan).ok());
                ledger.record(Ok(()));
            }
            Err(e) => {
                bytes.push(None);
                ledger.record(Err(e));
            }
        }
    }
    (bytes, modelled)
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures (the op checks count as failures instead).
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    process_start: Instant,
) -> Result<Outcome, String> {
    let ops = gen::cold_ops(seed, BLOCKS);
    let mut setups = Setups::default();
    let server = setups.repeat(
        SETUPS_BEFORE,
        process_start,
        || start_server(seed),
        |s: Server| s.shutdown(),
    )?;
    let mut outcome = Outcome::default();
    let mut ledger = Ledger::default();
    if !trace {
        // Segments of SEGMENT_OPS ops, each on a fresh server; the
        // restarts between them are set-ups, not timed ops. Peak RSS is
        // read at the end of the first segment: what one daemon retains
        // for that many distinct requests, whatever the host speed.
        let shutdown = |s: Server| s.shutdown();
        let mut timed = Timed::default();
        let mut server = Some(server);
        let mut answers = Vec::new();
        loop {
            let current = match server.take() {
                Some(s) => s,
                None => setups.repeat(1, Instant::now(), || start_server(seed), shutdown)?,
            };
            let first = answers.len();
            let min = MIN_OPS.saturating_sub(first);
            let pass = drive(
                &current,
                &ops,
                (first, first + SEGMENT_OPS),
                seconds - timed.wall_s,
                min,
                false,
            );
            current.shutdown();
            if first == 0 {
                timed.peak_rss_mb = crate::sys::peak_rss_mb();
            }
            timed.wall_s += pass.wall_s;
            timed.cpu_s += pass.cpu_s;
            answers.extend(pass.answers);
            let done = timed.wall_s >= seconds && answers.len() >= MIN_OPS;
            if done || answers.len() >= ops.len() || answers.len() == first {
                break;
            }
        }
        setups.discard(SETUPS_AFTER, || start_server(seed), shutdown)?;
        let (_, modelled) = check_answers(&mut ledger, &ops, &answers, MODEL_OPS);
        if modelled.len() != MODEL_OPS {
            ledger.record(Err(format!(
                "only {} of the first {MODEL_OPS} plans checked out",
                modelled.len()
            )));
        }
        timed.setups = setups;
        timed.latencies = answers.iter().map(|a| a.1).collect();
        timed.modelled = modelled;
        end_to_end(
            &mut outcome.values,
            &timed,
            (ledger.attempted - ledger.failed, ledger.attempted),
            MIN_SAMPLES,
            &mut outcome.notes,
        );
    } else {
        // Untraced pass, then the traced pass of the same ops on a
        // fresh server; the replay then rebuilds every reply.
        let plain = drive(&server, &ops, (0, TRACE_OPS), 0.0, TRACE_OPS, false).answers;
        server.shutdown();
        let server = start_server(seed)?;
        let Pass {
            answers: traced,
            recs,
            ..
        } = drive(&server, &ops, (0, TRACE_OPS), 0.0, TRACE_OPS, true);
        let stats = server.handle_line(r#"{"op":"stats"}"#);
        server.shutdown();
        check_answers(&mut ledger, &ops, &plain, 0);
        let (bytes, _) = check_answers(&mut ledger, &ops, &traced, 0);

        let mut values = layers::zeroed();
        layers::server_stats(&mut values, &stats)?;
        let mut replay = Replay::new(WORKERS, ServerConfig::default().cache_capacity, None)?;
        let mut unattributed = Vec::new();
        for (pos, (i, latency, _)) in traced.iter().enumerate() {
            let (rebuilt, attributed) = replay.op_attributed(*i as u64, &ops[*i].line);
            unattributed.push(latency - attributed);
            ledger.record(match (rebuilt, &bytes[pos]) {
                (Ok(Some(r)), Some(b)) if r == *b => Ok(()),
                (Ok(_), _) => Err(format!(
                    "op {}: replayed plan bytes differ from the reply",
                    i + 1
                )),
                (Err(e), _) => Err(format!("op {}: replay failed: {e}", i + 1)),
            });
        }
        layers::span_means(&mut values, &replay.rec);
        layers::tally_values(&mut values, &replay.tally);
        values.insert("serve.unattributed_ms", mean(&unattributed) * 1e3);
        let plain_mean = mean(&plain.iter().map(|a| a.1).collect::<Vec<_>>());
        let traced_mean = mean(&traced.iter().map(|a| a.1).collect::<Vec<_>>());
        values.insert(
            "trace.overhead_pct",
            (traced_mean / plain_mean - 1.0) * 100.0,
        );
        values.insert(
            "trace.spans",
            values["trace.spans"] + recs.iter().map(|r| r.spans().len()).sum::<usize>() as f64,
        );
        values.insert("trace.ops", TRACE_OPS as f64);
        crate::write_spans("cold-plan", seed, &replay.rec, &recs);
        outcome.values = values;
    }
    ledger.close(&mut outcome);
    Ok(outcome)
}
