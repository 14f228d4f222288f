//! `warm-mix`: an open loop. One generator thread sends request lines
//! at a fixed rate through `Server::handle_line_async` to a server with
//! 2 workers and a WAL (`fsync os`). About 90% of the lines are `plan`
//! ops over a hot set warmed before timing, so they hit the plan cache;
//! registry writes, co-plans, routes and workload simulations fall on
//! the tail beside them. Latency counts from each op's due time.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use lcmm_core::Harness;
use lcmm_fpga::{Device, Precision};
use lcmm_multi::{coplan, coplan_summary, CoplanOptions, TenantSpec};
use lcmm_serve::{FsyncPolicy, Server, ServerConfig};

use crate::checks::{self, Ledger};
use crate::common::{
    end_to_end, Scratch, Setups, Timed, MIN_SAMPLES, SETUPS_AFTER, SETUPS_BEFORE, WORKERS,
};
use crate::gen::{self, WarmKind, WarmOp, WarmSpec, TENANT_SHARE, WARM_BLOCK, WARM_TENANTS};
use crate::layers;
use crate::replay::{tenant_slice, Replay};
use crate::report::Outcome;
use crate::stats::{mean, percentile, sorted};
use crate::trace::Recorder;

/// Offered load, request lines per second. At this rate no op is
/// rejected by admission control on the reference box.
pub const RATE: f64 = 400.0;
/// Lines of the traced run.
const TRACE_LINES: usize = 1000;
/// How long to wait for the last replies after the generator stops.
const DRAIN: Duration = Duration::from_secs(60);

/// Ids of set-up lines (never reused by timed lines).
const REGISTER_ID: u64 = 2_000_000;
const HOT_ID: u64 = 3_000_000;
const COPLAN_ID: u64 = 4_000_000;

/// A running server plus the set-up lines it was warmed with.
struct Warm {
    server: Server,
    setup_lines: Vec<String>,
    _wal: Scratch,
}

fn register_line(t: usize) -> String {
    format!(
        r#"{{"id":{},{}}}"#,
        REGISTER_ID + t as u64,
        gen::register_body(t)
    )
}

/// Starts a WAL-backed server, registers the tenants, warms the hot set
/// and the co-plan. Warm-up replies go through `ledger`, which then
/// holds the reference bytes of every hot plan.
fn start(
    spec: &WarmSpec,
    ledger: &mut Ledger,
    modelled: &mut Vec<(f64, f64)>,
) -> Result<Warm, String> {
    let wal = Scratch::new("warm-wal")?;
    let server = Server::try_start(
        ServerConfig::default()
            .with_workers(WORKERS)
            .with_wal_dir(&wal.0)
            .with_fsync(FsyncPolicy::Os)
            .with_recover(false),
    )
    .map_err(|e| format!("server start: {e}"))?;
    let mut setup_lines = Vec::new();
    for t in 0..WARM_TENANTS.len() {
        let line = register_line(t);
        let reply = server.handle_line(&line);
        checks::envelope(&reply, REGISTER_ID + t as u64).map_err(|e| format!("register: {e}"))?;
        setup_lines.push(line);
    }
    modelled.clear();
    for (h, body) in spec.hot.iter().enumerate() {
        let id = HOT_ID + h as u64;
        let line = format!(r#"{{"id":{id},{body}}}"#);
        let reply = server.handle_line(&line);
        let plan = ledger.check_plan(&reply, id, checks::request_key(&line), None)?;
        modelled.extend(checks::modelled(&plan));
        setup_lines.push(line);
    }
    let line = format!(r#"{{"id":{COPLAN_ID},"op":"coplan"}}"#);
    checks::plan_payload(&server.handle_line(&line), COPLAN_ID)?;
    setup_lines.push(line);
    Ok(Warm {
        server,
        setup_lines,
        _wal: wal,
    })
}

/// One answered line.
#[derive(Debug, Clone)]
struct Answer {
    /// Reply time counted from the line's due time, seconds.
    from_due: f64,
    /// When the line was actually sent.
    sent: Instant,
    /// When its reply arrived.
    done: Instant,
    /// The reply line.
    reply: String,
}

/// Reply slots filled by the reply callbacks, with the count filled.
type Slots = (Mutex<(Vec<Option<Answer>>, usize)>, Condvar);

/// What one open-loop pass produced.
struct Pass {
    /// Answers in send order.
    answers: Vec<Answer>,
    /// How late the generator sent each line, seconds.
    lags: Vec<f64>,
    /// From the first send to the last reply, seconds.
    wall_s: f64,
    /// Process CPU time over the same span, seconds.
    cpu_s: f64,
}

/// Sends `ops` at [`RATE`], then waits for every reply.
fn drive(server: &Server, ops: &[WarmOp]) -> Result<Pass, String> {
    let n = ops.len();
    let slots: Arc<Slots> = Arc::new((Mutex::new((vec![None; n], 0)), Condvar::new()));
    let mut lags = Vec::with_capacity(n);
    let cpu0 = crate::sys::cpu_seconds();
    let t0 = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64(i as f64 / RATE);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        lags.push((sent - due).as_secs_f64());
        let slots = Arc::clone(&slots);
        server.handle_line_async(
            &op.line,
            Box::new(move |reply| {
                let done = Instant::now();
                let (lock, cv) = &*slots;
                let mut g = lock.lock().expect("answer slots lock");
                g.0[i] = Some(Answer {
                    from_due: (done - due).as_secs_f64(),
                    sent,
                    done,
                    reply,
                });
                g.1 += 1;
                cv.notify_all();
            }),
        );
    }
    let (lock, cv) = &*slots;
    let mut g = lock.lock().expect("answer slots lock");
    let deadline = Instant::now() + DRAIN;
    while g.1 < n {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(format!("only {} of {n} replies arrived", g.1));
        }
        g = cv.wait_timeout(g, left).expect("answer slots lock").0;
    }
    let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), crate::sys::cpu_seconds() - cpu0);
    let answers =
        g.0.iter_mut()
            .map(|a| a.take().expect("every slot filled"))
            .collect();
    Ok(Pass {
        answers,
        lags,
        wall_s,
        cpu_s,
    })
}

/// The co-plan summary bytes of every registry state a co-plan or
/// route can observe: all tenants, or all but the churned one (a
/// co-plan may run between an unregister and its re-register).
fn coplan_references() -> Result<Vec<String>, String> {
    let harness = Harness::new(WORKERS);
    let device = Device::vu9p();
    let tenants: Vec<TenantSpec> = WARM_TENANTS
        .iter()
        .map(|(name, graph)| {
            let g = lcmm_graph::zoo::by_name(graph).expect("tenant graphs are zoo models");
            TenantSpec::new(*name, g, Precision::Fix16).with_share(TENANT_SHARE)
        })
        .collect();
    let mut out = Vec::new();
    for skip in [None, Some(gen::WARM_CHURNED)] {
        let set: Vec<TenantSpec> = tenants
            .iter()
            .enumerate()
            .filter(|(i, _)| Some(*i) != skip)
            .map(|(_, t)| t.clone())
            .collect();
        let plan = coplan(&harness, &device, &set, &CoplanOptions::default())
            .map_err(|e| format!("reference co-plan: {e}"))?;
        out.push(serde_json::to_string(&coplan_summary(&plan)).map_err(|e| e.to_string())?);
    }
    Ok(out)
}

/// Checks every timed answer against its op.
fn check_answers(
    ledger: &mut Ledger,
    ops: &[WarmOp],
    answers: &[Answer],
    references: &[String],
) -> Result<(), String> {
    let full: Vec<serde_json::Value> = references
        .iter()
        .map(|r| serde_json::from_str(r).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    for (op, a) in ops.iter().zip(answers) {
        let id = op.id;
        let outcome = match op.kind {
            WarmKind::Plan(_) => ledger
                .check_plan(&a.reply, id, checks::request_key(&op.line), None)
                .map(|_| ()),
            WarmKind::Coplan | WarmKind::Route(_) => {
                checks::plan_payload(&a.reply, id).and_then(|(plan, _)| {
                    let bytes = serde_json::to_string(&plan).map_err(|e| e.to_string())?;
                    let ok = match op.kind {
                        WarmKind::Route(t) => full.iter().any(|f| {
                            tenant_slice(f, WARM_TENANTS[t].0)
                                .and_then(|s| serde_json::to_string(&s).ok())
                                .is_some_and(|s| s == bytes)
                        }),
                        _ => references.contains(&bytes),
                    };
                    if ok {
                        Ok(())
                    } else {
                        Err(format!(
                            "op {id}: {:?} reply matches no co-plan of the registry",
                            op.kind
                        ))
                    }
                })
            }
            WarmKind::Register(_) | WarmKind::Unregister(_) | WarmKind::Workload => {
                checks::envelope(&a.reply, id).map(|_| ())
            }
        };
        ledger.record(outcome);
    }
    Ok(())
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures (op checks count as failures instead).
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    process_start: Instant,
) -> Result<Outcome, String> {
    let lines = if trace {
        TRACE_LINES
    } else {
        ((seconds * RATE) as usize).max(MIN_SAMPLES)
    };
    let blocks = lines.div_ceil(WARM_BLOCK);
    let mut ledger = Ledger::default();
    let mut modelled = Vec::new();
    let mut setups = Setups::default();
    let mut setup = || {
        let spec = gen::warm_spec(seed, blocks, 1);
        start(&spec, &mut ledger, &mut modelled).map(|w| (w, spec))
    };
    let teardown = |(w, _): (Warm, WarmSpec)| w.server.shutdown();
    let (warm, spec) = setups.repeat(SETUPS_BEFORE, process_start, &mut setup, teardown)?;
    let mut outcome = Outcome::default();
    let references = coplan_references()?;
    if !trace {
        let pass = drive(&warm.server, &spec.ops[..lines])?;
        let peak_rss_mb = crate::sys::peak_rss_mb();
        warm.server.shutdown();
        setups.discard(SETUPS_AFTER, &mut setup, teardown)?;
        check_answers(&mut ledger, &spec.ops, &pass.answers, &references)?;
        let timed = Timed {
            setups,
            latencies: pass.answers.iter().map(|a| a.from_due).collect(),
            wall_s: pass.wall_s,
            cpu_s: pass.cpu_s,
            modelled,
            peak_rss_mb,
        };
        end_to_end(
            &mut outcome.values,
            &timed,
            (ledger.attempted - ledger.failed, ledger.attempted),
            MIN_SAMPLES,
            &mut outcome.notes,
        );
    } else {
        let ops = &spec.ops[..TRACE_LINES];
        let Pass {
            answers: plain,
            lags,
            ..
        } = drive(&warm.server, ops)?;
        warm.server.shutdown();
        let warm = start(&spec, &mut ledger, &mut modelled)?;
        let traced = drive(&warm.server, ops)?.answers;
        let stats = warm.server.handle_line(r#"{"op":"stats"}"#);
        warm.server.shutdown();
        check_answers(&mut ledger, ops, &plain, &references)?;
        check_answers(&mut ledger, ops, &traced, &references)?;

        let mut values = layers::zeroed();
        layers::server_stats(&mut values, &stats)?;
        let wal = Scratch::new("warm-replay-wal")?;
        let mut replay = Replay::new(
            WORKERS,
            ServerConfig::default().cache_capacity,
            Some(&wal.0),
        )?;
        for (k, line) in warm.setup_lines.iter().enumerate() {
            replay
                .op(u64::MAX - k as u64, line)
                .map_err(|e| format!("replaying set-up: {e}"))?;
        }
        let mut client = Recorder::new();
        let mut unattributed = Vec::new();
        for (i, (op, a)) in ops.iter().zip(&traced).enumerate() {
            client.record("serve.request", i as u64, a.sent, a.done);
            let (rebuilt, attributed) = replay.op_attributed(i as u64, &op.line);
            unattributed.push((a.done - a.sent).as_secs_f64() - attributed);
            let outcome = match (rebuilt, op.kind) {
                (Err(e), _) => Err(format!("op {}: replay failed: {e}", op.id)),
                (Ok(Some(bytes)), WarmKind::Plan(_)) => checks::plan_payload(&a.reply, op.id)
                    .ok()
                    .and_then(|(p, _)| serde_json::to_string(&p).ok())
                    .filter(|b| *b == bytes)
                    .map(|_| ())
                    .ok_or_else(|| {
                        format!("op {}: replayed plan bytes differ from the reply", op.id)
                    }),
                (Ok(_), _) => Ok(()),
            };
            ledger.record(outcome);
        }
        layers::span_means(&mut values, &replay.rec);
        layers::tally_values(&mut values, &replay.tally);
        values.insert("serve.unattributed_ms", mean(&unattributed) * 1e3);
        values.insert("loadgen.lag_p99_ms", percentile(&sorted(&lags), 99.0) * 1e3);
        let from_due = |a: &[Answer]| mean(&a.iter().map(|x| x.from_due).collect::<Vec<_>>());
        values.insert(
            "trace.overhead_pct",
            (from_due(&traced) / from_due(&plain) - 1.0) * 100.0,
        );
        values.insert(
            "trace.spans",
            values["trace.spans"] + client.spans().len() as f64,
        );
        values.insert("trace.ops", TRACE_LINES as f64);
        crate::write_spans("warm-mix", seed, &replay.rec, &[client]);
        outcome.values = values;
    }
    ledger.close(&mut outcome);
    Ok(outcome)
}
