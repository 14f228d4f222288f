//! Output checks. Every op is checked; a failed check counts the op as
//! failed, and any failure makes the benchmark exit non-zero.
//!
//! Only deterministic fields are compared: `pass_stats` and `stats`
//! carry wall-clock values and are never part of a comparison.

use std::collections::HashMap;

use serde_json::Value;

use crate::report::Outcome;

/// How many failure descriptions are kept for the report.
const KEEP_FAILURES: usize = 20;

/// Relative tolerance of the speedup identity.
const SPEEDUP_TOL: f64 = 1e-9;

/// Tallies attempted and failed ops, and remembers the first uncached
/// plan bytes of every request so cache replays can be compared.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed a check (or were answered with an error).
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    first_uncached: HashMap<String, String>,
}

impl Ledger {
    /// Counts one op and its check outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            if self.failures.len() < KEEP_FAILURES {
                self.failures.push(message);
            }
        }
    }

    /// Moves the tallies into `outcome`.
    pub fn close(self, outcome: &mut Outcome) {
        outcome.attempted = self.attempted;
        outcome.failed = self.failed;
        outcome.failures = self.failures;
    }

    /// Checks one `plan` reply for the request identified by
    /// `request_key` (the request line without its id) and returns the
    /// plan summary. `tensor_budget` is the request's budget, if set.
    ///
    /// Cached replies must replay the bytes of the first uncached reply
    /// to the same request; every reply's summary must satisfy
    /// [`check_summary`].
    ///
    /// # Errors
    ///
    /// A description of the first check the reply fails.
    pub fn check_plan(
        &mut self,
        reply: &str,
        id: u64,
        request_key: &str,
        tensor_budget: Option<u64>,
    ) -> Result<Value, String> {
        let (plan, cached) = plan_payload(reply, id)?;
        let bytes = serde_json::to_string(&plan).map_err(|e| format!("op {id}: {e}"))?;
        match self.first_uncached.get(request_key) {
            Some(first) if *first != bytes => {
                return Err(format!(
                    "op {id}: plan bytes differ from the first uncached reply (cached:{cached})"
                ))
            }
            Some(_) => {}
            None if cached => {
                return Err(format!(
                    "op {id}: cached reply without a prior uncached one"
                ));
            }
            None => {
                self.first_uncached.insert(request_key.to_string(), bytes);
            }
        }
        check_summary(&plan, tensor_budget).map_err(|e| format!("op {id}: {e}"))?;
        Ok(plan)
    }
}

/// Parses a reply line and checks the envelope: valid JSON, `ok:true`
/// and the op's `id`.
///
/// # Errors
///
/// A description of the failed check (including any error code).
pub fn envelope(reply: &str, id: u64) -> Result<Value, String> {
    let v: Value =
        serde_json::from_str(reply).map_err(|e| format!("op {id}: reply is not JSON: {e}"))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        let field = |k: &str| {
            v.get("error")
                .and_then(|e| e.get(k))
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string()
        };
        return Err(format!(
            "op {id}: error reply ({}: {})",
            field("code"),
            field("message")
        ));
    }
    match v.get("id").and_then(Value::as_u64) {
        Some(got) if got == id => Ok(v),
        Some(got) => Err(format!("op {id}: reply carries id {got}")),
        None => Err(format!("op {id}: reply carries no id")),
    }
}

/// The `plan` payload and `cached` flag of a successful plan reply.
///
/// # Errors
///
/// Any [`envelope`] failure, or a reply without a plan.
pub fn plan_payload(reply: &str, id: u64) -> Result<(Value, bool), String> {
    let v = envelope(reply, id)?;
    let cached = v.get("cached").and_then(Value::as_bool).unwrap_or(false);
    let plan = v
        .get("plan")
        .cloned()
        .ok_or_else(|| format!("op {id}: reply has no plan"))?;
    Ok((plan, cached))
}

/// Checks the deterministic invariants of one plan summary:
///
/// * `speedup_over_umm = umm_latency_seconds / latency_seconds` to a
///   relative 1e-9;
/// * `chosen_buffers ≤ buffers`;
/// * with a `tensor_budget`, occupied bytes fit it — the
///   `weight_streaming.occupied_bytes` when that block is present,
///   otherwise `allocated_bytes`.
///
/// There is deliberately no `speedup_over_umm ≥ 1` check: the summary
/// compares against UMM at its own clock, which is faster than the
/// LCMM clock, so compute-bound plans legitimately read below 1.
///
/// # Errors
///
/// A description of the first violated invariant.
pub fn check_summary(plan: &Value, tensor_budget: Option<u64>) -> Result<(), String> {
    let num = |k: &str| {
        plan.get(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("summary lacks {k}"))
    };
    let int = |k: &str| {
        plan.get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("summary lacks {k}"))
    };
    let (lat, umm, speedup) = (
        num("latency_seconds")?,
        num("umm_latency_seconds")?,
        num("speedup_over_umm")?,
    );
    if !(lat > 0.0 && umm > 0.0) {
        return Err(format!("non-positive latency {lat} / umm {umm}"));
    }
    if (speedup - umm / lat).abs() > SPEEDUP_TOL * speedup.abs() {
        return Err(format!("speedup {speedup} != umm/latency {}", umm / lat));
    }
    let (chosen, buffers) = (int("chosen_buffers")?, int("buffers")?);
    if chosen > buffers {
        return Err(format!("chosen_buffers {chosen} > buffers {buffers}"));
    }
    if let Some(budget) = tensor_budget {
        let occupied = match plan.get("weight_streaming") {
            Some(ws) => ws
                .get("occupied_bytes")
                .and_then(Value::as_u64)
                .ok_or("weight_streaming block lacks occupied_bytes")?,
            None => int("allocated_bytes")?,
        };
        if occupied > budget {
            return Err(format!("occupied {occupied} B > tensor_budget {budget} B"));
        }
    }
    Ok(())
}

/// Modelled LCMM and UMM latency of a plan summary, in seconds.
#[must_use]
pub fn modelled(plan: &Value) -> Option<(f64, f64)> {
    Some((
        plan.get("latency_seconds")?.as_f64()?,
        plan.get("umm_latency_seconds")?.as_f64()?,
    ))
}

/// The request line without its `"id":N,` prefix — the identity of a
/// request for cache-replay comparison. Request lines are generated
/// with the id first.
#[must_use]
pub fn request_key(line: &str) -> &str {
    match line.find(',') {
        Some(comma) if line.starts_with("{\"id\":") => &line[comma + 1..],
        _ => line,
    }
}
