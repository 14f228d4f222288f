//! The repository benchmark: three seeded workloads driven through the
//! public API of the LCMM crates, every output checked, end-to-end
//! metrics from an untraced run and per-layer metrics from a separate
//! traced run. See `perfbench/README.md`.

pub mod checks;
pub mod cold;
pub mod common;
pub mod gen;
pub mod layers;
pub mod replay;
pub mod report;
pub mod rng;
pub mod scale;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod warm;

use std::time::Instant;

use report::Outcome;
use trace::Recorder;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["cold-plan", "warm-mix", "scale-plan"];

/// Runs workload `name`.
///
/// # Errors
///
/// An unknown workload or a set-up failure.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    process_start: Instant,
) -> Result<Outcome, String> {
    match name {
        "cold-plan" => cold::run(seed, seconds, trace, process_start),
        "warm-mix" => warm::run(seed, seconds, trace, process_start),
        "scale-plan" => scale::run(seed, seconds, trace, process_start),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Writes a traced run's spans (the replay's and the clients') as JSON
/// lines under the target directory. A write failure is reported on
/// standard error; it does not fail the run.
pub fn write_spans(workload: &str, seed: u64, replay: &Recorder, clients: &[Recorder]) {
    let dir = common::target_dir().join("perfbench-spans");
    let mut all = vec![(format!("{workload}-{seed}-layers.jsonl"), replay)];
    for (i, r) in clients.iter().enumerate() {
        all.push((format!("{workload}-{seed}-client{i}.jsonl"), r));
    }
    for (file, rec) in all {
        let path = dir.join(file);
        if let Err(e) = rec.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
}
