//! Pieces every workload shares: repeated set-up, the end-to-end
//! metric set, and the scratch directory inside the checkout.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::report::Values;
use crate::stats::{geomean, median, summarize};

/// Set-ups timed before the timed phase.
pub const SETUPS_BEFORE: usize = 3;

/// Set-ups timed after the timed phase. More than before it: on a host
/// that has run a two-core load for a while a set-up takes longer than
/// in a rested process, and the median should lie inside the later
/// group rather than on the edge between the two.
pub const SETUPS_AFTER: usize = 7;

/// Every timed phase runs at least this many ops, and a windowed p99 is
/// taken per window of this many, so at least
/// [`crate::stats::TAIL_SAMPLES`] latencies lie beyond the p99.
pub const MIN_SAMPLES: usize = 1000;

/// Server worker threads (and client threads of the closed loop): no
/// more than the two cores of the reference box.
pub const WORKERS: usize = 2;

/// The set-up times of one run; `setup_s` is their median. Set-up is
/// repeated [`SETUPS_BEFORE`] times before the timed phase and
/// [`SETUPS_AFTER`] times after it, and where the timed phase has breaks
/// of its own (a server restart, a pause between item blocks) more are
/// timed there. Samples at both ends and in between keep a host whose
/// speed drifts in multi-second phases from moving `setup_s` more than
/// the timed metrics. No set-up runs while a timed op is in flight.
#[derive(Debug, Default)]
pub struct Setups(Vec<f64>);

impl Setups {
    /// Runs `setup` `times` times, tearing each result down (untimed)
    /// before the next, and returns the last. The first is timed from
    /// `first_start`, the others from their own start.
    ///
    /// # Errors
    ///
    /// The first set-up error.
    pub fn repeat<T>(
        &mut self,
        times: usize,
        first_start: Instant,
        mut setup: impl FnMut() -> Result<T, String>,
        mut teardown: impl FnMut(T),
    ) -> Result<T, String> {
        let mut start = first_start;
        let mut kept = None;
        for _ in 0..times {
            if let Some(old) = kept.take() {
                teardown(old);
                start = Instant::now();
            }
            kept = Some(setup()?);
            self.0.push(start.elapsed().as_secs_f64());
        }
        Ok(kept.expect("at least one set-up ran"))
    }

    /// Runs `setup` `times` times from now, tearing every result down.
    ///
    /// # Errors
    ///
    /// The first set-up error.
    pub fn discard<T>(
        &mut self,
        times: usize,
        setup: impl FnMut() -> Result<T, String>,
        mut teardown: impl FnMut(T),
    ) -> Result<(), String> {
        let last = self.repeat(times, Instant::now(), setup, &mut teardown)?;
        teardown(last);
        Ok(())
    }

    /// The median set-up time, seconds, and a note on the samples.
    #[must_use]
    pub fn summary(&self) -> (f64, String) {
        let s = crate::stats::sorted(&self.0);
        let note = format!(
            "{} set-ups: min {:.4} s, median {:.4} s, max {:.4} s",
            s.len(),
            s.first().copied().unwrap_or(f64::NAN),
            median(&s),
            s.last().copied().unwrap_or(f64::NAN)
        );
        (median(&s), note)
    }
}

/// What a timed phase measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// The run's set-up times.
    pub setups: Setups,
    /// Per-op latencies, seconds.
    pub latencies: Vec<f64>,
    /// Wall time of the timed phase, seconds.
    pub wall_s: f64,
    /// Process CPU time over the timed phase, seconds.
    pub cpu_s: f64,
    /// Modelled (LCMM, UMM) latency of each distinct plan, seconds.
    pub modelled: Vec<(f64, f64)>,
    /// Peak resident memory, MiB.
    pub peak_rss_mb: f64,
}

/// The end-to-end metrics of a timed phase. `ok` ops of `attempted`
/// passed every check. The p99 is the median over windows of
/// `tail_window` ops (see [`crate::stats::summarize`]).
pub fn end_to_end(
    values: &mut Values,
    t: &Timed,
    (ok, attempted): (u64, u64),
    tail_window: usize,
    notes: &mut Vec<String>,
) {
    let lat = summarize(&t.latencies, tail_window);
    if lat.tail_percentile < 99.0 {
        notes.push(format!(
            "only {} samples: latency_p99_ms reports p{} (>= 10 samples beyond)",
            lat.n, lat.tail_percentile
        ));
    }
    notes.push(format!(
        "{} timed ops in {:.3} s; p50 {:.4} ms, p{} {:.4} ms (median of {} windows)",
        lat.n,
        t.wall_s,
        lat.p50 * 1e3,
        lat.tail_percentile,
        lat.tail * 1e3,
        lat.windows
    ));
    let (setup_s, note) = t.setups.summary();
    notes.push(note);
    let completed = lat.n as f64;
    values.insert("setup_s", setup_s);
    values.insert("ops_per_s", completed / t.wall_s);
    values.insert("latency_p50_ms", lat.p50 * 1e3);
    values.insert("latency_p99_ms", lat.tail * 1e3);
    values.insert("cpu_ms_per_op", t.cpu_s * 1e3 / completed);
    values.insert("peak_rss_mb", t.peak_rss_mb);
    values.insert("ok_share", ok as f64 / attempted.max(1) as f64);
    let speedups: Vec<f64> = t.modelled.iter().map(|&(lcmm, umm)| umm / lcmm).collect();
    values.insert("model_speedup_geomean", geomean(&speedups));
    values.insert(
        "model_latency_ms",
        t.modelled.iter().map(|&(lcmm, _)| lcmm).sum::<f64>() * 1e3,
    );
}

/// A scratch directory for this process inside the checkout: under
/// `CARGO_TARGET_DIR` when set, else `perfbench/target`. Removed by
/// [`Scratch`]'s drop.
#[derive(Debug)]
pub struct Scratch(pub PathBuf);

impl Scratch {
    /// Creates `<target>/perfbench-tmp/<label>-<pid>-<n>`, `n` counting
    /// the directories this process has made.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn new(label: &str) -> Result<Self, String> {
        static MADE: AtomicUsize = AtomicUsize::new(0);
        let n = MADE.fetch_add(1, Ordering::Relaxed);
        let dir = target_dir()
            .join("perfbench-tmp")
            .join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Cargo's target directory as the benchmark sees it.
#[must_use]
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
}
