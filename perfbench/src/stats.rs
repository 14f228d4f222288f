//! Order statistics over latency samples.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile for it to mean anything.
pub const TAIL_SAMPLES: usize = 10;

/// The percentile ladder the tail helper picks from, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`LADDER`] that leaves at least
/// [`TAIL_SAMPLES`] of `n` samples strictly beyond it (nearest-rank),
/// or `None` when even the median does not.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .find(|&p| n.saturating_sub(rank(p, n)) >= TAIL_SAMPLES)
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
/// The epsilon keeps a product like 0.999 × 10000 from rounding up a
/// whole rank.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of `sorted` (ascending, non-empty).
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len()) - 1]
}

/// Sorts a copy of `values` ascending.
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (non-empty): the mean of the two middle values
/// for an even count.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for no values).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive values (0 for no values).
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
    }
}

/// The p50 and tail summary of a latency sample.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Sample count.
    pub n: usize,
    /// Median of all samples.
    pub p50: f64,
    /// The median, over consecutive windows (or the one window of the
    /// whole sample), of each window's p99 — or of the highest ladder
    /// percentile leaving [`TAIL_SAMPLES`] beyond it when a window is
    /// smaller than that needs.
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_percentile: f64,
    /// How many windows `tail` is the median of.
    pub windows: usize,
}

/// Summarises `values` (non-empty, in the order they were measured).
/// The tail is taken per window of at least `window` samples (the last
/// window takes the remainder) and the median over windows reported: a
/// host that stalls for a second or two then moves one window's tail,
/// not the run's, while a slower program moves every window.
#[must_use]
pub fn summarize(values: &[f64], window: usize) -> LatencySummary {
    let n = values.len();
    let windows = (n / window.max(1)).max(1);
    let size = n / windows;
    let p = tail_percentile(size).unwrap_or(50.0).min(99.0);
    let tails: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows { n } else { (w + 1) * size };
            percentile(&sorted(&values[w * size..end]), p)
        })
        .collect();
    LatencySummary {
        n,
        p50: percentile(&sorted(values), 50.0),
        tail: median(&tails),
        tail_percentile: p,
        windows,
    }
}
