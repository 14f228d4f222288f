//! The benchmark's own span recorder. Spans are recorded around calls
//! into the program's public functions (nothing inside the program is
//! instrumented), kept in memory, and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// The op this span belongs to (shared by all spans of one op).
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the recorder was created.
    pub start: f64,
    /// End, seconds since the recorder was created.
    pub end: f64,
}

impl Span {
    /// Wall duration in seconds.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

/// In-memory span recorder.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Sets the op id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
        });
        self.stack.push(index);
        Open(index)
    }

    /// Closes `open` (which must be the innermost open span) and
    /// returns its duration in seconds.
    ///
    /// # Panics
    ///
    /// If spans are closed out of order — a bug in the benchmark.
    pub fn exit(&mut self, open: Open) -> f64 {
        assert_eq!(
            self.stack.pop(),
            Some(open.0),
            "spans close innermost first"
        );
        let span = &mut self.spans[open.0];
        span.end = self.epoch.elapsed().as_secs_f64();
        span.duration()
    }

    /// Records a finished top-level span measured elsewhere (e.g. a
    /// request answered on another thread).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64();
        self.spans.push(Span {
            name,
            op,
            parent: None,
            start: at(start),
            end: at(end),
        });
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Every recorded span.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct
    /// children's durations.
    #[must_use]
    pub fn self_times(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                out[p] -= span.duration();
            }
        }
        out
    }

    /// Per span name: call count and total self time in seconds.
    #[must_use]
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for (span, self_time) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(span.name).or_default();
            e.0 += 1;
            e.1 += self_time;
        }
        out
    }

    /// Writes the spans as JSON lines to `path`.
    ///
    /// # Errors
    ///
    /// Filesystem errors creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","op":{},"parent":{parent},"start_s":{},"end_s":{}}}"#,
                s.name, s.op, s.start, s.end
            )?;
        }
        out.flush()
    }
}
