//! In-memory span recorder for the traced run.
//!
//! Every public call the benchmark makes into the workspace crates is
//! wrapped in [`Tracer::span`]. The wrapper always returns the call's
//! host time (the untraced run needs it for `setup_s`/`run_s`); only a
//! recording tracer also keeps a span record: name, start, end, parent
//! and the run id shared by every span of one workload repetition.
//! Records stay in memory until [`Tracer::write_jsonl`] at the end of the
//! process, so file I/O never lands inside a timed interval.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Workload repetition the span belongs to.
    pub run: u64,
    /// `layer.call`, e.g. `fleet.new`; the layer is the part before `.`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

impl Span {
    /// The layer a span is charged to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times calls and, when recording, keeps one [`Span`] per call.
pub struct Tracer {
    recording: bool,
    origin: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans when `recording` is true and only
    /// times calls otherwise.
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            recording,
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Start a new workload repetition: later spans carry a new run id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Run `f` as a span named `name` and return its result with the
    /// call's host time in seconds. Spans opened inside `f` (through the
    /// tracer it receives) become children of this one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start = Instant::now();
        let id = self.spans.len();
        if self.recording {
            self.spans.push(Span {
                id,
                parent: self.open.last().copied(),
                run: self.run,
                name,
                start_ns: self.since_origin(start),
                end_ns: 0,
            });
            self.open.push(id);
        }
        let out = f(self);
        let end = Instant::now();
        if self.recording {
            self.open.pop();
            self.spans[id].end_ns = self.since_origin(end);
        }
        (out, (end - start).as_secs_f64())
    }

    fn since_origin(&self, t: Instant) -> u64 {
        u64::try_from((t - self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, in nanoseconds: each span's duration minus
    /// the part of it covered by its children. Calls are sequential on
    /// one thread, so children never overlap and the subtraction is
    /// exact.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.layer()).or_insert(0) += s.dur_ns().saturating_sub(child_ns[s.id]);
        }
        out
    }

    /// Write every span as one JSON line, followed by one summary line
    /// with the per-layer self times.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"run\":{},\"id\":{},\"parent\":{parent},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.run, s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        let layers: Vec<String> = self
            .self_time_ns()
            .iter()
            .map(|(layer, ns)| format!("\"{layer}\":{ns}"))
            .collect();
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"self_ns\":{{{}}}}}",
            layers.join(",")
        )?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer.a", |t| {
            t.span("inner.b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let self_ns = t.self_time_ns();
        let total = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(self_ns["outer"] + self_ns["inner"], total);
        assert!(self_ns["inner"] >= 2_000_000);
    }

    #[test]
    fn non_recording_tracer_times_without_keeping_spans() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.span("x.y", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
