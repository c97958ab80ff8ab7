//! In-memory span recorder and the forwarding [`MapService`] wrapper
//! that puts spans and counts around each call into a layer.
//!
//! A span carries both clocks: host wall time (seconds since the
//! recorder was created) and modeled device time (seconds on the
//! workload's modeled clock). Spans nest on a stack, so a span's parent
//! is whatever span was open when it started. A layer's self time is
//! the sum over its spans of the span's host duration minus its
//! children's; because every child lies inside its parent, the self
//! times of all layers add up to the root span's duration.

use std::cell::RefCell;
use std::io::Write as _;
use std::rc::Rc;
use std::time::Instant;
use warpdrive::{
    CascadeStage, DegradedStats, DeleteResponse, GetResponse, MapService, Occupancy, Op, OpError,
    OpReport, PutResponse, ResizeState, Response,
};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span sits at.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Client request the span belongs to.
    pub request: u64,
    /// Host start, seconds since the recorder's epoch.
    pub host_start: f64,
    /// Host end, seconds since the recorder's epoch.
    pub host_end: f64,
    /// Modeled start, seconds on the workload's modeled clock.
    pub model_start: f64,
    /// Modeled end, seconds on the workload's modeled clock.
    pub model_end: f64,
}

/// Counts taken at the wrapper boundaries.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// `execute` calls through an execute-level wrapper.
    pub execute_calls: u64,
    /// Modeled seconds reported by those calls.
    pub execute_modeled_s: f64,
    /// Modeled seconds per cascade stage, indexed by [`stage_index`].
    pub stage_s: [f64; STAGE_METRICS.len()],
    /// Fixed launch-overhead part of the stage times.
    pub overhead_s: f64,
    /// NVLink bytes of the transpose and transpose-back stages.
    pub transpose_bytes: u64,
    /// PCIe bytes of the host transfers.
    pub pcie_bytes: u64,
}

/// Metric names of the [`Counts::stage_s`] buckets, in index order
/// (insert and query kernels share the `kernel` bucket).
const STAGE_METRICS: [&str; 8] = [
    "cascade.h2d_s",
    "cascade.multisplit_s",
    "cascade.transpose_s",
    "cascade.kernel_s",
    "cascade.transpose_back_s",
    "cascade.scatter_s",
    "cascade.d2h_s",
    "cascade.backoff_s",
];

/// The [`Counts::stage_s`] bucket of a cascade stage.
fn stage_index(stage: CascadeStage) -> usize {
    match stage {
        CascadeStage::H2D => 0,
        CascadeStage::Multisplit => 1,
        CascadeStage::Transpose => 2,
        CascadeStage::Insert | CascadeStage::Query => 3,
        CascadeStage::TransposeBack => 4,
        CascadeStage::Scatter => 5,
        CascadeStage::D2H => 6,
        CascadeStage::Backoff => 7,
    }
}

impl Counts {
    /// The counts as `execute.*`, `cascade.*` and `interconnect.*`
    /// metrics.
    #[must_use]
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let mut out = vec![
            ("execute.calls", self.execute_calls as f64),
            ("execute.modeled_s", self.execute_modeled_s),
        ];
        out.extend(STAGE_METRICS.into_iter().zip(self.stage_s));
        out.extend([
            ("cascade.overhead_s", self.overhead_s),
            ("interconnect.transpose_bytes", self.transpose_bytes as f64),
            ("interconnect.pcie_bytes", self.pcie_bytes as f64),
        ]);
        out
    }

    fn add_stages(&mut self, report: &OpReport) {
        for s in &report.stages {
            self.stage_s[stage_index(s.stage)] += s.time;
            self.overhead_s += s.overhead;
            match s.stage {
                CascadeStage::Transpose | CascadeStage::TransposeBack => {
                    self.transpose_bytes += s.bytes;
                }
                CascadeStage::H2D | CascadeStage::D2H => self.pcie_bytes += s.bytes,
                _ => {}
            }
        }
    }
}

/// The recorder behind a [`Tracer`].
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// The modeled clock a wrapper span starts at; the benchmark loop
    /// sets it before each call and wrappers advance it by the reported
    /// time.
    pub model_cursor: f64,
    /// The client request wrapper spans belong to; set by the benchmark loop.
    pub request: u64,
    /// Boundary counts.
    pub counts: Counts,
}

/// A handle on an optional recorder; a disabled tracer records nothing
/// and reads no clock.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Rc<RefCell<Recorder>>>);

/// Handle of an open span (`usize::MAX` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

impl Tracer {
    /// A tracer that records.
    #[must_use]
    pub fn on() -> Self {
        Self(Some(Rc::new(RefCell::new(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            model_cursor: 0.0,
            request: 0,
            counts: Counts::default(),
        }))))
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&self, name: &'static str, request: u64, model_start: f64) -> SpanId {
        let Some(rec) = &self.0 else {
            return SpanId(usize::MAX);
        };
        let mut r = rec.borrow_mut();
        let id = r.spans.len();
        let parent = r.stack.last().copied();
        let host_start = r.epoch.elapsed().as_secs_f64();
        r.spans.push(Span {
            name,
            parent,
            request,
            host_start,
            host_end: host_start,
            model_start,
            model_end: model_start,
        });
        r.stack.push(id);
        SpanId(id)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&self, id: SpanId, model_end: f64) {
        let Some(rec) = &self.0 else { return };
        let mut r = rec.borrow_mut();
        let host_end = r.epoch.elapsed().as_secs_f64();
        assert_eq!(
            r.stack.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        let s = &mut r.spans[id.0];
        s.host_end = host_end;
        s.model_end = model_end;
    }

    /// Sets the request and modeled clock the next wrapper span starts
    /// with.
    pub fn set_context(&self, request: u64, model_cursor: f64) {
        if let Some(rec) = &self.0 {
            let mut r = rec.borrow_mut();
            r.request = request;
            r.model_cursor = model_cursor;
        }
    }

    /// Runs `f` on the recorder, if tracing is on.
    pub fn with<R>(&self, f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
        self.0.as_ref().map(|rec| f(&mut rec.borrow_mut()))
    }
}

impl Recorder {
    /// Host self time per span name, in first-seen order.
    #[must_use]
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.host_end - s.host_start;
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let own = (s.host_end - s.host_start) - c;
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }

    /// Host duration of the root spans (those without a parent).
    #[must_use]
    pub fn root_host_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.host_end - s.host_start)
            .sum()
    }

    /// Recorded spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// I/O errors of the writer.
    pub fn write_jsonl(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"request\":{},\
                 \"host_start_s\":{:e},\"host_end_s\":{:e},\"model_start_s\":{:e},\"model_end_s\":{:e}}}",
                s.name, s.request, s.host_start, s.host_end, s.model_start, s.model_end
            )?;
        }
        Ok(())
    }
}

/// Writes the recorder's spans to `path` (creating its directory).
///
/// # Errors
/// I/O errors.
pub fn dump(rec: &Recorder, path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    rec.write_jsonl(&mut w)?;
    w.flush()
}

/// Which calls a [`Traced`] wrapper puts spans around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// `execute` (the op-stream front door).
    Execute,
    /// `put_batch`, `get_batch` and `delete_batch`.
    Batch,
}

/// A forwarding [`MapService`]: every trait method goes to the wrapped
/// backend unchanged — `execute` included, so the backend's own
/// `execute` is what runs — and the calls at the wrapper's level get a
/// span and boundary counts.
pub struct Traced<S> {
    inner: S,
    level: Level,
    tracer: Tracer,
}

impl<S: MapService> Traced<S> {
    /// Wraps `inner`; with a disabled tracer the wrapper only forwards.
    pub fn new(inner: S, level: Level, tracer: Tracer) -> Self {
        Self {
            inner,
            level,
            tracer,
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped backend.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    fn timed<T>(
        &mut self,
        level: Level,
        name: &'static str,
        call: impl FnOnce(&mut S) -> Result<T, OpError>,
        report: impl Fn(&T) -> &OpReport,
    ) -> Result<T, OpError> {
        if self.level != level || !self.tracer.enabled() {
            return call(&mut self.inner);
        }
        let (request, start) = self
            .tracer
            .with(|r| (r.request, r.model_cursor))
            .unwrap_or_default();
        let id = self.tracer.enter(name, request, start);
        let out = call(&mut self.inner);
        let time = out.as_ref().map_or(0.0, |t| report(t).time);
        self.tracer.exit(id, start + time);
        self.tracer.with(|r| {
            r.model_cursor = start + time;
            if let Ok(t) = &out {
                let rep = report(t);
                if level == Level::Execute {
                    r.counts.execute_calls += 1;
                    r.counts.execute_modeled_s += rep.time;
                }
                r.counts.add_stages(rep);
            }
        });
        out
    }
}

impl<S: MapService> MapService for Traced<S> {
    fn put_batch(&mut self, pairs: &[(u32, u32)]) -> Result<PutResponse, OpError> {
        self.timed(Level::Batch, "batch", |s| s.put_batch(pairs), |r| &r.report)
    }

    fn get_batch(&mut self, keys: &[u32]) -> Result<GetResponse, OpError> {
        self.timed(Level::Batch, "batch", |s| s.get_batch(keys), |r| &r.report)
    }

    fn delete_batch(&mut self, keys: &[u32]) -> Result<DeleteResponse, OpError> {
        self.timed(
            Level::Batch,
            "batch",
            |s| s.delete_batch(keys),
            |r| &r.report,
        )
    }

    fn live_len(&self) -> u64 {
        self.inner.live_len()
    }

    fn slot_capacity(&self) -> u64 {
        self.inner.slot_capacity()
    }

    fn occupancy(&self) -> f64 {
        self.inner.occupancy()
    }

    fn degraded(&self) -> DegradedStats {
        self.inner.degraded()
    }

    fn occupancy_split(&self) -> Occupancy {
        self.inner.occupancy_split()
    }

    fn resize_state(&self) -> ResizeState {
        self.inner.resize_state()
    }

    fn request_grow(&mut self) -> Result<bool, OpError> {
        self.inner.request_grow()
    }

    fn request_compact(&mut self) -> Result<bool, OpError> {
        self.inner.request_compact()
    }

    fn execute(&mut self, ops: &[Op]) -> Result<(Vec<Response>, OpReport), OpError> {
        self.timed(Level::Execute, "execute", |s| s.execute(ops), |r| &r.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let t = Tracer::on();
        let root = t.enter("pass", 0, 0.0);
        let a = t.enter("request", 1, 0.0);
        let b = t.enter("execute", 1, 0.0);
        std::hint::black_box((0..10_000).sum::<u64>());
        t.exit(b, 1.0);
        t.exit(a, 1.0);
        t.exit(root, 1.0);
        t.with(|r| {
            let sum: f64 = r.self_times().iter().map(|(_, s)| s).sum();
            assert!((sum - r.root_host_s()).abs() < 1e-9);
            assert_eq!(r.len(), 3);
        });
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::default();
        let id = t.enter("pass", 0, 0.0);
        t.exit(id, 1.0);
        assert!(t.with(|r| r.len()).is_none());
    }
}
