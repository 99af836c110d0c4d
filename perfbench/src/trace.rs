//! Outside-in tracing: spans recorded around calls into each layer's
//! public seams, kept in memory and written out when the run ends.
//!
//! Nothing here reaches inside a crate. Spans come from three wrappers
//! the crates already accept — a [`ModelProvider`] (model generation),
//! a [`StoreIo`] (store appends, fsyncs and reads) and a
//! [`CampaignObserver`] (cell start/finish, which run on the worker
//! thread) — plus the benchmark's own client-side session timers.
//! Spans nest per thread: a span opened while another is open on the
//! same thread becomes its child.

use picbench_core::{CampaignEvent, CampaignObserver};
use picbench_problems::Problem;
use picbench_prompt::Conversation;
use picbench_store::{SegmentFile, StoreIo};
use picbench_synthllm::{LanguageModel, ModelProvider};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The enclosing span on the same thread (0 = none).
    pub parent: u64,
    pub name: &'static str,
    /// The cell or session the span belongs to.
    pub group: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span sink of one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

struct Frame {
    id: u64,
    parent: u64,
    name: &'static str,
    group: u64,
    start_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static CELL: RefCell<Option<CellKey>> = const { RefCell::new(None) };
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span or group id.
    pub fn next_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a span on this thread; `group` 0 inherits the parent's.
    pub fn open(&self, name: &'static str, group: u64) {
        let id = self.next_id();
        let start_ns = self.now_ns();
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let (parent, inherited) = stack.last().map_or((0, 0), |f| (f.id, f.group));
            let group = if group == 0 { inherited } else { group };
            stack.push(Frame {
                id,
                parent,
                name,
                group,
                start_ns,
            });
        });
    }

    /// Closes the innermost span open on this thread.
    pub fn close(&self) {
        let end_ns = self.now_ns();
        if let Some(frame) = STACK.with(|stack| stack.borrow_mut().pop()) {
            self.push(Span {
                id: frame.id,
                parent: frame.parent,
                name: frame.name,
                group: frame.group,
                start_ns: frame.start_ns,
                end_ns,
            });
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name, 0);
        let result = f();
        self.close();
        result
    }

    /// Records a span timed elsewhere (client-side session phases).
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span sink poisoned").iter() {
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"name":"{}","group":{},"start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.name, s.group, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its children cover.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut totals = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        *totals.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(covered);
    }
    totals
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cursor) = (0, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// A `(problem × model × feedback)` cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKey {
    pub problem: String,
    pub model: String,
    pub feedback: usize,
}

/// The cell whose `CellStarted` was last observed on this thread.
fn current_cell() -> Option<CellKey> {
    CELL.with(|cell| cell.borrow().clone())
}

/// Times cells from `CellStarted` to `CellFinished` (both run on the
/// worker thread that evaluates the cell), notes the first result and
/// any store degradation, and — when tracing — opens a span per cell
/// and publishes the cell to the model wrapper on the same thread.
pub struct CellObserver {
    start: Instant,
    cells_ms: Mutex<Vec<f64>>,
    first_result_ns: AtomicU64,
    pub degraded: AtomicBool,
    tracer: Option<Arc<Tracer>>,
}

thread_local! {
    static CELL_START: RefCell<Option<Instant>> = const { RefCell::new(None) };
}

impl CellObserver {
    pub fn new(tracer: Option<Arc<Tracer>>) -> Arc<Self> {
        Arc::new(CellObserver {
            start: Instant::now(),
            cells_ms: Mutex::new(Vec::new()),
            first_result_ns: AtomicU64::new(u64::MAX),
            degraded: AtomicBool::new(false),
            tracer,
        })
    }

    pub fn cells_ms(&self) -> Vec<f64> {
        self.cells_ms.lock().expect("cell timer poisoned").clone()
    }

    /// Milliseconds from construction to the first finished cell.
    pub fn first_result_ms(&self) -> Option<f64> {
        match self.first_result_ns.load(Ordering::Relaxed) {
            u64::MAX => None,
            ns => Some(ns as f64 / 1e6),
        }
    }
}

impl CampaignObserver for CellObserver {
    fn on_event(&self, event: &CampaignEvent) {
        match event {
            CampaignEvent::CellStarted {
                problem_id,
                model,
                feedback_iters,
            } => {
                if let Some(tracer) = &self.tracer {
                    CELL.with(|cell| {
                        *cell.borrow_mut() = Some(CellKey {
                            problem: problem_id.clone(),
                            model: model.clone(),
                            feedback: *feedback_iters,
                        })
                    });
                    tracer.open("core.cell", tracer.next_id());
                }
                CELL_START.with(|s| *s.borrow_mut() = Some(Instant::now()));
            }
            CampaignEvent::CellFinished { .. } => {
                if let Some(started) = CELL_START.with(|s| s.borrow_mut().take()) {
                    let ms = started.elapsed().as_secs_f64() * 1e3;
                    self.cells_ms.lock().expect("cell timer poisoned").push(ms);
                }
                let ns = self.start.elapsed().as_nanos() as u64;
                self.first_result_ns.fetch_min(ns, Ordering::Relaxed);
                if let Some(tracer) = &self.tracer {
                    tracer.close();
                    CELL.with(|cell| *cell.borrow_mut() = None);
                }
            }
            CampaignEvent::StoreDegraded { .. } => self.degraded.store(true, Ordering::Relaxed),
            _ => {}
        }
    }
}

/// One recorded model response.
#[derive(Debug, Clone)]
pub struct Attempt {
    pub cell: CellKey,
    /// The campaign seed the model was spawned with.
    pub seed: u64,
    pub sample: u64,
    /// 0 = the initial query, 1.. = feedback rounds.
    pub attempt: usize,
    pub response: String,
}

/// Where a [`TracedProvider`] records responses (when enabled).
#[derive(Debug, Default)]
pub struct Recording {
    pub attempts: Mutex<Vec<Attempt>>,
}

/// A [`ModelProvider`] wrapper that keeps the provider's name, times
/// every `respond` as a `synthllm.respond` span and optionally records
/// `(cell, sample, attempt, response)` for the layer replays.
pub struct TracedProvider {
    inner: Arc<dyn ModelProvider>,
    tracer: Arc<Tracer>,
    recording: Option<Arc<Recording>>,
}

impl TracedProvider {
    pub fn new(
        inner: Arc<dyn ModelProvider>,
        tracer: Arc<Tracer>,
        recording: Option<Arc<Recording>>,
    ) -> Self {
        TracedProvider {
            inner,
            tracer,
            recording,
        }
    }

    fn wrap(&self, inner: Box<dyn LanguageModel>, seed: u64) -> Box<dyn LanguageModel> {
        Box::new(TracedLlm {
            inner,
            seed,
            tracer: Arc::clone(&self.tracer),
            recording: self.recording.clone(),
            sample: 0,
            attempt: 0,
        })
    }
}

impl ModelProvider for TracedProvider {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn spawn(&self) -> Box<dyn LanguageModel> {
        self.wrap(self.inner.spawn(), 0)
    }

    fn spawn_seeded(&self, seed: u64) -> Box<dyn LanguageModel> {
        self.wrap(self.inner.spawn_seeded(seed), seed)
    }
}

struct TracedLlm {
    inner: Box<dyn LanguageModel>,
    tracer: Arc<Tracer>,
    recording: Option<Arc<Recording>>,
    seed: u64,
    sample: u64,
    attempt: usize,
}

impl LanguageModel for TracedLlm {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin_sample(&mut self, problem: &Problem, sample_index: u64) {
        self.sample = sample_index;
        self.attempt = 0;
        self.inner.begin_sample(problem, sample_index);
    }

    fn respond(&mut self, conversation: &Conversation) -> String {
        let response = self
            .tracer
            .scope("synthllm.respond", || self.inner.respond(conversation));
        if let (Some(recording), Some(cell)) = (&self.recording, current_cell()) {
            recording
                .attempts
                .lock()
                .expect("recording poisoned")
                .push(Attempt {
                    cell,
                    seed: self.seed,
                    sample: self.sample,
                    attempt: self.attempt,
                    response: response.clone(),
                });
        }
        self.attempt += 1;
        response
    }
}

/// Counters of a [`TracedIo`].
#[derive(Debug, Default)]
pub struct IoCounters {
    pub appends: AtomicU64,
    pub append_bytes: AtomicU64,
    pub syncs: AtomicU64,
    pub read_bytes: AtomicU64,
}

/// A [`StoreIo`] wrapper that counts and times every segment append,
/// fsync and full read (`store.append`, `store.sync`, `store.read`).
pub struct TracedIo {
    inner: Box<dyn StoreIo>,
    counters: Arc<IoCounters>,
    tracer: Arc<Tracer>,
}

impl TracedIo {
    pub fn new(inner: Box<dyn StoreIo>, counters: Arc<IoCounters>, tracer: Arc<Tracer>) -> Self {
        TracedIo {
            inner,
            counters,
            tracer,
        }
    }
}

impl StoreIo for TracedIo {
    fn list_segments(&mut self) -> io::Result<Vec<u32>> {
        self.inner.list_segments()
    }

    fn open_segment(&mut self, id: u32) -> io::Result<Box<dyn SegmentFile>> {
        Ok(Box::new(TracedSegment {
            inner: self.inner.open_segment(id)?,
            counters: Arc::clone(&self.counters),
            tracer: Arc::clone(&self.tracer),
        }))
    }
}

struct TracedSegment {
    inner: Box<dyn SegmentFile>,
    counters: Arc<IoCounters>,
    tracer: Arc<Tracer>,
}

impl SegmentFile for TracedSegment {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        let data = self.tracer.scope("store.read", || self.inner.read_all())?;
        let bytes = data.len() as u64;
        self.counters.read_bytes.fetch_add(bytes, Ordering::Relaxed);
        Ok(data)
    }

    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate_to(len)
    }

    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.counters.appends.fetch_add(1, Ordering::Relaxed);
        let bytes = data.len() as u64;
        self.counters
            .append_bytes
            .fetch_add(bytes, Ordering::Relaxed);
        self.tracer
            .scope("store.append", || self.inner.append(data))
    }

    fn sync(&mut self) -> io::Result<()> {
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        self.tracer.scope("store.sync", || self.inner.sync())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            group: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = [
            span(1, 0, "core.cell", 0, 100),
            span(2, 1, "synthllm.respond", 10, 30),
            span(3, 1, "synthllm.respond", 20, 40), // overlaps the first child
            span(4, 1, "store.sync", 90, 120),      // runs past the parent
        ];
        let totals = self_time_ns(&spans);
        assert_eq!(totals["core.cell"], 100 - 30 - 10);
        assert_eq!(totals["synthllm.respond"], 40);
        assert_eq!(totals["store.sync"], 30);
    }

    #[test]
    fn nested_spans_take_the_enclosing_span_as_parent() {
        let tracer = Tracer::new();
        tracer.open("outer", 7);
        tracer.scope("inner", || ());
        tracer.close();
        let spans = tracer.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!((outer.group, inner.group), (7, 7));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }
}
