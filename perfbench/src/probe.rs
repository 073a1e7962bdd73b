//! Passive tracing from outside the program: a span buffer for coarse calls
//! (stages, cells, whole simulations) and decorators over the public
//! `PolicyFactory` / `SpeculationPolicy` and `CellRunner` traits that time and
//! count hot calls into aggregated counters.
//!
//! Every decorator forwards each call unchanged and returns the inner result,
//! so a traced run computes exactly what an untraced run computes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use grass_core::{
    Action, BoxedPolicy, JobOutcome, JobSpec, JobView, PolicyFactory, SampleStore,
    SpeculationPolicy, TaskId,
};
use grass_fleet::CellRunner;

use crate::now;

/// One timed interval: `parent` indexes the enclosing span in the same buffer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// In-memory span buffer, written out once when the benchmark ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open span.
    pub fn enter(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and anything left open inside it); returns its seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
        let span = &self.spans[id];
        (span.end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Run `f` inside a span; returns its result and duration in seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f(self);
        let secs = self.exit(id);
        (out, secs)
    }

    /// Record an already-measured interval as a child of the innermost open span.
    pub fn record(&mut self, name: impl Into<String>, started: Instant, ended: Instant) {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name: name.into(),
            start_ns: ns(started),
            end_ns: ns(ended),
            parent: self.open.last().copied(),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The buffer as a JSON array of `{name, start_ns, end_ns, parent}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name.replace('\\', "\\\\").replace('"', "\\\""),
                s.start_ns,
                s.end_ns,
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out.push('\n');
        out
    }
}

fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn secs(ns: &AtomicU64) -> f64 {
    ns.load(Ordering::Relaxed) as f64 * 1e-9
}

/// Aggregated counters of the policy layer and the sample store it feeds.
#[derive(Debug, Default)]
pub struct PolicyCounters {
    pub choose_calls: AtomicU64,
    pub choose_accepts: AtomicU64,
    pub choose_ns: AtomicU64,
    /// Every policy callback: `create`, `choose` and the `on_*` hooks.
    pub callbacks_ns: AtomicU64,
    /// `JobView.tasks` rows handed to `choose()`.
    pub view_rows: AtomicU64,
    /// `on_job_complete` calls that advanced the store's generation.
    pub record_calls: AtomicU64,
    pub record_ns: AtomicU64,
}

impl PolicyCounters {
    pub fn choose_s(&self) -> f64 {
        secs(&self.choose_ns)
    }

    pub fn callbacks_s(&self) -> f64 {
        secs(&self.callbacks_ns)
    }

    pub fn record_s(&self) -> f64 {
        secs(&self.record_ns)
    }
}

/// `PolicyFactory` decorator: every policy it creates is a [`TimedPolicy`].
pub struct TimedFactory<'f> {
    inner: &'f dyn PolicyFactory,
    store: Arc<SampleStore>,
    counters: Arc<PolicyCounters>,
}

impl<'f> TimedFactory<'f> {
    /// `store` is the sample store the inner factory's policies record into,
    /// read to attribute `on_job_complete` time to the store layer.
    pub fn new(inner: &'f dyn PolicyFactory, store: Arc<SampleStore>) -> Self {
        TimedFactory {
            inner,
            store,
            counters: Arc::new(PolicyCounters::default()),
        }
    }

    pub fn counters(&self) -> &PolicyCounters {
        &self.counters
    }
}

impl PolicyFactory for TimedFactory<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn create(&self, job: &JobSpec) -> BoxedPolicy {
        let started = now();
        let inner = self.inner.create(job);
        self.counters
            .callbacks_ns
            .fetch_add(elapsed_ns(started), Ordering::Relaxed);
        Box::new(TimedPolicy {
            inner,
            store: Arc::clone(&self.store),
            counters: Arc::clone(&self.counters),
        })
    }
}

/// `SpeculationPolicy` decorator that times and counts every call.
pub struct TimedPolicy {
    inner: BoxedPolicy,
    store: Arc<SampleStore>,
    counters: Arc<PolicyCounters>,
}

impl SpeculationPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_job_start(&mut self, view: &JobView) {
        let started = now();
        self.inner.on_job_start(view);
        self.counters
            .callbacks_ns
            .fetch_add(elapsed_ns(started), Ordering::Relaxed);
    }

    fn choose(&mut self, view: &JobView) -> Option<Action> {
        let started = now();
        let action = self.inner.choose(view);
        let ns = elapsed_ns(started);
        let c = &self.counters;
        c.choose_ns.fetch_add(ns, Ordering::Relaxed);
        c.callbacks_ns.fetch_add(ns, Ordering::Relaxed);
        c.choose_calls.fetch_add(1, Ordering::Relaxed);
        c.view_rows
            .fetch_add(view.tasks.len() as u64, Ordering::Relaxed);
        if action.is_some() {
            c.choose_accepts.fetch_add(1, Ordering::Relaxed);
        }
        action
    }

    fn on_task_complete(&mut self, view: &JobView, task: TaskId) {
        let started = now();
        self.inner.on_task_complete(view, task);
        self.counters
            .callbacks_ns
            .fetch_add(elapsed_ns(started), Ordering::Relaxed);
    }

    fn on_job_complete(&mut self, outcome: &JobOutcome) {
        let before = self.store.generation();
        let started = now();
        self.inner.on_job_complete(outcome);
        let ns = elapsed_ns(started);
        let c = &self.counters;
        c.callbacks_ns.fetch_add(ns, Ordering::Relaxed);
        if self.store.generation() != before {
            c.record_calls.fetch_add(1, Ordering::Relaxed);
            c.record_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }
}

/// `CellRunner` decorator: a span per cell, plus the runner-side cost of the
/// learned-state exchange (`snapshot` + `absorb`). Both are forwarded, so the
/// broker still sees one sync exchange per completed cell.
pub struct TimedRunner<'r, R: CellRunner> {
    inner: &'r R,
    state: Mutex<RunnerState>,
    sync_ns: AtomicU64,
}

struct RunnerState {
    recorder: Recorder,
    /// Seconds spent in cells, per policy label.
    cell_s: BTreeMap<&'static str, f64>,
}

impl<'r, R: CellRunner> TimedRunner<'r, R> {
    pub fn new(inner: &'r R, recorder: Recorder) -> Self {
        TimedRunner {
            inner,
            state: Mutex::new(RunnerState {
                recorder,
                cell_s: BTreeMap::new(),
            }),
            sync_ns: AtomicU64::new(0),
        }
    }

    pub fn sync_s(&self) -> f64 {
        secs(&self.sync_ns)
    }

    /// Seconds spent in cells of `policy` (a [`cell_policy`] label).
    pub fn cell_s(&self, policy: &str) -> f64 {
        let state = self.state.lock().expect("span buffer lock");
        state.cell_s.get(policy).copied().unwrap_or(0.0)
    }

    pub fn into_recorder(self) -> Recorder {
        self.state
            .into_inner()
            .expect("no cell panicked while holding the span buffer")
            .recorder
    }
}

/// The policy label of a fleet cell spec (`... policy=<wire name> ...`).
pub fn cell_policy(spec: &str) -> &'static str {
    let wire = spec
        .split_whitespace()
        .find_map(|f| f.strip_prefix("policy="))
        .unwrap_or("");
    match wire {
        "late" => "LATE",
        "gs" => "GS",
        "ras" => "RAS",
        "grass" => "GRASS",
        _ => "other",
    }
}

impl<R: CellRunner> CellRunner for TimedRunner<'_, R> {
    fn run(&self, cell: usize, spec: &str) -> Result<String, String> {
        let started = now();
        let out = self.inner.run(cell, spec);
        let ended = now();
        let policy = cell_policy(spec);
        let mut state = self.state.lock().expect("span buffer lock");
        *state.cell_s.entry(policy).or_insert(0.0) += (ended - started).as_secs_f64();
        state
            .recorder
            .record(format!("sweep.cell.{policy}"), started, ended);
        out
    }

    fn snapshot(&self) -> Option<String> {
        let started = now();
        let out = self.inner.snapshot();
        self.sync_ns
            .fetch_add(elapsed_ns(started), Ordering::Relaxed);
        out
    }

    fn absorb(&self, snapshots: &str) {
        let started = now();
        self.inner.absorb(snapshots);
        self.sync_ns
            .fetch_add(elapsed_ns(started), Ordering::Relaxed);
    }
}
