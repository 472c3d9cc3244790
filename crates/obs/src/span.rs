//! Span tracing: task lifecycles, phases, and simulator timelines.
//!
//! A [`Tracer`] collects [`SpanRecord`]s from three kinds of sources:
//!
//! * **task scopes** ([`task_scope`]) — the sweep pool opens one per task
//!   it executes, recording its lifecycle span;
//! * **phase spans** ([`span`]) — RAII guards for named phases inside a
//!   task (graph build, serialized metric, overlap metric, ...). Guards
//!   record on `Drop`, so a panicking task still closes every open span
//!   and nesting stays balanced;
//! * **simulator timelines** ([`Tracer::push_sim_spans`]) — the
//!   discrete-event engine feeds each executed timeline in as its own
//!   Chrome-trace process, laid out sequentially when one task runs
//!   several simulations.
//!
//! ## Determinism
//!
//! In [`TraceMode::Wall`] spans carry real timestamps and worker-thread
//! lanes — the view a human wants. In [`TraceMode::Logical`] timestamps
//! come from *per-task* logical tick counters inside disjoint windows
//! derived from the task index, worker identity is erased, and simulator
//! timestamps are virtual (deterministic by construction) — so the
//! exported trace is byte-identical for any `--jobs` count.
//!
//! Tracer selection is thread-inherited: a worker pool snapshots the
//! parent thread's tracer and scope path ([`pool_seed`]) and seeds each
//! worker ([`enter_worker`]), so nested pools keep attributing spans to
//! the right tracer and window even though they spawn fresh threads.

use crate::clock::{Clock, LogicalClock, MonotonicClock};
use crate::metrics;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, PoisonError, RwLock};

/// How the tracer stamps time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Real monotonic microseconds; worker threads become trace lanes.
    Wall,
    /// Deterministic logical ticks in per-task windows; lane identity is
    /// erased so traces are byte-identical across worker counts.
    Logical,
}

/// One completed span, in Chrome-trace terms.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (task label, phase name, or kernel name).
    pub name: String,
    /// Category (`task`, `phase`, or a simulator op class).
    pub cat: String,
    /// Chrome-trace process lane.
    pub pid: u64,
    /// Chrome-trace thread lane within the process.
    pub tid: u64,
    /// Start, microseconds (wall, logical ticks, or simulated time).
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
    /// Extra key/value annotations (rendered as Chrome-trace `args`).
    pub args: Vec<(String, String)>,
}

impl SpanRecord {
    /// End timestamp (`start_us + dur_us`).
    #[must_use]
    pub fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }
}

/// One simulator kernel record, in tracer-neutral form. Produced by
/// `twocs-sim`'s timeline adapter and consumed by
/// [`Tracer::push_sim_spans`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpan {
    /// Kernel name.
    pub name: String,
    /// Op class (`gemm`, `comm`, ...).
    pub cat: &'static str,
    /// Lane within the simulated process (device × stream).
    pub tid: u64,
    /// Simulated start, microseconds.
    pub start_us: f64,
    /// Simulated duration, microseconds.
    pub dur_us: f64,
}

/// Sorted, export-ready view of a tracer's contents.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// All spans in deterministic export order.
    pub spans: Vec<SpanRecord>,
    /// Process-lane display names, by pid.
    pub process_names: BTreeMap<u64, String>,
}

/// Spacing between sibling task windows at nesting depth `d` (logical
/// mode): top-level tasks are 1 s apart, nested pool tasks 1 ms, anything
/// deeper packs at 1 µs.
fn stride(depth: usize) -> u64 {
    match depth {
        0 => 1_000_000,
        1 => 1_000,
        _ => 1,
    }
}

/// Logical-mode window base for a scope path (task indices, outermost
/// first).
fn window_base(path: &[usize]) -> u64 {
    path.iter()
        .enumerate()
        .map(|(d, &i)| (i as u64 + 1) * stride(d))
        .sum()
}

/// Chrome-trace pid for simulator timelines executed under a scope path.
/// Path-derived (not allocator-based) so it is identical whatever worker
/// ran the task.
fn sim_pid(path: &[usize]) -> u64 {
    path.iter()
        .fold(0u64, |acc, &i| {
            acc.wrapping_mul(4096).wrapping_add(i as u64 + 1)
        })
        .wrapping_add(1)
}

/// Hard per-scope cap on captured simulator spans; beyond it the rest of
/// the timeline is dropped (counted in the `trace.sim_spans_dropped`
/// metric). Per-scope, so what is kept is deterministic.
const MAX_SIM_SPANS_PER_SCOPE: usize = 100_000;

/// Global cap on total recorded spans — a runaway-workload backstop.
const MAX_EVENTS: usize = 4_000_000;

/// Collects spans. Cheap to share (`Arc`); all methods take `&self`.
#[derive(Debug)]
pub struct Tracer {
    mode: TraceMode,
    clock: Box<dyn Clock>,
    records: Mutex<Vec<SpanRecord>>,
    process_names: Mutex<BTreeMap<u64, String>>,
    dropped: AtomicU64,
}

impl Tracer {
    /// A tracer stamping real wall time.
    #[must_use]
    pub fn wall() -> Arc<Self> {
        Arc::new(Self::new(TraceMode::Wall))
    }

    /// A tracer with deterministic logical time.
    #[must_use]
    pub fn logical() -> Arc<Self> {
        Arc::new(Self::new(TraceMode::Logical))
    }

    /// Create a tracer in `mode`; it captures simulator timelines too.
    #[must_use]
    pub fn new(mode: TraceMode) -> Self {
        let clock: Box<dyn Clock> = match mode {
            TraceMode::Wall => Box::new(MonotonicClock::new()),
            TraceMode::Logical => Box::new(LogicalClock::new()),
        };
        Self {
            mode,
            clock,
            records: Mutex::new(Vec::new()),
            process_names: Mutex::new(BTreeMap::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// The tracer's time mode.
    #[must_use]
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// Spans dropped by the per-scope and global caps.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Register a display name for a Chrome-trace process lane. First
    /// registration wins.
    pub fn name_process(&self, pid: u64, name: &str) {
        self.process_names
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(pid)
            .or_insert_with(|| name.to_owned());
    }

    /// Append a finished span.
    pub fn push(&self, record: SpanRecord) {
        let mut records = self.records.lock().unwrap_or_else(PoisonError::into_inner);
        if records.len() >= MAX_EVENTS {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        records.push(record);
    }

    /// Feed one simulator timeline, attributed to the calling thread's
    /// current task scope: it becomes (part of) a dedicated Chrome-trace
    /// process, with consecutive timelines of the same scope laid out
    /// sequentially.
    pub fn push_sim_spans(&self, spans: &[SimSpan]) {
        if spans.is_empty() {
            return;
        }
        let (pid, label, offset, budget) = CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            let path = ctx.full_path();
            let pid = sim_pid(&path);
            let frame = ctx.top_frame_mut();
            let budget = MAX_SIM_SPANS_PER_SCOPE.saturating_sub(frame.sim_spans_pushed);
            let taken = spans.len().min(budget);
            frame.sim_spans_pushed += taken;
            let offset = frame.sim_cursor_us;
            let max_end = spans
                .iter()
                .take(taken)
                .map(SimSpanExt::end_us)
                .fold(0.0f64, f64::max);
            frame.sim_cursor_us += max_end.ceil() + 10.0;
            (pid, frame.label.clone(), offset, taken)
        });
        if budget < spans.len() {
            metrics::global()
                .counter("trace.sim_spans_dropped")
                .add((spans.len() - budget) as u64);
            self.dropped
                .fetch_add((spans.len() - budget) as u64, Ordering::Relaxed);
        }
        let display = if label.is_empty() {
            "sim".to_owned()
        } else {
            format!("{label} · sim")
        };
        self.name_process(pid, &display);
        for s in spans.iter().take(budget) {
            self.push(SpanRecord {
                name: s.name.clone(),
                cat: s.cat.to_owned(),
                pid,
                tid: s.tid,
                start_us: offset + s.start_us,
                dur_us: s.dur_us,
                args: Vec::new(),
            });
        }
    }

    /// Snapshot the trace in deterministic export order: sorted by
    /// `(pid, tid, start, -dur, name, cat)` so parents precede children
    /// and ties resolve identically however workers interleaved.
    #[must_use]
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut spans = self
            .records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        spans.sort_by(|a, b| {
            (a.pid, a.tid)
                .cmp(&(b.pid, b.tid))
                .then(a.start_us.total_cmp(&b.start_us))
                .then(b.dur_us.total_cmp(&a.dur_us))
                .then(a.name.cmp(&b.name))
                .then(a.cat.cmp(&b.cat))
                .then(a.args.cmp(&b.args))
        });
        let process_names = self
            .process_names
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        TraceSnapshot {
            spans,
            process_names,
        }
    }

    /// Number of spans recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether no spans have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

trait SimSpanExt {
    fn end_us(&self) -> f64;
}
impl SimSpanExt for SimSpan {
    fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }
}

// ---------------------------------------------------------------------------
// Thread context: which tracer, which worker lane, which scope path.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct ScopeFrame {
    index: usize,
    label: String,
    /// Logical-mode tick allocator; starts at 1 so phase spans sit
    /// strictly inside their task window.
    tick: u64,
    sim_cursor_us: f64,
    sim_spans_pushed: usize,
}

impl ScopeFrame {
    fn root() -> Self {
        Self {
            index: 0,
            label: String::new(),
            tick: 1,
            sim_cursor_us: 0.0,
            sim_spans_pushed: 0,
        }
    }
}

#[derive(Debug)]
struct ThreadCtx {
    tracer: Option<Arc<Tracer>>,
    /// Scope-path prefix inherited from the thread that spawned this
    /// worker pool.
    base_path: Vec<usize>,
    worker: u64,
    root: ScopeFrame,
    frames: Vec<ScopeFrame>,
}

impl ThreadCtx {
    fn new() -> Self {
        Self {
            tracer: None,
            base_path: Vec::new(),
            worker: 0,
            root: ScopeFrame::root(),
            frames: Vec::new(),
        }
    }

    fn full_path(&self) -> Vec<usize> {
        let mut p = self.base_path.clone();
        p.extend(self.frames.iter().map(|f| f.index));
        p
    }

    fn top_frame_mut(&mut self) -> &mut ScopeFrame {
        self.frames.last_mut().unwrap_or(&mut self.root)
    }
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = RefCell::new(ThreadCtx::new());
}

static GLOBAL: LazyLock<RwLock<Option<Arc<Tracer>>>> = LazyLock::new(|| RwLock::new(None));

/// Install a process-wide tracer. Threads without a thread-local tracer
/// (see [`set_thread_tracer`]) fall back to it.
pub fn install_global(tracer: Arc<Tracer>) {
    *GLOBAL.write().unwrap_or_else(PoisonError::into_inner) = Some(tracer);
}

/// Remove the process-wide tracer.
pub fn uninstall_global() {
    *GLOBAL.write().unwrap_or_else(PoisonError::into_inner) = None;
}

/// The process-wide tracer, if any.
#[must_use]
pub fn global() -> Option<Arc<Tracer>> {
    GLOBAL
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Bind (or clear) a tracer for the current thread only. Worker pools
/// seeded from this thread inherit it, so tests can trace a pool without
/// touching process-global state.
pub fn set_thread_tracer(tracer: Option<Arc<Tracer>>) {
    CTX.with(|ctx| ctx.borrow_mut().tracer = tracer);
}

/// The tracer in effect on this thread: the thread-local one if bound,
/// else the process-global one.
#[must_use]
pub fn current_tracer() -> Option<Arc<Tracer>> {
    CTX.with(|ctx| ctx.borrow().tracer.clone()).or_else(global)
}

/// Snapshot of the calling thread's tracing context, for seeding the
/// worker threads of a pool it is about to spawn.
#[derive(Debug, Clone)]
pub struct PoolSeed {
    tracer: Option<Arc<Tracer>>,
    path: Vec<usize>,
}

/// Capture the current thread's tracer and scope path.
#[must_use]
pub fn pool_seed() -> PoolSeed {
    CTX.with(|ctx| {
        let ctx = ctx.borrow();
        PoolSeed {
            tracer: ctx.tracer.clone(),
            path: ctx.full_path(),
        }
    })
}

/// Initialise a worker thread from its pool's seed: inherit the tracer
/// and scope path, and take lane `worker`.
pub fn enter_worker(seed: &PoolSeed, worker: usize) {
    CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        ctx.tracer = seed.tracer.clone();
        ctx.base_path = seed.path.clone();
        ctx.worker = worker as u64;
        ctx.root = ScopeFrame::root();
        ctx.frames.clear();
    });
}

/// RAII scope for one pool task, and (in logical mode) the owner of a
/// deterministic time window. Created by [`task_scope`]; closed by
/// [`TaskScope::finish`] or `Drop`.
#[derive(Debug)]
pub struct TaskScope {
    tracer: Option<Arc<Tracer>>,
    /// Full path including this scope's own index.
    path: Vec<usize>,
    label: String,
    start_us: u64,
    worker: u64,
    finished: bool,
}

/// Open a task scope for task `index` with a display `label`.
///
/// Works with no tracer bound; spans are only recorded when a tracer is
/// in effect.
#[must_use]
pub fn task_scope(index: usize, label: &str) -> TaskScope {
    let tracer = current_tracer();
    let (path, worker) = CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        ctx.frames.push(ScopeFrame {
            index,
            label: label.to_owned(),
            ..ScopeFrame::root()
        });
        (ctx.full_path(), ctx.worker)
    });
    let start_us = match &tracer {
        Some(t) if t.mode() == TraceMode::Wall => t.clock.now_us(),
        _ => 0,
    };
    TaskScope {
        tracer,
        path,
        label: label.to_owned(),
        start_us,
        worker,
        finished: false,
    }
}

impl TaskScope {
    /// Close the scope.
    pub fn finish(mut self) {
        self.close();
    }

    fn close(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        CTX.with(|ctx| ctx.borrow_mut().frames.pop());
        if let Some(tracer) = &self.tracer {
            let depth = self.path.len().saturating_sub(1);
            let (start_us, dur_us, tid, args) = match tracer.mode() {
                TraceMode::Logical => (
                    window_base(&self.path) as f64,
                    stride(depth) as f64,
                    0,
                    Vec::new(),
                ),
                TraceMode::Wall => {
                    let end = tracer.clock.now_us();
                    (
                        self.start_us as f64,
                        end.saturating_sub(self.start_us) as f64,
                        self.worker,
                        vec![("worker".to_owned(), self.worker.to_string())],
                    )
                }
            };
            tracer.name_process(0, "sweep-pool");
            tracer.push(SpanRecord {
                name: self.label.clone(),
                cat: "task".to_owned(),
                pid: 0,
                tid,
                start_us,
                dur_us,
                args,
            });
        }
    }
}

impl Drop for TaskScope {
    fn drop(&mut self) {
        self.close();
    }
}

/// RAII guard for a named phase inside the current task scope. Records a
/// span on drop (so panics still close it); a no-op when no tracer is in
/// effect.
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Option<Arc<Tracer>>,
    name: String,
    cat: &'static str,
    /// Wall: real start. Logical: window base + open tick.
    start_us: u64,
    tid: u64,
}

/// Open a phase span named `name` under category `cat`.
#[must_use]
pub fn span(name: &str, cat: &'static str) -> SpanGuard {
    let tracer = current_tracer();
    let Some(t) = tracer else {
        return SpanGuard {
            tracer: None,
            name: String::new(),
            cat,
            start_us: 0,
            tid: 0,
        };
    };
    let (start_us, tid) = match t.mode() {
        TraceMode::Wall => (t.clock.now_us(), CTX.with(|ctx| ctx.borrow().worker)),
        TraceMode::Logical => CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            let base = window_base(&ctx.full_path());
            let frame = ctx.top_frame_mut();
            let tick = frame.tick;
            frame.tick += 1;
            (base + tick, 0)
        }),
    };
    SpanGuard {
        tracer: Some(t),
        name: name.to_owned(),
        cat,
        start_us,
        tid,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(tracer) = self.tracer.take() else {
            return;
        };
        let end_us = match tracer.mode() {
            TraceMode::Wall => tracer.clock.now_us(),
            TraceMode::Logical => CTX.with(|ctx| {
                let mut ctx = ctx.borrow_mut();
                let base = window_base(&ctx.full_path());
                let frame = ctx.top_frame_mut();
                let tick = frame.tick;
                frame.tick += 1;
                base + tick
            }),
        };
        tracer.name_process(0, "sweep-pool");
        tracer.push(SpanRecord {
            name: std::mem::take(&mut self.name),
            cat: self.cat.to_owned(),
            pid: 0,
            tid: self.tid,
            start_us: self.start_us as f64,
            dur_us: end_us.saturating_sub(self.start_us) as f64,
            args: Vec::new(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_tracer<R>(mode: TraceMode, f: impl FnOnce(&Arc<Tracer>) -> R) -> R {
        let tracer = Arc::new(Tracer::new(mode));
        set_thread_tracer(Some(tracer.clone()));
        let out = f(&tracer);
        set_thread_tracer(None);
        out
    }

    #[test]
    fn logical_task_scopes_use_disjoint_windows() {
        let spans = with_tracer(TraceMode::Logical, |t| {
            for i in 0..3 {
                let scope = task_scope(i, &format!("task {i}"));
                let _phase = span("work", "phase");
                drop(_phase);
                scope.finish();
            }
            t.snapshot().spans
        });
        let tasks: Vec<&SpanRecord> = spans.iter().filter(|s| s.cat == "task").collect();
        assert_eq!(tasks.len(), 3);
        for (i, s) in tasks.iter().enumerate() {
            assert_eq!(s.start_us, ((i as u64 + 1) * 1_000_000) as f64);
            assert_eq!(s.dur_us, 1_000_000.0);
            assert_eq!(s.tid, 0);
        }
        let phases: Vec<&SpanRecord> = spans.iter().filter(|s| s.cat == "phase").collect();
        assert_eq!(phases.len(), 3);
        for (task, phase) in tasks.iter().zip(&phases) {
            assert!(phase.start_us > task.start_us);
            assert!(phase.end_us() < task.end_us());
        }
    }

    #[test]
    fn drop_closes_unfinished_scopes() {
        let spans = with_tracer(TraceMode::Logical, |t| {
            {
                let _scope = task_scope(0, "dropped");
                let _phase = span("inner", "phase");
                // both dropped here without finish()
            }
            t.snapshot().spans
        });
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().any(|s| s.name == "dropped"));
        assert!(spans.iter().any(|s| s.name == "inner"));
    }

    #[test]
    fn sim_spans_land_in_a_path_derived_process() {
        let snap = with_tracer(TraceMode::Logical, |t| {
            let scope = task_scope(2, "fig10");
            t.push_sim_spans(&[SimSpan {
                name: "gemm_k".into(),
                cat: "gemm",
                tid: 4,
                start_us: 0.0,
                dur_us: 5.0,
            }]);
            // Second timeline in the same scope lays out after the first.
            t.push_sim_spans(&[SimSpan {
                name: "gemm_k".into(),
                cat: "gemm",
                tid: 4,
                start_us: 0.0,
                dur_us: 5.0,
            }]);
            scope.finish();
            t.snapshot()
        });
        let sims: Vec<&SpanRecord> = snap.spans.iter().filter(|s| s.cat == "gemm").collect();
        assert_eq!(sims.len(), 2);
        assert_eq!(sims[0].pid, sims[1].pid);
        assert_eq!(sims[0].pid, 4); // path [2] -> 3 + 1
        assert!(sims[1].start_us >= sims[0].end_us());
        assert_eq!(snap.process_names.get(&4).unwrap(), "fig10 · sim");
    }

    #[test]
    fn pool_seed_propagates_path_and_tracer_to_workers() {
        let snap = with_tracer(TraceMode::Logical, |t| {
            let outer = task_scope(1, "outer");
            let seed = pool_seed();
            std::thread::scope(|s| {
                s.spawn(|| {
                    enter_worker(&seed, 0);
                    let inner = task_scope(3, "inner");
                    inner.finish();
                });
            });
            outer.finish();
            t.snapshot()
        });
        let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap();
        // Inner window: (1+1)*1e6 + (3+1)*1e3.
        assert_eq!(inner.start_us, 2_004_000.0);
        assert_eq!(inner.dur_us, 1_000.0);
        assert!(inner.start_us >= outer.start_us && inner.end_us() <= outer.end_us());
    }

    #[test]
    fn wall_mode_tags_worker_lane() {
        let spans = with_tracer(TraceMode::Wall, |t| {
            let scope = task_scope(0, "t0");
            scope.finish();
            t.snapshot().spans
        });
        assert_eq!(spans.len(), 1);
        let args: std::collections::BTreeMap<_, _> = spans[0].args.iter().cloned().collect();
        assert_eq!(args.keys().collect::<Vec<_>>(), ["worker"]);
    }

    #[test]
    fn no_tracer_means_no_spans_but_scopes_still_work() {
        set_thread_tracer(None);
        let scope = task_scope(0, "untraced");
        let _phase = span("p", "phase");
        drop(_phase);
        scope.finish();
    }

    #[test]
    fn global_install_and_uninstall() {
        // Thread-scoped so parallel tests with thread tracers are unaffected.
        let t = Tracer::logical();
        install_global(t.clone());
        std::thread::scope(|s| {
            s.spawn(|| {
                let scope = task_scope(7, "global");
                scope.finish();
            });
        });
        uninstall_global();
        assert!(t.snapshot().spans.iter().any(|s| s.name == "global"));
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        let t = Tracer::logical();
        for rev in [false, true] {
            let mut spans = vec![
                SpanRecord {
                    name: "b".into(),
                    cat: "x".into(),
                    pid: 0,
                    tid: 0,
                    start_us: 5.0,
                    dur_us: 1.0,
                    args: Vec::new(),
                },
                SpanRecord {
                    name: "a".into(),
                    cat: "x".into(),
                    pid: 0,
                    tid: 0,
                    start_us: 5.0,
                    dur_us: 1.0,
                    args: Vec::new(),
                },
            ];
            if rev {
                spans.reverse();
            }
            let tracer = Tracer::logical();
            for s in spans {
                tracer.push(s);
            }
            let names: Vec<String> = tracer
                .snapshot()
                .spans
                .into_iter()
                .map(|s| s.name)
                .collect();
            assert_eq!(names, vec!["a".to_owned(), "b".to_owned()]);
        }
        drop(t);
    }
}
