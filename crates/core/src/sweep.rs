//! Parallel sweep engine: run the experiment registry and analyze-style
//! grids across worker threads with byte-identical output.
//!
//! Every generator in this workspace is a pure function of `(device,
//! configuration)`, so sweeps parallelize trivially — the only hard
//! requirements are that **result order is deterministic** (parallel runs
//! must emit byte-identical reports, so CSV diffs stay meaningful) and
//! that a panicking configuration surfaces as a failed task instead of
//! wedging the harness.
//!
//! [`stream_tasks`] is the building block: a scoped-thread worker pool
//! (`std::thread::scope`, no external dependencies) pulling task indices
//! from an atomic counter and handing each finished task to the calling
//! thread while the rest still run. Panics are caught per task
//! ([`std::panic::catch_unwind`]) and converted into `Err(message)`
//! results. [`run_tasks`] is its collect-into-slots case, so collection
//! order is the submission order no matter which worker ran what.
//!
//! On top of it sit [`run_experiments`] — the paper's full registry with
//! per-experiment wall times — and the sweep executors. A [`GridSweep`]
//! is a `(H, SL, TP, flop-vs-bw)` cross-product evaluating both
//! communication metrics per point; a [`GridExecutor`] streams its
//! chunks' results to a consumer, in any order. [`LocalPool`] is the
//! in-process executor (one [`eval_chunk`] pool task per chunk) and
//! `twocs-dist`'s coordinator the distributed one; `twocs_store::run`
//! records either into one store, and [`GridSweep::run`] files the
//! pool's chunks into an in-memory table. Both the registry and the
//! pool report a [`SweepSummary`] with task and per-worker timings.
//!
//! The pool is instrumented through `twocs-obs`: every task runs inside a
//! task scope (so an installed tracer records its lifecycle), and queue
//! depth and per-worker busy time feed the global metrics registry.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

use crate::experiments::{ExperimentDef, ExperimentOutput};
use crate::inference::InferenceIteration;
use crate::overlapped::overlap_pct;
use crate::report::Table;
use crate::serialized::{comm_fraction, projection_baseline, sweep_hyper, Method};
use twocs_collectives::{Collective, CollectiveCostModel};
use twocs_hw::network::NetworkSpec;
use twocs_hw::{DeviceSpec, HwEvolution};
use twocs_opmodel::{ProjectedIteration, ProjectionModel};
use twocs_transformer::moe::MoeConfig;
use twocs_transformer::{Hyperparams, ParallelConfig};

pub use crate::inference::Workload;
pub use crate::planner::{eval_chunk, FactoredPlan};

thread_local! {
    /// The worker-thread budget nested generators should use (see
    /// [`parallelism`]). Defaults to 1 so library callers stay serial
    /// unless a sweep opts in.
    ///
    /// **Thread-scoped**, not process-global: two sweeps running
    /// concurrently (e.g. two `twocs serve` requests) each keep their own
    /// `--jobs` budget instead of stomping each other's. Worker pools
    /// inherit the budget of the thread that spawned them, so nested
    /// generators inside a sweep still observe the sweep's setting.
    static PARALLELISM: Cell<usize> = const { Cell::new(1) };
}

/// Set the calling thread's worker-thread budget, consulted by
/// grid-shaped generators (e.g. Figures 12/13 fan their series over
/// [`run_tasks`] with this count). [`run_experiments`] and
/// [`GridSweep::run`] set it from their `jobs` argument, so `--jobs 1`
/// stays fully serial. The budget is scoped to the calling thread (and
/// the worker pools it spawns — see [`run_tasks_labeled`]); other
/// threads' budgets are untouched.
pub fn set_parallelism(jobs: usize) {
    PARALLELISM.with(|p| p.set(jobs.max(1)));
}

/// The current thread's worker-thread budget for nested generators.
#[must_use]
pub fn parallelism() -> usize {
    PARALLELISM.with(Cell::get)
}

/// One completed task: its payload (or the panic message), how long it
/// ran, and which worker ran it.
#[derive(Debug, Clone)]
pub struct TaskResult<T> {
    /// The task's value, or the panic payload rendered as a string.
    pub result: Result<T, String>,
    /// Wall time of this task on its worker.
    pub elapsed: Duration,
    /// Index of the worker thread that executed the task.
    pub worker: usize,
}

/// Execute `count` tasks on `jobs` scoped worker threads and return the
/// results **in task-index order**, regardless of scheduling.
///
/// Workers claim indices from a shared atomic counter, so the pool
/// load-balances uneven task costs. Each task runs under
/// [`catch_unwind`]: a panic becomes `Err(message)` for that index and
/// the worker moves on to the next task — one bad configuration cannot
/// poison the pool or lose the rest of the sweep.
///
/// Tasks get generic `task N` span labels; use [`run_tasks_labeled`] when
/// meaningful names are available.
pub fn run_tasks<T, F>(jobs: usize, count: usize, task: F) -> Vec<TaskResult<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_tasks_labeled(jobs, count, |i| format!("task {i}"), task)
}

/// [`run_tasks`] with a per-task span label, so tracer output and the
/// sweep summary name tasks by experiment id or grid point instead of
/// index: [`stream_tasks`] collected into per-index slots.
pub fn run_tasks_labeled<T, F, L>(
    jobs: usize,
    count: usize,
    label: L,
    task: F,
) -> Vec<TaskResult<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    L: Fn(usize) -> String + Sync,
{
    let mut slots: Vec<Option<TaskResult<T>>> = (0..count).map(|_| None).collect();
    let Ok(()) = stream_tasks(jobs, count, label, task, |i, done| {
        slots[i] = Some(done);
        Ok::<(), std::convert::Infallible>(())
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every task index below `count` is claimed exactly once"))
        .collect()
}

/// The worker pool: execute `count` tasks on `jobs` scoped worker
/// threads, handing each finished task to `on_done` **on the calling
/// thread** while the rest still run, in completion order.
///
/// Workers claim indices from a shared atomic counter, so the pool
/// load-balances uneven task costs, and finished tasks reach the caller
/// through a channel bounded at four per worker, so a slow consumer
/// throttles evaluation instead of queueing results. Each task runs
/// under [`catch_unwind`]: a panic becomes `Err(message)` for that
/// index and the worker moves on. An `Err` from `on_done` stops the
/// pool — no further task is claimed — and is returned once the workers
/// have exited.
///
/// Each worker inherits the calling thread's [`parallelism`] budget, so
/// nested pools fan out with the budget of the sweep that spawned them
/// — concurrent sweeps at different `--jobs` stay isolated.
///
/// Each task executes inside a `twocs-obs` task scope on a worker seeded
/// from the calling thread's tracing context: an installed tracer records
/// one lifecycle span per task (in its deterministic logical window under
/// [`twocs_obs::TraceMode::Logical`]). The pool also feeds
/// the global metrics registry: `sweep.tasks_total`, the
/// `sweep.queue_depth` histogram (sampled at claim time), and per-worker
/// `sweep.worker<N>.busy_us` counters.
pub fn stream_tasks<T, F, L, E>(
    jobs: usize,
    count: usize,
    label: L,
    task: F,
    mut on_done: impl FnMut(usize, TaskResult<T>) -> Result<(), E>,
) -> Result<(), E>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    L: Fn(usize) -> String + Sync,
{
    let next = AtomicUsize::new(0);
    let workers = jobs.max(1).min(count.max(1));
    // Workers inherit the spawning thread's budget (like the tracing
    // seed below), so a nested `run_tasks` inside a task sees the budget
    // of *its* sweep, not whatever another thread set concurrently.
    let budget = parallelism();
    let seed = twocs_obs::pool_seed();
    let registry = twocs_obs::metrics::global();
    let tasks_total = registry.counter("sweep.tasks_total");
    let queue_depth = registry.histogram("sweep.queue_depth");
    let (tx, rx) = sync_channel::<(usize, TaskResult<T>)>(workers * 4);

    std::thread::scope(|scope| {
        for w in 0..workers {
            let (seed, tasks_total, queue_depth) = (&seed, &tasks_total, &queue_depth);
            let (label, task, next, tx) = (&label, &task, &next, tx.clone());
            scope.spawn(move || {
                twocs_obs::enter_worker(seed, w);
                set_parallelism(budget);
                let busy_us = registry.counter(&format!("sweep.worker{w}.busy_us"));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    queue_depth.observe((count - i) as u64);
                    let scope_guard = twocs_obs::task_scope(i, &label(i));
                    let start = Instant::now();
                    let result = catch_unwind(AssertUnwindSafe(|| task(i))).map_err(panic_message);
                    let elapsed = start.elapsed();
                    scope_guard.finish();
                    tasks_total.inc();
                    busy_us.add_duration_us(elapsed);
                    let done = TaskResult {
                        result,
                        elapsed,
                        worker: w,
                    };
                    if tx.send((i, done)).is_err() {
                        break; // the caller stopped the pool
                    }
                }
            });
        }
        drop(tx);
        let mut outcome = Ok(());
        for (i, done) in &rx {
            if let Err(e) = on_done(i, done) {
                next.store(count, Ordering::Relaxed);
                outcome = Err(e);
                break;
            }
        }
        drop(rx);
        outcome
    })
}

/// Render a caught panic payload as the task's error message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "task panicked".to_owned())
}

/// Wall time and outcome of one task, for the summary report.
#[derive(Debug, Clone)]
pub struct TaskTiming {
    /// Task label (experiment id, or a grid-point description).
    pub label: String,
    /// Wall time on its worker thread.
    pub elapsed: Duration,
    /// Whether the task completed without panicking.
    pub ok: bool,
    /// Worker thread that ran the task.
    pub worker: usize,
}

/// One worker thread's share of a sweep.
#[derive(Debug, Clone, Default)]
pub struct WorkerTiming {
    /// Worker index.
    pub worker: usize,
    /// Tasks this worker executed.
    pub tasks: usize,
    /// Summed task wall time on this worker.
    pub busy: Duration,
}

/// What a sweep did: thread count, wall/task time, failures, and
/// per-task and per-worker timings.
///
/// Rendered with `Display`; the CLI prints it to **stderr** so that
/// parallel and serial runs keep byte-identical stdout.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Worker threads used.
    pub jobs: usize,
    /// Tasks executed.
    pub tasks: usize,
    /// Tasks that panicked.
    pub failures: usize,
    /// End-to-end wall time of the sweep.
    pub wall: Duration,
    /// Summed per-task time (wall × achieved concurrency).
    pub task_time: Duration,
    /// Per-task wall times, in task order.
    pub timings: Vec<TaskTiming>,
    /// Per-worker task count and busy time, by worker index. Workers
    /// that claimed no task still appear (with zero counts).
    pub workers: Vec<WorkerTiming>,
}

impl SweepSummary {
    /// The summary of a run on `jobs` threads that started at `start`:
    /// wall time is measured up to now.
    fn since(jobs: usize, timings: Vec<TaskTiming>, failures: usize, start: Instant) -> Self {
        let wall = start.elapsed();
        Self {
            jobs: jobs.max(1),
            tasks: timings.len(),
            failures,
            wall,
            task_time: timings.iter().map(|t| t.elapsed).sum(),
            workers: Self::workers_from_timings(jobs, &timings),
            timings,
        }
    }

    /// Build the per-worker breakdown from per-task timings. `jobs` is
    /// the requested worker count; the breakdown covers
    /// `min(jobs, tasks)` workers, matching what the pool spawned.
    fn workers_from_timings(jobs: usize, timings: &[TaskTiming]) -> Vec<WorkerTiming> {
        let spawned = jobs.max(1).min(timings.len().max(1));
        let mut workers: Vec<WorkerTiming> = (0..spawned)
            .map(|w| WorkerTiming {
                worker: w,
                ..WorkerTiming::default()
            })
            .collect();
        for t in timings {
            if let Some(w) = workers.get_mut(t.worker) {
                w.tasks += 1;
                w.busy += t.elapsed;
            }
        }
        workers
    }
}

impl fmt::Display for SweepSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let concurrency = if self.wall.as_secs_f64() > 0.0 {
            self.task_time.as_secs_f64() / self.wall.as_secs_f64()
        } else {
            1.0
        };
        writeln!(
            f,
            "sweep: {} tasks on {} worker thread{}: wall {:.1?}, task time {:.1?} ({:.1}x concurrency), {} failed",
            self.tasks,
            self.jobs,
            if self.jobs == 1 { "" } else { "s" },
            self.wall,
            self.task_time,
            concurrency,
            self.failures,
        )?;
        for t in &self.timings {
            writeln!(
                f,
                "  {:<28} {:>9.1?}  {}",
                t.label,
                t.elapsed,
                if t.ok { "ok" } else { "FAILED" }
            )?;
        }
        write!(f, "workers:")?;
        for w in &self.workers {
            write!(
                f,
                "\n  w{}: {} task{}, busy {:.1?}",
                w.worker,
                w.tasks,
                if w.tasks == 1 { "" } else { "s" },
                w.busy,
            )?;
        }
        Ok(())
    }
}

/// One experiment's outcome inside a sweep.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment id (e.g. `"fig10"`).
    pub id: &'static str,
    /// Short title.
    pub title: &'static str,
    /// Generated output, or the panic message if the generator failed.
    pub output: Result<ExperimentOutput, String>,
    /// Wall time of the generator.
    pub elapsed: Duration,
}

/// A completed experiment sweep: results in registry order plus the
/// summary.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// One result per input definition, in input order.
    pub results: Vec<ExperimentResult>,
    /// Timing accounting.
    pub summary: SweepSummary,
}

/// Run `defs` against `device` on `jobs` worker threads.
///
/// Results come back in registry order, so rendering them is
/// byte-identical to a serial loop; a panicking generator yields an
/// `Err` entry without disturbing its neighbours.
#[must_use]
pub fn run_experiments(device: &DeviceSpec, defs: &[ExperimentDef], jobs: usize) -> SweepRun {
    set_parallelism(jobs);
    let start = Instant::now();
    let raw = run_tasks_labeled(
        jobs,
        defs.len(),
        |i| defs[i].id.to_owned(),
        |i| (defs[i].run)(device),
    );
    let timings: Vec<TaskTiming> = defs
        .iter()
        .zip(&raw)
        .map(|(def, t)| TaskTiming {
            label: def.id.to_owned(),
            elapsed: t.elapsed,
            ok: t.result.is_ok(),
            worker: t.worker,
        })
        .collect();
    let results: Vec<ExperimentResult> = defs
        .iter()
        .zip(raw)
        .map(|(def, t)| ExperimentResult {
            id: def.id,
            title: def.title,
            output: t.result,
            elapsed: t.elapsed,
        })
        .collect();
    let failures = results.iter().filter(|r| r.output.is_err()).count();
    let summary = SweepSummary::since(jobs, timings, failures, start);
    SweepRun { results, summary }
}

/// A `(H, SL, TP, flop-vs-bw)` cross-product sweep — optionally widened
/// with MoE (`experts`, `top_k`), pipeline (`stages`, `micro_batches`),
/// and sequence-parallel (`sp`) axes — evaluating both of the paper's
/// communication metrics per point: the serialized-communication
/// fraction (§4.3.4) and the overlapped-communication percentage
/// (§4.3.5), on hardware evolved per the flop-vs-bw ratio (§4.3.6).
///
/// The extended axes and the non-training [`Workload`]s are modeled
/// through the projection path only ([`Method::Projection`]); the
/// discrete-event simulator covers the dense TP training iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSweep {
    /// Hidden sizes.
    pub hs: Vec<u64>,
    /// Sequence lengths.
    pub sls: Vec<u64>,
    /// Tensor-parallel degrees.
    pub tps: Vec<u64>,
    /// Flop-vs-bw hardware-evolution ratios (1 = today's hardware).
    pub flop_vs_bw: Vec<f64>,
    /// MoE expert counts (1 = dense FFN, no all-to-all).
    pub experts: Vec<u64>,
    /// Experts activated per token; combinations with
    /// `top_k > experts` are pruned.
    pub top_ks: Vec<u64>,
    /// Pipeline stage counts (1 = no pipeline parallelism).
    pub stages: Vec<u64>,
    /// Micro-batches per pipeline flush.
    pub micro_batches: Vec<u64>,
    /// Sequence-parallel degrees (1 = off).
    pub sps: Vec<u64>,
    /// Batch size.
    pub batch: u64,
    /// Evaluation method for the serialized fraction.
    pub method: Method,
    /// Which iteration the sweep models (a sweep-level selector like
    /// `method`, not a per-point axis).
    pub workload: Workload,
}

impl Default for GridSweep {
    /// T-NLG- to PaLM-3×-class models at the paper's studied TP degrees
    /// and hardware-evolution ratios; all extended axes neutral, training
    /// workload.
    fn default() -> Self {
        Self {
            hs: vec![4096, 16_384, 65_536],
            sls: vec![2048, 4096],
            tps: vec![16, 64, 256],
            flop_vs_bw: vec![1.0, 2.0, 4.0],
            experts: vec![1],
            top_ks: vec![1],
            stages: vec![1],
            micro_batches: vec![1],
            sps: vec![1],
            batch: 1,
            method: Method::Simulation,
            workload: Workload::Training,
        }
    }
}

/// One grid coordinate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Hidden size.
    pub h: u64,
    /// Sequence length.
    pub sl: u64,
    /// Tensor-parallel degree.
    pub tp: u64,
    /// Flop-vs-bw evolution ratio.
    pub ratio: f64,
    /// MoE expert count (1 = dense).
    pub experts: u64,
    /// Experts activated per token.
    pub top_k: u64,
    /// Pipeline stage count (1 = no PP).
    pub stages: u64,
    /// Micro-batches per pipeline flush.
    pub micro_batches: u64,
    /// Sequence-parallel degree (1 = off).
    pub sp: u64,
}

impl GridPoint {
    /// A dense training-grid point: every extended axis at its neutral
    /// value of 1 — the shape every pre-MoE/PP/SP grid produced.
    #[must_use]
    pub fn new(h: u64, sl: u64, tp: u64, ratio: f64) -> Self {
        Self {
            h,
            sl,
            tp,
            ratio,
            experts: 1,
            top_k: 1,
            stages: 1,
            micro_batches: 1,
            sp: 1,
        }
    }

    /// Whether every extended axis sits at its neutral value — the
    /// legacy `(H, SL, TP, ratio)` shape whose outputs are pinned
    /// byte-for-byte by the pre-axis CSV contract.
    #[must_use]
    pub fn axes_default(&self) -> bool {
        self.experts == 1
            && self.top_k == 1
            && self.stages == 1
            && self.micro_batches == 1
            && self.sp == 1
    }

    /// The extended-axis tuple, the key of the planner's per-axis table.
    pub(crate) fn axis_key(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.experts,
            self.top_k,
            self.stages,
            self.micro_batches,
            self.sp,
        )
    }
}

/// Per-layer cost contributions of the extended axes, computed by one
/// shared function ([`axis_costs`]) so the naive kernel and the factored
/// planner's per-axis tables hold bit-identical values.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct AxisCosts {
    /// Extra serialized communication per layer: the SP AllGather +
    /// ReduceScatter sites plus the MoE all-to-all dispatch/combine.
    pub comm_per_layer: f64,
    /// Pipeline boundary transfer per micro-batch per stage slot;
    /// `0.0` when `stages == 1`.
    pub pp_p2p: f64,
}

/// Price the extended axes of `p` on network `net` for one layer of
/// `hyper`. Only the network matters: the factored planner keys its axis
/// tables by it.
///
/// - **SP** (`sp > 1`): per-block AllGather + ReduceScatter pairs over
///   the four comm sites (QKV, attention output, FC1, FC2) at their
///   weight volumes, per the LinS exemplar — forward + backward for
///   training, forward-only gathers for inference workloads.
/// - **MoE** (`experts > 1`): all-to-all dispatch + combine over the
///   routed tokens (switch-style 1.25 capacity factor), both directions
///   of both passes for training, forward-only for inference.
/// - **PP** (`stages > 1`): one boundary activation transfer per
///   micro-batch, priced analytically as step latency plus bytes over
///   the ring-all-reduce link bandwidth.
pub(crate) fn axis_costs(
    net: &NetworkSpec,
    hyper: &Hyperparams,
    p: GridPoint,
    workload: Workload,
) -> AxisCosts {
    let elem = hyper.precision().bytes();
    let cost = CollectiveCostModel::default();
    let (h, ff) = (hyper.hidden(), hyper.ff_dim());
    let mut comm = 0.0;
    if p.sp > 1 {
        let n = p.sp as usize;
        for elements in [3 * h * h, h * h, h * ff, ff * h] {
            let bytes = elements * elem;
            let ag = cost.node_time(Collective::AllGather, bytes, n, net);
            let rs = cost.node_time(Collective::ReduceScatter, bytes, n, net);
            comm += match workload {
                // forward + backward
                Workload::Training => 2.0 * ag + rs,
                Workload::Prefill | Workload::Decode => ag,
            };
        }
    }
    if p.experts > 1 {
        let moe = MoeConfig {
            experts: p.experts,
            top_k: p.top_k,
            capacity_factor: 1.25,
        };
        let routed = moe.routed_tokens(workload.tokens(hyper));
        let a2a = cost.alltoall_time(routed * h * elem, p.experts as usize, net);
        comm += match workload {
            // dispatch + combine, forward + backward
            Workload::Training => 4.0 * a2a,
            Workload::Prefill | Workload::Decode => 2.0 * a2a,
        };
    }
    let pp_p2p = if p.stages > 1 {
        let tokens = workload.tokens(hyper).div_ceil(p.micro_batches);
        let bytes = (tokens * h * elem) as f64;
        cost.step_latency() + bytes / net.ring_allreduce_bandwidth()
    } else {
        0.0
    };
    AxisCosts {
        comm_per_layer: comm,
        pp_p2p,
    }
}

/// Assemble the serialized fraction from per-layer costs under the
/// pipeline schedule: per micro-batch one stage runs `layers / stages`
/// layers over `1/micro_batches` of the tokens plus one boundary
/// transfer, and the `(M + S - 1)` bubble slot count cancels in the
/// ratio. `stages == 1` reduces to `comm / (comp + comm)`.
pub(crate) fn assemble_fraction(
    layers: u64,
    comp_per_layer: f64,
    comm_per_layer: f64,
    p: GridPoint,
    pp_p2p: f64,
) -> f64 {
    let stage_layers = layers as f64 / p.stages as f64;
    let micro = p.micro_batches as f64;
    let comm_slot = stage_layers * comm_per_layer / micro + pp_p2p;
    let total_slot = stage_layers * (comp_per_layer + comm_per_layer) / micro + pp_p2p;
    if total_slot <= 0.0 {
        return 0.0;
    }
    comm_slot / total_slot
}

/// The serialized-communication fraction of one extended grid point —
/// non-default axes or a non-training workload — from the projected
/// iteration and freshly priced parts. The factored planner runs the
/// same assembly ([`extended_fraction_from_parts`]) over tabulated
/// parts; both paths call the identical pricing functions on identical
/// inputs, which is the bit-identity contract.
pub(crate) fn extended_fraction(
    dev: &DeviceSpec,
    hyper: &Hyperparams,
    projected: &ProjectedIteration,
    p: GridPoint,
    workload: Workload,
) -> f64 {
    let inference = match workload {
        Workload::Training => None,
        Workload::Prefill | Workload::Decode => {
            let it = InferenceIteration::model(dev, hyper, p.tp, workload);
            Some((it.compute_per_layer, it.serialized_comm_per_layer))
        }
    };
    let axis = axis_costs(dev.network(), hyper, p, workload);
    extended_fraction_from_parts(projected, inference, axis, p)
}

/// [`extended_fraction`]'s final arithmetic over already-priced parts:
/// training exposes the projected per-layer compute (plus any exposed
/// DP overlap, exactly `0.0` on the TP-only sweep path) against the
/// serialized all-reduce; inference workloads substitute the roofline
/// iteration's `(compute, comm)` pair. Axis communication stacks onto
/// the per-layer comm either way.
pub(crate) fn extended_fraction_from_parts(
    projected: &ProjectedIteration,
    inference: Option<(f64, f64)>,
    axis: AxisCosts,
    p: GridPoint,
) -> f64 {
    let (comp, comm) = match inference {
        Some(pair) => pair,
        None => (
            projected.compute_per_layer + projected.exposed_overlap(),
            projected.serialized_comm_per_layer,
        ),
    };
    assemble_fraction(
        projected.layers,
        comp,
        comm + axis.comm_per_layer,
        p,
        axis.pp_p2p,
    )
}

/// The paper-style comp-vs-comm figure for the MoE axis: serialized
/// communication (now including the all-to-all dispatch/combine) as the
/// expert count grows, at today's hardware and at the 4× flop-vs-bw
/// ratio, for the H=16K study shape at TP=16 with top-2 routing.
///
/// This is the figure the "moe" experiment renders; it validates against
/// the hybrid-parallelism traffic characterization of Anthony et al.
/// (PAPERS.md): all-to-all volume scales with routed tokens, so the
/// serialized fraction climbs with expert count and climbs faster on
/// compute-rich future hardware.
#[must_use]
pub fn moe_figure(device: &DeviceSpec) -> crate::report::Figure {
    let mut fig = crate::report::Figure::new(
        "moe",
        "MoE all-to-all: serialized communication vs expert count (H=16K, TP=16, top-2)",
        "experts",
        "serialized % of time",
    );
    for (label, ratio) in [("flop-vs-bw 1x (today)", 1.0), ("flop-vs-bw 4x", 4.0)] {
        let mut series = Vec::new();
        for experts in [1u64, 2, 4, 8, 16, 32, 64] {
            let p = GridPoint {
                experts,
                top_k: 2.min(experts),
                ..GridPoint::new(16_384, 2048, 16, ratio)
            };
            let (serialized, _) =
                eval_grid_point(device, p, 1, Method::Projection, Workload::Training);
            #[allow(clippy::cast_precision_loss)]
            series.push((experts as f64, serialized));
        }
        fig = fig.with_series(crate::report::Series::new(label, series));
    }
    fig
}

/// Panic (→ a per-point `error` cell) unless `p`'s extended axes are
/// well-formed and reachable by `method`: zero axis values and
/// `top_k > experts` never describe a model, and the simulation engine
/// models only the dense TP training iteration.
fn check_extended_point(p: GridPoint, method: Method, workload: Workload) {
    assert!(
        p.experts > 0
            && p.top_k > 0
            && p.top_k <= p.experts
            && p.stages > 0
            && p.micro_batches > 0
            && p.sp > 0,
        "grid point axes must be non-zero with top_k <= experts"
    );
    if !p.axes_default() || workload != Workload::Training {
        assert!(
            method == Method::Projection,
            "the simulation engine models the dense TP training iteration only; \
             MoE/PP/SP axes and inference workloads require the projection method"
        );
    }
}

/// Evaluate one grid point: the serialized-communication fraction
/// (percent, §4.3.4) and the overlapped-communication percentage
/// (§4.3.5) at `(H, SL, TP)` on `device` evolved by the point's
/// flop-vs-bw ratio (§4.3.6), with the extended MoE/PP/SP axes and
/// the selected [`Workload`] folded into the serialized fraction.
///
/// This is the pure kernel every executor — the local thread pool, a
/// remote `twocs worker`, a serve request — funnels through, which is
/// what makes distributed output byte-identical to a local run: the
/// value depends only on `(device, point, batch, method, workload)`.
/// Points with every axis at its neutral value under the training
/// workload evaluate through exactly the pre-axis code path, so legacy
/// grids keep their pinned bytes.
#[must_use]
pub fn eval_grid_point(
    device: &DeviceSpec,
    p: GridPoint,
    batch: u64,
    method: Method,
    workload: Workload,
) -> (f64, f64) {
    check_extended_point(p, method, workload);
    let dev = if p.ratio > 1.0 {
        HwEvolution::flop_vs_bw(p.ratio).apply(device)
    } else {
        device.clone()
    };
    let hyper = sweep_hyper(p.h, p.sl, batch);
    let parallel = ParallelConfig::new().tensor(p.tp);
    let serialized = if p.axes_default() && workload == Workload::Training {
        100.0 * comm_fraction(&dev, &hyper, &parallel, method)
    } else {
        // check_extended_point guarantees Method::Projection here.
        let model = ProjectionModel::from_baseline(&projection_baseline(), &dev);
        let projected = model.project(&hyper, &parallel);
        100.0 * extended_fraction(&dev, &hyper, &projected, p, workload)
    };
    let overlap = overlap_pct(&dev, p.h, p.sl * batch, p.tp, 4);
    (serialized, overlap)
}

/// Per-point sweep outcomes in [`GridSweep::points`] order: each entry
/// is the `(serialized %, overlapped %)` pair from [`eval_grid_point`],
/// or the panic message if that point's evaluation panicked.
pub type PointResults = Vec<Result<(f64, f64), String>>;

/// The per-chunk consumer an executor streams into: chunk id (in
/// [`GridIndex::chunk_points`](crate::grid::GridIndex::chunk_points)
/// numbering) and that chunk's results. An `Err` aborts the sweep.
pub type OnChunk<'a> = dyn FnMut(u32, PointResults) -> Result<(), String> + 'a;

/// Something that evaluates the chunks of a [`GridSweep`] and streams
/// each chunk's results to a consumer — the seam between the grid and
/// its execution substrate. [`LocalPool`] runs chunks on in-process
/// worker threads; `twocs-dist`'s coordinator shards them across TCP
/// workers. Every front end (`twocs sweep`, `/v1/sweep`, the journaled
/// and resumed runs) drives an executor through `twocs_store::run`,
/// which records the chunks into one store; [`GridSweep::run`] files
/// them into an in-memory table instead.
pub trait GridExecutor: Send + Sync + fmt::Debug {
    /// Evaluate every `chunk_size`-point chunk of `sweep` on `device`
    /// except those in `completed`, handing each chunk's results to
    /// `on_chunk` exactly once, in any order. `Err` entries inside a
    /// chunk mark points whose evaluation panicked; an outer `Err` aborts
    /// the sweep (an `on_chunk` failure, or a fabric shutting down).
    /// Returns the run's summary, for stderr.
    fn execute(
        &self,
        sweep: &GridSweep,
        device: &DeviceSpec,
        chunk_size: usize,
        completed: &BTreeSet<u32>,
        on_chunk: &mut OnChunk<'_>,
    ) -> Result<Box<dyn fmt::Display + Send>, String>;

    /// The chunk size this executor picks for `sweep` when the caller
    /// has no preference.
    fn chunk_size(&self, sweep: &GridSweep) -> usize;

    /// Human-oriented name for logs and summaries.
    fn describe(&self) -> String {
        "local".to_owned()
    }
}

fn grid_point_label(p: &GridPoint) -> String {
    format!("H={} SL={} TP={} r={}", p.h, p.sl, p.tp, p.ratio)
}

/// The in-process executor: one [`FactoredPlan`] per sweep, priced on
/// `jobs` threads, and one [`eval_chunk`] pool task per chunk on
/// [`stream_tasks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalPool {
    /// Worker threads (and the plan's pricing budget).
    pub jobs: usize,
}

impl LocalPool {
    /// [`GridExecutor::execute`] with the typed summary: task and
    /// per-worker timings of the run. Task `i`
    /// is the `i`-th pending chunk, labelled by its grid point when the
    /// chunk holds one point and by its point range otherwise.
    pub fn run(
        &self,
        sweep: &GridSweep,
        device: &DeviceSpec,
        chunk_size: usize,
        completed: &BTreeSet<u32>,
        on_chunk: &mut OnChunk<'_>,
    ) -> Result<SweepSummary, String> {
        let jobs = self.jobs;
        set_parallelism(jobs);
        let index = sweep.index();
        let chunk_size = chunk_size.max(1);
        let start = Instant::now();
        let pending: Vec<u32> = (0..index.chunk_count(chunk_size) as u32)
            .filter(|c| !completed.contains(c))
            .collect();
        // A fully replayed journal has nothing left to price.
        let plan = (!pending.is_empty())
            .then(|| FactoredPlan::build_from_sweep(device, sweep))
            .flatten();
        let bounds = |i: usize| {
            let start = pending[i] as usize * chunk_size;
            (start, (start + chunk_size).min(index.len()))
        };
        let label = |i: usize| match bounds(i) {
            (start, end) if end - start == 1 => grid_point_label(&index.point(start)),
            (start, end) => format!("points {start}..{end}"),
        };
        let mut timings = vec![None; pending.len()];
        let mut failures = 0;
        let eval = |i: usize| {
            let points = index.chunk_points(pending[i] as usize, chunk_size);
            let mut out = PointResults::with_capacity(points.len());
            eval_chunk(plan.as_ref(), device, sweep, &points, &mut out);
            out
        };
        stream_tasks(jobs, pending.len(), label, eval, |i, t| {
            // `eval_chunk` catches per-point panics, so a failed task
            // means a planner bug: it degrades to one `Err` per point.
            let (start, end) = bounds(i);
            let values = t.result.unwrap_or_else(|msg| vec![Err(msg); end - start]);
            let failed = values.iter().filter(|r| r.is_err()).count();
            failures += failed;
            timings[i] = Some(TaskTiming {
                label: label(i),
                elapsed: t.elapsed,
                ok: failed == 0,
                worker: t.worker,
            });
            on_chunk(pending[i], values)
        })?;
        let timings = timings.into_iter().flatten().collect();
        Ok(SweepSummary::since(jobs, timings, failures, start))
    }
}

impl GridExecutor for LocalPool {
    fn execute(
        &self,
        sweep: &GridSweep,
        device: &DeviceSpec,
        chunk_size: usize,
        completed: &BTreeSet<u32>,
        on_chunk: &mut OnChunk<'_>,
    ) -> Result<Box<dyn fmt::Display + Send>, String> {
        Ok(Box::new(
            self.run(sweep, device, chunk_size, completed, on_chunk)?,
        ))
    }

    /// Factored chunks are lease-sized: enough to keep every worker busy
    /// twice over (so uneven chunk costs still load-balance), capped at
    /// 64 points so per-chunk results stay cache-friendly and a panicking
    /// chunk degrades a bounded slice of the grid. Simulation grids have
    /// no plan and every point is expensive, so each point is its own
    /// chunk and the pool balances them point by point.
    fn chunk_size(&self, sweep: &GridSweep) -> usize {
        if sweep.method == Method::Simulation {
            return 1;
        }
        let per_worker = sweep.point_count().div_ceil(self.jobs.max(1) * 2);
        per_worker.clamp(1, 64)
    }
}

impl GridSweep {
    /// The realistic grid points, in deterministic row-major order
    /// (H, then SL, then TP, then ratio, then the extended axes) —
    /// [`GridIndex`](crate::grid::GridIndex) materialized. The index owns
    /// the pruning rules: unrealistic `(H, TP)` combinations are pruned
    /// exactly as the figures do
    /// ([`realistic_tp`](crate::serialized::realistic_tp)), as are invalid axis
    /// values (zero dimensions, hidden sizes that are not multiples of
    /// the fixed 256-way head sharding) — an entirely invalid grid is
    /// simply empty.
    #[must_use]
    pub fn points(&self) -> Vec<GridPoint> {
        self.index().iter().collect()
    }

    /// The sweep table's header cells. Legacy grids (every axis
    /// neutral) keep the pre-axis 6-column shape byte-for-byte; the
    /// extended columns appear only when `extended` is set (i.e. some
    /// point actually exercises them — computable up front from
    /// [`crate::grid::GridIndex::extended`] without seeing the grid).
    #[must_use]
    pub fn header_cells(extended: bool) -> Vec<String> {
        let mut header = vec![
            "H".to_owned(),
            "SL".to_owned(),
            "TP".to_owned(),
            "flop_vs_bw".to_owned(),
        ];
        if extended {
            for col in ["experts", "top_k", "stages", "micro_batches", "sp"] {
                header.push(col.to_owned());
            }
        }
        header.push("serialized_pct".to_owned());
        header.push("overlap_pct".to_owned());
        header
    }

    /// Append one sweep CSV row, newline included, to `out`: the point's
    /// coordinates plus its metric cells, with an `Err` result rendering
    /// as `error` in both metric columns. A fresh [`RowWriter`] renders
    /// it, so this is the **single formatting site** of sweep rows —
    /// [`Self::row_cells`] (and so [`Self::tabulate`]) is defined by it,
    /// and the streaming sink in `twocs-store` drives one `RowWriter`
    /// per chunk, which is the byte-identity contract between buffered
    /// and streamed output.
    pub fn write_row(
        out: &mut Vec<u8>,
        p: &GridPoint,
        r: &Result<(f64, f64), String>,
        extended: bool,
    ) {
        RowWriter::new(extended).write(out, p, r);
    }

    /// One sweep table row as cells: [`Self::write_row`]'s bytes split
    /// at the commas (no cell contains one).
    #[must_use]
    pub fn row_cells(p: &GridPoint, r: &Result<(f64, f64), String>, extended: bool) -> Vec<String> {
        let mut line = Vec::with_capacity(64);
        Self::write_row(&mut line, p, r, extended);
        line.pop(); // the newline
        String::from_utf8(line)
            .expect("sweep rows are ASCII")
            .split(',')
            .map(str::to_owned)
            .collect()
    }

    /// Render per-point results into the sweep table. `results` must be
    /// in the same order as `points`; an `Err` entry renders as `error`
    /// in both metric columns — same formatting whatever executor
    /// produced the values, which is the byte-identity contract between
    /// local and distributed runs.
    #[must_use]
    pub fn tabulate(points: &[GridPoint], results: &[Result<(f64, f64), String>]) -> Table {
        assert_eq!(
            points.len(),
            results.len(),
            "one result per grid point is required"
        );
        let extended = points.iter().any(|p| !p.axes_default());
        let mut table = Table::new("sweep", TABLE_TITLE, Self::header_cells(extended));
        for (p, r) in points.iter().zip(results) {
            table.push_row(Self::row_cells(p, r, extended));
        }
        table
    }

    /// The sweep table over rendered sweep CSV (the header line, then
    /// [`Self::write_row`] rows): the view the ascii and JSON renderings
    /// of a streamed sweep are drawn from. No cell contains a comma.
    #[must_use]
    pub fn csv_table(csv: &str) -> Table {
        let mut lines = csv
            .lines()
            .map(|l| l.split(',').map(str::to_owned).collect());
        let mut table = Table::new("sweep", TABLE_TITLE, lines.next().unwrap_or_default());
        for row in lines {
            table.push_row(row);
        }
        table
    }

    /// Run `execute` with an `on_chunk` that files each `chunk_size`-point
    /// chunk into its slot, then tabulate the whole grid — the in-memory
    /// table that tests, benches and [`Self::run`] use.
    pub fn tabulate_with<S>(
        &self,
        chunk_size: usize,
        execute: impl FnOnce(&mut OnChunk<'_>) -> Result<S, String>,
    ) -> Result<(Table, S), String> {
        let mut slots = vec![PointResults::new(); self.index().chunk_count(chunk_size.max(1))];
        let summary = execute(&mut |chunk, values| {
            slots[chunk as usize] = values;
            Ok(())
        })?;
        Ok((Self::tabulate(&self.points(), &slots.concat()), summary))
    }

    /// Run the sweep on a [`LocalPool`] of `jobs` threads, at the pool's
    /// own chunk size, and tabulate it. The rows follow [`Self::points`]
    /// order whatever the thread count, so CSV output is byte-identical
    /// across `jobs` settings; a panicking point renders as `error` in
    /// both metric columns rather than aborting the sweep.
    #[must_use]
    pub fn run(&self, device: &DeviceSpec, jobs: usize) -> (Table, SweepSummary) {
        let pool = LocalPool { jobs };
        let chunk_size = pool.chunk_size(self);
        self.tabulate_with(chunk_size, |on_chunk| {
            pool.run(self, device, chunk_size, &BTreeSet::new(), on_chunk)
        })
        .expect("filing a chunk into its slot cannot fail")
    }
}

/// The sweep row renderer: the bytes std's `{}` (coordinates) and
/// `{:.2}` (metrics) would write, without the formatting machinery.
///
/// One writer renders a run of consecutive rows. The `H,SL,TP,ratio`
/// prefix is rendered once and reused while consecutive points share
/// `(h, sl, tp, ratio bits)` — the extended axes vary fastest, so a
/// chunk re-renders it once per axis-tuple block. The ratio keeps std's
/// shortest-repr `{}`; integers go through a digit loop and metrics
/// through an exact fixed-point `{:.2}`.
#[derive(Debug)]
pub struct RowWriter {
    extended: bool,
    /// `(h, sl, tp, ratio bits)` of the point `prefix` was rendered for.
    key: Option<(u64, u64, u64, u64)>,
    /// `H,SL,TP,ratio` of that point, with no trailing comma.
    prefix: Vec<u8>,
}

impl RowWriter {
    /// A writer for rows with (`extended`) or without the
    /// MoE/PP/SP columns — see [`GridSweep::header_cells`].
    #[must_use]
    pub fn new(extended: bool) -> Self {
        Self {
            extended,
            key: None,
            prefix: Vec::with_capacity(48),
        }
    }

    /// Append one row, newline included, to `out`; an `Err` result
    /// renders as `error` in both metric columns.
    pub fn write(&mut self, out: &mut Vec<u8>, p: &GridPoint, r: &Result<(f64, f64), String>) {
        let key = (p.h, p.sl, p.tp, p.ratio.to_bits());
        if self.key != Some(key) {
            use std::io::Write as _;
            self.prefix.clear();
            for v in [p.h, p.sl, p.tp] {
                write_u64(&mut self.prefix, v);
                self.prefix.push(b',');
            }
            // Writing into a Vec<u8> cannot fail.
            let _ = write!(self.prefix, "{}", p.ratio);
            self.key = Some(key);
        }
        out.extend_from_slice(&self.prefix);
        if self.extended {
            for v in [p.experts, p.top_k, p.stages, p.micro_batches, p.sp] {
                out.push(b',');
                write_u64(out, v);
            }
        }
        match r {
            Ok((s, o)) => {
                out.push(b',');
                write_fixed2(out, *s);
                out.push(b',');
                write_fixed2(out, *o);
                out.push(b'\n');
            }
            Err(_) => out.extend_from_slice(b",error,error\n"),
        }
    }
}

/// `v` in decimal, as `{}` writes it.
fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// `v` as `{:.2}` writes it, byte for byte. A finite `v` is exactly
/// `m · 2^e`, so `|v| · 100` rounds to whole hundredths in integer
/// arithmetic, ties to even as std does (`0.125` → `0.12`, `0.375` →
/// `0.38`); the sign bit is kept even when the digits round to zero
/// (`-0.001` → `-0.00`). Below 1e15 the hundredths fit in a `u64`;
/// larger magnitudes are rare enough to leave to std.
fn write_fixed2(out: &mut Vec<u8>, v: f64) {
    if v.is_nan() {
        out.extend_from_slice(b"NaN");
        return;
    }
    if v.is_infinite() {
        out.extend_from_slice(if v < 0.0 { b"-inf" } else { b"inf" });
        return;
    }
    if v.abs() >= 1e15 {
        use std::io::Write as _;
        let _ = write!(out, "{v:.2}");
        return;
    }
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        out.push(b'-');
    }
    let biased = (bits >> 52) & 0x7ff;
    let fraction = bits & ((1 << 52) - 1);
    // |v| = m · 2^e exactly; subnormals have no implicit bit.
    let (m, e) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased as i32 - 1075)
    };
    let scaled = u128::from(m) * 100; // < 2^60
    let hundredths = if e >= 0 {
        scaled << e // < 1e17: |v| < 1e15
    } else if e <= -64 {
        0 // scaled < 2^60, under half of 2^64
    } else {
        let shift = e.unsigned_abs();
        let (q, rem, half) = (
            scaled >> shift,
            scaled & ((1 << shift) - 1),
            1 << (shift - 1),
        );
        q + u128::from(rem > half || (rem == half && q & 1 == 1))
    };
    let hundredths = hundredths as u64;
    write_u64(out, hundredths / 100);
    let cents = (hundredths % 100) as u8;
    out.extend_from_slice(&[b'.', b'0' + cents / 10, b'0' + cents % 10]);
}

/// Title of the sweep table.
const TABLE_TITLE: &str = "Serialized and overlapped communication across the grid";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments;
    use crate::serialized::realistic_tp;
    use std::sync::Mutex;

    #[test]
    fn run_tasks_preserves_index_order() {
        for jobs in [1, 2, 8] {
            let results = run_tasks(jobs, 100, |i| i * i);
            for (i, r) in results.iter().enumerate() {
                assert_eq!(r.result, Ok(i * i), "jobs={jobs}");
            }
        }
    }

    #[test]
    fn panics_surface_as_errors_without_losing_neighbours() {
        let results = run_tasks(4, 16, |i| {
            assert!(i != 5, "task five exploded");
            i
        });
        for (i, r) in results.iter().enumerate() {
            if i == 5 {
                let err = r.result.as_ref().unwrap_err();
                assert!(err.contains("task five exploded"), "{err}");
            } else {
                assert_eq!(r.result, Ok(i));
            }
        }
    }

    #[test]
    fn zero_jobs_is_treated_as_one() {
        let results = run_tasks(0, 3, |i| i + 1);
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|r| r.result.is_ok()));
    }

    #[test]
    fn experiment_sweep_matches_serial_rendering() {
        let device = DeviceSpec::mi210();
        let defs: Vec<_> = experiments::all()
            .into_iter()
            .filter(|d| d.id == "table2" || d.id == "table3")
            .collect();
        let parallel = run_experiments(&device, &defs, 8);
        assert_eq!(parallel.summary.failures, 0);
        for (def, res) in defs.iter().zip(&parallel.results) {
            let serial = (def.run)(&device);
            assert_eq!(
                res.output.as_ref().unwrap().to_csv(),
                serial.to_csv(),
                "{}",
                def.id
            );
        }
    }

    #[test]
    fn failed_experiment_is_reported_not_fatal() {
        fn boom(_: &DeviceSpec) -> ExperimentOutput {
            panic!("generator bug");
        }
        let defs = vec![
            experiments::by_id("table2").unwrap(),
            ExperimentDef {
                id: "boom",
                title: "always fails",
                paper_claim: "",
                run: boom,
            },
            experiments::by_id("table3").unwrap(),
        ];
        let run = run_experiments(&DeviceSpec::mi210(), &defs, 4);
        assert_eq!(run.summary.failures, 1);
        assert!(run.results[0].output.is_ok());
        assert!(run.results[1]
            .output
            .as_ref()
            .unwrap_err()
            .contains("generator bug"));
        assert!(run.results[2].output.is_ok());
    }

    #[test]
    fn grid_sweep_is_deterministic_across_thread_counts() {
        let sweep = GridSweep {
            hs: vec![4096],
            sls: vec![2048],
            tps: vec![16, 32],
            flop_vs_bw: vec![1.0, 2.0],
            batch: 1,
            method: Method::Projection,
            ..GridSweep::default()
        };
        let device = DeviceSpec::mi210();
        let (serial, _) = sweep.run(&device, 1);
        let (parallel, summary) = sweep.run(&device, 8);
        assert_eq!(serial.to_csv(), parallel.to_csv());
        // Factored grids run one pool task per lease-sized chunk, so the
        // task count is bounded by (and can be below) the point count.
        assert!(
            summary.tasks >= 1 && summary.tasks <= sweep.points().len(),
            "tasks {} for {} points",
            summary.tasks,
            sweep.points().len()
        );
        assert_eq!(summary.failures, 0);
    }

    #[test]
    fn grid_points_are_pruned_and_ordered() {
        let sweep = GridSweep::default();
        let points = sweep.points();
        assert!(!points.is_empty());
        // No unrealistic (H, TP) pairs survive pruning.
        assert!(points.iter().all(|p| realistic_tp(p.h, p.tp)));
        // PaLM-3x-class at TP 16 is pruned (needs TP >= 16 but 65536/128 >= 16 holds,
        // while H=4096 caps TP at 32).
        assert!(!points.iter().any(|p| p.h == 4096 && p.tp > 32));
        // Deterministic row-major order: sorted by (h, sl, tp, ratio) index.
        let mut sorted = points.clone();
        sorted.sort_by(|a, b| {
            (a.h, a.sl, a.tp)
                .cmp(&(b.h, b.sl, b.tp))
                .then(a.ratio.partial_cmp(&b.ratio).unwrap())
        });
        for (a, b) in points.iter().zip(&sorted) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn summary_displays_timing_lines() {
        let device = DeviceSpec::mi210();
        let defs: Vec<_> = experiments::all()
            .into_iter()
            .filter(|d| d.id == "table2")
            .collect();
        let run = run_experiments(&device, &defs, 2);
        let text = run.summary.to_string();
        assert!(text.contains("1 tasks"), "{text}");
        assert!(text.contains("table2"), "{text}");
        assert!(text.contains("workers:"), "{text}");
        assert!(text.contains("  w0: 1 task, busy"), "{text}");
        assert!(!text.contains("cache"), "{text}");
    }

    #[test]
    fn worker_breakdown_accounts_every_task() {
        let sweep = GridSweep {
            hs: vec![4096],
            sls: vec![2048],
            tps: vec![16, 32],
            flop_vs_bw: vec![1.0, 2.0],
            batch: 1,
            method: Method::Projection,
            ..GridSweep::default()
        };
        let (_, summary) = sweep.run(&DeviceSpec::mi210(), 3);
        assert_eq!(summary.workers.len(), 3);
        let by_worker: usize = summary.workers.iter().map(|w| w.tasks).sum();
        assert_eq!(by_worker, summary.tasks);
        let busy: Duration = summary.workers.iter().map(|w| w.busy).sum();
        assert_eq!(busy, summary.task_time);
    }

    #[test]
    fn parallelism_budget_is_thread_scoped() {
        set_parallelism(3);
        std::thread::scope(|s| {
            s.spawn(|| {
                // Fresh thread starts at the default budget…
                assert_eq!(parallelism(), 1);
                // …and setting it here must not leak to the spawner.
                set_parallelism(7);
                assert_eq!(parallelism(), 7);
            });
        });
        assert_eq!(parallelism(), 3);
        set_parallelism(1);
    }

    #[test]
    fn workers_inherit_the_callers_budget() {
        set_parallelism(5);
        let observed = run_tasks(2, 4, |_| parallelism());
        for r in &observed {
            assert_eq!(r.result, Ok(5));
        }
        set_parallelism(1);
    }

    /// Regression for the process-global `PARALLELISM` atomic: a sweep
    /// running at `--jobs 1` used to see its nested-generator budget
    /// stomped by a concurrent sweep at `--jobs 8` (now reachable via
    /// `twocs serve`). Each pool's tasks must observe exactly their own
    /// sweep's budget while the other sweep runs.
    #[test]
    fn concurrent_pools_keep_their_own_jobs_budget() {
        use std::sync::mpsc;
        let (ready_tx, ready_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        // Task closures are shared across workers, so the channel ends
        // they capture must be Sync; a Mutex provides that.
        let done_rx = Mutex::new(done_rx);
        std::thread::scope(|s| {
            let serial = s.spawn(move || {
                set_parallelism(1);
                run_tasks(1, 3, |i| {
                    if i == 0 {
                        // Hold the serial pool open while the parallel
                        // pool runs to completion on the other thread.
                        ready_tx.send(()).unwrap();
                        done_rx.lock().unwrap().recv().unwrap();
                    }
                    parallelism()
                })
            });
            let parallel = s.spawn(move || {
                ready_rx.recv().unwrap();
                set_parallelism(8);
                let out = run_tasks(8, 3, |_| parallelism());
                done_tx.send(()).unwrap();
                out
            });
            for r in serial.join().unwrap() {
                assert_eq!(r.result, Ok(1), "serial sweep budget was stomped");
            }
            for r in parallel.join().unwrap() {
                assert_eq!(r.result, Ok(8), "parallel sweep budget was stomped");
            }
        });
    }

    /// Two grid sweeps at different `jobs` running concurrently must both
    /// emit byte-identical output to a serial reference run.
    #[test]
    fn concurrent_sweeps_at_different_jobs_are_byte_identical() {
        let sweep = GridSweep {
            hs: vec![4096],
            sls: vec![2048],
            tps: vec![16, 32],
            flop_vs_bw: vec![1.0, 2.0],
            batch: 1,
            method: Method::Projection,
            ..GridSweep::default()
        };
        let device = DeviceSpec::mi210();
        let reference = sweep.run(&device, 1).0.to_csv();
        std::thread::scope(|s| {
            let a = s.spawn(|| {
                (0..2)
                    .map(|_| sweep.run(&device, 1).0.to_csv())
                    .collect::<Vec<_>>()
            });
            let b = s.spawn(|| {
                (0..2)
                    .map(|_| sweep.run(&device, 4).0.to_csv())
                    .collect::<Vec<_>>()
            });
            for out in a.join().unwrap().into_iter().chain(b.join().unwrap()) {
                assert_eq!(out, reference);
            }
        });
    }

    #[test]
    fn chunks_cover_every_point_in_order() {
        let sweep = GridSweep::default();
        let points = sweep.points();
        let index = sweep.index();
        for chunk_size in [1, 3, 7, points.len(), points.len() + 5] {
            let mut reassembled = Vec::new();
            for c in 0..index.chunk_count(chunk_size) {
                let chunk = index.chunk_points(c, chunk_size);
                assert!(!chunk.is_empty() && chunk.len() <= chunk_size);
                reassembled.extend(chunk);
            }
            assert_eq!(reassembled, points, "chunk_size={chunk_size}");
        }
    }

    /// Evaluates every chunk with the naive kernel, last chunk first.
    #[derive(Debug)]
    struct NaiveExecutor;

    impl GridExecutor for NaiveExecutor {
        fn execute(
            &self,
            sweep: &GridSweep,
            device: &DeviceSpec,
            chunk_size: usize,
            completed: &BTreeSet<u32>,
            on_chunk: &mut OnChunk<'_>,
        ) -> Result<Box<dyn fmt::Display + Send>, String> {
            let index = sweep.index();
            for chunk in (0..index.chunk_count(chunk_size) as u32).rev() {
                if completed.contains(&chunk) {
                    continue;
                }
                let values = index
                    .chunk_points(chunk as usize, chunk_size)
                    .into_iter()
                    .map(|p| {
                        Ok(eval_grid_point(
                            device,
                            p,
                            sweep.batch,
                            sweep.method,
                            sweep.workload,
                        ))
                    })
                    .collect();
                on_chunk(chunk, values)?;
            }
            Ok(Box::new("naive"))
        }

        fn chunk_size(&self, _: &GridSweep) -> usize {
            3
        }
    }

    #[test]
    fn run_with_an_executor_matches_run() {
        let sweep = GridSweep {
            hs: vec![4096],
            sls: vec![2048],
            tps: vec![16, 32],
            flop_vs_bw: vec![1.0, 2.0],
            batch: 1,
            method: Method::Projection,
            ..GridSweep::default()
        };
        let device = DeviceSpec::mi210();
        let (table, _) = sweep.run(&device, 2);
        let executor = NaiveExecutor;
        let chunk_size = executor.chunk_size(&sweep);
        let (via_executor, _) = sweep
            .tabulate_with(chunk_size, |on_chunk| {
                executor.execute(&sweep, &device, chunk_size, &BTreeSet::new(), on_chunk)
            })
            .unwrap();
        assert_eq!(table.to_csv(), via_executor.to_csv());
    }

    #[test]
    fn tabulate_renders_errors_without_aborting() {
        let sweep = GridSweep {
            hs: vec![4096],
            sls: vec![2048],
            tps: vec![16],
            flop_vs_bw: vec![1.0, 2.0],
            batch: 1,
            method: Method::Projection,
            ..GridSweep::default()
        };
        let points = sweep.points();
        let results = vec![Ok((12.5, 34.25)), Err("boom".to_owned())];
        let csv = GridSweep::tabulate(&points, &results).to_csv();
        assert!(csv.contains("12.50"), "{csv}");
        assert!(csv.contains("error,error"), "{csv}");
    }

    /// `write_row` is the single row formatter: its bytes equal the
    /// joined `row_cells` plus a newline, and both equal std's `{}` /
    /// `{:.2}` rendering cell by cell — including ratios that print with
    /// and without decimals, `.xx5` ties, huge, negative and non-finite
    /// metrics, and `Err` rows.
    #[test]
    fn write_row_matches_row_cells_and_std_formatting_byte_for_byte() {
        fn reference(p: &GridPoint, r: &Result<(f64, f64), String>, extended: bool) -> String {
            let mut cells = vec![
                p.h.to_string(),
                p.sl.to_string(),
                p.tp.to_string(),
                format!("{}", p.ratio),
            ];
            if extended {
                for v in [p.experts, p.top_k, p.stages, p.micro_batches, p.sp] {
                    cells.push(v.to_string());
                }
            }
            match r {
                Ok((s, o)) => cells.extend([format!("{s:.2}"), format!("{o:.2}")]),
                Err(_) => cells.extend(["error".to_owned(), "error".to_owned()]),
            }
            cells.join(",") + "\n"
        }
        let metrics = [
            0.0,
            -0.0,
            12.5,
            -3.25,
            0.125,
            0.375,
            1.005,
            2.675,
            99.995,
            1e300,
            -1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut line = Vec::new();
        for extended in [false, true] {
            for ratio in [1.0, 1.05, 10.99, 3.0, 0.5] {
                let p = if extended {
                    GridPoint {
                        experts: 8,
                        top_k: 2,
                        stages: 4,
                        micro_batches: 8,
                        sp: 2,
                        ..GridPoint::new(16_384, 2048, 64, ratio)
                    }
                } else {
                    GridPoint::new(4096, 1024, 16, ratio)
                };
                let mut results = vec![Err("boom, with a comma".to_owned())];
                for (i, &s) in metrics.iter().enumerate() {
                    results.push(Ok((s, metrics[metrics.len() - 1 - i])));
                }
                for r in &results {
                    line.clear();
                    GridSweep::write_row(&mut line, &p, r, extended);
                    let joined = GridSweep::row_cells(&p, r, extended).join(",") + "\n";
                    assert_eq!(String::from_utf8_lossy(&line), joined, "{p:?} {r:?}");
                    assert_eq!(joined, reference(&p, r, extended), "{p:?} {r:?}");
                }
            }
        }
        line.clear();
        GridSweep::write_row(
            &mut line,
            &GridPoint::new(4096, 2048, 16, 1.05),
            &Ok((2.675, f64::NAN)),
            false,
        );
        assert_eq!(line, b"4096,2048,16,1.05,2.67,NaN\n");
        line.clear();
        GridSweep::write_row(
            &mut line,
            &GridPoint::new(4096, 2048, 16, 3.0),
            &Err("x".to_owned()),
            false,
        );
        assert_eq!(line, b"4096,2048,16,3,error,error\n");
    }

    /// `write_fixed2(v)` against `format!("{v:.2}")`.
    fn check_fixed2(out: &mut Vec<u8>, v: f64) {
        out.clear();
        write_fixed2(out, v);
        assert_eq!(
            std::str::from_utf8(out).unwrap(),
            format!("{v:.2}"),
            "{v:?} = {:#018x}",
            v.to_bits()
        );
    }

    /// The hand-rolled two-decimal writer is std's `{:.2}` byte for
    /// byte, over 1.3M values: raw bit patterns, the metric range,
    /// exact ±k/8 ties, `x.xx5` decimals, subnormals, zeros, non-finite
    /// values and both sides of the 1e15 std fallback.
    #[test]
    fn fixed2_writer_matches_std_byte_for_byte() {
        const SIGN: u64 = 1 << 63;
        const FRACTION: u64 = (1 << 52) - 1;
        let mut rng = twocs_testkit::Rng::new(0x02c5_f1ed);
        let mut out = Vec::new();
        for v in [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::EPSILON,
            0.005,
            -0.005,
            0.125,
            0.375,
            -0.001,
            999_999_999_999_999.9,
        ] {
            check_fixed2(&mut out, v);
        }
        for _ in 0..400_000 {
            check_fixed2(&mut out, f64::from_bits(rng.next_u64()));
        }
        // Magnitudes from 2^-30 to 2^52 (past 1e15 ~ 2^49.8), where
        // metric values and the fallback edge live.
        for _ in 0..300_000 {
            let biased = rng.u64_in(1023 - 30..1023 + 53);
            let bits = (rng.next_u64() & (SIGN | FRACTION)) | biased << 52;
            check_fixed2(&mut out, f64::from_bits(bits));
        }
        for _ in 0..20_000 {
            check_fixed2(&mut out, f64::from_bits(rng.next_u64() & (SIGN | FRACTION)));
        }
        for k in 0..100_000_u32 {
            let tie = f64::from(k) / 8.0;
            check_fixed2(&mut out, tie);
            check_fixed2(&mut out, -tie);
        }
        for _ in 0..150_000 {
            let decimal = format!("{}.{:02}5", rng.u64_in(0..1_000_000), rng.u64_in(0..100));
            let v: f64 = decimal.parse().unwrap();
            check_fixed2(&mut out, v);
            check_fixed2(&mut out, -v);
        }
        for step in 0..20_000 {
            for v in [
                f64::from_bits(1e15_f64.to_bits() - step),
                f64::from_bits(1e15_f64.to_bits() + step),
            ] {
                check_fixed2(&mut out, v);
                check_fixed2(&mut out, -v);
            }
        }
    }

    /// One `RowWriter` over consecutive rows — each prefix axis changing
    /// in turn, ratios that differ only in their last bits or their
    /// sign, extended axes changing under a fixed prefix — writes what
    /// per-cell std formatting writes, row after row.
    #[test]
    fn row_writer_reuses_prefixes_and_matches_std_rows() {
        fn std_row(p: &GridPoint, r: &Result<(f64, f64), String>, extended: bool) -> String {
            let mut cells = vec![
                p.h.to_string(),
                p.sl.to_string(),
                p.tp.to_string(),
                format!("{}", p.ratio),
            ];
            if extended {
                for v in [p.experts, p.top_k, p.stages, p.micro_batches, p.sp] {
                    cells.push(v.to_string());
                }
            }
            match r {
                Ok((s, o)) => cells.extend([format!("{s:.2}"), format!("{o:.2}")]),
                Err(_) => cells.extend(["error".to_owned(), "error".to_owned()]),
            }
            cells.join(",") + "\n"
        }
        let base = GridPoint::new(4096, 2048, 16, 1.5);
        let mut points = vec![
            base,
            GridPoint { h: 8192, ..base },
            GridPoint { sl: 4096, ..base },
            GridPoint { tp: 32, ..base },
            GridPoint { ratio: 2.0, ..base },
            base,
            GridPoint {
                ratio: 0.1 + 0.2,
                ..base
            },
            GridPoint { ratio: 0.3, ..base },
            GridPoint { ratio: 0.0, ..base },
            GridPoint {
                ratio: -0.0,
                ..base
            },
            GridPoint { ratio: 0.0, ..base },
        ];
        for (experts, top_k, stages, micro_batches, sp) in [
            (8, 2, 1, 1, 1),
            (8, 2, 4, 1, 1),
            (8, 2, 4, 8, 1),
            (8, 2, 4, 8, 2),
            (64, 1, 1, 1, 2),
        ] {
            points.push(GridPoint {
                experts,
                top_k,
                stages,
                micro_batches,
                sp,
                ..base
            });
        }
        let mut rng = twocs_testkit::Rng::new(7);
        for extended in [false, true] {
            let mut writer = RowWriter::new(extended);
            let (mut got, mut want) = (Vec::new(), String::new());
            for p in &points {
                for _ in 0..3 {
                    let r = if rng.u64_in(0..4) == 0 {
                        Err("boom".to_owned())
                    } else {
                        Ok((rng.f64_in(-1.0..150.0), rng.f64_in(0.0..100.0)))
                    };
                    writer.write(&mut got, p, &r);
                    want += &std_row(p, &r, extended);
                    assert_eq!(String::from_utf8_lossy(&got), want, "{p:?} {r:?}");
                }
            }
        }
    }

    #[test]
    fn task_results_carry_their_worker() {
        let results = run_tasks_labeled(2, 6, |i| format!("t{i}"), |i| i);
        for r in &results {
            assert!(r.worker < 2);
        }
    }

    #[test]
    fn pool_records_lifecycle_spans_deterministically() {
        use std::sync::Arc;
        let trace_for = |jobs: usize| {
            let tracer = Arc::new(twocs_obs::Tracer::new(twocs_obs::TraceMode::Logical));
            twocs_obs::set_thread_tracer(Some(tracer.clone()));
            let _ = run_tasks_labeled(jobs, 5, |i| format!("job {i}"), |i| i * 2);
            twocs_obs::set_thread_tracer(None);
            twocs_obs::chrome::render(&tracer.snapshot())
        };
        let serial = trace_for(1);
        let parallel = trace_for(4);
        assert_eq!(serial, parallel, "logical traces must not depend on jobs");
        assert!(serial.contains("job 3"));
    }
}
