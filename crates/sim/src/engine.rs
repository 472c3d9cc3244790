//! The discrete-event scheduler.
//!
//! [`Engine::run`] executes a [`TaskGraph`] to completion:
//!
//! 1. tasks become *ready* when all dependencies have finished;
//! 2. a ready task starts at `max(ready_time, availability of all its
//!    resources)` — resources are the per-device FIFO streams and, for
//!    point-to-point transfers, the directed link;
//! 3. ties between ready tasks break by task id (insertion order), making
//!    execution fully deterministic.
//!
//! The optional [`InterferenceModel`] stretches a task when the opposite
//! stream of one of its devices is still busy at its start time.

use crate::error::SimError;
use crate::graph::TaskGraph;
use crate::interference::InterferenceModel;
use crate::metrics::SimReport;
use crate::task::{DeviceId, StreamKind, TaskKind};
use crate::time::SimTime;
use crate::trace::{KernelRecord, Timeline};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Executes task graphs.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    interference: InterferenceModel,
}

impl Engine {
    /// An engine with no interference model.
    #[must_use]
    pub fn new() -> Self {
        Self {
            interference: InterferenceModel::none(),
        }
    }

    /// Use `model` to slow down concurrently executing compute/comm.
    #[must_use]
    pub fn with_interference(mut self, model: InterferenceModel) -> Self {
        self.interference = model;
        self
    }

    /// Execute `graph`, returning the aggregated [`SimReport`].
    ///
    /// # Errors
    /// Returns a [`SimError`] if the graph fails validation.
    pub fn run(&self, graph: &TaskGraph) -> Result<SimReport, SimError> {
        Ok(SimReport::from_timeline(&self.run_trace(graph)?))
    }

    /// Execute `graph`, returning the full kernel [`Timeline`].
    ///
    /// # Errors
    /// Returns a [`SimError`] if the graph fails validation.
    pub fn run_trace(&self, graph: &TaskGraph) -> Result<Timeline, SimError> {
        graph.validate()?;

        let n = graph.len();
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for task in graph.tasks() {
            indegree[task.id.0] = task.deps.len();
            for dep in &task.deps {
                dependents[dep.0].push(task.id.0);
            }
        }

        // Ready queue ordered by (ready_time, id) — min-heap via Reverse.
        let mut ready: BinaryHeap<Reverse<(SimTime, usize)>> = BinaryHeap::new();
        for task in graph.tasks() {
            if task.deps.is_empty() {
                ready.push(Reverse((SimTime::ZERO, task.id.0)));
            }
        }

        let mut stream_avail: HashMap<(DeviceId, StreamKind), SimTime> = HashMap::new();
        let mut link_avail: HashMap<(DeviceId, DeviceId), SimTime> = HashMap::new();
        let mut finish: Vec<Option<SimTime>> = vec![None; n];
        let mut timeline = Timeline::new();
        let mut executed = 0usize;

        while let Some(Reverse((ready_time, idx))) = ready.pop() {
            let task = &graph.tasks()[idx];

            // Resource availability. Point-to-point transfers are
            // DMA-driven: they occupy the directed link, not the comm
            // stream (a device can feed several links concurrently).
            let is_transfer = matches!(task.kind, TaskKind::Transfer { .. });
            let mut start = ready_time;
            if is_transfer {
                if let TaskKind::Transfer { src, dst } = task.kind {
                    let avail = link_avail
                        .get(&(src, dst))
                        .copied()
                        .unwrap_or(SimTime::ZERO);
                    start = start.max(avail);
                }
            } else {
                for dev in task.devices() {
                    if let Some(stream) = task.stream_on(dev) {
                        let avail = stream_avail
                            .get(&(dev, stream))
                            .copied()
                            .unwrap_or(SimTime::ZERO);
                        start = start.max(avail);
                    }
                }
            }

            // Interference: stretch duration if the opposite stream of any
            // involved device is busy past our start time.
            let mut duration = task.duration;
            if !self.interference.is_none() && duration > SimTime::ZERO {
                let slowdown =
                    match task.stream_on(task.devices().first().copied().unwrap_or(DeviceId(0))) {
                        Some(StreamKind::Comm | StreamKind::CommAlt) => {
                            let concurrent = task.devices().iter().any(|&d| {
                                stream_avail
                                    .get(&(d, StreamKind::Compute))
                                    .is_some_and(|&t| t > start)
                            });
                            if concurrent {
                                self.interference.comm_slowdown
                            } else {
                                1.0
                            }
                        }
                        Some(StreamKind::Compute) => {
                            let concurrent = task.devices().iter().any(|&d| {
                                [StreamKind::Comm, StreamKind::CommAlt]
                                    .iter()
                                    .any(|&s| stream_avail.get(&(d, s)).is_some_and(|&t| t > start))
                            });
                            if concurrent {
                                self.interference.compute_slowdown
                            } else {
                                1.0
                            }
                        }
                        None => 1.0,
                    };
                duration = duration.scale(slowdown);
            }

            let end = start + duration;

            // Occupy resources and record per-device stream activity.
            // Transfers only hold their link; the record is attributed to
            // the source's comm stream for accounting without serializing
            // other DMA channels.
            for dev in task.devices() {
                if let Some(stream) = task.stream_on(dev) {
                    if !is_transfer {
                        stream_avail.insert((dev, stream), end);
                    }
                    timeline.push(KernelRecord {
                        task: task.id,
                        name: task.name.clone(),
                        class: task.class,
                        device: dev,
                        stream,
                        start,
                        end,
                    });
                }
            }
            if let TaskKind::Transfer { src, dst } = task.kind {
                link_avail.insert((src, dst), end);
            }

            finish[idx] = Some(end);
            executed += 1;

            for &dep_idx in &dependents[idx] {
                indegree[dep_idx] -= 1;
                if indegree[dep_idx] == 0 {
                    let ready_at = graph.tasks()[dep_idx]
                        .deps
                        .iter()
                        .map(|d| finish[d.0].expect("dependency finished before dependent"))
                        .max()
                        .unwrap_or(SimTime::ZERO);
                    ready.push(Reverse((ready_at, dep_idx)));
                }
            }
        }

        if executed != n {
            return Err(SimError::CyclicDependencies {
                stuck: n - executed,
            });
        }
        // Feed the executed timeline to the observability layer (a no-op
        // without an active tracer). Simulated timestamps are virtual and
        // deterministic, so this never perturbs trace reproducibility.
        if let Some(tracer) = twocs_obs::current_tracer() {
            tracer.push_sim_spans(&timeline.to_obs_spans());
        }
        Ok(timeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::OpClass;

    fn d(i: usize) -> DeviceId {
        DeviceId(i)
    }

    #[test]
    fn chain_executes_serially() {
        let mut g = TaskGraph::new(1);
        let a = g.compute(d(0), "a", OpClass::Gemm, 1e-3, &[]);
        let _b = g.compute(d(0), "b", OpClass::Gemm, 2e-3, &[a]);
        let r = Engine::new().run(&g).unwrap();
        assert_eq!(r.makespan(), SimTime::from_secs_f64(3e-3));
    }

    #[test]
    fn same_stream_serializes_even_without_deps() {
        let mut g = TaskGraph::new(1);
        g.compute(d(0), "a", OpClass::Gemm, 1e-3, &[]);
        g.compute(d(0), "b", OpClass::Gemm, 1e-3, &[]);
        let r = Engine::new().run(&g).unwrap();
        assert_eq!(r.makespan(), SimTime::from_secs_f64(2e-3));
    }

    #[test]
    fn different_devices_run_in_parallel() {
        let mut g = TaskGraph::new(2);
        g.compute(d(0), "a", OpClass::Gemm, 1e-3, &[]);
        g.compute(d(1), "b", OpClass::Gemm, 1e-3, &[]);
        let r = Engine::new().run(&g).unwrap();
        assert_eq!(r.makespan(), SimTime::from_secs_f64(1e-3));
    }

    #[test]
    fn comm_overlaps_compute_on_same_device() {
        let mut g = TaskGraph::new(1);
        g.compute(d(0), "gemm", OpClass::Gemm, 2e-3, &[]);
        g.collective(vec![d(0)], "ar", 1e-3, &[]);
        let r = Engine::new().run(&g).unwrap();
        assert_eq!(r.makespan(), SimTime::from_secs_f64(2e-3));
        assert_eq!(r.exposed_comm_time(), SimTime::ZERO);
    }

    #[test]
    fn serialized_collective_blocks_compute() {
        // TP pattern: gemm -> AR -> gemm; comm fully exposed.
        let mut g = TaskGraph::new(1);
        let a = g.compute(d(0), "g1", OpClass::Gemm, 1e-3, &[]);
        let ar = g.collective(vec![d(0)], "ar", 1e-3, &[a]);
        let _b = g.compute(d(0), "g2", OpClass::Gemm, 1e-3, &[ar]);
        let r = Engine::new().run(&g).unwrap();
        assert_eq!(r.makespan(), SimTime::from_secs_f64(3e-3));
        assert_eq!(r.exposed_comm_time(), SimTime::from_secs_f64(1e-3));
    }

    #[test]
    fn collective_waits_for_all_participants() {
        let mut g = TaskGraph::new(2);
        let a0 = g.compute(d(0), "a0", OpClass::Gemm, 1e-3, &[]);
        let a1 = g.compute(d(1), "a1", OpClass::Gemm, 3e-3, &[]);
        let _ar = g.collective(vec![d(0), d(1)], "ar", 1e-3, &[a0, a1]);
        let r = Engine::new().run(&g).unwrap();
        // AR starts when the slowest participant finishes.
        assert_eq!(r.makespan(), SimTime::from_secs_f64(4e-3));
    }

    #[test]
    fn transfers_share_links() {
        let mut g = TaskGraph::new(2);
        g.transfer(d(0), d(1), "x", 1e-3, &[]);
        g.transfer(d(0), d(1), "y", 1e-3, &[]);
        let r = Engine::new().run(&g).unwrap();
        // Same directed link: serialized.
        assert_eq!(r.makespan(), SimTime::from_secs_f64(2e-3));
    }

    #[test]
    fn opposite_direction_links_are_independent() {
        let mut g = TaskGraph::new(2);
        g.transfer(d(0), d(1), "x", 1e-3, &[]);
        g.transfer(d(1), d(0), "y", 1e-3, &[]);
        let r = Engine::new().run(&g).unwrap();
        assert_eq!(r.makespan(), SimTime::from_secs_f64(1e-3));
    }

    #[test]
    fn interference_stretches_overlapped_comm() {
        let mut g = TaskGraph::new(1);
        g.compute(d(0), "gemm", OpClass::Gemm, 10e-3, &[]);
        g.collective(vec![d(0)], "ar", 4e-3, &[]);
        let clean = Engine::new().run(&g).unwrap();
        let noisy = Engine::new()
            .with_interference(InterferenceModel::new(2.0, 1.0))
            .run(&g)
            .unwrap();
        assert_eq!(clean.comm_time(), SimTime::from_secs_f64(4e-3));
        assert_eq!(noisy.comm_time(), SimTime::from_secs_f64(8e-3));
        // Still hidden under the 10ms GEMM.
        assert_eq!(noisy.makespan(), SimTime::from_secs_f64(10e-3));
    }

    #[test]
    fn isolated_comm_not_stretched() {
        let mut g = TaskGraph::new(1);
        g.collective(vec![d(0)], "ar", 4e-3, &[]);
        let r = Engine::new()
            .with_interference(InterferenceModel::new(2.0, 2.0))
            .run(&g)
            .unwrap();
        assert_eq!(r.makespan(), SimTime::from_secs_f64(4e-3));
    }

    #[test]
    fn executed_timeline_is_captured_by_active_tracer() {
        let tracer = std::sync::Arc::new(twocs_obs::Tracer::new(twocs_obs::TraceMode::Logical));
        twocs_obs::set_thread_tracer(Some(tracer.clone()));
        let mut g = TaskGraph::new(1);
        let a = g.compute(d(0), "g1", OpClass::Gemm, 1e-3, &[]);
        g.collective(vec![d(0)], "ar", 1e-3, &[a]);
        let timeline = Engine::new().run_trace(&g).unwrap();
        twocs_obs::set_thread_tracer(None);
        let snap = tracer.snapshot();
        assert_eq!(snap.spans.len(), timeline.records().len());
        assert!(snap.spans.iter().any(|s| s.name == "g1" && s.cat == "gemm"));
        assert!(snap.spans.iter().any(|s| s.name == "ar" && s.cat == "comm"));
    }

    #[test]
    fn determinism() {
        let mut g = TaskGraph::new(4);
        for i in 0..50 {
            let dev = d(i % 4);
            g.compute(
                dev,
                format!("k{i}"),
                OpClass::Gemm,
                1e-4 * (i % 7 + 1) as f64,
                &[],
            );
            if i % 5 == 0 {
                g.collective(vec![d(0), d(1), d(2), d(3)], format!("ar{i}"), 2e-4, &[]);
            }
        }
        let e = Engine::new();
        let t1 = e.run_trace(&g).unwrap();
        let t2 = e.run_trace(&g).unwrap();
        assert_eq!(t1.records(), t2.records());
    }

    #[test]
    fn makespan_never_below_critical_path() {
        let mut g = TaskGraph::new(2);
        let a = g.compute(d(0), "a", OpClass::Gemm, 1e-3, &[]);
        let b = g.compute(d(1), "b", OpClass::Gemm, 5e-4, &[a]);
        let _ = g.collective(vec![d(0), d(1)], "ar", 7e-4, &[b]);
        let r = Engine::new().run(&g).unwrap();
        assert!(r.makespan() >= g.critical_path());
    }
}
