//! Factored grid-sweep evaluation: precompute per-axis tables once,
//! assemble each point from lookups.
//!
//! A [`GridSweep`](crate::sweep::GridSweep) is a cross product of axes,
//! and under [`Method::Projection`] the per-point model is
//! axis-separable: the projection baseline (one profiled layer plus the
//! measured all-reduce curve, Eqs. 10–12) depends only on the evolved
//! *device* — i.e. on the flop-vs-bw ratio axis — so a point's compute
//! and serialized TP all-reduce depend only on its `(H, SL, TP)` triple
//! and ratio, and its MoE/PP/SP costs only on its shape, network and
//! axis tuple. The naive path rebuilds all of that from scratch for
//! every point; [`FactoredPlan`] prices it once per table cell and turns
//! evaluation into `O(Σ axis sizes + points × combine)`, where the
//! combine is one [`PointTerms`] assembly.
//!
//! The tables are laid out **struct-of-arrays**: flat `Vec<f64>` columns
//! indexed by the positions of the [`GridIndex`] the plan was built from
//! and keeps — a [`GridCursor`](crate::grid::GridCursor)'s `(triple,
//! ratio, axis tuple)` digits. [`FactoredPlan::eval_range`] therefore
//! evaluates a chunk as a rank range in one loop: the cursor steps
//! through the ranks, its digits index the columns directly, and its
//! point feeds the combine — no point list, no hashing, zero per-point
//! allocation and no per-point `catch_unwind`. Hashing a point's axis
//! values ([`FactoredPlan::eval_batch`]) is left to arbitrary points,
//! outside any executor. The expensive sub-expressions (the triple's
//! compute and TP all-reduce times, and the slack-ROI profile behind the
//! overlap percentage) are filled at build time, once per `(ratio,
//! triple)` position, with one [`Profiler`] per evolved device. The
//! per-ratio groups of cells are independent, so a build prices them on
//! the calling thread's [`parallelism`] budget.
//!
//! **Bit-identity is the contract**: the plan prices each cell with the
//! *same* calls the naive [`eval_grid_point`] path makes per point
//! ([`triple_terms`], [`axis_costs`] and `overlap_pct`), and both paths
//! assemble the serialized fraction with the one
//! [`PointTerms::serialized_pct`], so they produce bit-equal `f64`s and
//! byte-identical CSV on any grid. That is what lets local, serve, and
//! distributed executors use the plan without a protocol or output
//! change.
//!
//! [`Method::Simulation`] runs the discrete-event engine per point —
//! there is nothing axis-separable to hoist — so simulation grids have
//! no plan, and [`eval_chunk`], the one place that decides between the
//! two paths, evaluates them naively.

use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::grid::GridIndex;
use crate::overlapped::overlap_pct_with;
use crate::serialized::{sweep_hyper, Method};
use crate::sweep::{
    axis_costs, eval_grid_point, evolved, panic_message, parallelism, projection_model,
    run_tasks_labeled, triple_terms, AxisCosts, GridPoint, GridSweep, PointResults, PointTerms,
    Workload,
};
use twocs_hw::network::NetworkSpec;
use twocs_hw::DeviceSpec;
use twocs_opmodel::Profiler;
use twocs_transformer::Hyperparams;

/// Struct-of-arrays tables for one sweep: every expensive
/// sub-expression is computed once per table cell at build time, and
/// [`FactoredPlan::eval_range`] assembles each point of a rank range
/// from flat `f64` column reads plus the cheap shared combine.
///
/// Layout: every column is indexed by positions of the plan's
/// [`GridIndex`] — a rank's digits. The triple columns (`compute`,
/// `tp_comm`, `overlap`) hold one cell per `(ratio, triple)` position
/// at `r * triples + t`, so each ratio's cells are one contiguous
/// pricing group. The axis table (`axis`) is keyed by the `(H, SL)`
/// shape, the evolved device's *network* — [`axis_costs`] reads nothing
/// else of the device, and flop-vs-bw evolution never changes the
/// network — and the axis-tuple position: it is indexed
/// `(triple_shape[t] * networks + ratio_net[r]) * axes + a`. A grid that
/// repeats a value prices it once per position, with equal bits.
#[derive(Debug, Clone)]
pub struct FactoredPlan {
    batch: u64,
    /// The workload every point of this plan evaluates under; part of
    /// the table key space because axis and inference costs depend on
    /// it (a sweep has exactly one workload, so it is a plan field, not
    /// an axis).
    workload: Workload,
    /// The unevolved device the plan was built from, for the naive
    /// fallback on points outside the plan's axes.
    base_device: DeviceSpec,
    /// The grid the plan was built from: the one index whose ranks
    /// [`Self::eval_range`] evaluates and whose positions the columns
    /// are indexed by.
    index: GridIndex,
    /// First triple position of each `(H, SL, TP)`, for arbitrary
    /// points ([`Self::eval_batch`]).
    triple_pos: HashMap<(u64, u64, u64), usize>,
    /// First ratio position of each ratio's bit pattern.
    ratio_pos: HashMap<u64, usize>,
    /// First axis-tuple position of each
    /// `(experts, top_k, stages, micro_batches, sp)`.
    axis_pos: HashMap<(u64, u64, u64, u64, u64), usize>,
    /// Shape (row of `hypers`) per triple position: consecutive triples
    /// of one `(H, SL)` share one.
    triple_shape: Vec<usize>,
    /// Network index per ratio position.
    ratio_net: Vec<usize>,
    /// Number of distinct evolved networks across the ratios.
    networks: usize,
    /// Sweep hyperparameters per shape.
    hypers: Vec<Hyperparams>,
    /// [`PointTerms::compute`] per `(ratio, triple)` cell.
    compute: Vec<f64>,
    /// [`PointTerms::tp_comm`] per `(ratio, triple)` cell.
    tp_comm: Vec<f64>,
    /// Overlapped-communication percentage per `(ratio, triple)` cell.
    overlap: Vec<f64>,
    /// [`PointTerms::axis`] per `(shape, network, axis tuple)` cell. A
    /// sweep crosses every shape with every axis tuple, so every cell
    /// is priced.
    axis: Vec<AxisCosts>,
}

impl FactoredPlan {
    /// Build the plan for an **entire sweep** from its [`GridIndex`] —
    /// O(axis values + table cells) work and memory, never materializing
    /// the point list, so the cost of *getting* the plan does not scale
    /// with the point count. The plan keeps that index, so it evaluates
    /// ranks of exactly this grid. This is the only constructor: the local
    /// pool, the streaming store, serve, and a dist worker (one plan per
    /// spec fingerprint, reused across every chunk lease of that grid)
    /// all build through it. Cells are priced on the calling thread's
    /// [`parallelism`] budget.
    ///
    /// `None` when the sweep cannot be factored — the simulation method
    /// (the discrete-event engine is evaluated whole, per point), an
    /// empty grid, or a build that panicked. [`eval_chunk`] then runs the
    /// naive kernel, which reports any such panic per point, so planning
    /// can never make a sweep fail that would have succeeded point by
    /// point.
    #[must_use]
    pub fn build_from_sweep(device: &DeviceSpec, sweep: &GridSweep) -> Option<Self> {
        if sweep.method != Method::Projection {
            return None;
        }
        let index = sweep.index();
        if index.is_empty() {
            return None;
        }
        let _span = twocs_obs::span("factored plan", "sweep");
        catch_unwind(AssertUnwindSafe(|| {
            let triples = index.triples();
            let mut hypers = Vec::new();
            let triple_shape: Vec<usize> = triples
                .iter()
                .enumerate()
                .map(|(t, &(h, sl, _))| {
                    if t == 0 || (triples[t - 1].0, triples[t - 1].1) != (h, sl) {
                        hypers.push(sweep_hyper(h, sl, sweep.batch));
                    }
                    hypers.len() - 1
                })
                .collect();
            let devices: Vec<DeviceSpec> = index
                .ratios()
                .iter()
                .map(|&ratio| evolved(device, ratio))
                .collect();
            let mut networks: Vec<NetworkSpec> = Vec::new();
            let ratio_net = devices
                .iter()
                .map(|dev| {
                    networks
                        .iter()
                        .position(|n| n == dev.network())
                        .unwrap_or_else(|| {
                            networks.push(*dev.network());
                            networks.len() - 1
                        })
                })
                .collect();
            let axis_points: Vec<GridPoint> = index
                .axis_tuples()
                .map(|(experts, top_k, stages, micro_batches, sp)| GridPoint {
                    experts,
                    top_k,
                    stages,
                    micro_batches,
                    sp,
                    ..GridPoint::new(256, 1, 1, 1.0)
                })
                .collect();
            let mut plan = Self {
                batch: sweep.batch,
                workload: sweep.workload,
                base_device: device.clone(),
                triple_pos: first_positions(triples.iter().copied()),
                ratio_pos: first_positions(index.ratios().iter().map(|r| r.to_bits())),
                axis_pos: first_positions(axis_points.iter().map(GridPoint::axis_key)),
                index,
                triple_shape,
                ratio_net,
                networks: networks.len(),
                hypers,
                compute: Vec::new(),
                tp_comm: Vec::new(),
                overlap: Vec::new(),
                axis: Vec::new(),
            };
            let groups = plan.price_triples(&devices, parallelism())?;
            for (compute, tp_comm, overlap) in groups.into_iter().flatten() {
                plan.compute.push(compute);
                plan.tp_comm.push(tp_comm);
                plan.overlap.push(overlap);
            }
            // Axis table: one cell per (shape, network, axis tuple), priced
            // by the same shared `axis_costs` the naive kernel calls — that
            // sharing is the bit-identity argument for the new axes. The
            // loops run in flat-index order.
            for hyper in &plan.hypers {
                for net in &networks {
                    for &p in &axis_points {
                        plan.axis.push(axis_costs(net, hyper, p, plan.workload));
                    }
                }
            }
            twocs_obs::metrics::global()
                .counter("sweep.factored_plans")
                .inc();
            Some(plan)
        }))
        .ok()
        .flatten()
    }

    /// Price the triple columns, one group of `(compute, tp_comm,
    /// overlap)` cells per ratio position in triple order, on
    /// `devices[r]`, the grid's ratios applied to the base device.
    ///
    /// The groups are independent, so they are priced on up to `jobs`
    /// pool threads ([`run_tasks_labeled`]). A budget of 1 or a single
    /// group prices inline under the same task scopes, so logical traces
    /// do not depend on the budget. Returns `None` if a pool group
    /// panicked; an inline panic unwinds to [`Self::build_from_sweep`],
    /// which also answers `None`.
    fn price_triples(
        &self,
        devices: &[DeviceSpec],
        jobs: usize,
    ) -> Option<Vec<Vec<(f64, f64, f64)>>> {
        let price_group = |r: usize| -> Vec<(f64, f64, f64)> {
            let dev = &devices[r];
            let profiler = Profiler::new(dev.clone());
            let model = projection_model(dev, self.workload);
            self.index
                .triples()
                .iter()
                .zip(&self.triple_shape)
                .map(|(&(h, sl, tp), &shape)| {
                    let hyper = &self.hypers[shape];
                    let (compute, tp_comm) =
                        triple_terms(model.as_ref(), dev, hyper, tp, self.workload);
                    let overlap = overlap_pct_with(&profiler, h, sl * self.batch, tp, 4);
                    (compute, tp_comm, overlap)
                })
                .collect()
        };
        let label = |r: usize| format!("price ratio {r}");
        let groups = devices.len();
        if jobs.min(groups) <= 1 {
            return Some(
                (0..groups)
                    .map(|r| {
                        let _scope = twocs_obs::task_scope(r, &label(r));
                        price_group(r)
                    })
                    .collect(),
            );
        }
        run_tasks_labeled(jobs.min(groups), groups, label, price_group)
            .into_iter()
            .map(|t| t.result.ok())
            .collect()
    }

    /// Number of `(H, SL)` shapes the plan tabulated.
    #[must_use]
    pub fn shapes(&self) -> usize {
        self.hypers.len()
    }

    /// Number of flop-vs-bw ratio positions the plan tabulated.
    #[must_use]
    pub fn ratios(&self) -> usize {
        self.ratio_net.len()
    }

    /// Number of distinct evolved networks the axis tables are keyed by
    /// — 1 for any flop-vs-bw grid, which scales compute, not network.
    #[must_use]
    pub fn networks(&self) -> usize {
        self.networks
    }

    /// Number of MoE/PP/SP axis-tuple positions the plan tabulated.
    #[must_use]
    pub fn axes(&self) -> usize {
        self.index.axis_count()
    }

    /// The `(triple, ratio, axis tuple)` position of an arbitrary point,
    /// found by hashing its axis values — each value's first position in
    /// the plan's grid — or `None` for a point outside the plan's axes
    /// (a triple the grid pruned included). Ranks of the plan's own grid
    /// never need this: a cursor's [`cell`](crate::grid::GridCursor::cell)
    /// is such a position.
    fn resolve(&self, p: GridPoint) -> Option<(usize, usize, usize)> {
        Some((
            *self.triple_pos.get(&(p.h, p.sl, p.tp))?,
            *self.ratio_pos.get(&p.ratio.to_bits())?,
            *self.axis_pos.get(&p.axis_key())?,
        ))
    }

    /// The combine over the `(triple, ratio, axis tuple)` position
    /// `(t, r, a)`: its cells as the point's [`PointTerms`], assembled by
    /// the same [`PointTerms::serialized_pct`] the naive kernel calls.
    #[inline]
    fn combine(&self, (t, r, a): (usize, usize, usize), p: GridPoint) -> (f64, f64) {
        let cell = r * self.triple_shape.len() + t;
        let shape = self.triple_shape[t];
        let terms = PointTerms {
            layers: self.hypers[shape].layers(),
            compute: self.compute[cell],
            tp_comm: self.tp_comm[cell],
            axis: self.axis[(shape * self.networks + self.ratio_net[r]) * self.axes() + a],
        };
        (terms.serialized_pct(p), self.overlap[cell])
    }

    /// Evaluate one grid point from the tables. Bit-identical to
    /// [`eval_grid_point`] by construction: the combine runs the same
    /// shared sub-expressions, only their inputs come from tables. A
    /// point outside the plan's axes (possible only if callers evaluate
    /// points they did not build the plan from) falls back to the naive
    /// kernel.
    #[must_use]
    pub fn eval(&self, p: GridPoint) -> (f64, f64) {
        match self.resolve(p) {
            Some(cell) => self.combine(cell, p),
            None => eval_grid_point(
                &self.base_device,
                p,
                self.batch,
                Method::Projection,
                self.workload,
            ),
        }
    }

    /// Evaluate the plan's grid ranks `ranks` (clamped to the grid) into
    /// `out` (cleared first), in rank order — the executors' path. One
    /// [`GridCursor`](crate::grid::GridCursor) walks the range: its
    /// digits index the columns directly (no hashing) and its point
    /// feeds the combine, so no point list is built and nothing
    /// allocates per point. Every position of the plan's own grid is
    /// priced, so nothing here needs a fallback.
    pub fn eval_range(&self, ranks: Range<usize>, out: &mut PointResults) {
        out.clear();
        let end = ranks.end.min(self.index.len());
        let start = ranks.start.min(end);
        out.reserve(end - start);
        let mut cursor = self.index.cursor(start);
        for _ in start..end {
            out.push(Ok(self.combine(cursor.cell(), cursor.point())));
            cursor.advance();
        }
    }

    /// Evaluate arbitrary points into `out` (cleared first), in point
    /// order, each resolved to its table cell by hashing its axis
    /// values. Points outside the tables fall back to the scalar path
    /// ([`Self::eval`]) with their panics caught per point, so a
    /// malformed point degrades to an `Err` entry instead of aborting
    /// the batch. Executors evaluate ranks ([`Self::eval_range`]); this
    /// is the arbitrary-point path and the reference the rank path is
    /// tested against.
    pub fn eval_batch(&self, points: &[GridPoint], out: &mut PointResults) {
        out.clear();
        out.extend(points.iter().map(|&p| match self.resolve(p) {
            Some(cell) => Ok(self.combine(cell, p)),
            None => catch_unwind(AssertUnwindSafe(|| self.eval(p))).map_err(panic_message),
        }));
    }
}

/// The first position of each distinct key in `keys`.
fn first_positions<K: Hash + Eq>(keys: impl Iterator<Item = K>) -> HashMap<K, usize> {
    let mut positions = HashMap::new();
    for (i, key) in keys.enumerate() {
        positions.entry(key).or_insert(i);
    }
    positions
}

/// Evaluate the ranks `ranks` of `sweep`'s grid `index` into `out`
/// (cleared first), in rank order — the one place that decides between
/// factored and naive evaluation, and the one call every executor (local
/// pool, dist worker, coordinator drain) makes per chunk
/// ([`GridIndex::chunk_ranks`]). With a plan built from this grid (once
/// per sweep, by [`FactoredPlan::build_from_sweep`]) the range goes
/// through [`FactoredPlan::eval_range`]; without one (simulation grids,
/// a plan build that failed, or a plan of another grid) one cursor
/// feeds each point to the naive [`eval_grid_point`] kernel. Either way a
/// point's panic is reported as that point's error, never aborting the
/// chunk, and the values are bit-identical.
pub fn eval_chunk(
    plan: Option<&FactoredPlan>,
    device: &DeviceSpec,
    sweep: &GridSweep,
    index: &GridIndex,
    ranks: Range<usize>,
    out: &mut PointResults,
) {
    match plan.filter(|plan| plan.index == *index) {
        Some(plan) => plan.eval_range(ranks, out),
        None => {
            out.clear();
            out.extend(index.iter_range(ranks).map(|p| {
                catch_unwind(AssertUnwindSafe(|| {
                    eval_grid_point(device, p, sweep.batch, sweep.method, sweep.workload)
                }))
                .map_err(panic_message)
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::GridSweep;

    fn projection_grid() -> GridSweep {
        GridSweep {
            hs: vec![4096, 16_384],
            sls: vec![2048, 4096],
            tps: vec![4, 16, 32],
            flop_vs_bw: vec![1.0, 2.0],
            batch: 1,
            method: Method::Projection,
            ..GridSweep::default()
        }
    }

    fn extended_grid() -> GridSweep {
        GridSweep {
            experts: vec![1, 4],
            top_ks: vec![2],
            stages: vec![1, 2],
            sps: vec![1, 2],
            ..projection_grid()
        }
    }

    #[test]
    fn factored_eval_is_bit_identical_to_naive() {
        let device = DeviceSpec::mi210();
        for grid in [projection_grid(), extended_grid()] {
            let plan = FactoredPlan::build_from_sweep(&device, &grid)
                .expect("projection grids are factorable");
            for p in grid.points() {
                let naive = eval_grid_point(&device, p, grid.batch, grid.method, grid.workload);
                let factored = plan.eval(p);
                assert_eq!(
                    (naive.0.to_bits(), naive.1.to_bits()),
                    (factored.0.to_bits(), factored.1.to_bits()),
                    "point {p:?}: naive {naive:?} vs factored {factored:?}"
                );
            }
        }
    }

    #[test]
    fn eval_batch_is_bit_identical_to_scalar_eval() {
        let device = DeviceSpec::mi210();
        let grid = projection_grid();
        let points = grid.points();
        let plan = FactoredPlan::build_from_sweep(&device, &grid).unwrap();
        let mut out = PointResults::new();
        plan.eval_batch(&points, &mut out);
        assert_eq!(out.len(), points.len());
        for (p, r) in points.iter().zip(&out) {
            let scalar = plan.eval(*p);
            let batch = r.as_ref().unwrap();
            assert_eq!(
                (scalar.0.to_bits(), scalar.1.to_bits()),
                (batch.0.to_bits(), batch.1.to_bits()),
                "point {p:?}"
            );
        }
    }

    #[test]
    fn plan_tabulates_each_axis_value_once() {
        let device = DeviceSpec::mi210();
        let plan = FactoredPlan::build_from_sweep(&device, &projection_grid()).unwrap();
        assert_eq!(plan.shapes(), 4); // 2 H × 2 SL
        assert_eq!(plan.ratios(), 2);
        assert_eq!(plan.networks(), 1); // flop-vs-bw keeps the network
        let extended = FactoredPlan::build_from_sweep(&device, &extended_grid()).unwrap();
        assert_eq!(extended.axes(), 4); // (4, 2) × 2 stages × 2 sp; (1, 2) is pruned
    }

    /// Pricing runs under one task scope per ratio group whether it is
    /// inline or on pool threads, so a logical-clock trace of a plan
    /// build is byte-identical at any budget.
    #[test]
    fn pricing_traces_do_not_depend_on_the_budget() {
        use std::sync::Arc;
        let device = DeviceSpec::mi210();
        let grid = GridSweep {
            flop_vs_bw: vec![1.0, 2.0, 3.0, 4.0],
            ..projection_grid()
        };
        // Each build on a fresh thread, as in a fresh process: logical
        // ticks continue across spans of one thread.
        let trace_for = |jobs: usize| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let tracer = Arc::new(twocs_obs::Tracer::new(twocs_obs::TraceMode::Logical));
                    twocs_obs::set_thread_tracer(Some(tracer.clone()));
                    crate::sweep::set_parallelism(jobs);
                    assert!(FactoredPlan::build_from_sweep(&device, &grid).is_some());
                    twocs_obs::chrome::render(&tracer.snapshot())
                })
                .join()
                .unwrap()
            })
        };
        let serial = trace_for(1);
        assert_eq!(serial, trace_for(4));
        assert_eq!(serial.matches("price ratio").count(), 4, "{serial}");
    }

    #[test]
    fn points_off_the_plan_axes_resolve_to_scalar_fallback() {
        let device = DeviceSpec::mi210();
        let grid = projection_grid();
        let plan = FactoredPlan::build_from_sweep(&device, &grid).unwrap();
        // A well-formed point the plan never saw (H off the axis) must
        // evaluate through the fallback, bit-identical to naive.
        let off = GridPoint::new(8192, 2048, 4, 1.0);
        assert!(plan.resolve(off).is_none());
        let naive = eval_grid_point(&device, off, grid.batch, grid.method, grid.workload);
        assert_eq!(plan.eval(off), naive);
        let mut out = PointResults::new();
        plan.eval_batch(&[off], &mut out);
        assert_eq!(out[0].as_ref().unwrap(), &naive);
    }

    #[test]
    fn sweep_built_plan_refuses_unfactorable_grids() {
        let device = DeviceSpec::mi210();
        let sim = GridSweep {
            method: Method::Simulation,
            ..projection_grid()
        };
        assert!(FactoredPlan::build_from_sweep(&device, &sim).is_none());
        let empty = GridSweep {
            hs: vec![100],
            ..projection_grid()
        };
        assert!(FactoredPlan::build_from_sweep(&device, &empty).is_none());
    }

    #[test]
    fn eval_chunk_matches_naive_per_point_and_reports_errors() {
        let device = DeviceSpec::mi210();
        let grid = projection_grid();
        let index = grid.index();
        let points = grid.points();
        let plan = FactoredPlan::build_from_sweep(&device, &grid);
        let mut out = vec![Err("stale".to_owned())];
        for plan in [plan.as_ref(), None] {
            eval_chunk(plan, &device, &grid, &index, 0..index.len(), &mut out);
            assert_eq!(out.len(), points.len());
            for (p, r) in points.iter().zip(&out) {
                let naive = eval_grid_point(&device, *p, grid.batch, grid.method, grid.workload);
                assert_eq!(r.as_ref().unwrap(), &naive);
            }
        }
        // A plan is never read through another grid's ranks: the naive
        // kernel evaluates that grid's own points.
        let other = GridSweep {
            flop_vs_bw: vec![2.0, 1.0],
            ..projection_grid()
        };
        let other_index = other.index();
        eval_chunk(
            plan.as_ref(),
            &device,
            &other,
            &other_index,
            0..other_index.len(),
            &mut out,
        );
        for (p, r) in other.points().iter().zip(&out) {
            let naive = eval_grid_point(&device, *p, other.batch, other.method, other.workload);
            assert_eq!(r.as_ref().unwrap(), &naive);
        }
        // A point that panics degrades that point, not the chunk: the
        // simulation engine rejects pipeline stages.
        let sim = GridSweep {
            hs: vec![4096],
            sls: vec![2048],
            tps: vec![4],
            flop_vs_bw: vec![1.0],
            stages: vec![1, 2],
            method: Method::Simulation,
            ..projection_grid()
        };
        eval_chunk(None, &device, &sim, &sim.index(), 0..2, &mut out);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
    }

    /// The rank path against the naive kernel, bit for bit, for every
    /// workload, on legacy and extended grids with a duplicated ratio;
    /// chunks of 1 and 7 points straddle every ratio and triple
    /// boundary, and 4,096 takes the whole grid as one chunk.
    #[test]
    fn eval_range_is_bit_identical_to_naive_for_every_workload() {
        let device = DeviceSpec::mi210();
        for workload in [Workload::Training, Workload::Prefill, Workload::Decode] {
            for grid in [projection_grid(), extended_grid()] {
                let grid = GridSweep {
                    flop_vs_bw: vec![2.0, 1.0, 2.0],
                    workload,
                    ..grid
                };
                let index = grid.index();
                let plan = FactoredPlan::build_from_sweep(&device, &grid).unwrap();
                let naive: Vec<(u64, u64)> = grid
                    .points()
                    .into_iter()
                    .map(|p| {
                        let v = eval_grid_point(&device, p, grid.batch, grid.method, workload);
                        (v.0.to_bits(), v.1.to_bits())
                    })
                    .collect();
                for chunk_size in [1, 7, 4096] {
                    let mut ranked = Vec::new();
                    let mut out = PointResults::new();
                    for c in 0..index.chunk_count(chunk_size) {
                        let ranks = index.chunk_ranks(c, chunk_size);
                        eval_chunk(Some(&plan), &device, &grid, &index, ranks, &mut out);
                        ranked.extend(out.iter().map(|r| {
                            let v = r.as_ref().unwrap();
                            (v.0.to_bits(), v.1.to_bits())
                        }));
                    }
                    assert_eq!(ranked, naive, "{workload} at chunk {chunk_size}: {grid:?}");
                }
            }
        }
    }

    /// A cursor's digits and the positions hashing its point finds
    /// combine to the same bits — on random grids with repeated values on
    /// every axis, filtered `(experts, top_k)` pairs, pruned triples and
    /// single-value axes, where the two positions of a repeated value
    /// differ.
    #[test]
    fn cursor_digits_index_the_cells_resolve_finds() {
        let device = DeviceSpec::mi210();
        twocs_testkit::cases(24, |rng| {
            let sweep = crate::grid::tests::arbitrary_sweep(rng);
            let Some(plan) = FactoredPlan::build_from_sweep(&device, &sweep) else {
                assert!(sweep.index().is_empty(), "{sweep:?}");
                return;
            };
            let mut cursor = plan.index.cursor(0);
            while cursor.rank() < plan.index.len() {
                let p = cursor.point();
                let resolved = plan.resolve(p).expect("a grid point resolves");
                assert_eq!(
                    bits(plan.combine(cursor.cell(), p)),
                    bits(plan.combine(resolved, p)),
                    "rank {} of {sweep:?}",
                    cursor.rank()
                );
                cursor.advance();
            }
        });
    }

    fn bits((serialized, overlap): (f64, f64)) -> (u64, u64) {
        (serialized.to_bits(), overlap.to_bits())
    }

    /// The plan against the naive kernel on random grids that repeat
    /// values on every axis, for every workload: chunked rank evaluation
    /// at random chunk sizes, and `eval_batch` on the points shuffled.
    #[test]
    fn plan_matches_naive_on_grids_with_repeated_values() {
        let device = DeviceSpec::mi210();
        let bits_of = |out: &PointResults| -> Vec<Result<(u64, u64), String>> {
            out.iter().map(|r| r.clone().map(bits)).collect()
        };
        twocs_testkit::cases(80, |rng| {
            for workload in [Workload::Training, Workload::Prefill, Workload::Decode] {
                let sweep = GridSweep {
                    workload,
                    ..crate::grid::tests::arbitrary_sweep(rng)
                };
                let Some(plan) = FactoredPlan::build_from_sweep(&device, &sweep) else {
                    assert!(sweep.index().is_empty(), "{sweep:?}");
                    continue;
                };
                let index = sweep.index();
                let chunk_size = rng.usize_in(1..index.len() + 1);
                let (mut planned, mut naive) = (Vec::new(), Vec::new());
                let mut out = PointResults::new();
                for c in 0..index.chunk_count(chunk_size) {
                    let ranks = index.chunk_ranks(c, chunk_size);
                    eval_chunk(
                        Some(&plan),
                        &device,
                        &sweep,
                        &index,
                        ranks.clone(),
                        &mut out,
                    );
                    planned.extend(bits_of(&out));
                    eval_chunk(None, &device, &sweep, &index, ranks, &mut out);
                    naive.extend(bits_of(&out));
                }
                assert_eq!(
                    planned, naive,
                    "{workload} at chunk {chunk_size}: {sweep:?}"
                );

                let mut order: Vec<usize> = (0..index.len()).collect();
                rng.shuffle(&mut order);
                let points: Vec<GridPoint> = order.iter().map(|&i| index.point(i)).collect();
                plan.eval_batch(&points, &mut out);
                for (&i, r) in order.iter().zip(bits_of(&out)) {
                    assert_eq!(r, naive[i], "{workload} rank {i}: {sweep:?}");
                }
            }
        });
    }
}
