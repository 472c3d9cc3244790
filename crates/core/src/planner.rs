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
//! every point; [`FactoredPlan`] builds it once per distinct table cell
//! and turns evaluation into `O(Σ axis sizes + points × combine)`, where
//! the combine is one [`PointTerms`] assembly.
//!
//! The tables are laid out **struct-of-arrays**: flat `Vec<f64>` columns
//! indexed by `(shape, ratio, tp)` (see [`FactoredPlan::build_from_sweep`]).
//! The plan keeps the [`GridIndex`] it was built from, and with it the
//! dense cell of every triple, ratio and axis-tuple position of that
//! grid. [`FactoredPlan::eval_range`] therefore evaluates a chunk as a
//! rank range in one loop: a [`GridCursor`](crate::grid::GridCursor)
//! steps through the ranks, its digits index the columns through those
//! maps, and its point feeds the combine — no point list, no hashing,
//! zero per-point allocation and no per-point `catch_unwind`. Hashing a
//! point's axis values ([`FactoredPlan::eval_batch`]) is left to
//! arbitrary points, outside any executor. The expensive
//! sub-expressions (the projected compute and TP all-reduce times, or
//! the inference iteration's, and the slack-ROI profile behind the
//! overlap percentage) are filled at build time, once per distinct table
//! cell, with one [`Profiler`] per evolved device. The per-ratio groups
//! of cells are independent, so a build prices them on the calling
//! thread's [`parallelism`] budget.
//!
//! **Bit-identity is the contract**: the plan prices each cell with the
//! *same* calls the naive [`eval_grid_point`] path makes per point
//! (`ProjectionModel::projected_compute` and `serialized_ar_time`, which
//! `ProjectionModel::project` is made of, `InferenceIteration::model`,
//! [`axis_costs`] and `overlap_pct`), and both paths assemble the
//! serialized fraction with the one [`PointTerms::serialized_pct`], so
//! they produce bit-equal `f64`s and byte-identical CSV on any grid.
//! That is what lets local, serve, and distributed executors use the
//! plan without a protocol or output change.
//!
//! [`Method::Simulation`] runs the discrete-event engine per point —
//! there is nothing axis-separable to hoist — so simulation grids have
//! no plan, and [`eval_chunk`], the one place that decides between the
//! two paths, evaluates them naively.

use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::grid::GridIndex;
use crate::inference::InferenceIteration;
use crate::overlapped::overlap_pct_with;
use crate::serialized::{projection_baseline, sweep_hyper, Method};
use crate::sweep::{
    axis_costs, eval_grid_point, panic_message, parallelism, run_tasks_labeled, AxisCosts,
    GridPoint, GridSweep, PointResults, PointTerms, Workload,
};
use twocs_hw::network::NetworkSpec;
use twocs_hw::{DeviceSpec, HwEvolution};
use twocs_opmodel::{Profiler, ProjectionModel};
use twocs_transformer::Hyperparams;

/// Struct-of-arrays tables for one sweep: every expensive
/// sub-expression is computed once per distinct table cell at build
/// time, and [`FactoredPlan::eval_range`] assembles each point of a rank
/// range from flat `f64` column reads plus the cheap shared combine.
///
/// Layout: dense indices number the distinct ratios (duplicates in the
/// ratio list share one), `(H, SL)` shapes, TP degrees and axis tuples
/// of the sweep, in first-seen order. `triple_cells`, `ratio_cells` and
/// `axis_cells` map each position of the plan's [`GridIndex`] — a
/// rank's digits — to those indices; the hash maps do the same for
/// arbitrary points ([`FactoredPlan::eval_batch`]). The triple
/// tables (`compute`, `tp_comm`, `overlap`, `filled`) are flat vectors
/// indexed `(si * ratios + ri) * tps + ti`, filled only for the cells
/// that actually occur (the grid prunes unrealistic `(H, TP)` pairs, so
/// the cross product has holes). The axis table (`axis`) is keyed by the
/// evolved device's *network*, not its ratio — [`axis_costs`] reads
/// nothing else of the device, and flop-vs-bw evolution never changes
/// the network — so it is indexed `(si * networks + ni) * axes + ai`,
/// with `ratio_net` mapping each ratio to its network index.
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
    /// [`Self::eval_range`] evaluates.
    index: GridIndex,
    /// Dense `(shape, tp)` cell per [`GridIndex::triples`] position.
    triple_cells: Vec<(usize, usize)>,
    /// Dense ratio per [`GridIndex::ratios`] position (duplicate ratios
    /// share one).
    ratio_cells: Vec<usize>,
    /// Dense axis tuple per [`GridIndex::axis_tuples`] position.
    axis_cells: Vec<usize>,
    /// Distinct flop-vs-bw ratios (by bit pattern), first-seen order.
    ratio_idx: HashMap<u64, usize>,
    /// Distinct `(H, SL)` shapes, first-seen order.
    shape_idx: HashMap<(u64, u64), usize>,
    /// Distinct TP degrees, first-seen order.
    tp_idx: HashMap<u64, usize>,
    /// Distinct `(experts, top_k, stages, micro_batches, sp)` axis
    /// tuples, first-seen order.
    axis_idx: HashMap<(u64, u64, u64, u64, u64), usize>,
    /// Dense network index per ratio index.
    ratio_net: Vec<usize>,
    /// Number of distinct evolved networks across the ratios.
    networks: usize,
    /// Sweep hyperparameters per shape.
    hypers: Vec<Hyperparams>,
    /// TP degree per dense TP index.
    tps: Vec<u64>,
    /// [`PointTerms::compute`] per filled triple.
    compute: Vec<f64>,
    /// [`PointTerms::tp_comm`] per filled triple.
    tp_comm: Vec<f64>,
    /// Overlapped-communication percentage per filled triple.
    overlap: Vec<f64>,
    /// Whether a triple cell survives the grid's pruning; unfilled
    /// cells hold zeros and resolve to the naive fallback.
    filled: Vec<bool>,
    /// [`PointTerms::axis`] per `(shape, network, axis)` cell — indexed
    /// `(si * networks + ni) * axes + ai`. A sweep crosses every shape
    /// with every axis tuple, so every cell is priced.
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
            let mut axes = PlanAxes {
                batch: sweep.batch,
                workload: sweep.workload,
                ..PlanAxes::default()
            };
            let ratio_cells: Vec<usize> = index
                .ratios()
                .iter()
                .map(|&ratio| axes.add_ratio(device, ratio))
                .collect();
            let triple_cells: Vec<(usize, usize)> = index
                .triples()
                .iter()
                .map(|&(h, sl, tp)| axes.add_triple(h, sl, tp))
                .collect();
            let axis_cells: Vec<usize> = index
                .axis_tuples()
                .map(|(experts, top_k, stages, micro_batches, sp)| {
                    axes.add_axis(GridPoint {
                        experts,
                        top_k,
                        stages,
                        micro_batches,
                        sp,
                        ..GridPoint::new(256, 1, 1, 1.0)
                    })
                })
                .collect();
            // A sweep is a cross product: every surviving triple occurs
            // with every ratio (the pruned `(H, TP)` pairs are the holes),
            // and every (shape, network) with every axis tuple.
            let mut cells = axes.cells();
            for &(si, ti) in &triple_cells {
                for ri in 0..axes.devices.len() {
                    axes.fill_triple(&mut cells, si, ri, ti);
                }
            }
            let priced = axes.price_tables(&cells, parallelism())?;
            twocs_obs::metrics::global()
                .counter("sweep.factored_plans")
                .inc();
            Some(Self {
                batch: axes.batch,
                workload: axes.workload,
                base_device: device.clone(),
                index,
                triple_cells,
                ratio_cells,
                axis_cells,
                ratio_idx: axes.ratio_idx,
                shape_idx: axes.shape_idx,
                tp_idx: axes.tp_idx,
                axis_idx: axes.axis_idx,
                ratio_net: axes.ratio_net,
                networks: axes.networks.len(),
                hypers: axes.hypers,
                tps: axes.tps,
                compute: priced.compute,
                tp_comm: priced.tp_comm,
                overlap: priced.overlap,
                filled: cells.filled,
                axis: priced.axis,
            })
        }))
        .ok()
        .flatten()
    }

    /// Number of distinct `(H, SL)` shapes the plan tabulated.
    #[must_use]
    pub fn shapes(&self) -> usize {
        self.hypers.len()
    }

    /// Number of distinct flop-vs-bw ratios the plan tabulated.
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

    /// Number of distinct TP degrees the plan tabulated.
    #[must_use]
    pub fn tps(&self) -> usize {
        self.tps.len()
    }

    /// Number of distinct MoE/PP/SP axis tuples the plan tabulated.
    #[must_use]
    pub fn axes(&self) -> usize {
        self.axis_idx.len()
    }

    /// The dense cell of an arbitrary point, found by hashing its axis
    /// values — or `None` for a point outside the plan's axes (or on an
    /// unfilled cell of the pruned cross product). Ranks of the plan's
    /// own grid never need this: [`Self::rank_cell`] reads the same cell
    /// off the rank's digits.
    fn resolve(&self, p: GridPoint) -> Option<Cell> {
        let cell = Cell {
            si: *self.shape_idx.get(&(p.h, p.sl))?,
            ri: *self.ratio_idx.get(&p.ratio.to_bits())?,
            ti: *self.tp_idx.get(&p.tp)?,
            ai: *self.axis_idx.get(&p.axis_key())?,
        };
        let flat = (cell.si * self.ratio_net.len() + cell.ri) * self.tps.len() + cell.ti;
        self.filled[flat].then_some(cell)
    }

    /// The dense cell of a cursor's point, from its `(triple, ratio,
    /// axis tuple)` digits through the maps recorded at build time.
    #[inline]
    fn rank_cell(&self, (t, r, a): (usize, usize, usize)) -> Cell {
        let (si, ti) = self.triple_cells[t];
        Cell {
            si,
            ri: self.ratio_cells[r],
            ti,
            ai: self.axis_cells[a],
        }
    }

    /// The combine over one filled table cell: the cell's columns as
    /// the point's [`PointTerms`], assembled by the same
    /// [`PointTerms::serialized_pct`] the naive kernel calls.
    #[inline]
    fn combine(&self, cell: Cell, p: GridPoint) -> (f64, f64) {
        let Cell { si, ri, ti, ai } = cell;
        let flat = (si * self.ratio_net.len() + ri) * self.tps.len() + ti;
        let terms = PointTerms {
            layers: self.hypers[si].layers(),
            compute: self.compute[flat],
            tp_comm: self.tp_comm[flat],
            axis: self.axis[(si * self.networks + self.ratio_net[ri]) * self.axis_idx.len() + ai],
        };
        (terms.serialized_pct(p), self.overlap[flat])
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
    /// digits give each point's table cell through the build-time maps
    /// (no hashing) and its point feeds the combine, so no point list
    /// is built and nothing allocates per point. Every rank of the
    /// plan's own grid lands on a priced cell, so nothing here needs a
    /// fallback.
    pub fn eval_range(&self, ranks: Range<usize>, out: &mut PointResults) {
        out.clear();
        let end = ranks.end.min(self.index.len());
        let start = ranks.start.min(end);
        out.reserve(end - start);
        let mut cursor = self.index.cursor(start);
        for _ in start..end {
            out.push(Ok(
                self.combine(self.rank_cell(cursor.cell()), cursor.point())
            ));
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

/// One point's dense table coordinates: shape, ratio, TP degree and
/// extended-axis tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    si: usize,
    ri: usize,
    ti: usize,
    ai: usize,
}

/// The distinct axis values a plan is built over, each in first-seen
/// order, with the per-value inputs the pricing needs.
#[derive(Default)]
struct PlanAxes {
    batch: u64,
    workload: Workload,
    ratio_idx: HashMap<u64, usize>,
    /// Evolved device per ratio — `HwEvolution` applied exactly as
    /// [`eval_grid_point`] does.
    devices: Vec<DeviceSpec>,
    /// Network index per ratio.
    ratio_net: Vec<usize>,
    /// Distinct evolved networks, first-seen order.
    networks: Vec<NetworkSpec>,
    shape_idx: HashMap<(u64, u64), usize>,
    shapes: Vec<(u64, u64)>,
    hypers: Vec<Hyperparams>,
    tp_idx: HashMap<u64, usize>,
    tps: Vec<u64>,
    axis_idx: HashMap<(u64, u64, u64, u64, u64), usize>,
    /// A representative point per axis tuple.
    axes: Vec<GridPoint>,
}

/// The triple cells a sweep occupies, grouped by ratio (`todo[ri]`,
/// first-seen order) so each evolved device runs one profiler + one
/// chunk-scoped cache session over all of its cells.
struct PlanCells {
    filled: Vec<bool>,
    todo: Vec<Vec<(usize, usize)>>,
}

/// One priced triple cell.
#[derive(Clone, Copy)]
struct TripleCell {
    compute: f64,
    tp_comm: f64,
    overlap: f64,
}

/// The expensive table columns of a [`FactoredPlan`], priced once per
/// filled cell by [`PlanAxes::price_tables`].
struct PricedTables {
    compute: Vec<f64>,
    tp_comm: Vec<f64>,
    overlap: Vec<f64>,
    axis: Vec<AxisCosts>,
}

impl PlanAxes {
    /// Register `ratio`; returns its dense index.
    fn add_ratio(&mut self, device: &DeviceSpec, ratio: f64) -> usize {
        if let Some(&ri) = self.ratio_idx.get(&ratio.to_bits()) {
            return ri;
        }
        let ri = self.devices.len();
        self.ratio_idx.insert(ratio.to_bits(), ri);
        // Mirror eval_grid_point: evolve only for ratios above 1.
        let dev = if ratio > 1.0 {
            HwEvolution::flop_vs_bw(ratio).apply(device)
        } else {
            device.clone()
        };
        let ni = match self.networks.iter().position(|n| n == dev.network()) {
            Some(ni) => ni,
            None => {
                self.networks.push(*dev.network());
                self.networks.len() - 1
            }
        };
        self.ratio_net.push(ni);
        self.devices.push(dev);
        ri
    }

    /// Register a triple; returns its dense `(shape, tp)` indices.
    fn add_triple(&mut self, h: u64, sl: u64, tp: u64) -> (usize, usize) {
        let si = *self.shape_idx.entry((h, sl)).or_insert_with(|| {
            self.shapes.push((h, sl));
            self.hypers.push(sweep_hyper(h, sl, self.batch));
            self.hypers.len() - 1
        });
        let ti = *self.tp_idx.entry(tp).or_insert_with(|| {
            self.tps.push(tp);
            self.tps.len() - 1
        });
        (si, ti)
    }

    /// Register `p`'s axis tuple; returns its dense index.
    fn add_axis(&mut self, p: GridPoint) -> usize {
        *self.axis_idx.entry(p.axis_key()).or_insert_with(|| {
            self.axes.push(p);
            self.axes.len() - 1
        })
    }

    /// Empty fill sets over these axes.
    fn cells(&self) -> PlanCells {
        PlanCells {
            filled: vec![false; self.hypers.len() * self.devices.len() * self.tps.len()],
            todo: vec![Vec::new(); self.devices.len()],
        }
    }

    fn triple_flat(&self, si: usize, ri: usize, ti: usize) -> usize {
        (si * self.devices.len() + ri) * self.tps.len() + ti
    }

    /// Mark triple cell `(si, ri, ti)` as occurring, queuing it for its
    /// ratio group on first sight.
    fn fill_triple(&self, cells: &mut PlanCells, si: usize, ri: usize, ti: usize) {
        let flat = self.triple_flat(si, ri, ti);
        if !cells.filled[flat] {
            cells.filled[flat] = true;
            cells.todo[ri].push((si, ti));
        }
    }

    /// Fill every expensive table column for the filled cells.
    ///
    /// Triple cells are grouped by ratio (`todo[ri]`); the groups are
    /// independent, so they are priced on up to `jobs` pool threads
    /// ([`run_tasks_labeled`]) and scattered back into the flat columns.
    /// A budget of 1 or a single group prices inline under the same task
    /// scopes, so logical traces do not depend on the budget. Returns
    /// `None` if a pool group panicked; an inline panic unwinds to
    /// [`FactoredPlan::build_from_sweep`], which also answers `None`.
    fn price_tables(&self, cells: &PlanCells, jobs: usize) -> Option<PricedTables> {
        let (nn, na) = (self.networks.len(), self.axes.len());
        let (batch, workload, todo) = (self.batch, self.workload, &cells.todo);
        let price_group = |ri: usize| -> Vec<TripleCell> {
            let dev = &self.devices[ri];
            let profiler = Profiler::new(dev.clone());
            // Training projects from the baseline profiled on this
            // device; prefill and decode never read it.
            let model = (workload == Workload::Training)
                .then(|| ProjectionModel::from_baseline(&projection_baseline(), dev));
            todo[ri]
                .iter()
                .map(|&(si, ti)| {
                    let ((h, sl), hyper, tp) = (self.shapes[si], &self.hypers[si], self.tps[ti]);
                    // The two halves of `ProjectionModel::project` at DP = 1.
                    let (compute, tp_comm) = match &model {
                        Some(m) => (
                            m.projected_compute(hyper, tp).0,
                            if tp > 1 {
                                m.serialized_ar_time(hyper)
                            } else {
                                0.0
                            },
                        ),
                        None => {
                            let it = InferenceIteration::model(dev, hyper, tp, workload);
                            (it.compute_per_layer, it.serialized_comm_per_layer)
                        }
                    };
                    TripleCell {
                        compute,
                        tp_comm,
                        overlap: overlap_pct_with(&profiler, h, sl * batch, tp, 4),
                    }
                })
                .collect()
        };
        let label = |ri: usize| format!("price ratio {ri}");
        let jobs = jobs.min(todo.len());
        let groups: Vec<Vec<TripleCell>> = if jobs <= 1 {
            (0..todo.len())
                .map(|ri| {
                    let _scope = twocs_obs::task_scope(ri, &label(ri));
                    price_group(ri)
                })
                .collect()
        } else {
            run_tasks_labeled(jobs, todo.len(), label, price_group)
                .into_iter()
                .map(|t| t.result.ok())
                .collect::<Option<_>>()?
        };

        let n_cells = cells.filled.len();
        let mut compute = vec![0.0; n_cells];
        let mut tp_comm = vec![0.0; n_cells];
        let mut overlap = vec![0.0; n_cells];
        for (ri, group) in groups.into_iter().enumerate() {
            for (&(si, ti), cell) in todo[ri].iter().zip(group) {
                let flat = self.triple_flat(si, ri, ti);
                compute[flat] = cell.compute;
                tp_comm[flat] = cell.tp_comm;
                overlap[flat] = cell.overlap;
            }
        }

        // Axis table: one cell per (shape, network, axis tuple), priced
        // by the same shared `axis_costs` the naive kernel calls — that
        // sharing is the bit-identity argument for the new axes. The
        // loops run in flat-index order.
        let mut axis = Vec::with_capacity(self.hypers.len() * nn * na);
        for hyper in &self.hypers {
            for net in &self.networks {
                for &p in &self.axes {
                    axis.push(axis_costs(net, hyper, p, workload));
                }
            }
        }
        Some(PricedTables {
            compute,
            tp_comm,
            overlap,
            axis,
        })
    }
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
        assert_eq!(plan.tps(), 3);
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

    /// A cursor's digits, through the build-time maps, name the same
    /// table cell that hashing its point finds — on random grids with
    /// duplicate ratios, filtered `(experts, top_k)` pairs, pruned
    /// triples and single-value axes.
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
                assert_eq!(
                    Some(plan.rank_cell(cursor.cell())),
                    plan.resolve(p),
                    "rank {} of {sweep:?}",
                    cursor.rank()
                );
                cursor.advance();
            }
        });
    }
}
