//! Per-layer measurements shared by every workload's traced run.

use std::collections::HashSet;
use std::time::Instant;

use twocs::analysis::sweep::GridSweep;
use twocs::analysis::FactoredPlan;
use twocs::hw::DeviceSpec;

use crate::inputs::collapsed;
use crate::report::{clear_model_caches, Outcome};

/// Table cells a plan over `grid` prices: `(H, SL, TP) x ratio` triple
/// cells and `(H, SL) x ratio x axis tuple` axis cells.
pub fn plan_cells(grid: &GridSweep) -> (usize, usize) {
    let index = grid.index();
    let ratios = index.ratios().len();
    let shapes: HashSet<(u64, u64)> = index.triples().iter().map(|&(h, sl, _)| (h, sl)).collect();
    let axes: HashSet<_> = index.axis_tuples().collect();
    (
        index.triples().len() * ratios,
        shapes.len() * ratios * axes.len(),
    )
}

/// Cold plan-build split over `grids`: each grid is built once in full
/// and once with its extended axes collapsed to 1, with the model memo
/// caches emptied before each build. Returns `(full_s, triple_s)`
/// summed over the grids; the axis tables cost the difference.
pub fn build_split(device: &DeviceSpec, grids: &[&GridSweep]) -> (f64, f64) {
    let (mut full, mut triple) = (0.0, 0.0);
    for grid in grids {
        for (sum, g) in [(&mut full, (*grid).clone()), (&mut triple, collapsed(grid))] {
            clear_model_caches();
            let t = Instant::now();
            std::hint::black_box(FactoredPlan::build_from_sweep(device, &g));
            *sum += t.elapsed().as_secs_f64();
        }
    }
    (full, triple)
}

/// Record the planner's build counters for `grids`, with the cold split.
pub fn report_build(
    out: &mut Outcome,
    device: &DeviceSpec,
    grids: &[&GridSweep],
    build_s: f64,
    builds: usize,
) {
    let (full, triple) = build_split(device, grids);
    let (cells_triple, cells_axis) = grids
        .iter()
        .map(|g| plan_cells(g))
        .fold((0, 0), |acc, c| (acc.0 + c.0, acc.1 + c.1));
    out.set("planner.build_s", build_s);
    out.set("planner.build_triple_s", triple);
    out.set("planner.build_axis_s", (full - triple).max(0.0));
    out.set("planner.cells_triple", cells_triple as f64);
    out.set("planner.cells_axis", cells_axis as f64);
    out.set("planner.builds", builds as f64);
}

/// Count of a registry counter.
pub fn counter(name: &str) -> u64 {
    twocs::obs::metrics::global().counter(name).get()
}
