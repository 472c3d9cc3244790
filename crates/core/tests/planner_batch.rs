//! Batch-kernel contract tests: `FactoredPlan::eval_batch` must be
//! bit-identical to scalar `eval` (and hence to the naive
//! `eval_grid_point` reference) for every chunking of a grid — chunk
//! boundaries and point order are execution details, never visible in
//! the results.

use twocs_core::serialized::Method;
use twocs_core::sweep::{
    eval_chunk, eval_grid_point, FactoredPlan, GridPoint, GridSweep, PointResults,
};
use twocs_hw::DeviceSpec;
use twocs_testkit::cases;

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

fn build_plan(device: &DeviceSpec, grid: &GridSweep) -> (Vec<GridPoint>, FactoredPlan) {
    let plan =
        FactoredPlan::build_from_sweep(device, grid).expect("projection grids are factorable");
    (grid.points(), plan)
}

fn bits(v: (f64, f64)) -> (u64, u64) {
    (v.0.to_bits(), v.1.to_bits())
}

/// Property: however a shuffled copy of the grid is sliced into chunks,
/// feeding each chunk through `eval_batch` yields bit-identical values
/// to scalar `eval` point by point.
#[test]
fn eval_batch_matches_scalar_across_shuffled_chunk_boundaries() {
    let device = DeviceSpec::mi210();
    let grid = projection_grid();
    let (points, plan) = build_plan(&device, &grid);
    assert!(points.len() > 8, "grid too small to exercise chunking");
    cases(16, |rng| {
        let mut shuffled = points.clone();
        rng.shuffle(&mut shuffled);
        let mut results = PointResults::new();
        let mut chunk_out = PointResults::new();
        let mut offset = 0;
        while offset < shuffled.len() {
            let take = rng.usize_in(1..9).min(shuffled.len() - offset);
            plan.eval_batch(&shuffled[offset..offset + take], &mut chunk_out);
            assert_eq!(chunk_out.len(), take);
            results.append(&mut chunk_out);
            offset += take;
        }
        for (p, r) in shuffled.iter().zip(&results) {
            let batch = *r.as_ref().expect("valid grid point");
            assert_eq!(bits(plan.eval(*p)), bits(batch), "point {p:?}");
        }
    });
}

/// The batch path agrees bit-for-bit with the naive reference kernel —
/// the transitive form of the byte-identity contract.
#[test]
fn eval_batch_matches_the_naive_reference_kernel() {
    let device = DeviceSpec::mi210();
    let grid = projection_grid();
    let (points, plan) = build_plan(&device, &grid);
    let mut out = PointResults::new();
    plan.eval_batch(&points, &mut out);
    for (p, r) in points.iter().zip(&out) {
        let naive = eval_grid_point(&device, *p, grid.batch, grid.method, grid.workload);
        assert_eq!(bits(naive), bits(*r.as_ref().unwrap()), "point {p:?}");
    }
}

#[test]
fn empty_chunk_yields_empty_results_and_clears_stale_output() {
    let device = DeviceSpec::mi210();
    let grid = projection_grid();
    let (_, plan) = build_plan(&device, &grid);
    let mut out = PointResults::new();
    out.push(Err("stale entry from a previous lease".to_owned()));
    plan.eval_batch(&[], &mut out);
    assert!(out.is_empty(), "eval_batch must clear its output buffer");
    let index = grid.index();
    for plan in [Some(&plan), None] {
        for ranks in [3..3, index.len()..index.len() + 4] {
            out.push(Err("stale entry from a previous lease".to_owned()));
            eval_chunk(plan, &device, &grid, &index, ranks, &mut out);
            assert!(out.is_empty(), "eval_chunk must clear its output buffer");
        }
    }
}

#[test]
fn single_point_chunks_match_scalar_eval() {
    let device = DeviceSpec::mi210();
    let grid = projection_grid();
    let (points, plan) = build_plan(&device, &grid);
    let mut out = PointResults::new();
    for p in &points {
        plan.eval_batch(std::slice::from_ref(p), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(bits(plan.eval(*p)), bits(*out[0].as_ref().unwrap()));
    }
}

/// A chunk mixing well-formed and malformed points degrades exactly the
/// malformed ones to per-point errors through the scalar fallback; the
/// neighbours stay bit-identical to the naive kernel.
#[test]
fn malformed_points_in_a_chunk_fall_back_to_scalar_per_point() {
    let device = DeviceSpec::mi210();
    let grid = projection_grid();
    let (points, plan) = build_plan(&device, &grid);
    let good_a = points[0];
    let good_b = points[points.len() - 1];
    // h not a multiple of 256: the naive path panics for this point.
    let bad = GridPoint::new(100, 2048, 4, 1.0);
    let chunk = [good_a, bad, good_b];
    let mut out = PointResults::new();
    plan.eval_batch(&chunk, &mut out);
    assert_eq!(out.len(), 3);
    assert_eq!(
        bits(eval_grid_point(
            &device,
            good_a,
            grid.batch,
            grid.method,
            grid.workload
        )),
        bits(*out[0].as_ref().unwrap())
    );
    assert!(out[1].is_err(), "malformed point must error, not abort");
    assert_eq!(
        bits(eval_grid_point(
            &device,
            good_b,
            grid.batch,
            grid.method,
            grid.workload
        )),
        bits(*out[2].as_ref().unwrap())
    );
}
