//! Byte-identity property tests for the extended sweep axes (MoE
//! experts/top-k, pipeline stages/micro-batches, sequence parallelism)
//! and the prefill/decode inference workloads.
//!
//! The contract is the same one `planner_batch.rs` pins for the legacy
//! axes: `FactoredPlan::eval_batch` must be bit-identical to scalar
//! `eval`, which must be bit-identical to the naive reference
//! `eval_grid_point`, for *every* randomly drawn grid over the new axes
//! — the per-axis sub-expression tables are an optimization, never a
//! semantic.

use twocs_core::serialized::Method;
use twocs_core::sweep::{
    eval_chunk, eval_grid_point, set_parallelism, FactoredPlan, GridPoint, GridSweep, PointResults,
    Workload,
};
use twocs_hw::DeviceSpec;
use twocs_testkit::{cases, Rng};

fn bits(v: (f64, f64)) -> (u64, u64) {
    (v.0.to_bits(), v.1.to_bits())
}

/// Draw a random grid that exercises the extended axes: each axis list
/// is a random subset (always including 1, the legacy value, so every
/// grid mixes legacy and extended points in one plan).
fn random_axis_grid(rng: &mut Rng) -> GridSweep {
    fn axis(rng: &mut Rng, choices: &[u64]) -> Vec<u64> {
        let mut values = vec![1];
        for _ in 0..rng.usize_in(1..3) {
            let v = *rng.choose(choices);
            if !values.contains(&v) {
                values.push(v);
            }
        }
        values
    }
    let experts = axis(rng, &[2, 4, 8, 16]);
    let workload = *rng.choose(&[Workload::Training, Workload::Prefill, Workload::Decode]);
    GridSweep {
        hs: vec![4096, 16_384],
        sls: vec![2048],
        tps: vec![4, 32],
        flop_vs_bw: vec![1.0, *rng.choose(&[2.0, 4.0])],
        batch: 1,
        method: Method::Projection,
        experts,
        top_ks: axis(rng, &[2, 4]),
        stages: axis(rng, &[2, 4, 8]),
        micro_batches: axis(rng, &[2, 4, 16]),
        sps: axis(rng, &[2, 4, 8]),
        workload,
    }
}

/// Property: for random grids over the new axes and all three workloads,
/// every chunking of a shuffled copy of the grid through `eval_batch`
/// is bit-identical to scalar `eval` and to the naive reference.
#[test]
fn extended_axis_batches_are_bit_identical_to_the_naive_reference() {
    let device = DeviceSpec::mi210();
    cases(24, |rng| {
        let grid = random_axis_grid(rng);
        let mut points = grid.points();
        assert!(
            points.iter().any(|p| !p.axes_default()),
            "random grid must contain extended points"
        );
        let plan = FactoredPlan::build_from_sweep(&device, &grid)
            .expect("extended projection grids are factorable");
        let mut out = PointResults::new();
        // The executors' rank path, at a random chunk size.
        let index = grid.index();
        let chunk_size = rng.usize_in(1..9);
        for c in 0..index.chunk_count(chunk_size) {
            let ranks = index.chunk_ranks(c, chunk_size);
            eval_chunk(Some(&plan), &device, &grid, &index, ranks.clone(), &mut out);
            for (p, r) in points[ranks].iter().zip(&out) {
                let rank = *r.as_ref().expect("valid grid point");
                assert_eq!(bits(plan.eval(*p)), bits(rank), "scalar vs rank {p:?}");
            }
        }
        rng.shuffle(&mut points);
        let mut offset = 0;
        while offset < points.len() {
            let take = rng.usize_in(1..9).min(points.len() - offset);
            let chunk = &points[offset..offset + take];
            plan.eval_batch(chunk, &mut out);
            assert_eq!(out.len(), take);
            for (p, r) in chunk.iter().zip(&out) {
                let batch = *r.as_ref().expect("valid grid point");
                assert_eq!(bits(plan.eval(*p)), bits(batch), "scalar vs batch {p:?}");
                let naive = eval_grid_point(&device, *p, grid.batch, grid.method, grid.workload);
                assert_eq!(bits(naive), bits(batch), "naive vs batch {p:?}");
            }
            offset += take;
        }
    });
}

/// Property: plan builds price their per-ratio groups on the calling
/// thread's budget, and the budget is invisible in the results. For
/// random multi-ratio extended grids under every workload, plans built
/// serially and on four threads evaluate bit-identically to each other
/// and to the naive reference, and a flop-vs-bw grid keys its axis
/// tables by exactly one network.
#[test]
fn parallel_plan_builds_are_bit_identical_to_serial_and_naive() {
    let device = DeviceSpec::mi210();
    for workload in [Workload::Training, Workload::Prefill, Workload::Decode] {
        cases(4, |rng| {
            let mut grid = GridSweep {
                workload,
                ..random_axis_grid(rng)
            };
            let mut ratios = vec![1.0];
            for _ in 0..rng.usize_in(2..6) {
                let r = *rng.choose(&[1.05, 2.0, 3.0, 4.0, 7.5, 10.99]);
                if !ratios.contains(&r) {
                    ratios.push(r);
                }
            }
            grid.flop_vs_bw = ratios;
            let points = grid.points();
            let plans: Vec<FactoredPlan> = [1, 4]
                .into_iter()
                .map(|jobs| {
                    set_parallelism(jobs);
                    let plan = FactoredPlan::build_from_sweep(&device, &grid);
                    set_parallelism(1);
                    plan
                })
                .map(|plan| plan.expect("extended projection grids are factorable"))
                .collect();
            let mut reference = PointResults::new();
            plans[0].eval_batch(&points, &mut reference);
            for plan in &plans {
                assert_eq!(plan.ratios(), grid.flop_vs_bw.len());
                assert_eq!(plan.networks(), 1, "one network row of axis cells");
                let mut out = PointResults::new();
                plan.eval_batch(&points, &mut out);
                for (p, (a, b)) in points.iter().zip(reference.iter().zip(&out)) {
                    let (a, b) = (*a.as_ref().unwrap(), *b.as_ref().unwrap());
                    assert_eq!(bits(a), bits(b), "serial vs parallel {p:?}");
                }
            }
            // The naive kernel is slow in debug builds: check a sample.
            for _ in 0..24 {
                let i = rng.usize_in(0..points.len());
                let naive =
                    eval_grid_point(&device, points[i], grid.batch, grid.method, grid.workload);
                let planned = *reference[i].as_ref().unwrap();
                assert_eq!(bits(naive), bits(planned), "naive vs plan {:?}", points[i]);
            }
        });
    }
}

/// Legacy points inside an extended plan still produce the exact pre-axis
/// bytes: the plan's axis tables must not perturb the default-axes path.
#[test]
fn legacy_points_in_an_extended_plan_keep_legacy_bytes() {
    let device = DeviceSpec::mi210();
    let legacy = GridSweep {
        hs: vec![4096, 16_384],
        sls: vec![2048],
        tps: vec![4, 32],
        flop_vs_bw: vec![1.0, 4.0],
        batch: 1,
        method: Method::Projection,
        ..GridSweep::default()
    };
    let extended = GridSweep {
        experts: vec![1, 8],
        top_ks: vec![1, 2],
        stages: vec![1, 4],
        ..legacy.clone()
    };
    let legacy_points = legacy.points();
    let plan = FactoredPlan::build_from_sweep(&device, &extended).expect("factorable");
    for p in &legacy_points {
        assert!(p.axes_default());
        let reference = eval_grid_point(&device, *p, legacy.batch, legacy.method, legacy.workload);
        assert_eq!(bits(reference), bits(plan.eval(*p)), "legacy point {p:?}");
    }
}

/// Malformed axis values (top_k > experts, zero stages) degrade to
/// per-point errors through the scalar fallback, exactly like malformed
/// legacy points — and the naive chunk path agrees.
#[test]
fn malformed_axis_points_fall_back_to_per_point_errors() {
    let device = DeviceSpec::mi210();
    let grid = GridSweep {
        hs: vec![4096],
        sls: vec![2048],
        tps: vec![4, 16],
        flop_vs_bw: vec![1.0],
        batch: 1,
        method: Method::Projection,
        experts: vec![1, 4],
        top_ks: vec![1, 2],
        ..GridSweep::default()
    };
    let points = grid.points();
    let plan = FactoredPlan::build_from_sweep(&device, &grid).expect("factorable");
    let good = points[0];
    for bad in [
        GridPoint {
            experts: 2,
            top_k: 4,
            ..GridPoint::new(4096, 2048, 4, 1.0)
        },
        GridPoint {
            stages: 0,
            ..GridPoint::new(4096, 2048, 4, 1.0)
        },
        GridPoint {
            micro_batches: 0,
            stages: 2,
            ..GridPoint::new(4096, 2048, 4, 1.0)
        },
        GridPoint {
            sp: 0,
            ..GridPoint::new(4096, 2048, 4, 1.0)
        },
    ] {
        let chunk = [good, bad, good];
        let mut out = PointResults::new();
        plan.eval_batch(&chunk, &mut out);
        assert_eq!(out.len(), 3);
        assert!(out[1].is_err(), "malformed axes must error: {bad:?}");
        let reference = eval_grid_point(&device, good, grid.batch, grid.method, grid.workload);
        assert_eq!(bits(reference), bits(*out[0].as_ref().unwrap()));
        assert_eq!(bits(reference), bits(*out[2].as_ref().unwrap()));
    }
}

/// The simulation engine models the dense TP training iteration only:
/// extended points and non-training workloads must surface as per-point
/// errors (not aborts) through the chunk entry point.
#[test]
fn simulation_method_rejects_extended_points_per_point() {
    let device = DeviceSpec::mi210();
    // Rank 0 is the legacy point, rank 1 has two pipeline stages.
    let mut sweep = GridSweep {
        hs: vec![4096],
        sls: vec![2048],
        tps: vec![4],
        flop_vs_bw: vec![1.0],
        stages: vec![1, 2],
        method: Method::Simulation,
        ..GridSweep::default()
    };
    assert!(FactoredPlan::build_from_sweep(&device, &sweep).is_none());
    let index = sweep.index();
    assert_eq!(index.len(), 2);
    let mut out = PointResults::new();
    eval_chunk(None, &device, &sweep, &index, 0..2, &mut out);
    assert!(out[0].is_ok(), "legacy point simulates fine");
    assert!(out[1].is_err(), "extended point must error under sim");
    sweep.workload = Workload::Decode;
    eval_chunk(None, &device, &sweep, &index, 0..1, &mut out);
    assert!(out[0].is_err(), "decode workload must error under sim");
}
