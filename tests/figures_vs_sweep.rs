//! The registry's grid figures and the sweep pipeline price the same
//! points alike.
//!
//! Every point that fig10 and moe plot survives the sweep's realism
//! pruning, so each runs as a one-point `GridSweep` through
//! `twocs_store::run` into a `Buffer`, the path `twocs sweep` and
//! `/v1/sweep` take. Each `serialized_pct` cell must equal the figure's
//! value printed at `{:.2}`. A change to the sweep kernel must therefore
//! reach the figures, and the reverse.

use twocs::analysis::experiments::{by_id, ExperimentOutput};
use twocs::analysis::serialized::Method;
use twocs::analysis::sweep::{GridSweep, LocalPool, Workload};
use twocs::analysis::{Figure, GridIndex};
use twocs::hw::DeviceSpec;
use twocs::store::{Buffer, SweepSpec, SweepStore};

fn figure(id: &str) -> Figure {
    match (by_id(id).expect("registered").run)(&DeviceSpec::mi210()) {
        ExperimentOutput::Figure(f) => f,
        _ => panic!("{id} must be one figure"),
    }
}

/// The one `serialized_pct` cell `twocs sweep --csv` prints for `grid`.
fn swept(grid: GridSweep) -> String {
    assert_eq!(
        GridIndex::new(&grid).len(),
        1,
        "the point is pruned: {grid:?}"
    );
    let device = DeviceSpec::mi210();
    let out = Buffer::default();
    let spec = SweepSpec {
        sweep: grid,
        chunk_size: 1,
        device_name: device.name().to_owned(),
        device_fingerprint: device.fingerprint(),
    };
    let store = SweepStore::create(spec, Box::new(out.clone()), None).unwrap();
    twocs::store::run(&LocalPool { jobs: 1 }, &device, store).unwrap();
    let table = GridSweep::csv_table(&String::from_utf8(out.take()).unwrap());
    let column = table.headers.iter().position(|h| h == "serialized_pct");
    table.rows[0][column.expect("a serialized_pct column")].clone()
}

#[test]
fn fig10_matches_the_simulated_sweep() {
    let fig = figure("fig10");
    assert_eq!(fig.series.len(), 4);
    for s in &fig.series {
        let (h, sl) = s
            .label
            .strip_prefix("H=")
            .and_then(|rest| rest.split_once(" SL="))
            .expect("labels read `H=<h> SL=<sl>`");
        for &(tp, y) in &s.points {
            let grid = GridSweep {
                hs: vec![h.parse().unwrap()],
                sls: vec![sl.parse().unwrap()],
                tps: vec![tp as u64],
                flop_vs_bw: vec![1.0],
                method: Method::Simulation,
                ..GridSweep::default()
            };
            assert_eq!(swept(grid), format!("{y:.2}"), "{} at TP={tp}", s.label);
        }
    }
}

#[test]
fn moe_matches_the_projected_sweep() {
    let fig = figure("moe");
    let ratios = [("flop-vs-bw 1x (today)", 1.0), ("flop-vs-bw 4x", 4.0)];
    assert_eq!(fig.series.len(), ratios.len());
    for (s, (label, ratio)) in fig.series.iter().zip(ratios) {
        assert_eq!(s.label, label);
        for &(experts, y) in &s.points {
            let experts = experts as u64;
            let grid = GridSweep {
                hs: vec![16_384],
                sls: vec![2048],
                tps: vec![16],
                flop_vs_bw: vec![ratio],
                experts: vec![experts],
                top_ks: vec![2.min(experts)],
                method: Method::Projection,
                workload: Workload::Training,
                ..GridSweep::default()
            };
            assert_eq!(
                swept(grid),
                format!("{y:.2}"),
                "{label} at {experts} experts"
            );
        }
    }
}
