//! End-to-end sweep performance benchmark, emitting `BENCH_sweep.json`.
//!
//! Times the fig10-class projection grid (26 points after realism
//! pruning) through every execution surface:
//!
//! * **local sweeps** — `naive` is an in-bin oracle (`run_tasks` over
//!   `eval_grid_point`, then `GridSweep::tabulate`); `factored` is
//!   `GridSweep::run`, the factored per-axis plan. No model-side state
//!   outlives a sweep, so the `sweep_cold` and `sweep_warm` groups time
//!   the same work: `sweep_cold` runs first in a fresh process, and the
//!   gated `sweep_warm` repeats it;
//! * **the serve path** — an in-process `GET /v1/sweep` through
//!   `twocs_serve::handlers::handle`;
//! * **distributed-chunk evaluation** — a worker's whole job for the
//!   grid: `FactoredPlan::build_from_sweep` once, then every lease-sized
//!   chunk through `twocs_core::eval_chunk`;
//! * **plan build** — `FactoredPlan::build_from_sweep` on the
//!   1,024,000-point EXPERIMENTS.md scale grid (200 flop-vs-bw ratios):
//!   the cost a million-point sweep pays before its first row, pricing
//!   each distinct triple and axis cell of the plan once;
//! * **the sweep recorder's kernels** — `render_4096` is
//!   `StreamSink::accept` of one 4,096-point chunk of that scale grid
//!   into `io::sink()` (the sweep row writer), and `crc_1mib` the
//!   journal's record CRC over 1 MiB.
//!
//! Before timing anything it asserts the planner contract: the naive
//! oracle and the factored CSV bodies must be byte-identical. The emitted JSON
//! records per-benchmark mean/min/max nanoseconds plus the derived
//! `warm_speedup_factored_vs_naive`, the number the CI smoke gate and
//! README performance section quote.
//!
//! Usage: `sweep_perf [--out PATH] [--jobs N] [--smoke]
//! [--baseline PATH [--max-regress PCT]]`
//! (`--smoke` collects fewer samples for CI; the JSON shape is
//! unchanged. `--baseline` compares this run's `sweep_warm`,
//! `dist_chunks`, `plan_cold` and `record` means against a committed
//! `BENCH_sweep.json` and exits nonzero when any is more than
//! `--max-regress` percent — default 20 — slower: the CI
//! perf-regression gate.)

use std::time::Duration;

use twocs_bench::harness::{BenchResult, Criterion};
use twocs_core::serialized::Method;
use twocs_core::sweep::{
    eval_chunk, eval_grid_point, run_tasks, set_parallelism, FactoredPlan, GridSweep,
};
use twocs_core::{PointResults, Table};
use twocs_hw::DeviceSpec;
use twocs_serve::handlers::{handle, HandlerConfig};
use twocs_serve::http::Request;
use twocs_store::{StreamSink, DEFAULT_BUFFER_POINTS};

/// The fig10-class benchmark grid: the paper's studied hidden sizes and
/// sequence lengths across the full TP ladder on today's hardware.
fn bench_grid() -> GridSweep {
    GridSweep {
        hs: vec![4096, 16_384, 65_536],
        sls: vec![2048, 4096],
        tps: vec![4, 8, 16, 32, 64, 128, 256],
        flop_vs_bw: vec![1.0],
        // Exercise the MoE and pipeline axis tables: 4x the legacy point
        // count, so the perf gate holds on the enlarged grid.
        experts: vec![1, 8],
        stages: vec![1, 2],
        batch: 1,
        method: Method::Projection,
        ..GridSweep::default()
    }
}

/// The EXPERIMENTS.md scale recipe's 1,024,000-point grid: every
/// pruned (H, SL, TP) shape crossed with the 200 flop-vs-bw ratios
/// `seq 1.05 0.05 11.00` prints and the MoE/PP/SP axes.
fn scale_grid() -> GridSweep {
    GridSweep {
        hs: vec![1024, 2048, 4096, 8192, 16_384, 32_768],
        sls: vec![1024, 2048, 4096, 8192],
        tps: vec![4, 8, 16, 32, 64],
        flop_vs_bw: (0..200).map(|i| f64::from(105 + 5 * i) / 100.0).collect(),
        experts: vec![8, 16, 32, 64],
        top_ks: vec![1, 2],
        stages: vec![1, 4],
        micro_batches: vec![1, 8],
        sps: vec![1, 2],
        method: Method::Projection,
        ..GridSweep::default()
    }
}

/// The naive oracle: every point through the full per-point model on
/// the pool, then the shared table renderer.
fn naive_sweep(grid: &GridSweep, device: &DeviceSpec, jobs: usize) -> Table {
    let points = grid.points();
    let results: PointResults = run_tasks(jobs, points.len(), |i| {
        eval_grid_point(device, points[i], grid.batch, grid.method, grid.workload)
    })
    .into_iter()
    .map(|t| t.result)
    .collect();
    GridSweep::tabulate(&points, &results)
}

/// `xs` rendered and joined by `sep`.
fn join(xs: &[u64], sep: &str) -> String {
    xs.iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(sep)
}

fn sweep_query(grid: &GridSweep, jobs: usize) -> String {
    let join = |xs: &[u64]| join(xs, ",");
    format!(
        "h={}&sl={}&tp={}&flop_vs_bw=1&experts={}&top_k={}&stages={}&micro_batches={}&sp={}\
         &method=proj&jobs={jobs}&format=csv",
        join(&grid.hs),
        join(&grid.sls),
        join(&grid.tps),
        join(&grid.experts),
        join(&grid.top_ks),
        join(&grid.stages),
        join(&grid.micro_batches),
        join(&grid.sps),
    )
}

fn serve_once(cfg: &HandlerConfig, raw_query: &str) -> String {
    // `HandlerConfig::default()` carries no response cache, so this
    // keeps benchmarking the sweep engine, not a body memcpy.
    let req = Request::get("/v1/sweep", raw_query);
    let resp = handle(&req, cfg);
    assert_eq!(resp.status, 200, "/v1/sweep failed: {}", resp.body);
    resp.body
}

#[derive(Debug)]
struct Options {
    out: String,
    jobs: usize,
    smoke: bool,
    baseline: Option<String>,
    max_regress: f64,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        out: "BENCH_sweep.json".to_owned(),
        jobs: 4,
        smoke: false,
        baseline: None,
        max_regress: 20.0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                opts.out = args.next().ok_or("--out requires a path")?;
            }
            "--jobs" => {
                let raw = args.next().ok_or("--jobs requires a value")?;
                opts.jobs = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--jobs {raw}: expected a positive integer"))?;
            }
            "--smoke" => opts.smoke = true,
            "--baseline" => {
                opts.baseline = Some(args.next().ok_or("--baseline requires a path")?);
            }
            "--max-regress" => {
                let raw = args.next().ok_or("--max-regress requires a percentage")?;
                opts.max_regress = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|p| p.is_finite() && *p >= 0.0)
                    .ok_or_else(|| {
                        format!("--max-regress {raw}: expected a non-negative percentage")
                    })?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: sweep_perf [--out PATH] [--jobs N] [--smoke] \
                     [--baseline PATH [--max-regress PCT]]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Benchmark groups the CI regression gate compares against the
/// committed baseline: the warm factored/naive sweeps, the
/// distributed-chunk path, the scale-grid plan build (the cost before a
/// million-point sweep's first row), and the recorder's row-rendering
/// and CRC kernels. The small-grid cold sweeps
/// and serve numbers are too machine-sensitive to gate on.
const GATED_GROUPS: &[&str] = &["sweep_warm", "dist_chunks", "plan_cold", "record"];

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sweep_perf: {e}");
            std::process::exit(2);
        }
    };
    let grid = bench_grid();
    let device = DeviceSpec::mi210();
    let points = grid.points();
    let jobs = opts.jobs;
    eprintln!(
        "sweep_perf: {} grid points, {jobs} worker thread(s){}",
        points.len(),
        if opts.smoke { ", smoke mode" } else { "" }
    );

    // The planner contract, checked before any timing: identical CSV
    // bytes from the naive oracle and the factored paths, locally and
    // over serve.
    let naive_csv = naive_sweep(&grid, &device, jobs).to_csv();
    let factored_csv = grid.run(&device, jobs).0.to_csv();
    assert_eq!(
        naive_csv, factored_csv,
        "factored planner must be byte-identical to naive"
    );
    let cfg = HandlerConfig::default();
    let query = sweep_query(&grid, jobs);
    assert_eq!(
        serve_once(&cfg, &query).trim_end(),
        naive_csv.trim_end(),
        "serve body must match the local CSV"
    );
    eprintln!("sweep_perf: byte-identity holds (local naive == local factored == serve)");

    // Smoke mode still collects enough samples for a usable mean: the
    // perf gate compares smoke means against the committed full-run
    // baseline, and 3x400ms samples were noisy enough to flake a 20%
    // budget on loaded runners.
    let (samples, budget) = if opts.smoke {
        (5, Duration::from_secs(1))
    } else {
        (12, Duration::from_secs(4))
    };

    let mut c = Criterion::default();
    {
        let mut group = c.benchmark_group("sweep_cold");
        group.sample_size(samples).measurement_time(budget);
        group.bench_function("naive", |b| {
            b.iter(|| std::hint::black_box(naive_sweep(&grid, &device, jobs)));
        });
        group.bench_function("factored", |b| {
            b.iter(|| std::hint::black_box(grid.run(&device, jobs)));
        });
        group.finish();
    }
    {
        let mut group = c.benchmark_group("sweep_warm");
        group.sample_size(samples).measurement_time(budget);
        group.bench_function("naive", |b| {
            b.iter(|| std::hint::black_box(naive_sweep(&grid, &device, jobs)));
        });
        group.bench_function("factored", |b| {
            b.iter(|| std::hint::black_box(grid.run(&device, jobs)));
        });
        group.finish();
    }
    {
        let mut group = c.benchmark_group("serve_sweep");
        group.sample_size(samples).measurement_time(budget);
        group.bench_function("factored", |b| {
            b.iter(|| std::hint::black_box(serve_once(&cfg, &query)));
        });
        group.finish();
    }
    {
        // One worker's whole job for the grid: the plan built once, then
        // every lease-sized chunk drained back to back.
        const CHUNK: usize = 8;
        let index = grid.index();
        let mut group = c.benchmark_group("dist_chunks");
        group.sample_size(samples).measurement_time(budget);
        group.bench_function("eval_chunk", |b| {
            b.iter(|| {
                let plan = FactoredPlan::build_from_sweep(&device, &grid);
                let mut out = PointResults::new();
                for chunk in 0..index.chunk_count(CHUNK) {
                    let points = index.chunk_points(chunk, CHUNK);
                    eval_chunk(plan.as_ref(), &device, &grid, &points, &mut out);
                    std::hint::black_box(&out);
                }
            });
        });
        group.finish();
    }
    {
        let scale = scale_grid();
        assert_eq!(scale.index().len(), 1_024_000, "the scale recipe grid");
        set_parallelism(jobs);
        let mut group = c.benchmark_group("plan_cold");
        group.sample_size(samples).measurement_time(budget);
        group.bench_function("1m", |b| {
            b.iter(|| std::hint::black_box(FactoredPlan::build_from_sweep(&device, &scale)));
        });
        group.finish();

        // The single recorder thread's per-chunk kernels at the
        // `sweep_1m` chunk size: row rendering, and the journal CRC.
        const CHUNK: usize = 4096;
        let index = scale.index();
        let plan = FactoredPlan::build_from_sweep(&device, &scale);
        let mut values = PointResults::new();
        eval_chunk(
            plan.as_ref(),
            &device,
            &scale,
            &index.chunk_points(0, CHUNK),
            &mut values,
        );
        let bytes: Vec<u8> = (0..1u32 << 20)
            .map(|i| (i.wrapping_mul(31) ^ i >> 7) as u8)
            .collect();
        let mut group = c.benchmark_group("record");
        group.sample_size(samples).measurement_time(budget);
        group.bench_function("render_4096", |b| {
            b.iter(|| {
                let mut sink = StreamSink::new(
                    index.clone(),
                    CHUNK,
                    Box::new(std::io::sink()),
                    DEFAULT_BUFFER_POINTS,
                )
                .expect("io::sink accepts the header");
                sink.accept(0, values.clone())
                    .expect("chunk 0 renders in order");
                std::hint::black_box(sink)
            });
        });
        group.bench_function("crc_1mib", |b| {
            b.iter(|| twocs_store::crc32(std::hint::black_box(&bytes)));
        });
        group.finish();
    }
    c.print_summary();

    let warm_naive = c.mean_ns("sweep_warm", "naive");
    let warm_factored = c.mean_ns("sweep_warm", "factored").max(1);
    #[allow(clippy::cast_precision_loss)]
    let speedup = warm_naive as f64 / warm_factored as f64;
    eprintln!("sweep_perf: warm factored vs naive speedup = {speedup:.2}x");

    let results: Vec<String> = c.results().iter().map(BenchResult::to_json).collect();
    let json = format!(
        "{{\n  \"benchmark\": \"sweep_perf\",\n  \"grid\": {{\"points\": {}, \"h\": [{}], \
         \"sl\": [{}], \"tp\": [{}], \"flop_vs_bw\": [1.0], \"experts\": [{}], \
         \"stages\": [{}], \"batch\": {}, \"method\": \"projection\"}},\n  \"jobs\": {},\n  \"smoke\": {},\n  \
         \"byte_identical_naive_factored\": true,\n  \"results\": [\n{}\n  ],\n  \
         \"warm_speedup_factored_vs_naive\": {:.4}\n}}\n",
        points.len(),
        join(&grid.hs, ", "),
        join(&grid.sls, ", "),
        join(&grid.tps, ", "),
        join(&grid.experts, ", "),
        join(&grid.stages, ", "),
        grid.batch,
        jobs,
        opts.smoke,
        results.join(",\n"),
        speedup,
    );
    twocs_obs::json::validate(&json).expect("BENCH_sweep.json must be well-formed JSON");
    std::fs::write(&opts.out, &json).unwrap_or_else(|e| panic!("write {}: {e}", opts.out));
    eprintln!("sweep_perf: wrote {}", opts.out);

    if let Some(baseline_path) = &opts.baseline {
        twocs_bench::baseline::run_gate(
            "sweep_perf",
            c.results(),
            baseline_path,
            GATED_GROUPS,
            &[],
            opts.max_regress,
        );
    }
}
