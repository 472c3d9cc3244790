//! Distributed-fabric latency-tolerance benchmark, emitting
//! `BENCH_dist.json`.
//!
//! Runs the same sweep through a real TCP coordinator + 4 in-process
//! workers under injected per-message latency (0 / 1 / 5 ms round
//! trip), once in **lockstep** (`pipeline = 1`: one chunk lease per
//! round-trip, the v3 behaviour) and once **pipelined** (`pipeline =
//! 4`, the v4 default: a credit window deep enough to hide a whole
//! round-trip behind compute). The headline numbers are the
//! `pipelined_speedup_rtt*` ratios — how much sweep throughput the
//! credit window recovers once the fabric's own communication stops
//! being free, the paper's exposed-vs-hidden communication story told
//! about the tool's own wires.
//!
//! Latency is injected at the worker (`WorkerConfig::injected_latency`,
//! or `TWOCS_DIST_RTT_MS` for external processes) as pure propagation
//! delay: frames are *visible* half an RTT after they arrive and are
//! *released* half an RTT after they are queued, without serializing
//! occupancy — two grants in one window cost one RTT, not two.
//!
//! Before timing anything it asserts the byte-identity contract: the
//! pipelined distributed CSV at 1 ms RTT must equal the local run.
//!
//! Usage: `dist_perf [--out PATH] [--smoke]
//! [--baseline PATH [--max-regress PCT]]`
//! (`--smoke` collects fewer samples for CI; the JSON shape is
//! unchanged. `--baseline` compares this run's `dist_sweep` means
//! against a committed `BENCH_dist.json` and exits nonzero when any is
//! more than `--max-regress` percent — default 20 — slower: the CI
//! perf-regression gate.)

use std::time::Duration;

use twocs_bench::harness::{BenchResult, Criterion};
use twocs_core::serialized::Method;
use twocs_core::sweep::GridSweep;
use twocs_dist::coordinator::{Coordinator, CoordinatorConfig};
use twocs_dist::worker::{run_worker, WorkerConfig, WorkerReport};
use twocs_hw::DeviceSpec;

/// Chunk size under test: small chunks make round-trips frequent, which
/// is exactly the regime where lockstep leasing drowns in latency.
const CHUNK: usize = 2;

/// Worker processes per fabric — the acceptance configuration.
const WORKERS: usize = 4;

/// The v4 default credit window.
const WINDOW: usize = 4;

/// Injected round-trip times under test.
const RTTS_MS: &[u64] = &[0, 1, 5];

/// A mid-sized projection grid (64 points after realism pruning, 32
/// chunks): enough chunks per worker that steady-state throughput
/// dominates ramp-up, small enough that a lockstep run at 5 ms RTT
/// stays well under a second.
fn bench_grid() -> GridSweep {
    GridSweep {
        hs: vec![4096, 16_384],
        sls: vec![2048, 4096],
        tps: vec![4, 8, 16, 32, 64, 128],
        flop_vs_bw: vec![1.0, 4.0],
        experts: vec![1, 8],
        batch: 1,
        method: Method::Projection,
        ..GridSweep::default()
    }
}

/// A live coordinator + worker threads, reused across bench iterations
/// so setup cost stays out of the timed region.
struct Fabric {
    coordinator: Coordinator,
    workers: Vec<std::thread::JoinHandle<Result<WorkerReport, String>>>,
}

impl Fabric {
    fn spawn(pipeline: usize, rtt: Duration) -> Self {
        let coordinator = Coordinator::bind(CoordinatorConfig {
            chunk_size: CHUNK,
            pipeline: Some(pipeline),
            ..CoordinatorConfig::default()
        })
        .expect("bind ephemeral coordinator port");
        let addr = coordinator.local_addr().to_string();
        let workers = (0..WORKERS)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut cfg = WorkerConfig::new(addr, 1);
                    cfg.injected_latency = (rtt > Duration::ZERO).then_some(rtt);
                    run_worker(&cfg)
                })
            })
            .collect();
        let present = coordinator.wait_for_workers(WORKERS, Duration::from_secs(10));
        assert_eq!(present, WORKERS, "all {WORKERS} workers registered");
        Self {
            coordinator,
            workers,
        }
    }

    fn teardown(self) {
        self.coordinator.shutdown();
        for w in self.workers {
            w.join().unwrap().expect("worker exits cleanly on Done");
        }
    }
}

#[derive(Debug)]
struct Options {
    out: String,
    smoke: bool,
    baseline: Option<String>,
    max_regress: f64,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        out: "BENCH_dist.json".to_owned(),
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
                    "usage: dist_perf [--out PATH] [--smoke] [--baseline PATH [--max-regress PCT]]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(baseline) = &opts.baseline {
        twocs_bench::baseline::check_baseline_is_not_out(baseline, &opts.out)?;
    }
    Ok(opts)
}

/// The gate compares only the pipelined 5 ms run: it is the product
/// configuration in the regime the feature exists for, and its mean is
/// pinned by the injected latency (wall ≈ chunks/workers/window × RTT)
/// rather than by how loaded the runner is — yet a broken credit window
/// would still show up as a ~4x jump. The 0/1 ms entries are partly or
/// wholly compute-bound and swing with runner load, so they inform but
/// do not gate.
const GATED_GROUPS: &[&str] = &["dist_pipelined"];
const UNGATED_IDS: &[&str] = &["rtt0ms", "rtt1ms"];

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dist_perf: {e}");
            std::process::exit(2);
        }
    };
    let grid = bench_grid();
    let device = DeviceSpec::mi210();
    let points = grid.points();
    let n_chunks = points.len().div_ceil(CHUNK);
    eprintln!(
        "dist_perf: {} grid points in {n_chunks} chunks of {CHUNK}, {WORKERS} workers, \
         window {WINDOW}{}",
        points.len(),
        if opts.smoke { ", smoke mode" } else { "" }
    );

    // The contract, checked before any timing: a pipelined distributed
    // run under injected latency is byte-identical to the local sweep.
    let local_csv = grid.run(&device, WORKERS).0.to_csv();
    {
        let fabric = Fabric::spawn(WINDOW, Duration::from_millis(1));
        let (table, summary) = fabric
            .coordinator
            .run_sweep(&grid, &device)
            .expect("distributed sweep runs");
        assert_eq!(
            table.to_csv(),
            local_csv,
            "pipelined distributed CSV must be byte-identical to local"
        );
        assert_eq!(summary.reassigned, 0, "healthy fabric reassigns nothing");
        fabric.teardown();
    }
    eprintln!("dist_perf: byte-identity holds (pipelined @1ms RTT == local)");

    let (samples, budget) = if opts.smoke {
        (5, Duration::from_secs(1))
    } else {
        (10, Duration::from_secs(3))
    };

    let mut c = Criterion::default();
    for (group_name, pipeline) in [("dist_lockstep", 1), ("dist_pipelined", WINDOW)] {
        let mut group = c.benchmark_group(group_name);
        group.sample_size(samples).measurement_time(budget);
        for &rtt_ms in RTTS_MS {
            let fabric = Fabric::spawn(pipeline, Duration::from_millis(rtt_ms));
            group.bench_function(format!("rtt{rtt_ms}ms"), |b| {
                b.iter(|| {
                    std::hint::black_box(
                        fabric
                            .coordinator
                            .run_sweep(&grid, &device)
                            .expect("distributed sweep runs"),
                    )
                });
            });
            fabric.teardown();
        }
        group.finish();
    }
    c.print_summary();

    // Headline ratios: wall-time speedup == points/s speedup (same grid).
    #[allow(clippy::cast_precision_loss)]
    let speedup = |rtt_ms: u64| {
        let lockstep = c.mean_ns("dist_lockstep", &format!("rtt{rtt_ms}ms"));
        let pipelined = c
            .mean_ns("dist_pipelined", &format!("rtt{rtt_ms}ms"))
            .max(1);
        lockstep as f64 / pipelined as f64
    };
    let speedups: Vec<(u64, f64)> = RTTS_MS.iter().map(|&ms| (ms, speedup(ms))).collect();
    for &(ms, s) in &speedups {
        eprintln!("dist_perf: pipelined vs lockstep speedup @ {ms} ms RTT = {s:.2}x");
    }
    let at_1ms = speedups
        .iter()
        .find(|&&(ms, _)| ms == 1)
        .map(|&(_, s)| s)
        .expect("1 ms RTT was measured");
    // The acceptance floor. Smoke runs on loaded CI runners only warn:
    // the committed full-run baseline is the binding record.
    if at_1ms < 2.0 {
        let msg = format!("pipelining must be >= 2x lockstep at 1 ms RTT, measured {at_1ms:.2}x");
        assert!(opts.smoke, "{msg}");
        eprintln!("dist_perf: WARNING (smoke): {msg}");
    }

    let results: Vec<String> = c.results().iter().map(BenchResult::to_json).collect();
    let speedup_fields: Vec<String> = speedups
        .iter()
        .map(|(ms, s)| format!("  \"pipelined_speedup_rtt{ms}ms\": {s:.4}"))
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"dist_perf\",\n  \"grid\": {{\"points\": {}, \"chunks\": {n_chunks}, \
         \"chunk_size\": {CHUNK}, \"method\": \"projection\"}},\n  \"workers\": {WORKERS},\n  \
         \"pipeline\": {WINDOW},\n  \"rtts_ms\": [{}],\n  \"smoke\": {},\n  \
         \"byte_identical_dist_local\": true,\n  \"results\": [\n{}\n  ],\n{}\n}}\n",
        points.len(),
        RTTS_MS
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        opts.smoke,
        results.join(",\n"),
        speedup_fields.join(",\n"),
    );
    twocs_obs::json::validate(&json).expect("BENCH_dist.json must be well-formed JSON");
    std::fs::write(&opts.out, &json).unwrap_or_else(|e| panic!("write {}: {e}", opts.out));
    eprintln!("dist_perf: wrote {}", opts.out);

    if let Some(baseline_path) = &opts.baseline {
        twocs_bench::baseline::run_gate(
            "dist_perf",
            c.results(),
            baseline_path,
            GATED_GROUPS,
            UNGATED_IDS,
            opts.max_regress,
        );
    }
}
