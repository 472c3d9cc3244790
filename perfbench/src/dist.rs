//! `dist_rtt1ms`: a `twocs sweep --listen` coordinator and two
//! `twocs worker` children at 1 ms injected round trip, leasing the
//! recipe's axes at 10 ratios (51,200 points) four points at a time —
//! and, traced, the same fabric run in-process.

use std::io::{BufRead, BufReader, Read};
use std::sync::Arc;
use std::time::{Duration, Instant};

use twocs::analysis::sweep::{GridSweep, PointResults};
use twocs::analysis::FactoredPlan;
use twocs::dist::{Coordinator, CoordinatorConfig, WorkerConfig};
use twocs::obs::{TraceMode, Tracer};

use crate::inputs::{ratios, recipe_grid, sweep_args};
use crate::layers::{counter, report_build};
use crate::proc::{addr_after, read_line_with, Fnv, Proc, RssWatch};
use crate::report::{clear_model_caches, CacheCounters, Outcome};
use crate::spans::{Lane, Trace};
use crate::stats::median;
use crate::Ctx;

const RATIOS: usize = 10;
const CHUNK: usize = 4;
const WORKERS: usize = 2;
const RTT_MS: u64 = 1;
const MIN_RUNS: usize = 3;
const TIMEOUT: Duration = Duration::from_secs(60);

/// Hash, row count and `error` rows of a sweep CSV on `r`.
fn digest(r: impl Read) -> Result<(u64, usize, usize), String> {
    let mut r = BufReader::with_capacity(1 << 20, r);
    let (mut hash, mut line) = (Fnv::default(), Vec::new());
    let (mut rows, mut errors) = (0usize, 0usize);
    loop {
        line.clear();
        if r.read_until(b'\n', &mut line)
            .map_err(|e| format!("cannot read csv: {e}"))?
            == 0
        {
            return Ok((hash.0, rows.saturating_sub(1), errors));
        }
        hash.update(&line);
        if line.len() > 1 {
            rows += 1;
            errors += usize::from(line.ends_with(b"error\n"));
        }
    }
}

/// The local `twocs sweep` of the same grid, run once outside timing.
fn reference(ctx: &Ctx, grid: &GridSweep) -> Result<u64, String> {
    let mut args = sweep_args(grid);
    args.extend(["--jobs".to_owned(), "2".to_owned()]);
    let mut p = Proc::spawn(&ctx.twocs, &args, &[])?;
    let stderr = p.collect_stderr();
    let (hash, _, _) = digest(p.stdout())?;
    let (status, _) = p.wait(TIMEOUT)?;
    let stderr = stderr.join().unwrap_or_default();
    if !status.success() {
        return Err(format!(
            "local reference sweep exited with {status}: {stderr}"
        ));
    }
    Ok(hash)
}

/// Established TCP connections whose local port is `port`: the
/// coordinator's side of each worker connection.
fn accepted(port: u16) -> usize {
    let Ok(table) = std::fs::read_to_string("/proc/net/tcp") else {
        return 0;
    };
    let want = format!(":{port:04X}");
    table
        .lines()
        .skip(1)
        .filter(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            f.len() > 3 && f[1].ends_with(&want) && f[3] == "01"
        })
        .count()
}

struct FabricRun {
    setup: f64,
    wall: f64,
    rss_mb: f64,
}

fn run_fabric(
    ctx: &Ctx,
    grid: &GridSweep,
    want: u64,
    out: &mut Outcome,
) -> Result<FabricRun, String> {
    let mut args = sweep_args(grid);
    for a in [
        "--listen",
        "127.0.0.1:0",
        "--min-workers",
        "2",
        "--jobs",
        "1",
        "--chunk",
        "4",
    ] {
        args.push(a.to_owned());
    }
    let mut coord = Proc::spawn(&ctx.twocs, &args, &[])?;
    let rss = RssWatch::start(coord.pid());
    let mut err = BufReader::new(coord.stderr());
    let line = read_line_with(&mut err, "coordinating on ")?;
    let addr = addr_after(&line, "coordinating on ")?;
    // The coordinator prints its `dist:` summary once every result is
    // merged. After it, shutdown waits for each worker's heartbeat thread,
    // which sleeps out its 500 ms period before it sees the stop flag, so
    // the exit time moves in 500 ms steps around the fabric's own wall.
    let stderr = std::thread::spawn(move || {
        let (mut s, mut merged) = (String::new(), None);
        let mut line = String::new();
        while err.read_line(&mut line).is_ok_and(|n| n > 0) {
            if line.starts_with("dist: ") {
                merged.get_or_insert_with(Instant::now);
            }
            s.push_str(&line);
            line.clear();
        }
        (s, merged)
    });
    let port: u16 = addr
        .rsplit(':')
        .next()
        .and_then(|p| p.parse().ok())
        .ok_or_else(|| format!("bad coordinator address {addr}"))?;
    let rtt = RTT_MS.to_string();
    let worker_args: Vec<String> = ["worker", "--connect", &addr, "--jobs", "1"]
        .map(str::to_owned)
        .to_vec();
    let mut workers = Vec::new();
    for _ in 0..WORKERS {
        let mut w = Proc::spawn(
            &ctx.twocs,
            &worker_args,
            &[(twocs::dist::worker::RTT_ENV, &rtt)],
        )?;
        let logs = w.collect_stderr();
        workers.push((w, logs));
    }
    let deadline = Instant::now() + TIMEOUT;
    let setup = loop {
        if accepted(port) >= WORKERS {
            break coord.spawned.elapsed().as_secs_f64();
        }
        if Instant::now() > deadline {
            return Err("workers did not connect".to_owned());
        }
        std::thread::sleep(Duration::from_micros(100));
    };
    let (hash, rows, errors) = digest(coord.stdout())?;
    let spawned = coord.spawned;
    let (status, _) = coord.wait(TIMEOUT)?;
    let rss_mb = rss.finish()?;
    let (log, merged) = stderr.join().unwrap_or_default();
    if !status.success() {
        return Err(format!("coordinator exited with {status}: {log}"));
    }
    let merged = merged.ok_or_else(|| format!("coordinator printed no `dist:` summary: {log}"))?;
    for (w, logs) in workers {
        let (status, _) = w.wait(TIMEOUT)?;
        if !status.success() {
            return Err(format!(
                "worker exited with {status}: {}",
                logs.join().unwrap_or_default()
            ));
        }
    }
    let points = grid.point_count();
    out.attempted += points as u64;
    out.failed += (errors + points.abs_diff(rows)) as u64;
    out.check(rows == points && errors == 0, || {
        format!("{rows} rows ({errors} error rows), expected {points}")
    });
    out.check(hash == want, || {
        "distributed CSV differs from the local sweep".to_owned()
    });
    Ok(FabricRun {
        setup,
        wall: (merged - spawned).as_secs_f64(),
        rss_mb,
    })
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let grid = recipe_grid(ratios(ctx.seed, RATIOS));
    let want = reference(ctx, &grid)?;
    if ctx.trace {
        let base = run_fabric(ctx, &grid, want, out)?;
        return traced(ctx, &grid, want, &base, out);
    }
    let deadline = Instant::now() + ctx.seconds;
    let mut runs = Vec::new();
    while runs.len() < MIN_RUNS || Instant::now() < deadline {
        runs.push(run_fabric(ctx, &grid, want, out)?);
    }
    let walls: Vec<f64> = runs.iter().map(|r| r.wall).collect();
    let setups: Vec<f64> = runs.iter().map(|r| r.setup).collect();
    eprintln!(
        "perfbench: dist_rtt1ms: {} fabric runs of {} points",
        runs.len(),
        grid.point_count()
    );
    out.set("setup_s", median(&setups));
    out.set("points_per_s", grid.point_count() as f64 / median(&walls));
    out.set(
        "peak_rss_mb",
        runs.iter().map(|r| r.rss_mb).fold(0.0, f64::max),
    );
    Ok(())
}

/// The same fabric in-process: a coordinator on this thread, two worker
/// threads with the same injected round trip, spans around each call and
/// the library's own spans captured from the global tracer.
fn traced(
    ctx: &Ctx,
    grid: &GridSweep,
    want: u64,
    base: &FabricRun,
    out: &mut Outcome,
) -> Result<(), String> {
    clear_model_caches();
    let caches = CacheCounters::read();
    let plans = counter("sweep.factored_plans");
    let tracer = Arc::new(Tracer::new(TraceMode::Wall));
    twocs::obs::install_global(tracer.clone());
    let origin = Instant::now();
    let mut main = Lane::new(origin);
    let coordinator = Coordinator::bind(CoordinatorConfig {
        listen: "127.0.0.1:0".to_owned(),
        chunk_size: CHUNK,
        local_jobs: 1,
        ..CoordinatorConfig::default()
    })
    .map_err(|e| format!("cannot bind a coordinator: {e}"))?;
    let addr = coordinator.local_addr().to_string();
    let workers: Vec<_> = (0..WORKERS)
        .map(|_| {
            let cfg = WorkerConfig {
                injected_latency: Some(Duration::from_millis(RTT_MS)),
                ..WorkerConfig::new(addr.clone(), 1)
            };
            std::thread::spawn(move || twocs::dist::run_worker(&cfg))
        })
        .collect();
    let present = main.time("dist.wait_workers", || {
        coordinator.wait_for_workers(WORKERS, TIMEOUT)
    });
    let result = main.time("dist.run", || coordinator.run_sweep(grid, &ctx.device));
    let csv = match &result {
        Ok((table, _)) => main.time("render.to_csv", || table.to_csv()),
        Err(_) => String::new(),
    };
    let window = origin.elapsed().as_secs_f64();
    let caches_after = CacheCounters::read();
    coordinator.shutdown();
    let reports: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
    twocs::obs::uninstall_global();
    let (_, summary) = result?;
    let mut reports_ok = Vec::new();
    for r in reports {
        reports_ok.push(r.map_err(|_| "a worker thread panicked")??);
    }
    out.check(present == WORKERS, || {
        format!("{present} of {WORKERS} workers joined")
    });

    let mut trace = Trace::default();
    trace.add(main);
    let mut lib = Lane::new(origin);
    let mut plan_s = 0.0;
    let mut plan_builds = 0;
    for s in tracer.snapshot().spans {
        let (start, end) = (s.start_us / 1e6, s.end_us() / 1e6);
        if s.name == "factored plan" {
            plan_s += end - start;
            plan_builds += 1;
        }
        lib.push("library", start, end);
    }
    trace.add(lib);

    let mut hash = Fnv::default();
    hash.update(csv.as_bytes());
    hash.update(b"\n");
    let points = grid.point_count();
    out.attempted += points as u64;
    out.check(hash.0 == want, || {
        "in-process distributed CSV differs from the local sweep".to_owned()
    });

    out.set("wall_s", window);
    out.set("trace.overhead", window / base.wall - 1.0);
    out.set("trace.uncovered_share", trace.uncovered_share(0.0, window));
    out.set("render.to_csv_s", trace.total("render.to_csv"));
    out.set("dist.wait_workers_s", trace.total("dist.wait_workers"));
    let chunks = summary.chunks.max(1) as f64;
    out.set("dist.bytes_tx_per_chunk", summary.bytes_tx as f64 / chunks);
    out.set("dist.bytes_rx_per_chunk", summary.bytes_rx as f64 / chunks);
    let rtt = twocs::obs::metrics::global().histogram("dist.chunk_rtt_us");
    out.set("dist.chunk_rtt_ms.p50", rtt.quantile(0.5) as f64 / 1e3);
    out.set("dist.chunk_rtt_ms.p99", rtt.quantile(0.99) as f64 / 1e3);
    out.set(
        "dist.pipeline.stalls",
        counter("dist.pipeline.stalls") as f64,
    );
    let busy: f64 = reports_ok.iter().map(|r| r.busy.as_secs_f64()).sum();
    let idle: f64 = reports_ok.iter().map(|r| r.idle.as_secs_f64()).sum();
    out.set(
        "dist.worker.busy_share",
        busy / (busy + idle).max(f64::MIN_POSITIVE),
    );
    out.set("dist.chunks_reassigned", summary.reassigned as f64);
    out.set(
        "dist.plan_cache_builds",
        counter("dist.plan_cache_builds") as f64,
    );
    caches_after.report_since(&caches, out);
    let builds = (counter("sweep.factored_plans") - plans) as usize;
    out.check(builds == plan_builds, || {
        format!("{builds} plan builds counted, {plan_builds} spans")
    });
    report_build(out, &ctx.device, &[grid], plan_s, builds);
    replay_chunks(ctx, grid, out)?;
    out.zero_layers(&["store.", "runner.", "serve.", "loadgen."]);
    Ok(())
}

/// Decode and evaluation happen inside the workers, where the benchmark
/// has no span; replay one worker's share of leases on this thread to
/// price those two layers on this workload's chunks.
fn replay_chunks(ctx: &Ctx, grid: &GridSweep, out: &mut Outcome) -> Result<(), String> {
    let plan = FactoredPlan::build_from_sweep(&ctx.device, grid).ok_or("no factored plan")?;
    let index = grid.index();
    let mut lane = Lane::new(Instant::now());
    for chunk in (0..index.chunk_count(CHUNK)).step_by(WORKERS) {
        let points = lane.time("grid.decode", || index.chunk_points(chunk, CHUNK));
        let mut values = PointResults::with_capacity(points.len());
        lane.time("planner.eval", || plan.eval_batch(&points, &mut values));
        std::hint::black_box(values);
    }
    let mut trace = Trace::default();
    trace.add(lane);
    out.set("grid.decode_s", trace.total("grid.decode"));
    out.set("planner.eval_s", trace.total("planner.eval"));
    Ok(())
}
