//! `sweep_1m`: the EXPERIMENTS.md scale recipe run as a user runs it —
//! 1,024,000 points through `twocs sweep --journal` — and, traced, the
//! same pipeline composed from the library's public calls.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use twocs::analysis::sweep::{eval_grid_point, GridSweep, PointResults};
use twocs::analysis::FactoredPlan;
use twocs::store::{Journal, StreamSink, SweepSpec, DEFAULT_BUFFER_POINTS};

use crate::inputs::{check_sample, ratios, recipe_grid, sweep_args};
use crate::layers::{counter, report_build};
use crate::proc::{Fnv, Proc, RssWatch};
use crate::report::{clear_model_caches, CacheCounters, Outcome};
use crate::spans::{Lane, Trace};
use crate::stats::median;
use crate::Ctx;

const RATIOS: usize = 200;
const CHUNK: usize = 4096;
const JOBS: usize = 2;
/// Rows checked against `eval_grid_point` on every sweep.
const SAMPLE_ROWS: usize = 1024;
const MIN_SWEEPS: usize = 3;
const SWEEP_TIMEOUT: Duration = Duration::from_secs(150);

/// What every sweep's output must contain.
struct Expected {
    header: Vec<u8>,
    points: usize,
    chunks: usize,
    /// `(row index, rendered row)` for the seeded sample.
    sample: Vec<(usize, Vec<u8>)>,
}

fn expected(ctx: &Ctx, grid: &GridSweep) -> Expected {
    let index = grid.index();
    let sample = check_sample(ctx.seed, index.len(), SAMPLE_ROWS)
        .into_iter()
        .map(|i| {
            let p = index.point(i);
            let r = eval_grid_point(&ctx.device, p, grid.batch, grid.method, grid.workload);
            (
                i,
                GridSweep::row_cells(&p, &Ok(r), true)
                    .join(",")
                    .into_bytes(),
            )
        })
        .collect();
    let mut header = GridSweep::header_cells(true).join(",").into_bytes();
    header.push(b'\n');
    Expected {
        header,
        points: index.len(),
        chunks: index.chunk_count(CHUNK),
        sample,
    }
}

/// One `twocs sweep` child, timed from spawn.
struct CliRun {
    setup: f64,
    wall: f64,
    rss_mb: f64,
    hash: u64,
}

fn run_cli(
    ctx: &Ctx,
    args: &[String],
    journal: &Path,
    exp: &Expected,
    out: &mut Outcome,
) -> Result<CliRun, String> {
    let _ = std::fs::remove_file(journal);
    let mut p = Proc::spawn(&ctx.twocs, args, &[])?;
    let stderr = p.collect_stderr();
    let rss = RssWatch::start(p.pid());
    let mut r = BufReader::with_capacity(1 << 20, p.stdout());
    let (mut hash, mut line) = (Fnv::default(), Vec::with_capacity(256));
    let (mut rows, mut errors, mut mismatches, mut next_sample) = (0usize, 0usize, 0usize, 0usize);
    let mut first_row = None;
    let mut header_ok = false;
    loop {
        line.clear();
        let n = r
            .read_until(b'\n', &mut line)
            .map_err(|e| format!("cannot read sweep stdout: {e}"))?;
        if n == 0 {
            break;
        }
        hash.update(&line);
        if !header_ok {
            header_ok = line == exp.header;
            if !header_ok {
                out.problem(format!(
                    "unexpected header {:?}",
                    String::from_utf8_lossy(&line)
                ));
                break;
            }
            continue;
        }
        let row = line.strip_suffix(b"\n").unwrap_or(&line);
        if row.is_empty() {
            continue; // the blank line after the last row
        }
        first_row.get_or_insert_with(|| p.spawned.elapsed().as_secs_f64());
        if row.ends_with(b"error") {
            errors += 1;
        }
        if let Some((at, want)) = exp.sample.get(next_sample) {
            if *at == rows {
                mismatches += usize::from(row != want.as_slice());
                next_sample += 1;
            }
        }
        rows += 1;
    }
    drop(r);
    let spawned = p.spawned;
    let (status, exited) = p.wait(SWEEP_TIMEOUT)?;
    let rss_mb = rss.finish()?;
    let stderr = stderr.join().unwrap_or_default();
    if !status.success() {
        return Err(format!("twocs sweep exited with {status}: {stderr}"));
    }
    out.attempted += exp.points as u64;
    out.failed += (errors + mismatches + exp.points.abs_diff(rows)) as u64;
    out.check(rows == exp.points, || {
        format!("{rows} rows, expected {}", exp.points)
    });
    out.check(errors == 0, || format!("{errors} error rows"));
    out.check(next_sample == exp.sample.len() && mismatches == 0, || {
        format!("{mismatches} of {next_sample} sampled rows differ from eval_grid_point")
    });
    match Journal::open(journal) {
        Ok((_, spec, replay)) => out.check(
            replay.chunks.len() == exp.chunks
                && replay.discarded_bytes == 0
                && spec.point_count() == exp.points,
            || {
                format!(
                    "journal replayed {} of {} chunks",
                    replay.chunks.len(),
                    exp.chunks
                )
            },
        ),
        Err(e) => out.problem(format!("journal replay failed: {e}")),
    }
    let _ = std::fs::remove_file(journal);
    Ok(CliRun {
        setup: first_row.ok_or("the sweep printed no data row")?,
        wall: (exited - spawned).as_secs_f64(),
        rss_mb,
        hash: hash.0,
    })
}

fn cli_args(grid: &GridSweep, journal: &Path) -> Vec<String> {
    let mut args = sweep_args(grid);
    args.extend([
        "--journal".to_owned(),
        journal.display().to_string(),
        "--chunk".to_owned(),
        CHUNK.to_string(),
        "--jobs".to_owned(),
        JOBS.to_string(),
    ]);
    args
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let grid = recipe_grid(ratios(ctx.seed, RATIOS));
    let exp = expected(ctx, &grid);
    let journal = ctx.tmp.join("sweep.journal");
    let args = cli_args(&grid, &journal);
    if ctx.trace {
        let base = run_cli(ctx, &args, &journal, &exp, out)?;
        return traced(ctx, &grid, &exp, &base, out);
    }
    let deadline = Instant::now() + ctx.seconds;
    let mut runs = Vec::new();
    while runs.len() < MIN_SWEEPS || Instant::now() < deadline {
        runs.push(run_cli(ctx, &args, &journal, &exp, out)?);
    }
    out.check(runs.iter().all(|r| r.hash == runs[0].hash), || {
        "sweeps of one grid printed different bytes".to_owned()
    });
    let walls: Vec<f64> = runs.iter().map(|r| r.wall).collect();
    let setups: Vec<f64> = runs.iter().map(|r| r.setup).collect();
    eprintln!(
        "perfbench: sweep_1m: {} sweeps of {} points",
        runs.len(),
        exp.points
    );
    out.set("setup_s", median(&setups));
    out.set("points_per_s", exp.points as f64 / median(&walls));
    out.set(
        "peak_rss_mb",
        runs.iter().map(|r| r.rss_mb).fold(0.0, f64::max),
    );
    Ok(())
}

/// Output writer that times its writes and hashes what passes through.
struct TimedFile {
    file: File,
    stats: Arc<Mutex<(Fnv, f64)>>,
}

impl Write for TimedFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let t = Instant::now();
        self.file.write_all(buf)?;
        let mut stats = self.stats.lock().expect("writer stats lock");
        stats.0.update(buf);
        stats.1 += t.elapsed().as_secs_f64();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

/// The run_streaming pipeline, rebuilt from public calls with a span
/// around each: two eval threads decode and evaluate chunks, the calling
/// thread journals and renders them.
fn traced(
    ctx: &Ctx,
    grid: &GridSweep,
    exp: &Expected,
    base: &CliRun,
    out: &mut Outcome,
) -> Result<(), String> {
    let journal_path: PathBuf = ctx.tmp.join("traced.journal");
    let csv_path = ctx.tmp.join("traced.csv");
    let _ = std::fs::remove_file(&journal_path);
    let spec = SweepSpec {
        sweep: grid.clone(),
        chunk_size: CHUNK as u32,
        device_name: ctx.device.name().to_owned(),
        device_fingerprint: ctx.device.fingerprint(),
    };
    let stats = Arc::new(Mutex::new((Fnv::default(), 0.0)));
    let file = File::create(&csv_path)
        .map_err(|e| format!("cannot create {}: {e}", csv_path.display()))?;

    clear_model_caches();
    let caches = CacheCounters::read();
    let (fsyncs, plans) = (
        counter("store.journal.fsyncs"),
        counter("sweep.factored_plans"),
    );
    let origin = Instant::now();
    let mut main = Lane::new(origin);
    let plan = main
        .time("planner.build", || {
            FactoredPlan::build_from_sweep(&ctx.device, grid)
        })
        .ok_or("the recipe grid has no factored plan")?;
    let mut journal = Journal::create(&journal_path, &spec)?;
    let writer = TimedFile {
        file,
        stats: stats.clone(),
    };
    let index = spec.index();
    let mut sink = StreamSink::new(
        index.clone(),
        CHUNK,
        Box::new(writer),
        DEFAULT_BUFFER_POINTS,
    )?;
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = sync_channel::<(u32, PointResults)>(JOBS * 4);
    let (lanes, blocked, waited) = std::thread::scope(|s| -> Result<_, String> {
        let rx = rx;
        let evals: Vec<_> = (0..JOBS)
            .map(|_| {
                let tx = tx.clone();
                let (cursor, index, plan) = (&cursor, &index, &plan);
                s.spawn(move || {
                    let mut lane = Lane::new(origin);
                    let mut blocked = 0.0;
                    loop {
                        let chunk = cursor.fetch_add(1, Ordering::Relaxed);
                        if chunk >= exp.chunks {
                            break;
                        }
                        let points = lane.time("grid.decode", || index.chunk_points(chunk, CHUNK));
                        let mut values = PointResults::with_capacity(points.len());
                        lane.time("planner.eval", || plan.eval_batch(&points, &mut values));
                        let t = Instant::now();
                        if tx.send((chunk as u32, values)).is_err() {
                            break;
                        }
                        blocked += t.elapsed().as_secs_f64();
                    }
                    (lane, blocked)
                })
            })
            .collect();
        drop(tx);
        let mut waited = 0.0;
        loop {
            let t = Instant::now();
            let Ok((chunk, values)) = rx.recv() else {
                break;
            };
            waited += t.elapsed().as_secs_f64();
            main.time("store.journal", || journal.append_chunk(chunk, &values))?;
            main.time("store.sink", || sink.accept(chunk, values))?;
        }
        let (mut lanes, mut blocked) = (Vec::new(), 0.0);
        for h in evals {
            let (lane, b) = h.join().map_err(|_| "an eval thread panicked")?;
            lanes.push(lane);
            blocked += b;
        }
        Ok((lanes, blocked, waited))
    })?;
    let report = main.time("store.sink", || sink.finish())?;
    let window = origin.elapsed().as_secs_f64();
    let caches_after = CacheCounters::read();
    drop(journal);

    let mut trace = Trace::default();
    trace.add(main);
    lanes.into_iter().for_each(|l| trace.add(l));
    let (mut hash, write_s) = *stats.lock().expect("writer stats lock");
    hash.update(b"\n");
    out.attempted += exp.points as u64;
    out.failed += report.failures as u64;
    out.check(report.rows == exp.points && report.failures == 0, || {
        format!(
            "traced sink wrote {} rows, {} failures",
            report.rows, report.failures
        )
    });
    out.check(hash.0 == base.hash, || {
        "traced CSV differs from the twocs sweep output".to_owned()
    });

    out.set("wall_s", window);
    out.set("trace.overhead", window / base.wall - 1.0);
    out.set("trace.uncovered_share", trace.uncovered_share(0.0, window));
    out.set("grid.decode_s", trace.total("grid.decode"));
    out.set("planner.eval_s", trace.total("planner.eval"));
    let sink_s = trace.total("store.sink");
    out.set("store.journal_s", trace.total("store.journal"));
    out.set(
        "store.journal.fsyncs",
        (counter("store.journal.fsyncs") - fsyncs) as f64,
    );
    out.set(
        "store.journal_bytes",
        std::fs::metadata(&journal_path)
            .map_err(|e| format!("cannot stat the traced journal: {e}"))?
            .len() as f64,
    );
    out.set("store.sink_s", sink_s);
    out.set("store.write_s", write_s);
    out.set("render.to_csv_s", (sink_s - write_s).max(0.0));
    out.set("store.sink.spilled_bytes", report.spilled_bytes as f64);
    out.set("runner.recorder_wait_s", waited);
    out.set("runner.eval_blocked_s", blocked);
    caches_after.report_since(&caches, out);
    let builds = (counter("sweep.factored_plans") - plans) as usize;
    report_build(
        out,
        &ctx.device,
        &[grid],
        trace.total("planner.build"),
        builds,
    );
    out.zero_layers(&["serve.", "loadgen.", "dist."]);
    let _ = std::fs::remove_file(&journal_path);
    let _ = std::fs::remove_file(&csv_path);
    Ok(())
}
