//! End-to-end and per-layer benchmark of twocs (see README.md).
//!
//! ```text
//! twocs-perfbench --twocs <bin> --workload <sweep_1m|serve_zipf|dist_rtt1ms>
//!                 [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Untraced runs (`--trace 0`) drive the release `twocs` binary in child
//! processes and report the end-to-end metrics; traced runs (`--trace 1`)
//! call each layer's public functions from this harness, with a span
//! around each call, and report the per-layer metrics. Every run checks
//! the program's output and prints one JSON result as its last line.

mod dist;
mod inputs;
mod layers;
mod proc;
mod report;
mod serve;
mod spans;
mod stats;
mod sweep;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use twocs::hw::DeviceSpec;

/// Everything a workload needs to run.
pub struct Ctx {
    pub twocs: PathBuf,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Scratch directory inside the checkout, removed at exit.
    pub tmp: PathBuf,
    pub device: DeviceSpec,
}

/// Removes the scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using it.
        let _ = self.0.parent().map(std::fs::remove_dir);
    }
}

fn parse() -> Result<(Ctx, String), String> {
    let mut args = std::env::args().skip(1);
    let (mut twocs, mut workload) = (None, None);
    let (mut seed, mut seconds, mut trace) = (inputs::DEFAULT_SEED, 10.0, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--twocs" => twocs = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds: expected a positive number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let twocs = twocs.ok_or("--twocs <path to the release twocs binary> is required")?;
    if !twocs.is_file() {
        return Err(format!("{} is not a built twocs binary", twocs.display()));
    }
    let tmp = PathBuf::from(".bench_tmp").join(std::process::id().to_string());
    let ctx = Ctx {
        twocs,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        tmp,
        device: DeviceSpec::mi210(),
    };
    Ok((ctx, workload.ok_or("--workload is required")?))
}

fn main() -> ExitCode {
    let (ctx, workload) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.tmp) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.tmp.display());
        return ExitCode::FAILURE;
    }
    let _scratch = Scratch(ctx.tmp.clone());
    let mut out = report::Outcome::default();
    let ran = match workload.as_str() {
        "sweep_1m" => sweep::run(&ctx, &mut out),
        "serve_zipf" => serve::run(&ctx, &mut out),
        "dist_rtt1ms" => dist::run(&ctx, &mut out),
        other => Err(format!(
            "unknown workload `{other}` (sweep_1m, serve_zipf, dist_rtt1ms)"
        )),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {workload}: {e}");
        return ExitCode::FAILURE;
    }
    let role = match ctx.seed {
        inputs::DEFAULT_SEED => " (default)",
        inputs::HELD_OUT_SEED => " (held out)",
        _ => "",
    };
    eprintln!(
        "perfbench: {workload} seed {}{role} trace {}: {} attempted, {} failed",
        ctx.seed,
        u8::from(ctx.trace),
        out.attempted,
        out.failed
    );
    out.emit(ctx.trace);
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
