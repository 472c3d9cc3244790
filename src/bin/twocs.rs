//! `twocs` — command-line front end for the Comp-vs-Comm analysis.
//!
//! ```text
//! twocs list                         # registered experiments
//! twocs run fig10 [--csv]            # regenerate one artifact
//! twocs run all [--jobs N]           # everything, paper order, in parallel
//! twocs sweep [--h 4096,65536] [--tp 16,64,256] [--jobs N] [--csv]
//! twocs analyze --h 16384 --sl 2048 --b 1 --tp 64 [--dp 8] [--flop-vs-bw 4]
//! twocs serve [--addr 127.0.0.1:7878] [--jobs N] [--queue N] [--max-conns N]
//! ```
//!
//! `run` and `sweep` fan work across `--jobs` worker threads; stdout is
//! byte-identical to a serial run (results are collected in deterministic
//! order) and the sweep summary — per-task and per-worker wall times —
//! goes to stderr.
//!
//! Observability (see the README's "Observability" section):
//! `--trace <path>` writes a Chrome-trace JSON of the run (sweep-pool
//! task lifecycles plus every simulator timeline; open it in Perfetto or
//! `chrome://tracing`), `--metrics` prints the metrics registry — queue
//! depths, per-worker busy time, store and fabric counters — to stderr.
//! `TWOCS_TRACE_CLOCK=logical` switches trace timestamps from wall time
//! to the deterministic logical clock, making traces byte-identical at
//! any `--jobs` count. Neither flag touches stdout.

use std::process::ExitCode;
use std::sync::Arc;
use twocs::analysis::axes::{Axis, AXES};
use twocs::analysis::experiments;
use twocs::analysis::grid::check_flop_vs_bw;
use twocs::analysis::overlapped::MAX_DP;
use twocs::analysis::serialized::{check_iteration_weights, check_point_work};
use twocs::analysis::sweep::{GridExecutor, GridSweep, LocalPool};
use twocs::hw::{DeviceSpec, HwEvolution};
use twocs::obs::{TraceMode, Tracer};
use twocs::sim::Engine;
use twocs::store::{Buffer, SweepSpec, SweepStore};
use twocs::transformer::graph_builder::IterationBuilder;
use twocs::transformer::{Hyperparams, ParallelConfig};

fn usage() -> ExitCode {
    let axes: String = AXES
        .iter()
        .map(|a| format!(" [{} <{},..>]", a.flag, a.column.to_uppercase()))
        .collect();
    eprintln!(
        "usage:\n  twocs list\n  twocs run <experiment-id|all> [--csv] [--jobs <N>] [--trace <path>] [--metrics]\n  twocs sweep{axes} [--workload training|prefill|decode] [--b <B>] [--method sim|proj] [--csv] [--jobs <N>] [--listen <host:port>] [--min-workers <N>] [--min-workers-timeout-ms <MS>] [--chunk <N>] [--pipeline <N>] [--journal <path>] [--resume <path>] [--refine comm-frac=<F>] [--refine-tol <T>] [--trace <path>] [--metrics]\n  twocs worker --connect <host:port> [--jobs <N>] [--trace <path>] [--metrics]\n  twocs analyze --h <H> [--sl <SL>] [--b <B>] [--tp <TP>] [--dp <DP>] [--flop-vs-bw <R>] [--trace <path>] [--metrics]\n  twocs serve [--addr <host:port>] [--listen <host:port>] [--pipeline <N>] [--jobs <N>] [--queue <N>] [--request-timeout-ms <MS>] [--idle-timeout-ms <MS>] [--max-conns <N>] [--max-requests-per-conn <N>] [--no-response-cache] [--journal-dir <dir>] [--trace <path>] [--metrics]"
    );
    ExitCode::FAILURE
}

/// Observability wiring parsed from `--trace <path>` / `--metrics`.
///
/// When `--trace` is given, a tracer is installed globally before the
/// command runs (wall clock by default; `TWOCS_TRACE_CLOCK=logical`
/// selects the deterministic logical clock). [`ObsSession::finish`]
/// writes the Chrome-trace JSON and prints the metrics summary; both
/// stay off stdout by construction.
struct ObsSession {
    trace_path: Option<String>,
    metrics: bool,
    tracer: Option<Arc<Tracer>>,
}

impl ObsSession {
    fn from_args(args: &[String]) -> Self {
        let trace_path = str_flag(args, "--trace").map(ToOwned::to_owned);
        let tracer = trace_path.is_some().then(|| {
            let mode = match std::env::var("TWOCS_TRACE_CLOCK").as_deref() {
                Ok("logical") => TraceMode::Logical,
                _ => TraceMode::Wall,
            };
            let tracer = Arc::new(Tracer::new(mode));
            twocs::obs::install_global(tracer.clone());
            tracer
        });
        Self {
            trace_path,
            metrics: args.iter().any(|a| a == "--metrics"),
            tracer,
        }
    }

    /// Export the trace and/or metrics summary. Returns an error only
    /// when the trace file cannot be written.
    fn finish(self) -> Result<(), String> {
        if let (Some(path), Some(tracer)) = (&self.trace_path, &self.tracer) {
            twocs::obs::uninstall_global();
            let json = twocs::obs::chrome::render(&tracer.snapshot());
            debug_assert!(twocs::obs::json::validate(&json).is_ok());
            std::fs::write(path, &json).map_err(|e| format!("cannot write trace {path}: {e}"))?;
            eprintln!(
                "trace: {} spans written to {path} (open in Perfetto / chrome://tracing)",
                tracer.len()
            );
        }
        if self.metrics {
            eprintln!("{}", twocs::obs::metrics::global().summary());
        }
        Ok(())
    }
}

/// One subcommand's accepted flags, space-separated: those that take a
/// value, and switches, plus the axis flags of the sweep's [`AXES`].
struct Flags {
    values: &'static str,
    switches: &'static str,
    /// Sweep axes whose [`Axis::flag`]s are value flags too.
    axes: &'static [Axis],
}

const RUN_FLAGS: Flags = Flags {
    values: "--jobs --trace",
    switches: "--csv --metrics",
    axes: &[],
};

const SWEEP_FLAGS: Flags = Flags {
    values: "--workload --b --method --jobs --listen --min-workers --min-workers-timeout-ms \
             --chunk --pipeline --journal --resume --refine --refine-tol --trace",
    switches: "--csv --metrics",
    axes: &AXES,
};

const WORKER_FLAGS: Flags = Flags {
    values: "--connect --jobs --trace",
    switches: "--metrics",
    axes: &[],
};

/// The transformer layers `analyze` simulates.
const ANALYZE_LAYERS: u64 = 4;

const ANALYZE_FLAGS: Flags = Flags {
    values: "--h --sl --b --tp --dp --flop-vs-bw --trace",
    switches: "--metrics",
    axes: &[],
};

const SERVE_FLAGS: Flags = Flags {
    values: "--addr --listen --pipeline --jobs --queue --request-timeout-ms --idle-timeout-ms \
             --max-conns --max-requests-per-conn --journal-dir --trace",
    switches: "--no-response-cache --metrics",
    axes: &[],
};

impl Flags {
    /// Reject any argument of `twocs <cmd>` that is not one of its flags,
    /// a flag given twice, and a value flag without its value (the next
    /// argument missing or itself a flag): a mistyped, retired or
    /// repeated flag is a usage error naming it, never silently ignored.
    /// Past this check [`str_flag`] finds every value flag's one value.
    fn check(&self, cmd: &str, args: &[String]) -> Result<(), String> {
        let mut rest = args.iter();
        let mut seen = Vec::new();
        while let Some(arg) = rest.next() {
            if seen.contains(&arg) {
                return Err(format!("duplicate parameter `{arg}`"));
            }
            seen.push(arg);
            if self.values.split_whitespace().any(|f| f == arg)
                || self.axes.iter().any(|a| a.flag == arg)
            {
                rest.next()
                    .filter(|value| !value.starts_with("--"))
                    .ok_or_else(|| format!("{arg} requires a value"))?;
            } else if !self.switches.split_whitespace().any(|f| f == arg) {
                return Err(format!("unknown argument `{arg}` for `twocs {cmd}`"));
            }
        }
        Ok(())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            for def in experiments::all() {
                println!("{:<8} {:<38} {}", def.id, def.title, def.paper_claim);
            }
            ExitCode::SUCCESS
        }
        Some("run") => {
            let Some(id) = args.get(1) else {
                return usage();
            };
            if let Err(e) = RUN_FLAGS.check("run", &args[2..]) {
                eprintln!("error: {e}");
                return usage();
            }
            let csv = args.iter().any(|a| a == "--csv");
            let jobs = match positive_flag(&args, "--jobs") {
                Ok(jobs) => jobs.unwrap_or(1),
                Err(e) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            };
            let device = DeviceSpec::mi210();
            let defs: Vec<_> = if id == "all" {
                experiments::all()
            } else {
                match experiments::by_id(id) {
                    Some(d) => vec![d],
                    None => {
                        eprintln!("unknown experiment `{id}`; try `twocs list`");
                        return ExitCode::FAILURE;
                    }
                }
            };
            let obs = ObsSession::from_args(&args);
            let run = twocs::analysis::sweep::run_experiments(&device, &defs, jobs);
            for res in &run.results {
                match &res.output {
                    Ok(out) => {
                        if csv {
                            println!("{}", out.to_csv());
                        } else {
                            println!("{}", out.to_ascii());
                        }
                    }
                    Err(e) => eprintln!("experiment `{}` failed: {e}", res.id),
                }
            }
            eprintln!("{}", run.summary);
            if let Err(e) = obs.finish() {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
            if run.summary.failures > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Some("sweep") => match sweep(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Some("worker") => match worker(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Some("analyze") => match analyze(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Some("serve") => match serve(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        _ => usage(),
    }
}

/// Strict numeric flag: the value must parse as `T`. An unparsable
/// value is an error naming the flag, never a silent fallback to the
/// default.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    str_flag(args, name)
        .map(|raw| {
            raw.parse()
                .map_err(|_| format!("invalid value `{raw}` for {name}"))
        })
        .transpose()
}

/// [`flag`] for counts that must be positive (`--jobs`, `--chunk`,
/// `--pipeline`): zero is a usage error, not clamped to one.
fn positive_flag(args: &[String], name: &str) -> Result<Option<usize>, String> {
    str_flag(args, name)
        .map(|raw| {
            raw.parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("{name} {raw}: expected a positive integer"))
        })
        .transpose()
}

/// The distributed-sweep flags, parsed up front so a bad value fails
/// every sweep mode alike, with or without `--listen`.
struct FabricFlags {
    chunk: Option<usize>,
    pipeline: Option<usize>,
    min_workers: usize,
    min_workers_timeout: std::time::Duration,
}

impl FabricFlags {
    fn parse(args: &[String]) -> Result<Self, String> {
        Ok(Self {
            chunk: positive_flag(args, "--chunk")?,
            pipeline: positive_flag(args, "--pipeline")?,
            min_workers: flag(args, "--min-workers")?.unwrap_or(0),
            min_workers_timeout: std::time::Duration::from_millis(
                flag(args, "--min-workers-timeout-ms")?.unwrap_or(10_000),
            ),
        })
    }

    /// Bind a sweep coordinator on `listen` whose local drain runs on
    /// `jobs` threads.
    fn bind(&self, listen: &str, jobs: usize) -> Result<twocs::dist::Coordinator, String> {
        let defaults = twocs::dist::CoordinatorConfig::default();
        twocs::dist::Coordinator::bind(twocs::dist::CoordinatorConfig {
            listen: listen.to_owned(),
            local_jobs: jobs,
            pipeline: self.pipeline,
            chunk_size: self.chunk.unwrap_or(defaults.chunk_size),
            ..defaults
        })
        .map_err(|e| format!("cannot bind coordinator address `{listen}`: {e}"))
    }

    /// Announce a `twocs sweep` coordinator, then wait up to the timeout
    /// for `--min-workers` workers; fewer means the sweep degrades to
    /// local evaluation.
    fn await_workers(&self, coordinator: &twocs::dist::Coordinator) {
        eprintln!(
            "twocs sweep: coordinating on {} (workers: `twocs worker --connect {}`)",
            coordinator.local_addr(),
            coordinator.local_addr()
        );
        let present = coordinator.wait_for_workers(self.min_workers, self.min_workers_timeout);
        if present < self.min_workers {
            eprintln!(
                "twocs sweep: {present}/{} worker(s) after {:?}; degrading to local evaluation",
                self.min_workers, self.min_workers_timeout
            );
        }
    }
}

/// Default thread count when `--jobs` is omitted: one per available
/// core, or 1 if the platform cannot say.
fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1)
}

fn str_flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The `twocs sweep` flag of the sweep-request parameter `name`
/// (`flop_vs_bw` is `--flop-vs-bw`).
fn sweep_flag(name: &str) -> String {
    format!("--{}", name.replace('_', "-"))
}

fn sweep(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    SWEEP_FLAGS.check("sweep", args)?;
    let refine_raw = str_flag(args, "--refine");
    if refine_raw.is_some() && str_flag(args, "--method") == Some("sim") {
        return Err(
            "--refine requires --method proj (simulation probes would cost more \
             than the refinement avoids)"
                .into(),
        );
    }
    let grid = GridSweep::parse_request(
        |name| match str_flag(args, &sweep_flag(name)) {
            // Refinement bisects the projection's closed form; omitting
            // --method means proj here, not the dense sweep's sim default.
            None if name == "method" && refine_raw.is_some() => Some("proj"),
            value => value,
        },
        sweep_flag,
    )?;
    // Omitted `--jobs` means "use the machine": sweeps are embarrassingly
    // parallel, so default to every available core. Explicit values are
    // still strictly validated by `positive_flag`.
    let jobs = positive_flag(args, "--jobs")?.unwrap_or_else(default_jobs);
    let csv = args.iter().any(|a| a == "--csv");
    let fabric = FabricFlags::parse(args)?;

    let device = DeviceSpec::mi210();
    let obs = ObsSession::from_args(args);

    // `--refine` replaces the dense sweep with adaptive bisection along
    // the flop-vs-bw axis: per surviving shape, find the hardware-
    // evolution ratio where the chosen metric crosses the threshold.
    if let Some(raw) = refine_raw {
        if str_flag(args, "--listen").is_some()
            || str_flag(args, "--journal").is_some()
            || str_flag(args, "--resume").is_some()
        {
            return Err("--refine is incompatible with --listen, --journal, and --resume".into());
        }
        let tol = match str_flag(args, "--refine-tol") {
            None => 0.05,
            Some(raw) => raw
                .parse::<f64>()
                .map_err(|_| format!("--refine-tol {raw}: expected a positive number"))?,
        };
        let spec = twocs::store::RefineSpec::parse(raw, tol)?;
        let result = twocs::store::refine_frontier(&device, &grid, &spec)?;
        let crossed = result
            .rows
            .iter()
            .filter(|r| matches!(r.crossing, twocs::store::Crossing::Crossed { .. }))
            .count();
        eprintln!(
            "refine: {} shape(s), {} crossed; {} evaluation(s) vs {} dense-equivalent ({:.1}x fewer)",
            result.rows.len(),
            crossed,
            result.evaluations,
            result.dense_equivalent,
            result.dense_equivalent as f64 / result.evaluations.max(1) as f64
        );
        if csv {
            println!("{}", result.table.to_csv());
        } else {
            println!("{}", result.table.to_ascii());
        }
        obs.finish()?;
        return Ok(ExitCode::SUCCESS);
    }

    // One path for every dense sweep: the executor is the local pool, or
    // with `--listen` a coordinator whose workers (`twocs worker
    // --connect`) pull chunk leases over TCP; the store streams rows to
    // stdout as chunks complete (bounded memory), journals each chunk
    // durably first under `--journal`, and picks a killed run up from its
    // last durable chunk under `--resume <journal>`. Without `--csv` the
    // store writes into a buffer and the ascii table is rendered from it.
    // Summaries stay on stderr, so stdout is byte-identical across
    // executors, `--jobs` and resumes.
    let journal = str_flag(args, "--journal");
    let resume = str_flag(args, "--resume");
    if journal.is_some() && resume.is_some() {
        return Err("--journal starts a fresh journal, --resume continues one; pick one".into());
    }
    // The journal fixes the grid; axis flags would silently disagree
    // with it.
    let grid_flag = args.iter().find(|a| {
        AXES.iter().any(|axis| axis.flag == *a)
            || ["--workload", "--b", "--method", "--chunk"].contains(&a.as_str())
    });
    if let (Some(_), Some(f)) = (resume, grid_flag) {
        return Err(
            format!("{f} conflicts with --resume: the journaled spec fixes the grid").into(),
        );
    }
    let coordinator = str_flag(args, "--listen")
        .map(|listen| fabric.bind(listen, jobs))
        .transpose()?;
    let local = LocalPool { jobs };
    let executor: &dyn GridExecutor = match &coordinator {
        Some(coordinator) => coordinator,
        None => &local,
    };
    let buffer = Buffer::default();
    let out: Box<dyn std::io::Write + Send> = if csv {
        Box::new(std::io::stdout())
    } else {
        Box::new(buffer.clone())
    };
    let store = match resume {
        Some(path) => SweepStore::resume(std::path::Path::new(path), out)?,
        None => {
            let chunk_size = fabric.chunk.unwrap_or_else(|| {
                twocs::store::default_chunk_size(executor, &grid, journal.is_some())
            });
            let spec = SweepSpec {
                sweep: grid,
                chunk_size: chunk_size as u32,
                device_name: device.name().to_owned(),
                device_fingerprint: device.fingerprint(),
            };
            SweepStore::create(spec, out, journal.map(std::path::Path::new))?
        }
    };
    // Workers are announced only once the store (and its journal) exists.
    if let Some(coordinator) = &coordinator {
        fabric.await_workers(coordinator);
    }
    let (summary, report) = twocs::store::run(executor, &device, store)?;
    if csv {
        // Parity with `println!("{}", table.to_csv())`: one extra
        // newline after the final row.
        println!();
    } else {
        let csv = String::from_utf8(buffer.take())?;
        println!("{}", GridSweep::csv_table(&csv).to_ascii());
    }
    eprintln!("{summary}");
    eprintln!(
        "store: {} row(s), {} failure(s), {} replayed chunk(s), {} spilled byte(s), {} merge pass(es)",
        report.rows,
        report.failures,
        report.replayed_chunks,
        report.spilled_bytes,
        report.merge_passes
    );
    obs.finish()?;
    Ok(if report.failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `twocs worker`: connect to a sweep coordinator and evaluate chunk
/// leases until it says `Done`. All chatter is on stderr; a worker never
/// writes the sweep table.
fn worker(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    WORKER_FLAGS.check("worker", args)?;
    let connect = str_flag(args, "--connect").ok_or("--connect <host:port> is required")?;
    let jobs = positive_flag(args, "--jobs")?.unwrap_or(1);
    let obs = ObsSession::from_args(args);
    eprintln!("twocs worker: connecting to {connect}");
    let report = twocs::dist::run_worker(&twocs::dist::WorkerConfig::new(connect, jobs))?;
    eprintln!("{report}");
    obs.finish()?;
    Ok(())
}

/// `twocs serve`: run the HTTP query service until SIGINT/SIGTERM, then
/// drain gracefully. One stdout line announces the bound address (so
/// scripts binding `:0` can discover the port); everything else goes to
/// stderr, matching the other subcommands' stdout discipline.
fn serve(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    SERVE_FLAGS.check("serve", args)?;
    let mut config = twocs::serve::ServerConfig::default();
    if let Some(addr) = str_flag(args, "--addr") {
        config.addr = addr.to_owned();
    }
    if let Some(jobs) = positive_flag(args, "--jobs")? {
        config.jobs = jobs;
    }
    if let Some(queue) = flag::<usize>(args, "--queue")? {
        config.queue = queue.max(1);
    }
    if let Some(ms) = flag::<u64>(args, "--request-timeout-ms")? {
        config.request_timeout = std::time::Duration::from_millis(ms.max(1));
    }
    if let Some(ms) = flag::<u64>(args, "--idle-timeout-ms")? {
        config.idle_timeout = std::time::Duration::from_millis(ms.max(1));
    }
    if let Some(conns) = flag::<usize>(args, "--max-conns")? {
        config.max_connections = conns.max(1);
    }
    if let Some(reqs) = flag::<u64>(args, "--max-requests-per-conn")? {
        config.max_requests_per_conn = reqs.max(1);
    }
    let fabric = FabricFlags::parse(args)?;
    if args.iter().any(|a| a == "--no-response-cache") {
        config.cache_responses = false;
    }
    if let Some(dir) = str_flag(args, "--journal-dir") {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create journal dir `{dir}`: {e}"))?;
        config.handler.journal_dir = Some(std::path::PathBuf::from(dir));
    }
    // Debug endpoints (/v1/debug/sleep) are opt-in via environment, never
    // flags, so they cannot be enabled by a copy-pasted command line.
    config.handler.enable_debug = std::env::var("TWOCS_SERVE_DEBUG").as_deref() == Ok("1");

    // `--listen` starts a sweep coordinator alongside the HTTP server
    // and plugs it into `/v1/sweep`: requests are sharded across any
    // connected `twocs worker` processes, with local evaluation as the
    // no-worker fallback. Response bodies are byte-identical either way.
    let coordinator = match str_flag(args, "--listen") {
        Some(listen) => {
            let coordinator = Arc::new(fabric.bind(listen, config.jobs)?);
            eprintln!(
                "twocs serve: sweep coordinator on {} (workers: `twocs worker --connect {}`)",
                coordinator.local_addr(),
                coordinator.local_addr()
            );
            config.handler.executor = Some(coordinator.clone() as Arc<dyn GridExecutor>);
            Some(coordinator)
        }
        None => None,
    };
    let jobs = config.jobs;
    let queue = config.queue;
    let max_conns = config.max_connections;
    let cache = if config.cache_responses { "on" } else { "off" };

    let obs = ObsSession::from_args(args);
    let server = twocs::serve::Server::bind(config)
        .map_err(|e| format!("cannot bind the requested address: {e}"))?;
    let addr = server.local_addr()?;
    println!("twocs serve: listening on http://{addr}");
    eprintln!(
        "twocs serve: {jobs} worker(s), queue depth {queue}, {max_conns} keep-alive connection budget, response cache {cache}; ctrl-c drains in-flight requests and exits"
    );
    twocs::serve::install_signal_handler();
    let stats = server.run();
    eprintln!(
        "twocs serve: shut down cleanly; {} request(s) served, {} rejected with 503",
        stats.served, stats.rejected
    );
    // Stops accepting workers and tells connected ones `Done`.
    drop(coordinator);
    obs.finish()?;
    Ok(())
}

fn analyze(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    ANALYZE_FLAGS.check("analyze", args)?;
    let h: u64 = flag(args, "--h")?.ok_or("--h <hidden size> is required")?;
    let sl = flag(args, "--sl")?.unwrap_or(2048);
    let b = flag(args, "--b")?.unwrap_or(1);
    let tp = flag(args, "--tp")?.unwrap_or(1);
    let dp = flag(args, "--dp")?.unwrap_or(1);
    let ratio = flag(args, "--flop-vs-bw")?.unwrap_or(1.0);
    check_flop_vs_bw(&[ratio])?;
    if tp == 0 || dp == 0 || dp > MAX_DP {
        return Err(format!("--tp and --dp must be non-zero, and --dp at most {MAX_DP}").into());
    }
    check_point_work(h, sl, b, tp)?;
    check_iteration_weights(h, tp, ANALYZE_LAYERS)?;

    let heads = (h / 64).clamp(16, 256);
    let hyper = Hyperparams::builder(h)
        .heads(heads)
        .layers(ANALYZE_LAYERS)
        .seq_len(sl)
        .batch(b)
        .build()?;
    let parallel = ParallelConfig::new().tensor(tp).data(dp);
    parallel.validate(&hyper)?;

    let device = if ratio > 1.0 {
        HwEvolution::flop_vs_bw(ratio).apply(&DeviceSpec::mi210())
    } else {
        DeviceSpec::mi210()
    };
    println!("model:    {hyper}");
    println!("parallel: {parallel}");
    println!("device:   {}\n", device.name());

    let obs = ObsSession::from_args(args);
    let graph = IterationBuilder::new(&hyper, &parallel, &device).build_training();
    let timeline = Engine::new().run_trace(&graph)?;
    let report = twocs::sim::SimReport::from_timeline(&timeline);
    print!("{report}");
    println!("\ntop kernels:");
    for stat in timeline.kernel_summary(8) {
        println!("  {stat}");
    }
    println!(
        "\n=> {:.1}% of the training iteration is communication on the critical path",
        100.0 * report.comm_fraction()
    );
    obs.finish()?;
    Ok(())
}
