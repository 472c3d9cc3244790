//! End-to-end determinism of the parallel sweep engine: whatever the
//! worker-thread count, the CLI's stdout must be byte-identical — the
//! summary (timings, cache rates) goes to stderr precisely so that CSV
//! artifacts can be diffed across machines and `--jobs` settings.

use std::process::{Command, Output};
use twocs::analysis::experiments;
use twocs::analysis::serialized::Method;
use twocs::analysis::sweep::{eval_grid_point, run_experiments, run_tasks, GridSweep};
use twocs::hw::DeviceSpec;

fn twocs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_twocs"))
        .args(args)
        .output()
        .expect("twocs binary runs")
}

/// Run `twocs` with `TWOCS_TRACE_CLOCK=logical` and `--trace` into a
/// temp file, returning `(stdout, trace JSON)`.
fn twocs_traced(args: &[&str], tag: &str) -> (Vec<u8>, String) {
    let path = std::env::temp_dir().join(format!("twocs-trace-{tag}-{}.json", std::process::id()));
    let mut full: Vec<&str> = args.to_vec();
    let path_str = path.to_str().expect("utf-8 temp path").to_owned();
    full.extend_from_slice(&["--trace", &path_str]);
    let out = Command::new(env!("CARGO_BIN_EXE_twocs"))
        .args(&full)
        .env("TWOCS_TRACE_CLOCK", "logical")
        .output()
        .expect("twocs binary runs");
    assert!(out.status.success(), "traced run failed: {full:?}");
    let trace = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    (out.stdout, trace)
}

#[test]
fn run_all_csv_is_byte_identical_across_jobs() {
    let serial = twocs(&["run", "all", "--csv", "--jobs", "1"]);
    let parallel = twocs(&["run", "all", "--csv", "--jobs", "8"]);
    assert!(serial.status.success(), "serial run failed");
    assert!(parallel.status.success(), "parallel run failed");
    assert_eq!(
        serial.stdout, parallel.stdout,
        "parallel stdout diverged from serial"
    );
    // The summary lands on stderr, not in the CSV stream.
    let summary = String::from_utf8_lossy(&parallel.stderr);
    assert!(summary.contains("worker threads"), "{summary}");
    // No model memo cache outlives a sweep, so none is reported.
    for gone in [
        "gemm-time:",
        "collective:",
        "slack-roi:",
        "caches (this sweep)",
    ] {
        assert!(!summary.contains(gone), "{summary}");
    }
}

#[test]
fn sweep_csv_is_byte_identical_across_jobs() {
    let grid = ["--h", "4096,16384", "--sl", "2048", "--tp", "16,64"];
    let mut serial_args = vec!["sweep", "--csv", "--jobs", "1"];
    serial_args.extend_from_slice(&grid);
    let mut parallel_args = vec!["sweep", "--csv", "--jobs", "8"];
    parallel_args.extend_from_slice(&grid);
    let serial = twocs(&serial_args);
    let parallel = twocs(&parallel_args);
    assert!(serial.status.success() && parallel.status.success());
    assert_eq!(serial.stdout, parallel.stdout);
    assert!(!serial.stdout.is_empty());
}

/// The factored planner is a pure performance optimisation: the
/// fig10-class projection grid that `twocs sweep` renders through it is
/// byte-identical to the naive per-point kernel (`eval_grid_point`)
/// rendered by the same table formatter.
#[test]
fn factored_sweep_csv_is_byte_identical_to_the_naive_kernel() {
    let out = twocs(&[
        "sweep",
        "--h",
        "4096,16384,65536",
        "--sl",
        "2048,4096",
        "--tp",
        "4,8,16,32,64,128,256",
        "--flop-vs-bw",
        "1",
        "--method",
        "proj",
        "--jobs",
        "4",
        "--csv",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let grid = GridSweep {
        hs: vec![4096, 16_384, 65_536],
        sls: vec![2048, 4096],
        tps: vec![4, 8, 16, 32, 64, 128, 256],
        flop_vs_bw: vec![1.0],
        method: Method::Projection,
        ..GridSweep::default()
    };
    let device = DeviceSpec::mi210();
    let points = grid.points();
    let results: Vec<_> = points
        .iter()
        .map(|&p| {
            Ok(eval_grid_point(
                &device,
                p,
                grid.batch,
                grid.method,
                grid.workload,
            ))
        })
        .collect();
    let naive = GridSweep::tabulate(&points, &results).to_csv() + "\n";
    assert_eq!(String::from_utf8_lossy(&out.stdout), naive);
}

/// The new MoE/PP/SP axis flags and the workload selector keep the
/// byte-identity contract: `--jobs 1` vs `--jobs 8` CSVs are identical,
/// the extended columns appear, and each workload produces its own
/// deterministic artifact.
#[test]
fn extended_axis_sweep_csv_is_byte_identical_across_jobs() {
    let grid = [
        "--h",
        "4096,16384",
        "--sl",
        "2048",
        "--tp",
        "16,64",
        "--flop-vs-bw",
        "1,4",
        "--experts",
        "1,8",
        "--top-k",
        "2",
        "--stages",
        "1,4",
        "--micro-batches",
        "4",
        "--sp",
        "1,2",
        "--method",
        "proj",
    ];
    let mut artifacts = Vec::new();
    for workload in ["training", "prefill", "decode"] {
        let mut serial_args = vec!["sweep", "--csv", "--jobs", "1", "--workload", workload];
        serial_args.extend_from_slice(&grid);
        let mut parallel_args = vec!["sweep", "--csv", "--jobs", "8", "--workload", workload];
        parallel_args.extend_from_slice(&grid);
        let serial = twocs(&serial_args);
        let parallel = twocs(&parallel_args);
        assert!(
            serial.status.success() && parallel.status.success(),
            "{workload}"
        );
        assert_eq!(serial.stdout, parallel.stdout, "workload {workload}");
        let csv = String::from_utf8(serial.stdout).expect("utf-8 CSV");
        let header = csv.lines().next().expect("non-empty CSV");
        assert!(
            header.contains("experts") && header.contains("stages") && header.contains("sp"),
            "extended columns missing: {header}"
        );
        artifacts.push(csv);
    }
    // Prefill and decode weigh communication differently: the artifacts
    // must be per-workload, not a shared cache hit.
    assert_ne!(artifacts[0], artifacts[1], "training vs prefill");
    assert_ne!(artifacts[1], artifacts[2], "prefill vs decode");
}

/// A legacy invocation (no axis flags) still produces the exact pre-axis
/// 6-column CSV — the default axes never perturb existing artifacts.
#[test]
fn legacy_sweep_csv_keeps_the_six_column_header() {
    let out = twocs(&[
        "sweep", "--csv", "--h", "4096", "--sl", "2048", "--tp", "16,64",
    ]);
    assert!(out.status.success());
    let csv = String::from_utf8(out.stdout).expect("utf-8 CSV");
    assert!(
        csv.starts_with("H,SL,TP,flop_vs_bw,serialized_pct,overlap_pct\n"),
        "legacy header changed: {}",
        csv.lines().next().unwrap_or_default()
    );
}

#[test]
fn logical_clock_traces_are_byte_identical_across_jobs() {
    // The tentpole determinism claim: under the logical trace clock, the
    // Chrome-trace output of `twocs run` is byte-identical for any
    // worker count — worker identity is erased and every span lives in a
    // window derived from its task index, not from scheduling.
    let reference = twocs_traced(&["run", "all", "--csv", "--jobs", "1"], "run-j1");
    for jobs in ["4", "8"] {
        let traced = twocs_traced(&["run", "all", "--csv", "--jobs", jobs], "run-jn");
        assert_eq!(
            reference.1, traced.1,
            "logical trace diverged between --jobs 1 and --jobs {jobs}"
        );
        assert_eq!(reference.0, traced.0, "stdout diverged at --jobs {jobs}");
    }
    // And it is a well-formed Chrome-trace document with both sweep-pool
    // lifecycles and simulator kernels in it.
    twocs::obs::json::validate(&reference.1).expect("trace is valid JSON");
    assert!(reference.1.starts_with("{\"traceEvents\":["));
    assert!(reference.1.contains("\"cat\":\"task\""));
    assert!(reference.1.contains("\"cat\":\"gemm\""));
    assert!(reference.1.contains("sweep-pool"));
}

/// Tracing never perturbs stdout, and a logical-clock trace is
/// byte-identical at any `--jobs`, for an in-memory sweep and for a
/// journaled one (one chunk per point, so every point gets its own task
/// scope whichever worker evaluates it).
#[test]
fn sweep_trace_is_deterministic_and_stdout_unchanged_by_tracing() {
    let grid = [
        "sweep", "--csv", "--h", "4096", "--sl", "2048", "--tp", "16,32",
    ];
    for journaled in [false, true] {
        let journal =
            std::env::temp_dir().join(format!("twocs-trace-sweep-{}.journal", std::process::id()));
        let journal = journal.to_str().expect("utf-8 temp path").to_owned();
        let run = |jobs: &str, traced: bool| {
            let mut args = grid.to_vec();
            args.extend_from_slice(&["--jobs", jobs]);
            if journaled {
                let _ = std::fs::remove_file(&journal);
                args.extend_from_slice(&["--journal", &journal, "--chunk", "1"]);
            }
            let out = if traced {
                twocs_traced(&args, "sweep")
            } else {
                let out = twocs(&args);
                assert!(out.status.success());
                (out.stdout, String::new())
            };
            let _ = std::fs::remove_file(&journal);
            out
        };
        let untraced = run("4", false).0;
        let mut traces = Vec::new();
        for jobs in ["1", "4", "8"] {
            let (stdout, trace) = run(jobs, true);
            // --trace must not perturb the CSV contract at any job count.
            assert_eq!(
                stdout, untraced,
                "--trace changed stdout at --jobs {jobs} (journaled: {journaled})"
            );
            traces.push(trace);
        }
        assert_eq!(
            traces[0], traces[1],
            "sweep trace diverged between jobs 1 and 4 (journaled: {journaled})"
        );
        assert_eq!(
            traces[1], traces[2],
            "sweep trace diverged between jobs 4 and 8 (journaled: {journaled})"
        );
        twocs::obs::json::validate(&traces[0]).expect("sweep trace is valid JSON");
    }
}

/// The ascii sweep table (no `--csv`) is pinned byte for byte to goldens
/// in `tests/golden_sweep/`, for a legacy simulation grid and an
/// extended-axis projection grid.
#[test]
fn sweep_ascii_output_matches_its_goldens() {
    for (golden, grid) in [
        (
            "legacy_sim.txt",
            &[
                "--h",
                "4096,8192",
                "--sl",
                "2048",
                "--tp",
                "16,32",
                "--flop-vs-bw",
                "1,4",
            ][..],
        ),
        (
            "extended_proj.txt",
            &[
                "--h",
                "4096",
                "--tp",
                "16",
                "--flop-vs-bw",
                "1,4",
                "--experts",
                "1,8",
                "--top-k",
                "1",
                "--stages",
                "1,2",
                "--workload",
                "prefill",
                "--method",
                "proj",
            ][..],
        ),
    ] {
        let mut args = vec!["sweep", "--jobs", "2"];
        args.extend_from_slice(grid);
        let out = twocs(&args);
        assert!(
            out.status.success(),
            "{golden}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let path = format!("{}/tests/golden_sweep/{golden}", env!("CARGO_MANIFEST_DIR"));
        let want = std::fs::read_to_string(&path).expect("golden exists");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            want,
            "ascii drifted from {golden}"
        );
    }
}

#[test]
fn metrics_flag_reports_pool_metrics_without_model_caches_on_stderr() {
    let out = twocs(&["run", "table2", "--csv", "--metrics"]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("metrics:"), "{stderr}");
    for gone in ["cache.gemm_time", "cache.collective", "cache.slack_roi"] {
        assert!(!stderr.contains(gone), "{stderr}");
    }
    assert!(stderr.contains("sweep.tasks_total"), "{stderr}");
    // Nothing observability-related leaks into stdout.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("metrics:"), "{stdout}");
}

#[test]
fn panicking_experiment_fails_alone_and_pool_survives() {
    fn boom(_: &DeviceSpec) -> twocs::analysis::ExperimentOutput {
        panic!("injected failure");
    }
    let mut defs = vec![experiments::by_id("table2").expect("table2 registered")];
    defs.push(twocs::analysis::ExperimentDef {
        id: "boom",
        title: "injected",
        paper_claim: "",
        run: boom,
    });
    defs.extend(experiments::by_id("fig11"));
    let run = run_experiments(&DeviceSpec::mi210(), &defs, 4);
    assert_eq!(run.summary.failures, 1);
    assert!(run.results[0].output.is_ok());
    let err = run.results[1].output.as_ref().unwrap_err();
    assert!(err.contains("injected failure"), "{err}");
    assert!(run.results[2].output.is_ok(), "pool died after a panic");

    // The same pool primitive keeps scheduling after repeated panics.
    let again = run_tasks(2, 8, |i| {
        assert!(i % 2 == 0, "odd task {i}");
        i
    });
    assert_eq!(again.iter().filter(|t| t.result.is_err()).count(), 4);
    assert_eq!(again.iter().filter(|t| t.result.is_ok()).count(), 4);
}
