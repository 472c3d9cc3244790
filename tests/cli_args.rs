//! CLI argument validation: `--jobs` must be a positive integer
//! everywhere it is accepted. Historically `--jobs 0` and garbage values
//! were silently swallowed (a zero-thread pool, or a fallback to the
//! default); they are usage errors now.

use std::process::{Command, Output};

fn twocs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_twocs"))
        .args(args)
        .output()
        .expect("twocs binary runs")
}

#[test]
fn jobs_zero_is_rejected_with_a_usage_error() {
    for cmd in [
        vec!["run", "table2", "--jobs", "0"],
        vec!["sweep", "--jobs", "0"],
        vec!["serve", "--addr", "127.0.0.1:0", "--jobs", "0"],
        vec!["worker", "--connect", "127.0.0.1:1", "--jobs", "0"],
    ] {
        let out = twocs(&cmd);
        assert!(!out.status.success(), "`twocs {}` must fail", cmd.join(" "));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--jobs 0") && stderr.contains("positive"),
            "`twocs {}` stderr names the bad flag: {stderr}",
            cmd.join(" ")
        );
        assert!(out.stdout.is_empty(), "no partial output on a usage error");
    }
}

#[test]
fn non_numeric_jobs_is_rejected() {
    for bad in ["x", "-1", "1.5", ""] {
        let out = twocs(&["sweep", "--jobs", bad]);
        assert!(!out.status.success(), "--jobs {bad:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("positive"), "--jobs {bad:?}: {stderr}");
    }
}

#[test]
fn jobs_without_a_value_is_rejected() {
    let out = twocs(&["sweep", "--jobs"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--jobs requires a value"), "{stderr}");
}

#[test]
fn valid_jobs_still_works() {
    let out = twocs(&[
        "sweep", "--csv", "--h", "4096", "--sl", "2048", "--tp", "16", "--jobs", "2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty());
}

#[test]
fn sweep_jobs_defaults_to_available_parallelism() {
    let out = twocs(&[
        "sweep", "--csv", "--h", "4096", "--sl", "2048", "--tp", "16",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let expected = std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let want = format!(
        "on {expected} worker thread{}",
        if expected == 1 { "" } else { "s" }
    );
    assert!(
        stderr.contains(&want),
        "summary should report {expected} default workers: {stderr}"
    );
}

#[test]
fn sweep_rejects_unknown_planner() {
    let out = twocs(&["sweep", "--planner", "warp"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown planner"), "{stderr}");
}

#[test]
fn worker_requires_connect() {
    let out = twocs(&["worker"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--connect"), "{stderr}");
}

/// Every numeric flag is strict: an unparsable value, a missing value,
/// or a zero `--chunk`/`--pipeline` is a usage error naming the flag,
/// never a silent fallback to the default or a clamp to 1. Each command
/// must fail before it binds a socket or evaluates anything.
#[test]
fn numeric_flags_reject_garbage_and_zero_counts() {
    let cases: &[(&[&str], &str)] = &[
        (
            &[
                "sweep",
                "--listen",
                "127.0.0.1:0",
                "--pipeline",
                "abc",
                "--chunk",
                "4",
            ],
            "--pipeline abc",
        ),
        (
            &["sweep", "--listen", "127.0.0.1:0", "--chunk", "0"],
            "--chunk 0",
        ),
        (&["sweep", "--pipeline", "0"], "--pipeline 0"),
        (&["sweep", "--chunk", "-4"], "--chunk -4"),
        (&["sweep", "--b", "two"], "--b"),
        (
            &["sweep", "--listen", "127.0.0.1:0", "--min-workers", "x"],
            "--min-workers",
        ),
        (
            &["sweep", "--csv", "--journal", "j.journal", "--chunk", "1.5"],
            "--chunk 1.5",
        ),
        (
            &["sweep", "--min-workers-timeout-ms"],
            "--min-workers-timeout-ms requires a value",
        ),
        (
            &["serve", "--addr", "127.0.0.1:0", "--pipeline", "0"],
            "--pipeline 0",
        ),
        (
            &["serve", "--addr", "127.0.0.1:0", "--queue", "deep"],
            "--queue",
        ),
        (
            &["serve", "--addr", "127.0.0.1:0", "--max-conns", "-1"],
            "--max-conns",
        ),
        (
            &["worker", "--connect", "127.0.0.1:1", "--jobs", "1.5"],
            "--jobs 1.5",
        ),
        (
            &["worker", "--connect", "127.0.0.1:1", "--jobs"],
            "--jobs requires a value",
        ),
        (&["analyze", "--h", "16k"], "--h"),
    ];
    for (cmd, names) in cases {
        let out = twocs(cmd);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "`twocs {}` must fail", cmd.join(" "));
        assert!(
            stderr.contains(names),
            "`twocs {}` stderr names the bad flag: {stderr}",
            cmd.join(" ")
        );
        assert!(
            out.stdout.is_empty(),
            "`twocs {}` printed output",
            cmd.join(" ")
        );
    }
    assert!(
        !std::path::Path::new("j.journal").exists(),
        "no journal created"
    );
}
