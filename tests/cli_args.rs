//! CLI argument validation: `--jobs` must be a positive integer
//! everywhere it is accepted, every subcommand rejects flags it does not
//! know, and a bad grid is rejected with the same message `/v1/sweep`
//! gives. Historically `--jobs 0`, garbage values and unknown flags were
//! silently swallowed (a zero-thread pool, or a fallback to the
//! default); they are usage errors now.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};
use twocs::serve::handlers::{handle, HandlerConfig};
use twocs::serve::http::Request;

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

/// Every subcommand checks its arguments against its own flag list: a
/// mistyped or retired flag (such as the old `--planner`) is a usage
/// error naming it, never silently ignored while the default grid runs.
#[test]
fn unknown_flags_are_usage_errors() {
    for (cmd, flag) in [
        (&["sweep", "--planner", "naive"][..], "--planner"),
        (&["sweep", "--bogus", "1"], "--bogus"),
        (&["worker", "--bogus"], "--bogus"),
        (&["analyze", "--bogus", "1"], "--bogus"),
        (&["run", "table2", "--bogus"], "--bogus"),
    ] {
        let out = twocs(cmd);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "`twocs {}` must fail", cmd.join(" "));
        assert!(
            stderr.contains(flag),
            "`twocs {}` stderr names the flag: {stderr}",
            cmd.join(" ")
        );
        assert!(
            out.stdout.is_empty(),
            "`twocs {}` printed output",
            cmd.join(" ")
        );
    }
    // `serve` must refuse before it binds; a regression would serve
    // forever, so kill it after a deadline instead of hanging the test.
    let mut child = Command::new(env!("CARGO_BIN_EXE_twocs"))
        .args(["serve", "--addr", "127.0.0.1:0", "--bogus"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("twocs binary runs");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("poll serve").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill serve");
            child.wait().expect("reap serve");
            panic!("`twocs serve --bogus` did not exit");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("serve output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("--bogus"), "{stderr}");
    assert!(out.stdout.is_empty(), "serve announced an address");
}

/// A bad grid gets the same message from `twocs sweep` and from
/// `GET /v1/sweep`: both front ends run `GridSweep::validate`.
#[test]
fn bad_grids_get_the_same_message_from_cli_and_serve() {
    let cases: &[(&[&str], &str, &str)] = &[
        (
            &["--h", "1000"],
            "h=1000",
            "h=1000: hidden sizes must be non-zero multiples of 256",
        ),
        (
            &["--h", "0"],
            "h=0",
            "h=0: hidden sizes must be non-zero multiples of 256",
        ),
        (
            &["--tp", "0"],
            "tp=0",
            "sl, tp, and b values must be non-zero",
        ),
        (
            &["--b", "0"],
            "b=0",
            "sl, tp, and b values must be non-zero",
        ),
        (
            &["--flop-vs-bw", "0.5", "--method", "proj"],
            "flop_vs_bw=0.5&method=proj",
            "flop_vs_bw ratios must be finite and >= 1",
        ),
        (
            &["--flop-vs-bw", "nan", "--method", "proj"],
            "flop_vs_bw=nan&method=proj",
            "flop_vs_bw ratios must be finite and >= 1",
        ),
        (
            &["--flop-vs-bw", "inf", "--method", "proj"],
            "flop_vs_bw=inf&method=proj",
            "flop_vs_bw ratios must be finite and >= 1",
        ),
        (
            &["--flop-vs-bw", "0.5,1", "--method", "proj"],
            "flop_vs_bw=0.5,1&method=proj",
            "flop_vs_bw ratios must be finite and >= 1",
        ),
        (
            &["--flop-vs-bw", "1e300", "--method", "proj"],
            "flop_vs_bw=1e300&method=proj",
            "flop_vs_bw=1e300: ratios above 1e290 overflow the evolved device's peak FLOPS",
        ),
        (
            &["--h", "1099511627776", "--tp", "256", "--method", "proj"],
            "h=1099511627776&tp=256&method=proj",
            "h=1099511627776, sl=4096, b=1, tp=256: the point's largest GEMM or transfer \
             exceeds 2^58 flops or bytes",
        ),
        (
            &[
                "--h",
                "18446744073709551360",
                "--tp",
                "256",
                "--method",
                "proj",
            ],
            "h=18446744073709551360&tp=256&method=proj",
            "shrink h, sl or b",
        ),
        (
            &["--sl", "1099511627776"],
            "sl=1099511627776",
            "sl=1099511627776, b=1, tp=16: the point's largest GEMM or transfer",
        ),
        (
            &["--sl", "18446744073709551615", "--method", "proj"],
            "sl=18446744073709551615&method=proj",
            "shrink h, sl or b",
        ),
        (
            &["--sl", "4294967296", "--b", "4294967296"],
            "sl=4294967296&b=4294967296",
            "sl=4294967296, b=4294967296, tp=16: the point's largest GEMM or transfer",
        ),
        (
            &["--stages", "0", "--method", "proj"],
            "stages=0&method=proj",
            "experts, top_k, stages, micro_batches, and sp values must be non-zero",
        ),
        (
            &["--experts", "1099511627776", "--method", "proj"],
            "experts=1099511627776&method=proj",
            "experts=1099511627776: experts, stages and sp count the devices of one group, at most 256",
        ),
        (
            &["--stages", "1099511627776", "--method", "proj"],
            "stages=1099511627776&method=proj",
            "stages=1099511627776: experts, stages and sp count the devices of one group, at most 256",
        ),
        (
            &["--sp", "1099511627776", "--method", "proj"],
            "sp=1099511627776&method=proj",
            "sp=1099511627776: experts, stages and sp count the devices of one group, at most 256",
        ),
        (
            &[
                "--stages",
                "256",
                "--micro-batches",
                "18446744073709551615",
                "--method",
                "proj",
            ],
            "stages=256&micro_batches=18446744073709551615&method=proj",
            "micro_batches=18446744073709551615: at most sl*b = 2048",
        ),
        (
            &["--sl", "2048,8", "--b", "2", "--micro-batches", "8,17", "--method", "proj"],
            "sl=2048,8&b=2&micro_batches=8,17&method=proj",
            "micro_batches=17: at most sl*b = 16 (the shortest sequence's tokens)",
        ),
        (
            &["--experts", "512", "--top-k", "512", "--method", "proj"],
            "experts=512&top_k=512&method=proj",
            "experts=512: experts, stages and sp count",
        ),
        (
            &["--experts", "2", "--top-k", "4", "--method", "proj"],
            "experts=2&top_k=4&method=proj",
            "top_k exceeds experts for every requested combination",
        ),
        (
            &["--workload", "decode"],
            "workload=decode",
            "workload=decode requires method=proj",
        ),
        (
            &["--sp", "2"],
            "sp=2",
            "experts/stages/sp above 1 require method=proj",
        ),
        (
            &["--h", "65536", "--tp", "4", "--method", "proj"],
            "h=65536&tp=4&method=proj",
            "grid has no realistic points",
        ),
    ];
    let cfg = HandlerConfig::default();
    for (cli, query, message) in cases {
        let mut args = vec!["sweep", "--csv"];
        args.extend_from_slice(cli);
        let out = twocs(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "`twocs {}` must fail",
            args.join(" ")
        );
        assert!(
            stderr.contains(message),
            "`twocs {}`: {stderr}",
            args.join(" ")
        );
        assert!(
            out.stdout.is_empty(),
            "`twocs {}` printed rows",
            args.join(" ")
        );
        let r = handle(&Request::get("/v1/sweep", query), &cfg);
        assert_eq!(r.status, 400, "`{query}`: {}", r.body);
        assert!(r.body.contains(message), "`{query}`: {}", r.body);
    }
}

/// `twocs analyze` refuses a point it cannot price, or would price as
/// another point, with exit status 1 instead of a panic, in the sweep's
/// wording where the rule is the sweep's.
#[test]
fn analyze_rejects_bad_points_without_panicking() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["--flop-vs-bw", "0.5"],
            "flop_vs_bw ratios must be finite and >= 1",
        ),
        (
            &["--flop-vs-bw", "nan"],
            "flop_vs_bw ratios must be finite and >= 1",
        ),
        (
            &["--flop-vs-bw", "1e300"],
            "flop_vs_bw=1e300: ratios above 1e290 overflow the evolved device's peak FLOPS",
        ),
        (
            &["--sl", "18446744073709551615"],
            "h=16384, sl=18446744073709551615, b=1, tp=1: the point's largest GEMM or transfer \
             exceeds 2^58 flops or bytes",
        ),
        (&["--b", "18446744073709551615"], "shrink h, sl or b"),
        (
            &["--h", "1099511627776", "--tp", "16"],
            "h=1099511627776, sl=2048, b=1, tp=16: the point's largest GEMM or transfer",
        ),
        (&["--dp", "0"], "--tp and --dp must be non-zero"),
        (&["--tp", "0"], "--tp and --dp must be non-zero"),
        (&["--dp", "18446744073709551615"], "--dp at most 1048576"),
        (
            &["--h", "134217728", "--sl", "1", "--dp", "2"],
            "h=134217728, tp=1: 4 layers of h*h*12/tp fp16 weights exceed 2^58 bytes per device",
        ),
    ];
    for (extra, message) in cases {
        let mut args = vec!["analyze"];
        if !extra.contains(&"--h") {
            args.extend(["--h", "16384"]);
        }
        args.extend_from_slice(extra);
        let out = twocs(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "`twocs {}`: {stderr}",
            args.join(" ")
        );
        assert!(
            stderr.contains(message),
            "`twocs {}`: {stderr}",
            args.join(" ")
        );
    }
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
