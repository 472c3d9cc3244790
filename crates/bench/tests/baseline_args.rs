//! The bench bins refuse a `--baseline` that names their own `--out`
//! file: they write results before gating them, so such a run would be
//! gated against itself. The refusal is the config-error exit (2), and
//! it comes before any benchmark runs or any file is written.

use std::path::PathBuf;
use std::process::Command;

/// A fresh directory holding `name` with known contents.
fn dir_with(bin: &str, name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("twocs-baseline-args-{bin}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(name), "committed baseline").unwrap();
    dir
}

fn refuses(exe: &str, bin: &str, default_out: &str) {
    let dir = dir_with(bin, default_out);
    for args in [
        vec!["--baseline", default_out],
        vec![
            "--baseline",
            default_out,
            "--out",
            &format!("./{default_out}"),
        ],
        vec!["--out", "copy.json", "--baseline", "copy.json", "--smoke"],
    ] {
        let out = Command::new(exe)
            .args(&args)
            .current_dir(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains("is the file --out writes"),
            "{bin} {args:?}: {stderr}"
        );
    }
    assert_eq!(
        std::fs::read_to_string(dir.join(default_out)).unwrap(),
        "committed baseline"
    );
    assert!(!dir.join("copy.json").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sweep_perf_refuses_a_baseline_that_is_its_out_file() {
    refuses(
        env!("CARGO_BIN_EXE_sweep_perf"),
        "sweep_perf",
        "BENCH_sweep.json",
    );
}

#[test]
fn dist_perf_refuses_a_baseline_that_is_its_out_file() {
    refuses(
        env!("CARGO_BIN_EXE_dist_perf"),
        "dist_perf",
        "BENCH_dist.json",
    );
}
