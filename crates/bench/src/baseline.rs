//! Perf-regression gate support: parse a committed `BENCH_sweep.json`
//! baseline and compare a fresh run's means against it.
//!
//! The workspace has no JSON value parser (only the
//! [`twocs_obs::json::validate`] well-formedness checker), so this
//! module scans the one shape `sweep_perf` emits: a top-level
//! `"results"` array of flat objects carrying `"group"`, `"id"` and
//! `"mean_ns"` fields. The scanner is string- and escape-aware, so a
//! reformatted (but well-formed) baseline still parses.
//!
//! [`gate`] is the CI policy: for every `(group, id)` pair present in
//! **both** the baseline and the current run and belonging to one of the
//! gated groups, the current mean must not exceed the baseline mean by
//! more than the allowed percentage. An empty intersection is an error,
//! not a pass — a renamed benchmark must not silently disable the gate.

use std::fmt;
use std::path::Path;

use crate::harness::BenchResult;

/// One benchmark mean from a `BENCH_sweep.json` results array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Benchmark group (e.g. `sweep_warm`).
    pub group: String,
    /// Benchmark id within the group (e.g. `factored`).
    pub id: String,
    /// Mean wall time per iteration, nanoseconds.
    pub mean_ns: u128,
}

/// Outcome of gating one `(group, id)` pair against the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    /// Benchmark group.
    pub group: String,
    /// Benchmark id.
    pub id: String,
    /// Committed baseline mean, nanoseconds.
    pub baseline_ns: u128,
    /// This run's mean, nanoseconds.
    pub current_ns: u128,
    /// Relative slowdown in percent (negative = faster than baseline).
    pub slowdown_pct: f64,
    /// Whether the slowdown exceeds the allowed regression.
    pub regressed: bool,
}

impl fmt::Display for GateCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}: baseline {} ns, current {} ns ({:+.1}%) {}",
            self.group,
            self.id,
            self.baseline_ns,
            self.current_ns,
            self.slowdown_pct,
            if self.regressed { "REGRESSED" } else { "ok" },
        )
    }
}

/// Extract the text between the brackets of the top-level `"results"`
/// array, honouring strings and escapes.
fn results_array(json: &str) -> Result<&str, String> {
    let key = json
        .find("\"results\"")
        .ok_or("no \"results\" array in baseline")?;
    let bytes = json.as_bytes();
    let mut i = key + "\"results\"".len();
    while i < bytes.len() && bytes[i] != b'[' {
        i += 1;
    }
    if i == bytes.len() {
        return Err("\"results\" key has no array value".to_owned());
    }
    let open = i;
    let (mut depth, mut in_str, mut esc) = (0i32, false, false);
    while i < bytes.len() {
        let b = bytes[i];
        if in_str {
            if esc {
                esc = false;
            } else if b == b'\\' {
                esc = true;
            } else if b == b'"' {
                in_str = false;
            }
        } else {
            match b {
                b'"' => in_str = true,
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(&json[open + 1..i]);
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
    Err("unterminated \"results\" array".to_owned())
}

/// Split a flat-object array body into one `{...}` slice per object.
fn objects(array: &str) -> Vec<&str> {
    let bytes = array.as_bytes();
    let mut out = Vec::new();
    let (mut start, mut depth, mut in_str, mut esc) = (None, 0i32, false, false);
    for (i, &b) in bytes.iter().enumerate() {
        if in_str {
            if esc {
                esc = false;
            } else if b == b'\\' {
                esc = true;
            } else if b == b'"' {
                in_str = false;
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    if let Some(s) = start.take() {
                        out.push(&array[s..=i]);
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// The string value of `key` in a flat JSON object slice. `sweep_perf`
/// never emits quotes inside group/id names, so the value ends at the
/// first unescaped `"`.
fn string_field(obj: &str, key: &str) -> Option<String> {
    let rest = field_value(obj, key)?;
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_owned())
}

/// The non-negative integer value of `key` in a flat JSON object slice.
fn integer_field(obj: &str, key: &str) -> Option<u128> {
    let rest = field_value(obj, key)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The raw text following `"key":` in a flat JSON object slice.
fn field_value<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let rest = &obj[obj.find(&needle)? + needle.len()..];
    Some(rest.trim_start().strip_prefix(':')?.trim_start())
}

/// Parse every `(group, id, mean_ns)` triple out of a `BENCH_sweep.json`
/// document.
///
/// # Errors
/// Returns an error when the document is not well-formed JSON, has no
/// `"results"` array, or a results entry is missing one of the three
/// gated fields.
pub fn parse_results(json: &str) -> Result<Vec<BaselineEntry>, String> {
    twocs_obs::json::validate(json).map_err(|e| format!("malformed baseline JSON: {e}"))?;
    let array = results_array(json)?;
    objects(array)
        .into_iter()
        .enumerate()
        .map(|(i, obj)| {
            Ok(BaselineEntry {
                group: string_field(obj, "group")
                    .ok_or_else(|| format!("results[{i}]: missing \"group\""))?,
                id: string_field(obj, "id")
                    .ok_or_else(|| format!("results[{i}]: missing \"id\""))?,
                mean_ns: integer_field(obj, "mean_ns")
                    .ok_or_else(|| format!("results[{i}]: missing \"mean_ns\""))?,
            })
        })
        .collect()
}

/// Gate `current` against `baseline`: every `(group, id)` present in
/// both and whose group is listed in `groups` must not be slower than
/// `baseline` by more than `max_regress_pct` percent. Checks come back
/// in `current` order, pass and fail alike, so callers can print the
/// full comparison.
///
/// # Errors
/// Returns an error when the gated intersection is empty — a missing or
/// renamed benchmark must fail loudly instead of waving the gate
/// through.
pub fn gate(
    baseline: &[BaselineEntry],
    current: &[BaselineEntry],
    groups: &[&str],
    max_regress_pct: f64,
) -> Result<Vec<GateCheck>, String> {
    let checks: Vec<GateCheck> = current
        .iter()
        .filter(|c| groups.contains(&c.group.as_str()))
        .filter_map(|c| {
            let base = baseline
                .iter()
                .find(|b| b.group == c.group && b.id == c.id)?;
            #[allow(clippy::cast_precision_loss)]
            let slowdown_pct = (c.mean_ns as f64 / (base.mean_ns.max(1)) as f64 - 1.0) * 100.0;
            Some(GateCheck {
                group: c.group.clone(),
                id: c.id.clone(),
                baseline_ns: base.mean_ns,
                current_ns: c.mean_ns,
                slowdown_pct,
                regressed: slowdown_pct > max_regress_pct,
            })
        })
        .collect();
    if checks.is_empty() {
        return Err(format!(
            "no benchmarks in groups {groups:?} are present in both the baseline and this run"
        ));
    }
    Ok(checks)
}

/// Refuse a `--baseline` that names the file `--out` writes. A bench
/// bin writes its results before it gates them, so the run would be
/// gated against itself and pass every row.
///
/// # Errors
/// Names the path and both flags.
pub fn check_baseline_is_not_out(baseline: &str, out: &str) -> Result<(), String> {
    let same = match (std::fs::canonicalize(baseline), std::fs::canonicalize(out)) {
        (Ok(b), Ok(o)) => b == o,
        _ => Path::new(baseline) == Path::new(out),
    };
    if same {
        return Err(format!(
            "--baseline {baseline} is the file --out writes, so the run would be gated against \
             itself; pass --out another path"
        ));
    }
    Ok(())
}

/// The CI perf gate of a bench bin named `bin`: compare `results` —
/// minus any with an id in `ungated` — against the committed baseline at
/// `path` over `groups`, print every check, and exit with status 2 when
/// the gate is unusable or 1 when a benchmark is more than
/// `max_regress_pct` percent slower.
///
/// # Panics
/// When the baseline file cannot be read or parsed.
pub fn run_gate(
    bin: &str,
    results: &[BenchResult],
    path: &str,
    groups: &[&str],
    ungated: &[&str],
    max_regress_pct: f64,
) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
    let baseline = parse_results(&text).unwrap_or_else(|e| panic!("parse baseline {path}: {e}"));
    let current: Vec<BaselineEntry> = results
        .iter()
        .filter(|r| !ungated.contains(&r.id()))
        .map(|r| BaselineEntry {
            group: r.group().to_owned(),
            id: r.id().to_owned(),
            mean_ns: r.mean().as_nanos(),
        })
        .collect();
    let checks = gate(&baseline, &current, groups, max_regress_pct).unwrap_or_else(|e| {
        eprintln!("{bin}: perf gate is unusable: {e}");
        std::process::exit(2);
    });
    eprintln!("{bin}: perf gate vs {path} (max regress {max_regress_pct}%):");
    for check in &checks {
        eprintln!("  {check}");
    }
    let regressed = checks.iter().filter(|c| c.regressed).count();
    if regressed > 0 {
        eprintln!(
            "{bin}: PERF REGRESSION — {regressed} benchmark(s) slower than the committed \
             baseline by more than {max_regress_pct}%"
        );
        std::process::exit(1);
    }
    eprintln!("{bin}: perf gate passed");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The emitted `BENCH_sweep.json` shape, abridged.
    const DOC: &str = r#"{
  "benchmark": "sweep_perf",
  "grid": {"points": 26, "h": [4096], "method": "projection"},
  "jobs": 4,
  "smoke": false,
  "byte_identical_naive_factored": true,
  "results": [
    {"group": "serve_sweep", "id": "factored", "samples": 12, "mean_ns": 2000000, "min_ns": 1, "max_ns": 3},
    {"group": "sweep_warm", "id": "naive", "samples": 12, "mean_ns": 572047, "min_ns": 1, "max_ns": 3},
    {"group": "sweep_warm", "id": "factored", "samples": 12, "mean_ns": 154178, "min_ns": 1, "max_ns": 3},
    {"group": "dist_chunks", "id": "eval_chunk", "samples": 12, "mean_ns": 61865, "min_ns": 1, "max_ns": 3}
  ],
  "warm_speedup_factored_vs_naive": 3.7103
}
"#;

    fn entry(group: &str, id: &str, mean_ns: u128) -> BaselineEntry {
        BaselineEntry {
            group: group.to_owned(),
            id: id.to_owned(),
            mean_ns,
        }
    }

    #[test]
    fn parses_the_emitted_shape() {
        let entries = parse_results(DOC).unwrap();
        assert_eq!(entries.len(), 4);
        assert_eq!(entries[1], entry("sweep_warm", "naive", 572047));
        assert_eq!(entries[3], entry("dist_chunks", "eval_chunk", 61865));
    }

    #[test]
    fn rejects_malformed_json_and_missing_fields() {
        assert!(parse_results("{\"results\": [").is_err());
        assert!(parse_results("{\"benchmark\": \"x\"}").is_err());
        let no_mean = r#"{"results": [{"group": "g", "id": "i"}]}"#;
        assert!(parse_results(no_mean).unwrap_err().contains("mean_ns"));
    }

    #[test]
    fn identical_run_passes_the_gate() {
        let base = parse_results(DOC).unwrap();
        let checks = gate(&base, &base, &["sweep_warm", "dist_chunks"], 20.0).unwrap();
        assert_eq!(checks.len(), 3);
        assert!(checks.iter().all(|c| !c.regressed));
        assert!(checks.iter().all(|c| c.slowdown_pct.abs() < 1e-9));
    }

    #[test]
    fn injected_slowdown_fails_the_gate() {
        let base = parse_results(DOC).unwrap();
        // 30% slower warm factored run: over the 20% budget.
        let current = vec![
            entry("sweep_warm", "naive", 572047),
            entry("sweep_warm", "factored", 154178 * 13 / 10),
            entry("dist_chunks", "eval_chunk", 61865),
        ];
        let checks = gate(&base, &current, &["sweep_warm", "dist_chunks"], 20.0).unwrap();
        let bad: Vec<_> = checks.iter().filter(|c| c.regressed).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].id, "factored");
        assert!(bad[0].slowdown_pct > 20.0, "{}", bad[0].slowdown_pct);
        // The same slowdown passes a looser budget.
        let loose = gate(&base, &current, &["sweep_warm", "dist_chunks"], 50.0).unwrap();
        assert!(loose.iter().all(|c| !c.regressed));
    }

    #[test]
    fn speedups_are_not_regressions() {
        let base = parse_results(DOC).unwrap();
        let current = vec![entry("sweep_warm", "factored", 80_000)];
        let checks = gate(&base, &current, &["sweep_warm"], 20.0).unwrap();
        assert!(!checks[0].regressed);
        assert!(checks[0].slowdown_pct < 0.0);
    }

    #[test]
    fn ungated_groups_are_ignored() {
        let base = parse_results(DOC).unwrap();
        // serve_sweep is 100x slower but not a gated group.
        let current = vec![
            entry("serve_sweep", "factored", 200_000_000),
            entry("sweep_warm", "naive", 572047),
        ];
        let checks = gate(&base, &current, &["sweep_warm", "dist_chunks"], 20.0).unwrap();
        assert_eq!(checks.len(), 1);
        assert_eq!(checks[0].group, "sweep_warm");
    }

    #[test]
    fn empty_intersection_is_an_error_not_a_pass() {
        let base = parse_results(DOC).unwrap();
        let current = vec![entry("sweep_warm", "renamed", 1)];
        assert!(gate(&base, &current, &["sweep_warm"], 20.0).is_err());
        assert!(gate(&base, &[], &["sweep_warm"], 20.0).is_err());
    }
}
