//! Differential front-end fuzzer: `twocs sweep` and `GET /v1/sweep` read
//! one sweep request the same way.
//!
//! Each seeded case draws a few of the request's parameters — every
//! [`AXES`] row plus `workload`, `method` and `b` — and gives each a value
//! of one kind: valid, `0`, negative, `-0`, `nan`, `inf`, `1e309`, huge
//! (`1e300`, 2^40 or `u64::MAX`), a non-multiple of 256, empty, a
//! duplicate value or a trailing comma. Some
//! cases also repeat a key or add an unknown one. The case runs as the CLI
//! binary and through serve's in-process [`handle`], and the two must
//! agree: both accept and print the same CSV bytes, or both reject with
//! the same message once the CLI's flag spellings (`--flop-vs-bw`) are
//! mapped to query names (`flop_vs_bw`). An accepted case must render
//! every cell: a huge value either fits the models or is rejected, and
//! never becomes an `error` cell. A huge count of devices (`experts`,
//! `top_k`, `stages`, `sp`) describes no machine and is always rejected.
//!
//! Two kinds of case differ in syntax, so only accept or reject is
//! compared for them:
//! - an unknown key: the CLI names it among `twocs sweep`'s flags, in
//!   argument order, while serve lists its query parameters after reading
//!   the whole query;
//! - a missing value: `--h` with no value is a usage error before any
//!   value is read, while a bare `h` in a query is the empty value.
//!
//! Accepted grids stay small: H and the method default to 4096 and
//! `proj` unless drawn, and drawn values keep H at or below 4096, so the
//! simulation method runs only there.

use std::collections::BTreeMap;
use std::process::Command;
use twocs::analysis::axes::AXES;
use twocs::serve::handlers::{handle, HandlerConfig};
use twocs::serve::http::{Request, Response};
use twocs_testkit::Rng;

const CASES: usize = 500;

const KINDS: [&str; 12] = [
    "valid",
    "zero",
    "negative",
    "-0",
    "nan",
    "inf",
    "1e309",
    "huge",
    "non-multiple",
    "empty",
    "duplicate-value",
    "trailing-comma",
];

/// Valid values of each request parameter, by query name; H stays at or
/// below 4096 so a simulated grid is cheap.
fn valid_values(name: &str) -> &'static [&'static str] {
    match name {
        "h" => &["1024", "2048", "4096"],
        "sl" => &["512", "1024", "2048"],
        "tp" => &["4", "8", "16"],
        "flop_vs_bw" => &["1", "1.5", "2", "4"],
        "experts" => &["1", "2", "8"],
        "top_k" => &["1", "2"],
        "stages" => &["1", "2", "4"],
        "micro_batches" => &["1", "4"],
        "sp" => &["1", "2"],
        "b" => &["1", "2"],
        "workload" => &["training", "prefill", "decode"],
        "method" => &["sim", "proj"],
        other => panic!("no values for `{other}`"),
    }
}

/// Every parameter the sweep request reads, by query name.
fn params() -> Vec<&'static str> {
    AXES.iter()
        .map(|a| a.query)
        .chain(["workload", "b", "method"])
        .collect()
}

/// The `twocs sweep` flag of a query parameter.
fn flag(name: &str) -> String {
    format!("--{}", name.replace('_', "-"))
}

fn value(rng: &mut Rng, name: &str, kind: &str) -> String {
    let valid = *rng.choose(valid_values(name));
    match kind {
        "valid" => valid.to_owned(),
        "zero" => "0".to_owned(),
        "negative" => format!("-{valid}"),
        "-0" | "nan" | "inf" | "1e309" => kind.to_owned(),
        "huge" => rng
            .choose(&["1e300", "1099511627776", "18446744073709551615"])
            .to_string(),
        "non-multiple" => rng.choose(&["1000", "3", "24", "4097"]).to_string(),
        "empty" => String::new(),
        "duplicate-value" => format!("{valid},{valid}"),
        "trailing-comma" => format!("{valid},"),
        other => panic!("unknown kind `{other}`"),
    }
}

/// One drawn request: its `(name, value)` pairs in order, `None` for a
/// key given without a value, and the kinds of value and key it drew.
struct Case {
    pairs: Vec<(String, Option<String>)>,
    kinds: Vec<String>,
    /// Whether only accept or reject may be compared.
    syntax_differs: bool,
    /// Whether it drew a huge value for one of [`DEVICE_COUNTS`].
    huge_devices: bool,
}

/// The parameters that count devices; no huge value of them may pass.
const DEVICE_COUNTS: [&str; 4] = ["experts", "top_k", "stages", "sp"];

fn draw(rng: &mut Rng) -> Case {
    let mut names = params();
    rng.shuffle(&mut names);
    let drawn = &names[..rng.usize_in(1..4)];
    let mut kinds = Vec::new();
    let mut huge_devices = false;
    let mut pairs: Vec<(String, Option<String>)> = drawn
        .iter()
        .map(|&name| {
            // At most about one fault per case, so each fault is seen
            // alone as well as behind another.
            let kind = if rng.usize_in(0..2 + 2 * kinds.len()) == 0 {
                *rng.choose(&KINDS)
            } else {
                "valid"
            };
            huge_devices |= kind == "huge" && DEVICE_COUNTS.contains(&name);
            kinds.push(kind.to_owned());
            (name.to_owned(), Some(value(rng, name, kind)))
        })
        .collect();
    // Undrawn, H and the method are pinned to a small projected grid.
    for (name, value) in [("h", "4096"), ("method", "proj")] {
        if !drawn.contains(&name) {
            pairs.push((name.to_owned(), Some(value.to_owned())));
        }
    }
    rng.shuffle(&mut pairs);
    let mut syntax_differs = false;
    match rng.usize_in(0..8) {
        0 => {
            let at = rng.usize_in(0..pairs.len());
            let name = pairs[at].0.clone();
            let again = value(rng, &name, "valid");
            pairs.push((name, Some(again)));
            kinds.push("repeated-key".to_owned());
        }
        1 => {
            let at = rng.usize_in(0..pairs.len() + 1);
            pairs.insert(at, ("bogus".to_owned(), Some("1".to_owned())));
            kinds.push("unknown-key".to_owned());
            syntax_differs = true;
        }
        2 => {
            let at = rng.usize_in(0..pairs.len());
            pairs[at].1 = None;
            kinds.push("missing-value".to_owned());
            syntax_differs = true;
        }
        _ => {}
    }
    Case {
        pairs,
        kinds,
        syntax_differs,
        huge_devices,
    }
}

/// `Ok(stdout)` or `Err(message)` from `twocs sweep --csv`.
fn cli(case: &Case) -> Result<String, String> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_twocs"));
    cmd.args(["sweep", "--csv", "--jobs", "1"]);
    for (name, value) in &case.pairs {
        cmd.arg(flag(name));
        cmd.args(value);
    }
    let out = cmd.output().expect("twocs binary runs");
    if out.status.success() {
        return Ok(String::from_utf8(out.stdout).expect("CSV is UTF-8"));
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    Err(stderr
        .strip_prefix("error: ")
        .unwrap_or(&stderr)
        .trim_end()
        .to_owned())
}

/// The serve response to the same request.
fn serve(case: &Case) -> Response {
    let query: Vec<String> = case
        .pairs
        .iter()
        .map(|(name, value)| match value {
            Some(value) => format!("{name}={value}"),
            None => name.clone(),
        })
        .collect();
    handle(
        &Request::get("/v1/sweep", &query.join("&")),
        &HandlerConfig::default(),
    )
}

/// A CLI message with each flag spelled as its query parameter.
fn to_query_names(message: &str) -> String {
    params().iter().fold(message.to_owned(), |m, name| {
        m.replace(&format!("`{}`", flag(name)), &format!("`{name}`"))
    })
}

/// Whether both front ends accept `case`, or why they disagree on it.
fn compare(case: &Case) -> Result<bool, String> {
    let (cli, served) = (cli(case), serve(case));
    match (&cli, served.status) {
        (Ok(stdout), 200) if stdout.contains("error") => Err(format!("error cells:\n{stdout}")),
        (Ok(_), 200) if case.huge_devices => Err("a huge device count was accepted".to_owned()),
        (Ok(stdout), 200) if *stdout == served.body => Ok(true),
        (Ok(stdout), 200) => Err(format!("CSV differs:\n{stdout}\nvs\n{}", served.body)),
        (Err(_), 400) if case.syntax_differs => Ok(false),
        (Err(message), 400) => {
            let expected = Response::error(400, &to_query_names(message)).body;
            if expected == served.body {
                Ok(false)
            } else {
                Err(format!("message `{message}` vs {}", served.body))
            }
        }
        _ => Err(format!(
            "CLI {} vs serve {}",
            cli.map_or_else(|e| format!("rejects: {e}"), |_| "accepts".to_owned()),
            served.status
        )),
    }
}

#[test]
fn cli_and_serve_accept_reject_and_answer_alike() {
    let mut failures = Vec::new();
    let mut by_kind: BTreeMap<String, usize> = BTreeMap::new();
    let mut accepted = 0;
    for index in 0..CASES {
        let mut rng = Rng::new(twocs_testkit::case_seed(index));
        let case = draw(&mut rng);
        match compare(&case) {
            Ok(both_accept) => accepted += usize::from(both_accept),
            Err(why) => {
                for kind in case.kinds.iter().filter(|k| *k != "valid") {
                    *by_kind.entry(kind.clone()).or_default() += 1;
                }
                failures.push(format!("case {index} {:?}: {why}", case.pairs));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {CASES} cases disagree; failing cases per fault drawn: {by_kind:?}\n{}",
        failures.len(),
        failures[..failures.len().min(10)].join("\n")
    );
    // The draw must exercise both outcomes, not only rejections.
    assert!(accepted >= CASES / 10, "only {accepted} cases accepted");
    eprintln!("{CASES} cases agree: {accepted} accepted by both front ends, the rest rejected");
}
