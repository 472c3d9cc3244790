//! Every row of the sweep-axis table (`twocs_core::axes::AXES`) drives
//! the CLI flag, the `/v1/sweep` query parameter, the CSV column and the
//! spec codec alike. For each row at a non-neutral value:
//!
//! - `twocs sweep --csv --method proj --<flag> v` prints the bytes that
//!   `GET /v1/sweep?<query>=v&method=proj` answers;
//! - the row's CSV column appears exactly when the grid is extended, and
//!   every row of the table carries `v` in it;
//! - a `SweepSpec` round-trips the value.

use std::process::Command;
use twocs::analysis::axes::{Axis, Values, AXES};
use twocs::analysis::serialized::Method;
use twocs::analysis::sweep::GridSweep;
use twocs::serve::handlers::{handle, HandlerConfig};
use twocs::serve::http::Request;
use twocs::store::SweepSpec;

/// A value off the default grid: 2 for an extended axis (neutral at 1),
/// twice the first default for the other integer axes, 3 for the ratio.
fn probe_value(axis: &Axis) -> String {
    match axis.values {
        Values::U64 { .. } if axis.extended => "2".to_owned(),
        Values::U64 { list, .. } => (list(&GridSweep::default())[0] * 2).to_string(),
        Values::F64 { .. } => "3".to_owned(),
    }
}

/// The `(axis, value)` pairs one probe sets: the row itself, plus as many
/// experts as a `top_k` above 1 needs to describe any point.
fn probe(axis: &'static Axis, value: &str) -> Vec<(&'static Axis, String)> {
    let mut set = vec![(axis, value.to_owned())];
    if axis.query == "top_k" {
        let experts = AXES.iter().find(|a| a.query == "experts").unwrap();
        set.push((experts, value.to_owned()));
    }
    set
}

fn cli(set: &[(&Axis, String)]) -> Vec<u8> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_twocs"));
    cmd.args(["sweep", "--csv", "--method", "proj", "--jobs", "2"]);
    for (axis, value) in set {
        cmd.args([axis.flag, value]);
    }
    let out = cmd.output().expect("twocs binary runs");
    assert!(
        out.status.success(),
        "{set:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn serve(set: &[(&Axis, String)]) -> String {
    let mut query = "method=proj".to_owned();
    for (axis, value) in set {
        query.push_str(&format!("&{}={value}", axis.query));
    }
    let r = handle(
        &Request::get("/v1/sweep", &query),
        &HandlerConfig::default(),
    );
    assert_eq!(r.status, 200, "{query}: {}", r.body);
    r.body
}

#[test]
fn cli_and_serve_agree_on_every_axis() {
    for axis in &AXES {
        let set = probe(axis, &probe_value(axis));
        assert_eq!(
            String::from_utf8(cli(&set)).unwrap(),
            serve(&set),
            "{}",
            axis.query
        );
    }
}

#[test]
fn an_axis_column_appears_exactly_when_the_grid_is_extended() {
    let legacy = GridSweep::header_cells(false).join(",");
    for axis in &AXES {
        let value = probe_value(axis);
        let body = serve(&probe(axis, &value));
        let mut lines = body.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        let col = header
            .iter()
            .position(|c| *c == axis.column)
            .unwrap_or_else(|| panic!("{}: no `{}` column in {header:?}", axis.query, axis.column));
        // Non-extended axes always show; an extended one at 2 extends
        // the grid, and the header with it.
        assert_eq!(
            header.join(","),
            GridSweep::header_cells(axis.extended).join(","),
            "{}",
            axis.query
        );
        let mut rows = 0;
        for line in lines.filter(|l| !l.is_empty()) {
            assert_eq!(line.split(',').nth(col), Some(value.as_str()), "{line}");
            rows += 1;
        }
        assert!(rows > 0, "{}", axis.query);
        if axis.extended {
            // At its neutral value the axis leaves the legacy header alone.
            let neutral = serve(&probe(axis, "1"));
            assert_eq!(
                neutral.lines().next(),
                Some(legacy.as_str()),
                "{}",
                axis.query
            );
        }
    }
}

#[test]
fn the_spec_codec_round_trips_every_axis() {
    for axis in &AXES {
        let mut sweep = GridSweep {
            method: Method::Projection,
            ..GridSweep::default()
        };
        for (a, value) in probe(axis, &probe_value(axis)) {
            match a.values {
                Values::U64 { list_mut, .. } => {
                    *list_mut(&mut sweep) = vec![value.parse().unwrap()]
                }
                Values::F64 { list_mut, .. } => {
                    *list_mut(&mut sweep) = vec![value.parse().unwrap()]
                }
            }
        }
        sweep.validate().unwrap();
        let spec = SweepSpec {
            sweep,
            chunk_size: 4,
            device_name: "mi210".to_owned(),
            device_fingerprint: 1,
        };
        let back = SweepSpec::decode(&spec.encode()).unwrap();
        assert_eq!(back, spec, "{}", axis.query);
        let default = SweepSpec {
            sweep: GridSweep {
                method: Method::Projection,
                ..GridSweep::default()
            },
            ..spec.clone()
        };
        assert_ne!(spec.encode(), default.encode(), "{}", axis.query);
    }
}
