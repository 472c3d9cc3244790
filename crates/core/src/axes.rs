//! The sweep's list axes, each named once.
//!
//! [`AXES`] is the one table of a [`GridSweep`]'s list axes, in the order
//! the spec encoding writes them. The CLI's flags, serve's query
//! parameters, the spec codec, the CSV and frontier headers and the
//! extended-axis validation all walk it, so a new axis is one row here,
//! a `GridSweep` field and its cost model. The evaluator's hot path —
//! [`GridIndex`](crate::GridIndex), [`GridPoint`], [`RowWriter`](crate::RowWriter)
//! and the planner — stays typed.

use crate::sweep::{GridPoint, GridSweep};

/// One list axis of a sweep.
#[derive(Debug, Clone, Copy)]
pub struct Axis {
    /// Its `GET /v1/sweep` query parameter, also the name validation
    /// messages use.
    pub query: &'static str,
    /// Its `twocs sweep` flag.
    pub flag: &'static str,
    /// Its sweep CSV column.
    pub column: &'static str,
    /// Whether it is an extended axis: neutral at 1, with a CSV column
    /// only in grids where some point leaves 1.
    pub extended: bool,
    /// Where its values live.
    pub values: Values,
}

/// An axis's value type and how to reach its list on a [`GridSweep`].
#[derive(Debug, Clone, Copy)]
pub enum Values {
    /// An integer axis; `point` reads its value at one grid point.
    U64 {
        /// The axis's list.
        list: fn(&GridSweep) -> &Vec<u64>,
        /// The axis's list, for assignment.
        list_mut: fn(&mut GridSweep) -> &mut Vec<u64>,
        /// The axis's value at one point.
        point: fn(&GridPoint) -> u64,
    },
    /// A real-valued axis.
    F64 {
        /// The axis's list.
        list: fn(&GridSweep) -> &Vec<f64>,
        /// The axis's list, for assignment.
        list_mut: fn(&mut GridSweep) -> &mut Vec<f64>,
    },
}

macro_rules! u64s {
    ($list:ident, $point:ident) => {
        Values::U64 {
            list: |s| &s.$list,
            list_mut: |s| &mut s.$list,
            point: |p| p.$point,
        }
    };
}

/// Every list axis of a sweep, in spec-encoding order.
pub const AXES: [Axis; 9] = [
    Axis {
        query: "h",
        flag: "--h",
        column: "H",
        extended: false,
        values: u64s!(hs, h),
    },
    Axis {
        query: "sl",
        flag: "--sl",
        column: "SL",
        extended: false,
        values: u64s!(sls, sl),
    },
    Axis {
        query: "tp",
        flag: "--tp",
        column: "TP",
        extended: false,
        values: u64s!(tps, tp),
    },
    Axis {
        query: "flop_vs_bw",
        flag: "--flop-vs-bw",
        column: "flop_vs_bw",
        extended: false,
        values: Values::F64 {
            list: |s| &s.flop_vs_bw,
            list_mut: |s| &mut s.flop_vs_bw,
        },
    },
    Axis {
        query: "experts",
        flag: "--experts",
        column: "experts",
        extended: true,
        values: u64s!(experts, experts),
    },
    Axis {
        query: "top_k",
        flag: "--top-k",
        column: "top_k",
        extended: true,
        values: u64s!(top_ks, top_k),
    },
    Axis {
        query: "stages",
        flag: "--stages",
        column: "stages",
        extended: true,
        values: u64s!(stages, stages),
    },
    Axis {
        query: "micro_batches",
        flag: "--micro-batches",
        column: "micro_batches",
        extended: true,
        values: u64s!(micro_batches, micro_batches),
    },
    Axis {
        query: "sp",
        flag: "--sp",
        column: "sp",
        extended: true,
        values: u64s!(sps, sp),
    },
];

/// The extended axes, in table order.
fn extended_axes() -> impl Iterator<Item = &'static Axis> {
    AXES.iter().filter(|a| a.extended)
}

/// The axes whose columns a table shows: all of them for an `extended`
/// grid, the four paper axes otherwise.
pub fn shown_axes(extended: bool) -> impl Iterator<Item = &'static Axis> {
    AXES.iter().filter(move |a| extended || !a.extended)
}

/// The extended-axis check of [`GridSweep::validate`]: every extended
/// value must be non-zero.
pub(crate) fn check_extended_non_zero(sweep: &GridSweep) -> Result<(), String> {
    let zero = |a: &Axis| match a.values {
        Values::U64 { list, .. } => list(sweep).contains(&0),
        Values::F64 { list, .. } => list(sweep).contains(&0.0),
    };
    if !extended_axes().any(zero) {
        return Ok(());
    }
    let names: Vec<&str> = extended_axes().map(|a| a.query).collect();
    let (last, rest) = names.split_last().expect("the table has extended axes");
    Err(format!(
        "{}, and {last} values must be non-zero",
        rest.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridIndex;

    #[test]
    fn names_are_unique_and_spelled_consistently() {
        for (i, a) in AXES.iter().enumerate() {
            assert_eq!(a.flag, format!("--{}", a.query.replace('_', "-")));
            assert!(a.column.eq_ignore_ascii_case(a.query), "{}", a.query);
            assert!(AXES[..i]
                .iter()
                .all(|b| b.query != a.query && b.column != a.column));
        }
    }

    #[test]
    fn default_grid_is_neutral_on_every_extended_axis() {
        let grid = GridSweep::default();
        for a in extended_axes() {
            let Values::U64 { list, point, .. } = a.values else {
                panic!("{} is an extended axis but not an integer one", a.query);
            };
            assert_eq!(list(&grid), &vec![1], "{}", a.query);
            assert_eq!(
                point(&GridPoint::new(4096, 2048, 16, 1.0)),
                1,
                "{}",
                a.query
            );
        }
    }

    #[test]
    fn point_accessors_read_the_axis_the_grid_sets() {
        // One non-default value per integer axis: the single point of the
        // grid must carry it in the same axis.
        for a in AXES {
            let Values::U64 {
                list_mut, point, ..
            } = a.values
            else {
                continue;
            };
            let mut grid = GridSweep {
                hs: vec![4096],
                sls: vec![2048],
                tps: vec![16],
                flop_vs_bw: vec![1.0],
                experts: vec![4],
                top_ks: vec![1],
                ..GridSweep::default()
            };
            let v = match list_mut(&mut grid)[0] {
                4096 => 8192,
                16 => 32,
                1 => 2,
                other => other * 2,
            };
            *list_mut(&mut grid) = vec![v];
            let index = GridIndex::new(&grid);
            assert_eq!(index.len(), 1, "{}", a.query);
            assert_eq!(point(&index.point(0)), v, "{}", a.query);
        }
    }

    #[test]
    fn zero_extended_values_are_rejected_with_every_name() {
        let grid = GridSweep {
            sps: vec![0],
            ..GridSweep::default()
        };
        assert_eq!(
            check_extended_non_zero(&grid).unwrap_err(),
            "experts, top_k, stages, micro_batches, and sp values must be non-zero"
        );
        assert!(check_extended_non_zero(&GridSweep::default()).is_ok());
    }
}
