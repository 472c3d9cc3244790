//! Adaptive frontier refinement: find the comp-vs-comm crossover along
//! the `flop_vs_bw` axis without sweeping it densely.
//!
//! The paper's headline question for a shape is *at what
//! compute-vs-bandwidth scaling ratio does communication start to
//! dominate* — i.e. where the serialized-communication fraction crosses
//! a threshold. The serialized fraction is monotone non-decreasing in
//! `flop_vs_bw` (scaling FLOPs faster than bandwidth only ever shifts
//! time toward communication), so the crossover is a root of a monotone
//! function and bisection finds it to tolerance `tol` in
//! `O(log(range/tol))` evaluations per shape, versus the
//! `range/tol + 1` evaluations a dense axis at the same resolution
//! would need.
//!
//! The output frontier is a first-class [`Table`] (id `frontier`):
//! one row per surviving `(H, SL, TP[, extended axes])` combination
//! with the crossover ratio, the serialized fraction at it, a status
//! (`crossed` / `below_range` / `above_range`), and the evaluation
//! count spent on that row.

use twocs_core::axes::{shown_axes, Values};
use twocs_core::report::Table;
use twocs_core::serialized::Method;
use twocs_core::sweep::{eval_grid_point, GridPoint, GridSweep};
use twocs_hw::DeviceSpec;

/// The metric whose threshold crossing defines the frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineMetric {
    /// Serialized (exposed) communication as a percentage of step time
    /// — the paper's comp-vs-comm balance metric. CLI spelling:
    /// `comm-frac`.
    SerializedFraction,
}

/// A refinement request: which metric, the threshold (as a fraction in
/// `0..=1`), and the ratio-axis tolerance of the bisection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineSpec {
    /// Metric defining the frontier.
    pub metric: RefineMetric,
    /// Threshold as a percentage (`50.0` = half the step serialized).
    pub threshold_pct: f64,
    /// Absolute tolerance on the crossover ratio (default `0.01`).
    pub tolerance: f64,
}

impl RefineSpec {
    /// Parse the CLI form `<metric>=<fraction>`, e.g. `comm-frac=0.5`.
    pub fn parse(s: &str, tolerance: f64) -> Result<Self, String> {
        let (metric, value) = s
            .split_once('=')
            .ok_or_else(|| format!("--refine wants <metric>=<fraction>, got \"{s}\""))?;
        if metric != "comm-frac" {
            return Err(format!(
                "unknown refine metric \"{metric}\" (supported: comm-frac)"
            ));
        }
        let frac: f64 = value
            .parse()
            .map_err(|_| format!("refine fraction \"{value}\" is not a number"))?;
        if !(0.0..=1.0).contains(&frac) || !frac.is_finite() {
            return Err(format!("refine fraction {frac} must be in 0..=1"));
        }
        if !(tolerance.is_finite() && tolerance > 0.0) {
            return Err(format!("refine tolerance {tolerance} must be positive"));
        }
        Ok(Self {
            metric: RefineMetric::SerializedFraction,
            threshold_pct: frac * 100.0,
            tolerance,
        })
    }
}

/// Where one shape's metric sits relative to the threshold over the
/// swept ratio range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Crossing {
    /// The metric crosses the threshold inside the range: the crossover
    /// ratio (to tolerance) and the metric's value there.
    Crossed {
        /// Smallest ratio (within tolerance) at or above the threshold.
        ratio: f64,
        /// Serialized percentage evaluated at that ratio.
        serialized_pct: f64,
    },
    /// Already at/above the threshold at the range's low end.
    BelowRange,
    /// Still below the threshold at the range's high end.
    AboveRange,
}

/// One frontier row: the shape and where its crossover landed.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierRow {
    /// The grid point carrying the shape (its `ratio` field is the
    /// crossover when `crossing` is [`Crossing::Crossed`], else the
    /// range edge that was inspected last).
    pub point: GridPoint,
    /// Crossing classification for this shape.
    pub crossing: Crossing,
    /// Model evaluations spent on this row.
    pub evaluations: u64,
}

/// The refined frontier plus its cost accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierResult {
    /// One row per surviving shape combination.
    pub rows: Vec<FrontierRow>,
    /// Total model evaluations spent.
    pub evaluations: u64,
    /// Evaluations a dense `flop_vs_bw` axis at the same tolerance
    /// would have needed (`shapes × (range/tol + 1)`).
    pub dense_equivalent: u64,
    /// The frontier rendered as a CSV-able table (id `frontier`).
    pub table: Table,
}

/// Refine the crossover frontier of `sweep` on `device`.
///
/// Uses the sweep's `flop_vs_bw` list only for its extent (min/max
/// bracket the search); every other axis is swept as usual. Requires
/// `Method::Projection` — the analytic model is what makes thousands of
/// single-point probes cheap; simulation probes would dwarf the dense
/// sweep this mode exists to avoid.
pub fn refine_frontier(
    device: &DeviceSpec,
    sweep: &GridSweep,
    spec: &RefineSpec,
) -> Result<FrontierResult, String> {
    if sweep.method != Method::Projection {
        return Err(
            "--refine requires the projection method (simulation probes would cost \
             more than the dense sweep refinement avoids)"
                .to_owned(),
        );
    }
    let index = sweep.index();
    if index.is_empty() {
        return Err("refine: the grid has no surviving points".to_owned());
    }
    let lo = sweep
        .flop_vs_bw
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let hi = sweep
        .flop_vs_bw
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    if !(lo.is_finite() && hi.is_finite() && lo >= 1.0 && hi >= lo) {
        return Err(format!(
            "refine: flop_vs_bw range [{lo}, {hi}] must be finite and start at >= 1"
        ));
    }
    let tol = spec.tolerance;
    let RefineMetric::SerializedFraction = spec.metric;
    let threshold = spec.threshold_pct;

    // A frontier row is one shape: every integer axis the grid's table
    // shows. The ratio is what the bisection solves for.
    let extended = index.extended();
    let shape_axes = || {
        shown_axes(extended).filter_map(|a| match a.values {
            Values::U64 { point, .. } => Some((a.column, point)),
            Values::F64 { .. } => None,
        })
    };
    let headers: Vec<String> = shape_axes()
        .map(|(column, _)| column)
        .chain([
            "crossover_flop_vs_bw",
            "serialized_pct_at_crossover",
            "status",
            "evals",
        ])
        .map(str::to_owned)
        .collect();
    let mut table = Table::new(
        "frontier",
        format!("serialized-comm crossover frontier @ {threshold:.0}%"),
        headers,
    );

    let axes: Vec<_> = index.axis_tuples().collect();
    let mut rows = Vec::with_capacity(index.triples().len() * axes.len());
    let mut total_evals = 0u64;
    for &(h, sl, tp) in index.triples() {
        for &(experts, top_k, stages, micro_batches, sp) in &axes {
            let shape = GridPoint {
                experts,
                top_k,
                stages,
                micro_batches,
                sp,
                ..GridPoint::new(h, sl, tp, lo)
            };
            let mut evals = 0u64;
            let mut probe = |ratio: f64| -> f64 {
                evals += 1;
                eval_grid_point(
                    device,
                    GridPoint { ratio, ..shape },
                    sweep.batch,
                    sweep.method,
                    sweep.workload,
                )
                .0
            };
            let (crossing, point) = bisect(&mut probe, lo, hi, threshold, tol, shape);
            total_evals += evals;
            let mut cells: Vec<String> = shape_axes()
                .map(|(_, value)| value(&shape).to_string())
                .collect();
            let (ratio_cell, pct_cell, status) = match crossing {
                Crossing::Crossed {
                    ratio,
                    serialized_pct,
                } => (
                    format!("{ratio:.4}"),
                    format!("{serialized_pct:.2}"),
                    "crossed",
                ),
                Crossing::BelowRange => ("".to_owned(), "".to_owned(), "below_range"),
                Crossing::AboveRange => ("".to_owned(), "".to_owned(), "above_range"),
            };
            cells.push(ratio_cell);
            cells.push(pct_cell);
            cells.push(status.to_owned());
            cells.push(evals.to_string());
            table.push_row(cells);
            rows.push(FrontierRow {
                point,
                crossing,
                evaluations: evals,
            });
        }
    }
    let dense_per_shape = ((hi - lo) / tol).floor() as u64 + 1;
    Ok(FrontierResult {
        dense_equivalent: rows.len() as u64 * dense_per_shape,
        evaluations: total_evals,
        rows,
        table,
    })
}

/// Bisect the monotone serialized fraction over `[lo, hi]` for the
/// smallest ratio whose value reaches `threshold`, to tolerance `tol`.
fn bisect(
    probe: &mut impl FnMut(f64) -> f64,
    lo: f64,
    hi: f64,
    threshold: f64,
    tol: f64,
    shape: GridPoint,
) -> (Crossing, GridPoint) {
    let at_lo = probe(lo);
    if at_lo >= threshold {
        return (Crossing::BelowRange, GridPoint { ratio: lo, ..shape });
    }
    if lo == hi {
        return (Crossing::AboveRange, GridPoint { ratio: hi, ..shape });
    }
    let mut at_hi = probe(hi);
    if at_hi < threshold {
        return (Crossing::AboveRange, GridPoint { ratio: hi, ..shape });
    }
    let (mut lo, mut hi) = (lo, hi);
    while hi - lo > tol {
        let mid = (lo + hi) / 2.0;
        let at_mid = probe(mid);
        if at_mid >= threshold {
            hi = mid;
            at_hi = at_mid;
        } else {
            lo = mid;
        }
    }
    (
        Crossing::Crossed {
            ratio: hi,
            serialized_pct: at_hi,
        },
        GridPoint { ratio: hi, ..shape },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> DeviceSpec {
        DeviceSpec::mi210()
    }

    fn sweep() -> GridSweep {
        GridSweep {
            method: Method::Projection,
            ..GridSweep::default()
        }
    }

    #[test]
    fn parse_accepts_comm_frac_and_rejects_junk() {
        let spec = RefineSpec::parse("comm-frac=0.5", 0.01).unwrap();
        assert_eq!(spec.threshold_pct, 50.0);
        assert_eq!(spec.tolerance, 0.01);
        assert!(RefineSpec::parse("comm-frac", 0.01).is_err());
        assert!(RefineSpec::parse("latency=0.5", 0.01).is_err());
        assert!(RefineSpec::parse("comm-frac=1.5", 0.01).is_err());
        assert!(RefineSpec::parse("comm-frac=zed", 0.01).is_err());
        assert!(RefineSpec::parse("comm-frac=0.5", 0.0).is_err());
    }

    #[test]
    fn refine_requires_projection() {
        let s = GridSweep::default(); // Method::Simulation
        let spec = RefineSpec::parse("comm-frac=0.5", 0.01).unwrap();
        assert!(refine_frontier(&device(), &s, &spec).is_err());
    }

    #[test]
    fn crossovers_agree_with_direct_evaluation() {
        // 30%: the default grid tops out near 40% serialized at ratio 4,
        // so 30% is a threshold it genuinely crosses.
        let s = sweep();
        let spec = RefineSpec::parse("comm-frac=0.3", 0.01).unwrap();
        let result = refine_frontier(&device(), &s, &spec).unwrap();
        assert_eq!(
            result.rows.len(),
            s.index().triples().len() * s.index().axis_tuples().count()
        );
        let mut crossed = 0;
        for row in &result.rows {
            if let Crossing::Crossed {
                ratio,
                serialized_pct,
            } = row.crossing
            {
                crossed += 1;
                assert!(serialized_pct >= 30.0);
                assert!((1.0..=4.0).contains(&ratio));
                // The model agrees at the reported ratio, and is below
                // the threshold one tolerance to the left (when that
                // stays in range).
                let at = eval_grid_point(&device(), row.point, s.batch, s.method, s.workload).0;
                assert!((at - serialized_pct).abs() < 1e-9);
                let left = ratio - spec.tolerance;
                if left > 1.0 {
                    let below = eval_grid_point(
                        &device(),
                        GridPoint {
                            ratio: left,
                            ..row.point
                        },
                        s.batch,
                        s.method,
                        s.workload,
                    )
                    .0;
                    assert!(below < 30.0 + 1e-9, "not the smallest crossing ratio");
                }
            }
        }
        // The default grid must actually exhibit a frontier.
        assert!(crossed > 0, "no shape crossed 30% serialized");
    }

    #[test]
    fn refinement_beats_the_dense_grid_by_10x() {
        let s = sweep();
        let spec = RefineSpec::parse("comm-frac=0.3", 0.01).unwrap();
        let result = refine_frontier(&device(), &s, &spec).unwrap();
        assert!(
            result.evaluations * 10 <= result.dense_equivalent,
            "{} evals vs dense {}",
            result.evaluations,
            result.dense_equivalent
        );
    }

    #[test]
    fn frontier_table_shape_matches_rows() {
        let s = sweep();
        let spec = RefineSpec::parse("comm-frac=0.5", 0.01).unwrap();
        let result = refine_frontier(&device(), &s, &spec).unwrap();
        assert_eq!(result.table.id, "frontier");
        assert_eq!(result.table.rows.len(), result.rows.len());
        let csv = result.table.to_csv();
        assert!(csv.starts_with(
            "H,SL,TP,crossover_flop_vs_bw,serialized_pct_at_crossover,status,evals\n"
        ));
    }
}
