//! Serialized-communication analysis (paper §4.3.4, Figure 10).
//!
//! The fraction of training time spent in serialized (tensor-parallel)
//! communication for one sweep point, [`comm_fraction`], which the
//! sweep kernel ([`eval_grid_point`](crate::sweep::eval_grid_point))
//! calls and through which the registry prices Figs. 10 and 12. Two
//! methods are provided:
//!
//! * [`Method::Simulation`] — build the full training-iteration task graph
//!   and execute it on the discrete-event simulator (shape-accurate GEMM
//!   efficiency and collective saturation; our "measured" numbers).
//! * [`Method::Projection`] — the paper's operator-model route: scale a
//!   single BERT baseline profile (fast, but optimistic about collective
//!   behaviour at large TP, exactly as the paper's §4.3.8 caveats note).

use twocs_hw::DeviceSpec;
use twocs_opmodel::projection::ProjectionModel;
use twocs_sim::Engine;
use twocs_transformer::graph_builder::IterationBuilder;
use twocs_transformer::{Hyperparams, ParallelConfig};

/// How to evaluate a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Method {
    /// Discrete-event simulation of the full iteration (ground truth).
    #[default]
    Simulation,
    /// Operator-model projection from a BERT baseline (the paper's
    /// strategy).
    Projection,
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Method::Simulation => "sim",
            Method::Projection => "proj",
        })
    }
}

impl std::str::FromStr for Method {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(Method::Simulation),
            "proj" => Ok(Method::Projection),
            other => Err(format!("unknown method `{other}` (sim|proj)")),
        }
    }
}

/// Whether `tp` is a realistic degree for hidden size `h` — mirrors the
/// paper's pruning of "unrealistic configurations (e.g., large model and
/// large batch size with small tensor parallelism degree)" and its
/// converse (tiny models sliced 256 ways).
#[must_use]
pub fn realistic_tp(h: u64, tp: u64) -> bool {
    // Slices thinner than 128 columns of the hidden dimension stop making
    // sense; huge models below TP 16 cannot fit memory.
    tp <= h / 128 && (h < 16_384 || tp >= 16)
}

/// The most work one GEMM or transfer of a sweep point's layer may count,
/// in flops or bytes per device.
///
/// The models count per-device work in `u64`. The largest counts are the
/// attention score GEMM's `2·B·SL²·H/TP` flops (long sequences), the MLP
/// GEMMs' `8·B·SL·H²/TP` (wide models) and the gradient all-reduce's
/// `8·H²` bytes (`H·FF` is formed before the TP split). They wrap at
/// 2^64, but the simulator's `u64` picosecond clock overflows first: at
/// H = 256, a score GEMM of 2^60 flops already runs its iteration past
/// it. The cap keeps a factor of four below that.
pub const MAX_POINT_WORK: u64 = 1 << 58;

/// Refuse a point whose largest work count, counted without wrapping,
/// exceeds [`MAX_POINT_WORK`].
///
/// # Errors
/// Names the point and the cap.
pub fn check_point_work(h: u64, sl: u64, b: u64, tp: u64) -> Result<(), String> {
    let (h128, sl128, tp128) = (u128::from(h), u128::from(sl), u128::from(tp.max(1)));
    let tokens = u128::from(b).saturating_mul(sl128);
    let score = tokens.saturating_mul(2 * sl128).saturating_mul(h128) / tp128;
    let mlp = tokens.saturating_mul(8 * h128).saturating_mul(h128) / tp128;
    if score.max(mlp).max(h128.saturating_mul(8 * h128)) <= u128::from(MAX_POINT_WORK) {
        return Ok(());
    }
    Err(format!(
        "h={h}, sl={sl}, b={b}, tp={tp}: the point's largest GEMM or transfer exceeds 2^58 \
         flops or bytes, past what the models count; shrink h, sl or b"
    ))
}

/// Refuse a simulated iteration of `layers` layers whose weights, read
/// from HBM and all-reduced across data-parallel replicas, move more
/// than [`MAX_POINT_WORK`] bytes per device: `layers · 24·H²/TP`, the
/// 12·H² fp16 parameters of a layer split `tp` ways. These bytes set
/// the iteration's simulated time when the batch is small, and the cap
/// keeps it a factor of three below the simulator's `u64` picosecond
/// clock. A sweep point (2 layers, TP ≥ 16 above H = 8192) that passes
/// [`check_point_work`] passes this too; `twocs analyze` runs 4 layers
/// at any TP and needs both.
///
/// # Errors
/// Names the point and the cap.
pub fn check_iteration_weights(h: u64, tp: u64, layers: u64) -> Result<(), String> {
    let bytes = u128::from(layers) * 24 * u128::from(h) * u128::from(h) / u128::from(tp.max(1));
    if bytes <= u128::from(MAX_POINT_WORK) {
        return Ok(());
    }
    Err(format!(
        "h={h}, tp={tp}: {layers} layers of h*h*12/tp fp16 weights exceed 2^58 bytes per device, \
         past what the simulator's clock can time; shrink h or raise tp"
    ))
}

/// Hyperparameters for one sweep point. Head count is fixed at 256 so
/// every power-of-two TP in the sweep is a valid sharding.
///
/// # Panics
/// Panics if `h` is not a multiple of 256 (all sweep values are).
#[must_use]
pub fn sweep_hyper(h: u64, sl: u64, b: u64) -> Hyperparams {
    Hyperparams::builder(h)
        .heads(256)
        .layers(2)
        .seq_len(sl)
        .batch(b)
        .build()
        .expect("sweep hyperparameters are valid")
}

/// The fixed BERT-like baseline the projection method profiles once per
/// device (§4.2). Shared by [`comm_fraction`] and the factored sweep
/// planner so both build the identical [`ProjectionModel`].
#[must_use]
pub fn projection_baseline() -> Hyperparams {
    Hyperparams::builder(1024)
        .heads(16)
        .seq_len(512)
        .batch(4)
        .build()
        .expect("valid baseline")
}

/// Fraction of training time spent in serialized communication for one
/// configuration, by the chosen method, on `device`.
#[must_use]
pub fn comm_fraction(
    device: &DeviceSpec,
    hyper: &Hyperparams,
    parallel: &ParallelConfig,
    method: Method,
) -> f64 {
    match method {
        Method::Simulation => {
            let graph = IterationBuilder::new(hyper, parallel, device)
                .optimizer(false)
                .build_training();
            Engine::new()
                .run(&graph)
                .expect("iteration graphs are valid")
                .comm_fraction()
        }
        Method::Projection => ProjectionModel::from_baseline(&projection_baseline(), device)
            .project(hyper, parallel)
            .serialized_comm_fraction(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> DeviceSpec {
        DeviceSpec::mi210()
    }

    #[test]
    fn fraction_grows_with_tp_at_fixed_shape() {
        let hyper = sweep_hyper(16_384, 2048, 1);
        let f = |tp: u64| {
            comm_fraction(
                &device(),
                &hyper,
                &ParallelConfig::new().tensor(tp),
                Method::Simulation,
            )
        };
        assert!(f(16) < f(64));
        assert!(f(64) < f(256));
    }

    #[test]
    fn fraction_falls_with_h_at_fixed_tp() {
        let par = ParallelConfig::new().tensor(64);
        let small = comm_fraction(
            &device(),
            &sweep_hyper(8192, 2048, 1),
            &par,
            Method::Simulation,
        );
        let large = comm_fraction(
            &device(),
            &sweep_hyper(65_536, 2048, 1),
            &par,
            Method::Simulation,
        );
        assert!(large < small, "H=8K {small} vs H=64K {large}");
    }

    #[test]
    fn fraction_falls_with_sl_at_fixed_tp() {
        let par = ParallelConfig::new().tensor(64);
        let short = comm_fraction(
            &device(),
            &sweep_hyper(16_384, 2048, 1),
            &par,
            Method::Simulation,
        );
        let long = comm_fraction(
            &device(),
            &sweep_hyper(16_384, 8192, 1),
            &par,
            Method::Simulation,
        );
        assert!(long < short);
    }

    #[test]
    fn highlighted_configs_land_in_paper_band() {
        // Fig. 10's blue-highlighted points: a T-NLG-class model at its
        // required TP of 16, PaLM-1x at 64, PaLM-3x at 256 — spanning
        // ~20-50% of training time.
        let highlighted = [
            (4096u64, 2048u64, 16u64),
            (16_384, 2048, 64),
            (65_536, 2048, 256),
            (65_536, 4096, 128),
        ];
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for (h, sl, tp) in highlighted {
            let f = 100.0
                * comm_fraction(
                    &device(),
                    &sweep_hyper(h, sl, 1),
                    &ParallelConfig::new().tensor(tp),
                    Method::Simulation,
                );
            lo = lo.min(f);
            hi = hi.max(f);
        }
        assert!((12.0..=35.0).contains(&lo), "low end {lo}%");
        assert!((40.0..=60.0).contains(&hi), "high end {hi}%");
    }
}
