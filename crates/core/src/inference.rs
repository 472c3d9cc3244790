//! Distributed-inference analysis (paper §6.3).
//!
//! Inference runs only the forward pass — no backward GEMMs, no gradient
//! all-reduces — but tensor parallelism's **two serialized all-reduces per
//! layer remain on the critical path**. With only a third of training's
//! compute per layer to amortize them, the communication *fraction* of
//! distributed inference is at least as high as training's, which is why
//! the paper says its Comp-vs-Comm analysis translates to inference.
//!
//! The registry's `inference` figure sets the simulated forward-only
//! pass ([`inference_comm_fraction`]) beside the simulated training
//! iteration; `inference_workloads` prices prefill, decode and projected
//! training points through the sweep kernel, which models the two
//! inference phases with [`InferenceIteration`].

use twocs_collectives::CollectiveCostModel;
use twocs_hw::network::NetworkSpec;
use twocs_hw::roofline::roofline_time;
use twocs_hw::DeviceSpec;
use twocs_sim::Engine;
use twocs_transformer::graph_builder::IterationBuilder;
use twocs_transformer::{Hyperparams, ParallelConfig};

/// Which iteration a sweep models: the paper's training iteration
/// (forward + backward + optimizer-adjacent collectives) or one of the
/// two inference phases Kundu et al. characterize — full-sequence
/// **prefill** (compute-bound GEMMs, KV-cache writes) and per-token
/// **decode** (bandwidth-bound matvecs, KV-cache reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Workload {
    /// The training iteration the paper sweeps (default).
    #[default]
    Training,
    /// Inference prefill: the full prompt in one forward pass.
    Prefill,
    /// Inference decode: one new token per sequence per step.
    Decode,
}

impl Workload {
    /// Tokens processed per layer pass under this workload: the full
    /// `SL · B` for training and prefill, one token per sequence
    /// (`B`) for decode.
    #[must_use]
    pub fn tokens(self, hyper: &Hyperparams) -> u64 {
        match self {
            Workload::Training | Workload::Prefill => hyper.tokens(),
            Workload::Decode => hyper.batch(),
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Workload::Training => "training",
            Workload::Prefill => "prefill",
            Workload::Decode => "decode",
        })
    }
}

impl std::str::FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "training" => Ok(Workload::Training),
            "prefill" => Ok(Workload::Prefill),
            "decode" => Ok(Workload::Decode),
            other => Err(format!(
                "unknown workload `{other}` (expected training, prefill, or decode)"
            )),
        }
    }
}

/// One projected inference layer pass: roofline-priced GEMM compute with
/// a KV-cache bandwidth term, plus the two serialized TP all-reduces
/// that stay on the forward critical path.
///
/// Prefill runs the four dense GEMM sites (`QKV`, attention output,
/// `FC1`, `FC2`) over the whole prompt and *writes* each token's K/V
/// shard; decode runs the same sites as batch-row matvecs — too little
/// arithmetic intensity to leave the bandwidth roof — and *reads* the
/// entire per-device KV cache every step. Both terms are priced from the
/// `twocs-hw` roofline data (`peak_flops` vs `mem_bandwidth`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceIteration {
    /// Layers on the critical path.
    pub layers: u64,
    /// Per-layer compute time: GEMM roofline plus the KV-cache term.
    pub compute_per_layer: f64,
    /// Per-layer serialized communication: two forward TP all-reduces.
    pub serialized_comm_per_layer: f64,
}

impl InferenceIteration {
    /// Price one layer of `hyper` on `device` at TP degree `tp` under an
    /// inference `workload`: [`Self::compute_time`] on the device's
    /// rates and [`Self::comm_time`] on its network.
    ///
    /// # Panics
    /// Panics on [`Workload::Training`] (training is projected through
    /// the operator-model path, not this roofline shortcut) and on
    /// `tp == 0`.
    #[must_use]
    pub fn model(device: &DeviceSpec, hyper: &Hyperparams, tp: u64, workload: Workload) -> Self {
        Self {
            layers: hyper.layers(),
            compute_per_layer: Self::compute_time(device, hyper, tp, workload),
            serialized_comm_per_layer: Self::comm_time(device.network(), hyper, tp, workload),
        }
    }

    /// The per-layer compute half of [`Self::model`]: the GEMM roofline
    /// plus the KV-cache term, on `device`'s peak rates.
    ///
    /// # Panics
    /// As [`Self::model`].
    #[must_use]
    pub fn compute_time(
        device: &DeviceSpec,
        hyper: &Hyperparams,
        tp: u64,
        workload: Workload,
    ) -> f64 {
        check_inference(tp, workload);
        let precision = hyper.precision();
        let elem = precision.bytes();
        let peak = device.peak_flops(precision);
        let mem_bw = device.mem_bandwidth();
        let (h, ff) = (hyper.hidden(), hyper.ff_dim());
        let m = workload.tokens(hyper);

        // The four per-layer GEMM sites as (n, k) with weights sharded
        // tp-ways: prefill runs them at m = SL·B (compute-bound), decode
        // at m = B (bandwidth-bound matvecs) — the shapes, not a flag,
        // decide which roof binds.
        let mut compute = 0.0;
        for (n, k) in [(3 * h, h), (h, h), (ff, h), (h, ff)] {
            let flops = (2 * m * n * k).div_ceil(tp);
            let bytes = (m * k + (k * n + m * n).div_ceil(tp)) * elem;
            compute += roofline_time(flops, bytes, peak, mem_bw);
        }
        // KV-cache traffic per layer, 2·(h/tp) elements per cached token:
        // prefill writes the prompt's K/V once, decode streams the whole
        // cache back per generated token.
        let kv_elements = match workload {
            Workload::Prefill => 2 * m * h.div_ceil(tp),
            Workload::Decode => 2 * hyper.seq_len() * hyper.batch() * h.div_ceil(tp),
            Workload::Training => unreachable!(),
        };
        compute + (kv_elements * elem) as f64 / mem_bw
    }

    /// The per-layer communication half of [`Self::model`]: two
    /// serialized all-reduces (attention output and FC output), forward
    /// only — zero when tp == 1, like training. It reads nothing of a
    /// device but its network `net`.
    ///
    /// # Panics
    /// As [`Self::model`].
    #[must_use]
    pub fn comm_time(net: &NetworkSpec, hyper: &Hyperparams, tp: u64, workload: Workload) -> f64 {
        check_inference(tp, workload);
        let bytes = workload.tokens(hyper) * hyper.hidden() * hyper.precision().bytes();
        2.0 * CollectiveCostModel::default().allreduce_time(bytes, tp as usize, net)
    }

    /// Serialized-communication fraction of this iteration.
    #[must_use]
    pub fn comm_fraction(&self) -> f64 {
        let total = self.compute_per_layer + self.serialized_comm_per_layer;
        if total <= 0.0 {
            return 0.0;
        }
        self.serialized_comm_per_layer / total
    }
}

/// [`InferenceIteration`]'s preconditions: an inference workload and a
/// non-zero TP degree.
fn check_inference(tp: u64, workload: Workload) {
    assert!(
        workload != Workload::Training,
        "InferenceIteration models prefill/decode; training uses the projection model"
    );
    assert!(tp > 0, "tp must be non-zero");
}

/// Serialized-communication fraction of a forward-only (inference) pass.
#[must_use]
pub fn inference_comm_fraction(
    device: &DeviceSpec,
    hyper: &Hyperparams,
    parallel: &ParallelConfig,
) -> f64 {
    let graph = IterationBuilder::new(hyper, parallel, device).build_inference();
    Engine::new()
        .run(&graph)
        .expect("valid inference graph")
        .comm_fraction()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_parses_and_displays() {
        for (s, w) in [
            ("training", Workload::Training),
            ("prefill", Workload::Prefill),
            ("decode", Workload::Decode),
        ] {
            assert_eq!(s.parse::<Workload>().unwrap(), w);
            assert_eq!(w.to_string(), s);
        }
        let err = "chat".parse::<Workload>().unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
        assert_eq!(Workload::default(), Workload::Training);
    }

    #[test]
    fn decode_is_bandwidth_bound_relative_to_prefill() {
        let device = DeviceSpec::mi210();
        let hyper = crate::serialized::sweep_hyper(16_384, 2048, 1);
        for tp in [8u64, 64, 256] {
            let p = InferenceIteration::model(&device, &hyper, tp, Workload::Prefill);
            let d = InferenceIteration::model(&device, &hyper, tp, Workload::Decode);
            // Decode amortizes the same two all-reduce sites over matvec
            // compute, so its comm fraction dominates prefill's.
            assert!(
                d.comm_fraction() >= p.comm_fraction(),
                "tp={tp}: decode {:.3} vs prefill {:.3}",
                d.comm_fraction(),
                p.comm_fraction()
            );
            assert!(p.compute_per_layer > 0.0 && d.compute_per_layer > 0.0);
        }
    }

    #[test]
    fn single_device_inference_has_no_serialized_comm() {
        let device = DeviceSpec::mi210();
        let hyper = crate::serialized::sweep_hyper(4096, 2048, 1);
        for workload in [Workload::Prefill, Workload::Decode] {
            let it = InferenceIteration::model(&device, &hyper, 1, workload);
            assert_eq!(it.serialized_comm_per_layer, 0.0);
            assert_eq!(it.comm_fraction(), 0.0);
        }
    }

    #[test]
    fn inference_fraction_grows_with_tp() {
        let device = DeviceSpec::mi210();
        let hyper = Hyperparams::builder(16_384)
            .heads(256)
            .layers(2)
            .seq_len(2048)
            .batch(1)
            .build()
            .unwrap();
        let f =
            |tp: u64| inference_comm_fraction(&device, &hyper, &ParallelConfig::new().tensor(tp));
        assert!(f(16) < f(64));
        assert!(f(64) < f(256));
    }
}
