//! Projecting full-iteration breakdowns from a single baseline profile.
//!
//! [`ProjectionModel::from_baseline`] profiles one (BERT-like) model on a
//! single device — the paper's step ② — and keeps (a) every operator's
//! baseline runtime and (b) a measured all-reduce size curve from the
//! node. [`ProjectionModel::project`] then prices *any* target
//! configuration by scaling each operator with its analytic law and
//! pricing collectives off the measured curve, without ever "running" the
//! target — the paper's route to studying hundreds of future models.

use crate::model::{ArSizeModel, ScalingExponents};
use crate::profile::{OperatorRecord, Profiler};
use twocs_collectives::CollectiveCostModel;
use twocs_hw::network::NetworkSpec;
use twocs_hw::DeviceSpec;
use twocs_transformer::{Hyperparams, ParallelConfig};

/// One baseline operator, pre-resolved for the projection hot loop:
/// which scaling law governs it (an index into the model's distinct-law
/// table), its baseline runtime, and whether it marks the start of the
/// backward pass.
#[derive(Debug, Clone, Copy)]
struct ResolvedOp {
    /// `(law index, baseline time)`, or `None` for communication ops and
    /// ops without a scaling law (they contribute no projected compute).
    projected: Option<(usize, f64)>,
    /// True if this op's name carries a backward-pass marker.
    backward_marker: bool,
}

/// A single-baseline projection model.
#[derive(Debug, Clone)]
pub struct ProjectionModel {
    baseline: Hyperparams,
    baseline_ops: Vec<OperatorRecord>,
    ar_model: ArSizeModel,
    /// Distinct scaling laws appearing in `baseline_ops`, in first-seen
    /// order. There are only a handful (attention, GEMM, elementwise,
    /// LayerNorm), so the hot loop prices each law once per projection
    /// instead of once per operator.
    laws: Vec<ScalingExponents>,
    /// `baseline_ops` with name-based law lookup and backward detection
    /// hoisted out of the per-projection loop.
    resolved: Vec<ResolvedOp>,
}

impl ProjectionModel {
    /// Profile `baseline` (unsliced, single device — the paper profiles
    /// BERT on one GPU) on `device` and fit the all-reduce curve on the
    /// device's node network.
    #[must_use]
    pub fn from_baseline(baseline: &Hyperparams, device: &DeviceSpec) -> Self {
        Self::with_ar_curve(baseline, device, Self::ar_curve(device.network()))
    }

    /// The all-reduce size curve [`from_baseline`] measures on `net`'s
    /// 4-GPU node. It reads nothing of a device but its network.
    ///
    /// [`from_baseline`]: ProjectionModel::from_baseline
    #[must_use]
    pub fn ar_curve(net: &NetworkSpec) -> ArSizeModel {
        ArSizeModel::profile(
            net,
            &CollectiveCostModel::default(),
            4, // the paper's 4-GPU node
            &ArSizeModel::default_sizes(),
        )
    }

    /// [`from_baseline`] with the all-reduce curve already measured:
    /// profiles `baseline` on `device` and keeps `ar_model`, which is
    /// [`ar_curve`] of `device`'s network. Flop-vs-bw evolution keeps the
    /// network, so a sweep over evolved devices measures the curve once
    /// and profiles only the baseline's operators per device.
    ///
    /// [`from_baseline`]: ProjectionModel::from_baseline
    /// [`ar_curve`]: ProjectionModel::ar_curve
    #[must_use]
    pub fn with_ar_curve(
        baseline: &Hyperparams,
        device: &DeviceSpec,
        ar_model: ArSizeModel,
    ) -> Self {
        let profile = Profiler::new(device.clone()).profile_layer(baseline, &ParallelConfig::new());
        let baseline_ops: Vec<OperatorRecord> = profile.iter().cloned().collect();
        let mut laws: Vec<ScalingExponents> = Vec::new();
        let resolved = baseline_ops
            .iter()
            .map(|record| {
                let projected = ScalingExponents::for_op(record.name).and_then(|law| {
                    // Mirror `project_op_time` exactly: the baseline time
                    // is the *first* record with this name.
                    let base = baseline_ops.iter().find(|r| r.name == record.name)?;
                    let idx = laws.iter().position(|l| *l == law).unwrap_or_else(|| {
                        laws.push(law);
                        laws.len() - 1
                    });
                    Some((idx, base.time))
                });
                ResolvedOp {
                    projected,
                    backward_marker: is_backward_marker(record.name),
                }
            })
            .collect();
        Self {
            baseline: baseline.clone(),
            baseline_ops,
            ar_model,
            laws,
            resolved,
        }
    }

    /// The baseline hyperparameters.
    #[must_use]
    pub fn baseline(&self) -> &Hyperparams {
        &self.baseline
    }

    /// The fitted all-reduce size curve.
    #[must_use]
    pub fn ar_model(&self) -> &ArSizeModel {
        &self.ar_model
    }

    /// Project the runtime of one named operator at a target
    /// configuration; `None` for unknown names or communication ops.
    #[must_use]
    pub fn project_op_time(&self, name: &str, target: &Hyperparams, target_tp: u64) -> Option<f64> {
        let law = ScalingExponents::for_op(name)?;
        let base = self.baseline_ops.iter().find(|r| r.name == name)?;
        Some(base.time * law.scale_factor(&self.baseline, 1, target, target_tp))
    }

    /// Project total and backward-only compute per layer at a target
    /// configuration: [`compute_from`] over [`law_factors`]. The
    /// factored sweep planner calls the two halves itself — the factors
    /// once per configuration, the compute once per evolved device — so
    /// both paths produce bit-equal floats.
    ///
    /// [`compute_from`]: ProjectionModel::compute_from
    /// [`law_factors`]: ProjectionModel::law_factors
    #[must_use]
    pub fn projected_compute(&self, target: &Hyperparams, target_tp: u64) -> (f64, f64) {
        self.compute_from(&self.law_factors(target, target_tp))
    }

    /// The device-independent half of [`projected_compute`]: each
    /// distinct scaling law's factor from the baseline to `(target,
    /// target_tp)`, in the model's law order. That order follows the
    /// baseline's operator names, which no device changes, so the
    /// factors of one model serve every model of the same baseline.
    ///
    /// [`projected_compute`]: ProjectionModel::projected_compute
    #[must_use]
    pub fn law_factors(&self, target: &Hyperparams, target_tp: u64) -> Vec<f64> {
        self.laws
            .iter()
            .map(|law| law.scale_factor(&self.baseline, 1, target, target_tp))
            .collect()
    }

    /// The roofline half of [`projected_compute`]: this model's profiled
    /// baseline operators, each scaled by its law's entry of `factors`
    /// (from [`law_factors`]), summed in baseline order into total and
    /// backward-only compute per layer.
    ///
    /// [`projected_compute`]: ProjectionModel::projected_compute
    /// [`law_factors`]: ProjectionModel::law_factors
    #[must_use]
    pub fn compute_from(&self, factors: &[f64]) -> (f64, f64) {
        debug_assert_eq!(factors.len(), self.laws.len(), "one factor per law");
        let mut compute = 0.0;
        let mut backward_compute = 0.0;
        let mut seen_backward = false;
        for op in &self.resolved {
            if op.backward_marker {
                seen_backward = true;
            }
            if let Some((law, time)) = op.projected {
                let t = time * factors[law];
                compute += t;
                if seen_backward {
                    backward_compute += t;
                }
            }
        }
        (compute, backward_compute)
    }

    /// Time of the four serialized TP all-reduces of the target's layer
    /// activations, priced off the measured curve. Independent of the TP
    /// degree; [`project`] applies it only when `tp > 1`.
    ///
    /// [`project`]: ProjectionModel::project
    #[must_use]
    pub fn serialized_ar_time(&self, target: &Hyperparams) -> f64 {
        Self::serialized_ar_time_on(&self.ar_model, target)
    }

    /// [`serialized_ar_time`] off `ar_model`, an [`ar_curve`]: the TP
    /// all-reduces read nothing of the device but its network.
    ///
    /// [`serialized_ar_time`]: ProjectionModel::serialized_ar_time
    /// [`ar_curve`]: ProjectionModel::ar_curve
    #[must_use]
    pub fn serialized_ar_time_on(ar_model: &ArSizeModel, target: &Hyperparams) -> f64 {
        let act_bytes = target.tokens() * target.hidden() * target.precision().bytes();
        4.0 * ar_model.predict(act_bytes)
    }

    /// Time of the overlappable DP gradient all-reduce of one layer's
    /// weights. [`project`] applies it only when `dp > 1`.
    ///
    /// [`project`]: ProjectionModel::project
    #[must_use]
    pub fn overlapped_ar_time(&self, target: &Hyperparams, parallel: &ParallelConfig) -> f64 {
        let grad_bytes = twocs_transformer::layer::layer_weight_elements(target, parallel)
            * target.precision().bytes();
        self.ar_model.predict(grad_bytes)
    }

    /// Project the per-layer breakdown of a target configuration.
    #[must_use]
    pub fn project(&self, target: &Hyperparams, parallel: &ParallelConfig) -> ProjectedIteration {
        let tp = parallel.tp();
        let (compute, backward_compute) = self.projected_compute(target, tp);

        // Four serialized TP all-reduces of the layer activations.
        let serialized_comm = if tp > 1 {
            self.serialized_ar_time(target)
        } else {
            0.0
        };

        // One overlappable DP gradient all-reduce per layer.
        let overlapped_comm = if parallel.dp() > 1 {
            self.overlapped_ar_time(target, parallel)
        } else {
            0.0
        };

        ProjectedIteration {
            layers: target.layers() / parallel.pp(),
            compute_per_layer: compute,
            backward_compute_per_layer: backward_compute,
            serialized_comm_per_layer: serialized_comm,
            overlapped_comm_per_layer: overlapped_comm,
        }
    }
}

/// Does this operator name mark (the start of) the backward pass?
fn is_backward_marker(name: &str) -> bool {
    name.ends_with("_bwd")
        || name.contains("_ig_")
        || name.contains("_wg_")
        || name.contains("dprobs")
        || name.contains("_dv_")
        || name.contains("_dq_")
        || name.contains("_dk_")
}

/// A projected per-layer (and per-iteration) time breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectedIteration {
    /// Layers executed per device.
    pub layers: u64,
    /// Forward + backward compute time per layer, seconds.
    pub compute_per_layer: f64,
    /// Backward-only compute time per layer, seconds (the work DP
    /// all-reduces can hide behind).
    pub backward_compute_per_layer: f64,
    /// Serialized (TP) communication per layer, seconds.
    pub serialized_comm_per_layer: f64,
    /// Overlappable (DP) communication per layer, seconds.
    pub overlapped_comm_per_layer: f64,
}

impl ProjectedIteration {
    /// Critical-path iteration time: layers × (compute + serialized comm
    /// + any exposed overlapped comm).
    #[must_use]
    pub fn iteration_time(&self) -> f64 {
        self.layers as f64
            * (self.compute_per_layer + self.serialized_comm_per_layer + self.exposed_overlap())
    }

    /// Overlapped communication that exceeds its hiding compute and spills
    /// onto the critical path, per layer.
    #[must_use]
    pub fn exposed_overlap(&self) -> f64 {
        (self.overlapped_comm_per_layer - self.backward_compute_per_layer).max(0.0)
    }

    /// Fraction of the critical path spent in serialized communication —
    /// the paper's Figure 10/12 metric.
    #[must_use]
    pub fn serialized_comm_fraction(&self) -> f64 {
        let total =
            self.compute_per_layer + self.serialized_comm_per_layer + self.exposed_overlap();
        if total <= 0.0 {
            return 0.0;
        }
        self.serialized_comm_per_layer / total
    }

    /// Overlapped communication as a fraction of the backward compute it
    /// hides behind — the paper's Figure 11/13 metric (≥ 1 means the
    /// communication is exposed).
    #[must_use]
    pub fn overlap_ratio(&self) -> f64 {
        if self.backward_compute_per_layer <= 0.0 {
            return 0.0;
        }
        self.overlapped_comm_per_layer / self.backward_compute_per_layer
    }

    /// Apply the paper's §4.3.6 hardware evolution: compute gets
    /// `flop_vs_bw`× faster while communication stands still.
    ///
    /// # Panics
    /// Panics if `flop_vs_bw` is not ≥ 1 and finite.
    #[must_use]
    pub fn with_flop_vs_bw(&self, flop_vs_bw: f64) -> Self {
        assert!(
            flop_vs_bw.is_finite() && flop_vs_bw >= 1.0,
            "flop-vs-bw ratio must be >= 1"
        );
        Self {
            compute_per_layer: self.compute_per_layer / flop_vs_bw,
            backward_compute_per_layer: self.backward_compute_per_layer / flop_vs_bw,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> Hyperparams {
        Hyperparams::builder(1024)
            .heads(16)
            .seq_len(512)
            .batch(4)
            .build()
            .unwrap()
    }

    fn model() -> ProjectionModel {
        ProjectionModel::from_baseline(&baseline(), &DeviceSpec::mi210())
    }

    #[test]
    fn projecting_the_baseline_is_identity_for_compute() {
        let m = model();
        let proj = m.project(&baseline(), &ParallelConfig::new());
        let profiler = Profiler::new(DeviceSpec::mi210());
        let ground = profiler.profile_layer(&baseline(), &ParallelConfig::new());
        let measured = ground.compute_time();
        assert!(
            ((proj.compute_per_layer - measured) / measured).abs() < 1e-9,
            "projected {} vs measured {measured}",
            proj.compute_per_layer
        );
        assert_eq!(proj.serialized_comm_per_layer, 0.0);
    }

    #[test]
    fn comm_fraction_rises_with_tp() {
        let m = model();
        let target = Hyperparams::builder(16_384)
            .heads(256)
            .seq_len(2048)
            .batch(1)
            .build()
            .unwrap();
        let f16 = m
            .project(&target, &ParallelConfig::new().tensor(16))
            .serialized_comm_fraction();
        let f64_ = m
            .project(&target, &ParallelConfig::new().tensor(64))
            .serialized_comm_fraction();
        let f256 = m
            .project(&target, &ParallelConfig::new().tensor(256))
            .serialized_comm_fraction();
        assert!(f16 < f64_ && f64_ < f256, "{f16} {f64_} {f256}");
    }

    #[test]
    fn comm_fraction_falls_with_h_at_fixed_tp() {
        let m = model();
        let small = Hyperparams::builder(4096)
            .heads(64)
            .seq_len(2048)
            .batch(1)
            .build()
            .unwrap();
        let large = Hyperparams::builder(32_768)
            .heads(64)
            .seq_len(2048)
            .batch(1)
            .build()
            .unwrap();
        let par = ParallelConfig::new().tensor(32);
        let fs = m.project(&small, &par).serialized_comm_fraction();
        let fl = m.project(&large, &par).serialized_comm_fraction();
        assert!(fl < fs, "H=4K {fs} vs H=32K {fl}");
    }

    #[test]
    fn slack_shrinks_with_smaller_slb() {
        let m = model();
        let par = ParallelConfig::new().tensor(16).data(8);
        let big_slb = Hyperparams::builder(8192)
            .heads(64)
            .seq_len(8192)
            .batch(4)
            .build()
            .unwrap();
        let small_slb = Hyperparams::builder(8192)
            .heads(64)
            .seq_len(1024)
            .batch(1)
            .build()
            .unwrap();
        let r_big = m.project(&big_slb, &par).overlap_ratio();
        let r_small = m.project(&small_slb, &par).overlap_ratio();
        assert!(r_small > r_big, "small SLB {r_small} vs big SLB {r_big}");
    }

    #[test]
    fn flop_vs_bw_scaling_raises_comm_fraction() {
        let m = model();
        let target = Hyperparams::builder(16_384)
            .heads(64)
            .seq_len(2048)
            .batch(1)
            .build()
            .unwrap();
        let proj = m.project(&target, &ParallelConfig::new().tensor(64));
        let f1 = proj.serialized_comm_fraction();
        let f2 = proj.with_flop_vs_bw(2.0).serialized_comm_fraction();
        let f4 = proj.with_flop_vs_bw(4.0).serialized_comm_fraction();
        assert!(f1 < f2 && f2 < f4);
        // Compute halves exactly.
        assert!(
            (proj.with_flop_vs_bw(2.0).compute_per_layer - proj.compute_per_layer / 2.0).abs()
                < 1e-12
        );
    }

    #[test]
    fn evolution_can_expose_overlapped_comm() {
        let m = model();
        // Small SL*B -> thin slack; 4x compute scaling should expose it.
        let target = Hyperparams::builder(2048)
            .heads(16)
            .seq_len(1024)
            .batch(1)
            .build()
            .unwrap();
        let par = ParallelConfig::new().tensor(16).data(8);
        let now = m.project(&target, &par);
        let fut = now.with_flop_vs_bw(4.0);
        assert!(fut.overlap_ratio() > now.overlap_ratio());
        if now.overlap_ratio() > 0.25 {
            assert!(
                fut.overlap_ratio() > 1.0,
                "4x scaling should expose: {}",
                fut.overlap_ratio()
            );
        }
    }

    #[test]
    fn unknown_op_projects_to_none() {
        let m = model();
        assert!(m.project_op_time("nonexistent", &baseline(), 1).is_none());
        assert!(m.project_op_time("tp_ar_attn", &baseline(), 8).is_none());
    }
}
