//! The profiling harness — our rocProf stand-in.
//!
//! [`Profiler`] "executes" operators on the hardware substrate and records
//! per-kernel timings ([`OperatorRecord`]). It can profile a single op, a
//! whole layer (forward + backward), the paper's DP slack ROI (§4.2.2,
//! step 2a), or a full training iteration through the discrete-event
//! simulator.

use twocs_collectives::CollectiveCostModel;
use twocs_hw::gemm::{GemmModel, GemmShape, KernelChoice};
use twocs_hw::network::NetworkSpec;
use twocs_hw::{DeviceSpec, Precision};
use twocs_sim::{Engine, OpClass, SimError};
use twocs_transformer::backward::{encoder_layer_backward, fc_backward_roi};
use twocs_transformer::graph_builder::IterationBuilder;
use twocs_transformer::layer::encoder_layer_forward;
use twocs_transformer::ops::OpKind;
use twocs_transformer::{Hyperparams, Op, ParallelConfig};

/// Formerly emptied the process-global slack-ROI memo cache, which is
/// gone: [`Profiler::profile_slack_roi`] profiles directly. Kept as a
/// no-op only because the `perfbench/` harness still calls it; it goes
/// once that harness drops the call.
#[doc(hidden)]
pub fn clear_slack_roi_cache() {}

/// One profiled operator execution.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorRecord {
    /// Operator label (e.g. `"fc1_gemm"`).
    pub name: &'static str,
    /// Operator class.
    pub class: OpClass,
    /// Measured execution time, seconds.
    pub time: f64,
    /// Algorithmic FLOPs.
    pub flops: u64,
    /// Communicated bytes (zero for compute).
    pub comm_bytes: u64,
    /// Whether the op is critical-path communication.
    pub serialized_comm: bool,
}

/// A profiled layer: forward and backward operator records.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerProfile {
    /// Forward-pass records, in execution order.
    pub forward: Vec<OperatorRecord>,
    /// Backward-pass records, in execution order.
    pub backward: Vec<OperatorRecord>,
}

impl LayerProfile {
    /// All records, forward then backward.
    pub fn iter(&self) -> impl Iterator<Item = &OperatorRecord> {
        self.forward.iter().chain(self.backward.iter())
    }

    /// Total compute time (GEMMs + mem-ops), seconds.
    #[must_use]
    pub fn compute_time(&self) -> f64 {
        self.iter()
            .filter(|r| !r.class.is_comm())
            .map(|r| r.time)
            .sum()
    }

    /// Total serialized communication time, seconds.
    #[must_use]
    pub fn serialized_comm_time(&self) -> f64 {
        self.iter()
            .filter(|r| r.serialized_comm)
            .map(|r| r.time)
            .sum()
    }
}

/// Profiles operators against a device model.
#[derive(Debug, Clone)]
pub struct Profiler {
    device: DeviceSpec,
    comm_model: CollectiveCostModel,
}

impl Profiler {
    /// Create a profiler for `device` with the default collective model.
    #[must_use]
    pub fn new(device: DeviceSpec) -> Self {
        Self {
            device,
            comm_model: CollectiveCostModel::default(),
        }
    }

    /// The profiled device.
    #[must_use]
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The collective cost model in use.
    #[must_use]
    pub fn comm_model(&self) -> &CollectiveCostModel {
        &self.comm_model
    }

    /// Profile one operator at the model's precision.
    #[must_use]
    pub fn profile_op(&self, op: &Op, hyper: &Hyperparams) -> OperatorRecord {
        OperatorRecord {
            name: op.name(),
            class: op.class(),
            time: op.time_on(&self.device, hyper.precision(), &self.comm_model),
            flops: op.flops(),
            comm_bytes: op.comm_bytes(hyper.precision()),
            serialized_comm: op.is_serialized_comm(),
        }
    }

    /// Profile one layer's forward and backward passes.
    #[must_use]
    pub fn profile_layer(&self, hyper: &Hyperparams, parallel: &ParallelConfig) -> LayerProfile {
        let forward = encoder_layer_forward(hyper, parallel)
            .iter()
            .map(|op| self.profile_op(op, hyper))
            .collect();
        let backward = encoder_layer_backward(hyper, parallel)
            .iter()
            .map(|op| self.profile_op(op, hyper))
            .collect();
        LayerProfile { forward, backward }
    }

    /// Profile the paper's DP slack ROI (§4.2.2 step 2a): the FC backward
    /// GEMM pair and the overlappable gradient all-reduce. Returns
    /// `(compute_time, comm_time)` in seconds.
    #[must_use]
    pub fn profile_slack_roi(&self, hyper: &Hyperparams, parallel: &ParallelConfig) -> (f64, f64) {
        let roi = SlackRoi::new(self.device.gemm_model(), hyper, parallel);
        (
            roi.compute_time(&self.device),
            roi.comm_time(self.device.network(), &self.comm_model),
        )
    }

    /// "Run" a full training iteration through the discrete-event
    /// simulator and return its wall-clock time in seconds — the
    /// exhaustive-profiling cost of one configuration.
    ///
    /// # Errors
    /// Propagates simulator graph-validation errors.
    pub fn measure_iteration(
        &self,
        hyper: &Hyperparams,
        parallel: &ParallelConfig,
    ) -> Result<f64, SimError> {
        let graph = IterationBuilder::new(hyper, parallel, &self.device)
            .comm_model(self.comm_model)
            .build_training();
        Ok(Engine::new().run(&graph)?.makespan().as_secs_f64())
    }
}

/// The paper's DP slack ROI (§4.2.2 step 2a) of one configuration, split
/// the way hardware evolution splits a device: [`Self::new`] resolves
/// what no evolved copy of a device changes — the FC backward GEMM pair
/// ([`fc_backward_roi`]) with each GEMM's kernel chosen, and the gradient
/// all-reduce — and [`Self::compute_time`] and [`Self::comm_time`] price
/// it on a device's rates and on a network. A sweep over flop-vs-bw
/// ratios builds one per configuration and prices it per ratio.
#[derive(Debug, Clone)]
pub struct SlackRoi {
    precision: Precision,
    /// The FC backward GEMM pair, with the kernel each runs.
    gemms: [(GemmShape, KernelChoice); 2],
    /// The overlappable gradient all-reduce.
    grad_ar: Op,
}

impl SlackRoi {
    /// The ROI of `(hyper, parallel)`, its kernels chosen by `gemm` (the
    /// GEMM model of the devices it will be priced on).
    #[must_use]
    pub fn new(gemm: &GemmModel, hyper: &Hyperparams, parallel: &ParallelConfig) -> Self {
        let (compute, grad_ar) = fc_backward_roi(hyper, parallel);
        let gemms = compute.map(|op| match *op.kind() {
            OpKind::Gemm(shape) => (shape, gemm.select_kernel(shape)),
            _ => unreachable!("the slack ROI's compute is the FC backward GEMM pair"),
        });
        Self {
            precision: hyper.precision(),
            gemms,
            grad_ar,
        }
    }

    /// The GEMM pair's time on `device`, seconds: the roofline half, the
    /// part that reads the device's peak rates.
    #[must_use]
    pub fn compute_time(&self, device: &DeviceSpec) -> f64 {
        self.gemms
            .iter()
            .map(|&(shape, choice)| device.chosen_gemm_time(shape, choice, self.precision))
            .sum()
    }

    /// The gradient all-reduce's time on `net`, seconds.
    #[must_use]
    pub fn comm_time(&self, net: &NetworkSpec, comm_model: &CollectiveCostModel) -> f64 {
        self.grad_ar.comm_time_on(net, self.precision, comm_model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiler() -> Profiler {
        Profiler::new(DeviceSpec::mi210())
    }

    fn hp() -> Hyperparams {
        Hyperparams::builder(1024)
            .heads(16)
            .seq_len(512)
            .batch(4)
            .build()
            .unwrap()
    }

    #[test]
    fn layer_profile_covers_all_ops() {
        let par = ParallelConfig::new().tensor(8);
        let p = profiler().profile_layer(&hp(), &par);
        assert_eq!(p.forward.len(), encoder_layer_forward(&hp(), &par).len());
        assert!(p.compute_time() > 0.0);
        assert!(p.serialized_comm_time() > 0.0);
        assert!(p.iter().all(|r| r.time > 0.0));
    }

    #[test]
    fn slack_roi_times_are_positive_and_comm_smaller_at_large_slb() {
        let par = ParallelConfig::new().tensor(8).data(4);
        let small = hp(); // SL*B = 2048
        let large = hp().with_seq_len(4096).with_batch(8); // SL*B = 32768
        let (c_small, r_small) = profiler().profile_slack_roi(&small, &par);
        let (c_large, r_large) = profiler().profile_slack_roi(&large, &par);
        // Comm is constant (weight gradients), compute grows with SL*B.
        assert!((r_small - r_large).abs() / r_small < 1e-9);
        assert!(c_large > 10.0 * c_small);
    }

    #[test]
    fn measured_iteration_close_to_serial_sum_for_tp_only() {
        // With TP only, everything is serialized, so the simulated
        // makespan should be close to the summed layer profile.
        let par = ParallelConfig::new().tensor(8);
        let hyper = hp();
        let p = profiler().profile_layer(&hyper, &par);
        let serial_per_layer = p.compute_time() + p.serialized_comm_time();
        let measured = profiler().measure_iteration(&hyper, &par).unwrap();
        let expected = serial_per_layer * hyper.layers() as f64;
        let ratio = measured / expected;
        assert!((0.95..=1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn record_fields_are_consistent() {
        let par = ParallelConfig::new().tensor(4);
        let p = profiler().profile_layer(&hp(), &par);
        for r in p.iter() {
            if r.class.is_comm() {
                assert!(r.comm_bytes > 0, "{}", r.name);
                assert_eq!(r.flops, 0, "{}", r.name);
            } else {
                assert_eq!(r.comm_bytes, 0, "{}", r.name);
            }
        }
    }
}
