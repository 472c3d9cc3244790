//! The operator vocabulary of a Transformer training iteration.
//!
//! Each [`Op`] is a named instance of a GEMM, a bandwidth-bound kernel, or
//! a communication primitive, with enough shape information to (a) count
//! its algorithmic cost (FLOPs / bytes, the paper's §3 analysis) and
//! (b) price its execution time on a `twocs-hw` device (the §4 empirical
//! analysis).

use std::fmt;
use twocs_collectives::{Collective, CollectiveCostModel};
use twocs_hw::gemm::GemmShape;
use twocs_hw::memops::MemOpKind;
use twocs_hw::network::NetworkSpec;
use twocs_hw::{DeviceSpec, Precision};
use twocs_sim::OpClass;

/// Which parallelism a communication op belongs to — determines whether it
/// is serialized (TP, EP, PP) or overlappable (DP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CommScope {
    /// Tensor-parallel activation/error all-reduce: on the critical path.
    TensorParallel,
    /// Data-parallel gradient all-reduce: overlappable with backprop.
    DataParallel,
    /// Expert-parallel all-to-all (MoE): on the critical path.
    Expert,
    /// Pipeline-parallel stage boundary transfer: on the critical path.
    Pipeline,
}

/// What an [`Op`] computes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum OpKind {
    /// A (batched) matrix multiplication.
    Gemm(GemmShape),
    /// A bandwidth-bound kernel over `elements` elements.
    MemOp {
        /// Kernel family.
        kind: MemOpKind,
        /// Logical element count.
        elements: u64,
    },
    /// An all-reduce over `participants` devices.
    AllReduce {
        /// Payload in elements.
        elements: u64,
        /// Group size.
        participants: u64,
        /// Which parallelism issued it.
        scope: CommScope,
    },
    /// A reduce-scatter over `participants` devices (sequence parallelism,
    /// ZeRO gradient sharding).
    ReduceScatter {
        /// Payload in elements (full tensor; each rank keeps 1/N).
        elements: u64,
        /// Group size.
        participants: u64,
        /// Which parallelism issued it.
        scope: CommScope,
    },
    /// An all-gather over `participants` devices.
    AllGather {
        /// Payload in elements (full gathered tensor).
        elements: u64,
        /// Group size.
        participants: u64,
        /// Which parallelism issued it.
        scope: CommScope,
    },
    /// An all-to-all over `participants` devices.
    AllToAll {
        /// Payload in elements (per device).
        elements: u64,
        /// Group size.
        participants: u64,
        /// Which parallelism issued it.
        scope: CommScope,
    },
    /// A point-to-point activation transfer (pipeline stage boundary).
    PointToPoint {
        /// Payload in elements.
        elements: u64,
    },
}

/// One named operator instance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Op {
    name: &'static str,
    kind: OpKind,
}

impl Op {
    /// Create a named operator.
    #[must_use]
    pub fn new(name: &'static str, kind: OpKind) -> Self {
        Self { name, kind }
    }

    /// Shorthand for a GEMM op.
    #[must_use]
    pub fn gemm(name: &'static str, shape: GemmShape) -> Self {
        Self::new(name, OpKind::Gemm(shape))
    }

    /// Shorthand for a bandwidth-bound op.
    #[must_use]
    pub fn memop(name: &'static str, kind: MemOpKind, elements: u64) -> Self {
        Self::new(name, OpKind::MemOp { kind, elements })
    }

    /// Shorthand for an all-reduce.
    #[must_use]
    pub fn allreduce(
        name: &'static str,
        elements: u64,
        participants: u64,
        scope: CommScope,
    ) -> Self {
        Self::new(
            name,
            OpKind::AllReduce {
                elements,
                participants,
                scope,
            },
        )
    }

    /// Operator label (stable across instances, e.g. `"fc1_gemm"`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The operator's kind and shape.
    #[must_use]
    pub fn kind(&self) -> &OpKind {
        &self.kind
    }

    /// Whether this is a communication op.
    #[must_use]
    pub fn is_comm(&self) -> bool {
        matches!(
            self.kind,
            OpKind::AllReduce { .. }
                | OpKind::ReduceScatter { .. }
                | OpKind::AllGather { .. }
                | OpKind::AllToAll { .. }
                | OpKind::PointToPoint { .. }
        )
    }

    /// Whether this is a *serialized* (critical-path) communication op —
    /// everything except DP gradient all-reduces.
    #[must_use]
    pub fn is_serialized_comm(&self) -> bool {
        match self.kind {
            OpKind::AllReduce { scope, .. }
            | OpKind::ReduceScatter { scope, .. }
            | OpKind::AllGather { scope, .. }
            | OpKind::AllToAll { scope, .. } => scope != CommScope::DataParallel,
            OpKind::PointToPoint { .. } => true,
            _ => false,
        }
    }

    /// The communication scope, if this is a communication op.
    #[must_use]
    pub fn comm_scope(&self) -> Option<CommScope> {
        match self.kind {
            OpKind::AllReduce { scope, .. }
            | OpKind::ReduceScatter { scope, .. }
            | OpKind::AllGather { scope, .. }
            | OpKind::AllToAll { scope, .. } => Some(scope),
            OpKind::PointToPoint { .. } => Some(CommScope::Pipeline),
            _ => None,
        }
    }

    /// Simulator op class for breakdowns.
    #[must_use]
    pub fn class(&self) -> OpClass {
        match self.kind {
            OpKind::Gemm(_) => OpClass::Gemm,
            OpKind::MemOp { .. } => OpClass::MemOp,
            _ => OpClass::Comm,
        }
    }

    /// Algorithmic compute cost in FLOPs (zero for communication).
    #[must_use]
    pub fn flops(&self) -> u64 {
        match &self.kind {
            OpKind::Gemm(shape) => shape.flops(),
            // Element-wise math is negligible next to GEMMs; the paper's
            // algorithmic analysis counts only GEMM FLOPs (§3.3).
            _ => 0,
        }
    }

    /// Bytes this op communicates (zero for compute), at `precision`.
    #[must_use]
    pub fn comm_bytes(&self, precision: Precision) -> u64 {
        match self.kind {
            OpKind::AllReduce { elements, .. }
            | OpKind::AllToAll { elements, .. }
            | OpKind::PointToPoint { elements } => elements * precision.bytes(),
            // RS/AG each move half an all-reduce of the same tensor.
            OpKind::ReduceScatter { elements, .. } | OpKind::AllGather { elements, .. } => {
                elements * precision.bytes() / 2
            }
            _ => 0,
        }
    }

    /// Group size for collectives (1 otherwise).
    #[must_use]
    pub fn participants(&self) -> u64 {
        match self.kind {
            OpKind::AllReduce { participants, .. }
            | OpKind::ReduceScatter { participants, .. }
            | OpKind::AllGather { participants, .. }
            | OpKind::AllToAll { participants, .. } => participants,
            _ => 1,
        }
    }

    /// Execution time (seconds) on `device` at `precision`, pricing
    /// collectives with `comm_model`. This is the simulator's ground
    /// truth — the quantity the paper measures with rocProf.
    #[must_use]
    pub fn time_on(
        &self,
        device: &DeviceSpec,
        precision: Precision,
        comm_model: &CollectiveCostModel,
    ) -> f64 {
        match &self.kind {
            OpKind::Gemm(shape) => device.gemm_time(*shape, precision),
            OpKind::MemOp { kind, elements } => device.memop_time(*kind, *elements, precision),
            _ => self.comm_time_on(device.network(), precision, comm_model),
        }
    }

    /// [`Self::time_on`] for a communication op: it reads nothing of the
    /// device but its network, so one price serves every device on
    /// `net` (hardware evolution by flop-vs-bw keeps the network).
    ///
    /// # Panics
    /// Panics on a GEMM or mem-op, which the device's rates price.
    #[must_use]
    pub fn comm_time_on(
        &self,
        net: &NetworkSpec,
        precision: Precision,
        comm_model: &CollectiveCostModel,
    ) -> f64 {
        let (collective, elements, participants) = match self.kind {
            OpKind::AllReduce {
                elements,
                participants,
                ..
            } => (Collective::AllReduce, elements, participants),
            OpKind::ReduceScatter {
                elements,
                participants,
                ..
            } => (Collective::ReduceScatter, elements, participants),
            OpKind::AllGather {
                elements,
                participants,
                ..
            } => (Collective::AllGather, elements, participants),
            OpKind::AllToAll {
                elements,
                participants,
                ..
            } => (Collective::AllToAll, elements, participants),
            OpKind::PointToPoint { elements } => {
                return net.intra_node().transfer_time(elements * precision.bytes())
            }
            OpKind::Gemm(_) | OpKind::MemOp { .. } => {
                panic!("{} is not a communication op", self.name)
            }
        };
        comm_model.node_time(
            collective,
            elements * precision.bytes(),
            participants as usize,
            net,
        )
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            OpKind::Gemm(shape) => write!(f, "{} [{shape}]", self.name),
            OpKind::MemOp { elements, .. } => write!(f, "{} [{elements} elems]", self.name),
            OpKind::AllReduce {
                elements,
                participants,
                ..
            } => write!(f, "{} [AR {elements} elems x{participants}]", self.name),
            OpKind::ReduceScatter {
                elements,
                participants,
                ..
            } => write!(f, "{} [RS {elements} elems x{participants}]", self.name),
            OpKind::AllGather {
                elements,
                participants,
                ..
            } => write!(f, "{} [AG {elements} elems x{participants}]", self.name),
            OpKind::AllToAll {
                elements,
                participants,
                ..
            } => write!(f, "{} [A2A {elements} elems x{participants}]", self.name),
            OpKind::PointToPoint { elements } => {
                write!(f, "{} [P2P {elements} elems]", self.name)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_flops_come_from_shape() {
        let op = Op::gemm("qkv_gemm", GemmShape::new(128, 256, 512));
        assert_eq!(op.flops(), 2 * 128 * 256 * 512);
        assert_eq!(op.comm_bytes(Precision::Fp16), 0);
        assert!(!op.is_comm());
        assert_eq!(op.class(), OpClass::Gemm);
    }

    #[test]
    fn allreduce_bytes_scale_with_precision() {
        let op = Op::allreduce("tp_ar", 1_000_000, 8, CommScope::TensorParallel);
        assert_eq!(op.comm_bytes(Precision::Fp16), 2_000_000);
        assert_eq!(op.comm_bytes(Precision::Fp32), 4_000_000);
        assert!(op.is_comm());
        assert!(op.is_serialized_comm());
        assert_eq!(op.participants(), 8);
    }

    #[test]
    fn dp_allreduce_is_not_serialized() {
        let op = Op::allreduce("dp_ar", 1_000, 4, CommScope::DataParallel);
        assert!(op.is_comm());
        assert!(!op.is_serialized_comm());
        assert_eq!(op.comm_scope(), Some(CommScope::DataParallel));
    }

    #[test]
    fn times_are_positive_and_sane() {
        let dev = DeviceSpec::mi210();
        let comm = CollectiveCostModel::default();
        let gemm = Op::gemm("g", GemmShape::new(4096, 4096, 4096));
        let ln = Op::memop("layernorm", MemOpKind::LayerNorm, 1 << 22);
        let ar = Op::allreduce("ar", 1 << 24, 8, CommScope::TensorParallel);
        for op in [&gemm, &ln, &ar] {
            let t = op.time_on(&dev, Precision::Fp16, &comm);
            assert!(t > 0.0 && t < 1.0, "{op}: {t}");
        }
        // GEMM dominates LayerNorm of comparable logical size.
        assert!(
            gemm.time_on(&dev, Precision::Fp16, &comm) > ln.time_on(&dev, Precision::Fp16, &comm)
        );
    }

    #[test]
    fn display_includes_shape_info() {
        let op = Op::gemm("fc1_gemm", GemmShape::new(2048, 4096, 1024));
        assert!(op.to_string().contains("fc1_gemm"));
        assert!(op.to_string().contains("2048"));
    }
}
