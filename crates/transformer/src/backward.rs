//! Backward (backpropagation) operator sequences.
//!
//! Each forward GEMM `C = A·B` yields two backward GEMMs: the input/error
//! gradient `dA = dC·Bᵀ` (IG) and the weight gradient `dB = Aᵀ·dC` (WG) —
//! the paper's Figure 5(a). Attention GEMMs have two activation operands,
//! so both of their backward GEMMs are error gradients. Tensor parallelism
//! adds **two more serialized all-reduces** in the backward pass (the
//! Megatron `f` operator), and data parallelism all-reduces each layer's
//! weight gradients, overlappable with the rest of backprop.

use crate::hyper::Hyperparams;
use crate::layer::layer_weight_elements;
use crate::ops::{CommScope, Op};
use crate::parallel::ParallelConfig;
use twocs_hw::gemm::GemmShape;
use twocs_hw::memops::MemOpKind;

/// Backward operator sequence of the FC sub-layer, per device, in
/// execution order.
#[must_use]
pub fn fc_sublayer_backward(hyper: &Hyperparams, parallel: &ParallelConfig) -> Vec<Op> {
    let h = hyper.hidden();
    let ff = hyper.ff_dim();
    let tp = parallel.tp();
    let tokens = hyper.tokens();
    let act = tokens * h;

    let mut ops = vec![
        Op::memop("fc_residual_bwd", MemOpKind::ResidualAdd, act),
        Op::memop("fc_dropout_bwd", MemOpKind::Dropout, act),
        // FC2 (row-parallel): dX = dY · W2ᵀ, dW2 = Xᵀ · dY.
        Op::gemm("fc2_ig_gemm", GemmShape::new(tokens, ff / tp, h)),
        Op::gemm("fc2_wg_gemm", GemmShape::new(ff / tp, h, tokens)),
        Op::memop("gelu_bwd", MemOpKind::Gelu, tokens * ff / tp),
        // FC1 (column-parallel).
        Op::gemm("fc1_ig_gemm", GemmShape::new(tokens, h, ff / tp)),
        Op::gemm("fc1_wg_gemm", GemmShape::new(h, ff / tp, tokens)),
    ];
    if tp > 1 {
        // Megatron `f` backward: reduce partial input gradients.
        ops.push(Op::allreduce(
            "tp_ar_fc_bwd",
            act,
            tp,
            CommScope::TensorParallel,
        ));
    }
    ops.push(Op::memop("ln2_bwd", MemOpKind::LayerNorm, act));
    ops
}

/// Backward operator sequence of the attention sub-layer, per device, in
/// execution order.
#[must_use]
pub fn attention_sublayer_backward(hyper: &Hyperparams, parallel: &ParallelConfig) -> Vec<Op> {
    let h = hyper.hidden();
    let tp = parallel.tp();
    let tokens = hyper.tokens();
    let heads_local = hyper.heads() / tp;
    let head_dim = hyper.head_dim();
    let sl = hyper.seq_len();
    let b = hyper.batch();
    let act = tokens * h;

    let mut ops = vec![
        Op::memop("attn_residual_bwd", MemOpKind::ResidualAdd, act),
        Op::memop("attn_dropout_bwd", MemOpKind::Dropout, act),
        // Output projection (row-parallel).
        Op::gemm("attn_out_ig_gemm", GemmShape::new(tokens, h / tp, h)),
        Op::gemm("attn_out_wg_gemm", GemmShape::new(h / tp, h, tokens)),
        // Context GEMM backward: d_probs and d_V (both activations).
        Op::gemm(
            "attn_ctx_dprobs_gemm",
            GemmShape::batched(sl, sl, head_dim, b * heads_local),
        ),
        Op::gemm(
            "attn_ctx_dv_gemm",
            GemmShape::batched(sl, head_dim, sl, b * heads_local),
        ),
        Op::memop("softmax_bwd", MemOpKind::Softmax, b * heads_local * sl * sl),
        // Score GEMM backward: d_Q and d_K.
        Op::gemm(
            "attn_score_dq_gemm",
            GemmShape::batched(sl, head_dim, sl, b * heads_local),
        ),
        Op::gemm(
            "attn_score_dk_gemm",
            GemmShape::batched(sl, head_dim, sl, b * heads_local),
        ),
        // QKV (column-parallel).
        Op::gemm("qkv_ig_gemm", GemmShape::new(tokens, h, 3 * h / tp)),
        Op::gemm("qkv_wg_gemm", GemmShape::new(3 * h / tp, h, tokens)),
    ];
    if tp > 1 {
        ops.push(Op::allreduce(
            "tp_ar_attn_bwd",
            act,
            tp,
            CommScope::TensorParallel,
        ));
    }
    ops.push(Op::memop("ln1_bwd", MemOpKind::LayerNorm, act));
    ops
}

/// Backward operator sequence of one encoder layer (FC sub-layer then
/// attention sub-layer), per device, in execution order.
#[must_use]
pub fn encoder_layer_backward(hyper: &Hyperparams, parallel: &ParallelConfig) -> Vec<Op> {
    let mut ops = fc_sublayer_backward(hyper, parallel);
    ops.extend(attention_sublayer_backward(hyper, parallel));
    ops
}

/// Backward operator sequence of the cross-attention sub-layer (see
/// [`layer::cross_attention_sublayer_forward`](crate::layer)).
#[must_use]
pub fn cross_attention_sublayer_backward(
    hyper: &Hyperparams,
    parallel: &ParallelConfig,
) -> Vec<Op> {
    let h = hyper.hidden();
    let tp = parallel.tp();
    let tokens = hyper.tokens();
    let heads_local = hyper.heads() / tp;
    let head_dim = hyper.head_dim();
    let sl = hyper.seq_len();
    let b = hyper.batch();
    let act = tokens * h;

    let mut ops = vec![
        Op::memop("xattn_residual_bwd", MemOpKind::ResidualAdd, act),
        Op::memop("xattn_dropout_bwd", MemOpKind::Dropout, act),
        Op::gemm("xattn_out_ig_gemm", GemmShape::new(tokens, h / tp, h)),
        Op::gemm("xattn_out_wg_gemm", GemmShape::new(h / tp, h, tokens)),
        Op::gemm(
            "xattn_ctx_dprobs_gemm",
            GemmShape::batched(sl, sl, head_dim, b * heads_local),
        ),
        Op::gemm(
            "xattn_ctx_dv_gemm",
            GemmShape::batched(sl, head_dim, sl, b * heads_local),
        ),
        Op::memop(
            "xattn_softmax_bwd",
            MemOpKind::Softmax,
            b * heads_local * sl * sl,
        ),
        Op::gemm(
            "xattn_score_dq_gemm",
            GemmShape::batched(sl, head_dim, sl, b * heads_local),
        ),
        Op::gemm(
            "xattn_score_dk_gemm",
            GemmShape::batched(sl, head_dim, sl, b * heads_local),
        ),
        Op::gemm("xattn_q_ig_gemm", GemmShape::new(tokens, h, h / tp)),
        Op::gemm("xattn_q_wg_gemm", GemmShape::new(h / tp, h, tokens)),
        Op::gemm("xattn_kv_ig_gemm", GemmShape::new(tokens, h, 2 * h / tp)),
        Op::gemm("xattn_kv_wg_gemm", GemmShape::new(2 * h / tp, h, tokens)),
    ];
    if tp > 1 {
        ops.push(Op::allreduce(
            "tp_ar_xattn_bwd",
            act,
            tp,
            CommScope::TensorParallel,
        ));
    }
    ops.push(Op::memop("xattn_ln_bwd", MemOpKind::LayerNorm, act));
    ops
}

/// Backward operator sequence of one encoder–decoder *decoder* layer
/// (FC, cross-attention, self-attention — reverse of the forward order).
#[must_use]
pub fn decoder_layer_backward(hyper: &Hyperparams, parallel: &ParallelConfig) -> Vec<Op> {
    let mut ops = fc_sublayer_backward(hyper, parallel);
    ops.extend(cross_attention_sublayer_backward(hyper, parallel));
    ops.extend(attention_sublayer_backward(hyper, parallel));
    ops
}

/// The data-parallel gradient all-reduce for one layer's weights,
/// overlappable with the backward pass of earlier layers.
/// Returns `None` when `DP == 1`.
#[must_use]
pub fn layer_grad_allreduce(hyper: &Hyperparams, parallel: &ParallelConfig) -> Option<Op> {
    if parallel.dp() <= 1 {
        return None;
    }
    Some(Op::allreduce(
        "dp_grad_ar",
        layer_weight_elements(hyper, parallel),
        parallel.dp(),
        CommScope::DataParallel,
    ))
}

/// The paper's region of interest for the DP slack analysis (Eqs. 7–8):
/// the FC1 weight- and input-gradient GEMMs, and the all-reduce of FC1's
/// weight gradient.
///
/// Compute ops total `4·(4H·H/TP·SL·B)` FLOPs (Eq. 7); the all-reduce
/// moves `precision/8 · 4H·H/TP` bytes (Eq. 8); their ratio is the slack
/// `O(SL·B)` (Eq. 9).
#[must_use]
pub fn fc_backward_roi(hyper: &Hyperparams, parallel: &ParallelConfig) -> ([Op; 2], Op) {
    let h = hyper.hidden();
    let ff = hyper.ff_dim();
    let tp = parallel.tp();
    let tokens = hyper.tokens();
    let compute = [
        Op::gemm("fc1_ig_gemm", GemmShape::new(tokens, h, ff / tp)),
        Op::gemm("fc1_wg_gemm", GemmShape::new(h, ff / tp, tokens)),
    ];
    let comm = Op::allreduce(
        "dp_grad_ar_fc1",
        h * ff / tp,
        parallel.dp().max(2),
        CommScope::DataParallel,
    );
    (compute, comm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{encoder_layer_forward, forward_flops};

    fn hp(h: u64, sl: u64, b: u64) -> Hyperparams {
        Hyperparams::builder(h)
            .seq_len(sl)
            .batch(b)
            .build()
            .unwrap()
    }

    #[test]
    fn backward_has_two_gemms_per_forward_gemm() {
        let hyper = hp(4096, 2048, 1);
        let par = ParallelConfig::new().tensor(8);
        let fwd_gemms = encoder_layer_forward(&hyper, &par)
            .iter()
            .filter(|o| o.flops() > 0)
            .count();
        let bwd_gemms = encoder_layer_backward(&hyper, &par)
            .iter()
            .filter(|o| o.flops() > 0)
            .count();
        assert_eq!(bwd_gemms, 2 * fwd_gemms);
    }

    #[test]
    fn backward_flops_are_twice_forward() {
        let hyper = hp(4096, 2048, 1);
        let par = ParallelConfig::new().tensor(8);
        let fwd: u64 = forward_flops(&hyper, &par);
        let bwd: u64 = encoder_layer_backward(&hyper, &par)
            .iter()
            .map(Op::flops)
            .sum();
        assert_eq!(bwd, 2 * fwd);
    }

    #[test]
    fn four_serialized_allreduces_per_layer_total() {
        // §3.3: "In a Transformer layer, there are four such serialized
        // all-reduce operations" (2 forward + 2 backward).
        let hyper = hp(4096, 2048, 1);
        let par = ParallelConfig::new().tensor(8);
        let fwd = encoder_layer_forward(&hyper, &par);
        let bwd = encoder_layer_backward(&hyper, &par);
        let total = fwd
            .iter()
            .chain(bwd.iter())
            .filter(|o| o.is_serialized_comm())
            .count();
        assert_eq!(total, 4);
    }

    #[test]
    fn decoder_backward_mirrors_decoder_forward() {
        use crate::layer::decoder_layer_forward;
        let hyper = hp(4096, 1024, 1);
        let par = ParallelConfig::new().tensor(8);
        let fwd = decoder_layer_forward(&hyper, &par);
        let bwd = decoder_layer_backward(&hyper, &par);
        let gemms = |ops: &[Op]| ops.iter().filter(|o| o.flops() > 0).count();
        // The two score-family GEMMs each get two backward GEMMs; the
        // paired QKV of the encoder path becomes Q + KV in cross
        // attention, still 2 backward GEMMs per forward GEMM.
        assert_eq!(gemms(&bwd), 2 * gemms(&fwd));
        let flops = |ops: &[Op]| ops.iter().map(Op::flops).sum::<u64>();
        assert_eq!(flops(&bwd), 2 * flops(&fwd));
        // Six serialized all-reduces per decoder layer (3 fwd + 3 bwd).
        let ars = fwd
            .iter()
            .chain(bwd.iter())
            .filter(|o| o.is_serialized_comm())
            .count();
        assert_eq!(ars, 6);
    }

    #[test]
    fn grad_allreduce_present_only_with_dp() {
        let hyper = hp(4096, 2048, 1);
        assert!(layer_grad_allreduce(&hyper, &ParallelConfig::new()).is_none());
        let op = layer_grad_allreduce(&hyper, &ParallelConfig::new().data(8)).unwrap();
        assert!(!op.is_serialized_comm());
        assert_eq!(op.participants(), 8);
    }

    #[test]
    fn roi_matches_eq7_and_eq8() {
        let h = 8192u64;
        let sl = 2048u64;
        let b = 2u64;
        let tp = 16u64;
        let hyper = hp(h, sl, b);
        let par = ParallelConfig::new().tensor(tp).data(4);
        let (compute, comm) = fc_backward_roi(&hyper, &par);
        let flops: u64 = compute.iter().map(Op::flops).sum();
        // Eq. 7: 4 · (4H · H/TP · SL · B) with the leading 2 of 2MNK
        // folded in (two GEMMs of 2·(4H/TP)·H·SL·B each).
        assert_eq!(flops, 4 * 4 * h * (h / tp) * sl * b);
        // Eq. 8: 4H²/TP elements.
        assert_eq!(comm.comm_bytes(hyper.precision()), 2 * 4 * h * h / tp);
    }

    #[test]
    fn slack_ratio_is_sl_times_b() {
        // Eq. 9: flops / elements = 4·SL·B (the paper's O(SL·B) slack with
        // its constant).
        let hyper = hp(4096, 1024, 4);
        let par = ParallelConfig::new().tensor(8);
        let (compute, comm) = fc_backward_roi(&hyper, &par);
        let flops: u64 = compute.iter().map(Op::flops).sum();
        let elements = comm.comm_bytes(hyper.precision()) / 2;
        assert_eq!(flops / elements, 4 * hyper.tokens());
    }
}
