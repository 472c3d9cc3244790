//! Overlapped-communication (slack) analysis (paper §4.3.5, Figure 11).
//!
//! The paper's ROI methodology: extract the backward FC GEMM pair and the
//! data-parallel gradient all-reduce it must hide, execute only those in
//! isolation, and report communication as a percentage of the compute it
//! overlaps with. ≥100% means the communication cannot be hidden.
//! [`overlap_pct`] is the sweep kernel's overlap metric, through which
//! the registry prices Figs. 11 and 13.

use twocs_collectives::CollectiveCostModel;
use twocs_hw::gemm::GemmModel;
use twocs_hw::network::NetworkSpec;
use twocs_hw::DeviceSpec;
use twocs_opmodel::SlackRoi;
use twocs_transformer::{Hyperparams, ParallelConfig};

/// The most data-parallel replicas a front end prices or simulates: a
/// million devices, past any machine, and well inside the simulator's
/// clock (each replica adds two latency steps to the gradient ring).
/// `twocs analyze` and `/v1/overlapped` both refuse a larger DP.
pub const MAX_DP: u64 = 1 << 20;

/// Hyperparameters for one overlap ROI point (heads fixed power-of-two).
#[must_use]
pub fn roi_hyper(h: u64, slb: u64) -> Hyperparams {
    Hyperparams::builder(h)
        .heads((h / 64).clamp(16, 256))
        .seq_len(slb)
        .batch(1)
        .build()
        .expect("ROI hyperparameters are valid")
}

/// The slack ROI [`overlap_pct`] prices for one configuration — TP
/// silently clamped to the head count — with each GEMM's kernel chosen
/// by `gemm`: the half of the overlap percentage that no flop-vs-bw
/// evolution of a device changes. The factored sweep plan builds it once
/// per `(H, SL, TP)` triple.
pub(crate) fn slack_roi(gemm: &GemmModel, h: u64, slb: u64, tp: u64, dp: u64) -> SlackRoi {
    let hyper = roi_hyper(h, slb);
    let parallel = ParallelConfig::new().tensor(tp.min(hyper.heads())).data(dp);
    SlackRoi::new(gemm, &hyper, &parallel)
}

/// The network half of [`overlap_pct`]: `roi`'s gradient all-reduce on
/// `net`, seconds.
pub(crate) fn roi_comm_time(roi: &SlackRoi, net: &NetworkSpec) -> f64 {
    roi.comm_time(net, &CollectiveCostModel::default())
}

/// The roofline half of [`overlap_pct`]: `comm` (from [`roi_comm_time`])
/// as a percentage of `roi`'s GEMM pair on `device`.
pub(crate) fn roi_overlap_pct(roi: &SlackRoi, comm: f64, device: &DeviceSpec) -> f64 {
    100.0 * comm / roi.compute_time(device)
}

/// Overlapped communication as a percentage of the compute it hides
/// behind, for one configuration: the three halves above, in turn.
#[must_use]
pub fn overlap_pct(device: &DeviceSpec, h: u64, slb: u64, tp: u64, dp: u64) -> f64 {
    let roi = slack_roi(device.gemm_model(), h, slb, tp, dp);
    roi_overlap_pct(&roi, roi_comm_time(&roi, device.network()), device)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> DeviceSpec {
        DeviceSpec::mi210()
    }

    #[test]
    fn overlap_falls_as_slb_grows() {
        // Eq. 9: slack is O(SL*B), so the comm percentage drops ~1/SLB.
        for h in [4096u64, 16_384] {
            let small = overlap_pct(&device(), h, 1024, 16, 4);
            let large = overlap_pct(&device(), h, 32_768, 16, 4);
            assert!(
                large < small / 8.0,
                "H={h}: {small}% at 1K vs {large}% at 32K"
            );
        }
    }

    #[test]
    fn smaller_h_has_higher_overlap_pct() {
        // §4.3.5: smaller H under-utilizes network bandwidth, leaving a
        // larger overlap percentage (a hardware effect the algorithmic
        // analysis misses).
        let small_h = overlap_pct(&device(), 1024, 4096, 16, 4);
        let big_h = overlap_pct(&device(), 65_536, 4096, 16, 4);
        assert!(small_h > 1.5 * big_h, "H=1K {small_h}% vs H=64K {big_h}%");
    }

    #[test]
    fn result_is_dp_degree_insensitive_at_saturating_sizes() {
        // §4.3.2: the DP analysis is largely agnostic to DP degree (ring
        // AR traffic scales as (N-1)/N). This holds once per-rank chunks
        // saturate the links — large gradients do; small ones pay extra
        // per-step latency and chunk-granularity penalties.
        let a = overlap_pct(&device(), 65_536, 4096, 16, 4);
        let b = overlap_pct(&device(), 65_536, 4096, 16, 64);
        let ratio = b / a;
        assert!((0.8..=1.5).contains(&ratio), "DP 4 vs 64 ratio {ratio}");
    }

    /// Pins the silent clamp in [`overlap_pct`]: a TP degree above the
    /// model's head count cannot shard further and is clamped to
    /// `hyper.heads()`. Query services layered on top (`twocs serve`)
    /// must validate TP explicitly — an out-of-range TP does NOT error
    /// here, it returns the at-heads value.
    #[test]
    fn tp_above_head_count_is_clamped_to_heads() {
        // H=1024 -> (1024/64).clamp(16,256) = 16 heads.
        let heads = roi_hyper(1024, 2048).heads();
        assert_eq!(heads, 16);
        let clamped = overlap_pct(&device(), 1024, 2048, 256, 4);
        let at_heads = overlap_pct(&device(), 1024, 2048, heads, 4);
        assert_eq!(
            clamped, at_heads,
            "TP=256 must behave exactly like TP=heads"
        );
        // And the clamp is real: a genuinely smaller TP gives a different
        // answer, so the clamped result would be misleading if reported
        // as a TP=256 datapoint.
        let tp8 = overlap_pct(&device(), 1024, 2048, 8, 4);
        assert_ne!(clamped, tp8);
    }

    #[test]
    fn tp_one_is_accepted_and_finite() {
        let v = overlap_pct(&device(), 4096, 2048, 1, 4);
        assert!(v.is_finite() && v > 0.0, "TP=1 overlap {v}");
    }

    #[test]
    #[should_panic(expected = "ROI hyperparameters are valid")]
    fn zero_slb_is_rejected() {
        // SL·B = 0 is not a silent zero or NaN: hyperparameter validation
        // rejects it (callers serving untrusted queries must pre-validate).
        let _ = overlap_pct(&device(), 4096, 0, 16, 4);
    }
}
