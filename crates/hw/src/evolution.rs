//! Hardware-evolution scaling (paper §4.3.6).
//!
//! The paper's central hardware question: compute FLOPS have historically
//! scaled faster than network bandwidth — 5×/2× (NVIDIA V100→A100) and
//! 7×/1.7× (AMD MI50→MI100) between 2018 and 2020, i.e. a *flop-vs.-bw*
//! ratio of ~2–4×. [`HwEvolution`] applies such relative scaling to a
//! [`DeviceSpec`], producing the "future hardware" used by Figures 12–14.

use crate::device::DeviceSpec;
use crate::precision::Precision;
use std::fmt;

/// A multiplicative scaling of device capabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwEvolution {
    /// Multiplier on peak math throughput (all precisions).
    pub flop_scale: f64,
    /// Multiplier on all network bandwidths (links and ring all-reduce).
    pub network_scale: f64,
    /// Multiplier on memory bandwidth.
    pub mem_bandwidth_scale: f64,
    /// Multiplier on memory capacity.
    pub mem_capacity_scale: f64,
}

/// The largest flop-vs.-bw ratio any catalog device can be evolved by.
/// [`HwEvolution::apply`] multiplies every peak rate by the ratio, and
/// the catalog's fastest rate (below 1e16 FLOP/s) times more than about
/// 1.8e292 overflows `f64`.
pub const MAX_FLOP_VS_BW: f64 = 1e290;

impl HwEvolution {
    /// The identity evolution (today's hardware).
    #[must_use]
    pub fn identity() -> Self {
        Self {
            flop_scale: 1.0,
            network_scale: 1.0,
            mem_bandwidth_scale: 1.0,
            mem_capacity_scale: 1.0,
        }
    }

    /// The paper's *flop-vs.-bw* experiment: compute scales `ratio`× more
    /// than network bandwidth. Network bandwidth is held constant and
    /// compute is multiplied, which only fixes the *relative* scaling the
    /// analysis depends on. Memory bandwidth follows compute (GEMMs stay
    /// compute-bound, per §4.2.3).
    ///
    /// # Panics
    /// Panics if `ratio` is not ≥ 1 and finite.
    #[must_use]
    pub fn flop_vs_bw(ratio: f64) -> Self {
        assert!(
            ratio.is_finite() && ratio >= 1.0,
            "flop-vs-bw ratio must be >= 1, got {ratio}"
        );
        Self {
            flop_scale: ratio,
            network_scale: 1.0,
            mem_bandwidth_scale: ratio,
            mem_capacity_scale: 1.0,
        }
    }

    /// Derive the historical evolution between two catalog devices at the
    /// given precision: per-component ratios `newer / older`.
    #[must_use]
    pub fn between(older: &DeviceSpec, newer: &DeviceSpec, precision: Precision) -> Self {
        Self {
            flop_scale: newer.peak_flops(precision) / older.peak_flops(precision),
            network_scale: newer.network().intra_node().bandwidth()
                / older.network().intra_node().bandwidth(),
            mem_bandwidth_scale: newer.mem_bandwidth() / older.mem_bandwidth(),
            mem_capacity_scale: newer.mem_capacity() as f64 / older.mem_capacity() as f64,
        }
    }

    /// The flop-vs.-bw ratio implied by this evolution.
    #[must_use]
    pub fn flop_vs_bw_ratio(&self) -> f64 {
        self.flop_scale / self.network_scale
    }

    /// Apply this evolution to a device, producing the future device.
    ///
    /// # Panics
    /// Panics if any scale is not strictly positive and finite.
    #[must_use]
    pub fn apply(&self, device: &DeviceSpec) -> DeviceSpec {
        for (name, v) in [
            ("flop_scale", self.flop_scale),
            ("network_scale", self.network_scale),
            ("mem_bandwidth_scale", self.mem_bandwidth_scale),
            ("mem_capacity_scale", self.mem_capacity_scale),
        ] {
            assert!(v.is_finite() && v > 0.0, "{name} must be positive, got {v}");
        }
        let peak = crate::precision::PeakFlops::new(
            device.peak_flops(Precision::Fp64) * self.flop_scale,
            device.peak_flops(Precision::Fp32) * self.flop_scale,
            device.peak_flops(Precision::Fp16) * self.flop_scale,
            device.peak_flops(Precision::Bf16) * self.flop_scale,
            device.peak_flops(Precision::Fp8) * self.flop_scale,
        );
        let capacity = (device.mem_capacity() as f64 * self.mem_capacity_scale) as u64;
        let name = format!(
            "{} (x{:.1} flops, x{:.1} net)",
            device.name(),
            self.flop_scale,
            self.network_scale
        );
        device.clone().evolved(
            peak,
            capacity,
            device.mem_bandwidth() * self.mem_bandwidth_scale,
            device.network().scaled_bandwidth(self.network_scale),
            name,
        )
    }
}

impl Default for HwEvolution {
    fn default() -> Self {
        Self::identity()
    }
}

impl fmt::Display for HwEvolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "flops x{:.2}, net x{:.2}, mem-bw x{:.2}, mem-cap x{:.2}",
            self.flop_scale, self.network_scale, self.mem_bandwidth_scale, self.mem_capacity_scale
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::GemmShape;

    #[test]
    fn identity_changes_nothing_measurable() {
        let d = DeviceSpec::mi210();
        let e = HwEvolution::identity().apply(&d);
        assert_eq!(e.peak_flops(Precision::Fp16), d.peak_flops(Precision::Fp16));
        assert_eq!(e.mem_capacity(), d.mem_capacity());
    }

    #[test]
    fn flop_vs_bw_speeds_compute_not_network() {
        let d = DeviceSpec::mi210();
        let fut = HwEvolution::flop_vs_bw(4.0).apply(&d);
        assert_eq!(
            fut.peak_flops(Precision::Fp16),
            4.0 * d.peak_flops(Precision::Fp16)
        );
        assert_eq!(
            fut.network().ring_allreduce_bandwidth(),
            d.network().ring_allreduce_bandwidth()
        );
        // A large GEMM gets ~4x faster (launch overhead excepted).
        let shape = GemmShape::new(8192, 8192, 8192);
        let t_now = d.gemm_time(shape, Precision::Fp16);
        let t_fut = fut.gemm_time(shape, Precision::Fp16);
        let speedup = t_now / t_fut;
        assert!((3.5..=4.1).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn historical_ratio_between_v100_and_a100() {
        let e = HwEvolution::between(&DeviceSpec::v100(), &DeviceSpec::a100(), Precision::Fp16);
        let r = e.flop_vs_bw_ratio();
        // §4.3.6: compute scaled ~2-4x more than network.
        assert!((2.0..=4.0).contains(&r), "flop-vs-bw ratio {r}");
    }

    #[test]
    fn historical_ratio_between_mi50_and_mi100() {
        let e = HwEvolution::between(&DeviceSpec::mi50(), &DeviceSpec::mi100(), Precision::Fp16);
        let r = e.flop_vs_bw_ratio();
        assert!((2.0..=4.5).contains(&r), "flop-vs-bw ratio {r}");
    }

    #[test]
    #[should_panic(expected = "flop-vs-bw ratio")]
    fn sub_unity_ratio_rejected() {
        let _ = HwEvolution::flop_vs_bw(0.5);
    }

    #[test]
    fn display_mentions_scales() {
        let e = HwEvolution::flop_vs_bw(2.0);
        let s = e.to_string();
        assert!(s.contains("x2.00"));
    }
}
