//! Future-hardware analysis (paper §4.3.6, Figures 12 and 13).
//!
//! Historical GPU generations scaled compute FLOPS 2–4× faster than
//! network bandwidth. These sweeps re-run the serialized and overlapped
//! analyses on devices evolved by that *flop-vs.-bw* ratio: serialized
//! communication climbs from 20–50% to 30–65% (2×) and 40–75% (4×), and
//! overlapped communication starts exceeding the compute that should hide
//! it (≥100% = exposed). The registry's fig12 and fig13 are those
//! studies' points at each ratio, priced by the sweep kernel.

use crate::serialized::Method;
use crate::sweep::{eval_grid_metric, GridMetric, GridPoint, Workload};
use twocs_hw::DeviceSpec;

/// The flop-vs.-bw ratios studied by the paper.
pub const FLOP_VS_BW_RATIOS: [f64; 3] = [1.0, 2.0, 4.0];

/// The paper's highlighted `(H, SL, TP)` configurations (§4.3.4): models
/// at their memory-required TP degrees.
pub const HIGHLIGHTED_CONFIGS: [(u64, u64, u64); 4] = [
    (4096, 2048, 16),
    (16_384, 2048, 64),
    (65_536, 2048, 256),
    (65_536, 4096, 128),
];

/// The per-scale (min%, max%) serialized-communication band over the
/// highlighted configurations — the numbers quoted in the paper's
/// abstract (20–50% → 30–65% → 40–75%).
#[must_use]
pub fn serialized_bands(device: &DeviceSpec, method: Method) -> Vec<(f64, (f64, f64))> {
    FLOP_VS_BW_RATIOS
        .iter()
        .map(|&scale| {
            let band =
                HIGHLIGHTED_CONFIGS
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), &(h, sl, tp)| {
                        let p = GridPoint::new(h, sl, tp, scale);
                        let f = eval_grid_metric(
                            device,
                            p,
                            1,
                            method,
                            Workload::Training,
                            GridMetric::Serialized,
                        );
                        (lo.min(f), hi.max(f))
                    });
            (scale, band)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlapped::overlap_pct;
    use twocs_hw::HwEvolution;

    fn device() -> DeviceSpec {
        DeviceSpec::mi210()
    }

    #[test]
    fn serialized_fraction_rises_with_flop_vs_bw() {
        let bands = serialized_bands(&device(), Method::Simulation);
        assert_eq!(bands.len(), 3);
        for w in bands.windows(2) {
            let (_, (lo_a, hi_a)) = w[0];
            let (_, (lo_b, hi_b)) = w[1];
            assert!(lo_b > lo_a && hi_b > hi_a, "bands must shift up");
        }
    }

    #[test]
    fn bands_match_paper_ranges() {
        // Paper: 20-50% at 1x, 30-65% at 2x, 40-75% at 4x (generous
        // tolerance — the shape matters, not the exact percent).
        let bands = serialized_bands(&device(), Method::Simulation);
        let (_, (lo1, hi1)) = bands[0];
        let (_, (lo2, hi2)) = bands[1];
        let (_, (lo4, hi4)) = bands[2];
        assert!(
            (12.0..=35.0).contains(&lo1) && (40.0..=62.0).contains(&hi1),
            "1x: {lo1}-{hi1}"
        );
        assert!(
            (25.0..=48.0).contains(&lo2) && (55.0..=75.0).contains(&hi2),
            "2x: {lo2}-{hi2}"
        );
        assert!(
            (35.0..=62.0).contains(&lo4) && (65.0..=85.0).contains(&hi4),
            "4x: {lo4}-{hi4}"
        );
    }

    #[test]
    fn evolution_exposes_overlapped_comm() {
        // Fig 13: at 4x, previously-hidden communication exceeds 100% of
        // compute in many configurations.
        let evolved = HwEvolution::flop_vs_bw(4.0).apply(&device());
        let pct = overlap_pct(&evolved, 4096, 1024, 16, 4);
        assert!(pct > 100.0, "4x-evolved overlap {pct}% should be exposed");
        let base_pct = overlap_pct(&device(), 4096, 1024, 16, 4);
        assert!(base_pct < 100.0, "baseline overlap {base_pct}% is hidden");
    }

    #[test]
    fn overlap_scales_roughly_linearly_with_ratio() {
        // Compute shrinks by the ratio while comm stands still, so the
        // overlap percentage grows ~proportionally (modulo launch
        // overheads).
        let base = overlap_pct(&device(), 16_384, 4096, 16, 4);
        let evolved = HwEvolution::flop_vs_bw(2.0).apply(&device());
        let doubled = overlap_pct(&evolved, 16_384, 4096, 16, 4);
        let ratio = doubled / base;
        assert!((1.6..=2.2).contains(&ratio), "ratio {ratio}");
    }
}
