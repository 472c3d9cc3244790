//! Achievable-throughput model for matrix multiplication.
//!
//! GEMMs dominate Transformer compute (paper §3.3). Their *achieved* FLOPS
//! depend on shape: real BLAS libraries pick a tiled kernel per size, and
//! efficiency is lost to (a) partial edge tiles, (b) wave quantization
//! (the last wave of tiles under-fills the compute units), and (c) short
//! accumulation (K) dimensions that cannot amortize prologue/epilogue work.
//! The paper calls these effects out explicitly as the source of its ~15%
//! operator-model error ("GEMMs also use different kernel implementations
//! tuned per size which may prevent ideal linear/quadratic scaling").
//!
//! [`GemmModel`] reproduces those effects with a small kernel catalog plus a
//! roofline memory bound, so the rest of the workspace sees realistic,
//! shape-dependent GEMM times.

use crate::precision::Precision;
use crate::roofline::roofline_time;
use std::fmt;

/// Shape of a (possibly batched) GEMM: `C[b] = A[b] (m×k) · B[b] (k×n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Rows of the output.
    pub m: u64,
    /// Columns of the output.
    pub n: u64,
    /// Accumulation (inner) dimension.
    pub k: u64,
    /// Number of independent GEMMs in the batch.
    pub batch: u64,
}

impl GemmShape {
    /// An unbatched GEMM.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(m: u64, n: u64, k: u64) -> Self {
        Self::batched(m, n, k, 1)
    }

    /// A batched GEMM of `batch` independent problems.
    ///
    /// # Panics
    /// Panics if any dimension or the batch count is zero.
    #[must_use]
    pub fn batched(m: u64, n: u64, k: u64, batch: u64) -> Self {
        assert!(
            m > 0 && n > 0 && k > 0 && batch > 0,
            "GEMM dimensions must be non-zero (m={m}, n={n}, k={k}, batch={batch})"
        );
        Self { m, n, k, batch }
    }

    /// Total multiply-add operation count, `2·batch·m·n·k`.
    #[must_use]
    pub fn flops(&self) -> u64 {
        2 * self.batch * self.m * self.n * self.k
    }

    /// Elements touched in off-chip memory: both inputs and the output,
    /// counted once each (idealized perfect reuse within the kernel).
    #[must_use]
    pub fn elements_moved(&self) -> u64 {
        self.batch * (self.m * self.k + self.k * self.n + self.m * self.n)
    }
}

impl fmt::Display for GemmShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.batch == 1 {
            write!(f, "gemm {}x{}x{}", self.m, self.n, self.k)
        } else {
            write!(f, "gemm {}x[{}x{}x{}]", self.batch, self.m, self.n, self.k)
        }
    }
}

/// One tiled kernel implementation in the catalog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelSpec {
    /// Output-tile rows.
    pub tile_m: u64,
    /// Output-tile columns.
    pub tile_n: u64,
    /// Fraction of device peak this kernel reaches on an ideal shape
    /// (larger tiles reuse more data and run closer to peak).
    pub peak_fraction: f64,
}

/// Default kernel catalog, largest tiles first.
const CATALOG: [KernelSpec; 8] = [
    KernelSpec {
        tile_m: 256,
        tile_n: 256,
        peak_fraction: 0.95,
    },
    KernelSpec {
        tile_m: 256,
        tile_n: 128,
        peak_fraction: 0.93,
    },
    KernelSpec {
        tile_m: 128,
        tile_n: 128,
        peak_fraction: 0.90,
    },
    KernelSpec {
        tile_m: 128,
        tile_n: 64,
        peak_fraction: 0.85,
    },
    KernelSpec {
        tile_m: 64,
        tile_n: 64,
        peak_fraction: 0.78,
    },
    KernelSpec {
        tile_m: 64,
        tile_n: 32,
        peak_fraction: 0.68,
    },
    KernelSpec {
        tile_m: 32,
        tile_n: 32,
        peak_fraction: 0.55,
    },
    KernelSpec {
        tile_m: 16,
        tile_n: 16,
        peak_fraction: 0.35,
    },
];

/// Outcome of selecting a kernel for a shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelChoice {
    /// The selected kernel.
    pub kernel: KernelSpec,
    /// Fraction of device peak the kernel achieves on this shape
    /// (0, 1].
    pub efficiency: f64,
}

/// Shape-dependent GEMM performance model for one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemmModel {
    /// Number of compute units (tiles execute one per CU per wave).
    cu_count: u64,
    /// K length at which the main loop reaches half of its asymptotic
    /// efficiency.
    k_half: f64,
    /// Fraction of peak memory bandwidth streaming kernels achieve.
    mem_efficiency: f64,
}

impl GemmModel {
    /// Create a model.
    ///
    /// # Panics
    /// Panics if `cu_count` is zero or the efficiencies are outside (0, 1].
    #[must_use]
    pub fn new(cu_count: u64, k_half: f64, mem_efficiency: f64) -> Self {
        assert!(cu_count > 0, "cu_count must be non-zero");
        assert!(k_half >= 0.0 && k_half.is_finite(), "k_half must be >= 0");
        assert!(
            mem_efficiency > 0.0 && mem_efficiency <= 1.0,
            "mem_efficiency must be in (0, 1]"
        );
        Self {
            cu_count,
            k_half,
            mem_efficiency,
        }
    }

    /// Pick the kernel that maximizes achieved throughput for `shape`.
    #[must_use]
    pub fn select_kernel(&self, shape: GemmShape) -> KernelChoice {
        let mut best = KernelChoice {
            kernel: CATALOG[CATALOG.len() - 1],
            efficiency: 0.0,
        };
        for kernel in CATALOG {
            let eff = self.kernel_efficiency(shape, kernel);
            if eff > best.efficiency {
                best = KernelChoice {
                    kernel,
                    efficiency: eff,
                };
            }
        }
        best
    }

    /// Efficiency (fraction of peak) of one specific kernel on `shape`.
    #[must_use]
    pub fn kernel_efficiency(&self, shape: GemmShape, kernel: KernelSpec) -> f64 {
        let tiles_m = shape.m.div_ceil(kernel.tile_m);
        let tiles_n = shape.n.div_ceil(kernel.tile_n);
        let tiles = tiles_m * tiles_n * shape.batch;

        // Edge waste: partial tiles still occupy a full tile's issue slots.
        let useful = (shape.m * shape.n) as f64;
        let issued = (tiles_m * kernel.tile_m * tiles_n * kernel.tile_n) as f64;
        let edge = useful / issued;

        // Wave quantization: the last wave may not fill every CU.
        let waves = tiles.div_ceil(self.cu_count);
        let quant = tiles as f64 / (waves * self.cu_count) as f64;

        // Short-K inefficiency: prologue/epilogue amortization.
        let k_eff = shape.k as f64 / (shape.k as f64 + self.k_half);

        kernel.peak_fraction * edge * quant * k_eff
    }

    /// Achieved throughput (FLOP/s) for `shape` at the given device peak.
    ///
    /// # Panics
    /// Panics if `peak_flops` is not strictly positive.
    #[must_use]
    pub fn achieved_flops(&self, shape: GemmShape, peak_flops: f64) -> f64 {
        assert!(peak_flops > 0.0, "peak_flops must be positive");
        peak_flops * self.select_kernel(shape).efficiency
    }

    /// Execution time (seconds) for `shape`, excluding launch overhead:
    /// the roofline max of math time at achieved FLOPS and data movement at
    /// effective memory bandwidth.
    ///
    /// # Panics
    /// Panics if `peak_flops` or `mem_bandwidth` are not strictly positive.
    #[must_use]
    pub fn kernel_time(
        &self,
        shape: GemmShape,
        precision: Precision,
        peak_flops: f64,
        mem_bandwidth: f64,
    ) -> f64 {
        let choice = self.select_kernel(shape);
        self.chosen_kernel_time(shape, choice, precision, peak_flops, mem_bandwidth)
    }

    /// [`Self::kernel_time`] with the kernel already chosen
    /// ([`Self::select_kernel`] of `shape`): only the roofline half, the
    /// part that reads the device's peak rates. Pricing one shape on many
    /// evolved devices chooses its kernel once, since evolution leaves
    /// the GEMM model as it is.
    ///
    /// # Panics
    /// Panics if `peak_flops` or `mem_bandwidth` are not strictly positive.
    #[must_use]
    pub fn chosen_kernel_time(
        &self,
        shape: GemmShape,
        choice: KernelChoice,
        precision: Precision,
        peak_flops: f64,
        mem_bandwidth: f64,
    ) -> f64 {
        assert!(peak_flops > 0.0, "peak_flops must be positive");
        let achieved = peak_flops * choice.efficiency;
        let bytes = shape.elements_moved() * precision.bytes();
        roofline_time(
            shape.flops(),
            bytes,
            achieved,
            mem_bandwidth * self.mem_efficiency,
        )
    }
}

impl Default for GemmModel {
    /// MI210-class defaults: 104 CUs, short-K half point of 160 elements,
    /// 85% streaming memory efficiency.
    fn default() -> Self {
        Self::new(104, 160.0, 0.85)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PEAK: f64 = 181e12; // MI210 fp16 matrix
    const MEM_BW: f64 = 1.6384e12;

    #[test]
    fn flops_formula() {
        let s = GemmShape::new(4, 5, 6);
        assert_eq!(s.flops(), 2 * 4 * 5 * 6);
        let b = GemmShape::batched(4, 5, 6, 3);
        assert_eq!(b.flops(), 3 * 2 * 4 * 5 * 6);
    }

    #[test]
    fn big_square_gemm_runs_near_peak() {
        let m = GemmModel::default();
        let s = GemmShape::new(8192, 8192, 8192);
        let eff = m.select_kernel(s).efficiency;
        assert!(
            eff > 0.80,
            "large GEMM efficiency {eff} should be near peak"
        );
    }

    #[test]
    fn small_gemm_is_inefficient() {
        let m = GemmModel::default();
        let small = m.select_kernel(GemmShape::new(64, 64, 64)).efficiency;
        let big = m.select_kernel(GemmShape::new(8192, 8192, 8192)).efficiency;
        assert!(
            small < big / 2.0,
            "small GEMM ({small}) should be far less efficient than big ({big})"
        );
    }

    #[test]
    fn short_k_hurts_efficiency() {
        let m = GemmModel::default();
        let skinny = m.select_kernel(GemmShape::new(8192, 8192, 64)).efficiency;
        let fat = m.select_kernel(GemmShape::new(8192, 8192, 8192)).efficiency;
        assert!(skinny < fat);
    }

    #[test]
    fn kernel_selection_prefers_big_tiles_for_big_shapes() {
        let m = GemmModel::default();
        let choice = m.select_kernel(GemmShape::new(16384, 16384, 4096));
        assert!(choice.kernel.tile_m >= 128);
        let choice_small = m.select_kernel(GemmShape::new(96, 96, 4096));
        assert!(choice_small.kernel.tile_m <= 64);
    }

    #[test]
    fn time_scales_roughly_linearly_in_m_for_large_shapes() {
        let m = GemmModel::default();
        let t1 = m.kernel_time(
            GemmShape::new(4096, 8192, 8192),
            Precision::Fp16,
            PEAK,
            MEM_BW,
        );
        let t2 = m.kernel_time(
            GemmShape::new(8192, 8192, 8192),
            Precision::Fp16,
            PEAK,
            MEM_BW,
        );
        let ratio = t2 / t1;
        assert!(
            (1.6..=2.4).contains(&ratio),
            "doubling M should ~double time, got ratio {ratio}"
        );
    }

    #[test]
    fn memory_bound_for_very_skinny_gemm() {
        // m=1: a GEMV. Arithmetic intensity ~1 flop/byte, heavily
        // memory-bound: time should match bytes / effective bandwidth.
        let m = GemmModel::default();
        let s = GemmShape::new(1, 4096, 4096);
        let t = m.kernel_time(s, Precision::Fp16, PEAK, MEM_BW);
        let mem_time = (s.elements_moved() * 2) as f64 / (MEM_BW * 0.85);
        assert!((t - mem_time).abs() / mem_time < 1e-9);
    }

    #[test]
    fn batching_improves_small_gemm_efficiency() {
        // Attention GEMMs are small per head but batched over B*heads.
        let m = GemmModel::default();
        let single = m.select_kernel(GemmShape::new(512, 512, 64)).efficiency;
        let batched = m
            .select_kernel(GemmShape::batched(512, 512, 64, 64))
            .efficiency;
        assert!(batched >= single);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dim_rejected() {
        let _ = GemmShape::new(0, 1, 1);
    }

    #[test]
    fn efficiency_bounded_by_one() {
        let m = GemmModel::default();
        for &(a, b, c) in &[
            (1u64, 1u64, 1u64),
            (100, 100, 100),
            (8192, 8192, 8192),
            (17, 333, 65),
        ] {
            let e = m.select_kernel(GemmShape::new(a, b, c)).efficiency;
            assert!(e > 0.0 && e <= 1.0, "efficiency {e} out of range");
        }
    }
}
