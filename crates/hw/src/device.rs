//! Accelerator descriptions and a catalog of published devices.
//!
//! [`DeviceSpec`] bundles everything the simulator and the operator models
//! need to cost a kernel on one device: peak math rates per precision,
//! memory capacity/bandwidth, launch overhead, the GEMM and mem-op models,
//! and the node network. Published devices relevant to the paper's hardware
//! trend analysis (§4.3.6) are provided as constructors; numbers are taken
//! from vendor datasheets.

use crate::gemm::{GemmModel, GemmShape, KernelChoice};
use crate::memops::{MemOpKind, MemOpModel};
use crate::network::{LinkSpec, NetworkSpec, PinMode};
use crate::precision::{PeakFlops, Precision};

/// Gigabyte in bytes.
pub const GIB: u64 = 1 << 30;

/// A single accelerator (GPU) and its node-level network.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    name: String,
    year: u16,
    peak: PeakFlops,
    mem_capacity: u64,
    mem_bandwidth: f64,
    launch_overhead: f64,
    gemm_model: GemmModel,
    memop_model: MemOpModel,
    network: NetworkSpec,
    /// Hash of every cost-relevant field, maintained by the builder and
    /// the `with_*` setters; keys the global cost caches.
    fingerprint: u64,
}

impl DeviceSpec {
    /// Start building a custom device.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> DeviceSpecBuilder {
        DeviceSpecBuilder::new(name)
    }

    /// Device (marketing) name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Launch year, used by the hardware-trend analysis.
    #[must_use]
    pub fn year(&self) -> u16 {
        self.year
    }

    /// Peak matrix throughput for `precision`, FLOP/s.
    #[must_use]
    pub fn peak_flops(&self, precision: Precision) -> f64 {
        self.peak.rate(precision)
    }

    /// HBM capacity in bytes.
    #[must_use]
    pub fn mem_capacity(&self) -> u64 {
        self.mem_capacity
    }

    /// Peak memory bandwidth, bytes/s.
    #[must_use]
    pub fn mem_bandwidth(&self) -> f64 {
        self.mem_bandwidth
    }

    /// Fixed kernel-launch overhead, seconds.
    #[must_use]
    pub fn launch_overhead(&self) -> f64 {
        self.launch_overhead
    }

    /// The GEMM performance model.
    #[must_use]
    pub fn gemm_model(&self) -> &GemmModel {
        &self.gemm_model
    }

    /// The bandwidth-bound operator model.
    #[must_use]
    pub fn memop_model(&self) -> &MemOpModel {
        &self.memop_model
    }

    /// The node network (links, all-reduce bandwidth, PIN mode).
    #[must_use]
    pub fn network(&self) -> &NetworkSpec {
        &self.network
    }

    /// A hash of every cost-relevant field. Two specs with the same
    /// fingerprint produce the same kernel and collective costs, so a
    /// distributed sweep's coordinator and workers compare it to agree
    /// on the device.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn compute_fingerprint(&self) -> u64 {
        // Debug formatting of f64 is the shortest round-trip
        // representation, so distinct parameter values always hash apart.
        let repr = format!(
            "{}|{}|{:?}|{}|{}|{}|{:?}|{:?}|{:?}",
            self.name,
            self.year,
            self.peak,
            self.mem_capacity,
            self.mem_bandwidth,
            self.launch_overhead,
            self.gemm_model,
            self.memop_model,
            self.network,
        );
        fnv1a(repr.as_bytes())
    }

    /// Total time (seconds) for one GEMM kernel including launch overhead.
    #[must_use]
    pub fn gemm_time(&self, shape: GemmShape, precision: Precision) -> f64 {
        self.chosen_gemm_time(shape, self.gemm_model.select_kernel(shape), precision)
    }

    /// [`Self::gemm_time`] with the kernel already chosen by this
    /// device's GEMM model — which hardware evolution keeps, so one
    /// choice serves every evolved copy of the device.
    #[must_use]
    pub fn chosen_gemm_time(
        &self,
        shape: GemmShape,
        choice: KernelChoice,
        precision: Precision,
    ) -> f64 {
        self.launch_overhead
            + self.gemm_model.chosen_kernel_time(
                shape,
                choice,
                precision,
                self.peak_flops(precision),
                self.mem_bandwidth,
            )
    }

    /// Total time (seconds) for one bandwidth-bound kernel including launch
    /// overhead.
    #[must_use]
    pub fn memop_time(&self, kind: MemOpKind, elements: u64, precision: Precision) -> f64 {
        self.launch_overhead
            + self
                .memop_model
                .kernel_time(kind, elements, precision.bytes(), self.mem_bandwidth)
    }

    /// Replace the network description (e.g. to apply an inter-node
    /// slowdown or enable processing-in-network).
    #[must_use]
    pub fn with_network(mut self, network: NetworkSpec) -> Self {
        self.network = network;
        self.fingerprint = self.compute_fingerprint();
        self
    }

    /// Replace every field hardware evolution scales, fingerprinting the
    /// result once rather than once per field.
    pub(crate) fn evolved(
        mut self,
        peak: PeakFlops,
        mem_capacity: u64,
        mem_bandwidth: f64,
        network: NetworkSpec,
        name: String,
    ) -> Self {
        assert!(mem_bandwidth > 0.0, "memory bandwidth must be positive");
        self.peak = peak;
        self.mem_capacity = mem_capacity;
        self.mem_bandwidth = mem_bandwidth;
        self.network = network;
        self.name = name;
        self.fingerprint = self.compute_fingerprint();
        self
    }

    // ------------------------------------------------------------------
    // Catalog. Peak rates are dense matrix throughput from datasheets.
    // ------------------------------------------------------------------

    /// AMD Instinct MI210 (2022) — the paper's testbed device. 64 GB HBM2e,
    /// 1.64 TB/s, fp16 matrix 181 TFLOP/s; Infinity Fabric links with
    /// 100 GB/s bidirectional bandwidth forming rings with ~150 GB/s peak
    /// ring-all-reduce bandwidth (paper §4.3.1).
    #[must_use]
    pub fn mi210() -> Self {
        Self::builder("AMD Instinct MI210")
            .year(2022)
            .peak(PeakFlops::new(
                22.6e12, 45.3e12, 181.0e12, 181.0e12, 362.0e12,
            ))
            .mem_capacity(64 * GIB)
            .mem_bandwidth(1.6384e12)
            .cu_count(104)
            .intra_link(50e9, 7e-6)
            .inter_link(25e9, 12e-6)
            .ring_allreduce_bandwidth(150e9)
            .build()
    }

    /// AMD Instinct MI50 (2018). fp16 26.5 TFLOP/s, 32 GB, 1.02 TB/s.
    #[must_use]
    pub fn mi50() -> Self {
        Self::builder("AMD Instinct MI50")
            .year(2018)
            .peak(PeakFlops::new(6.6e12, 13.3e12, 26.5e12, 26.5e12, 53.0e12))
            .mem_capacity(32 * GIB)
            .mem_bandwidth(1.024e12)
            .cu_count(60)
            .intra_link(25e9, 8e-6)
            .inter_link(12.5e9, 15e-6)
            .ring_allreduce_bandwidth(46e9)
            .build()
    }

    /// AMD Instinct MI100 (2020). fp16 matrix 184.6 TFLOP/s, 32 GB,
    /// 1.23 TB/s. Compared with MI50: ~7× compute, ~1.7× bandwidth — one of
    /// the paper's two historical *flop-vs.-bw* data points.
    #[must_use]
    pub fn mi100() -> Self {
        Self::builder("AMD Instinct MI100")
            .year(2020)
            .peak(PeakFlops::new(
                11.5e12, 23.1e12, 184.6e12, 92.3e12, 369.2e12,
            ))
            .mem_capacity(32 * GIB)
            .mem_bandwidth(1.2288e12)
            .cu_count(120)
            .intra_link(42.5e9, 7e-6)
            .inter_link(20e9, 14e-6)
            .ring_allreduce_bandwidth(78e9)
            .build()
    }

    /// AMD Instinct MI250X (2021). fp16 matrix 383 TFLOP/s, 128 GB,
    /// 3.28 TB/s.
    #[must_use]
    pub fn mi250x() -> Self {
        Self::builder("AMD Instinct MI250X")
            .year(2021)
            .peak(PeakFlops::new(
                95.7e12, 95.7e12, 383.0e12, 383.0e12, 766.0e12,
            ))
            .mem_capacity(128 * GIB)
            .mem_bandwidth(3.2768e12)
            .cu_count(220)
            .intra_link(100e9, 7e-6)
            .inter_link(25e9, 12e-6)
            .ring_allreduce_bandwidth(300e9)
            .build()
    }

    /// NVIDIA V100 SXM2 (2018-era). fp16 tensor 125 TFLOP/s, 32 GB,
    /// 0.9 TB/s, NVLink2 300 GB/s aggregate.
    #[must_use]
    pub fn v100() -> Self {
        Self::builder("NVIDIA V100")
            .year(2018)
            .peak(PeakFlops::new(
                7.8e12, 15.7e12, 125.0e12, 125.0e12, 250.0e12,
            ))
            .mem_capacity(32 * GIB)
            .mem_bandwidth(0.9e12)
            .cu_count(80)
            .intra_link(150e9, 6e-6)
            .inter_link(12.5e9, 15e-6)
            .ring_allreduce_bandwidth(130e9)
            .build()
    }

    /// NVIDIA A100 SXM (2020). fp16 tensor 312 TFLOP/s dense (624 sparse —
    /// the paper's ~5× compute vs. V100 uses sparse rates), 80 GB, 2.04
    /// TB/s, NVLink3 600 GB/s. Paired with V100: ~5× compute, ~2× bandwidth.
    #[must_use]
    pub fn a100() -> Self {
        Self::builder("NVIDIA A100")
            .year(2020)
            .peak(PeakFlops::new(
                19.5e12, 19.5e12, 624.0e12, 624.0e12, 1248.0e12,
            ))
            .mem_capacity(80 * GIB)
            .mem_bandwidth(2.039e12)
            .cu_count(108)
            .intra_link(300e9, 6e-6)
            .inter_link(25e9, 12e-6)
            .ring_allreduce_bandwidth(260e9)
            .build()
    }

    /// NVIDIA H100 SXM-class (2022). fp16 tensor 989 TFLOP/s dense, fp8
    /// 1979 TFLOP/s, 80 GB, 3.35 TB/s, NVLink4 900 GB/s.
    #[must_use]
    pub fn h100() -> Self {
        Self::builder("NVIDIA H100")
            .year(2022)
            .peak(PeakFlops::new(
                67.0e12, 67.0e12, 989.0e12, 989.0e12, 1979.0e12,
            ))
            .mem_capacity(80 * GIB)
            .mem_bandwidth(3.35e12)
            .cu_count(132)
            .intra_link(450e9, 5e-6)
            .inter_link(50e9, 10e-6)
            .ring_allreduce_bandwidth(390e9)
            .build()
    }

    /// All catalog devices, oldest first.
    #[must_use]
    pub fn catalog() -> Vec<DeviceSpec> {
        let mut v = vec![
            Self::mi50(),
            Self::v100(),
            Self::mi100(),
            Self::a100(),
            Self::mi250x(),
            Self::mi210(),
            Self::h100(),
        ];
        v.sort_by_key(|d| (d.year(), d.name().to_owned()));
        v
    }
}

/// Builder for [`DeviceSpec`]; see [`DeviceSpec::builder`].
#[derive(Debug, Clone)]
pub struct DeviceSpecBuilder {
    name: String,
    year: u16,
    peak: PeakFlops,
    mem_capacity: u64,
    mem_bandwidth: f64,
    launch_overhead: f64,
    cu_count: u64,
    k_half: f64,
    gemm_mem_efficiency: f64,
    memop_efficiency: f64,
    intra_link: LinkSpec,
    inter_link: LinkSpec,
    ring_allreduce_bandwidth: f64,
    pin_mode: PinMode,
}

impl DeviceSpecBuilder {
    fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            year: 2022,
            peak: PeakFlops::from_fp32_matrix(45e12),
            mem_capacity: 64 * GIB,
            mem_bandwidth: 1.6e12,
            launch_overhead: 8e-6,
            cu_count: 104,
            k_half: 160.0,
            gemm_mem_efficiency: 0.85,
            memop_efficiency: 0.8,
            intra_link: LinkSpec::new(50e9, 7e-6, 4.0 * 1024.0 * 1024.0)
                .expect("default intra link is valid"),
            inter_link: LinkSpec::new(25e9, 12e-6, 8.0 * 1024.0 * 1024.0)
                .expect("default inter link is valid"),
            ring_allreduce_bandwidth: 150e9,
            pin_mode: PinMode::None,
        }
    }

    /// Launch year.
    #[must_use]
    pub fn year(mut self, year: u16) -> Self {
        self.year = year;
        self
    }

    /// Peak math rates.
    #[must_use]
    pub fn peak(mut self, peak: PeakFlops) -> Self {
        self.peak = peak;
        self
    }

    /// HBM capacity, bytes.
    #[must_use]
    pub fn mem_capacity(mut self, bytes: u64) -> Self {
        self.mem_capacity = bytes;
        self
    }

    /// Memory bandwidth, bytes/s.
    #[must_use]
    pub fn mem_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        self.mem_bandwidth = bytes_per_sec;
        self
    }

    /// Kernel launch overhead, seconds.
    #[must_use]
    pub fn launch_overhead(mut self, seconds: f64) -> Self {
        self.launch_overhead = seconds;
        self
    }

    /// Compute-unit count (GEMM wave quantization granularity).
    #[must_use]
    pub fn cu_count(mut self, count: u64) -> Self {
        self.cu_count = count;
        self
    }

    /// Short-K half-saturation length for the GEMM model.
    #[must_use]
    pub fn k_half(mut self, k_half: f64) -> Self {
        self.k_half = k_half;
        self
    }

    /// Intra-node link: per-direction bandwidth (B/s) and latency (s).
    /// Uses a 4 MiB half-saturation ramp.
    #[must_use]
    pub fn intra_link(mut self, bandwidth: f64, latency: f64) -> Self {
        self.intra_link = LinkSpec::new(bandwidth, latency, 4.0 * 1024.0 * 1024.0)
            .expect("intra link parameters must be valid");
        self
    }

    /// Inter-node link: per-direction bandwidth (B/s) and latency (s).
    /// Uses an 8 MiB half-saturation ramp.
    #[must_use]
    pub fn inter_link(mut self, bandwidth: f64, latency: f64) -> Self {
        self.inter_link = LinkSpec::new(bandwidth, latency, 8.0 * 1024.0 * 1024.0)
            .expect("inter link parameters must be valid");
        self
    }

    /// Peak algorithmic ring all-reduce bandwidth inside a node, B/s.
    #[must_use]
    pub fn ring_allreduce_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        self.ring_allreduce_bandwidth = bytes_per_sec;
        self
    }

    /// Processing-in-network mode.
    #[must_use]
    pub fn pin_mode(mut self, pin_mode: PinMode) -> Self {
        self.pin_mode = pin_mode;
        self
    }

    /// Finish building.
    ///
    /// # Panics
    /// Panics if any numeric parameter is out of range (delegated to the
    /// component model constructors).
    #[must_use]
    pub fn build(self) -> DeviceSpec {
        assert!(self.mem_capacity > 0, "memory capacity must be non-zero");
        assert!(
            self.mem_bandwidth > 0.0,
            "memory bandwidth must be positive"
        );
        assert!(
            self.launch_overhead >= 0.0 && self.launch_overhead.is_finite(),
            "launch overhead must be non-negative"
        );
        let network = NetworkSpec::new(
            self.intra_link,
            self.inter_link,
            self.ring_allreduce_bandwidth,
            self.pin_mode,
        )
        .expect("network parameters must be valid");
        let mut spec = DeviceSpec {
            name: self.name,
            year: self.year,
            peak: self.peak,
            mem_capacity: self.mem_capacity,
            mem_bandwidth: self.mem_bandwidth,
            launch_overhead: self.launch_overhead,
            gemm_model: GemmModel::new(self.cu_count, self.k_half, self.gemm_mem_efficiency),
            memop_model: MemOpModel::new(self.memop_efficiency),
            network,
            fingerprint: 0,
        };
        spec.fingerprint = spec.compute_fingerprint();
        spec
    }
}

/// FNV-1a hash of a byte string, folding a device description into its
/// fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mi210_matches_datasheet_headlines() {
        let d = DeviceSpec::mi210();
        assert_eq!(d.peak_flops(Precision::Fp16), 181.0e12);
        assert_eq!(d.mem_capacity(), 64 * GIB);
        assert_eq!(d.year(), 2022);
        assert_eq!(d.network().ring_allreduce_bandwidth(), 150e9);
    }

    #[test]
    fn fp16_is_4x_fp32_on_mi210() {
        // §6.2: "FP16 throughput for the MI210 GPUs we study is about 4×
        // that for FP32".
        let d = DeviceSpec::mi210();
        let ratio = d.peak_flops(Precision::Fp16) / d.peak_flops(Precision::Fp32);
        assert!((ratio - 4.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn catalog_is_sorted_by_year() {
        let cat = DeviceSpec::catalog();
        assert!(cat.len() >= 6);
        for w in cat.windows(2) {
            assert!(w[0].year() <= w[1].year());
        }
    }

    #[test]
    fn historical_flop_vs_bw_ratios_hold() {
        // §4.3.6: 2018→2020 compute scaled ~5× (NVIDIA) and ~7× (AMD) while
        // network bandwidth scaled ~2× and ~1.7×.
        let flop = |a: &DeviceSpec, b: &DeviceSpec| {
            b.peak_flops(Precision::Fp16) / a.peak_flops(Precision::Fp16)
        };
        let bw = |a: &DeviceSpec, b: &DeviceSpec| {
            b.network().intra_node().bandwidth() / a.network().intra_node().bandwidth()
        };
        let (v, a) = (DeviceSpec::v100(), DeviceSpec::a100());
        assert!(
            (4.5..=5.5).contains(&flop(&v, &a)),
            "nvidia flops {}",
            flop(&v, &a)
        );
        assert!(
            (1.8..=2.2).contains(&bw(&v, &a)),
            "nvidia bw {}",
            bw(&v, &a)
        );
        let (m5, m1) = (DeviceSpec::mi50(), DeviceSpec::mi100());
        assert!(
            (6.5..=7.5).contains(&flop(&m5, &m1)),
            "amd flops {}",
            flop(&m5, &m1)
        );
        assert!(
            (1.5..=1.9).contains(&bw(&m5, &m1)),
            "amd bw {}",
            bw(&m5, &m1)
        );
    }

    #[test]
    fn gemm_time_includes_launch_overhead() {
        let d = DeviceSpec::mi210();
        let t = d.gemm_time(GemmShape::new(16, 16, 16), Precision::Fp16);
        assert!(t >= d.launch_overhead());
    }

    #[test]
    fn memop_time_positive_and_linear() {
        let d = DeviceSpec::mi210();
        let base = d.memop_time(MemOpKind::LayerNorm, 1 << 24, Precision::Fp16);
        let double = d.memop_time(MemOpKind::LayerNorm, 1 << 25, Precision::Fp16);
        // Linear up to launch overhead.
        let marginal = double - base;
        let expected = base - d.launch_overhead();
        assert!((marginal / expected - 1.0).abs() < 1e-6);
    }

    #[test]
    fn builder_customization_round_trips() {
        let d = DeviceSpec::builder("TestChip")
            .year(2030)
            .mem_capacity(256 * GIB)
            .mem_bandwidth(10e12)
            .build();
        assert_eq!(d.name(), "TestChip");
        assert_eq!(d.year(), 2030);
        assert_eq!(d.mem_capacity(), 256 * GIB);
    }

    #[test]
    fn memory_capacity_trend_grows_over_years() {
        // Fig. 6's device line: capacity grows roughly linearly with year.
        let cat = DeviceSpec::catalog();
        let first = cat.first().unwrap();
        let last = cat.last().unwrap();
        assert!(last.mem_capacity() >= first.mem_capacity());
    }
}
