//! Analytic collective cost models.
//!
//! Two levels of fidelity:
//!
//! * [`CollectiveCostModel::time_on_link`] — the classic α–β model applied
//!   step-by-step to a schedule's structure over one [`LinkSpec`]. It
//!   agrees closely with discrete-event simulation of the full schedule
//!   (validated in this module's tests), and powers the ring/tree/
//!   halving-doubling ablation.
//! * [`CollectiveCostModel::node_time`] — the *node-calibrated* model used
//!   by the workload builders: it anchors on the measured peak algorithmic
//!   all-reduce bandwidth of the node (150 GB/s for the paper's 4×MI210
//!   machine) and degrades it for small per-step chunks, reproducing the
//!   sub-linear small-message behaviour highlighted in §4.3.5 and
//!   Fig. 15(c).

use crate::algorithm::{Algorithm, Collective};
use twocs_hw::network::{LinkSpec, NetworkSpec};
use twocs_hw::topology::Topology;

/// Formerly emptied the process-global collective-cost memo cache, which
/// is gone: [`CollectiveCostModel::node_time`] computes directly. Kept as
/// a no-op only because the `perfbench/` harness still calls it; it goes
/// once that harness drops the call.
#[doc(hidden)]
pub fn clear_node_time_cache() {}

/// Tunable constants of the analytic cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveCostModel {
    /// Per-step software latency (kernel launch, handshake), seconds.
    step_latency: f64,
    /// Per-step chunk size at which effective bandwidth reaches half of
    /// peak, bytes.
    chunk_ramp_bytes: f64,
}

impl CollectiveCostModel {
    /// Create a model.
    ///
    /// # Panics
    /// Panics if either parameter is negative or non-finite.
    #[must_use]
    pub fn new(step_latency: f64, chunk_ramp_bytes: f64) -> Self {
        assert!(
            step_latency.is_finite() && step_latency >= 0.0,
            "step_latency must be non-negative"
        );
        assert!(
            chunk_ramp_bytes.is_finite() && chunk_ramp_bytes >= 0.0,
            "chunk_ramp_bytes must be non-negative"
        );
        Self {
            step_latency,
            chunk_ramp_bytes,
        }
    }

    /// Per-step software latency, seconds.
    #[must_use]
    pub fn step_latency(&self) -> f64 {
        self.step_latency
    }

    /// Chunk half-saturation size, bytes.
    #[must_use]
    pub fn chunk_ramp_bytes(&self) -> f64 {
        self.chunk_ramp_bytes
    }

    /// Saturation factor for a per-step chunk of `bytes`.
    fn saturation(&self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        bytes / (bytes + self.chunk_ramp_bytes)
    }

    /// Number of bulk-synchronous steps `algorithm` takes for `collective`
    /// over `n` ranks.
    #[must_use]
    pub fn steps(algorithm: Algorithm, collective: Collective, n: usize) -> usize {
        if n < 2 {
            return 0;
        }
        let log2n = usize::BITS as usize - (n - 1).leading_zeros() as usize;
        match (collective, algorithm) {
            (Collective::AllReduce, Algorithm::Ring) => 2 * (n - 1),
            (Collective::AllReduce, Algorithm::Tree | Algorithm::HalvingDoubling) => 2 * log2n,
            // Direct all-reduce: every rank pushes its full buffer to all
            // peers in one bulk-synchronous exchange, then reduces
            // locally — a single latency-bearing step, not ring chunking.
            (Collective::AllReduce, Algorithm::Direct) => 1,
            (Collective::ReduceScatter | Collective::AllGather | Collective::AllToAll, _) => n - 1,
            (Collective::Broadcast, _) => log2n,
        }
    }

    /// α–β cost of `collective` via `algorithm` over a single link model:
    /// `steps · (α + chunk / eff_bw(chunk))` with the per-step chunk
    /// implied by the algorithm. Matches the simulated schedule closely.
    #[must_use]
    pub fn time_on_link(
        &self,
        collective: Collective,
        algorithm: Algorithm,
        bytes: u64,
        n: usize,
        link: &LinkSpec,
    ) -> f64 {
        if n < 2 || bytes == 0 {
            return 0.0;
        }
        let steps = Self::steps(algorithm, collective, n) as f64;
        let s = bytes as f64;
        match (collective, algorithm) {
            // Full payload per step (binomial tree).
            (Collective::AllReduce | Collective::Broadcast, Algorithm::Tree) => {
                steps * (link.latency() + s / link.effective_bandwidth(bytes))
            }
            // Halving-doubling: payload halves each step of each phase:
            // S/2 + S/4 + ... ≈ (N-1)/N·S per phase.
            (Collective::AllReduce, Algorithm::HalvingDoubling) => {
                let phase_bytes = s * (n as f64 - 1.0) / n as f64;
                let avg_chunk = (phase_bytes / (steps / 2.0)).max(1.0) as u64;
                steps * link.latency() + 2.0 * phase_bytes / link.effective_bandwidth(avg_chunk)
            }
            // Direct all-reduce: one α, full-payload chunks at full-size
            // bandwidth efficiency, but (n-1)·S serialized through each
            // rank's link — latency-dominated at small n, bandwidth-ruinous
            // at scale.
            (Collective::AllReduce, Algorithm::Direct) => {
                link.latency() + (n as f64 - 1.0) * s / link.effective_bandwidth(bytes)
            }
            // Chunked ring-style: S/N per step.
            _ => {
                let chunk = (s / n as f64).max(1.0) as u64;
                steps * (link.latency() + chunk as f64 / link.effective_bandwidth(chunk))
            }
        }
    }

    /// Node-calibrated time of `collective` over `n` ranks using the
    /// node's peak algorithmic all-reduce bandwidth (paper §4.3.1).
    ///
    /// `t = steps·α + payload / (B_alg · sat(S/N))`, where `payload` is the
    /// all-reduce-normalized volume (all-gather and reduce-scatter move
    /// half an all-reduce; all-to-all likewise).
    #[must_use]
    pub fn node_time(
        &self,
        collective: Collective,
        bytes: u64,
        n: usize,
        net: &NetworkSpec,
    ) -> f64 {
        if n < 2 || bytes == 0 {
            return 0.0;
        }
        let steps = Self::steps(Algorithm::Ring, collective, n) as f64;
        let s = bytes as f64;
        let chunk = s / n as f64;
        let bw = net.ring_allreduce_bandwidth() * self.saturation(chunk);
        let normalized_volume = match collective {
            Collective::AllReduce => s,
            Collective::ReduceScatter | Collective::AllGather | Collective::AllToAll => s / 2.0,
            Collective::Broadcast => s / 2.0,
        };
        steps * self.step_latency + normalized_volume / bw
    }

    /// Ring all-reduce node time — the workhorse for TP and DP costs.
    #[must_use]
    pub fn allreduce_time(&self, bytes: u64, n: usize, net: &NetworkSpec) -> f64 {
        self.node_time(Collective::AllReduce, bytes, n, net)
    }

    /// All-to-all node time (MoE expert parallelism).
    #[must_use]
    pub fn alltoall_time(&self, bytes: u64, n: usize, net: &NetworkSpec) -> f64 {
        self.node_time(Collective::AllToAll, bytes, n, net)
    }

    /// All-reduce time over an explicit [`Topology`].
    ///
    /// Single-node topologies fall back to [`Self::node_time`] semantics
    /// using the bottleneck link; hierarchical topologies use the standard
    /// **two-level algorithm** — intra-node reduce-scatter, inter-node
    /// all-reduce of the shards over the (slower) inter-node links, then
    /// intra-node all-gather — which is how production collectives span
    /// nodes (paper §4.3.7's inter-node discussion).
    #[must_use]
    pub fn allreduce_time_on_topology(
        &self,
        bytes: u64,
        topology: &Topology,
        net: &NetworkSpec,
    ) -> f64 {
        let n = topology.devices();
        if n < 2 || bytes == 0 {
            return 0.0;
        }
        match topology {
            Topology::Hierarchical {
                nodes, node_size, ..
            } if *nodes > 1 => {
                let node_size = (*node_size).max(1);
                // Phase 1/3: intra-node reduce-scatter + all-gather.
                let intra_rs = self.node_time(Collective::ReduceScatter, bytes, node_size, net);
                let intra_ag = self.node_time(Collective::AllGather, bytes, node_size, net);
                // Phase 2: inter-node all-reduce of the 1/node_size shard,
                // one rank per node, over inter-node link quality.
                let shard = (bytes / node_size as u64).max(1);
                let inter = self.time_on_link(
                    Collective::AllReduce,
                    Algorithm::Ring,
                    shard,
                    *nodes,
                    &net.inter_node(),
                );
                intra_rs + inter + intra_ag
            }
            _ => self.node_time(Collective::AllReduce, bytes, n, net),
        }
    }

    /// Effective algorithmic all-reduce bandwidth (`bytes / time`) at a
    /// payload size — what Fig. 15(c) sweeps.
    #[must_use]
    pub fn allreduce_bandwidth(&self, bytes: u64, n: usize, net: &NetworkSpec) -> f64 {
        let t = self.allreduce_time(bytes, n, net);
        if t <= 0.0 {
            return 0.0;
        }
        bytes as f64 / t
    }
}

impl Default for CollectiveCostModel {
    /// Calibrated against RCCL-like behaviour: 2 µs per chunk step and a
    /// 2 MiB per-step half-saturation chunk (real all-reduce efficiency
    /// degrades steeply once per-rank chunks fall into the single-digit
    /// megabytes, which is what large TP degrees produce).
    fn default() -> Self {
        Self::new(2e-6, 2.0 * 1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twocs_sim::Engine;

    fn link() -> LinkSpec {
        LinkSpec::new(50e9, 5e-6, 1024.0 * 1024.0).unwrap()
    }

    fn net() -> NetworkSpec {
        NetworkSpec::new(
            link(),
            LinkSpec::new(25e9, 12e-6, 8.0 * 1024.0 * 1024.0).unwrap(),
            150e9,
            twocs_hw::PinMode::None,
        )
        .unwrap()
    }

    #[test]
    fn node_allreduce_near_peak_for_large_payloads() {
        let m = CollectiveCostModel::default();
        let bytes = 256 * 1024 * 1024;
        let bw = m.allreduce_bandwidth(bytes, 4, &net());
        assert!(bw > 0.9 * 150e9, "large AR bw {bw}");
    }

    #[test]
    fn node_allreduce_degrades_for_small_payloads() {
        // §4.3.5: small sizes do not saturate the network.
        let m = CollectiveCostModel::default();
        let small = m.allreduce_bandwidth(256 * 1024, 4, &net());
        let large = m.allreduce_bandwidth(256 * 1024 * 1024, 4, &net());
        assert!(small < large / 3.0, "small {small} vs large {large}");
    }

    #[test]
    fn allreduce_time_grows_with_participants_at_fixed_bytes() {
        let m = CollectiveCostModel::default();
        let bytes = 64 * 1024 * 1024;
        let t4 = m.allreduce_time(bytes, 4, &net());
        let t64 = m.allreduce_time(bytes, 64, &net());
        let t256 = m.allreduce_time(bytes, 256, &net());
        assert!(t4 < t64 && t64 < t256);
    }

    #[test]
    fn zero_and_single_rank_are_free() {
        let m = CollectiveCostModel::default();
        assert_eq!(m.allreduce_time(0, 8, &net()), 0.0);
        assert_eq!(m.allreduce_time(1024, 1, &net()), 0.0);
    }

    #[test]
    fn allgather_is_about_half_an_allreduce() {
        let m = CollectiveCostModel::default();
        let bytes = 128 * 1024 * 1024;
        let ar = m.node_time(Collective::AllReduce, bytes, 8, &net());
        let ag = m.node_time(Collective::AllGather, bytes, 8, &net());
        let ratio = ar / ag;
        assert!((1.7..=2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn pin_mode_halves_allreduce_time() {
        let m = CollectiveCostModel::default();
        let bytes = 256 * 1024 * 1024;
        let base = m.allreduce_time(bytes, 8, &net());
        let pin = m.allreduce_time(bytes, 8, &net().with_pin_mode(twocs_hw::PinMode::InSwitch));
        let ratio = base / pin;
        assert!((1.8..=2.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn link_model_matches_simulated_ring_schedule() {
        // The α–β link model must agree with discrete-event execution of
        // the actual transfer schedule.
        let m = CollectiveCostModel::new(link().latency(), 1024.0 * 1024.0);
        for n in [2usize, 4, 8] {
            let elements = 8 * 1024 * 1024; // 32 MiB of f32
            let schedule = Algorithm::Ring
                .schedule(Collective::AllReduce, n, elements)
                .unwrap();
            let (graph, _) = schedule.to_task_graph(4, &link());
            let sim = Engine::new().run(&graph).unwrap().makespan().as_secs_f64();
            let analytic = m.time_on_link(
                Collective::AllReduce,
                Algorithm::Ring,
                elements as u64 * 4,
                n,
                &link(),
            );
            let err = (sim - analytic).abs() / sim;
            assert!(
                err < 0.05,
                "n={n}: sim {sim}, analytic {analytic}, err {err}"
            );
        }
    }

    #[test]
    fn tree_beats_ring_for_tiny_messages_on_many_ranks() {
        let m = CollectiveCostModel::default();
        let bytes = 16 * 1024;
        let n = 64;
        let ring = m.time_on_link(Collective::AllReduce, Algorithm::Ring, bytes, n, &link());
        let tree = m.time_on_link(Collective::AllReduce, Algorithm::Tree, bytes, n, &link());
        assert!(tree < ring, "tree {tree} vs ring {ring}");
    }

    #[test]
    fn ring_beats_tree_for_large_messages() {
        let m = CollectiveCostModel::default();
        let bytes = 512 * 1024 * 1024;
        let n = 16;
        let ring = m.time_on_link(Collective::AllReduce, Algorithm::Ring, bytes, n, &link());
        let tree = m.time_on_link(Collective::AllReduce, Algorithm::Tree, bytes, n, &link());
        assert!(ring < tree, "ring {ring} vs tree {tree}");
    }

    #[test]
    fn halving_doubling_beats_ring_on_latency() {
        let m = CollectiveCostModel::default();
        let bytes = 1024 * 1024;
        let n = 64;
        let ring = m.time_on_link(Collective::AllReduce, Algorithm::Ring, bytes, n, &link());
        let hd = m.time_on_link(
            Collective::AllReduce,
            Algorithm::HalvingDoubling,
            bytes,
            n,
            &link(),
        );
        assert!(hd < ring, "hd {hd} vs ring {ring}");
    }

    #[test]
    fn hierarchical_allreduce_slower_than_single_node() {
        let m = CollectiveCostModel::default();
        let bytes = 256 * 1024 * 1024;
        let flat = Topology::FullyConnected {
            devices: 16,
            link: link(),
        };
        let multi = Topology::Hierarchical {
            nodes: 4,
            node_size: 4,
            intra: link(),
            inter: LinkSpec::new(12.5e9, 12e-6, 8.0 * 1024.0 * 1024.0).unwrap(),
        };
        let t_flat = m.allreduce_time_on_topology(bytes, &flat, &net());
        let t_multi = m.allreduce_time_on_topology(bytes, &multi, &net());
        assert!(
            t_multi > 1.5 * t_flat,
            "cross-node AR should pay the slow links: {t_multi} vs {t_flat}"
        );
    }

    #[test]
    fn hierarchical_time_grows_with_node_count() {
        let m = CollectiveCostModel::default();
        let bytes = 128 * 1024 * 1024;
        let inter = LinkSpec::new(12.5e9, 12e-6, 8.0 * 1024.0 * 1024.0).unwrap();
        let t = |nodes: usize| {
            m.allreduce_time_on_topology(
                bytes,
                &Topology::Hierarchical {
                    nodes,
                    node_size: 4,
                    intra: link(),
                    inter,
                },
                &net(),
            )
        };
        assert!(t(2) < t(8));
        assert!(t(8) < t(32));
    }

    #[test]
    fn single_node_topology_matches_node_time() {
        let m = CollectiveCostModel::default();
        let bytes = 64 * 1024 * 1024;
        let flat = Topology::FullyConnected {
            devices: 8,
            link: link(),
        };
        let a = m.allreduce_time_on_topology(bytes, &flat, &net());
        let b = m.allreduce_time(bytes, 8, &net());
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn direct_allreduce_is_one_step_not_ring_chunking() {
        // Regression: Direct used to be priced identically to Ring
        // (`2·(n-1)` steps with ring chunking). It is one full-payload
        // exchange plus a local reduce.
        assert_eq!(
            CollectiveCostModel::steps(Algorithm::Direct, Collective::AllReduce, 8),
            1
        );
        assert_ne!(
            CollectiveCostModel::steps(Algorithm::Direct, Collective::AllReduce, 8),
            CollectiveCostModel::steps(Algorithm::Ring, Collective::AllReduce, 8),
        );
        assert_ne!(
            CollectiveCostModel::steps(Algorithm::Direct, Collective::AllReduce, 8),
            CollectiveCostModel::steps(Algorithm::Tree, Collective::AllReduce, 8),
        );
        assert_eq!(
            CollectiveCostModel::steps(Algorithm::Direct, Collective::AllReduce, 1),
            0
        );
    }

    #[test]
    fn direct_allreduce_is_latency_dominated_at_small_n() {
        // Tiny payloads on few ranks: one α beats ring's 2·(n-1) α and
        // tree's 2·log₂n α.
        let m = CollectiveCostModel::default();
        let bytes = 16 * 1024;
        let n = 4;
        let direct = m.time_on_link(Collective::AllReduce, Algorithm::Direct, bytes, n, &link());
        let ring = m.time_on_link(Collective::AllReduce, Algorithm::Ring, bytes, n, &link());
        let tree = m.time_on_link(Collective::AllReduce, Algorithm::Tree, bytes, n, &link());
        assert!(direct < tree, "direct {direct} vs tree {tree}");
        assert!(direct < ring, "direct {direct} vs ring {ring}");
    }

    #[test]
    fn direct_allreduce_pays_full_volume_at_scale() {
        // Large payloads on many ranks: (n-1)·S through every link loses
        // badly to ring's ~2·S.
        let m = CollectiveCostModel::default();
        let bytes = 512 * 1024 * 1024;
        let n = 16;
        let direct = m.time_on_link(Collective::AllReduce, Algorithm::Direct, bytes, n, &link());
        let ring = m.time_on_link(Collective::AllReduce, Algorithm::Ring, bytes, n, &link());
        assert!(
            direct > 3.0 * ring,
            "direct {direct} should pay ~(n-1)/2x ring's volume, ring {ring}"
        );
    }

    #[test]
    fn steps_formulas() {
        assert_eq!(
            CollectiveCostModel::steps(Algorithm::Ring, Collective::AllReduce, 8),
            14
        );
        assert_eq!(
            CollectiveCostModel::steps(Algorithm::HalvingDoubling, Collective::AllReduce, 8),
            6
        );
        assert_eq!(
            CollectiveCostModel::steps(Algorithm::Ring, Collective::AllGather, 8),
            7
        );
        assert_eq!(
            CollectiveCostModel::steps(Algorithm::Tree, Collective::Broadcast, 8),
            3
        );
        assert_eq!(
            CollectiveCostModel::steps(Algorithm::Ring, Collective::AllReduce, 1),
            0
        );
    }
}
