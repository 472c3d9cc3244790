//! Aggregated execution metrics.
//!
//! [`SimReport`] condenses a [`Timeline`] into the quantities the paper's
//! analysis consumes: makespan, compute/communication busy time, exposed
//! (critical-path) communication, and the serialized-communication
//! fraction of Figure 10 / 12.

use crate::task::{DeviceId, StreamKind};
use crate::time::SimTime;
use crate::trace::Timeline;
use std::collections::BTreeMap;
use std::fmt;

/// Per-device execution statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceStats {
    /// The device.
    pub device: DeviceId,
    /// Union busy time of the compute stream.
    pub compute_busy: SimTime,
    /// Union busy time of the comm stream.
    pub comm_busy: SimTime,
    /// Communication time not hidden behind compute.
    pub exposed_comm: SimTime,
}

impl DeviceStats {
    /// Communication time hidden behind compute.
    #[must_use]
    pub fn overlapped_comm(&self) -> SimTime {
        self.comm_busy - self.exposed_comm
    }
}

/// Aggregated result of one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    makespan: SimTime,
    per_device: Vec<DeviceStats>,
    class_totals: BTreeMap<&'static str, SimTime>,
}

impl SimReport {
    /// Build a report from a completed timeline.
    #[must_use]
    pub fn from_timeline(timeline: &Timeline) -> Self {
        let per_device = timeline
            .devices()
            .into_iter()
            .map(|device| DeviceStats {
                device,
                compute_busy: timeline.stream_busy(device, StreamKind::Compute),
                comm_busy: timeline.comm_busy(device),
                exposed_comm: timeline.exposed_comm(device),
            })
            .collect();
        Self {
            makespan: timeline.makespan(),
            per_device,
            class_totals: timeline.class_duration_totals(),
        }
    }

    /// End-to-end wall-clock time.
    #[must_use]
    pub fn makespan(&self) -> SimTime {
        self.makespan
    }

    /// Stats per device, ascending device id.
    #[must_use]
    pub fn per_device(&self) -> &[DeviceStats] {
        &self.per_device
    }

    /// Summed durations per op class across all devices (not a union).
    #[must_use]
    pub fn class_totals(&self) -> &BTreeMap<&'static str, SimTime> {
        &self.class_totals
    }

    /// Stats of the *bottleneck* device: the one with the largest total
    /// busy time. Symmetric distributed graphs (our common case) make this
    /// representative of every device.
    #[must_use]
    pub fn bottleneck(&self) -> Option<&DeviceStats> {
        self.per_device
            .iter()
            .max_by_key(|s| (s.compute_busy + s.comm_busy, s.device))
    }

    /// Compute busy time of the bottleneck device.
    #[must_use]
    pub fn compute_time(&self) -> SimTime {
        self.bottleneck().map_or(SimTime::ZERO, |s| s.compute_busy)
    }

    /// Communication busy time of the bottleneck device.
    #[must_use]
    pub fn comm_time(&self) -> SimTime {
        self.bottleneck().map_or(SimTime::ZERO, |s| s.comm_busy)
    }

    /// Exposed (critical-path) communication time of the bottleneck device.
    #[must_use]
    pub fn exposed_comm_time(&self) -> SimTime {
        self.bottleneck().map_or(SimTime::ZERO, |s| s.exposed_comm)
    }

    /// Fraction of the makespan spent in *exposed* communication on the
    /// bottleneck device — the paper's "fraction of serialized
    /// communication time" (Figures 10 and 12). Returns 0 for an empty run.
    #[must_use]
    pub fn comm_fraction(&self) -> f64 {
        if self.makespan == SimTime::ZERO {
            return 0.0;
        }
        self.exposed_comm_time().as_secs_f64() / self.makespan.as_secs_f64()
    }

    /// Overlapped communication as a fraction of compute busy time — the
    /// paper's Figure 11/13 metric. Returns 0 when there is no compute.
    #[must_use]
    pub fn overlap_ratio(&self) -> f64 {
        let c = self.compute_time();
        if c == SimTime::ZERO {
            return 0.0;
        }
        self.bottleneck()
            .map_or(0.0, |s| s.comm_busy.as_secs_f64() / c.as_secs_f64())
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "makespan: {}", self.makespan)?;
        writeln!(
            f,
            "compute: {}, comm: {} (exposed {}), comm fraction {:.1}%",
            self.compute_time(),
            self.comm_time(),
            self.exposed_comm_time(),
            self.comm_fraction() * 100.0
        )?;
        for (class, t) in &self.class_totals {
            writeln!(f, "  {class}: {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskGraph;
    use crate::task::OpClass;
    use crate::Engine;

    fn d(i: usize) -> DeviceId {
        DeviceId(i)
    }

    #[test]
    fn report_fractions() {
        let mut g = TaskGraph::new(1);
        let a = g.compute(d(0), "g1", OpClass::Gemm, 3e-3, &[]);
        let ar = g.collective(vec![d(0)], "ar", 1e-3, &[a]);
        let _ = g.compute(d(0), "g2", OpClass::Gemm, 0e-3 + 1e-3, &[ar]);
        let r = Engine::new().run(&g).unwrap();
        assert_eq!(r.makespan(), SimTime::from_secs_f64(5e-3));
        assert!((r.comm_fraction() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_picks_busiest_device() {
        let mut g = TaskGraph::new(2);
        g.compute(d(0), "small", OpClass::Gemm, 1e-3, &[]);
        g.compute(d(1), "big", OpClass::Gemm, 5e-3, &[]);
        let r = Engine::new().run(&g).unwrap();
        assert_eq!(r.bottleneck().unwrap().device, d(1));
        assert_eq!(r.compute_time(), SimTime::from_secs_f64(5e-3));
    }

    #[test]
    fn overlap_ratio_matches_figure11_definition() {
        let mut g = TaskGraph::new(1);
        g.compute(d(0), "wg", OpClass::Gemm, 4e-3, &[]);
        g.collective(vec![d(0)], "grad_ar", 1e-3, &[]);
        let r = Engine::new().run(&g).unwrap();
        assert!((r.overlap_ratio() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn display_contains_breakdown() {
        let mut g = TaskGraph::new(1);
        g.compute(d(0), "g", OpClass::Gemm, 1e-3, &[]);
        let r = Engine::new().run(&g).unwrap();
        let s = r.to_string();
        assert!(s.contains("makespan"));
        assert!(s.contains("gemm"));
    }

    #[test]
    fn empty_report() {
        let g = TaskGraph::new(1);
        let r = Engine::new().run(&g).unwrap();
        assert_eq!(r.comm_fraction(), 0.0);
        assert_eq!(r.overlap_ratio(), 0.0);
        assert!(r.bottleneck().is_none());
    }
}
