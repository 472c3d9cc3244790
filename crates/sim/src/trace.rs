//! Execution timelines — the simulator's equivalent of a rocProf trace.
//!
//! Every executed task produces a [`KernelRecord`] with its stream and
//! start/end times. [`Timeline`] offers the interval arithmetic the
//! analysis needs: per-stream busy time, per-class busy time, and
//! **exposed communication** (wall-clock periods where a device is
//! communicating but not computing — i.e. communication on the critical
//! path), plus a Chrome-trace JSON export for visual inspection.

use crate::task::{DeviceId, OpClass, StreamKind, TaskId};
use crate::time::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One executed task instance.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRecord {
    /// The originating task.
    pub task: TaskId,
    /// Task display name.
    pub name: String,
    /// Operator class.
    pub class: OpClass,
    /// Device whose stream this record occupies.
    pub device: DeviceId,
    /// Stream occupied.
    pub stream: StreamKind,
    /// Start time.
    pub start: SimTime,
    /// End time.
    pub end: SimTime,
}

impl KernelRecord {
    /// Duration of this record.
    #[must_use]
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

/// Aggregated statistics for one kernel name in a timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelStat {
    /// Base kernel name (per-layer instances aggregated).
    pub name: String,
    /// Number of invocations.
    pub calls: usize,
    /// Summed duration across invocations.
    pub total: SimTime,
}

impl std::fmt::Display for KernelStat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:<24} x{:<5} {}", self.name, self.calls, self.total)
    }
}

/// A completed execution trace.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    records: Vec<KernelRecord>,
}

impl Timeline {
    /// Create an empty timeline.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record (engine-internal, but public for custom frontends).
    pub fn push(&mut self, record: KernelRecord) {
        self.records.push(record);
    }

    /// All records in execution-start order is *not* guaranteed; records
    /// appear in completion-of-scheduling order.
    #[must_use]
    pub fn records(&self) -> &[KernelRecord] {
        &self.records
    }

    /// Latest end time across all records.
    #[must_use]
    pub fn makespan(&self) -> SimTime {
        self.records
            .iter()
            .map(|r| r.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Devices that appear in the trace, ascending.
    #[must_use]
    pub fn devices(&self) -> Vec<DeviceId> {
        let mut v: Vec<DeviceId> = self.records.iter().map(|r| r.device).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Union busy time of one stream on one device.
    #[must_use]
    pub fn stream_busy(&self, device: DeviceId, stream: StreamKind) -> SimTime {
        union_length(&self.intervals(device, stream))
    }

    /// Sum (not union) of record durations per class across all devices.
    #[must_use]
    pub fn class_duration_totals(&self) -> BTreeMap<&'static str, SimTime> {
        let mut m = BTreeMap::new();
        for r in &self.records {
            *m.entry(r.class.name()).or_insert(SimTime::ZERO) += r.duration();
        }
        m
    }

    /// Union busy time of all communication (both comm streams) on one
    /// device.
    #[must_use]
    pub fn comm_busy(&self, device: DeviceId) -> SimTime {
        union_length(&self.comm_intervals(device))
    }

    /// Time where `device` is communicating (either comm stream) but its
    /// compute stream is idle: communication that is *exposed* on the
    /// critical path rather than hidden behind compute (paper Figure 3).
    #[must_use]
    pub fn exposed_comm(&self, device: DeviceId) -> SimTime {
        let comm = union(self.comm_intervals(device));
        let compute = union(self.intervals(device, StreamKind::Compute));
        subtract_length(&comm, &compute)
    }

    /// Time where `device` communicates and computes simultaneously:
    /// communication hidden behind compute.
    #[must_use]
    pub fn overlapped_comm(&self, device: DeviceId) -> SimTime {
        self.comm_busy(device) - self.exposed_comm(device)
    }

    fn comm_intervals(&self, device: DeviceId) -> Vec<(u64, u64)> {
        self.records
            .iter()
            .filter(|r| {
                r.device == device
                    && matches!(r.stream, StreamKind::Comm | StreamKind::CommAlt)
                    && r.end > r.start
            })
            .map(|r| (r.start.as_ps(), r.end.as_ps()))
            .collect()
    }

    fn intervals(&self, device: DeviceId, stream: StreamKind) -> Vec<(u64, u64)> {
        self.records
            .iter()
            .filter(|r| r.device == device && r.stream == stream && r.end > r.start)
            .map(|r| (r.start.as_ps(), r.end.as_ps()))
            .collect()
    }

    /// Aggregate per-kernel statistics (rocProf-style): for each distinct
    /// base name (the part after the last `.`, so per-layer instances of
    /// one operator aggregate together), the call count and total time,
    /// sorted by total time descending, truncated to `top_n`.
    #[must_use]
    pub fn kernel_summary(&self, top_n: usize) -> Vec<KernelStat> {
        let mut by_name: BTreeMap<&str, (usize, SimTime)> = BTreeMap::new();
        for r in &self.records {
            let base = r.name.rsplit('.').next().unwrap_or(&r.name);
            let entry = by_name.entry(base).or_insert((0, SimTime::ZERO));
            entry.0 += 1;
            entry.1 += r.duration();
        }
        let mut stats: Vec<KernelStat> = by_name
            .into_iter()
            .map(|(name, (calls, total))| KernelStat {
                name: name.to_owned(),
                calls,
                total,
            })
            .collect();
        stats.sort_by(|a, b| b.total.cmp(&a.total).then(a.name.cmp(&b.name)));
        stats.truncate(top_n);
        stats
    }

    /// Render an ASCII Gantt chart: one row per `(device, stream)`,
    /// `width` time buckets across the makespan. A bucket shows the class
    /// of the longest task touching it (`G` gemm, `M` mem-op, `C` comm,
    /// `o` other) or `.` when nothing does — a coarse eyeballing tool,
    /// not an exact accounting (use the report metrics for that).
    #[must_use]
    pub fn to_ascii_gantt(&self, width: usize) -> String {
        let width = width.max(1);
        let span = self.makespan().as_ps().max(1);
        let bucket = span.div_ceil(width as u64).max(1);
        let mut rows: BTreeMap<(DeviceId, u8), Vec<(u64, char)>> = BTreeMap::new();
        for r in &self.records {
            if r.end <= r.start {
                continue;
            }
            let lane = match r.stream {
                StreamKind::Compute => 0u8,
                StreamKind::Comm => 1,
                StreamKind::CommAlt => 2,
            };
            let glyph = match r.class {
                OpClass::Gemm => 'G',
                OpClass::MemOp => 'M',
                OpClass::Comm => 'C',
                _ => 'o',
            };
            let cells = rows
                .entry((r.device, lane))
                .or_insert_with(|| vec![(0, ' '); width]);
            let first = (r.start.as_ps() / bucket) as usize;
            let last = ((r.end.as_ps() - 1) / bucket) as usize;
            for cell in cells.iter_mut().take(last.min(width - 1) + 1).skip(first) {
                // Majority-ish: keep the glyph covering the most time by
                // counting overlap length per bucket.
                let covered = r.duration().as_ps();
                if covered >= cell.0 {
                    *cell = (covered, glyph);
                }
            }
        }
        let mut out = String::new();
        for ((device, lane), cells) in rows {
            let stream = match lane {
                0 => "compute",
                1 => "comm   ",
                _ => "comm2  ",
            };
            let _ = write!(out, "{device} {stream} |");
            for (covered, glyph) in cells {
                out.push(if covered == 0 { '.' } else { glyph });
            }
            out.push_str("|\n");
        }
        let _ = writeln!(
            out,
            "(each column = {}; G gemm, M memop, C comm, o other)",
            SimTime::from_ps(bucket)
        );
        out
    }

    /// Convert to tracer-neutral spans for `twocs-obs` capture. The whole
    /// timeline lands in one Chrome-trace process, so the thread lane
    /// encodes both device and stream (`device × 3 + stream`).
    #[must_use]
    pub fn to_obs_spans(&self) -> Vec<twocs_obs::SimSpan> {
        self.records
            .iter()
            .map(|r| {
                let lane = match r.stream {
                    StreamKind::Compute => 0,
                    StreamKind::Comm => 1,
                    StreamKind::CommAlt => 2,
                };
                twocs_obs::SimSpan {
                    name: r.name.clone(),
                    cat: r.class.name(),
                    tid: (r.device.0 as u64) * 3 + lane,
                    start_us: r.start.as_micros_f64(),
                    dur_us: r.duration().as_micros_f64(),
                }
            })
            .collect()
    }

    /// Export as a Chrome `chrome://tracing` / Perfetto JSON string.
    /// Devices map to processes, streams to threads.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let tid = match r.stream {
                StreamKind::Compute => 0,
                StreamKind::Comm => 1,
                StreamKind::CommAlt => 2,
            };
            // Chrome traces use microseconds.
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{}}}",
                escape_json(&r.name),
                r.class.name(),
                r.start.as_micros_f64(),
                r.duration().as_micros_f64(),
                r.device.0,
                tid
            );
        }
        out.push(']');
        out
    }
}

fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Sort and merge overlapping/adjacent intervals.
fn union(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length of the union of `intervals`.
fn union_length(intervals: &[(u64, u64)]) -> SimTime {
    let merged = union(intervals.to_vec());
    SimTime::from_ps(merged.iter().map(|(s, e)| e - s).sum())
}

/// Length of `a \ b` where both are already-merged interval unions.
fn subtract_length(a: &[(u64, u64)], b: &[(u64, u64)]) -> SimTime {
    let mut total = 0u64;
    let mut bi = 0usize;
    for &(s, e) in a {
        let mut cur = s;
        while bi < b.len() && b[bi].1 <= cur {
            bi += 1;
        }
        let mut bj = bi;
        while cur < e {
            if bj >= b.len() || b[bj].0 >= e {
                total += e - cur;
                break;
            }
            let (bs, be) = b[bj];
            if bs > cur {
                total += bs - cur;
            }
            cur = cur.max(be);
            bj += 1;
        }
    }
    SimTime::from_ps(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        device: usize,
        stream: StreamKind,
        class: OpClass,
        start: u64,
        end: u64,
    ) -> KernelRecord {
        KernelRecord {
            task: TaskId(0),
            name: "k".into(),
            class,
            device: DeviceId(device),
            stream,
            start: SimTime::from_ps(start),
            end: SimTime::from_ps(end),
        }
    }

    #[test]
    fn busy_time_unions_overlaps() {
        let mut t = Timeline::new();
        t.push(rec(0, StreamKind::Compute, OpClass::Gemm, 0, 10));
        t.push(rec(0, StreamKind::Compute, OpClass::Gemm, 5, 15));
        t.push(rec(0, StreamKind::Compute, OpClass::Gemm, 20, 30));
        assert_eq!(t.stream_busy(DeviceId(0), StreamKind::Compute).as_ps(), 25);
        assert_eq!(t.makespan().as_ps(), 30);
    }

    #[test]
    fn exposed_comm_is_comm_minus_compute() {
        let mut t = Timeline::new();
        // Compute busy [0, 10); comm busy [5, 20).
        t.push(rec(0, StreamKind::Compute, OpClass::Gemm, 0, 10));
        t.push(rec(0, StreamKind::Comm, OpClass::Comm, 5, 20));
        assert_eq!(t.exposed_comm(DeviceId(0)).as_ps(), 10);
        assert_eq!(t.overlapped_comm(DeviceId(0)).as_ps(), 5);
    }

    #[test]
    fn fully_hidden_comm_has_zero_exposure() {
        let mut t = Timeline::new();
        t.push(rec(0, StreamKind::Compute, OpClass::Gemm, 0, 100));
        t.push(rec(0, StreamKind::Comm, OpClass::Comm, 10, 60));
        assert_eq!(t.exposed_comm(DeviceId(0)), SimTime::ZERO);
        assert_eq!(t.overlapped_comm(DeviceId(0)).as_ps(), 50);
    }

    #[test]
    fn exposure_with_multiple_gaps() {
        let mut t = Timeline::new();
        t.push(rec(0, StreamKind::Compute, OpClass::Gemm, 10, 20));
        t.push(rec(0, StreamKind::Compute, OpClass::Gemm, 40, 50));
        t.push(rec(0, StreamKind::Comm, OpClass::Comm, 0, 60));
        // comm = 60, hidden = 20 -> exposed 40.
        assert_eq!(t.exposed_comm(DeviceId(0)).as_ps(), 40);
    }

    #[test]
    fn per_device_isolation() {
        let mut t = Timeline::new();
        t.push(rec(0, StreamKind::Comm, OpClass::Comm, 0, 10));
        t.push(rec(1, StreamKind::Compute, OpClass::Gemm, 0, 10));
        assert_eq!(t.exposed_comm(DeviceId(0)).as_ps(), 10);
        assert_eq!(t.exposed_comm(DeviceId(1)).as_ps(), 0);
        assert_eq!(t.devices(), vec![DeviceId(0), DeviceId(1)]);
    }

    #[test]
    fn class_totals_sum_durations() {
        let mut t = Timeline::new();
        t.push(rec(0, StreamKind::Compute, OpClass::Gemm, 0, 10));
        t.push(rec(0, StreamKind::Compute, OpClass::MemOp, 10, 14));
        t.push(rec(1, StreamKind::Compute, OpClass::Gemm, 0, 6));
        let totals = t.class_duration_totals();
        assert_eq!(totals["gemm"].as_ps(), 16);
        assert_eq!(totals["memop"].as_ps(), 4);
    }

    #[test]
    fn kernel_summary_aggregates_by_base_name() {
        let mut t = Timeline::new();
        for (name, dur) in [("l0.fc1_gemm", 10u64), ("l1.fc1_gemm", 12), ("l0.ln1", 3)] {
            t.push(KernelRecord {
                task: TaskId(0),
                name: name.into(),
                class: OpClass::Gemm,
                device: DeviceId(0),
                stream: StreamKind::Compute,
                start: SimTime::ZERO,
                end: SimTime::from_ps(dur),
            });
        }
        let stats = t.kernel_summary(10);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].name, "fc1_gemm");
        assert_eq!(stats[0].calls, 2);
        assert_eq!(stats[0].total.as_ps(), 22);
        assert_eq!(stats[1].name, "ln1");
        // top_n truncation
        assert_eq!(t.kernel_summary(1).len(), 1);
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let mut t = Timeline::new();
        t.push(rec(0, StreamKind::Compute, OpClass::Gemm, 0, 1_000_000));
        let json = t.to_chrome_trace();
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"pid\":0"));
    }

    #[test]
    fn ascii_gantt_shows_lanes_and_idle() {
        let mut t = Timeline::new();
        t.push(rec(0, StreamKind::Compute, OpClass::Gemm, 0, 50));
        t.push(rec(0, StreamKind::Comm, OpClass::Comm, 50, 100));
        let gantt = t.to_ascii_gantt(20);
        let lines: Vec<&str> = gantt.lines().collect();
        assert_eq!(lines.len(), 3); // two lanes + legend
        assert!(lines[0].contains('G'));
        assert!(lines[0].contains('.'), "compute lane idles in second half");
        assert!(lines[1].contains('C'));
        assert!(lines[2].contains("legend") || lines[2].contains("column"));
    }

    #[test]
    fn empty_timeline() {
        let t = Timeline::new();
        assert_eq!(t.makespan(), SimTime::ZERO);
        assert_eq!(t.exposed_comm(DeviceId(0)), SimTime::ZERO);
        assert_eq!(t.to_chrome_trace(), "[]");
    }
}
