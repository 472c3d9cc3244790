//! The metric catalogue and the result line.
//!
//! Every workload reports every metric: end-to-end metrics on untraced
//! runs (`--trace 0`), per-layer metrics on traced runs (`--trace 1`).
//! A layer that does no work on a workload reads 0 there, which is the
//! "predicted flat" column of the prediction table in `LAYERS.md`.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.uncovered_share", "ratio"),
    ("grid.decode_s", "s"),
    ("planner.build_s", "s"),
    ("planner.build_triple_s", "s"),
    ("planner.build_axis_s", "s"),
    ("planner.cells_triple", "count"),
    ("planner.cells_axis", "count"),
    ("planner.builds", "count"),
    ("planner.eval_s", "s"),
    ("render.to_csv_s", "s"),
    ("cache.gemm_time.lookups", "count"),
    ("cache.gemm_time.hit_ratio", "ratio"),
    ("cache.collective.lookups", "count"),
    ("cache.collective.hit_ratio", "ratio"),
    ("cache.slack_roi.lookups", "count"),
    ("cache.slack_roi.hit_ratio", "ratio"),
    ("store.journal_s", "s"),
    ("store.journal.fsyncs", "count"),
    ("store.journal_bytes", "B"),
    ("store.sink_s", "s"),
    ("store.write_s", "s"),
    ("store.sink.spilled_bytes", "B"),
    ("runner.recorder_wait_s", "s"),
    ("runner.eval_blocked_s", "s"),
    ("serve.handler_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.p50_ms.low", "ms"),
    ("serve.p99_ms.low", "ms"),
    ("serve.p50_ms.high", "ms"),
    ("serve.p99_ms.high", "ms"),
    ("serve.max_rate_rps", "req/s"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.entries", "count"),
    ("serve.rejected", "count"),
    ("serve.request_us.p99", "us"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.backlog_max", "count"),
    ("dist.wait_workers_s", "s"),
    ("dist.bytes_tx_per_chunk", "B"),
    ("dist.bytes_rx_per_chunk", "B"),
    ("dist.chunk_rtt_ms.p50", "ms"),
    ("dist.chunk_rtt_ms.p99", "ms"),
    ("dist.pipeline.stalls", "count"),
    ("dist.worker.busy_share", "ratio"),
    ("dist.chunks_reassigned", "count"),
    ("dist.plan_cache_builds", "count"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, in the order found.
    problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record `name`; it must be a catalogued metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, _) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"));
        self.metrics.insert(name, value);
    }

    /// Report 0 for each per-layer metric under `prefixes` that was not
    /// measured: that layer does no work on this workload.
    pub fn zero_layers(&mut self, prefixes: &[&str]) {
        for (name, _) in PER_LAYER {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.metrics.entry(name).or_insert(0.0);
            }
        }
    }

    /// Record a failed check; the run will report `correct: false`.
    pub fn problem(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        eprintln!("perfbench: CHECK FAILED: {msg}");
        self.problems.push(msg);
    }

    /// Check `cond`, recording `msg` when it does not hold.
    pub fn check(&mut self, cond: bool, msg: impl FnOnce() -> String) {
        if !cond {
            self.problem(msg());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Print a readable table to stderr and the result line to stdout.
    /// A run whose checks failed, or that measured a metric as NaN or
    /// infinite, reports no numbers.
    pub fn emit(&mut self, traced: bool) {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        for &(name, _) in catalogue {
            let value = *self
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
            self.check(value.is_finite(), || format!("metric `{name}` is {value}"));
        }
        let mut fields = Vec::new();
        if self.correct() {
            for &(name, unit) in catalogue {
                let value = self.metrics[name];
                eprintln!("  {name:<28} {value:>16.6} {unit}");
                // `{:?}` prints every digit of Rust's shortest round trip.
                fields.push(format!(
                    "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
                ));
            }
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }
}

/// Hit/miss counters of the three model memo caches, read from the
/// `twocs-obs` registry.
#[derive(Debug, Clone, Copy)]
pub struct CacheCounters([(u64, u64); 3]);

const CACHES: [&str; 3] = ["gemm_time", "collective", "slack_roi"];

impl CacheCounters {
    pub fn read() -> Self {
        let reg = twocs::obs::metrics::global();
        Self(CACHES.map(|c| {
            (
                reg.counter(&format!("cache.{c}.hits")).get(),
                reg.counter(&format!("cache.{c}.misses")).get(),
            )
        }))
    }

    /// Record lookups and hit ratio of each cache since `earlier`.
    pub fn report_since(&self, earlier: &Self, out: &mut Outcome) {
        for (i, c) in CACHES.iter().enumerate() {
            let hits = self.0[i].0 - earlier.0[i].0;
            let lookups = hits + self.0[i].1 - earlier.0[i].1;
            out.set(&format!("cache.{c}.lookups"), lookups as f64);
            out.set(
                &format!("cache.{c}.hit_ratio"),
                if lookups == 0 {
                    0.0
                } else {
                    hits as f64 / lookups as f64
                },
            );
        }
    }
}

/// Empty the three model memo caches so a plan build pays full price.
pub fn clear_model_caches() {
    twocs::hw::cache::clear_gemm_time_cache();
    twocs::collectives::cost::clear_node_time_cache();
    twocs::opmodel::profile::clear_slack_roi_cache();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        assert!(all.iter().all(|n| valid_name(n)), "{all:?}");
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let declared: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                declared.contains(name),
                "{name} missing from BENCHMARK.json"
            );
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} has another unit in BENCHMARK.json"
            );
        }
        let workloads = ["sweep_1m", "serve_zipf", "dist_rtt1ms"];
        assert_eq!(
            declared.len(),
            END_TO_END.len() + PER_LAYER.len() + workloads.len()
        );
        for w in workloads {
            assert!(declared.contains(&w), "{w} missing from BENCHMARK.json");
        }
    }
}
