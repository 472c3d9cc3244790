//! A small, std-only benchmark timer with a Criterion-compatible surface.
//!
//! The workspace must build with no registry access, so it cannot depend
//! on `criterion`. This module provides the subset of its API the bench
//! binaries use — [`Criterion::benchmark_group`], `sample_size`,
//! `measurement_time`, `bench_function`, `bench_with_input`,
//! [`BenchmarkId`], and the [`criterion_group!`]/[`criterion_main!`]
//! macros — backed by plain [`std::time::Instant`] sampling.
//!
//! Each benchmark is calibrated so one sample takes roughly 10 ms, then
//! up to `sample_size` samples are collected within the group's
//! measurement-time budget. Mean / min / max per-iteration times are
//! printed in a human unit.
//!
//! [`criterion_group!`]: crate::criterion_group
//! [`criterion_main!`]: crate::criterion_main

use std::fmt;
use std::time::{Duration, Instant};

/// Top-level benchmark driver (stands in for `criterion::Criterion`).
#[derive(Debug, Default)]
pub struct Criterion {
    results: Vec<BenchResult>,
}

impl Criterion {
    /// Start a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 20,
            measurement_time: Duration::from_secs(3),
        }
    }

    /// Every result collected so far, in run order. Bench binaries that
    /// export machine-readable artifacts (e.g. `sweep_perf` writing
    /// `BENCH_sweep.json`) read statistics from here after running.
    #[must_use]
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Mean per-iteration time of `group`/`id`, in nanoseconds.
    ///
    /// # Panics
    /// When no such benchmark ran.
    #[must_use]
    pub fn mean_ns(&self, group: &str, id: &str) -> u128 {
        self.results
            .iter()
            .find(|r| r.group == group && r.id == id)
            .map(|r| r.mean.as_nanos())
            .unwrap_or_else(|| panic!("benchmark {group}/{id} did not run"))
    }

    /// Print a one-line-per-benchmark summary of everything run so far.
    pub fn print_summary(&self) {
        if self.results.is_empty() {
            return;
        }
        println!("\n== benchmark summary ==");
        for r in &self.results {
            println!("{r}");
        }
    }
}

/// A benchmark identifier made of a function name and an input label
/// (stands in for `criterion::BenchmarkId`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
    parameter: String,
}

impl BenchmarkId {
    /// Identifier for `name` at input `parameter`.
    pub fn new(name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        Self {
            name: name.into(),
            parameter: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.name, self.parameter)
    }
}

/// One benchmark's collected timing statistics.
#[derive(Debug, Clone)]
pub struct BenchResult {
    group: String,
    id: String,
    samples: usize,
    iters_per_sample: u64,
    mean: Duration,
    min: Duration,
    max: Duration,
}

impl BenchResult {
    /// Group name this benchmark ran under.
    #[must_use]
    pub fn group(&self) -> &str {
        &self.group
    }

    /// Benchmark id within the group.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Samples collected.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Iterations timed per sample.
    #[must_use]
    pub fn iters_per_sample(&self) -> u64 {
        self.iters_per_sample
    }

    /// Mean per-iteration time.
    #[must_use]
    pub fn mean(&self) -> Duration {
        self.mean
    }

    /// Fastest sample's per-iteration time.
    #[must_use]
    pub fn min(&self) -> Duration {
        self.min
    }

    /// Slowest sample's per-iteration time.
    #[must_use]
    pub fn max(&self) -> Duration {
        self.max
    }

    /// This result as one JSON object of a `BENCH_*.json` `results` array.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "    {{\"group\": \"{}\", \"id\": \"{}\", \"samples\": {}, \"iters_per_sample\": {}, \
             \"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
            twocs_obs::chrome::escape_json(&self.group),
            twocs_obs::chrome::escape_json(&self.id),
            self.samples,
            self.iters_per_sample,
            self.mean.as_nanos(),
            self.min.as_nanos(),
            self.max.as_nanos(),
        )
    }
}

impl fmt::Display for BenchResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<44} {:>12}/iter (min {}, max {}, {} samples x {} iters)",
            format!("{}/{}", self.group, self.id),
            fmt_duration(self.mean),
            fmt_duration(self.min),
            fmt_duration(self.max),
            self.samples,
            self.iters_per_sample,
        )
    }
}

/// Render a duration in the most readable unit.
fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", d.as_secs_f64() * 1e3)
    } else if ns >= 1_000 {
        format!("{:.3} us", d.as_secs_f64() * 1e6)
    } else {
        format!("{ns} ns")
    }
}

/// A named group of benchmarks sharing sampling configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Set the number of samples to collect per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Set the per-benchmark measurement-time budget.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Time `f`, which receives a [`Bencher`] and must call
    /// [`Bencher::iter`].
    pub fn bench_function(
        &mut self,
        id: impl fmt::Display,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            result: None,
        };
        f(&mut bencher);
        self.record(id.to_string(), bencher);
        self
    }

    /// Time `f` with an explicit input (stands in for Criterion's
    /// `bench_with_input`).
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            result: None,
        };
        f(&mut bencher, input);
        self.record(id.to_string(), bencher);
        self
    }

    fn record(&mut self, id: String, bencher: Bencher) {
        if let Some((samples, iters, mean, min, max)) = bencher.result {
            let result = BenchResult {
                group: self.name.clone(),
                id,
                samples,
                iters_per_sample: iters,
                mean,
                min,
                max,
            };
            println!("{result}");
            self.criterion.results.push(result);
        }
    }

    /// Finish the group (retained for Criterion API compatibility).
    pub fn finish(&mut self) {}
}

/// Passed to each benchmark closure; call [`Bencher::iter`] with the code
/// under test.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    /// `(samples, iters_per_sample, mean, min, max)` once measured.
    result: Option<(usize, u64, Duration, Duration, Duration)>,
}

/// Target wall time for one sample; short enough that even one sample
/// gives a usable number, long enough to amortize timer overhead.
const TARGET_SAMPLE_TIME: Duration = Duration::from_millis(10);

impl Bencher {
    /// Run `f` repeatedly and record per-iteration statistics.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        // Warm up and calibrate: how long does one iteration take?
        let start = Instant::now();
        std::hint::black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let iters_per_sample =
            (TARGET_SAMPLE_TIME.as_nanos() / once.as_nanos()).clamp(1, 1 << 20) as u64;

        let budget = Instant::now();
        let mut durations: Vec<Duration> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters_per_sample {
                std::hint::black_box(f());
            }
            durations.push(t0.elapsed() / u32::try_from(iters_per_sample).unwrap_or(u32::MAX));
            if budget.elapsed() > self.measurement_time {
                break;
            }
        }
        let samples = durations.len().max(1);
        let total: Duration = durations.iter().sum();
        let mean = total / u32::try_from(samples).unwrap_or(u32::MAX);
        let min = durations.iter().min().copied().unwrap_or(once);
        let max = durations.iter().max().copied().unwrap_or(once);
        self.result = Some((samples, iters_per_sample, mean, min, max));
    }
}

/// Define a bench group function from a list of benchmark functions
/// (stands in for `criterion::criterion_group!`).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($bench:path),+ $(,)?) => {
        fn $name(c: &mut $crate::harness::Criterion) {
            $( $bench(c); )+
        }
    };
}

/// Define `main` from one or more bench groups (stands in for
/// `criterion::criterion_main!`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::harness::Criterion::default();
            $( $group(&mut c); )+
            c.print_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_statistics() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("test");
        group
            .sample_size(3)
            .measurement_time(Duration::from_millis(50));
        // A closure with measurable cost: a bare `1 + 1` runs in under a
        // nanosecond in release builds, so its mean rounds to zero.
        group.bench_function("sum", |b| {
            b.iter(|| (1..=1000u64).map(std::hint::black_box).sum::<u64>());
        });
        group.finish();
        assert_eq!(c.results.len(), 1);
        assert!(c.results[0].mean > Duration::ZERO);
    }

    #[test]
    fn benchmark_id_formats_like_criterion() {
        assert_eq!(BenchmarkId::new("tasks", 100).to_string(), "tasks/100");
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert!(fmt_duration(Duration::from_nanos(5)).ends_with("ns"));
        assert!(fmt_duration(Duration::from_micros(5)).ends_with("us"));
        assert!(fmt_duration(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(5)).ends_with(" s"));
    }
}
