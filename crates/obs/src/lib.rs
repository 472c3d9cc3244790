//! # twocs-obs — observability for the Comp-vs-Comm stack
//!
//! Std-only tracing and metrics, threaded through the sweep pool, the
//! discrete-event simulator, the sweep store and the serve front end:
//!
//! * [`span`] — a span/event tracer with task scopes, RAII phase guards,
//!   and simulator-timeline capture. Two clock modes: real monotonic time
//!   for humans, and a deterministic logical clock so test traces are
//!   byte-identical at any worker count.
//! * [`metrics`] — a registry of named counters, gauges, and histograms;
//!   the serve response cache registers its hit/miss counters here, as do
//!   the sweep pool's queue-depth and per-worker utilization stats.
//! * [`chrome`] — a Chrome-trace (`chrome://tracing` / Perfetto) JSON
//!   writer for the `--trace <path>` CLI flag.
//! * [`json`] — a dependency-free JSON validator backing the exporter
//!   tests.
//!
//! Everything here stays off stdout: traces go to files, metrics
//! summaries to stderr, so the CSV output contract of `twocs run` /
//! `twocs sweep` is untouched.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod clock;
pub mod json;
pub mod metrics;
pub mod span;

pub use clock::{Clock, LogicalClock, MonotonicClock};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use span::{
    current_tracer, enter_worker, install_global, pool_seed, set_thread_tracer, span, task_scope,
    uninstall_global, PoolSeed, SimSpan, SpanGuard, SpanRecord, TaskScope, TraceMode,
    TraceSnapshot, Tracer,
};
