//! What is left of the hardware models' memo caches.
//!
//! The cost functions are not memoized: a factored sweep plan already
//! prices each table cell once per sweep, so a process-global table
//! under it would mostly miss and only grow. The one response cache in
//! the workspace belongs to `twocs-serve`.

/// Formerly emptied the process-global GEMM-time memo cache, which is
/// gone: `DeviceSpec::gemm_time` computes directly. Kept as a no-op only
/// because the `perfbench/` harness still calls it; it goes once that
/// harness drops the call.
#[doc(hidden)]
pub fn clear_gemm_time_cache() {}
