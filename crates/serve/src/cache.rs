//! Full-body response cache over `twocs-hw`'s [`MemoCache`].
//!
//! The projection models are cheap per point, but a popular dashboard
//! asking the same `/v1/sweep` query thousands of times a second should
//! not recompute the grid every time. This module memoizes **entire
//! rendered bodies** (CSV/JSON/ASCII, plus their `Content-Type`) keyed
//! by a canonical form of the already-validated query.
//!
//! Canonicalization happens in the handlers, *after* validation and
//! default-folding: two spellings of the same query — `flop_vs_bw=1`
//! vs. `flop_vs_bw=1.0`, parameters omitted vs. spelled out as their
//! defaults, list orderings preserved — resolve to one key and one
//! cached entry. The one parameter that cannot change the body, `jobs`,
//! is excluded from keys entirely.
//!
//! Because the store is a [`MemoCache`], the serve cache inherits its
//! concurrency story wholesale: lock-striped shards keep request
//! workers on different keys apart, and in-flight miss deduplication
//! means a stampede of identical cold queries computes the body
//! **once** while the other request workers wait for it. Counters publish to `/v1/metrics` as
//! `serve.cache.{hits,misses,entries}`.
//!
//! Only infallible compute paths go through the cache: handlers
//! validate first (every `400` happens before the cache), and the
//! executor-backed sweep path (`twocs serve --listen`), whose `500`s
//! must never be replayed, bypasses it.

use crate::http::Response;
use std::fmt::Write as _;
use twocs_hw::cache::{CacheStats, MemoCache};

/// A memoized store of fully-rendered responses, keyed by canonical
/// query strings.
pub struct ResponseCache {
    store: MemoCache<String, Response>,
}

impl std::fmt::Debug for ResponseCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl ResponseCache {
    /// A cache publishing `serve.cache.{hits,misses,entries}` to the
    /// global metrics registry (what a real server runs).
    #[must_use]
    pub fn new() -> Self {
        Self {
            store: MemoCache::with_metric_prefix("serve.cache"),
        }
    }

    /// A cache with detached (unpublished) counters, for tests that
    /// must not touch the shared global registry.
    #[must_use]
    pub fn detached() -> Self {
        Self {
            store: MemoCache::new(),
        }
    }

    /// Return the response for `key`, computing (and remembering) it
    /// with `compute` on first sight. Concurrent misses on the same key
    /// compute once; the rest wait and share the result.
    #[must_use]
    pub fn get_or_compute(&self, key: String, compute: impl FnOnce() -> Response) -> Response {
        self.store.get_or_insert_with(key, compute)
    }

    /// Hit/miss/entry counters (exact, in compute-invocation terms).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.store.stats()
    }
}

impl Default for ResponseCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Builder for canonical cache keys: `endpoint|name=value|...` with
/// every value already validated and default-folded by the caller.
///
/// `f64` values are keyed by their IEEE-754 bit pattern, so `1`, `1.0`,
/// and `1.000` (which all parse to the same float) share an entry while
/// genuinely distinct values never collide.
#[derive(Debug)]
pub struct KeyBuilder {
    key: String,
}

impl KeyBuilder {
    /// Start a key for `endpoint` (e.g. `sweep`).
    #[must_use]
    pub fn new(endpoint: &str) -> Self {
        Self {
            key: endpoint.to_owned(),
        }
    }

    /// Append a display-formatted field (integers, enum tokens).
    #[must_use]
    pub fn field(mut self, name: &str, value: impl std::fmt::Display) -> Self {
        let _ = write!(self.key, "|{name}={value}");
        self
    }

    /// Append an `f64` by bit pattern.
    #[must_use]
    pub fn f64(mut self, name: &str, value: f64) -> Self {
        let _ = write!(self.key, "|{name}={:016x}", value.to_bits());
        self
    }

    /// Append a `u64` list (order-preserving — axis order is part of
    /// the response bytes).
    #[must_use]
    pub fn u64s(mut self, name: &str, values: &[u64]) -> Self {
        let _ = write!(self.key, "|{name}=");
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                self.key.push(',');
            }
            let _ = write!(self.key, "{v}");
        }
        self
    }

    /// Append an `f64` list by bit patterns.
    #[must_use]
    pub fn f64s(mut self, name: &str, values: &[f64]) -> Self {
        let _ = write!(self.key, "|{name}=");
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                self.key.push(',');
            }
            let _ = write!(self.key, "{:016x}", v.to_bits());
        }
        self
    }

    /// The finished key.
    #[must_use]
    pub fn finish(self) -> String {
        self.key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_float_different_spelling_same_key() {
        let a = KeyBuilder::new("sweep").f64s("r", &[1.0, 2.0]).finish();
        let b = KeyBuilder::new("sweep")
            .f64s("r", &["1".parse().unwrap(), "2.000".parse().unwrap()])
            .finish();
        assert_eq!(a, b);
        let c = KeyBuilder::new("sweep").f64s("r", &[1.5, 2.0]).finish();
        assert_ne!(a, c);
    }

    #[test]
    fn list_order_is_part_of_the_key() {
        // Axis order changes row order in the CSV, so it must miss.
        let a = KeyBuilder::new("sweep").u64s("tp", &[16, 32]).finish();
        let b = KeyBuilder::new("sweep").u64s("tp", &[32, 16]).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn cache_computes_once_per_key() {
        let cache = ResponseCache::detached();
        let mut computes = 0;
        for _ in 0..3 {
            let r = cache.get_or_compute("k".to_owned(), || {
                computes += 1;
                Response::text(200, "body")
            });
            assert_eq!(r.body, "body");
        }
        assert_eq!(computes, 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
    }
}
