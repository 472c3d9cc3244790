//! Full-body response cache.
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
//! is excluded from keys entirely. A `/v1/sweep` key is its format token
//! followed by the grid's spec encoding (`twocs_store::encode_grid`, the
//! bytes a journal records for the grid); the other endpoints build
//! theirs with [`KeyBuilder`].
//!
//! # Concurrency
//!
//! One mutex guards two maps: finished responses, and keys whose body a
//! request worker is computing. A miss claims its key in the second map
//! and computes outside the lock; a later lookup of the same key waits
//! on the cache's condition variable until that computation ends instead
//! of starting another, so a stampede of identical cold queries computes
//! the body **once**. If the computing thread panics, its claim is
//! dropped unfiled and one waiter claims the key and computes, so a
//! poisoned key never wedges later lookups. Finished bodies are shared
//! `Arc`s, copied out after the lock is released.
//!
//! The server's event loop answers a finished entry itself
//! ([`ResponseCache::peek`]); a key still in flight goes to a worker,
//! which joins the computation. Counters publish to `/v1/metrics` as
//! `serve.cache.{hits,misses,entries}`: a lookup that waited on another
//! thread's computation counts as a hit, so `misses` equals compute
//! invocations exactly, and `entries` counts finished bodies.
//!
//! Only infallible compute paths go through the cache: handlers
//! validate first (every `400` happens before the cache), and the
//! executor-backed sweep path (`twocs serve --listen`), whose `500`s
//! must never be replayed, bypasses it.

use crate::http::Response;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use twocs_obs::{Counter, Gauge};

/// A memoized store of fully-rendered responses, keyed by canonical
/// query bytes.
pub(crate) struct ResponseCache {
    maps: Mutex<Maps>,
    /// Signalled whenever a key leaves flight, filed or abandoned.
    landed: Condvar,
    hits: Counter,
    misses: Counter,
    /// Finished entries, mirrored for `/v1/metrics`.
    entries: Gauge,
}

#[derive(Default)]
struct Maps {
    finished: HashMap<Vec<u8>, Arc<Response>>,
    in_flight: HashSet<Vec<u8>>,
}

/// A claimed key being computed. Dropping it, on return or on unwind,
/// takes the key out of flight, files the body if one was computed, and
/// wakes the waiters.
struct Claim<'a> {
    cache: &'a ResponseCache,
    key: Vec<u8>,
    body: Option<Arc<Response>>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let mut maps = self.cache.lock();
        // The in-flight copy of the key is a clone, allocated at its
        // exact length, so it is the one to keep.
        let key = maps.in_flight.take(&self.key);
        if let (Some(key), Some(body)) = (key, self.body.take()) {
            maps.finished.insert(key, body);
            self.cache.entries.add(1.0);
        }
        drop(maps);
        self.cache.landed.notify_all();
    }
}

impl ResponseCache {
    fn with_counters(hits: Counter, misses: Counter, entries: Gauge) -> Self {
        Self {
            maps: Mutex::default(),
            landed: Condvar::new(),
            hits,
            misses,
            entries,
        }
    }

    /// A cache publishing `serve.cache.{hits,misses,entries}` to the
    /// global metrics registry.
    pub(crate) fn new() -> Self {
        let registry = twocs_obs::metrics::global();
        Self::with_counters(
            registry.counter("serve.cache.hits"),
            registry.counter("serve.cache.misses"),
            registry.gauge("serve.cache.entries"),
        )
    }

    /// A cache with unpublished counters, so a test's assertions do not
    /// share the global registry.
    #[cfg(test)]
    pub(crate) fn detached() -> Self {
        Self::with_counters(Counter::detached(), Counter::detached(), Gauge::detached())
    }

    /// The maps. No guarded operation can leave them inconsistent, so a
    /// poisoned lock is still good.
    fn lock(&self) -> MutexGuard<'_, Maps> {
        self.maps.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Count a hit and copy out its body.
    fn hit(&self, body: &Response) -> Response {
        self.hits.inc();
        body.clone()
    }

    /// Return the response for `key`, computing (and remembering) it
    /// with `compute` on first sight. `compute` runs outside the lock,
    /// and concurrent misses on one key run it once: the rest wait and
    /// share the result.
    pub(crate) fn get_or_compute(
        &self,
        key: Vec<u8>,
        compute: impl FnOnce() -> Response,
    ) -> Response {
        let mut maps = self.lock();
        loop {
            if let Some(body) = maps.finished.get(&key).map(Arc::clone) {
                drop(maps);
                return self.hit(&body);
            }
            if !maps.in_flight.contains(&key) {
                break;
            }
            maps = self
                .landed
                .wait(maps)
                .unwrap_or_else(PoisonError::into_inner);
        }
        maps.in_flight.insert(key.clone());
        drop(maps);
        self.misses.inc();
        let mut claim = Claim {
            cache: self,
            key,
            body: None,
        };
        let response = compute();
        // Keep a clone, not the original: its body is allocated at its
        // exact length, without the slack rendering left behind.
        claim.body = Some(Arc::new(response.clone()));
        drop(claim);
        response
    }

    /// The finished response for `key`, if resident, counted as a hit.
    /// A key never seen or still being computed answers `None` and
    /// counts nothing: the caller falls back to
    /// [`Self::get_or_compute`], which counts it once (and joins an
    /// in-flight computation instead of starting a second).
    pub(crate) fn peek(&self, key: &[u8]) -> Option<Response> {
        let body = Arc::clone(self.lock().finished.get(key)?);
        Some(self.hit(&body))
    }

    /// `(hits, misses, entries)`.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> (u64, u64, usize) {
        (
            self.hits.get(),
            self.misses.get(),
            self.lock().finished.len(),
        )
    }
}

/// Builder for canonical cache keys: `endpoint|name=value|...` with
/// every value already validated and default-folded by the caller.
#[derive(Debug)]
pub(crate) struct KeyBuilder {
    key: String,
}

impl KeyBuilder {
    /// Start a key for `endpoint` (e.g. `sweep`).
    pub(crate) fn new(endpoint: &str) -> Self {
        Self {
            key: endpoint.to_owned(),
        }
    }

    /// Append a display-formatted field (integers, enum tokens).
    pub(crate) fn field(mut self, name: &str, value: impl std::fmt::Display) -> Self {
        let _ = write!(self.key, "|{name}={value}");
        self
    }

    /// The finished key.
    pub(crate) fn finish(self) -> Vec<u8> {
        self.key.into_bytes()
    }
}

#[cfg(test)]
mod tests;
