//! A sharded, thread-safe memo table with in-flight miss dedupe.
//!
//! [`MemoCache`] is the building block of `twocs-serve`'s response
//! cache. The cost functions themselves are not memoized: a factored
//! sweep plan already prices each distinct cell once per sweep, so a
//! process-global table under it would mostly miss and only grow.
//!
//! # Concurrency design
//!
//! A lookup goes through two tiers:
//!
//! 1. **Lock-striped shards** — the shared table is split across
//!    [`SHARDS`] independent `RwLock<HashMap>` stripes keyed by the
//!    key's hash, so writers on different keys almost never contend.
//!    Each stripe counts its own finished entries under its own lock,
//!    so a miss touches exactly one stripe and the resident count stays
//!    exact: [`MemoCache::stats`] sums [`SHARDS`] counters.
//! 2. **In-flight dedupe** — a miss installs a `Pending` slot before
//!    computing, and later lookups of the same key *wait* on that slot
//!    instead of re-running the compute function: two workers never
//!    compute the same key concurrently. If the computing thread
//!    panics, the slot is abandoned and one waiter retries the compute,
//!    so a poisoned key never wedges later lookups.
//!
//! Each cache counts hits and misses; a thread that waits on an
//! in-flight computation counts as a *hit* (it did not run the compute
//! function), so `misses` equals compute-function invocations exactly.
//! A cache made with [`MemoCache::with_metric_prefix`] publishes those
//! counters to the `twocs-obs` metrics registry (as `<prefix>.hits` /
//! `<prefix>.misses`, plus a `<prefix>.entries` gauge).

use std::collections::HashMap;
use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use twocs_obs::{Counter, Gauge};

/// Number of lock stripes per cache. A power of two so the shard index
/// is a mask of the key hash; 16 stripes keep writer collisions rare at
/// the worker counts the sweep pool uses without bloating empty caches.
pub const SHARDS: usize = 16;

/// A point-in-time snapshot of one cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the map (including lookups that waited on
    /// an in-flight computation of the same key).
    pub hits: u64,
    /// Lookups that ran the compute function. Because in-flight misses
    /// are deduplicated, this equals compute-function invocations.
    pub misses: u64,
    /// Entries currently resident. Exact: summed across all shards at
    /// snapshot time.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache; 0 when never queried.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate, {} entries)",
            self.hits,
            self.misses,
            100.0 * self.hit_rate(),
            self.entries
        )
    }
}

/// One shared-table slot: a finished value, or a computation in flight.
enum Slot<V> {
    Ready(V),
    Pending(Arc<InFlight<V>>),
}

/// Rendezvous for threads that miss on a key already being computed.
struct InFlight<V> {
    state: Mutex<FlightState<V>>,
    cv: Condvar,
}

enum FlightState<V> {
    Running,
    Done(V),
    /// The computing thread panicked; waiters must retry the lookup.
    Abandoned,
}

impl<V: Clone> InFlight<V> {
    fn new() -> Self {
        Self {
            state: Mutex::new(FlightState::Running),
            cv: Condvar::new(),
        }
    }

    /// Block until the computing thread finishes. `Some(value)` on
    /// success, `None` if it panicked (caller retries the lookup).
    fn wait(&self) -> Option<V> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match &*state {
                FlightState::Running => {
                    state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
                }
                FlightState::Done(v) => return Some(v.clone()),
                FlightState::Abandoned => return None,
            }
        }
    }

    fn finish(&self, state: FlightState<V>) {
        *self.state.lock().unwrap_or_else(PoisonError::into_inner) = state;
        self.cv.notify_all();
    }
}

/// One lock stripe of the shared table. `ready` counts the `Ready`
/// slots and only changes under the stripe's write lock, so the
/// resident count is exact without ever walking `slots`.
struct ShardMap<K, V> {
    slots: HashMap<K, Slot<V>>,
    ready: usize,
}

/// A thread-safe memo table with hit/miss accounting, lock-striped
/// shards and in-flight miss deduplication (see the module docs).
/// Designed for pure functions: same key, same value. Lock poisoning is
/// ignored (the guarded map operations cannot leave a shard
/// inconsistent), and a panicking compute function abandons its
/// in-flight slot so one waiter retries — a panicking sweep worker never
/// wedges later lookups.
pub struct MemoCache<K, V> {
    shards: Box<[RwLock<ShardMap<K, V>>]>,
    hits: Counter,
    misses: Counter,
    /// Resident-entry gauge mirror (detached unless the cache publishes),
    /// adjusted by the same deltas as the shards' `ready` counts.
    entries_gauge: Gauge,
}

/// Outcome of a shared-table probe.
enum Probe<V> {
    Hit(V),
    Wait(Arc<InFlight<V>>),
    Compute(Arc<InFlight<V>>),
}

impl<K, V> MemoCache<K, V>
where
    K: Eq + Hash + Clone,
    V: Clone,
{
    fn with_counters(hits: Counter, misses: Counter, entries_gauge: Gauge) -> Self {
        Self {
            shards: (0..SHARDS)
                .map(|_| {
                    RwLock::new(ShardMap {
                        slots: HashMap::new(),
                        ready: 0,
                    })
                })
                .collect(),
            hits,
            misses,
            entries_gauge,
        }
    }

    /// Create an empty cache with detached (unpublished) counters.
    #[must_use]
    pub fn new() -> Self {
        Self::with_counters(Counter::detached(), Counter::detached(), Gauge::detached())
    }

    /// Create an empty cache whose counters are registered in the global
    /// `twocs-obs` metrics registry as `<prefix>.hits` /
    /// `<prefix>.misses` plus a `<prefix>.entries` gauge, so `--metrics`
    /// reports its hit rate and size (the serve response cache publishes
    /// `serve.cache.*`).
    #[must_use]
    pub fn with_metric_prefix(prefix: &str) -> Self {
        let registry = twocs_obs::metrics::global();
        Self::with_counters(
            registry.counter(&format!("{prefix}.hits")),
            registry.counter(&format!("{prefix}.misses")),
            registry.gauge(&format!("{prefix}.entries")),
        )
    }

    fn shard(&self, key: &K) -> &RwLock<ShardMap<K, V>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) & (SHARDS - 1)]
    }

    /// One shared-table round: hit, join an in-flight computation, or
    /// claim the key by installing a `Pending` slot.
    fn probe(&self, key: &K) -> Probe<V> {
        let shard = self.shard(key);
        {
            let map = shard.read().unwrap_or_else(PoisonError::into_inner);
            match map.slots.get(key) {
                Some(Slot::Ready(v)) => return Probe::Hit(v.clone()),
                Some(Slot::Pending(flight)) => return Probe::Wait(Arc::clone(flight)),
                None => {}
            }
        }
        let mut map = shard.write().unwrap_or_else(PoisonError::into_inner);
        match map.slots.get(key) {
            Some(Slot::Ready(v)) => Probe::Hit(v.clone()),
            Some(Slot::Pending(flight)) => Probe::Wait(Arc::clone(flight)),
            None => {
                let flight = Arc::new(InFlight::new());
                map.slots
                    .insert(key.clone(), Slot::Pending(Arc::clone(&flight)));
                Probe::Compute(flight)
            }
        }
    }

    /// Record a hit on this cache.
    fn hit(&self, value: V) -> V {
        self.hits.inc();
        value
    }

    /// Replace our `Pending` slot with the finished value, count it
    /// resident if it is new, and wake waiters.
    fn publish(&self, key: K, flight: &InFlight<V>, value: V) {
        {
            let mut map = self
                .shard(&key)
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            let prev = map.slots.insert(key, Slot::Ready(value.clone()));
            if !matches!(prev, Some(Slot::Ready(_))) {
                map.ready += 1;
                self.entries_gauge.add(1.0);
            }
        }
        flight.finish(FlightState::Done(value));
    }

    /// Return the cached value for `key`, computing it with `compute` on
    /// a miss. `compute` runs outside all locks, and concurrent misses
    /// on the same key run it exactly once — the losers block until the
    /// winner publishes and then count as hits.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        // FnOnce in a retry loop: consumed at most once, because after
        // this thread computes it either returns or unwinds.
        let mut compute = Some(compute);
        loop {
            let flight = match self.probe(&key) {
                Probe::Hit(v) => return self.hit(v),
                Probe::Wait(flight) => match flight.wait() {
                    Some(v) => return self.hit(v),
                    // The computing thread panicked; retry — we may
                    // become the new computer.
                    None => continue,
                },
                Probe::Compute(flight) => flight,
            };
            self.misses.inc();
            let guard = AbandonOnUnwind {
                cache: self,
                key: &key,
                flight: &flight,
            };
            let value = (compute.take().expect("compute claimed twice"))();
            std::mem::forget(guard);
            self.publish(key, &flight, value.clone());
            return value;
        }
    }

    /// Current counters. `entries` is exact at snapshot time: the sum of
    /// the shards' resident counts (in-flight `Pending` slots are not yet
    /// resident), one read-lock per shard.
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .shards
            .iter()
            .map(|shard| shard.read().unwrap_or_else(PoisonError::into_inner).ready)
            .sum();
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            entries,
        }
    }

    /// Drop all entries and zero the counters (for tests and benchmarks
    /// that need cold-cache numbers).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut map = shard.write().unwrap_or_else(PoisonError::into_inner);
            map.slots.clear();
            self.entries_gauge.add(-(map.ready as f64));
            map.ready = 0;
        }
        self.hits.reset();
        self.misses.reset();
    }
}

/// Unwind guard armed while a claimed compute function runs: on panic it
/// removes the `Pending` slot (so a retry can claim the key) and marks
/// the flight abandoned so waiters wake up and retry instead of blocking
/// forever. Disarmed with `mem::forget` on success.
struct AbandonOnUnwind<'a, K, V>
where
    K: Eq + Hash + Clone,
    V: Clone,
{
    cache: &'a MemoCache<K, V>,
    key: &'a K,
    flight: &'a Arc<InFlight<V>>,
}

impl<K, V> Drop for AbandonOnUnwind<'_, K, V>
where
    K: Eq + Hash + Clone,
    V: Clone,
{
    fn drop(&mut self) {
        {
            let mut map = self
                .cache
                .shard(self.key)
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(Slot::Pending(p)) = map.slots.get(self.key) {
                if Arc::ptr_eq(p, self.flight) {
                    map.slots.remove(self.key);
                }
            }
        }
        self.flight.finish(FlightState::Abandoned);
    }
}

impl<K, V> Default for MemoCache<K, V>
where
    K: Eq + Hash + Clone,
    V: Clone,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> fmt::Debug for MemoCache<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoCache")
            .field("hits", &self.hits.get())
            .field("misses", &self.misses.get())
            .finish_non_exhaustive()
    }
}

/// Formerly emptied the process-global GEMM-time memo cache, which is
/// gone: `DeviceSpec::gemm_time` computes directly. Kept as a no-op only
/// because the `perfbench/` harness still calls it; it goes once that
/// harness drops the call.
#[doc(hidden)]
pub fn clear_gemm_time_cache() {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn hit_and_miss_accounting() {
        let cache: MemoCache<u64, u64> = MemoCache::new();
        assert_eq!(cache.get_or_insert_with(1, || 10), 10);
        assert_eq!(cache.get_or_insert_with(1, || 99), 10);
        assert_eq!(cache.get_or_insert_with(2, || 20), 20);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 2));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn clear_resets_everything() {
        let cache: MemoCache<u64, u64> = MemoCache::new();
        let _ = cache.get_or_insert_with(1, || 1);
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
    }

    #[test]
    fn clear_invalidates_thread_local_l1() {
        let cache: MemoCache<u64, u64> = MemoCache::new();
        assert_eq!(cache.get_or_insert_with(1, || 10), 10);
        assert_eq!(cache.get_or_insert_with(1, || 99), 10);
        cache.clear();
        // A stale L1 copy must not survive the clear.
        assert_eq!(cache.get_or_insert_with(1, || 42), 42);
    }

    #[test]
    fn concurrent_lookups_agree() {
        let cache: MemoCache<u64, u64> = MemoCache::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for k in 0..100u64 {
                        assert_eq!(cache.get_or_insert_with(k, move || k * 3), k * 3);
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.entries, 100);
        assert_eq!(s.hits + s.misses, 800);
        // In-flight dedupe: every key computed exactly once.
        assert_eq!(s.misses, 100);
    }

    #[test]
    fn duplicate_misses_compute_once_and_share() {
        const THREADS: usize = 8;
        let cache: MemoCache<u64, u64> = MemoCache::new();
        let invocations = AtomicUsize::new(0);
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    barrier.wait();
                    let v = cache.get_or_insert_with(7, || {
                        invocations.fetch_add(1, Ordering::SeqCst);
                        // Hold the in-flight slot open long enough that
                        // the other threads arrive while it is pending.
                        std::thread::sleep(std::time::Duration::from_millis(25));
                        777
                    });
                    assert_eq!(v, 777);
                });
            }
        });
        assert_eq!(invocations.load(Ordering::SeqCst), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (THREADS as u64 - 1, 1, 1));
    }

    #[test]
    fn panicking_compute_releases_the_key() {
        let cache: MemoCache<u64, u64> = MemoCache::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_insert_with(3, || panic!("compute failed"))
        }));
        assert!(result.is_err());
        // The abandoned slot must not wedge or poison later lookups.
        assert_eq!(cache.get_or_insert_with(3, || 30), 30);
        let s = cache.stats();
        assert_eq!((s.misses, s.entries), (2, 1));
    }

    #[test]
    fn waiters_survive_a_panicking_computer() {
        let cache: MemoCache<u64, u64> = MemoCache::new();
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_insert_with(5, || {
                        barrier.wait();
                        // Give the second thread time to park on the
                        // in-flight slot before unwinding.
                        std::thread::sleep(std::time::Duration::from_millis(25));
                        panic!("computer dies")
                    })
                }));
                assert!(result.is_err());
            });
            s.spawn(|| {
                barrier.wait();
                // Whether this waits on the doomed flight or claims the
                // key after the abandon, it must come back with a value.
                assert_eq!(cache.get_or_insert_with(5, || 50), 50);
            });
        });
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn named_cache_publishes_metrics() {
        let cache: MemoCache<u64, u64> = MemoCache::with_metric_prefix("test.named");
        let _ = cache.get_or_insert_with(1, || 1);
        let _ = cache.get_or_insert_with(1, || 1);
        let reg = twocs_obs::metrics::global();
        assert_eq!(reg.counter("test.named.hits").get(), 1);
        assert_eq!(reg.counter("test.named.misses").get(), 1);
    }

    #[test]
    fn named_cache_publishes_entries_gauge() {
        let cache: MemoCache<u64, u64> = MemoCache::with_metric_prefix("test.entries");
        let _ = cache.get_or_insert_with(1, || 1);
        let _ = cache.get_or_insert_with(2, || 2);
        let reg = twocs_obs::metrics::global();
        assert_eq!(reg.gauge("test.entries.entries").get(), 2.0);
        cache.clear();
        assert_eq!(reg.gauge("test.entries.entries").get(), 0.0);
    }

    #[test]
    fn caches_do_not_share_l1_tables() {
        let a: MemoCache<u64, u64> = MemoCache::new();
        let b: MemoCache<u64, u64> = MemoCache::new();
        assert_eq!(a.get_or_insert_with(1, || 10), 10);
        // Same key, different cache: must compute its own value.
        assert_eq!(b.get_or_insert_with(1, || 20), 20);
        assert_eq!(b.stats().misses, 1);
    }

    #[test]
    fn display_formats_rate() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            entries: 1,
        };
        let text = s.to_string();
        assert!(text.contains("75.0%"), "{text}");
    }
}
