//! Property test for the sharded memo cache: hammer one cache from N
//! threads with overlapping random key sets and check the accounting
//! invariants the sweep summaries rely on:
//!
//! - every lookup is counted exactly once (`hits + misses == lookups`),
//!   including lookups whose compute function panicked,
//! - in-flight dedupe means every distinct key is computed exactly once,
//!   except that a seeded subset of keys panics on its first compute and
//!   is then computed once more if any other lookup asks for it
//!   (`misses == compute-fn invocations`),
//! - `CacheStats::entries` and the published `<prefix>.entries` gauge are
//!   exact (one resident entry per key that produced a value), and both
//!   drop to 0 on `clear()`,
//! - every thread observes the canonical value for every key.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use twocs_hw::MemoCache;
use twocs_testkit::cases;

#[test]
fn sharded_cache_accounting_is_exact_under_contention() {
    let mut case = 0;
    cases(24, |rng| {
        case += 1;
        let threads = rng.usize_in(2..9);
        let key_space = rng.u64_in(1..65);
        let lookups_per_thread = rng.usize_in(10..200);
        // One invocation counter per possible key, indexed directly.
        let invocations: Vec<AtomicU64> = (0..key_space).map(|_| AtomicU64::new(0)).collect();
        // Keys whose first compute panics, abandoning the in-flight slot.
        let panicky: Vec<bool> = (0..key_space).map(|_| rng.u32_in(0..4) == 0).collect();
        let prefix = format!("test.cache_concurrency.case{case}");
        let cache: MemoCache<u64, u64> = MemoCache::with_metric_prefix(&prefix);
        let barrier = Barrier::new(threads);

        // Pre-draw each thread's key sequence so the property is
        // deterministic per seed (thread interleaving varies, the
        // invariants must not).
        let sequences: Vec<Vec<u64>> = (0..threads)
            .map(|_| {
                (0..lookups_per_thread)
                    .map(|_| rng.u64_in(0..key_space))
                    .collect()
            })
            .collect();
        let mut lookups_of: HashMap<u64, usize> = HashMap::new();
        for &k in sequences.iter().flatten() {
            *lookups_of.entry(k).or_default() += 1;
        }
        let total_lookups = (threads * lookups_per_thread) as u64;

        std::thread::scope(|s| {
            for seq in &sequences {
                let (cache, invocations, panicky, barrier) =
                    (&cache, &invocations, &panicky, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for &k in seq {
                        let looked_up = catch_unwind(AssertUnwindSafe(|| {
                            cache.get_or_insert_with(k, || {
                                let first =
                                    invocations[k as usize].fetch_add(1, Ordering::SeqCst) == 0;
                                if first && panicky[k as usize] {
                                    panic!("first compute of key {k} fails");
                                }
                                k.wrapping_mul(2654435761)
                            })
                        }));
                        match looked_up {
                            Ok(v) => assert_eq!(v, k.wrapping_mul(2654435761)),
                            Err(_) => assert!(panicky[k as usize], "key {k} must not panic"),
                        }
                    }
                });
            }
        });

        // A panicky key runs its compute twice if anything else asked
        // for it, and stays absent if its one lookup was the panic.
        let expected_invocations = |k: u64| -> u64 {
            match lookups_of.get(&k) {
                None => 0,
                Some(&n) if panicky[k as usize] => n.min(2) as u64,
                Some(_) => 1,
            }
        };
        let resident: HashSet<u64> = lookups_of
            .keys()
            .copied()
            .filter(|&k| !panicky[k as usize] || lookups_of[&k] > 1)
            .collect();

        let stats = cache.stats();
        let gauge = twocs_obs::metrics::global().gauge(&format!("{prefix}.entries"));
        assert_eq!(
            stats.hits + stats.misses,
            total_lookups,
            "every lookup counted exactly once"
        );
        assert_eq!(
            stats.misses,
            (0..key_space).map(expected_invocations).sum::<u64>(),
            "one miss per compute-fn invocation"
        );
        assert_eq!(
            stats.entries,
            resident.len(),
            "entries exact under sharding"
        );
        assert_eq!(gauge.get(), resident.len() as f64, "entries gauge agrees");
        for (k, count) in invocations.iter().enumerate() {
            assert_eq!(
                count.load(Ordering::SeqCst),
                expected_invocations(k as u64),
                "key {k} computed once (twice if its first compute panicked)"
            );
        }

        cache.clear();
        assert_eq!(cache.stats().entries, 0, "clear empties every shard");
        assert_eq!(gauge.get(), 0.0, "clear zeroes the entries gauge");
    });
}
