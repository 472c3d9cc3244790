use super::*;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Duration;
use twocs_testkit::cases;

fn key(k: u64) -> Vec<u8> {
    k.to_le_bytes().to_vec()
}

fn body(text: &str) -> Response {
    Response::text(200, text)
}

#[test]
fn cache_computes_once_per_key() {
    let cache = ResponseCache::detached();
    let mut computes = 0;
    for _ in 0..3 {
        let r = cache.get_or_compute(b"k".to_vec(), || {
            computes += 1;
            body("body")
        });
        assert_eq!(r.body, "body");
    }
    assert_eq!(
        cache.get_or_compute(b"j".to_vec(), || body("other")).body,
        "other"
    );
    assert_eq!(computes, 1);
    assert_eq!(cache.stats(), (2, 2, 2));
    assert_eq!(cache.entries.get(), 2.0);
}

#[test]
fn peek_answers_only_finished_keys_and_counts_only_hits() {
    let cache = ResponseCache::detached();
    assert!(cache.peek(&key(1)).is_none(), "missing key");
    let _ = cache.get_or_compute(key(1), || body("10"));
    let (computing, release) = (Barrier::new(2), Barrier::new(2));
    std::thread::scope(|s| {
        s.spawn(|| {
            cache.get_or_compute(key(2), || {
                computing.wait();
                release.wait();
                body("20")
            })
        });
        computing.wait();
        assert!(cache.peek(&key(2)).is_none(), "key in flight");
        release.wait();
    });
    assert_eq!(cache.peek(&key(1)).unwrap().body, "10");
    assert_eq!(cache.peek(&key(2)).unwrap().body, "20");
    assert_eq!(cache.stats(), (2, 2, 2));
}

#[test]
fn concurrent_misses_on_one_key_compute_once_and_share() {
    const THREADS: usize = 8;
    let cache = ResponseCache::detached();
    let invocations = AtomicUsize::new(0);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                barrier.wait();
                let r = cache.get_or_compute(key(7), || {
                    invocations.fetch_add(1, Ordering::SeqCst);
                    // Hold the key in flight long enough that the other
                    // threads arrive while it is computing.
                    std::thread::sleep(Duration::from_millis(25));
                    body("777")
                });
                assert_eq!(r.body, "777");
            });
        }
    });
    assert_eq!(invocations.load(Ordering::SeqCst), 1);
    assert_eq!(cache.stats(), (THREADS as u64 - 1, 1, 1));
}

#[test]
fn panicking_compute_releases_the_key() {
    let cache = ResponseCache::detached();
    let result = catch_unwind(AssertUnwindSafe(|| {
        cache.get_or_compute(key(3), || panic!("compute failed"))
    }));
    assert!(result.is_err());
    // The abandoned claim must not wedge or poison later lookups.
    assert_eq!(cache.get_or_compute(key(3), || body("30")).body, "30");
    assert_eq!(cache.stats(), (0, 2, 1));
}

#[test]
fn a_waiter_survives_a_panicking_computer() {
    let cache = ResponseCache::detached();
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            let result = catch_unwind(AssertUnwindSafe(|| {
                cache.get_or_compute(key(5), || {
                    barrier.wait();
                    // Give the other thread time to wait on the claim
                    // before unwinding.
                    std::thread::sleep(Duration::from_millis(25));
                    panic!("computer dies")
                })
            }));
            assert!(result.is_err());
        });
        s.spawn(|| {
            barrier.wait();
            // Whether this waits on the doomed claim or claims the key
            // after the abandon, it must come back with a body.
            assert_eq!(cache.get_or_compute(key(5), || body("50")).body, "50");
        });
    });
    assert_eq!(cache.stats(), (0, 2, 1));
}

/// Hammer one cache from N threads with overlapping random key sets and
/// check the accounting that `/v1/metrics` publishes:
///
/// - every lookup is counted exactly once (`hits + misses == lookups`),
///   including lookups whose compute function panicked,
/// - in-flight dedupe means every distinct key is computed exactly once,
///   except that a seeded subset of keys panics on its first compute and
///   is then computed once more if any other lookup asks for it
///   (`misses == compute-fn invocations`),
/// - `entries` and its gauge are exact (one finished entry per key that
///   produced a body),
/// - every thread observes the canonical body for every key.
#[test]
fn accounting_is_exact_under_contention() {
    cases(24, |rng| {
        let threads = rng.usize_in(2..9);
        let key_space = rng.u64_in(1..65);
        let lookups_per_thread = rng.usize_in(10..200);
        let invocations: Vec<AtomicU64> = (0..key_space).map(|_| AtomicU64::new(0)).collect();
        // Keys whose first compute panics, abandoning the claim.
        let panicky: Vec<bool> = (0..key_space).map(|_| rng.u32_in(0..4) == 0).collect();
        let cache = ResponseCache::detached();
        let barrier = Barrier::new(threads);
        let canonical = |k: u64| k.wrapping_mul(2_654_435_761).to_string();

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
                            cache.get_or_compute(key(k), || {
                                let first =
                                    invocations[k as usize].fetch_add(1, Ordering::SeqCst) == 0;
                                if first && panicky[k as usize] {
                                    panic!("first compute of key {k} fails");
                                }
                                body(&canonical(k))
                            })
                        }));
                        match looked_up {
                            Ok(r) => assert_eq!(r.body, canonical(k)),
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

        let (hits, misses, entries) = cache.stats();
        assert_eq!(hits + misses, total_lookups, "every lookup counted once");
        assert_eq!(
            misses,
            (0..key_space).map(expected_invocations).sum::<u64>(),
            "one miss per compute-fn invocation"
        );
        assert_eq!(entries, resident.len(), "entries exact");
        assert_eq!(
            cache.entries.get(),
            resident.len() as f64,
            "entries gauge agrees"
        );
        for (k, count) in invocations.iter().enumerate() {
            assert_eq!(
                count.load(Ordering::SeqCst),
                expected_invocations(k as u64),
                "key {k} computed once (twice if its first compute panicked)"
            );
        }
    });
}
