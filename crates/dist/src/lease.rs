//! The coordinator's chunk-lease state machine.
//!
//! Pure data structure, no I/O and no real clock: callers pass a
//! monotonic `now` in milliseconds, which is what makes every
//! interleaving of worker joins, deaths, heartbeat expiries, and
//! duplicate completions unit- and property-testable (see the
//! `every_interleaving_completes_each_chunk_exactly_once` test).
//!
//! A chunk is always in exactly one of three states:
//!
//! ```text
//! pending --lease()--> leased --complete()--> completed
//!    ^                   |
//!    +--fail_worker()----+        (also expire(now) on lease timeout)
//! ```
//!
//! Exactly-once semantics: [`LeaseTracker::complete`] accepts the
//! **first** result for a chunk and marks later copies
//! [`Completion::Duplicate`] — a reassigned chunk whose original worker
//! turns out to be alive after all merges cleanly, because every
//! evaluator computes the same pure function of the grid point.
//!
//! Cost: with credit windows hundreds of leases deep, the coordinator
//! completes, renews and refills many times per round trip, so no
//! per-result or per-tick call scans the job. The
//! `indexed_tracker_matches_the_scan_based_reference` test keeps the
//! indexed tracker equal to the original scan-based one on random
//! interleavings; a 200,000-chunk test keeps it fast.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Coordinator-assigned worker identifier.
pub type WorkerId = u64;
/// Chunk index within one sweep job.
pub type ChunkId = u32;

/// Outcome of reporting a completed chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// First result for this chunk; it was recorded.
    Accepted,
    /// The chunk was already completed (e.g. it was reassigned after a
    /// heartbeat timeout and both evaluations finished). Ignore the
    /// value — it is identical by construction.
    Duplicate,
    /// The chunk id is not part of this job; the peer is confused or
    /// stale. Callers should drop the connection.
    Unknown,
}

#[derive(Debug, Clone, Copy)]
struct Lease {
    worker: WorkerId,
    /// Deadline set when the lease was granted.
    expires_at: u64,
    /// Grant order, compared against [`Holder::renewal`].
    seq: u64,
}

impl Lease {
    /// The lease's effective deadline under its holder's latest renewal.
    fn deadline(&self, renewal: Option<(u64, u64)>) -> u64 {
        match renewal {
            Some((seq, deadline)) if self.seq < seq => deadline,
            _ => self.expires_at,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum State {
    Pending,
    Leased(Lease),
    Completed,
}

/// One worker's leases. Indexing leases by holder is what keeps
/// `outstanding`, `renew` and `fail_worker` off the whole lease table.
#[derive(Debug, Clone)]
struct Holder {
    chunks: BTreeSet<ChunkId>,
    /// The latest renewal as `(seq, deadline)`: every lease granted
    /// before sequence number `seq` expires at `deadline`, which makes a
    /// renewal O(1) however deep the window is.
    renewal: Option<(u64, u64)>,
    /// Lower bound on the earliest deadline among `chunks`; `expire`
    /// skips the holder while it lies in the future.
    floor: u64,
}

/// Tracks every chunk of one sweep job through the pending → leased →
/// completed lifecycle, with lease timeouts and reassignment.
///
/// Every per-result and per-tick operation costs O(log window) or
/// O(workers), never a scan of the whole job: a chunk's state lives in a
/// flat table, leases are indexed by worker, and a chunk completed while
/// pending leaves a stale queue entry that [`LeaseTracker::lease`] skips
/// instead of being searched out of the queue.
#[derive(Debug, Clone)]
pub struct LeaseTracker {
    state: Vec<State>,
    /// Lease order. May also hold stale ids of chunks that completed
    /// while pending (a late result for a requeued chunk, a journal
    /// resume); `lease` drops them as it reaches them.
    queue: VecDeque<ChunkId>,
    holders: BTreeMap<WorkerId, Holder>,
    pending: usize,
    leased: usize,
    completed: usize,
    next_seq: u64,
    reassigned: u64,
}

impl LeaseTracker {
    /// A tracker for chunks `0..chunks`, all pending.
    #[must_use]
    pub fn new(chunks: u32) -> Self {
        Self {
            state: vec![State::Pending; chunks as usize],
            queue: (0..chunks).collect(),
            holders: BTreeMap::new(),
            pending: chunks as usize,
            leased: 0,
            completed: 0,
            next_seq: 0,
            reassigned: 0,
        }
    }

    /// Lease the next pending chunk to `worker` until `now + ttl_ms`.
    /// Returns `None` when nothing is pending (all chunks are leased out
    /// or completed).
    pub fn lease(&mut self, worker: WorkerId, now: u64, ttl_ms: u64) -> Option<ChunkId> {
        while let Some(chunk) = self.queue.pop_front() {
            if !matches!(self.state[chunk as usize], State::Pending) {
                continue; // completed while it waited in the queue
            }
            let lease = Lease {
                worker,
                expires_at: now.saturating_add(ttl_ms),
                seq: self.next_seq,
            };
            self.next_seq += 1;
            self.state[chunk as usize] = State::Leased(lease);
            let holder = self.holders.entry(worker).or_insert_with(|| Holder {
                chunks: BTreeSet::new(),
                renewal: None,
                floor: u64::MAX,
            });
            holder.chunks.insert(chunk);
            holder.floor = holder.floor.min(lease.expires_at);
            self.pending -= 1;
            self.leased += 1;
            return Some(chunk);
        }
        None
    }

    /// Extend every lease held by `worker` to `now + ttl_ms` — the
    /// effect of receiving its heartbeat. O(log workers).
    pub fn renew(&mut self, worker: WorkerId, now: u64, ttl_ms: u64) {
        if let Some(holder) = self.holders.get_mut(&worker) {
            let deadline = now.saturating_add(ttl_ms);
            holder.renewal = Some((self.next_seq, deadline));
            holder.floor = deadline;
        }
    }

    /// Record a result for `chunk`. See [`Completion`] for the
    /// exactly-once semantics.
    pub fn complete(&mut self, chunk: ChunkId) -> Completion {
        let Some(&state) = self.state.get(chunk as usize) else {
            return Completion::Unknown;
        };
        match state {
            State::Completed => return Completion::Duplicate,
            State::Leased(lease) => {
                self.leased -= 1;
                if let Some(holder) = self.holders.get_mut(&lease.worker) {
                    holder.chunks.remove(&chunk);
                    if holder.chunks.is_empty() {
                        self.holders.remove(&lease.worker);
                    }
                }
            }
            // A completion can also race a requeue: the chunk timed out,
            // went back to pending, and then the original result arrived.
            // Accept it; its queue entry goes stale.
            State::Pending => self.pending -= 1,
        }
        self.state[chunk as usize] = State::Completed;
        self.completed += 1;
        Completion::Accepted
    }

    /// Return every chunk leased to `worker` to the pending queue — the
    /// effect of its connection dropping. Returns the requeued chunks in
    /// ascending order.
    pub fn fail_worker(&mut self, worker: WorkerId) -> Vec<ChunkId> {
        let lost: Vec<ChunkId> = self
            .holders
            .remove(&worker)
            .map(|h| h.chunks.into_iter().collect())
            .unwrap_or_default();
        self.requeue(&lost);
        lost
    }

    /// Return every lease that expired at or before `now` to the pending
    /// queue — the effect of missed heartbeats. Returns the requeued
    /// chunks in ascending order. Only workers whose earliest deadline
    /// has passed are examined.
    pub fn expire(&mut self, now: u64) -> Vec<ChunkId> {
        let mut lost = Vec::new();
        let state = &self.state;
        for holder in self.holders.values_mut().filter(|h| h.floor <= now) {
            let renewal = holder.renewal;
            let mut floor = u64::MAX;
            holder.chunks.retain(|&c| {
                let State::Leased(lease) = state[c as usize] else {
                    unreachable!("holder index out of sync for chunk {c}")
                };
                let deadline = lease.deadline(renewal);
                if deadline <= now {
                    lost.push(c);
                    false
                } else {
                    floor = floor.min(deadline);
                    true
                }
            });
            holder.floor = floor;
        }
        if !lost.is_empty() {
            self.holders.retain(|_, h| !h.chunks.is_empty());
            lost.sort_unstable();
            self.requeue(&lost);
        }
        lost
    }

    /// Move chunks already dropped from their holder back to pending.
    fn requeue(&mut self, chunks: &[ChunkId]) {
        for &c in chunks {
            self.state[c as usize] = State::Pending;
            self.queue.push_back(c);
            self.leased -= 1;
            self.pending += 1;
            self.reassigned += 1;
        }
    }

    /// Whether every chunk has completed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.completed == self.state.len()
    }

    /// Chunks waiting for a lease.
    #[must_use]
    pub fn pending_count(&self) -> usize {
        self.pending
    }

    /// Chunks currently leased out.
    #[must_use]
    pub fn leased_count(&self) -> usize {
        self.leased
    }

    /// Chunks currently leased to `worker` — its outstanding credit
    /// window. The coordinator grants `window - outstanding(w)` fresh
    /// chunks whenever this dips below the window size.
    #[must_use]
    pub fn outstanding(&self, worker: WorkerId) -> usize {
        self.holders.get(&worker).map_or(0, |h| h.chunks.len())
    }

    /// Chunks completed so far.
    #[must_use]
    pub fn completed_count(&self) -> usize {
        self.completed
    }

    /// Total chunks in the job.
    #[must_use]
    pub fn total(&self) -> u32 {
        self.state.len() as u32
    }

    /// How many times a chunk went back to pending after a failure or
    /// lease expiry.
    #[must_use]
    pub fn reassigned(&self) -> u64 {
        self.reassigned
    }

    /// Internal consistency: the pending queue, the per-worker index and
    /// the counters all agree with the per-chunk states, so the three
    /// states partition `0..total`. A full scan, for tests only.
    #[must_use]
    pub fn is_partition(&self) -> bool {
        let mut queued = vec![false; self.state.len()];
        for &c in &self.queue {
            match self.state.get(c as usize) {
                Some(State::Pending) if !queued[c as usize] => queued[c as usize] = true,
                Some(State::Completed) => {}
                _ => return false,
            }
        }
        let mut held = 0;
        for (&worker, holder) in &self.holders {
            if holder.chunks.is_empty() {
                return false;
            }
            for &c in &holder.chunks {
                match self.state.get(c as usize) {
                    Some(State::Leased(l)) if l.worker == worker => held += 1,
                    _ => return false,
                }
            }
        }
        let count = |f: fn(&State) -> bool| self.state.iter().filter(|s| f(s)).count();
        self.pending == count(|s| matches!(s, State::Pending))
            && self.pending == queued.iter().filter(|&&q| q).count()
            && self.leased == held
            && self.leased == count(|s| matches!(s, State::Leased(_)))
            && self.completed == count(|s| matches!(s, State::Completed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every leased chunk id, ascending.
    fn leased_ids(t: &LeaseTracker) -> Vec<ChunkId> {
        let mut ids: Vec<ChunkId> = t
            .holders
            .values()
            .flat_map(|h| h.chunks.iter().copied())
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn happy_path_completes_every_chunk_once() {
        let mut t = LeaseTracker::new(4);
        let mut done = 0;
        while let Some(c) = t.lease(1, 0, 1000) {
            assert_eq!(t.complete(c), Completion::Accepted);
            done += 1;
        }
        assert_eq!(done, 4);
        assert!(t.is_complete());
        assert_eq!(t.reassigned(), 0);
        assert!(t.is_partition());
    }

    #[test]
    fn dead_worker_chunks_are_requeued_and_recoverable() {
        let mut t = LeaseTracker::new(3);
        let a = t.lease(1, 0, 1000).unwrap();
        let b = t.lease(1, 0, 1000).unwrap();
        let c = t.lease(2, 0, 1000).unwrap();
        let mut lost = t.fail_worker(1);
        lost.sort_unstable();
        assert_eq!(lost, {
            let mut v = vec![a, b];
            v.sort_unstable();
            v
        });
        assert_eq!(t.reassigned(), 2);
        assert_eq!(t.pending_count(), 2);
        // Worker 2 finishes its chunk and then drains the requeued work.
        assert_eq!(t.complete(c), Completion::Accepted);
        while let Some(x) = t.lease(2, 1, 1000) {
            assert_eq!(t.complete(x), Completion::Accepted);
        }
        assert!(t.is_complete());
        assert!(t.is_partition());
    }

    #[test]
    fn expiry_requeues_only_overdue_leases() {
        let mut t = LeaseTracker::new(2);
        let a = t.lease(1, 0, 100).unwrap();
        let b = t.lease(2, 0, 500).unwrap();
        assert!(t.expire(50).is_empty());
        assert_eq!(t.expire(100), vec![a]);
        assert_eq!(t.leased_count(), 1);
        // Renewal pushes worker 2's deadline out.
        t.renew(2, 400, 500);
        assert!(t.expire(600).is_empty());
        assert_eq!(t.expire(900), vec![b]);
        assert!(t.is_partition());
    }

    #[test]
    fn duplicate_and_unknown_completions_are_flagged() {
        let mut t = LeaseTracker::new(1);
        let a = t.lease(1, 0, 100).unwrap();
        // Lease times out, chunk is reassigned to worker 2...
        assert_eq!(t.expire(200), vec![a]);
        let a2 = t.lease(2, 200, 100).unwrap();
        assert_eq!(a2, a);
        // ...worker 2 finishes, then worker 1's zombie result arrives.
        assert_eq!(t.complete(a), Completion::Accepted);
        assert_eq!(t.complete(a), Completion::Duplicate);
        assert_eq!(t.complete(99), Completion::Unknown);
        assert!(t.is_partition());
    }

    /// The satellite property test: drive the tracker with a random
    /// interleaving of leases, completions, worker deaths, joins,
    /// renewals, and clock-driven expiries. Whatever the order, the run
    /// terminates with every chunk completed exactly once and the
    /// three-state partition invariant intact.
    #[test]
    fn every_interleaving_completes_each_chunk_exactly_once() {
        twocs_testkit::cases(128, |rng| {
            let total = rng.u32_in(1..24);
            let ttl = rng.u64_in(1..50);
            let mut t = LeaseTracker::new(total);
            let mut now = 0u64;
            let mut workers: Vec<WorkerId> = (1..=rng.u64_in(1..5)).collect();
            let mut next_worker = workers.len() as WorkerId + 1;
            let mut accepted = std::collections::BTreeMap::<ChunkId, u32>::new();

            let mut steps = 0u32;
            while !t.is_complete() {
                steps += 1;
                assert!(steps < 100_000, "interleaving failed to converge");
                now += rng.u64_in(0..20);
                match rng.u32_in(0..10) {
                    // Lease to a live worker (or revive the pool).
                    0..=4 => {
                        if workers.is_empty() {
                            workers.push(next_worker);
                            next_worker += 1;
                        }
                        let w = *rng.choose(&workers);
                        let _ = t.lease(w, now, ttl);
                    }
                    // Complete a currently leased chunk...
                    5 | 6 => {
                        if let Some(c) = leased_ids(&t).first().copied() {
                            if t.complete(c) == Completion::Accepted {
                                *accepted.entry(c).or_insert(0) += 1;
                            }
                        }
                    }
                    // ...or a random chunk id: duplicates of finished
                    // chunks and bogus ids must be flagged, a pending
                    // chunk's late result must be accepted.
                    7 => {
                        let c = rng.u32_in(0..total + 5);
                        match t.complete(c) {
                            Completion::Accepted => {
                                *accepted.entry(c).or_insert(0) += 1;
                            }
                            Completion::Duplicate => assert!(accepted.contains_key(&c)),
                            Completion::Unknown => assert!(c >= total),
                        }
                    }
                    // A worker dies; a fresh one joins to replace it.
                    8 => {
                        if let Some(i) =
                            (!workers.is_empty()).then(|| rng.usize_in(0..workers.len()))
                        {
                            let dead = workers.swap_remove(i);
                            let lost = t.fail_worker(dead);
                            assert!(lost
                                .iter()
                                .all(|&c| !matches!(t.state[c as usize], State::Completed)));
                            workers.push(next_worker);
                            next_worker += 1;
                        }
                    }
                    // Heartbeats renew, silence expires.
                    _ => {
                        if rng.bool() {
                            if let Some(&w) = workers.first() {
                                t.renew(w, now, ttl);
                            }
                        } else {
                            let _ = t.expire(now);
                        }
                    }
                }
                assert!(t.is_partition(), "partition broken at now={now}");
            }

            assert_eq!(accepted.len() as u32, total, "every chunk completed");
            assert!(
                accepted.values().all(|&n| n == 1),
                "no chunk accepted twice"
            );
            assert!(accepted.keys().all(|&c| c < total));
        });
    }

    /// Pipelining satellite property: workers hold multi-chunk credit
    /// windows, result/death events arrive in a shuffled interleaving,
    /// and a death must drain the victim's **entire** outstanding window
    /// back to pending exactly once — no chunk lost, none double-queued,
    /// survivors' leases untouched.
    #[test]
    fn requeue_on_death_drains_the_full_outstanding_window_exactly_once() {
        twocs_testkit::cases(128, |rng| {
            let total = rng.u32_in(8..48);
            let pipeline = rng.usize_in(1..7);
            let n_workers = rng.u64_in(2..5);
            let mut t = LeaseTracker::new(total);
            let mut live: Vec<WorkerId> = (1..=n_workers).collect();
            let mut next_worker = n_workers + 1;

            // Top every worker up to its credit window, then run a
            // shuffled schedule of completions and deaths, refilling
            // windows after each event like the coordinator's tick does.
            loop {
                for &w in &live {
                    while t.outstanding(w) < pipeline && t.lease(w, 0, u64::MAX).is_some() {}
                }
                if t.is_complete() {
                    break;
                }
                // Shuffle the live set so the victim/finisher varies.
                live = {
                    let mut l = live.clone();
                    rng.shuffle(&mut l);
                    l
                };
                if rng.u32_in(0..4) == 0 && live.len() > 1 {
                    let victim = live.pop().unwrap();
                    let window = t.outstanding(victim);
                    let before_pending = t.pending_count();
                    let survivors_before: usize = live.iter().map(|&w| t.outstanding(w)).sum();
                    let lost = t.fail_worker(victim);
                    assert_eq!(lost.len(), window, "whole window requeued");
                    assert_eq!(
                        t.pending_count(),
                        before_pending + window,
                        "each lost chunk pending exactly once"
                    );
                    assert_eq!(t.outstanding(victim), 0);
                    assert_eq!(
                        live.iter().map(|&w| t.outstanding(w)).sum::<usize>(),
                        survivors_before,
                        "survivors' leases untouched"
                    );
                    // A second failure of the same worker is a no-op.
                    assert!(t.fail_worker(victim).is_empty());
                    live.push(next_worker);
                    next_worker += 1;
                } else if let Some(&w) = live.first() {
                    // The worker finishes the oldest chunk of its window.
                    if let Some(&c) = t.holders.get(&w).and_then(|h| h.chunks.first()) {
                        assert_eq!(t.complete(c), Completion::Accepted);
                    }
                }
                assert!(t.is_partition());
            }
            assert_eq!(t.completed_count() as u32, total);
            assert!(t.is_partition());
        });
    }

    #[test]
    fn late_result_for_a_requeued_chunk_is_accepted_and_dequeued() {
        let mut t = LeaseTracker::new(1);
        let a = t.lease(1, 0, 100).unwrap();
        assert_eq!(t.expire(100), vec![a]);
        assert_eq!(t.pending_count(), 1);
        // The original worker was merely slow; its result arrives while
        // the chunk sits in the pending queue.
        assert_eq!(t.complete(a), Completion::Accepted);
        assert_eq!(t.pending_count(), 0, "pending copy must be dropped");
        assert!(t.is_complete());
        assert!(t.is_partition());
    }

    /// The scan-based tracker this module used to be: every operation
    /// walks the whole lease table or pending queue. Kept as the
    /// reference model for the indexed tracker.
    struct Reference {
        pending: VecDeque<ChunkId>,
        leased: BTreeMap<ChunkId, (WorkerId, u64)>,
        completed: BTreeSet<ChunkId>,
        total: u32,
    }

    impl Reference {
        fn new(total: u32) -> Self {
            Self {
                pending: (0..total).collect(),
                leased: BTreeMap::new(),
                completed: BTreeSet::new(),
                total,
            }
        }

        fn lease(&mut self, worker: WorkerId, now: u64, ttl: u64) -> Option<ChunkId> {
            let chunk = self.pending.pop_front()?;
            self.leased.insert(chunk, (worker, now.saturating_add(ttl)));
            Some(chunk)
        }

        fn renew(&mut self, worker: WorkerId, now: u64, ttl: u64) {
            for lease in self.leased.values_mut().filter(|l| l.0 == worker) {
                lease.1 = now.saturating_add(ttl);
            }
        }

        fn complete(&mut self, chunk: ChunkId) -> Completion {
            if chunk >= self.total {
                return Completion::Unknown;
            }
            if !self.completed.insert(chunk) {
                return Completion::Duplicate;
            }
            self.leased.remove(&chunk);
            self.pending.retain(|&c| c != chunk);
            Completion::Accepted
        }

        fn take(&mut self, lost: impl Fn(&(WorkerId, u64)) -> bool) -> Vec<ChunkId> {
            let chunks: Vec<ChunkId> = self
                .leased
                .iter()
                .filter(|(_, l)| lost(l))
                .map(|(&c, _)| c)
                .collect();
            for c in &chunks {
                self.leased.remove(c);
                self.pending.push_back(*c);
            }
            chunks
        }

        fn outstanding(&self, worker: WorkerId) -> usize {
            self.leased.values().filter(|l| l.0 == worker).count()
        }
    }

    /// Random interleavings of every tracker operation, across up to 8
    /// workers holding windows of up to 1,024 leases, must agree with the
    /// scan-based reference on every return value and count, with the
    /// partition invariant intact after each step. The lease clock is
    /// monotonic and each case uses one TTL, the coordinator's contract.
    #[test]
    fn indexed_tracker_matches_the_scan_based_reference() {
        twocs_testkit::cases(32, |rng| {
            let total = rng.u32_in(1..2048);
            let window = rng.usize_in(1..1025);
            let workers = rng.u64_in(1..9);
            let ttl = rng.u64_in(1..60);
            let mut t = LeaseTracker::new(total);
            let mut r = Reference::new(total);
            let mut now = 0u64;
            for _ in 0..600 {
                now += rng.u64_in(0..8);
                let w = rng.u64_in(1..workers + 1);
                match rng.u32_in(0..12) {
                    0..=2 => {
                        let want = rng.usize_in(1..window + 1);
                        for _ in r.outstanding(w)..want {
                            let got = t.lease(w, now, ttl);
                            assert_eq!(got, r.lease(w, now, ttl));
                            if got.is_none() {
                                break;
                            }
                        }
                    }
                    3..=5 => {
                        let held = r.leased.len();
                        if held > 0 {
                            let c = *r.leased.keys().nth(rng.usize_in(0..held)).unwrap();
                            assert_eq!(t.complete(c), r.complete(c));
                        }
                    }
                    6 => {
                        let c = rng.u32_in(0..total + 3);
                        assert_eq!(t.complete(c), r.complete(c));
                    }
                    7 | 8 => {
                        t.renew(w, now, ttl);
                        r.renew(w, now, ttl);
                    }
                    9 | 10 => assert_eq!(t.expire(now), r.take(|l| l.1 <= now)),
                    _ => assert_eq!(t.fail_worker(w), r.take(|l| l.0 == w)),
                }
                assert!(t.is_partition(), "partition broken at now={now}");
                assert_eq!(t.pending_count(), r.pending.len());
                assert_eq!(t.leased_count(), r.leased.len());
                assert_eq!(t.completed_count(), r.completed.len());
                assert_eq!(t.is_complete(), r.completed.len() as u32 == total);
                assert_eq!(t.outstanding(w), r.outstanding(w));
            }
            for w in 1..=workers {
                assert_eq!(t.outstanding(w), r.outstanding(w));
            }
        });
    }

    /// Lease and complete 200,000 chunks in windows of 512, renewing on
    /// every result and expiring after every window the way the
    /// coordinator does. A per-result scan of the pending queue or lease
    /// table makes this quadratic (minutes); the indexed tracker takes a
    /// fraction of a second even unoptimized.
    #[test]
    fn two_hundred_thousand_chunks_in_deep_windows_stay_fast() {
        let start = std::time::Instant::now();
        let total = 200_000;
        let mut t = LeaseTracker::new(total);
        let mut window = Vec::with_capacity(512);
        let mut now = 0u64;
        let mut round = 0u64;
        while !t.is_complete() {
            now += 1;
            round += 1;
            let worker = 1 + round % 2;
            window.clear();
            while window.len() < 512 {
                match t.lease(worker, now, 1_000) {
                    Some(c) => window.push(c),
                    None => break,
                }
            }
            if round.is_multiple_of(50) {
                // A worker dies holding its whole window.
                assert_eq!(t.fail_worker(worker), window);
                continue;
            }
            // Results arrive out of grant order.
            window.reverse();
            for &c in &window {
                t.renew(worker, now, 1_000);
                assert_eq!(t.complete(c), Completion::Accepted);
                assert!(t.outstanding(worker) < 512);
            }
            assert!(t.expire(now).is_empty());
        }
        assert_eq!(t.completed_count(), total as usize);
        assert!(t.reassigned() > 0);
        assert!(t.is_partition());
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "200,000 chunks took {elapsed:?}"
        );
    }
}
