//! The sweep coordinator: accepts worker registrations over TCP, shards
//! a [`GridSweep`] into leased chunks, and merges results back in
//! deterministic grid order.
//!
//! ## Threads
//!
//! * **Driver** — ONE thread for the whole fabric, built on the
//!   nonblocking `poll(2)` readiness loop from `twocs_serve::poll` (the
//!   same primitive the HTTP front end multiplexes hundreds of
//!   keep-alive connections on). It accepts registrations, runs a small
//!   per-worker state machine over each connection's read/write halves,
//!   and — the push model — keeps every worker topped up with a
//!   **credit window** of outstanding chunk leases, granting refills the
//!   moment results or expiries free credits. Each connection sizes its
//!   own window from the round trip and completion rate it measures
//!   ([`crate::window`]) unless [`CoordinatorConfig::pipeline`] pins it.
//!   64 workers are 64 pollfds, not 64 threads, and an idle worker costs
//!   nothing (no `Ready`/`Wait` chatter).
//! * **Submitter** — the thread inside [`Coordinator::run_sweep_streaming`]
//!   (the [`GridExecutor`] impl, which `twocs_store::run` drives for every
//!   `--listen` sweep; [`Coordinator::run_sweep`] files its chunks into a
//!   table for tests and benches): posts the job, hands every
//!   accepted chunk to its caller, and **drains chunks locally whenever
//!   no worker is connected**, which is both the
//!   `--min-workers` degrade path and the guarantee that a sweep
//!   terminates even if every worker dies.
//!
//! Accepted chunks travel from driver to submitter through one delivery
//! queue on the job. The driver wakes the submitter once per loop
//! iteration that accepted a chunk and stops granting while the queue
//! holds `BACKLOG_HIGH_WATER` (256) chunks or more — that backpressure
//! keeps coordinator RSS flat on million-point grids. A submitter that
//! drains a queue that full kicks the driver, so granting resumes at
//! once instead of on the next poll timeout. Cross-thread
//! kicks go through the poller's self-pipe [`Waker`]: posting a job wakes
//! the driver too, so the first grants leave immediately, not on the
//! next tick.
//!
//! ## Failure model
//!
//! A worker is presumed dead when its connection drops, when it stays
//! silent past the lease TTL (missed heartbeats), or when it refuses a
//! lease. In every case its **entire outstanding window** returns to the
//! pending queue ([`LeaseTracker::fail_worker`]) and the next refill
//! tick routes those chunks to surviving workers — or the local drain.
//! Duplicate results from resurrected workers are ignored; chunk values
//! are pure functions of the grid point, so whichever copy lands first
//! produces identical bytes, and the merged output stays byte-identical
//! to a local run under any kill/retry interleaving.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::io::{self, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::lease::{ChunkId, Completion, LeaseTracker, WorkerId};
use crate::proto::{FrameReader, Message, MAX_GRANT_CHUNKS, PROTOCOL_VERSION};
use crate::window::CreditWindow;
use twocs_core::sweep::{
    eval_chunk, set_parallelism, FactoredPlan, GridExecutor, GridSweep, OnChunk, PointResults,
};
use twocs_core::{GridIndex, Table};
use twocs_hw::DeviceSpec;
use twocs_serve::poll::{Interest, Poller, Source, Waker};
use twocs_store::SweepSpec;

/// Worker id the coordinator uses when draining chunks itself.
pub const LOCAL_WORKER: WorkerId = 0;

/// Tuning knobs for one [`Coordinator`].
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Address to bind for worker registrations (`:0` picks an ephemeral
    /// port, reported by [`Coordinator::local_addr`]).
    pub listen: String,
    /// Grid points per leased chunk. Smaller chunks rebalance better and
    /// lose less work to a dead worker; larger chunks amortize framing.
    pub chunk_size: usize,
    /// Interval workers are told to heartbeat at.
    pub heartbeat: Duration,
    /// Silence budget before a worker's leases are reassigned. Should be
    /// a few heartbeats; clamped to at least one.
    pub lease_ttl: Duration,
    /// Thread budget for the local drain / degrade path.
    pub local_jobs: usize,
    /// Credit window: chunk leases kept outstanding per worker. `None`
    /// (the default) sizes each worker's window from its measured round
    /// trip and completion rate, starting at
    /// [`crate::window::INITIAL_WINDOW`]; `Some(n)` pins it at `n`, and
    /// `Some(1)` degenerates to lockstep (one chunk per round trip).
    pub pipeline: Option<usize>,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".to_owned(),
            chunk_size: 4,
            heartbeat: Duration::from_millis(500),
            lease_ttl: Duration::from_secs(2),
            local_jobs: 1,
            pipeline: None,
        }
    }
}

/// What one distributed sweep did, for the stderr summary.
#[derive(Debug, Clone)]
pub struct DistSummary {
    /// Total chunks in the job.
    pub chunks: usize,
    /// Total grid points.
    pub points: usize,
    /// Chunk-to-pending reassignments (worker deaths, expiries, refusals).
    pub reassigned: u64,
    /// Workers that registered over the fabric's lifetime so far.
    pub workers_seen: u64,
    /// Per-evaluator chunk counts and busy time (grant-to-result time
    /// for remote workers, evaluation time for [`LOCAL_WORKER`]).
    pub per_worker: Vec<(WorkerId, u64, Duration)>,
    /// Per remote worker: its credit window when its last result landed
    /// and the smallest grant-to-result time it showed.
    pub windows: Vec<(WorkerId, usize, Duration)>,
    /// Workers that refused the job, with the reason each gave.
    pub refusals: Vec<(WorkerId, String)>,
    /// Protocol bytes sent by the coordinator during this sweep.
    pub bytes_tx: u64,
    /// Protocol bytes received by the coordinator during this sweep.
    pub bytes_rx: u64,
    /// End-to-end wall time of the sweep.
    pub wall: Duration,
}

impl fmt::Display for DistSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "dist: {} points in {} chunks, wall {:.1?}; {} reassigned, {} worker(s) seen, wire {} B out / {} B in",
            self.points,
            self.chunks,
            self.wall,
            self.reassigned,
            self.workers_seen,
            self.bytes_tx,
            self.bytes_rx,
        )?;
        for (id, chunks, busy) in &self.per_worker {
            let who = if *id == LOCAL_WORKER {
                "local drain".to_owned()
            } else {
                format!("worker {id}")
            };
            write!(
                f,
                "\n  {who:<12} {chunks} chunk{} in {busy:.1?}",
                if *chunks == 1 { "" } else { "s" }
            )?;
            if let Some((_, window, min_rtt)) = self.windows.iter().find(|w| w.0 == *id) {
                write!(f, ", window {window}, min rtt {min_rtt:.1?}")?;
            }
        }
        for (id, reason) in &self.refusals {
            write!(f, "\n  worker {id} refused the job: {reason}")?;
        }
        Ok(())
    }
}

/// Per-evaluator accounting for the job in flight.
#[derive(Debug, Clone, Copy, Default)]
struct EvalStats {
    chunks: u64,
    busy: Duration,
    /// Remote workers only: credit window and minimum round trip.
    window: Option<(usize, Duration)>,
}

/// One sweep job being distributed. Workers get the spec once per
/// connection and decode their own chunk points from it; only the local
/// drain decodes points here, from the lazy [`GridIndex`], so posting a
/// million-point job does not materialize a million points.
struct ActiveJob {
    id: u64,
    /// The grid, chunk size and device, and the spec's fingerprint, as
    /// sent in [`Message::Job`].
    spec: Arc<SweepSpec>,
    fingerprint: u64,
    /// The sweep's factored plan for the coordinator's own local drain,
    /// built on the first drained chunk and shared by the rest — a
    /// fabric whose workers do all the work never builds it.
    local_plan: Arc<OnceLock<Option<FactoredPlan>>>,
    /// Shared with the local drain, which evaluates outside the lock.
    index: Arc<GridIndex>,
    n_chunks: u32,
    tracker: LeaseTracker,
    /// The catalog cannot name the device, so workers could not rebuild
    /// it: nothing is granted and the local drain evaluates every chunk.
    local_only: bool,
    /// Accepted chunks awaiting hand-off to the submitter, in arrival
    /// order.
    delivered: VecDeque<(ChunkId, PointResults)>,
    stats: BTreeMap<WorkerId, EvalStats>,
    refusals: Vec<(WorkerId, String)>,
}

impl ActiveJob {
    fn chunk_size(&self) -> usize {
        self.spec.chunk_size as usize
    }

    /// Points in `chunk` (the final chunk may be short).
    fn chunk_len(&self, chunk: ChunkId) -> usize {
        self.index
            .chunk_ranks(chunk as usize, self.chunk_size())
            .len()
    }
}

struct FabricState {
    job: Option<ActiveJob>,
    next_job: u64,
    /// Currently connected worker ids.
    connected: BTreeSet<WorkerId>,
    next_worker: WorkerId,
    total_joined: u64,
    shutdown: bool,
}

struct Shared {
    cfg: CoordinatorConfig,
    epoch: Instant,
    state: Mutex<FabricState>,
    /// Signaled when the job advances or the worker set changes.
    progress: Condvar,
    /// The driver's poller, owned here so its self-pipe outlives every
    /// [`Shared::kick`] caller; the driver thread borrows it to wait.
    poller: Poller,
    /// Wake handle for the driver's poll loop.
    waker: Waker,
    bytes_tx: AtomicU64,
    bytes_rx: AtomicU64,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, FabricState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Interrupt the driver's poll wait — work was posted, chunks were
    /// requeued, or shutdown began.
    fn kick(&self) {
        self.waker.wake();
    }

    /// Milliseconds since the coordinator started — the lease clock.
    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn ttl_ms(&self) -> u64 {
        self.cfg.lease_ttl.as_millis().max(1) as u64
    }

    fn count_tx(&self, n: usize) {
        self.bytes_tx.fetch_add(n as u64, Ordering::Relaxed);
        twocs_obs::metrics::global()
            .counter("dist.bytes_tx")
            .add(n as u64);
    }

    fn count_rx(&self, n: usize) {
        self.bytes_rx.fetch_add(n as u64, Ordering::Relaxed);
        twocs_obs::metrics::global()
            .counter("dist.bytes_rx")
            .add(n as u64);
    }
}

/// A live distributed-sweep fabric: an address workers can register
/// with, plus [`Coordinator::run_sweep`] to shard grids across them.
///
/// The fabric is long-lived: one coordinator can run many sweeps
/// back-to-back (that is how `twocs serve --listen` uses it), workers
/// may join at any time — including mid-sweep — and leave without
/// losing work.
pub struct Coordinator {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    driver_handle: Option<JoinHandle<()>>,
}

impl fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Coordinator")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

/// Fallback poll timeout: the driver also wakes on socket readiness and
/// [`Shared::kick`], so this only bounds lease-expiry detection latency.
const POLL: Duration = Duration::from_millis(25);

/// How long a fresh connection gets to complete the `Hello` handshake.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Backpressure on the delivery queue: the driver stops granting fresh
/// leases while this many accepted chunks await hand-off to the
/// submitter.
const BACKLOG_HIGH_WATER: usize = 256;

impl Coordinator {
    /// Bind the listen address and start accepting workers immediately.
    pub fn bind(cfg: CoordinatorConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&cfg.listen)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let poller = Poller::new()?;
        let waker = poller.waker();
        let shared = Arc::new(Shared {
            cfg,
            epoch: Instant::now(),
            state: Mutex::new(FabricState {
                job: None,
                next_job: 1,
                connected: BTreeSet::new(),
                next_worker: LOCAL_WORKER + 1,
                total_joined: 0,
                shutdown: false,
            }),
            progress: Condvar::new(),
            poller,
            waker,
            bytes_tx: AtomicU64::new(0),
            bytes_rx: AtomicU64::new(0),
        });
        let driver_shared = Arc::clone(&shared);
        let driver_handle = std::thread::Builder::new()
            .name("dist-driver".to_owned())
            .spawn(move || driver_loop(&driver_shared, &listener))?;
        Ok(Self {
            shared,
            local_addr,
            driver_handle: Some(driver_handle),
        })
    }

    /// The actual bound address (resolves `:0` ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Currently connected workers.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.shared.lock().connected.len()
    }

    /// Total protocol bytes this fabric has sent and received since
    /// binding — the coordinator's side of the wire-accounting ledger
    /// that [`crate::WorkerReport`] keeps for each worker.
    #[must_use]
    pub fn wire_totals(&self) -> (u64, u64) {
        (
            self.shared.bytes_tx.load(Ordering::Relaxed),
            self.shared.bytes_rx.load(Ordering::Relaxed),
        )
    }

    /// Block until at least `min` workers are connected or `timeout`
    /// elapses; returns the count at that moment. `min == 0` returns
    /// immediately — the caller degrades to local execution either way,
    /// via the submitter's local drain.
    pub fn wait_for_workers(&self, min: usize, timeout: Duration) -> usize {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.lock();
        loop {
            if st.connected.len() >= min || st.shutdown {
                return st.connected.len();
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return st.connected.len();
            };
            let (g, _) = self
                .shared
                .progress
                .wait_timeout(st, remaining.min(POLL * 4))
                .unwrap_or_else(PoisonError::into_inner);
            st = g;
        }
    }

    /// Distribute `sweep` across the connected workers and tabulate the
    /// outcome, byte-identical to a local [`GridSweep::run`]: the fabric's
    /// [`CoordinatorConfig::chunk_size`] chunks from
    /// [`Self::run_sweep_streaming`], each filed into its slot.
    ///
    /// Returns an error only when the fabric is shutting down — worker
    /// failures never fail the sweep, they just shift work back to the
    /// queue (ultimately to the coordinator's own local drain).
    pub fn run_sweep(
        &self,
        sweep: &GridSweep,
        device: &DeviceSpec,
    ) -> Result<(Table, DistSummary), String> {
        let chunk_size = self.chunk_size(sweep);
        sweep.tabulate_with(chunk_size, |on_chunk| {
            self.run_sweep_streaming(sweep, device, chunk_size, &BTreeSet::new(), on_chunk)
        })
    }

    /// Stop accepting workers, tell connected ones `Done`, and unblock
    /// every waiter. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
        }
        self.shared.progress.notify_all();
        self.shared.kick();
    }

    /// Distribute `sweep`, handing every accepted chunk to `on_chunk` on
    /// this thread, outside the fabric lock, exactly once and in arrival
    /// order — coordinator memory stays bounded by the delivery queue,
    /// not the grid. `chunk_size` fixes chunk-id meaning (a resumed
    /// journal must pass the journaled size, not the fabric default);
    /// chunks listed in `completed` are marked done up front and never
    /// evaluated (journal resume). Worker failures never fail the sweep;
    /// an `on_chunk` error aborts it and frees the job slot.
    pub fn run_sweep_streaming(
        &self,
        sweep: &GridSweep,
        device: &DeviceSpec,
        chunk_size: usize,
        completed: &BTreeSet<ChunkId>,
        on_chunk: &mut OnChunk<'_>,
    ) -> Result<DistSummary, String> {
        let start = Instant::now();
        let shared = &self.shared;
        let _span = twocs_obs::span("distributed sweep", "dist");
        let tx_before = shared.bytes_tx.load(Ordering::Relaxed);
        let rx_before = shared.bytes_rx.load(Ordering::Relaxed);
        let job_id = post_job(shared, sweep, device, chunk_size.max(1), completed)?;

        let fail = |e: String| {
            // Abort: clear the job slot so workers stop leasing from it.
            let mut st = shared.lock();
            if st.job.as_ref().is_some_and(|j| j.id == job_id) {
                st.job = None;
            }
            drop(st);
            shared.progress.notify_all();
            shared.kick();
            e
        };

        // Supervise: deliver accepted chunks, drain locally when no
        // worker can take a chunk, finish when the tracker says so. Lease
        // expiry is the driver's: its tick runs at least once per `POLL`.
        let mut batch = VecDeque::new();
        let mut st = shared.lock();
        loop {
            let fabric = &mut *st;
            let Some(job) = fabric.job.as_mut().filter(|j| j.id == job_id) else {
                return Err("sweep job vanished from the fabric".to_owned());
            };
            if !job.delivered.is_empty() {
                std::mem::swap(&mut job.delivered, &mut batch);
                drop(st);
                if batch.len() >= BACKLOG_HIGH_WATER {
                    // The driver paused granting on this queue.
                    shared.kick();
                }
                for (chunk, values) in batch.drain(..) {
                    on_chunk(chunk, values).map_err(fail)?;
                }
                st = shared.lock();
                continue;
            }
            if job.tracker.is_complete() {
                return Ok(finish_job(
                    shared, &mut st, job_id, start, tx_before, rx_before,
                ));
            }
            if job.local_only || fabric.connected.is_empty() {
                if let Some(chunk) = job.tracker.lease(LOCAL_WORKER, shared.now(), u64::MAX) {
                    drop(st);
                    drain_one_chunk(shared, job_id, chunk, sweep, device);
                    st = shared.lock();
                    continue;
                }
            }
            st = shared
                .progress
                .wait_timeout(st, POLL)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// Post a job into the fabric's single job slot (serializing
/// back-to-back sweeps), pre-completing resumed chunks. Workers rebuild
/// the device from the catalog, so a device it cannot name (an evolved
/// or custom spec) marks the job local-only — still byte-identical, just
/// not distributed. Returns the job id.
fn post_job(
    shared: &Arc<Shared>,
    sweep: &GridSweep,
    device: &DeviceSpec,
    chunk_size: usize,
    completed: &BTreeSet<ChunkId>,
) -> Result<u64, String> {
    let local_only = !DeviceSpec::catalog()
        .iter()
        .any(|d| d.name() == device.name() && d.fingerprint() == device.fingerprint());
    let spec = SweepSpec {
        sweep: sweep.clone(),
        chunk_size: u32::try_from(chunk_size).unwrap_or(u32::MAX),
        device_name: device.name().to_owned(),
        device_fingerprint: device.fingerprint(),
    };
    let index = sweep.index();
    let n_chunks = index.chunk_count(spec.chunk_size as usize) as u32;
    let mut st = shared.lock();
    loop {
        if st.shutdown {
            return Err("the fabric is shutting down".to_owned());
        }
        if st.job.is_none() {
            break;
        }
        st = shared
            .progress
            .wait_timeout(st, POLL * 4)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
    }
    let id = st.next_job;
    st.next_job += 1;
    let mut tracker = LeaseTracker::new(n_chunks);
    for &chunk in completed {
        // Journal-recovered chunks: completing a pending chunk is the
        // tracker's resume mechanism.
        tracker.complete(chunk);
    }
    st.job = Some(ActiveJob {
        id,
        fingerprint: spec.fingerprint(),
        spec: Arc::new(spec),
        local_plan: Arc::default(),
        index: Arc::new(index),
        n_chunks,
        tracker,
        local_only,
        delivered: VecDeque::new(),
        stats: BTreeMap::new(),
        refusals: Vec::new(),
    });
    drop(st);
    // Wake the driver so the first grants leave this tick, not the next.
    shared.kick();
    Ok(id)
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(handle) = self.driver_handle.take() {
            let _ = handle.join();
        }
    }
}

/// The distributed executor — the one `twocs sweep --listen` and
/// `twocs serve --listen` hand to `twocs_store::run`.
impl GridExecutor for Coordinator {
    fn execute(
        &self,
        sweep: &GridSweep,
        device: &DeviceSpec,
        chunk_size: usize,
        completed: &BTreeSet<ChunkId>,
        on_chunk: &mut OnChunk<'_>,
    ) -> Result<Box<dyn fmt::Display + Send>, String> {
        let summary = self.run_sweep_streaming(sweep, device, chunk_size, completed, on_chunk)?;
        Ok(Box::new(summary))
    }

    fn chunk_size(&self, _: &GridSweep) -> usize {
        self.shared.cfg.chunk_size.max(1)
    }

    fn describe(&self) -> String {
        format!("distributed({})", self.local_addr)
    }
}

/// Evaluate one locally-leased chunk on `device` and record its
/// results into the delivery queue. The chunk must already be leased to
/// [`LOCAL_WORKER`]; evaluation happens with no fabric lock held.
/// `sweep` and `device` are the submitter's own, so this path works for
/// devices the catalog cannot name.
fn drain_one_chunk(
    shared: &Arc<Shared>,
    job_id: u64,
    chunk: ChunkId,
    sweep: &GridSweep,
    device: &DeviceSpec,
) {
    let st = shared.lock();
    let Some(job) = st.job.as_ref().filter(|j| j.id == job_id) else {
        return;
    };
    let index = Arc::clone(&job.index);
    let ranks = index.chunk_ranks(chunk as usize, job.chunk_size());
    let plan = job.local_plan.clone();
    drop(st);
    let _span = twocs_obs::span(&format!("local drain chunk {chunk}"), "dist");
    let t0 = Instant::now();
    set_parallelism(shared.cfg.local_jobs);
    // Same chunk kernel the workers use: factored when possible, naive
    // otherwise, per-point panics degraded to per-point errors. The plan
    // is built outside the fabric lock, once per job.
    let plan = plan.get_or_init(|| FactoredPlan::build_from_sweep(device, sweep));
    let mut values = PointResults::new();
    eval_chunk(plan.as_ref(), device, sweep, &index, ranks, &mut values);
    let busy = t0.elapsed();
    twocs_obs::metrics::global()
        .counter("dist.local_drain_chunks")
        .inc();
    let _ = record_result(
        &mut shared.lock(),
        job_id,
        LOCAL_WORKER,
        chunk,
        values,
        busy,
    );
}

/// Accept a chunk result into the job's delivery queue and update
/// per-evaluator stats. Returns whether it was accepted; duplicate and
/// stale-job results are dropped. A result the current job cannot hold
/// — a chunk past the job, or a value count other than the chunk's — is
/// an `Err`: its sender is broken, and dropping the result alone would
/// leave the chunk leased to it, renewed by its heartbeats or re-granted
/// to it on expiry, forever.
fn record_result(
    st: &mut FabricState,
    job_id: u64,
    worker: WorkerId,
    chunk: ChunkId,
    values: PointResults,
    busy: Duration,
) -> Result<bool, ()> {
    let Some(job) = st.job.as_mut().filter(|j| j.id == job_id) else {
        return Ok(false);
    };
    if chunk >= job.n_chunks || values.len() != job.chunk_len(chunk) {
        return Err(());
    }
    if job.tracker.complete(chunk) != Completion::Accepted {
        return Ok(false);
    }
    let stats = job.stats.entry(worker).or_default();
    stats.chunks += 1;
    stats.busy += busy;
    let metrics = twocs_obs::metrics::global();
    metrics.counter("dist.chunks_completed").inc();
    metrics
        .histogram("dist.chunk_rtt_us")
        .observe_duration(busy);
    job.delivered.push_back((chunk, values));
    Ok(true)
}

/// Summarize the finished job and clear the slot.
fn finish_job(
    shared: &Shared,
    st: &mut FabricState,
    job_id: u64,
    start: Instant,
    tx_before: u64,
    rx_before: u64,
) -> DistSummary {
    let job = st
        .job
        .take()
        .filter(|j| j.id == job_id)
        .expect("finish_job called with the job in place");
    let summary = DistSummary {
        chunks: job.n_chunks as usize,
        points: job.index.len(),
        reassigned: job.tracker.reassigned(),
        workers_seen: st.total_joined,
        per_worker: job
            .stats
            .iter()
            .map(|(&id, s)| (id, s.chunks, s.busy))
            .collect(),
        windows: job
            .stats
            .iter()
            .filter_map(|(&id, s)| s.window.map(|(w, rtt)| (id, w, rtt)))
            .collect(),
        refusals: job.refusals,
        bytes_tx: shared.bytes_tx.load(Ordering::Relaxed) - tx_before,
        bytes_rx: shared.bytes_rx.load(Ordering::Relaxed) - rx_before,
        wall: start.elapsed(),
    };
    // Wake any submitter waiting for the job slot.
    shared.progress.notify_all();
    summary
}

// ---- the poll-driven connection driver ---------------------------------

/// One worker connection's state machine, driven by readiness events.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    /// Pending outgoing bytes; `out_at` is the flushed prefix. Frames
    /// are appended in place ([`Message::append_frame`]), so steady
    /// state reuses the allocation.
    outbuf: Vec<u8>,
    out_at: usize,
    /// Assigned worker id once the handshake completes.
    worker: Option<WorkerId>,
    /// `Done`/`Reject` queued: flush, half-close, then wait for the
    /// peer's EOF (a hard close could RST ahead of the peer reading it).
    closing: bool,
    half_closed: bool,
    /// Connection is finished; the removal pass cleans it up.
    dead: bool,
    /// Close the connection at this instant regardless (handshake and
    /// drain timeouts).
    deadline: Option<Instant>,
    /// When each outstanding chunk of job `grant_job` was granted, for
    /// grant-to-result timing: per-worker stats and the credit window.
    grant_times: HashMap<ChunkId, Instant>,
    grant_job: u64,
    /// Leases to keep outstanding on this connection.
    window: CreditWindow,
}

impl Conn {
    fn new(stream: TcpStream, pipeline: Option<usize>) -> Self {
        Self {
            stream,
            reader: FrameReader::new(),
            outbuf: Vec::new(),
            out_at: 0,
            worker: None,
            closing: false,
            half_closed: false,
            dead: false,
            deadline: Some(Instant::now() + HANDSHAKE_TIMEOUT),
            grant_times: HashMap::new(),
            grant_job: 0,
            window: CreditWindow::new(pipeline),
        }
    }

    fn has_output(&self) -> bool {
        self.out_at < self.outbuf.len()
    }

    /// Append a frame to the outbound buffer (counted as sent once
    /// queued; the flush pass moves it onto the wire).
    fn queue(&mut self, shared: &Shared, msg: &Message) {
        let n = msg.append_frame(&mut self.outbuf);
        shared.count_tx(n);
    }

    /// Write as much pending output as the socket accepts right now.
    fn flush(&mut self) {
        while self.out_at < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.out_at..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.out_at += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.outbuf.clear();
        self.out_at = 0;
        if self.closing && !self.half_closed {
            self.half_closed = true;
            let _ = self.stream.shutdown(Shutdown::Write);
        }
    }
}

/// The fabric's single connection-driver thread: poll readiness, accept,
/// read/decode frames, refill credit windows, flush. Exits once shutdown
/// is requested and every connection has drained.
fn driver_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut done_sent = false;
    loop {
        let shutting_down = shared.lock().shutdown;
        if shutting_down && !done_sent {
            done_sent = true;
            let deadline = Instant::now() + shared.cfg.lease_ttl.max(Duration::from_secs(1));
            for conn in &mut conns {
                if conn.worker.is_some() && !conn.closing {
                    conn.queue(shared, &Message::Done);
                    conn.closing = true;
                }
                let capped = conn.deadline.map_or(deadline, |d| d.min(deadline));
                conn.deadline = Some(capped);
            }
        }
        if shutting_down && conns.is_empty() {
            return;
        }

        let sources: Vec<Source> = conns
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.dead)
            .map(|(i, c)| {
                Source::new(
                    i as u64,
                    &c.stream,
                    Interest {
                        read: true,
                        write: c.has_output(),
                    },
                )
            })
            .collect();
        let wait = match shared
            .poller
            .wait((!shutting_down).then_some(listener), &sources, POLL)
        {
            Ok(w) => w,
            Err(_) => {
                // poll(2) itself failing is pathological; back off so a
                // persistent error cannot spin the core.
                std::thread::sleep(POLL);
                continue;
            }
        };

        if wait.listener_ready {
            accept_all(listener, &mut conns, shared.cfg.pipeline);
        }
        let mut accepted = false;
        for ev in &wait.events {
            let Some(conn) = conns.get_mut(ev.token as usize) else {
                continue;
            };
            if (ev.readable || ev.hangup) && !conn.dead {
                read_conn(shared, conn, &mut accepted);
            }
            if ev.writable && !conn.dead {
                conn.flush();
            }
        }
        if accepted {
            // One wake per iteration, not per result: the submitter takes
            // the whole delivery queue at once.
            shared.progress.notify_all();
        }

        tick(shared, &mut conns);
        // Opportunistic flush: push frames queued by reads/tick now
        // instead of waiting for the next writable event.
        for conn in &mut conns {
            if !conn.dead && conn.has_output() {
                conn.flush();
            }
        }

        // Removal pass: reap dead and deadline-overdue connections,
        // requeueing each one's entire outstanding window.
        let now = Instant::now();
        let mut removed = false;
        conns.retain_mut(|conn| {
            if conn.deadline.is_some_and(|d| d <= now) {
                conn.dead = true;
            }
            if conn.dead {
                cleanup_conn(shared, conn);
                removed = true;
                false
            } else {
                true
            }
        });
        if removed {
            shared.progress.notify_all();
        }
    }
}

/// Accept every pending registration (the listener is nonblocking).
fn accept_all(listener: &TcpListener, conns: &mut Vec<Conn>, pipeline: Option<usize>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(true);
                let _ = stream.set_nodelay(true);
                conns.push(Conn::new(stream, pipeline));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Pull bytes until the socket would block, handling every complete
/// frame along the way; sets `accepted` when a chunk result is accepted.
fn read_conn(shared: &Arc<Shared>, conn: &mut Conn, accepted: &mut bool) {
    loop {
        match conn.reader.fill(&mut conn.stream) {
            Ok(0) => {
                // EOF: graceful after a drain, a death otherwise —
                // either way the removal pass takes it from here.
                conn.dead = true;
                return;
            }
            Ok(_) => loop {
                match conn.reader.next_frame() {
                    Ok(Some((msg, n))) => {
                        shared.count_rx(n);
                        if !handle_frame(shared, conn, msg, accepted) {
                            conn.dead = true;
                            return;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        conn.dead = true;
                        return;
                    }
                }
            },
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// One frame's worth of the per-worker state machine. Returns `false`
/// when the connection must be treated as dead (protocol violation).
fn handle_frame(shared: &Arc<Shared>, conn: &mut Conn, msg: Message, accepted: &mut bool) -> bool {
    let metrics = twocs_obs::metrics::global();
    match (conn.worker, msg) {
        (
            None,
            Message::Hello {
                version: PROTOCOL_VERSION,
            },
        ) => {
            let worker_id = {
                let mut st = shared.lock();
                if st.shutdown {
                    drop(st);
                    conn.queue(
                        shared,
                        &Message::Reject {
                            reason: "coordinator is shutting down".to_owned(),
                        },
                    );
                    conn.closing = true;
                    conn.deadline = Some(Instant::now() + Duration::from_secs(1));
                    return true;
                }
                let id = st.next_worker;
                st.next_worker += 1;
                st.connected.insert(id);
                st.total_joined += 1;
                id
            };
            shared.progress.notify_all();
            metrics.counter("dist.workers_joined").inc();
            conn.worker = Some(worker_id);
            conn.deadline = None;
            let heartbeat_ms = shared
                .cfg
                .heartbeat
                .as_millis()
                .clamp(1, u128::from(u32::MAX)) as u32;
            // Welcome advertises the initial window; an adaptive window
            // grows from there as results measure the round trip.
            let pipeline = conn.window.size().min(u32::MAX as usize) as u32;
            conn.queue(
                shared,
                &Message::Welcome {
                    version: PROTOCOL_VERSION,
                    worker_id,
                    heartbeat_ms,
                    pipeline,
                },
            );
            // The next tick (this same driver iteration) grants the
            // fresh worker its first credit window.
            true
        }
        (None, Message::Hello { version }) => {
            conn.queue(
                shared,
                &Message::Reject {
                    reason: format!(
                        "protocol version mismatch: coordinator speaks v{PROTOCOL_VERSION}, worker v{version}"
                    ),
                },
            );
            metrics.counter("dist.handshake_rejected").inc();
            conn.closing = true;
            conn.deadline = Some(Instant::now() + Duration::from_secs(1));
            true
        }
        (None, _) => false, // not a worker; drop silently
        (Some(worker), Message::Heartbeat) => {
            let mut st = shared.lock();
            let now = shared.now();
            let ttl_ms = shared.ttl_ms();
            if let Some(job) = st.job.as_mut() {
                job.tracker.renew(worker, now, ttl_ms);
            }
            true
        }
        (
            Some(worker),
            Message::ChunkResult {
                job: jid,
                chunk,
                values,
            },
        ) => {
            let arrived = Instant::now();
            let granted = (jid == conn.grant_job)
                .then(|| conn.grant_times.remove(&chunk))
                .flatten();
            let busy = granted.map_or(Duration::ZERO, |t0| arrived.duration_since(t0));
            let mut st = shared.lock();
            // A result is proof of life for the rest of the window.
            let now = shared.now();
            let ttl_ms = shared.ttl_ms();
            if let Some(job) = st.job.as_mut() {
                job.tracker.renew(worker, now, ttl_ms);
            }
            // A malformed result is a protocol violation: the connection
            // dies and `cleanup_conn` requeues the sender's whole window.
            let Ok(recorded) = record_result(&mut st, jid, worker, chunk, values, busy) else {
                return false;
            };
            *accepted |= recorded;
            let job = st.job.as_mut().filter(|j| j.id == jid);
            if let (Some(job), Some(_)) = (job, granted) {
                conn.window.on_result(busy, arrived, job.chunk_size());
                if let Some(stats) = job.stats.get_mut(&worker) {
                    let min_rtt = conn.window.min_rtt().unwrap_or(busy);
                    stats.window = Some((conn.window.size(), min_rtt));
                }
            }
            true
        }
        (Some(worker), Message::Refuse { job: jid, reason }) => {
            // The worker cannot evaluate this job at all (e.g. unknown
            // device). Record why, requeue its whole window and release it.
            metrics.counter("dist.leases_refused").inc();
            let lost = {
                let mut st = shared.lock();
                st.connected.remove(&worker);
                st.job
                    .as_mut()
                    .map(|job| {
                        if job.id == jid {
                            job.refusals.push((worker, reason));
                        }
                        job.tracker.fail_worker(worker)
                    })
                    .unwrap_or_default()
            };
            if !lost.is_empty() {
                metrics
                    .counter("dist.chunks_reassigned")
                    .add(lost.len() as u64);
            }
            shared.progress.notify_all();
            if !conn.closing {
                conn.queue(shared, &Message::Done);
                conn.closing = true;
            }
            conn.deadline = Some(Instant::now() + shared.cfg.lease_ttl.max(Duration::from_secs(1)));
            true
        }
        (Some(_), _) => false, // protocol violation
    }
}

/// The driver's periodic/maintenance pass: expire overdue leases, top
/// every live worker back up to its credit window, and publish the
/// outstanding-lease and credit-window gauges (summed over workers).
fn tick(shared: &Arc<Shared>, conns: &mut [Conn]) {
    let metrics = twocs_obs::metrics::global();
    let mut st = shared.lock();
    let now = shared.now();
    let ttl_ms = shared.ttl_ms();
    if let Some(job) = st.job.as_mut() {
        let expired = job.tracker.expire(now);
        if !expired.is_empty() {
            metrics
                .counter("dist.chunks_reassigned")
                .add(expired.len() as u64);
        }
    }
    // Credit refill — paused while the delivery queue is over the
    // high-water mark, which is the grant-side half of backpressure.
    let granting = st
        .job
        .as_ref()
        .is_some_and(|j| !j.local_only && j.delivered.len() < BACKLOG_HIGH_WATER);
    if granting && !st.shutdown {
        for conn in conns.iter_mut().filter(|c| !c.dead && !c.closing) {
            let Some(worker) = conn.worker else { continue };
            let Some(job) = st.job.as_mut() else { break };
            let window = conn.window.size();
            let deficit = window.saturating_sub(job.tracker.outstanding(worker));
            let mut chunks = Vec::with_capacity(deficit);
            for _ in 0..deficit {
                match job.tracker.lease(worker, now, ttl_ms) {
                    Some(c) => chunks.push(c),
                    None => break,
                }
            }
            if chunks.is_empty() {
                continue;
            }
            let issued = Instant::now();
            if conn.grant_job != job.id {
                // Announce the job once, ahead of its first grant here;
                // timing entries from an earlier job die with it.
                conn.grant_times.clear();
                conn.grant_job = job.id;
                conn.queue(
                    shared,
                    &Message::Job {
                        job: job.id,
                        fingerprint: job.fingerprint,
                        spec: Arc::clone(&job.spec),
                    },
                );
            }
            for &c in &chunks {
                conn.grant_times.insert(c, issued);
            }
            metrics
                .counter("dist.chunks_leased")
                .add(chunks.len() as u64);
            // A pinned window is unbounded; split it into bounded frames.
            for frame in chunks.chunks(MAX_GRANT_CHUNKS) {
                let grant = Message::Grant {
                    job: job.id,
                    chunks: frame.to_vec(),
                };
                conn.queue(shared, &grant);
            }
        }
    }
    let outstanding = st.job.as_ref().map_or(0, |j| j.tracker.leased_count());
    metrics
        .gauge("dist.coordinator.outstanding_leases")
        .set(outstanding as f64);
    let windows: usize = conns
        .iter()
        .filter(|c| c.worker.is_some() && !c.dead && !c.closing)
        .map(|c| c.window.size())
        .sum();
    metrics.gauge("dist.pipeline.window").set(windows as f64);
}

/// Deregister a finished/dead connection and requeue its outstanding
/// window. Idempotent with the `Refuse` path's early release.
fn cleanup_conn(shared: &Arc<Shared>, conn: &Conn) {
    let metrics = twocs_obs::metrics::global();
    let _ = conn.stream.shutdown(Shutdown::Both);
    let Some(worker) = conn.worker else {
        return; // never finished the handshake; nothing registered
    };
    let lost = {
        let mut st = shared.lock();
        st.connected.remove(&worker);
        st.job
            .as_mut()
            .map(|job| job.tracker.fail_worker(worker))
            .unwrap_or_default()
    };
    metrics.counter("dist.workers_lost").inc();
    if !lost.is_empty() {
        metrics
            .counter("dist.chunks_reassigned")
            .add(lost.len() as u64);
    }
}
