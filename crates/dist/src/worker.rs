//! The sweep worker: connects to a coordinator, receives pushed chunk
//! leases, and evaluates them with the same chunk kernel
//! ([`eval_chunk`]) a local run uses — the grid's factored per-axis
//! tables when it has them, the naive per-point path otherwise,
//! bit-identical either way — which is why distributed results merge
//! byte-exactly.
//!
//! The protocol is coordinator-driven and pipelined: after the handshake
//! the coordinator announces each job once ([`Message::Job`], the sweep
//! spec) and keeps a credit window of chunk leases outstanding on the
//! connection ([`Message::Grant`], chunk ids whose grid points the worker
//! decodes from the spec itself), so the worker is
//! **double-buffered** — while the evaluation loop chews on the current
//! chunk, the next leases are already queued locally and finished
//! results are flushing from a dedicated writer thread. Three side
//! threads surround the evaluation loop:
//!
//! * a **reader** that blocks on the socket, stamps each incoming frame
//!   with its (optionally latency-shifted) delivery time, and feeds the
//!   work queue — no `Ready`/`Wait` idle poll, the coordinator's grant
//!   push *is* the wake;
//! * a **writer** that owns the write half and flushes every outgoing
//!   frame — results, refusals, *and heartbeats* — with vectored,
//!   buffer-reused batch encoding, so a big result never blocks the
//!   evaluation loop and every wire byte lands in one tx counter;
//! * a **heartbeat** ticker at the cadence the coordinator requested in
//!   `Welcome`, so a slow chunk does not read as a dead worker.
//!
//! For latency experiments ([`WorkerConfig::injected_latency`], or the
//! [`RTT_ENV`] hook) the worker models pure propagation delay: incoming
//! frames become visible to the evaluation loop RTT/2 after they are
//! read, outgoing frames are held by the writer until RTT/2 after they
//! are queued. Bandwidth/occupancy is untouched, so a pipelined window
//! overlaps the injected latency exactly the way real WAN RTT would be
//! overlapped.

use std::net::TcpStream;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::proto::{read_frame, write_batch, write_frame, Message, PROTOCOL_VERSION};
use twocs_core::planner::FactoredPlan;
use twocs_core::sweep::{eval_chunk, set_parallelism, PointResults};
use twocs_core::GridIndex;
use twocs_hw::DeviceSpec;
use twocs_store::SweepSpec;

/// Test hook: per-chunk artificial delay in milliseconds, read from the
/// environment when [`WorkerConfig::chunk_delay`] is unset. The CI
/// worker-kill smoke test uses this to make "a worker dies mid-sweep
/// while holding a full credit window" land deterministically instead of
/// racing a sub-millisecond evaluation.
pub const CHUNK_DELAY_ENV: &str = "TWOCS_DIST_CHUNK_DELAY_MS";

/// Test hook: injected round-trip time in milliseconds, read from the
/// environment when [`WorkerConfig::injected_latency`] is unset. The
/// `dist_perf` bench uses the config field directly; the env var exists
/// for shell-driven experiments against a real CLI worker.
pub const RTT_ENV: &str = "TWOCS_DIST_RTT_MS";

/// Most frames the writer thread coalesces into one vectored write.
const MAX_WRITE_BATCH: usize = 64;

/// Tuning knobs for [`run_worker`].
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator address, e.g. `127.0.0.1:7070`.
    pub connect: String,
    /// Thread budget for evaluating a chunk's points.
    pub jobs: usize,
    /// Artificial per-chunk evaluation delay (tests). Falls back to
    /// [`CHUNK_DELAY_ENV`] when `None`.
    pub chunk_delay: Option<Duration>,
    /// Injected round-trip time, split evenly across the two directions
    /// (benchmarks). Falls back to [`RTT_ENV`] when `None`.
    pub injected_latency: Option<Duration>,
}

impl WorkerConfig {
    /// A worker config for `connect` with `jobs` evaluation threads.
    #[must_use]
    pub fn new(connect: impl Into<String>, jobs: usize) -> Self {
        Self {
            connect: connect.into(),
            jobs: jobs.max(1),
            chunk_delay: None,
            injected_latency: None,
        }
    }
}

/// What one worker session did, for the stderr summary.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// Coordinator-assigned worker id.
    pub worker_id: u64,
    /// Chunks evaluated and reported.
    pub chunks: u64,
    /// Grid points evaluated.
    pub points: u64,
    /// Jobs refused (fingerprint mismatch, invalid grid, or a device
    /// this worker's catalog cannot resolve).
    pub refused: u64,
    /// Protocol bytes sent — every frame on the wire, heartbeats and
    /// handshake included, because the writer thread is the single
    /// place transmit bytes are counted.
    pub bytes_tx: u64,
    /// Protocol bytes received.
    pub bytes_rx: u64,
    /// Time spent evaluating chunks.
    pub busy: Duration,
    /// Time spent waiting for work — the pipeline's exposed
    /// communication. Near zero when the credit window hides the RTT.
    pub idle: Duration,
}

impl std::fmt::Display for WorkerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker {}: {} chunk(s), {} point(s), {} refused, busy {:.1?}, idle {:.1?}, wire {} B out / {} B in",
            self.worker_id,
            self.chunks,
            self.points,
            self.refused,
            self.busy,
            self.idle,
            self.bytes_tx,
            self.bytes_rx,
        )
    }
}

/// One announced job, shared by every chunk granted from it.
struct Job {
    id: u64,
    /// The fingerprint the coordinator announced for `spec`.
    fingerprint: u64,
    spec: Arc<SweepSpec>,
    /// The spec's grid, from which each chunk decodes its own points.
    index: GridIndex,
}

impl Job {
    fn chunk_size(&self) -> usize {
        self.spec.chunk_size.max(1) as usize
    }
}

/// One unit handed from the reader thread to the evaluation loop.
enum WorkItem {
    /// A newly announced job; its chunks follow.
    Job(Arc<Job>),
    /// A leased chunk, visible to the evaluator at `deliver_at`.
    Chunk {
        job: Arc<Job>,
        chunk: u32,
        deliver_at: Option<Instant>,
    },
    /// Coordinator said `Done`: exit cleanly.
    Done,
    /// The connection or protocol failed; the loop should report this.
    Failed(String),
}

/// One frame queued for the writer thread. `due` is the injected-latency
/// release time; `None` sends immediately.
struct Outgoing {
    msg: Message,
    due: Option<Instant>,
}

fn env_ms(var: &str) -> Option<Duration> {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
}

/// The writer thread: sole owner of the socket's write half. Batches
/// everything already due into one vectored write with reused buffers
/// (allocation-free at steady state) and accounts every byte it sends.
fn writer_loop(
    mut stream: TcpStream,
    rx: &Receiver<Outgoing>,
    bytes_tx: &AtomicU64,
    fail: &Mutex<Option<String>>,
) {
    let metrics = twocs_obs::metrics::global();
    let mut scratch: Vec<Vec<u8>> = Vec::new();
    let mut batch: Vec<Message> = Vec::new();
    let mut carry: Option<Outgoing> = None;
    loop {
        let first = match carry.take() {
            Some(o) => o,
            None => match rx.recv() {
                Ok(o) => o,
                // Every sender hung up: the session is over and the
                // queue is drained.
                Err(_) => break,
            },
        };
        if let Some(due) = first.due {
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        batch.clear();
        batch.push(first.msg);
        while batch.len() < MAX_WRITE_BATCH {
            match rx.try_recv() {
                Ok(o) => {
                    if o.due.is_some_and(|d| d > Instant::now()) {
                        carry = Some(o);
                        break;
                    }
                    batch.push(o.msg);
                }
                Err(_) => break,
            }
        }
        match write_batch(&mut stream, &batch, &mut scratch) {
            Ok(n) => {
                bytes_tx.fetch_add(n as u64, Ordering::Relaxed);
                metrics.counter("dist.bytes_tx").add(n as u64);
            }
            Err(e) => {
                let mut slot = fail.lock().unwrap_or_else(PoisonError::into_inner);
                slot.get_or_insert_with(|| format!("coordinator write: {e}"));
                break;
            }
        }
    }
}

/// The reader thread: blocks on the socket, keeps the latest announced
/// job, stamps granted chunks with their latency-shifted delivery time,
/// and feeds the evaluation loop's work queue. A grant for a job that was
/// never announced, or for a chunk id past the job's last chunk, is a
/// protocol error. Always pushes a terminal [`WorkItem`] before exiting
/// so the evaluator never waits on a dead channel.
fn reader_loop(
    mut stream: TcpStream,
    work_tx: &Sender<WorkItem>,
    bytes_rx: &AtomicU64,
    depth: &AtomicI64,
    half_rtt: Option<Duration>,
) {
    let metrics = twocs_obs::metrics::global();
    let mut current: Option<Arc<Job>> = None;
    let terminal = loop {
        let (msg, n) = match read_frame(&mut stream) {
            Ok(ok) => ok,
            Err(e) => break WorkItem::Failed(format!("coordinator read: {e}")),
        };
        bytes_rx.fetch_add(n as u64, Ordering::Relaxed);
        metrics.counter("dist.bytes_rx").add(n as u64);
        match msg {
            Message::Job {
                job,
                fingerprint,
                spec,
            } => {
                let job = Arc::new(Job {
                    id: job,
                    fingerprint,
                    index: spec.index(),
                    spec,
                });
                current = Some(Arc::clone(&job));
                if work_tx.send(WorkItem::Job(job)).is_err() {
                    return;
                }
            }
            Message::Grant { job: id, chunks } => {
                let Some(job) = current.as_ref().filter(|j| j.id == id) else {
                    break WorkItem::Failed(format!(
                        "grant for job {id}, which was never announced"
                    ));
                };
                let n_chunks = job.index.chunk_count(job.chunk_size());
                if let Some(chunk) = chunks.iter().find(|&&c| c as usize >= n_chunks) {
                    break WorkItem::Failed(format!(
                        "grant for chunk {chunk} of job {id}, which has {n_chunks} chunks"
                    ));
                }
                let deliver_at = half_rtt.map(|d| Instant::now() + d);
                for chunk in chunks {
                    let queued = depth.fetch_add(1, Ordering::Relaxed) + 1;
                    metrics.gauge("dist.pipeline.depth").set(queued as f64);
                    let item = WorkItem::Chunk {
                        job: Arc::clone(job),
                        chunk,
                        deliver_at,
                    };
                    if work_tx.send(item).is_err() {
                        return;
                    }
                }
            }
            Message::Done => break WorkItem::Done,
            other => break WorkItem::Failed(format!("unexpected coordinator message: {other:?}")),
        }
    };
    let _ = work_tx.send(terminal);
}

/// Connect to a coordinator and evaluate pushed chunk leases until it
/// says `Done` or the connection drops. Returns a session report, or an
/// error string suitable for the CLI (handshake rejection, connect
/// failure, protocol violation).
pub fn run_worker(cfg: &WorkerConfig) -> Result<WorkerReport, String> {
    let metrics = twocs_obs::metrics::global();
    let _span = twocs_obs::span(&format!("worker {}", cfg.connect), "dist");
    let chunk_delay = cfg.chunk_delay.or_else(|| env_ms(CHUNK_DELAY_ENV));
    let half_rtt = cfg
        .injected_latency
        .or_else(|| env_ms(RTT_ENV))
        .map(|rtt| rtt / 2);

    let stream = TcpStream::connect(&cfg.connect)
        .map_err(|e| format!("connect to coordinator {}: {e}", cfg.connect))?;
    let _ = stream.set_nodelay(true);
    let read_stream = stream
        .try_clone()
        .map_err(|e| format!("clone coordinator socket: {e}"))?;
    let mut write_stream = stream
        .try_clone()
        .map_err(|e| format!("clone coordinator socket: {e}"))?;

    let bytes_tx = Arc::new(AtomicU64::new(0));
    let bytes_rx = Arc::new(AtomicU64::new(0));
    let depth = Arc::new(AtomicI64::new(0));
    let write_fail = Arc::new(Mutex::new(None::<String>));

    // Handshake runs synchronously on this thread before the pipeline
    // threads exist; its bytes land in the same counters.
    let n = write_frame(
        &mut write_stream,
        &Message::Hello {
            version: PROTOCOL_VERSION,
        },
    )
    .map_err(|e| format!("coordinator write: {e}"))?;
    bytes_tx.fetch_add(n as u64, Ordering::Relaxed);
    metrics.counter("dist.bytes_tx").add(n as u64);
    let mut hs_stream = read_stream
        .try_clone()
        .map_err(|e| format!("clone coordinator socket: {e}"))?;
    let (reply, n) = read_frame(&mut hs_stream).map_err(|e| format!("coordinator read: {e}"))?;
    bytes_rx.fetch_add(n as u64, Ordering::Relaxed);
    metrics.counter("dist.bytes_rx").add(n as u64);
    let (worker_id, heartbeat, _window) = match reply {
        Message::Welcome {
            version: PROTOCOL_VERSION,
            worker_id,
            heartbeat_ms,
            pipeline,
        } => (
            worker_id,
            Duration::from_millis(u64::from(heartbeat_ms)),
            pipeline,
        ),
        Message::Welcome { version, .. } => {
            return Err(format!(
                "coordinator accepted v{version} but this worker speaks v{PROTOCOL_VERSION}"
            ));
        }
        Message::Reject { reason } => return Err(format!("coordinator rejected worker: {reason}")),
        other => return Err(format!("unexpected handshake reply: {other:?}")),
    };
    metrics.counter("dist.worker_sessions").inc();

    // Pipeline threads: reader feeds the work queue, writer drains the
    // outgoing queue, heartbeat ticks into the outgoing queue.
    let (work_tx, work_rx) = std::sync::mpsc::channel::<WorkItem>();
    let (out_tx, out_rx) = std::sync::mpsc::channel::<Outgoing>();

    let reader_thread = {
        let bytes_rx = Arc::clone(&bytes_rx);
        let depth = Arc::clone(&depth);
        std::thread::Builder::new()
            .name("dist-reader".to_owned())
            .spawn(move || reader_loop(read_stream, &work_tx, &bytes_rx, &depth, half_rtt))
            .map_err(|e| format!("spawn reader thread: {e}"))?
    };
    let writer_thread = {
        let bytes_tx = Arc::clone(&bytes_tx);
        let write_fail = Arc::clone(&write_fail);
        std::thread::Builder::new()
            .name("dist-writer".to_owned())
            .spawn(move || writer_loop(write_stream, &out_rx, &bytes_tx, &write_fail))
            .map_err(|e| format!("spawn writer thread: {e}"))?
    };
    // Dropping `hb_stop` wakes the heartbeat thread at once, so teardown
    // never waits out a heartbeat period.
    let (hb_stop, hb_stopped) = std::sync::mpsc::channel::<()>();
    let heartbeat_thread = {
        let out_tx = out_tx.clone();
        std::thread::Builder::new()
            .name("dist-heartbeat".to_owned())
            .spawn(move || {
                let period = heartbeat.max(Duration::from_millis(1));
                while let Err(RecvTimeoutError::Timeout) = hb_stopped.recv_timeout(period) {
                    let beat = Outgoing {
                        msg: Message::Heartbeat,
                        due: half_rtt.map(|d| Instant::now() + d),
                    };
                    if out_tx.send(beat).is_err() {
                        break;
                    }
                }
            })
            .map_err(|e| format!("spawn heartbeat thread: {e}"))?
    };

    let mut report = WorkerReport {
        worker_id,
        chunks: 0,
        points: 0,
        refused: 0,
        bytes_tx: 0,
        bytes_rx: 0,
        busy: Duration::ZERO,
        idle: Duration::ZERO,
    };
    set_parallelism(cfg.jobs);

    // The resolved base device and whole-grid factored plan of the
    // current job — or why it is refused — keyed by the spec fingerprint,
    // so back-to-back jobs over the same spec reuse one plan. Resolving
    // the device alone costs several times a small chunk's evaluation.
    let mut prepared: Option<(u64, Result<Prepared, String>)> = None;
    // A refused job's chunks are dropped silently while the coordinator
    // winds us down.
    let mut refused_job: Option<u64> = None;

    let record_idle = |report: &mut WorkerReport, idle: Duration| {
        report.idle += idle;
        metrics
            .counter("dist.worker.idle_time")
            .add_duration_us(idle);
    };

    let outcome = loop {
        // Double-buffering in action: when the credit window is doing
        // its job the next chunk is already queued and `try_recv`
        // succeeds; a blocking wait is an exposed-communication stall.
        let item = match work_rx.try_recv() {
            Ok(item) => item,
            Err(TryRecvError::Empty) => {
                metrics.counter("dist.pipeline.stalls").inc();
                let t0 = Instant::now();
                match work_rx.recv() {
                    Ok(item) => {
                        record_idle(&mut report, t0.elapsed());
                        item
                    }
                    Err(_) => break Err("worker reader thread died".to_owned()),
                }
            }
            Err(TryRecvError::Disconnected) => break Err("worker reader thread died".to_owned()),
        };
        let (job, chunk, deliver_at) = match item {
            WorkItem::Job(job) => {
                let fingerprint = job.spec.fingerprint();
                let refusal = if fingerprint == job.fingerprint {
                    if prepared.as_ref().is_some_and(|(fp, _)| *fp == fingerprint) {
                        metrics.counter("dist.plan_cache_hits").inc();
                    } else {
                        prepared = Some((fingerprint, prepare(&job.spec)));
                        metrics.counter("dist.plan_cache_builds").inc();
                    }
                    prepared
                        .as_ref()
                        .and_then(|(_, p)| p.as_ref().err().cloned())
                } else {
                    Some(format!(
                        "job fingerprint {:#018x} does not match its spec, which hashes to {fingerprint:#018x}",
                        job.fingerprint
                    ))
                };
                let Some(reason) = refusal else { continue };
                report.refused += 1;
                refused_job = Some(job.id);
                metrics.counter("dist.leases_refused").inc();
                let refuse = Outgoing {
                    msg: Message::Refuse {
                        job: job.id,
                        reason,
                    },
                    due: half_rtt.map(|d| Instant::now() + d),
                };
                if out_tx.send(refuse).is_err() {
                    break Err(writer_error(&write_fail));
                }
                continue;
            }
            WorkItem::Chunk {
                job,
                chunk,
                deliver_at,
            } => (job, chunk, deliver_at),
            WorkItem::Done => break Ok(()),
            WorkItem::Failed(e) => break Err(e),
        };
        // Injected propagation delay: the lease "arrives" half an RTT
        // after the reader pulled it off the loopback socket.
        if let Some(due) = deliver_at {
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
                record_idle(&mut report, due - now);
            }
        }
        let queued = depth.fetch_sub(1, Ordering::Relaxed) - 1;
        metrics.gauge("dist.pipeline.depth").set(queued as f64);

        if refused_job == Some(job.id) {
            continue;
        }
        // Every job the loop did not refuse was prepared when it arrived.
        let Some((_, Ok(Prepared { device, plan }))) = &prepared else {
            continue;
        };
        let _span = twocs_obs::span(&format!("evaluate chunk {chunk}"), "dist");
        let t0 = Instant::now();
        if let Some(delay) = chunk_delay {
            std::thread::sleep(delay);
        }
        // Factored or naive, per-point panics degrade to per-point
        // errors and the values are bit-identical to a local run's —
        // the merge contract.
        let ranks = job.index.chunk_ranks(chunk as usize, job.chunk_size());
        let mut values = PointResults::new();
        eval_chunk(
            plan.as_ref(),
            device,
            &job.spec.sweep,
            &job.index,
            ranks,
            &mut values,
        );
        let busy = t0.elapsed();
        report.busy += busy;
        metrics
            .counter("dist.worker.busy_time")
            .add_duration_us(busy);
        report.chunks += 1;
        report.points += values.len() as u64;
        metrics.counter("dist.chunks_evaluated").inc();
        let result = Outgoing {
            msg: Message::ChunkResult {
                job: job.id,
                chunk,
                values,
            },
            due: half_rtt.map(|d| Instant::now() + d),
        };
        if out_tx.send(result).is_err() {
            break Err(writer_error(&write_fail));
        }
    };

    // Teardown: stop the heartbeat first (it holds an outgoing sender),
    // then drop ours so the writer drains the queue and exits, and only
    // then shut the socket down to unblock the reader.
    drop(hb_stop);
    drop(out_tx);
    let _ = heartbeat_thread.join();
    let _ = writer_thread.join();
    let _ = stream.shutdown(std::net::Shutdown::Both);
    let _ = reader_thread.join();
    report.bytes_tx = bytes_tx.load(Ordering::Relaxed);
    report.bytes_rx = bytes_rx.load(Ordering::Relaxed);
    outcome.map(|()| report)
}

/// The writer thread's recorded failure, or a generic message if it
/// vanished without one.
fn writer_error(fail: &Mutex<Option<String>>) -> String {
    fail.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
        .unwrap_or_else(|| "worker writer thread died".to_owned())
}

/// A job this worker can evaluate: its base device and, when the sweep
/// has a factored form, its whole-grid plan (`None` = naive path).
struct Prepared {
    device: DeviceSpec,
    plan: Option<FactoredPlan>,
}

/// Validate a job's grid, resolve its device from the catalog (same name
/// and fingerprint as the coordinator's, so both sides provably evaluate
/// the same hardware model) and build its plan — or say why not.
fn prepare(spec: &SweepSpec) -> Result<Prepared, String> {
    spec.sweep.validate()?;
    let device = DeviceSpec::catalog()
        .into_iter()
        .find(|d| d.name() == spec.device_name && d.fingerprint() == spec.device_fingerprint)
        .ok_or_else(|| format!("device `{}` not in this worker's catalog", spec.device_name))?;
    let plan = FactoredPlan::build_from_sweep(&device, &spec.sweep);
    Ok(Prepared { device, plan })
}
