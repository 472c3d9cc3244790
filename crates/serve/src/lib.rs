//! `twocs-serve` — a std-only HTTP/1.1 query service over the paper's
//! projection models.
//!
//! The repo's sweeps answer "render every point of a figure"; this crate
//! answers the complementary interactive question — "what does the model
//! say about *this* configuration?" — without paying process startup per
//! query. A long-running `twocs serve` process memoizes whole rendered
//! bodies in a [`ResponseCache`], so repeat queries are answered without
//! touching the models at all (visible in `/v1/metrics` as
//! `serve.cache.*`); nothing model-side outlives a request.
//!
//! Endpoints (`GET` and `HEAD`):
//!
//! | path             | answers                                              |
//! |------------------|------------------------------------------------------|
//! | `/v1/serialized` | grid sweep, CSV byte-identical to `twocs sweep --csv`|
//! | `/v1/sweep`      | alias for `/v1/serialized`                           |
//! | `/v1/overlapped` | §4.3.5 slack-ROI percentage for one configuration    |
//! | `/v1/evolve`     | both metrics on flop-vs-bw-evolved hardware (§4.3.6) |
//! | `/v1/healthz`    | liveness probe                                       |
//! | `/v1/metrics`    | the `twocs-obs` metrics registry (text or JSON)      |
//!
//! # Architecture
//!
//! One **event-loop thread** multiplexes every connection over
//! `poll(2)` (see [`poll`]): sockets are nonblocking, each connection
//! runs a small state machine (read-head → dispatched → write-response
//! → idle, with idle/read deadlines and a max-requests-per-connection
//! cap), and HTTP/1.1 keep-alive lets one connection carry many
//! requests — including pipelined ones. Request **compute** stays off
//! the event loop: parsed requests are handed to `jobs` worker threads
//! through a bounded queue ([`pool::Bounded`], spawned via
//! `twocs_core::sweep::run_tasks_labeled` so requests inherit sweep-
//! style span attribution and panic isolation); finished responses come
//! back over a completion list and a self-pipe [`poll::Waker`], so a
//! response hits the socket as soon as it is computed, not on the next
//! poll tick.
//!
//! Overload sheds instead of buffering: a full work queue answers
//! `503 Connection: close` per request, and connections beyond
//! [`ServerConfig::max_connections`] are shed at accept with a
//! best-effort `503`. On shutdown (signal or
//! [`ShutdownHandle::trigger`]) the loop stops accepting, closes the
//! work queue, lets dispatched requests finish and their responses
//! flush, then joins the workers before [`Server::run`] returns.
//!
//! Everything is std: the HTTP parser, percent-decoding, JSON
//! rendering, the queue, and two narrow libc FFIs (`signal` in
//! [`shutdown`], `poll`/`pipe` in [`poll`]).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod handlers;
pub mod http;
pub mod poll;
pub mod pool;
pub mod query;
pub mod router;
pub mod shutdown;

pub use cache::ResponseCache;
pub use handlers::HandlerConfig;
pub use shutdown::{install_signal_handler, ShutdownHandle};

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use http::{scan_head, HeadScan, Request, Response, MAX_HEAD_BYTES};
use poll::{Interest, Poller, Source, Waker};
use pool::Bounded;

/// Tuning knobs for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:7878` (`:0` picks an ephemeral
    /// port, reported by [`Server::local_addr`]).
    pub addr: String,
    /// Request worker threads.
    pub jobs: usize,
    /// Dispatched-request queue depth; beyond it requests get `503`.
    pub queue: usize,
    /// Deadline for reading a started request head and for flushing a
    /// response to a slow client.
    pub request_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// Connection budget: accepts beyond this many concurrent
    /// connections are shed with a best-effort `503 Connection: close`.
    pub max_connections: usize,
    /// Requests served on one connection before the server closes it
    /// (bounds per-connection resource lifetime).
    pub max_requests_per_conn: u64,
    /// Whether to memoize full response bodies in a [`ResponseCache`]
    /// (`serve.cache.*` metrics). Disabled, every request recomputes.
    pub cache_responses: bool,
    /// Handler limits (grid-point cap, per-request jobs cap, debug
    /// endpoints, executor, cache injection).
    pub handler: HandlerConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_owned(),
            jobs: 4,
            queue: 64,
            request_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(5),
            max_connections: 512,
            max_requests_per_conn: 1024,
            cache_responses: true,
            handler: HandlerConfig::default(),
        }
    }
}

/// What a server did over its lifetime, returned by [`Server::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests handed to a worker (whatever status they were answered
    /// with).
    pub served: u64,
    /// Requests or connections shed with `503` (full work queue, or
    /// over the connection budget).
    pub rejected: u64,
}

/// A bound-but-not-yet-running query service.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    shutdown: ShutdownHandle,
    poller: Poller,
}

/// Upper bound on one poll wait. The shutdown flag is only a signal-set
/// atomic (it cannot wake the poller), so this caps shutdown latency;
/// everything else — accepts, request bytes, worker completions — wakes
/// the loop immediately.
const TICK: Duration = Duration::from_millis(25);

/// Grace period spent discarding a half-sent request after an error
/// response, so closing with unread bytes does not turn into a kernel
/// `RST` that destroys the `431`/`408` before the client reads it.
const DRAIN_GRACE: Duration = Duration::from_millis(250);

/// Accepts drained per listener-readable event, so one accept storm
/// cannot starve connected clients of loop time.
const ACCEPT_BURST: usize = 64;

/// Body text for shed responses (tests and dashboards grep "capacity").
const AT_CAPACITY: &str = "server is at capacity; retry shortly";

impl Server {
    /// Bind `config.addr` and prepare to serve. The listener is
    /// nonblocking; the self-pipe waker is created here so binding
    /// reports fd exhaustion as an error instead of a panic later.
    pub fn bind(config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Self {
            listener,
            config,
            shutdown: ShutdownHandle::new(),
            poller: Poller::new()?,
        })
    }

    /// The actual bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A trigger that stops this server gracefully from another thread.
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Serve until shutdown is triggered (handle or signal), then let
    /// in-flight requests finish and flush before returning lifetime
    /// stats.
    ///
    /// Blocks the calling thread: the poll event loop runs on it
    /// directly, while the `jobs` request workers run on a scoped
    /// `run_tasks_labeled` pool so every request is traced and counted
    /// like a sweep task.
    pub fn run(self) -> ServeStats {
        let metrics = twocs_obs::metrics::global();
        let mut handler = self.config.handler.clone();
        if self.config.cache_responses && handler.cache.is_none() {
            handler.cache = Some(Arc::new(ResponseCache::new()));
        }
        let work: Arc<Bounded<Job>> = Arc::new(Bounded::with_gauge(
            self.config.queue,
            metrics.gauge("serve.queue_depth"),
        ));
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::default();
        let waker = self.poller.waker();
        let jobs = self.config.jobs.max(1);
        let ctx = LoopCtx {
            work: &work,
            request_timeout: self.config.request_timeout,
            idle_timeout: self.config.idle_timeout,
            max_requests_per_conn: self.config.max_requests_per_conn.max(1),
        };
        let mut stats = ServeStats::default();
        std::thread::scope(|scope| {
            let workers = {
                let work = Arc::clone(&work);
                let completions = Arc::clone(&completions);
                let handler = &handler;
                let worker_waker = waker.clone();
                scope.spawn(move || {
                    twocs_core::sweep::run_tasks_labeled(
                        jobs,
                        jobs,
                        |w| format!("serve worker {w}"),
                        |_w| worker_loop(&work, handler, &completions, &worker_waker),
                    );
                })
            };

            let mut conns: HashMap<u64, Conn> = HashMap::new();
            let mut next_token: u64 = 0;
            let mut draining = false;
            loop {
                if !draining && self.shutdown.is_triggered() {
                    draining = true;
                    // No new requests; queued jobs still drain, workers
                    // exit once the queue is empty.
                    work.close();
                    // Connections waiting for a (next) request will
                    // never get one served; drop them now. Dispatched
                    // and Writing connections flush first.
                    conns.retain(|_, c| {
                        matches!(c.state, ConnState::Dispatched | ConnState::Writing { .. })
                    });
                }
                if draining && conns.is_empty() && completions.lock().unwrap().is_empty() {
                    break;
                }

                let sources: Vec<Source> = conns
                    .iter()
                    .filter_map(|(&token, c)| {
                        let interest = Interest {
                            read: matches!(c.state, ConnState::Reading | ConnState::Draining),
                            write: matches!(c.state, ConnState::Writing { .. }),
                        };
                        (interest.read || interest.write)
                            .then(|| Source::new(token, &c.stream, interest))
                    })
                    .collect();
                let listener = (!draining).then_some(&self.listener);
                let wait = match self.poller.wait(listener, &sources, TICK) {
                    Ok(wait) => wait,
                    Err(_) => {
                        // Poll failing outright (fd limit churn) is
                        // transient; back off one tick instead of
                        // spinning.
                        std::thread::sleep(TICK);
                        continue;
                    }
                };

                // 1. Worker completions → responses start writing.
                let done: Vec<Completion> = std::mem::take(&mut *completions.lock().unwrap());
                for completion in done {
                    let Some(conn) = conns.get_mut(&completion.token) else {
                        continue;
                    };
                    let close = conn.pending_close || draining;
                    let bytes = completion.response.to_bytes(!close, conn.head_only);
                    conn.state = ConnState::Writing {
                        bytes,
                        off: 0,
                        close,
                        drain: false,
                    };
                    conn.deadline = Some(Instant::now() + ctx.request_timeout);
                    if matches!(advance(conn, &ctx, &mut stats), Io::Close) {
                        conns.remove(&completion.token);
                    }
                }

                // 2. New connections (accepted in bounded bursts).
                if wait.listener_ready {
                    for _ in 0..ACCEPT_BURST {
                        match self.listener.accept() {
                            Ok((stream, _peer)) => {
                                if stream.set_nonblocking(true).is_err() {
                                    continue;
                                }
                                if conns.len() >= self.config.max_connections {
                                    shed_connection(stream, &mut stats);
                                    continue;
                                }
                                // Responses are small, separate writes:
                                // without this, a pipelined client's
                                // second answer waits for the delayed
                                // ACK of the first (Nagle).
                                let _ = stream.set_nodelay(true);
                                conns.insert(
                                    next_token,
                                    Conn {
                                        token: next_token,
                                        stream,
                                        buf: Vec::new(),
                                        state: ConnState::Reading,
                                        served: 0,
                                        deadline: Some(Instant::now() + ctx.idle_timeout),
                                        pending_close: false,
                                        head_only: false,
                                    },
                                );
                                next_token += 1;
                            }
                            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == ErrorKind::Interrupted => {}
                            Err(_) => break,
                        }
                    }
                }

                // 3. Socket readiness.
                for ev in &wait.events {
                    let Some(conn) = conns.get_mut(&ev.token) else {
                        continue;
                    };
                    let io = if ev.readable {
                        on_readable(conn, &ctx, &mut stats)
                    } else if ev.writable {
                        advance(conn, &ctx, &mut stats)
                    } else if ev.hangup {
                        Io::Close
                    } else {
                        Io::Continue
                    };
                    if matches!(io, Io::Close) {
                        conns.remove(&ev.token);
                    }
                }

                // 4. Deadlines: idle closes, mid-head 408s, stalled
                //    writers and expired drains dropped.
                let now = Instant::now();
                let expired: Vec<u64> = conns
                    .iter()
                    .filter(|(_, c)| c.deadline.is_some_and(|d| d <= now))
                    .map(|(&t, _)| t)
                    .collect();
                for token in expired {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    let io = match &conn.state {
                        // Idle between requests (or never spoke): close
                        // silently, that is what keep-alive timeouts do.
                        ConnState::Reading if conn.buf.is_empty() => Io::Close,
                        // Mid-head stall: tell the client before closing.
                        ConnState::Reading => {
                            count_status(408);
                            start_response(
                                conn,
                                Response::error(408, "timed out reading the request"),
                                true,
                                true,
                                &ctx,
                                &mut stats,
                            )
                        }
                        _ => Io::Close,
                    };
                    if matches!(io, Io::Close) {
                        conns.remove(&token);
                    }
                }
            }
            workers.join().expect("serve worker pool panicked");
        });
        stats
    }
}

/// One dispatched request, queued for the worker pool.
struct Job {
    token: u64,
    request: Request,
}

/// A finished response on its way back to the event loop.
struct Completion {
    token: u64,
    response: Response,
}

/// Per-connection state machine.
enum ConnState {
    /// Waiting for (more of) a request head.
    Reading,
    /// A request from this connection is in the worker pool; reading is
    /// paused until its response is written (pipelined bytes stay
    /// buffered).
    Dispatched,
    /// A serialized response is being flushed.
    Writing {
        /// Full wire bytes of the response.
        bytes: Vec<u8>,
        /// How many of them have been written so far.
        off: usize,
        /// Close (instead of returning to `Reading`) once flushed.
        close: bool,
        /// After flushing, linger in [`ConnState::Draining`] to absorb
        /// the rest of a half-sent request before closing.
        drain: bool,
    },
    /// Discarding unread request bytes before close (see
    /// [`DRAIN_GRACE`]).
    Draining,
}

struct Conn {
    /// This connection's key in the event loop's map, echoed on jobs so
    /// completions find their way back.
    token: u64,
    stream: TcpStream,
    /// Read-but-unconsumed bytes (partial heads, pipelined requests).
    buf: Vec<u8>,
    state: ConnState,
    /// Requests answered on this connection so far.
    served: u64,
    deadline: Option<Instant>,
    /// Close after the in-flight response (`Connection: close`, the
    /// per-connection request cap, or shutdown).
    pending_close: bool,
    /// The in-flight request was `HEAD`: serialize headers only.
    head_only: bool,
}

/// Shared loop parameters, bundled so helpers stay free functions.
struct LoopCtx<'a> {
    work: &'a Bounded<Job>,
    request_timeout: Duration,
    idle_timeout: Duration,
    max_requests_per_conn: u64,
}

/// What a connection-level step decided about the connection's fate.
enum Io {
    /// Keep the connection registered.
    Continue,
    /// Remove and drop it.
    Close,
}

/// One request worker: pop jobs until the queue closes and drains,
/// answer each through the handlers, hand the response back to the
/// event loop and wake it. Handler panics become `500`s so one bad
/// request cannot take a worker down.
fn worker_loop(
    work: &Bounded<Job>,
    handler: &HandlerConfig,
    completions: &Mutex<Vec<Completion>>,
    waker: &Waker,
) {
    let metrics = twocs_obs::metrics::global();
    while let Some(job) = work.pop() {
        let start = Instant::now();
        let response = {
            let _span = twocs_obs::span(
                &format!("{} {}", job.request.method, job.request.path),
                "serve",
            );
            catch_unwind(AssertUnwindSafe(|| handlers::handle(&job.request, handler)))
                .unwrap_or_else(|_| Response::error(500, "internal error answering this request"))
        };
        count_status(response.status);
        metrics
            .histogram("serve.request_us")
            .observe_duration(start.elapsed());
        completions.lock().unwrap().push(Completion {
            token: job.token,
            response,
        });
        waker.wake();
    }
}

fn count_status(status: u16) {
    twocs_obs::metrics::global()
        .counter(&format!("serve.responses.{}xx", status / 100))
        .inc();
}

/// Over the connection budget: best-effort one-shot `503` and drop. The
/// client has not sent anything yet (it just connected), so there are
/// no unread bytes to trigger an `RST` — the `503` survives the close.
fn shed_connection(mut stream: TcpStream, stats: &mut ServeStats) {
    stats.rejected += 1;
    let metrics = twocs_obs::metrics::global();
    metrics.counter("serve.rejected_total").inc();
    count_status(503);
    let _ = stream.write(&Response::error(503, AT_CAPACITY).to_bytes(false, false));
}

/// Readable socket: pull bytes according to state.
fn on_readable(conn: &mut Conn, ctx: &LoopCtx, stats: &mut ServeStats) -> Io {
    match conn.state {
        ConnState::Reading => {
            // Cap the read at the remaining head budget so the server
            // never buffers a single byte past MAX_HEAD_BYTES — the 431
            // boundary is exact.
            let want = (MAX_HEAD_BYTES - conn.buf.len()).min(4096);
            let mut tmp = [0u8; 4096];
            match conn.stream.read(&mut tmp[..want.max(1)]) {
                // EOF: nothing more will arrive, and if a partial head
                // is buffered there is no one left to answer.
                Ok(0) => Io::Close,
                Ok(n) => {
                    if conn.buf.is_empty() {
                        // First bytes of a new request: idle deadline
                        // becomes a (shorter) read deadline.
                        conn.deadline = Some(Instant::now() + ctx.request_timeout);
                    }
                    conn.buf.extend_from_slice(&tmp[..n]);
                    advance(conn, ctx, stats)
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    Io::Continue
                }
                Err(_) => Io::Close,
            }
        }
        ConnState::Draining => {
            let mut tmp = [0u8; 4096];
            match conn.stream.read(&mut tmp) {
                Ok(0) => Io::Close,
                Ok(_) => Io::Continue,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    Io::Continue
                }
                Err(_) => Io::Close,
            }
        }
        // Stale readiness for a paused/writing connection: ignore.
        _ => Io::Continue,
    }
}

/// Drive a connection as far as it can go without blocking: scan
/// buffered bytes for a head, dispatch it, flush response bytes, and —
/// on a completed keep-alive response — loop straight into the next
/// pipelined request.
fn advance(conn: &mut Conn, ctx: &LoopCtx, stats: &mut ServeStats) -> Io {
    loop {
        match &mut conn.state {
            ConnState::Reading => match scan_head(&conn.buf) {
                HeadScan::Partial => return Io::Continue,
                HeadScan::Complete(Ok(request), consumed) => {
                    conn.buf.drain(..consumed);
                    match dispatch(conn, request, ctx, stats) {
                        Io::Continue => return Io::Continue,
                        Io::Close => return Io::Close,
                    }
                }
                HeadScan::Complete(Err(e), consumed) => {
                    conn.buf.drain(..consumed);
                    count_status(e.status());
                    let drain = !conn.buf.is_empty();
                    conn.buf.clear();
                    match start_response(
                        conn,
                        Response::error(e.status(), &e.message()),
                        true,
                        drain,
                        ctx,
                        stats,
                    ) {
                        Io::Continue => return Io::Continue,
                        Io::Close => return Io::Close,
                    }
                }
                HeadScan::TooLarge => {
                    count_status(431);
                    conn.buf.clear();
                    let message = format!("request head exceeds {MAX_HEAD_BYTES} bytes");
                    match start_response(
                        conn,
                        Response::error(431, &message),
                        true,
                        true,
                        ctx,
                        stats,
                    ) {
                        Io::Continue => return Io::Continue,
                        Io::Close => return Io::Close,
                    }
                }
            },
            ConnState::Writing {
                bytes,
                off,
                close,
                drain,
            } => match conn.stream.write(&bytes[*off..]) {
                Ok(0) => return Io::Close,
                Ok(n) => {
                    *off += n;
                    if *off < bytes.len() {
                        continue;
                    }
                    conn.served += 1;
                    if *close {
                        if *drain {
                            conn.state = ConnState::Draining;
                            conn.deadline = Some(Instant::now() + DRAIN_GRACE);
                            return Io::Continue;
                        }
                        return Io::Close;
                    }
                    // Keep-alive: back to reading; pipelined bytes (if
                    // any) are scanned immediately on the next loop
                    // iteration, no extra poll round.
                    conn.state = ConnState::Reading;
                    conn.deadline = Some(Instant::now() + ctx.idle_timeout);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock) => return Io::Continue,
                Err(e) if matches!(e.kind(), ErrorKind::Interrupted) => continue,
                Err(_) => return Io::Close,
            },
            ConnState::Dispatched | ConnState::Draining => return Io::Continue,
        }
    }
}

/// Hand a parsed request to the worker pool (or shed it with `503` if
/// the queue is full).
fn dispatch(conn: &mut Conn, request: Request, ctx: &LoopCtx, stats: &mut ServeStats) -> Io {
    let metrics = twocs_obs::metrics::global();
    metrics.counter("serve.requests_total").inc();
    conn.head_only = request.method == "HEAD";
    conn.pending_close = request.close || conn.served + 1 >= ctx.max_requests_per_conn;
    match ctx.work.try_push(Job {
        token: conn.token,
        request,
    }) {
        Ok(()) => {
            stats.served += 1;
            conn.state = ConnState::Dispatched;
            // No deadline while the handler runs: slow sweeps finish at
            // their own pace, exactly like the thread-per-connection
            // server behaved.
            conn.deadline = None;
            Io::Continue
        }
        Err(_job) => {
            stats.rejected += 1;
            metrics.counter("serve.rejected_total").inc();
            count_status(503);
            start_response(
                conn,
                Response::error(503, AT_CAPACITY),
                true,
                false,
                ctx,
                stats,
            )
        }
    }
}

/// Put `response` on the wire: serialize under the connection's close
/// and `HEAD` semantics, switch to `Writing`, and flush as much as the
/// socket takes right now.
fn start_response(
    conn: &mut Conn,
    response: Response,
    close: bool,
    drain: bool,
    ctx: &LoopCtx,
    stats: &mut ServeStats,
) -> Io {
    let close = close || conn.pending_close;
    let bytes = response.to_bytes(!close, conn.head_only);
    conn.state = ConnState::Writing {
        bytes,
        off: 0,
        close,
        drain,
    };
    conn.deadline = Some(Instant::now() + ctx.request_timeout);
    advance(conn, ctx, stats)
}
