//! `serve_zipf`: a `twocs serve` child with its response cache on, fed
//! small projection `/v1/sweep` grids whose popularity is Zipf(1.1): most
//! requests re-read cached bodies while a long tail of first-seen
//! queries keeps missing for the whole run.
//!
//! Load is open-loop: one generator thread sends each request when it is
//! due, over two keep-alive connections that each carry one request at a
//! time, and every
//! latency is timed from the due time. A generator that falls behind
//! invalidates the run.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use twocs::analysis::sweep::{GridSweep, PointResults};
use twocs::analysis::FactoredPlan;
use twocs::serve::handlers::{handle, HandlerConfig};
use twocs::serve::http::Request;

use crate::inputs::{check_sample, query_universe, Arrival, Query, Traffic, QUERY_POINTS};
use crate::layers::{counter, report_build};
use crate::proc::{addr_after, peak_rss_mb, read_line_with, Fnv, Proc};
use crate::report::{clear_model_caches, CacheCounters, Outcome};
use crate::spans::{Lane, Trace};
use crate::stats::{best_window, median, ms, quantile};
use crate::Ctx;

/// Offered loads, frozen as absolute rates: about a quarter and three
/// quarters of the ~1,200 req/s the ladder sustained within the latency
/// limit on a 2-core x86-64 container (release build, `twocs serve
/// --jobs 2`; the closed-loop probe answers about 1,800 req/s).
const RATE_LOW: f64 = 300.0;
const RATE_HIGH: f64 = 900.0;
/// Share of `--seconds` the low-rate phase is scheduled over.
const LOW_SHARE: f64 = 0.2;
/// Requests in the closed-loop capacity probe per second of `--seconds`:
/// at the ~1,800 req/s it reaches, the probe takes about three fifths
/// of the run.
const PROBE_REQUESTS_PER_S: f64 = 1100.0;
/// Ladder of absolute rates searched for `serve.max_rate_rps`.
const LADDER: &[f64] = &[600.0, 800.0, 1000.0, 1200.0, 1400.0, 1600.0, 1800.0, 2000.0];
const LADDER_STEP_S: f64 = 1.5;
/// The p99 limit a ladder rate must meet, from each request's due time.
const LATENCY_LIMIT_MS: f64 = 25.0;
/// A run whose generator sent its p99 request later than this after its
/// due time measured the generator, not the server: it is invalid.
const LAG_LIMIT_MS: f64 = 50.0;
const ZIPF_S: f64 = 1.1;
const UNIVERSE: usize = 100_000;
const CONNS: usize = 2;
/// Requests per keep-alive connection before the server closes it
/// (`twocs serve` default); the generator opens a fresh one instead.
const PER_CONN: usize = 1024;
/// Requests left queued at the end of a ladder step that count as a
/// growing backlog.
const BACKLOG_LIMIT: usize = 16;
const SETUP_SPAWNS: usize = 151;
/// Distinct queries whose bodies are checked against `handlers::handle`.
const SAMPLE_QUERIES: usize = 200;
/// Distinct queries the traced run prices layer by layer.
const LAYER_QUERIES: usize = 1000;
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A `twocs serve` child and its bound address.
struct Server {
    proc: Proc,
    addr: String,
    setup: f64,
    _stdout: BufReader<Box<dyn Read + Send>>,
    _stderr: JoinHandle<String>,
}

fn start_server(ctx: &Ctx) -> Result<Server, String> {
    let args = ["serve", "--addr", "127.0.0.1:0", "--jobs", "2"].map(str::to_owned);
    let mut proc = Proc::spawn(&ctx.twocs, &args, &[])?;
    let stderr = proc.collect_stderr();
    let stdout: Box<dyn Read + Send> = Box::new(proc.stdout());
    let mut stdout = BufReader::new(stdout);
    let line = read_line_with(&mut stdout, "listening on http://")?;
    let addr = addr_after(&line, "http://")?;
    let deadline = Instant::now() + IO_TIMEOUT;
    while healthz(&addr) != Some(200) {
        if Instant::now() > deadline {
            return Err("twocs serve never answered /v1/healthz".to_owned());
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Ok(Server {
        setup: proc.spawned.elapsed().as_secs_f64(),
        proc,
        addr,
        _stdout: stdout,
        _stderr: stderr,
    })
}

fn get(addr: &str, path: &str) -> Option<(u16, Vec<u8>)> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(IO_TIMEOUT)).ok()?;
    s.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .ok()?;
    let mut r = BufReader::new(s);
    read_response(&mut r).ok()
}

fn healthz(addr: &str) -> Option<u16> {
    get(addr, "/v1/healthz").map(|(status, _)| status)
}

/// One HTTP/1.1 response: status and body.
fn read_response(r: &mut impl BufRead) -> std::io::Result<(u16, Vec<u8>)> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(std::io::ErrorKind::InvalidData)?;
    let mut len = 0usize;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        if line == "\r\n" {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                len = v
                    .trim()
                    .parse()
                    .map_err(|_| std::io::ErrorKind::InvalidData)?;
            }
        }
    }
    let mut body = vec![0; len];
    r.read_exact(&mut body)?;
    Ok((status, body))
}

fn request(q: &Query) -> Vec<u8> {
    format!("GET /v1/sweep?{} HTTP/1.1\r\nHost: bench\r\n\r\n", q.raw).into_bytes()
}

/// Expected bodies of the checked queries, keyed by universe index.
type Bodies = Arc<HashMap<usize, u64>>;

fn body_hash(body: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.update(body);
    h.0
}

/// One answered (or failed) request of an open-loop schedule.
#[derive(Debug, Clone, Copy)]
struct Answer {
    /// Index into the schedule.
    at: usize,
    latency: f64,
    ok: bool,
}

/// What an open-loop schedule measured.
struct Measured {
    answers: Vec<Answer>,
    lag: Vec<f64>,
    backlog_max: usize,
    backlog_end: usize,
    mismatches: usize,
}

/// A keep-alive client connection that sends one request at a time, as
/// most HTTP clients do, and reconnects once the server's per-connection
/// request budget is spent or the connection fails.
struct Client<'a> {
    addr: &'a str,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
    sent: usize,
}

impl<'a> Client<'a> {
    fn new(addr: &'a str) -> Self {
        Self {
            addr,
            conn: None,
            sent: 0,
        }
    }

    fn connect(&self) -> Option<(TcpStream, BufReader<TcpStream>)> {
        let stream = TcpStream::connect(self.addr).ok()?;
        stream.set_nodelay(true).ok()?;
        stream.set_read_timeout(Some(IO_TIMEOUT)).ok()?;
        let reader = BufReader::with_capacity(1 << 16, stream.try_clone().ok()?);
        Some((stream, reader))
    }

    /// Send `q` and read its response; `None` on any I/O failure.
    fn call(&mut self, q: &Query) -> Option<(u16, Vec<u8>)> {
        if self.sent == PER_CONN {
            self.conn = None;
        }
        if self.conn.is_none() {
            self.conn = self.connect();
            self.sent = 0;
        }
        let (w, r) = self.conn.as_mut()?;
        self.sent += 1;
        let got = w
            .write_all(&request(q))
            .ok()
            .and_then(|()| read_response(r).ok());
        if got.is_none() {
            self.conn = None;
        }
        got
    }
}

/// Send `schedule` open-loop: the generator queues each request at
/// `start + due`, and `CONNS` connections take them in arrival order.
fn open_loop(
    addr: &str,
    universe: &[Query],
    schedule: &[Arrival],
    bodies: &Bodies,
    start: Instant,
) -> Result<Measured, String> {
    let (tx, rx) = channel::<(usize, usize, Instant)>();
    let rx = Mutex::new(rx);
    let outstanding = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let tx = tx;
        let conns: Vec<_> = (0..CONNS)
            .map(|_| {
                let (rx, outstanding) = (&rx, &outstanding);
                s.spawn(move || {
                    let mut client = Client::new(addr);
                    let (mut answers, mut mismatches) = (Vec::new(), 0);
                    loop {
                        let job = rx.lock().expect("request queue lock").recv();
                        let Ok((at, query, due)) = job else { break };
                        let got = client.call(&universe[query]);
                        let latency = due.elapsed().as_secs_f64();
                        outstanding.fetch_sub(1, Ordering::Relaxed);
                        if let (Some((_, body)), Some(want)) = (&got, bodies.get(&query)) {
                            mismatches += usize::from(body_hash(body) != *want);
                        }
                        let ok = matches!(got, Some((200, _)));
                        answers.push(Answer { at, latency, ok });
                    }
                    (answers, mismatches)
                })
            })
            .collect();
        let mut lag = Vec::with_capacity(schedule.len());
        let mut backlog_max = 0;
        for (i, a) in schedule.iter().enumerate() {
            let due = start + Duration::from_secs_f64(a.due_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let depth = outstanding.fetch_add(1, Ordering::Relaxed) + 1;
            backlog_max = backlog_max.max(depth);
            lag.push(due.elapsed().as_secs_f64());
            if tx.send((i, a.query, due)).is_err() {
                break;
            }
        }
        let backlog_end = outstanding.load(Ordering::Relaxed);
        drop(tx);
        let (mut answers, mut mismatches) = (Vec::with_capacity(schedule.len()), 0);
        for conn in conns {
            let (a, m) = conn.join().map_err(|_| "a client connection panicked")?;
            answers.extend(a);
            mismatches += m;
        }
        answers.sort_by_key(|a| a.at);
        Ok(Measured {
            answers,
            lag,
            backlog_max,
            backlog_end,
            mismatches,
        })
    })
}

/// What a closed-loop probe measured.
struct Probe {
    wall: f64,
    answered: usize,
    failed: usize,
    mismatches: usize,
}

/// Closed-loop capacity probe: each connection sends its next request
/// as soon as the last is answered, until every query in `queries` has
/// been asked.
fn closed_loop(
    addr: &str,
    universe: &[Query],
    queries: &[usize],
    bodies: &Bodies,
) -> Result<Probe, String> {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let results = std::thread::scope(|s| {
        let conns: Vec<_> = (0..CONNS)
            .map(|_| {
                let cursor = &cursor;
                s.spawn(move || {
                    let mut client = Client::new(addr);
                    let (mut answered, mut failed, mut mismatches) = (0, 0, 0);
                    while let Some(&q) = queries.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        match client.call(&universe[q]) {
                            Some((200, body)) => {
                                answered += 1;
                                if let Some(want) = bodies.get(&q) {
                                    mismatches += usize::from(body_hash(&body) != *want);
                                }
                            }
                            _ => failed += 1,
                        }
                    }
                    (answered, failed, mismatches)
                })
            })
            .collect();
        conns
            .into_iter()
            .map(|c| {
                c.join()
                    .map_err(|_| "a probe connection panicked".to_owned())
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut probe = Probe {
        wall: start.elapsed().as_secs_f64(),
        answered: 0,
        failed: 0,
        mismatches: 0,
    };
    for (a, f, m) in results {
        probe.answered += a;
        probe.failed += f;
        probe.mismatches += m;
    }
    Ok(probe)
}

/// Inputs shared by the untraced and traced runs.
struct Plan {
    universe: Vec<Query>,
    low: Vec<Arrival>,
    /// The untraced run's capacity probe: the stream's next queries
    /// after the low phase.
    probe: Vec<usize>,
    /// The traced run's high phase, drawn after the low phase too.
    high: Vec<Arrival>,
    traffic: Traffic,
    bodies: Bodies,
}

fn direct(q: &Query) -> Vec<u8> {
    handle(
        &Request::get("/v1/sweep", &q.raw),
        &HandlerConfig::default(),
    )
    .body
    .into_bytes()
}

fn plan(ctx: &Ctx) -> Plan {
    let secs = ctx.seconds.as_secs_f64();
    let universe = query_universe(ctx.seed, UNIVERSE);
    let mut traffic = Traffic::new(ctx.seed, UNIVERSE, ZIPF_S);
    let low = traffic.poisson(RATE_LOW, LOW_SHARE * secs);
    let probe = traffic
        .clone()
        .queries((PROBE_REQUESTS_PER_S * secs) as usize);
    let high = traffic.poisson(RATE_HIGH, 0.2 * secs);
    let mut seen = HashSet::new();
    let distinct: Vec<usize> = low
        .iter()
        .chain(&high)
        .map(|a| a.query)
        .chain(probe.iter().copied())
        .filter(|q| seen.insert(*q))
        .collect();
    let bodies = check_sample(ctx.seed, distinct.len(), SAMPLE_QUERIES)
        .into_iter()
        .map(|i| (distinct[i], body_hash(&direct(&universe[distinct[i]]))))
        .collect();
    Plan {
        universe,
        low,
        probe,
        high,
        traffic,
        bodies: Arc::new(bodies),
    }
}

/// Run the low-rate phase and, when `high` is set, the high-rate phase
/// right after it on one schedule.
fn phases(server: &Server, p: &Plan, high: bool) -> Result<Measured, String> {
    let offset = p.low.last().map_or(0.0, |a| a.due_s) + 0.05;
    let high = if high { p.high.as_slice() } else { &[] };
    let schedule: Vec<Arrival> = p
        .low
        .iter()
        .copied()
        .chain(high.iter().map(|a| Arrival {
            due_s: a.due_s + offset,
            query: a.query,
        }))
        .collect();
    open_loop(
        &server.addr,
        &p.universe,
        &schedule,
        &p.bodies,
        Instant::now(),
    )
}

fn latencies(m: &Measured, range: std::ops::Range<usize>) -> Vec<f64> {
    m.answers[range].iter().map(|a| a.latency).collect()
}

/// Count failures and check the run's validity.
fn judge(m: &Measured, out: &mut Outcome) {
    let failed = m.answers.iter().filter(|a| !a.ok).count();
    out.attempted += m.answers.len() as u64;
    out.failed += (failed + m.mismatches) as u64;
    out.check(failed == 0, || {
        format!("{failed} requests were not answered 200")
    });
    out.check(m.mismatches == 0, || {
        format!(
            "{} sampled bodies differ from handlers::handle",
            m.mismatches
        )
    });
    let lag = ms(quantile(&m.lag, 0.99));
    out.check(lag <= LAG_LIMIT_MS, || {
        format!("generator p99 lateness {lag:.2} ms exceeds {LAG_LIMIT_MS} ms: run invalid")
    });
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut p = plan(ctx);
    if ctx.trace {
        return traced(ctx, &mut p, out);
    }
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_SPAWNS {
        let s = start_server(ctx)?;
        setups.push(s.setup);
        server = Some(s);
    }
    let server = server.expect("at least one spawn");
    let m = phases(&server, &p, false)?;
    judge(&m, out);
    let probe = closed_loop(&server.addr, &p.universe, &p.probe, &p.bodies)?;
    let (failed, mismatches) = (probe.failed, probe.mismatches);
    out.attempted += p.probe.len() as u64;
    out.failed += (failed + mismatches) as u64;
    out.check(failed == 0, || format!("{failed} probe requests failed"));
    out.check(mismatches == 0, || {
        format!("{mismatches} sampled probe bodies differ from handlers::handle")
    });
    let rss = peak_rss_mb(server.proc.pid()).ok_or("cannot read the server's peak RSS")?;
    let low = latencies(&m, 0..m.answers.len());
    eprintln!(
        "perfbench: serve_zipf: {} requests at {RATE_LOW} req/s (p50 {:.3} ms, p99 {:.3} ms), \
         probe answered {} in {:.2} s, generator p99 lateness {:.3} ms, backlog max {}",
        low.len(),
        ms(best_window(&low, 0.5)),
        ms(best_window(&low, 0.99)),
        probe.answered,
        probe.wall,
        ms(quantile(&m.lag, 0.99)),
        m.backlog_max
    );
    out.set("setup_s", median(&setups));
    out.set(
        "points_per_s",
        (probe.answered * QUERY_POINTS) as f64 / probe.wall,
    );
    out.set("peak_rss_mb", rss);
    Ok(())
}

/// A number after `"key":` in flat JSON, or inside the object there.
fn json_field(json: &str, key: &str, inner: Option<&str>) -> Result<f64, String> {
    let missing = || {
        let inner = inner.map(|i| format!(".{i}")).unwrap_or_default();
        format!("/v1/metrics has no readable {key}{inner}")
    };
    let at = json.find(&format!("\"{key}\":")).ok_or_else(missing)?;
    let mut rest = &json[at + key.len() + 3..];
    if let Some(inner) = inner {
        let i = rest.find(&format!("\"{inner}\":")).ok_or_else(missing)?;
        rest = &rest[i + inner.len() + 3..];
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().map_err(|_| missing())
}

fn traced(ctx: &Ctx, p: &mut Plan, out: &mut Outcome) -> Result<(), String> {
    let server = start_server(ctx)?;
    let m = phases(&server, p, true)?;
    judge(&m, out);
    let n_low = p.low.len();

    // Ladder: the highest fixed rate whose p99 meets the limit with no
    // backlog left growing at the end of the step.
    let (mut max_rate, mut ladder_failed) = (0.0, 0);
    for &rate in LADDER {
        let step = p.traffic.poisson(rate, LADDER_STEP_S);
        let s = open_loop(&server.addr, &p.universe, &step, &p.bodies, Instant::now())?;
        ladder_failed += s.answers.iter().filter(|a| !a.ok).count();
        let lat: Vec<f64> = s
            .answers
            .iter()
            .map(|a| if a.ok { a.latency } else { f64::INFINITY })
            .collect();
        let p99 = ms(quantile(&lat, 0.99));
        eprintln!(
            "perfbench: ladder {rate} req/s: p99 {p99:.2} ms, backlog end {}",
            s.backlog_end
        );
        if p99 > LATENCY_LIMIT_MS || s.backlog_end > BACKLOG_LIMIT {
            break;
        }
        max_rate = rate;
    }
    let metrics = get(&server.addr, "/v1/metrics?format=json")
        .map(|(_, b)| String::from_utf8_lossy(&b).into_owned())
        .ok_or("cannot read /v1/metrics")?;
    drop(server);

    let schedule: Vec<Arrival> = p.low.iter().chain(&p.high).copied().collect();
    let mut seen = HashSet::new();
    let (mut hit, mut miss) = (Vec::new(), Vec::new());
    for a in &m.answers {
        let first = seen.insert(schedule[a.at].query);
        if first { &mut miss } else { &mut hit }.push(a.latency);
    }
    let low = latencies(&m, 0..n_low);
    out.set("serve.p50_ms.low", ms(best_window(&low, 0.5)));
    out.set("serve.p99_ms.low", ms(best_window(&low, 0.99)));
    let high = latencies(&m, n_low..m.answers.len());
    out.set("serve.p50_ms.high", ms(best_window(&high, 0.5)));
    out.set("serve.p99_ms.high", ms(best_window(&high, 0.99)));
    out.set("serve.hit_p50_ms", ms(median(&hit)));
    out.set("serve.miss_p50_ms", ms(median(&miss)));
    out.set("serve.max_rate_rps", max_rate);
    out.set("loadgen.lag_p99_ms", ms(quantile(&m.lag, 0.99)));
    out.set("loadgen.backlog_max", m.backlog_max as f64);
    let hits = json_field(&metrics, "serve.cache.hits", None)?;
    let misses = json_field(&metrics, "serve.cache.misses", None)?;
    out.set("serve.cache.hit_ratio", hits / (hits + misses));
    out.set(
        "serve.cache.entries",
        json_field(&metrics, "serve.cache.entries", None)?,
    );
    // The server registers this counter on its first shed only, so it
    // may be absent only when every request was answered.
    let rejected = match json_field(&metrics, "serve.rejected_total", None) {
        Err(_) if ladder_failed == 0 && m.answers.iter().all(|a| a.ok) => 0.0,
        got => got?,
    };
    out.set("serve.rejected", rejected);
    let handled = json_field(&metrics, "serve.requests_total", None)?;
    let sent = m.answers.len();
    out.check(handled >= sent as f64, || {
        format!("/v1/metrics counts {handled} requests, fewer than the {sent} sent")
    });
    out.set(
        "serve.request_us.p99",
        json_field(&metrics, "serve.request_us", Some("p99"))?,
    );

    let mut seen = HashSet::new();
    let distinct: Vec<&Query> = schedule
        .iter()
        .filter(|a| seen.insert(a.query))
        .take(LAYER_QUERIES)
        .map(|a| &p.universe[a.query])
        .collect();
    layers(ctx, &distinct, out)
}

/// Price the run's first distinct queries layer by layer: once through
/// `handlers::handle` untraced, once composed from the planner, grid and
/// renderer calls with a span around each.
fn layers(ctx: &Ctx, queries: &[&Query], out: &mut Outcome) -> Result<(), String> {
    clear_model_caches();
    let start = Instant::now();
    let mut handler = Vec::with_capacity(queries.len());
    let mut want = Vec::with_capacity(queries.len());
    for q in queries {
        let t = Instant::now();
        let body = direct(q);
        handler.push(t.elapsed().as_secs_f64());
        want.push(body_hash(&body));
    }
    let untraced = start.elapsed().as_secs_f64();

    clear_model_caches();
    let caches = CacheCounters::read();
    let plans = counter("sweep.factored_plans");
    let origin = Instant::now();
    let mut lane = Lane::new(origin);
    let mut mismatches = 0;
    for (q, want) in queries.iter().zip(&want) {
        let plan = lane
            .time("planner.build", || {
                FactoredPlan::build_from_sweep(&ctx.device, &q.grid)
            })
            .ok_or("a query grid has no factored plan")?;
        let index = q.grid.index();
        let points = lane.time("grid.decode", || index.range(0, index.len()));
        let mut values = PointResults::with_capacity(points.len());
        lane.time("planner.eval", || plan.eval_batch(&points, &mut values));
        let csv = lane.time("render.to_csv", || {
            GridSweep::tabulate(&points, &values).to_csv()
        });
        let mut h = Fnv::default();
        h.update(csv.as_bytes());
        h.update(b"\n");
        mismatches += usize::from(h.0 != *want);
    }
    let window = origin.elapsed().as_secs_f64();
    let caches_after = CacheCounters::read();
    let builds = (counter("sweep.factored_plans") - plans) as usize;
    let mut trace = Trace::default();
    trace.add(lane);
    out.attempted += queries.len() as u64;
    out.failed += mismatches as u64;
    out.check(mismatches == 0, || {
        format!("{mismatches} composed bodies differ from handlers::handle")
    });
    out.set("wall_s", window);
    out.set("trace.overhead", window / untraced - 1.0);
    out.set("trace.uncovered_share", trace.uncovered_share(0.0, window));
    out.set("serve.handler_ms", ms(median(&handler)));
    out.set("grid.decode_s", trace.total("grid.decode"));
    out.set("planner.eval_s", trace.total("planner.eval"));
    out.set("render.to_csv_s", trace.total("render.to_csv"));
    caches_after.report_since(&caches, out);
    let grids: Vec<&GridSweep> = queries.iter().map(|q| &q.grid).collect();
    report_build(
        out,
        &ctx.device,
        &grids,
        trace.total("planner.build"),
        builds,
    );
    out.zero_layers(&["store.", "runner.", "dist."]);
    Ok(())
}
