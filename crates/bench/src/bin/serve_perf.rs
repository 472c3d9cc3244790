//! Serve front-end performance benchmark, emitting `BENCH_serve.json`.
//!
//! Unlike `sweep_perf` (which times the sweep engine in-process), this
//! binary measures the HTTP surface end to end: it binds a real
//! `twocs_serve::Server` on an ephemeral port and drives it with raw
//! `TcpStream` clients over four scenarios:
//!
//! * **cold_cache** — distinct `/v1/sweep` queries, each a response-cache
//!   miss that computes the projection grid;
//! * **warm_cache** — the same query repeated on one keep-alive
//!   connection, so every answer after the first is a cached-body hit;
//! * **keepalive_warm_sustained** — hundreds of concurrent keep-alive
//!   connections hammering one warm-cache query for a fixed window:
//!   sustained RPS plus pooled p50/p99 latency;
//! * **close_nocache_sustained** — the pre-keep-alive baseline: response
//!   cache disabled, one connection per request (`Connection: close`),
//!   same query, same window.
//!
//! The derived `keepalive_warm_vs_close_nocache_rps_ratio` is the number
//! the README quotes: how much faster the keep-alive + cache front end
//! answers warm repeat queries than the connection-per-request server it
//! replaced.
//!
//! Usage: `serve_perf [--out PATH] [--jobs N] [--smoke]`
//! (`--smoke` shrinks connection counts and measurement windows for CI;
//! the JSON shape is unchanged.)

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use twocs_serve::{HandlerConfig, ServeStats, Server, ServerConfig, ShutdownHandle};

/// The benched query: a fig10-class projection slice, small enough that
/// a cold compute is tens of milliseconds, large enough that the cached
/// body is a real CSV table rather than a trivial line.
const SWEEP_QUERY: &str = "h=4096,16384&sl=2048&tp=4,8,16,32&method=proj&format=csv";

fn bench_server(jobs: usize, cache_responses: bool) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs,
        // Deep queue and wide budget: the benchmark measures latency and
        // throughput, not load shedding, so a 503 here is a bug.
        queue: 4096,
        request_timeout: Duration::from_secs(30),
        handler: HandlerConfig::default(),
        max_connections: 2048,
        max_requests_per_conn: u64::MAX,
        cache_responses,
        ..ServerConfig::default()
    }
}

fn start(config: ServerConfig) -> (String, ShutdownHandle, std::thread::JoinHandle<ServeStats>) {
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let shutdown = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (addr, shutdown, join)
}

fn connect(addr: &str) -> TcpStream {
    let conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    conn.set_nodelay(true).expect("nodelay");
    conn
}

/// Issue one keep-alive request and read the full response (head +
/// `Content-Length` body), leaving the connection usable. Panics on any
/// non-200 status: shed or errored requests would corrupt the numbers.
fn keepalive_request(conn: &mut TcpStream, target: &str, buf: &mut Vec<u8>) {
    write!(conn, "GET {target} HTTP/1.1\r\nHost: twocs\r\n\r\n").expect("send");
    buf.clear();
    let mut chunk = [0u8; 16 * 1024];
    let mut head_end = None;
    let total = loop {
        if head_end.is_none() {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&buf[..pos + 4]).expect("utf-8 head");
                assert!(
                    head.starts_with("HTTP/1.1 200 "),
                    "non-200 under benchmark load: {head}"
                );
                let len: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                    .expect("Content-Length")
                    .trim()
                    .parse()
                    .expect("numeric length");
                head_end = Some(pos + 4 + len);
            }
        }
        if let Some(total) = head_end {
            if buf.len() >= total {
                break total;
            }
        }
        let n = conn.read(&mut chunk).expect("read");
        assert!(n > 0, "server hung up mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    assert_eq!(buf.len(), total, "pipelined bytes beyond one response");
}

/// One full connection-per-request exchange: the `Connection: close`
/// baseline the old server forced on every client.
fn close_request(addr: &str, target: &str) {
    let mut conn = connect(addr);
    write!(
        conn,
        "GET {target} HTTP/1.1\r\nHost: twocs\r\nConnection: close\r\n\r\n"
    )
    .expect("send");
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw).expect("read to EOF");
    let head = std::str::from_utf8(&raw[..raw.len().min(64)]).unwrap_or("");
    assert!(
        head.starts_with("HTTP/1.1 200 "),
        "non-200 under benchmark load: {head}"
    );
}

#[derive(Debug)]
struct Scenario {
    id: &'static str,
    connections: usize,
    requests: u64,
    elapsed: Duration,
    latencies_us: Vec<u64>,
}

impl Scenario {
    #[allow(clippy::cast_precision_loss)]
    fn rps(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn percentile(&self, p: f64) -> u64 {
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        if sorted.is_empty() {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }

    fn json(&self) -> String {
        format!(
            "    {{\"id\": \"{}\", \"connections\": {}, \"requests\": {}, \
             \"elapsed_ms\": {}, \"rps\": {:.1}, \"p50_us\": {}, \"p99_us\": {}}}",
            self.id,
            self.connections,
            self.requests,
            self.elapsed.as_millis(),
            self.rps(),
            self.percentile(50.0),
            self.percentile(99.0),
        )
    }

    fn report(&self) {
        eprintln!(
            "serve_perf: {:<26} {:>8.0} req/s  p50 {:>7} us  p99 {:>7} us  \
             ({} requests, {} conns, {:?})",
            self.id,
            self.rps(),
            self.percentile(50.0),
            self.percentile(99.0),
            self.requests,
            self.connections,
            self.elapsed,
        );
    }
}

/// Sequential single-connection scenario: `n` requests, each timed.
fn run_sequential(
    id: &'static str,
    addr: &str,
    n: usize,
    mut target: impl FnMut(usize) -> String,
) -> Scenario {
    let mut conn = connect(addr);
    let mut buf = Vec::new();
    let mut latencies_us = Vec::with_capacity(n);
    let start = Instant::now();
    for i in 0..n {
        let t0 = Instant::now();
        keepalive_request(&mut conn, &target(i), &mut buf);
        latencies_us.push(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
    }
    Scenario {
        id,
        connections: 1,
        requests: n as u64,
        elapsed: start.elapsed(),
        latencies_us,
    }
}

/// Concurrent sustained-load scenario: `conns` client threads hammer the
/// server for `window`, all starting together on a barrier. `keep_alive`
/// chooses one persistent connection per thread versus a fresh
/// `Connection: close` exchange per request.
fn run_sustained(
    id: &'static str,
    addr: &str,
    target: &str,
    conns: usize,
    window: Duration,
    keep_alive: bool,
) -> Scenario {
    let barrier = Barrier::new(conns + 1);
    let total = AtomicU64::new(0);
    let mut elapsed = Duration::ZERO;
    let mut latencies_us = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                let barrier = &barrier;
                let total = &total;
                scope.spawn(move || {
                    let mut conn = keep_alive.then(|| connect(addr));
                    let mut buf = Vec::new();
                    let mut lats = Vec::new();
                    barrier.wait();
                    let deadline = Instant::now() + window;
                    while Instant::now() < deadline {
                        let t0 = Instant::now();
                        match conn.as_mut() {
                            Some(c) => keepalive_request(c, target, &mut buf),
                            None => close_request(addr, target),
                        }
                        lats.push(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
                    }
                    total.fetch_add(lats.len() as u64, Ordering::Relaxed);
                    lats
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for w in workers {
            latencies_us.extend(w.join().expect("client thread"));
        }
        elapsed = start.elapsed();
    });
    Scenario {
        id,
        connections: conns,
        requests: total.load(Ordering::Relaxed),
        elapsed,
        latencies_us,
    }
}

#[derive(Debug)]
struct Options {
    out: String,
    jobs: usize,
    smoke: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        out: "BENCH_serve.json".to_owned(),
        jobs: 4,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                opts.out = args.next().ok_or("--out requires a path")?;
            }
            "--jobs" => {
                let raw = args.next().ok_or("--jobs requires a value")?;
                opts.jobs = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--jobs {raw}: expected a positive integer"))?;
            }
            "--smoke" => opts.smoke = true,
            "--help" | "-h" => {
                println!("usage: serve_perf [--out PATH] [--jobs N] [--smoke]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("serve_perf: {e}");
            std::process::exit(2);
        }
    };
    // Scenario sizes: full runs push hundreds of concurrent keep-alive
    // connections; smoke keeps CI under a few seconds.
    let (cold_n, warm_n, sustained_conns, close_conns, window) = if opts.smoke {
        (4, 50, 16, 8, Duration::from_millis(500))
    } else {
        (32, 400, 256, 64, Duration::from_secs(4))
    };
    eprintln!(
        "serve_perf: {} worker thread(s), {sustained_conns} keep-alive connections{}",
        opts.jobs,
        if opts.smoke { ", smoke mode" } else { "" }
    );

    let target = format!("/v1/sweep?{SWEEP_QUERY}");

    // Cached, keep-alive server: the front end this PR ships.
    let (addr, shutdown, join) = start(bench_server(opts.jobs, true));
    // Cold misses: vary flop_vs_bw so every query canonicalizes to a
    // fresh cache key and computes its grid.
    let cold = run_sequential("cold_cache", &addr, cold_n, |i| {
        format!("/v1/sweep?{SWEEP_QUERY}&flop_vs_bw=1.{:04}", i + 1)
    });
    cold.report();
    let warm = run_sequential("warm_cache", &addr, warm_n, |_| target.clone());
    warm.report();
    let sustained = run_sustained(
        "keepalive_warm_sustained",
        &addr,
        &target,
        sustained_conns,
        window,
        true,
    );
    sustained.report();
    shutdown.trigger();
    let stats = join.join().expect("server thread");
    assert_eq!(stats.rejected, 0, "load was shed during the benchmark");

    // Baseline server: no response cache, and clients reconnect per
    // request — the behavior of the pre-keep-alive front end.
    let (addr, shutdown, join) = start(bench_server(opts.jobs, false));
    // One untimed request first, so the comparison isolates the serve
    // layer, not first-touch costs.
    close_request(&addr, &target);
    let baseline = run_sustained(
        "close_nocache_sustained",
        &addr,
        &target,
        close_conns,
        window,
        false,
    );
    baseline.report();
    shutdown.trigger();
    join.join().expect("server thread");

    let ratio = sustained.rps() / baseline.rps().max(1e-9);
    eprintln!("serve_perf: keep-alive+cache vs close+no-cache sustained RPS ratio = {ratio:.1}x");

    let scenarios = [cold, warm, sustained, baseline];
    let json = format!(
        "{{\n  \"benchmark\": \"serve_perf\",\n  \"query\": \"/v1/sweep?{}\",\n  \
         \"jobs\": {},\n  \"smoke\": {},\n  \"scenarios\": [\n{}\n  ],\n  \
         \"keepalive_warm_vs_close_nocache_rps_ratio\": {:.2}\n}}\n",
        SWEEP_QUERY.replace('&', "&"),
        opts.jobs,
        opts.smoke,
        scenarios
            .iter()
            .map(Scenario::json)
            .collect::<Vec<_>>()
            .join(",\n"),
        ratio,
    );
    twocs_obs::json::validate(&json).expect("BENCH_serve.json must be well-formed JSON");
    std::fs::write(&opts.out, &json).unwrap_or_else(|e| panic!("write {}: {e}", opts.out));
    eprintln!("serve_perf: wrote {}", opts.out);
}
