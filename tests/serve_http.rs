//! End-to-end tests for the `twocs serve` HTTP query service, run
//! in-process: each test binds an ephemeral port, drives it with raw
//! `TcpStream` clients, and shuts it down via its [`ShutdownHandle`].
//!
//! The contract pinned here is the one the CI smoke test relies on:
//! responses are byte-identical to the equivalent CLI/library output,
//! HTTP/1.1 keep-alive carries many requests (including pipelined ones)
//! per connection, overload answers `503` rather than hanging, and
//! shutdown completes in-flight requests.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use twocs::analysis::serialized::Method;
use twocs::analysis::sweep::GridSweep;
use twocs::hw::DeviceSpec;
use twocs::serve::{HandlerConfig, Server, ServerConfig};

/// Bind a server on an ephemeral port and run it on a background thread.
/// Returns the address, the shutdown handle, and the join handle that
/// yields the final [`twocs::serve::ServeStats`].
fn start(
    config: ServerConfig,
) -> (
    String,
    twocs::serve::ShutdownHandle,
    std::thread::JoinHandle<twocs::serve::ServeStats>,
) {
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let shutdown = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (addr, shutdown, join)
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 2,
        queue: 16,
        request_timeout: Duration::from_secs(5),
        handler: HandlerConfig::default(),
        ..ServerConfig::default()
    }
}

/// One full HTTP exchange on its own connection (`Connection: close`,
/// read to EOF); returns the raw response (head + body).
fn get(addr: &str, target: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        conn,
        "GET {target} HTTP/1.1\r\nHost: twocs\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read response");
    raw
}

/// Read exactly one response (head + `Content-Length` body) from a
/// keep-alive connection, leaving the connection usable.
fn read_response(conn: &mut TcpStream) -> String {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    // Head, byte by byte (test-sized traffic; simplicity over speed).
    while !raw.ends_with(b"\r\n\r\n") {
        match conn.read(&mut byte) {
            Ok(1) => raw.push(byte[0]),
            Ok(_) => panic!(
                "connection closed mid-head: {:?}",
                String::from_utf8_lossy(&raw)
            ),
            Err(e) => panic!("read error mid-head: {e}"),
        }
    }
    let head = String::from_utf8(raw.clone()).expect("utf-8 head");
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .trim()
        .parse()
        .expect("numeric Content-Length");
    let mut body = vec![0u8; len];
    conn.read_exact(&mut body).expect("read body");
    raw.extend_from_slice(&body);
    String::from_utf8(raw).expect("utf-8 response")
}

fn status_of(raw: &str) -> u16 {
    raw.split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn body_of(raw: &str) -> &str {
    raw.split_once("\r\n\r\n").map_or("", |(_, b)| b)
}

#[test]
fn healthz_answers_and_shutdown_is_clean() {
    let (addr, shutdown, join) = start(test_config());
    let raw = get(&addr, "/v1/healthz");
    assert_eq!(status_of(&raw), 200, "{raw}");
    assert_eq!(body_of(&raw), "{\"status\":\"ok\"}");
    // `Connection: close` requests are answered with close semantics.
    assert!(raw.contains("Connection: close\r\n"), "{raw}");
    shutdown.trigger();
    let stats = join.join().expect("server thread");
    assert_eq!(stats.served, 1);
    assert_eq!(stats.rejected, 0);
}

#[test]
fn keep_alive_carries_many_requests_on_one_connection() {
    let (addr, shutdown, join) = start(test_config());
    let mut conn = TcpStream::connect(&addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Three sequential requests, one connection; responses advertise
    // keep-alive until the client asks to close.
    for _ in 0..2 {
        write!(conn, "GET /v1/healthz HTTP/1.1\r\nHost: twocs\r\n\r\n").unwrap();
        let raw = read_response(&mut conn);
        assert_eq!(status_of(&raw), 200, "{raw}");
        assert_eq!(body_of(&raw), "{\"status\":\"ok\"}");
        assert!(raw.contains("Connection: keep-alive\r\n"), "{raw}");
    }
    write!(
        conn,
        "GET /v1/overlapped?h=4096&slb=2048&tp=16&dp=4 HTTP/1.1\r\nHost: twocs\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("close-delimited read");
    assert_eq!(status_of(&raw), 200, "{raw}");
    assert!(raw.contains("Connection: close\r\n"), "{raw}");
    shutdown.trigger();
    let stats = join.join().expect("server thread");
    assert_eq!(stats.served, 3, "three requests, one connection");
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (addr, shutdown, join) = start(test_config());
    let mut conn = TcpStream::connect(&addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Both heads in one write; the second asks to close.
    write!(
        conn,
        "GET /v1/healthz HTTP/1.1\r\nHost: twocs\r\n\r\nGET /v1/nope HTTP/1.1\r\nHost: twocs\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let first = read_response(&mut conn);
    assert_eq!(status_of(&first), 200, "{first}");
    assert_eq!(body_of(&first), "{\"status\":\"ok\"}");
    let mut second = String::new();
    conn.read_to_string(&mut second).expect("second response");
    assert_eq!(status_of(&second), 404, "{second}");
    shutdown.trigger();
    let stats = join.join().expect("server thread");
    assert_eq!(stats.served, 2);
}

/// Accepted connections run with TCP_NODELAY: a pipelined keep-alive
/// pair is answered as two small writes, and without it the second one
/// waits for the client's delayed ACK of the first (~40 ms on Linux).
#[test]
fn pipelined_pairs_are_not_held_back_by_delayed_acks() {
    let (addr, shutdown, join) = start(test_config());
    let mut conn = TcpStream::connect(&addr).expect("connect");
    conn.set_nodelay(true).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let pair = "GET /v1/healthz HTTP/1.1\r\nHost: twocs\r\n\r\n".repeat(2);
    let mut rounds = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        conn.write_all(pair.as_bytes()).unwrap();
        for _ in 0..2 {
            let raw = read_response(&mut conn);
            assert_eq!(status_of(&raw), 200, "{raw}");
        }
        rounds.push(t.elapsed());
    }
    rounds.sort();
    let median = rounds[rounds.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "pipelined pair median {median:?} (all rounds: {rounds:?})"
    );
    shutdown.trigger();
    let stats = join.join().expect("server thread");
    assert_eq!(stats.served, 40);
}

#[test]
fn request_heads_split_across_writes_still_parse() {
    let (addr, shutdown, join) = start(test_config());
    let mut conn = TcpStream::connect(&addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let head = "GET /v1/healthz HTTP/1.1\r\nHost: twocs\r\nConnection: close\r\n\r\n";
    let (a, b) = head.split_at(11);
    conn.write_all(a.as_bytes()).unwrap();
    conn.flush().unwrap();
    std::thread::sleep(Duration::from_millis(120));
    conn.write_all(b.as_bytes()).unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("response");
    assert_eq!(status_of(&raw), 200, "{raw}");
    shutdown.trigger();
    join.join().expect("server thread");
}

#[test]
fn idle_connections_are_closed_after_the_idle_timeout() {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..test_config()
    };
    let (addr, shutdown, join) = start(config);
    let mut conn = TcpStream::connect(&addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Serve one keep-alive request so the connection is mid-session.
    write!(conn, "GET /v1/healthz HTTP/1.1\r\nHost: twocs\r\n\r\n").unwrap();
    let raw = read_response(&mut conn);
    assert_eq!(status_of(&raw), 200, "{raw}");
    // Say nothing; the server must hang up on its own.
    let start = Instant::now();
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).expect("EOF, not an error");
    assert!(rest.is_empty(), "idle close sends no bytes: {rest:?}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "close must come from the idle timeout, not the client read timeout"
    );
    shutdown.trigger();
    join.join().expect("server thread");
}

#[test]
fn connection_budget_sheds_with_503() {
    let config = ServerConfig {
        max_connections: 2,
        ..test_config()
    };
    let (addr, shutdown, join) = start(config);
    // Two squatters occupy the budget without sending anything.
    let squatters: Vec<TcpStream> = (0..2)
        .map(|_| {
            let conn = TcpStream::connect(&addr).expect("connect");
            // Make sure the server has accepted them before counting on
            // the budget being full.
            std::thread::sleep(Duration::from_millis(100));
            conn
        })
        .collect();
    // The third connection is shed: it sends nothing (so no RST race
    // can destroy the response) and still receives a full 503.
    let mut shed = TcpStream::connect(&addr).expect("connect");
    shed.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut raw = String::new();
    shed.read_to_string(&mut raw).expect("read 503");
    assert_eq!(status_of(&raw), 503, "{raw}");
    assert!(body_of(&raw).contains("capacity"), "{raw}");
    assert!(raw.contains("Connection: close\r\n"), "{raw}");
    drop(squatters);
    shutdown.trigger();
    let stats = join.join().expect("server thread");
    assert!(stats.rejected >= 1, "sheds are counted: {stats:?}");
}

#[test]
fn head_answers_get_headers_without_a_body() {
    let (addr, shutdown, join) = start(test_config());
    let get_raw = get(&addr, "/v1/healthz");
    let mut conn = TcpStream::connect(&addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        conn,
        "HEAD /v1/healthz HTTP/1.1\r\nHost: twocs\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut head_raw = String::new();
    conn.read_to_string(&mut head_raw).expect("read response");
    assert_eq!(status_of(&head_raw), 200, "{head_raw}");
    assert_eq!(body_of(&head_raw), "", "HEAD carries no body");
    // Same headers as GET — including the full-body Content-Length.
    let get_head = get_raw.split_once("\r\n\r\n").unwrap().0;
    let head_head = head_raw.split_once("\r\n\r\n").unwrap().0;
    assert_eq!(get_head, head_head);
    assert!(head_raw.contains("Content-Length: 15\r\n"), "{head_raw}");
    shutdown.trigger();
    join.join().expect("server thread");
}

#[test]
fn oversized_heads_get_431_at_the_exact_cap() {
    let (addr, shutdown, join) = start(test_config());
    // A request head one byte over MAX_HEAD_BYTES: 431.
    let mut conn = TcpStream::connect(&addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let line = "GET /v1/healthz HTTP/1.1\r\n";
    let max = twocs::serve::http::MAX_HEAD_BYTES;
    let pad = max + 1 - line.len() - "x: \r\n\r\n".len();
    let over = format!("{line}x: {}\r\n\r\n", "p".repeat(pad));
    assert_eq!(over.len(), max + 1);
    conn.write_all(over.as_bytes()).unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read response");
    assert_eq!(status_of(&raw), 431, "{raw}");
    // Exactly MAX_HEAD_BYTES (terminator included): still served.
    let exact = format!("{line}x: {}\r\n\r\n", "p".repeat(pad - 1));
    assert_eq!(exact.len(), max);
    let mut conn = TcpStream::connect(&addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn.write_all(exact.as_bytes()).unwrap();
    let raw = read_response(&mut conn);
    assert_eq!(status_of(&raw), 200, "boundary head must parse: {raw}");
    shutdown.trigger();
    join.join().expect("server thread");
}

#[test]
fn serialized_csv_is_byte_identical_to_the_sweep_engine() {
    let (addr, shutdown, join) = start(test_config());
    let query = "h=4096&tp=16,32&flop_vs_bw=1,2&method=proj";
    let raw = get(&addr, &format!("/v1/serialized?{query}"));
    assert_eq!(status_of(&raw), 200, "{raw}");

    let grid = GridSweep {
        hs: vec![4096],
        tps: vec![16, 32],
        flop_vs_bw: vec![1.0, 2.0],
        method: Method::Projection,
        ..GridSweep::default()
    };
    // The CLI prints `to_csv()` with `println!`, which appends a newline;
    // the server body carries the same trailing newline so `curl` output
    // diffs clean against `twocs sweep --csv` stdout.
    let expected = format!("{}\n", grid.run(&DeviceSpec::mi210(), 1).0.to_csv());
    assert_eq!(body_of(&raw), expected);
    assert!(raw.contains("Content-Type: text/csv"), "{raw}");

    // `/v1/sweep` is an alias, a higher `jobs` must not change bytes,
    // and the second (response-cache-warm) answer is identical too.
    let alias = get(&addr, &format!("/v1/sweep?{query}&jobs=4"));
    assert_eq!(body_of(&alias), expected);
    let warm = get(&addr, &format!("/v1/serialized?{query}"));
    assert_eq!(body_of(&warm), expected, "cache-warm bytes identical");

    shutdown.trigger();
    join.join().expect("server thread");
}

/// The extended MoE/PP/SP axes and the workload selector over HTTP:
/// contradictory parameters answer 400 with a pointed message, omitted
/// parameters canonicalize to the defaults (same bytes as a legacy
/// query), and an extended query's CSV is byte-identical to the engine.
#[test]
fn extended_axis_params_validate_and_stay_byte_identical() {
    let (addr, shutdown, join) = start(test_config());

    // Contradictory or malformed axis parameters → 400.
    for (query, needle) in [
        ("h=4096&tp=16&stages=0", "non-zero"),
        ("h=4096&tp=16&experts=2&top_k=4", "top_k exceeds experts"),
        // The default method is sim, which models dense TP training only:
        // a decode workload without method=proj is a contradiction.
        ("h=4096&tp=16&workload=decode", "requires method=proj"),
        ("h=4096&tp=16&experts=8", "require method=proj"),
        ("h=4096&tp=16&workload=speculate", "unknown workload"),
    ] {
        let raw = get(&addr, &format!("/v1/sweep?{query}"));
        assert_eq!(status_of(&raw), 400, "{query}: {raw}");
        assert!(body_of(&raw).contains(needle), "{query}: {raw}");
    }

    // Omitted axis params are the defaults: bytes match the legacy query.
    let legacy = get(&addr, "/v1/sweep?h=4096&tp=16,32&method=proj");
    let explicit = get(
        &addr,
        "/v1/sweep?h=4096&tp=16,32&method=proj&experts=1&top_k=1&stages=1\
         &micro_batches=1&sp=1&workload=training",
    );
    assert_eq!(status_of(&legacy), 200, "{legacy}");
    assert_eq!(body_of(&legacy), body_of(&explicit), "canonicalization");

    // An extended query is byte-identical to the sweep engine.
    let raw = get(
        &addr,
        "/v1/sweep?h=4096&tp=16,32&method=proj&experts=1,8&top_k=2&stages=1,4\
         &micro_batches=4&sp=1,2&workload=prefill",
    );
    assert_eq!(status_of(&raw), 200, "{raw}");
    let grid = GridSweep {
        hs: vec![4096],
        tps: vec![16, 32],
        method: Method::Projection,
        experts: vec![1, 8],
        top_ks: vec![2],
        stages: vec![1, 4],
        micro_batches: vec![4],
        sps: vec![1, 2],
        workload: twocs::analysis::sweep::Workload::Prefill,
        ..GridSweep::default()
    };
    let expected = format!("{}\n", grid.run(&DeviceSpec::mi210(), 1).0.to_csv());
    assert_eq!(body_of(&raw), expected);
    assert!(body_of(&raw).contains("experts"), "extended header present");

    shutdown.trigger();
    join.join().expect("server thread");
}

/// The json and ascii views of `/v1/sweep` are pinned byte for byte to
/// goldens in `tests/golden_sweep/`, rendered by the table-driven sweep
/// before both views were built over the streamed CSV body.
#[test]
fn sweep_json_and_ascii_bodies_match_their_goldens() {
    let (addr, shutdown, join) = start(test_config());
    let query = "h=4096&tp=16&flop_vs_bw=1,4&experts=1,8&top_k=1&stages=1,2\
                 &workload=prefill&method=proj";
    for (format, golden) in [
        ("json", "serve_extended.json"),
        ("ascii", "serve_extended.txt"),
    ] {
        let raw = get(&addr, &format!("/v1/sweep?{query}&format={format}"));
        assert_eq!(status_of(&raw), 200, "{format}: {raw}");
        let path = format!("{}/tests/golden_sweep/{golden}", env!("CARGO_MANIFEST_DIR"));
        let want = std::fs::read_to_string(&path).expect("golden exists");
        assert_eq!(body_of(&raw), want, "format={format} drifted from {golden}");
    }
    shutdown.trigger();
    join.join().expect("server thread");
}

#[test]
fn eight_concurrent_clients_get_identical_answers() {
    let mut config = test_config();
    config.jobs = 4;
    let (addr, shutdown, join) = start(config);
    let target = "/v1/overlapped?h=4096&slb=2048&tp=16&dp=4";
    let reference = get(&addr, target);
    assert_eq!(status_of(&reference), 200, "{reference}");
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || get(&addr, target))
        })
        .collect();
    for client in clients {
        let raw = client.join().expect("client thread");
        assert_eq!(raw, reference, "concurrent responses must be identical");
    }
    shutdown.trigger();
    let stats = join.join().expect("server thread");
    assert_eq!(stats.served, 9);
}

#[test]
fn error_statuses_cover_the_http_surface() {
    let (addr, shutdown, join) = start(test_config());
    for (target, want, needle) in [
        ("/v1/nope", 404, "/v1/serialized"),
        ("/v1/sweep?h=1000", 400, "multiples of 256"),
        ("/v1/sweep?hs=4096", 400, "unknown query parameter"),
        (
            "/v1/overlapped?h=1024&slb=2048&tp=256",
            400,
            "cannot shard further",
        ),
        ("/v1/overlapped?h=4096&slb=0", 400, "non-zero"),
        ("/v1/debug/sleep?ms=1", 404, "no such endpoint"),
    ] {
        let raw = get(&addr, target);
        assert_eq!(status_of(&raw), want, "{target}: {raw}");
        assert!(body_of(&raw).contains(needle), "{target}: {raw}");
    }
    // Non-GET/HEAD methods are refused, with the RFC-required Allow.
    let mut conn = TcpStream::connect(&addr).expect("connect");
    write!(
        conn,
        "POST /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    assert_eq!(status_of(&raw), 405, "{raw}");
    assert!(raw.contains("Allow: GET, HEAD\r\n"), "{raw}");
    // Non-HTTP bytes get a 400, not a hang or a dropped connection.
    let mut conn = TcpStream::connect(&addr).expect("connect");
    write!(conn, "garbage\r\n\r\n").unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    assert_eq!(status_of(&raw), 400, "{raw}");
    // `HTTP/1.`-prefixed garbage versions are rejected too.
    let mut conn = TcpStream::connect(&addr).expect("connect");
    write!(conn, "GET /v1/healthz HTTP/1.1x\r\n\r\n").unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    assert_eq!(status_of(&raw), 400, "{raw}");
    assert!(body_of(&raw).contains("unsupported protocol"), "{raw}");
    shutdown.trigger();
    join.join().expect("server thread");
}

#[test]
fn overload_answers_503_instead_of_hanging() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 1,
        queue: 1,
        request_timeout: Duration::from_secs(5),
        handler: HandlerConfig {
            enable_debug: true,
            ..HandlerConfig::default()
        },
        ..ServerConfig::default()
    };
    let (addr, shutdown, join) = start(config);
    // Occupy the single worker, then fill the single queue slot — the
    // pauses let each request be accepted (and the first one popped)
    // before the next arrives, so the overflow state is deterministic.
    let blockers: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            let b = std::thread::spawn(move || get(&addr, "/v1/debug/sleep?ms=1500"));
            std::thread::sleep(Duration::from_millis(300));
            b
        })
        .collect();
    // Overflow: with the worker busy and the queue full, further
    // requests must be rejected promptly with 503.
    let raw = get(&addr, "/v1/healthz");
    assert_eq!(
        status_of(&raw),
        503,
        "overloaded server must shed load: {raw}"
    );
    assert!(body_of(&raw).contains("capacity"), "{raw}");
    for b in blockers {
        let raw = b.join().expect("blocker thread");
        assert_eq!(status_of(&raw), 200, "queued requests still complete");
    }
    shutdown.trigger();
    let stats = join.join().expect("server thread");
    assert!(stats.rejected >= 1, "rejections are counted: {stats:?}");
}

/// The event loop answers a response-cache hit itself: with the only
/// worker busy and the queue full, a cached `/v1/sweep` still gets its
/// bytes (and its `HEAD` the same headers), while anything that needs a
/// worker is shed.
#[test]
fn cache_hits_are_answered_while_every_worker_is_busy() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 1,
        queue: 1,
        request_timeout: Duration::from_secs(5),
        handler: HandlerConfig {
            enable_debug: true,
            ..HandlerConfig::default()
        },
        ..ServerConfig::default()
    };
    let (addr, shutdown, join) = start(config);
    let sweep = "/v1/sweep?h=4096&tp=16,32&flop_vs_bw=1,2&method=proj";
    let cold = get(&addr, sweep);
    assert_eq!(status_of(&cold), 200, "{cold}");
    let blockers: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            let b = std::thread::spawn(move || get(&addr, "/v1/debug/sleep?ms=1500"));
            std::thread::sleep(Duration::from_millis(300));
            b
        })
        .collect();
    let warm = get(&addr, sweep);
    assert_eq!(status_of(&warm), 200, "{warm}");
    assert_eq!(body_of(&warm), body_of(&cold), "a hit replays the bytes");
    let mut conn = TcpStream::connect(&addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        conn,
        "HEAD {sweep} HTTP/1.1\r\nHost: twocs\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut head = String::new();
    conn.read_to_string(&mut head).expect("read response");
    assert_eq!(status_of(&head), 200, "{head}");
    assert_eq!(body_of(&head), "", "HEAD carries no body");
    let length = format!("Content-Length: {}\r\n", body_of(&cold).len());
    assert!(head.contains(&length), "{head}");
    let healthz = get(&addr, "/v1/healthz");
    assert_eq!(
        status_of(&healthz),
        503,
        "healthz needs a worker: {healthz}"
    );
    for b in blockers {
        assert_eq!(status_of(&b.join().expect("blocker thread")), 200);
    }
    shutdown.trigger();
    let stats = join.join().expect("server thread");
    assert_eq!(stats.served, 5, "cold, two blockers, warm GET and HEAD");
    assert_eq!(stats.rejected, 1, "{stats:?}");
}

#[test]
fn shutdown_completes_in_flight_requests() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 1,
        queue: 4,
        request_timeout: Duration::from_secs(5),
        handler: HandlerConfig {
            enable_debug: true,
            ..HandlerConfig::default()
        },
        ..ServerConfig::default()
    };
    let (addr, shutdown, join) = start(config);
    let in_flight = {
        let addr = addr.clone();
        std::thread::spawn(move || get(&addr, "/v1/debug/sleep?ms=800"))
    };
    std::thread::sleep(Duration::from_millis(300));
    shutdown.trigger();
    // The slow request was accepted before the trigger; the drain must
    // let it finish and answer 200 — not sever the connection.
    let raw = in_flight.join().expect("in-flight client");
    assert_eq!(status_of(&raw), 200, "{raw}");
    assert_eq!(body_of(&raw), "{\"slept_ms\":800}");
    join.join().expect("server thread");
    // And the listener is really gone afterwards.
    assert!(
        TcpStream::connect(&addr).is_err(),
        "no one is listening after shutdown"
    );
}

#[test]
fn metrics_endpoint_reflects_traffic() {
    let (addr, shutdown, join) = start(test_config());
    get(&addr, "/v1/healthz");
    // Warm the response cache so its counters show up and move.
    let target = "/v1/overlapped?h=4096&slb=2048&tp=16&dp=8";
    get(&addr, target);
    get(&addr, target);
    let raw = get(&addr, "/v1/metrics");
    assert_eq!(status_of(&raw), 200, "{raw}");
    assert!(body_of(&raw).contains("serve.requests_total"), "{raw}");
    assert!(
        body_of(&raw).contains("serve.cache"),
        "response-cache counters are published: {raw}"
    );
    let json = get(&addr, "/v1/metrics?format=json");
    assert!(twocs::obs::json::validate(body_of(&json)).is_ok(), "{json}");
    assert!(body_of(&json).contains("\"serve.cache.hits\""), "{json}");
    shutdown.trigger();
    join.join().expect("server thread");
}

/// Lightly abusive client behavior must not wedge the event loop: a
/// client that connects and immediately disconnects, and one that sends
/// a partial head then disconnects, are both absorbed while the server
/// keeps answering others.
#[test]
fn abrupt_disconnects_do_not_wedge_the_loop() {
    let (addr, shutdown, join) = start(test_config());
    for _ in 0..4 {
        drop(TcpStream::connect(&addr).expect("connect"));
        let mut conn = TcpStream::connect(&addr).expect("connect");
        conn.write_all(b"GET /v1/heal").unwrap();
        drop(conn);
    }
    let raw = get(&addr, "/v1/healthz");
    assert_eq!(status_of(&raw), 200, "{raw}");
    shutdown.trigger();
    join.join().expect("server thread");
}

#[test]
fn max_requests_per_conn_caps_a_connection() {
    let config = ServerConfig {
        max_requests_per_conn: 2,
        ..test_config()
    };
    let (addr, shutdown, join) = start(config);
    let mut conn = TcpStream::connect(&addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(conn, "GET /v1/healthz HTTP/1.1\r\nHost: twocs\r\n\r\n").unwrap();
    let first = read_response(&mut conn);
    assert!(first.contains("Connection: keep-alive\r\n"), "{first}");
    write!(conn, "GET /v1/healthz HTTP/1.1\r\nHost: twocs\r\n\r\n").unwrap();
    let second = read_response(&mut conn);
    assert!(
        second.contains("Connection: close\r\n"),
        "the cap closes the connection: {second}"
    );
    // And the server really does hang up now.
    let mut rest = Vec::new();
    match conn.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "{rest:?}"),
        Err(e) => assert!(
            matches!(
                e.kind(),
                ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
            ),
            "{e}"
        ),
    }
    shutdown.trigger();
    join.join().expect("server thread");
}
