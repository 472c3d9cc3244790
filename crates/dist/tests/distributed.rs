//! End-to-end tests for the distributed sweep fabric: a real TCP
//! coordinator with in-process workers, exercising the byte-identity
//! contract, full-window requeue on mid-sweep worker death, late joins,
//! the no-worker degrade path, heartbeat-vs-slow-chunk liveness, wire
//! byte accounting, the version handshake, and the adaptive credit
//! window (growth, pinning, and a death while holding a grown window).

use std::net::TcpStream;
use std::time::{Duration, Instant};

use twocs_core::GridSweep;
use twocs_dist::coordinator::{Coordinator, CoordinatorConfig};
use twocs_dist::proto::{read_frame, write_frame, Message, PROTOCOL_VERSION};
use twocs_dist::worker::{run_worker, WorkerConfig};
use twocs_hw::DeviceSpec;

fn small_sweep() -> GridSweep {
    GridSweep {
        hs: vec![4096, 16_384],
        sls: vec![2048],
        tps: vec![16, 64],
        flop_vs_bw: vec![1.0, 4.0],
        ..GridSweep::default()
    }
}

fn bind(chunk_size: usize) -> Coordinator {
    Coordinator::bind(CoordinatorConfig {
        chunk_size,
        ..CoordinatorConfig::default()
    })
    .expect("bind ephemeral coordinator port")
}

fn spawn_worker(addr: String) -> std::thread::JoinHandle<Result<(), String>> {
    std::thread::spawn(move || run_worker(&WorkerConfig::new(addr, 1)).map(|_| ()))
}

/// The tentpole acceptance: a two-worker distributed run produces a CSV
/// byte-identical to the local `--jobs 2` run.
#[test]
fn two_worker_sweep_is_byte_identical_to_local() {
    let sweep = small_sweep();
    let device = DeviceSpec::mi210();
    let local = sweep.run(&device, 2).0.to_csv();

    let coordinator = bind(2);
    let addr = coordinator.local_addr().to_string();
    let workers: Vec<_> = (0..2).map(|_| spawn_worker(addr.clone())).collect();
    assert_eq!(
        coordinator.wait_for_workers(2, Duration::from_secs(10)),
        2,
        "both workers registered"
    );

    let (table, summary) = coordinator.run_sweep(&sweep, &device).expect("sweep runs");
    assert_eq!(table.to_csv(), local);
    assert_eq!(summary.points, sweep.points().len());
    assert!(summary.workers_seen >= 2);

    coordinator.shutdown();
    for w in workers {
        w.join().unwrap().expect("worker exits cleanly on Done");
    }
}

/// A raw protocol client that accepts a pipelined grant and silently
/// drops the connection while holding its **entire credit window**. The
/// coordinator must requeue every outstanding chunk — not just one —
/// and the output must still be byte-identical: the worker-kill
/// acceptance, sharpened for v4 pipelining.
#[test]
fn worker_death_mid_sweep_reassigns_its_full_window() {
    let sweep = small_sweep();
    let device = DeviceSpec::mi210();
    let local = sweep.run(&device, 1).0.to_csv();

    let coordinator = bind(2);
    let addr = coordinator.local_addr();

    // Victim: handshake, wait for the pushed grant, die holding the
    // whole window without completing (or heartbeating) anything.
    let victim = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(addr).expect("victim connects");
        write_frame(
            &mut conn,
            &Message::Hello {
                version: PROTOCOL_VERSION,
            },
        )
        .unwrap();
        let (welcome, _) = read_frame(&mut conn).unwrap();
        let Message::Welcome { pipeline, .. } = welcome else {
            panic!("expected Welcome, got {welcome:?}");
        };
        read_job(&mut conn);
        let (grant, _) = read_frame(&mut conn).unwrap();
        let Message::Grant { chunks, .. } = grant else {
            panic!("expected Grant, got {grant:?}");
        };
        assert!(
            chunks.len() <= pipeline as usize,
            "grant never exceeds the advertised window"
        );
        drop(conn);
        chunks.len() as u64
    });
    assert_eq!(coordinator.wait_for_workers(1, Duration::from_secs(10)), 1);

    let (table, summary) = coordinator.run_sweep(&sweep, &device).expect("sweep runs");
    let window = victim.join().unwrap();
    assert!(window >= 2, "victim held a pipelined window ({window})");
    assert_eq!(table.to_csv(), local, "byte-identical despite the death");
    assert!(
        summary.reassigned >= window,
        "the dead client's whole window was requeued (reassigned = {}, window = {window})",
        summary.reassigned
    );
}

/// With no workers at all, the coordinator degrades to local evaluation
/// and still matches the local run — the `--min-workers` timeout path.
#[test]
fn no_workers_degrades_to_local_evaluation() {
    let sweep = small_sweep();
    let device = DeviceSpec::mi210();
    let local = sweep.run(&device, 1).0.to_csv();

    let coordinator = bind(3);
    assert_eq!(
        coordinator.wait_for_workers(1, Duration::from_millis(100)),
        0
    );
    let (table, summary) = coordinator.run_sweep(&sweep, &device).expect("sweep runs");
    assert_eq!(table.to_csv(), local);
    assert_eq!(summary.workers_seen, 0);
    assert!(summary
        .per_worker
        .iter()
        .all(|&(id, _, _)| id == twocs_dist::LOCAL_WORKER));
}

/// A worker that joins mid-sweep pulls leases immediately. A raw
/// protocol client pins the sweep in flight by sitting on one lease, so
/// the late join deterministically lands mid-sweep; when the client
/// finally drops, its chunk is requeued and the late worker (not the
/// local drain — the fabric still has a connection) finishes the job.
#[test]
fn late_joining_worker_picks_up_chunks() {
    let sweep = small_sweep();
    let device = DeviceSpec::mi210();
    let local = sweep.run(&device, 1).0.to_csv();

    let coordinator = bind(1);
    let addr = coordinator.local_addr();

    // Lease-holder: accept the pushed grant and sit on it well past the
    // late worker's join, then die without completing it.
    let holder = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(addr).expect("holder connects");
        write_frame(
            &mut conn,
            &Message::Hello {
                version: PROTOCOL_VERSION,
            },
        )
        .unwrap();
        let (welcome, _) = read_frame(&mut conn).unwrap();
        assert!(matches!(welcome, Message::Welcome { .. }));
        read_job(&mut conn);
        let (grant, _) = read_frame(&mut conn).unwrap();
        assert!(
            matches!(grant, Message::Grant { .. }),
            "expected Grant, got {grant:?}"
        );
        std::thread::sleep(Duration::from_millis(500));
        drop(conn);
    });
    assert_eq!(coordinator.wait_for_workers(1, Duration::from_secs(10)), 1);

    let submit = {
        let sweep = sweep.clone();
        let device = device.clone();
        std::thread::spawn(move || {
            let out = coordinator.run_sweep(&sweep, &device);
            (out, coordinator)
        })
    };
    // Join while the holder pins the sweep in flight.
    std::thread::sleep(Duration::from_millis(100));
    let worker = spawn_worker(addr.to_string());

    let (out, coordinator) = submit.join().unwrap();
    holder.join().unwrap();
    let (table, summary) = out.expect("sweep runs");
    assert_eq!(table.to_csv(), local);
    assert!(summary.workers_seen >= 2, "holder + late worker registered");
    assert!(
        summary.reassigned >= 1,
        "the holder's abandoned chunk was requeued"
    );
    let late_worker_chunks: u64 = summary
        .per_worker
        .iter()
        .filter(|&&(id, _, _)| id != twocs_dist::LOCAL_WORKER)
        .map(|&(_, chunks, _)| chunks)
        .sum();
    assert!(
        late_worker_chunks > 0,
        "the late worker evaluated chunks: {:?}",
        summary.per_worker
    );
    coordinator.shutdown();
    worker.join().unwrap().expect("late worker exits on Done");
}

/// A worker speaking the wrong protocol version is rejected at
/// handshake with a reason, and never affects the fabric.
#[test]
fn version_mismatch_is_rejected_at_handshake() {
    let coordinator = bind(4);
    let mut conn = TcpStream::connect(coordinator.local_addr()).expect("connect");
    write_frame(
        &mut conn,
        &Message::Hello {
            version: PROTOCOL_VERSION + 1,
        },
    )
    .unwrap();
    let (reply, _) = read_frame(&mut conn).unwrap();
    let Message::Reject { reason } = reply else {
        panic!("expected Reject, got {reply:?}");
    };
    assert!(
        reason.contains("version"),
        "reason names the mismatch: {reason}"
    );
    assert_eq!(coordinator.worker_count(), 0);
}

/// Back-to-back sweeps through one fabric stay deterministic: job ids
/// advance, results never bleed across jobs.
#[test]
fn consecutive_sweeps_on_one_fabric_are_independent() {
    let device = DeviceSpec::mi210();
    let coordinator = bind(2);
    let addr = coordinator.local_addr().to_string();
    let worker = spawn_worker(addr);
    assert_eq!(coordinator.wait_for_workers(1, Duration::from_secs(10)), 1);

    let first = small_sweep();
    let second = GridSweep {
        hs: vec![8192],
        sls: vec![4096],
        tps: vec![64],
        flop_vs_bw: vec![1.0, 2.0],
        ..GridSweep::default()
    };
    let (t1, _) = coordinator.run_sweep(&first, &device).expect("first sweep");
    let (t2, _) = coordinator
        .run_sweep(&second, &device)
        .expect("second sweep");
    assert_eq!(t1.to_csv(), first.run(&device, 1).0.to_csv());
    assert_eq!(t2.to_csv(), second.run(&device, 1).0.to_csv());

    coordinator.shutdown();
    worker.join().unwrap().expect("worker exits on Done");
}

/// The widened v2 protocol carries the new MoE/PP/SP axis fields and the
/// sweep workload end to end: a distributed run over an extended grid is
/// byte-identical to the local run, for training and decode alike.
#[test]
fn extended_axis_sweep_is_byte_identical_to_local() {
    use twocs_core::serialized::Method;
    use twocs_core::sweep::Workload;
    for workload in [Workload::Training, Workload::Decode] {
        let sweep = GridSweep {
            method: Method::Projection,
            experts: vec![1, 8],
            top_ks: vec![2],
            stages: vec![1, 4],
            micro_batches: vec![4],
            sps: vec![1, 2],
            workload,
            ..small_sweep()
        };
        let device = DeviceSpec::mi210();
        let local = sweep.run(&device, 2).0.to_csv();

        let coordinator = bind(2);
        let addr = coordinator.local_addr().to_string();
        let workers: Vec<_> = (0..2).map(|_| spawn_worker(addr.clone())).collect();
        assert_eq!(coordinator.wait_for_workers(2, Duration::from_secs(10)), 2);
        let (table, summary) = coordinator.run_sweep(&sweep, &device).expect("sweep runs");
        assert_eq!(table.to_csv(), local, "workload {workload}");
        assert_eq!(summary.points, sweep.points().len());
        coordinator.shutdown();
        for w in workers {
            w.join().unwrap().expect("worker exits cleanly on Done");
        }
        // The extended columns actually made it into the artifact.
        assert!(local.contains("experts"), "extended header present");
    }
}

/// A chunk that takes longer than the lease TTL must NOT be spuriously
/// reassigned: the worker's heartbeat thread keeps the whole window
/// alive while the eval loop grinds. (Before heartbeats were counted as
/// liveness this would duplicate work and inflate `reassigned`.)
#[test]
fn slow_chunk_outlives_lease_ttl_via_heartbeats() {
    let sweep = small_sweep();
    let device = DeviceSpec::mi210();
    let local = sweep.run(&device, 1).0.to_csv();

    // TTL 200 ms, every chunk takes ~500 ms: only heartbeats (told to
    // come every 50 ms) keep the leases from expiring.
    let coordinator = Coordinator::bind(CoordinatorConfig {
        chunk_size: 4,
        heartbeat: Duration::from_millis(50),
        lease_ttl: Duration::from_millis(200),
        ..CoordinatorConfig::default()
    })
    .expect("bind ephemeral coordinator port");
    let addr = coordinator.local_addr().to_string();
    let worker = std::thread::spawn(move || {
        let mut cfg = WorkerConfig::new(addr, 1);
        cfg.chunk_delay = Some(Duration::from_millis(500));
        run_worker(&cfg)
    });
    assert_eq!(coordinator.wait_for_workers(1, Duration::from_secs(10)), 1);

    let (table, summary) = coordinator.run_sweep(&sweep, &device).expect("sweep runs");
    assert_eq!(table.to_csv(), local);
    assert_eq!(
        summary.reassigned, 0,
        "slow-but-alive worker kept every lease: {summary}"
    );
    assert!(
        summary
            .per_worker
            .iter()
            .all(|&(id, _, _)| id != twocs_dist::LOCAL_WORKER),
        "no chunk fell back to the local drain: {:?}",
        summary.per_worker
    );

    coordinator.shutdown();
    worker.join().unwrap().expect("worker exits on Done");
}

/// Teardown does not wait out a heartbeat: the heartbeat thread waits on
/// a stop signal, so once the coordinator says `Done`, `run_worker`
/// returns well under one heartbeat period (it used to sleep the period
/// out, moving every worker and coordinator exit in heartbeat steps).
#[test]
fn worker_exits_well_under_one_heartbeat_period() {
    let sweep = small_sweep();
    let device = DeviceSpec::mi210();
    let heartbeat = Duration::from_secs(5);
    let coordinator = Coordinator::bind(CoordinatorConfig {
        heartbeat,
        lease_ttl: Duration::from_secs(30),
        ..CoordinatorConfig::default()
    })
    .expect("bind ephemeral coordinator port");
    let addr = coordinator.local_addr().to_string();
    let worker = std::thread::spawn(move || {
        run_worker(&WorkerConfig::new(addr, 1)).map(|report| (report, Instant::now()))
    });
    assert_eq!(coordinator.wait_for_workers(1, Duration::from_secs(10)), 1);
    coordinator.run_sweep(&sweep, &device).expect("sweep runs");

    let done = Instant::now();
    coordinator.shutdown();
    let (report, exited) = worker.join().unwrap().expect("worker exits on Done");
    assert!(report.chunks > 0, "the worker actually evaluated");
    let teardown = exited.duration_since(done);
    assert!(
        teardown < heartbeat / 5,
        "worker took {teardown:?} to exit after Done (heartbeat {heartbeat:?})"
    );
}

/// Wire-byte accounting closes: after a clean shutdown, the worker's
/// reported `bytes_tx`/`bytes_rx` — which must include the heartbeat
/// thread's frames — mirror the coordinator's rx/tx totals exactly.
#[test]
fn worker_byte_accounting_matches_coordinator() {
    let sweep = small_sweep();
    let device = DeviceSpec::mi210();

    let coordinator = bind(2);
    let addr = coordinator.local_addr().to_string();
    let worker = std::thread::spawn(move || run_worker(&WorkerConfig::new(addr, 1)));
    assert_eq!(coordinator.wait_for_workers(1, Duration::from_secs(10)), 1);

    coordinator.run_sweep(&sweep, &device).expect("sweep runs");
    coordinator.shutdown();
    let report = worker.join().unwrap().expect("worker exits on Done");
    assert!(report.bytes_tx > 0 && report.bytes_rx > 0);
    assert!(report.chunks > 0, "the worker actually evaluated");

    // The driver may still be draining the worker's final frames; the
    // ledger must settle to exact equality, both directions.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (coord_tx, coord_rx) = coordinator.wire_totals();
        if coord_rx == report.bytes_tx && coord_tx == report.bytes_rx {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "byte ledgers never settled: worker tx/rx = {}/{}, coordinator tx/rx = {coord_tx}/{coord_rx}",
            report.bytes_tx,
            report.bytes_rx,
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The streaming delivery path: chunks flow to the submitter's callback
/// instead of coordinator memory, pre-completed (journal-resumed) chunks
/// are never re-evaluated, and stitching resumed + streamed chunks back
/// together reproduces the local CSV byte-for-byte.
#[test]
fn streaming_sweep_with_resume_set_matches_local() {
    use std::collections::BTreeMap;
    use twocs_core::{eval_chunk, ChunkSet};

    let sweep = small_sweep();
    let device = DeviceSpec::mi210();
    let local = sweep.run(&device, 1).0.to_csv();

    let chunk_size = 2usize;
    let index = sweep.index();
    let n_chunks = index.chunk_count(chunk_size) as u32;
    assert!(n_chunks >= 3, "grid large enough to resume mid-way");

    // "Journal-recovered" chunk: evaluated up front, passed as completed.
    let resumed: u32 = 1;
    let mut resumed_values = Vec::new();
    eval_chunk(
        None,
        &device,
        &sweep,
        &index,
        index.chunk_ranks(resumed as usize, chunk_size),
        &mut resumed_values,
    );
    let completed = ChunkSet::from_iter([resumed]);

    let coordinator = bind(chunk_size);
    let addr = coordinator.local_addr().to_string();
    let worker = spawn_worker(addr);
    assert_eq!(coordinator.wait_for_workers(1, Duration::from_secs(10)), 1);

    let mut streamed: BTreeMap<u32, _> = BTreeMap::new();
    let summary = coordinator
        .run_sweep_streaming(
            &sweep,
            &device,
            chunk_size,
            &completed,
            &mut |chunk, values| {
                assert!(
                    streamed.insert(chunk, values).is_none(),
                    "chunk {chunk} delivered twice"
                );
                Ok(())
            },
        )
        .expect("streaming sweep runs");

    assert!(
        !streamed.contains_key(&resumed),
        "the resumed chunk was not re-evaluated"
    );
    assert_eq!(streamed.len() as u32, n_chunks - 1);
    assert_eq!(summary.points, sweep.points().len());

    // Stitch resumed + streamed chunks back into grid order and compare.
    streamed.insert(resumed, resumed_values);
    let results: Vec<_> = streamed.into_values().flatten().collect();
    let table = GridSweep::tabulate(&sweep.points(), &results);
    assert_eq!(table.to_csv(), local, "resume + stream is byte-identical");

    coordinator.shutdown();
    worker.join().unwrap().expect("worker exits on Done");
}

/// A grid of ~600 two-point chunks under the projection method: enough
/// round trips for an adaptive window to grow, cheap to evaluate.
fn wide_sweep() -> GridSweep {
    use twocs_core::serialized::Method;
    GridSweep {
        hs: vec![4096, 8192, 16_384],
        sls: vec![2048, 4096],
        tps: vec![16, 64],
        flop_vs_bw: (0..100).map(|i| 1.0 + f64::from(i) * 0.1).collect(),
        method: Method::Projection,
        ..GridSweep::default()
    }
}

/// Read the `Job` frame that precedes a connection's first grant of a
/// job; returns the job id and its spec.
fn read_job(conn: &mut TcpStream) -> (u64, std::sync::Arc<twocs_store::SweepSpec>) {
    match read_frame(conn).unwrap().0 {
        Message::Job {
            job,
            fingerprint,
            spec,
        } => {
            assert_eq!(fingerprint, spec.fingerprint(), "the job's fingerprint");
            (job, spec)
        }
        other => panic!("expected Job, got {other:?}"),
    }
}

/// The grid ranks of `chunk`, from the job's spec the way a worker
/// finds them.
fn chunk_ranks(spec: &twocs_store::SweepSpec, chunk: u32) -> std::ops::Range<usize> {
    spec.index()
        .chunk_ranks(chunk as usize, spec.chunk_size as usize)
}

/// Handshake as a raw protocol client; returns the advertised window.
fn raw_handshake(conn: &mut TcpStream) -> u32 {
    write_frame(
        conn,
        &Message::Hello {
            version: PROTOCOL_VERSION,
        },
    )
    .unwrap();
    match read_frame(conn).unwrap().0 {
        Message::Welcome { pipeline, .. } => pipeline,
        other => panic!("expected Welcome, got {other:?}"),
    }
}

/// With the default config, each worker's window grows past its initial
/// 4 leases once results measure a 2 ms round trip, and the CSV stays
/// byte-identical to a local run.
#[test]
fn adaptive_window_grows_past_its_initial_size() {
    let sweep = wide_sweep();
    let device = DeviceSpec::mi210();
    let local = sweep.run(&device, 1).0.to_csv();

    let coordinator = bind(2);
    let addr = coordinator.local_addr().to_string();
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let cfg = WorkerConfig {
                injected_latency: Some(Duration::from_millis(2)),
                ..WorkerConfig::new(addr.clone(), 1)
            };
            std::thread::spawn(move || run_worker(&cfg))
        })
        .collect();
    assert_eq!(coordinator.wait_for_workers(2, Duration::from_secs(10)), 2);

    let (table, summary) = coordinator.run_sweep(&sweep, &device).expect("sweep runs");
    assert_eq!(table.to_csv(), local);
    let widest = summary.windows.iter().map(|&(_, w, _)| w).max();
    assert!(
        widest.is_some_and(|w| w > 4),
        "no window grew past 4: {summary}"
    );
    assert!(
        summary
            .windows
            .iter()
            .all(|&(_, _, rtt)| rtt >= Duration::from_millis(2)),
        "min rtt includes the injected round trip: {summary}"
    );
    let first = summary.to_string();
    assert!(first.lines().next().unwrap().starts_with("dist: "));
    assert!(first.contains(", window "), "{first}");

    coordinator.shutdown();
    for w in workers {
        w.join().unwrap().expect("worker exits cleanly on Done");
    }
}

/// `pipeline: Some(1)` pins lockstep: a raw client that answers slowly
/// never finds a second lease waiting while it holds one, however many
/// results measure the round trip.
#[test]
fn pinned_window_of_one_never_grants_a_second_lease() {
    use std::io::ErrorKind;
    use twocs_core::eval_chunk;

    let sweep = small_sweep();
    let device = DeviceSpec::mi210();
    let local = sweep.run(&device, 1).0.to_csv();
    let coordinator = Coordinator::bind(CoordinatorConfig {
        chunk_size: 1,
        pipeline: Some(1),
        ..CoordinatorConfig::default()
    })
    .expect("bind ephemeral coordinator port");
    let addr = coordinator.local_addr();

    let grid = sweep.clone();
    let client = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(addr).expect("client connects");
        assert_eq!(raw_handshake(&mut conn), 1, "Welcome advertises the pin");
        let (_, spec) = read_job(&mut conn);
        let mut answered = 0;
        loop {
            let (msg, _) = read_frame(&mut conn).unwrap();
            let Message::Grant { job, chunks } = msg else {
                assert_eq!(msg, Message::Done);
                return answered;
            };
            assert_eq!(chunks.len(), 1, "one lease per grant");
            // Nothing else may arrive while this lease is outstanding.
            std::thread::sleep(Duration::from_millis(20));
            conn.set_nonblocking(true).unwrap();
            let peeked = conn.peek(&mut [0u8; 1]);
            assert!(
                matches!(&peeked, Err(e) if e.kind() == ErrorKind::WouldBlock),
                "a second frame arrived with one lease outstanding: {peeked:?}"
            );
            conn.set_nonblocking(false).unwrap();
            let mut values = Vec::new();
            eval_chunk(
                None,
                &DeviceSpec::mi210(),
                &grid,
                &spec.index(),
                chunk_ranks(&spec, chunks[0]),
                &mut values,
            );
            let result = Message::ChunkResult {
                job,
                chunk: chunks[0],
                values,
            };
            write_frame(&mut conn, &result).unwrap();
            answered += 1;
        }
    });
    assert_eq!(coordinator.wait_for_workers(1, Duration::from_secs(10)), 1);
    let (table, summary) = coordinator.run_sweep(&sweep, &device).expect("sweep runs");
    assert_eq!(table.to_csv(), local);
    assert!(
        summary.windows.iter().all(|&(_, w, _)| w == 1),
        "pinned window moved: {summary}"
    );
    coordinator.shutdown();
    assert_eq!(
        client.join().unwrap(),
        summary.chunks,
        "every chunk answered"
    );
}

/// A raw client answers promptly (after a 2 ms think time, so there is
/// a round trip to hide) until its window has grown past 4 leases, then
/// dies holding that window. Each of its leases is requeued exactly
/// once, and the healthy worker's output still matches a local run.
#[test]
fn death_while_holding_a_grown_window_requeues_each_lease_once() {
    use twocs_core::FactoredPlan;

    let sweep = wide_sweep();
    let device = DeviceSpec::mi210();
    let local = sweep.run(&device, 1).0.to_csv();
    let coordinator = bind(2);
    let addr = coordinator.local_addr();

    let victim = {
        let plan = FactoredPlan::build_from_sweep(&device, &sweep).expect("projection plan");
        std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).expect("victim connects");
            raw_handshake(&mut conn);
            conn.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let (_, spec) = read_job(&mut conn);
            let mut held: Vec<u32> = Vec::new();
            let mut job = 0;
            while held.len() <= 4 {
                if !held.is_empty() {
                    std::thread::sleep(Duration::from_millis(2));
                    for chunk in held.drain(..) {
                        let mut values = Vec::new();
                        plan.eval_range(chunk_ranks(&spec, chunk), &mut values);
                        let result = Message::ChunkResult { job, chunk, values };
                        write_frame(&mut conn, &result).unwrap();
                    }
                }
                // Take one grant, then every grant already buffered: the
                // leases in hand are the coordinator's window for us.
                loop {
                    let (msg, _) = read_frame(&mut conn).expect("grant before the job ends");
                    let Message::Grant { job: j, chunks } = msg else {
                        panic!("expected Grant, got {msg:?}");
                    };
                    job = j;
                    held.extend(chunks);
                    conn.set_nonblocking(true).unwrap();
                    let more = conn.peek(&mut [0u8; 4]).is_ok_and(|n| n > 0);
                    conn.set_nonblocking(false).unwrap();
                    if !more {
                        break;
                    }
                }
            }
            // Collect any grant already on its way, then die silently.
            conn.set_read_timeout(Some(Duration::from_millis(300)))
                .unwrap();
            while let Ok((Message::Grant { chunks, .. }, _)) = read_frame(&mut conn) {
                held.extend(chunks);
            }
            held.len() as u64
        })
    };
    assert_eq!(coordinator.wait_for_workers(1, Duration::from_secs(10)), 1);
    let healthy = std::thread::spawn({
        let addr = addr.to_string();
        move || {
            let cfg = WorkerConfig {
                injected_latency: Some(Duration::from_millis(2)),
                ..WorkerConfig::new(addr, 1)
            };
            run_worker(&cfg)
        }
    });
    assert_eq!(coordinator.wait_for_workers(2, Duration::from_secs(10)), 2);

    let (table, summary) = coordinator.run_sweep(&sweep, &device).expect("sweep runs");
    let held = victim.join().unwrap();
    assert!(held > 4, "the victim died holding a grown window ({held})");
    assert_eq!(table.to_csv(), local, "nothing lost, nothing doubled");
    assert_eq!(
        summary.reassigned, held,
        "each held lease requeued exactly once: {summary}"
    );
    coordinator.shutdown();
    healthy
        .join()
        .unwrap()
        .expect("healthy worker exits on Done");
}

/// An `on_chunk` error aborts the streaming sweep with that error, mid-job
/// and with leases outstanding, and frees the job slot: the next sweep on
/// the same coordinator and workers runs to completion, byte-identical
/// to a local run.
#[test]
fn on_chunk_error_aborts_and_frees_the_job_slot() {
    use twocs_core::ChunkSet;

    let sweep = wide_sweep();
    let device = DeviceSpec::mi210();
    let local = sweep.run(&device, 1).0.to_csv();

    let coordinator = bind(2);
    let addr = coordinator.local_addr().to_string();
    let workers: Vec<_> = (0..2).map(|_| spawn_worker(addr.clone())).collect();
    assert_eq!(coordinator.wait_for_workers(2, Duration::from_secs(10)), 2);

    let mut delivered = 0;
    let err = coordinator
        .run_sweep_streaming(&sweep, &device, 2, &ChunkSet::new(), &mut |_, _| {
            delivered += 1;
            if delivered == 3 {
                Err("sink is full".to_owned())
            } else {
                Ok(())
            }
        })
        .expect_err("the callback's error aborts the sweep");
    assert_eq!(err, "sink is full");
    assert_eq!(delivered, 3, "no chunk is delivered after the failing one");

    let (table, summary) = coordinator
        .run_sweep(&sweep, &device)
        .expect("the fabric runs the next sweep");
    assert_eq!(table.to_csv(), local);
    assert_eq!(summary.points, sweep.points().len());
    coordinator.shutdown();
    for w in workers {
        w.join().unwrap().expect("worker exits on Done");
    }
}

/// Workers rebuild the device from the catalog, so a device it cannot
/// name (here an evolved MI210) runs entirely on the coordinator's local
/// drain through both entry points — even with a worker connected — and
/// still matches the local run byte for byte.
#[test]
fn uncatalogued_device_runs_on_the_local_drain_through_both_entry_points() {
    use std::collections::BTreeMap;
    use twocs_core::ChunkSet;
    use twocs_dist::{DistSummary, LOCAL_WORKER};
    use twocs_hw::HwEvolution;

    let sweep = small_sweep();
    let device = HwEvolution::flop_vs_bw(2.0).apply(&DeviceSpec::mi210());
    assert!(
        !DeviceSpec::catalog()
            .iter()
            .any(|d| d.fingerprint() == device.fingerprint()),
        "the evolved device is not in the catalog"
    );
    let local = sweep.run(&device, 1).0.to_csv();
    let all_local = |summary: &DistSummary| {
        assert!(
            matches!(summary.per_worker[..], [(LOCAL_WORKER, chunks, _)] if chunks as usize == summary.chunks),
            "every chunk is credited to the local drain: {summary}"
        );
    };

    let coordinator = bind(2);
    let worker = spawn_worker(coordinator.local_addr().to_string());
    assert_eq!(coordinator.wait_for_workers(1, Duration::from_secs(10)), 1);

    let (table, summary) = coordinator.run_sweep(&sweep, &device).expect("sweep runs");
    assert_eq!(table.to_csv(), local);
    all_local(&summary);

    let mut streamed = BTreeMap::new();
    let summary = coordinator
        .run_sweep_streaming(
            &sweep,
            &device,
            2,
            &ChunkSet::new(),
            &mut |chunk, values| {
                assert!(
                    streamed.insert(chunk, values).is_none(),
                    "chunk {chunk} twice"
                );
                Ok(())
            },
        )
        .expect("streaming sweep runs");
    let results: Vec<_> = streamed.into_values().flatten().collect();
    assert_eq!(
        GridSweep::tabulate(&sweep.points(), &results).to_csv(),
        local
    );
    all_local(&summary);

    assert_eq!(coordinator.worker_count(), 1, "the worker stayed connected");
    coordinator.shutdown();
    worker.join().unwrap().expect("worker exits on Done");
}

/// `twocs serve --listen`: a `/v1/sweep` server whose executor is a
/// coordinator with one in-process worker answers the csv and json
/// bodies, and a journaled request, byte-identically to a local server.
#[test]
fn coordinator_backed_server_answers_like_a_local_one() {
    use std::sync::Arc;
    use twocs_serve::handlers::{handle, HandlerConfig};
    use twocs_serve::http::Request;

    let coordinator = Arc::new(bind(3));
    let worker = spawn_worker(coordinator.local_addr().to_string());
    assert_eq!(coordinator.wait_for_workers(1, Duration::from_secs(10)), 1);
    let dir = std::env::temp_dir().join(format!("twocs-dist-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let local = HandlerConfig {
        journal_dir: Some(dir.join("local")),
        ..HandlerConfig::default()
    };
    let fabric = HandlerConfig {
        executor: Some(coordinator.clone() as Arc<dyn twocs_core::GridExecutor>),
        journal_dir: Some(dir.join("fabric")),
        ..HandlerConfig::default()
    };
    std::fs::create_dir_all(dir.join("local")).unwrap();
    std::fs::create_dir_all(dir.join("fabric")).unwrap();

    let query = "h=4096,16384&tp=16,64&flop_vs_bw=1,4&experts=1,8&top_k=2&method=proj";
    let (tx_before, _) = coordinator.wire_totals();
    for extra in ["", "&format=json", "&journal=grid"] {
        let target = format!("{query}{extra}");
        let want = handle(&Request::get("/v1/sweep", &target), &local);
        let got = handle(&Request::get("/v1/sweep", &target), &fabric);
        assert_eq!(want.status, 200, "{extra}: {}", want.body);
        assert_eq!(got.status, 200, "{extra}: {}", got.body);
        assert_eq!(got.body, want.body, "{extra}");
    }
    assert!(dir.join("fabric/grid.journal").exists());
    assert!(
        coordinator.wire_totals().0 > tx_before,
        "the fabric granted leases to its worker"
    );

    drop(fabric);
    drop(Arc::into_inner(coordinator).expect("the test holds the last handle"));
    worker.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A worker's refusal reason is not thrown away: the coordinator records
/// who refused and why in the summary, prints it, winds the worker down
/// with `Done`, and still finishes the sweep byte-identically.
#[test]
fn a_workers_refusal_reason_reaches_the_summary() {
    let sweep = small_sweep();
    let device = DeviceSpec::mi210();
    let local = sweep.run(&device, 1).0.to_csv();
    let coordinator = bind(2);
    let addr = coordinator.local_addr();
    let reason = "this worker refuses on principle";

    let client = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(addr).expect("client connects");
        raw_handshake(&mut conn);
        let (job, _) = read_job(&mut conn);
        let (grant, _) = read_frame(&mut conn).unwrap();
        assert!(matches!(grant, Message::Grant { .. }), "{grant:?}");
        let refuse = Message::Refuse {
            job,
            reason: reason.to_owned(),
        };
        write_frame(&mut conn, &refuse).unwrap();
        // The coordinator releases a refusing worker with `Done`.
        loop {
            match read_frame(&mut conn) {
                Ok((Message::Done, _)) => return true,
                Ok(_) => {}
                Err(_) => return false,
            }
        }
    });
    assert_eq!(coordinator.wait_for_workers(1, Duration::from_secs(10)), 1);
    let (table, summary) = coordinator.run_sweep(&sweep, &device).expect("sweep runs");
    assert_eq!(table.to_csv(), local);
    assert!(client.join().unwrap(), "the refusing client got Done");
    let [(worker, got)] = &summary.refusals[..] else {
        panic!("one refusal recorded: {:?}", summary.refusals);
    };
    assert_ne!(*worker, twocs_dist::LOCAL_WORKER);
    assert_eq!(got, reason);
    let printed = summary.to_string();
    assert!(
        printed.contains(&format!("worker {worker} refused the job: {reason}")),
        "{printed}"
    );
}

/// Grants name chunk ids, so the coordinator's bytes out no longer grow
/// with the points per chunk: two workers at a 1 ms round trip on a
/// 4-point-chunk grid cost at most 16 B per chunk, job frames included
/// (v4 shipped every grid point, ~298 B per 4-point chunk).
#[test]
fn the_wire_no_longer_scales_with_points() {
    use twocs_core::serialized::Method;
    let sweep = GridSweep {
        hs: vec![1024, 2048, 4096, 8192, 16_384, 32_768],
        sls: vec![1024, 2048, 4096, 8192],
        tps: vec![4, 8, 16, 32, 64],
        flop_vs_bw: (1..=10).map(f64::from).collect(),
        experts: vec![1, 8],
        sps: vec![1, 2],
        method: Method::Projection,
        ..GridSweep::default()
    };
    let device = DeviceSpec::mi210();
    let coordinator = bind(4);
    let addr = coordinator.local_addr().to_string();
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let cfg = WorkerConfig {
                injected_latency: Some(Duration::from_millis(1)),
                ..WorkerConfig::new(addr.clone(), 1)
            };
            std::thread::spawn(move || run_worker(&cfg))
        })
        .collect();
    assert_eq!(coordinator.wait_for_workers(2, Duration::from_secs(10)), 2);
    let (table, summary) = coordinator.run_sweep(&sweep, &device).expect("sweep runs");
    assert_eq!(table.to_csv(), sweep.run(&device, 1).0.to_csv());
    assert!(summary.chunks >= 500, "{summary}");
    let per_chunk = summary.bytes_tx as f64 / summary.chunks as f64;
    assert!(
        per_chunk <= 16.0,
        "{per_chunk:.1} B out per chunk: {summary}"
    );
    coordinator.shutdown();
    for w in workers {
        w.join().unwrap().expect("worker exits cleanly on Done");
    }
}

/// A fake coordinator: accept one `run_worker` session, welcome it, send
/// `frames`, answer any `Refuse` with `Done`, and collect what the worker
/// sends (heartbeats aside) until it hangs up. Returns the worker's own
/// outcome and the collected frames.
fn fake_coordinator(
    frames: &[Message],
) -> (Result<twocs_dist::WorkerReport, String>, Vec<Message>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let worker = std::thread::spawn(move || run_worker(&WorkerConfig::new(addr, 1)));
    let (mut conn, _) = listener.accept().unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (hello, _) = read_frame(&mut conn).unwrap();
    assert_eq!(
        hello,
        Message::Hello {
            version: PROTOCOL_VERSION
        }
    );
    let welcome = Message::Welcome {
        version: PROTOCOL_VERSION,
        worker_id: 1,
        heartbeat_ms: 60_000,
        pipeline: 4,
    };
    write_frame(&mut conn, &welcome).unwrap();
    for frame in frames {
        write_frame(&mut conn, frame).unwrap();
    }
    let mut got = Vec::new();
    while let Ok((msg, _)) = read_frame(&mut conn) {
        match msg {
            Message::Heartbeat => {}
            Message::Refuse { .. } => {
                got.push(msg);
                write_frame(&mut conn, &Message::Done).unwrap();
            }
            other => got.push(other),
        }
    }
    (worker.join().expect("the worker never panics"), got)
}

fn test_spec(sweep: GridSweep) -> std::sync::Arc<twocs_store::SweepSpec> {
    let device = DeviceSpec::mi210();
    std::sync::Arc::new(twocs_store::SweepSpec {
        sweep,
        chunk_size: 2,
        device_name: device.name().to_owned(),
        device_fingerprint: device.fingerprint(),
    })
}

/// The worker checks every job before evaluating any of it: a job whose
/// announced fingerprint does not match its spec, and a grid the shared
/// validator rejects, each get a `Refuse` naming the cause, and no chunk
/// of either is evaluated.
#[test]
fn the_worker_refuses_a_mismatched_or_invalid_job() {
    let good = test_spec(small_sweep());
    let mismatched = Message::Job {
        job: 1,
        fingerprint: good.fingerprint() ^ 1,
        spec: good.clone(),
    };
    let invalid = test_spec(GridSweep {
        flop_vs_bw: vec![0.5],
        ..small_sweep()
    });
    let invalid_job = Message::Job {
        job: 2,
        fingerprint: invalid.fingerprint(),
        spec: invalid.clone(),
    };
    let validator = invalid.sweep.validate().unwrap_err();
    assert!(invalid.chunk_count() >= 2, "the grants below are in range");
    for (job, id, cause) in [
        (mismatched, 1, "does not match its spec"),
        (invalid_job, 2, validator.as_str()),
    ] {
        let grant = Message::Grant {
            job: id,
            chunks: vec![0, 1],
        };
        let (outcome, got) = fake_coordinator(&[job, grant]);
        let report = outcome.expect("a refusing worker exits cleanly on Done");
        assert_eq!(report.chunks, 0, "no chunk was evaluated: {got:?}");
        assert_eq!(report.refused, 1);
        let [Message::Refuse { job, reason }] = &got[..] else {
            panic!("expected exactly one Refuse, got {got:?}");
        };
        assert_eq!(*job, id);
        assert!(reason.contains(cause), "{reason}");
    }
}

/// A grant the worker cannot place — for a job that was never announced,
/// or for a chunk id past the job's last chunk — ends the session with a
/// protocol error, not a panic and not a result.
#[test]
fn a_bad_grant_is_a_protocol_error() {
    let spec = test_spec(small_sweep());
    let job = Message::Job {
        job: 1,
        fingerprint: spec.fingerprint(),
        spec: spec.clone(),
    };
    let past_the_end = Message::Grant {
        job: 1,
        chunks: vec![0, spec.chunk_count()],
    };
    let unannounced = Message::Grant {
        job: 2,
        chunks: vec![0],
    };
    for (frames, cause) in [
        (vec![job, past_the_end], "which has"),
        (vec![unannounced], "never announced"),
    ] {
        let (outcome, got) = fake_coordinator(&frames);
        let err = outcome.expect_err("a bad grant is a protocol error");
        assert!(err.contains(cause), "{err}");
        assert!(
            !got.iter().any(|m| matches!(m, Message::ChunkResult { .. })),
            "nothing was evaluated: {got:?}"
        );
    }
}

/// A worker that answers every grant with one value too few is broken,
/// not slow: its first short result drops its connection and requeues
/// its window, and the local drain finishes the sweep. Merely dropping
/// the result left the chunk leased to that worker, and re-granted to it
/// on every expiry, so the sweep never ended.
#[test]
fn a_short_chunk_result_drops_the_worker_instead_of_stalling_the_sweep() {
    use std::sync::mpsc;
    use twocs_core::eval_chunk;

    let sweep = small_sweep();
    let device = DeviceSpec::mi210();
    let local = sweep.run(&device, 1).0.to_csv();
    let coordinator = bind(sweep.index().len().div_ceil(3));
    let addr = coordinator.local_addr();

    let grid = sweep.clone();
    let broken = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(addr).expect("broken worker connects");
        raw_handshake(&mut conn);
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let (_, spec) = read_job(&mut conn);
        assert_eq!(spec.chunk_count(), 3, "a 3-chunk grid");
        let mut sent = 0;
        while let Ok((Message::Grant { job, chunks }, _)) = read_frame(&mut conn) {
            for chunk in chunks {
                let mut values = Vec::new();
                let ranks = chunk_ranks(&spec, chunk);
                eval_chunk(
                    None,
                    &DeviceSpec::mi210(),
                    &grid,
                    &spec.index(),
                    ranks,
                    &mut values,
                );
                values.pop();
                let result = Message::ChunkResult { job, chunk, values };
                if write_frame(&mut conn, &result).is_err() {
                    return sent;
                }
                sent += 1;
            }
        }
        sent
    });
    assert_eq!(coordinator.wait_for_workers(1, Duration::from_secs(10)), 1);

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(coordinator.run_sweep(&sweep, &device));
        coordinator.shutdown();
    });
    let (table, summary) = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("the sweep finishes despite the broken worker")
        .expect("sweep runs");
    assert_eq!(table.to_csv(), local);
    assert!(
        summary.reassigned >= 1,
        "the window was requeued: {summary}"
    );
    let sent = broken.join().unwrap();
    assert!(sent >= 1, "the broken worker answered ({sent})");
}
