//! # twocs-dist — distributed sweep fabric
//!
//! Shards a [`twocs_core::sweep::GridSweep`] across worker processes
//! over TCP, with the **byte-identical output contract** intact: the
//! coordinator merges chunk results back in deterministic grid order and
//! every value travels as `f64::to_bits`, so the CSV a distributed sweep
//! prints is identical to a single-process `--jobs N` run — including
//! when a worker is killed mid-sweep and its chunks are reassigned.
//!
//! The crate is std-only, like the rest of the workspace: framing,
//! leasing, heartbeats, and reassignment are built directly on
//! `std::net` + threads.
//!
//! Protocol v5 is a **push** protocol with credit-based pipelining: the
//! coordinator sends each job's sweep spec once per connection, then
//! keeps every worker topped up with a window of outstanding chunk
//! leases — chunk ids only, whose points the worker decodes from the
//! spec — so a worker always has the next chunk in hand while
//! evaluating the current one and a network round-trip costs throughput
//! only when it exceeds a whole window of compute. By default each
//! connection sizes its own window to about two bandwidth-delay products
//! from the round trip and completion rate it measures ([`window`]);
//! [`CoordinatorConfig::pipeline`] pins it instead. There is no
//! `Ready`/`Wait` polling chatter and no idle backoff sleep — workers
//! block on their own socket and the coordinator drives every connection
//! from one `poll(2)` loop.
//!
//! * [`proto`] — length-prefixed wire messages, the version handshake,
//!   and the incremental [`proto::FrameReader`] / vectored
//!   [`proto::write_batch`] used by the nonblocking endpoints. Sweep
//!   specs and chunk results travel in `twocs-store`'s encoding, the
//!   bytes the journal stores.
//! * [`lease`] — the pure, clock-abstracted chunk lease state machine,
//!   indexed per worker so no per-result path scans the job; a dead
//!   worker's **entire outstanding window** requeues at once.
//! * [`window`] — the per-connection adaptive credit window.
//! * [`coordinator`] — [`Coordinator`]: accepts workers on a single
//!   poll-driven driver thread (64 workers are 64 pollfds, not 64
//!   threads), grants credit windows, reassigns on failure, degrades to
//!   local evaluation when no workers are connected. Every sweep hands
//!   its accepted chunks to the caller's thread through one delivery
//!   queue: `run_sweep_streaming` passes each chunk to a callback. It is
//!   the coordinator's [`twocs_core::sweep::GridExecutor`] impl, so
//!   `twocs sweep --listen` and `twocs serve --listen` record its chunks
//!   through the same `twocs_store::run` driver as a local sweep;
//!   `run_sweep` files them into per-chunk slots and tabulates, for tests
//!   and benches.
//! * [`worker`] — [`run_worker`]: double-buffered evaluator the `twocs
//!   worker` subcommand runs — a reader thread keeps the lease queue
//!   full, the eval loop works through it, and a writer thread flushes
//!   results with vectored, allocation-reusing batch writes. The base
//!   device and the factored plan are resolved once per job spec, not
//!   per chunk.
//!
//! ## Example (in-process pair)
//!
//! ```
//! use twocs_core::GridSweep;
//! use twocs_dist::coordinator::{Coordinator, CoordinatorConfig};
//! use twocs_dist::worker::{run_worker, WorkerConfig};
//! use twocs_hw::DeviceSpec;
//!
//! let coordinator = Coordinator::bind(CoordinatorConfig::default()).unwrap();
//! let addr = coordinator.local_addr().to_string();
//! let worker = std::thread::spawn(move || run_worker(&WorkerConfig::new(addr, 1)));
//! assert_eq!(coordinator.wait_for_workers(1, std::time::Duration::from_secs(10)), 1);
//!
//! let sweep = GridSweep {
//!     hs: vec![4096, 8192],
//!     sls: vec![2048],
//!     tps: vec![8],
//!     ..GridSweep::default()
//! };
//! let device = DeviceSpec::mi210();
//! let distributed = coordinator.run_sweep(&sweep, &device).unwrap().0;
//! let local = sweep.run(&device, 1).0;
//! assert_eq!(distributed.to_csv(), local.to_csv());
//!
//! drop(coordinator); // shutdown → workers get `Done`
//! worker.join().unwrap().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod lease;
pub mod proto;
pub mod window;
pub mod worker;

pub use coordinator::{Coordinator, CoordinatorConfig, DistSummary, LOCAL_WORKER};
pub use lease::{ChunkId, Completion, LeaseTracker, WorkerId};
pub use proto::{Message, PROTOCOL_VERSION};
pub use worker::{run_worker, WorkerConfig, WorkerReport};
