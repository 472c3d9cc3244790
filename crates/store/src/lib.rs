//! # twocs-store — sweep durability, streaming, and refinement
//!
//! The std-only storage subsystem that lets sweeps outgrow RAM and
//! process lifetimes (ROADMAP item 3), in three pillars:
//!
//! * [`journal`] — an append-only, CRC-checksummed record of a sweep's
//!   specification, chunk leases, and completed-chunk results. A killed
//!   run resumes from the last durable chunk (`twocs sweep --resume`),
//!   with replay validated against the journaled grid fingerprint.
//! * [`sink`] — a streaming result sink: chunks arrive in any order,
//!   in-order rows go straight to the output writer, out-of-order
//!   chunks are buffered up to a point budget and spilled to a temp
//!   file beyond it. Coordinator RSS stays bounded by the buffer
//!   budget, not the grid, and the CSV bytes are identical to the
//!   in-memory path (the row renderer is shared with
//!   [`GridSweep::tabulate`](twocs_core::GridSweep::tabulate)).
//! * [`refine`] — adaptive frontier refinement: bisect along the
//!   flop-vs-bw axis to locate the comp-vs-comm crossover (the paper's
//!   key output) in orders of magnitude fewer evaluations than the
//!   dense grid.
//!
//! [`SweepStore`] composes the journal and sink behind one
//! `record(chunk, values)` call, and [`run`] is the one sweep driver:
//! every front end opens a store (journal optional, any `Write` as
//! output — stdout, or a [`Buffer`] for in-memory bodies) and hands it
//! to `run` with an executor, the local pool or the dist coordinator.
//! The ascii and JSON renderings are views over the CSV the store
//! wrote.
//!
//! The store also owns how a sweep and its results become bytes:
//! [`SweepSpec::encode`]/[`SweepSpec::decode`] and
//! [`put_values`]/[`read_values`] are the one codec, shared by the
//! journal and the `twocs-dist` wire; [`crc32`] is the journal's record
//! checksum.
//!
//! Observability: the journal emits `store.journal.{appends,fsyncs,
//! replayed_chunks}` and the `store.journal.fsync_us` histogram, the
//! sink `store.sink.{spilled_bytes,merge_passes}` and the store
//! `store.sink.wait_us` through the `twocs-obs` registry (so they
//! surface in `/v1/metrics` and `--metrics`), plus replay/fsync spans
//! for traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod enc;
pub mod journal;
pub mod refine;
pub mod runner;
pub mod sink;
pub mod spec;
mod store;

pub use enc::{crc32, put_values, read_values};
pub use journal::{Journal, Replay};
pub use refine::{
    refine_frontier, Crossing, FrontierResult, FrontierRow, RefineMetric, RefineSpec,
};
pub use runner::run;
pub use sink::{SinkReport, StreamSink, DEFAULT_BUFFER_POINTS};
pub use spec::SweepSpec;
pub use store::{Buffer, StoreReport, SweepStore};
