//! # twocs-opmodel — operator-level runtime models (the paper's §4.2)
//!
//! Profiling every future Transformer configuration is intractable; the
//! paper's empirical strategy instead:
//!
//! 1. profiles a **single baseline** model's training iteration at the
//!    operator level ([`profile`]),
//! 2. fits **operator-level models** — GEMM runtime linear in `SL`/`B` and
//!    quadratic in `H`, LayerNorm linear in both, all-reduce a
//!    size-dependent bandwidth curve ([`model`], [`stats`]),
//! 3. **projects** any target configuration's full-iteration breakdown
//!    from the baseline ([`projection`]),
//! 4. validates the projections against ground truth and accounts for the
//!    profiling cost saved ([`validation`], [`cost_accounting`]) —
//!    the paper's Figure 15 and its 2100×/1.5× speedup claims.
//!
//! In this reproduction "ground truth" is the `twocs-hw`/`twocs-sim`
//! substrate (which models the shape-dependent efficiency effects real
//! GPUs exhibit), so the projection error measured here has the same
//! origin the paper describes: *"operation efficiency improves with size"*
//! and *"GEMMs use different kernel implementations tuned per size"*.
//!
//! ## Example
//!
//! ```
//! use twocs_hw::DeviceSpec;
//! use twocs_opmodel::projection::ProjectionModel;
//! use twocs_transformer::{Hyperparams, ParallelConfig};
//!
//! let dev = DeviceSpec::mi210();
//! // Profile a BERT-like baseline once...
//! let base = Hyperparams::builder(1024).heads(16).seq_len(512).batch(4).build()?;
//! let model = ProjectionModel::from_baseline(&base, &dev);
//! // ...then project a future model without "running" it.
//! let big = Hyperparams::builder(16384).heads(64).seq_len(2048).batch(1).build()?;
//! let proj = model.project(&big, &ParallelConfig::new().tensor(64));
//! assert!(proj.serialized_comm_fraction() > 0.1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost_accounting;
pub mod model;
pub mod profile;
pub mod projection;
pub mod stats;
pub mod validation;

pub use model::{ArSizeModel, FittedOpModel, ScalingExponents};
pub use profile::{OperatorRecord, Profiler, SlackRoi};
pub use projection::{ProjectedIteration, ProjectionModel};
