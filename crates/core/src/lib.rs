//! # twocs-core — the Comp-vs.-Comm analysis
//!
//! This crate is the paper's primary contribution: a multi-axial
//! (algorithmic, empirical, hardware-evolution) analysis of how compute
//! and communication scale relative to one another as Transformers grow
//! and hardware evolves.
//!
//! * [`algorithmic`] — the closed-form op/byte counts of §3 (Eqs. 1–9):
//!   compute's *Amdahl's-law edge* `O((H+SL)/TP)` over serialized TP
//!   communication and its *slack advantage* `O(SL·B)` over overlapped DP
//!   communication.
//! * [`trends`] — model-scaling analysis: the memory gap (Fig. 6), the
//!   normalized erosion of edge and slack across the model zoo (Fig. 7),
//!   and the required-TP projection (Fig. 9(b)).
//! * [`serialized`] / [`overlapped`] — the per-point models of the
//!   empirical studies of §4.3.4 and §4.3.5 (Figs. 10 and 11), runnable
//!   either on the discrete-event simulator or through the operator-model
//!   projection. The sweep kernel ([`sweep::eval_grid_point`]) calls them.
//! * [`evolution`] — the future-hardware studies of §4.3.6 (Figs. 12, 13).
//! * [`case_study`] — the §4.3.7 end-to-end case study (Fig. 14),
//!   including the slow-inter-node + interference scenario.
//! * [`accuracy`] — the §4.3.8 operator-model validation (Fig. 15) and
//!   profiling-cost accounting.
//! * [`techniques`] — quantified §5 remedies (comm offload, PIN,
//!   fine-grained overlap) on a communication-dominated workload.
//! * [`sensitivity`] — robustness of the headline bands to the calibrated
//!   substrate constants.
//! * [`experiments`] — a registry mapping every paper table/figure to a
//!   runnable generator; the grid figures are point lists priced by the
//!   sweep kernel. [`report`] renders results as ASCII or CSV.
//!
//! ## Example
//!
//! ```
//! use twocs_core::experiments;
//! use twocs_hw::DeviceSpec;
//!
//! let defs = experiments::all();
//! assert!(defs.iter().any(|d| d.id == "fig10"));
//! // Run one experiment and render it.
//! let fig7 = experiments::by_id("fig07").expect("registered");
//! let out = (fig7.run)(&DeviceSpec::mi210());
//! assert!(!out.to_ascii().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accuracy;
pub mod algorithmic;
pub mod axes;
pub mod case_study;
pub mod evolution;
pub mod experiments;
pub mod grid;
pub mod inference;
pub mod overlapped;
pub mod planner;
pub mod report;
pub mod sensitivity;
pub mod serialized;
pub mod sweep;
pub mod techniques;
pub mod trends;

pub use algorithmic::AlgorithmicProfile;
pub use axes::{Axis, Values, AXES};
pub use experiments::{ExperimentDef, ExperimentOutput};
pub use grid::{ChunkSet, GridIndex, GridPointsIter};
pub use inference::{InferenceIteration, Workload};
pub use planner::{eval_chunk, FactoredPlan};
pub use report::{Figure, Series, Table};
pub use sweep::{
    eval_grid_point, run_experiments, GridExecutor, GridPoint, GridSweep, LocalPool, OnChunk,
    PointResults, RowWriter, SweepRun, SweepSummary,
};
