//! # twocs-collectives — collective communication algorithms
//!
//! The paper's communication costs all come from collectives — above all
//! the **all-reduce** used by tensor parallelism (serialized, on the
//! critical path) and data parallelism (overlapped with backprop). This
//! crate implements the collectives themselves:
//!
//! * [`schedule`] — step-by-step transfer schedules for ring, binomial
//!   tree, and recursive-halving-doubling algorithms, over any device
//!   count, as produced by [`algorithm::Algorithm::schedule`].
//! * [`dataplane`] — a functional execution of a schedule over real `f32`
//!   buffers. This is how the crate *proves* its schedules are correct:
//!   property tests check that every device ends with the exact reduction
//!   and that the bytes each device moves match the analytic formulas
//!   (e.g. `2 (N-1)/N · S` per device for a ring all-reduce).
//! * [`cost`] — the analytic α–β cost model with message-size-dependent
//!   bandwidth, used by the workload builders to price collectives, and
//!   validated against discrete-event simulation of the full schedules.
//!
//! ## Example
//!
//! ```
//! use twocs_collectives::{algorithm::Algorithm, dataplane::run_allreduce};
//!
//! // 4 devices, each contributing [rank; 8]: all end with the sum 0+1+2+3.
//! let inputs: Vec<Vec<f32>> = (0..4).map(|r| vec![r as f32; 8]).collect();
//! let outputs = run_allreduce(Algorithm::Ring, &inputs).unwrap();
//! for out in &outputs {
//!     assert_eq!(out, &vec![6.0; 8]);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algorithm;
pub mod cost;
pub mod dataplane;
pub mod error;
pub mod schedule;

pub use algorithm::{Algorithm, Collective};
pub use cost::CollectiveCostModel;
pub use error::CollectiveError;
pub use schedule::CommSchedule;
