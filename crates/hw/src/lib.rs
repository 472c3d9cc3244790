//! # twocs-hw — parametric accelerator and interconnect models
//!
//! This crate is the hardware substrate of the `twocs` workspace. It models
//! the *first-order* performance behaviour of ML accelerators (GPUs) and the
//! links that connect them:
//!
//! * [`DeviceSpec`] — peak math throughput per [`Precision`], memory capacity
//!   and bandwidth, kernel-launch overhead, and the attached [`LinkSpec`].
//!   A catalog of published accelerators (MI50 → MI250X, V100 → H100-class)
//!   is available via constructors such as [`DeviceSpec::mi210`].
//! * [`gemm`] — an achievable-throughput model for matrix multiplication
//!   built around a small kernel catalog (tile sizes, wave quantization,
//!   short-K inefficiency), combined with a roofline bound.
//! * [`memops`] — bandwidth-bound operator costs (LayerNorm, GeLU, softmax,
//!   residual adds, dropout, …).
//! * [`network`] — latency + size-dependent effective bandwidth for links,
//!   and node-level network properties (ring all-reduce bandwidth,
//!   processing-in-network modes).
//! * [`topology`] — how devices are wired: fully connected, ring, switched,
//!   or hierarchical multi-node.
//! * [`evolution`] — "future hardware" scaling knobs, most importantly the
//!   paper's *flop-vs.-bw* ratio (compute FLOPS scaling faster than network
//!   bandwidth).
//!
//! All times in this crate are `f64` **seconds**; all sizes are **bytes**;
//! all rates are **per second** (FLOP/s, B/s). The discrete-event simulator
//! (`twocs-sim`) converts to integer picoseconds at its boundary.
//!
//! The models are pure functions of their inputs: the crate keeps no
//! memo cache and publishes no metrics, so it depends on no other
//! workspace crate.
//!
//! ## Example
//!
//! ```
//! use twocs_hw::{DeviceSpec, Precision, gemm::GemmShape};
//!
//! let dev = DeviceSpec::mi210();
//! let shape = GemmShape::new(4096, 4096, 4096);
//! let t = dev.gemm_time(shape, Precision::Fp16);
//! assert!(t > 0.0 && t < 1.0);
//! // A big square GEMM should run near peak.
//! let eff = shape.flops() as f64 / t / dev.peak_flops(Precision::Fp16);
//! assert!(eff > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod device;
pub mod error;
pub mod evolution;
pub mod gemm;
pub mod memops;
pub mod network;
pub mod precision;
pub mod roofline;
pub mod topology;

pub use device::DeviceSpec;
pub use error::HwError;
pub use evolution::HwEvolution;
pub use network::{LinkSpec, PinMode};
pub use precision::Precision;
pub use topology::Topology;
