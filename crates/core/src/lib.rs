//! Piecewise non-linear compact model of the ballistic CNFET — the
//! contribution of Kazmierski, Zhou & Al-Hashimi (DATE 2008).
//!
//! The reference theory (in [`cntfet_reference`]) needs numerical
//! Fermi-integral quadrature inside a Newton–Raphson loop at every bias
//! point. This crate removes both:
//!
//! * [`piecewise`] — `Q_S(V_SC)` as C¹ piecewise polynomials of degree ≤ 3;
//! * [`spec`] — the paper's Model 1 (linear/quadratic/zero) and Model 2
//!   (linear/quadratic/cubic/zero) region layouts, plus custom layouts;
//! * [`fit`] — constrained least-squares fitting against the theoretical
//!   curve, with optional numeric breakpoint optimisation;
//! * [`solver`] — closed-form (Cardano) solution of the self-consistent
//!   voltage equation by segment-pair enumeration;
//! * [`device`] — [`CompactCntFet`], the drop-in fast model;
//! * [`batch`] — rayon-parallel evaluation of whole bias grids, with the
//!   sequential loop kept as its bitwise reference;
//! * [`validation`] — RMS-error tables against the reference (Tables
//!   II–V of the paper);
//! * [`export`] — Verilog-A / VHDL-AMS source emission of fitted models
//!   (the paper's authors distributed a VHDL-AMS Model 2).
//!
//! # Examples
//!
//! ```
//! use cntfet_core::CompactCntFet;
//! use cntfet_reference::{BallisticModel, DeviceParams};
//!
//! let params = DeviceParams::paper_default();
//! let fast = CompactCntFet::model2(params.clone())?;
//! let slow = BallisticModel::new(params);
//!
//! let grid: Vec<f64> = (0..=12).map(|i| 0.05 * i as f64).collect();
//! let f = fast.output_characteristic(0.5, &grid)?.currents();
//! let s = slow.output_characteristic(0.5, &grid)?.currents();
//! let err = cntfet_numerics::stats::relative_rms_percent(&f, &s);
//! assert!(err < 5.0, "compact model within the paper's accuracy band");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod device;
pub mod error;
pub mod export;
pub mod fit;
pub mod piecewise;
pub mod solver;
pub mod spec;
pub mod validation;

pub use device::CompactCntFet;
pub use error::CompactModelError;
pub use piecewise::PiecewiseCharge;
pub use spec::PiecewiseSpec;
