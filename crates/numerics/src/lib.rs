//! Numerical substrate for the `cntfet` workspace.
//!
//! Everything the reference ballistic model, the piecewise compact model and
//! the circuit simulator need is implemented here from scratch:
//!
//! * [`polynomial`] — dense univariate polynomials with exact calculus and
//!   closed-form real roots up to cubic order ([`roots`]);
//! * [`quadrature`] — adaptive Simpson and Gauss–Legendre rules, plus
//!   semi-infinite integrals for Fermi-type integrands;
//! * [`rootfind`] — bisection, safeguarded (damped) Newton–Raphson and Brent;
//! * [`linalg`] — dense matrices, LU with partial pivoting, and
//!   Householder-QR least squares;
//! * [`sparse`] — triplet → CSR assembly with a cached sparsity pattern
//!   and [`sparse::SparseLu`], the fill-reusing sparse LU (scalar-generic
//!   over real and complex values) for the circuit simulator's MNA
//!   systems, plus the dense-LU reference it is tested against;
//! * [`complex`] — a minimal complex number for the frequency-domain
//!   (AC small-signal) solves of the circuit simulator;
//! * [`fit`] — unconstrained and equality-constrained polynomial least
//!   squares (the constraint machinery implements the paper's C¹-continuity
//!   requirement);
//! * [`optimize`] — golden-section and Nelder–Mead minimisers used for
//!   breakpoint placement;
//! * [`interp`] — linear and monotone-cubic interpolation of tabulated data;
//! * [`stats`] — RMS / relative-RMS error metrics used throughout the
//!   paper's tables.
//!
//! # Examples
//!
//! ```
//! use cntfet_numerics::polynomial::Polynomial;
//! use cntfet_numerics::quadrature::adaptive_simpson;
//!
//! let p = Polynomial::new(vec![0.0, 0.0, 3.0]); // 3x^2
//! let area = adaptive_simpson(&|x: f64| p.eval(x), 0.0, 1.0, 1e-12, 40);
//! assert!((area - 1.0).abs() < 1e-10);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod complex;
pub mod error;
pub mod fit;
pub mod interp;
pub mod linalg;
pub mod optimize;
pub mod polynomial;
pub mod quadrature;
pub mod rootfind;
pub mod roots;
pub mod sparse;
pub mod stats;

pub use error::NumericsError;
pub use polynomial::Polynomial;
