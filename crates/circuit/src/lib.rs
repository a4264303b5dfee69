//! SPICE-like circuit simulator with a ballistic CNFET compact device.
//!
//! The DATE 2008 paper motivates its fast CNFET model by "implementation
//! in circuit-level, e.g. SPICE-like, simulators where large numbers of
//! such devices may be used". This crate is that substrate: a modified-
//! nodal-analysis engine with
//!
//! * [`netlist`] — nodes and element containers;
//! * [`element`] — R, C, V (DC/pulse/sine), I sources and the stamping
//!   interface;
//! * [`cnfet`] — the CNFET element implementing the paper's Fig. 1
//!   equivalent circuit (inner charge node Σ + ballistic current source),
//!   with n- and mirror-symmetric p-type polarity;
//! * [`engine`] — the unified damped-Newton core ([`engine::NewtonEngine`])
//!   with pattern-cached assembly and a fill-reusing sparse LU, shared
//!   by every analysis;
//! * [`sim`] — **the public analysis API**: a [`sim::Simulator`] session
//!   owns the circuit, the engine and every cache, and exposes all
//!   analyses as typed methods (`op`, `dc_sweep`, `transient`, `ac`)
//!   returning result types with probe-by-node-name accessors;
//! * [`dc`] / [`sweep`] / [`transient`] — the analysis cores behind the
//!   session methods and their result types;
//! * [`ac`] — AC small-signal analysis: linearisation at the operating
//!   point into `G + jωC` and complex sparse solves over one frozen
//!   pattern per sweep;
//! * [`logic`] — complementary inverter / NAND / ring-oscillator builders
//!   (the paper's future-work "practical logic circuit structures");
//! * [`deck`] — the SPICE deck front-end: parse external netlist text
//!   (R/C/V/I and CNFET `M` cards, `.model`/`.param`, `.op`/`.dc`/
//!   `.tran`/`.ac`) into [`sim::Simulator`] sessions, with spanned
//!   errors and "did you mean" suggestions; the `cntfet-sim` binary
//!   wraps it as a command-line tool.
//!
//! # Examples
//!
//! ```
//! use cntfet_circuit::prelude::*;
//!
//! let mut c = Circuit::new();
//! let vin = c.node("in");
//! let out = c.node("out");
//! c.add(VoltageSource::dc("V1", vin, Circuit::ground(), 2.0));
//! c.add(Resistor::new("R1", vin, out, 1e3));
//! c.add(Resistor::new("R2", out, Circuit::ground(), 1e3));
//! c.add(Capacitor::new("C1", out, Circuit::ground(), 1e-9));
//!
//! // One session shares the engine caches across every analysis.
//! let mut sim = Simulator::new(c);
//! let op = sim.op()?;
//! assert!((op.voltage("out")? - 1.0).abs() < 1e-9);
//!
//! // AC small-signal: RC low-pass corner at 1/(2π·500Ω·1nF) ≈ 318 kHz.
//! let ac = sim.ac(&AcSweep::decade("V1", 1e3, 1e8, 5))?;
//! let mag = ac.magnitude("out")?;
//! assert!(mag[0] > 0.49 && *mag.last().unwrap() < 1e-2);
//! # Ok::<(), cntfet_circuit::CircuitError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ac;
pub mod cnfet;
pub mod dc;
pub mod deck;
pub mod element;
pub mod engine;
pub mod error;
pub mod logic;
pub mod netlist;
pub mod sim;
pub mod sweep;
pub mod transient;

pub use error::CircuitError;

/// Convenient glob import for building and solving circuits.
///
/// Exposes the session API ([`sim::Simulator`] and its request/result
/// types) alongside the element builders.
pub mod prelude {
    pub use crate::ac::{AcResponse, AcStats, AcSweep, FreqGrid};
    pub use crate::cnfet::{CnfetElement, Polarity};
    pub use crate::dc::Solution;
    pub use crate::deck::{AnalysisReport, Deck, DeckError, DeckRun};
    pub use crate::element::{Capacitor, CurrentSource, Resistor, VoltageSource, Waveform};
    pub use crate::engine::{EngineCounters, NewtonEngine, NewtonOptions};
    pub use crate::error::CircuitError;
    pub use crate::logic::{
        add_inverter, add_inverter_array, add_inverter_chain, add_nand2, add_ring_oscillator,
        CntTechnology,
    };
    pub use crate::netlist::{Circuit, NodeId};
    pub use crate::sim::{sweep_many, OpPoint, Probe, Simulator, SweepSpec, TransientSpec};
    pub use crate::sweep::SweepResult;
    pub use crate::transient::{
        TimeIntegrator, TransientOptions, TransientResult, TransientRun, TransientStats,
    };
}
