//! AC small-signal analysis: frequency sweeps of the circuit linearised
//! at its DC operating point.
//!
//! # Formulation
//!
//! Every analysis in this crate assembles the residual `F(x, ẋ) = 0`.
//! Linearising around an operating point `x₀` (where `ẋ = 0`) under a
//! small sinusoidal perturbation `u = û·e^{jωt}` of one source value
//! gives the phasor system
//!
//! ```text
//! (G + jωC) · X = −∂F/∂u · û ,   G = ∂F/∂x |x₀ ,   C = ∂F/∂ẋ |x₀
//! ```
//!
//! Both matrices come straight from the existing
//! [`TransientStamp`] stencil machinery:
//! a transient-mode Jacobian is exactly `G + a0·C` (companion stamps
//! scale linearly with the leading coefficient `a0` and never change
//! the sparsity structure), so assembling at `a0 = 0` yields `G` and
//! the difference against `a0 = 1` yields `C` — over one shared
//! pattern, with no AC-specific stamping code in any element.
//!
//! # Efficiency contract
//!
//! The complex system shares that single real sparsity pattern at every
//! frequency: the sparse LU ([`SparseLu<Complex>`]) orders and
//! symbolically factors it **once per sweep**, then each frequency
//! point only re-values `G + jωC` and replays the frozen elimination.
//! [`AcStats`] exposes the factorisation counters so benchmarks assert
//! this rather than assume it (see the `ac_response` bench).
//!
//! # Conventions
//!
//! The stimulus is a **unit phasor** (1 V for a voltage source, 1 A for
//! a current source) at every frequency, so response phasors are
//! transfer functions: [`AcResponse::magnitude`] of an output node is
//! the gain `|H(jω)|`, [`AcResponse::phase`] its phase. Run sweeps
//! through [`crate::sim::Simulator::ac`].

use crate::element::{AnalysisMode, TransientStamp};
use crate::engine::{EngineCounters, NewtonEngine};
use crate::error::CircuitError;
use crate::netlist::{Circuit, NodeId};
use crate::sim::Probe;
use cntfet_numerics::complex::Complex;
use cntfet_numerics::sparse::SparseLu;
use std::sync::Arc;

/// Frequency grid of an AC sweep, hertz.
#[derive(Debug, Clone, PartialEq)]
pub enum FreqGrid {
    /// Logarithmic sweep: `points_per_decade` points per factor-of-ten,
    /// from `f_start` up to (at least) `f_stop`, endpoints included.
    Decade {
        /// First frequency, Hz (must be positive).
        f_start: f64,
        /// Last frequency, Hz (must exceed `f_start`).
        f_stop: f64,
        /// Grid density per decade (≥ 1).
        points_per_decade: usize,
    },
    /// Linear sweep of `points` equally spaced frequencies from
    /// `f_start` to `f_stop` inclusive.
    Linear {
        /// First frequency, Hz (non-negative; 0 probes the DC limit).
        f_start: f64,
        /// Last frequency, Hz.
        f_stop: f64,
        /// Number of points (≥ 1; 1 sweeps just `f_start`).
        points: usize,
    },
    /// An explicit list of frequencies, Hz.
    List(Vec<f64>),
}

impl FreqGrid {
    /// Expands the grid into an explicit, validated frequency list.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidAnalysis`] for empty, non-finite,
    /// negative or inverted specifications.
    pub fn frequencies(&self) -> Result<Vec<f64>, CircuitError> {
        let freqs = match *self {
            FreqGrid::Decade {
                f_start,
                f_stop,
                points_per_decade,
            } => {
                if !(f_start > 0.0 && f_stop > f_start && f_start.is_finite() && f_stop.is_finite())
                {
                    return Err(CircuitError::InvalidAnalysis(format!(
                        "decade sweep needs 0 < f_start < f_stop, got [{f_start}, {f_stop}] Hz"
                    )));
                }
                if points_per_decade == 0 {
                    return Err(CircuitError::InvalidAnalysis(
                        "decade sweep needs at least 1 point per decade".into(),
                    ));
                }
                let decades = (f_stop / f_start).log10();
                let steps = (decades * points_per_decade as f64).ceil() as usize;
                let mut f: Vec<f64> = (0..steps)
                    .map(|k| f_start * 10f64.powf(k as f64 / points_per_decade as f64))
                    .collect();
                f.push(f_stop); // land exactly on the endpoint
                f
            }
            FreqGrid::Linear {
                f_start,
                f_stop,
                points,
            } => {
                if !(f_start >= 0.0 && f_stop >= f_start && f_stop.is_finite()) {
                    return Err(CircuitError::InvalidAnalysis(format!(
                        "linear sweep needs 0 <= f_start <= f_stop, got [{f_start}, {f_stop}] Hz"
                    )));
                }
                if points == 0 {
                    return Err(CircuitError::InvalidAnalysis(
                        "linear sweep needs at least 1 point".into(),
                    ));
                }
                if points == 1 {
                    vec![f_start]
                } else {
                    (0..points)
                        .map(|k| f_start + (f_stop - f_start) * k as f64 / (points - 1) as f64)
                        .collect()
                }
            }
            FreqGrid::List(ref f) => {
                if f.is_empty() {
                    return Err(CircuitError::InvalidAnalysis(
                        "frequency list must not be empty".into(),
                    ));
                }
                if let Some(bad) = f.iter().find(|v| !(v.is_finite() && **v >= 0.0)) {
                    return Err(CircuitError::InvalidAnalysis(format!(
                        "frequencies must be finite and non-negative, got {bad} Hz"
                    )));
                }
                f.clone()
            }
        };
        Ok(freqs)
    }
}

/// An AC sweep request: which source carries the unit stimulus and the
/// frequency grid to evaluate.
#[derive(Debug, Clone, PartialEq)]
pub struct AcSweep {
    /// Name of the stimulus source (validated before solving, with the
    /// available sources listed on a miss).
    pub source: String,
    /// Frequencies to evaluate.
    pub grid: FreqGrid,
}

impl AcSweep {
    /// A logarithmic sweep (`points_per_decade` per factor of ten).
    pub fn decade(
        source: impl Into<String>,
        f_start: f64,
        f_stop: f64,
        points_per_decade: usize,
    ) -> Self {
        AcSweep {
            source: source.into(),
            grid: FreqGrid::Decade {
                f_start,
                f_stop,
                points_per_decade,
            },
        }
    }

    /// A linear sweep of `points` frequencies.
    pub fn linear(source: impl Into<String>, f_start: f64, f_stop: f64, points: usize) -> Self {
        AcSweep {
            source: source.into(),
            grid: FreqGrid::Linear {
                f_start,
                f_stop,
                points,
            },
        }
    }

    /// A sweep over an explicit frequency list.
    pub fn list(source: impl Into<String>, freqs: Vec<f64>) -> Self {
        AcSweep {
            source: source.into(),
            grid: FreqGrid::List(freqs),
        }
    }
}

/// Solver-cost counters of one AC sweep — the observable form of the
/// "order once, re-value per frequency" contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AcStats {
    /// Number of frequency points solved.
    pub frequencies: usize,
    /// Stored entries of the shared (real) sparsity pattern.
    pub jacobian_nnz: usize,
    /// Engine counters of the sweep: the two linearisation assemblies'
    /// device evaluations plus one complex factorisation per frequency
    /// — a pivot-searching one first, then (normally) partial replays
    /// of the capacitive slots.
    pub counters: EngineCounters,
}

/// Result of an AC sweep: per-frequency complex phasors of every
/// unknown, with probe-by-node-name accessors for magnitude (linear or
/// dB) and phase (radians or degrees).
///
/// Phasors are responses to a *unit* stimulus, i.e. transfer functions.
#[derive(Debug, Clone, PartialEq)]
pub struct AcResponse {
    freqs: Vec<f64>,
    n_unknowns: usize,
    /// Unknown-major: unknown `u`'s response at
    /// `data[u*freqs.len() .. (u+1)*freqs.len()]`.
    data: Vec<Complex>,
    zeros: Vec<Complex>,
    probe: Probe,
    stats: AcStats,
}

impl AcResponse {
    /// The evaluated frequencies, Hz.
    pub fn frequencies(&self) -> &[f64] {
        &self.freqs
    }

    /// Number of frequency points.
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// `true` when the sweep holds no points.
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// The node-name probe of this response.
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// The sweep's solver-cost counters.
    pub fn stats(&self) -> &AcStats {
        &self.stats
    }

    /// Borrowed phasor response of `node` across the sweep (all-zero
    /// for ground), or `None` for a node outside the circuit.
    pub fn phasor_at(&self, node: NodeId) -> Option<&[Complex]> {
        match node.unknown_index() {
            None => Some(&self.zeros),
            Some(i) => self.phasor_index(i),
        }
    }

    /// Borrowed phasor response of raw unknown `index` (node voltages
    /// first, then element extra variables such as source branch
    /// currents — useful for input-impedance extraction).
    pub fn phasor_index(&self, index: usize) -> Option<&[Complex]> {
        if index < self.n_unknowns {
            let n = self.freqs.len();
            Some(&self.data[index * n..(index + 1) * n])
        } else {
            None
        }
    }

    /// Borrowed phasor response of the named node.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownNode`] listing the available names.
    pub fn phasor(&self, name: &str) -> Result<&[Complex], CircuitError> {
        let node = self.probe.node(name)?;
        Ok(self
            .phasor_at(node)
            .expect("probe only resolves nodes of the originating circuit"))
    }

    /// Transfer magnitude `|H(jω)|` of the named node.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownNode`] listing the available names.
    pub fn magnitude(&self, name: &str) -> Result<Vec<f64>, CircuitError> {
        Ok(self.phasor(name)?.iter().map(|z| z.abs()).collect())
    }

    /// Transfer magnitude in decibels, `20·log₁₀|H|`.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownNode`] listing the available names.
    pub fn magnitude_db(&self, name: &str) -> Result<Vec<f64>, CircuitError> {
        Ok(self.phasor(name)?.iter().map(|z| z.abs_db()).collect())
    }

    /// Phase in radians, per point in `(−π, π]`.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownNode`] listing the available names.
    pub fn phase(&self, name: &str) -> Result<Vec<f64>, CircuitError> {
        Ok(self.phasor(name)?.iter().map(|z| z.arg()).collect())
    }

    /// Phase in degrees.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownNode`] listing the available names.
    pub fn phase_deg(&self, name: &str) -> Result<Vec<f64>, CircuitError> {
        Ok(self
            .phasor(name)?
            .iter()
            .map(|z| z.arg().to_degrees())
            .collect())
    }
}

/// Runs the AC sweep on a session engine: linearise at `op_x`, then one
/// complex solve per frequency over a single frozen pattern.
pub(crate) fn ac_core(
    engine: &mut NewtonEngine,
    circuit: &Circuit,
    op_x: &[f64],
    sweep: &AcSweep,
) -> Result<AcResponse, CircuitError> {
    let freqs = sweep.grid.frequencies()?;
    let n = circuit.unknown_count();
    if n == 0 {
        return Ok(AcResponse {
            zeros: vec![Complex::ZERO; freqs.len()],
            freqs,
            n_unknowns: 0,
            data: Vec::new(),
            probe: Probe::from_circuit(circuit),
            stats: AcStats::default(),
        });
    }

    // Unit stimulus vector of the named source.
    let mut rhs = vec![0.0; n];
    let bases = circuit.extra_var_bases();
    let driven = circuit
        .elements()
        .iter()
        .zip(&bases)
        .find(|(e, _)| e.is_source() && e.name() == sweep.source)
        .map(|(e, &base)| e.ac_stimulus(base, &mut rhs));
    match driven {
        Some(true) => {}
        Some(false) => {
            return Err(CircuitError::InvalidAnalysis(format!(
                "source '{}' cannot provide an AC stimulus",
                sweep.source
            )))
        }
        None => {
            return Err(CircuitError::UnknownSource {
                requested: sweep.source.clone(),
                available: circuit.source_names(),
            })
        }
    }

    // Linearise at the operating point via the transient stencil:
    // J(a0) = G + a0·C with a frequency-independent pattern, so two
    // assemblies recover both matrices over one shared structure.
    let stamp = |a0: f64| {
        AnalysisMode::Transient(TransientStamp {
            t: 0.0,
            a0,
            hist: vec![0.0; n],
        })
    };
    let base = engine.counters();
    let (pattern, g) = {
        let (_, j) = engine.assemble(circuit, op_x, &stamp(0.0), 0.0);
        (Arc::clone(j.pattern()), j.values().to_vec())
    };
    let c: Vec<f64> = {
        let (_, j1) = engine.assemble(circuit, op_x, &stamp(1.0), 0.0);
        j1.values()
            .iter()
            .zip(&g)
            .map(|(j1v, gv)| j1v - gv)
            .collect()
    };

    // One complex LU per sweep: ordered at the first frequency, value
    // replay afterwards. Only the capacitive slots change with
    // frequency (imaginary part ω·C), so later frequencies take the
    // partial-refactorization path seeded with exactly those slots.
    let mut lu = SparseLu::<Complex>::new();
    let dyn_slots: Vec<usize> = c
        .iter()
        .enumerate()
        .filter(|&(_, &cv)| cv != 0.0)
        .map(|(slot, _)| slot)
        .collect();
    let rhs_c: Vec<Complex> = rhs.iter().map(|&v| Complex::from(v)).collect();
    let mut vals = vec![Complex::ZERO; g.len()];
    let n_points = freqs.len();
    let mut data = vec![Complex::ZERO; n * n_points];
    let mut factor_ops = 0u64;
    for (k, &f) in freqs.iter().enumerate() {
        engine.check_cancel()?;
        let omega = 2.0 * std::f64::consts::PI * f;
        for ((v, &gv), &cv) in vals.iter_mut().zip(&g).zip(&c) {
            *v = Complex::new(gv, omega * cv);
        }
        let factored = if k == 0 {
            lu.factor(&pattern, &vals)
        } else {
            lu.factor_partial(&pattern, &vals, &dyn_slots)
        };
        factored.map_err(|e| {
            CircuitError::SingularSystem(format!("AC system is singular at {f:.6e} Hz: {e}"))
        })?;
        factor_ops += lu.factor_ops();
        let x = lu.solve_factored(&rhs_c).map_err(|e| {
            CircuitError::SingularSystem(format!("AC solve failed at {f:.6e} Hz: {e}"))
        })?;
        for (u, &xv) in x.iter().enumerate() {
            data[u * n_points + k] = xv;
        }
    }

    engine.record(EngineCounters {
        factorizations: n_points as u64,
        factor_ops,
        ..EngineCounters::from(lu.factor_path_stats())
    });
    let stats = AcStats {
        frequencies: n_points,
        jacobian_nnz: pattern.nnz(),
        counters: engine.counters().delta_since(&base),
    };
    Ok(AcResponse {
        freqs,
        n_unknowns: n,
        data,
        zeros: vec![Complex::ZERO; n_points],
        probe: Probe::from_circuit(circuit),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Capacitor, CurrentSource, Resistor, VoltageSource};
    use crate::sim::Simulator;

    fn rc_lowpass(r: f64, c: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add(VoltageSource::dc("V1", vin, Circuit::ground(), 0.0));
        ckt.add(Resistor::new("R1", vin, out, r));
        ckt.add(Capacitor::new("C1", out, Circuit::ground(), c));
        ckt
    }

    #[test]
    fn grid_expansion_and_validation() {
        let dec = FreqGrid::Decade {
            f_start: 1e3,
            f_stop: 1e6,
            points_per_decade: 1,
        };
        let f = dec.frequencies().unwrap();
        assert_eq!(f.len(), 4, "{f:?}");
        assert!((f[0] - 1e3).abs() < 1e-9 && (f[3] - 1e6).abs() < 1e-3);
        let lin = FreqGrid::Linear {
            f_start: 0.0,
            f_stop: 10.0,
            points: 3,
        };
        assert_eq!(lin.frequencies().unwrap(), vec![0.0, 5.0, 10.0]);
        assert_eq!(
            FreqGrid::Linear {
                f_start: 2.0,
                f_stop: 2.0,
                points: 1
            }
            .frequencies()
            .unwrap(),
            vec![2.0]
        );
        assert!(FreqGrid::Decade {
            f_start: 0.0,
            f_stop: 1e3,
            points_per_decade: 10
        }
        .frequencies()
        .is_err());
        assert!(FreqGrid::List(vec![]).frequencies().is_err());
        assert!(FreqGrid::List(vec![1.0, -2.0]).frequencies().is_err());
    }

    #[test]
    fn rc_lowpass_matches_analytic_transfer_function() {
        let (r, c) = (1e3, 1e-9); // corner at 1/(2π·RC) ≈ 159 kHz
        let mut sim = Simulator::new(rc_lowpass(r, c));
        let res = sim.ac(&AcSweep::decade("V1", 1e2, 1e8, 10)).unwrap();
        let out = res.phasor("out").unwrap();
        let vin = res.phasor("in").unwrap();
        for ((&f, &h), &hin) in res.frequencies().iter().zip(out).zip(vin) {
            let omega = 2.0 * std::f64::consts::PI * f;
            let expect = Complex::ONE / Complex::new(1.0, omega * r * c);
            assert!(
                (h - expect).abs() <= 1e-9 * expect.abs(),
                "f = {f:.3e}: {h} vs {expect}"
            );
            // The driven node follows the stimulus exactly.
            assert!((hin - Complex::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn pattern_is_ordered_once_per_sweep() {
        let mut sim = Simulator::new(rc_lowpass(1e3, 1e-9));
        let res = sim.ac(&AcSweep::decade("V1", 1e3, 1e6, 5)).unwrap();
        let s = res.stats();
        let c = &s.counters;
        assert_eq!(s.frequencies, res.len());
        assert_eq!(c.factorizations as usize, s.frequencies);
        assert_eq!(c.symbolic_factorizations, 1, "ordered once");
        // With no reserved slot on the source's constraint row the
        // 3-unknown system is a permuted triangle: the plan eliminates
        // no entry, and the capacitor's ω-dependent slot dirties only
        // its own row's step, which no other step reads. So each later
        // frequency replays one of the three steps on the partial path.
        assert_eq!(c.replay_refactorizations, 0);
        assert_eq!(
            c.partial_refactorizations as usize,
            s.frequencies - 1,
            "every later frequency takes the partial path"
        );
        assert_eq!(
            (c.columns_recomputed, c.columns_total),
            (3 + 15, 3 * 16),
            "all 3 steps once, then 1 step at each of 15 later frequencies"
        );
        assert_eq!((s.jacobian_nnz, c.factor_ops), (6, 0));
    }

    #[test]
    fn current_source_stimulus_sees_impedance() {
        // 1 A AC into R ∥ C: V = Z(jω) = R / (1 + jωRC).
        let (r, c) = (2e3, 1e-9);
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(CurrentSource::dc("I1", Circuit::ground(), a, 0.0));
        ckt.add(Resistor::new("R1", a, Circuit::ground(), r));
        ckt.add(Capacitor::new("C1", a, Circuit::ground(), c));
        let mut sim = Simulator::new(ckt);
        let res = sim.ac(&AcSweep::list("I1", vec![1e3, 1e5, 1e7])).unwrap();
        for (&f, &z) in res.frequencies().iter().zip(res.phasor("a").unwrap()) {
            let omega = 2.0 * std::f64::consts::PI * f;
            let expect = Complex::from(r) / Complex::new(1.0, omega * r * c);
            assert!(
                (z - expect).abs() <= 1e-9 * expect.abs(),
                "f = {f:.3e}: {z} vs {expect}"
            );
        }
    }

    #[test]
    fn bad_requests_fail_fast() {
        let mut sim = Simulator::new(rc_lowpass(1e3, 1e-9));
        let err = sim.ac(&AcSweep::decade("VX", 1e3, 1e6, 5)).unwrap_err();
        assert!(matches!(err, CircuitError::UnknownSource { .. }));
        assert!(err.to_string().contains("V1"), "{err}");
        assert!(sim.ac(&AcSweep::decade("V1", -1.0, 1e6, 5)).is_err());
        // A resistor is not a drivable source: listed as unknown.
        let err = sim.ac(&AcSweep::decade("R1", 1e3, 1e6, 5)).unwrap_err();
        assert!(matches!(err, CircuitError::UnknownSource { .. }));
    }

    #[test]
    fn magnitude_and_phase_accessors_agree_with_phasors() {
        let mut sim = Simulator::new(rc_lowpass(1e3, 1e-9));
        let res = sim.ac(&AcSweep::list("V1", vec![159.15e3])).unwrap();
        let h = res.phasor("out").unwrap()[0];
        assert!((res.magnitude("out").unwrap()[0] - h.abs()).abs() < 1e-15);
        assert!((res.magnitude_db("out").unwrap()[0] - h.abs_db()).abs() < 1e-12);
        assert!((res.phase("out").unwrap()[0] - h.arg()).abs() < 1e-15);
        assert!((res.phase_deg("out").unwrap()[0] - h.arg().to_degrees()).abs() < 1e-12);
        // Near the corner: |H| ≈ 1/√2, phase ≈ −45°.
        assert!((h.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        assert!((h.arg().to_degrees() + 45.0).abs() < 0.1);
        // Ground probes are exactly zero.
        assert!(res.phasor("gnd").unwrap()[0] == Complex::ZERO);
        assert!(res.phasor("typo").is_err());
    }
}
