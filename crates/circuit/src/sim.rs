//! The unified analysis session: one [`Simulator`] owns a circuit, a
//! Newton engine and every solver cache, and exposes all analyses as
//! typed methods.
//!
//! # Why a session?
//!
//! The engine accumulates expensive state — the recorded MNA sparsity
//! pattern, the sparse LU's frozen pivot order and fill pattern, a
//! converged operating point to warm-start from. A [`Simulator`] keeps
//! that state alive across every analysis of the *same* circuit:
//!
//! * [`Simulator::op`] warm-starts from the last converged solution;
//! * [`Simulator::dc_sweep`] and [`Simulator::transient`] reuse the
//!   session engine's pattern and solver ordering;
//! * [`Simulator::ac`] linearises at the session's operating point and
//!   only exists through this API.
//!
//! # Example
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
//!
//! let mut sim = Simulator::new(c);
//! let op = sim.op()?;
//! assert!((op.voltage("out")? - 1.0).abs() < 1e-9);
//!
//! // Same session, same caches: a sweep and its probe-by-name result.
//! let vtc = sim.dc_sweep(&SweepSpec::linspace("V1", 0.0, 2.0, 5))?;
//! assert_eq!(vtc.voltage("out")?.len(), 5);
//! # Ok::<(), cntfet_circuit::CircuitError>(())
//! ```

use crate::ac::{ac_core, AcResponse, AcSweep};
use crate::dc::Solution;
use crate::engine::{NewtonEngine, NewtonOptions};
use crate::error::CircuitError;
use crate::netlist::{Circuit, NodeId};
use crate::sweep::{sweep_core, SweepResult};
use crate::transient::{
    transient_adaptive_core, transient_fixed_core, TransientOptions, TransientResult, TransientRun,
    TransientStats,
};
use rayon::prelude::*;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, OnceLock};

/// Node-name lookup captured from a circuit into analysis results, so
/// results can be probed by name (`"out"`) long after the circuit moved
/// on — with an error that lists the valid names when a probe misses.
#[derive(Debug, Clone, PartialEq)]
pub struct Probe {
    names: Vec<(String, NodeId)>,
}

impl Probe {
    /// Captures the node-name table of `circuit` (sorted by creation
    /// order, so equal circuits give equal probes).
    pub fn from_circuit(circuit: &Circuit) -> Self {
        Probe {
            names: circuit.node_names(),
        }
    }

    /// Resolves a node name (`"gnd"`/`"0"` are the ground node).
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownNode`] listing the available names.
    pub fn node(&self, name: &str) -> Result<NodeId, CircuitError> {
        if name == "gnd" || name == "0" {
            return Ok(NodeId::GROUND);
        }
        self.names
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, id)| id)
            .ok_or_else(|| CircuitError::UnknownNode {
                requested: name.to_string(),
                available: self.names.iter().map(|(n, _)| n.clone()).collect(),
            })
    }

    /// The captured `(name, node)` pairs, sorted by node creation order.
    pub fn names(&self) -> &[(String, NodeId)] {
        &self.names
    }
}

/// Node-voltage waveforms with borrowed-slice probe accessors, shared
/// by [`SweepResult`] and [`TransientRun`].
///
/// The node-major copy (one contiguous slice per node) is built
/// **lazily** on the first probe: results that are only read through
/// the legacy row-major accessors never pay the extra memory or the
/// gather pass. Once built, every later probe is a pure slice borrow.
/// Equality ignores the cache state — two results probe-equal iff their
/// primary data match.
#[derive(Debug, Clone)]
pub struct NodeWaves {
    probe: Probe,
    n_nodes: usize,
    n_points: usize,
    /// Node `i`'s waveform at `data[i*n_points .. (i+1)*n_points]`,
    /// gathered from the owner's row-major states on first probe.
    data: OnceLock<Vec<f64>>,
    /// Served for ground probes (always 0 V), also lazy.
    zeros: OnceLock<Vec<f64>>,
}

impl PartialEq for NodeWaves {
    fn eq(&self, other: &Self) -> bool {
        // The caches are derived from the owner's states; whether they
        // have been materialised yet is not part of a result's value.
        self.probe == other.probe
            && self.n_nodes == other.n_nodes
            && self.n_points == other.n_points
    }
}

impl NodeWaves {
    /// Captures the probe and shape; no waveform data is copied until
    /// the first by-name/by-node probe.
    pub(crate) fn new(circuit: &Circuit, n_points: usize) -> Self {
        NodeWaves {
            probe: Probe::from_circuit(circuit),
            n_nodes: circuit.node_count(),
            n_points,
            data: OnceLock::new(),
            zeros: OnceLock::new(),
        }
    }

    /// Number of stored points per node.
    pub fn len(&self) -> usize {
        self.n_points
    }

    /// `true` when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.n_points == 0
    }

    /// The name probe backing the by-name accessors.
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// Borrowed waveform of `node` (all-zero slice for ground), or
    /// `None` when the node does not belong to the originating circuit.
    /// `points` re-yields the owner's row-major states; it is only
    /// consumed on the first materialising call.
    pub(crate) fn slice_with<'a, 's>(
        &'s self,
        node: NodeId,
        points: impl FnOnce() -> Box<dyn ExactSizeIterator<Item = &'a [f64]> + 'a>,
    ) -> Option<&'s [f64]> {
        match node.unknown_index() {
            None => Some(self.zeros.get_or_init(|| vec![0.0; self.n_points])),
            Some(i) if i < self.n_nodes => {
                let data = self.data.get_or_init(|| {
                    let mut data = vec![0.0; self.n_nodes * self.n_points];
                    for (k, x) in points().enumerate() {
                        for (n, row) in data.chunks_exact_mut(self.n_points).enumerate() {
                            row[k] = x[n];
                        }
                    }
                    data
                });
                Some(&data[i * self.n_points..(i + 1) * self.n_points])
            }
            Some(_) => None,
        }
    }

    /// Borrowed waveform of the named node; see
    /// [`NodeWaves::slice_with`] for the laziness contract.
    pub(crate) fn by_name_with<'a, 's>(
        &'s self,
        name: &str,
        points: impl FnOnce() -> Box<dyn ExactSizeIterator<Item = &'a [f64]> + 'a>,
    ) -> Result<&'s [f64], CircuitError> {
        let node = self.probe.node(name)?;
        Ok(self
            .slice_with(node, points)
            .expect("probe only resolves nodes of the originating circuit"))
    }
}

/// A converged DC operating point with probe-by-name accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct OpPoint {
    x: Vec<f64>,
    iterations: usize,
    probe: Probe,
}

impl OpPoint {
    pub(crate) fn new(solution: Solution, circuit: &Circuit) -> Self {
        OpPoint {
            x: solution.x,
            iterations: solution.iterations,
            probe: Probe::from_circuit(circuit),
        }
    }

    /// Voltage of the named node (0 for `"gnd"`/`"0"`).
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownNode`] listing the available names.
    pub fn voltage(&self, name: &str) -> Result<f64, CircuitError> {
        Ok(self.voltage_at(self.probe.node(name)?))
    }

    /// Voltage of `node` (0 for ground).
    pub fn voltage_at(&self, node: NodeId) -> f64 {
        node.unknown_index().map_or(0.0, |i| self.x[i])
    }

    /// The full unknown vector: node voltages then element extra
    /// variables (see the layout notes in [`crate::netlist`]).
    pub fn x(&self) -> &[f64] {
        &self.x
    }

    /// Newton iterations spent (summed over gmin steps).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The node-name probe of this operating point.
    pub fn probe(&self) -> &Probe {
        &self.probe
    }
}

/// A DC sweep request: which source to sweep and through which values.
///
/// Source names are validated against the circuit when the request is
/// run, with an error listing the available sources on a miss.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Name of the source to sweep.
    pub source: String,
    /// Values to sweep it through (warm-started in order).
    pub values: Vec<f64>,
}

impl SweepSpec {
    /// Builds a spec from a source name and explicit sweep values.
    pub fn new(source: impl Into<String>, values: Vec<f64>) -> Self {
        SweepSpec {
            source: source.into(),
            values,
        }
    }

    /// A linearly spaced sweep of `points` values from `start` to `stop`
    /// inclusive (a single point sweeps just `start`).
    pub fn linspace(source: impl Into<String>, start: f64, stop: f64, points: usize) -> Self {
        let values = if points <= 1 {
            vec![start]
        } else {
            (0..points)
                .map(|i| start + (stop - start) * i as f64 / (points - 1) as f64)
                .collect()
        };
        SweepSpec::new(source, values)
    }
}

/// A transient request: duration, stepping mode and options.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientSpec {
    /// Simulation duration, seconds.
    pub t_stop: f64,
    /// `Some(dt)` runs on a fixed grid of step `dt`; `None` runs the
    /// LTE-controlled adaptive stepper.
    pub dt: Option<f64>,
    /// Integrator, tolerance and controller options (the embedded
    /// [`NewtonOptions`] governs the Newton solves of this run).
    pub options: TransientOptions,
    /// Starting state; `None` solves the DC operating point at `t = 0`.
    pub initial: Option<Vec<f64>>,
}

impl TransientSpec {
    /// An adaptive (LTE-controlled) run of the given duration with
    /// default [`TransientOptions`].
    pub fn adaptive(t_stop: f64) -> Self {
        TransientSpec {
            t_stop,
            dt: None,
            options: TransientOptions::default(),
            initial: None,
        }
    }

    /// A fixed-grid run of the given duration and step size with
    /// default [`TransientOptions`].
    pub fn fixed(t_stop: f64, dt: f64) -> Self {
        TransientSpec {
            t_stop,
            dt: Some(dt),
            options: TransientOptions::default(),
            initial: None,
        }
    }

    /// Replaces the options (builder style).
    pub fn with_options(mut self, options: TransientOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the starting state (builder style).
    pub fn with_initial(mut self, initial: Vec<f64>) -> Self {
        self.initial = Some(initial);
        self
    }
}

/// An analysis session owning a [`Circuit`], a [`NewtonEngine`] and all
/// pattern/pivot/warm-start caches, with every analysis as a typed
/// method. See the [module docs](self) for the motivation and an
/// example.
///
/// # Cache behaviour
///
/// The engine keys its caches on the circuit's structural revision, so
/// mutating the circuit through [`Simulator::circuit_mut`] (adding
/// elements, changing source values) is always safe: value changes
/// reuse the caches, structural changes transparently rebuild them.
/// Switching between DC-kind analyses (`op`, `dc_sweep`) and
/// transient-kind ones (`transient`, `ac`) re-records the pattern for
/// the new analysis kind — within one analysis the pattern is recorded
/// at most once.
#[derive(Debug)]
pub struct Simulator {
    circuit: Circuit,
    engine: NewtonEngine,
    newton: NewtonOptions,
    /// Last converged DC solution, used to warm-start later solves.
    last_x: Option<Vec<f64>>,
}

impl Simulator {
    /// Creates a session around `circuit` with default
    /// [`NewtonOptions`].
    pub fn new(circuit: Circuit) -> Self {
        Simulator::with_options(circuit, NewtonOptions::default())
    }

    /// Creates a session with explicit Newton options (tolerances,
    /// damping, convergence-ladder rungs) used by the DC-kind
    /// analyses; transient runs use the options embedded in their
    /// [`TransientSpec`].
    pub fn with_options(circuit: Circuit, options: NewtonOptions) -> Self {
        Simulator {
            circuit,
            engine: NewtonEngine::new(options),
            newton: options,
            last_x: None,
        }
    }

    /// Creates a session around `circuit` reusing a warm
    /// [`NewtonEngine`] harvested from an earlier session with
    /// [`Simulator::into_engine`] — the warm-session seam of the
    /// persistent server. The engine is [re-keyed](NewtonEngine::rebind)
    /// onto the new circuit: when the MNA structure matches, its
    /// recorded sparsity pattern and frozen pivot plan survive and the
    /// symbolic analysis is skipped; otherwise the caches rebuild
    /// lazily and the session behaves exactly like a cold one. The
    /// session starts with no warm-start point, so the Newton iteration
    /// sequence of a resumed run matches a cold run's bit for bit.
    pub fn resume(circuit: Circuit, mut engine: NewtonEngine, options: NewtonOptions) -> Self {
        engine.rebind(&circuit);
        engine.set_options(options);
        Simulator {
            circuit,
            engine,
            newton: options,
            last_x: None,
        }
    }

    /// Dissolves the session and returns its engine so a pool can keep
    /// the warm symbolic state for a later [`Simulator::resume`]. Any
    /// installed cancellation flag is detached first.
    pub fn into_engine(mut self) -> NewtonEngine {
        self.engine.set_cancel(None);
        self.engine
    }

    /// Installs (or clears) a cooperative cancellation flag on the
    /// session engine: raise it from another thread and the running
    /// analysis returns [`CircuitError::Cancelled`] within one Newton
    /// iteration (DC/AC/sweep) or one transient step attempt. See
    /// [`NewtonEngine::set_cancel`].
    pub fn set_cancel(&mut self, cancel: Option<Arc<AtomicBool>>) {
        self.engine.set_cancel(cancel);
    }

    /// The circuit under simulation.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Mutable access to the circuit (e.g. to add elements between
    /// analyses). Structural changes are detected via the circuit's
    /// revision counter and rebuild the solver caches on the next
    /// analysis.
    pub fn circuit_mut(&mut self) -> &mut Circuit {
        &mut self.circuit
    }

    /// Dissolves the session and returns the circuit.
    pub fn into_circuit(self) -> Circuit {
        self.circuit
    }

    /// The Newton options of the DC-kind analyses.
    pub fn options(&self) -> &NewtonOptions {
        &self.newton
    }

    /// Sets the value of the named source, validating the name.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownSource`] listing the available sources.
    pub fn set_source(&mut self, name: &str, value: f64) -> Result<(), CircuitError> {
        if self.circuit.set_source_value(name, value) {
            Ok(())
        } else {
            Err(CircuitError::UnknownSource {
                requested: name.to_string(),
                available: self.circuit.source_names(),
            })
        }
    }

    /// Solves the DC operating point, warm-starting from the session's
    /// last converged solution when one exists.
    ///
    /// # Errors
    ///
    /// [`CircuitError::NoConvergence`] if the whole rescue ladder fails, or
    /// [`CircuitError::SingularSystem`] for structurally singular
    /// circuits.
    pub fn op(&mut self) -> Result<OpPoint, CircuitError> {
        self.engine.set_options(self.newton);
        let warm = self.warm_start();
        let sol = self
            .engine
            .dc_operating_point(&self.circuit, warm.as_deref())?;
        self.last_x = Some(sol.x.clone());
        Ok(OpPoint::new(sol, &self.circuit))
    }

    /// Runs a warm-started DC sweep described by `spec`, validating the
    /// source name before the first solve. The first point warm-starts
    /// from the session's last converged solution; the swept source is
    /// left at the final value.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownSource`] (listing the available sources)
    /// for a bad source name, plus any solver failure.
    pub fn dc_sweep(&mut self, spec: &SweepSpec) -> Result<SweepResult, CircuitError> {
        self.engine.set_options(self.newton);
        let warm = self.warm_start();
        let result = sweep_core(
            &mut self.engine,
            &mut self.circuit,
            &spec.source,
            &spec.values,
            warm.as_deref(),
        )?;
        if let Some(last) = result.solutions.last() {
            self.last_x = Some(last.x.clone());
        }
        Ok(result)
    }

    /// Runs a transient analysis described by `spec` on the session
    /// engine: fixed-grid when `spec.dt` is set, LTE-controlled
    /// adaptive stepping otherwise. When `spec.initial` is `None` the
    /// starting state is the DC operating point, solved on the same
    /// engine and warm-started from the session's last converged
    /// solution (a session that just ran `op()` pays only a
    /// convergence check).
    ///
    /// The returned [`TransientRun`] keeps every accepted state of
    /// every unknown, so its memory grows as unknowns × steps; use
    /// [`Simulator::transient_observed`] to keep only what a caller
    /// needs.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidAnalysis`] for inconsistent options,
    /// [`CircuitError::TimestepTooSmall`] when adaptive stepping gives
    /// up, plus any solver failure.
    pub fn transient(&mut self, spec: &TransientSpec) -> Result<TransientRun, CircuitError> {
        let mut result = TransientResult {
            time: Vec::new(),
            states: Vec::new(),
        };
        let stats = self.transient_observed(spec, |t, x| {
            result.time.push(t);
            result.states.push(x.to_vec());
        })?;
        Ok(TransientRun::new(result, stats, &self.circuit))
    }

    /// [`Simulator::transient`] without the collected waveform: `observe`
    /// is called with the simulation time and the full unknown vector
    /// at `t = 0` (the initial state) and then once per **accepted**
    /// step, in strictly increasing time and ending exactly at
    /// `spec.t_stop`, as the run progresses — the streaming seam of the
    /// deck runner and the persistent server. Rejected step attempts
    /// and fixed-grid substeps are never observed, so the observed
    /// sequence is exactly the points [`Simulator::transient`] would
    /// return, and `stats.accepted + 1` calls are made. The run keeps
    /// only the integrator's history (at most three accepted states).
    ///
    /// # Errors
    ///
    /// Exactly those of [`Simulator::transient`].
    pub fn transient_observed(
        &mut self,
        spec: &TransientSpec,
        mut observe: impl FnMut(f64, &[f64]),
    ) -> Result<TransientStats, CircuitError> {
        self.engine.set_options(spec.options.newton);
        // Resolve the starting state here so the session's warm start
        // benefits the DC solve; a caller-provided state passes through
        // to the cores, which validate its length.
        let initial = match &spec.initial {
            Some(x) => x.clone(),
            None => {
                let warm = self.warm_start();
                let sol = self
                    .engine
                    .dc_operating_point(&self.circuit, warm.as_deref())?;
                self.last_x = Some(sol.x.clone());
                sol.x
            }
        };
        match spec.dt {
            Some(dt) => transient_fixed_core(
                &mut self.engine,
                &self.circuit,
                spec.t_stop,
                dt,
                &initial,
                &spec.options,
                &mut observe,
            ),
            None => transient_adaptive_core(
                &mut self.engine,
                &self.circuit,
                spec.t_stop,
                &initial,
                &spec.options,
                &mut observe,
            ),
        }
    }

    /// Runs an AC small-signal frequency sweep: solves the operating
    /// point (warm-started), linearises the circuit there into
    /// conductance and capacitance stamps, and solves the complex
    /// system `(G + jωC)·X = B` at every grid frequency with one frozen
    /// sparse pattern re-valued per point.
    ///
    /// The stimulus is a unit phasor on the named source, so the
    /// response phasors *are* transfer functions (see
    /// [`AcResponse`]).
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownSource`] for a bad stimulus name,
    /// [`CircuitError::InvalidAnalysis`] for a bad frequency grid, plus
    /// any operating-point or complex-solve failure.
    pub fn ac(&mut self, sweep: &AcSweep) -> Result<AcResponse, CircuitError> {
        let op = self.op()?;
        ac_core(&mut self.engine, &self.circuit, op.x(), sweep)
    }

    /// How many times the session engine has (re)built a sparsity
    /// pattern (see [`NewtonEngine::pattern_builds`]).
    pub fn pattern_builds(&self) -> usize {
        self.engine.pattern_builds()
    }

    /// Snapshot of every session-lifetime hot-path counter
    /// (factorisation paths, columns recomputed, device evaluations,
    /// ladder rungs). Per-analysis numbers come from
    /// capturing a baseline before an analysis and calling
    /// [`EngineCounters::delta_since`] after it — the discipline
    /// [`TransientStats`] follows internally.
    ///
    /// [`EngineCounters::delta_since`]: crate::engine::EngineCounters::delta_since
    pub fn counters(&self) -> crate::engine::EngineCounters {
        self.engine.counters()
    }

    /// A warm-start guess: the last converged solution, if its length
    /// still matches the circuit (structural growth invalidates it).
    fn warm_start(&self) -> Option<Vec<f64>> {
        self.last_x
            .as_ref()
            .filter(|x| x.len() == self.circuit.unknown_count())
            .cloned()
    }
}

/// Runs a batch of independent warm-started sweeps, each in its own
/// [`Simulator`] session, in parallel. `build` constructs a fresh
/// circuit per spec (jobs may differ in topology or parameters), every
/// worker owns its session outright, and results come back in `specs`
/// order.
///
/// # Errors
///
/// Propagates the first failing job's [`CircuitError`].
///
/// # Examples
///
/// ```
/// use cntfet_circuit::prelude::*;
///
/// let corners = [1e3, 2e3, 5e3];
/// let build = |k: usize, _spec: &SweepSpec| {
///     let mut c = Circuit::new();
///     let a = c.node("a");
///     let b = c.node("b");
///     c.add(VoltageSource::dc("V1", a, Circuit::ground(), 0.0));
///     c.add(Resistor::new("R1", a, b, 1e3));
///     c.add(Resistor::new("R2", b, Circuit::ground(), corners[k]));
///     c
/// };
/// let specs = vec![SweepSpec::linspace("V1", 0.0, 1.0, 3); corners.len()];
/// let results = sweep_many(build, &specs, &NewtonOptions::default())?;
/// assert_eq!(results.len(), corners.len());
/// # Ok::<(), cntfet_circuit::CircuitError>(())
/// ```
pub fn sweep_many<F>(
    build: F,
    specs: &[SweepSpec],
    options: &NewtonOptions,
) -> Result<Vec<SweepResult>, CircuitError>
where
    F: Fn(usize, &SweepSpec) -> Circuit + Sync,
{
    let indexed: Vec<(usize, &SweepSpec)> = specs.iter().enumerate().collect();
    let ran: Vec<Result<SweepResult, CircuitError>> = indexed
        .par_iter()
        .map(|&(index, spec)| run_sweep_session(&build, index, spec, options))
        .collect();
    ran.into_iter().collect()
}

fn run_sweep_session(
    build: &(impl Fn(usize, &SweepSpec) -> Circuit + Sync),
    index: usize,
    spec: &SweepSpec,
    options: &NewtonOptions,
) -> Result<SweepResult, CircuitError> {
    let mut sim = Simulator::with_options(build(index, spec), *options);
    sim.dc_sweep(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Capacitor, Resistor, VoltageSource};

    fn divider() -> Circuit {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add(VoltageSource::dc("V1", vin, Circuit::ground(), 2.0));
        c.add(Resistor::new("R1", vin, out, 1e3));
        c.add(Resistor::new("R2", out, Circuit::ground(), 1e3));
        c
    }

    #[test]
    fn op_probes_by_name_and_warm_starts() {
        let mut sim = Simulator::new(divider());
        let cold = sim.op().unwrap();
        assert!((cold.voltage("out").unwrap() - 1.0).abs() < 1e-9);
        assert!((cold.voltage("gnd").unwrap()).abs() == 0.0);
        assert!(cold.voltage("nope").is_err());
        // Second solve warm-starts: no more iterations than the first.
        let warm = sim.op().unwrap();
        assert!(warm.iterations() <= cold.iterations());
        assert_eq!(warm.x(), cold.x());
        // One pattern for the whole session.
        assert_eq!(sim.pattern_builds(), 1);
    }

    #[test]
    fn set_source_validates_names() {
        let mut sim = Simulator::new(divider());
        sim.set_source("V1", 4.0).unwrap();
        let op = sim.op().unwrap();
        assert!((op.voltage("out").unwrap() - 2.0).abs() < 1e-9);
        let err = sim.set_source("VX", 1.0).unwrap_err();
        match err {
            CircuitError::UnknownSource { available, .. } => {
                assert_eq!(available, vec!["V1".to_string()]);
            }
            other => panic!("expected UnknownSource, got {other:?}"),
        }
    }

    #[test]
    fn sweep_validates_source_before_solving() {
        let mut sim = Simulator::new(divider());
        let err = sim
            .dc_sweep(&SweepSpec::linspace("VTYPO", 0.0, 1.0, 3))
            .unwrap_err();
        assert!(matches!(err, CircuitError::UnknownSource { .. }));
        assert!(err.to_string().contains("V1"), "lists candidates: {err}");
    }

    #[test]
    fn sweep_result_borrows_slices() {
        let mut sim = Simulator::new(divider());
        let res = sim
            .dc_sweep(&SweepSpec::linspace("V1", 0.0, 2.0, 5))
            .unwrap();
        let out = res.voltage("out").unwrap();
        assert_eq!(out.len(), 5);
        for (v, o) in res.values.iter().zip(out) {
            assert!((o - v / 2.0).abs() < 1e-9);
        }
        // Borrowed and allocating accessors agree.
        let out_node = sim.circuit().find_node("out").unwrap();
        assert_eq!(
            res.voltages_ref(out_node).unwrap(),
            &res.voltages(out_node)[..]
        );
        assert!(res.voltage("gnd").unwrap().iter().all(|&v| v == 0.0));
        assert!(res.voltage("bogus").is_err());
    }

    #[test]
    fn transient_spec_runs_fixed_and_adaptive() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add(VoltageSource::dc("V1", vin, Circuit::ground(), 1.0));
        c.add(Resistor::new("R1", vin, out, 1e3));
        c.add(Capacitor::new("C1", out, Circuit::ground(), 1e-9));
        let mut sim = Simulator::new(c);
        let adaptive = sim.transient(&TransientSpec::adaptive(5e-6)).unwrap();
        let v_end = *adaptive.voltage("out").unwrap().last().unwrap();
        assert!((v_end - 1.0).abs() < 1e-2, "settled after 5 tau: {v_end}");
        let fixed = sim.transient(&TransientSpec::fixed(5e-6, 1e-8)).unwrap();
        let v_end_f = *fixed.voltage("out").unwrap().last().unwrap();
        assert!((v_end - v_end_f).abs() < 1e-2);
        assert!(fixed.stats.accepted > adaptive.stats.accepted);
    }

    #[test]
    fn structural_growth_rebuilds_caches_transparently() {
        let mut sim = Simulator::new(divider());
        sim.op().unwrap();
        assert_eq!(sim.pattern_builds(), 1);
        let g = Circuit::ground();
        let out = sim.circuit().find_node("out").unwrap();
        sim.circuit_mut().add(Resistor::new("R3", out, g, 1e3));
        let op = sim.op().unwrap();
        assert_eq!(sim.pattern_builds(), 2, "growth re-records the pattern");
        // 2 V over 1k into 1k ∥ 1k = 500: v_out = 2 * 500 / 1500.
        assert!((op.voltage("out").unwrap() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_many_sessions_match_single_sessions() {
        let corners = [1e3, 3e3];
        let build = |k: usize, _spec: &SweepSpec| {
            let mut c = Circuit::new();
            let vin = c.node("in");
            let out = c.node("out");
            c.add(VoltageSource::dc("V1", vin, Circuit::ground(), 0.0));
            c.add(Resistor::new("R1", vin, out, 1e3));
            c.add(Resistor::new("R2", out, Circuit::ground(), corners[k]));
            c
        };
        let specs = vec![SweepSpec::linspace("V1", 0.0, 2.0, 4); corners.len()];
        let batch = sweep_many(build, &specs, &NewtonOptions::default()).unwrap();
        for (k, (spec, got)) in specs.iter().zip(&batch).enumerate() {
            let mut sim = Simulator::new(build(k, spec));
            let alone = sim.dc_sweep(spec).unwrap();
            assert_eq!(got, &alone);
        }
    }

    #[test]
    fn empty_circuit_session_is_trivial() {
        let mut sim = Simulator::new(Circuit::new());
        let op = sim.op().unwrap();
        assert!(op.x().is_empty());
        assert!(op.voltage("gnd").unwrap() == 0.0);
    }
}
