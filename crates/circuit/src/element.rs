//! Circuit elements and the MNA stamping interface.
//!
//! The solver works on the residual form `F(x) = 0`: every element adds
//! its Kirchhoff current contributions to `F` and the matching partial
//! derivatives to the Jacobian. Linear elements (R, sources) contribute
//! affine terms; the CNFET (in [`crate::cnfet`]) is fully nonlinear.

use crate::netlist::NodeId;
use cntfet_numerics::sparse::{BlockWriter, PatternAssembler};
use std::fmt;

/// What kind of solve is being assembled.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisMode {
    /// DC operating point; `gmin` is a node-to-ground leak added by the
    /// solver for convergence (not by elements).
    Dc,
    /// One implicit transient step, described by a [`TransientStamp`].
    Transient(TransientStamp),
}

/// Companion-model data for one implicit transient step.
///
/// Every implicit linear multistep method this simulator uses (backward
/// Euler, variable-step BDF2) approximates a time derivative at the end
/// of the step as an affine function of the new unknown vector:
///
/// ```text
/// d/dt u_i  ≈  a0 · x[i] + hist[i]
/// ```
///
/// where `a0` is the method's leading differentiation coefficient (units
/// 1/s) and `hist[i]` folds the weighted history states into a single
/// per-unknown value. Elements with charge storage stamp `a0`-scaled
/// conductances into the Jacobian and the full affine expression into
/// the residual — so the *sparsity pattern* of a transient Jacobian is
/// independent of both the step size and the integration method, and a
/// solver cache recorded at one `dt` can be re-valued (never
/// re-patterned) at any other.
///
/// Construct stamps with [`TransientStamp::backward_euler`] or
/// [`TransientStamp::bdf2`].
#[derive(Debug, Clone, PartialEq)]
pub struct TransientStamp {
    /// Absolute time at the end of the step, seconds.
    pub t: f64,
    /// Leading differentiation coefficient `a0`, 1/s.
    pub a0: f64,
    /// Per-unknown history term `hist[i]` (same length as the unknown
    /// vector), units of the unknown per second.
    pub hist: Vec<f64>,
}

impl TransientStamp {
    /// Backward-Euler stencil for a step of size `dt` ending at `t`:
    /// `d/dt u ≈ (x − prev) / dt`.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`.
    pub fn backward_euler(t: f64, dt: f64, prev: &[f64]) -> Self {
        assert!(dt > 0.0, "step size must be positive");
        TransientStamp {
            t,
            a0: 1.0 / dt,
            hist: prev.iter().map(|&p| -p / dt).collect(),
        }
    }

    /// Variable-step BDF2 stencil for a step of size `dt` ending at `t`,
    /// where the previous accepted step (from `prev2` to `prev`) had
    /// size `dt_prev`:
    ///
    /// ```text
    /// d/dt u ≈ a0·x + a1·prev + a2·prev2
    /// a0 = (2h+g)/(h(h+g)),  a1 = −(h+g)/(hg),  a2 = h/(g(h+g))
    /// ```
    ///
    /// with `h = dt`, `g = dt_prev`. For `h = g` this reduces to the
    /// classic `(3x − 4·prev + prev2) / (2h)`.
    ///
    /// # Panics
    ///
    /// Panics if either step size is non-positive or the history vectors
    /// disagree in length.
    pub fn bdf2(t: f64, dt: f64, dt_prev: f64, prev: &[f64], prev2: &[f64]) -> Self {
        assert!(dt > 0.0 && dt_prev > 0.0, "step sizes must be positive");
        assert_eq!(prev.len(), prev2.len(), "history length mismatch");
        let (h, g) = (dt, dt_prev);
        let a0 = (2.0 * h + g) / (h * (h + g));
        let a1 = -(h + g) / (h * g);
        let a2 = h / (g * (h + g));
        TransientStamp {
            t,
            a0,
            hist: prev
                .iter()
                .zip(prev2)
                .map(|(&p, &p2)| a1 * p + a2 * p2)
                .collect(),
        }
    }

    /// The history term of raw unknown index `i`.
    pub fn history(&self, i: usize) -> f64 {
        self.hist[i]
    }

    /// The history term of `node`'s voltage (0 for ground).
    pub fn history_node(&self, node: NodeId) -> f64 {
        node.unknown_index().map_or(0.0, |i| self.hist[i])
    }

    /// The discretised time derivative of `node`'s voltage at the
    /// iterate `x`: `a0 · v(node) + hist(node)`.
    pub fn ddt_node(&self, x: &[f64], node: NodeId) -> f64 {
        self.a0 * node_voltage(x, node) + self.history_node(node)
    }
}

/// Assembly target handed to [`Element::stamp`].
///
/// Residual writes go straight into `F`. An element hands its Jacobian
/// entries as one block per stamp ([`Mna::stamp_jacobian`]) to a
/// pattern-aware [`PatternAssembler`]: the first assembly of a circuit
/// records the sparsity pattern and the order of the writes; every later
/// Newton iteration writes values through the compiled write plan into
/// the preallocated slots with no per-iteration allocation. On a
/// residual-only pass (no assembler) the block never runs, so the one
/// stamp code path serves both the full and the residual-only assembly
/// and the latter does no Jacobian arithmetic.
#[derive(Debug)]
pub struct Mna<'a> {
    residual: &'a mut [f64],
    jacobian: Option<&'a mut PatternAssembler>,
}

impl<'a> Mna<'a> {
    /// Wraps a residual vector and, unless the pass is residual-only, a
    /// Jacobian assembler for one assembly pass. The caller is
    /// responsible for `begin`/`finish` on the assembler.
    pub fn new(residual: &'a mut [f64], jacobian: Option<&'a mut PatternAssembler>) -> Self {
        Mna { residual, jacobian }
    }

    /// `false` on a residual-only pass: the element may skip computing
    /// derivatives nobody will store.
    pub fn wants_jacobian(&self) -> bool {
        self.jacobian.is_some()
    }

    /// Adds `v` to the residual row of `node` (no-op for ground).
    pub fn add_f_node(&mut self, node: NodeId, v: f64) {
        if let Some(i) = node.unknown_index() {
            self.residual[i] += v;
        }
    }

    /// Adds `v` to the residual at raw unknown index `row` (an
    /// extra-variable row, or a node row already resolved to its index).
    pub fn add_f_extra(&mut self, row: usize, v: f64) {
        self.residual[row] += v;
    }

    /// Runs `entries` on this stamp's [`JacobianBlock`] — or, on a
    /// residual-only pass, not at all, so the derivatives it computes
    /// cost nothing there. The write plan recorded on the first
    /// assembly follows the order of the entries; an element that
    /// writes them in another order on a later pass stays exact, but
    /// each entry off the plan costs a slot search.
    pub fn stamp_jacobian(&mut self, entries: impl FnOnce(&mut JacobianBlock<'_, '_>)) {
        if let Some(asm) = self.jacobian.as_deref_mut() {
            asm.add_block(|writer| entries(&mut JacobianBlock(writer)));
        }
    }
}

/// The Jacobian entries of one element stamp, written through the
/// assembler's write plan. The typed methods skip entries in a ground
/// row or column.
#[derive(Debug)]
pub struct JacobianBlock<'w, 'a>(&'w mut BlockWriter<'a>);

impl JacobianBlock<'_, '_> {
    /// Adds `v` at raw unknown indices (`row`, `col`): an extra-variable
    /// entry, or node rows already resolved to their indices.
    pub fn add_index(&mut self, row: usize, col: usize, v: f64) {
        self.0.add(row, col, v);
    }

    /// Adds `v` at (`row` node, `col` node).
    pub fn add_nodes(&mut self, row: NodeId, col: NodeId, v: f64) {
        if let (Some(r), Some(c)) = (row.unknown_index(), col.unknown_index()) {
            self.0.add(r, c, v);
        }
    }

    /// Adds `v` at (node row, extra-variable column).
    pub fn add_node_extra(&mut self, row: NodeId, col: usize, v: f64) {
        if let Some(r) = row.unknown_index() {
            self.0.add(r, col, v);
        }
    }

    /// Adds `v` at (extra-variable row, node column).
    pub fn add_extra_node(&mut self, row: usize, col: NodeId, v: f64) {
        if let Some(c) = col.unknown_index() {
            self.0.add(row, c, v);
        }
    }

    /// Stamps a conductance `g` between nodes `a` and `b`: `(a, a)`,
    /// `(a, b)`, `(b, a)`, `(b, b)` get `g`, `−g`, `−g`, `g`.
    pub fn add_conductance(&mut self, a: NodeId, b: NodeId, g: f64) {
        self.add_nodes(a, a, g);
        self.add_nodes(a, b, -g);
        self.add_nodes(b, a, -g);
        self.add_nodes(b, b, g);
    }
}

/// Reads a node voltage out of the unknown vector (0 for ground).
pub fn node_voltage(x: &[f64], node: NodeId) -> f64 {
    node.unknown_index().map(|i| x[i]).unwrap_or(0.0)
}

/// A circuit element that can stamp itself into the MNA system.
pub trait Element: fmt::Debug {
    /// Unique name used for lookups (e.g. sweeping a source).
    fn name(&self) -> &str;

    /// Number of extra unknowns this element owns (branch currents,
    /// internal nodes).
    fn extra_vars(&self) -> usize {
        0
    }

    /// Adds this element's residual and Jacobian contributions at the
    /// current iterate `x`. `extra_base` is the index of the element's
    /// first extra variable (meaningless when [`Element::extra_vars`] is
    /// 0).
    fn stamp(&self, x: &[f64], extra_base: usize, mode: &AnalysisMode, mna: &mut Mna<'_>);

    /// Updates the element's primary value (source voltage/current).
    /// Returns `false` if the element has no such notion.
    fn set_value(&mut self, _value: f64) -> bool {
        false
    }

    /// `true` when this element is a drivable source — the targets of
    /// sweep and AC requests. Lets analyses validate a requested source
    /// name up front (with the full list of candidates in the error)
    /// instead of failing deep inside a solve.
    fn is_source(&self) -> bool {
        false
    }

    /// Adds this element's *unit* small-signal stimulus to the AC
    /// right-hand side: the linearised system is `(G + jωC)·X = −∂F/∂u`,
    /// so a source contributes `−∂F/∂u` for a unit phasor `u = 1` on its
    /// drive value. Returns `false` (leaving `rhs` untouched) when the
    /// element cannot be AC-driven.
    fn ac_stimulus(&self, _extra_base: usize, _rhs: &mut [f64]) -> bool {
        false
    }

    /// SPICE3 `pnjlim`/`fetlim`-lineage voltage limiting: given the
    /// current iterate `x` and the proposed Newton step `dx`, returns
    /// `Some(s)` with `s ∈ (0, 1)` when this element wants the step
    /// scaled down to keep its controlling-voltage swing physically
    /// reasonable, `None` to accept the step as proposed. The engine
    /// takes the minimum over all elements and scales the *whole* step
    /// (preserving the Newton direction); returning `None` whenever the
    /// step is already in-bounds keeps converging solves bitwise
    /// untouched. The default never limits (linear elements cannot
    /// overshoot).
    fn limit_step(&self, _x: &[f64], _dx: &[f64], _extra_base: usize) -> Option<f64> {
        None
    }
}

/// A linear resistor.
#[derive(Debug, Clone, PartialEq)]
pub struct Resistor {
    name: String,
    a: NodeId,
    b: NodeId,
    resistance: f64,
}

impl Resistor {
    /// Creates a resistor of `resistance` ohms between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `resistance <= 0`.
    pub fn new(name: &str, a: NodeId, b: NodeId, resistance: f64) -> Self {
        assert!(resistance > 0.0, "resistance must be positive");
        Resistor {
            name: name.to_string(),
            a,
            b,
            resistance,
        }
    }
}

impl Element for Resistor {
    fn name(&self) -> &str {
        &self.name
    }

    fn stamp(&self, x: &[f64], _extra: usize, _mode: &AnalysisMode, mna: &mut Mna<'_>) {
        let g = 1.0 / self.resistance;
        let i = g * (node_voltage(x, self.a) - node_voltage(x, self.b));
        mna.add_f_node(self.a, i);
        mna.add_f_node(self.b, -i);
        mna.stamp_jacobian(|j| j.add_conductance(self.a, self.b, g));
    }
}

/// A linear capacitor (open at DC, implicit companion model in
/// transient).
#[derive(Debug, Clone, PartialEq)]
pub struct Capacitor {
    name: String,
    a: NodeId,
    b: NodeId,
    capacitance: f64,
}

impl Capacitor {
    /// Creates a capacitor of `capacitance` farads between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `capacitance <= 0`.
    pub fn new(name: &str, a: NodeId, b: NodeId, capacitance: f64) -> Self {
        assert!(capacitance > 0.0, "capacitance must be positive");
        Capacitor {
            name: name.to_string(),
            a,
            b,
            capacitance,
        }
    }
}

impl Element for Capacitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn stamp(&self, x: &[f64], _extra: usize, mode: &AnalysisMode, mna: &mut Mna<'_>) {
        if let AnalysisMode::Transient(stamp) = mode {
            // i = C · d/dt (v_a − v_b); the Jacobian sees only the
            // method's leading coefficient a0, so a step-size change
            // re-values this stamp without touching the pattern.
            let i = self.capacitance * (stamp.ddt_node(x, self.a) - stamp.ddt_node(x, self.b));
            mna.add_f_node(self.a, i);
            mna.add_f_node(self.b, -i);
            mna.stamp_jacobian(|j| j.add_conductance(self.a, self.b, self.capacitance * stamp.a0));
        }
    }
}

/// Time-dependent source waveform.
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// Trapezoidal pulse: `low` before `delay`, ramp to `high` over
    /// `rise`, hold for `width`, ramp back over `fall`, repeat with
    /// `period` (0 = single shot).
    Pulse {
        /// Initial/low level.
        low: f64,
        /// Pulsed/high level.
        high: f64,
        /// Time before the first edge, s.
        delay: f64,
        /// Rise time, s.
        rise: f64,
        /// High hold time, s.
        width: f64,
        /// Fall time, s.
        fall: f64,
        /// Repetition period (0 disables repetition), s.
        period: f64,
    },
    /// `offset + amplitude·sin(2π f t)`.
    Sine {
        /// DC offset.
        offset: f64,
        /// Peak amplitude.
        amplitude: f64,
        /// Frequency, Hz.
        frequency: f64,
    },
}

impl Waveform {
    /// Value of the waveform at time `t` (DC analyses use `t = 0`).
    pub fn value_at(&self, t: f64) -> f64 {
        match *self {
            Waveform::Dc(v) => v,
            Waveform::Pulse {
                low,
                high,
                delay,
                rise,
                width,
                fall,
                period,
            } => {
                let mut tau = t - delay;
                if tau < 0.0 {
                    return low;
                }
                if period > 0.0 {
                    tau %= period;
                }
                if tau < rise {
                    low + (high - low) * tau / rise.max(1e-18)
                } else if tau < rise + width {
                    high
                } else if tau < rise + width + fall {
                    high - (high - low) * (tau - rise - width) / fall.max(1e-18)
                } else {
                    low
                }
            }
            Waveform::Sine {
                offset,
                amplitude,
                frequency,
            } => offset + amplitude * (2.0 * std::f64::consts::PI * frequency * t).sin(),
        }
    }
}

/// An ideal voltage source with a branch-current extra variable.
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageSource {
    name: String,
    plus: NodeId,
    minus: NodeId,
    waveform: Waveform,
}

impl VoltageSource {
    /// A DC source of `volts` from `minus` to `plus`.
    pub fn dc(name: &str, plus: NodeId, minus: NodeId, volts: f64) -> Self {
        VoltageSource {
            name: name.to_string(),
            plus,
            minus,
            waveform: Waveform::Dc(volts),
        }
    }

    /// A source driven by an arbitrary waveform.
    pub fn with_waveform(name: &str, plus: NodeId, minus: NodeId, waveform: Waveform) -> Self {
        VoltageSource {
            name: name.to_string(),
            plus,
            minus,
            waveform,
        }
    }
}

impl Element for VoltageSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn extra_vars(&self) -> usize {
        1
    }

    fn stamp(&self, x: &[f64], extra: usize, mode: &AnalysisMode, mna: &mut Mna<'_>) {
        let t = match mode {
            AnalysisMode::Dc => 0.0,
            AnalysisMode::Transient(stamp) => stamp.t,
        };
        let target = self.waveform.value_at(t);
        let i_branch = x[extra];
        // Branch current leaves the + node through the source.
        mna.add_f_node(self.plus, i_branch);
        mna.add_f_node(self.minus, -i_branch);
        // Constraint row: V(+) − V(−) − target = 0.
        let v = node_voltage(x, self.plus) - node_voltage(x, self.minus);
        mna.add_f_extra(extra, v - target);
        mna.stamp_jacobian(|j| {
            j.add_node_extra(self.plus, extra, 1.0);
            j.add_node_extra(self.minus, extra, -1.0);
            j.add_extra_node(extra, self.plus, 1.0);
            j.add_extra_node(extra, self.minus, -1.0);
        });
    }

    fn set_value(&mut self, value: f64) -> bool {
        self.waveform = Waveform::Dc(value);
        true
    }

    fn is_source(&self) -> bool {
        true
    }

    fn ac_stimulus(&self, extra: usize, rhs: &mut [f64]) -> bool {
        // Constraint row: F = V(+) − V(−) − u, so ∂F/∂u = −1 and the
        // unit-stimulus right-hand side gets +1 in the branch row.
        rhs[extra] += 1.0;
        true
    }
}

/// An ideal current source pushing `amps` from `from` into `to`.
#[derive(Debug, Clone, PartialEq)]
pub struct CurrentSource {
    name: String,
    from: NodeId,
    to: NodeId,
    amps: f64,
}

impl CurrentSource {
    /// Creates a DC current source.
    pub fn dc(name: &str, from: NodeId, to: NodeId, amps: f64) -> Self {
        CurrentSource {
            name: name.to_string(),
            from,
            to,
            amps,
        }
    }
}

impl Element for CurrentSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn stamp(&self, _x: &[f64], _extra: usize, _mode: &AnalysisMode, mna: &mut Mna<'_>) {
        // Current leaves `from`, enters `to`.
        mna.add_f_node(self.from, self.amps);
        mna.add_f_node(self.to, -self.amps);
    }

    fn set_value(&mut self, value: f64) -> bool {
        self.amps = value;
        true
    }

    fn is_source(&self) -> bool {
        true
    }

    fn ac_stimulus(&self, _extra: usize, rhs: &mut [f64]) -> bool {
        // F gains +u at `from` and −u at `to`; rhs = −∂F/∂u.
        if let Some(i) = self.from.unknown_index() {
            rhs[i] -= 1.0;
        }
        if let Some(i) = self.to.unknown_index() {
            rhs[i] += 1.0;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waveform_dc_is_constant() {
        let w = Waveform::Dc(1.5);
        assert_eq!(w.value_at(0.0), 1.5);
        assert_eq!(w.value_at(1e-3), 1.5);
    }

    #[test]
    fn waveform_pulse_shape() {
        let w = Waveform::Pulse {
            low: 0.0,
            high: 1.0,
            delay: 1e-9,
            rise: 1e-9,
            width: 2e-9,
            fall: 1e-9,
            period: 0.0,
        };
        assert_eq!(w.value_at(0.0), 0.0);
        assert!((w.value_at(1.5e-9) - 0.5).abs() < 1e-12); // mid-rise
        assert_eq!(w.value_at(3e-9), 1.0); // high
        assert!((w.value_at(4.5e-9) - 0.5).abs() < 1e-12); // mid-fall
        assert_eq!(w.value_at(10e-9), 0.0);
    }

    #[test]
    fn waveform_pulse_repeats_with_period() {
        let w = Waveform::Pulse {
            low: 0.0,
            high: 1.0,
            delay: 0.0,
            rise: 1e-9,
            width: 1e-9,
            fall: 1e-9,
            period: 4e-9,
        };
        assert_eq!(w.value_at(1.5e-9), 1.0);
        assert_eq!(w.value_at(1.5e-9 + 4e-9), 1.0);
        assert_eq!(w.value_at(3.5e-9), 0.0);
        assert_eq!(w.value_at(3.5e-9 + 8e-9), 0.0);
    }

    #[test]
    fn waveform_sine() {
        let w = Waveform::Sine {
            offset: 0.5,
            amplitude: 0.5,
            frequency: 1e9,
        };
        assert!((w.value_at(0.0) - 0.5).abs() < 1e-12);
        assert!((w.value_at(0.25e-9) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_resistance_panics() {
        let _ = Resistor::new("R", NodeId::GROUND, NodeId::GROUND, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacitance_panics() {
        let _ = Capacitor::new("C", NodeId::GROUND, NodeId::GROUND, 0.0);
    }
}
