//! Transient analysis: fixed-step and LTE-controlled adaptive stepping.
//!
//! The stepping cores run on a caller-provided engine so a
//! [`crate::sim::Simulator`] session shares its pattern/solver caches
//! with every other analysis — run transients through
//! [`crate::sim::Simulator::transient`] with a
//! [`crate::sim::TransientSpec`] (`dt: Some(..)` for a fixed grid,
//! `None` for adaptive stepping). Adaptive runs control the local
//! truncation error with a [`TimeIntegrator`] (backward Euler or
//! variable-step BDF2), a PI step-size controller and reject-and-retry
//! on LTE or Newton failure.
//!
//! The stepping cores keep no waveform: each hands every accepted
//! `(t, x)` point to a step observer as it lands and returns only the
//! run's [`TransientStats`], holding at most the three accepted states
//! BDF2's step control needs. [`crate::sim::Simulator::transient`]
//! collects the points into a [`TransientRun`]; a deck's `.tran` card
//! keeps only its probe rows, so its memory grows with probes × steps
//! instead of unknowns × steps.
//!
//! Backward Euler is L-stable, which matters here because the CNFET's Σ
//! row is an algebraic constraint (index-1 DAE) — trapezoidal rules ring
//! on such systems. BDF2 keeps the L-stability (its stability region
//! contains the whole left half-plane) while gaining an order: on the
//! ring-oscillator workload it takes several times fewer accepted steps
//! than fixed backward Euler at equal period accuracy (measured by the
//! `transient_scaling` bench).
//!
//! Variable step sizes are cheap on this engine: the companion-model
//! stamps only scale with the leading integration coefficient
//! (see [`crate::element::TransientStamp`]), so a step-size change
//! re-values the cached Jacobian pattern instead of rebuilding it, and
//! the sparse solver replays its frozen elimination ordering.

use crate::element::{AnalysisMode, TransientStamp};
use crate::engine::{EngineCounters, NewtonEngine, NewtonOptions};
use crate::error::CircuitError;
use crate::netlist::{Circuit, NodeId};
use crate::sim::NodeWaves;

/// Result of a transient run: time points and the full unknown history.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    /// Time points, seconds (first entry is 0 with the initial
    /// condition). Uniformly spaced for fixed-step runs, variably spaced
    /// for adaptive runs; the final entry is exactly `t_stop`.
    pub time: Vec<f64>,
    /// Unknown vector at each time point.
    pub states: Vec<Vec<f64>>,
}

impl TransientResult {
    /// Voltage waveform of `node`.
    pub fn waveform(&self, node: NodeId) -> Vec<f64> {
        match node.unknown_index() {
            Some(i) => self.states.iter().map(|x| x[i]).collect(),
            None => vec![0.0; self.states.len()],
        }
    }

    /// Number of stored time points.
    pub fn len(&self) -> usize {
        self.time.len()
    }

    /// `true` when no time points were stored.
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
    }

    /// Times at which `node`'s waveform crosses `level`, linearly
    /// interpolated between stored points, each paired with the
    /// crossing direction (`true` = rising). Works identically on
    /// uniform and adaptively (nonuniformly) spaced results — the
    /// interpolation resolves crossings far below the local step size,
    /// which is what makes e.g. oscillation-period measurement on
    /// coarse adaptive grids accurate.
    pub fn crossings(&self, node: NodeId, level: f64) -> Vec<(f64, bool)> {
        let w = self.waveform(node);
        let mut out = Vec::new();
        for i in 0..w.len().saturating_sub(1) {
            let (a, b) = (w[i], w[i + 1]);
            let rising = a < level && b >= level;
            let falling = a > level && b <= level;
            if rising || falling {
                let frac = (level - a) / (b - a);
                out.push((
                    self.time[i] + frac * (self.time[i + 1] - self.time[i]),
                    rising,
                ));
            }
        }
        out
    }
}

/// Implicit integration method used for transient stepping.
///
/// Both methods are L-stable and therefore safe on the simulator's
/// index-1 DAE systems (the CNFET Σ rows are algebraic constraints).
///
/// # Examples
///
/// ```
/// use cntfet_circuit::transient::TimeIntegrator;
///
/// assert_eq!(TimeIntegrator::BackwardEuler.order(), 1);
/// assert_eq!(TimeIntegrator::Bdf2.order(), 2);
/// // BDF2 is the default for adaptive runs.
/// assert_eq!(TimeIntegrator::default(), TimeIntegrator::Bdf2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimeIntegrator {
    /// First-order backward Euler. In adaptive mode its local truncation
    /// error is estimated by step doubling (one full step vs two half
    /// steps) and the Richardson-extrapolated combination of the two is
    /// accepted, so the *accepted* solution is locally second-order
    /// while the controller stays conservative (first-order estimate).
    BackwardEuler,
    /// Second-order backward differentiation formula with genuinely
    /// variable step sizes. The LTE is estimated from the
    /// predictor–corrector difference (quadratic extrapolation through
    /// the last three accepted points vs the implicit solution). Each
    /// adaptive run starts with backward-Euler steps until enough
    /// history exists, and restarts the same way after a Newton failure.
    #[default]
    Bdf2,
}

impl TimeIntegrator {
    /// Classical order of accuracy of the method (1 or 2).
    pub fn order(self) -> usize {
        match self {
            TimeIntegrator::BackwardEuler => 1,
            TimeIntegrator::Bdf2 => 2,
        }
    }
}

/// Callback handed to the transient stepping cores, their only output:
/// it receives the initial state at `t = 0`, then every accepted
/// `(t, x)` point in order, ending exactly at `t_stop`. Rejected
/// attempts and fixed-grid substeps are never observed.
pub(crate) type StepObserver<'a> = &'a mut dyn FnMut(f64, &[f64]);

/// Tuning knobs of transient analysis — integrator choice, step bounds,
/// LTE tolerances and controller behaviour. [`TransientOptions::default`]
/// is a reasonable starting point for logic-style waveforms: BDF2,
/// `rel_tol = 1e-3`, `abs_tol = 1e-6` V.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOptions {
    /// Newton-iteration options forwarded to the [`NewtonEngine`].
    /// Default: [`NewtonOptions::transient`].
    pub newton: NewtonOptions,
    /// Integration method. Fixed-grid BDF2 starts with one
    /// backward-Euler step to build history. Default:
    /// [`TimeIntegrator::Bdf2`].
    pub integrator: TimeIntegrator,
    /// First step size of an adaptive run, seconds. `None` derives
    /// `t_stop / 1000`, clamped into `[dt_min, dt_max]`.
    pub dt_init: Option<f64>,
    /// Smallest step the controller may take, seconds. When a step at
    /// `dt_min` still fails the run aborts with
    /// [`CircuitError::TimestepTooSmall`]. `None` derives
    /// `t_stop * 1e-12`. (The final step is allowed below `dt_min` when
    /// clamping onto `t_stop`.)
    pub dt_min: Option<f64>,
    /// Largest step the controller may take, seconds. `None` derives
    /// `t_stop / 10`.
    pub dt_max: Option<f64>,
    /// Relative LTE tolerance on node voltages. Default `1e-3`.
    pub rel_tol: f64,
    /// Absolute LTE tolerance on node voltages, volts. Default `1e-6`.
    pub abs_tol: f64,
}

/// Safety factor of the adaptive step controller.
const SAFETY: f64 = 0.9;

/// Largest step-growth factor per accepted adaptive step; it also keeps
/// consecutive BDF2 step ratios inside the method's zero-stability
/// bound (`1 + √2 ≈ 2.414`).
const MAX_GROWTH: f64 = 2.0;

/// Consecutive rejections (LTE or Newton) an adaptive run tolerates
/// before it aborts.
const MAX_REJECTS: usize = 30;

/// Hard cap on the steps of one transient run: attempted steps
/// (accepted + rejected) of an adaptive run, and grid steps of a fixed
/// one, whose `.tran` cards the deck parser checks against it. A
/// runaway guard for mistyped step sizes and pathological
/// tolerance/step-bound combinations, not a memory budget.
pub(crate) const MAX_STEPS: usize = 10_000_000;

impl Default for TransientOptions {
    fn default() -> Self {
        TransientOptions {
            newton: NewtonOptions::transient(),
            integrator: TimeIntegrator::Bdf2,
            dt_init: None,
            dt_min: None,
            dt_max: None,
            rel_tol: 1e-3,
            abs_tol: 1e-6,
        }
    }
}

impl TransientOptions {
    /// Resolves the optional step bounds against `t_stop`, validating
    /// them and the LTE tolerances.
    fn resolve(&self, t_stop: f64) -> Result<(f64, f64, f64), CircuitError> {
        if !(self.rel_tol >= 0.0 && self.abs_tol >= 0.0 && self.rel_tol + self.abs_tol > 0.0) {
            return Err(CircuitError::InvalidAnalysis(format!(
                "LTE tolerances must be non-negative and not both zero \
                 (rel_tol {}, abs_tol {})",
                self.rel_tol, self.abs_tol
            )));
        }
        // `clamp` and `min` would pass a NaN dt_init or dt_max through
        // unchecked; a NaN dt_min fails the bounds test below.
        if self.dt_init.is_some_and(f64::is_nan) || self.dt_max.is_some_and(f64::is_nan) {
            return Err(CircuitError::InvalidAnalysis(
                "dt_init and dt_max must not be NaN".into(),
            ));
        }
        let dt_min = self.dt_min.unwrap_or(t_stop * 1e-12);
        let dt_max = self.dt_max.unwrap_or(t_stop / 10.0).min(t_stop);
        if !(dt_min > 0.0 && dt_min <= dt_max) {
            return Err(CircuitError::InvalidAnalysis(format!(
                "need 0 < dt_min <= dt_max (dt_min {dt_min}, dt_max {dt_max})"
            )));
        }
        let dt_init = self
            .dt_init
            .unwrap_or(t_stop / 1000.0)
            .clamp(dt_min, dt_max);
        Ok((dt_init, dt_min, dt_max))
    }
}

/// Per-run stepping statistics of a transient analysis, with the
/// engine's counters over the run embedded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransientStats {
    /// Accepted time steps: the points observed after the initial
    /// state (a collected [`TransientResult`] holds `accepted + 1`).
    pub accepted: usize,
    /// Steps rejected because the LTE estimate exceeded tolerance.
    pub rejected_lte: usize,
    /// Steps rejected because Newton failed to converge (retried at a
    /// smaller step size).
    pub rejected_newton: usize,
    /// Total Newton iterations across all attempted steps (including
    /// the extra solves of backward-Euler step doubling). A solve that
    /// fails to converge adds the iterations its
    /// [`CircuitError::NoConvergence`] reports, rescue ladder included.
    pub newton_iterations: usize,
    /// Backward-Euler sub-steps taken by the fixed-grid rescue: grid
    /// intervals whose one-shot step system had no reachable solution
    /// were split internally (the output grid is unchanged).
    pub substeps: u64,
    /// Times the BDF2 history was discarded and the method restarted
    /// from backward Euler (after a Newton failure).
    pub bdf2_restarts: usize,
    /// Engine counters (factorizations, device evaluations, ladder
    /// rungs) of the stepping, from after the initial operating point
    /// to the end of the run.
    pub counters: EngineCounters,
}

/// A transient waveform together with the stepping statistics that
/// produced it, plus probe-by-node-name accessors shared with the sweep
/// and AC result types.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientRun {
    /// Time points and states.
    pub result: TransientResult,
    /// Accepted/rejected-step and solver-cost counters.
    pub stats: TransientStats,
    waves: NodeWaves,
}

impl TransientRun {
    pub(crate) fn new(result: TransientResult, stats: TransientStats, circuit: &Circuit) -> Self {
        let waves = NodeWaves::new(circuit, result.states.len());
        TransientRun {
            result,
            stats,
            waves,
        }
    }

    /// Borrowed voltage waveform of the named node. The node-major
    /// waveform cache is materialised on the first probe and borrowed
    /// thereafter.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownNode`] listing the available names.
    pub fn voltage(&self, name: &str) -> Result<&[f64], CircuitError> {
        self.waves
            .by_name_with(name, || Box::new(self.result.states.iter().map(|x| &x[..])))
    }

    /// The stored time points, seconds.
    pub fn time(&self) -> &[f64] {
        &self.result.time
    }
}

/// Maximum halvings of one fixed-grid interval before the rescue gives
/// up: `2^6 = 64` sub-steps, matching the dt reduction an adaptive run
/// would try before declaring [`CircuitError::TimestepTooSmall`].
const FIXED_SUBSTEP_DEPTH: usize = 6;

/// Solves the fixed-grid interval `[t0, t1]` as two backward-Euler
/// halves from `x`, each of which splits again on failure while
/// `depth` lasts (see the call site in [`transient_fixed_core`] for
/// why a solution may not exist at the full `h`). Newton iterations
/// of every attempt accumulate into `stats.newton_iterations`;
/// `stats.substeps` counts the internal steps taken beyond the one the
/// grid asked for. Substeps are never observed.
///
/// # Errors
///
/// The deepest [`CircuitError::NoConvergence`] (still carrying its
/// [`crate::engine::ConvergenceReport`]) when even the smallest
/// sub-interval fails; any other engine error is propagated untouched.
fn split_interval(
    engine: &mut NewtonEngine,
    circuit: &Circuit,
    x: &[f64],
    t0: f64,
    t1: f64,
    depth: usize,
    stats: &mut TransientStats,
) -> Result<Vec<f64>, CircuitError> {
    let tm = 0.5 * (t0 + t1);
    let xm = fixed_substep(engine, circuit, x, t0, tm, depth, stats)?;
    stats.substeps += 1;
    fixed_substep(engine, circuit, &xm, tm, t1, depth, stats)
}

/// One backward-Euler step over `[t0, t1]` from `x`, split with
/// [`split_interval`] when it cannot be converged and `depth` remains.
fn fixed_substep(
    engine: &mut NewtonEngine,
    circuit: &Circuit,
    x: &[f64],
    t0: f64,
    t1: f64,
    depth: usize,
    stats: &mut TransientStats,
) -> Result<Vec<f64>, CircuitError> {
    let stamp = TransientStamp::backward_euler(t1, t1 - t0, x);
    match step_newton(engine, circuit, x, stamp, stats) {
        Err(CircuitError::NoConvergence { .. }) if depth > 0 => {
            split_interval(engine, circuit, x, t0, t1, depth - 1, stats)
        }
        solved => solved,
    }
}

/// One transient Newton solve from `guess`. Its iterations count into
/// `stats.newton_iterations` whether it converges or not: a failed
/// solve adds the iterations its [`CircuitError::NoConvergence`]
/// reports, rescue ladder included (an error that carries no count,
/// such as a singular system, adds none).
fn step_newton(
    engine: &mut NewtonEngine,
    circuit: &Circuit,
    guess: &[f64],
    stamp: TransientStamp,
    stats: &mut TransientStats,
) -> Result<Vec<f64>, CircuitError> {
    let solved = engine.newton(circuit, guess, &AnalysisMode::Transient(stamp));
    stats.newton_iterations += match &solved {
        Ok((_, it)) => *it,
        Err(CircuitError::NoConvergence { iterations, .. }) => *iterations,
        Err(_) => 0,
    };
    solved.map(|(x, _)| x)
}

/// The engine-sharing fixed-grid stepping core behind
/// [`crate::sim::Simulator::transient`], starting from `initial`. No
/// LTE control is performed — every Newton-converged step is accepted;
/// a Newton failure first splits the interval (see [`split_interval`])
/// and then aborts the run. The final step is shortened to land exactly on `t_stop`.
/// `observer` sees every accepted `(t, x)` point in order (see
/// [`StepObserver`]); the core keeps only the current state and, for
/// BDF2, the one before it. The engine's cancellation flag is
/// additionally polled once per step.
pub(crate) fn transient_fixed_core(
    engine: &mut NewtonEngine,
    circuit: &Circuit,
    t_stop: f64,
    dt: f64,
    initial: &[f64],
    options: &TransientOptions,
    observer: StepObserver<'_>,
) -> Result<TransientStats, CircuitError> {
    if !(dt > 0.0 && dt.is_finite() && t_stop > 0.0 && t_stop.is_finite()) {
        return Err(CircuitError::InvalidAnalysis(format!(
            "t_stop ({t_stop}) and dt ({dt}) must be positive and finite"
        )));
    }
    if t_stop / dt > MAX_STEPS as f64 {
        return Err(CircuitError::InvalidAnalysis(format!(
            "t_stop / dt ({:e}) exceeds the {MAX_STEPS}-step bound",
            t_stop / dt
        )));
    }
    let x0 = initial_state(circuit, initial)?;
    // Counter baseline: the run's stats report this analysis only, not
    // whatever the (possibly session-shared) engine did before.
    let base_counters = engine.counters();
    // The small backoff keeps `ceil` from scheduling a degenerate extra
    // step when t_stop/dt rounds just above an integer (a near-zero
    // final step would make the companion coefficient 1/h explode).
    let steps = ((t_stop / dt - 1e-9).ceil() as usize).max(1);
    observer(0.0, &x0);
    let mut stats = TransientStats::default();
    let mut x = x0;
    let mut t_prev = 0.0;
    // (previous-previous point, step that led from it to `x`): BDF2
    // history, populated after the first accepted step.
    let mut bdf2_hist: Option<(Vec<f64>, f64)> = None;
    for k in 1..=steps {
        engine.check_cancel()?;
        // The final step lands exactly on t_stop (shortened when t_stop
        // is not an integer multiple of dt).
        let t = if k == steps {
            t_stop
        } else {
            (k as f64 * dt).min(t_stop)
        };
        let h = t - t_prev;
        if h <= 0.0 {
            break;
        }
        let stamp = match (&bdf2_hist, options.integrator) {
            (Some((prev2, g)), TimeIntegrator::Bdf2) => TransientStamp::bdf2(t, h, *g, &x, prev2),
            _ => TransientStamp::backward_euler(t, h, &x),
        };
        let mut substepped = false;
        let nx = match step_newton(engine, circuit, &x, stamp, &mut stats) {
            Ok(nx) => nx,
            // Hard-switching steps over purely algebraic internal nodes
            // can fold the one-shot step system so that no solution is
            // reachable at this `h` — no Newton variant can converge to
            // a point that does not exist. Splitting the interval
            // restores solvability while keeping the output grid (and
            // every already-produced sample) untouched; the rescue only
            // runs where the historical behavior was a hard error.
            Err(CircuitError::NoConvergence { .. }) => {
                substepped = true;
                let depth = FIXED_SUBSTEP_DEPTH - 1;
                split_interval(engine, circuit, &x, t_prev, t, depth, &mut stats)?
            }
            Err(e) => return Err(e),
        };
        stats.accepted += 1;
        let prev = std::mem::replace(&mut x, nx);
        if options.integrator == TimeIntegrator::Bdf2 {
            // Sub-stepping leaves `prev` one (internal) BE step away
            // from `x`, so the two-point grid history is no longer
            // valid: restart BDF2 from backward Euler, as after any
            // rescue.
            bdf2_hist = if substepped {
                stats.bdf2_restarts += 1;
                None
            } else {
                Some((prev, h))
            };
        }
        t_prev = t;
        observer(t, &x);
    }
    stats.counters = engine.counters().delta_since(&base_counters);
    Ok(stats)
}

/// The engine-sharing adaptive stepping core behind
/// [`crate::sim::Simulator::transient`]: LTE-controlled variable
/// stepping from `t = 0` to `t_stop`, starting from `initial`.
///
/// Each attempted step produces a local-truncation-error estimate —
/// step doubling for backward Euler, the predictor–corrector difference
/// for BDF2 — which is measured in a weighted RMS norm over the node
/// voltages (`abs_tol + rel_tol · |v|` per node). Steps with an error
/// norm above 1 are rejected and retried smaller; accepted steps feed a
/// PI controller that grows or shrinks the next step within
/// `[dt_min, dt_max]`. Newton failures shrink the step by 4× and restart
/// BDF2 from backward Euler. When a step at `dt_min` still fails, the
/// run aborts with [`CircuitError::TimestepTooSmall`].
///
/// `observer` sees every **accepted** `(t, x)` point in order (see
/// [`StepObserver`]); rejected attempts are invisible to it. The core
/// keeps only the (at most three) accepted states BDF2 needs. The
/// engine's cancellation flag is polled once per step attempt on top
/// of the per-Newton-iteration polls, so cancellation lands within one
/// accepted step.
pub(crate) fn transient_adaptive_core(
    engine: &mut NewtonEngine,
    circuit: &Circuit,
    t_stop: f64,
    initial: &[f64],
    options: &TransientOptions,
    observer: StepObserver<'_>,
) -> Result<TransientStats, CircuitError> {
    if !(t_stop > 0.0 && t_stop.is_finite()) {
        return Err(CircuitError::InvalidAnalysis(format!(
            "t_stop ({t_stop}) must be positive and finite"
        )));
    }
    let (mut dt, dt_min, dt_max) = options.resolve(t_stop)?;
    let x0 = initial_state(circuit, initial)?;
    let base_counters = engine.counters();
    let n_nodes = circuit.node_count();
    let mut stats = TransientStats::default();
    observer(0.0, &x0);
    // Accepted history since the last integrator restart, oldest first,
    // capped at the three points BDF2's predictor needs.
    let mut hist: Vec<(f64, Vec<f64>)> = vec![(0.0, x0)];
    let mut prev_err = 1.0f64;
    let mut rejects_in_a_row = 0usize;
    let mut attempts = 0usize;
    // Points this close to t_stop count as arrived: a sliver step below
    // this would make the companion coefficient 1/h blow up roundoff
    // past the Newton tolerances.
    let end_eps = t_stop * 1e-9;
    loop {
        let t_n = hist.last().expect("history is never empty").0;
        if t_stop - t_n <= end_eps {
            break;
        }
        engine.check_cancel()?;
        attempts += 1;
        if attempts > MAX_STEPS {
            return Err(CircuitError::InvalidAnalysis(format!(
                "adaptive transient exceeded {MAX_STEPS} steps at t = {t_n:.6e} s"
            )));
        }
        dt = dt.clamp(dt_min, dt_max);
        // Land the final step exactly on t_stop (may go below dt_min).
        let final_step = t_n + dt >= t_stop - end_eps;
        if final_step {
            dt = t_stop - t_n;
        }
        let use_bdf2 = options.integrator == TimeIntegrator::Bdf2 && hist.len() >= 3;
        let attempt = if use_bdf2 {
            bdf2_step(engine, circuit, &hist, dt, &mut stats)
        } else {
            be_doubled_step(engine, circuit, &hist, dt, &mut stats)
        };
        // Controller exponent: estimate order + 1.
        let k = if use_bdf2 { 3.0 } else { 2.0 };
        match attempt {
            Ok((x_new, lte)) => {
                let err = wrms(
                    &lte,
                    &x_new,
                    &hist.last().expect("non-empty").1,
                    n_nodes,
                    options,
                );
                if err <= 1.0 {
                    rejects_in_a_row = 0;
                    stats.accepted += 1;
                    let t_new = if final_step { t_stop } else { t_n + dt };
                    observer(t_new, &x_new);
                    if hist.len() == 3 {
                        hist.remove(0);
                    }
                    hist.push((t_new, x_new));
                    // PI controller (Hairer's recommendation for stiff
                    // problems: fac = safety · err^(−0.7/k) · prev^(0.4/k)).
                    let errc = err.max(1e-10);
                    let fac = SAFETY * errc.powf(-0.7 / k) * prev_err.powf(0.4 / k);
                    dt *= fac.clamp(0.2, MAX_GROWTH);
                    prev_err = errc;
                } else {
                    stats.rejected_lte += 1;
                    rejects_in_a_row += 1;
                    if dt <= dt_min * (1.0 + 1e-9) {
                        return Err(CircuitError::TimestepTooSmall {
                            t: t_n,
                            dt,
                            report: Box::new(engine.last_report(circuit).unwrap_or_default()),
                        });
                    }
                    // A non-finite norm (overflowing LTE) gives no usable
                    // magnitude — take the maximum shrink instead.
                    let fac = if err.is_finite() {
                        (SAFETY * err.powf(-1.0 / k)).clamp(0.1, 0.5)
                    } else {
                        0.1
                    };
                    dt *= fac;
                }
            }
            Err(CircuitError::NoConvergence { .. }) | Err(CircuitError::SingularSystem(_)) => {
                stats.rejected_newton += 1;
                rejects_in_a_row += 1;
                if dt <= dt_min * (1.0 + 1e-9) {
                    return Err(CircuitError::TimestepTooSmall {
                        t: t_n,
                        dt,
                        report: Box::new(engine.last_report(circuit).unwrap_or_default()),
                    });
                }
                dt = (dt * 0.25).max(dt_min);
                // Stale history after a hard failure: restart from BE.
                if use_bdf2 {
                    stats.bdf2_restarts += 1;
                }
                let last = hist.pop().expect("history is never empty");
                hist.clear();
                hist.push(last);
            }
            Err(e) => return Err(e),
        }
        if rejects_in_a_row > MAX_REJECTS {
            let t_n = hist.last().expect("non-empty").0;
            return Err(CircuitError::TimestepTooSmall {
                t: t_n,
                dt,
                report: Box::new(engine.last_report(circuit).unwrap_or_default()),
            });
        }
    }
    stats.counters = engine.counters().delta_since(&base_counters);
    Ok(stats)
}

/// The starting state, after checking its length against the circuit's
/// unknowns.
fn initial_state(circuit: &Circuit, x: &[f64]) -> Result<Vec<f64>, CircuitError> {
    if x.len() != circuit.unknown_count() {
        return Err(CircuitError::InvalidAnalysis(format!(
            "initial state has {} entries, circuit has {} unknowns",
            x.len(),
            circuit.unknown_count()
        )));
    }
    Ok(x.to_vec())
}

/// Weighted RMS of an LTE estimate over the node-voltage unknowns
/// (branch currents and CNFET Σ rows are excluded: they live in
/// different units and the voltages are what the tolerance means).
fn wrms(lte: &[f64], x_new: &[f64], x_old: &[f64], n_nodes: usize, o: &TransientOptions) -> f64 {
    if n_nodes == 0 {
        return 0.0;
    }
    let mut sum = 0.0;
    for i in 0..n_nodes {
        // The floor keeps the norm finite when abs_tol is 0 and a node
        // sits at exactly 0 V (a zero-LTE node then contributes 0, not
        // 0/0 = NaN).
        let scale =
            (o.abs_tol + o.rel_tol * x_new[i].abs().max(x_old[i].abs())).max(f64::MIN_POSITIVE);
        let r = lte[i] / scale;
        sum += r * r;
    }
    (sum / n_nodes as f64).sqrt()
}

/// One backward-Euler attempt with step-doubling error estimation:
/// solves the full step and two half steps, returns the Richardson
/// combination `2·x_half − x_full` (locally second-order) and the LTE
/// estimate `x_half − x_full` (first-order, conservative).
fn be_doubled_step(
    engine: &mut NewtonEngine,
    circuit: &Circuit,
    hist: &[(f64, Vec<f64>)],
    dt: f64,
    stats: &mut TransientStats,
) -> Result<(Vec<f64>, Vec<f64>), CircuitError> {
    let (t_n, x_n) = hist.last().expect("history is never empty");
    let solve = |engine: &mut NewtonEngine,
                 stats: &mut TransientStats,
                 t: f64,
                 h: f64,
                 from: &[f64],
                 guess: &[f64]| {
        let stamp = TransientStamp::backward_euler(t, h, from);
        step_newton(engine, circuit, guess, stamp, stats)
    };
    let x_full = solve(engine, stats, t_n + dt, dt, x_n, x_n)?;
    let x_h1 = solve(engine, stats, t_n + 0.5 * dt, 0.5 * dt, x_n, x_n)?;
    let x_h2 = solve(engine, stats, t_n + dt, 0.5 * dt, &x_h1, &x_full)?;
    let lte: Vec<f64> = x_h2.iter().zip(&x_full).map(|(h, f)| h - f).collect();
    let x_acc: Vec<f64> = x_h2.iter().zip(&x_full).map(|(h, f)| 2.0 * h - f).collect();
    Ok((x_acc, lte))
}

/// One variable-step BDF2 attempt: quadratic-extrapolation predictor
/// through the last three accepted points, implicit corrector, and the
/// scaled predictor–corrector difference as the LTE estimate.
fn bdf2_step(
    engine: &mut NewtonEngine,
    circuit: &Circuit,
    hist: &[(f64, Vec<f64>)],
    dt: f64,
    stats: &mut TransientStats,
) -> Result<(Vec<f64>, Vec<f64>), CircuitError> {
    let [(t2, x2), (t1, x1), (t0, x0)] = hist else {
        unreachable!("bdf2_step requires exactly three history points");
    };
    let h = dt;
    let g = t0 - t1;
    let f = t1 - t2;
    let t = t0 + h;
    // Lagrange extrapolation of the last three points to the new time.
    let c2 = ((t - t1) * (t - t0)) / ((t2 - t1) * (t2 - t0));
    let c1 = ((t - t2) * (t - t0)) / ((t1 - t2) * (t1 - t0));
    let c0 = ((t - t2) * (t - t1)) / ((t0 - t2) * (t0 - t1));
    let pred: Vec<f64> = x0
        .iter()
        .zip(x1)
        .zip(x2)
        .map(|((&a, &b), &c)| c0 * a + c1 * b + c2 * c)
        .collect();
    let stamp = TransientStamp::bdf2(t, h, g, x0, x1);
    let x_new = step_newton(engine, circuit, &pred, stamp, stats)?;
    // Error-constant split of the predictor–corrector difference: the
    // corrector's solution-error constant is C2 = h²(h+g)²/(6(2h+g)),
    // the predictor's Cp = h(h+g)(h+g+f)/6, both multiplying y'''.
    // LTE ≈ C2/(C2+Cp) · (x − pred); uniform steps give the classic 2/11.
    let c_corr = h * h * (h + g) * (h + g) / (6.0 * (2.0 * h + g));
    let c_pred = h * (h + g) * (h + g + f) / 6.0;
    let gamma = c_corr / (c_corr + c_pred);
    let lte: Vec<f64> = x_new
        .iter()
        .zip(&pred)
        .map(|(x, p)| gamma * (x - p))
        .collect();
    Ok((x_new, lte))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Capacitor, Element, Mna, Resistor, VoltageSource, Waveform};
    use crate::netlist::Circuit;
    use crate::sim::{Simulator, TransientSpec};

    /// A fixed-grid backward-Euler run on a fresh session.
    fn fixed_be(ckt: Circuit, t_stop: f64, dt: f64) -> Result<TransientResult, CircuitError> {
        let opts = TransientOptions {
            integrator: TimeIntegrator::BackwardEuler,
            ..TransientOptions::default()
        };
        Simulator::new(ckt)
            .transient(&TransientSpec::fixed(t_stop, dt).with_options(opts))
            .map(|run| run.result)
    }

    /// An adaptive run on a fresh session.
    fn adaptive(
        ckt: Circuit,
        t_stop: f64,
        opts: &TransientOptions,
    ) -> Result<TransientRun, CircuitError> {
        Simulator::new(ckt).transient(&TransientSpec::adaptive(t_stop).with_options(*opts))
    }

    /// RC low-pass driven by a step: analytic exponential response.
    fn rc_circuit(r: f64, c: f64) -> (Circuit, NodeId) {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add(VoltageSource::with_waveform(
            "V1",
            vin,
            Circuit::ground(),
            Waveform::Pulse {
                low: 0.0,
                high: 1.0,
                delay: 0.0,
                rise: 1e-12,
                width: 1.0,
                fall: 1e-12,
                period: 0.0,
            },
        ));
        ckt.add(Resistor::new("R1", vin, out, r));
        ckt.add(Capacitor::new("C1", out, Circuit::ground(), c));
        (ckt, out)
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        let (r, c) = (1e3, 1e-9); // tau = 1 µs
        let tau = r * c;
        let (ckt, out) = rc_circuit(r, c);
        let res = fixed_be(ckt, 5.0 * tau, tau / 500.0).unwrap();
        let w = res.waveform(out);
        for (t, v) in res.time.iter().zip(&w) {
            let expect = 1.0 - (-t / tau).exp();
            assert!(
                (v - expect).abs() < 0.01,
                "t = {t}: {v} vs analytic {expect}"
            );
        }
        // Fully settled at the end.
        assert!((w.last().unwrap() - 1.0).abs() < 0.01);
    }

    #[test]
    fn rc_final_value_is_supply() {
        let (ckt, out) = rc_circuit(10e3, 1e-12);
        let res = fixed_be(ckt, 1e-6, 1e-9).unwrap();
        assert!((res.waveform(out).last().unwrap() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn invalid_steps_are_rejected() {
        let rc = || rc_circuit(1e3, 1e-9).0;
        assert!(fixed_be(rc(), -1.0, 1e-9).is_err());
        assert!(fixed_be(rc(), 1e-6, 0.0).is_err());
        // 1e15 grid steps: over the step bound, rejected before any solve.
        assert!(fixed_be(rc(), 1.0, 1e-15).is_err());
        // Non-finite inputs neither run one step over the whole span nor
        // panic in the companion stamp.
        assert!(fixed_be(rc(), 1e-6, f64::NAN).is_err());
        assert!(fixed_be(rc(), 1e-6, f64::INFINITY).is_err());
        assert!(fixed_be(rc(), f64::NAN, 1e-9).is_err());
        let bad_initial = TransientSpec::fixed(1e-6, 1e-9).with_initial(vec![0.0]);
        assert!(Simulator::new(rc()).transient(&bad_initial).is_err());
    }

    #[test]
    fn waveform_of_ground_is_zero() {
        let (ckt, _) = rc_circuit(1e3, 1e-9);
        let res = fixed_be(ckt, 1e-8, 1e-9).unwrap();
        assert!(res.waveform(Circuit::ground()).iter().all(|&v| v == 0.0));
        assert_eq!(res.len(), res.time.len());
        assert!(!res.is_empty());
    }

    #[test]
    fn sine_drive_passes_through_at_low_frequency() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add(VoltageSource::with_waveform(
            "V1",
            vin,
            Circuit::ground(),
            Waveform::Sine {
                offset: 0.0,
                amplitude: 1.0,
                frequency: 1e3, // far below RC corner
            },
        ));
        ckt.add(Resistor::new("R1", vin, out, 1e3));
        ckt.add(Capacitor::new("C1", out, Circuit::ground(), 1e-12));
        let res = fixed_be(ckt, 1e-3, 1e-6).unwrap();
        let w = res.waveform(out);
        let peak = w.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!((peak - 1.0).abs() < 0.01, "peak {peak}");
    }

    #[test]
    fn fixed_step_lands_exactly_on_t_stop() {
        // t_stop is not an integer multiple of dt: the last step is
        // shortened, never overshot.
        let (ckt, out) = rc_circuit(1e3, 1e-9);
        let res = fixed_be(ckt, 1e-6, 3e-7).unwrap();
        assert_eq!(res.time.len(), 5); // 0, .3, .6, .9, 1.0 µs
        assert_eq!(*res.time.last().unwrap(), 1e-6);
        let v = *res.waveform(out).last().unwrap();
        let expect = 1.0 - (-1e-6_f64 / 1e-6).exp();
        assert!((v - expect).abs() < 0.1, "{v} vs {expect}");
    }

    #[test]
    fn dt_larger_than_t_stop_is_one_clamped_step() {
        let (ckt, _) = rc_circuit(1e3, 1e-9);
        let res = fixed_be(ckt, 1e-6, 5e-6).unwrap();
        assert_eq!(res.time, vec![0.0, 1e-6]);
    }

    #[test]
    fn adaptive_rc_uses_far_fewer_steps_than_fixed() {
        let (r, c) = (1e3, 1e-9); // tau = 1 µs
        let tau = r * c;
        let (ckt, out) = rc_circuit(r, c);
        let run = adaptive(ckt, 5.0 * tau, &TransientOptions::default()).unwrap();
        let w = run.result.waveform(out);
        for (t, v) in run.result.time.iter().zip(&w) {
            let expect = 1.0 - (-t / tau).exp();
            assert!(
                (v - expect).abs() < 5e-3,
                "t = {t}: {v} vs analytic {expect}"
            );
        }
        assert_eq!(*run.result.time.last().unwrap(), 5.0 * tau);
        assert_eq!(run.stats.accepted, run.result.len() - 1);
        assert!(
            run.stats.accepted < 500,
            "adaptive should be coarse: {} steps",
            run.stats.accepted
        );
        // With no reserved slot on the source's constraint row the
        // 3-unknown RC system is a permuted triangle: its plan
        // eliminates no entry, so no factorisation costs an op.
        assert!(run.stats.counters.factorizations > 0);
        assert_eq!(run.stats.counters.factor_ops, 0);
    }

    #[test]
    fn be_and_bdf2_agree_with_analytic_rc_response() {
        // Tight tolerances: the accepted solutions of both integrators
        // (Richardson-extrapolated BE, BDF2) track the analytic
        // exponential to ≤ 1e-6 everywhere. The per-step tolerances
        // differ because BE's accepted value is far more accurate than
        // its conservative first-order estimate, while BDF2's global
        // error genuinely accumulates at ~n_steps × per-step tolerance.
        let (r, c) = (1e3, 1e-9); // tau = 1 µs
        let tau = r * c;
        let tight = |integrator| {
            let (rel_tol, abs_tol) = match integrator {
                TimeIntegrator::BackwardEuler => (1e-7, 1e-10),
                TimeIntegrator::Bdf2 => (2e-9, 1e-11),
            };
            TransientOptions {
                integrator,
                rel_tol,
                abs_tol,
                ..TransientOptions::default()
            }
        };
        let mut finals = Vec::new();
        for integ in [TimeIntegrator::BackwardEuler, TimeIntegrator::Bdf2] {
            let (ckt, out) = rc_circuit(r, c);
            let run = adaptive(ckt, 2.0 * tau, &tight(integ)).unwrap();
            let w = run.result.waveform(out);
            let max_err = run
                .result
                .time
                .iter()
                .zip(&w)
                .map(|(t, v)| (v - (1.0 - (-t / tau).exp())).abs())
                .fold(0.0f64, f64::max);
            assert!(
                max_err <= 1e-6,
                "{integ:?}: max |v - analytic| = {max_err:.3e}"
            );
            finals.push(*w.last().unwrap());
        }
        assert!(
            (finals[0] - finals[1]).abs() <= 1e-6,
            "BE vs BDF2 at t_stop: {} vs {}",
            finals[0],
            finals[1]
        );
    }

    #[test]
    fn dt_min_collision_gives_up_cleanly() {
        // dt_min == dt_max == 10 τ: the only allowed step is far too
        // coarse for the default tolerance and the controller cannot
        // shrink it, so the run must abort with TimestepTooSmall.
        let (ckt, _) = rc_circuit(1e3, 1e-9); // tau = 1 µs
        let opts = TransientOptions {
            dt_min: Some(1e-5),
            dt_max: Some(1e-5),
            ..TransientOptions::default()
        };
        let err = adaptive(ckt, 4e-5, &opts).unwrap_err();
        assert!(
            matches!(err, CircuitError::TimestepTooSmall { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn adaptive_rejects_invalid_options() {
        let rc = || rc_circuit(1e3, 1e-9).0;
        let bad_tol = TransientOptions {
            rel_tol: 0.0,
            abs_tol: 0.0,
            ..TransientOptions::default()
        };
        assert!(adaptive(rc(), 1e-6, &bad_tol).is_err());
        let bad_bounds = TransientOptions {
            dt_min: Some(1e-6),
            dt_max: Some(1e-9),
            ..TransientOptions::default()
        };
        assert!(adaptive(rc(), 1e-6, &bad_bounds).is_err());
        assert!(adaptive(rc(), -1.0, &TransientOptions::default()).is_err());
        let infinite = adaptive(rc(), f64::INFINITY, &TransientOptions::default());
        assert!(
            matches!(infinite, Err(CircuitError::InvalidAnalysis(_))),
            "{infinite:?}"
        );
        let nan_dt_init = TransientOptions {
            dt_init: Some(f64::NAN),
            ..TransientOptions::default()
        };
        let nan_run = adaptive(rc(), 1e-6, &nan_dt_init);
        assert!(
            matches!(nan_run, Err(CircuitError::InvalidAnalysis(_))),
            "{nan_run:?}"
        );
    }

    #[test]
    fn crossings_are_interpolated_and_directed() {
        let (r, c) = (1e3, 1e-9); // tau = 1 µs
        let tau = r * c;
        let (ckt, out) = rc_circuit(r, c);
        let res = fixed_be(ckt, 5.0 * tau, tau / 400.0).unwrap();
        // The charging exponential crosses 0.5 exactly once, rising, at
        // t = tau·ln 2. The residual offset is backward Euler's own
        // first-order bias (~dt/2), so the interpolated crossing must
        // land well within one grid step of the analytic time.
        let xs = res.crossings(out, 0.5);
        assert_eq!(xs.len(), 1);
        let (t, rising) = xs[0];
        assert!(rising);
        assert!(
            (t - tau * 2.0_f64.ln()).abs() < tau / 300.0,
            "crossing at {t:.4e} vs ln2·tau {:.4e}",
            tau * 2.0_f64.ln()
        );
        // Ground never crosses a positive level.
        assert!(res.crossings(Circuit::ground(), 0.5).is_empty());
    }

    #[test]
    fn dt_changes_revalue_but_never_repattern() {
        // An engine shared across steps of wildly different sizes and
        // both integration stencils must record the Jacobian sparsity
        // pattern exactly once: companion stamps scale with a0, they
        // never add or remove entries.
        use crate::element::{AnalysisMode, TransientStamp};
        let (ckt, _) = rc_circuit(1e3, 1e-9);
        let mut engine = NewtonEngine::new(NewtonOptions::transient());
        let x = vec![0.0; ckt.unknown_count()];
        let mut state = x.clone();
        for (i, dt) in [1e-9, 1e-12, 3.7e-8, 2.5e-10].into_iter().enumerate() {
            let t = (i + 1) as f64 * 1e-7;
            let stamp = if i % 2 == 0 {
                TransientStamp::backward_euler(t, dt, &state)
            } else {
                TransientStamp::bdf2(t, dt, 2.0 * dt, &state, &x)
            };
            let (nx, _) = engine
                .newton(&ckt, &state, &AnalysisMode::Transient(stamp))
                .unwrap();
            state = nx;
        }
        assert_eq!(engine.pattern_builds(), 1, "dt/method changes re-pattern");
    }

    /// A branch whose constraint has no solution on long steps: its
    /// extra unknown `y` obeys `y = 0` at DC and on transient steps of
    /// at most `h_max`, and `y + sign(y) = 0` on longer ones, where the
    /// residual never drops below 1. Every Newton solve of a long step
    /// therefore fails, rescue ladder included, and the stepper has to
    /// shorten the step. Its 1×1 block touches no node row, so the rest
    /// of the circuit solves exactly as without it.
    #[derive(Debug)]
    struct LongStepFuse {
        h_max: f64,
    }

    impl Element for LongStepFuse {
        fn name(&self) -> &str {
            "FUSE"
        }

        fn extra_vars(&self) -> usize {
            1
        }

        fn stamp(&self, x: &[f64], base: usize, mode: &AnalysisMode, mna: &mut Mna<'_>) {
            let y = x[base];
            let long = matches!(mode, AnalysisMode::Transient(s) if s.a0 * self.h_max < 1.0);
            let jump = match (long, y >= 0.0) {
                (false, _) => 0.0,
                (true, true) => 1.0,
                (true, false) => -1.0,
            };
            mna.add_f_extra(base, y + jump);
            mna.stamp_jacobian(|j| j.add_index(base, base, 1.0));
        }
    }

    /// [`rc_circuit`] (τ = 1 µs) with a [`LongStepFuse`] of `h_max`.
    fn fused_rc(h_max: f64) -> Circuit {
        let (mut ckt, _) = rc_circuit(1e3, 1e-9);
        ckt.add(LongStepFuse { h_max });
        ckt
    }

    /// Runs `spec` through the observer seam and checks the step
    /// observer contract: `t = 0` first, then exactly `stats.accepted`
    /// points in strictly increasing time, ending exactly at `t_stop`,
    /// each bitwise equal to the point a collecting
    /// [`Simulator::transient`] run returns.
    fn observe_and_check(build: impl Fn() -> Circuit, spec: &TransientSpec) -> TransientStats {
        let mut time = Vec::new();
        let mut states: Vec<Vec<f64>> = Vec::new();
        let stats = Simulator::new(build())
            .transient_observed(spec, |t, x| {
                time.push(t);
                states.push(x.to_vec());
            })
            .unwrap();
        assert_eq!(time.first(), Some(&0.0));
        assert_eq!(time.len(), stats.accepted + 1);
        assert!(time.windows(2).all(|w| w[0] < w[1]), "time increases");
        assert_eq!(time.last().unwrap().to_bits(), spec.t_stop.to_bits());
        let run = Simulator::new(build()).transient(spec).unwrap();
        assert_eq!(run.stats, stats);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&time), bits(&run.result.time));
        assert_eq!(states.len(), run.result.states.len());
        for (k, (seen, kept)) in states.iter().zip(&run.result.states).enumerate() {
            assert_eq!(bits(seen), bits(kept), "state {k}");
        }
        stats
    }

    #[test]
    fn observer_sees_exactly_the_accepted_points() {
        let h_max = 2e-7;
        let build = || fused_rc(h_max);
        // Fixed backward Euler on a grid the fuse refuses: every grid
        // step fails and is split, yet only grid points are observed.
        let be = TransientOptions {
            integrator: TimeIntegrator::BackwardEuler,
            ..TransientOptions::default()
        };
        let spec = TransientSpec::fixed(2e-6, 1.25 * h_max).with_options(be);
        let stats = observe_and_check(build, &spec);
        assert_eq!(stats.accepted, 8);
        assert_eq!(stats.substeps, 8, "each grid step split once");
        // Fixed BDF2 (one backward-Euler start-up step) under the fuse's
        // limit: nothing is split.
        let spec = TransientSpec::fixed(2e-6, 0.8 * h_max);
        let stats = observe_and_check(build, &spec);
        assert_eq!((stats.accepted, stats.substeps), (13, 0));
        // Adaptive BDF2: the controller grows the step past the fuse's
        // limit, so attempts are rejected for Newton failures as well
        // as for their LTE; neither kind is observed.
        let stats = observe_and_check(build, &TransientSpec::adaptive(5e-6));
        assert!(stats.rejected_newton > 0, "{stats:?}");
        assert!(stats.rejected_lte > 0, "{stats:?}");
    }

    #[test]
    fn failed_attempts_count_their_reported_iterations() {
        // Every Newton iteration factors the Jacobian once, and a
        // failed solve reports every iteration it ran, rescue ladder
        // included, so a run's iteration count equals its
        // factorisations even when attempts fail. Counting a failed
        // attempt as the plain loop's budget (`max_iter`) would not.
        let build = || fused_rc(2e-7);
        let run = Simulator::new(build())
            .transient(&TransientSpec::adaptive(5e-6))
            .unwrap();
        assert!(run.stats.rejected_newton > 0, "{:?}", run.stats);
        assert_eq!(
            run.stats.newton_iterations as u64,
            run.stats.counters.factorizations
        );
        let be = TransientOptions {
            integrator: TimeIntegrator::BackwardEuler,
            ..TransientOptions::default()
        };
        let spec = TransientSpec::fixed(2e-6, 2.5e-7).with_options(be);
        let run = Simulator::new(build()).transient(&spec).unwrap();
        assert!(run.stats.substeps > 0, "{:?}", run.stats);
        assert_eq!(
            run.stats.newton_iterations as u64,
            run.stats.counters.factorizations
        );
    }

    #[test]
    fn fixed_bdf2_matches_be_on_rc() {
        // Fixed-grid BDF2 (BE start-up step) should be at least as
        // accurate as fixed BE at the same step size.
        let (r, c) = (1e3, 1e-9);
        let tau = r * c;
        let max_err = |integrator| {
            let opts = TransientOptions {
                integrator,
                ..TransientOptions::default()
            };
            let (ckt, out) = rc_circuit(r, c);
            let spec = TransientSpec::fixed(3.0 * tau, tau / 100.0).with_options(opts);
            let run = Simulator::new(ckt).transient(&spec).unwrap();
            let w = run.result.waveform(out);
            run.result
                .time
                .iter()
                .zip(&w)
                .map(|(t, v)| (v - (1.0 - (-t / tau).exp())).abs())
                .fold(0.0f64, f64::max)
        };
        let be = max_err(TimeIntegrator::BackwardEuler);
        let bdf2 = max_err(TimeIntegrator::Bdf2);
        assert!(bdf2 < be / 5.0, "bdf2 {bdf2:.3e} vs be {be:.3e}");
    }
}
