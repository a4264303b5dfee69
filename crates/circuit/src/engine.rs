//! The unified nonlinear solve core shared by every analysis.
//!
//! DC operating points, transient steps and swept operating points all
//! reduce to the same damped-Newton iteration on `F(x) = 0`; this module
//! owns that iteration exactly once. [`NewtonEngine`] additionally owns
//! the performance-critical state that used to be rebuilt from scratch
//! on every iteration:
//!
//! * a pattern-cached assembler ([`cntfet_numerics::sparse::PatternAssembler`]):
//!   the first assembly of a circuit records the MNA sparsity pattern;
//!   every later iteration — across gmin steps, sweep points and
//!   transient steps — writes values into preallocated slots with no
//!   allocation;
//! * a [`SparseLu`] that picks its pivot order and fill-in
//!   pattern once and replays the frozen elimination across
//!   factorizations (fully, or partially from the changed slots).
//!
//! Damping trials after the first assemble the residual only: the
//! Armijo test reads `F`, and a rejected trial's Jacobian was always
//! thrown away. Such an assembly evaluates each CNFET's values without
//! derivatives and writes no Jacobian slot
//! ([`EngineCounters::residual_evals`] counts those evaluations); an
//! accepted backtracked trial gets its Jacobian at the top of the next
//! iteration, unless it has already converged. Assembly is a pure
//! function of `x`, so every iterate is bitwise what full assemblies
//! give.
//!
//! The cache is keyed on [`Circuit::id`], [`Circuit::revision`], the
//! unknown count and the analysis *kind* (DC vs transient), so a
//! circuit that gains elements (or a switch from DC to transient
//! stamping) transparently rebuilds the pattern. The key deliberately
//! excludes everything that only changes *values* — source levels,
//! sweep points, the transient step size and integration method — so a
//! whole adaptive-transient run with wildly varying steps reuses one
//! pattern and one solver ordering (asserted by
//! `dt_changes_revalue_but_never_repattern` in the transient tests).
//!
//! # Options semantics
//!
//! [`NewtonOptions`] is plain data (`Copy`) shared by every analysis:
//!
//! * `max_iter` bounds each *individual* Newton solve — per transient
//!   step attempt, per sweep point, per rescue stage — not the whole
//!   analysis;
//! * `partial_refactor` and `limiting` switch the hot-path and
//!   robustness layers documented on their fields.
//!
//! Everything else is a module constant:
//!
//! * the *absolute, per-row* convergence thresholds: 1e-12 A for node
//!   rows (KCL sums) and a tighter 1e-15 for extra rows, which mix
//!   source-constraint volts and CNFET charge-balance C/m;
//! * the damping line search: the Armijo rule with `c₁ = 1e-4` and at
//!   most 12 step halvings, after which the smallest trial step is
//!   adopted unconditionally so Newton can escape shallow plateaus
//!   ([`EngineCounters::armijo_exhaustions`] counts those). Decrease
//!   is measured along the step actually taken: a Newton step that
//!   limiting or a rescue stage's step cap scaled by `s` must cut
//!   `‖F‖∞` by `c₁·α·s·‖F‖∞`, and an unscaled step (`s` exactly 1)
//!   keeps the historical halving rule bit for bit;
//! * the rescue ladder, which is always armed: a plain solve that
//!   stalls or exhausts its budget hands over to pseudo-transient
//!   continuation and then gmin stepping, and every rescue stage, like
//!   the plain solve, ends at its first stall.

use crate::dc::Solution;
use crate::element::{AnalysisMode, Mna};
use crate::error::CircuitError;
use crate::netlist::Circuit;
use cntfet_numerics::sparse::{
    structural_rank, CsrMatrix, FactorPathStats, PatternAssembler, SparseLu,
};
use cntfet_numerics::stats::inf_norm;
use std::fmt;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Absolute convergence threshold for node (KCL current) residual
/// rows, amperes.
const NODE_CURRENT_TOL: f64 = 1e-12;

/// Absolute convergence threshold for element extra rows (source
/// constraints in volts, CNFET charge balance in C/m).
const EXTRA_ROW_TOL: f64 = 1e-15;

/// Maximum step halvings of the damping line search.
const MAX_STEP_HALVINGS: usize = 12;

/// Sufficient-decrease constant `c₁` of the Armijo condition the
/// damping line search accepts on: a trial `α·s·dx` along a Newton step
/// `dx` scaled by `s` (limiting, rescue step cap) is accepted when
/// `‖F‖ ≤ ‖F₀‖·(1 − c₁·α·s)`. With `s = 1` this is the historical
/// halving rule.
const ARMIJO_C1: f64 = 1e-4;

/// Tuning knobs of the Newton iteration, shared by DC, transient and
/// sweep analyses. [`NewtonOptions::default`] keeps the historical
/// iteration budget with partial refactorization and limiting on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Iteration budget per Newton solve (per transient step, per
    /// rescue stage). DC default: 80.
    pub max_iter: usize,
    /// Use KLU-style partial refactorization: diff the assembled matrix
    /// values against the previous successful factorization and replay
    /// only the columns reached from changed slots through the frozen
    /// elimination DAG. Bitwise-identical to
    /// the full replay (the partial replay performs the same arithmetic
    /// on the recomputed columns and reuses the rest verbatim), so it
    /// is on by default. Default `true`.
    pub partial_refactor: bool,
    /// Per-device voltage limiting ([`crate::element::Element::limit_step`]):
    /// before the line search, every element may propose a step scale
    /// that caps its per-iteration controlling-voltage swing
    /// (SPICE3 `pnjlim`/`fetlim` lineage), and the Armijo test then
    /// asks for decrease along the clamped step. It is **not** a no-op
    /// on decks that converge without it: a healthy iteration that
    /// takes a step beyond some device's window is clamped too, which
    /// changes the float stream and the iteration count. It stays on
    /// because the generated adders fail to converge without it.
    /// Default `true`.
    pub limiting: bool,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iter: 80,
            partial_refactor: true,
            limiting: true,
        }
    }
}

impl NewtonOptions {
    /// The transient-analysis default: a larger iteration budget (120),
    /// matching the historical fixed limit of backward-Euler steps.
    pub fn transient() -> Self {
        NewtonOptions {
            max_iter: 120,
            ..NewtonOptions::default()
        }
    }
}

/// Per-structure cached state: assembler (pattern), solver (factors) and
/// extra-variable bases.
#[derive(Debug)]
struct Cache {
    circuit_id: u64,
    revision: u64,
    unknowns: usize,
    asm: PatternAssembler,
    solver: SparseLu<f64>,
    bases: Vec<usize>,
    /// `true` once this structure passed the structural-rank check, so
    /// repeated DC solves (sweep points, transient initial conditions)
    /// pay for the matching exactly once per pattern build.
    struct_ok: bool,
    /// Nonlinear devices evaluated per assembly pass
    /// ([`Circuit::device_count`]).
    devices: u64,
    /// Matrix values of the previous *successful* factorization, the
    /// baseline the partial-refactorization diff runs against.
    prev_values: Vec<f64>,
    /// `false` until a factorization succeeds (and again after one
    /// fails), forcing the next factor down the full path.
    prev_valid: bool,
    /// Reused scratch list of changed value slots.
    changed: Vec<usize>,
    /// Solver stats at the last harvest, so the engine can accumulate
    /// deltas across cache rebuilds (a fresh solver restarts from 0).
    last_path: FactorPathStats,
}

/// Declares [`EngineCounters`] from one field list, so the struct, its
/// arithmetic and its `(name, value)` listing cannot drift apart: a
/// field added here reaches `cntfet-sim --stats`, the per-card stats
/// and the server JSON with no other edit.
macro_rules! engine_counters {
    ($($(#[$doc:meta])* $field:ident,)+) => {
        /// Cumulative hot-path counters of a [`NewtonEngine`], harvested
        /// with [`NewtonEngine::counters`]. All counts are
        /// engine-lifetime cumulative — an analysis that wants its own
        /// share captures a baseline first and calls
        /// [`EngineCounters::delta_since`] after, the per-analysis
        /// discipline used by [`crate::transient::TransientStats`],
        /// [`crate::ac::AcStats`] and the deck layer's per-card stats.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct EngineCounters {
            $($(#[$doc])* pub $field: u64,)+
        }

        impl EngineCounters {
            /// Every counter as `(name, value)`, in declaration order —
            /// the one list behind every textual and JSON rendering.
            pub fn named(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($field), self.$field)),+].into_iter()
            }

            fn zip_with(self, other: EngineCounters, f: fn(u64, u64) -> u64) -> EngineCounters {
                EngineCounters {
                    $($field: f(self.$field, other.$field),)+
                }
            }
        }
    };
}

engine_counters! {
    /// Jacobian factorizations (one per Newton iteration that reached
    /// the linear solve), full and partial alike.
    factorizations,
    /// Multiply–accumulate/divide operations across all factorizations.
    factor_ops,
    /// Full pivot-searching factorizations (symbolic + numeric).
    symbolic_factorizations,
    /// Full replays of a frozen elimination plan.
    replay_refactorizations,
    /// Partial replays that reused unaffected columns.
    partial_refactorizations,
    /// Columns actually recomputed, over every factorization path.
    columns_recomputed,
    /// Columns that a full factorization would have recomputed.
    columns_total,
    /// Nonlinear device evaluations that ran the full model (values
    /// and derivatives): every device, once per full assembly.
    device_evals,
    /// Nonlinear device evaluations for a residual-only assembly (an
    /// Armijo trial after the first): values only, no derivatives.
    residual_evals,
    /// Newton steps scaled down by per-device voltage limiting.
    limiter_clamps,
    /// Armijo line-search backtracks (step halvings actually taken).
    armijo_backtracks,
    /// Armijo line searches that met no sufficient-decrease test and
    /// adopted their smallest trial step anyway.
    armijo_exhaustions,
    /// Pseudo-transient continuation stages that converged.
    ptc_steps,
}

impl EngineCounters {
    /// The counts accumulated since `baseline` (saturating, so a stale
    /// baseline from a different engine degrades to the raw counts).
    pub fn delta_since(&self, baseline: &EngineCounters) -> EngineCounters {
        self.zip_with(*baseline, u64::saturating_sub)
    }

    /// One-line `name value, …` rendering of every counter (the
    /// `cntfet-sim --stats` output body).
    pub fn summary(&self) -> String {
        let parts: Vec<String> = self.named().map(|(n, v)| format!("{n} {v}")).collect();
        parts.join(", ")
    }
}

impl From<FactorPathStats> for EngineCounters {
    /// The factorization-path counts of a solver, every other counter 0.
    fn from(path: FactorPathStats) -> EngineCounters {
        EngineCounters {
            symbolic_factorizations: path.symbolic_factorizations,
            replay_refactorizations: path.replay_refactorizations,
            partial_refactorizations: path.partial_refactorizations,
            columns_recomputed: path.columns_recomputed,
            columns_total: path.columns_total,
            ..EngineCounters::default()
        }
    }
}

impl AddAssign for EngineCounters {
    fn add_assign(&mut self, rhs: EngineCounters) {
        *self = self.zip_with(rhs, u64::saturating_add);
    }
}

/// The highest rung of the convergence-robustness ladder a Newton solve
/// climbed to: plain Newton steps, per-device voltage limiting, Armijo
/// backtracking, or the pseudo-transient continuation rescue. Rungs are
/// ordered — a solve reported as [`NewtonStrategy::Ptc`] typically also
/// exercised limiting and damping on the way up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NewtonStrategy {
    /// Full (unclamped, undamped) Newton steps sufficed.
    #[default]
    Newton,
    /// Voltage limiting clamped at least one step.
    Limited,
    /// The Armijo line search backtracked at least once.
    Damped,
    /// The plain iteration stalled or exhausted its budget, and the
    /// rescue (pseudo-transient continuation, then gmin stepping) ran.
    Ptc,
}

impl NewtonStrategy {
    /// Short human-readable name of this strategy rung.
    pub fn as_str(self) -> &'static str {
        match self {
            NewtonStrategy::Newton => "newton",
            NewtonStrategy::Limited => "voltage limiting",
            NewtonStrategy::Damped => "armijo damping",
            NewtonStrategy::Ptc => "pseudo-transient",
        }
    }
}

impl fmt::Display for NewtonStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Post-mortem of the most recent Newton solve, harvested with
/// [`NewtonEngine::last_report`]: which strategy rung it ended on, how
/// hard it worked, and — crucially for debugging a failing deck — the
/// worst-residual unknown *by name*. Attached to
/// [`CircuitError::NoConvergence`] and
/// [`CircuitError::TimestepTooSmall`] so a failure names the node that
/// refused to settle instead of just a number.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConvergenceReport {
    /// Highest strategy rung exercised.
    pub strategy: NewtonStrategy,
    /// Newton iterations performed (across PTC stages if any ran).
    pub iterations: usize,
    /// Final residual infinity norm.
    pub residual: f64,
    /// Name of the unknown with the largest final residual (a node
    /// name, `i(NAME)` for a source branch current, `internal(NAME)`
    /// for an element's internal unknown).
    pub worst_unknown: String,
    /// The engine counters this solve added (limiter clamps, Armijo
    /// backtracks and converged rescue stages among them).
    pub counters: EngineCounters,
}

impl ConvergenceReport {
    /// The strategy rungs this solve actually exercised, joined with
    /// `" → "` — e.g. `"newton → armijo damping → pseudo-transient"`.
    pub fn ladder(&self) -> String {
        let mut rungs = vec![NewtonStrategy::Newton.as_str()];
        if self.counters.limiter_clamps > 0 {
            rungs.push(NewtonStrategy::Limited.as_str());
        }
        if self.counters.armijo_backtracks > 0 {
            rungs.push(NewtonStrategy::Damped.as_str());
        }
        if self.counters.ptc_steps > 0 || self.strategy == NewtonStrategy::Ptc {
            rungs.push(NewtonStrategy::Ptc.as_str());
        }
        rungs.join(" → ")
    }
}

impl fmt::Display for ConvergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let worst = if self.worst_unknown.is_empty() {
            "?"
        } else {
            &self.worst_unknown
        };
        write!(
            f,
            "worst unknown {worst} (|F| = {:.3e}), strategies tried: {}",
            self.residual,
            self.ladder()
        )
    }
}

/// Temporary pseudo-transient regularization applied by a rescue stage:
/// adds `g·(x[i] − anchor[i])` to every masked node row, folded into the
/// node rows' reserved diagonal slots. The mask covers node rows only —
/// element rows have no reserved diagonal, and
/// [`NewtonEngine::assemble_into`] never reads the mask past the node
/// count. It is frozen once per rescue (node rows whose dynamic loading
/// is below the initial [`PTC_G0`]) so the critical weakly-loaded row
/// cannot drop out of the regularized set as `g` ramps down past its
/// tiny-but-nonzero companion load.
struct PtcTerm<'a> {
    g: f64,
    anchor: &'a [f64],
    mask: &'a [bool],
}

#[derive(Debug)]
/// How a [`NewtonEngine::run_newton_loop`] call ended (convergence
/// errors excluded — those are `Err`).
enum LoopExit {
    /// Converged after this many iterations.
    Converged(usize),
    /// Stalled — the residual has been flat, and not monotonically
    /// falling, for [`STALL_WINDOW`] accepted iterates (see
    /// `run_newton_loop`) — or ran out of iteration budget. Carries the
    /// iterations spent.
    Failed(usize),
}

/// Hard cap on the per-iteration step infinity norm *inside
/// pseudo-transient rescue stages* (volts). The limit cycles this
/// rescues are overshoot oscillations of a few hundred mV around a
/// weakly-conducting balance point; capping the step turns the bounce
/// into a monotone walk. Never applied to plain solves, so converging
/// decks stay bitwise-identical.
const PTC_STEP_CAP: f64 = 0.1;

/// Initial pseudo-transient stiffness (siemens) and the frozen
/// weakly-loaded-row threshold: rows whose dynamic (companion)
/// conductance is below this at the stall point get the `g·(x −
/// anchor)` regularization for the whole rescue ramp.
const PTC_G0: f64 = 1e-3;

/// Stage budget for one pseudo-transient rescue. Marching at the floor
/// stiffness contracts the remaining error geometrically per stage, so
/// the budget bounds pathological cases, not healthy rescues.
const PTC_MAX_STAGES: usize = 256;

/// Starting conductance-to-ground of the gmin-stepping rescue rung
/// (siemens): strong enough that the first stage is nearly linear.
const GMIN_STEP_START: f64 = 1e-3;

/// Geometric ramp factor of the gmin-stepping ladder.
const GMIN_STEP_FACTOR: f64 = 0.1;

/// The gmin ladder stops ramping below this conductance (siemens) and
/// hands over to the final stage without the leak: below
/// ~1e-12 S the stepping solutions are indistinguishable from the
/// unregularized one at the engine's current tolerances.
const GMIN_STEP_FLOOR: f64 = 1e-12;

/// Stage budget of one gmin-stepping rescue: 9 decades at the initial
/// ×0.1 factor plus generous room for adaptive back-offs.
const GMIN_MAX_STAGES: usize = 256;

/// The gmin ladder gives up once adaptive back-off has pushed its ramp
/// factor this close to 1: progress per stage is then too small to
/// ever reach the floor.
const GMIN_FACTOR_GIVEUP: f64 = 0.97;

/// Consecutive failed (stiffen-and-restore) pseudo-transient stages
/// tolerated without the true residual improving on its best-seen
/// value; past this the see-saw is provably not progressing and the
/// rescue hands over to gmin stepping instead of burning its full
/// stage budget.
const PTC_MAX_STIFFENS: usize = 8;

/// Consecutive near-flat accepted iterates before the stagnation stall
/// trigger may fire (see `run_newton_loop`). Wide enough that transient
/// plateaus of healthy solves never accumulate it.
const STALL_WINDOW: usize = 24;

/// Relative residual-norm change below which an accepted iterate counts
/// as stagnant. The observed limit cycles drift by ~1e-6 relative per
/// period; healthy Newton progress is orders of magnitude faster.
const STALL_RTOL: f64 = 1e-5;

/// The reusable damped-Newton core.
///
/// Create one engine per solve context (a [`crate::sim::Simulator`]
/// session, a whole sweep, a whole transient run) and feed it the same
/// circuit repeatedly: the sparsity pattern, solver ordering and work
/// buffers persist across calls. The DC and transient analysis kinds
/// each own a cache slot, so a session that alternates between
/// operating points and transient/AC work (the normal rhythm of a
/// bias-then-analyse flow) never thrashes its patterns. Engines are
/// cheap to create, hold no circuit reference, and are independent —
/// parallel sweep jobs each own one.
#[derive(Debug)]
pub struct NewtonEngine {
    opts: NewtonOptions,
    /// One cache per analysis kind: `[DC, transient]`.
    caches: [Option<Cache>; 2],
    /// Index into `caches` of the most recently ensured kind.
    active: usize,
    residual: Vec<f64>,
    pattern_builds: usize,
    /// Engine-lifetime counters; factorization-path stats are added as
    /// deltas from each cache's solver so they survive cache rebuilds.
    counters: EngineCounters,
    /// Report of the most recent [`NewtonEngine::newton`] solve (its
    /// `worst_unknown` left empty) and the worst unknown's index, which
    /// [`NewtonEngine::last_report`] resolves to a name lazily.
    last_solve: Option<(ConvergenceReport, usize)>,
    /// Cooperative cancellation flag, polled once per Newton iteration.
    cancel: Option<Arc<AtomicBool>>,
}

impl NewtonEngine {
    /// Creates an engine with the given options.
    pub fn new(opts: NewtonOptions) -> Self {
        NewtonEngine {
            opts,
            caches: [None, None],
            active: 0,
            residual: Vec::new(),
            pattern_builds: 0,
            counters: EngineCounters::default(),
            last_solve: None,
            cancel: None,
        }
    }

    fn cache(&self) -> Option<&Cache> {
        self.caches[self.active].as_ref()
    }

    /// Replaces the engine's options in place. A long-lived engine (e.g.
    /// inside a [`crate::sim::Simulator`] session) uses this to honour
    /// per-analysis Newton settings without discarding its caches: the
    /// cached pattern and solver survive every option change.
    pub fn set_options(&mut self, opts: NewtonOptions) {
        self.opts = opts;
    }

    /// Installs (or clears) a cooperative cancellation flag. The engine
    /// polls it once at the top of every Newton iteration, and the
    /// transient cores additionally poll once per step attempt, so a
    /// cancelled analysis stops within one accepted step and returns
    /// [`CircuitError::Cancelled`]. The flag is shared: a controller
    /// thread sets it with [`AtomicBool::store`] while the solve runs on
    /// a worker. Cancellation leaves the engine's caches intact and
    /// reusable.
    pub fn set_cancel(&mut self, cancel: Option<Arc<AtomicBool>>) {
        self.cancel = cancel;
    }

    /// Whether the installed cancellation flag (if any) has been raised.
    pub fn cancel_requested(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    /// Returns [`CircuitError::Cancelled`] when the flag is raised —
    /// the poll used by every analysis loop.
    pub fn check_cancel(&self) -> Result<(), CircuitError> {
        if self.cancel_requested() {
            Err(CircuitError::Cancelled)
        } else {
            Ok(())
        }
    }

    /// Re-keys the engine's caches onto another [`Circuit`] with the
    /// *identical MNA structure* — the warm-session seam of the
    /// persistent server. A deck re-lowered from text produces a fresh
    /// `Circuit` whose `id`/`revision` differ even when its stamp
    /// sequence is identical; without rebinding, the engine would
    /// discard its symbolic analysis (pattern, pivot order, fill-in
    /// plan) and redo it from scratch.
    ///
    /// For each cached analysis kind whose unknown count and
    /// extra-variable bases match the new circuit, the cache is re-keyed
    /// in place: the recorded pattern, compiled write plan and frozen
    /// solver plan survive, while everything value-dependent is reset —
    /// the structural-rank verdict and the partial-refactorization
    /// baseline — so no numerical state leaks between circuits.
    /// Incompatible slots are dropped and rebuild lazily.
    ///
    /// **Caller contract:** the new circuit must stamp the same slot
    /// sequence (same element kinds and node wiring, values free). Keyed
    /// lookups via [`crate::deck::Deck::topology_hash`] guarantee this;
    /// a mismatched caller is caught by the assembler's pattern guard:
    /// every write is checked against its planned (row, col), and one
    /// outside the recorded pattern panics.
    pub fn rebind(&mut self, circuit: &Circuit) {
        let unknowns = circuit.unknown_count();
        let bases = circuit.extra_var_bases();
        for slot in &mut self.caches {
            let compatible = slot
                .as_ref()
                .is_some_and(|c| c.unknowns == unknowns && c.bases == bases);
            if compatible {
                let c = slot.as_mut().expect("checked above");
                c.circuit_id = circuit.id();
                c.revision = circuit.revision();
                c.struct_ok = false;
                c.prev_valid = false;
                c.prev_values.clear();
            } else {
                *slot = None;
            }
        }
    }

    /// Whether any analysis kind holds a warm cache (pattern + solver
    /// plan) that [`NewtonEngine::rebind`] could carry to a new circuit.
    pub fn is_warm(&self) -> bool {
        self.caches.iter().any(Option::is_some)
    }

    /// How many times this engine has (re)built a sparsity pattern —
    /// 1 after the first solve, +1 per structural change of the circuit
    /// and +1 the first time each further analysis kind (DC vs
    /// transient) is used. The two kinds cache independently, so
    /// alternating between them does not rebuild.
    pub fn pattern_builds(&self) -> usize {
        self.pattern_builds
    }

    /// Snapshot of every engine-lifetime hot-path counter. Capture one
    /// before an analysis and diff with [`EngineCounters::delta_since`]
    /// after it for clean per-analysis numbers on a shared session.
    pub fn counters(&self) -> EngineCounters {
        self.counters
    }

    /// Adds work done outside the Newton loop on this engine's behalf
    /// (the AC sweep's complex factorizations) to its counters.
    pub(crate) fn record(&mut self, work: EngineCounters) {
        self.counters += work;
    }

    /// Post-mortem of the most recent [`NewtonEngine::newton`] solve
    /// (`None` before any). The worst-residual unknown is resolved to a
    /// name here — lazily, off the hot path — against the given
    /// circuit, which must be the one the solve ran on.
    pub fn last_report(&self, circuit: &Circuit) -> Option<ConvergenceReport> {
        let (report, worst) = self.last_solve.as_ref()?;
        let worst_unknown = if *worst < circuit.unknown_count() {
            unknown_name(circuit, &circuit.extra_var_bases(), *worst)
        } else {
            format!("unknown #{worst}")
        };
        Some(ConvergenceReport {
            worst_unknown,
            ..report.clone()
        })
    }

    fn ensure_cache(&mut self, circuit: &Circuit, transient: bool) {
        let unknowns = circuit.unknown_count();
        let revision = circuit.revision();
        self.active = usize::from(transient);
        let fresh = !self.cache().is_some_and(|c| {
            c.circuit_id == circuit.id() && c.revision == revision && c.unknowns == unknowns
        });
        if fresh {
            self.caches[self.active] = Some(Cache {
                circuit_id: circuit.id(),
                revision,
                unknowns,
                asm: PatternAssembler::new(unknowns, unknowns),
                solver: SparseLu::new(),
                bases: circuit.extra_var_bases(),
                struct_ok: false,
                devices: circuit.device_count() as u64,
                prev_values: Vec::new(),
                prev_valid: false,
                changed: Vec::new(),
                last_path: FactorPathStats::default(),
            });
            self.pattern_builds += 1;
        }
        if self.residual.len() != unknowns {
            self.residual = vec![0.0; unknowns];
        }
    }

    /// Assembles `F(x)` and, with `jacobian` on, `J(x)` into the
    /// engine's reused buffers, counting every nonlinear device once in
    /// [`EngineCounters::device_evals`] or, on a residual-only pass
    /// (`jacobian` off), in [`EngineCounters::residual_evals`]. A
    /// residual-only pass runs the same stamps against an [`Mna`]
    /// without a Jacobian target: devices evaluate values only, no
    /// Jacobian block runs, and the assembler — with the last assembled
    /// Jacobian — is left untouched. Every full pass also writes the
    /// structural diagonal of each node row, the slots through which the
    /// gmin leak and `ptc` (only `Some` inside a pseudo-transient rescue
    /// stage) add their regularization; element rows hold exactly what
    /// their elements stamp.
    fn assemble_into(
        &mut self,
        circuit: &Circuit,
        x: &[f64],
        mode: &AnalysisMode,
        gmin: f64,
        ptc: Option<&PtcTerm<'_>>,
        jacobian: bool,
    ) {
        self.ensure_cache(circuit, matches!(mode, AnalysisMode::Transient(_)));
        let active = self.active;
        let cache = self.caches[active].as_mut().expect("cache ensured above");
        self.residual.iter_mut().for_each(|v| *v = 0.0);
        if jacobian {
            cache.asm.begin();
            self.counters.device_evals += cache.devices;
        } else {
            self.counters.residual_evals += cache.devices;
        }
        let mut mna = Mna::new(&mut self.residual, jacobian.then_some(&mut cache.asm));
        for (e, &base) in circuit.elements().iter().zip(&cache.bases) {
            e.stamp(x, base, mode, &mut mna);
        }
        // Structural diagonal on node rows: reserves every node's (i, i)
        // slot so the gmin ramp and the pseudo-transient regularization
        // always have a diagonal to write to, regardless of which values
        // recorded the pattern. A gmin leak from every node to ground
        // keeps the matrix non-singular while far from convergence; the
        // pseudo-transient term adds `g·(x − anchor)` on masked node
        // rows. Element rows get no reserved slot: nothing writes one,
        // a CNFET stamps its own Σ diagonal, and a source's constraint
        // row has no diagonal at all — a reserved zero there would make
        // the pivoting elimination, which updates even by a zero
        // multiplier to keep the plan value-independent, copy whichever
        // node row pivots the branch column into it as fill. Every full
        // pass writes one block of every node diagonal in node order,
        // so the write plan recorded on the first pass never changes.
        let nodes = circuit.node_count();
        let base = if gmin > 0.0 { gmin } else { 0.0 };
        let regularization = |i: usize| match ptc {
            Some(p) if p.mask[i] => (p.g, p.anchor[i]),
            _ => (0.0, 0.0),
        };
        for (i, &xi) in x.iter().enumerate().take(nodes) {
            let (reg, anchor) = regularization(i);
            if base > 0.0 {
                mna.add_f_extra(i, base * xi);
            }
            if reg > 0.0 {
                mna.add_f_extra(i, reg * (xi - anchor));
            }
        }
        mna.stamp_jacobian(|j| {
            for i in 0..nodes.min(x.len()) {
                j.add_index(i, i, base + regularization(i).0);
            }
        });
        if jacobian {
            cache.asm.finish();
        }
    }

    /// Assembles and returns `F(x)` and the CSR Jacobian at `x` — the
    /// entry point used by benchmarks and tests that want to inspect or
    /// factor the system directly.
    pub fn assemble(
        &mut self,
        circuit: &Circuit,
        x: &[f64],
        mode: &AnalysisMode,
        gmin: f64,
    ) -> (&[f64], &CsrMatrix) {
        self.assemble_into(circuit, x, mode, gmin, None, true);
        let cache = self.cache().expect("cache ensured by assemble");
        (
            &self.residual,
            cache.asm.matrix().expect("assembly finished"),
        )
    }

    /// Row-wise convergence on the engine's current residual: node rows
    /// are currents (A), element rows mix volts (source constraints) and
    /// C/m (CNFET charge balance); one absolute threshold per class.
    fn converged(&self, circuit: &Circuit) -> bool {
        let n_nodes = circuit.node_count();
        self.residual.iter().enumerate().all(|(i, v)| {
            let tol = if i < n_nodes {
                NODE_CURRENT_TOL
            } else {
                EXTRA_ROW_TOL
            };
            v.abs() < tol
        })
    }

    /// One pass of the damped-Newton iteration, shared by the plain
    /// solve and every pseudo-transient rescue stage. The first trial
    /// point of the line search (the full step) is assembled with its
    /// Jacobian, which seeds the next iteration when the step is
    /// accepted. Every backtracked trial assembles `F` only: most are
    /// rejected, and an accepted one has its Jacobian assembled at the
    /// top of the next iteration — unless that iterate has already
    /// converged. Assembly is a pure function of `x`, so the iterates
    /// are bitwise those of assembling every trial in full.
    ///
    /// The Armijo condition is measured along the step actually taken:
    /// `step_scale` is the product of the limiter's scale and, in a
    /// rescue stage, the [`PTC_STEP_CAP`] scale, and a trial `α` is
    /// accepted when `‖F‖∞ ≤ ‖F₀‖∞·(1 − c₁·α·step_scale)` — the
    /// directional derivative of `‖F‖∞` along the scaled Newton step
    /// is `−step_scale·‖F₀‖∞`, so an unscaled test would ask a clamped
    /// step for more decrease than even an exact linear model delivers.
    /// A step neither scale touches multiplies by exactly 1.0 and keeps
    /// the historical rule bit for bit. When no damping step satisfies
    /// the condition the smallest step is adopted as-is (Newton may
    /// still escape a shallow plateau) and counted in
    /// [`EngineCounters::armijo_exhaustions`].
    ///
    /// Every solve detects stalls: **non-monotone stagnation** —
    /// [`STALL_WINDOW`] consecutive accepted iterates whose residual
    /// norm changes by less than [`STALL_RTOL`] relatively, at least
    /// one of them an *increase* — exits [`LoopExit::Failed`] rather
    /// than burning the rest of the budget. This catches the practical
    /// limit cycle that oscillates between two points with a slow
    /// last-bit drift; the increase requirement keeps a slowly
    /// *converging* crawl (monotone decrease) from ever tripping it.
    ///
    /// A `rescue` stage also caps each step at [`PTC_STEP_CAP`]; its
    /// first stall ends it, as it ends the plain solve.
    fn run_newton_loop(
        &mut self,
        circuit: &Circuit,
        x: &mut [f64],
        mode: &AnalysisMode,
        gmin: f64,
        ptc: Option<&PtcTerm<'_>>,
        rescue: bool,
    ) -> Result<LoopExit, CircuitError> {
        let n = x.len();
        self.assemble_into(circuit, x, mode, gmin, ptc, true);
        let mut fnorm = inf_norm(&self.residual);
        let mut neg_f = vec![0.0; n];
        let mut trial = vec![0.0; n];
        let max_iter = self.opts.max_iter;
        let mut stagnant = 0usize;
        let mut saw_increase = false;
        let mut prev_fnorm = fnorm;
        // Set when the accepted trial was assembled residual-only.
        let mut jacobian_stale = false;
        for it in 0..max_iter {
            self.check_cancel()?;
            if self.converged(circuit) {
                return Ok(LoopExit::Converged(it));
            }
            if jacobian_stale {
                self.assemble_into(circuit, x, mode, gmin, ptc, true);
            }
            let mut dx = {
                for (nf, f) in neg_f.iter_mut().zip(&self.residual) {
                    *nf = -f;
                }
                let cache = self.caches[self.active].as_mut().expect("assembled above");
                let a = cache.asm.matrix().expect("assembled above");
                // Diff the assembled values against the last successful
                // factorization and replay only the affected columns.
                // Slots holding bitwise-equal values need no recompute,
                // so the partial path is exact, not approximate.
                let use_partial = self.opts.partial_refactor
                    && cache.prev_valid
                    && cache.prev_values.len() == a.values().len();
                let factored = if use_partial {
                    cache.changed.clear();
                    let pairs = a.values().iter().zip(&cache.prev_values);
                    for (slot, (new, old)) in pairs.enumerate() {
                        if new.to_bits() != old.to_bits() {
                            cache.changed.push(slot);
                        }
                    }
                    cache
                        .solver
                        .factor_partial(a.pattern(), a.values(), &cache.changed)
                } else {
                    cache.solver.factor(a.pattern(), a.values())
                };
                let path = cache.solver.factor_path_stats();
                self.counters += EngineCounters::from(path.delta_since(&cache.last_path));
                cache.last_path = path;
                match factored {
                    Ok(()) => {
                        cache.prev_values.clear();
                        cache.prev_values.extend_from_slice(a.values());
                        cache.prev_valid = true;
                    }
                    Err(e) => {
                        cache.prev_valid = false;
                        return Err(CircuitError::SingularSystem(format!("{e}")));
                    }
                }
                self.counters.factorizations += 1;
                self.counters.factor_ops += cache.solver.factor_ops();
                cache
                    .solver
                    .solve_factored(&neg_f)
                    .map_err(|e| CircuitError::SingularSystem(format!("{e}")))?
            };
            // The product of every scale applied to the Newton step
            // below: exactly 1.0 when neither the limiter nor the
            // rescue cap fires.
            let mut step_scale = 1.0f64;
            // Per-device voltage limiting: each element may cap its own
            // controlling-voltage swing; the tightest cap scales the
            // whole step so the direction is preserved. A step within
            // every device's limits passes through bitwise-untouched.
            if self.opts.limiting {
                let mut scale = 1.0f64;
                {
                    let cache = self.caches[self.active].as_ref().expect("assembled above");
                    for (e, &base) in circuit.elements().iter().zip(&cache.bases) {
                        if let Some(s) = e.limit_step(x, &dx, base) {
                            if s < scale {
                                scale = s;
                            }
                        }
                    }
                }
                if scale < 1.0 {
                    for d in dx.iter_mut() {
                        *d *= scale;
                    }
                    step_scale = scale;
                    self.counters.limiter_clamps += 1;
                }
            }
            // Rescue stages additionally cap the raw step size: the
            // pathologies being rescued (overshoot oscillations,
            // near-degenerate subthreshold rows proposing volts-sized
            // moves) both yield to a bounded walk toward the balance
            // point instead of a bounce across it.
            if rescue {
                let mx = inf_norm(&dx);
                if mx > PTC_STEP_CAP {
                    let s = PTC_STEP_CAP / mx;
                    for d in dx.iter_mut() {
                        *d *= s;
                    }
                    step_scale *= s;
                }
            }
            // Armijo line search: halve the step until the residual
            // satisfies the sufficient-decrease condition along the
            // scaled step; adopt the final (smallest) trial
            // unconditionally.
            let mut alpha = 1.0;
            for h in 0..=MAX_STEP_HALVINGS {
                for ((t, &xi), &di) in trial.iter_mut().zip(x.iter()).zip(&dx) {
                    *t = xi + alpha * di;
                }
                let full = h == 0;
                self.assemble_into(circuit, &trial, mode, gmin, ptc, full);
                let tnorm = inf_norm(&self.residual);
                let improved =
                    tnorm <= fnorm * (1.0 - ARMIJO_C1 * alpha * step_scale) || tnorm < 1e-18;
                if improved || h == MAX_STEP_HALVINGS {
                    if !improved {
                        self.counters.armijo_exhaustions += 1;
                    }
                    x.copy_from_slice(&trial);
                    fnorm = tnorm;
                    jacobian_stale = !full;
                    break;
                }
                alpha *= 0.5;
                self.counters.armijo_backtracks += 1;
            }
            if (fnorm - prev_fnorm).abs() <= STALL_RTOL * prev_fnorm {
                stagnant += 1;
                saw_increase |= fnorm > prev_fnorm;
                if stagnant >= STALL_WINDOW && saw_increase {
                    return Ok(LoopExit::Failed(it + 1));
                }
            } else {
                stagnant = 0;
                saw_increase = false;
            }
            prev_fnorm = fnorm;
        }
        if self.converged(circuit) {
            return Ok(LoopExit::Converged(max_iter));
        }
        Ok(LoopExit::Failed(max_iter))
    }

    /// Runs one Newton solve from `x0` at the given analysis mode,
    /// climbing the robustness ladder as needed: full Newton
    /// steps → per-device voltage limiting → Armijo backtracking → (once
    /// the plain iteration stalls or exhausts its budget) the rescue:
    /// pseudo-transient continuation, then gmin stepping. A solve that
    /// converges without the rescue, and whose limiter-clamped steps
    /// (if any) never backtrack, reproduces the historical
    /// floating-point stream bit-for-bit. A clamped step that
    /// backtracks changes it on purpose: the line search measures
    /// decrease along the clamped step and can accept a longer trial
    /// than the historical rule. The post-mortem of every solve is
    /// retrievable via [`NewtonEngine::last_report`].
    ///
    /// # Errors
    ///
    /// [`CircuitError::SingularSystem`] when the Jacobian cannot be
    /// factored, [`CircuitError::NoConvergence`] (carrying a
    /// [`ConvergenceReport`]) when the whole ladder fails,
    /// [`CircuitError::Cancelled`] when the installed cancellation flag
    /// is raised mid-iteration.
    pub fn newton(
        &mut self,
        circuit: &Circuit,
        x0: &[f64],
        mode: &AnalysisMode,
    ) -> Result<(Vec<f64>, usize), CircuitError> {
        let n = circuit.unknown_count();
        if n == 0 {
            return Ok((Vec::new(), 0));
        }
        let started = self.counters();
        let mut x = x0.to_vec();
        let mut ptc_used = false;
        let solved: Result<usize, CircuitError> =
            match self.run_newton_loop(circuit, &mut x, mode, 0.0, None, false) {
                Ok(LoopExit::Converged(it)) => Ok(it),
                // A stall escalates early; a burnt-out budget escalates
                // late. Either way the plain iteration has failed —
                // historically a hard error — so the rescue can only
                // fix decks, never perturb converging ones.
                Ok(LoopExit::Failed(it)) => {
                    ptc_used = true;
                    self.rescue(circuit, &mut x, x0, mode, it)
                }
                Err(e) => Err(e),
            };
        let counters = self.counters().delta_since(&started);
        let strategy = if ptc_used {
            NewtonStrategy::Ptc
        } else if counters.armijo_backtracks > 0 {
            NewtonStrategy::Damped
        } else if counters.limiter_clamps > 0 {
            NewtonStrategy::Limited
        } else {
            NewtonStrategy::Newton
        };
        let worst = self
            .residual
            .iter()
            .enumerate()
            .max_by(|a, b| {
                a.1.abs()
                    .partial_cmp(&b.1.abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map_or(0, |(i, _)| i);
        let iterations = match &solved {
            Ok(it) => *it,
            Err(CircuitError::NoConvergence { iterations, .. }) => *iterations,
            Err(_) => self.opts.max_iter,
        };
        let report = ConvergenceReport {
            strategy,
            iterations,
            residual: inf_norm(&self.residual),
            worst_unknown: String::new(),
            counters,
        };
        self.last_solve = Some((report, worst));
        match solved {
            Ok(it) => Ok((x, it)),
            Err(CircuitError::NoConvergence {
                iterations,
                residual,
                ..
            }) => {
                let report = Box::new(self.last_report(circuit).unwrap_or_default());
                Err(CircuitError::NoConvergence {
                    iterations,
                    residual,
                    report,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// The per-row dynamic (charge/companion) loading at `x`: how
    /// strongly each unknown is damped by the integration stamp. At DC
    /// every unknown is algebraic (zero load everywhere); in transient
    /// mode it is the absolute difference between the transient and DC
    /// Jacobian diagonals at the same point — exactly the `C·a0`
    /// companion conductance for capacitive rows, and ~0 for the
    /// (nearly) algebraic rows the pseudo-transient rescue targets.
    fn dynamic_load(&mut self, circuit: &Circuit, x: &[f64], mode: &AnalysisMode) -> Vec<f64> {
        let n = circuit.unknown_count();
        if matches!(mode, AnalysisMode::Dc) {
            return vec![0.0; n];
        }
        self.assemble_into(circuit, x, mode, 0.0, None, true);
        let diag_t: Vec<f64> = {
            let m = self
                .cache()
                .and_then(|c| c.asm.matrix())
                .expect("assembly finished");
            (0..n).map(|i| m.get(i, i)).collect()
        };
        self.assemble_into(circuit, x, &AnalysisMode::Dc, 0.0, None, true);
        let diag_dc: Vec<f64> = {
            let m = self
                .cache()
                .and_then(|c| c.asm.matrix())
                .expect("assembly finished");
            (0..n).map(|i| m.get(i, i)).collect()
        };
        diag_t
            .iter()
            .zip(&diag_dc)
            .map(|(t, d)| (t - d).abs())
            .collect()
    }

    /// The two-stage rescue behind a failed plain solve: pseudo-
    /// transient continuation first, and — should the PTC ramp itself
    /// fail — gmin stepping restarted from the solve's entry point
    /// `x0`. Both only ever run on solves that were already lost, so
    /// converging decks never see them.
    fn rescue(
        &mut self,
        circuit: &Circuit,
        x: &mut [f64],
        x0: &[f64],
        mode: &AnalysisMode,
        iters_used: usize,
    ) -> Result<usize, CircuitError> {
        match self.ptc_rescue(circuit, x, mode, iters_used) {
            Err(CircuitError::NoConvergence { iterations, .. }) => {
                x.copy_from_slice(x0);
                self.gmin_rescue(circuit, x, mode, iterations)
            }
            other => other,
        }
    }

    /// Gmin stepping, the final rescue rung: solves the system with a
    /// strong conductance to ground on every node diagonal (through
    /// the reserved gmin slots, so no re-pattern) and ramps it down
    /// geometrically to `GMIN_STEP_FLOOR`, warm-starting each stage
    /// from the previous stage's solution. Unlike the PTC term, which
    /// anchors at the current (possibly poisoned) iterate, the gmin
    /// ladder anchors every node toward ground — exactly what carries
    /// subthreshold leakage dividers (series stacks that just switched
    /// off) whose rows are too weak for Newton from any distant point.
    ///
    /// The ramp is adaptive: a stage that fails restores the last
    /// converged stage's solution and retries with a gentler factor
    /// (square root of the current one), so an exponential row whose
    /// solution moves too far per decade gets as many intermediate
    /// rungs as it needs. Each converged stage counts toward
    /// `ptc_steps` — both rungs are continuation methods and report as
    /// one.
    fn gmin_rescue(
        &mut self,
        circuit: &Circuit,
        x: &mut [f64],
        mode: &AnalysisMode,
        iters_used: usize,
    ) -> Result<usize, CircuitError> {
        let mut total = iters_used;
        let mut g = GMIN_STEP_START;
        let mut factor = GMIN_STEP_FACTOR;
        // Last converged rung: (conductance, solution).
        let mut good: Option<(f64, Vec<f64>)> = None;
        for _stage in 0..GMIN_MAX_STAGES {
            let exit = self.run_newton_loop(circuit, x, mode, g, None, true)?;
            match exit {
                LoopExit::Converged(it) => {
                    total += it;
                    self.counters.ptc_steps += 1;
                    if g <= GMIN_STEP_FLOOR {
                        break;
                    }
                    good = Some((g, x.to_vec()));
                    g = (g * factor).max(GMIN_STEP_FLOOR);
                }
                LoopExit::Failed(it) => {
                    total += it;
                    // Back off: restore the last good rung and descend
                    // more gently from there. With no good rung yet, or
                    // a factor already near 1, the ladder has nothing
                    // left to try.
                    factor = factor.sqrt();
                    match &good {
                        Some((gg, gx)) if factor < GMIN_FACTOR_GIVEUP => {
                            x.copy_from_slice(gx);
                            g = (gg * factor).max(GMIN_STEP_FLOOR);
                        }
                        _ => {
                            return Err(CircuitError::NoConvergence {
                                iterations: total,
                                residual: inf_norm(&self.residual),
                                report: Box::default(),
                            });
                        }
                    }
                }
            }
        }
        // Final stage without the leak: a success here is a true
        // solution of the original system.
        match self.run_newton_loop(circuit, x, mode, 0.0, None, true)? {
            LoopExit::Converged(it) => {
                total += it;
                self.counters.ptc_steps += 1;
                Ok(total)
            }
            _ => Err(CircuitError::NoConvergence {
                iterations: total,
                residual: inf_norm(&self.residual),
                report: Box::default(),
            }),
        }
    }

    /// Pseudo-transient continuation: called only after the plain
    /// damped iteration stalled (stagnation window) or exhausted its
    /// budget. Adds a `C/dt`-like regularization
    /// `g·(x − x_anchor)` to every weakly-loaded (nearly algebraic)
    /// node row — the rows that lack the damping a real capacitor
    /// would provide — re-anchoring at each converged stage and
    /// shrinking `g` by the true residual's progress ratio (switched
    /// evolution/relaxation, forced into `[÷100, ÷10]` per stage so the
    /// ramp can neither stall nor collapse). A stage that fails
    /// restores its anchor and stiffens `g` instead. The rescue
    /// succeeds the moment the *unregularized* system meets the same
    /// per-row tolerances plain Newton stops at, so a success is a
    /// true solution.
    fn ptc_rescue(
        &mut self,
        circuit: &Circuit,
        x: &mut [f64],
        mode: &AnalysisMode,
        iters_used: usize,
    ) -> Result<usize, CircuitError> {
        let load = self.dynamic_load(circuit, x, mode);
        // Only node (KCL) rows are regularized: `g` is a conductance,
        // commensurate with current-balance rows. Element rows (source
        // constraints in volts, CNFET charge balances in C/m) live on
        // completely different scales — a Siemens-sized `g·(x − anchor)`
        // term would dwarf their natural residuals and make their
        // tolerances unreachable.
        let nodes = circuit.node_count();
        let mask: Vec<bool> = load
            .iter()
            .enumerate()
            .map(|(i, &l)| i < nodes && l < PTC_G0)
            .collect();
        let mut g = PTC_G0;
        let mut total = iters_used;
        // Switched evolution/relaxation: after each converged stage the
        // stiffness shrinks in proportion to the true residual's
        // progress, so the ramp crawls while the hard region is being
        // crossed and accelerates once the iterate closes in on the
        // solution. A failed stage restores its anchor and stiffens.
        self.assemble_into(circuit, x, mode, 0.0, None, true);
        let mut fprev = inf_norm(&self.residual);
        // See-saw bound: failed stages that never improve on the best
        // true residual seen are counted; past PTC_MAX_STIFFENS the
        // rescue yields to gmin stepping rather than thrash.
        let mut fbest = fprev;
        let mut stiffens = 0usize;
        for _stage in 0..PTC_MAX_STAGES {
            let anchor = x.to_vec();
            let exit = {
                let term = PtcTerm {
                    g,
                    anchor: &anchor,
                    mask: &mask,
                };
                self.run_newton_loop(circuit, x, mode, 0.0, Some(&term), true)
            };
            let spent = match exit {
                Ok(LoopExit::Converged(it)) => {
                    total += it;
                    self.counters.ptc_steps += 1;
                    // The stage solved the *regularized* system; accept
                    // as soon as the true system meets the same per-row
                    // tolerances plain Newton stops at.
                    self.assemble_into(circuit, x, mode, 0.0, None, true);
                    if self.converged(circuit) {
                        return Ok(total);
                    }
                    let fnow = inf_norm(&self.residual);
                    if fnow < fbest {
                        fbest = fnow;
                        stiffens = 0;
                    }
                    let ratio = if fprev > 0.0 { fnow / fprev } else { 0.1 };
                    g *= ratio.clamp(1e-2, 1e-1);
                    fprev = fnow;
                    continue;
                }
                Ok(LoopExit::Failed(it)) => it,
                // A stage stiff enough to go singular is abandoned, not
                // fatal: restore and stiffen like any failure.
                Err(CircuitError::SingularSystem(_)) => 0,
                Err(e) => return Err(e),
            };
            // A failed stage: restore its anchor and stiffen.
            total += spent;
            x.copy_from_slice(&anchor);
            stiffens += 1;
            if g >= 1.0 || stiffens > PTC_MAX_STIFFENS {
                break;
            }
            g = (g * 1e2).min(1.0);
        }
        Err(CircuitError::NoConvergence {
            iterations: total,
            residual: inf_norm(&self.residual),
            report: Box::default(),
        })
    }

    /// Verifies that the DC MNA system is structurally nonsingular:
    /// assembles the Jacobian once at `x = 0` with gmin 0 and runs a
    /// maximum bipartite matching on its nonzero entries
    /// ([`cntfet_numerics::sparse::structural_rank`]). A perfect
    /// matching proves *some* value assignment makes the matrix
    /// invertible; a deficient one means no values ever can — the
    /// classic floating-node / capacitor-isolated-subnet mistakes — and
    /// the check reports exactly which unknowns are undeterminable, by
    /// name, before any factorisation runs.
    ///
    /// The verdict is cached per pattern build (`struct_ok`), so sweeps
    /// and warm-started solves pay for the matching once; failures are
    /// re-checked so the error stays reproducible.
    ///
    /// # Errors
    ///
    /// [`CircuitError::StructurallySingular`] with the names of the
    /// unmatched unknowns.
    pub fn check_dc_structure(&mut self, circuit: &Circuit) -> Result<(), CircuitError> {
        let n = circuit.unknown_count();
        if n == 0 {
            return Ok(());
        }
        self.ensure_cache(circuit, false);
        if self.caches[self.active]
            .as_ref()
            .is_some_and(|c| c.struct_ok)
        {
            return Ok(());
        }
        let x0 = vec![0.0; n];
        self.assemble_into(circuit, &x0, &AnalysisMode::Dc, 0.0, None, true);
        let cache = self.caches[self.active].as_mut().expect("assembled above");
        let rank = structural_rank(cache.asm.matrix().expect("assembly finished"));
        if rank.is_full() {
            cache.struct_ok = true;
            return Ok(());
        }
        let nodes = rank
            .unmatched_cols
            .iter()
            .map(|&col| unknown_name(circuit, &cache.bases, col))
            .collect();
        Err(CircuitError::StructurallySingular { nodes })
    }

    /// Solves the DC operating point: the structural check, then one
    /// [`NewtonEngine::newton`] solve from `initial` (or zeros), whose
    /// ladder already ends in adaptive gmin stepping — all on the
    /// engine's cached pattern and solver.
    ///
    /// # Errors
    ///
    /// [`CircuitError::StructurallySingular`] (before any
    /// factorisation) when the MNA pattern cannot have full rank for
    /// any element values — see
    /// [`NewtonEngine::check_dc_structure`];
    /// [`CircuitError::NoConvergence`] if the whole ladder fails; or
    /// [`CircuitError::SingularSystem`] for systems that are
    /// structurally fine but numerically singular (e.g. a loop of
    /// ideal voltage sources whose constraints conflict).
    pub fn dc_operating_point(
        &mut self,
        circuit: &Circuit,
        initial: Option<&[f64]>,
    ) -> Result<Solution, CircuitError> {
        self.check_dc_structure(circuit)?;
        let x0 = initial.map_or_else(|| vec![0.0; circuit.unknown_count()], <[f64]>::to_vec);
        let (x, iterations) = self.newton(circuit, &x0, &AnalysisMode::Dc)?;
        Ok(Solution { x, iterations })
    }
}

/// Human-readable name of MNA unknown `col`: the node name for voltage
/// unknowns, `i(NAME)` for source branch currents and `internal(NAME)`
/// for other element extra variables (the CNFET inner charge node).
fn unknown_name(circuit: &Circuit, bases: &[usize], col: usize) -> String {
    let nodes = circuit.node_count();
    if col < nodes {
        return circuit
            .node_names()
            .into_iter()
            .find(|(_, id)| id.unknown_index() == Some(col))
            .map(|(name, _)| name)
            .unwrap_or_else(|| format!("node #{}", col + 1));
    }
    for (e, &base) in circuit.elements().iter().zip(bases) {
        let extra = e.extra_vars();
        if extra > 0 && (base..base + extra).contains(&col) {
            return if e.is_source() {
                format!("i({})", e.name())
            } else {
                format!("internal({})", e.name())
            };
        }
    }
    format!("unknown #{col}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Resistor, VoltageSource};
    use crate::netlist::Circuit;

    fn divider() -> (Circuit, crate::netlist::NodeId) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add(VoltageSource::dc("V1", vin, Circuit::ground(), 2.0));
        c.add(Resistor::new("R1", vin, out, 1e3));
        c.add(Resistor::new("R2", out, Circuit::ground(), 3e3));
        (c, out)
    }

    #[test]
    fn dense_and_sparse_agree_on_divider() {
        // The engine's sparse solve of the divider equals the dense
        // reference LU's solve of the same assembled Newton step.
        use cntfet_numerics::sparse::DenseLuSolver;
        let (c, out) = divider();
        let mut engine = NewtonEngine::new(NewtonOptions::default());
        let sol = engine.dc_operating_point(&c, None).unwrap();
        assert!((sol.voltage(out) - 1.5).abs() < 1e-9);
        let x0 = vec![0.0; c.unknown_count()];
        let (f, j) = engine.assemble(&c, &x0, &AnalysisMode::Dc, 0.0);
        let neg_f: Vec<f64> = f.iter().map(|v| -v).collect();
        let dx = DenseLuSolver::new().solve(j, &neg_f).unwrap();
        // The divider is linear: one Newton step from 0 is the answer.
        assert!((dx[1] - sol.voltage(out)).abs() < 1e-12);
    }

    #[test]
    fn pattern_is_cached_across_solves_and_rebuilt_on_growth() {
        let (mut c, out) = divider();
        let mut engine = NewtonEngine::new(NewtonOptions::default());
        engine.dc_operating_point(&c, None).unwrap();
        assert_eq!(engine.pattern_builds(), 1);
        engine.dc_operating_point(&c, None).unwrap();
        assert_eq!(engine.pattern_builds(), 1, "unchanged circuit reuses it");
        // Value updates do not change structure.
        assert!(c.set_source_value("V1", 3.0));
        engine.dc_operating_point(&c, None).unwrap();
        assert_eq!(engine.pattern_builds(), 1);
        // Growing the circuit must rebuild the pattern.
        c.add(Resistor::new("R3", out, Circuit::ground(), 10e3));
        let sol = engine.dc_operating_point(&c, None).unwrap();
        assert_eq!(engine.pattern_builds(), 2, "new element rebuilds pattern");
        // 3 V over 1k into 3k ∥ 10k.
        let rp = 1.0 / (1.0 / 3e3 + 1.0 / 10e3);
        assert!((sol.voltage(out) - 3.0 * rp / (1e3 + rp)).abs() < 1e-9);
    }

    #[test]
    fn engine_reused_across_different_circuits_rebuilds_cache() {
        // Two circuits with identical revision counters (2 node
        // creations + 3 element adds each), identical unknown counts
        // and identical extra-var bases, but different wiring and
        // therefore different sparsity patterns: only the circuit
        // identity in the cache key tells them apart.
        let build_divider = || {
            let mut c = Circuit::new();
            let a = c.node("a");
            let b = c.node("b");
            c.add(VoltageSource::dc("V1", a, Circuit::ground(), 2.0));
            c.add(Resistor::new("R1", a, b, 1e3));
            c.add(Resistor::new("R2", b, Circuit::ground(), 1e3));
            (c, b)
        };
        let build_floating_source = || {
            let mut c = Circuit::new();
            let a = c.node("a");
            let b = c.node("b");
            c.add(VoltageSource::dc("V1", a, b, 2.0));
            c.add(Resistor::new("R1", a, Circuit::ground(), 1e3));
            c.add(Resistor::new("R2", b, Circuit::ground(), 1e3));
            (c, a)
        };
        let (ca, out_a) = build_divider();
        let (cb, out_b) = build_floating_source();
        assert_eq!(ca.revision(), cb.revision());
        assert_eq!(ca.unknown_count(), cb.unknown_count());
        let mut engine = NewtonEngine::new(NewtonOptions::default());
        let sa = engine.dc_operating_point(&ca, None).unwrap();
        // Without id-keying this solve would reuse A's pattern and the
        // (extra, b) constraint entry of B's floating source would miss.
        let sb = engine.dc_operating_point(&cb, None).unwrap();
        assert!((sa.voltage(out_a) - 1.0).abs() < 1e-9);
        // Floating 2 V source over two equal resistors to ground: ±1 V.
        assert!((sb.voltage(out_b) - 1.0).abs() < 1e-9);
        assert_eq!(engine.pattern_builds(), 2);
        // And back again: structure of A must be re-recorded, not
        // misread from B's cache.
        let sa2 = engine.dc_operating_point(&ca, None).unwrap();
        assert!((sa2.voltage(out_a) - 1.0).abs() < 1e-9);
        assert_eq!(engine.pattern_builds(), 3);
    }

    #[test]
    fn dc_and_transient_kinds_cache_independently() {
        use crate::element::{AnalysisMode, Capacitor, TransientStamp};
        let (mut c, out) = divider();
        c.add(Capacitor::new("C1", out, Circuit::ground(), 1e-9));
        let n = c.unknown_count();
        let mut engine = NewtonEngine::new(NewtonOptions::default());
        let tran = |t: f64| {
            AnalysisMode::Transient(TransientStamp {
                t,
                a0: 1e9,
                hist: vec![0.0; n],
            })
        };
        engine.dc_operating_point(&c, None).unwrap();
        assert_eq!(engine.pattern_builds(), 1);
        let x = vec![0.0; n];
        engine.newton(&c, &x, &tran(1e-9)).unwrap();
        assert_eq!(engine.pattern_builds(), 2, "transient kind builds its own");
        // Alternating kinds reuses both slots: no further builds.
        engine.dc_operating_point(&c, None).unwrap();
        engine.newton(&c, &x, &tran(2e-9)).unwrap();
        engine.dc_operating_point(&c, None).unwrap();
        assert_eq!(engine.pattern_builds(), 2, "kind switches must not thrash");
    }

    #[test]
    fn capacitor_isolated_node_is_structurally_singular() {
        use crate::element::Capacitor;
        // V1 drives "in"; "mid" hangs behind a capacitor with no DC
        // path to ground — its KCL row and voltage column are both
        // empty at DC, a textbook structurally singular system.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        c.add(VoltageSource::dc("V1", vin, Circuit::ground(), 1.0));
        c.add(Resistor::new("R1", vin, Circuit::ground(), 1e3));
        c.add(Capacitor::new("C1", vin, mid, 1e-12));
        let mut engine = NewtonEngine::new(NewtonOptions::default());
        let err = engine.dc_operating_point(&c, None).unwrap_err();
        match err {
            CircuitError::StructurallySingular { nodes } => {
                assert_eq!(nodes, vec!["mid".to_string()]);
            }
            other => panic!("expected StructurallySingular, got {other:?}"),
        }
        // The check is re-run (and still fails) on a repeated solve.
        assert!(matches!(
            engine.dc_operating_point(&c, None),
            Err(CircuitError::StructurallySingular { .. })
        ));
    }

    #[test]
    fn current_source_cutset_is_structurally_singular() {
        use crate::element::CurrentSource;
        // A current source feeding a node with no other connection:
        // the node voltage appears in no equation.
        let mut c = Circuit::new();
        let top = c.node("top");
        c.add(CurrentSource::dc("I1", top, Circuit::ground(), 1e-3));
        let mut engine = NewtonEngine::new(NewtonOptions::default());
        let err = engine.dc_operating_point(&c, None).unwrap_err();
        match err {
            CircuitError::StructurallySingular { nodes } => {
                assert_eq!(nodes, vec!["top".to_string()]);
            }
            other => panic!("expected StructurallySingular, got {other:?}"),
        }
    }

    #[test]
    fn structural_check_does_not_add_pattern_builds_or_break_solves() {
        let (c, out) = divider();
        let mut engine = NewtonEngine::new(NewtonOptions::default());
        let sol = engine.dc_operating_point(&c, None).unwrap();
        assert!((sol.voltage(out) - 1.5).abs() < 1e-9);
        assert_eq!(engine.pattern_builds(), 1, "check shares the DC cache");
        engine.dc_operating_point(&c, None).unwrap();
        assert_eq!(engine.pattern_builds(), 1);
    }

    #[test]
    fn parallel_voltage_sources_fail_before_any_lu() {
        // Two ideal sources across the same node pair: both branch
        // currents stamp the same constraint rows/columns, leaving one
        // current column unmatchable — caught structurally, without a
        // factorisation.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(VoltageSource::dc("V1", a, Circuit::ground(), 1.0));
        c.add(VoltageSource::dc("V2", a, Circuit::ground(), 2.0));
        c.add(Resistor::new("R1", a, Circuit::ground(), 1e3));
        let mut engine = NewtonEngine::new(NewtonOptions::default());
        let err = engine.dc_operating_point(&c, None).unwrap_err();
        match err {
            CircuitError::StructurallySingular { nodes } => {
                assert_eq!(nodes.len(), 1, "{nodes:?}");
                assert!(nodes[0].starts_with("i(V"), "{nodes:?}");
            }
            other => panic!("expected StructurallySingular, got {other:?}"),
        }
        assert_eq!(engine.counters().factorizations, 0, "failed before any LU");
    }

    #[test]
    fn empty_circuit_is_trivial() {
        let c = Circuit::new();
        let mut engine = NewtonEngine::new(NewtonOptions::default());
        let sol = engine.dc_operating_point(&c, None).unwrap();
        assert!(sol.x.is_empty());
    }

    /// A resistor ladder long enough for the sparse solver.
    fn sparse_ladder() -> Circuit {
        let mut c = Circuit::new();
        let top = c.node("top");
        c.add(VoltageSource::dc("V1", top, Circuit::ground(), 1.0));
        let mut prev = top;
        for i in 0..40 {
            let nxt = c.node(&format!("n{i}"));
            c.add(Resistor::new(&format!("R{i}"), prev, nxt, 1e3));
            prev = nxt;
        }
        c.add(Resistor::new("Rend", prev, Circuit::ground(), 1e3));
        c
    }

    #[test]
    fn counters_support_per_analysis_deltas() {
        // The cumulative counters never reset; per-analysis numbers come
        // from baseline + delta_since, and must isolate each solve.
        let mut c = sparse_ladder();
        let mut engine = NewtonEngine::new(NewtonOptions::default());
        engine.dc_operating_point(&c, None).unwrap();
        let after_first = engine.counters();
        assert!(after_first.factorizations > 0);
        assert!(after_first.device_evals == 0, "linear elements never eval");
        assert!(c.set_source_value("V1", 2.0));
        engine.dc_operating_point(&c, None).unwrap();
        let after_second = engine.counters();
        let delta = after_second.delta_since(&after_first);
        // Cumulative keeps growing; the delta sees only the second solve.
        assert!(after_second.factorizations > after_first.factorizations);
        assert_eq!(
            delta.factorizations,
            after_second.factorizations - after_first.factorizations
        );
        assert!(delta.symbolic_factorizations == 0, "pattern was reused");
        // Self-delta is zero: nothing ran in between.
        let zero = after_second.delta_since(&after_second);
        assert_eq!(zero, EngineCounters::default());
    }

    #[test]
    fn source_value_change_takes_the_partial_path() {
        // A source-level change touches only the RHS of a linear
        // circuit: the Jacobian values are bitwise-unchanged, so the
        // diff finds zero changed slots and the partial refactorization
        // recomputes zero columns while still solving correctly.
        let mut c = sparse_ladder();
        let mut engine = NewtonEngine::new(NewtonOptions::default());
        engine.dc_operating_point(&c, None).unwrap();
        let base = engine.counters();
        assert_eq!(base.partial_refactorizations, 0, "first solve is full");
        assert!(c.set_source_value("V1", 2.0));
        let sol = engine.dc_operating_point(&c, None).unwrap();
        let delta = engine.counters().delta_since(&base);
        assert!(delta.partial_refactorizations > 0);
        assert_eq!(delta.columns_recomputed, 0, "no Jacobian slot changed");
        assert!(delta.columns_total > 0);
        let mid = c.find_node("n19").unwrap();
        assert!((sol.voltage(mid) - 2.0 * 21.0 / 41.0).abs() < 1e-9);
    }

    #[test]
    fn partial_refactor_off_replays_in_full() {
        let mut c = sparse_ladder();
        let mut engine = NewtonEngine::new(NewtonOptions {
            partial_refactor: false,
            ..NewtonOptions::default()
        });
        engine.dc_operating_point(&c, None).unwrap();
        assert!(c.set_source_value("V1", 2.0));
        engine.dc_operating_point(&c, None).unwrap();
        let total = engine.counters();
        assert_eq!(total.partial_refactorizations, 0);
        assert_eq!(total.columns_recomputed, total.columns_total);
    }

    #[test]
    fn rebind_carries_symbolic_work_to_an_identical_circuit() {
        // Two independently built ladders: same wiring, different ids.
        let c1 = sparse_ladder();
        let mut c2 = sparse_ladder();
        assert!(c2.set_source_value("V1", 2.0));
        assert_ne!(c1.id(), c2.id());
        let mut engine = NewtonEngine::new(NewtonOptions::default());
        engine.dc_operating_point(&c1, None).unwrap();
        assert_eq!(engine.pattern_builds(), 1);
        let before = engine.counters();
        engine.rebind(&c2);
        assert!(engine.is_warm());
        let sol = engine.dc_operating_point(&c2, None).unwrap();
        let delta = engine.counters().delta_since(&before);
        assert_eq!(engine.pattern_builds(), 1, "rebind must not repattern");
        assert_eq!(delta.symbolic_factorizations, 0, "pivot plan was replayed");
        let mid = c2.find_node("n19").unwrap();
        assert!((sol.voltage(mid) - 2.0 * 21.0 / 41.0).abs() < 1e-9);
    }

    #[test]
    fn rebind_drops_incompatible_caches() {
        let c1 = sparse_ladder();
        let (c2, out) = divider();
        let mut engine = NewtonEngine::new(NewtonOptions::default());
        engine.dc_operating_point(&c1, None).unwrap();
        engine.rebind(&c2);
        assert!(!engine.is_warm(), "different unknown count drops the slot");
        let sol = engine.dc_operating_point(&c2, None).unwrap();
        assert!((sol.voltage(out) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn raised_cancel_flag_aborts_newton() {
        use std::sync::atomic::AtomicBool;
        let (c, _) = divider();
        let mut engine = NewtonEngine::new(NewtonOptions::default());
        let flag = Arc::new(AtomicBool::new(true));
        engine.set_cancel(Some(Arc::clone(&flag)));
        assert!(matches!(
            engine.dc_operating_point(&c, None),
            Err(CircuitError::Cancelled)
        ));
        // Lowering the flag makes the same engine usable again.
        flag.store(false, Ordering::Relaxed);
        engine.dc_operating_point(&c, None).unwrap();
        // And clearing the token removes the poll entirely.
        engine.set_cancel(None);
        assert!(!engine.cancel_requested());
        engine.dc_operating_point(&c, None).unwrap();
    }

    #[test]
    fn small_systems_refactor_partially_too() {
        let (mut c, _) = divider();
        let mut engine = NewtonEngine::new(NewtonOptions::default());
        engine.dc_operating_point(&c, None).unwrap();
        assert!(c.set_source_value("V1", 3.0));
        engine.dc_operating_point(&c, None).unwrap();
        let total = engine.counters();
        assert_eq!(total.symbolic_factorizations, 1);
        assert!(total.partial_refactorizations > 0);
    }

    #[test]
    fn structural_diagonal_is_reserved_on_node_rows_only() {
        // Every node row gets its (i, i) slot from the engine and every
        // CNFET Σ row from the device's own stamp; a voltage source's
        // branch (constraint) row has no diagonal in either kind's
        // pattern.
        use crate::element::TransientStamp;
        let c = mixed_netlist(1, &[1e3, 1e3], 0.8, 0.0);
        let x = vec![0.0; c.unknown_count()];
        let tran = AnalysisMode::Transient(TransientStamp::backward_euler(1e-11, 1e-11, &x));
        let mut engine = NewtonEngine::new(NewtonOptions::default());
        for mode in [AnalysisMode::Dc, tran] {
            let (_, j) = engine.assemble(&c, &x, &mode, 0.0);
            let p = j.pattern();
            for i in 0..c.node_count() {
                assert!(p.slot(i, i).is_some(), "node row {i} has no diagonal");
            }
            let (mut sigma_rows, mut branch_rows) = (0, 0);
            for (e, &base) in c.elements().iter().zip(&c.extra_var_bases()) {
                if e.extra_vars() == 0 {
                    continue;
                }
                if e.is_source() {
                    assert_eq!(p.slot(base, base), None, "{} branch row", e.name());
                    branch_rows += 1;
                } else {
                    assert!(p.slot(base, base).is_some(), "{} Σ row", e.name());
                    sigma_rows += 1;
                }
            }
            assert_eq!((sigma_rows, branch_rows), (2, 2));
        }
    }

    /// The random netlists of `tests/fastspice.rs`: an inverter chain
    /// driven by a pulse edge, a capacitively loaded resistor ladder off
    /// its last output, and a current-source disturbance.
    fn mixed_netlist(stages: usize, rungs: &[f64], vdd: f64, isrc: f64) -> Circuit {
        use crate::element::{Capacitor, CurrentSource, Waveform};
        use crate::logic::{add_inverter_chain, CntTechnology};
        use cntfet_core::CompactCntFet;
        use cntfet_reference::DeviceParams;
        use std::sync::OnceLock;
        static MODEL: OnceLock<Arc<CompactCntFet>> = OnceLock::new();
        let model = MODEL.get_or_init(|| {
            Arc::new(CompactCntFet::model2(DeviceParams::paper_default()).expect("model 2 fit"))
        });
        let tech = CntTechnology::symmetric(Arc::clone(model), vdd);
        let mut c = Circuit::new();
        let vdd_node = c.node("vdd");
        let vin = c.node("in");
        c.add(VoltageSource::dc("VDD", vdd_node, Circuit::ground(), vdd));
        c.add(VoltageSource::with_waveform(
            "VIN",
            vin,
            Circuit::ground(),
            Waveform::Pulse {
                low: 0.05 * vdd,
                high: 0.95 * vdd,
                delay: 0.0,
                rise: 20e-12,
                width: 1.0,
                fall: 20e-12,
                period: 0.0,
            },
        ));
        let outs = add_inverter_chain(&mut c, &tech, "chain", vin, stages, vdd_node);
        let mut prev = *outs.last().expect("stages > 0");
        for (i, &r) in rungs.iter().enumerate() {
            let nxt = c.node(&format!("lad{i}"));
            c.add(Resistor::new(&format!("Rl{i}"), prev, nxt, r));
            c.add(Capacitor::new(
                &format!("Cl{i}"),
                nxt,
                Circuit::ground(),
                1e-15,
            ));
            prev = nxt;
        }
        c.add(Resistor::new("Rend", prev, Circuit::ground(), 1e5));
        c.add(CurrentSource::dc("I1", Circuit::ground(), prev, isrc));
        c
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// The residual-only assembly behind every Armijo trial after
        /// the first is the full assembly's `F`, bit for bit, and leaves
        /// the assembled Jacobian alone — in DC and transient mode, with
        /// and without gmin, with and without a pseudo-transient term,
        /// at states along a transient solve and at half-step trial
        /// points between them.
        #[test]
        fn residual_only_assembly_matches_the_full_residual_bitwise(
            stages in 1usize..4,
            rungs in proptest::collection::vec(1e3f64..1e5, 2..6),
            vdd in 0.6f64..0.9,
            isrc in -1e-6f64..1e-6,
        ) {
            use crate::element::TransientStamp;
            use crate::sim::{Simulator, TransientSpec};
            let dt = 2e-11;
            let mut sim = Simulator::new(mixed_netlist(stages, &rungs, vdd, isrc));
            let run = sim
                .transient(&TransientSpec::fixed(2e-10, dt))
                .expect("transient");
            let c = sim.circuit();
            let devices = c.device_count() as u64;
            let n = c.unknown_count();
            // Node rows only, as `ptc_rescue` builds it.
            let nodes = c.node_count();
            let mask: Vec<bool> = (0..n).map(|i| i < nodes && i % 3 != 1).collect();
            let mut engine = NewtonEngine::new(NewtonOptions::default());
            let states = &run.result.states;
            for (k, pair) in states.windows(2).enumerate() {
                let (prev, x) = (&pair[0], &pair[1]);
                let trial: Vec<f64> =
                    prev.iter().zip(x).map(|(p, v)| p + 0.5 * (v - p)).collect();
                let tran = AnalysisMode::Transient(TransientStamp::backward_euler(
                    (k + 1) as f64 * dt,
                    dt,
                    prev,
                ));
                let term = PtcTerm {
                    g: 1e-3,
                    anchor: prev,
                    mask: &mask,
                };
                for point in [x, &trial] {
                    for mode in [&AnalysisMode::Dc, &tran] {
                        for gmin in [0.0, 1e-9] {
                            for ptc in [None, Some(&term)] {
                                engine.assemble_into(c, point, mode, gmin, ptc, true);
                                let full = engine.residual.clone();
                                let jac = jacobian_values(&engine);
                                let before = engine.counters();
                                engine.assemble_into(c, point, mode, gmin, ptc, false);
                                let d = engine.counters().delta_since(&before);
                                proptest::prop_assert_eq!(
                                    (d.residual_evals, d.device_evals),
                                    (devices, 0)
                                );
                                proptest::prop_assert!(
                                    bitwise_eq(&engine.residual, &full),
                                    "residual-only F differs from the full F"
                                );
                                proptest::prop_assert!(
                                    bitwise_eq(&jacobian_values(&engine), &jac),
                                    "residual-only pass wrote the Jacobian"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
    }

    fn jacobian_values(engine: &NewtonEngine) -> Vec<f64> {
        let m = engine.cache().and_then(|c| c.asm.matrix());
        m.expect("assembled").values().to_vec()
    }

    /// A conductance between `a` and `b` that writes its Jacobian block
    /// in one order while `x[0] ≤ 0.5` and in another above it: the
    /// (a, b) and (b, a) entries swap, and so do two of the three
    /// writes to (a, a), whose sum depends on their order. Above 0.5 a
    /// `stray` element also writes (a, stray), outside every pattern
    /// recorded below it.
    #[derive(Debug)]
    struct ReorderingStamp {
        a: crate::netlist::NodeId,
        b: crate::netlist::NodeId,
        stray: Option<crate::netlist::NodeId>,
    }

    impl crate::element::Element for ReorderingStamp {
        fn name(&self) -> &str {
            "REORDER"
        }

        fn stamp(&self, x: &[f64], _extra: usize, _mode: &AnalysisMode, mna: &mut Mna<'_>) {
            use crate::element::node_voltage;
            let (va, vb) = (node_voltage(x, self.a), node_voltage(x, self.b));
            let g = 1e-3 * (1.0 + va * va);
            mna.add_f_node(self.a, g * (va - vb));
            mna.add_f_node(self.b, -g * (va - vb));
            let high = x[0] > 0.5;
            mna.stamp_jacobian(|j| {
                let (first, second) = a_a_order(high);
                j.add_nodes(self.a, self.a, 1.0 + g);
                j.add_nodes(self.a, self.a, first);
                j.add_nodes(self.a, self.a, second);
                if high {
                    j.add_nodes(self.b, self.a, -g);
                    j.add_nodes(self.a, self.b, -g);
                } else {
                    j.add_nodes(self.a, self.b, -g);
                    j.add_nodes(self.b, self.a, -g);
                }
                j.add_nodes(self.b, self.b, g);
                if let Some(stray) = self.stray.filter(|_| high) {
                    j.add_nodes(self.a, stray, g);
                }
            });
        }
    }

    /// The second and third (a, a) writes of a [`ReorderingStamp`].
    fn a_a_order(high: bool) -> (f64, f64) {
        if high {
            (-1.0, 1e-16)
        } else {
            (1e-16, -1.0)
        }
    }

    fn reordering_circuit(with_stray: bool) -> Circuit {
        let mut c = Circuit::new();
        let (a, b, s) = (c.node("a"), c.node("b"), c.node("s"));
        c.add(Resistor::new("R1", b, Circuit::ground(), 1e3));
        c.add(Resistor::new("R2", s, Circuit::ground(), 1e3));
        c.add(ReorderingStamp {
            a,
            b,
            stray: with_stray.then_some(s),
        });
        c
    }

    #[test]
    fn reordered_jacobian_writes_take_the_searched_path_bitwise() {
        // The warm engine records its write plan below 0.5; above it the
        // element leaves the plan, so its writes take the searched path
        // and must still add in the order they are issued: the matrix
        // equals the one a fresh engine records at the same state.
        let c = reordering_circuit(false);
        let (low, high) = ([0.25, -0.5, 0.0], [0.75, 0.125, 0.0]);
        let mut warm = NewtonEngine::new(NewtonOptions::default());
        warm.assemble(&c, &low, &AnalysisMode::Dc, 0.0);
        for x in [&high, &low, &high] {
            let misses = warm.cache().map(|c| c.asm.replay_misses());
            let (f, j) = warm.assemble(&c, x, &AnalysisMode::Dc, 0.0);
            let (f, j) = (f.to_vec(), j.clone());
            let mut fresh = NewtonEngine::new(NewtonOptions::default());
            let (f_fresh, j_fresh) = fresh.assemble(&c, x, &AnalysisMode::Dc, 0.0);
            assert_eq!(j.pattern(), j_fresh.pattern());
            assert!(bitwise_eq(j.values(), j_fresh.values()), "x = {x:?}");
            assert!(bitwise_eq(&f, f_fresh), "x = {x:?}");
            let left_plan = warm.cache().map(|c| c.asm.replay_misses()) > misses;
            assert_eq!(left_plan, x == &high, "x = {x:?}");
            // (a, a) sums its writes in issue order, then the node
            // diagonal's 0.
            let a_a = |(first, second): (f64, f64)| {
                1.0 + 1e-3 * (1.0 + x[0] * x[0]) + first + second + 0.0
            };
            assert_eq!(j.get(0, 0).to_bits(), a_a(a_a_order(x[0] > 0.5)).to_bits());
        }
        // At the high state, the recorded order would sum (a, a)
        // differently: the check compares order-sensitive matrices.
        let g = 1e-3 * (1.0 + high[0] * high[0]);
        assert_ne!(
            (1.0 + g + 1e-16 - 1.0).to_bits(),
            (1.0 + g - 1.0 + 1e-16).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "is not in the cached sparsity pattern")]
    fn jacobian_write_outside_the_recorded_pattern_panics() {
        let c = reordering_circuit(true);
        let mut engine = NewtonEngine::new(NewtonOptions::default());
        engine.assemble(&c, &[0.25, -0.5, 0.0], &AnalysisMode::Dc, 0.0);
        engine.assemble(&c, &[0.75, 0.125, 0.0], &AnalysisMode::Dc, 0.0);
    }

    #[test]
    fn counters_list_every_field_by_name() {
        let c = EngineCounters {
            factorizations: 3,
            ptc_steps: 1,
            ..EngineCounters::default()
        };
        let named: Vec<(&str, u64)> = c.named().collect();
        assert_eq!(named[0], ("factorizations", 3));
        assert!(named.contains(&("ptc_steps", 1)));
        assert!(c.summary().starts_with("factorizations 3, factor_ops 0, "));
        let mut sum = c;
        sum += c;
        assert_eq!(sum.delta_since(&c), c);
    }
}
