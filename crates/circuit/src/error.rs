//! Error type of the circuit simulator.

use crate::engine::ConvergenceReport;
use std::fmt;

/// Error returned by circuit analyses.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// Newton failed to converge within its budget.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Final residual infinity norm.
        residual: f64,
        /// Post-mortem of the failed solve: worst-residual unknown by
        /// name and the strategy ladder that was exhausted. Boxed, so
        /// every `Result` carrying this error stays small.
        report: Box<ConvergenceReport>,
    },
    /// The MNA matrix was singular (floating node, short loop of ideal
    /// sources, …).
    SingularSystem(String),
    /// An analysis was configured inconsistently.
    InvalidAnalysis(String),
    /// An analysis referenced a source element that does not exist (or
    /// cannot be driven). Carries the names of the circuit's drivable
    /// sources so the mistake is diagnosable at request build time, not
    /// deep inside a solve.
    UnknownSource {
        /// The requested source name.
        requested: String,
        /// Names of the sources the circuit actually has.
        available: Vec<String>,
    },
    /// A probe referenced a node name the circuit does not have. Carries
    /// the circuit's node names for diagnosis.
    UnknownNode {
        /// The requested node name.
        requested: String,
        /// Names of the nodes the circuit actually has.
        available: Vec<String>,
    },
    /// The DC MNA system is **structurally** singular: maximum bipartite
    /// matching on the assembled sparsity pattern leaves at least one
    /// unknown unmatched, so no assignment of element values can make
    /// the matrix invertible. Raised *before* any factorisation — the
    /// classic causes are a node with no DC path to ground (isolated by
    /// capacitors or current sources) or a gate-only node. Carries the
    /// human-readable names of the undeterminable unknowns: node names,
    /// `i(ELEMENT)` for source branch currents, `internal(ELEMENT)` for
    /// other element unknowns.
    StructurallySingular {
        /// Names of the unknowns no equation can determine.
        nodes: Vec<String>,
    },
    /// The analysis was interrupted by a cooperative cancellation
    /// request (see `Simulator::set_cancel`). The flag is polled once
    /// per Newton iteration and once per transient step attempt, so a
    /// cancelled transient stops within one accepted step. Partial
    /// results computed before the interrupt are discarded by the
    /// analysis entry points; the engine itself stays reusable.
    Cancelled,
    /// Adaptive transient stepping gave up: either the step controller
    /// shrank the step to the configured minimum and the step still
    /// failed (local truncation error too large or Newton divergence),
    /// or the consecutive-rejection budget ran out first.
    TimestepTooSmall {
        /// Simulation time at which the controller gave up, seconds.
        t: f64,
        /// The step size that could not be reduced further, seconds.
        dt: f64,
        /// Post-mortem of the final failed Newton solve: worst unknown
        /// by name and the last strategy tried before giving up.
        report: Box<ConvergenceReport>,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::NoConvergence {
                iterations,
                residual,
                report,
            } => write!(
                f,
                "newton failed to converge after {iterations} iterations \
                 (residual {residual:.3e}); {report}"
            ),
            CircuitError::SingularSystem(msg) => write!(f, "singular mna system: {msg}"),
            CircuitError::InvalidAnalysis(msg) => write!(f, "invalid analysis: {msg}"),
            CircuitError::UnknownSource {
                requested,
                available,
            } => {
                if available.is_empty() {
                    write!(
                        f,
                        "no source named '{requested}' (the circuit has no sources)"
                    )
                } else {
                    write!(
                        f,
                        "no source named '{requested}'; available sources: {}",
                        available.join(", ")
                    )
                }
            }
            CircuitError::UnknownNode {
                requested,
                available,
            } => {
                if available.is_empty() {
                    write!(
                        f,
                        "no node named '{requested}' (the circuit has no named nodes)"
                    )
                } else {
                    write!(
                        f,
                        "no node named '{requested}'; available nodes: {}",
                        available.join(", ")
                    )
                }
            }
            CircuitError::StructurallySingular { nodes } => write!(
                f,
                "structurally singular mna system: no equation can determine {} \
                 (check for nodes isolated from ground by capacitors or current sources)",
                nodes.join(", ")
            ),
            CircuitError::Cancelled => {
                write!(
                    f,
                    "analysis cancelled by a cooperative cancellation request"
                )
            }
            CircuitError::TimestepTooSmall { t, dt, report } => write!(
                f,
                "adaptive transient gave up at t = {t:.6e} s with step {dt:.3e} s \
                 (dt_min or the rejection budget was reached and the step still failed); \
                 last solve: {report}"
            ),
        }
    }
}

impl std::error::Error for CircuitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_cause() {
        let e = CircuitError::NoConvergence {
            iterations: 10,
            residual: 1e-3,
            report: Box::default(),
        };
        assert!(e.to_string().contains("10"));
        let s = CircuitError::SingularSystem("pivot 0".into());
        assert!(s.to_string().contains("pivot 0"));
    }

    #[test]
    fn no_convergence_renders_report_exactly() {
        use crate::engine::{EngineCounters, NewtonStrategy};
        let e = CircuitError::NoConvergence {
            iterations: 120,
            residual: 2.5e-4,
            report: Box::new(ConvergenceReport {
                strategy: NewtonStrategy::Ptc,
                iterations: 120,
                residual: 2.5e-4,
                worst_unknown: "mid".into(),
                counters: EngineCounters {
                    limiter_clamps: 3,
                    armijo_backtracks: 17,
                    ptc_steps: 2,
                    ..EngineCounters::default()
                },
            }),
        };
        assert_eq!(
            e.to_string(),
            "newton failed to converge after 120 iterations (residual 2.500e-4); \
             worst unknown mid (|F| = 2.500e-4), strategies tried: \
             newton → voltage limiting → armijo damping → pseudo-transient"
        );
    }

    #[test]
    fn timestep_too_small_renders_report_exactly() {
        use crate::engine::{EngineCounters, NewtonStrategy};
        let e = CircuitError::TimestepTooSmall {
            t: 1.23e-10,
            dt: 1e-15,
            report: Box::new(ConvergenceReport {
                strategy: NewtonStrategy::Damped,
                iterations: 120,
                residual: 4.2e-9,
                worst_unknown: "i(VIN)".into(),
                counters: EngineCounters {
                    armijo_backtracks: 5,
                    ..EngineCounters::default()
                },
            }),
        };
        assert_eq!(
            e.to_string(),
            "adaptive transient gave up at t = 1.230000e-10 s with step 1.000e-15 s \
             (dt_min or the rejection budget was reached and the step still failed); \
             last solve: worst unknown i(VIN) (|F| = 4.200e-9), strategies tried: \
             newton → armijo damping"
        );
    }

    #[test]
    fn structurally_singular_names_unknowns() {
        let e = CircuitError::StructurallySingular {
            nodes: vec!["mid".into(), "i(V2)".into()],
        };
        let msg = e.to_string();
        assert!(msg.contains("structurally singular"), "{msg}");
        assert!(msg.contains("mid, i(V2)"), "{msg}");
    }

    #[test]
    fn unknown_source_lists_alternatives() {
        let e = CircuitError::UnknownSource {
            requested: "VX".into(),
            available: vec!["VDD".into(), "VIN".into()],
        };
        let msg = e.to_string();
        assert!(msg.contains("VX") && msg.contains("VDD, VIN"), "{msg}");
        let none = CircuitError::UnknownSource {
            requested: "VX".into(),
            available: vec![],
        };
        assert!(none.to_string().contains("no sources"));
    }

    #[test]
    fn cancelled_displays_cause() {
        assert!(CircuitError::Cancelled.to_string().contains("cancelled"));
    }

    #[test]
    fn unknown_node_lists_alternatives() {
        let e = CircuitError::UnknownNode {
            requested: "ouy".into(),
            available: vec!["in".into(), "out".into()],
        };
        let msg = e.to_string();
        assert!(msg.contains("ouy") && msg.contains("in, out"), "{msg}");
    }
}
