//! DC sweeps (transfer curves, VTCs) and their result type.
//!
//! The sweep loop itself (`sweep_core`) runs on a caller-provided
//! [`NewtonEngine`], so a [`crate::sim::Simulator`] session shares one
//! engine — one recorded sparsity pattern, one solver ordering, one
//! warm-start chain — across every analysis of a circuit. Run sweeps
//! through [`crate::sim::Simulator::dc_sweep`] and
//! [`crate::sim::sweep_many`].

use crate::dc::Solution;
use crate::engine::NewtonEngine;
use crate::error::CircuitError;
use crate::netlist::{Circuit, NodeId};
use crate::sim::NodeWaves;

/// Result of a DC sweep: swept values, per-point solutions, and a
/// node-major waveform cache with probe-by-name accessors shared with
/// the transient and AC result types.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Swept source values.
    pub values: Vec<f64>,
    /// Converged solution at each value.
    pub solutions: Vec<Solution>,
    waves: NodeWaves,
}

impl SweepResult {
    pub(crate) fn new(values: Vec<f64>, solutions: Vec<Solution>, circuit: &Circuit) -> Self {
        let waves = NodeWaves::new(circuit, solutions.len());
        SweepResult {
            values,
            solutions,
            waves,
        }
    }

    /// Voltage of `node` across the sweep, as a freshly allocated
    /// vector. Prefer [`SweepResult::voltages_ref`] (borrowed, no
    /// allocation after the first probe) or [`SweepResult::voltage`]
    /// (by node name).
    pub fn voltages(&self, node: NodeId) -> Vec<f64> {
        self.solutions.iter().map(|s| s.voltage(node)).collect()
    }

    /// Borrowed voltage waveform of `node` across the sweep (all-zero
    /// for ground), or `None` for a node outside the swept circuit.
    /// The node-major waveform cache is materialised on the first
    /// probe and borrowed thereafter.
    pub fn voltages_ref(&self, node: NodeId) -> Option<&[f64]> {
        self.waves
            .slice_with(node, || Box::new(self.solutions.iter().map(|s| &s.x[..])))
    }

    /// Borrowed voltage waveform of the named node across the sweep.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownNode`] listing the available names.
    pub fn voltage(&self, name: &str) -> Result<&[f64], CircuitError> {
        self.waves
            .by_name_with(name, || Box::new(self.solutions.iter().map(|s| &s.x[..])))
    }

    /// Number of sweep points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the sweep holds no points.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// The engine-sharing sweep loop: validates the source name up front
/// (listing the circuit's sources on a miss), then warm-starts each
/// point from the previous solution — the first point from `warm` when
/// provided.
pub(crate) fn sweep_core(
    engine: &mut NewtonEngine,
    circuit: &mut Circuit,
    source: &str,
    values: &[f64],
    warm: Option<&[f64]>,
) -> Result<SweepResult, CircuitError> {
    if !circuit.has_source(source) {
        return Err(CircuitError::UnknownSource {
            requested: source.to_string(),
            available: circuit.source_names(),
        });
    }
    let mut solutions = Vec::with_capacity(values.len());
    let mut prev: Option<Vec<f64>> = warm
        .filter(|x| x.len() == circuit.unknown_count())
        .map(<[f64]>::to_vec);
    for &v in values {
        circuit.set_source_value(source, v);
        let sol = engine.dc_operating_point(circuit, prev.as_deref())?;
        prev = Some(sol.x.clone());
        solutions.push(sol);
    }
    Ok(SweepResult::new(values.to_vec(), solutions, circuit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Resistor, VoltageSource};
    use crate::engine::NewtonOptions;
    use crate::sim::{sweep_many, Simulator, SweepSpec};

    #[test]
    fn sweep_tracks_divider_linearly() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add(VoltageSource::dc("V1", vin, Circuit::ground(), 0.0));
        c.add(Resistor::new("R1", vin, out, 1e3));
        c.add(Resistor::new("R2", out, Circuit::ground(), 1e3));
        let vals = [0.0, 0.5, 1.0, 1.5];
        let res = Simulator::new(c)
            .dc_sweep(&SweepSpec::new("V1", vals.to_vec()))
            .unwrap();
        let outs = res.voltages(out);
        for (v, o) in vals.iter().zip(&outs) {
            assert!((o - v / 2.0).abs() < 1e-9, "{v} -> {o}");
        }
        // The cached waveform agrees with the allocating accessor.
        assert_eq!(res.voltages_ref(out).unwrap(), &outs[..]);
        assert_eq!(res.voltage("out").unwrap(), &outs[..]);
        assert_eq!(res.len(), vals.len());
        assert!(!res.is_empty());
    }

    #[test]
    fn many_sweeps_match_individual_sweeps() {
        let build = || {
            let mut c = Circuit::new();
            let vin = c.node("in");
            let out = c.node("out");
            c.add(VoltageSource::dc("V1", vin, Circuit::ground(), 0.0));
            c.add(Resistor::new("R1", vin, out, 2e3));
            c.add(Resistor::new("R2", out, Circuit::ground(), 1e3));
            c
        };
        let jobs: Vec<SweepSpec> = (0..6)
            .map(|k| {
                let vals = (0..5).map(|i| 0.25 * i as f64 + k as f64).collect();
                SweepSpec::new("V1", vals)
            })
            .collect();
        let batch = sweep_many(|_, _| build(), &jobs, &NewtonOptions::default()).unwrap();
        assert_eq!(batch.len(), jobs.len());
        for (job, got) in jobs.iter().zip(&batch) {
            let alone = Simulator::new(build()).dc_sweep(job).unwrap();
            assert_eq!(got, &alone, "batched sweep must equal the lone sweep");
        }
    }

    #[test]
    fn builder_sees_job_index_and_job() {
        // Per-job circuits: job k's divider halves the source through a
        // lower resistor of k-dependent value.
        let lowers = [1e3, 3e3];
        let build = |k: usize, job: &SweepSpec| {
            assert_eq!(job.source, "V1");
            let mut c = Circuit::new();
            let vin = c.node("in");
            let out = c.node("out");
            c.add(VoltageSource::dc("V1", vin, Circuit::ground(), 0.0));
            c.add(Resistor::new("R1", vin, out, 1e3));
            c.add(Resistor::new("R2", out, Circuit::ground(), lowers[k]));
            c
        };
        let jobs = vec![SweepSpec::new("V1", vec![2.0]); lowers.len()];
        let batch = sweep_many(build, &jobs, &NewtonOptions::default()).unwrap();
        // Node "out" is unknown index 1 in both circuits; check the
        // divider ratio reflects each job's own lower resistor.
        let expect = [2.0 * 1e3 / 2e3, 2.0 * 3e3 / 4e3];
        for (res, want) in batch.iter().zip(expect) {
            let got = res.solutions[0].x[1];
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn many_sweeps_propagate_bad_source() {
        let build = || {
            let mut c = Circuit::new();
            let a = c.node("a");
            c.add(Resistor::new("R1", a, Circuit::ground(), 1e3));
            c
        };
        let jobs = [SweepSpec::new("VX", vec![0.0])];
        assert!(matches!(
            sweep_many(|_, _| build(), &jobs, &NewtonOptions::default()),
            Err(CircuitError::UnknownSource { .. })
        ));
    }

    #[test]
    fn unknown_source_is_rejected_with_candidates() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(VoltageSource::dc("V1", a, Circuit::ground(), 1.0));
        c.add(Resistor::new("R1", a, Circuit::ground(), 1e3));
        let err = Simulator::new(c)
            .dc_sweep(&SweepSpec::new("VX", vec![0.0]))
            .unwrap_err();
        match &err {
            CircuitError::UnknownSource {
                requested,
                available,
            } => {
                assert_eq!(requested, "VX");
                assert_eq!(available, &["V1".to_string()]);
            }
            other => panic!("expected UnknownSource, got {other:?}"),
        }
        assert!(err.to_string().contains("V1"));
    }
}
