//! Complementary CNT logic building blocks — the "practical logic
//! circuit structures based on CNT devices" of the paper's future-work
//! section, built on the compact model.

use crate::cnfet::{CnfetElement, Polarity};
use crate::element::Capacitor;
use crate::netlist::{Circuit, NodeId};
use cntfet_core::CompactCntFet;
use std::sync::Arc;

/// A complementary CNFET technology: one shared n-device model and one
/// p-device model (mirror-symmetric by default), a supply voltage and a
/// nominal channel length.
#[derive(Debug, Clone)]
pub struct CntTechnology {
    /// Model used for pull-down (n) transistors.
    pub n_model: Arc<CompactCntFet>,
    /// Model used for pull-up (p) transistors.
    pub p_model: Arc<CompactCntFet>,
    /// Supply voltage, V.
    pub vdd: f64,
    /// Channel length, m.
    pub length: f64,
    /// Output load capacitance per gate, F.
    pub load_capacitance: f64,
}

impl CntTechnology {
    /// Builds a symmetric complementary technology from a single compact
    /// model (the p-device is its electrical mirror).
    pub fn symmetric(model: Arc<CompactCntFet>, vdd: f64) -> Self {
        CntTechnology {
            p_model: Arc::clone(&model),
            n_model: model,
            vdd,
            length: 100e-9,
            // Large enough that a stage delay spans many backward-Euler
            // steps at picosecond resolution; too small a load lets the
            // integrator's numerical damping quench ring oscillations.
            load_capacitance: 1e-16,
        }
    }
}

/// Instantiates a complementary inverter between `input` and `output`.
///
/// `vdd_node` must already be tied to the supply. Device names are
/// prefixed with `name`.
pub fn add_inverter(
    circuit: &mut Circuit,
    tech: &CntTechnology,
    name: &str,
    input: NodeId,
    output: NodeId,
    vdd_node: NodeId,
) {
    // Pull-up: p-device, source at VDD.
    circuit.add(CnfetElement::new(
        &format!("{name}_mp"),
        Arc::clone(&tech.p_model),
        Polarity::P,
        output,
        input,
        vdd_node,
        tech.length,
    ));
    // Pull-down: n-device, source at ground.
    circuit.add(CnfetElement::new(
        &format!("{name}_mn"),
        Arc::clone(&tech.n_model),
        Polarity::N,
        output,
        input,
        Circuit::ground(),
        tech.length,
    ));
    circuit.add(Capacitor::new(
        &format!("{name}_cl"),
        output,
        Circuit::ground(),
        tech.load_capacitance,
    ));
}

/// Instantiates a chain of `stages` inverters driven by `input` and
/// returns the stage output nodes (created as `{name}_c{i}`).
///
/// Inverter chains are the canonical scaling workload for the MNA
/// engine: node count grows linearly while each node couples only to
/// its neighbours, so the Jacobian stays banded-sparse at any size.
///
/// # Panics
///
/// Panics if `stages` is 0.
pub fn add_inverter_chain(
    circuit: &mut Circuit,
    tech: &CntTechnology,
    name: &str,
    input: NodeId,
    stages: usize,
    vdd_node: NodeId,
) -> Vec<NodeId> {
    assert!(stages > 0, "chain needs at least one stage");
    let mut outputs = Vec::with_capacity(stages);
    let mut prev = input;
    for i in 0..stages {
        let out = circuit.node(&format!("{name}_c{i}"));
        add_inverter(
            circuit,
            tech,
            &format!("{name}_inv{i}"),
            prev,
            out,
            vdd_node,
        );
        outputs.push(out);
        prev = out;
    }
    outputs
}

/// Instantiates a `rows × stages` array of independent inverter
/// chains, all driven by `input`, and returns every stage output node
/// (row-major; nodes are created as `{name}_r{row}_c{stage}`).
///
/// Where a single chain grows the unknown count linearly in one banded
/// strand, the array is the fast-SPICE scaling workload: thousands of
/// gates whose Jacobian is block-banded — each row an independent
/// block coupled only through the shared input and supply — so
/// fill-reducing orderings and partial refactorization have structure
/// to exploit (the `fastspice_scaling` bench builds its ≥1000-gate
/// netlist here).
///
/// # Panics
///
/// Panics if `rows` or `stages` is 0.
pub fn add_inverter_array(
    circuit: &mut Circuit,
    tech: &CntTechnology,
    name: &str,
    input: NodeId,
    rows: usize,
    stages: usize,
    vdd_node: NodeId,
) -> Vec<NodeId> {
    assert!(rows > 0, "array needs at least one row");
    assert!(stages > 0, "array needs at least one stage per row");
    let mut outputs = Vec::with_capacity(rows * stages);
    for r in 0..rows {
        outputs.extend(add_inverter_chain(
            circuit,
            tech,
            &format!("{name}_r{r}"),
            input,
            stages,
            vdd_node,
        ));
    }
    outputs
}

/// Instantiates a two-input complementary NAND gate.
///
/// Topology: parallel p-devices to VDD, series n-devices to ground via an
/// internal node.
pub fn add_nand2(
    circuit: &mut Circuit,
    tech: &CntTechnology,
    name: &str,
    a: NodeId,
    b: NodeId,
    output: NodeId,
    vdd_node: NodeId,
) {
    circuit.add(CnfetElement::new(
        &format!("{name}_mpa"),
        Arc::clone(&tech.p_model),
        Polarity::P,
        output,
        a,
        vdd_node,
        tech.length,
    ));
    circuit.add(CnfetElement::new(
        &format!("{name}_mpb"),
        Arc::clone(&tech.p_model),
        Polarity::P,
        output,
        b,
        vdd_node,
        tech.length,
    ));
    let mid = circuit.node(&format!("{name}_mid"));
    circuit.add(CnfetElement::new(
        &format!("{name}_mna"),
        Arc::clone(&tech.n_model),
        Polarity::N,
        output,
        a,
        mid,
        tech.length,
    ));
    circuit.add(CnfetElement::new(
        &format!("{name}_mnb"),
        Arc::clone(&tech.n_model),
        Polarity::N,
        mid,
        b,
        Circuit::ground(),
        tech.length,
    ));
    circuit.add(Capacitor::new(
        &format!("{name}_cl"),
        output,
        Circuit::ground(),
        tech.load_capacitance,
    ));
}

/// Instantiates a ring oscillator of `stages` inverters (must be odd and
/// ≥ 3) and returns the stage output nodes.
///
/// # Panics
///
/// Panics if `stages` is even or < 3.
pub fn add_ring_oscillator(
    circuit: &mut Circuit,
    tech: &CntTechnology,
    name: &str,
    stages: usize,
    vdd_node: NodeId,
) -> Vec<NodeId> {
    assert!(
        stages >= 3 && stages % 2 == 1,
        "ring needs an odd stage count >= 3"
    );
    let nodes: Vec<NodeId> = (0..stages)
        .map(|i| circuit.node(&format!("{name}_s{i}")))
        .collect();
    for i in 0..stages {
        let input = nodes[i];
        let output = nodes[(i + 1) % stages];
        add_inverter(
            circuit,
            tech,
            &format!("{name}_inv{i}"),
            input,
            output,
            vdd_node,
        );
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::Solution;
    use crate::element::VoltageSource;
    use crate::engine::{NewtonEngine, NewtonOptions};
    use crate::sim::{Simulator, SweepSpec};
    use cntfet_reference::DeviceParams;

    fn solve_dc(c: &Circuit, initial: Option<&[f64]>) -> Solution {
        NewtonEngine::new(NewtonOptions::default())
            .dc_operating_point(c, initial)
            .unwrap()
    }

    fn tech() -> CntTechnology {
        let model = Arc::new(CompactCntFet::model2(DeviceParams::paper_default()).unwrap());
        CntTechnology::symmetric(model, 0.8)
    }

    fn inverter_circuit(tech: &CntTechnology) -> (Circuit, NodeId, NodeId) {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let out = c.node("out");
        c.add(VoltageSource::dc("VDD", vdd, Circuit::ground(), tech.vdd));
        c.add(VoltageSource::dc("VIN", vin, Circuit::ground(), 0.0));
        add_inverter(&mut c, tech, "inv", vin, out, vdd);
        (c, vin, out)
    }

    #[test]
    fn inverter_logic_levels() {
        let t = tech();
        let (mut c, _, out) = inverter_circuit(&t);
        // Input low → output high.
        c.set_source_value("VIN", 0.0);
        let hi = solve_dc(&c, None).voltage(out);
        assert!(hi > 0.9 * t.vdd, "output high {hi} (vdd {})", t.vdd);
        // Input high → output low.
        c.set_source_value("VIN", t.vdd);
        let lo = solve_dc(&c, None).voltage(out);
        assert!(lo < 0.1 * t.vdd, "output low {lo}");
    }

    #[test]
    fn inverter_vtc_is_monotone_decreasing() {
        let t = tech();
        let (c, _, out) = inverter_circuit(&t);
        let vals: Vec<f64> = (0..=16).map(|i| t.vdd * i as f64 / 16.0).collect();
        let mut sim = Simulator::new(c);
        let res = sim.dc_sweep(&SweepSpec::new("VIN", vals.clone())).unwrap();
        let outs = res.voltages(out);
        for w in outs.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "VTC not monotone: {outs:?}");
        }
        // Switching threshold near mid-rail for the symmetric pair.
        let mid = outs
            .iter()
            .zip(&vals)
            .min_by(|(o1, _), (o2, _)| {
                (*o1 - t.vdd / 2.0)
                    .abs()
                    .partial_cmp(&(*o2 - t.vdd / 2.0).abs())
                    .unwrap()
            })
            .map(|(_, v)| *v)
            .unwrap();
        assert!(
            (mid - t.vdd / 2.0).abs() < 0.2 * t.vdd,
            "threshold {mid} vs mid-rail {}",
            t.vdd / 2.0
        );
    }

    #[test]
    fn nand_truth_table() {
        let t = tech();
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let a = c.node("a");
        let b = c.node("b");
        let out = c.node("out");
        c.add(VoltageSource::dc("VDD", vdd, Circuit::ground(), t.vdd));
        c.add(VoltageSource::dc("VA", a, Circuit::ground(), 0.0));
        c.add(VoltageSource::dc("VB", b, Circuit::ground(), 0.0));
        add_nand2(&mut c, &t, "g", a, b, out, vdd);
        let cases = [
            (0.0, 0.0, true),
            (0.0, t.vdd, true),
            (t.vdd, 0.0, true),
            (t.vdd, t.vdd, false),
        ];
        let mut prev: Option<Vec<f64>> = None;
        for (va, vb, high) in cases {
            c.set_source_value("VA", va);
            c.set_source_value("VB", vb);
            let sol = solve_dc(&c, prev.as_deref());
            let v = sol.voltage(out);
            if high {
                assert!(v > 0.75 * t.vdd, "A={va} B={vb}: out {v} should be high");
            } else {
                assert!(v < 0.25 * t.vdd, "A={va} B={vb}: out {v} should be low");
            }
            prev = Some(sol.x);
        }
    }

    #[test]
    #[should_panic(expected = "odd stage count")]
    fn even_ring_is_rejected() {
        let t = tech();
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let _ = add_ring_oscillator(&mut c, &t, "ring", 4, vdd);
    }
}
