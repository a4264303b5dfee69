//! Netlist builders shared by the `fastspice` and `sparse_vs_dense`
//! test binaries.

use cntfet_circuit::prelude::*;
use cntfet_core::CompactCntFet;
use cntfet_reference::DeviceParams;
use std::sync::{Arc, OnceLock};

/// Shared compact model — fitted once per test binary.
pub fn model() -> Arc<CompactCntFet> {
    static MODEL: OnceLock<Arc<CompactCntFet>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| {
        Arc::new(CompactCntFet::model2(DeviceParams::paper_default()).expect("model 2 fit"))
    }))
}

/// A mixed R/C/V/I + CNFET netlist: `stages` inverters off a resistor
/// ladder, capacitive loads, and a small current-source disturbance.
pub fn mixed_netlist(stages: usize, rungs: &[f64], vdd: f64, isrc: f64) -> Circuit {
    let tech = CntTechnology::symmetric(model(), vdd);
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
    // Resistor ladder hanging off the last stage output.
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
