//! Demonstrates the batched evaluation engine: a dense bias grid pushed
//! through [`cntfet_core::batch`] sequentially vs in parallel, and a VTC
//! corner family pushed through [`cntfet_circuit::sim::sweep_many`].
//!
//! This is the "large numbers of such devices" scale-up of the paper's
//! Table I story: the compact model is already orders of magnitude
//! faster per point than the reference; the batch engine multiplies that
//! by the core count. Set `RAYON_NUM_THREADS` to pin the worker count.

use cntfet_bench::{paper_device, time_loops};
use cntfet_circuit::prelude::*;
use cntfet_core::batch::BiasGrid;
use cntfet_core::CompactCntFet;
use cntfet_numerics::interp::linspace;
use std::sync::Arc;

fn main() {
    let model = CompactCntFet::model2(paper_device(300.0, -0.32)).expect("model 2 fit");

    // A dense 256 x 256 grid (65 536 closed-form bias points).
    let grid = BiasGrid::rectangular(linspace(0.0, 0.8, 256), linspace(0.0, 0.7, 256));
    println!("Batched grid evaluation: {} points", grid.len());

    // Warm both paths, and check equivalence while at it.
    let par = grid.evaluate(&model).expect("parallel grid");
    let seq = grid.evaluate_sequential(&model).expect("sequential grid");
    assert_eq!(
        par.ids, seq.ids,
        "parallel and sequential grids must agree bitwise"
    );

    let loops = 5;
    let t_seq = time_loops(loops, || {
        let _ = grid.evaluate_sequential(&model).expect("sequential grid");
    });
    let t_par = time_loops(loops, || {
        let _ = grid.evaluate(&model).expect("parallel grid");
    });
    println!(
        "  sequential: {:8.1} ms/grid   batched: {:8.1} ms/grid   speed-up: {:.2}x",
        1e3 * t_seq / loops as f64,
        1e3 * t_par / loops as f64,
        t_seq / t_par,
    );

    // VTC corner family: 16 inverter supply corners, one warm-started
    // sweep each, fanned out with sim::sweep_many.
    let shared = Arc::new(model);
    let corners: Vec<f64> = linspace(0.5, 0.95, 16);
    let points_per_vtc = 65;
    println!(
        "\nInverter VTC corners: {} sweeps x {} points via sim::sweep_many",
        corners.len(),
        points_per_vtc,
    );
    let t_vtc = time_loops(1, || {
        let jobs: Vec<SweepSpec> = corners
            .iter()
            .map(|&vdd| SweepSpec::new("VIN", linspace(0.0, vdd, points_per_vtc)))
            .collect();
        // Job k's circuit really runs at corner k's supply; its sweep
        // covers VIN across that supply's full rail.
        let build = |k: usize, _job: &SweepSpec| {
            let tech = CntTechnology::symmetric(shared.clone(), corners[k]);
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            let vin = ckt.node("in");
            let out = ckt.node("out");
            ckt.add(VoltageSource::dc("VDD", vdd, Circuit::ground(), tech.vdd));
            ckt.add(VoltageSource::dc("VIN", vin, Circuit::ground(), 0.0));
            add_inverter(&mut ckt, &tech, "inv", vin, out, vdd);
            ckt
        };
        let results =
            sweep_many(build, &jobs, &NewtonOptions::default()).expect("vtc corner family");
        assert_eq!(results.len(), jobs.len());
    });
    println!("  family completed in {:.1} ms", 1e3 * t_vtc);
}
