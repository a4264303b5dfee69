//! Three-stage CNT ring oscillator: adaptive transient simulation of
//! the compact model inside the MNA engine — the "practical logic
//! circuit structures" of the paper's future-work section.
//!
//! The run drives a `Simulator` session with an adaptive
//! `TransientSpec` (LTE-controlled BDF2), which resolves the ~32 ps
//! oscillation with several times fewer steps than the fixed
//! backward-Euler grid this example used historically (see the
//! `transient_scaling` bench for the measured comparison).
//!
//! Run with `cargo run --release --example ring_oscillator`.

use cntfet::circuit::prelude::*;
use cntfet::core::CompactCntFet;
use cntfet::reference::DeviceParams;
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    let model = Arc::new(CompactCntFet::model2(DeviceParams::paper_default())?);
    let tech = CntTechnology::symmetric(model, 0.8);

    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.add(VoltageSource::dc("VDD", vdd, Circuit::ground(), tech.vdd));
    let stages = add_ring_oscillator(&mut ckt, &tech, "ring", 3, vdd);

    // Start from an asymmetric state so the ring leaves metastability.
    let mut x0 = vec![tech.vdd / 2.0; ckt.unknown_count()];
    if let Some(i) = stages[0].unknown_index() {
        x0[i] = tech.vdd;
    }
    if let Some(i) = stages[1].unknown_index() {
        x0[i] = 0.0;
    }

    let t_stop = 4e-9;
    let options = TransientOptions {
        dt_init: Some(1e-12),
        dt_max: Some(50e-12),
        rel_tol: 1e-2,
        abs_tol: 1e-4,
        ..TransientOptions::default()
    };
    let mut sim = Simulator::new(ckt);
    let run = sim.transient(
        &TransientSpec::adaptive(t_stop)
            .with_options(options)
            .with_initial(x0),
    )?;
    let w0 = run.result.waveform(stages[0]);

    println!(
        "# 3-stage CNT ring oscillator, VDD = {} V, adaptive {:?}",
        tech.vdd, options.integrator
    );
    println!(
        "# accepted {} steps, rejected {} (LTE) + {} (Newton), \
         {} Newton iterations, {} factorisations",
        run.stats.accepted,
        run.stats.rejected_lte,
        run.stats.rejected_newton,
        run.stats.newton_iterations,
        run.stats.counters.factorizations
    );
    println!("t[ns]\tstage0[V]");
    for (t, v) in run.result.time.iter().zip(&w0).step_by(20) {
        println!("{:.4}\t{v:.4}", t * 1e9);
    }

    // Estimate the oscillation period from mid-rail crossings in the
    // second half of the run (after start-up); the `crossings` helper
    // interpolates between the variably spaced accepted points.
    let mid = tech.vdd / 2.0;
    let crossings: Vec<f64> = run
        .result
        .crossings(stages[0], mid)
        .into_iter()
        .filter(|&(t, _)| t >= t_stop / 2.0)
        .map(|(t, _)| t)
        .collect();
    if crossings.len() >= 3 {
        // Both edge directions are included, so crossings are half a
        // period apart.
        let period = 2.0 * (crossings.last().expect("non-empty") - crossings[0])
            / (crossings.len() - 1) as f64;
        println!(
            "# oscillation period ~ {:.1} ps  (f ~ {:.1} GHz)",
            period * 1e12,
            1e-9 / period
        );
    } else {
        println!("# no sustained oscillation detected — check stage loading");
    }
    Ok(())
}
