//! Transient scaling: fixed-step backward Euler vs LTE-controlled
//! adaptive BDF2 on the 3-stage CNT ring oscillator, at matched
//! oscillation-period accuracy.
//!
//! The ring oscillator is the adversarial case for adaptive stepping —
//! some stage is always switching, so there are no flat regions to skip
//! and the whole win must come from the integrator's order. The binary:
//!
//! 1. builds a Richardson-extrapolated reference period from the two
//!    tightest fixed backward-Euler runs (62.5 fs and 125 fs steps),
//!    which cancels backward Euler's first-order period bias;
//! 2. walks the standard halving ladder from the historical 1 ps step
//!    down to 62.5 fs and picks the *coarsest* fixed run whose period
//!    is within 1% of the reference — the refinement a practitioner
//!    would land on;
//! 3. runs the adaptive BDF2 integrator and checks its period against
//!    the same 1% budget.
//!
//! For each run it reports accepted steps, rejected steps, Newton
//! iterations and factorisation operation counts. Two properties are
//! asserted, not hoped for:
//!
//! * both the matched fixed run and the adaptive run are within 1% of
//!   the reference period;
//! * the adaptive run takes at least 5× fewer accepted steps than the
//!   matched fixed-step run.
//!
//! Pass an optional argument to override the simulated duration in
//! nanoseconds (default 4.0; CI smoke-runs the default).

use cntfet_bench::paper_device;
use cntfet_circuit::prelude::*;
use cntfet_core::CompactCntFet;
use std::sync::Arc;

/// 3-stage ring oscillator with an asymmetric initial state (the same
/// setup as `examples/ring_oscillator.rs`).
fn ring_circuit() -> (Circuit, Vec<NodeId>, Vec<f64>, f64) {
    let model = Arc::new(CompactCntFet::model2(paper_device(300.0, -0.32)).expect("model 2 fit"));
    let tech = CntTechnology::symmetric(model, 0.8);
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.add(VoltageSource::dc("VDD", vdd, Circuit::ground(), tech.vdd));
    let stages = add_ring_oscillator(&mut ckt, &tech, "ring", 3, vdd);
    let mut x0 = vec![tech.vdd / 2.0; ckt.unknown_count()];
    if let Some(i) = stages[0].unknown_index() {
        x0[i] = tech.vdd;
    }
    if let Some(i) = stages[1].unknown_index() {
        x0[i] = 0.0;
    }
    (ckt, stages, x0, tech.vdd)
}

/// Oscillation period from rising mid-rail crossings after `t_min`
/// (start-up excluded), via the interpolating
/// [`TransientResult::crossings`] helper so the estimate resolves far
/// below the step size on both uniform and adaptive grids.
fn period(result: &TransientResult, node: NodeId, mid: f64, t_min: f64) -> Option<f64> {
    let rising: Vec<f64> = result
        .crossings(node, mid)
        .into_iter()
        .filter(|&(t, is_rising)| is_rising && t >= t_min)
        .map(|(t, _)| t)
        .collect();
    if rising.len() >= 3 {
        Some((rising.last().expect("non-empty") - rising[0]) / (rising.len() - 1) as f64)
    } else {
        None
    }
}

struct Row {
    label: String,
    dt: Option<f64>,
    stats: TransientStats,
    period: f64,
}

fn print_row(r: &Row, p_ref: f64) {
    println!(
        "{:<18} {:>9} {:>8} {:>8} {:>9} {:>12} {:>9.4} {:>+8.2}%",
        r.label,
        r.dt.map_or("-".to_string(), |d| format!("{:.1}", d * 1e15)),
        r.stats.accepted,
        r.stats.rejected_lte + r.stats.rejected_newton,
        r.stats.newton_iterations,
        r.stats.counters.factor_ops,
        r.period * 1e12,
        (r.period - p_ref) / p_ref * 100.0,
    );
}

fn main() {
    let t_stop = std::env::args()
        .nth(1)
        .map(|a| a.parse::<f64>().expect("t_stop must be a number (ns)") * 1e-9)
        .unwrap_or(4e-9);
    let (ckt, stages, x0, vdd) = ring_circuit();
    // One session for the whole ladder: the MNA pattern and solver
    // ordering are recorded once and reused by every run.
    let mut sim = Simulator::new(ckt);
    let mid = vdd / 2.0;
    let be = TransientOptions {
        integrator: TimeIntegrator::BackwardEuler,
        ..TransientOptions::default()
    };

    println!(
        "3-stage CNT ring oscillator, t_stop = {:.1} ns",
        t_stop * 1e9
    );
    println!("fixed backward Euler (halving ladder) vs adaptive BDF2\n");

    // Fixed backward-Euler halving ladder, the historical 1 ps step at
    // the coarse end. Finest two rungs double as the reference pair.
    let ladder: Vec<f64> = vec![1e-12, 0.5e-12, 0.25e-12, 0.125e-12, 0.0625e-12];
    let mut fixed_rows = Vec::new();
    for &dt in &ladder {
        let spec = TransientSpec::fixed(t_stop, dt)
            .with_options(be)
            .with_initial(x0.clone());
        let run = sim.transient(&spec).expect("fixed run");
        let p = period(&run.result, stages[0], mid, t_stop / 2.0)
            .unwrap_or_else(|| panic!("no oscillation at fixed dt = {dt:.3e}"));
        fixed_rows.push(Row {
            label: "fixed-be".to_string(),
            dt: Some(dt),
            stats: run.stats,
            period: p,
        });
    }
    // Richardson extrapolation over the two finest rungs cancels the
    // integrator's O(dt) period bias: P(dt) ≈ P0 + c·dt.
    let p_fine = fixed_rows[ladder.len() - 1].period;
    let p_half = fixed_rows[ladder.len() - 2].period;
    let p_ref = 2.0 * p_fine - p_half;
    println!(
        "reference period (Richardson from the two finest rungs): {:.4} ps\n",
        p_ref * 1e12
    );
    println!(
        "{:<18} {:>9} {:>8} {:>8} {:>9} {:>12} {:>9} {:>9}",
        "run", "dt/fs", "accepted", "rejected", "newton", "factor_ops", "period/ps", "error"
    );
    for r in &fixed_rows {
        print_row(r, p_ref);
    }

    // Coarsest fixed run within the 1% period budget — what halving-
    // until-converged refinement would settle on.
    let budget = 0.01;
    let matched = fixed_rows
        .iter()
        .find(|r| ((r.period - p_ref) / p_ref).abs() <= budget)
        .expect("some fixed rung must meet the 1% budget");
    assert!(
        ((fixed_rows[0].period - p_ref) / p_ref).abs() > budget,
        "the historical 1 ps step should NOT meet the 1% budget \
         (otherwise this comparison is vacuous)"
    );

    // Adaptive BDF2. The tolerances are deliberately loose: period
    // accuracy is a phase property and survives local amplitude error,
    // so the LTE controller is conservative with respect to it.
    let adaptive_opts = TransientOptions {
        rel_tol: 5e-2,
        abs_tol: 5e-4,
        dt_init: Some(1e-12),
        dt_max: Some(50e-12),
        ..TransientOptions::default()
    };
    let spec = TransientSpec::adaptive(t_stop)
        .with_options(adaptive_opts)
        .with_initial(x0.clone());
    let run = sim.transient(&spec).expect("adaptive run");
    let p_adaptive = period(&run.result, stages[0], mid, t_stop / 2.0)
        .expect("no oscillation in the adaptive run");
    let adaptive_row = Row {
        label: "adaptive-bdf2".to_string(),
        dt: None,
        stats: run.stats,
        period: p_adaptive,
    };
    print_row(&adaptive_row, p_ref);

    let fixed_err = ((matched.period - p_ref) / p_ref).abs();
    let adaptive_err = ((p_adaptive - p_ref) / p_ref).abs();
    let ratio = matched.stats.accepted as f64 / adaptive_row.stats.accepted as f64;
    println!(
        "\nmatched fixed run: dt = {:.1} fs, {} accepted steps ({:+.2}% period error)",
        matched.dt.expect("fixed rows have dt") * 1e15,
        matched.stats.accepted,
        fixed_err * 100.0
    );
    println!(
        "adaptive run: {} accepted steps ({:+.2}% period error) → {ratio:.1}× fewer steps",
        adaptive_row.stats.accepted,
        adaptive_err * 100.0
    );
    assert!(
        fixed_err <= budget && adaptive_err <= budget,
        "matched-accuracy precondition violated: fixed {:.2}%, adaptive {:.2}%",
        fixed_err * 100.0,
        adaptive_err * 100.0
    );
    assert!(
        ratio >= 5.0,
        "adaptive must take >= 5x fewer accepted steps than the matched \
         fixed run: {} vs {}",
        adaptive_row.stats.accepted,
        matched.stats.accepted
    );
    println!("\nok: adaptive BDF2 beats matched-accuracy fixed backward Euler by >= 5x");
}
