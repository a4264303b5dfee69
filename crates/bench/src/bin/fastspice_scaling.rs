//! Fast-SPICE hot path scaling: KLU-style partial refactorization and
//! CNFET device bypass on a ~1000-gate inverter array.
//!
//! The workload is a `rows × stages` array of CNFET inverter chains
//! (3000+ MNA unknowns at the default 125 × 8 = 1000 gates) with a
//! realistic ~12% switching activity: one row in eight is driven by a
//! pulse edge, the rest hold a quiet DC input. A short burst of
//! localised switching followed by a long quiescent tail is the
//! waveform shape real digital blocks spend most of their time in, and
//! the one the fast-SPICE machinery exists for — the quiet rows'
//! devices bypass from the first step, their Jacobian columns drop out
//! of the partial-refactorization frontier, and only the active rows'
//! columns ever replay.
//!
//! Three configurations run the same fixed-step transient, all with
//! per-device voltage limiting off: the engine never limits a bypass
//! run (cached stamps are not a pure function of `x`), so A and B run
//! without it too and the three configs compare like with like — the
//! bench measures refactorisation and bypass, not limiting.
//!
//! * **A — full replay**: partial refactorization off, bypass off (the
//!   pre-fast-SPICE path);
//! * **B — partial** (the default config): partial refactorization on,
//!   bypass off. Must match A **bitwise**;
//! * **C — partial + bypass**: both on, at the engine's
//!   `BYPASS_VTOL` (1e-6 V). A
//!   bypassed device re-stamps cached Jacobian entries **bitwise**, so
//!   once a gate's terminals settle within vtol its columns drop out of
//!   the partial-refactorization frontier entirely; the per-stamp
//!   waveform error is first-order-corrected and O(vtol²).
//!
//! Asserted, not hoped for (at ≥ 1000 gates):
//!
//! 1. config C recomputes < 30% of columns per average Newton iterate
//!    (counter-verified from `TransientStats`);
//! 2. config C bypasses ≥ 50% of CNFET evaluations across the
//!    quiescent-tail transient;
//! 3. config C's factor ops drop ≥ 2× vs config A, with every node
//!    waveform within 1e-9 — and config B is bitwise-identical to A.
//!
//! Pass an optional gate-count argument to resize the array (below
//! 1000 gates the structural assertions still run but the three scaling
//! criteria are reported without being enforced; CI runs the default).

use cntfet_bench::paper_device;
use cntfet_circuit::prelude::*;
use cntfet_circuit::transient::TransientOptions;
use cntfet_core::CompactCntFet;
use std::sync::Arc;

const STAGES: usize = 8;
/// One row in `ACTIVITY_DIV` switches; the rest are quiescent — the
/// ~12% activity factor of a realistic digital block.
const ACTIVITY_DIV: usize = 8;

fn array_circuit(gates: usize) -> (Circuit, f64) {
    let model = Arc::new(CompactCntFet::model2(paper_device(300.0, -0.32)).expect("model 2 fit"));
    let tech = CntTechnology::symmetric(model, 0.8);
    let rows = gates.div_ceil(STAGES).max(1);
    let active = rows.div_ceil(ACTIVITY_DIV);
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let vin = ckt.node("in");
    ckt.add(VoltageSource::dc("VDD", vdd, Circuit::ground(), tech.vdd));
    ckt.add(VoltageSource::with_waveform(
        "VIN",
        vin,
        Circuit::ground(),
        Waveform::Pulse {
            low: 0.0,
            high: tech.vdd,
            delay: 0.0,
            rise: 40e-12,
            width: 1.0,
            fall: 40e-12,
            period: 0.0,
        },
    ));
    add_inverter_array(&mut ckt, &tech, "act", vin, active, STAGES, vdd);
    if rows > active {
        // Quiet rows idle at the pulse's low level (ground) for the
        // whole run.
        add_inverter_array(
            &mut ckt,
            &tech,
            "quiet",
            Circuit::ground(),
            rows - active,
            STAGES,
            vdd,
        );
    }
    (ckt, tech.vdd)
}

struct Config {
    label: &'static str,
    partial: bool,
    bypass: bool,
}

struct Run {
    label: &'static str,
    stats: TransientStats,
    states: Vec<Vec<f64>>,
}

fn run_config(circuit: Circuit, cfg: &Config, t_stop: f64, dt: f64) -> Run {
    let newton = NewtonOptions {
        limiting: false,
        partial_refactor: cfg.partial,
        bypass: cfg.bypass,
        ..NewtonOptions::transient()
    };
    let spec = TransientSpec::fixed(t_stop, dt).with_options(TransientOptions {
        newton,
        integrator: TimeIntegrator::BackwardEuler,
        ..TransientOptions::default()
    });
    let run = Simulator::new(circuit)
        .transient(&spec)
        .unwrap_or_else(|e| panic!("config {}: {e}", cfg.label));
    Run {
        label: cfg.label,
        stats: run.stats,
        states: run.result.states,
    }
}

fn column_ratio(s: &EngineCounters) -> f64 {
    if s.columns_total == 0 {
        return 0.0;
    }
    s.columns_recomputed as f64 / s.columns_total as f64
}

fn bypass_ratio(s: &EngineCounters) -> f64 {
    let attempts = s.device_evals + s.device_bypasses;
    if attempts == 0 {
        return 0.0;
    }
    s.device_bypasses as f64 / attempts as f64
}

fn max_deviation(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    a.iter()
        .zip(b)
        .flat_map(|(xa, xb)| xa.iter().zip(xb).map(|(va, vb)| (va - vb).abs()))
        .fold(0.0f64, f64::max)
}

fn print_run(r: &Run) {
    let s = &r.stats.counters;
    println!(
        "{:<18} {:>7} {:>8} {:>8} {:>8} {:>7.1}% {:>12} {:>9} {:>9} {:>7.1}%",
        r.label,
        r.stats.accepted,
        s.factorizations,
        s.factorizations - s.partial_refactorizations,
        s.partial_refactorizations,
        column_ratio(s) * 100.0,
        s.factor_ops,
        s.device_evals,
        s.device_bypasses,
        bypass_ratio(s) * 100.0,
    );
}

fn main() {
    let gates = std::env::args()
        .nth(1)
        .map(|a| a.parse::<usize>().expect("gate count must be an integer"))
        .unwrap_or(1000);
    let (t_stop, dt) = (2e-9, 10e-12);
    let (probe, _) = array_circuit(gates);
    let unknowns = probe.unknown_count();
    let devices = probe.device_count();
    let rows = gates.div_ceil(STAGES).max(1);
    let active = rows.div_ceil(ACTIVITY_DIV);
    println!(
        "inverter array: {gates} gates ({rows} rows x {STAGES} stages, \
         {active} rows switching), {devices} CNFETs, {unknowns} unknowns"
    );
    println!(
        "fixed backward Euler, t_stop = {:.0} ps, dt = {:.0} ps: one localised input edge, \
         long quiescent tail\n",
        t_stop * 1e12,
        dt * 1e12
    );
    if gates >= 1000 {
        assert!(
            unknowns > 3000,
            "the ≥1000-gate array must exceed 3000 unknowns, got {unknowns}"
        );
    }

    let configs = [
        Config {
            label: "A full-replay",
            partial: false,
            bypass: false,
        },
        Config {
            label: "B partial",
            partial: true,
            bypass: false,
        },
        Config {
            label: "C partial+bypass",
            partial: true,
            bypass: true,
        },
    ];
    println!(
        "{:<18} {:>7} {:>8} {:>8} {:>8} {:>8} {:>12} {:>9} {:>9} {:>8}",
        "config",
        "steps",
        "factors",
        "full",
        "partial",
        "cols",
        "factor_ops",
        "evals",
        "bypassed",
        "byp%"
    );
    let runs: Vec<Run> = configs
        .iter()
        .map(|cfg| {
            let (ckt, _) = array_circuit(gates);
            let r = run_config(ckt, cfg, t_stop, dt);
            print_run(&r);
            r
        })
        .collect();
    let (a, b, c) = (&runs[0], &runs[1], &runs[2]);

    // B (the default config) is the full-replay waveform, bit for bit.
    assert_eq!(a.states.len(), b.states.len());
    for (xa, xb) in a.states.iter().zip(&b.states) {
        for (va, vb) in xa.iter().zip(xb) {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "partial refactorization must be bitwise-exact: {va} vs {vb}"
            );
        }
    }
    assert!(
        b.stats.counters.partial_refactorizations > 0,
        "config B must actually take the partial path"
    );

    let (ca, cc) = (&a.stats.counters, &c.stats.counters);
    let cols_c = column_ratio(cc);
    let byp_c = bypass_ratio(cc);
    let ops_ratio = ca.factor_ops as f64 / cc.factor_ops.max(1) as f64;
    let deviation = max_deviation(&a.states, &c.states);
    println!(
        "\nC vs A: {:.1}% columns recomputed/iterate, {:.1}% CNFET evals bypassed, \
         {ops_ratio:.1}x fewer factor ops, max waveform deviation {deviation:.2e} V",
        cols_c * 100.0,
        byp_c * 100.0
    );

    if gates >= 1000 {
        assert!(
            cols_c < 0.30,
            "criterion 1: partial refactorization must recompute < 30% of \
             columns per average iterate, got {:.1}%",
            cols_c * 100.0
        );
        assert!(
            byp_c >= 0.50,
            "criterion 2: bypass must skip >= 50% of CNFET evaluations on \
             the quiescent-tail transient, got {:.1}%",
            byp_c * 100.0
        );
        assert!(
            ops_ratio >= 2.0,
            "criterion 3: factor ops must drop >= 2x vs full replay, got {ops_ratio:.2}x"
        );
        assert!(
            deviation <= 1e-9,
            "criterion 3: bypass waveform must stay within 1e-9 of the full \
             path, got {deviation:.2e}"
        );
        println!("\nok: all fast-SPICE scaling criteria hold at {gates} gates");
    } else {
        println!("\nsmoke run ({gates} gates): scaling criteria reported, not enforced");
    }
}
