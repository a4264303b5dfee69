//! Fast-SPICE hot path scaling: KLU-style partial refactorization on
//! a ~1000-gate inverter array.
//!
//! The workload is a `rows × stages` array of CNFET inverter chains
//! (3000+ MNA unknowns at the default 125 × 8 = 1000 gates) with a
//! realistic ~12% switching activity: one row in eight is driven by a
//! pulse edge, the rest hold a quiet DC input. A short burst of
//! localised switching followed by a long quiescent tail is the
//! waveform shape real digital blocks spend most of their time in, and
//! the one partial refactorization exists for — Jacobian slots whose
//! values repeat bitwise from one factorization to the next need no
//! recompute, so only the columns reached from changed slots replay.
//!
//! Two configurations run the same fixed-step transient, both with
//! per-device voltage limiting off: the bench measures refactorisation,
//! not limiting. (With limiting on, healthy steps beyond a device's 2 V
//! swing window are clamped and backtracked, and config A takes 197
//! factorisations instead of 91 on the default array.)
//!
//! * **A — full replay**: partial refactorization off (the
//!   pre-fast-SPICE path);
//! * **B — partial** (the default config): partial refactorization on.
//!   Must match A **bitwise** and actually take the partial path.
//!
//! Asserted, not hoped for (at ≥ 1000 gates): config B recomputes
//! strictly fewer columns and spends strictly fewer factor ops than
//! config A (counter-verified from `TransientStats`), and the sparse
//! LU plan of the array's transient Jacobian stores at most 1.25 × its
//! nnz L+U entries (measured through `NewtonEngine::assemble` with a
//! `TransientStamp`, then `SparseLu::factor`, at the run's first
//! backward-Euler step).
//!
//! Pass an optional gate-count argument to resize the array (below
//! 1000 gates the bitwise and partial-path assertions still run but
//! the three scaling criteria are reported without being enforced; CI
//! runs the default).

use cntfet_bench::paper_device;
use cntfet_circuit::element::{AnalysisMode, TransientStamp};
use cntfet_circuit::prelude::*;
use cntfet_circuit::transient::TransientOptions;
use cntfet_core::CompactCntFet;
use cntfet_numerics::sparse::SparseLu;
use std::sync::Arc;

const STAGES: usize = 8;
/// One row in `ACTIVITY_DIV` switches; the rest are quiescent — the
/// ~12% activity factor of a realistic digital block.
const ACTIVITY_DIV: usize = 8;

fn array_circuit(gates: usize) -> Circuit {
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
    ckt
}

struct Config {
    label: &'static str,
    partial: bool,
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

fn print_run(r: &Run) {
    let s = &r.stats.counters;
    println!(
        "{:<14} {:>7} {:>8} {:>8} {:>8} {:>7.1}% {:>12} {:>9}",
        r.label,
        r.stats.accepted,
        s.factorizations,
        s.factorizations - s.partial_refactorizations,
        s.partial_refactorizations,
        column_ratio(s) * 100.0,
        s.factor_ops,
        s.device_evals,
    );
}

/// The transient Jacobian at the first backward-Euler step from `prev`
/// to `x` and its sparse LU plan: (Jacobian nnz, plan L+U entries,
/// plan factor ops).
fn transient_plan(circuit: &Circuit, prev: &[f64], x: &[f64], dt: f64) -> (usize, usize, u64) {
    let mut engine = NewtonEngine::new(NewtonOptions::transient());
    let mode = AnalysisMode::Transient(TransientStamp::backward_euler(dt, dt, prev));
    let (_, j) = engine.assemble(circuit, x, &mode, 0.0);
    let mut lu = SparseLu::<f64>::new();
    lu.factor(j.pattern(), j.values())
        .expect("the transient Jacobian factors");
    (j.nnz(), lu.factor_nnz(), lu.factor_ops())
}

fn main() {
    let gates = std::env::args()
        .nth(1)
        .map(|a| a.parse::<usize>().expect("gate count must be an integer"))
        .unwrap_or(1000);
    let (t_stop, dt) = (2e-9, 10e-12);
    let probe = array_circuit(gates);
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
        },
        Config {
            label: "B partial",
            partial: true,
        },
    ];
    println!(
        "{:<14} {:>7} {:>8} {:>8} {:>8} {:>8} {:>12} {:>9}",
        "config", "steps", "factors", "full", "partial", "cols", "factor_ops", "evals"
    );
    let runs: Vec<Run> = configs
        .iter()
        .map(|cfg| {
            let ckt = array_circuit(gates);
            let r = run_config(ckt, cfg, t_stop, dt);
            print_run(&r);
            r
        })
        .collect();
    let (a, b) = (&runs[0], &runs[1]);

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

    let (nnz, lu_nnz, lu_ops) = transient_plan(&probe, &b.states[0], &b.states[1], dt);
    let fill_ratio = lu_nnz as f64 / nnz as f64;
    println!(
        "\ntransient Jacobian: {nnz} entries; LU plan: {lu_nnz} L+U entries \
         ({fill_ratio:.2}x), {lu_ops} ops"
    );

    let (ca, cb) = (&a.stats.counters, &b.stats.counters);
    let ops_ratio = ca.factor_ops as f64 / cb.factor_ops.max(1) as f64;
    println!(
        "\nB vs A: {:.1}% vs {:.1}% columns recomputed/iterate, \
         {ops_ratio:.2}x fewer factor ops",
        column_ratio(cb) * 100.0,
        column_ratio(ca) * 100.0
    );

    if gates >= 1000 {
        assert!(
            cb.columns_recomputed < ca.columns_recomputed,
            "partial refactorization must recompute fewer columns than full replay: \
             {} vs {}",
            cb.columns_recomputed,
            ca.columns_recomputed
        );
        assert!(
            cb.factor_ops < ca.factor_ops,
            "partial refactorization must spend fewer factor ops than full replay: \
             {} vs {}",
            cb.factor_ops,
            ca.factor_ops
        );
        assert!(
            fill_ratio <= 1.25,
            "the transient LU plan must store at most 1.25x the Jacobian's entries: \
             {lu_nnz} L+U entries for {nnz}"
        );
        println!("\nok: partial refactorization beats full replay at {gates} gates");
    } else {
        println!("\nsmoke run ({gates} gates): scaling criteria reported, not enforced");
    }
}
