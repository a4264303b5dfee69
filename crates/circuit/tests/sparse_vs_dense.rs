//! The sparse LU against the dense reference LU.
//!
//! The engine factors every Newton system with the sparse LU. At states
//! along each random netlist's solve, the Newton step `J·dx = −F` that
//! [`NewtonEngine::assemble`] produces must solve to the same `dx` with
//! the sparse solver and with the dense partial-pivoting LU kept as a
//! reference, to ≤ 1e-10 relative; and on a large inverter chain the
//! sparse factorisation performs strictly fewer operations.

mod support;

use cntfet_circuit::element::{AnalysisMode, TransientStamp};
use cntfet_circuit::prelude::*;
use cntfet_circuit::transient::TransientOptions;
use cntfet_numerics::sparse::{dense_lu_ops, DenseLuSolver, SparseLu};
use cntfet_numerics::stats::inf_norm;
use proptest::prelude::*;
use support::{mixed_netlist, model};

/// Relative disagreement `‖dx_s − dx_d‖∞ / ‖dx_d‖∞` of the sparse and
/// dense solutions of the Newton step `J·dx = −F` assembled at `x`
/// (0 when the step itself is 0).
fn step_disagreement(c: &Circuit, x: &[f64], mode: &AnalysisMode) -> f64 {
    let mut engine = NewtonEngine::new(NewtonOptions::default());
    let (f, j) = engine.assemble(c, x, mode, 0.0);
    let neg_f: Vec<f64> = f.iter().map(|v| -v).collect();
    let dense = DenseLuSolver::new().solve(j, &neg_f).expect("dense solve");
    let mut lu = SparseLu::new();
    lu.factor(j.pattern(), j.values()).expect("sparse factor");
    let sparse = lu.solve_factored(&neg_f).expect("sparse solve");
    let diff = dense
        .iter()
        .zip(&sparse)
        .map(|(d, s)| (d - s).abs())
        .fold(0.0f64, f64::max);
    let scale = inf_norm(&dense);
    if scale == 0.0 {
        diff
    } else {
        diff / scale
    }
}

/// Three states on the way from the cold start to the DC solution: the
/// start, the midpoint and the solution itself.
fn dc_states(solution: &[f64]) -> [Vec<f64>; 3] {
    let half = solution.iter().map(|v| 0.5 * v).collect();
    [vec![0.0; solution.len()], half, solution.to_vec()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomised linear ladder networks (V and I sources, resistor
    /// rungs and cross-links).
    #[test]
    fn linear_netlists_agree(
        rungs in proptest::collection::vec(100.0f64..1e5, 3..12),
        cross in proptest::collection::vec(1e3f64..1e6, 0..6),
        vsrc in -5.0f64..5.0,
        isrc in -1e-3f64..1e-3,
    ) {
        let mut c = Circuit::new();
        let top = c.node("top");
        c.add(VoltageSource::dc("V1", top, Circuit::ground(), vsrc));
        let mut prev = top;
        let mut nodes = vec![top];
        for (i, &r) in rungs.iter().enumerate() {
            let nxt = c.node(&format!("n{i}"));
            c.add(Resistor::new(&format!("R{i}"), prev, nxt, r));
            nodes.push(nxt);
            prev = nxt;
        }
        c.add(Resistor::new("Rend", prev, Circuit::ground(), 1e4));
        // Cross-links make the pattern less trivially banded.
        for (k, &r) in cross.iter().enumerate() {
            let a = nodes[k % nodes.len()];
            let b = nodes[(k * 3 + 1) % nodes.len()];
            if a != b {
                c.add(Resistor::new(&format!("Rx{k}"), a, b, r));
            }
        }
        c.add(CurrentSource::dc("I1", Circuit::ground(), prev, isrc));
        let sol = NewtonEngine::new(NewtonOptions::default())
            .dc_operating_point(&c, None)
            .expect("dc");
        for x in dc_states(&sol.x) {
            let rel = step_disagreement(&c, &x, &AnalysisMode::Dc);
            prop_assert!(rel <= 1e-10, "sparse vs dense Newton step differ by {rel}");
        }
    }

    /// Randomised CNFET inverter chains with resistive loads.
    #[test]
    fn cnfet_netlists_agree(
        stages in 1usize..4,
        vdd in 0.6f64..0.9,
        vin_frac in 0.0f64..1.0,
        load in 5e4f64..5e5,
    ) {
        let tech = CntTechnology::symmetric(model(), vdd);
        let mut c = Circuit::new();
        let vdd_node = c.node("vdd");
        let vin = c.node("in");
        c.add(VoltageSource::dc("VDD", vdd_node, Circuit::ground(), vdd));
        c.add(VoltageSource::dc("VIN", vin, Circuit::ground(), vin_frac * vdd));
        let outs = add_inverter_chain(&mut c, &tech, "chain", vin, stages, vdd_node);
        for (i, &o) in outs.iter().enumerate() {
            c.add(Resistor::new(&format!("RL{i}"), o, Circuit::ground(), load));
        }
        let sol = NewtonEngine::new(NewtonOptions::default())
            .dc_operating_point(&c, None)
            .expect("dc");
        for x in dc_states(&sol.x) {
            let rel = step_disagreement(&c, &x, &AnalysisMode::Dc);
            prop_assert!(rel <= 1e-10, "sparse vs dense Newton step differ by {rel}");
        }
    }

    /// The fast-SPICE corpus: CNFET inverter chains driving a resistor
    /// ladder with capacitive loads and a current-source disturbance.
    #[test]
    fn mixed_netlists_agree(
        stages in 1usize..4,
        rungs in proptest::collection::vec(1e3f64..1e5, 2..6),
        vdd in 0.6f64..0.9,
        isrc in -1e-6f64..1e-6,
    ) {
        let c = mixed_netlist(stages, &rungs, vdd, isrc);
        let sol = NewtonEngine::new(NewtonOptions::default())
            .dc_operating_point(&c, None)
            .expect("dc");
        for x in dc_states(&sol.x) {
            let rel = step_disagreement(&c, &x, &AnalysisMode::Dc);
            prop_assert!(rel <= 1e-10, "sparse vs dense Newton step differ by {rel}");
        }
    }

    /// Backward-Euler transients on random RC ladders: the step systems
    /// at every accepted time point.
    #[test]
    fn rc_transients_agree(
        rs in proptest::collection::vec(1e2f64..1e4, 2..6),
        c_f in 1e-12f64..1e-10,
    ) {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        ckt.add(VoltageSource::with_waveform(
            "V1",
            vin,
            Circuit::ground(),
            Waveform::Pulse {
                low: 0.0,
                high: 1.0,
                delay: 0.0,
                rise: 1e-10,
                width: 1.0,
                fall: 1e-10,
                period: 0.0,
            },
        ));
        let mut prev = vin;
        for (i, &r) in rs.iter().enumerate() {
            let nxt = ckt.node(&format!("n{i}"));
            ckt.add(Resistor::new(&format!("R{i}"), prev, nxt, r));
            ckt.add(Capacitor::new(&format!("C{i}"), nxt, Circuit::ground(), c_f));
            prev = nxt;
        }
        let tau = rs.iter().sum::<f64>() * c_f;
        let spec = TransientSpec::fixed(2.0 * tau, tau / 50.0).with_options(TransientOptions {
            integrator: TimeIntegrator::BackwardEuler,
            ..TransientOptions::default()
        });
        let mut sim = Simulator::new(ckt);
        let run = sim.transient(&spec).expect("tran").result;
        let states = run.time.windows(2).zip(run.states.windows(2));
        for (t, x) in states {
            // The step system from x[0] to t[1], at the start of the
            // step and at its accepted solution.
            let stamp = TransientStamp::backward_euler(t[1], t[1] - t[0], &x[0]);
            let mode = AnalysisMode::Transient(stamp);
            for at in [&x[0], &x[1]] {
                let rel = step_disagreement(sim.circuit(), at, &mode);
                prop_assert!(rel <= 1e-10, "sparse vs dense Newton step differ by {rel}");
            }
        }
    }
}

/// Acceptance criterion of the sparse engine: on a 64-stage CNFET
/// inverter chain the sparse factorisation performs strictly fewer
/// operations than the dense O(n³) LU — measured by the solver's own
/// multiply–accumulate counter, not assumed.
#[test]
fn sparse_factorisation_beats_dense_ops_on_64_stage_chain() {
    let tech = CntTechnology::symmetric(model(), 0.8);
    let mut c = Circuit::new();
    let vdd_node = c.node("vdd");
    let vin = c.node("in");
    c.add(VoltageSource::dc(
        "VDD",
        vdd_node,
        Circuit::ground(),
        tech.vdd,
    ));
    c.add(VoltageSource::dc(
        "VIN",
        vin,
        Circuit::ground(),
        0.4 * tech.vdd,
    ));
    add_inverter_chain(&mut c, &tech, "chain", vin, 64, vdd_node);
    let n = c.unknown_count();
    assert!(n > 150, "64-stage chain must be a large system, got {n}");

    // One Jacobian, factored by both solver implementations.
    let mut engine = NewtonEngine::new(NewtonOptions::default());
    let x0 = vec![0.0; n];
    let (_, jac) = engine.assemble(&c, &x0, &AnalysisMode::Dc, 0.0);
    let jac = jac.clone();
    let mut dense = DenseLuSolver::new();
    let mut sparse = SparseLu::new();
    dense.factor(&jac).expect("dense factor");
    sparse
        .factor(jac.pattern(), jac.values())
        .expect("sparse factor (with pivot search)");
    assert_eq!(dense.factor_ops(), dense_lu_ops(n));
    assert!(
        sparse.factor_ops() < dense.factor_ops(),
        "sparse must do fewer ops: {} vs {}",
        sparse.factor_ops(),
        dense.factor_ops()
    );
    // The chain couples only neighbouring stages, so the win should be
    // dramatic, not marginal.
    assert!(
        sparse.factor_ops() * 10 < dense.factor_ops(),
        "expected >=10x fewer ops on a banded chain: {} vs {}",
        sparse.factor_ops(),
        dense.factor_ops()
    );
    // Refactorisation (the per-Newton-iteration path) replays the same
    // elimination: same op count, no pivot search.
    sparse
        .factor(jac.pattern(), jac.values())
        .expect("sparse refactor");
    assert_eq!(sparse.factor_path_stats().replay_refactorizations, 1);

    // And the two factorisations solve to the same answer.
    let rhs: Vec<f64> = (0..n).map(|i| ((i % 5) as f64 - 2.0) * 1e-6).collect();
    let xd = dense.solve_factored(&rhs).expect("dense solve");
    let xs = sparse.solve_factored(&rhs).expect("sparse solve");
    let scale = inf_norm(&xd).max(1.0);
    for (a, b) in xd.iter().zip(&xs) {
        assert!(
            (a - b).abs() <= 1e-8 * scale,
            "factored solves disagree: {a} vs {b}"
        );
    }
}

/// Along a warm-started inverter VTC sweep, the Newton step at every
/// sweep point solves the same with both LUs.
#[test]
fn inverter_vtc_sweep_agrees_between_backends() {
    let tech = CntTechnology::symmetric(model(), 0.8);
    let mut c = Circuit::new();
    let vdd_node = c.node("vdd");
    let vin = c.node("in");
    let out = c.node("out");
    c.add(VoltageSource::dc(
        "VDD",
        vdd_node,
        Circuit::ground(),
        tech.vdd,
    ));
    c.add(VoltageSource::dc("VIN", vin, Circuit::ground(), 0.0));
    add_inverter(&mut c, &tech, "inv", vin, out, vdd_node);
    c.add(Resistor::new("RL", out, Circuit::ground(), 1e5));
    let vals: Vec<f64> = (0..=16).map(|i| 0.8 * i as f64 / 16.0).collect();
    let mut sim = Simulator::new(c);
    let sweep = sim
        .dc_sweep(&SweepSpec::new("VIN", vals.clone()))
        .expect("sweep");
    for (v, sol) in vals.iter().zip(&sweep.solutions) {
        sim.set_source("VIN", *v).expect("VIN exists");
        for x in dc_states(&sol.x) {
            let rel = step_disagreement(sim.circuit(), &x, &AnalysisMode::Dc);
            assert!(rel <= 1e-10, "VIN = {v}: Newton steps differ by {rel}");
        }
    }
}
