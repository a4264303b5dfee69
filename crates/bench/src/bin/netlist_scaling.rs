//! Netlist scaling: the engine's sparse LU against the dense reference
//! LU on CNFET inverter chains of growing size.
//!
//! For each chain length N the binary reports, at the DC operating
//! point's Jacobian:
//!
//! * unknown count and Jacobian nonzeros,
//! * per-factorisation operation counts (dense formula vs the sparse
//!   solver's measured multiply–accumulate counter),
//! * wall-clock refactorisation times for both factorisations,
//! * the full DC operating-point wall-clock of the engine.
//!
//! Chain sizes default to 2…256 (doubling); pass explicit sizes as
//! arguments for a quicker run (CI smoke-tests `netlist_scaling 2 8`).
//! For N ≥ 64 the binary asserts that the sparse factorisation performs
//! strictly fewer operations than the dense one — the scaling win is a
//! checked property, not a hope.

use cntfet_bench::paper_device;
use cntfet_circuit::element::AnalysisMode;
use cntfet_circuit::prelude::*;
use cntfet_core::CompactCntFet;
use cntfet_numerics::sparse::{dense_lu_ops, DenseLuSolver, SparseLu};
use std::sync::Arc;
use std::time::Instant;

/// Complementary inverter chain of `stages` stages: VDD rail, a DC
/// input source at logic low, and the chain (outputs settle to
/// alternating rails — representative of logic netlists while staying
/// solvable cold at any chain length).
fn chain_circuit(tech: &CntTechnology, stages: usize) -> Circuit {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vin = c.node("in");
    c.add(VoltageSource::dc("VDD", vdd, Circuit::ground(), tech.vdd));
    c.add(VoltageSource::dc("VIN", vin, Circuit::ground(), 0.0));
    add_inverter_chain(&mut c, tech, "chain", vin, stages, vdd);
    c
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    1e3 * t0.elapsed().as_secs_f64()
}

/// Extends a converged `m`-stage chain solution to an initial guess for
/// an `n`-stage chain (`n >= m >= 2`) by replicating the deep-chain
/// stage values with matching parity. Unknown layout of
/// [`chain_circuit`]: `[vdd, in, c0..c{N-1}, I_VDD, I_VIN, (σp, σn)×N]`.
fn extend_guess(prev: &[f64], m: usize, n: usize) -> Vec<f64> {
    assert!(n >= m && m >= 2);
    let mut x0 = vec![0.0; n + 4 + 2 * n];
    x0[0] = prev[0];
    x0[1] = prev[1];
    x0[n + 2] = prev[m + 2]; // VDD branch current (≈ leakage, per chain)
    x0[n + 3] = prev[m + 3]; // VIN branch current
    for i in 0..n {
        let j = if i < m { i } else { m - 2 + (i - (m - 2)) % 2 };
        x0[2 + i] = prev[2 + j];
        x0[n + 4 + 2 * i] = prev[m + 4 + 2 * j];
        x0[n + 5 + 2 * i] = prev[m + 5 + 2 * j];
    }
    x0
}

fn main() {
    let sizes: Vec<usize> = {
        let mut args: Vec<usize> = std::env::args()
            .skip(1)
            .map(|a| a.parse().expect("chain sizes must be positive integers"))
            .collect();
        if args.is_empty() {
            args = vec![2, 4, 8, 16, 32, 64, 128, 256];
        }
        // Ascending order: each size warm-starts from the previous one.
        args.sort_unstable();
        args
    };

    let model = Arc::new(CompactCntFet::model2(paper_device(300.0, -0.32)).expect("model 2 fit"));
    let tech = CntTechnology::symmetric(model, 0.8);

    println!("CNFET inverter-chain scaling: sparse engine LU vs dense reference LU");
    println!(
        "{:>5} {:>7} {:>7} {:>12} {:>12} {:>7} {:>9} {:>9} {:>9}",
        "N", "unk", "nnz", "dense_ops", "sparse_ops", "ratio", "fact_d/ms", "fact_s/ms", "dc/ms"
    );

    // Bootstrap seed when the smallest requested size is already large:
    // a 4-stage chain solves cold at any bias.
    let mut seed: Option<(usize, Vec<f64>)> = None;
    if sizes.first().is_some_and(|&n| n > 8) {
        let small = chain_circuit(&tech, 4);
        let sol = NewtonEngine::new(NewtonOptions::default())
            .dc_operating_point(&small, None)
            .expect("bootstrap dc");
        seed = Some((4, sol.x));
    }

    for &n in &sizes {
        let circuit = chain_circuit(&tech, n);
        let unknowns = circuit.unknown_count();

        // The full nonlinear solve. Cold Newton on a long chain is
        // genuinely hard, so every size warm-starts from the previous
        // size's solution (stage replication) — a realistic incremental
        // workflow.
        let guess: Option<Vec<f64>> = seed
            .as_ref()
            .filter(|(m, _)| *m <= n)
            .map(|(m, x)| extend_guess(x, *m, n));
        let mut engine = NewtonEngine::new(NewtonOptions::default());
        let mut sol = None;
        let dc_ms = time_ms(|| {
            sol = Some(
                engine
                    .dc_operating_point(&circuit, guess.as_deref())
                    .expect("dc"),
            );
        });
        let sol = sol.expect("dc solution");
        seed = Some((n, sol.x.clone()));

        // One Jacobian at the operating point, factored by both solvers.
        let (_, jac) = engine.assemble(&circuit, &sol.x, &AnalysisMode::Dc, 0.0);
        let jac = jac.clone();
        let nnz = jac.nnz();
        let mut dense_solver = DenseLuSolver::new();
        let mut sparse_solver = SparseLu::new();
        // Warm both (first sparse factor includes the pivot search; the
        // timed loop below measures the steady-state refactor path that
        // Newton iterations actually pay).
        dense_solver.factor(&jac).expect("dense factor");
        sparse_solver
            .factor(jac.pattern(), jac.values())
            .expect("sparse symbolic factor");
        let reps = 5;
        let fact_dense_ms = time_ms(|| {
            for _ in 0..reps {
                dense_solver.factor(&jac).expect("dense factor");
            }
        }) / reps as f64;
        let fact_sparse_ms = time_ms(|| {
            for _ in 0..reps {
                sparse_solver
                    .factor(jac.pattern(), jac.values())
                    .expect("sparse refactor");
            }
        }) / reps as f64;
        let dense_ops = dense_lu_ops(unknowns);
        let sparse_ops = sparse_solver.factor_ops();

        // The factored systems must agree on a solve as well.
        let rhs: Vec<f64> = (0..unknowns).map(|i| (i % 7) as f64 * 1e-6).collect();
        let xd = dense_solver.solve_factored(&rhs).expect("dense solve");
        let xs = sparse_solver.solve_factored(&rhs).expect("sparse solve");
        let solve_diff = xd
            .iter()
            .zip(&xs)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            solve_diff < 1e-6 * (1.0 + cntfet_numerics::stats::inf_norm(&xd)),
            "factored solves disagree by {solve_diff}"
        );

        println!(
            "{:>5} {:>7} {:>7} {:>12} {:>12} {:>7.1} {:>9.3} {:>9.3} {:>9.1}",
            n,
            unknowns,
            nnz,
            dense_ops,
            sparse_ops,
            dense_ops as f64 / sparse_ops as f64,
            fact_dense_ms,
            fact_sparse_ms,
            dc_ms,
        );

        if n >= 64 {
            assert!(
                sparse_ops < dense_ops,
                "sparse factorisation must beat dense op count at N = {n}: \
                 {sparse_ops} vs {dense_ops}"
            );
        }
    }
    println!("\nok: sparse factorisation op count < dense for every N >= 64 run");
}
