//! Property tests of the fast-SPICE hot path.
//!
//! **Partial refactorization is exact**: over a randomised netlist
//! corpus, solving with `partial_refactor` on vs off agrees to ≤ 1e-12
//! on every node voltage, across DC sweeps and transient step changes.
//! (The implementation is in fact bitwise-identical — the partial
//! replay runs the same arithmetic on the recomputed columns and reuses
//! the rest verbatim — the 1e-12 bound is the acceptance criterion's
//! safety margin.) The `sparse_vs_dense` tests check the same corpus's
//! Newton steps against the dense LU.

mod support;

use cntfet_circuit::prelude::*;
use cntfet_circuit::transient::TransientOptions;
use proptest::prelude::*;
use support::mixed_netlist;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// DC: sweeping VDD re-values CNFET slots at every point;
    /// partial-on and partial-off sweeps agree to ≤ 1e-12.
    #[test]
    fn partial_refactor_matches_full_on_dc_sweeps(
        stages in 1usize..4,
        rungs in proptest::collection::vec(1e3f64..1e5, 2..6),
        vdd in 0.6f64..0.9,
        isrc in -1e-6f64..1e-6,
    ) {
        let sweep_vals: Vec<f64> = (0..8).map(|k| vdd * (0.5 + 0.5 * k as f64 / 7.0)).collect();
        let spec = SweepSpec::new("VDD", sweep_vals);
        let run = |partial: bool| {
            let opts = NewtonOptions { partial_refactor: partial, ..NewtonOptions::default() };
            Simulator::with_options(mixed_netlist(stages, &rungs, vdd, isrc), opts)
                .dc_sweep(&spec)
                .expect("dc sweep")
        };
        let rp = run(true);
        let rf = run(false);
        for (sp, sf) in rp.solutions.iter().zip(&rf.solutions) {
            for (a, b) in sp.x.iter().zip(&sf.x) {
                prop_assert!((a - b).abs() <= 1e-12, "partial {a} vs full {b}");
            }
        }
    }

    /// Transient: a pulse edge (step change) makes every CNFET slot
    /// churn, then the tail goes quiescent; partial-on and partial-off
    /// waveforms agree to ≤ 1e-12 at every stored state.
    #[test]
    fn partial_refactor_matches_full_on_transients(
        stages in 1usize..3,
        rungs in proptest::collection::vec(1e3f64..1e5, 2..4),
        vdd in 0.6f64..0.9,
    ) {
        let spec = |partial: bool| {
            TransientSpec::fixed(2e-9, 2e-11).with_options(TransientOptions {
                newton: NewtonOptions { partial_refactor: partial, ..NewtonOptions::default() },
                integrator: TimeIntegrator::BackwardEuler,
                ..TransientOptions::default()
            })
        };
        let run = |partial: bool| {
            Simulator::new(mixed_netlist(stages, &rungs, vdd, 0.0))
                .transient(&spec(partial))
                .expect("transient")
        };
        let rp = run(true);
        let rf = run(false);
        prop_assert!(rp.stats.counters.partial_refactorizations > 0, "partial path must engage");
        prop_assert_eq!(rf.stats.counters.partial_refactorizations, 0);
        prop_assert_eq!(rp.result.time.len(), rf.result.time.len());
        for (xp, xf) in rp.result.states.iter().zip(&rf.result.states) {
            for (a, b) in xp.iter().zip(xf) {
                prop_assert!((a - b).abs() <= 1e-12, "partial {a} vs full {b}");
            }
        }
    }
}

/// Regression guard for the historical damped-Newton limit cycle on
/// hard-switching series stacks.
///
/// Two NAND-wired inverters (both NAND2 inputs tied, so the n-side is
/// a two-transistor series stack whose internal node carries almost no
/// capacitance) driven by a 40 ps edge under fixed 10 ps backward-Euler
/// steps — the gain of the first stage turns the 0.225 V/step input
/// ramp into a ≥ 0.4 V/step swing at the internal nodes, and the plain
/// line search used to oscillate between two points with the residual
/// stalled around 1e-8…1e-9 A (three decades above the engine's
/// node-current tolerance). The convergence-robustness ladder (voltage
/// limiting → Armijo damping with the stagnation detector →
/// pseudo-transient continuation on the weakly-loaded stack node) now
/// carries these steps to convergence; the standard-cell library no
/// longer needs the `cm` workaround parasitic this deck always
/// omitted.
#[test]
fn nand_stack_limit_cycle_regression() {
    let deck = cntfet_circuit::deck::Deck::parse(
        "nand-wired inverter chain, no stack parasitic
.model nfet cnfet polarity=n
.model pfet cnfet polarity=p
V1 vdd 0 DC 0.9
VIN in 0 PULSE(0 0.9 0 40p 40p 400p 1n)
.subckt ninv out in vdd
mpa out in vdd pfet
mpb out in vdd pfet
mna out in mid nfet
mnb mid in 0 nfet
cl out 0 2f
.ends
x1 n1 in vdd ninv
x2 out n1 vdd ninv
.tran 10p 400p
.print tran v(out)
",
    )
    .expect("deck parses");
    let run = deck.run().unwrap_or_else(|e| {
        panic!("transient should converge once the robustness pass lands:\n{e}")
    });
    assert!(run.reports.iter().any(|r| !r.rows.is_empty()));
}
