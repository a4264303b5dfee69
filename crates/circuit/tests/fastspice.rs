//! Property tests of the fast-SPICE hot path.
//!
//! Two contracts, each over a randomised netlist corpus:
//!
//! 1. **Partial refactorization is exact**: solving with
//!    `partial_refactor` on vs off agrees to ≤ 1e-12 on every node
//!    voltage, across DC sweeps and transient step changes. (The
//!    implementation is in fact bitwise-identical — the partial replay
//!    runs the same arithmetic on the recomputed columns and reuses the
//!    rest verbatim — the 1e-12 bound is the acceptance criterion's
//!    safety margin.)
//! 2. **Auto ordering never loses**: the `Auto` fill ordering (racing
//!    AMD+BTF against the static ascending-degree order and keeping
//!    the sparser elimination) never produces more fill than the
//!    static order alone.

use cntfet_circuit::element::AnalysisMode;
use cntfet_circuit::prelude::*;
use cntfet_circuit::transient::TransientOptions;
use cntfet_core::CompactCntFet;
use cntfet_numerics::sparse::{FillOrdering, SparseLu};
use cntfet_reference::DeviceParams;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// Shared compact model — fitted once for the whole test binary.
fn model() -> Arc<CompactCntFet> {
    static MODEL: OnceLock<Arc<CompactCntFet>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| {
        Arc::new(CompactCntFet::model2(DeviceParams::paper_default()).expect("model 2 fit"))
    }))
}

/// A mixed R/C/V/I + CNFET netlist: `stages` inverters off a resistor
/// ladder, capacitive loads, and a small current-source disturbance.
fn mixed_netlist(stages: usize, rungs: &[f64], vdd: f64, isrc: f64) -> Circuit {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Contract 1, DC: sweeping VDD re-values CNFET slots at every
    /// point; partial-on and partial-off sweeps agree to ≤ 1e-12.
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

    /// Contract 1, transient: a pulse edge (step change) makes every
    /// CNFET slot churn, then the tail goes quiescent; partial-on and
    /// partial-off waveforms agree to ≤ 1e-12 at every stored state.
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

    /// Contract 2: on assembled MNA Jacobians from the same corpus, the
    /// `Auto` ordering (AMD+BTF raced against the static order) never
    /// has more factor fill than the static ascending-degree order, and
    /// both factorizations solve to the same answer.
    #[test]
    fn auto_ordering_never_increases_fill(
        stages in 1usize..4,
        rungs in proptest::collection::vec(1e3f64..1e5, 2..6),
        vdd in 0.6f64..0.9,
    ) {
        let c = mixed_netlist(stages, &rungs, vdd, 0.0);
        let n = c.unknown_count();
        let mut engine = NewtonEngine::new(NewtonOptions::default());
        let x0 = vec![0.0; n];
        let (_, jac) = engine.assemble(&c, &x0, &AnalysisMode::Dc, 1e-9);
        let jac = jac.clone();

        let factor_with = |ordering: FillOrdering| {
            let mut lu = SparseLu::new();
            lu.set_ordering(ordering);
            lu.factor(jac.pattern(), jac.values()).expect("factor");
            lu
        };
        let auto = factor_with(FillOrdering::Auto);
        let fixed = factor_with(FillOrdering::AscendingDegree);
        prop_assert!(
            auto.factor_nnz() <= fixed.factor_nnz(),
            "auto ordering lost: {} vs {} nnz",
            auto.factor_nnz(),
            fixed.factor_nnz()
        );
        let rhs: Vec<f64> = (0..n).map(|i| ((i % 7) as f64 - 3.0) * 1e-6).collect();
        let xa = auto.solve_factored(&rhs).expect("auto solve");
        let xf = fixed.solve_factored(&rhs).expect("fixed solve");
        let scale = cntfet_numerics::stats::inf_norm(&xf).max(1.0);
        for (a, b) in xa.iter().zip(&xf) {
            prop_assert!((a - b).abs() <= 1e-8 * scale, "{a} vs {b}");
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
