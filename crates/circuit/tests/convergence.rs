//! Property tests of the Newton convergence-robustness ladder
//! (voltage limiting → Armijo damping → pseudo-transient rescue).
//!
//! Two contracts, each over a randomised corpus:
//!
//! 1. **Hard stacks converge, and to the right answer**: a depth-2..4
//!    series CNFET stack whose internal nodes carry *no* capacitance,
//!    driven so the gate swings 0.4–0.9 V per fixed backward-Euler
//!    step, must converge — this is exactly the shape that used to
//!    limit-cycle — and its output waveform must agree to ≤ 1e-9 V
//!    with a reference run whose stack nodes carry a vanishingly
//!    small (0.1 yF) parasitic that regularises the system the way
//!    the old 0.2 fF workaround capacitor did.
//! 2. **The ladder is a bitwise no-op on healthy netlists**: on a
//!    random R/C/V/I + CNFET corpus that converges with plain damped
//!    Newton, running with limiting on (the default) produces the
//!    *bit-identical* float stream to running with it off — the rescue
//!    is armed in both runs — and the limiter and rescue counters stay
//!    at zero.

use cntfet_circuit::prelude::*;
use cntfet_circuit::transient::TransientOptions;
use cntfet_core::CompactCntFet;
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

/// Fixed transient step of the torture corpus (matches the `.tran`
/// card below): the PULSE rise time is derived from it so the input
/// moves a prescribed number of volts per accepted step.
const DT: f64 = 10e-12;

/// A depth-`depth` series n-stack inverter deck: `depth` parallel
/// p-FET pull-ups against `depth` series n-FETs, every gate tied to
/// the same steep PULSE input. The internal stack nodes `s1..` are
/// purely algebraic unless `parasitic` adds the tiny reference
/// capacitor to each.
fn stack_deck(depth: usize, vdd: f64, rise: f64, parasitic: bool) -> String {
    let mut deck = format!(
        "series-stack torture, depth {depth}\n\
         .model nfet cnfet polarity=n\n\
         .model pfet cnfet polarity=p\n\
         V1 vdd 0 DC {vdd}\n\
         VIN in 0 PULSE(0 {vdd} 0 {rise:e} {rise:e} 200p 1n)\n"
    );
    for i in 1..=depth {
        deck.push_str(&format!("mp{i} out in vdd pfet\n"));
    }
    for i in 1..=depth {
        let drain = if i == 1 {
            "out".to_string()
        } else {
            format!("s{}", i - 1)
        };
        let source = if i == depth {
            "0".to_string()
        } else {
            format!("s{i}")
        };
        deck.push_str(&format!("mn{i} {drain} in {source} nfet\n"));
    }
    deck.push_str("cl out 0 2f\n");
    if parasitic {
        for i in 1..depth {
            deck.push_str(&format!("cs{i} s{i} 0 1e-25\n"));
        }
    }
    deck.push_str(".tran 10p 400p\n.print tran v(out)\n.end\n");
    deck
}

fn run_deck(text: &str) -> Vec<Vec<f64>> {
    let deck = cntfet_circuit::deck::Deck::parse(text).expect("deck parses");
    let run = deck
        .run()
        .unwrap_or_else(|e| panic!("torture deck must converge:\n{e}"));
    let report = &run.reports[0];
    assert_eq!(report.columns[0], "time");
    assert_eq!(report.columns[1], "v(out)");
    report.rows.clone()
}

/// The healthy corpus of contract 2: `stages` inverters, a resistor
/// ladder with capacitive rungs, and a small current disturbance —
/// swings stay well inside every device's limiter window.
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
            rise: 100e-12,
            width: 1.0,
            fall: 100e-12,
            period: 0.0,
        },
    ));
    let outs = add_inverter_chain(&mut c, &tech, "chain", vin, stages, vdd_node);
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
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Contract 1: the bare algebraic stack converges and lands within
    /// 1e-9 V of the tiny-parasitic reference at every output sample.
    ///
    /// Depth stops at 3: at depth 4 the backward-Euler system itself
    /// loses its solution during the falling-edge settle — the fitted
    /// model's subthreshold leakage divider folds (the solution branch
    /// of the gmin-regularised system turns back at g ≈ 2e-7 S and no
    /// root exists below it), and the *reference* deck fails the exact
    /// same way, so there is nothing to converge to at any ladder rung.
    #[test]
    fn algebraic_stacks_converge_and_match_parasitic_reference(
        depth in 2usize..4,
        vdd in 0.6f64..0.9,
        swing in 0.4f64..0.9,
    ) {
        // Rise time that makes the input move `swing` volts per DT
        // step (capped at the full supply when swing > vdd).
        let rise = DT * vdd / swing;
        let bare = run_deck(&stack_deck(depth, vdd, rise, false));
        let reference = run_deck(&stack_deck(depth, vdd, rise, true));
        prop_assert_eq!(bare.len(), reference.len());
        for (rb, rr) in bare.iter().zip(&reference) {
            prop_assert!(rb[0] == rr[0], "time grids must match");
            prop_assert!(
                (rb[1] - rr[1]).abs() <= 1e-9,
                "t={}: bare {} vs reference {} differ by {}",
                rb[0], rb[1], rr[1], (rb[1] - rr[1]).abs()
            );
        }
    }

    /// Contract 2: with limiting on (the default) and off, a healthy
    /// netlist produces bit-identical waveforms, and the limiting/PTC
    /// counters stay at zero — the robustness stack never perturbs a
    /// solve that was already converging. The rescue is armed in both
    /// runs; `ptc_steps == 0` proves it never touched either.
    #[test]
    fn ladder_is_bitwise_noop_on_converging_netlists(
        stages in 1usize..3,
        rungs in proptest::collection::vec(1e3f64..1e5, 2..4),
        vdd in 0.6f64..0.9,
        isrc in -1e-6f64..1e-6,
    ) {
        // Both runs start from the same converged DC operating point
        // (computed once, limiting off) so the comparison isolates the
        // transient stepping itself: the cold-start operating point may
        // legitimately clamp wild first steps from all-zeros (an
        // intentional, documented difference), but from a converged
        // state the accepted time stepping must not change at all.
        let start = {
            let circuit = mixed_netlist(stages, &rungs, vdd, isrc);
            let opts = NewtonOptions {
                limiting: false,
                ..NewtonOptions::default()
            };
            let mut sim = Simulator::with_options(circuit, opts);
            sim.op().expect("operating point").x().to_vec()
        };
        let run = |limiting: bool| {
            let circuit = mixed_netlist(stages, &rungs, vdd, isrc);
            let spec = TransientSpec::fixed(2e-9, 2e-11)
                .with_options(TransientOptions {
                    newton: NewtonOptions {
                        limiting,
                        ..NewtonOptions::default()
                    },
                    integrator: TimeIntegrator::BackwardEuler,
                    ..TransientOptions::default()
                })
                .with_initial(start.clone());
            Simulator::new(circuit).transient(&spec).expect("transient")
        };
        let on = run(true);
        let off = run(false);
        prop_assert_eq!(on.stats.counters.limiter_clamps, 0);
        prop_assert_eq!(on.stats.counters.ptc_steps, 0);
        prop_assert_eq!(off.stats.counters.ptc_steps, 0);
        prop_assert_eq!(on.stats.substeps, 0);
        prop_assert_eq!(on.stats.counters.armijo_backtracks, off.stats.counters.armijo_backtracks);
        prop_assert_eq!(on.result.time.len(), off.result.time.len());
        for (xo, xf) in on.result.states.iter().zip(&off.result.states) {
            for (a, b) in xo.iter().zip(xf) {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "ladder perturbed a converging solve: {} vs {}", a, b
                );
            }
        }
    }
}
