//! The traced run: one deck taken apart layer by layer, then repeated
//! calls into each layer's public functions on that deck's own circuit.
//!
//! The traced deck calls `Deck::parse`, `Deck::simulator`,
//! `Simulator::op`/`Simulator::transient` and `AnalysisReport::to_csv`
//! one at a time, exactly the work `Deck::run` does, so its CSV must be
//! byte-equal to the untraced run's. The per-call medians are then
//! scaled by the run's own call counts into an estimated split of the
//! deck's wall time; whatever the estimate does not cover (step
//! control, line search, bookkeeping) is `split.unattributed_s`.

use crate::decks::report_csv;
use crate::stats::{counters_of, median_secs, timed, Metrics};
use cntfet_circuit::deck::{AnalysisCard, AnalysisKind, AnalysisReport, CardStats, Deck};
use cntfet_circuit::element::AnalysisMode;
use cntfet_circuit::engine::{NewtonEngine, NewtonOptions};
use cntfet_circuit::netlist::Circuit;
use cntfet_circuit::sim::TransientSpec;
use cntfet_core::CompactCntFet;
use cntfet_numerics::sparse::{btf_amd_order, SparseLu};
use cntfet_physics::units::{ElectronVolts, Kelvin};
use cntfet_reference::DeviceParams;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One deck run layer by layer.
pub struct TracedDeck {
    text: String,
    deck: Deck,
    report: AnalysisReport,
    /// The report as `cntfet-sim --csv` prints it.
    pub csv: String,
    /// Host seconds from parse to CSV.
    pub deck_s: f64,
    /// Engine counters of the analysis (`Simulator::counters`).
    pub engine: BTreeMap<String, u64>,
    /// `TransientStats` of a `.tran` deck; empty for `.op`.
    pub transient: BTreeMap<String, u64>,
    pattern_builds: usize,
    circuit: Circuit,
    newton: NewtonOptions,
    /// Two assembled states to diff: consecutive accepted steps in the
    /// middle of a transient, or Newton's start (0) and the solution.
    states: [Vec<f64>; 2],
}

/// Runs `text` (a deck with one `.op` or `.tran` card) layer by layer.
///
/// # Errors
///
/// A parse or run failure, or an unsupported deck, as text.
pub fn traced_deck(text: &str) -> Result<TracedDeck, String> {
    let start = Instant::now();
    let deck = Deck::parse(text).map_err(|e| format!("parse: {e}"))?;
    let mut sim = deck.simulator().map_err(|e| format!("lower: {e}"))?;
    let [card] = deck.analyses.as_slice() else {
        return Err("the traced run takes decks with one analysis card".into());
    };
    let label = card.to_string();
    let (columns, rows, transient, states) = match card {
        AnalysisCard::Op(_) => {
            let op = sim.op().map_err(|e| format!("op: {e}"))?;
            let probes = deck.probes(AnalysisKind::Op);
            let row = probes
                .iter()
                .map(|n| op.voltage(n))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            let columns = probes.iter().map(|n| format!("v({n})")).collect();
            let states = [vec![0.0; op.x().len()], op.x().to_vec()];
            (columns, vec![row], BTreeMap::new(), states)
        }
        AnalysisCard::Tran(tran) => {
            if deck.ics.iter().any(|ic| !ic.entries.is_empty()) {
                return Err("the traced run does not take .ic cards".into());
            }
            let spec = match tran.dt {
                Some(dt) => TransientSpec::fixed(tran.t_stop, dt),
                None => TransientSpec::adaptive(tran.t_stop),
            }
            .with_options(deck.transient_options());
            let run = sim.transient(&spec).map_err(|e| format!("tran: {e}"))?;
            let probes = deck.probes(AnalysisKind::Tran);
            let waves = probes
                .iter()
                .map(|n| run.voltage(n))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            let rows = run
                .time()
                .iter()
                .enumerate()
                .map(|(k, &t)| {
                    std::iter::once(t)
                        .chain(waves.iter().map(|w| w[k]))
                        .collect()
                })
                .collect();
            let columns = std::iter::once("time".to_string())
                .chain(probes.iter().map(|n| format!("v({n})")))
                .collect();
            let s = &run.result.states;
            if s.len() < 2 {
                return Err("the transient accepted no step".into());
            }
            let mid = s.len() / 2;
            let states = [s[mid - 1].clone(), s[mid].clone()];
            (columns, rows, counters_of(&run.stats), states)
        }
        _ => return Err("the traced run takes .op and .tran decks".into()),
    };
    let report = AnalysisReport {
        label,
        columns,
        rows,
        stats: CardStats::default(),
    };
    let csv = report_csv(&report);
    let deck_s = start.elapsed().as_secs_f64();
    let engine = counters_of(&sim.counters());
    let pattern_builds = sim.pattern_builds();
    let newton = deck.newton_options();
    let circuit = sim.into_circuit();
    Ok(TracedDeck {
        text: text.to_string(),
        deck,
        report,
        csv,
        deck_s,
        engine,
        transient,
        pattern_builds,
        circuit,
        newton,
        states,
    })
}

fn get(map: &BTreeMap<String, u64>, key: &str) -> f64 {
    map.get(key).copied().unwrap_or(0) as f64
}

/// Per-call cost of every layer on the traced deck's circuit, its
/// counters, and the estimated split of the traced deck's wall time.
/// `untraced_deck_s` is the same deck's wall time without tracing;
/// `budget` bounds how long each layer is repeated.
///
/// # Errors
///
/// A layer call that fails on this circuit, as text.
pub fn layer_metrics(
    t: &TracedDeck,
    untraced_deck_s: f64,
    budget: Duration,
    m: &mut Metrics,
) -> Result<(), String> {
    let reps = |f: &mut dyn FnMut() -> f64| median_secs(5, 1000, budget, f);

    // Front end and model fit.
    let parse_s = reps(&mut || timed(|| black_box(Deck::parse(&t.text))).1);
    let lower_s = reps(&mut || timed(|| black_box(t.deck.simulator())).1);
    let csv_s = reps(&mut || timed(|| black_box(report_csv(&t.report))).1);
    let fits: BTreeSet<(u64, u64)> = t
        .deck
        .models
        .iter()
        .map(|c| (c.fermi_level_ev.to_bits(), c.temperature_k.to_bits()))
        .collect();
    let fit_s = match t.deck.models.first() {
        Some(card) => {
            let params = DeviceParams::paper_default()
                .with_fermi_level(ElectronVolts(card.fermi_level_ev))
                .with_temperature(Kelvin(card.temperature_k));
            CompactCntFet::model2(params.clone()).map_err(|e| format!("fit: {e}"))?;
            reps(&mut || timed(|| black_box(CompactCntFet::model2(params.clone()))).1)
        }
        None => 0.0,
    };

    // Engine: pattern build, structural check, assembly.
    let (c, [xa, xb]) = (&t.circuit, &t.states);
    let dc = AnalysisMode::Dc;
    let pattern_s = reps(&mut || {
        let mut e = NewtonEngine::new(t.newton);
        timed(|| {
            black_box(e.assemble(c, xa, &dc, 0.0));
        })
        .1
    });
    NewtonEngine::new(t.newton)
        .check_dc_structure(c)
        .map_err(|e| format!("structure: {e}"))?;
    let structure_s = reps(&mut || {
        let mut e = NewtonEngine::new(t.newton);
        e.assemble(c, xa, &dc, 0.0);
        timed(|| black_box(e.check_dc_structure(c)).is_ok()).1
    });
    let mut engine = NewtonEngine::new(t.newton);
    let (residual, a) = {
        let (r, a) = engine.assemble(c, xa, &dc, 0.0);
        (r.to_vec(), a.clone())
    };
    let assemble_s = reps(&mut || {
        timed(|| {
            black_box(engine.assemble(c, xa, &dc, 0.0));
        })
        .1
    });
    let b = engine.assemble(c, xb, &dc, 0.0).1.clone();
    if a.pattern() != b.pattern() {
        return Err("the two assembled states have different patterns".into());
    }
    // The slots a partial refactorisation must replay: every value
    // that differs bitwise between the two states.
    let changed: Vec<usize> = a
        .values()
        .iter()
        .zip(b.values())
        .enumerate()
        .filter(|(_, (va, vb))| va.to_bits() != vb.to_bits())
        .map(|(slot, _)| slot)
        .collect();

    // Sparse LU: symbolic analysis, ordering, replay, partial, solve.
    let pattern = a.pattern();
    let (va, vb) = (a.values(), b.values());
    let mut lu = SparseLu::<f64>::new();
    lu.factor(pattern, va).map_err(|e| format!("factor: {e}"))?;
    let fill_nnz = lu.factor_nnz();
    let symbolic_s = reps(&mut || {
        let mut fresh = SparseLu::<f64>::new();
        timed(|| black_box(fresh.factor(pattern, va)).is_ok()).1
    });
    let ordering_s = reps(&mut || timed(|| black_box(btf_amd_order(pattern))).1);
    let replay_s = reps(&mut || timed(|| black_box(lu.factor(pattern, va)).is_ok()).1);
    let columns_before = get(&counters_of(&lu.factor_path_stats()), "columns_recomputed");
    let mut calls = 0u32;
    let partial_s = reps(&mut || {
        calls += 1;
        let values = if calls % 2 == 1 { vb } else { va };
        timed(|| black_box(lu.factor_partial(pattern, values, &changed)).is_ok()).1
    });
    let partial_columns = (get(&counters_of(&lu.factor_path_stats()), "columns_recomputed")
        - columns_before)
        / f64::from(calls);
    lu.factor(pattern, va).map_err(|e| format!("factor: {e}"))?;
    let solve_s = reps(&mut || timed(|| black_box(lu.solve_factored(&residual)).is_ok()).1);

    m.push("deck.parse_s", parse_s, "s");
    m.push("deck.lower_s", lower_s, "s");
    m.push("deck.csv_s", csv_s, "s");
    m.push("core.fit_s", fit_s, "s");
    m.push("engine.pattern_s", pattern_s, "s");
    m.push("engine.structure_s", structure_s, "s");
    m.push("engine.assemble_s", assemble_s, "s");
    m.push("sparse.symbolic_s", symbolic_s, "s");
    m.push("sparse.ordering_s", ordering_s, "s");
    m.push("sparse.fill_nnz", fill_nnz as f64, "count");
    m.push("sparse.replay_s", replay_s, "s");
    m.push("sparse.partial_s", partial_s, "s");
    m.push("sparse.solve_s", solve_s, "s");

    // Counters of the traced deck.
    let e = &t.engine;
    let columns_total = get(e, "columns_total");
    let columns_ratio = if columns_total > 0.0 {
        get(e, "columns_recomputed") / columns_total
    } else {
        0.0
    };
    m.push("engine.factorizations", get(e, "factorizations"), "count");
    m.push(
        "engine.partial_factorizations",
        get(e, "partial_refactorizations"),
        "count",
    );
    m.push("engine.columns_ratio", columns_ratio, "ratio");
    m.push("cnfet.device_evals", get(e, "device_evals"), "count");
    m.push("engine.limiter_clamps", get(e, "limiter_clamps"), "count");
    m.push(
        "engine.armijo_backtracks",
        get(e, "armijo_backtracks"),
        "count",
    );
    m.push("engine.ptc_steps", get(e, "ptc_steps"), "count");
    let tr = &t.transient;
    m.push("transient.accepted", get(tr, "accepted"), "count");
    m.push("transient.rejected_lte", get(tr, "rejected_lte"), "count");
    m.push(
        "transient.rejected_newton",
        get(tr, "rejected_newton"),
        "count",
    );
    m.push("transient.substeps", get(tr, "substeps"), "count");
    m.push(
        "transient.newton_iterations",
        get(tr, "newton_iterations"),
        "count",
    );

    // Estimated split: per-call cost × the deck's own call counts.
    let devices = c.device_count().max(1) as f64;
    let full = get(e, "symbolic_factorizations") + get(e, "replay_refactorizations");
    let partials = get(e, "partial_refactorizations");
    let unknowns = c.unknown_count() as f64;
    let split_partial = if partial_columns > 0.0 {
        // Cost per replayed column × the columns the partial
        // refactorisations of the deck actually replayed.
        let replayed = (get(e, "columns_recomputed") - full * unknowns).max(0.0);
        partial_s / partial_columns * replayed
    } else {
        partial_s * partials
    };
    let split_fit = fit_s * fits.len() as f64;
    let split = [
        ("split.parse_s", parse_s),
        ("split.lower_s", lower_s - split_fit),
        ("split.fit_s", split_fit),
        (
            "split.pattern_s",
            (pattern_s - assemble_s) * t.pattern_builds as f64,
        ),
        ("split.structure_s", structure_s),
        (
            "split.assemble_s",
            assemble_s * get(e, "device_evals") / devices,
        ),
        (
            "split.symbolic_s",
            symbolic_s * get(e, "symbolic_factorizations"),
        ),
        (
            "split.replay_s",
            replay_s * get(e, "replay_refactorizations"),
        ),
        ("split.partial_s", split_partial),
        ("split.solve_s", solve_s * get(e, "factorizations")),
        ("split.csv_s", csv_s),
    ];
    let attributed: f64 = split.iter().map(|(_, v)| v).sum();
    for (name, value) in split {
        m.push(name, value, "s");
    }
    m.push("split.unattributed_s", t.deck_s - attributed, "s");
    m.push("trace.deck_s", t.deck_s, "s");
    m.push("trace.overhead_s", t.deck_s - untraced_deck_s, "s");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cntfet_circuit::deck::generate::Workload as Generated;

    /// A deck small enough for a debug-build test, on both traced paths.
    fn small_decks() -> [String; 2] {
        let tran = Generated::RingArray { rows: 2, stages: 3 }.deck(false);
        let op = tran.replace(".tran 10p 400p", ".op");
        [tran, op]
    }

    #[test]
    fn traced_deck_matches_the_untraced_run() {
        for text in small_decks() {
            let traced = traced_deck(&text).expect("traced run");
            let (_, cold) = crate::decks::run_cold(&text).expect("cold run");
            assert_eq!(cold.csv, vec![traced.csv.clone()]);
            // Every counter both layers report agrees.
            for (k, v) in &cold.counters[0] {
                if let Some(e) = traced.engine.get(k) {
                    assert_eq!(e, v, "{k}");
                }
            }
        }
    }

    #[test]
    fn two_traced_runs_give_identical_counters_and_fingerprints() {
        for text in small_decks() {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    let t = traced_deck(&text).expect("traced run");
                    let mut m = Metrics::default();
                    layer_metrics(&t, t.deck_s, Duration::ZERO, &mut m).expect("layers");
                    let counters: Vec<(&str, f64)> =
                        m.0.iter()
                            .filter(|(_, _, unit)| *unit != "s")
                            .map(|(name, v, _)| (*name, *v))
                            .collect();
                    let fp =
                        crate::stats::Fingerprint::new([t.csv.as_str()], [&t.engine, &t.transient]);
                    (counters, fp)
                })
                .collect();
            assert_eq!(runs[0], runs[1]);
            assert!(runs[0]
                .0
                .iter()
                .any(|(name, v)| *name == "engine.factorizations" && *v > 0.0));
        }
    }
}
