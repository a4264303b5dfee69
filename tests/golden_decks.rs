//! Guard: the default configuration (partial refactorization and
//! voltage limiting on) reproduces the golden results **bitwise** on
//! every checked-in example deck and on a generated 320-gate ring
//! array. The DC operating points of generated ring arrays and the
//! `adder2` transient also pin their Newton counters.
//!
//! The golden CSVs under `tests/golden/` are `cntfet-sim --csv` output.
//! `divider` and `rc_lowpass` date from before the
//! partial-refactorization work; `inverter` and
//! `ring_oscillator` were regenerated once, deliberately, when their
//! small systems moved from the dense LU to the sparse one; `adder2`
//! and `ring_array_40x8` were regenerated once, deliberately, when the
//! Armijo test began measuring decrease along the limited step. All
//! four were regenerated once more, deliberately, when the sparse LU
//! began choosing pivots on row-equilibrated magnitudes and the engine
//! stopped reserving diagonals on element rows, because a new
//! elimination plan rounds differently: `adder2` moved by at most
//! 1.6e-14 V and `ring_array_40x8` by 1.6e-17 V, both on their old
//! time grids, while the adaptive grids of `ring_oscillator` (5.3e-9 V
//! row by row) and `inverter` (0.86 mV interpolated onto the old grid;
//! its `.dc` and `.ac` cards within 1e-10) moved. The partial path
//! must replay the exact arithmetic of the full path on
//! the columns it recomputes and reuse the rest verbatim, so `Deck::run`
//! probe output — rendered through the round-tripping `to_csv` — must
//! not move by even one ULP. A diff here means the "partial
//! refactorization is exact, not approximate" invariant broke.

use cntfet::circuit::deck::generate::Workload;
use cntfet::circuit::deck::{AnalysisReport, Deck};
use cntfet::circuit::engine::{ConvergenceReport, NewtonEngine, NewtonStrategy};

fn repo_path(rel: &str) -> String {
    format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
}

fn run_reports(text: &str, what: &str) -> Vec<AnalysisReport> {
    let deck = Deck::parse(text).unwrap_or_else(|e| panic!("{what}:\n{e}"));
    deck.run()
        .unwrap_or_else(|e| panic!("{what}:\n{e}"))
        .reports
}

fn golden_csv(deck_name: &str) -> String {
    let path = repo_path(&format!("tests/golden/{deck_name}.csv"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The golden files concatenate every card's CSV (header line included
/// per card), exactly as `cntfet-sim --csv` separates them; stitch the
/// fresh reports the same way and compare the raw text — the CSV
/// number formatting round-trips f64 exactly, so textual equality is
/// bitwise equality of every probe sample. Returns the fresh reports,
/// so a test can pin their counters without a second run.
fn assert_bitwise_golden(deck_name: &str) -> Vec<AnalysisReport> {
    let path = repo_path(&format!("examples/decks/{deck_name}.cir"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_text_matches_golden(&text, deck_name)
}

fn assert_text_matches_golden(text: &str, deck_name: &str) -> Vec<AnalysisReport> {
    let golden = golden_csv(deck_name);
    let fresh = run_reports(text, deck_name);
    // Reconstruct the golden capture format: cards are concatenated in
    // source order. (Captured via `cntfet-sim --csv`, whose per-card
    // headers survive in the file.)
    let mut rebuilt = String::new();
    for report in &fresh {
        rebuilt.push_str(&report.to_csv());
    }
    // The capture tool also wrote the `* title` / `* card` banner
    // lines; strip comment lines from the golden before comparing.
    let golden_data: Vec<&str> = golden
        .lines()
        .filter(|l| !l.starts_with('*') && !l.is_empty())
        .collect();
    let fresh_data: Vec<&str> = rebuilt
        .lines()
        .filter(|l| !l.starts_with('*') && !l.is_empty())
        .collect();
    assert_eq!(
        golden_data.len(),
        fresh_data.len(),
        "{deck_name}: row count changed ({} golden vs {} fresh)",
        golden_data.len(),
        fresh_data.len()
    );
    for (k, (g, f)) in golden_data.iter().zip(&fresh_data).enumerate() {
        assert_eq!(
            g, f,
            "{deck_name}: line {k} differs — default config must stay \
             bitwise-identical to the golden"
        );
    }
    fresh
}

#[test]
fn divider_matches_seed_bitwise() {
    assert_bitwise_golden("divider");
}

#[test]
fn inverter_matches_seed_bitwise() {
    assert_bitwise_golden("inverter");
}

#[test]
fn rc_lowpass_matches_seed_bitwise() {
    assert_bitwise_golden("rc_lowpass");
}

#[test]
fn ring_oscillator_matches_seed_bitwise() {
    assert_bitwise_golden("ring_oscillator");
}

/// Hierarchical guard: a `.subckt`-based deck (two full adders built
/// from nand2 cells, flattened by the parser) stays bitwise stable too
/// — the flattener must keep producing the exact same circuit, node
/// order included, or the transient arithmetic shifts. The same run
/// pins the `.tran` card's Newton-ladder counters: its bare stack nodes
/// converge only through the rescue ladder, so a change to any rung
/// fails here by name.
#[test]
fn adder2_matches_golden_bitwise() {
    let reports = assert_bitwise_golden("adder2");
    let [tran] = reports.as_slice() else {
        panic!("adder2: expected one card, got {}", reports.len());
    };
    let c = tran.stats;
    assert_eq!(
        (
            c.factorizations,
            c.armijo_backtracks,
            c.limiter_clamps,
            c.ptc_steps,
            c.armijo_exhaustions
        ),
        (43_492, 146_906, 32_267, 1_464, 5_236),
        "(factorizations, armijo_backtracks, limiter_clamps, ptc_steps, armijo_exhaustions)"
    );
}

/// Generated-scale guard: `cntfet-gen ring-array 40 8` (320 gates, two
/// levels of hierarchy) runs 107 of its 258 factorizations on the
/// partial-refactorization path and the rest as full replays, so the
/// bitwise contract is checked on a generated deck that exercises both
/// replay paths, not only on the small decks.
#[test]
fn ring_array_40x8_matches_golden_bitwise() {
    let text = Workload::RingArray {
        rows: 40,
        stages: 8,
    }
    .deck(false);
    assert_text_matches_golden(&text, "ring_array_40x8");
}

/// The DC operating point of a generated `rows`×8 ring array (its
/// `.tran` card replaced by `.op`), solved from x = 0 with the deck's
/// Newton options. Limiting clamps the first steps of this solve.
fn ring_array_dc_op(rows: usize) -> ConvergenceReport {
    let text = Workload::RingArray { rows, stages: 8 }
        .deck(false)
        .replace(".tran 10p 400p", ".op");
    let deck = Deck::parse(&text).expect("generated deck parses");
    let circuit = deck.circuit().expect("generated deck lowers");
    let mut engine = NewtonEngine::new(deck.newton_options());
    engine
        .dc_operating_point(&circuit, None)
        .unwrap_or_else(|e| panic!("{rows}-row ring array DC op:\n{e}"));
    engine.last_report(&circuit).expect("one solve ran")
}

/// The Armijo test measures decrease along the step the limiter leaves,
/// so the clamped first steps of the small ring array's DC op are
/// accepted: no line search exhausts its halvings and no rescue runs.
#[test]
fn ring_array_2x8_dc_op_converges_without_rescue() {
    let report = ring_array_dc_op(2);
    assert_ne!(report.strategy, NewtonStrategy::Ptc, "{report}");
    let c = report.counters;
    assert_eq!(c.armijo_exhaustions, 0, "{}", c.summary());
}

/// Counter pin for the DC operating point `perfbench`'s `tran_ring1k`
/// pays on every seed (capacitors are open at DC): the 1 000-gate ring
/// array's `.op`.
#[test]
fn ring_array_125x8_dc_op_keeps_its_counters() {
    let c = ring_array_dc_op(125).counters;
    assert_eq!(
        (
            c.factorizations,
            c.armijo_backtracks,
            c.limiter_clamps,
            c.ptc_steps,
            c.armijo_exhaustions
        ),
        (227, 1_340, 116, 7, 24),
        "(factorizations, armijo_backtracks, limiter_clamps, ptc_steps, armijo_exhaustions)"
    );
}
