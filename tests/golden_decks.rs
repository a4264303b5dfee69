//! Guard: the default configuration (partial refactorization on,
//! device bypass off) reproduces the golden results **bitwise** on
//! every checked-in example deck and on a generated 320-gate ring
//! array.
//!
//! The golden CSVs under `tests/golden/` are `cntfet-sim --csv` output.
//! `divider`, `rc_lowpass` and `adder2` date from before the
//! partial-refactorization/bypass work; `inverter` and
//! `ring_oscillator` were regenerated once, deliberately, when their
//! small systems moved from the dense LU to the sparse one. The
//! partial path must replay the exact arithmetic of the full path on
//! the columns it recomputes and reuse the rest verbatim, so `Deck::run`
//! probe output — rendered through the round-tripping `to_csv` — must
//! not move by even one ULP. A diff here means the "partial
//! refactorization is exact, not approximate" invariant broke.

use cntfet::circuit::deck::generate::Workload;
use cntfet::circuit::deck::Deck;

fn repo_path(rel: &str) -> String {
    format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
}

fn run_csv(text: &str, what: &str) -> Vec<String> {
    let deck = Deck::parse(text).unwrap_or_else(|e| panic!("{what}:\n{e}"));
    let run = deck.run().unwrap_or_else(|e| panic!("{what}:\n{e}"));
    run.reports.iter().map(|r| r.to_csv()).collect()
}

fn golden_csv(deck_name: &str) -> String {
    let path = repo_path(&format!("tests/golden/{deck_name}.csv"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The golden files concatenate every card's CSV (header line included
/// per card), exactly as `cntfet-sim --csv` separates them; stitch the
/// fresh reports the same way and compare the raw text — the CSV
/// number formatting round-trips f64 exactly, so textual equality is
/// bitwise equality of every probe sample.
fn assert_bitwise_golden(deck_name: &str) {
    let path = repo_path(&format!("examples/decks/{deck_name}.cir"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_text_matches_golden(&text, deck_name);
}

fn assert_text_matches_golden(text: &str, deck_name: &str) {
    let golden = golden_csv(deck_name);
    let fresh = run_csv(text, deck_name);
    // Reconstruct the golden capture format: cards are concatenated in
    // source order. (Captured via `cntfet-sim --csv`, whose per-card
    // headers survive in the file.)
    let mut rebuilt = String::new();
    for csv in &fresh {
        rebuilt.push_str(csv);
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
/// order included, or the transient arithmetic shifts.
#[test]
fn adder2_matches_golden_bitwise() {
    assert_bitwise_golden("adder2");
}

/// Generated-scale guard: `cntfet-gen ring-array 40 8` (320 gates, two
/// levels of hierarchy) runs almost every factorization on the
/// partial-refactorization path, so the bitwise contract is checked
/// where the hot path actually works, not only on the small decks.
#[test]
fn ring_array_40x8_matches_golden_bitwise() {
    let text = Workload::RingArray {
        rows: 40,
        stages: 8,
    }
    .deck(false);
    assert_text_matches_golden(&text, "ring_array_40x8");
}
