//! The convergence-torture corpus: every deck under
//! `examples/decks/torture/` declares itself `expected-convergent` in
//! a header comment and must (a) lint clean under deny-warnings and
//! (b) run to completion. The decks are built to *fail plain Newton*
//! — bare algebraic stack nodes driven with supply-sized strides per
//! timestep — so a regression in the engine's convergence ladder
//! (voltage limiting → Armijo damping → pseudo-transient / gmin
//! stepping) shows up here as a hard non-convergence failure, not as
//! a silent accuracy drift.

use cntfet::circuit::deck::{Deck, LintOptions};
use cntfet::circuit::engine::EngineCounters;
use std::path::{Path, PathBuf};

const MARKER: &str = "* torture: expected-convergent";

fn torture_decks() -> Vec<(PathBuf, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/decks/torture");
    let mut decks: Vec<PathBuf> = std::fs::read_dir(&root)
        .unwrap_or_else(|e| panic!("{}: {e}", root.display()))
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "cir"))
        .collect();
    decks.sort();
    assert!(!decks.is_empty(), "no decks under {}", root.display());
    decks
        .into_iter()
        .map(|p| {
            let text =
                std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            (p, text)
        })
        .collect()
}

#[test]
fn torture_decks_declare_their_contract() {
    for (path, text) in torture_decks() {
        assert!(
            text.lines().any(|l| l.trim() == MARKER),
            "{}: missing the `{MARKER}` header — the corpus is \
             executable documentation and every deck must state its \
             expected outcome",
            path.display()
        );
    }
}

#[test]
fn torture_decks_lint_clean_under_deny_warnings() {
    let strict = LintOptions {
        deny_warnings: true,
        ..LintOptions::default()
    };
    for (path, text) in torture_decks() {
        let deck = Deck::parse(&text).unwrap_or_else(|e| panic!("{}:\n{e}", path.display()));
        let report = deck.lint(&strict);
        assert!(
            report.is_clean(),
            "{} must lint clean:\n{report}",
            path.display()
        );
    }
}

#[test]
fn torture_decks_converge() {
    for (path, text) in torture_decks() {
        let deck = Deck::parse(&text).unwrap_or_else(|e| panic!("{}:\n{e}", path.display()));
        let run = deck
            .run()
            .unwrap_or_else(|e| panic!("{} must converge:\n{e}", path.display()));
        for report in &run.reports {
            assert!(
                !report.rows.is_empty(),
                "{}: card '{}' produced no rows",
                path.display(),
                report.label
            );
        }
    }
}

/// Every deck's Newton-ladder counters, pinned: a change to the
/// iteration sequence (a new rung, a different line search, another
/// limiter) fails here by name instead of only moving goldens. And the
/// residual-only line search evaluates every device exactly once per
/// backtracked Armijo trial, never on the first trial.
#[test]
fn torture_decks_keep_their_iteration_counters() {
    // (deck, factorizations, armijo_backtracks, limiter_clamps,
    //  ptc_steps, armijo_exhaustions)
    const PINNED: [(&str, u64, u64, u64, u64, u64); 3] = [
        ("nand_stack.cir", 20_197, 13_421, 15_200, 367, 570),
        ("nor_stack.cir", 20_830, 11_765, 15_408, 374, 556),
        ("xgate_chain.cir", 164, 75, 0, 0, 0),
    ];
    let decks = torture_decks();
    assert_eq!(decks.len(), PINNED.len(), "pin every torture deck");
    for ((path, text), (name, factorizations, backtracks, clamps, ptc, exhaustions)) in
        decks.iter().zip(PINNED)
    {
        assert!(path.ends_with(name), "{} vs {name}", path.display());
        let deck = Deck::parse(text).unwrap_or_else(|e| panic!("{name}:\n{e}"));
        let devices = deck.circuit().expect("deck lowers").device_count() as u64;
        let run = deck.run().unwrap_or_else(|e| panic!("{name}:\n{e}"));
        let mut s = EngineCounters::default();
        for report in &run.reports {
            s += report.stats;
        }
        assert_eq!(
            (
                s.factorizations,
                s.armijo_backtracks,
                s.limiter_clamps,
                s.ptc_steps,
                s.armijo_exhaustions
            ),
            (factorizations, backtracks, clamps, ptc, exhaustions),
            "{name}: (factorizations, armijo_backtracks, limiter_clamps, ptc_steps, \
             armijo_exhaustions)"
        );
        assert_eq!(
            s.residual_evals,
            s.armijo_backtracks * devices,
            "{name}: one residual-only evaluation per device per backtrack"
        );
    }
}
