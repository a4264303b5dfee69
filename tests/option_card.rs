//! The `.option` card: parsing, canonical round-trip, lowering into
//! [`NewtonOptions`] / [`TransientOptions`], and end-to-end behaviour
//! (the knobs must actually reach the engine).

use cntfet::circuit::deck::{Deck, OptionEntry};
use cntfet::circuit::engine::NewtonOptions;
use cntfet::circuit::transient::TransientOptions;

fn deck(body: &str) -> Deck {
    Deck::parse(body).unwrap_or_else(|e| panic!("{e}"))
}

const RC_TAIL: &str = "\
V1 in 0 PULSE(0 1 0 1n 1n 10u 20u)
R1 in out 1k
C1 out 0 1n
.tran 1u
.print v(out)
.end
";

#[test]
fn option_card_parses_every_knob() {
    let d = deck(&format!(
        "knobs\n.option reltol=1e-2 abstol=2u dtmin=1p\n.option limiting=0\n{RC_TAIL}"
    ));
    let entries: Vec<&OptionEntry> = d.options.iter().flat_map(|c| &c.entries).collect();
    assert_eq!(entries.len(), 4);

    let newton = d.newton_options();
    assert!(!newton.limiting);

    let tran = d.transient_options();
    assert_eq!(tran.rel_tol, 1e-2);
    assert_eq!(tran.abs_tol, 2e-6, "SPICE suffix 'u' must scale abstol");
    assert_eq!(tran.dt_min, Some(1e-12));
    assert!(
        !tran.newton.limiting,
        "newton knobs flow into the transient"
    );
}

#[test]
fn option_free_deck_lowering_is_exactly_the_default() {
    let d = deck(&format!("plain\n{RC_TAIL}"));
    assert_eq!(d.newton_options(), NewtonOptions::default());
    let tran = d.transient_options();
    let default = TransientOptions::default();
    assert_eq!(tran.rel_tol, default.rel_tol);
    assert_eq!(tran.abs_tol, default.abs_tol);
    assert_eq!(tran.dt_min, default.dt_min);
}

#[test]
fn later_entries_win() {
    let d = deck(&format!(
        "merge order\n.option reltol=1e-2\n.option reltol=4e-3 limiting=off\n.option limiting=on\n{RC_TAIL}"
    ));
    assert_eq!(d.transient_options().rel_tol, 4e-3);
    assert!(d.newton_options().limiting, "limiting=on must override off");
}

#[test]
fn display_round_trips_the_canonical_form() {
    let d = deck(&format!(
        "round trip\n.option reltol=1e-2 limiting=0\n{RC_TAIL}"
    ));
    let rendered = d.to_string();
    assert!(
        rendered.contains(".option reltol=1e-2 limiting=0"),
        "canonical text missing from:\n{rendered}"
    );
    let again = deck(&rendered);
    assert_eq!(again.options, d.options);
    assert_eq!(again.newton_options(), d.newton_options());
}

#[test]
fn unknown_keys_and_bad_values_are_rejected_with_location() {
    for (body, needle) in [
        (".option gmin=1e-12", "gmin"),
        (".option reltol=-1", "reltol"),
        (".option limiting=maybe", "limiting"),
        (".option", ".option"),
    ] {
        let text = format!("bad\n{body}\n{RC_TAIL}");
        let err = Deck::parse(&text).expect_err(body).to_string();
        assert!(err.contains(needle), "{body}: diagnostic was:\n{err}");
        assert!(err.contains(":2:"), "{body}: no line-2 location in:\n{err}");
    }
}

/// The knobs must actually steer the run: a loosened `reltol` lets the
/// adaptive stepper take larger steps, so the same `.tran` card
/// produces fewer accepted points than the default tolerance does.
#[test]
fn reltol_reaches_the_adaptive_stepper() {
    let tight = deck(
        "tight\nV1 in 0 PULSE(0 1 0 1n 1n 10u 20u)\nR1 in out 1k\nC1 out 0 1n\n.tran 2u\n.print v(out)\n.end\n",
    );
    let loose = deck(
        "loose\n.option reltol=5e-2 abstol=1e-3\nV1 in 0 PULSE(0 1 0 1n 1n 10u 20u)\nR1 in out 1k\nC1 out 0 1n\n.tran 2u\n.print v(out)\n.end\n",
    );
    let tight_rows = tight.run().unwrap().reports[0].rows.len();
    let loose_rows = loose.run().unwrap().reports[0].rows.len();
    assert!(
        loose_rows < tight_rows,
        "loose tolerance should accept fewer steps ({loose_rows} vs {tight_rows})"
    );
}

/// `solver`, `bypass`, `bypassvtol`, `armijo_c1` and `ptc` are not
/// keys: there is one linear solver and one Newton path with no device
/// bypass, and the Armijo constant and the rescue ladder are engine
/// constants. Each is rejected like any unknown option, with the list
/// of accepted keys.
#[test]
fn solver_is_an_unknown_option() {
    for key in ["solver", "bypass", "bypassvtol", "armijo_c1", "ptc"] {
        let err = Deck::parse(&format!("gone\n.option {key}=1\n{RC_TAIL}"))
            .expect_err(key)
            .to_string();
        assert!(
            err.contains(&format!(
                "unknown option '{key}'; .option accepts reltol, abstol, dtmin, limiting"
            )),
            "{err}"
        );
        assert!(err.contains(":2:"), "{key}: no line-2 location in:\n{err}");
    }
}
