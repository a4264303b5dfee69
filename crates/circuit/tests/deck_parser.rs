//! Deck parser edge cases: malformed input of every card kind must
//! fail with a *spanned*, suggestion-bearing diagnostic, and valid
//! decks must round-trip through the serialiser unchanged.
//!
//! The snapshot tests at the bottom pin the exact rendered error text —
//! line numbers, caret position and help line — so diagnostic quality
//! is a regression-tested feature, not an accident.

use cntfet_circuit::deck::{Deck, DeckError};
use cntfet_circuit::element::Waveform;

fn parse_err(deck: &str) -> DeckError {
    Deck::parse(deck).expect_err("deck should not parse")
}

// ---------------------------------------------------------------- cards

#[test]
fn unknown_element_card_is_rejected() {
    let err = parse_err("title\nQ1 a b c");
    assert!(err.message.contains("unknown card 'Q1'"), "{err}");
    assert!(err.message.contains("R, C, V, I or M"), "{err}");
    assert_eq!(err.span.unwrap().line, 2);
}

#[test]
fn unknown_directive_suggests_the_nearest() {
    let err = parse_err("title\n.tram 1n 1u");
    assert!(err.message.contains("unknown directive '.tram'"), "{err}");
    assert_eq!(err.help.as_deref(), Some("did you mean '.tran'?"));
}

#[test]
fn duplicate_element_names_point_at_both_lines() {
    let err = parse_err("t\nR1 a b 1k\nR1 b 0 2k");
    assert!(
        err.message
            .contains("duplicate element name 'R1' (first defined on line 2)"),
        "{err}"
    );
    assert_eq!(err.span.unwrap().line, 3);
}

#[test]
fn duplicate_model_and_param_names_are_rejected() {
    let err = parse_err("t\n.model m1 cnfet\n.model m1 cnfet polarity=p");
    assert!(err.message.contains("duplicate model name 'm1'"), "{err}");
    let err = parse_err("t\n.param x = 1\n.param x = 2");
    assert!(
        err.message.contains("duplicate parameter name 'x'"),
        "{err}"
    );
}

#[test]
fn unknown_model_reference_suggests_the_nearest() {
    let err = parse_err("t\n.model nfet cnfet\nM1 d g 0 nfett");
    assert!(err.message.contains("no model named 'nfett'"), "{err}");
    assert!(err.message.contains("available models: nfet"), "{err}");
    assert_eq!(err.help.as_deref(), Some("did you mean 'nfet'?"));
}

#[test]
fn model_reference_without_any_models() {
    let err = parse_err("t\nM1 d g 0 nfet");
    assert!(err.message.contains("no .model cards"), "{err}");
}

#[test]
fn forward_model_references_are_fine() {
    let deck = Deck::parse("t\nM1 d g 0 late L=50n\n.model late cnfet polarity=p").unwrap();
    assert_eq!(deck.models.len(), 1);
    assert_eq!(deck.elements.len(), 1);
}

#[test]
fn negative_and_zero_values_are_rejected_where_physical() {
    let err = parse_err("t\nR1 a b -5");
    assert!(err.message.contains("resistance must be positive"), "{err}");
    let err = parse_err("t\nC1 a b 0");
    assert!(
        err.message.contains("capacitance must be positive"),
        "{err}"
    );
    let err = parse_err("t\n.model m cnfet\nM1 d g 0 m L=0");
    assert!(
        err.message.contains("channel length must be positive"),
        "{err}"
    );
}

#[test]
fn voltage_source_needs_a_drive() {
    let err = parse_err("t\nV1 a 0");
    assert!(err.message.contains("needs a drive"), "{err}");
    assert!(err.help.as_deref().unwrap().contains("PULSE"), "{err}");
    // …but an AC-only source defaults to 0 V DC, as in SPICE.
    let deck = Deck::parse("t\nV1 a 0 AC 1\nR1 a 0 1k\n.ac lin 1 1k 1k").unwrap();
    match &deck.elements[0] {
        cntfet_circuit::deck::ElementCard::Voltage(v) => {
            assert_eq!(v.waveform, Waveform::Dc(0.0));
            assert!(v.ac_stimulus);
        }
        other => panic!("expected a voltage card, got {other:?}"),
    }
}

#[test]
fn pulse_takes_exactly_seven_arguments() {
    let err = parse_err("t\nV1 a 0 PULSE(0 1 0 1n 1n 5n)");
    assert!(err.message.contains("exactly 7 arguments, got 6"), "{err}");
    let err = parse_err("t\nV1 a 0 PULSE(0 1 0 1n 1n 5n 10n");
    assert!(err.message.contains("unterminated PULSE"), "{err}");
}

#[test]
fn non_unit_ac_magnitude_is_rejected() {
    let err = parse_err("t\nV1 a 0 DC 1 AC 2\n.ac dec 5 1k 1meg");
    assert!(err.message.contains("only unit AC stimuli"), "{err}");
}

// ------------------------------------------------------------- numbers

#[test]
fn spice_suffixes_scale_element_values() {
    let deck =
        Deck::parse("suffixes\nR1 a b 1k\nR2 b c 10meg\nC1 c 0 2.5u\nC2 c 0 100nF\nV1 a 0 DC 1m")
            .unwrap();
    use cntfet_circuit::deck::ElementCard as E;
    let ohm = |card: &E| match card {
        E::Resistor(r) => r.ohms,
        _ => unreachable!(),
    };
    let farad = |card: &E| match card {
        E::Capacitor(c) => c.farads,
        _ => unreachable!(),
    };
    assert_eq!(ohm(&deck.elements[0]), 1e3);
    assert_eq!(ohm(&deck.elements[1]), 10.0 * 1e6);
    assert_eq!(farad(&deck.elements[2]), 2.5 * 1e-6);
    assert_eq!(farad(&deck.elements[3]), 100.0 * 1e-9);
}

#[test]
fn malformed_numbers_are_spanned_errors() {
    for bad in ["1k2", "--3", "1.2.3", "1e+"] {
        let err = parse_err(&format!("t\nR1 a b {bad}"));
        assert!(
            err.message.contains("is not a number or known parameter"),
            "{bad}: {err}"
        );
        let span = err.span.unwrap();
        assert_eq!((span.line, span.col), (2, 8), "{bad}");
    }
}

#[test]
fn bare_words_suggest_nearby_params() {
    let err = parse_err("t\n.param rload = 1k\nR1 a b rLoad2");
    assert_eq!(err.help.as_deref(), Some("did you mean 'rload'?"));
}

// ------------------------------------------------------------ analyses

#[test]
fn dc_sweep_of_unknown_source_lists_candidates() {
    let err = parse_err("t\nVIN in 0 DC 0\nR1 in 0 1k\n.dc VINN 0 1 0.1");
    assert!(
        err.message
            .contains("no source named 'VINN'; available sources: VIN"),
        "{err}"
    );
    assert_eq!(err.help.as_deref(), Some("did you mean 'VIN'?"));
}

#[test]
fn dc_step_must_move_toward_stop() {
    let err = parse_err("t\nV1 a 0 DC 0\n.dc V1 0 1 -0.1");
    assert!(err.message.contains("cannot move the sweep"), "{err}");
    let err = parse_err("t\nV1 a 0 DC 0\n.dc V1 0 1 0");
    assert!(err.message.contains("cannot move the sweep"), "{err}");
    // Downward sweeps with negative steps are fine.
    let deck = Deck::parse("t\nV1 a 0 DC 0\nR1 a 0 1k\n.dc V1 1 0 -0.5").unwrap();
    match &deck.analyses[0] {
        cntfet_circuit::deck::AnalysisCard::Dc(dc) => {
            assert_eq!(dc.values(), vec![1.0, 0.5, 0.0]);
        }
        other => panic!("expected .dc, got {other:?}"),
    }
}

#[test]
fn print_of_unknown_node_lists_candidates() {
    let err = parse_err("t\nV1 in 0 DC 1\nR1 in out 1k\n.op\n.print v(ouy)");
    assert!(
        err.message
            .contains("no node named 'ouy'; available nodes: in, out"),
        "{err}"
    );
    assert_eq!(err.help.as_deref(), Some("did you mean 'out'?"));
}

#[test]
fn ac_without_stimulus_flag_is_rejected_with_help() {
    let err = parse_err("t\nV1 in 0 DC 1\nR1 in 0 1k\n.ac dec 5 1k 1meg");
    assert!(
        err.message.contains("no source card carries the AC flag"),
        "{err}"
    );
    assert!(
        err.help.as_deref().unwrap().contains("append `AC 1`"),
        "{err}"
    );
}

#[test]
fn ambiguous_ac_stimulus_is_rejected() {
    let err = parse_err("t\nV1 in 0 DC 1 AC 1\nI1 in 0 DC 1m AC\nR1 in 0 1k\n.ac dec 5 1k 1meg");
    assert!(err.message.contains("ambiguous .ac stimulus"), "{err}");
    assert!(err.message.contains("V1, I1"), "{err}");
}

#[test]
fn ac_frequency_ranges_are_parse_errors() {
    // Inverted, zero and non-finite grids must fail at parse time
    // (so `cntfet-sim --check` catches them), not when the sweep runs.
    let err = parse_err("t\nV1 in 0 DC 1 AC 1\nR1 in 0 1k\n.ac dec 5 1meg 1k");
    assert!(err.message.contains("f_stop > f_start"), "{err}");
    let err = parse_err("t\nV1 in 0 DC 1 AC 1\nR1 in 0 1k\n.ac dec 5 0 1k");
    assert!(err.message.contains("positive start frequency"), "{err}");
    let err = parse_err("t\nV1 in 0 DC 1 AC 1\nR1 in 0 1k\n.ac lin 5 1meg 1k");
    assert!(err.message.contains("f_stop >= f_start"), "{err}");
    // A single-point linear grid at one frequency is fine.
    assert!(Deck::parse("t\nV1 in 0 DC 1 AC 1\nR1 in 0 1k\n.ac lin 1 1k 1k").is_ok());
}

#[test]
fn continuation_line_errors_render_their_own_line() {
    // The bad value sits on the `+` continuation line; the diagnostic
    // must show that line's text with the caret under the value.
    let err = parse_err("t\nR1 a b\n+ -5");
    assert_eq!(
        err.to_string(),
        "deck:3:3: resistance must be positive, got -5
    3 | + -5
      |   ^^"
    );
}

#[test]
fn ic_targets_are_validated() {
    let err = parse_err("t\nV1 in 0 DC 1\nR1 in out 1k\n.tran 1u\n.ic v(outt)=0.5");
    assert!(err.message.contains("no node named 'outt'"), "{err}");
    assert_eq!(err.help.as_deref(), Some("did you mean 'out'?"));
}

// ------------------------------------------------------- params / expr

#[test]
fn param_expressions_evaluate_with_suffixes_and_precedence() {
    let deck =
        Deck::parse("t\n.param r = 2 * 1k\n.param half = r / (2 + 2)\nR1 a b {half}\nR2 a b half")
            .unwrap();
    assert_eq!(deck.params[0].value, 2e3);
    assert_eq!(deck.params[1].value, 500.0);
    use cntfet_circuit::deck::ElementCard as E;
    for card in &deck.elements {
        match card {
            E::Resistor(r) => assert_eq!(r.ohms, 500.0, "both spellings resolve"),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn param_division_by_zero_is_an_error() {
    let err = parse_err("t\n.param bad = 1 / (2 - 2)");
    assert!(err.message.contains("division by zero"), "{err}");
}

#[test]
fn param_forward_reference_is_an_error() {
    let err = parse_err("t\n.param a = b + 1\n.param b = 2");
    assert!(err.message.contains("unknown parameter 'b'"), "{err}");
}

// ------------------------------------------------------ deck structure

#[test]
fn empty_decks_are_errors() {
    for text in ["", "\n", "   \n\t\n"] {
        let err = parse_err(text);
        assert!(err.message.contains("empty deck"), "{text:?}: {err}");
    }
    // A title alone is a valid (if useless) deck.
    let deck = Deck::parse("just a title").unwrap();
    assert!(deck.elements.is_empty() && deck.analyses.is_empty());
}

#[test]
fn empty_titles_round_trip_without_eating_a_card() {
    // The first line is the title unconditionally: a comment-emptied
    // (or blank) title must not promote the first card to the title
    // when the serialised text is reparsed.
    let deck =
        Deck::parse("; no real title\nV1 in 0 DC 2\nR1 in out 1k\nR2 out 0 1k\n.op").unwrap();
    assert_eq!(deck.title, "");
    assert_eq!(deck.elements.len(), 3);
    let reparsed = Deck::parse(&deck.to_text()).unwrap();
    assert_eq!(deck, reparsed, "V1 must survive the round trip");
    // A deck left with the Default empty title serialises and reparses.
    let blank_first = Deck::parse("\nR1 a 0 1k").unwrap();
    assert_eq!(blank_first.title, "");
    assert_eq!(blank_first.elements.len(), 1);
}

#[test]
fn end_card_stops_parsing() {
    let deck = Deck::parse("t\nR1 a b 1k\n.end\ngarbage that would not parse").unwrap();
    assert_eq!(deck.elements.len(), 1);
}

#[test]
fn continuations_and_comments_interleave() {
    let deck = Deck::parse(
        "t ; title comment\n* leading comment\nV1 a 0 PULSE(0 1 ; comment\n+ 0 1n 1n\n+ 5n 10n)\nR1 a 0 1k",
    )
    .unwrap();
    assert_eq!(deck.elements.len(), 2);
}

// ---------------------------------------------------------- round-trip

#[test]
fn serialised_decks_reparse_equal() {
    let text = "round trip
.param vdd = 0.8
.model nfet cnfet polarity=n ef=-0.35 temp=350 l=80n
.model pfet cnfet polarity=p
VDD vdd 0 DC {vdd}
VIN in 0 SIN(0.4 0.1 1meg) AC 1
MP out in vdd pfet L=120n
MN out in 0 nfet
CL out 0 1f
I1 0 out DC 1u
RL out 0 100k
.op
.dc VIN 0 {vdd} 0.1
.tran 1n 10n
.ac dec 5 1k 1g
.ic v(out)=0.4
.print dc v(out)
.print ac v(out) v(in)
.end";
    let deck = Deck::parse(text).unwrap();
    let reparsed = Deck::parse(&deck.to_text()).unwrap();
    assert_eq!(deck, reparsed, "serialise → reparse is identity");
    // And a second serialisation is a fixpoint.
    assert_eq!(deck.to_text(), reparsed.to_text());
}

// ----------------------------------------------------------- snapshots

/// Exact rendered diagnostics: these strings are the product.
#[test]
fn error_rendering_snapshots() {
    let err = parse_err("snapshot deck\n.model nfet cnfet\nM1 out in 0 nfett L=100n");
    assert_eq!(
        err.to_string(),
        "deck:3:13: no model named 'nfett'; available models: nfet
    3 | M1 out in 0 nfett L=100n
      |             ^^^^^
      = help: did you mean 'nfet'?"
    );

    let err = parse_err("snapshot deck\nR1 a b 1k2");
    assert_eq!(
        err.to_string(),
        "deck:2:8: expected resistance, but '1k2' is not a number or known parameter
    2 | R1 a b 1k2
      |        ^^^"
    );

    let err = parse_err("snapshot deck\nVIN in 0 DC 0\nR1 in out 1k\n.dc VINN 0 1 0.1");
    assert_eq!(
        err.to_string(),
        "deck:4:5: no source named 'VINN'; available sources: VIN
    4 | .dc VINN 0 1 0.1
      |     ^^^^
      = help: did you mean 'VIN'?"
    );
}

/// A literal too large for a double lexes to infinity; it must fail at
/// its token instead of passing `--check` and failing (or silently
/// stopping) at run time.
#[test]
fn non_finite_literals_are_parse_errors() {
    let err = parse_err("non-finite tran\nV1 in 0 DC 1\nR1 in 0 1k\n.tran 1e999");
    assert_eq!(
        err.to_string(),
        "deck:4:7: expected the stop time (or a step size), but '1e999' is not a finite number
    4 | .tran 1e999
      |       ^^^^^"
    );

    let err = parse_err("non-finite capacitor\nV1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1e999");
    assert_eq!(
        err.to_string(),
        "deck:4:10: expected capacitance, but '1e999' is not a finite number
    4 | C1 out 0 1e999
      |          ^^^^^"
    );

    let err = parse_err("non-finite source\nV1 in 0 DC 1e999\nR1 in 0 1k");
    assert_eq!(
        err.to_string(),
        "deck:2:12: expected the DC value, but '1e999' is not a finite number
    2 | V1 in 0 DC 1e999
      |            ^^^^^"
    );
}

/// A negative PULSE edge, width or period used to pass `--check`: a
/// negative `tr` makes the source start at `v2`, and a negative `pw` cuts
/// the pulse to one sample. Each fails at its token, naming the
/// parameter; a negative delay `td` stays a phase shift.
#[test]
fn negative_pulse_durations_are_parse_errors() {
    let err = parse_err("negative rise\nV1 in 0 PULSE(0 1 0 -1n 1n 2n 5n)\nR1 in 0 1k\n.op");
    assert_eq!(
        err.to_string(),
        "deck:2:21: PULSE rise time tr must not be negative, got -1e-9
    2 | V1 in 0 PULSE(0 1 0 -1n 1n 2n 5n)
      |                     ^^^"
    );

    let err =
        parse_err("negative width\nV1 in 0 PULSE(0 1 0 1n 1n -2n 5n)\nR1 in 0 1k\n.tran 0.5n 3n");
    assert_eq!(
        err.to_string(),
        "deck:2:27: PULSE pulse width pw must not be negative, got -2e-9
    2 | V1 in 0 PULSE(0 1 0 1n 1n -2n 5n)
      |                           ^^^"
    );

    for (card, name) in [
        ("PULSE(0 1 0 1n -1n 2n 5n)", "fall time tf"),
        ("PULSE(0 1 0 1n 1n 2n -5n)", "period per"),
    ] {
        let err = parse_err(&format!("negative\nV1 in 0 {card}\nR1 in 0 1k\n.op"));
        assert!(err.to_string().contains(name), "{card}: {err}");
    }
    Deck::parse("negative delay\nV1 in 0 PULSE(0 1 -1n 1n 1n 2n 5n)\nR1 in 0 1k\n.op")
        .expect("a negative delay is a phase shift");
}

/// A mistyped step must not ask for more than `MAX_STEPS` points or
/// steps (10 000 000): such a card fails at parse time, at the token
/// that sets the count, instead of allocating every point or running
/// without end.
#[test]
fn runaway_point_counts_are_parse_errors() {
    let err = parse_err("runaway dc\nV1 in 0 DC 1\nR1 in 0 1k\n.dc V1 0 1 1p");
    assert_eq!(
        err.to_string(),
        "deck:4:12: this card asks for 1.000e12 sweep points; the bound is 10000000
    4 | .dc V1 0 1 1p
      |            ^^"
    );

    let err = parse_err("runaway ac\nV1 in 0 DC 0 AC 1\nR1 in 0 1k\n.ac lin 1e12 1k 1meg");
    assert_eq!(
        err.to_string(),
        "deck:4:9: this card asks for 1.000e12 frequency points; the bound is 10000000
    4 | .ac lin 1e12 1k 1meg
      |         ^^^^"
    );

    let err = parse_err("runaway tran\nV1 in 0 DC 1\nR1 in 0 1k\n.tran 1f 1");
    assert_eq!(
        err.to_string(),
        "deck:4:7: this card asks for 1.000e15 time steps (t_stop / dt); the bound is 10000000
    4 | .tran 1f 1
      |       ^^"
    );

    // A step so small its count overflows any integer, and a decade
    // sweep whose per-decade density multiplies past the bound.
    for card in [".dc V1 0 1 1e-300", ".ac dec 1e12 1 1meg"] {
        let deck = format!("runaway\nV1 in 0 DC 0 AC 1\nR1 in 0 1k\n{card}");
        let err = parse_err(&deck);
        assert!(
            err.to_string().contains("the bound is 10000000"),
            "{card}: {err}"
        );
    }
    // At the bound itself (10 000 000 points or steps) the cards parse.
    for card in [".dc V1 1 10meg 1", ".ac lin 10meg 1k 1meg", ".tran 1 10meg"] {
        let deck = format!("at the bound\nV1 in 0 DC 0 AC 1\nR1 in 0 1k\n{card}");
        Deck::parse(&deck).unwrap_or_else(|e| panic!("{card}: {e}"));
    }
}
