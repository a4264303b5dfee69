//! The streaming contract of deck `.tran` cards: the rows a card emits
//! through `Deck::run_streaming` (one `RunEvent::Rows` per accepted
//! step, the events `cntfet-serve` streams) concatenate to exactly its
//! report rows and its CSV, and those rows are bitwise what a
//! programmatic `Simulator::transient` plus probe gives. Covers an
//! adaptive card (`inverter`), a fixed-step card (`rc_lowpass`) and a
//! deck with `.ic` (`ring_oscillator`).

use cntfet::circuit::deck::{
    AnalysisCard, AnalysisKind, AnalysisReport, Deck, RunContext, RunEvent, TranCard,
};
use cntfet::circuit::prelude::*;

fn read_deck(name: &str) -> Deck {
    let path = format!("{}/examples/decks/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Deck::parse(&text).unwrap_or_else(|e| panic!("{path}:\n{e}"))
}

fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
    rows.iter()
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// The rows of `report` rendered as CSV lines, header left out.
fn csv_body(report: &AnalysisReport) -> String {
    let csv = report.to_csv();
    let header_end = csv.find('\n').expect("a CSV has a header line") + 1;
    csv[header_end..].to_string()
}

/// The card's rows as a programmatic session computes them: the same
/// spec (and `.ic` start) the deck runner builds, probed by name.
fn programmatic_rows(deck: &Deck, card: &TranCard) -> Vec<Vec<f64>> {
    let mut sim = deck.simulator().expect("the deck lowers");
    let mut spec = match card.dt {
        Some(dt) => TransientSpec::fixed(card.t_stop, dt),
        None => TransientSpec::adaptive(card.t_stop),
    }
    .with_options(deck.transient_options());
    if deck.ics.iter().any(|ic| !ic.entries.is_empty()) {
        let mut x0 = sim.op().expect("operating point").x().to_vec();
        for (probe, volts) in deck.ics.iter().flat_map(|ic| &ic.entries) {
            if let Some(i) = sim
                .circuit()
                .find_node(&probe.node)
                .and_then(|n| n.unknown_index())
            {
                x0[i] = *volts;
            }
        }
        spec = spec.with_initial(x0);
    }
    let run = sim.transient(&spec).expect("transient");
    let waves: Vec<&[f64]> = deck
        .probes(AnalysisKind::Tran)
        .iter()
        .map(|node| run.voltage(node).expect("probe"))
        .collect();
    run.time()
        .iter()
        .enumerate()
        .map(|(k, &t)| {
            std::iter::once(t)
                .chain(waves.iter().map(|w| w[k]))
                .collect()
        })
        .collect()
}

fn assert_tran_cards_stream_their_reports(name: &str) {
    let deck = read_deck(name);
    let mut events = Vec::new();
    let run = deck
        .run_streaming(&RunContext::default(), None, &mut |e| events.push(e))
        .unwrap_or_else(|e| panic!("{name}:\n{e}"));
    let mut tran_cards = 0;
    for (index, analysis) in deck.analyses.iter().enumerate() {
        let AnalysisCard::Tran(card) = analysis else {
            continue;
        };
        tran_cards += 1;
        let report = &run.reports[index];
        let batches: Vec<&Vec<Vec<f64>>> = events
            .iter()
            .filter_map(|event| match event {
                RunEvent::Rows { index: i, rows } if *i == index => Some(rows),
                _ => None,
            })
            .collect();
        assert!(
            batches.iter().all(|rows| rows.len() == 1),
            "{name}: one row per accepted step"
        );
        let streamed: Vec<Vec<f64>> = batches
            .iter()
            .flat_map(|rows| rows.iter().cloned())
            .collect();
        assert_eq!(
            streamed[0][0], 0.0,
            "{name}: the initial state streams first"
        );
        assert_eq!(bits(&streamed), bits(&report.rows), "{name}: streamed rows");
        // Each batch rendered on its own, concatenated after the header,
        // is the card's CSV byte for byte.
        let mut csv = format!("{}\n", report.columns.join(","));
        for rows in &batches {
            csv.push_str(&csv_body(&AnalysisReport {
                rows: rows.to_vec(),
                ..report.clone()
            }));
        }
        assert_eq!(csv, report.to_csv(), "{name}: streamed CSV");
        assert_eq!(
            bits(&programmatic_rows(&deck, card)),
            bits(&report.rows),
            "{name}: deck rows vs Simulator::transient"
        );
    }
    assert_eq!(tran_cards, 1, "{name} has one .tran card");
}

#[test]
fn adaptive_tran_card_streams_its_report() {
    assert_tran_cards_stream_their_reports("inverter.cir");
}

#[test]
fn fixed_step_tran_card_streams_its_report() {
    assert_tran_cards_stream_their_reports("rc_lowpass.cir");
}

#[test]
fn tran_card_with_initial_conditions_streams_its_report() {
    assert_tran_cards_stream_their_reports("ring_oscillator.cir");
}
