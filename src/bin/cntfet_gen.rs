//! `cntfet-gen` — emit scalable CNFET benchmark decks built from the
//! standard-cell library.
//!
//! ```text
//! usage: cntfet-gen [--flat] [-o FILE] <workload> <size…>
//! ```
//!
//! Workloads are hierarchical by default (`.subckt` cell definitions
//! plus `X` instance cards); `--flat` emits the generator's own
//! pre-flattened netlist with identical node names, element order and
//! analysis cards, so `cntfet-sim --csv` output of the two decks
//! compares byte-for-byte — the independent witness that the parser's
//! flattener is correct at scale.

use cntfet::circuit::deck::generate::Workload;
use std::process::ExitCode;

const USAGE: &str = "usage: cntfet-gen [--flat] [-o FILE] <workload> <size…>

workloads:
  ring-array <rows> <stages>   rows parallel chains of <stages> inverters
  adder <bits>                 N-bit ripple-carry adder (9 NAND2 gates/bit)
  shift-register <bits>        N-stage D-flip-flop shift register (9 gates/stage)

options:
  --flat    emit the pre-flattened netlist instead of .subckt/X cards;
            node names and analysis output match the hierarchical deck
            byte-for-byte
  -o FILE   write the deck to FILE instead of stdout

The emitted deck parses, lints cleanly and runs through cntfet-sim,
except a shift register of 3 or more stages: its .tran card does not
converge yet, failing once the fixed-grid substeps run out. Sizes below
1 are clamped to 1.";

/// Parses one positive size argument, exiting with usage on failure.
fn parse_size(what: &str, text: Option<&String>) -> Result<usize, ExitCode> {
    let Some(text) = text else {
        eprintln!("cntfet-gen: missing {what}\n{USAGE}");
        return Err(ExitCode::FAILURE);
    };
    match text.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => {
            eprintln!("cntfet-gen: {what} must be a positive integer, got '{text}'\n{USAGE}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn main() -> ExitCode {
    let mut flat = false;
    let mut out_path: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--flat" => flat = true,
            "-o" | "--output" => match args.next() {
                Some(path) => out_path = Some(path),
                None => {
                    eprintln!("cntfet-gen: {arg} needs a file path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                eprintln!("cntfet-gen: unknown option '{arg}'\n{USAGE}");
                return ExitCode::FAILURE;
            }
            _ => positional.push(arg),
        }
    }
    let Some(kind) = positional.first() else {
        eprintln!("cntfet-gen: no workload given\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let workload = match kind.as_str() {
        "ring-array" => {
            let rows = match parse_size("<rows>", positional.get(1)) {
                Ok(n) => n,
                Err(status) => return status,
            };
            let stages = match parse_size("<stages>", positional.get(2)) {
                Ok(n) => n,
                Err(status) => return status,
            };
            Workload::RingArray { rows, stages }
        }
        "adder" => {
            let bits = match parse_size("<bits>", positional.get(1)) {
                Ok(n) => n,
                Err(status) => return status,
            };
            Workload::Adder { bits }
        }
        "shift-register" => {
            let bits = match parse_size("<bits>", positional.get(1)) {
                Ok(n) => n,
                Err(status) => return status,
            };
            Workload::ShiftRegister { bits }
        }
        other => {
            eprintln!(
                "cntfet-gen: unknown workload '{other}' \
                 (ring-array, adder, shift-register)\n{USAGE}"
            );
            return ExitCode::FAILURE;
        }
    };
    let expected = 1 + workload_args(&workload);
    if positional.len() != expected {
        eprintln!(
            "cntfet-gen: '{kind}' takes {} size argument{}\n{USAGE}",
            expected - 1,
            if expected == 2 { "" } else { "s" }
        );
        return ExitCode::FAILURE;
    }
    let deck = workload.deck(flat);
    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, deck) {
                eprintln!("cntfet-gen: cannot write '{path}': {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "cntfet-gen: wrote {}{} to {path}",
                workload.title(),
                if flat { " [flat]" } else { "" }
            );
        }
        None => print!("{deck}"),
    }
    ExitCode::SUCCESS
}

/// Number of size arguments each workload consumes.
fn workload_args(w: &Workload) -> usize {
    match w {
        Workload::RingArray { .. } => 2,
        Workload::Adder { .. } | Workload::ShiftRegister { .. } => 1,
    }
}
