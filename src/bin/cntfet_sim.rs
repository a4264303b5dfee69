//! `cntfet-sim` — run a SPICE deck through the CNFET circuit simulator.
//!
//! ```text
//! usage: cntfet-sim [--csv] [--check] [--lint] [lint options] <deck.cir>
//! ```
//!
//! Parses the deck, runs every analysis card (`.op`, `.dc`, `.tran`,
//! `.ac`) through a [`cntfet::circuit::sim::Simulator`] session, and
//! prints each card's probe output as an aligned table (default) or
//! CSV (`--csv`). `--check` parses, validates, lints and lowers the
//! deck — fitting its `.model` cards — without running any analysis.
//! `--lint` runs the static analyzer alone: structural errors (a node
//! isolated behind capacitors, a loop of ideal voltage sources, a
//! structurally singular MNA pattern) and hygiene warnings, each with
//! a stable `E###`/`W###` code tunable via `--allow CODE`,
//! `--deny CODE` and `--deny-warnings`. The full code table lives in
//! the "Diagnostics reference" section of `docs/DECK_FORMAT.md`.
//!
//! Errors render compiler-style diagnostics with the offending source
//! line, a caret span and (where applicable) a "did you mean"
//! suggestion, and exit with status 1.

use cntfet::circuit::deck::{Deck, LintCode, LintOptions};
use std::process::ExitCode;

const USAGE: &str =
    "usage: cntfet-sim [--csv] [--stats] [--check] [--lint] [lint options] <deck.cir>

  --csv             print analysis reports as CSV instead of aligned tables
  --stats           print per-card engine counters (factorizations by path,
                    columns recomputed, full and residual-only device
                    evals, limiter clamps, armijo backtracks and exhausted
                    line searches, ptc stages)
  --check           parse, validate, lint and lower the deck but run nothing
  --lint            run the static deck analyzer and print its findings

lint options (with --lint or --check):
  --allow CODE      drop a lint code entirely (repeatable)
  --deny CODE       report a lint code as an error (repeatable)
  --deny-warnings   report every warning as an error

Lint codes are stable E###/W### identifiers (e.g. E101 no DC path to
ground, W301 unused .param); see docs/DECK_FORMAT.md for the table.

The deck dialect (R/C/V/I and CNFET M cards, .model, .param, .option,
.subckt/.ends definitions with X instance cards, .op, .dc, .tran, .ac,
.print) is documented in docs/DECK_FORMAT.md.";

/// Parses an `E###`/`W###` argument, exiting with the valid code list
/// on failure.
fn parse_code(flag: &str, text: Option<String>) -> Result<LintCode, ExitCode> {
    let Some(text) = text else {
        eprintln!("cntfet-sim: {flag} needs a lint code\n{USAGE}");
        return Err(ExitCode::FAILURE);
    };
    LintCode::parse(&text).ok_or_else(|| {
        let all: Vec<&str> = LintCode::ALL.iter().map(|c| c.as_str()).collect();
        eprintln!(
            "cntfet-sim: unknown lint code '{text}' for {flag} (valid codes: {})",
            all.join(", ")
        );
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut csv = false;
    let mut stats = false;
    let mut check = false;
    let mut lint = false;
    let mut lint_opts = LintOptions::default();
    let mut path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        // Accept both `--allow CODE` and `--allow=CODE`.
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) if flag.starts_with("--") => {
                (flag.to_string(), Some(value.to_string()))
            }
            _ => (arg.clone(), None),
        };
        match flag.as_str() {
            "--csv" => csv = true,
            "--stats" => stats = true,
            "--check" => check = true,
            "--lint" => lint = true,
            "--deny-warnings" => lint_opts.deny_warnings = true,
            "--allow" => match parse_code("--allow", inline.or_else(|| args.next())) {
                Ok(code) => {
                    lint_opts.allow.insert(code);
                }
                Err(status) => return status,
            },
            "--deny" => match parse_code("--deny", inline.or_else(|| args.next())) {
                Ok(code) => {
                    lint_opts.deny.insert(code);
                }
                Err(status) => return status,
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with('-') => {
                eprintln!("cntfet-sim: unknown option '{arg}'\n{USAGE}");
                return ExitCode::FAILURE;
            }
            _ if path.is_none() => path = Some(arg),
            _ => {
                eprintln!("cntfet-sim: more than one deck given\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("cntfet-sim: no deck given\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cntfet-sim: cannot read '{path}': {e}");
            return ExitCode::FAILURE;
        }
    };
    let deck = match Deck::parse(&text) {
        Ok(deck) => deck,
        Err(e) => {
            eprintln!("cntfet-sim: {path}:\n{e}");
            return ExitCode::FAILURE;
        }
    };
    if lint || check {
        let report = deck.lint(&lint_opts);
        if !report.is_clean() {
            eprint!("cntfet-sim: {path}:\n{report}");
        }
        if report.has_errors() {
            let errors = report
                .findings
                .iter()
                .filter(|f| f.severity == cntfet::circuit::deck::Severity::Error)
                .count();
            eprintln!(
                "cntfet-sim: {path}: {errors} lint error{} — the deck cannot run",
                if errors == 1 { "" } else { "s" }
            );
            return ExitCode::FAILURE;
        }
        if lint && !check {
            let n = report.findings.len();
            println!(
                "{path}: lint ok — {n} warning{}",
                if n == 1 { "" } else { "s" }
            );
            return ExitCode::SUCCESS;
        }
    }
    if check {
        return match deck.circuit() {
            Ok(circuit) => {
                println!(
                    "{path}: ok — '{}': {} elements, {} nodes, {} unknowns, {} analyses",
                    deck.title,
                    deck.elements.len(),
                    circuit.node_count(),
                    circuit.unknown_count(),
                    deck.analyses.len()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cntfet-sim: {path}:\n{e}");
                ExitCode::FAILURE
            }
        };
    }
    match deck.run() {
        Ok(run) => {
            // Tolerate a closed pipe (`cntfet-sim … | head`) instead of
            // panicking mid-print.
            use std::io::Write as _;
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            let mut emit = move || -> std::io::Result<()> {
                writeln!(out, "* {}", run.title)?;
                for report in &run.reports {
                    writeln!(out, "\n* {}", report.label)?;
                    let body = if csv {
                        report.to_csv()
                    } else {
                        report.to_table()
                    };
                    out.write_all(body.as_bytes())?;
                    if stats {
                        writeln!(out, "* stats: {}", report.stats.summary())?;
                    }
                }
                if stats {
                    let c = run.caches.models;
                    writeln!(
                        out,
                        "\n* model cache: {} fitted, {} reused",
                        c.misses, c.hits
                    )?;
                }
                Ok(())
            };
            match emit() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("cntfet-sim: cannot write output: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("cntfet-sim: {path}:\n{e}");
            ExitCode::FAILURE
        }
    }
}
