//! The deck workloads: cold `Deck::parse` → `Deck::run` →
//! `AnalysisReport::to_csv`, the path `cntfet-sim --csv` takes, run
//! in-process, plus the output checks that do not depend on the exact
//! float stream.

use crate::inputs::{Workload, VDD};
use crate::stats::counters_of;
use cntfet_circuit::deck::{AnalysisReport, Deck, DeckRun};
use std::collections::BTreeMap;

/// What one deck run produced: the exact CSV text of every report and
/// each report's deterministic counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    pub csv: Vec<String>,
    pub counters: Vec<BTreeMap<String, u64>>,
}

/// A report as `cntfet-sim --csv` prints it: its label, then the CSV.
pub fn report_csv(report: &AnalysisReport) -> String {
    format!("* {}\n{}", report.label, report.to_csv())
}

/// One cold deck, parse to CSV.
///
/// # Errors
///
/// The parse or run error, as text.
pub fn run_cold(text: &str) -> Result<(DeckRun, Outcome), String> {
    let deck = Deck::parse(text).map_err(|e| format!("parse: {e}"))?;
    let run = deck.run().map_err(|e| format!("run: {e}"))?;
    let outcome = Outcome {
        csv: run.reports.iter().map(report_csv).collect(),
        counters: run.reports.iter().map(|r| counters_of(&r.stats)).collect(),
    };
    Ok((run, outcome))
}

/// The workload's output check. Every probed voltage must be finite and
/// within −0.1…1.1 × VDD, plus a functional check per workload.
///
/// # Errors
///
/// What failed, as text.
pub fn check(workload: Workload, run: &DeckRun) -> Result<(), String> {
    let [report] = run.reports.as_slice() else {
        return Err(format!("expected one report, got {}", run.reports.len()));
    };
    let first_probe = usize::from(report.columns.first().is_some_and(|c| c == "time"));
    for row in &report.rows {
        for (name, &v) in report.columns.iter().zip(row).skip(first_probe) {
            if !v.is_finite() || !(-0.1 * VDD..=1.1 * VDD).contains(&v) {
                return Err(format!("{name} = {v} is outside -0.1..1.1 x VDD"));
            }
        }
    }
    let column = |name: &str| -> Result<Vec<f64>, String> {
        let j = report
            .columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| format!("no column {name}"))?;
        Ok(report.rows.iter().map(|row| row[j]).collect())
    };
    match workload {
        Workload::TranRing1k => {
            for probe in ["v(o0)", "v(o124)"] {
                let (lo, hi) = min_max(&column(probe)?);
                if lo > 0.1 * VDD || hi < 0.9 * VDD {
                    return Err(format!("{probe} spans {lo}..{hi}, not rail to rail"));
                }
            }
        }
        Workload::OpRing2k => {
            // Input low: odd stages settle high, even stages low. The
            // last stage (8) drives the row output `o<row>`.
            let row = &report.rows[0];
            let mut checked = 0;
            for (name, &v) in report.columns.iter().zip(row) {
                let Some(stage) = stage_of(name) else {
                    continue;
                };
                checked += 1;
                let ok = if stage % 2 == 0 {
                    v < 0.1 * VDD
                } else {
                    v > 0.9 * VDD
                };
                if !ok {
                    return Err(format!("stage-{stage} output {name} = {v}"));
                }
            }
            if checked != 2000 {
                return Err(format!("checked {checked} stage outputs, expected 2000"));
            }
        }
        Workload::TranAdder2 => {
            let (_, hi) = min_max(&column("v(c2)")?);
            if hi < 0.8 * VDD {
                return Err(format!("carry-out peaks at {hi} V, below 0.8 x VDD"));
            }
        }
        Workload::ServeMix => {}
    }
    Ok(())
}

fn min_max(w: &[f64]) -> (f64, f64) {
    w.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// The inverter stage a ring-array column probes: `v(xr<r>.n<k>)` is
/// stage `k`, `v(o<r>)` the last stage (8).
fn stage_of(column: &str) -> Option<usize> {
    let node = column.strip_prefix("v(")?.strip_suffix(')')?;
    if let Some(row) = node.strip_prefix('o') {
        return row.parse::<usize>().ok().map(|_| 8);
    }
    node.strip_prefix("xr")?.split_once(".n")?.1.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_are_read_from_ring_columns() {
        assert_eq!(stage_of("v(xr12.n4)"), Some(4));
        assert_eq!(stage_of("v(o249)"), Some(8));
        assert_eq!(stage_of("v(vdd)"), None);
        assert_eq!(stage_of("v(in)"), None);
    }
}
