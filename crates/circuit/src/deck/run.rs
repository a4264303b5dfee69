//! Executing a deck's analysis cards and rendering the probe output.
//!
//! [`Deck::run`] walks the analysis cards in source order. Each card
//! gets a **fresh** circuit (the SPICE convention: every analysis sees
//! the pristine netlist — a `.dc` sweep overwrites its swept source's
//! waveform and must not leak that into a later `.tran`), while the
//! fitted CNFET models are built once and shared, and one Newton
//! engine carries its symbolic caches (sparsity pattern, pivot plan)
//! across the per-card sessions via
//! [`Simulator::resume`](crate::sim::Simulator::resume). Each analysis
//! lowers to the session's typed request — `.dc` →
//! [`SweepSpec`](crate::sim::SweepSpec), `.tran` → [`TransientSpec`],
//! `.ac` → [`AcSweep`] — and the probed waveforms come back as an
//! [`AnalysisReport`] that renders as an aligned table or CSV.
//!
//! [`Deck::run_with`] is the warm-serving entry point: a
//! [`RunContext`] can share a [`ModelCache`] and [`EnginePool`] across
//! runs (keyed by fitting parameters and
//! [`Deck::topology_hash`](super::Deck::topology_hash) respectively),
//! carry a cooperative cancellation flag, and
//! [`Deck::run_streaming`] additionally emits [`RunEvent`]s — headers,
//! row batches (transient rows arrive per accepted step), per-card
//! stats — as the run progresses, the seam the `cntfet-serve` job
//! streaming rides on. Every cache is semantically invisible: a warm
//! run's reports are bitwise-equal to a cold run's (see the
//! [`cache`](super::cache) module docs for why).

use super::cache::{CacheStats, EnginePool, ModelCache};
use super::error::DeckError;
use super::{AcCard, AcScale, AnalysisCard, AnalysisKind, DcCard, Deck, OpCard, TranCard};
use crate::ac::{AcSweep, FreqGrid};
use crate::engine::{EngineCounters, NewtonEngine};
use crate::error::CircuitError;
use crate::sim::{Probe, Simulator, TransientSpec};
use std::fmt::Write as _;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Hot-path solver counters of one analysis card, printed by
/// `cntfet-sim --stats` and served per report by `cntfet-serve`: the
/// card's share of its engine's [`EngineCounters`]. Each card runs on
/// a fresh session, so these are exact per-card numbers; an AC card's
/// complex per-frequency factorisations count like any other.
pub type CardStats = EngineCounters;

/// The probe output of one analysis card: named columns over f64 rows.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// The analysis card in canonical text form (e.g. `.dc VIN 0e0 8e-1 5e-2`).
    pub label: String,
    /// Column names: the independent variable first (`VIN`, `time`,
    /// `freq`; none for `.op`), then one (`.ac`: two) per probed node.
    pub columns: Vec<String>,
    /// One row per point, in column order.
    pub rows: Vec<Vec<f64>>,
    /// Per-card solver-cost counters (see [`CardStats`]).
    pub stats: CardStats,
}

impl AnalysisReport {
    /// Renders as CSV: a header line, then one line per row from
    /// [`push_csv_rows`].
    pub fn to_csv(&self) -> String {
        let mut out = self.columns.join(",");
        out.push('\n');
        push_csv_rows(&mut out, &self.rows);
        out
    }

    /// Renders as an aligned, human-readable table (`%.6e` cells).
    pub fn to_table(&self) -> String {
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(|v| format!("{v:.6e}")).collect())
            .collect();
        let widths: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(j, name)| {
                cells
                    .iter()
                    .map(|row| row[j].len())
                    .chain([name.len()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut out = String::new();
        for (j, name) in self.columns.iter().enumerate() {
            if j > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{name:>width$}", width = widths[j]);
        }
        out.push('\n');
        for row in &cells {
            for (j, cell) in row.iter().enumerate() {
                if j > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>width$}", width = widths[j]);
            }
            out.push('\n');
        }
        out
    }
}

/// Appends `rows` to `out` as CSV lines without a header: each number
/// printed exactly (`{v:e}`, the shortest text that reparses to the
/// same f64, so CSV output round-trips bit-for-bit), comma-separated,
/// one newline-terminated line per row. [`AnalysisReport::to_csv`] and
/// the server's streamed row batches both render rows here, so a
/// streamed batch is bitwise the matching lines of the report CSV.
pub fn push_csv_rows(out: &mut String, rows: &[Vec<f64>]) {
    for row in rows {
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v:e}");
        }
        out.push('\n');
    }
}

/// The result of running every analysis card of a deck.
#[derive(Debug, Clone, PartialEq)]
pub struct DeckRun {
    /// The deck's title line.
    pub title: String,
    /// One report per analysis card, in source order.
    pub reports: Vec<AnalysisReport>,
    /// This run's cache traffic (zeroes for a cold [`Deck::run`]).
    pub caches: RunCaches,
}

/// Per-run cache hit/miss counts, carried on [`DeckRun`]. Like
/// [`ParamUses`](super::ParamUses) this is diagnostic metadata: it
/// compares equal to every other value, so cache luck never breaks
/// result equality.
#[derive(Debug, Clone, Copy, Default, Eq)]
pub struct RunCaches {
    /// Fitted-model cache traffic (one lookup per `.model` card).
    pub models: CacheStats,
    /// Warm-engine pool traffic (one lookup per run).
    pub engines: CacheStats,
}

impl PartialEq for RunCaches {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// Shared state a [`Deck::run_with`] call may draw on. The default
/// context (used by [`Deck::run`]) shares nothing: every run fits its
/// models and builds its symbolic factorization cold.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunContext<'a> {
    /// Fitted-model cache shared across runs, keyed by fitting
    /// parameters. `None` fits cold.
    pub models: Option<&'a ModelCache>,
    /// Warm-engine pool shared across runs, keyed by
    /// [`Deck::topology_hash`](super::Deck::topology_hash). `None`
    /// builds the symbolic factorization cold.
    pub engines: Option<&'a EnginePool>,
}

/// A cooperative cancellation flag for [`Deck::run_streaming`]:
/// raising it makes the run return a [`DeckError`] wrapping
/// [`CircuitError::Cancelled`] within one Newton iteration / accepted
/// transient step / AC frequency point.
pub type CancelFlag = Arc<AtomicBool>;

/// One progress event of a [`Deck::run_streaming`] call, emitted in
/// order: for every card `ReportStart`, then one or more `Rows`
/// batches (`.tran` cards stream one row per accepted step; other
/// cards deliver all rows at once), then `ReportEnd`. Events carry the
/// card's index into [`Deck::analyses`] so interleaving consumers
/// don't need positional state.
#[derive(Debug, Clone, PartialEq)]
pub enum RunEvent {
    /// A card started: its label and column names.
    ReportStart(ReportHeader),
    /// A batch of result rows for card `index`, in column order.
    Rows {
        /// Index of the card into [`Deck::analyses`].
        index: usize,
        /// The new rows, appended to any previously delivered ones.
        rows: Vec<Vec<f64>>,
    },
    /// Card `index` finished; its rows are complete.
    ReportEnd {
        /// Index of the card into [`Deck::analyses`].
        index: usize,
        /// The card's solver-cost counters.
        stats: CardStats,
    },
}

/// The header of one streamed report — see [`RunEvent::ReportStart`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReportHeader {
    /// Index of the card into [`Deck::analyses`].
    pub index: usize,
    /// The analysis card in canonical text form.
    pub label: String,
    /// Column names (see [`AnalysisReport::columns`]).
    pub columns: Vec<String>,
}

/// A card's column names and its rows, in column order.
type Table = (Vec<String>, Vec<Vec<f64>>);

impl Deck {
    /// Runs every analysis card (see the [module docs](super) for the
    /// per-card semantics) and collects the probe reports.
    ///
    /// # Errors
    ///
    /// [`DeckError`] when a model fails to fit or an analysis fails to
    /// converge — run-time failures are anchored at the analysis
    /// card's source line.
    pub fn run(&self) -> Result<DeckRun, DeckError> {
        self.run_with(&RunContext::default())
    }

    /// [`Deck::run`] drawing on shared caches — see [`RunContext`].
    /// Results are bitwise-equal to a cold [`Deck::run`] regardless of
    /// cache hits.
    ///
    /// # Errors
    ///
    /// As [`Deck::run`].
    pub fn run_with(&self, ctx: &RunContext<'_>) -> Result<DeckRun, DeckError> {
        self.run_streaming(ctx, None, &mut |_| {})
    }

    /// [`Deck::run_with`] with cooperative cancellation and progress
    /// streaming: `emit` receives [`RunEvent`]s as cards start, rows
    /// land (transient rows one accepted step at a time) and cards
    /// finish. The returned [`DeckRun`] carries the same rows the
    /// events delivered.
    ///
    /// # Errors
    ///
    /// As [`Deck::run`]; additionally, raising `cancel` aborts the run
    /// with a [`DeckError`] wrapping [`CircuitError::Cancelled`].
    pub fn run_streaming(
        &self,
        ctx: &RunContext<'_>,
        cancel: Option<&CancelFlag>,
        emit: &mut dyn FnMut(RunEvent),
    ) -> Result<DeckRun, DeckError> {
        let local_models;
        let model_cache = match ctx.models {
            Some(shared) => shared,
            None => {
                local_models = ModelCache::new();
                &local_models
            }
        };
        let model_base = model_cache.stats();
        let engine_base = ctx.engines.map(|p| p.stats()).unwrap_or_default();
        let models = self.build_models_with(model_cache)?;
        let newton = self.newton_options();
        let topology = self.topology_hash();
        // One engine serves the whole run: taken warm from the pool
        // when a structurally identical deck ran before, then carried
        // from card to card. Every card still sees a pristine circuit,
        // so the engine's frozen elimination plan replays the exact
        // arithmetic a cold pivot-searching factorization performs —
        // reports stay bitwise-equal to a cold run.
        let mut warm: Option<NewtonEngine> = ctx.engines.and_then(|pool| pool.take(topology));
        let mut reports = Vec::with_capacity(self.analyses.len());
        for (index, analysis) in self.analyses.iter().enumerate() {
            let circuit = self.circuit_with(&models);
            let mut sim = match warm.take() {
                Some(engine) => Simulator::resume(circuit, engine, newton),
                None => Simulator::with_options(circuit, newton),
            };
            if let Some(flag) = cancel {
                sim.set_cancel(Some(Arc::clone(flag)));
            }
            // Counters are engine-lifetime cumulative; baseline them so
            // per-card stats stay exact with a shared engine.
            let base = sim.counters();
            let label = analysis.to_string();
            let (columns, rows) = match analysis {
                AnalysisCard::Op(card) => self.run_op(&mut sim, card, &label, index, emit),
                AnalysisCard::Dc(card) => self.run_dc(&mut sim, card, &label, index, emit),
                AnalysisCard::Tran(card) => self.run_tran(&mut sim, card, &label, index, emit),
                AnalysisCard::Ac(card) => self.run_ac(&mut sim, card, &label, index, emit),
            }?;
            let stats = sim.counters().delta_since(&base);
            emit(RunEvent::ReportEnd { index, stats });
            warm = Some(sim.into_engine());
            reports.push(AnalysisReport {
                label,
                columns,
                rows,
                stats,
            });
        }
        if let (Some(pool), Some(engine)) = (ctx.engines, warm) {
            pool.put(topology, engine);
        }
        Ok(DeckRun {
            title: self.title.clone(),
            reports,
            caches: RunCaches {
                models: model_cache.stats().delta_since(&model_base),
                engines: ctx
                    .engines
                    .map(|p| p.stats().delta_since(&engine_base))
                    .unwrap_or_default(),
            },
        })
    }

    fn run_op(
        &self,
        sim: &mut Simulator,
        card: &OpCard,
        label: &str,
        index: usize,
        emit: &mut dyn FnMut(RunEvent),
    ) -> Result<Table, DeckError> {
        let probes = self.probes(AnalysisKind::Op);
        let columns: Vec<String> = probes.iter().map(|n| format!("v({n})")).collect();
        emit(RunEvent::ReportStart(ReportHeader {
            index,
            label: label.to_string(),
            columns: columns.clone(),
        }));
        let op = sim.op().map_err(|e| card.origin.circuit_error(&e))?;
        let mut row = Vec::with_capacity(probes.len());
        for node in &probes {
            row.push(
                op.voltage(node)
                    .map_err(|e| card.origin.circuit_error(&e))?,
            );
        }
        let rows = vec![row];
        emit(RunEvent::Rows {
            index,
            rows: rows.clone(),
        });
        Ok((columns, rows))
    }

    fn run_dc(
        &self,
        sim: &mut Simulator,
        card: &DcCard,
        label: &str,
        index: usize,
        emit: &mut dyn FnMut(RunEvent),
    ) -> Result<Table, DeckError> {
        let probes = self.probes(AnalysisKind::Dc);
        let mut columns = vec![card.source.clone()];
        columns.extend(probes.iter().map(|n| format!("v({n})")));
        emit(RunEvent::ReportStart(ReportHeader {
            index,
            label: label.to_string(),
            columns: columns.clone(),
        }));
        let result = sim
            .dc_sweep(&card.spec())
            .map_err(|e| card.origin.circuit_error(&e))?;
        let mut waves = Vec::with_capacity(probes.len());
        for node in &probes {
            waves.push(
                result
                    .voltage(node)
                    .map_err(|e| card.origin.circuit_error(&e))?,
            );
        }
        let rows: Vec<Vec<f64>> = result
            .values
            .iter()
            .enumerate()
            .map(|(k, &v)| {
                let mut row = Vec::with_capacity(columns.len());
                row.push(v);
                row.extend(waves.iter().map(|w| w[k]));
                row
            })
            .collect();
        emit(RunEvent::Rows {
            index,
            rows: rows.clone(),
        });
        Ok((columns, rows))
    }

    fn run_tran(
        &self,
        sim: &mut Simulator,
        card: &TranCard,
        label: &str,
        index: usize,
        emit: &mut dyn FnMut(RunEvent),
    ) -> Result<Table, DeckError> {
        let probes = self.probes(AnalysisKind::Tran);
        let mut spec = match card.dt {
            Some(dt) => TransientSpec::fixed(card.t_stop, dt),
            None => TransientSpec::adaptive(card.t_stop),
        };
        spec = spec.with_options(self.transient_options());
        // `.ic` cards: start from the operating point with the listed
        // node voltages overridden.
        if self.ics.iter().any(|ic| !ic.entries.is_empty()) {
            let op = sim.op().map_err(|e| card.origin.circuit_error(&e))?;
            let mut x0 = op.x().to_vec();
            for ic in &self.ics {
                for (probe, volts) in &ic.entries {
                    // Node names were validated at parse time; ground
                    // entries (fixed at 0 V) are ignored.
                    if let Some(i) = sim
                        .circuit()
                        .find_node(&probe.node)
                        .and_then(|n| n.unknown_index())
                    {
                        x0[i] = *volts;
                    }
                }
            }
            spec = spec.with_initial(x0);
        }
        let mut columns = vec!["time".to_string()];
        columns.extend(probes.iter().map(|n| format!("v({n})")));
        emit(RunEvent::ReportStart(ReportHeader {
            index,
            label: label.to_string(),
            columns: columns.clone(),
        }));
        // Stream one row per accepted step straight from the solver's
        // observer seam and keep the same rows for the report: the card
        // never holds more than its probe rows, and the streamed and
        // collected rows are the same values.
        let probe = Probe::from_circuit(sim.circuit());
        let unknown_of = probes
            .iter()
            .map(|node| Ok(probe.node(node)?.unknown_index()))
            .collect::<Result<Vec<Option<usize>>, CircuitError>>()
            .map_err(|e| card.origin.circuit_error(&e))?;
        let mut rows = Vec::new();
        sim.transient_observed(&spec, |t, x| {
            let mut row = Vec::with_capacity(columns.len());
            row.push(t);
            row.extend(unknown_of.iter().map(|i| i.map_or(0.0, |i| x[i])));
            emit(RunEvent::Rows {
                index,
                rows: vec![row.clone()],
            });
            rows.push(row);
        })
        .map_err(|e| card.origin.circuit_error(&e))?;
        Ok((columns, rows))
    }

    fn run_ac(
        &self,
        sim: &mut Simulator,
        card: &AcCard,
        label: &str,
        index: usize,
        emit: &mut dyn FnMut(RunEvent),
    ) -> Result<Table, DeckError> {
        let probes = self.probes(AnalysisKind::Ac);
        let grid = match card.scale {
            AcScale::Dec => FreqGrid::Decade {
                f_start: card.f_start,
                f_stop: card.f_stop,
                points_per_decade: card.points,
            },
            AcScale::Lin => FreqGrid::Linear {
                f_start: card.f_start,
                f_stop: card.f_stop,
                points: card.points,
            },
        };
        let sweep = AcSweep {
            source: card.stimulus.clone(),
            grid,
        };
        let mut columns = vec!["freq".to_string()];
        for node in &probes {
            columns.push(format!("vm({node})"));
            columns.push(format!("vp({node})"));
        }
        emit(RunEvent::ReportStart(ReportHeader {
            index,
            label: label.to_string(),
            columns: columns.clone(),
        }));
        let response = sim.ac(&sweep).map_err(|e| card.origin.circuit_error(&e))?;
        let mut mags = Vec::with_capacity(probes.len());
        let mut phases = Vec::with_capacity(probes.len());
        for node in &probes {
            mags.push(
                response
                    .magnitude(node)
                    .map_err(|e| card.origin.circuit_error(&e))?,
            );
            phases.push(
                response
                    .phase_deg(node)
                    .map_err(|e| card.origin.circuit_error(&e))?,
            );
        }
        let rows: Vec<Vec<f64>> = response
            .frequencies()
            .iter()
            .enumerate()
            .map(|(k, &f)| {
                let mut row = Vec::with_capacity(columns.len());
                row.push(f);
                for (m, p) in mags.iter().zip(&phases) {
                    row.push(m[k]);
                    row.push(p[k]);
                }
                row
            })
            .collect();
        emit(RunEvent::Rows {
            index,
            rows: rows.clone(),
        });
        Ok((columns, rows))
    }
}
