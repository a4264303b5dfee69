//! SPICE deck front-end: parse external netlists into [`Simulator`]
//! sessions.
//!
//! Everything else in this crate builds circuits programmatically
//! against [`Circuit`](crate::netlist::Circuit); this module is the
//! text front door. A *deck* is a SPICE-like netlist — a title line,
//! element cards (`R`/`C`/`V`/`I` and CNFET `M` cards), `.model` and
//! `.param` definitions, analysis cards (`.op`, `.dc`, `.tran`, `.ac`)
//! and `.print` probe selections — that parses into a [`Deck`], lowers
//! onto the existing node/element layout, and runs each analysis card
//! through the typed [`Simulator`] API ([`SweepSpec`],
//! [`TransientSpec`](crate::sim::TransientSpec),
//! [`AcSweep`](crate::ac::AcSweep)).
//!
//! The accepted dialect is documented card-by-card in
//! `docs/DECK_FORMAT.md` at the repository root; the `cntfet-sim`
//! binary wraps [`Deck::run`] as a command-line tool.
//!
//! # Pipeline
//!
//! ```text
//! text ──lex──▶ logical lines ──parse──▶ Deck (cards, validated names)
//!      ──build──▶ Circuit + fitted CNFET models
//!      ──run──▶ one fresh Simulator session per analysis card ──▶ DeckRun
//! ```
//!
//! Parsing validates everything that does not require a solver: card
//! syntax, SPICE numbers (`1k`, `2.5u`, `10meg`), `.param` arithmetic,
//! duplicate element/model/parameter names, `.dc` sweep sources,
//! `.print` probe nodes and the `.ac` stimulus flag. Failures carry
//! line/column spans and render compiler-style diagnostics with
//! "did you mean" suggestions (see [`DeckError`]).
//!
//! Each analysis card runs on a **fresh circuit**, so an earlier card
//! can never perturb a later one (a `.dc` sweep overwrites its swept
//! source's waveform, for example) — the SPICE convention of analysing
//! the pristine netlist. Fitted CNFET models are shared across those
//! rebuilds, and one Newton engine carries its symbolic caches from
//! card to card (and, through [`Deck::run_with`], from run to run via
//! a [`ModelCache`] / [`EnginePool`]) without changing any result bit.
//!
//! # Example
//!
//! ```
//! use cntfet_circuit::deck::Deck;
//!
//! let deck = Deck::parse(
//!     "resistive divider
//!      V1 in 0 DC 2
//!      R1 in out 1k
//!      R2 out 0 1k
//!      .op
//!      .print op v(out)",
//! )?;
//! let run = deck.run()?;
//! assert_eq!(run.reports[0].columns, ["v(out)"]);
//! assert!((run.reports[0].rows[0][0] - 1.0).abs() < 1e-9);
//! # Ok::<(), cntfet_circuit::deck::DeckError>(())
//! ```
//!
//! # Round-tripping
//!
//! [`Deck::to_text`] serialises a deck back to card text that reparses
//! to an equal `Deck` (spans are diagnostic metadata and never
//! participate in equality), and the two decks lower to circuits whose
//! analysis results are bitwise identical — asserted by the round-trip
//! tests in `tests/deck_parser.rs`.

mod build;
mod cache;
mod error;
mod expr;
pub mod generate;
mod lex;
mod lint;
mod parse;
mod run;

pub use cache::{CacheStats, EnginePool, ModelCache};
pub use error::{suggest, DeckError, SourceRef, Span};
pub use lex::parse_number;
pub use lint::{Finding, LintCode, LintOptions, LintReport, Severity};
pub use run::{
    push_csv_rows, AnalysisReport, CardStats, DeckRun, ReportHeader, RunCaches, RunContext,
    RunEvent,
};

use crate::cnfet::Polarity;
use crate::element::Waveform;
use crate::sim::Simulator;
use crate::sim::SweepSpec;
use std::fmt;

/// A parsed SPICE deck: title, element cards, model/parameter
/// definitions, analysis cards and probe selections, in source order.
///
/// Obtain one with [`Deck::parse`]; lower it with [`Deck::circuit`] /
/// [`Deck::simulator`]; execute its analysis cards with [`Deck::run`].
/// See the [module docs](self) for the dialect and an example.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Deck {
    /// The title line (always the first line of the deck).
    pub title: String,
    /// Element cards in source order — this order fixes the node and
    /// unknown-vector layout of the lowered circuit.
    pub elements: Vec<ElementCard>,
    /// `.model` cards.
    pub models: Vec<ModelCard>,
    /// `.param` cards with their evaluated values.
    pub params: Vec<ParamCard>,
    /// `.option` cards tuning the solver (see [`OptionEntry`]).
    pub options: Vec<OptionCard>,
    /// Analysis cards in source order.
    pub analyses: Vec<AnalysisCard>,
    /// `.print` probe selections.
    pub prints: Vec<PrintCard>,
    /// `.ic` transient initial-condition overrides.
    pub ics: Vec<IcCard>,
    /// `.subckt … .ends` definitions, in source order.
    pub subckts: Vec<SubcktDef>,
    /// Top-level `X` instance cards, in source order. Each records the
    /// contiguous range of [`Deck::elements`] its (recursive)
    /// flattening produced, so the serialiser can re-emit the `X` card
    /// in place of those synthesized elements.
    pub instances: Vec<InstanceCard>,
    /// Which `.param` names the deck's cards actually referenced (bare
    /// or inside `{…}` / `.param` expressions) — raw material for the
    /// unused-parameter lint. Diagnostic metadata: like [`Span`], it
    /// never participates in deck equality (serialising inlines every
    /// parameter value, so a round-tripped deck has no uses left).
    pub param_uses: ParamUses,
    /// Which `.subckt` names the deck instantiated (directly or through
    /// nested instances) — raw material for the unused-subcircuit lint.
    /// Diagnostic metadata, like [`Deck::param_uses`].
    pub subckt_uses: ParamUses,
}

/// The set of `.param` names a parse resolved — see
/// [`Deck::param_uses`]. Compares equal to every other value so that
/// diagnostic metadata never breaks deck equality or round-tripping.
#[derive(Debug, Clone, Default, Eq)]
pub struct ParamUses(pub std::collections::BTreeSet<String>);

impl ParamUses {
    /// `true` when some card referenced the parameter `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.0.contains(name)
    }
}

impl PartialEq for ParamUses {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// One element card.
#[derive(Debug, Clone, PartialEq)]
pub enum ElementCard {
    /// An `R` card.
    Resistor(ResistorCard),
    /// A `C` card.
    Capacitor(CapacitorCard),
    /// A `V` card.
    Voltage(VoltageCard),
    /// An `I` card.
    Current(CurrentCard),
    /// An `M` (CNFET) card.
    Cnfet(CnfetCard),
}

impl ElementCard {
    /// The element's name (with its leading type letter, e.g. `R1`).
    pub fn name(&self) -> &str {
        match self {
            ElementCard::Resistor(c) => &c.name,
            ElementCard::Capacitor(c) => &c.name,
            ElementCard::Voltage(c) => &c.name,
            ElementCard::Current(c) => &c.name,
            ElementCard::Cnfet(c) => &c.name,
        }
    }

    /// Where the card was parsed from.
    pub fn origin(&self) -> &SourceRef {
        match self {
            ElementCard::Resistor(c) => &c.origin,
            ElementCard::Capacitor(c) => &c.origin,
            ElementCard::Voltage(c) => &c.origin,
            ElementCard::Current(c) => &c.origin,
            ElementCard::Cnfet(c) => &c.origin,
        }
    }

    /// The node names this card connects to, in card order.
    pub fn nodes(&self) -> Vec<&str> {
        match self {
            ElementCard::Resistor(c) => vec![&c.plus, &c.minus],
            ElementCard::Capacitor(c) => vec![&c.plus, &c.minus],
            ElementCard::Voltage(c) => vec![&c.plus, &c.minus],
            ElementCard::Current(c) => vec![&c.plus, &c.minus],
            ElementCard::Cnfet(c) => vec![&c.drain, &c.gate, &c.source],
        }
    }
}

/// `R<name> <n+> <n-> <ohms>` — a linear resistor.
#[derive(Debug, Clone, PartialEq)]
pub struct ResistorCard {
    /// Element name (`R…`).
    pub name: String,
    /// Positive node.
    pub plus: String,
    /// Negative node.
    pub minus: String,
    /// Resistance, ohms (validated positive at parse time).
    pub ohms: f64,
    /// Card location.
    pub origin: SourceRef,
}

/// `C<name> <n+> <n-> <farads>` — a linear capacitor.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacitorCard {
    /// Element name (`C…`).
    pub name: String,
    /// Positive node.
    pub plus: String,
    /// Negative node.
    pub minus: String,
    /// Capacitance, farads (validated positive at parse time).
    pub farads: f64,
    /// Card location.
    pub origin: SourceRef,
}

/// `V<name> <n+> <n-> <waveform> [AC [1]]` — an ideal voltage source.
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageCard {
    /// Element name (`V…`).
    pub name: String,
    /// Positive node.
    pub plus: String,
    /// Negative node.
    pub minus: String,
    /// The drive waveform (`DC`, `PULSE(…)` or `SIN(…)`).
    pub waveform: Waveform,
    /// `true` when the card carries the `AC` flag — this source is the
    /// unit-phasor stimulus of every `.ac` analysis in the deck.
    pub ac_stimulus: bool,
    /// Card location.
    pub origin: SourceRef,
}

/// `I<name> <n+> <n-> <amps> [AC [1]]` — an ideal DC current source
/// pushing conventional current from `n+` through itself into `n-`.
#[derive(Debug, Clone, PartialEq)]
pub struct CurrentCard {
    /// Element name (`I…`).
    pub name: String,
    /// The node current is drawn from.
    pub plus: String,
    /// The node current is delivered into.
    pub minus: String,
    /// Current, amperes.
    pub amps: f64,
    /// `true` when the card carries the `AC` flag.
    pub ac_stimulus: bool,
    /// Card location.
    pub origin: SourceRef,
}

/// `M<name> <drain> <gate> <source> <model> [L=<metres>]` — a ballistic
/// CNFET instance referencing a `.model` card.
#[derive(Debug, Clone, PartialEq)]
pub struct CnfetCard {
    /// Element name (`M…`).
    pub name: String,
    /// Drain node.
    pub drain: String,
    /// Gate node.
    pub gate: String,
    /// Source node.
    pub source: String,
    /// Name of the `.model` card (validated to exist at parse time).
    pub model: String,
    /// Location of the model-name token (for unknown-model errors).
    pub model_origin: SourceRef,
    /// Channel length override, metres; `None` takes the model's `l`.
    pub length: Option<f64>,
    /// Card location.
    pub origin: SourceRef,
}

/// `.model <name> cnfet [polarity=n|p] [ef=<eV>] [temp=<K>] [l=<m>]` —
/// a CNFET model: the paper's default device with the listed
/// overrides. Fitting happens when the deck is lowered (once per
/// [`Deck::run`], shared across the per-analysis circuit rebuilds).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelCard {
    /// Model name referenced by `M` cards.
    pub name: String,
    /// Channel polarity (default `n`; `p` devices are electrical
    /// mirrors).
    pub polarity: Polarity,
    /// Source Fermi level relative to the band edge, eV (default
    /// −0.32, the paper's fitting centre).
    pub fermi_level_ev: f64,
    /// Lattice temperature, kelvin (default 300).
    pub temperature_k: f64,
    /// Default channel length for instances without `L=`, metres
    /// (default 100 nm).
    pub default_length_m: f64,
    /// Card location.
    pub origin: SourceRef,
}

/// `.param <name> = <expr>` — a named value usable in any later card
/// (bare, or inside `{ … }` expressions). The expression is evaluated
/// at parse time; see [`crate::deck`] module docs and
/// `docs/DECK_FORMAT.md` for the grammar.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamCard {
    /// Parameter name.
    pub name: String,
    /// Evaluated value.
    pub value: f64,
    /// Card location.
    pub origin: SourceRef,
}

/// `.option <key>=<value> …` — solver tuning knobs, applied to every
/// analysis card in the deck. Multiple `.option` cards merge in source
/// order (later entries win). Keys map onto
/// [`NewtonOptions`](crate::engine::NewtonOptions) and
/// [`TransientOptions`](crate::transient::TransientOptions) — see
/// [`OptionEntry`] for the accepted keys and [`Deck::newton_options`] /
/// [`Deck::transient_options`] for the lowering.
#[derive(Debug, Clone, PartialEq)]
pub struct OptionCard {
    /// `key=value` entries in card order.
    pub entries: Vec<OptionEntry>,
    /// Card location.
    pub origin: SourceRef,
}

/// One `key=value` entry of an `.option` card.
#[derive(Debug, Clone, PartialEq)]
pub enum OptionEntry {
    /// `reltol=<r>` — relative LTE tolerance of the adaptive transient
    /// stepper ([`TransientOptions::rel_tol`](crate::transient::TransientOptions::rel_tol),
    /// default `1e-3`). Validated positive at parse time.
    RelTol(f64),
    /// `abstol=<v>` — absolute LTE floor of the adaptive transient
    /// stepper, volts ([`TransientOptions::abs_tol`](crate::transient::TransientOptions::abs_tol),
    /// default `1e-6`). Validated positive at parse time.
    AbsTol(f64),
    /// `dtmin=<s>` — minimum adaptive step size, seconds
    /// ([`TransientOptions::dt_min`](crate::transient::TransientOptions::dt_min)).
    /// Validated positive at parse time.
    DtMin(f64),
    /// `limiting=0|1` — per-device voltage limiting of Newton steps
    /// ([`NewtonOptions::limiting`](crate::engine::NewtonOptions::limiting),
    /// default on).
    Limiting(bool),
}

impl OptionEntry {
    /// The canonical key text of this entry.
    pub fn key(&self) -> &'static str {
        match self {
            OptionEntry::RelTol(_) => "reltol",
            OptionEntry::AbsTol(_) => "abstol",
            OptionEntry::DtMin(_) => "dtmin",
            OptionEntry::Limiting(_) => "limiting",
        }
    }

    fn value_text(&self) -> String {
        match self {
            OptionEntry::RelTol(v) | OptionEntry::AbsTol(v) | OptionEntry::DtMin(v) => num(*v),
            OptionEntry::Limiting(b) => String::from(if *b { "1" } else { "0" }),
        }
    }
}

/// Which analysis a `.print` card scopes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisKind {
    /// `.op`.
    Op,
    /// `.dc`.
    Dc,
    /// `.tran`.
    Tran,
    /// `.ac`.
    Ac,
}

impl AnalysisKind {
    fn keyword(self) -> &'static str {
        match self {
            AnalysisKind::Op => "op",
            AnalysisKind::Dc => "dc",
            AnalysisKind::Tran => "tran",
            AnalysisKind::Ac => "ac",
        }
    }
}

/// An analysis card, lowered to the matching [`Simulator`] typed spec
/// when run.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisCard {
    /// `.op` — DC operating point.
    Op(OpCard),
    /// `.dc` — swept DC analysis.
    Dc(DcCard),
    /// `.tran` — transient analysis.
    Tran(TranCard),
    /// `.ac` — small-signal frequency sweep.
    Ac(AcCard),
}

impl AnalysisCard {
    /// The kind of this analysis (for `.print` scoping).
    pub fn kind(&self) -> AnalysisKind {
        match self {
            AnalysisCard::Op(_) => AnalysisKind::Op,
            AnalysisCard::Dc(_) => AnalysisKind::Dc,
            AnalysisCard::Tran(_) => AnalysisKind::Tran,
            AnalysisCard::Ac(_) => AnalysisKind::Ac,
        }
    }

    /// Where the card was parsed from.
    pub fn origin(&self) -> &SourceRef {
        match self {
            AnalysisCard::Op(c) => &c.origin,
            AnalysisCard::Dc(c) => &c.origin,
            AnalysisCard::Tran(c) => &c.origin,
            AnalysisCard::Ac(c) => &c.origin,
        }
    }
}

/// `.op` — solve the DC operating point.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OpCard {
    /// Card location.
    pub origin: SourceRef,
}

/// `.dc <source> <start> <stop> <step>` — sweep a source, lowered to a
/// [`SweepSpec`] (warm-started point to point).
#[derive(Debug, Clone, PartialEq)]
pub struct DcCard {
    /// Name of the swept `V` or `I` card (validated at parse time).
    pub source: String,
    /// Location of the source-name token (for unknown-source errors).
    pub source_origin: SourceRef,
    /// First swept value.
    pub start: f64,
    /// Last swept value (inclusive, within one part in 10⁹ of a step).
    pub stop: f64,
    /// Increment per point; its sign must move `start` toward `stop`.
    pub step: f64,
    /// Card location.
    pub origin: SourceRef,
}

impl DcCard {
    /// The explicit sweep values `start, start+step, …` up to and
    /// including `stop` (within one part in 10⁹ of a step, absorbing
    /// accumulated rounding).
    pub fn values(&self) -> Vec<f64> {
        if self.step == 0.0 || self.start == self.stop {
            return vec![self.start];
        }
        let n = ((self.stop - self.start) / self.step + 1e-9).floor() as usize + 1;
        (0..n).map(|i| self.start + self.step * i as f64).collect()
    }

    /// The equivalent [`SweepSpec`].
    pub fn spec(&self) -> SweepSpec {
        SweepSpec::new(&self.source, self.values())
    }
}

/// `.tran [<dt>] <t_stop>` — transient analysis: adaptive
/// (LTE-controlled) when `dt` is omitted, fixed-grid otherwise. Both
/// forms use default
/// [`TransientOptions`](crate::transient::TransientOptions).
#[derive(Debug, Clone, PartialEq)]
pub struct TranCard {
    /// Fixed step size, seconds; `None` runs the adaptive stepper.
    pub dt: Option<f64>,
    /// Duration, seconds.
    pub t_stop: f64,
    /// Card location.
    pub origin: SourceRef,
}

/// Frequency-grid spacing of an `.ac` card.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcScale {
    /// `dec` — `points` per decade, logarithmic.
    Dec,
    /// `lin` — `points` total, linear.
    Lin,
}

/// `.ac dec|lin <points> <f_start> <f_stop>` — small-signal sweep. The
/// stimulus is the deck's unique `AC`-flagged source card (resolved at
/// parse time into [`AcCard::stimulus`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AcCard {
    /// Grid spacing.
    pub scale: AcScale,
    /// Points per decade (`dec`) or total points (`lin`).
    pub points: usize,
    /// First frequency, Hz.
    pub f_start: f64,
    /// Last frequency, Hz.
    pub f_stop: f64,
    /// Name of the `AC`-flagged source card carrying the unit phasor.
    pub stimulus: String,
    /// Card location.
    pub origin: SourceRef,
}

/// One probed node of a `.print` card, with its own location for
/// unknown-node diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeRef {
    /// Node name (validated against the deck's nodes at parse time).
    pub node: String,
    /// Probe location.
    pub origin: SourceRef,
}

/// `.ic v(<node>)=<volts> …` — initial conditions for `.tran`
/// analyses: the transient starts from the DC operating point with the
/// listed node voltages overridden (the classic way to kick a ring
/// oscillator off its metastable point). Multiple `.ic` cards merge.
#[derive(Debug, Clone, PartialEq)]
pub struct IcCard {
    /// `(node, volts)` overrides in card order.
    pub entries: Vec<(ProbeRef, f64)>,
    /// Card location.
    pub origin: SourceRef,
}

/// `.print [op|dc|tran|ac] v(<node>) …` — selects the nodes reported
/// by matching analyses. Without the leading analysis keyword the card
/// applies to every analysis; without any `.print` card an analysis
/// reports all named nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct PrintCard {
    /// Scope; `None` applies to all analyses.
    pub analysis: Option<AnalysisKind>,
    /// Probed nodes, in card order.
    pub nodes: Vec<ProbeRef>,
    /// Card location.
    pub origin: SourceRef,
}

/// `.subckt <name> <ports…> [param=default …]` … `.ends [name]` — a
/// subcircuit definition. The body is kept as raw card lines and
/// re-parsed at every instantiation with that instance's parameter
/// environment (globals, then declared defaults, shadowed by the `X`
/// card's overrides), so defaults and body values may be `{…}`
/// expressions over any of those parameters.
///
/// Instantiation *flattens*: body elements land in [`Deck::elements`]
/// under dotted instance paths (`x1.mn`, internal nodes `x1.mid`,
/// nested `x3.x1.m2`), with diagnostics anchored at the offending `X`
/// card and the definition-local location carried as a note.
#[derive(Debug, Clone)]
pub struct SubcktDef {
    /// Subcircuit name, referenced by `X` cards.
    pub name: String,
    /// Port (interface node) names, in declaration order.
    pub ports: Vec<String>,
    /// Declared parameter names with the token index of each default
    /// value on the header line (defaults evaluate lazily, per
    /// instantiation).
    pub(crate) defaults: Vec<(String, usize)>,
    /// The `.subckt` header line (re-parsed per instantiation for
    /// default values).
    pub(crate) header: lex::LogicalLine,
    /// Body card lines, re-parsed per instantiation.
    pub(crate) body: Vec<lex::LogicalLine>,
    /// Location of the `.subckt` card.
    pub origin: SourceRef,
}

impl SubcktDef {
    /// The declared parameter names, in declaration order.
    pub fn param_names(&self) -> impl Iterator<Item = &str> {
        self.defaults.iter().map(|(name, _)| name.as_str())
    }
}

// Definitions compare by token content, not by source position: like
// [`Span`], line numbers are diagnostic metadata, so a serialised deck
// (whose `.subckt` blocks land on different lines) reparses equal.
impl PartialEq for SubcktDef {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.ports == other.ports
            && self
                .defaults
                .iter()
                .map(|(n, _)| n)
                .eq(other.defaults.iter().map(|(n, _)| n))
            && self.header.tokens == other.header.tokens
            && self.body.len() == other.body.len()
            && self
                .body
                .iter()
                .zip(&other.body)
                .all(|(a, b)| a.tokens == b.tokens)
    }
}

/// `X<name> <nodes…> <subckt> [param=val …]` — a subcircuit instance.
/// The node list binds the definition's ports in order; `param=val`
/// overrides shadow the definition's defaults (values may be `{…}`
/// expressions over the enclosing scope's parameters).
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceCard {
    /// Instance name (`X…`, kept as written) — the first component of
    /// every flattened element/node path under this instance.
    pub name: String,
    /// Actual nodes bound to the definition's ports, in port order.
    pub nodes: Vec<String>,
    /// Name of the instantiated `.subckt`.
    pub subckt: String,
    /// Evaluated `param=val` overrides, in card order.
    pub overrides: Vec<(String, f64)>,
    /// First index into [`Deck::elements`] of the cards this instance
    /// flattened to.
    pub elements_start: usize,
    /// How many flattened cards this instance produced (including
    /// nested instances).
    pub elements_len: usize,
    /// Card location.
    pub origin: SourceRef,
}

impl Deck {
    /// Parses deck text (see the [module docs](self) for the dialect).
    ///
    /// # Errors
    ///
    /// [`DeckError`] with a line/column span for lexical, syntactic or
    /// deck-consistency failures (duplicate names, unknown models,
    /// unknown `.dc` sources or `.print` nodes, a missing or ambiguous
    /// `.ac` stimulus).
    pub fn parse(text: &str) -> Result<Deck, DeckError> {
        parse::parse(text)
    }

    /// Serialises the deck back to card text. The output reparses to a
    /// deck equal to `self` (spans excluded — they never participate
    /// in equality) whose lowered circuit is bitwise-equivalent.
    pub fn to_text(&self) -> String {
        self.to_string()
    }

    /// The deck's node names in first-appearance order (matching the
    /// node-creation order of the lowered circuit), ground excluded.
    pub fn node_names(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for card in &self.elements {
            for node in card.nodes() {
                if node != "0" && node != "gnd" && !seen.contains(&node) {
                    seen.push(node);
                }
            }
        }
        seen
    }

    /// Names of the deck's source cards (`V` and `I`), in card order.
    pub fn source_names(&self) -> Vec<&str> {
        self.elements
            .iter()
            .filter_map(|card| match card {
                ElementCard::Voltage(v) => Some(v.name.as_str()),
                ElementCard::Current(i) => Some(i.name.as_str()),
                _ => None,
            })
            .collect()
    }

    /// The probe node names for an analysis of the given kind: the
    /// union of matching `.print` cards in card order, or every named
    /// node when no `.print` card matches.
    pub fn probes(&self, kind: AnalysisKind) -> Vec<&str> {
        let mut nodes: Vec<&str> = Vec::new();
        for print in &self.prints {
            if print.analysis.is_none() || print.analysis == Some(kind) {
                for probe in &print.nodes {
                    if !nodes.contains(&probe.node.as_str()) {
                        nodes.push(&probe.node);
                    }
                }
            }
        }
        if nodes.is_empty() {
            self.node_names()
        } else {
            nodes
        }
    }

    /// Lowers the deck into a fresh [`Simulator`] session (fitting the
    /// CNFET models of this build). The deck's `.option` cards are
    /// applied as the session's Newton options.
    ///
    /// # Errors
    ///
    /// [`DeckError`] when a `.model` card fails to fit.
    pub fn simulator(&self) -> Result<Simulator, DeckError> {
        Ok(Simulator::with_options(
            self.circuit()?,
            self.newton_options(),
        ))
    }

    /// The Newton options the deck's `.option` cards select: defaults
    /// with `limiting` entries applied in source order
    /// (later entries win). These drive `.op` and `.dc` cards
    /// directly; `.tran` cards take them through
    /// [`Deck::transient_options`].
    pub fn newton_options(&self) -> crate::engine::NewtonOptions {
        let mut newton = crate::engine::NewtonOptions::default();
        self.apply_newton_entries(&mut newton);
        newton
    }

    /// The transient options the deck's `.option` cards select:
    /// [`TransientOptions::default`](crate::transient::TransientOptions)
    /// with `reltol`, `abstol` and `dtmin` applied, and the embedded
    /// Newton options adjusted like [`Deck::newton_options`] (on top of
    /// the transient iteration budget).
    pub fn transient_options(&self) -> crate::transient::TransientOptions {
        let mut tran = crate::transient::TransientOptions::default();
        self.apply_newton_entries(&mut tran.newton);
        for card in &self.options {
            for entry in &card.entries {
                match entry {
                    OptionEntry::RelTol(v) => tran.rel_tol = *v,
                    OptionEntry::AbsTol(v) => tran.abs_tol = *v,
                    OptionEntry::DtMin(v) => tran.dt_min = Some(*v),
                    _ => {}
                }
            }
        }
        tran
    }

    fn apply_newton_entries(&self, newton: &mut crate::engine::NewtonOptions) {
        for card in &self.options {
            for entry in &card.entries {
                if let OptionEntry::Limiting(b) = entry {
                    newton.limiting = *b;
                }
            }
        }
    }

    /// A content hash of the deck's circuit **topology**: the element
    /// kinds and their node wiring in card order (exactly what fixes
    /// the lowered circuit's unknown layout and MNA sparsity pattern),
    /// with every element *value* excluded. Two decks with equal hashes
    /// assemble structurally identical MNA systems, so one deck's
    /// symbolic factorization (sparsity pattern, write plan, pivot
    /// order) can seed the other's engine via
    /// [`NewtonEngine::rebind`](crate::engine::NewtonEngine::rebind) —
    /// the key of the warm-engine pool
    /// ([`EnginePool`]).
    ///
    /// FNV-1a over the per-card kind tag and first-appearance node
    /// indices (ground is index 0), so node *names* don't matter but
    /// wiring order does — matching how the circuit interns nodes.
    pub fn topology_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        };
        let mut ids: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
        for card in &self.elements {
            let kind = match card {
                ElementCard::Resistor(_) => 1u64,
                ElementCard::Capacitor(_) => 2,
                ElementCard::Voltage(_) => 3,
                ElementCard::Current(_) => 4,
                ElementCard::Cnfet(_) => 5,
            };
            mix(kind);
            for node in card.nodes() {
                let id = if node == "0" || node == "gnd" {
                    0
                } else {
                    let next = ids.len() as u64 + 1;
                    *ids.entry(node).or_insert(next)
                };
                mix(id);
            }
        }
        mix(self.elements.len() as u64);
        hash
    }
}

/// Formats an f64 exactly (shortest text that reparses to the same
/// bits, in exponent form so SPICE suffix parsing never applies).
fn num(v: f64) -> String {
    format!("{v:e}")
}

fn waveform_text(w: &Waveform) -> String {
    match *w {
        Waveform::Dc(v) => format!("DC {}", num(v)),
        Waveform::Pulse {
            low,
            high,
            delay,
            rise,
            width,
            fall,
            period,
        } => format!(
            "PULSE({} {} {} {} {} {} {})",
            num(low),
            num(high),
            num(delay),
            num(rise),
            num(fall),
            num(width),
            num(period)
        ),
        Waveform::Sine {
            offset,
            amplitude,
            frequency,
        } => format!("SIN({} {} {})", num(offset), num(amplitude), num(frequency)),
    }
}

impl fmt::Display for AnalysisCard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisCard::Op(_) => write!(f, ".op"),
            AnalysisCard::Dc(c) => write!(
                f,
                ".dc {} {} {} {}",
                c.source,
                num(c.start),
                num(c.stop),
                num(c.step)
            ),
            AnalysisCard::Tran(c) => match c.dt {
                Some(dt) => write!(f, ".tran {} {}", num(dt), num(c.t_stop)),
                None => write!(f, ".tran {}", num(c.t_stop)),
            },
            AnalysisCard::Ac(c) => write!(
                f,
                ".ac {} {} {} {}",
                match c.scale {
                    AcScale::Dec => "dec",
                    AcScale::Lin => "lin",
                },
                c.points,
                num(c.f_start),
                num(c.f_stop)
            ),
        }
    }
}

impl fmt::Display for Deck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        for p in &self.params {
            writeln!(f, ".param {} = {}", p.name, num(p.value))?;
        }
        for card in &self.options {
            write!(f, ".option")?;
            for entry in &card.entries {
                write!(f, " {}={}", entry.key(), entry.value_text())?;
            }
            writeln!(f)?;
        }
        for m in &self.models {
            writeln!(
                f,
                ".model {} cnfet polarity={} ef={} temp={} l={}",
                m.name,
                match m.polarity {
                    Polarity::N => "n",
                    Polarity::P => "p",
                },
                num(m.fermi_level_ev),
                num(m.temperature_k),
                num(m.default_length_m)
            )?;
        }
        for def in &self.subckts {
            // Header and body lines are kept verbatim (comment-stripped,
            // continuations on their own `+` lines), so definitions —
            // including `{…}` expressions over still-named parameters —
            // survive the round trip token-for-token.
            for (_, text) in &def.header.texts {
                writeln!(f, "{text}")?;
            }
            for line in &def.body {
                for (_, text) in &line.texts {
                    writeln!(f, "{text}")?;
                }
            }
            writeln!(f, ".ends {}", def.name)?;
        }
        // Directly-written elements interleave with `X` instance cards:
        // each instance stands in for the contiguous run of flattened
        // elements it produced.
        let mut instances = self.instances.iter().peekable();
        let mut i = 0;
        while i < self.elements.len() || instances.peek().is_some() {
            if let Some(x) = instances.peek() {
                if x.elements_start <= i {
                    write!(f, "{} {} {}", x.name, x.nodes.join(" "), x.subckt)?;
                    for (k, v) in &x.overrides {
                        write!(f, " {k}={}", num(*v))?;
                    }
                    writeln!(f)?;
                    i = x.elements_start + x.elements_len;
                    instances.next();
                    continue;
                }
            }
            if let Some(card) = self.elements.get(i) {
                write_element(f, card)?;
            }
            i += 1;
        }
        for a in &self.analyses {
            writeln!(f, "{a}")?;
        }
        for ic in &self.ics {
            write!(f, ".ic")?;
            for (probe, volts) in &ic.entries {
                write!(f, " v({})={}", probe.node, num(*volts))?;
            }
            writeln!(f)?;
        }
        for p in &self.prints {
            write!(f, ".print")?;
            if let Some(kind) = p.analysis {
                write!(f, " {}", kind.keyword())?;
            }
            for probe in &p.nodes {
                write!(f, " v({})", probe.node)?;
            }
            writeln!(f)?;
        }
        write!(f, ".end")
    }
}

/// Writes one element card in canonical form.
fn write_element(f: &mut fmt::Formatter<'_>, card: &ElementCard) -> fmt::Result {
    match card {
        ElementCard::Resistor(c) => {
            writeln!(f, "{} {} {} {}", c.name, c.plus, c.minus, num(c.ohms))?;
        }
        ElementCard::Capacitor(c) => {
            writeln!(f, "{} {} {} {}", c.name, c.plus, c.minus, num(c.farads))?;
        }
        ElementCard::Voltage(c) => {
            let ac = if c.ac_stimulus { " AC 1" } else { "" };
            writeln!(
                f,
                "{} {} {} {}{}",
                c.name,
                c.plus,
                c.minus,
                waveform_text(&c.waveform),
                ac
            )?;
        }
        ElementCard::Current(c) => {
            let ac = if c.ac_stimulus { " AC 1" } else { "" };
            writeln!(
                f,
                "{} {} {} DC {}{}",
                c.name,
                c.plus,
                c.minus,
                num(c.amps),
                ac
            )?;
        }
        ElementCard::Cnfet(c) => {
            write!(
                f,
                "{} {} {} {} {}",
                c.name, c.drain, c.gate, c.source, c.model
            )?;
            if let Some(len) = c.length {
                write!(f, " L={}", num(len))?;
            }
            writeln!(f)?;
        }
    }
    Ok(())
}
