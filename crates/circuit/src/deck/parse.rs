//! Card parsing: logical lines → the [`Deck`] AST, with full
//! deck-consistency validation.
//!
//! Parsing is a single pass over the lexed lines (so `.param`
//! definitions are visible to everything after them) followed by a
//! consistency pass that needs the whole deck: duplicate
//! element/model names, `M`-card model references (forward references
//! are fine), `.dc` sweep sources, `.print` probe nodes, and the
//! resolution of the unique `AC`-flagged stimulus source for `.ac`
//! cards. Everything that can fail without a solver fails *here*, with
//! a span.

use super::error::{suggest, DeckError, SourceRef, Span};
use super::expr;
use super::lex::{lex, LogicalLine, Token, TokenKind};
use super::{
    AcCard, AcScale, AnalysisCard, AnalysisKind, CapacitorCard, CnfetCard, CurrentCard, DcCard,
    Deck, ElementCard, InstanceCard, ModelCard, OpCard, OptionCard, OptionEntry, ParamCard,
    PrintCard, ProbeRef, ResistorCard, SubcktDef, TranCard, VoltageCard,
};
use crate::cnfet::Polarity;
use crate::element::Waveform;
use crate::error::CircuitError;
use crate::transient::MAX_STEPS;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// Parses deck text. See [`Deck::parse`].
pub fn parse(text: &str) -> Result<Deck, DeckError> {
    let raw = lex(text)?;
    // First pass: split `.subckt … .ends` blocks out of the line
    // stream, so `X` cards may reference definitions written later.
    let (top_lines, subckts) = collect_subckts(raw.lines)?;
    let mut deck = Deck {
        title: raw.title,
        subckts,
        ..Deck::default()
    };
    let mut params: HashMap<String, f64> = HashMap::new();
    let used = RefCell::new(BTreeSet::new());
    let subckt_used = RefCell::new(BTreeSet::new());
    let mut instance_names: HashMap<String, u32> = HashMap::new();
    for line in &top_lines {
        if line.tokens.is_empty() {
            continue;
        }
        let mut cur = Cursor {
            line,
            i: 0,
            params: &params,
            used: &used,
        };
        let (head, head_span) = cur.next_word("a card")?;
        let head = head.to_string();
        let origin = SourceRef::new(head_span, line.text());
        if let Some(dot) = head.strip_prefix('.') {
            match dot.to_ascii_lowercase().as_str() {
                "model" => deck.models.push(parse_model(&mut cur, origin)?),
                "param" => {
                    let card = parse_param(&mut cur, origin)?;
                    if params.contains_key(&card.name) {
                        return Err(card
                            .origin
                            .error(format!("duplicate parameter name '{}'", card.name)));
                    }
                    params.insert(card.name.clone(), card.value);
                    deck.params.push(card);
                }
                "option" => deck.options.push(parse_option(&mut cur, origin)?),
                "op" => {
                    cur.done()?;
                    deck.analyses.push(AnalysisCard::Op(OpCard { origin }));
                }
                "dc" => deck
                    .analyses
                    .push(AnalysisCard::Dc(parse_dc(&mut cur, origin)?)),
                "tran" => deck
                    .analyses
                    .push(AnalysisCard::Tran(parse_tran(&mut cur, origin)?)),
                "ac" => deck
                    .analyses
                    .push(AnalysisCard::Ac(parse_ac(&mut cur, origin)?)),
                "print" => deck.prints.push(parse_print(&mut cur, origin)?),
                "ic" => deck.ics.push(parse_ic(&mut cur, origin)?),
                "ends" => {
                    return Err(origin.error("found .ends without a matching .subckt"));
                }
                other => {
                    let known = [
                        ".model", ".param", ".option", ".subckt", ".ends", ".op", ".dc", ".tran",
                        ".ac", ".print", ".ic", ".end",
                    ];
                    let mut err = origin.error(format!(
                        "unknown directive '.{other}'; this dialect has {}",
                        known.join(", ")
                    ));
                    if let Some(help) = suggest(&head, known.iter().copied()) {
                        err = err.with_help(help);
                    }
                    return Err(err);
                }
            }
            continue;
        }
        if head.starts_with(['x', 'X']) {
            let x = parse_x(&mut cur, head, origin.clone())?;
            if let Some(first) = instance_names.get(&x.name) {
                return Err(origin.error(format!(
                    "duplicate instance name '{}' (first defined on line {first})",
                    x.name
                )));
            }
            instance_names.insert(x.name.clone(), origin.span.line);
            let subckt_site = cur.source_ref(x.subckt_span);
            let bound: Vec<String> = x.nodes.iter().map(|(w, _)| w.clone()).collect();
            let start = deck.elements.len();
            let mut expansion = Expansion {
                defs: &deck.subckts,
                globals: &params,
                used: &used,
                subckt_used: &subckt_used,
                anchor: &origin,
                elements: &mut deck.elements,
                stack: Vec::new(),
            };
            expansion.instantiate(
                &x.name,
                &bound,
                &x.overrides,
                &x.subckt,
                &origin,
                &subckt_site,
            )?;
            deck.instances.push(InstanceCard {
                name: x.name,
                nodes: x.nodes.into_iter().map(|(w, _)| w).collect(),
                subckt: x.subckt,
                overrides: x.overrides,
                elements_start: start,
                elements_len: deck.elements.len() - start,
                origin,
            });
            continue;
        }
        deck.elements.push(parse_element(&mut cur, head, origin)?);
    }
    deck.param_uses = super::ParamUses(used.into_inner());
    deck.subckt_uses = super::ParamUses(subckt_used.into_inner());
    validate(&mut deck)?;
    Ok(deck)
}

/// Parses one element card dispatched on its leading type letter.
fn parse_element(
    cur: &mut Cursor<'_>,
    head: String,
    origin: SourceRef,
) -> Result<ElementCard, DeckError> {
    match head.chars().next().map(|c| c.to_ascii_uppercase()) {
        Some('R') => Ok(ElementCard::Resistor(parse_resistor(cur, head, origin)?)),
        Some('C') => Ok(ElementCard::Capacitor(parse_capacitor(cur, head, origin)?)),
        Some('V') => Ok(ElementCard::Voltage(parse_voltage(cur, head, origin)?)),
        Some('I') => Ok(ElementCard::Current(parse_current(cur, head, origin)?)),
        Some('M') => Ok(ElementCard::Cnfet(parse_cnfet(cur, head, origin)?)),
        _ => Err(origin.error(format!(
            "unknown card '{head}': element cards start with R, C, V, I or M, \
             subcircuit instances with X (directives with '.')"
        ))),
    }
}

/// Splits `.subckt … .ends` blocks out of the lexed line stream,
/// structurally parsing each header (name, ports, parameter defaults)
/// and eagerly validating body card heads — even for definitions no
/// `X` card ends up using. Default values are *not* evaluated here;
/// their token index into the header line is recorded so each
/// instantiation can evaluate them against its own parameter
/// environment.
fn collect_subckts(
    lines: Vec<LogicalLine>,
) -> Result<(Vec<LogicalLine>, Vec<SubcktDef>), DeckError> {
    let no_params: HashMap<String, f64> = HashMap::new();
    let scratch = RefCell::new(BTreeSet::new());
    let mut top: Vec<LogicalLine> = Vec::new();
    let mut defs: Vec<SubcktDef> = Vec::new();
    let mut open: Option<SubcktDef> = None;
    for line in lines {
        if line.tokens.is_empty() {
            if open.is_none() {
                top.push(line);
            }
            continue;
        }
        let head_lc = line.tokens[0].word().map(str::to_ascii_lowercase);
        match head_lc.as_deref() {
            Some(".subckt") => {
                let parsed = {
                    let mut cur = Cursor {
                        line: &line,
                        i: 0,
                        params: &no_params,
                        used: &scratch,
                    };
                    let (_, head_span) = cur.next_word("a card")?;
                    let origin = SourceRef::new(head_span, line.text());
                    if let Some(outer) = &open {
                        return Err(origin
                            .error(format!(
                                "subcircuit definitions cannot nest: '.subckt' inside \
                                 '.subckt {}'",
                                outer.name
                            ))
                            .with_help(format!(
                                "close '.subckt {}' with `.ends` first",
                                outer.name
                            )));
                    }
                    let (name, name_span) = cur.next_word("the subcircuit name")?;
                    let name = name.to_string();
                    if super::lex::parse_number(&name).is_some() {
                        return Err(cur.at(
                            name_span,
                            format!("subcircuit name '{name}' would shadow a number"),
                        ));
                    }
                    if let Some(first) = defs.iter().find(|d| d.name == name) {
                        return Err(cur.at(
                            name_span,
                            format!(
                                "duplicate subcircuit name '{name}' (first defined on line {})",
                                first.origin.span.line
                            ),
                        ));
                    }
                    let mut ports: Vec<String> = Vec::new();
                    let mut defaults: Vec<(String, usize)> = Vec::new();
                    while cur.peek().is_some() {
                        // A word followed by `=` starts the parameter
                        // defaults; everything before is a port.
                        if cur.line.tokens.get(cur.i + 1).map(|t| &t.kind)
                            == Some(&TokenKind::Punct('='))
                        {
                            while cur.peek().is_some() {
                                let (key, key_span) =
                                    cur.next_word("a parameter default (name=value)")?;
                                let key = key.to_string();
                                if super::lex::parse_number(&key).is_some() {
                                    return Err(cur.at(
                                        key_span,
                                        format!("parameter name '{key}' would shadow a number"),
                                    ));
                                }
                                if defaults.iter().any(|(k, _)| *k == key) {
                                    return Err(cur.at(
                                        key_span,
                                        format!("duplicate parameter default '{key}'"),
                                    ));
                                }
                                cur.expect_punct('=')?;
                                let value_idx = cur.i;
                                cur.next_token("the default value")?;
                                defaults.push((key, value_idx));
                            }
                            break;
                        }
                        let (port, port_span) = cur.next_word("a port node")?;
                        if port == "0" || port == "gnd" {
                            return Err(cur.at(
                                port_span,
                                format!(
                                    "the ground node '{port}' cannot be a subcircuit port \
                                     (it is global)"
                                ),
                            ));
                        }
                        if ports.iter().any(|p| p == port) {
                            return Err(cur.at(port_span, format!("duplicate port node '{port}'")));
                        }
                        ports.push(port.to_string());
                    }
                    if ports.is_empty() {
                        return Err(origin
                            .error(format!(".subckt '{name}' needs at least one port"))
                            .with_help("e.g. `.subckt inv out in vdd`"));
                    }
                    (name, ports, defaults, origin)
                };
                let (name, ports, defaults, origin) = parsed;
                open = Some(SubcktDef {
                    name,
                    ports,
                    defaults,
                    header: line,
                    body: Vec::new(),
                    origin,
                });
            }
            Some(".ends") => match open.take() {
                Some(def) => {
                    let mut cur = Cursor {
                        line: &line,
                        i: 0,
                        params: &no_params,
                        used: &scratch,
                    };
                    cur.next_word("a card")?;
                    if cur.peek().is_some() {
                        let (ends_name, span) = cur.next_word("the subcircuit name")?;
                        if ends_name != def.name {
                            return Err(cur.at(
                                span,
                                format!(
                                    "this .ends closes '.subckt {}', not '{ends_name}'",
                                    def.name
                                ),
                            ));
                        }
                    }
                    cur.done()?;
                    defs.push(def);
                }
                // A stray `.ends` falls through to the top-level
                // directive dispatch, which reports it with a span.
                None => top.push(line),
            },
            _ => match &mut open {
                Some(def) => {
                    let span = line.tokens[0].span;
                    let text = line.text_for(span.line).to_string();
                    let Some(w) = line.tokens[0].word() else {
                        return Err(DeckError::at(span, text, "expected a card".to_string()));
                    };
                    if w.starts_with('.') {
                        return Err(DeckError::at(
                            span,
                            text,
                            format!(
                                "directives are not allowed inside a .subckt body \
                                 (found '{w}' in '.subckt {}')",
                                def.name
                            ),
                        )
                        .with_help(
                            "only R, C, V, I, M and X cards may appear between \
                             .subckt and .ends",
                        ));
                    }
                    let first = w.chars().next().unwrap_or(' ').to_ascii_uppercase();
                    if !matches!(first, 'R' | 'C' | 'V' | 'I' | 'M' | 'X') {
                        return Err(DeckError::at(
                            span,
                            text,
                            format!(
                                "unknown card '{w}' in '.subckt {}': element cards start \
                                 with R, C, V, I or M, subcircuit instances with X",
                                def.name
                            ),
                        ));
                    }
                    def.body.push(line);
                }
                None => top.push(line),
            },
        }
    }
    if let Some(def) = open {
        return Err(def
            .origin
            .error(format!("missing .ends for '.subckt {}'", def.name))
            .with_help(format!(
                "close the definition with `.ends` (or `.ends {}`)",
                def.name
            )));
    }
    Ok((top, defs))
}

/// A parsed `X<name> <nodes…> <subckt> [param=val …]` instance card,
/// before flattening.
struct RawInstance {
    name: String,
    nodes: Vec<(String, Span)>,
    subckt: String,
    subckt_span: Span,
    overrides: Vec<(String, f64)>,
}

/// Parses an `X` card: leading words are the bound nodes, the last
/// word before any `name=value` overrides names the subcircuit.
/// Override values are evaluated with the *caller's* parameter
/// environment (the cursor's), per SPICE scoping.
fn parse_x(
    cur: &mut Cursor<'_>,
    name: String,
    origin: SourceRef,
) -> Result<RawInstance, DeckError> {
    let mut words: Vec<(String, Span)> = Vec::new();
    while let Some(t) = cur.peek() {
        if !matches!(t.kind, TokenKind::Word(_)) {
            break;
        }
        // Stop at the first `key=value` override.
        if cur.line.tokens.get(cur.i + 1).map(|t| &t.kind) == Some(&TokenKind::Punct('=')) {
            break;
        }
        let (w, span) = cur.next_word("a node or subcircuit name")?;
        words.push((w.to_string(), span));
    }
    if words.len() < 2 {
        return Err(origin
            .error(format!(
                "instance {name} needs at least one node and a subcircuit name"
            ))
            .with_help("e.g. `X1 in out vdd inv` (nodes first, the .subckt name last)"));
    }
    let (subckt, subckt_span) = words.pop().expect("length checked above");
    let mut overrides: Vec<(String, f64)> = Vec::new();
    while cur.peek().is_some() {
        let (key, key_span) = cur.next_word("a parameter override (name=value)")?;
        let key = key.to_string();
        if overrides.iter().any(|(k, _)| *k == key) {
            return Err(cur.at(key_span, format!("duplicate parameter override '{key}'")));
        }
        cur.expect_punct('=')?;
        let (value, _) = cur.next_value(&format!("the value of '{key}'"))?;
        overrides.push((key, value));
    }
    cur.done()?;
    Ok(RawInstance {
        name,
        nodes: words,
        subckt,
        subckt_span,
        overrides,
    })
}

/// Flattening state for one top-level `X` card: rewrites each body
/// card of the instantiated definition (and, recursively, of nested
/// `X` cards) into `deck.elements`, dotting element names and internal
/// nodes through the instance path and re-anchoring every diagnostic
/// on the top-level instance card with a definition-local note.
struct Expansion<'a> {
    defs: &'a [SubcktDef],
    globals: &'a HashMap<String, f64>,
    used: &'a RefCell<BTreeSet<String>>,
    subckt_used: &'a RefCell<BTreeSet<String>>,
    /// The top-level `X` card every flattened diagnostic anchors to.
    anchor: &'a SourceRef,
    elements: &'a mut Vec<ElementCard>,
    /// Definition names on the current instantiation path, for
    /// recursion detection.
    stack: Vec<String>,
}

impl Expansion<'_> {
    /// The `= note:` text tying a flattened card back to its
    /// definition-local source line.
    fn note_for(&self, path: &str, def_name: &str, span: Span, text: &str) -> String {
        format!(
            "in {path} (.subckt '{def_name}'), expanded from deck:{}:{}: {}",
            span.line,
            span.col,
            text.trim()
        )
    }

    /// An anchor-located [`SourceRef`] whose note records the
    /// definition-local site `local`.
    fn anchored(&self, path: &str, def_name: &str, local: &SourceRef) -> SourceRef {
        SourceRef::new(self.anchor.span, self.anchor.line_text.clone()).with_note(self.note_for(
            path,
            def_name,
            local.span,
            &local.line_text,
        ))
    }

    /// Re-anchors a definition-local parse error on the top-level
    /// instance card, demoting the local site to a note — unless the
    /// error already carries one (it came through a deeper level).
    fn reanchor(&self, mut err: DeckError, path: &str, def_name: &str) -> DeckError {
        if err.note.is_some() {
            return err;
        }
        err.note = Some(match (&err.span, &err.line_text) {
            (Some(span), Some(text)) => self.note_for(path, def_name, *span, text),
            _ => format!("in {path} (.subckt '{def_name}')"),
        });
        err.span = Some(self.anchor.span);
        err.line_text = Some(self.anchor.line_text.clone());
        err
    }

    /// Dots the card's name through the instance path, maps its nodes
    /// and appends it to the flattened element list.
    fn push_rewritten(
        &mut self,
        card: ElementCard,
        path: &str,
        def_name: &str,
        map: &dyn Fn(&str) -> String,
    ) {
        let card = match card {
            ElementCard::Resistor(mut r) => {
                r.name = format!("{path}.{}", r.name);
                r.plus = map(&r.plus);
                r.minus = map(&r.minus);
                ElementCard::Resistor(r)
            }
            ElementCard::Capacitor(mut c) => {
                c.name = format!("{path}.{}", c.name);
                c.plus = map(&c.plus);
                c.minus = map(&c.minus);
                ElementCard::Capacitor(c)
            }
            ElementCard::Voltage(mut v) => {
                v.name = format!("{path}.{}", v.name);
                v.plus = map(&v.plus);
                v.minus = map(&v.minus);
                ElementCard::Voltage(v)
            }
            ElementCard::Current(mut i) => {
                i.name = format!("{path}.{}", i.name);
                i.plus = map(&i.plus);
                i.minus = map(&i.minus);
                ElementCard::Current(i)
            }
            ElementCard::Cnfet(mut m) => {
                m.name = format!("{path}.{}", m.name);
                m.drain = map(&m.drain);
                m.gate = map(&m.gate);
                m.source = map(&m.source);
                m.model_origin = self.anchored(path, def_name, &m.model_origin);
                ElementCard::Cnfet(m)
            }
        };
        self.elements.push(card);
    }

    /// Expands one instance: binds `nodes` to the definition's ports,
    /// builds the parameter environment (globals, then defaults in
    /// declaration order with `overrides` shadowing), and re-parses the
    /// stored body lines under it.
    fn instantiate(
        &mut self,
        path: &str,
        nodes: &[String],
        overrides: &[(String, f64)],
        subckt: &str,
        card_site: &SourceRef,
        subckt_site: &SourceRef,
    ) -> Result<(), DeckError> {
        let defs = self.defs;
        let Some(def) = defs.iter().find(|d| d.name == subckt) else {
            let available: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
            let mut err = subckt_site.error(if available.is_empty() {
                format!("no subcircuit named '{subckt}' (the deck has no .subckt definitions)")
            } else {
                format!(
                    "no subcircuit named '{subckt}'; available subcircuits: {}",
                    available.join(", ")
                )
            });
            if let Some(help) = suggest(subckt, available.into_iter()) {
                err = err.with_help(help);
            }
            return Err(err);
        };
        self.subckt_used.borrow_mut().insert(def.name.clone());
        if let Some(pos) = self.stack.iter().position(|s| s == subckt) {
            let mut chain: Vec<&str> = self.stack[pos..].iter().map(String::as_str).collect();
            chain.push(subckt);
            return Err(subckt_site
                .error(format!(
                    "recursive subcircuit instantiation: {}",
                    chain.join(" -> ")
                ))
                .with_help(
                    "a .subckt body cannot instantiate itself, directly or through \
                     other subcircuits",
                ));
        }
        if def.ports.len() != nodes.len() {
            return Err(card_site
                .error(format!(
                    "subcircuit '{}' takes {} nodes (ports: {}), but {} {} given",
                    def.name,
                    def.ports.len(),
                    def.ports.join(" "),
                    nodes.len(),
                    if nodes.len() == 1 { "is" } else { "are" }
                ))
                .with_help(format!(
                    "'.subckt {}' is defined on line {}",
                    def.name, def.origin.span.line
                )));
        }
        for (key, _) in overrides {
            if !def.defaults.iter().any(|(k, _)| k == key) {
                let declared: Vec<&str> = def.param_names().collect();
                let mut err = card_site.error(if declared.is_empty() {
                    format!(
                        "subcircuit '{}' declares no parameters, but '{key}' was given",
                        def.name
                    )
                } else {
                    format!(
                        "unknown parameter '{key}' for subcircuit '{}'; it declares {}",
                        def.name,
                        declared.join(", ")
                    )
                });
                if let Some(help) = suggest(key, declared.into_iter()) {
                    err = err.with_help(help);
                }
                return Err(err);
            }
        }
        // Instance parameter environment: globals, then the defaults in
        // declaration order (each may reference globals and earlier
        // parameters), with instance overrides shadowing defaults.
        let mut env = self.globals.clone();
        for (pname, tokidx) in &def.defaults {
            if let Some((_, v)) = overrides.iter().find(|(k, _)| k == pname) {
                env.insert(pname.clone(), *v);
                continue;
            }
            let value = {
                let mut cur = Cursor {
                    line: &def.header,
                    i: *tokidx,
                    params: &env,
                    used: self.used,
                };
                cur.next_value(&format!("the default of parameter '{pname}'"))
                    .map_err(|e| self.reanchor(e, path, &def.name))?
                    .0
            };
            env.insert(pname.clone(), value);
        }
        self.stack.push(def.name.clone());
        let mut child_names: HashMap<String, u32> = HashMap::new();
        for line in &def.body {
            if line.tokens.is_empty() {
                continue;
            }
            let mut cur = Cursor {
                line,
                i: 0,
                params: &env,
                used: self.used,
            };
            let (head, head_span) = match cur.next_word("a card") {
                Ok(ok) => ok,
                Err(e) => return Err(self.reanchor(e, path, &def.name)),
            };
            let head = head.to_string();
            let local = cur.source_ref(head_span);
            let map = |w: &str| -> String {
                if w == "0" || w == "gnd" {
                    return w.to_string();
                }
                match def.ports.iter().position(|p| p == w) {
                    Some(idx) => nodes[idx].clone(),
                    None => format!("{path}.{w}"),
                }
            };
            if head.starts_with(['x', 'X']) {
                let x = parse_x(&mut cur, head, self.anchored(path, &def.name, &local))
                    .map_err(|e| self.reanchor(e, path, &def.name))?;
                if let Some(first) = child_names.get(&x.name) {
                    return Err(self.anchored(path, &def.name, &local).error(format!(
                        "duplicate instance name '{}' in '.subckt {}' (first defined on \
                         line {first})",
                        x.name, def.name
                    )));
                }
                child_names.insert(x.name.clone(), head_span.line);
                let child_path = format!("{path}.{}", x.name);
                let child_nodes: Vec<String> = x.nodes.iter().map(|(w, _)| map(w)).collect();
                let subckt_local = cur.source_ref(x.subckt_span);
                let child_card_site = self.anchored(&child_path, &def.name, &local);
                let child_subckt_site = self.anchored(&child_path, &def.name, &subckt_local);
                self.instantiate(
                    &child_path,
                    &child_nodes,
                    &x.overrides,
                    &x.subckt,
                    &child_card_site,
                    &child_subckt_site,
                )?;
            } else {
                let origin = self.anchored(path, &def.name, &local);
                let card = match parse_element(&mut cur, head, origin) {
                    Ok(card) => card,
                    Err(e) => return Err(self.reanchor(e, path, &def.name)),
                };
                self.push_rewritten(card, path, &def.name, &map);
            }
        }
        self.stack.pop();
        Ok(())
    }
}

/// The whole-deck consistency pass.
fn validate(deck: &mut Deck) -> Result<(), DeckError> {
    // Duplicate element names.
    let mut seen: HashMap<&str, u32> = HashMap::new();
    for card in &deck.elements {
        let origin = card.origin();
        if let Some(first) = seen.get(card.name()) {
            return Err(origin.error(format!(
                "duplicate element name '{}' (first defined on line {first})",
                card.name()
            )));
        }
        seen.insert(card.name(), origin.span.line);
    }
    // Duplicate model names.
    let mut models: HashMap<&str, u32> = HashMap::new();
    for model in &deck.models {
        if let Some(first) = models.get(model.name.as_str()) {
            return Err(model.origin.error(format!(
                "duplicate model name '{}' (first defined on line {first})",
                model.name
            )));
        }
        models.insert(&model.name, model.origin.span.line);
    }
    // M-card model references (forward references are fine).
    for card in &deck.elements {
        if let ElementCard::Cnfet(m) = card {
            if !models.contains_key(m.model.as_str()) {
                let available: Vec<&str> = models.keys().copied().collect();
                let mut err = m.model_origin.error(if available.is_empty() {
                    format!(
                        "no model named '{}' (the deck has no .model cards)",
                        m.model
                    )
                } else {
                    format!(
                        "no model named '{}'; available models: {}",
                        m.model,
                        available.join(", ")
                    )
                });
                if let Some(help) = suggest(&m.model, available.into_iter()) {
                    err = err.with_help(help);
                }
                return Err(err);
            }
        }
    }
    // `.dc` sweep sources, via the circuit crate's unknown-source error.
    let sources: Vec<String> = deck.source_names().iter().map(|s| s.to_string()).collect();
    for analysis in &deck.analyses {
        if let AnalysisCard::Dc(dc) = analysis {
            if !sources.iter().any(|s| s == &dc.source) {
                let err = CircuitError::UnknownSource {
                    requested: dc.source.clone(),
                    available: sources.clone(),
                };
                return Err(dc.source_origin.circuit_error(&err));
            }
        }
    }
    // `.print` probe and `.ic` target nodes, via the unknown-node error.
    let nodes: Vec<String> = deck.node_names().iter().map(|s| s.to_string()).collect();
    let probes = deck.prints.iter().flat_map(|p| p.nodes.iter()).chain(
        deck.ics
            .iter()
            .flat_map(|ic| ic.entries.iter().map(|(p, _)| p)),
    );
    for probe in probes {
        let known =
            probe.node == "0" || probe.node == "gnd" || nodes.iter().any(|n| n == &probe.node);
        if !known {
            let err = CircuitError::UnknownNode {
                requested: probe.node.clone(),
                available: nodes.clone(),
            };
            return Err(probe.origin.circuit_error(&err));
        }
    }
    // Resolve the `.ac` stimulus: exactly one AC-flagged source card.
    if deck
        .analyses
        .iter()
        .any(|a| matches!(a, AnalysisCard::Ac(_)))
    {
        let flagged: Vec<&str> = deck
            .elements
            .iter()
            .filter_map(|card| match card {
                ElementCard::Voltage(v) if v.ac_stimulus => Some(v.name.as_str()),
                ElementCard::Current(i) if i.ac_stimulus => Some(i.name.as_str()),
                _ => None,
            })
            .collect();
        let stimulus = match flagged.as_slice() {
            [one] => one.to_string(),
            [] => {
                let origin = first_ac_origin(deck);
                return Err(origin
                    .error(".ac analysis needs a stimulus, but no source card carries the AC flag")
                    .with_help("append `AC 1` to the V or I card that drives the sweep"));
            }
            many => {
                let origin = first_ac_origin(deck);
                return Err(origin.error(format!(
                    "ambiguous .ac stimulus: {} source cards carry the AC flag ({})",
                    many.len(),
                    many.join(", ")
                )));
            }
        };
        for analysis in &mut deck.analyses {
            if let AnalysisCard::Ac(ac) = analysis {
                ac.stimulus = stimulus.clone();
            }
        }
    }
    Ok(())
}

fn first_ac_origin(deck: &Deck) -> SourceRef {
    deck.analyses
        .iter()
        .find_map(|a| match a {
            AnalysisCard::Ac(c) => Some(c.origin.clone()),
            _ => None,
        })
        .unwrap_or_default()
}

/// A token cursor over one logical line.
struct Cursor<'a> {
    line: &'a LogicalLine,
    i: usize,
    params: &'a HashMap<String, f64>,
    /// Parameter names any card resolved (bare or inside `{…}` / `.param`
    /// expressions) — shared across the whole parse for the unused-param
    /// lint. A `RefCell` because the cursor also borrows `params`.
    used: &'a RefCell<BTreeSet<String>>,
}

impl<'a> Cursor<'a> {
    /// An error at `span`, rendered against the physical line the span
    /// actually points into (which may be a `+` continuation line).
    fn at(&self, span: super::Span, message: String) -> DeckError {
        DeckError::at(span, self.line.text_for(span.line), message)
    }

    /// A [`SourceRef`] capturing `span` with its own physical line.
    fn source_ref(&self, span: super::Span) -> SourceRef {
        SourceRef::new(span, self.line.text_for(span.line))
    }

    /// Rejects, at `span`, a card that asks for `count` points or steps
    /// (`what`) when the count is not finite or exceeds [`MAX_STEPS`]:
    /// a mistyped step must fail here, not allocate terabytes or run
    /// without end.
    fn check_count(&self, span: Span, what: &str, count: f64) -> Result<(), DeckError> {
        if count <= MAX_STEPS as f64 {
            return Ok(());
        }
        Err(self.at(
            span,
            format!("this card asks for {count:.3e} {what}; the bound is {MAX_STEPS}"),
        ))
    }

    fn error_at(&self, i: usize, message: String) -> DeckError {
        self.at(self.line.span_at(i), message)
    }

    fn peek(&self) -> Option<&'a Token> {
        self.line.tokens.get(self.i)
    }

    /// Is the next token a word equal (ASCII case-insensitively) to
    /// `kw`?
    fn peek_keyword(&self, kw: &str) -> bool {
        self.peek()
            .and_then(Token::word)
            .is_some_and(|w| w.eq_ignore_ascii_case(kw))
    }

    fn next_token(&mut self, what: &str) -> Result<&'a Token, DeckError> {
        match self.line.tokens.get(self.i) {
            Some(t) => {
                self.i += 1;
                Ok(t)
            }
            None => Err(self.error_at(self.i, format!("expected {what}, but the card ended"))),
        }
    }

    /// Next token as a bare word.
    fn next_word(&mut self, what: &str) -> Result<(&'a str, super::Span), DeckError> {
        let i = self.i;
        let t = self.next_token(what)?;
        match &t.kind {
            TokenKind::Word(w) => Ok((w, t.span)),
            TokenKind::Punct(c) => Err(self.error_at(i, format!("expected {what}, got '{c}'"))),
            TokenKind::Expr(_) => Err(self.error_at(
                i,
                format!("expected {what}, got a {{…}} expression (only values may be expressions)"),
            )),
        }
    }

    /// Next token as a finite numeric value: a SPICE number, a `{ … }`
    /// expression, or a bare parameter name.
    fn next_value(&mut self, what: &str) -> Result<(f64, super::Span), DeckError> {
        let i = self.i;
        let t = self.next_token(what)?;
        match &t.kind {
            TokenKind::Word(w) => {
                if let Some(v) = super::lex::parse_number(w) {
                    if v.is_finite() {
                        Ok((v, t.span))
                    } else {
                        Err(self.error_at(
                            i,
                            format!("expected {what}, but '{w}' is not a finite number"),
                        ))
                    }
                } else if let Some(&v) = self.params.get(w.as_str()) {
                    self.used.borrow_mut().insert(w.clone());
                    Ok((v, t.span))
                } else {
                    let mut err = self.error_at(
                        i,
                        format!("expected {what}, but '{w}' is not a number or known parameter"),
                    );
                    if let Some(help) = suggest(w, self.params.keys().map(String::as_str)) {
                        err = err.with_help(help);
                    }
                    Err(err)
                }
            }
            TokenKind::Expr(body) => {
                expr::eval_with_uses(body, self.params, &mut self.used.borrow_mut())
                    .map(|v| (v, t.span))
                    .map_err(|msg| self.error_at(i, format!("in {what} expression: {msg}")))
            }
            TokenKind::Punct(c) => Err(self.error_at(i, format!("expected {what}, got '{c}'"))),
        }
    }

    /// A strictly positive value (resistance, capacitance, length, …).
    fn next_positive(&mut self, what: &str) -> Result<f64, DeckError> {
        let (v, span) = self.next_value(what)?;
        if v > 0.0 {
            Ok(v)
        } else {
            Err(self.at(span, format!("{what} must be positive, got {v}")))
        }
    }

    fn expect_punct(&mut self, c: char) -> Result<(), DeckError> {
        let i = self.i;
        let t = self.next_token(&format!("'{c}'"))?;
        if t.kind == TokenKind::Punct(c) {
            Ok(())
        } else {
            Err(self.error_at(i, format!("expected '{c}' here")))
        }
    }

    /// Errors if any token is left unconsumed.
    fn done(&mut self) -> Result<(), DeckError> {
        match self.peek() {
            None => Ok(()),
            Some(t) => {
                let text = match &t.kind {
                    TokenKind::Word(w) => w.clone(),
                    TokenKind::Expr(b) => format!("{{{b}}}"),
                    TokenKind::Punct(c) => c.to_string(),
                };
                Err(self.error_at(self.i, format!("unexpected trailing '{text}' on this card")))
            }
        }
    }

    /// Consumes a trailing `AC [magnitude]` flag; the magnitude, when
    /// given, must be exactly 1 (responses are transfer functions of a
    /// unit phasor).
    fn take_ac_flag(&mut self) -> Result<bool, DeckError> {
        if !self.peek_keyword("ac") {
            return Ok(false);
        }
        self.i += 1;
        // Optional magnitude.
        if self.peek().is_some() {
            let (mag, span) = self.next_value("AC magnitude")?;
            if mag != 1.0 {
                return Err(self.at(
                    span,
                    format!(
                        "only unit AC stimuli are supported (responses are \
                         transfer functions); got {mag}"
                    ),
                ));
            }
        }
        Ok(true)
    }
}

fn parse_resistor(
    cur: &mut Cursor<'_>,
    name: String,
    origin: SourceRef,
) -> Result<ResistorCard, DeckError> {
    let (plus, _) = cur.next_word("the + node")?;
    let (minus, _) = cur.next_word("the - node")?;
    let plus = plus.to_string();
    let minus = minus.to_string();
    let ohms = cur.next_positive("resistance")?;
    cur.done()?;
    Ok(ResistorCard {
        name,
        plus,
        minus,
        ohms,
        origin,
    })
}

fn parse_capacitor(
    cur: &mut Cursor<'_>,
    name: String,
    origin: SourceRef,
) -> Result<CapacitorCard, DeckError> {
    let (plus, _) = cur.next_word("the + node")?;
    let (minus, _) = cur.next_word("the - node")?;
    let plus = plus.to_string();
    let minus = minus.to_string();
    let farads = cur.next_positive("capacitance")?;
    cur.done()?;
    Ok(CapacitorCard {
        name,
        plus,
        minus,
        farads,
        origin,
    })
}

fn parse_voltage(
    cur: &mut Cursor<'_>,
    name: String,
    origin: SourceRef,
) -> Result<VoltageCard, DeckError> {
    let (plus, _) = cur.next_word("the + node")?;
    let (minus, _) = cur.next_word("the - node")?;
    let plus = plus.to_string();
    let minus = minus.to_string();
    let mut waveform = None;
    if cur.peek_keyword("pulse") {
        cur.i += 1;
        let args = paren_values(cur, "PULSE", 7)?;
        // SPICE order: PULSE(v1 v2 td tr tf pw per). A negative delay is
        // a phase shift; a negative edge, width or period would make the
        // waveform skip or cut short a segment, so it is an error.
        let durations = [
            (3, "rise time tr"),
            (4, "fall time tf"),
            (5, "pulse width pw"),
            (6, "period per"),
        ];
        for (i, name) in durations {
            let (v, span) = args[i];
            if v < 0.0 {
                return Err(cur.at(
                    span,
                    format!("PULSE {name} must not be negative, got {v:e}"),
                ));
            }
        }
        waveform = Some(Waveform::Pulse {
            low: args[0].0,
            high: args[1].0,
            delay: args[2].0,
            rise: args[3].0,
            fall: args[4].0,
            width: args[5].0,
            period: args[6].0,
        });
    } else if cur.peek_keyword("sin") {
        cur.i += 1;
        let args = paren_values(cur, "SIN", 3)?;
        waveform = Some(Waveform::Sine {
            offset: args[0].0,
            amplitude: args[1].0,
            frequency: args[2].0,
        });
    } else if cur.peek_keyword("dc") {
        cur.i += 1;
        waveform = Some(Waveform::Dc(cur.next_value("the DC value")?.0));
    } else if !cur.peek_keyword("ac") && cur.peek().is_some() {
        waveform = Some(Waveform::Dc(cur.next_value("the source value")?.0));
    }
    let ac_stimulus = cur.take_ac_flag()?;
    let Some(waveform) = waveform else {
        if ac_stimulus {
            // SPICE-style: an AC-only source sits at 0 V DC.
            cur.done()?;
            return Ok(VoltageCard {
                name,
                plus,
                minus,
                waveform: Waveform::Dc(0.0),
                ac_stimulus,
                origin,
            });
        }
        return Err(origin
            .error(format!(
                "voltage source {name} needs a drive: `DC <v>`, `PULSE(v1 v2 td tr tf pw per)` \
                 or `SIN(offset amplitude freq)`"
            ))
            .with_help("e.g. `V1 in 0 DC 1` or `V1 in 0 PULSE(0 1 0 1n 1n 5n 10n)`"));
    };
    cur.done()?;
    Ok(VoltageCard {
        name,
        plus,
        minus,
        waveform,
        ac_stimulus,
        origin,
    })
}

fn parse_current(
    cur: &mut Cursor<'_>,
    name: String,
    origin: SourceRef,
) -> Result<CurrentCard, DeckError> {
    let (plus, _) = cur.next_word("the + node")?;
    let (minus, _) = cur.next_word("the - node")?;
    let plus = plus.to_string();
    let minus = minus.to_string();
    if cur.peek_keyword("dc") {
        cur.i += 1;
    }
    let (amps, _) = cur.next_value("the current in amperes")?;
    let ac_stimulus = cur.take_ac_flag()?;
    cur.done()?;
    Ok(CurrentCard {
        name,
        plus,
        minus,
        amps,
        ac_stimulus,
        origin,
    })
}

fn parse_cnfet(
    cur: &mut Cursor<'_>,
    name: String,
    origin: SourceRef,
) -> Result<CnfetCard, DeckError> {
    let (drain, _) = cur.next_word("the drain node")?;
    let (gate, _) = cur.next_word("the gate node")?;
    let (source, _) = cur.next_word("the source node")?;
    let drain = drain.to_string();
    let gate = gate.to_string();
    let source = source.to_string();
    let (model, model_span) = cur.next_word("the model name")?;
    let model = model.to_string();
    let model_origin = cur.source_ref(model_span);
    let mut length = None;
    if cur.peek().is_some() {
        let (key, span) = cur.next_word("an instance parameter")?;
        if !key.eq_ignore_ascii_case("l") {
            return Err(cur.at(
                span,
                format!("unknown instance parameter '{key}'; M cards accept only L=<metres>"),
            ));
        }
        cur.expect_punct('=')?;
        length = Some(cur.next_positive("channel length")?);
    }
    cur.done()?;
    Ok(CnfetCard {
        name,
        drain,
        gate,
        source,
        model,
        model_origin,
        length,
        origin,
    })
}

fn parse_model(cur: &mut Cursor<'_>, origin: SourceRef) -> Result<ModelCard, DeckError> {
    let (name, _) = cur.next_word("the model name")?;
    let name = name.to_string();
    let (kind, kind_span) = cur.next_word("the model type")?;
    if !kind.eq_ignore_ascii_case("cnfet") {
        return Err(cur.at(
            kind_span,
            format!("unknown model type '{kind}'; this simulator models 'cnfet' devices"),
        ));
    }
    let mut card = ModelCard {
        name,
        polarity: Polarity::N,
        fermi_level_ev: -0.32,
        temperature_k: 300.0,
        default_length_m: 100e-9,
        origin,
    };
    while cur.peek().is_some() {
        let (key, key_span) = cur.next_word("a model parameter")?;
        let key_lc = key.to_ascii_lowercase();
        let key = key.to_string();
        cur.expect_punct('=')?;
        match key_lc.as_str() {
            "polarity" => {
                let (v, span) = cur.next_word("the polarity (n or p)")?;
                card.polarity = match v.to_ascii_lowercase().as_str() {
                    "n" => Polarity::N,
                    "p" => Polarity::P,
                    other => {
                        return Err(
                            cur.at(span, format!("polarity must be 'n' or 'p', got '{other}'"))
                        )
                    }
                };
            }
            "ef" => card.fermi_level_ev = cur.next_value("the Fermi level in eV")?.0,
            "temp" => card.temperature_k = cur.next_positive("the temperature in kelvin")?,
            "l" => card.default_length_m = cur.next_positive("the default channel length")?,
            _ => {
                let known = ["polarity", "ef", "temp", "l"];
                let mut err = cur.at(
                    key_span,
                    format!(
                        "unknown model parameter '{key}'; cnfet models accept {}",
                        known.join(", ")
                    ),
                );
                if let Some(help) = suggest(&key, known.iter().copied()) {
                    err = err.with_help(help);
                }
                return Err(err);
            }
        }
    }
    Ok(card)
}

/// The `0|1|on|off` value of the boolean option `key`.
fn next_switch(cur: &mut Cursor<'_>, key: &str) -> Result<bool, DeckError> {
    let (v, span) = cur.next_word("0 or 1")?;
    match v.to_ascii_lowercase().as_str() {
        "1" | "on" => Ok(true),
        "0" | "off" => Ok(false),
        other => Err(cur.at(span, format!("{key} must be 0 or 1, got '{other}'"))),
    }
}

fn parse_option(cur: &mut Cursor<'_>, origin: SourceRef) -> Result<OptionCard, DeckError> {
    let mut entries = Vec::new();
    while cur.peek().is_some() {
        let (key, key_span) = cur.next_word("an option name")?;
        let key_lc = key.to_ascii_lowercase();
        let key = key.to_string();
        cur.expect_punct('=')?;
        let entry = match key_lc.as_str() {
            "reltol" => OptionEntry::RelTol(cur.next_positive("the relative LTE tolerance")?),
            "abstol" => {
                OptionEntry::AbsTol(cur.next_positive("the absolute LTE tolerance in volts")?)
            }
            "dtmin" => OptionEntry::DtMin(cur.next_positive("the minimum step size in seconds")?),
            "limiting" => OptionEntry::Limiting(next_switch(cur, "limiting")?),
            _ => {
                let known = ["reltol", "abstol", "dtmin", "limiting"];
                let mut err = cur.at(
                    key_span,
                    format!(
                        "unknown option '{key}'; .option accepts {}",
                        known.join(", ")
                    ),
                );
                if let Some(help) = suggest(&key, known.iter().copied()) {
                    err = err.with_help(help);
                }
                return Err(err);
            }
        };
        entries.push(entry);
    }
    if entries.is_empty() {
        return Err(origin.error(".option needs at least one key=value entry"));
    }
    Ok(OptionCard { entries, origin })
}

fn parse_param(cur: &mut Cursor<'_>, origin: SourceRef) -> Result<ParamCard, DeckError> {
    let (name, name_span) = cur.next_word("the parameter name")?;
    let name = name.to_string();
    if super::lex::parse_number(&name).is_some() {
        return Err(cur.at(
            name_span,
            format!("parameter name '{name}' would shadow a number"),
        ));
    }
    cur.expect_punct('=')?;
    // Reassemble the remaining tokens into one expression string and
    // hand it to the char-level expression parser.
    let first = cur.i;
    if cur.peek().is_none() {
        return Err(cur.error_at(cur.i, "expected an expression after '='".to_string()));
    }
    let mut pieces: Vec<String> = Vec::new();
    let mut last = first;
    while let Some(t) = cur.peek() {
        pieces.push(match &t.kind {
            TokenKind::Word(w) => w.clone(),
            TokenKind::Expr(b) => format!("({b})"),
            TokenKind::Punct(c) => c.to_string(),
        });
        last = cur.i;
        cur.i += 1;
    }
    let span = cur.line.span_at(first).to_span(cur.line.span_at(last));
    let text = pieces.join(" ");
    let value = expr::eval_with_uses(&text, cur.params, &mut cur.used.borrow_mut())
        .map_err(|msg| cur.at(span, format!("in .param expression: {msg}")))?;
    Ok(ParamCard {
        name,
        value,
        origin,
    })
}

fn parse_dc(cur: &mut Cursor<'_>, origin: SourceRef) -> Result<DcCard, DeckError> {
    let (source, source_span) = cur.next_word("the swept source name")?;
    let source = source.to_string();
    let source_origin = cur.source_ref(source_span);
    let (start, _) = cur.next_value("the start value")?;
    let (stop, _) = cur.next_value("the stop value")?;
    let (step, step_span) = cur.next_value("the step")?;
    cur.done()?;
    if start != stop && (step == 0.0 || (stop - start).signum() != step.signum()) {
        return Err(cur.at(
            step_span,
            format!("step {step} cannot move the sweep from {start} to {stop}"),
        ));
    }
    if start != stop {
        // The point count `DcCard::values` expands to.
        let points = ((stop - start) / step + 1e-9).floor() + 1.0;
        cur.check_count(step_span, "sweep points", points)?;
    }
    Ok(DcCard {
        source,
        source_origin,
        start,
        stop,
        step,
        origin,
    })
}

fn parse_tran(cur: &mut Cursor<'_>, origin: SourceRef) -> Result<TranCard, DeckError> {
    let (first, first_span) = cur.next_value("the stop time (or a step size)")?;
    let card = if cur.peek().is_some() {
        let (t_stop, stop_span) = cur.next_value("the stop time")?;
        cur.done()?;
        if first <= 0.0 {
            return Err(cur.at(
                first_span,
                format!("the step size must be positive, got {first}"),
            ));
        }
        if t_stop <= 0.0 {
            return Err(cur.at(
                stop_span,
                format!("the stop time must be positive, got {t_stop}"),
            ));
        }
        cur.check_count(first_span, "time steps (t_stop / dt)", t_stop / first)?;
        TranCard {
            dt: Some(first),
            t_stop,
            origin,
        }
    } else {
        if first <= 0.0 {
            return Err(cur.at(
                first_span,
                format!("the stop time must be positive, got {first}"),
            ));
        }
        TranCard {
            dt: None,
            t_stop: first,
            origin,
        }
    };
    Ok(card)
}

fn parse_ac(cur: &mut Cursor<'_>, origin: SourceRef) -> Result<AcCard, DeckError> {
    let (scale_word, scale_span) = cur.next_word("the grid scale (dec or lin)")?;
    let scale = match scale_word.to_ascii_lowercase().as_str() {
        "dec" => AcScale::Dec,
        "lin" => AcScale::Lin,
        other => {
            return Err(cur.at(
                scale_span,
                format!("grid scale must be 'dec' or 'lin', got '{other}'"),
            ))
        }
    };
    let (points_v, points_span) = cur.next_value("the point count")?;
    if points_v < 1.0 || points_v.fract() != 0.0 {
        return Err(cur.at(
            points_span,
            format!("the point count must be a positive integer, got {points_v}"),
        ));
    }
    let (f_start, f_start_span) = cur.next_value("the start frequency")?;
    let (f_stop, f_stop_span) = cur.next_value("the stop frequency")?;
    cur.done()?;
    // Mirror the FreqGrid constraints here so an impossible sweep is a
    // *parse* error (caught by `cntfet-sim --check`), not a run-time one.
    match scale {
        AcScale::Dec => {
            if !(f_start > 0.0 && f_start.is_finite()) {
                return Err(cur.at(
                    f_start_span,
                    format!("a decade sweep needs a positive start frequency, got {f_start}"),
                ));
            }
            if !(f_stop > f_start && f_stop.is_finite()) {
                return Err(cur.at(
                    f_stop_span,
                    format!("a decade sweep needs f_stop > f_start, got [{f_start}, {f_stop}] Hz"),
                ));
            }
            // The point count `FreqGrid::frequencies` expands to.
            let points = ((f_stop / f_start).log10() * points_v).ceil() + 1.0;
            cur.check_count(points_span, "frequency points", points)?;
        }
        AcScale::Lin => {
            if !(f_start >= 0.0 && f_start.is_finite()) {
                return Err(cur.at(
                    f_start_span,
                    format!("a linear sweep needs a non-negative start frequency, got {f_start}"),
                ));
            }
            if !(f_stop >= f_start && f_stop.is_finite()) {
                return Err(cur.at(
                    f_stop_span,
                    format!("a linear sweep needs f_stop >= f_start, got [{f_start}, {f_stop}] Hz"),
                ));
            }
            cur.check_count(points_span, "frequency points", points_v)?;
        }
    }
    Ok(AcCard {
        scale,
        points: points_v as usize,
        f_start,
        f_stop,
        stimulus: String::new(), // resolved by the validation pass
        origin,
    })
}

fn parse_print(cur: &mut Cursor<'_>, origin: SourceRef) -> Result<PrintCard, DeckError> {
    let analysis = match cur.peek().and_then(Token::word) {
        Some(w) if w.eq_ignore_ascii_case("op") => Some(AnalysisKind::Op),
        Some(w) if w.eq_ignore_ascii_case("dc") => Some(AnalysisKind::Dc),
        Some(w) if w.eq_ignore_ascii_case("tran") => Some(AnalysisKind::Tran),
        Some(w) if w.eq_ignore_ascii_case("ac") => Some(AnalysisKind::Ac),
        _ => None,
    };
    if analysis.is_some() {
        cur.i += 1;
    }
    let mut nodes = Vec::new();
    while cur.peek().is_some() {
        let (word, span) = cur.next_word("a probe (v(<node>) or a node name)")?;
        if word.eq_ignore_ascii_case("v")
            && cur.peek().map(|t| &t.kind) == Some(&TokenKind::Punct('('))
        {
            cur.expect_punct('(')?;
            let (node, node_span) = cur.next_word("the probed node name")?;
            let node = node.to_string();
            cur.expect_punct(')')?;
            nodes.push(ProbeRef {
                node,
                origin: cur.source_ref(node_span),
            });
        } else {
            nodes.push(ProbeRef {
                node: word.to_string(),
                origin: cur.source_ref(span),
            });
        }
    }
    if nodes.is_empty() {
        return Err(origin.error(".print needs at least one probe, e.g. `.print dc v(out)`"));
    }
    Ok(PrintCard {
        analysis,
        nodes,
        origin,
    })
}

fn parse_ic(cur: &mut Cursor<'_>, origin: SourceRef) -> Result<super::IcCard, DeckError> {
    let mut entries = Vec::new();
    while cur.peek().is_some() {
        let (word, span) = cur.next_word("an initial condition (v(<node>)=<volts>)")?;
        let (node, node_span) = if word.eq_ignore_ascii_case("v")
            && cur.peek().map(|t| &t.kind) == Some(&TokenKind::Punct('('))
        {
            cur.expect_punct('(')?;
            let (node, node_span) = cur.next_word("the node name")?;
            let node = node.to_string();
            cur.expect_punct(')')?;
            (node, node_span)
        } else {
            (word.to_string(), span)
        };
        cur.expect_punct('=')?;
        let (volts, _) = cur.next_value("the initial voltage")?;
        entries.push((
            ProbeRef {
                node,
                origin: cur.source_ref(node_span),
            },
            volts,
        ));
    }
    if entries.is_empty() {
        return Err(origin.error(".ic needs at least one entry, e.g. `.ic v(out)=0.8`"));
    }
    Ok(super::IcCard { entries, origin })
}

/// Parses `( v v … )` with exactly `n` values, each with its span.
fn paren_values(cur: &mut Cursor<'_>, what: &str, n: usize) -> Result<Vec<(f64, Span)>, DeckError> {
    cur.expect_punct('(')?;
    let mut values = Vec::with_capacity(n);
    while cur.peek().map(|t| &t.kind) != Some(&TokenKind::Punct(')')) {
        if cur.peek().is_none() {
            return Err(cur.error_at(cur.i, format!("unterminated {what}(…) — missing ')'")));
        }
        values.push(cur.next_value(&format!("a {what} argument"))?);
    }
    cur.expect_punct(')')?;
    if values.len() != n {
        return Err(cur.error_at(
            cur.i.saturating_sub(1),
            format!(
                "{what}(…) takes exactly {n} arguments, got {}",
                values.len()
            ),
        ));
    }
    Ok(values)
}
