//! `docs/DECK_FORMAT.md` promises that every fenced `spice` block is a
//! complete, runnable deck and that every `spice-lint CODE…` block is
//! a complete deck producing exactly the lint codes named on its
//! fence. This test holds it to both: each block is extracted, parsed,
//! and either lowered and run (plain `spice` — which must also lint
//! clean) or linted and compared against its declared codes. A
//! documentation edit that breaks an example breaks the build.

use cntfet::circuit::deck::{Deck, LintCode, LintOptions};

/// One fenced code block: starting line, fence info string (the text
/// after the opening backticks, e.g. `spice` or `spice-lint E101`),
/// and body.
struct Block {
    line: usize,
    info: String,
    body: String,
}

/// Extracts every fenced block whose info string starts with `spice`.
fn spice_blocks(markdown: &str) -> Vec<Block> {
    let mut blocks = Vec::new();
    let mut current: Option<Block> = None;
    for (i, line) in markdown.lines().enumerate() {
        let fence = line.trim_start();
        match &mut current {
            None => {
                if let Some(info) = fence.strip_prefix("```") {
                    if info.trim() == "spice" || info.trim().starts_with("spice-lint") {
                        current = Some(Block {
                            line: i + 1,
                            info: info.trim().to_string(),
                            body: String::new(),
                        });
                    }
                }
            }
            Some(_) if fence.starts_with("```") => {
                blocks.push(current.take().expect("open block"));
            }
            Some(block) => {
                block.body.push_str(line);
                block.body.push('\n');
            }
        }
    }
    assert!(current.is_none(), "unclosed ```spice fence");
    blocks
}

#[test]
fn every_deck_format_snippet_parses_and_runs_or_lints_as_declared() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/DECK_FORMAT.md");
    let markdown = std::fs::read_to_string(path).expect("docs/DECK_FORMAT.md exists");
    let blocks = spice_blocks(&markdown);
    assert!(
        blocks.len() >= 10,
        "expected the card reference to carry at least 10 runnable decks, found {}",
        blocks.len()
    );
    let mut lint_codes_documented = std::collections::BTreeSet::new();
    for block in blocks {
        let Block { line, info, body } = block;
        let deck = Deck::parse(&body)
            .unwrap_or_else(|e| panic!("DECK_FORMAT.md snippet at line {line}:\n{e}"));
        if info == "spice" {
            let report = deck.lint(&LintOptions::default());
            assert!(
                report.is_clean(),
                "DECK_FORMAT.md snippet at line {line} should lint clean:\n{report}"
            );
            deck.run().unwrap_or_else(|e| {
                panic!("DECK_FORMAT.md snippet at line {line} failed to run:\n{e}")
            });
        } else {
            let declared: Vec<LintCode> = info
                .strip_prefix("spice-lint")
                .expect("spice-lint fence")
                .split_whitespace()
                .map(|code| {
                    LintCode::parse(code).unwrap_or_else(|| {
                        panic!("DECK_FORMAT.md line {line}: unknown lint code '{code}'")
                    })
                })
                .collect();
            assert!(
                !declared.is_empty(),
                "DECK_FORMAT.md line {line}: spice-lint fence names no codes"
            );
            lint_codes_documented.extend(declared.iter().copied());
            let report = deck.lint(&LintOptions::default());
            let mut got = report.codes();
            got.sort();
            let mut want = declared;
            want.sort();
            assert_eq!(
                got, want,
                "DECK_FORMAT.md snippet at line {line}:\n{report}"
            );
        }
    }
    // The diagnostics reference must demonstrate every code the
    // analyzer can emit.
    for code in LintCode::ALL {
        assert!(
            lint_codes_documented.contains(&code),
            "DECK_FORMAT.md documents no snippet triggering {code}"
        );
    }
}

#[test]
fn readme_deck_snippets_parse_and_run() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
    let markdown = std::fs::read_to_string(path).expect("README.md exists");
    for Block { line, body, .. } in spice_blocks(&markdown) {
        let deck =
            Deck::parse(&body).unwrap_or_else(|e| panic!("README.md snippet at line {line}:\n{e}"));
        deck.run()
            .unwrap_or_else(|e| panic!("README.md snippet at line {line} failed to run:\n{e}"));
    }
}

/// The `.option` table of DECK_FORMAT.md lists exactly the keys the
/// parser accepts, in the order its unknown-option error names them.
#[test]
fn option_table_matches_the_parser_key_list() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/DECK_FORMAT.md");
    let markdown = std::fs::read_to_string(path).expect("docs/DECK_FORMAT.md exists");
    let section = markdown
        .split("### `.option`")
        .nth(1)
        .expect("DECK_FORMAT.md has an `.option` section");
    let documented: Vec<&str> = section
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .skip(2) // header and separator rows
        .filter_map(|row| row.split('|').nth(1))
        .map(|cell| cell.trim().trim_matches('`'))
        .collect();
    let err = Deck::parse("probe\n.option nosuchkey=1\n.end\n")
        .expect_err("nosuchkey is not an option")
        .to_string();
    let accepted: Vec<&str> = err
        .split(".option accepts ")
        .nth(1)
        .and_then(|rest| rest.lines().next())
        .unwrap_or_else(|| panic!("no accepted-key list in:\n{err}"))
        .split(", ")
        .collect();
    assert_eq!(documented, accepted, "DECK_FORMAT.md table vs parser");
}
