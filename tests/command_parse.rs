//! Parse-corpus golden for the command language.
//!
//! `tests/golden/command_parse.txt` lists command lines (`> line`), each
//! followed by what `Command::parse` made of it (`= <Debug of the Command>`
//! or `= error: <kind>`). The corpus covers every verb and alias, the
//! command literals of the repo's tests and wirebench, and the edge cases
//! of the grammar: quoting, `=` inside positionals, defaults, the beam
//! width clamp, the EMD aliases, bounds and unknown input. Lines starting
//! with `#` are comments.
//!
//! On a mismatch the regenerated file is written to the integration-test
//! scratch directory and its path is printed, so an intended change can be
//! reviewed with `diff` and copied over the golden.

use fairank::session::command::Command;

const GOLDEN: &str = include_str!("golden/command_parse.txt");

fn outcome(line: &str) -> String {
    match Command::parse(line) {
        Ok(command) => format!("{command:?}"),
        Err(e) => format!("error: {}", e.kind()),
    }
}

/// Re-parses every `> line` of the golden and re-renders the whole file.
fn regenerate(golden: &str) -> String {
    let mut out = String::new();
    for line in golden.lines() {
        if let Some(input) = line.strip_prefix("> ") {
            out.push_str(line);
            out.push('\n');
            out.push_str("= ");
            out.push_str(&outcome(input));
            out.push('\n');
        } else if !line.starts_with("= ") {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn every_corpus_line_parses_as_recorded() {
    let fresh = regenerate(GOLDEN);
    if fresh == GOLDEN {
        return;
    }
    let mismatches: Vec<String> = GOLDEN
        .lines()
        .zip(fresh.lines())
        .filter(|(want, got)| want != got)
        .take(10)
        .map(|(want, got)| format!("  want {want}\n  got  {got}"))
        .collect();
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("command_parse.txt");
    std::fs::write(&path, &fresh).expect("write regenerated corpus");
    panic!(
        "command parse corpus changed (regenerated file: {}):\n{}",
        path.display(),
        mismatches.join("\n")
    );
}

#[test]
fn corpus_records_one_outcome_per_line() {
    let inputs = GOLDEN.lines().filter(|l| l.starts_with("> ")).count();
    let outcomes = GOLDEN.lines().filter(|l| l.starts_with("= ")).count();
    assert_eq!(inputs, outcomes);
    assert!(inputs > 150, "corpus holds {inputs} lines");
}
