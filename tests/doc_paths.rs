//! Doc drift: every Rust path DESIGN.md and README.md name in backticks
//! must still name something in the source.
//!
//! A path is a code span of `::`-joined identifiers, optionally ending
//! in `()` (`host::rack::Rack`, `Value::parse()`). Its last segment must
//! occur as an identifier in some `.rs` file under `crates/`, `src/`,
//! `tests/`, `examples/` or `benchmark/src/`. Paths into `std`, `core`
//! and `alloc` are skipped, and so are fenced code blocks. This is a name
//! check, not name resolution: it catches an item that was deleted or
//! renamed, not one that moved to another module.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 2] = ["DESIGN.md", "README.md"];
const SOURCES: [&str; 5] = ["crates", "src", "tests", "examples", "benchmark/src"];
const SKIPPED: [&str; 3] = ["std", "core", "alloc"];

fn is_identifier(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c == '_' || c.is_ascii_alphabetic())
        && chars.all(|c| c == '_' || c.is_ascii_alphanumeric())
}

/// The segments of the path a code span is, or `None` when it is none.
fn path_segments(span: &str) -> Option<Vec<&str>> {
    let path = span.strip_suffix("()").unwrap_or(span);
    let segments: Vec<&str> = path.split("::").collect();
    (segments.len() > 1 && segments.iter().all(|s| is_identifier(s))).then_some(segments)
}

/// The inline code spans of a Markdown text, fenced blocks left out.
fn code_spans(markdown: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_owned)
        .collect()
}

/// The paths of `markdown` whose last segment `known` does not hold.
fn unknown_paths(markdown: &str, known: &HashSet<String>) -> Vec<String> {
    code_spans(markdown)
        .into_iter()
        .filter(|span| {
            path_segments(span).is_some_and(|segments| {
                !SKIPPED.contains(&segments[0]) && !known.contains(*segments.last().unwrap())
            })
        })
        .collect()
}

fn collect_identifiers(dir: &Path, into: &mut HashSet<String>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            collect_identifiers(&path, into);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = fs::read_to_string(&path).unwrap();
            into.extend(
                text.split(|c: char| c != '_' && !c.is_ascii_alphanumeric())
                    .filter(|word| is_identifier(word))
                    .map(str::to_owned),
            );
        }
    }
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn every_path_the_docs_name_is_in_the_source() {
    let mut known = HashSet::new();
    for dir in SOURCES {
        collect_identifiers(&root().join(dir), &mut known);
    }
    let mut stale = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = fs::read_to_string(root().join(doc)).unwrap();
        checked += code_spans(&text)
            .iter()
            .filter(|span| path_segments(span).is_some())
            .count();
        stale.extend(
            unknown_paths(&text, &known)
                .into_iter()
                .map(|path| format!("{doc}: `{path}`")),
        );
    }
    // The docs name over a hundred paths; a scan that finds few is broken.
    assert!(checked > 50, "only {checked} paths found");
    assert!(
        stale.is_empty(),
        "paths naming nothing in the source:\n{}",
        stale.join("\n")
    );
}

#[test]
fn the_scan_reads_spans_and_paths_only() {
    let known: HashSet<String> = ["Rack", "parse"].map(str::to_owned).into();
    let markdown = "`host::rack::Rack` and `Value::parse()`, not `a :: b`,\n\
                    `x::y<T>`, `std::mem::gone` or `-- all`; but `ppe::Gone`\n\
                    ```\nlet v = ppe::AlsoGone;\n```\nand `obs::Split\n::Span`.";
    assert_eq!(unknown_paths(markdown, &known), ["ppe::Gone"]);
}
