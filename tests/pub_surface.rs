//! Public surface: every `pub` item under `crates/*/src` is something
//! another file uses.
//!
//! A declaration is a `pub fn|struct|enum|trait|type|const|static` line,
//! methods in `impl` blocks included. A file's scan stops at its first
//! `#[cfg(test)] mod … {`, and `core`'s `testutil.rs` is not scanned. An
//! item is used when another `.rs` file under `crates/`, `src/`, `tests/`,
//! `examples/` or `benchmark/src/` names it as a word outside comments and
//! `pub use` statements: a re-export alone does not make an item used.
//! An item no other file names is an orphan. It becomes `pub(crate)` or
//! private, goes, or joins [`ALLOWED`] with the path that reaches it from
//! outside. Like `tests/doc_paths.rs`, this is a name check, not name
//! resolution.

use std::collections::{BTreeSet, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

const SOURCES: [&str; 5] = ["crates", "src", "tests", "examples", "benchmark/src"];
const KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];
const NOT_SCANNED: [&str; 1] = ["crates/core/src/module/testutil.rs"];

/// Orphans that stay `pub`, each with the path that reaches it from
/// outside its crate. An entry that is gone or that another file now
/// names fails the test, so the list only shrinks.
const ALLOWED: &[(&str, &str)] = &[
    (
        "apps::sanitizer::SanitizerStats",
        "`Sanitizer::stats`, read by `tests/props.rs`",
    ),
    (
        "apps::telemetry::ExportRecord",
        "what `parse_export` returns",
    ),
    (
        "apps::telemetry::parse_export",
        "decodes a table-2 read through `ManagementClient::table_op`",
    ),
    (
        "bench::ablations::ChainDepthPoint",
        "`ablations::Report::chain_depth`",
    ),
    (
        "bench::ablations::ControlSharePoint",
        "`ablations::Report::control_share`",
    ),
    ("bench::ablations::FifoPoint", "`ablations::Report::fifo`"),
    (
        "bench::ablations::TableSizePoint",
        "`ablations::Report::table_size`",
    ),
    ("core::module::report::LatencyStats", "`SimReport::latency`"),
    (
        "host::baselines::PathStats",
        "what `ProcessingPath::run` returns",
    ),
    (
        "host::fleet::DeployReport",
        "what `FleetManager::deploy_all` returns",
    ),
    (
        "host::fleet::HealthEntry",
        "what `FleetManager::health_report` returns",
    ),
    (
        "host::mgmt::ModuleInfo",
        "what `ManagementClient::info` returns",
    ),
    (
        "obs::json::sort_members",
        "called by `impl_json_struct!` and `impl_json_enum!` expansions",
    ),
    ("obs::slo::SloBreach", "`SloReport::breaches`"),
    ("ppe::cache::InlinePlan", "what `FlowCache::insert` takes"),
    ("ppe::cache::PlanView", "what `FlowCache::lookup` returns"),
    (
        "ppe::hls::SynthesisReport",
        "what `hls::synthesize_pipeline` returns",
    ),
    ("ppe::parser::Ipv4Summary", "`ParsedPacket::ipv4`"),
    ("ppe::parser::Ipv6Summary", "`ParsedPacket::ipv6`"),
    ("ppe::state::FlowContext", "what `EfsmTable::peek` returns"),
    ("ppe::tables::TableStats", "what `HashTable::stats` returns"),
    (
        "wire::dns::DnsQuestion",
        "what `DnsHeader::first_question` returns",
    ),
];

/// `text` without comments. String and character literals are kept whole,
/// so a `//` inside one is not a comment.
fn strip_comments(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < bytes.len() {
        let rest = &text[i..];
        if rest.starts_with("//") {
            i += rest.find('\n').unwrap_or(rest.len());
        } else if rest.starts_with("/*") {
            let mut depth = 0;
            while i < bytes.len() {
                if bytes[i..].starts_with(b"/*") {
                    depth += 1;
                    i += 2;
                } else if bytes[i..].starts_with(b"*/") {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if bytes[i] == b'\n' {
                        out.push('\n');
                    }
                    i += 1;
                }
            }
        } else if let Some(len) = literal_len(rest) {
            out.push_str(&rest[..len]);
            i += len;
        } else {
            let c = rest.chars().next().unwrap();
            out.push(c);
            i += c.len_utf8();
        }
    }
    out
}

/// The length of the string or character literal `rest` starts with.
fn literal_len(rest: &str) -> Option<usize> {
    let b = rest.as_bytes();
    let raw = rest.starts_with("r\"") || rest.starts_with("r#");
    let raw = raw || rest.starts_with("br\"") || rest.starts_with("br#");
    if raw {
        let start = rest.find('r').unwrap() + 1;
        let hashes = rest[start..].bytes().take_while(|&c| c == b'#').count();
        if b.get(start + hashes) != Some(&b'"') {
            return None;
        }
        let close = format!("\"{}", "#".repeat(hashes));
        let body = start + hashes + 1;
        return Some(
            rest[body..]
                .find(&close)
                .map_or(rest.len(), |at| body + at + close.len()),
        );
    }
    let quote = usize::from(rest.starts_with("b\"") || rest.starts_with("b'"));
    match b.get(quote) {
        Some(b'"') => {
            let mut i = quote + 1;
            while i < b.len() && b[i] != b'"' {
                i += if b[i] == b'\\' { 2 } else { 1 };
            }
            Some((i + 1).min(b.len()))
        }
        Some(b'\'') => {
            // A lifetime or a label is not a literal: `'a` has no close.
            let i = quote + 1;
            let c = rest[i..].chars().next()?;
            let end = if c == '\\' {
                i + 2 + rest.get(i + 2..)?.find('\'')?
            } else {
                i + c.len_utf8()
            };
            (b.get(end) == Some(&b'\'')).then_some(end + 1)
        }
        _ => None,
    }
}

/// `code` (comments already stripped) without its `pub use` statements.
fn strip_pub_use(code: &str) -> String {
    let mut out = String::with_capacity(code.len());
    let mut rest = code;
    while let Some(at) = find_word(rest, "pub use") {
        out.push_str(&rest[..at]);
        rest = &rest[at..];
        rest = &rest[rest.find(';').map_or(rest.len(), |end| end + 1)..];
    }
    out.push_str(rest);
    out
}

fn is_ident_char(c: char) -> bool {
    c == '_' || c.is_ascii_alphanumeric()
}

/// The first offset where `needle` starts at a word boundary.
fn find_word(haystack: &str, needle: &str) -> Option<usize> {
    haystack
        .match_indices(needle)
        .map(|(at, _)| at)
        .find(|&at| {
            !haystack[..at]
                .chars()
                .next_back()
                .is_some_and(is_ident_char)
                && !haystack[at + needle.len()..]
                    .chars()
                    .next()
                    .is_some_and(is_ident_char)
        })
}

fn words(code: &str) -> HashSet<&str> {
    code.split(|c: char| !is_ident_char(c))
        .filter(|w| w.chars().next().is_some_and(|c| !c.is_ascii_digit()))
        .collect()
}

/// The names a file's product code declares `pub`: every line before its
/// first `#[cfg(test)] mod … {` (a `#[cfg(test)] fn` does not stop it).
fn declared(code: &str) -> Vec<&str> {
    let mut names = Vec::new();
    let mut cfg_test = false;
    for line in code.lines().map(str::trim) {
        if cfg_test && line.starts_with("mod ") && line.ends_with('{') {
            break;
        }
        if !line.is_empty() {
            cfg_test = line == "#[cfg(test)]";
        }
        let Some(rest) = line.strip_prefix("pub ") else {
            continue;
        };
        let mut tokens = rest
            .split(|c: char| !is_ident_char(c))
            .filter(|t| !t.is_empty())
            .peekable();
        let mut kind = tokens.next();
        // `pub const fn`, `pub unsafe fn`, `pub extern "C" fn`: the kind
        // is the last keyword.
        while matches!(kind, Some("unsafe" | "async" | "extern" | "C"))
            || kind == Some("const") && tokens.peek().is_some_and(|t| *t == "fn" || *t == "unsafe")
        {
            kind = tokens.next();
        }
        let name = tokens.find(|t| *t != "mut");
        let Some(kind) = kind else { continue };
        if let Some(name) = name.filter(|_| KINDS.contains(&kind)) {
            names.push(name);
        }
    }
    names
}

/// `crates/ppe/src/parser.rs` → `ppe::parser`.
fn module_path(file: &Path) -> String {
    let mut parts: Vec<String> = file
        .iter()
        .skip(1)
        .map(|p| p.to_string_lossy().trim_end_matches(".rs").to_owned())
        .filter(|p| p != "src" && p != "lib" && p != "mod")
        .collect();
    parts.dedup();
    parts.join("::")
}

struct Source {
    path: PathBuf,
    code: String,
}

/// The `item path` of every declaration no other source names.
fn orphans(sources: &[Source]) -> BTreeSet<String> {
    let used: Vec<HashSet<&str>> = sources.iter().map(|s| words(&s.code)).collect();
    let mut found = BTreeSet::new();
    for (i, source) in sources.iter().enumerate() {
        let scanned = source.path.starts_with("crates")
            && source.path.iter().nth(2).is_some_and(|p| p == "src")
            && !NOT_SCANNED.iter().any(|s| source.path == Path::new(s));
        if !scanned {
            continue;
        }
        for name in declared(&source.code) {
            let named = used
                .iter()
                .enumerate()
                .any(|(j, words)| j != i && words.contains(name));
            if !named {
                found.insert(format!("{}::{name}", module_path(&source.path)));
            }
        }
    }
    found
}

fn collect(root: &Path, dir: &Path, into: &mut Vec<Source>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            collect(root, &path, into);
        } else if path.extension().is_some_and(|e| e == "rs") {
            // This file names every allow-listed item; it uses none.
            let path = path.strip_prefix(root).unwrap().to_owned();
            if path == Path::new(file!()) {
                continue;
            }
            let text = fs::read_to_string(root.join(&path)).unwrap();
            into.push(Source {
                path,
                code: strip_pub_use(&strip_comments(&text)),
            });
        }
    }
}

#[test]
fn every_pub_item_is_named_by_another_file() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for dir in SOURCES {
        collect(&root, &root.join(dir), &mut sources);
    }
    let declarations: usize = sources
        .iter()
        .filter(|s| s.path.starts_with("crates"))
        .map(|s| declared(&s.code).len())
        .sum();
    // The crates declare over a thousand `pub` items; a scan that
    // finds few is broken.
    assert!(declarations > 500, "only {declarations} declarations found");
    let found = orphans(&sources);
    let allowed: BTreeSet<String> = ALLOWED.iter().map(|(item, _)| item.to_string()).collect();
    let unlisted: Vec<&String> = found.difference(&allowed).collect();
    let stale: Vec<&String> = allowed.difference(&found).collect();
    assert!(
        unlisted.is_empty() && stale.is_empty(),
        "pub items no other file names (narrow, delete or allow-list them):\n{}\n\
         allow-list entries that are gone or now named elsewhere:\n{}",
        unlisted
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>()
            .join("\n"),
        stale
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>()
            .join("\n"),
    );
    assert!(
        ALLOWED.iter().all(|(_, reason)| !reason.trim().is_empty()),
        "every allow-list entry needs a reason"
    );
}

#[test]
fn the_scan_flags_only_items_no_other_file_names() {
    let source = |path: &str, text: &str| Source {
        path: PathBuf::from(path),
        code: strip_pub_use(&strip_comments(text)),
    };
    let sources = [
        source(
            "crates/a/src/lib.rs",
            "pub use x::{InPubUse,\n    Named as Renamed};\n\
             // Commented in a line comment, /* not a block */\n\
             /* Commented /* nested */ own_tests */\n\
             fn f() { let _ = (\"http://x\", '\"', Named); }\n",
        ),
        source(
            "crates/a/src/x.rs",
            "pub struct InPubUse;\npub struct Commented;\npub const Named: u8 = 0;\n\
             pub fn own_tests() {}\n#[cfg(test)]\nfn helper() {}\n\
             pub(crate) fn narrowed() {}\npub fn after_helper() {}\n\
             #[cfg(test)]\nmod tests {\n    pub fn in_tests() {}\n\
             fn t() { super::own_tests(); }\n}\n",
        ),
        source("tests/t.rs", "fn g() { after_helper_twin(); }\n"),
    ];
    assert_eq!(
        orphans(&sources).into_iter().collect::<Vec<_>>(),
        [
            "a::x::Commented",
            "a::x::InPubUse",
            "a::x::after_helper",
            "a::x::own_tests"
        ]
    );
}
