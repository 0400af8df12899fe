//! Public surface: every `pub` item under `crates/*/src` is something
//! the product uses.
//!
//! Every scanned file has a product part and a test part. The product
//! part is everything before the first column-0 `#[cfg(test)]` on a
//! `mod` of a `crates/*/src` file, and the whole of each file under
//! `src/`, `examples/` and `benchmark/src/`. The test part is the rest of
//! each `crates/*/src` file, `core`'s `testutil.rs` (compiled only under
//! `cfg(test)`), and every file under `crates/*/tests/` and `tests/`.
//!
//! A declaration is a `pub fn|struct|enum|trait|type|const|static` line
//! in the product part of a `crates/*/src` file, methods in `impl` blocks
//! included. It is used when the product part of another file names it
//! as a word outside comments and `pub use` statements: a re-export alone
//! does not make an item used. An item that is not used fails, and the
//! failure lists the test parts that name it. It becomes `pub(crate)`,
//! private or `#[cfg(test)]`, goes, or stays because
//! - its doc comment says ``Test-only: `<path>` and `<path>`: why``, each
//!   path a file whose test part names it, at least one outside the
//!   item's own crate's `src` (an item only its own crate's tests use is
//!   `#[cfg(test)] pub(crate)` instead); or
//! - it is in [`ALLOWED`], with the public field or signature that
//!   reaches it from outside.
//!
//! A declaration or an entry that no longer holds fails too. Like
//! `tests/doc_paths.rs`, this is a name check, not name resolution: a
//! product use of one item counts for every `pub` item of that name, so
//! a declaration on such a name is not checked for staleness.

use std::collections::{BTreeSet, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

const SOURCES: [&str; 5] = ["crates", "src", "tests", "examples", "benchmark/src"];
const KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];
const TEST_ONLY: [&str; 1] = ["crates/core/src/module/testutil.rs"];
const MARKER: &str = "Test-only:";

/// Items no product part names that stay `pub`, each with the path that
/// reaches it from outside its crate. An entry that is gone or that a
/// product part now names fails the test, so the list only shrinks.
const ALLOWED: &[(&str, &str)] = &[
    (
        "apps::sanitizer::SanitizerStats",
        "`Sanitizer::stats`, read by `tests/props.rs`",
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
    (
        "core::bitstream::BitstreamError",
        "what `Bitstream::from_bytes` returns",
    ),
    ("core::module::report::LatencyStats", "`SimReport::latency`"),
    (
        "fabric::xbar::XbarTotals",
        "what `CrosspointMatrix::totals` returns",
    ),
    ("host::crossbar::SwitchStats", "`CrossbarStats::sw`"),
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
    ("host::rack::RackStats", "what `Rack::stats` returns"),
    (
        "obs::json::as_object",
        "called by `impl_json_struct!` expansions",
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
    ("wire::ipv6::Ipv6Addr", "what `Ipv6Packet::src` returns"),
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
/// The line breaks inside one stay, so line numbers still match the text.
fn strip_pub_use(code: &str) -> String {
    let mut out = String::with_capacity(code.len());
    let mut rest = code;
    while let Some(at) = find_word(rest, "pub use") {
        out.push_str(&rest[..at]);
        rest = &rest[at..];
        let end = rest.find(';').map_or(rest.len(), |end| end + 1);
        out.extend(rest[..end].chars().filter(|&c| c == '\n'));
        rest = &rest[end..];
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

/// The line index and name of every `pub` declaration in `code`.
fn declared(code: &str) -> Vec<(usize, &str)> {
    let mut names = Vec::new();
    for (line_no, line) in code.lines().enumerate() {
        let Some(rest) = line.trim().strip_prefix("pub ") else {
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
            names.push((line_no, name));
        }
    }
    names
}

/// The doc comment above line `at`, its lines joined by spaces;
/// attributes between it and the declaration are skipped.
fn doc_above(lines: &[&str], at: usize) -> String {
    let mut doc: Vec<&str> = lines[..at]
        .iter()
        .rev()
        .map(|l| l.trim())
        .take_while(|l| l.starts_with("///") || l.starts_with("#["))
        .filter_map(|l| l.strip_prefix("///"))
        .map(str::trim)
        .collect();
    doc.reverse();
    doc.join(" ")
}

/// The backticked paths after a doc comment's [`MARKER`]:
/// ``Test-only: `tests/a.rs` and `tests/b.rs`: …`` gives both.
fn declaration(doc: &str) -> Option<Vec<&str>> {
    let mut rest = &doc[find_word(doc, MARKER)? + MARKER.len()..];
    let mut paths = Vec::new();
    loop {
        rest = rest.trim_start().trim_start_matches(',').trim_start();
        rest = rest.strip_prefix("and ").unwrap_or(rest);
        let Some(quoted) = rest.strip_prefix('`') else {
            break;
        };
        let Some(end) = quoted.find('`') else { break };
        paths.push(&quoted[..end]);
        rest = &quoted[end + 1..];
    }
    Some(paths)
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
    /// The product part as written, doc comments included.
    text: String,
    /// The product part without comments and `pub use` statements.
    product: String,
    /// The test part without comments and `pub use` statements.
    test: String,
}

/// Whether `path` is under `crates/*/<dir>/`.
fn in_crate(path: &Path, dir: &str) -> bool {
    path.starts_with("crates") && path.iter().nth(2).is_some_and(|p| p == dir)
}

impl Source {
    fn new(path: PathBuf, text: &str) -> Self {
        let split = if path.starts_with("tests")
            || in_crate(&path, "tests")
            || TEST_ONLY.iter().any(|t| path == Path::new(t))
        {
            0
        } else if in_crate(&path, "src") {
            text.match_indices("#[cfg(test)]")
                .map(|(at, _)| at)
                .find(|&at| {
                    let column_0 = at == 0 || text.as_bytes()[at - 1] == b'\n';
                    let next = text[at..].lines().skip(1).find(|l| !l.trim().is_empty());
                    column_0 && next.is_some_and(|l| l.starts_with("mod "))
                })
                .unwrap_or(text.len())
        } else {
            text.len()
        };
        let code = |part: &str| strip_pub_use(&strip_comments(part));
        Source {
            text: text[..split].to_owned(),
            product: code(&text[..split]),
            test: code(&text[split..]),
            path,
        }
    }
}

/// What fails: each undeclared `pub` item that no other file's product
/// part names, with the test parts that do, and each declaration or
/// [`ALLOWED`]-style entry in `allowed` that no longer holds.
fn problems(sources: &[Source], allowed: &[&str]) -> Vec<String> {
    let product: Vec<HashSet<&str>> = sources.iter().map(|s| words(&s.product)).collect();
    let test: Vec<HashSet<&str>> = sources.iter().map(|s| words(&s.test)).collect();
    let mut names: Vec<&str> = sources
        .iter()
        .filter(|s| in_crate(&s.path, "src"))
        .flat_map(|s| declared(&s.product).into_iter().map(|(_, name)| name))
        .collect();
    names.sort_unstable();
    let shared = |name: &str| names.iter().filter(|n| **n == name).count() > 1;
    let mut unused = BTreeSet::new();
    let mut found = Vec::new();
    for (i, source) in sources.iter().enumerate() {
        if !in_crate(&source.path, "src") {
            continue;
        }
        let lines: Vec<&str> = source.text.lines().collect();
        for (line, name) in declared(&source.product) {
            let item = format!("{}::{name}", module_path(&source.path));
            let used = (0..sources.len()).any(|j| j != i && product[j].contains(name));
            let doc = doc_above(&lines, line);
            match (used, declaration(&doc)) {
                (true, Some(_)) if shared(name) => {}
                (true, Some(_)) => {
                    found.push(format!("{item}: test-only, but product code names it"))
                }
                (true, None) => {}
                (false, Some(paths)) => {
                    let own_src: PathBuf = source.path.iter().take(3).collect();
                    if paths.iter().all(|p| Path::new(p).starts_with(&own_src)) {
                        found.push(format!(
                            "{item}: test-only for its own crate's tests alone: \
                             make it `#[cfg(test)] pub(crate)`"
                        ));
                    }
                    for path in paths {
                        let at = sources.iter().position(|s| s.path == Path::new(path));
                        if !at.is_some_and(|j| test[j].contains(name)) {
                            found.push(format!(
                                "{item}: test-only `{path}`, whose tests do not name it"
                            ));
                        }
                    }
                }
                (false, None) => {
                    unused.insert(item.clone());
                    if !allowed.contains(&item.as_str()) {
                        let tested_by: Vec<String> = (0..sources.len())
                            .filter(|&j| test[j].contains(name))
                            .map(|j| sources[j].path.display().to_string())
                            .collect();
                        found.push(if tested_by.is_empty() {
                            format!("{item}: no other file names it")
                        } else {
                            format!("{item}: only tests name it ({})", tested_by.join(", "))
                        });
                    }
                }
            }
        }
    }
    for item in allowed.iter().filter(|item| !unused.contains(**item)) {
        found.push(format!(
            "{item}: allow-listed, but gone or named by product code"
        ));
    }
    found.sort();
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
            into.push(Source::new(path, &text));
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
        .filter(|s| in_crate(&s.path, "src"))
        .map(|s| declared(&s.product).len())
        .sum();
    // The crates declare about a thousand `pub` items; a scan that finds
    // few is broken.
    assert!(declarations > 500, "only {declarations} declarations found");
    assert!(
        ALLOWED.iter().all(|(_, reason)| !reason.trim().is_empty()),
        "every allow-list entry needs a reason"
    );
    let allowed: Vec<&str> = ALLOWED.iter().map(|(item, _)| *item).collect();
    let found = problems(&sources, &allowed);
    assert!(
        found.is_empty(),
        "pub items no product code names: narrow or delete each, or declare it \
         (`Test-only: <paths>: why` in its doc) or allow-list it; and \
         declarations or entries that no longer hold:\n{}",
        found.join("\n")
    );
}

#[test]
fn the_scan_flags_only_items_no_other_file_names() {
    let sources = [
        Source::new(
            "crates/a/src/lib.rs".into(),
            "pub use x::{InPubUse,\n    Named as Renamed};\n\
             // Commented in a line comment, /* not a block */\n\
             /* Commented /* nested */ own_tests */\n\
             fn f() { let _ = (\"http://x\", '\"', Named, Stale, NowNamed, shared); }\n",
        ),
        Source::new(
            "crates/a/src/x.rs".into(),
            "pub struct InPubUse;\npub struct Commented;\npub const Named: u8 = 0;\n\
             pub fn own_tests() {}\npub(crate) fn narrowed() {}\n\
             /// Test-only: `tests/t.rs` and `crates/a/src/x.rs`: a model.\n\
             #[inline]\npub fn model() {}\n\
             /// Test-only: `tests/t.rs`, `tests/gone.rs`: a fault.\n\
             pub fn hook() {}\n\
             /// Test-only: `tests/t.rs`.\npub fn Stale() {}\n\
             /// Test-only: `crates/a/src/x.rs`.\npub fn own_only() {}\n\
             /// Test-only: `tests/t.rs`.\npub fn shared() {}\n\
             pub struct NowNamed;\npub struct Listed;\n\
             #[cfg(test)]\nfn helper() {}\npub fn after_helper() {}\n\
             #[cfg(test)]\nmod tests {\n    pub fn in_tests() {}\n\
             fn t() { super::own_tests(); model(); own_only(); }\n}\n",
        ),
        Source::new("crates/b/src/y.rs".into(), "pub fn shared() {}\n"),
        Source::new(
            "crates/core/src/module/testutil.rs".into(),
            "pub fn util() { Commented; }\n",
        ),
        Source::new(
            "tests/t.rs".into(),
            "fn g() { model(); hook(); Stale(); shared(); after_helper_twin(); }\n",
        ),
    ];
    assert_eq!(
        problems(&sources, &["a::x::Listed", "a::x::NowNamed", "a::x::Gone"]),
        [
            "a::x::Commented: only tests name it (crates/core/src/module/testutil.rs)",
            "a::x::Gone: allow-listed, but gone or named by product code",
            "a::x::InPubUse: no other file names it",
            "a::x::NowNamed: allow-listed, but gone or named by product code",
            "a::x::Stale: test-only, but product code names it",
            "a::x::after_helper: no other file names it",
            "a::x::hook: test-only `tests/gone.rs`, whose tests do not name it",
            "a::x::own_only: test-only for its own crate's tests alone: \
             make it `#[cfg(test)] pub(crate)`",
            "a::x::own_tests: only tests name it (crates/a/src/x.rs)",
        ]
    );
}
