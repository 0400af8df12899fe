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
//! included. The compiler says who uses a function, constant or static:
//! the net copies the tree under `target/`, puts
//! `#[deprecated(note = "<file>:<line>")]` on each such declaration and
//! checks the copy twice, once the product targets (the workspace's lib,
//! bin and example targets and `benchmark/`'s bins) and once the test
//! targets. Each deprecation warning is a use site: where the macro was
//! called for a use inside a macro expansion, none for a `use`
//! declaration. A site only the test targets reach is in a test part.
//! The item is used when a product site is in another file.
//!
//! Types and traits keep a name check: one is used when the product part
//! of another file names it as a word outside comments, literals and
//! `pub use` statements. Code reaches a type through the functions that
//! make, take and return it, which the compiler check covers; a type no
//! other file names is what this check catches, and marking types would
//! also count every `impl` and field of their own.
//!
//! An item that is not used fails, and the failure lists the files whose
//! test parts use it. It becomes `pub(crate)`, private or `#[cfg(test)]`,
//! goes, or stays because
//! - its doc comment says ``Test-only: `<path>` and `<path>`: why``, each
//!   path a file with a use in its test part, at least one outside the
//!   item's own crate's `src` (an item only its own crate's tests use is
//!   `#[cfg(test)] pub(crate)` instead); or
//! - it is in [`ALLOWED`], with the public field or signature that
//!   reaches it from outside; a signature given as "what `T::f` returns"
//!   must have a product caller in another file.
//!
//! A declaration or an entry that no longer holds fails too: a
//! `Test-only` item that is used is one.

use flexsfp_obs::json::Value;
use std::collections::{BTreeSet, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const SOURCES: [&str; 5] = ["crates", "src", "tests", "examples", "benchmark/src"];
const KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];
/// The kinds the compiler resolves; the others keep the name check.
const MARKED: [&str; 3] = ["fn", "const", "static"];
const TEST_ONLY: [&str; 1] = ["crates/core/src/module/testutil.rs"];
const MARKER: &str = "Test-only:";
/// What the marked copy holds: the sources, the manifests and lock
/// files, and the build scripts.
const COPIED: [&str; 10] = [
    "Cargo.toml",
    "Cargo.lock",
    "crates",
    "src",
    "tests",
    "examples",
    "benchmark/src",
    "benchmark/Cargo.toml",
    "benchmark/Cargo.lock",
    "benchmark/build.rs",
];

/// Items no product part names that stay `pub`, each with the path that
/// reaches it from outside its crate. An entry that is gone or that a
/// product part now names fails the test, so the list only shrinks.
const ALLOWED: &[(&str, &str)] = &[
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
    ("obs::json::ParseError", "what `Value::parse` returns"),
    ("obs::slo::SloBreach", "`SloReport::breaches`"),
    ("ppe::cache::InlinePlan", "what `FlowCache::insert` takes"),
    ("ppe::cache::PlanView", "what `FlowCache::lookup` returns"),
    ("ppe::parser::Ipv4Summary", "`ParsedPacket::ipv4`"),
    ("ppe::parser::Ipv6Summary", "`ParsedPacket::ipv6`"),
    ("ppe::state::FlowContext", "what `EfsmTable::evict` returns"),
    (
        "wire::dns::DnsQuestion",
        "what `DnsHeader::first_question` returns",
    ),
    ("wire::ipv6::Ipv6Addr", "what `Ipv6Packet::src` returns"),
];

/// `text` without comments and without string, raw-string and character
/// literals: a word in `"stale plan"` names nothing, and a `//` inside a
/// literal is not a comment. Line breaks inside a block comment or a
/// literal stay, so line numbers still match the text.
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
            out.extend(rest[..len].chars().filter(|&c| c == '\n'));
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

/// The indices of the lines of `code` (comments already stripped) that
/// a `use` declaration spans.
fn import_lines(code: &str) -> HashSet<usize> {
    let mut lines = HashSet::new();
    let mut open = false;
    for (at, line) in code.lines().enumerate() {
        let line = line.trim_start();
        let line = line.strip_prefix("pub").map_or(line, |rest| {
            rest.strip_prefix("(crate)").unwrap_or(rest).trim_start()
        });
        open = open || line.starts_with("use ");
        if open {
            lines.insert(at);
            open = !line.contains(';');
        }
    }
    lines
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

/// The line index, kind and name of every `pub` declaration in `code`.
fn declared(code: &str) -> Vec<(usize, &str, &str)> {
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
            names.push((line_no, kind, name));
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
    /// The lines `use` declarations span.
    imports: HashSet<usize>,
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
            imports: import_lines(&strip_comments(text)),
            path,
        }
    }

    /// The file as written, with `#[deprecated(note = "<file>:<line>")]`
    /// in front of each `pub fn|const|static` of its product part. The
    /// attribute shares the declaration's line, so every line keeps its
    /// number.
    fn marked(&self, whole: &str) -> String {
        let mut lines: Vec<String> = whole.lines().map(str::to_owned).collect();
        for (at, kind, _) in declared(&self.product) {
            if MARKED.contains(&kind) {
                let line = &mut lines[at];
                let indent = line.len() - line.trim_start().len();
                let note = format!(
                    "#[deprecated(note = \"{}:{}\")] ",
                    self.path.display(),
                    at + 1
                );
                line.insert_str(indent, &note);
            }
        }
        lines.join("\n") + "\n"
    }
}

/// One use site of a marked item, both as `(file, 1-based line)`.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Use {
    /// Whether only the test targets reach the site.
    test: bool,
    declaration: (PathBuf, usize),
    site: (PathBuf, usize),
    /// The item's path as the compiler printed it.
    path: String,
}

/// The use sites in the output of `cargo check --message-format=json`
/// run on the package at `package` inside `tree`: the compiler names the
/// package's own files relative to it and other files by absolute path.
fn use_sites(output: &str, tree: &Path, package: &Path) -> BTreeSet<Use> {
    let mut uses = BTreeSet::new();
    for line in output.lines().filter(|l| l.starts_with('{')) {
        let json = Value::parse(line).unwrap_or_else(|e| panic!("{e:?}: {line}"));
        let message = &json["message"];
        if message["code"]["code"].as_str() != Some("deprecated") {
            continue;
        }
        let text = message["message"].as_str().unwrap();
        let (item, note) = text.rsplit_once("`: ").unwrap();
        let (file, line) = note.rsplit_once(':').unwrap();
        let spans = message["spans"].as_array().unwrap();
        let mut span = spans
            .iter()
            .find(|s| s["is_primary"].as_bool() == Some(true))
            .unwrap();
        // A use a macro expands to is where the macro was called.
        while span["expansion"]["span"].as_object().is_some() {
            span = &span["expansion"]["span"];
        }
        let site = Path::new(span["file_name"].as_str().unwrap());
        let site = match site.strip_prefix(tree) {
            Ok(inside) => inside.to_owned(),
            Err(_) => package.join(site),
        };
        uses.insert(Use {
            test: false,
            declaration: (file.into(), line.parse().unwrap()),
            site: (site, span["line_start"].as_u64().unwrap() as usize),
            path: without_generics(item.split_once('`').unwrap().1),
        });
    }
    uses
}

/// `path` without generic arguments: `t::Map::<K, V>::get` → `t::Map::get`.
fn without_generics(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    let mut depth = 0;
    for part in path.split("::") {
        if depth == 0 && !part.starts_with('<') {
            if !out.is_empty() {
                out.push_str("::");
            }
            out.push_str(part);
        } else {
            depth += part.matches('<').count();
            depth -= part.matches('>').count();
        }
    }
    out
}

/// What fails: each undeclared `pub` item that no other file's product
/// part uses, with the test parts that do, and each declaration or
/// [`ALLOWED`]-style entry in `allowed` that no longer holds.
fn problems(sources: &[Source], uses: &BTreeSet<Use>, allowed: &[(&str, &str)]) -> Vec<String> {
    let product: Vec<HashSet<&str>> = sources.iter().map(|s| words(&s.product)).collect();
    let test: Vec<HashSet<&str>> = sources.iter().map(|s| words(&s.test)).collect();
    let import = |(file, line): &(PathBuf, usize)| {
        sources
            .iter()
            .any(|s| s.path == *file && s.imports.contains(&(line - 1)))
    };
    let uses: Vec<&Use> = uses.iter().filter(|u| !import(&u.site)).collect();
    let called = |u: &Use| !u.test && u.site.0 != u.declaration.0;
    let mut unused = BTreeSet::new();
    let mut found = Vec::new();
    for (i, source) in sources.iter().enumerate() {
        if !in_crate(&source.path, "src") {
            continue;
        }
        let lines: Vec<&str> = source.text.lines().collect();
        for (line, kind, name) in declared(&source.product) {
            let item = format!("{}::{name}", module_path(&source.path));
            let at = format!("{item} (line {})", line + 1);
            let (used, tested_by): (bool, BTreeSet<&Path>) = if MARKED.contains(&kind) {
                let here = (source.path.clone(), line + 1);
                let sites: Vec<&Use> = uses
                    .iter()
                    .copied()
                    .filter(|u| u.declaration == here)
                    .collect();
                let tested_by = sites.iter().filter(|u| u.test).map(|u| &*u.site.0);
                (sites.iter().any(|u| called(u)), tested_by.collect())
            } else {
                let tested_by = (0..sources.len()).filter(|&j| test[j].contains(name));
                (
                    (0..sources.len()).any(|j| j != i && product[j].contains(name)),
                    tested_by.map(|j| &*sources[j].path).collect(),
                )
            };
            let doc = doc_above(&lines, line);
            match (used, declaration(&doc)) {
                (true, Some(_)) => found.push(format!("{at}: test-only, but product code uses it")),
                (true, None) => {}
                (false, Some(paths)) => {
                    let own_src: PathBuf = source.path.iter().take(3).collect();
                    if paths.iter().all(|p| Path::new(p).starts_with(&own_src)) {
                        found.push(format!(
                            "{at}: test-only for its own crate's tests alone: \
                             make it `#[cfg(test)] pub(crate)`"
                        ));
                    }
                    for path in paths {
                        if !tested_by.contains(Path::new(path)) {
                            found.push(format!(
                                "{at}: test-only `{path}`, whose tests do not use it"
                            ));
                        }
                    }
                }
                (false, None) => {
                    unused.insert(item.clone());
                    if !allowed.iter().any(|(entry, _)| *entry == item) {
                        let tested_by: Vec<String> =
                            tested_by.iter().map(|p| p.display().to_string()).collect();
                        found.push(if tested_by.is_empty() {
                            format!("{at}: no other file's product code uses it")
                        } else {
                            format!("{at}: only tests use it ({})", tested_by.join(", "))
                        });
                    }
                }
            }
        }
    }
    for (item, reason) in allowed {
        if !unused.contains(*item) {
            found.push(format!(
                "{item}: allow-listed, but gone or used by product code"
            ));
        }
        // "what `T::f` returns": `T::f` must have a product caller.
        if let Some(reach) = reason
            .strip_prefix("what `")
            .and_then(|r| r.split('`').next())
        {
            let tail = format!("::{reach}");
            if !uses.iter().any(|u| called(u) && u.path.ends_with(&tail)) {
                found.push(format!(
                    "{item}: allow-listed as {reason}, but no product code calls `{reach}`"
                ));
            }
        }
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
            let path = path.strip_prefix(root).unwrap().to_owned();
            let text = fs::read_to_string(root.join(&path)).unwrap();
            into.push(Source::new(path, &text));
        }
    }
}

/// Every file under `from` (a file or a directory, `target` directories
/// left out), relative to `root`.
fn files(root: &Path, from: &Path, into: &mut Vec<PathBuf>) {
    let path = root.join(from);
    if path.is_dir() {
        for entry in fs::read_dir(&path).unwrap() {
            let name = entry.unwrap().file_name();
            if name != "target" {
                files(root, &from.join(name), into);
            }
        }
    } else {
        into.push(from.to_owned());
    }
}

/// Writes the marked copy of `root` at `tree`. A file whose bytes are
/// already there is left alone, so a second run checks only what
/// changed; a file the copy has and `root` does not goes.
fn write_marked_copy(root: &Path, tree: &Path, sources: &[Source]) {
    let mut wanted = Vec::new();
    for from in COPIED {
        files(root, Path::new(from), &mut wanted);
    }
    for file in &wanted {
        let mut bytes = fs::read(root.join(file)).unwrap();
        let source = sources.iter().find(|s| s.path == *file);
        if let Some(source) = source.filter(|s| in_crate(&s.path, "src")) {
            bytes = source
                .marked(&String::from_utf8(bytes).unwrap())
                .into_bytes();
        }
        let to = tree.join(file);
        if fs::read(&to).ok().as_ref() != Some(&bytes) {
            fs::create_dir_all(to.parent().unwrap()).unwrap();
            fs::write(&to, bytes).unwrap();
        }
    }
    let mut present = Vec::new();
    for from in COPIED {
        if tree.join(from).exists() {
            files(tree, Path::new(from), &mut present);
        }
    }
    for stale in present.iter().filter(|p| !wanted.contains(p)) {
        fs::remove_file(tree.join(stale)).unwrap();
    }
}

/// `cargo check --offline` of `manifest` inside `tree` with `args`, into
/// `target`; its use sites.
fn check(tree: &Path, manifest: &str, target: &Path, args: &[&str]) -> BTreeSet<Use> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let output = Command::new(cargo)
        .current_dir(tree)
        .args([
            "check",
            "--offline",
            "--message-format=json",
            "--manifest-path",
        ])
        .arg(tree.join(manifest))
        .arg("--target-dir")
        .arg(target)
        .args(args)
        .env("RUSTFLAGS", "--cap-lints=warn")
        .env_remove("CARGO_ENCODED_RUSTFLAGS")
        .output()
        .unwrap();
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "cargo check {manifest} {args:?} failed:\n{}\n{stdout}",
        String::from_utf8_lossy(&output.stderr)
    );
    use_sites(&stdout, tree, Path::new(manifest).parent().unwrap())
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
    let probe = Path::new(env!("CARGO_TARGET_TMPDIR")).join("pub_surface");
    let tree = probe.join("tree");
    write_marked_copy(&root, &tree, &sources);
    let (mut uses, test) = std::thread::scope(|s| {
        let product = s.spawn(|| {
            let target = probe.join("product");
            let mut uses = check(
                &tree,
                "Cargo.toml",
                &target,
                &["--workspace", "--lib", "--bins", "--examples"],
            );
            uses.append(&mut check(
                &tree,
                "benchmark/Cargo.toml",
                &target,
                &["--bins"],
            ));
            uses
        });
        let test = check(
            &tree,
            "Cargo.toml",
            &probe.join("test"),
            &["--workspace", "--tests"],
        );
        (product.join().unwrap(), test)
    });
    // A marked item nothing uses warns nowhere; far fewer sites than
    // declarations means the warnings went unread.
    assert!(uses.len() > 1000, "only {} product use sites", uses.len());
    for site in test {
        if !uses.contains(&site) {
            uses.insert(Use { test: true, ..site });
        }
    }
    let found = problems(&sources, &uses, ALLOWED);
    assert!(
        found.is_empty(),
        "pub items no product code in another file uses: narrow or delete \
         each, or declare it (`Test-only: <paths>: why` in its doc) or \
         allow-list it; and declarations or entries that no longer hold:\n{}",
        found.join("\n")
    );
}

#[test]
fn the_scan_flags_only_items_no_other_file_names() {
    let lib = "pub use x::{InPubUse,\n    reexported};\n\
               // Commented in a line comment, /* not a block */\n\
               /* Commented /* nested */ own_file */\n\
               fn f() { let _ = (\"InString\", r#\"InRaw\"#, 'c', Named, Reached); }\n\
               fn g() { called(); twin(); stale(); }\n\
               #[cfg(test)]\nmod tests {\n    fn t() { LIMIT; }\n}\n";
    let x = "pub struct InPubUse;\npub struct Commented;\npub struct Named;\n\
             pub struct InString;\npub struct InRaw;\npub struct Listed;\n\
             pub struct Reached;\npub struct Orphan;\n\
             pub fn called() {}\npub fn own_file() {}\npub fn only_tested() {}\n\
             pub fn reexported() {}\npub fn twin() {}\npub const LIMIT: u8 = 0;\n\
             /// Test-only: `tests/t.rs` and `crates/a/src/x.rs`: a model.\n\
             #[inline]\npub fn model() {}\n\
             /// Test-only: `tests/t.rs`, `tests/gone.rs`: a fault.\npub fn hook() {}\n\
             /// Test-only: `tests/t.rs`.\npub fn stale() {}\n\
             /// Test-only: `crates/a/src/x.rs`.\npub fn own_only() {}\n\
             pub(crate) fn narrowed() {}\n\
             #[cfg(test)]\nfn helper() {}\npub fn after_helper() {}\n\
             #[cfg(test)]\nmod tests {\n    pub fn in_tests() {}\n\
             fn t() { own_file(); model(); own_only(); }\n}\n";
    let sources = [
        Source::new("crates/a/src/lib.rs".into(), lib),
        Source::new("crates/a/src/x.rs".into(), x),
        Source::new("crates/b/src/y.rs".into(), "pub fn twin() {}\n"),
        Source::new(
            "crates/core/src/module/testutil.rs".into(),
            "pub fn util() { Commented; }\n",
        ),
        Source::new("tests/t.rs".into(), "fn g() {}\n"),
    ];
    let line =
        |text: &str, needle: &str| text.lines().position(|l| l.contains(needle)).unwrap() + 1;
    let at_x = |name: &str| ("crates/a/src/x.rs", line(x, &format!("fn {name}(")));
    let in_x_tests = ("crates/a/src/x.rs", line(x, "fn t()"));
    let in_t = ("tests/t.rs", 1);
    let site = |declaration: (&str, usize), site: (&str, usize), test: bool, path: &str| Use {
        test,
        declaration: (declaration.0.into(), declaration.1),
        site: (site.0.into(), site.1),
        path: path.into(),
    };
    let uses: BTreeSet<Use> = [
        site(
            at_x("called"),
            ("crates/a/src/lib.rs", 6),
            false,
            "a::x::Maker::make",
        ),
        site(
            at_x("own_file"),
            at_x("after_helper"),
            false,
            "a::x::own_file",
        ),
        site(at_x("own_file"), in_x_tests, true, "a::x::own_file"),
        site(at_x("only_tested"), in_t, true, "a::x::only_tested"),
        site(
            at_x("reexported"),
            ("crates/a/src/lib.rs", 2),
            false,
            "a::x::reexported",
        ),
        site(
            at_x("twin"),
            ("crates/a/src/lib.rs", 6),
            false,
            "a::x::twin",
        ),
        site(
            ("crates/a/src/x.rs", line(x, "LIMIT")),
            ("crates/a/src/lib.rs", 9),
            true,
            "a::x::LIMIT",
        ),
        site(at_x("model"), in_t, true, "a::x::model"),
        site(at_x("model"), in_x_tests, true, "a::x::model"),
        site(at_x("hook"), in_t, true, "a::x::hook"),
        site(
            at_x("stale"),
            ("crates/a/src/lib.rs", 6),
            false,
            "a::x::stale",
        ),
        site(at_x("stale"), in_t, true, "a::x::stale"),
        site(at_x("own_only"), in_x_tests, true, "a::x::own_only"),
    ]
    .into_iter()
    .collect();
    let allowed = [
        ("a::x::Listed", "`Holder::listed`"),
        ("a::x::Reached", "what `Maker::make` returns"),
        ("a::x::Orphan", "what `Maker::gone` returns"),
        ("a::x::Named", "`Holder::named`"),
        ("a::x::Gone", "`Holder::gone`"),
    ];
    assert_eq!(
        problems(&sources, &uses, &allowed),
        [
            "a::x::Commented (line 2): only tests use it (crates/core/src/module/testutil.rs)",
            "a::x::Gone: allow-listed, but gone or used by product code",
            "a::x::InPubUse (line 1): no other file's product code uses it",
            "a::x::InRaw (line 5): no other file's product code uses it",
            "a::x::InString (line 4): no other file's product code uses it",
            "a::x::LIMIT (line 14): only tests use it (crates/a/src/lib.rs)",
            "a::x::Named: allow-listed, but gone or used by product code",
            "a::x::Orphan: allow-listed as what `Maker::gone` returns, \
             but no product code calls `Maker::gone`",
            "a::x::Reached: allow-listed, but gone or used by product code",
            "a::x::after_helper (line 27): no other file's product code uses it",
            "a::x::hook (line 19): test-only `tests/gone.rs`, whose tests do not use it",
            "a::x::only_tested (line 11): only tests use it (tests/t.rs)",
            "a::x::own_file (line 10): only tests use it (crates/a/src/x.rs)",
            "a::x::own_only (line 23): test-only for its own crate's tests alone: \
             make it `#[cfg(test)] pub(crate)`",
            "a::x::reexported (line 12): no other file's product code uses it",
            "a::x::stale (line 21): test-only, but product code uses it",
            "b::y::twin (line 1): no other file's product code uses it",
        ]
    );
}

#[test]
fn a_use_site_is_where_the_outermost_macro_was_called() {
    let message = |item: &str, primary: &str| {
        format!(
            "{{\"reason\":\"compiler-message\",\"message\":{{\"code\":{{\"code\":\"deprecated\"}},\
             \"message\":\"use of deprecated method `{item}`: crates/a/src/x.rs:3\",\
             \"spans\":[{{\"is_primary\":false,\"file_name\":\"elsewhere.rs\",\"line_start\":1,\
             \"expansion\":null}},{primary}]}}}}"
        )
    };
    let output = [
        "{\"reason\":\"compiler-artifact\"}".to_owned(),
        message(
            "a::Map::<K, Vec<u8>>::get",
            "{\"is_primary\":true,\"file_name\":\"/tree/crates/a/src/m.rs\",\"line_start\":9,\
             \"expansion\":{\"span\":{\"file_name\":\"/tree/crates/b/src/n.rs\",\"line_start\":7,\
             \"expansion\":{\"span\":{\"file_name\":\"src/main.rs\",\"line_start\":4,\
             \"expansion\":null}}}}}",
        ),
        message(
            "a::x::f",
            "{\"is_primary\":true,\"file_name\":\"/tree/crates/a/src/lib.rs\",\"line_start\":2,\
             \"expansion\":null}",
        ),
        message("a::x::g", "{\"is_primary\":true,\"file_name\":\"src/lib.rs\",\"line_start\":5,\"expansion\":null}")
            .replace("\"deprecated\"", "\"unused\""),
    ]
    .join("\n");
    let sites: Vec<(String, PathBuf, usize)> =
        use_sites(&output, Path::new("/tree"), Path::new("benchmark"))
            .into_iter()
            .map(|u| {
                assert_eq!(u.declaration, (PathBuf::from("crates/a/src/x.rs"), 3));
                (u.path, u.site.0, u.site.1)
            })
            .collect();
    assert_eq!(
        sites,
        [
            (
                "a::Map::get".to_owned(),
                PathBuf::from("benchmark/src/main.rs"),
                4
            ),
            (
                "a::x::f".to_owned(),
                PathBuf::from("crates/a/src/lib.rs"),
                2
            ),
        ]
    );
}
