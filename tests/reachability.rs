//! Delete what nothing reaches: a `pub fn` / `pub const` in a library
//! crate must be mentioned by some *other* `.rs` file under `crates/`,
//! `src/`, `tests/` or `examples/`. A name only its own file (or only its
//! own unit tests) uses is either private — after which rustc's
//! `dead_code` lint keeps watch — or gone.
//!
//! The scan is grep-level on purpose: it reads each library file up to
//! its first `#[cfg(test)]`, takes the identifier after `pub fn` /
//! `pub const`, and looks for that word anywhere in any other file.
//! `crates/bench` (the benchmark included) is a caller, never a subject,
//! so the surface `bench_e2e` pins cannot be flagged.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Orphans that stay public on purpose: each is the entry point of an
/// open ROADMAP item that will call it from another crate.
const ALLOWED: &[(&str, &str)] = &[
    // "Measure QoS from the wire; stop injecting it": the analyzer will
    // call these two in place of the injected `QoeInputs`.
    ("measure_fps", "ROADMAP: QoS from the wire"),
    ("measure_loss", "ROADMAP: QoS from the wire"),
    // Model lifecycle: registry retention and post-promotion re-baselining
    // are driven by the fleet's lifecycle pilot once it owns a registry
    // directory across runs.
    ("prune", "ROADMAP: lifecycle, registry retention"),
    (
        "refresh_reference",
        "ROADMAP: lifecycle, re-baseline drift after promotion",
    ),
];

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The names `source` declares with `pub fn` / `pub const` (also
/// `pub const fn`, `pub unsafe fn`, `pub async fn`) before its first
/// `#[cfg(test)]`.
fn declared(source: &str) -> Vec<&str> {
    let live = &source[..source.find("#[cfg(test)]").unwrap_or(source.len())];
    let mut names = Vec::new();
    for line in live.lines() {
        let mut words = line.split_whitespace();
        if words.next() != Some("pub") {
            continue;
        }
        let mut kind = None;
        for word in words {
            match (kind, word) {
                (None, "fn" | "const") => kind = Some(word),
                (None, "unsafe" | "async") | (Some("const"), "fn") => {}
                (Some(_), name) => {
                    let end = name.find(|c| !is_ident(c)).unwrap_or(name.len());
                    if end > 0 {
                        names.push(&name[..end]);
                    }
                    break;
                }
                (None, _) => break,
            }
        }
    }
    names
}

/// Whether `text` contains `name` as a whole identifier.
fn mentions(text: &str, name: &str) -> bool {
    text.match_indices(name).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + name.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

/// `(file, name)` for every declared name of a subject file that no
/// other file mentions. `files` holds `(path, contents, is_subject)`.
fn orphans(files: &[(PathBuf, String, bool)]) -> BTreeSet<(PathBuf, String)> {
    let mut found = BTreeSet::new();
    for (i, (path, source, subject)) in files.iter().enumerate() {
        if !subject {
            continue;
        }
        for name in declared(source) {
            let reached = files
                .iter()
                .enumerate()
                .any(|(j, (_, other, _))| j != i && mentions(other, name));
            if !reached {
                found.insert((path.clone(), name.to_string()));
            }
        }
    }
    found
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect_rs(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_public_fn_and_const_is_reached_from_another_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        collect_rs(&root.join(dir), &mut paths);
    }
    // This file names the allow-listed orphans; it is not a caller.
    paths.retain(|p| !p.ends_with(file!()));
    paths.sort();
    let bench = root.join("crates/bench");
    let files: Vec<(PathBuf, String, bool)> = paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable source file");
            let rel = p.strip_prefix(root).expect("under the root").to_path_buf();
            let subject = p.starts_with(root.join("crates"))
                && !p.starts_with(&bench)
                && rel.components().any(|c| c.as_os_str() == "src");
            (rel, text, subject)
        })
        .collect();
    assert!(
        files.iter().filter(|f| f.2).count() > 50,
        "the scan found too few library files to mean anything"
    );

    assert!(ALLOWED.len() <= 8, "the allow-list is capped at 8 names");
    let found = orphans(&files);
    let unexpected: Vec<String> = found
        .iter()
        .filter(|(_, name)| !ALLOWED.iter().any(|(a, _)| a == name))
        .map(|(path, name)| format!("{}: {name}", path.display()))
        .collect();
    assert!(
        unexpected.is_empty(),
        "pub items no other file mentions (delete them, or drop the `pub`):\n  {}",
        unexpected.join("\n  ")
    );
    for (name, reason) in ALLOWED {
        assert!(
            found.iter().any(|(_, n)| n == name),
            "`{name}` ({reason}) is reached now: take it off the allow-list"
        );
    }
}

#[test]
fn the_scan_reads_names_and_flags_a_planted_orphan() {
    let lib = "pub fn used(x: u8) {}\n    pub const LIMIT: usize = 4;\n\
               pub const fn planted<T>() {}\npub(crate) fn inner() {}\n\
               pub struct NotScanned;\nfn private() {}\n\
               #[cfg(test)]\nmod tests { pub fn in_tests() { planted() } }\n";
    assert_eq!(declared(lib), ["used", "LIMIT", "planted"]);

    assert!(mentions("a.used(1)", "used"));
    assert!(!mentions("unused(1); used_up", "used"));

    let files = vec![
        (PathBuf::from("crates/a/src/lib.rs"), lib.to_string(), true),
        (
            PathBuf::from("tests/t.rs"),
            "fn t() { used(LIMIT); pub fn caller_side() {} }".to_string(),
            false,
        ),
    ];
    let found = orphans(&files);
    assert_eq!(
        found.into_iter().collect::<Vec<_>>(),
        [(PathBuf::from("crates/a/src/lib.rs"), "planted".to_string())],
        "only the name nothing else mentions is flagged, and only in a subject file"
    );
}
