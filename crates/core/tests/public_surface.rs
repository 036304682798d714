//! The crate's public surface is pinned: every non-test `pub` item under
//! `src/`, one `kind path` line each, must equal `public_items.txt`.
//!
//! The scan is line-based over rustfmt'd source. A file's items are
//! named by its module path (`exec/mod.rs` → `exec`, `lib.rs` → the
//! crate root), members of a `struct`/`enum`/`trait`/`impl` block by its
//! type (`exec::ExecConfig::faults`), and scanning stops at the file's
//! `#[cfg(test)] mod tests`. An item behind `#[cfg(test)]` is not surface.
//!
//! A change that adds or removes a `pub` item fails here with the lines
//! that differ; it updates `public_items.txt` by hand, so the diff of a
//! change that widens the surface shows it.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The kinds of item a `pub` line declares, as they follow `pub `
/// (after any `const`/`unsafe`/`async` qualifiers of a `fn`).
const KINDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("read src dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            rust_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// `src/exec/mod.rs` → `exec`, `src/exec/interp.rs` → `exec::interp`,
/// `src/lib.rs` → `` (the crate root).
fn module_path(src: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(src).expect("file under src");
    let mut parts: Vec<String> = rel
        .with_extension("")
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    if matches!(parts.last().map(String::as_str), Some("mod" | "lib")) {
        parts.pop();
    }
    parts.join("::")
}

fn join(module: &str, owner: Option<&str>, name: &str) -> String {
    [module, owner.unwrap_or(""), name]
        .iter()
        .filter(|s| !s.is_empty())
        .copied()
        .collect::<Vec<_>>()
        .join("::")
}

/// The identifier at the start of `s`.
fn ident(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

/// The type a top-level block opens, for lines such as `impl<T> Foo<T> {`,
/// `impl Display for Foo {`, `pub struct Foo {` or `pub(crate) enum Foo {`.
fn block_owner(line: &str) -> Option<String> {
    if let Some(rest) = line.strip_prefix("impl") {
        // Skip the impl's own generics, then a `Trait for` prefix.
        let mut rest = rest.trim_start();
        if rest.starts_with('<') {
            let mut depth = 0;
            for (i, c) in rest.char_indices() {
                match c {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    _ => {}
                }
                if depth == 0 {
                    rest = rest[i + 1..].trim_start();
                    break;
                }
            }
        }
        let ty = rest.split(" for ").last().unwrap_or(rest).trim_start();
        let ty = ty.rsplit("::").next().unwrap_or(ty);
        return Some(ident(ty).to_owned());
    }
    let rest = line
        .strip_prefix("pub(crate) ")
        .or_else(|| line.strip_prefix("pub "))
        .unwrap_or(line);
    for kw in ["struct ", "enum ", "trait "] {
        if let Some(name) = rest.strip_prefix(kw) {
            return Some(ident(name).to_owned());
        }
    }
    None
}

/// Every non-test `pub` item of one file, as `kind path` lines.
fn scan(module: &str, text: &str, out: &mut BTreeSet<String>) {
    let mut owner: Option<String> = None;
    let mut prev = "";
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        if prev.trim() == "#[cfg(test)]" && line.starts_with("mod tests") {
            break;
        }
        let test_only = prev.trim() == "#[cfg(test)]";
        prev = line;
        if !line.is_empty() && !line.starts_with(' ') {
            owner = block_owner(line);
        }
        let Some(decl) = line.trim_start().strip_prefix("pub ") else {
            continue;
        };
        if test_only {
            continue;
        }
        let owner = owner.as_deref().filter(|_| line.starts_with("    "));
        // `const fn`, `unsafe fn` and `async fn` declare fns.
        let words = match decl.split_once("fn ") {
            Some((quals, _))
                if quals
                    .split_whitespace()
                    .all(|q| ["const", "unsafe", "async"].contains(&q)) =>
            {
                &decl[quals.len()..]
            }
            _ => decl,
        };
        let kind = KINDS
            .iter()
            .find(|k| words.strip_prefix(**k).is_some_and(|r| r.starts_with(' ')));
        match kind {
            Some(&"use") => {
                // A `use` may span lines: read to its `;`.
                let mut path = words["use ".len()..].to_owned();
                while !path.trim_end().ends_with(';') {
                    let Some(next) = lines.next() else { break };
                    path.push_str(next.trim());
                }
                let path = path.trim_end().trim_end_matches(';').replace(' ', "");
                out.insert(format!("use {} {path}", join(module, None, "")));
            }
            Some(kind) => {
                let name = ident(words[kind.len()..].trim_start());
                out.insert(format!("{kind} {}", join(module, owner, name)));
            }
            // `pub name: Type` — a field of the enclosing struct.
            None => {
                let name = ident(words);
                out.insert(format!("field {}", join(module, owner, name)));
            }
        }
    }
}

fn surface() -> BTreeSet<String> {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    rust_files(&src, &mut files);
    let mut out = BTreeSet::new();
    for f in files {
        let text = std::fs::read_to_string(&f).expect("read source");
        scan(&module_path(&src, &f), &text, &mut out);
    }
    out
}

#[test]
fn the_public_surface_is_the_pinned_list() {
    let pinned_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("public_items.txt");
    let pinned_text = std::fs::read_to_string(&pinned_path).expect("read public_items.txt");
    let pinned: BTreeSet<String> = pinned_text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_owned)
        .collect();
    let found = surface();
    let added: Vec<_> = found.difference(&pinned).collect();
    let removed: Vec<_> = pinned.difference(&found).collect();
    if !added.is_empty() || !removed.is_empty() {
        let mut msg = String::from("the public surface differs from public_items.txt:\n");
        for l in &added {
            msg.push_str(&format!("+ {l}\n"));
        }
        for l in &removed {
            msg.push_str(&format!("- {l}\n"));
        }
        panic!("{msg}");
    }
}

#[test]
fn the_scanner_names_items_by_module_and_owner() {
    let text = "\
pub mod inner;
pub(crate) mod hidden;
pub use a::{B, C};
pub const LIMIT: u64 = 1;
pub struct Config {
    pub depth: u32,
    pub(crate) secret: u32,
}
impl<T: Into<u32>> Config {
    pub const fn new() -> Self {}
    pub(crate) fn private() {}
}
impl std::fmt::Display for Config {
    fn fmt(&self) {}
}

impl Config {
    pub fn depth(&self) -> u32 {}

    pub fn set_depth(&mut self) {}
}
#[cfg(test)]
pub fn helper() {}
pub unsafe fn raw() {}
#[cfg(test)]
mod tests {
    pub fn hidden_in_tests() {}
}
";
    let mut out = BTreeSet::new();
    scan("m", text, &mut out);
    let want = [
        "const m::LIMIT",
        "field m::Config::depth",
        "fn m::Config::depth",
        "fn m::Config::new",
        "fn m::Config::set_depth",
        "fn m::raw",
        "mod m::inner",
        "struct m::Config",
        "use m a::{B,C}",
    ];
    assert_eq!(out.iter().map(String::as_str).collect::<Vec<_>>(), want);
}
