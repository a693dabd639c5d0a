//! R10 — every library `pub fn` has a caller.
//!
//! A public function nothing calls is code every reader still has to
//! read, and a public one escapes rustc's dead-code lint. This rule
//! walks the [`crate::graph::Graph`] symbol table for plain `pub fn`
//! items in the library scope (`include`, minus binary targets:
//! `src/main.rs` and `src/bin/**`) and asks whether each name appears
//! anywhere else as an identifier.
//!
//! Like the call graph, matching is by name and prefers false
//! negatives: any same-named identifier — a call, a path, a field —
//! counts. Three kinds of mention do not: the definition itself (its
//! `fn name` token and its own body), a `use` declaration such as a
//! `pub use` re-export (unless it renames the item with `as`), and
//! comments (doc tests included).
//! Mentions count from the library scope and from the `uses` globs
//! (binaries, examples, the benchmark crate), outside test code. A
//! name mentioned only in test modules or the integration suites
//! ([`TEST_GLOBS`]) is reported as "called only from tests", apart
//! from "no caller".
//! Trait-impl methods (never `pub`) and `main` (a binary target's) are
//! out of scope: their callers are the trait's and the runtime's.

use std::collections::BTreeMap;

use super::{Rule, WorkspaceView};
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::glob::glob_match;
use crate::lexer::TokKind;
use crate::scan::SourceFile;

/// Flags library `pub fn`s that nothing outside tests names.
pub struct R10DeadApi;

/// Integration suites: their mentions count as test callers. Lint
/// fixtures sit deeper than `crates/*/tests/*.rs` and never count.
const TEST_GLOBS: [&str; 2] = ["tests/**", "crates/*/tests/*.rs"];

/// One identifier naming a checked function.
struct Mention {
    /// Index into the workspace files; `None` for a file R10 loaded.
    file: Option<usize>,
    byte: usize,
    test: bool,
}

impl Rule for R10DeadApi {
    fn id(&self) -> &'static str {
        "R10"
    }

    fn summary(&self) -> &'static str {
        "every library `pub fn` is named outside its definition, `pub use` lines and tests"
    }

    fn fix_hint(&self) -> &'static str {
        "delete the function with the tests that only exercise it; an oracle a suite \
         or binary needs may carry `// lint: allow(R10) -- <who needs it and why>`"
    }

    fn check_workspace(&self, ws: &WorkspaceView<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
        let in_globs = |globs: &[String], rel: &str| globs.iter().any(|g| glob_match(g, rel));
        let in_tests = |rel: &str| TEST_GLOBS.iter().any(|g| glob_match(g, rel));
        let include = cfg.includes.get("R10").map_or(&[][..], Vec::as_slice);
        let g = ws.graph;
        let defs: Vec<usize> = (0..g.fns.len())
            .filter(|&i| {
                let it = &g.fns[i];
                let f = &ws.files[it.file];
                it.public
                    && it.body != (0, 0)
                    && in_globs(include, &f.rel)
                    && !is_binary(&f.rel)
                    && !f.in_test(it.body.0)
            })
            .collect();
        let mut mentions: BTreeMap<&str, Vec<Mention>> =
            defs.iter().map(|&i| (g.fns[i].name.as_str(), Vec::new())).collect();

        for (fi, f) in ws.files.iter().enumerate() {
            if in_globs(include, &f.rel) {
                collect(f, Some(fi), false, &mut mentions);
            }
        }
        let mut paths = Vec::new();
        if let Err(e) = crate::walk(ws.root, ws.root, &mut paths) {
            out.push(self.diag("lint.toml", 1, format!("R10 could not list the tree: {e}")));
            return;
        }
        paths.sort();
        for rel in paths.iter().filter(|rel| !in_globs(include, rel)) {
            let test = in_tests(rel);
            if !test && !in_globs(&cfg.r10_uses, rel) {
                continue;
            }
            if let Some(text) = ws.read(rel) {
                collect(&SourceFile::parse(rel.clone(), text), None, test, &mut mentions);
            }
        }

        for &i in &defs {
            let it = &g.fns[i];
            let outside: Vec<&Mention> = mentions[it.name.as_str()]
                .iter()
                .filter(|m| !(m.file == Some(it.file) && it.body.0 <= m.byte && m.byte < it.body.1))
                .collect();
            if outside.iter().any(|m| !m.test) {
                continue;
            }
            let what =
                if outside.is_empty() { "has no caller" } else { "is called only from tests" };
            let name = match &it.impl_ty {
                Some(ty) => format!("{ty}::{}", it.name),
                None => it.name.clone(),
            };
            out.push(self.diag(&ws.files[it.file].rel, it.line, format!("pub fn `{name}` {what}")));
        }
    }
}

/// A binary target's source: its `pub fn`s are no library API.
fn is_binary(rel: &str) -> bool {
    rel.ends_with("/main.rs") || rel.contains("/bin/")
}

/// Records every identifier in `f` that names a checked function,
/// except definition names and `use` declarations.
fn collect(
    f: &SourceFile,
    file: Option<usize>,
    test_file: bool,
    out: &mut BTreeMap<&str, Vec<Mention>>,
) {
    let ident = |c: usize| {
        f.code
            .get(c)
            .map(|&ti| f.toks[ti])
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| f.text_of(&t))
    };
    let mut use_end = 0usize; // byte where the current `use` item ends
    for c in 0..f.code.len() {
        let Some(name) = ident(c) else { continue };
        let tok = f.toks[f.code[c]];
        if name == "use" {
            use_end = (c..f.code.len())
                .map(|d| f.toks[f.code[d]])
                .find(|t| t.kind == TokKind::Punct && f.text_of(t) == ";")
                .map_or(f.text.len(), |t| t.end);
            continue;
        }
        let Some(list) = out.get_mut(name) else {
            continue;
        };
        if c > 0 && ident(c - 1) == Some("fn") {
            continue;
        }
        if tok.start < use_end && ident(c + 1) != Some("as") {
            continue;
        }
        list.push(Mention { file, byte: tok.start, test: test_file || f.in_test(tok.start) });
    }
}
