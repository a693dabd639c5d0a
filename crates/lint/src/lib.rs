//! `skydiver-lint` — the workspace invariant checker.
//!
//! The compiler checks types; this crate checks the *contracts* PRs
//! 1–4 were built on, the ones nothing else enforces mechanically:
//!
//! | rule | invariant guarded |
//! |---|---|
//! | R1 | resilience — no panicking calls in non-test library code |
//! | R2 | cancellation — hot fingerprint/selection loops poll the budget |
//! | R3 | determinism — no wall clocks / hash-order iteration in bit-identical paths |
//! | R4 | lock discipline — no guard held across socket/file I/O in `serve` |
//! | R5 | `unsafe` blocks carry `// SAFETY:` justifications |
//! | R6 | metrics struct ↔ STATS serialization ↔ README wire-spec agree |
//! | R7 | lock acquisition order is acyclic across the workspace |
//! | R8 | nothing reachable from the event loop blocks |
//! | R9 | parsed wire verbs ↔ senders ↔ README ↔ test coverage agree |
//! | R10 | every library `pub fn` has a caller outside tests |
//!
//! R1–R5 are per-file scans; R6–R10 are whole-workspace rules fed by
//! the [`graph::Graph`] (symbol table, approximate call graph, lock
//! sites) built over every in-scope file.
//!
//! The pipeline is `lexer` → `scan` → `graph` → `rules`, configured by
//! [`config::Config`] (`lint.toml`) and reported via
//! [`diag::Report`]. Everything is std-only and deterministic: the
//! per-file phase fans out over a thread scope, but files are indexed
//! in sorted order and findings are sorted before output, so two runs
//! over the same tree produce byte-identical reports — rule R3 applied
//! to ourselves.
//!
//! Suppression grammar (reason mandatory, checked by the engine):
//!
//! ```text
//! // lint: allow(R1) -- the LRU order vec and the map are updated together
//! ```
//!
//! A reasonless `allow` never suppresses and is itself reported as
//! `A0`. Under `--strict-allows` a reasoned allow that suppressed
//! nothing is reported as `A1` — suppressions must earn their keep.

#![warn(missing_docs)]

pub mod config;
pub mod diag;
pub mod glob;
pub mod graph;
pub mod lexer;
pub mod rules;
pub mod scan;

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use config::Config;
use diag::{Diagnostic, Report};
use glob::glob_match;
use graph::Graph;
use rules::{all_rules, Rule, WorkspaceView};
use scan::SourceFile;

/// Runs every enabled rule over the tree rooted at `root`.
///
/// Fails (with a message, not a diagnostic) only on environment
/// errors: unreadable root, broken config. Rule findings — including
/// "configured artifact missing" — are diagnostics in the returned
/// [`Report`].
pub fn run(root: &Path, cfg: &Config) -> Result<Report, String> {
    let rules: Vec<Box<dyn Rule>> =
        all_rules().into_iter().filter(|r| cfg.rules.iter().any(|id| id == r.id())).collect();

    // Union of every enabled rule's scope → the files to parse.
    let mut rel_paths = Vec::new();
    walk(root, root, &mut rel_paths)?;
    rel_paths.sort();
    let scoped: Vec<String> = rel_paths
        .into_iter()
        .filter(|rel| {
            rules.iter().any(|r| {
                cfg.includes
                    .get(r.id())
                    .is_some_and(|globs| globs.iter().any(|g| glob_match(g, rel)))
            })
        })
        .collect();

    // Parse + per-file rules, fanned out over a worker pool. Workers
    // pull indices from a shared counter; results carry the index, so
    // merge order (and therefore output) is independent of scheduling.
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(scoped.len())
        .max(1);
    let next = AtomicUsize::new(0);
    let per_file = std::thread::scope(|s| -> Result<Vec<(usize, SourceFile, Vec<Diagnostic>)>, String> {
        let next = &next;
        let scoped = &scoped;
        let rules = &rules;
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(s.spawn(move || -> Result<Vec<(usize, SourceFile, Vec<Diagnostic>)>, String> {
                let mut batch = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(rel) = scoped.get(i) else { break };
                    let text = std::fs::read_to_string(root.join(rel))
                        .map_err(|e| format!("{rel}: {e}"))?;
                    let f = SourceFile::parse(rel.clone(), text);
                    let mut found = Vec::new();
                    for rule in rules.iter() {
                        let in_scope = cfg
                            .includes
                            .get(rule.id())
                            .is_some_and(|globs| globs.iter().any(|g| glob_match(g, &f.rel)));
                        if in_scope {
                            rule.check_file(&f, &mut found);
                        }
                    }
                    // A reasoned allow comment on the finding's line or
                    // the line above suppresses it (R2 additionally
                    // honours allows inside the loop body, handled in
                    // the rule itself).
                    found.retain(|d| !f.allowed_at(&d.rule, d.line));
                    batch.push((i, f, found));
                }
                Ok(batch)
            }));
        }
        let mut merged = Vec::with_capacity(scoped.len());
        for h in handles {
            match h.join() {
                Ok(Ok(batch)) => merged.extend(batch),
                Ok(Err(e)) => return Err(e),
                Err(_) => return Err("lint worker thread panicked".to_string()),
            }
        }
        Ok(merged)
    })?;

    let mut per_file = per_file;
    per_file.sort_by_key(|(i, _, _)| *i);
    let mut files: Vec<SourceFile> = Vec::with_capacity(per_file.len());
    let mut diags: Vec<Diagnostic> = Vec::new();
    for (_, f, found) in per_file {
        files.push(f);
        diags.extend(found);
    }

    // Whole-workspace rules see every parsed file plus the graph.
    let graph = Graph::build(&files);
    let ws = WorkspaceView { root, files: &files, graph: &graph };
    for rule in &rules {
        let mut found = Vec::new();
        rule.check_workspace(&ws, cfg, &mut found);
        found.retain(|d| {
            !files
                .iter()
                .find(|f| f.rel == d.file)
                .is_some_and(|f| f.allowed_at(&d.rule, d.line))
        });
        diags.append(&mut found);
    }

    // Malformed allow comments: missing reason or unknown rule id.
    for f in &files {
        for a in &f.allows {
            if !a.has_reason {
                diags.push(Diagnostic {
                    file: f.rel.clone(),
                    line: a.line,
                    rule: "A0".to_string(),
                    message: "allow comment without a reason (it suppresses nothing)"
                        .to_string(),
                    hint: "write `// lint: allow(Rn) -- <reason>`".to_string(),
                });
            }
            for r in &a.rules {
                if !config::ALL_RULES.contains(&r.as_str()) {
                    diags.push(Diagnostic {
                        file: f.rel.clone(),
                        line: a.line,
                        rule: "A0".to_string(),
                        message: format!("allow comment names unknown rule `{r}`"),
                        hint: format!("known rules: {}", config::ALL_RULES.join(", ")),
                    });
                }
            }
        }
    }

    // Stale suppressions: a reasoned allow that suppressed nothing is
    // dead weight that hides future regressions. Only judged when every
    // rule it names actually ran over this file — an allow for a
    // disabled rule or an out-of-scope file may be load-bearing in a
    // full run.
    if cfg.strict_allows {
        for f in &files {
            for a in &f.allows {
                if !a.has_reason || a.used.get() || a.rules.is_empty() {
                    continue;
                }
                let judgeable = a.rules.iter().all(|r| {
                    config::ALL_RULES.contains(&r.as_str())
                        && cfg.rules.iter().any(|id| id == r)
                        && cfg
                            .includes
                            .get(r.as_str())
                            .is_none_or(|globs| globs.iter().any(|g| glob_match(g, &f.rel)))
                });
                if judgeable {
                    diags.push(Diagnostic {
                        file: f.rel.clone(),
                        line: a.line,
                        rule: "A1".to_string(),
                        message: format!(
                            "allow({}) suppresses no finding (stale suppression)",
                            a.rules.join(", ")
                        ),
                        hint: "delete the stale allow comment, or fix the rule id it names"
                            .to_string(),
                    });
                }
            }
        }
    }

    diags.sort();
    diags.dedup();
    Ok(Report {
        diagnostics: diags,
        files_checked: files.len(),
        rules_run: rules.iter().map(|r| r.id().to_string()).collect(),
    })
}

/// Collects `.rs` files under `dir` as root-relative forward-slash
/// paths, skipping build output and VCS internals.
pub(crate) fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(tag: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("skydiver-lint-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for (rel, text) in files {
            let p = dir.join(rel);
            if let Some(parent) = p.parent() {
                std::fs::create_dir_all(parent).expect("mkdir");
            }
            std::fs::write(p, text).expect("write");
        }
        dir
    }

    #[test]
    fn scoping_and_suppression_end_to_end() {
        let dir = stage(
            "scope",
            &[
                ("src/a.rs", "fn f() { x.unwrap(); }\n"),
                ("src/b.rs", "// lint: allow(R1) -- invariant: y is Some by construction\nfn g() { y.unwrap(); }\n"),
                ("other/c.rs", "fn h() { z.unwrap(); }\n"),
            ],
        );
        let cfg = Config::parse("rules = [\"R1\"]\n[rules.R1]\ninclude = [\"src/**\"]\n")
            .expect("cfg");
        let report = run(&dir, &cfg).expect("run");
        assert_eq!(report.files_checked, 2, "other/ is out of scope");
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].file, "src/a.rs");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reasonless_allow_is_a0() {
        let dir = stage(
            "a0",
            &[("src/a.rs", "// lint: allow(R1)\nfn f() { x.unwrap(); }\n")],
        );
        let cfg = Config::parse("rules = [\"R1\"]\n[rules.R1]\ninclude = [\"src/**\"]\n")
            .expect("cfg");
        let report = run(&dir, &cfg).expect("run");
        let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule.as_str()).collect();
        assert_eq!(rules, vec!["A0", "R1"], "allow suppresses nothing and is itself flagged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn output_is_sorted_and_deterministic() {
        let dir = stage(
            "sorted",
            &[
                ("src/z.rs", "fn f() { a.unwrap(); }\n"),
                ("src/a.rs", "fn f() { panic!(\"x\"); b.unwrap(); }\n"),
            ],
        );
        let cfg = Config::parse("rules = [\"R1\"]\n[rules.R1]\ninclude = [\"src/**\"]\n")
            .expect("cfg");
        let r1 = run(&dir, &cfg).expect("run");
        let r2 = run(&dir, &cfg).expect("run");
        assert_eq!(r1.to_json(), r2.to_json());
        let files: Vec<&str> = r1.diagnostics.iter().map(|d| d.file.as_str()).collect();
        assert_eq!(files, vec!["src/a.rs", "src/a.rs", "src/z.rs"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_run_matches_across_many_files() {
        // Enough files to keep every worker busy; the report must stay
        // sorted and identical run-to-run.
        let mut spec: Vec<(String, String)> = Vec::new();
        for i in 0..40 {
            spec.push((
                format!("src/m{i:02}.rs"),
                format!("fn f{i}() {{ x{i}.unwrap(); }}\n"),
            ));
        }
        let refs: Vec<(&str, &str)> =
            spec.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
        let dir = stage("par", &refs);
        let cfg = Config::parse("rules = [\"R1\"]\n[rules.R1]\ninclude = [\"src/**\"]\n")
            .expect("cfg");
        let r1 = run(&dir, &cfg).expect("run");
        let r2 = run(&dir, &cfg).expect("run");
        assert_eq!(r1.diagnostics.len(), 40);
        assert_eq!(r1.to_json(), r2.to_json());
        let mut sorted = r1.diagnostics.clone();
        sorted.sort();
        assert_eq!(sorted, r1.diagnostics, "report arrives pre-sorted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn strict_allows_flags_only_stale_judgeable_suppressions() {
        let dir = stage(
            "strict",
            &[
                // Used allow: suppresses a real unwrap — not stale.
                ("src/a.rs", "// lint: allow(R1) -- init fills the slot before any reader\nfn f() { x.unwrap(); }\n"),
                // Stale allow: nothing on the next line violates R1.
                ("src/b.rs", "// lint: allow(R1) -- left over from an old refactor\nfn g() { y.len(); }\n"),
                // Allow for a rule whose scope excludes this file: not judgeable.
                ("src/c.rs", "// lint: allow(R2) -- poll lives in the caller\nfn h() { z.len(); }\n"),
            ],
        );
        let cfg = Config::parse(
            "rules = [\"R1\", \"R2\"]\n[rules.R1]\ninclude = [\"src/**\"]\n[rules.R2]\ninclude = [\"hot/**\"]\n",
        )
        .expect("cfg");
        let mut strict = cfg.clone();
        strict.strict_allows = true;
        let lax = run(&dir, &cfg).expect("run");
        assert!(lax.diagnostics.is_empty(), "without --strict-allows: {:?}", lax.diagnostics);
        let report = run(&dir, &strict).expect("run");
        assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(report.diagnostics[0].rule, "A1");
        assert_eq!(report.diagnostics[0].file, "src/b.rs");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn workspace_rule_findings_honour_allow_comments() {
        // R8 with an entry reaching a sleep; the allow at the sleep site
        // suppresses the workspace-level finding and counts as used.
        let dir = stage(
            "wsallow",
            &[(
                "src/a.rs",
                "fn wake() { pause(); }\n\
                 // lint: allow(R8) -- operator-requested throttle, stall is the point\n\
                 fn pause() { std::thread::sleep(d()); }\n",
            )],
        );
        let cfg = Config::parse(
            "rules = [\"R8\"]\n[rules.R8]\ninclude = [\"src/**\"]\nentries = [\"wake\"]\n",
        )
        .expect("cfg");
        let mut strict = cfg.clone();
        strict.strict_allows = true;
        let report = run(&dir, &strict).expect("run");
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
