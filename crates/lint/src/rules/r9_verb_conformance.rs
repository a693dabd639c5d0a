//! R9 — wire-verb conformance across artifacts.
//!
//! R6 keeps the STATS counters in lockstep; this rule does the same
//! for the verb set itself. Four artifact groups describe the wire
//! surface: the parser (`protocol.rs` match arms), the senders
//! (`client.rs` typed helpers, `coordinator.rs` fan-out legs,
//! `host.rs` replication pulls, the CLI),
//! the README verb documentation, and the integration suites. A verb
//! added in one place and forgotten in another is a CI failure.
//!
//! Detection is lexical, like R6: a *parsed* verb is an exact all-caps
//! alphabetic string literal (≥ 4 chars) in non-test code of a
//! configured parse file; a *sent* verb is a literal in a sender file
//! equal to the verb or starting with `"VERB "` (typed helpers and
//! `to_line` format strings both match); README coverage is a
//! word-boundary match; test coverage is a case-insensitive
//! word-boundary match (suites drive verbs through typed client
//! helpers named after them).

use super::{Rule, WorkspaceView};
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::scan::SourceFile;

/// Cross-checks parsed verbs against senders, README and tests.
pub struct R9VerbConformance;

impl Rule for R9VerbConformance {
    fn id(&self) -> &'static str {
        "R9"
    }

    fn summary(&self) -> &'static str {
        "every parsed wire verb has a sender, a README entry and test coverage (and vice versa)"
    }

    fn fix_hint(&self) -> &'static str {
        "add the verb to the missing artifact (sender helper, README verb table, \
         integration test); a deliberately internal verb may carry \
         `// lint: allow(R9) -- <why it stays undocumented>`"
    }

    fn check_workspace(&self, ws: &WorkspaceView<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
        let mut parse_files: Vec<SourceFile> = Vec::new();
        for rel in &cfg.r9_parse {
            match load(ws, rel) {
                Some(f) => parse_files.push(f),
                None => out.push(self.missing(rel)),
            }
        }
        let mut sender_files: Vec<SourceFile> = Vec::new();
        for rel in &cfg.r9_senders {
            match load(ws, rel) {
                Some(f) => sender_files.push(f),
                None => out.push(self.missing(rel)),
            }
        }
        let readme = ws.read(&cfg.r9_readme);
        if readme.is_none() {
            out.push(self.missing(&cfg.r9_readme));
        }
        let tests: Vec<(String, String)> = cfg
            .r9_tests
            .iter()
            .filter_map(|rel| ws.read(rel).map(|t| (rel.clone(), t.to_lowercase())))
            .collect();
        if tests.len() < cfg.r9_tests.len() {
            for rel in &cfg.r9_tests {
                if ws.read(rel).is_none() {
                    out.push(self.missing(rel));
                }
            }
        }

        // Parsed verbs: exact all-caps literals, first site wins.
        let mut parsed: Vec<(String, usize, u32)> = Vec::new(); // (verb, file idx, line)
        for (pi, f) in parse_files.iter().enumerate() {
            for (verb, line, _) in verb_literals(f, true) {
                if !parsed.iter().any(|(v, _, _)| *v == verb) {
                    parsed.push((verb, pi, line));
                }
            }
        }
        // Sent verbs: exact or `"VERB …"`-prefixed literals.
        let mut sent: Vec<(String, usize, u32)> = Vec::new();
        for (si, f) in sender_files.iter().enumerate() {
            for (verb, line, _) in verb_literals(f, false) {
                if !sent.iter().any(|(v, _, _)| *v == verb) {
                    sent.push((verb, si, line));
                }
            }
        }

        for (verb, pi, line) in &parsed {
            let f = &parse_files[*pi];
            if f.allowed_at("R9", *line) {
                // Mark the shared file too, so --strict-allows sees the
                // suppression when the artifact is in the lint scope.
                if let Some(shared) = ws.files.iter().find(|s| s.rel == f.rel) {
                    shared.allowed_at("R9", *line);
                }
                continue;
            }
            if !sent.iter().any(|(v, _, _)| v == verb) {
                out.push(self.diag(
                    &f.rel,
                    *line,
                    format!("verb `{verb}` is parsed here but no configured sender emits it"),
                ));
            }
            if let Some(doc) = &readme {
                if !word_match(doc, verb) {
                    out.push(self.diag(
                        &f.rel,
                        *line,
                        format!(
                            "verb `{verb}` is parsed here but missing from `{}`",
                            cfg.r9_readme
                        ),
                    ));
                }
            }
            if !tests.is_empty() {
                let lower = verb.to_lowercase();
                if !tests.iter().any(|(_, t)| word_match(t, &lower)) {
                    out.push(self.diag(
                        &f.rel,
                        *line,
                        format!(
                            "verb `{verb}` is parsed here but never exercised in [{}]",
                            cfg.r9_tests.join(", ")
                        ),
                    ));
                }
            }
        }
        for (verb, si, line) in &sent {
            if parsed.iter().any(|(v, _, _)| v == verb) {
                continue;
            }
            let f = &sender_files[*si];
            if f.allowed_at("R9", *line) {
                if let Some(shared) = ws.files.iter().find(|s| s.rel == f.rel) {
                    shared.allowed_at("R9", *line);
                }
                continue;
            }
            out.push(self.diag(
                &f.rel,
                *line,
                format!("verb `{verb}` is sent here but no configured parser accepts it"),
            ));
        }
    }
}

impl R9VerbConformance {
    fn missing(&self, rel: &str) -> Diagnostic {
        self.diag(rel, 1, format!("configured artifact `{rel}` not found (check lint.toml [rules.R9])"))
    }
}

/// Loads an artifact: the engine-parsed file when in scope (so allow
/// marking feeds `--strict-allows`), else a fresh parse from disk.
fn load(ws: &WorkspaceView<'_>, rel: &str) -> Option<SourceFile> {
    if let Some(f) = ws.files.iter().find(|f| f.rel == rel) {
        return Some(SourceFile::parse(rel.to_string(), f.text.clone()));
    }
    ws.read(rel).map(|text| SourceFile::parse(rel.to_string(), text))
}

/// Verb-shaped string literals outside test code: `(verb, line, byte)`.
/// `exact` restricts to literals that are *only* the verb (parse
/// arms); otherwise a `"VERB …"` prefix also matches (senders).
fn verb_literals(f: &SourceFile, exact: bool) -> Vec<(String, u32, usize)> {
    let mut out = Vec::new();
    for &ti in &f.code {
        let t = f.toks[ti];
        if t.kind != TokKind::Literal || f.in_test(t.start) {
            continue;
        }
        let text = f.text_of(&t);
        let Some(inner) = text.strip_prefix('"').and_then(|s| s.strip_suffix('"')) else {
            continue;
        };
        let candidate = if exact {
            inner
        } else {
            inner.split(' ').next().unwrap_or("")
        };
        if !exact && candidate.len() < inner.len() && !inner[candidate.len()..].starts_with(' ') {
            continue;
        }
        if candidate.len() >= 4 && candidate.bytes().all(|b| b.is_ascii_uppercase()) {
            out.push((candidate.to_string(), t.line, t.start));
        }
    }
    out
}

/// Whether `word` occurs in `text` with non-word characters (or edges)
/// on both sides.
fn word_match(text: &str, word: &str) -> bool {
    let bytes = text.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = text[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let pre_ok = start == 0 || !is_word(bytes[start - 1]);
        let post_ok = end >= bytes.len() || !is_word(bytes[end]);
        if pre_ok && post_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn stage(tag: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("skydiver-lint-r9-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for (rel, text) in files {
            let p = dir.join(rel);
            if let Some(parent) = p.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            let _ = std::fs::write(p, text);
        }
        dir
    }

    fn check(dir: &std::path::Path) -> Vec<Diagnostic> {
        let graph = Graph::default();
        let ws = WorkspaceView { root: dir, files: &[], graph: &graph };
        let cfg = Config {
            r9_parse: vec!["server.rs".into()],
            r9_senders: vec!["client.rs".into()],
            r9_readme: "README.md".into(),
            r9_tests: vec!["wire.rs".into()],
            ..Config::default()
        };
        let mut out = Vec::new();
        R9VerbConformance.check_workspace(&ws, &cfg, &mut out);
        out
    }

    #[test]
    fn aligned_artifacts_pass() {
        let dir = stage(
            "clean",
            &[
                ("server.rs", "fn p(v: &str) { match v { \"PING\" => {} _ => {} } }\n"),
                ("client.rs", "fn c() { send(\"PING now\"); }\n"),
                ("README.md", "The PING verb checks liveness.\n"),
                ("wire.rs", "fn t() { client.ping(); }\n"),
            ],
        );
        let d = check(&dir);
        assert!(d.is_empty(), "{d:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verb_missing_from_readme_sender_and_tests_is_three_findings() {
        let dir = stage(
            "drift",
            &[
                ("server.rs", "fn p(v: &str) { match v { \"PING\" => {} _ => {} } }\n"),
                ("client.rs", "fn c() {}\n"),
                ("README.md", "No verbs documented.\n"),
                ("wire.rs", "fn t() {}\n"),
            ],
        );
        let d = check(&dir);
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d.iter().any(|x| x.message.contains("no configured sender")));
        assert!(d.iter().any(|x| x.message.contains("missing from `README.md`")));
        assert!(d.iter().any(|x| x.message.contains("never exercised")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sent_but_unparsed_verb_is_flagged_at_the_sender() {
        let dir = stage(
            "ghost",
            &[
                ("server.rs", "fn p(v: &str) { match v { \"PING\" => {} _ => {} } }\n"),
                ("client.rs", "fn c() { send(\"PING\"); send(\"KICK now\"); }\n"),
                ("README.md", "PING only.\n"),
                ("wire.rs", "fn t() { ping(); }\n"),
            ],
        );
        let d = check(&dir);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].file, "client.rs");
        assert!(d[0].message.contains("KICK"), "{}", d[0].message);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn allow_at_the_parse_arm_suppresses() {
        let dir = stage(
            "allowed",
            &[
                (
                    "server.rs",
                    "fn p(v: &str) {\n  match v {\n    // lint: allow(R9) -- internal diagnostic verb, deliberately undocumented\n    \"PING\" => {}\n    _ => {}\n  }\n}\n",
                ),
                ("client.rs", "fn c() {}\n"),
                ("README.md", "Nothing here.\n"),
                ("wire.rs", "fn t() {}\n"),
            ],
        );
        let d = check(&dir);
        assert!(d.is_empty(), "{d:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn substring_hits_are_not_word_matches() {
        assert!(word_match("the LOAD verb", "LOAD"));
        assert!(!word_match("RELOADED", "LOAD"));
        assert!(!word_match("load_points", "load"));
        assert!(word_match("client.load(x)", "load"));
    }
}
