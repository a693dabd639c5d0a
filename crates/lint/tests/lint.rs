//! End-to-end tests of the `skydiver-lint` binary over the fixture
//! corpus: each rule has a violating fixture proven caught (exact rule
//! id, file and line) and a compliant shape proven clean, plus a
//! clean-tree smoke test and a run over the real workspace.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_skydiver-lint")
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn run_at(root: &Path, extra: &[&str]) -> Output {
    Command::new(bin())
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("spawn skydiver-lint")
}

/// Runs the fixture and returns `(exit_code, stdout)`.
fn run_fixture(name: &str) -> (i32, String) {
    let out = run_at(&fixture(name), &[]);
    (out.status.code().expect("exit code"), String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The `file:line: [rule]` headers of every reported diagnostic.
fn headers(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| l.contains(": [") && !l.starts_with("skydiver-lint:"))
        .collect()
}

#[test]
fn r1_panicking_calls_caught_allows_and_tests_clean() {
    let (code, out) = run_fixture("r1");
    assert_eq!(code, 1, "violations must fail the run:\n{out}");
    let h = headers(&out);
    assert_eq!(h.len(), 3, "{out}");
    assert!(h[0].starts_with("src/bad.rs:2: [R1]"), "{out}");
    assert!(h[1].starts_with("src/bad.rs:3: [R1]"), "{out}");
    assert!(h[2].starts_with("src/bad.rs:5: [R1]"), "{out}");
    assert!(!out.contains("src/ok.rs"), "allowed + test code must stay clean:\n{out}");
}

#[test]
fn r2_unpolled_loop_caught_polled_and_justified_clean() {
    let (code, out) = run_fixture("r2");
    assert_eq!(code, 1, "{out}");
    let h = headers(&out);
    assert_eq!(h.len(), 1, "only the unpolled loop is flagged:\n{out}");
    assert!(h[0].starts_with("src/loops.rs:3: [R2]"), "{out}");
}

#[test]
fn r3_clock_and_hash_iteration_caught_membership_clean() {
    let (code, out) = run_fixture("r3");
    assert_eq!(code, 1, "{out}");
    let h = headers(&out);
    assert_eq!(h.len(), 2, "{out}");
    assert!(h[0].starts_with("src/fp.rs:2: [R3]"), "{out}");
    assert!(h[0].contains("Instant"), "{out}");
    assert!(h[1].starts_with("src/fp.rs:9: [R3]"), "{out}");
    assert!(h[1].contains("keys"), "{out}");
}

#[test]
fn r4_guard_across_io_caught_dropped_guard_clean() {
    let (code, out) = run_fixture("r4");
    assert_eq!(code, 1, "{out}");
    let h = headers(&out);
    assert_eq!(h.len(), 1, "dropping the guard before I/O must pass:\n{out}");
    assert!(h[0].starts_with("src/handler.rs:3: [R4]"), "{out}");
    assert!(h[0].contains("write_all"), "{out}");
}

#[test]
fn r5_bare_unsafe_caught_justified_clean() {
    let (code, out) = run_fixture("r5");
    assert_eq!(code, 1, "{out}");
    let h = headers(&out);
    assert_eq!(h.len(), 1, "{out}");
    assert!(h[0].starts_with("src/raw.rs:2: [R5]"), "{out}");
    assert!(h[0].contains("SAFETY"), "{out}");
}

#[test]
fn r6_stray_counter_caught_in_both_artifacts() {
    let (code, out) = run_fixture("r6");
    assert_eq!(code, 1, "{out}");
    let h = headers(&out);
    assert_eq!(h.len(), 2, "stray counter drifts from payload and table:\n{out}");
    assert!(h.iter().all(|l| l.starts_with("src/metrics.rs:4: [R6]")), "{out}");
    assert!(out.contains("not serialized"), "{out}");
    assert!(out.contains("wire-spec"), "{out}");
}

#[test]
fn r7_lock_cycle_caught_allowed_edge_breaks_its_cycle() {
    let (code, out) = run_fixture("r7");
    assert_eq!(code, 1, "{out}");
    let h = headers(&out);
    assert_eq!(h.len(), 2, "both edges of the cycle carry a finding:\n{out}");
    assert!(h[0].starts_with("src/cycle.rs:12: [R7]"), "{out}");
    assert!(h[1].starts_with("src/cycle.rs:18: [R7]"), "{out}");
    assert!(out.contains("Registry::members") && out.contains("Registry::epochs"), "{out}");
    assert!(
        !out.contains("src/allowed.rs"),
        "the allowed edge must break the Journal cycle for both functions:\n{out}"
    );
}

#[test]
fn r8_reachable_sleep_caught_with_path_allowed_rename_clean() {
    let (code, out) = run_fixture("r8");
    assert_eq!(code, 1, "{out}");
    let h = headers(&out);
    assert_eq!(h.len(), 1, "only the sleep two calls deep is flagged:\n{out}");
    assert!(h[0].starts_with("src/server.rs:16: [R8]"), "{out}");
    assert!(out.contains("wake -> dispatch -> backoff"), "the witness path names the chain:\n{out}");
    assert!(!out.contains("rename"), "the reasoned allow covers the snapshot rename:\n{out}");
    assert!(
        !out.contains("blocking `recv`"),
        "the worker thread is not reachable from wake:\n{out}"
    );
}

#[test]
fn r9_readme_drift_and_ghost_sender_caught_allowed_verb_clean() {
    let (code, out) = run_fixture("r9");
    assert_eq!(code, 1, "{out}");
    let h = headers(&out);
    assert_eq!(h.len(), 2, "{out}");
    assert!(h[0].starts_with("src/client.rs:10: [R9]"), "{out}");
    assert!(out.contains("`KICK` is sent here but no configured parser"), "{out}");
    assert!(h[1].starts_with("src/proto.rs:6: [R9]"), "{out}");
    assert!(out.contains("`PING` is parsed here but missing from `README.md`"), "{out}");
    assert!(!out.contains("ECHO"), "the allowed internal verb stays quiet:\n{out}");
}

#[test]
fn r10_uncalled_pub_fns_caught_callers_and_exempt_shapes_clean() {
    let (code, out) = run_fixture("r10");
    assert_eq!(code, 1, "{out}");
    let h = headers(&out);
    assert_eq!(h.len(), 5, "{out}");
    // A `pub use` re-export is no caller.
    assert!(h[0].starts_with("crates/a/src/lexer.rs:7: [R10] pub fn `reexported` has no caller"));
    // Neither is the definition's own recursion, nor a doc comment.
    assert!(h[1].starts_with("crates/a/src/lib.rs:10: [R10] pub fn `orphan` has no caller"));
    assert!(h[2].starts_with("crates/a/src/lib.rs:19: [R10] pub fn `documented` has no caller"));
    // A test module or suite caller is reported apart from none.
    assert!(h[3].starts_with("crates/a/src/lib.rs:37: [R10] pub fn `unit_only` is called only"));
    assert!(h[4].starts_with("crates/a/src/lib.rs:42: [R10] pub fn `suite_only` is called only"));
    // Clean: a method another crate calls, a private `use` then a
    // call, a renaming re-export, a trait impl, a binary target's
    // `main`, and an allowed oracle.
    for clean in ["reading", "`lex`", "renamed", "fmt", "main", "cli_only", "oracle"] {
        assert!(h.iter().all(|l| !l.contains(clean)), "{clean} must stay clean:\n{out}");
    }
    let strict = run_at(&fixture("r10"), &["--strict-allows"]);
    let stdout = String::from_utf8_lossy(&strict.stdout);
    let h = headers(&stdout);
    assert_eq!(h.len(), 6, "{stdout}");
    assert!(h.iter().any(|l| l.starts_with("crates/a/src/scan.rs:3: [A1]")), "{stdout}");
}

#[test]
fn strict_allows_reports_only_the_stale_suppression() {
    let (code, out) = run_fixture("stale");
    assert_eq!(code, 0, "without --strict-allows the tree is clean:\n{out}");
    let out = run_at(&fixture("stale"), &["--strict-allows"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    let h = headers(&stdout);
    assert_eq!(h.len(), 1, "{stdout}");
    assert!(h[0].starts_with("src/lib.rs:7: [A1]"), "{stdout}");
    assert!(stdout.contains("stale suppression"), "{stdout}");
}

#[test]
fn github_mode_emits_error_annotations() {
    let out = run_at(&fixture("r1"), &["--github"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("::error file=src/bad.rs,line=2,title=R1::"),
        "annotation lines must carry file, line and rule:\n{stdout}"
    );
    assert!(stdout.contains(": [R1]"), "the human rendering still follows:\n{stdout}");
}

#[test]
fn json_report_carries_rule_file_line() {
    let out = run_at(&fixture("r1"), &["--json"]);
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"file\":\"src/bad.rs\""), "{json}");
    assert!(json.contains("\"line\":2"), "{json}");
    assert!(json.contains("\"rule\":\"R1\""), "{json}");
    assert!(json.contains("\"files_checked\":2"), "{json}");
}

#[test]
fn unknown_rule_flag_is_a_usage_error() {
    let out = run_at(&fixture("r1"), &["--rules", "R12"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn clean_tree_smoke_exits_zero() {
    let dir = std::env::temp_dir()
        .join(format!("skydiver-lint-clean-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("src")).expect("mkdir");
    std::fs::write(
        dir.join("lint.toml"),
        "rules = [\"R1\", \"R2\", \"R3\", \"R4\", \"R5\", \"R6\"]\n\
         [rules.R1]\ninclude = [\"src/**\"]\n\
         [rules.R2]\ninclude = [\"src/**\"]\n\
         [rules.R3]\ninclude = [\"src/**\"]\n\
         [rules.R4]\ninclude = [\"src/**\"]\n\
         [rules.R5]\ninclude = [\"src/**\"]\n\
         [rules.R6]\nmetrics = \"src/metrics.rs\"\nstats_table = \"SPEC.md\"\n",
    )
    .expect("write lint.toml");
    std::fs::write(
        dir.join("src/metrics.rs"),
        "pub struct Metrics {\n    pub ticks: AtomicU64,\n}\n\
         impl Metrics {\n    pub fn snapshot_json(&self) -> String {\n        \
         format!(\"{{\\\"ticks\\\":{}}}\", self.ticks.load(Ordering::Relaxed))\n    }\n}\n",
    )
    .expect("write metrics");
    std::fs::write(
        dir.join("src/lib.rs"),
        "pub fn sum(ctx: &Ctx, items: &[u64]) -> Result<u64, Error> {\n    \
         let mut acc = 0;\n    for it in items {\n        ctx.check_cancelled()?;\n        \
         acc += *it;\n    }\n    Ok(acc)\n}\n",
    )
    .expect("write lib");
    std::fs::write(dir.join("SPEC.md"), "| `ticks` | heartbeat ticks |\n").expect("write spec");
    let out = run_at(&dir, &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "clean tree must pass:\n{stdout}");
    assert!(stdout.contains("0 diagnostic(s)"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = run_at(&root, &["--strict-allows"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "the committed workspace must lint clean (including stale allows):\n{stdout}"
    );
}
