//! The `skydiver-lint` binary: lints a tree and exits non-zero on any
//! finding, so CI can gate on it.
//!
//! ```text
//! skydiver-lint [--root DIR] [--config FILE] [--rules R1,R2] [--json] \
//!               [--strict-allows] [--github] [--list-rules]
//! ```
//!
//! `--strict-allows` (on in CI) additionally reports reasoned allow
//! comments that suppressed nothing. `--github` emits one
//! `::error file=…` workflow annotation per finding alongside the
//! normal rendering, so findings surface inline on the PR diff.
//!
//! Exit codes: `0` clean, `1` diagnostics reported, `2` usage or
//! configuration error.

#![warn(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

use skydiver_lint::config::Config;
use skydiver_lint::rules::all_rules;

const USAGE: &str = "usage: skydiver-lint [--root DIR] [--config FILE] [--rules R1,R2,...] \
                     [--json] [--strict-allows] [--github] [--list-rules]\n\
                     \n\
                     Checks the SkyDiver workspace invariants (determinism, cancellation,\n\
                     lock discipline, panic-freedom, SAFETY comments, STATS wire spec,\n\
                     lock order, event-loop blocking, wire-verb conformance, public\n\
                     functions with no caller).\n\
                     Scope lives in lint.toml at the root; exit 1 on any diagnostic.\n\
                     --strict-allows also reports reasoned allows that suppress nothing;\n\
                     --github emits ::error workflow annotations for CI.";

struct Args {
    root: PathBuf,
    config: Option<PathBuf>,
    rules: Option<Vec<String>>,
    json: bool,
    strict_allows: bool,
    github: bool,
    list_rules: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        config: None,
        rules: None,
        json: false,
        strict_allows: false,
        github: false,
        list_rules: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--config" => {
                args.config = Some(PathBuf::from(it.next().ok_or("--config needs a file")?));
            }
            "--rules" => {
                let list = it.next().ok_or("--rules needs a comma-separated list")?;
                args.rules = Some(list.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--json" => args.json = true,
            "--strict-allows" => args.strict_allows = true,
            "--github" => args.github = true,
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("skydiver-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        for r in all_rules() {
            println!("{}  {}", r.id(), r.summary());
            println!("    fix: {}", r.fix_hint());
        }
        return ExitCode::SUCCESS;
    }
    let config_path = args.config.clone().unwrap_or_else(|| args.root.join("lint.toml"));
    let mut cfg = match Config::load(&config_path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("skydiver-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(rules) = args.rules {
        for r in &rules {
            if !skydiver_lint::config::ALL_RULES.contains(&r.as_str()) {
                eprintln!("skydiver-lint: unknown rule id `{r}`");
                return ExitCode::from(2);
            }
        }
        cfg.rules = rules;
    }
    if args.strict_allows {
        cfg.strict_allows = true;
    }
    let report = match skydiver_lint::run(&args.root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("skydiver-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if args.github {
        for d in &report.diagnostics {
            println!(
                "::error file={},line={},title={}::{}",
                annotation_escape(&d.file),
                d.line,
                annotation_escape(&d.rule),
                annotation_escape(&d.message)
            );
        }
    }
    if args.json {
        println!("{}", report.to_json());
    } else {
        for d in &report.diagnostics {
            println!("{}", d.render());
        }
        println!(
            "skydiver-lint: {} file(s), rules [{}], {} diagnostic(s)",
            report.files_checked,
            report.rules_run.join(", "),
            report.diagnostics.len()
        );
    }
    if report.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Escapes a value for a GitHub `::error` workflow command: `%`, CR
/// and LF are the command syntax's only metacharacters.
fn annotation_escape(s: &str) -> String {
    s.replace('%', "%25").replace('\r', "%0D").replace('\n', "%0A")
}
