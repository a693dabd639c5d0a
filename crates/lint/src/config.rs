//! `lint.toml` — scope and cross-artifact configuration.
//!
//! The parser reads the TOML subset the committed config uses: `#`
//! comments, `[section]` headers (dotted names allowed), and
//! `key = value` where value is a string or an array of strings
//! (single- or multi-line). Anything else is a hard config error — a
//! linter that silently misreads its own scope is worse than one that
//! refuses to run.

use std::collections::BTreeMap;
use std::path::Path;

/// Parsed configuration for one lint run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Rule ids enabled for this run, in id order.
    pub rules: Vec<String>,
    /// Per-rule include globs (forward-slash, relative to the root).
    pub includes: BTreeMap<String, Vec<String>>,
    /// R6: path of the metrics source file.
    pub r6_metrics: String,
    /// R6: path of the document holding the STATS wire-spec table.
    pub r6_readme: String,
    /// R8: names of the event-loop entry functions reachability starts
    /// from.
    pub r8_entries: Vec<String>,
    /// R9: files whose exact all-caps string literals define the
    /// parsed wire-verb set.
    pub r9_parse: Vec<String>,
    /// R9: files whose verb-leading string literals are the senders.
    pub r9_senders: Vec<String>,
    /// R9: the document holding the wire verb table.
    pub r9_readme: String,
    /// R9: test files each verb must be exercised in (case-insensitive
    /// word match).
    pub r9_tests: Vec<String>,
    /// Report reasoned allow comments that suppressed nothing
    /// (`--strict-allows`, on in CI).
    pub strict_allows: bool,
}

/// Every rule id the engine knows, in reporting order.
pub const ALL_RULES: [&str; 9] = ["R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9"];

impl Default for Config {
    /// The committed workspace scope — used when no `lint.toml` exists.
    fn default() -> Self {
        let mut includes = BTreeMap::new();
        includes.insert(
            "R1".to_string(),
            vec![
                "crates/core/src/**".to_string(),
                "crates/data/src/**".to_string(),
                "crates/serve/src/**".to_string(),
                "crates/skyline/src/**".to_string(),
                "crates/rtree/src/**".to_string(),
                "crates/lint/src/**".to_string(),
            ],
        );
        includes.insert(
            "R2".to_string(),
            vec![
                "crates/core/src/minhash/**".to_string(),
                "crates/core/src/dispersion.rs".to_string(),
            ],
        );
        includes.insert(
            "R3".to_string(),
            vec![
                "crates/core/src/minhash/**".to_string(),
                "crates/core/src/dispersion.rs".to_string(),
                "crates/core/src/lsh.rs".to_string(),
                "crates/core/src/kernels.rs".to_string(),
                "crates/core/src/gamma.rs".to_string(),
                "crates/core/src/diversity.rs".to_string(),
            ],
        );
        includes.insert("R4".to_string(), vec!["crates/serve/src/**".to_string()]);
        includes.insert("R5".to_string(), vec!["crates/*/src/**".to_string()]);
        includes.insert(
            "R7".to_string(),
            vec![
                "crates/serve/src/**".to_string(),
                "crates/cluster/src/**".to_string(),
                "crates/core/src/**".to_string(),
            ],
        );
        includes.insert(
            "R8".to_string(),
            vec!["crates/serve/src/**".to_string(), "crates/cluster/src/**".to_string()],
        );
        Config {
            rules: ALL_RULES.iter().map(|s| s.to_string()).collect(),
            includes,
            r6_metrics: "crates/serve/src/metrics.rs".to_string(),
            r6_readme: "README.md".to_string(),
            r8_entries: vec!["event_loop".to_string()],
            r9_parse: vec!["crates/serve/src/protocol.rs".to_string()],
            r9_senders: vec![
                "crates/serve/src/client.rs".to_string(),
                "crates/serve/src/coordinator.rs".to_string(),
                "crates/serve/src/host.rs".to_string(),
                "crates/serve/src/protocol.rs".to_string(),
                "src/bin/skydiver.rs".to_string(),
            ],
            r9_readme: "README.md".to_string(),
            r9_tests: vec![
                "tests/serve.rs".to_string(),
                "tests/sharding.rs".to_string(),
                "tests/store.rs".to_string(),
            ],
            strict_allows: false,
        }
    }
}

impl Config {
    /// Loads `path` if it exists, otherwise returns the defaults.
    pub fn load(path: &Path) -> Result<Config, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Config::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Config::default()),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    /// Parses the TOML subset described in the module docs.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut explicit_rules = false;
        let lines: Vec<&str> = text.lines().collect();
        let mut i = 0usize;
        while i < lines.len() {
            let ln = i;
            let mut line = strip_comment(lines[i]).trim().to_string();
            // A `[`-value may span lines; join until brackets balance.
            while bracket_balance(&line) > 0 && i + 1 < lines.len() {
                i += 1;
                line.push(' ');
                line.push_str(strip_comment(lines[i]).trim());
            }
            i += 1;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("lint.toml:{}: expected `key = value`", ln + 1))?;
            let key = key.trim();
            let value = parse_value(value.trim())
                .map_err(|e| format!("lint.toml:{}: {e}", ln + 1))?;
            match (section.as_str(), key, value) {
                ("", "rules", Value::List(ids)) => {
                    cfg.rules = ids;
                    explicit_rules = true;
                }
                (s, "include", Value::List(globs)) if s.starts_with("rules.") => {
                    cfg.includes.insert(s["rules.".len()..].to_string(), globs);
                }
                ("rules.R6", "metrics", Value::Str(p)) => cfg.r6_metrics = p,
                ("rules.R6", "stats_table", Value::Str(p)) => cfg.r6_readme = p,
                ("rules.R8", "entries", Value::List(names)) => cfg.r8_entries = names,
                ("rules.R9", "parse", Value::List(paths)) => cfg.r9_parse = paths,
                ("rules.R9", "senders", Value::List(paths)) => cfg.r9_senders = paths,
                ("rules.R9", "readme", Value::Str(p)) => cfg.r9_readme = p,
                ("rules.R9", "tests", Value::List(paths)) => cfg.r9_tests = paths,
                (s, k, _) => {
                    return Err(format!(
                        "lint.toml:{}: unknown key `{k}` in section `[{s}]`",
                        ln + 1
                    ));
                }
            }
        }
        for r in &cfg.rules {
            if !ALL_RULES.contains(&r.as_str()) {
                return Err(format!("lint.toml: unknown rule id `{r}`"));
            }
        }
        // An explicit rule list disables everything it omits, even rules
        // with default scopes.
        if explicit_rules {
            let keep: Vec<String> = cfg.rules.clone();
            cfg.includes.retain(|k, _| keep.iter().any(|r| r == k));
        }
        Ok(cfg)
    }
}

enum Value {
    Str(String),
    List(Vec<String>),
}

fn bracket_balance(s: &str) -> i32 {
    // `[section]` headers balance to 0, so only an unclosed `key = [`
    // opener reports a positive balance and triggers line joining.
    let (mut bal, mut in_str) = (0i32, false);
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => bal += 1,
            ']' if !in_str => bal -= 1,
            _ => {}
        }
    }
    bal
}

fn strip_comment(line: &str) -> &str {
    // `#` only starts a comment outside quotes; the committed config
    // never embeds `#` in strings, so a quote-aware scan suffices.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(v: &str) -> Result<Value, String> {
    if let Some(inner) = v.strip_prefix('[').and_then(|x| x.strip_suffix(']')) {
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part)? {
                Value::Str(s) => items.push(s),
                Value::List(_) => return Err("nested arrays are not supported".to_string()),
            }
        }
        return Ok(Value::List(items));
    }
    if let Some(inner) = v.strip_prefix('"').and_then(|x| x.strip_suffix('"')) {
        return Ok(Value::Str(inner.to_string()));
    }
    Err(format!("unsupported value `{v}` (expected \"string\" or [\"array\"])"))
}

fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_all_rules() {
        let c = Config::default();
        assert_eq!(c.rules.len(), 9);
        assert!(c.includes["R2"].iter().any(|g| g.contains("minhash")));
        assert!(c.includes["R8"].iter().any(|g| g.contains("serve")));
        assert_eq!(c.r8_entries, vec!["event_loop"]);
    }

    #[test]
    fn parse_r8_and_r9_keys() {
        let c = Config::parse(
            "rules = [\"R8\", \"R9\"]\n[rules.R8]\ninclude = [\"src/**\"]\nentries = [\"wake\"]\n\
             [rules.R9]\nparse = [\"src/server.rs\"]\nsenders = [\"src/client.rs\"]\n\
             readme = \"README.md\"\ntests = [\"tests/wire.rs\"]\n",
        )
        .expect("parses");
        assert_eq!(c.r8_entries, vec!["wake"]);
        assert_eq!(c.r9_parse, vec!["src/server.rs"]);
        assert_eq!(c.r9_senders, vec!["src/client.rs"]);
        assert_eq!(c.r9_readme, "README.md");
        assert_eq!(c.r9_tests, vec!["tests/wire.rs"]);
    }

    #[test]
    fn parse_scopes_and_rule_list() {
        let c = Config::parse(
            "# fixture scope\nrules = [\"R1\"]\n\n[rules.R1]\ninclude = [\"src/**\"]\n",
        )
        .expect("parses");
        assert_eq!(c.rules, vec!["R1"]);
        assert_eq!(c.includes["R1"], vec!["src/**"]);
        assert!(!c.includes.contains_key("R2"), "omitted rules lose their scope");
    }

    #[test]
    fn parse_r6_paths() {
        let c = Config::parse(
            "rules = [\"R6\"]\n[rules.R6]\nmetrics = \"m.rs\"\nstats_table = \"SPEC.md\"\n",
        )
        .expect("parses");
        assert_eq!(c.r6_metrics, "m.rs");
        assert_eq!(c.r6_readme, "SPEC.md");
    }

    #[test]
    fn unknown_rule_and_malformed_lines_error() {
        assert!(Config::parse("rules = [\"R12\"]\n").is_err());
        assert!(Config::parse("what is this\n").is_err());
        assert!(Config::parse("[rules.R1]\nfrobnicate = \"x\"\n").is_err());
    }

    #[test]
    fn multi_line_arrays_join_until_brackets_balance() {
        let c = Config::parse(
            "rules = [\n  \"R1\", # finder\n  \"R3\",\n]\n[rules.R3]\ninclude = [\n  \"src/a.rs\",\n  \"src/b.rs\",\n]\n",
        )
        .expect("parses");
        assert_eq!(c.rules, vec!["R1", "R3"]);
        assert_eq!(c.includes["R3"], vec!["src/a.rs", "src/b.rs"]);
    }

    #[test]
    fn unterminated_array_is_an_error() {
        assert!(Config::parse("rules = [\n  \"R1\",\n").is_err());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let c = Config::parse("# top\n\nrules = [\"R5\"] # trailing\n").expect("parses");
        assert_eq!(c.rules, vec!["R5"]);
    }
}
