//! End-to-end tests of the `skydiver` CLI binary.

use std::process::Command;

use skydiver::core::minhash::persist;
use skydiver::data::dominance::MinDominance;
use skydiver::skyline::sfs;
use skydiver::Preference;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_skydiver"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("skydiver-cli-{}-{name}", std::process::id()));
    p
}

#[test]
fn generate_info_skyline_diversify_round_trip() {
    let csv = tmp("roundtrip.csv");
    let out = bin()
        .args(["generate", "--family", "ant", "--n", "5000", "--d", "3"])
        .args(["--seed", "1", "--out", csv.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = bin()
        .args(["info", "--input", csv.to_str().unwrap()])
        .output()
        .expect("run info");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("points: 5000"), "{text}");
    assert!(text.contains("dims:   3"), "{text}");

    // `skyline` lists the SFS skyline of the canonicalised file.
    let out = bin()
        .args(["skyline", "--input", csv.to_str().unwrap(), "--prefs", "min,max,min"])
        .output()
        .expect("run skyline");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let ds = skydiver::data::io::read_csv(&csv).unwrap();
    let prefs = [Preference::Min, Preference::Max, Preference::Min];
    let canon = skydiver::core::canonicalise(&ds, &prefs).unwrap();
    let expect = sfs(canon.as_ref(), &MinDominance);
    let header = text.lines().next().unwrap();
    assert_eq!(header, format!("# skyline: {} of 5000 points (sfs)", expect.len()));
    let ids: Vec<usize> = picked_ids(&text).iter().map(|id| id.parse().unwrap()).collect();
    assert_eq!(ids, expect);

    // The subcommand runs SFS alone; `--algo` is not one of its flags.
    let out = bin()
        .args(["skyline", "--input", csv.to_str().unwrap(), "--algo", "bnl"])
        .output()
        .expect("run skyline --algo");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --algo"), "{stderr}");

    let out = bin()
        .args(["diversify", "--input", csv.to_str().unwrap(), "--k", "3"])
        .output()
        .expect("run diversify");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 4, "header + 3 rows: {text}");
    assert!(text.contains("gamma="));

    std::fs::remove_file(csv).ok();
}

#[test]
fn binary_snapshot_format_accepted() {
    let sky = tmp("snapshot.sky");
    let out = bin()
        .args(["generate", "--family", "ind", "--n", "2000", "--d", "2"])
        .args(["--out", sky.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(out.status.success());
    let out = bin()
        .args(["diversify", "--input", sky.to_str().unwrap(), "--k", "2"])
        .args(["--method", "lsh", "--xi", "0.2", "--buckets", "10"])
        .output()
        .expect("run diversify lsh");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_file(sky).ok();
}

#[test]
fn max_preferences_flip_the_skyline() {
    let csv = tmp("prefs.csv");
    std::fs::write(&csv, "0.1,0.1\n0.9,0.9\n").unwrap();
    let min_out = bin()
        .args(["skyline", "--input", csv.to_str().unwrap()])
        .output()
        .unwrap();
    let max_out = bin()
        .args(["skyline", "--input", csv.to_str().unwrap(), "--prefs", "max,max"])
        .output()
        .unwrap();
    let min_text = String::from_utf8_lossy(&min_out.stdout);
    let max_text = String::from_utf8_lossy(&max_out.stdout);
    assert!(min_text.contains("\n0,"), "min skyline is point 0: {min_text}");
    assert!(max_text.contains("\n1,"), "max skyline is point 1: {max_text}");

    std::fs::remove_file(csv).ok();
}

/// Runs the CLI on a whitespace-separated argument line, asserts it
/// succeeded and returns its stdout.
fn ok(line: &str) -> String {
    let out = bin().args(line.split_whitespace()).output().expect("run skydiver");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{line}: {stderr}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The point ids of a `diversify` or `select` listing: the first field
/// of every row after the header.
fn picked_ids(stdout: &str) -> Vec<&str> {
    stdout.lines().skip(1).map(|row| row.split(',').next().unwrap_or_default()).collect()
}

#[test]
fn fingerprint_then_select_round_trip() {
    let (csv, sig) = (tmp("fpsel.csv"), tmp("fpsel.skysig"));
    let (csv, sig) = (csv.display(), sig.display());
    ok(&format!("generate --family ant --n 3000 --d 3 --seed 4 --out {csv}"));
    for seed in [0, 5] {
        let out = ok(&format!("fingerprint --input {csv} --t 64 --seed {seed} --out {sig}"));
        assert!(out.contains("fingerprinted"));
        // Two selections from one bundle — different k and method —
        // each picking the points `diversify` picks under the same seed
        // (the bundle carries it, which LSH banding needs).
        for (k, method) in [(3, ""), (5, "--method lsh")] {
            let staged = ok(&format!("select --signatures {sig} --k {k} {method}"));
            let direct = format!("diversify --input {csv} --k {k} --t 64 --seed {seed} {method}");
            let direct = ok(&direct);
            assert_eq!(picked_ids(&staged).len(), k, "{staged}");
            let what = format!("seed {seed}, k {k} {method}");
            assert_eq!(picked_ids(&staged), picked_ids(&direct), "{what}");
        }
    }

    // A server store artefact — one shard's fold, tagged with content,
    // shard and preference hashes — is refused, not served as a whole
    // fingerprint.
    let path = sig.to_string();
    let shard = tmp("fpsel-shard.sig2").display().to_string();
    let (bundle, tags) = persist::read_shard_signatures(&path).unwrap();
    persist::write_shard_signatures(&shard, &bundle, &[0xfeed, 1, 0xbeef, tags[3]]).unwrap();
    let out = bin().args(["select", "--k", "3", "--signatures", &shard]).output().unwrap();
    assert!(!out.status.success(), "a shard fold must not be served");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not a `skydiver fingerprint` bundle"), "{stderr}");
    std::fs::remove_file(&shard).ok();

    // One flipped byte fails the bundle's checksum instead of being served.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    let out = bin().args(["select", "--k", "3", "--signatures", &path]).output().unwrap();
    assert!(!out.status.success(), "a flipped byte must not be served");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("checksum mismatch"), "{stderr}");

    std::fs::remove_file(csv.to_string()).ok();
    std::fs::remove_file(path).ok();
}

#[test]
fn run_subcommand_is_parallel_deterministic() {
    let csv = tmp("run.csv");
    let out = bin()
        .args(["generate", "--family", "ant", "--n", "4000", "--d", "3"])
        .args(["--seed", "7", "--out", csv.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(out.status.success());

    let run_with = |threads: &str| {
        let out = bin()
            .args(["run", "--input", csv.to_str().unwrap(), "--k", "4"])
            .args(["--t", "64", "--threads", threads])
            .output()
            .expect("run run");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        assert_eq!(text.lines().count(), 5, "header + 4 rows: {text}");
        // Strip the header (it reports thread count and timings).
        text.lines().skip(1).map(String::from).collect::<Vec<_>>()
    };
    assert_eq!(run_with("1"), run_with("4"), "parallel run must be bit-identical");

    // A tiny dominance-test budget degrades gracefully, not fatally.
    let out = bin()
        .args(["run", "--input", csv.to_str().unwrap(), "--k", "4"])
        .args(["--max-dominance-tests", "50"])
        .output()
        .expect("run run budgeted");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("degraded run"));

    std::fs::remove_file(csv).ok();
}

/// `run` (with or without `--shards`, at any `--threads`) and
/// `diversify` fold every row by its global id through one engine, so
/// under the same `--k/--t/--seed` they pick the same points in the same
/// order.
#[test]
fn run_and_diversify_pick_the_same_points() {
    let csv = tmp("samepick.csv");
    let csv = csv.display();
    ok(&format!("generate --family ant --n 5000 --d 3 --seed 7 --out {csv}"));
    let args = format!("--input {csv} --k 5 --t 64 --seed 3");
    let reference = ok(&format!("diversify {args}"));
    let reference = picked_ids(&reference);
    assert_eq!(reference.len(), 5, "{reference:?}");
    for extra in ["", "--shards 1", "--shards 4", "--threads 2"] {
        let out = ok(&format!("run {args} {extra}"));
        assert_eq!(picked_ids(&out), reference, "run {extra}");
    }
    std::fs::remove_file(csv.to_string()).ok();
}

#[test]
fn run_format_json_emits_one_json_line() {
    let csv = tmp("runjson.csv");
    let out = bin()
        .args(["generate", "--family", "ant", "--n", "3000", "--d", "3"])
        .args(["--seed", "9", "--out", csv.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(out.status.success());

    let out = bin()
        .args(["run", "--input", csv.to_str().unwrap(), "--k", "4"])
        .args(["--t", "64", "--format", "json"])
        .output()
        .expect("run run json");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 1, "one JSON line: {text}");
    for field in ["\"skyline\":", "\"selected\":[", "\"gamma\":[", "\"degraded\":false"] {
        assert!(text.contains(field), "missing {field}: {text}");
    }
    // The JSON selection matches the text-format selection.
    let out = bin()
        .args(["run", "--input", csv.to_str().unwrap(), "--k", "4", "--t", "64"])
        .output()
        .expect("run run text");
    let plain = String::from_utf8_lossy(&out.stdout).to_string();
    let ids: Vec<String> =
        plain.lines().skip(1).map(|l| l.split(',').next().unwrap().to_string()).collect();
    assert!(
        text.contains(&format!("\"selected\":[{}]", ids.join(","))),
        "json {text} vs text ids {ids:?}"
    );

    // Bad --format value is rejected.
    let out = bin()
        .args(["run", "--input", csv.to_str().unwrap(), "--k", "4"])
        .args(["--format", "yaml"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--format"));

    std::fs::remove_file(csv).ok();
}

#[test]
fn unknown_and_malformed_flags_are_rejected() {
    let csv = tmp("strict.csv");
    std::fs::write(&csv, "0.1,0.2\n0.3,0.4\n0.2,0.1\n").unwrap();

    // A misspelled flag must be an error naming the flag, not a silently
    // applied default.
    let out = bin()
        .args(["run", "--input", csv.to_str().unwrap(), "--k", "3", "--theads", "4"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--theads"), "{err}");
    assert!(err.contains("--threads"), "should list the valid flags: {err}");

    // A flag valid for another command is still rejected.
    let out = bin()
        .args(["skyline", "--input", csv.to_str().unwrap(), "--k", "3"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--k"));

    // A malformed numeric value errors instead of falling back to the
    // default.
    let out = bin()
        .args(["run", "--input", csv.to_str().unwrap(), "--k", "3", "--t", "lots"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("lots"));

    // A value-taking flag at the end of the line needs its value.
    let out = bin()
        .args(["run", "--input", csv.to_str().unwrap(), "--k"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--k"));

    std::fs::remove_file(csv).ok();
}

#[test]
fn helpful_errors() {
    // Unknown command.
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // Missing required flag.
    let out = bin().args(["diversify", "--k", "3"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--input"));

    // k too small propagates the library error.
    let csv = tmp("err.csv");
    std::fs::write(&csv, "0.1,0.2\n0.3,0.4\n0.2,0.1\n").unwrap();
    let out = bin()
        .args(["diversify", "--input", csv.to_str().unwrap(), "--k", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("k must be >= 2"));
    std::fs::remove_file(csv).ok();
}

/// A reader that goes away early (`| head -1`) ends the output quietly:
/// exit 0 and no panic, for `info` and `diversify` alike. `info`'s
/// reader is closed before the command writes anything; `diversify`'s
/// after the first line, with far more than a pipe buffer still to
/// write, so the command meets the closed pipe either way.
#[test]
fn closed_stdout_ends_output_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let csv = tmp("closed-pipe.csv");
    let out = bin()
        .args(["generate", "--family", "ant", "--n", "20000", "--d", "4"])
        .args(["--seed", "3", "--out", csv.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let input = csv.to_str().unwrap();

    let runs: [(&[&str], usize); 2] = [
        (&["info", "--input", input], 0),
        (&["diversify", "--input", input, "--k", "1400", "--t", "64"], 1),
    ];
    for (args, lines_read) in runs {
        let mut child = bin()
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn");
        let mut reader = BufReader::new(child.stdout.take().expect("stdout"));
        for _ in 0..lines_read {
            let mut line = String::new();
            reader.read_line(&mut line).expect("first line");
            assert!(!line.is_empty(), "{args:?}: no output");
        }
        drop(reader);
        let out = child.wait_with_output().expect("wait");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {:?}\n{stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_file(&csv).ok();
}
