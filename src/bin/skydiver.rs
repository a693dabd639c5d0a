//! `skydiver` — command-line interface to the framework.
//!
//! ```text
//! skydiver generate --family ant --n 100000 --d 4 --out data.csv
//! skydiver skyline  --input data.csv [--prefs min,max,...]
//! skydiver diversify --input data.csv --k 5 [--method lsh --xi 0.2 --buckets 20]
//!                    [--prefs min,min,max,min]
//! skydiver run      --input data.csv --k 5 --threads 4 [--timeout-ms 5000]
//!                   [--format json]
//! skydiver fingerprint --input data.csv --t 100 --out data.skysig
//! skydiver select   --signatures data.skysig --k 5
//! skydiver serve    --addr 127.0.0.1:7878 --threads 4 --cache-bytes 67108864
//! skydiver query    --addr 127.0.0.1:7878 --dataset hotels --k 5 [--format json]
//! skydiver query    --addr 127.0.0.1:7878 --load hotels --path data.csv
//! skydiver query    --addr 127.0.0.1:7878 --stats | --shutdown
//! skydiver info     --input data.csv
//! ```
//!
//! `fingerprint` runs the expensive one-pass phase once; `select` then
//! answers any number of `k` / LSH configurations from the saved
//! signature bundle without touching the data again. `serve` keeps that
//! reuse resident: a long-lived worker-pool server whose fingerprint
//! cache answers repeated queries without re-fingerprinting; `query` is
//! its line-protocol client.
//!
//! Flags are strict: an unknown or misspelled `--flag` is an error, not
//! a silently applied default, and a malformed value (`--k five`) is
//! reported rather than swallowed.
//!
//! CSV files are headerless rows of floats (one point per line); the
//! binary `.sky` snapshot format of `skydiver::data::io` is also
//! accepted (detected by extension).

use std::collections::HashMap;
use std::io::{BufWriter, ErrorKind, StdoutLock, Write};
use std::process::ExitCode;

use skydiver::data::dominance::MinDominance;
use skydiver::data::{generators, io, surrogates};
use skydiver::serve::protocol::{json_escape, json_u64_array, BatchSpec, Method, QuerySpec};
use skydiver::serve::{Client, ClusterConfig, Server, ServerConfig};
use skydiver::skyline as sky;
use skydiver::{Dataset, DiverseResult, Preference, SkyDiver};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, flags) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let mut out = Stdout {
        inner: BufWriter::new(std::io::stdout().lock()),
        closed: false,
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&flags, &mut out),
        "skyline" => cmd_skyline(&flags, &mut out),
        "diversify" => cmd_diversify(&flags, &mut out),
        "run" => cmd_run(&flags, &mut out),
        "fingerprint" => cmd_fingerprint(&flags, &mut out),
        "select" => cmd_select(&flags, &mut out),
        "serve" => cmd_serve(&flags),
        "query" => cmd_query(&flags, &mut out),
        "info" => cmd_info(&flags, &mut out),
        _ => unreachable!("parse() validated the command"),
    }
    .and_then(|()| Ok(out.flush()?));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // The reader went away (`| head`): the output ends there.
        Err(_) if out.closed => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every subcommand's stdout, locked and buffered. A write that meets
/// a closed pipe fails like any other, so the command stops there, and
/// marks the output `closed` so that `main` exits 0 instead of
/// reporting it.
struct Stdout {
    inner: BufWriter<StdoutLock<'static>>,
    closed: bool,
}

impl Stdout {
    fn note<T>(&mut self, r: std::io::Result<T>) -> std::io::Result<T> {
        if r.as_ref().is_err_and(|e| e.kind() == ErrorKind::BrokenPipe) {
            self.closed = true;
        }
        r
    }
}

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let r = self.inner.write(buf);
        self.note(r)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let r = self.inner.flush();
        self.note(r)
    }
}

type CmdResult = Result<(), Box<dyn std::error::Error>>;

const USAGE: &str = "usage:
  skydiver generate  --family ind|ant|cor|fc|rec --n N --d D [--seed S] --out FILE
  skydiver skyline   --input FILE [--prefs min,max,...]
  skydiver diversify --input FILE --k K [--t 100] [--method mh|lsh]
                     [--xi 0.2] [--buckets 20] [--prefs min,max,...] [--threads N]
                     [--seed S] [--timeout-ms MS] [--max-memory BYTES]
  skydiver run       --input FILE --k K [--t 100] [--method mh|lsh]
                     [--xi 0.2] [--buckets 20] [--prefs min,max,...] [--threads N]
                     [--seed S] [--timeout-ms MS] [--max-memory BYTES]
                     [--max-dominance-tests N] [--format text|json] [--shards N]
                     (diversify/run --threads N parallelises fingerprinting only,
                      by row ranges; selection is sequential)
  skydiver fingerprint --input FILE --out FILE.skysig [--t 100] [--seed S] [--prefs ...]
  skydiver select    --signatures FILE.skysig --k K [--method mh|lsh]
                     [--xi 0.2] [--buckets 20]
  skydiver serve     [--addr 127.0.0.1:7878] [--threads 4] [--cache-bytes 67108864]
                     [--store-dir DIR] [--read-timeout-ms 30000]
                     [--write-timeout-ms 30000] [--max-line-bytes 65536]
                     [--max-frame-bytes 268435456]
                     [--workers host:port,...] [--replication 1]
                     [--cluster-shards 4] [--fanout-timeout-ms 10000]
  skydiver query     [--addr 127.0.0.1:7878] --dataset NAME --k K
                     [--method mh|lsh|greedy] [--t 100] [--seed S] [--xi 0.2]
                     [--buckets 20] [--prefs min,max,...] [--timeout-ms MS]
                     [--max-dominance-tests N] [--format text|json] [--binary]
  skydiver query     [--addr ...] --dataset NAME --batch K:METHOD[,K:METHOD...]
                     (one fingerprint, many selections; METHOD is mh or
                      lsh:XI:BUCKETS, e.g. --batch 5:mh,10:lsh:0.2:20)
  skydiver query     [--addr ...] --load NAME --path FILE   (install a dataset)
  skydiver query     [--addr ...] --append NAME --path FILE (grow it by one shard)
  skydiver query     [--addr ...] --join ADDR | --leave ADDR  (reshape the cluster)
  skydiver query     [--addr ...] --stats | --shutdown
  skydiver query     [--addr ...] --snapshot | --restore    (flush / re-sweep the store)
  skydiver info      --input FILE";

/// Per-command flag allowlists — an unknown `--flag` is an error, never
/// a silently ignored typo.
const COMMANDS: &[(&str, &[&str])] = &[
    ("generate", &["family", "n", "d", "seed", "out"]),
    ("skyline", &["input", "prefs"]),
    (
        "diversify",
        &[
            "input",
            "k",
            "t",
            "method",
            "xi",
            "buckets",
            "prefs",
            "threads",
            "seed",
            "timeout-ms",
            "max-memory",
        ],
    ),
    (
        "run",
        &[
            "input",
            "k",
            "t",
            "method",
            "xi",
            "buckets",
            "prefs",
            "threads",
            "seed",
            "timeout-ms",
            "max-memory",
            "max-dominance-tests",
            "format",
            "shards",
        ],
    ),
    ("fingerprint", &["input", "out", "t", "seed", "prefs"]),
    ("select", &["signatures", "k", "method", "xi", "buckets"]),
    (
        "serve",
        &[
            "addr",
            "threads",
            "cache-bytes",
            "store-dir",
            "read-timeout-ms",
            "write-timeout-ms",
            "max-line-bytes",
            "max-frame-bytes",
            "workers",
            "replication",
            "cluster-shards",
            "fanout-timeout-ms",
        ],
    ),
    (
        "query",
        &[
            "addr",
            "dataset",
            "k",
            "method",
            "t",
            "seed",
            "xi",
            "buckets",
            "prefs",
            "timeout-ms",
            "max-dominance-tests",
            "format",
            "load",
            "append",
            "path",
            "stats",
            "shutdown",
            "snapshot",
            "restore",
            "join",
            "leave",
            "binary",
            "batch",
        ],
    ),
    ("info", &["input"]),
];

/// Flags that take no value (presence means `true`).
const BOOL_FLAGS: &[&str] = &["stats", "shutdown", "snapshot", "restore", "binary"];

type Flags = HashMap<String, String>;

fn parse(args: &[String]) -> Result<(String, Flags), String> {
    let mut it = args.iter().peekable();
    let cmd = it.next().ok_or("no command given")?.clone();
    let allowed = COMMANDS
        .iter()
        .find(|(name, _)| *name == cmd)
        .map(|(_, flags)| *flags)
        .ok_or_else(|| format!("unknown command {cmd:?}"))?;
    let mut flags = HashMap::new();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got {a:?}"))?
            .to_string();
        if !allowed.contains(&key.as_str()) {
            return Err(format!(
                "unknown flag --{key} for {cmd:?} (expected one of: {})",
                allowed
                    .iter()
                    .map(|f| format!("--{f}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        let val = if BOOL_FLAGS.contains(&key.as_str()) {
            "true".to_string()
        } else {
            match it.peek() {
                Some(next) if !next.starts_with("--") => it.next().unwrap().clone(),
                _ => return Err(format!("flag --{key} needs a value")),
            }
        };
        if flags.insert(key.clone(), val).is_some() {
            return Err(format!("flag --{key} given twice"));
        }
    }
    Ok((cmd, flags))
}

fn err(msg: impl Into<String>) -> Box<dyn std::error::Error> {
    msg.into().into()
}

fn flag<'a>(flags: &'a Flags, key: &str) -> Result<&'a str, Box<dyn std::error::Error>> {
    flags
        .get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| err(format!("missing --{key}")))
}

/// A numeric flag with a default. Unlike a silent `unwrap_or`, a present
/// but malformed value is an error.
fn num<T: std::str::FromStr>(
    flags: &Flags,
    key: &str,
    default: T,
) -> Result<T, Box<dyn std::error::Error>> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| err(format!("bad value {v:?} for --{key}"))),
    }
}

/// An optional numeric flag (no default).
fn opt_num<T: std::str::FromStr>(
    flags: &Flags,
    key: &str,
) -> Result<Option<T>, Box<dyn std::error::Error>> {
    match flags.get(key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| err(format!("bad value {v:?} for --{key}"))),
    }
}

/// `--format text|json` (default text). Returns `true` for JSON.
fn json_format(flags: &Flags) -> Result<bool, Box<dyn std::error::Error>> {
    match flags.get("format").map(|s| s.as_str()) {
        None | Some("text") => Ok(false),
        Some("json") => Ok(true),
        Some(other) => Err(err(format!("bad value {other:?} for --format (text|json)"))),
    }
}

fn load(path: &str) -> Result<Dataset, Box<dyn std::error::Error>> {
    if path.ends_with(".sky") {
        Ok(io::read_binary(path)?)
    } else {
        Ok(io::read_csv(path)?)
    }
}

fn prefs_for(flags: &Flags, dims: usize) -> Result<Vec<Preference>, Box<dyn std::error::Error>> {
    skydiver::serve::parse_prefs(flags.get("prefs").map(|s| s.as_str()), dims)
        .map(|(prefs, _)| prefs)
        .map_err(err)
}

fn cmd_generate(flags: &Flags, out: &mut Stdout) -> CmdResult {
    let family = flag(flags, "family")?;
    let n: usize = num(flags, "n", 100_000)?;
    let d: usize = num(flags, "d", 4)?;
    let seed: u64 = num(flags, "seed", 42)?;
    let path = flag(flags, "out")?;
    let ds = match family {
        "ind" => generators::independent(n, d, seed),
        "ant" => generators::anticorrelated(n, d, seed),
        "cor" => generators::correlated(n, d, seed),
        "fc" => surrogates::forest_cover(n, seed).project(d.min(surrogates::FC_DIMS)),
        "rec" => surrogates::recipes(n, seed).project(d.min(surrogates::REC_DIMS)),
        other => return Err(err(format!("unknown family {other:?}"))),
    };
    if path.ends_with(".sky") {
        io::write_binary(&ds, path)?;
    } else {
        io::write_csv(&ds, path)?;
    }
    writeln!(out, "wrote {} points ({}D) to {path}", ds.len(), ds.dims())?;
    Ok(())
}

fn cmd_skyline(flags: &Flags, out: &mut Stdout) -> CmdResult {
    let ds = load(flag(flags, "input")?)?;
    let prefs = prefs_for(flags, ds.dims())?;
    let canon = skydiver::core::canonicalise(&ds, &prefs)?;
    let skyline = sky::sfs(canon.as_ref(), &MinDominance);
    writeln!(
        out,
        "# skyline: {} of {} points (sfs)",
        skyline.len(),
        ds.len()
    )?;
    for &i in &skyline {
        let row: Vec<String> = ds.point(i).iter().map(|v| v.to_string()).collect();
        writeln!(out, "{i},{}", row.join(","))?;
    }
    Ok(())
}

/// Builds the `SkyDiver` pipeline + budget shared by `diversify`/`run`.
fn pipeline_for(flags: &Flags, k: usize) -> Result<SkyDiver, Box<dyn std::error::Error>> {
    let mut pipeline = SkyDiver::new(k)
        .signature_size(num(flags, "t", 100)?)
        .hash_seed(num(flags, "seed", 0)?)
        .threads(num(flags, "threads", 1)?);
    match flags.get("method").map(|s| s.as_str()) {
        None | Some("mh") => {}
        Some("lsh") => {
            pipeline = pipeline.lsh(num(flags, "xi", 0.2)?, num(flags, "buckets", 20)?);
        }
        Some(other) => return Err(err(format!("unknown method {other:?} (mh|lsh)"))),
    }
    // Optional run budget: a tripped budget yields a partial result with
    // a degradation report, not an error.
    let mut budget = skydiver::RunBudget::none();
    if let Some(ms) = opt_num::<u64>(flags, "timeout-ms")? {
        budget = budget.with_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(bytes) = opt_num::<usize>(flags, "max-memory")? {
        budget = budget.with_max_memory_bytes(bytes);
    }
    if let Some(n) = opt_num::<u64>(flags, "max-dominance-tests")? {
        budget = budget.with_max_dominance_tests(n);
    }
    Ok(pipeline.budget(budget))
}

fn print_result_text(out: &mut Stdout, ds: &Dataset, r: &DiverseResult, label: &str) -> CmdResult {
    writeln!(
        out,
        "# skyline {} points; {} most diverse below ({label}fingerprint {:.1}ms, select {:.1}ms, {} bytes)",
        r.skyline.len(),
        r.selected.len(),
        r.fingerprint_ms,
        r.selection_ms,
        r.memory_bytes
    )?;
    if !r.is_complete() {
        eprintln!("warning: degraded run — {}", r.degradation.summary());
    }
    for (&idx, &pos) in r.selected.iter().zip(&r.selected_positions) {
        let row: Vec<String> = ds.point(idx).iter().map(|v| v.to_string()).collect();
        writeln!(out, "{idx},{},gamma={}", row.join(","), r.scores[pos])?;
    }
    Ok(())
}

fn print_result_json(out: &mut Stdout, r: &DiverseResult) -> CmdResult {
    let selected: Vec<String> = r.selected.iter().map(|i| i.to_string()).collect();
    let gamma: Vec<String> = r
        .selected_positions
        .iter()
        .map(|&p| r.scores[p].to_string())
        .collect();
    writeln!(
        out,
        concat!(
            "{{\"skyline\":{},\"selected\":[{}],\"gamma\":[{}],",
            "\"fingerprint_ms\":{:.3},\"selection_ms\":{:.3},\"memory_bytes\":{},",
            "\"degraded\":{},\"status\":\"{}\"}}"
        ),
        r.skyline.len(),
        selected.join(","),
        gamma.join(","),
        r.fingerprint_ms,
        r.selection_ms,
        r.memory_bytes,
        !r.is_complete(),
        json_escape(&r.degradation.summary()),
    )?;
    Ok(())
}

fn cmd_diversify(flags: &Flags, out: &mut Stdout) -> CmdResult {
    let ds = load(flag(flags, "input")?)?;
    let prefs = prefs_for(flags, ds.dims())?;
    let k: usize = flag(flags, "k")?
        .parse()
        .map_err(|_| err("bad value for --k"))?;
    let r = pipeline_for(flags, k)?.run(&ds, &prefs)?;
    print_result_text(out, &ds, &r, "")
}

/// `skydiver run` — the full pipeline (`SkyDiver::run`), fingerprinting
/// parallel over `--threads`, under an optional run budget. With
/// `--shards N` the data is partitioned into N contiguous shards and
/// fingerprinted as a merge of per-shard folds. Either way the rows are
/// folded by global row id, so the selection is the one `diversify`,
/// `fingerprint` + `select` and a served `QUERY` pick.
fn cmd_run(flags: &Flags, out: &mut Stdout) -> CmdResult {
    let ds = load(flag(flags, "input")?)?;
    let prefs = prefs_for(flags, ds.dims())?;
    let k: usize = flag(flags, "k")?
        .parse()
        .map_err(|_| err("bad value for --k"))?;
    let threads: usize = num(flags, "threads", 1)?;
    let shards: usize = num(flags, "shards", 1)?;
    let pipeline = pipeline_for(flags, k)?;
    // An explicit --shards (even 1) reports the shard count it folded.
    let (r, label) = if flags.contains_key("shards") {
        if shards == 0 {
            return Err(err("bad value for --shards"));
        }
        let sd = skydiver::data::ShardedDataset::partition(&ds, shards);
        let run = pipeline.fingerprint_sharded(&sd, &prefs)?;
        (
            pipeline.select_from(&run.fingerprint)?,
            format!("threads {threads}, shards {}, ", sd.num_shards()),
        )
    } else {
        (pipeline.run(&ds, &prefs)?, format!("threads {threads}, "))
    };
    if json_format(flags)? {
        print_result_json(out, &r)
    } else {
        print_result_text(out, &ds, &r, &label)
    }
}

/// `skydiver fingerprint` — phase 1 once, saved as a one-shard
/// `SKYSIG03` bundle: the columns are the skyline ids, rows consumed is
/// `n`, and the last key tag is the hash seed (`select` needs it for
/// LSH banding).
fn cmd_fingerprint(flags: &Flags, out: &mut Stdout) -> CmdResult {
    use skydiver::core::minhash::persist;
    use skydiver::core::{ShardFingerprint, SignatureAccumulator};
    let ds = load(flag(flags, "input")?)?;
    let prefs = prefs_for(flags, ds.dims())?;
    let out_path = flag(flags, "out")?;
    let seed: u64 = num(flags, "seed", 0)?;
    let fp = pipeline_for(flags, 2)?.fingerprint(&ds, &prefs)?;
    let m = fp.m();
    let t = fp.matrix().t();
    let bundle = ShardFingerprint {
        columns: fp.skyline,
        acc: SignatureAccumulator {
            matrix: fp.output.matrix,
            scores: fp.output.scores,
            rows_consumed: ds.len(),
        },
    };
    persist::write_shard_signatures(out_path, &bundle, &[0, 0, 0, seed])?;
    writeln!(
        out,
        "fingerprinted {m} skyline points of {} (t = {t}) into {out_path}",
        ds.len()
    )?;
    Ok(())
}

/// `skydiver select` — phase 2 from a saved bundle, under the bundle's
/// hash seed, exactly as `diversify` selects after fingerprinting.
fn cmd_select(flags: &Flags, out: &mut Stdout) -> CmdResult {
    use skydiver::core::minhash::persist;
    let path = flag(flags, "signatures")?;
    let (bundle, tags) = persist::read_shard_signatures(path)?;
    // `fingerprint` writes tags [0, 0, 0, seed]; a server store artefact
    // tags one shard's partial fold with its content, shard and
    // preference hashes, and is no whole-dataset fingerprint.
    if tags[..3] != [0, 0, 0] {
        return Err(err(format!(
            "{path} is not a `skydiver fingerprint` bundle (tags {:?}); \
             a server store artefact holds one shard's fold",
            &tags[..3]
        )));
    }
    let k: usize = flag(flags, "k")?
        .parse()
        .map_err(|_| err("bad value for --k"))?;
    let fp = skydiver::Fingerprint {
        skyline: bundle.columns,
        output: bundle.acc.into_output(),
        fingerprint_ms: 0.0,
        events: vec![],
        interrupt: None,
    };
    let r = pipeline_for(flags, k)?
        .hash_seed(tags[3])
        .select_from(&fp)?;
    writeln!(
        out,
        "# {k} most diverse of {} skyline points (point id, gamma):",
        r.skyline.len()
    )?;
    for (&idx, &pos) in r.selected.iter().zip(&r.selected_positions) {
        writeln!(out, "{idx},gamma={}", r.scores[pos])?;
    }
    Ok(())
}

/// `skydiver serve` — bind the query service and run until `SHUTDOWN`.
/// `--store-dir` makes fingerprints durable (warm restarts); the
/// timeout/line-cap flags bound how long a silent or dribbling client
/// can hold a worker. `--workers` makes this server a cluster
/// coordinator over the listed nodes.
fn cmd_serve(flags: &Flags) -> CmdResult {
    let defaults = ServerConfig::default();
    let cluster_defaults = ClusterConfig::default();
    let cluster = match flags.get("workers") {
        Some(list) => {
            let workers: Vec<String> = list
                .split(',')
                .map(|w| w.trim().to_string())
                .filter(|w| !w.is_empty())
                .collect();
            if workers.is_empty() {
                return Err(err("--workers needs at least one host:port"));
            }
            Some(ClusterConfig {
                workers,
                replication: num(flags, "replication", cluster_defaults.replication)?,
                shards: num(flags, "cluster-shards", cluster_defaults.shards)?,
                fanout_timeout_ms: num(
                    flags,
                    "fanout-timeout-ms",
                    cluster_defaults.fanout_timeout_ms,
                )?,
            })
        }
        None => {
            for f in ["replication", "cluster-shards", "fanout-timeout-ms"] {
                if flags.contains_key(f) {
                    return Err(err(format!("--{f} needs --workers (coordinator mode)")));
                }
            }
            None
        }
    };
    let cfg = ServerConfig {
        addr: flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:7878".into()),
        threads: num(flags, "threads", 4)?,
        cache_bytes: num(flags, "cache-bytes", 64 << 20)?,
        store_dir: flags.get("store-dir").cloned(),
        read_timeout_ms: num(flags, "read-timeout-ms", defaults.read_timeout_ms)?,
        write_timeout_ms: num(flags, "write-timeout-ms", defaults.write_timeout_ms)?,
        max_line_bytes: num(flags, "max-line-bytes", defaults.max_line_bytes)?,
        max_frame_bytes: num(flags, "max-frame-bytes", defaults.max_frame_bytes)?,
        cluster,
    };
    let server = Server::bind(&cfg)?;
    eprintln!(
        "skydiver-serve listening on {} ({} workers, {} byte fingerprint cache{}{})",
        server.local_addr()?,
        cfg.threads.max(1),
        cfg.cache_bytes,
        match &cfg.store_dir {
            Some(dir) => format!(", store {dir}"),
            None => ", no store".to_string(),
        },
        match &cfg.cluster {
            Some(c) => format!(
                ", coordinating {} node(s) at replication {}",
                c.workers.len(),
                c.replication.max(1)
            ),
            None => String::new(),
        }
    );
    server.run()?;
    Ok(())
}

/// Parses `--batch`'s `K:METHOD[,K:METHOD...]` list into `(k, method)`
/// selections (METHOD is `mh` or `lsh:XI:BUCKETS`).
fn parse_batch_items(spec: &str) -> Result<Vec<(usize, Method)>, Box<dyn std::error::Error>> {
    let mut items = Vec::new();
    for item in spec.split(',').filter(|s| !s.trim().is_empty()) {
        let parts: Vec<&str> = item.trim().split(':').collect();
        let bad = || err(format!("bad batch item {item:?} (want K:mh or K:lsh:XI:BUCKETS)"));
        let k: usize = parts
            .first()
            .and_then(|v| v.parse().ok())
            .ok_or_else(bad)?;
        let method = match parts.get(1..) {
            Some(["mh"]) => Method::MinHash,
            Some(["lsh", xi, buckets]) => Method::Lsh {
                xi: xi.parse().map_err(|_| bad())?,
                buckets: buckets.parse().map_err(|_| bad())?,
            },
            _ => return Err(bad()),
        };
        items.push((k, method));
    }
    if items.is_empty() {
        return Err(err("--batch needs at least one K:METHOD item"));
    }
    Ok(items)
}

/// `skydiver query` — line-protocol client: LOAD / QUERY / BATCH /
/// STATS / SHUTDOWN against a running `skydiver serve`. `--binary`
/// negotiates the `SKYWIRE01` framing before the request goes out.
fn cmd_query(flags: &Flags, out: &mut Stdout) -> CmdResult {
    let addr = flags
        .get("addr")
        .map(|s| s.as_str())
        .unwrap_or("127.0.0.1:7878");
    let mut client =
        Client::connect(addr).map_err(|e| err(format!("cannot connect to {addr}: {e}")))?;
    if flags.contains_key("binary") {
        client.hello().map_err(err)?;
    }
    if flags.contains_key("stats") {
        writeln!(out, "{}", client.stats().map_err(err)?)?;
        return Ok(());
    }
    if flags.contains_key("shutdown") {
        writeln!(out, "{}", client.shutdown().map_err(err)?)?;
        return Ok(());
    }
    if flags.contains_key("snapshot") {
        writeln!(out, "{}", client.snapshot().map_err(err)?)?;
        return Ok(());
    }
    if flags.contains_key("restore") {
        writeln!(out, "{}", client.restore().map_err(err)?)?;
        return Ok(());
    }
    if let Some(node) = flags.get("join") {
        writeln!(
            out,
            "{}",
            client.exchange(&format!("JOIN addr={node}")).map_err(err)?
        )?;
        return Ok(());
    }
    if let Some(node) = flags.get("leave") {
        writeln!(
            out,
            "{}",
            client
                .exchange(&format!("LEAVE addr={node}"))
                .map_err(err)?
        )?;
        return Ok(());
    }
    if let Some(name) = flags.get("load") {
        let path = flag(flags, "path")?;
        writeln!(out, "{}", client.load(name, path).map_err(err)?)?;
        return Ok(());
    }
    if let Some(name) = flags.get("append") {
        let path = flag(flags, "path")?;
        writeln!(out, "{}", client.append(name, path).map_err(err)?)?;
        return Ok(());
    }
    if let Some(items) = flags.get("batch") {
        let dataset = flag(flags, "dataset")?;
        let mut spec = BatchSpec::new(dataset, parse_batch_items(items)?);
        spec.t = num(flags, "t", spec.t)?;
        spec.seed = num(flags, "seed", spec.seed)?;
        spec.prefs = flags.get("prefs").cloned();
        spec.timeout_ms = opt_num(flags, "timeout-ms")?;
        spec.max_dominance_tests = opt_num(flags, "max-dominance-tests")?;
        writeln!(out, "{}", client.batch(&spec).map_err(err)?)?;
        return Ok(());
    }
    // A diversification query.
    let dataset = flag(flags, "dataset")?;
    let k: usize = flag(flags, "k")?
        .parse()
        .map_err(|_| err("bad value for --k"))?;
    let mut spec = QuerySpec::new(dataset, k);
    spec.t = num(flags, "t", spec.t)?;
    spec.seed = num(flags, "seed", spec.seed)?;
    spec.method = match flags.get("method").map(|s| s.as_str()) {
        None | Some("mh") => Method::MinHash,
        Some("lsh") => Method::Lsh {
            xi: num(flags, "xi", 0.2)?,
            buckets: num(flags, "buckets", 20)?,
        },
        Some("greedy") => Method::Greedy,
        Some(other) => return Err(err(format!("unknown method {other:?} (mh|lsh|greedy)"))),
    };
    spec.prefs = flags.get("prefs").cloned();
    spec.timeout_ms = opt_num(flags, "timeout-ms")?;
    spec.max_dominance_tests = opt_num(flags, "max-dominance-tests")?;
    let payload = client.query(&spec).map_err(err)?;
    if json_format(flags)? {
        writeln!(out, "{payload}")?;
        return Ok(());
    }
    let selected = json_u64_array(&payload, "selected").unwrap_or_default();
    let gamma = json_u64_array(&payload, "gamma").unwrap_or_default();
    writeln!(
        out,
        "# dataset {dataset}: {} selected of {} skyline points (cached={}, fingerprint {:.1}ms, select {:.1}ms, total {:.1}ms)",
        selected.len(),
        skydiver::serve::protocol::json_u64(&payload, "skyline").unwrap_or(0),
        skydiver::serve::protocol::json_bool(&payload, "cached").unwrap_or(false),
        skydiver::serve::protocol::json_f64(&payload, "fingerprint_ms").unwrap_or(0.0),
        skydiver::serve::protocol::json_f64(&payload, "selection_ms").unwrap_or(0.0),
        skydiver::serve::protocol::json_f64(&payload, "total_ms").unwrap_or(0.0),
    )?;
    if skydiver::serve::protocol::json_bool(&payload, "degraded") == Some(true) {
        eprintln!("warning: degraded query");
    }
    for (idx, g) in selected.iter().zip(&gamma) {
        writeln!(out, "{idx},gamma={g}")?;
    }
    Ok(())
}

fn cmd_info(flags: &Flags, out: &mut Stdout) -> CmdResult {
    let ds = load(flag(flags, "input")?)?;
    writeln!(out, "points: {}", ds.len())?;
    writeln!(out, "dims:   {}", ds.dims())?;
    if let Some((lo, hi)) = ds.bounding_box() {
        writeln!(out, "bbox lo: {lo:?}")?;
        writeln!(out, "bbox hi: {hi:?}")?;
    }
    Ok(())
}
