//! The untraced side of a run: inputs written before any clock starts,
//! the in-process reference answers, the deployment over loopback TCP,
//! and the measured closed loop that checks every reply and every
//! counter against what the operation sequence implies.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use skydiver_cluster::rendezvous::ownership_map;
use skydiver_core::{DiverseResult, Fingerprint, RunBudget, ShardFingerprint, SkyDiver};
use skydiver_data::generators::anticorrelated;
use skydiver_data::{io, Dataset, Preference, ShardedDataset};
use skydiver_serve::protocol::{json_bool, json_u64, json_u64_array, parse_response};
use skydiver_serve::{ClusterConfig, Method, QuerySpec, Server, ServerConfig, ServerHandle};

use crate::plan::{
    deal_is_even, shard_counts, Op, Plan, Step, Workload, BLOCK_POINTS, CACHE_BYTES, CLUSTER_SHARDS, DATASET,
    DATA_SEED, DEPTH, DIMS, POINTS, WORKERS,
};
use crate::speed::{self, Probes};
use crate::wire::{Conn, Counters};

/// Measured time between two host-speed probes.
const PROBE_EVERY: Duration = Duration::from_millis(100);

/// Every `APPEND` block is ANT data shifted up by this much: mostly
/// dominated points, so each block exposes few new skyline columns.
const BLOCK_SHIFT: f64 = 0.02;

/// Files the servers read, written before any clock starts and removed
/// when the run ends. The datasets are the file contents as read back,
/// so the reference sees exactly the bits the servers parse.
pub struct Inputs {
    dir: PathBuf,
    /// Absolute path of the dataset file.
    pub data_path: String,
    /// The dataset as the servers read it.
    pub data: Dataset,
    /// Absolute paths of the `APPEND` blocks.
    pub block_paths: Vec<String>,
    /// The blocks as the servers read them.
    pub blocks: Vec<Dataset>,
}

impl Inputs {
    /// Writes the dataset and `plan.blocks` blocks under
    /// `.bench_work/` in the working directory.
    pub fn write(plan: &Plan) -> Result<Inputs, String> {
        let dir = PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            plan.workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let dir = dir
            .canonicalize()
            .map_err(|e| format!("resolve {}: {e}", dir.display()))?;
        let write_back = |ds: &Dataset, name: &str| -> Result<(String, Dataset), String> {
            let path = dir.join(name);
            io::write_csv(ds, &path).map_err(|e| format!("write {}: {e}", path.display()))?;
            let back = io::read_csv(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            Ok((path.to_string_lossy().into_owned(), back))
        };
        let (data_path, data) = write_back(&anticorrelated(POINTS, DIMS, DATA_SEED), "data.csv")?;
        let mut block_paths = Vec::with_capacity(plan.blocks);
        let mut blocks = Vec::with_capacity(plan.blocks);
        for b in 0..plan.blocks {
            let raw = anticorrelated(BLOCK_POINTS, DIMS, 10_000 + b as u64);
            let shifted: Vec<f64> = raw.as_flat().iter().map(|v| v + BLOCK_SHIFT).collect();
            let (path, back) = write_back(&Dataset::from_flat(DIMS, shifted), &format!("block{b}.csv"))?;
            block_paths.push(path);
            blocks.push(back);
        }
        Ok(Inputs {
            dir,
            data_path,
            data,
            block_paths,
            blocks,
        })
    }
}

impl Drop for Inputs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The wire lines of a plan's distinct operations.
pub struct Lines {
    queries: Vec<String>,
    appends: Vec<String>,
}

impl Lines {
    /// Renders every distinct query and `APPEND` of `plan` once.
    pub fn new(plan: &Plan, inputs: &Inputs) -> Lines {
        Lines {
            queries: plan.specs.iter().map(QuerySpec::to_line).collect(),
            appends: inputs
                .block_paths
                .iter()
                .map(|p| format!("APPEND name={DATASET} path={p}"))
                .collect(),
        }
    }

    /// The wire line of `op`.
    pub fn of(&self, op: Op) -> &str {
        match op {
            Op::Query(i) => &self.queries[i],
            Op::Append(b) => &self.appends[b],
        }
    }
}

/// The deterministic part of a `QUERY` answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Selected row ids, in pick order.
    pub selected: Vec<u64>,
    /// Dominance scores of the selected rows.
    pub gamma: Vec<u64>,
    /// Skyline cardinality.
    pub skyline: u64,
    /// Dominance tests the query charged.
    pub tests: u64,
}

impl Answer {
    /// The answer a selection result stands for.
    pub fn of(r: &DiverseResult, tests: u64) -> Answer {
        Answer {
            selected: r.selected.iter().map(|&i| i as u64).collect(),
            gamma: r.selected_positions.iter().map(|&p| r.scores[p]).collect(),
            skyline: r.skyline.len() as u64,
            tests,
        }
    }

    /// Reads a `QUERY` reply; an `ERR` or a degraded reply is an error.
    pub fn parse(reply: &str) -> Result<Answer, String> {
        let p = parse_response(reply)?;
        if json_bool(&p, "degraded") != Some(false) {
            return Err(format!("degraded reply {p}"));
        }
        let field = |k: &str| json_u64(&p, k).ok_or_else(|| format!("reply lacks {k}: {p}"));
        let array = |k: &str| json_u64_array(&p, k).ok_or_else(|| format!("reply lacks {k}: {p}"));
        Ok(Answer {
            selected: array("selected")?,
            gamma: array("gamma")?,
            skyline: field("skyline")?,
            tests: field("dominance_tests")?,
        })
    }
}

/// A pipeline configured like the server's for query `q`.
pub fn selector(q: &QuerySpec) -> SkyDiver {
    let d = SkyDiver::new(q.k).signature_size(q.t).hash_seed(q.seed);
    match q.method {
        Method::Lsh { xi, buckets } => d.lsh(xi, buckets),
        _ => d,
    }
}

/// A budget that never trips but keeps the dominance-test counter on,
/// as the server's cancel-token budget does.
fn counting() -> RunBudget {
    RunBudget::none().with_max_dominance_tests(u64::MAX)
}

/// Answers and counter growth the operation sequence implies, computed
/// in-process with `SkyDiver::fingerprint_sharded` and `select_from`.
pub struct Reference {
    /// Answer of each set-up warm-up query.
    pub warmup: Vec<Answer>,
    /// The distinct answers of the measured operations.
    pub answers: Vec<Answer>,
    /// Index into `answers` of each measured operation's answer
    /// (`None` for an `APPEND`).
    pub ops: Vec<Option<u32>>,
    /// Counter growth over the measured phase.
    pub counters: Counters,
}

impl Reference {
    /// The expected answer of operation `i`.
    pub fn answer(&self, i: usize) -> Option<&Answer> {
        self.ops[i].map(|a| &self.answers[a as usize])
    }

    /// Computes the reference for `plan` over `inputs`.
    pub fn compute(plan: &Plan, inputs: &Inputs) -> Result<Reference, String> {
        let prefs = Preference::all_min(DIMS);
        let queries = plan.queries() as u64;
        let err = |e: skydiver_core::SkyDiverError| e.to_string();
        let fold = |sd: &ShardedDataset, q: &QuerySpec, cached: &[Option<std::sync::Arc<ShardFingerprint>>]| {
            SkyDiver::new(2)
                .signature_size(q.t)
                .hash_seed(q.seed)
                .budget(counting())
                .fingerprint_sharded_with(sd, &prefs, cached)
                .map_err(err)
        };
        let answer = |q: &QuerySpec, fp: &Fingerprint, tests: u64| -> Result<Answer, String> {
            Ok(Answer::of(&selector(q).select_from(fp).map_err(err)?, tests))
        };
        let op_index = |plan: &Plan| -> Vec<Option<u32>> {
            plan.ops
                .iter()
                .map(|op| match op {
                    Op::Query(i) => Some(*i as u32),
                    Op::Append(_) => None,
                })
                .collect()
        };
        match plan.workload {
            Workload::SelectMix | Workload::MemoPipelined => {
                // One fingerprint; the first warm-up query computes it
                // and every later query finds it memoised.
                let sd = ShardedDataset::from_dataset(inputs.data.clone());
                let first = &plan.specs[plan.warmup[0]];
                let run = fold(&sd, first, &[])?;
                let answers = plan
                    .specs
                    .iter()
                    .map(|q| answer(q, &run.fingerprint, 0))
                    .collect::<Result<Vec<_>, _>>()?;
                let mut warmup: Vec<Answer> = plan.warmup.iter().map(|&i| answers[i].clone()).collect();
                warmup[0].tests = run.dominance_tests;
                let memo_hits = plan.workload == Workload::MemoPipelined;
                Ok(Reference {
                    warmup,
                    answers,
                    ops: op_index(plan),
                    counters: Counters {
                        queries,
                        cache_hits: queries,
                        selection_hits: if memo_hits { queries } else { 0 },
                        ..Counters::default()
                    },
                })
            }
            Workload::AppendRefold => {
                // The server's fold cache holds the previous query's
                // shard folds; the reference hands the same folds in.
                let mut sd = ShardedDataset::from_dataset(inputs.data.clone());
                let first = &plan.specs[plan.warmup[0]];
                let run = fold(&sd, first, &[])?;
                let warmup = vec![answer(first, &run.fingerprint, run.dominance_tests)?];
                let mut prev = run.shards;
                let mut answers = Vec::with_capacity(plan.queries());
                let mut ops = Vec::with_capacity(plan.ops.len());
                let (mut reused, mut tests) = (0u64, 0u64);
                for op in &plan.ops {
                    match *op {
                        Op::Append(b) => {
                            sd.push_shard(inputs.blocks[b].clone());
                            ops.push(None);
                        }
                        Op::Query(i) => {
                            let q = &plan.specs[i];
                            let cached: Vec<_> = prev.iter().cloned().map(Some).collect();
                            let run = fold(&sd, q, &cached)?;
                            reused += run.reused_shards as u64;
                            tests += run.dominance_tests;
                            ops.push(Some(answers.len() as u32));
                            answers.push(answer(q, &run.fingerprint, run.dominance_tests)?);
                            prev = run.shards;
                        }
                    }
                }
                Ok(Reference {
                    warmup,
                    answers,
                    ops,
                    counters: Counters {
                        queries,
                        appends: plan.blocks as u64,
                        cache_misses: queries,
                        shards_reused: reused,
                        dominance_tests: tests,
                        ..Counters::default()
                    },
                })
            }
            Workload::ClusterCold => {
                // Every query folds cold under its own hash seed; the
                // folds are independent, so two threads share them.
                let sd = ShardedDataset::partition(&inputs.data, CLUSTER_SHARDS);
                let cold = |q: &QuerySpec| -> Result<Answer, String> {
                    let run = fold(&sd, q, &[])?;
                    answer(q, &run.fingerprint, run.dominance_tests)
                };
                let specs = &plan.specs;
                let half = specs.len().div_ceil(2);
                let answers: Vec<Answer> = std::thread::scope(|s| {
                    let tail = s.spawn(|| specs[half..].iter().map(cold).collect::<Result<Vec<_>, _>>());
                    let mut head = specs[..half].iter().map(cold).collect::<Result<Vec<_>, _>>()?;
                    head.extend(tail.join().expect("reference thread panicked")?);
                    Ok::<_, String>(head)
                })?;
                let ops = op_index(plan);
                let tests = ops.iter().flatten().map(|&i| answers[i as usize].tests).sum();
                Ok(Reference {
                    warmup: plan.warmup.iter().map(|&i| answers[i].clone()).collect(),
                    answers,
                    ops,
                    counters: Counters {
                        queries,
                        cache_misses: queries,
                        fanout_legs: queries * CLUSTER_SHARDS as u64,
                        dominance_tests: tests,
                        ..Counters::default()
                    },
                })
            }
        }
    }
}

/// The servers of one set-up and the client connection to them.
pub struct Deployment {
    /// The client's one connection.
    pub conn: Conn,
    server: ServerHandle,
    workers: Vec<ServerHandle>,
    /// Owner of each shard, as a worker index (cluster only).
    pub deal: Vec<usize>,
}

fn server_config(cluster: Option<ClusterConfig>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        cache_bytes: CACHE_BYTES,
        cluster,
        ..ServerConfig::default()
    }
}

/// Binds the cluster's workers, rebinding the last one until the
/// rendezvous deal gives every worker the same number of shards, so
/// the fold work splits the same way in every run. Rejected listeners
/// stay bound until the end, so a port is never drawn twice.
fn bind_even_workers() -> Result<(Vec<Server>, Vec<String>, Vec<usize>), String> {
    let bind = || Server::bind(&server_config(None)).map_err(|e| format!("bind worker: {e}"));
    let addr = |s: &Server| -> Result<String, String> {
        Ok(s.local_addr().map_err(|e| e.to_string())?.to_string())
    };
    let mut workers: Vec<Server> = (0..WORKERS - 1).map(|_| bind()).collect::<Result<_, _>>()?;
    let mut rejected = Vec::new();
    for _ in 0..256 {
        let last = bind()?;
        let mut addrs: Vec<String> = workers.iter().map(addr).collect::<Result<_, _>>()?;
        addrs.push(addr(&last)?);
        let map = ownership_map(&addrs, CLUSTER_SHARDS, 1);
        if deal_is_even(&map, &addrs) {
            workers.push(last);
            let deal = map
                .iter()
                .map(|owners| addrs.iter().position(|a| *a == owners[0]).expect("owner is in the roster"))
                .collect();
            debug_assert!(shard_counts(&map, &addrs).iter().all(|&c| c == CLUSTER_SHARDS / WORKERS));
            return Ok((workers, addrs, deal));
        }
        rejected.push(last);
    }
    Err("no even shard deal in 256 worker binds".into())
}

impl Deployment {
    /// Set-up: bind and spawn the servers, connect, `LOAD` the dataset
    /// (a cluster routes its shards to the workers), then send the
    /// warm-up queries and check their answers.
    pub fn start(plan: &Plan, inputs: &Inputs, reference: &Reference) -> Result<Deployment, String> {
        let (workers, cluster, deal) = if plan.workload == Workload::ClusterCold {
            let (servers, addrs, deal) = bind_even_workers()?;
            let handles = servers
                .into_iter()
                .map(|s| s.spawn().map_err(|e| format!("spawn worker: {e}")))
                .collect::<Result<Vec<_>, _>>()?;
            let cfg = ClusterConfig {
                workers: addrs,
                replication: 1,
                shards: CLUSTER_SHARDS,
                ..ClusterConfig::default()
            };
            (handles, Some(cfg), deal)
        } else {
            (Vec::new(), None, Vec::new())
        };
        let server = Server::bind(&server_config(cluster))
            .and_then(Server::spawn)
            .map_err(|e| format!("start server: {e}"))?;
        let mut conn = Conn::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        if plan.workload == Workload::MemoPipelined {
            conn.hello()?;
        }
        conn.ok(&format!("LOAD name={DATASET} path={}", inputs.data_path))?;
        for (&i, expected) in plan.warmup.iter().zip(&reference.warmup) {
            let line = plan.specs[i].to_line();
            let reply = conn.request(&line).map_err(|e| format!("warm-up: {e}"))?;
            let got = Answer::parse(&reply)?;
            if got != *expected {
                return Err(format!("warm-up {line} answered {got:?}, expected {expected:?}"));
            }
        }
        Ok(Deployment {
            conn,
            server,
            workers,
            deal,
        })
    }

    /// Shuts every server down and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        self.conn.ok("SHUTDOWN")?;
        self.server.join().map_err(|e| format!("server exit: {e}"))?;
        for w in self.workers {
            Conn::connect(w.addr())
                .map_err(|e| format!("connect worker: {e}"))?
                .ok("SHUTDOWN")?;
            w.join().map_err(|e| format!("worker exit: {e}"))?;
        }
        Ok(())
    }
}

/// What the measured phase observed.
pub struct Measured {
    /// Wall time of the whole sequence, seconds.
    pub wall_s: f64,
    /// Latency of each `QUERY`, ms.
    pub query_ms: Vec<f64>,
    /// Latency of each `APPEND`, ms.
    pub append_ms: Vec<f64>,
    /// Where the phase stood after each request or burst. Its clock
    /// stops while a host-speed probe runs.
    pub steps: Vec<Step>,
    /// Host-speed probes on the same clock.
    pub probes: Probes,
    /// Operations that failed: an `ERR`, a degraded or wrong answer.
    pub failed: u64,
    /// Dominance tests summed over the `QUERY` replies.
    pub reply_tests: u64,
    /// Skyline sizes summed over the `QUERY` replies.
    pub reply_skyline: u64,
    /// Counter growth over the phase.
    pub delta: Counters,
    /// Bytes of the `STATS` reply read before the phase (it lands in
    /// the `bytes_out` growth).
    pub stats_reply_bytes: u64,
    /// Mismatches between the counter growth and the reference's.
    pub counter_mismatches: Vec<String>,
}

/// Reply checks of the measured phase, and the dominance tests and
/// skyline sizes the `QUERY` replies themselves report.
#[derive(Default)]
struct Tally {
    failed: u64,
    tests: u64,
    skyline: u64,
}

impl Tally {
    fn check(&mut self, op: Op, reply: &str, expected: Option<&Answer>, shards: usize) {
        let ok = match (op, expected) {
            (Op::Query(_), Some(e)) => match Answer::parse(reply) {
                Ok(a) => {
                    self.tests += a.tests;
                    self.skyline += a.skyline;
                    a == *e
                }
                Err(_) => false,
            },
            (Op::Append(_), None) => parse_response(reply).is_ok_and(|p| {
                p.contains(&format!(" shards={shards} ")) && p.ends_with(&format!("appended={BLOCK_POINTS}"))
            }),
            _ => false,
        };
        if !ok {
            self.failed += 1;
        }
    }
}

/// The phase clock, which stops while a host-speed probe runs.
struct Clock<'a> {
    cores: &'a [usize],
    t0: Instant,
    paused: Duration,
    last_probe: Duration,
    probes: Probes,
}

impl<'a> Clock<'a> {
    /// Starts the clock with a first probe of `cores`.
    fn start(cores: &'a [usize]) -> Result<Clock<'a>, String> {
        let mut c = Clock {
            cores,
            t0: Instant::now(),
            paused: Duration::ZERO,
            last_probe: Duration::ZERO,
            probes: Probes::default(),
        };
        c.probe()?;
        Ok(c)
    }

    fn now(&self) -> Duration {
        self.t0.elapsed() - self.paused
    }

    fn seconds(&self) -> f64 {
        self.now().as_secs_f64()
    }

    fn probe(&mut self) -> Result<(), String> {
        let (at, paused) = (self.now(), Instant::now());
        let index = speed::probe(self.cores)?;
        self.paused += paused.elapsed();
        self.probes.at.push((at.as_secs_f64(), index));
        self.last_probe = at;
        Ok(())
    }

    /// Probes when [`PROBE_EVERY`] has passed since the last probe.
    fn tick(&mut self) -> Result<(), String> {
        if self.now() - self.last_probe >= PROBE_EVERY {
            self.probe()?;
        }
        Ok(())
    }
}

/// Runs the sequence as a closed loop on the deployment's connection,
/// probing the speed of `cores` every [`PROBE_EVERY`].
pub fn measure(
    plan: &Plan,
    lines: &Lines,
    reference: &Reference,
    dep: &mut Deployment,
    cores: &[usize],
) -> Result<Measured, String> {
    let conn = &mut dep.conn;
    let before = Counters::parse(&conn.ok("STATS")?)?;
    let stats_reply_bytes = conn.last_reply_bytes;
    let mut query_ms = Vec::with_capacity(plan.queries());
    let mut append_ms = Vec::new();
    let mut steps = Vec::with_capacity(plan.ops.len());
    let mut tally = Tally::default();
    let mut shards = 1usize;
    let io = |e: std::io::Error| format!("transport: {e}");

    let mut clock = Clock::start(cores)?;
    if plan.workload == Workload::MemoPipelined {
        // Bursts of DEPTH frames, one flush each; a request's latency
        // runs from its burst's send to the arrival of its own reply.
        let mut replies = Vec::with_capacity(DEPTH);
        for (b, burst) in plan.ops.chunks(DEPTH).enumerate() {
            let refs: Vec<&str> = burst.iter().map(|&op| lines.of(op)).collect();
            replies.clear();
            let sent = Instant::now();
            conn.send(&refs).map_err(io)?;
            for _ in 0..burst.len() {
                replies.push(conn.recv().map_err(io)?);
                query_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            }
            for (j, reply) in replies.iter().enumerate() {
                let i = b * DEPTH + j;
                tally.check(plan.ops[i], reply, reference.answer(i), shards);
            }
            steps.push(Step {
                ops: (b * DEPTH + burst.len()) as u64,
                queries: query_ms.len(),
                seconds: clock.seconds(),
            });
            clock.tick()?;
        }
    } else {
        for (i, &op) in plan.ops.iter().enumerate() {
            let sent = Instant::now();
            let reply = conn.request(lines.of(op)).map_err(io)?;
            let ms = sent.elapsed().as_secs_f64() * 1e3;
            match op {
                Op::Query(_) => query_ms.push(ms),
                Op::Append(_) => {
                    append_ms.push(ms);
                    shards += 1;
                }
            }
            tally.check(op, &reply, reference.answer(i), shards);
            steps.push(Step {
                ops: i as u64 + 1,
                queries: query_ms.len(),
                seconds: clock.seconds(),
            });
            clock.tick()?;
        }
    }
    let wall_s = clock.seconds();
    clock.probe()?;

    let delta = Counters::parse(&conn.ok("STATS")?)?.since(&before);
    let want = &reference.counters;
    let mut counter_mismatches = Vec::new();
    for (name, got, expected) in [
        ("queries", delta.queries, want.queries),
        ("appends", delta.appends, want.appends),
        ("errors", delta.errors, want.errors),
        ("cache_hits", delta.cache_hits, want.cache_hits),
        ("cache_misses", delta.cache_misses, want.cache_misses),
        ("selection_hits", delta.selection_hits, want.selection_hits),
        ("shards_reused", delta.shards_reused, want.shards_reused),
        ("dominance_tests", delta.dominance_tests, want.dominance_tests),
        ("fanout_legs", delta.fanout_legs, want.fanout_legs),
        ("fanout_retries", delta.fanout_retries, want.fanout_retries),
        ("fanout_failures", delta.fanout_failures, want.fanout_failures),
    ] {
        if got != expected {
            counter_mismatches.push(format!("{name}: STATS grew by {got}, the sequence implies {expected}"));
        }
    }
    Ok(Measured {
        wall_s,
        query_ms,
        append_ms,
        steps,
        probes: clock.probes,
        failed: tally.failed,
        reply_tests: tally.tests,
        reply_skyline: tally.skyline,
        delta,
        stats_reply_bytes,
        counter_mismatches,
    })
}
