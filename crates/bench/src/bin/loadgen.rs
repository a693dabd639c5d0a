//! `loadgen` — serving-path benchmark: cold-vs-warm query latency and
//! concurrent throughput against an in-process `skydiver-serve`.
//!
//! ```text
//! loadgen [--scale 0.1] [--conns 4] [--queries 25] [--k 10] [--t 64]
//!         [--threads N] [--out BENCH_pr3.json] [--check BENCH_pr3.json]
//! loadgen --mode append [--scale 0.1] [--k 10] [--t 64]
//!         [--out BENCH_pr4.json | --check BENCH_pr4.json]
//! loadgen --mode restart [--scale 0.1] [--k 10] [--t 64]
//!         [--out BENCH_pr6.json | --check BENCH_pr6.json]
//! loadgen --mode kernels [--scale 0.1] [--k 64] [--t 128] [--buckets 8]
//!         [--out BENCH_pr7.json | --check BENCH_pr7.json]
//! loadgen --mode cluster [--scale 0.1] [--conns 4] [--queries 16] [--k 10] [--t 64]
//!         [--out BENCH_pr8.json | --check BENCH_pr8.json]
//! loadgen --mode pipeline [--scale 0.1] [--conns 4] [--depth 32] [--bursts 16]
//!         [--k 10] [--t 64] [--out BENCH_pr9.json | --check BENCH_pr9.json]
//! ```
//!
//! `--mode pipeline` measures the PR 9 readiness-driven server core:
//! the same warm-query stream issued four ways over the same
//! connections — depth-1 text (one round trip per query, the
//! BENCH_pr3 serving shape), depth-`N` text pipelining (one round trip
//! per burst), depth-`N` `SKYWIRE01` binary framing, and `BATCH` (one
//! request, `N` selections). Every reply's selected set is asserted
//! against the sequential answer before timing counts, so the speedup
//! can never come from dropping work. `--check` gates the within-run
//! pipelined/single throughput ratio (machine-independent — both sides
//! share one server, one binary, one box) against the committed
//! baseline's, floored at a quarter (never below 2x), and requires the
//! pipelined warm p99 to stay under 5 ms.
//!
//! `--mode cluster` measures the PR 8 coordinator/worker fan-out: the
//! same dataset served single-process, then by a coordinator over 2 and
//! 4 worker servers (real TCP, one machine). Three numbers per
//! topology: warm throughput (coordinator-memoised, the steady state),
//! cold fan-out latency over distinct seeds (every query re-folds on
//! the workers), and the first-query cold cost. Every topology must
//! return the bit-identical selected set; the timings are
//! **informational** — on one box the fan-out only adds hops, the
//! cluster buys capacity, not single-box speed — so `--check` verifies
//! the committed report exists and describes this contract rather than
//! gating on a ratio.
//!
//! `--mode kernels` measures the PR 7 selection-phase kernels against
//! the engines they replaced, frozen inline in this binary: the
//! spawn-per-round chunked parallel greedy (the 0.29× regression of
//! BENCH_pr2) vs the persistent-pool slot-major engine, sequential
//! `SigGen-IB` vs the active-classification parallel pass, and the
//! per-pair agreement/Hamming loops vs the batched one-vs-all kernels.
//! Every before/after pair asserts bit-identical results before timing
//! counts; `--check` gates the two parallel ratios on
//! `max(baseline/2, 1.0)` — the committed speedup may degrade by at
//! most half, and parallel must never again lose to its own baseline.
//!
//! `--mode restart` measures the durable signature store: server A
//! computes a cold fingerprint with `--store-dir` set, `SNAPSHOT`s and
//! shuts down; server B on the same store directory must answer its
//! first query bit-identically while charging **zero** dominance tests
//! (every shard fold is loaded from disk). The gate is exact, not a
//! ratio — warm restarts are free by contract.
//!
//! `--mode append` measures the shard-native serving path instead: a
//! cold fingerprint of `n` points, a wire `APPEND` of ~5% more points,
//! then the incremental re-fingerprint (which reuses the old shard's
//! cached fold) versus a full cold recompute of the grown dataset (a
//! fresh seed, so nothing is reusable). The per-query `dominance_tests`
//! counter from the response is the machine-independent cost measure;
//! `--check` gates on the cold/append dominance-test ratio. A shard-count
//! sweep (1..8 shards, same data) confirms partitioning itself is free.
//!
//! Starts a real TCP server (ephemeral port, `--threads` workers,
//! default = `--conns`), installs an anticorrelated dataset, then
//! measures:
//!
//! 1. **cold_ms** — the first `QUERY`, which fingerprints the dataset;
//! 2. **warm_ms** — the best of a few repeat queries served from the
//!    fingerprint cache;
//! 3. **throughput** — `--conns` client threads each firing `--queries`
//!    warm queries; per-query latency is measured client-side.
//!
//! Every response's selected set is checked against the first one —
//! concurrency must not change answers.
//!
//! `--out` writes the JSON report; `--check BASELINE` instead gates on
//! the committed report: the measured cold/warm ratio must stay above a
//! quarter of the baseline's, pro-rated by cardinality (cold cost grows
//! at least linearly in `n` while a cache hit is O(1), so the linear
//! pro-rate keeps the floor conservative when CI checks at a smaller
//! scale than the committed baseline). The ratio is within-run, so the
//! gate is machine-independent (absolute times are informational).

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use skydiver_bench::{time_ms, Args, Family};
use skydiver_core::dispersion::{select_diverse_parallel, SeedRule, TieBreak};
use skydiver_core::diversity::SignatureDistance;
use skydiver_core::lsh::{LshIndex, LshParams};
use skydiver_core::minhash::{
    sig_gen_ib, sig_gen_ib_parallel, sig_gen_if, HashFamily, SignatureMatrix, SlotMajorSignatures,
};
use skydiver_data::dominance::MinDominance;
use skydiver_data::{io, Dataset, ShardedDataset};
use skydiver_rtree::{BufferPool, RTree};
use skydiver_serve::protocol::{
    json_u64, json_u64_array, parse_response, BatchSpec, Method, QuerySpec,
};
use skydiver_serve::{Client, ClusterConfig, Server, ServerConfig};
use skydiver_skyline::sfs;

fn query_once(client: &mut Client, spec: &QuerySpec) -> (Vec<u64>, f64) {
    let t0 = Instant::now();
    let payload = client.query(spec).expect("query");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let selected = json_u64_array(&payload, "selected").expect("selected array");
    (selected, ms)
}

/// Like [`query_once`] but also returns the query's `dominance_tests`
/// charge — the machine-independent cost of the fingerprint work it
/// triggered (0 for a memoised artefact).
fn query_counted(client: &mut Client, spec: &QuerySpec) -> (Vec<u64>, f64, u64) {
    let t0 = Instant::now();
    let payload = client.query(spec).expect("query");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let selected = json_u64_array(&payload, "selected").expect("selected array");
    let tests = json_u64(&payload, "dominance_tests").expect("dominance_tests field");
    (selected, ms, tests)
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((q * sorted_ms.len() as f64).ceil() as usize).clamp(1, sorted_ms.len()) - 1;
    sorted_ms[idx]
}

/// Extracts `"key": <f64>` from a flat baseline report.
fn baseline_f64(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)?;
    let tail = &json[at + needle.len()..];
    let end = tail.find([',', '}', '\n'])?;
    tail[..end].trim().parse().ok()
}

#[allow(clippy::too_many_arguments)]
fn report(
    scale: f64,
    n: usize,
    conns: usize,
    queries: usize,
    threads: usize,
    cold_ms: f64,
    warm_ms: f64,
    qps: f64,
    p50: f64,
    p99: f64,
    hits: u64,
    misses: u64,
) -> String {
    format!(
        "{{\n  \"bench\": \"pr3-loadgen\",\n  \"scale\": {scale},\n  \"n\": {n},\n  \
         \"conns\": {conns},\n  \"queries_per_conn\": {queries},\n  \
         \"server_threads\": {threads},\n  \"cold_ms\": {cold_ms:.3},\n  \
         \"warm_ms\": {warm_ms:.3},\n  \"cold_over_warm\": {:.3},\n  \
         \"throughput_qps\": {qps:.1},\n  \"p50_ms\": {p50:.3},\n  \"p99_ms\": {p99:.3},\n  \
         \"cache_hits\": {hits},\n  \"cache_misses\": {misses}\n}}\n",
        cold_ms / warm_ms.max(1e-9),
    )
}

/// `--mode append`: cold fingerprint, wire `APPEND`, incremental warm
/// re-fingerprint vs full cold recompute, plus a shard-count sweep.
fn run_append_mode(args: &Args) -> ExitCode {
    let n = ((1_000_000f64 * args.scale) as usize).max(2_000);
    let a = (n / 20).max(200);
    let k: usize = args.get_or("k", 10);
    let t: usize = args.get_or("t", 64);
    eprintln!("# loadgen append mode: n = {n}, append = {a}");

    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        cache_bytes: 64 << 20,
        ..ServerConfig::default()
    })
    .expect("bind");
    let base = Family::Ant.generate(n, 3, 91);
    server.registry().insert_dataset("bench", base.clone());
    // Shard-count sweep datasets: identical points, 1..8 shards.
    for s in [1usize, 2, 4, 8] {
        server
            .registry()
            .insert_sharded(format!("sweep{s}"), ShardedDataset::partition(&base, s));
    }
    let handle = server.spawn().expect("spawn server");
    let addr = handle.addr();

    let mut spec = QuerySpec::new("bench", k);
    spec.t = t;
    spec.seed = 7;
    // A never-tripping dominance budget switches the counter on
    // (unlimited budgets skip it entirely).
    spec.max_dominance_tests = Some(u64::MAX / 2);

    let mut probe = Client::connect(addr).expect("connect");
    let (_, cold_ms, cold_tests) = query_counted(&mut probe, &spec);
    assert!(cold_tests > 0, "cold query must charge dominance tests");

    // Grow the dataset by ~5% over the wire. The appended block is
    // anticorrelated data shifted up by 0.25 — plausible "mostly worse"
    // new points, so only a few new skyline columns appear.
    let block = shifted_block(a, 92, 0.25);
    let tmp = format!("target/loadgen_append_{}.csv", std::process::id());
    io::write_csv(&block, &tmp).expect("write append block");
    let reply = probe.append("bench", &tmp).expect("append");
    let _ = std::fs::remove_file(&tmp);
    assert!(reply.contains("shards=2"), "append reply: {reply}");

    let (_, append_ms, append_tests) = query_counted(&mut probe, &spec);
    assert!(append_tests > 0, "the append query re-folds the new shard");

    // Full cold recompute of the grown dataset: a fresh seed shares no
    // cached folds, so every row of every shard is re-scanned.
    let mut grown_spec = spec.clone();
    grown_spec.seed = 8;
    let (_, grown_ms, grown_tests) = query_counted(&mut probe, &grown_spec);
    assert!(
        append_tests < grown_tests,
        "incremental append ({append_tests}) must undercut a cold recompute ({grown_tests})"
    );

    // Shard sweep: cold fingerprint cost must not depend on shard count.
    let mut sweep = Vec::new();
    for s in [1usize, 2, 4, 8] {
        let mut sspec = spec.clone();
        sspec.dataset = format!("sweep{s}");
        let (_, ms, tests) = query_counted(&mut probe, &sspec);
        sweep.push((s, ms, tests));
    }
    let sweep_tests: Vec<u64> = sweep.iter().map(|&(_, _, tests)| tests).collect();
    assert!(
        sweep_tests.iter().all(|&tests| tests == sweep_tests[0]),
        "sharding must not change the dominance-test count: {sweep_tests:?}"
    );

    probe.shutdown().expect("shutdown");
    handle.join().expect("server exit");

    let tests_ratio = grown_tests as f64 / append_tests.max(1) as f64;
    let ms_ratio = grown_ms / append_ms.max(1e-9);
    eprintln!(
        "cold {cold_ms:.2}ms/{cold_tests}t  append-warm {append_ms:.2}ms/{append_tests}t  \
         grown-cold {grown_ms:.2}ms/{grown_tests}t  (saves {tests_ratio:.1}x tests, {ms_ratio:.1}x time)"
    );

    let sweep_json = sweep
        .iter()
        .map(|(s, ms, tests)| {
            format!("{{\"shards\": {s}, \"cold_ms\": {ms:.3}, \"tests\": {tests}}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"bench\": \"pr4-loadgen-append\",\n  \"scale\": {},\n  \"n\": {n},\n  \
         \"append_points\": {a},\n  \"k\": {k},\n  \"t\": {t},\n  \
         \"cold_ms\": {cold_ms:.3},\n  \"cold_tests\": {cold_tests},\n  \
         \"append_ms\": {append_ms:.3},\n  \"append_tests\": {append_tests},\n  \
         \"grown_cold_ms\": {grown_ms:.3},\n  \"grown_cold_tests\": {grown_tests},\n  \
         \"tests_ratio\": {tests_ratio:.3},\n  \"ms_ratio\": {ms_ratio:.3},\n  \
         \"shard_sweep\": [{sweep_json}]\n}}\n",
        args.scale,
    );

    if let Some(baseline_path) = args.get("check") {
        let baseline = match std::fs::read_to_string(baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let Some(base_ratio) = baseline_f64(&baseline, "tests_ratio") else {
            eprintln!("baseline {baseline_path} lacks tests_ratio");
            return ExitCode::FAILURE;
        };
        // The ratio (n+a)·m / (a·m + n·|new skyline|) is roughly
        // scale-invariant; a quarter of the baseline (never below 2x)
        // still proves the append path skips most of the cold work.
        let floor = (base_ratio / 4.0).max(2.0);
        let ok = tests_ratio >= floor;
        eprintln!(
            "CHECK tests_ratio: {tests_ratio:.2}x vs baseline {base_ratio:.2}x (floor {floor:.2}x) — {}",
            if ok { "ok" } else { "REGRESSED" }
        );
        if !ok {
            return ExitCode::FAILURE;
        }
    } else {
        let out = args.get("out").unwrap_or("BENCH_pr4.json");
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {out}");
    }
    ExitCode::SUCCESS
}

/// `--mode restart`: cold compute + `SNAPSHOT` in one server process,
/// then a fresh server on the same store directory — its first query
/// must be bit-identical and dominance-test-free.
fn run_restart_mode(args: &Args) -> ExitCode {
    let n = ((1_000_000f64 * args.scale) as usize).max(2_000);
    let k: usize = args.get_or("k", 10);
    let t: usize = args.get_or("t", 64);
    eprintln!("# loadgen restart mode: n = {n}");
    let store_dir = format!("target/loadgen_store_{}", std::process::id());
    let _ = std::fs::remove_dir_all(&store_dir);
    let data = Family::Ant.generate(n, 3, 91);
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        store_dir: Some(store_dir.clone()),
        ..ServerConfig::default()
    };

    let mut spec = QuerySpec::new("bench", k);
    spec.t = t;
    spec.seed = 7;
    // A never-tripping budget keeps the dominance-test counter on.
    spec.max_dominance_tests = Some(u64::MAX / 2);

    // Epoch A: restart-to-first-query with a cold (empty) store.
    let t0 = Instant::now();
    let server = Server::bind(&cfg).expect("bind A");
    server.registry().insert_dataset("bench", data.clone());
    let handle = server.spawn().expect("spawn A");
    let mut probe = Client::connect(handle.addr()).expect("connect A");
    let (cold_selected, _, cold_tests) = query_counted(&mut probe, &spec);
    let cold_restart_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(cold_tests > 0, "the cold epoch must compute");
    let reply = probe.snapshot().expect("snapshot");
    let persisted: u64 = reply
        .strip_prefix("persisted=")
        .and_then(|v| v.parse().ok())
        .expect("snapshot reply");
    assert!(
        persisted >= 1,
        "snapshot must make the fold durable: {reply}"
    );
    probe.shutdown().expect("shutdown A");
    handle.join().expect("A exits");

    // Epoch B: same store directory — restart-to-first-undegraded-query.
    let t0 = Instant::now();
    let server = Server::bind(&cfg).expect("bind B");
    server.registry().insert_dataset("bench", data);
    let handle = server.spawn().expect("spawn B");
    let mut probe = Client::connect(handle.addr()).expect("connect B");
    let (warm_selected, _, warm_tests) = query_counted(&mut probe, &spec);
    let warm_restart_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats = probe.stats().expect("stats");
    let hits = json_u64(&stats, "store_hits").unwrap_or(0);
    probe.shutdown().expect("shutdown B");
    handle.join().expect("B exits");
    let _ = std::fs::remove_dir_all(&store_dir);

    // The gates are exact contracts, not noisy time ratios.
    let mut failed = false;
    if warm_selected != cold_selected {
        eprintln!("CHECK identical answer: FAILED — restart changed the selection");
        failed = true;
    }
    if warm_tests != 0 {
        eprintln!("CHECK warm restart is free: FAILED — charged {warm_tests} dominance tests");
        failed = true;
    }
    if hits < 1 {
        eprintln!("CHECK store served the restart: FAILED — store_hits = {hits}: {stats}");
        failed = true;
    }
    let speedup = cold_restart_ms / warm_restart_ms.max(1e-9);
    eprintln!(
        "cold restart-to-first-query {cold_restart_ms:.2}ms ({cold_tests} tests)  \
         warm {warm_restart_ms:.2}ms (0 tests, {hits} store hits)  speedup {speedup:.1}x"
    );
    if failed {
        return ExitCode::FAILURE;
    }

    let json = format!(
        "{{\n  \"bench\": \"pr6-loadgen-restart\",\n  \"scale\": {},\n  \"n\": {n},\n  \
         \"k\": {k},\n  \"t\": {t},\n  \"cold_restart_ms\": {cold_restart_ms:.3},\n  \
         \"cold_tests\": {cold_tests},\n  \"warm_restart_ms\": {warm_restart_ms:.3},\n  \
         \"warm_tests\": {warm_tests},\n  \"store_hits\": {hits},\n  \
         \"persisted\": {persisted},\n  \"restart_speedup\": {speedup:.3}\n}}\n",
        args.scale,
    );

    if let Some(baseline_path) = args.get("check") {
        // The exact gates above already ran; the baseline check only
        // confirms the committed report describes the same contract.
        let baseline = match std::fs::read_to_string(baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let ok = baseline.contains("pr6-loadgen-restart")
            && baseline_f64(&baseline, "warm_tests") == Some(0.0);
        eprintln!(
            "CHECK baseline contract (warm_tests = 0 in {baseline_path}) — {}",
            if ok { "ok" } else { "REGRESSED" }
        );
        if !ok {
            return ExitCode::FAILURE;
        }
    } else {
        let out = args.get("out").unwrap_or("BENCH_pr6.json");
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {out}");
    }
    ExitCode::SUCCESS
}

/// A before/after timing pair of `--mode kernels`.
struct KernelPair {
    name: &'static str,
    before_ms: f64,
    after_ms: f64,
}

impl KernelPair {
    fn speedup(&self) -> f64 {
        self.before_ms / self.after_ms.max(1e-9)
    }

    fn json(&self) -> String {
        format!(
            "    \"{}\": {{\"before_ms\": {:.3}, \"after_ms\": {:.3}, \"speedup\": {:.3}}}",
            self.name,
            self.before_ms,
            self.after_ms,
            self.speedup()
        )
    }
}

/// Extracts `"speedup": <f64>` of the named kernel from a nested
/// baseline report (the flat [`baseline_f64`] cannot scope by name).
fn baseline_speedup(json: &str, name: &str) -> Option<f64> {
    let start = json.find(&format!("\"{name}\""))?;
    let rest = &json[start..];
    let sp = rest.find("\"speedup\":")?;
    let tail = &rest[sp + "\"speedup\":".len()..];
    let end = tail.find(['}', ','])?;
    tail[..end].trim().parse().ok()
}

/// The pre-PR 7 parallel greedy selection, frozen verbatim: per round,
/// spawn one scoped thread per chunk of `min_dist`, evaluate the
/// estimated distance per pair, join, fold the chunk argmaxes. The
/// spawn/join cost per round and the per-pair column fetches are
/// exactly what the persistent-pool slot-major engine removed.
fn frozen_parallel_selection(
    sig: &SignatureMatrix,
    scores: &[u64],
    k: usize,
    threads: usize,
) -> Vec<usize> {
    let m = sig.m();
    let seed = (0..m)
        .max_by_key(|&i| (scores[i], std::cmp::Reverse(i)))
        .expect("non-empty skyline");
    let mut selected = vec![seed];
    let mut in_set = vec![false; m];
    in_set[seed] = true;
    let mut min_dist = vec![f64::INFINITY; m];
    while selected.len() < k {
        let last = *selected.last().expect("seeded");
        let chunk = m.div_ceil(threads);
        let mut chunk_bests: Vec<Option<(f64, u64, usize)>> = Vec::with_capacity(threads);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for (ci, md) in min_dist.chunks_mut(chunk).enumerate() {
                let lo = ci * chunk;
                let in_set = &in_set;
                handles.push(scope.spawn(move || {
                    let mut best: Option<(f64, u64, usize)> = None;
                    for (off, slot) in md.iter_mut().enumerate() {
                        let i = lo + off;
                        if in_set[i] {
                            continue;
                        }
                        let d = sig.estimated_distance(i, last);
                        if d < *slot {
                            *slot = d;
                        }
                        let better = match best {
                            None => true,
                            Some((bd, bs, _)) => *slot > bd || (*slot == bd && scores[i] > bs),
                        };
                        if better {
                            best = Some((*slot, scores[i], i));
                        }
                    }
                    best
                }));
            }
            for h in handles {
                chunk_bests.push(h.join().expect("frozen selection chunk"));
            }
        });
        let mut best: Option<(f64, u64, usize)> = None;
        for cb in chunk_bests.into_iter().flatten() {
            let better = match best {
                None => true,
                Some((bd, bs, _)) => cb.0 > bd || (cb.0 == bd && cb.1 > bs),
            };
            if better {
                best = Some(cb);
            }
        }
        let pick = best.expect("k <= m").2;
        selected.push(pick);
        in_set[pick] = true;
    }
    selected
}

/// `--mode kernels`: before/after pairs for the PR 7 kernel round —
/// parallel selection (frozen spawn-per-round engine vs persistent
/// pool), SigGen-IB (sequential full reclassification vs the
/// active-classification parallel pass), and the batched agreement /
/// Hamming kernels vs their per-pair predecessors.
fn run_kernels_mode(args: &Args) -> ExitCode {
    let n = ((1_000_000f64 * args.scale) as usize).max(2_000);
    let t: usize = args.get_or("t", 128);
    let k_arg: usize = args.get_or("k", 64);
    eprintln!("# loadgen kernels mode: n = {n}, t = {t}");

    let ds = Family::Ant.generate(n, 3, 1901);
    let sky_full = sfs(&ds, &MinDominance);
    // Cap the column count so the frozen per-pair engines stay tractable
    // at every scale; the passes only need the points as columns.
    let sky: Vec<usize> = sky_full.into_iter().take(1024).collect();
    let m = sky.len();
    let k = k_arg.min(m);
    let fam = HashFamily::new(t, 19);
    let out = sig_gen_if(&ds, &MinDominance, &sky, &fam);
    eprintln!("# skyline columns m = {m}, k = {k}");

    // Parallel greedy selection: frozen spawn-per-round chunked engine
    // vs the persistent-pool slot-major engine, both at 4 threads.
    let sel_iters = 10;
    let frozen = frozen_parallel_selection(&out.matrix, &out.scores, k, 4);
    let dist = SignatureDistance::new(&out.matrix);
    let current = select_diverse_parallel(
        &dist,
        &out.scores,
        k,
        SeedRule::MaxDominance,
        TieBreak::MaxDominance,
        4,
    )
    .expect("parallel selection");
    assert_eq!(frozen, current, "engines must pick identical points");
    let (_, sel_before) = time_ms(|| {
        for _ in 0..sel_iters {
            black_box(frozen_parallel_selection(&out.matrix, &out.scores, k, 4));
        }
    });
    let (_, sel_after) = time_ms(|| {
        for _ in 0..sel_iters {
            let dist = SignatureDistance::new(&out.matrix);
            black_box(
                select_diverse_parallel(
                    &dist,
                    &out.scores,
                    k,
                    SeedRule::MaxDominance,
                    TieBreak::MaxDominance,
                    4,
                )
                .expect("parallel selection"),
            );
        }
    });
    let selection = KernelPair {
        name: "selection_par4_old_vs_new",
        before_ms: sel_before,
        after_ms: sel_after,
    };

    // SigGen-IB: the paper's Fig. 4 full-reclassification pass (the
    // reference the identity suites compare against) vs the
    // active-classification 4-thread partitioned pass.
    let pts: Vec<&[f64]> = sky.iter().map(|&s| ds.point(s)).collect();
    let tree = RTree::bulk_load(&ds, 4096);
    let mut pool = BufferPool::new(1 << 24);
    let (ib_seq, _) = sig_gen_ib(&tree, &mut pool, &pts, &fam);
    let mut pool = BufferPool::new(1 << 24);
    let (ib_par, _) = sig_gen_ib_parallel(&tree, &mut pool, &pts, &fam, 4);
    assert_eq!(ib_seq.matrix, ib_par.matrix, "IB passes must agree");
    assert_eq!(ib_seq.scores, ib_par.scores, "IB scores must agree");
    let (_, ib_before) = time_ms(|| {
        let mut pool = BufferPool::new(1 << 24);
        black_box(sig_gen_ib(&tree, &mut pool, &pts, &fam));
    });
    let (_, ib_after) = time_ms(|| {
        let mut pool = BufferPool::new(1 << 24);
        black_box(sig_gen_ib_parallel(&tree, &mut pool, &pts, &fam, 4));
    });
    let siggen_ib = KernelPair {
        name: "siggen_ib_seq_vs_par4",
        before_ms: ib_before,
        after_ms: ib_after,
    };

    // One-vs-all agreement distances: hoisted per-pair column loop (the
    // pre-PR 7 distances_row) vs the slot-major batched kernel. The sums
    // accumulate the same values in the same order, so they must be
    // bit-identical.
    let agr_rounds = 64.min(m);
    let agr_iters = 5;
    let mut row = vec![0.0f64; m];
    let before_sum = {
        let mut acc = 0.0f64;
        for p in 0..agr_rounds {
            let col = out.matrix.column(p);
            for j in 0..m {
                acc += 1.0 - SignatureMatrix::similarity_between(col, out.matrix.column(j));
            }
        }
        acc
    };
    let slots = SlotMajorSignatures::from_matrix(&out.matrix);
    let after_sum = {
        let mut acc = 0.0f64;
        for p in 0..agr_rounds {
            slots.distances_into(p, 0, &mut row);
            for &d in row.iter() {
                acc += d;
            }
        }
        acc
    };
    assert_eq!(
        before_sum.to_bits(),
        after_sum.to_bits(),
        "batched agreement must be bit-identical"
    );
    let (_, agr_before) = time_ms(|| {
        for _ in 0..agr_iters {
            let mut acc = 0.0f64;
            for p in 0..agr_rounds {
                let col = out.matrix.column(p);
                for j in 0..m {
                    acc += 1.0 - SignatureMatrix::similarity_between(col, out.matrix.column(j));
                }
            }
            black_box(acc);
        }
    });
    let (_, agr_after) = time_ms(|| {
        for _ in 0..agr_iters {
            // One transpose per selection, amortised over its rounds —
            // exactly the production shape in SignatureDistance::new.
            let slots = SlotMajorSignatures::from_matrix(&out.matrix);
            let mut acc = 0.0f64;
            for p in 0..agr_rounds {
                slots.distances_into(p, 0, &mut row);
                for &d in row.iter() {
                    acc += d;
                }
            }
            black_box(acc);
        }
    });
    let agreement = KernelPair {
        name: "minhash_agreement_batched",
        before_ms: agr_before,
        after_ms: agr_after,
    };

    // One-vs-all Hamming distances: per-pair zone-row agreement vs the
    // packed word-at-a-time popcount rows.
    let buckets: usize = args.get_or("buckets", 8);
    let params = LshParams::from_threshold(t, 0.4).expect("lsh params");
    let zones = params.zones;
    let idx = LshIndex::build(&out.matrix, params, buckets, 23).expect("lsh index");
    let before_sum = {
        let mut acc = 0.0f64;
        for p in 0..agr_rounds {
            let zr = idx.zone_row(p);
            for j in 0..m {
                acc += LshIndex::hamming_between(zr, idx.zone_row(j), zones) as f64;
            }
        }
        acc
    };
    let after_sum = {
        let mut acc = 0.0f64;
        for p in 0..agr_rounds {
            idx.hamming_row_into(p, 0, &mut row);
            for &d in row.iter() {
                acc += d;
            }
        }
        acc
    };
    assert_eq!(
        before_sum.to_bits(),
        after_sum.to_bits(),
        "packed Hamming must be bit-identical"
    );
    let ham_iters = 20;
    let (_, ham_before) = time_ms(|| {
        for _ in 0..ham_iters {
            let mut acc = 0.0f64;
            for p in 0..agr_rounds {
                let zr = idx.zone_row(p);
                for j in 0..m {
                    acc += LshIndex::hamming_between(zr, idx.zone_row(j), zones) as f64;
                }
            }
            black_box(acc);
        }
    });
    let (_, ham_after) = time_ms(|| {
        for _ in 0..ham_iters {
            let mut acc = 0.0f64;
            for p in 0..agr_rounds {
                idx.hamming_row_into(p, 0, &mut row);
                for &d in row.iter() {
                    acc += d;
                }
            }
            black_box(acc);
        }
    });
    let hamming = KernelPair {
        name: "lsh_hamming_batched",
        before_ms: ham_before,
        after_ms: ham_after,
    };

    let checked = [selection, siggen_ib];
    let info = [agreement, hamming];
    for p in checked.iter().chain(&info) {
        eprintln!(
            "{:>26}: before {:>9.2}ms  after {:>9.2}ms  speedup {:.2}x",
            p.name,
            p.before_ms,
            p.after_ms,
            p.speedup()
        );
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::from("{\n  \"bench\": \"pr7-kernels\",\n");
    json.push_str(&format!(
        "  \"scale\": {},\n  \"n\": {n},\n  \"m\": {m},\n  \"t\": {t},\n  \"k\": {k},\n  \
         \"nproc\": {nproc},\n",
        args.scale
    ));
    json.push_str("  \"checked\": {\n");
    let rows: Vec<String> = checked.iter().map(KernelPair::json).collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  },\n  \"informational\": {\n");
    let rows: Vec<String> = info.iter().map(KernelPair::json).collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  }\n}\n");

    if let Some(baseline_path) = args.get("check") {
        let baseline = match std::fs::read_to_string(baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut failed = false;
        for p in &checked {
            let Some(base) = baseline_speedup(&baseline, p.name) else {
                eprintln!("CHECK {:>24}: missing from baseline — failing", p.name);
                failed = true;
                continue;
            };
            // The committed speedup may halve before failing, but the
            // new engine must never lose outright to the frozen one.
            let floor = (base / 2.0).max(1.0);
            let ok = p.speedup() >= floor;
            eprintln!(
                "CHECK {:>24}: {:.2}x vs baseline {:.2}x (floor {:.2}x) — {}",
                p.name,
                p.speedup(),
                base,
                floor,
                if ok { "ok" } else { "REGRESSED" }
            );
            failed |= !ok;
        }
        if failed {
            return ExitCode::FAILURE;
        }
        eprintln!("loadgen kernels --check: all gates passed");
    } else {
        let out_path = args.get("out").unwrap_or("BENCH_pr7.json");
        if let Err(e) = std::fs::write(out_path, &json) {
            eprintln!("cannot write {out_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {out_path}");
    }
    ExitCode::SUCCESS
}

/// One topology's measurements in `--mode cluster`.
struct TopoReport {
    workers: usize,
    cold_ms: f64,
    warm_ms: f64,
    qps: f64,
    p50: f64,
    p99: f64,
    fan_qps: f64,
    fan_p50: f64,
    fan_p99: f64,
    selected: Vec<u64>,
}

impl TopoReport {
    fn json(&self) -> String {
        format!(
            "    {{\"workers\": {}, \"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \
             \"throughput_qps\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"fanout_qps\": {:.1}, \"fanout_p50_ms\": {:.3}, \"fanout_p99_ms\": {:.3}}}",
            self.workers,
            self.cold_ms,
            self.warm_ms,
            self.qps,
            self.p50,
            self.p99,
            self.fan_qps,
            self.fan_p50,
            self.fan_p99,
        )
    }
}

/// Measures one topology: `workers == 0` is the single-process
/// baseline; otherwise a coordinator fans out to that many in-process
/// worker servers over real TCP sockets.
fn run_cluster_topology(
    path: &str,
    workers: usize,
    conns: usize,
    queries: usize,
    k: usize,
    t: usize,
) -> TopoReport {
    let mut worker_handles = Vec::with_capacity(workers);
    let mut addrs = Vec::with_capacity(workers);
    for _ in 0..workers {
        let h = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            ..ServerConfig::default()
        })
        .expect("bind worker")
        .spawn()
        .expect("spawn worker");
        addrs.push(h.addr().to_string());
        worker_handles.push(h);
    }
    let cluster = (workers > 0).then(|| ClusterConfig {
        workers: addrs.clone(),
        replication: 1,
        shards: (2 * workers).max(4),
        fanout_timeout_ms: 10_000,
    });
    let handle = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: conns.max(2),
        cluster,
        ..ServerConfig::default()
    })
    .expect("bind coordinator")
    .spawn()
    .expect("spawn coordinator");
    let addr = handle.addr();

    let mut probe = Client::connect(addr).expect("connect");
    probe.load("bench", path).expect("load");

    let mut spec = QuerySpec::new("bench", k);
    spec.t = t;
    spec.seed = 7;
    let (selected, cold_ms) = query_once(&mut probe, &spec);
    let mut warm_ms = f64::INFINITY;
    for _ in 0..5 {
        let (sel, ms) = query_once(&mut probe, &spec);
        assert_eq!(sel, selected, "warm cluster query changed the answer");
        warm_ms = warm_ms.min(ms);
    }

    // Distinct seeds: every query is a fresh fan-out (or a cold local
    // fingerprint at 0 workers) — the distributed work itself, not a
    // memo hit.
    let t0 = Instant::now();
    let mut fan_ms = Vec::with_capacity(queries);
    for q in 0..queries {
        let mut s = spec.clone();
        s.seed = 1_000 + q as u64;
        let (_, ms) = query_once(&mut probe, &s);
        fan_ms.push(ms);
    }
    let fan_qps = queries as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    fan_ms.sort_by(|a, b| a.total_cmp(b));
    let (fan_p50, fan_p99) = (percentile(&fan_ms, 0.50), percentile(&fan_ms, 0.99));

    // Concurrent warm throughput — the steady state every topology
    // serves from the coordinator's memo.
    let t0 = Instant::now();
    let mut all_ms: Vec<f64> = Vec::with_capacity(conns * queries);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..conns {
            let spec = spec.clone();
            let expected = &selected;
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut lat = Vec::with_capacity(queries);
                for _ in 0..queries {
                    let (sel, ms) = query_once(&mut client, &spec);
                    assert_eq!(
                        &sel, expected,
                        "concurrent cluster query changed the answer"
                    );
                    lat.push(ms);
                }
                lat
            }));
        }
        for h in handles {
            all_ms.extend(h.join().expect("client thread"));
        }
    });
    let qps = (conns * queries) as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    all_ms.sort_by(|a, b| a.total_cmp(b));
    let (p50, p99) = (percentile(&all_ms, 0.50), percentile(&all_ms, 0.99));

    probe.shutdown().expect("coordinator shutdown");
    handle.join().expect("coordinator exit");
    for (a, h) in addrs.iter().zip(worker_handles) {
        let mut c = Client::connect(a.as_str()).expect("connect worker");
        c.shutdown().ok();
        h.join().ok();
    }

    TopoReport {
        workers,
        cold_ms,
        warm_ms,
        qps,
        p50,
        p99,
        fan_qps,
        fan_p50,
        fan_p99,
        selected,
    }
}

/// `--mode cluster`: single-process vs 2- and 4-worker coordinator
/// topologies over the same dataset — bit-identity asserted, timings
/// informational.
fn run_cluster_mode(args: &Args) -> ExitCode {
    let n = ((1_000_000f64 * args.scale) as usize).max(2_000);
    let conns: usize = args.get_or("conns", 4);
    let queries: usize = args.get_or("queries", 16);
    let k: usize = args.get_or("k", 10);
    let t: usize = args.get_or("t", 64);
    eprintln!("# loadgen cluster mode: n = {n}, {conns} conns x {queries} queries");

    let data = Family::Ant.generate(n, 3, 91);
    let path = format!("target/loadgen_cluster_{}.csv", std::process::id());
    io::write_csv(&data, &path).expect("write dataset");

    let topologies: Vec<TopoReport> = [0usize, 2, 4]
        .iter()
        .map(|&w| run_cluster_topology(&path, w, conns, queries, k, t))
        .collect();
    let _ = std::fs::remove_file(&path);

    for topo in &topologies[1..] {
        assert_eq!(
            topo.selected, topologies[0].selected,
            "{}-worker cluster diverged from the single-process answer",
            topo.workers
        );
    }
    for topo in &topologies {
        eprintln!(
            "{} workers: cold {:>8.2}ms  warm {:>6.2}ms  {:>7.0} q/s (p99 {:.2}ms)  \
             fan-out {:>6.1} q/s (p99 {:.2}ms)",
            topo.workers,
            topo.cold_ms,
            topo.warm_ms,
            topo.qps,
            topo.p99,
            topo.fan_qps,
            topo.fan_p99,
        );
    }

    let rows: Vec<String> = topologies.iter().map(TopoReport::json).collect();
    let json = format!(
        "{{\n  \"bench\": \"pr8-loadgen-cluster\",\n  \"scale\": {},\n  \"n\": {n},\n  \
         \"conns\": {conns},\n  \"queries_per_conn\": {queries},\n  \"k\": {k},\n  \
         \"t\": {t},\n  \"answers_identical\": true,\n  \"topologies\": [\n{}\n  ]\n}}\n",
        args.scale,
        rows.join(",\n"),
    );

    if let Some(baseline_path) = args.get("check") {
        // Bit-identity already gated above (the asserts); the timings
        // are informational, so the baseline check only confirms the
        // committed report describes this bench.
        let baseline = match std::fs::read_to_string(baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let ok = baseline.contains("pr8-loadgen-cluster")
            && baseline.contains("\"answers_identical\": true");
        eprintln!(
            "CHECK cluster contract (identical answers, report {baseline_path}) — {}",
            if ok { "ok" } else { "REGRESSED" }
        );
        if !ok {
            return ExitCode::FAILURE;
        }
    } else {
        let out = args.get("out").unwrap_or("BENCH_pr8.json");
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {out}");
    }
    ExitCode::SUCCESS
}

/// One serving shape's measurements in `--mode pipeline`.
struct PipeReport {
    name: &'static str,
    qps: f64,
    p50: f64,
    p99: f64,
}

impl PipeReport {
    fn json(&self) -> String {
        format!(
            "  \"{}_qps\": {:.1},\n  \"{}_p50_ms\": {:.3},\n  \"{}_p99_ms\": {:.3}",
            self.name, self.qps, self.name, self.p50, self.name, self.p99
        )
    }
}

/// Splits a `BATCH` payload's `"results":[...]` array into its
/// per-item objects (flat objects, so splitting on `"},{"` is exact).
fn batch_results(payload: &str) -> Vec<String> {
    let start = payload.find("\"results\":[").expect("results array") + "\"results\":[".len();
    let end = payload[start..].rfind(']').expect("results close") + start;
    payload[start..end]
        .split("},{")
        .map(str::to_string)
        .collect()
}

/// Fires `conns` client threads, each running `bursts` bursts through
/// `burst` (which returns the burst's round-trip in ms and verifies
/// every reply), and reports aggregate throughput plus per-query
/// latency quantiles (burst round-trip divided by `depth`).
fn pipeline_load<F>(
    name: &'static str,
    addr: std::net::SocketAddr,
    conns: usize,
    bursts: usize,
    depth: usize,
    framed: bool,
    burst: F,
) -> PipeReport
where
    F: Fn(&mut Client) -> f64 + Sync,
{
    let t0 = Instant::now();
    let mut per_query_ms: Vec<f64> = Vec::with_capacity(conns * bursts * depth);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..conns {
            let burst = &burst;
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                if framed {
                    client.hello().expect("HELLO negotiation");
                }
                let mut lat = Vec::with_capacity(bursts * depth);
                for _ in 0..bursts {
                    let rtt = burst(&mut client);
                    lat.extend(std::iter::repeat_n(rtt / depth as f64, depth));
                }
                lat
            }));
        }
        for h in handles {
            per_query_ms.extend(h.join().expect("client thread"));
        }
    });
    let qps = (conns * bursts * depth) as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    per_query_ms.sort_by(|a, b| a.total_cmp(b));
    let (p50, p99) = (
        percentile(&per_query_ms, 0.50),
        percentile(&per_query_ms, 0.99),
    );
    PipeReport {
        name,
        qps,
        p50,
        p99,
    }
}

/// `--mode pipeline`: the PR 9 serving shapes — depth-1 text (the
/// BENCH_pr3 single-request path), pipelined text, pipelined binary,
/// and `BATCH` — over the same warm query, answers asserted identical.
fn run_pipeline_mode(args: &Args) -> ExitCode {
    let n = ((1_000_000f64 * args.scale) as usize).max(2_000);
    let conns: usize = args.get_or("conns", 4);
    let depth: usize = args.get_or("depth", 32);
    let bursts: usize = args.get_or("bursts", 16);
    let k: usize = args.get_or("k", 10);
    let t: usize = args.get_or("t", 64);
    let threads: usize = args.get_or("threads", conns);
    eprintln!(
        "# loadgen pipeline mode: n = {n}, {conns} conns x {bursts} bursts x depth {depth}"
    );

    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads,
        cache_bytes: 64 << 20,
        ..ServerConfig::default()
    })
    .expect("bind");
    server
        .registry()
        .insert_dataset("bench", Family::Ant.generate(n, 3, 91));
    let handle = server.spawn().expect("spawn server");
    let addr = handle.addr();

    let mut spec = QuerySpec::new("bench", k);
    spec.t = t;
    spec.seed = 7;
    let line = spec.to_line();

    // Warm the fingerprint once; every timed shape below replays this
    // query and must return this selected set.
    let mut probe = Client::connect(addr).expect("connect");
    let (expected, cold_ms) = query_once(&mut probe, &spec);
    eprintln!("# cold fingerprint {cold_ms:.1}ms, selected |{}|", expected.len());
    let verify = |raw: &str| {
        let payload = parse_response(raw).expect("OK reply");
        let selected = json_u64_array(&payload, "selected").expect("selected array");
        assert_eq!(selected, expected, "serving shape changed the answer");
    };

    // Depth 1, text: one request, one reply, one round trip — the
    // exact shape BENCH_pr3's throughput leg measures.
    let single = pipeline_load("single", addr, conns, bursts * depth, 1, false, |client| {
        let t0 = Instant::now();
        let raw = client.request(&line).expect("request");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        verify(&raw);
        ms
    });

    // Depth N, text then binary: one flush and one round trip per
    // burst; replies must come back in order.
    let lines = vec![line.clone(); depth];
    let pipe_burst = |client: &mut Client| {
        let t0 = Instant::now();
        let replies = client.pipeline(&lines).expect("pipeline");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        for raw in &replies {
            verify(raw);
        }
        ms
    };
    let pipe_text = pipeline_load("pipe_text", addr, conns, bursts, depth, false, pipe_burst);
    let pipe_bin = pipeline_load("pipe_bin", addr, conns, bursts, depth, true, pipe_burst);

    // BATCH: one request resolves the fingerprint once and runs all
    // `depth` selections server-side — no per-item wire cost at all.
    let mut batch = BatchSpec::new("bench", vec![(k, Method::MinHash); depth]);
    batch.t = t;
    batch.seed = 7;
    let batch_rep = pipeline_load("batch", addr, conns, bursts, depth, false, |client| {
        let t0 = Instant::now();
        let payload = client.batch(&batch).expect("batch");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let results = batch_results(&payload);
        assert_eq!(results.len(), depth, "BATCH must answer every item");
        for item in &results {
            let selected = json_u64_array(item, "selected").expect("selected array");
            assert_eq!(selected, expected, "BATCH item changed the answer");
        }
        ms
    });

    let stats = probe.stats().expect("stats");
    let pipelined_reqs = json_u64(&stats, "pipeline_count").unwrap_or(0);
    let hellos = json_u64(&stats, "hellos").unwrap_or(0);
    probe.shutdown().expect("shutdown");
    handle.join().expect("server exit");
    assert!(
        pipelined_reqs > 0,
        "the pipelined legs must batch requests per read: {stats}"
    );
    assert!(hellos >= conns as u64, "binary legs must negotiate: {stats}");

    let shapes = [single, pipe_text, pipe_bin, batch_rep];
    for s in &shapes {
        eprintln!(
            "{:>9}: {:>8.0} q/s  p50 {:.3}ms  p99 {:.3}ms",
            s.name, s.qps, s.p50, s.p99
        );
    }
    let best_pipe = shapes[1].qps.max(shapes[2].qps).max(shapes[3].qps);
    let ratio = best_pipe / shapes[0].qps.max(1e-9);
    let pipe_p99 = shapes[1].p99.max(shapes[2].p99);
    eprintln!("pipelined/single ratio {ratio:.1}x  pipelined p99 {pipe_p99:.3}ms");

    // The headline acceptance compares against the committed PR 3
    // report: the old blocking server's single-request text throughput
    // on this same workload (warm queries, 4 conns).
    let pr3_path = args.get("pr3").unwrap_or("BENCH_pr3.json");
    let pr3_single = std::fs::read_to_string(pr3_path)
        .ok()
        .and_then(|s| baseline_f64(&s, "throughput_qps"));
    let vs_pr3 = pr3_single.map(|qps| best_pipe / qps.max(1e-9));
    let pr3_json = match (pr3_single, vs_pr3) {
        (Some(qps), Some(r)) => {
            eprintln!("vs BENCH_pr3 single-request path ({qps:.1} q/s): {r:.1}x");
            format!("  \"pr3_single_qps\": {qps:.1},\n  \"vs_pr3_single\": {r:.3},\n")
        }
        _ => String::new(),
    };

    let rows: Vec<String> = shapes.iter().map(PipeReport::json).collect();
    let json = format!(
        "{{\n  \"bench\": \"pr9-loadgen-pipeline\",\n  \"scale\": {},\n  \"n\": {n},\n  \
         \"conns\": {conns},\n  \"depth\": {depth},\n  \"bursts\": {bursts},\n  \
         \"k\": {k},\n  \"t\": {t},\n  \"server_threads\": {threads},\n{},\n  \
         \"pipeline_over_single\": {ratio:.3},\n  \"pipelined_p99_ms\": {pipe_p99:.3},\n\
         {pr3_json}  \"answers_identical\": true\n}}\n",
        args.scale,
        rows.join(",\n"),
    );

    if let Some(baseline_path) = args.get("check") {
        let baseline = match std::fs::read_to_string(baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let Some(base_ratio) = baseline_f64(&baseline, "pipeline_over_single") else {
            eprintln!("baseline {baseline_path} lacks pipeline_over_single");
            return ExitCode::FAILURE;
        };
        // The ratio is within-run (same server, same box, same binary),
        // so it transfers across machines; a quarter of the committed
        // baseline (never below 2x) catches the event loop losing its
        // batching without flaking on scheduler noise.
        let floor = (base_ratio / 4.0).max(2.0);
        let ratio_ok = ratio >= floor;
        eprintln!(
            "CHECK pipeline_over_single: {ratio:.2}x vs baseline {base_ratio:.2}x (floor {floor:.2}x) — {}",
            if ratio_ok { "ok" } else { "REGRESSED" }
        );
        // The acceptance latency bound is absolute and generous enough
        // to hold on small CI runners: warm pipelined queries must stay
        // under 5 ms at p99.
        let p99_ok = pipe_p99 < 5.0;
        eprintln!(
            "CHECK pipelined p99: {pipe_p99:.3}ms (bound 5.000ms) — {}",
            if p99_ok { "ok" } else { "REGRESSED" }
        );
        // The headline 10x: best pipelined throughput vs the committed
        // PR 3 single-request figure. Cross-machine, but the margin is
        // wide — the memo + pipelining path answers a warm query in a
        // few microseconds of server work, so any runner that could
        // record BENCH_pr3-like numbers clears 10x comfortably.
        let pr3_ok = match vs_pr3 {
            Some(r) => {
                let ok = r >= 10.0;
                eprintln!(
                    "CHECK vs BENCH_pr3 single-request path: {r:.1}x (floor 10.0x) — {}",
                    if ok { "ok" } else { "REGRESSED" }
                );
                ok
            }
            None => {
                eprintln!("CHECK vs BENCH_pr3: {pr3_path} unreadable — failing");
                false
            }
        };
        if !ratio_ok || !p99_ok || !pr3_ok {
            return ExitCode::FAILURE;
        }
    } else {
        let out = args.get("out").unwrap_or("BENCH_pr9.json");
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {out}");
    }
    ExitCode::SUCCESS
}

/// Anticorrelated points shifted up by `delta` in every dimension —
/// "new data that is mostly worse", so most of it is dominated and only
/// a few new skyline columns appear.
fn shifted_block(a: usize, seed: u64, delta: f64) -> Dataset {
    let raw = Family::Ant.generate(a, 3, seed);
    let rows: Vec<Vec<f64>> = (0..raw.len())
        .map(|i| raw.point(i).iter().map(|v| v + delta).collect())
        .collect();
    Dataset::from_rows(3, &rows)
}

fn main() -> ExitCode {
    let args = Args::parse();
    if args.get("mode") == Some("append") {
        return run_append_mode(&args);
    }
    if args.get("mode") == Some("restart") {
        return run_restart_mode(&args);
    }
    if args.get("mode") == Some("kernels") {
        return run_kernels_mode(&args);
    }
    if args.get("mode") == Some("cluster") {
        return run_cluster_mode(&args);
    }
    if args.get("mode") == Some("pipeline") {
        return run_pipeline_mode(&args);
    }
    let n = ((1_000_000f64 * args.scale) as usize).max(2_000);
    let conns: usize = args.get_or("conns", 4);
    let queries: usize = args.get_or("queries", 25);
    let k: usize = args.get_or("k", 10);
    let t: usize = args.get_or("t", 64);
    let threads: usize = args.get_or("threads", conns);

    eprintln!("# loadgen: scale {} (n = {n}), {conns} conns x {queries} queries, {threads} server threads", args.scale);

    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads,
        cache_bytes: 64 << 20,
        ..ServerConfig::default()
    })
    .expect("bind");
    server
        .registry()
        .insert_dataset("bench", Family::Ant.generate(n, 3, 91));
    let handle = server.spawn().expect("spawn server");
    let addr = handle.addr();

    let mut spec = QuerySpec::new("bench", k);
    spec.t = t;
    spec.seed = 7;

    // Cold: the first query fingerprints; warm: best of 5 cache hits.
    let mut probe = Client::connect(addr).expect("connect");
    let (expected, cold_ms) = query_once(&mut probe, &spec);
    assert_eq!(
        expected.len(),
        k.min(expected.len()),
        "query returned a selection"
    );
    let mut warm_ms = f64::INFINITY;
    for _ in 0..5 {
        let (sel, ms) = query_once(&mut probe, &spec);
        assert_eq!(sel, expected, "warm query changed the answer");
        warm_ms = warm_ms.min(ms);
    }

    // Concurrent load: conns clients x queries warm queries each.
    let t0 = Instant::now();
    let mut all_ms: Vec<f64> = Vec::with_capacity(conns * queries);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..conns {
            let spec = spec.clone();
            let expected = &expected;
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut lat = Vec::with_capacity(queries);
                for _ in 0..queries {
                    let (sel, ms) = query_once(&mut client, &spec);
                    assert_eq!(&sel, expected, "concurrent query changed the answer");
                    lat.push(ms);
                }
                lat
            }));
        }
        for h in handles {
            all_ms.extend(h.join().expect("client thread"));
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let qps = (conns * queries) as f64 / wall_s.max(1e-9);
    all_ms.sort_by(|a, b| a.total_cmp(b));
    let (p50, p99) = (percentile(&all_ms, 0.50), percentile(&all_ms, 0.99));

    let stats = probe.stats().expect("stats");
    let hits = json_u64(&stats, "cache_hits").unwrap_or(0);
    let misses = json_u64(&stats, "cache_misses").unwrap_or(0);
    probe.shutdown().expect("shutdown");
    handle.join().expect("server exit");

    eprintln!(
        "cold {cold_ms:.2}ms  warm {warm_ms:.2}ms  (ratio {:.1}x)  throughput {qps:.0} q/s  p50 {p50:.2}ms  p99 {p99:.2}ms  cache {hits}h/{misses}m",
        cold_ms / warm_ms.max(1e-9)
    );
    assert!(hits > 0, "warm queries must hit the fingerprint cache");

    let json = report(
        args.scale, n, conns, queries, threads, cold_ms, warm_ms, qps, p50, p99, hits, misses,
    );

    if let Some(baseline_path) = args.get("check") {
        let baseline = match std::fs::read_to_string(baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let (Some(base_ratio), Some(base_n)) = (
            baseline_f64(&baseline, "cold_over_warm"),
            baseline_f64(&baseline, "n"),
        ) else {
            eprintln!("baseline {baseline_path} lacks cold_over_warm / n");
            return ExitCode::FAILURE;
        };
        let ratio = cold_ms / warm_ms.max(1e-9);
        // Pro-rate by cardinality, never below 4x: even the tiniest run
        // must show the cache clearly beating re-fingerprinting.
        let floor = (base_ratio / 4.0 * (n as f64 / base_n.max(1.0))).max(4.0);
        let ok = ratio >= floor;
        eprintln!(
            "CHECK cold_over_warm: {ratio:.2}x at n={n} vs baseline {base_ratio:.2}x at n={base_n} (floor {floor:.2}x) — {}",
            if ok { "ok" } else { "REGRESSED" }
        );
        if !ok {
            return ExitCode::FAILURE;
        }
    } else {
        let out = args.get("out").unwrap_or("BENCH_pr3.json");
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {out}");
    }
    ExitCode::SUCCESS
}
