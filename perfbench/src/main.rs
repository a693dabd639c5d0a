//! `perfbench` — the repository's serving benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <select-mix|append-refold|cluster-cold|memo-pipelined> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs `skydiver-serve` in this process over loopback
//! TCP and drives it as a closed loop: one client thread on one
//! connection sends an operation sequence generated from `--seed`, of
//! a fixed length per workload. Every reply is checked against an
//! in-process reference, and the `STATS` counter growth against what
//! the sequence implies. The benchmark measures only from outside the
//! servers.
//!
//! The run is cut into windows; `qps`, `p50_ms` and `tail_ms` are the
//! median window's, and every reported time is scaled by the host-speed
//! index of the cores the workload runs on (see `speed`), so a shared
//! host's slow spells do not read as the program's. The unscaled
//! figures are printed beside them.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs the
//! same measured phase, then replays the sequence in-process twice,
//! untraced and traced, calling each layer's public functions, and
//! reports the per-layer metrics; the spans are written to
//! `.bench_work/trace-<workload>.jsonl`. The last stdout line is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (each
//! metric a value and its unit). Lines before it start with `#`.
//!
//! `--seconds` is accepted, as the benchmark's command line requires,
//! and recorded in the output; it does not size the run, whose
//! operation count is fixed so that every run does the same work.

mod measure;
mod plan;
mod replay;
mod speed;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use measure::{measure, Deployment, Inputs, Lines, Measured, Reference};
use plan::{median, summarize_phase, Plan, ThreadPlan, Workload, SETUPS};
use replay::{replay, Replay};
use trace::{summarize, LayerStat, ROOT};

const USAGE: &str = "usage: perfbench --workload <select-mix|append-refold|cluster-cold|memo-pipelined> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = match flag.as_str() {
            f @ ("--workload" | "--seed" | "--seconds" | "--trace") => f,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
        if flags.insert(name, value).is_some() {
            return Err(format!("{name} given twice"));
        }
    }
    let get = |name: &str| flags.get(name).copied().ok_or_else(|| format!("{name} is required"));
    let workload = Workload::parse(get("--workload")?).ok_or("unknown --workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Report {
    notes: Vec<String>,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for note in &report.notes {
                println!("# {note}");
            }
            let metrics: Vec<String> = report
                .metrics
                .iter()
                .map(|m| {
                    let value = if m.value.is_finite() { m.value } else { 0.0 };
                    format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
                })
                .collect();
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                report.correct,
                report.attempted,
                report.failed,
                metrics.join(", ")
            );
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = ThreadPlan::for_workload(w);
    threads.check(nproc)?;
    // Every time the run reports is scaled by the speed index of the
    // cores the workload runs on (see `speed`).
    let cores = threads.cores(&speed::allowed_cores()?);
    let plan = Plan::new(w, args.seed);
    let mut notes = vec![
        format!(
            "workload={} seed={} seconds={} ops={} queries={}",
            w.name(),
            args.seed,
            args.seconds,
            plan.ops.len(),
            plan.queries()
        ),
        format!("nproc={nproc} threads: {}", threads.describe()),
    ];
    if let [core] = cores[..] {
        speed::pin(core)?;
    }
    notes.push(format!("cores {cores:?}"));

    // Inputs and reference answers are made before any clock starts.
    let inputs = Inputs::write(&plan)?;
    let lines = Lines::new(&plan, &inputs);
    let reference = Reference::compute(&plan, &inputs)?;

    // Set up several times; the last deployment serves the measured
    // phase, and the peak RSS counts from its set-up on.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_f = Vec::with_capacity(SETUPS);
    let mut last = None;
    for i in 0..SETUPS {
        if let Some(dep) = last.take() {
            Deployment::stop(dep)?;
        }
        if i + 1 == SETUPS {
            wire::reset_rss_peak()?;
        }
        let before = speed::probe(&cores)?;
        let t0 = Instant::now();
        let dep = Deployment::start(&plan, &inputs, &reference)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        setup_f.push((before + speed::probe(&cores)?) / 2.0);
        last = Some(dep);
    }
    let mut dep = last.expect("SETUPS > 0");
    let m = measure(&plan, &lines, &reference, &mut dep, &cores)?;
    let rss_peak_mb = wire::rss_peak_mb()?;
    let deal = dep.deal.clone();
    dep.stop()?;

    if !deal.is_empty() {
        let shards: Vec<String> = deal.iter().enumerate().map(|(s, w)| format!("shard{s}->w{w}")).collect();
        notes.push(format!("deal: {}", shards.join(" ")));
    }
    let sum = summarize_phase(&m.steps, &m.query_ms, |t| m.probes.index(t))
        .ok_or("too few queries for a tail percentile")?;
    let raw = summarize_phase(&m.steps, &m.query_ms, |_| 1.0).ok_or("too few queries for a tail percentile")?;
    let indices: Vec<f64> = m.probes.at.iter().map(|p| p.1).collect();
    notes.push(format!(
        "{} query latencies in {} windows; qps, p50_ms and tail_ms (p{:.1}) are the median windows'",
        m.query_ms.len(),
        sum.windows,
        sum.tail_pct
    ));
    notes.push(format!(
        "host-speed index: median {:.3} over {} probes (min {:.3}, max {:.3}); unscaled qps {:.1} p50_ms {:.4} tail_ms {:.4}",
        median(&indices),
        indices.len(),
        indices.iter().copied().fold(f64::INFINITY, f64::min),
        indices.iter().copied().fold(0.0, f64::max),
        raw.qps,
        raw.p50_ms,
        raw.tail_ms
    ));
    let setup_scaled: Vec<f64> = setup_s.iter().zip(&setup_f).map(|(s, f)| s / f).collect();
    notes.push(format!(
        "setup_s is the median of {SETUPS} set-ups {setup_scaled:.4?}, unscaled {setup_s:.4?}"
    ));
    notes.extend(m.counter_mismatches.iter().cloned());
    let attempted = plan.ops.len() as u64;
    let mut failed = m.failed;
    let mut correct = m.failed == 0 && m.counter_mismatches.is_empty();

    let metrics = if args.trace {
        let untraced = replay(&plan, &inputs, &lines, &reference, &deal, false)?;
        let traced = replay(&plan, &inputs, &lines, &reference, &deal, true)?;
        notes.push(format!("replayed {} of {} operations, untraced then traced", traced.ops, plan.ops.len()));
        for (name, r) in [("untraced", &untraced), ("traced", &traced)] {
            if r.wrong > 0 {
                notes.push(format!("the {name} replay differs from the reference on {} operations", r.wrong));
                failed += r.wrong;
                correct = false;
            }
        }
        let path = std::path::Path::new(".bench_work").join(format!("trace-{}.jsonl", w.name()));
        trace::write_spans(&traced.spans, &path).map_err(|e| format!("write {}: {e}", path.display()))?;
        notes.push(format!("spans written to {}", path.display()));
        layer_metrics(&plan, &m, &untraced, &traced, &mut notes)
    } else {
        vec![
            metric("qps", sum.qps, "1/s"),
            metric("p50_ms", sum.p50_ms, "ms"),
            metric("tail_ms", sum.tail_ms, "ms"),
            metric("success_rate", (attempted - m.failed.min(attempted)) as f64 / attempted as f64, "ratio"),
            metric("setup_s", median(&setup_scaled), "s"),
            metric("rss_peak_mb", rss_peak_mb, "MiB"),
        ]
    };
    Ok(Report {
        notes,
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Per-layer metrics: span means from the traced replay, counter
/// growth from `STATS` and the reply fields of the (untraced) measured
/// phase, and the residuals.
fn layer_metrics(
    plan: &Plan,
    m: &Measured,
    untraced: &Replay,
    traced: &Replay,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let layers = summarize(&traced.spans);
    let stat = |name: &str| layers.get(name).cloned().unwrap_or_default();
    let ms = |name: &str| stat(name).mean_ns() / 1e6;
    let us = |name: &str| stat(name).mean_ns() / 1e3;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let root = stat(ROOT);
    let requests = root.calls.max(1) as f64;
    let layer_sum_ns = (root.total_ns - root.self_ns) / requests;
    let ops = plan.ops.len() as f64;
    let queries = plan.queries() as f64;
    let replayed_queries = traced.queries as f64;
    let d = &m.delta;

    // Fan-out wall time beyond its slowest leg: legs queued on a busy
    // worker, frame transfer and thread hand-off.
    let mut wait = (0.0, 0u64);
    for (i, s) in traced.spans.iter().enumerate().filter(|(_, s)| s.name == "cluster.fanout") {
        let slowest = traced.spans[i..]
            .iter()
            .filter(|c| c.parent == Some(i) && c.name == "cluster.worker_fold")
            .map(|c| c.end_ns - c.start_ns)
            .max()
            .unwrap_or(0);
        wait.0 += (s.end_ns - s.start_ns - slowest) as f64;
        wait.1 += 1;
    }

    notes.push(format!(
        "traced replay: {:.1} ms per request, {:.1}% in layers, residual {:.1}%; untraced {:.1} ms",
        root.total_ns / requests / 1e6,
        100.0 * layer_sum_ns * requests / root.total_ns.max(1.0),
        100.0 * root.self_ns / root.total_ns.max(1.0),
        untraced.wall_ns / requests / 1e6,
    ));
    let mut table: Vec<(&&str, &LayerStat)> = layers.iter().filter(|(n, _)| **n != ROOT).collect();
    table.sort_by(|a, b| b.1.self_ns.total_cmp(&a.1.self_ns));
    for (name, l) in table {
        notes.push(format!(
            "layer {name:<24} calls {:>8}  mean {:>10.1} us  self {:>5.1}%",
            l.calls,
            l.mean_ns() / 1e3,
            100.0 * l.self_ns / root.total_ns.max(1.0)
        ));
    }

    vec![
        metric("protocol.parse_us", us("protocol.parse"), "us"),
        // What serving adds to the same layer calls: the measured time
        // per operation minus the untraced replay's.
        metric(
            "server.unattributed_us",
            (m.wall_s * 1e9 / ops - untraced.wall_ns / untraced.ops.max(1) as f64) / 1e3,
            "us",
        ),
        metric(
            "server.bytes_out_per_query",
            ratio(d.bytes_out.saturating_sub(m.stats_reply_bytes) as f64, ops),
            "bytes",
        ),
        // The STATS request read before the phase lands in the same
        // wake-up count, so it is one of the parsed requests.
        metric("server.pipeline_depth", ratio(ops + 1.0, d.pipeline_count as f64), "count"),
        metric("registry.resolve_us", us("registry.resolve"), "us"),
        metric("registry.fingerprint_ms", ms("registry.fingerprint"), "ms"),
        metric("registry.append_ms", ms("registry.append"), "ms"),
        metric(
            "registry.memo_hit_ratio",
            ratio(d.cache_hits as f64, (d.cache_hits + d.cache_misses) as f64),
            "ratio",
        ),
        metric("registry.selection_hit_ratio", ratio(d.selection_hits as f64, d.queries as f64), "ratio"),
        metric("cache.shards_reused_per_query", ratio(d.shards_reused as f64, d.queries as f64), "count"),
        metric("cache.evictions", d.cache_evictions as f64, "count"),
        metric("cache.bytes_resident", d.bytes_resident as f64, "bytes"),
        metric("data.concat_ms", ms("data.concat"), "ms"),
        metric("canonical.canonicalise_ms", ms("canonical.canonicalise"), "ms"),
        metric("skyline.sfs_ms", ms("skyline.sfs"), "ms"),
        metric("skyline.size", ratio(m.reply_skyline as f64, queries), "count"),
        metric("minhash.fold_ms", ms("minhash.fold"), "ms"),
        metric("minhash.merge_ms", ms("minhash.merge"), "ms"),
        metric("minhash.scanned_rows", ratio(traced.scanned_rows as f64, replayed_queries), "count"),
        metric(
            "minhash.dominance_tests",
            ratio(traced.dominance_tests as f64, replayed_queries),
            "count",
        ),
        metric("dispersion.select_ms", ms("dispersion.select"), "ms"),
        metric("lsh.select_ms", ms("lsh.select"), "ms"),
        metric("cluster.worker_fold_ms", ms("cluster.worker_fold"), "ms"),
        metric("cluster.frame_encode_ms", ms("cluster.frame_encode"), "ms"),
        metric(
            "cluster.fold_request_bytes",
            ratio(traced.fold_request_bytes as f64, replayed_queries),
            "bytes",
        ),
        metric("cluster.legs_per_query", ratio(d.fanout_legs as f64, d.queries as f64), "count"),
        metric("cluster.retries", d.fanout_retries as f64, "count"),
        metric("cluster.failures", d.fanout_failures as f64, "count"),
        metric("cluster.wait_ms", ratio(wait.0, wait.1 as f64) / 1e6, "ms"),
        metric(
            "bench.tracing_overhead",
            ratio(traced.wall_ns - untraced.wall_ns, untraced.wall_ns),
            "ratio",
        ),
        metric("bench.replay_residual_us", root.self_ns / requests / 1e3, "us"),
        metric(
            "bench.host_speed_index",
            median(&m.probes.at.iter().map(|p| p.1).collect::<Vec<_>>()),
            "ratio",
        ),
        // End-to-end figures of the measured phase that cannot be
        // end-to-end metrics: one exists on one workload only, the other
        // is 0 on two workloads by design.
        metric("append_p50_ms", median(&m.append_ms), "ms"),
        metric("dominance_tests_per_query", ratio(m.reply_tests as f64, queries), "count"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_are_strict() {
        let a = parse_args(&argv("--workload cluster-cold --seed 4 --seconds 10 --trace 1")).unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::ClusterCold, 4, 10, true));
        for bad in [
            "--workload cluster-cold --seed 4 --seconds 10",
            "--workload nope --seed 4 --seconds 10 --trace 0",
            "--workload select-mix --seed 4 --seconds ten --trace 0",
            "--workload select-mix --seed 4 --seconds 10 --trace 2",
            "--workload select-mix --seed 4 --seed 5 --seconds 10 --trace 0",
            "--workload select-mix --seed 4 --seconds 10 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
