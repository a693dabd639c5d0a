//! What a run does, fixed before anything is timed: the workload, its
//! seeded operation sequence, the thread plan, and the statistics the
//! results are reported with.
//!
//! Every workload serves the same dataset (ANT, 3-d, 50k points,
//! generator seed 91), so the data work of a run does not depend on
//! `--seed`. The seed chooses the operation sequence: the order of
//! selection keys, the picks inside each pipelined burst, and the hash
//! seeds of the `append-refold` and `cluster-cold` queries. The length
//! of the sequence is fixed per workload, so every run does the same
//! work.

use skydiver_serve::{Method, QuerySpec};

/// Points in the served dataset.
pub const POINTS: usize = 50_000;
/// Dimensions of the served dataset.
pub const DIMS: usize = 3;
/// Generator seed of the served dataset.
pub const DATA_SEED: u64 = 91;
/// Signature size of every query.
pub const T: usize = 64;
/// Hash seed of the one fingerprint `select-mix` and `memo-pipelined`
/// select from. The selections' cost depends on the signatures, so it
/// is fixed, and `--seed` only orders the requests.
pub const SELECT_HASH_SEED: u64 = 0x5eed_5e1e;
/// Registry name the dataset is loaded under.
pub const DATASET: &str = "bench";
/// Fold-cache ceiling of every server: `append-refold` grows to a few
/// hundred shard folds, and the whole working set must stay resident
/// so the workload measures fold reuse, not eviction.
pub const CACHE_BYTES: usize = 256 << 20;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Requests per pipelined burst in `memo-pipelined`.
pub const DEPTH: usize = 32;
/// Worker servers behind the coordinator in `cluster-cold`.
pub const WORKERS: usize = 2;
/// Shards a cluster `LOAD` is partitioned into.
pub const CLUSTER_SHARDS: usize = 4;
/// Points per pre-written `APPEND` block.
pub const BLOCK_POINTS: usize = 64;
/// `APPEND` blocks in the `append-refold` sequence, each followed by
/// one query.
pub const APPEND_BLOCKS: usize = 300;
/// Samples the tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;
/// Windows a measured phase is cut into at most. Each window yields a
/// throughput, a median latency and a tail latency, and the run reports
/// the median window of each.
pub const WINDOWS: usize = 20;
/// Query latencies a window holds at least, so its tail is p90 or
/// higher; a phase with fewer than twice this many is one window.
pub const WINDOW_QUERIES: usize = 100;
/// Latencies a window's tail is taken over at most: a longer window is
/// sampled with a fixed odd stride, which visits every position of a
/// pipelined burst. So a window's tail is p95 or lower, the rank a
/// one-connection closed loop reaches steadily, and not the box's rarest
/// stalls.
pub const TAIL_SAMPLES: usize = 200;

/// The four serving shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Selections over a memoised fingerprint, more keys than the
    /// selection memo holds.
    SelectMix,
    /// `APPEND` alternating with a re-folding `QUERY`.
    AppendRefold,
    /// Cold fan-out to two workers, a fresh hash seed per query.
    ClusterCold,
    /// Pipelined binary frames, every request a selection-memo hit.
    MemoPipelined,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::SelectMix,
        Workload::AppendRefold,
        Workload::ClusterCold,
        Workload::MemoPipelined,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SelectMix => "select-mix",
            Workload::AppendRefold => "append-refold",
            Workload::ClusterCold => "cluster-cold",
            Workload::MemoPipelined => "memo-pipelined",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations in the measured sequence. The count, not the clock,
    /// ends the measured phase, so every run does the same work; each
    /// is sized from recorded runs on a 2-core x86-64 box (see
    /// `CHANGES.md`) so the phase takes about ten seconds there.
    pub fn ops(self) -> usize {
        match self {
            Workload::SelectMix => 17_280,
            Workload::AppendRefold => 2 * APPEND_BLOCKS,
            Workload::ClusterCold => 70,
            Workload::MemoPipelined => 1_000_000,
        }
    }
}

/// One operation of the measured sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A `QUERY` of `Plan::specs[i]`.
    Query(usize),
    /// An `APPEND` of pre-written block `i`.
    Append(usize),
}

/// A workload's fixed inputs for one seed. Operations index a small
/// table of distinct queries, so a long sequence stays compact.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// The distinct queries of the plan.
    pub specs: Vec<QuerySpec>,
    /// Queries each set-up sends after `LOAD` to fill the caches.
    pub warmup: Vec<usize>,
    /// The measured sequence.
    pub ops: Vec<Op>,
    /// Pre-written `APPEND` blocks the sequence uses.
    pub blocks: usize,
}

impl Plan {
    /// The plan for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let mut rng = SplitMix(seed ^ 0x5eed_0f_b3ac4);
        let target = workload.ops();
        let hash_seed = rng.next() >> 32;
        let plan = |specs: Vec<QuerySpec>, warmup: Vec<usize>, ops: Vec<Op>, blocks: usize| Plan {
            workload,
            specs,
            warmup,
            ops,
            blocks,
        };
        match workload {
            Workload::SelectMix => {
                // Spec 0 is the warm-up key, outside the cycled keys.
                let mut keys = select_mix_keys();
                rng.shuffle(&mut keys);
                keys.insert(0, (3, Method::MinHash));
                let ops = (0..target).map(|i| Op::Query(1 + i % (keys.len() - 1))).collect();
                plan(specs(&keys, SELECT_HASH_SEED), vec![0], ops, 0)
            }
            Workload::MemoPipelined => {
                let keys = memo_keys();
                let ops = (0..target).map(|_| Op::Query(rng.below(keys.len()))).collect();
                plan(specs(&keys, SELECT_HASH_SEED), (0..keys.len()).collect(), ops, 0)
            }
            Workload::AppendRefold => {
                // The queries alternate MinHash and LSH selection over
                // one (prefs, t, seed) key, so both selection layers run
                // and every query reuses the previous one's folds.
                let specs = vec![
                    query((10, Method::MinHash), hash_seed),
                    query((10, Method::Lsh { xi: 0.2, buckets: 16 }), hash_seed),
                ];
                let ops = (0..APPEND_BLOCKS).flat_map(|b| [Op::Append(b), Op::Query(b % 2)]).collect();
                plan(specs, vec![0], ops, APPEND_BLOCKS)
            }
            Workload::ClusterCold => {
                // The warm-up takes the first seed of the stream; every
                // measured query then folds under a seed never seen.
                let mut seeds = std::collections::BTreeSet::new();
                let mut specs = Vec::with_capacity(target + 1);
                while specs.len() < target + 1 {
                    let s = rng.next() >> 32;
                    if seeds.insert(s) {
                        specs.push(query((10, Method::MinHash), s));
                    }
                }
                let ops = (1..specs.len()).map(Op::Query).collect();
                plan(specs, vec![0], ops, 0)
            }
        }
    }

    /// `QUERY` operations in the measured sequence.
    pub fn queries(&self) -> usize {
        self.ops.iter().filter(|op| matches!(op, Op::Query(_))).count()
    }
}

fn specs(keys: &[(usize, Method)], seed: u64) -> Vec<QuerySpec> {
    keys.iter().map(|&key| query(key, seed)).collect()
}

fn query((k, method): (usize, Method), seed: u64) -> QuerySpec {
    let mut q = QuerySpec::new(DATASET, k);
    q.method = method;
    q.t = T;
    q.seed = seed;
    q
}

/// LSH configurations `(ξ, buckets)` the selection keys draw from.
const LSH_PARAMS: [(f64, usize); 8] = [
    (0.1, 8),
    (0.2, 8),
    (0.3, 8),
    (0.4, 8),
    (0.1, 16),
    (0.2, 16),
    (0.3, 16),
    (0.4, 16),
];

/// 288 distinct `(k, method)` keys: more than the 256 entries the
/// per-generation selection memo holds. Cycling through more keys than
/// a clear-when-full memo holds makes every request a miss: between two
/// requests of one key, 287 others each insert an entry, which forces a
/// clear.
fn select_mix_keys() -> Vec<(usize, Method)> {
    let mut keys = Vec::new();
    for k in 64..=95 {
        keys.push((k, Method::MinHash));
        for (xi, buckets) in LSH_PARAMS {
            keys.push((k, Method::Lsh { xi, buckets }));
        }
    }
    keys
}

/// 16 keys, all memoised during set-up.
fn memo_keys() -> Vec<(usize, Method)> {
    (5..=12)
        .flat_map(|k| {
            [
                (k, Method::MinHash),
                (k, Method::Lsh { xi: 0.2, buckets: 16 }),
            ]
        })
        .collect()
}

/// splitmix64: the sequence generator (std has no seeded RNG).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Threads a workload runs, and how many of them can be busy at once.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadPlan {
    /// Event-loop threads per server role.
    pub loops: Vec<(&'static str, usize)>,
    /// Threads that compute at the same moment at peak.
    pub busy: usize,
}

impl ThreadPlan {
    /// One client thread on one connection; one event-loop thread per
    /// server; `SkyDiver` selection at its serving default of 1 thread.
    pub fn for_workload(workload: Workload) -> ThreadPlan {
        match workload {
            // The two workers fold at the same time while the
            // coordinator and the client wait on them.
            Workload::ClusterCold => ThreadPlan {
                loops: vec![("coordinator", 1), ("worker", 1), ("worker", 1)],
                busy: WORKERS,
            },
            // A closed loop: the client waits while the server works,
            // on one request or on one pipelined burst.
            Workload::SelectMix | Workload::AppendRefold | Workload::MemoPipelined => ThreadPlan {
                loops: vec![("server", 1)],
                busy: 1,
            },
        }
    }

    /// Refuses a plan that needs more busy threads than cores.
    pub fn check(&self, nproc: usize) -> Result<(), String> {
        if self.busy > nproc {
            return Err(format!(
                "the thread plan needs {} busy threads but nproc is {nproc}",
                self.busy
            ));
        }
        Ok(())
    }

    /// The cores the workload runs on, out of the `allowed` ones: the
    /// first alone when one thread is busy at a time, so a closed loop
    /// does not wait on cross-core wake-ups; all of them otherwise.
    pub fn cores(&self, allowed: &[usize]) -> Vec<usize> {
        if self.busy == 1 {
            allowed[..1].to_vec()
        } else {
            allowed.to_vec()
        }
    }

    /// One-line description for the run's output.
    pub fn describe(&self) -> String {
        let loops: Vec<String> = self
            .loops
            .iter()
            .map(|(role, n)| format!("{role}={n}"))
            .collect();
        format!(
            "client=1 conns=1 loops[{}] selection_threads=1 busy={}",
            loops.join(" "),
            self.busy
        )
    }
}

/// Shards each worker owns under `map`, in roster order.
pub fn shard_counts(map: &[Vec<String>], workers: &[String]) -> Vec<usize> {
    workers
        .iter()
        .map(|w| map.iter().filter(|owners| owners.contains(w)).count())
        .collect()
}

/// Whether `map` deals every worker the same number of shards.
pub fn deal_is_even(map: &[Vec<String>], workers: &[String]) -> bool {
    let counts = shard_counts(map, workers);
    !workers.is_empty() && counts.iter().all(|&c| c == counts[0]) && counts[0] > 0
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Where the measured phase stood after one request or burst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Operations completed.
    pub ops: u64,
    /// Query latencies recorded.
    pub queries: usize,
    /// Seconds since the phase began.
    pub seconds: f64,
}

/// The end-to-end statistics of a measured phase, scaled to a quiet
/// core.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Median window throughput, operations per second.
    pub qps: f64,
    /// Median window median query latency, ms.
    pub p50_ms: f64,
    /// Median window tail query latency, ms.
    pub tail_ms: f64,
    /// The percentile a window's tail is taken at.
    pub tail_pct: f64,
    /// Windows the phase was cut into.
    pub windows: usize,
}

/// Scales the phase to a quiet core, cuts it into windows of equal step
/// counts (at most [`WINDOWS`], each with at least [`WINDOW_QUERIES`]
/// query latencies), and takes each window's throughput, median latency
/// and tail over at most [`TAIL_SAMPLES`] of its latencies; reports the
/// median window of each. `steps` and `query_ms` are in completion
/// order; `index(s)` is the host-speed index `s` seconds into the
/// phase, by which each step's duration and latencies are divided.
/// `None` when a window holds fewer than 11 latencies.
pub fn summarize_phase(steps: &[Step], query_ms: &[f64], index: impl Fn(f64) -> f64) -> Option<Summary> {
    let zero = Step {
        ops: 0,
        queries: 0,
        seconds: 0.0,
    };
    let mut scaled = Vec::with_capacity(steps.len());
    let mut latencies = Vec::with_capacity(query_ms.len());
    let (mut prev, mut clock) = (zero, 0.0);
    for s in steps {
        let f = index(s.seconds);
        clock += (s.seconds - prev.seconds) / f;
        latencies.extend(query_ms[prev.queries..s.queries].iter().map(|l| l / f));
        scaled.push(Step { seconds: clock, ..*s });
        prev = *s;
    }

    let windows = (latencies.len() / WINDOW_QUERIES).clamp(1, WINDOWS).min(scaled.len());
    let per = scaled.len() / windows;
    let (mut rates, mut p50s, mut tails) = (Vec::new(), Vec::new(), Vec::new());
    let (mut start, mut tail_pct) = (zero, 0.0);
    for w in 0..windows {
        let end = scaled[if w + 1 == windows { scaled.len() - 1 } else { (w + 1) * per - 1 }];
        let lat = &latencies[start.queries..end.queries];
        let stride = if lat.len() > TAIL_SAMPLES { (lat.len() / TAIL_SAMPLES) | 1 } else { 1 };
        let sample: Vec<f64> = lat.iter().step_by(stride).copied().collect();
        let (t, pct) = tail(&sample)?;
        rates.push((end.ops - start.ops) as f64 / (end.seconds - start.seconds).max(1e-9));
        p50s.push(median(lat));
        tails.push(t);
        tail_pct = pct;
        start = end;
    }
    Some(Summary {
        qps: median(&rates),
        p50_ms: median(&p50s),
        tail_ms: median(&tails),
        tail_pct,
        windows,
    })
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: with `n` samples sorted ascending, the sample at 1-based rank
/// `n - 10`, which is percentile `100 · (n - 10) / n`. Returns the value
/// and the percentile, or `None` with fewer than 11 samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some((v[rank - 1], 100.0 * rank as f64 / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        for w in Workload::ALL {
            let a = Plan::new(w, 7);
            assert_eq!(a, Plan::new(w, 7), "{}", w.name());
            assert_ne!(a, Plan::new(w, 8), "{}", w.name());
            assert_eq!(a.ops.len(), w.ops(), "{}", w.name());
            assert_eq!(Plan::new(w, 8).ops.len(), w.ops(), "{}", w.name());
            assert!(a.queries() > TAIL_BEYOND, "{}", w.name());
        }
    }

    #[test]
    fn select_mix_cycles_more_keys_than_the_memo_holds() {
        let plan = Plan::new(Workload::SelectMix, 3);
        let lines: std::collections::HashSet<String> = plan
            .ops
            .iter()
            .map(|op| match op {
                Op::Query(i) => plan.specs[*i].to_line(),
                Op::Append(_) => unreachable!(),
            })
            .collect();
        assert_eq!(lines.len(), 288);
        assert!(!lines.contains(&plan.specs[plan.warmup[0]].to_line()));
    }

    #[test]
    fn cluster_cold_never_repeats_a_hash_seed() {
        let plan = Plan::new(Workload::ClusterCold, 11);
        let mut seeds: Vec<u64> = plan
            .warmup
            .iter()
            .chain(plan.ops.iter().map(|op| match op {
                Op::Query(i) => i,
                Op::Append(_) => unreachable!(),
            }))
            .map(|&i| plan.specs[i].seed)
            .collect();
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n);
    }

    #[test]
    fn append_refold_alternates_and_uses_every_block() {
        let plan = Plan::new(Workload::AppendRefold, 5);
        for (i, pair) in plan.ops.chunks(2).enumerate() {
            assert_eq!(pair[0], Op::Append(i));
            assert_eq!(pair[1], Op::Query(i % 2));
        }
        assert_eq!(plan.ops.len(), 2 * plan.blocks);
    }

    #[test]
    fn tail_rank_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(tail(&v), Some((30.0, 75.0)));
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&v).map(|(x, _)| x), Some(1.0));
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (x, p) = tail(&v).unwrap();
        assert_eq!(x, 990.0);
        assert_eq!(v.iter().filter(|&&s| s > x).count(), TAIL_BEYOND);
        assert!((p - 99.0).abs() < 1e-12);
    }

    #[test]
    fn deal_check_accepts_only_even_deals() {
        let w = vec!["a".to_string(), "b".to_string()];
        let map = |owners: &[&str]| -> Vec<Vec<String>> {
            owners.iter().map(|o| vec![o.to_string()]).collect()
        };
        assert!(deal_is_even(&map(&["a", "b", "a", "b"]), &w));
        assert!(deal_is_even(&map(&["b", "b", "a", "a"]), &w));
        assert!(!deal_is_even(&map(&["a", "a", "a", "b"]), &w));
        assert!(!deal_is_even(&map(&["b", "b", "b", "b"]), &w));
        assert!(!deal_is_even(&map(&["a", "b", "a"]), &w));
        assert_eq!(shard_counts(&map(&["a", "a", "a", "b"]), &w), vec![3, 1]);
    }

    #[test]
    fn thread_plan_refuses_more_busy_threads_than_cores() {
        let plan = ThreadPlan::for_workload(Workload::ClusterCold);
        assert!(plan.check(2).is_ok());
        assert!(plan.check(1).is_err());
        assert!(ThreadPlan::for_workload(Workload::SelectMix).check(1).is_ok());
        let allowed = [3, 5, 6];
        assert_eq!(ThreadPlan::for_workload(Workload::SelectMix).cores(&allowed), vec![3]);
        assert_eq!(ThreadPlan::for_workload(Workload::MemoPipelined).cores(&allowed), vec![3]);
        assert_eq!(ThreadPlan::for_workload(Workload::ClusterCold).cores(&allowed), vec![3, 5, 6]);
    }

    /// A run of `n` one-query steps of latency `lat(i)` ms each.
    fn run(n: usize, lat: impl Fn(usize) -> f64) -> (Vec<Step>, Vec<f64>) {
        let q: Vec<f64> = (0..n).map(lat).collect();
        let mut t = 0.0;
        let steps = (0..n)
            .map(|i| {
                t += q[i] / 1e3;
                Step {
                    ops: i as u64 + 1,
                    queries: i + 1,
                    seconds: t,
                }
            })
            .collect();
        (steps, q)
    }

    #[test]
    fn windows_report_their_medians() {
        // 20 windows of 200 queries with latencies 1..=200 ms; windows
        // 0-8 run 1.5 times slower.
        let slow = |i: usize| (1 + i % 200) as f64 * if i / 200 < 9 { 1.5 } else { 1.0 };
        let (steps, q) = run(4_000, slow);
        let s = summarize_phase(&steps, &q, |_| 1.0).unwrap();
        assert_eq!(s.windows, WINDOWS);
        assert_eq!((s.p50_ms, s.tail_ms, s.tail_pct), (100.5, 190.0, 95.0));
        assert!((s.qps - 1e3 / 100.5).abs() < 1e-9);
    }

    #[test]
    fn the_speed_index_scales_a_slow_spell_back() {
        // Every step of the first half takes twice as long, and the
        // index says the host ran at half speed then.
        let (steps, q) = run(4_000, |i| (1 + i % 200) as f64 * if i < 2_000 { 2.0 } else { 1.0 });
        let half = steps[1_999].seconds;
        let s = summarize_phase(&steps, &q, |t| if t <= half { 2.0 } else { 1.0 }).unwrap();
        let (steady, q) = run(4_000, |i| (1 + i % 200) as f64);
        let expected = summarize_phase(&steady, &q, |_| 1.0).unwrap();
        assert_eq!((s.p50_ms, s.tail_ms), (expected.p50_ms, expected.tail_ms));
        assert!((s.qps - expected.qps).abs() < 1e-9 * expected.qps);
    }

    #[test]
    fn short_runs_are_one_window_and_long_windows_are_sampled() {
        let (steps, q) = run(150, |i| i as f64 + 1.0);
        let s = summarize_phase(&steps, &q, |_| 1.0).unwrap();
        assert_eq!((s.windows, s.p50_ms, s.tail_ms), (1, 75.5, 140.0));
        assert!(summarize_phase(&steps[..10], &q[..10], |_| 1.0).is_none());
        // 20 windows of 600: each tail is taken over every third
        // latency, 200 samples, so it is their p95.
        let (steps, q) = run(12_000, |i| (i % 600) as f64);
        let s = summarize_phase(&steps, &q, |_| 1.0).unwrap();
        assert_eq!((s.windows, s.tail_pct, s.tail_ms), (WINDOWS, 95.0, 567.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
