//! Shard-equivalence property suite (PR 4).
//!
//! MinHash slot-wise minima and Γ-score sums are associative and
//! commutative, and every shard hashes **global** row ids — so folding a
//! dataset shard-by-shard and merging must be **bit-identical** to the
//! monolithic index-free pass for *every* contiguous partition of the
//! rows: same signature matrix, same Γ-scores, same skyline. These
//! properties drive random partitions (including empty shards) through
//! the public facade, sequential and parallel, cold and cached, with and
//! without a tripped dominance budget.
//!
//! Harness idiom follows `proptests.rs`: a seeded splitmix64 stream over
//! a coarse coordinate grid (`g/7` for `g ∈ 0..8`) to force ties and
//! duplicates, failure messages carrying the case seed.

use skydiver::core::{canonicalise, sig_gen_if_budgeted, ExecContext, SigGenOutput};
use skydiver::data::dominance::MinDominance;
use skydiver::data::ShardedDataset;
use skydiver::skyline::sfs;
use skydiver::{Dataset, HashFamily, Preference, RunBudget, SkyDiver};

/// Cases per property — partitions are cheap but each case runs the
/// monolithic reference too, so stay a notch under `proptests.rs`.
const CASES: u64 = 48;

/// splitmix64 — the same tiny generator the vendored `rand` shim seeds
/// with; good enough to scatter grid points and cut positions.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// A dataset of `1..max_n` points on the coarse grid.
fn grid_dataset(rng: &mut Rng, max_n: u64, dims: usize) -> Dataset {
    let n = rng.range(1, max_n);
    let mut flat = Vec::with_capacity(n as usize * dims);
    for _ in 0..n * dims as u64 {
        flat.push(rng.range(0, 8) as f64 / 7.0);
    }
    Dataset::from_flat(dims, flat)
}

/// Splits `ds` at `cuts - 1` random positions (duplicates allowed, so
/// some shards may be empty) — a strictly harsher partition space than
/// [`ShardedDataset::partition`]'s near-equal split.
fn random_partition(rng: &mut Rng, ds: &Dataset, cuts: usize) -> ShardedDataset {
    let n = ds.len();
    let mut bounds: Vec<usize> = (0..cuts - 1)
        .map(|_| rng.range(0, n as u64 + 1) as usize)
        .collect();
    bounds.push(0);
    bounds.push(n);
    bounds.sort_unstable();
    let mut sd = ShardedDataset::new(ds.dims());
    for w in bounds.windows(2) {
        let mut shard = Dataset::with_capacity(ds.dims(), w[1] - w[0]);
        for r in w[0]..w[1] {
            shard.push(ds.point(r));
        }
        sd.push_shard(shard);
    }
    sd
}

/// The monolithic oracle, independent of the sharded path under test:
/// Fig. 3's `SigGen-IF` over the whole canonical data and its SFS
/// skyline, on one thread, charged against `budget`. Returns the
/// skyline, the (possibly partial) output and whether it completed.
fn oracle(
    ds: &Dataset,
    prefs: &[Preference],
    t: usize,
    seed: u64,
    budget: RunBudget,
) -> (Vec<usize>, SigGenOutput, bool) {
    let canon = canonicalise(ds, prefs).expect("oracle canonicalise");
    let sky = sfs(canon.as_ref(), &MinDominance);
    let ctx = ExecContext::new(budget);
    let fam = HashFamily::new(t, seed);
    let (out, _, int) = sig_gen_if_budgeted(canon.as_ref(), &sky, &fam, 1, &ctx);
    (sky, out, int.is_none())
}

/// Asserts that `fp` equals the [`oracle`]'s answer: trip decision,
/// skyline, matrix and Γ-scores.
fn assert_matches_oracle(
    fp: &skydiver::Fingerprint,
    (sky, out, complete): &(Vec<usize>, SigGenOutput, bool),
    what: &str,
) {
    assert_eq!(fp.is_complete(), *complete, "{what}: trip decision diverged from the oracle");
    assert_eq!((&fp.skyline, &fp.output), (sky, out), "{what}: fold diverged from the oracle");
}

#[test]
fn random_partitions_fold_bit_identically() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let ds = grid_dataset(&mut rng, 240, 3);
        let prefs = Preference::all_min(3);
        let pipe = SkyDiver::new(2).signature_size(24).hash_seed(case);
        let reference = pipe
            .fingerprint(&ds, &prefs)
            .expect("reference fingerprint");
        let want = oracle(&ds, &prefs, 24, case, RunBudget::none());
        assert_matches_oracle(&reference, &want, &format!("case {case}, whole"));

        let shards = rng.range(1, 9) as usize;
        let sd = random_partition(&mut rng, &ds, shards);
        assert_eq!(sd.len(), ds.len(), "case {case}: partition loses rows");

        for threads in [1usize, 3] {
            let run = pipe
                .clone()
                .threads(threads)
                .fingerprint_sharded(&sd, &prefs)
                .expect("sharded fingerprint");
            let fp = &run.fingerprint;
            assert!(fp.is_complete(), "case {case}: unlimited run tripped");
            assert_matches_oracle(fp, &want, &format!("case {case}, threads {threads}"));
            assert_eq!(
                fp.skyline, reference.skyline,
                "case {case}, threads {threads}"
            );
            assert_eq!(
                fp.output.matrix, reference.output.matrix,
                "case {case}, threads {threads}, {shards} shards: matrix diverged"
            );
            assert_eq!(
                fp.output.scores, reference.output.scores,
                "case {case}, threads {threads}, {shards} shards: Γ-scores diverged"
            );
            assert_eq!(
                run.shards.len(),
                sd.num_shards(),
                "case {case}: fold per shard"
            );
        }
    }
}

#[test]
fn cached_shard_folds_change_nothing() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x5eed ^ case);
        let ds = grid_dataset(&mut rng, 200, 3);
        let prefs = Preference::all_min(3);
        let pipe = SkyDiver::new(2).signature_size(16).hash_seed(case);
        let shards = rng.range(1, 6) as usize;
        let sd = random_partition(&mut rng, &ds, shards);

        let cold = pipe.fingerprint_sharded(&sd, &prefs).expect("cold run");
        let cached: Vec<_> = cold.shards.iter().cloned().map(Some).collect();
        let warm = pipe
            .fingerprint_sharded_with(&sd, &prefs, &cached)
            .expect("warm run");

        assert_eq!(
            warm.reused_shards,
            sd.num_shards(),
            "case {case}: exact-fit reuse"
        );
        assert_eq!(warm.scanned_rows, 0, "case {case}: nothing left to scan");
        assert_eq!(
            warm.fingerprint.skyline, cold.fingerprint.skyline,
            "case {case}"
        );
        assert_eq!(
            warm.fingerprint.output.matrix, cold.fingerprint.output.matrix,
            "case {case}: cached merge diverged"
        );
        assert_eq!(
            warm.fingerprint.output.scores, cold.fingerprint.output.scores,
            "case {case}: cached Γ-scores diverged"
        );
    }
}

#[test]
fn budget_trips_identically_on_sequential_folds() {
    // Contiguous shards preserve row order, so the *sequential* fold
    // charges the budget in exactly the monolithic order — a trip lands
    // on the same row and the partial artefacts must still match bit
    // for bit. (Parallel folds only promise bit-identity for complete
    // runs; a trip there stops workers at different rows.)
    let mut tripped_cases = 0u32;
    for case in 0..CASES {
        let mut rng = Rng::new(0x7219 ^ case);
        let ds = grid_dataset(&mut rng, 200, 3);
        let prefs = Preference::all_min(3);
        let limit = rng.range(1, (ds.len() as u64 + 2) * (ds.len() as u64 + 2) / 2);
        let budget = RunBudget::none().with_max_dominance_tests(limit);
        let pipe = SkyDiver::new(2)
            .signature_size(24)
            .hash_seed(case)
            .budget(budget.clone());

        let reference = pipe
            .fingerprint(&ds, &prefs)
            .expect("reference fingerprint");
        let want = oracle(&ds, &prefs, 24, case, budget.clone());
        assert_matches_oracle(&reference, &want, &format!("case {case}, whole, limit {limit}"));
        let shards = rng.range(2, 9) as usize;
        let sd = random_partition(&mut rng, &ds, shards);
        let run = pipe
            .fingerprint_sharded(&sd, &prefs)
            .expect("sharded fingerprint");
        let fp = &run.fingerprint;
        assert_matches_oracle(fp, &want, &format!("case {case}, {shards} shards, limit {limit}"));

        assert_eq!(
            fp.is_complete(),
            reference.is_complete(),
            "case {case}: trip decision diverged (limit {limit})"
        );
        assert_eq!(fp.skyline, reference.skyline, "case {case}");
        assert_eq!(
            fp.output.matrix, reference.output.matrix,
            "case {case}: partial matrix diverged (limit {limit})"
        );
        assert_eq!(
            fp.output.scores, reference.output.scores,
            "case {case}: partial Γ-scores diverged (limit {limit})"
        );
        if !fp.is_complete() {
            tripped_cases += 1;
            assert!(
                run.shards.is_empty(),
                "case {case}: a curtailed run must never expose cacheable folds"
            );
        }
    }
    assert!(
        tripped_cases >= 4,
        "budget property is vacuous: only {tripped_cases} tripped cases"
    );
}

#[test]
fn appended_shards_extend_old_folds_exactly() {
    // The APPEND algebra end-to-end: fold a base partition, append a
    // fresh shard, and re-fold reusing the old per-shard artefacts. The
    // result must equal a cold fingerprint of the grown dataset, and
    // only the *new* rows (plus any freshly exposed skyline columns over
    // old rows) may be scanned.
    for case in 0..CASES / 2 {
        let mut rng = Rng::new(0xa44 ^ case);
        let base = grid_dataset(&mut rng, 180, 3);
        let block = grid_dataset(&mut rng, 60, 3);
        let prefs = Preference::all_min(3);
        let pipe = SkyDiver::new(2).signature_size(16).hash_seed(case);

        let cuts = rng.range(1, 5) as usize;
        let sd = random_partition(&mut rng, &base, cuts);
        let cold = pipe.fingerprint_sharded(&sd, &prefs).expect("base run");

        let mut grown = ShardedDataset::new(3);
        for i in 0..sd.num_shards() {
            grown.push_shard_arc(sd.shard_arc(i).clone());
        }
        grown.push_shard(block.clone());
        let mut cached: Vec<_> = cold.shards.iter().cloned().map(Some).collect();
        cached.push(None);

        let warm = pipe
            .fingerprint_sharded_with(&grown, &prefs, &cached)
            .expect("append run");

        let mut whole = base.clone();
        for i in 0..block.len() {
            whole.push(block.point(i));
        }
        let reference = pipe.fingerprint(&whole, &prefs).expect("grown reference");
        let want = oracle(&whole, &prefs, 16, case, RunBudget::none());
        assert_matches_oracle(&reference, &want, &format!("case {case}, grown whole"));
        assert_matches_oracle(&warm.fingerprint, &want, &format!("case {case}, appended"));

        assert_eq!(warm.fingerprint.skyline, reference.skyline, "case {case}");
        assert_eq!(
            warm.fingerprint.output.matrix, reference.output.matrix,
            "case {case}: append merge diverged"
        );
        assert_eq!(
            warm.fingerprint.output.scores, reference.output.scores,
            "case {case}: append Γ-scores diverged"
        );
        assert!(
            warm.scanned_rows <= block.len() + base.len(),
            "case {case}: warm path rescanned more than the data"
        );
        // No new skyline exposure ⇒ the old shards merge without any
        // rescan and only the appended block is touched.
        if warm.fingerprint.skyline == cold.fingerprint.skyline {
            assert_eq!(
                warm.scanned_rows,
                block.len(),
                "case {case}: skyline unchanged yet old rows were rescanned"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Cross-process cluster determinism (PR 8).
//
// The same merge algebra, but with the shards owned by *separate worker
// processes*: a coordinator fans fingerprint folds out over TCP and
// merges the returned frames. Every answer — cold, warm, appended,
// budget-tripped, after a kill -9 of a replica, after LEAVE + handoff —
// must match the monolithic single-process payload field for field
// (timings excluded).
// ---------------------------------------------------------------------

mod cluster_process {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::process::{Child, Command, Stdio};
    use std::sync::mpsc;
    use std::time::Duration;

    use skydiver::data::generators::anticorrelated;
    use skydiver::data::{io, ShardedDataset};
    use skydiver::serve::protocol::{json_bool, json_u64, json_u64_array, QuerySpec};
    use skydiver::serve::{Client, ClusterConfig, Server, ServerConfig, ServerHandle};
    use skydiver::{CancelToken, Dataset, Preference, RunBudget, SkyDiver};

    const T: usize = 64;
    const K: usize = 7;

    /// Worker child processes, killed (SIGKILL) on drop so a failing
    /// assertion never leaks servers.
    struct Workers(Vec<(String, Child)>);

    impl Drop for Workers {
        fn drop(&mut self) {
            for (_, child) in &mut self.0 {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }

    impl Workers {
        fn addrs(&self) -> Vec<String> {
            self.0.iter().map(|(a, _)| a.clone()).collect()
        }

        /// SIGKILLs one worker (no drain, no goodbye — the crash case).
        fn kill(&mut self, idx: usize) {
            let (_, child) = &mut self.0[idx];
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    fn free_port() -> u16 {
        std::net::TcpListener::bind("127.0.0.1:0")
            .expect("probe port")
            .local_addr()
            .expect("probe addr")
            .port()
    }

    /// Spawns `n` plain `skydiver serve` processes and waits until each
    /// accepts connections.
    fn spawn_workers(n: usize) -> Workers {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            let addr = format!("127.0.0.1:{}", free_port());
            let child = Command::new(env!("CARGO_BIN_EXE_skydiver"))
                .args(["serve", "--addr", &addr])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn worker process");
            v.push((addr, child));
        }
        for (addr, _) in &v {
            Client::connect_retry(addr.as_str(), 200, Duration::from_millis(25))
                .expect("worker did not come up");
        }
        Workers(v)
    }

    /// An in-process coordinator over `workers` at replication `r`.
    fn start_coordinator(workers: &[String], r: usize) -> ServerHandle {
        Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            cluster: Some(ClusterConfig {
                workers: workers.to_vec(),
                replication: r,
                shards: 4,
                fanout_timeout_ms: 10_000,
            }),
            ..ServerConfig::default()
        })
        .expect("bind coordinator")
        .spawn()
        .expect("spawn coordinator")
    }

    /// An in-process monolithic reference server.
    fn start_monolithic() -> ServerHandle {
        Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            ..ServerConfig::default()
        })
        .expect("bind monolithic")
        .spawn()
        .expect("spawn monolithic")
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("skydiver-cluster-{}-{name}", std::process::id()));
        p
    }

    fn spec(seed: u64) -> QuerySpec {
        let mut s = QuerySpec::new("d", K);
        s.t = T;
        s.seed = seed;
        s
    }

    fn json_str(json: &str, key: &str) -> Option<String> {
        let pat = format!("\"{key}\":\"");
        let start = json.find(&pat)? + pat.len();
        let rest = &json[start..];
        Some(rest[..rest.find('"')?].to_string())
    }

    /// Every payload field that must be bit-identical across process
    /// topologies (everything except the timing fields).
    #[derive(Debug, PartialEq)]
    struct Answer {
        selected: Vec<u64>,
        gamma: Vec<u64>,
        skyline: u64,
        dominance_tests: u64,
        cached: bool,
        degraded: bool,
        status: String,
    }

    fn answer(payload: &str) -> Answer {
        Answer {
            selected: json_u64_array(payload, "selected").expect("selected"),
            gamma: json_u64_array(payload, "gamma").expect("gamma"),
            skyline: json_u64(payload, "skyline").expect("skyline"),
            dominance_tests: json_u64(payload, "dominance_tests").expect("dominance_tests"),
            cached: json_bool(payload, "cached").expect("cached"),
            degraded: json_bool(payload, "degraded").expect("degraded"),
            status: json_str(payload, "status").expect("status"),
        }
    }

    fn query(client: &mut Client, s: &QuerySpec) -> Answer {
        answer(&client.query(s).expect("query"))
    }

    /// The in-process reference of `s` over `data` loaded as one shard:
    /// [`SkyDiver::fingerprint_sharded_with`] then selection, under the
    /// budget a server gives the query (a cancel token keeps the
    /// dominance-test counter on).
    fn reference(data: &Dataset, s: &QuerySpec) -> Answer {
        let mut budget = RunBudget::none().with_cancel_token(CancelToken::new());
        if let Some(limit) = s.max_dominance_tests {
            budget = budget.with_max_dominance_tests(limit);
        }
        let diver = SkyDiver::new(s.k)
            .signature_size(s.t)
            .hash_seed(s.seed)
            .budget(budget);
        let sd = ShardedDataset::from_dataset(data.clone());
        let run = diver
            .fingerprint_sharded_with(&sd, &Preference::all_min(data.dims()), &[])
            .expect("reference fold");
        let r = diver
            .select_from(&run.fingerprint)
            .expect("reference selection");
        Answer {
            selected: r.selected.iter().map(|&i| i as u64).collect(),
            gamma: r.selected_positions.iter().map(|&p| r.scores[p]).collect(),
            skyline: r.skyline.len() as u64,
            dominance_tests: run.dominance_tests,
            cached: false,
            degraded: r.degradation.is_degraded(),
            status: r.degradation.summary(),
        }
    }

    /// One counter of a server's own `STATS` (a coordinator's comes
    /// before its `cluster` roll-up).
    fn stat(client: &mut Client, key: &str) -> u64 {
        let stats = client.stats().expect("stats");
        json_u64(&stats, key).unwrap_or_else(|| panic!("{key} in {stats}"))
    }

    /// A coordinator over `workers` at replication 1 with `shards`
    /// shards per `LOAD`.
    fn start_coordinator_with(workers: &[String], shards: usize) -> ServerHandle {
        Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            cluster: Some(ClusterConfig {
                workers: workers.to_vec(),
                replication: 1,
                shards,
                fanout_timeout_ms: 10_000,
            }),
            ..ServerConfig::default()
        })
        .expect("bind coordinator")
        .spawn()
        .expect("spawn coordinator")
    }

    /// Acceptance: for K ∈ {1, 2, 4} worker processes and R ∈ {1, 2},
    /// the coordinator's QUERY payload matches the monolithic server
    /// field for field — cold, warm (memoised), and after an APPEND.
    #[test]
    fn cluster_topologies_answer_bit_identically_to_monolithic() {
        let base_csv = tmp("base.csv");
        let block_csv = tmp("block.csv");
        io::write_csv(&anticorrelated(4_000, 3, 77), &base_csv).expect("write base");
        io::write_csv(&anticorrelated(800, 3, 78), &block_csv).expect("write block");
        let base_path = base_csv.to_str().unwrap().to_string();
        let block_path = block_csv.to_str().unwrap().to_string();

        let mono = start_monolithic();
        let mut mc = Client::connect(mono.addr()).expect("connect monolithic");
        mc.load("d", &base_path).expect("monolithic load");
        let cold = query(&mut mc, &spec(5));
        let warm = query(&mut mc, &spec(5));
        assert!(warm.cached && !cold.cached, "monolithic memo sanity");
        mc.append("d", &block_path).expect("monolithic append");
        let grown = query(&mut mc, &spec(9));

        for (nworkers, r) in [(1usize, 1usize), (2, 1), (2, 2), (4, 1), (4, 2)] {
            let workers = spawn_workers(nworkers);
            let coord = start_coordinator(&workers.addrs(), r);
            let mut cc = Client::connect(coord.addr()).expect("connect coordinator");
            cc.load("d", &base_path).expect("cluster load");
            assert_eq!(
                query(&mut cc, &spec(5)),
                cold,
                "cold answer diverged ({nworkers} workers, R={r})"
            );
            assert_eq!(
                query(&mut cc, &spec(5)),
                warm,
                "warm answer diverged ({nworkers} workers, R={r})"
            );
            cc.append("d", &block_path).expect("cluster append");
            assert_eq!(
                query(&mut cc, &spec(9)),
                grown,
                "post-append answer diverged ({nworkers} workers, R={r})"
            );
            cc.shutdown().expect("coordinator shutdown");
        }

        mc.shutdown().expect("monolithic shutdown");
        std::fs::remove_file(base_csv).ok();
        std::fs::remove_file(block_csv).ok();
    }

    /// A dominance-test budget must trip at the same absolute row in the
    /// cluster as in the monolithic run: identical degraded prefix,
    /// identical status string (`used`/`limit` included).
    #[test]
    fn budget_tripped_cluster_prefix_is_identical() {
        let csv = tmp("budget.csv");
        io::write_csv(&anticorrelated(4_000, 3, 90), &csv).expect("write csv");
        let path = csv.to_str().unwrap().to_string();

        let mono = start_monolithic();
        let mut mc = Client::connect(mono.addr()).expect("connect monolithic");
        mc.load("d", &path).expect("monolithic load");
        let mut s = spec(5);
        s.max_dominance_tests = Some(500);
        let reference = query(&mut mc, &s);
        assert!(
            reference.degraded,
            "budget must actually trip: {reference:?}"
        );

        let workers = spawn_workers(2);
        let coord = start_coordinator(&workers.addrs(), 1);
        let mut cc = Client::connect(coord.addr()).expect("connect coordinator");
        cc.load("d", &path).expect("cluster load");
        assert_eq!(query(&mut cc, &s), reference, "tripped prefix diverged");

        cc.shutdown().expect("coordinator shutdown");
        mc.shutdown().expect("monolithic shutdown");
        std::fs::remove_file(csv).ok();
    }

    /// PR 9: transports and batching are topology-invariant. Against a
    /// coordinator-backed cluster, the `SKYWIRE01` binary client, the
    /// pipelined text client and a `BATCH` all answer field-for-field
    /// identically to the monolithic server's sequential `QUERY`s.
    #[test]
    fn cluster_pipelined_binary_and_batch_match_monolithic() {
        use skydiver::serve::protocol::{BatchSpec, Method};

        fn split_results(payload: &str) -> Vec<String> {
            let open = "\"results\":[";
            let start = payload.find(open).expect("results array") + open.len();
            let inner = &payload[start..payload.rfind(']').expect("array close")];
            inner
                .split("},{")
                .map(|s| {
                    let mut obj = s.to_string();
                    if !obj.starts_with('{') {
                        obj.insert(0, '{');
                    }
                    if !obj.ends_with('}') {
                        obj.push('}');
                    }
                    obj
                })
                .collect()
        }

        let csv = tmp("pr9.csv");
        io::write_csv(&anticorrelated(4_000, 3, 92), &csv).expect("write csv");
        let path = csv.to_str().unwrap().to_string();

        let mono = start_monolithic();
        let mut mc = Client::connect(mono.addr()).expect("connect monolithic");
        mc.load("d", &path).expect("monolithic load");
        let cold5 = query(&mut mc, &spec(5));
        let warm5 = query(&mut mc, &spec(5));
        let cold6 = query(&mut mc, &spec(6));
        let warm6 = query(&mut mc, &spec(6));

        let workers = spawn_workers(2);
        let coord = start_coordinator(&workers.addrs(), 1);

        // Binary transport: HELLO, then cold + warm QUERYs.
        let mut bin = Client::connect(coord.addr()).expect("connect binary");
        bin.hello().expect("hello");
        bin.load("d", &path).expect("cluster load");
        assert_eq!(query(&mut bin, &spec(5)), cold5, "binary cold diverged");
        assert_eq!(query(&mut bin, &spec(5)), warm5, "binary warm diverged");

        // Pipelined text: a warm burst, every reply identical in order.
        let mut piped = Client::connect(coord.addr()).expect("connect piped");
        let lines = vec![spec(5).to_line(), spec(5).to_line(), spec(5).to_line()];
        for (i, reply) in piped.pipeline(&lines).expect("pipeline").iter().enumerate() {
            assert_eq!(answer(reply), warm5, "pipelined reply {i} diverged");
        }

        // BATCH under a fresh seed: item 0 pays the cluster fan-out
        // resolve (== the monolithic cold query), item 1 rides it
        // (== the monolithic warm query).
        let mut batch = BatchSpec::new("d", vec![(K, Method::MinHash), (K, Method::MinHash)]);
        batch.t = T;
        batch.seed = 6;
        let payload = bin.batch(&batch).expect("cluster batch");
        let results = split_results(&payload);
        assert_eq!(results.len(), 2, "{payload}");
        assert_eq!(answer(&results[0]), cold6, "batch item 0 diverged");
        assert_eq!(answer(&results[1]), warm6, "batch item 1 diverged");

        bin.shutdown().expect("coordinator shutdown");
        mc.shutdown().expect("monolithic shutdown");
        std::fs::remove_file(csv).ok();
    }

    /// R=2 survives a kill -9: after one replica dies mid-cluster the
    /// answer is still complete and bit-identical; after `LEAVE` retires
    /// the dead node (handing its shards off) it still is.
    #[test]
    fn killed_replica_and_leave_keep_answers_identical() {
        let csv = tmp("kill.csv");
        io::write_csv(&anticorrelated(4_000, 3, 91), &csv).expect("write csv");
        let path = csv.to_str().unwrap().to_string();

        let mono = start_monolithic();
        let mut mc = Client::connect(mono.addr()).expect("connect monolithic");
        mc.load("d", &path).expect("monolithic load");
        let ref5 = query(&mut mc, &spec(5));
        let ref11 = query(&mut mc, &spec(11));
        let ref13 = query(&mut mc, &spec(13));
        // A budget that trips in a later shard: the one-leg-at-a-time
        // schedule runs several legs first, retrying any whose first
        // owner is the killed replica.
        let mut budgeted = spec(12);
        budgeted.max_dominance_tests = Some(ref5.dominance_tests * 3 / 5);
        let ref12 = query(&mut mc, &budgeted);
        assert!(ref12.degraded, "budget must actually trip: {ref12:?}");

        let mut workers = spawn_workers(3);
        let coord = start_coordinator(&workers.addrs(), 2);
        let mut cc = Client::connect(coord.addr()).expect("connect coordinator");
        cc.load("d", &path).expect("cluster load");
        assert_eq!(
            query(&mut cc, &spec(5)),
            ref5,
            "healthy-cluster answer diverged"
        );

        workers.kill(0);
        let after_kill = query(&mut cc, &spec(11));
        assert_eq!(
            after_kill, ref11,
            "answer diverged after kill -9 of a replica"
        );
        assert!(!after_kill.degraded, "R=2 must mask a single dead node");
        assert_eq!(
            query(&mut cc, &budgeted),
            ref12,
            "budget-tripped prefix diverged after kill -9 of a replica"
        );

        let dead = workers.addrs()[0].clone();
        cc.exchange(&format!("LEAVE addr={dead}")).expect("leave");
        assert_eq!(
            query(&mut cc, &spec(13)),
            ref13,
            "answer diverged after LEAVE + handoff"
        );

        cc.shutdown().expect("coordinator shutdown");
        mc.shutdown().expect("monolithic shutdown");
        std::fs::remove_file(csv).ok();
    }

    /// Every server folds cold shards through a memoised dominance plan:
    /// on one generation the first two cold folds of a shard only mark
    /// it seen, the third builds the plan, later ones run through it.
    /// The single-process server does so too, so its cold and
    /// budget-tripped answers are held to the in-process reference, and
    /// the cluster's to the single process's. An `APPEND` that changes
    /// the skyline changes the fold request, so it misses the plan. A
    /// node answering both `QUERY` and `FOLD` keeps its folds within
    /// one cache's bytes.
    #[test]
    fn cold_folds_through_the_worker_plan_stay_bit_identical() {
        use skydiver::data::generators::independent;
        let base_csv = tmp("plan-base.csv");
        let block_csv = tmp("plan-block.csv");
        io::write_csv(&independent(8_000, 3, 93), &base_csv).expect("write base");
        // Rows near the origin join the skyline, so the columns change.
        let block = independent(50, 3, 94);
        let near: Vec<Vec<f64>> = (0..block.len())
            .map(|i| block.point(i).iter().map(|v| v * 0.05).collect())
            .collect();
        let near: Vec<&[f64]> = near.iter().map(Vec::as_slice).collect();
        io::write_csv(&skydiver::data::Dataset::from_rows(3, &near), &block_csv)
            .expect("write block");
        let base_path = base_csv.to_str().unwrap().to_string();
        let block_path = block_csv.to_str().unwrap().to_string();
        let budgeted = |seed: u64, limit: u64| {
            let mut s = spec(seed);
            s.max_dominance_tests = Some(limit);
            s
        };

        let base = io::read_csv(&base_path).expect("read base back");

        let mono = start_monolithic();
        let mut mc = Client::connect(mono.addr()).expect("connect monolithic");
        mc.load("d", &base_path).expect("monolithic load");
        // One shard: seen, seen, build, hit.
        let mut cold = Vec::new();
        for (seed, want) in [30, 31, 32, 33]
            .into_iter()
            .zip([[0, 0], [0, 0], [1, 0], [1, 1]])
        {
            cold.push(query(&mut mc, &spec(seed)));
            let got = [stat(&mut mc, "plan_builds"), stat(&mut mc, "plan_hits")];
            assert_eq!(got, want, "single-process plan counters after seed {seed}");
            assert_eq!(
                cold.last(),
                Some(&reference(&base, &spec(seed))),
                "single-process seed {seed} diverged from the reference"
            );
        }
        // A trip in the first shard (row fold) and one in a later shard,
        // after earlier shards ran through their plans.
        let total = cold[0].dominance_tests;
        let limits = [500, total * 3 / 5];
        let tripped: Vec<Answer> = limits
            .iter()
            .zip([34, 35])
            .map(|(&limit, seed)| query(&mut mc, &budgeted(seed, limit)))
            .collect();
        assert!(
            tripped.iter().all(|a| a.degraded),
            "budgets must trip: {tripped:?}"
        );
        for ((&limit, seed), got) in limits.iter().zip([34, 35]).zip(&tripped) {
            assert_eq!(
                got,
                &reference(&base, &budgeted(seed, limit)),
                "single-process limit {limit} diverged from the reference"
            );
        }
        mc.append("d", &block_path).expect("monolithic append");
        let grown = query(&mut mc, &spec(36));
        assert_ne!(
            grown.skyline, cold[0].skyline,
            "the block must change the skyline"
        );

        let workers = spawn_workers(2);
        let coord = start_coordinator(&workers.addrs(), 1);
        let mut cc = Client::connect(coord.addr()).expect("connect coordinator");
        cc.load("d", &base_path).expect("cluster load");
        let plan_counters = || {
            let mut sums = [0u64; 2];
            for addr in workers.addrs() {
                let mut client = Client::connect(addr.as_str()).expect("connect worker");
                let stats = client.stats().expect("worker stats");
                sums[0] += json_u64(&stats, "plan_builds").expect("plan_builds");
                sums[1] += json_u64(&stats, "plan_hits").expect("plan_hits");
            }
            sums
        };
        for (seed, reference) in [30, 31, 32, 33].into_iter().zip(&cold) {
            assert_eq!(
                &query(&mut cc, &spec(seed)),
                reference,
                "seed {seed} diverged"
            );
        }
        let [builds, hits] = plan_counters();
        assert!(
            builds >= 1 && hits >= 1,
            "seen, seen, build, hit: builds {builds}, hits {hits}"
        );
        for ((&limit, seed), reference) in limits.iter().zip([34, 35]).zip(&tripped) {
            assert_eq!(
                &query(&mut cc, &budgeted(seed, limit)),
                reference,
                "limit {limit} diverged"
            );
        }
        let [_, hits] = plan_counters();

        cc.append("d", &block_path).expect("cluster append");
        assert_eq!(
            query(&mut cc, &spec(36)),
            grown,
            "post-append answer diverged"
        );
        assert_eq!(
            plan_counters()[1],
            hits,
            "a changed column set must miss the plan"
        );

        // The same node answers QUERY as well as the coordinator's FOLDs:
        // both fill its one fold cache.
        let mut wc = Client::connect(workers.addrs()[0].as_str()).expect("connect worker");
        wc.load("local", &base_path).expect("worker load");
        query(
            &mut wc,
            &QuerySpec {
                dataset: "local".into(),
                ..spec(37)
            },
        );
        let resident = stat(&mut wc, "bytes_resident");
        assert!(
            resident > 0 && resident <= 64 << 20,
            "one cache of the default 64 MiB holds {resident} bytes"
        );

        cc.shutdown().expect("coordinator shutdown");
        mc.shutdown().expect("monolithic shutdown");
        std::fs::remove_file(base_csv).ok();
        std::fs::remove_file(block_csv).ok();
    }

    /// One assembler, one error text: a `QUERY` with `t = 0`, or a `t`
    /// whose matrix exceeds the frame limit, gets the same `ERR` reply
    /// from a single process and from a coordinator.
    #[test]
    fn signature_size_errors_read_the_same_on_both_topologies() {
        let csv = tmp("errors.csv");
        io::write_csv(&anticorrelated(2_000, 3, 96), &csv).expect("write csv");
        let path = csv.to_str().unwrap().to_string();

        let mono = start_monolithic();
        let mut mc = Client::connect(mono.addr()).expect("connect monolithic");
        mc.load("d", &path).expect("monolithic load");
        let workers = spawn_workers(1);
        let coord = start_coordinator(&workers.addrs(), 1);
        let mut cc = Client::connect(coord.addr()).expect("connect coordinator");
        cc.load("d", &path).expect("cluster load");

        for t in [0, 1 << 40] {
            let s = QuerySpec { t, ..spec(3) };
            let single = mc.query(&s).expect_err("single process must refuse");
            let cluster = cc.query(&s).expect_err("coordinator must refuse");
            assert_eq!(single, cluster, "t={t}: error texts differ");
        }
        let mut refuse = |t| mc.query(&QuerySpec { t, ..spec(3) }).unwrap_err();
        assert!(refuse(0).contains("must be positive"));
        assert!(refuse(1 << 40).contains("frame limit"));

        cc.shutdown().expect("coordinator shutdown");
        mc.shutdown().expect("monolithic shutdown");
        std::fs::remove_file(csv).ok();
    }

    /// `shards_reused` counts the shard folds a query actually reused,
    /// tripped or not: after an `APPEND` of dominated rows, a query whose
    /// budget trips in the new shard reused the old one on both
    /// topologies (same shard layout: the coordinator partitions a `LOAD`
    /// into one shard, as a single process does). The skyline is
    /// unchanged, so both extend the fingerprint the warm query
    /// memoised: the old shard comes with it, and only the new one is
    /// folded.
    #[test]
    fn a_tripped_query_counts_its_reused_shards_on_both_topologies() {
        let base_csv = tmp("reused-base.csv");
        let block_csv = tmp("reused-block.csv");
        io::write_csv(&anticorrelated(3_000, 3, 97), &base_csv).expect("write base");
        io::write_csv(
            &Dataset::from_rows(3, &[[10.0, 10.0, 10.0]; 40]),
            &block_csv,
        )
        .expect("write block");
        let base_path = base_csv.to_str().unwrap().to_string();
        let block_path = block_csv.to_str().unwrap().to_string();

        let mono = start_monolithic();
        let workers = spawn_workers(1);
        let coord = start_coordinator_with(&workers.addrs(), 1);
        let mut answers = Vec::new();
        for addr in [mono.addr(), coord.addr()] {
            let mut c = Client::connect(addr).expect("connect");
            c.load("d", &base_path).expect("load");
            let warm = query(&mut c, &spec(8));
            c.append("d", &block_path).expect("append");
            let before = stat(&mut c, "shards_reused");
            let extends = stat(&mut c, "fingerprint_extends");
            let tripped = query(
                &mut c,
                &QuerySpec {
                    max_dominance_tests: Some(1),
                    ..spec(8)
                },
            );
            let reused = stat(&mut c, "shards_reused") - before;
            assert!(tripped.degraded && !warm.degraded, "{tripped:?}");
            assert_eq!(reused, 1, "the old shard's fold was reused before the trip");
            assert_eq!(
                stat(&mut c, "fingerprint_extends") - extends,
                1,
                "the trip lands on the extend path"
            );
            answers.push(tripped);
            c.shutdown().expect("shutdown");
        }
        assert_eq!(answers[0], answers[1], "tripped answers differ");
        std::fs::remove_file(base_csv).ok();
        std::fs::remove_file(block_csv).ok();
    }

    /// A node's local `d` and a coordinator's `d` share one name, so one
    /// fold cache and one plan memo: each generation replaces the
    /// other's shards, and every answer either equals its own data's
    /// reference or fails by name (stale generation, unavailable
    /// shard) — never a fold that mixes the two.
    #[test]
    fn a_shared_dataset_name_never_mixes_two_generations() {
        let (a_csv, b_csv) = (tmp("mine.csv"), tmp("theirs.csv"));
        io::write_csv(&anticorrelated(2_000, 3, 98), &a_csv).expect("write mine");
        io::write_csv(&anticorrelated(2_500, 3, 99), &b_csv).expect("write theirs");
        let (a_path, b_path) = (
            a_csv.to_str().unwrap().to_string(),
            b_csv.to_str().unwrap().to_string(),
        );
        let a = io::read_csv(&a_path).expect("read mine back");
        let b = io::read_csv(&b_path).expect("read theirs back");

        let node = start_monolithic();
        let mut nc = Client::connect(node.addr()).expect("connect node");
        let coord = start_coordinator_with(&[node.addr().to_string()], 2);
        let mut cc = Client::connect(coord.addr()).expect("connect coordinator");

        // Every generation is queried under the same seed, so a fold
        // cached for the other one would be found under its key.
        nc.load("d", &a_path).expect("local load");
        assert_eq!(query(&mut nc, &spec(1)), reference(&a, &spec(1)));
        // The coordinator's d replaces the node's shards.
        cc.load("d", &b_path).expect("cluster load");
        assert_eq!(query(&mut cc, &spec(1)), reference(&b, &spec(1)));
        let err = nc.query(&spec(2)).expect_err("local d no longer hosted");
        assert!(err.contains("stale generation"), "{err}");
        // A memoised answer of the local generation is still its own.
        let memo_hit = Answer {
            cached: true,
            dominance_tests: 0,
            ..reference(&a, &spec(1))
        };
        assert_eq!(query(&mut nc, &spec(1)), memo_hit);
        // Re-loading the local d replaces the coordinator's shards.
        nc.load("d", &a_path).expect("local reload");
        assert_eq!(query(&mut nc, &spec(1)), reference(&a, &spec(1)));
        let lost = query(&mut cc, &spec(3));
        let named = lost.degraded && lost.status.contains("unavailable");
        assert!(
            named || lost == reference(&b, &spec(3)),
            "the coordinator's answer mixed generations: {lost:?}"
        );
        // And the coordinator's reload takes them back.
        cc.load("d", &b_path).expect("cluster reload");
        assert_eq!(query(&mut cc, &spec(1)), reference(&b, &spec(1)));
        let err = nc.query(&spec(4)).expect_err("local d no longer hosted");
        assert!(err.contains("stale generation"), "{err}");

        cc.shutdown().expect("coordinator shutdown");
        nc.shutdown().expect("node shutdown");
        std::fs::remove_file(a_csv).ok();
        std::fs::remove_file(b_csv).ok();
    }

    /// R=1 with a dead owner cannot mask the loss — the query must still
    /// answer (degraded, shard reported unavailable) instead of erroring
    /// or hanging.
    #[test]
    fn dead_owner_without_replica_degrades_gracefully() {
        let csv = tmp("degrade.csv");
        io::write_csv(&anticorrelated(2_000, 3, 92), &csv).expect("write csv");
        let path = csv.to_str().unwrap().to_string();

        let mut workers = spawn_workers(2);
        let coord = start_coordinator(&workers.addrs(), 1);
        let mut cc = Client::connect(coord.addr()).expect("connect coordinator");
        cc.load("d", &path).expect("cluster load");

        workers.kill(0);
        let mut degraded = query(&mut cc, &spec(21));
        if !degraded.degraded {
            // Rendezvous placement can (rarely) put every shard on
            // worker 1 — kill it too so a shard is certainly lost.
            workers.kill(1);
            degraded = query(&mut cc, &spec(22));
        }
        assert!(
            degraded.degraded,
            "lost shard must degrade the answer: {degraded:?}"
        );
        assert!(
            degraded.status.contains("unavailable"),
            "status must name the unreachable shard: {}",
            degraded.status
        );
        // The budgeted schedule (one leg at a time) degrades the same
        // way: a budget too large to trip reaches the lost shard.
        let mut budgeted = spec(23);
        budgeted.max_dominance_tests = Some(1 << 40);
        let degraded = query(&mut cc, &budgeted);
        assert!(
            degraded.degraded && degraded.status.contains("unavailable"),
            "budgeted query must degrade on the lost shard: {degraded:?}"
        );

        cc.shutdown().expect("coordinator shutdown");
        std::fs::remove_file(csv).ok();
    }

    /// A fake worker: answers a request whose verb is `drip` with one
    /// byte every 20 ms and never a newline, until the peer hangs up, and
    /// every other request with `OK {}`.
    fn drip_worker(stream: TcpStream, drip: &str) {
        let mut reader = BufReader::new(stream.try_clone().expect("clone fake worker stream"));
        let mut writer = stream;
        let mut line = String::new();
        while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
            let body_len = line
                .split_whitespace()
                .find_map(|tok| tok.strip_prefix("bytes="))
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(0);
            let mut body = vec![0u8; body_len];
            if reader.read_exact(&mut body).is_err() {
                return;
            }
            if line.split_whitespace().next() == Some(drip) {
                while writer.write_all(b"O").is_ok() {
                    std::thread::sleep(Duration::from_millis(20));
                }
                return;
            }
            if writer.write_all(b"OK {}\n").is_err() {
                return;
            }
            line.clear();
        }
    }

    /// Starts a [`drip_worker`] listener dripping on `drip`; returns its
    /// address. Detached: the accept loop ends with the test process.
    fn fake_worker(drip: &'static str) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake worker");
        let addr = listener.local_addr().expect("fake worker addr").to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                std::thread::spawn(move || drip_worker(stream, drip));
            }
        });
        addr
    }

    /// A worker that never finishes its reply cannot hold any exchange
    /// past the coordinator's one fan-out deadline. A `QUERY` whose
    /// `FOLD` drips degrades naming the shard unavailable, with or
    /// without a dominance budget; `JOIN`/`LEAVE` whose handoff
    /// `SHARDPUT` drips answer; `LOAD`/`APPEND` whose every `SHARDPUT`
    /// drips fail naming the shard; a `STATS` roll-up lists a dripping
    /// node `"ok":false`. Each exchange runs on a helper thread so a
    /// regression fails instead of hanging the suite.
    #[test]
    fn worker_that_never_finishes_its_reply_degrades_within_the_deadline() {
        const FANOUT_TIMEOUT_MS: u64 = 500;
        let (fold, put, stats) = (
            fake_worker("FOLD"),
            fake_worker("SHARDPUT"),
            fake_worker("STATS"),
        );
        let csv = tmp("drip.csv");
        io::write_csv(&anticorrelated(2_000, 3, 95), &csv).expect("write csv");
        let path = csv.to_str().unwrap().to_string();
        let block_csv = tmp("drip-block.csv");
        io::write_csv(&anticorrelated(200, 3, 96), &block_csv).expect("write block csv");
        let block = block_csv.to_str().unwrap().to_string();

        let coord = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            cluster: Some(ClusterConfig {
                workers: vec![fold.clone()],
                replication: 1,
                shards: 2,
                fanout_timeout_ms: FANOUT_TIMEOUT_MS,
            }),
            ..ServerConfig::default()
        })
        .expect("bind coordinator")
        .spawn()
        .expect("spawn coordinator");
        let addr = coord.addr();
        let within = |line: String| {
            let (tx, rx) = mpsc::channel();
            let request = line.clone();
            let asker = std::thread::spawn(move || {
                let reply = Client::connect(addr)
                    .map_err(|e| e.to_string())
                    .and_then(|mut c| c.exchange(&request));
                let _ = tx.send(reply);
            });
            let reply = rx
                .recv_timeout(Duration::from_millis(8 * FANOUT_TIMEOUT_MS))
                .unwrap_or_else(|_| panic!("{line}: no answer within 8 deadlines"));
            asker.join().expect("exchange thread");
            reply
        };
        within(format!("LOAD name=d path={path}")).expect("cluster load");

        for (seed, budget) in [(5, None), (6, Some(1u64 << 40))] {
            let mut s = spec(seed);
            s.max_dominance_tests = budget;
            let got = answer(&within(s.to_line()).expect("query"));
            assert!(
                got.degraded && got.status.contains("unavailable"),
                "budget {budget:?}: must degrade naming the shard: {got:?}"
            );
        }

        // Every shard the SHARDPUT dripper gains moves at the JOIN or at
        // the LEAVE, so at least one of them drips.
        let joined = within(format!("JOIN addr={put}")).expect("join");
        assert!(joined.contains("workers=2"), "{joined}");
        let left = within(format!("LEAVE addr={fold}")).expect("leave");
        assert!(left.contains("workers=1"), "{left}");
        for line in [
            format!("LOAD name=d path={path}"),
            format!("APPEND name=d path={block}"),
        ] {
            let err = within(line.clone()).expect_err(&line);
            assert!(err.contains("reached no owner"), "{line}: {err}");
        }

        within(format!("JOIN addr={stats}")).expect("join");
        let rollup = within("STATS".to_string()).expect("stats");
        assert!(
            rollup.contains(&format!("{{\"addr\":\"{stats}\",\"ok\":false")),
            "the dripping node must be listed not ok: {rollup}"
        );
        assert!(
            rollup.contains(&format!("{{\"addr\":\"{put}\",\"ok\":true")),
            "the answering node must be listed ok: {rollup}"
        );

        Client::connect(addr)
            .and_then(|mut c| c.shutdown().map_err(std::io::Error::other))
            .expect("coordinator shutdown");
        std::fs::remove_file(csv).ok();
        std::fs::remove_file(block_csv).ok();
    }

    /// `JOIN` hands shards to the new worker and has it pull the folds
    /// the cluster has already computed: `moved` shards are counted as
    /// handoffs, the new worker holds folds before any `FOLD` reaches
    /// it, and a fresh seed still answers bit-identically to a single
    /// process. At R=1 over 32 shards the new third worker wins some
    /// shard but with probability (2/3)^32.
    #[test]
    fn join_hands_shards_and_folds_to_the_new_worker() {
        let csv = tmp("join.csv");
        io::write_csv(&anticorrelated(4_000, 3, 97), &csv).expect("write csv");
        let path = csv.to_str().unwrap().to_string();

        let mono = start_monolithic();
        let mut mc = Client::connect(mono.addr()).expect("connect monolithic");
        mc.load("d", &path).expect("monolithic load");

        let workers = spawn_workers(3);
        let addrs = workers.addrs();
        let coord = start_coordinator_with(&addrs[..2], 32);
        let mut cc = Client::connect(coord.addr()).expect("connect coordinator");
        cc.load("d", &path).expect("cluster load");
        for seed in [31, 32] {
            assert_eq!(query(&mut cc, &spec(seed)), query(&mut mc, &spec(seed)));
        }

        let handoffs = stat(&mut cc, "handoffs");
        let joined = cc
            .exchange(&format!("JOIN addr={}", addrs[2]))
            .expect("join");
        let moved: u64 = joined
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("moved="))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no moved= in {joined}"));
        assert!(moved > 0, "the joined worker must gain a shard: {joined}");
        assert_eq!(stat(&mut cc, "handoffs"), handoffs + moved);
        let mut wc = Client::connect(addrs[2].as_str()).expect("connect joined worker");
        assert!(
            stat(&mut wc, "bytes_resident") > 0,
            "REPLICATE must deliver the seen folds to the joined worker"
        );

        assert_eq!(
            query(&mut cc, &spec(33)),
            query(&mut mc, &spec(33)),
            "answer diverged after JOIN + handoff"
        );

        cc.shutdown().expect("coordinator shutdown");
        mc.shutdown().expect("monolithic shutdown");
        std::fs::remove_file(csv).ok();
    }
}

// ---------------------------------------------------------------------
// Skyline state across APPEND chains.
//
// A dataset generation memoises its skyline per preference vector and
// hands it on at APPEND, where the next query extends it over the
// appended rows only. These chains drive that path through the
// single-process registry and a two-worker cluster coordinator, and
// hold every fold — skyline, matrix, Γ-scores, dominance tests, trip
// phase — to a fold of the grown data that computes its skyline from
// scratch.
// ---------------------------------------------------------------------

mod append_chains {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use super::{grid_dataset, Rng};
    use skydiver::core::ShardFingerprint;
    use skydiver::data::generators::anticorrelated;
    use skydiver::data::dominance::MinDominance;
    use skydiver::data::{io, ShardedDataset};
    use skydiver::serve::protocol::json_u64;
    use skydiver::serve::{
        parse_prefs, Client, ClusterConfig, ClusterState, Metrics, Registry, Server, ServerConfig,
        ServerHandle,
    };
    use skydiver::skyline::naive_skyline;
    use skydiver::{
        CancelToken, Dataset, DegradationEvent, ExecPhase, Fingerprint, Preference, RunBudget,
        SignatureMatrix, SkyDiver,
    };

    const T: usize = 16;
    /// Shards a `LOAD` is partitioned into, on both topologies.
    const SHARDS: usize = 2;
    const CHAINS: u64 = 16;

    /// Everything that must be bit-identical between a served fold and
    /// the reference fold.
    #[derive(Debug, PartialEq)]
    struct Fold {
        skyline: Vec<usize>,
        matrix: SignatureMatrix,
        scores: Vec<u64>,
        dominance_tests: u64,
        tripped: Option<ExecPhase>,
    }

    impl Fold {
        fn of(fp: &Fingerprint, dominance_tests: u64) -> Fold {
            Fold {
                skyline: fp.skyline.clone(),
                matrix: fp.output.matrix.clone(),
                scores: fp.output.scores.clone(),
                dominance_tests,
                tripped: fp.interrupt.as_ref().map(|i| i.phase),
            }
        }
    }

    /// A budget that counts dominance tests (a cancel token makes it
    /// limited) and trips only on the limits given.
    fn budget(max_dominance_tests: Option<u64>, zero_deadline: bool) -> RunBudget {
        let mut b = RunBudget::none().with_cancel_token(CancelToken::new());
        if let Some(n) = max_dominance_tests {
            b = b.with_max_dominance_tests(n);
        }
        if zero_deadline {
            b = b.with_deadline(std::time::Duration::ZERO);
        }
        b
    }

    /// A single-process registry and a coordinator over two in-process
    /// workers, each with its own registry and metrics.
    struct Topologies {
        mono: Registry,
        coord: Registry,
        cluster: ClusterState,
        workers: Vec<ServerHandle>,
        dir: std::path::PathBuf,
        files: AtomicU64,
    }

    impl Topologies {
        fn start(tag: &str) -> Topologies {
            let workers: Vec<ServerHandle> = (0..2)
                .map(|_| {
                    Server::bind(&ServerConfig {
                        addr: "127.0.0.1:0".into(),
                        threads: 1,
                        ..ServerConfig::default()
                    })
                    .expect("bind worker")
                    .spawn()
                    .expect("spawn worker")
                })
                .collect();
            let metrics = Arc::new(Metrics::new());
            let cluster = ClusterState::new(
                &ClusterConfig {
                    workers: workers.iter().map(|w| w.addr().to_string()).collect(),
                    replication: 1,
                    shards: SHARDS,
                    fanout_timeout_ms: 10_000,
                },
                Arc::clone(&metrics),
            );
            let mut dir = std::env::temp_dir();
            dir.push(format!("skydiver-chains-{}-{tag}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("temp dir");
            Topologies {
                mono: Registry::new(64 << 20, Arc::new(Metrics::new())),
                coord: Registry::new(64 << 20, metrics),
                cluster,
                workers,
                dir,
                files: AtomicU64::new(0),
            }
        }

        /// Writes `ds` to a fresh `.sky` file (bit-exact, NaN included).
        fn file(&self, ds: &Dataset) -> String {
            let i = self.files.fetch_add(1, Ordering::Relaxed);
            let path = self.dir.join(format!("{i}.sky"));
            io::write_binary(ds, &path).expect("write block");
            path.to_str().expect("utf-8 path").to_string()
        }

        fn load(&self, name: &str, base: &Dataset) {
            self.mono
                .insert_sharded(name, ShardedDataset::partition(base, SHARDS));
            self.cluster
                .load(&self.coord, name, &self.file(base))
                .expect("cluster load");
        }

        fn append(&self, name: &str, block: &Dataset) {
            self.mono
                .append_dataset(name, block.clone())
                .expect("append");
            self.cluster
                .append(&self.coord, name, &self.file(block))
                .expect("cluster append");
        }

        /// The fold (or error) each topology serves for one query.
        #[allow(clippy::type_complexity)]
        fn query(
            &self,
            name: &str,
            prefs: &[Preference],
            seed: u64,
            max: Option<u64>,
            zero_deadline: bool,
        ) -> [Result<Fold, String>; 2] {
            let key = prefs_key(prefs);
            let mono = self
                .mono
                .fingerprint(name, prefs, &key, T, seed, budget(max, zero_deadline))
                .map(|(fp, _, tests)| Fold::of(&fp, tests));
            let cluster = self
                .cluster
                .fingerprint(
                    &self.coord,
                    name,
                    prefs,
                    &key,
                    T,
                    seed,
                    budget(max, zero_deadline),
                )
                .map(|(fp, _, tests)| Fold::of(&fp, tests));
            [mono, cluster]
        }

        /// `fingerprint_extends` of each topology's query path.
        fn fingerprint_extends(&self) -> [u64; 2] {
            [self.mono.metrics(), self.coord.metrics()]
                .map(|m| m.fingerprint_extends.load(Ordering::Relaxed))
        }

        /// `fingerprint_deltas` of each topology's query path.
        fn fingerprint_deltas(&self) -> [u64; 2] {
            [self.mono.metrics(), self.coord.metrics()]
                .map(|m| m.fingerprint_deltas.load(Ordering::Relaxed))
        }

        /// STATS `bytes_resident` of each topology's fold caches: the
        /// single process's, and the sum of the workers'.
        fn bytes_resident(&self) -> [u64; 2] {
            let resident = |stats: &str| json_u64(stats, "bytes_resident").expect("bytes_resident");
            let workers = self
                .workers
                .iter()
                .map(|w| {
                    let mut c = Client::connect(w.addr()).expect("connect worker");
                    resident(&c.stats().expect("worker STATS"))
                })
                .sum();
            [resident(&self.mono.stats_json()), workers]
        }

        /// `(cache_misses, skyline_hits, skyline_extends)` of each
        /// topology's query path.
        fn skyline_counters(&self) -> [(u64, u64, u64); 2] {
            [self.mono.metrics(), self.coord.metrics()].map(|m| {
                (
                    m.cache_misses.load(Ordering::Relaxed),
                    m.skyline_hits.load(Ordering::Relaxed),
                    m.skyline_extends.load(Ordering::Relaxed),
                )
            })
        }
    }

    impl Drop for Topologies {
        fn drop(&mut self) {
            for w in &self.workers {
                if let Ok(mut c) = Client::connect(w.addr()) {
                    let _ = c.shutdown();
                }
            }
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    fn prefs_key(prefs: &[Preference]) -> String {
        let spec: Vec<&str> = prefs
            .iter()
            .map(|p| if *p == Preference::Min { "min" } else { "max" })
            .collect();
        parse_prefs(Some(&spec.join(",")), prefs.len())
            .expect("prefs")
            .1
    }

    /// Maps a canonical (min-space) row to raw coordinates under `prefs`.
    fn raw(prefs: &[Preference], canon: [f64; 3]) -> [f64; 3] {
        let mut out = canon;
        for (v, p) in out.iter_mut().zip(prefs) {
            if *p == Preference::Max {
                *v = -*v;
            }
        }
        out
    }

    /// Two canonical rows whose coordinate sums round to the same f64
    /// although the second dominates the first; `low` places them below
    /// every grid point.
    fn tie_pair(low: bool) -> [[f64; 3]; 2] {
        let z: f64 = if low { -0.1 } else { 0.1 };
        // One ulp up: away from zero for a positive z, towards it for a
        // negative one.
        let up = f64::from_bits(if low {
            z.to_bits() - 1
        } else {
            z.to_bits() + 1
        });
        let s = if low { -1.0 } else { 1.0 };
        let dominated = [0.5 * s, 0.25 * s, up];
        let dominator = [0.5 * s, 0.25 * s, z];
        assert_eq!(
            dominated.iter().sum::<f64>(),
            dominator.iter().sum::<f64>(),
            "tie rows must share a score"
        );
        [dominated, dominator]
    }

    /// One appended block: coarse-grid points, rows strictly dominated
    /// by existing rows, rows below everything so far, exact duplicates
    /// of existing (skyline) rows, or a score-tie pair whose dominator
    /// may arrive in a later block.
    fn block(
        rng: &mut Rng,
        prefs: &[Preference],
        canon_so_far: &Dataset,
        floor: &mut f64,
        pending: &mut Vec<[f64; 3]>,
    ) -> Dataset {
        let mut rows: Vec<[f64; 3]> = std::mem::take(pending);
        let pick = |rng: &mut Rng| {
            let p = canon_so_far.point(rng.range(0, canon_so_far.len() as u64) as usize);
            [p[0], p[1], p[2]]
        };
        let len = rng.range(1, 17);
        match rng.range(0, 5) {
            0 => {
                let g = grid_dataset(rng, len + 1, 3);
                rows.extend(g.iter().map(|p| [p[0], p[1], p[2]]));
            }
            1 => {
                for _ in 0..len {
                    let p = pick(rng);
                    let d = rng.range(1, 4) as f64 / 7.0;
                    rows.push([p[0] + d, p[1] + d, p[2] + d]);
                }
            }
            2 => {
                *floor -= 2.0;
                for _ in 0..len {
                    rows.push([0, 1, 2].map(|_| *floor + rng.range(0, 8) as f64 / 7.0));
                }
            }
            3 => {
                let sky = naive_skyline(canon_so_far, &MinDominance);
                for _ in 0..len {
                    if rng.range(0, 2) == 0 {
                        let s = sky[rng.range(0, sky.len() as u64) as usize];
                        let p = canon_so_far.point(s);
                        rows.push([p[0], p[1], p[2]]);
                    } else {
                        rows.push(pick(rng));
                    }
                }
            }
            _ => {
                let [dominated, dominator] = tie_pair(rng.range(0, 2) == 0);
                rows.push(dominated);
                if rng.range(0, 2) == 0 {
                    rows.push(dominator);
                } else {
                    pending.push(dominator);
                }
            }
        }
        let flat: Vec<f64> = rows.iter().flat_map(|&r| raw(prefs, r)).collect();
        Dataset::from_flat(3, flat)
    }

    fn concat(a: &Dataset, b: &Dataset) -> Dataset {
        let mut out = a.clone();
        for p in b.iter() {
            out.push(p);
        }
        out
    }

    /// Acceptance: random APPEND chains of 1–8 blocks, queried after
    /// some appends and not others, answer bit-identically on both
    /// topologies to a fold that recomputes the skyline of the grown
    /// data — unbudgeted, under a dominance-test prefix, and under a
    /// zero deadline — and the skyline counters show one full SFS pass
    /// per chain. Both topologies extend the same inherited assembled
    /// fingerprints — after the dominated blocks, whose skyline is
    /// unchanged — and take the same column deltas on them after the
    /// blocks that change it.
    #[test]
    fn append_chains_fold_bit_identically_to_a_fresh_skyline() {
        let topo = Topologies::start("prop");
        let mut fresh_seed = 1_000u64;
        let (mut tripped, mut extensions) = (0u32, 0u64);
        let mut prev_counters = topo.skyline_counters();
        let mut prev_fp_extends = topo.fingerprint_extends();
        let mut prev_fp_deltas = topo.fingerprint_deltas();
        let (mut fp_extensions, mut fp_deltas) = (0u64, 0u64);
        for case in 0..CHAINS {
            let mut rng = Rng::new(0x5c41 ^ case);
            let prefs = if case % 3 == 2 {
                vec![Preference::Min, Preference::Max, Preference::Min]
            } else {
                Preference::all_min(3)
            };
            let name = format!("chain{case}");
            let seed = case;
            let mut canon = grid_dataset(&mut rng, 120, 3);
            let mut data = Dataset::from_flat(
                3,
                canon
                    .iter()
                    .flat_map(|p| raw(&prefs, [p[0], p[1], p[2]]))
                    .collect(),
            );
            let mut sd = ShardedDataset::partition(&data, SHARDS);
            topo.load(&name, &data);

            let blocks = rng.range(1, 9);
            let (mut floor, mut pending) = (0.0f64, Vec::new());
            let mut cached: Vec<Option<Arc<ShardFingerprint>>> = Vec::new();
            let (mut queried, mut extended) = (0u64, 0u64);
            for step in 0..=blocks {
                if step > 0 {
                    let b = block(&mut rng, &prefs, &canon, &mut floor, &mut pending);
                    topo.append(&name, &b);
                    sd.push_shard(b.clone());
                    data = concat(&data, &b);
                    let canon_b = Dataset::from_flat(
                        3,
                        b.iter()
                            .flat_map(|p| raw(&prefs, [p[0], p[1], p[2]]))
                            .collect(),
                    );
                    canon = concat(&canon, &canon_b);
                }
                let last = step == blocks;
                if step > 0 && !last && rng.range(0, 2) == 0 {
                    continue;
                }
                let what = format!("case {case}, step {step}/{blocks}, {} rows", data.len());
                let want_sky = naive_skyline(&canon, &MinDominance);

                // The chain's own key: served folds reuse the previous
                // query's shard folds, so the reference hands the same
                // folds in; a cold fold pins skyline, matrix and scores.
                let pipe = SkyDiver::new(2).signature_size(T).hash_seed(seed);
                let reference = pipe
                    .clone()
                    .budget(budget(None, false))
                    .fingerprint_sharded_with(&sd, &prefs, &cached)
                    .expect("reference fold");
                let cold = pipe.fingerprint_sharded(&sd, &prefs).expect("cold fold");
                assert_eq!(
                    reference.fingerprint.skyline, want_sky,
                    "{what}: SFS is not the skyline"
                );
                assert_eq!(cold.fingerprint.skyline, want_sky, "{what}");
                assert_eq!(
                    reference.fingerprint.output.matrix, cold.fingerprint.output.matrix,
                    "{what}"
                );
                assert_eq!(
                    reference.fingerprint.output.scores, cold.fingerprint.output.scores,
                    "{what}"
                );
                let want = Fold::of(&reference.fingerprint, reference.dominance_tests);
                for (topology, got) in ["single-process", "cluster"]
                    .iter()
                    .zip(topo.query(&name, &prefs, seed, None, false))
                {
                    assert_eq!(got.as_ref(), Ok(&want), "{what}: {topology} fold diverged");
                }
                cached = reference.shards.into_iter().map(Some).collect();
                queried += 1;
                // The first query of every generation after the load
                // extends the skyline it inherited.
                if step > 0 {
                    extended += 1;
                }

                // A fresh hash seed under a dominance-test prefix: the
                // trip lands on the same row as a cold fold's.
                fresh_seed += 1;
                let limit = rng.range(1, (data.len() * want_sky.len()) as u64 + 2);
                let reference = pipe
                    .clone()
                    .hash_seed(fresh_seed)
                    .budget(budget(Some(limit), false))
                    .fingerprint_sharded(&sd, &prefs)
                    .expect("budgeted reference");
                let want = Fold::of(&reference.fingerprint, reference.dominance_tests);
                if want.tripped == Some(ExecPhase::Fingerprint) {
                    tripped += 1;
                }
                for (topology, got) in ["single-process", "cluster"].iter().zip(topo.query(
                    &name,
                    &prefs,
                    fresh_seed,
                    Some(limit),
                    false,
                )) {
                    assert_eq!(
                        got.as_ref(),
                        Ok(&want),
                        "{what}, limit {limit}: {topology} prefix diverged"
                    );
                }

                // A zero deadline trips at the skyline phase, after the
                // skyline state is resolved, with nothing folded.
                fresh_seed += 1;
                let reference = pipe
                    .clone()
                    .hash_seed(fresh_seed)
                    .budget(budget(None, true))
                    .fingerprint_sharded(&sd, &prefs)
                    .expect("deadline reference");
                let want = Fold::of(&reference.fingerprint, reference.dominance_tests);
                assert_eq!(want.tripped, Some(ExecPhase::Skyline), "{what}");
                for (topology, got) in ["single-process", "cluster"]
                    .iter()
                    .zip(topo.query(&name, &prefs, fresh_seed, None, true))
                {
                    assert_eq!(
                        got.as_ref(),
                        Ok(&want),
                        "{what}: {topology} zero-deadline answer diverged"
                    );
                }
            }

            // Three misses per query point; only the chain's first runs
            // a full SFS pass, each first query after appends extends.
            let now = topo.skyline_counters();
            for (t, (before, after)) in prev_counters.iter().zip(&now).enumerate() {
                let misses = after.0 - before.0;
                let extends = after.2 - before.2;
                let hits = after.1 - before.1;
                assert_eq!(misses, 3 * queried, "case {case}, topology {t}");
                assert_eq!(extends, extended, "case {case}, topology {t}: extensions");
                assert_eq!(
                    misses - hits - extends,
                    1,
                    "case {case}, topology {t}: full SFS passes"
                );
            }
            prev_counters = now;
            extensions += extended;
            let now = topo.fingerprint_extends();
            let grown = [0, 1].map(|t| now[t] - prev_fp_extends[t]);
            assert_eq!(
                grown[0], grown[1],
                "case {case}: fingerprint extensions differ between topologies"
            );
            fp_extensions += grown[0];
            prev_fp_extends = now;
            let now = topo.fingerprint_deltas();
            let grown = [0, 1].map(|t| now[t] - prev_fp_deltas[t]);
            assert_eq!(
                grown[0], grown[1],
                "case {case}: column deltas differ between topologies"
            );
            fp_deltas += grown[0];
            prev_fp_deltas = now;
        }
        assert!(
            tripped >= 8,
            "budget property is vacuous: {tripped} prefixes tripped"
        );
        assert!(
            extensions >= CHAINS,
            "extension property is vacuous: {extensions} extensions"
        );
        assert!(
            fp_extensions > 0,
            "no chain extended an inherited fingerprint"
        );
        assert!(fp_deltas > 0, "no chain took a column delta");
    }

    /// Two dominance budgets after an `APPEND` that changes the
    /// skyline, on both topologies, held to the per-shard path (a fold
    /// handed the pre-append query's shard folds): one too small to fund
    /// the column delta folds shard by shard and trips in the old
    /// shards; one that funds it takes the delta and trips in the
    /// appended shard. Each answer — matrix, scores, dominance tests,
    /// trip — is the per-shard path's, bit for bit.
    #[test]
    fn column_delta_budgets_trip_where_the_per_shard_path_trips() {
        let topo = Topologies::start("delta-budget");
        let prefs = Preference::all_min(3);
        let base = anticorrelated(1_500, 3, 88);
        topo.load("d", &base);
        let mut sd = ShardedDataset::partition(&base, SHARDS);
        let pipe = |seed: u64, max: Option<u64>| {
            SkyDiver::new(2)
                .signature_size(T)
                .hash_seed(seed)
                .budget(budget(max, false))
        };
        let mut folds = Vec::new();
        for seed in [1, 2] {
            for got in topo.query("d", &prefs, seed, None, false) {
                assert!(got.is_ok(), "{got:?}");
            }
            let run = pipe(seed, None).fingerprint_sharded(&sd, &prefs).unwrap();
            folds.push(run.shards.into_iter().map(Some).collect::<Vec<_>>());
        }
        // Two rows enter the skyline; sixty more are dominated by it.
        let mut rows = vec![[-1.0, 5.0, 5.0], [5.0, -1.0, 5.0]];
        rows.extend((0..60).map(|i| [3.0 + i as f64 / 100.0, 3.0, 3.0]));
        let block = Dataset::from_rows(3, &rows);
        topo.append("d", &block);
        sd.push_shard(block);

        let sky = pipe(1, None).fingerprint_sharded(&sd, &prefs).unwrap();
        let ids = &sky.fingerprint.skyline;
        let survivors = ids.partition_point(|&id| id < base.len());
        let entering = (ids.len() - survivors) as u64;
        assert_eq!(entering, 2);
        let delta_charge = entering * (base.len() - survivors) as u64;
        for (seed, limit, delta) in [
            (1u64, delta_charge - 1, 0u64),
            (2, delta_charge + 30 * ids.len() as u64, 1),
        ] {
            let deltas = topo.fingerprint_deltas();
            let per_shard = pipe(seed, Some(limit))
                .fingerprint_sharded_with(&sd, &prefs, &folds[seed as usize - 1])
                .unwrap();
            let want = Fold::of(&per_shard.fingerprint, per_shard.dominance_tests);
            assert_eq!(want.tripped, Some(ExecPhase::Fingerprint), "limit {limit}");
            let scanned = per_shard.fingerprint.events.iter().find_map(|e| match e {
                DegradationEvent::FingerprintCurtailed { rows_scanned, .. } => Some(*rows_scanned),
                _ => None,
            });
            assert_eq!(
                scanned.map(|rows| rows > base.len()),
                Some(delta == 1),
                "limit {limit}: the trip lands in the appended shard iff the delta is funded"
            );
            for (topology, got) in ["single-process", "cluster"]
                .iter()
                .zip(topo.query("d", &prefs, seed, Some(limit), false))
            {
                assert_eq!(got.as_ref(), Ok(&want), "limit {limit}: {topology}");
            }
            let now = topo.fingerprint_deltas();
            assert_eq!(
                [now[0] - deltas[0], now[1] - deltas[1]],
                [delta; 2],
                "limit {limit}: column deltas taken"
            );
        }
    }

    /// Only a compute's shard folds stay in a fold cache. After 24
    /// appends that leave the skyline unchanged and 4 that change it,
    /// each followed by a query that extends the memoised fingerprint or
    /// takes a column delta on it, STATS `bytes_resident` reads on both
    /// topologies what it read after the first query.
    #[test]
    fn extensions_and_deltas_leave_the_fold_caches_unchanged() {
        let topo = Topologies::start("resident");
        let prefs = Preference::all_min(3);
        let base = anticorrelated(1_000, 3, 89);
        topo.load("d", &base);
        let answers = topo.query("d", &prefs, 1, None, false);
        assert!(
            answers[0].is_ok() && answers[0] == answers[1],
            "{answers:?}"
        );
        let resident = topo.bytes_resident();
        assert!(resident.iter().all(|&b| b > 0), "{resident:?}");
        for i in 0..28 {
            let (extends, deltas) = (topo.fingerprint_extends(), topo.fingerprint_deltas());
            let block = match i % 7 {
                // Lower in the first dimension than every row so far:
                // joins the skyline, displacing the previous such row.
                6 => Dataset::from_rows(3, &[[-1.0 - i as f64, 5.0, 5.0]]),
                _ => {
                    let v = 10.0 + i as f64;
                    Dataset::from_rows(3, &vec![[v, v, v]; 1 + i % 3])
                }
            };
            topo.append("d", &block);
            let answers = topo.query("d", &prefs, 1, None, false);
            assert!(
                answers[0].is_ok() && answers[0] == answers[1],
                "append {i}: {answers:?}"
            );
            let grown = match i % 7 {
                6 => (extends, deltas.map(|n| n + 1)),
                _ => (extends.map(|n| n + 1), deltas),
            };
            assert_eq!(
                (topo.fingerprint_extends(), topo.fingerprint_deltas()),
                grown,
                "append {i}"
            );
        }
        assert_eq!(topo.bytes_resident(), resident, "the fold caches grew");
    }

    /// An unfunded column delta after an extension folds every shard,
    /// as the per-shard path does — but the shard the extension folded
    /// is not in the fold cache any more: the answer (matrix, scores,
    /// dominance tests, trip) is `fingerprint_sharded_with` handed the
    /// compute's folds and `None` for the extension's shard, on both
    /// topologies. The budget trips inside that shard, so the answer
    /// with its fold kept would differ.
    #[test]
    fn an_unfunded_delta_after_an_extension_refolds_the_extended_shard() {
        let topo = Topologies::start("unfunded");
        let prefs = Preference::all_min(3);
        let base = anticorrelated(1_500, 3, 90);
        topo.load("d", &base);
        let mut sd = ShardedDataset::partition(&base, SHARDS);
        let pipe = |max: Option<u64>| {
            SkyDiver::new(2)
                .signature_size(T)
                .hash_seed(1)
                .budget(budget(max, false))
        };
        for got in topo.query("d", &prefs, 1, None, false) {
            assert!(got.is_ok(), "{got:?}");
        }
        let computed = pipe(None).fingerprint_sharded(&sd, &prefs).unwrap().shards;

        let sunk: Vec<[f64; 3]> = (0..300)
            .map(|i| [10.0 + i as f64 / 100.0, 10.0, 10.0])
            .collect();
        let sunk = Dataset::from_rows(3, &sunk);
        let extends = topo.fingerprint_extends();
        topo.append("d", &sunk);
        sd.push_shard(sunk);
        for got in topo.query("d", &prefs, 1, None, false) {
            assert!(got.is_ok(), "{got:?}");
        }
        assert_eq!(
            topo.fingerprint_extends(),
            extends.map(|n| n + 1),
            "an extension"
        );
        let mut held: Vec<_> = computed.into_iter().map(Some).collect();
        held.push(None);
        let extended = pipe(None)
            .fingerprint_sharded_with(&sd, &prefs, &held)
            .unwrap()
            .shards;

        // Two rows enter the skyline; sixty more are dominated by it.
        let mut rows = vec![[-1.0, 5.0, 5.0], [5.0, -1.0, 5.0]];
        rows.extend((0..60).map(|i| [3.0 + i as f64 / 100.0, 3.0, 3.0]));
        let block = Dataset::from_rows(3, &rows);
        topo.append("d", &block);
        sd.push_shard(block);
        held.push(None);
        let ids = pipe(None)
            .fingerprint_sharded(&sd, &prefs)
            .unwrap()
            .fingerprint
            .skyline;
        let from = sd.base(3);
        let survivors = ids.partition_point(|&id| id < from);
        let delta_charge = (ids.len() - survivors) as u64 * (from - survivors) as u64;
        let limit = delta_charge - 1;

        let per_shard = pipe(Some(limit))
            .fingerprint_sharded_with(&sd, &prefs, &held)
            .unwrap();
        let want = Fold::of(&per_shard.fingerprint, per_shard.dominance_tests);
        assert_eq!(want.tripped, Some(ExecPhase::Fingerprint));
        let scanned = per_shard.fingerprint.events.iter().find_map(|e| match e {
            DegradationEvent::FingerprintCurtailed { rows_scanned, .. } => Some(*rows_scanned),
            _ => None,
        });
        assert!(
            scanned.is_some_and(|rows| (base.len()..from).contains(&rows)),
            "the trip lands in the extension's shard: {scanned:?}"
        );
        let mut kept = held.clone();
        kept[2] = Some(Arc::clone(&extended[2]));
        let with_kept = pipe(Some(limit))
            .fingerprint_sharded_with(&sd, &prefs, &kept)
            .unwrap();
        assert_ne!(
            Fold::of(&with_kept.fingerprint, with_kept.dominance_tests),
            want,
            "the scenario tells a kept fold from a dropped one"
        );

        let deltas = topo.fingerprint_deltas();
        for (topology, got) in
            ["single-process", "cluster"]
                .iter()
                .zip(topo.query("d", &prefs, 1, Some(limit), false))
        {
            assert_eq!(got.as_ref(), Ok(&want), "{topology}");
        }
        assert_eq!(topo.fingerprint_deltas(), deltas, "the delta is not funded");
    }

    /// A NaN in an appended block fails the next query on both
    /// topologies with the error — and the global row — that a fold of
    /// the grown data reports.
    #[test]
    fn non_finite_appended_row_reports_its_global_row() {
        let topo = Topologies::start("nan");
        let prefs = Preference::all_min(3);
        let mut rng = Rng::new(0x4a4);
        let base = grid_dataset(&mut rng, 60, 3);
        topo.load("d", &base);
        for got in topo.query("d", &prefs, 1, None, false) {
            assert!(got.is_ok(), "{got:?}");
        }
        let good = grid_dataset(&mut rng, 10, 3);
        topo.append("d", &good);
        let mut bad = grid_dataset(&mut rng, 10, 3);
        let row = bad.len() / 2;
        let mut flat = bad.as_flat().to_vec();
        flat[row * 3 + 1] = f64::NAN;
        bad = Dataset::from_flat(3, flat);
        topo.append("d", &bad);

        let mut sd = ShardedDataset::partition(&base, SHARDS);
        sd.push_shard(good.clone());
        sd.push_shard(bad.clone());
        let want = SkyDiver::new(2)
            .signature_size(T)
            .fingerprint_sharded(&sd, &prefs)
            .unwrap_err();
        assert_eq!(
            want,
            skydiver::SkyDiverError::NonFiniteCoordinate {
                row: base.len() + good.len() + row,
                dim: 1
            }
        );
        for _ in 0..2 {
            for got in topo.query("d", &prefs, 2, None, false) {
                assert_eq!(got, Err(want.to_string()));
            }
        }
    }

    /// `LOAD` starts a generation with no skyline state: the next query
    /// runs a full SFS pass over the new data instead of extending or
    /// reusing the old skyline.
    #[test]
    fn load_drops_the_skyline_state() {
        let topo = Topologies::start("load");
        let prefs = Preference::all_min(3);
        let mut rng = Rng::new(0x10ad);
        let first = grid_dataset(&mut rng, 80, 3);
        let second = grid_dataset(&mut rng, 80, 3);
        topo.load("d", &first);
        for seed in [1, 2] {
            for got in topo.query("d", &prefs, seed, None, false) {
                assert!(got.is_ok(), "{got:?}");
            }
        }
        assert_eq!(topo.skyline_counters(), [(2, 1, 0); 2]);

        topo.append("d", &second);
        topo.load("d", &second);
        let sd = ShardedDataset::partition(&second, SHARDS);
        let reference = SkyDiver::new(2)
            .signature_size(T)
            .hash_seed(3)
            .budget(budget(None, false))
            .fingerprint_sharded(&sd, &prefs)
            .expect("reference");
        let want = Fold::of(&reference.fingerprint, reference.dominance_tests);
        assert_eq!(want.skyline, naive_skyline(&second, &MinDominance));
        for got in topo.query("d", &prefs, 3, None, false) {
            assert_eq!(got.as_ref(), Ok(&want));
        }
        // The third miss neither hit nor extended a memo entry.
        assert_eq!(topo.skyline_counters(), [(3, 1, 0); 2]);
        // The coordinator's STATS roll-up carries its skyline counters
        // into the merged view: the workers compute no skyline.
        let rollup = topo.cluster.stats_rollup(&topo.coord);
        let merged = &rollup[rollup.find("\"merged\":").expect("merged object")..];
        assert_eq!(json_u64(merged, "skyline_hits"), Some(1), "{rollup}");
        assert_eq!(json_u64(merged, "skyline_extends"), Some(0), "{rollup}");
    }
}
