//! Integration tests of the `skydiver-serve` query service: wire-level
//! determinism against the direct pipeline, fingerprint-cache reuse,
//! budget degradation and clean shutdown.

use std::sync::atomic::{AtomicUsize, Ordering};

use skydiver::core::kernels::FoldTier;
use skydiver::data::generators::anticorrelated;
use skydiver::data::io;
use skydiver::data::ShardedDataset;
use skydiver::serve::protocol::{
    json_bool, json_f64, json_u64, json_u64_array, BatchSpec, Method, QuerySpec,
};
use skydiver::serve::{Client, Server, ServerConfig, ServerHandle};
use skydiver::{Preference, SkyDiver};

const T: usize = 64;
const SEED: u64 = 5;

fn start(threads: usize) -> ServerHandle {
    Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads,
        cache_bytes: 64 << 20,
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn()
    .expect("spawn")
}

fn spec(k: usize) -> QuerySpec {
    let mut s = QuerySpec::new("ant", k);
    s.t = T;
    s.seed = SEED;
    s
}

fn selected_of(payload: &str) -> Vec<u64> {
    json_u64_array(payload, "selected").expect("selected array")
}

/// Acceptance: with a fixed seed, a server `QUERY` — cold or warm, any
/// worker-pool size, under concurrency — returns the bit-identical
/// selected set that a direct `SkyDiver::run` computes.
#[test]
fn concurrent_queries_match_direct_run_bit_for_bit() {
    let k = 7;
    let direct = SkyDiver::new(k)
        .signature_size(T)
        .hash_seed(SEED)
        .run(&anticorrelated(20_000, 3, 33), &Preference::all_min(3))
        .expect("direct run");
    let expected: Vec<u64> = direct.selected.iter().map(|&i| i as u64).collect();

    for threads in [1, 4] {
        let handle = start(threads);
        handle.registry().insert_dataset("ant", anticorrelated(20_000, 3, 33));
        let addr = handle.addr();

        // 8 concurrent clients, all racing the cold cache.
        let cached_seen = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cached_seen = &cached_seen;
                let expected = &expected;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let payload = client.query(&spec(k)).expect("query");
                    assert_eq!(
                        &selected_of(&payload),
                        expected,
                        "concurrent cold query diverged from the direct run ({threads} threads)"
                    );
                    if json_bool(&payload, "cached") == Some(true) {
                        cached_seen.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });

        // Warm: a 9th query must hit the cache and still match.
        let mut client = Client::connect(addr).expect("connect");
        let payload = client.query(&spec(k)).expect("warm query");
        assert_eq!(selected_of(&payload), expected, "warm query diverged");
        assert_eq!(json_bool(&payload, "cached"), Some(true));

        let stats = client.stats().expect("stats");
        let hits = json_u64(&stats, "cache_hits").unwrap();
        let misses = json_u64(&stats, "cache_misses").unwrap();
        assert!(hits >= 1, "warm query must be a cache hit: {stats}");
        assert_eq!(hits + misses, 9, "every query is a hit or a miss: {stats}");
        assert_eq!(json_u64(&stats, "queries"), Some(9));

        client.shutdown().expect("shutdown");
        handle.join().expect("clean server exit");
    }
}

/// Acceptance: a warm-cache `QUERY` skips fingerprinting entirely — it
/// completes undegraded even under a zero dominance-test budget (the
/// selection phase charges none), reports `fingerprint_ms` 0 and bumps
/// the cache-hit counter. The same zero budget on a cold cache degrades.
#[test]
fn warm_cache_query_charges_no_dominance_tests() {
    let handle = start(2);
    handle.registry().insert_dataset("ant", anticorrelated(10_000, 3, 44));
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Cold query under a zero dominance-test budget: fingerprinting must
    // trip immediately — degraded, nothing cached.
    let mut starved = spec(5);
    starved.max_dominance_tests = Some(0);
    let payload = client.query(&starved).expect("starved cold query");
    assert_eq!(json_bool(&payload, "degraded"), Some(true), "{payload}");
    assert_eq!(json_bool(&payload, "cached"), Some(false));

    // Populate the cache with an unbudgeted query.
    let payload = client.query(&spec(5)).expect("cold query");
    assert_eq!(json_bool(&payload, "cached"), Some(false));
    assert!(json_f64(&payload, "fingerprint_ms").unwrap() > 0.0);
    let cold_selected = selected_of(&payload);

    // Warm query under the same zero budget: the cached fingerprint means
    // no dominance test is ever charged, so it must complete undegraded
    // with the identical answer and no fingerprint cost.
    let payload = client.query(&starved).expect("starved warm query");
    assert_eq!(json_bool(&payload, "cached"), Some(true), "{payload}");
    assert_eq!(json_bool(&payload, "degraded"), Some(false), "{payload}");
    assert_eq!(json_f64(&payload, "fingerprint_ms"), Some(0.0));
    assert_eq!(selected_of(&payload), cold_selected);

    let stats = client.stats().expect("stats");
    assert!(json_u64(&stats, "cache_hits").unwrap() >= 1, "{stats}");
    assert!(json_u64(&stats, "degraded").unwrap() >= 1, "{stats}");
    // The fold copy is a string, named whichever the host runs: the
    // tier core's dispatch picks.
    let kernel = FoldTier::detect().name();
    assert!(["avx512", "avx2", "portable"].contains(&kernel));
    assert!(stats.contains(&format!(r#""fold_kernel":"{kernel}""#)), "{stats}");

    client.shutdown().expect("shutdown");
    handle.join().expect("clean server exit");
}

/// The LSH method reuses the same cached fingerprint as MinHash; the
/// exact greedy baseline bypasses the cache entirely.
#[test]
fn lsh_reuses_the_cache_and_greedy_bypasses_it() {
    let handle = start(2);
    handle.registry().insert_dataset("ant", anticorrelated(8_000, 3, 55));
    let mut client = Client::connect(handle.addr()).expect("connect");

    let payload = client.query(&spec(4)).expect("mh query");
    assert_eq!(json_bool(&payload, "cached"), Some(false));
    let skyline = json_u64(&payload, "skyline").unwrap();

    let mut lsh = spec(4);
    lsh.method = Method::Lsh { xi: 0.2, buckets: 16 };
    let payload = client.query(&lsh).expect("lsh query");
    assert_eq!(
        json_bool(&payload, "cached"),
        Some(true),
        "lsh shares the (dataset, prefs, t, seed) fingerprint: {payload}"
    );
    assert_eq!(selected_of(&payload).len(), 4);

    let mut greedy = spec(4);
    greedy.method = Method::Greedy;
    let payload = client.query(&greedy).expect("greedy query");
    assert_eq!(json_bool(&payload, "cached"), Some(false));
    assert_eq!(json_u64(&payload, "skyline"), Some(skyline));
    let sel = selected_of(&payload);
    assert_eq!(sel.len(), 4);
    let unique: std::collections::HashSet<u64> = sel.iter().copied().collect();
    assert_eq!(unique.len(), 4, "greedy selection must be distinct: {sel:?}");
    // Greedy never populates the signature cache.
    let stats = client.stats().expect("stats");
    assert_eq!(json_u64(&stats, "cache_misses"), Some(1), "{stats}");

    client.shutdown().expect("shutdown");
    handle.join().expect("clean server exit");
}

/// Error responses: unknown datasets, bad requests and missing files are
/// `ERR` lines, and the connection stays usable afterwards.
#[test]
fn errors_are_reported_and_survivable() {
    let handle = start(2);
    handle.registry().insert_dataset("ant", anticorrelated(5_000, 3, 66));
    let mut client = Client::connect(handle.addr()).expect("connect");

    let err = client.query(&spec(4).clone_with_dataset("ghost")).unwrap_err();
    assert!(err.contains("ghost"), "{err}");

    let err = client.exchange("FROBNICATE all the=things").unwrap_err();
    assert!(err.contains("unknown verb"), "{err}");

    let err = client.exchange("QUERY dataset=ant k=nope").unwrap_err();
    assert!(err.contains("k="), "{err}");

    let err = client.load("nope", "/definitely/not/a/file.csv").unwrap_err();
    assert!(err.contains("cannot read"), "{err}");

    // Bad preferences for the dimensionality.
    let mut bad_prefs = spec(4);
    bad_prefs.prefs = Some("min,up,min".into());
    assert!(client.query(&bad_prefs).is_err());

    // A signature size whose t × m matrix could not fit in a frame is an
    // ERR, not an allocation that aborts the whole server.
    let hostile = "QUERY dataset=ant k=3 t=1099511627776";
    assert!(client.exchange(hostile).unwrap_err().contains("frame limit"));
    let mut batch = BatchSpec::new("ant", vec![(3, Method::MinHash)]);
    batch.t = 1 << 40;
    assert!(client.batch(&batch).unwrap_err().contains("frame limit"));

    // The connection is still good, and the server still accepts new ones.
    let payload = client.query(&spec(4)).expect("query after errors");
    assert_eq!(selected_of(&payload).len(), 4);
    let mut fresh = Client::connect(handle.addr()).expect("connect after errors");
    assert_eq!(selected_of(&fresh.query(&spec(4)).unwrap()).len(), 4);
    let stats = client.stats().expect("stats");
    assert!(json_u64(&stats, "errors").unwrap() >= 5, "{stats}");

    client.shutdown().expect("shutdown");
    handle.join().expect("clean server exit");
}

/// The wire `LOAD` path: a CSV on disk, loaded over the protocol, must
/// answer exactly like a direct run over the same file.
#[test]
fn wire_load_matches_direct_run_on_the_same_file() {
    let dir = std::env::temp_dir();
    let csv = dir.join(format!("skydiver-serve-{}.csv", std::process::id()));
    io::write_csv(&anticorrelated(6_000, 3, 77), &csv).expect("write csv");
    let ds = io::read_csv(&csv).expect("read csv back");
    let direct = SkyDiver::new(5)
        .signature_size(T)
        .hash_seed(SEED)
        .run(&ds, &Preference::all_min(3))
        .expect("direct run");
    let expected: Vec<u64> = direct.selected.iter().map(|&i| i as u64).collect();

    let handle = start(2);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let summary = client.load("ant", csv.to_str().unwrap()).expect("wire load");
    assert!(summary.contains("points=6000"), "{summary}");
    let payload = client.query(&spec(5)).expect("query");
    assert_eq!(selected_of(&payload), expected);

    client.shutdown().expect("shutdown");
    handle.join().expect("clean server exit");
    std::fs::remove_file(csv).ok();
}

/// The wire `APPEND` path end-to-end: growing a served dataset by one
/// shard must answer bit-identically to a cold run over the grown data,
/// while charging only the incremental dominance-test bill — the old
/// shard's fold is reused, so a skyline-preserving append of `a` rows
/// against an `m`-point skyline costs exactly `a · m` tests instead of
/// `(n + a) · m`. Before the append, the same points split into 1, 2, 4
/// or 8 shards charge the same cold `(n − m) · m` bill and select the
/// same points.
#[test]
fn wire_append_reuses_folds_and_answers_exactly() {
    let n = 8_000usize;
    let a = 400usize;
    let base = anticorrelated(n, 3, 88);

    // The appended block: every base point, shifted up by 0.25 in every
    // coordinate. Under all-min preferences each shifted point is
    // dominated by its original, so the skyline cannot change — the old
    // shard must be reused exact-fit.
    let rows: Vec<Vec<f64>> = (0..a)
        .map(|i| base.point(i).iter().map(|&v| v + 0.25).collect())
        .collect();
    let block = skydiver::Dataset::from_rows(3, &rows);
    let dir = std::env::temp_dir();
    let csv = dir.join(format!("skydiver-append-{}.csv", std::process::id()));
    io::write_csv(&block, &csv).expect("write append block");

    let handle = start(2);
    handle.registry().insert_dataset("ant", base.clone());
    // The same points split into 1, 2, 4 and 8 shards.
    let sweep = [1usize, 2, 4, 8];
    for s in sweep {
        handle.registry().insert_sharded(format!("ant{s}"), ShardedDataset::partition(&base, s));
    }
    let mut client = Client::connect(handle.addr()).expect("connect");

    let cold = client.query(&spec(6)).expect("cold query");
    assert_eq!(selected_of(&cold).len(), 6, "cold query answers");
    let m = json_u64(&cold, "skyline").expect("skyline size");
    let cold_tests = json_u64(&cold, "dominance_tests").expect("dominance_tests");
    // The index-free scan skips the skyline rows themselves, so a cold
    // run costs exactly (n − m)·m dominance tests.
    assert_eq!(cold_tests, (n as u64 - m) * m, "cold run scans every non-skyline row: {cold}");

    // Sharding does not change that bill, nor the answer: each shard
    // scans only its own non-skyline rows.
    for s in sweep {
        let payload = client
            .query(&spec(6).clone_with_dataset(&format!("ant{s}")))
            .expect("sharded cold query");
        assert_eq!(
            json_u64(&payload, "dominance_tests"),
            Some(cold_tests),
            "{s} shards changed the dominance-test count: {payload}"
        );
        assert_eq!(selected_of(&payload), selected_of(&cold), "{s} shards changed the answer");
    }

    let summary = client.append("ant", csv.to_str().unwrap()).expect("wire append");
    assert!(summary.contains("shards=2"), "{summary}");
    assert!(summary.contains("appended=400"), "{summary}");
    assert!(summary.contains("points=8400"), "{summary}");

    // Warm query after the append: same skyline, identical selection,
    // and a dominance-test bill of exactly a·m — the n·m bulk of the old
    // shard is merged from its cached fold.
    let warm = client.query(&spec(6)).expect("warm query");
    assert_eq!(json_u64(&warm, "skyline"), Some(m), "append was dominated: {warm}");
    let warm_selected = selected_of(&warm);
    let warm_tests = json_u64(&warm, "dominance_tests").expect("dominance_tests");
    assert_eq!(
        warm_tests,
        a as u64 * m,
        "warm append path must charge a·m, not (n+a)·m: {warm}"
    );

    // Reference: the grown dataset served cold under another name pays
    // the full (n+a−m)·m bill and must select the very same points the
    // incremental path did.
    let mut grown = base.clone();
    for i in 0..block.len() {
        grown.push(block.point(i));
    }
    handle.registry().insert_dataset("grown", grown);
    let payload = client
        .query(&spec(6).clone_with_dataset("grown"))
        .expect("grown cold query");
    assert_eq!(
        selected_of(&payload),
        warm_selected,
        "incremental fold diverged from the cold recompute"
    );
    let grown_tests = json_u64(&payload, "dominance_tests").expect("dominance_tests");
    assert!(
        warm_tests * 4 < grown_tests,
        "append must be far cheaper than recompute: {warm_tests} vs {grown_tests}"
    );

    let stats = client.stats().expect("stats");
    assert_eq!(json_u64(&stats, "appends"), Some(1), "{stats}");
    assert!(json_u64(&stats, "shards_reused").unwrap() >= 1, "{stats}");
    assert!(
        stats.contains("\"ant\":2") && stats.contains("\"grown\":1"),
        "STATS must report per-dataset shard counts: {stats}"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("clean server exit");
    std::fs::remove_file(csv).ok();
}

/// Re-`LOAD`ing a name replaces the dataset and drops every cached
/// artefact for it: the next query answers from the new data, never from
/// a stale fingerprint.
#[test]
fn wire_load_replaces_the_dataset_and_its_cache() {
    let dir = std::env::temp_dir();
    let csv = dir.join(format!("skydiver-reload-{}.csv", std::process::id()));
    let replacement = anticorrelated(5_000, 3, 202);
    io::write_csv(&replacement, &csv).expect("write replacement");
    let expected: Vec<u64> = SkyDiver::new(4)
        .signature_size(T)
        .hash_seed(SEED)
        .run(&replacement, &Preference::all_min(3))
        .expect("direct run")
        .selected
        .iter()
        .map(|&i| i as u64)
        .collect();

    let handle = start(2);
    handle.registry().insert_dataset("ant", anticorrelated(5_000, 3, 101));
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Warm the cache on the original data.
    let payload = client.query(&spec(4)).expect("first query");
    let original_selected = selected_of(&payload);
    let payload = client.query(&spec(4)).expect("warmed query");
    assert_eq!(json_bool(&payload, "cached"), Some(true), "{payload}");

    // Replace under the same name; the warm cache must not leak through.
    let summary = client.load("ant", csv.to_str().unwrap()).expect("reload");
    assert!(summary.contains("points=5000"), "{summary}");
    let payload = client.query(&spec(4)).expect("post-reload query");
    assert_eq!(
        json_bool(&payload, "cached"),
        Some(false),
        "a stale fingerprint survived the reload: {payload}"
    );
    assert_eq!(selected_of(&payload), expected, "answer must come from the new data");
    assert_ne!(
        selected_of(&payload),
        original_selected,
        "distinct seeds should disagree (sanity check on the fixture)"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("clean server exit");
    std::fs::remove_file(csv).ok();
}

/// Helper: `QuerySpec` with a different dataset name.
trait CloneWith {
    fn clone_with_dataset(&self, name: &str) -> QuerySpec;
}

impl CloneWith for QuerySpec {
    fn clone_with_dataset(&self, name: &str) -> QuerySpec {
        let mut s = self.clone();
        s.dataset = name.into();
        s
    }
}

/// A reply minus its timing fields: `*_ms` values vary run to run,
/// every other byte must be identical across transports and batching.
fn det_fields(reply: &str) -> String {
    reply
        .split(',')
        .filter(|part| !part.contains("_ms\":"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Splits a `BATCH` payload's `results` array into its per-item JSON
/// objects (flat objects — no nested braces).
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

/// Satellite: a slow-loris client dribbling bytes without ever
/// completing a request is shed by the read deadline — without pinning
/// the single event-loop thread (well-behaved clients are served the
/// whole time) and with the shed visible in `conns_shed`.
#[test]
fn slow_loris_dribbler_is_shed_without_stalling_the_loop() {
    use std::io::{Read, Write};

    let handle = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        read_timeout_ms: 400,
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn()
    .expect("spawn");
    handle.registry().insert_dataset("ant", anticorrelated(3_000, 3, 99));
    let addr = handle.addr();

    // The dribbler: a byte of a never-finished request line at a time.
    let mut loris = std::net::TcpStream::connect(addr).expect("loris connect");
    loris
        .set_read_timeout(Some(std::time::Duration::from_millis(100)))
        .expect("loris read timeout");

    let mut served = 0usize;
    let mut shed = false;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        // Well-behaved traffic must flow while the dribbler drips.
        let mut client = Client::connect(addr).expect("connect");
        let payload = client.query(&spec(3)).expect("query while loris drips");
        assert_eq!(selected_of(&payload).len(), 3);
        served += 1;

        if loris.write_all(b"Q").is_err() {
            shed = true;
        } else {
            let mut buf = [0u8; 16];
            match loris.read(&mut buf) {
                Ok(0) => shed = true, // orderly close from the sweep
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => shed = true, // reset also counts as shed
            }
        }
        if shed {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(shed, "dribbler was never shed by the read deadline");
    assert!(served >= 1, "the loop served others while the loris dripped");

    let mut client = Client::connect(addr).expect("connect after shed");
    let stats = client.stats().expect("stats");
    assert!(json_u64(&stats, "conns_shed").unwrap() >= 1, "{stats}");
    client.shutdown().expect("shutdown");
    handle.join().expect("clean server exit");
}

/// Tentpole: N pipelined queries — written back-to-back, flushed once —
/// come back in order, each identical (timing fields aside) to a
/// sequential replay of the same lines, including a budget-starved cold
/// query tripping mid-pipeline without derailing the replies behind it.
#[test]
fn pipelined_replies_arrive_in_order_and_match_sequential() {
    let handle = start(2);
    handle.registry().insert_dataset("ant", anticorrelated(9_000, 3, 21));
    handle.registry().insert_dataset("cold", anticorrelated(9_000, 3, 22));
    let addr = handle.addr();

    // Warm "ant" so the pipelined run and its sequential replay see the
    // same cache state; "cold" stays cold and is starved mid-pipeline (a
    // degraded resolve is never cached, so both runs trip identically).
    let mut warmup = Client::connect(addr).expect("connect warmup");
    warmup.query(&spec(5)).expect("warm ant");

    let mut lines: Vec<String> = Vec::new();
    let mut expect_k: Vec<Option<usize>> = Vec::new();
    for k in 2..=9 {
        if k == 5 {
            let mut starved = spec(6).clone_with_dataset("cold");
            starved.max_dominance_tests = Some(0);
            lines.push(starved.to_line());
            expect_k.push(None);
        }
        lines.push(spec(k).to_line());
        expect_k.push(Some(k));
    }

    let mut piped_client = Client::connect(addr).expect("connect piped");
    let piped = piped_client.pipeline(&lines).expect("pipeline");
    assert_eq!(piped.len(), lines.len());

    // In order: reply i answers query i — visible in the k progression.
    for (i, reply) in piped.iter().enumerate() {
        match expect_k[i] {
            Some(k) => assert_eq!(
                selected_of(reply).len(),
                k,
                "reply {i} out of order: {reply}"
            ),
            None => assert_eq!(
                json_bool(reply, "degraded"),
                Some(true),
                "the starved query must trip mid-pipeline: {reply}"
            ),
        }
    }

    // Bit-identical to a sequential replay of the very same lines.
    let mut seq_client = Client::connect(addr).expect("connect sequential");
    for (i, line) in lines.iter().enumerate() {
        let seq = seq_client.request(line).expect("sequential request");
        assert_eq!(
            det_fields(&piped[i]),
            det_fields(&seq),
            "reply {i} diverged between pipelined and sequential"
        );
    }

    // The wire-observed pipeline depth made it into the histogram.
    let stats = seq_client.stats().expect("stats");
    assert!(json_u64(&stats, "pipeline_count").unwrap() >= 1, "{stats}");

    seq_client.shutdown().expect("shutdown");
    handle.join().expect("clean server exit");
}

/// Tentpole: the `SKYWIRE01` binary framing carries exactly the text
/// protocol's bytes — QUERY replies and pipelined bursts answer
/// field-for-field identically across the two transports, and the
/// negotiation is counted.
#[test]
fn binary_framing_answers_bit_identically_to_text() {
    let handle = start(2);
    handle.registry().insert_dataset("ant", anticorrelated(9_000, 3, 31));
    let addr = handle.addr();

    let mut text = Client::connect(addr).expect("text connect");
    text.query(&spec(5)).expect("text cold"); // populate the cache
    let warm_text = text.query(&spec(5)).expect("text warm");

    let mut bin = Client::connect(addr).expect("binary connect");
    assert!(!bin.is_framed());
    bin.hello().expect("hello");
    assert!(bin.is_framed());
    let warm_bin = bin.query(&spec(5)).expect("binary warm");
    assert_eq!(
        det_fields(&warm_text),
        det_fields(&warm_bin),
        "binary reply diverged from text"
    );

    // Pipelined bursts match across transports too.
    let lines: Vec<String> = (2..=6).map(|k| spec(k).to_line()).collect();
    let text_burst = text.pipeline(&lines).expect("text pipeline");
    let bin_burst = bin.pipeline(&lines).expect("binary pipeline");
    for (i, (t, b)) in text_burst.iter().zip(&bin_burst).enumerate() {
        assert_eq!(
            det_fields(t),
            det_fields(b),
            "pipelined reply {i} diverged between transports"
        );
    }

    let stats = text.stats().expect("stats");
    assert!(json_u64(&stats, "hellos").unwrap() >= 1, "{stats}");
    assert!(json_u64(&stats, "bytes_in").unwrap() > 0, "{stats}");
    assert!(json_u64(&stats, "bytes_out").unwrap() > 0, "{stats}");

    text.shutdown().expect("shutdown");
    handle.join().expect("clean server exit");
}

/// Tentpole: one `BATCH` answers exactly like the equivalent `QUERY`
/// sequence — item 0 pays the one fingerprint resolution, the rest ride
/// the shared fingerprint — compared cold-for-cold on two servers over
/// the same dataset.
#[test]
fn batch_matches_the_equivalent_query_sequence() {
    let items = vec![
        (3, Method::MinHash),
        (7, Method::MinHash),
        (
            5,
            Method::Lsh {
                xi: 0.2,
                buckets: 16,
            },
        ),
    ];
    let mut batch = BatchSpec::new("ant", items);
    batch.t = T;
    batch.seed = SEED;

    // Server A runs the batch against a cold cache.
    let ha = start(2);
    ha.registry().insert_dataset("ant", anticorrelated(9_000, 3, 41));
    let mut ca = Client::connect(ha.addr()).expect("connect A");
    let payload = ca.batch(&batch).expect("batch");
    assert_eq!(json_u64(&payload, "batch"), Some(3), "{payload}");
    let results = split_results(&payload);
    assert_eq!(results.len(), 3);

    let stats = ca.stats().expect("stats A");
    assert_eq!(json_u64(&stats, "batches"), Some(1), "{stats}");
    assert_eq!(json_u64(&stats, "batch_items"), Some(3), "{stats}");
    assert_eq!(
        json_u64(&stats, "cache_misses"),
        Some(1),
        "one resolve for the whole batch: {stats}"
    );

    // Server B replays the equivalent QUERYs sequentially, also cold.
    let hb = start(2);
    hb.registry().insert_dataset("ant", anticorrelated(9_000, 3, 41));
    let mut cb = Client::connect(hb.addr()).expect("connect B");
    for (i, q) in batch.queries().iter().enumerate() {
        let seq = cb.query(q).expect("equivalent query");
        assert_eq!(
            det_fields(&results[i]),
            det_fields(&seq),
            "batch item {i} diverged from its equivalent QUERY"
        );
    }

    // BATCH methods are mh|lsh only: greedy has no shared fingerprint.
    let err = ca
        .exchange(&format!("BATCH dataset=ant specs=3:greedy t={T} seed={SEED}"))
        .unwrap_err();
    assert!(err.contains("mh|lsh"), "{err}");

    ca.shutdown().expect("shutdown A");
    ha.join().expect("clean exit A");
    cb.shutdown().expect("shutdown B");
    hb.join().expect("clean exit B");
}

/// Tentpole: budget-free repeats of an identical query are served from
/// the per-dataset selection memo — no selection re-runs — and the
/// reply stays bit-identical (timing fields aside) to the first warm
/// recompute. Budgeted queries bypass the memo and still agree.
#[test]
fn selection_memo_repeats_bit_identically_without_recomputing() {
    let handle = start(2);
    handle
        .registry()
        .insert_dataset("ant", anticorrelated(9_000, 3, 41));
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Cold: computes and populates both memos. Warm: the first reply
    // rendered from the selection memo.
    let cold = client.query(&spec(6)).expect("cold query");
    let warm = client.query(&spec(6)).expect("warm query");
    assert_eq!(
        selected_of(&cold),
        selected_of(&warm),
        "memoised selection changed the answer"
    );
    for _ in 0..3 {
        let again = client.query(&spec(6)).expect("repeat query");
        assert_eq!(det_fields(&warm), det_fields(&again), "repeat diverged");
    }

    // A budgeted variant of the same query must bypass the memo (its
    // budget could trip mid-selection) yet agree on every
    // deterministic field — the budget is generous, so it never trips.
    let mut budgeted = spec(6);
    budgeted.max_dominance_tests = Some(u64::MAX / 2);
    let careful = client.query(&budgeted).expect("budgeted query");
    assert_eq!(det_fields(&warm), det_fields(&careful), "budget changed the answer");

    let stats = client.stats().expect("stats");
    let selection_hits = json_u64(&stats, "selection_hits").expect("selection_hits");
    assert_eq!(
        selection_hits, 4,
        "exactly the four budget-free repeats hit the memo: {stats}"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
}

/// QUERY's signature path is a one-item BATCH. Seventeen distinct
/// seeds push the first key out of the 16-entry fingerprint memo while
/// the 256-entry selection memo still holds its selection; repeating
/// that QUERY must recompute the fingerprint and say so
/// (`"cached":false`), exactly as the equivalent BATCH item does, and
/// `cache_hits` must count only real fingerprint-memo hits.
#[test]
fn query_after_the_fingerprint_memo_clears_matches_the_one_item_batch() {
    let seeds = 17u64;
    let cycle = |client: &mut Client| {
        for seed in SEED..SEED + seeds {
            let mut q = spec(6);
            q.seed = seed;
            client.query(&q).expect("seed query");
        }
    };

    let ha = start(2);
    ha.registry()
        .insert_dataset("ant", anticorrelated(9_000, 3, 41));
    let mut ca = Client::connect(ha.addr()).expect("connect A");
    cycle(&mut ca);
    let before = ca.stats().expect("stats before");
    let repeat = ca.query(&spec(6)).expect("repeat query");
    let after = ca.stats().expect("stats after");
    assert_eq!(json_bool(&repeat, "cached"), Some(false), "{repeat}");
    let delta = |key: &str| {
        json_u64(&after, key).expect("after") - json_u64(&before, key).expect("before")
    };
    assert_eq!(delta("cache_hits"), 0, "no fingerprint-memo hit: {after}");
    assert_eq!(delta("cache_misses"), 1, "{after}");
    // The recompute memoised the fingerprint again: now it is a hit.
    let warm = ca.query(&spec(6)).expect("warm query");
    assert_eq!(json_bool(&warm, "cached"), Some(true), "{warm}");
    let hits = json_u64(&ca.stats().expect("stats"), "cache_hits").expect("cache_hits");
    assert_eq!(hits, json_u64(&after, "cache_hits").expect("hits") + 1);

    // The same history ending in the equivalent one-item BATCH.
    let hb = start(2);
    hb.registry()
        .insert_dataset("ant", anticorrelated(9_000, 3, 41));
    let mut cb = Client::connect(hb.addr()).expect("connect B");
    cycle(&mut cb);
    let mut batch = BatchSpec::new("ant", vec![(6, Method::MinHash)]);
    batch.t = T;
    batch.seed = SEED;
    let results = split_results(&cb.batch(&batch).expect("batch"));
    assert_eq!(results.len(), 1);
    assert_eq!(det_fields(&repeat), det_fields(&results[0]));

    ca.shutdown().expect("shutdown A");
    ha.join().expect("clean exit A");
    cb.shutdown().expect("shutdown B");
    hb.join().expect("clean exit B");
}
