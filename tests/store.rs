//! Durability property suite for the on-disk signature store, plus the
//! wire-level `SNAPSHOT`/`RESTORE` verbs and connection hardening.
//!
//! The core property: under every injected disk fault — torn write,
//! short read, bit flip, ENOSPC, rename failure — a restart serves
//! either a **bit-identical** fingerprint from the store or a **clean
//! cold recompute** of the same answer. Never a wrong answer, never a
//! crash, never a refusal to serve.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use skydiver::core::RunBudget;
use skydiver::data::generators::anticorrelated;
use skydiver::data::{Dataset, ShardedDataset};
use skydiver::serve::protocol::{json_u64, json_u64_array, QuerySpec};
use skydiver::serve::{
    parse_prefs, Client, DiskFault, FaultPlan, Metrics, Registry, Server, ServerConfig,
    ServerHandle, SignatureStore,
};

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("skydiver-store-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// A budget that never trips but keeps the dominance-test counter on.
fn counted() -> RunBudget {
    RunBudget::none().with_max_dominance_tests(u64::MAX)
}

fn store_registry(dir: &Path, faults: &[FaultPlan]) -> (Registry, Arc<Metrics>, usize) {
    let metrics = Arc::new(Metrics::new());
    let (store, report) =
        SignatureStore::open(dir, Arc::clone(&metrics), faults).expect("open store");
    let valid = report.valid;
    let reg = Registry::with_store(1 << 24, Arc::clone(&metrics), Some(Arc::new(store)), 64 << 20);
    (reg, metrics, valid)
}

/// The tentpole property: arm each fault at the first artefact write of
/// a two-shard dataset, restart, and assert the served fingerprint is
/// bit-identical to the pre-fault cold run — from the store where the
/// artefact survived, from a recompute where it did not. A second
/// restart then proves the store self-healed.
#[test]
fn every_disk_fault_degrades_cleanly_and_self_heals() {
    use std::sync::atomic::Ordering::Relaxed;
    // (fault, artefacts expected valid at restart, quarantined at restart)
    let matrix: &[(DiskFault, usize, usize)] = &[
        // Rename landed on a truncated payload: the sweep quarantines it.
        (DiskFault::TornWrite { keep: 100 }, 1, 1),
        // Truncated below the 64-byte header, too.
        (DiskFault::TornWrite { keep: 17 }, 1, 1),
        // Written in full, truncated at rest.
        (DiskFault::ShortRead { keep: 50 }, 1, 1),
        // Silent media corruption: the checksum footer catches it.
        (DiskFault::BitFlip { byte: 90 }, 1, 1),
        // The write itself failed: nothing durable, nothing to sweep.
        (DiskFault::Enospc, 1, 0),
        (DiskFault::RenameFail, 1, 0),
    ];
    let (prefs, key) = parse_prefs(None, 3).unwrap();
    let base = anticorrelated(3_000, 3, 41);

    for (i, &(fault, want_valid, want_quarantined)) in matrix.iter().enumerate() {
        let dir = tmp_dir(&format!("fault{i}"));

        // Epoch 1: cold compute under the armed fault (both shard folds
        // are enqueued; the fault strikes the first write).
        let (reg, m1, _) = store_registry(&dir, &[FaultPlan { at_write: 1, fault }]);
        reg.insert_sharded("d", ShardedDataset::partition(&base, 2));
        let (cold, _, cold_tests) =
            reg.fingerprint("d", &prefs, &key, 32, 7, counted()).unwrap();
        assert!(cold_tests > 0, "{fault:?}: cold run charges tests");
        reg.store_snapshot().unwrap();
        let failed_writes = m1.store_write_failures.load(Relaxed);
        match fault {
            DiskFault::Enospc | DiskFault::RenameFail => {
                assert_eq!(failed_writes, 1, "{fault:?}: the failed write is counted")
            }
            _ => assert_eq!(failed_writes, 0, "{fault:?}: the protocol believed it succeeded"),
        }
        drop(reg);

        // Epoch 2 ("restart"): the recovery sweep classifies the damage,
        // then the first query must answer bit-identically — warm where
        // the artefact survived, recomputed where it did not.
        let (reg2, m2, valid) = store_registry(&dir, &[]);
        assert_eq!(valid, want_valid, "{fault:?}: sweep valid count");
        assert_eq!(
            m2.store_quarantined.load(Relaxed) as usize,
            want_quarantined,
            "{fault:?}: sweep quarantine count"
        );
        reg2.insert_sharded("d", ShardedDataset::partition(&base, 2));
        let (warm, hit, warm_tests) =
            reg2.fingerprint("d", &prefs, &key, 32, 7, counted()).unwrap();
        assert!(!hit, "{fault:?}: a fresh process has no memo");
        assert!(warm.is_complete());
        assert_eq!(warm.output.matrix, cold.output.matrix, "{fault:?}: wrong answer");
        assert_eq!(warm.output.scores, cold.output.scores, "{fault:?}: wrong answer");
        assert_eq!(warm.skyline, cold.skyline, "{fault:?}: wrong answer");
        assert_eq!(m2.store_hits.load(Relaxed) as usize, want_valid, "{fault:?}");
        assert!(
            warm_tests < cold_tests,
            "{fault:?}: the surviving shard must be served from disk \
             ({warm_tests} vs {cold_tests})"
        );
        // No artefact quarantined *during* the query: everything bad was
        // already caught by the startup sweep.
        assert_eq!(m2.store_quarantined.load(Relaxed) as usize, want_quarantined);
        // The recompute re-enqueued the lost fold; flushing heals the store.
        reg2.store_snapshot().unwrap();
        drop(reg2);

        // Epoch 3: fully warm — the fault left no permanent damage.
        let (reg3, m3, valid) = store_registry(&dir, &[]);
        assert_eq!(valid, 2, "{fault:?}: store did not self-heal");
        reg3.insert_sharded("d", ShardedDataset::partition(&base, 2));
        let (healed, _, healed_tests) =
            reg3.fingerprint("d", &prefs, &key, 32, 7, counted()).unwrap();
        assert_eq!(healed_tests, 0, "{fault:?}: third epoch must be fully warm");
        assert_eq!(m3.store_hits.load(Relaxed), 2);
        assert_eq!(healed.output.matrix, cold.output.matrix);
        drop(reg3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A fault at *every* write leaves the store empty — and the service
/// still answers correctly from recompute alone, forever.
#[test]
fn a_store_that_never_persists_is_only_a_slow_store() {
    use std::sync::atomic::Ordering::Relaxed;
    let dir = tmp_dir("always-fails");
    let plans: Vec<FaultPlan> =
        (1..=16).map(|w| FaultPlan { at_write: w, fault: DiskFault::Enospc }).collect();
    let (reg, metrics, _) = store_registry(&dir, &plans);
    reg.insert_dataset("d", anticorrelated(1_500, 3, 43));
    let (prefs, key) = parse_prefs(None, 3).unwrap();
    let (a, _, t1) = reg.fingerprint("d", &prefs, &key, 32, 7, counted()).unwrap();
    reg.store_snapshot().unwrap();
    assert!(metrics.store_write_failures.load(Relaxed) >= 1);
    // The memo still serves warm in-process; only durability is lost.
    let (b, hit, _) = reg.fingerprint("d", &prefs, &key, 32, 7, counted()).unwrap();
    assert!(hit);
    assert!(Arc::ptr_eq(&a, &b));
    drop(reg);
    let (reg2, _, valid) = store_registry(&dir, &[]);
    assert_eq!(valid, 0, "nothing ever became durable");
    reg2.insert_dataset("d", anticorrelated(1_500, 3, 43));
    let (c, _, t2) = reg2.fingerprint("d", &prefs, &key, 32, 7, counted()).unwrap();
    assert_eq!(t2, t1, "cold fallback repeats the full computation");
    assert_eq!(c.output.matrix, a.output.matrix);
    drop(reg2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every `*.sig2` artefact directly under `dir`, sorted.
fn artefacts(dir: &Path) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "sig2"))
        .collect();
    found.sort();
    found
}

/// A store written before `SKYSIG03`: each artefact rewritten in the
/// older `SKYSIG02` format — the same layout under the old magic, its
/// footer an FNV-1a 64 checksum. The restart's sweep quarantines every
/// one of them, naming the older format, so none is served: the first
/// query refolds both shards bit-identically at the full cold bill, and
/// the refolded artefacts make the next restart warm.
#[test]
fn an_older_skysig02_store_is_quarantined_and_refolded() {
    use skydiver::data::digest::fnv1a64;
    use std::sync::atomic::Ordering::Relaxed;
    let dir = tmp_dir("skysig02");
    let base = anticorrelated(3_000, 3, 47);
    let (prefs, key) = parse_prefs(None, 3).unwrap();

    let (reg, _, _) = store_registry(&dir, &[]);
    reg.insert_sharded("d", ShardedDataset::partition(&base, 2));
    let (cold, _, cold_tests) = reg.fingerprint("d", &prefs, &key, 32, 9, counted()).unwrap();
    reg.store_snapshot().unwrap();
    drop(reg);
    let old_files = artefacts(&dir);
    assert_eq!(old_files.len(), 2);
    for path in &old_files {
        let mut bytes = std::fs::read(path).unwrap();
        let payload_len = bytes.len() - 16;
        bytes[..8].copy_from_slice(b"SKYSIG02");
        let sum = fnv1a64(&bytes[..payload_len]);
        bytes[payload_len + 8..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(path, &bytes).unwrap();
    }

    let (reg2, m2, valid) = store_registry(&dir, &[]);
    assert_eq!(valid, 0, "no older artefact is valid");
    assert_eq!(m2.store_quarantined.load(Relaxed), 2);
    assert!(artefacts(&dir).is_empty(), "older artefacts left the store");
    for path in &old_files {
        let moved = dir.join("quarantine").join(path.file_name().unwrap());
        let err = skydiver::core::minhash::persist::read_shard_signatures(&moved).unwrap_err();
        assert!(err.to_string().contains("older SKYSIG02 format"), "{err}");
    }
    reg2.insert_sharded("d", ShardedDataset::partition(&base, 2));
    let (refolded, hit, tests) = reg2.fingerprint("d", &prefs, &key, 32, 9, counted()).unwrap();
    assert!(!hit && refolded.is_complete());
    assert_eq!(tests, cold_tests, "both shards refold at the full cold bill");
    assert_eq!(m2.store_hits.load(Relaxed), 0);
    assert_eq!(refolded.output.matrix, cold.output.matrix);
    assert_eq!(refolded.output.scores, cold.output.scores);
    assert_eq!(refolded.skyline, cold.skyline);
    reg2.store_snapshot().unwrap();
    drop(reg2);

    let (reg3, m3, valid) = store_registry(&dir, &[]);
    assert_eq!(valid, 2, "the refolded artefacts are SKYSIG03");
    reg3.insert_sharded("d", ShardedDataset::partition(&base, 2));
    let (warm, _, warm_tests) = reg3.fingerprint("d", &prefs, &key, 32, 9, counted()).unwrap();
    assert_eq!(warm_tests, 0);
    assert_eq!(m3.store_hits.load(Relaxed), 2);
    assert_eq!(warm.output.matrix, cold.output.matrix);
    drop(reg3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `rows` points at `v` in every dimension: dominated by the
/// generator's data, whose coordinates lie well below 10.
fn sunk(rows: usize, v: f64) -> Dataset {
    Dataset::from_rows(3, &vec![[v, v, v]; rows])
}

/// One row just below skyline member `id` of `data`: it replaces the
/// member, so the skyline changes.
fn below(data: &Dataset, id: usize) -> Dataset {
    let p = data.point(id);
    Dataset::from_rows(3, &[[p[0] - 1e-6, p[1] - 1e-6, p[2] - 1e-6]])
}

/// The store persists the shard folds the fold LRU keeps out — the ones
/// an extension or a column delta merges into its inherited
/// fingerprint. A chain of extend and delta appends, each followed by a
/// query, is replayed on a restarted registry: its first query charges
/// 0 dominance tests, every extension after it is free too, and a delta
/// charges only its entering columns over the old rows — each appended
/// shard's full fold comes from the store. Every answer is the one
/// served before the restart.
#[test]
fn a_restart_replays_extensions_and_deltas_from_the_store() {
    use std::sync::atomic::Ordering::Relaxed;
    let dir = tmp_dir("chain");
    let base = ShardedDataset::partition(&anticorrelated(3_000, 3, 71), 2);
    let (prefs, key) = parse_prefs(None, 3).unwrap();
    let query = |reg: &Registry| {
        let (fp, hit, tests) = reg
            .fingerprint("d", &prefs, &key, 32, 5, counted())
            .unwrap();
        assert!(!hit && fp.is_complete());
        (fp, tests)
    };

    let (reg, _, _) = store_registry(&dir, &[]);
    reg.insert_sharded("d", base.clone());
    let (mut fp, _) = query(&reg);
    let mut blocks = Vec::new();
    let mut before = vec![fp.clone()];
    for step in 0..4 {
        let block = match step % 2 {
            0 => sunk(20 + step, 10.0),
            _ => below(&reg.dataset("d").unwrap().whole(), fp.skyline[step]),
        };
        reg.append_dataset("d", block.clone()).unwrap();
        blocks.push(block);
        fp = query(&reg).0;
        before.push(fp.clone());
    }
    let metrics = reg.metrics();
    assert_eq!(metrics.fingerprint_extends.load(Relaxed), 2);
    assert_eq!(metrics.fingerprint_deltas.load(Relaxed), 2);
    assert_eq!(
        reg.host().cache_usage().0,
        2,
        "only the compute's folds are cached"
    );
    assert_eq!(
        reg.store_snapshot().unwrap(),
        6,
        "every full shard fold is persisted"
    );
    drop(reg);

    let (reg, metrics, valid) = store_registry(&dir, &[]);
    assert_eq!(valid, 6);
    reg.insert_sharded("d", base);
    let (fp, tests) = query(&reg);
    assert_eq!(tests, 0, "the restart's first query folds nothing");
    assert_eq!(metrics.store_hits.load(Relaxed), 2);
    assert_eq!(fp.output.matrix, before[0].output.matrix);
    for (step, block) in blocks.into_iter().enumerate() {
        reg.append_dataset("d", block).unwrap();
        let from = reg.dataset("d").unwrap().data.base(step + 2);
        let (fp, tests) = query(&reg);
        let want = &before[step + 1];
        assert_eq!(fp.skyline, want.skyline, "step {step}");
        assert_eq!(fp.output.matrix, want.output.matrix, "step {step}");
        assert_eq!(fp.output.scores, want.output.scores, "step {step}");
        let survivors = fp.skyline.partition_point(|&id| id < from);
        let entering = (fp.skyline.len() - survivors) as u64;
        let charge = match step % 2 {
            0 => 0,
            _ => entering * (from - survivors) as u64,
        };
        assert!(
            step % 2 == 0 || charge > 0,
            "step {step} changes the skyline"
        );
        assert_eq!(
            tests, charge,
            "step {step}: the appended shard comes from the store"
        );
        assert_eq!(metrics.store_hits.load(Relaxed), 3 + step as u64);
    }
    drop(reg);
    let _ = std::fs::remove_dir_all(&dir);
}

fn start_with(cfg: ServerConfig) -> ServerHandle {
    Server::bind(&cfg).expect("bind").spawn().expect("spawn")
}

fn store_cfg(dir: &Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        store_dir: Some(dir.to_str().unwrap().to_string()),
        ..ServerConfig::default()
    }
}

fn counted_spec(k: usize) -> QuerySpec {
    let mut s = QuerySpec::new("ant", k);
    s.t = 48;
    s.seed = 11;
    s.max_dominance_tests = Some(u64::MAX / 2);
    s
}

/// `SNAPSHOT` flushes, a corrupted artefact is caught by `RESTORE`, and
/// the `STATS` payload carries the three store counters — all over the
/// wire.
#[test]
fn snapshot_and_restore_verbs_work_over_the_wire() {
    let dir = tmp_dir("wire");
    let handle = start_with(store_cfg(&dir));
    handle.registry().insert_dataset("ant", anticorrelated(4_000, 3, 51));
    let mut client = Client::connect(handle.addr()).expect("connect");

    let cold = client.query(&counted_spec(5)).expect("cold query");
    let selected = json_u64_array(&cold, "selected").unwrap();
    let reply = client.snapshot().expect("snapshot");
    assert_eq!(reply, "persisted=1", "one shard fold became durable");

    // Corrupt the artefact at rest; RESTORE must quarantine it.
    let artefact = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "sig2"))
        .expect("one persisted artefact");
    let mut bytes = std::fs::read(&artefact).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&artefact, &bytes).unwrap();
    let reply = client.restore().expect("restore");
    assert_eq!(reply, "artifacts=0 quarantined=1 removed_temps=0");

    // The quarantined artefact is never served: the next cold-cache
    // process would recompute. In *this* process the memo still holds
    // the answer, which must be unchanged.
    let warm = client.query(&counted_spec(5)).expect("query after quarantine");
    assert_eq!(json_u64_array(&warm, "selected").unwrap(), selected);

    let stats = client.stats().expect("stats");
    assert_eq!(json_u64(&stats, "store_quarantined"), Some(1), "{stats}");
    assert_eq!(json_u64(&stats, "store_write_failures"), Some(0), "{stats}");
    assert!(json_u64(&stats, "store_hits").is_some(), "{stats}");

    client.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without `--store-dir`, the store verbs are clean `ERR`s and the
/// connection survives them.
#[test]
fn store_verbs_without_a_store_are_polite_errors() {
    let handle = start_with(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.addr()).expect("connect");
    let err = client.snapshot().unwrap_err();
    assert!(err.contains("no store"), "{err}");
    let err = client.restore().unwrap_err();
    assert!(err.contains("no store"), "{err}");
    assert!(client.stats().is_ok(), "connection survives store errors");
    client.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
}

/// The restart contract, end to end over TCP: server A computes and
/// snapshots; server B on the same store directory answers its first
/// query bit-identically *without charging a single dominance test*.
#[test]
fn a_restarted_server_answers_warm_and_identical() {
    let dir = tmp_dir("restart");
    let data = anticorrelated(5_000, 3, 61);

    let a = start_with(store_cfg(&dir));
    a.registry().insert_dataset("ant", data.clone());
    let mut client = Client::connect(a.addr()).expect("connect A");
    let cold = client.query(&counted_spec(6)).expect("cold query");
    let selected = json_u64_array(&cold, "selected").unwrap();
    assert!(json_u64(&cold, "dominance_tests").unwrap() > 0);
    client.snapshot().expect("snapshot");
    client.shutdown().expect("shutdown A");
    a.join().expect("A exits");

    let b = start_with(store_cfg(&dir));
    b.registry().insert_dataset("ant", data);
    let mut client = Client::connect(b.addr()).expect("connect B");
    let warm = client.query(&counted_spec(6)).expect("first post-restart query");
    assert_eq!(
        json_u64_array(&warm, "selected").unwrap(),
        selected,
        "restart changed the answer"
    );
    assert_eq!(
        json_u64(&warm, "dominance_tests"),
        Some(0),
        "the restored fold must make the first query free: {warm}"
    );
    let stats = client.stats().expect("stats");
    assert!(json_u64(&stats, "store_hits").unwrap() >= 1, "{stats}");
    client.shutdown().expect("shutdown B");
    b.join().expect("B exits");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request line past the configured cap gets one `ERR` and a closed
/// connection — a slow-loris client cannot buffer unbounded bytes.
#[test]
fn oversized_request_lines_are_rejected_and_shed() {
    let handle = start_with(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        max_line_bytes: 128,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let long = "QUERY ".to_string() + &"x".repeat(4096) + "\n";
    stream.write_all(long.as_bytes()).expect("send oversized line");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("read error reply");
    assert!(
        line.starts_with("ERR request line exceeds 128 bytes"),
        "unexpected reply: {line:?}"
    );
    line.clear();
    let n = reader.read_line(&mut line).expect("read after shed");
    assert_eq!(n, 0, "the connection must be closed after the oversized line");

    // The server itself is fine.
    let mut client = Client::connect(handle.addr()).expect("connect again");
    assert!(client.stats().is_ok());
    client.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
}

/// A silent connection is shed by the read timeout instead of pinning a
/// worker forever; the server keeps serving others.
#[test]
fn idle_connections_are_shed_by_the_read_timeout() {
    let handle = start_with(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        read_timeout_ms: 250,
        ..ServerConfig::default()
    });
    let idle = TcpStream::connect(handle.addr()).expect("connect idle");
    let t0 = Instant::now();
    let mut reader = BufReader::new(idle.try_clone().unwrap());
    let mut line = String::new();
    // The server never writes; the read returns 0 once it drops us.
    let n = reader.read_line(&mut line).expect("read until shed");
    assert_eq!(n, 0, "server must close the idle connection");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "idle shed took {:?}",
        t0.elapsed()
    );
    drop(idle);

    // With the single worker freed, a real client gets served.
    let mut client = Client::connect_retry(
        handle.addr(),
        20,
        Duration::from_millis(100),
    )
    .expect("connect after shed");
    assert!(client.stats().is_ok());
    client.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
}
