//! The crash-safe on-disk signature store.
//!
//! The registry's in-memory fingerprint cache dies with the process;
//! this module makes the expensive artefacts durable so restarts are
//! warm. One `SKYSIG03` file per shard fold, keyed by `(dataset
//! content hash, shard id, preference hash, t, seed)` — the key *is*
//! the file name and is also written into the bundle header, so a
//! renamed, stale or foreign file can never be served under the wrong
//! coordinates. The `.sig2` extension predates `SKYSIG03` and is kept,
//! so a store written in the older `SKYSIG02` format is found by the
//! sweep like any other: each such file fails to decode as the older
//! format and is quarantined, and its fold is recomputed.
//!
//! **Atomic writes.** Every artefact is written to a `.tmp` sibling,
//! fsynced, renamed over the final name, and the directory fsynced —
//! so a crash leaves either the old state or the new state, plus at
//! worst an orphan temp file. The bundle's length + checksum footer
//! (see [`skydiver_core::minhash::persist`]) catches the remaining
//! torn-write window (rename durable, data pages lost).
//!
//! **Write-behind.** Persistence runs on one dedicated worker thread
//! fed by a channel, never on the query path, and only *complete*
//! fingerprints are enqueued — mirroring the in-memory cache's
//! complete-only rule. The worker owns all store I/O, so no lock is
//! ever held across a disk operation.
//!
//! **Recovery sweep.** [`SignatureStore::open`] (and the `RESTORE`
//! verb) validates every artefact: corrupt, truncated, mis-keyed or
//! bit-rotted files are moved to a `quarantine/` subdirectory with a
//! logged reason and counted in `store_quarantined`; orphan temp files
//! are deleted. The store never refuses to serve — a missing or
//! unreadable artefact is a cache miss that degrades to recompute.
//!
//! **Fault injection.** [`FaultPlan`] arms a deterministic disk fault
//! (torn write, short read, bit flip, ENOSPC, rename failure) at the
//! n-th write; the property suite in `tests/store.rs` drives every
//! fault and asserts the store serves either a bit-identical
//! fingerprint or a clean cold recompute — never a wrong answer.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use skydiver_core::minhash::persist;
use skydiver_core::ShardFingerprint;
use skydiver_data::digest::{fnv1a64, Fnv64};
use skydiver_data::ShardedDataset;

use crate::metrics::Metrics;
use crate::protocol::shard_tag;

const QUARANTINE: &str = "quarantine";

/// The durable coordinates of one shard fold. The dataset is named by
/// its *content hash* (not its registry name), so re-`LOAD`ing
/// different data under the same name — or the same data under a
/// different name — can never alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// [`content_hash`] of the whole sharded dataset (partition
    /// included — a shard fold is only valid for its exact shard map).
    pub dataset_hash: u64,
    /// Shard index within that dataset.
    pub shard: usize,
    /// [`prefs_hash`] of the canonical preference key.
    pub prefs_hash: u64,
    /// Signature size.
    pub t: usize,
    /// Hash-family seed.
    pub seed: u64,
}

impl StoreKey {
    /// The four header tags bound into the `SKYSIG03` bundle (`t` is
    /// carried by the matrix shape itself).
    pub fn tags(&self) -> [u64; 4] {
        [self.dataset_hash, self.shard as u64, self.prefs_hash, self.seed]
    }

    /// The artefact's file name — the key, spelled out.
    pub fn file_name(&self) -> String {
        format!(
            "sig-{:016x}-s{}-p{:016x}-t{}-r{}.sig2",
            self.dataset_hash, self.shard, self.prefs_hash, self.t, self.seed
        )
    }
}

/// FNV-1a 64 content hash of a sharded dataset: dimensionality, shard
/// boundaries and every coordinate bit, the latter through each shard's
/// content tag (the FNV-1a of its `SHARDPUT` points payload).
/// Partition-sensitive by design — a shard fold describes "rows
/// `base..base+len` of *this* layout".
pub fn content_hash(data: &ShardedDataset) -> u64 {
    let tags: Vec<u64> = (0..data.num_shards())
        .map(|i| shard_tag(data.shard(i)))
        .collect();
    content_hash_of_tags(data, &tags)
}

/// [`content_hash`] from the shards' tags, already computed: a fold over
/// the dimensionality and each shard's row count and tag, so a
/// generation grown by `APPEND` hashes in O(shards), not O(rows).
pub(crate) fn content_hash_of_tags(data: &ShardedDataset, tags: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    h.update(&(data.dims() as u64).to_le_bytes());
    h.update(&(data.num_shards() as u64).to_le_bytes());
    for (i, tag) in tags.iter().enumerate() {
        // lint: allow(R2) -- one O(1) step per shard at LOAD/APPEND
        // time, off the query path; no dominance work
        h.update(&(data.shard(i).len() as u64).to_le_bytes());
        h.update(&tag.to_le_bytes());
    }
    h.finish()
}

/// FNV-1a 64 of the canonical preference key (`"min,max,..."`).
pub fn prefs_hash(prefs_key: &str) -> u64 {
    fnv1a64(prefs_key.as_bytes())
}

/// One deterministic disk fault, for the durability property suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// Only the first `keep` bytes of the bundle reach the temp file,
    /// but the rename still lands — models a power cut that made the
    /// rename durable while data pages were still in the page cache.
    TornWrite {
        /// Bytes that survive.
        keep: usize,
    },
    /// The artefact is truncated to `keep` bytes *after* a successful
    /// write — a later load sees a short read.
    ShortRead {
        /// Bytes that survive.
        keep: usize,
    },
    /// One bit of the at-rest artefact flips (index taken modulo the
    /// file length) — silent media corruption.
    BitFlip {
        /// Byte whose lowest bit flips.
        byte: usize,
    },
    /// The write fails half-way with an out-of-space error.
    Enospc,
    /// The temp file is written and fsynced but the rename fails.
    RenameFail,
}

/// Arms `fault` at the `at_write`-th persistence attempt (1-based).
/// The write-behind worker is a single thread draining an ordered
/// queue, so "the n-th write" is deterministic for a fixed request
/// sequence.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// 1-based index of the write the fault strikes.
    pub at_write: u64,
    /// The fault to inject.
    pub fault: DiskFault,
}

/// What a recovery sweep found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Artefacts that decoded and matched their file name.
    pub valid: usize,
    /// Artefacts moved to `quarantine/` (corrupt or mis-keyed).
    pub quarantined: usize,
    /// Orphan `.tmp` files deleted (interrupted writes).
    pub removed_temps: usize,
}

enum Job {
    Persist { key: StoreKey, fp: Arc<ShardFingerprint> },
    Flush(mpsc::Sender<u64>),
}

/// The durable signature store: a directory of `SKYSIG03` artefacts
/// plus one write-behind worker thread.
pub struct SignatureStore {
    dir: PathBuf,
    metrics: Arc<Metrics>,
    tx: Mutex<Option<mpsc::Sender<Job>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
    persisted_total: Arc<AtomicU64>,
}

impl SignatureStore {
    /// Opens (creating if needed) the store at `dir`: runs the recovery
    /// sweep, then starts the write-behind worker. `faults` arms the
    /// deterministic fault injector — pass `&[]` in production.
    pub fn open(
        dir: impl Into<PathBuf>,
        metrics: Arc<Metrics>,
        faults: &[FaultPlan],
    ) -> io::Result<(SignatureStore, SweepReport)> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        fs::create_dir_all(dir.join(QUARANTINE))?;
        let report = sweep_dir(&dir, &metrics)?;
        let (tx, rx) = mpsc::channel::<Job>();
        let persisted_total = Arc::new(AtomicU64::new(0));
        let worker = spawn_writer(
            dir.clone(),
            Arc::clone(&metrics),
            faults.to_vec(),
            Arc::clone(&persisted_total),
            rx,
        )?;
        Ok((
            SignatureStore {
                dir,
                metrics,
                tx: Mutex::new(Some(tx)),
                worker: Mutex::new(Some(worker)),
                persisted_total,
            },
            report,
        ))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Artefacts persisted by the worker since open.
    pub fn persisted(&self) -> u64 {
        self.persisted_total.load(Ordering::Relaxed)
    }

    /// Loads one shard fold, verifying checksum and key binding. A
    /// missing file is a plain miss; a corrupt or mis-keyed file is
    /// quarantined (never served) and reported as a miss — the caller
    /// falls back to recompute.
    pub fn load(&self, key: &StoreKey) -> Option<Arc<ShardFingerprint>> {
        let path = self.dir.join(key.file_name());
        match persist::read_shard_signatures(&path) {
            Ok((fp, tags)) => {
                if tags == key.tags() && fp.t() == key.t {
                    self.metrics.bump(&self.metrics.store_hits);
                    Some(Arc::new(fp))
                } else {
                    quarantine_file(&self.dir, &path, "header tags do not match the requested key", &self.metrics);
                    None
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => {
                quarantine_file(&self.dir, &path, &e.to_string(), &self.metrics);
                None
            }
        }
    }

    /// Queues one complete shard fold for write-behind persistence.
    /// Never blocks on disk; a closed store drops the request.
    pub fn enqueue_persist(&self, key: StoreKey, fp: Arc<ShardFingerprint>) {
        let tx = self.tx.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(tx) = tx.as_ref() {
            let _ = tx.send(Job::Persist { key, fp });
        }
    }

    /// Drains the write-behind queue (the `SNAPSHOT` verb): blocks
    /// until every previously queued artefact hit disk (or failed and
    /// was counted), bounded by `FLUSH_ACK_WAIT`. Returns the total
    /// artefacts persisted since open — the running count when the
    /// store is closed or the worker stays silent past the bound.
    pub fn flush(&self) -> u64 {
        let (ack_tx, ack_rx) = mpsc::channel();
        let sent = {
            let tx = self.tx.lock().unwrap_or_else(|e| e.into_inner());
            match tx.as_ref() {
                Some(tx) => tx.send(Job::Flush(ack_tx)).is_ok(),
                None => false,
            }
        };
        if !sent {
            return self.persisted_total.load(Ordering::Relaxed);
        }
        wait_ack(&ack_rx, FLUSH_ACK_WAIT, || self.persisted_total.load(Ordering::Relaxed))
    }

    /// Re-runs the recovery sweep (the `RESTORE` verb): re-validates
    /// every artefact on disk, quarantining what no longer decodes.
    pub fn sweep(&self) -> io::Result<SweepReport> {
        sweep_dir(&self.dir, &self.metrics)
    }
}

/// Upper bound on the `flush` ack wait. `SNAPSHOT` runs on an
/// event-loop thread: a wedged worker (a disk write that never
/// completes) may stall that loop for a bounded time, never forever.
const FLUSH_ACK_WAIT: Duration = Duration::from_secs(10);

/// Bounded ack wait: the acked total, or `fallback()` when the worker
/// goes away *or stays alive but silent past `wait`*. A plain `recv()`
/// here hangs the calling event-loop thread — and every connection it
/// owns — for as long as the writer is wedged.
fn wait_ack(rx: &mpsc::Receiver<u64>, wait: Duration, fallback: impl Fn() -> u64) -> u64 {
    match rx.recv_timeout(wait) {
        Ok(total) => total,
        Err(_) => fallback(),
    }
}

impl Drop for SignatureStore {
    fn drop(&mut self) {
        // Closing the channel is the worker's shutdown signal; join so
        // queued writes land before the process believes the store is
        // closed.
        *self.tx.lock().unwrap_or_else(|e| e.into_inner()) = None;
        let worker = self.worker.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(handle) = worker {
            let _ = handle.join();
        }
    }
}

/// The write-behind worker: single thread, owns all store writes.
fn spawn_writer(
    dir: PathBuf,
    metrics: Arc<Metrics>,
    faults: Vec<FaultPlan>,
    persisted_total: Arc<AtomicU64>,
    rx: mpsc::Receiver<Job>,
) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name("skydiver-store".into()).spawn(move || {
        let mut writes = 0u64;
        let mut persisted = 0u64;
        // lint: allow(R2) -- the channel closing (store drop / server
        // shutdown) is this loop's cancellation signal; each iteration
        // is one bounded artefact write, and the worker thread owns all
        // store I/O so nothing upstream ever blocks on it
        while let Ok(job) = rx.recv() {
            match job {
                Job::Persist { key, fp } => {
                    let final_path = dir.join(key.file_name());
                    if final_path.exists() {
                        // Already durable (warm-loaded or re-enqueued);
                        // sweep guarantees existing artefacts are valid.
                        continue;
                    }
                    writes += 1;
                    let fault =
                        faults.iter().find(|p| p.at_write == writes).map(|p| p.fault);
                    match write_artifact(&dir, &final_path, &key, &fp, fault) {
                        Ok(()) => {
                            persisted += 1;
                            persisted_total.store(persisted, Ordering::Relaxed);
                        }
                        Err(e) => {
                            metrics.bump(&metrics.store_write_failures);
                            eprintln!(
                                "skydiver-store: failed to persist {}: {e}",
                                final_path.display()
                            );
                        }
                    }
                }
                Job::Flush(ack) => {
                    let _ = ack.send(persisted);
                }
            }
        }
    })
}

/// Writes one artefact with the atomic protocol: encode → temp file →
/// fsync → rename → directory fsync. `fault` injects one deterministic
/// failure mode; the temp file is cleaned up on any error path.
fn write_artifact(
    dir: &Path,
    final_path: &Path,
    key: &StoreKey,
    fp: &ShardFingerprint,
    fault: Option<DiskFault>,
) -> io::Result<()> {
    let bytes = persist::encode_shard_signatures(fp, &key.tags());
    let tmp = dir.join(format!("{}.tmp", key.file_name()));
    let result = write_atomic(dir, &tmp, final_path, &bytes, fault);
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

fn write_atomic(
    dir: &Path,
    tmp: &Path,
    final_path: &Path,
    bytes: &[u8],
    fault: Option<DiskFault>,
) -> io::Result<()> {
    let payload: &[u8] = match fault {
        Some(DiskFault::TornWrite { keep }) => &bytes[..keep.min(bytes.len())],
        _ => bytes,
    };
    let mut f = File::create(tmp)?;
    if matches!(fault, Some(DiskFault::Enospc)) {
        f.write_all(&payload[..payload.len() / 2])?;
        return Err(io::Error::other("injected ENOSPC: no space left on device"));
    }
    f.write_all(payload)?;
    f.sync_all()?;
    drop(f);
    if matches!(fault, Some(DiskFault::RenameFail)) {
        return Err(io::Error::other("injected rename failure"));
    }
    fs::rename(tmp, final_path)?;
    // Make the rename itself durable; best-effort — some filesystems
    // refuse to fsync a directory handle.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    // At-rest corruption modes strike after the protocol succeeded.
    match fault {
        Some(DiskFault::BitFlip { byte }) => {
            let mut data = fs::read(final_path)?;
            if !data.is_empty() {
                let at = byte % data.len();
                data[at] ^= 0x01;
                fs::write(final_path, &data)?;
            }
        }
        Some(DiskFault::ShortRead { keep }) => {
            OpenOptions::new().write(true).open(final_path)?.set_len(keep as u64)?;
        }
        _ => {}
    }
    Ok(())
}

/// Validates every artefact under `dir`: quarantines what fails to
/// decode or whose file name disagrees with its header tags, deletes
/// orphan temp files, leaves everything else untouched.
fn sweep_dir(dir: &Path, metrics: &Metrics) -> io::Result<SweepReport> {
    let mut report = SweepReport::default();
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        // lint: allow(R2) -- bounded by the artefact count on disk;
        // runs at open/RESTORE time, never on the query path
        if !path.is_file() {
            continue;
        }
        match path.extension().and_then(|e| e.to_str()) {
            Some("sig2") => match persist::read_shard_signatures(&path) {
                Ok((fp, tags)) => {
                    let expected = StoreKey {
                        dataset_hash: tags[0],
                        shard: tags[1] as usize,
                        prefs_hash: tags[2],
                        t: fp.t(),
                        seed: tags[3],
                    }
                    .file_name();
                    if path.file_name().and_then(|n| n.to_str()) == Some(expected.as_str()) {
                        report.valid += 1;
                    } else {
                        quarantine_file(dir, &path, "file name does not match its header tags", metrics);
                        report.quarantined += 1;
                    }
                }
                Err(e) => {
                    quarantine_file(dir, &path, &e.to_string(), metrics);
                    report.quarantined += 1;
                }
            },
            Some("tmp") => {
                // lint: allow(R8) -- sweep runs under the operator-issued RESTORE verb; reaping leftover tmp files is its contract
                let _ = fs::remove_file(&path);
                report.removed_temps += 1;
            }
            _ => {}
        }
    }
    Ok(report)
}

/// Moves a bad artefact into `quarantine/` (falling back to deletion if
/// even the rename fails) with a logged reason. Quarantined files are
/// kept for post-mortem, never read again by the store.
fn quarantine_file(dir: &Path, path: &Path, reason: &str, metrics: &Metrics) {
    metrics.bump(&metrics.store_quarantined);
    eprintln!("skydiver-store: quarantining {} ({reason})", path.display());
    let dest = match path.file_name() {
        Some(name) => dir.join(QUARANTINE).join(name),
        None => {
            // lint: allow(R8) -- corruption path only: a keyless artefact cannot be renamed, so delete it
            let _ = fs::remove_file(path);
            return;
        }
    };
    // lint: allow(R8) -- corruption path only: the bad artefact must leave the store namespace before any re-read
    if fs::rename(path, &dest).is_err() {
        // lint: allow(R8) -- fallback delete when the corruption-path rename itself fails
        let _ = fs::remove_file(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skydiver_core::SignatureAccumulator;

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("skydiver-store-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    fn sample_fp(tweak: u64) -> Arc<ShardFingerprint> {
        let mut acc = SignatureAccumulator::new(4, 2);
        acc.matrix.set_column(0, &[tweak, 1, 9, 2]);
        acc.matrix.set_column(1, &[7, tweak, 0, 3]);
        acc.scores = vec![3, 1];
        acc.rows_consumed = 17;
        Arc::new(ShardFingerprint { columns: vec![0, 4], acc })
    }

    fn key(shard: usize) -> StoreKey {
        StoreKey { dataset_hash: 0xabc, shard, prefs_hash: 0xdef, t: 4, seed: 7 }
    }

    #[test]
    fn content_hash_sees_every_bit_boundary_and_dimension() {
        use skydiver_data::Dataset;
        // `flat` read as `dims`-d points, split into two shards at `at`.
        let layout = |flat: &[f64], dims: usize, at: usize| {
            ShardedDataset::from_shards(vec![
                Dataset::from_flat(dims, flat[..at].to_vec()),
                Dataset::from_flat(dims, flat[at..].to_vec()),
            ])
        };
        let flat: Vec<f64> = (0..12).map(|i| i as f64 * 0.25).collect();
        let data = layout(&flat, 3, 6);
        let base = content_hash(&data);
        let tags = [shard_tag(data.shard(0)), shard_tag(data.shard(1))];
        assert_eq!(content_hash_of_tags(&data, &tags), base);
        let mut flipped = flat.clone();
        flipped[7] = f64::from_bits(flipped[7].to_bits() ^ 1);
        assert_ne!(content_hash(&layout(&flipped, 3, 6)), base, "a coordinate bit");
        assert_ne!(content_hash(&layout(&flat, 3, 3)), base, "a shard boundary");
        assert_ne!(content_hash(&layout(&flat, 2, 6)), base, "the dimensionality");
    }

    #[test]
    fn write_behind_then_load_round_trips() {
        let dir = tmp_dir("roundtrip");
        let metrics = Arc::new(Metrics::new());
        let (store, report) = SignatureStore::open(&dir, Arc::clone(&metrics), &[]).unwrap();
        assert_eq!(report, SweepReport::default());
        let fp = sample_fp(5);
        store.enqueue_persist(key(0), Arc::clone(&fp));
        assert_eq!(store.flush(), 1);
        let back = store.load(&key(0)).expect("artefact must load");
        assert_eq!(back.columns, fp.columns);
        assert_eq!(back.acc, fp.acc);
        // A different key coordinate is a plain miss.
        assert!(store.load(&key(1)).is_none());
        use std::sync::atomic::Ordering::Relaxed;
        assert_eq!(metrics.store_hits.load(Relaxed), 1);
        assert_eq!(metrics.store_quarantined.load(Relaxed), 0);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_ack_wait_is_bounded_when_worker_stays_silent() {
        // Regression: `flush` used a plain `recv()`, so a wedged-but-
        // alive worker (sender held, ack never sent) hung the calling
        // event-loop thread forever. The bounded wait must fall back.
        let (ack_tx, ack_rx) = mpsc::channel::<u64>();
        let start = std::time::Instant::now();
        let total = wait_ack(&ack_rx, Duration::from_millis(50), || 42);
        assert_eq!(total, 42, "silent worker falls back to the running count");
        assert!(start.elapsed() < Duration::from_secs(5), "wait must be bounded");
        drop(ack_tx);
    }

    #[test]
    fn flush_ack_wait_returns_the_acked_total() {
        let (ack_tx, ack_rx) = mpsc::channel::<u64>();
        ack_tx.send(7).unwrap();
        assert_eq!(wait_ack(&ack_rx, Duration::from_secs(5), || 0), 7);
    }

    #[test]
    fn reopen_survives_and_revalidates() {
        let dir = tmp_dir("reopen");
        let metrics = Arc::new(Metrics::new());
        {
            let (store, _) = SignatureStore::open(&dir, Arc::clone(&metrics), &[]).unwrap();
            store.enqueue_persist(key(0), sample_fp(5));
            // Drop without an explicit flush: Drop joins the worker, so
            // the queued write still lands.
        }
        let (store, report) = SignatureStore::open(&dir, Arc::clone(&metrics), &[]).unwrap();
        assert_eq!(report.valid, 1, "{report:?}");
        assert!(store.load(&key(0)).is_some());
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_artifact_is_quarantined_not_served() {
        let dir = tmp_dir("corrupt");
        let metrics = Arc::new(Metrics::new());
        let (store, _) = SignatureStore::open(&dir, Arc::clone(&metrics), &[]).unwrap();
        store.enqueue_persist(key(0), sample_fp(5));
        store.flush();
        // Flip one byte at rest.
        let path = dir.join(key(0).file_name());
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(&key(0)).is_none(), "corrupt artefact must not load");
        assert!(!path.exists(), "corrupt artefact must leave the store dir");
        assert!(dir.join(QUARANTINE).join(key(0).file_name()).exists());
        use std::sync::atomic::Ordering::Relaxed;
        assert_eq!(metrics.store_quarantined.load(Relaxed), 1);
        assert_eq!(metrics.store_hits.load(Relaxed), 0);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn renamed_artifact_fails_key_binding() {
        let dir = tmp_dir("renamed");
        let metrics = Arc::new(Metrics::new());
        let (store, _) = SignatureStore::open(&dir, Arc::clone(&metrics), &[]).unwrap();
        store.enqueue_persist(key(0), sample_fp(5));
        store.flush();
        // Masquerade the shard-0 artefact as shard 1.
        fs::rename(dir.join(key(0).file_name()), dir.join(key(1).file_name())).unwrap();
        assert!(store.load(&key(1)).is_none(), "mis-keyed artefact must not serve");
        use std::sync::atomic::Ordering::Relaxed;
        assert_eq!(metrics.store_quarantined.load(Relaxed), 1);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_quarantines_garbage_and_removes_temps() {
        let dir = tmp_dir("sweep");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("sig-junk.sig2"), b"not a bundle at all").unwrap();
        fs::write(dir.join("orphan.sig2.tmp"), b"half a write").unwrap();
        fs::write(dir.join("README.txt"), b"unrelated, untouched").unwrap();
        let metrics = Arc::new(Metrics::new());
        let (store, report) = SignatureStore::open(&dir, Arc::clone(&metrics), &[]).unwrap();
        assert_eq!(
            report,
            SweepReport { valid: 0, quarantined: 1, removed_temps: 1 },
            "{report:?}"
        );
        assert!(dir.join("README.txt").exists(), "foreign files stay");
        assert!(!dir.join("orphan.sig2.tmp").exists());
        assert!(dir.join(QUARANTINE).join("sig-junk.sig2").exists());
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn existing_artifact_is_not_rewritten() {
        let dir = tmp_dir("dedupe");
        let metrics = Arc::new(Metrics::new());
        let (store, _) = SignatureStore::open(&dir, Arc::clone(&metrics), &[]).unwrap();
        store.enqueue_persist(key(0), sample_fp(5));
        assert_eq!(store.flush(), 1);
        store.enqueue_persist(key(0), sample_fp(5));
        assert_eq!(store.flush(), 1, "second enqueue of a durable key is a no-op");
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_survives_a_poisoned_sender_lock() {
        let dir = tmp_dir("poison");
        let metrics = Arc::new(Metrics::new());
        let (store, _) = SignatureStore::open(&dir, Arc::clone(&metrics), &[]).unwrap();
        let store = Arc::new(store);
        let s2 = Arc::clone(&store);
        // Panic while holding the sender lock to poison it.
        let _ = std::thread::spawn(move || {
            let _guard = s2.tx.lock().unwrap();
            panic!("poison the store sender lock");
        })
        .join();
        store.enqueue_persist(key(0), sample_fp(5));
        assert_eq!(store.flush(), 1, "store must keep persisting after poison");
        assert!(store.load(&key(0)).is_some());
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }
}
