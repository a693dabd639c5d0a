//! Distributed scatter-gather serving on the shard-merge invariant, and
//! the shard host every server folds through.
//!
//! **The shard host.** The [`Registry`] owns one [`ShardHost`] per
//! process: the shards this node hosts (from a local `LOAD`/`APPEND` or
//! a coordinator's `SHARDPUT`), one fold LRU, the optional durable
//! store and the dominance-plan memo. Its one fold entry,
//! `ShardHost::fold_shards`, folds a single-process `QUERY`'s shards in
//! one call, and a worker's `FOLD` shard behind a thin wire wrapper. It
//! caches only the folds of a query that inherits no fingerprint: the
//! folds that extend an inherited one are persisted, never cached.
//!
//! **The cluster.** A cluster is one **coordinator** plus N **workers**,
//! all running the same `skydiver serve` binary. The coordinator owns the
//! dataset (it is where `LOAD`/`APPEND` arrive), partitions it into
//! shards, and routes each shard to the workers that own it under
//! rendezvous hashing with replication factor R
//! ([`skydiver_cluster::rendezvous`]). A `QUERY` fans out as per-shard
//! `FOLD` requests; each worker returns its fold as a `SKYSIG03`
//! bundle (its own length and `checksum64` footer; an older worker's
//! `SKYSIG02` reply is a failed leg), and the registry's
//! assembler merges the folds in ascending shard order, as it merges a
//! single process's own folds.
//!
//! **Determinism contract.** The cluster answer is bit-identical to the
//! single-process answer because every ingredient is: canonicalisation
//! is row-local, row hashes are seeded by *global* ids (shipped with
//! each shard at `SHARDPUT` time as the view base), the skyline and its
//! canonical columns are computed once on the coordinator and shipped
//! in the `FOLD` body, and slot-min/score-sum merge is associative and
//! commutative. Budget-tripped prefixes match too: with a
//! dominance-test budget the fan-out keeps **one leg in flight, in
//! shard order**, forwarding the remaining budget to each leg, so the
//! trip lands on the same absolute row and the degraded payload (ids,
//! status string, dominance-test count) is byte-identical.
//!
//! **Failure model.** Every exchange with another server — `FOLD`,
//! `SHARDPUT`, `REPLICATE` and its `FETCH` pull, the `STATS` roll-up —
//! runs on one readiness-multiplexed engine, and all legs of one request
//! share one [`DeadlineBudget`]. A dead or slow owner is retried on the
//! next replica with whatever time is left; a peer that never finishes
//! its reply is given up at the deadline. A shard with no reachable
//! owner degrades the fingerprint with [`StopReason::ShardUnavailable`]
//! instead of failing the query, and fails a `LOAD`/`APPEND` by name; a
//! node the roll-up cannot reach is listed `"ok":false`. A worker
//! joining (or recovering) pulls its shards' folds from surviving
//! replicas via `REPLICATE`/`FETCH`, within the time the coordinator
//! forwards, and recomputes only on a miss.

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

use skydiver_cluster::frame;
use skydiver_cluster::rendezvous;
use skydiver_cluster::{DeadlineBudget, Membership};
use skydiver_core::minhash::persist::{decode_shard_signatures, encode_shard_signatures};
use skydiver_core::{
    canonicalise, fold_shard_planned, CancelToken, DominancePlan, ExecContext, ExecPhase,
    Fingerprint, HashFamily, Interrupt, RowBlockScan, RunBudget, ShardFingerprint, ShardFold,
    SignatureAccumulator, StopReason,
};
use skydiver_data::digest::{fnv1a64, Fnv64};
use skydiver_data::{Dataset, DatasetView, Preference, ShardedDataset};

use crate::cache::{FingerprintCache, FingerprintKey};
use crate::metrics::Metrics;
use crate::poll::{Event, Interest, Poller};
use crate::protocol::{complete_response, json_escape, json_u64, parse_response};
use crate::registry::{parse_prefs, read_points, request_budget, LegPlan, LoadedDataset, Registry};
use crate::store::{prefs_hash, SignatureStore, StoreKey};

/// Cluster role configuration carried by
/// [`ServerConfig`](crate::ServerConfig). Present ⇒ the server is a
/// coordinator; absent ⇒ it serves as a plain single-process server
/// that also answers the worker verbs (`SHARDPUT`/`FOLD`/…).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker addresses (`host:port`) forming the initial roster.
    pub workers: Vec<String>,
    /// Replication factor R: each shard is owned by `min(R, workers)`
    /// nodes.
    pub replication: usize,
    /// Shards a `LOAD` is partitioned into (appends add more).
    pub shards: usize,
    /// Deadline budget in milliseconds shared by **all** legs of one
    /// fan-out (a slow worker cannot consume more than what the other
    /// legs leave unused).
    pub fanout_timeout_ms: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: vec![],
            replication: 1,
            shards: 4,
            fanout_timeout_ms: 10_000,
        }
    }
}

// ---------------------------------------------------------------------
// The shard host: every shard fold of this process
// ---------------------------------------------------------------------

/// One shard of one dataset hosted on this node.
#[derive(Debug)]
struct OwnedShard {
    /// Global id of the shard's first row.
    base: usize,
    /// The shard's content tag ([`shard_tag`]) — the generation a fold
    /// must name, so no fold ever runs over rows other than the ones its
    /// caller resolved.
    shard_hash: u64,
    /// Installed by a coordinator's `SHARDPUT` (not a local `LOAD`).
    put: bool,
    /// The rows, shared with the registry when installed locally.
    data: Arc<Dataset>,
}

#[derive(Debug, Default)]
struct HostedDataset {
    dims: usize,
    shards: HashMap<usize, OwnedShard>,
}

/// A shard's content tag: the FNV-1a of its `SHARDPUT` points payload
/// ([`frame::encode_points`]), hashed without building the payload.
/// `SHARDPUT`, the local install at `LOAD`/`APPEND` and the
/// coordinator's `FOLD` routing all tag a shard here.
pub(crate) fn shard_tag(data: &Dataset) -> u64 {
    let mut h = Fnv64::new();
    h.update(&(data.dims() as u32).to_le_bytes());
    h.update(&0u32.to_le_bytes());
    h.update(&(data.len() as u64).to_le_bytes());
    for v in data.as_flat() {
        h.update(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

/// The LRU and store keys of one shard's fold.
pub(crate) fn fold_keys(
    name: &str,
    dataset_hash: u64,
    shard: usize,
    prefs_key: &str,
    t: usize,
    seed: u64,
) -> (FingerprintKey, StoreKey) {
    let (dataset, prefs) = (name.to_string(), prefs_key.to_string());
    let prefs_hash = prefs_hash(prefs_key);
    let key = FingerprintKey {
        dataset,
        shard,
        prefs,
        t,
        seed,
    };
    (
        key,
        StoreKey {
            dataset_hash,
            shard,
            prefs_hash,
            t,
            seed,
        },
    )
}

/// Share of the fold cache's byte ceiling the dominance-plan memo may
/// hold on top of it: one eighth.
const PLAN_SHARE: usize = 8;

/// Fully cold folds of a key that run the row fold before the next one
/// builds the key's dominance plan. The build runs on the request path
/// and costs about one and a half row folds (on a `cluster-cold` shard
/// at t = 64: ~28 ms, against ~17 ms for the row fold and ~2 ms for a
/// walk through the plan), so a key folded only once or twice — a
/// set-up warm-up, or a skyline that an `APPEND` changes every query
/// or two — never pays for a plan it would not reuse, and the first
/// plan hit after a build earns the build back.
const ROW_FOLDS_BEFORE_BUILD: u32 = 2;

/// What a host's dominance-plan memo holds for one key.
#[derive(Debug, Clone)]
enum PlanSlot {
    /// This many fully cold folds of the key ran the row fold.
    Seen(u32),
    /// One fold is building the plan; concurrent cold folds of the key
    /// keep the row fold rather than build it again.
    Building,
    /// The plan did not fit the memo's byte limit; the key keeps the
    /// row fold.
    NoPlan,
    /// The plan cold folds of the key run through.
    Ready(Arc<DominancePlan>),
}

/// What the plan memo admits one fully cold fold of a key to.
enum Admission {
    /// The row fold.
    RowFold,
    /// Build the plan (the slot is marked [`PlanSlot::Building`]), then
    /// fold through it.
    Build,
    /// Fold through the memoised plan.
    Run(Arc<DominancePlan>),
}

/// A dominance plan's key: the shard's generation and the fold request.
/// It holds no signature size or hash seed — the plan depends on
/// neither — and a changed shard (`shard_hash`) or skyline (`request`,
/// the FNV-1a of the encoded request's ids and columns) cannot match.
/// The hash only finds the entry: [`fold_shard_planned`] compares the
/// plan's column ids with the request's in full, so a collision costs a
/// row fold, never a wrong answer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    dataset: String,
    shard: usize,
    shard_hash: u64,
    prefs: String,
    request: u64,
}

/// Byte-bounded memo of dominance plans, least recently used out
/// first. Every entry is charged its key and its plan's bytes.
#[derive(Debug)]
struct PlanMemo {
    slots: HashMap<PlanKey, (PlanSlot, u64)>,
    bytes: usize,
    limit: usize,
    tick: u64,
}

impl PlanMemo {
    fn new(limit: usize) -> Self {
        PlanMemo {
            slots: HashMap::new(),
            bytes: 0,
            limit,
            tick: 0,
        }
    }

    fn cost(key: &PlanKey, slot: &PlanSlot) -> usize {
        let plan = match slot {
            PlanSlot::Ready(plan) => plan.memory_bytes(),
            PlanSlot::Seen(_) | PlanSlot::Building | PlanSlot::NoPlan => 0,
        };
        std::mem::size_of::<(PlanKey, PlanSlot, u64)>() + key.dataset.len() + key.prefs.len() + plan
    }

    fn get(&mut self, key: &PlanKey) -> Option<PlanSlot> {
        self.tick += 1;
        let (slot, used) = self.slots.get_mut(key)?;
        *used = self.tick;
        Some(slot.clone())
    }

    /// Admits one fully cold fold of `key`: the row fold for the first
    /// [`ROW_FOLDS_BEFORE_BUILD`] (counted), while another fold builds
    /// the plan, and for a key with no plan; a build for the next one,
    /// if `can_build`; the memoised plan after that.
    fn admit(&mut self, key: &PlanKey, can_build: bool) -> Admission {
        match self.get(key) {
            Some(PlanSlot::Ready(plan)) => Admission::Run(plan),
            Some(PlanSlot::Seen(n)) if n >= ROW_FOLDS_BEFORE_BUILD => {
                if !can_build {
                    return Admission::RowFold;
                }
                self.put(key.clone(), PlanSlot::Building);
                Admission::Build
            }
            Some(PlanSlot::Seen(n)) => {
                self.put(key.clone(), PlanSlot::Seen(n + 1));
                Admission::RowFold
            }
            None => {
                self.put(key.clone(), PlanSlot::Seen(1));
                Admission::RowFold
            }
            Some(PlanSlot::Building | PlanSlot::NoPlan) => Admission::RowFold,
        }
    }

    /// Ends the build of `key` with `slot`, unless the slot stopped
    /// being [`PlanSlot::Building`] meanwhile (a new generation of the
    /// shard dropped the dataset's plans, or the entry was evicted):
    /// then the result is dropped.
    fn finish(&mut self, key: PlanKey, slot: PlanSlot) {
        if matches!(self.slots.get(&key), Some((PlanSlot::Building, _))) {
            self.put(key, slot);
        }
    }

    /// Stores `slot` under `key`, evicting least recently used entries
    /// down to the limit; a plan larger than the whole limit is kept as
    /// [`PlanSlot::NoPlan`].
    fn put(&mut self, key: PlanKey, mut slot: PlanSlot) {
        if Self::cost(&key, &slot) > self.limit {
            slot = PlanSlot::NoPlan;
        }
        self.remove(&key);
        self.tick += 1;
        self.bytes += Self::cost(&key, &slot);
        self.slots.insert(key, (slot, self.tick));
        while self.bytes > self.limit {
            // lint: allow(R2) -- each pass evicts one entry, so the loop
            // ends within the memo's entry count
            let Some(oldest) = self
                .slots
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.remove(&oldest);
        }
    }

    fn remove(&mut self, key: &PlanKey) {
        if let Some((slot, _)) = self.slots.remove(key) {
            self.bytes -= Self::cost(key, &slot);
        }
    }

    fn invalidate_dataset(&mut self, name: &str) {
        self.slots.retain(|k, _| k.dataset != name);
        self.bytes = self
            .slots
            .iter()
            .map(|(k, (slot, _))| Self::cost(k, slot))
            .sum();
    }
}

/// One fold request, decoded once: where its folds live, the skyline
/// every shard is folded against and the hash family it is folded
/// under. A `QUERY` builds one per query; a worker's `FOLD` one per
/// request.
pub(crate) struct FoldJob<'a> {
    /// The LRU and store keys of one of the request's shards.
    keys: (FingerprintKey, StoreKey),
    prefs: &'a [Preference],
    /// Ascending global ids of the skyline members, and their canonical
    /// coordinates (row `j` is column `j` of the fold).
    ids: &'a [usize],
    points: &'a Dataset,
    cols: Vec<&'a [f64]>,
    family: HashFamily,
    /// [`request_hash`](Self::request_hash), once computed.
    request: OnceLock<u64>,
}

impl<'a> FoldJob<'a> {
    /// The job of `keys` over the skyline `ids` at canonical `points`.
    /// The caller has bounded `t` with
    /// [`ShardHost::check_signature_size`].
    pub(crate) fn new(
        keys: (FingerprintKey, StoreKey),
        prefs: &'a [Preference],
        ids: &'a [usize],
        points: &'a Dataset,
    ) -> Self {
        let family = HashFamily::new(keys.0.t, keys.0.seed);
        let cols = points.iter().collect();
        FoldJob {
            keys,
            prefs,
            ids,
            points,
            cols,
            family,
            request: OnceLock::new(),
        }
    }

    /// The LRU and store keys of `shard`'s fold.
    fn keys(&self, shard: usize) -> (FingerprintKey, StoreKey) {
        let (mut key, mut store_key) = self.keys.clone();
        (key.shard, store_key.shard) = (shard, shard);
        (key, store_key)
    }

    /// The skyline ids of the columns from global row `from` on: the
    /// members a column delta folds.
    pub(crate) fn ids_from(&self, from: usize) -> &'a [usize] {
        &self.ids[self.ids.partition_point(|&id| id < from)..]
    }

    /// The plan key's FNV-1a of the encoded request: hashed at the
    /// job's first fully cold shard, then reused, so a job with no cold
    /// shard never hashes and one with several hashes once.
    fn request_hash(&self) -> u64 {
        *self.request.get_or_init(|| {
            let (dims, cols) = (self.points.dims(), self.points.as_flat());
            fnv1a64(&frame::encode_fold_request(dims, self.ids, cols))
        })
    }
}

/// One shard's fold as an assembled fingerprint merges it.
pub(crate) struct Leg {
    pub(crate) fold: Arc<ShardFingerprint>,
    /// Served from a cached or stored fold, with no row scanned.
    pub(crate) reused: bool,
    /// Dominance tests the shard charged.
    pub(crate) tests: u64,
    /// Rows the fold scanned (0 on a remote leg: its reply is not read
    /// for them).
    pub(crate) scanned: usize,
    /// The budget trip that cut the shard's fold short, in the
    /// request's terms.
    pub(crate) interrupt: Option<Interrupt>,
}

/// One assembly's shard folds, min-merged in shard order: what one
/// [`ShardHost::fold_shards`] call, or a coordinator's `FOLD` legs,
/// hands the assembler. Merging is associative and commutative, so the
/// merge of the merges is the merge of the folds.
#[derive(Default)]
pub(crate) struct Folded {
    /// The full folds, over every skyline column.
    pub(crate) full: Option<Arc<ShardFingerprint>>,
    /// The column-delta folds, over the entering columns only.
    pub(crate) delta: Option<Arc<ShardFingerprint>>,
    /// A column-delta fold was cut short or lost.
    pub(crate) delta_broken: bool,
    /// Dominance tests charged.
    pub(crate) tests: u64,
    /// Shards served from a cached or stored fold.
    pub(crate) reused: u64,
    /// Rows scanned.
    pub(crate) scanned: usize,
    /// The first trip or lost shard, in shard order.
    pub(crate) interrupt: Option<Interrupt>,
    /// The lost shard that set `interrupt`, and why it was lost.
    pub(crate) failed: Option<(usize, String)>,
}

impl Folded {
    /// Merges `shard`'s leg — a column-delta fold when `in_delta` — or
    /// records its loss.
    pub(crate) fn absorb(&mut self, shard: usize, leg: Result<Leg, String>, in_delta: bool) {
        let leg = match leg {
            Ok(leg) => leg,
            Err(e) => {
                self.delta_broken |= in_delta;
                if self.interrupt.is_none() {
                    self.interrupt = Some(Interrupt {
                        phase: ExecPhase::Fingerprint,
                        reason: StopReason::ShardUnavailable { shard },
                    });
                    self.failed = Some((shard, e));
                }
                return;
            }
        };
        let into = if in_delta {
            &mut self.delta
        } else {
            &mut self.full
        };
        match into {
            Some(fold) => Arc::make_mut(fold).acc.merge(&leg.fold.acc),
            None => *into = Some(leg.fold),
        }
        self.tests += leg.tests;
        self.reused += u64::from(leg.reused);
        self.scanned += leg.scanned;
        self.delta_broken |= in_delta && leg.interrupt.is_some();
        if self.interrupt.is_none() {
            self.interrupt = leg.interrupt;
        }
    }
}

/// One planned shard as the `hosted` lookup found it.
struct HostedShard {
    base: usize,
    shard_hash: u64,
    data: Arc<Dataset>,
    /// The LRU's fold of the shard (looked up for a full fold only).
    cached: Option<Arc<ShardFingerprint>>,
}

/// The process's fold service, owned by the registry: the hosted
/// shards, the one fold LRU (and optional store) and the dominance-plan
/// memo. `QUERY`/`BATCH` folds and a worker's `FOLD` run the same
/// in-process fold.
///
/// Lock order: `hosted` before `cache` and `plans`. A shard's tag or
/// base changes under the `hosted` write lock together with its
/// dataset's cache and plans, and every LRU read or insert checks the
/// shard's generation under the `hosted` read lock, so no fold pairs
/// rows with another generation's fold.
pub struct ShardHost {
    hosted: RwLock<HashMap<String, HostedDataset>>,
    cache: Mutex<FingerprintCache>,
    plans: Mutex<PlanMemo>,
    store: Option<Arc<SignatureStore>>,
    metrics: Arc<Metrics>,
    /// Largest signature, in bytes, a fold may ask for.
    max_signature_bytes: usize,
}

impl ShardHost {
    /// A host with an LRU fold cache of `cache_bytes` and an optional
    /// durable store. Dominance plans may take another
    /// `cache_bytes / 8`. A fold whose signature would take more than
    /// `max_signature_bytes` (a server passes its frame limit) is
    /// refused.
    pub fn new(
        cache_bytes: usize,
        metrics: Arc<Metrics>,
        store: Option<Arc<SignatureStore>>,
        max_signature_bytes: usize,
    ) -> Self {
        ShardHost {
            hosted: RwLock::new(HashMap::new()),
            cache: Mutex::new(FingerprintCache::new(cache_bytes)),
            plans: Mutex::new(PlanMemo::new(cache_bytes / PLAN_SHARE)),
            store,
            metrics,
            max_signature_bytes,
        }
    }

    /// `(datasets, shards)` hosted — for reporting.
    pub fn hosted_counts(&self) -> (usize, usize) {
        let hosted = self.hosted.read().unwrap_or_else(|e| e.into_inner());
        let shards = hosted.values().map(|d| d.shards.len()).sum();
        (hosted.len(), shards)
    }

    /// Fold cache occupancy: `(entries, resident bytes, ceiling)`.
    pub fn cache_usage(&self) -> (usize, usize, usize) {
        let cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        (cache.len(), cache.bytes(), cache.ceiling())
    }

    /// `Err` when a signature of size `t` over `m` skyline points would
    /// take more than this host's bound: the `t × m` matrix of `u64`
    /// slots plus the hash family's two `u64` coefficients per row. A
    /// server's bound is its frame limit — the largest matrix a `FOLD`
    /// reply could carry anyway — so a hostile `t` is refused before the
    /// hash family or the matrix is allocated, even over no columns.
    pub(crate) fn check_signature_size(&self, t: usize, m: usize) -> Result<(), String> {
        let max_bytes = self.max_signature_bytes;
        let words = m.checked_add(2).and_then(|w| t.checked_mul(w));
        match words.and_then(|w| w.checked_mul(8)) {
            Some(bytes) if bytes <= max_bytes => Ok(()),
            _ => Err(format!(
                "signature size t={t} over {m} skyline points exceeds the \
                 {max_bytes}-byte frame limit"
            )),
        }
    }

    /// Installs (or overwrites) one hosted shard; `replace` drops every
    /// shard hosted under `name` first. A changed tag or base drops the
    /// dataset's cached folds and plans under the same write lock.
    fn install(&self, name: &str, shard: usize, owned: OwnedShard, replace: bool) {
        let mut hosted = self.hosted.write().unwrap_or_else(|e| e.into_inner());
        let entry = hosted.entry(name.to_string()).or_default();
        let dims = owned.data.dims();
        let mut invalidate = replace || (entry.dims != dims && !entry.shards.is_empty());
        if invalidate {
            entry.shards.clear();
        }
        entry.dims = dims;
        let generation = (owned.shard_hash, owned.base);
        if let Some(old) = entry.shards.insert(shard, owned) {
            invalidate |= (old.shard_hash, old.base) != generation;
        }
        if invalidate {
            self.with_cache(|cache| cache.invalidate_dataset(name));
            self.with_plans(|plans| plans.invalidate_dataset(name));
        }
    }

    /// The local `LOAD`/`APPEND` install: hosts shards `from..` of
    /// `sd`, tagged `tags`, the way `SHARDPUT` does — the rows shared by
    /// `Arc`, a `LOAD` (`from == 0`) replacing the name's shards.
    pub(crate) fn install_local(&self, name: &str, sd: &ShardedDataset, tags: &[u64], from: usize) {
        for (shard, &shard_hash) in tags.iter().enumerate().skip(from) {
            let data = Arc::clone(sd.shard_arc(shard));
            let owned = OwnedShard {
                base: sd.base(shard),
                shard_hash,
                put: false,
                data,
            };
            self.install(name, shard, owned, shard == 0);
        }
    }

    /// `SHARDPUT`: install (or overwrite) one hosted shard. `replace`
    /// drops every shard previously hosted under `name` first (the
    /// coordinator sets it on the first put of a `LOAD` generation).
    pub fn shardput(
        &self,
        name: &str,
        shard: usize,
        base: usize,
        replace: bool,
        body: &[u8],
    ) -> Result<String, String> {
        let payload = frame::decode(body).map_err(|e| e.to_string())?;
        let (dims, flat) = frame::decode_points(payload).map_err(|e| e.to_string())?;
        let data = Dataset::from_flat(dims, flat);
        let rows = data.len();
        let owned = OwnedShard {
            base,
            shard_hash: shard_tag(&data),
            put: true,
            data: Arc::new(data),
        };
        self.install(name, shard, owned, replace);
        Ok(format!("dataset={name} shard={shard} rows={rows}"))
    }

    /// Caches `fp` under `key` if shard `key.shard` is still hosted at
    /// `generation` (its tag and base): a fold of a replaced shard is
    /// dropped.
    fn cache_put(&self, key: FingerprintKey, generation: (u64, usize), fp: &Arc<ShardFingerprint>) {
        let hosted = self.hosted.read().unwrap_or_else(|e| e.into_inner());
        let current = hosted
            .get(&key.dataset)
            .and_then(|d| d.shards.get(&key.shard))
            .is_some_and(|s| (s.shard_hash, s.base) == generation);
        if current {
            self.with_cache(|cache| cache.insert(key, Arc::clone(fp)));
        }
    }

    /// Runs `f` on the locked fold LRU and records its resident bytes
    /// and evictions: every change to the LRU goes through here.
    fn with_cache<R>(&self, f: impl FnOnce(&mut FingerprintCache) -> R) -> R {
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        let out = f(&mut cache);
        let relaxed = std::sync::atomic::Ordering::Relaxed;
        self.metrics
            .bytes_resident
            .store(cache.bytes() as u64, relaxed);
        self.metrics
            .cache_evictions
            .store(cache.evictions(), relaxed);
        out
    }

    /// Queues a complete fold for write-behind persistence and, with
    /// `cache`, caches it.
    fn remember(
        &self,
        (key, store_key): (FingerprintKey, StoreKey),
        generation: (u64, usize),
        fp: &Arc<ShardFingerprint>,
        cache: bool,
    ) {
        if let Some(store) = &self.store {
            store.enqueue_persist(store_key, Arc::clone(fp));
        }
        if cache {
            self.cache_put(key, generation, fp);
        }
    }

    /// The dominance plan a fully cold fold of `shard` runs through,
    /// and whether this fold built it, by admission (see
    /// [`ROW_FOLDS_BEFORE_BUILD`]). `None` — the row fold — while the
    /// key warms up or is being built by another fold, for a plan that
    /// did not fit the byte limit, and when the build was interrupted
    /// (the row fold then reports the same trip; a later fold retries).
    fn cold_plan(
        &self,
        job: &FoldJob<'_>,
        shard: usize,
        shard_hash: u64,
        sview: DatasetView<'_>,
        skip: &[bool],
        ctx: &ExecContext,
    ) -> Option<(Arc<DominancePlan>, bool)> {
        // Only `fold_shard_planned` decides whether a plan runs; this
        // guard just skips a build whose plan what is left of a tight
        // dominance budget could never fund (`m` tests per non-skyline
        // row).
        let rows = skip.iter().filter(|&&s| !s).count() as u64;
        let charge = rows.saturating_mul(job.ids.len() as u64);
        let can_build = ctx
            .budget()
            .max_dominance_tests()
            .is_none_or(|limit| charge <= limit.saturating_sub(ctx.dominance_tests()));
        let key = PlanKey {
            dataset: job.keys.0.dataset.clone(),
            shard,
            shard_hash,
            prefs: job.keys.0.prefs.clone(),
            request: job.request_hash(),
        };
        let (admission, limit) =
            self.with_plans(|plans| (plans.admit(&key, can_build), plans.limit));
        match admission {
            Admission::RowFold => None,
            Admission::Run(plan) => Some((plan, false)),
            Admission::Build => {
                let built = DominancePlan::build(sview, job.ids, &job.cols, skip, limit, ctx);
                let (slot, plan) = match built {
                    Err(_) => (PlanSlot::Seen(ROW_FOLDS_BEFORE_BUILD), None),
                    Ok(None) => (PlanSlot::NoPlan, None),
                    Ok(Some(plan)) => {
                        self.metrics.bump(&self.metrics.plan_builds);
                        let plan = Arc::new(plan);
                        (PlanSlot::Ready(Arc::clone(&plan)), Some((plan, true)))
                    }
                };
                self.with_plans(|plans| plans.finish(key, slot));
                plan
            }
        }
    }

    /// Runs `f` on the locked plan memo and records its resident bytes.
    fn with_plans<R>(&self, f: impl FnOnce(&mut PlanMemo) -> R) -> R {
        let (out, bytes) = {
            let mut plans = self.plans.lock().unwrap_or_else(|e| e.into_inner());
            let out = f(&mut plans);
            (out, plans.bytes)
        };
        self.metrics
            .plan_bytes
            .store(bytes as u64, std::sync::atomic::Ordering::Relaxed);
        out
    }

    /// Finds every one of `shards` — `(shard, tag)` pairs — of `job`'s
    /// dataset under one `hosted` read lock: hosted at its tag, with the
    /// request's dimensionality, and, when `plan` folds it in full, its
    /// LRU fold.
    fn lookup(
        &self,
        job: &FoldJob<'_>,
        plan: LegPlan,
        shards: &[(usize, u64)],
    ) -> Vec<Result<HostedShard, String>> {
        let name = &job.keys.0.dataset;
        let hosted = self.hosted.read().unwrap_or_else(|e| e.into_inner());
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        let mut find = |shard: usize, shard_hash: u64| {
            let ds = hosted
                .get(name)
                .ok_or_else(|| format!("dataset {name:?} not hosted here"))?;
            let owned = ds
                .shards
                .get(&shard)
                .ok_or_else(|| format!("shard {shard} of {name:?} not hosted here"))?;
            if owned.shard_hash != shard_hash {
                return Err(format!(
                    "shard {shard} of {name:?} is a stale generation \
                     (have {:#018x}, request expects {shard_hash:#018x})",
                    owned.shard_hash
                ));
            }
            if ds.dims != job.points.dims() {
                return Err(format!(
                    "fold request has {} dims, hosted shard has {}",
                    job.points.dims(),
                    ds.dims
                ));
            }
            let cached = match plan.columns_from(shard) {
                Some(_) => None,
                None => cache.get(&job.keys(shard).0),
            };
            Ok(HostedShard {
                base: owned.base,
                shard_hash,
                data: Arc::clone(&owned.data),
                cached,
            })
        };
        shards
            .iter()
            .map(|&(shard, shard_hash)| find(shard, shard_hash))
            .collect()
    }

    /// The one fold entry of this process: `shards` — `(shard, tag)`
    /// pairs in ascending shard order, each expected hosted at its tag,
    /// looked up together — folded under `plan` and the caller's `ctx`,
    /// min-merged into one [`Folded`]. A shard `plan` puts in a column
    /// delta is folded over the entering columns only
    /// ([`FoldJob::ids_from`]); every other one in full, from the LRU,
    /// else the store, else its rows (fully cold ones through a
    /// memoised dominance plan). The shards run one after another under
    /// the one `ctx`, so a dominance budget trips on the row a walk
    /// shard by shard trips on, and the walk stops at the first trip or
    /// lost shard. The column-delta shards come first in shard order
    /// and share one accumulator ([`fold_delta`](Self::fold_delta)). A
    /// complete full fold is queued for the store, but
    /// enters the LRU only on a plan that inherits nothing: an inherited
    /// fingerprint covers a fold made to extend it, and nothing reads
    /// that fold again. Bumps no query counter.
    pub(crate) fn fold_shards(
        &self,
        job: &FoldJob<'_>,
        plan: LegPlan,
        shards: &[(usize, u64)],
        ctx: &ExecContext,
    ) -> Folded {
        let mut folded = Folded::default();
        let hosted = self.lookup(job, plan, shards);
        let mut legs = shards.iter().map(|&(shard, _)| shard).zip(hosted);
        let deltas = shards.partition_point(|&(shard, _)| plan.columns_from(shard).is_some());
        if let Some(from) = plan.columns_from {
            self.fold_delta(job, legs.by_ref().take(deltas), from, ctx, &mut folded);
        }
        for (shard, hosted) in legs {
            if folded.interrupt.is_some() {
                break;
            }
            let leg = hosted.and_then(|hosted| {
                self.fold_full(job, shard, hosted, !plan.inherited, ctx)
            });
            folded.absorb(shard, leg, false);
        }
        folded
    }

    /// `shard`'s full fold: from the LRU, else the store, else its rows
    /// (fully cold ones through a memoised dominance plan). A complete
    /// fold is remembered — cached only with `cache`.
    fn fold_full(
        &self,
        job: &FoldJob<'_>,
        shard: usize,
        hosted: HostedShard,
        cache: bool,
        ctx: &ExecContext,
    ) -> Result<Leg, String> {
        let (keys, t) = (job.keys(shard), job.family.len());
        let HostedShard {
            base,
            shard_hash,
            data,
            mut cached,
        } = hosted;
        let generation = (shard_hash, base);
        if cached.is_none() {
            if let Some(store) = &self.store {
                cached = store.load(&keys.1).filter(|c| c.t() == t);
                if let Some(fp) = cached.as_ref().filter(|_| cache) {
                    self.cache_put(keys.0.clone(), generation, fp);
                }
            }
        }
        let cached = cached.filter(|c| c.t() == t);
        if let Some(fold) = cached.as_ref().filter(|c| c.columns == job.ids) {
            return Ok(Leg {
                fold: Arc::clone(fold),
                reused: true,
                tests: 0,
                scanned: 0,
                interrupt: None,
            });
        }

        let canon = canonicalise(&data, job.prefs).map_err(|e| e.to_string())?;
        let sview = DatasetView::with_base(canon.as_ref(), base);
        let mut skip = Vec::new();
        skyline_mask(job.ids, base, data.len(), &mut skip);
        let plan = match cached {
            Some(_) => None,
            None => self.cold_plan(job, shard, shard_hash, sview, &skip, ctx),
        };
        let before = ctx.dominance_tests();
        let (outcome, planned) = fold_shard_planned(
            sview,
            job.ids,
            &job.cols,
            &skip,
            &job.family,
            cached.as_deref(),
            plan.as_ref().map(|(plan, _)| plan.as_ref()),
            1,
            ctx,
        );
        if planned && plan.is_some_and(|(_, built)| !built) {
            self.metrics.bump(&self.metrics.plan_hits);
        }
        let tests = ctx.dominance_tests() - before;
        let (acc, reused, scanned, interrupt) = match outcome {
            // An exact fit returned above, before any row was touched.
            ShardFold::ReusedExact => return Err("exact reuse of an inexact fold".to_string()),
            ShardFold::ReusedSuperset(acc) => (acc, true, 0, None),
            ShardFold::Scanned {
                acc,
                scanned_rows,
                interrupt,
            } => (acc, false, scanned_rows, interrupt),
        };
        let fold = Arc::new(ShardFingerprint {
            columns: job.ids.to_vec(),
            acc,
        });
        if interrupt.is_none() {
            self.remember(keys, generation, &fold, cache);
        }
        Ok(Leg {
            fold,
            reused,
            tests,
            scanned,
            interrupt,
        })
    }

    /// The column delta over `shards` — `(shard, lookup)` pairs in
    /// shard order — absorbed into `folded` as one leg: their rows
    /// folded over only the columns of skyline members at global row
    /// `from` or later, with the whole skyline's skip mask, 64 rows at a
    /// time ([`RowBlockScan`]). The columns are packed and the scratch
    /// made once, and every shard is scanned into one accumulator, the
    /// walk stopping at the first trip or lost shard. It never reads or
    /// writes the LRU, the store or the plan memo: the slice is not a shard's fold. A trip leaves
    /// an empty accumulator and 0 rows scanned, as a trip inside a plan
    /// does; a lost shard absorbs as lost, after the tests charged
    /// before it.
    fn fold_delta(
        &self,
        job: &FoldJob<'_>,
        shards: impl Iterator<Item = (usize, Result<HostedShard, String>)>,
        from: usize,
        ctx: &ExecContext,
        folded: &mut Folded,
    ) {
        let columns = job.ids_from(from);
        let cols = &job.cols[job.ids.len() - columns.len()..];
        let t = job.family.len();
        let mut scan = RowBlockScan::new(job.points.dims(), cols, t);
        let fresh = || SignatureAccumulator::new(t, columns.len());
        let mut acc = fresh();
        let mut skip = Vec::new();
        let before = ctx.dominance_tests();
        let (mut last, mut interrupt) = (None, None);
        for (shard, hosted) in shards {
            last = Some(shard);
            let scanned = hosted.and_then(|hosted| {
                let canon = canonicalise(&hosted.data, job.prefs).map_err(|e| e.to_string())?;
                let sview = DatasetView::with_base(canon.as_ref(), hosted.base);
                skyline_mask(job.ids, hosted.base, hosted.data.len(), &mut skip);
                Ok(scan.scan(sview, &skip, &job.family, ctx, &mut acc))
            });
            match scanned {
                Ok(None) => {}
                Ok(Some(int)) => {
                    acc = fresh();
                    interrupt = Some(int);
                    break;
                }
                Err(e) => {
                    folded.tests += ctx.dominance_tests() - before;
                    folded.absorb(shard, Err(e), true);
                    return;
                }
            }
        }
        let Some(last) = last else {
            return;
        };
        let scanned = acc.rows_consumed;
        let fold = Arc::new(ShardFingerprint {
            columns: columns.to_vec(),
            acc,
        });
        let leg = Leg {
            fold,
            reused: false,
            tests: ctx.dominance_tests() - before,
            scanned,
            interrupt,
        };
        folded.absorb(last, Ok(leg), true);
    }

    /// `FOLD`: decode the coordinator's request (its skyline ids and
    /// canonical columns), fold the hosted shard through the host's one
    /// fold entry, `fold_shards` — over the columns from `columns_from`
    /// on only, when set (a column delta), and into the LRU only with
    /// `cache` — under the request's own budget, and count the fold for
    /// this node. Returns the response header tail and the `SKYSIG03`
    /// bundle, sent as the body as it is: it ends in its own length and
    /// checksum, which the coordinator's decode validates.
    #[allow(clippy::too_many_arguments)]
    pub fn fold(
        &self,
        name: &str,
        dataset_hash: u64,
        shard: usize,
        want_shard_hash: u64,
        prefs_spec: &str,
        t: usize,
        seed: u64,
        max_dominance_tests: Option<u64>,
        timeout_ms: Option<u64>,
        columns_from: Option<usize>,
        cache: bool,
        body: &[u8],
        cancel: &CancelToken,
    ) -> Result<(String, Vec<u8>), String> {
        let payload = frame::decode(body).map_err(|e| e.to_string())?;
        let (dims, ids, cols_flat) =
            frame::decode_fold_request(payload).map_err(|e| e.to_string())?;
        self.check_signature_size(t, ids.len())?;
        let (prefs, prefs_key) = parse_prefs(Some(prefs_spec), dims)?;
        let points = Dataset::from_flat(dims, cols_flat);
        let keys = fold_keys(name, dataset_hash, shard, &prefs_key, t, seed);
        let job = FoldJob::new(keys, &prefs, &ids, &points);
        let ctx = ExecContext::new(request_budget(cancel, timeout_ms, max_dominance_tests));
        // The one shard is the whole plan: a column delta when it comes
        // before `first`.
        let plan = LegPlan {
            first: shard + usize::from(columns_from.is_some()),
            columns_from,
            inherited: !cache,
        };
        let folded = self.fold_shards(&job, plan, &[(shard, want_shard_hash)], &ctx);
        if let Some((_, e)) = folded.failed {
            return Err(e);
        }
        let fold = folded
            .full
            .or(folded.delta)
            .ok_or_else(|| "the fold returned no shard".to_string())?;
        self.metrics
            .add(&self.metrics.dominance_tests, folded.tests);
        self.metrics.add(&self.metrics.shards_reused, folded.reused);
        let tags = job.keys.1.tags();
        let body = encode_shard_signatures(&fold, &tags);
        let mut header = format!(
            "reused={} scanned={} tests={} tripped={}",
            folded.reused,
            folded.scanned,
            folded.tests,
            match &folded.interrupt {
                None => "none",
                Some(i) => match i.reason {
                    StopReason::Cancelled => "cancelled",
                    StopReason::DeadlineExceeded { .. } => "deadline",
                    StopReason::DominanceBudgetExhausted { .. } => "dominance",
                    _ => "other",
                },
            }
        );
        if let Some(Interrupt {
            reason: StopReason::DominanceBudgetExhausted { used, limit },
            ..
        }) = &folded.interrupt
        {
            header.push_str(&format!(" trip_used={used} trip_limit={limit}"));
        }
        header.push_str(&format!(" bytes={}", body.len()));
        Ok((header, body))
    }

    /// `FETCH`: serve a fold artefact from this node's LRU or store,
    /// as a bare `SKYSIG03` bundle — the replication transport. Replies
    /// `found=0` (no body) on a miss. The LRU answers only for a shard
    /// a coordinator put here: a locally loaded dataset of the same
    /// name holds other rows.
    pub fn fetch(
        &self,
        name: &str,
        dataset_hash: u64,
        shard: usize,
        prefs_spec: &str,
        t: usize,
        seed: u64,
    ) -> Result<(String, Option<Vec<u8>>), String> {
        let dims_hint = prefs_spec.split(',').count();
        let (_, prefs_key) = parse_prefs(Some(prefs_spec), dims_hint)?;
        let (key, store_key) = fold_keys(name, dataset_hash, shard, &prefs_key, t, seed);
        let mut fp = {
            let hosted = self.hosted.read().unwrap_or_else(|e| e.into_inner());
            let put = hosted
                .get(name)
                .and_then(|d| d.shards.get(&shard))
                .is_some_and(|s| s.put);
            put.then(|| {
                self.cache
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .get(&key)
            })
            .flatten()
        };
        if fp.is_none() {
            if let Some(store) = &self.store {
                fp = store.load(&store_key);
            }
        }
        match fp.filter(|c| c.t() == t) {
            Some(fp) => {
                let body = encode_shard_signatures(&fp, &store_key.tags());
                Ok((format!("found=1 bytes={}", body.len()), Some(body)))
            }
            None => Ok(("found=0".to_string(), None)),
        }
    }

    /// `REPLICATE`: pull one fold artefact from a peer (`FETCH`) within
    /// the coordinator's forwarded `timeout_ms`, and install it for the
    /// shard hosted here. Best-effort by design — a miss, a shard not
    /// hosted here or a transport failure replies `replicated=0` and the
    /// next `FOLD` recomputes.
    #[allow(clippy::too_many_arguments)]
    pub fn replicate(
        &self,
        name: &str,
        dataset_hash: u64,
        shard: usize,
        prefs_spec: &str,
        t: usize,
        seed: u64,
        from: &str,
        timeout_ms: u64,
    ) -> Result<String, String> {
        let dims_hint = prefs_spec.split(',').count();
        let (_, prefs_key) = parse_prefs(Some(prefs_spec), dims_hint)?;
        let keys = fold_keys(name, dataset_hash, shard, &prefs_key, t, seed);
        let generation = {
            let hosted = self.hosted.read().unwrap_or_else(|e| e.into_inner());
            let owned = hosted.get(name).and_then(|d| d.shards.get(&shard));
            owned.map(|s| (s.shard_hash, s.base))
        };
        let Some(generation) = generation else {
            return Ok("replicated=0".to_string());
        };
        let deadline = DeadlineBudget::from_millis(timeout_ms);
        match pull_artefact(from, name, &keys.1, &prefs_key, &deadline) {
            Some(fp) => {
                self.remember(keys, generation, &fp, true);
                Ok("replicated=1".to_string())
            }
            None => Ok("replicated=0".to_string()),
        }
    }
}

/// Fetches one artefact from a peer on the exchange engine, validating
/// bundle checksum, key tags and signature size before accepting it.
fn pull_artefact(
    from: &str,
    name: &str,
    store_key: &StoreKey,
    prefs_key: &str,
    deadline: &DeadlineBudget,
) -> Option<Arc<ShardFingerprint>> {
    let line = format!(
        "FETCH name={name} hash={} shard={} prefs={prefs_key} t={} seed={}",
        store_key.dataset_hash, store_key.shard, store_key.t, store_key.seed
    );
    let check = |_: usize, header: &str, body: Option<Vec<u8>>| {
        if header_u64(header, "found") != Some(1) {
            return Err("no artefact".to_string());
        }
        let body = body.ok_or_else(|| "found=1 without a frame".to_string())?;
        let (fp, tags) = decode_shard_signatures(&body).map_err(|e| e.to_string())?;
        if tags != store_key.tags() || fp.t() != store_key.t {
            return Err("fetched artefact does not match its key".to_string());
        }
        Ok(Arc::new(fp))
    };
    let leg = (vec![from.to_string()], None);
    exchange(vec![leg], deadline, None, |_, _| line.clone(), check)
        .pop()?
        .ok()
}

/// Fills `skip` with the skip mask of a shard of `len` rows from global
/// row `base`: `true` at the rows of the skyline members `ids`
/// (ascending).
fn skyline_mask(ids: &[usize], base: usize, len: usize, skip: &mut Vec<bool>) {
    // The ids are ascending: only the run inside the shard marks it.
    let inside = ids.partition_point(|&id| id < base)
        ..ids.partition_point(|&id| id < base.saturating_add(len));
    skip.clear();
    skip.resize(len, false);
    for &id in ids.get(inside).unwrap_or_default() {
        if let Some(s) = id.checked_sub(base).and_then(|r| skip.get_mut(r)) {
            *s = true;
        }
    }
}

/// Extracts `key=<u64>` from a space-separated `key=value` response
/// header.
fn header_u64(header: &str, key: &str) -> Option<u64> {
    header
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.parse().ok())
}

// ---------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------

/// Coordinator state: the roster, the datasets routed to workers, and
/// the fold combinations seen so far (replayed to joining workers as
/// `REPLICATE` pulls).
pub struct ClusterState {
    replication: usize,
    shards: usize,
    fanout_timeout_ms: u64,
    membership: Mutex<Membership>,
    routed: Mutex<HashSet<String>>,
    seen: Mutex<Vec<(String, String, usize, u64)>>,
    metrics: Arc<Metrics>,
}

/// Fold combinations remembered for join-time replication (bounded).
const SEEN_CAP: usize = 64;

impl ClusterState {
    /// A coordinator over `cfg`'s initial roster.
    pub fn new(cfg: &ClusterConfig, metrics: Arc<Metrics>) -> Self {
        ClusterState {
            replication: cfg.replication.max(1),
            shards: cfg.shards.max(1),
            fanout_timeout_ms: cfg.fanout_timeout_ms.max(1),
            membership: Mutex::new(Membership::new(cfg.workers.clone())),
            routed: Mutex::new(HashSet::new()),
            seen: Mutex::new(Vec::new()),
            metrics,
        }
    }

    fn roster(&self) -> (u64, Vec<String>) {
        let m = self.membership.lock().unwrap_or_else(|e| e.into_inner());
        (m.epoch(), m.nodes().to_vec())
    }

    fn routed(&self) -> Vec<String> {
        let routed = self.routed.lock().unwrap_or_else(|e| e.into_inner());
        routed.iter().cloned().collect()
    }

    fn note_seen(&self, name: &str, prefs_key: &str, t: usize, seed: u64) {
        let combo = (name.to_string(), prefs_key.to_string(), t, seed);
        let mut seen = self.seen.lock().unwrap_or_else(|e| e.into_inner());
        if !seen.contains(&combo) {
            if seen.len() >= SEEN_CAP {
                seen.remove(0);
            }
            seen.push(combo);
        }
    }

    /// Coordinator `LOAD`: read, partition into the configured shard
    /// count, install locally (the coordinator keeps a full copy — it
    /// is the source of truth for routing and the greedy baseline),
    /// and route every shard to its owners. Fails if any shard reaches
    /// no owner at all.
    pub fn load(&self, registry: &Registry, name: &str, path: &str) -> Result<String, String> {
        let data = read_points(path)?;
        let sd = ShardedDataset::partition(&data, self.shards.min(data.len().max(1)));
        let shards = sd.num_shards();
        let (points, dims) = registry.insert_sharded(name, sd);
        self.route(registry, name, true)?;
        let (_, nodes) = self.roster();
        Ok(format!(
            "dataset={name} points={points} dims={dims} shards={shards} workers={}",
            nodes.len()
        ))
    }

    /// Coordinator `APPEND`: grow the local dataset by one shard and
    /// route only the new shard to its owners (old shards — and their
    /// folds on the workers — stay valid, the warm-append contract).
    pub fn append(&self, registry: &Registry, name: &str, path: &str) -> Result<String, String> {
        let block = read_points(path)?;
        let (points, dims, shards, appended) = registry.append_dataset(name, block)?;
        self.route(registry, name, false)?;
        Ok(format!(
            "dataset={name} points={points} dims={dims} shards={shards} appended={appended}"
        ))
    }

    /// Pushes the registry copy of `name` to its owners: every shard
    /// when `replace` marks a fresh generation (the first put to each
    /// worker clears its previous shards of this dataset) or `name` was
    /// not routed yet, else only the newest shard (an `APPEND`).
    fn route(&self, registry: &Registry, name: &str, replace: bool) -> Result<(), String> {
        let ds = registry
            .dataset(name)
            .ok_or_else(|| format!("unknown dataset {name:?}"))?;
        let newly = self
            .routed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string());
        let nshards = ds.data.num_shards();
        let from = if replace || newly {
            0
        } else {
            nshards.saturating_sub(1)
        };
        let (_, nodes) = self.roster();
        if nodes.is_empty() {
            return Ok(());
        }
        let mut cleared = HashSet::new();
        let mut puts = Vec::new();
        for shard in from..nshards {
            for owner in rendezvous::owners(&nodes, shard, self.replication) {
                let first_contact = cleared.insert(owner.clone());
                puts.push((shard, owner, replace && first_contact));
            }
        }
        let deadline = DeadlineBudget::from_millis(self.fanout_timeout_ms);
        let landed = put_shards(name, &ds, &puts, &deadline);
        match (from..nshards).find(|&s| !puts.iter().zip(&landed).any(|(p, &ok)| ok && p.0 == s)) {
            Some(shard) => Err(format!("shard {shard} of {name:?} reached no owner")),
            None => Ok(()),
        }
    }

    /// `JOIN addr=…`: add a worker, push it the shards it now owns and
    /// ask it to pull the known fold artefacts from surviving donors.
    pub fn join(&self, registry: &Registry, addr: &str) -> Result<String, String> {
        self.reshape(registry, addr, true)
    }

    /// `LEAVE addr=…`: retire a worker; shards it owned move to the
    /// rendezvous successors, which pull folds from surviving replicas.
    pub fn leave(&self, registry: &Registry, addr: &str) -> Result<String, String> {
        self.reshape(registry, addr, false)
    }

    fn reshape(&self, registry: &Registry, addr: &str, join: bool) -> Result<String, String> {
        let max_shards = self
            .routed()
            .iter()
            .filter_map(|name| registry.dataset(name))
            .map(|ds| ds.data.num_shards())
            .max()
            .unwrap_or(0)
            .max(self.shards);
        let (epoch, workers, plan) = {
            let mut m = self.membership.lock().unwrap_or_else(|e| e.into_inner());
            let plan = if join {
                m.join(addr, max_shards, self.replication)
            } else {
                m.leave(addr, max_shards, self.replication)
            };
            (m.epoch(), m.nodes().len(), plan)
        };
        let Some(plan) = plan else {
            return Ok(format!("epoch={epoch} workers={workers} moved=0"));
        };
        let moved = self.apply_handoffs(registry, &plan);
        Ok(format!("epoch={epoch} workers={workers} moved={moved}"))
    }

    /// Executes a handoff plan under one fan-out deadline: for every
    /// routed dataset, ship each moved shard's rows from the
    /// coordinator's copy, then ask each new owner to pull the folds
    /// this cluster has computed so far from a surviving donor — one
    /// `REPLICATE` at a time, since a worker serves it on its event
    /// loop while it `FETCH`es, so two in flight could wait on each
    /// other. Best-effort per leg — a failed move surfaces at query
    /// time as a replica retry.
    fn apply_handoffs(&self, registry: &Registry, plan: &[skydiver_cluster::Handoff]) -> usize {
        let seen: Vec<(String, String, usize, u64)> = {
            let s = self.seen.lock().unwrap_or_else(|e| e.into_inner());
            s.clone()
        };
        let deadline = DeadlineBudget::from_millis(self.fanout_timeout_ms);
        let mut moved = 0usize;
        for name in self.routed() {
            let Some(ds) = registry.dataset(&name) else {
                continue;
            };
            let moves: Vec<_> = plan
                .iter()
                .filter(|h| h.shard < ds.data.num_shards())
                .collect();
            let puts: Vec<_> = moves
                .iter()
                .map(|h| (h.shard, h.to.clone(), false))
                .collect();
            let landed = put_shards(&name, &ds, &puts, &deadline);
            for (h, _) in moves.iter().zip(landed).filter(|(_, ok)| *ok) {
                moved += 1;
                self.metrics.bump(&self.metrics.handoffs);
                let Some(from) = &h.from else { continue };
                for (_, prefs_key, t, seed) in seen.iter().filter(|c| c.0 == name) {
                    let line = |_: usize, ms: u64| {
                        format!(
                            "REPLICATE name={name} hash={} shard={} prefs={prefs_key} \
                             t={t} seed={seed} from={from} timeout_ms={ms}",
                            ds.content_hash, h.shard
                        )
                    };
                    let leg = (vec![h.to.clone()], None);
                    exchange(vec![leg], &deadline, None, line, |_, _, _| Ok(()));
                }
            }
        }
        moved
    }

    /// The coordinator's fingerprint path: the registry's assembler
    /// ([`Registry::fingerprint`]'s memoisation, budget and return
    /// semantics) over legs from the workers. A dataset not routed to
    /// workers, or a roster with none, folds in this process instead.
    #[allow(clippy::too_many_arguments)]
    pub fn fingerprint(
        &self,
        registry: &Registry,
        name: &str,
        prefs: &[Preference],
        prefs_key: &str,
        t: usize,
        seed: u64,
        budget: RunBudget,
    ) -> Result<(Arc<Fingerprint>, bool, u64), String> {
        let (_, nodes) = self.roster();
        let routed = self
            .routed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .contains(name);
        if nodes.is_empty() || !routed {
            return registry.fingerprint(name, prefs, prefs_key, t, seed, budget);
        }
        let fan_out = |ds: &LoadedDataset, job: &FoldJob<'_>, legs: LegPlan, ctx: &ExecContext| {
            self.fan_out(&nodes, ds, job, legs, ctx)
        };
        let out = registry.assemble(name, prefs, prefs_key, t, seed, budget, Some(&fan_out))?;
        if !out.1 && out.0.is_complete() {
            self.note_seen(name, prefs_key, t, seed);
        }
        Ok(out)
    }

    /// The remote leg source: one `FOLD` request for `job`, its legs —
    /// the ones `legs` plans, column deltas first — run on
    /// `fold_legs` under one deadline (the request's timeout, at
    /// most the fan-out's) and merged into one [`Folded`]. Unbudgeted, every leg is in flight at once;
    /// a dominance-test budget narrows the schedule to one leg at a time
    /// in shard order, each forwarded `limit − consumed`, so worker i
    /// trips exactly when the global count would pass the limit — on
    /// the single-process trip row. A failed leg does not stop the
    /// schedule; a tripped one ends it. A worker's trip is then
    /// restated in the request's terms: the tests before it, the
    /// request's limit and elapsed time.
    fn fan_out(
        &self,
        nodes: &[String],
        ds: &LoadedDataset,
        job: &FoldJob<'_>,
        legs: LegPlan,
        ctx: &ExecContext,
    ) -> Folded {
        let (dims, cols) = (job.points.dims(), job.points.as_flat());
        let payload = frame::encode(&frame::encode_fold_request(dims, job.ids, cols));
        let timeout = ctx.budget().deadline().map(|d| d.as_millis() as u64);
        let deadline = DeadlineBudget::from_millis(
            timeout
                .unwrap_or(self.fanout_timeout_ms)
                .min(self.fanout_timeout_ms),
        );
        let req = FoldRequest {
            nodes,
            ds,
            job,
            legs,
            payload: &payload,
            deadline: &deadline,
        };
        let max_dominance_tests = ctx.budget().max_dominance_tests();
        let (start, nshards) = (legs.start(), ds.data.num_shards());
        let step = if max_dominance_tests.is_some() {
            1
        } else {
            nshards.saturating_sub(start).max(1)
        };
        let mut out = Vec::with_capacity(nshards.saturating_sub(start));
        let mut consumed = 0u64;
        for lo in (start..nshards).step_by(step) {
            let remaining = max_dominance_tests.map(|limit| limit.saturating_sub(consumed));
            let batch = self.fold_legs(&req, lo..(lo + step).min(nshards), remaining);
            let tripped = batch.iter().flatten().any(|l| l.interrupt.is_some());
            consumed += batch.iter().flatten().map(|l| l.tests).sum::<u64>();
            out.extend(batch);
            if tripped {
                break;
            }
        }
        let mut folded = Folded::default();
        for (shard, mut leg) in (start..).zip(out) {
            let reason = leg.as_mut().ok().and_then(|l| l.interrupt.as_mut());
            match reason.map(|i| &mut i.reason) {
                Some(StopReason::DeadlineExceeded { elapsed }) => *elapsed = ctx.elapsed(),
                Some(StopReason::DominanceBudgetExhausted { used, limit }) => {
                    // The tests merged so far are the ones before this leg.
                    *used += folded.tests;
                    *limit = max_dominance_tests.unwrap_or(0);
                }
                _ => {}
            }
            folded.absorb(shard, leg, legs.columns_from(shard).is_some());
        }
        folded
    }

    /// The `FOLD` legs of `shards` on the exchange engine, all in
    /// flight at once and counted as fan-out legs, each tried on the
    /// shard's replicas in rendezvous order under the request's one
    /// deadline. Every leg forwards `max_dominance_tests`, when set.
    fn fold_legs(
        &self,
        req: &FoldRequest<'_>,
        shards: Range<usize>,
        max_dominance_tests: Option<u64>,
    ) -> Vec<Result<Leg, String>> {
        let legs = shards
            .clone()
            .map(|shard| {
                let owners = rendezvous::owners(req.nodes, shard, self.replication);
                (owners, Some(req.payload))
            })
            .collect();
        let shard = |i: usize| shards.start + i;
        let line = |i, ms| fold_request_line(req, shard(i), max_dominance_tests, ms);
        let check = |i, header: &str, body| parse_fold_leg(header, body, req, shard(i));
        exchange(legs, req.deadline, Some(&self.metrics), line, check)
    }

    /// The cluster `STATS` roll-up: the coordinator's own snapshot plus
    /// a `cluster` object with the roster, every worker's snapshot
    /// (one concurrent `STATS` leg per node, under one shared deadline)
    /// and a merged view of the core counters.
    pub fn stats_rollup(&self, registry: &Registry) -> String {
        let mut json = registry.stats_json();
        let (epoch, nodes) = self.roster();
        let deadline = DeadlineBudget::from_millis(self.fanout_timeout_ms);
        let mut node_parts = Vec::with_capacity(nodes.len());
        // The coordinator computes every skyline and assembles every
        // fingerprint, so the skyline and extend counters start from its
        // own tallies; the rest sum the workers.
        let own = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
        let mut merged: [(&str, u64); 12] = [
            ("queries", 0),
            ("errors", 0),
            ("dominance_tests", 0),
            ("shards_reused", 0),
            ("store_hits", 0),
            ("plan_builds", 0),
            ("plan_hits", 0),
            ("plan_bytes", 0),
            ("skyline_hits", own(&self.metrics.skyline_hits)),
            ("skyline_extends", own(&self.metrics.skyline_extends)),
            ("fingerprint_extends", own(&self.metrics.fingerprint_extends)),
            ("fingerprint_deltas", own(&self.metrics.fingerprint_deltas)),
        ];
        let legs = nodes
            .iter()
            .map(|node| (vec![node.clone()], None))
            .collect();
        let check = |_, payload: &str, _| match payload.starts_with('{') && payload.ends_with('}') {
            true => Ok(payload.to_string()),
            false => Err("STATS reply is not a JSON object".to_string()),
        };
        let replies = exchange(legs, &deadline, None, |_, _| "STATS".to_string(), check);
        for (node, stats) in nodes.iter().zip(replies) {
            match stats {
                Ok(s) => {
                    for (key, acc) in merged.iter_mut() {
                        *acc += json_u64(&s, key).unwrap_or(0);
                    }
                    node_parts.push(format!(
                        "{{\"addr\":\"{}\",\"ok\":true,\"stats\":{s}}}",
                        json_escape(node)
                    ));
                }
                Err(e) => node_parts.push(format!(
                    "{{\"addr\":\"{}\",\"ok\":false,\"error\":\"{}\"}}",
                    json_escape(node),
                    json_escape(&e)
                )),
            }
        }
        let merged_json = merged
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",");
        // Same splice discipline as `Registry::stats_json`: the pop
        // must run in every profile.
        debug_assert!(json.ends_with('}'));
        json.pop();
        json.push_str(&format!(
            ",\"cluster\":{{\"epoch\":{epoch},\"workers\":{},\"replication\":{},\
             \"shards\":{},\"nodes\":[{}],\"merged\":{{{merged_json}}}}}}}",
            nodes.len(),
            self.replication,
            self.shards,
            node_parts.join(","),
        ));
        json
    }
}

/// One in-flight multiplexed connection: the request going out (its
/// line, then the borrowed body) and the buffered response coming back.
struct LegConn<'a> {
    stream: TcpStream,
    owner: String,
    head: Vec<u8>,
    body: &'a [u8],
    wpos: usize,
    rbuf: Vec<u8>,
    started: Instant,
}

/// One leg of the exchange engine: the addresses it is tried on, in
/// order, the framed body its request carries, and its progress.
struct LegState<'a, T> {
    owners: Vec<String>,
    body: &'a [u8],
    attempt: usize,
    conn: Option<LegConn<'a>>,
    last_err: String,
    done: Option<Result<T, String>>,
}

/// Outcome of driving one connection through a readiness event.
enum Drive {
    /// More bytes to move; keep the connection registered.
    Pending,
    /// One full response buffered: the raw status line and its body.
    Complete(String, Option<Vec<u8>>),
    /// The attempt failed; the caller retries on the next replica.
    Failed(String),
}

/// The exchange engine, the one way this process talks to another
/// server. Each leg is a list of addresses tried in order and an
/// optional framed body. Every leg is in flight at once, a connect →
/// write → read state machine multiplexed on the calling thread by the
/// readiness shim, all under one shared `deadline` — a stalled peer can
/// never hold the caller past it. `line(i, ms)` builds leg `i`'s
/// request line for one attempt, with `ms` left of the deadline to
/// forward; `check(i, payload, body)` turns an `OK` reply into the
/// leg's result. An `ERR` reply, a failed check or a transport failure
/// retries the leg on its next address. With `fanout`, attempts,
/// retries, failures and latencies are recorded as fan-out legs.
fn exchange<'a, T>(
    legs: Vec<(Vec<String>, Option<&'a [u8]>)>,
    deadline: &DeadlineBudget,
    fanout: Option<&Metrics>,
    line: impl Fn(usize, u64) -> String,
    check: impl Fn(usize, &str, Option<Vec<u8>>) -> Result<T, String>,
) -> Vec<Result<T, String>> {
    let mut poller = Poller::new().unwrap_or_else(|e| {
        // A node-local resource failure (fd limit); the portable
        // backend drives the same state machine.
        eprintln!("skydiver-cluster: native poller unavailable ({e}); using poll(2)");
        Poller::portable()
    });
    let mut legs: Vec<LegState<'a, T>> = legs
        .into_iter()
        .map(|(owners, body)| LegState {
            owners,
            body: body.unwrap_or_default(),
            attempt: 0,
            conn: None,
            last_err: "no address to try".to_string(),
            done: None,
        })
        .collect();
    let mut events = Vec::new();
    // lint: allow(R2) -- every pass checks the shared deadline and
    // fails all pending legs once it expires
    loop {
        for (token, leg) in legs.iter_mut().enumerate() {
            // lint: allow(R2) -- bounded by the leg's address count, with
            // the shared deadline checked on entry to every attempt
            while leg.done.is_none() && leg.conn.is_none() {
                let Some(owner) = leg.owners.get(leg.attempt).cloned() else {
                    leg.done = Some(Err(std::mem::take(&mut leg.last_err)));
                    break;
                };
                let Some(ms) = deadline.remaining_ms() else {
                    leg.done = Some(Err("deadline exhausted".to_string()));
                    break;
                };
                leg.attempt += 1;
                if let Some(m) = fanout {
                    m.bump(&m.fanout_legs);
                    if leg.attempt > 1 {
                        m.bump(&m.fanout_retries);
                    }
                }
                let started = Instant::now();
                match connect_leg(&owner, deadline, &mut poller, token) {
                    Ok(stream) => {
                        let mut head = line(token, ms).into_bytes();
                        head.push(b'\n');
                        leg.conn = Some(LegConn {
                            stream,
                            owner,
                            head,
                            body: leg.body,
                            wpos: 0,
                            rbuf: Vec::new(),
                            started,
                        });
                    }
                    Err(e) => leg.last_err = format!("{owner}: {e}"),
                }
            }
        }
        if legs.iter().all(|l| l.done.is_some()) {
            break;
        }
        let waited = match deadline.remaining_ms() {
            None => Err("deadline exhausted".to_string()),
            Some(ms) => poller
                .wait(&mut events, Some(Duration::from_millis(ms.min(50))))
                .map_err(|e| format!("poll wait failed: {e}")),
        };
        if let Err(e) = waited {
            for leg in legs.iter_mut().filter(|l| l.done.is_none()) {
                leg.done = Some(Err(e.clone()));
            }
            break;
        }
        for ev in &events {
            let token = ev.token as usize;
            let Some(leg) = legs.get_mut(token) else {
                continue;
            };
            let Some(conn) = leg.conn.as_mut() else {
                continue;
            };
            let reply = match drive_conn(&mut poller, conn, ev) {
                Drive::Pending => continue,
                Drive::Complete(line, body) => {
                    parse_response(&line).and_then(|payload| check(token, &payload, body))
                }
                Drive::Failed(e) => Err(e),
            };
            let Some(conn) = leg.conn.take() else {
                continue;
            };
            let _ = poller.deregister(conn.stream.as_raw_fd());
            match reply {
                Ok(v) => {
                    if let Some(m) = fanout {
                        m.fanout
                            .record_micros(conn.started.elapsed().as_micros() as u64);
                    }
                    leg.done = Some(Ok(v));
                }
                Err(e) => leg.last_err = format!("{}: {e}", conn.owner),
            }
        }
    }
    let results: Vec<Result<T, String>> = legs
        .into_iter()
        .map(|l| {
            l.done
                .unwrap_or_else(|| Err("exchange incomplete".to_string()))
        })
        .collect();
    if let Some(m) = fanout {
        let failures = results.iter().filter(|r| r.is_err()).count();
        m.add(&m.fanout_failures, failures as u64);
    }
    results
}

/// What every `FOLD` leg of one fan-out sends, and checks its reply
/// against.
struct FoldRequest<'a> {
    nodes: &'a [String],
    /// The generation folded: its content hash and shard tags.
    ds: &'a LoadedDataset,
    job: &'a FoldJob<'a>,
    /// Which shards are folded over a column delta.
    legs: LegPlan,
    /// The framed `FOLD` body: the skyline's ids and canonical columns.
    payload: &'a [u8],
    deadline: &'a DeadlineBudget,
}

/// Ships `ds`'s rows to their owners, one `SHARDPUT` leg per
/// `(shard, owner, replace)` in `puts`, all in flight at once under
/// `deadline` — except that every `replace=1` put runs first: it clears
/// its owner's old generation, so it must land before that owner's
/// other puts, which it would otherwise wipe. Returns which puts landed;
/// a failed one is logged.
fn put_shards(
    name: &str,
    ds: &LoadedDataset,
    puts: &[(usize, String, bool)],
    deadline: &DeadlineBudget,
) -> Vec<bool> {
    let mut bodies = HashMap::new();
    for &(shard, ..) in puts {
        bodies.entry(shard).or_insert_with(|| {
            let rows = ds.data.shard_view(shard);
            frame::encode(&frame::encode_points(ds.data.dims(), rows.as_flat()))
        });
    }
    let mut landed = vec![false; puts.len()];
    for replacing in [true, false] {
        let round: Vec<usize> = (0..puts.len())
            .filter(|&i| puts[i].2 == replacing)
            .collect();
        let legs = round
            .iter()
            .map(|&i| (vec![puts[i].1.clone()], Some(bodies[&puts[i].0].as_slice())))
            .collect();
        let line = |j: usize, _| {
            let (shard, _, replace) = puts[round[j]];
            format!(
                "SHARDPUT name={name} shard={shard} base={} replace={} bytes={}",
                ds.data.shard_range(shard).0,
                replace as u8,
                bodies[&shard].len()
            )
        };
        let results = exchange(legs, deadline, None, line, |_, _, _| Ok(()));
        for (&i, result) in round.iter().zip(results) {
            match result {
                Ok(()) => landed[i] = true,
                Err(e) => eprintln!(
                    "skydiver-cluster: SHARDPUT {name}/{} failed: {e}",
                    puts[i].0
                ),
            }
        }
    }
    landed
}

/// Builds one leg's `FOLD` request line, forwarding the worker the
/// fan-out's remaining time and the leg's dominance-test budget. A full
/// fold of an inherited plan says `cache=0`, as the single-process host
/// keeps it out of its LRU (a column delta is never cached).
fn fold_request_line(
    req: &FoldRequest<'_>,
    shard: usize,
    max_dominance_tests: Option<u64>,
    timeout_ms: u64,
) -> String {
    let (key, hash) = (&req.job.keys.0, req.ds.content_hash);
    let mut line = format!(
        "FOLD dataset={} hash={hash} shard={shard} shard_hash={} prefs={} t={} seed={} \
         timeout_ms={timeout_ms}",
        key.dataset, req.ds.shard_tags[shard], key.prefs, key.t, key.seed,
    );
    if let Some(n) = max_dominance_tests {
        line.push_str(&format!(" max_dominance_tests={n}"));
    }
    match req.legs.columns_from(shard) {
        Some(from) => line.push_str(&format!(" columns_from={from}")),
        None if req.legs.inherited => line.push_str(" cache=0"),
        None => {}
    }
    line.push_str(&format!(" bytes={}", req.payload.len()));
    line
}

/// Validates one `FOLD` reply (header payload plus `SKYSIG03` bundle)
/// into a completed leg: bundle format, length and checksum, key tags,
/// signature size and skyline coverage must all match the request — on
/// a column-delta leg exactly the columns from its `columns_from` row
/// on — and the header must carry `reused=`, `tests=` and, on a
/// dominance trip, `trip_used=`.
/// Any miss is a leg error, retried on the next replica — a missing
/// test count must never over-grant the budget forwarded to later legs.
fn parse_fold_leg(
    header: &str,
    body: Option<Vec<u8>>,
    req: &FoldRequest<'_>,
    shard: usize,
) -> Result<Leg, String> {
    let body = body.ok_or_else(|| "fold response carried no frame".to_string())?;
    let (fp, tags) = decode_shard_signatures(&body).map_err(|e| e.to_string())?;
    if tags != req.job.keys(shard).1.tags() {
        return Err("fold artefact key tags do not match the request".to_string());
    }
    let columns = match req.legs.columns_from(shard) {
        Some(from) => req.job.ids_from(from),
        None => req.job.ids,
    };
    if fp.t() != req.job.family.len() || fp.columns != columns {
        return Err("fold artefact does not cover the requested skyline columns".to_string());
    }
    let field = |key: &str| {
        header_u64(header, key).ok_or_else(|| format!("fold reply lacks a valid {key}="))
    };
    let tests = field("tests")?;
    let reused = match field("reused")? {
        0 => false,
        1 => true,
        other => return Err(format!("fold reply has reused={other}")),
    };
    // The trip in the worker's terms; the fan-out restates it.
    let reason = match header
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("tripped="))
    {
        None | Some("none") => None,
        Some("cancelled") => Some(StopReason::Cancelled),
        Some("deadline") => Some(StopReason::DeadlineExceeded {
            elapsed: Duration::ZERO,
        }),
        Some("dominance") => {
            let used = field("trip_used")?;
            Some(StopReason::DominanceBudgetExhausted { used, limit: 0 })
        }
        Some(other) => return Err(format!("unknown trip kind {other:?}")),
    };
    let interrupt = reason.map(|reason| Interrupt {
        phase: ExecPhase::Fingerprint,
        reason,
    });
    Ok(Leg {
        fold: Arc::new(fp),
        reused,
        tests,
        scanned: 0,
        interrupt,
    })
}

/// Connects `addr` within what is left of `deadline` (a blocking
/// connect), switches the stream nonblocking and registers it with
/// `poller` under `token`.
fn connect_leg(
    addr: &str,
    deadline: &DeadlineBudget,
    poller: &mut Poller,
    token: usize,
) -> std::io::Result<TcpStream> {
    let remaining = deadline
        .remaining()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::TimedOut, "deadline exhausted"))?;
    let sockaddr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "bad address"))?;
    let stream = TcpStream::connect_timeout(&sockaddr, remaining)?;
    stream.set_nodelay(true).ok();
    stream.set_nonblocking(true)?;
    poller.register(stream.as_raw_fd(), token as u64, Interest::BOTH)?;
    Ok(stream)
}

/// Moves bytes for one connection after a readiness event: drains the
/// request while writable (downgrading to read-only interest once it is
/// out), then reads until the response completes or the socket would
/// block.
fn drive_conn(poller: &mut Poller, conn: &mut LegConn<'_>, ev: &Event) -> Drive {
    let total = conn.head.len() + conn.body.len();
    if ev.writable && conn.wpos < total {
        // lint: allow(R2) -- drains a bounded request buffer and exits
        // on WouldBlock; the outer engine loop holds the deadline
        loop {
            let out = match conn.wpos.checked_sub(conn.head.len()) {
                None => &conn.head[conn.wpos..],
                Some(at) => &conn.body[at..],
            };
            match conn.stream.write(out) {
                Ok(0) => return Drive::Failed("transport: connection closed mid-request".into()),
                Ok(n) => {
                    conn.wpos += n;
                    if conn.wpos == total {
                        let _ = poller.modify(conn.stream.as_raw_fd(), ev.token, Interest::READ);
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Drive::Failed(format!("transport: {e}")),
            }
        }
    }
    if ev.readable {
        let mut chunk = [0u8; 16 * 1024];
        // lint: allow(R2) -- reads until WouldBlock/EOF or a complete
        // response; response size is capped by `complete_response`
        loop {
            let closed = match conn.stream.read(&mut chunk) {
                Ok(0) => true,
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    false
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Drive::Failed(format!("transport: {e}")),
            };
            match complete_response(&conn.rbuf) {
                Ok(Some(((line, body), _))) => return Drive::Complete(line, body),
                Ok(None) if closed => {
                    return Drive::Failed("transport: server closed the connection".into())
                }
                Ok(None) => {}
                Err(e) => return Drive::Failed(e),
            }
        }
    }
    if ev.closed && !ev.readable {
        return Drive::Failed("transport: connection closed".into());
    }
    Drive::Pending
}

#[cfg(test)]
mod tests {
    use super::*;
    use skydiver_core::fold_shard;
    use skydiver_data::digest::checksum64;

    fn host() -> ShardHost {
        ShardHost::new(1 << 22, Arc::new(Metrics::new()), None, 1 << 20)
    }

    fn put(h: &ShardHost, name: &str, shard: usize, base: usize, dims: usize, rows: &[f64]) {
        let body = frame::encode(&frame::encode_points(dims, rows));
        h.shardput(name, shard, base, false, &body).unwrap();
    }

    #[test]
    fn shardput_then_fold_matches_local_fold() {
        let h = host();
        // 6 rows, 2 dims; rows 2 and 4 are skyline members (toy mask).
        let rows: Vec<f64> = (0..12).map(|i| (i % 5) as f64).collect();
        put(&h, "d", 1, 10, 2, &rows);
        let payload = frame::encode_points(2, &rows);
        let shard_hash = fnv1a64(&payload);
        let ids = vec![10usize, 12];
        let cols = vec![0.0, 1.0, 2.0, 3.0];
        let body = frame::encode(&frame::encode_fold_request(2, &ids, &cols));
        let cancel = CancelToken::new();
        let (header, bundle) = h
            .fold(
                "d", 7, 1, shard_hash, "min,min", 16, 3, None, None, None, true, &body, &cancel,
            )
            .unwrap();
        assert!(header.contains("tripped=none"), "{header}");
        assert!(header.ends_with(&format!(" bytes={}", bundle.len())), "{header}");
        let (fp, tags) = decode_shard_signatures(&bundle).unwrap();
        assert_eq!(tags[0], 7);
        assert_eq!(fp.columns, ids);

        // Local truth: same fold via the shared core path.
        let data = Dataset::from_flat(2, rows.clone());
        let prefs = Preference::all_min(2);
        let canon = canonicalise(&data, &prefs).unwrap();
        let family = HashFamily::new(16, 3);
        let ctx = ExecContext::new(RunBudget::none().with_max_dominance_tests(u64::MAX));
        let view = DatasetView::with_base(canon.as_ref(), 10);
        let skip = vec![true, false, true, false, false, false];
        let col_refs: Vec<&[f64]> = cols.chunks(2).collect();
        let ShardFold::Scanned { acc, .. } =
            fold_shard(view, &ids, &col_refs, &skip, &family, None, 1, &ctx)
        else {
            panic!("expected a scan");
        };
        assert_eq!(fp.acc.matrix, acc.matrix);
        assert_eq!(fp.acc.scores, acc.scores);

        // Capped at 2^20 bytes, t = 2^15 over m = 2 columns (plus the
        // two hash coefficients, 8 bytes each) just fits; a hostile t is
        // an error, not an allocation — over no columns as well.
        let empty = frame::encode(&frame::encode_fold_request(2, &[], &[]));
        let fold = |t, body: &[u8]| {
            h.fold(
                "d", 7, 1, shard_hash, "min,min", t, 3, None, None, None, true, body, &cancel,
            )
        };
        assert!(fold(1 << 15, &body).is_ok());
        assert!(fold((1 << 15) + 1, &body).unwrap_err().contains("frame limit"));
        assert!(fold(1 << 40, &body).unwrap_err().contains("frame limit"));
        assert!(fold(1 << 40, &empty).unwrap_err().contains("frame limit"));
    }

    /// A cold `FOLD` on a planned shard whose cancel token fires
    /// mid-plan answers degraded (cancelled); its fold is neither cached
    /// nor stored, and the next `FOLD` of the key answers in full,
    /// bit-identically to the row fold.
    #[test]
    fn a_cancelled_plan_fold_is_degraded_and_not_cached() {
        use skydiver_data::dominance::MinDominance;
        use skydiver_data::DominanceOrd;
        let metrics = Arc::new(Metrics::new());
        let h = ShardHost::new(1 << 24, Arc::clone(&metrics), None, 1 << 24);
        let data = skydiver_data::generators::independent(2_000, 3, 41);
        let flat = data.as_flat().to_vec();
        let (base, t) = (500, 32);
        put(&h, "d", 0, base, 3, &flat);
        let shard_hash = fnv1a64(&frame::encode_points(3, &flat));
        let sky: Vec<usize> = (0..data.len())
            .filter(|&i| {
                !(0..data.len()).any(|j| MinDominance.dominates(data.point(j), data.point(i)))
            })
            .collect();
        let ids: Vec<usize> = sky.iter().map(|&i| i + base).collect();
        let cols: Vec<f64> = sky.iter().flat_map(|&i| data.point(i).to_vec()).collect();
        let body = frame::encode(&frame::encode_fold_request(3, &ids, &cols));
        let fold = |seed: u64, cancel: &CancelToken| {
            h.fold(
                "d",
                1,
                0,
                shard_hash,
                "min,min,min",
                t,
                seed,
                None,
                None,
                None,
                true,
                &body,
                cancel,
            )
            .unwrap()
        };
        let count = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
        // Row folds mark the key, then one builds the plan (and runs
        // through it).
        let warm_up = 10..10 + u64::from(ROW_FOLDS_BEFORE_BUILD);
        for seed in warm_up.clone() {
            fold(seed, &CancelToken::new());
        }
        assert_eq!(
            count(&metrics.plan_builds),
            0,
            "the first cold folds only mark the key"
        );
        fold(warm_up.end, &CancelToken::new());
        assert_eq!(count(&metrics.plan_builds), 1);
        assert_eq!(count(&metrics.plan_hits), 0, "a build is not a hit");
        assert!(count(&metrics.plan_bytes) > 0);

        // The plan polls at its first leaf, then CHECK_INTERVAL rows on.
        let (header, _) = fold(3, &CancelToken::after_polls(2));
        assert!(header.contains("tripped=cancelled"), "{header}");
        assert!(header.contains("scanned=0"), "{header}");
        assert_eq!(count(&metrics.plan_hits), 1);
        let (found, _) = h.fetch("d", 1, 0, "min,min,min", t, 3).unwrap();
        assert_eq!(found, "found=0", "a cancelled fold is never cached");

        let (header, bundle) = fold(3, &CancelToken::new());
        assert!(
            header.contains("reused=0") && header.contains("tripped=none"),
            "{header}"
        );
        assert_eq!(count(&metrics.plan_hits), 2);
        let (fp, _) = decode_shard_signatures(&bundle).unwrap();
        let mut skip = vec![false; data.len()];
        for &i in &sky {
            skip[i] = true;
        }
        let col_refs: Vec<&[f64]> = cols.chunks(3).collect();
        let ctx = ExecContext::new(RunBudget::none().with_max_dominance_tests(u64::MAX));
        let view = DatasetView::with_base(&data, base);
        let family = HashFamily::new(t, 3);
        let ShardFold::Scanned { acc, .. } =
            fold_shard(view, &ids, &col_refs, &skip, &family, None, 1, &ctx)
        else {
            panic!("expected a scan");
        };
        assert_eq!(fp.acc, acc);
        let tests = ctx.dominance_tests();
        assert!(
            header.contains(&format!("tests={tests} ")),
            "{header} vs {tests}"
        );

        // A new generation of the shard drops its plans.
        put(&h, "d", 0, base, 3, &flat[..flat.len() - 3]);
        assert_eq!(count(&metrics.plan_bytes), 0);
    }

    #[test]
    fn one_fold_builds_a_plan_at_a_time() {
        let key = |request| PlanKey {
            dataset: "d".into(),
            shard: 0,
            shard_hash: 1,
            prefs: "min,min".into(),
            request,
        };
        let mut memo = PlanMemo::new(1 << 20);
        for _ in 0..ROW_FOLDS_BEFORE_BUILD {
            assert!(matches!(memo.admit(&key(1), true), Admission::RowFold));
        }
        // A budget that cannot fund the shard leaves the key warm.
        assert!(matches!(memo.admit(&key(1), false), Admission::RowFold));
        assert!(matches!(memo.admit(&key(1), true), Admission::Build));
        // A concurrent cold fold of the key does not build it again.
        assert!(matches!(memo.admit(&key(1), true), Admission::RowFold));
        memo.finish(key(1), PlanSlot::NoPlan);
        assert!(matches!(memo.admit(&key(1), true), Admission::RowFold));
        assert!(matches!(memo.get(&key(1)), Some(PlanSlot::NoPlan)));
        // A build whose slot a new generation dropped is discarded.
        for _ in 0..=ROW_FOLDS_BEFORE_BUILD {
            memo.admit(&key(2), true);
        }
        assert!(matches!(memo.get(&key(2)), Some(PlanSlot::Building)));
        memo.invalidate_dataset("d");
        memo.finish(key(2), PlanSlot::NoPlan);
        assert!(memo.get(&key(2)).is_none());
        assert_eq!(memo.bytes, 0);
    }

    /// A job hashes its fold request for the plan key on first use
    /// only, and keeps the FNV-1a of the encoded request.
    #[test]
    fn a_job_hashes_its_request_once_on_demand() {
        let prefs = Preference::all_min(2);
        let points = Dataset::from_flat(2, vec![1.0, 2.0, 0.5, 3.0]);
        let ids = vec![4usize, 9];
        let job = FoldJob::new(fold_keys("d", 1, 0, "min,min", 8, 3), &prefs, &ids, &points);
        assert!(job.request.get().is_none(), "no cold shard asked yet");
        let want = fnv1a64(&frame::encode_fold_request(2, &ids, points.as_flat()));
        assert_eq!(job.request_hash(), want);
        assert_eq!(job.request.get(), Some(&want));
        assert_eq!(job.request_hash(), want);
    }

    /// One tag function: the local install tags a shard exactly as a
    /// worker tags the `SHARDPUT` payload the coordinator sends.
    /// Every digest built on the one FNV-1a helper — frame checksums,
    /// rendezvous weights and shard tags — keeps the values the
    /// separate copies computed before it, and a `SKYSIG03` bundle's
    /// footer holds its `checksum64`.
    #[test]
    fn fnv_digests_are_pinned() {
        let sum = |bytes: &[u8]| u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        for (payload, want) in [
            (&b""[..], 0xcbf2_9ce4_8422_2325),
            (b"a", 0xaf63_dc4c_8601_ec8c),
            (b"skydiver", 0x2499_9565_861b_bdfa),
            (&[0, 1, 2, 255, 254][..], 0x35c1_bdd0_c720_0a91),
        ] {
            assert_eq!(sum(&frame::encode(payload)), want, "{payload:?}");
        }
        let flat = [1.0, 2.0, 3.5, -4.25];
        let points = frame::encode(&frame::encode_points(2, &flat));
        assert_eq!(sum(&points), 0x42c1_e6b4_925b_206d);
        assert_eq!(
            shard_tag(&Dataset::from_flat(2, flat.to_vec())),
            0x42c1_e6b4_925b_206d
        );
        for (node, shard, want) in [
            ("127.0.0.1:7801", 0, 0x0915_5eee_b670_e035),
            ("127.0.0.1:7802", 0, 0x14ea_3878_1daf_1df0),
            ("127.0.0.1:7801", 5, 0x2cf9_59d9_08b9_cec1),
            ("w", 1 << 40, 0xfa6a_32b3_2a71_2413),
            ("", 3, 0x23d4_49f6_cc18_2bd1),
        ] {
            assert_eq!(rendezvous::weight(node, shard), want, "{node:?} {shard}");
        }
        let mut acc = SignatureAccumulator::new(3, 2);
        acc.matrix.set_column(0, &[5, 6, 7]);
        acc.matrix.set_column(1, &[1, u64::MAX, 9]);
        acc.scores = vec![4, 2];
        acc.rows_consumed = 11;
        let fp = ShardFingerprint {
            columns: vec![3, 8],
            acc,
        };
        let bundle = encode_shard_signatures(&fp, &[1, 2, 3, 4]);
        assert_eq!(bundle.len(), 160);
        assert_eq!(sum(&bundle), 0x56de_d54e_e8ef_e6d5);
        assert_eq!(sum(&bundle), checksum64(&bundle[..144]));
        assert_eq!(fnv1a64(&bundle), 0x63ed_7208_1bc1_9500);
    }

    #[test]
    fn shard_tag_is_the_fnv_of_the_shardput_payload() {
        let data = skydiver_data::generators::anticorrelated(300, 3, 5);
        let payload = frame::encode_points(3, data.as_flat());
        assert_eq!(shard_tag(&data), fnv1a64(&payload));
    }

    /// A shard whose tag or base changes drops the dataset's cached
    /// folds, and a fold of the replaced generation is never cached
    /// afterwards.
    #[test]
    fn a_new_generation_drops_and_refuses_old_folds() {
        let h = host();
        let rows = [1.0, 2.0, 3.0, 4.0];
        put(&h, "d", 0, 0, 2, &rows);
        let tag = fnv1a64(&frame::encode_points(2, &rows));
        let fold = Arc::new(ShardFingerprint {
            columns: vec![0],
            acc: skydiver_core::SignatureAccumulator::new(4, 1),
        });
        let (key, _) = fold_keys("d", 1, 0, "min,min", 4, 0);
        h.cache_put(key.clone(), (tag, 0), &fold);
        assert_eq!(h.cache_usage().0, 1);
        // Same rows, another base: another generation.
        put(&h, "d", 0, 5, 2, &rows);
        assert_eq!(h.cache_usage().0, 0, "a moved shard drops its folds");
        h.cache_put(key.clone(), (tag, 0), &fold);
        assert_eq!(h.cache_usage().0, 0, "a fold of the old base is refused");
        h.cache_put(key, (tag, 5), &fold);
        assert_eq!(h.cache_usage().0, 1);
    }

    /// `FETCH` offers a cached fold only of a shard a coordinator put
    /// here: a locally loaded dataset of the same name is not the
    /// coordinator's.
    #[test]
    fn fetch_offers_only_shards_a_coordinator_put_here() {
        let h = host();
        let rows = vec![1.0, 2.0, 3.0, 4.0];
        let data = ShardedDataset::from_dataset(Dataset::from_flat(2, rows.clone()));
        let tags = [shard_tag(data.shard(0))];
        h.install_local("d", &data, &tags, 0);
        let body = frame::encode(&frame::encode_fold_request(2, &[0], &[1.0, 2.0]));
        let cancel = CancelToken::new();
        h.fold(
            "d", 1, 0, tags[0], "min,min", 8, 0, None, None, None, true, &body, &cancel,
        )
        .unwrap();
        assert_eq!(h.cache_usage().0, 1);
        assert_eq!(h.fetch("d", 1, 0, "min,min", 8, 0).unwrap().0, "found=0");
        // The same rows put by a coordinator keep the fold, and offer it.
        put(&h, "d", 0, 0, 2, &rows);
        assert!(h
            .fetch("d", 1, 0, "min,min", 8, 0)
            .unwrap()
            .0
            .starts_with("found=1"));
    }

    /// Every host lock recovers from poison: a thread that panics while
    /// holding one leaves `SHARDPUT`, `FOLD` and `FETCH` answering.
    #[test]
    fn host_survives_poisoned_locks() {
        let h = Arc::new(host());
        let rows = [1.0, 2.0, 3.0, 4.0];
        put(&h, "d", 0, 0, 2, &rows);
        for lock in 0..3 {
            let h = Arc::clone(&h);
            let _ = std::thread::spawn(move || {
                let _hosted = (lock == 0).then(|| h.hosted.write());
                let _cache = (lock == 1).then(|| h.cache.lock());
                let _plans = (lock == 2).then(|| h.plans.lock());
                panic!("poison host lock {lock}");
            })
            .join();
        }
        assert!(h.hosted.is_poisoned() && h.cache.is_poisoned() && h.plans.is_poisoned());
        put(&h, "d", 1, 2, 2, &rows);
        let tag = fnv1a64(&frame::encode_points(2, &rows));
        let body = frame::encode(&frame::encode_fold_request(2, &[0], &[1.0, 2.0]));
        let cancel = CancelToken::new();
        let fold = h.fold(
            "d", 1, 1, tag, "min,min", 8, 0, None, None, None, true, &body, &cancel,
        );
        assert!(fold.unwrap().0.contains("tripped=none"));
        assert!(h
            .fetch("d", 1, 1, "min,min", 8, 0)
            .unwrap()
            .0
            .starts_with("found=1"));
        assert_eq!(h.hosted_counts(), (1, 2));
    }

    #[test]
    fn fold_rejects_stale_generation() {
        let h = host();
        let rows = vec![1.0, 2.0, 3.0, 4.0];
        put(&h, "d", 0, 0, 2, &rows);
        let ids = vec![0usize];
        let body = frame::encode(&frame::encode_fold_request(2, &ids, &[1.0, 2.0]));
        let cancel = CancelToken::new();
        let err = h
            .fold(
                "d",
                1,
                0,
                0xdead_beef,
                "min,min",
                8,
                0,
                None,
                None,
                None,
                true,
                &body,
                &cancel,
            )
            .unwrap_err();
        assert!(err.contains("stale"), "{err}");
    }

    #[test]
    fn replace_clears_previous_generation() {
        let h = host();
        put(&h, "d", 0, 0, 2, &[1.0, 2.0]);
        put(&h, "d", 1, 1, 2, &[3.0, 4.0]);
        assert_eq!(h.hosted_counts(), (1, 2));
        let body = frame::encode(&frame::encode_points(2, &[9.0, 9.0]));
        h.shardput("d", 0, 0, true, &body).unwrap();
        assert_eq!(h.hosted_counts(), (1, 1), "replace drops the old shards");
    }

    #[test]
    fn fetch_misses_cleanly_without_artefacts() {
        let h = host();
        let (header, body) = h.fetch("ghost", 1, 0, "min,min", 8, 0).unwrap();
        assert_eq!(header, "found=0");
        assert!(body.is_none());
    }

    #[test]
    fn header_kv_parser_reads_u64s() {
        assert_eq!(header_u64("reused=1 tests=42 bytes=7", "tests"), Some(42));
        assert_eq!(header_u64("reused=1", "tests"), None);
    }

    /// A `FOLD` reply must name its test count and reuse flag, and a
    /// dominance trip its `trip_used`: a reply missing one is a leg
    /// error (retried on the next replica), never a zero-test leg that
    /// over-grants the budget forwarded to later legs.
    #[test]
    fn fold_reply_header_fields_are_required() {
        let reg = Registry::new(1 << 22, Arc::new(Metrics::new()));
        reg.insert_dataset("d", Dataset::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]));
        let ds = reg.dataset("d").unwrap();
        let ids = vec![0usize];
        let body = frame::encode(&frame::encode_fold_request(2, &ids, &[1.0, 2.0]));
        let (hash, tag, cancel) = (ds.content_hash, ds.shard_tags[0], CancelToken::new());
        let (header, frame_bytes) = reg
            .host()
            .fold(
                "d", hash, 0, tag, "min,min", 8, 3, None, None, None, true, &body, &cancel,
            )
            .unwrap();
        let prefs = Preference::all_min(2);
        let points = Dataset::from_flat(2, vec![1.0, 2.0]);
        let job = FoldJob::new(
            fold_keys("d", hash, 0, "min,min", 8, 3),
            &prefs,
            &ids,
            &points,
        );
        let deadline = DeadlineBudget::from_millis(1_000);
        let (nodes, payload) = (&[], &body);
        let req = FoldRequest {
            nodes,
            ds: &ds,
            job: &job,
            legs: LegPlan::default(),
            payload,
            deadline: &deadline,
        };
        let parse = |header: &str| parse_fold_leg(header, Some(frame_bytes.clone()), &req, 0);

        let leg = parse(&header).unwrap();
        assert_eq!(leg.tests, header_u64(&header, "tests").unwrap());
        assert!(!leg.reused && leg.interrupt.is_none());
        let trip = parse("reused=0 scanned=1 tests=9 tripped=dominance trip_used=5 trip_limit=5");
        assert!(matches!(
            trip.unwrap().interrupt.map(|i| i.reason),
            Some(StopReason::DominanceBudgetExhausted { used: 5, .. })
        ));

        for bad in [
            "reused=0 scanned=1 tripped=none",
            "reused=0 scanned=1 tests=x tripped=none",
            "scanned=1 tests=9 tripped=none",
            "reused=2 scanned=1 tests=9 tripped=none",
            "reused=0 scanned=1 tests=9 tripped=dominance trip_limit=5",
        ] {
            let err = parse(bad).err().expect(bad);
            assert!(err.contains("fold reply"), "{bad}: {err}");
        }
    }

    /// A worker that answers every connection with one canned reply
    /// line and frame, once it has read the request line and its body.
    fn canned_worker(line: String, frame: Vec<u8>) -> String {
        use std::io::BufRead;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                let mut reader = std::io::BufReader::new(stream);
                let mut request = String::new();
                reader.read_line(&mut request).unwrap();
                let mut body = vec![0; header_u64(&request, "bytes").unwrap() as usize];
                reader.read_exact(&mut body).unwrap();
                let mut out = reader.into_inner();
                out.write_all(format!("{line}\n").as_bytes()).unwrap();
                out.write_all(&frame).unwrap();
            }
        });
        addr
    }

    /// A `FOLD` reply body is the bare `SKYSIG03` bundle, so its own
    /// checksum is all that guards it: a reply with one flipped byte —
    /// or an older worker's `SKYSIG02` bundle of the same fold — is a
    /// leg error, retried on the next replica, and only the replica's
    /// intact fold is returned for merging.
    #[test]
    fn a_flipped_or_older_fold_reply_is_retried_never_merged() {
        let reg = Registry::new(1 << 22, Arc::new(Metrics::new()));
        reg.insert_dataset("d", Dataset::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]));
        let ds = reg.dataset("d").unwrap();
        let ids = vec![0usize];
        let body = frame::encode(&frame::encode_fold_request(2, &ids, &[1.0, 2.0]));
        let (hash, tag, cancel) = (ds.content_hash, ds.shard_tags[0], CancelToken::new());
        let (header, bundle) = reg
            .host()
            .fold(
                "d", hash, 0, tag, "min,min", 8, 3, None, None, None, true, &body, &cancel,
            )
            .unwrap();
        let mut flipped = bundle.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        // The same layout under the old magic, sealed with FNV-1a.
        let mut older = bundle.clone();
        let payload_len = older.len() - 16;
        older[..8].copy_from_slice(b"SKYSIG02");
        let sum = fnv1a64(&older[..payload_len]);
        older[payload_len + 8..].copy_from_slice(&sum.to_le_bytes());

        let prefs = Preference::all_min(2);
        let points = Dataset::from_flat(2, vec![1.0, 2.0]);
        let job = FoldJob::new(
            fold_keys("d", hash, 0, "min,min", 8, 3),
            &prefs,
            &ids,
            &points,
        );
        let deadline = DeadlineBudget::from_millis(5_000);
        let req = FoldRequest {
            nodes: &[],
            ds: &ds,
            job: &job,
            legs: LegPlan::default(),
            payload: &body,
            deadline: &deadline,
        };
        for (bad, why) in [(flipped, "checksum mismatch"), (older, "older SKYSIG02 format")] {
            let err = parse_fold_leg(&header, Some(bad.clone()), &req, 0)
                .err()
                .expect("a bad bundle is refused");
            assert!(err.contains(why), "{err}");

            let metrics = Metrics::new();
            let line = format!("OK {header}");
            let owners = vec![
                canned_worker(line.clone(), bad),
                canned_worker(line, bundle.clone()),
            ];
            let check = |_, header: &str, body| parse_fold_leg(header, body, &req, 0);
            let mut got = exchange(
                vec![(owners, Some(&body[..]))],
                &deadline,
                Some(&metrics),
                |_, ms| fold_request_line(&req, 0, None, ms),
                check,
            );
            let leg = got.pop().unwrap().unwrap();
            let intact = decode_shard_signatures(&bundle).unwrap().0;
            assert_eq!((&leg.fold.columns, &leg.fold.acc), (&intact.columns, &intact.acc));
            use std::sync::atomic::Ordering::Relaxed;
            assert_eq!(metrics.fanout_retries.load(Relaxed), 1, "the {why} reply was retried");
            assert_eq!(metrics.fanout_failures.load(Relaxed), 0);
        }
    }

    /// A column-delta leg must come back with exactly the requested
    /// suffix of the skyline's columns: a worker that replies with the
    /// full fold instead gives a leg error, retried on the next replica,
    /// and only the replica's delta is returned for merging.
    #[test]
    fn a_delta_reply_over_other_columns_is_retried_never_merged() {
        let reg = Registry::new(1 << 22, Arc::new(Metrics::new()));
        let mut sd = ShardedDataset::new(2);
        sd.push_shard(Dataset::from_flat(2, vec![0.5, 9.0, 4.0, 4.0, 5.0, 5.0]));
        sd.push_shard(Dataset::from_flat(2, vec![1.0, 2.0, 2.0, 1.0]));
        reg.insert_sharded("d", sd);
        let ds = reg.dataset("d").unwrap();
        let ids = vec![0usize, 3, 4];
        let cols = [0.5, 9.0, 1.0, 2.0, 2.0, 1.0];
        let body = frame::encode(&frame::encode_fold_request(2, &ids, &cols));
        let (hash, tag, cancel) = (ds.content_hash, ds.shard_tags[0], CancelToken::new());
        let reply = |columns_from| {
            let (header, frame) = reg
                .host()
                .fold(
                    "d",
                    hash,
                    0,
                    tag,
                    "min,min",
                    8,
                    3,
                    None,
                    None,
                    columns_from,
                    true,
                    &body,
                    &cancel,
                )
                .unwrap();
            (format!("OK {header}"), frame)
        };
        let (full, delta) = (reply(None), reply(Some(3)));

        let prefs = Preference::all_min(2);
        let points = Dataset::from_flat(2, cols.to_vec());
        let job = FoldJob::new(
            fold_keys("d", hash, 0, "min,min", 8, 3),
            &prefs,
            &ids,
            &points,
        );
        let deadline = DeadlineBudget::from_millis(5_000);
        let legs = LegPlan {
            first: 1,
            columns_from: Some(3),
            inherited: true,
        };
        let req = FoldRequest {
            nodes: &[],
            ds: &ds,
            job: &job,
            legs,
            payload: &body,
            deadline: &deadline,
        };
        let payload = |(line, _): &(String, Vec<u8>)| parse_response(line).unwrap();
        let err = parse_fold_leg(&payload(&full), Some(full.1.clone()), &req, 0)
            .err()
            .expect("a full fold is not the delta");
        assert!(err.contains("requested skyline columns"), "{err}");
        assert!(parse_fold_leg(&payload(&delta), Some(delta.1.clone()), &req, 1).is_err());
        let leg = parse_fold_leg(&payload(&delta), Some(delta.1.clone()), &req, 0).unwrap();
        assert_eq!(leg.fold.columns, [3, 4]);

        let metrics = Metrics::new();
        let owners = vec![
            canned_worker(full.0, full.1),
            canned_worker(delta.0, delta.1),
        ];
        let line = |_, ms| fold_request_line(&req, 0, None, ms);
        assert!(line(0, 9).contains(" columns_from=3 "), "{}", line(0, 9));
        let check = |_, header: &str, frame| parse_fold_leg(header, frame, &req, 0);
        let mut got = exchange(
            vec![(owners, Some(&body[..]))],
            &deadline,
            Some(&metrics),
            line,
            check,
        );
        let leg = got.pop().unwrap().unwrap();
        assert_eq!(leg.fold.columns, [3, 4], "the replica's delta");
        assert_eq!(leg.fold.acc.m(), 2);
        use std::sync::atomic::Ordering::Relaxed;
        assert_eq!(
            metrics.fanout_retries.load(Relaxed),
            1,
            "the full fold was retried"
        );
        assert_eq!(metrics.fanout_failures.load(Relaxed), 0);
    }
}
