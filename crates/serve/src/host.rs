//! The shard host: every shard fold of this process.
//!
//! The [`Registry`](crate::Registry) owns one [`ShardHost`] per
//! process: the shards this node hosts (from a local `LOAD`/`APPEND` or
//! a coordinator's `SHARDPUT`), one fold LRU, the optional durable
//! store and the dominance-plan memo. Its one fold entry,
//! `ShardHost::fold_shards`, folds a single-process `QUERY`'s shards in
//! one call, and a worker's `FOLD` shard behind a thin wire wrapper. It
//! caches only the folds of a query that inherits no fingerprint: the
//! folds that extend an inherited one are persisted, never cached.
//!
//! The host also answers the other worker verbs: `SHARDPUT` installs a
//! shard, `FETCH` serves a fold artefact from the LRU or the store, and
//! `REPLICATE` pulls one from a peer over the exchange engine.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Duration;

use skydiver_cluster::frame;
use skydiver_cluster::DeadlineBudget;
use skydiver_core::minhash::persist::{decode_shard_signatures, encode_shard_signatures};
use skydiver_core::{
    canonicalise, fold_shard_planned, CancelToken, DominancePlan, ExecContext, ExecPhase,
    HashFamily, Interrupt, RowBlockScan, RunBudget, ShardFingerprint, ShardFold,
    SignatureAccumulator, StopReason,
};
use skydiver_data::digest::fnv1a64;
use skydiver_data::{Dataset, DatasetView, Preference, ShardedDataset};

use crate::cache::{ByteLru, FingerprintCache, FingerprintKey, LruKey};
use crate::exchange::{exchange, header_u64};
use crate::metrics::Metrics;
use crate::protocol::{parse_prefs, shard_tag};
use crate::store::{prefs_hash, SignatureStore, StoreKey};

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

/// The budget of one request: the server-wide cancellation token plus
/// the client's `timeout_ms` and `max_dominance_tests` limits. `QUERY`,
/// `BATCH` and a worker's `FOLD` all build theirs here.
pub(crate) fn request_budget(
    cancel: &CancelToken,
    timeout_ms: Option<u64>,
    max_dominance_tests: Option<u64>,
) -> RunBudget {
    let mut budget = RunBudget::none().with_cancel_token(cancel.clone());
    if let Some(ms) = timeout_ms {
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    if let Some(n) = max_dominance_tests {
        budget = budget.with_max_dominance_tests(n);
    }
    budget
}

/// The legs one assembly asks for, in shard order: with
/// `columns_from`, shards `0..first` folded over only the skyline
/// columns from that global row on (a column delta), then shards
/// `first..` over every column; without it, shards `first..` alone.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LegPlan {
    /// The first shard folded over every column.
    pub(crate) first: usize,
    /// The global row a column delta's columns start at.
    pub(crate) columns_from: Option<usize>,
    /// The legs extend an inherited fingerprint (an extension or a
    /// column delta). Once merged into it, nothing reads their folds
    /// again, so none enters a fold LRU.
    pub(crate) inherited: bool,
}

impl LegPlan {
    /// The first shard with a leg.
    pub(crate) fn start(&self) -> usize {
        match self.columns_from {
            Some(_) => 0,
            None => self.first,
        }
    }

    /// Where `shard`'s leg starts its columns: `None` for a full fold.
    pub(crate) fn columns_from(&self, shard: usize) -> Option<usize> {
        self.columns_from.filter(|_| shard < self.first)
    }
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

impl LruKey<PlanSlot> for PlanKey {
    fn dataset(&self) -> &str {
        &self.dataset
    }

    /// The key's entry, its strings and, for a plan, the plan's bytes.
    fn charge(&self, slot: &PlanSlot) -> usize {
        let plan = match slot {
            PlanSlot::Ready(plan) => plan.memory_bytes(),
            PlanSlot::Seen(_) | PlanSlot::Building | PlanSlot::NoPlan => 0,
        };
        std::mem::size_of::<(PlanKey, PlanSlot, u64)>()
            + self.dataset.len()
            + self.prefs.len()
            + plan
    }
}

/// Memo of dominance plans: the byte-bounded LRU, least recently used
/// out first, plus its admission of cold folds.
type PlanMemo = ByteLru<PlanKey, PlanSlot>;

impl PlanMemo {
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
                self.insert(key.clone(), PlanSlot::Building);
                Admission::Build
            }
            Some(PlanSlot::Seen(n)) => {
                self.insert(key.clone(), PlanSlot::Seen(n + 1));
                Admission::RowFold
            }
            None => {
                self.insert(key.clone(), PlanSlot::Seen(1));
                Admission::RowFold
            }
            Some(PlanSlot::Building | PlanSlot::NoPlan) => Admission::RowFold,
        }
    }

    /// Ends the build of `key` with `slot`, unless the slot stopped
    /// being [`PlanSlot::Building`] meanwhile (a new generation of the
    /// shard dropped the dataset's plans, or the entry was evicted):
    /// then the result is dropped. A plan larger than the whole limit
    /// is kept as [`PlanSlot::NoPlan`].
    fn finish(&mut self, key: PlanKey, mut slot: PlanSlot) {
        if !matches!(self.peek(&key), Some(PlanSlot::Building)) {
            return;
        }
        if key.charge(&slot) > self.ceiling() {
            slot = PlanSlot::NoPlan;
        }
        self.insert(key, slot);
    }
}

/// One fold request, decoded once: where its folds live, the skyline
/// every shard is folded against and the hash family it is folded
/// under. A `QUERY` builds one per query; a worker's `FOLD` one per
/// request.
pub(crate) struct FoldJob<'a> {
    /// The LRU and store keys of one of the request's shards.
    pub(crate) keys: (FingerprintKey, StoreKey),
    prefs: &'a [Preference],
    /// Ascending global ids of the skyline members, and their canonical
    /// coordinates (row `j` is column `j` of the fold).
    pub(crate) ids: &'a [usize],
    pub(crate) points: &'a Dataset,
    cols: Vec<&'a [f64]>,
    pub(crate) family: HashFamily,
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
    pub(crate) fn keys(&self, shard: usize) -> (FingerprintKey, StoreKey) {
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

    /// `(datasets, shards)` hosted.
    #[cfg(test)]
    pub(crate) fn hosted_counts(&self) -> (usize, usize) {
        let hosted = self.hosted.read().unwrap_or_else(|e| e.into_inner());
        let shards = hosted.values().map(|d| d.shards.len()).sum();
        (hosted.len(), shards)
    }

    /// Fold cache occupancy: `(entries, resident bytes, ceiling)`.
    // lint: allow(R10) -- tests/store.rs reads the fold cache through it
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
            self.with_plans(|plans| (plans.admit(&key, can_build), plans.ceiling()));
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
            (out, plans.bytes())
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


#[cfg(test)]
mod tests {
    use super::*;
    use skydiver_core::fold_shard;

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
        assert_eq!(memo.bytes(), 0);
    }

    /// A dominance plan over the skyline of `n` independent rows.
    fn plan_of(n: usize, seed: u64) -> Arc<DominancePlan> {
        use skydiver_data::dominance::MinDominance;
        use skydiver_data::DominanceOrd;
        let data = skydiver_data::generators::independent(n, 3, seed);
        let skip: Vec<bool> = (0..n)
            .map(|i| !(0..n).any(|j| MinDominance.dominates(data.point(j), data.point(i))))
            .collect();
        let ids: Vec<usize> = (0..n).filter(|&i| skip[i]).collect();
        let cols: Vec<&[f64]> = ids.iter().map(|&i| data.point(i)).collect();
        let ctx = ExecContext::new(RunBudget::none());
        let view = DatasetView::with_base(&data, 0);
        let plan = DominancePlan::build(view, &ids, &cols, &skip, usize::MAX, &ctx);
        Arc::new(plan.unwrap().unwrap())
    }

    /// The plan memo is the shared byte-bounded LRU: a second plan that
    /// does not fit beside the first evicts it, a plan larger than the
    /// whole limit is kept as `NoPlan` and charged only its key, and
    /// dropping a dataset returns every byte — and so the host's
    /// `plan_bytes` counter — to 0.
    #[test]
    fn the_plan_memo_evicts_by_charged_bytes() {
        let key = |request| PlanKey {
            dataset: "d".into(),
            shard: 0,
            shard_hash: 1,
            prefs: "min,min,min".into(),
            request,
        };
        let admit_and_build = |memo: &mut PlanMemo, request, plan: &Arc<DominancePlan>| {
            for _ in 0..ROW_FOLDS_BEFORE_BUILD {
                assert!(matches!(memo.admit(&key(request), true), Admission::RowFold));
            }
            assert!(matches!(memo.admit(&key(request), true), Admission::Build));
            memo.finish(key(request), PlanSlot::Ready(Arc::clone(plan)));
        };
        let (small, large) = (plan_of(300, 5), plan_of(600, 6));
        let ready = |request, plan: &Arc<DominancePlan>| {
            key(request).charge(&PlanSlot::Ready(Arc::clone(plan)))
        };
        let (c1, c2) = (ready(1, &small), ready(2, &large));
        let key_only = key(1).charge(&PlanSlot::NoPlan);
        assert!(key_only < c1 && c1 < c2);

        // Room for either plan, not for both.
        let mut memo = PlanMemo::new(c2 + key_only);
        admit_and_build(&mut memo, 1, &small);
        assert_eq!(memo.bytes(), c1);
        admit_and_build(&mut memo, 2, &large);
        assert!(memo.get(&key(1)).is_none(), "the older plan is evicted");
        assert!(matches!(memo.get(&key(2)), Some(PlanSlot::Ready(_))));
        assert_eq!((memo.len(), memo.bytes()), (1, c2));

        // A plan over the whole limit is kept as NoPlan, charged its key.
        let mut memo = PlanMemo::new(c1 - 1);
        admit_and_build(&mut memo, 1, &small);
        assert!(matches!(memo.get(&key(1)), Some(PlanSlot::NoPlan)));
        assert_eq!(memo.bytes(), key_only);

        // The host's counter follows the memo down to 0.
        let metrics = Arc::new(Metrics::new());
        let h = ShardHost::new(PLAN_SHARE * (c2 + key_only), Arc::clone(&metrics), None, 1 << 20);
        h.with_plans(|memo| admit_and_build(memo, 2, &large));
        let plan_bytes = || metrics.plan_bytes.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(plan_bytes(), c2 as u64);
        h.with_plans(|memo| memo.invalidate_dataset("d"));
        assert_eq!(plan_bytes(), 0);
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
}
